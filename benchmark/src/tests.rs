//! Smoke tests at the compile-time tiny scale (`TINY`): the names the
//! benchmark declares are the names it emits, counts repeat, nothing
//! fails, and the checkers can fail.

use crate::harness::RunArgs;
use crate::metrics::{self, MetricDef, WORKLOADS};
use crate::run_workload;
use jade::core::chrome::{parse_json, Json};

const ARGS: RunArgs = RunArgs {
    seed: 1995,
    seconds: 0.0,
};

fn valid_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    (1..=64).contains(&s.len())
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars().all(ok)
}

fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_is_the_declared_manifest_and_within_the_contract() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        text,
        metrics::manifest(),
        "regenerate with `jade-benchmark manifest`"
    );
    assert!(text.len() <= 64 * 1024);
    let doc = parse_json(&text).unwrap();
    let Json::Obj(keys) = &doc else {
        panic!("not an object")
    };
    let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let (e2e, layers) = (metrics::end_to_end(), metrics::per_layer());
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&e2e.len()));
    assert!(
        (1..=128).contains(&layers.len()),
        "{} per-layer metrics",
        layers.len()
    );
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(e2e.iter().chain(&layers).map(|m| m.name.as_str()));
    for n in &names {
        assert!(valid_name(n), "bad name `{n}`");
    }
    let unique: std::collections::BTreeSet<_> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    for m in e2e.iter().chain(&layers) {
        assert!(valid_unit(m.unit), "bad unit `{}`", m.unit);
    }
    for w in &WORKLOADS {
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why is {} chars",
            w.name,
            w.why.len()
        );
    }
    for m in &e2e {
        let bound = m.bound.unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
        assert_eq!(m.better, metrics::Better::Lower);
    }
    let setup = e2e
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!(setup.unit, "s");
    assert!(
        e2e.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
    assert_eq!(crate::apps::App::ALL.map(|a| a.key()), metrics::APPS);
}

/// Every declared name, its value, for one run.
fn values(workload: &str, args: &RunArgs, traced: bool) -> Vec<(MetricDef, f64)> {
    let (report, _) = run_workload(workload, args, traced).unwrap();
    assert_eq!(report.failed, 0, "{workload}: {:?}", report.failures);
    assert!(report.attempted > 0);
    report
        .rows()
        .into_iter()
        .map(|(m, v, _)| (m.clone(), v))
        .collect()
}

#[test]
fn every_workload_reports_every_end_to_end_metric_and_none_is_zero() {
    for w in &WORKLOADS {
        // `Report::set` refuses undeclared names, so emitted ⊆ declared.
        for (m, v) in values(w.name, &ARGS, false) {
            assert!(v.is_finite() && v > 0.0, "{} {} = {v}", w.name, m.name);
        }
    }
}

#[test]
fn traced_runs_report_finite_layers_and_counts_repeat() {
    for w in &WORKLOADS {
        let a = values(w.name, &ARGS, true);
        let b = values(w.name, &ARGS, true);
        let other_seed = values(w.name, &RunArgs { seed: 7, ..ARGS }, true);
        assert_eq!(a.len(), metrics::per_layer().len());
        let get = |vs: &[(MetricDef, f64)], name: &str| {
            vs.iter().find(|(m, _)| m.name == name).unwrap().1
        };
        for (m, v) in &a {
            assert!(v.is_finite(), "{} {} = {v}", w.name, m.name);
            if m.exact {
                assert_eq!(
                    *v,
                    get(&b, &m.name),
                    "{} {} differs between two runs",
                    w.name,
                    m.name
                );
            }
        }
        assert_eq!(get(&a, "failed_frac"), 0.0);
        assert_eq!(get(&a, "host.workers"), crate::harness::workers() as f64);
        // Counts that do not depend on the seed.
        let fixed: &[&str] = match w.name {
            "threads-fine" => &["threads.tasks", "core.events.per_task"],
            "service-mix" => &["service.dags", "service.tasks", "service.refused"],
            _ => &[],
        };
        for name in fixed {
            assert!(get(&a, name) > 0.0 || *name == "service.refused");
            assert_eq!(
                get(&a, name),
                get(&other_seed, name),
                "{} {name} depends on the seed",
                w.name
            );
        }
        // A layer the workload does not drive reads 0.
        if !w.name.starts_with("sim-") {
            assert_eq!(get(&a, "ipsc.events") + get(&a, "dash.events"), 0.0);
        }
        if w.name == "sim-ipsc-demand" {
            for managed in [
                "ipsc.prefetches_issued",
                "ipsc.agg_objects",
                "ipsc.msgs_dropped",
                "ipsc.checkpoints",
            ] {
                assert_eq!(get(&a, managed), 0.0, "{managed} on the demand path");
            }
        }
        if w.name == "sim-ipsc-managed" {
            assert!(get(&a, "ipsc.prefetches_issued") > 0.0 && get(&a, "ipsc.msgs_dropped") > 0.0);
        }
    }
}
