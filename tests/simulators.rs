//! Cross-crate integration tests: every application trace runs to
//! completion on both simulated machines at every locality level, and the
//! runs satisfy the invariants the paper's evaluation relies on.

use jade::apps::{cholesky, ocean, pagerank, string_app, water};
use jade::dash::{self, DashConfig};
use jade::dsim::{FaultPlan, SimDuration};
use jade::ipsc::{self, IpscConfig, IpscRunResult};
use jade::{LocalityMode, Trace};

fn traces(procs: usize) -> Vec<(&'static str, Trace, bool)> {
    vec![
        (
            "water",
            water::run_trace(&water::WaterConfig::small(procs)).0,
            false,
        ),
        (
            "string",
            string_app::run_trace(&string_app::StringConfig::small(procs)).0,
            false,
        ),
        (
            "ocean",
            ocean::run_trace(&ocean::OceanConfig::small(procs)).0,
            true,
        ),
        (
            "cholesky",
            cholesky::run_trace(&cholesky::CholeskyConfig::small(procs)).0,
            true,
        ),
    ]
}

#[test]
fn every_app_runs_on_dash_at_every_level() {
    for procs in [1usize, 3, 8] {
        for (name, trace, placed) in traces(procs) {
            for mode in LocalityMode::ALL {
                if mode == LocalityMode::TaskPlacement && !placed {
                    continue;
                }
                let r = dash::run(&trace, &DashConfig::paper(procs, mode, 1e-6));
                assert_eq!(
                    r.tasks_executed,
                    trace.task_count(),
                    "{name} procs={procs} {mode}: every task must execute"
                );
                assert!(r.exec_time_s > 0.0);
                assert!(
                    r.exec_time_s >= r.task_time_s / procs as f64 * 0.99,
                    "{name}: makespan can't beat perfect speedup"
                );
                assert!((0.0..=100.0).contains(&r.locality_pct));
            }
        }
    }
}

#[test]
fn every_app_runs_on_ipsc_at_every_level() {
    for procs in [1usize, 3, 8] {
        for (name, trace, placed) in traces(procs) {
            for mode in LocalityMode::ALL {
                if mode == LocalityMode::TaskPlacement && !placed {
                    continue;
                }
                let r = ipsc::run(&trace, &IpscConfig::paper(procs, mode, 1e-6));
                assert_eq!(
                    r.tasks_executed,
                    trace.task_count(),
                    "{name} procs={procs} {mode}"
                );
                assert!(r.exec_time_s > 0.0);
                assert!((0.0..=100.0).contains(&r.locality_pct));
                if procs == 1 {
                    assert_eq!(r.fetches, 0, "{name}: no fetches on one processor");
                }
            }
        }
    }
}

#[test]
fn dash_placement_gives_full_locality() {
    let trace = ocean::run_trace(&ocean::OceanConfig::small(5)).0;
    let r = dash::run(
        &trace,
        &DashConfig::paper(5, LocalityMode::TaskPlacement, 1e-6),
    );
    assert_eq!(r.locality_pct, 100.0);
    assert_eq!(r.steals, 0);
}

#[test]
fn more_processors_do_not_lose_tasks() {
    // More processors than tasks: degenerate but must complete.
    let trace = water::run_trace(&water::WaterConfig {
        molecules: 32,
        iterations: 1,
        procs: 2,
        seed: 3,
    })
    .0;
    for procs in [4usize, 16, 32] {
        let d = dash::run(
            &trace,
            &DashConfig::paper(procs, LocalityMode::Locality, 1e-6),
        );
        assert_eq!(d.tasks_executed, trace.task_count());
        let i = ipsc::run(
            &trace,
            &IpscConfig::paper(procs, LocalityMode::Locality, 1e-6),
        );
        assert_eq!(i.tasks_executed, trace.task_count());
    }
}

#[test]
fn work_free_runs_complete_and_are_faster() {
    let trace = cholesky::run_trace(&cholesky::CholeskyConfig::small(4)).0;
    let full = IpscConfig::paper(4, LocalityMode::TaskPlacement, 1e-5);
    let mut free = full.clone();
    free.work_free = true;
    let rf = ipsc::run(&trace, &full);
    let rw = ipsc::run(&trace, &free);
    assert!(rw.exec_time_s < rf.exec_time_s);
    assert_eq!(rw.tasks_executed, rf.tasks_executed);
}

#[test]
fn simulators_are_deterministic_across_runs() {
    let trace = ocean::run_trace(&ocean::OceanConfig::small(4)).0;
    let d1 = dash::run(&trace, &DashConfig::paper(4, LocalityMode::Locality, 1e-6));
    let d2 = dash::run(&trace, &DashConfig::paper(4, LocalityMode::Locality, 1e-6));
    assert_eq!(d1.exec_time_s, d2.exec_time_s);
    assert_eq!(d1.steals, d2.steals);
    let i1 = ipsc::run(&trace, &IpscConfig::paper(4, LocalityMode::Locality, 1e-6));
    let i2 = ipsc::run(&trace, &IpscConfig::paper(4, LocalityMode::Locality, 1e-6));
    assert_eq!(i1.exec_time_s, i2.exec_time_s);
    assert_eq!(i1.comm_bytes, i2.comm_bytes);
}

#[test]
fn replication_off_serializes_on_both_machines() {
    // Section 5.1: all applications have an object read by every task in
    // the important parallel phases; without replication they serialize.
    let trace = water::run_trace(&water::WaterConfig::small(6)).0;
    let spo = 1e-4;
    let d_on = DashConfig::paper(6, LocalityMode::Locality, spo);
    let mut d_off = d_on.clone();
    d_off.replication = false;
    let don = dash::run(&trace, &d_on);
    let doff = dash::run(&trace, &d_off);
    assert!(doff.exec_time_s > 1.5 * don.exec_time_s);
    let mut i_off = IpscConfig::paper(6, LocalityMode::Locality, spo);
    i_off.replication = false;
    let ion = ipsc::run(&trace, &IpscConfig::paper(6, LocalityMode::Locality, spo));
    let ioff = ipsc::run(&trace, &i_off);
    assert!(ioff.exec_time_s > 1.5 * ion.exec_time_s);
}

#[test]
fn broadcast_volume_accounted() {
    // Water's position object becomes broadcast after the first phases.
    let trace = water::run_trace(&water::WaterConfig::small(8)).0;
    let r = ipsc::run(&trace, &IpscConfig::paper(8, LocalityMode::Locality, 1e-6));
    assert!(
        r.broadcasts > 0,
        "adaptive broadcast should engage for Water"
    );
    let mut off = IpscConfig::paper(8, LocalityMode::Locality, 1e-6);
    off.adaptive_broadcast = false;
    let r2 = ipsc::run(&trace, &off);
    assert_eq!(r2.broadcasts, 0);
}

/// What a faulty managed run must reproduce bit for bit.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    exec_time_bits: u64,
    msgs_dropped: u64,
    msgs_retried: u64,
    msgs_discarded: u64,
    prefetch_hits: u64,
    prefetch_stale: u64,
    agg_objects: u64,
    comm_bytes: u64,
    tasks_reexecuted: u64,
    checkpoint_bytes: u64,
}

impl Fingerprint {
    fn of(r: &IpscRunResult) -> Fingerprint {
        Fingerprint {
            exec_time_bits: r.exec_time_s.to_bits(),
            msgs_dropped: r.msgs_dropped,
            msgs_retried: r.msgs_retried,
            msgs_discarded: r.msgs_discarded,
            prefetch_hits: r.prefetch_hits,
            prefetch_stale: r.prefetch_stale,
            agg_objects: r.agg_objects,
            comm_bytes: r.comm_bytes,
            tasks_reexecuted: r.tasks_reexecuted,
            checkpoint_bytes: r.checkpoint_bytes,
        }
    }
}

/// One application's golden values: its `final_versions`, run-length encoded
/// as `(version, count)` and the same under every plan, then the run under
/// the racy plan and the run under the failing one.
type Golden = (&'static str, &'static [(u64, usize)], [Fingerprint; 2]);

/// Recorded at PR 19 (`b6a4331`), before the per-fetch path was rewritten.
const GOLDEN: [Golden; 2] = [
    (
        "water",
        &[(2, 1), (0, 1), (2, 18)],
        [
            Fingerprint {
                exec_time_bits: 0x40789279a76a8779,
                msgs_dropped: 5,
                msgs_retried: 8,
                msgs_discarded: 5,
                prefetch_hits: 28,
                prefetch_stale: 0,
                agg_objects: 14,
                comm_bytes: 233072,
                tasks_reexecuted: 0,
                checkpoint_bytes: 0,
            },
            Fingerprint {
                exec_time_bits: 0x4082835efaace21f,
                msgs_dropped: 0,
                msgs_retried: 7,
                msgs_discarded: 7,
                prefetch_hits: 27,
                prefetch_stale: 0,
                agg_objects: 0,
                comm_bytes: 221544,
                tasks_reexecuted: 1,
                checkpoint_bytes: 23200,
            },
        ],
    ),
    (
        "pagerank",
        &[(2, 84), (4, 42), (1, 1)],
        [
            Fingerprint {
                exec_time_bits: 0x4018605cbcee1e0f,
                msgs_dropped: 68,
                msgs_retried: 94,
                msgs_discarded: 21,
                prefetch_hits: 666,
                prefetch_stale: 0,
                agg_objects: 444,
                comm_bytes: 881344,
                tasks_reexecuted: 0,
                checkpoint_bytes: 0,
            },
            Fingerprint {
                exec_time_bits: 0x401adbf9c252de5d,
                msgs_dropped: 29,
                msgs_retried: 121,
                msgs_discarded: 72,
                prefetch_hits: 624,
                prefetch_stale: 0,
                agg_objects: 405,
                comm_bytes: 823816,
                tasks_reexecuted: 1,
                checkpoint_bytes: 99831,
            },
        ],
    ),
];

/// The other fault batteries compare a run with itself (folded against
/// traced, faulty against fault-free versions, one seed twice), so a
/// refactor that moves a retry by one calendar slot passes them all. This
/// pins faulty managed runs against constants: late and duplicated replies
/// racing a re-armed ack timer (plan one), and loss with a fail-stop and
/// checkpoints (plan two).
#[test]
fn faulty_managed_runs_match_their_golden_fingerprints() {
    let traces = [
        (
            water::run_trace(&water::WaterConfig::small(8)).0,
            water::calib::IPSC_STRIPPED_S,
        ),
        (
            pagerank::run_trace(&pagerank::PagerankConfig::small(8)).0,
            pagerank::calib::IPSC_STRIPPED_S,
        ),
    ];
    for ((trace, stripped_s), (name, versions, golden)) in traces.iter().zip(&GOLDEN) {
        let sec_per_op = stripped_s / trace.total_work();
        let mut cfg = IpscConfig::paper(8, LocalityMode::Locality, sec_per_op);
        cfg.aggregate_fetches = true;
        cfg.prefetch = true;
        cfg.target_tasks = 2;
        cfg.tune = true;
        let clean = ipsc::try_run(trace, &cfg).expect("fault-free run completes");
        let versions: Vec<u64> = versions
            .iter()
            .flat_map(|&(v, n)| std::iter::repeat_n(v, n))
            .collect();
        assert_eq!(clean.final_versions, versions, "{name}");
        let at = |share: f64| SimDuration::from_secs_f64(clean.exec_time_s * share);
        let racy =
            FaultPlan::parse("drop=0.05,dup=0.02,delay=0.1:0.0005,reorder=0.05,seed=1995").unwrap();
        let failing = FaultPlan {
            fail_proc: Some(3),
            fail_at: at(0.4),
            checkpoint: Some(at(0.125)),
            ..FaultPlan::parse("drop=0.02,seed=1995").unwrap()
        };
        for (plan, want) in [racy, failing].into_iter().zip(golden) {
            cfg.faults = plan;
            let r = ipsc::try_run(trace, &cfg).expect("faulty run completes");
            assert_eq!(Fingerprint::of(&r), *want, "{name} under {plan:?}");
            assert_eq!(r.final_versions, versions, "{name} under {plan:?}");
        }
    }
}
