//! Jade's core semantic guarantee: a Jade program produces the same result
//! as its serial elaboration, on every backend. Each application is run
//! through the serially-executing trace runtime, the plain serial
//! reference where one exists, and the real-thread parallel backend at
//! several worker counts, and the outputs must agree bit-for-bit (the applications order their reductions explicitly,
//! so even floating point is deterministic).

use jade::apps::{cholesky, halo, ocean, pagerank, string_app, water};
use jade::core::{check_conservation, check_lifecycle, Metrics};
use jade::ThreadRuntime;

/// One application on `ThreadRuntime` at 1, 2, 4 and 8 workers against its
/// serial result: output bit-identical untraced (completions batched) and
/// traced (flushed one by one), the recorded stream's lifecycles and spans
/// clean, and the deterministic counters the same at every worker count.
fn assert_matches_serial<O: PartialEq + std::fmt::Debug>(
    serial: &O,
    run_on: impl Fn(&mut ThreadRuntime) -> O,
) {
    let mut one_worker = None;
    for workers in [1usize, 2, 4, 8] {
        assert_eq!(
            &run_on(&mut ThreadRuntime::new(workers)),
            serial,
            "{workers} workers"
        );
        let mut rt = ThreadRuntime::new(workers);
        rt.enable_events();
        assert_eq!(&run_on(&mut rt), serial, "{workers} workers, traced");
        let events = rt.take_events();
        check_lifecycle(&events).expect("lifecycle holds");
        let m = Metrics::from_events(&events, workers);
        check_conservation(&events, workers, m.makespan_ps).expect("spans conserve");
        let counters = (
            m.tasks_created,
            m.tasks_enabled,
            m.tasks_dispatched,
            m.tasks_started,
            m.tasks_completed,
            m.releases,
        );
        assert_eq!(
            &counters,
            one_worker.get_or_insert(counters),
            "counters at {workers} workers vs one"
        );
    }
}

#[test]
fn water_parallel_matches_serial() {
    let cfg = water::WaterConfig::small(4);
    let (_, trace_out) = water::run_trace(&cfg);
    assert_matches_serial(&trace_out, |rt| water::run_on(rt, &cfg));
}

#[test]
fn string_parallel_matches_serial() {
    let cfg = string_app::StringConfig::small(3);
    let (_, trace_out) = string_app::run_trace(&cfg);
    assert_matches_serial(&trace_out, |rt| string_app::run_on(rt, &cfg));
}

#[test]
fn ocean_parallel_matches_serial() {
    let cfg = ocean::OceanConfig::small(5);
    let (_, trace_out) = ocean::run_trace(&cfg);
    assert_matches_serial(&trace_out, |rt| ocean::run_on(rt, &cfg));
    // And both match the independent block-structured reference.
    let (ref_out, _) = ocean::reference_blocks(&cfg, cfg.blocks());
    assert_eq!(trace_out, ref_out);
}

#[test]
fn cholesky_parallel_matches_serial() {
    let cfg = cholesky::CholeskyConfig::small(4);
    let (_, trace_out) = cholesky::run_trace(&cfg);
    assert_matches_serial(&trace_out, |rt| cholesky::run_on(rt, &cfg));
    let (ref_out, _) = cholesky::reference(&cfg);
    assert_eq!(trace_out, ref_out);
}

#[test]
fn pagerank_parallel_matches_serial() {
    let cfg = pagerank::PagerankConfig::small(4);
    let (_, trace_out) = pagerank::run_trace(&cfg);
    assert_matches_serial(&trace_out, |rt| pagerank::run_on(rt, &cfg));
}

#[test]
fn halo_parallel_matches_serial() {
    let cfg = halo::HaloConfig::small(4);
    let (_, trace_out) = halo::run_trace(&cfg);
    assert_matches_serial(&trace_out, |rt| halo::run_on(rt, &cfg));
}

#[test]
fn repeated_parallel_runs_are_deterministic() {
    // Scheduling varies between runs; results must not.
    let cfg = water::WaterConfig::small(3);
    let mut outs = Vec::new();
    for _ in 0..3 {
        let mut rt = ThreadRuntime::new(8);
        outs.push(water::run_on(&mut rt, &cfg));
    }
    assert_eq!(outs[0], outs[1]);
    assert_eq!(outs[1], outs[2]);
}

#[test]
fn worker_count_does_not_change_results() {
    let cfg = cholesky::CholeskyConfig::small(3);
    let mut last = None;
    for workers in [1usize, 2, 7] {
        let mut rt = ThreadRuntime::new(workers);
        let out = cholesky::run_on(&mut rt, &cfg);
        if let Some(prev) = last {
            assert_eq!(prev, out, "workers={workers}");
        }
        last = Some(out);
    }
}
