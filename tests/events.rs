//! Conformance tests for the unified event layer: for random task DAGs the
//! event streams of both machine simulators must obey the program's
//! dependence graph and be sound (the iPSC's complete lifecycles,
//! byte-accurate communication, timelines that tile exactly to the
//! makespan), and every backend must produce byte-identical streams for
//! identical inputs.

mod common;

use common::{graph, program_strategy, run, versions, WORK};
use dsim::SimDuration;
use jade::core::{
    check_conservation, check_lifecycle, check_order, AccessSpec, Event, Metrics, TaskBuilder,
    Trace, TraceBuilder,
};
use jade::dash::{self, DashConfig};
use jade::ipsc::{self, IpscConfig};
use jade::{JadeRuntime, LocalityMode, ThreadRuntime};
use proptest::prelude::*;

/// Check one stream against its run: exact conservation, and
/// per-processor breakdowns equal to the clock-derived busy triples.
fn assert_stream_sound(
    events: &[Event],
    procs: usize,
    exec_time_s: f64,
    per_proc_busy: &[(f64, f64, f64)],
) -> Metrics {
    let m = Metrics::from_events(events, procs);
    prop_assert_eq!(check_conservation(events, procs, m.makespan_ps).err(), None);
    prop_assert_eq!(SimDuration(m.makespan_ps).as_secs_f64(), exec_time_s);
    for (p, busy) in per_proc_busy.iter().enumerate() {
        let pt = &m.per_proc[p];
        prop_assert_eq!(
            SimDuration(pt.app_ps).as_secs_f64(),
            busy.0,
            "app on proc {}",
            p
        );
        prop_assert_eq!(
            SimDuration(pt.comm_ps).as_secs_f64(),
            busy.1,
            "comm on proc {}",
            p
        );
        prop_assert_eq!(
            SimDuration(pt.mgmt_ps).as_secs_f64(),
            busy.2,
            "mgmt on proc {}",
            p
        );
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For any random program — serial phases, placements and phase breaks
    /// included — on any processor count and at every locality level, both
    /// simulators execute every task and obey the program's dependence
    /// graph (`check_order`); the iPSC's final versions are the serial
    /// `TraceRuntime` run's and its stream has a complete lifecycle chain
    /// per task. Both streams' spans tile the makespan and match the
    /// clock's busy triples, their fold is what the untraced run reports,
    /// the runs move the bytes the simulator counts, and the makespan lies
    /// between perfect speedup and serial execution plus overheads.
    #[test]
    fn event_streams_are_sound_on_both_simulators(
        prog in program_strategy(30),
        procs in 1usize..9,
        mode in 0usize..3,
    ) {
        let serial = run(&mut jade::TraceRuntime::new(), &prog);
        let graph = graph(&prog);
        let trace = common::trace(&prog, procs, 256);
        prop_assert_eq!(&*trace.dep_graph(true).unwrap(), &graph);
        let mode = LocalityMode::ALL[mode];
        let total_work = WORK * prog.len() as f64;
        let bounds = |exec_time_s: f64| {
            assert!(exec_time_s >= total_work / procs as f64 * 0.94, "{exec_time_s} s too fast");
            assert!(exec_time_s <= total_work + 2.0, "{exec_time_s} s vs {total_work} s of work");
        };

        let cfg = DashConfig::paper(procs, mode, 1.0);
        // Not `check_lifecycle` on DASH: main stamps a new task's creation
        // at the end of the creation cost but queues it at once, so with a
        // serial-phase task in the program a thief can dispatch it before
        // that stamp.
        let (d, ev) = dash::try_run_traced(&trace, &cfg).unwrap();
        prop_assert_eq!(d.tasks_executed, prog.len());
        prop_assert_eq!(check_order(&graph, &ev).err(), None, "DASH");
        prop_assert_eq!(Metrics::from_events(&ev, procs).fetch_bytes, d.bytes_moved);
        let folded = dash::try_run_folded(&trace, &cfg).unwrap();
        prop_assert_eq!(format!("{folded:?}"), format!("{d:?}"));
        let m = assert_stream_sound(&ev, procs, d.exec_time_s, &d.per_proc_busy);
        prop_assert_eq!(m.tasks_started, d.tasks_executed);
        bounds(d.exec_time_s);

        let cfg = IpscConfig::paper(procs, mode, 1.0);
        let (i, ev) = ipsc::try_run_traced(&trace, &cfg).unwrap();
        prop_assert_eq!(&i.final_versions, &versions(&serial));
        prop_assert_eq!(i.tasks_executed, prog.len());
        prop_assert_eq!(check_order(&graph, &ev).err(), None, "iPSC");
        prop_assert_eq!(check_lifecycle(&ev).err(), None);
        let m = Metrics::from_events(&ev, procs);
        prop_assert_eq!(m.comm_bytes(), i.comm_bytes, "iPSC comm volume");
        prop_assert_eq!(m.fetches, i.fetches);
        let folded = ipsc::try_run_folded(&trace, &cfg).unwrap();
        prop_assert_eq!(format!("{folded:?}"), format!("{i:?}"));
        let m = assert_stream_sound(&ev, procs, i.exec_time_s, &i.per_proc_busy);
        prop_assert_eq!(m.tasks_started, i.tasks_executed);
        bounds(i.exec_time_s);
    }
}

/// A fixed mixed workload: a serial init phase, then parallel tasks with
/// cross-object reads that force real communication.
fn mixed_trace(procs: usize) -> Trace {
    let mut b = TraceBuilder::new();
    let hot = b.object("hot", 50_000, Some(0));
    let outs: Vec<_> = (0..procs)
        .map(|i| b.object(&format!("o{i}"), 64, Some(i)))
        .collect();
    let mut init = AccessSpec::new();
    init.wr(hot);
    b.task_full(init, 0.01, None, true);
    b.next_phase();
    for _ in 0..3 {
        for &o in &outs {
            let mut s = AccessSpec::new();
            s.wr(o).rd(hot);
            b.task(s, 0.2);
        }
    }
    b.build()
}

#[test]
fn dash_event_stream_is_deterministic() {
    let trace = mixed_trace(4);
    let cfg = DashConfig::paper(4, LocalityMode::Locality, 1.0);
    let (_, ev1) = dash::try_run_traced(&trace, &cfg).expect("simulation failed");
    let (_, ev2) = dash::try_run_traced(&trace, &cfg).expect("simulation failed");
    assert_eq!(
        ev1, ev2,
        "DASH must emit identical streams for identical runs"
    );
}

#[test]
fn ipsc_event_stream_is_deterministic() {
    let trace = mixed_trace(4);
    let cfg = IpscConfig::paper(4, LocalityMode::Locality, 1.0);
    let (_, ev1) = ipsc::try_run_traced(&trace, &cfg).expect("simulation failed");
    let (_, ev2) = ipsc::try_run_traced(&trace, &cfg).expect("simulation failed");
    assert_eq!(
        ev1, ev2,
        "iPSC must emit identical streams for identical runs"
    );
}

/// One thread-backend run of a fixed program with events on; returns the
/// stream and the batch stats.
fn threads_run_once() -> (Vec<Event>, jade::threads::BatchStats) {
    let mut rt = ThreadRuntime::new(1);
    rt.enable_events();
    let objs: Vec<_> = (0..3)
        .map(|i| rt.create(&format!("o{i}"), 8, 0u64))
        .collect();
    for i in 0..30 {
        let o = objs[i % 3];
        rt.submit(TaskBuilder::new("t").rd_wr(o).body(move |ctx| {
            *ctx.wr(o) += 1;
        }));
    }
    rt.finish();
    (rt.take_events(), rt.last_stats())
}

#[test]
fn thread_backend_events_are_deterministic_and_match_stats() {
    let (ev1, stats1) = threads_run_once();
    let (ev2, stats2) = threads_run_once();
    // One worker leaves no scheduling freedom: streams must be identical.
    assert_eq!(
        ev1, ev2,
        "serial thread backend must emit identical streams"
    );
    assert_eq!(stats1, stats2);
    check_lifecycle(&ev1).unwrap();
    let m = Metrics::from_events(&ev1, 1);
    assert_eq!(m.tasks_started, stats1.executed);
    assert_eq!(m.steals as usize, stats1.steals);
    assert_eq!(m.locality_hits, stats1.locality_hits);
}
