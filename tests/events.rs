//! Conformance tests for the unified event layer: for random task DAGs the
//! event streams of both machine simulators must be sound (complete
//! lifecycles, byte-accurate communication, timelines that tile exactly to
//! the makespan), and every backend must produce byte-identical streams for
//! identical inputs.

use dsim::SimDuration;
use jade::core::{
    check_conservation, check_lifecycle, AccessSpec, Event, Metrics, TaskBuilder, Trace,
    TraceBuilder,
};
use jade::dash::{self, DashConfig};
use jade::ipsc::{self, IpscConfig};
use jade::{JadeRuntime, LocalityMode, ThreadRuntime};
use proptest::prelude::*;

/// A random program: per task, its (object, is_write) accesses, a shape
/// draw — 0 a serial-phase task, 1 a task placed on processor `at`, 2 an
/// ordinary task after a phase break, anything else an ordinary task — and
/// `at`.
type Program = Vec<(Vec<(u8, bool)>, u8, u8)>;

fn program_strategy(max_tasks: usize, max_objects: usize) -> impl Strategy<Value = Program> {
    prop::collection::vec(
        (
            prop::collection::vec(((0..max_objects as u8), any::<bool>()), 0..5),
            0u8..8,
            any::<u8>(),
        ),
        1..max_tasks,
    )
}

fn build_trace(prog: &Program, procs: usize) -> Trace {
    let mut b = TraceBuilder::new();
    let objs: Vec<_> = (0..5)
        .map(|i| b.object(&format!("o{i}"), 256, Some(i % procs)))
        .collect();
    for (accesses, shape, at) in prog {
        let mut s = AccessSpec::new();
        for &(o, w) in accesses {
            if w {
                s.wr(objs[(o % 5) as usize]);
            } else {
                s.rd(objs[(o % 5) as usize]);
            }
        }
        match shape {
            0 => b.task_full(s, 0.01, None, true),
            1 => b.task_full(s, 0.01, Some(*at as usize % procs), false),
            2 => {
                b.next_phase();
                b.task(s, 0.01)
            }
            _ => b.task(s, 0.01),
        };
    }
    b.build()
}

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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any random program — serial phases, placements and phase breaks
    /// included — on any processor count and at every locality level, both
    /// simulators emit streams whose spans tile the makespan and match the
    /// clock's busy triples, and whose fold is what the untraced run
    /// reports, uncut and under a deadline of `cut` eighths of the uncut
    /// run. Uncut runs also move the bytes the simulator counts, and on the
    /// iPSC have a complete lifecycle chain per task.
    #[test]
    fn event_streams_are_sound_on_both_simulators(
        prog in program_strategy(30, 5),
        procs in 1usize..9,
        mode in 0usize..3,
        cut in 1u32..8,
    ) {
        let trace = build_trace(&prog, procs);
        let mode = LocalityMode::ALL[mode];
        let deadline = |exec_time_s: f64| {
            Some(SimDuration::from_secs_f64(exec_time_s * cut as f64 / 8.0))
        };

        let uncut = DashConfig::paper(procs, mode, 1.0);
        // Not yet `check_lifecycle` on DASH: main stamps a new task's
        // creation at the end of the creation cost but registers it at
        // once, so an enable or a dispatch at an earlier calendar time can
        // precede that stamp.
        let (d, ev) = dash::try_run_traced(&trace, &uncut).unwrap();
        prop_assert_eq!(Metrics::from_events(&ev, procs).fetch_bytes, d.bytes_moved);
        let cut_short = DashConfig { deadline: deadline(d.exec_time_s), ..uncut.clone() };
        for cfg in [uncut, cut_short] {
            let (d, ev) = dash::try_run_traced(&trace, &cfg).unwrap();
            let folded = dash::try_run_folded(&trace, &cfg).unwrap();
            prop_assert_eq!(format!("{folded:?}"), format!("{d:?}"));
            let m = assert_stream_sound(&ev, procs, d.exec_time_s, &d.per_proc_busy);
            prop_assert_eq!(m.tasks_started, d.tasks_executed);
        }

        let uncut = IpscConfig::paper(procs, mode, 1.0);
        let (i, ev) = ipsc::try_run_traced(&trace, &uncut).unwrap();
        prop_assert_eq!(check_lifecycle(&ev).err(), None);
        let m = Metrics::from_events(&ev, procs);
        prop_assert_eq!(m.comm_bytes(), i.comm_bytes, "iPSC comm volume");
        prop_assert_eq!(m.fetches, i.fetches);
        let cut_short = IpscConfig { deadline: deadline(i.exec_time_s), ..uncut.clone() };
        for cfg in [uncut, cut_short] {
            let (i, ev) = ipsc::try_run_traced(&trace, &cfg).unwrap();
            let folded = ipsc::try_run_folded(&trace, &cfg).unwrap();
            prop_assert_eq!(format!("{folded:?}"), format!("{i:?}"));
            let m = assert_stream_sound(&ev, procs, i.exec_time_s, &i.per_proc_busy);
            prop_assert_eq!(m.tasks_started, i.tasks_executed);
        }
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
    let (_, ev1) = dash::run_traced(&trace, &cfg);
    let (_, ev2) = dash::run_traced(&trace, &cfg);
    assert_eq!(
        ev1, ev2,
        "DASH must emit identical streams for identical runs"
    );
}

#[test]
fn ipsc_event_stream_is_deterministic() {
    let trace = mixed_trace(4);
    let cfg = IpscConfig::paper(4, LocalityMode::Locality, 1.0);
    let (_, ev1) = ipsc::run_traced(&trace, &cfg);
    let (_, ev2) = ipsc::run_traced(&trace, &cfg);
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
