//! Determinism of the thread backend, against oracles that share no
//! scheduler code with it.
//!
//! For any random task DAG, any worker count and any injected-fault plan,
//! `ThreadRuntime` must produce the application results of the serial
//! `TraceRuntime` bit for bit, the deterministic event counters of its own
//! one-worker run, exactly the re-executions `FaultPlan::task_fails`
//! predicts and exactly the checkpoints the interval predicts — traced
//! (completions flushed one by one) and untraced (completions batched
//! through the per-worker drain buffers) alike. Stealing and locality
//! splits are scheduling accidents and legitimately differ; everything
//! Jade semantics pins down must not.

use jade::apps::pagerank::{self, PagerankConfig};
use jade::core::{Metrics, TraceRuntime};
use jade::threads::FaultPlan;
use jade::{JadeRuntime, LocalityMode, TaskBuilder, ThreadRuntime};
use proptest::prelude::*;

const OBJECTS: usize = 4;
const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// A random program: for each task, a set of (object, is_write) accesses.
fn program_strategy(max_tasks: usize) -> impl Strategy<Value = Vec<Vec<(u8, bool)>>> {
    prop::collection::vec(
        prop::collection::vec(((0..OBJECTS as u8), any::<bool>()), 0..5),
        1..max_tasks,
    )
}

/// The interleaving-independent slice of the metrics. Steals, locality
/// hits and checkpoint restores depend on timing; these do not.
type Counters = (usize, usize, usize, usize, usize, u64, u64, u64, u64);

fn deterministic_counters(m: &Metrics) -> Counters {
    (
        m.tasks_created,
        m.tasks_enabled,
        m.tasks_dispatched,
        m.tasks_started,
        m.tasks_completed,
        m.releases,
        m.workers_failed,
        m.tasks_reexecuted,
        m.checkpoints,
    )
}

/// Submit the random program's tasks to `rt` and return the object
/// handles. Each task appends its id to each object it writes, so the
/// final logs record the order conflicting writers ran in.
fn submit_program<R: JadeRuntime>(
    rt: &mut R,
    prog: &[Vec<(u8, bool)>],
) -> Vec<jade::Handle<Vec<u32>>> {
    let objs: Vec<_> = (0..OBJECTS)
        .map(|i| rt.create(&format!("o{i}"), 8, Vec::<u32>::new()))
        .collect();
    for (i, accesses) in prog.iter().enumerate() {
        let mut tb = TaskBuilder::new("p");
        let mut writes = Vec::new();
        let mut seen = [false; OBJECTS];
        for &(o, w) in accesses {
            let o = o as usize % OBJECTS;
            if seen[o] {
                continue;
            }
            seen[o] = true;
            if w {
                tb = tb.rd_wr(objs[o]);
                writes.push(objs[o]);
            } else {
                tb = tb.rd(objs[o]);
            }
        }
        rt.submit(tb.body(move |ctx| {
            for &h in &writes {
                ctx.wr(h).push(i as u32);
            }
        }));
    }
    objs
}

/// Run `prog` on `rt` and return the final value of every object.
fn results_on<R: JadeRuntime>(rt: &mut R, prog: &[Vec<(u8, bool)>]) -> Vec<Vec<u32>> {
    let objs = submit_program(rt, prog);
    rt.finish();
    objs.iter().map(|&h| rt.store().read(h).clone()).collect()
}

/// Re-executions `plan` causes over tasks `0..tasks`, from the plan alone:
/// a task is re-executed once per consecutive failing attempt.
fn predicted_reexecutions(plan: Option<FaultPlan>, tasks: usize) -> u64 {
    let Some(plan) = plan else { return 0 };
    (0..tasks as u64)
        .map(|id| (0..).take_while(|&a| plan.task_fails(id, a)).count() as u64)
        .sum()
}

/// Checkpoints an `every`-completions interval takes over `tasks`
/// completions: one per full interval, none at the completion that drains
/// the batch.
fn predicted_checkpoints(every: Option<usize>, tasks: usize) -> u64 {
    every.map_or(0, |every| ((tasks - 1) / every) as u64)
}

/// The whole contract, for one program under one plan: at every worker
/// count, traced and untraced, results equal the serial run, deterministic
/// counters equal the one-worker run, and re-executions and checkpoints
/// equal what the plan predicts.
fn check_against_oracles(prog: &[Vec<(u8, bool)>], plan: Option<FaultPlan>, every: Option<usize>) {
    let serial = results_on(&mut TraceRuntime::new(), prog);
    let reexecuted = predicted_reexecutions(plan, prog.len());
    let checkpoints = predicted_checkpoints(every, prog.len());
    let configure = |rt: &mut ThreadRuntime| {
        if let Some(p) = plan {
            rt.inject_faults(p);
        }
        if let Some(every) = every {
            rt.checkpoint_every(every);
        }
    };
    let mut one_worker = None;
    for workers in WORKERS {
        let what = format!("{workers} workers, plan {plan:?}, checkpoint every {every:?}");

        let mut rt = ThreadRuntime::new(workers);
        rt.enable_events();
        configure(&mut rt);
        assert_eq!(results_on(&mut rt, prog), serial, "traced results: {what}");
        let events = rt.take_events();
        jade::core::check_lifecycle(&events).expect("lifecycle holds");
        let m = Metrics::from_events(&events, workers);
        let counters = deterministic_counters(&m);
        assert_eq!(
            &counters,
            one_worker.get_or_insert(counters),
            "counters vs one worker: {what}"
        );
        assert_eq!(m.tasks_reexecuted, reexecuted, "re-executions: {what}");
        assert_eq!(m.workers_failed, reexecuted, "worker failures: {what}");
        assert_eq!(m.checkpoints, checkpoints, "checkpoints: {what}");

        // Untraced, so the drain buffers genuinely fill (tracing clamps the
        // flush threshold to one).
        let mut rt = ThreadRuntime::new(workers);
        configure(&mut rt);
        assert_eq!(
            results_on(&mut rt, prog),
            serial,
            "untraced results: {what}"
        );
        let s = rt.last_stats();
        assert_eq!(s.executed as u64, prog.len() as u64 + reexecuted, "{what}");
        assert_eq!(s.recoveries as u64, reexecuted, "{what}");
        assert_eq!(s.checkpoints as u64, checkpoints, "{what}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fault-free, with and without a checkpoint interval.
    #[test]
    fn threads_agree_with_serial_without_faults(
        prog in program_strategy(40),
        every in 0usize..8,
    ) {
        check_against_oracles(&prog, None, (every > 0).then_some(every));
    }

    /// Under injected crashes, with and without checkpointing: recovery
    /// keeps results bit-identical, and `FaultPlan::task_fails` is a pure
    /// hash of (seed, task, attempt), so even the re-execution counts are
    /// predictable from the plan alone.
    #[test]
    fn threads_agree_with_serial_under_fault_injection(
        prog in program_strategy(30),
        seed in any::<u64>(),
        psel in 0usize..3,
        every in 0usize..8,
    ) {
        let plan = FaultPlan { panic_p: [0.1, 0.3, 0.5][psel], seed, ..FaultPlan::none() };
        check_against_oracles(&prog, Some(plan), (every > 0).then_some(every));
    }

    /// One worker erases all scheduling freedom: two runs of one program
    /// record *identical event streams*, not just identical counters. (The
    /// stream is not program order — the worker pops its own queue
    /// newest-first — so it is compared with itself, not with a serial
    /// stream.)
    #[test]
    fn one_worker_streams_identical(prog in program_strategy(25)) {
        let run = || {
            let mut rt = ThreadRuntime::new(1);
            rt.enable_events();
            results_on(&mut rt, &prog);
            rt.take_events()
        };
        prop_assert_eq!(run(), run(), "one-worker event streams differ between runs");
    }

    /// Irregular access sets don't weaken the contract: PageRank over a
    /// *random* power-law graph (access sets computed from the graph at
    /// spawn time) must produce the serial run's ranks bit for bit and
    /// identical deterministic counters across worker counts.
    #[test]
    fn pagerank_workers_agree(
        seed in any::<u64>(),
        nodes in 48usize..160,
        epn in 2usize..5,
        iters in 1usize..4,
    ) {
        // The decomposition is part of the program: fix it, vary the workers.
        let cfg = PagerankConfig {
            nodes,
            edges_per_node: epn,
            iterations: iters,
            seed,
            ..PagerankConfig::small(4)
        };
        let (_, serial) = pagerank::run_trace(&cfg);
        let mut one_worker = None;
        for workers in [1usize, 2, 4] {
            let mut rt = ThreadRuntime::new(workers);
            rt.enable_events();
            let out = pagerank::run_on(&mut rt, &cfg);
            prop_assert_eq!(&out, &serial, "ranks diverged at {} workers (seed {})", workers, seed);
            let events = rt.take_events();
            jade::core::check_lifecycle(&events).expect("lifecycle holds");
            let counters = deterministic_counters(&Metrics::from_events(&events, workers));
            prop_assert_eq!(
                &counters,
                one_worker.get_or_insert(counters),
                "counters diverged at {} workers (seed {})", workers, seed
            );
        }
    }

    /// The inspector/executor aggregation pass is a pure communication
    /// optimization: on the simulated iPSC/860 it must leave the final
    /// object versions (the application result as the communicator sees
    /// it), the executed task count and the per-object fetch totals of a
    /// random-graph PageRank untouched — only message counts may change.
    #[test]
    fn pagerank_aggregation_is_invisible(
        seed in any::<u64>(),
        nodes in 48usize..160,
        psel in 0usize..3,
    ) {
        let procs = [2usize, 4, 8][psel];
        let cfg = PagerankConfig {
            nodes,
            iterations: 2,
            seed,
            ..PagerankConfig::small(procs)
        };
        let (trace, _) = pagerank::run_trace(&cfg);
        let spo = 1e-6;
        let run = |aggregate: bool| {
            let mut mc = jade::ipsc::IpscConfig::paper(procs, LocalityMode::TaskPlacement, spo);
            mc.aggregate_fetches = aggregate;
            jade::ipsc::run(&trace, &mc)
        };
        let off = run(false);
        let on = run(true);
        prop_assert_eq!(
            &on.final_versions, &off.final_versions,
            "final versions diverged (seed {}, x{})", seed, procs
        );
        prop_assert_eq!(on.tasks_executed, off.tasks_executed);
        let msgs_off = off.requests + off.fetch_messages;
        let msgs_on = on.requests + on.fetch_messages;
        prop_assert!(
            msgs_on <= msgs_off,
            "aggregation added messages ({} -> {})", msgs_off, msgs_on
        );
    }

    /// Split-phase prefetch (DESIGN.md §17) is equally invisible: alone or
    /// stacked on aggregation, a random-graph PageRank computes the same
    /// final object versions and task count, every prefetched object is
    /// accounted as a hit or a stale refetch, and the overlap fraction
    /// stays in [0, 1].
    #[test]
    fn pagerank_prefetch_is_invisible(
        seed in any::<u64>(),
        nodes in 48usize..160,
        psel in 0usize..3,
        aggregate in any::<bool>(),
    ) {
        let procs = [2usize, 4, 8][psel];
        let cfg = PagerankConfig {
            nodes,
            iterations: 2,
            seed,
            ..PagerankConfig::small(procs)
        };
        let (trace, _) = pagerank::run_trace(&cfg);
        let run = |prefetch: bool| {
            let mut mc = jade::ipsc::IpscConfig::paper(procs, LocalityMode::TaskPlacement, 1e-6);
            mc.aggregate_fetches = aggregate;
            mc.prefetch = prefetch;
            jade::ipsc::run(&trace, &mc)
        };
        let off = run(false);
        let on = run(true);
        prop_assert_eq!(
            &on.final_versions, &off.final_versions,
            "final versions diverged (seed {}, x{}, agg {})", seed, procs, aggregate
        );
        prop_assert_eq!(on.tasks_executed, off.tasks_executed);
        prop_assert_eq!(off.prefetches_issued, 0);
        prop_assert!(
            on.prefetch_hits + on.prefetch_stale <= on.prefetches_issued,
            "hit/stale counts exceed issues ({} + {} > {})",
            on.prefetch_hits, on.prefetch_stale, on.prefetches_issued
        );
        prop_assert!(on.overlap_frac >= 0.0 && on.overlap_frac <= 1.0 + 1e-12);
    }

    /// The schedule-replay harness behind the overlap sweep, as a property:
    /// record a baseline, pin its placement and per-processor start order,
    /// turn prefetch on, and the simulated time never grows — for any
    /// random graph and processor count. This is the monotonicity argument
    /// of DESIGN.md §17 checked end to end.
    #[test]
    fn pagerank_pinned_prefetch_is_monotone(
        seed in any::<u64>(),
        nodes in 48usize..120,
        psel in 0usize..3,
    ) {
        let procs = [2usize, 4, 8][psel];
        let cfg = PagerankConfig {
            nodes,
            iterations: 2,
            seed,
            ..PagerankConfig::small(procs)
        };
        let (trace, _) = pagerank::run_trace(&cfg);
        let base = jade::ipsc::IpscConfig::paper(procs, LocalityMode::TaskPlacement, 1e-6);
        let (off, events) = jade::ipsc::run_traced(&trace, &base);
        let mut pf = base.clone();
        pf.prefetch = true;
        pf.pinned = Some(jade::ipsc::PinnedSchedule::from_events(trace.tasks.len(), &events));
        let on = jade::ipsc::run(&trace, &pf);
        prop_assert_eq!(&on.final_versions, &off.final_versions);
        prop_assert_eq!(on.tasks_executed, off.tasks_executed);
        prop_assert!(
            on.exec_time_s <= off.exec_time_s + 1e-9,
            "pinned prefetch run slower than its recording ({} vs {}, seed {}, x{})",
            on.exec_time_s, off.exec_time_s, seed, procs
        );
    }
}
