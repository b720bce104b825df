//! Determinism of the thread backend, against oracles that share no
//! scheduler code with it.
//!
//! For any random task DAG, any worker count and any injected-fault plan,
//! `ThreadRuntime` must produce the application results of the serial
//! `TraceRuntime` bit for bit, the deterministic event counters of its own
//! one-worker run, exactly the re-executions `FaultPlan::task_fails`
//! predicts and exactly the mid-task releases the program makes — traced
//! (completions counted down under the state lock) and untraced (by
//! atomic countdown, no lock) alike, and whether the program runs as one batch or is cut in two by a
//! mid-program `finish` on the same runtime. Stealing and locality splits
//! are scheduling accidents and legitimately differ; everything Jade
//! semantics pins down must not.

use jade::apps::pagerank::{self, PagerankConfig};
use jade::core::{Metrics, TraceRuntime};
use jade::threads::FaultPlan;
use jade::{JadeRuntime, LocalityMode, TaskBuilder, ThreadRuntime};
use proptest::prelude::*;

const OBJECTS: usize = 4;
const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// An access of a random program: (object, mode), the mode 0 a read, 1 a
/// write, 2 a write the task releases after it.
type Program = Vec<Vec<(u8, u8)>>;

/// A random program: for each task, a set of accesses; and a drawn cut,
/// which [`cut_of`] turns into the number of tasks submitted before a
/// mid-program `finish`.
fn program_strategy(max_tasks: usize) -> impl Strategy<Value = (Program, usize)> {
    let tasks = prop::collection::vec(
        prop::collection::vec(((0..OBJECTS as u8), 0..3u8), 0..5),
        1..max_tasks,
    );
    (tasks, 0..max_tasks)
}

/// The cut a drawn value makes in `prog`: zero (one batch) or a task count
/// that leaves both batches non-empty.
fn cut_of(prog: &[Vec<(u8, u8)>], draw: usize) -> usize {
    draw % prog.len()
}

/// The interleaving-independent slice of the metrics. Steals, locality
/// hits depend on timing; these do not.
type Counters = (usize, usize, usize, usize, usize, u64, u64, u64);

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
    )
}

/// Submit the random program's tasks to `rt` and return the object
/// handles. Each task appends its id to each object it writes, so the
/// final logs record the order conflicting writers ran in, and releases
/// the objects so marked right after its write to them: its successors on
/// them may start while it runs on. A non-zero `cut` finishes the first
/// batch after that many tasks.
fn submit_program<R: JadeRuntime>(
    rt: &mut R,
    prog: &[Vec<(u8, u8)>],
    cut: usize,
) -> Vec<jade::Handle<Vec<u32>>> {
    let objs: Vec<_> = (0..OBJECTS)
        .map(|i| rt.create(&format!("o{i}"), 8, Vec::<u32>::new()))
        .collect();
    for (i, accesses) in prog.iter().enumerate() {
        let mut tb = TaskBuilder::new("p");
        let mut writes = Vec::new();
        let mut seen = [false; OBJECTS];
        for &(o, mode) in accesses {
            let o = o as usize % OBJECTS;
            if seen[o] {
                continue;
            }
            seen[o] = true;
            if mode > 0 {
                tb = tb.rd_wr(objs[o]);
                writes.push((objs[o], mode == 2));
            } else {
                tb = tb.rd(objs[o]);
            }
        }
        rt.submit(tb.body(move |ctx| {
            for &(h, release) in &writes {
                ctx.wr(h).push(i as u32);
                if release {
                    ctx.release(h);
                }
            }
        }));
        if i + 1 == cut {
            rt.finish();
        }
    }
    objs
}

/// Run `prog`, cut at `cut`, on `rt` and return the final value of every
/// object.
fn results_on<R: JadeRuntime>(rt: &mut R, prog: &[Vec<(u8, u8)>], cut: usize) -> Vec<Vec<u32>> {
    let objs = submit_program(rt, prog, cut);
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

/// Mid-task releases `prog` makes: one per distinct object a task marks.
fn predicted_releases(prog: &[Vec<(u8, u8)>]) -> u64 {
    let released = |accesses: &Vec<(u8, u8)>| {
        let mut seen = [false; OBJECTS];
        let firsts = accesses.iter().filter(|&&(o, _)| {
            let o = o as usize % OBJECTS;
            !std::mem::replace(&mut seen[o], true)
        });
        firsts.filter(|&&(_, mode)| mode == 2).count() as u64
    };
    prog.iter().map(released).sum()
}

/// The whole contract, for one program cut at `cut` under one plan: at
/// every worker count, traced and untraced, results equal the serial run,
/// deterministic counters equal the one-worker run, and re-executions and
/// releases equal what the plan and the program predict.
fn check_against_oracles(prog: &[Vec<(u8, u8)>], cut: usize, plan: Option<FaultPlan>) {
    let serial = results_on(&mut TraceRuntime::new(), prog, cut);
    let reexecuted = predicted_reexecutions(plan, prog.len());
    let releases = predicted_releases(prog);
    let configure = |rt: &mut ThreadRuntime| {
        if let Some(p) = plan {
            rt.inject_faults(p);
        }
    };
    let mut one_worker = None;
    for workers in WORKERS {
        let what = format!("{workers} workers, cut {cut}, plan {plan:?}");

        let mut rt = ThreadRuntime::new(workers);
        rt.enable_events();
        configure(&mut rt);
        assert_eq!(
            results_on(&mut rt, prog, cut),
            serial,
            "traced results: {what}"
        );
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
        assert_eq!(m.releases, releases, "releases: {what}");

        // Untraced, so completions count down with no lock.
        let mut rt = ThreadRuntime::new(workers);
        configure(&mut rt);
        assert_eq!(
            results_on(&mut rt, prog, cut),
            serial,
            "untraced results: {what}"
        );
        let s = rt.total_stats();
        assert_eq!(s.executed as u64, prog.len() as u64 + reexecuted, "{what}");
        assert_eq!(s.recoveries as u64, reexecuted, "{what}");
        assert_eq!(s.sync_locks, 0, "untraced takes no lock: {what}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fault-free.
    #[test]
    fn threads_agree_with_serial_without_faults((prog, draw) in program_strategy(40)) {
        check_against_oracles(&prog, cut_of(&prog, draw), None);
    }

    /// Under injected crashes: recovery keeps results bit-identical, and
    /// `FaultPlan::task_fails` is a pure hash of (seed, task, attempt), so
    /// even the re-execution counts are predictable from the plan alone.
    #[test]
    fn threads_agree_with_serial_under_fault_injection(
        (prog, draw) in program_strategy(30),
        seed in any::<u64>(),
        psel in 0usize..3,
    ) {
        let plan = FaultPlan { panic_p: [0.1, 0.3, 0.5][psel], seed, ..FaultPlan::none() };
        check_against_oracles(&prog, cut_of(&prog, draw), Some(plan));
    }

    /// One worker erases all scheduling freedom: two runs of one program
    /// record *identical event streams*, not just identical counters. (The
    /// stream is not program order — the worker pops its own queue
    /// newest-first — so it is compared with itself, not with a serial
    /// stream.)
    #[test]
    fn one_worker_streams_identical((prog, draw) in program_strategy(25)) {
        let cut = cut_of(&prog, draw);
        let run = || {
            let mut rt = ThreadRuntime::new(1);
            rt.enable_events();
            results_on(&mut rt, &prog, cut);
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
            jade::ipsc::try_run(&trace, &mc).expect("simulation failed")
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
            jade::ipsc::try_run(&trace, &mc).expect("simulation failed")
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
        let (off, events) = jade::ipsc::try_run_traced(&trace, &base).expect("simulation failed");
        let mut pf = base.clone();
        pf.prefetch = true;
        pf.pinned = Some(jade::ipsc::PinnedSchedule::from_events(trace.tasks.len(), &events));
        let on = jade::ipsc::try_run(&trace, &pf).expect("simulation failed");
        prop_assert_eq!(&on.final_versions, &off.final_versions);
        prop_assert_eq!(on.tasks_executed, off.tasks_executed);
        prop_assert!(
            on.exec_time_s <= off.exec_time_s + 1e-9,
            "pinned prefetch run slower than its recording ({} vs {}, seed {}, x{})",
            on.exec_time_s, off.exec_time_s, seed, procs
        );
    }
}
