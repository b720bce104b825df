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

mod common;

use common::{counters, graph, predicted_reexecutions, program_strategy, run_cut, Access, Task};
use jade::apps::pagerank::{self, PagerankConfig};
use jade::core::{check_order, Metrics, TraceRuntime};
use jade::threads::FaultPlan;
use jade::{LocalityMode, ThreadRuntime};
use proptest::prelude::*;

const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// The cut a drawn value makes in `prog`: zero (one batch) or a task count
/// that leaves both batches non-empty.
fn cut_of(prog: &[Task], draw: usize) -> usize {
    draw % prog.len()
}

/// Mid-task releases `prog` makes: one per access it marks.
fn predicted_releases(prog: &[Task]) -> u64 {
    let marked = prog.iter().flat_map(|t| &t.accesses);
    marked.filter(|&&(_, a)| a == Access::WrRelease).count() as u64
}

/// The whole contract, for one program cut at `cut` under one plan: at
/// every worker count, traced and untraced, results equal the serial run,
/// deterministic counters equal the one-worker run, and re-executions and
/// releases equal what the plan and the program predict.
fn check_against_oracles(prog: &[Task], cut: usize, plan: Option<FaultPlan>) {
    let serial = run_cut(&mut TraceRuntime::new(), prog, cut);
    let graph = graph(prog);
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
            run_cut(&mut rt, prog, cut),
            serial,
            "traced results: {what}"
        );
        let events = rt.take_events();
        jade::core::check_lifecycle(&events).expect("lifecycle holds");
        check_order(&graph, &events).unwrap_or_else(|e| panic!("order: {what}: {e}"));
        let m = Metrics::from_events(&events, workers);
        let counters = counters(&m);
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
            run_cut(&mut rt, prog, cut),
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
    fn threads_agree_with_serial_without_faults(prog in program_strategy(40), draw in 0..40usize) {
        check_against_oracles(&prog, cut_of(&prog, draw), None);
    }

    /// Under injected crashes: recovery keeps results bit-identical, and
    /// `FaultPlan::task_fails` is a pure hash of (seed, task, attempt), so
    /// even the re-execution counts are predictable from the plan alone.
    #[test]
    fn threads_agree_with_serial_under_fault_injection(
        prog in program_strategy(30),
        draw in 0..30usize,
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
    fn one_worker_streams_identical(prog in program_strategy(25), draw in 0..25usize) {
        let cut = cut_of(&prog, draw);
        let run = || {
            let mut rt = ThreadRuntime::new(1);
            rt.enable_events();
            run_cut(&mut rt, &prog, cut);
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
            let counters = counters(&Metrics::from_events(&events, workers));
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
