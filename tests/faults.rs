//! Property tests for the fault-injection layer: any random program under
//! any fault plan inside the supported envelope (drop ≤ 0.2, dup ≤ 0.1,
//! delays/reorders, an optional fail-stop of a non-main processor,
//! transient stalls, injected worker crashes) must complete on both machine
//! simulators and on the thread backend with application results
//! bit-identical to the fault-free run, a well-formed event stream, and
//! native fault counters that match the event-derived metrics exactly.
//!
//! The checkpoint/restart layer rides the same harness: any checkpoint
//! interval combined with a fail-stop must leave results bit-identical,
//! and owner death must reset the
//! adaptive-broadcast trigger so no broadcast ever targets a dead
//! consumer set.

mod common;

use common::{program_strategy, trace, Shape, Task};
use jade::apps::halo::{self, HaloConfig};
use jade::apps::pagerank::{self, PagerankConfig};
use jade::core::{
    check_conservation, check_lifecycle, check_order, AccessSpec, Metrics, TraceBuilder,
};
use jade::dash::{self, DashConfig};
use jade::dsim::{FaultPlan, SimDuration};
use jade::ipsc::{self, IpscConfig};
use jade::{LocalityMode, ThreadRuntime};
use proptest::prelude::*;

/// Objects big enough that the iPSC simulator sends real messages, and so
/// exercises the fault paths.
const BYTES: usize = 50_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The iPSC simulator on any fetch route — concurrent or serial,
    /// coalesced or not, prefetched or not, one or two tasks a processor —
    /// under a random lossy plan (optionally with a fail-stop) completes
    /// every program, computes the same final object versions as the
    /// fault-free paper run, executes each task
    /// exactly once plus re-executions, and keeps its event stream
    /// well-formed with counters matching the native tallies.
    #[test]
    fn ipsc_survives_any_fault_plan(
        prog in program_strategy(20),
        procs in 2usize..9,
        drop in 0u32..21,
        dup in 0u32..11,
        delay in 0u32..26,
        fail in any::<bool>(),
        fail_pick in any::<u64>(),
        seed in any::<u64>(),
        concurrent_fetches in any::<bool>(),
        aggregate_fetches in any::<bool>(),
        prefetch in any::<bool>(),
        target_tasks in 1usize..3,
    ) {
        let trace = trace(&prog, procs, BYTES);
        let paper = IpscConfig::paper(procs, LocalityMode::Locality, 1.0);
        let clean = ipsc::try_run(&trace, &paper).expect("fault-free run completes");
        let base = IpscConfig {
            concurrent_fetches,
            aggregate_fetches,
            prefetch,
            target_tasks,
            ..paper
        };
        let mut plan = FaultPlan {
            drop_p: drop as f64 / 100.0,
            dup_p: dup as f64 / 100.0,
            delay_p: delay as f64 / 100.0,
            delay: SimDuration::from_secs_f64(0.0015),
            reorder_p: delay as f64 / 200.0,
            reorder_window: SimDuration::from_secs_f64(0.003),
            seed,
            ..FaultPlan::none()
        };
        if fail {
            plan.fail_proc = Some(1 + (fail_pick as usize) % (procs - 1));
            plan.fail_at = SimDuration::from_secs_f64(clean.exec_time_s * 0.5);
        }
        let mut cfg = base.clone();
        cfg.faults = plan;
        let (faulty, events) =
            ipsc::try_run_traced(&trace, &cfg).expect("faulty run completes");

        // Results are bit-identical to the fault-free run; re-executions
        // are the only extra work.
        prop_assert_eq!(&faulty.final_versions, &clean.final_versions);
        // `tasks_reexecuted` counts re-dispatches; an orphan that had not
        // yet *started* on the dead processor starts only once, so the
        // started-count is bounded by, not equal to, clean + re-dispatches.
        prop_assert!(faulty.tasks_executed >= clean.tasks_executed);
        prop_assert!(
            faulty.tasks_executed as u64 <= clean.tasks_executed as u64 + faulty.tasks_reexecuted
        );
        if !fail {
            prop_assert_eq!(faulty.workers_failed, 0);
            prop_assert_eq!(faulty.tasks_reexecuted, 0);
        }

        // The event stream stays well-formed and agrees with the native
        // counters exactly.
        check_lifecycle(&events).expect("lifecycle holds under faults");
        check_order(&trace.dep_graph(true).unwrap(), &events).expect("dependence order holds");
        let m = Metrics::from_events(&events, procs);
        check_conservation(&events, procs, m.makespan_ps)
            .expect("spans tile the makespan under faults");
        prop_assert_eq!(m.msgs_dropped, faulty.msgs_dropped);
        prop_assert_eq!(m.msgs_retried, faulty.msgs_retried);
        prop_assert_eq!(m.msgs_discarded, faulty.msgs_discarded);
        prop_assert_eq!(m.workers_failed, faulty.workers_failed);
        prop_assert_eq!(m.tasks_reexecuted, faulty.tasks_reexecuted);
        prop_assert_eq!(m.prefetches_issued, faulty.prefetches_issued);
        prop_assert_eq!(m.prefetch_hits, faulty.prefetch_hits);
        prop_assert_eq!(m.prefetch_stale, faulty.prefetch_stale);
        prop_assert_eq!(m.requests, faulty.requests);
        prop_assert_eq!(m.agg_fetches, faulty.agg_fetches);
        prop_assert_eq!(m.agg_objects, faulty.agg_objects);
        prop_assert_eq!(m.fetch_messages(), faulty.fetch_messages);

        // Same seed, same plan: the faulty run is deterministic.
        let again = ipsc::try_run(&trace, &cfg).expect("repeat run completes");
        prop_assert_eq!(again.exec_time_s, faulty.exec_time_s);
        prop_assert_eq!(again.msgs_dropped, faulty.msgs_dropped);
        prop_assert_eq!(again.msgs_retried, faulty.msgs_retried);
    }

    /// The DASH simulator under random transient stalls completes every
    /// program deterministically, with a complete lifecycle chain per task
    /// in dependence order, and spans that tile the makespan. Serial-phase
    /// tasks become ordinary ones. Main stamps an ordinary task's creation
    /// at the end of the creation cost but queues it at once, and with a
    /// serial task in the program a thief can take it in between: a
    /// dispatch before the creation stamp, which `check_lifecycle` rejects.
    #[test]
    fn dash_survives_transient_stalls(
        prog in program_strategy(20),
        procs in 1usize..9,
        stall_pct in 1u32..101,
        stall_us in 1u32..5001,
        seed in any::<u64>(),
    ) {
        let prog: Vec<Task> = prog
            .into_iter()
            .map(|t| match t.shape {
                Shape::Serial => Task { shape: Shape::Ordinary, ..t },
                _ => t,
            })
            .collect();
        let trace = trace(&prog, procs, BYTES);
        let base = DashConfig::paper(procs, LocalityMode::Locality, 1.0);
        let clean = dash::try_run(&trace, &base).expect("simulation failed");
        let mut cfg = base.clone();
        cfg.faults = FaultPlan {
            stall_p: stall_pct as f64 / 100.0,
            stall: SimDuration::from_secs_f64(stall_us as f64 * 1e-6),
            seed,
            ..FaultPlan::none()
        };
        let (faulty, events) = dash::try_run_traced(&trace, &cfg).expect("simulation failed");
        prop_assert_eq!(faulty.tasks_executed, trace.task_count());
        prop_assert_eq!(faulty.tasks_executed, clean.tasks_executed);
        check_lifecycle(&events).expect("lifecycle holds under stalls");
        let graph = trace.dep_graph(cfg.replication).unwrap();
        check_order(&graph, &events).expect("dependence order holds under stalls");
        let m = Metrics::from_events(&events, procs);
        check_conservation(&events, procs, m.makespan_ps)
            .expect("spans tile the makespan under stalls");
        prop_assert_eq!(m.stalls, faulty.stalls);
        let again = dash::try_run(&trace, &cfg).expect("simulation failed");
        prop_assert_eq!(again.exec_time_s, faulty.exec_time_s);
        prop_assert_eq!(again.stalls, faulty.stalls);
    }

    /// The thread backend under injected worker crashes re-executes the
    /// failed tasks and produces per-object write logs identical to the
    /// fault-free run — conflicting writes still land in program order.
    #[test]
    fn threads_recover_with_identical_results(
        prog in program_strategy(20),
        workers in 1usize..5,
        panic_pct in 0u32..41,
        seed in any::<u64>(),
    ) {
        let run = |faults: Option<FaultPlan>| {
            let mut rt = ThreadRuntime::new(workers);
            if let Some(plan) = faults {
                rt.inject_faults(plan);
            }
            (common::run(&mut rt, &prog), rt.last_stats())
        };
        let (clean_logs, clean_stats) = run(None);
        let plan = FaultPlan {
            panic_p: panic_pct as f64 / 100.0,
            seed,
            ..FaultPlan::none()
        };
        let (logs, stats) = run(Some(plan));
        prop_assert_eq!(logs, clean_logs, "results must be bit-identical to fault-free");
        prop_assert_eq!(stats.executed, clean_stats.executed + stats.recoveries);
    }

    /// Owner death resets the adaptive-broadcast trigger: the object drops
    /// out of broadcast mode, the dead processor leaves the consumer set,
    /// the sole copy re-homes to main at the same version with its restore
    /// attributed, and the new owner must re-earn the full §3.4.2
    /// (drop-rate-adjusted) break-even before broadcasting again.
    #[test]
    fn broadcast_mode_resets_when_owner_dies(
        procs in 3usize..9,
        drop in 0u32..21,
        dead_pick in any::<u64>(),
        extra_rounds in 0usize..3,
    ) {
        let mut b = TraceBuilder::new();
        let o = b.object("x", 50_000, Some(0));
        let mut s = AccessSpec::new();
        s.wr(o);
        b.task(s, 0.001);
        let trace = b.build();

        let dead = 1 + (dead_pick as usize) % (procs - 1);
        let mut comm = ipsc::Communicator::new(&trace, procs, true, drop as f64 / 100.0);
        // Each round every live processor consumes the current version,
        // then `dead` writes the next one. The object must flip into
        // broadcast mode after exactly `evidence_needed()` such rounds.
        let needed = comm.evidence_needed() as usize;
        for round in 1..=needed {
            for p in 0..procs {
                comm.note_access(p, o);
            }
            let bcast = comm.on_write_complete(dead, o);
            prop_assert_eq!(bcast, round == needed, "break-even at round {}", round);
        }
        prop_assert!(comm.in_broadcast_mode(o));
        for _ in 0..extra_rounds {
            for p in 0..procs {
                comm.note_access(p, o);
            }
            prop_assert!(comm.on_write_complete(dead, o), "mode is sticky");
        }

        // `dead` wrote last and nobody fetched since: it holds the sole copy.
        let v = comm.version(o);
        let lost = comm.fail_proc(dead);
        prop_assert_eq!(&lost, &vec![o], "sole copy reported lost");
        prop_assert!(!comm.in_broadcast_mode(o), "owner death exits broadcast mode");
        prop_assert!(!comm.is_alive(dead));
        prop_assert!(!comm.widely_accessed(o), "consumer evidence cleared");
        for p in (0..procs).filter(|&p| p != dead) {
            comm.note_access(p, o);
        }
        prop_assert!(comm.widely_accessed(o), "the dead processor is not awaited");
        prop_assert_eq!(comm.owner(o), 0, "sole copy re-homed to main");
        prop_assert_eq!(comm.version(o), v, "restore preserves the version");
        prop_assert!(!comm.needs_fetch(0, o));

        // The restore transfer is attributed to the object.
        comm.record_restore(o, 50_000);
        let tr = comm.object_traffic(o);
        prop_assert_eq!(tr.restore_bytes, 50_000);
        prop_assert!(tr.total() >= tr.restore_bytes, "total() conserves restores");

        // The new owner re-earns the break-even from zero evidence, against
        // the shrunken live set.
        let needed2 = comm.evidence_needed() as usize;
        for round in 1..=needed2 {
            for p in 0..procs {
                if comm.is_alive(p) {
                    comm.note_access(p, o);
                }
            }
            let bcast = comm.on_write_complete(0, o);
            prop_assert_eq!(bcast, round == needed2, "re-earned at round {}", round);
        }
    }

    /// Any checkpoint interval combined with a mid-run fail-stop leaves the
    /// iPSC results bit-identical to the fault-free run, keeps the event
    /// stream well-formed (every restore after a capture), and reports
    /// checkpoint metrics that match the native tallies exactly and
    /// deterministically.
    #[test]
    fn checkpointed_ipsc_matches_fault_free(
        prog in program_strategy(20),
        procs in 2usize..9,
        ckpt_pct in 5u32..80,
        fail_pick in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let trace = trace(&prog, procs, BYTES);
        let base = IpscConfig::paper(procs, LocalityMode::Locality, 1.0);
        let clean = ipsc::try_run(&trace, &base).expect("fault-free run completes");
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::none()
        };
        plan.fail_proc = Some(1 + (fail_pick as usize) % (procs - 1));
        plan.fail_at = SimDuration::from_secs_f64(clean.exec_time_s * 0.5);
        plan.checkpoint = Some(SimDuration::from_secs_f64(
            (clean.exec_time_s * ckpt_pct as f64 / 100.0).max(1e-6),
        ));
        let mut cfg = base.clone();
        cfg.faults = plan;
        let (ck, events) =
            ipsc::try_run_traced(&trace, &cfg).expect("checkpointed run completes");

        prop_assert_eq!(&ck.final_versions, &clean.final_versions);
        prop_assert!(ck.tasks_executed >= clean.tasks_executed);
        prop_assert!(
            ck.tasks_executed as u64 <= clean.tasks_executed as u64 + ck.tasks_reexecuted
        );
        // An interval shorter than the fail time guarantees at least one
        // capture before the failure (the pre-failure prefix replays the
        // fault-free schedule, so the run is still live at the tick).
        if ckpt_pct <= 45 {
            prop_assert!(ck.checkpoints >= 1, "expected a capture before the failure");
        }
        prop_assert!(ck.checkpoint_restores <= ck.objects_restored);

        check_lifecycle(&events).expect("lifecycle holds with checkpoints");
        check_order(&trace.dep_graph(true).unwrap(), &events).expect("dependence order holds");
        let m = Metrics::from_events(&events, procs);
        check_conservation(&events, procs, m.makespan_ps)
            .expect("spans tile the makespan with checkpoints");
        prop_assert_eq!(m.checkpoints, ck.checkpoints);
        prop_assert_eq!(m.checkpoint_bytes, ck.checkpoint_bytes);
        prop_assert_eq!(m.checkpoint_restores, ck.checkpoint_restores);
        prop_assert_eq!(m.object_restores, ck.objects_restored);
        prop_assert_eq!(m.restore_bytes, ck.restore_bytes);
        prop_assert_eq!(m.workers_failed, ck.workers_failed);
        prop_assert_eq!(m.tasks_reexecuted, ck.tasks_reexecuted);

        // Same plan, same interval: the checkpointed run is deterministic.
        let again = ipsc::try_run(&trace, &cfg).expect("repeat run completes");
        prop_assert_eq!(again.exec_time_s, ck.exec_time_s);
        prop_assert_eq!(again.checkpoints, ck.checkpoints);
        prop_assert_eq!(again.checkpoint_bytes, ck.checkpoint_bytes);
        prop_assert_eq!(again.restore_bytes, ck.restore_bytes);
    }

    /// The irregular applications — data-dependent access sets over a
    /// random graph / random tile mask — survive random fault plans with
    /// the fetch-aggregation pass ON: a lost bundle degrades to per-object
    /// retries, a fail-stop (with or without checkpoints) re-homes and
    /// re-executes, and the results stay bit-identical to the fault-free
    /// run both with and without aggregation.
    #[test]
    fn irregular_apps_survive_faults_with_aggregation(
        pick_halo in any::<bool>(),
        procs in 2usize..7,
        drop in 0u32..16,
        dup in 0u32..9,
        fail in any::<bool>(),
        ckpt in any::<bool>(),
        fail_pick in any::<u64>(),
        app_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let trace = if pick_halo {
            let cfg = HaloConfig { seed: app_seed, ..HaloConfig::small(procs) };
            halo::run_trace(&cfg).0
        } else {
            let cfg = PagerankConfig { seed: app_seed, ..PagerankConfig::small(procs) };
            pagerank::run_trace(&cfg).0
        };
        let base = IpscConfig::paper(procs, LocalityMode::TaskPlacement, 1e-6);
        let mut agg = base.clone();
        agg.aggregate_fetches = true;
        let clean_off = ipsc::try_run(&trace, &base).expect("fault-free run completes");
        let clean = ipsc::try_run(&trace, &agg).expect("fault-free aggregated run completes");
        prop_assert_eq!(
            &clean.final_versions, &clean_off.final_versions,
            "aggregation alone changed the results"
        );

        let mut plan = FaultPlan {
            drop_p: drop as f64 / 100.0,
            dup_p: dup as f64 / 100.0,
            seed,
            ..FaultPlan::none()
        };
        if fail {
            plan.fail_proc = Some(1 + (fail_pick as usize) % (procs - 1));
            plan.fail_at = SimDuration::from_secs_f64(clean.exec_time_s * 0.5);
        }
        if ckpt {
            plan.checkpoint = Some(SimDuration::from_secs_f64(
                (clean.exec_time_s * 0.25).max(1e-6),
            ));
        }
        let mut cfg = agg.clone();
        cfg.faults = plan;
        let (faulty, events) =
            ipsc::try_run_traced(&trace, &cfg).expect("faulty aggregated run completes");

        prop_assert_eq!(&faulty.final_versions, &clean.final_versions);
        prop_assert!(faulty.tasks_executed >= clean.tasks_executed);
        prop_assert!(
            faulty.tasks_executed as u64 <= clean.tasks_executed as u64 + faulty.tasks_reexecuted
        );
        check_lifecycle(&events).expect("lifecycle holds under faults with aggregation");
        let m = Metrics::from_events(&events, procs);
        check_conservation(&events, procs, m.makespan_ps)
            .expect("spans tile the makespan under faults with aggregation");
        prop_assert_eq!(m.agg_fetches, faulty.agg_fetches);
        prop_assert_eq!(m.agg_objects, faulty.agg_objects);
        prop_assert_eq!(m.msgs_dropped, faulty.msgs_dropped);
        prop_assert_eq!(m.msgs_discarded, faulty.msgs_discarded);

        // Same seed, same plan: deterministic.
        let again = ipsc::try_run(&trace, &cfg).expect("repeat run completes");
        prop_assert_eq!(again.exec_time_s, faulty.exec_time_s);
        prop_assert_eq!(again.agg_fetches, faulty.agg_fetches);
        prop_assert_eq!(again.msgs_retried, faulty.msgs_retried);
    }

    /// Split-phase prefetch (DESIGN.md §17) rides the same unreliable data
    /// plane as demand fetches: under random drops, duplicates, fail-stops
    /// and checkpoints — optionally stacked on aggregation — the prefetched
    /// run still computes the fault-free final versions, the event stream
    /// stays well-formed with prefetch counters matching the native
    /// tallies, and the whole thing is deterministic per seed.
    #[test]
    fn irregular_apps_survive_faults_with_prefetch(
        pick_halo in any::<bool>(),
        procs in 2usize..7,
        drop in 0u32..16,
        dup in 0u32..9,
        fail in any::<bool>(),
        ckpt in any::<bool>(),
        aggregate in any::<bool>(),
        fail_pick in any::<u64>(),
        app_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let trace = if pick_halo {
            let cfg = HaloConfig { seed: app_seed, ..HaloConfig::small(procs) };
            halo::run_trace(&cfg).0
        } else {
            let cfg = PagerankConfig { seed: app_seed, ..PagerankConfig::small(procs) };
            pagerank::run_trace(&cfg).0
        };
        let base = IpscConfig::paper(procs, LocalityMode::TaskPlacement, 1e-6);
        let mut pf = base.clone();
        pf.prefetch = true;
        pf.aggregate_fetches = aggregate;
        let clean_off = ipsc::try_run(&trace, &base).expect("fault-free run completes");
        let clean = ipsc::try_run(&trace, &pf).expect("fault-free prefetched run completes");
        prop_assert_eq!(
            &clean.final_versions, &clean_off.final_versions,
            "prefetch alone changed the results"
        );

        let mut plan = FaultPlan {
            drop_p: drop as f64 / 100.0,
            dup_p: dup as f64 / 100.0,
            seed,
            ..FaultPlan::none()
        };
        if fail {
            plan.fail_proc = Some(1 + (fail_pick as usize) % (procs - 1));
            plan.fail_at = SimDuration::from_secs_f64(clean.exec_time_s * 0.5);
        }
        if ckpt {
            plan.checkpoint = Some(SimDuration::from_secs_f64(
                (clean.exec_time_s * 0.25).max(1e-6),
            ));
        }
        let mut cfg = pf.clone();
        cfg.faults = plan;
        let (faulty, events) =
            ipsc::try_run_traced(&trace, &cfg).expect("faulty prefetched run completes");

        prop_assert_eq!(&faulty.final_versions, &clean.final_versions);
        prop_assert!(faulty.tasks_executed >= clean.tasks_executed);
        prop_assert!(
            faulty.tasks_executed as u64 <= clean.tasks_executed as u64 + faulty.tasks_reexecuted
        );
        check_lifecycle(&events).expect("lifecycle holds under faults with prefetch");
        let m = Metrics::from_events(&events, procs);
        check_conservation(&events, procs, m.makespan_ps)
            .expect("spans tile the makespan under faults with prefetch");
        prop_assert_eq!(m.prefetches_issued, faulty.prefetches_issued);
        prop_assert_eq!(m.prefetch_hits, faulty.prefetch_hits);
        prop_assert_eq!(m.prefetch_stale, faulty.prefetch_stale);
        prop_assert!(
            faulty.prefetch_hits + faulty.prefetch_stale <= faulty.prefetches_issued,
            "hit/stale accounting exceeds issues"
        );
        prop_assert!(faulty.overlap_frac >= 0.0 && faulty.overlap_frac <= 1.0 + 1e-12);

        // Same seed, same plan: deterministic.
        let again = ipsc::try_run(&trace, &cfg).expect("repeat run completes");
        prop_assert_eq!(again.exec_time_s, faulty.exec_time_s);
        prop_assert_eq!(again.prefetches_issued, faulty.prefetches_issued);
        prop_assert_eq!(again.msgs_retried, faulty.msgs_retried);
    }
}
