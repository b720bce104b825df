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
//! the synchronizer snapshot must round-trip through its binary codec on
//! random DAGs, and owner death must reset the adaptive-broadcast trigger
//! so no broadcast ever targets a dead consumer set.

use jade::apps::halo::{self, HaloConfig};
use jade::apps::pagerank::{self, PagerankConfig};
use jade::core::{
    check_conservation, check_lifecycle, AccessSpec, Metrics, ObjectId, SyncSnapshot, Synchronizer,
    TaskId, Trace, TraceBuilder,
};
use jade::dash::{self, DashConfig};
use jade::dsim::{FaultPlan, SimDuration};
use jade::ipsc::{self, IpscConfig};
use jade::{JadeRuntime, LocalityMode, TaskBuilder, ThreadRuntime};
use proptest::prelude::*;

/// A random program: for each task, a set of (object, is_write) accesses.
fn program_strategy(
    max_tasks: usize,
    max_objects: usize,
) -> impl Strategy<Value = Vec<Vec<(u8, bool)>>> {
    prop::collection::vec(
        prop::collection::vec(((0..max_objects as u8), any::<bool>()), 0..5),
        1..max_tasks,
    )
}

/// Materialize a random program as a trace with objects big enough that the
/// iPSC simulator sends real messages (and so exercises the fault paths).
fn build_trace(prog: &[Vec<(u8, bool)>], procs: usize) -> Trace {
    let mut b = TraceBuilder::new();
    let objs: Vec<_> = (0..5)
        .map(|i| b.object(&format!("o{i}"), 50_000, Some(i % procs)))
        .collect();
    for accesses in prog {
        let mut s = AccessSpec::new();
        for &(o, w) in accesses {
            if w {
                s.wr(objs[(o % 5) as usize]);
            } else {
                s.rd(objs[(o % 5) as usize]);
            }
        }
        b.task(s, 0.005);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The iPSC simulator on any fetch route — concurrent or serial,
    /// coalesced or not, prefetched or not, one or two tasks a processor,
    /// with or without eager update — under a random lossy plan (optionally
    /// with a fail-stop) completes every program, computes the same final
    /// object versions as the fault-free paper run, executes each task
    /// exactly once plus re-executions, and keeps its event stream
    /// well-formed with counters matching the native tallies.
    #[test]
    fn ipsc_survives_any_fault_plan(
        prog in program_strategy(20, 5),
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
        eager_update in any::<bool>(),
    ) {
        let trace = build_trace(&prog, procs);
        let paper = IpscConfig::paper(procs, LocalityMode::Locality, 1.0);
        let clean = ipsc::try_run(&trace, &paper).expect("fault-free run completes");
        let base = IpscConfig {
            concurrent_fetches,
            aggregate_fetches,
            prefetch,
            target_tasks,
            eager_update,
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
    /// program deterministically with a well-formed event stream.
    #[test]
    fn dash_survives_transient_stalls(
        prog in program_strategy(20, 5),
        procs in 1usize..9,
        stall_pct in 1u32..101,
        stall_us in 1u32..5001,
        seed in any::<u64>(),
    ) {
        let trace = build_trace(&prog, procs);
        let base = DashConfig::paper(procs, LocalityMode::Locality, 1.0);
        let clean = dash::run(&trace, &base);
        let mut cfg = base.clone();
        cfg.faults = FaultPlan {
            stall_p: stall_pct as f64 / 100.0,
            stall: SimDuration::from_secs_f64(stall_us as f64 * 1e-6),
            seed,
            ..FaultPlan::none()
        };
        let (faulty, events) = dash::run_traced(&trace, &cfg);
        prop_assert_eq!(faulty.tasks_executed, trace.task_count());
        prop_assert_eq!(faulty.tasks_executed, clean.tasks_executed);
        check_lifecycle(&events).expect("lifecycle holds under stalls");
        let m = Metrics::from_events(&events, procs);
        check_conservation(&events, procs, m.makespan_ps)
            .expect("spans tile the makespan under stalls");
        prop_assert_eq!(m.stalls, faulty.stalls);
        let again = dash::run(&trace, &cfg);
        prop_assert_eq!(again.exec_time_s, faulty.exec_time_s);
        prop_assert_eq!(again.stalls, faulty.stalls);
    }

    /// The thread backend under injected worker crashes re-executes the
    /// failed tasks and produces per-object write logs identical to the
    /// fault-free run — conflicting writes still land in program order.
    #[test]
    fn threads_recover_with_identical_results(
        prog in program_strategy(20, 4),
        workers in 1usize..5,
        panic_pct in 0u32..41,
        seed in any::<u64>(),
    ) {
        let run = |faults: Option<FaultPlan>| {
            let mut rt = ThreadRuntime::new(workers);
            if let Some(plan) = faults {
                rt.inject_faults(plan);
            }
            let objs: Vec<_> = (0..4)
                .map(|i| rt.create(&format!("o{i}"), 8, Vec::<u32>::new()))
                .collect();
            for (i, accesses) in prog.iter().enumerate() {
                let mut tb = TaskBuilder::new("p");
                let mut writes = Vec::new();
                let mut seen = [false; 4];
                for &(o, w) in accesses {
                    let o = (o % 4) as usize;
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
            rt.finish();
            let stats = rt.last_stats();
            let logs: Vec<Vec<u32>> = objs.iter().map(|&h| rt.store().read(h).clone()).collect();
            (logs, stats)
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
        prop_assert!(
            !comm.consumers(o).any(|q| q == dead),
            "no broadcast to a dead consumer set"
        );
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

    /// The synchronizer snapshot round-trips through its binary codec on
    /// random DAGs, and a synchronizer rebuilt from the decoded snapshot
    /// behaves identically to the original: the same completions enable the
    /// same successors in the same order, all the way to quiescence.
    #[test]
    fn sync_snapshot_round_trips_on_random_dags(
        prog in program_strategy(25, 5),
        replication in any::<bool>(),
        prefix_pct in 0u32..101,
        pick in any::<u64>(),
    ) {
        let specs: Vec<AccessSpec> = prog
            .iter()
            .map(|accesses| {
                let mut s = AccessSpec::new();
                for &(o, w) in accesses {
                    if w {
                        s.wr(ObjectId((o % 5) as u32));
                    } else {
                        s.rd(ObjectId((o % 5) as u32));
                    }
                }
                s
            })
            .collect();

        let mut sync = Synchronizer::new(replication);
        let mut frontier: Vec<TaskId> = Vec::new();
        for (i, s) in specs.iter().enumerate() {
            if sync.add_task(TaskId(i as u32), s) {
                frontier.push(TaskId(i as u32));
            }
        }

        // Complete a pseudo-random prefix, picking arbitrary enabled tasks.
        let target = specs.len() * prefix_pct as usize / 100;
        let mut done: Vec<TaskId> = Vec::new();
        let mut rng = pick;
        while done.len() < target && !frontier.is_empty() {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = frontier.swap_remove((rng >> 33) as usize % frontier.len());
            sync.complete(t, &mut frontier);
            done.push(t);
        }

        // snapshot → bytes → snapshot is exact, and the accessors agree
        // with the history that produced it.
        let snap = sync.snapshot();
        let bytes = snap.to_bytes();
        prop_assert_eq!(bytes.len(), snap.encoded_len(), "encoded_len is exact");
        let decoded = SyncSnapshot::from_bytes(&bytes).expect("snapshot decodes");
        prop_assert_eq!(&decoded, &snap);
        prop_assert_eq!(decoded.task_count(), specs.len());
        prop_assert_eq!(decoded.live_tasks(), specs.len() - done.len());
        for &t in &done {
            prop_assert!(decoded.completed(t), "completed task is committed");
        }
        for &t in &frontier {
            prop_assert!(!decoded.completed(t), "pending task is not committed");
        }

        // Drain the original and the restored synchronizer side by side
        // with the same deterministic policy; they must enable identical
        // successor sets at every step.
        let mut restored = Synchronizer::from_snapshot(&decoded);
        let mut fa = frontier.clone();
        let mut fb = frontier;
        while !fa.is_empty() {
            fa.sort();
            fb.sort();
            prop_assert_eq!(&fa, &fb, "frontiers diverged");
            let t = fa.remove(0);
            fb.remove(0);
            let (mut na, mut nb) = (Vec::new(), Vec::new());
            sync.complete(t, &mut na);
            restored.complete(t, &mut nb);
            prop_assert_eq!(&na, &nb, "enable order diverged at {:?}", t);
            fa.extend(na);
            fb.extend(nb);
        }
        prop_assert!(sync.all_complete());
        prop_assert!(restored.all_complete());
    }

    /// Any checkpoint interval combined with a mid-run fail-stop leaves the
    /// iPSC results bit-identical to the fault-free run, keeps the event
    /// stream well-formed (every restore after a capture), and reports
    /// checkpoint metrics that match the native tallies exactly and
    /// deterministically.
    #[test]
    fn checkpointed_ipsc_matches_fault_free(
        prog in program_strategy(20, 5),
        procs in 2usize..9,
        ckpt_pct in 5u32..80,
        fail_pick in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let trace = build_trace(&prog, procs);
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
