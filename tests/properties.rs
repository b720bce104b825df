//! Property-based tests over random task DAGs: the synchronizer, the thread
//! backend, and both machine simulators must uphold Jade's semantics for
//! *any* program, not just the four applications.

use jade::core::{AccessSpec, Synchronizer, TaskBuilder, TaskId, TraceBuilder};
use jade::dash::{self, DashConfig};
use jade::ipsc::{self, IpscConfig};
use jade::JadeRuntime;
use jade::{LocalityMode, ThreadRuntime};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

fn spec_of(accesses: &[(u8, bool)]) -> AccessSpec {
    let mut s = AccessSpec::new();
    for &(o, w) in accesses {
        if w {
            s.wr(jade::ObjectId(o as u32));
        } else {
            s.rd(jade::ObjectId(o as u32));
        }
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The synchronizer executes every task exactly once, never enables two
    /// conflicting tasks at the same time, and orders conflicting pairs by
    /// program order — for any random program and any completion order.
    #[test]
    fn synchronizer_preserves_dependences(prog in program_strategy(40, 6), pick in any::<u64>()) {
        let specs: Vec<AccessSpec> = prog.iter().map(|a| spec_of(a)).collect();
        let mut sync = Synchronizer::new(true);
        let mut enabled: Vec<TaskId> = Vec::new();
        for (i, s) in specs.iter().enumerate() {
            if sync.add_task(TaskId(i as u32), s) {
                enabled.push(TaskId(i as u32));
            }
        }
        let mut finished: Vec<TaskId> = Vec::new();
        let mut running: Vec<TaskId> = Vec::new();
        let mut rng = pick;
        let mut completed = vec![false; specs.len()];
        while !enabled.is_empty() || !running.is_empty() {
            // Randomly either start an enabled task or finish a running one.
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            let start = !enabled.is_empty() && (running.is_empty() || rng.is_multiple_of(2));
            if start {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                let idx = (rng >> 33) as usize % enabled.len();
                let t = enabled.swap_remove(idx);
                // No running task may conflict with the newly started one.
                for &r in &running {
                    prop_assert!(
                        !specs[t.index()].conflicts_with(&specs[r.index()]),
                        "conflicting tasks {t:?} and {r:?} concurrently enabled"
                    );
                }
                running.push(t);
            } else {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                let idx = (rng >> 33) as usize % running.len();
                let t = running.swap_remove(idx);
                // Conflicting predecessors must already be complete.
                for e in 0..t.index() {
                    if specs[e].conflicts_with(&specs[t.index()]) {
                        prop_assert!(completed[e], "task {t:?} ran before conflicting predecessor {e}");
                    }
                }
                completed[t.index()] = true;
                finished.push(t);
                sync.complete(t, &mut enabled);
            }
        }
        prop_assert_eq!(finished.len(), specs.len(), "every task completes (no deadlock)");
        prop_assert!(sync.all_complete());
    }

    /// Without replication, no two tasks touching a common object ever run
    /// concurrently, even pure readers.
    #[test]
    fn no_replication_fully_serializes_shared_readers(n in 2usize..20) {
        let mut sync = Synchronizer::new(false);
        let mut spec = AccessSpec::new();
        spec.rd(jade::ObjectId(0));
        let mut enabled = Vec::new();
        for i in 0..n {
            if sync.add_task(TaskId(i as u32), &spec) {
                enabled.push(TaskId(i as u32));
            }
        }
        let mut count = 0;
        while let Some(t) = enabled.pop() {
            prop_assert!(enabled.is_empty(), "readers must be serialized");
            count += 1;
            sync.complete(t, &mut enabled);
        }
        prop_assert_eq!(count, n);
    }

    /// The thread backend executes any random program to completion with
    /// conflicting writes applied in program order. Each task appends its id
    /// to every object it writes; per object, the recorded writer ids must
    /// be in increasing program order.
    #[test]
    fn thread_backend_orders_writes(prog in program_strategy(25, 4), workers in 1usize..5) {
        let mut rt = ThreadRuntime::new(workers);
        let objs: Vec<_> = (0..4).map(|i| rt.create(&format!("o{i}"), 8, Vec::<u32>::new())).collect();
        let executed = Arc::new(AtomicUsize::new(0));
        let ntasks = prog.len();
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
            let executed = Arc::clone(&executed);
            rt.submit(tb.body(move |ctx| {
                for &h in &writes {
                    ctx.wr(h).push(i as u32);
                }
                executed.fetch_add(1, Ordering::SeqCst);
            }));
        }
        rt.finish();
        prop_assert_eq!(executed.load(Ordering::SeqCst), ntasks);
        for &h in &objs {
            let log = rt.store().read(h);
            let mut sorted = log.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&*log, &sorted[..], "writes must land in program order");
        }
    }

    /// Both machine simulators execute any random program to completion,
    /// deterministically, with a makespan no better than perfect speedup
    /// and no worse than fully serial execution plus overheads.
    #[test]
    fn simulators_complete_any_program(
        prog in program_strategy(30, 5),
        procs in 1usize..9,
    ) {
        let mut b = TraceBuilder::new();
        let objs: Vec<_> = (0..5).map(|i| b.object(&format!("o{i}"), 256, Some(i % procs))).collect();
        let mut total_work = 0.0;
        for accesses in &prog {
            let mut s = AccessSpec::new();
            for &(o, w) in accesses {
                if w {
                    s.wr(objs[(o % 5) as usize]);
                } else {
                    s.rd(objs[(o % 5) as usize]);
                }
            }
            b.task(s, 0.01);
            total_work += 0.01;
        }
        let trace = b.build();
        let d = dash::try_run(&trace, &DashConfig::paper(procs, LocalityMode::Locality, 1.0))
            .expect("simulation failed");
        prop_assert_eq!(d.tasks_executed, trace.task_count());
        prop_assert!(d.exec_time_s >= total_work / procs as f64 * 0.94);
        prop_assert!(d.exec_time_s <= total_work + 2.0, "{} vs {}", d.exec_time_s, total_work);
        let i = ipsc::try_run(&trace, &IpscConfig::paper(procs, LocalityMode::Locality, 1.0))
            .expect("simulation failed");
        prop_assert_eq!(i.tasks_executed, trace.task_count());
        prop_assert!(i.exec_time_s >= total_work / procs as f64 * 0.94);
        // Repeat run: identical.
        let d2 = dash::try_run(&trace, &DashConfig::paper(procs, LocalityMode::Locality, 1.0))
            .expect("simulation failed");
        prop_assert_eq!(d.exec_time_s, d2.exec_time_s);
    }
}
