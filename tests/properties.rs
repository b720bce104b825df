//! Property-based tests over random task DAGs: the online synchronizer
//! must uphold Jade's semantics for *any* program, not just the
//! applications. The runtimes are checked against the serial run in
//! `tests/conformance.rs`, the simulators in `tests/events.rs`.

mod common;

use common::{program_strategy, spec};
use jade::core::{AccessSpec, Synchronizer, TaskId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The synchronizer executes every task exactly once, never enables two
    /// conflicting tasks at the same time, and orders conflicting pairs by
    /// program order — for any random program and any completion order.
    #[test]
    fn synchronizer_preserves_dependences(prog in program_strategy(40), pick in any::<u64>()) {
        let specs: Vec<AccessSpec> = prog.iter().map(spec).collect();
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
}
