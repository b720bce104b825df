//! The dependence graph of a trace, computed once (DESIGN.md §4, "One
//! dependence graph per trace"). [`DepGraph`] is what the synchronizer's
//! queues derive from a [`Trace`]'s specifications, as a static CSR graph,
//! and [`Countdown`] replays it with one counter per task, enabling what a
//! [`Synchronizer`](crate::Synchronizer) would, in the same order and with
//! the same events.

use crate::access::AccessMode;
use crate::events::{EventKind, Sink};
use crate::ids::{ProcId, TaskId};
use crate::trace::Trace;
use std::borrow::Cow;

const NONE: u32 = u32::MAX;

/// Which tasks wait for which, one edge per declaration a task waits
/// through. Per object, in serial order:
///
/// * a read under replication waits for the last writer;
/// * a write (or read-write) waits for the reads since the last writer,
///   or for the last writer if there are none;
/// * without replication, every access waits for the access before it.
///
/// Edges are counted per declaration and never merged, so a count reaches
/// zero at the completion that grants a task's last declaration in the
/// synchronizer. A row is in the order that completion grants: by the
/// completing task's declaration order, then by serial order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DepGraph {
    /// Per task: its incoming edges.
    preds: Vec<u32>,
    /// Task `i`'s successors are `succ[rows[i]..rows[i + 1]]`.
    rows: Vec<u32>,
    succ: Vec<TaskId>,
}

impl DepGraph {
    /// The graph of the valid `trace` under `replication`, in two walks over
    /// the specifications. [`Trace::dep_graph`] keeps it.
    pub fn build(trace: &Trace, replication: bool) -> DepGraph {
        let tasks = &trace.tasks;
        let ndecls: usize = tasks.iter().map(|t| t.spec.len()).sum();
        let mut chain = vec![NONE; ndecls];
        let mut preds = vec![0u32; tasks.len()];
        // Per declaration its out-degree, then its next free slot: a stable
        // counting sort by source declaration, which keeps serial order.
        let mut next = vec![0u32; ndecls + 1];
        edges(trace, replication, &mut chain, |from, to| {
            next[from as usize] += 1;
            preds[to] += 1;
        });
        let mut total = 0;
        for n in &mut next {
            total += std::mem::replace(n, total);
        }
        let mut rows = Vec::with_capacity(tasks.len() + 1);
        let mut first = 0;
        for t in tasks {
            rows.push(next[first]);
            first += t.spec.len();
        }
        rows.push(total);
        let mut succ = vec![TaskId(0); total as usize];
        edges(trace, replication, &mut chain, |from, to| {
            let at = &mut next[from as usize];
            succ[*at as usize] = TaskId(to as u32);
            *at += 1;
        });
        DepGraph { preds, rows, succ }
    }

    pub fn edge_count(&self) -> usize {
        self.succ.len()
    }

    /// The tasks `id`'s completion counts down, once per edge.
    #[inline]
    pub fn successors(&self, id: TaskId) -> &[TaskId] {
        &self.succ[self.rows[id.index()] as usize..self.rows[id.index() + 1] as usize]
    }
}

/// Call `edge(from, to)` for every edge, in serial order of the task `to`;
/// `from` is a declaration, numbered task after task, as `chain`'s slots are.
fn edges(trace: &Trace, replication: bool, chain: &mut [u32], mut edge: impl FnMut(u32, usize)) {
    // Per object: the last exclusive access, and the newest shared read
    // since it; `chain` links each such read to the one before it.
    let mut writer = vec![NONE; trace.objects.len()];
    let mut reads = vec![NONE; trace.objects.len()];
    let mut g = 0u32;
    for (to, t) in trace.tasks.iter().enumerate() {
        for d in t.spec.decls() {
            let o = d.object.index();
            if replication && d.mode == AccessMode::Read {
                if writer[o] != NONE {
                    edge(writer[o], to);
                }
                chain[g as usize] = std::mem::replace(&mut reads[o], g);
            } else {
                let mut r = std::mem::replace(&mut reads[o], NONE);
                if r == NONE && writer[o] != NONE {
                    edge(writer[o], to);
                }
                while r != NONE {
                    edge(r, to);
                    r = chain[r as usize];
                }
                writer[o] = g;
            }
            g += 1;
        }
    }
}

/// One replay of a [`DepGraph`]: per task, the edges into it not yet
/// counted down. It mirrors the synchronizer's entry points, events too.
#[derive(Clone, Debug)]
pub struct Countdown<'g> {
    graph: Cow<'g, DepGraph>,
    left: Vec<u32>,
    created: usize,
    completed: usize,
}

impl<'g> Countdown<'g> {
    pub fn new(graph: Cow<'g, DepGraph>) -> Countdown<'g> {
        Countdown {
            left: graph.preds.clone(),
            graph,
            created: 0,
            completed: 0,
        }
    }

    /// Register the next task in serial order, `id`. Returns `true` if it
    /// is enabled, every task it waits for having completed. Records
    /// `TaskCreated`, then `TaskEnabled` if so.
    pub fn add_task_traced<S: Sink>(
        &mut self,
        id: TaskId,
        events: &mut S,
        time_ps: u64,
        proc: ProcId,
    ) -> bool {
        assert_eq!(id.index(), self.created, "registered out of serial order");
        self.created += 1;
        events.emit_task(time_ps, proc, EventKind::TaskCreated, id);
        let enabled = self.left[id.index()] == 0;
        if enabled {
            events.emit_task(time_ps, proc, EventKind::TaskEnabled, id);
        }
        enabled
    }

    /// Mark the enabled task `id` complete and count down its successors;
    /// the registered ones it enables go to `newly_enabled`. Records
    /// `TaskCompleted`, then `TaskEnabled` for each of them.
    pub fn complete_traced<S: Sink>(
        &mut self,
        id: TaskId,
        newly_enabled: &mut Vec<TaskId>,
        events: &mut S,
        time_ps: u64,
        proc: ProcId,
    ) {
        debug_assert!(
            id.index() < self.created && self.left[id.index()] == 0,
            "task {id:?} completed while not enabled"
        );
        self.completed += 1;
        let before = newly_enabled.len();
        for &s in self.graph.successors(id) {
            let left = &mut self.left[s.index()];
            *left -= 1;
            if *left == 0 && s.index() < self.created {
                newly_enabled.push(s);
            }
        }
        events.emit_task(time_ps, proc, EventKind::TaskCompleted, id);
        for &t in &newly_enabled[before..] {
            events.emit_task(time_ps, proc, EventKind::TaskEnabled, t);
        }
    }

    /// Number of registered tasks.
    pub fn task_count(&self) -> usize {
        self.created
    }

    /// Number of registered but not yet completed tasks.
    pub fn live_tasks(&self) -> usize {
        self.created - self.completed
    }

    /// True when every registered task has completed.
    pub fn all_complete(&self) -> bool {
        self.created == self.completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessSpec;
    use crate::events::EventSink;
    use crate::ids::ObjectId;
    use crate::synchronizer::{SnapshotSize, Synchronizer};
    use crate::trace::TraceBuilder;
    use proptest::prelude::*;

    fn o(n: u32) -> ObjectId {
        ObjectId(n)
    }

    /// A trace of `OBJECTS` objects and one task per specification.
    fn trace_of(specs: &[AccessSpec]) -> Trace {
        let mut b = TraceBuilder::new();
        for i in 0..OBJECTS {
            b.object(&format!("o{i}"), 8, None);
        }
        for s in specs {
            b.task(s.clone(), 1.0);
        }
        b.build()
    }

    const OBJECTS: u32 = 6;

    #[test]
    fn rows_follow_declaration_order_then_serial_order() {
        let mut w = AccessSpec::new();
        w.wr(o(1)).wr(o(0));
        let (mut r0, mut r1, mut both) = (AccessSpec::new(), AccessSpec::new(), AccessSpec::new());
        r0.rd(o(0));
        r1.rd(o(1));
        both.rd(o(0)).rd(o(1));
        let trace = trace_of(&[w, r0, r1, both.clone(), both]);
        let g = DepGraph::build(&trace, true);
        // Task 0's declaration on object 1 first: tasks 2, 3 and 4; then
        // object 0: tasks 1, 3 and 4. Tasks 3 and 4 wait through two.
        let ids = |v: &[u32]| v.iter().map(|&i| TaskId(i)).collect::<Vec<_>>();
        assert_eq!(g.successors(TaskId(0)), ids(&[2, 3, 4, 1, 3, 4]));
        assert_eq!(g.preds, [0, 1, 1, 2, 2]);
        assert_eq!(g.edge_count(), 6);
        // Without replication each access waits for the one before it.
        let g = DepGraph::build(&trace, false);
        assert_eq!(g.successors(TaskId(0)), ids(&[2, 1]));
        assert_eq!(g.successors(TaskId(1)), ids(&[3]));
        assert_eq!(g.successors(TaskId(3)), ids(&[4, 4]));
        // The synchronizer grants in the same order.
        let mut sync = Synchronizer::new(true);
        for t in &trace.tasks {
            sync.add_task(t.id, &t.spec);
        }
        let mut newly = Vec::new();
        sync.complete(TaskId(0), &mut newly);
        assert_eq!(newly, ids(&[2, 1, 3, 4]));
    }

    #[test]
    fn a_write_waits_for_every_read_since_the_last_writer() {
        let (mut w, mut r, mut rw) = (AccessSpec::new(), AccessSpec::new(), AccessSpec::new());
        w.wr(o(0));
        r.rd(o(0));
        rw.rd_wr(o(0));
        let trace = trace_of(&[w.clone(), r.clone(), r.clone(), rw, r, w]);
        let g = DepGraph::build(&trace, true);
        let succ = |i: u32| g.successors(TaskId(i)).to_vec();
        assert_eq!(succ(0), [TaskId(1), TaskId(2)]);
        assert_eq!((succ(1), succ(2)), (vec![TaskId(3)], vec![TaskId(3)]));
        assert_eq!(succ(3), [TaskId(4)]);
        assert_eq!(succ(4), [TaskId(5)]);
        assert_eq!(g.preds, [0, 1, 1, 2, 1, 1]);
    }

    #[test]
    fn the_graph_is_kept_until_the_specifications_change() {
        let mut w = AccessSpec::new();
        w.wr(o(0));
        let mut trace = trace_of(&[w.clone(), w]);
        let kept = |t: &Trace| matches!(t.dep_graph(true), Ok(Cow::Borrowed(_)));
        let kept_unreplicated = |t: &Trace| matches!(t.dep_graph(false), Ok(Cow::Borrowed(_)));
        assert!(kept(&trace));
        let first: *const DepGraph = &*trace.dep_graph(true).unwrap();
        assert!(std::ptr::eq(first, &*trace.dep_graph(true).unwrap()));
        assert!(kept(&trace.clone()), "a clone keeps a graph of its own");
        // A changed specification no longer matches the kept graph.
        trace.tasks[1].spec.rd(o(1));
        let fresh = trace.dep_graph(true).unwrap();
        assert!(matches!(fresh, Cow::Owned(_)));
        assert_eq!(*fresh, DepGraph::build(&trace, true));
        assert_eq!(fresh.successors(TaskId(0)), [TaskId(1)]);
        // The other replication value has a slot of its own, filled now.
        assert!(kept_unreplicated(&trace));
        assert_eq!(
            *trace.dep_graph(false).unwrap(),
            DepGraph::build(&trace, false)
        );
        // A malformed trace has no graph.
        trace.tasks[0].spec.wr(o(OBJECTS));
        assert!(trace.dep_graph(true).unwrap_err().contains("unallocated"));
    }

    /// Mixed reads, writes and read-writes over the objects; with
    /// `gather`, every third task also reads every object, PageRank's
    /// fan-in.
    fn specs_of(prog: &[Vec<(u8, u8)>], gather: bool) -> Vec<AccessSpec> {
        let spec_of = |(i, decls): (usize, &Vec<(u8, u8)>)| {
            let mut s = AccessSpec::new();
            for &(obj, mode) in decls {
                let obj = o(u32::from(obj) % OBJECTS);
                match mode % 3 {
                    0 => s.rd(obj),
                    1 => s.wr(obj),
                    _ => s.rd_wr(obj),
                };
            }
            if gather && i % 3 == 2 {
                for obj in 0..OBJECTS {
                    s.rd(o(obj));
                }
            }
            s
        };
        prog.iter().enumerate().map(spec_of).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A countdown over the graph and a synchronizer, driven through
        /// the same random interleaving of registrations and completions
        /// (a task's predecessors often complete before it is registered):
        /// the same enabled tasks in the same order, the same event
        /// stream, and at every step a `SnapshotSize` that registers
        /// lazily, as the iPSC's checkpoint does, with the snapshot's
        /// encoded length and the completed set.
        #[test]
        fn countdown_replays_the_synchronizer(
            prog in prop::collection::vec(prop::collection::vec((0..6u8, 0..3u8), 0..5), 1..40),
            gather in any::<bool>(),
            replication in any::<bool>(),
            eager in 0..5usize,
            seed in any::<u64>(),
        ) {
            let specs = specs_of(&prog, gather);
            let trace = trace_of(&specs);
            let graph = DepGraph::build(&trace, replication);
            let mut deps = Countdown::new(Cow::Borrowed(&graph));
            let mut sync = Synchronizer::new(replication);
            let (mut got_events, mut want_events) = (EventSink::recording(), EventSink::recording());
            let mut size = SnapshotSize::default();
            let mut state = seed | 1;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as usize
            };
            let (mut ready, mut done) = (Vec::new(), vec![false; specs.len()]);
            for clock in 0u64.. {
                let created = deps.task_count();
                // Register the next task when nothing is ready, or as
                // often as `eager` fourths of the time.
                if created < specs.len() && (ready.is_empty() || next() % 4 < eager) {
                    let id = TaskId(created as u32);
                    let got = deps.add_task_traced(id, &mut got_events, clock, 0);
                    let want = sync.add_task_traced(id, &specs[created], &mut want_events, clock, 0);
                    prop_assert_eq!(got, want, "registering {:?}", id);
                    if got {
                        ready.push(id);
                    }
                } else if !ready.is_empty() {
                    let id = ready.swap_remove(next() % ready.len());
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    deps.complete_traced(id, &mut got, &mut got_events, clock, 1);
                    sync.complete_traced(id, &mut want, &mut want_events, clock, 1);
                    prop_assert_eq!(&got, &want, "completing {:?}", id);
                    size.complete(&specs[id.index()]);
                    done[id.index()] = true;
                    ready.extend(got);
                } else {
                    break;
                }
                while size.task_count() < deps.task_count() {
                    size.register(&specs[size.task_count()]);
                }
                let snap = sync.snapshot();
                prop_assert_eq!(size.encoded_len(), snap.encoded_len());
                for (i, &done) in done.iter().enumerate() {
                    prop_assert_eq!(snap.completed(TaskId(i as u32)), done);
                }
                prop_assert_eq!(deps.live_tasks(), sync.live_tasks());
            }
            prop_assert!(deps.all_complete() && sync.all_complete());
            prop_assert_eq!(deps.task_count(), specs.len());
            prop_assert_eq!(got_events.take(), want_events.take());
        }
    }
}
