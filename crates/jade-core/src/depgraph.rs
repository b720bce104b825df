//! The dependence rule of the paper's runtime (§3), as one walk over
//! access specifications (DESIGN.md §4). The paper queues each object's
//! declared accesses in serial order; [`DepGraph`] is the graph those
//! queues imply, built before a batch runs, as a static CSR graph with one
//! sub-row per declaration. [`Countdown`] replays it with one counter per
//! task (the simulators, each `JadeService` tenant) and `ThreadRuntime`
//! counts it down with atomic decrements. [`Synchronizer`] takes the same
//! walk online, a task at a time as it is registered.

use crate::access::{AccessDecl, AccessMode, AccessSpec};
use crate::events::{EventKind, Sink};
use crate::ids::{ObjectId, ProcId, TaskId};
use crate::trace::Trace;
use std::borrow::Cow;
use std::ops::Range;

const NONE: u32 = u32::MAX;
/// A completed task's count of edges left.
const DONE: u32 = u32::MAX;
/// A declaration whose task completed: an edge from it is not waited on.
const GIVEN_UP: u32 = u32::MAX - 1;

/// Which tasks wait for which, one edge per declaration a task waits
/// through. Per object, in serial order:
///
/// * a read under replication waits for the last writer;
/// * a write (or read-write) waits for the reads since the last writer,
///   or for the last writer if there are none;
/// * without replication, every access waits for the access before it.
///
/// Edges are counted per declaration and never merged, so a count reaches
/// zero when the last declaration the task waits through is given up.
/// Each declaration has a sub-row of its own: the successors
/// that wait through it, in serial order. A task's row is its sub-rows in
/// declaration order, which is the order completion grants in; a mid-task
/// release counts down exactly one sub-row.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DepGraph {
    /// Per task: its incoming edges.
    preds: Vec<u32>,
    /// Task `i`'s successors are `succ[rows[i]..rows[i + 1]]`.
    rows: Vec<u32>,
    /// Task `i`'s declarations are `decls[i]..decls[i + 1]`, numbered task
    /// after task, and declaration `k`'s are `succ[subs[k]..subs[k + 1]]`.
    decls: Vec<u32>,
    subs: Vec<u32>,
    succ: Vec<TaskId>,
    /// Build scratch, kept so that a rebuild allocates nothing.
    walk: Walk,
}

/// The state of a walk over the specifications: every declaration, task
/// after task; per declaration the shared read before it; per object the
/// last exclusive declaration and the newest shared read since it. The
/// per-object tables only grow.
#[derive(Clone, Debug, Default, Eq)]
struct Walk {
    decls: Vec<AccessDecl>,
    chain: Vec<u32>,
    writer: Vec<u32>,
    reads: Vec<u32>,
}

/// Scratch is no part of a graph's value.
impl PartialEq for Walk {
    fn eq(&self, _: &Walk) -> bool {
        true
    }
}

impl Walk {
    /// Call `edge(from, to)` for every edge into task `to`, the next in
    /// serial order, whose declarations are `decls[range]`; `from` is a
    /// declaration, numbered as `decls` are.
    #[inline]
    fn step(
        &mut self,
        to: usize,
        range: Range<u32>,
        replication: bool,
        mut edge: impl FnMut(u32, usize),
    ) {
        let (chain, writer, reads) = (&mut self.chain, &mut self.writer, &mut self.reads);
        for g in range {
            let d = self.decls[g as usize];
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
        }
    }

    /// [`step`](Self::step) through every task from an empty walk, task
    /// `to` having declarations `decls[ends[to]..ends[to + 1]]`.
    fn edges(&mut self, ends: &[u32], replication: bool, mut edge: impl FnMut(u32, usize)) {
        self.writer.fill(NONE);
        self.reads.fill(NONE);
        for (to, end) in ends.windows(2).enumerate() {
            self.step(to, end[0]..end[1], replication, &mut edge);
        }
    }
}

impl DepGraph {
    /// The graph of the valid `trace` under `replication`.
    /// [`Trace::dep_graph`] keeps it.
    /// A kept graph is never rebuilt, so it drops the per-declaration
    /// build scratch and keeps the per-object tables `objects` reads.
    pub fn build(trace: &Trace, replication: bool) -> DepGraph {
        let mut graph = DepGraph::default();
        graph.rebuild(trace.tasks.iter().map(|t| &t.spec), replication);
        graph.walk.decls = Vec::new();
        graph.walk.chain = Vec::new();
        graph
    }

    /// Replace the graph with that of `specs`, the tasks in serial order,
    /// under `replication`, reusing every allocation: one pass copies the
    /// declarations out, then two walks over them count each declaration's
    /// successors and place them — a stable counting sort by source
    /// declaration, which keeps serial order.
    pub fn rebuild<'a>(&mut self, specs: impl Iterator<Item = &'a AccessSpec>, replication: bool) {
        let walk = &mut self.walk;
        walk.decls.clear();
        self.decls.clear();
        self.decls.push(0);
        for s in specs {
            walk.decls.extend_from_slice(s.decls());
            self.decls.push(walk.decls.len() as u32);
        }
        let ndecls = walk.decls.len();
        let objects = walk.decls.iter().map(|d| d.object.index() + 1).max();
        let objects = objects.unwrap_or(0).max(walk.writer.len());
        walk.writer.resize(objects, NONE);
        walk.reads.resize(objects, NONE);
        walk.chain.clear();
        walk.chain.resize(ndecls, NONE);
        self.preds.clear();
        self.preds.resize(self.decls.len() - 1, 0);
        // Declaration `k`'s out-degree goes to `subs[k + 2]`.
        self.subs.clear();
        self.subs.resize(ndecls + 2, 0);
        let (subs, preds) = (&mut self.subs, &mut self.preds);
        walk.edges(&self.decls, replication, |from, to| {
            subs[from as usize + 2] += 1;
            preds[to] += 1;
        });
        // The prefix sums make `subs[k + 1]` declaration `k`'s first slot,
        // and placing advances it to its end, where `k + 1` starts.
        for k in 1..subs.len() {
            subs[k] += subs[k - 1];
        }
        self.succ.clear();
        self.succ.resize(subs[ndecls + 1] as usize, TaskId(0));
        let succ = &mut self.succ;
        walk.edges(&self.decls, replication, |from, to| {
            let at = &mut subs[from as usize + 1];
            succ[*at as usize] = TaskId(to as u32);
            *at += 1;
        });
        subs.pop();
        self.rows.clear();
        (self.rows).extend(self.decls.iter().map(|&k| self.subs[k as usize]));
    }

    pub fn edge_count(&self) -> usize {
        self.succ.len()
    }

    /// Per task, the edges into it: zero for a task enabled from the start.
    pub fn preds(&self) -> &[u32] {
        &self.preds
    }

    /// 1 + the largest object index any build of this graph declared: the
    /// per-object tables keep their length from one build to the next.
    pub fn objects(&self) -> usize {
        self.walk.writer.len()
    }

    /// Declarations over all tasks, numbered task after task.
    pub(crate) fn declarations(&self) -> usize {
        self.decls.last().map_or(0, |&k| k as usize)
    }

    /// Task `id`'s declarations, numbered as [`declarations`](Self::declarations) are.
    pub(crate) fn decls_of(&self, id: TaskId) -> Range<usize> {
        self.decls[id.index()] as usize..self.decls[id.index() + 1] as usize
    }

    /// The position of `object` in task `id`'s specification, if it is
    /// there and the graph kept the declarations ([`build`](Self::build)'s does not).
    pub(crate) fn position_of(&self, id: TaskId, object: ObjectId) -> Option<usize> {
        let decls = self.walk.decls.get(self.decls_of(id))?;
        decls.iter().position(|d| d.object == object)
    }

    /// Call `count_down` on each slice of successors task `id` counts down
    /// when it releases its declaration `release` (by position in its
    /// specification): that declaration's sub-row. Or when it completes
    /// (`None`): its whole row in one slice if `released` is empty, as it
    /// is when the task released nothing, else the sub-row of every
    /// declaration `released` does not flag, one flag per declaration, in
    /// declaration order. So each edge is counted down once.
    #[inline]
    pub fn give_up(
        &self,
        id: TaskId,
        release: Option<usize>,
        released: &[bool],
        mut count_down: impl FnMut(&[TaskId]),
    ) {
        let i = id.index();
        let sub_row = |k: usize| &self.succ[self.subs[k] as usize..self.subs[k + 1] as usize];
        match release {
            Some(decl) => count_down(sub_row(self.decls[i] as usize + decl)),
            None if released.is_empty() => {
                count_down(&self.succ[self.rows[i] as usize..self.rows[i + 1] as usize])
            }
            None => (self.decls[i] as usize..)
                .zip(released)
                .filter(|(_, &released)| !released)
                .for_each(|(k, _)| count_down(sub_row(k))),
        }
    }
}

/// One replay of a [`DepGraph`], registering, releasing and completing
/// tasks, with their lifecycle events.
#[derive(Clone, Debug, Default)]
pub struct Countdown<'g> {
    graph: Cow<'g, DepGraph>,
    /// Per task: the edges into it not yet counted down, `DONE` once it
    /// completed.
    left: Vec<u32>,
    created: usize,
    completed: usize,
}

impl<'g> Countdown<'g> {
    pub fn new(graph: Cow<'g, DepGraph>) -> Countdown<'g> {
        let mut deps = Countdown {
            graph,
            ..Countdown::default()
        };
        deps.restart();
        deps
    }

    /// Replace the graph with that of `specs` (see [`DepGraph::rebuild`])
    /// and start a replay of it, reusing every allocation of an owned one.
    pub fn rebuild<'a>(&mut self, specs: impl Iterator<Item = &'a AccessSpec>, replication: bool) {
        self.graph.to_mut().rebuild(specs, replication);
        self.restart();
    }

    fn restart(&mut self) {
        self.left.clone_from(&self.graph.preds);
        self.created = 0;
        self.completed = 0;
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

    /// Count down what `id` gives up, its declaration `release` (at
    /// `object`) or, at completion, every declaration `released` does not
    /// flag; the registered tasks that enables go to `newly_enabled`.
    /// Records `AccessReleased` or `TaskCompleted`, then `TaskEnabled` for
    /// each of them.
    #[allow(clippy::too_many_arguments)]
    fn give_up<S: Sink>(
        &mut self,
        id: TaskId,
        release: Option<(usize, ObjectId)>,
        released: &[bool],
        newly_enabled: &mut Vec<TaskId>,
        events: &mut S,
        time_ps: u64,
        proc: ProcId,
    ) {
        let (left, created, before) = (&mut self.left, self.created, newly_enabled.len());
        self.graph
            .give_up(id, release.map(|r| r.0), released, |row| {
                for &s in row {
                    left[s.index()] -= 1;
                    if left[s.index()] == 0 && s.index() < created {
                        newly_enabled.push(s);
                    }
                }
            });
        match release {
            Some((_, object)) => {
                events.emit_obj(time_ps, proc, EventKind::AccessReleased, Some(id), object)
            }
            None => events.emit_task(time_ps, proc, EventKind::TaskCompleted, id),
        }
        for &t in &newly_enabled[before..] {
            events.emit_task(time_ps, proc, EventKind::TaskEnabled, t);
        }
    }

    /// Mark the enabled task `id` complete and count down the sub-rows of
    /// the declarations it still holds: those `released` does not flag,
    /// one flag per declaration as [`TaskCtx::into_released`] gives them,
    /// or all of them if it is empty. The registered tasks that enables go
    /// to `newly_enabled`. Records `TaskCompleted`, then `TaskEnabled` for
    /// each of them.
    ///
    /// [`TaskCtx::into_released`]: crate::TaskCtx::into_released
    #[allow(clippy::too_many_arguments)]
    pub fn complete_traced<S: Sink>(
        &mut self,
        id: TaskId,
        released: &[bool],
        newly_enabled: &mut Vec<TaskId>,
        events: &mut S,
        time_ps: u64,
        proc: ProcId,
    ) {
        let left = &mut self.left[id.index()];
        assert!(
            id.index() < self.created && *left == 0,
            "task {id:?} completed twice or while not enabled"
        );
        *left = DONE;
        self.completed += 1;
        self.give_up(id, None, released, newly_enabled, events, time_ps, proc);
    }

    /// Release the running task `id`'s declaration `decl` (its position in
    /// the specification), on `object`, before the task completes: count
    /// down that declaration's sub-row alone. Records
    /// `AccessReleased`, then `TaskEnabled` for each task it enables. The
    /// task's context refuses a second release of one declaration, and
    /// its completion is told which declarations it released.
    #[allow(clippy::too_many_arguments)]
    pub fn release_traced<S: Sink>(
        &mut self,
        id: TaskId,
        decl: usize,
        object: ObjectId,
        newly_enabled: &mut Vec<TaskId>,
        events: &mut S,
        time_ps: u64,
        proc: ProcId,
    ) {
        assert!(
            id.index() < self.created && self.left[id.index()] == 0,
            "{id:?} released {object:?} while not running"
        );
        let release = Some((decl, object));
        self.give_up(id, release, &[], newly_enabled, events, time_ps, proc);
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

/// The rule applied online, over the walk [`DepGraph::rebuild`] makes:
/// tasks are registered one at a time in serial order, each waiting
/// through the edges from declarations not yet given up, and completing a
/// task gives up every declaration it holds. It has no release: only
/// `Countdown` replays those.
#[derive(Clone, Debug)]
pub struct Synchronizer {
    walk: Walk,
    replication: bool,
    /// Task `i`'s declarations are `walk.decls[ends[i]..ends[i + 1]]`.
    ends: Vec<u32>,
    /// Per task: the edges into it not yet counted down, `DONE` once it
    /// completed.
    left: Vec<u32>,
    /// Per declaration: the newest edge waiting through it (an index into
    /// `waiting`), `NONE`, or `GIVEN_UP`.
    head: Vec<u32>,
    /// Per waiting edge: the task it enters and the next older edge
    /// through the same declaration.
    waiting: Vec<(TaskId, u32)>,
}

impl Synchronizer {
    /// `replication`: whether reads of one object run concurrently.
    pub fn new(replication: bool) -> Synchronizer {
        Synchronizer {
            walk: Walk::default(),
            replication,
            ends: vec![0],
            left: Vec::new(),
            head: Vec::new(),
            waiting: Vec::new(),
        }
    }

    /// Register the next task in serial order, `id`, of specification
    /// `spec`. Returns `true` if it is enabled at once.
    pub fn add_task(&mut self, id: TaskId, spec: &AccessSpec) -> bool {
        assert_eq!(id.index(), self.left.len(), "out of serial order");
        let walk = &mut self.walk;
        let start = walk.decls.len() as u32;
        walk.decls.extend_from_slice(spec.decls());
        let end = walk.decls.len();
        walk.chain.resize(end, NONE);
        self.head.resize(end, NONE);
        self.ends.push(end as u32);
        let objects = spec.decls().iter().map(|d| d.object.index() + 1).max();
        let objects = objects.unwrap_or(0).max(walk.writer.len());
        walk.writer.resize(objects, NONE);
        walk.reads.resize(objects, NONE);
        let (head, waiting, mut left) = (&mut self.head, &mut self.waiting, 0);
        let count = |from: u32, _| {
            let newest = &mut head[from as usize];
            if *newest != GIVEN_UP {
                waiting.push((id, *newest));
                *newest = waiting.len() as u32 - 1;
                left += 1;
            }
        };
        walk.step(id.index(), start..end as u32, self.replication, count);
        self.left.push(left);
        left == 0
    }

    /// Mark the enabled task `id` complete and give up its declarations;
    /// the tasks that enables go to `newly_enabled`, declaration by
    /// declaration, each in serial order.
    pub fn complete(&mut self, id: TaskId, newly_enabled: &mut Vec<TaskId>) {
        let left = &mut self.left[id.index()];
        assert!(*left == 0, "{id:?} completed twice or while not enabled");
        *left = DONE;
        for k in self.ends[id.index()]..self.ends[id.index() + 1] {
            let before = newly_enabled.len();
            let mut e = std::mem::replace(&mut self.head[k as usize], GIVEN_UP);
            while e != NONE {
                let (t, older) = self.waiting[e as usize];
                self.left[t.index()] -= 1;
                if self.left[t.index()] == 0 {
                    newly_enabled.push(t);
                }
                e = older;
            }
            // The list runs newest first.
            newly_enabled[before..].reverse();
        }
    }

    /// True when every registered task has completed.
    pub fn all_complete(&self) -> bool {
        self.left.iter().all(|&left| left == DONE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessSpec;
    use crate::events::Event;
    use crate::ids::ObjectId;
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

    /// The tasks `id`'s completion counts down, once per edge.
    fn row(g: &DepGraph, id: TaskId) -> Vec<TaskId> {
        let mut row = Vec::new();
        g.give_up(id, None, &[], |s| row.extend_from_slice(s));
        row
    }

    /// The tasks that wait through `id`'s declaration `decl`.
    fn sub_row(g: &DepGraph, id: TaskId, decl: usize) -> Vec<TaskId> {
        let mut row = Vec::new();
        g.give_up(id, Some(decl), &[], |s| row.extend_from_slice(s));
        row
    }

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
        assert_eq!(row(&g, TaskId(0)), ids(&[2, 3, 4, 1, 3, 4]));
        assert_eq!(g.preds, [0, 1, 1, 2, 2]);
        assert_eq!(g.edge_count(), 6);
        // Without replication each access waits for the one before it.
        let g = DepGraph::build(&trace, false);
        assert_eq!(row(&g, TaskId(0)), ids(&[2, 1]));
        assert_eq!(row(&g, TaskId(1)), ids(&[3]));
        assert_eq!(row(&g, TaskId(3)), ids(&[4, 4]));
        // The synchronizer grants in the same order.
        let mut sync = Synchronizer::new(true);
        for (i, t) in trace.tasks.iter().enumerate() {
            sync.add_task(TaskId(i as u32), &t.spec);
        }
        let mut newly = Vec::new();
        sync.complete(TaskId(0), &mut newly);
        assert_eq!(newly, ids(&[2, 1, 3, 4]));
    }

    #[test]
    fn a_release_counts_down_its_declaration_alone() {
        // Task 0 writes objects 0 and 1; tasks 1 and 2 read one each, task
        // 3 both. Releasing object 1 enables task 2 alone; completing task
        // 0 then counts down object 0's sub-row and no other.
        let mut w = AccessSpec::new();
        w.wr(o(0)).wr(o(1));
        let (mut r0, mut r1, mut both) = (AccessSpec::new(), AccessSpec::new(), AccessSpec::new());
        r0.rd(o(0));
        r1.rd(o(1));
        both.rd(o(1)).rd(o(0));
        let trace = trace_of(&[w, r0, r1, both]);
        let g = DepGraph::build(&trace, true);
        assert_eq!(sub_row(&g, TaskId(0), 0), [TaskId(1), TaskId(3)]);
        assert_eq!(sub_row(&g, TaskId(0), 1), [TaskId(2), TaskId(3)]);
        let mut deps = Countdown::new(Cow::Borrowed(&g));
        let mut events = Vec::<Event>::new();
        for i in 0..trace.task_count() {
            deps.add_task_traced(TaskId(i as u32), &mut events, 0, 0);
        }
        let mut newly = Vec::new();
        deps.release_traced(TaskId(0), 1, o(1), &mut newly, &mut events, 1, 0);
        assert_eq!(newly, [TaskId(2)]);
        newly.clear();
        deps.complete_traced(TaskId(0), &[false, true], &mut newly, &mut events, 2, 0);
        assert_eq!(newly, [TaskId(1), TaskId(3)]);
        assert_eq!(deps.live_tasks(), 3);
    }

    /// A countdown over `specs`, every task registered.
    fn registered(specs: &[AccessSpec]) -> Countdown<'static> {
        let mut deps = Countdown::default();
        deps.rebuild(specs.iter(), true);
        for i in 0..specs.len() {
            deps.add_task_traced(TaskId(i as u32), &mut Vec::<Event>::new(), 0, 0);
        }
        deps
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_complete_panics() {
        // A second completion of task 0 would count task 2 down again and
        // enable it while task 1 still runs.
        let (mut wa, mut wb, mut both) = (AccessSpec::new(), AccessSpec::new(), AccessSpec::new());
        wa.wr(o(0));
        wb.wr(o(1));
        both.rd(o(0)).rd(o(1));
        let mut deps = registered(&[wa, wb, both]);
        let mut newly = Vec::new();
        deps.complete_traced(TaskId(0), &[], &mut newly, &mut Vec::<Event>::new(), 0, 0);
        deps.complete_traced(TaskId(0), &[], &mut newly, &mut Vec::<Event>::new(), 0, 0);
    }

    #[test]
    #[should_panic(expected = "out of serial order")]
    fn out_of_order_registration_panics() {
        let mut deps = Countdown::default();
        deps.rebuild([AccessSpec::new(), AccessSpec::new()].iter(), true);
        deps.add_task_traced(TaskId(1), &mut Vec::<Event>::new(), 0, 0);
    }

    #[test]
    #[should_panic(expected = "while not running")]
    fn release_after_completion_panics() {
        // Task 0's sub-row on object 0 was counted down at its completion;
        // counting it again would enable task 2 while task 1 still runs.
        let (mut wa, mut wb, mut both) = (AccessSpec::new(), AccessSpec::new(), AccessSpec::new());
        wa.wr(o(0));
        wb.wr(o(1));
        both.rd(o(0)).rd(o(1));
        let mut deps = registered(&[wa, wb, both]);
        let mut newly = Vec::new();
        deps.complete_traced(TaskId(0), &[], &mut newly, &mut Vec::<Event>::new(), 0, 0);
        deps.release_traced(
            TaskId(0),
            0,
            o(0),
            &mut newly,
            &mut Vec::<Event>::new(),
            0,
            0,
        );
    }

    #[test]
    fn a_completion_counts_down_exactly_the_sub_rows_not_released() {
        // Task 0 writes objects 0, 1 and 2; each later task reads one or
        // two of them. Completing task 0 with any set of released flags
        // (and no release made) counts down the unflagged sub-rows, each
        // edge once, and nothing else; no flags at all count down the row.
        let mut w = AccessSpec::new();
        w.wr(o(0)).wr(o(1)).wr(o(2));
        let readers = [vec![0], vec![1], vec![2], vec![2, 0], vec![1, 2]];
        let mut specs = vec![w];
        for objs in readers {
            let mut r = AccessSpec::new();
            for k in objs {
                r.rd(o(k));
            }
            specs.push(r);
        }
        let g = DepGraph::build(&trace_of(&specs), true);
        for mask in 0..8u8 {
            let flags: Vec<bool> = (0..3).map(|k| mask >> k & 1 == 1).collect();
            let mut want = g.preds.clone();
            for k in (0..3).filter(|&k| !flags[k]) {
                sub_row(&g, TaskId(0), k)
                    .iter()
                    .for_each(|s| want[s.index()] -= 1);
            }
            want[0] = DONE;
            let mut deps = registered(&specs);
            let mut newly = Vec::new();
            let flags: &[bool] = if mask == 0 { &[] } else { &flags };
            deps.complete_traced(TaskId(0), flags, &mut newly, &mut Vec::<Event>::new(), 0, 0);
            assert_eq!(deps.left, want, "released {flags:?}");
            let mut enabled: Vec<TaskId> = (1..specs.len())
                .filter(|&t| want[t] == 0)
                .map(|t| TaskId(t as u32))
                .collect();
            newly.sort_unstable();
            enabled.sort_unstable();
            assert_eq!(newly, enabled, "released {flags:?}");
        }
    }

    #[test]
    fn sub_rows_partition_each_row() {
        let prog: Vec<Vec<(u8, u8)>> = (0..30u8)
            .map(|i| vec![(i % 6, i % 3), ((i * 7 + 1) % 6, (i / 3) % 3)])
            .collect();
        for gather in [false, true] {
            let specs = specs_of(&prog, gather);
            let trace = trace_of(&specs);
            for replication in [false, true] {
                let g = DepGraph::build(&trace, replication);
                let mut edges = 0;
                for (i, s) in specs.iter().enumerate() {
                    let id = TaskId(i as u32);
                    let joined: Vec<TaskId> =
                        (0..s.len()).flat_map(|k| sub_row(&g, id, k)).collect();
                    assert_eq!(joined, row(&g, id));
                    edges += joined.len();
                }
                assert_eq!(edges, g.edge_count());
                let preds: u32 = g.preds().iter().sum();
                assert_eq!(preds as usize, edges);
            }
        }
    }

    #[test]
    fn a_rebuild_reuses_its_storage_and_equals_a_fresh_build() {
        let (mut w, mut r, mut w0) = (AccessSpec::new(), AccessSpec::new(), AccessSpec::new());
        w.wr(o(0)).rd(o(5));
        r.rd(o(0));
        w0.wr(o(0));
        let big = trace_of(&[w.clone(), r.clone(), r.clone(), w, r.clone()]);
        let small = trace_of(&[r.clone(), r, w0]);
        let kept = DepGraph::build(&big, true);
        assert_eq!(kept.walk.decls.capacity() + kept.walk.chain.capacity(), 0);
        let mut g = DepGraph::default();
        g.rebuild(big.tasks.iter().map(|t| &t.spec), true);
        assert_eq!((&g, g.objects()), (&kept, 6));
        let grown = (
            g.succ.capacity(),
            g.rows.capacity(),
            g.walk.chain.capacity(),
        );
        for (trace, replication) in [(&small, false), (&big, true), (&small, true)] {
            g.rebuild(trace.tasks.iter().map(|t| &t.spec), replication);
            assert_eq!(g, DepGraph::build(trace, replication));
            assert_eq!(g.preds().len(), trace.task_count());
        }
        let kept = (
            g.succ.capacity(),
            g.rows.capacity(),
            g.walk.chain.capacity(),
        );
        assert_eq!(kept, grown, "a smaller rebuild grew the graph");
        assert_eq!(g.objects(), 6, "the object table keeps its length");
        assert_eq!(DepGraph::build(&small, true).objects(), 1);
        let mut deps = Countdown::default();
        deps.rebuild(small.tasks.iter().map(|t| &t.spec), true);
        assert!(deps.add_task_traced(TaskId(0), &mut Vec::<Event>::new(), 0, 0));
        assert!(deps.add_task_traced(TaskId(1), &mut Vec::<Event>::new(), 0, 0));
        assert!(!deps.add_task_traced(TaskId(2), &mut Vec::<Event>::new(), 0, 0));
    }

    #[test]
    fn a_rebuild_after_an_abandoned_replay_answers_as_a_new_countdown() {
        // A service slot's countdown is abandoned mid-flight when its
        // tenant is cancelled: a release and a completion made, the rest
        // never run. Rebuilt for the next tenant, it must answer exactly
        // as a new one.
        let (mut w, mut r) = (AccessSpec::new(), AccessSpec::new());
        w.wr(o(0)).wr(o(1));
        r.rd(o(0)).rd(o(1));
        let first = [w.clone(), r.clone(), w.clone(), r.clone()];
        let second = [r.clone(), w, r];
        let run = |deps: &mut Countdown| {
            let mut events = Vec::<Event>::new();
            let mut ready = Vec::new();
            for (i, _) in second.iter().enumerate() {
                if deps.add_task_traced(TaskId(i as u32), &mut events, 0, 0) {
                    ready.push(TaskId(i as u32));
                }
            }
            while let Some(id) = ready.pop() {
                deps.complete_traced(id, &[], &mut ready, &mut events, 1, 0);
            }
            assert!(deps.all_complete());
            events
        };
        let mut used = Countdown::default();
        used.rebuild(first.iter(), true);
        let mut newly = Vec::new();
        let mut events = Vec::<Event>::new();
        for i in 0..first.len() as u32 {
            used.add_task_traced(TaskId(i), &mut events, 0, 0);
        }
        used.release_traced(TaskId(0), 1, o(1), &mut newly, &mut events, 0, 0);
        used.complete_traced(TaskId(0), &[false, true], &mut newly, &mut events, 0, 0);
        assert_eq!(newly, [TaskId(1)]);
        used.rebuild(second.iter(), true);
        let mut fresh = Countdown::default();
        fresh.rebuild(second.iter(), true);
        assert_eq!(run(&mut used), run(&mut fresh));
    }

    #[test]
    fn a_write_waits_for_every_read_since_the_last_writer() {
        let (mut w, mut r, mut rw) = (AccessSpec::new(), AccessSpec::new(), AccessSpec::new());
        w.wr(o(0));
        r.rd(o(0));
        rw.rd_wr(o(0));
        let trace = trace_of(&[w.clone(), r.clone(), r.clone(), rw, r, w]);
        let g = DepGraph::build(&trace, true);
        let succ = |i: u32| row(&g, TaskId(i));
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
        assert_eq!(row(&fresh, TaskId(0)), [TaskId(1)]);
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

    /// Declaration `a` of an earlier task must be given up before `b` may
    /// proceed: the rule by its definition.
    fn waits(a: AccessDecl, b: AccessDecl, replication: bool) -> bool {
        a.object == b.object && (!replication || a.mode.conflicts(b.mode))
    }

    /// Per row, the rows it reaches: Warshall over bit rows.
    fn closure(mut rows: Vec<u64>) -> Vec<u64> {
        for k in 0..rows.len() {
            for i in 0..rows.len() {
                if rows[i] >> k & 1 == 1 {
                    rows[i] |= rows[k];
                }
            }
        }
        rows
    }

    /// One step of a replay.
    enum Op {
        Add(TaskId),
        Release(TaskId, usize),
        /// With the task's released flags, empty if it released nothing.
        Complete(TaskId, Vec<bool>),
    }

    /// Drive `engine` through a seeded legal order of registrations,
    /// mid-task releases (`releases` thirds of the time) and completions,
    /// registering eagerly `eager` fourths of the time. `engine` answers an
    /// `Add` with whether the task is enabled and pushes the tasks any
    /// other step enables. After every step the enabled tasks must be
    /// exactly the registered, uncompleted ones whose conflicting earlier
    /// declarations have all been given up. Returns every enable in order.
    fn replay(
        specs: &[AccessSpec],
        replication: bool,
        (seed, eager, releases): (u64, usize, usize),
        mut engine: impl FnMut(Op, &mut Vec<TaskId>) -> bool,
    ) -> Vec<TaskId> {
        let mut state = seed | 1;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        // Per task, per declaration: given up.
        let mut given_up: Vec<Vec<bool>> = specs.iter().map(|s| vec![false; s.len()]).collect();
        let (mut created, mut done) = (0, vec![false; specs.len()]);
        let (mut ready, mut log) = (Vec::new(), Vec::new());
        loop {
            let mut newly = Vec::new();
            if created < specs.len() && (ready.is_empty() || next() % 4 < eager) {
                let id = TaskId(created as u32);
                created += 1;
                if engine(Op::Add(id), &mut newly) {
                    newly.push(id);
                }
            } else if !ready.is_empty() {
                let at = next() % ready.len();
                let id: TaskId = ready[at];
                let held: Vec<usize> = (0..specs[id.index()].len())
                    .filter(|&k| !given_up[id.index()][k])
                    .collect();
                if !held.is_empty() && next() % 3 < releases {
                    let decl = held[next() % held.len()];
                    given_up[id.index()][decl] = true;
                    engine(Op::Release(id, decl), &mut newly);
                } else {
                    ready.swap_remove(at);
                    let all = vec![true; specs[id.index()].len()];
                    let mut released = std::mem::replace(&mut given_up[id.index()], all);
                    if !released.contains(&true) {
                        released.clear();
                    }
                    done[id.index()] = true;
                    engine(Op::Complete(id, released), &mut newly);
                }
            } else {
                break;
            }
            log.extend_from_slice(&newly);
            ready.extend(newly);
            let mut want: Vec<TaskId> = (0..created)
                .filter(|&t| !done[t])
                .filter(|&t| {
                    specs[t].decls().iter().all(|&b| {
                        (0..t).all(|e| {
                            let decls = specs[e].decls().iter().zip(&given_up[e]);
                            decls
                                .filter(|(&a, _)| waits(a, b, replication))
                                .all(|(_, &g)| g)
                        })
                    })
                })
                .map(|t| TaskId(t as u32))
                .collect();
            let mut got = ready.clone();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want);
        }
        assert_eq!(created, specs.len());
        assert!(done.iter().all(|&d| d), "a task never enabled");
        log
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The rule checked against its definition, over random programs
        /// under both replication settings:
        ///
        /// * the graph: every edge joins two declarations on one object,
        ///   and per object the closure of the edges equals the closure of
        ///   "earlier, and conflicting or without replication";
        /// * a `Countdown` replay with mid-task releases and the online
        ///   `Synchronizer` without them: at every step the enabled set is
        ///   the definition's, and the countdown's `TaskEnabled` events
        ///   are its enables.
        #[test]
        fn the_rule_follows_its_definition(
            prog in prop::collection::vec(prop::collection::vec((0..6u8, 0..3u8), 0..5), 1..40),
            gather in any::<bool>(),
            replication in any::<bool>(),
            eager in 0..5usize,
            releases in 0..3usize,
            seed in any::<u64>(),
        ) {
            let specs = specs_of(&prog, gather);
            let graph = DepGraph::build(&trace_of(&specs), replication);
            // Per object: its declarations in serial order, as (task, position).
            let mut on: Vec<Vec<(usize, usize)>> = vec![Vec::new(); OBJECTS as usize];
            for (t, s) in specs.iter().enumerate() {
                for (k, d) in s.decls().iter().enumerate() {
                    on[d.object.index()].push((t, k));
                }
            }
            for decls in &on {
                let (mut drawn, mut defined) = (vec![0u64; decls.len()], vec![0u64; decls.len()]);
                for (i, &(t, k)) in decls.iter().enumerate() {
                    let a = specs[t].decls()[k];
                    for s in sub_row(&graph, TaskId(t as u32), k) {
                        let j = decls.iter().position(|&(u, _)| u == s.index());
                        prop_assert!(j.is_some(), "an edge leaves the object");
                        drawn[i] |= 1 << j.unwrap();
                    }
                    for (j, &(u, m)) in decls.iter().enumerate().skip(i + 1) {
                        if waits(a, specs[u].decls()[m], replication) {
                            defined[i] |= 1 << j;
                        }
                    }
                }
                prop_assert_eq!(closure(drawn), closure(defined));
            }

            let mut deps = Countdown::new(Cow::Borrowed(&graph));
            let mut events = Vec::<Event>::new();
            let log = replay(&specs, replication, (seed, eager, releases), |op, newly| {
                match op {
                    Op::Add(id) => return deps.add_task_traced(id, &mut events, 0, 0),
                    Op::Release(id, k) => {
                        let object = specs[id.index()].decls()[k].object;
                        deps.release_traced(id, k, object, newly, &mut events, 0, 0)
                    }
                    Op::Complete(id, released) => {
                        deps.complete_traced(id, &released, newly, &mut events, 0, 0)
                    }
                }
                false
            });
            let enables: Vec<TaskId> = events
                .iter()
                .filter(|e| e.kind == EventKind::TaskEnabled)
                .filter_map(|e| e.task)
                .collect();
            prop_assert_eq!(enables, log);
            prop_assert!(deps.all_complete());

            let mut front = Synchronizer::new(replication);
            replay(&specs, replication, (seed, eager, 0), |op, newly| match op {
                Op::Add(id) => front.add_task(id, &specs[id.index()]),
                Op::Release(..) => unreachable!("no releases"),
                Op::Complete(id, _) => {
                    front.complete(id, newly);
                    false
                }
            });
            prop_assert!(front.all_complete());
        }
    }
}
