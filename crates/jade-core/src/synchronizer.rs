//! The queue-based synchronizer: Jade's dynamic dependence analysis.
//!
//! For every shared object the synchronizer tracks declared accesses in
//! serial program (task creation) order. An access is *granted* when it
//! could legally begin:
//!
//! * a **read** is granted when no write precedes it in the queue (so a run
//!   of reads at the head executes concurrently — this is what makes the
//!   replication optimization possible);
//! * a **write** (or read-write) is granted only at the head of the queue.
//!
//! A task is *enabled* when all of its declared accesses are granted:
//! conflicting tasks execute in serial program order, non-conflicting tasks
//! run concurrently — exactly the paper's dynamic dependence constraints.
//!
//! # Representation (DESIGN.md §4)
//!
//! Two slabs and one table: `decls`, every task's declarations (16 bytes
//! each, a task's own in one run); `tasks`, one entry per task of the
//! current window; `queues`, 12 bytes per object. The conceptual per-object
//! queue is `[granted entries..][waiting..]`. The granted prefix is always
//! a run of reads or a single writer, so it is kept as a **count**, and
//! retiring a granted access is arithmetic. The waiting entries are an
//! **intrusive singly-linked list** through the declaration slab — the
//! object holds `head`/`tail`, a parked declaration `next` — so no object
//! owns an allocation, a fan-in of N waiters on one object grows nothing,
//! and a grant walks exactly the entries it enables.
//!
//! Every entry point is generic over the [`Sink`] its lifecycle events go
//! to; [`add_task`](Synchronizer::add_task) and
//! [`complete`](Synchronizer::complete) spell the [`NullSink`] case, which
//! compiles to the bare state transition.
//!
//! The synchronizer is deliberately pure — no clocks, no processors. Every
//! backend counts down a [`DepGraph`](crate::DepGraph) instead; the
//! synchronizer is the reference those countdowns are tested against, and
//! its snapshot format is what checkpoints are charged by ([`SnapshotSize`]).

use crate::access::{AccessMode, AccessSpec};
use crate::events::{EventKind, NullSink, Sink};
use crate::ids::{ObjectId, ProcId, TaskId};

/// End of a waiting list / "not parked".
const NIL: u32 = u32::MAX;

/// One declared access, interned in the synchronizer-wide `decls` slab.
#[derive(Clone, Copy, Debug)]
struct DeclSlot {
    object: ObjectId,
    task: TaskId,
    /// The next access waiting on `object` behind this one (`NIL` at the
    /// tail, and whenever this access is not parked).
    next: u32,
    mode: AccessMode,
    /// The access is currently part of its object's granted prefix.
    granted: bool,
    /// The access was given up (mid-task `release`, or task completion).
    released: bool,
}

/// One object's access queue: the granted prefix as a count and the ends
/// of the list of waiting declarations, in serial program order.
#[derive(Clone, Copy, Debug)]
struct ObjQueue {
    /// Reads currently granted on this object, or `WRITER`: one write (or
    /// read-write) is.
    granted: u32,
    /// First and last waiting declaration (`NIL`, both, when none waits).
    head: u32,
    tail: u32,
}

const WRITER: u32 = u32::MAX;

impl ObjQueue {
    const IDLE: ObjQueue = ObjQueue {
        granted: 0,
        head: NIL,
        tail: NIL,
    };

    /// Could an access of `mode` join the granted prefix as it stands? A
    /// read joins a run of granted reads (under replication); anything
    /// joins an idle object.
    #[inline]
    fn admits(&self, mode: AccessMode, replication: bool) -> bool {
        self.granted == 0 || (self.granted != WRITER && replication && mode == AccessMode::Read)
    }

    #[inline]
    fn grant(&mut self, mode: AccessMode) {
        self.granted = if mode == AccessMode::Read {
            self.granted + 1
        } else {
            WRITER
        };
    }
}

#[derive(Clone, Copy, Debug)]
struct TaskState {
    /// First slot of this task's declarations in the `decls` slab.
    decls_start: u32,
    decls_len: u32,
    /// Number of declared accesses not yet granted.
    ungranted: u32,
    completed: bool,
}

impl TaskState {
    fn decls(&self) -> std::ops::Range<usize> {
        self.decls_start as usize..(self.decls_start + self.decls_len) as usize
    }
}

/// Dynamic dependence analysis over declared access specifications.
#[derive(Clone, Debug)]
pub struct Synchronizer {
    queues: Vec<ObjQueue>,
    tasks: Vec<TaskState>,
    /// Slab of every task's declared accesses (see [`TaskState`]).
    decls: Vec<DeclSlot>,
    /// With replication disabled (`false`), reads serialize like writes —
    /// the Section 5.1 thought experiment: "eliminating replication would
    /// serialize all of the applications".
    replication: bool,
    live_tasks: usize,
    /// Id of the first task in the window: task `id` lives at slot
    /// `id.index() - base`, and tasks below `base` are completed history.
    /// Always 0 outside this module's tests, which retire completed windows
    /// to pin how the snapshot format encodes a nonzero base.
    base: u32,
}

impl Default for Synchronizer {
    fn default() -> Self {
        Synchronizer::new(true)
    }
}

impl Synchronizer {
    /// `replication`: whether concurrent reads of one object are permitted.
    pub fn new(replication: bool) -> Synchronizer {
        Synchronizer {
            queues: Vec::new(),
            tasks: Vec::new(),
            decls: Vec::new(),
            replication,
            live_tasks: 0,
            base: 0,
        }
    }

    /// Slab slot of `id`, a task of the current window.
    #[inline]
    fn slot(&self, id: TaskId) -> usize {
        id.index() - self.base as usize
    }

    /// Return to the state of [`Synchronizer::new`] from *any* state,
    /// keeping every allocation: the task and declaration slabs cleared,
    /// `base` back to 0 and every object idled (granted count and list
    /// ends), so it is safe on a synchronizer abandoned mid-flight. The
    /// object table keeps its length, so a later
    /// [`snapshot`](Self::snapshot) may list trailing empty queues a fresh
    /// synchronizer would not; nothing else can tell the two apart.
    pub fn reset(&mut self) {
        self.queues.fill(ObjQueue::IDLE);
        self.tasks.clear();
        self.decls.clear();
        self.live_tasks = 0;
        self.base = 0;
    }

    /// Register a task, untraced. See [`add_task_traced`](Self::add_task_traced).
    pub fn add_task(&mut self, id: TaskId, spec: &AccessSpec) -> bool {
        self.add_task_traced(id, spec, &mut NullSink, 0, 0)
    }

    /// Register a task. **Must** be called in serial program order: task ids
    /// are consecutive from the window's first id. Returns `true`
    /// if the task is immediately enabled (all accesses granted). Records
    /// `TaskCreated`, then `TaskEnabled` if so, at the instant and on the
    /// processor the caller names (the synchronizer has no clock).
    pub fn add_task_traced<S: Sink>(
        &mut self,
        id: TaskId,
        spec: &AccessSpec,
        events: &mut S,
        time_ps: u64,
        proc: ProcId,
    ) -> bool {
        assert_eq!(
            id.index(),
            self.base as usize + self.tasks.len(),
            "tasks must be registered in serial program order"
        );
        let start = self.decls.len() as u32;
        let mut ungranted = 0u32;
        for d in spec.decls() {
            let decl = self.decls.len() as u32;
            if d.object.index() >= self.queues.len() {
                self.queues.resize(d.object.index() + 1, ObjQueue::IDLE);
            }
            let q = &mut self.queues[d.object.index()];
            // The new access goes behind everything already in the queue:
            // it is granted iff nothing waits ahead of it and the granted
            // prefix admits it.
            let granted = q.head == NIL && q.admits(d.mode, self.replication);
            if granted {
                q.grant(d.mode);
            } else {
                ungranted += 1;
                self.park(d.object.index(), decl);
            }
            self.decls.push(DeclSlot {
                object: d.object,
                task: id,
                next: NIL,
                mode: d.mode,
                granted,
                released: false,
            });
        }
        self.tasks.push(TaskState {
            decls_start: start,
            decls_len: self.decls.len() as u32 - start,
            ungranted,
            completed: false,
        });
        self.live_tasks += 1;
        events.emit_task(time_ps, proc, EventKind::TaskCreated, id);
        if ungranted == 0 {
            events.emit_task(time_ps, proc, EventKind::TaskEnabled, id);
        }
        ungranted == 0
    }

    /// Append declaration `k`, about to be or already in the slab, to the
    /// waiting list of object `o`.
    #[inline]
    fn park(&mut self, o: usize, k: u32) {
        let q = &mut self.queues[o];
        match q.tail {
            NIL => q.head = k,
            tail => self.decls[tail as usize].next = k,
        }
        q.tail = k;
    }

    /// True if every declared access of `id` is currently granted.
    pub fn is_enabled(&self, id: TaskId) -> bool {
        let t = &self.tasks[self.slot(id)];
        !t.completed && t.ungranted == 0
    }

    /// Mark `id` complete, untraced. See [`complete_traced`](Self::complete_traced).
    pub fn complete(&mut self, id: TaskId, newly_enabled: &mut Vec<TaskId>) {
        self.complete_traced(id, newly_enabled, &mut NullSink, 0, 0)
    }

    /// Mark `id` complete, releasing its remaining granted accesses. Newly
    /// enabled tasks are appended to `newly_enabled` (declaration by
    /// declaration, in serial program order per object queue). Records
    /// `TaskCompleted` for `id`, then `TaskEnabled` for each of them.
    pub fn complete_traced<S: Sink>(
        &mut self,
        id: TaskId,
        newly_enabled: &mut Vec<TaskId>,
        events: &mut S,
        time_ps: u64,
        proc: ProcId,
    ) {
        let slot = self.slot(id);
        let state = &mut self.tasks[slot];
        assert!(!state.completed, "task {id:?} completed twice");
        assert_eq!(
            state.ungranted, 0,
            "task {id:?} completed while not enabled"
        );
        state.completed = true;
        self.live_tasks -= 1;
        let before = newly_enabled.len();
        for k in state.decls() {
            if !self.decls[k].released {
                self.retire(k, newly_enabled);
            }
        }
        events.emit_task(time_ps, proc, EventKind::TaskCompleted, id);
        for &t in &newly_enabled[before..] {
            events.emit_task(time_ps, proc, EventKind::TaskEnabled, t);
        }
    }

    /// Release one of `id`'s declared accesses **before** the task
    /// completes — Jade's pipelining statements (`no_rd(o)`, `no_wr(o)`):
    /// successors on `object` proceed while the task keeps running. Newly
    /// enabled tasks are appended to `newly_enabled`. Records
    /// `AccessReleased`, then `TaskEnabled` for each of them.
    ///
    /// Panics if the task never declared (or already released) the object.
    pub fn release<S: Sink>(
        &mut self,
        id: TaskId,
        object: ObjectId,
        newly_enabled: &mut Vec<TaskId>,
        events: &mut S,
        time_ps: u64,
        proc: ProcId,
    ) {
        let state = &self.tasks[self.slot(id)];
        assert!(!state.completed, "release after completion of {id:?}");
        let k = (state.decls())
            .find(|&k| self.decls[k].object == object && !self.decls[k].released)
            .unwrap_or_else(|| panic!("{id:?} releasing undeclared/released {object:?}"));
        let before = newly_enabled.len();
        self.retire(k, newly_enabled);
        events.emit_obj(time_ps, proc, EventKind::AccessReleased, Some(id), object);
        for &t in &newly_enabled[before..] {
            events.emit_task(time_ps, proc, EventKind::TaskEnabled, t);
        }
    }

    /// The granted access in slot `k` goes away (completion or mid-task
    /// release): update its object's aggregate, and if the granted prefix
    /// emptied, grant from the head of the waiting list — a single writer,
    /// or (under replication) the maximal run of reads up to the next
    /// writer. A granted entry leaves the list as it is granted, so no
    /// later operation walks it again.
    fn retire(&mut self, k: usize, newly_enabled: &mut Vec<TaskId>) {
        let d = &mut self.decls[k];
        debug_assert!(d.granted, "retiring an ungranted access");
        d.released = true;
        let (o, mode) = (d.object, d.mode);
        let q = &mut self.queues[o.index()];
        debug_assert_eq!(q.granted == WRITER, mode != AccessMode::Read, "on {o:?}");
        q.granted -= if mode == AccessMode::Read { 1 } else { WRITER };
        if q.granted != 0 {
            return;
        }
        while q.head != NIL {
            let d = &mut self.decls[q.head as usize];
            if !q.admits(d.mode, self.replication) {
                return;
            }
            q.grant(d.mode);
            q.head = std::mem::replace(&mut d.next, NIL);
            d.granted = true;
            let ts = &mut self.tasks[d.task.index() - self.base as usize];
            ts.ungranted -= 1;
            if ts.ungranted == 0 {
                newly_enabled.push(d.task);
            }
        }
        q.tail = NIL;
    }

    /// Number of registered tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of registered but not yet completed tasks.
    pub fn live_tasks(&self) -> usize {
        self.live_tasks
    }

    /// True when every registered task has completed.
    pub fn all_complete(&self) -> bool {
        self.live_tasks == 0
    }

    /// Conceptual queue length for one object — granted prefix plus
    /// waiting entries (diagnostics/tests).
    pub fn queue_len(&self, o: ObjectId) -> usize {
        let granted = self.queues.get(o.index()).map_or(0, |q| q.granted);
        self.waiting_len(o)
            + if granted == WRITER {
                1
            } else {
                granted as usize
            }
    }

    /// Number of *parked* (ungranted) entries on one object, counted by
    /// walking its list — the only part of a queue any operation could ever
    /// walk (diagnostics/tests).
    pub fn waiting_len(&self, o: ObjectId) -> usize {
        let (mut n, mut k) = (0, self.queues.get(o.index()).map_or(NIL, |q| q.head));
        while k != NIL {
            n += 1;
            k = self.decls[k as usize].next;
        }
        n
    }

    /// Capture the synchronizer's full dynamic state for the
    /// checkpoint/restart layer. The snapshot materializes the conceptual
    /// queues: an object's unreleased declarations in task order, which is
    /// the granted prefix followed by the waiting list (a grant always
    /// takes the list's head, so every granted access is older than every
    /// waiting one). Two walks of the declaration slab, the second
    /// bucketing by object; the lists are not consulted.
    pub fn snapshot(&self) -> SyncSnapshot {
        let mut ends = vec![0u32; self.queues.len()];
        let mut objects = Vec::new();
        let mut tasks = Vec::with_capacity(self.tasks.len());
        for t in &self.tasks {
            let objs_start = objects.len() as u32;
            for d in self.decls[t.decls()].iter().filter(|d| !d.released) {
                objects.push(d.object);
                ends[d.object.index()] += 1;
            }
            tasks.push(SnapTask {
                objs_start,
                nobjs: objects.len() as u32 - objs_start,
                ungranted: t.ungranted,
                completed: t.completed,
            });
        }
        // Counts become each queue's start in `entries`; filling a queue
        // advances its start to its end.
        let mut total = 0;
        for end in &mut ends {
            total += std::mem::replace(end, total);
        }
        let mut entries = vec![(TaskId(0), AccessMode::Read, false); objects.len()];
        for d in self.decls.iter().filter(|d| !d.released) {
            let at = &mut ends[d.object.index()];
            entries[*at as usize] = (d.task, d.mode, d.granted);
            *at += 1;
        }
        SyncSnapshot {
            replication: self.replication,
            base: self.base,
            tasks,
            objects,
            queue_ends: ends,
            entries,
        }
    }
}

/// `(task, mode, granted)`.
type SnapEntry = (TaskId, AccessMode, bool);

#[derive(Clone, Copy, Debug)]
struct SnapTask {
    /// This task's run of `SyncSnapshot::objects`.
    objs_start: u32,
    nobjs: u32,
    ungranted: u32,
    completed: bool,
}

/// A serializable snapshot of [`Synchronizer`] state, the synchronizer
/// section of a runtime checkpoint, and flat like it: the tasks' unreleased
/// objects in one run, the queues' entries in another. The binary format
/// (all integers little-endian) is:
///
/// ```text
/// "JSNP" u16:version=2 u8:replication u32:base
/// u32:ntasks  ( u8:completed u32:ungranted u32:nobjs u32:obj... )*
/// u32:nqueues ( u32:len ( u32:task u8:mode u8:granted )* )*
/// ```
///
/// `base` is the id of the first task in the window (tasks below it are
/// completed history); version 2 added it. Nothing decodes the format: a
/// checkpoint is charged its [`encoded_len`](Self::encoded_len).
#[derive(Clone, Debug)]
pub struct SyncSnapshot {
    replication: bool,
    base: u32,
    tasks: Vec<SnapTask>,
    /// Every task's unreleased objects, task after task.
    objects: Vec<ObjectId>,
    /// Where each object's queue ends in `entries` (it starts where the
    /// previous one ends).
    queue_ends: Vec<u32>,
    entries: Vec<SnapEntry>,
}

const SNAP_MAGIC: &[u8; 4] = b"JSNP";
/// Magic, version, replication, base and the two table counts.
const SNAP_HEADER: usize = 4 + 2 + 1 + 4 + 4 + 4;
const SNAP_VERSION: u16 = 2;
/// An access mode's byte in the format is its index here.
const SNAP_MODES: [AccessMode; 3] = [AccessMode::Read, AccessMode::Write, AccessMode::ReadWrite];

impl SyncSnapshot {
    fn objects_of(&self, t: &SnapTask) -> &[ObjectId] {
        &self.objects[t.objs_start as usize..][..t.nobjs as usize]
    }

    /// Each object's queue, in object order.
    fn queues(&self) -> impl Iterator<Item = &[SnapEntry]> {
        let mut start = 0;
        self.queue_ends.iter().map(move |&end| {
            let queue = &self.entries[start..end as usize];
            start = end as usize;
            queue
        })
    }

    /// Had `id` completed (committed) by capture time? Tasks registered
    /// after the snapshot report `false`; tasks below the window's base are
    /// completed history and report `true`.
    pub fn completed(&self, id: TaskId) -> bool {
        let slot = id.index().checked_sub(self.base as usize);
        slot.is_none_or(|s| self.tasks.get(s).is_some_and(|t| t.completed))
    }

    /// Exact size of [`to_bytes`](Self::to_bytes) output, used to charge
    /// checkpoint costs without materializing the encoding.
    pub fn encoded_len(&self) -> usize {
        SNAP_HEADER
            + 9 * self.tasks.len()
            + 4 * self.objects.len()
            + 4 * self.queue_ends.len()
            + 6 * self.entries.len()
    }

    /// Encode to the binary checkpoint format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(SNAP_MAGIC);
        out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        out.push(self.replication as u8);
        out.extend_from_slice(&self.base.to_le_bytes());
        out.extend_from_slice(&(self.tasks.len() as u32).to_le_bytes());
        for t in &self.tasks {
            out.push(t.completed as u8);
            out.extend_from_slice(&t.ungranted.to_le_bytes());
            out.extend_from_slice(&t.nobjs.to_le_bytes());
            for o in self.objects_of(t) {
                out.extend_from_slice(&o.0.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.queue_ends.len() as u32).to_le_bytes());
        for queue in self.queues() {
            out.extend_from_slice(&(queue.len() as u32).to_le_bytes());
            for &(task, mode, granted) in queue {
                out.extend_from_slice(&task.0.to_le_bytes());
                out.push(SNAP_MODES.iter().position(|&m| m == mode).unwrap() as u8);
                out.push(granted as u8);
            }
        }
        debug_assert_eq!(out.len(), self.encoded_len());
        out
    }
}

/// The [`encoded_len`](SyncSnapshot::encoded_len) a synchronizer's
/// snapshot would have, kept from counters by a replay that runs no
/// synchronizer: the iPSC simulator charges its checkpoints with it
/// (DESIGN.md §12). A registered task lists each declaration it holds
/// until it releases it or completes, and each held declaration is one
/// queue entry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotSize {
    tasks: usize,
    /// Declarations of registered tasks, and of completed ones.
    declared: usize,
    retired: usize,
    /// 1 + the largest object index registered: the object table's length.
    queues: usize,
}

impl SnapshotSize {
    /// Count the next task in serial order, of specification `spec`, as
    /// registered. Registration may lag behind completion, but every
    /// completed task must be registered before [`encoded_len`](Self::encoded_len).
    pub fn register(&mut self, spec: &AccessSpec) {
        self.tasks += 1;
        self.declared += spec.len();
        for d in spec.decls() {
            self.queues = self.queues.max(d.object.index() + 1);
        }
    }

    /// Count a task of specification `spec` as completed, `released` of
    /// its declarations having been released before.
    pub fn complete(&mut self, spec: &AccessSpec, released: usize) {
        self.retired += spec.len() - released;
    }

    /// Count one declaration as released mid-task.
    pub fn release(&mut self) {
        self.retired += 1;
    }

    /// Number of tasks registered.
    pub fn task_count(&self) -> usize {
        self.tasks
    }

    /// A held declaration is listed under its task (4 bytes) and is an
    /// entry of its object's queue (6 bytes).
    pub fn encoded_len(&self) -> usize {
        SNAP_HEADER + 9 * self.tasks + 10 * (self.declared - self.retired) + 4 * self.queues
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Event;

    /// Untraced `release`.
    fn release(sync: &mut Synchronizer, id: TaskId, object: ObjectId, newly: &mut Vec<TaskId>) {
        sync.release(id, object, newly, &mut NullSink, 0, 0);
    }

    /// Retire a completed window, as a long-lived synchronizer once did:
    /// the slabs emptied and `base` moved past their ids. Snapshots of such
    /// states carry a nonzero `base`, which the format still encodes.
    fn retire_window(sync: &mut Synchronizer) {
        assert!(sync.all_complete());
        sync.base += sync.tasks.len() as u32;
        sync.tasks.clear();
        sync.decls.clear();
    }

    fn o(n: u32) -> ObjectId {
        ObjectId(n)
    }

    fn spec(reads: &[u32], writes: &[u32]) -> AccessSpec {
        let mut s = AccessSpec::new();
        for &r in reads {
            s.rd(o(r));
        }
        for &w in writes {
            s.wr(o(w));
        }
        s
    }

    #[test]
    fn independent_tasks_enable_immediately() {
        let mut sync = Synchronizer::new(true);
        assert!(sync.add_task(TaskId(0), &spec(&[], &[0])));
        assert!(sync.add_task(TaskId(1), &spec(&[], &[1])));
    }

    #[test]
    fn writer_then_reader_serializes() {
        let mut sync = Synchronizer::new(true);
        assert!(sync.add_task(TaskId(0), &spec(&[], &[0])));
        assert!(!sync.add_task(TaskId(1), &spec(&[0], &[])));
        let mut enabled = Vec::new();
        sync.complete(TaskId(0), &mut enabled);
        assert_eq!(enabled, vec![TaskId(1)]);
        assert!(sync.is_enabled(TaskId(1)));
    }

    #[test]
    fn concurrent_readers_all_enabled() {
        let mut sync = Synchronizer::new(true);
        for i in 0..10 {
            assert!(sync.add_task(TaskId(i), &spec(&[0], &[])), "reader {i}");
        }
    }

    #[test]
    fn replication_off_serializes_readers() {
        let mut sync = Synchronizer::new(false);
        assert!(sync.add_task(TaskId(0), &spec(&[0], &[])));
        assert!(!sync.add_task(TaskId(1), &spec(&[0], &[])));
        let mut enabled = Vec::new();
        sync.complete(TaskId(0), &mut enabled);
        assert_eq!(enabled, vec![TaskId(1)]);
    }

    #[test]
    fn readers_block_writer_until_all_done() {
        let mut sync = Synchronizer::new(true);
        assert!(sync.add_task(TaskId(0), &spec(&[0], &[])));
        assert!(sync.add_task(TaskId(1), &spec(&[0], &[])));
        assert!(!sync.add_task(TaskId(2), &spec(&[], &[0])));
        let mut enabled = Vec::new();
        sync.complete(TaskId(1), &mut enabled); // out-of-order completion OK
        assert!(enabled.is_empty());
        sync.complete(TaskId(0), &mut enabled);
        assert_eq!(enabled, vec![TaskId(2)]);
    }

    #[test]
    fn reader_behind_writer_waits_but_later_reader_run_shares() {
        let mut sync = Synchronizer::new(true);
        assert!(sync.add_task(TaskId(0), &spec(&[], &[0]))); // writer
        assert!(!sync.add_task(TaskId(1), &spec(&[0], &[]))); // reader
        assert!(!sync.add_task(TaskId(2), &spec(&[0], &[]))); // reader
        assert!(!sync.add_task(TaskId(3), &spec(&[], &[0]))); // writer
        let mut enabled = Vec::new();
        sync.complete(TaskId(0), &mut enabled);
        // Both readers enable together; the trailing writer does not.
        assert_eq!(enabled, vec![TaskId(1), TaskId(2)]);
        enabled.clear();
        sync.complete(TaskId(1), &mut enabled);
        assert!(enabled.is_empty());
        sync.complete(TaskId(2), &mut enabled);
        assert_eq!(enabled, vec![TaskId(3)]);
    }

    #[test]
    fn multi_object_task_waits_for_all() {
        let mut sync = Synchronizer::new(true);
        assert!(sync.add_task(TaskId(0), &spec(&[], &[0])));
        assert!(sync.add_task(TaskId(1), &spec(&[], &[1])));
        // Task 2 reads both objects; blocked by both writers.
        assert!(!sync.add_task(TaskId(2), &spec(&[0, 1], &[])));
        let mut enabled = Vec::new();
        sync.complete(TaskId(0), &mut enabled);
        assert!(enabled.is_empty(), "still blocked on object 1");
        sync.complete(TaskId(1), &mut enabled);
        assert_eq!(enabled, vec![TaskId(2)]);
    }

    #[test]
    fn read_write_mode_is_exclusive() {
        let mut sync = Synchronizer::new(true);
        let mut s0 = AccessSpec::new();
        s0.rd_wr(o(0));
        assert!(sync.add_task(TaskId(0), &s0));
        assert!(!sync.add_task(TaskId(1), &spec(&[0], &[])));
        let mut s2 = AccessSpec::new();
        s2.rd_wr(o(0));
        assert!(!sync.add_task(TaskId(2), &s2));
        let mut enabled = Vec::new();
        sync.complete(TaskId(0), &mut enabled);
        assert_eq!(enabled, vec![TaskId(1)]);
        enabled.clear();
        sync.complete(TaskId(1), &mut enabled);
        assert_eq!(enabled, vec![TaskId(2)]);
    }

    #[test]
    fn empty_spec_enables_immediately() {
        let mut sync = Synchronizer::new(true);
        assert!(sync.add_task(TaskId(0), &AccessSpec::new()));
        let mut enabled = Vec::new();
        sync.complete(TaskId(0), &mut enabled);
        assert!(sync.all_complete());
    }

    #[test]
    fn release_lets_successor_start_early() {
        // Pipelining: a writer releases object 0 mid-task; the waiting
        // reader enables while the writer is still running.
        let mut sync = Synchronizer::new(true);
        assert!(sync.add_task(TaskId(0), &spec(&[], &[0, 1])));
        assert!(!sync.add_task(TaskId(1), &spec(&[0], &[])));
        let mut enabled = Vec::new();
        release(&mut sync, TaskId(0), o(0), &mut enabled);
        assert_eq!(
            enabled,
            vec![TaskId(1)],
            "reader enabled before writer completes"
        );
        assert!(!sync.all_complete());
        enabled.clear();
        sync.complete(TaskId(1), &mut enabled);
        sync.complete(TaskId(0), &mut enabled); // still holds object 1
        assert!(sync.all_complete());
    }

    #[test]
    fn release_of_read_unblocks_writer() {
        let mut sync = Synchronizer::new(true);
        assert!(sync.add_task(TaskId(0), &spec(&[0], &[1])));
        assert!(!sync.add_task(TaskId(1), &spec(&[], &[0])));
        let mut enabled = Vec::new();
        release(&mut sync, TaskId(0), o(0), &mut enabled);
        assert_eq!(enabled, vec![TaskId(1)]);
    }

    #[test]
    #[should_panic(expected = "releasing undeclared")]
    fn double_release_panics() {
        let mut sync = Synchronizer::new(true);
        sync.add_task(TaskId(0), &spec(&[0], &[]));
        let mut e = Vec::new();
        release(&mut sync, TaskId(0), o(0), &mut e);
        release(&mut sync, TaskId(0), o(0), &mut e);
    }

    #[test]
    fn complete_after_partial_release_cleans_rest() {
        let mut sync = Synchronizer::new(true);
        sync.add_task(TaskId(0), &spec(&[0, 1, 2], &[]));
        sync.add_task(TaskId(1), &spec(&[], &[0]));
        sync.add_task(TaskId(2), &spec(&[], &[1]));
        let mut e = Vec::new();
        release(&mut sync, TaskId(0), o(0), &mut e);
        assert_eq!(e, vec![TaskId(1)]);
        e.clear();
        sync.complete(TaskId(0), &mut e);
        assert_eq!(
            e,
            vec![TaskId(2)],
            "remaining entries released at completion"
        );
    }

    #[test]
    #[should_panic(expected = "serial program order")]
    fn out_of_order_registration_panics() {
        let mut sync = Synchronizer::new(true);
        sync.add_task(TaskId(1), &AccessSpec::new());
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_complete_panics() {
        let mut sync = Synchronizer::new(true);
        sync.add_task(TaskId(0), &AccessSpec::new());
        let mut e = Vec::new();
        sync.complete(TaskId(0), &mut e);
        sync.complete(TaskId(0), &mut e);
    }

    #[test]
    fn snapshot_encodes_its_length_and_completions() {
        let mut sync = Synchronizer::new(true);
        sync.add_task(TaskId(0), &spec(&[], &[0]));
        sync.add_task(TaskId(1), &spec(&[0], &[1]));
        sync.add_task(TaskId(2), &spec(&[0, 1], &[]));
        let mut e = Vec::new();
        sync.complete(TaskId(0), &mut e);
        let snap = sync.snapshot();
        assert!(snap.completed(TaskId(0)));
        assert!(!snap.completed(TaskId(1)));
        assert!(!snap.completed(TaskId(2)));
        assert!(!snap.completed(TaskId(99)), "unknown task is not committed");
        assert_eq!(snap.to_bytes().len(), snap.encoded_len());
    }

    #[test]
    fn long_pipeline_executes_in_order() {
        // w(0) -> r(0)w(1) -> r(1)w(2) -> ... classic pipeline.
        let mut sync = Synchronizer::new(true);
        assert!(sync.add_task(TaskId(0), &spec(&[], &[0])));
        for i in 1..50u32 {
            assert!(!sync.add_task(TaskId(i), &spec(&[i - 1], &[i])));
        }
        let mut order = Vec::new();
        let mut ready = vec![TaskId(0)];
        while let Some(t) = ready.pop() {
            order.push(t);
            sync.complete(t, &mut ready);
        }
        assert_eq!(order, (0..50).map(TaskId).collect::<Vec<_>>());
        assert!(sync.all_complete());
    }

    #[test]
    fn granted_read_pileup_completes_in_constant_time_each() {
        // Satellite regression test: 10k concurrent readers granted on one
        // object. The waiting queue must stay EMPTY throughout — each
        // completion is a pure counter decrement with nothing to rescan
        // (the old full-queue representation walked all 10k entries per
        // completion, going quadratic).
        let n = 10_000u32;
        let mut sync = Synchronizer::new(true);
        for i in 0..n {
            assert!(sync.add_task(TaskId(i), &spec(&[0], &[])));
        }
        assert_eq!(sync.queue_len(o(0)), n as usize);
        assert_eq!(sync.waiting_len(o(0)), 0, "granted reads are aggregated");
        // Trailing writer: the only materialized entry.
        assert!(!sync.add_task(TaskId(n), &spec(&[], &[0])));
        assert_eq!(sync.waiting_len(o(0)), 1);
        let mut e = Vec::new();
        for i in 0..n {
            sync.complete(TaskId(i), &mut e);
            assert_eq!(sync.waiting_len(o(0)), usize::from(i != n - 1));
        }
        assert_eq!(e, vec![TaskId(n)], "writer enables after the last read");
        sync.complete(TaskId(n), &mut e);
        assert!(sync.all_complete());
    }

    #[test]
    fn waiting_read_pileup_drains_eagerly_on_grant() {
        // The mirror case: 10k readers parked behind one writer. The grant
        // batch fired by the writer's completion moves all of them out of
        // the queue at once — afterwards every read completion is O(1).
        let n = 10_000u32;
        let mut sync = Synchronizer::new(true);
        assert!(sync.add_task(TaskId(0), &spec(&[], &[0])));
        for i in 1..=n {
            assert!(!sync.add_task(TaskId(i), &spec(&[0], &[])));
        }
        assert_eq!(sync.waiting_len(o(0)), n as usize);
        let mut e = Vec::new();
        sync.complete(TaskId(0), &mut e);
        assert_eq!(e.len(), n as usize, "one grant batch enables all readers");
        assert_eq!(sync.waiting_len(o(0)), 0, "granted entries left the queue");
        for i in 1..=n {
            let mut e = Vec::new();
            sync.complete(TaskId(i), &mut e);
            assert!(e.is_empty());
        }
        assert!(sync.all_complete());
    }

    #[test]
    fn snapshot_size_counts_releases_and_completions() {
        // Task 0 writes objects 0 and 2, task 1 reads object 0: release,
        // then completion, each retire what they give up, as the
        // synchronizer's snapshot lists it.
        let specs = [spec(&[], &[0, 2]), spec(&[0], &[])];
        let mut sync = Synchronizer::new(true);
        let mut size = SnapshotSize::default();
        for (i, s) in specs.iter().enumerate() {
            sync.add_task(TaskId(i as u32), s);
            size.register(s);
        }
        assert_eq!(size.task_count(), 2);
        assert_eq!(size.encoded_len(), sync.snapshot().encoded_len());
        let mut newly = Vec::new();
        release(&mut sync, TaskId(0), o(0), &mut newly);
        size.release();
        assert_eq!(newly, [TaskId(1)]);
        assert_eq!(size.encoded_len(), sync.snapshot().encoded_len());
        sync.complete(TaskId(0), &mut newly);
        size.complete(&specs[0], 1);
        assert_eq!(size.encoded_len(), sync.snapshot().encoded_len());
    }

    #[test]
    fn windowed_snapshot_reports_history_complete() {
        let mut sync = Synchronizer::new(true);
        sync.add_task(TaskId(0), &spec(&[], &[0]));
        let mut e = Vec::new();
        sync.complete(TaskId(0), &mut e);
        retire_window(&mut sync);
        // Window now starts at id 1, with a dependence inside it.
        assert!(sync.add_task(TaskId(1), &spec(&[], &[0])));
        assert!(!sync.add_task(TaskId(2), &spec(&[0], &[])));
        let snap = sync.snapshot();
        assert!(snap.completed(TaskId(0)), "pre-window id is history");
        assert!(!snap.completed(TaskId(1)));
        assert!(!snap.completed(TaskId(2)));
        assert_eq!(snap.to_bytes().len(), snap.encoded_len());
    }

    /// Register `specs`, then take up to `steps` seeded transitions, each a
    /// mid-task release or the completion of some enabled task. Returns
    /// every answer the synchronizer gave (the initially enabled set, then
    /// each transition's `newly_enabled`) and the traced stream.
    fn drive(
        sync: &mut Synchronizer,
        specs: &[AccessSpec],
        mut seed: u64,
        steps: usize,
    ) -> (Vec<Vec<TaskId>>, Vec<Event>) {
        let mut sink: Vec<Event> = Vec::new();
        let mut clock = 0u64..;
        let mut enabled = Vec::new();
        for (i, s) in specs.iter().enumerate() {
            let id = TaskId(i as u32);
            if sync.add_task_traced(id, s, &mut sink, clock.next().unwrap(), 0) {
                enabled.push(id);
            }
        }
        let mut answers = vec![enabled.clone()];
        // Declarations each task has released so far, in declaration order.
        let mut released = vec![0usize; specs.len()];
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as usize
        };
        for _ in 0..steps {
            if enabled.is_empty() {
                break;
            }
            let at = next() % enabled.len();
            let t = enabled[at];
            let decls = specs[t.index()].decls();
            let mut newly = Vec::new();
            let time = clock.next().unwrap();
            if next() % 2 == 0 && released[t.index()] < decls.len() {
                let object = decls[released[t.index()]].object;
                released[t.index()] += 1;
                sync.release(t, object, &mut newly, &mut sink, time, 0);
            } else {
                enabled.swap_remove(at);
                sync.complete_traced(t, &mut newly, &mut sink, time, 0);
            }
            enabled.extend(&newly);
            answers.push(newly);
        }
        (answers, sink)
    }

    /// A seeded stream of small numbers.
    fn lcg(mut state: u64) -> impl FnMut() -> usize {
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        }
    }

    /// A deterministic partial state: one to three windows of a seeded
    /// program (earlier windows run to the end and are retired), the last
    /// stopped after a seeded number of completions and mid-task releases.
    fn corpus_state(seed: u64) -> Synchronizer {
        let mut next = lcg(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
        let mut sync = Synchronizer::new(seed % 4 != 3);
        let windows = 1 + seed as usize % 3;
        let mut next_id = 0u32;
        for w in 0..windows {
            let n = 5 + next() % 40;
            let base = next_id;
            let mut specs = Vec::new();
            let mut enabled = Vec::new();
            for _ in 0..n {
                let mut s = AccessSpec::new();
                for _ in 0..next() % 5 {
                    let obj = o((next() % 7) as u32);
                    match next() % 3 {
                        0 => s.rd(obj),
                        1 => s.wr(obj),
                        _ => s.rd_wr(obj),
                    };
                }
                if sync.add_task(TaskId(next_id), &s) {
                    enabled.push(TaskId(next_id));
                }
                specs.push(s);
                next_id += 1;
            }
            let last = w + 1 == windows;
            let steps = if last { next() % (2 * n) } else { usize::MAX };
            let mut released = vec![0usize; n];
            for _ in 0..steps {
                if enabled.is_empty() {
                    break;
                }
                let at = next() % enabled.len();
                let t = enabled[at];
                let local = (t.0 - base) as usize;
                let decls = specs[local].decls();
                let mut newly = Vec::new();
                if next().is_multiple_of(2) && released[local] < decls.len() {
                    let object = decls[released[local]].object;
                    released[local] += 1;
                    release(&mut sync, t, object, &mut newly);
                } else {
                    enabled.swap_remove(at);
                    sync.complete(t, &mut newly);
                }
                enabled.extend(newly);
            }
            if !last {
                assert!(sync.all_complete());
                retire_window(&mut sync);
            }
        }
        sync
    }

    fn fnv64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x100000001b3)
        })
    }

    /// `(length, FNV-1a)` of `snapshot().to_bytes()` for `corpus_state(0..24)`,
    /// recorded at PR 22 (`e33ae33`) from the `VecDeque`-per-object
    /// synchronizer this one replaced.
    #[rustfmt::skip]
    const SNAPSHOT_CORPUS: [(usize, u64); 24] = [
        (458, 0x3914d7f443cbc68c),
        (172, 0x1ab02e3ac821846a),
        (155, 0x92344373b091003d),
        (493, 0x56811d858a487d63),
        (187, 0x625fc2ee06fd9eae),
        (841, 0xdbad87e8e59eebfc),
        (862, 0xd0cde407acc4b9ba),
        (364, 0x8b2eee3719b7971b),
        (429, 0x56cec4fa6b0a62b2),
        (239, 0xdebdfcd24e18a062),
        (184, 0x3e18908eabe1e1b2),
        (668, 0xec44ebbd990ac0a6),
        (498, 0x17ae866398bb14cd),
        (527, 0x922172b3884cfa9d),
        (382, 0x7219d37ad2764193),
        (612, 0xed131469f958c8ab),
        (224, 0xca0c560e17a1864f),
        (409, 0xb1493736b88ec0c9),
        (1011, 0x7e54b2475c96419e),
        (1275, 0xf5417555fcd48f79),
        (148, 0xc3fd2f5f2e1a3dd6),
        (416, 0x7f165e8d94e30ca8),
        (218, 0xa4f66eeeb51616d7),
        (228, 0xd583a7a0cb25234d),
    ];

    #[test]
    fn snapshot_bytes_match_the_committed_corpus() {
        let got: Vec<(usize, u64)> = (0..24)
            .map(|seed| {
                let bytes = corpus_state(seed).snapshot().to_bytes();
                (bytes.len(), fnv64(&bytes))
            })
            .collect();
        assert_eq!(got, SNAPSHOT_CORPUS, "as source: {got:#x?}");
    }

    /// The reference the flat synchronizer is checked against: one `Vec`
    /// of `(task, mode, granted)` per object, the whole conceptual queue in
    /// program order, rescanned from the front after every removal.
    struct Model {
        replication: bool,
        queues: Vec<Vec<(TaskId, AccessMode, bool)>>,
        /// Per task of the window: declarations not yet granted.
        ungranted: Vec<u32>,
        base: u32,
    }

    impl Model {
        fn new(replication: bool) -> Model {
            Model {
                replication,
                queues: vec![Vec::new(); 6],
                ungranted: Vec::new(),
                base: 0,
            }
        }

        /// Grant what the rules allow from the front of `obj`'s queue; a
        /// task whose last declaration it grants goes to `newly`.
        fn regrant(&mut self, obj: usize, newly: &mut Vec<TaskId>) {
            let (mut reads, mut writer) = (0, false);
            for (task, mode, granted) in &mut self.queues[obj] {
                let read = *mode == AccessMode::Read;
                let legal = !writer && (reads == 0 || (read && self.replication));
                if !*granted {
                    if !legal {
                        break;
                    }
                    *granted = true;
                    let left = &mut self.ungranted[(task.0 - self.base) as usize];
                    *left -= 1;
                    if *left == 0 {
                        newly.push(*task);
                    }
                }
                reads += u32::from(read);
                writer |= !read;
            }
        }

        fn add_task(&mut self, id: TaskId, spec: &AccessSpec) -> bool {
            self.ungranted.push(spec.len() as u32);
            let mut newly = Vec::new();
            for d in spec.decls() {
                self.queues[d.object.index()].push((id, d.mode, false));
                self.regrant(d.object.index(), &mut newly);
            }
            spec.is_empty() || newly == [id]
        }

        fn release(&mut self, id: TaskId, object: ObjectId, newly: &mut Vec<TaskId>) {
            let q = &mut self.queues[object.index()];
            let at = q.iter().position(|e| e.0 == id).expect("declared");
            assert!(q.remove(at).2, "releasing an ungranted access");
            self.regrant(object.index(), newly);
        }

        fn retire_window(&mut self) {
            assert!(self.queues.iter().all(|q| q.is_empty()));
            self.base += self.ungranted.len() as u32;
            self.ungranted.clear();
        }
    }

    use proptest::prelude::*;

    fn program(max_tasks: usize) -> impl Strategy<Value = Vec<Vec<(u8, bool)>>> {
        prop::collection::vec(
            prop::collection::vec(((0..6u8), any::<bool>()), 0..5),
            1..max_tasks,
        )
    }

    fn specs_of(prog: &[Vec<(u8, bool)>]) -> Vec<AccessSpec> {
        let spec_of = |accesses: &Vec<(u8, bool)>| {
            let mut s = AccessSpec::new();
            for &(obj, write) in accesses {
                if write {
                    s.wr(o(obj as u32));
                } else {
                    s.rd(o(obj as u32));
                }
            }
            s
        };
        prog.iter().map(spec_of).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `reset` from any partial state — tasks completed, accesses
        /// granted, waiters parked, declarations released mid-task — leaves
        /// a synchronizer that answers a second program exactly as a new
        /// one does: same enabled sets in the same order, same stream.
        #[test]
        fn reset_from_any_state_equals_new(
            first in program(30),
            second in program(30),
            stop in any::<u64>(),
            seed in any::<u64>(),
            replication in any::<bool>(),
        ) {
            let first = specs_of(&first);
            let mut used = Synchronizer::new(replication);
            drive(&mut used, &first, seed, (stop % (3 * first.len() as u64 + 1)) as usize);
            if used.all_complete() {
                // A finished window may have been retired: `base` moves.
                retire_window(&mut used);
            }
            used.reset();
            prop_assert_eq!(used.task_count(), 0);
            prop_assert_eq!(used.base, 0);
            prop_assert!(used.all_complete());

            let second = specs_of(&second);
            let mut fresh = Synchronizer::new(replication);
            let after_reset = drive(&mut used, &second, seed ^ stop, usize::MAX);
            let from_new = drive(&mut fresh, &second, seed ^ stop, usize::MAX);
            prop_assert_eq!(&after_reset, &from_new);
            prop_assert!(used.all_complete(), "the second program ran to the end");
            for obj in 0..6 {
                prop_assert_eq!(used.queue_len(o(obj)), 0);
            }
        }

        /// The flat synchronizer against the naive model: the same enabled
        /// sets in the same order under random specifications, completions
        /// and mid-task releases, window after retired window, across a
        /// `reset` from a seeded point, replication on and off.
        #[test]
        fn flat_synchronizer_matches_the_naive_model(
            windows in prop::collection::vec(program(25), 1..4),
            seed in any::<u64>(),
            reset_after in 0..120usize,
            replication in any::<bool>(),
        ) {
            let mut next = lcg(seed | 1);
            let mut sync = Synchronizer::new(replication);
            let mut model = Model::new(replication);
            let mut steps = 0usize;
            let mut next_id = 0u32;
            'windows: for prog in &windows {
                let specs = specs_of(prog);
                let base = next_id;
                let mut enabled = Vec::new();
                for s in &specs {
                    let id = TaskId(next_id);
                    next_id += 1;
                    let now = sync.add_task(id, s);
                    prop_assert_eq!(now, model.add_task(id, s), "add {:?}", id);
                    prop_assert_eq!(now, sync.is_enabled(id));
                    if now {
                        enabled.push(id);
                    }
                }
                let mut released = vec![0usize; specs.len()];
                while !enabled.is_empty() {
                    if steps == reset_after {
                        // Abandon both mid-flight; ids restart from zero.
                        sync.reset();
                        model = Model::new(replication);
                        next_id = 0;
                        steps += 1;
                        continue 'windows;
                    }
                    steps += 1;
                    let at = next() % enabled.len();
                    let t = enabled[at];
                    let local = (t.0 - base) as usize;
                    let decls = specs[local].decls();
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    if next().is_multiple_of(2) && released[local] < decls.len() {
                        let object = decls[released[local]].object;
                        released[local] += 1;
                        release(&mut sync, t, object, &mut got);
                        model.release(t, object, &mut want);
                    } else {
                        enabled.swap_remove(at);
                        sync.complete(t, &mut got);
                        for d in &decls[released[local]..] {
                            model.release(t, d.object, &mut want);
                        }
                    }
                    prop_assert_eq!(&got, &want, "after {:?}", t);
                    for obj in 0..6 {
                        let q = &model.queues[obj];
                        prop_assert_eq!(sync.queue_len(o(obj as u32)), q.len());
                        let waiting = q.iter().filter(|e| !e.2).count();
                        prop_assert_eq!(sync.waiting_len(o(obj as u32)), waiting);
                    }
                    enabled.extend(got);
                }
                prop_assert!(sync.all_complete(), "the window ran to its end");
                retire_window(&mut sync);
                model.retire_window();
                prop_assert_eq!(sync.base, model.base);
            }
        }
    }
}
