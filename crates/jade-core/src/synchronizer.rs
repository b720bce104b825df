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
//! A task is *enabled* when all of its declared accesses are granted. This
//! preserves exactly the dynamic data dependence constraints of the paper:
//! conflicting tasks execute in serial program order, non-conflicting tasks
//! run concurrently.
//!
//! # Representation
//!
//! The conceptual per-object queue is `[granted entries..][waiting..]` —
//! the granted prefix is always either a run of reads or a single writer.
//! Earlier versions stored the whole queue and rescanned it on every
//! completion, making a pileup of N readers cost O(N²). The current
//! representation keeps only the **aggregate** of the granted prefix
//! (`granted_reads` counter + `granted_writer` flag) plus a queue of the
//! *waiting* entries: granted entries leave the queue eagerly, so queue
//! length stays O(outstanding ungranted accesses), completion of a granted
//! access is an O(1) counter update, and a re-grant touches exactly the
//! entries it enables. Per-task declaration lists are interned in one slab
//! (`decls`) instead of a `Vec<ObjectId>` per task, so registering a task
//! performs no per-task allocation beyond amortized slab growth.
//!
//! The synchronizer is deliberately pure — no clocks, no processors — so the
//! same component drives the DASH simulator, the iPSC simulator and the real
//! `jade-threads` executor, and so its invariants are easy to property-test.

use crate::access::{AccessMode, AccessSpec};
use crate::events::{EventKind, Sink};
use crate::ids::{ObjectId, ProcId, TaskId};
use std::collections::VecDeque;

/// One declared access, interned in the synchronizer-wide `decls` slab.
/// A task's declarations occupy a contiguous run of slots.
#[derive(Clone, Copy, Debug)]
struct DeclSlot {
    object: ObjectId,
    mode: AccessMode,
    /// The access is currently part of its object's granted prefix.
    granted: bool,
    /// The access was given up (mid-task `release`, or task completion).
    released: bool,
}

/// One synchronizer state transition, queueable in a [`TransitionBatch`].
///
/// The two ways a task gives up granted accesses: completing (retiring
/// every remaining declaration) or a mid-task release of one declaration
/// (Jade's pipelining statements).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transition {
    /// The task finished; retire all of its unreleased declarations.
    Complete(TaskId),
    /// Mid-task retirement of the task's declaration on one object.
    Release(TaskId, ObjectId),
}

/// A queue of synchronizer transitions applied together by
/// [`Synchronizer::apply_batch`] under the caller's single lock
/// acquisition. Executors accumulate locally-finished tasks here (a
/// per-worker drain buffer) instead of taking the synchronizer lock once
/// per completion.
///
/// Transitions are applied strictly in push order, so the set of newly
/// enabled tasks — and their order — is exactly what N individual
/// [`Synchronizer::complete`]/[`Synchronizer::release`] calls in the same
/// order would produce.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TransitionBatch {
    items: Vec<Transition>,
}

impl TransitionBatch {
    pub fn new() -> TransitionBatch {
        TransitionBatch::default()
    }

    /// Queue a task completion.
    pub fn complete(&mut self, id: TaskId) {
        self.items.push(Transition::Complete(id));
    }

    /// Queue a mid-task release of `object` by `id`.
    pub fn release(&mut self, id: TaskId, object: ObjectId) {
        self.items.push(Transition::Release(id, object));
    }

    /// Queued transitions, in application order.
    pub fn transitions(&self) -> &[Transition] {
        &self.items
    }

    /// Number of queued [`Transition::Complete`] entries.
    pub fn completions(&self) -> usize {
        self.items
            .iter()
            .filter(|t| matches!(t, Transition::Complete(_)))
            .count()
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Remove and return every queued transition, in order.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Transition> {
        self.items.drain(..)
    }

    pub fn clear(&mut self) {
        self.items.clear();
    }
}

/// A not-yet-granted access parked in an object's waiting queue.
#[derive(Clone, Copy, Debug)]
struct Waiter {
    task: TaskId,
    /// Index of the access in the `decls` slab.
    decl: u32,
    mode: AccessMode,
}

/// Aggregate state of one object's access queue: the granted prefix is
/// summarized (it is always all-reads or one writer), only ungranted
/// entries are materialized.
#[derive(Clone, Debug, Default)]
struct ObjQueue {
    /// Reads currently granted on this object.
    granted_reads: u32,
    /// A write (or read-write) is currently granted.
    granted_writer: bool,
    /// Ungranted accesses, in serial program order.
    waiting: VecDeque<Waiter>,
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
    /// Id of the first task in the current window: [`recycle`] retires the
    /// storage of completed batches by advancing this offset instead of
    /// letting `tasks`/`decls` grow forever. Task `id` lives at slot
    /// `id.index() - base`. Tasks below `base` are completed history.
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

    fn queue_mut(&mut self, o: ObjectId) -> &mut ObjQueue {
        if o.index() >= self.queues.len() {
            self.queues.resize_with(o.index() + 1, ObjQueue::default);
        }
        &mut self.queues[o.index()]
    }

    /// Slab slot of `id` in the current window.
    #[inline]
    fn slot(&self, id: TaskId) -> usize {
        debug_assert!(
            id.index() >= self.base as usize,
            "task {id:?} predates the current window (base {})",
            self.base
        );
        id.index() - self.base as usize
    }

    /// Retire the storage of a fully completed window: every registered
    /// task has completed, so `tasks` and `decls` hold only history —
    /// clear them (keeping capacity) and advance `base` past the retired
    /// ids. Subsequent [`add_task`](Self::add_task) calls continue from
    /// the next id, reusing the slabs instead of growing them, which is
    /// what keeps a long-lived executor's steady state allocation-free.
    ///
    /// # Panics
    ///
    /// If any registered task has not completed.
    pub fn recycle(&mut self) {
        assert!(
            self.all_complete(),
            "recycle with {} live tasks",
            self.live_tasks
        );
        // All tasks complete ⇒ every access was retired: no granted
        // entries remain aggregated and no waiter is parked.
        debug_assert!(self
            .queues
            .iter()
            .all(|q| q.granted_reads == 0 && !q.granted_writer && q.waiting.is_empty()));
        self.base += self.tasks.len() as u32;
        self.tasks.clear();
        self.decls.clear();
    }

    /// Return to the state of [`Synchronizer::new`] from *any* state,
    /// keeping every allocation. Like [`recycle`](Self::recycle) it clears
    /// the task and declaration slabs, but it rewinds `base` to 0 and also
    /// clears granted counts and parked waiters, so it is safe on a
    /// synchronizer abandoned mid-flight (a cancelled service tenant). The
    /// object queues stay allocated (empty), so a later
    /// [`snapshot`](Self::snapshot) may list trailing empty queues a fresh
    /// synchronizer would not; nothing else can tell the two apart.
    pub fn reset(&mut self) {
        for q in &mut self.queues {
            q.granted_reads = 0;
            q.granted_writer = false;
            q.waiting.clear();
        }
        self.tasks.clear();
        self.decls.clear();
        self.live_tasks = 0;
        self.base = 0;
    }

    /// Id of the first task in the current window (tasks below it were
    /// retired by [`recycle`](Self::recycle); 0 unless recycling is used).
    pub fn base_task(&self) -> u32 {
        self.base
    }

    /// Register a task. **Must** be called in serial program order: task ids
    /// are consecutive from [`base_task`](Self::base_task) (zero unless
    /// [`recycle`](Self::recycle) is used). Returns `true` if the task is
    /// immediately enabled (all accesses granted).
    pub fn add_task(&mut self, id: TaskId, spec: &AccessSpec) -> bool {
        assert_eq!(
            id.index(),
            self.base as usize + self.tasks.len(),
            "tasks must be registered in serial program order"
        );
        let start = self.decls.len() as u32;
        let mut ungranted = 0u32;
        for d in spec.decls() {
            let decl = self.decls.len() as u32;
            let replication = self.replication;
            let q = self.queue_mut(d.object);
            // The new access goes behind everything already in the queue.
            // It is granted iff nothing is waiting ahead of it and it is
            // compatible with the granted prefix: a read joins a run of
            // granted reads (under replication), anything joins an idle
            // object. An empty waiting queue plus no granted writer means
            // the whole (conceptual) queue is a run of granted reads.
            let granted = q.waiting.is_empty()
                && !q.granted_writer
                && if d.mode == AccessMode::Read {
                    replication || q.granted_reads == 0
                } else {
                    q.granted_reads == 0
                };
            if granted {
                if d.mode == AccessMode::Read {
                    q.granted_reads += 1;
                } else {
                    q.granted_writer = true;
                }
            } else {
                ungranted += 1;
                q.waiting.push_back(Waiter {
                    task: id,
                    decl,
                    mode: d.mode,
                });
            }
            self.decls.push(DeclSlot {
                object: d.object,
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
        ungranted == 0
    }

    /// True if every declared access of `id` is currently granted.
    pub fn is_enabled(&self, id: TaskId) -> bool {
        let t = &self.tasks[self.slot(id)];
        !t.completed && t.ungranted == 0
    }

    /// Mark `id` complete, releasing its remaining granted accesses. Newly
    /// enabled tasks are appended to `newly_enabled` (in serial program
    /// order per object queue, which is deterministic). Each retired access
    /// is an O(1) counter update plus the grants it triggers — no queue is
    /// rescanned.
    pub fn complete(&mut self, id: TaskId, newly_enabled: &mut Vec<TaskId>) {
        let slot = self.slot(id);
        let state = &mut self.tasks[slot];
        assert!(!state.completed, "task {id:?} completed twice");
        assert_eq!(
            state.ungranted, 0,
            "task {id:?} completed while not enabled"
        );
        state.completed = true;
        self.live_tasks -= 1;
        let (start, len) = (state.decls_start as usize, state.decls_len as usize);
        for k in start..start + len {
            if self.decls[k].released {
                continue;
            }
            debug_assert!(self.decls[k].granted, "completing an ungranted access");
            self.decls[k].released = true;
            let (object, mode) = (self.decls[k].object, self.decls[k].mode);
            self.retire(object, mode, newly_enabled);
        }
    }

    /// Release one of `id`'s declared accesses **before** the task
    /// completes — Jade's advanced pipelining statements (`no_rd(o)`,
    /// `no_wr(o)`): a task that has finished using an object gives up its
    /// right to access it, letting successors proceed while the task keeps
    /// running. Newly enabled tasks are appended to `newly_enabled`.
    ///
    /// Panics if the task never declared (or already released) the object.
    pub fn release(&mut self, id: TaskId, object: ObjectId, newly_enabled: &mut Vec<TaskId>) {
        let state = &self.tasks[self.slot(id)];
        assert!(!state.completed, "release after completion of {id:?}");
        let (start, len) = (state.decls_start as usize, state.decls_len as usize);
        let k = (start..start + len)
            .find(|&k| self.decls[k].object == object && !self.decls[k].released)
            .unwrap_or_else(|| panic!("{id:?} releasing undeclared/released {object:?}"));
        debug_assert!(self.decls[k].granted, "releasing an ungranted access");
        self.decls[k].released = true;
        let mode = self.decls[k].mode;
        self.retire(object, mode, newly_enabled);
    }

    /// A granted access on `o` went away (completion or mid-task release):
    /// update the aggregate, and if the granted prefix emptied, grant the
    /// longest legal run from the head of the waiting queue.
    fn retire(&mut self, o: ObjectId, mode: AccessMode, newly_enabled: &mut Vec<TaskId>) {
        let q = &mut self.queues[o.index()];
        if mode == AccessMode::Read {
            debug_assert!(q.granted_reads > 0, "granted-read underflow on {o:?}");
            q.granted_reads -= 1;
        } else {
            debug_assert!(q.granted_writer, "granted-writer underflow on {o:?}");
            q.granted_writer = false;
        }
        if q.granted_reads == 0 && !q.granted_writer {
            self.grant_head_run(o, newly_enabled);
        }
    }

    /// Grant from the head of `o`'s waiting queue: a single writer, or
    /// (under replication) the maximal run of reads up to the next writer.
    /// Granted entries leave the queue eagerly — the queue never holds a
    /// granted entry, so no later operation rescans them.
    fn grant_head_run(&mut self, o: ObjectId, newly_enabled: &mut Vec<TaskId>) {
        loop {
            let replication = self.replication;
            let q = &mut self.queues[o.index()];
            let Some(&Waiter { task, decl, mode }) = q.waiting.front() else {
                break;
            };
            let legal = if mode == AccessMode::Read {
                !q.granted_writer && (replication || q.granted_reads == 0)
            } else {
                !q.granted_writer && q.granted_reads == 0
            };
            if !legal {
                break;
            }
            q.waiting.pop_front();
            if mode == AccessMode::Read {
                q.granted_reads += 1;
            } else {
                q.granted_writer = true;
            }
            self.decls[decl as usize].granted = true;
            let slot = self.slot(task);
            let ts = &mut self.tasks[slot];
            ts.ungranted -= 1;
            if ts.ungranted == 0 {
                newly_enabled.push(task);
            }
        }
    }

    /// Apply one queued [`Transition`] — dispatch to
    /// [`complete`](Self::complete) or [`release`](Self::release).
    pub fn apply(&mut self, tr: Transition, newly_enabled: &mut Vec<TaskId>) {
        match tr {
            Transition::Complete(id) => self.complete(id, newly_enabled),
            Transition::Release(id, object) => self.release(id, object, newly_enabled),
        }
    }

    /// [`apply`](Self::apply) plus event emission, matching
    /// [`complete_traced`](Self::complete_traced) /
    /// [`release_traced`](Self::release_traced) exactly.
    pub fn apply_traced<S: Sink>(
        &mut self,
        tr: Transition,
        newly_enabled: &mut Vec<TaskId>,
        events: &mut S,
        time_ps: u64,
        proc: ProcId,
    ) {
        match tr {
            Transition::Complete(id) => {
                self.complete_traced(id, newly_enabled, events, time_ps, proc)
            }
            Transition::Release(id, object) => {
                self.release_traced(id, object, newly_enabled, events, time_ps, proc)
            }
        }
    }

    /// Drain `batch`, applying every queued transition in push order under
    /// this one call — the executor holds its synchronizer lock once for
    /// the whole batch instead of once per completion. Newly enabled tasks
    /// are appended to `newly_enabled` in deterministic order: exactly the
    /// concatenation that the same sequence of individual
    /// [`complete`](Self::complete)/[`release`](Self::release) calls would
    /// produce.
    pub fn apply_batch(&mut self, batch: &mut TransitionBatch, newly_enabled: &mut Vec<TaskId>) {
        for tr in batch.items.drain(..) {
            self.apply(tr, newly_enabled);
        }
    }

    /// [`apply_batch`](Self::apply_batch) plus event emission: each
    /// transition asks `clock` for its own timestamp and emits the same
    /// `TaskCompleted`/`AccessReleased` + `TaskEnabled` sequence as the
    /// equivalent individual `*_traced` calls, so a batched event stream is
    /// bit-identical to an unbatched one applying the same transitions in
    /// the same order.
    pub fn apply_batch_traced<S: Sink>(
        &mut self,
        batch: &mut TransitionBatch,
        newly_enabled: &mut Vec<TaskId>,
        events: &mut S,
        clock: &mut impl FnMut() -> u64,
        proc: ProcId,
    ) {
        for tr in batch.items.drain(..) {
            let t = clock();
            self.apply_traced(tr, newly_enabled, events, t, proc);
        }
    }

    /// [`add_task`](Self::add_task) plus event emission: records
    /// `TaskCreated`, and `TaskEnabled` if the task is immediately
    /// runnable. The synchronizer has no clock of its own, so the caller
    /// supplies the instant (`time_ps`) and the processor doing the
    /// registration. Generic over the sink so untraced callers pay nothing.
    pub fn add_task_traced<S: Sink>(
        &mut self,
        id: TaskId,
        spec: &AccessSpec,
        events: &mut S,
        time_ps: u64,
        proc: ProcId,
    ) -> bool {
        let enabled = self.add_task(id, spec);
        events.emit_task(time_ps, proc, EventKind::TaskCreated, id);
        if enabled {
            events.emit_task(time_ps, proc, EventKind::TaskEnabled, id);
        }
        enabled
    }

    /// [`complete`](Self::complete) plus event emission: records
    /// `TaskCompleted` for `id` and `TaskEnabled` for every task its
    /// completion unblocks.
    pub fn complete_traced<S: Sink>(
        &mut self,
        id: TaskId,
        newly_enabled: &mut Vec<TaskId>,
        events: &mut S,
        time_ps: u64,
        proc: ProcId,
    ) {
        let before = newly_enabled.len();
        self.complete(id, newly_enabled);
        events.emit_task(time_ps, proc, EventKind::TaskCompleted, id);
        for &t in &newly_enabled[before..] {
            events.emit_task(time_ps, proc, EventKind::TaskEnabled, t);
        }
    }

    /// [`release`](Self::release) plus event emission: records
    /// `AccessReleased` and `TaskEnabled` for every unblocked successor.
    pub fn release_traced<S: Sink>(
        &mut self,
        id: TaskId,
        object: ObjectId,
        newly_enabled: &mut Vec<TaskId>,
        events: &mut S,
        time_ps: u64,
        proc: ProcId,
    ) {
        let before = newly_enabled.len();
        self.release(id, object, newly_enabled);
        events.emit_obj(time_ps, proc, EventKind::AccessReleased, Some(id), object);
        for &t in &newly_enabled[before..] {
            events.emit_task(time_ps, proc, EventKind::TaskEnabled, t);
        }
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
        self.queues.get(o.index()).map_or(0, |q| {
            q.granted_reads as usize + q.granted_writer as usize + q.waiting.len()
        })
    }

    /// Number of *materialized* (ungranted) entries in one object's queue.
    /// Granted accesses are aggregated into counters, so this is the only
    /// part any operation could ever walk — tests use it to pin down the
    /// O(outstanding) bound.
    pub fn waiting_len(&self, o: ObjectId) -> usize {
        self.queues.get(o.index()).map_or(0, |q| q.waiting.len())
    }

    /// Capture the synchronizer's full dynamic state — queue contents and
    /// per-task grant/completion flags — for the checkpoint/restart layer.
    ///
    /// The snapshot materializes the conceptual queues (granted prefix in
    /// task-id order, then waiting entries in program order) so the binary
    /// format is unchanged from the scan-based representation.
    pub fn snapshot(&self) -> SyncSnapshot {
        let mut queues: Vec<Vec<(TaskId, AccessMode, bool)>> = self
            .queues
            .iter()
            .map(|q| Vec::with_capacity(q.granted_reads as usize + q.waiting.len()))
            .collect();
        let mut tasks = Vec::with_capacity(self.tasks.len());
        for (i, t) in self.tasks.iter().enumerate() {
            let (start, len) = (t.decls_start as usize, t.decls_len as usize);
            let mut objects = Vec::new();
            for d in &self.decls[start..start + len] {
                if d.released {
                    continue;
                }
                objects.push(d.object);
                if d.granted {
                    queues[d.object.index()].push((TaskId(self.base + i as u32), d.mode, true));
                }
            }
            tasks.push(SnapTask {
                objects,
                ungranted: t.ungranted,
                completed: t.completed,
            });
        }
        for (q, snap_q) in self.queues.iter().zip(queues.iter_mut()) {
            for w in &q.waiting {
                snap_q.push((w.task, w.mode, false));
            }
        }
        SyncSnapshot {
            replication: self.replication,
            base: self.base,
            tasks,
            queues,
        }
    }

    /// Rebuild a synchronizer from a [`snapshot`](Self::snapshot). The
    /// result behaves identically to the original at capture time: the same
    /// completions enable the same successors in the same order.
    pub fn from_snapshot(snap: &SyncSnapshot) -> Synchronizer {
        let mut sync = Synchronizer::new(snap.replication);
        sync.base = snap.base;
        sync.queues
            .resize_with(snap.queues.len(), ObjQueue::default);
        for t in &snap.tasks {
            let start = sync.decls.len() as u32;
            for &o in &t.objects {
                // Mode and grant state are filled in from the queue
                // section below; every unreleased declaration has exactly
                // one queue entry.
                sync.decls.push(DeclSlot {
                    object: o,
                    mode: AccessMode::Read,
                    granted: false,
                    released: false,
                });
            }
            sync.tasks.push(TaskState {
                decls_start: start,
                decls_len: t.objects.len() as u32,
                ungranted: t.ungranted,
                completed: t.completed,
            });
            if !t.completed {
                sync.live_tasks += 1;
            }
        }
        for (oi, qsnap) in snap.queues.iter().enumerate() {
            let o = ObjectId(oi as u32);
            for &(task, mode, granted) in qsnap {
                let ts = sync.tasks[task.index() - snap.base as usize];
                let range = ts.decls_start as usize..(ts.decls_start + ts.decls_len) as usize;
                let k = range
                    .clone()
                    .find(|&k| sync.decls[k].object == o)
                    .expect("snapshot queue entry for undeclared object");
                sync.decls[k].mode = mode;
                sync.decls[k].granted = granted;
                let q = &mut sync.queues[oi];
                if granted {
                    if mode == AccessMode::Read {
                        q.granted_reads += 1;
                    } else {
                        q.granted_writer = true;
                    }
                } else {
                    q.waiting.push_back(Waiter {
                        task,
                        decl: k as u32,
                        mode,
                    });
                }
            }
        }
        sync
    }
}

#[derive(Clone, Debug, PartialEq)]
struct SnapTask {
    objects: Vec<ObjectId>,
    ungranted: u32,
    completed: bool,
}

/// A serializable snapshot of [`Synchronizer`] state: the payload of the
/// synchronizer section of a runtime checkpoint.
///
/// The binary format (all integers little-endian) is:
///
/// ```text
/// "JSNP" u16:version=2 u8:replication u32:base
/// u32:ntasks  ( u8:completed u32:ungranted u32:nobjs u32:obj... )*
/// u32:nqueues ( u32:len ( u32:task u8:mode u8:granted )* )*
/// ```
///
/// `base` is the id of the first task in the window (tasks below it were
/// retired by [`Synchronizer::recycle`] and report [`completed`]
/// (Self::completed)); version 2 added it — version-1 snapshots are
/// rejected rather than silently misread.
#[derive(Clone, Debug, PartialEq)]
pub struct SyncSnapshot {
    replication: bool,
    base: u32,
    tasks: Vec<SnapTask>,
    queues: Vec<Vec<(TaskId, AccessMode, bool)>>,
}

const SNAP_MAGIC: &[u8; 4] = b"JSNP";
const SNAP_VERSION: u16 = 2;

impl SyncSnapshot {
    /// Number of tasks registered at capture time.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of registered but not yet completed tasks at capture time.
    pub fn live_tasks(&self) -> usize {
        self.tasks.iter().filter(|t| !t.completed).count()
    }

    /// Had `id` completed (committed) by capture time? Tasks registered
    /// after the snapshot report `false`; tasks below the recycled window
    /// base are completed history and report `true`.
    pub fn completed(&self, id: TaskId) -> bool {
        if id.index() < self.base as usize {
            return true;
        }
        self.tasks
            .get(id.index() - self.base as usize)
            .is_some_and(|t| t.completed)
    }

    /// Exact size of [`to_bytes`](Self::to_bytes) output, used to charge
    /// checkpoint costs without materializing the encoding.
    pub fn encoded_len(&self) -> usize {
        let task_bytes: usize = self.tasks.iter().map(|t| 9 + 4 * t.objects.len()).sum();
        let queue_bytes: usize = self.queues.iter().map(|q| 4 + 6 * q.len()).sum();
        4 + 2 + 1 + 4 + 4 + task_bytes + 4 + queue_bytes
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
            out.extend_from_slice(&(t.objects.len() as u32).to_le_bytes());
            for o in &t.objects {
                out.extend_from_slice(&o.0.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.queues.len() as u32).to_le_bytes());
        for q in &self.queues {
            out.extend_from_slice(&(q.len() as u32).to_le_bytes());
            for &(task, mode, granted) in q {
                out.extend_from_slice(&task.0.to_le_bytes());
                out.push(match mode {
                    AccessMode::Read => 0,
                    AccessMode::Write => 1,
                    AccessMode::ReadWrite => 2,
                });
                out.push(granted as u8);
            }
        }
        debug_assert_eq!(out.len(), self.encoded_len());
        out
    }

    /// Decode a snapshot previously produced by [`to_bytes`](Self::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<SyncSnapshot, String> {
        let mut r = SnapReader { bytes, pos: 0 };
        if r.take(4)? != SNAP_MAGIC {
            return Err("sync snapshot: bad magic".to_string());
        }
        let version = u16::from_le_bytes(r.take(2)?.try_into().unwrap());
        if version != SNAP_VERSION {
            return Err(format!("sync snapshot: unsupported version {version}"));
        }
        let replication = r.flag()?;
        let base = r.u32()?;
        let ntasks = r.len32()?;
        let mut tasks = Vec::with_capacity(ntasks);
        for _ in 0..ntasks {
            let completed = r.flag()?;
            let ungranted = r.u32()?;
            let nobjs = r.len32()?;
            let mut objects = Vec::with_capacity(nobjs);
            for _ in 0..nobjs {
                objects.push(ObjectId(r.u32()?));
            }
            tasks.push(SnapTask {
                objects,
                ungranted,
                completed,
            });
        }
        let nqueues = r.len32()?;
        let mut queues = Vec::with_capacity(nqueues);
        for _ in 0..nqueues {
            let len = r.len32()?;
            let mut q = Vec::with_capacity(len);
            for _ in 0..len {
                let task = TaskId(r.u32()?);
                let mode = match r.byte()? {
                    0 => AccessMode::Read,
                    1 => AccessMode::Write,
                    2 => AccessMode::ReadWrite,
                    m => return Err(format!("sync snapshot: bad access mode {m}")),
                };
                let granted = r.flag()?;
                q.push((task, mode, granted));
            }
            queues.push(q);
        }
        if r.pos != bytes.len() {
            return Err("sync snapshot: trailing bytes".to_string());
        }
        Ok(SyncSnapshot {
            replication,
            base,
            tasks,
            queues,
        })
    }
}

struct SnapReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or_else(|| "sync snapshot: truncated".to_string())?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn byte(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn flag(&mut self) -> Result<bool, String> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("sync snapshot: bad flag byte {b}")),
        }
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn len32(&mut self) -> Result<usize, String> {
        let n = self.u32()? as usize;
        // A length prefix can never promise more entries than bytes left;
        // rejecting early keeps hostile input from causing huge allocations.
        if n > self.bytes.len() - self.pos {
            return Err("sync snapshot: truncated".to_string());
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut sync = Synchronizer::default();
        assert!(sync.add_task(TaskId(0), &spec(&[], &[0])));
        assert!(sync.add_task(TaskId(1), &spec(&[], &[1])));
    }

    #[test]
    fn writer_then_reader_serializes() {
        let mut sync = Synchronizer::default();
        assert!(sync.add_task(TaskId(0), &spec(&[], &[0])));
        assert!(!sync.add_task(TaskId(1), &spec(&[0], &[])));
        let mut enabled = Vec::new();
        sync.complete(TaskId(0), &mut enabled);
        assert_eq!(enabled, vec![TaskId(1)]);
        assert!(sync.is_enabled(TaskId(1)));
    }

    #[test]
    fn concurrent_readers_all_enabled() {
        let mut sync = Synchronizer::default();
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
        let mut sync = Synchronizer::default();
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
        let mut sync = Synchronizer::default();
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
        let mut sync = Synchronizer::default();
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
        let mut sync = Synchronizer::default();
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
        let mut sync = Synchronizer::default();
        assert!(sync.add_task(TaskId(0), &AccessSpec::new()));
        let mut enabled = Vec::new();
        sync.complete(TaskId(0), &mut enabled);
        assert!(sync.all_complete());
    }

    #[test]
    fn release_lets_successor_start_early() {
        // Pipelining: a writer releases object 0 mid-task; the waiting
        // reader enables while the writer is still running.
        let mut sync = Synchronizer::default();
        assert!(sync.add_task(TaskId(0), &spec(&[], &[0, 1])));
        assert!(!sync.add_task(TaskId(1), &spec(&[0], &[])));
        let mut enabled = Vec::new();
        sync.release(TaskId(0), o(0), &mut enabled);
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
        let mut sync = Synchronizer::default();
        assert!(sync.add_task(TaskId(0), &spec(&[0], &[1])));
        assert!(!sync.add_task(TaskId(1), &spec(&[], &[0])));
        let mut enabled = Vec::new();
        sync.release(TaskId(0), o(0), &mut enabled);
        assert_eq!(enabled, vec![TaskId(1)]);
    }

    #[test]
    #[should_panic(expected = "releasing undeclared")]
    fn double_release_panics() {
        let mut sync = Synchronizer::default();
        sync.add_task(TaskId(0), &spec(&[0], &[]));
        let mut e = Vec::new();
        sync.release(TaskId(0), o(0), &mut e);
        sync.release(TaskId(0), o(0), &mut e);
    }

    #[test]
    fn complete_after_partial_release_cleans_rest() {
        let mut sync = Synchronizer::default();
        sync.add_task(TaskId(0), &spec(&[0, 1, 2], &[]));
        sync.add_task(TaskId(1), &spec(&[], &[0]));
        sync.add_task(TaskId(2), &spec(&[], &[1]));
        let mut e = Vec::new();
        sync.release(TaskId(0), o(0), &mut e);
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
        let mut sync = Synchronizer::default();
        sync.add_task(TaskId(1), &AccessSpec::new());
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_complete_panics() {
        let mut sync = Synchronizer::default();
        sync.add_task(TaskId(0), &AccessSpec::new());
        let mut e = Vec::new();
        sync.complete(TaskId(0), &mut e);
        sync.complete(TaskId(0), &mut e);
    }

    #[test]
    fn snapshot_round_trips_through_bytes() {
        let mut sync = Synchronizer::default();
        sync.add_task(TaskId(0), &spec(&[], &[0]));
        sync.add_task(TaskId(1), &spec(&[0], &[1]));
        sync.add_task(TaskId(2), &spec(&[0, 1], &[]));
        let mut e = Vec::new();
        sync.complete(TaskId(0), &mut e);
        let snap = sync.snapshot();
        assert_eq!(snap.task_count(), 3);
        assert_eq!(snap.live_tasks(), 2);
        assert!(snap.completed(TaskId(0)));
        assert!(!snap.completed(TaskId(1)));
        assert!(!snap.completed(TaskId(99)), "unknown task is not committed");
        let bytes = snap.to_bytes();
        assert_eq!(bytes.len(), snap.encoded_len());
        let decoded = SyncSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, snap);
        // The restored synchronizer continues exactly like the original.
        let mut restored = Synchronizer::from_snapshot(&decoded);
        let (mut ea, mut eb) = (Vec::new(), Vec::new());
        sync.complete(TaskId(1), &mut ea);
        restored.complete(TaskId(1), &mut eb);
        assert_eq!(ea, eb);
        assert_eq!(ea, vec![TaskId(2)]);
    }

    #[test]
    fn snapshot_decode_rejects_corruption() {
        let mut sync = Synchronizer::default();
        sync.add_task(TaskId(0), &spec(&[0], &[1]));
        let bytes = sync.snapshot().to_bytes();
        assert!(SyncSnapshot::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(SyncSnapshot::from_bytes(b"XXXX").is_err());
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'Z';
        assert!(SyncSnapshot::from_bytes(&bad_magic).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(SyncSnapshot::from_bytes(&trailing).is_err());
        let mut bad_version = bytes;
        bad_version[4] = 0xFF;
        assert!(SyncSnapshot::from_bytes(&bad_version).is_err());
    }

    #[test]
    fn long_pipeline_executes_in_order() {
        // w(0) -> r(0)w(1) -> r(1)w(2) -> ... classic pipeline.
        let mut sync = Synchronizer::default();
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
        let mut sync = Synchronizer::default();
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
        let mut sync = Synchronizer::default();
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

    /// Build the same mixed DAG twice: writer chains, a read fan-out and a
    /// trailing writer across three objects.
    fn mixed_dag() -> Synchronizer {
        let mut sync = Synchronizer::default();
        sync.add_task(TaskId(0), &spec(&[], &[0, 1]));
        sync.add_task(TaskId(1), &spec(&[0], &[]));
        sync.add_task(TaskId(2), &spec(&[0], &[2]));
        sync.add_task(TaskId(3), &spec(&[1, 2], &[]));
        sync.add_task(TaskId(4), &spec(&[], &[0]));
        sync
    }

    #[test]
    fn batch_apply_matches_individual_transitions() {
        // Applying [release(0,0), complete(0), complete(1)] as one batch
        // must yield the same enables, in the same order, as the three
        // individual calls.
        let mut a = mixed_dag();
        let mut b = mixed_dag();
        let mut ea = Vec::new();
        a.release(TaskId(0), o(0), &mut ea);
        a.complete(TaskId(0), &mut ea);
        a.complete(TaskId(1), &mut ea);

        let mut batch = TransitionBatch::new();
        batch.release(TaskId(0), o(0));
        batch.complete(TaskId(0));
        batch.complete(TaskId(1));
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.completions(), 2);
        let mut eb = Vec::new();
        b.apply_batch(&mut batch, &mut eb);
        assert!(batch.is_empty(), "apply_batch drains the batch");
        assert_eq!(ea, eb, "batched enables diverge from individual calls");
        assert_eq!(a.live_tasks(), b.live_tasks());
        // Both synchronizers continue identically afterwards.
        let (mut ca, mut cb) = (Vec::new(), Vec::new());
        a.complete(TaskId(2), &mut ca);
        b.complete(TaskId(2), &mut cb);
        assert_eq!(ca, cb);
    }

    #[test]
    fn batch_enable_order_is_deterministic() {
        // A completion enabling several tasks keeps per-object program
        // order, and a later transition's enables follow the earlier ones.
        let mut sync = Synchronizer::default();
        sync.add_task(TaskId(0), &spec(&[], &[0]));
        sync.add_task(TaskId(1), &spec(&[], &[1]));
        sync.add_task(TaskId(2), &spec(&[0], &[]));
        sync.add_task(TaskId(3), &spec(&[0], &[]));
        sync.add_task(TaskId(4), &spec(&[1], &[]));
        let mut batch = TransitionBatch::new();
        batch.complete(TaskId(0));
        batch.complete(TaskId(1));
        let mut enabled = Vec::new();
        sync.apply_batch(&mut batch, &mut enabled);
        assert_eq!(enabled, vec![TaskId(2), TaskId(3), TaskId(4)]);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut sync = mixed_dag();
        let live = sync.live_tasks();
        let mut enabled = Vec::new();
        sync.apply_batch(&mut TransitionBatch::new(), &mut enabled);
        assert!(enabled.is_empty());
        assert_eq!(sync.live_tasks(), live);
    }

    #[test]
    fn batch_traced_stream_matches_individual_traced_calls() {
        use crate::events::EventSink;
        let mut a = mixed_dag();
        let mut b = mixed_dag();
        let (mut sa, mut sb) = (EventSink::recording(), EventSink::recording());
        let mut clock = 0u64..;
        let mut ea = Vec::new();
        a.complete_traced(TaskId(0), &mut ea, &mut sa, clock.next().unwrap(), 0);
        a.release_traced(TaskId(2), o(0), &mut ea, &mut sa, clock.next().unwrap(), 0);
        a.complete_traced(TaskId(1), &mut ea, &mut sa, clock.next().unwrap(), 0);

        let mut batch = TransitionBatch::new();
        batch.complete(TaskId(0));
        batch.release(TaskId(2), o(0));
        batch.complete(TaskId(1));
        let mut tick = 0u64..;
        let mut eb = Vec::new();
        b.apply_batch_traced(
            &mut batch,
            &mut eb,
            &mut sb,
            &mut || tick.next().unwrap(),
            0,
        );
        assert_eq!(ea, eb);
        assert_eq!(
            sa.take(),
            sb.take(),
            "batched event stream must be bit-identical"
        );
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn batch_with_duplicate_completion_panics() {
        let mut sync = Synchronizer::default();
        sync.add_task(TaskId(0), &AccessSpec::new());
        let mut batch = TransitionBatch::new();
        batch.complete(TaskId(0));
        batch.complete(TaskId(0));
        sync.apply_batch(&mut batch, &mut Vec::new());
    }

    #[test]
    fn null_sink_traced_paths_match_untraced() {
        use crate::events::NullSink;
        let mut a = Synchronizer::default();
        let mut b = Synchronizer::default();
        let mut sink = NullSink;
        assert_eq!(
            a.add_task(TaskId(0), &spec(&[], &[0])),
            b.add_task_traced(TaskId(0), &spec(&[], &[0]), &mut sink, 0, 0)
        );
        assert_eq!(
            a.add_task(TaskId(1), &spec(&[0], &[])),
            b.add_task_traced(TaskId(1), &spec(&[0], &[]), &mut sink, 1, 0)
        );
        let (mut ea, mut eb) = (Vec::new(), Vec::new());
        a.complete(TaskId(0), &mut ea);
        b.complete_traced(TaskId(0), &mut eb, &mut sink, 2, 0);
        assert_eq!(ea, eb);
    }

    #[test]
    fn recycle_reuses_slabs_across_windows() {
        let mut sync = Synchronizer::default();
        let mut next = 0u32;
        let run_window = |sync: &mut Synchronizer, next: &mut u32, n: u32| {
            // Pipeline over one object: deterministic completion order.
            let first = *next;
            for i in 0..n {
                sync.add_task(TaskId(first + i), &spec(&[], &[0]));
            }
            *next += n;
            let mut ready = vec![TaskId(first)];
            let mut order = Vec::new();
            while let Some(t) = ready.pop() {
                order.push(t);
                sync.complete(t, &mut ready);
            }
            assert_eq!(order, (first..first + n).map(TaskId).collect::<Vec<_>>());
        };
        run_window(&mut sync, &mut next, 8);
        assert!(sync.all_complete());
        sync.recycle();
        assert_eq!(sync.base_task(), 8);
        assert_eq!(sync.task_count(), 0);
        // Ids keep advancing; the second window reuses the cleared slabs.
        run_window(&mut sync, &mut next, 8);
        sync.recycle();
        assert_eq!(sync.base_task(), 16);
        run_window(&mut sync, &mut next, 4);
        assert!(sync.all_complete());
    }

    #[test]
    #[should_panic(expected = "recycle with")]
    fn recycle_with_live_tasks_panics() {
        let mut sync = Synchronizer::default();
        sync.add_task(TaskId(0), &spec(&[], &[0]));
        sync.recycle();
    }

    #[test]
    fn windowed_snapshot_round_trips_and_reports_history_complete() {
        let mut sync = Synchronizer::default();
        sync.add_task(TaskId(0), &spec(&[], &[0]));
        let mut e = Vec::new();
        sync.complete(TaskId(0), &mut e);
        sync.recycle();
        // Window now starts at id 1, with a dependence inside it.
        assert!(sync.add_task(TaskId(1), &spec(&[], &[0])));
        assert!(!sync.add_task(TaskId(2), &spec(&[0], &[])));
        let snap = sync.snapshot();
        assert_eq!(snap.task_count(), 2);
        assert!(snap.completed(TaskId(0)), "pre-window id is history");
        assert!(!snap.completed(TaskId(1)));
        let bytes = snap.to_bytes();
        assert_eq!(bytes.len(), snap.encoded_len());
        let decoded = SyncSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, snap);
        let mut restored = Synchronizer::from_snapshot(&decoded);
        assert_eq!(restored.base_task(), 1);
        let (mut ea, mut eb) = (Vec::new(), Vec::new());
        sync.complete(TaskId(1), &mut ea);
        restored.complete(TaskId(1), &mut eb);
        assert_eq!(ea, eb);
        assert_eq!(ea, vec![TaskId(2)]);
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
    ) -> (Vec<Vec<TaskId>>, Vec<crate::events::Event>) {
        let mut sink = crate::events::EventSink::recording();
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
                sync.release_traced(t, object, &mut newly, &mut sink, time, 0);
            } else {
                enabled.swap_remove(at);
                sync.complete_traced(t, &mut newly, &mut sink, time, 0);
            }
            enabled.extend(&newly);
            answers.push(newly);
        }
        (answers, sink.take())
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
                used.recycle();
            }
            used.reset();
            prop_assert_eq!(used.task_count(), 0);
            prop_assert_eq!(used.base_task(), 0);
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
    }
}
