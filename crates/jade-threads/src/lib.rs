//! # jade-threads — a real parallel Jade executor on OS threads
//!
//! The machine crates (`jade-dash`, `jade-ipsc`) *simulate* the paper's 1995
//! hardware. This crate is the present-day backend: it executes Jade
//! programs with genuine parallelism on the host machine, so the library is
//! usable as an access-declared task runtime (the model that StarPU, OmpSs
//! and Legion later popularized), not just as a reproduction artifact.
//!
//! Design:
//!
//! * the **same program text** runs here and on the simulators — apps are
//!   generic over [`jade_core::JadeRuntime`];
//! * the queue-based [`jade_core::Synchronizer`] decides when tasks may run;
//! * the one scheduler mirrors the paper's *distributed* shared-memory
//!   scheduler (§4.1): per-worker Chase-Lev deques with a dynamic
//!   **locality heuristic** (each enabled task goes to the worker that most
//!   recently wrote one of its objects, falling back to the object's
//!   declared home) and **randomized stealing** from the top of other
//!   workers' deques. Only synchronizer transitions take a global lock, and
//!   completions reach it through per-worker drain buffers, several per
//!   acquisition; dispatch is per-worker (DESIGN.md §13);
//! * every object access is runtime-checked against the declared access
//!   specification, and per-object `RwLock`s verify the synchronizer's
//!   exclusion guarantee mechanically: a data race would panic, not corrupt.
//!
//! Execution is batch-deferred: `submit` queues tasks, [`ThreadRuntime::finish`]
//! runs the batch to completion on a thread pool. Jade's serial semantics
//! make this sound — a Jade program can only observe task results through
//! shared objects, and our API exposes the store only between batches.
//!
//! ```
//! use jade_core::{JadeRuntime, TaskBuilder};
//! use jade_threads::ThreadRuntime;
//!
//! let mut rt = ThreadRuntime::new(4);
//! let xs = rt.create("xs", 32, vec![1.0f64, 2.0, 3.0, 4.0]);
//! let total = rt.create("total", 8, 0.0f64);
//! rt.submit(TaskBuilder::new("sum").rd(xs).wr(total).body(move |ctx| {
//!     *ctx.wr(total) = ctx.rd(xs).iter().sum();
//! }));
//! rt.finish();
//! assert_eq!(*rt.store().read(total), 10.0);
//! ```

// `deny` rather than `forbid`: the vendored Chase-Lev deque (`deque`
// module) opts back in with a scoped `allow` and a written safety argument
// (DESIGN.md §13). Everything else in the crate remains unsafe-free.
#![deny(unsafe_code)]

mod deque;
pub mod service;

use deque::TaskQueue;
pub use dsim::FaultPlan;
use jade_core::tune::{BatchShape, Controller, TuneLog};
use jade_core::{
    AccessSpec, Event, EventKind, EventSink, JadeRuntime, Locality, NullSink, ObjectId, ProcId,
    Sink, Store, SyncSnapshot, Synchronizer, TaskBody, TaskCtx, TaskDef, TaskId, TransitionBatch,
};
pub use service::{
    JadeService, Outcome, Program, ServiceConfig, ShedPolicy, SubmitError, TenantOptions,
    TenantReport,
};
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Retry budget for injected worker failures. Each attempt re-rolls the
/// keyed fault hash, so with `panic_p < 1` a task clears this budget with
/// overwhelming probability; exhausting it propagates the failure.
pub(crate) const MAX_TASK_ATTEMPTS: u32 = 16;

/// Quiet panic payload for an injected worker failure: unwinds through
/// `resume_unwind` so the default panic hook prints nothing — the crash is
/// simulated, not a bug worth a backtrace.
pub(crate) struct InjectedFailure;

/// Lock a mutex, ignoring poisoning (a panicking task already propagates
/// its panic through `finish`; the shared state stays structurally valid).
pub(crate) fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Largest checkpoint interval, in completed tasks, the seconds→tasks
/// mapping of [`ThreadRuntime::try_inject_faults`] accepts. Far above any
/// real batch; the cap exists so the conversion is checked end to end
/// rather than saturating through an `as` cast.
pub const MAX_CKPT_TASKS: usize = u32::MAX as usize;

/// Checked seconds→tasks checkpoint conversion: round to the nearest task
/// count, floor 1 (a sub-task interval means "as often as possible"), and
/// reject anything non-finite, negative, or above [`MAX_CKPT_TASKS`] with
/// an error naming the bad value.
fn checkpoint_tasks(secs: f64) -> Result<usize, String> {
    let tasks = secs.round();
    if !tasks.is_finite() || !(0.0..=MAX_CKPT_TASKS as f64).contains(&tasks) {
        return Err(format!(
            "fault plan: checkpoint interval {secs} does not map to a \
             task count in 1..={MAX_CKPT_TASKS}"
        ));
    }
    Ok((tasks as usize).max(1))
}

/// Drain-buffer size: how many locally finished tasks a worker accumulates
/// before flushing them to the synchronizer in one lock acquisition (it
/// also flushes whenever its own queue runs dry). Small enough that
/// successors are enabled promptly, large enough to amortize the lock on
/// overhead-dominated workloads. [`ThreadRuntime::enable_tuning`] replaces
/// it with a per-batch decision; a traced batch flushes per task whatever
/// the threshold (see `Sharded::drain`).
const DRAIN_BATCH: usize = 8;

/// Statistics from the most recent [`ThreadRuntime::finish`] batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Task execution attempts in the batch (re-executions after injected
    /// failures included, matching the event stream's started count).
    pub executed: usize,
    /// Tasks executed by the worker the locality heuristic targeted.
    pub locality_hits: usize,
    /// Tasks taken from another worker's queue.
    pub steals: usize,
    /// Tasks re-executed after an injected worker failure (fault
    /// injection; see [`ThreadRuntime::inject_faults`]).
    pub recoveries: usize,
    /// Synchronizer checkpoints captured during the batch
    /// (see [`ThreadRuntime::checkpoint_every`]).
    pub checkpoints: usize,
    /// Recoveries that consulted a captured checkpoint.
    pub checkpoint_restores: usize,
    /// Acquisitions of the lock guarding the synchronizer during the batch
    /// (flushes of the drain buffer, plus traced/recovery/checkpoint
    /// bookkeeping that must hold the same lock). `sync_locks / executed`
    /// is the lock-amortization figure: well below one per task untraced,
    /// at least one per task traced.
    pub sync_locks: usize,
    /// Tasks whose write ownership was pre-published to the locality table
    /// at dispatch time (see [`ThreadRuntime::enable_prefetch`]); `0`
    /// unless prefetch routing is enabled.
    pub prefetch_routes: usize,
}

impl BatchStats {
    fn absorb(&mut self, other: &BatchStats) {
        self.executed += other.executed;
        self.locality_hits += other.locality_hits;
        self.steals += other.steals;
        self.recoveries += other.recoveries;
        self.checkpoints += other.checkpoints;
        self.checkpoint_restores += other.checkpoint_restores;
        self.sync_locks += other.sync_locks;
        self.prefetch_routes += other.prefetch_routes;
    }
}

/// Small deterministic xorshift64 generator for steal-victim selection —
/// no global RNG, no syscalls, seeded per worker so runs are reproducible
/// modulo thread interleaving.
struct XorShift64(u64);

impl XorShift64 {
    fn new(seed: u64) -> XorShift64 {
        XorShift64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// The paper's object→owner table, sharded at the finest possible grain:
/// one atomic slot per object, so concurrent writers never contend on a
/// lock. Each slot packs `stamp << 16 | worker`; a global monotone stamp
/// orders writes, so a task's locality target is the worker that performed
/// the *most recent* write to any of its declared objects. The table
/// persists across batches — phase `i+1` tasks land where phase `i` wrote
/// their data.
#[derive(Debug, Default)]
pub(crate) struct OwnerTable {
    slots: Vec<AtomicU64>,
    stamp: AtomicU64,
}

impl OwnerTable {
    /// Grow to cover `n` objects (called between batches, never racing
    /// workers).
    pub(crate) fn ensure(&mut self, n: usize) {
        while self.slots.len() < n {
            self.slots.push(AtomicU64::new(0));
        }
    }

    /// Forget every recorded write, keeping the slots: the table of a
    /// retired service tenant must not route (or report locality for) the
    /// next tenant that reuses it.
    pub(crate) fn reset(&mut self) {
        for slot in &mut self.slots {
            *slot.get_mut() = 0;
        }
        *self.stamp.get_mut() = 0;
    }

    /// Record that worker `w` wrote `o`. Relaxed is enough: the table is a
    /// heuristic — a stale read changes *where* a task runs, never whether
    /// it runs correctly.
    pub(crate) fn record(&self, o: ObjectId, w: usize) {
        if let Some(slot) = self.slots.get(o.index()) {
            let stamp = self.stamp.fetch_add(1, Ordering::Relaxed) + 1;
            slot.store((stamp << 16) | (w as u64 & 0xFFFF), Ordering::Relaxed);
        }
    }

    /// The worker owning the most recently written of `spec`'s objects,
    /// if any of them has ever been written by a task.
    ///
    /// Irregular apps (PageRank, masked halo exchange) compute their access
    /// sets from data at spawn time, so a task's *written* objects say where
    /// its output wants to live while its (often much larger) data-dependent
    /// read set points at many producers. Prefer routing by the latest
    /// writer among this task's own written declarations — ownership
    /// transfer — and fall back to any declaration only when the task
    /// writes nothing previously written.
    pub(crate) fn latest_writer(&self, spec: &AccessSpec) -> Option<usize> {
        let mut best_written = 0u64;
        let mut best_any = 0u64;
        for d in spec.decls() {
            if let Some(slot) = self.slots.get(d.object.index()) {
                let v = slot.load(Ordering::Relaxed);
                best_any = best_any.max(v);
                if d.mode.writes() {
                    best_written = best_written.max(v);
                }
            }
        }
        let best = if best_written != 0 {
            best_written
        } else {
            best_any
        };
        (best != 0).then_some((best & 0xFFFF) as usize)
    }
}

/// A parallel Jade runtime executing on `workers` OS threads.
pub struct ThreadRuntime {
    store: Store,
    workers: usize,
    sync: Synchronizer,
    /// Id of the next submitted task. The tasks of the open batch sit in
    /// `arena.slots` in submission order, so slot `i` is task
    /// `next_id - slots.len() + i`.
    next_id: u32,
    last_stats: BatchStats,
    total_stats: BatchStats,
    /// Record structured events for subsequent batches.
    trace_events: bool,
    /// Events accumulated by finished batches (drained by `take_events`).
    events: Vec<Event>,
    /// Logical clock stamped on events; real wall times would make the
    /// stream nondeterministic, so events carry a sequence number instead.
    event_clock: u64,
    /// Injected-fault plan; `None` (the default) disables fault injection
    /// and recovery entirely.
    faults: Option<FaultPlan>,
    /// Checkpoint interval in completed tasks; `None` disables capture.
    ckpt_every: Option<usize>,
    /// Prefetch routing (split-phase locality): pre-publish each task's
    /// write ownership when it is *queued*, not when it completes.
    prefetch: bool,
    /// Self-tuning feedback controller (DESIGN.md §19); `None` (the
    /// default) keeps the static [`DRAIN_BATCH`] threshold and the
    /// exhaustive steal sweep.
    tune: Option<Controller>,
    /// Dynamic locality: which worker last wrote each object.
    owners: OwnerTable,
    /// Recycled scheduling storage (queues, task slots, drain buffers):
    /// batches after the first reuse it instead of reallocating, which is
    /// what makes the equilibrium task cycle allocation-free.
    arena: SchedArena,
}

impl ThreadRuntime {
    /// Create a runtime with `workers` worker threads (minimum 1).
    pub fn new(workers: usize) -> ThreadRuntime {
        ThreadRuntime {
            store: Store::new(),
            workers: workers.max(1),
            sync: Synchronizer::new(true),
            next_id: 0,
            last_stats: BatchStats::default(),
            total_stats: BatchStats::default(),
            trace_events: false,
            events: Vec::new(),
            event_clock: 0,
            faults: None,
            ckpt_every: None,
            prefetch: false,
            tune: None,
            owners: OwnerTable::default(),
            arena: SchedArena::default(),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Statistics from the most recently finished batch.
    pub fn last_stats(&self) -> BatchStats {
        self.last_stats
    }

    /// Statistics accumulated over every batch this runtime has finished.
    pub fn total_stats(&self) -> BatchStats {
        self.total_stats
    }

    /// Record structured lifecycle events ([`jade_core::events`]) for every
    /// subsequent batch. Events carry a logical sequence number as their
    /// time, so with one worker the stream is fully deterministic: two runs
    /// of one program record the same stream. It is not the program-order
    /// stream — the worker pops its own queue newest-first — but every
    /// dependence the synchronizer enforces is visible in it.
    pub fn enable_events(&mut self) {
        self.trace_events = true;
    }

    /// Drain the events recorded since the last call (or since
    /// [`enable_events`](Self::enable_events)).
    pub fn take_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }

    /// Enable deterministic fault injection for subsequent batches: each
    /// task attempt fails with probability `plan.panic_p` (a pure hash of
    /// the plan seed, task id and attempt number, independent of thread
    /// interleaving). An injected failure simulates the worker crashing
    /// *before* the task body runs: the unwind is caught, the task is
    /// quarantined off the failed worker and re-queued on the next one
    /// (`WorkerFailed` + `TaskReExecuted` events,
    /// [`BatchStats::recoveries`]). Because the body never started, the
    /// re-execution is exact — batch results are bit-identical to a
    /// fault-free run. Genuine application panics still propagate through
    /// [`ThreadRuntime::finish`]: a body that dies halfway may have
    /// partially mutated its objects, so retrying it would be unsound.
    ///
    /// # Panics
    ///
    /// If the plan is malformed (probability outside `[0, 1]`) or its
    /// checkpoint interval does not map to a task count — use
    /// [`try_inject_faults`](Self::try_inject_faults) to handle malformed
    /// plans as config errors instead.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        if let Err(why) = self.try_inject_faults(plan) {
            panic!("invalid fault plan: {why}");
        }
    }

    /// Fallible [`inject_faults`](Self::inject_faults): validates the plan
    /// and performs the seconds→tasks checkpoint mapping with a *checked*
    /// conversion. A non-finite or out-of-range interval is a config error
    /// naming the offending value, not a silently saturating `as` cast
    /// (the same contract `dsim::SimDuration::try_from_secs_f64` gives the
    /// simulators).
    pub fn try_inject_faults(&mut self, plan: FaultPlan) -> Result<(), String> {
        plan.validate()?;
        // The simulators interpret `ckpt=` as simulated seconds; this
        // backend has no simulated clock, so the numeric value maps to a
        // completed-task interval instead.
        if let Some(iv) = plan.checkpoint {
            self.checkpoint_every(checkpoint_tasks(iv.as_secs_f64())?);
        }
        self.faults = Some(plan);
        Ok(())
    }

    /// Enable the self-tuning feedback controller (DESIGN.md §19) for
    /// subsequent batches: the drain-batch threshold and the steal sweep
    /// budget are decided per batch from its deterministic shape (task
    /// count, worker count, initial parallelism width) instead of the
    /// static `DRAIN_BATCH` (8) threshold. Decisions are pure functions of
    /// the batch shape — no wall-clock, no interleaving-dependent counter
    /// — so controller-on runs stay bit-identical across repeats and
    /// produce the same results as controller-off runs. Every decision is
    /// recorded in [`tune_log`](Self::tune_log).
    pub fn enable_tuning(&mut self) {
        if self.tune.is_none() {
            self.tune = Some(Controller::new());
        }
    }

    /// The decision log of the feedback controller, if tuning is enabled
    /// ([`enable_tuning`](Self::enable_tuning)).
    pub fn tune_log(&self) -> Option<&TuneLog> {
        self.tune.as_ref().map(|c| &c.log)
    }

    /// Enable prefetch routing: when a task is pushed onto a worker's
    /// queue, its *write* ownership is published to the locality table
    /// immediately — the split-phase analogue of the simulators'
    /// enable-time prefetch. Successors that become enabled
    /// while the writer is still queued already route to its worker instead
    /// of falling back to declared homes; the completion-time record then
    /// confirms (or, after a steal, corrects) the hint. A pure routing
    /// heuristic: results and the synchronizer schedule are unaffected.
    /// Counted per routed task in [`BatchStats::prefetch_routes`].
    pub fn enable_prefetch(&mut self) {
        self.prefetch = true;
    }

    /// Capture a synchronizer checkpoint every `every` completed tasks in
    /// subsequent batches (`CheckpointTaken` events,
    /// [`BatchStats::checkpoints`]). An injected-failure recovery that runs
    /// while a checkpoint exists consults it — the crashed task must not be
    /// committed in the captured state — and counts as a
    /// `CheckpointRestored`.
    ///
    /// # Panics
    ///
    /// If `every` is zero.
    pub fn checkpoint_every(&mut self, every: usize) {
        assert!(every > 0, "checkpoint interval must be at least one task");
        self.ckpt_every = Some(every);
    }
}

impl Default for ThreadRuntime {
    fn default() -> Self {
        // One worker per available core, matching how a user would deploy it.
        let n = std::thread::available_parallelism().map_or(4, |n| n.get());
        ThreadRuntime::new(n)
    }
}

impl JadeRuntime for ThreadRuntime {
    fn store(&self) -> &Store {
        &self.store
    }

    fn store_mut(&mut self) -> &mut Store {
        &mut self.store
    }

    fn submit(&mut self, def: TaskDef) -> TaskId {
        let id = TaskId(self.next_id);
        self.next_id += 1;
        self.arena.push(def);
        id
    }

    fn finish(&mut self) {
        if self.arena.slots.is_empty() {
            return;
        }
        // The sink type is chosen statically: untraced batches
        // monomorphize every emission (and the locks guarding only
        // emissions) away entirely.
        if self.trace_events {
            self.run_sharded(EventSink::recording())
        } else {
            self.run_sharded(NullSink)
        }
    }
}

// ---------------------------------------------------------------------------
// The scheduler: per-worker queues, one lock around the synchronizer
// ---------------------------------------------------------------------------

/// Per-worker mutable scratch handed to each worker thread by `&mut` and
/// recycled across batches: the drain buffer of finished-but-unflushed
/// transitions plus the enable-burst vector `flush` fills. `RefCell`
/// because the mid-task release hook (an `Fn`) must reach both; neither
/// ever crosses threads.
#[derive(Default)]
pub(crate) struct WorkerScratch {
    buf: RefCell<TransitionBatch>,
    newly: RefCell<Vec<TaskId>>,
}

/// One submitted task, written once by `submit` and read in place until
/// its batch ends. `label`, `spec` and `placement` do not change while a
/// batch runs, so registration, the locality heuristic and the executing
/// worker's [`TaskCtx`] all borrow them without a lock; what changes is
/// behind its own synchronization.
pub(crate) struct TaskSlot {
    label: &'static str,
    spec: AccessSpec,
    placement: Option<ProcId>,
    /// Taken by the executing worker, put back by an injected failure. A
    /// task index lives in exactly one queue at a time, so the mutex is
    /// uncontended — it exists to hand the closure to another thread
    /// without `unsafe`, and it is the only lock on the dispatch path.
    body: Mutex<Option<TaskBody>>,
    /// Executions so far (keys the fault hash).
    attempt: AtomicU32,
    /// Worker the locality heuristic targeted at enable time.
    target: AtomicUsize,
}

/// Recycled scheduler storage owned by the [`ThreadRuntime`]. Reusing the
/// slabs across batches is what takes the equilibrium
/// dispatch→execute→complete→retire cycle to zero heap allocations
/// (asserted by `tests/allocs.rs`).
#[derive(Default)]
pub(crate) struct SchedArena {
    /// One ready queue per worker.
    queues: Vec<TaskQueue>,
    /// The open batch's tasks in submission order: filled by `submit`,
    /// emptied (capacity kept) when the batch ends, however it ends.
    slots: Vec<TaskSlot>,
    /// Per-worker drain buffers and enable scratch.
    scratch: Vec<WorkerScratch>,
    /// Batch-local indices of the initially-enabled tasks (setup scratch).
    enabled0: Vec<usize>,
    /// How many times a slab had to allocate or grow. A second same-shape
    /// batch must leave this untouched (tested below); the
    /// equilibrium-allocation gate depends on it.
    grows: usize,
}

impl SchedArena {
    /// Store a submitted task in the next slot.
    fn push(&mut self, def: TaskDef) {
        if self.slots.len() == self.slots.capacity() {
            self.grows += 1;
        }
        self.slots.push(TaskSlot {
            label: def.label,
            spec: def.spec,
            placement: def.placement,
            body: Mutex::new(Some(def.body)),
            attempt: AtomicU32::new(0),
            target: AtomicUsize::new(0),
        });
    }

    /// Make the queues and the scratch ready for a batch of `n` tasks on
    /// `workers` workers, reusing existing capacity wherever shapes allow
    /// (an aborted batch may leave queued indices or buffered transitions
    /// behind).
    fn prepare(&mut self, n: usize, workers: usize) {
        if self.queues.len() != workers {
            self.grows += 1;
            self.queues.clear();
            self.queues.extend((0..workers).map(|_| TaskQueue::new(n)));
        } else {
            for q in &mut self.queues {
                if q.reset(n) {
                    self.grows += 1;
                }
            }
        }
        if self.scratch.len() < workers {
            self.grows += 1;
            self.scratch.resize_with(workers, WorkerScratch::default);
        }
        self.enabled0.clear();
        for ws in &mut self.scratch {
            ws.buf.get_mut().clear();
            ws.newly.get_mut().clear();
        }
    }
}

/// Everything serialized by the one remaining global lock: the
/// synchronizer, the event sink and its logical clock, and checkpoint
/// state. Scheduling state (queues, task slots) lives outside.
struct SyncState<S> {
    sync: Synchronizer,
    events: S,
    clock: u64,
    since_ckpt: usize,
    last_ckpt: Option<SyncSnapshot>,
    checkpoints: usize,
}

impl<S> SyncState<S> {
    fn tick(&mut self) -> u64 {
        let t = self.clock;
        self.clock += 1;
        t
    }
}

/// Pusher identity passed through the dispatch helpers when the push
/// happens on the setup thread, before any worker exists: every queue may
/// be owner-pushed then (the `thread::scope` spawn is a happens-before
/// edge to all workers).
const SETUP: usize = usize::MAX;

struct Sharded<'a, S> {
    /// Per-worker ready queues, borrowed from the runtime's [`SchedArena`]
    /// (as are the task slots — batches reuse the storage).
    queues: &'a [TaskQueue],
    /// The batch's tasks; slot `local` is task `base + local`.
    slots: &'a [TaskSlot],
    state: Mutex<SyncState<S>>,
    /// Registered-but-not-completed tasks; 0 means the batch is drained.
    live: AtomicUsize,
    /// Bumped on every push; parked workers re-check it before sleeping,
    /// which closes the push/park race (see `park`).
    epoch: AtomicU64,
    /// Workers currently inside `park`; pushers skip the wakeup lock
    /// entirely while this is zero (the common case).
    sleepers: AtomicUsize,
    idle: Mutex<()>,
    cv: Condvar,
    panicked: AtomicBool,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    faults: Option<FaultPlan>,
    ckpt_every: Option<usize>,
    owners: &'a OwnerTable,
    store: &'a Store,
    base: usize,
    workers: usize,
    /// Drain-buffer flush threshold: [`DRAIN_BATCH`] or the tuner's
    /// decision, and 1 when tracing. A traced task takes the state lock for
    /// its dispatch/start events anyway, so there is nothing to amortize;
    /// and flushing each completion at once stamps it before the worker's
    /// next dispatch, so a worker's task intervals in the recorded stream
    /// never overlap and the stream does not depend on the threshold (a
    /// tuned and an untuned traced run record the same one-worker stream).
    drain: usize,
    /// Victims a failed own-pop probes before giving up the round. The
    /// pre-park sweep stays exhaustive, so a bounded budget affects only
    /// how fast an idle worker reaches the park decision, never liveness.
    steal_budget: usize,
    /// Acquisitions of `state` by workers ([`BatchStats::sync_locks`]).
    sync_locks: AtomicUsize,
    /// Prefetch routing ([`ThreadRuntime::enable_prefetch`]).
    prefetch: bool,
    /// Tasks whose write ownership was pre-published at dispatch.
    prefetch_routes: AtomicUsize,
}

impl<'a, S: Sink> Sharded<'a, S> {
    /// Locality heuristic at enable time: explicit placement, else the
    /// worker owning the task's most-recently-written object, else the
    /// locality object's declared home.
    fn target_of(&self, slot: &TaskSlot) -> usize {
        if let Some(p) = slot.placement {
            return p % self.workers;
        }
        if let Some(w) = self.owners.latest_writer(&slot.spec) {
            return w % self.workers;
        }
        let home = |o: ObjectId| self.store.home(o).unwrap_or(jade_core::MAIN_PROC);
        slot.spec
            .locality_object()
            .map(home)
            .unwrap_or(jade_core::MAIN_PROC)
            % self.workers
    }

    /// Lock the synchronizer state, counting the acquisition
    /// ([`BatchStats::sync_locks`] — the figure the drain buffers amortize).
    fn lock_state(&self) -> MutexGuard<'_, SyncState<S>> {
        self.sync_locks.fetch_add(1, Ordering::Relaxed);
        lock(&self.state)
    }

    /// Append `local` to `target`'s queue without announcing it. Callers
    /// must follow up with [`announce`](Self::announce) (directly or via
    /// [`push_to`](Self::push_to)) before they could possibly park.
    /// `pusher` identifies the calling worker ([`SETUP`] pre-spawn) so the
    /// Chase-Lev queue can tell owner pushes from remote injections.
    fn enqueue(&self, target: usize, local: usize, pusher: usize) {
        self.queues[target].push(local, pusher == target || pusher == SETUP);
    }

    /// Publish previously enqueued work: one epoch bump, one sleeper check.
    fn announce(&self) {
        // Single worker: the only worker is the one pushing (setup pushes
        // happen before it spawns), so there is never a sleeper to wake —
        // it re-scans its own queue before it could possibly park.
        if self.workers == 1 {
            return;
        }
        // SeqCst orders this bump against parkers' sleeper registration:
        // either the parker re-checks and sees the new epoch, or we see
        // `sleepers > 0` and notify under the idle lock. The bump happens
        // *after* every enqueue of the burst, so a parker that misses the
        // work in its scan cannot also miss the epoch change.
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            drop(lock(&self.idle));
            self.cv.notify_all();
        }
    }

    /// Append `local` to `target`'s queue and wake sleepers if any.
    fn push_to(&self, target: usize, local: usize, pusher: usize) {
        self.enqueue(target, local, pusher);
        self.announce();
    }

    /// Queue `local` on the worker the locality heuristic targets, without
    /// announcing (burst building block).
    fn enqueue_dispatch(&self, local: usize, pusher: usize) {
        // Single worker, no prefetch: every target is 0 (what `submit`
        // wrote into the slot), so skip the heuristic.
        if self.workers == 1 && !self.prefetch {
            self.queues[0].push(local, true);
            return;
        }
        let slot = &self.slots[local];
        let target = self.target_of(slot);
        // Prefetch routing: publish write ownership at queue time, so
        // successors enabled while this task is still waiting in the
        // deque already route toward its worker. Completion republishes
        // with the worker that actually ran it (a steal corrects the
        // hint), and the table stays a pure heuristic either way.
        if self.prefetch {
            let mut routed = false;
            for o in slot.spec.written_objects() {
                self.owners.record(o, target);
                routed = true;
            }
            if routed {
                self.prefetch_routes.fetch_add(1, Ordering::Relaxed);
            }
        }
        slot.target.store(target, Ordering::Relaxed);
        self.enqueue(target, local, pusher);
    }

    /// Route a newly enabled task through the locality heuristic and queue
    /// it there.
    fn dispatch(&self, local: usize, pusher: usize) {
        self.enqueue_dispatch(local, pusher);
        self.announce();
    }

    /// Route a whole flush's newly enabled tasks through the locality
    /// heuristic in one burst: N enqueues, then a single epoch bump and
    /// sleeper wakeup instead of N.
    fn dispatch_burst(&self, newly: &[TaskId], pusher: usize) {
        if newly.is_empty() {
            return;
        }
        for n in newly {
            self.enqueue_dispatch(n.index() - self.base, pusher);
        }
        self.announce();
    }

    /// Pop own queue (newest first), else steal from a random victim
    /// (oldest first). The pop order is a scheduling freedom — only enabled
    /// tasks are ever queued.
    ///
    /// The own queue running dry is also the flush point for buffered
    /// completions: they may enable successors routed right back here, and
    /// a stolen task is someone else's backlog that may run long — carried
    /// into it, the buffer would withhold those successors from every
    /// other (possibly parked) worker, a deadlock if the stolen task waits
    /// on one of them. So a steal is only ever attempted, and `None` only
    /// ever returned, with an empty buffer.
    fn try_pick(
        &self,
        w: usize,
        rng: &mut XorShift64,
        budget: usize,
        ws: &WorkerScratch,
    ) -> Option<(usize, bool)> {
        let own = &self.queues[w];
        let pop_own = || (!own.is_empty_hint()).then(|| own.pop()).flatten();
        if let Some(local) = pop_own() {
            return Some((local, false));
        }
        if !ws.buf.borrow().is_empty() {
            self.flush(w, &ws.buf, &mut ws.newly.borrow_mut());
            if let Some(local) = pop_own() {
                return Some((local, false));
            }
        }
        // Randomized steal: random first victim among the *other* workers,
        // then the rest of the ring up to `budget` victims — no queue is
        // ever structurally unreachable (see `steal_order`; the pre-park
        // sweep in `sharded_worker` always runs unbudgeted).
        if self.workers > 1 {
            for v in steal_order(w, self.workers, rng.next()).take(budget) {
                let q = &self.queues[v];
                if q.is_empty_hint() {
                    continue;
                }
                if let Some(local) = q.steal() {
                    return Some((local, true));
                }
            }
        }
        None
    }

    /// Sleep until new work might exist. `epoch` was read *before* the
    /// caller's failed scan: if any push happened since, the re-check under
    /// the idle lock sees the bump and returns immediately; otherwise the
    /// pusher is guaranteed to observe `sleepers > 0` and notify.
    fn park(&self, epoch: u64) {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let g = lock(&self.idle);
        if self.epoch.load(Ordering::SeqCst) == epoch
            && self.live.load(Ordering::SeqCst) != 0
            && !self.panicked.load(Ordering::SeqCst)
        {
            drop(self.cv.wait(g).unwrap_or_else(|e| e.into_inner()));
        } else {
            drop(g);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    fn wake_all(&self) {
        drop(lock(&self.idle));
        self.cv.notify_all();
    }

    fn record_panic(&self, p: Box<dyn std::any::Any + Send>) {
        let mut slot = lock(&self.panic);
        if slot.is_none() {
            *slot = Some(p);
        }
        drop(slot);
        self.panicked.store(true, Ordering::SeqCst);
        self.wake_all();
    }

    /// Apply every buffered transition under ONE `state` acquisition,
    /// then route the newly enabled tasks in one push burst. Returns
    /// whether the flush drained the batch (`live` hit zero).
    ///
    /// Per-completion bookkeeping (the `live` decrement and the checkpoint
    /// cadence) runs inside the loop so `checkpoints` counts exactly as if
    /// each completion had been flushed individually — the counter stays a
    /// pure function of the interval and the task count, independent of
    /// batching and interleaving.
    fn flush(&self, w: usize, buf: &RefCell<TransitionBatch>, scratch: &mut Vec<TaskId>) -> bool {
        let mut batch = buf.borrow_mut();
        if batch.is_empty() {
            return false;
        }
        scratch.clear();
        let completions = batch.completions();
        let drained = {
            let mut guard = self.lock_state();
            let st = &mut *guard;
            if !S::ACTIVE && self.ckpt_every.is_none() {
                // Fast path: no events, no checkpoint cadence — the whole
                // batch applies in one call and `live` drops once.
                st.sync
                    .apply_batch(&mut batch, scratch, &mut NullSink, &mut || 0, w);
                self.live.fetch_sub(completions, Ordering::SeqCst) == completions
            } else {
                let mut drained = false;
                for tr in batch.drain() {
                    let is_completion = matches!(tr, jade_core::Transition::Complete(_));
                    let t = st.tick();
                    st.sync.apply(tr, scratch, &mut st.events, t, w);
                    if is_completion {
                        let remaining = self.live.fetch_sub(1, Ordering::SeqCst) - 1;
                        drained |= remaining == 0;
                        st.since_ckpt += 1;
                        if let Some(every) = self.ckpt_every {
                            if st.since_ckpt >= every && remaining > 0 {
                                st.since_ckpt = 0;
                                let snap = st.sync.snapshot();
                                let bytes = snap.encoded_len() as u64;
                                let t = st.tick();
                                st.events.emit(t, w, EventKind::CheckpointTaken { bytes });
                                st.checkpoints += 1;
                                st.last_ckpt = Some(snap);
                            }
                        }
                    }
                }
                drained
            }
        };
        drop(batch);
        self.dispatch_burst(scratch, w);
        if drained {
            self.wake_all();
        }
        drained
    }

    /// Run one picked task. Returns `false` if the worker must exit (a
    /// genuine panic was recorded).
    fn execute(
        &self,
        w: usize,
        local: usize,
        stolen: bool,
        stats: &mut BatchStats,
        ws: &WorkerScratch,
    ) -> bool {
        let slot = &self.slots[local];
        let body = lock(&slot.body).take().expect("task queued twice");
        // `base + local` is below the runtime's `next_id`, a `u32`.
        let id = TaskId((self.base + local) as u32);
        let attempt = slot.attempt.load(Ordering::Relaxed);
        let injected = self
            .faults
            .as_ref()
            .is_some_and(|plan| plan.task_fails(id.0 as u64, attempt));
        stats.executed += 1;
        // A worker's own queue normally only holds tasks targeted at it —
        // but a recovered task is re-queued on the *next* worker, so the
        // locality of a non-stolen pick still has to be checked.
        let hit = !stolen && slot.target.load(Ordering::Relaxed) == w;
        if stolen {
            stats.steals += 1;
        } else if hit {
            stats.locality_hits += 1;
        }
        if S::ACTIVE {
            let mut st = self.lock_state();
            let t = st.tick();
            let locality = if hit { Locality::Hit } else { Locality::Miss };
            st.events
                .emit_task(t, w, EventKind::TaskDispatched { stolen, locality }, id);
            st.events.emit_task(t, w, EventKind::TaskStarted, id);
        }

        // The task body stays outside the closure (`TaskBody` is `Fn`), so
        // a caught unwind leaves it intact for re-execution.
        let result = catch_unwind(AssertUnwindSafe(|| {
            if injected {
                // Simulated worker crash before the body runs: unwind
                // quietly (no panic hook) — this is an injected fault, not
                // a bug worth a backtrace. Crashing *before* any body
                // effect is what makes the re-execution exact.
                resume_unwind(Box::new(InjectedFailure));
            }
            // Mid-task releases (Jade's pipelining statements) flush
            // eagerly — a buffered release could deadlock a pipeline whose
            // consumer is the only other runnable task. The flush also
            // applies any completions already sitting in the buffer, so the
            // release still costs a single `state` acquisition.
            let hook = |obj: ObjectId| {
                ws.buf.borrow_mut().release(id, obj);
                self.flush(w, &ws.buf, &mut ws.newly.borrow_mut());
            };
            let ctx = TaskCtx::with_release_hook(self.store, id, slot.label, &slot.spec, &hook);
            body(&ctx);
        }));

        match result {
            Ok(()) => {
                // Publish write ownership *before* successors are enabled,
                // so the heuristic routes them to this worker. With a
                // single worker the table cannot change any routing
                // decision (every target is 0), so skip the stamping.
                if self.workers > 1 || self.prefetch {
                    for o in slot.spec.written_objects() {
                        self.owners.record(o, w);
                    }
                }
                // The completion lands in the worker's drain buffer; the
                // synchronizer lock is only taken when the buffer reaches
                // the flush threshold (or the worker runs dry — see
                // `sharded_worker`). With tracing active `drain` is 1, so
                // the flush below runs unconditionally.
                ws.buf.borrow_mut().complete(id);
                if ws.buf.borrow().len() >= self.drain {
                    self.flush(w, &ws.buf, &mut ws.newly.borrow_mut());
                }
                true
            }
            Err(_) if injected && attempt + 1 < MAX_TASK_ATTEMPTS => {
                // Recovery: quarantine the task off this (logically
                // crashed) worker and hand it to the next one; the bumped
                // attempt number re-rolls the fault hash. The execution and
                // start tallies above deliberately count the failed attempt
                // — they match the event stream's `tasks_started`.
                slot.attempt.store(attempt + 1, Ordering::Relaxed);
                stats.recoveries += 1;
                // The state lock is only needed for events and the
                // checkpoint lookup; untraced, checkpoint-free batches
                // recover without touching it.
                let restored = if S::ACTIVE || self.ckpt_every.is_some() {
                    let mut st = self.lock_state();
                    let t = st.tick();
                    st.events.emit(t, w, EventKind::WorkerFailed);
                    // With a checkpoint on file, recovery restores the
                    // crashed task's scheduling state from it: the capture
                    // must agree that the task had not committed (a
                    // committed task is never re-executed).
                    let restored = if let Some(snap) = &st.last_ckpt {
                        debug_assert!(
                            !snap.completed(id),
                            "checkpoint marks crashed task {id:?} committed"
                        );
                        let bytes = snap.encoded_len() as u64;
                        let t = st.tick();
                        st.events
                            .emit(t, w, EventKind::CheckpointRestored { bytes });
                        true
                    } else {
                        false
                    };
                    let t = st.tick();
                    st.events.emit_task(t, w, EventKind::TaskReExecuted, id);
                    restored
                } else {
                    false
                };
                if restored {
                    stats.checkpoint_restores += 1;
                }
                *lock(&slot.body) = Some(body);
                // Original target kept: the re-pick on the next worker
                // counts as neither hit nor steal.
                self.push_to((w + 1) % self.workers, local, w);
                true
            }
            Err(p) => {
                // Genuine application panic (or an exhausted retry budget):
                // first panic wins; wake everyone so the pool drains.
                self.record_panic(p);
                false
            }
        }
    }
}

/// Victim visit order for worker `w`'s steal sweep, given `workers > 1`
/// and a random draw `r`: the first victim is drawn uniformly from the
/// *other* workers (`w + 1 + r % (workers - 1)` can never be `w` modulo
/// `workers`), then the sweep walks the whole ring skipping `w` — each
/// other worker is visited exactly once.
fn steal_order(w: usize, workers: usize, r: u64) -> impl Iterator<Item = usize> {
    let start = (w + 1 + r as usize % (workers - 1)) % workers;
    (0..workers)
        .map(move |k| (start + k) % workers)
        .filter(move |&v| v != w)
}

fn sharded_worker<S: Sink>(w: usize, sh: &Sharded<'_, S>, ws: &mut WorkerScratch) -> BatchStats {
    let mut rng = XorShift64::new(w as u64 + 1);
    let mut stats = BatchStats::default();
    // `ws` holds the worker-local drain buffer of finished-but-unflushed
    // transitions plus the enable scratch, both recycled across batches. A
    // panic exit abandons the buffer — the recorded panic resumes before
    // `run_sharded`'s drained assertion, and the arena clears the buffer
    // before the next batch.
    let ws = &*ws;
    loop {
        if sh.live.load(Ordering::SeqCst) == 0 || sh.panicked.load(Ordering::SeqCst) {
            sh.wake_all();
            return stats;
        }
        // Epoch read precedes the scan: any push racing the scan either
        // lands in it or changes the epoch and defeats the park below.
        let epoch = sh.epoch.load(Ordering::SeqCst);
        match sh.try_pick(w, &mut rng, sh.steal_budget, ws) {
            Some((local, stolen)) => {
                if !sh.execute(w, local, stolen, &mut stats, ws) {
                    return stats;
                }
            }
            None => {
                // Out of work, and `try_pick` flushed on the way here: every
                // completion this worker buffered has landed (`live` only
                // reaches zero once they all have). Park only after an
                // *exhaustive* steal sweep — a tuned budget shorter than
                // the ring must never park past work sitting in an
                // unprobed queue.
                if sh.steal_budget + 1 < sh.workers {
                    match sh.try_pick(w, &mut rng, usize::MAX, ws) {
                        Some((local, stolen)) => {
                            if !sh.execute(w, local, stolen, &mut stats, ws) {
                                return stats;
                            }
                        }
                        None => sh.park(epoch),
                    }
                } else {
                    sh.park(epoch);
                }
            }
        }
    }
}

impl ThreadRuntime {
    fn run_sharded<S: Sink + Send>(&mut self, events: S) {
        let n = self.arena.slots.len();
        let base = self.next_id as usize - n;
        // Retire the previous batch's fully-completed synchronizer window:
        // task/decl slabs are cleared with capacity kept, so steady-state
        // same-shape batches register tasks without growing them.
        if self.sync.all_complete() && self.sync.task_count() > 0 {
            self.sync.recycle();
        }
        // Slots carry no id: `submit` hands them out consecutively, so the
        // slab starts where the synchronizer's window ends.
        debug_assert_eq!(
            base,
            self.sync.base_task() as usize + self.sync.task_count(),
            "task slots out of step with the synchronizer"
        );
        self.owners.ensure(self.store.len());
        let workers = self.workers;
        self.arena.prepare(n, workers);
        let mut state = SyncState {
            sync: std::mem::take(&mut self.sync),
            events,
            clock: self.event_clock,
            since_ckpt: 0,
            last_ckpt: None,
            checkpoints: 0,
        };
        // Split the arena into its disjoint slabs: the workers share the
        // queues and the task slots; each worker additionally gets
        // exclusive use of its own `scratch` slot.
        let SchedArena {
            queues,
            slots,
            scratch,
            enabled0,
            ..
        } = &mut self.arena;
        // Register in serial program order; queue the initially-enabled.
        for (i, slot) in slots.iter().enumerate() {
            let t = state.tick();
            let id = TaskId((base + i) as u32);
            if (state.sync).add_task_traced(id, &slot.spec, &mut state.events, t, 0) {
                enabled0.push(i);
            }
        }
        // Controller-on batches decide the drain threshold and steal
        // budget from the batch shape — fixed here, before any worker
        // runs, so the decisions (and their log) are deterministic.
        let (drain, steal_budget) = match self.tune.as_mut() {
            Some(ctl) => {
                let shape = BatchShape {
                    tasks: n,
                    workers,
                    enabled0: enabled0.len(),
                };
                (ctl.drain_threshold(&shape), ctl.steal_budget(&shape))
            }
            None => (DRAIN_BATCH, workers.saturating_sub(1).max(1)),
        };
        // Tracing clamps the *applied* drain to 1 (see `Sharded::drain`);
        // the tuner's decision stays logged.
        let drain = if S::ACTIVE { 1 } else { drain };
        let sh = Sharded {
            queues: &queues[..workers],
            slots,
            state: Mutex::new(state),
            live: AtomicUsize::new(n),
            epoch: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            idle: Mutex::new(()),
            cv: Condvar::new(),
            panicked: AtomicBool::new(false),
            panic: Mutex::new(None),
            faults: self.faults,
            ckpt_every: self.ckpt_every,
            owners: &self.owners,
            store: &self.store,
            base,
            workers,
            drain,
            steal_budget,
            sync_locks: AtomicUsize::new(0),
            prefetch: self.prefetch,
            prefetch_routes: AtomicUsize::new(0),
        };
        for &local in enabled0.iter() {
            sh.dispatch(local, SETUP);
        }
        let mut merged = BatchStats::default();
        std::thread::scope(|scope| {
            let handles: Vec<_> = scratch[..workers]
                .iter_mut()
                .enumerate()
                .map(|(w, ws)| {
                    let sh = &sh;
                    scope.spawn(move || sharded_worker(w, sh, ws))
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(s) => merged.absorb(&s),
                    // A panic outside the body's catch_unwind (a runtime
                    // bug, not an application fault) still surfaces.
                    Err(p) => sh.record_panic(p),
                }
            }
        });
        let Sharded {
            state,
            live,
            panic,
            sync_locks,
            prefetch_routes,
            ..
        } = sh;
        // Every executed body went with its worker; what an aborted batch
        // never ran goes here.
        slots.clear();
        let st = state.into_inner().unwrap_or_else(|e| e.into_inner());
        self.sync = st.sync;
        self.event_clock = st.clock;
        self.events.extend(st.events.into_events());
        merged.checkpoints = st.checkpoints;
        merged.sync_locks = sync_locks.into_inner();
        merged.prefetch_routes = prefetch_routes.into_inner();
        self.last_stats = merged;
        self.total_stats.absorb(&merged);
        if let Some(p) = panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
            // A genuine panic aborts the batch. Discard the half-applied
            // synchronizer state and restart task numbering so the same
            // runtime can run a subsequent clean batch (`add_task` requires
            // contiguous ids per synchronizer). Stats for the aborted batch
            // were stored above; its partial events remain in the stream.
            self.sync = Synchronizer::new(true);
            self.next_id = 0;
            resume_unwind(p);
        }
        assert_eq!(
            live.load(Ordering::SeqCst),
            0,
            "worker pool exited with live tasks"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jade_core::TaskBuilder;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn owner_table_prefers_written_decls() {
        use jade_core::{AccessSpec, ObjectId};
        let mut table = OwnerTable::default();
        table.ensure(4);
        // Worker 3 wrote object 0 first; worker 5 wrote object 1 later.
        table.record(ObjectId(0), 3);
        table.record(ObjectId(1), 5);
        // A task writing object 0 and reading object 1 routes to object 0's
        // writer even though the read's stamp is newer (ownership transfer
        // for data-dependent irregular read sets).
        let mut spec = AccessSpec::new();
        spec.wr(ObjectId(0)).rd(ObjectId(1));
        assert_eq!(table.latest_writer(&spec), Some(3));
        // A task writing only never-written object 2 falls back to the
        // newest stamp among all its declarations.
        let mut spec = AccessSpec::new();
        spec.wr(ObjectId(2)).rd(ObjectId(1));
        assert_eq!(table.latest_writer(&spec), Some(5));
        // No declaration ever written: no routing hint at all.
        let mut spec = AccessSpec::new();
        spec.rd(ObjectId(2)).wr(ObjectId(3));
        assert_eq!(table.latest_writer(&spec), None);
    }

    #[test]
    fn runs_simple_pipeline() {
        let mut rt = ThreadRuntime::new(4);
        let a = rt.create("a", 8, 1u64);
        let b = rt.create("b", 8, 0u64);
        let c = rt.create("c", 8, 0u64);
        rt.submit(TaskBuilder::new("double").rd(a).wr(b).body(move |ctx| {
            *ctx.wr(b) = *ctx.rd(a) * 2;
        }));
        rt.submit(TaskBuilder::new("inc").rd(b).wr(c).body(move |ctx| {
            *ctx.wr(c) = *ctx.rd(b) + 1;
        }));
        rt.finish();
        assert_eq!(*rt.store().read(c), 3);
        assert_eq!(rt.last_stats().executed, 2);
    }

    #[test]
    fn parallel_tasks_all_run() {
        let mut rt = ThreadRuntime::new(8);
        let outs: Vec<_> = (0..100)
            .map(|i| rt.create(&format!("o{i}"), 8, 0usize))
            .collect();
        for (i, &o) in outs.iter().enumerate() {
            rt.submit(TaskBuilder::new("w").wr(o).body(move |ctx| {
                *ctx.wr(o) = i * i;
            }));
        }
        rt.finish();
        for (i, &o) in outs.iter().enumerate() {
            assert_eq!(*rt.store().read(o), i * i);
        }
        assert_eq!(rt.last_stats().executed, 100);
    }

    #[test]
    fn write_write_chain_is_ordered() {
        // The synchronizer must serialize writers in program order even
        // under real concurrency.
        let mut rt = ThreadRuntime::new(8);
        let v = rt.create("v", 0, Vec::<u32>::new());
        for i in 0..50u32 {
            rt.submit(TaskBuilder::new("push").wr(v).body(move |ctx| {
                ctx.wr(v).push(i);
            }));
        }
        rt.finish();
        assert_eq!(*rt.store().read(v), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_readers_run_in_parallel() {
        // All readers block until the barrier is full: requires them to be
        // truly concurrent (deadlocks if the runtime serializes reads).
        let workers = 4;
        let mut rt = ThreadRuntime::new(workers);
        let shared = rt.create("shared", 8, 7u64);
        let outs: Vec<_> = (0..workers)
            .map(|i| rt.create(&format!("o{i}"), 8, 0u64))
            .collect();
        let barrier = Arc::new(std::sync::Barrier::new(workers));
        for &o in &outs {
            let barrier = Arc::clone(&barrier);
            rt.submit(TaskBuilder::new("read").rd(shared).wr(o).body(move |ctx| {
                let x = *ctx.rd(shared);
                barrier.wait();
                *ctx.wr(o) = x;
            }));
        }
        rt.finish();
        for &o in &outs {
            assert_eq!(*rt.store().read(o), 7);
        }
    }

    #[test]
    fn reduction_after_parallel_phase() {
        let mut rt = ThreadRuntime::new(4);
        let parts: Vec<_> = (0..16)
            .map(|i| rt.create(&format!("p{i}"), 8, 0u64))
            .collect();
        let total = rt.create("total", 8, 0u64);
        for (i, &p) in parts.iter().enumerate() {
            rt.submit(TaskBuilder::new("part").wr(p).body(move |ctx| {
                *ctx.wr(p) = i as u64 + 1;
            }));
        }
        let parts2 = parts.clone();
        let mut red = TaskBuilder::new("reduce").wr(total);
        for &p in &parts {
            red = red.rd(p);
        }
        rt.submit(red.serial_phase().body(move |ctx| {
            *ctx.wr(total) = parts2.iter().map(|&p| *ctx.rd(p)).sum();
        }));
        rt.finish();
        assert_eq!(*rt.store().read(total), (1..=16).sum::<u64>());
    }

    #[test]
    fn multiple_batches_reuse_runtime() {
        let mut rt = ThreadRuntime::new(2);
        let x = rt.create("x", 8, 0u64);
        rt.submit(TaskBuilder::new("a").wr(x).body(move |ctx| *ctx.wr(x) += 1));
        rt.finish();
        rt.submit(
            TaskBuilder::new("b")
                .wr(x)
                .body(move |ctx| *ctx.wr(x) += 10),
        );
        rt.finish();
        assert_eq!(*rt.store().read(x), 11);
    }

    #[test]
    fn locality_heuristic_places_tasks() {
        let workers = 4;
        let mut rt = ThreadRuntime::new(workers);
        let objs: Vec<_> = (0..workers)
            .map(|i| {
                let h = rt.create(&format!("o{i}"), 8, 0u64);
                rt.set_home(h, i);
                h
            })
            .collect();
        // Long-ish tasks, one per worker: each should run on its target.
        for &o in &objs {
            rt.submit(TaskBuilder::new("w").wr(o).body(move |ctx| {
                let mut acc = 0u64;
                for i in 0..200_000u64 {
                    acc = acc.wrapping_add(i);
                }
                *ctx.wr(o) = acc;
            }));
        }
        rt.finish();
        let s = rt.last_stats();
        assert_eq!(s.executed, workers);
        // Stealing is possible if a worker is slow to start, but every task
        // is either a locality hit or a steal.
        assert_eq!(s.locality_hits + s.steals, workers);
    }

    #[test]
    fn owner_table_tracks_latest_writer() {
        let mut t = OwnerTable::default();
        t.ensure(3);
        let mut spec = jade_core::AccessSpec::new();
        spec.rd(ObjectId(0)).rd(ObjectId(2));
        assert_eq!(t.latest_writer(&spec), None, "nothing written yet");
        t.record(ObjectId(0), 3);
        t.record(ObjectId(2), 1);
        assert_eq!(
            t.latest_writer(&spec),
            Some(1),
            "object 2 written most recently"
        );
        t.record(ObjectId(0), 2);
        assert_eq!(t.latest_writer(&spec), Some(2), "object 0 overtook it");
        // Objects beyond the table (created after `ensure`) are ignored.
        let mut far = jade_core::AccessSpec::new();
        far.rd(ObjectId(99));
        assert_eq!(t.latest_writer(&far), None);
    }

    #[test]
    fn prefetch_routing_prepublishes_ownership() {
        // With prefetch routing on, every writing task's ownership hint is
        // published at queue time; results and the scheduling invariants
        // are unchanged — it is a pure routing heuristic.
        let mut rt = ThreadRuntime::new(4);
        rt.enable_prefetch();
        let objs: Vec<_> = (0..8)
            .map(|i| rt.create(&format!("o{i}"), 8, 0u64))
            .collect();
        for (i, &o) in objs.iter().enumerate() {
            rt.submit(TaskBuilder::new("w").wr(o).body(move |ctx| {
                *ctx.wr(o) = i as u64 + 1;
            }));
        }
        rt.finish();
        for (i, &o) in objs.iter().enumerate() {
            assert_eq!(*rt.store().read(o), i as u64 + 1);
        }
        let s = rt.last_stats();
        assert_eq!(s.executed, 8);
        assert_eq!(s.prefetch_routes, 8, "every writer is prefetch-routed");
        assert_eq!(s.locality_hits + s.steals, 8);

        // Default-off: an identical runtime without the flag reports zero.
        let mut off = ThreadRuntime::new(4);
        let o = off.create("x", 8, 0u64);
        off.submit(TaskBuilder::new("w").wr(o).body(move |ctx| *ctx.wr(o) = 1));
        off.finish();
        assert_eq!(off.last_stats().prefetch_routes, 0);
    }

    #[test]
    fn prefetch_routing_chains_successors_to_the_writer() {
        // A producer→consumer chain submitted in one batch: the consumer is
        // enabled at the producer's completion, *after* the pre-published
        // (and completion-confirmed) ownership, so it targets the producer's
        // worker. The chain's results are exact either way.
        let mut rt = ThreadRuntime::new(4);
        rt.enable_prefetch();
        let x = rt.create("x", 8, 0u64);
        let y = rt.create("y", 8, 0u64);
        rt.submit(TaskBuilder::new("produce").wr(x).body(move |ctx| {
            *ctx.wr(x) = 5;
        }));
        rt.submit(TaskBuilder::new("consume").rd(x).wr(y).body(move |ctx| {
            *ctx.wr(y) = *ctx.rd(x) * 2;
        }));
        rt.finish();
        assert_eq!(*rt.store().read(y), 10);
        let s = rt.last_stats();
        assert_eq!(s.executed, 2);
        assert_eq!(s.prefetch_routes, 2, "both tasks write and get routed");
        assert_eq!(s.locality_hits + s.steals, 2);
    }

    #[test]
    fn producer_consumer_batches_follow_the_writer() {
        // Cross-batch locality: batch 1 writes an object on some worker;
        // batch 2's reader must be *targeted* at that worker (it is either
        // a locality hit there, or explicitly counted as a steal).
        let mut rt = ThreadRuntime::new(4);
        let x = rt.create("x", 8, 0u64);
        rt.submit(TaskBuilder::new("produce").wr(x).body(move |ctx| {
            *ctx.wr(x) = 5;
        }));
        rt.finish();
        let y = rt.create("y", 8, 0u64);
        rt.submit(TaskBuilder::new("consume").rd(x).wr(y).body(move |ctx| {
            *ctx.wr(y) = *ctx.rd(x) * 2;
        }));
        rt.finish();
        assert_eq!(*rt.store().read(y), 10);
        let s = rt.last_stats();
        assert_eq!(s.executed, 1);
        assert_eq!(s.locality_hits + s.steals, 1);
    }

    #[test]
    fn empty_finish_is_noop() {
        let mut rt = ThreadRuntime::new(2);
        rt.finish();
        assert_eq!(rt.last_stats(), BatchStats::default());
    }

    #[test]
    fn task_panic_propagates() {
        let mut rt = ThreadRuntime::new(2);
        let x = rt.create("x", 8, 0u64);
        rt.submit(
            TaskBuilder::new("boom")
                .wr(x)
                .body(|_| panic!("task exploded")),
        );
        let r = catch_unwind(AssertUnwindSafe(|| rt.finish()));
        assert!(r.is_err(), "panic must propagate to finish()");
    }

    #[test]
    fn slot_slab_keeps_its_capacity_across_batches() {
        let mut rt = ThreadRuntime::new(2);
        let x = rt.create("x", 8, 0u64);
        let submit_incs = |rt: &mut ThreadRuntime, n: usize| {
            for _ in 0..n {
                rt.submit(TaskBuilder::new("inc").rd_wr(x).body(move |ctx| {
                    *ctx.wr(x) += 1;
                }));
            }
        };
        submit_incs(&mut rt, 100);
        let cap = rt.arena.slots.capacity();
        assert!(cap >= 100);
        rt.finish();
        assert!(rt.arena.slots.is_empty());
        assert_eq!(rt.arena.slots.capacity(), cap, "finish kept the slab");
        // A batch aborted by a genuine panic keeps it too, and leaves the
        // runtime ready for a clean batch numbered from zero.
        submit_incs(&mut rt, 10);
        rt.submit(
            TaskBuilder::new("boom")
                .rd(x)
                .body(|_| panic!("task exploded")),
        );
        let r = catch_unwind(AssertUnwindSafe(|| rt.finish()));
        assert!(r.is_err(), "panic must propagate to finish()");
        assert!(rt.arena.slots.is_empty());
        assert_eq!(rt.arena.slots.capacity(), cap);
        assert_eq!(rt.next_id, 0);
        submit_incs(&mut rt, 5);
        rt.finish();
        assert_eq!(*rt.store().read(x), 115);
        assert_eq!(rt.arena.slots.capacity(), cap);
    }

    #[test]
    fn undeclared_access_panics_in_parallel_too() {
        let mut rt = ThreadRuntime::new(2);
        let x = rt.create("x", 8, 0u64);
        let y = rt.create("y", 8, 0u64);
        rt.submit(TaskBuilder::new("sneaky").wr(x).body(move |ctx| {
            let _ = ctx.rd(y); // undeclared!
        }));
        let r = catch_unwind(AssertUnwindSafe(|| rt.finish()));
        assert!(r.is_err());
    }

    #[test]
    fn heavy_contention_stress() {
        // Many small tasks over few objects; exercises enable/steal paths.
        let mut rt = ThreadRuntime::new(8);
        let counters: Vec<_> = (0..4)
            .map(|i| rt.create(&format!("c{i}"), 8, 0u64))
            .collect();
        for i in 0..400 {
            let c = counters[i % 4];
            rt.submit(TaskBuilder::new("inc").rd_wr(c).body(move |ctx| {
                *ctx.wr(c) += 1;
            }));
        }
        rt.finish();
        for &c in &counters {
            assert_eq!(*rt.store().read(c), 100);
        }
    }

    #[test]
    fn mid_task_release_pipelines() {
        // A producer writes stage-1 data, releases it, then keeps working on
        // stage-2 data; the consumer of stage 1 runs concurrently. The
        // consumer signals through an atomic that the producer waits for —
        // this deadlocks unless release() really enables the consumer early.
        let mut rt = ThreadRuntime::new(2);
        let stage1 = rt.create("stage1", 8, 0u64);
        let stage2 = rt.create("stage2", 8, 0u64);
        let consumed = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&consumed);
        rt.submit(
            TaskBuilder::new("producer")
                .wr(stage1)
                .wr(stage2)
                .body(move |ctx| {
                    *ctx.wr(stage1) = 41;
                    ctx.release(stage1);
                    // Wait until the consumer has observed stage 1.
                    while c2.load(Ordering::SeqCst) == 0 {
                        std::thread::yield_now();
                    }
                    *ctx.wr(stage2) = 2;
                }),
        );
        let c3 = Arc::clone(&consumed);
        rt.submit(TaskBuilder::new("consumer").rd(stage1).body(move |ctx| {
            let v = *ctx.rd(stage1);
            c3.store(v as usize, Ordering::SeqCst);
        }));
        rt.finish();
        assert_eq!(consumed.load(Ordering::SeqCst), 41);
        assert_eq!(*rt.store().read(stage2), 2);
    }

    #[test]
    fn access_after_release_panics() {
        let mut rt = ThreadRuntime::new(2);
        let x = rt.create("x", 8, 0u64);
        rt.submit(TaskBuilder::new("bad").wr(x).body(move |ctx| {
            ctx.release(x);
            let _ = ctx.wr(x); // released!
        }));
        let r = catch_unwind(AssertUnwindSafe(|| rt.finish()));
        assert!(r.is_err());
    }

    #[test]
    fn events_reconstruct_batch_stats() {
        let mut rt = ThreadRuntime::new(4);
        rt.enable_events();
        let counters: Vec<_> = (0..4)
            .map(|i| rt.create(&format!("c{i}"), 8, 0u64))
            .collect();
        for i in 0..200 {
            let c = counters[i % 4];
            rt.submit(TaskBuilder::new("inc").rd_wr(c).body(move |ctx| {
                *ctx.wr(c) += 1;
            }));
        }
        rt.finish();
        let stats = rt.last_stats();
        let events = rt.take_events();
        jade_core::check_lifecycle(&events).unwrap();
        let m = jade_core::Metrics::from_events(&events, rt.workers());
        assert_eq!(m.tasks_created, 200);
        assert_eq!(m.tasks_started, stats.executed);
        assert_eq!(m.steals as usize, stats.steals);
        assert_eq!(m.locality_hits, stats.locality_hits);
        // A second take returns nothing until another batch runs.
        assert!(rt.take_events().is_empty());
    }

    #[test]
    fn events_record_mid_task_releases() {
        let mut rt = ThreadRuntime::new(2);
        rt.enable_events();
        let a = rt.create("a", 8, 0u64);
        let b = rt.create("b", 8, 0u64);
        rt.submit(TaskBuilder::new("producer").wr(a).wr(b).body(move |ctx| {
            *ctx.wr(a) = 1;
            ctx.release(a);
            *ctx.wr(b) = 2;
        }));
        rt.submit(TaskBuilder::new("consumer").rd(a).body(move |ctx| {
            let _ = *ctx.rd(a);
        }));
        rt.finish();
        let events = rt.take_events();
        jade_core::check_lifecycle(&events).unwrap();
        let m = jade_core::Metrics::from_events(&events, rt.workers());
        assert_eq!(m.releases, 1);
        assert_eq!(m.tasks_completed, 2);
    }

    #[test]
    fn events_disabled_by_default() {
        let mut rt = ThreadRuntime::new(2);
        let x = rt.create("x", 8, 0u64);
        rt.submit(TaskBuilder::new("a").wr(x).body(move |ctx| *ctx.wr(x) += 1));
        rt.finish();
        assert!(rt.take_events().is_empty());
    }

    #[test]
    fn injected_failures_recover_with_identical_results() {
        // panic_p = 0.3: plenty of injected crashes over 100 tasks, each
        // recovered by re-execution on the next worker. Results must be
        // bit-identical to the fault-free run.
        let mut rt = ThreadRuntime::new(4);
        rt.enable_events();
        rt.inject_faults(FaultPlan {
            panic_p: 0.3,
            seed: 42,
            ..FaultPlan::none()
        });
        let outs: Vec<_> = (0..100)
            .map(|i| rt.create(&format!("o{i}"), 8, 0usize))
            .collect();
        for (i, &o) in outs.iter().enumerate() {
            rt.submit(TaskBuilder::new("w").wr(o).body(move |ctx| {
                *ctx.wr(o) = i * i;
            }));
        }
        rt.finish();
        for (i, &o) in outs.iter().enumerate() {
            assert_eq!(*rt.store().read(o), i * i);
        }
        let stats = rt.last_stats();
        assert!(stats.recoveries > 0, "p=0.3 over 100 tasks must inject");
        assert_eq!(stats.executed, 100 + stats.recoveries);
        let events = rt.take_events();
        jade_core::check_lifecycle(&events).unwrap();
        let m = jade_core::Metrics::from_events(&events, rt.workers());
        assert_eq!(m.tasks_reexecuted as usize, stats.recoveries);
        assert_eq!(m.workers_failed as usize, stats.recoveries);
        assert_eq!(m.tasks_started, stats.executed);
    }

    #[test]
    fn recovery_preserves_dependence_order() {
        // A write-write chain under heavy injection: recovery must not let
        // a successor run before its (re-executed) predecessor completes.
        let mut rt = ThreadRuntime::new(4);
        rt.inject_faults(FaultPlan {
            panic_p: 0.4,
            seed: 7,
            ..FaultPlan::none()
        });
        let v = rt.create("v", 0, Vec::<u32>::new());
        for i in 0..50u32 {
            rt.submit(TaskBuilder::new("push").wr(v).body(move |ctx| {
                ctx.wr(v).push(i);
            }));
        }
        rt.finish();
        assert_eq!(*rt.store().read(v), (0..50).collect::<Vec<_>>());
        assert!(rt.last_stats().recoveries > 0);
    }

    #[test]
    fn genuine_panic_propagates_even_with_recovery() {
        // Recovery only covers injected failures: a real application panic
        // may have left partial writes, so it must still surface.
        let mut rt = ThreadRuntime::new(2);
        rt.inject_faults(FaultPlan {
            panic_p: 0.0,
            seed: 1,
            ..FaultPlan::none()
        });
        let x = rt.create("x", 8, 0u64);
        rt.submit(
            TaskBuilder::new("boom")
                .wr(x)
                .body(|_| panic!("task exploded")),
        );
        // Successors of `boom`: never enabled, so never executed. Each body
        // holds a token, which is how the test sees it dropped.
        let token = Arc::new(());
        for _ in 0..20 {
            let held = Arc::clone(&token);
            rt.submit(TaskBuilder::new("after").rd_wr(x).body(move |ctx| {
                *ctx.wr(x) += Arc::strong_count(&held) as u64;
            }));
        }
        let r = catch_unwind(AssertUnwindSafe(|| rt.finish()));
        assert!(r.is_err(), "application panic must propagate");
        assert_eq!(rt.last_stats().executed, 1);
        assert_eq!(Arc::strong_count(&token), 1, "unexecuted bodies linger");
        assert!(rt.arena.slots.is_empty());
        assert!(rt.arena.slots.capacity() >= 21, "the slab kept its storage");
        assert_eq!(rt.next_id, 0);
        assert_eq!(rt.sync.task_count(), 0);
        // The same runtime then runs a clean batch as a new one would.
        let serial = reference_workload(&mut jade_core::TraceRuntime::new());
        assert_eq!(reference_workload(&mut rt), serial);
        assert_eq!(rt.last_stats().recoveries, 0);
        assert!(rt.arena.slots.is_empty());
    }

    #[test]
    fn exhausted_retry_budget_propagates() {
        // panic_p = 1.0 fails every attempt; after the retry budget the
        // failure surfaces instead of looping forever.
        let mut rt = ThreadRuntime::new(2);
        rt.inject_faults(FaultPlan {
            panic_p: 1.0,
            seed: 3,
            ..FaultPlan::none()
        });
        let x = rt.create("x", 8, 0u64);
        rt.submit(TaskBuilder::new("w").wr(x).body(move |ctx| *ctx.wr(x) = 1));
        let r = catch_unwind(AssertUnwindSafe(|| rt.finish()));
        assert!(r.is_err(), "unwinnable plan must not hang");
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn invalid_fault_plan_rejected() {
        let mut rt = ThreadRuntime::new(2);
        rt.inject_faults(FaultPlan {
            panic_p: 2.0,
            ..FaultPlan::none()
        });
    }

    #[test]
    fn checkpoint_interval_captures_and_preserves_results() {
        let mut rt = ThreadRuntime::new(4);
        rt.enable_events();
        rt.checkpoint_every(10);
        let outs: Vec<_> = (0..100)
            .map(|i| rt.create(&format!("o{i}"), 8, 0usize))
            .collect();
        for (i, &o) in outs.iter().enumerate() {
            rt.submit(TaskBuilder::new("w").wr(o).body(move |ctx| {
                *ctx.wr(o) = i + 1;
            }));
        }
        rt.finish();
        for (i, &o) in outs.iter().enumerate() {
            assert_eq!(*rt.store().read(o), i + 1);
        }
        let stats = rt.last_stats();
        // 100 completions / 10, minus the capture skipped on the final one.
        assert_eq!(stats.checkpoints, 9);
        let events = rt.take_events();
        jade_core::check_lifecycle(&events).unwrap();
        let m = jade_core::Metrics::from_events(&events, rt.workers());
        assert_eq!(m.checkpoints as usize, stats.checkpoints);
        assert!(m.checkpoint_bytes > 0, "captures must report their size");
    }

    #[test]
    fn checkpointed_recovery_restores_and_stays_bit_identical() {
        // Faults + checkpoints together: recoveries that happen after the
        // first capture consult it, and results stay bit-identical.
        let mut rt = ThreadRuntime::new(4);
        rt.enable_events();
        rt.inject_faults(FaultPlan {
            panic_p: 0.3,
            seed: 42,
            ..FaultPlan::none()
        });
        rt.checkpoint_every(5);
        let outs: Vec<_> = (0..100)
            .map(|i| rt.create(&format!("o{i}"), 8, 0usize))
            .collect();
        for (i, &o) in outs.iter().enumerate() {
            rt.submit(TaskBuilder::new("w").wr(o).body(move |ctx| {
                *ctx.wr(o) = i * i;
            }));
        }
        rt.finish();
        for (i, &o) in outs.iter().enumerate() {
            assert_eq!(*rt.store().read(o), i * i);
        }
        let stats = rt.last_stats();
        assert!(stats.recoveries > 0, "p=0.3 over 100 tasks must inject");
        assert!(stats.checkpoints > 0);
        assert!(
            stats.checkpoint_restores <= stats.recoveries,
            "only recoveries can restore"
        );
        let events = rt.take_events();
        jade_core::check_lifecycle(&events).unwrap();
        let m = jade_core::Metrics::from_events(&events, rt.workers());
        assert_eq!(m.checkpoints as usize, stats.checkpoints);
        assert_eq!(m.checkpoint_restores as usize, stats.checkpoint_restores);
        assert_eq!(m.tasks_reexecuted as usize, stats.recoveries);
    }

    #[test]
    fn fault_plan_checkpoint_maps_to_task_count() {
        // `ckpt=3` on the threads backend means "every 3 completed tasks".
        let mut rt = ThreadRuntime::new(2);
        rt.inject_faults(FaultPlan::parse("ckpt=3").unwrap());
        let outs: Vec<_> = (0..10)
            .map(|i| rt.create(&format!("o{i}"), 8, 0usize))
            .collect();
        for &o in &outs {
            rt.submit(TaskBuilder::new("w").wr(o).body(move |ctx| {
                *ctx.wr(o) = 1;
            }));
        }
        rt.finish();
        assert_eq!(rt.last_stats().checkpoints, 3);
    }

    #[test]
    #[should_panic(expected = "checkpoint interval")]
    fn zero_checkpoint_interval_rejected() {
        let mut rt = ThreadRuntime::new(2);
        rt.checkpoint_every(0);
    }

    #[test]
    fn checkpoint_seconds_to_tasks_conversion_is_checked() {
        // Nominal mappings (round to nearest, floor one task).
        assert_eq!(checkpoint_tasks(3.0), Ok(3));
        assert_eq!(checkpoint_tasks(0.25), Ok(1));
        assert_eq!(checkpoint_tasks(7.6), Ok(8));
        // Degenerate values are config errors naming the bad value, not
        // silently saturating casts.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 1e18] {
            let err = checkpoint_tasks(bad).unwrap_err();
            assert!(
                err.contains(&format!("{bad}")),
                "error must name the value: {err}"
            );
        }
    }

    #[test]
    fn try_inject_faults_returns_config_error_for_bad_checkpoint() {
        let mut rt = ThreadRuntime::new(2);
        let plan = FaultPlan {
            checkpoint: Some(dsim::SimDuration(u64::MAX)),
            ..FaultPlan::none()
        };
        let err = rt.try_inject_faults(plan).unwrap_err();
        assert!(err.contains("ckpt"), "error names the knob: {err}");
        // The runtime stays usable and unconfigured.
        assert!(rt.faults.is_none() && rt.ckpt_every.is_none());
    }

    #[test]
    fn tuned_runs_are_deterministic_and_match_untuned_results() {
        let run = |tuned: bool| {
            let mut rt = ThreadRuntime::new(4);
            if tuned {
                rt.enable_tuning();
            }
            let outs: Vec<_> = (0..48)
                .map(|i| rt.create(&format!("o{i}"), 8, 0u64))
                .collect();
            let acc = rt.create("acc", 8, 0u64);
            for (i, &o) in outs.iter().enumerate() {
                rt.submit(TaskBuilder::new("w").wr(o).body(move |ctx| {
                    *ctx.wr(o) = (i as u64 + 1) * 7;
                }));
            }
            for &o in &outs {
                rt.submit(TaskBuilder::new("fold").rd(o).rd_wr(acc).body(move |ctx| {
                    *ctx.wr(acc) += *ctx.rd(o);
                }));
            }
            rt.finish();
            let values: Vec<u64> = outs
                .iter()
                .map(|&o| *rt.store().read(o))
                .chain(std::iter::once(*rt.store().read(acc)))
                .collect();
            let log = rt.tune_log().cloned();
            (values, log)
        };
        let (v_off, log_off) = run(false);
        let (v_on_a, log_a) = run(true);
        let (v_on_b, log_b) = run(true);
        assert_eq!(v_on_a, v_off, "controller must not change results");
        assert_eq!(v_on_a, v_on_b, "controller-on repeats bit-identical");
        assert!(log_off.is_none());
        assert_eq!(log_a, log_b, "decision logs identical across repeats");
        let log = log_a.expect("tuned run records decisions");
        assert!(!log.decisions.is_empty());
        log.check_ranges().unwrap();
    }

    #[test]
    fn tuned_steal_budget_preserves_work_conservation() {
        // Many park/wake cycles with a bounded steal budget: the
        // exhaustive pre-park sweep must keep every task reachable.
        let mut rt = ThreadRuntime::new(8);
        rt.enable_tuning();
        let counters: Vec<_> = (0..16)
            .map(|i| rt.create(&format!("c{i}"), 8, 0u64))
            .collect();
        for i in 0..2000 {
            let c = counters[i % 16];
            rt.submit(TaskBuilder::new("inc").rd_wr(c).body(move |ctx| {
                *ctx.wr(c) += 1;
            }));
        }
        rt.finish();
        let total: u64 = counters.iter().map(|&c| *rt.store().read(c)).sum();
        assert_eq!(total, 2000);
        rt.tune_log().unwrap().check_ranges().unwrap();
    }

    /// A little mixed workload, generic over the runtime: 24 independent
    /// writers, then an order-sensitive fold of every output into `acc`.
    /// Returns the final store values.
    fn reference_workload<R: JadeRuntime>(rt: &mut R) -> Vec<u64> {
        let outs: Vec<_> = (0..24)
            .map(|i| rt.create(&format!("o{i}"), 8, 0u64))
            .collect();
        let acc = rt.create("acc", 8, 0u64);
        for (i, &o) in outs.iter().enumerate() {
            rt.submit(TaskBuilder::new("w").wr(o).body(move |ctx| {
                *ctx.wr(o) = (i as u64 + 1) * 3;
            }));
        }
        for &o in &outs {
            rt.submit(TaskBuilder::new("fold").rd(o).rd_wr(acc).body(move |ctx| {
                let mut a = ctx.wr(acc);
                *a = a.wrapping_mul(31).wrapping_add(*ctx.rd(o));
            }));
        }
        rt.finish();
        outs.iter()
            .map(|&o| *rt.store().read(o))
            .chain(std::iter::once(*rt.store().read(acc)))
            .collect()
    }

    #[test]
    fn single_worker_degenerates_to_serial() {
        // The one-worker contract: results equal the serial elaboration and
        // the run is deterministic — the same event stream every time, with
        // clean lifecycles. The stream is *not* program order (the worker
        // pops its own queue newest-first), and it does not depend on the
        // drain threshold: tracing clamps it to one, so a tuned run records
        // the same stream as an untuned one.
        let run = |tuned: bool| {
            let mut rt = ThreadRuntime::new(1);
            rt.enable_events();
            if tuned {
                rt.enable_tuning();
            }
            let values = reference_workload(&mut rt);
            (values, rt.take_events())
        };
        let serial = reference_workload(&mut jade_core::TraceRuntime::new());
        let (va, ea) = run(false);
        let (vb, eb) = run(false);
        let (vc, ec) = run(true);
        assert_eq!(va, serial, "one worker must compute the serial result");
        assert_eq!(vb, va);
        assert_eq!(vc, va, "tuning changed the one-worker result");
        jade_core::check_lifecycle(&ea).unwrap();
        assert_eq!(ea, eb, "one-worker event streams differ between runs");
        assert_eq!(ea, ec, "tuning changed the traced one-worker stream");
    }

    #[test]
    fn sharded_survives_thousands_of_tiny_tasks() {
        // Scheduler stress: overhead-dominated tasks across many wake/park
        // cycles; exercises the epoch-parking protocol for lost wakeups.
        let mut rt = ThreadRuntime::new(8);
        let counters: Vec<_> = (0..16)
            .map(|i| rt.create(&format!("c{i}"), 8, 0u64))
            .collect();
        for i in 0..2000 {
            let c = counters[i % 16];
            rt.submit(TaskBuilder::new("inc").rd_wr(c).body(move |ctx| {
                *ctx.wr(c) += 1;
            }));
        }
        rt.finish();
        for &c in &counters {
            assert_eq!(*rt.store().read(c), 125);
        }
        assert_eq!(rt.last_stats().executed, 2000);
    }

    #[test]
    fn steal_order_never_starts_at_self_and_visits_each_other_worker_once() {
        // Regression for the old sweep, whose random start could be the
        // stealing worker itself (wasting the first probe) — the sweep must
        // start at a *different* worker and cover every other one exactly
        // once, for every random draw.
        for workers in 2..=8 {
            for w in 0..workers {
                for r in 0..64u64 {
                    let order: Vec<usize> = steal_order(w, workers, r).collect();
                    assert_ne!(order[0], w, "first victim is the stealer itself");
                    assert_eq!(order.len(), workers - 1);
                    let mut sorted = order.clone();
                    sorted.sort_unstable();
                    let expected: Vec<usize> = (0..workers).filter(|&v| v != w).collect();
                    assert_eq!(sorted, expected, "sweep must visit each other worker once");
                }
            }
        }
    }

    #[test]
    fn forced_steal_workload_pins_steal_accounting() {
        // Two workers; a blocker task placed on worker 1 spins until all
        // consumer tasks (also placed on worker 1) have run. Worker 1 is
        // stuck in the blocker, so every consumer MUST be stolen by worker
        // 0 — pinning `stats.steals` exactly. The blocker is submitted
        // last, so it sits at the bottom of queue 1 where the owner's first
        // pop takes it, while thieves take consumers from the top; and
        // consumers wait for the blocker to start, so worker 0 (stuck in
        // its first stolen consumer until then) can never empty queue 1
        // down to the blocker before worker 1 has claimed it.
        const CONSUMERS: usize = 12;
        let mut rt = ThreadRuntime::new(2);
        let started = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let done = Arc::new(AtomicUsize::new(0));
        let outs: Vec<_> = (0..CONSUMERS)
            .map(|i| rt.create(&format!("c{i}"), 8, 0u64))
            .collect();
        for (i, &o) in outs.iter().enumerate() {
            let started = Arc::clone(&started);
            let done = Arc::clone(&done);
            rt.submit(
                TaskBuilder::new("consumer")
                    .wr(o)
                    .place(1)
                    .body(move |ctx| {
                        while !started.load(Ordering::SeqCst) {
                            std::hint::spin_loop();
                        }
                        *ctx.wr(o) = i as u64 + 1;
                        done.fetch_add(1, Ordering::SeqCst);
                    }),
            );
        }
        let blocker_out = rt.create("blocker", 8, 0u64);
        {
            let started = Arc::clone(&started);
            let done = Arc::clone(&done);
            rt.submit(
                TaskBuilder::new("blocker")
                    .wr(blocker_out)
                    .place(1)
                    .body(move |ctx| {
                        started.store(true, Ordering::SeqCst);
                        while done.load(Ordering::SeqCst) < CONSUMERS {
                            std::hint::spin_loop();
                        }
                        *ctx.wr(blocker_out) = 1;
                    }),
            );
        }
        rt.finish();
        for (i, &o) in outs.iter().enumerate() {
            assert_eq!(*rt.store().read(o), i as u64 + 1);
        }
        let s = rt.last_stats();
        assert_eq!(s.executed, CONSUMERS + 1);
        assert_eq!(s.steals, CONSUMERS, "every consumer must be stolen");
        assert_eq!(s.locality_hits, 1, "only the blocker runs on its target");
    }

    #[test]
    fn drain_buffer_flushes_when_idle() {
        // A dependency chain shorter than DRAIN_BATCH with more workers
        // than work: the completion that enables each successor sits in a
        // drain buffer below the flush threshold, so the run hangs unless
        // idle workers flush before parking.
        let mut rt = ThreadRuntime::new(4);
        let x = rt.create("x", 8, 0u64);
        for _ in 0..DRAIN_BATCH / 2 {
            rt.submit(TaskBuilder::new("inc").rd_wr(x).body(move |ctx| {
                *ctx.wr(x) += 1;
            }));
        }
        rt.finish();
        assert_eq!(*rt.store().read(x), DRAIN_BATCH as u64 / 2);
    }

    #[test]
    fn auto_batching_amortizes_sync_locks() {
        // Overhead-dominated independent tasks: the drain buffers fill to
        // DRAIN_BATCH, so synchronizer-lock acquisitions fall well below
        // one per task.
        //
        // Batching covers the tasks a worker pops from its own queue (a
        // steal is preceded by a flush, see `try_pick`), and how many tasks
        // get stolen depends on when the workers happen to start. So the
        // work sits on worker 0 and worker 1 is pinned inside `hold` until
        // every other body has run: at most one steal (`hold` itself, if
        // worker 1 never got going), whatever the host does.
        const WORK: usize = 399;
        let mut rt = ThreadRuntime::new(2);
        let ran = Arc::new(AtomicUsize::new(0));
        let outs: Vec<_> = (0..WORK)
            .map(|i| rt.create(&format!("o{i}"), 8, 0u64))
            .collect();
        for (i, &o) in outs.iter().enumerate() {
            let ran = ran.clone();
            rt.submit(TaskBuilder::new("w").wr(o).place(0).body(move |ctx| {
                *ctx.wr(o) = i as u64;
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
        let seen = ran.clone();
        rt.submit(TaskBuilder::new("hold").place(1).body(move |_| {
            // Bounded only so a scheduler bug fails instead of hanging.
            let give_up = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while seen.load(Ordering::SeqCst) < WORK && std::time::Instant::now() < give_up {
                std::hint::spin_loop();
            }
        }));
        rt.finish();
        assert_eq!(ran.load(Ordering::SeqCst), WORK);
        for (i, &o) in outs.iter().enumerate() {
            assert_eq!(*rt.store().read(o), i as u64);
        }
        let st = rt.last_stats();
        assert_eq!(st.executed, 400);
        assert!(st.steals <= 1, "{} steals", st.steals);
        assert!(
            st.sync_locks * 2 <= st.executed,
            "drain buffers must amortize: {} locks for {} tasks",
            st.sync_locks,
            st.executed
        );
    }

    #[test]
    fn a_steal_costs_at_most_one_sync_lock() {
        // The price of flushing before a steal, stated: with the work
        // spread over both workers and steals left to chance, every
        // acquisition is a full drain buffer, a flush ahead of a steal, or
        // a worker's last flush before it parks.
        let workers = 2;
        let mut rt = ThreadRuntime::new(workers);
        let outs: Vec<_> = (0..400)
            .map(|i| rt.create(&format!("o{i}"), 8, 0u64))
            .collect();
        for (i, &o) in outs.iter().enumerate() {
            rt.submit(TaskBuilder::new("w").wr(o).body(move |ctx| {
                *ctx.wr(o) = i as u64;
            }));
        }
        rt.finish();
        let st = rt.last_stats();
        assert_eq!(st.executed, 400);
        assert!(
            st.sync_locks <= st.executed / DRAIN_BATCH + st.steals + workers,
            "{} locks for {} tasks, {} stolen",
            st.sync_locks,
            st.executed,
            st.steals
        );
    }

    #[test]
    fn total_stats_accumulate_across_batches() {
        let mut rt = ThreadRuntime::new(2);
        let x = rt.create("x", 8, 0u64);
        for round in 0..3 {
            rt.submit(TaskBuilder::new("a").wr(x).body(move |ctx| *ctx.wr(x) += 1));
            rt.submit(
                TaskBuilder::new("b")
                    .rd_wr(x)
                    .body(move |ctx| *ctx.wr(x) += 1),
            );
            rt.finish();
            assert_eq!(rt.last_stats().executed, 2);
            assert_eq!(rt.total_stats().executed, (round + 1) * 2);
        }
        assert_eq!(*rt.store().read(x), 6);
        assert!(rt.total_stats().sync_locks >= rt.last_stats().sync_locks);
    }

    /// Submit `n` independent counter increments over `objs` objects
    /// (the SchedStress shape) and finish the batch.
    fn run_counter_batch(rt: &mut ThreadRuntime, n: usize, handles: &[jade_core::Handle<u64>]) {
        for i in 0..n {
            let h = handles[i % handles.len()];
            rt.submit(
                TaskBuilder::new("inc")
                    .rd_wr(h)
                    .body(move |ctx| *ctx.wr(h) += 1),
            );
        }
        rt.finish();
    }

    #[test]
    fn second_same_shape_batch_triggers_zero_slab_growth() {
        for workers in [1, 3] {
            let mut rt = ThreadRuntime::new(workers);
            let handles: Vec<_> = (0..8)
                .map(|i| rt.create(&format!("c{i}"), 8, 0u64))
                .collect();
            run_counter_batch(&mut rt, 64, &handles);
            let grows = rt.arena.grows;
            // Queues, scratch and the slot slab (which `submit` grows).
            assert!(grows >= 3, "first batch must build the arena");
            run_counter_batch(&mut rt, 64, &handles);
            assert_eq!(
                rt.arena.grows, grows,
                "{workers}w: same-shape batch re-grew the arena"
            );
            // A smaller batch must reuse as well; only a bigger one grows.
            run_counter_batch(&mut rt, 32, &handles);
            assert_eq!(rt.arena.grows, grows, "smaller batch re-grew");
            let slab = rt.arena.slots.capacity();
            run_counter_batch(&mut rt, 256, &handles);
            assert!(rt.arena.grows > grows, "bigger batch must grow");
            assert!(rt.arena.slots.capacity() > slab, "and grows the slab");
            assert_eq!(*rt.store().read(handles[0]), (64 + 64 + 32 + 256) / 8);
        }
    }

    #[test]
    fn enabled_task_is_routed_while_its_body_slot_is_locked() {
        // Worker 0's flush completes `a`, which enables `b`; routing `b`
        // reads its slot's specification and placement and nothing else.
        // The test holds `b`'s body mutex throughout: a dispatch path that
        // took it would never finish the flush.
        let mut store = Store::new();
        let x = store.create("x", 8, 0u64);
        let mut owners = OwnerTable::default();
        owners.ensure(store.len());
        owners.record(x.id(), 1);
        let mut arena = SchedArena::default();
        arena.push(TaskBuilder::new("a").wr(x).body(|_| {}));
        arena.push(TaskBuilder::new("b").rd(x).body(|_| {}));
        arena.prepare(2, 2);
        let mut sync = Synchronizer::new(true);
        let mut events = NullSink;
        assert!(sync.add_task_traced(TaskId(0), &arena.slots[0].spec, &mut events, 0, 0));
        assert!(!sync.add_task_traced(TaskId(1), &arena.slots[1].spec, &mut events, 0, 0));
        let sh = Sharded {
            queues: &arena.queues,
            slots: &arena.slots,
            state: Mutex::new(SyncState {
                sync,
                events,
                clock: 0,
                since_ckpt: 0,
                last_ckpt: None,
                checkpoints: 0,
            }),
            live: AtomicUsize::new(2),
            epoch: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            idle: Mutex::new(()),
            cv: Condvar::new(),
            panicked: AtomicBool::new(false),
            panic: Mutex::new(None),
            faults: None,
            ckpt_every: None,
            owners: &owners,
            store: &store,
            base: 0,
            workers: 2,
            drain: DRAIN_BATCH,
            steal_budget: 1,
            sync_locks: AtomicUsize::new(0),
            prefetch: false,
            prefetch_routes: AtomicUsize::new(0),
        };
        let held = lock(&sh.slots[1].body);
        let (done, flushed) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let sh = &sh;
            scope.spawn(move || {
                let ws = WorkerScratch::default();
                ws.buf.borrow_mut().complete(TaskId(0));
                sh.flush(0, &ws.buf, &mut ws.newly.borrow_mut());
                done.send(()).unwrap();
            });
            let waited = flushed.recv_timeout(std::time::Duration::from_secs(10));
            // Let a blocked flush through before the scope joins it.
            drop(held);
            waited.expect("routing an enabled task waited for its body mutex");
        });
        assert_eq!(sh.slots[1].target.load(Ordering::Relaxed), 1);
        assert_eq!(sh.queues[1].steal(), Some(1), "`b` follows `x`'s writer");
        assert_eq!(sh.live.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn chase_lev_inbox_work_is_stealable_while_owner_spins() {
        // Liveness: work remote-pushed onto a worker that never goes idle
        // (its owner is spinning inside a task) must still be reachable by
        // thieves — the inject inbox would otherwise deadlock this
        // pipeline.
        let mut rt = ThreadRuntime::new(2);
        let done = Arc::new(AtomicUsize::new(0));
        let x = rt.create("x", 8, 0u64);
        let y = rt.create("y", 8, 0u64);
        let flag = rt.create("flag", 8, 0u64);
        // Blocker on worker 0 spins until the dependent task B (also
        // targeted at worker 0 by placement) has run — which can only
        // happen if worker 1 steals B out of worker 0's inbox.
        let d0 = Arc::clone(&done);
        rt.submit(TaskBuilder::new("blocker").wr(y).place(0).body(move |ctx| {
            while d0.load(Ordering::SeqCst) == 0 {
                std::hint::spin_loop();
            }
            *ctx.wr(y) = 1;
        }));
        rt.submit(
            TaskBuilder::new("a")
                .wr(x)
                .place(1)
                .body(move |ctx| *ctx.wr(x) = 7),
        );
        let d1 = Arc::clone(&done);
        rt.submit(
            TaskBuilder::new("b")
                .rd(x)
                .wr(flag)
                .place(0)
                .body(move |ctx| {
                    *ctx.wr(flag) = *ctx.rd(x) + 1;
                    d1.store(1, Ordering::SeqCst);
                }),
        );
        rt.finish();
        assert_eq!(*rt.store().read(y), 1);
        assert_eq!(*rt.store().read(flag), 8);
        assert_eq!(rt.last_stats().executed, 3);
    }

    #[test]
    fn buffered_completion_is_flushed_before_a_stolen_task_runs() {
        // Worker 1 runs `a` (its completion sits in the drain buffer, below
        // the flush threshold), then steals `blocker` — which spins until
        // `b`, a successor of `a`, has run. Unless the buffer is flushed
        // before the stolen task starts, `b` is never enabled and the batch
        // deadlocks. The interleaving is forced with flags: worker 0 is
        // pinned inside `z` until `blocker` has started, and `blocker` can
        // only be started by the thief. The spin bounds only turn a
        // deadlock into a failure; they play no part in the ordering.
        let spin_until = |flag: &AtomicUsize| {
            let give_up = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while flag.load(Ordering::SeqCst) == 0 {
                if std::time::Instant::now() > give_up {
                    return false;
                }
                std::hint::spin_loop();
            }
            true
        };
        let mut rt = ThreadRuntime::new(2);
        let started = Arc::new(AtomicUsize::new(0));
        let b_ran = Arc::new(AtomicUsize::new(0));
        let timed_out = Arc::new(AtomicUsize::new(0));
        let x = rt.create("x", 8, 0u64);
        let out = rt.create("out", 8, 0u64);
        let (s0, d0, t0) = (started.clone(), b_ran.clone(), timed_out.clone());
        // Queue 0 holds `blocker` then `z`: the owner pops the newest entry
        // (`z`), the thief steals the oldest (`blocker`).
        rt.submit(TaskBuilder::new("blocker").place(0).body(move |_| {
            s0.store(1, Ordering::SeqCst);
            if !spin_until(&d0) {
                t0.store(1, Ordering::SeqCst);
            }
        }));
        let (s1, t1) = (started.clone(), timed_out.clone());
        rt.submit(TaskBuilder::new("z").place(0).body(move |_| {
            if !spin_until(&s1) {
                t1.store(1, Ordering::SeqCst);
            }
        }));
        rt.submit(
            TaskBuilder::new("a")
                .wr(x)
                .place(1)
                .body(move |ctx| *ctx.wr(x) = 7),
        );
        let d1 = b_ran.clone();
        rt.submit(
            TaskBuilder::new("b")
                .rd(x)
                .wr(out)
                .place(0)
                .body(move |ctx| {
                    *ctx.wr(out) = *ctx.rd(x) + 1;
                    d1.store(1, Ordering::SeqCst);
                }),
        );
        rt.finish();
        assert_eq!(
            timed_out.load(Ordering::SeqCst),
            0,
            "`b` was withheld behind the stolen task"
        );
        assert_eq!(*rt.store().read(out), 8);
    }
}
