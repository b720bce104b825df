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
//! * each batch's [`jade_core::DepGraph`], built before any of its tasks
//!   runs, decides when tasks may run: a task completes by atomically
//!   counting down its successors, with no lock;
//! * the one scheduler is per-worker Chase-Lev deques with **randomized
//!   stealing** from the top of other workers' deques: each enabled task
//!   goes on the deque of the worker that enabled it, and task placement
//!   ([`jade_core::TaskBuilder::place`]) is ignored. The paper's §4.1
//!   locality heuristic lives in the simulated DASH, where a remote miss
//!   is expensive; on a shared-cache host it measured as pure cost
//!   (DESIGN.md §13.1). Only a traced batch takes a global lock, for its
//!   events; dispatch is per-worker (§13). The deques are safe Rust, like
//!   the rest of the crate: each ring is sized for its batch before the
//!   first push, so none ever grows (§13.1);
//! * every object access is runtime-checked against the declared access
//!   specification, and per-object `RwLock`s verify the dependence graph's
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

#![forbid(unsafe_code)]

mod deque;
pub mod service;

use deque::ChaseLev;
pub use dsim::FaultPlan;
use jade_core::{
    AccessSpec, DepGraph, Event, EventKind, JadeRuntime, Locality, NullSink, ObjectId, Sink, Store,
    TaskBody, TaskCtx, TaskDef, TaskId,
};
pub use service::{
    JadeService, Outcome, Program, ServiceConfig, SubmitError, TenantOptions, TenantReport,
};
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Retry budget for injected worker failures. Each attempt re-rolls the
/// keyed fault hash, so with `panic_p < 1` a task clears this budget with
/// overwhelming probability; exhausting it propagates the failure.
pub(crate) const MAX_TASK_ATTEMPTS: u32 = 16;

/// A mid-task release: the position of the released declaration in its
/// task's specification, and its object.
pub(crate) type Release = (usize, ObjectId);

/// Quiet panic payload for an injected worker failure: unwinds through
/// `resume_unwind` so the default panic hook prints nothing — the crash is
/// simulated, not a bug worth a backtrace.
pub(crate) struct InjectedFailure;

/// Lock a mutex, ignoring poisoning (a panicking task already propagates
/// its panic through `finish`; the shared state stays structurally valid).
pub(crate) fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Statistics from the most recent [`ThreadRuntime::finish`] batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Task execution attempts in the batch (re-executions after injected
    /// failures included, matching the event stream's started count).
    pub executed: usize,
    /// Tasks executed by the worker whose deque they were queued on (the
    /// one that enabled them, dealt them at setup or recovered them): the
    /// executions that were not stolen.
    pub locality_hits: usize,
    /// Tasks taken from another worker's queue.
    pub steals: usize,
    /// Tasks re-executed after an injected worker failure (fault
    /// injection; see [`ThreadRuntime::inject_faults`]).
    pub recoveries: usize,
    /// Acquisitions of the batch's state lock, which only a traced batch
    /// takes, to record its events. Zero untraced: tasks complete by
    /// atomic countdown alone; at least one per task traced.
    pub sync_locks: usize,
}

impl BatchStats {
    fn absorb(&mut self, other: &BatchStats) {
        self.executed += other.executed;
        self.locality_hits += other.locality_hits;
        self.steals += other.steals;
        self.recoveries += other.recoveries;
        self.sync_locks += other.sync_locks;
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

/// A parallel Jade runtime executing on `workers` OS threads.
pub struct ThreadRuntime {
    store: Store,
    workers: usize,
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
    /// Recycled scheduling storage (queues, task slots, dependence graph):
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
            next_id: 0,
            last_stats: BatchStats::default(),
            total_stats: BatchStats::default(),
            trace_events: false,
            events: Vec::new(),
            event_clock: 0,
            faults: None,
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
    /// dependence the batch's graph enforces is visible in it.
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
    /// *before* the task body runs: the unwind is caught and the task is
    /// re-queued on the recovering worker's own deque (`WorkerFailed` +
    /// `TaskReExecuted` events, [`BatchStats::recoveries`]). Because the body never started, the
    /// re-execution is exact — batch results are bit-identical to a
    /// fault-free run. Genuine application panics still propagate through
    /// [`ThreadRuntime::finish`]: a body that dies halfway may have
    /// partially mutated its objects, so retrying it would be unsound.
    ///
    /// The runtime reads two of the plan's fields, `panic_p` and `seed`.
    /// Every other field, `ckpt=` included, is validated and ignored: the
    /// crash happens before the body runs, so recovery is a re-queue and
    /// there is no state a checkpoint could restore.
    ///
    /// # Panics
    ///
    /// If the plan is malformed (see [`FaultPlan::validate`]) — use
    /// [`try_inject_faults`](Self::try_inject_faults) to handle malformed
    /// plans as config errors instead.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        if let Err(why) = self.try_inject_faults(plan) {
            panic!("invalid fault plan: {why}");
        }
    }

    /// Fallible [`inject_faults`](Self::inject_faults): a plan that fails
    /// [`FaultPlan::validate`] is a config error, and the runtime keeps
    /// its previous plan.
    pub fn try_inject_faults(&mut self, plan: FaultPlan) -> Result<(), String> {
        plan.validate()?;
        self.faults = Some(plan);
        Ok(())
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
            self.run_sharded(Vec::<Event>::new())
        } else {
            self.run_sharded(NullSink)
        }
    }
}

// ---------------------------------------------------------------------------
// The scheduler: per-worker queues, a countdown over the batch's graph
// ---------------------------------------------------------------------------

/// Per-worker mutable scratch handed to each worker thread by `&mut` and
/// recycled across batches: the enable-burst vector a countdown fills and
/// the worker's completions not yet taken off `live`. Cells because the
/// mid-task release hook (an `Fn`) must reach them; neither ever crosses
/// threads.
#[derive(Default)]
pub(crate) struct WorkerScratch {
    newly: RefCell<Vec<TaskId>>,
    done: Cell<u32>,
}

/// One submitted task, written once by `submit` and read in place until
/// its batch ends. `label` and `spec` do not change while a batch runs, so
/// the graph build and the executing worker's [`TaskCtx`] borrow them
/// without a lock; what changes is behind its own synchronization. The
/// definition's placement is not kept: this runtime ignores it.
pub(crate) struct TaskSlot {
    label: &'static str,
    spec: AccessSpec,
    /// Taken by the executing worker, put back by an injected failure. A
    /// task index lives in exactly one queue at a time, so the mutex is
    /// uncontended — it exists to hand the closure to another thread
    /// without `unsafe`, and it is the only lock on the dispatch path.
    body: Mutex<Option<TaskBody>>,
    /// Executions so far (keys the fault hash).
    attempt: AtomicU32,
}

/// Recycled scheduler storage owned by the [`ThreadRuntime`]. Reusing the
/// slabs across batches is what takes the equilibrium
/// dispatch→execute→complete→retire cycle to zero heap allocations
/// (asserted by `tests/allocs.rs`).
#[derive(Default)]
pub(crate) struct SchedArena {
    /// One ready queue per worker.
    queues: Vec<ChaseLev>,
    /// The open batch's tasks in submission order: filled by `submit`,
    /// emptied (capacity kept) when the batch ends, however it ends.
    slots: Vec<TaskSlot>,
    /// The batch's dependence graph over batch-local task indices, and per
    /// task the edges into it not yet counted down.
    graph: DepGraph,
    left: Vec<AtomicU32>,
    /// Per-worker enable scratch.
    scratch: Vec<WorkerScratch>,
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
            body: Mutex::new(Some(def.body)),
            attempt: AtomicU32::new(0),
        });
    }

    /// Make the queues and the scratch ready for the open batch on
    /// `workers` workers, and build its dependence graph, reusing existing
    /// capacity wherever shapes allow (an aborted batch may leave queued
    /// indices behind). Every queue gets room for the whole batch, which
    /// is what lets a ready queue's ring never grow (DESIGN.md §13.1).
    fn prepare(&mut self, workers: usize) {
        let n = self.slots.len();
        if self.queues.len() != workers {
            self.grows += 1;
            self.queues.clear();
            self.queues
                .extend((0..workers).map(|_| ChaseLev::with_capacity(n)));
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
        self.graph
            .rebuild(self.slots.iter().map(|slot| &slot.spec), true);
        self.left.clear();
        (self.left).extend(self.graph.preds().iter().map(|&p| AtomicU32::new(p)));
    }
}

/// What a traced batch serializes under its one lock: the event sink and
/// its logical clock. Scheduling and dependence state (queues, task slots,
/// counters) live outside.
struct SyncState<S> {
    events: S,
    clock: u64,
}

impl<S> SyncState<S> {
    fn tick(&mut self) -> u64 {
        let t = self.clock;
        self.clock += 1;
        t
    }
}

struct Sharded<'a, S> {
    /// Per-worker ready queues, borrowed from the runtime's [`SchedArena`]
    /// (as are the task slots and the graph — batches reuse the storage).
    queues: &'a [ChaseLev],
    /// The batch's tasks; slot `local` is task `base + local`.
    slots: &'a [TaskSlot],
    /// The arena's graph and counters (see [`SchedArena`]).
    graph: &'a DepGraph,
    left: &'a [AtomicU32],
    state: Mutex<SyncState<S>>,
    /// Registered tasks not yet completed, but for the completions each
    /// worker holds back until it runs out of work; 0 means the batch is
    /// drained.
    live: AtomicU32,
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
    store: &'a Store,
    base: usize,
    workers: usize,
    /// Acquisitions of `state` by workers ([`BatchStats::sync_locks`]).
    sync_locks: AtomicUsize,
}

impl<'a, S: Sink> Sharded<'a, S> {
    /// The runtime-wide id of slot `local`; `base + local` is below the
    /// runtime's `next_id`, a `u32`.
    fn id(&self, local: usize) -> TaskId {
        TaskId((self.base + local) as u32)
    }

    /// Lock the batch state, counting the acquisition
    /// ([`BatchStats::sync_locks`]).
    fn lock_state(&self) -> MutexGuard<'_, SyncState<S>> {
        self.sync_locks.fetch_add(1, Ordering::Relaxed);
        lock(&self.state)
    }

    /// Publish previously enqueued work: one epoch bump, one sleeper check.
    fn announce(&self) {
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

    /// Queue a countdown's newly enabled tasks on the enabling worker
    /// `w`'s own deque in one burst: N owner pushes, then a single epoch
    /// bump and sleeper wakeup instead of N.
    fn dispatch_burst(&self, newly: &[TaskId], w: usize) {
        if newly.is_empty() {
            return;
        }
        for n in newly {
            self.queues[w].push(n.index());
        }
        self.announce();
    }

    /// Pop own queue (newest first), else steal from a random victim
    /// (oldest first). The pop order is a scheduling freedom — only enabled
    /// tasks are ever queued.
    fn try_pick(&self, w: usize, rng: &mut XorShift64) -> Option<(usize, bool)> {
        let own = &self.queues[w];
        if let Some(local) = (own.len_hint() != 0).then(|| own.pop()).flatten() {
            return Some((local, false));
        }
        // Randomized steal: random first victim among the *other* workers,
        // then the rest of the ring — every other queue is probed once (see
        // `steal_order`), so a worker parks only after an exhaustive sweep.
        if self.workers > 1 {
            for v in steal_order(w, self.workers, rng.next()) {
                let q = &self.queues[v];
                if q.len_hint() == 0 {
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

    /// Count down what task `local` gives up — the declaration `release`
    /// names, else on completion every declaration `released` (its
    /// context's flags) does not flag — and dispatch what that enables in
    /// one push burst (DESIGN.md §13.3). Traced batches do it under
    /// `state`, so that events follow the countdown's order.
    fn settle(
        &self,
        w: usize,
        local: usize,
        release: Option<Release>,
        released: &[bool],
        ws: &WorkerScratch,
    ) {
        let mut newly = ws.newly.borrow_mut();
        newly.clear();
        let mut guard = S::ACTIVE.then(|| self.lock_state());
        // The graph numbers tasks by slot. A SeqCst decrement publishes
        // this task's writes to the worker that takes a count to zero,
        // before it queues the task the count guards.
        self.graph.give_up(
            TaskId(local as u32),
            release.map(|r| r.0),
            released,
            |row| {
                for &s in row {
                    let before = self.left[s.index()].fetch_sub(1, Ordering::SeqCst);
                    debug_assert_ne!(before, 0, "{s:?} counted down past zero");
                    if before == 1 {
                        newly.push(s);
                    }
                }
            },
        );
        if release.is_none() {
            ws.done.set(ws.done.get() + 1);
        }
        if let Some(st) = guard.as_deref_mut() {
            let (t, id) = (st.tick(), self.id(local));
            match release {
                Some((_, object)) => {
                    (st.events).emit_obj(t, w, EventKind::AccessReleased, Some(id), object)
                }
                None => st.events.emit_task(t, w, EventKind::TaskCompleted, id),
            }
            for s in newly.iter() {
                (st.events).emit_task(t, w, EventKind::TaskEnabled, self.id(s.index()));
            }
        }
        drop(guard);
        self.dispatch_burst(&newly, w);
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
        let id = self.id(local);
        let attempt = slot.attempt.load(Ordering::Relaxed);
        let injected = self
            .faults
            .as_ref()
            .is_some_and(|plan| plan.task_fails(id.0 as u64, attempt));
        stats.executed += 1;
        // A task runs where it was queued unless it is stolen: that is
        // this backend's whole notion of locality.
        if stolen {
            stats.steals += 1;
        } else {
            stats.locality_hits += 1;
        }
        if S::ACTIVE {
            let mut st = self.lock_state();
            let t = st.tick();
            let locality = if stolen {
                Locality::Miss
            } else {
                Locality::Hit
            };
            st.events
                .emit_task(t, w, EventKind::TaskDispatched { stolen, locality }, id);
            st.events.emit_task(t, w, EventKind::TaskStarted, id);
        }

        // Mid-task releases (Jade's pipelining statements) count down the
        // released declaration's successors at once; completion then skips
        // it, by the context's flags. `TaskCtx` lets a task release only
        // what it declared, once.
        let hook = |decl: usize, obj: ObjectId| self.settle(w, local, Some((decl, obj)), &[], ws);
        let ctx = TaskCtx::with_release_hook(self.store, id, slot.label, &slot.spec, &hook);
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
            body(&ctx);
        }));

        match result {
            Ok(()) => {
                self.settle(w, local, None, &ctx.into_released(), ws);
                true
            }
            Err(_) if injected && attempt + 1 < MAX_TASK_ATTEMPTS => {
                // Recovery: re-queue the task on this worker's own deque,
                // where it is popped next unless a thief takes it first;
                // the bumped attempt number re-rolls the fault hash. The
                // execution and start tallies above deliberately count the
                // failed attempt — they match the event stream's
                // `tasks_started`.
                slot.attempt.store(attempt + 1, Ordering::Relaxed);
                stats.recoveries += 1;
                // The state lock is only needed for events: untraced
                // batches recover without touching it.
                if S::ACTIVE {
                    let mut st = self.lock_state();
                    let t = st.tick();
                    st.events.emit(t, w, EventKind::WorkerFailed);
                    let t = st.tick();
                    st.events.emit_task(t, w, EventKind::TaskReExecuted, id);
                }
                *lock(&slot.body) = Some(body);
                self.queues[w].push(local);
                self.announce();
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
    // `ws` holds the worker's enable scratch, recycled across
    // batches; an aborted batch may have left completions in it.
    let ws = &*ws;
    ws.done.set(0);
    loop {
        if sh.live.load(Ordering::SeqCst) == 0 || sh.panicked.load(Ordering::SeqCst) {
            sh.wake_all();
            return stats;
        }
        // Epoch read precedes the scan: any push racing the scan either
        // lands in it or changes the epoch and defeats the park below.
        let epoch = sh.epoch.load(Ordering::SeqCst);
        match sh.try_pick(w, &mut rng) {
            Some((local, stolen)) => {
                if !sh.execute(w, local, stolen, &mut stats, ws) {
                    return stats;
                }
            }
            None => {
                // Out of work; every completion this worker made has
                // already enabled its successors, and now counts in
                // `live` too, before the worker could park (the one that
                // takes `live` to zero finds it so and wakes the rest).
                sh.live.fetch_sub(ws.done.take(), Ordering::SeqCst);
                sh.park(epoch);
            }
        }
    }
}

impl ThreadRuntime {
    fn run_sharded<S: Sink + Send>(&mut self, events: S) {
        let workers = self.workers;
        self.arena.prepare(workers);
        let n = self.arena.slots.len();
        let base = self.next_id as usize - n;
        let mut state = SyncState {
            events,
            clock: self.event_clock,
        };
        // Split the arena into its disjoint slabs: the workers share the
        // queues, the task slots and the graph; each worker additionally
        // gets exclusive use of its own `scratch` slot.
        let SchedArena {
            queues,
            slots,
            graph,
            left,
            scratch,
            ..
        } = &mut self.arena;
        // Register in serial program order, and deal the k-th initially
        // enabled task to worker `k % workers`. These are owner pushes made
        // before any worker exists: the spawn below is a happens-before
        // edge to every worker.
        let queues = &queues[..workers];
        let mut ready = 0;
        for (i, &preds) in graph.preds().iter().enumerate() {
            let t = state.tick();
            let id = TaskId((base + i) as u32);
            state.events.emit_task(t, 0, EventKind::TaskCreated, id);
            if preds == 0 {
                state.events.emit_task(t, 0, EventKind::TaskEnabled, id);
                queues[ready % workers].push(i);
                ready += 1;
            }
        }
        let sh = Sharded {
            queues,
            slots,
            graph,
            left,
            state: Mutex::new(state),
            live: AtomicU32::new(n as u32),
            epoch: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            idle: Mutex::new(()),
            cv: Condvar::new(),
            panicked: AtomicBool::new(false),
            panic: Mutex::new(None),
            faults: self.faults,
            store: &self.store,
            base,
            workers,
            sync_locks: AtomicUsize::new(0),
        };
        let mut merged = BatchStats::default();
        std::thread::scope(|scope| {
            let handles: Vec<_> = scratch[..workers]
                .iter_mut()
                .enumerate()
                .map(|(w, ws)| {
                    let sh = &sh;
                    // A panic outside the body's catch_unwind is a runtime
                    // bug (a ready queue over capacity, say): record it and
                    // wake every worker, as a body's panic does. Left to
                    // the joins below, which go in order, it would wait
                    // behind a worker parked for work that never comes.
                    scope.spawn(move || {
                        let run = catch_unwind(AssertUnwindSafe(|| sharded_worker(w, sh, ws)));
                        run.unwrap_or_else(|p| {
                            sh.record_panic(p);
                            BatchStats::default()
                        })
                    })
                })
                .collect();
            for h in handles {
                merged.absorb(&h.join().expect("a worker's panic is caught"));
            }
        });
        let Sharded {
            state,
            live,
            panic,
            sync_locks,
            ..
        } = sh;
        // Every executed body went with its worker; what an aborted batch
        // never ran goes here.
        slots.clear();
        let st = state.into_inner().unwrap_or_else(|e| e.into_inner());
        self.event_clock = st.clock;
        self.events.extend(st.events.into_events());
        merged.sync_locks = sync_locks.into_inner();
        self.last_stats = merged;
        self.total_stats.absorb(&merged);
        if let Some(p) = panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
            // A genuine panic aborts the batch. Restart task numbering and
            // the object table so that the same runtime runs a subsequent
            // clean batch as a new one would. Stats for the aborted batch
            // were stored above; its partial events remain in the stream.
            self.arena.graph = DepGraph::default();
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
    fn enabled_tasks_stay_on_the_enabling_worker_unless_stolen() {
        // Each task runs on the worker whose deque it was queued on (the
        // one that enabled it, dealt it at setup or recovered it) unless it
        // is stolen, so every execution is a locality hit or a steal. One
        // worker has no one to steal from. A traced run labels each
        // dispatch the same way, so the fold equals the stats. Chains with
        // mid-task releases and injected failures cover all three ways
        // onto a deque.
        let run = |workers: usize, traced: bool| {
            let mut rt = ThreadRuntime::new(workers);
            if traced {
                rt.enable_events();
            }
            rt.inject_faults(FaultPlan {
                panic_p: 0.2,
                seed: 11,
                ..FaultPlan::none()
            });
            let counters: Vec<_> = (0..8)
                .map(|i| rt.create(&format!("c{i}"), 8, 0u64))
                .collect();
            let total = rt.create("total", 8, 0u64);
            for _ in 0..16 {
                for &c in &counters {
                    rt.submit(TaskBuilder::new("inc").rd_wr(c).body(move |ctx| {
                        *ctx.wr(c) += 1;
                        ctx.release(c);
                    }));
                }
            }
            let mut sum = TaskBuilder::new("sum").wr(total);
            for &c in &counters {
                sum = sum.rd(c);
            }
            let cs = counters.clone();
            rt.submit(sum.body(move |ctx| {
                *ctx.wr(total) = cs.iter().map(|&c| *ctx.rd(c)).sum();
            }));
            rt.finish();
            assert_eq!(*rt.store().read(total), 8 * 16, "{workers}w");
            let s = rt.last_stats();
            assert_eq!(s.executed, 8 * 16 + 1 + s.recoveries, "{workers}w");
            assert_eq!(s.locality_hits + s.steals, s.executed, "{workers}w");
            if workers == 1 {
                assert_eq!(s.steals, 0);
            }
            if traced {
                let m = jade_core::Metrics::from_events(&rt.take_events(), workers);
                assert_eq!(m.tasks_started, s.executed, "{workers}w");
                assert_eq!(m.steals as usize, s.steals, "{workers}w");
                assert_eq!(m.locality_hits, s.locality_hits, "{workers}w");
                assert_eq!(m.locality_tracked, s.executed, "{workers}w");
            }
            s.recoveries
        };
        for workers in [1, 2, 4] {
            for traced in [false, true] {
                assert!(run(workers, traced) > 0, "{workers}w: p=0.2 must inject");
            }
        }
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
        // recovered by re-execution from the recovering worker's own deque.
        // Results must be
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
        assert_eq!(rt.arena.graph.objects(), 0, "the object table restarts");
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
    fn a_checkpoint_interval_in_the_plan_changes_nothing() {
        // `ckpt=` is validated and ignored: an injected crash unwinds
        // before the body runs, so there is nothing to restore. With and
        // without it the runtime computes the same results, makes the same
        // recoveries, and records no checkpoint; one traced worker records
        // the same stream.
        let run = |workers: usize, spec: &str| {
            let mut rt = ThreadRuntime::new(workers);
            rt.enable_events();
            rt.try_inject_faults(FaultPlan::parse(spec).unwrap())
                .expect("a valid plan is accepted");
            let values = reference_workload(&mut rt);
            (values, rt.last_stats().recoveries, rt.take_events())
        };
        let serial = reference_workload(&mut jade_core::TraceRuntime::new());
        for workers in [1, 4] {
            let (values, recoveries, events) = run(workers, "panic=0.3,seed=42,ckpt=3");
            let (plain_values, plain_recoveries, plain_events) = run(workers, "panic=0.3,seed=42");
            assert_eq!(values, serial, "{workers}w");
            assert_eq!(values, plain_values, "{workers}w");
            assert!(recoveries > 0, "{workers}w: p=0.3 must inject");
            assert_eq!(recoveries, plain_recoveries, "{workers}w");
            assert!(!events.iter().any(|e| matches!(
                e.kind,
                EventKind::CheckpointTaken { .. } | EventKind::CheckpointRestored { .. }
            )));
            if workers == 1 {
                assert_eq!(events, plain_events, "one-worker streams differ");
            }
        }
        // An interval the plan's own validation rejects is still an error,
        // and leaves the runtime unconfigured.
        let mut rt = ThreadRuntime::new(2);
        let plan = FaultPlan {
            checkpoint: Some(dsim::SimDuration(u64::MAX)),
            ..FaultPlan::none()
        };
        let err = rt.try_inject_faults(plan).unwrap_err();
        assert!(err.contains("ckpt"), "error names the knob: {err}");
        assert!(rt.faults.is_none());
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
        // pops its own queue newest-first).
        let run = || {
            let mut rt = ThreadRuntime::new(1);
            rt.enable_events();
            let values = reference_workload(&mut rt);
            (values, rt.take_events())
        };
        let serial = reference_workload(&mut jade_core::TraceRuntime::new());
        let (va, ea) = run();
        let (vb, eb) = run();
        assert_eq!(va, serial, "one worker must compute the serial result");
        assert_eq!(vb, va);
        jade_core::check_lifecycle(&ea).unwrap();
        assert_eq!(ea, eb, "one-worker event streams differ between runs");
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

    /// Spin until `flag` is set, yielding; `false` after 30 s. The bound
    /// only turns a scheduler bug into a failure instead of a hang.
    fn spin_until(flag: &AtomicUsize) -> bool {
        let give_up = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while flag.load(Ordering::SeqCst) == 0 {
            if std::time::Instant::now() > give_up {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    #[test]
    fn forced_steal_workload_pins_steal_accounting() {
        // Two workers; a blocker releases `gate` mid-task, which enables
        // every consumer onto its own worker's deque, and then holds that
        // worker until all consumers have run. So every consumer MUST be
        // stolen by the other worker. The blocker itself is stolen too if
        // the worker it was dealt to is slow to start; the traced stream
        // says whether it was, which pins `stats.steals` exactly.
        const CONSUMERS: usize = 12;
        let mut rt = ThreadRuntime::new(2);
        rt.enable_events();
        let done = Arc::new(AtomicUsize::new(0));
        let all_done = Arc::new(AtomicUsize::new(0));
        let gate = rt.create("gate", 8, 0u64);
        let blocker_out = rt.create("blocker", 8, 0u64);
        let waited = all_done.clone();
        rt.submit(
            TaskBuilder::new("blocker")
                .wr(gate)
                .wr(blocker_out)
                .body(move |ctx| {
                    *ctx.wr(gate) = 1;
                    ctx.release(gate);
                    *ctx.wr(blocker_out) = u64::from(spin_until(&waited));
                }),
        );
        let outs: Vec<_> = (0..CONSUMERS)
            .map(|i| rt.create(&format!("c{i}"), 8, 0u64))
            .collect();
        for (i, &o) in outs.iter().enumerate() {
            let (done, all_done) = (done.clone(), all_done.clone());
            rt.submit(
                TaskBuilder::new("consumer")
                    .rd(gate)
                    .wr(o)
                    .body(move |ctx| {
                        *ctx.wr(o) = *ctx.rd(gate) + i as u64;
                        if done.fetch_add(1, Ordering::SeqCst) + 1 == CONSUMERS {
                            all_done.store(1, Ordering::SeqCst);
                        }
                    }),
            );
        }
        rt.finish();
        assert_eq!(
            *rt.store().read(blocker_out),
            1,
            "the consumers were not stolen"
        );
        for (i, &o) in outs.iter().enumerate() {
            assert_eq!(*rt.store().read(o), i as u64 + 1);
        }
        let dispatches: Vec<_> = (rt.take_events().iter())
            .filter_map(|e| match e.kind {
                EventKind::TaskDispatched { stolen, .. } => Some((e.task, stolen)),
                _ => None,
            })
            .collect();
        assert_eq!(dispatches.len(), CONSUMERS + 1);
        // The blocker's release enables the consumers, so it goes first.
        assert_eq!(dispatches[0].0, Some(TaskId(0)));
        let blocker_stolen = usize::from(dispatches[0].1);
        assert!(
            dispatches[1..].iter().all(|d| d.1),
            "every consumer must be stolen"
        );
        let s = rt.last_stats();
        assert_eq!(s.executed, CONSUMERS + 1);
        assert_eq!(s.steals, CONSUMERS + blocker_stolen);
        assert_eq!(s.locality_hits, 1 - blocker_stolen);
    }

    #[test]
    fn completion_enables_the_successor_before_its_worker_parks() {
        // A short dependency chain with more workers than work: every
        // completion must enable its successor before the worker that ran
        // it parks, or the run hangs with idle workers. (A deferred,
        // buffered completion once made exactly this hang.)
        let mut rt = ThreadRuntime::new(4);
        let x = rt.create("x", 8, 0u64);
        for _ in 0..4 {
            rt.submit(TaskBuilder::new("inc").rd_wr(x).body(move |ctx| {
                *ctx.wr(x) += 1;
            }));
        }
        rt.finish();
        assert_eq!(*rt.store().read(x), 4);
    }

    #[test]
    fn untraced_completions_take_no_state_lock() {
        // Overhead-dominated independent tasks: an untraced batch
        // completes every task by atomic countdown, so it takes the state
        // lock not once.
        //
        // `fan` is dealt to worker 0 and enables the work on its deque;
        // `hold` is dealt to worker 1 and pins it until every work body
        // has run: at most one steal (`hold` itself, if worker 1 never got
        // going), whatever the host does.
        const WORK: usize = 398;
        let mut rt = ThreadRuntime::new(2);
        let ran = Arc::new(AtomicUsize::new(0));
        let src = rt.create("src", 8, 0u64);
        rt.submit(
            TaskBuilder::new("fan")
                .wr(src)
                .body(move |ctx| *ctx.wr(src) = 1),
        );
        let outs: Vec<_> = (0..WORK)
            .map(|i| rt.create(&format!("o{i}"), 8, 0u64))
            .collect();
        for (i, &o) in outs.iter().enumerate() {
            let ran = ran.clone();
            rt.submit(TaskBuilder::new("w").rd(src).wr(o).body(move |ctx| {
                *ctx.wr(o) = i as u64 + *ctx.rd(src);
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
        let seen = ran.clone();
        rt.submit(TaskBuilder::new("hold").body(move |_| {
            // Bounded only so a scheduler bug fails instead of hanging.
            let give_up = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while seen.load(Ordering::SeqCst) < WORK && std::time::Instant::now() < give_up {
                std::hint::spin_loop();
            }
        }));
        rt.finish();
        assert_eq!(ran.load(Ordering::SeqCst), WORK);
        for (i, &o) in outs.iter().enumerate() {
            assert_eq!(*rt.store().read(o), i as u64 + 1);
        }
        let st = rt.last_stats();
        assert_eq!(st.executed, WORK + 2);
        assert!(st.steals <= 1, "{} steals", st.steals);
        assert_eq!(st.sync_locks, 0, "untraced completions take no lock");
    }

    #[test]
    fn only_traced_batches_take_the_state_lock() {
        let run = |traced: bool| {
            let mut rt = ThreadRuntime::new(2);
            if traced {
                rt.enable_events();
            }
            let x = rt.create("x", 8, 0u64);
            for _ in 0..20 {
                rt.submit(TaskBuilder::new("inc").rd_wr(x).body(move |ctx| {
                    *ctx.wr(x) += 1;
                    ctx.release(x);
                }));
            }
            rt.finish();
            assert_eq!(*rt.store().read(x), 20);
            rt.last_stats().sync_locks
        };
        assert_eq!(run(false), 0);
        // Traced, a completion and a release each count down under the
        // lock, and dispatch and start take it once more per task.
        assert_eq!(run(true), 60);
    }

    #[test]
    fn a_released_declaration_is_counted_down_once() {
        // `b` waits for `d` (through `z`) and for `a` (through `x`, which
        // `a` releases mid-task). One worker runs `a` first (its queue pops
        // newest-first); `a`'s completion must not count `x` down again,
        // or `b` would run before `d` and append to `z` out of order.
        let mut rt = ThreadRuntime::new(1);
        let x = rt.create("x", 8, Vec::<u32>::new());
        let y = rt.create("y", 8, Vec::<u32>::new());
        let z = rt.create("z", 8, Vec::<u32>::new());
        rt.submit(
            TaskBuilder::new("d")
                .wr(z)
                .body(move |ctx| ctx.wr(z).push(0)),
        );
        rt.submit(TaskBuilder::new("a").wr(x).wr(y).body(move |ctx| {
            ctx.wr(x).push(1);
            ctx.release(x);
            ctx.wr(y).push(1);
        }));
        rt.submit(TaskBuilder::new("b").rd_wr(x).rd_wr(z).body(move |ctx| {
            ctx.wr(x).push(2);
            ctx.wr(z).push(2);
        }));
        rt.finish();
        assert_eq!(*rt.store().read(z), [0, 2]);
        assert_eq!(*rt.store().read(x), [1, 2]);
        assert_eq!(rt.last_stats().sync_locks, 0);
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
    fn enabled_task_is_queued_while_its_body_slot_is_locked() {
        // Worker 0's completion of `a` enables `b` and queues it on worker
        // 0's own deque, reading nothing of `b`'s slot. The test holds
        // `b`'s body mutex throughout: a dispatch path that took it would
        // never finish the countdown.
        let mut store = Store::new();
        let x = store.create("x", 8, 0u64);
        let mut arena = SchedArena::default();
        arena.push(TaskBuilder::new("a").wr(x).body(|_| {}));
        arena.push(TaskBuilder::new("b").rd(x).body(|_| {}));
        arena.prepare(2);
        assert_eq!(arena.graph.preds(), [0, 1]);
        let sh = Sharded {
            queues: &arena.queues,
            slots: &arena.slots,
            graph: &arena.graph,
            left: &arena.left,
            state: Mutex::new(SyncState {
                events: NullSink,
                clock: 0,
            }),
            live: AtomicU32::new(2),
            epoch: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            idle: Mutex::new(()),
            cv: Condvar::new(),
            panicked: AtomicBool::new(false),
            panic: Mutex::new(None),
            faults: None,
            store: &store,
            base: 0,
            workers: 2,
            sync_locks: AtomicUsize::new(0),
        };
        let held = lock(&sh.slots[1].body);
        let (done, settled) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let sh = &sh;
            scope.spawn(move || {
                let ws = WorkerScratch::default();
                sh.settle(0, 0, None, &[], &ws);
                assert_eq!(sh.live.load(Ordering::SeqCst), 2, "held back");
                sh.live.fetch_sub(ws.done.take(), Ordering::SeqCst);
                done.send(()).unwrap();
            });
            let waited = settled.recv_timeout(std::time::Duration::from_secs(10));
            // Let a blocked countdown through before the scope joins it.
            drop(held);
            waited.expect("queueing an enabled task waited for its body mutex");
        });
        assert_eq!(sh.queues[1].len_hint(), 0);
        assert_eq!(sh.queues[0].steal(), Some(1), "`b` stays on worker 0");
        assert_eq!(sh.live.load(Ordering::SeqCst), 1);
        assert_eq!(sh.sync_locks.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn work_enabled_on_a_busy_worker_is_stolen() {
        // Liveness: a task enabled onto the deque of a worker that never
        // goes idle must still be reachable by thieves. `blocker` releases
        // `x` mid-task, which queues `b` on its own worker's deque, and
        // then holds that worker until `b` has run: only the other worker
        // can run it, by stealing it.
        let mut rt = ThreadRuntime::new(2);
        let b_ran = Arc::new(AtomicUsize::new(0));
        let x = rt.create("x", 8, 0u64);
        let y = rt.create("y", 8, 0u64);
        let flag = rt.create("flag", 8, 0u64);
        let waited = b_ran.clone();
        rt.submit(TaskBuilder::new("blocker").wr(x).wr(y).body(move |ctx| {
            *ctx.wr(x) = 7;
            ctx.release(x);
            *ctx.wr(y) = u64::from(spin_until(&waited));
        }));
        let ran = b_ran.clone();
        rt.submit(TaskBuilder::new("b").rd(x).wr(flag).body(move |ctx| {
            *ctx.wr(flag) = *ctx.rd(x) + 1;
            ran.store(1, Ordering::SeqCst);
        }));
        rt.finish();
        assert_eq!(*rt.store().read(y), 1, "`b` was not stolen");
        assert_eq!(*rt.store().read(flag), 8);
        let s = rt.last_stats();
        assert_eq!(s.executed, 2);
        assert!(s.steals >= 1);
    }

    #[test]
    fn completion_enables_successors_before_a_stolen_task_runs() {
        // Worker 1 runs `a`, then steals `blocker` — which spins until `b`,
        // a successor of `a`, has run. Unless `a`'s completion enabled `b`
        // before the stolen task starts (a completion deferred in a buffer
        // once did not), the batch deadlocks. Setup deals the ready tasks
        // round-robin in submission order, so queue 0 holds `blocker` then
        // `z` and queue 1 holds `a`: worker 0 pops the newest entry (`z`)
        // and is pinned inside it until `blocker` has started, and only
        // the thief can start `blocker`, from the top of queue 0.
        let mut rt = ThreadRuntime::new(2);
        let started = Arc::new(AtomicUsize::new(0));
        let b_ran = Arc::new(AtomicUsize::new(0));
        let timed_out = Arc::new(AtomicUsize::new(0));
        let x = rt.create("x", 8, 0u64);
        let out = rt.create("out", 8, 0u64);
        let (s0, d0, t0) = (started.clone(), b_ran.clone(), timed_out.clone());
        rt.submit(TaskBuilder::new("blocker").body(move |_| {
            s0.store(1, Ordering::SeqCst);
            if !spin_until(&d0) {
                t0.store(1, Ordering::SeqCst);
            }
        }));
        rt.submit(TaskBuilder::new("a").wr(x).body(move |ctx| *ctx.wr(x) = 7));
        let (s1, t1) = (started.clone(), timed_out.clone());
        rt.submit(TaskBuilder::new("z").body(move |_| {
            if !spin_until(&s1) {
                t1.store(1, Ordering::SeqCst);
            }
        }));
        let d1 = b_ran.clone();
        rt.submit(TaskBuilder::new("b").rd(x).wr(out).body(move |ctx| {
            *ctx.wr(out) = *ctx.rd(x) + 1;
            d1.store(1, Ordering::SeqCst);
        }));
        rt.finish();
        assert_eq!(
            timed_out.load(Ordering::SeqCst),
            0,
            "`b` was withheld behind the stolen task"
        );
        assert_eq!(*rt.store().read(out), 8);
    }
}
