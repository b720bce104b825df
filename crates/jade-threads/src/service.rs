//! A long-lived multi-tenant Jade service over the shared worker pool.
//!
//! [`ThreadRuntime`](crate::ThreadRuntime) executes one program's task DAG
//! per batch and tears its scheduler down afterwards. This module is the
//! request-level front end the ROADMAP's "heavy traffic" north star asks
//! for: a [`JadeService`] owns a pool of long-lived worker threads and
//! admits a *stream* of independent program DAGs ([`Program`]s). Each
//! admitted tenant gets its own [`Synchronizer`], its own [`Store`] and its
//! own event stream (tagged with a [`TenantId`]); all tenants share the
//! worker pool and the write-owner locality table mechanism.
//!
//! Robustness contracts, in order of importance:
//!
//! * **Admission control / backpressure.** At most `max_active` tenants are
//!   resident; further submissions queue in a bounded pending queue. A full
//!   queue never panics and never buffers unboundedly: depending on
//!   [`ShedPolicy`] the new submission is rejected with
//!   [`SubmitError::Overloaded`] or the *oldest* pending DAG is shed (its
//!   report resolves to [`Outcome::Shed`]).
//! * **Tenant fault isolation.** Task bodies run under the same
//!   catch-unwind crash path as `ThreadRuntime`: injected crashes (a
//!   tenant's [`FaultPlan`], keyed purely on `(seed, task, attempt)`) are
//!   re-executed to a bit-identical result; a *genuine* panic fails only
//!   its own tenant ([`Outcome::Failed`]) — the pool keeps running and
//!   every other tenant's outputs and deterministic counters are exactly
//!   what they would be running alone.
//! * **Deadlines.** A tenant may carry a wall-clock deadline (the budget
//!   starts at submission, so time spent queued counts). An expired tenant
//!   stops being dispatched, its remaining tasks are cancelled, running
//!   tasks drain, and the report resolves to [`Outcome::DeadlineExceeded`]
//!   with partial per-tenant metrics — the pool is never wedged. (The
//!   simulators carry the same budget as a `SimDuration` through
//!   `dsim::SimBudget` / `IpscConfig::deadline`.)
//! * **Fair scheduling.** Workers scan tenants round-robin (optionally
//!   weighted): a tenant with continuously ready work is served again
//!   after at most Σ other tenants' weights dispatches — the starvation
//!   bound asserted in the tests.
//! * **Cost per task.** A worker settles a finished task and picks its
//!   next one under a single acquisition of the core lock; a condvar is
//!   notified only when someone is parked on it for that very reason and
//!   has not been notified already (`Core::idle` / `waking`, `awaited`),
//!   `work` never under the lock; a retired tenant's slabs serve the next
//!   one. Protocol and no-lost-wake-up argument: DESIGN.md §16.
//! * **Per-tenant metrics.** Every event is recorded in the tenant's own
//!   stream under one service-global logical clock, so
//!   [`TenantReport::tagged_events`] merge into a globally ordered tagged
//!   stream and `Metrics::per_tenant` / `check_lifecycle_per_tenant` split
//!   cleanly.
//!
//! Determinism note: fairness and the global clock order events across
//! tenants nondeterministically, but everything *within* a tenant that Jade
//! semantics pins down — final object values and the interleaving-
//! independent counters — is identical to a solo run of the same program
//! on the same seed (enforced by proptests in `tests/service.rs`).

use crate::{lock, InjectedFailure, OwnerTable, MAX_TASK_ATTEMPTS};
use dsim::FaultPlan;
use jade_core::{
    tag_events, AccessSpec, Event, EventKind, EventSink, Handle, Locality, Metrics, ObjectId,
    Store, Synchronizer, TaggedEvent, TaskBody, TaskCtx, TaskDef, TaskId, TenantId, Transition,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One tenant's program: a private object store plus its task DAG, built
/// up-front and handed to [`JadeService::submit`]. Task ids are
/// tenant-local, starting at zero.
#[derive(Default)]
pub struct Program {
    store: Store,
    tasks: Vec<TaskDef>,
}

impl Program {
    pub fn new() -> Program {
        Program::default()
    }

    /// Create a shared object in this tenant's store.
    pub fn create<T: Send + Sync + 'static>(
        &mut self,
        name: impl Into<String>,
        size_bytes: usize,
        data: T,
    ) -> Handle<T> {
        self.store.create(name, size_bytes, data)
    }

    pub fn store_mut(&mut self) -> &mut Store {
        &mut self.store
    }

    /// Queue a task; tasks execute in declared-access serial order once the
    /// program is admitted.
    pub fn submit(&mut self, def: TaskDef) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(def);
        id
    }

    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }
}

/// What happens when a submission arrives with the pending queue full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Reject the new submission with [`SubmitError::Overloaded`].
    #[default]
    RejectNew,
    /// Admit the new submission and shed the *oldest* still-pending DAG;
    /// its report resolves to [`Outcome::Shed`].
    DropOldest,
}

/// Static configuration of a [`JadeService`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads in the shared pool (minimum 1).
    pub workers: usize,
    /// Tenants resident (registered with a live synchronizer) at once.
    pub max_active: usize,
    /// Bound of the pending-DAG admission queue; `0` disables queueing
    /// entirely (submissions beyond `max_active` shed immediately).
    pub max_pending: usize,
    /// Behavior when the pending queue is full.
    pub shed: ShedPolicy,
    /// Tenant-aware fair-share tuning (DESIGN.md §19): cap how many
    /// consecutive dispatches one tenant receives while other tenants have
    /// ready work, banking the unserved portion of its weighted turn so
    /// long-run weight ratios are preserved. Bounds the dispatch-latency
    /// skew a single heavy tenant can impose on small tenants.
    pub tune: bool,
}

impl ServiceConfig {
    pub fn new(workers: usize) -> ServiceConfig {
        ServiceConfig {
            workers: workers.max(1),
            max_active: 8,
            max_pending: 32,
            shed: ShedPolicy::RejectNew,
            tune: false,
        }
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig::new(2)
    }
}

/// Per-submission options.
#[derive(Clone, Debug, Default)]
pub struct TenantOptions {
    /// Wall-clock budget, measured from submission (queueing time counts).
    pub deadline: Option<Duration>,
    /// Injected-fault plan for this tenant only. `panic_p` crashes task
    /// attempts via the keyed `(seed, task, attempt)` hash; `fail_proc = p`
    /// simulates fail-stop of virtual worker `p`: every task placed on it
    /// (tenant-local id modulo pool width) crashes on its first attempt and
    /// re-executes. Both crash *before* the body runs, so recovery is
    /// bit-identical.
    pub faults: Option<FaultPlan>,
    /// Fair-share weight (0 is treated as 1): consecutive dispatches the
    /// tenant may receive before the round-robin cursor moves on.
    pub weight: u32,
}

impl TenantOptions {
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    pub fn with_weight(mut self, w: u32) -> Self {
        self.weight = w;
        self
    }
}

/// Why a submission was not admitted. Never a panic: overload is an
/// expected operating condition of a loaded service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Active slots and the pending queue are full (under
    /// [`ShedPolicy::RejectNew`]).
    Overloaded { pending: usize, limit: usize },
    /// The service is shutting down.
    ShuttingDown,
    /// The tenant's fault plan failed validation.
    InvalidFaultPlan(String),
    /// The program contains no tasks.
    EmptyProgram,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded { pending, limit } => {
                write!(f, "service overloaded: {pending}/{limit} DAGs pending")
            }
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
            SubmitError::InvalidFaultPlan(why) => write!(f, "invalid fault plan: {why}"),
            SubmitError::EmptyProgram => write!(f, "program has no tasks"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Terminal state of one tenant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Every task completed.
    Completed,
    /// The wall-clock deadline expired; remaining tasks were cancelled.
    DeadlineExceeded,
    /// A task body genuinely panicked (or exhausted the injected-failure
    /// retry budget); remaining tasks were cancelled. The pool survives.
    Failed(String),
    /// Shed from the pending queue under [`ShedPolicy::DropOldest`]
    /// before any task ran.
    Shed,
}

/// Everything a tenant's run produced. The store is shared (`Arc`) because
/// task bodies may still be unwinding when the report is built; readers use
/// [`Store::read`]/[`Store::snapshot`] as usual.
pub struct TenantReport {
    pub tenant: TenantId,
    pub outcome: Outcome,
    pub tasks_total: usize,
    pub tasks_completed: usize,
    /// Tasks never completed (cancelled by a deadline, a failure, or a
    /// shed). Zero iff `outcome == Completed`.
    pub tasks_cancelled: usize,
    /// Injected-crash re-executions recovered inside this tenant.
    pub recoveries: usize,
    pub store: Arc<Store>,
    /// This tenant's event stream. Times are service-global logical
    /// sequence numbers, so merged tagged streams are totally ordered.
    pub events: Vec<Event>,
}

impl TenantReport {
    /// The event stream tagged with this tenant's id, ready to merge with
    /// other tenants' streams for `Metrics::per_tenant` /
    /// `check_lifecycle_per_tenant`.
    pub fn tagged_events(&self) -> Vec<TaggedEvent> {
        tag_events(self.tenant, &self.events)
    }

    /// Per-tenant metrics reconstructed from this tenant's events alone.
    pub fn metrics(&self, procs: usize) -> Metrics {
        Metrics::from_events(&self.events, procs)
    }
}

/// The allocations of one tenant that outlive it: a retired tenant's slot
/// is cleared and parked in [`Core::spares`] for the next registration, so
/// a warmed service registers a DAG without growing any of these.
#[derive(Default)]
struct Slot {
    /// The tenant's tasks, indexed by tenant-local task id.
    tasks: Vec<TenantTask>,
    sync: Synchronizer,
    /// Enabled, not-yet-dispatched tenant-local task indices (FIFO).
    ready: VecDeque<usize>,
    owners: OwnerTable,
}

/// One registered task: the service's counterpart of `ThreadRuntime`'s task
/// slot. Everything here is guarded by the core lock, so it needs neither
/// that slot's body mutex nor its atomics, and its target is optional
/// (`Locality::Untracked`).
struct TenantTask {
    label: &'static str,
    /// Read in place while the task waits (registration, target
    /// selection). It travels with the body to the executing worker, whose
    /// `TaskCtx` needs it off the core lock, and nothing reads the
    /// specification of a running task.
    spec: AccessSpec,
    /// Taken by the executing worker; put back, with the specification, on
    /// an injected crash so the re-execution runs the same body.
    body: Option<TaskBody>,
    attempt: u32,
    /// Locality target recorded when the task became ready (most recent
    /// writer of its declared objects at that moment), if any.
    target: Option<usize>,
}

/// Largest tenant (tasks + declared accesses + objects) whose slot is kept
/// for reuse; a bigger one is dropped at retirement, so one huge DAG cannot
/// pin its slabs for the life of the service.
const SPARE_MAX_ENTRIES: usize = 4096;

/// One resident tenant. All fields are guarded by the service's core lock;
/// only the store (and the executing task's body) escape it.
struct Tenant {
    store: Arc<Store>,
    slot: Slot,
    events: EventSink,
    n_tasks: usize,
    /// Declared accesses over all tasks (sizes the slot, see
    /// [`SPARE_MAX_ENTRIES`]).
    n_decls: usize,
    /// Tasks not yet completed.
    live: usize,
    /// Tasks currently executing on workers.
    running: usize,
    completed: usize,
    recoveries: usize,
    /// Set once cancellation triggers (deadline or failure); the terminal
    /// outcome. Cancelled tenants dispatch nothing further and finalize
    /// when the last running task drains.
    cancel: Option<Outcome>,
    deadline: Option<Instant>,
    faults: Option<FaultPlan>,
    weight: u32,
    /// Unserved dispatches banked when the controller cut this tenant's
    /// weighted turn short ([`ServiceConfig::tune`]); restored as the grant
    /// of its next turn so long-run weight ratios survive the cap.
    carry: u32,
}

/// A submission waiting for an active slot. `submit` allocates what leaves
/// with the report (`store`, `events`) before it locks: no admission path
/// (`submit`'s own, a worker's `pump_admissions`) allocates under the lock.
struct PendingTenant {
    id: u32,
    tasks: Vec<TaskDef>,
    store: Arc<Store>,
    events: Vec<Event>,
    deadline: Option<Instant>,
    faults: Option<FaultPlan>,
    weight: u32,
}

#[derive(Default)]
struct Core {
    active: BTreeMap<u32, Tenant>,
    pending: VecDeque<PendingTenant>,
    finished: HashMap<u32, TenantReport>,
    next_id: u32,
    /// Tenant currently holding the round-robin turn.
    rr_cursor: u32,
    /// Dispatches left in the cursor tenant's turn (its weight, counted
    /// down; at zero the next scan starts after the cursor).
    rr_credit: u32,
    /// Consecutive dispatches the cursor tenant has received in its current
    /// stretch; the tuned policy forces a handoff when this reaches the
    /// controller's credit cap while other tenants have ready work.
    burst: u32,
    /// Fair-share feedback controller ([`ServiceConfig::tune`]).
    ctl: jade_core::Controller,
    /// Service-global logical event clock shared by every tenant's stream.
    clock: u64,
    shutdown: bool,
    /// Workers parked on `work` (or woken and not yet back under the lock).
    /// With `waking` and `awaited` this is the wake protocol of DESIGN.md
    /// §16: all three are written only under the core lock, so a notifier
    /// holding the lock knows whether anyone needs a wake-up.
    idle: usize,
    /// Notifications sent to parked workers and not yet consumed by a
    /// worker coming back under the lock: `waking <= idle`.
    waking: usize,
    /// Tenant ids some `wait` caller is parked on, one entry per caller.
    awaited: Vec<u32>,
    /// Ready tasks over all resident tenants (`Σ slot.ready.len()`; a
    /// cancelled tenant's queue is empty).
    ready_tasks: usize,
    /// Resident tenants carrying a deadline; the clock is read and
    /// deadlines are swept only while this is non-zero.
    deadlines: usize,
    /// Retired tenants' cleared slots, at most `max_active` of them.
    spares: Vec<Slot>,
    /// Scratch for the tasks one transition enables.
    newly: Vec<TaskId>,
    #[cfg(test)]
    probe: tests::Probe,
}

/// Bump one of the `tests::Probe` counts; compiled out of non-test builds.
macro_rules! probe {
    ($core:expr, $count:ident) => {
        #[cfg(test)]
        {
            $core.probe.$count += 1;
        }
    };
}

impl Core {
    fn tick(&mut self) -> u64 {
        let t = self.clock;
        self.clock += 1;
        t
    }

    /// Decide whether to wake one parked worker for ready work the caller
    /// will not run itself; on `true` the caller owes `work` a `notify_one`
    /// once the guard is dropped ([`unlock_and_wake`]). A worker that is not
    /// parked picks before it parks, so with `idle == 0` there is nobody to
    /// tell; one that is parked is told once, so neither with `idle == waking`.
    #[must_use]
    fn wake_worker(&mut self) -> bool {
        debug_assert!(self.waking <= self.idle);
        let wake = self.idle > self.waking;
        if wake {
            self.waking += 1;
            probe!(self, work_notifies);
        }
        wake
    }

    /// Tenant `id`'s report just landed in `finished`: wake the `wait`
    /// callers if one of them is parked on it. (They share one condvar, so
    /// the others look and park again.)
    fn wake_waiters(&mut self, inner: &Inner, id: u32) {
        if self.awaited.contains(&id) {
            probe!(self, done_notifies);
            inner.done.notify_all();
        }
    }
}

struct Inner {
    cfg: ServiceConfig,
    core: Mutex<Core>,
    /// Workers park here when no tenant has ready work; notified as
    /// `Core::wake_worker` decides (and at shutdown), never under the lock.
    work: Condvar,
    /// `wait` callers park here until their report lands in `finished`;
    /// notified only for an id in `Core::awaited`.
    done: Condvar,
}

/// A task picked for execution; everything `execute` needs off-lock.
struct Picked {
    tenant: u32,
    local: usize,
    label: &'static str,
    spec: AccessSpec,
    body: TaskBody,
    attempt: u32,
    injected: bool,
    store: Arc<Store>,
}

/// The long-lived multi-tenant front end. See the module docs for the
/// contracts; see `repro service-stress` for the acceptance harness.
pub struct JadeService {
    inner: Arc<Inner>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl JadeService {
    pub fn new(cfg: ServiceConfig) -> JadeService {
        let cfg = ServiceConfig {
            workers: cfg.workers.max(1),
            max_active: cfg.max_active.max(1),
            ..cfg
        };
        let inner = Arc::new(Inner {
            cfg,
            core: Mutex::new(Core::default()),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let threads = (0..cfg.workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("jade-svc-{w}"))
                    .spawn(move || worker_loop(&inner, w))
                    .expect("spawn service worker")
            })
            .collect();
        JadeService { inner, threads }
    }

    pub fn workers(&self) -> usize {
        self.inner.cfg.workers
    }

    /// Decisions the fair-share controller has taken so far. Empty unless
    /// [`ServiceConfig::tune`] is set.
    pub fn tune_log(&self) -> jade_core::TuneLog {
        lock(&self.inner.core).ctl.log.clone()
    }

    /// Submit a tenant program. Returns its [`TenantId`] (pass to
    /// [`wait`](Self::wait)) or an explicit [`SubmitError`] — admission
    /// never panics and never queues unboundedly.
    pub fn submit(&self, prog: Program, opts: TenantOptions) -> Result<TenantId, SubmitError> {
        if prog.tasks.is_empty() {
            return Err(SubmitError::EmptyProgram);
        }
        if let Some(plan) = &opts.faults {
            plan.validate().map_err(SubmitError::InvalidFaultPlan)?;
        }
        let deadline = opts.deadline.map(|d| Instant::now() + d);
        let weight = opts.weight.max(1);
        let Program { store, tasks } = prog;
        let store = Arc::new(store);
        // Five events per task (created, enabled, dispatched, started,
        // completed): a fault-free tenant's stream never reallocates.
        let events = Vec::with_capacity(5 * tasks.len());
        let mut core = lock(&self.inner.core);
        if core.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if core.active.len() >= self.inner.cfg.max_active
            && core.pending.len() >= self.inner.cfg.max_pending
        {
            match self.inner.cfg.shed {
                ShedPolicy::RejectNew => {
                    return Err(SubmitError::Overloaded {
                        pending: core.pending.len(),
                        limit: self.inner.cfg.max_pending,
                    });
                }
                ShedPolicy::DropOldest => {
                    if let Some(old) = core.pending.pop_front() {
                        let report = shed_report(&old);
                        core.finished.insert(old.id, report);
                        core.wake_waiters(&self.inner, old.id);
                    } else {
                        // max_pending == 0: nothing to shed, reject.
                        return Err(SubmitError::Overloaded {
                            pending: 0,
                            limit: 0,
                        });
                    }
                }
            }
        }
        let id = core.next_id;
        core.next_id += 1;
        let pend = PendingTenant {
            id,
            tasks,
            store,
            events,
            deadline,
            faults: opts.faults,
            weight,
        };
        let wake = if core.active.len() < self.inner.cfg.max_active {
            // A free slot means `pending` is empty (the park invariant, see
            // `pick`), so registering here does not jump the queue.
            register_tenant(&mut core, pend);
            core.wake_worker()
        } else {
            // Every slot is taken: nothing a worker could do about it now.
            // The worker that frees a slot admits from `pending` itself.
            core.pending.push_back(pend);
            false
        };
        unlock_and_wake(&self.inner, core, wake);
        Ok(TenantId(id))
    }

    /// Block until tenant `id`'s report is ready and take it. Each report
    /// can be taken exactly once.
    ///
    /// # Panics
    ///
    /// If `id` was never issued by this service or its report was already
    /// taken.
    pub fn wait(&self, id: TenantId) -> TenantReport {
        let mut core = lock(&self.inner.core);
        loop {
            if let Some(r) = core.finished.remove(&id.0) {
                return r;
            }
            assert!(
                id.0 < core.next_id
                    && (core.active.contains_key(&id.0)
                        || core.pending.iter().any(|p| p.id == id.0)),
                "unknown or already-taken tenant {id}"
            );
            core.awaited.push(id.0);
            core = self
                .inner
                .done
                .wait(core)
                .unwrap_or_else(|e| e.into_inner());
            let at = core.awaited.iter().position(|&a| a == id.0);
            core.awaited
                .swap_remove(at.expect("this caller registered"));
        }
    }

    /// Take tenant `id`'s report if it is already finished. (A `wait`
    /// caller parked on `id` was notified when the report landed; it finds
    /// the report gone and panics as documented, it does not sleep on.)
    pub fn try_take(&self, id: TenantId) -> Option<TenantReport> {
        lock(&self.inner.core).finished.remove(&id.0)
    }

    /// Tenants currently pending admission (backpressure observability).
    pub fn pending_len(&self) -> usize {
        lock(&self.inner.core).pending.len()
    }

    /// Tenants currently resident.
    pub fn active_len(&self) -> usize {
        lock(&self.inner.core).active.len()
    }

    /// Stop accepting submissions, drain every admitted tenant, and join
    /// the worker pool. Unclaimed reports are dropped.
    pub fn shutdown(mut self) {
        self.drain_and_join();
    }

    fn drain_and_join(&mut self) {
        {
            let mut core = lock(&self.inner.core);
            core.shutdown = true;
        }
        self.inner.work.notify_all();
        for h in self.threads.drain(..) {
            if let Err(p) = h.join() {
                // A panic *outside* the body's catch_unwind is a service
                // bug, not a tenant fault; surface it.
                resume_unwind(p);
            }
        }
    }
}

impl Drop for JadeService {
    fn drop(&mut self) {
        self.drain_and_join();
    }
}

fn shed_report(p: &PendingTenant) -> TenantReport {
    TenantReport {
        tenant: TenantId(p.id),
        outcome: Outcome::Shed,
        tasks_total: p.tasks.len(),
        tasks_completed: 0,
        tasks_cancelled: p.tasks.len(),
        recoveries: 0,
        store: Arc::new(Store::new()),
        events: Vec::new(),
    }
}

/// Move a pending submission into the active set: give it a (recycled)
/// slot, register every task in serial program order, and queue the
/// initially enabled ones.
fn register_tenant(core: &mut Core, pend: PendingTenant) {
    let PendingTenant {
        id,
        tasks,
        store,
        events,
        deadline,
        faults,
        weight,
    } = pend;
    let n = tasks.len();
    let mut slot = core.spares.pop().unwrap_or_default();
    slot.tasks.reserve(n);
    slot.owners.ensure(store.len());
    let mut events = EventSink::Record(events);
    let mut n_decls = 0;
    for (i, def) in tasks.into_iter().enumerate() {
        let t = core.tick();
        n_decls += def.spec.len();
        if (slot.sync).add_task_traced(TaskId(i as u32), &def.spec, &mut events, t, 0) {
            slot.ready.push_back(i);
        }
        slot.tasks.push(TenantTask {
            label: def.label,
            spec: def.spec,
            body: Some(def.body),
            attempt: 0,
            target: None,
        });
    }
    core.ready_tasks += slot.ready.len();
    core.deadlines += usize::from(deadline.is_some());
    let tenant = Tenant {
        store,
        slot,
        events,
        n_tasks: n,
        n_decls,
        live: n,
        running: 0,
        completed: 0,
        recoveries: 0,
        cancel: None,
        deadline,
        faults,
        weight,
        carry: 0,
    };
    core.active.insert(id, tenant);
}

/// Trigger cancellation of a tenant: set the terminal outcome (first cause
/// wins), drop its not-yet-dispatched work, and finalize immediately if
/// nothing is still running.
fn cancel_tenant(core: &mut Core, inner: &Inner, id: u32, outcome: Outcome) {
    let Some(t) = core.active.get_mut(&id) else {
        return;
    };
    if t.cancel.is_none() {
        t.cancel = Some(outcome);
    }
    core.ready_tasks -= t.slot.ready.len();
    t.slot.ready.clear();
    if t.running == 0 {
        finalize_tenant(core, inner, id);
    }
}

/// Remove a terminal tenant from the active set, build its report, wake a
/// `wait` caller parked on it, and park its cleared slot for reuse. The
/// freed active slot is refilled by the caller's next `pick`, inside the
/// same critical section.
fn finalize_tenant(core: &mut Core, inner: &Inner, id: u32) {
    let Some(mut t) = core.active.remove(&id) else {
        return;
    };
    debug_assert_eq!(t.running, 0, "finalizing tenant {id} with running tasks");
    core.deadlines -= usize::from(t.deadline.is_some());
    let outcome = t.cancel.take().unwrap_or(Outcome::Completed);
    let entries = t.n_tasks + t.n_decls + t.store.len();
    let report = TenantReport {
        tenant: TenantId(id),
        outcome,
        tasks_total: t.n_tasks,
        tasks_completed: t.completed,
        tasks_cancelled: t.n_tasks - t.completed,
        recoveries: t.recoveries,
        events: t.events.take(),
        store: t.store,
    };
    core.finished.insert(id, report);
    core.wake_waiters(inner, id);
    if core.spares.len() < inner.cfg.max_active && entries <= SPARE_MAX_ENTRIES {
        // A cancelled tenant retires mid-flight: bodies never dispatched,
        // accesses still granted or parked. Everything goes; capacity stays.
        let mut slot = t.slot;
        debug_assert!(
            slot.ready.is_empty(),
            "a terminal tenant has nothing queued"
        );
        slot.tasks.clear();
        slot.sync.reset();
        slot.owners.reset();
        core.spares.push(slot);
    }
}

/// Cancel every resident tenant whose deadline has passed, so that none of
/// its tasks is dispatched any more. Returns whether that freed a slot.
fn sweep_deadlines(core: &mut Core, inner: &Inner, now: Instant) -> bool {
    let resident = core.active.len();
    let expired: Vec<u32> = core
        .active
        .iter()
        .filter(|(_, t)| t.cancel.is_none() && t.deadline.is_some_and(|d| now >= d))
        .map(|(&id, _)| id)
        .collect();
    for id in expired {
        cancel_tenant(core, inner, id, Outcome::DeadlineExceeded);
    }
    core.active.len() < resident
}

/// Admit pending submissions into freed active slots, oldest first.
fn pump_admissions(core: &mut Core, inner: &Inner) {
    while core.active.len() < inner.cfg.max_active {
        let Some(pend) = core.pending.pop_front() else {
            return;
        };
        register_tenant(core, pend);
    }
}

/// Pick the next task under the fairness policy, after admitting pending
/// tenants and expiring deadlines (both must happen even when no task is
/// runnable, or an all-expired service would never drain).
///
/// **Park invariant**: when this returns `None`, no live tenant has ready
/// work **and** (`pending` is empty **or** `active` is full) — so a worker
/// that parks on `None` leaves nothing behind that only it could start.
fn pick(core: &mut Core, inner: &Inner, w: usize) -> Option<Picked> {
    // Admit before sweeping, so a newcomer that is already expired is
    // cancelled before its first dispatch; and admit again after a sweep
    // that freed a slot, or the tenants behind it would be stranded.
    loop {
        pump_admissions(core, inner);
        let swept = core.deadlines > 0 && sweep_deadlines(core, inner, Instant::now());
        if !swept || core.pending.is_empty() {
            break;
        }
    }
    if core.ready_tasks == 0 {
        return None;
    }
    let has_ready = |t: &Tenant| !t.slot.ready.is_empty();
    // Tuned policy: bound how long one tenant may monopolize the dispatch
    // stream while others wait. The cap shrinks as more tenants have ready
    // work; u32::MAX (tuning off) makes the forced-handoff branch dead.
    let (cap, ready_tenants) = if inner.cfg.tune {
        let ready_tenants = core.active.values().filter(|t| has_ready(t)).count();
        (core.ctl.credit_cap(ready_tenants), ready_tenants)
    } else {
        (u32::MAX, 0)
    };
    // Weighted round-robin: keep serving the cursor tenant while it has
    // credit and work, otherwise take the first tenant with ready work
    // scanning on from just past it (the cursor itself comes last).
    let cursor = core.rr_cursor;
    let mut continuing = false;
    if core.rr_credit > 0 {
        if let Some(t) = core.active.get_mut(&cursor).filter(|t| has_ready(t)) {
            if core.burst >= cap && ready_tenants > 1 {
                // Forced handoff: bank the unserved credit so the tenant's
                // next turn finishes it (long-run weight ratios are
                // untouched) and let the scan move on to the waiting tenants.
                t.carry = t.carry.saturating_add(core.rr_credit);
                core.rr_credit = 0;
            } else {
                continuing = true;
            }
        }
    }
    let id = if continuing {
        cursor
    } else {
        use std::ops::Bound::{Excluded, Unbounded};
        let after = core.active.range((Excluded(cursor), Unbounded));
        let (&id, _) = after
            .chain(core.active.range(..=cursor))
            .find(|(_, t)| has_ready(t))
            .expect("ready_tasks counts a queued task");
        id
    };
    let time = core.tick();
    let t = core.active.get_mut(&id).expect("tenant just found");
    if !continuing {
        if id != cursor {
            core.burst = 0;
        }
        core.rr_cursor = id;
        core.rr_credit = if t.carry > 0 {
            std::mem::take(&mut t.carry)
        } else {
            t.weight.max(1)
        };
    }
    core.rr_credit -= 1;
    core.burst = core.burst.saturating_add(1);
    core.ready_tasks -= 1;
    let local = t.slot.ready.pop_front().expect("ready checked non-empty");
    let task = &mut t.slot.tasks[local];
    let body = task.body.take().expect("task dispatched twice");
    let (label, spec) = (task.label, std::mem::take(&mut task.spec));
    let (attempt, target) = (task.attempt, task.target);
    let injected = t
        .faults
        .as_ref()
        .is_some_and(|plan| task_crashes(plan, local as u64, attempt, inner.cfg.workers));
    t.running += 1;
    let locality = match target {
        None => Locality::Untracked,
        Some(tw) if tw == w => Locality::Hit,
        Some(_) => Locality::Miss,
    };
    let dispatched = EventKind::TaskDispatched {
        stolen: false,
        locality,
    };
    let task = TaskId(local as u32);
    t.events.emit_task(time, w, dispatched, task);
    t.events.emit_task(time, w, EventKind::TaskStarted, task);
    Some(Picked {
        tenant: id,
        local,
        label,
        spec,
        body,
        attempt,
        injected,
        store: Arc::clone(&t.store),
    })
}

/// The tenant-plan crash decision for one attempt: the keyed `panic_p`
/// hash, plus fail-stop of a *virtual* worker — every task placed on
/// `fail_proc` (tenant-local id modulo pool width) crashes once and
/// re-executes elsewhere. Both are pure functions of `(plan, task,
/// attempt)`, independent of interleaving — that is what keeps a faulty
/// tenant's recovered output bit-identical to its solo run.
fn task_crashes(plan: &FaultPlan, task: u64, attempt: u32, workers: usize) -> bool {
    if plan.task_fails(task, attempt) {
        return true;
    }
    plan.fail_proc
        .is_some_and(|p| attempt == 0 && task as usize % workers == p % workers)
}

/// Apply a synchronizer transition for `tenant` and queue newly enabled
/// tasks (unless the tenant is cancelled), recording their locality
/// targets. Returns whether anything became ready.
fn apply_transition(core: &mut Core, tenant: u32, tr: Transition, w: usize) -> bool {
    let time = core.tick();
    let mut newly = std::mem::take(&mut core.newly);
    let t = core.active.get_mut(&tenant).expect("tenant still active");
    let slot = &mut t.slot;
    slot.sync.apply(tr, &mut newly, &mut t.events, time, w);
    let enabled = if t.cancel.is_none() { newly.len() } else { 0 };
    for id in &newly[..enabled] {
        let local = id.index();
        let task = &mut slot.tasks[local];
        task.target = slot.owners.latest_writer(&task.spec);
        slot.ready.push_back(local);
    }
    core.ready_tasks += enabled;
    newly.clear();
    core.newly = newly;
    enabled > 0
}

/// A worker's own acquisition of the core lock (`Probe::worker_locks`).
fn worker_lock(inner: &Inner) -> MutexGuard<'_, Core> {
    #[cfg_attr(not(test), allow(unused_mut))]
    let mut core = lock(&inner.core);
    probe!(core, worker_locks);
    core
}

/// Release the core lock, then deliver the wake-up `Core::wake_worker`
/// decided on under it: the futex call stays out of the one section every
/// dispatch serialises on.
fn unlock_and_wake(inner: &Inner, core: MutexGuard<'_, Core>, wake: bool) {
    drop(core);
    if wake {
        inner.work.notify_one();
    }
}

/// Run one picked task outside the core lock, then settle the result under
/// it. Returns the guard it settled under: the caller picks its next task
/// in the same critical section, so a task costs one acquisition.
fn execute_and_settle(inner: &Inner, w: usize, p: Picked) -> MutexGuard<'_, Core> {
    let Picked {
        tenant,
        local,
        label,
        spec,
        body,
        attempt,
        injected,
        store,
    } = p;
    let id = TaskId(local as u32);
    // The body stays outside the closure (`TaskBody` is `Fn`), so a caught
    // unwind leaves it intact for re-execution.
    let result = catch_unwind(AssertUnwindSafe(|| {
        if injected {
            // Simulated crash before the body runs — quiet unwind, no
            // panic-hook noise. Crashing before any body effect is what
            // makes the re-execution exact.
            resume_unwind(Box::new(InjectedFailure));
        }
        // Mid-task releases flush eagerly (a buffered release could
        // deadlock a pipeline whose consumer is the only runnable task).
        // This worker is busy in the body, so a successor the release
        // enabled needs a sleeper; with none parked, whoever settles next
        // picks it up.
        let hook = |obj: ObjectId| {
            let mut core = worker_lock(inner);
            let wake = apply_transition(&mut core, tenant, Transition::Release(id, obj), w)
                && core.wake_worker();
            unlock_and_wake(inner, core, wake);
        };
        let ctx = TaskCtx::with_release_hook(&store, id, label, &spec, &hook);
        body(&ctx);
    }));
    drop(store);

    match result {
        Ok(()) => {
            // The closure is the tenant's code: drop it off the lock.
            drop(body);
            let mut core = worker_lock(inner);
            let t = core.active.get_mut(&tenant).expect("tenant still active");
            // Publish write ownership before successors are enabled, so
            // the locality heuristic routes them toward this worker.
            for o in spec.written_objects() {
                t.slot.owners.record(o, w);
            }
            apply_transition(&mut core, tenant, Transition::Complete(id), w);
            let t = core.active.get_mut(&tenant).expect("tenant still active");
            t.running -= 1;
            t.live -= 1;
            t.completed += 1;
            // Finalize on the last task, or — for a cancelled tenant —
            // once the last in-flight body has drained.
            if t.live == 0 || (t.cancel.is_some() && t.running == 0) {
                finalize_tenant(&mut core, inner, tenant);
            }
            core
        }
        Err(_) if injected && attempt + 1 < MAX_TASK_ATTEMPTS => {
            // Injected-crash recovery: re-roll the fault hash with the
            // bumped attempt and re-queue; the body never ran, so the
            // retry is exact.
            let mut core = worker_lock(inner);
            let (failed, again) = (core.tick(), core.tick());
            let t = core.active.get_mut(&tenant).expect("tenant still active");
            let task = &mut t.slot.tasks[local];
            task.attempt = attempt + 1;
            task.spec = spec;
            task.body = Some(body);
            t.recoveries += 1;
            t.running -= 1;
            t.events.emit(failed, w, EventKind::WorkerFailed);
            t.events.emit_task(again, w, EventKind::TaskReExecuted, id);
            if t.cancel.is_none() {
                t.slot.ready.push_back(local);
                core.ready_tasks += 1;
            } else if t.running == 0 {
                finalize_tenant(&mut core, inner, tenant);
            }
            core
        }
        Err(p) => {
            // Genuine tenant failure: contain it. Only this tenant is
            // cancelled; the pool and every other tenant keep running.
            let msg = panic_message(&*p, injected);
            drop((p, body, spec));
            let mut core = worker_lock(inner);
            let time = core.tick();
            let t = core.active.get_mut(&tenant).expect("tenant still active");
            t.running -= 1;
            t.events.emit(time, w, EventKind::WorkerFailed);
            cancel_tenant(&mut core, inner, tenant, Outcome::Failed(msg));
            core
        }
    }
}

fn panic_message(p: &(dyn std::any::Any + Send), injected: bool) -> String {
    if injected {
        return format!("injected failure persisted for {MAX_TASK_ATTEMPTS} attempts");
    }
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "task body panicked".to_string()
    }
}

fn worker_loop(inner: &Inner, w: usize) {
    let mut core = worker_lock(inner);
    loop {
        if let Some(p) = pick(&mut core, inner, w) {
            // Whatever made work appear (a submit, a release, a settle, an
            // admission) woke at most one sleeper; each worker passes the
            // wake on while ready work is left over after its own pick.
            let wake = core.ready_tasks > 0 && core.wake_worker();
            unlock_and_wake(inner, core, wake);
            core = execute_and_settle(inner, w, p);
            continue;
        }
        if core.shutdown && core.active.is_empty() && core.pending.is_empty() {
            // The other workers may have parked while this one drained the
            // last tenant: wake them all to see the pool is done.
            drop(core);
            inner.work.notify_all();
            return;
        }
        // `pick` returned `None` under this guard, so its park invariant
        // holds until the wait releases the lock.
        debug_assert_eq!(
            core.active
                .values()
                .map(|t| t.slot.ready.len())
                .sum::<usize>(),
            core.ready_tasks
        );
        debug_assert!(
            core.ready_tasks == 0
                && (core.pending.is_empty() || core.active.len() >= inner.cfg.max_active)
        );
        // Expired-but-undrained deadlines need a periodic observer even
        // when no completion or submission will wake us.
        core.idle += 1;
        probe!(core, parks);
        core = if core.deadlines > 0 {
            let timeout = Duration::from_millis(5);
            let waited = inner.work.wait_timeout(core, timeout);
            waited.unwrap_or_else(|e| e.into_inner()).0
        } else {
            inner.work.wait(core).unwrap_or_else(|e| e.into_inner())
        };
        // Notified, timed out or spurious: back under the lock either way,
        // and a notification in flight (if any) has done its work.
        core.idle -= 1;
        core.waking = core.waking.saturating_sub(1);
        probe!(core, worker_locks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jade_core::{check_lifecycle_per_tenant, TaskBuilder};

    /// A chain program: `n` tasks serially incrementing one counter; task i
    /// also records its index, so the final value pins execution order.
    fn chain_program(n: usize) -> (Program, Handle<u64>) {
        let mut prog = Program::new();
        let h = prog.create("acc", 8, 0u64);
        for i in 0..n {
            prog.submit(TaskBuilder::new("chain").rd_wr(h).body(move |ctx| {
                let mut v = ctx.wr(h);
                *v = v.wrapping_mul(31).wrapping_add(i as u64 + 1);
            }));
        }
        (prog, h)
    }

    fn chain_expected(n: usize) -> u64 {
        let mut v = 0u64;
        for i in 0..n {
            v = v.wrapping_mul(31).wrapping_add(i as u64 + 1);
        }
        v
    }

    /// `n` independent tasks each bumping their own slot.
    fn wide_program(n: usize) -> (Program, Handle<Vec<u64>>) {
        let mut prog = Program::new();
        let hs: Vec<Handle<u64>> = (0..n)
            .map(|i| prog.create(format!("s{i}"), 8, 0u64))
            .collect();
        let sum = prog.create("sum", 8, Vec::<u64>::new());
        for (i, &h) in hs.iter().enumerate() {
            prog.submit(TaskBuilder::new("wide").rd_wr(h).body(move |ctx| {
                *ctx.wr(h) = i as u64 + 1;
            }));
        }
        (prog, sum)
    }

    /// One source, `k` readers of it each writing its own object, and a
    /// join reading all of those: the benchmark's fan. Returns the join's
    /// output and the value a serial run leaves there.
    fn fan_program(k: usize) -> (Program, Handle<u64>, u64) {
        let mut prog = Program::new();
        let src = prog.create("src", 8, 0u64);
        let mids: Vec<Handle<u64>> = (0..k)
            .map(|i| prog.create(format!("m{i}"), 8, 0u64))
            .collect();
        let out = prog.create("out", 8, 0u64);
        prog.submit(
            TaskBuilder::new("src")
                .wr(src)
                .body(move |ctx| *ctx.wr(src) = 3),
        );
        for (i, &m) in mids.iter().enumerate() {
            prog.submit(
                TaskBuilder::new("mid")
                    .rd(src)
                    .wr(m)
                    .body(move |ctx| *ctx.wr(m) = *ctx.rd(src) * (i as u64 + 1)),
            );
        }
        let mut join = TaskBuilder::new("join");
        for &m in &mids {
            join = join.rd(m);
        }
        prog.submit(join.wr(out).body(move |ctx| {
            *ctx.wr(out) = mids.iter().map(|&m| *ctx.rd(m)).sum();
        }));
        (prog, out, 3 * (k * (k + 1) / 2) as u64)
    }

    /// A `side` x `side` wavefront: each cell reads its left and upper
    /// neighbours and holds the length of the longest path reaching it.
    fn wave_program(side: usize) -> (Program, Handle<u64>, u64) {
        let mut prog = Program::new();
        let cells: Vec<Handle<u64>> = (0..side * side)
            .map(|i| prog.create(format!("c{i}"), 8, 0u64))
            .collect();
        for i in 0..side {
            for j in 0..side {
                let me = cells[i * side + j];
                let left = (j > 0).then(|| cells[i * side + j - 1]);
                let up = (i > 0).then(|| cells[(i - 1) * side + j]);
                let mut b = TaskBuilder::new("cell");
                for h in left.iter().chain(&up) {
                    b = b.rd(*h);
                }
                prog.submit(b.rd_wr(me).body(move |ctx| {
                    let l = left.map_or(0, |h| *ctx.rd(h));
                    let u = up.map_or(0, |h| *ctx.rd(h));
                    *ctx.wr(me) = l.max(u) + 1;
                }));
            }
        }
        (prog, cells[side * side - 1], (2 * side - 1) as u64)
    }

    #[test]
    fn single_tenant_completes_with_clean_report() {
        let svc = JadeService::new(ServiceConfig::new(4));
        let (prog, h) = chain_program(20);
        let id = svc.submit(prog, TenantOptions::default()).unwrap();
        let r = svc.wait(id);
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.tasks_total, 20);
        assert_eq!(r.tasks_completed, 20);
        assert_eq!(r.tasks_cancelled, 0);
        assert_eq!(*r.store.read(h), chain_expected(20));
        check_lifecycle_per_tenant(&r.tagged_events()).expect("lifecycle");
        let m = r.metrics(4);
        assert_eq!(m.tasks_created, 20);
        assert_eq!(m.tasks_completed, 20);
        assert_eq!(m.tasks_started, 20);
    }

    #[test]
    fn injected_crashes_recover_bit_identically() {
        let plan = FaultPlan {
            panic_p: 0.4,
            seed: 7,
            ..FaultPlan::none()
        };
        let svc = JadeService::new(ServiceConfig::new(3));
        let (clean, hc) = chain_program(30);
        let (faulty, hf) = chain_program(30);
        let a = svc.submit(clean, TenantOptions::default()).unwrap();
        let b = svc
            .submit(faulty, TenantOptions::default().with_faults(plan))
            .unwrap();
        let ra = svc.wait(a);
        let rb = svc.wait(b);
        assert_eq!(ra.outcome, Outcome::Completed);
        assert_eq!(rb.outcome, Outcome::Completed);
        assert!(
            rb.recoveries > 0,
            "plan with p=0.4 over 30 tasks must crash"
        );
        assert_eq!(*ra.store.read(hc), chain_expected(30));
        assert_eq!(*rb.store.read(hf), chain_expected(30));
        let m = rb.metrics(3);
        assert_eq!(m.tasks_reexecuted as usize, rb.recoveries);
        assert_eq!(m.tasks_started, 30 + rb.recoveries);
        check_lifecycle_per_tenant(&rb.tagged_events()).expect("lifecycle under faults");
    }

    #[test]
    fn fail_stop_plan_recovers() {
        let plan = FaultPlan {
            fail_proc: Some(1),
            ..FaultPlan::none()
        };
        let svc = JadeService::new(ServiceConfig::new(2));
        let (prog, h) = chain_program(10);
        let id = svc
            .submit(prog, TenantOptions::default().with_faults(plan))
            .unwrap();
        let r = svc.wait(id);
        assert_eq!(r.outcome, Outcome::Completed);
        // Tasks 1, 3, 5, 7, 9 sit on virtual worker 1 and crash once each.
        assert_eq!(r.recoveries, 5);
        assert_eq!(*r.store.read(h), chain_expected(10));
    }

    #[test]
    fn genuine_panic_fails_only_its_tenant() {
        let svc = JadeService::new(ServiceConfig::new(2));
        let mut bad = Program::new();
        let hb = bad.create("b", 8, 0u64);
        bad.submit(TaskBuilder::new("ok").rd_wr(hb).body(move |ctx| {
            *ctx.wr(hb) = 1;
        }));
        bad.submit(
            TaskBuilder::new("boom")
                .rd_wr(hb)
                .body(|_| panic!("tenant bug")),
        );
        bad.submit(TaskBuilder::new("never").rd_wr(hb).body(move |ctx| {
            *ctx.wr(hb) = 99;
        }));
        let (clean, hc) = chain_program(25);
        let b = svc.submit(bad, TenantOptions::default()).unwrap();
        let c = svc.submit(clean, TenantOptions::default()).unwrap();
        let rb = svc.wait(b);
        let rc = svc.wait(c);
        match &rb.outcome {
            Outcome::Failed(msg) => assert!(msg.contains("tenant bug"), "{msg}"),
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(rb.tasks_completed, 1);
        assert_eq!(rb.tasks_cancelled, 2);
        assert_eq!(*rb.store.read(hb), 1, "cancelled task must not run");
        // The clean tenant is untouched and the pool is still alive.
        assert_eq!(rc.outcome, Outcome::Completed);
        assert_eq!(*rc.store.read(hc), chain_expected(25));
        let (after, ha) = chain_program(5);
        let a = svc.submit(after, TenantOptions::default()).unwrap();
        let r = svc.wait(a);
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(*r.store.read(ha), chain_expected(5));
    }

    #[test]
    fn zero_deadline_cancels_before_any_dispatch() {
        let svc = JadeService::new(ServiceConfig::new(2));
        let (prog, h) = chain_program(50);
        let id = svc
            .submit(prog, TenantOptions::default().with_deadline(Duration::ZERO))
            .unwrap();
        let r = svc.wait(id);
        assert_eq!(r.outcome, Outcome::DeadlineExceeded);
        assert_eq!(r.tasks_completed, 0);
        assert_eq!(r.tasks_cancelled, 50);
        assert_eq!(*r.store.read(h), 0);
        // Partial metrics still parse: all 50 created, none started.
        let m = r.metrics(2);
        assert_eq!(m.tasks_created, 50);
        assert_eq!(m.tasks_started, 0);
        // The pool is not wedged.
        let (next, hn) = chain_program(8);
        let n = svc.submit(next, TenantOptions::default()).unwrap();
        assert_eq!(*svc.wait(n).store.read(hn), chain_expected(8));
    }

    #[test]
    fn midrun_deadline_drains_cleanly() {
        let svc = JadeService::new(ServiceConfig::new(2));
        let mut prog = Program::new();
        let h = prog.create("acc", 8, 0u64);
        for _ in 0..200 {
            prog.submit(TaskBuilder::new("slow").rd_wr(h).body(move |ctx| {
                std::thread::sleep(Duration::from_millis(2));
                *ctx.wr(h) += 1;
            }));
        }
        let id = svc
            .submit(
                prog,
                TenantOptions::default().with_deadline(Duration::from_millis(30)),
            )
            .unwrap();
        let r = svc.wait(id);
        assert_eq!(r.outcome, Outcome::DeadlineExceeded);
        assert!(r.tasks_completed < 200, "deadline should cut the chain");
        assert_eq!(*r.store.read(h), r.tasks_completed as u64);
        // A cancelled tenant's stream is partial by design (`created` and
        // `enabled` without `completed`), so `check_lifecycle` rejects it.
        // What it does promise: every task was created, nothing was left
        // started once the tenant drained, and what completed is the
        // chain's prefix.
        let m = r.metrics(2);
        assert_eq!(m.tasks_created, 200);
        assert_eq!(m.tasks_completed, r.tasks_completed);
        assert_eq!(m.tasks_started - m.tasks_completed, 0);
        let completed: Vec<TaskId> = (r.events.iter())
            .filter(|e| e.kind == EventKind::TaskCompleted)
            .map(|e| e.task.expect("completion names its task"))
            .collect();
        let prefix: Vec<TaskId> = (0..r.tasks_completed as u32).map(TaskId).collect();
        assert_eq!(completed, prefix);
        // The idle worker polled the deadline on `wait_timeout`: a wake-up
        // that timed out consumes at most one notification in flight, so
        // the count comes back to zero and both workers park for good.
        until(&svc, "both workers parked, no wake in flight", |c| {
            c.idle == 2 && c.waking == 0
        });
        notified_once_per_park(&svc);
    }

    #[test]
    fn overload_rejects_new_without_panicking() {
        let cfg = ServiceConfig {
            workers: 1,
            max_active: 1,
            max_pending: 2,
            shed: ShedPolicy::RejectNew,
            tune: false,
        };
        let svc = JadeService::new(cfg);
        let gate = Gate::default();
        let b = svc
            .submit(blocker(&gate), TenantOptions::default())
            .unwrap();
        // Wait until the blocker actually occupies the only active slot.
        while svc.active_len() == 0 {
            std::thread::yield_now();
        }
        let q1 = svc
            .submit(chain_program(3).0, TenantOptions::default())
            .unwrap();
        let q2 = svc
            .submit(chain_program(3).0, TenantOptions::default())
            .unwrap();
        let err = svc
            .submit(chain_program(3).0, TenantOptions::default())
            .unwrap_err();
        assert_eq!(
            err,
            SubmitError::Overloaded {
                pending: 2,
                limit: 2
            }
        );
        assert_eq!(svc.pending_len(), 2);
        gate.open();
        for id in [b, q1, q2] {
            assert_eq!(svc.wait(id).outcome, Outcome::Completed);
        }
    }

    #[test]
    fn drop_oldest_sheds_the_oldest_pending_dag() {
        let cfg = ServiceConfig {
            workers: 1,
            max_active: 1,
            max_pending: 1,
            shed: ShedPolicy::DropOldest,
            tune: false,
        };
        let svc = JadeService::new(cfg);
        let gate = Gate::default();
        let b = svc
            .submit(blocker(&gate), TenantOptions::default())
            .unwrap();
        while svc.active_len() == 0 {
            std::thread::yield_now();
        }
        let old = svc
            .submit(chain_program(3).0, TenantOptions::default())
            .unwrap();
        let new = svc
            .submit(chain_program(4).0, TenantOptions::default())
            .unwrap();
        let shed = svc.wait(old);
        assert_eq!(shed.outcome, Outcome::Shed);
        assert_eq!(shed.tasks_cancelled, 3);
        gate.open();
        assert_eq!(svc.wait(b).outcome, Outcome::Completed);
        assert_eq!(svc.wait(new).outcome, Outcome::Completed);
    }

    /// The starvation bound: with one worker (so dispatch order is the
    /// fairness policy and nothing else), a tenant with continuously ready
    /// work is served again within Σ other tenants' weights dispatches.
    #[test]
    fn round_robin_bounds_starvation() {
        let cfg = ServiceConfig {
            workers: 1,
            max_active: 8,
            max_pending: 8,
            shed: ShedPolicy::RejectNew,
            tune: false,
        };
        let svc = JadeService::new(cfg);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        // Hold the single worker hostage until all tenants are registered,
        // so every tenant's queue is continuously non-empty during the
        // measured region.
        let mut blocker = Program::new();
        let hb = blocker.create("b", 8, 0u64);
        let g = Arc::clone(&gate);
        blocker.submit(TaskBuilder::new("block").rd_wr(hb).body(move |_| {
            let (m, cv) = &*g;
            let mut open = lock(m);
            while !*open {
                open = cv.wait(open).unwrap_or_else(|e| e.into_inner());
            }
        }));
        let b = svc.submit(blocker, TenantOptions::default()).unwrap();
        while svc.active_len() == 0 {
            std::thread::yield_now();
        }
        const TENANTS: usize = 3;
        const TASKS: usize = 12;
        let ids: Vec<TenantId> = (0..TENANTS)
            .map(|_| {
                svc.submit(wide_program(TASKS).0, TenantOptions::default())
                    .unwrap()
            })
            .collect();
        let (m, cv) = &*gate;
        *lock(m) = true;
        cv.notify_all();
        let _ = svc.wait(b);
        let mut tagged: Vec<TaggedEvent> = Vec::new();
        for &id in &ids {
            tagged.extend(svc.wait(id).tagged_events());
        }
        // Merge by the service-global clock and extract the dispatch order.
        tagged.sort_by_key(|te| te.event.time_ps);
        let dispatches: Vec<TenantId> = tagged
            .iter()
            .filter(|te| matches!(te.event.kind, EventKind::TaskDispatched { .. }))
            .map(|te| te.tenant)
            .collect();
        assert_eq!(dispatches.len(), TENANTS * TASKS);
        for &id in &ids {
            let picks: Vec<usize> = dispatches
                .iter()
                .enumerate()
                .filter(|(_, &t)| t == id)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(picks.len(), TASKS);
            for pair in picks.windows(2) {
                let gap = pair[1] - pair[0];
                assert!(
                    gap <= TENANTS,
                    "tenant {id} starved: gap {gap} > {TENANTS} in {dispatches:?}"
                );
            }
        }
    }

    /// Weighted fairness: a weight-3 tenant gets up to three consecutive
    /// dispatches per turn, and the weight-1 tenant still gets served
    /// within the weighted bound.
    #[test]
    fn weighted_round_robin_honors_weights() {
        let cfg = ServiceConfig {
            workers: 1,
            max_active: 4,
            max_pending: 4,
            shed: ShedPolicy::RejectNew,
            tune: false,
        };
        let svc = JadeService::new(cfg);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let mut blocker = Program::new();
        let hb = blocker.create("b", 8, 0u64);
        let g = Arc::clone(&gate);
        blocker.submit(TaskBuilder::new("block").rd_wr(hb).body(move |_| {
            let (m, cv) = &*g;
            let mut open = lock(m);
            while !*open {
                open = cv.wait(open).unwrap_or_else(|e| e.into_inner());
            }
        }));
        let b = svc.submit(blocker, TenantOptions::default()).unwrap();
        while svc.active_len() == 0 {
            std::thread::yield_now();
        }
        let heavy = svc
            .submit(wide_program(9).0, TenantOptions::default().with_weight(3))
            .unwrap();
        let light = svc
            .submit(wide_program(9).0, TenantOptions::default().with_weight(1))
            .unwrap();
        let (m, cv) = &*gate;
        *lock(m) = true;
        cv.notify_all();
        let _ = svc.wait(b);
        let mut tagged = svc.wait(heavy).tagged_events();
        tagged.extend(svc.wait(light).tagged_events());
        tagged.sort_by_key(|te| te.event.time_ps);
        let dispatches: Vec<TenantId> = tagged
            .iter()
            .filter(|te| matches!(te.event.kind, EventKind::TaskDispatched { .. }))
            .map(|te| te.tenant)
            .collect();
        // While both tenants have work the pattern is HHHL repeating; the
        // light tenant's gap is bounded by heavy's weight + 1.
        let light_picks: Vec<usize> = dispatches
            .iter()
            .enumerate()
            .filter(|(_, &t)| t == light)
            .map(|(i, _)| i)
            .collect();
        for pair in light_picks.windows(2) {
            assert!(
                pair[1] - pair[0] <= 4,
                "light tenant starved: {dispatches:?}"
            );
        }
        // Heavy runs in bursts: some gap between consecutive heavy picks
        // must be 1 (consecutive dispatches of the same tenant).
        let heavy_picks: Vec<usize> = dispatches
            .iter()
            .enumerate()
            .filter(|(_, &t)| t == heavy)
            .map(|(i, _)| i)
            .collect();
        assert!(
            heavy_picks.windows(2).any(|p| p[1] - p[0] == 1),
            "weight-3 tenant never got consecutive dispatches: {dispatches:?}"
        );
    }

    /// Heavy-skew starvation bound (tuned policy): a weight-8 tenant with a
    /// huge DAG gets its turn cut at the controller's credit cap while the
    /// weight-1 tenant has ready work, and the banked carry preserves the
    /// long-run weight ratio.
    #[test]
    fn tuned_credit_cap_bounds_heavy_tenant_bursts() {
        let cfg = ServiceConfig {
            workers: 1,
            max_active: 4,
            max_pending: 4,
            shed: ShedPolicy::RejectNew,
            tune: true,
        };
        let svc = JadeService::new(cfg);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let mut blocker = Program::new();
        let hb = blocker.create("b", 8, 0u64);
        let g = Arc::clone(&gate);
        blocker.submit(TaskBuilder::new("block").rd_wr(hb).body(move |_| {
            let (m, cv) = &*g;
            let mut open = lock(m);
            while !*open {
                open = cv.wait(open).unwrap_or_else(|e| e.into_inner());
            }
        }));
        let b = svc.submit(blocker, TenantOptions::default()).unwrap();
        while svc.active_len() == 0 {
            std::thread::yield_now();
        }
        let heavy = svc
            .submit(wide_program(48).0, TenantOptions::default().with_weight(8))
            .unwrap();
        let light = svc
            .submit(wide_program(12).0, TenantOptions::default().with_weight(1))
            .unwrap();
        let (m, cv) = &*gate;
        *lock(m) = true;
        cv.notify_all();
        let _ = svc.wait(b);
        let rh = svc.wait(heavy);
        let rl = svc.wait(light);
        assert_eq!(rh.outcome, Outcome::Completed);
        assert_eq!(rl.outcome, Outcome::Completed);
        let mut tagged = rh.tagged_events();
        tagged.extend(rl.tagged_events());
        tagged.sort_by_key(|te| te.event.time_ps);
        let dispatches: Vec<TenantId> = tagged
            .iter()
            .filter(|te| matches!(te.event.kind, EventKind::TaskDispatched { .. }))
            .map(|te| te.tenant)
            .collect();
        // Between two light dispatches both tenants are continuously ready,
        // so the cap (CREDIT_CAP_MAX / 2 ready tenants = 4) bounds every
        // heavy stretch — even though heavy's weight is 8.
        let light_picks: Vec<usize> = dispatches
            .iter()
            .enumerate()
            .filter(|(_, &t)| t == light)
            .map(|(i, _)| i)
            .collect();
        let cap = (jade_core::tune::CREDIT_CAP_MAX / 2) as usize;
        for pair in light_picks.windows(2) {
            let gap = pair[1] - pair[0];
            assert!(
                gap <= cap + 1,
                "light tenant starved: gap {gap} > {} in {dispatches:?}",
                cap + 1
            );
        }
        let log = svc.tune_log();
        assert!(!log.decisions.is_empty(), "controller took no decisions");
        log.check_ranges().unwrap();
    }

    #[test]
    fn submit_validates_inputs() {
        let svc = JadeService::new(ServiceConfig::new(1));
        assert_eq!(
            svc.submit(Program::new(), TenantOptions::default()),
            Err(SubmitError::EmptyProgram)
        );
        let bad_plan = FaultPlan {
            panic_p: 1.5,
            ..FaultPlan::none()
        };
        let err = svc
            .submit(
                chain_program(1).0,
                TenantOptions::default().with_faults(bad_plan),
            )
            .unwrap_err();
        assert!(matches!(err, SubmitError::InvalidFaultPlan(_)), "{err:?}");
    }

    #[test]
    fn per_tenant_metrics_split_across_concurrent_tenants() {
        let svc = JadeService::new(ServiceConfig::new(4));
        let ids: Vec<TenantId> = (0..6)
            .map(|i| {
                svc.submit(chain_program(5 + i).0, TenantOptions::default())
                    .unwrap()
            })
            .collect();
        let mut tagged = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            let r = svc.wait(id);
            assert_eq!(r.outcome, Outcome::Completed);
            assert_eq!(r.tasks_completed, 5 + i);
            tagged.extend(r.tagged_events());
        }
        check_lifecycle_per_tenant(&tagged).expect("per-tenant lifecycle");
        let per = Metrics::per_tenant(&tagged, 4);
        assert_eq!(per.len(), 6);
        let mut seen: Vec<(TenantId, usize)> =
            per.iter().map(|(t, m)| (*t, m.tasks_completed)).collect();
        seen.sort();
        for (i, &(t, done)) in seen.iter().enumerate() {
            assert_eq!(t, ids[i]);
            assert_eq!(done, 5 + i);
        }
    }

    #[test]
    fn release_hook_pipelines_within_a_tenant() {
        let svc = JadeService::new(ServiceConfig::new(2));
        let mut prog = Program::new();
        let a = prog.create("a", 8, 0u64);
        let b = prog.create("b", 8, 0u64);
        let flag = Arc::new((Mutex::new(false), Condvar::new()));
        let f1 = Arc::clone(&flag);
        // Producer: writes `a`, releases it mid-task, then blocks until the
        // consumer (which needs `a`) has run — only an eager release flush
        // lets the consumer start while the producer still executes.
        prog.submit(TaskBuilder::new("producer").rd_wr(a).body(move |ctx| {
            *ctx.wr(a) = 42;
            drop(ctx.wr(a));
            ctx.release(a);
            let (m, cv) = &*f1;
            let mut ran = lock(m);
            while !*ran {
                ran = cv.wait(ran).unwrap_or_else(|e| e.into_inner());
            }
        }));
        let f2 = Arc::clone(&flag);
        prog.submit(
            TaskBuilder::new("consumer")
                .rd(a)
                .rd_wr(b)
                .body(move |ctx| {
                    *ctx.wr(b) = *ctx.rd(a) + 1;
                    let (m, cv) = &*f2;
                    *lock(m) = true;
                    cv.notify_all();
                }),
        );
        let id = svc.submit(prog, TenantOptions::default()).unwrap();
        let r = svc.wait(id);
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(*r.store.read(b), 43);
        let m = r.metrics(2);
        assert_eq!(m.releases, 1);
    }

    #[test]
    fn shutdown_drains_admitted_tenants() {
        let svc = JadeService::new(ServiceConfig::new(2));
        let (prog, h) = chain_program(40);
        let id = svc.submit(prog, TenantOptions::default()).unwrap();
        // Shut down immediately: the admitted tenant must still drain.
        let inner = Arc::clone(&svc.inner);
        svc.shutdown();
        let core = lock(&inner.core);
        let r = core.finished.get(&id.0).expect("tenant drained");
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(*r.store.read(h), chain_expected(40));
    }

    // ---- wake protocol, park invariant and slot recycling (DESIGN.md §16)

    /// What the wake-protocol tests count, kept in `Core` under `cfg(test)`.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub(super) struct Probe {
        /// `notify_one` calls on `work` outside shutdown.
        pub(super) work_notifies: u64,
        /// `notify_all` calls on `done`.
        pub(super) done_notifies: u64,
        /// Core-lock acquisitions by workers, wake-ups from a park included.
        pub(super) worker_locks: u64,
        /// Times a worker parked on `work`.
        pub(super) parks: u64,
    }

    /// A lost wake-up hangs, it does not fail: every blocking call below
    /// runs on its own thread and is given this long to come back.
    const PATIENCE: Duration = Duration::from_secs(10);

    /// Run `f` on its own thread and return its result, or panic after
    /// [`PATIENCE`].
    fn within<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(PATIENCE)
            .unwrap_or_else(|_| panic!("{what}: no answer (lost wake-up?)"))
    }

    /// Spin until the core satisfies `cond` (state only another thread can
    /// bring about, observed under the lock), or panic after [`PATIENCE`].
    fn until(svc: &JadeService, what: &str, cond: impl Fn(&Core) -> bool) {
        let give_up = Instant::now() + PATIENCE;
        while !cond(&lock(&svc.inner.core)) {
            assert!(Instant::now() < give_up, "never saw: {what}");
            std::thread::yield_now();
        }
    }

    fn probe(svc: &JadeService) -> Probe {
        lock(&svc.inner.core).probe
    }

    /// The wake invariant as the counts see it: every `work` notification
    /// went to a park of its own, and no more are in flight than workers
    /// are parked.
    fn notified_once_per_park(svc: &JadeService) {
        let core = lock(&svc.inner.core);
        let p = core.probe;
        assert!(p.work_notifies <= p.parks, "{p:?}");
        assert!(core.waking <= core.idle, "{} > {}", core.waking, core.idle);
    }

    /// A one-shot gate for task bodies to block on.
    #[derive(Clone, Default)]
    struct Gate(Arc<(Mutex<bool>, Condvar)>);

    impl Gate {
        fn open(&self) {
            *lock(&self.0 .0) = true;
            self.0 .1.notify_all();
        }

        fn pass(&self) {
            let mut open = lock(&self.0 .0);
            while !*open {
                open = self.0 .1.wait(open).unwrap_or_else(|e| e.into_inner());
            }
        }
    }

    /// One task that holds its worker until `gate` opens.
    fn blocker(gate: &Gate) -> Program {
        let mut prog = Program::new();
        let h = prog.create("b", 8, 0u64);
        let gate = gate.clone();
        prog.submit(
            TaskBuilder::new("block")
                .rd_wr(h)
                .body(move |_| gate.pass()),
        );
        prog
    }

    /// Two independent tasks, the first of which cannot end before the
    /// second has run: completes only if two workers run it at once, so
    /// only if the worker that picked the first task passed the wake on.
    fn needs_two_workers() -> Program {
        let mut prog = Program::new();
        let (a, b) = (prog.create("a", 8, 0u64), prog.create("b", 8, 0u64));
        let second_ran = Gate::default();
        let gate = second_ran.clone();
        prog.submit(
            TaskBuilder::new("first")
                .rd_wr(a)
                .body(move |_| gate.pass()),
        );
        prog.submit(
            TaskBuilder::new("second")
                .rd_wr(b)
                .body(move |_| second_ran.open()),
        );
        prog
    }

    fn config(workers: usize, max_active: usize) -> ServiceConfig {
        ServiceConfig {
            max_active,
            ..ServiceConfig::new(workers)
        }
    }

    /// The hang this PR fixes: a deadline sweep frees the only slot after
    /// admissions were pumped, nothing is ready, and the worker parks with
    /// a tenant still pending.
    #[test]
    fn a_slot_freed_by_the_deadline_sweep_is_refilled() {
        for workers in [1, 2] {
            let svc = Arc::new(JadeService::new(config(workers, 1)));
            let gate = Gate::default();
            let b = svc
                .submit(blocker(&gate), TenantOptions::default())
                .unwrap();
            until(&svc, "blocker running", |c| {
                c.active.values().any(|t| t.running == 1)
            });
            let expired = TenantOptions::default().with_deadline(Duration::ZERO);
            let a = svc.submit(chain_program(5).0, expired).unwrap();
            let (clean, h) = chain_program(5);
            let c = svc.submit(clean, TenantOptions::default()).unwrap();
            assert_eq!(svc.pending_len(), 2);
            gate.open();
            for (id, want) in [
                (b, Outcome::Completed),
                (a, Outcome::DeadlineExceeded),
                (c, Outcome::Completed),
            ] {
                let svc2 = Arc::clone(&svc);
                let r = within("wait", move || svc2.wait(id));
                assert_eq!(r.outcome, want, "{workers} workers, tenant {id}");
                if id == c {
                    assert_eq!(*r.store.read(h), chain_expected(5));
                }
            }
            notified_once_per_park(&svc);
        }
    }

    #[test]
    fn submit_reaches_a_fully_parked_pool() {
        let svc = Arc::new(JadeService::new(ServiceConfig::new(3)));
        until(&svc, "all parked", |c| c.idle == 3);
        let id = svc
            .submit(needs_two_workers(), TenantOptions::default())
            .unwrap();
        let svc2 = Arc::clone(&svc);
        let r = within("wait", move || svc2.wait(id));
        assert_eq!(r.outcome, Outcome::Completed);
        notified_once_per_park(&svc);
    }

    /// Two workers, one held in a body, the other parked: two wake
    /// decisions under one hold of the lock (the woken worker cannot get
    /// back in between them) send one notification, and once everything
    /// has drained none is left in flight.
    #[test]
    fn a_notified_sleeper_is_not_notified_again() {
        let svc = Arc::new(JadeService::new(ServiceConfig::new(2)));
        let gate = Gate::default();
        let b = svc
            .submit(blocker(&gate), TenantOptions::default())
            .unwrap();
        until(&svc, "blocker running, other worker parked", |c| {
            c.idle == 1 && c.waking == 0 && c.active.values().any(|t| t.running == 1)
        });
        let mut core = lock(&svc.inner.core);
        let before = core.probe.work_notifies;
        let (first, second) = (core.wake_worker(), core.wake_worker());
        assert!(first && !second);
        assert_eq!(core.probe.work_notifies - before, 1);
        assert_eq!((core.idle, core.waking), (1, 1));
        unlock_and_wake(&svc.inner, core, first);
        until(&svc, "woken for nothing, parked again", |c| {
            c.idle == 1 && c.waking == 0
        });
        gate.open();
        let svc2 = Arc::clone(&svc);
        let r = within("wait", move || svc2.wait(b));
        assert_eq!(r.outcome, Outcome::Completed);
        until(&svc, "pool parked, no wake in flight", |c| {
            c.idle == 2 && c.waking == 0
        });
        notified_once_per_park(&svc);
    }

    /// The benchmark's `service-mix` at small scale: chains, fans and
    /// wavefronts through a window of sixteen on two workers. A worker is
    /// woken when there is a task for it to take, so notifications are
    /// counted in DAGs (a pool that ran dry, a fan that opened), not in
    /// tasks: re-notifying a sleeper that had not got the CPU yet cost
    /// 0.85 a task.
    #[test]
    fn a_mixed_closed_loop_wakes_per_dag_not_per_task() {
        const DAGS: usize = 600;
        const WINDOW: usize = 16;
        let svc = JadeService::new(ServiceConfig::new(2));
        let mut outstanding: VecDeque<(TenantId, Handle<u64>, u64)> = VecDeque::new();
        let reap = |(id, out, expect): (TenantId, Handle<u64>, u64)| {
            let r = svc.wait(id);
            assert_eq!(r.outcome, Outcome::Completed);
            assert_eq!(*r.store.read(out), expect);
        };
        let mut tasks = 0;
        for i in 0..DAGS {
            if outstanding.len() == WINDOW {
                reap(outstanding.pop_front().expect("window is full"));
            }
            let (prog, out, expect) = match i % 10 {
                1 | 4 | 7 => fan_program(14),
                3 | 8 => wave_program(8),
                _ => {
                    let (prog, h) = chain_program(16);
                    (prog, h, chain_expected(16))
                }
            };
            tasks += prog.task_count();
            let id = svc.submit(prog, TenantOptions::default()).unwrap();
            outstanding.push_back((id, out, expect));
        }
        outstanding.into_iter().for_each(reap);
        notified_once_per_park(&svc);
        let p = probe(&svc);
        assert!(
            p.work_notifies <= 4 * DAGS as u64,
            "{DAGS} DAGs, {tasks} tasks: {p:?}"
        );
    }

    #[test]
    fn a_release_hook_successor_reaches_a_parked_worker() {
        let svc = Arc::new(JadeService::new(ServiceConfig::new(2)));
        let mut prog = Program::new();
        let a = prog.create("a", 8, 0u64);
        let b = prog.create("b", 8, 0u64);
        let (others_parked, consumed) = (Gate::default(), Gate::default());
        let (g1, g2) = (others_parked.clone(), consumed.clone());
        prog.submit(TaskBuilder::new("producer").rd_wr(a).body(move |ctx| {
            g1.pass();
            *ctx.wr(a) = 42;
            ctx.release(a);
            // Only the other worker can run the consumer.
            g2.pass();
        }));
        prog.submit(
            TaskBuilder::new("consumer")
                .rd(a)
                .rd_wr(b)
                .body(move |ctx| {
                    *ctx.wr(b) = *ctx.rd(a) + 1;
                    consumed.open();
                }),
        );
        let id = svc.submit(prog, TenantOptions::default()).unwrap();
        until(&svc, "producer running, other worker parked", |c| {
            c.idle == 1 && c.active.values().any(|t| t.running == 1)
        });
        others_parked.open();
        let svc2 = Arc::clone(&svc);
        let r = within("wait", move || svc2.wait(id));
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(*r.store.read(b), 43);
        notified_once_per_park(&svc);
    }

    #[test]
    fn admission_from_pending_needs_no_submitter() {
        let svc = Arc::new(JadeService::new(config(2, 1)));
        let gate = Gate::default();
        let b = svc
            .submit(blocker(&gate), TenantOptions::default())
            .unwrap();
        let id = svc
            .submit(needs_two_workers(), TenantOptions::default())
            .unwrap();
        // The submitter is done; one worker sits in the blocker, the other
        // found nothing to run.
        until(&svc, "pending behind the blocker", |c| {
            c.idle == 1 && c.pending.len() == 1
        });
        gate.open();
        let svc2 = Arc::clone(&svc);
        let r = within("wait", move || svc2.wait(id));
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(svc.wait(b).outcome, Outcome::Completed);
        notified_once_per_park(&svc);
    }

    #[test]
    fn waiters_on_different_tenants_wake_in_either_order() {
        let svc = Arc::new(JadeService::new(ServiceConfig::new(2)));
        let (g1, g2) = (Gate::default(), Gate::default());
        let t1 = svc.submit(blocker(&g1), TenantOptions::default()).unwrap();
        let t2 = svc.submit(blocker(&g2), TenantOptions::default()).unwrap();
        let waiter = |id: TenantId| {
            let (svc, (tx, rx)) = (Arc::clone(&svc), std::sync::mpsc::channel());
            std::thread::spawn(move || tx.send(svc.wait(id).outcome));
            rx
        };
        let (r1, r2) = (waiter(t1), waiter(t2));
        until(&svc, "both waiters parked", |c| c.awaited.len() == 2);
        // The later tenant finishes first: its waiter returns, the other
        // looks, finds nothing and parks again.
        g2.open();
        assert_eq!(r2.recv_timeout(PATIENCE), Ok(Outcome::Completed));
        until(&svc, "first waiter parked again", |c| {
            c.awaited == [t1.0] && c.finished.is_empty()
        });
        assert!(r1.try_recv().is_err());
        g1.open();
        assert_eq!(r1.recv_timeout(PATIENCE), Ok(Outcome::Completed));
        notified_once_per_park(&svc);
    }

    /// `try_take` may win the report from a parked `wait` caller. That
    /// caller was notified when the report landed, so it comes back and
    /// hits the documented already-taken panic; it does not sleep on.
    #[test]
    fn try_take_never_strands_a_waiter() {
        let svc = Arc::new(JadeService::new(ServiceConfig::new(1)));
        let gate = Gate::default();
        let b = svc
            .submit(blocker(&gate), TenantOptions::default())
            .unwrap();
        until(&svc, "blocker running", |c| {
            c.active.values().any(|t| t.running == 1)
        });
        let id = svc
            .submit(chain_program(3).0, TenantOptions::default())
            .unwrap();
        let (svc2, (tx, rx)) = (Arc::clone(&svc), std::sync::mpsc::channel());
        std::thread::spawn(move || {
            tx.send(catch_unwind(AssertUnwindSafe(|| svc2.wait(id).outcome)))
        });
        until(&svc, "waiter parked", |c| c.awaited == [id.0]);
        // Who gets the lock first once a report has landed is a race, so
        // play the losing order by hand, under one hold of the lock: the
        // tenant retires the way a deadline sweep retires it, and the
        // report is gone (`try_take`'s one line) before the waiter is back.
        let mut core = lock(&svc.inner.core);
        cancel_tenant(&mut core, &svc.inner, id.0, Outcome::DeadlineExceeded);
        assert_eq!(core.probe.done_notifies, 1);
        assert!(core.finished.remove(&id.0).is_some());
        drop(core);
        let waited = rx.recv_timeout(PATIENCE).expect("waiter stranded");
        let msg = waited.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("already-taken"), "{msg}");
        gate.open();
        assert_eq!(svc.wait(b).outcome, Outcome::Completed);
        notified_once_per_park(&svc);
    }

    #[test]
    fn shutdown_wakes_a_fully_parked_pool() {
        let svc = JadeService::new(ServiceConfig::new(3));
        until(&svc, "all parked", |c| c.idle == 3);
        notified_once_per_park(&svc);
        within("shutdown", move || svc.shutdown());
    }

    /// The client is woken for the tenant it waits on, not once for every
    /// DAG that finishes meanwhile.
    #[test]
    fn finished_dags_nobody_awaits_notify_nobody() {
        let svc = Arc::new(JadeService::new(ServiceConfig::new(1)));
        let gate = Gate::default();
        let b = svc
            .submit(blocker(&gate), TenantOptions::default())
            .unwrap();
        let ids: Vec<TenantId> = (0..4)
            .map(|_| {
                svc.submit(chain_program(64).0, TenantOptions::default())
                    .unwrap()
            })
            .collect();
        let last = ids[3];
        let (svc2, (tx, rx)) = (Arc::clone(&svc), std::sync::mpsc::channel());
        std::thread::spawn(move || tx.send(svc2.wait(last).outcome));
        until(&svc, "client parked on the last DAG", |c| {
            c.awaited == [last.0]
        });
        assert_eq!(probe(&svc).done_notifies, 0);
        gate.open();
        assert_eq!(rx.recv_timeout(PATIENCE), Ok(Outcome::Completed));
        // One worker serves the four chains round-robin, so the last one
        // submitted is the last to finish: the rest are there to take.
        for id in std::iter::once(b).chain(ids[..3].iter().copied()) {
            assert_eq!(svc.try_take(id).unwrap().outcome, Outcome::Completed);
        }
        assert_eq!(probe(&svc).done_notifies, 1, "five DAGs, one waiter");
        notified_once_per_park(&svc);
    }

    /// The steady-state shape: while the one worker is busy it takes the
    /// core lock once per task and nobody notifies `work`.
    #[test]
    fn a_busy_worker_locks_once_per_task_and_is_never_notified() {
        let svc = Arc::new(JadeService::new(ServiceConfig::new(1)));
        let gate = Gate::default();
        let b = svc
            .submit(blocker(&gate), TenantOptions::default())
            .unwrap();
        until(&svc, "blocker running", |c| {
            c.idle == 0 && c.active.values().any(|t| t.running == 1)
        });
        let before = probe(&svc);
        let ids: Vec<TenantId> = [chain_program(50).0, wide_program(50).0, chain_program(50).0]
            .into_iter()
            .map(|p| svc.submit(p, TenantOptions::default()).unwrap())
            .collect();
        gate.open();
        for id in ids.into_iter().chain([b]) {
            let svc2 = Arc::clone(&svc);
            let r = within("wait", move || svc2.wait(id));
            assert_eq!(r.outcome, Outcome::Completed);
        }
        let after = probe(&svc);
        assert_eq!(after.work_notifies, before.work_notifies);
        // The blocker's settle and one per task; the acquisition that
        // follows the final park is still to come.
        assert_eq!(after.worker_locks - before.worker_locks, 1 + 150);
        assert!(after.done_notifies - before.done_notifies <= 4);
        notified_once_per_park(&svc);
    }

    /// Retired slots are reused, the spare list is bounded by `max_active`,
    /// and a slot grown past the cap is dropped with its tenant.
    #[test]
    fn spare_slots_are_bounded_in_number_and_size() {
        let svc = JadeService::new(config(2, 2));
        for n in [8, 3, 8, 5] {
            let ids: Vec<TenantId> = (0..4)
                .map(|_| {
                    svc.submit(chain_program(n).0, TenantOptions::default())
                        .unwrap()
                })
                .collect();
            for id in ids {
                assert_eq!(svc.wait(id).outcome, Outcome::Completed);
            }
            until(&svc, "workers parked", |c| c.idle == 2);
            let core = lock(&svc.inner.core);
            assert!((1..=2).contains(&core.spares.len()));
            assert!(core
                .spares
                .iter()
                .all(|s| s.tasks.is_empty() && s.ready.is_empty() && s.sync.task_count() == 0));
        }
        let huge = SPARE_MAX_ENTRIES;
        let (prog, h) = chain_program(huge);
        let id = svc.submit(prog, TenantOptions::default()).unwrap();
        let r = svc.wait(id);
        assert_eq!(*r.store.read(h), chain_expected(huge));
        let core = lock(&svc.inner.core);
        assert!(core.spares.len() <= 2);
        assert!(core.spares.iter().all(|s| s.tasks.capacity() < huge));
        drop(core);
        notified_once_per_park(&svc);
    }
}
