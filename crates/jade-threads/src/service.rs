//! A long-lived multi-tenant Jade service over the shared worker pool.
//!
//! [`ThreadRuntime`](crate::ThreadRuntime) executes one program's task DAG
//! per batch and tears its scheduler down afterwards. This module is the
//! request-level front end the ROADMAP's "heavy traffic" north star asks
//! for: a [`JadeService`] owns a pool of long-lived worker threads and
//! admits a *stream* of independent program DAGs ([`Program`]s). Each
//! admitted tenant gets its own dependence graph ([`Countdown`]), built
//! once at admission, its own [`Store`] and its own event stream; all
//! tenants share the worker pool. The service
//! does not place tasks: any worker runs any tenant's next ready task, so
//! every dispatch is recorded as [`Locality::Untracked`].
//!
//! Robustness contracts, in order of importance:
//!
//! * **Admission control / backpressure.** At most `max_active` tenants are
//!   resident; further submissions queue in a bounded pending queue. A full
//!   queue never panics and never buffers unboundedly: the new submission
//!   is rejected with [`SubmitError::Overloaded`].
//! * **Tenant fault isolation.** Task bodies run under `catch_unwind`: a
//!   panicking body fails only its own tenant ([`Outcome::Failed`]), whose
//!   remaining tasks are cancelled — the pool keeps running and every
//!   other tenant's outputs and deterministic counters are exactly what
//!   they would be running alone. A panic outside a body is a service bug:
//!   the service stops, and [`JadeService::wait`] panics with its message
//!   instead of blocking.
//! * **Fair scheduling.** Workers scan tenants round-robin: a tenant with
//!   continuously ready work waits at most one dispatch per other
//!   resident tenant between two of its own — the starvation bound
//!   asserted in the tests.
//! * **Cost per task.** A worker settles a finished task and picks its
//!   next one under a single acquisition of the core lock; a condvar is
//!   notified only when someone is parked on it for that very reason and
//!   has not been notified already (`Core::idle` / `waking`, `awaited`),
//!   `work` never under the lock; resident tenants live in a slab of
//!   `max_active` slots, and a retired tenant's storage serves the next one
//!   admitted to its slot. Protocol and no-lost-wake-up argument: DESIGN.md §16.
//! * **Per-tenant metrics.** Every event is recorded in the tenant's own
//!   stream ([`TenantReport::events`]), which `check_lifecycle` and
//!   `Metrics::from_events` take as it is. Times come from one
//!   service-global logical clock, so merging two reports' streams by time
//!   gives the order the service dispatched them in.
//!
//! Determinism note: fairness and the global clock order events across
//! tenants nondeterministically, but everything *within* a tenant that Jade
//! semantics pins down — final object values and the interleaving-
//! independent counters — is identical to a solo run of the same program
//! (enforced by proptests in `tests/service.rs`).

use crate::{lock, Release};
use jade_core::{
    AccessSpec, Countdown, Event, EventKind, Handle, Locality, Metrics, ObjectId, Sink, Store,
    TaskBody, TaskCtx, TaskDef, TaskId, TenantId,
};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

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

/// Static configuration of a [`JadeService`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads in the shared pool (minimum 1).
    pub workers: usize,
    /// Tenants resident (admitted, with their dependence graph) at once.
    pub max_active: usize,
    /// Bound of the pending-DAG admission queue; a submission that finds
    /// it full is rejected with [`SubmitError::Overloaded`]. `0` disables
    /// queueing entirely.
    pub max_pending: usize,
}

impl ServiceConfig {
    pub fn new(workers: usize) -> ServiceConfig {
        ServiceConfig {
            workers: workers.max(1),
            max_active: 8,
            max_pending: 32,
        }
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig::new(2)
    }
}

/// Per-submission options. There are none yet: every tenant is served
/// alike, and `TenantOptions::default()` is the one value.
#[derive(Clone, Debug, Default)]
pub struct TenantOptions {}

/// Why a submission was not admitted. Never a panic: overload is an
/// expected operating condition of a loaded service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Active slots and the pending queue are full.
    Overloaded { pending: usize, limit: usize },
    /// The service is shutting down, or a worker panicked outside a task
    /// body and stopped it.
    ShuttingDown,
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
    /// A task body panicked, with this message; remaining tasks were
    /// cancelled. The pool survives.
    Failed(String),
}

/// Everything a tenant's run produced. The store is shared (`Arc`) because
/// task bodies may still be unwinding when the report is built; readers use
/// [`Store::read`]/[`Store::snapshot`] as usual.
pub struct TenantReport {
    pub tenant: TenantId,
    pub outcome: Outcome,
    pub tasks_total: usize,
    pub tasks_completed: usize,
    /// Tasks never completed (cancelled by a failure). Zero iff
    /// `outcome == Completed`.
    pub tasks_cancelled: usize,
    pub store: Arc<Store>,
    /// This tenant's event stream. Times are service-global logical
    /// sequence numbers, so the streams of several reports merge by time
    /// into one total order.
    pub events: Vec<Event>,
}

impl TenantReport {
    /// Per-tenant metrics reconstructed from this tenant's events alone.
    pub fn metrics(&self, procs: usize) -> Metrics {
        Metrics::from_events(&self.events, procs)
    }
}

/// One entry of the tenant slab: the tenant resident in it, if any, and
/// the allocations that outlive a tenant. A retiring tenant's are cleared
/// for the next one admitted to the slot, so a warmed service registers a
/// DAG without growing any of them.
#[derive(Default)]
struct Slot {
    tenant: Option<Tenant>,
    /// The tenant's tasks, indexed by tenant-local task id.
    tasks: Vec<TenantTask>,
    /// The tenant's dependence graph, built at admission, and its countdown.
    deps: Countdown<'static>,
    /// Enabled, not-yet-dispatched tenant-local task indices (FIFO).
    ready: VecDeque<usize>,
}

/// One registered task: the service's counterpart of `ThreadRuntime`'s task
/// slot. Everything here is guarded by the core lock, so it needs neither
/// that slot's body mutex nor its atomics.
struct TenantTask {
    label: &'static str,
    /// Travels with the body to the executing worker, whose `TaskCtx`
    /// needs it off the core lock; the graph was built from it at
    /// admission, so nothing reads it under the lock.
    spec: AccessSpec,
    /// Taken by the executing worker.
    body: Option<TaskBody>,
}

/// Largest tenant (tasks + declared accesses + objects) whose storage its
/// slot keeps for the next; a bigger one's is dropped at retirement, so one
/// huge DAG cannot pin its slabs for the life of the service.
const SPARE_MAX_ENTRIES: usize = 4096;

/// One resident tenant; its tasks and countdown are its slot's. All
/// fields are guarded by the service's core lock; only the store (and the
/// executing task's body) escape it.
struct Tenant {
    id: u32,
    store: Arc<Store>,
    events: Vec<Event>,
    /// Declared accesses over all tasks (sizes the slot, see
    /// [`SPARE_MAX_ENTRIES`]).
    n_decls: usize,
    /// Tasks currently executing on workers.
    running: usize,
    /// The first panic message of a failed tenant. A failed tenant
    /// dispatches nothing further and finalizes when the last running task
    /// drains.
    failed: Option<String>,
}

/// A submission waiting for an active slot. `submit` allocates what leaves
/// with the report (`store`, `events`) before it locks: no admission path
/// (`submit`'s own, a worker's `pump_admissions`) allocates under the lock.
struct PendingTenant {
    id: u32,
    tasks: Vec<TaskDef>,
    store: Arc<Store>,
    events: Vec<Event>,
}

#[derive(Default)]
struct Core {
    /// The tenant slab: `max_active` slots.
    slab: Vec<Slot>,
    pending: VecDeque<PendingTenant>,
    finished: HashMap<u32, TenantReport>,
    next_id: u32,
    /// Slab index picked last; the next pick scans on from just past it.
    rr_cursor: usize,
    /// Service-global logical event clock shared by every tenant's stream.
    clock: u64,
    shutdown: bool,
    /// The message of a worker's panic outside a task body. Set with
    /// `shutdown`; from then on `wait` panics with it instead of parking.
    broken: Option<String>,
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
    /// failed tenant's queue is empty, as is a vacant slot's).
    ready_tasks: usize,
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
    /// The slab index of a slot no tenant is resident in, if any.
    fn vacancy(&self) -> Option<usize> {
        self.slab.iter().position(|s| s.tenant.is_none())
    }

    fn residents(&self) -> impl Iterator<Item = &Tenant> {
        self.slab.iter().filter_map(|s| s.tenant.as_ref())
    }

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
    /// The slab index of its tenant.
    at: usize,
    local: usize,
    label: &'static str,
    spec: AccessSpec,
    body: TaskBody,
    store: Arc<Store>,
}

/// The long-lived multi-tenant front end. See the module docs for the
/// contracts; `tests/service.rs` drives it from concurrent submitters.
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
            core: Mutex::new(Core {
                slab: (0..cfg.max_active).map(|_| Slot::default()).collect(),
                ..Core::default()
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let threads = (0..cfg.workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("jade-svc-{w}"))
                    .spawn(move || {
                        // A panic outside a body's catch_unwind is a service
                        // bug (a countdown assert, say): its tenant can never
                        // settle. Stop the service and wake every worker and
                        // every `wait` caller to see it, rather than leave
                        // them parked for a settle that never comes.
                        let run = catch_unwind(AssertUnwindSafe(|| worker_loop(&inner, w)));
                        if let Err(p) = run {
                            let mut core = lock(&inner.core);
                            core.broken.get_or_insert_with(|| panic_message(&*p));
                            core.shutdown = true;
                            drop(core);
                            inner.work.notify_all();
                            inner.done.notify_all();
                        }
                    })
                    .expect("spawn service worker")
            })
            .collect();
        JadeService { inner, threads }
    }

    pub fn workers(&self) -> usize {
        self.inner.cfg.workers
    }

    /// Submit a tenant program. Returns its [`TenantId`] (pass to
    /// [`wait`](Self::wait)) or an explicit [`SubmitError`] — admission
    /// never panics and never queues unboundedly.
    pub fn submit(&self, prog: Program, _opts: TenantOptions) -> Result<TenantId, SubmitError> {
        if prog.tasks.is_empty() {
            return Err(SubmitError::EmptyProgram);
        }
        let Program { store, tasks } = prog;
        let store = Arc::new(store);
        // Five events per task (created, enabled, dispatched, started,
        // completed): a tenant's stream never reallocates.
        let events = Vec::with_capacity(5 * tasks.len());
        let mut core = lock(&self.inner.core);
        if core.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        let vacancy = core.vacancy();
        if vacancy.is_none() && core.pending.len() >= self.inner.cfg.max_pending {
            return Err(SubmitError::Overloaded {
                pending: core.pending.len(),
                limit: self.inner.cfg.max_pending,
            });
        }
        let id = core.next_id;
        core.next_id += 1;
        let pend = PendingTenant {
            id,
            tasks,
            store,
            events,
        };
        let wake = if let Some(at) = vacancy {
            // A vacant slot means `pending` is empty (the park invariant, see
            // `pick`), so registering here does not jump the queue.
            register_tenant(&mut core, at, pend);
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
    /// can be taken exactly once: of two callers waiting on one id, the
    /// one that comes second panics.
    ///
    /// # Panics
    ///
    /// If `id` was never issued by this service or its report was already
    /// taken; or if the report is not there and a service worker panicked
    /// outside a task body, with that panic's message.
    pub fn wait(&self, id: TenantId) -> TenantReport {
        let mut core = lock(&self.inner.core);
        loop {
            if let Some(r) = core.finished.remove(&id.0) {
                return r;
            }
            if let Some(msg) = &core.broken {
                panic!("service worker panicked: {msg}");
            }
            assert!(
                id.0 < core.next_id
                    && (core.residents().any(|t| t.id == id.0)
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

    /// Stop accepting submissions, drain every admitted tenant, and join
    /// the worker pool. Unclaimed reports are dropped.
    ///
    /// # Panics
    ///
    /// If a service worker panicked outside a task body, with that panic's
    /// message (dropping the service does the same, unless the thread is
    /// already unwinding).
    pub fn shutdown(mut self) {
        self.drain_and_join();
    }

    fn drain_and_join(&mut self) {
        lock(&self.inner.core).shutdown = true;
        self.inner.work.notify_all();
        for h in self.threads.drain(..) {
            h.join().expect("a worker's panic is caught");
        }
        // A panic outside a body is a service bug, not a tenant fault:
        // surface it, but never as a second panic while unwinding.
        let broken = lock(&self.inner.core).broken.take();
        if let Some(msg) = broken.filter(|_| !std::thread::panicking()) {
            panic!("service worker panicked: {msg}");
        }
    }
}

impl Drop for JadeService {
    fn drop(&mut self) {
        self.drain_and_join();
    }
}

/// Move a pending submission into the vacant slot `at`: build the
/// dependence graph of its whole program in the slot's recycled storage,
/// register every task in serial program order, and queue the initially
/// enabled ones.
fn register_tenant(core: &mut Core, at: usize, pend: PendingTenant) {
    let PendingTenant {
        id,
        tasks,
        store,
        mut events,
    } = pend;
    let mut slot = std::mem::take(&mut core.slab[at]);
    slot.tasks.reserve(tasks.len());
    let mut n_decls = 0;
    slot.deps.rebuild(tasks.iter().map(|def| &def.spec), true);
    for (i, def) in tasks.into_iter().enumerate() {
        let t = core.tick();
        n_decls += def.spec.len();
        if (slot.deps).add_task_traced(TaskId(i as u32), &mut events, t, 0) {
            slot.ready.push_back(i);
        }
        slot.tasks.push(TenantTask {
            label: def.label,
            spec: def.spec,
            body: Some(def.body),
        });
    }
    core.ready_tasks += slot.ready.len();
    slot.tenant = Some(Tenant {
        id,
        store,
        events,
        n_decls,
        running: 0,
        failed: None,
    });
    core.slab[at] = slot;
}

/// Fail the tenant at `at` whose body panicked with `msg` (the first
/// failure's message wins): drop its not-yet-dispatched work, and finalize
/// immediately if nothing is still running.
fn fail_tenant(core: &mut Core, inner: &Inner, at: usize, msg: String) {
    let slot = &mut core.slab[at];
    let t = slot.tenant.as_mut().expect("tenant still resident");
    t.failed.get_or_insert(msg);
    core.ready_tasks -= slot.ready.len();
    slot.ready.clear();
    if t.running == 0 {
        finalize_tenant(core, inner, at);
    }
}

/// Retire the terminal tenant at `at`: build its report, wake a `wait`
/// caller parked on it, and clear its slot for the next tenant (or drop
/// its storage, if oversized). The vacant slot is refilled by the caller's
/// next `pick`, inside the same critical section.
fn finalize_tenant(core: &mut Core, inner: &Inner, at: usize) {
    let slot = &mut core.slab[at];
    let Some(t) = slot.tenant.take() else {
        return;
    };
    debug_assert_eq!(t.running, 0, "finalizing a tenant with running tasks");
    debug_assert!(
        slot.ready.is_empty(),
        "a terminal tenant has nothing queued"
    );
    let (total, cancelled) = (slot.deps.task_count(), slot.deps.live_tasks());
    if total + t.n_decls + t.store.len() > SPARE_MAX_ENTRIES {
        *slot = Slot::default();
    }
    // A failed tenant retires mid-flight: bodies never dispatched, counts
    // never reaching zero. Everything goes; capacity stays.
    slot.tasks.clear();
    let report = TenantReport {
        tenant: TenantId(t.id),
        outcome: t.failed.map_or(Outcome::Completed, Outcome::Failed),
        tasks_total: total,
        tasks_completed: total - cancelled,
        tasks_cancelled: cancelled,
        events: t.events,
        store: t.store,
    };
    core.finished.insert(t.id, report);
    core.wake_waiters(inner, t.id);
}

/// Admit pending submissions into vacant slots, oldest first.
fn pump_admissions(core: &mut Core) {
    while !core.pending.is_empty() {
        let Some(at) = core.vacancy() else {
            return;
        };
        let pend = core.pending.pop_front().expect("pending checked non-empty");
        register_tenant(core, at, pend);
    }
}

/// Admit pending tenants into vacant slots, then pick the next task
/// round-robin: the first tenant with ready work after the slot picked
/// last, that one itself coming last.
///
/// **Park invariant**: when this returns `None`, no live tenant has ready
/// work **and** (`pending` is empty **or** no slot is vacant) — so a
/// worker that parks on `None` leaves nothing behind that only it could
/// start.
fn pick(core: &mut Core, w: usize) -> Option<Picked> {
    pump_admissions(core);
    if core.ready_tasks == 0 {
        return None;
    }
    let n = core.slab.len();
    let at = (1..=n)
        .map(|k| (core.rr_cursor + k) % n)
        .find(|&i| !core.slab[i].ready.is_empty())
        .expect("ready_tasks counts a queued task");
    let time = core.tick();
    core.rr_cursor = at;
    core.ready_tasks -= 1;
    let slot = &mut core.slab[at];
    let t = slot.tenant.as_mut().expect("tenant resident");
    let local = slot.ready.pop_front().expect("ready checked non-empty");
    let task = &mut slot.tasks[local];
    let body = task.body.take().expect("task dispatched twice");
    let (label, spec) = (task.label, std::mem::take(&mut task.spec));
    t.running += 1;
    let dispatched = EventKind::TaskDispatched {
        stolen: false,
        locality: Locality::Untracked,
    };
    let task = TaskId(local as u32);
    t.events.emit_task(time, w, dispatched, task);
    t.events.emit_task(time, w, EventKind::TaskStarted, task);
    Some(Picked {
        at,
        local,
        label,
        spec,
        body,
        store: Arc::clone(&t.store),
    })
}

/// Count down the graph of the tenant at `at` for task `id` — its mid-task
/// `release`, or its completion with its context's `released` flags — and
/// queue newly enabled tasks (unless the tenant has failed). Returns
/// whether anything became ready.
fn settle(
    core: &mut Core,
    at: usize,
    id: TaskId,
    release: Option<Release>,
    released: &[bool],
    w: usize,
) -> bool {
    #[cfg(test)]
    assert!(!core.probe.settle_panics, "settle panicked on purpose");
    let time = core.tick();
    let mut newly = std::mem::take(&mut core.newly);
    let slot = &mut core.slab[at];
    let t = slot.tenant.as_mut().expect("tenant still resident");
    let events = &mut t.events;
    match release {
        Some((decl, obj)) => slot
            .deps
            .release_traced(id, decl, obj, &mut newly, events, time, w),
        None => (slot.deps).complete_traced(id, released, &mut newly, events, time, w),
    }
    let enabled = if t.failed.is_none() { newly.len() } else { 0 };
    for id in &newly[..enabled] {
        slot.ready.push_back(id.index());
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
        at,
        local,
        label,
        spec,
        body,
        store,
    } = p;
    let id = TaskId(local as u32);
    // A mid-task release counts down at once (a deferred one could
    // deadlock a pipeline whose consumer is the only runnable task). This
    // worker is busy in the body, so a successor the release enabled needs
    // a sleeper; with none parked, whoever settles next picks it up.
    let hook = |decl: usize, obj: ObjectId| {
        let mut core = worker_lock(inner);
        let wake = settle(&mut core, at, id, Some((decl, obj)), &[], w) && core.wake_worker();
        unlock_and_wake(inner, core, wake);
    };
    let ctx = TaskCtx::with_release_hook(&store, id, label, &spec, &hook);
    let result = catch_unwind(AssertUnwindSafe(|| body(&ctx)));
    let released = ctx.into_released();
    // The closure is the tenant's code: drop it, the specification and a
    // panic's payload off the lock.
    drop((store, body, spec));
    let failed = result.err().map(|p| panic_message(&*p));
    let mut core = worker_lock(inner);
    match failed {
        None => {
            settle(&mut core, at, id, None, &released, w);
            let slot = &mut core.slab[at];
            let t = slot.tenant.as_mut().expect("tenant still resident");
            t.running -= 1;
            // Finalize on the last task, or — for a failed tenant — once
            // the last in-flight body has drained.
            if slot.deps.all_complete() || (t.failed.is_some() && t.running == 0) {
                finalize_tenant(&mut core, inner, at);
            }
        }
        Some(msg) => {
            // Contain it: only this tenant is failed; the pool and every
            // other tenant keep running.
            let time = core.tick();
            let t = core.slab[at]
                .tenant
                .as_mut()
                .expect("tenant still resident");
            t.running -= 1;
            t.events.emit(time, w, EventKind::WorkerFailed);
            fail_tenant(&mut core, inner, at, msg);
        }
    }
    core
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "a panic without a message".to_string()
    }
}

fn worker_loop(inner: &Inner, w: usize) {
    let mut core = worker_lock(inner);
    loop {
        if let Some(p) = pick(&mut core, w) {
            // Whatever made work appear (a submit, a release, a settle, an
            // admission) woke at most one sleeper; each worker passes the
            // wake on while ready work is left over after its own pick.
            let wake = core.ready_tasks > 0 && core.wake_worker();
            unlock_and_wake(inner, core, wake);
            core = execute_and_settle(inner, w, p);
            continue;
        }
        let drained = core.residents().next().is_none() && core.pending.is_empty();
        if core.broken.is_some() || (core.shutdown && drained) {
            // The other workers may have parked while this one drained the
            // last tenant: wake them all to see the pool is done. A broken
            // service leaves what it cannot finish.
            drop(core);
            inner.work.notify_all();
            return;
        }
        // `pick` returned `None` under this guard, so its park invariant
        // holds until the wait releases the lock.
        debug_assert_eq!(
            core.slab.iter().map(|s| s.ready.len()).sum::<usize>(),
            core.ready_tasks
        );
        debug_assert!(
            core.ready_tasks == 0 && (core.pending.is_empty() || core.vacancy().is_none())
        );
        core.idle += 1;
        probe!(core, parks);
        core = inner.work.wait(core).unwrap_or_else(|e| e.into_inner());
        // Notified or spurious: back under the lock either way, and a
        // notification in flight (if any) has done its work.
        core.idle -= 1;
        core.waking = core.waking.saturating_sub(1);
        probe!(core, worker_locks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jade_core::{check_lifecycle, TaskBuilder};
    use std::time::{Duration, Instant};

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
        check_lifecycle(&r.events).expect("lifecycle");
        let m = r.metrics(4);
        assert_eq!(m.tasks_created, 20);
        assert_eq!(m.tasks_completed, 20);
        assert_eq!(m.tasks_started, 20);
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
    fn overload_rejects_new_without_panicking() {
        let cfg = ServiceConfig {
            workers: 1,
            max_active: 1,
            max_pending: 2,
        };
        let svc = JadeService::new(cfg);
        let gate = Gate::default();
        let b = svc
            .submit(blocker(&gate), TenantOptions::default())
            .unwrap();
        // Wait until the blocker actually occupies the only active slot.
        until(&svc, "blocker resident", |c| c.residents().next().is_some());
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
        assert_eq!(lock(&svc.inner.core).pending.len(), 2);
        gate.open();
        for id in [b, q1, q2] {
            assert_eq!(svc.wait(id).outcome, Outcome::Completed);
        }
    }

    /// The tenants of `reports` in the order the service dispatched their
    /// tasks: every `TaskDispatched`, merged by the service-global clock.
    fn dispatch_order(reports: &[TenantReport]) -> Vec<TenantId> {
        let mut picks: Vec<(u64, TenantId)> = reports
            .iter()
            .flat_map(|r| {
                let dispatched = r
                    .events
                    .iter()
                    .filter(|e| matches!(e.kind, EventKind::TaskDispatched { .. }));
                dispatched.map(|e| (e.time_ps, r.tenant))
            })
            .collect();
        picks.sort_unstable();
        picks.into_iter().map(|(_, t)| t).collect()
    }

    /// Positions of `id` in a dispatch order.
    fn picks_of(dispatches: &[TenantId], id: TenantId) -> Vec<usize> {
        (0..dispatches.len())
            .filter(|&i| dispatches[i] == id)
            .collect()
    }

    /// The starvation bound: with one worker (so dispatch order is the
    /// fairness policy and nothing else), a tenant with continuously ready
    /// work waits at most one dispatch per other tenant.
    #[test]
    fn round_robin_bounds_starvation() {
        let cfg = ServiceConfig {
            workers: 1,
            max_active: 8,
            max_pending: 8,
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
        while lock(&svc.inner.core).residents().next().is_none() {
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
        let reports: Vec<TenantReport> = ids.iter().map(|&id| svc.wait(id)).collect();
        let dispatches = dispatch_order(&reports);
        assert_eq!(dispatches.len(), TENANTS * TASKS);
        for &id in &ids {
            let picks = picks_of(&dispatches, id);
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

    #[test]
    fn submit_validates_inputs() {
        let svc = JadeService::new(ServiceConfig::new(1));
        assert_eq!(
            svc.submit(Program::new(), TenantOptions::default()),
            Err(SubmitError::EmptyProgram)
        );
        lock(&svc.inner.core).shutdown = true;
        assert_eq!(
            svc.submit(chain_program(1).0, TenantOptions::default()),
            Err(SubmitError::ShuttingDown)
        );
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
        /// While set, `settle` panics: a service bug outside any body.
        pub(super) settle_panics: bool,
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

    /// A tenant that fails frees the only slot while another is pending:
    /// the worker that failed it admits the next one before it looks for
    /// work, so nobody is left pending behind a parked pool.
    #[test]
    fn a_slot_freed_by_a_failed_tenant_is_refilled() {
        for workers in [1, 2] {
            let svc = Arc::new(JadeService::new(config(workers, 1)));
            let gate = Gate::default();
            let b = svc
                .submit(blocker(&gate), TenantOptions::default())
                .unwrap();
            until(&svc, "blocker running", |c| {
                c.residents().any(|t| t.running == 1)
            });
            let mut failing = chain_program(5).0;
            failing.tasks[0].body = Box::new(|_| panic!("first task fails"));
            let a = svc.submit(failing, TenantOptions::default()).unwrap();
            let (clean, h) = chain_program(5);
            let c = svc.submit(clean, TenantOptions::default()).unwrap();
            assert_eq!(lock(&svc.inner.core).pending.len(), 2);
            gate.open();
            for (id, want) in [
                (b, Outcome::Completed),
                (a, Outcome::Failed("first task fails".into())),
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

    /// A worker that panics outside a task body (here in `settle`, with
    /// the core lock held) stops the service instead of hanging it: `wait`
    /// panics with the worker's message, `submit` refuses, every worker
    /// exits, and `shutdown` raises the panic again — but a drop while
    /// already unwinding does not.
    #[test]
    fn a_worker_panic_fails_wait_instead_of_hanging() {
        for (workers, unwinding) in [(1, false), (2, true)] {
            let svc = Arc::new(JadeService::new(ServiceConfig::new(workers)));
            lock(&svc.inner.core).probe.settle_panics = true;
            let id = svc
                .submit(chain_program(3).0, TenantOptions::default())
                .unwrap();
            let svc2 = Arc::clone(&svc);
            let waited = within("wait", move || {
                let r = catch_unwind(AssertUnwindSafe(|| svc2.wait(id)));
                r.map(|r| r.outcome).map_err(|p| panic_message(&*p))
            });
            let msg = "service worker panicked: settle panicked on purpose";
            assert_eq!(waited, Err(msg.to_string()), "{workers} workers");
            assert_eq!(
                svc.submit(chain_program(1).0, TenantOptions::default()),
                Err(SubmitError::ShuttingDown)
            );
            let give_up = Instant::now() + PATIENCE;
            while !svc.threads.iter().all(|h| h.is_finished()) {
                assert!(Instant::now() < give_up, "a worker never exited");
                std::thread::yield_now();
            }
            let svc = Arc::into_inner(svc).expect("the waiter let go");
            let ended = within("shutdown", move || {
                catch_unwind(AssertUnwindSafe(move || {
                    if unwinding {
                        let _svc = svc;
                        panic!("unwinding past the service");
                    }
                    svc.shutdown();
                }))
                .map_err(|p| panic_message(&*p))
            });
            let want = if unwinding {
                "unwinding past the service"
            } else {
                msg
            };
            assert_eq!(ended, Err(want.to_string()), "{workers} workers");
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
            c.idle == 1 && c.waking == 0 && c.residents().any(|t| t.running == 1)
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
            c.idle == 1 && c.residents().any(|t| t.running == 1)
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
            assert_eq!(svc.wait(id).outcome, Outcome::Completed);
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
            c.idle == 0 && c.residents().any(|t| t.running == 1)
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

    /// Retired slots are reused, the slab holds `max_active` of them, and a
    /// slot grown past the cap is dropped with its tenant.
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
            assert_eq!(core.slab.len(), 2);
            assert!(core.slab.iter().all(|s| s.tenant.is_none()
                && s.tasks.is_empty()
                && s.ready.is_empty()
                && s.deps.all_complete()));
            assert!(core.slab.iter().any(|s| s.tasks.capacity() >= 8));
        }
        let huge = SPARE_MAX_ENTRIES;
        let (prog, h) = chain_program(huge);
        let id = svc.submit(prog, TenantOptions::default()).unwrap();
        let r = svc.wait(id);
        assert_eq!(*r.store.read(h), chain_expected(huge));
        let core = lock(&svc.inner.core);
        assert_eq!(core.slab.len(), 2);
        assert!(core.slab.iter().all(|s| s.tasks.capacity() < huge));
        drop(core);
        notified_once_per_park(&svc);
    }
}
