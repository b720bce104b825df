//! The one simulator driver: the Jade execution model both simulated
//! machines replay (paper §2–3), written once over a statically dispatched
//! [`Machine`] trait (DESIGN.md §4, "One simulator driver").
//!
//! A main thread on processor 0 creates tasks in serial program order and
//! blocks on serial-phase tasks, which it runs inline on processor 0;
//! processor 0 runs ordinary tasks only while main is blocked or done.
//! Every task starts with an optional injected stall, a `TaskStarted`
//! event and its compute work, and its completion enables its successors.
//! A machine supplies only where an enabled task goes, what a free
//! processor does, what data a starting task waits for, and what a
//! finished task sends.

use crate::calendar::Calendar;
use crate::fault::{FaultInjector, FaultPlan};
use crate::proc::{ProcClock, TimeKind};
use crate::time::{SimDuration, SimTime};
use jade_core::{
    Component, Countdown, Event, EventKind, Locality, Metrics, MetricsFold, ObjectId, ProcId, Sink,
    TaskId, Trace,
};
use std::fmt;

/// Why a simulation could not produce a result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The configuration requested a machine with zero processors.
    NoProcessors,
    /// The fault plan is malformed (a bad probability, an oversized
    /// duration, or a fail-stop target the machine cannot lose).
    InvalidFaultPlan(String),
    /// The machine or cost configuration is unusable: left unchecked, the
    /// value would poison virtual-time arithmetic deep in the event loop.
    InvalidMachine(String),
    /// The trace is malformed; the first problem [`Trace::validate`] names.
    InvalidTrace(String),
    /// The event calendar drained before the program completed:
    /// `live_tasks` tasks never finished. Indicates a scheduler or protocol
    /// bug, not an injected fault.
    Stalled { live_tasks: usize },
    /// A fetch was retried past the retry budget (statistically unreachable
    /// for drop probabilities ≤ 0.2, but the type is total).
    RetriesExhausted {
        task: TaskId,
        object: ObjectId,
        attempts: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoProcessors => write!(f, "need at least one processor"),
            SimError::InvalidFaultPlan(why) => write!(f, "invalid fault plan: {why}"),
            SimError::InvalidMachine(why) => write!(f, "invalid machine config: {why}"),
            SimError::InvalidTrace(why) => write!(f, "invalid trace: {why}"),
            SimError::Stalled { live_tasks } => {
                write!(f, "simulation stalled: {live_tasks} tasks never completed")
            }
            SimError::RetriesExhausted {
                task,
                object,
                attempts,
            } => write!(
                f,
                "fetch of {object:?} for {task:?} exhausted {attempts} retries"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Define a machine's three entry points — `try_run`, `try_run_folded` and
/// `try_run_traced` — and the one body behind them, which runs
/// [`simulate`] on the machine `$build` constructs from the core and a
/// `$cfg`, for a `$res`. The [`Params`] are read from `$cfg` by
/// field name — both machines' configurations name them alike — and main's
/// creation cost is the machine's constant `$create`. The bodies
/// are written once, here; each machine's crate gets them with concrete
/// types, so callers keep deref coercion (`&Box<DashConfig>` passes).
#[macro_export]
macro_rules! entry_points {
    ($cfg:ty => $res:ty, $build:path, $create:expr) => {
        /// Simulate `trace` on the configured machine. Configuration and
        /// trace problems and wedged runs come back as errors. Folds each
        /// event into the result as it is emitted and never builds the
        /// stream; debug builds record it anyway so the span-conservation
        /// check still runs.
        pub fn try_run(
            trace: &jade_core::Trace,
            cfg: &$cfg,
        ) -> Result<$res, $crate::driver::SimError> {
            if cfg!(debug_assertions) {
                return Ok(try_run_traced(trace, cfg)?.0);
            }
            try_run_folded(trace, cfg)
        }

        /// The fold-only run in every build profile — what release
        /// [`try_run`] is. For tests that compare it with
        /// [`try_run_traced`] under `cargo test`.
        #[doc(hidden)]
        pub fn try_run_folded(
            trace: &jade_core::Trace,
            cfg: &$cfg,
        ) -> Result<$res, $crate::driver::SimError> {
            Ok(simulate(trace, cfg, jade_core::NullSink)?.0)
        }

        /// [`try_run`] that also returns the structured event stream the
        /// run's measurements were folded from (see [`jade_core::events`]):
        /// the result is the same fold, with every event also recorded.
        pub fn try_run_traced(
            trace: &jade_core::Trace,
            cfg: &$cfg,
        ) -> Result<($res, Vec<jade_core::Event>), $crate::driver::SimError> {
            simulate(trace, cfg, Vec::<jade_core::Event>::new())
        }

        fn simulate<R: jade_core::Sink + Default>(
            trace: &jade_core::Trace,
            cfg: &$cfg,
            rec: R,
        ) -> Result<($res, Vec<jade_core::Event>), $crate::driver::SimError> {
            let params = $crate::driver::Params {
                procs: cfg.machine.procs,
                sec_per_op: cfg.sec_per_op,
                create: $create,
                work_free: cfg.work_free,
                replication: cfg.replication,
                faults: cfg.faults,
            };
            $crate::driver::simulate(trace, params, rec, |core| $build(core, cfg))
        }
    };
}

/// The configuration fields the driver reads, named as in both machines'
/// configurations ([`entry_points`] copies them by name).
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub procs: usize,
    pub sec_per_op: f64,
    /// Main's per-task creation cost: the machine's calibrated constant.
    pub create: SimDuration,
    pub work_free: bool,
    pub replication: bool,
    pub faults: FaultPlan,
}

/// Deterministic per-task duration jitter (fraction, mean zero), modeling
/// the cache and contention variability of a real machine. Without it,
/// equal-length tasks complete in lock step and the load balancer never
/// sees an imbalance — unlike the paper's machines.
const JITTER_FRAC: f64 = 0.08;

/// A calendar event: the driver's two, or one of the machine's own.
#[derive(Clone, Copy, Debug)]
pub enum Ev<E> {
    /// Main processes its next trace record.
    MainStep,
    /// A task's body finished on a processor.
    Finish {
        proc: ProcId,
        task: TaskId,
    },
    Machine(E),
}

/// The driver's state: the calendar, the processor clocks, the replay of
/// the trace's dependence graph, the event sinks and the main thread. A
/// machine embeds one and hands it out through [`Machine::core`].
pub struct Core<'a, E, R: Sink> {
    pub trace: &'a Trace,
    pub cal: Calendar<Ev<E>>,
    pub pc: ProcClock,
    /// Which created tasks are enabled: the trace's
    /// [`DepGraph`](jade_core::DepGraph), counted down by completions.
    pub deps: Countdown<'a>,
    /// Every measurement comes out of this event stream: the run's counters
    /// are folded from it as it is emitted ([`MetricsFold`]). `R` records
    /// the stream as well (a `Vec<Event>`) or discards it
    /// ([`jade_core::NullSink`]).
    pub events: (MetricsFold, R),
    /// Fault decision stream.
    pub inj: FaultInjector,
    /// The task each processor is executing.
    pub executing: Vec<Option<TaskId>>,
    /// The serial-phase task main is blocked on.
    pub main_blocked: Option<TaskId>,
    /// Main has created every task it will create.
    pub main_done: bool,
    /// Unrecoverable failure; aborts the event loop.
    pub fatal: Option<SimError>,
    params: Params,
    next_rec: usize,
    /// Native stall tally, cross-checked against the event stream.
    n_stalls: u64,
    /// Scratch of [`Machine::complete`], kept for its storage: every
    /// `TaskEnabled` of a completion is emitted before the machine places
    /// any of the tasks it enabled.
    newly: Vec<TaskId>,
}

impl<'a, E, R: Sink> Core<'a, E, R> {
    /// Validate what both machines share — the processor count, the compute
    /// cost, the fault plan and the trace — and set up a run with main's
    /// first step on the calendar.
    fn new(trace: &'a Trace, p: Params, rec: R) -> Result<Self, SimError> {
        if p.procs < 1 {
            return Err(SimError::NoProcessors);
        }
        if !(p.sec_per_op.is_finite() && (0.0..=3_600.0).contains(&p.sec_per_op)) {
            return Err(SimError::InvalidMachine(format!(
                "sec_per_op must be in [0, 3600] seconds, got {}",
                p.sec_per_op
            )));
        }
        p.faults.validate().map_err(SimError::InvalidFaultPlan)?;
        let graph = trace
            .dep_graph(p.replication)
            .map_err(SimError::InvalidTrace)?;
        let mut cal = Calendar::new();
        cal.schedule(SimTime::ZERO, Ev::MainStep);
        Ok(Core {
            trace,
            cal,
            pc: ProcClock::new(p.procs),
            deps: Countdown::new(graph),
            events: (MetricsFold::new(p.procs), rec),
            inj: FaultInjector::new(p.faults),
            executing: vec![None; p.procs],
            main_blocked: None,
            main_done: false,
            fatal: None,
            params: p,
            next_rec: 0,
            n_stalls: 0,
            newly: Vec::new(),
        })
    }

    /// Processor 0 may run tasks only while the main thread is blocked on a
    /// serial phase or has finished creating tasks.
    #[inline]
    pub fn main_available(&self) -> bool {
        self.main_done || self.main_blocked.is_some()
    }

    /// Occupy `p`'s timeline for `dur` from `now` and emit the matching
    /// span. Returns when the work ends; work that ends past the clock
    /// stops the run with an error.
    #[inline]
    pub fn occupy(
        &mut self,
        p: ProcId,
        now: SimTime,
        dur: SimDuration,
        kind: TimeKind,
        task: Option<TaskId>,
    ) -> SimTime {
        let end = self.pc.occupy(p, now, dur, kind);
        if end == SimTime::MAX {
            // The clock saturated: the run stops, with no span past it.
            self.fatal.get_or_insert_with(past_the_clock);
            return end;
        }
        let component = match kind {
            TimeKind::App => Component::App,
            TimeKind::Comm => Component::Comm,
            TimeKind::Mgmt => Component::Mgmt,
        };
        self.events.span(end.0 - dur.0, p, component, dur.0, task);
        end
    }

    /// Emit `id`'s dispatch to `p` with the locality heuristic's outcome:
    /// a hit when `p` is the task's `target`, judged only for ordinary tasks
    /// that declared a locality object.
    #[inline]
    pub fn dispatched(&mut self, t: SimTime, p: ProcId, id: TaskId, target: ProcId, stolen: bool) {
        let rec = &self.trace.tasks[id.index()];
        let locality = if rec.serial_phase || rec.spec.locality_object().is_none() {
            Locality::Untracked
        } else if p == target {
            Locality::Hit
        } else {
            Locality::Miss
        };
        let kind = EventKind::TaskDispatched { stolen, locality };
        self.events.emit_task(t.0, p, kind, id);
    }

    /// Schedule one of the machine's own events.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, ev: E) {
        self.cal.schedule(at, Ev::Machine(ev));
    }

    /// Schedule a machine timer (see [`Calendar::schedule_timer`]).
    #[inline]
    pub fn schedule_timer(&mut self, at: SimTime, ev: E) {
        self.cal.schedule_timer(at, Ev::Machine(ev));
    }
}

/// The result fields every machine reports, folded once and named as in
/// both machines' results, and the fold of the whole event stream the
/// machine reads its own fields from.
pub struct Run {
    pub metrics: Metrics,
    pub procs: usize,
    pub exec_time_s: f64,
    pub task_time_s: f64,
    pub locality_pct: f64,
    pub per_proc_busy: Vec<(f64, f64, f64)>,
}

/// Deterministic mean-zero multiplicative jitter for task `id`.
#[inline]
fn jitter(id: TaskId) -> f64 {
    let h = (id.0 as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
    let u = ((h >> 40) % 10_000) as f64 / 10_000.0; // [0, 1)
    1.0 + JITTER_FRAC * (u - 0.5)
}

/// A simulated machine: its state embeds a [`Core`], its hooks say what it
/// does differently, and the provided methods are the driver the hooks
/// plug into. Machines call the provided methods and do not override them.
pub trait Machine<'a, R: Sink>: Sized {
    /// The machine's own calendar events.
    type Ev;
    type Result;

    fn core(&mut self) -> &mut Core<'a, Self::Ev, R>;

    /// An ordinary task became enabled at `t`: place it.
    fn enable(&mut self, id: TaskId, t: SimTime);

    /// The serial task main is blocked on became enabled at `t`.
    fn enable_serial(&mut self, id: TaskId, t: SimTime);

    /// Processor `p` may be free to start work at `t`.
    fn fill(&mut self, p: ProcId, t: SimTime);

    /// Task `id` started on `p` and computes until `end`: charge the data
    /// movement the start waits on and return when the task finishes.
    fn start_data(&mut self, _p: ProcId, _id: TaskId, end: SimTime) -> SimTime {
        end
    }

    /// Task `id`'s body finished on `p` at `t`.
    fn finish(&mut self, p: ProcId, id: TaskId, t: SimTime);

    /// One of the machine's own calendar events fired at `t`.
    fn handle(&mut self, ev: Self::Ev, t: SimTime);

    /// Main paid ordinary task `id`'s creation cost, ending at `t`, and has
    /// not registered it yet.
    fn created(&mut self, _id: TaskId, _t: SimTime) {}

    /// Assemble the machine's result from the shared fields.
    fn result(self, run: Run) -> Self::Result;

    /// Main processes its next trace record at `t`.
    fn main_step(&mut self, t: SimTime) {
        let c = self.core();
        if c.next_rec == c.trace.tasks.len() {
            c.main_done = true;
            self.fill(0, t);
            return;
        }
        let trace = c.trace;
        let rec = &trace.tasks[c.next_rec];
        let id = TaskId(c.next_rec as u32);
        c.next_rec += 1;
        if rec.serial_phase {
            // Main blocks until the serial task's dependences resolve;
            // processor 0 runs ordinary tasks meanwhile.
            c.main_blocked = Some(id);
            if c.deps.add_task_traced(id, &mut c.events, t.0, 0) {
                self.enable_serial(id, t);
            } else {
                self.fill(0, t);
            }
        } else {
            let end = c.occupy(0, t, c.params.create, TimeKind::Mgmt, Some(id));
            self.created(id, end);
            let c = self.core();
            if c.deps.add_task_traced(id, &mut c.events, end.0, 0) {
                self.on_enabled(id, end);
            }
            self.core().cal.schedule(end, Ev::MainStep);
        }
    }

    /// Task `id` became enabled at `t`.
    fn on_enabled(&mut self, id: TaskId, t: SimTime) {
        if self.core().main_blocked == Some(id) {
            self.enable_serial(id, t);
        } else {
            self.enable(id, t);
        }
    }

    /// Start task `id` on the free processor `p` at `t` and schedule its
    /// finish.
    fn start_task(&mut self, p: ProcId, id: TaskId, t: SimTime) {
        let c = self.core();
        debug_assert!(c.executing[p].is_none(), "dispatch to busy processor");
        let mut t = t;
        // Injected transient stall: the processor loses time to OS jitter
        // (a page fault, an interrupt storm) before the task starts. The
        // task still runs to completion — a stall only shifts its span.
        if let Some(d) = c.inj.stall() {
            c.n_stalls += 1;
            c.events
                .emit(t.0, p, EventKind::ProcStalled { dur_ps: d.0 });
            t = c.occupy(p, t, d, TimeKind::Comm, None);
        }
        c.executing[p] = Some(id);
        let rec = &c.trace.tasks[id.index()];
        if rec.serial_phase {
            // Serial tasks bind to the main processor without a scheduler
            // dispatch; emit the binding here so every task has one
            // dispatched event in its lifecycle chain.
            c.dispatched(t, p, id, p, false);
        }
        c.events.emit_task(t.0, p, EventKind::TaskStarted, id);
        let cfg = &c.params;
        let work = if cfg.work_free {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs_f64(rec.work * cfg.sec_per_op * jitter(id))
        };
        let end = c.occupy(p, t, work, TimeKind::App, Some(id));
        let end = self.start_data(p, id, end);
        self.core()
            .cal
            .schedule(end, Ev::Finish { proc: p, task: id });
    }

    /// Retire `id`, which ran on `p`, at `t`: count down its successors
    /// and pass every task that enables to [`Machine::on_enabled`]. If `id`
    /// is the serial task main is blocked on, main is unblocked first, so
    /// those tasks see processor 0 held by main; the machine schedules the
    /// `MainStep` that resumes it.
    fn complete(&mut self, id: TaskId, p: ProcId, t: SimTime) {
        let c = self.core();
        if c.main_blocked == Some(id) {
            c.main_blocked = None;
        }
        let mut newly = std::mem::take(&mut c.newly);
        newly.clear();
        c.deps
            .complete_traced(id, &[], &mut newly, &mut c.events, t.0, p);
        for &enabled in &newly {
            self.on_enabled(enabled, t);
        }
        self.core().newly = newly;
    }
}

/// The error of a run whose work ends, or whose event falls, where the
/// virtual clock saturates (`SimTime + SimDuration` does).
fn past_the_clock() -> SimError {
    SimError::InvalidMachine("the run outlives the virtual clock (2^64 ps, 213 days)".into())
}

/// The one simulation body: validate, build the machine around the core,
/// run the calendar dry, and fold the result. Every event goes to the fold
/// and to `rec`.
pub fn simulate<'a, M, R>(
    trace: &'a Trace,
    params: Params,
    rec: R,
    build: impl FnOnce(Core<'a, M::Ev, R>) -> Result<M, SimError>,
) -> Result<(M::Result, Vec<Event>), SimError>
where
    M: Machine<'a, R>,
    R: Sink + Default,
{
    let mut sim = build(Core::new(trace, params, rec)?)?;
    while let Some((t, ev)) = sim.core().cal.pop() {
        if t == SimTime::MAX {
            sim.core().fatal = Some(past_the_clock());
            break;
        }
        match ev {
            Ev::MainStep => sim.main_step(t),
            Ev::Finish { proc, task } => sim.finish(proc, task, t),
            Ev::Machine(ev) => sim.handle(ev, t),
        }
        if sim.core().fatal.is_some() {
            break;
        }
    }
    let c = sim.core();
    if let Some(e) = c.fatal.take() {
        return Err(e);
    }
    if !c.main_done || !c.deps.all_complete() {
        return Err(SimError::Stalled {
            live_tasks: c.deps.live_tasks(),
        });
    }
    let procs = c.pc.procs();
    let (fold, rec) = std::mem::replace(&mut c.events, (MetricsFold::new(0), R::default()));
    let m = fold.finish();
    let events = rec.into_events();
    debug_assert_eq!(
        m.stalls, c.n_stalls,
        "event stalls disagree with the driver"
    );
    if R::ACTIVE {
        debug_assert_eq!(
            jade_core::check_conservation(&events, procs, c.pc.horizon().0).err(),
            None,
            "busy spans do not tile the makespan"
        );
    }
    let run = Run {
        procs,
        exec_time_s: c.pc.horizon().as_secs_f64(),
        task_time_s: SimDuration(m.task_span_ps).as_secs_f64(),
        locality_pct: crate::percent(m.locality_hits as f64, m.locality_tracked as f64),
        per_proc_busy: (0..procs)
            .map(|p| {
                let u = c.pc.usage(p);
                (
                    u.app.as_secs_f64(),
                    u.comm.as_secs_f64(),
                    u.mgmt.as_secs_f64(),
                )
            })
            .collect(),
        metrics: m,
    };
    Ok((sim.result(run), events))
}
