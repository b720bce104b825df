//! The DASH machine simulation: replays a Jade program trace under the
//! shared-memory runtime algorithms of paper Sections 3.1–3.2.
//!
//! The main thread and the task lifecycle are the one simulator driver's
//! ([`dsim::driver`]; DESIGN.md §4, "One simulator driver"); this module is
//! DASH's hooks into it. Enabled tasks flow through the [`DashScheduler`]:
//! serial-phase tasks run inline on processor 0 as soon as it is free, and
//! execution time is the task's calibrated compute work plus the
//! memory-system communication charges from [`MemSim`].

use crate::costs::{COMPLETE, CREATE, DISPATCH, STEAL, STEAL_PATIENCE};
use crate::memsim::MemSim;
use crate::scheduler::{DashScheduler, LocalityMode};
use dsim::driver::{self, Core, Machine, Run, SimError};
use dsim::{DashSpec, FaultPlan, ProcId, SimDuration, SimTime, TimeKind};
use jade_core::{EventKind, ObjectId, Sink, TaskId};

/// Configuration of one DASH run.
#[derive(Clone, Debug)]
pub struct DashConfig {
    pub machine: DashSpec,
    pub mode: LocalityMode,
    /// Seconds of compute per abstract operation (per-application
    /// calibration; see EXPERIMENTS.md).
    pub sec_per_op: f64,
    /// Work-free methodology (Figures 10/11): zero out task work and
    /// communication, keep all management costs.
    pub work_free: bool,
    /// Read replication: `true` lets tasks that only read an object run
    /// concurrently; `false` orders every access to an object like a write
    /// (the Section 5.1 analysis). The rule lives in the trace's dependence
    /// graph ([`jade_core::Trace::dep_graph`]).
    pub replication: bool,
    /// Fault injection plan. DASH is a cache-coherent shared-memory machine:
    /// there are no messages to lose and the threads share fate with the
    /// kernel, so only the *transient stall* component of the plan applies
    /// (modeling OS jitter, page faults, contention spikes). The locality
    /// scheduler degrades gracefully — stalled processors simply fall
    /// behind and their queued tasks get stolen.
    pub faults: FaultPlan,
}

impl DashConfig {
    pub fn paper(procs: usize, mode: LocalityMode, sec_per_op: f64) -> DashConfig {
        DashConfig {
            machine: DashSpec::paper(procs),
            mode,
            sec_per_op,
            work_free: false,
            replication: true,
            faults: FaultPlan::none(),
        }
    }
}

/// Measurements from one DASH run.
#[derive(Clone, Debug)]
pub struct DashRunResult {
    pub procs: usize,
    /// Wall-clock (virtual) execution time of the whole program.
    pub exec_time_s: f64,
    /// Total time spent executing task code, summed over all tasks —
    /// includes communication stalls, exactly like the 60 ns counter
    /// methodology of Figures 6–9.
    pub task_time_s: f64,
    /// Percentage of locality-tracked tasks that executed on the owner of
    /// their locality object (Figures 2–5).
    pub locality_pct: f64,
    /// Number of tasks counted in `locality_pct` (parallel tasks with a
    /// locality object).
    pub locality_tracked: usize,
    pub tasks_executed: usize,
    pub steals: u64,
    /// Total management time across processors.
    pub mgmt_time_s: f64,
    /// Management time on the main processor (task creation serialization).
    pub main_mgmt_s: f64,
    /// Total communication stall time inside tasks.
    pub comm_time_s: f64,
    /// Bytes moved between clusters.
    pub bytes_moved: u64,
    /// Transient processor stalls injected (fault injection).
    pub stalls: u64,
    /// Total injected stall time.
    pub stall_time_s: f64,
    /// Per-processor busy time, split as (app, comm, mgmt) seconds.
    pub per_proc_busy: Vec<(f64, f64, f64)>,
}

/// DASH's own calendar event.
#[derive(Clone, Copy, Debug)]
enum Ev {
    /// An idle processor re-checks for stealable work.
    Retry { proc: ProcId },
}

/// An inter-cluster fetch a starting task stalls on.
struct Fetch {
    obj: ObjectId,
    bytes: u64,
    stall: SimDuration,
}

/// Reject machine parameters that would panic deep in the event loop (a
/// division by a zero cluster size, line size or clock rate) with a typed
/// [`SimError::InvalidMachine`].
fn validate_machine(m: &DashSpec) -> Result<(), SimError> {
    for (name, v) in [
        ("cluster size", m.cluster_size as u64),
        ("line size", m.line_bytes as u64),
        ("clock rate", m.clock_hz),
    ] {
        if v == 0 {
            return Err(SimError::InvalidMachine(format!(
                "{name} must be at least 1"
            )));
        }
    }
    Ok(())
}

struct Sim<'a, R: Sink> {
    core: Core<'a, Ev, R>,
    cfg: &'a DashConfig,
    sched: DashScheduler,
    mem: Option<MemSim>,
    /// Precomputed target processor (owner of locality object) per task.
    target: Vec<ProcId>,
    /// The serial task main is blocked on is enabled but processor 0 is
    /// still running another task.
    main_serial_ready: bool,
    retry_pending: Vec<bool>,
    /// Deterministic LCG used to pick which idle processor grabs a shared-
    /// queue task at the No-Locality level: the paper's first-come
    /// first-served distribution is arbitrary, and a symmetric simulated
    /// system would otherwise develop accidental processor/task affinity.
    lcg: u64,
    /// Scratch of [`Machine::start_data`], kept between calls for its
    /// storage.
    fetches: Vec<Fetch>,
}

dsim::entry_points!(DashConfig => DashRunResult, Sim::new, CREATE);

impl<'a, R: Sink> Sim<'a, R> {
    fn new(core: Core<'a, Ev, R>, cfg: &'a DashConfig) -> Result<Self, SimError> {
        validate_machine(&cfg.machine)?;
        let trace = core.trace;
        let procs = cfg.machine.procs;
        let target = trace
            .tasks
            .iter()
            .map(|t| {
                t.spec.locality_object().map_or(jade_core::MAIN_PROC, |o| {
                    trace.object_home(o).min(procs - 1)
                })
            })
            .collect();
        Ok(Sim {
            core,
            cfg,
            sched: DashScheduler::for_trace(cfg.mode, procs, trace),
            mem: (!cfg.work_free).then(|| MemSim::new(cfg.machine.clone(), trace)),
            target,
            main_serial_ready: false,
            retry_pending: vec![false; procs],
            lcg: 0x9E3779B97F4A7C15,
            fetches: Vec::new(),
        })
    }

    /// Processor 0 runs ordinary tasks only while main is blocked or done
    /// and the serial task main is blocked on does not wait for it.
    fn is_idle(&self, p: ProcId) -> bool {
        let lent = p != 0 || (self.core.main_available() && !self.main_serial_ready);
        self.core.executing[p].is_none() && lent
    }

    /// Pseudo-randomly (but deterministically) pick an idle processor: one
    /// draw, taken only when somebody is idle, indexes the idle processors
    /// in ascending order.
    fn pick_idle(&mut self) -> Option<ProcId> {
        let idle = || (0..self.core.pc.procs()).filter(|&p| self.is_idle(p));
        let n = idle().count();
        if n == 0 {
            return None;
        }
        let lcg = self
            .lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let pick = idle().nth(((lcg >> 33) as usize) % n);
        self.lcg = lcg;
        pick
    }

    fn dispatch(&mut self, p: ProcId, task: TaskId, t: SimTime, stolen: bool) {
        let mut cost = DISPATCH;
        if stolen {
            cost += STEAL;
        }
        let target = self.target[task.index()];
        self.core.dispatched(t, p, task, target, stolen);
        let end = self.core.occupy(p, t, cost, TimeKind::Mgmt, Some(task));
        self.start_task(p, task, end);
    }
}

impl<'a, R: Sink> Machine<'a, R> for Sim<'a, R> {
    type Ev = Ev;
    type Result = DashRunResult;

    fn core(&mut self) -> &mut Core<'a, Ev, R> {
        &mut self.core
    }

    fn enable(&mut self, id: TaskId, t: SimTime) {
        let rec = &self.core.trace.tasks[id.index()];
        let procs = self.core.pc.procs();
        let pinned = self.cfg.mode.honors_placement() && rec.placement.is_some();
        let target = if pinned {
            rec.placement.unwrap().min(procs - 1)
        } else {
            self.target[id.index()]
        };
        self.sched
            .insert(id, target, rec.spec.locality_object(), pinned, t);
        // Wake processors that could run it.
        if self.sched.mode().uses_locality() {
            if self.is_idle(target) {
                self.fill(target, t);
            } else if !pinned {
                for k in 1..procs {
                    let p = (target + k) % procs;
                    if self.is_idle(p) {
                        self.fill(p, t);
                        break;
                    }
                }
            }
        } else if let Some(p) = self.pick_idle() {
            self.fill(p, t);
        }
    }

    /// The serial task runs inline on processor 0 as soon as that processor
    /// is free: now, or when its current task finishes.
    fn enable_serial(&mut self, id: TaskId, t: SimTime) {
        if self.core.executing[0].is_none() {
            self.start_task(0, id, t);
        } else {
            self.main_serial_ready = true;
        }
    }

    fn fill(&mut self, p: ProcId, t: SimTime) {
        if !self.is_idle(p) {
            return;
        }
        if let Some(task) = self.sched.pop_local(p) {
            self.dispatch(p, task, t, false);
            return;
        }
        let cutoff = SimTime(t.0.saturating_sub(STEAL_PATIENCE.0));
        if let Some((task, _victim)) = self.sched.steal(p, cutoff) {
            self.dispatch(p, task, t, true);
            return;
        }
        if self.sched.any_stealable() && !self.retry_pending[p] {
            self.retry_pending[p] = true;
            self.core
                .schedule(t + STEAL_PATIENCE, Ev::Retry { proc: p });
        }
    }

    /// The inter-cluster fetches the task stalls on, charged after its
    /// compute as one communication span.
    fn start_data(&mut self, p: ProcId, id: TaskId, end: SimTime) -> SimTime {
        let rec = &self.core.trace.tasks[id.index()];
        let mut fetches = std::mem::take(&mut self.fetches);
        let comm = self.mem.as_mut().map_or(SimDuration::ZERO, |mem| {
            let on_fetch = |obj, bytes, stall| fetches.push(Fetch { obj, bytes, stall });
            mem.task_accesses_with(p, &rec.spec, on_fetch)
        });
        let mut end = end;
        if comm > SimDuration::ZERO {
            let comm_start = end;
            end = self.core.occupy(p, end, comm, TimeKind::Comm, Some(id));
            // Each fetch completes at its offset within the stall interval.
            let events = &mut self.core.events;
            let mut at = comm_start;
            for f in &fetches {
                at += f.stall;
                events.emit_obj(
                    at.0,
                    p,
                    EventKind::ObjectFetch {
                        bytes: f.bytes,
                        latency_ps: f.stall.0,
                    },
                    Some(id),
                    f.obj,
                );
            }
        }
        fetches.clear();
        self.fetches = fetches;
        end
    }

    fn finish(&mut self, p: ProcId, id: TaskId, t: SimTime) {
        let end = self.core.occupy(p, t, COMPLETE, TimeKind::Mgmt, Some(id));
        self.core.executing[p] = None;
        if self.core.main_blocked == Some(id) {
            // Main resumes ahead of the successors: its step is on the
            // calendar before anything they schedule.
            self.main_serial_ready = false;
            self.core.cal.schedule(end, driver::Ev::MainStep);
        }
        self.complete(id, p, end);
        // If a serial task became ready while processor 0 was busy, run it
        // now, unless a task this completion enabled took processor 0 first.
        if p == 0 && self.main_serial_ready && self.core.executing[0].is_none() {
            if let Some(serial) = self.core.main_blocked {
                self.main_serial_ready = false;
                self.start_task(0, serial, end);
                return;
            }
        }
        self.fill(p, end);
    }

    fn handle(&mut self, ev: Ev, t: SimTime) {
        let Ev::Retry { proc } = ev;
        self.retry_pending[proc] = false;
        self.fill(proc, t);
    }

    fn result(self, run: Run) -> DashRunResult {
        let m = &run.metrics;
        // The simulator's own tallies against the fold of its event stream.
        let moved = self.mem.as_ref().map_or(0, |mm| mm.bytes_moved);
        for (what, folded, native) in [
            ("steals", m.steals, self.sched.steals),
            ("fetch bytes", m.fetch_bytes, moved),
        ] {
            debug_assert_eq!(folded, native, "event {what} disagree with the simulator");
        }
        let total = m.total();
        DashRunResult {
            procs: run.procs,
            exec_time_s: run.exec_time_s,
            task_time_s: run.task_time_s,
            locality_pct: run.locality_pct,
            locality_tracked: m.locality_tracked,
            tasks_executed: m.tasks_started,
            steals: m.steals,
            mgmt_time_s: SimDuration(total.mgmt_ps).as_secs_f64(),
            main_mgmt_s: SimDuration(m.per_proc[0].mgmt_ps).as_secs_f64(),
            comm_time_s: SimDuration(total.comm_ps).as_secs_f64(),
            bytes_moved: m.fetch_bytes,
            stalls: m.stalls,
            stall_time_s: SimDuration(m.stall_ps).as_secs_f64(),
            per_proc_busy: run.per_proc_busy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jade_core::{AccessSpec, Metrics, ObjectId, Trace, TraceBuilder};

    fn spec(reads: &[ObjectId], writes: &[ObjectId]) -> AccessSpec {
        let mut s = AccessSpec::new();
        for &r in reads {
            s.rd(r);
        }
        for &w in writes {
            s.wr(w);
        }
        s
    }

    /// A trivially parallel trace: `n` tasks each writing a private object
    /// homed round-robin across `procs` processors.
    fn parallel_trace(n: usize, procs: usize, work: f64) -> Trace {
        let mut b = TraceBuilder::new();
        let objs: Vec<_> = (0..n)
            .map(|i| b.object(&format!("o{i}"), 1024, Some(i % procs)))
            .collect();
        for &o in &objs {
            b.task(spec(&[], &[o]), work);
        }
        b.build()
    }

    fn cfg(procs: usize, mode: LocalityMode) -> DashConfig {
        DashConfig::paper(procs, mode, 1.0)
    }

    #[test]
    fn single_processor_runs_everything() {
        let trace = parallel_trace(10, 1, 0.1);
        let r = try_run(&trace, &cfg(1, LocalityMode::Locality)).expect("simulation failed");
        assert_eq!(r.tasks_executed, 10);
        // Exec time at least the serial work, jitter included.
        assert!(r.task_time_s > 0.9, "{}", r.task_time_s);
        assert!(r.exec_time_s >= r.task_time_s, "{r:?}");
        // Management overhead is visible but small.
        assert!(r.mgmt_time_s > 0.0 && r.mgmt_time_s < 0.1);
    }

    #[test]
    fn parallel_speedup() {
        let trace = parallel_trace(32, 8, 1.0);
        let r1 = try_run(&trace, &cfg(1, LocalityMode::Locality)).expect("simulation failed");
        let r8 = try_run(&trace, &cfg(8, LocalityMode::Locality)).expect("simulation failed");
        assert!(
            r8.exec_time_s < r1.exec_time_s / 4.0,
            "8-proc {} vs 1-proc {}",
            r8.exec_time_s,
            r1.exec_time_s
        );
    }

    #[test]
    fn locality_mode_runs_tasks_on_owners() {
        // One task per processor-owned object, long enough that no stealing
        // is needed: 100% locality.
        let trace = parallel_trace(8, 8, 1.0);
        let r = try_run(&trace, &cfg(8, LocalityMode::Locality)).expect("simulation failed");
        assert_eq!(r.locality_tracked, 8);
        // Proc 0's task waits until the main thread finishes creating; all
        // others are picked up by their owners immediately.
        assert!(r.locality_pct >= 87.0, "locality {}", r.locality_pct);
    }

    #[test]
    fn no_locality_mode_scatters_tasks() {
        // Many tasks all homed on processor 1: under NoLocality they're
        // handed to whichever processor is idle.
        let mut b = TraceBuilder::new();
        let objs: Vec<_> = (0..64)
            .map(|i| b.object(&format!("o{i}"), 64, Some(1)))
            .collect();
        for &o in &objs {
            b.task(spec(&[], &[o]), 0.01);
        }
        let trace = b.build();
        let r = try_run(&trace, &cfg(8, LocalityMode::NoLocality)).expect("simulation failed");
        assert_eq!(r.tasks_executed, 64);
        assert!(r.locality_pct < 60.0, "locality {}", r.locality_pct);
    }

    #[test]
    fn dependent_tasks_serialize() {
        let mut b = TraceBuilder::new();
        let o = b.object("chain", 64, Some(0));
        for _ in 0..5 {
            b.task(spec(&[], &[o]), 1.0);
        }
        let trace = b.build();
        let r = try_run(&trace, &cfg(8, LocalityMode::Locality)).expect("simulation failed");
        // A write-write chain cannot speed up: its ~5 s of work serialize.
        assert!(r.task_time_s > 4.5, "{}", r.task_time_s);
        assert!(r.exec_time_s >= r.task_time_s, "{r:?}");
    }

    #[test]
    fn serial_phase_blocks_main() {
        // parallel writers -> serial reader -> parallel writers.
        let mut b = TraceBuilder::new();
        let objs: Vec<_> = (0..4)
            .map(|i| b.object(&format!("o{i}"), 64, Some(i)))
            .collect();
        for &o in &objs {
            b.task(spec(&[], &[o]), 1.0);
        }
        b.next_phase();
        b.task_full(spec(&objs, &[]), 0.5, None, true);
        b.next_phase();
        for &o in &objs {
            b.task(spec(&[], &[o]), 1.0);
        }
        let trace = b.build();
        let r = try_run(&trace, &cfg(4, LocalityMode::Locality)).expect("simulation failed");
        assert_eq!(r.tasks_executed, 9);
        // Two parallel phases (~1 s each) plus the serial phase (~0.5 s).
        assert!(r.exec_time_s >= 2.5, "{}", r.exec_time_s);
        assert!(r.exec_time_s < 4.0, "{}", r.exec_time_s);
    }

    #[test]
    fn work_free_keeps_management_only() {
        let trace = parallel_trace(100, 4, 1.0);
        let mut c = cfg(4, LocalityMode::Locality);
        c.work_free = true;
        let r = try_run(&trace, &c).expect("simulation failed");
        assert_eq!(r.task_time_s, 0.0);
        assert!(r.mgmt_time_s > 0.0);
        assert!(
            r.exec_time_s < 0.2,
            "work-free run should be fast: {}",
            r.exec_time_s
        );
    }

    #[test]
    fn stealing_balances_uneven_load() {
        // All objects homed on processor 1; locality mode must steal to use
        // the other processors.
        let mut b = TraceBuilder::new();
        let objs: Vec<_> = (0..32)
            .map(|i| b.object(&format!("o{i}"), 64, Some(1)))
            .collect();
        for &o in &objs {
            b.task(spec(&[], &[o]), 1.0);
        }
        let trace = b.build();
        let r = try_run(&trace, &cfg(8, LocalityMode::Locality)).expect("simulation failed");
        assert!(r.steals > 0, "expected steals");
        // With stealing, the run finishes far sooner than the serial 32 s.
        assert!(r.exec_time_s < 10.0, "{}", r.exec_time_s);
        assert!(r.locality_pct < 100.0);
    }

    #[test]
    fn placement_pins_tasks() {
        let mut b = TraceBuilder::new();
        let objs: Vec<_> = (0..12)
            .map(|i| b.object(&format!("o{i}"), 64, Some(1 + (i % 3))))
            .collect();
        for (i, &o) in objs.iter().enumerate() {
            b.task_full(spec(&[], &[o]), 0.5, Some(1 + (i % 3)), false);
        }
        let trace = b.build();
        let r = try_run(&trace, &cfg(4, LocalityMode::TaskPlacement)).expect("simulation failed");
        assert_eq!(r.locality_pct, 100.0);
        assert_eq!(r.steals, 0);
    }

    #[test]
    fn replication_off_serializes_readers() {
        let mut b = TraceBuilder::new();
        let shared = b.object("shared", 1024, Some(0));
        let outs: Vec<_> = (0..8)
            .map(|i| b.object(&format!("o{i}"), 64, Some(i % 4)))
            .collect();
        for &o in &outs {
            b.task(spec(&[shared], &[o]), 1.0);
        }
        let trace = b.build();
        let on = try_run(&trace, &cfg(4, LocalityMode::Locality)).expect("simulation failed");
        let mut c = cfg(4, LocalityMode::Locality);
        c.replication = false;
        let off = try_run(&trace, &c).expect("simulation failed");
        assert!(
            off.exec_time_s > 2.0 * on.exec_time_s,
            "no-replication {} should be much slower than {}",
            off.exec_time_s,
            on.exec_time_s
        );
    }

    #[test]
    fn deterministic() {
        let trace = parallel_trace(50, 4, 0.3);
        let a = try_run(&trace, &cfg(4, LocalityMode::Locality)).expect("simulation failed");
        let b = try_run(&trace, &cfg(4, LocalityMode::Locality)).expect("simulation failed");
        assert_eq!(a.exec_time_s, b.exec_time_s);
        assert_eq!(a.locality_pct, b.locality_pct);
        assert_eq!(a.steals, b.steals);
    }

    #[test]
    fn event_stream_reconstructs_run() {
        // Mix of parallel phases and a serial phase so every event path
        // (dispatch, steal retry, serial inline start) is exercised.
        let mut b = TraceBuilder::new();
        let objs: Vec<_> = (0..16)
            .map(|i| b.object(&format!("o{i}"), 512, Some(i % 4)))
            .collect();
        for &o in &objs {
            b.task(spec(&[], &[o]), 0.05);
        }
        b.next_phase();
        b.task_full(spec(&objs, &[]), 0.1, None, true);
        let trace = b.build();
        let (r, events) =
            try_run_traced(&trace, &cfg(4, LocalityMode::Locality)).expect("simulation failed");

        jade_core::check_lifecycle(&events).expect("lifecycle chains");
        let m = Metrics::from_events(&events, 4);
        // The makespan is tiled by per-processor busy spans...
        jade_core::check_conservation(&events, 4, m.makespan_ps).expect("span conservation");
        // ...and agrees with the clock the result was built from.
        assert_eq!(SimDuration(m.makespan_ps).as_secs_f64(), r.exec_time_s);
        // Per-processor breakdowns from events match the processor clock.
        for (p, busy) in r.per_proc_busy.iter().enumerate() {
            let pt = m.per_proc[p];
            assert_eq!(SimDuration(pt.app_ps).as_secs_f64(), busy.0, "proc {p} app");
            assert_eq!(
                SimDuration(pt.comm_ps).as_secs_f64(),
                busy.1,
                "proc {p} comm"
            );
            assert_eq!(
                SimDuration(pt.mgmt_ps).as_secs_f64(),
                busy.2,
                "proc {p} mgmt"
            );
        }
        assert_eq!(m.tasks_started, r.tasks_executed);
        assert_eq!(m.tasks_created, trace.tasks.len());
        assert_eq!(m.fetch_bytes, r.bytes_moved);
    }

    // ---- fault injection ----

    #[test]
    fn inactive_fault_plan_changes_nothing() {
        let trace = parallel_trace(20, 4, 0.2);
        let clean = try_run(&trace, &cfg(4, LocalityMode::Locality)).expect("simulation failed");
        let mut c = cfg(4, LocalityMode::Locality);
        c.faults = FaultPlan::none().with_seed(7);
        let seeded = try_run(&trace, &c).expect("simulation failed");
        assert_eq!(clean.exec_time_s, seeded.exec_time_s);
        assert_eq!(seeded.stalls, 0);
    }

    #[test]
    fn stalls_slow_the_run_but_everything_completes() {
        let trace = parallel_trace(24, 4, 0.2);
        let clean = try_run(&trace, &cfg(4, LocalityMode::Locality)).expect("simulation failed");
        let mut c = cfg(4, LocalityMode::Locality);
        c.faults = FaultPlan::parse("stall=1.0:0.05,seed=3").unwrap();
        let (r, events) = try_run_traced(&trace, &c).expect("simulation failed");
        assert_eq!(r.tasks_executed, clean.tasks_executed);
        assert_eq!(r.stalls, 24, "every task start stalls at p=1");
        assert!(r.stall_time_s > 1.0, "24 stalls of 50 ms");
        assert!(r.exec_time_s > clean.exec_time_s);
        jade_core::check_lifecycle(&events).unwrap();
        let m = Metrics::from_events(&events, 4);
        jade_core::check_conservation(&events, 4, m.makespan_ps).unwrap();
    }

    #[test]
    fn stealing_absorbs_stall_imbalance() {
        // All tasks homed on processor 1, long stalls: the locality
        // scheduler's queues back up behind the stalls and the other
        // processors steal the overflow — graceful degradation, not
        // serialization behind the stalled owner.
        let mut b = TraceBuilder::new();
        let objs: Vec<_> = (0..32)
            .map(|i| b.object(&format!("o{i}"), 64, Some(1)))
            .collect();
        for &o in &objs {
            b.task(spec(&[], &[o]), 0.5);
        }
        let trace = b.build();
        let mut c = cfg(8, LocalityMode::Locality);
        c.faults = FaultPlan::parse("stall=0.5:0.2,seed=11").unwrap();
        let r = try_run(&trace, &c).expect("simulation failed");
        assert_eq!(r.tasks_executed, 32);
        assert!(r.steals > 0, "stalled owner's queue should be stolen from");
        // 32 × 0.5 s serial is 16 s; stealing keeps it well under that even
        // with the injected stalls on top.
        assert!(r.exec_time_s < 12.0, "{}", r.exec_time_s);
    }

    #[test]
    fn config_errors_are_typed() {
        let trace = parallel_trace(4, 2, 0.1);
        let mut c = cfg(2, LocalityMode::Locality);
        c.machine.procs = 0;
        assert!(matches!(
            try_run(&trace, &c),
            Err(crate::DashError::NoProcessors)
        ));
        for stall_p in [2.0, -0.5] {
            let mut c = cfg(2, LocalityMode::Locality);
            c.faults = FaultPlan {
                stall_p,
                ..FaultPlan::none()
            };
            assert!(matches!(
                try_run(&trace, &c),
                Err(crate::DashError::InvalidFaultPlan(_))
            ));
        }
    }

    #[test]
    fn bad_machine_configs_are_rejected_not_panics() {
        let trace = parallel_trace(4, 2, 0.1);
        let rejected =
            |c: &DashConfig| matches!(try_run(&trace, c), Err(crate::DashError::InvalidMachine(_)));
        // Negative or non-finite compute cost: negative task durations.
        let mut c = cfg(2, LocalityMode::Locality);
        c.sec_per_op = -1.0;
        assert!(rejected(&c));
        c.sec_per_op = f64::NAN;
        assert!(rejected(&c));
        // Cluster arithmetic divides by the cluster size.
        let mut c = cfg(2, LocalityMode::Locality);
        c.machine.cluster_size = 0;
        assert!(rejected(&c));
    }
}
