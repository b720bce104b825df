//! Standalone replays of single layers through their public functions:
//! the floor under an executor or simulator that drives the same inputs.
//! These are estimates made from outside, next to the program, not spans
//! inside it.

use crate::harness::timed;
use crate::metrics::Report;
use crate::stats::median;
use jade::core::{
    check_conservation, check_lifecycle, AccessSpec, Event, Metrics, Store, Synchronizer, TaskId,
    Trace,
};
use jade::dash::MemSim;
use jade::dsim::{Calendar, DashSpec, FaultInjector, FaultPlan, SimDuration, SimTime};
use std::collections::VecDeque;
use std::hint::black_box;

/// Seconds a bare `Synchronizer` takes to register specifications in
/// program order and then retire them first-enabled-first, summed over the
/// programs replayed so far.
#[derive(Default)]
pub struct SyncReplay {
    pub tasks: usize,
    pub add_s: f64,
    pub complete_s: f64,
}

impl SyncReplay {
    /// Replay one program's specifications on a fresh synchronizer.
    pub fn replay<'a>(&mut self, specs: impl IntoIterator<Item = &'a AccessSpec>) {
        let mut sync = Synchronizer::new(true);
        let mut ready: VecDeque<TaskId> = VecDeque::new();
        let mut tasks = 0usize;
        let ((), add_s) = timed(|| {
            for spec in specs {
                let id = TaskId(tasks as u32);
                if sync.add_task(id, spec) {
                    ready.push_back(id);
                }
                tasks += 1;
            }
        });
        let mut newly = Vec::new();
        let ((), complete_s) = timed(|| {
            while let Some(t) = ready.pop_front() {
                sync.complete(t, &mut newly);
                ready.extend(newly.drain(..));
            }
        });
        assert!(sync.all_complete(), "replay left tasks waiting");
        self.tasks += tasks;
        self.add_s += add_s;
        self.complete_s += complete_s;
    }

    pub fn secs(&self) -> f64 {
        self.add_s + self.complete_s
    }

    /// Set the three `core.sync.*` metrics.
    pub fn report(&self, report: &mut Report) {
        let n = self.tasks.max(1) as f64;
        report.set("core.sync.add_ns", self.add_s * 1e9 / n);
        report.set("core.sync.complete_ns", self.complete_s * 1e9 / n);
        report.set("core.sync.replay_s", self.secs());
    }
}

/// Nanoseconds for one pop plus one schedule on a `Calendar` held at
/// `depth` pending events (the classic hold model).
pub fn calendar_hold_ns(depth: usize) -> f64 {
    let ops = if crate::TINY { 2_000 } else { 400_000 };
    let mut lcg = 0x2545_F491_4F6C_DD1Du64;
    let mut step = move || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        SimDuration(1 + (lcg >> 44))
    };
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let mut cal: Calendar<u32> = Calendar::new();
            let mut t = SimTime::ZERO;
            for i in 0..depth {
                t = SimTime(t.0 + step().0);
                cal.schedule(t, i as u32);
            }
            let ((), s) = timed(|| {
                for _ in 0..ops {
                    let (now, ev) = cal.pop().expect("calendar held at depth");
                    cal.schedule(SimTime(now.0 + step().0 * depth as u64), black_box(ev));
                }
            });
            s * 1e9 / ops as f64
        })
        .collect();
    median(&samples)
}

/// Seconds for `MemSim` to price every task's accesses, each on the home
/// processor of its locality object, in program order.
pub fn memsim_replay(trace: &Trace, procs: usize) -> f64 {
    let mut mem = MemSim::new(DashSpec::paper(procs), trace);
    let ((), s) = timed(|| {
        for t in &trace.tasks {
            let proc = t
                .spec
                .locality_object()
                .map_or(0, |o| trace.object_home(o).min(procs - 1));
            black_box(mem.task_accesses(proc, &t.spec));
        }
    });
    black_box(mem.bytes_moved);
    s
}

/// Nanoseconds to take and drop one read guard, and one write guard, on a
/// `Store` of 64 vector objects.
pub fn store_guard_ns() -> (f64, f64) {
    let ops = if crate::TINY { 2_000 } else { 1_000_000 };
    let mut store = Store::new();
    let hs: Vec<_> = (0..64)
        .map(|i| store.create(format!("v{i}"), 64, vec![i as f64; 8]))
        .collect();
    let per_op = |f: &dyn Fn(usize)| {
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let ((), s) = timed(|| (0..ops).for_each(|i| f(i % 64)));
                s * 1e9 / ops as f64
            })
            .collect();
        median(&samples)
    };
    let rd = per_op(&|i| {
        black_box(store.read(hs[i]).len());
    });
    let wr = per_op(&|i| {
        black_box(store.write(hs[i]).len());
    });
    (rd, wr)
}

/// Nanoseconds for one `FaultInjector::message_fate` draw under `plan`.
pub fn fault_draw_ns(plan: FaultPlan) -> f64 {
    let ops = if crate::TINY { 2_000 } else { 1_000_000 };
    let mut inj = FaultInjector::new(plan);
    let ((), s) = timed(|| {
        for _ in 0..ops {
            black_box(inj.message_fate());
        }
    });
    s * 1e9 / ops as f64
}

/// What the event layer costs per event, and whether the stream is sound.
pub struct EventCosts {
    pub metrics_ns: f64,
    pub check_ns: f64,
    pub checked: Result<(), String>,
}

/// Time `Metrics::from_events` and the structural checkers over `events`.
/// `conservation` adds the span-tiling check, which holds on the
/// simulators' virtual-time streams only.
pub fn event_costs(events: &[Event], procs: usize, conservation: bool) -> EventCosts {
    let n = events.len().max(1) as f64;
    let (metrics, metrics_s) = timed(|| Metrics::from_events(events, procs));
    let (checked, check_s) = timed(|| {
        check_lifecycle(events)?;
        if conservation {
            check_conservation(events, procs, metrics.makespan_ps)?;
        }
        Ok(())
    });
    EventCosts {
        metrics_ns: metrics_s * 1e9 / n,
        check_ns: check_s * 1e9 / n,
        checked,
    }
}
