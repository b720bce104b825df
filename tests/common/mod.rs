//! The random Jade program the integration tests draw, and what it
//! becomes on each executor: the trace the simulators replay, and the task
//! definitions `TraceRuntime`, `ThreadRuntime` and a `JadeService` tenant
//! run. Each test file uses a part of it.

#![allow(dead_code)]

use jade::core::{AccessSpec, DepGraph, Metrics, Trace, TraceBuilder};
use jade::threads::FaultPlan;
use jade::{Handle, JadeRuntime, Store, TaskBuilder, TaskDef};
use proptest::prelude::*;

/// Objects a drawn program declares accesses to.
pub const OBJECTS: usize = 4;

/// Simulated work of a task, in operations.
pub const WORK: f64 = 0.01;

/// How a task declares an object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    Rd,
    Wr,
    RdWr,
    /// A write the task releases right after making it.
    WrRelease,
}

impl Access {
    pub fn reads(self) -> bool {
        matches!(self, Access::Rd | Access::RdWr)
    }

    pub fn writes(self) -> bool {
        !matches!(self, Access::Rd)
    }
}

/// Where a task runs, as the simulators see it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    Ordinary,
    /// Serial-phase code, run by main.
    Serial,
    /// Placed on a processor (modulo the processor count).
    Placed(usize),
    /// An ordinary task that opens a new phase.
    PhaseBreak,
}

/// One task: its accesses, one per object, in declaration order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Task {
    pub accesses: Vec<(usize, Access)>,
    pub shape: Shape,
}

/// What a task appends to each object it writes: its id and the summed
/// lengths of the objects it read first. A write that ran early or late
/// shows in the order; a read that did, in the lengths.
pub type Log = Vec<(u32, usize)>;

/// Random programs of 1 to `max_tasks - 1` tasks over [`OBJECTS`]
/// objects, each task with up to four accesses and a drawn shape.
pub fn program_strategy(max_tasks: usize) -> ProgramStrategy {
    ProgramStrategy { max_tasks }
}

pub struct ProgramStrategy {
    max_tasks: usize,
}

impl Strategy for ProgramStrategy {
    type Value = Vec<Task>;

    fn generate(&self, rng: &mut TestRng) -> Vec<Task> {
        let task = |rng: &mut TestRng| {
            let mut accesses: Vec<(usize, Access)> = Vec::new();
            for _ in 0..(0..5usize).generate(rng) {
                let o = (0..OBJECTS).generate(rng);
                let modes = [Access::Rd, Access::Rd, Access::Wr, Access::RdWr];
                let access = *modes
                    .get((0..5usize).generate(rng))
                    .unwrap_or(&Access::WrRelease);
                if accesses.iter().all(|&(seen, _)| seen != o) {
                    accesses.push((o, access));
                }
            }
            let shape = match (0..8u8).generate(rng) {
                0 => Shape::Serial,
                1 => Shape::Placed((0..8usize).generate(rng)),
                2 => Shape::PhaseBreak,
                _ => Shape::Ordinary,
            };
            Task { accesses, shape }
        };
        let len = (1..self.max_tasks).generate(rng);
        (0..len).map(|_| task(rng)).collect()
    }
}

/// `prog` over its first `objects` objects: accesses fold onto them, an
/// object's first mention deciding its access.
pub fn folded(prog: &[Task], objects: usize) -> Vec<Task> {
    let fold = |t: &Task| {
        let mut accesses: Vec<(usize, Access)> = Vec::new();
        for &(o, access) in &t.accesses {
            if accesses.iter().all(|&(seen, _)| seen != o % objects) {
                accesses.push((o % objects, access));
            }
        }
        Task { accesses, ..*t }
    };
    prog.iter().map(fold).collect()
}

/// Task `t`'s access specification. A release is no part of it.
pub fn spec(t: &Task) -> AccessSpec {
    let mut s = AccessSpec::new();
    for &(o, access) in &t.accesses {
        let o = jade::ObjectId(o as u32);
        match access {
            Access::Rd => s.rd(o),
            Access::Wr | Access::WrRelease => s.wr(o),
            Access::RdWr => s.rd_wr(o),
        };
    }
    s
}

/// `prog`'s dependence graph under replication, as every executor counts
/// it down, keeping the declarations a release is matched to.
pub fn graph(prog: &[Task]) -> DepGraph {
    let specs: Vec<AccessSpec> = prog.iter().map(spec).collect();
    let mut graph = DepGraph::default();
    graph.rebuild(specs.iter(), true);
    graph
}

/// `prog`'s trace on `procs` processors, each object `bytes` long and
/// homed round-robin. A trace cannot record a release, so it has none.
pub fn trace(prog: &[Task], procs: usize, bytes: usize) -> Trace {
    let mut b = TraceBuilder::new();
    for i in 0..OBJECTS {
        b.object(&format!("o{i}"), bytes, Some(i % procs));
    }
    for t in prog {
        match t.shape {
            Shape::Ordinary => b.task(spec(t), WORK),
            Shape::Serial => b.task_full(spec(t), WORK, None, true),
            Shape::Placed(p) => b.task_full(spec(t), WORK, Some(p % procs), false),
            Shape::PhaseBreak => {
                b.next_phase();
                b.task(spec(t), WORK)
            }
        };
    }
    b.build()
}

/// Task `i` of a program, `t`, over the logs `objs`: it sums the lengths
/// of the logs it reads, then appends its entry to each log it writes,
/// releasing the ones so marked right after.
pub fn def(i: usize, t: &Task, objs: &[Handle<Log>]) -> TaskDef {
    let mut tb = TaskBuilder::new("p");
    for &(o, access) in &t.accesses {
        tb = match access {
            Access::Rd => tb.rd(objs[o]),
            Access::Wr | Access::WrRelease => tb.wr(objs[o]),
            Access::RdWr => tb.rd_wr(objs[o]),
        };
    }
    tb = match t.shape {
        Shape::Serial => tb.serial_phase(),
        Shape::Placed(p) => tb.place(p),
        Shape::Ordinary | Shape::PhaseBreak => tb,
    };
    let accesses: Vec<_> = t.accesses.iter().map(|&(o, a)| (objs[o], a)).collect();
    tb.body(move |ctx| {
        let reads = accesses.iter().filter(|(_, a)| a.reads());
        let read: usize = reads.map(|&(h, _)| ctx.rd(h).len()).sum();
        for &(h, access) in accesses.iter().filter(|(_, a)| a.writes()) {
            ctx.wr(h).push((i as u32, read));
            if access == Access::WrRelease {
                ctx.release(h);
            }
        }
    })
}

/// Run `prog` on `rt` and return the final logs.
pub fn run<R: JadeRuntime>(rt: &mut R, prog: &[Task]) -> Vec<Log> {
    run_cut(rt, prog, 0)
}

/// [`run`], cut by a `finish` after the first `cut` tasks (none at 0).
pub fn run_cut<R: JadeRuntime>(rt: &mut R, prog: &[Task], cut: usize) -> Vec<Log> {
    let objs: Vec<_> = (0..OBJECTS)
        .map(|i| rt.create(&format!("o{i}"), 8, Log::new()))
        .collect();
    for (i, t) in prog.iter().enumerate() {
        if t.shape == Shape::PhaseBreak {
            rt.begin_phase();
        }
        rt.submit(def(i, t, &objs));
        if i + 1 == cut {
            rt.finish();
        }
    }
    rt.finish();
    logs(rt.store(), &objs)
}

/// `prog` as a service tenant, and its logs. Task `bug`, if any, panics
/// with "hostile bug" before it touches anything.
pub fn tenant(prog: &[Task], bug: Option<usize>) -> (jade::Program, Vec<Handle<Log>>) {
    let mut p = jade::Program::new();
    let objs: Vec<_> = (0..OBJECTS)
        .map(|i| p.create(format!("o{i}"), 8, Log::new()))
        .collect();
    for (i, t) in prog.iter().enumerate() {
        let mut def = def(i, t, &objs);
        if bug == Some(i) {
            def.body = Box::new(|_| panic!("hostile bug"));
        }
        p.submit(def);
    }
    (p, objs)
}

pub fn logs(store: &Store, objs: &[Handle<Log>]) -> Vec<Log> {
    objs.iter().map(|&h| store.read(h).clone()).collect()
}

/// The object versions a run that computed `logs` ends with: one per
/// write, as the iPSC's communicator counts them.
pub fn versions(logs: &[Log]) -> Vec<u64> {
    logs.iter().map(|l| l.len() as u64).collect()
}

/// The interleaving-independent slice of the metrics: steals and
/// locality hits depend on timing, these do not.
pub type Counters = (usize, usize, usize, usize, usize, u64, u64, u64);

pub fn counters(m: &Metrics) -> Counters {
    (
        m.tasks_created,
        m.tasks_enabled,
        m.tasks_dispatched,
        m.tasks_started,
        m.tasks_completed,
        m.releases,
        m.workers_failed,
        m.tasks_reexecuted,
    )
}

/// Re-executions `plan` causes over tasks `0..tasks`, from the plan alone:
/// a task is re-executed once per consecutive failing attempt.
pub fn predicted_reexecutions(plan: Option<FaultPlan>, tasks: usize) -> u64 {
    let Some(plan) = plan else { return 0 };
    (0..tasks as u64)
        .map(|id| (0..).take_while(|&a| plan.task_fails(id, a)).count() as u64)
        .sum()
}
