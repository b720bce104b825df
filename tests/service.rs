//! Multi-tenant service integration: tenant fault isolation, backpressure
//! under concurrent submitters, and post-panic runtime reuse.
//!
//! The isolation invariant (DESIGN.md §16): a clean tenant's observable
//! results — final object values and the interleaving-independent slice of
//! its per-tenant metrics — must be *bit-identical* whether it runs alone
//! or concurrently with hostile neighbors (injected-crash tenants,
//! fail-stop tenants, zero-deadline tenants, and tenants whose task bodies
//! genuinely panic). Faults and cancellations may never leak across the
//! tenant boundary.

mod common;

use common::{
    counters, folded, graph, logs, predicted_reexecutions, program_strategy, run, tenant, Access,
    Counters, Log, Shape, Task, OBJECTS,
};
use jade::core::{check_lifecycle, check_order};
use jade::threads::FaultPlan;
use jade::{
    JadeRuntime, JadeService, Outcome, Program, ServiceConfig, SubmitError, TaskBuilder,
    TenantOptions, ThreadRuntime, TraceRuntime,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

const WORKERS: usize = 4;

/// Silence the default panic hook for the *deliberate* panics these tests
/// inject ("hostile bug"); everything else still prints. Injected-fault
/// crashes use `resume_unwind` and never reach the hook at all.
fn quiet_expected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info.payload().downcast_ref::<&str>().copied().unwrap_or("");
            if !msg.contains("hostile bug") {
                default(info);
            }
        }));
    });
}

/// A program whose second task has a genuine bug.
fn buggy_program() -> Program {
    let mut p = Program::new();
    let h = p.create("x", 8, 0u64);
    p.submit(TaskBuilder::new("ok").rd_wr(h).body(move |ctx| {
        *ctx.wr(h) += 1;
    }));
    p.submit(TaskBuilder::new("bug").rd_wr(h).body(move |_ctx| {
        panic!("hostile bug");
    }));
    p
}

/// A tenant's final logs and the interleaving-independent slice of its
/// metrics.
type Observation = (Vec<Log>, Counters);

/// Run `prog` as the only tenant of a fresh service and observe it.
fn observe_solo(prog: &[Task], opts: TenantOptions) -> Observation {
    let svc = JadeService::new(ServiceConfig::new(WORKERS));
    let (p, objs) = tenant(prog, None);
    let r = svc.wait(svc.submit(p, opts).expect("admit"));
    assert_eq!(r.outcome, Outcome::Completed, "solo run must complete");
    (logs(&r.store, &objs), counters(&r.metrics(WORKERS)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole invariant: clean tenants are bit-identical solo vs
    /// concurrent with crashing, fail-stop, zero-deadline and genuinely
    /// buggy tenants sharing the pool.
    #[test]
    fn clean_tenants_are_isolated_from_hostile_neighbors(
        clean in program_strategy(25),
        hostile in program_strategy(20),
        seed in any::<u64>(),
    ) {
        quiet_expected_panics();
        let solo = observe_solo(&clean, TenantOptions::default());

        let svc = JadeService::new(ServiceConfig::new(WORKERS));
        let mut hostile_ids = Vec::new();
        let (pf, _) = tenant(&hostile, None);
        hostile_ids.push(svc.submit(pf, TenantOptions::default().with_faults(FaultPlan {
            panic_p: 0.4,
            seed,
            ..FaultPlan::none()
        })).unwrap());
        let (pc, objs) = tenant(&clean, None);
        let clean_id = svc.submit(pc, TenantOptions::default()).unwrap();
        let (pd, _) = tenant(&hostile, None);
        hostile_ids.push(svc.submit(pd, TenantOptions::default()
            .with_deadline(Duration::ZERO)).unwrap());
        let (ps, _) = tenant(&hostile, None);
        hostile_ids.push(svc.submit(ps, TenantOptions::default().with_faults(FaultPlan {
            fail_proc: Some(1),
            seed,
            ..FaultPlan::none()
        })).unwrap());
        hostile_ids.push(svc.submit(buggy_program(), TenantOptions::default()).unwrap());

        let r = svc.wait(clean_id);
        prop_assert_eq!(&r.outcome, &Outcome::Completed, "clean tenant must complete");
        let concurrent = (logs(&r.store, &objs), counters(&r.metrics(WORKERS)));
        // Drain the neighbors so shutdown is clean (their outcomes are
        // theirs; the buggy one must have failed, not taken the pool down).
        let mut saw_failure = false;
        for id in hostile_ids {
            let hr = svc.wait(id);
            saw_failure |= matches!(hr.outcome, Outcome::Failed(_));
        }
        prop_assert!(saw_failure, "the buggy neighbor must fail in isolation");
        prop_assert_eq!(&solo, &concurrent, "clean tenant diverged next to hostile neighbors");
    }

    /// Slot recycling keeps the isolation invariant: with one active slot,
    /// every clean tenant is registered into the slot a cancelled tenant —
    /// zero-deadline, or panicking part-way (after injected crashes, in a
    /// third of the rounds) with accesses granted and waiters parked — has
    /// just vacated, and it still observes exactly its solo run, injected
    /// crashes of its own included. The programs differ in shape and in the
    /// objects they declare, so slabs are reused larger and smaller than
    /// they were left.
    #[test]
    fn clean_tenants_are_unaffected_by_the_slot_they_inherit(
        rounds in prop::collection::vec(
            (program_strategy(20), 1..OBJECTS + 1, any::<u8>(), program_strategy(25), 1..OBJECTS + 1),
            2..4,
        ),
    ) {
        quiet_expected_panics();
        let mut cfg = ServiceConfig::new(WORKERS);
        cfg.max_active = 1;
        let svc = JadeService::new(cfg);
        let mut hostile_ids = Vec::new();
        let mut clean_runs = Vec::new();
        for (hostile, h_objs, kind, clean, c_objs) in &rounds {
            let crashing = |panic_p| TenantOptions::default().with_faults(FaultPlan {
                panic_p,
                seed: *kind as u64,
                ..FaultPlan::none()
            });
            // The hostile tenant expires before its first dispatch, or its
            // task `bug` panics, with or without injected crashes before it.
            let bug = (kind % 3 != 0).then_some(*kind as usize / 6 % hostile.len());
            let opts = match kind % 3 {
                0 => TenantOptions::default().with_deadline(Duration::ZERO),
                1 => TenantOptions::default(),
                _ => crashing(0.4),
            };
            let (ph, _) = tenant(&folded(hostile, *h_objs), bug);
            hostile_ids.push(svc.submit(ph, opts).unwrap());
            let opts = if kind / 3 % 2 == 0 { TenantOptions::default() } else { crashing(0.3) };
            let clean = folded(clean, *c_objs);
            let (pc, objs) = tenant(&clean, None);
            let id = svc.submit(pc, opts.clone()).unwrap();
            clean_runs.push((id, objs, clean, opts));
        }
        for id in hostile_ids {
            prop_assert_ne!(svc.wait(id).outcome, Outcome::Completed);
        }
        for (id, objs, clean, opts) in clean_runs {
            let r = svc.wait(id);
            prop_assert_eq!(&r.outcome, &Outcome::Completed);
            let recycled = (logs(&r.store, &objs), counters(&r.metrics(WORKERS)));
            prop_assert_eq!(&observe_solo(&clean, opts), &recycled);
            // The service places no task, so no dispatch claims a locality
            // hit or miss — least of all one left over from the slot's last
            // tenant.
            for e in &r.events {
                use jade::core::{EventKind, Locality};
                if let EventKind::TaskDispatched { locality, .. } = e.kind {
                    prop_assert_eq!(locality, Locality::Untracked);
                }
            }
        }
    }

    /// Injected crashes are themselves deterministic: a faulty tenant
    /// completes bit-identically to its own clean twin, solo or not.
    #[test]
    fn faulty_tenants_recover_bit_identically(
        prog in program_strategy(20),
        seed in any::<u64>(),
    ) {
        let solo = observe_solo(&prog, TenantOptions::default());
        let svc = JadeService::new(ServiceConfig::new(WORKERS));
        let (p, objs) = tenant(&prog, None);
        let id = svc.submit(p, TenantOptions::default().with_faults(FaultPlan {
            panic_p: 0.3,
            seed,
            ..FaultPlan::none()
        })).unwrap();
        let r = svc.wait(id);
        prop_assert_eq!(&r.outcome, &Outcome::Completed);
        prop_assert_eq!(&solo.0, &logs(&r.store, &objs), "recovered outputs diverged from the clean twin");
        // Recoveries inflate dispatch/start counts but never completions.
        let m = r.metrics(WORKERS);
        prop_assert_eq!(m.tasks_completed, prog.len());
        prop_assert_eq!(m.tasks_started, m.tasks_completed + m.tasks_reexecuted as usize);
    }
}

#[test]
fn overload_surfaces_as_submit_error() {
    // One active slot, no pending queue, one worker held hostage by a
    // gated task: the second submission must be *rejected*, not queued,
    // blocked, or panicked.
    let mut cfg = ServiceConfig::new(1);
    cfg.max_active = 1;
    cfg.max_pending = 0;
    let svc = JadeService::new(cfg);

    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let g = Arc::clone(&gate);
    let mut pa = Program::new();
    let ha = pa.create("a", 8, 0u64);
    pa.submit(TaskBuilder::new("hold").rd_wr(ha).body(move |ctx| {
        let (m, cv) = &*g;
        let mut open = m.lock().unwrap();
        while !*open {
            open = cv.wait(open).unwrap();
        }
        *ctx.wr(ha) = 1;
    }));
    let a = svc
        .submit(pa, TenantOptions::default())
        .expect("first DAG admitted");

    let one = [Task {
        accesses: vec![(0, Access::Wr)],
        shape: Shape::Ordinary,
    }];
    let (pb, _) = tenant(&one, None);
    match svc.submit(pb, TenantOptions::default()) {
        Err(SubmitError::Overloaded { pending, limit }) => {
            assert_eq!((pending, limit), (0, 0));
        }
        Ok(id) => panic!("overloaded service admitted tenant {id}"),
        Err(e) => panic!("want Overloaded, got {e}"),
    }

    {
        let (m, cv) = &*gate;
        *m.lock().unwrap() = true;
        cv.notify_all();
    }
    let ra = svc.wait(a);
    assert_eq!(ra.outcome, Outcome::Completed);
    assert_eq!(*ra.store.read(ha), 1);

    // Once the slot frees, the same shape of DAG is admitted normally.
    let (pb, objs) = tenant(&one, None);
    let b = svc
        .submit(pb, TenantOptions::default())
        .expect("admitted after drain");
    let rb = svc.wait(b);
    assert_eq!(rb.outcome, Outcome::Completed);
    assert_eq!(rb.store.read(objs[0]).as_slice(), &[(0, 0)]);
}

#[test]
fn thread_runtime_survives_a_caught_mid_batch_panic() {
    quiet_expected_panics();
    let mut rt = ThreadRuntime::new(3);
    let a = rt.create("a", 8, 0u64);
    for i in 0..5u64 {
        rt.submit(TaskBuilder::new("ok").rd_wr(a).body(move |ctx| {
            *ctx.wr(a) += i + 1;
        }));
    }
    rt.submit(TaskBuilder::new("bug").rd_wr(a).body(move |_ctx| {
        panic!("hostile bug");
    }));
    for _ in 0..5 {
        rt.submit(TaskBuilder::new("more").rd_wr(a).body(move |ctx| {
            *ctx.wr(a) += 100;
        }));
    }
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.finish()));
    assert!(caught.is_err(), "the bug must propagate out of finish()");

    // The aborted batch left the runtime coherent: a fresh batch on the
    // *same* runtime runs to completion with the right answer and stats.
    let b = rt.create("b", 8, 0u64);
    let n = 20u64;
    for i in 0..n {
        rt.submit(TaskBuilder::new("clean").rd_wr(b).body(move |ctx| {
            let mut v = ctx.wr(b);
            *v = v.wrapping_mul(31).wrapping_add(i + 1);
        }));
    }
    rt.finish();
    let mut want = 0u64;
    for i in 0..n {
        want = want.wrapping_mul(31).wrapping_add(i + 1);
    }
    assert_eq!(*rt.store().read(b), want);
    let s = rt.last_stats();
    assert_eq!(s.executed, n as usize, "clean batch stats are coherent");
    assert_eq!(s.recoveries, 0);
}

/// What a concurrent submitter's tenant must come to, by its index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    /// Completes with the serial output and no recovery.
    Clean,
    /// Injected crashes: completes with the serial output, after exactly
    /// the re-executions its plan predicts.
    Faulty,
    /// A zero budget: cancelled before any task completes.
    Deadline,
    /// A task that panics: fails, alone.
    Buggy,
}

impl Class {
    fn of(i: usize) -> Class {
        match i % 10 {
            7 => Class::Faulty,
            8 => Class::Deadline,
            9 => Class::Buggy,
            _ => Class::Clean,
        }
    }
}

/// A pool held until every worker is inside a blocker task, so nothing
/// completes and admission must fill.
struct Gate {
    held: Mutex<(usize, bool)>,
    cv: Condvar,
}

impl Gate {
    fn hold(&self) {
        let mut g = self.held.lock().unwrap();
        g.0 += 1;
        self.cv.notify_all();
        while !g.1 {
            g = self.cv.wait(g).unwrap();
        }
    }

    fn wait_held(&self, workers: usize) {
        let mut g = self.held.lock().unwrap();
        while g.0 < workers {
            g = self.cv.wait(g).unwrap();
        }
    }

    fn open(&self) {
        self.held.lock().unwrap().1 = true;
        self.cv.notify_all();
    }
}

/// Tenants of every class from concurrent submitters over one pool whose
/// admission is tight. Backpressure is forced, not hoped for: a blocker
/// tenant holds every worker until some submitter is refused with
/// `Overloaded`, and refused submitters settle their own tenants and
/// retry. Each tenant comes to its class's outcome; a completed tenant
/// completes every task, its stream passes `check_lifecycle` and
/// `check_order`, and records as many re-executions as the report counts
/// recoveries.
#[test]
fn concurrent_submitters_get_each_class_its_outcome() {
    const DAGS: usize = 200;
    const SUBMITTERS: usize = 4;
    quiet_expected_panics();
    let mut cfg = ServiceConfig::new(WORKERS);
    cfg.max_active = 3;
    cfg.max_pending = 2;
    let svc = JadeService::new(cfg);

    let gate = Arc::new(Gate {
        held: Mutex::new((0, false)),
        cv: Condvar::new(),
    });
    let mut blocker = Program::new();
    for w in 0..WORKERS {
        let h = blocker.create(format!("b{w}"), 8, 0u64);
        let gate = Arc::clone(&gate);
        blocker.submit(TaskBuilder::new("block").wr(h).body(move |_| gate.hold()));
    }
    let blocker = svc.submit(blocker, TenantOptions::default()).unwrap();
    gate.wait_held(WORKERS);

    let plan = |i: usize| FaultPlan {
        panic_p: 0.3,
        seed: 0x5eed + i as u64,
        ..FaultPlan::none()
    };
    let (overloads, recoveries) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let errors = Mutex::new(Vec::new());
    let check = |i: usize, prog: &[Task], objs: &[jade::Handle<Log>], r: jade::TenantReport| {
        let class = Class::of(i);
        let tasks = prog.len();
        let failed_alone = matches!(&r.outcome, Outcome::Failed(m) if m.contains("hostile bug"));
        let fail = |why: String| {
            errors
                .lock()
                .unwrap()
                .push(format!("DAG {i} ({class:?}): {why}"))
        };
        match class {
            Class::Clean | Class::Faulty if r.outcome == Outcome::Completed => {
                if logs(&r.store, objs) != run(&mut TraceRuntime::new(), prog) {
                    fail("output differs from the serial run's".into());
                }
                // A task that writes nothing leaves no mark in the logs.
                let created = r.metrics(WORKERS).tasks_created;
                if (r.tasks_completed, created) != (tasks, tasks) {
                    fail(format!(
                        "{} of {tasks} tasks completed, {created} created",
                        r.tasks_completed
                    ));
                }
                let want = match class {
                    Class::Faulty => predicted_reexecutions(Some(plan(i)), tasks) as usize,
                    _ => 0,
                };
                let reexecuted = r.metrics(WORKERS).tasks_reexecuted as usize;
                recoveries.fetch_add(r.recoveries, Ordering::Relaxed);
                if (r.recoveries, reexecuted) != (want, want) {
                    fail(format!(
                        "{} recoveries, {reexecuted} re-executions, want {want}",
                        r.recoveries
                    ));
                }
                for e in [
                    check_lifecycle(&r.events),
                    check_order(&graph(prog), &r.events),
                ] {
                    e.unwrap_or_else(&fail);
                }
            }
            Class::Deadline
                if r.outcome == Outcome::DeadlineExceeded
                    && (r.tasks_completed, r.tasks_cancelled) == (0, tasks) => {}
            Class::Buggy if failed_alone => {}
            _ => fail(format!(
                "outcome {:?}, {} of {tasks} tasks completed",
                r.outcome, r.tasks_completed
            )),
        }
    };

    std::thread::scope(|s| {
        for first in 0..SUBMITTERS {
            let (svc, gate, overloads, check) = (&svc, &gate, &overloads, &check);
            s.spawn(move || {
                let mut inflight = Vec::new();
                let settle = |inflight: &mut Vec<(usize, Vec<Task>, Vec<_>, jade::TenantId)>| {
                    for (i, prog, objs, id) in inflight.drain(..) {
                        check(i, &prog, &objs, svc.wait(id));
                    }
                };
                for i in (first..DAGS).step_by(SUBMITTERS) {
                    let prog = program_strategy(12).generate(&mut TestRng::from_seed(i as u64));
                    let class = Class::of(i);
                    let opts = match class {
                        Class::Faulty => TenantOptions::default().with_faults(plan(i)),
                        Class::Deadline => TenantOptions::default().with_deadline(Duration::ZERO),
                        _ => TenantOptions::default(),
                    };
                    let opts = opts.with_weight(1 + (i % 3) as u32);
                    let bug = (class == Class::Buggy).then_some(i % prog.len());
                    loop {
                        // `submit` consumes the program: rebuilt per attempt.
                        let (p, objs) = tenant(&prog, bug);
                        match svc.submit(p, opts.clone()) {
                            Ok(id) => break inflight.push((i, prog, objs, id)),
                            Err(SubmitError::Overloaded { .. }) => {
                                overloads.fetch_add(1, Ordering::Relaxed);
                                gate.open();
                                settle(&mut inflight);
                                std::thread::yield_now();
                            }
                            Err(e) => panic!("DAG {i} rejected: {e}"),
                        }
                    }
                }
                settle(&mut inflight);
            });
        }
    });

    assert_eq!(svc.wait(blocker).outcome, Outcome::Completed);
    assert!(recoveries.into_inner() > 0, "no injected crash fired");
    assert!(
        overloads.into_inner() > 0,
        "the held pool never refused a DAG"
    );
    let errors = errors.into_inner().unwrap();
    assert!(
        errors.is_empty(),
        "{} tenants failed: {:#?}",
        errors.len(),
        &errors[..errors.len().min(10)]
    );
}
