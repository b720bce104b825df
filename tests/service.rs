//! Multi-tenant service integration: tenant fault isolation, backpressure
//! under concurrent submitters, and post-panic runtime reuse.
//!
//! The isolation invariant (DESIGN.md §16): a clean tenant's observable
//! results — final object values and the interleaving-independent slice of
//! its per-tenant metrics — must be *bit-identical* whether it runs alone
//! or concurrently with hostile neighbors, tenants one of whose task
//! bodies panics part-way. A failure and the cancellation it causes may
//! never leak across the tenant boundary.

mod common;

use common::{
    counters, folded, graph, logs, program_strategy, run, tenant, Access, Counters, Log, Shape,
    Task, OBJECTS,
};
use jade::core::{check_lifecycle, check_order};
use jade::{
    JadeRuntime, JadeService, Outcome, Program, ServiceConfig, SubmitError, TaskBuilder,
    TenantOptions, ThreadRuntime, TraceRuntime,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

const WORKERS: usize = 4;

/// Silence the default panic hook for the *deliberate* panics these tests
/// plant ("hostile bug"); everything else still prints.
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

/// A tenant's final logs and the interleaving-independent slice of its
/// metrics.
type Observation = (Vec<Log>, Counters);

/// Run `prog` as the only tenant of a fresh service and observe it.
fn observe_solo(prog: &[Task]) -> Observation {
    let svc = JadeService::new(ServiceConfig::new(WORKERS));
    let (p, objs) = tenant(prog, None);
    let r = svc.wait(svc.submit(p, TenantOptions::default()).expect("admit"));
    assert_eq!(r.outcome, Outcome::Completed, "solo run must complete");
    (logs(&r.store, &objs), counters(&r.metrics(WORKERS)))
}

/// Whether a report is a hostile tenant's: failed by its own planted bug.
fn failed_alone(outcome: &Outcome) -> bool {
    matches!(outcome, Outcome::Failed(m) if m.contains("hostile bug"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole invariant: clean tenants are bit-identical solo vs
    /// concurrent with neighbors whose bodies panic part-way through,
    /// sharing the pool.
    #[test]
    fn clean_tenants_are_isolated_from_hostile_neighbors(
        clean in program_strategy(25),
        hostile in program_strategy(20),
        bugs in (any::<usize>(), any::<usize>()),
    ) {
        quiet_expected_panics();
        let solo = observe_solo(&clean);

        let svc = JadeService::new(ServiceConfig::new(WORKERS));
        let buggy = |at: usize| tenant(&hostile, Some(at % hostile.len())).0;
        let mut hostile_ids = vec![svc.submit(buggy(bugs.0), TenantOptions::default()).unwrap()];
        let (pc, objs) = tenant(&clean, None);
        let clean_id = svc.submit(pc, TenantOptions::default()).unwrap();
        hostile_ids.push(svc.submit(buggy(bugs.1), TenantOptions::default()).unwrap());

        let r = svc.wait(clean_id);
        prop_assert_eq!(&r.outcome, &Outcome::Completed, "clean tenant must complete");
        let concurrent = (logs(&r.store, &objs), counters(&r.metrics(WORKERS)));
        // Each neighbor must have failed, alone, without taking the pool
        // down.
        for id in hostile_ids {
            let hr = svc.wait(id);
            prop_assert!(failed_alone(&hr.outcome), "{:?}", hr.outcome);
        }
        prop_assert_eq!(&solo, &concurrent, "clean tenant diverged next to hostile neighbors");
    }

    /// Slot recycling keeps the isolation invariant: with one active slot,
    /// every clean tenant is registered into the slot a failed tenant —
    /// panicking part-way, with accesses granted and waiters parked — has
    /// just vacated, and it still observes exactly its solo run. The
    /// programs differ in shape and in the objects they declare, so slabs
    /// are reused larger and smaller than they were left.
    #[test]
    fn clean_tenants_are_unaffected_by_the_slot_they_inherit(
        rounds in prop::collection::vec(
            (program_strategy(20), 1..OBJECTS + 1, any::<usize>(), program_strategy(25), 1..OBJECTS + 1),
            2..4,
        ),
    ) {
        quiet_expected_panics();
        let mut cfg = ServiceConfig::new(WORKERS);
        cfg.max_active = 1;
        let svc = JadeService::new(cfg);
        let mut hostile_ids = Vec::new();
        let mut clean_runs = Vec::new();
        for (hostile, h_objs, bug, clean, c_objs) in &rounds {
            let (ph, _) = tenant(&folded(hostile, *h_objs), Some(bug % hostile.len()));
            hostile_ids.push(svc.submit(ph, TenantOptions::default()).unwrap());
            let clean = folded(clean, *c_objs);
            let (pc, objs) = tenant(&clean, None);
            let id = svc.submit(pc, TenantOptions::default()).unwrap();
            clean_runs.push((id, objs, clean));
        }
        for id in hostile_ids {
            let hr = svc.wait(id);
            prop_assert!(failed_alone(&hr.outcome), "{:?}", hr.outcome);
        }
        for (id, objs, clean) in clean_runs {
            let r = svc.wait(id);
            prop_assert_eq!(&r.outcome, &Outcome::Completed);
            let recycled = (logs(&r.store, &objs), counters(&r.metrics(WORKERS)));
            prop_assert_eq!(&observe_solo(&clean), &recycled);
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
    /// Completes every task with the serial output.
    Clean,
    /// A task that panics: fails, alone.
    Buggy,
}

impl Class {
    fn of(i: usize) -> Class {
        if i % 10 < 7 {
            Class::Clean
        } else {
            Class::Buggy
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

/// Clean and buggy tenants from concurrent submitters over one pool whose
/// admission is tight. Backpressure is forced, not hoped for: a blocker
/// tenant holds every worker until some submitter is refused with
/// `Overloaded`, and refused submitters settle their own tenants and
/// retry. Each tenant comes to its class's outcome; a completed tenant
/// completes every task and its stream passes `check_lifecycle` and
/// `check_order`.
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

    let overloads = AtomicUsize::new(0);
    let errors = Mutex::new(Vec::new());
    let check = |i: usize, prog: &[Task], objs: &[jade::Handle<Log>], r: jade::TenantReport| {
        let class = Class::of(i);
        let tasks = prog.len();
        let fail = |why: String| {
            errors
                .lock()
                .unwrap()
                .push(format!("DAG {i} ({class:?}): {why}"))
        };
        match class {
            Class::Clean if r.outcome == Outcome::Completed => {
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
                for e in [
                    check_lifecycle(&r.events),
                    check_order(&graph(prog), &r.events),
                ] {
                    e.unwrap_or_else(&fail);
                }
            }
            Class::Buggy if failed_alone(&r.outcome) => {}
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
                    let bug = (Class::of(i) == Class::Buggy).then_some(i % prog.len());
                    loop {
                        // `submit` consumes the program: rebuilt per attempt.
                        let (p, objs) = tenant(&prog, bug);
                        match svc.submit(p, TenantOptions::default()) {
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
