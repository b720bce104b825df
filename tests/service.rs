//! Multi-tenant service integration: tenant fault isolation, backpressure,
//! and post-panic runtime reuse.
//!
//! The isolation invariant (DESIGN.md §16): a clean tenant's observable
//! results — final object values and the interleaving-independent slice of
//! its per-tenant metrics — must be *bit-identical* whether it runs alone
//! or concurrently with hostile neighbors (injected-crash tenants,
//! fail-stop tenants, zero-deadline tenants, and tenants whose task bodies
//! genuinely panic). Faults and cancellations may never leak across the
//! tenant boundary.

use jade::core::Metrics;
use jade::threads::FaultPlan;
use jade::{
    JadeRuntime, JadeService, Outcome, Program, ServiceConfig, SubmitError, TaskBuilder,
    TenantOptions, ThreadRuntime,
};
use proptest::prelude::*;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

const OBJECTS: usize = 4;
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

/// A random program: for each task, a set of (object, is_write) accesses.
fn program_strategy(max_tasks: usize) -> impl Strategy<Value = Vec<Vec<(u8, bool)>>> {
    prop::collection::vec(
        prop::collection::vec(((0..OBJECTS as u8), any::<bool>()), 0..5),
        1..max_tasks,
    )
}

/// Materialize a random program as a service `Program` (each task appends
/// its index to every object it writes; an odd-numbered task releases each
/// object right after its write, so that its successors on it may start
/// while it runs on).
fn build_program(prog: &[Vec<(u8, bool)>]) -> (Program, Vec<jade::Handle<Vec<u32>>>) {
    build_program_over(prog, OBJECTS, None)
}

/// [`build_program`] over `objects <= OBJECTS` objects (accesses fold onto
/// them), with task `bug`, if any, panicking before it writes.
fn build_program_over(
    prog: &[Vec<(u8, bool)>],
    objects: usize,
    bug: Option<usize>,
) -> (Program, Vec<jade::Handle<Vec<u32>>>) {
    let mut p = Program::new();
    let objs: Vec<_> = (0..objects)
        .map(|i| p.create(format!("o{i}"), 8, Vec::<u32>::new()))
        .collect();
    for i in 0..prog.len() {
        let mut tb = TaskBuilder::new("p");
        let mut writes = Vec::new();
        for (o, w) in declared(prog, i, objects) {
            if w {
                tb = tb.rd_wr(objs[o]);
                writes.push(objs[o]);
            } else {
                tb = tb.rd(objs[o]);
            }
        }
        p.submit(tb.body(move |ctx| {
            if bug == Some(i) {
                panic!("hostile bug");
            }
            for &h in &writes {
                ctx.wr(h).push(i as u32);
                if i % 2 == 1 {
                    ctx.release(h);
                }
            }
        }));
    }
    (p, objs)
}

/// The objects task `k` of `prog` declares, folded onto `objects` (an
/// object's first mention decides), and whether it writes each.
fn declared(prog: &[Vec<(u8, bool)>], k: usize, objects: usize) -> Vec<(usize, bool)> {
    let mut out: Vec<(usize, bool)> = Vec::new();
    for &(o, w) in &prog[k] {
        let o = o as usize % objects;
        if !out.iter().any(|&(seen, _)| seen == o) {
            out.push((o, w));
        }
    }
    out
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

/// The interleaving-independent slice of a tenant's metrics.
fn counters(m: &Metrics) -> (usize, usize, usize, usize, usize, u64, u64, u64) {
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

type Observation = (
    Vec<Vec<u32>>,
    (usize, usize, usize, usize, usize, u64, u64, u64),
);

/// Run the same random program directly on a standalone [`ThreadRuntime`]
/// (no service front end), returning the final per-object write logs.
fn run_on_thread_runtime(prog: &[Vec<(u8, bool)>]) -> Vec<Vec<u32>> {
    let mut rt = ThreadRuntime::new(WORKERS);
    let objs: Vec<_> = (0..OBJECTS)
        .map(|i| rt.create(&format!("o{i}"), 8, Vec::<u32>::new()))
        .collect();
    for (i, accesses) in prog.iter().enumerate() {
        let mut tb = TaskBuilder::new("p");
        let mut writes = Vec::new();
        let mut seen = [false; OBJECTS];
        for &(o, w) in accesses {
            let o = o as usize % OBJECTS;
            if seen[o] {
                continue;
            }
            seen[o] = true;
            if w {
                tb = tb.rd_wr(objs[o]);
                writes.push(objs[o]);
            } else {
                tb = tb.rd(objs[o]);
            }
        }
        rt.submit(tb.body(move |ctx| {
            for &h in &writes {
                ctx.wr(h).push(i as u32);
            }
        }));
    }
    rt.finish();
    objs.iter().map(|&h| rt.store().read(h).clone()).collect()
}

/// Run `clean` as the only tenant of a fresh service and observe it.
fn observe_solo(clean: &[Vec<(u8, bool)>]) -> Observation {
    observe_solo_over(clean, OBJECTS, TenantOptions::default())
}

fn observe_solo_over(
    clean: &[Vec<(u8, bool)>],
    objects: usize,
    opts: TenantOptions,
) -> Observation {
    let svc = JadeService::new(ServiceConfig::new(WORKERS));
    let (p, objs) = build_program_over(clean, objects, None);
    let id = svc.submit(p, opts).expect("admit");
    let r = svc.wait(id);
    assert_eq!(r.outcome, Outcome::Completed, "solo run must complete");
    let outs = objs.iter().map(|&h| r.store.read(h).clone()).collect();
    (outs, counters(&r.metrics(WORKERS)))
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
        let solo = observe_solo(&clean);

        let svc = JadeService::new(ServiceConfig::new(WORKERS));
        let mut hostile_ids = Vec::new();
        let (pf, _) = build_program(&hostile);
        hostile_ids.push(svc.submit(pf, TenantOptions::default().with_faults(FaultPlan {
            panic_p: 0.4,
            seed,
            ..FaultPlan::none()
        })).unwrap());
        let (pc, objs) = build_program(&clean);
        let clean_id = svc.submit(pc, TenantOptions::default()).unwrap();
        let (pd, _) = build_program(&hostile);
        hostile_ids.push(svc.submit(pd, TenantOptions::default()
            .with_deadline(Duration::ZERO)).unwrap());
        let (ps, _) = build_program(&hostile);
        hostile_ids.push(svc.submit(ps, TenantOptions::default().with_faults(FaultPlan {
            fail_proc: Some(1),
            seed,
            ..FaultPlan::none()
        })).unwrap());
        hostile_ids.push(svc.submit(buggy_program(), TenantOptions::default()).unwrap());

        let r = svc.wait(clean_id);
        prop_assert_eq!(&r.outcome, &Outcome::Completed, "clean tenant must complete");
        let outs: Vec<Vec<u32>> = objs.iter().map(|&h| r.store.read(h).clone()).collect();
        let concurrent = (outs, counters(&r.metrics(WORKERS)));
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
    /// crashes of its own included. The programs differ in shape and object
    /// count, so slabs are reused larger and smaller than they were left.
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
            let (ph, _) = build_program_over(hostile, *h_objs, bug);
            hostile_ids.push(svc.submit(ph, opts).unwrap());
            let opts = if kind / 3 % 2 == 0 { TenantOptions::default() } else { crashing(0.3) };
            let (pc, objs) = build_program_over(clean, *c_objs, None);
            let id = svc.submit(pc, opts.clone()).unwrap();
            clean_runs.push((id, objs, clean, *c_objs, opts));
        }
        for id in hostile_ids {
            prop_assert_ne!(svc.wait(id).outcome, Outcome::Completed);
        }
        for (id, objs, clean, c_objs, opts) in clean_runs {
            let r = svc.wait(id);
            prop_assert_eq!(&r.outcome, &Outcome::Completed);
            let outs: Vec<Vec<u32>> = objs.iter().map(|&h| r.store.read(h).clone()).collect();
            let recycled = (outs, counters(&r.metrics(WORKERS)));
            prop_assert_eq!(&observe_solo_over(clean, c_objs, opts), &recycled);
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
        let solo = observe_solo(&prog);
        let svc = JadeService::new(ServiceConfig::new(WORKERS));
        let (p, objs) = build_program(&prog);
        let id = svc.submit(p, TenantOptions::default().with_faults(FaultPlan {
            panic_p: 0.3,
            seed,
            ..FaultPlan::none()
        })).unwrap();
        let r = svc.wait(id);
        prop_assert_eq!(&r.outcome, &Outcome::Completed);
        let outs: Vec<Vec<u32>> = objs.iter().map(|&h| r.store.read(h).clone()).collect();
        prop_assert_eq!(&solo.0, &outs, "recovered outputs diverged from the clean twin");
        // Recoveries inflate dispatch/start counts but never completions.
        let m = r.metrics(WORKERS);
        prop_assert_eq!(m.tasks_completed, prog.len());
        prop_assert_eq!(m.tasks_started, m.tasks_completed + m.tasks_reexecuted as usize);
    }

    /// The service front end and a standalone `ThreadRuntime` agree on
    /// final object state. (The service pool has its own dispatch loop;
    /// this pins the whole stack to one observable semantics.)
    #[test]
    fn service_agrees_with_solo_thread_runtime(prog in program_strategy(25)) {
        let (svc_outs, _) = observe_solo(&prog);
        prop_assert_eq!(
            svc_outs,
            run_on_thread_runtime(&prog),
            "service and ThreadRuntime diverged"
        );
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

    let (pb, _) = build_program(&[vec![(0, true)]]);
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
    let (pb, objs) = build_program(&[vec![(0, true)]]);
    let b = svc
        .submit(pb, TenantOptions::default())
        .expect("admitted after drain");
    let rb = svc.wait(b);
    assert_eq!(rb.outcome, Outcome::Completed);
    assert_eq!(rb.store.read(objs[0]).as_slice(), &[0]);
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
