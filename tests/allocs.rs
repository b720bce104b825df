//! The counting-allocator harness and the zero-allocation steady-state
//! gate.
//!
//! This test binary installs a counting `#[global_allocator]` shim (it
//! cannot live in a library: `jade-bench` is `#![forbid(unsafe_code)]`, and
//! Rust allows exactly one global allocator per binary). Ten things are
//! covered:
//!
//! 1. the counter actually observes a deliberate allocation (the harness
//!    is not vacuously "passing" a dead counter);
//! 2. at equilibrium, the scheduler's dispatch → execute → complete →
//!    retire cycle performs **zero** heap allocations per task on the
//!    SchedStress shape — measured differentially (a 2N-task batch must
//!    allocate exactly as much as an N-task batch, so per-batch fixed
//!    costs like thread spawns cancel);
//! 3. a warmed `JadeService` allocates per DAG, not per task: its slabs
//!    come from a retired tenant's slot, so submit → `wait` of a 2N-task
//!    chain allocates exactly as often as an N-task chain (what is left is
//!    the `Arc<Store>`, the event `Vec` and the report);
//! 4. `pagerank::build` shares the inspector's plan between its tasks: what
//!    it allocates does not grow by a copy of the edge list per iteration
//!    (a `ThreadRuntime` holds every closure until `finish`, so a per-task
//!    copy of a read-only input is resident `iterations` times over);
//! 5. one iPSC simulation allocates a bounded number of times per simulated
//!    task — at most 2 in the paper's configuration, at most 4 with
//!    aggregation, prefetch, two tasks per processor, tuning, message loss
//!    and checkpoints — so the per-fetch path (request, reply, ack timer,
//!    reconcile) stays free of per-message and per-task `Vec`s;
//! 6. a task of at most three declarations costs one heap block, its
//!    closure: building the `TaskDef` allocates once (the specification is
//!    inline), a fourth declaration adds the spill and nothing more;
//! 7. a warmed `ThreadRuntime` hands back exactly one block per task over
//!    `submit` + `finish` — the closure, dropped by the worker that ran it
//!    (the slot slab, the queues and the synchronizer window are recycled,
//!    and there is no per-task specification block left to free);
//! 8. one DASH simulation allocates per run, not per task: at most one
//!    allocation per four simulated tasks on either scheduler, with and
//!    without prefetch (the rest is per-run tables and their growth);
//! 9. parking 10 000 waiters on one object allocates nothing: a waiting
//!    access is an index in the declaration slab, which a warm-up run of
//!    the same program sized;
//! 10. when no counting shim feeds the counter (another global allocator
//!     is active), the probe reports inactive and the assertions skip
//!     cleanly — the probe side of that contract is exercised in
//!     `jade-bench`'s in-crate tests, which install no shim.

use jade_apps::pagerank::{self, PagerankConfig};
use jade_core::{AccessSpec, JadeRuntime, LocalityMode, Synchronizer, TaskBuilder, TraceBuilder};
use jade_dash::DashConfig;
use jade_ipsc::IpscConfig;
use jade_threads::{JadeService, Outcome, Program, ServiceConfig, TenantOptions, ThreadRuntime};
use std::sync::Mutex;

struct CountingAlloc;

// SAFETY: pure delegation to the system allocator — same layout
// contracts, same returned pointers; the only addition is relaxed counter
// increments (two on the allocating paths, one on `dealloc`).
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        jade_bench::alloc::note_alloc(layout.size());
        std::alloc::GlobalAlloc::alloc(&std::alloc::System, layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        jade_bench::alloc::note_free();
        std::alloc::GlobalAlloc::dealloc(&std::alloc::System, ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        jade_bench::alloc::note_alloc(new_size);
        std::alloc::GlobalAlloc::realloc(&std::alloc::System, ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes the allocation-sensitive tests: a concurrent test's
/// allocations would pollute another's measurement window.
static SERIAL: Mutex<()> = Mutex::new(());

/// Clean-skip guard: with a different global allocator active nothing
/// feeds the counter, and alloc assertions would pass vacuously — skip
/// loudly instead.
fn counting_inactive() -> bool {
    if jade_bench::alloc::counting_active() {
        return false;
    }
    eprintln!("skipping: no counting global allocator is active in this binary");
    true
}

#[test]
fn counter_observes_a_deliberate_allocation() {
    let _guard = SERIAL.lock().unwrap();
    if counting_inactive() {
        return;
    }
    let (n, v) = jade_bench::alloc::allocs_during(|| std::hint::black_box(vec![0u8; 4096]));
    assert!(n >= 1, "a 4 KiB Vec must hit the allocator (saw {n})");
    drop(v);
}

#[test]
fn probe_reports_active_with_the_shim_installed() {
    let _guard = SERIAL.lock().unwrap();
    assert!(
        jade_bench::alloc::counting_active(),
        "this binary installs the shim; the probe must see it"
    );
}

const STRESS_OBJECTS: usize = 16;

/// One differential measurement: allocations during `finish()` for a
/// batch of `2n` minus a batch of `n` tasks, after warming the runtime's
/// arena and synchronizer window at the larger size. At equilibrium the
/// difference is exactly zero — every per-task allocation would show up
/// `n` times over.
fn steady_state_alloc_delta(rt: &mut ThreadRuntime, counters: &[jade_core::Handle<u64>]) -> u64 {
    let n = 1000usize;
    let submit = |rt: &mut ThreadRuntime, count: usize| {
        for i in 0..count {
            let c = counters[i % STRESS_OBJECTS];
            rt.submit(TaskBuilder::new("inc").rd_wr(c).body(move |ctx| {
                *ctx.wr(c) += 1;
            }));
        }
    };
    for _ in 0..3 {
        submit(rt, 2 * n);
        rt.finish();
    }
    submit(rt, n);
    let (a1, ()) = jade_bench::alloc::allocs_during(|| rt.finish());
    submit(rt, 2 * n);
    let (a2, ()) = jade_bench::alloc::allocs_during(|| rt.finish());
    a2.saturating_sub(a1)
}

#[test]
fn steady_state_allocs_per_task_is_zero() {
    let _guard = SERIAL.lock().unwrap();
    if counting_inactive() {
        return;
    }
    for workers in [1usize, 2] {
        let mut rt = ThreadRuntime::new(workers);
        let counters: Vec<_> = (0..STRESS_OBJECTS)
            .map(|i| rt.create(&format!("c{i}"), 8, 0u64))
            .collect();
        // The test-harness runner may allocate on its own threads
        // mid-window (it only ever inflates the count), so accept the
        // first of a few attempts that lands clean; a genuine per-task
        // allocation inflates *every* attempt by >= 1000.
        let mut deltas = Vec::new();
        let clean = (0..5).any(|_| {
            let d = steady_state_alloc_delta(&mut rt, &counters);
            deltas.push(d);
            d == 0
        });
        assert!(
            clean,
            "{workers} workers: steady-state batches kept allocating \
             (extra allocs for +1000 tasks across attempts: {deltas:?})"
        );
    }
}

#[test]
fn small_task_def_allocates_only_its_closure() {
    let _guard = SERIAL.lock().unwrap();
    if counting_inactive() {
        return;
    }
    let mut rt = ThreadRuntime::new(1);
    let objs: Vec<_> = (0..4)
        .map(|i| rt.create(&format!("o{i}"), 8, 0u64))
        .collect();
    // Building is single-threaded and deterministic, and the harness's own
    // threads can only inflate a window: the smallest of a few attempts is
    // the builder's.
    let built = |decls: usize| {
        (0..5)
            .map(|_| {
                let (a, b) = (objs[0], objs[decls - 1]);
                let (allocs, def) = jade_bench::alloc::allocs_during(|| {
                    let mut task = TaskBuilder::new("t");
                    for &o in &objs[..decls] {
                        task = task.rd_wr(o);
                    }
                    task.body(move |ctx| *ctx.wr(b) += *ctx.rd(a))
                });
                assert_eq!(def.spec.len(), decls);
                allocs
            })
            .min()
            .expect("five attempts")
    };
    for decls in 1..=3 {
        assert_eq!(built(decls), 1, "{decls} declarations: the closure only");
    }
    assert_eq!(built(4), 2, "the fourth declaration spills, once");
}

#[test]
fn warmed_runtime_frees_one_block_per_task() {
    let _guard = SERIAL.lock().unwrap();
    if counting_inactive() {
        return;
    }
    let n = 1000usize;
    for workers in [1usize, 2] {
        let mut rt = ThreadRuntime::new(workers);
        let counters: Vec<_> = (0..STRESS_OBJECTS)
            .map(|i| rt.create(&format!("c{i}"), 8, 0u64))
            .collect();
        // Tasks are built outside the window; `submit` + `finish` is inside.
        let mut run = |count: usize| {
            let defs: Vec<_> = (0..count)
                .map(|i| {
                    let (c, d) = (
                        counters[i % STRESS_OBJECTS],
                        counters[(i + 1) % STRESS_OBJECTS],
                    );
                    TaskBuilder::new("inc").rd(d).rd_wr(c).body(move |ctx| {
                        *ctx.wr(c) += 1 + (*ctx.rd(d) & 1);
                    })
                })
                .collect();
            let (frees, ()) = jade_bench::alloc::frees_during(|| {
                for def in defs {
                    rt.submit(def);
                }
                rt.finish();
            });
            frees
        };
        for _ in 0..3 {
            run(2 * n);
        }
        // Differential, as above: per-batch frees (the `Vec` of tasks, the
        // worker threads' stacks) cancel, and the harness's own threads can
        // only inflate a window, so the first clean attempt decides.
        let mut seen = Vec::new();
        let clean = (0..5).any(|_| {
            let (small, large) = (run(n), run(2 * n));
            seen.push((small, large));
            large.wrapping_sub(small) == n as u64
        });
        assert!(
            clean,
            "{workers} workers: +{n} tasks must free {n} more blocks, their \
             closures ((N, 2N) frees across attempts: {seen:?})"
        );
    }
}

/// An `n`-task chain on one counter, built outside the measured window.
fn service_chain(n: usize) -> Program {
    let mut prog = Program::new();
    let acc = prog.create("acc", 8, 0u64);
    for _ in 0..n {
        prog.submit(TaskBuilder::new("inc").rd_wr(acc).body(move |ctx| {
            *ctx.wr(acc) += 1;
        }));
    }
    prog
}

#[test]
fn warmed_service_allocates_per_dag_not_per_task() {
    let _guard = SERIAL.lock().unwrap();
    if counting_inactive() {
        return;
    }
    let n = 500usize;
    let svc = JadeService::new(ServiceConfig::new(1));
    let run = |tasks: usize| {
        let prog = service_chain(tasks);
        let (allocs, report) = jade_bench::alloc::allocs_during(|| {
            let id = svc
                .submit(prog, TenantOptions::default())
                .expect("admitted");
            svc.wait(id)
        });
        assert_eq!(report.outcome, Outcome::Completed);
        assert_eq!(report.tasks_completed, tasks);
        allocs
    };
    // As above: the harness's own threads can only inflate a window, so the
    // first clean attempt decides; a per-task allocation adds >= 500 to all.
    let mut seen = Vec::new();
    let clean = (0..5).any(|_| {
        for _ in 0..3 {
            run(2 * n);
        }
        let (small, large) = (run(n), run(2 * n));
        seen.push((small, large));
        small == large
    });
    assert!(
        clean,
        "submit -> wait kept allocating per task ((N, 2N) allocations across attempts: {seen:?})"
    );
    let (per_dag, _) = seen[seen.len() - 1];
    assert!(per_dag <= 8, "{per_dag} allocations for one warmed DAG");
}

#[test]
fn pagerank_build_shares_its_plan_across_iterations() {
    let _guard = SERIAL.lock().unwrap();
    if counting_inactive() {
        return;
    }
    let cfg = |iterations| PagerankConfig {
        nodes: 8192,
        edges_per_node: 8,
        iterations,
        parts: 8,
        procs: 3,
        seed: 7,
    };
    // Bytes requested while the program is built and queued; the bodies
    // have not run. Building is single-threaded and deterministic, and the
    // harness's own threads can only inflate a window, so the smallest of
    // a few attempts is the program's.
    let built = |iterations| {
        (0..3)
            .map(|_| {
                let mut rt = ThreadRuntime::new(1);
                let (bytes, _) =
                    jade_bench::alloc::bytes_during(|| pagerank::build(&mut rt, &cfg(iterations)));
                bytes
            })
            .min()
            .expect("three attempts")
    };
    let edges = pagerank::power_law_graph(8192, 8, 7).edges.len();
    let edge_list = (edges * std::mem::size_of::<(u32, u32, u32)>()) as u64;
    let (one, eight) = (built(1), built(8));
    assert!(
        one > edge_list,
        "one plan is built: {one} bytes vs {edge_list}"
    );
    assert!(
        eight - one < edge_list,
        "7 more iterations allocated {} more bytes; one copy of the edge list is {edge_list}",
        eight - one
    );
}

#[test]
fn ipsc_simulation_allocates_per_run_not_per_fetch() {
    let _guard = SERIAL.lock().unwrap();
    if counting_inactive() {
        return;
    }
    let (trace, _) = pagerank::run_trace(&PagerankConfig {
        iterations: 8,
        ..PagerankConfig::paper(8)
    });
    let tasks = trace.task_count() as u64;
    let sec_per_op = pagerank::calib::IPSC_STRIPPED_S / trace.total_work();
    let demand = IpscConfig::paper(8, LocalityMode::Locality, sec_per_op);
    let clean = jade_ipsc::try_run_folded(&trace, &demand).expect("demand run completes");
    let mut managed = demand.clone();
    managed.aggregate_fetches = true;
    managed.prefetch = true;
    managed.target_tasks = 2;
    managed.tune = true;
    managed.faults = dsim::FaultPlan {
        drop_p: 0.02,
        seed: 1995,
        checkpoint: Some(dsim::SimDuration::from_secs_f64(clean.exec_time_s / 8.0)),
        ..dsim::FaultPlan::none()
    };
    // The harness's own threads can only inflate a window, and a run is
    // deterministic, so the smallest of a few attempts is the simulator's.
    for (name, cfg, per_task) in [("demand", &demand, 2), ("managed", &managed, 2)] {
        let allocs = (0..3)
            .map(|_| {
                let (allocs, r) =
                    jade_bench::alloc::allocs_during(|| jade_ipsc::try_run_folded(&trace, cfg));
                let r = r.expect("run completes");
                assert!(r.fetches > tasks, "{name}: the trace must fetch");
                assert_eq!(r.final_versions, clean.final_versions, "{name}");
                allocs
            })
            .min()
            .expect("three attempts");
        assert!(
            allocs <= per_task * tasks,
            "{name}: {allocs} allocations for {tasks} simulated tasks (limit {per_task} each)"
        );
    }
}

#[test]
fn dash_simulation_allocates_per_run_not_per_task() {
    let _guard = SERIAL.lock().unwrap();
    if counting_inactive() {
        return;
    }
    let (trace, _) = pagerank::run_trace(&PagerankConfig {
        iterations: 8,
        ..PagerankConfig::paper(8)
    });
    let tasks = trace.task_count() as u64;
    let sec_per_op = pagerank::calib::DASH_STRIPPED_S / trace.total_work();
    for mode in [LocalityMode::Locality, LocalityMode::NoLocality] {
        for prefetch in [false, true] {
            let cfg = DashConfig {
                prefetch,
                ..DashConfig::paper(8, mode, sec_per_op)
            };
            // As above: the smallest of a few deterministic attempts.
            let allocs = (0..3)
                .map(|_| {
                    let (allocs, r) = jade_bench::alloc::allocs_during(|| {
                        jade_dash::try_run_folded(&trace, &cfg)
                    });
                    let r = r.expect("run completes");
                    assert_eq!(r.tasks_executed as u64, tasks);
                    assert_eq!(r.prefetches_issued > 0, prefetch, "{mode}");
                    allocs
                })
                .min()
                .expect("three attempts");
            assert!(
                4 * allocs <= tasks,
                "{mode}, prefetch {prefetch}: {allocs} allocations for {tasks} simulated tasks \
                 (limit one per four)"
            );
        }
    }
}

#[test]
fn synchronizer_fan_in_allocates_nothing_beyond_the_slabs() {
    let _guard = SERIAL.lock().unwrap();
    if counting_inactive() {
        return;
    }
    let n = 10_000u32;
    let mut b = TraceBuilder::new();
    let hot = b.object("hot", 8, None);
    let (mut wr, mut rd) = (AccessSpec::new(), AccessSpec::new());
    wr.wr(hot);
    rd.rd(hot);
    b.task(wr, 1.0);
    for _ in 0..n {
        b.task(rd.clone(), 1.0);
    }
    let trace = b.build();
    // The harness's own threads can only inflate a window: the smallest of
    // a few attempts is the synchronizer's.
    let fan_in = |sync: &mut Synchronizer, newly: &mut Vec<_>| {
        for t in &trace.tasks {
            assert_eq!(sync.add_task(t.id, &t.spec), t.id.0 == 0);
        }
        assert_eq!(sync.waiting_len(hot), n as usize);
        // One completion grants the whole list.
        sync.complete(trace.tasks[0].id, newly);
        assert_eq!(sync.waiting_len(hot), 0);
    };
    let allocs = (0..3)
        .map(|_| {
            // A warm-up run sizes the slabs; `reset` keeps them.
            let mut sync = Synchronizer::new(true);
            let mut newly = Vec::with_capacity(n as usize);
            fan_in(&mut sync, &mut newly);
            sync.reset();
            newly.clear();
            let (allocs, ()) = jade_bench::alloc::allocs_during(|| fan_in(&mut sync, &mut newly));
            assert_eq!(newly.len(), n as usize);
            allocs
        })
        .min();
    assert_eq!(allocs, Some(0), "{n} waiters on one object");
}
