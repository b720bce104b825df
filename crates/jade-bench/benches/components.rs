//! Micro-benchmarks of the runtime components themselves: the dependence
//! graph every backend counts down, simulator event rates (and, under them, the calendar and
//! the fault injector), the iPSC simulator on its two heaviest benchmark
//! cells, trace generation, building an access specification, and element
//! access through a store guard. The thread backend and the service are
//! timed by `benchmark/` (`threads-fine`, `service-mix`).
//!
//! And the applications themselves: trace generation of each paper
//! configuration and each `threads-apps` configuration on one worker.
//!
//! Plain self-timing harness (`harness = false`): each benchmark times one
//! call per round, for at least a fixed number of rounds and more while a
//! short time budget lasts, and reports the fastest round with the round
//! count beside it. A preemption slows some rounds, never the minimum.
//! Run with `cargo bench -p jade-bench --bench components`; to compare two
//! builds, alternate them pinned to one core (`taskset -c 1`).

use dsim::{Calendar, FaultInjector, FaultPlan, SimDuration};
use jade_core::LocalityMode;
use jade_core::{AccessSpec, Countdown, DepGraph, NullSink, ObjectId, Store, Trace, TraceBuilder};
use jade_threads::ThreadRuntime;

/// The fastest of at least `min_rounds` timed calls of `f`, and of more
/// while 100 ms last (at most 10 000), after one warm-up call: the seconds
/// it took, and the rounds run.
fn fastest(min_rounds: u32, mut f: impl FnMut()) -> (f64, u32) {
    f();
    let budget = std::time::Instant::now() + std::time::Duration::from_millis(100);
    let (mut best, mut rounds) = (f64::INFINITY, 0);
    while rounds < min_rounds || (rounds < 10_000 && std::time::Instant::now() < budget) {
        let start = std::time::Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
        rounds += 1;
    }
    (best, rounds)
}

fn bench(name: &str, min_rounds: u32, f: impl FnMut()) {
    let (secs, rounds) = fastest(min_rounds, f);
    println!(
        "{name:>32}  {:>12.3} µs/iter  (min of {rounds} rounds)",
        secs * 1e6
    );
}

/// The twelve paper traces (every application at 8 and 32 processors),
/// each as a simulator sees its dependences: the cost of building its
/// `DepGraph` and of replaying the graph with counters, per task, the task
/// enabled last completing first; and the graph's size.
fn dependence_graphs() {
    use jade_apps::{cholesky, halo, ocean, pagerank, string_app, water};
    let mut traces: Vec<Trace> = Vec::new();
    for p in [8, 32] {
        traces.push(water::run_trace(&water::WaterConfig::paper(p)).0);
        traces.push(string_app::run_trace(&string_app::StringConfig::paper(p)).0);
        traces.push(ocean::run_trace(&ocean::OceanConfig::paper(p)).0);
        traces.push(cholesky::run_trace(&cholesky::CholeskyConfig::paper(p)).0);
        traces.push(pagerank::run_trace(&pagerank::PagerankConfig::paper(p)).0);
        traces.push(halo::run_trace(&halo::HaloConfig::paper(p)).0);
    }
    let tasks: usize = traces.iter().map(|t| t.task_count()).sum();
    let graphs: Vec<DepGraph> = traces.iter().map(|t| DepGraph::build(t, true)).collect();
    let edges: usize = graphs.iter().map(|g| g.edge_count()).sum();
    let decls: usize = (traces.iter().flat_map(|t| &t.tasks))
        .map(|t| t.spec.len())
        .sum();
    // Per task a predecessor count, a row offset and a declaration
    // offset, per declaration a sub-row offset, 4 bytes an edge, and per
    // object the last writer and newest read the build keeps.
    let objects: usize = graphs.iter().map(|g| g.objects()).sum();
    let bytes = 12 * tasks + 4 * (decls + edges + 3 * graphs.len()) + 8 * objects;
    println!(
        "{:>32}  {tasks} tasks, {:.2} edges and {:.2} declarations a task, {:.1} bytes a task",
        "depgraph/paper_traces",
        edges as f64 / tasks as f64,
        decls as f64 / tasks as f64,
        bytes as f64 / tasks as f64
    );
    // A round is one pass over all twelve traces.
    let per_task = |name: &str, f: &mut dyn FnMut(&Trace, &DepGraph)| {
        let (secs, rounds) = fastest(10, || {
            for (t, g) in traces.iter().zip(&graphs) {
                f(t, g);
            }
        });
        let ns = secs * 1e9 / tasks as f64;
        println!("{name:>32}  {ns:>12.1} ns/task  (min of {rounds} rounds)");
    };
    per_task("depgraph/build", &mut |t, _| {
        std::hint::black_box(DepGraph::build(t, true));
    });
    let mut ready = Vec::new();
    per_task("depgraph/countdown_replay", &mut |t, g| {
        let mut deps = Countdown::new(std::borrow::Cow::Borrowed(g));
        for rec in &t.tasks {
            if deps.add_task_traced(rec.id, &mut NullSink, 0, 0) {
                ready.push(rec.id);
            }
        }
        while let Some(id) = ready.pop() {
            deps.complete_traced(id, &mut ready, &mut NullSink, 0, 0);
        }
        assert!(deps.all_complete());
    });
}

fn simulator_event_rate() {
    // A fixed synthetic trace: fan-out tasks with moderate sharing.
    let mut b = TraceBuilder::new();
    let objs: Vec<_> = (0..64)
        .map(|i| b.object(&format!("o{i}"), 1024, Some(i % 8)))
        .collect();
    for i in 0..2_000usize {
        let mut s = AccessSpec::new();
        s.wr(objs[i % 64]);
        s.rd(objs[(i * 7 + 1) % 64]);
        b.task(s, 0.001);
    }
    let trace = b.build();
    bench("simulators/dash_2k_tasks", 10, || {
        std::hint::black_box(
            jade_dash::try_run(
                &trace,
                &jade_dash::DashConfig::paper(8, LocalityMode::Locality, 1.0),
            )
            .expect("simulation failed"),
        );
    });
    let demand = jade_ipsc::IpscConfig::paper(8, LocalityMode::Locality, 1.0);
    bench("simulators/ipsc_2k_tasks", 10, || {
        std::hint::black_box(jade_ipsc::try_run(&trace, &demand).expect("simulation failed"));
    });
    // Every fetch route at once: bundles, prefetch and reconcile, ack
    // timers and retries, checkpoints.
    let mut managed = demand.clone();
    managed.aggregate_fetches = true;
    managed.prefetch = true;
    managed.target_tasks = 2;
    managed.tune = true;
    managed.faults = FaultPlan::parse("drop=0.02,ckpt=0.05,seed=1995").unwrap();
    bench("simulators/ipsc_managed_2k_tasks", 10, || {
        std::hint::black_box(jade_ipsc::try_run(&trace, &managed).expect("simulation failed"));
    });
}

/// The two cells that hold most of `benchmark/`'s iPSC workloads' host
/// time, one `try_run_folded` each: Ocean at 32 processors as the paper
/// ran it, and PageRank at 32 with aggregation, prefetch, two tasks per
/// processor, tuning and the managed workload's fault plan (2 % drops,
/// a checkpoint every eighth of the fault-free makespan).
fn ipsc_cells() {
    use jade_apps::{ocean, pagerank};
    let (trace, _) = ocean::run_trace(&ocean::OceanConfig::paper(32));
    let sec_per_op = ocean::calib::IPSC_STRIPPED_S / trace.total_work();
    let cfg = jade_ipsc::IpscConfig::paper(32, LocalityMode::Locality, sec_per_op);
    bench("ipsc/cell/ocean_p32_demand", 10, || {
        std::hint::black_box(jade_ipsc::try_run_folded(&trace, &cfg).unwrap());
    });
    let (trace, _) = pagerank::run_trace(&pagerank::PagerankConfig::paper(32));
    let sec_per_op = pagerank::calib::IPSC_STRIPPED_S / trace.total_work();
    let mut cfg = jade_ipsc::IpscConfig::paper(32, LocalityMode::Locality, sec_per_op);
    cfg.aggregate_fetches = true;
    cfg.prefetch = true;
    cfg.target_tasks = 2;
    cfg.tune = true;
    let clean = jade_ipsc::try_run_folded(&trace, &cfg).unwrap();
    cfg.faults = FaultPlan {
        drop_p: 0.02,
        seed: 7,
        checkpoint: Some(SimDuration::from_secs_f64(clean.exec_time_s / 8.0)),
        ..FaultPlan::none()
    };
    bench("ipsc/cell/pagerank_p32_managed", 10, || {
        std::hint::black_box(jade_ipsc::try_run_folded(&trace, &cfg).unwrap());
    });
}

/// What the iPSC simulator pays per data message and per calendar event
/// whatever it simulates: one fate draw, and one pop plus one schedule on a
/// calendar whose ack timers wait far in the future. An iteration is
/// 100 000 of them: µs/iter ÷ 100 is nanoseconds each.
fn dsim_per_message() {
    let draws = 100_000u32;
    for (name, spec) in [
        ("inactive", "seed=1995"),
        (
            "lossy",
            "drop=0.05,dup=0.02,delay=0.1,reorder=0.05,seed=1995",
        ),
    ] {
        let mut inj = FaultInjector::new(FaultPlan::parse(spec).unwrap());
        bench(&format!("dsim/message_fate/{name}"), 20, || {
            for _ in 0..draws {
                std::hint::black_box(inj.message_fate());
            }
        });
    }
    // Steady depth 256 over 64 k parked timers: a timer's cost must stay
    // with the timer, not spread to every event that passes it.
    let mut cal: Calendar<u32> = Calendar::new();
    let far = cal.now() + SimDuration::from_secs_f64(3600.0);
    for i in 0..65_536u32 {
        cal.schedule_timer(far + SimDuration(i as u64), i);
    }
    for i in 0..256u32 {
        cal.schedule(cal.now() + SimDuration(1 + (i as u64 * 7919) % 1000), i);
    }
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    bench("dsim/calendar/hold_with_timers", 20, || {
        for _ in 0..draws {
            let (t, ev) = cal.pop().expect("the calendar holds its depth");
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            cal.schedule(t + SimDuration(1 + (state >> 33) % 1000), ev);
        }
    });
    assert_eq!(cal.len(), 65_536 + 256);
}

fn trace_generation() {
    bench("trace_generation/water_small", 10, || {
        std::hint::black_box(jade_apps::water::run_trace(
            &jade_apps::water::WaterConfig::small(8),
        ));
    });
    bench("trace_generation/cholesky_small", 10, || {
        std::hint::black_box(jade_apps::cholesky::run_trace(
            &jade_apps::cholesky::CholeskyConfig::small(8),
        ));
    });
}

/// The applications' own cost: serial trace generation of each paper
/// configuration at 8 and 32 processors — the twelve traces behind every
/// simulator workload's `setup_s` — and each `threads-apps` configuration
/// (`benchmark/src/apps.rs`, `App::thread_config`, default seeds) on a
/// fresh one-worker `ThreadRuntime`, where bodies are 95 % of the time.
fn apps() {
    use jade_apps::{cholesky, halo, ocean, pagerank, string_app, water};
    use std::hint::black_box;
    type Run<'a> = (&'a str, &'a dyn Fn(usize));
    let traces: [Run; 6] = [
        ("water", &|p| {
            black_box(water::run_trace(&water::WaterConfig::paper(p)));
        }),
        ("string", &|p| {
            black_box(string_app::run_trace(&string_app::StringConfig::paper(p)));
        }),
        ("ocean", &|p| {
            black_box(ocean::run_trace(&ocean::OceanConfig::paper(p)));
        }),
        ("cholesky", &|p| {
            black_box(cholesky::run_trace(&cholesky::CholeskyConfig::paper(p)));
        }),
        ("pagerank", &|p| {
            black_box(pagerank::run_trace(&pagerank::PagerankConfig::paper(p)));
        }),
        ("halo", &|p| {
            black_box(halo::run_trace(&halo::HaloConfig::paper(p)));
        }),
    ];
    for procs in [8, 32] {
        for (app, run) in traces {
            bench(&format!("apps/trace/{app}/p{procs}"), 10, || run(procs));
        }
    }
    let threads: [Run; 6] = [
        ("water", &|p| {
            let cfg = water::WaterConfig {
                iterations: 4,
                ..water::WaterConfig::paper(p)
            };
            black_box(water::run_on(&mut ThreadRuntime::new(1), &cfg));
        }),
        ("string", &|p| {
            let cfg = string_app::StringConfig {
                iterations: 4,
                ..string_app::StringConfig::paper(p)
            };
            black_box(string_app::run_on(&mut ThreadRuntime::new(1), &cfg));
        }),
        ("ocean", &|p| {
            let cfg = ocean::OceanConfig {
                iterations: 150,
                ..ocean::OceanConfig::paper(p)
            };
            black_box(ocean::run_on(&mut ThreadRuntime::new(1), &cfg));
        }),
        ("cholesky", &|p| {
            let cfg = cholesky::CholeskyConfig {
                grid: 114,
                ..cholesky::CholeskyConfig::paper(p)
            };
            black_box(cholesky::run_on(&mut ThreadRuntime::new(1), &cfg));
        }),
        ("pagerank", &|p| {
            let cfg = pagerank::PagerankConfig {
                nodes: 32768,
                edges_per_node: 8,
                iterations: 40,
                ..pagerank::PagerankConfig::paper(p)
            };
            black_box(pagerank::run_on(&mut ThreadRuntime::new(1), &cfg));
        }),
        ("halo", &|p| {
            let cfg = halo::HaloConfig {
                tile: 64,
                iterations: 110,
                ..halo::HaloConfig::paper(p)
            };
            black_box(halo::run_on(&mut ThreadRuntime::new(1), &cfg));
        }),
    ];
    for (app, run) in threads {
        bench(&format!("apps/run_on/{app}/w1"), 10, || run(8));
    }
}

/// Building a specification of one, three (the most held inline) and eight
/// declarations (spilled). An iteration builds 100 000: µs/iter ÷ 100 is
/// nanoseconds each.
fn access_spec_build() {
    for decls in [1u32, 3, 8] {
        bench(&format!("core/access_spec/build_{decls}"), 20, || {
            for base in 0..100_000u32 {
                let mut spec = AccessSpec::new();
                for k in 0..decls {
                    spec.rd_wr(ObjectId(std::hint::black_box(base + k)));
                }
                std::hint::black_box(&spec);
            }
        });
    }
}

/// Sum `v[0..n]` by index, dereferencing `v` anew for every element — what
/// a task body does when it writes `pos[i]` on a guard inside a loop.
fn indexed_sum<V>(name: &str, v: &V, n: usize, expect: f64)
where
    V: std::ops::Deref,
    V::Target: std::ops::Index<usize, Output = f64>,
{
    bench(name, 2_000, || {
        let v = std::hint::black_box(v);
        let mut sum = 0.0;
        for i in 0..n {
            sum += v[i];
        }
        assert_eq!(std::hint::black_box(sum), expect);
    });
}

/// The same indexed sum three ways: the guard must cost what the slice
/// costs. A per-element price in `ReadGuard::deref` (a downcast, say) shows
/// up as the first row standing apart from the other two.
fn store_guard_index() {
    let n = 4096usize;
    let mut store = Store::new();
    let h = store.create("v", 8 * n, (0..n).map(|i| i as f64).collect::<Vec<f64>>());
    let expect = (n * (n - 1) / 2) as f64;
    let plain = store.snapshot(h);
    let guard = store.read(h);
    indexed_sum("store/guard_index/guard", &guard, n, expect);
    indexed_sum("store/guard_index/deref_once", &*guard, n, expect);
    indexed_sum("store/guard_index/slice", &plain.as_slice(), n, expect);
}

fn main() {
    dependence_graphs();
    simulator_event_rate();
    ipsc_cells();
    dsim_per_message();
    trace_generation();
    apps();
    access_spec_build();
    store_guard_index();
}
