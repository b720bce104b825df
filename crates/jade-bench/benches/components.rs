//! Micro-benchmarks of the runtime components themselves: synchronizer
//! throughput, the dependence graph the simulators replay instead,
//! simulator event rates (and, under them, the calendar and
//! the fault injector), the iPSC simulator on its two heaviest benchmark
//! cells, trace generation, the real thread backend (one
//! cold batch, and `submit` + `finish` per task on a warmed runtime in the
//! benchmark's three fine-grain shapes), the multi-tenant service (a closed
//! loop of small DAGs, per task), building an access specification, and
//! element access through a store guard.
//!
//! And the applications themselves: trace generation of each paper
//! configuration and each `threads-apps` configuration on one worker.
//!
//! Plain self-timing harness (`harness = false`): each benchmark runs a
//! fixed number of iterations and reports the mean wall-clock time per
//! iteration. Run with `cargo bench -p jade-bench --bench components`.

use dsim::{Calendar, FaultInjector, FaultPlan, SimDuration};
use jade_core::LocalityMode;
use jade_core::{
    AccessSpec, Countdown, DepGraph, EventSink, Handle, JadeRuntime, NullSink, ObjectId, Store,
    Synchronizer, TaskBuilder, TaskDef, TaskId, Trace, TraceBuilder, TransitionBatch,
};
use jade_threads::{JadeService, Outcome, Program, ServiceConfig, TenantOptions, ThreadRuntime};

fn bench(name: &str, iters: u32, mut f: impl FnMut()) {
    // One warm-up iteration, then the timed batch.
    f();
    let start = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    let per = start.elapsed().as_secs_f64() / iters as f64;
    println!("{name:>32}  {:>12.3} µs/iter  ({iters} iters)", per * 1e6);
}

fn synchronizer_throughput() {
    for &n in &[1_000usize, 10_000] {
        bench(&format!("synchronizer/pipeline/{n}"), 10, || {
            // Worst case: a single write chain (every completion re-grants).
            let mut sync = Synchronizer::new(true);
            let mut spec = AccessSpec::new();
            spec.wr(ObjectId(0));
            let mut ready = Vec::new();
            for i in 0..n {
                if sync.add_task(TaskId(i as u32), &spec) {
                    ready.push(TaskId(i as u32));
                }
            }
            let mut done = 0;
            while let Some(t) = ready.pop() {
                done += 1;
                sync.complete(t, &mut ready);
            }
            assert_eq!(done, n);
        });
        bench(&format!("synchronizer/independent/{n}"), 10, || {
            let mut sync = Synchronizer::new(true);
            let mut ready = Vec::with_capacity(n);
            for i in 0..n {
                let mut spec = AccessSpec::new();
                spec.wr(ObjectId(i as u32));
                if sync.add_task(TaskId(i as u32), &spec) {
                    ready.push(TaskId(i as u32));
                }
            }
            let mut newly = Vec::new();
            for t in ready {
                sync.complete(t, &mut newly);
            }
            assert!(sync.all_complete());
        });
        // The merged entry points: one writer, then `n` readers parked on
        // its object (the fan-in a waiting list is threaded for), the
        // writer's completion and the readers' through one `apply_batch`
        // each — untraced, then recorded, through the same body.
        let fan_in = |sink: &mut dyn FnMut(&mut Synchronizer, &mut TransitionBatch)| {
            let mut sync = Synchronizer::new(true);
            let (mut wr, mut rd) = (AccessSpec::new(), AccessSpec::new());
            wr.wr(ObjectId(0));
            rd.rd(ObjectId(0));
            let mut batch = TransitionBatch::default();
            for i in 0..=n as u32 {
                sync.add_task(TaskId(i), if i == 0 { &wr } else { &rd });
                batch.complete(TaskId(i));
            }
            sink(&mut sync, &mut batch);
            assert!(sync.all_complete());
        };
        let mut newly = Vec::with_capacity(n);
        bench(&format!("synchronizer/fan_in_batch/{n}"), 10, || {
            fan_in(&mut |sync, batch| {
                newly.clear();
                sync.apply_batch(batch, &mut newly, &mut NullSink, &mut || 0, 0)
            })
        });
        bench(&format!("synchronizer/fan_in_batch_traced/{n}"), 10, || {
            fan_in(&mut |sync, batch| {
                newly.clear();
                let (mut events, mut clock) = (EventSink::recording(), 0u64..);
                sync.apply_batch(
                    batch,
                    &mut newly,
                    &mut events,
                    &mut || clock.next().unwrap(),
                    0,
                );
                assert_eq!(events.take().len(), 2 * n + 1);
            })
        });
    }
}

/// The twelve paper traces (every application at 8 and 32 processors),
/// each as a simulator sees its dependences: the cost of building its
/// `DepGraph`, of replaying the graph with counters, and of the
/// synchronizer replay the graph replaced, per task, the task enabled last
/// completing first; and the graph's size.
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
    // Per task a predecessor count and a row offset, and 4 bytes an edge.
    let bytes = 8 * tasks + 4 * (edges + graphs.len());
    println!(
        "{:>32}  {tasks} tasks, {:.2} edges and {:.2} declarations a task, {:.1} bytes a task",
        "depgraph/paper_traces",
        edges as f64 / tasks as f64,
        decls as f64 / tasks as f64,
        bytes as f64 / tasks as f64
    );
    let per_task = |name: &str, f: &mut dyn FnMut(&Trace, &DepGraph)| {
        let iters = 10;
        let start = std::time::Instant::now();
        for _ in 0..iters {
            for (t, g) in traces.iter().zip(&graphs) {
                f(t, g);
            }
        }
        let ns = start.elapsed().as_secs_f64() * 1e9 / (iters * tasks) as f64;
        println!("{name:>32}  {ns:>12.1} ns/task");
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
    per_task("depgraph/synchronizer_replay", &mut |t, _| {
        let mut sync = Synchronizer::new(true);
        for rec in &t.tasks {
            if sync.add_task(rec.id, &rec.spec) {
                ready.push(rec.id);
            }
        }
        while let Some(id) = ready.pop() {
            sync.complete(id, &mut ready);
        }
        assert!(sync.all_complete());
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
        std::hint::black_box(jade_dash::run(
            &trace,
            &jade_dash::DashConfig::paper(8, LocalityMode::Locality, 1.0),
        ));
    });
    let demand = jade_ipsc::IpscConfig::paper(8, LocalityMode::Locality, 1.0);
    bench("simulators/ipsc_2k_tasks", 10, || {
        std::hint::black_box(jade_ipsc::run(&trace, &demand));
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
        std::hint::black_box(jade_ipsc::run(&trace, &managed));
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
    bench("ipsc/cell/ocean_p32_demand", 5, || {
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
    bench("ipsc/cell/pagerank_p32_managed", 5, || {
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
            bench(&format!("apps/trace/{app}/p{procs}"), 5, || run(procs));
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
        bench(&format!("apps/run_on/{app}/w1"), 5, || run(8));
    }
}

fn thread_backend() {
    let n = 500usize;
    bench(&format!("thread_backend/independent_tasks/{n}"), 10, || {
        let mut rt = ThreadRuntime::new(4);
        let objs: Vec<_> = (0..n)
            .map(|i| rt.create(&format!("o{i}"), 8, 0u64))
            .collect();
        for (i, &o) in objs.iter().enumerate() {
            rt.submit(TaskBuilder::new("w").wr(o).body(move |ctx| {
                *ctx.wr(o) = i as u64;
            }));
        }
        rt.finish();
    });
}

/// One 4096-task batch of each of `benchmark/`'s `threads-fine` shapes over
/// the given objects: 16 independent counter chains, a 64 x 64 wavefront,
/// and one writer followed by 255 readers, sixteen times over.
fn fine_batch(shape: &str, counters: &[Handle<u64>], grid: &[Handle<u64>]) -> Vec<TaskDef> {
    const SIDE: usize = 64;
    let cell = |i: usize, j: usize| grid[i * SIDE + j];
    (0..SIDE * SIDE)
        .map(|k| match shape {
            "indep" => {
                let c = counters[k % counters.len()];
                TaskBuilder::new("inc")
                    .rd_wr(c)
                    .body(move |ctx| *ctx.wr(c) += 1)
            }
            "wavefront" => {
                let (i, j) = (k / SIDE, k % SIDE);
                let me = cell(i, j);
                let left = (j > 0).then(|| cell(i, j - 1));
                let up = (i > 0).then(|| cell(i - 1, j));
                let mut task = TaskBuilder::new("cell");
                for h in left.iter().chain(&up) {
                    task = task.rd(*h);
                }
                task.rd_wr(me).body(move |ctx| {
                    let l = left.map_or(0, |h| *ctx.rd(h));
                    let u = up.map_or(0, |h| *ctx.rd(h));
                    let mut v = ctx.wr(me);
                    *v = l.max(u).max(*v) + 1;
                })
            }
            _ => {
                let cast = counters[0];
                if k % 256 == 0 {
                    TaskBuilder::new("write")
                        .rd_wr(cast)
                        .body(move |ctx| *ctx.wr(cast) += 1)
                } else {
                    TaskBuilder::new("read").rd(cast).body(move |ctx| {
                        std::hint::black_box(*ctx.rd(cast));
                    })
                }
            }
        })
        .collect()
}

/// The executor's own cost per task: near-empty bodies, one warmed runtime,
/// tasks built outside the clock, `submit` + `finish` inside it — at the
/// worker count `benchmark/` uses and at one worker (where no task is ever
/// stolen or routed). The per-layer baseline the next executor change is
/// read against.
fn threads_submit_finish() {
    let wide = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    for workers in [wide, 1] {
        let mut rt = ThreadRuntime::new(workers);
        let counters: Vec<_> = (0..16)
            .map(|i| rt.create(&format!("c{i}"), 8, 0u64))
            .collect();
        let grid: Vec<_> = (0..64 * 64)
            .map(|i| rt.create(&format!("g{i}"), 8, 0u64))
            .collect();
        for shape in ["indep", "wavefront", "bcast"] {
            let (batches, mut secs, mut tasks) = (24, 0.0, 0usize);
            for batch in 0..=batches {
                let defs = fine_batch(shape, &counters, &grid);
                let n = defs.len();
                let start = std::time::Instant::now();
                for def in defs {
                    rt.submit(def);
                }
                rt.finish();
                // The first batch of a shape sizes the slabs: not timed.
                if batch > 0 {
                    secs += start.elapsed().as_secs_f64();
                    tasks += n;
                }
            }
            let name = format!("threads/submit_finish/{shape}_4096/w{workers}");
            let per_task = secs * 1e9 / tasks as f64;
            println!("{name:>32}  {per_task:>12.1} ns/task  ({batches} batches)");
        }
    }
}

/// DAG number `i` of `benchmark/`'s `service-mix` shapes, five chains of 16,
/// three 1 -> 14 -> 1 fans and two 8 x 8 wavefronts in every ten, with the
/// object its last task writes and the value a serial run leaves there.
fn mix_dag(i: usize) -> (Program, Handle<u64>, u64) {
    let mut prog = Program::new();
    match i % 10 {
        1 | 4 | 7 => {
            let src = prog.create("src", 8, 0u64);
            let mids: Vec<_> = (0..14)
                .map(|k| prog.create(format!("m{k}"), 8, 0u64))
                .collect();
            let out = prog.create("out", 8, 0u64);
            prog.submit(
                TaskBuilder::new("src")
                    .wr(src)
                    .body(move |ctx| *ctx.wr(src) = 3),
            );
            for (k, &m) in mids.iter().enumerate() {
                prog.submit(
                    TaskBuilder::new("mid")
                        .rd(src)
                        .wr(m)
                        .body(move |ctx| *ctx.wr(m) = *ctx.rd(src) * (k as u64 + 1)),
                );
            }
            let mut join = TaskBuilder::new("join");
            for &m in &mids {
                join = join.rd(m);
            }
            prog.submit(join.wr(out).body(move |ctx| {
                *ctx.wr(out) = mids.iter().map(|&m| *ctx.rd(m)).sum();
            }));
            (prog, out, 3 * (14 * 15 / 2))
        }
        3 | 8 => {
            const SIDE: usize = 8;
            let cells: Vec<_> = (0..SIDE * SIDE)
                .map(|c| prog.create(format!("c{c}"), 8, 0u64))
                .collect();
            for c in 0..SIDE * SIDE {
                let me = cells[c];
                let left = (c % SIDE > 0).then(|| cells[c - 1]);
                let up = (c >= SIDE).then(|| cells[c - SIDE]);
                let mut task = TaskBuilder::new("cell");
                for h in left.iter().chain(&up) {
                    task = task.rd(*h);
                }
                prog.submit(task.rd_wr(me).body(move |ctx| {
                    let l = left.map_or(0, |h| *ctx.rd(h));
                    let u = up.map_or(0, |h| *ctx.rd(h));
                    *ctx.wr(me) = l.max(u) + 1;
                }));
            }
            (prog, cells[SIDE * SIDE - 1], (2 * SIDE - 1) as u64)
        }
        _ => {
            let acc = prog.create("acc", 8, 0u64);
            for _ in 0..16 {
                prog.submit(
                    TaskBuilder::new("link")
                        .rd_wr(acc)
                        .body(move |ctx| *ctx.wr(acc) += 1),
                );
            }
            (prog, acc, 16)
        }
    }
}

/// The service's cost per task: 1 200 of those DAGs through one warmed
/// `JadeService`, closed loop with sixteen outstanding, programs built
/// outside the clock, `submit` and `wait` inside it — at the worker count
/// `benchmark/` uses (never fewer than two: what a second worker costs is
/// the question) and at one worker. The per-layer baseline the next service
/// change is read against, and only under `taskset -c 0`, which is how
/// `benchmark/` times `service-mix` (+-15 % there): unpinned, every park and
/// wake crosses cores, and on the two-vCPU reference host that costs
/// 0.55-0.77 us a task in one minute and 3.4-6.8 us in the next.
fn service_mix() {
    const DAGS: usize = 1_200;
    const WINDOW: usize = 16;
    let wide = std::thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 4));
    for workers in [wide, 1] {
        let svc = JadeService::new(ServiceConfig::new(workers));
        let (passes, mut secs, mut tasks) = (8, 0.0, 0usize);
        for pass in 0..=passes {
            let dags: Vec<_> = (0..DAGS).map(mix_dag).collect();
            let n: usize = dags.iter().map(|d| d.0.task_count()).sum();
            let mut outstanding = std::collections::VecDeque::new();
            let reap = |(id, out, expect)| {
                let r = svc.wait(id);
                assert_eq!(r.outcome, Outcome::Completed);
                assert_eq!(*r.store.read::<u64>(out), expect);
            };
            let start = std::time::Instant::now();
            for (prog, out, expect) in dags {
                if outstanding.len() == WINDOW {
                    reap(outstanding.pop_front().expect("window is full"));
                }
                let id = svc.submit(prog, TenantOptions::default()).unwrap();
                outstanding.push_back((id, out, expect));
            }
            outstanding.into_iter().for_each(reap);
            // The first pass sizes the spare slots: not timed.
            if pass > 0 {
                secs += start.elapsed().as_secs_f64();
                tasks += n;
            }
        }
        let name = format!("service/mix_{DAGS}/w{workers}");
        let per_task = secs * 1e9 / tasks as f64;
        println!("{name:>32}  {per_task:>12.1} ns/task  ({passes} passes)");
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
    synchronizer_throughput();
    dependence_graphs();
    simulator_event_rate();
    ipsc_cells();
    dsim_per_message();
    trace_generation();
    apps();
    thread_backend();
    threads_submit_finish();
    service_mix();
    access_spec_build();
    store_guard_index();
}
