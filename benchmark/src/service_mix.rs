//! `service-mix`: one client thread pushes a seeded mix of small DAGs —
//! half 16-task chains, three in ten 1→14→1 fans, two in ten 8×8
//! wavefronts — through one long-lived `JadeService`, closed loop, sixteen
//! outstanding. Nothing is shed, nothing fails and nothing has a deadline.
//!
//! The service runs the executor's code another way: thousands of small
//! per-tenant synchronizers, admission, fair pick and report assembly
//! where `ThreadRuntime` has one big arena-backed batch. A batch-path gain
//! that costs the service path shows here, and this is the only workload
//! whose operations are short enough for a tail latency to mean something.
//!
//! A DAG's latency runs from the start of its `submit` call to the end of
//! its last task's body, stamped by that body.

use crate::harness::{self, Budget, RunArgs};
use crate::layers;
use crate::metrics::{Report, DAG_SHAPES};
use crate::spans::{BodyAcc, Recorder};
use crate::stats::{median, median_of, pass_percentile};
use crate::TINY;
use jade::apps::common::SplitMix64;
use jade::core::{check_lifecycle, AccessSpec, Handle, TaskBuilder, TaskDef};
use jade::{JadeService, Outcome, Program, ServiceConfig, TenantId, TenantOptions};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// DAGs per pass; a multiple of ten, so the mix is exact.
const DAGS: usize = if TINY { 40 } else { 12_000 };
/// DAGs the client keeps outstanding.
pub const WINDOW: usize = 16;
const CHAIN: usize = 16;
const FAN: usize = 14;
const WAVE: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Shape {
    Chain,
    Fan,
    Wave,
}

/// The pass's DAG shapes: exactly 50/30/20, in seeded order.
fn sequence(seed: u64) -> Vec<Shape> {
    use Shape::{Chain, Fan, Wave};
    let pattern = [Chain, Chain, Chain, Chain, Chain, Fan, Fan, Fan, Wave, Wave];
    let mut seq: Vec<Shape> = pattern.iter().copied().cycle().take(DAGS).collect();
    let mut rng = SplitMix64::seed_from_u64(seed);
    for i in (1..seq.len()).rev() {
        seq.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    seq
}

/// One prebuilt DAG: its program, the object holding its result, and the
/// value a serial run leaves there.
struct Dag {
    prog: Program,
    out: Handle<u64>,
    expect: u64,
    tasks: usize,
}

/// Where each DAG's last body writes the time it ended.
struct Stamps {
    epoch: Instant,
    done_ns: Vec<AtomicU64>,
}

/// Build DAG number `idx` of the pass. `bodies` re-boxes every body to sum
/// its time (the traced pass); `specs` also collects the access
/// specifications, which a `Program` does not give back.
fn build(
    shape: Shape,
    idx: usize,
    stamps: &Arc<Stamps>,
    bodies: Option<&Arc<BodyAcc>>,
    mut specs: Option<&mut Vec<AccessSpec>>,
) -> Dag {
    let mut prog = Program::new();
    let mut tasks = 0;
    let mut submit = |prog: &mut Program, mut def: TaskDef| {
        if let Some(acc) = bodies {
            acc.wrap(&mut def);
        }
        if let Some(specs) = specs.as_deref_mut() {
            specs.push(def.spec.clone());
        }
        prog.submit(def);
        tasks += 1;
    };
    let stamp = {
        let stamps = Arc::clone(stamps);
        // `Relaxed`: read after `wait` returned this DAG's report, which
        // synchronizes through the service's lock.
        move || {
            stamps.done_ns[idx].store(stamps.epoch.elapsed().as_nanos() as u64, Ordering::Relaxed)
        }
    };
    let (out, expect) = match shape {
        Shape::Chain => {
            let h = prog.create("acc", 8, 0u64);
            let step = |v: u64, i: usize| v.wrapping_mul(31).wrapping_add(i as u64 + 1);
            for i in 0..CHAIN - 1 {
                submit(
                    &mut prog,
                    TaskBuilder::new("link").rd_wr(h).body(move |ctx| {
                        let mut v = ctx.wr(h);
                        *v = step(*v, i);
                    }),
                );
            }
            submit(
                &mut prog,
                TaskBuilder::new("link").rd_wr(h).body(move |ctx| {
                    let mut v = ctx.wr(h);
                    *v = step(*v, CHAIN - 1);
                    stamp();
                }),
            );
            (h, (0..CHAIN).fold(0, step))
        }
        Shape::Fan => {
            let src = prog.create("src", 8, 0u64);
            let mids: Vec<_> = (0..FAN)
                .map(|k| prog.create(format!("m{k}"), 8, 0u64))
                .collect();
            let out = prog.create("out", 8, 0u64);
            submit(
                &mut prog,
                TaskBuilder::new("src")
                    .wr(src)
                    .body(move |ctx| *ctx.wr(src) = 3),
            );
            for (k, &m) in mids.iter().enumerate() {
                submit(
                    &mut prog,
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
            submit(
                &mut prog,
                join.wr(out).body(move |ctx| {
                    *ctx.wr(out) = mids.iter().map(|&m| *ctx.rd(m)).sum();
                    stamp();
                }),
            );
            (out, 3 * (FAN * (FAN + 1) / 2) as u64)
        }
        Shape::Wave => {
            let cells: Vec<_> = (0..WAVE * WAVE)
                .map(|i| prog.create(format!("c{i}"), 8, 0u64))
                .collect();
            let mut stamp = Some(stamp);
            for i in 0..WAVE {
                for j in 0..WAVE {
                    let me = cells[i * WAVE + j];
                    let left = (j > 0).then(|| cells[i * WAVE + j - 1]);
                    let up = (i > 0).then(|| cells[(i - 1) * WAVE + j]);
                    let mut b = TaskBuilder::new("cell");
                    for h in left.iter().chain(&up) {
                        b = b.rd(*h);
                    }
                    let last = (i, j) == (WAVE - 1, WAVE - 1);
                    let stamp = if last { stamp.take() } else { None };
                    submit(
                        &mut prog,
                        b.rd_wr(me).body(move |ctx| {
                            let l = left.map_or(0, |h| *ctx.rd(h));
                            let u = up.map_or(0, |h| *ctx.rd(h));
                            let mut v = ctx.wr(me);
                            *v = l.max(u).max(*v) + 1;
                            if let Some(stamp) = &stamp {
                                stamp();
                            }
                        }),
                    );
                }
            }
            (cells[WAVE * WAVE - 1], (2 * WAVE - 1) as u64)
        }
    };
    Dag {
        prog,
        out,
        expect,
        tasks,
    }
}

/// What one pass measured.
#[derive(Default)]
struct Pass {
    wall_s: f64,
    tasks: usize,
    refused: usize,
    events: usize,
    /// Per DAG: shape and submit→last-body latency in ms.
    latency_ms: Vec<(Shape, f64)>,
    submit_us: Vec<f64>,
    wait_us: Vec<f64>,
}

/// A submitted DAG whose report has not been taken yet.
struct Outstanding {
    id: TenantId,
    idx: usize,
    out: Handle<u64>,
    expect: u64,
    submitted_ns: u64,
}

/// How a pass is driven; the tests narrow the service to force refusals.
pub struct Drive<'a> {
    pub svc: &'a JadeService,
    pub window: usize,
    /// Check every tenant's event stream (the traced run).
    pub check_events: bool,
}

/// Build the pass's programs (untimed), then push them through the
/// service, closed loop, checking every report.
fn pass(
    drive: &Drive,
    seq: &[Shape],
    bodies: Option<&Arc<BodyAcc>>,
    rec: &mut Recorder,
    report: &mut Report,
) -> Pass {
    let stamps = Arc::new(Stamps {
        epoch: Instant::now(),
        done_ns: (0..seq.len()).map(|_| AtomicU64::new(0)).collect(),
    });
    let dags: Vec<Dag> = (seq.iter().enumerate())
        .map(|(i, &shape)| build(shape, i, &stamps, bodies, None))
        .collect();
    let mut p = Pass::default();
    let mut outstanding: VecDeque<Outstanding> = VecDeque::new();
    let reap = |p: &mut Pass, rec: &mut Recorder, report: &mut Report, o: Outstanding| {
        let (r, wait_s) = rec.time("service.wait", "", || drive.svc.wait(o.id));
        p.wait_us.push(wait_s * 1e6);
        p.events += r.events.len();
        let shape = seq[o.idx];
        report.attempt((|| {
            if r.outcome != Outcome::Completed {
                return Err(format!("DAG {} ({shape:?}): {:?}", o.idx, r.outcome));
            }
            if *r.store.read(o.out) != o.expect {
                return Err(format!(
                    "DAG {} ({shape:?}): result differs from serial",
                    o.idx
                ));
            }
            Ok(())
        })());
        if drive.check_events {
            report.stream_checked(
                check_lifecycle(&r.events).map_err(|e| format!("{shape:?} DAG: {e}")),
            );
        }
        let done_ns = stamps.done_ns[o.idx].load(Ordering::Relaxed);
        let ms = done_ns.saturating_sub(o.submitted_ns) as f64 * 1e-6;
        p.latency_ms.push((shape, ms));
    };
    let open = rec.begin("service.pass", "");
    for (idx, dag) in dags.into_iter().enumerate() {
        if outstanding.len() >= drive.window {
            let o = outstanding.pop_front().expect("window is not empty");
            reap(&mut p, rec, report, o);
        }
        p.tasks += dag.tasks;
        let submitted_ns = stamps.epoch.elapsed().as_nanos() as u64;
        let (r, submit_s) = rec.time("service.submit", "", || {
            drive.svc.submit(dag.prog, TenantOptions::default())
        });
        p.submit_us.push(submit_s * 1e6);
        match r {
            Ok(id) => outstanding.push_back(Outstanding {
                id,
                idx,
                out: dag.out,
                expect: dag.expect,
                submitted_ns,
            }),
            Err(e) => {
                p.refused += 1;
                report.attempt(Err(format!("DAG {idx} ({:?}) refused: {e}", seq[idx])));
            }
        }
    }
    while let Some(o) = outstanding.pop_front() {
        reap(&mut p, rec, report, o);
    }
    p.wall_s = rec.end(open);
    p
}

/// The two long-lived services (`W` workers, one worker), built the way a
/// user would, and the pass's shapes.
struct Mix {
    many: JadeService,
    one: JadeService,
    seq: Vec<Shape>,
}

impl Mix {
    fn drive(svc: &JadeService, check_events: bool) -> Drive<'_> {
        Drive {
            svc,
            window: WINDOW,
            check_events,
        }
    }
}

/// Both services after one cold pass each.
fn set_up(seed: u64, rec: &mut Recorder, report: &mut Report) -> Mix {
    let mix = Mix {
        many: JadeService::new(ServiceConfig::new(harness::workers())),
        one: JadeService::new(ServiceConfig::new(1)),
        seq: sequence(seed),
    };
    pass(&Mix::drive(&mix.many, false), &mix.seq, None, rec, report);
    pass(&Mix::drive(&mix.one, false), &mix.seq, None, rec, report);
    mix
}

fn latencies(passes: &[Pass]) -> Vec<Vec<f64>> {
    (passes.iter())
        .map(|p| p.latency_ms.iter().map(|l| l.1).collect())
        .collect()
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &RunArgs) -> Report {
    let _pinned = harness::OneCore::pin();
    let mut report = Report::new(false);
    let rec = &mut Recorder::disabled();
    let (mix, setup_s) = harness::set_up(|| set_up(args.seed, rec, &mut report));
    let budget = Budget::new(args.seconds);
    let (mut many, mut one) = (Vec::new(), Vec::new());
    while budget.more(many.len()) {
        many.push(pass(
            &Mix::drive(&mix.many, false),
            &mix.seq,
            None,
            rec,
            &mut report,
        ));
        one.push(pass(
            &Mix::drive(&mix.one, false),
            &mix.seq,
            None,
            rec,
            &mut report,
        ));
    }
    let lat = latencies(&many);
    report.set_median("setup_s", &setup_s);
    report.set_fastest("wall_s", &many.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    report.set_fastest(
        "wall_1w_s",
        &one.iter().map(|p| p.wall_s).collect::<Vec<_>>(),
    );
    report.set("dag_p50_ms", pass_percentile(&lat, 50.0));
    report.set("peak_rss_mb", harness::peak_rss_mb());
    report
}

/// The traced run: per-layer metrics.
pub fn run_traced(args: &RunArgs, rec: &mut Recorder) -> Report {
    let pinned = harness::OneCore::pin();
    let mut report = Report::new(true);
    let mix = set_up(args.seed, rec, &mut report);
    let timer = crate::spans::timer_ns();
    let bodies = BodyAcc::new();
    let budget = Budget::new(args.seconds * 0.7);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    // A disabled recorder times the untraced passes: their thousands of
    // submit and wait calls are the tracing whose cost is being measured.
    let off = &mut Recorder::disabled();
    while budget.more(plain.len()) {
        rec.pass += 1;
        plain.push(pass(
            &Mix::drive(&mix.many, false),
            &mix.seq,
            None,
            off,
            &mut report,
        ));
        traced.push(pass(
            &Mix::drive(&mix.many, true),
            &mix.seq,
            Some(&bodies),
            rec,
            &mut report,
        ));
    }
    let wall = median_of(&plain, |p| p.wall_s);
    let tasks = plain[0].tasks as f64;
    report.set("service.dags", mix.seq.len() as f64);
    report.set("service.tasks", tasks);
    report.set(
        "service.refused",
        plain
            .iter()
            .chain(&traced)
            .map(|p| p.refused)
            .sum::<usize>() as f64,
    );
    report.set("service.tasks_per_s", tasks / wall);
    report.set("dag_p99_ms", pass_percentile(&latencies(&plain), 99.0));
    let all = |f: fn(&Pass) -> &Vec<f64>| -> Vec<f64> {
        plain.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    report.set("service.submit_us_p50", median(&all(|p| &p.submit_us)));
    report.set("service.wait_us_p50", median(&all(|p| &p.wait_us)));
    for (shape, name) in [Shape::Chain, Shape::Fan, Shape::Wave]
        .iter()
        .zip(DAG_SHAPES)
    {
        let ms: Vec<f64> = plain
            .iter()
            .flat_map(|p| p.latency_ms.iter().filter(|l| l.0 == *shape).map(|l| l.1))
            .collect();
        report.set(&format!("service.dag_ms_p50.{name}"), median(&ms));
    }
    let traced_wall = median_of(&traced, |p| p.wall_s);
    report.set("trace_overhead_frac", traced_wall / wall - 1.0);
    let (calls, body_s) = bodies.totals(timer);
    assert_eq!(
        calls as usize,
        traced.len() * plain[0].tasks,
        "every body timed once"
    );
    let body_s = body_s / traced.len() as f64;
    // Pinned, client and workers take turns on one core: its time is the pass.
    let worker_s = traced_wall;
    report.set("threads.body_frac", body_s / worker_s);
    report.set(
        "threads.overhead_ns_per_task",
        (worker_s - body_s) * 1e9 / tasks,
    );
    report.set("threads.tasks", tasks);
    report.set("threads.tasks_per_s", tasks / wall);
    // The service records every tenant's events whether asked or not, so
    // there is no run without the sink to compare with.
    report.set("core.events.per_task", traced[0].events as f64 / tasks);

    // A bare synchronizer per DAG over the same programs' specifications.
    let stamps = Arc::new(Stamps {
        epoch: Instant::now(),
        done_ns: Vec::new(),
    });
    let mut sync = layers::SyncReplay::default();
    let open = rec.begin("core.sync.replay", "");
    let mut specs = Vec::new();
    for &shape in &mix.seq {
        specs.clear();
        build(shape, 0, &stamps, None, Some(&mut specs));
        sync.replay(&specs);
    }
    rec.end(open);
    sync.report(&mut report);

    // Off the one core, on services whose workers start unpinned: what
    // `W` workers on `W` cores gain over one.
    let seq = mix.seq.clone();
    drop((mix, pinned));
    let mix = set_up(args.seed, off, &mut report);
    let (mut free, mut free_1w) = (Vec::new(), Vec::new());
    for _ in 0..harness::MIN_PASSES {
        free.push(pass(&Mix::drive(&mix.many, false), &seq, None, off, &mut report).wall_s);
        free_1w.push(pass(&Mix::drive(&mix.one, false), &seq, None, off, &mut report).wall_s);
    }
    report.set("service.par_speedup", median(&free_1w) / median(&free));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_refused_submission_counts_as_failed() {
        // One resident tenant and no queue: a window of sixteen must be refused.
        let svc = JadeService::new(ServiceConfig {
            max_active: 1,
            max_pending: 0,
            ..ServiceConfig::new(1)
        });
        let drive = Drive {
            svc: &svc,
            window: WINDOW,
            check_events: false,
        };
        let mut report = Report::new(false);
        let p = pass(
            &drive,
            &sequence(1995),
            None,
            &mut Recorder::disabled(),
            &mut report,
        );
        assert!(
            p.refused > 0 && report.failed == p.refused as u64,
            "{} refused",
            p.refused
        );
        assert!(report.failures[0].contains("refused: service overloaded"));
        assert_eq!(report.attempted as usize, DAGS);
    }

    #[test]
    fn the_mix_is_exact_and_seeded() {
        let (a, b) = (sequence(1), sequence(2));
        let count = |s: &[Shape], shape| s.iter().filter(|&&x| x == shape).count();
        for seq in [&a, &b] {
            assert_eq!(count(seq, Shape::Chain) * 10, DAGS * 5);
            assert_eq!(count(seq, Shape::Fan) * 10, DAGS * 3);
        }
        assert_ne!(a, b);
        assert_eq!(a, sequence(1));
    }
}
