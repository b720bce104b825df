//! `threads-fine`: ~200k near-empty tasks of each of three shapes on one
//! warmed `ThreadRuntime`, so the executor and the synchronizer do nearly
//! all the work. Three DAG shapes, because a change that helps
//! independent chains can cost dependent or read-shared graphs:
//!
//! * `indep` — tasks `rd_wr` one of 16 counters (the SchedStress shape);
//! * `wavefront` — a sweep over a square grid, each task `rd` left and up
//!   and `rd_wr` its own cell;
//! * `bcast` — one writer of one object, then a row of readers, repeated.
//!
//! A shape's tasks go through the runtime as 48 batches of 4096, not as
//! one batch of 200k: a batch this size stays in the core's own cache,
//! and on the reference host the latency of everything beyond it drifts by
//! a third over minutes, which a 200k-task batch (160 MB) follows and a
//! 4096-task batch does not (README, "Measured noise").
//!
//! Bodies do the least that makes the result depend on the order the
//! synchronizer enforces, so that every shape is checked against a serial
//! model.

use crate::harness::{self, Budget, RunArgs};
use crate::layers;
use crate::metrics::{Report, FINE_SHAPES};
use crate::spans::{timer_ns, BodyAcc, Recorder};
use crate::stats::{median, median_of, pass_percentile};
use crate::{alloc_count, TINY};
use jade::core::{Handle, JadeRuntime, TaskBuilder, TaskDef};
use jade::ThreadRuntime;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const COUNTERS: usize = 16;
const GRID: usize = if TINY { 6 } else { 64 };
/// Tasks in one batch of any shape: one sweep of the grid.
const BATCH_TASKS: usize = GRID * GRID;
const READERS: usize = if TINY { 8 } else { 255 };
/// Batches of each shape in one pass.
const BATCHES: usize = if TINY { 3 } else { 48 };
/// Batches of each shape where the runtime records its own events, which
/// is too slow for all of them.
const RECORDED_BATCHES: usize = if TINY { 1 } else { BATCHES / 8 };

/// One warmed runtime with the three shapes' objects, and the serial model
/// of what they must hold.
struct Fine {
    rt: ThreadRuntime,
    /// Span detail: which of the runtimes this is.
    which: &'static str,
    /// Batches of each shape in one pass.
    batches: usize,
    counters: Vec<Handle<u64>>,
    grid: Vec<Handle<u64>>,
    cast: Handle<u64>,
    /// Sum of the values the `bcast` readers saw.
    seen: Arc<AtomicU64>,
    model_counters: Vec<u64>,
    model_grid: Vec<u64>,
    model_cast: u64,
    model_seen: u64,
}

/// One shape's batches of one pass, summed.
struct ShapeRun {
    tasks: usize,
    submit_s: f64,
    finish_s: f64,
    /// Each batch's milliseconds: the pass's "task graph latencies".
    batch_ms: Vec<f64>,
    check: Result<(), String>,
}

impl ShapeRun {
    fn secs(&self) -> f64 {
        self.submit_s + self.finish_s
    }
}

type Pass = [ShapeRun; 3];

fn pass_secs(p: &Pass) -> f64 {
    p.iter().map(ShapeRun::secs).sum()
}

fn batch_ms(p: &Pass) -> Vec<f64> {
    p.iter().flat_map(|s| s.batch_ms.iter().copied()).collect()
}

fn pass_tasks(p: &Pass) -> usize {
    p.iter().map(|s| s.tasks).sum()
}

impl Fine {
    fn new(workers: usize, which: &'static str, batches: usize) -> Fine {
        let mut rt = ThreadRuntime::new(workers);
        let counters = (0..COUNTERS)
            .map(|i| rt.create(&format!("c{i}"), 8, 0u64))
            .collect();
        let grid = (0..GRID * GRID)
            .map(|i| rt.create(&format!("g{i}"), 8, 0u64))
            .collect();
        let cast = rt.create("cast", 8, 0u64);
        Fine {
            rt,
            which,
            batches,
            counters,
            grid,
            cast,
            seen: Arc::new(AtomicU64::new(0)),
            model_counters: vec![0; COUNTERS],
            model_grid: vec![0; GRID * GRID],
            model_cast: 0,
            model_seen: 0,
        }
    }

    /// `n` independent-chain tasks, and the model advanced past them.
    fn build_indep(&mut self, n: usize) -> Vec<TaskDef> {
        (0..n)
            .map(|i| {
                let c = self.counters[i % COUNTERS];
                self.model_counters[i % COUNTERS] += 1;
                TaskBuilder::new("inc")
                    .rd_wr(c)
                    .body(move |ctx| *ctx.wr(c) += 1)
            })
            .collect()
    }

    /// One sweep of the grid.
    fn build_wavefront(&mut self) -> Vec<TaskDef> {
        let at = |i: usize, j: usize| i * GRID + j;
        let mut defs = Vec::with_capacity(BATCH_TASKS);
        for i in 0..GRID {
            for j in 0..GRID {
                let me = self.grid[at(i, j)];
                let left = (j > 0).then(|| self.grid[at(i, j - 1)]);
                let up = (i > 0).then(|| self.grid[at(i - 1, j)]);
                let m = &mut self.model_grid;
                let l = if j > 0 { m[at(i, j - 1)] } else { 0 };
                let u = if i > 0 { m[at(i - 1, j)] } else { 0 };
                m[at(i, j)] = l.max(u).max(m[at(i, j)]) + 1;
                let mut b = TaskBuilder::new("cell");
                for h in left.iter().chain(&up) {
                    b = b.rd(*h);
                }
                defs.push(b.rd_wr(me).body(move |ctx| {
                    let l = left.map_or(0, |h| *ctx.rd(h));
                    let u = up.map_or(0, |h| *ctx.rd(h));
                    let mut v = ctx.wr(me);
                    *v = l.max(u).max(*v) + 1;
                }));
            }
        }
        defs
    }

    fn build_bcast(&mut self) -> Vec<TaskDef> {
        let cast = self.cast;
        let mut defs = Vec::with_capacity(BATCH_TASKS);
        for _ in 0..BATCH_TASKS / (READERS + 1) {
            self.model_cast += 1;
            self.model_seen += READERS as u64 * self.model_cast;
            defs.push(
                TaskBuilder::new("write")
                    .rd_wr(cast)
                    .body(move |ctx| *ctx.wr(cast) += 1),
            );
            for _ in 0..READERS {
                let seen = Arc::clone(&self.seen);
                defs.push(TaskBuilder::new("read").rd(cast).body(move |ctx| {
                    // `Relaxed`: a checksum, read after `finish` has joined.
                    seen.fetch_add(*ctx.rd(cast), Ordering::Relaxed);
                }));
            }
        }
        defs
    }

    /// One batch of `shape` in program order, the model advanced past it.
    fn build(&mut self, shape: usize) -> Vec<TaskDef> {
        match shape {
            0 => self.build_indep(BATCH_TASKS),
            1 => self.build_wavefront(),
            _ => self.build_bcast(),
        }
    }

    /// Did the last batch run all its `tasks`?
    fn check_executed(&self, shape: usize, tasks: usize) -> Result<(), String> {
        let executed = self.rt.last_stats().executed;
        if executed == tasks {
            Ok(())
        } else {
            let name = FINE_SHAPES[shape];
            Err(format!("{name}: executed {executed} of {tasks} tasks"))
        }
    }

    /// Do the objects hold what the serial model holds?
    fn check(&self, shape: usize) -> Result<(), String> {
        let name = FINE_SHAPES[shape];
        let store = self.rt.store();
        let holds = |hs: &[Handle<u64>], model: &[u64]| {
            hs.iter().zip(model).all(|(&h, &m)| *store.read(h) == m)
        };
        let same = match shape {
            0 => holds(&self.counters, &self.model_counters),
            1 => holds(&self.grid, &self.model_grid),
            _ => {
                *store.read(self.cast) == self.model_cast
                    && self.seen.load(Ordering::Relaxed) == self.model_seen
            }
        };
        if same {
            Ok(())
        } else {
            Err(format!("{name}: objects differ from the serial model"))
        }
    }

    /// Time the `submit` calls and `finish` of prebuilt tasks.
    fn submit_finish(
        &mut self,
        defs: Vec<TaskDef>,
        detail: &str,
        rec: &mut Recorder,
    ) -> (f64, f64) {
        let rt = &mut self.rt;
        let ((), submit_s) = rec.time("threads.submit", detail, || {
            for def in defs {
                rt.submit(def);
            }
        });
        let ((), finish_s) = rec.time("threads.finish", detail, || rt.finish());
        (submit_s, finish_s)
    }

    /// One shape's batches: build each (untimed), run it (timed); then
    /// check the objects. `bodies` re-boxes every body to sum its time: the
    /// traced pass.
    fn shape(
        &mut self,
        shape: usize,
        bodies: Option<&Arc<BodyAcc>>,
        rec: &mut Recorder,
    ) -> ShapeRun {
        let mut run = ShapeRun {
            tasks: 0,
            submit_s: 0.0,
            finish_s: 0.0,
            batch_ms: Vec::with_capacity(self.batches),
            check: Ok(()),
        };
        let open = rec.begin("shape", FINE_SHAPES[shape]);
        for _ in 0..self.batches {
            let mut defs = self.build(shape);
            if let Some(acc) = bodies {
                defs.iter_mut().for_each(|def| acc.wrap(def));
            }
            let tasks = defs.len();
            let (submit_s, finish_s) = self.submit_finish(defs, self.which, rec);
            run.tasks += tasks;
            run.submit_s += submit_s;
            run.finish_s += finish_s;
            run.batch_ms.push((submit_s + finish_s) * 1e3);
            run.check = run.check.and(self.check_executed(shape, tasks));
        }
        rec.end(open);
        run.check = run.check.and(self.check(shape));
        run
    }

    /// One pass: the three shapes.
    fn pass(
        &mut self,
        bodies: Option<&Arc<BodyAcc>>,
        rec: &mut Recorder,
        report: &mut Report,
    ) -> Pass {
        let pass = [0, 1, 2].map(|shape| self.shape(shape, bodies, rec));
        for s in &pass {
            report.attempt(s.check.clone());
        }
        pass
    }
}

/// Both runtimes, each after one cold pass.
fn set_up(rec: &mut Recorder, report: &mut Report) -> (Fine, Fine) {
    let mut many = Fine::new(harness::workers(), "W", BATCHES);
    let mut one = Fine::new(1, "1w", BATCHES);
    many.pass(None, rec, report);
    one.pass(None, rec, report);
    (many, one)
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &RunArgs) -> Report {
    let _pinned = harness::OneCore::pin();
    let mut report = Report::new(false);
    let rec = &mut Recorder::disabled();
    let ((mut many, mut one), setup_s) = harness::set_up(|| set_up(rec, &mut report));
    let budget = Budget::new(args.seconds);
    let (mut wall, mut wall_1w, mut batch_ms) = (Vec::new(), Vec::new(), Vec::new());
    while budget.more(wall.len()) {
        let p = many.pass(None, rec, &mut report);
        wall.push(pass_secs(&p));
        batch_ms.push(self::batch_ms(&p));
        wall_1w.push(pass_secs(&one.pass(None, rec, &mut report)));
    }
    report.set_median("setup_s", &setup_s);
    report.set_fastest("wall_s", &wall);
    report.set_fastest("wall_1w_s", &wall_1w);
    report.set("dag_p50_ms", pass_percentile(&batch_ms, 50.0));
    report.set("peak_rss_mb", harness::peak_rss_mb());
    report
}

/// The traced run: per-layer metrics.
pub fn run_traced(args: &RunArgs, rec: &mut Recorder) -> Report {
    let pinned = harness::OneCore::pin();
    let mut report = Report::new(true);
    let workers = harness::workers();
    let (mut many, mut one) = set_up(rec, &mut report);
    let timer = timer_ns();
    let stats0 = many.rt.total_stats();

    // Untraced and traced passes, alternating, for half the time. The
    // traced pass runs on the one-worker runtime: with the core to itself
    // a body's wall time is its processor time.
    let budget = Budget::new(args.seconds * 0.5);
    let bodies = BodyAcc::new();
    let (mut plain, mut plain_1w, mut traced): (Vec<Pass>, Vec<Pass>, Vec<Pass>) =
        Default::default();
    while budget.more(plain.len()) {
        rec.pass += 1;
        let open = rec.begin("pass.untraced", "");
        plain.push(many.pass(None, rec, &mut report));
        plain_1w.push(one.pass(None, rec, &mut report));
        rec.end(open);
        let open = rec.begin("pass.traced", "");
        traced.push(one.pass(Some(&bodies), rec, &mut report));
        rec.end(open);
    }
    let stats1 = many.rt.total_stats();
    let tasks = pass_tasks(&plain[0]) as f64;
    let wall = median_of(&plain, pass_secs);
    let wall_1w = median_of(&plain_1w, pass_secs);
    for (shape, name) in FINE_SHAPES.iter().enumerate() {
        let ns = |p: &Pass| p[shape].secs() * 1e9 / p[shape].tasks as f64;
        report.set(
            &format!("threads.ns_per_task.{name}"),
            median_of(&plain, ns),
        );
        report.set(
            &format!("threads.ns_per_task_1w.{name}"),
            median_of(&plain_1w, ns),
        );
    }
    let batch_ms: Vec<Vec<f64>> = plain.iter().map(batch_ms).collect();
    report.set("dag_p99_ms", pass_percentile(&batch_ms, 99.0));
    report.set("threads.tasks", tasks);
    report.set("threads.tasks_per_s", tasks / wall);
    report.set("threads.tasks_per_s_1w", tasks / wall_1w);
    let sum = |f: fn(&ShapeRun) -> f64| move |p: &Pass| p.iter().map(f).sum::<f64>();
    report.set("threads.submit_s", median_of(&plain, sum(|b| b.submit_s)));
    report.set("threads.finish_s", median_of(&plain, sum(|b| b.finish_s)));
    report.set(
        "trace_overhead_frac",
        median_of(&traced, pass_secs) / wall_1w - 1.0,
    );
    let (calls, body_s) = bodies.totals(timer);
    let body_s = body_s / traced.len() as f64;
    assert_eq!(
        calls as usize,
        traced.len() * tasks as usize,
        "every body timed once"
    );
    let worker_s = median_of(&traced, sum(|b| b.finish_s));
    report.set(
        "threads.overhead_ns_per_task",
        (worker_s - body_s) * 1e9 / tasks,
    );
    report.set("threads.body_frac", body_s / worker_s);
    let executed = (stats1.executed - stats0.executed) as f64;
    report.set(
        "threads.locks_per_task",
        (stats1.sync_locks - stats0.sync_locks) as f64 / executed,
    );
    report.set(
        "threads.steal_frac",
        (stats1.steals - stats0.steals) as f64 / executed,
    );
    report.set(
        "threads.locality_frac",
        (stats1.locality_hits - stats0.locality_hits) as f64 / executed,
    );

    // One task per batch: what a batch costs before any task does.
    let fixed: Vec<f64> = (0..if TINY { 5 } else { 200 })
        .map(|_| {
            let defs = many.build_indep(1);
            let (s, f) = many.submit_finish(defs, "1 task", &mut Recorder::disabled());
            (s + f) * 1e6
        })
        .collect();
    report.set("threads.batch_fixed_us", median(&fixed));

    // Allocations per task inside `finish`, as the difference between a
    // 2N-task and an N-task batch so that per-batch allocations cancel.
    let n = if TINY { 160 } else { 4_000 };
    let mut finish_allocs = |n: usize| {
        for def in many.build_indep(n) {
            many.rt.submit(def);
        }
        alloc_count::during(|| many.rt.finish())
    };
    finish_allocs(2 * n);
    let (a1, a2) = (finish_allocs(n), finish_allocs(2 * n));
    report.set(
        "threads.allocs_per_task",
        a2.saturating_sub(a1) as f64 / n as f64,
    );
    report.attempt(many.check_executed(0, 2 * n).and(many.check(0)));

    // The runtime's own event recording, on a fresh runtime so that task
    // ids start at 0 as the lifecycle checker expects, on an eighth of the
    // batches; compared with the same short first pass, unrecorded.
    let cold =
        pass_secs(&Fine::new(workers, "cold", RECORDED_BATCHES).pass(None, rec, &mut report));
    let mut recording = Fine::new(workers, "events", RECORDED_BATCHES);
    recording.rt.enable_events();
    rec.pass += 1;
    let open = rec.begin("pass.events", "");
    let events_pass = recording.pass(None, rec, &mut report);
    rec.end(open);
    let events = recording.rt.take_events();
    report.set(
        "core.events.per_task",
        events.len() as f64 / pass_tasks(&events_pass) as f64,
    );
    report.set(
        "core.events.sink_overhead_frac",
        pass_secs(&events_pass) / cold - 1.0,
    );
    let (costs, _) = rec.time("core.events.check", "", || {
        layers::event_costs(&events, workers, false)
    });
    report.stream_checked(costs.checked);
    report.set("core.events.metrics_ns_per_event", costs.metrics_ns);
    report.set("core.events.check_ns_per_event", costs.check_ns);
    drop((events, recording));

    // A bare synchronizer over one pass's batches' specifications.
    let mut scratch = Fine::new(1, "", BATCHES);
    let mut sync = layers::SyncReplay::default();
    for (shape, name) in FINE_SHAPES.iter().enumerate() {
        let open = rec.begin("core.sync.replay", name);
        for _ in 0..BATCHES {
            let defs = scratch.build(shape);
            sync.replay(defs.iter().map(|d| &d.spec));
        }
        rec.end(open);
    }
    sync.report(&mut report);
    let (rd, wr) = layers::store_guard_ns();
    report.set("core.store.rd_ns", rd);
    report.set("core.store.wr_ns", wr);

    // Off the one core: what `W` workers on `W` cores gain over one.
    drop(pinned);
    let open = rec.begin("pass.unpinned", "");
    let (mut free, mut free_1w) = (Vec::new(), Vec::new());
    for _ in 0..harness::MIN_PASSES {
        free.push(pass_secs(&many.pass(None, rec, &mut report)));
        free_1w.push(pass_secs(&one.pass(None, rec, &mut report)));
    }
    rec.end(open);
    report.set("threads.par_speedup", median(&free_1w) / median(&free));
    report
}
