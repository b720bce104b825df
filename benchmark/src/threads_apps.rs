//! `threads-apps`: all six applications on `ThreadRuntime`, 8-way
//! decomposed whatever the worker count, at `W` workers, at one worker and
//! serially on `TraceRuntime`. Task bodies (`jade-apps`) and store guards
//! should take nearly all the worker time and the executor very little:
//! the workload a scheduler change should not move, and the one that
//! shows body, store and submit-side costs, scaling, and the gap to the
//! plain serial run.

use crate::apps::{App, Config, Output};
use crate::harness::{self, Budget, RunArgs};
use crate::layers;
use crate::metrics::Report;
use crate::spans::{timer_ns, BodyAcc, Recorder, Spanned};
use crate::stats::{median, median_of, pass_percentile};
use jade::core::{Event, Trace};
use jade::threads::BatchStats;
use jade::ThreadRuntime;
use std::sync::Arc;

/// The six configurations and what each must produce.
struct Suite {
    apps: Vec<(App, Config)>,
    /// Results of the serial run on `TraceRuntime`.
    reference: Vec<Output>,
    traces: Vec<Trace>,
}

/// What one application run measured.
struct AppRun {
    secs: f64,
    stats: BatchStats,
    /// Seconds inside `submit` and inside `finish` (traced runs only).
    submit_s: f64,
    finish_s: f64,
    events: Vec<Event>,
}

#[derive(Clone, Copy)]
enum Mode<'a> {
    Plain,
    /// Through `Spanned`: every body, `submit` and `finish` timed, bodies
    /// summed into the accumulator, less the timer's own cost per call.
    Spanned(&'a Arc<BodyAcc>, f64),
    /// With the runtime's own event recording on.
    Events,
}

/// Compare an application's result with the serial reference, bit for bit.
pub fn check_output(app: App, got: &Output, want: &Output) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{}: {got:?} differs from serial {want:?}",
            app.key()
        ))
    }
}

impl Suite {
    fn new(seed: u64) -> Suite {
        let apps: Vec<_> = App::ALL
            .iter()
            .map(|&a| (a, a.thread_config(seed)))
            .collect();
        let (traces, reference) = apps.iter().map(|(_, cfg)| cfg.trace()).unzip();
        Suite {
            apps,
            reference,
            traces,
        }
    }

    fn tasks(&self) -> usize {
        self.traces.iter().map(Trace::task_count).sum()
    }

    /// Run every application on a fresh `ThreadRuntime::new(workers)`,
    /// checking each result.
    fn pass(
        &self,
        workers: usize,
        mode: Mode<'_>,
        rec: &mut Recorder,
        report: &mut Report,
    ) -> Vec<AppRun> {
        let which = if workers == 1 { "1w" } else { "W" };
        let mut runs = Vec::with_capacity(self.apps.len());
        for (i, (app, cfg)) in self.apps.iter().enumerate() {
            let open = rec.begin("apps.run", &format!("{} {which}", app.key()));
            let mut rt = ThreadRuntime::new(workers);
            if matches!(mode, Mode::Events) {
                rt.enable_events();
            }
            let (out, submit_s, finish_s) = if let Mode::Spanned(bodies, timer) = mode {
                let mut sp = Spanned::new(&mut rt, rec, bodies);
                let out = cfg.run_on(&mut sp);
                (out, sp.submit_s(timer), sp.finish_s)
            } else {
                (cfg.run_on(&mut rt), 0.0, 0.0)
            };
            let secs = rec.end(open);
            report.attempt(check_output(*app, &out, &self.reference[i]));
            runs.push(AppRun {
                secs,
                stats: rt.total_stats(),
                submit_s,
                finish_s,
                events: rt.take_events(),
            });
        }
        runs
    }

    /// Run every application serially on `TraceRuntime`.
    fn serial_pass(&self, rec: &mut Recorder, report: &mut Report) -> Vec<f64> {
        let mut secs = Vec::with_capacity(self.apps.len());
        for (i, (app, cfg)) in self.apps.iter().enumerate() {
            let ((_, out), s) = rec.time("apps.serial", app.key(), || cfg.trace());
            report.attempt(check_output(*app, &out, &self.reference[i]));
            secs.push(s);
        }
        secs
    }
}

/// Each application run's milliseconds: the pass's "task graph latencies".
fn app_ms(runs: &[AppRun]) -> Vec<f64> {
    runs.iter().map(|r| r.secs * 1e3).collect()
}

fn total(runs: &[AppRun]) -> f64 {
    runs.iter().map(|r| r.secs).sum()
}

/// The serial reference, then one cold pass. Every application run builds
/// its own runtime, so one pass warms all there is to warm: the process.
fn set_up(seed: u64, rec: &mut Recorder, report: &mut Report) -> Suite {
    let suite = Suite::new(seed);
    suite.pass(harness::workers(), Mode::Plain, rec, report);
    suite
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &RunArgs) -> Report {
    let _pinned = harness::OneCore::pin();
    let mut report = Report::new(false);
    let rec = &mut Recorder::disabled();
    let (suite, setup_s) = harness::set_up(|| set_up(args.seed, rec, &mut report));
    let budget = Budget::new(args.seconds);
    let (mut wall, mut wall_1w, mut app_ms) = (Vec::new(), Vec::new(), Vec::new());
    while budget.more(wall.len()) {
        let runs = suite.pass(harness::workers(), Mode::Plain, rec, &mut report);
        wall.push(total(&runs));
        app_ms.push(self::app_ms(&runs));
        wall_1w.push(total(&suite.pass(1, Mode::Plain, rec, &mut report)));
    }
    report.set_median("setup_s", &setup_s);
    report.set_fastest("wall_s", &wall);
    report.set_fastest("wall_1w_s", &wall_1w);
    report.set("dag_p50_ms", pass_percentile(&app_ms, 50.0));
    report.set("peak_rss_mb", harness::peak_rss_mb());
    report
}

/// The traced run: per-layer metrics.
pub fn run_traced(args: &RunArgs, rec: &mut Recorder) -> Report {
    let pinned = harness::OneCore::pin();
    let mut report = Report::new(true);
    let workers = harness::workers();
    let suite = set_up(args.seed, rec, &mut report);
    let timer = timer_ns();
    let bodies = BodyAcc::new();
    let tasks = suite.tasks() as f64;

    // Untraced passes (W, one worker, serial) and the traced pass,
    // alternating. The traced pass runs with one worker: with the core to
    // itself a body's wall time is its processor time.
    let budget = Budget::new(args.seconds * 0.7);
    let (mut plain, mut plain_1w, mut serial, mut traced) = (vec![], vec![], vec![], vec![]);
    while budget.more(plain.len()) {
        rec.pass += 1;
        let open = rec.begin("pass.untraced", "");
        plain.push(suite.pass(workers, Mode::Plain, rec, &mut report));
        plain_1w.push(suite.pass(1, Mode::Plain, rec, &mut report));
        serial.push(suite.serial_pass(rec, &mut report));
        rec.end(open);
        let open = rec.begin("pass.traced", "");
        traced.push(suite.pass(1, Mode::Spanned(&bodies, timer), rec, &mut report));
        rec.end(open);
    }
    let wall = median_of(&plain, |p| total(p));
    let wall_1w = median_of(&plain_1w, |p| total(p));
    let serial_s = median_of(&serial, |s| s.iter().sum());
    for (i, (app, _)) in suite.apps.iter().enumerate() {
        report.set(
            &format!("apps.wall_s.{}", app.key()),
            median_of(&plain, |p| p[i].secs),
        );
        report.set(
            &format!("apps.serial_s.{}", app.key()),
            median_of(&serial, |s| s[i]),
        );
    }
    let app_ms: Vec<Vec<f64>> = plain.iter().map(|p| app_ms(p)).collect();
    report.set("dag_p99_ms", pass_percentile(&app_ms, 99.0));
    report.set("apps.tasks", tasks);
    report.set("apps.speedup_vs_serial", serial_s / wall);
    report.set("threads.tasks", tasks);
    report.set("threads.tasks_per_s", tasks / wall);
    report.set("threads.tasks_per_s_1w", tasks / wall_1w);
    report.set(
        "trace_overhead_frac",
        median_of(&traced, |p| total(p)) / wall - 1.0,
    );

    let (calls, body_s) = bodies.totals(timer);
    let body_s = body_s / traced.len() as f64;
    assert_eq!(
        calls as usize,
        traced.len() * tasks as usize,
        "every body timed once"
    );
    let submit_s = median_of(&traced, |p| p.iter().map(|r| r.submit_s).sum());
    let finish_s = median_of(&traced, |p| p.iter().map(|r| r.finish_s).sum());
    let overhead_ns = (finish_s - body_s) * 1e9 / tasks;
    report.set("apps.body_s", body_s);
    report.set("threads.submit_s", submit_s);
    report.set("threads.finish_s", finish_s);
    report.set("threads.overhead_ns_per_task", overhead_ns);
    report.set("threads.body_frac", body_s / finish_s);
    let stat = |f: fn(&BatchStats) -> usize| -> f64 {
        plain.iter().flatten().map(|r| f(&r.stats) as f64).sum()
    };
    let executed = stat(|s| s.executed);
    report.set("threads.locks_per_task", stat(|s| s.sync_locks) / executed);
    report.set("threads.steal_frac", stat(|s| s.steals) / executed);
    report.set(
        "threads.locality_frac",
        stat(|s| s.locality_hits) / executed,
    );

    // The prediction this workload exists to test.
    let share = overhead_ns * 1e-9 * tasks / wall_1w;
    println!(
        "prediction: executor under 5% of worker time on threads-apps: {:.2}% -> {}",
        share * 100.0,
        if share < 0.05 { "held" } else { "VIOLATED" }
    );
    println!(
        "reconcile: traced submit_s + finish_s = {:.4} s, untraced wall_1w_s = {wall_1w:.4} s",
        submit_s + finish_s
    );

    // The same pass with the runtime's own event recording on.
    rec.pass += 1;
    let open = rec.begin("pass.events", "");
    let with_events = suite.pass(workers, Mode::Events, rec, &mut report);
    rec.end(open);
    let n_events: usize = with_events.iter().map(|r| r.events.len()).sum();
    report.set("core.events.per_task", n_events as f64 / tasks);
    report.set(
        "core.events.sink_overhead_frac",
        total(&with_events) / wall - 1.0,
    );
    let (mut metrics_s, mut check_s) = (0.0, 0.0);
    for (r, (app, _)) in with_events.iter().zip(&suite.apps) {
        let (c, _) = rec.time("core.events.check", app.key(), || {
            layers::event_costs(&r.events, workers, false)
        });
        metrics_s += c.metrics_ns * r.events.len() as f64;
        check_s += c.check_ns * r.events.len() as f64;
        report.stream_checked(c.checked.map_err(|e| format!("{}: {e}", app.key())));
    }
    report.set(
        "core.events.metrics_ns_per_event",
        metrics_s / n_events as f64,
    );
    report.set("core.events.check_ns_per_event", check_s / n_events as f64);

    // A bare synchronizer over the six programs' specifications.
    let mut sync = layers::SyncReplay::default();
    for ((app, _), t) in suite.apps.iter().zip(&suite.traces) {
        rec.time("core.sync.replay", app.key(), || {
            sync.replay(t.tasks.iter().map(|t| &t.spec))
        });
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
        free.push(total(&suite.pass(workers, Mode::Plain, rec, &mut report)));
        free_1w.push(total(&suite.pass(1, Mode::Plain, rec, &mut report)));
    }
    rec.end(open);
    let speedup = median(&free_1w) / median(&free);
    report.set("apps.par_speedup", speedup);
    report.set("threads.par_speedup", speedup);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_application_output_counts_as_failed() {
        let mut suite = Suite::new(1995);
        let mut report = Report::new(false);
        let rec = &mut Recorder::disabled();
        suite.pass(2, Mode::Plain, rec, &mut report);
        assert_eq!((report.attempted, report.failed), (6, 0));
        // Flip the last bit of one reference value: every later Water run
        // now differs from it.
        let Output::Water(w) = &mut suite.reference[0] else {
            panic!("water comes first")
        };
        w.potential = f64::from_bits(w.potential.to_bits() ^ 1);
        suite.pass(2, Mode::Plain, rec, &mut report);
        assert_eq!((report.attempted, report.failed), (12, 1));
        assert!(report.failures[0].starts_with("water"));
    }
}
