//! The three simulator workloads. Each replays the six applications'
//! traces, generated once in set-up for 8 and for 32 processors, on one
//! host thread:
//!
//! * `sim-dash` — `jade_dash::try_run`, with and without the locality
//!   heuristic: the cheapest simulator, where `dsim::Calendar`, the
//!   `Synchronizer` and `MemSim` hold the largest share;
//! * `sim-ipsc-demand` — `jade_ipsc::try_run` as `IpscConfig::paper` ships:
//!   replication, concurrent demand fetch, adaptive broadcast. No prefetch,
//!   aggregation or retry code runs;
//! * `sim-ipsc-managed` — the same cells with fetch aggregation, prefetch,
//!   two tasks per processor, tuning, and a seeded fault plan (message
//!   drops, checkpoints, and one fail-stop on the 8-processor cells): the
//!   other three fetch paths and the recovery code.
//!
//! Host seconds are measured; simulated seconds and every count are the
//! model's answer and repeat exactly.

use crate::apps::App;
use crate::harness::{self, Budget, RunArgs};
use crate::layers;
use crate::metrics::Report;
use crate::spans::Recorder;
use crate::stats::{geomean, median_of, pass_percentile};
use jade::core::{Event, LocalityMode, Trace};
use jade::dash::{DashConfig, DashRunResult};
use jade::dsim::{FaultPlan, SimDuration};
use jade::ipsc::{IpscConfig, IpscRunResult};

const PROCS: [usize; 2] = [8, 32];
/// The processor that fail-stops on the 8-processor managed cells.
const FAIL_PROC: usize = 3;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Dash,
    IpscDemand,
    IpscManaged,
}

enum Cfg {
    Dash(Box<DashConfig>),
    Ipsc(Box<IpscConfig>),
}

enum SimResult {
    Dash(DashRunResult),
    Ipsc(Box<IpscRunResult>),
}

impl SimResult {
    fn exec_time_s(&self) -> f64 {
        match self {
            SimResult::Dash(r) => r.exec_time_s,
            SimResult::Ipsc(r) => r.exec_time_s,
        }
    }

    fn tasks_executed(&self) -> usize {
        match self {
            SimResult::Dash(r) => r.tasks_executed,
            SimResult::Ipsc(r) => r.tasks_executed,
        }
    }

    /// Every field, floats to the last bit: equal strings, identical runs.
    fn fingerprint(&self) -> String {
        match self {
            SimResult::Dash(r) => format!("{r:?}"),
            SimResult::Ipsc(r) => format!("{r:?}"),
        }
    }
}

/// One application trace on one machine configuration.
struct Cell {
    app: App,
    procs: usize,
    /// Index into `Sims::traces`.
    trace: usize,
    label: String,
    cfg: Cfg,
    /// The first run's fingerprint; every later run must equal it.
    reference: String,
    /// `final_versions` of the fault-free run (managed cells).
    clean_versions: Option<Vec<u64>>,
}

struct Sims {
    kind: Kind,
    traces: Vec<Trace>,
    cells: Vec<Cell>,
}

/// One simulated cell's measurements.
struct CellRun {
    secs: f64,
    result: Option<SimResult>,
    events: usize,
    /// Per-event cost of `Metrics::from_events` and of the checkers.
    event_ns: (f64, f64),
}

fn run_sim(trace: &Trace, cfg: &Cfg, traced: bool) -> Result<(SimResult, Vec<Event>), String> {
    match (cfg, traced) {
        (Cfg::Dash(c), false) => jade::dash::try_run(trace, c)
            .map(|r| (SimResult::Dash(r), Vec::new()))
            .map_err(|e| e.to_string()),
        (Cfg::Dash(c), true) => jade::dash::try_run_traced(trace, c)
            .map(|(r, ev)| (SimResult::Dash(r), ev))
            .map_err(|e| e.to_string()),
        (Cfg::Ipsc(c), false) => jade::ipsc::try_run(trace, c)
            .map(|r| (SimResult::Ipsc(Box::new(r)), Vec::new()))
            .map_err(|e| e.to_string()),
        (Cfg::Ipsc(c), true) => jade::ipsc::try_run_traced(trace, c)
            .map(|(r, ev)| (SimResult::Ipsc(Box::new(r)), ev))
            .map_err(|e| e.to_string()),
    }
}

impl Sims {
    /// Set-up: generate the twelve traces and build every cell's
    /// configuration the way a user would.
    fn new(kind: Kind, seed: u64) -> Sims {
        let mut sims = Sims {
            kind,
            traces: Vec::new(),
            cells: Vec::new(),
        };
        for procs in PROCS {
            for app in App::ALL {
                let (trace, _) = app.sim_config(procs, seed).trace();
                let modes: &[LocalityMode] = match kind {
                    Kind::Dash => &[LocalityMode::Locality, LocalityMode::NoLocality],
                    _ => &[LocalityMode::Locality],
                };
                for &mode in modes {
                    let mut label = format!("{} p{procs}", app.key());
                    let cfg = if kind == Kind::Dash {
                        label.push_str(if mode == LocalityMode::Locality {
                            " loc"
                        } else {
                            " noloc"
                        });
                        Cfg::Dash(Box::new(DashConfig::paper(
                            procs,
                            mode,
                            app.dash_sec_per_op(&trace),
                        )))
                    } else {
                        let mut cfg = IpscConfig::paper(procs, mode, app.ipsc_sec_per_op(&trace));
                        if kind == Kind::IpscManaged {
                            cfg.aggregate_fetches = true;
                            cfg.prefetch = true;
                            cfg.target_tasks = 2;
                            cfg.tune = true;
                        }
                        Cfg::Ipsc(Box::new(cfg))
                    };
                    sims.cells.push(Cell {
                        app,
                        procs,
                        trace: sims.traces.len(),
                        label,
                        cfg,
                        reference: String::new(),
                        clean_versions: None,
                    });
                }
                sims.traces.push(trace);
            }
        }
        sims
    }

    /// Before the timed passes: give each managed cell its fault plan,
    /// scaled to the makespan of its own fault-free run, then run every
    /// cell once for the reference its later runs must equal.
    fn prepare(&mut self, seed: u64, report: &mut Report) {
        for cell in &mut self.cells {
            let trace = &self.traces[cell.trace];
            if let (Kind::IpscManaged, Cfg::Ipsc(cfg)) = (self.kind, &mut cell.cfg) {
                match jade::ipsc::try_run(trace, cfg) {
                    Ok(clean) => {
                        let at = |share| SimDuration::from_secs_f64(clean.exec_time_s * share);
                        cfg.faults = FaultPlan {
                            drop_p: 0.02,
                            seed,
                            checkpoint: Some(at(0.125)),
                            ..FaultPlan::none()
                        };
                        if cell.procs == 8 {
                            cfg.faults.fail_proc = Some(FAIL_PROC);
                            cfg.faults.fail_at = at(0.4);
                        }
                        cell.clean_versions = Some(clean.final_versions);
                    }
                    Err(e) => report.attempt(Err(format!("{} fault-free: {e}", cell.label))),
                }
            }
            match run_sim(trace, &cell.cfg, false) {
                Ok((r, _)) => cell.reference = r.fingerprint(),
                Err(e) => report.attempt(Err(format!("{}: {e}", cell.label))),
            }
        }
    }

    /// Is this run of `cell` what it must be?
    fn check(&self, cell: &Cell, r: &SimResult) -> Result<(), String> {
        // A task rewound by a fail-stop may have started before it.
        let again = match r {
            SimResult::Ipsc(r) => r.tasks_reexecuted as usize,
            SimResult::Dash(_) => 0,
        };
        let want = self.traces[cell.trace].task_count();
        if !(want..=want + again).contains(&r.tasks_executed()) {
            return Err(format!(
                "{}: ran {} of {want} tasks",
                cell.label,
                r.tasks_executed()
            ));
        }
        if r.fingerprint() != cell.reference {
            return Err(format!("{}: two runs of one cell differ", cell.label));
        }
        if let SimResult::Ipsc(r) = r {
            if let Some(clean) = &cell.clean_versions {
                if &r.final_versions != clean {
                    return Err(format!(
                        "{}: final versions differ from the fault-free run",
                        cell.label
                    ));
                }
            }
            let managed_path = [
                r.prefetches_issued,
                r.agg_objects,
                r.msgs_dropped,
                r.msgs_retried,
                r.tasks_reexecuted,
                r.checkpoints,
            ];
            if self.kind == Kind::IpscDemand && managed_path != [0; 6] {
                return Err(format!(
                    "{}: managed-path counters {managed_path:?} on the demand path",
                    cell.label
                ));
            }
        }
        Ok(())
    }

    /// Simulate every cell once, checking each result; a traced pass also
    /// takes the event stream and runs the structural checkers over it.
    fn pass(&self, traced: bool, rec: &mut Recorder, report: &mut Report) -> Vec<CellRun> {
        let name = if self.kind == Kind::Dash {
            "dash.run"
        } else {
            "ipsc.try_run"
        };
        let mut runs = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            let trace = &self.traces[cell.trace];
            let (r, secs) = rec.time(name, &cell.label, || run_sim(trace, &cell.cfg, traced));
            let mut run = CellRun {
                secs,
                result: None,
                events: 0,
                event_ns: (0.0, 0.0),
            };
            match r {
                Ok((r, events)) => {
                    report.attempt(self.check(cell, &r));
                    if traced {
                        let (c, _) = rec.time("core.events.check", &cell.label, || {
                            layers::event_costs(&events, cell.procs, true)
                        });
                        report
                            .stream_checked(c.checked.map_err(|e| format!("{}: {e}", cell.label)));
                        run.events = events.len();
                        run.event_ns = (c.metrics_ns, c.check_ns);
                    }
                    run.result = Some(r);
                }
                Err(e) => report.attempt(Err(format!("{}: {e}", cell.label))),
            }
            runs.push(run);
        }
        runs
    }
}

fn kind_of(workload: &str) -> Kind {
    match workload {
        "sim-dash" => Kind::Dash,
        "sim-ipsc-demand" => Kind::IpscDemand,
        _ => Kind::IpscManaged,
    }
}

/// Each cell's milliseconds: the pass's "task graph latencies".
fn cell_ms(runs: &[CellRun]) -> Vec<f64> {
    runs.iter().map(|r| r.secs * 1e3).collect()
}

fn total(runs: &[CellRun]) -> f64 {
    runs.iter().map(|r| r.secs).sum()
}

/// The untraced run: end-to-end metrics.
pub fn run(workload: &str, args: &RunArgs) -> Report {
    let mut report = Report::new(false);
    let (mut sims, setup_s) = harness::set_up(|| Sims::new(kind_of(workload), args.seed));
    sims.prepare(args.seed, &mut report);
    let rec = &mut Recorder::disabled();
    let budget = Budget::new(args.seconds);
    let (mut wall, mut cell_ms) = (Vec::new(), Vec::new());
    while budget.more(wall.len()) {
        let runs = sims.pass(false, rec, &mut report);
        wall.push(total(&runs));
        cell_ms.push(self::cell_ms(&runs));
    }
    report.set_median("setup_s", &setup_s);
    report.set_fastest("wall_s", &wall);
    // The simulators run on one host thread whatever they simulate: the
    // one-worker pass is the same pass.
    report.set_fastest("wall_1w_s", &wall);
    report.set("dag_p50_ms", pass_percentile(&cell_ms, 50.0));
    report.set("peak_rss_mb", harness::peak_rss_mb());
    report
}

/// The traced run: per-layer metrics.
pub fn run_traced(workload: &str, args: &RunArgs, rec: &mut Recorder) -> Report {
    let mut report = Report::new(true);
    let mut sims = Sims::new(kind_of(workload), args.seed);
    sims.prepare(args.seed, &mut report);
    let sim = if sims.kind == Kind::Dash {
        "dash"
    } else {
        "ipsc"
    };
    let budget = Budget::new(args.seconds * 0.7);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while budget.more(plain.len()) {
        rec.pass += 1;
        let open = rec.begin("pass.untraced", "");
        plain.push(sims.pass(false, rec, &mut report));
        rec.end(open);
        let open = rec.begin("pass.traced", "");
        traced.push(sims.pass(true, rec, &mut report));
        rec.end(open);
    }
    // Median host seconds of each cell over the untraced passes, and the
    // model's answers, which every pass repeats exactly.
    let secs: Vec<f64> = (0..sims.cells.len())
        .map(|i| median_of(&plain, |p| p[i].secs))
        .collect();
    let last = traced.last().expect("at least one traced pass");
    let tasks = |i: usize| sims.traces[sims.cells[i].trace].task_count() as f64;
    let over = |keep: &dyn Fn(&Cell) -> bool, f: &dyn Fn(usize) -> f64| -> f64 {
        (0..sims.cells.len())
            .filter(|&i| keep(&sims.cells[i]))
            .map(f)
            .sum()
    };
    let all = |_: &Cell| true;
    let wall = median_of(&plain, |p| total(p));
    let cell_ms: Vec<Vec<f64>> = plain.iter().map(|p| cell_ms(p)).collect();
    report.set("dag_p99_ms", pass_percentile(&cell_ms, 99.0));
    let events = |i: usize| last[i].events as f64;
    for app in App::ALL {
        let of_app = |c: &Cell| c.app == app;
        let ns = over(&of_app, &|i| secs[i]) * 1e9 / over(&of_app, &tasks);
        report.set(&format!("{sim}.host_ns_per_task.{}", app.key()), ns);
    }
    report.set(
        &format!("{sim}.host_ns_per_event"),
        over(&all, &|i| secs[i]) * 1e9 / over(&all, &events),
    );
    for p in PROCS {
        let at_p = |c: &Cell| c.procs == p;
        let ns = over(&at_p, &|i| secs[i]) * 1e9 / over(&at_p, &events);
        report.set(&format!("{sim}.host_ns_per_event.p{p}"), ns);
    }
    report.set(&format!("{sim}.events"), over(&all, &events));
    report.set(&format!("{sim}.tasks"), over(&all, &tasks));
    let results: Vec<&SimResult> = last.iter().filter_map(|r| r.result.as_ref()).collect();
    let exec: Vec<f64> = results.iter().map(|r| r.exec_time_s()).collect();
    report.set("sim_exec_geo_s", geomean(&exec));
    report.set(
        "trace_overhead_frac",
        median_of(&traced, |p| total(p)) / wall - 1.0,
    );

    // The model's counts, summed over the cells.
    let mut calendar_events = 0.0;
    let dash = |f: &dyn Fn(&DashRunResult) -> f64| -> f64 {
        results
            .iter()
            .map(|r| {
                if let SimResult::Dash(r) = r {
                    f(r)
                } else {
                    0.0
                }
            })
            .sum()
    };
    let ipsc = |f: &dyn Fn(&IpscRunResult) -> f64| -> f64 {
        results
            .iter()
            .map(|r| {
                if let SimResult::Ipsc(r) = r {
                    f(r)
                } else {
                    0.0
                }
            })
            .sum()
    };
    if sims.kind == Kind::Dash {
        report.set("dash.steals", dash(&|r| r.steals as f64));
        report.set("dash.bytes_moved", dash(&|r| r.bytes_moved as f64));
        report.set(
            "dash.locality_pct",
            dash(&|r| r.locality_pct) / results.len().max(1) as f64,
        );
        // One step of the main thread and one finish per task.
        calendar_events += 2.0 * over(&all, &tasks);
    } else {
        report.set("ipsc.fetches", ipsc(&|r| r.fetches as f64));
        report.set("ipsc.requests", ipsc(&|r| r.requests as f64));
        report.set("ipsc.fetch_messages", ipsc(&|r| r.fetch_messages as f64));
        report.set("ipsc.agg_objects", ipsc(&|r| r.agg_objects as f64));
        report.set("ipsc.broadcasts", ipsc(&|r| r.broadcasts as f64));
        report.set("ipsc.comm_bytes", ipsc(&|r| r.comm_bytes as f64));
        report.set(
            "ipsc.prefetches_issued",
            ipsc(&|r| r.prefetches_issued as f64),
        );
        let issued = ipsc(&|r| r.prefetches_issued as f64);
        report.set(
            "ipsc.prefetch_hit_ratio",
            ipsc(&|r| r.prefetch_hits as f64) / issued.max(1.0),
        );
        report.set("ipsc.prefetch_stale", ipsc(&|r| r.prefetch_stale as f64));
        report.set("ipsc.msgs_dropped", ipsc(&|r| r.msgs_dropped as f64));
        report.set(
            "ipsc.retry_ratio",
            ipsc(&|r| r.msgs_retried as f64) / ipsc(&|r| r.requests as f64).max(1.0),
        );
        report.set(
            "ipsc.tasks_reexecuted",
            ipsc(&|r| r.tasks_reexecuted as f64),
        );
        report.set("ipsc.checkpoints", ipsc(&|r| r.checkpoints as f64));
        report.set(
            "ipsc.checkpoint_bytes",
            ipsc(&|r| r.checkpoint_bytes as f64),
        );
        // Per task: main step, assignment, finish, notify; per fetch: the
        // request and the reply; per broadcast: one arrival per receiver.
        calendar_events += 4.0 * over(&all, &tasks)
            + ipsc(&|r| (r.requests + r.fetch_messages) as f64)
            + ipsc(&|r| (r.broadcasts * (r.procs as u64 - 1)) as f64);
    }

    // The event layer: what the stream costs to aggregate and to check.
    report.set(
        "core.events.per_task",
        over(&all, &events) / over(&all, &tasks),
    );
    report.set(
        "core.events.sink_overhead_frac",
        report.get("trace_overhead_frac").unwrap_or(0.0),
    );
    let n_events = over(&all, &events);
    report.set(
        "core.events.metrics_ns_per_event",
        over(&all, &|i| last[i].event_ns.0 * events(i)) / n_events,
    );
    report.set(
        "core.events.check_ns_per_event",
        over(&all, &|i| last[i].event_ns.1 * events(i)) / n_events,
    );

    // Standalone replays of the layers under the simulator, over the same
    // traces: the floor they put under the pass.
    let (mut sync, mut memsim_s) = (layers::SyncReplay::default(), 0.0);
    for cell in &sims.cells {
        let trace = &sims.traces[cell.trace];
        rec.time("core.sync.replay", &cell.label, || {
            sync.replay(trace.tasks.iter().map(|t| &t.spec))
        });
        if sims.kind == Kind::Dash {
            memsim_s += rec
                .time("dash.memsim.replay", &cell.label, || {
                    layers::memsim_replay(trace, cell.procs)
                })
                .0;
        }
    }
    let replay_s = sync.secs();
    sync.report(&mut report);
    let (hold64, _) = rec.time("dsim.calendar.hold", "d64", || layers::calendar_hold_ns(64));
    let (hold4096, _) = rec.time("dsim.calendar.hold", "d4096", || {
        layers::calendar_hold_ns(4096)
    });
    let calendar_s = calendar_events * hold64 * 1e-9;
    report.set("dsim.calendar.hold_ns.d64", hold64);
    report.set("dsim.calendar.hold_ns.d4096", hold4096);
    report.set("dsim.calendar.est_s", calendar_s);
    // Both simulators compute their result with `Metrics::from_events`
    // over the stream they recorded, so that cost is part of the pass.
    let metrics_s = report
        .get("core.events.metrics_ns_per_event")
        .unwrap_or(0.0)
        * n_events
        * 1e-9;
    if sims.kind == Kind::Dash {
        report.set("dash.memsim.replay_s", memsim_s);
        report.set(
            "dash.other_s",
            wall - replay_s - memsim_s - calendar_s - metrics_s,
        );
    } else {
        report.set("ipsc.other_s", wall - replay_s - calendar_s - metrics_s);
    }
    if let Some(Cfg::Ipsc(cfg)) = sims.cells.first().map(|c| &c.cfg) {
        if sims.kind == Kind::IpscManaged {
            report.set("dsim.fault.draw_ns", layers::fault_draw_ns(cfg.faults));
        }
    }
    println!(
        "shares of {workload} wall_s ({wall:.3} s), from standalone replays: synchronizer {:.1}%, \
         calendar (estimate) {:.1}%, memory model {:.1}%, Metrics::from_events {:.1}%",
        replay_s / wall * 100.0,
        calendar_s / wall * 100.0,
        memsim_s / wall * 100.0,
        metrics_s / wall * 100.0
    );
    report
}
