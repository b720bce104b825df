//! Run management: trace caching, the one runner over both machines, the
//! paper's locality-level × processor grid, table formatting.

use crate::apps::App;
use dsim::FaultPlan;
use jade_core::{LocalityMode, Trace};
use jade_dash::{DashConfig, DashRunResult};
use jade_ipsc::{IpscConfig, IpscRunResult, PinnedSchedule};
use std::collections::HashMap;
use std::rc::Rc;

/// The processor counts of every experiment in the paper.
pub const PROCS: [usize; 7] = [1, 2, 4, 8, 16, 24, 32];

/// The two simulated machines of the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Machine {
    Dash,
    Ipsc,
}

impl Machine {
    pub const BOTH: [Machine; 2] = [Machine::Dash, Machine::Ipsc];

    pub fn name(self) -> &'static str {
        match self {
            Machine::Dash => "DASH",
            Machine::Ipsc => "iPSC/860",
        }
    }

    /// Seconds of compute per abstract operation of `app` on this machine.
    pub fn sec_per_op(self, app: App, trace: &Trace) -> f64 {
        match self {
            Machine::Dash => app.dash_sec_per_op(trace),
            Machine::Ipsc => app.ipsc_sec_per_op(trace),
        }
    }
}

/// What both machines report for a run: the fields the paper's tables and
/// figures read.
pub struct Run {
    pub exec_time_s: f64,
    pub task_time_s: f64,
    pub locality_pct: f64,
    /// Bytes of shared-object communication: iPSC message payloads, DASH
    /// bytes moved between clusters.
    pub comm_bytes: u64,
    /// Per processor: (application, communication, management) seconds.
    pub per_proc_busy: Vec<(f64, f64, f64)>,
}

/// Caches generated traces so each (app, procs) workload is built once, and
/// carries the fault plan and checkpoint intervals the sweeps run under.
pub struct Harness {
    pub quick: bool,
    /// The plan the fault and checkpoint sweeps inject.
    pub faults: FaultPlan,
    /// The checkpoint sweep's intervals: simulated seconds on the iPSC,
    /// completed tasks on threads.
    pub checkpoint_intervals: Vec<f64>,
    traces: HashMap<(App, usize), Rc<Trace>>,
}

impl Harness {
    pub fn new(quick: bool) -> Harness {
        Harness {
            quick,
            faults: FaultPlan::parse("drop=0.05,dup=0.02").expect("default fault plan parses"),
            checkpoint_intervals: vec![0.5, 2.0],
            traces: HashMap::new(),
        }
    }

    pub fn trace(&mut self, app: App, procs: usize) -> Rc<Trace> {
        let quick = self.quick;
        Rc::clone(
            self.traces
                .entry((app, procs))
                .or_insert_with(|| Rc::new(app.trace(procs, quick))),
        )
    }

    /// Run `app` on machine `m` in its paper configuration.
    pub fn run(&mut self, m: Machine, app: App, procs: usize, mode: LocalityMode) -> Run {
        self.run_as(m, app, procs, mode, false)
    }

    /// [`Harness::run`] under the work-free methodology (Figures 10/11 and
    /// 20/21): task work and communication zeroed, management costs kept.
    pub fn work_free(&mut self, m: Machine, app: App, procs: usize, mode: LocalityMode) -> Run {
        self.run_as(m, app, procs, mode, true)
    }

    fn run_as(
        &mut self,
        m: Machine,
        app: App,
        procs: usize,
        mode: LocalityMode,
        work_free: bool,
    ) -> Run {
        match m {
            Machine::Dash => {
                let r = self.dash_with(app, procs, mode, |c| c.work_free = work_free);
                Run {
                    exec_time_s: r.exec_time_s,
                    task_time_s: r.task_time_s,
                    locality_pct: r.locality_pct,
                    comm_bytes: r.bytes_moved,
                    per_proc_busy: r.per_proc_busy,
                }
            }
            Machine::Ipsc => {
                let r = self.ipsc_with(app, procs, mode, |c| c.work_free = work_free);
                Run {
                    exec_time_s: r.exec_time_s,
                    task_time_s: r.task_time_s,
                    locality_pct: r.locality_pct,
                    comm_bytes: r.comm_bytes,
                    per_proc_busy: r.per_proc_busy,
                }
            }
        }
    }

    /// The paper's grid for one metric: a row per locality level the app
    /// reports, a column per processor count in [`PROCS`].
    pub fn grid(
        &mut self,
        m: Machine,
        app: App,
        metric: fn(&Run) -> f64,
    ) -> Vec<(String, Vec<f64>)> {
        app.modes()
            .iter()
            .map(|&mode| {
                let vals = PROCS.iter().map(|&p| metric(&self.run(m, app, p, mode)));
                (mode.to_string(), vals.collect())
            })
            .collect()
    }

    /// `app`'s trace on `procs` processors and DASH's paper configuration
    /// for it.
    pub fn dash_config(
        &mut self,
        app: App,
        procs: usize,
        mode: LocalityMode,
    ) -> (Rc<Trace>, DashConfig) {
        let trace = self.trace(app, procs);
        let cfg = DashConfig::paper(procs, mode, app.dash_sec_per_op(&trace));
        (trace, cfg)
    }

    /// `app`'s trace on `procs` processors and the iPSC/860's paper
    /// configuration for it.
    pub fn ipsc_config(
        &mut self,
        app: App,
        procs: usize,
        mode: LocalityMode,
    ) -> (Rc<Trace>, IpscConfig) {
        let trace = self.trace(app, procs);
        let cfg = IpscConfig::paper(procs, mode, app.ipsc_sec_per_op(&trace));
        (trace, cfg)
    }

    /// Run `app` on the simulated DASH with a tweaked configuration.
    pub fn dash_with(
        &mut self,
        app: App,
        procs: usize,
        mode: LocalityMode,
        f: impl FnOnce(&mut DashConfig),
    ) -> DashRunResult {
        let (trace, mut cfg) = self.dash_config(app, procs, mode);
        f(&mut cfg);
        jade_dash::run(&trace, &cfg)
    }

    /// Run `app` on the simulated iPSC/860 with a tweaked configuration.
    pub fn ipsc_with(
        &mut self,
        app: App,
        procs: usize,
        mode: LocalityMode,
        f: impl FnOnce(&mut IpscConfig),
    ) -> IpscRunResult {
        let (trace, mut cfg) = self.ipsc_config(app, procs, mode);
        f(&mut cfg);
        jade_ipsc::run(&trace, &cfg)
    }

    /// Controlled iPSC comparison: run a baseline with the `base` tweaks
    /// and record its schedule, then run again with `tweak` applied on top,
    /// replaying the baseline's task placement and per-processor start
    /// order ([`IpscConfig::pinned`]). Holding the schedule fixed isolates
    /// the communication effect of the tweak from list-scheduling timing
    /// anomalies — with identical task sets and per-processor order, a
    /// change that only makes data available earlier can only move task
    /// starts earlier (DESIGN.md §17). Returns `(baseline, tweaked)`.
    pub fn ipsc_controlled(
        &mut self,
        app: App,
        procs: usize,
        mode: LocalityMode,
        base: impl FnOnce(&mut IpscConfig),
        tweak: impl FnOnce(&mut IpscConfig),
    ) -> (IpscRunResult, IpscRunResult) {
        let (trace, mut cfg) = self.ipsc_config(app, procs, mode);
        base(&mut cfg);
        let (off, events) = jade_ipsc::run_traced(&trace, &cfg);
        tweak(&mut cfg);
        cfg.pinned = Some(PinnedSchedule::from_events(trace.tasks.len(), &events));
        let on = jade_ipsc::run(&trace, &cfg);
        (off, on)
    }

    /// Run `app` with event recording on machine `m` and render the stream
    /// as a Chrome `trace_event` JSON document (load it in
    /// `chrome://tracing` or <https://ui.perfetto.dev>).
    pub fn chrome_trace(
        &mut self,
        m: Machine,
        app: App,
        procs: usize,
        mode: LocalityMode,
    ) -> String {
        let events = match m {
            Machine::Dash => {
                let (trace, cfg) = self.dash_config(app, procs, mode);
                jade_dash::run_traced(&trace, &cfg).1
            }
            Machine::Ipsc => {
                let (trace, cfg) = self.ipsc_config(app, procs, mode);
                jade_ipsc::run_traced(&trace, &cfg).1
            }
        };
        let mut out = Vec::new();
        jade_core::chrome::write_chrome_trace(&mut out, &events)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("chrome trace output is UTF-8")
    }
}

/// Format one table row: a label plus one value per processor count.
pub fn row(label: &str, values: &[f64], decimals: usize) -> String {
    let mut s = format!("{label:>16} |");
    for v in values {
        s.push_str(&format!(" {v:>9.decimals$}"));
    }
    s
}

/// Format the standard header with the processor counts.
pub fn header(title: &str) -> String {
    let mut s = format!("{title}\n{:>16} |", "procs");
    for p in PROCS {
        s.push_str(&format!(" {p:>9}"));
    }
    s.push('\n');
    s.push_str(&"-".repeat(18 + 10 * PROCS.len()));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_cache_reuses() {
        let mut h = Harness::new(true);
        let a = h.trace(App::Cholesky, 2);
        let b = h.trace(App::Cholesky, 2);
        assert!(Rc::ptr_eq(&a, &b));
    }

    #[test]
    fn quick_dash_and_ipsc_runs_complete() {
        let mut h = Harness::new(true);
        for m in Machine::BOTH {
            let r = h.run(m, App::Cholesky, 4, LocalityMode::TaskPlacement);
            assert!(r.exec_time_s > 0.0, "{m:?}");
            assert_eq!(r.per_proc_busy.len(), 4, "{m:?}");
        }
    }

    #[test]
    fn modes_per_app() {
        let mut h = Harness::new(true);
        let rows = h.grid(Machine::Dash, App::Water, |r| r.locality_pct);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|(_, v)| v.len() == PROCS.len()));
        assert_eq!(rows[0].0, "Locality");
        assert_eq!(App::Ocean.modes().len(), 3);
        for app in App::ALL.into_iter().chain(App::IRREGULAR) {
            assert_eq!(app.modes()[0], app.natural_mode());
        }
    }

    #[test]
    fn chrome_trace_exports_and_validates() {
        let mut h = Harness::new(true);
        for m in Machine::BOTH {
            let json = h.chrome_trace(m, App::Cholesky, 4, LocalityMode::Locality);
            let n = jade_core::chrome::validate_chrome_trace(&json, 4)
                .unwrap_or_else(|e| panic!("{m:?}: {e}"));
            assert!(n > 0, "{m:?} produced an empty trace");
        }
    }

    #[test]
    fn formatting() {
        let hd = header("Table X");
        assert!(hd.contains("Table X"));
        let r = row("Locality", &[1.0, 2.0], 2);
        assert!(r.contains("Locality"));
        assert!(r.contains("2.00"));
        assert!(row("x", &[0.5], 4).contains("0.5000"));
    }
}
