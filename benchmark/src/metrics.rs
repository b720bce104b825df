//! The benchmark's declared names — workloads, end-to-end metrics and
//! per-layer metrics — and the report one workload run prints.
//!
//! `BENCHMARK.json` is `manifest()` written to a file; a test keeps the
//! two equal, and `Report::set` refuses a name that is not declared here.

use crate::stats::{fastest, summarize, Summary};
use std::collections::BTreeMap;

pub const APPS: [&str; 6] = ["water", "string", "ocean", "cholesky", "pagerank", "halo"];
pub const FINE_SHAPES: [&str; 3] = ["indep", "wavefront", "bcast"];
pub const DAG_SHAPES: [&str; 3] = ["chain", "fan", "wave"];

/// How long one driver run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 14;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "threads-fine",
        why: "Near-empty tasks in three shapes (independent chains, wavefront, broadcast), 48 \
              batches of 4096 each, on one warmed ThreadRuntime: executor and synchronizer do all \
              the work.",
    },
    Workload {
        name: "threads-apps",
        why: "All six applications, 8-way decomposed, on ThreadRuntime: bodies and store guards \
              dominate, so scheduler changes should not move it; shows scaling and the serial gap.",
    },
    Workload {
        name: "service-mix",
        why: "Closed loop, window 16, of chain, fan and wavefront DAGs through one JadeService: \
              per-tenant synchronizers, admission, fair pick and reports; the latency workload.",
    },
    Workload {
        name: "sim-dash",
        why: "jade_dash::run over six application traces at 8 and 32 processors, with and without \
              locality: calendar, synchronizer and memory model hold the largest share.",
    },
    Workload {
        name: "sim-ipsc-demand",
        why: "jade_ipsc::try_run in the paper's configuration (replication, concurrent demand \
              fetch, adaptive broadcast): scheduler, communicator and demand-fetch host cost.",
    },
    Workload {
        name: "sim-ipsc-managed",
        why: "The same iPSC cells with aggregation, prefetch, two tasks per processor, tuning and \
              a seeded fault plan: bundles, split-phase reconcile, retry, recovery, checkpoints.",
    },
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Debug)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// A count the program makes that must repeat exactly run to run
    /// (same seed); `compare` checks these for equality.
    pub exact: bool,
}

fn e2e(name: &str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better: Better::Lower,
        bound: Some(bound),
        exact: false,
    }
}

/// The end-to-end metrics. Every workload reports every one of them; where
/// a workload has no second configuration (`wall_1w_s` on the
/// single-threaded simulators) the README says what it reports instead.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        e2e("setup_s", "s", 0.25),
        e2e("wall_s", "s", 0.25),
        e2e("wall_1w_s", "s", 0.25),
        e2e("dag_p50_ms", "ms", 0.25),
        e2e("peak_rss_mb", "MB", 0.15),
    ]
}

/// Collects per-layer definitions: a cost (`lower`), a benefit (`higher`),
/// or a count the program makes that repeats exactly (`count`).
struct Defs(Vec<MetricDef>);

impl Defs {
    fn push(&mut self, name: impl Into<String>, unit: &'static str, better: Better, exact: bool) {
        self.0.push(MetricDef {
            name: name.into(),
            unit,
            better,
            bound: None,
            exact,
        });
    }
    fn lower(&mut self, name: impl Into<String>, unit: &'static str) {
        self.push(name, unit, Better::Lower, false);
    }
    fn higher(&mut self, name: impl Into<String>, unit: &'static str) {
        self.push(name, unit, Better::Higher, false);
    }
    fn count(&mut self, name: impl Into<String>, unit: &'static str) {
        self.push(name, unit, Better::Lower, true);
    }
}

/// The per-layer metrics, grouped by the crate they observe. A traced run
/// reports all of them; a layer the workload does not drive reads 0.
pub fn per_layer() -> Vec<MetricDef> {
    let mut d = Defs(Vec::new());

    // harness
    d.lower("failed_frac", "ratio");
    d.count("sim_exec_geo_s", "sim_s");
    d.lower("trace_overhead_frac", "ratio");
    // The tail beside the end-to-end `dag_p50_ms`: too unsteady on a shared
    // host to carry a bound (README, "Measured noise").
    d.lower("dag_p99_ms", "ms");
    d.higher("host.cpus", "count");
    d.higher("host.workers", "count");

    // jade-apps
    for app in APPS {
        d.lower(format!("apps.wall_s.{app}"), "s");
    }
    for app in APPS {
        d.lower(format!("apps.serial_s.{app}"), "s");
    }
    d.lower("apps.body_s", "s");
    d.count("apps.tasks", "count");
    d.higher("apps.speedup_vs_serial", "ratio");
    d.higher("apps.par_speedup", "ratio");

    // jade-threads executor
    d.lower("threads.submit_s", "s");
    d.lower("threads.finish_s", "s");
    d.lower("threads.overhead_ns_per_task", "ns");
    d.higher("threads.body_frac", "ratio");
    d.lower("threads.batch_fixed_us", "us");
    d.lower("threads.locks_per_task", "ratio");
    d.lower("threads.steal_frac", "ratio");
    d.higher("threads.locality_frac", "ratio");
    d.lower("threads.allocs_per_task", "ratio");
    for shape in FINE_SHAPES {
        d.lower(format!("threads.ns_per_task.{shape}"), "ns");
    }
    for shape in FINE_SHAPES {
        d.lower(format!("threads.ns_per_task_1w.{shape}"), "ns");
    }
    d.count("threads.tasks", "count");
    d.higher("threads.tasks_per_s", "1/s");
    d.higher("threads.tasks_per_s_1w", "1/s");
    d.higher("threads.par_speedup", "ratio");

    // jade-threads::service
    d.lower("service.submit_us_p50", "us");
    d.lower("service.wait_us_p50", "us");
    for shape in DAG_SHAPES {
        d.lower(format!("service.dag_ms_p50.{shape}"), "ms");
    }
    d.count("service.dags", "count");
    d.count("service.tasks", "count");
    d.count("service.refused", "count");
    d.higher("service.tasks_per_s", "1/s");
    d.higher("service.par_speedup", "ratio");

    // jade-core
    d.lower("core.sync.add_ns", "ns");
    d.lower("core.sync.complete_ns", "ns");
    d.lower("core.sync.replay_s", "s");
    d.lower("core.store.rd_ns", "ns");
    d.lower("core.store.wr_ns", "ns");
    d.count("core.events.per_task", "ratio");
    d.lower("core.events.sink_overhead_frac", "ratio");
    d.lower("core.events.metrics_ns_per_event", "ns");
    d.lower("core.events.check_ns_per_event", "ns");
    d.count("core.events.check_failed", "count");

    // dsim
    d.lower("dsim.calendar.hold_ns.d64", "ns");
    d.lower("dsim.calendar.hold_ns.d4096", "ns");
    d.lower("dsim.calendar.est_s", "s");
    d.lower("dsim.fault.draw_ns", "ns");

    // jade-dash and jade-ipsc
    for sim in ["dash", "ipsc"] {
        for app in APPS {
            d.lower(format!("{sim}.host_ns_per_task.{app}"), "ns");
        }
        d.lower(format!("{sim}.host_ns_per_event"), "ns");
        d.lower(format!("{sim}.host_ns_per_event.p8"), "ns");
        d.lower(format!("{sim}.host_ns_per_event.p32"), "ns");
        d.count(format!("{sim}.events"), "count");
        d.count(format!("{sim}.tasks"), "count");
    }
    d.count("dash.steals", "count");
    d.count("dash.bytes_moved", "bytes");
    d.push("dash.locality_pct", "%", Better::Higher, true);
    d.lower("dash.memsim.replay_s", "s");
    d.lower("dash.other_s", "s");
    for n in [
        "fetches",
        "requests",
        "fetch_messages",
        "agg_objects",
        "broadcasts",
    ] {
        d.count(format!("ipsc.{n}"), "count");
    }
    d.count("ipsc.comm_bytes", "bytes");
    d.count("ipsc.prefetches_issued", "count");
    d.push("ipsc.prefetch_hit_ratio", "ratio", Better::Higher, true);
    d.count("ipsc.prefetch_stale", "count");
    d.count("ipsc.msgs_dropped", "count");
    d.count("ipsc.retry_ratio", "ratio");
    d.count("ipsc.tasks_reexecuted", "count");
    d.count("ipsc.checkpoints", "count");
    d.count("ipsc.checkpoint_bytes", "bytes");
    d.lower("ipsc.other_s", "s");
    d.0
}

/// `BENCHMARK.json`: exactly the keys the acceptance driver reads.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    let e = end_to_end();
    for (i, m) in e.iter().enumerate() {
        let sep = if i + 1 < e.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics carry a bound")
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let p = per_layer();
    for (i, m) in p.iter().enumerate() {
        let sep = if i + 1 < p.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// What one run of one workload measured.
pub struct Report {
    declared: Vec<MetricDef>,
    /// Operations attempted and failed (app runs, DAGs, simulated cells).
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, for the human reading the output.
    pub failures: Vec<String>,
    /// Event streams the structural checkers rejected: an observation
    /// about the event layer (`core.events.check_failed`), not a failed
    /// operation — the run's results were still checked and right.
    rejected_streams: Vec<String>,
    values: BTreeMap<String, (f64, Option<Summary>)>,
}

impl Report {
    /// A report of the end-to-end metrics (`traced == false`) or of the
    /// per-layer metrics.
    pub fn new(traced: bool) -> Report {
        Report {
            declared: if traced { per_layer() } else { end_to_end() },
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            rejected_streams: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    fn check_declared(&self, name: &str) {
        assert!(
            self.declared.iter().any(|m| m.name == name),
            "metric `{name}` is not declared in metrics.rs for this kind of run"
        );
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.check_declared(name);
        self.values.insert(name.to_string(), (value, None));
    }

    /// Report the median of `samples`, keeping quartiles and count.
    pub fn set_median(&mut self, name: &str, samples: &[f64]) {
        self.check_declared(name);
        let s = summarize(samples);
        self.values.insert(name.to_string(), (s.median, Some(s)));
    }

    /// Report the fastest of `samples`, timings of the same pass, keeping
    /// their median, quartiles and count.
    pub fn set_fastest(&mut self, name: &str, samples: &[f64]) {
        self.check_declared(name);
        let s = summarize(samples);
        self.values
            .insert(name.to_string(), (fastest(samples), Some(s)));
    }

    /// Count one attempted operation; `check` says why it failed, if it did.
    pub fn attempt(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = check {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    /// Record the structural checkers' verdict on one event stream.
    pub fn stream_checked(&mut self, verdict: Result<(), String>) {
        if let Err(why) = verdict {
            if !self.rejected_streams.contains(&why) {
                self.rejected_streams.push(why);
            }
        }
    }

    /// How many distinct event streams were rejected.
    pub fn rejected_streams(&self) -> usize {
        self.rejected_streams.len()
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// Declared metrics in declaration order with their values; a metric
    /// the run did not set reads 0 (a layer the workload does not drive).
    pub fn rows(&self) -> Vec<(&MetricDef, f64, Option<Summary>)> {
        self.declared
            .iter()
            .map(|m| {
                let (v, s) = self.values.get(&m.name).copied().unwrap_or((0.0, None));
                (m, v, s)
            })
            .collect()
    }

    /// Print every metric by name with its unit, then the detail line
    /// (quartiles and counts, read by `run` without `--workload`), then the
    /// result line the acceptance driver reads.
    pub fn print(&self) {
        for why in &self.failures {
            println!("FAILED: {why}");
        }
        for why in &self.rejected_streams {
            println!("FINDING: event stream rejected: {why}");
        }
        let rows = self.rows();
        let all_finite = rows.iter().all(|(_, v, _)| v.is_finite());
        for (m, v, s) in &rows {
            match s {
                Some(s) => println!(
                    "{:<36} {:>16.6} {:<6} of {} (q1 {:.6}, median {:.6}, q3 {:.6})",
                    m.name, v, m.unit, s.n, s.q1, s.median, s.q3
                ),
                None => println!("{:<36} {:>16.6} {}", m.name, v, m.unit),
            }
        }
        let detail: Vec<String> = rows
            .iter()
            .filter_map(|(m, _, s)| {
                s.map(|s| {
                    format!(
                        "\"{}\": {{\"q1\": {}, \"median\": {}, \"q3\": {}, \"n\": {}}}",
                        m.name, s.q1, s.median, s.q3, s.n
                    )
                })
            })
            .collect();
        println!("detail {{{}}}", detail.join(", "));
        let metrics: Vec<String> = rows
            .iter()
            .map(|(m, v, _)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && all_finite,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}
