//! The paper's Section 5 as one catalogue of experiments. Each prints the
//! reproduced numbers next to the paper's published numbers (where the
//! paper publishes a table; figures print our series plus the qualitative
//! expectation the paper's plot shows). The sweeps gate the runtime's
//! invariants and return `Err` naming the first gate that failed.

use crate::apps::App;
use crate::harness::{header, row, Harness, Machine, Run, PROCS};
use crate::paper_data::{self, ExecTable};
use dsim::{FaultPlan, SimDuration};
use jade_apps::water::{self, WaterOutput};
use jade_core::{
    check_conservation_per_tenant, check_lifecycle_per_tenant, Handle, LocalityMode, Metrics,
    TaggedEvent, TaskBuilder, TenantId,
};
use jade_dash::{DashConfig, DashRunResult};
use jade_ipsc::{IpscConfig, IpscRunResult};
use jade_threads::{
    JadeService, Outcome, Program, ServiceConfig, ShedPolicy, SubmitError, TenantOptions,
    ThreadRuntime,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// One experiment `repro` can run.
pub struct Experiment {
    /// The name `repro` takes on its command line.
    pub name: String,
    /// The paper's table, figure or section it reproduces (the DESIGN.md
    /// section, for a sweep), as `repro`'s usage lists it.
    pub title: String,
    /// The group names (`all`, `tables`, `figures`) that include it.
    pub groups: &'static [&'static str],
    run: Box<Body>,
}

impl Experiment {
    /// Run it and print its output; `Err` names the sweep gate that failed.
    pub fn run(&self, h: &mut Harness) -> Result<(), String> {
        (self.run)(h)
    }
}

const ALL: &[&str] = &["all"];
const ALONE: &[&str] = &[];
type Rows = Vec<(String, Vec<f64>)>;
type Show = fn(&mut Harness);
type Gate = fn(&mut Harness) -> Result<(), String>;
type Body = dyn Fn(&mut Harness) -> Result<(), String>;

/// An experiment whose body can fail: a sweep and its gates.
fn gate(
    name: impl Into<String>,
    groups: &'static [&'static str],
    title: impl Into<String>,
    run: impl Fn(&mut Harness) -> Result<(), String> + 'static,
) -> Experiment {
    let (name, title, run) = (name.into(), title.into(), Box::new(run));
    Experiment {
        name,
        title,
        groups,
        run,
    }
}

/// An experiment that only prints.
fn show(
    name: impl Into<String>,
    groups: &'static [&'static str],
    title: impl Into<String>,
    run: impl Fn(&mut Harness) + 'static,
) -> Experiment {
    gate(name, groups, title, move |h| {
        run(h);
        Ok(())
    })
}

/// Table `n`: reproduced rows over the processor counts, the paper's
/// published rows beneath.
fn table(
    n: usize,
    title: String,
    paper: ExecTable,
    rows: impl Fn(&mut Harness) -> Rows + 'static,
) -> Experiment {
    let name = format!("Table {n}: {title}");
    show(format!("table{n}"), &["all", "tables"], name, move |h| {
        print_table(&title, &rows(h), Some(&paper), 2)
    })
}

/// Figure `n`: reproduced rows over the processor counts, then the
/// expectation the paper's plot shows.
fn figure(
    n: usize,
    title: String,
    decimals: usize,
    note: &'static str,
    rows: impl Fn(&mut Harness) -> Rows + 'static,
) -> Experiment {
    let title = format!("Figure {n}: {title}");
    show(
        format!("fig{n}"),
        &["all", "figures"],
        title.clone(),
        move |h| {
            print_table(&title, &rows(h), None, decimals);
            println!("  {note}");
        },
    )
}

/// Every experiment, in the order `repro all` runs them.
pub fn catalogue() -> Vec<Experiment> {
    use paper_data::{table10, table2, table3, table4, table5, table7, table8, table9};
    use Machine::{Dash, Ipsc};
    let mut c = Vec::new();
    for (n, m, on, paper) in [
        (1, Dash, "DASH", &paper_data::TABLE1_DASH),
        (6, Ipsc, "the iPSC/860", &paper_data::TABLE6_IPSC),
    ] {
        let title = format!("Table {n}: Serial and Stripped Execution Times on {on} (seconds)");
        let name = format!("table{n}");
        c.push(show(name, ALL, title.clone(), move |h| {
            table_serial(h, m, &title, paper)
        }));
    }

    // Tables 2–5 (DASH) and 7–10 (iPSC): execution times at each locality
    // level. Tables 11–14: adaptive broadcast on and off on the iPSC/860
    // (locality, replication and concurrent fetch on; latency hiding off).
    for (m, first, papers) in [
        (Dash, 2, [table2, table3, table4, table5]),
        (Ipsc, 7, [table7, table8, table9, table10]),
    ] {
        for ((app, paper), n) in App::ALL.into_iter().zip(papers).zip(first..) {
            let title = format!(
                "Execution Times for {} on {} (seconds) [reproduced]",
                app.name(),
                m.name()
            );
            c.push(table(n, title, paper(), move |h| {
                h.grid(m, app, |r| r.exec_time_s)
            }));
        }
    }
    for (app, n) in App::ALL.into_iter().zip(11..) {
        let title = format!(
            "Adaptive Broadcast for {} on the iPSC/860 (seconds) [reproduced]",
            app.name()
        );
        let paper = paper_data::bcast_table(app.name());
        c.push(table(n, title, paper, move |h| bcast_rows(h, app)));
    }

    // Figures 2–11 on DASH and 12–21 on the iPSC/860: task locality (2–5,
    // 12–15), one figure per app of the machine's own (6–9, 16–19), and the
    // task management percentage (10–11, 20–21).
    let task_time: fn(&Run) -> f64 = |r| r.task_time_s;
    let comm_ratio: fn(&Run) -> f64 = |r| dsim::ratio(r.comm_bytes as f64 / 1e6, r.task_time_s);
    for (m, n, (what, on, decimals, note, metric)) in [
        (
            Dash,
            2,
            (
                "Total Task Execution Time",
                "DASH (seconds)",
                2,
                TASK_TIME,
                task_time,
            ),
        ),
        (
            Ipsc,
            12,
            (
                "Communication to Computation Ratio",
                "the iPSC/860 (Mbytes/s)",
                4,
                COMM,
                comm_ratio,
            ),
        ),
    ] {
        for (app, n) in App::ALL.into_iter().zip(n..) {
            let title = format!(
                "Task Locality Percentage for {} on {}",
                app.name(),
                m.name()
            );
            let expect = match (app, m) {
                (App::Water | App::StringApp, _) => LOCALITY_REPLICATED,
                (App::Cholesky, Ipsc) => LOCALITY_FIRST_TOUCH,
                _ => LOCALITY_PLACED,
            };
            c.push(figure(n, title, 2, expect, move |h| {
                h.grid(m, app, |r| r.locality_pct)
            }));
        }
        for (app, n) in App::ALL.into_iter().zip(n + 4..) {
            let title = format!("{what} for {} on {on}", app.name());
            c.push(figure(n, title, decimals, note, move |h| {
                h.grid(m, app, metric)
            }));
        }
        for (app, n) in [App::Ocean, App::Cholesky].into_iter().zip(n + 8..) {
            let title = format!(
                "Task Management Percentage for {} on {} (work-free / full)",
                app.name(),
                m.name()
            );
            c.push(figure(n, title, 2, MGMT, move |h| mgmt_rows(h, m, app)));
        }
    }

    let sections: [(&str, &str, Show); 7] = [
        ("replication", "Section 5.1: replication", replication),
        ("bcast-analysis", "Section 5.3: broadcast", bcast_analysis),
        (
            "latency-hiding",
            "Section 5.4: latency hiding",
            latency_hiding,
        ),
        (
            "concurrent-fetch",
            "Section 5.5: concurrent fetch",
            concurrent_fetch,
        ),
        ("ablations", "Section 6: ablations", ablations),
        ("heterogeneous", "Section 1: workstations", heterogeneous),
        ("utilization", "per-processor time at 8 procs", utilization),
    ];
    for (name, title, run) in sections {
        let groups = if name == "utilization" { ALONE } else { ALL };
        c.push(show(name, groups, title, run));
    }
    let sweeps: [(&str, &str, Gate); 6] = [
        ("fault-sweep", "DESIGN.md §11: fault recovery", fault_sweep),
        (
            "checkpoint-sweep",
            "DESIGN.md §12: checkpoints",
            checkpoint_sweep,
        ),
        (
            "aggregation-sweep",
            "DESIGN.md §15: aggregation",
            aggregation_sweep,
        ),
        ("overlap-sweep", "DESIGN.md §17: prefetch", overlap_sweep),
        ("service-stress", "DESIGN.md §16: service", service_stress),
        ("tune-sweep", "DESIGN.md §19: self-tuning", tune_sweep),
    ];
    c.extend(sweeps.map(|(name, title, run)| gate(name, ALONE, title, run)));
    c
}

/// The experiments a command-line name stands for: the one of that name,
/// or every member of the group (`all`, `tables`, `figures`) in catalogue
/// order. `None` if the name is neither.
pub fn select<'c>(catalogue: &'c [Experiment], name: &str) -> Option<Vec<&'c Experiment>> {
    let hits: Vec<_> = catalogue
        .iter()
        .filter(|e| e.name == name || e.groups.contains(&name))
        .collect();
    (!hits.is_empty()).then_some(hits)
}

const LOCALITY_REPLICATED: &str = "paper: Locality = 100%, No Locality drops toward ~1/P";
const LOCALITY_FIRST_TOUCH: &str = "paper: Task Placement ~92% (first touch targets main), \
    Locality < 100%, No Locality low";
const LOCALITY_PLACED: &str =
    "paper: Task Placement = 100%, Locality substantially below 100%, No Locality low";
const TASK_TIME: &str = "paper: rises with processors (more remote misses); small relative \
    rise for Water/String, large for Ocean/Panel Cholesky, ordered NoLocality > Locality > Placement";
const COMM: &str = "paper: Water/String ratios tiny (< 0.1); Ocean/Panel Cholesky large \
    (up to ~24), lower ratios at higher locality levels";
const MGMT: &str = "paper: rises steeply with processors; higher on the iPSC than on DASH";

/// Tables 11–14's rows: execution time with adaptive broadcast on and off.
fn bcast_rows(h: &mut Harness, app: App) -> Rows {
    let mode = app.natural_mode();
    let rows = [("Adaptive Bcast", true), ("No Adapt Bcast", false)].map(|(label, on)| {
        let run = PROCS.map(|p| h.ipsc_with(app, p, mode, |c| c.adaptive_broadcast = on));
        (
            label.to_string(),
            run.iter().map(|r| r.exec_time_s).collect(),
        )
    });
    rows.into()
}

/// Figures 10/11 and 20/21's row: 100 × work-free time / full time at the
/// Task Placement level.
fn mgmt_rows(h: &mut Harness, m: Machine, app: App) -> Rows {
    let mode = LocalityMode::TaskPlacement;
    let pct =
        |p| 100.0 * h.work_free(m, app, p, mode).exec_time_s / h.run(m, app, p, mode).exec_time_s;
    vec![("Task Placement".to_string(), PROCS.map(pct).to_vec())]
}

fn print_table(
    title: &str,
    rows: &[(String, Vec<f64>)],
    paper: Option<&ExecTable>,
    decimals: usize,
) {
    println!("\n{}", header(title));
    for (label, vals) in rows {
        println!("{}", row(label, vals, decimals));
    }
    if let Some(p) = paper {
        println!("  --- paper ({}):", p.label);
        for (label, vals) in p.rows {
            let v: Vec<f64> = vals.iter().map(|x| x.unwrap_or(f64::NAN)).collect();
            println!("{}", row(&format!("paper {label}"), &v, 2));
        }
    }
}

/// Tables 1 and 6: serial and stripped times. The stripped times are the
/// calibration anchors of the per-application cost models; we report the
/// model's reproduced stripped time (charged work × calibrated rate), which
/// by construction lands on the paper's value at full scale.
fn table_serial(h: &mut Harness, m: Machine, title: &str, paper: &[paper_data::SerialRow]) {
    println!("\n{title}");
    println!(
        "{:>16} | {:>12} {:>12} {:>14} {:>14}",
        "app", "paper serial", "paper strip", "model strip", "model 1-proc"
    );
    for (&app, paper) in App::ALL.iter().zip(paper) {
        let trace = h.trace(app, 1);
        let stripped = trace.total_work() * m.sec_per_op(app, &trace);
        let one_proc = h.run(m, app, 1, LocalityMode::Locality).exec_time_s;
        println!(
            "{:>16} | {:>12.2} {:>12.2} {:>14.2} {:>14.2}",
            paper.app, paper.serial, paper.stripped, stripped, one_proc
        );
    }
}

/// Section 5.3's quantitative analysis: sizes and distribution times of the
/// widely-read objects, and mean parallel phase lengths with and without
/// adaptive broadcast, at 32 processors.
fn bcast_analysis(h: &mut Harness) {
    println!("\nSection 5.3 analysis: object distribution at 32 processors");
    let machine = dsim::IpscSpec::paper(32);
    for (app, bytes, paper_send, paper_bcast) in [
        (App::Water, 165_888usize, 0.07, 0.31),
        (App::StringApp, 383_528, 0.16, 0.70),
    ] {
        let one = machine.message_time(bytes, 0, 1).as_secs_f64();
        let all = 31.0 * one;
        let bcast = machine.broadcast_time(bytes).as_secs_f64();
        println!(
            "  {:>7}: object {:>7} B; serial send {:.3}s (paper {:.2}), all-31 {:.2}s, \
             broadcast {:.3}s (paper {:.2})",
            app.name(),
            bytes,
            one,
            paper_send,
            all,
            bcast,
            paper_bcast
        );
        let with = h.ipsc_with(app, 32, LocalityMode::Locality, |c| {
            c.adaptive_broadcast = true
        });
        let without = h.ipsc_with(app, 32, LocalityMode::Locality, |c| {
            c.adaptive_broadcast = false
        });
        println!(
            "           mean parallel phase: {:.2}s with broadcast / {:.2}s without \
             (paper: 7.3/5.4 Water, 108/106 String); broadcasts performed: {}",
            with.mean_parallel_phase_s, without.mean_parallel_phase_s, with.broadcasts
        );
    }
}

/// Section 5.1: replication. Disabling read replication serializes every
/// application (all tasks read at least one common object).
fn replication(h: &mut Harness) {
    println!("\nSection 5.1: replication (iPSC/860, 8 processors, Locality level)");
    println!(
        "{:>16} | {:>12} {:>14} {:>8}",
        "app", "replication", "no replication", "slowdown"
    );
    for app in App::ALL {
        let on = h
            .run(Machine::Ipsc, app, 8, LocalityMode::Locality)
            .exec_time_s;
        let off = h
            .ipsc_with(app, 8, LocalityMode::Locality, |c| c.replication = false)
            .exec_time_s;
        println!(
            "{:>16} | {:>12.2} {:>14.2} {:>7.2}x",
            app.name(),
            on,
            off,
            off / on
        );
    }
    println!("  paper: eliminating replication would serialize all of the applications");
}

/// Section 5.4: hiding latency with excess concurrency — Panel Cholesky
/// with the target task count set to two, plus the latency/task-time
/// imbalance analysis.
fn latency_hiding(h: &mut Harness) {
    println!("\nSection 5.4: latency hiding (Panel Cholesky on the iPSC/860, Locality level)");
    println!(
        "{:>16} | {}",
        "target tasks",
        PROCS.map(|p| format!("{p:>9}")).join(" ")
    );
    for target in [1usize, 2] {
        let vals: Vec<f64> = PROCS
            .iter()
            .map(|&p| {
                // Locality level: explicitly placed tasks bypass the target
                // count entirely, so the knob only acts here.
                h.ipsc_with(App::Cholesky, p, LocalityMode::Locality, |c| {
                    c.target_tasks = target
                })
                .exec_time_s
            })
            .collect();
        println!("{}", row(&format!("{target}"), &vals, 2));
    }
    let r = h.ipsc_with(App::Cholesky, 16, LocalityMode::TaskPlacement, |_| {});
    let mean_task = r.task_time_s / r.tasks_executed.max(1) as f64;
    let mean_obj = r.object_latency_s / r.fetches.max(1) as f64;
    println!(
        "  at 16 procs: mean object transfer latency {:.2} ms vs mean task time {:.2} ms \
         (ratio {:.2}; paper reports the latency at over twice the task time)",
        mean_obj * 1e3,
        mean_task * 1e3,
        mean_obj / mean_task
    );
    println!("  paper: turning the optimization on has virtually no effect on performance");
}

/// Section 5.5: concurrent fetches — the ratio of summed object latency to
/// summed task latency at the highest locality level, plus the serial-fetch
/// ablation.
fn concurrent_fetch(h: &mut Harness) {
    println!("\nSection 5.5: concurrent fetches (iPSC/860, highest locality level)");
    println!(
        "{:>16} | {:>8} {:>14} {:>14} {:>8} {:>12}",
        "app", "procs", "object lat (s)", "task lat (s)", "ratio", "serial-fetch"
    );
    for app in App::ALL {
        let mode = app.natural_mode();
        for procs in [8usize, 32] {
            let r = h.ipsc_with(app, procs, mode, |_| {});
            let ratio = if r.task_latency_s > 0.0 {
                r.object_latency_s / r.task_latency_s
            } else {
                1.0
            };
            let serial = h
                .ipsc_with(app, procs, mode, |c| c.concurrent_fetches = false)
                .exec_time_s;
            println!(
                "{:>16} | {:>8} {:>14.3} {:>14.3} {:>8.3} {:>11.2}s",
                app.name(),
                procs,
                r.object_latency_s,
                r.task_latency_s,
                ratio,
                serial
            );
        }
    }
    println!(
        "  paper: the ratio is very close to one for all applications — almost all tasks \
         fetch at most one remote object per communication point"
    );
}

/// Ablations of the design choices DESIGN.md Section 6 calls out.
fn ablations(h: &mut Harness) {
    println!("\nAblation: eager update protocol (paper Section 6, iPSC/860, 16 procs)");
    println!("  paper: an update-protocol Jade implementation helped regular applications");
    println!("  (Water, String) and degraded irregular ones by generating excess traffic.");
    println!(
        "{:>16} | {:>10} {:>10} {:>12} {:>12}",
        "app", "demand (s)", "eager (s)", "demand MB", "eager MB"
    );
    for app in App::ALL {
        let d = h.run(Machine::Ipsc, app, 16, app.natural_mode());
        let e = h.ipsc_with(app, 16, app.natural_mode(), |c| c.eager_update = true);
        println!(
            "{:>16} | {:>10.2} {:>10.2} {:>12.1} {:>12.1}",
            app.name(),
            d.exec_time_s,
            e.exec_time_s,
            d.comm_bytes as f64 / 1e6,
            e.comm_bytes as f64 / 1e6
        );
    }

    println!("\nAblation: locality-object choice (first vs last declared, DASH, 16 procs)");
    for app in [App::Ocean, App::Cholesky] {
        let normal = h.run(Machine::Dash, app, 16, LocalityMode::Locality);
        let trace = h.trace(app, 16);
        let mut flipped = (*trace).clone();
        for t in &mut flipped.tasks {
            let decls: Vec<_> = t.spec.decls().iter().rev().copied().collect();
            t.spec = decls.into_iter().collect();
        }
        let spo = app.dash_sec_per_op(&flipped);
        let r = jade_dash::run(
            &flipped,
            &DashConfig::paper(16, LocalityMode::Locality, spo),
        );
        println!(
            "  {:>16}: first-declared {:.2}s ({:.0}% locality) | last-declared {:.2}s ({:.0}% locality)",
            app.name(),
            normal.exec_time_s,
            normal.locality_pct,
            r.exec_time_s,
            r.locality_pct
        );
    }

    println!("\nAblation: serial vs concurrent fetches (iPSC/860, 16 procs)");
    for app in App::ALL {
        let conc = h
            .run(Machine::Ipsc, app, 16, app.natural_mode())
            .exec_time_s;
        let ser = h
            .ipsc_with(app, 16, app.natural_mode(), |c| {
                c.concurrent_fetches = false
            })
            .exec_time_s;
        println!(
            "  {:>16}: concurrent {conc:.2}s | serial {ser:.2}s",
            app.name()
        );
    }
}

/// Per-processor utilization profile: where each processor's time goes
/// (application work / communication / task management / idle), the
/// breakdown behind the paper's bottleneck arguments, for three apps at 8
/// processors. Rendered as text bars.
fn utilization(h: &mut Harness) {
    let procs = 8;
    for (app, m) in [App::Water, App::Ocean, App::Cholesky]
        .into_iter()
        .flat_map(|a| Machine::BOTH.map(|m| (a, m)))
    {
        let r = h.run(m, app, procs, app.natural_mode());
        let exec = r.exec_time_s;
        println!(
            "\n{} on {} ({} procs, {:.2}s): per-processor time  [#=app  ~=comm  m=mgmt  .=idle]",
            app.name(),
            m.name(),
            procs,
            exec
        );
        const W: usize = 60;
        for (p, (a, c, m)) in r.per_proc_busy.iter().enumerate() {
            let cell = |x: f64| ((x / exec) * W as f64).round() as usize;
            let (na, nc, nm) = (cell(*a), cell(*c), cell(*m));
            let idle = W.saturating_sub(na + nc + nm);
            println!(
                "  p{p:<3} |{}{}{}{}| {:>5.1}% busy",
                "#".repeat(na),
                "~".repeat(nc),
                "m".repeat(nm),
                ".".repeat(idle),
                100.0 * (a + c + m) / exec
            );
        }
    }
}

/// The third platform of the paper's introduction: a heterogeneous
/// collection of workstations on a shared Ethernet. Jade programs run
/// unmodified; the dynamic load balancer adapts to machine speeds.
fn heterogeneous(h: &mut Harness) {
    println!("\nHeterogeneous workstations (shared 10-Mbit medium)");
    println!("  machines: speeds 1.0 / 1.0 / 2.0 / 2.0 / 4.0 (aggregate 10.0)");
    let speeds = vec![1.0, 1.0, 2.0, 2.0, 4.0];
    let agg: f64 = speeds.iter().sum();
    // Exec times with the machines as given and with all five at speed 1.
    let hetero_vs_uniform = |trace: &jade_core::Trace, cfg: IpscConfig| {
        let uniform = IpscConfig {
            speed_factors: Some(vec![1.0; 5]),
            ..cfg.clone()
        };
        let run = |cfg: &IpscConfig| jade_ipsc::run(trace, cfg).exec_time_s;
        (run(&cfg), run(&uniform))
    };
    // First, the clean case: plenty of independent coarse tasks with small
    // objects. The balancer's speed adaptivity is pure here.
    let mut b = jade_core::TraceBuilder::new();
    for i in 0..200 {
        let mut s = jade_core::AccessSpec::new();
        s.wr(b.object(&format!("w{i}"), 64, Some(i % 5)));
        b.task(s, 1.0);
    }
    let (hetero, uniform) =
        hetero_vs_uniform(&b.build(), IpscConfig::workstations(speeds.clone(), 1.0));
    println!(
        "  200 independent 1s tasks: heterogeneous {hetero:.1}s vs uniform {uniform:.1}s (ideal {:.1} vs 40.0)",
        200.0 / agg
    );
    // Panel Cholesky has thousands of tasks — surplus work the balancer can
    // shift toward the fast machines.
    let app = App::Cholesky;
    let trace = h.trace(app, speeds.len());
    let spo = app.ipsc_sec_per_op(&trace);
    let serial = trace.total_work() * spo;
    let eth = jade_ipsc::run(&trace, &IpscConfig::workstations(speeds.clone(), spo));
    println!(
        "  Cholesky ({} tasks) on the Ethernet cluster: {:.1}s vs {serial:.1}s serial —\n\
         the shared 10-Mbit wire serializes every panel transfer; fine-grained\n\
         applications lose on a network of workstations no matter the speeds",
        trace.task_count(),
        eth.exec_time_s
    );
    // Same heterogeneous machines on a switched (hypercube-class) network:
    // now the balancer's speed-adaptivity is visible.
    let fast_net = IpscConfig {
        shared_medium: false,
        machine: dsim::IpscSpec::paper(speeds.len()),
        ..IpscConfig::workstations(speeds.clone(), spo)
    };
    let (hetero, uniform) = hetero_vs_uniform(&trace, fast_net);
    println!(
        "  same machines on a switched network: heterogeneous {hetero:.1}s vs uniform {uniform:.1}s\n\
         (aggregate speed 10 vs 5: the balancer feeds fast machines more tasks;\n\
          ideal aggregate bound {:.1}s)",
        serial / agg
    );
    // Water's grain is matched to the processor count (one task per machine
    // per phase), so its phases are bound by the slowest machine — grain,
    // not scheduling, limits heterogeneity there.
    let trace = h.trace(App::Water, speeds.len());
    let spo = App::Water.ipsc_sec_per_op(&trace);
    let (hetero, uniform) = hetero_vs_uniform(&trace, IpscConfig::workstations(speeds, spo));
    println!(
        "  Water (grain = processor count): heterogeneous {hetero:.1}s vs uniform {uniform:.1}s —\n\
         each phase waits for the slowest machine's one task"
    );
}

// ---------------------------------------------------------------------------
// Sweep gates (each error names the run it judged) and the result writer
// ---------------------------------------------------------------------------

/// Gate: a run ends in the same results as its baseline (an application's
/// output, bytes moved, a replay's event stream or decision log).
fn same<T: PartialEq + ?Sized>(label: &str, what: &str, got: &T, want: &T) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    Err(format!("{label}: {what} differ from the baseline's"))
}

/// Gate: an iPSC run ends with its baseline's final object versions.
fn same_versions(label: &str, got: &IpscRunResult, want: &IpscRunResult) -> Result<(), String> {
    let (got, want) = (&got.final_versions, &want.final_versions);
    if got == want {
        return Ok(());
    }
    let differ = got.iter().zip(want).filter(|(a, b)| a != b).count();
    Err(format!(
        "{label}: final object versions diverged ({differ} objects differ)"
    ))
}

/// Gate: a run completes as many tasks as its baseline.
fn same_tasks<T: PartialEq + std::fmt::Display>(
    label: &str,
    got: T,
    want: T,
) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    Err(format!("{label}: {got} tasks completed, want {want}"))
}

/// Gate: a run is no slower than its baseline, up to 1e-9 s of rounding.
fn not_slower(label: &str, got_s: f64, base_s: f64) -> Result<(), String> {
    if got_s <= base_s + 1e-9 {
        return Ok(());
    }
    Err(format!(
        "{label}: {got_s:.6}s, slower than the baseline's {base_s:.6}s"
    ))
}

/// Write a sweep's result file, `{ fields..., "key": [rows...] }` with one
/// field or row per line, atomically: dump to `<path>.tmp`, then rename over
/// `path`, so an interrupted run never leaves a truncated file where a
/// committed one was.
fn write_rows(
    path: &str,
    fields: &[(&str, String)],
    key: &str,
    rows: &[String],
) -> Result<(), String> {
    let mut body = String::from("{\n");
    for (k, v) in fields {
        body.push_str(&format!("  \"{k}\": {v},\n"));
    }
    body.push_str(&format!("  \"{key}\": [\n"));
    for (k, r) in rows.iter().enumerate() {
        let comma = if k + 1 < rows.len() { "," } else { "" };
        body.push_str(&format!("    {r}{comma}\n"));
    }
    body.push_str("  ]\n}\n");
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, body).map_err(|e| format!("cannot write {tmp}: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot rename {tmp} -> {path}: {e}"))
}

/// The fault and checkpoint sweeps' iPSC cell: Water on eight processors at
/// the Locality level, under `plan`.
fn ipsc_water(h: &mut Harness, plan: FaultPlan) -> Result<IpscRunResult, String> {
    let (trace, cfg) = h.ipsc_config(App::Water, 8, LocalityMode::Locality);
    let cfg = IpscConfig {
        faults: plan,
        ..cfg
    };
    jade_ipsc::try_run(&trace, &cfg).map_err(|e| format!("ipsc run under {plan:?} failed: {e}"))
}

/// The threads cell of the fault, checkpoint and tune sweeps: the small
/// Water on four workers, set up by `setup`. Returns the output and the
/// runtime, for its statistics.
fn threads_water(setup: impl FnOnce(&mut ThreadRuntime)) -> (WaterOutput, ThreadRuntime) {
    let mut rt = ThreadRuntime::new(4);
    setup(&mut rt);
    (water::run_on(&mut rt, &water::WaterConfig::small(4)), rt)
}

/// Threads have no messages to lose: only `plan`'s crash rate and seed
/// apply, with `fallback_p` as the crash rate when the plan gives none.
fn crash_plan(plan: FaultPlan, fallback_p: f64) -> FaultPlan {
    let panic_p = if plan.panic_p > 0.0 {
        plan.panic_p
    } else {
        fallback_p
    };
    FaultPlan {
        panic_p,
        seed: plan.seed,
        ..FaultPlan::none()
    }
}

/// The DASH half of the aggregation and overlap sweeps: each irregular app
/// at 4 and 8 processors with `toggle` off and then on. Shared memory has
/// no messages to count, so the gates are the same tasks and the same bytes
/// moved, and no slower run. `report` prints each pair before it is judged.
fn dash_toggle(
    h: &mut Harness,
    toggle: fn(&mut DashConfig),
    mut report: impl FnMut(App, usize, &DashRunResult, &DashRunResult),
) -> Result<(), String> {
    for app in App::IRREGULAR {
        for procs in [4usize, 8] {
            let off = h.dash_with(app, procs, LocalityMode::TaskPlacement, |_| {});
            let on = h.dash_with(app, procs, LocalityMode::TaskPlacement, toggle);
            report(app, procs, &off, &on);
            let label = format!("{} x{procs} DASH", app.name());
            same_tasks(&label, on.tasks_executed, off.tasks_executed)?;
            same(&label, "bytes moved", &on.bytes_moved, &off.bytes_moved)?;
            not_slower(&label, on.exec_time_s, off.exec_time_s)?;
        }
    }
    Ok(())
}

/// Fault sweep: run one application per backend under the harness's fault
/// plan and check the headline robustness invariant — the faulty run
/// produces bit-identical application results to the fault-free run,
/// differing only in timing and retry/re-execution counters.
fn fault_sweep(h: &mut Harness) -> Result<(), String> {
    let plan = h.faults;
    println!("\nFault sweep (seed {}):", plan.seed);
    println!(
        "  plan: drop={} dup={} delay={} reorder={} stall={} fail={:?} panic={}",
        plan.drop_p,
        plan.dup_p,
        plan.delay_p,
        plan.reorder_p,
        plan.stall_p,
        plan.fail_proc,
        plan.panic_p
    );

    // iPSC/860: the full message-loss/recovery protocol.
    let clean = ipsc_water(h, FaultPlan::none())?;
    let faulty = ipsc_water(h, plan)?;
    println!(
        "  iPSC/860  Water x8: {:.2}s -> {:.2}s | dropped {} retried {} \
         discarded {} stalls {} re-executed {}",
        clean.exec_time_s,
        faulty.exec_time_s,
        faulty.msgs_dropped,
        faulty.msgs_retried,
        faulty.msgs_discarded,
        faulty.stalls,
        faulty.tasks_reexecuted
    );
    let label = "ipsc Water x8 under faults";
    same_versions(label, &faulty, &clean)?;
    let completed = faulty.tasks_executed as u64 - faulty.tasks_reexecuted;
    same_tasks(label, completed, clean.tasks_executed as u64)?;

    // DASH: shared memory has no messages to lose; the sweep maps the
    // plan's drop rate onto transient stalls when no stall component was
    // given, so the scheduler's graceful degradation is still exercised.
    let mut dash_plan = plan;
    if dash_plan.stall_p == 0.0 && dash_plan.drop_p > 0.0 {
        dash_plan.stall_p = dash_plan.drop_p;
        dash_plan.stall = SimDuration::from_secs_f64(0.002);
    }
    let clean = h.dash_with(App::Ocean, 8, LocalityMode::Locality, |_| {});
    let faulty = h.dash_with(App::Ocean, 8, LocalityMode::Locality, |c| {
        c.faults = dash_plan
    });
    println!(
        "  DASH      Ocean x8: {:.2}s -> {:.2}s | stalls {} ({:.3}s)",
        clean.exec_time_s, faulty.exec_time_s, faulty.stalls, faulty.stall_time_s
    );
    let label = "dash Ocean x8 under stalls";
    same_tasks(label, faulty.tasks_executed, clean.tasks_executed)?;

    // jade-threads: real parallel execution with injected worker crashes.
    // Message loss has no analog on threads either, so the drop rate maps
    // onto the per-attempt crash probability when no panic rate was given.
    let crash = crash_plan(plan, plan.drop_p);
    let (clean, _) = threads_water(|_| {});
    let (faulty, rt) = threads_water(|rt| rt.inject_faults(crash));
    let stats = rt.last_stats();
    println!(
        "  threads   Water x4 (crash p={}): {} attempts, {} recoveries",
        crash.panic_p, stats.executed, stats.recoveries
    );
    same("threads Water x4 under crashes", "outputs", &faulty, &clean)?;

    println!("  fault sweep passed: results bit-identical to fault-free runs");
    Ok(())
}

/// Checkpoint sweep: cross the fault plan with checkpoint intervals and
/// check the tentpole invariant — any fail-stop plan at any checkpoint
/// interval produces results bit-identical to the fault-free run, and
/// checkpoints never cause more re-execution than the checkpoint-free
/// recovery path. Prints one row per interval with the capture/restore
/// economics.
fn checkpoint_sweep(h: &mut Harness) -> Result<(), String> {
    let plan = h.faults;
    let intervals = h.checkpoint_intervals.clone();
    println!("\nCheckpoint sweep (seed {}):", plan.seed);

    // iPSC/860: sim-time checkpoint intervals against a fail-stop.
    let clean = ipsc_water(h, FaultPlan::none())?;
    let mut base_plan = FaultPlan {
        checkpoint: None,
        ..plan
    };
    if base_plan.fail_proc.is_none() {
        // The sweep is about fail-stop recovery: without one in the
        // plan, inject a mid-run failure of the last processor.
        base_plan.fail_proc = Some(7);
        base_plan.fail_at = SimDuration::from_secs_f64(0.4 * clean.exec_time_s);
        println!(
            "  (plan has no fail-stop: adding fail=7@{:.2} so recovery is exercised)",
            0.4 * clean.exec_time_s
        );
    }
    println!(
        "  iPSC/860 Water x8 (clean {:.2}s):\n  {:>8} {:>6} {:>12} {:>12} {:>9} {:>7} {:>9}",
        clean.exec_time_s,
        "ckpt(s)",
        "taken",
        "ckpt bytes",
        "restore B",
        "ckpt-hit",
        "re-exec",
        "exec(s)"
    );
    let report = |label: &str, r: &IpscRunResult| {
        println!(
            "  {label:>8} {:>6} {:>12} {:>12} {:>9} {:>7} {:>9.2}",
            r.checkpoints,
            r.checkpoint_bytes,
            r.restore_bytes,
            r.checkpoint_restores,
            r.tasks_reexecuted,
            r.exec_time_s
        );
    };
    let base = ipsc_water(h, base_plan)?;
    report("none", &base);
    let label = "ipsc Water x8 without checkpoints";
    same_versions(label, &base, &clean)?;
    for &iv in &intervals {
        let r = ipsc_water(h, base_plan.with_checkpoint(SimDuration::from_secs_f64(iv)))?;
        report(&format!("{iv}"), &r);
        let label = format!("ipsc Water x8 ckpt={iv}");
        same_versions(&label, &r, &clean)?;
        let completed = r.tasks_executed as u64 - r.tasks_reexecuted;
        same_tasks(&label, completed, clean.tasks_executed as u64)?;
        if r.tasks_reexecuted > base.tasks_reexecuted {
            return Err(format!(
                "{label}: re-executed {} tasks vs {} without checkpoints",
                r.tasks_reexecuted, base.tasks_reexecuted
            ));
        }
    }

    // jade-threads: the same intervals map to completed-task counts.
    let crash = crash_plan(plan, 0.2);
    let (clean, _) = threads_water(|_| {});
    let (base_out, base_rt) = threads_water(|rt| rt.inject_faults(crash));
    let base = base_rt.last_stats();
    same(
        "threads Water x4 without checkpoints",
        "outputs",
        &base_out,
        &clean,
    )?;
    for &iv in &intervals {
        let every = (iv.round() as usize).max(1);
        let (out, rt) = threads_water(|rt| {
            rt.inject_faults(crash);
            rt.checkpoint_every(every);
        });
        let s = rt.last_stats();
        println!(
            "  threads  Water x4 ckpt every {every} tasks: {} checkpoints, \
             {} recoveries ({} from checkpoint)",
            s.checkpoints, s.recoveries, s.checkpoint_restores
        );
        let label = format!("threads Water x4 ckpt every {every}");
        same(&label, "outputs", &out, &clean)?;
        if s.recoveries > base.recoveries {
            return Err(format!(
                "{label}: recovered {} tasks vs {} without",
                s.recoveries, base.recoveries
            ));
        }
    }

    println!("  checkpoint sweep passed: bit-identical results, re-execution bounded");
    Ok(())
}

/// Aggregation sweep (DESIGN.md §15): run the two irregular applications
/// with the inspector/executor fetch-aggregation pass off and on, and
/// check the tentpole invariants — coalescing changes message *counts*
/// only, never the application result or the object bytes on the wire.
/// The headline gate: on PageRank the iPSC message count must drop by at
/// least 2× (the gather tasks read ~3 contribution buckets per owner, so
/// one bundle replaces ~3 request/reply pairs). CI greps the PASS marker.
fn aggregation_sweep(h: &mut Harness) -> Result<(), String> {
    println!("\nAggregation sweep: iPSC/860 message coalescing");
    let mut pagerank_msgs = (0u64, 0u64);
    for app in App::IRREGULAR {
        for procs in [2usize, 4, 8, 16] {
            let mode = LocalityMode::TaskPlacement;
            let off = h.ipsc_with(app, procs, mode, |_| {});
            let on = h.ipsc_with(app, procs, mode, |c| c.aggregate_fetches = true);
            // Physical messages carrying the fetch protocol: one request
            // plus one reply per uncoalesced fetch; one of each per bundle.
            let msgs_off = off.requests + off.fetch_messages;
            let msgs_on = on.requests + on.fetch_messages;
            let reduction = msgs_off as f64 / (msgs_on.max(1)) as f64;
            println!(
                "  {:>8} x{procs:<2}: msgs {msgs_off} -> {msgs_on} ({reduction:.1}x) | \
                 bundles {} carrying {} objects | bytes {} -> {} | {:.2}s -> {:.2}s",
                app.name(),
                on.agg_fetches,
                on.agg_objects,
                off.comm_bytes,
                on.comm_bytes,
                off.exec_time_s,
                on.exec_time_s
            );
            let label = format!("{} x{procs} with aggregation", app.name());
            same_versions(&label, &on, &off)?;
            same_tasks(&label, on.tasks_executed, off.tasks_executed)?;
            // Coalescing changes when replies land, which perturbs the
            // redundant-fetch elision window between same-processor tasks
            // (in both directions), so the byte totals agree only up to
            // that jitter. Exact within-run conservation — every coalesced
            // payload byte attributed to its object and summing to the
            // metrics total — is pinned by tests/aggregation.rs.
            if off.comm_bytes.abs_diff(on.comm_bytes) * 10 > off.comm_bytes {
                return Err(format!(
                    "{label}: object bytes not conserved ({} vs {} without; > 10% apart)",
                    on.comm_bytes, off.comm_bytes
                ));
            }
            if procs >= 4 && msgs_on >= msgs_off {
                return Err(format!(
                    "{label}: messages not reduced ({msgs_off} -> {msgs_on})"
                ));
            }
            if app == App::Pagerank {
                pagerank_msgs.0 += msgs_off;
                pagerank_msgs.1 += msgs_on;
            }
        }
    }

    // DASH: same toggle; the win is streamed cache-line transfers.
    dash_toggle(
        h,
        |c| c.aggregate_fetches = true,
        |app, procs, off, on| {
            println!(
                "  {:>8} x{procs:<2} DASH: {:.2}s -> {:.2}s | bytes {} -> {}",
                app.name(),
                off.exec_time_s,
                on.exec_time_s,
                off.bytes_moved,
                on.bytes_moved
            );
        },
    )?;

    let pagerank_reduction = pagerank_msgs.0 as f64 / (pagerank_msgs.1.max(1)) as f64;
    if pagerank_reduction < 2.0 {
        return Err(format!(
            "aggregation gate failed: pagerank msg reduction {pagerank_reduction:.1}x < 2.0x \
             ({} -> {} messages over the processor sweep)",
            pagerank_msgs.0, pagerank_msgs.1
        ));
    }
    println!("PASS aggregation: pagerank msg reduction {pagerank_reduction:.1}x (>= 2.0x)");
    println!("  aggregation sweep passed: counts coalesced, results and bytes conserved");
    Ok(())
}

/// One `OVERLAP_sweep.json` row: exec times off/on and the on-run's
/// (overlap fraction, prefetches issued, hits, stale).
fn overlap_row(
    backend: &str,
    app: App,
    procs: usize,
    exec: (f64, f64),
    on: (f64, u64, u64, u64),
) -> String {
    format!(
        "{{\"backend\": \"{backend}\", \"app\": \"{}\", \"procs\": {procs}, \
         \"exec_off_s\": {:.6}, \"exec_on_s\": {:.6}, \"overlap_frac\": {:.6}, \
         \"prefetches\": {}, \"hits\": {}, \"stale\": {}}}",
        app.name(),
        exec.0,
        exec.1,
        on.0,
        on.1,
        on.2,
        on.3
    )
}

/// Overlap sweep (DESIGN.md §17): run all six applications with the
/// split-phase prefetch path off and on, and check the tentpole
/// invariants — issuing fetches at task-enable time may only *hide*
/// communication latency under computation, never change the application
/// result or make any run slower. The on-run replays the off-run's
/// schedule ([`Harness::ipsc_controlled`]): with placement and
/// per-processor start order held fixed, the comparison isolates the
/// communication effect of prefetching from Graham list-scheduling
/// anomalies, and earlier data arrival can only move starts earlier.
/// Hard gates: bit-identical final object versions, prefetch-on simulated
/// time <= prefetch-off on every app/processor point, and a strictly
/// positive overlap fraction (comm time hidden under busy spans) on the
/// two irregular applications.
/// Also checks composition with fetch aggregation (§15) and the DASH
/// prefetch-stream path (bytes on the wire bit-identical, stalls only
/// shrink). Writes the per-point numbers to `OVERLAP_sweep.json`.
fn overlap_sweep(h: &mut Harness) -> Result<(), String> {
    println!("\nOverlap sweep: split-phase prefetch, comm/comp overlap");
    let mut rows: Vec<String> = Vec::new();
    let mut issued_total = 0u64;
    let (mut pagerank_overlap, mut halo_overlap) = (0.0f64, 0.0f64);

    for app in App::ALL.into_iter().chain(App::IRREGULAR) {
        for procs in [2usize, 4, 8, 16] {
            let (off, on) = h.ipsc_controlled(
                app,
                procs,
                app.natural_mode(),
                |_| {},
                |c| c.prefetch = true,
            );
            println!(
                "  {:>8} x{procs:<2}: {:.3}s -> {:.3}s | prefetches {} ({} hit, {} stale) | \
                 overlap {:.0}%",
                app.name(),
                off.exec_time_s,
                on.exec_time_s,
                on.prefetches_issued,
                on.prefetch_hits,
                on.prefetch_stale,
                on.overlap_frac * 100.0
            );
            let label = format!("{} x{procs} with prefetch", app.name());
            same_versions(&label, &on, &off)?;
            same_tasks(&label, on.tasks_executed, off.tasks_executed)?;
            not_slower(&label, on.exec_time_s, off.exec_time_s)?;
            issued_total += on.prefetches_issued;
            match app {
                App::Pagerank => pagerank_overlap = pagerank_overlap.max(on.overlap_frac),
                App::Halo => halo_overlap = halo_overlap.max(on.overlap_frac),
                _ => {}
            }
            rows.push(overlap_row(
                "ipsc",
                app,
                procs,
                (off.exec_time_s, on.exec_time_s),
                (
                    on.overlap_frac,
                    on.prefetches_issued,
                    on.prefetch_hits,
                    on.prefetch_stale,
                ),
            ));
        }
    }
    if issued_total == 0 {
        return Err("prefetch path never fired across the whole sweep".into());
    }

    // Composition with the inspector/executor aggregation pass (§15): the
    // prefetcher issues bundled fetches, and the combination must keep the
    // result bit-identical while never running slower than aggregation
    // alone.
    for app in App::IRREGULAR {
        for procs in [4usize, 8] {
            let (base, both) = h.ipsc_controlled(
                app,
                procs,
                LocalityMode::TaskPlacement,
                |c| c.aggregate_fetches = true,
                |c| c.prefetch = true,
            );
            println!(
                "  {:>8} x{procs:<2} +agg: {:.3}s -> {:.3}s | prefetches {}",
                app.name(),
                base.exec_time_s,
                both.exec_time_s,
                both.prefetches_issued
            );
            let label = format!("{} x{procs} with prefetch on aggregation", app.name());
            same_versions(&label, &both, &base)?;
            not_slower(&label, both.exec_time_s, base.exec_time_s)?;
        }
    }

    // DASH: prefetch streams remote lines toward the target cluster at
    // enable time. Directory traffic is bit-identical — only stalls shrink.
    dash_toggle(
        h,
        |c| c.prefetch = true,
        |app, procs, off, on| {
            println!(
                "  {:>8} x{procs:<2} DASH: {:.3}s -> {:.3}s | bytes {} -> {} | \
             prefetches {} ({} hit)",
                app.name(),
                off.exec_time_s,
                on.exec_time_s,
                off.bytes_moved,
                on.bytes_moved,
                on.prefetches_issued,
                on.prefetch_hits
            );
            rows.push(overlap_row(
                "dash",
                app,
                procs,
                (off.exec_time_s, on.exec_time_s),
                (
                    on.overlap_frac,
                    on.prefetches_issued,
                    on.prefetch_hits,
                    on.prefetch_stale,
                ),
            ));
        },
    )?;

    if pagerank_overlap <= 0.0 || halo_overlap <= 0.0 {
        return Err(format!(
            "overlap gate failed: prefetch hid no communication on the irregular apps \
             (pagerank {pagerank_overlap:.4}, halo {halo_overlap:.4})"
        ));
    }
    write_rows("OVERLAP_sweep.json", &[], "rows", &rows)?;
    println!("  wrote OVERLAP_sweep.json ({} points)", rows.len());

    println!(
        "PASS overlap: {issued_total} prefetches issued, no run slower, results bit-identical, \
         overlap pagerank {:.0}% / halo {:.0}%",
        pagerank_overlap * 100.0,
        halo_overlap * 100.0
    );
    println!("  overlap sweep passed: communication hidden, never added");
    Ok(())
}
// ---------------------------------------------------------------------------
// Multi-tenant service stress (DESIGN.md §16)
// ---------------------------------------------------------------------------

/// Tenant classes mixed into the stress stream, keyed by DAG index so the
/// mix is deterministic and every submitter thread sees every class.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TenantClass {
    /// Plain DAG: must complete with bit-exact output and zero recoveries.
    Clean,
    /// Injected crashes (`panic_p`): must still complete bit-exact.
    Faulty,
    /// Zero wall-clock budget: must cancel before any task completes.
    Deadline,
    /// A genuinely buggy task body: must fail alone; the pool survives.
    Buggy,
}

impl TenantClass {
    fn of(i: usize) -> TenantClass {
        match i % 10 {
            7 => TenantClass::Faulty,
            8 => TenantClass::Deadline,
            9 => TenantClass::Buggy,
            _ => TenantClass::Clean,
        }
    }

    fn name(self) -> &'static str {
        match self {
            TenantClass::Clean => "clean",
            TenantClass::Faulty => "faulty",
            TenantClass::Deadline => "deadline",
            TenantClass::Buggy => "buggy",
        }
    }
}

/// A few microseconds of busy work per task, so the shared pool drains
/// slower than the submitters produce and backpressure genuinely engages.
fn stress_spin() {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..6_000 {
        x = std::hint::black_box(x)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    std::hint::black_box(x);
}

/// Serial chain folding task indices into one accumulator.
fn stress_chain(len: usize) -> (Program, Handle<u64>, u64) {
    let mut prog = Program::new();
    let h = prog.create("acc", 8, 0u64);
    let mut want = 0u64;
    for i in 0..len {
        want = want.wrapping_mul(31).wrapping_add(i as u64 + 1);
        prog.submit(TaskBuilder::new("svc-chain").rd_wr(h).body(move |ctx| {
            stress_spin();
            let mut v = ctx.wr(h);
            *v = v.wrapping_mul(31).wrapping_add(i as u64 + 1);
        }));
    }
    (prog, h, want)
}

/// Fan-out / fan-in: `w` independent writers joined by one summing task.
fn stress_diamond(w: usize) -> (Program, Handle<u64>, u64) {
    let mut prog = Program::new();
    let slots: Vec<Handle<u64>> = (0..w)
        .map(|i| prog.create(format!("slot{i}"), 8, 0u64))
        .collect();
    let acc = prog.create("acc", 8, 0u64);
    for (i, &s) in slots.iter().enumerate() {
        prog.submit(TaskBuilder::new("svc-fan").wr(s).body(move |ctx| {
            stress_spin();
            *ctx.wr(s) = (i as u64 + 1) * (i as u64 + 1);
        }));
    }
    let mut join = TaskBuilder::new("svc-join").rd_wr(acc);
    for &s in &slots {
        join = join.rd(s);
    }
    prog.submit(join.body(move |ctx| {
        let mut sum = 0u64;
        for &s in &slots {
            sum = sum.wrapping_add(*ctx.rd(s));
        }
        *ctx.wr(acc) = sum;
    }));
    let want = (1..=w as u64).map(|i| i * i).fold(0u64, u64::wrapping_add);
    (prog, acc, want)
}

/// One good task, then a task whose body has a real bug.
fn stress_buggy() -> (Program, Handle<u64>, u64) {
    let mut prog = Program::new();
    let h = prog.create("acc", 8, 0u64);
    prog.submit(TaskBuilder::new("svc-ok").rd_wr(h).body(move |ctx| {
        *ctx.wr(h) += 1;
    }));
    prog.submit(TaskBuilder::new("svc-bug").rd_wr(h).body(move |_ctx| {
        panic!("tenant bug");
    }));
    (prog, h, 0)
}

fn stress_program(class: TenantClass, i: usize) -> (Program, Handle<u64>, u64) {
    match class {
        TenantClass::Buggy => stress_buggy(),
        _ if i.is_multiple_of(3) => stress_diamond(3 + i % 5),
        _ => stress_chain(3 + i % 8),
    }
}

fn outcome_name(o: &Outcome) -> &'static str {
    match o {
        Outcome::Completed => "completed",
        Outcome::DeadlineExceeded => "deadline_exceeded",
        Outcome::Failed(_) => "failed",
        Outcome::Shed => "shed",
    }
}

/// One tenant awaiting `wait()`: id, class, output handle, expected output,
/// task count.
type Inflight = (TenantId, TenantClass, Handle<u64>, u64, usize);

/// Per-tenant JSON row: id, class, outcome, tasks, completed, recoveries.
type TenantRow = (u32, TenantClass, &'static str, usize, usize, usize);

/// What the submitter threads collect: failed per-tenant checks, the event
/// streams of completed tenants, the JSON rows, and two counters.
#[derive(Default)]
struct Tally {
    errors: Mutex<Vec<String>>,
    tagged: Mutex<Vec<TaggedEvent>>,
    rows: Mutex<Vec<TenantRow>>,
    overloads: AtomicUsize,
    recoveries: AtomicUsize,
}

impl Tally {
    /// Wait for every in-flight tenant and verify its report against its
    /// class.
    fn settle(&self, svc: &JadeService, inflight: &mut Vec<Inflight>) {
        for (id, class, want_h, want, tasks) in inflight.drain(..) {
            let r = svc.wait(id);
            let fail = |why: String| {
                self.errors
                    .lock()
                    .unwrap()
                    .push(format!("tenant {id} ({}): {why}", class.name()));
            };
            match class {
                TenantClass::Clean | TenantClass::Faulty => {
                    if r.outcome != Outcome::Completed {
                        fail(format!("outcome {:?}, want Completed", r.outcome));
                    } else {
                        let got = *r.store.read(want_h);
                        if got != want {
                            fail(format!("output {got:#x}, want {want:#x}"));
                        }
                        if r.tasks_completed != tasks {
                            fail(format!("{}/{tasks} tasks completed", r.tasks_completed));
                        }
                        if class == TenantClass::Clean && r.recoveries != 0 {
                            fail(format!("{} recoveries without a fault plan", r.recoveries));
                        }
                        self.tagged.lock().unwrap().extend(r.tagged_events());
                    }
                    self.recoveries.fetch_add(r.recoveries, Ordering::Relaxed);
                }
                TenantClass::Deadline => {
                    if r.outcome != Outcome::DeadlineExceeded {
                        fail(format!("outcome {:?}, want DeadlineExceeded", r.outcome));
                    }
                    if r.tasks_completed != 0 {
                        fail(format!(
                            "{} tasks completed under a zero budget",
                            r.tasks_completed
                        ));
                    }
                    if r.tasks_cancelled != tasks {
                        fail(format!("{}/{tasks} tasks cancelled", r.tasks_cancelled));
                    }
                }
                TenantClass::Buggy => match &r.outcome {
                    Outcome::Failed(msg) if msg.contains("tenant bug") => {}
                    other => fail(format!("outcome {other:?}, want Failed(tenant bug)")),
                },
            }
            self.rows.lock().unwrap().push((
                id.0,
                class,
                outcome_name(&r.outcome),
                r.tasks_total,
                r.tasks_completed,
                r.recoveries,
            ));
        }
    }
}

/// `repro service-stress`: thousands of independent DAGs from concurrent
/// submitters over one shared worker pool, with injected-fault, zero-
/// deadline and genuinely buggy tenants mixed in. Hard gates: every clean
/// and faulty tenant completes bit-exact, every deadline tenant cancels
/// with zero completions, every buggy tenant fails alone, backpressure
/// engages at least once, per-tenant lifecycle/conservation checks are
/// green, and event-stream re-executions reconcile with reported
/// recoveries. Writes `SERVICE_tenants.json` (per-tenant metrics artifact).
fn service_stress(h: &mut Harness) -> Result<(), String> {
    let total: usize = if h.quick { 400 } else { 3000 };
    let submitters = 4usize;
    let workers = 4usize;
    let batch = 16usize;

    println!("\nMulti-tenant service stress");
    println!(
        "  {total} DAGs from {submitters} submitters over {workers} workers \
         (max_active=6, max_pending=8, shed=reject-new)"
    );

    let mut cfg = ServiceConfig::new(workers);
    cfg.max_active = 6;
    cfg.max_pending = 8; // deliberately tight: backpressure must engage
    cfg.shed = ShedPolicy::RejectNew;
    let svc = JadeService::new(cfg);

    // Buggy tenants genuinely panic inside pool workers; the default hook
    // would spray backtraces over the report. Silence it for the duration.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let tally = Tally::default();
    std::thread::scope(|s| {
        for t in 0..submitters {
            let (svc, tally) = (&svc, &tally);
            s.spawn(move || {
                let mut inflight: Vec<Inflight> = Vec::new();
                let mut i = t;
                while i < total {
                    let class = TenantClass::of(i);
                    let mut opts = TenantOptions::default().with_weight(1 + (i % 3) as u32);
                    match class {
                        TenantClass::Faulty => {
                            opts = opts.with_faults(FaultPlan {
                                panic_p: 0.3,
                                seed: 0x5eed + i as u64,
                                ..FaultPlan::none()
                            });
                        }
                        TenantClass::Deadline => opts = opts.with_deadline(Duration::ZERO),
                        _ => {}
                    }
                    let admitted = loop {
                        // Rebuilt per attempt: `submit` consumes the program.
                        let (prog, want_h, want) = stress_program(class, i);
                        let tasks = prog.task_count();
                        match svc.submit(prog, opts.clone()) {
                            Ok(id) => break Some((id, class, want_h, want, tasks)),
                            Err(SubmitError::Overloaded { .. }) => {
                                tally.overloads.fetch_add(1, Ordering::Relaxed);
                                // Overload is backpressure, not failure:
                                // settle our own backlog and try again.
                                tally.settle(svc, &mut inflight);
                                std::thread::sleep(Duration::from_micros(100));
                            }
                            Err(e) => {
                                let why = format!("DAG {i} rejected: {e}");
                                tally.errors.lock().unwrap().push(why);
                                break None;
                            }
                        }
                    };
                    inflight.extend(admitted);
                    if inflight.len() >= batch {
                        tally.settle(svc, &mut inflight);
                    }
                    i += submitters;
                }
                tally.settle(svc, &mut inflight);
            });
        }
    });

    std::panic::set_hook(default_hook);
    svc.shutdown();

    let errors = tally.errors.into_inner().unwrap();
    if !errors.is_empty() {
        for e in errors.iter().take(10) {
            println!("  FAIL {e}");
        }
        return Err(format!(
            "service stress: {} per-tenant check(s) failed",
            errors.len()
        ));
    }

    let tagged = tally.tagged.into_inner().unwrap();
    let mut rows = tally.rows.into_inner().unwrap();
    rows.sort_by_key(|r| r.0);
    same("service stress", "report count", &rows.len(), &total)?;

    // The class mix is a pure function of the index, so the outcome tallies
    // are exact, not statistical.
    let mut want_mix = [0usize; 4];
    for i in 0..total {
        want_mix[TenantClass::of(i) as usize] += 1;
    }
    let mut got_mix = [0usize; 4];
    for r in &rows {
        got_mix[r.1 as usize] += 1;
    }
    same("service stress", "class mix", &got_mix, &want_mix)?;
    let count = |outcome| rows.iter().filter(|r| r.2 == outcome).count();
    let (completed, deadline, failed) = (
        count("completed"),
        count("deadline_exceeded"),
        count("failed"),
    );
    let want = (
        want_mix[TenantClass::Clean as usize] + want_mix[TenantClass::Faulty as usize],
        want_mix[TenantClass::Deadline as usize],
        want_mix[TenantClass::Buggy as usize],
    );
    same(
        "service stress",
        "outcome tallies",
        &(completed, deadline, failed),
        &want,
    )?;

    // Per-tenant event streams of every completed tenant: lifecycle chains,
    // span conservation, and counter self-consistency.
    check_lifecycle_per_tenant(&tagged).map_err(|e| format!("lifecycle: {e}"))?;
    check_conservation_per_tenant(&tagged, workers).map_err(|e| format!("conservation: {e}"))?;
    let mut metric_reexecs = 0usize;
    for (t, m) in Metrics::per_tenant(&tagged, workers) {
        let label = format!("tenant {t} event stream");
        same_tasks(&label, m.tasks_completed, m.tasks_created)?;
        let attempts = m.tasks_completed + m.tasks_reexecuted as usize;
        same_tasks(&format!("{label} starts"), m.tasks_started, attempts)?;
        metric_reexecs += m.tasks_reexecuted as usize;
    }
    let recov = tally.recoveries.into_inner();
    let label = "service stress event streams";
    same_tasks(label, metric_reexecs, recov)?;
    let overload_n = tally.overloads.into_inner();
    if overload_n == 0 {
        return Err("backpressure never engaged: no Overloaded rejection all run".to_string());
    }
    if recov == 0 {
        return Err("no injected-crash recoveries: the fault mix never fired".to_string());
    }

    // Heavy-skew fairness: a weight-8 tenant with a big DAG against a
    // weight-1 tenant on one worker with the tuned policy, so dispatch
    // order *is* the fairness policy. The controller's credit cap must
    // bound the heavy tenant's bursts (the ROADMAP starvation note).
    let skew_gap = {
        use std::sync::{Arc, Condvar};
        let mut cfg = ServiceConfig::new(1);
        cfg.tune = true;
        let svc = JadeService::new(cfg);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let mut blocker = Program::new();
        let hb = blocker.create("b", 8, 0u64);
        let g = Arc::clone(&gate);
        blocker.submit(TaskBuilder::new("block").rd_wr(hb).body(move |_| {
            let (m, cv) = &*g;
            let mut open = m.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        }));
        let wide = |n: usize| {
            let mut prog = Program::new();
            let hs: Vec<Handle<u64>> = (0..n)
                .map(|i| prog.create(format!("s{i}"), 8, 0u64))
                .collect();
            for (i, &hh) in hs.iter().enumerate() {
                prog.submit(TaskBuilder::new("wide").rd_wr(hh).body(move |ctx| {
                    *ctx.wr(hh) = i as u64 + 1;
                }));
            }
            prog
        };
        let b = svc
            .submit(blocker, TenantOptions::default())
            .map_err(|e| format!("skew blocker rejected: {e}"))?;
        while svc.active_len() == 0 {
            std::thread::yield_now();
        }
        let heavy = svc
            .submit(wide(64), TenantOptions::default().with_weight(8))
            .map_err(|e| format!("skew heavy tenant rejected: {e}"))?;
        let light = svc
            .submit(wide(16), TenantOptions::default().with_weight(1))
            .map_err(|e| format!("skew light tenant rejected: {e}"))?;
        {
            let (m, cv) = &*gate;
            *m.lock().unwrap() = true;
            cv.notify_all();
        }
        let _ = svc.wait(b);
        let mut skew_tagged = svc.wait(heavy).tagged_events();
        skew_tagged.extend(svc.wait(light).tagged_events());
        skew_tagged.sort_by_key(|te| te.event.time_ps);
        let dispatches: Vec<TenantId> = skew_tagged
            .iter()
            .filter(|te| matches!(te.event.kind, jade_core::EventKind::TaskDispatched { .. }))
            .map(|te| te.tenant)
            .collect();
        let light_picks: Vec<usize> = dispatches
            .iter()
            .enumerate()
            .filter(|(_, &t)| t == light)
            .map(|(i, _)| i)
            .collect();
        let max_gap = light_picks
            .windows(2)
            .map(|p| p[1] - p[0])
            .max()
            .unwrap_or(0);
        // Between two light dispatches both tenants are continuously ready,
        // so the cap (CREDIT_CAP_MAX / 2 ready tenants) bounds every heavy
        // stretch even though heavy's weight is 8.
        let bound = (jade_core::tune::CREDIT_CAP_MAX / 2) as usize + 1;
        if max_gap > bound {
            return Err(format!(
                "skewed scenario: light tenant starved, dispatch gap {max_gap} > {bound}"
            ));
        }
        let log = svc.tune_log();
        log.check_ranges()
            .map_err(|e| format!("skewed scenario: {e}"))?;
        if log.decisions.is_empty() {
            return Err("skewed scenario: tuned service recorded no decisions".into());
        }
        svc.shutdown();
        println!(
            "  skewed scenario: weight 8-vs-1, max light-tenant dispatch gap \
             {max_gap} (bound {bound})"
        );
        max_gap
    };

    let tenants: Vec<String> = rows
        .iter()
        .map(|(id, class, outcome, tasks, done, rec)| {
            format!(
                "{{ \"tenant\": {id}, \"class\": \"{}\", \"outcome\": \"{outcome}\", \
                 \"tasks\": {tasks}, \"completed\": {done}, \"recoveries\": {rec} }}",
                class.name()
            )
        })
        .collect();
    let fields = [
        ("schema", "\"jade-service-stress/v1\"".to_string()),
        ("quick", h.quick.to_string()),
        ("dags", total.to_string()),
        ("workers", workers.to_string()),
        ("submitters", submitters.to_string()),
        ("overload_rejections", overload_n.to_string()),
        ("recoveries", recov.to_string()),
        (
            "outcomes",
            format!(
                "{{ \"completed\": {completed}, \"deadline_exceeded\": {deadline}, \
                 \"failed\": {failed} }}"
            ),
        ),
        ("skew_max_dispatch_gap", skew_gap.to_string()),
    ];
    write_rows("SERVICE_tenants.json", &fields, "tenants", &tenants)?;
    println!("  wrote SERVICE_tenants.json ({} tenants)", rows.len());

    println!(
        "PASS service-stress: {total} DAGs ({completed} completed, {deadline} \
         deadline-exceeded, {failed} failed), {overload_n} overload rejections, \
         {recov} recoveries, skew gap {skew_gap}, per-tenant \
         lifecycle/conservation green"
    );
    Ok(())
}

/// Tune sweep (DESIGN.md §19): on every application, cross a static grid of
/// hand-set knob values (adaptive-broadcast evidence margin × checkpoint
/// interval) under one fault plan, then run the feedback controller against
/// the same plan. The hard gate: the controller's virtual makespan lands
/// within 5% of the best static setting in the grid, controller-on runs are
/// bit-identical across repeats (event streams, counters, decision logs),
/// application results match the controller-off runs, and every tuned knob
/// stays inside its documented range. The threaded backend is checked for
/// the same determinism/parity contract on real OS threads. Emits
/// `TUNE_sweep.json` and the `PASS tune:` marker CI greps.
fn tune_sweep(h: &mut Harness) -> Result<(), String> {
    println!("\nTune sweep: controller vs static knob grid (iPSC/860)");
    let procs = 8;
    /// Message-drop seeds every setting is averaged over (see the scoring
    /// note at the grid loop below).
    const SEEDS: &[u64] = &[11, 12, 13];
    let margins: &[u32] = if h.quick { &[0, 2] } else { &[0, 1, 2] };
    let mults: &[f64] = if h.quick {
        &[0.5, 2.0]
    } else {
        &[0.5, 1.0, 2.0, 4.0]
    };
    let mut rows: Vec<String> = Vec::new();
    let mut worst_ratio = 0.0f64;
    println!(
        "  {:>14} {:>10} {:>12} {:>10} {:>7} {:>10}",
        "app", "static(s)", "grid", "tuned(s)", "ratio", "decisions"
    );
    for app in App::ALL.into_iter().chain(App::IRREGULAR) {
        let (trace, base_cfg) = h.ipsc_config(app, procs, app.natural_mode());
        let clean = jade_ipsc::try_run(&trace, &base_cfg)
            .map_err(|e| format!("{} clean run failed: {e}", app.name()))?;
        // One fault-plan family per app, sized to its makespan: a mid-run
        // fail-stop, light message loss, and a checkpoint chain to tune.
        // Every setting is scored as the mean over a few drop seeds: one
        // dropped message can move a small run by a whole retry timeout,
        // and scoring single samples would hand the static side the luck
        // of `grid × seeds` draws while the controller gets one. Means
        // compare the policies, not the draws.
        let base_iv = (0.15 * clean.exec_time_s).max(1e-6);
        let mk_plan = |seed: u64| FaultPlan {
            drop_p: 0.02,
            fail_proc: Some(procs - 1),
            fail_at: SimDuration::from_secs_f64(0.4 * clean.exec_time_s),
            seed,
            checkpoint: Some(SimDuration::from_secs_f64(base_iv)),
            ..FaultPlan::none()
        };
        // Static grid: every (evidence margin, checkpoint interval) pair.
        let mut best: Option<(f64, u32, f64)> = None;
        for &m in margins {
            for &k in mults {
                let mut sum = 0.0;
                for &seed in SEEDS {
                    let mut cfg = base_cfg.clone();
                    cfg.faults =
                        mk_plan(seed).with_checkpoint(SimDuration::from_secs_f64(base_iv * k));
                    cfg.evidence_margin = m;
                    let label =
                        format!("{} static run (margin {m}, x{k}, seed {seed})", app.name());
                    let r =
                        jade_ipsc::try_run(&trace, &cfg).map_err(|e| format!("{label}: {e}"))?;
                    same_versions(&label, &r, &clean)?;
                    sum += r.exec_time_s;
                }
                let mean = sum / SEEDS.len() as f64;
                if best.is_none_or(|(b, _, _)| mean < b) {
                    best = Some((mean, m, k));
                }
            }
        }
        let (best_s, best_m, best_k) = best.expect("grid is non-empty");
        // Controller on, over the same seeds; the first seed runs twice
        // because tuned runs must be bit-identical end to end.
        let mut tuned_sum = 0.0;
        let mut first: Option<IpscRunResult> = None;
        for (si, &seed) in SEEDS.iter().enumerate() {
            let mut tuned_cfg = base_cfg.clone();
            tuned_cfg.faults = mk_plan(seed);
            tuned_cfg.tune = true;
            let label = format!("{} tuned run (seed {seed})", app.name());
            let (t1, e1) = jade_ipsc::try_run_traced(&trace, &tuned_cfg)
                .map_err(|e| format!("{label}: {e}"))?;
            if si == 0 {
                let (t2, e2) = jade_ipsc::try_run_traced(&trace, &tuned_cfg)
                    .map_err(|e| format!("{label} repeat: {e}"))?;
                same(&label, "event streams of a repeat", &e2, &e1)?;
                same(&label, "decision logs of a repeat", &t2.tune, &t1.tune)?;
            }
            if t1.tune.decisions.is_empty() {
                return Err(format!("{label}: controller took no decisions"));
            }
            t1.tune
                .check_ranges()
                .map_err(|e| format!("{label}: {e}"))?;
            same_versions(&label, &t1, &clean)?;
            tuned_sum += t1.exec_time_s;
            first.get_or_insert(t1);
        }
        let tuned_s = tuned_sum / SEEDS.len() as f64;
        let t1 = first.expect("at least one seed");
        let ratio = tuned_s / best_s;
        worst_ratio = worst_ratio.max(ratio);
        println!(
            "  {:>14} {:>10.3} {:>12} {:>10.3} {:>7.3} {:>10}",
            app.name(),
            best_s,
            format!("m{best_m} x{best_k}"),
            tuned_s,
            ratio,
            t1.tune.decisions.len()
        );
        if ratio > 1.05 {
            return Err(format!(
                "{}: tuned makespan {:.4}s misses the best static {:.4}s \
                 (margin {best_m}, x{best_k}) by {:.1}% (> 5%, mean over {} seeds)",
                app.name(),
                tuned_s,
                best_s,
                (ratio - 1.0) * 100.0,
                SEEDS.len()
            ));
        }
        rows.push(format!(
            "{{\"app\": \"{}\", \"procs\": {procs}, \"best_static_s\": {:.6}, \
             \"best_margin\": {best_m}, \"best_ckpt_mult\": {best_k}, \
             \"tuned_s\": {:.6}, \"ratio\": {:.6}, \"decisions\": {}, \
             \"checkpoints_tuned\": {}, \"broadcasts_tuned\": {}}}",
            app.name(),
            best_s,
            tuned_s,
            ratio,
            t1.tune.decisions.len(),
            t1.checkpoints,
            t1.broadcasts
        ));
    }

    // Threaded backend: same contract on real OS threads — tuned output
    // equals untuned output, repeats agree, knobs in range. The drain/steal
    // decisions derive from the batch shape only, so the logs must repeat
    // bit-for-bit even though OS scheduling does not.
    let (off, _) = threads_water(|_| {});
    let (on_a, rt_a) = threads_water(ThreadRuntime::enable_tuning);
    let (on_b, rt_b) = threads_water(ThreadRuntime::enable_tuning);
    let label = "threads Water x4 tuned";
    same(label, "outputs", &on_a, &off)?;
    same(label, "outputs", &on_b, &off)?;
    let (Some(log_a), Some(log_b)) = (rt_a.tune_log(), rt_b.tune_log()) else {
        return Err(format!("{label}: tuning enabled but no log recorded"));
    };
    same(label, "decision logs of a repeat", log_b, log_a)?;
    log_a.check_ranges().map_err(|e| format!("{label}: {e}"))?;
    let threads_decisions = log_a.decisions.len();
    println!(
        "  threads Water x4: tuned == untuned output, {threads_decisions} decisions, \
         logs repeat bit-for-bit"
    );

    let fields = [
        ("schema", "\"jade-tune-sweep/v1\"".to_string()),
        ("quick", h.quick.to_string()),
        ("gate_ratio", "1.05".to_string()),
        ("seeds", SEEDS.len().to_string()),
        ("worst_ratio", format!("{worst_ratio:.6}")),
        ("threads_decisions", threads_decisions.to_string()),
    ];
    write_rows("TUNE_sweep.json", &fields, "apps", &rows)?;
    println!("  wrote TUNE_sweep.json ({} apps)", rows.len());

    println!(
        "PASS tune: controller within {:.1}% of best static on {} apps \
         (gate 5%), runs bit-identical across repeats, knobs in range",
        (worst_ratio - 1.0).max(0.0) * 100.0,
        rows.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_groups_expand_in_order() {
        let cat = catalogue();
        let mut names: Vec<&str> = cat.iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cat.len(), "duplicate experiment names");
        let names = |group: &str| -> Vec<String> {
            select(&cat, group)
                .expect("group exists")
                .iter()
                .map(|e| e.name.clone())
                .collect()
        };
        let tables: Vec<String> = (2..=5).chain(7..=14).map(|n| format!("table{n}")).collect();
        assert_eq!(names("tables"), tables);
        let figures: Vec<String> = (2..=21).map(|n| format!("fig{n}")).collect();
        assert_eq!(names("figures"), figures);
        let all = names("all");
        assert_eq!(all[..2], ["table1", "table6"]);
        assert_eq!(all[2..14], tables);
        assert_eq!(all[14..34], figures);
        assert_eq!(all.last().map(String::as_str), Some("heterogeneous"));
        assert!(!all
            .iter()
            .any(|n| n == "utilization" || n.ends_with("sweep")));
        assert!(select(&cat, "tabel3").is_none());
    }

    #[test]
    fn quick_experiments_run() {
        let mut h = Harness::new(true);
        for app in App::ALL {
            for m in Machine::BOTH {
                assert!(h.run(m, app, 2, LocalityMode::Locality).exec_time_s > 0.0);
            }
        }
    }

    #[test]
    fn service_stress_quick_passes() {
        let mut h = Harness::new(true);
        service_stress(&mut h).expect("service stress");
    }

    #[test]
    fn workfree_fraction_is_a_percentage() {
        let mut h = Harness::new(true);
        for m in Machine::BOTH {
            let full = h.run(m, App::Cholesky, 4, LocalityMode::TaskPlacement);
            let free = h.work_free(m, App::Cholesky, 4, LocalityMode::TaskPlacement);
            let pct = 100.0 * free.exec_time_s / full.exec_time_s;
            assert!(pct > 0.0 && pct < 100.0, "{m:?}: {pct}");
        }
    }

    #[test]
    fn replication_off_is_slower() {
        let mut h = Harness::new(true);
        let on = h
            .run(Machine::Ipsc, App::Water, 8, LocalityMode::Locality)
            .exec_time_s;
        let off = h
            .ipsc_with(App::Water, 8, LocalityMode::Locality, |c| {
                c.replication = false
            })
            .exec_time_s;
        assert!(off > 1.5 * on, "no-replication {off} vs {on}");
    }

    #[test]
    fn gates_name_their_label() {
        assert!(same("a", "outputs", &1, &1).is_ok());
        assert!(same("PageRank x4", "bytes moved", &1, &2)
            .unwrap_err()
            .starts_with("PageRank x4: bytes moved"));
        assert!(same_tasks("x", 3, 3).is_ok());
        let err = same_tasks("Halo x8", 3, 4).unwrap_err();
        assert_eq!(err, "Halo x8: 3 tasks completed, want 4");
        assert!(not_slower("x", 1.0 + 5e-10, 1.0).is_ok());
        assert!(not_slower("Ocean x2", 1.0 + 2e-9, 1.0)
            .unwrap_err()
            .starts_with("Ocean x2:"));
    }
}
