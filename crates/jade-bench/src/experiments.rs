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
use jade_core::LocalityMode;
use jade_dash::DashConfig;
use jade_ipsc::{IpscConfig, IpscRunResult};
use jade_threads::ThreadRuntime;

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

    let sections: [(&str, &str, Show); 6] = [
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
        ("utilization", "per-processor time at 8 procs", utilization),
    ];
    for (name, title, run) in sections {
        let groups = if name == "utilization" { ALONE } else { ALL };
        c.push(show(name, groups, title, run));
    }
    let sweeps: [(&str, &str, Gate); 5] = [
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
        let r = jade_dash::try_run(
            &flipped,
            &DashConfig::paper(16, LocalityMode::Locality, spo),
        )
        .expect("simulation failed");
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

/// The threads cell of the fault sweep: the small Water on four workers,
/// set up by `setup`. Returns the output and the runtime, for its
/// statistics.
fn threads_water(setup: impl FnOnce(&mut ThreadRuntime)) -> (WaterOutput, ThreadRuntime) {
    let mut rt = ThreadRuntime::new(4);
    setup(&mut rt);
    (water::run_on(&mut rt, &water::WaterConfig::small(4)), rt)
}

/// `plan` as `ThreadRuntime` reads it. The runtime reads `panic_p` and
/// `seed`; every other field, `ckpt=` included, is validated and ignored.
/// Threads have no messages to lose, so the drop rate becomes the crash
/// rate when the plan gives none.
fn crash_plan(plan: FaultPlan) -> FaultPlan {
    let panic_p = if plan.panic_p > 0.0 {
        plan.panic_p
    } else {
        plan.drop_p
    };
    FaultPlan {
        panic_p,
        seed: plan.seed,
        ..FaultPlan::none()
    }
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
    let crash = crash_plan(plan);
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

/// Checkpoint sweep: cross the fault plan with checkpoint intervals on the
/// iPSC/860 and check the tentpole invariant — any fail-stop plan at any
/// checkpoint interval produces results bit-identical to the fault-free
/// run, and checkpoints never cause more re-execution than the
/// checkpoint-free recovery path. Prints one row per interval with the
/// capture/restore economics. The thread backends have nothing to
/// checkpoint: a crash there unwinds before the body runs.
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

    println!("  checkpoint sweep passed: bit-identical results, re-execution bounded");
    Ok(())
}

/// Aggregation sweep (DESIGN.md §15): run the two irregular applications
/// on the iPSC/860 with the inspector/executor fetch-aggregation pass off and on, and
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
fn overlap_row(app: App, procs: usize, exec: (f64, f64), on: (f64, u64, u64, u64)) -> String {
    format!(
        "{{\"backend\": \"ipsc\", \"app\": \"{}\", \"procs\": {procs}, \
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
/// Also checks composition with fetch aggregation (§15). Writes the
/// per-point numbers to `OVERLAP_sweep.json`.
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
/// Tune sweep (DESIGN.md §19): on every application, cross a static grid of
/// hand-set knob values (adaptive-broadcast evidence margin × checkpoint
/// interval) under one fault plan, then run the feedback controller against
/// the same plan. The hard gate: the controller's virtual makespan lands
/// within 5% of the best static setting in the grid, controller-on runs are
/// bit-identical across repeats (event streams, counters, decision logs),
/// application results match the controller-off runs, and every tuned knob
/// stays inside its documented range. Emits `TUNE_sweep.json` and the
/// `PASS tune:` marker CI greps.
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

    let fields = [
        ("schema", "\"jade-tune-sweep/v2\"".to_string()),
        ("quick", h.quick.to_string()),
        ("gate_ratio", "1.05".to_string()),
        ("seeds", SEEDS.len().to_string()),
        ("worst_ratio", format!("{worst_ratio:.6}")),
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
        assert_eq!(all.last().map(String::as_str), Some("ablations"));
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
