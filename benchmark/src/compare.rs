//! Running the whole suite, one child process per workload, and comparing
//! two result files.
//!
//! A result file holds one run of every workload: its end-to-end metrics
//! (the untraced run) and its per-layer metrics (the traced run), each
//! timing with the median, the quartiles and the count of the passes
//! behind it.
//! `compare A.json B.json` judges B against A, the base of every ratio;
//! `selfcheck` runs the suite twice on this binary and demands agreement.

use crate::harness::{self, RunArgs};
use crate::metrics::{self, Better, MetricDef, WORKLOADS};
use crate::stats::Summary;
use jade::core::chrome::{parse_json, Json};
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

/// One metric of one workload in a result file.
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Median, quartiles and count of the passes behind a timing.
    pub spread: Option<Summary>,
}

#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Value>,
    pub per_layer: Vec<Value>,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Results {
    pub seed: u64,
    pub seconds: f64,
    pub cpus: usize,
    pub workers: usize,
    pub workloads: Vec<WorkloadResult>,
}

fn num(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number `{key}`"))
}

fn members(j: Option<&Json>, what: &str) -> Result<Vec<(String, Json)>, String> {
    match j {
        Some(Json::Obj(m)) => Ok(m.clone()),
        _ => Err(format!("missing object `{what}`")),
    }
}

/// The metrics of a result line (`{"value", "unit"}` per name), with the
/// quartiles of the matching detail line where there are any.
fn values(metrics: Option<&Json>, detail: Option<&Json>) -> Result<Vec<Value>, String> {
    members(metrics, "metrics")?
        .into_iter()
        .map(|(name, m)| {
            // Quartiles sit in the detail line (a child's output) or
            // beside the value (a result file), and only timings have any.
            let q = detail.and_then(|d| d.get(&name)).unwrap_or(&m);
            let spread = match q.get("q1") {
                Some(_) => Some(Summary {
                    n: num(q, "n")? as usize,
                    q1: num(q, "q1")?,
                    median: num(q, "median")?,
                    q3: num(q, "q3")?,
                }),
                None => None,
            };
            Ok(Value {
                value: num(&m, "value")?,
                unit: m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                name,
                spread,
            })
        })
        .collect()
}

/// Run this binary on one workload; pass its output through and parse the
/// result line and the detail line above it.
fn run_child(
    workload: &str,
    args: &RunArgs,
    traced: bool,
) -> Result<(u64, u64, Vec<Value>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("finding this binary: {e}"))?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    if !out.status.success() {
        print!("{text}");
        return Err(format!("{workload} exited with {}", out.status));
    }
    let result = parse_json(lines.pop().unwrap_or(""))?;
    let detail = lines
        .pop()
        .and_then(|l| l.strip_prefix("detail "))
        .ok_or("no detail line")
        .and_then(|l| parse_json(l).map_err(|_| "bad detail line"))?;
    for line in lines {
        println!("  {line}");
    }
    Ok((
        num(&result, "attempted")? as u64,
        num(&result, "failed")? as u64,
        values(result.get("metrics"), Some(&detail))?,
    ))
}

/// Run every workload untraced and traced, each in its own process, so
/// that each has its own peak memory and a fresh allocator.
pub fn run_suite(args: &RunArgs) -> Result<Results, String> {
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        println!("== {} (untraced)", w.name);
        let (attempted, failed, end_to_end) = run_child(w.name, args, false)?;
        println!("== {} (traced)", w.name);
        let (t_attempted, t_failed, per_layer) = run_child(w.name, args, true)?;
        workloads.push(WorkloadResult {
            name: w.name.to_string(),
            attempted: attempted + t_attempted,
            failed: failed + t_failed,
            end_to_end,
            per_layer,
        });
    }
    Ok(Results {
        seed: args.seed,
        seconds: args.seconds,
        cpus: harness::cpus(),
        workers: harness::workers(),
        workloads,
    })
}

impl Results {
    pub fn failed(&self) -> u64 {
        self.workloads.iter().map(|w| w.failed).sum()
    }

    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let values = |s: &mut String, key: &str, vs: &[Value]| {
            let _ = writeln!(s, "      \"{key}\": {{");
            for (i, v) in vs.iter().enumerate() {
                let _ = write!(
                    s,
                    "        \"{}\": {{\"value\": {}, \"unit\": \"{}\"",
                    v.name, v.value, v.unit
                );
                if let Some(Summary { n, q1, median, q3 }) = v.spread {
                    let _ = write!(
                        s,
                        ", \"q1\": {q1}, \"median\": {median}, \"q3\": {q3}, \"n\": {n}"
                    );
                }
                let _ = writeln!(s, "}}{}", if i + 1 < vs.len() { "," } else { "" });
            }
            let _ = write!(s, "      }}");
        };
        let _ = writeln!(s, "{{\n  \"schema\": \"jade-benchmark/v1\",");
        let _ = writeln!(
            s,
            "  \"seed\": {},\n  \"seconds\": {},",
            self.seed, self.seconds
        );
        let _ = writeln!(
            s,
            "  \"host\": {{\"cpus\": {}, \"workers\": {}}},",
            self.cpus, self.workers
        );
        let _ = writeln!(s, "  \"workloads\": [");
        for (i, w) in self.workloads.iter().enumerate() {
            let _ = writeln!(s, "    {{\n      \"name\": \"{}\",", w.name);
            let _ = writeln!(
                s,
                "      \"attempted\": {},\n      \"failed\": {},",
                w.attempted, w.failed
            );
            values(&mut s, "end_to_end", &w.end_to_end);
            let _ = writeln!(s, ",");
            values(&mut s, "per_layer", &w.per_layer);
            let _ = writeln!(
                s,
                "\n    }}{}",
                if i + 1 < self.workloads.len() {
                    ","
                } else {
                    ""
                }
            );
        }
        // This benchmark defines the baseline; it claims no gain.
        let _ = writeln!(s, "  ],\n  \"claim\": null\n}}");
        s
    }

    pub fn from_json(text: &str) -> Result<Results, String> {
        let doc = parse_json(text)?;
        let host = doc.get("host").ok_or("missing `host`")?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("missing `workloads`")?
            .iter()
            .map(|w| {
                Ok(WorkloadResult {
                    name: w
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("workload without name")?
                        .to_string(),
                    attempted: num(w, "attempted")? as u64,
                    failed: num(w, "failed")? as u64,
                    end_to_end: values(w.get("end_to_end"), None)?,
                    per_layer: values(w.get("per_layer"), None)?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Results {
            seed: num(&doc, "seed")? as u64,
            seconds: num(&doc, "seconds")?,
            cpus: num(host, "cpus")? as usize,
            workers: num(host, "workers")? as usize,
            workloads,
        })
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// One of the runs doubts its own value by more than the bound.
    Unresolved,
}

/// One (end-to-end metric, workload) pairing of two result files.
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: Value,
    pub new: Value,
    pub bound: f64,
    /// By how much `new` is worse than `base`, as a share of `base`.
    pub worse_by: f64,
    /// The larger of the two runs' doubts about their own values.
    pub spread: f64,
    pub verdict: Verdict,
}

/// How far one run's own samples say its value can be trusted, as a share
/// of the value. A fastest pass (it lies below the first quartile, which a
/// median never does) is doubted when the typical pass sat far above it:
/// then most of the run was disturbed, and its best pass maybe too. A
/// median is doubted when its quartiles are far apart.
fn within_run_spread(v: &Value) -> f64 {
    match v.spread {
        Some(s) if v.value != 0.0 && v.value < s.q1 => (s.median - v.value) / v.value.abs(),
        Some(s) if v.value != 0.0 => (s.q3 - s.q1) / v.value.abs(),
        _ => 0.0,
    }
}

fn judge(def: &MetricDef, base: &Value, new: &Value) -> (f64, f64, Verdict) {
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    let change = (new.value - base.value) / base.value.abs();
    let worse_by = if def.better == Better::Lower {
        change
    } else {
        -change
    };
    let spread = within_run_spread(base).max(within_run_spread(new));
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (worse_by, spread, verdict)
}

/// Every (end-to-end metric, workload) both files hold.
pub fn rows(a: &Results, b: &Results) -> Vec<Row> {
    let defs = metrics::end_to_end();
    let mut out = Vec::new();
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            continue;
        };
        for def in &defs {
            let find =
                |w: &WorkloadResult| w.end_to_end.iter().find(|v| v.name == def.name).cloned();
            if let (Some(base), Some(new)) = (find(wa), find(wb)) {
                let (worse_by, spread, verdict) = judge(def, &base, &new);
                out.push(Row {
                    workload: wa.name.clone(),
                    metric: def.name.clone(),
                    base,
                    new,
                    bound: def.bound.unwrap_or(0.0),
                    worse_by,
                    spread,
                    verdict,
                });
            }
        }
    }
    out
}

/// `(workload, metric, base, new)` of every exact count that differs.
pub fn count_mismatches(a: &Results, b: &Results) -> (usize, Vec<(String, String, f64, f64)>) {
    let exact: Vec<String> = (metrics::per_layer().into_iter())
        .filter(|m| m.exact)
        .map(|m| m.name)
        .collect();
    let (mut checked, mut differ) = (0, Vec::new());
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            continue;
        };
        for va in wa.per_layer.iter().filter(|v| exact.contains(&v.name)) {
            if let Some(vb) = wb.per_layer.iter().find(|v| v.name == va.name) {
                checked += 1;
                if va.value.to_bits() != vb.value.to_bits() {
                    differ.push((wa.name.clone(), va.name.clone(), va.value, vb.value));
                }
            }
        }
    }
    (checked, differ)
}

fn quart(v: &Value) -> String {
    match v.spread {
        Some(s) => format!("[{:.4} {:.4} {:.4}] n={}", s.q1, s.median, s.q3, s.n),
        None => String::new(),
    }
}

/// Print the comparison; returns how many rows are `worse`, how many
/// exact counts differ, and by how many the failures grew.
fn print_comparison(a: &Results, b: &Results) -> (usize, usize, u64) {
    println!(
        "{:<17} {:<12} {:>12} {:<36} {:>12} {:<36} {:>8} {:>6} {:>7}  verdict",
        "workload",
        "metric",
        "base",
        "q1 median q3",
        "new",
        "q1 median q3",
        "new/base",
        "bound",
        "spread"
    );
    let rows = rows(a, b);
    for r in &rows {
        println!(
            "{:<17} {:<12} {:>12.5} {:<36} {:>12.5} {:<36} {:>8.4} {:>5.1}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.base.value,
            quart(&r.base),
            r.new.value,
            quart(&r.new),
            r.new.value / r.base.value,
            r.bound * 100.0,
            r.spread * 100.0,
            format!("{:?}", r.verdict).to_lowercase()
        );
    }
    let same_inputs = a.seed == b.seed;
    let (checked, differ) = count_mismatches(a, b);
    if same_inputs {
        println!("exact counts: {checked} compared, {} differ", differ.len());
        for (w, m, x, y) in &differ {
            println!("  {w:<17} {m:<28} base {x} new {y}  DIFFERS");
        }
    } else {
        println!(
            "exact counts: not compared, the seeds differ ({} and {})",
            a.seed, b.seed
        );
    }
    let mut more_failures = 0;
    for wa in &a.workloads {
        if let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) {
            let (fa, fb) = (
                wa.failed as f64 / wa.attempted.max(1) as f64,
                wb.failed as f64 / wb.attempted.max(1) as f64,
            );
            println!(
                "{:<17} failed_frac  base {fa:.6} ({} of {})  new {fb:.6} ({} of {})",
                wa.name, wa.failed, wa.attempted, wb.failed, wb.attempted
            );
            if fb > fa {
                more_failures += wb.failed.saturating_sub(wa.failed).max(1);
            }
        }
    }
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    (
        worse,
        if same_inputs { differ.len() } else { 0 },
        more_failures,
    )
}

fn read(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Results::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// `compare A.json B.json`: non-zero exit on any `worse` row, any exact
/// count that differs, or more failed operations.
pub fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let (a, b) = (read(a)?, read(b)?);
    let (worse, differ, more_failures) = print_comparison(&a, &b);
    println!("{worse} worse, {differ} exact counts differ, {more_failures} more failures");
    Ok(if worse + differ > 0 || more_failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `selfcheck`: two runs of the suite on this binary must agree within
/// every bound (in either direction) and in every exact count.
pub fn selfcheck(args: &RunArgs) -> Result<ExitCode, String> {
    let a = run_suite(args)?;
    let b = run_suite(args)?;
    let (_, differ, more_failures) = print_comparison(&a, &b);
    let apart: Vec<_> = (rows(&a, &b).into_iter())
        .filter(|r| r.worse_by.abs() > r.bound)
        .collect();
    for r in &apart {
        println!(
            "{} {} differs by {:.1}% between two runs of one binary, bound {:.1}%",
            r.workload,
            r.metric,
            r.worse_by * 100.0,
            r.bound * 100.0
        );
    }
    let ok = apart.is_empty() && differ == 0 && more_failures == 0 && a.failed() + b.failed() == 0;
    println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
