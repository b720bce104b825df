//! The repository's benchmark: six fixed-work workloads over the thread
//! backend, the service and both machine simulators, measured from outside
//! through the public API. See `benchmark/README.md`.
//!
//! ```text
//! jade-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! jade-benchmark compare A.json B.json
//! jade-benchmark selfcheck [--seed N] [--seconds S]
//! jade-benchmark manifest
//! ```

mod apps;
mod compare;
mod harness;
mod layers;
mod metrics;
mod service_mix;
mod sims;
mod spans;
mod stats;
mod threads_apps;
mod threads_fine;

use harness::RunArgs;
use metrics::{Report, WORKLOADS};
use spans::Recorder;
use std::path::PathBuf;
use std::process::ExitCode;

/// Tests run every workload at a scale of milliseconds.
pub const TINY: bool = cfg!(test);

/// Counts heap allocations while asked to, for `threads.allocs_per_task`.
mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    static ON: AtomicBool = AtomicBool::new(false);
    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    pub struct Counting;

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; the counter is an atomic
    // and allocates nothing.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            // `Relaxed`: a statistic; the flag is read-mostly, so timed
            // passes pay one shared-line load per allocation.
            if ON.load(Ordering::Relaxed) {
                ALLOCS.fetch_add(1, Ordering::Relaxed);
            }
            // SAFETY: the caller's contract, passed through.
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: the caller's contract, passed through.
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            if ON.load(Ordering::Relaxed) {
                ALLOCS.fetch_add(1, Ordering::Relaxed);
            }
            // SAFETY: the caller's contract, passed through.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    /// Allocations and reallocations on any thread while `f` runs.
    pub fn during(f: impl FnOnce()) -> u64 {
        let before = ALLOCS.load(Ordering::Relaxed);
        ON.store(true, Ordering::Relaxed);
        f();
        ON.store(false, Ordering::Relaxed);
        ALLOCS.load(Ordering::Relaxed) - before
    }
}

#[global_allocator]
static GLOBAL: alloc_count::Counting = alloc_count::Counting;

/// Where traces and result files go: `benchmark/out/`, found from the
/// working directory — the repository root, or `benchmark/` itself.
fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

/// Run one workload: untraced for the end-to-end metrics, or traced for
/// the per-layer metrics and the spans behind them.
fn run_workload(name: &str, args: &RunArgs, traced: bool) -> Result<(Report, Recorder), String> {
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?
        .name;
    if !traced {
        let report = match workload {
            "threads-fine" => threads_fine::run(args),
            "threads-apps" => threads_apps::run(args),
            "service-mix" => service_mix::run(args),
            _ => sims::run(workload, args),
        };
        return Ok((report, Recorder::disabled()));
    }
    let mut rec = Recorder::new(workload);
    let mut report = match workload {
        "threads-fine" => threads_fine::run_traced(args, &mut rec),
        "threads-apps" => threads_apps::run_traced(args, &mut rec),
        "service-mix" => service_mix::run_traced(args, &mut rec),
        _ => sims::run_traced(workload, args, &mut rec),
    };
    report.set(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.set("core.events.check_failed", report.rejected_streams() as f64);
    report.set("host.cpus", harness::cpus() as f64);
    report.set("host.workers", harness::workers() as f64);
    Ok((report, rec))
}

/// Print the self-time table and write the spans to
/// `benchmark/out/trace-<workload>.json`. The metrics do not depend on the
/// file, so failing to write it is reported and survived.
fn write_spans(workload: &str, rec: &Recorder) {
    rec.print_self_times();
    let path = out_dir().join(format!("trace-{workload}.json"));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(out_dir())?;
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        rec.write_chrome(&mut w)?;
        std::io::Write::flush(&mut w)
    };
    match write() {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!(
            "jade-benchmark: spans not written to {}: {e}",
            path.display()
        ),
    }
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    files: Vec<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1995,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|_| "bad --seconds".to_string())?;
                if !(cli.seconds.is_finite() && (0.0..=600.0).contains(&cli.seconds)) {
                    return Err("--seconds must be between 0 and 600".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            f if !f.starts_with("--") => cli.files.push(f.to_string()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(cli)
}

const USAGE: &str =
    "usage: jade-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
       jade-benchmark compare A.json B.json
       jade-benchmark selfcheck [--seed N] [--seconds S]
       jade-benchmark manifest";

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = argv.split_first().ok_or(USAGE)?;
    let cli = parse_cli(rest)?;
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
    };
    match (cmd.as_str(), &cli.workload) {
        ("run", Some(name)) => {
            println!(
                "workload {name}, seed {}, {} s, {} on {} cpus, {} workers",
                cli.seed,
                cli.seconds,
                if cli.trace { "traced" } else { "untraced" },
                harness::cpus(),
                harness::workers()
            );
            let (report, rec) = run_workload(name, &args, cli.trace)?;
            if cli.trace {
                write_spans(name, &rec);
            }
            report.print();
            Ok(ExitCode::SUCCESS)
        }
        ("run", None) => {
            let results = compare::run_suite(&args)?;
            let path = out_dir().join("results.json");
            std::fs::create_dir_all(out_dir())
                .and_then(|()| std::fs::write(&path, results.to_json()))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("results written to {}", path.display());
            Ok(if results.failed() == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        ("compare", _) => match cli.files.as_slice() {
            [a, b] => compare::compare_files(a, b),
            _ => Err(USAGE.to_string()),
        },
        ("selfcheck", _) => compare::selfcheck(&args),
        ("manifest", _) => {
            print!("{}", metrics::manifest());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    }
}

#[cfg(test)]
mod tests;

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("jade-benchmark: {e}");
        ExitCode::from(2)
    })
}
