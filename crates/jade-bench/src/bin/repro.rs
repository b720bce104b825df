//! `repro` — regenerate every table and figure of Rinard, SC'95.
//!
//! ```text
//! repro [--quick] all              # the whole evaluation section
//! repro tables                     # Tables 2-5 and 7-14
//! repro figures                    # Figures 2-21
//! repro table2 fig16 replication   # single experiments
//! repro --help                     # the experiment catalogue
//! ```
//!
//! `--quick` substitutes reduced workloads (for smoke runs); the default is
//! the paper-scale data sets.

use dsim::FaultPlan;
use jade_bench::experiments as ex;
use jade_bench::{App, Harness, Machine};
use jade_core::LocalityMode;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--quick] [--trace-out FILE] [--faults SPEC] [--fault-seed N]\n\
         \x20            [--checkpoint-interval N]... [--app NAME [--aggregate] [--prefetch]]\n\
         \x20            <experiment or group>...\n\
         experiments, with the groups (all, tables, figures) that run them:"
    );
    for e in ex::catalogue() {
        eprintln!("  {:<18} {:<11} {}", e.name, e.groups.join(" "), e.title);
    }
    eprintln!(
        "--app NAME        run one application on the simulated iPSC/860 and\n\
         \x20                 print its communication profile; NAME is one of\n\
         \x20                 water, string, ocean, cholesky, pagerank, halo\n\
         --list-apps       list the valid --app names and exit\n\
         --aggregate       enable the inspector/executor fetch-aggregation\n\
         \x20                 pass (DESIGN.md \u{a7}15) for --app runs\n\
         --prefetch        enable the split-phase prefetch path (DESIGN.md \u{a7}17)\n\
         \x20                 for --app runs\n\
         --trace-out FILE  also write a Chrome trace_event JSON of a\n\
         \x20                 representative run (Ocean, 8 procs, iPSC/860);\n\
         \x20                 open it in chrome://tracing or ui.perfetto.dev\n\
         --faults SPEC     inject faults and run the fault sweep; SPEC is\n\
         \x20                 e.g. drop=0.05,dup=0.02,delay=0.1:0.001,stall=0.01:0.005,\n\
         \x20                 fail=3@0.5,panic=0.1,ckpt=0.5 (see DESIGN.md sections 11-12)\n\
         --fault-seed N    seed for the fault decision stream (default 0)\n\
         --checkpoint-interval N\n\
         \x20                 checkpoint interval for the checkpoint sweep, in\n\
         \x20                 simulated seconds (iPSC only; threads ignore it);\n\
         \x20                 repeatable — each value adds a sweep point\n\
         \x20                 (default points: 0.5 and 2.0)"
    );
    std::process::exit(2);
}

/// The value after a flag, parsed; usage (exit 2) if it is missing or does
/// not parse.
fn value<T>(args: &mut impl Iterator<Item = String>, parse: impl FnOnce(String) -> Option<T>) -> T {
    args.next().and_then(parse).unwrap_or_else(|| usage())
}

/// Print `why` and exit 2, as for any other bad invocation.
fn refuse(why: String) -> ! {
    eprintln!("{why}");
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut trace_out: Option<String> = None;
    let mut faults: Option<FaultPlan> = None;
    let mut fault_seed: Option<u64> = None;
    let mut ckpt_intervals: Vec<f64> = Vec::new();
    let mut wanted: Vec<String> = Vec::new();
    let mut single_app: Option<App> = None;
    let mut aggregate = false;
    let mut prefetch = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--full" => quick = false,
            "--app" => {
                let name = value(&mut args, Some);
                let valid = App::CLI_NAMES.join(", ");
                let app = App::parse(&name);
                single_app = Some(app.unwrap_or_else(|| {
                    refuse(format!("unknown app `{name}`; valid names: {valid}"))
                }));
            }
            "--list-apps" => {
                for name in App::CLI_NAMES {
                    let app = App::parse(name).expect("listed name parses");
                    println!("{name:<10} {}", app.name());
                }
                std::process::exit(0);
            }
            "--aggregate" => aggregate = true,
            "--prefetch" => prefetch = true,
            "--trace-out" => trace_out = Some(value(&mut args, Some)),
            "--faults" => {
                let plan = FaultPlan::parse(&value(&mut args, Some));
                faults = Some(plan.unwrap_or_else(|e| refuse(e)));
            }
            "--fault-seed" => fault_seed = Some(value(&mut args, |s| s.parse().ok())),
            "--checkpoint-interval" => ckpt_intervals.push(value(&mut args, |s| {
                s.parse::<f64>().ok().filter(|n| n.is_finite() && *n > 0.0)
            })),
            "-h" | "--help" => usage(),
            other => wanted.push(other.to_string()),
        }
    }
    // `--faults` with no explicit experiment runs the fault sweep;
    // `--checkpoint-interval` alone runs the checkpoint sweep.
    if wanted.is_empty() {
        if !ckpt_intervals.is_empty() {
            wanted.push("checkpoint-sweep".to_string());
        } else if faults.is_some() {
            wanted.push("fault-sweep".to_string());
        }
    }
    // `--aggregate` / `--prefetch` are per-app toggles; without `--app`
    // they would be silently ignored, so reject the invocation instead.
    if single_app.is_none() {
        for (flag, set) in [("--aggregate", aggregate), ("--prefetch", prefetch)] {
            if set {
                refuse(format!("{flag} requires --app NAME (see --list-apps)"));
            }
        }
    }
    if wanted.is_empty() && trace_out.is_none() && single_app.is_none() {
        usage();
    }
    // Every name is checked before anything runs: a typo at the end of the
    // list must not cost the experiments before it, or rewrite their files.
    let catalogue = ex::catalogue();
    let mut chosen = Vec::new();
    for w in &wanted {
        match ex::select(&catalogue, w) {
            Some(experiments) => chosen.extend(experiments),
            None => refuse(format!("unknown experiment: {w}")),
        }
    }
    let mut h = Harness::new(quick);
    if let Some(plan) = faults {
        h.faults = plan;
    }
    if let Some(seed) = fault_seed {
        h.faults = h.faults.with_seed(seed);
    }
    if !ckpt_intervals.is_empty() {
        h.checkpoint_intervals = ckpt_intervals;
    }
    if quick {
        println!("[quick mode: reduced workloads — shapes hold, absolute numbers shrink]");
    }
    if let Some(app) = single_app {
        run_app(&mut h, app, aggregate, prefetch);
    }
    for e in chosen {
        if let Err(why) = e.run(&mut h) {
            eprintln!("{} FAILED: {why}", e.name);
            std::process::exit(1);
        }
    }
    if let Some(path) = trace_out {
        let json = h.chrome_trace(Machine::Ipsc, App::Ocean, 8, LocalityMode::Locality);
        match std::fs::write(&path, &json) {
            Ok(()) => println!("wrote Chrome trace ({} bytes) to {path}", json.len()),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// `repro --app NAME [--aggregate] [--prefetch]`: one application's
/// communication profile on the simulated iPSC/860, across the processor
/// sweep.
fn run_app(h: &mut Harness, app: App, aggregate: bool, prefetch: bool) {
    let mode = app.natural_mode();
    println!(
        "{} on the simulated iPSC/860 (aggregation {}, prefetch {}):",
        app.name(),
        if aggregate { "ON" } else { "off" },
        if prefetch { "ON" } else { "off" }
    );
    for procs in [1usize, 2, 4, 8, 16] {
        let r = h.ipsc_with(app, procs, mode, |c| {
            c.aggregate_fetches = aggregate;
            c.prefetch = prefetch;
        });
        print!(
            "  x{procs:<2}: {:.2}s | {} tasks | requests {} replies {} \
             (bundles {} carrying {} objects) | {} object bytes",
            r.exec_time_s,
            r.tasks_executed,
            r.requests,
            r.fetch_messages,
            r.agg_fetches,
            r.agg_objects,
            r.comm_bytes
        );
        if prefetch {
            print!(
                " | prefetches {} ({} hit, {} stale), overlap {:.0}%",
                r.prefetches_issued,
                r.prefetch_hits,
                r.prefetch_stale,
                r.overlap_frac * 100.0
            );
        }
        println!();
    }
}
