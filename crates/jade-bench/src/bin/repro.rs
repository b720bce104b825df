//! `repro` — regenerate every table and figure of Rinard, SC'95.
//!
//! ```text
//! repro [--quick] all              # the whole evaluation section
//! repro table1 table6              # serial/stripped calibration anchors
//! repro table2 .. table5           # DASH execution times
//! repro table7 .. table10          # iPSC execution times
//! repro table11 .. table14         # adaptive broadcast
//! repro fig2 .. fig5, fig12..fig15 # task locality percentages
//! repro fig6 .. fig9               # DASH total task execution time
//! repro fig10 fig11 fig20 fig21    # task management percentages
//! repro fig16 .. fig19             # iPSC comm/computation ratios
//! repro replication                # Section 5.1
//! repro bcast-analysis             # Section 5.3 numbers
//! repro latency-hiding             # Section 5.4
//! repro concurrent-fetch           # Section 5.5
//! ```
//!
//! `--quick` substitutes reduced workloads (for smoke runs); the default is
//! the paper-scale data sets.

use dsim::FaultPlan;
use jade_bench::experiments as ex;
use jade_bench::{App, Harness, TraceBackend};
use jade_core::LocalityMode;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--quick] [--trace-out FILE] [--faults SPEC] [--fault-seed N]\n\
         \x20            [--checkpoint-interval N]... [--app NAME [--aggregate] [--prefetch]]\n\
         \x20            <experiment>...\n\
         experiments: all, tables, figures, table1..table14, fig2..fig21,\n\
         replication, bcast-analysis, latency-hiding, concurrent-fetch, ablations,\n\
         utilization, fault-sweep, checkpoint-sweep, aggregation-sweep,\n\
         overlap-sweep, service-stress, tune-sweep\n\
         --app NAME        run one application on the simulated iPSC/860 and\n\
                           print its communication profile; NAME is one of\n\
                           water, string, ocean, cholesky, pagerank, halo\n\
         --list-apps       list the valid --app names and exit\n\
         service-stress: multi-tenant service robustness gate — thousands of\n\
                mixed clean/faulty/deadline DAGs through one shared worker\n\
                pool; writes SERVICE_tenants.json at the repo root\n\
         tune-sweep: feedback-controller gate — on every app, the controller\n\
                must land within 5% of the best static knob setting in the\n\
                sweep grid, bit-identically across repeats; writes\n\
                TUNE_sweep.json at the repo root\n\
         --aggregate       enable the inspector/executor fetch-aggregation\n\
                           pass (DESIGN.md \u{a7}15) for --app runs\n\
         --prefetch        enable the split-phase prefetch path (DESIGN.md \u{a7}17)\n\
                           for --app runs\n\
         --trace-out FILE  also write a Chrome trace_event JSON of a\n\
                           representative run (Ocean, 8 procs, iPSC/860);\n\
                           open it in chrome://tracing or ui.perfetto.dev\n\
         --faults SPEC     inject faults and run the fault sweep; SPEC is\n\
                           e.g. drop=0.05,dup=0.02,delay=0.1:0.001,stall=0.01:0.005,\n\
                           fail=3@0.5,panic=0.1,ckpt=0.5 (see DESIGN.md sections 11-12)\n\
         --fault-seed N    seed for the fault decision stream (default 0)\n\
         --checkpoint-interval N\n\
                           checkpoint interval for the checkpoint sweep, in\n\
                           simulated seconds (iPSC) / completed tasks (threads);\n\
                           repeatable — each value adds a sweep point\n\
                           (default points: 0.5 and 2.0)"
    );
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
            "--app" => match args.next() {
                Some(name) => match App::parse(&name) {
                    Some(app) => single_app = Some(app),
                    None => {
                        eprintln!(
                            "unknown app `{name}`; valid names: {}",
                            App::CLI_NAMES.join(", ")
                        );
                        std::process::exit(2);
                    }
                },
                None => usage(),
            },
            "--list-apps" => {
                for name in App::CLI_NAMES {
                    let app = App::parse(name).expect("listed name parses");
                    println!("{name:<10} {}", app.name());
                }
                std::process::exit(0);
            }
            "--aggregate" => aggregate = true,
            "--prefetch" => prefetch = true,
            "--trace-out" => match args.next() {
                Some(path) => trace_out = Some(path),
                None => usage(),
            },
            "--faults" => match args.next().map(|s| FaultPlan::parse(&s)) {
                Some(Ok(plan)) => faults = Some(plan),
                Some(Err(e)) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
                None => usage(),
            },
            "--fault-seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) => fault_seed = Some(n),
                None => usage(),
            },
            "--checkpoint-interval" => match args.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(n) if n.is_finite() && n > 0.0 => ckpt_intervals.push(n),
                _ => usage(),
            },
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
    if ckpt_intervals.is_empty() {
        ckpt_intervals = vec![0.5, 2.0];
    }
    // `--aggregate` / `--prefetch` are per-app toggles; without `--app`
    // they would be silently ignored, so reject the invocation instead.
    if single_app.is_none() {
        for (flag, set) in [("--aggregate", aggregate), ("--prefetch", prefetch)] {
            if set {
                eprintln!("{flag} requires --app NAME (see --list-apps)");
                std::process::exit(2);
            }
        }
    }
    if wanted.is_empty() && trace_out.is_none() && single_app.is_none() {
        usage();
    }
    let mut plan = faults.unwrap_or_else(|| {
        FaultPlan::parse("drop=0.05,dup=0.02").expect("default fault plan parses")
    });
    if let Some(seed) = fault_seed {
        plan = plan.with_seed(seed);
    }
    let mut h = Harness::new(quick);
    if quick {
        println!("[quick mode: reduced workloads — shapes hold, absolute numbers shrink]");
    }
    if let Some(app) = single_app {
        run_app(&mut h, app, aggregate, prefetch);
    }
    for w in wanted.clone() {
        run_one(&mut h, &w, plan, &ckpt_intervals);
    }
    if let Some(path) = trace_out {
        let json = h.chrome_trace(App::Ocean, 8, LocalityMode::Locality, TraceBackend::Ipsc);
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
    let mode = if app.has_placement() {
        LocalityMode::TaskPlacement
    } else {
        LocalityMode::Locality
    };
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

fn run_one(h: &mut Harness, what: &str, plan: dsim::FaultPlan, ckpt_intervals: &[f64]) {
    let exec_apps = [App::Water, App::StringApp, App::Ocean, App::Cholesky];
    match what {
        "all" => {
            for t in [
                "table1",
                "table6",
                "tables",
                "figures",
                "replication",
                "bcast-analysis",
                "latency-hiding",
                "concurrent-fetch",
                "ablations",
                "heterogeneous",
            ] {
                run_one(h, t, plan, ckpt_intervals);
            }
        }
        "tables" => {
            for t in 2..=5 {
                run_one(h, &format!("table{t}"), plan, ckpt_intervals);
            }
            for t in 7..=14 {
                run_one(h, &format!("table{t}"), plan, ckpt_intervals);
            }
        }
        "figures" => {
            for f in 2..=21 {
                if f != 1 {
                    run_one(h, &format!("fig{f}"), plan, ckpt_intervals);
                }
            }
        }
        "table1" => ex::table_serial(h, true),
        "table6" => ex::table_serial(h, false),
        "table2" => ex::table_exec(h, App::Water, true),
        "table3" => ex::table_exec(h, App::StringApp, true),
        "table4" => ex::table_exec(h, App::Ocean, true),
        "table5" => ex::table_exec(h, App::Cholesky, true),
        "table7" => ex::table_exec(h, App::Water, false),
        "table8" => ex::table_exec(h, App::StringApp, false),
        "table9" => ex::table_exec(h, App::Ocean, false),
        "table10" => ex::table_exec(h, App::Cholesky, false),
        "table11" => ex::table_bcast(h, App::Water),
        "table12" => ex::table_bcast(h, App::StringApp),
        "table13" => ex::table_bcast(h, App::Ocean),
        "table14" => ex::table_bcast(h, App::Cholesky),
        "fig2" => ex::fig_locality(h, App::Water, true),
        "fig3" => ex::fig_locality(h, App::StringApp, true),
        "fig4" => ex::fig_locality(h, App::Ocean, true),
        "fig5" => ex::fig_locality(h, App::Cholesky, true),
        "fig6" => ex::fig_taskexec(h, App::Water),
        "fig7" => ex::fig_taskexec(h, App::StringApp),
        "fig8" => ex::fig_taskexec(h, App::Ocean),
        "fig9" => ex::fig_taskexec(h, App::Cholesky),
        "fig10" => ex::fig_mgmt(h, App::Ocean, true),
        "fig11" => ex::fig_mgmt(h, App::Cholesky, true),
        "fig12" => ex::fig_locality(h, App::Water, false),
        "fig13" => ex::fig_locality(h, App::StringApp, false),
        "fig14" => ex::fig_locality(h, App::Ocean, false),
        "fig15" => ex::fig_locality(h, App::Cholesky, false),
        "fig16" => ex::fig_commratio(h, App::Water),
        "fig17" => ex::fig_commratio(h, App::StringApp),
        "fig18" => ex::fig_commratio(h, App::Ocean),
        "fig19" => ex::fig_commratio(h, App::Cholesky),
        "fig20" => ex::fig_mgmt(h, App::Ocean, false),
        "fig21" => ex::fig_mgmt(h, App::Cholesky, false),
        "replication" => ex::replication(h),
        "bcast-analysis" => ex::bcast_analysis(h),
        "latency-hiding" => ex::latency_hiding(h),
        "concurrent-fetch" => ex::concurrent_fetch(h),
        "ablations" => ex::ablations(h),
        "heterogeneous" => ex::heterogeneous(h),
        "utilization" => {
            for app in [App::Water, App::Ocean, App::Cholesky] {
                ex::utilization(h, app, 8);
            }
        }
        "fault-sweep" => {
            if let Err(why) = ex::fault_sweep(h, plan) {
                eprintln!("fault sweep FAILED: {why}");
                std::process::exit(1);
            }
        }
        "checkpoint-sweep" => {
            if let Err(why) = ex::checkpoint_sweep(h, plan, ckpt_intervals) {
                eprintln!("checkpoint sweep FAILED: {why}");
                std::process::exit(1);
            }
        }
        "aggregation-sweep" => {
            if let Err(why) = ex::aggregation_sweep(h) {
                eprintln!("aggregation sweep FAILED: {why}");
                std::process::exit(1);
            }
        }
        "overlap-sweep" => {
            if let Err(why) = ex::overlap_sweep(h) {
                eprintln!("overlap sweep FAILED: {why}");
                std::process::exit(1);
            }
        }
        "service-stress" => {
            if let Err(why) = ex::service_stress(h) {
                eprintln!("service stress FAILED: {why}");
                std::process::exit(1);
            }
        }
        "tune-sweep" => {
            if let Err(why) = ex::tune_sweep(h) {
                eprintln!("tune sweep FAILED: {why}");
                std::process::exit(1);
            }
        }
        other => {
            let _ = exec_apps;
            eprintln!("unknown experiment: {other}");
            std::process::exit(2);
        }
    }
}
