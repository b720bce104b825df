//! Benches, one per table/figure family of the paper: each measures the
//! time for *this implementation* to regenerate the experiment's data
//! points (at reduced workload scale, so `cargo bench` completes quickly).
//! The absolute virtual-time results themselves are produced by the
//! `repro` binary.
//!
//! Plain self-timing harness (`harness = false`); run with
//! `cargo bench -p jade-bench --bench tables`.

use jade_bench::{App, Harness, Machine};
use jade_core::LocalityMode;

fn bench(name: &str, mut f: impl FnMut() -> f64) {
    let iters = 5u32;
    std::hint::black_box(f());
    let start = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let per = start.elapsed().as_secs_f64() / iters as f64;
    println!("{name:>28}  {:>12.3} ms/iter  ({iters} iters)", per * 1e3);
}

/// One metric summed over the locality levels the app reports, at `procs`.
fn grid_points(m: Machine, app: App, procs: &[usize], metric: fn(&jade_bench::Run) -> f64) -> f64 {
    let mut h = Harness::new(true);
    let mut acc = 0.0;
    for &p in procs {
        for &mode in app.modes() {
            acc += metric(&h.run(m, app, p, mode));
        }
    }
    acc
}

fn main() {
    // Tables 2–5 (DASH) and 7–10 (iPSC/860): execution times.
    for m in Machine::BOTH {
        for app in App::ALL {
            bench(&format!("exec_{app:?}_{m:?}"), || {
                grid_points(m, app, &[1, 4, 16], |r| r.exec_time_s)
            });
        }
    }
    // Tables 11–14: adaptive broadcast on and off.
    for app in App::ALL {
        bench(&format!("bcast_{app:?}"), || {
            let mut h = Harness::new(true);
            let mut run = |on| {
                h.ipsc_with(app, 8, app.natural_mode(), |c| c.adaptive_broadcast = on)
                    .exec_time_s
            };
            run(true) + run(false)
        });
    }
    // Figures 2–5 (DASH) and 12–15 (iPSC/860): task locality.
    for (m, app) in [(Machine::Dash, App::Ocean), (Machine::Ipsc, App::Cholesky)] {
        bench(&format!("locality_{app:?}_{m:?}"), || {
            grid_points(m, app, &[2, 8], |r| r.locality_pct)
        });
    }
    // Figures 10/11 and 20/21: the work-free task management percentage.
    let tp = LocalityMode::TaskPlacement;
    for m in Machine::BOTH {
        bench(&format!("mgmt_Ocean_{m:?}"), || {
            let mut h = Harness::new(true);
            h.work_free(m, App::Ocean, 8, tp).exec_time_s / h.run(m, App::Ocean, 8, tp).exec_time_s
        });
    }
    // Figures 16–19: communication to computation ratio.
    bench("comm_ratio_Ocean_Ipsc", || {
        let mut h = Harness::new(true);
        let r = h.run(Machine::Ipsc, App::Ocean, 8, LocalityMode::Locality);
        r.comm_bytes as f64 / r.task_time_s
    });
}
