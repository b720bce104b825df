//! Run the Water application on both simulated machines and print a
//! speedup table — a miniature of the paper's Tables 2 and 7.
//!
//! The same program text (`jade_apps::water::build`) produced the trace;
//! only the machine differs. Run with:
//! `cargo run --release --example water_machines [-- molecules iterations]`

use jade::apps::water::{self, WaterConfig};
use jade::LocalityMode;
use jade::{dash, ipsc};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let molecules = args.first().and_then(|s| s.parse().ok()).unwrap_or(512);
    let iterations = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4);

    println!("Water: {molecules} molecules, {iterations} iterations");
    println!(
        "{:>6} | {:>12} {:>12} | {:>12} {:>12}",
        "procs", "DASH (s)", "speedup", "iPSC (s)", "speedup"
    );

    let mut dash1 = 0.0;
    let mut ipsc1 = 0.0;
    for procs in [1usize, 2, 4, 8, 16, 32] {
        let cfg = WaterConfig {
            molecules,
            iterations,
            procs,
            seed: 1995,
        };
        let (trace, _) = water::run_trace(&cfg);
        // Calibrate against the paper's measured serial times.
        let d = dash::try_run(
            &trace,
            &dash::DashConfig::paper(
                procs,
                LocalityMode::Locality,
                water::calib::DASH_STRIPPED_S / trace.total_work()
                    * (molecules as f64 / 1728.0).powi(0), // keep calibrated rate
            ),
        )
        .expect("simulation failed");
        let i = ipsc::try_run(
            &trace,
            &ipsc::IpscConfig::paper(
                procs,
                LocalityMode::Locality,
                water::calib::IPSC_STRIPPED_S / trace.total_work(),
            ),
        )
        .expect("simulation failed");
        if procs == 1 {
            dash1 = d.exec_time_s;
            ipsc1 = i.exec_time_s;
        }
        println!(
            "{:>6} | {:>12.2} {:>11.2}x | {:>12.2} {:>11.2}x",
            procs,
            d.exec_time_s,
            dash1 / d.exec_time_s,
            i.exec_time_s,
            ipsc1 / i.exec_time_s
        );
    }
}
