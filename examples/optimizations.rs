//! Demonstrate each communication optimization of the paper in isolation
//! on the simulated iPSC/860, using Panel Cholesky and Water.
//!
//! Run with: `cargo run --release --example optimizations`

use jade::apps::{cholesky, water};
use jade::ipsc::{self, IpscConfig};
use jade::LocalityMode;

fn main() {
    let procs = 16;

    // --- Adaptive broadcast (Water's widely-read position object).
    let wcfg = water::WaterConfig {
        molecules: 512,
        iterations: 4,
        procs,
        seed: 7,
    };
    let (wtrace, _) = water::run_trace(&wcfg);
    let spo = water::calib::IPSC_STRIPPED_S / wtrace.total_work();
    let mk = |f: &dyn Fn(&mut IpscConfig)| {
        let mut c = IpscConfig::paper(procs, LocalityMode::Locality, spo);
        f(&mut c);
        ipsc::try_run(&wtrace, &c).expect("simulation failed")
    };
    let on = mk(&|_| {});
    let off = mk(&|c| c.adaptive_broadcast = false);
    println!(
        "adaptive broadcast  (Water, {procs}p): {:>8.2}s on | {:>8.2}s off | {} broadcasts",
        on.exec_time_s, off.exec_time_s, on.broadcasts
    );

    // --- Replication (disabling it serializes the readers).
    let norep = mk(&|c| c.replication = false);
    println!(
        "replication         (Water, {procs}p): {:>8.2}s on | {:>8.2}s off ({}x slower)",
        on.exec_time_s,
        norep.exec_time_s,
        (norep.exec_time_s / on.exec_time_s).round()
    );

    // --- Locality + latency hiding + concurrent fetches (Cholesky).
    let ccfg = cholesky::CholeskyConfig {
        grid: 24,
        subassemblies: 2,
        iface: 24,
        panel_width: 4,
        procs,
    };
    let (ctrace, _) = cholesky::run_trace(&ccfg);
    let cspo = cholesky::calib::IPSC_STRIPPED_S / ctrace.total_work();
    let mkc = |mode: LocalityMode, f: &dyn Fn(&mut IpscConfig)| {
        let mut c = IpscConfig::paper(procs, mode, cspo);
        f(&mut c);
        ipsc::try_run(&ctrace, &c).expect("simulation failed")
    };
    let tp = mkc(LocalityMode::TaskPlacement, &|_| {});
    let noloc = mkc(LocalityMode::NoLocality, &|_| {});
    println!("locality            (Chol., {procs}p): {:>8.2}s placed | {:>8.2}s none ({:.1} vs {:.1} MB moved)",
        tp.exec_time_s, noloc.exec_time_s,
        tp.comm_bytes as f64 / 1e6, noloc.comm_bytes as f64 / 1e6);

    let lh1 = mkc(LocalityMode::TaskPlacement, &|c| c.target_tasks = 1);
    let lh2 = mkc(LocalityMode::TaskPlacement, &|c| c.target_tasks = 2);
    println!(
        "latency hiding      (Chol., {procs}p): {:>8.2}s T=1 | {:>8.2}s T=2",
        lh1.exec_time_s, lh2.exec_time_s
    );

    let serial_fetch = mkc(LocalityMode::TaskPlacement, &|c| {
        c.concurrent_fetches = false
    });
    println!(
        "concurrent fetches  (Chol., {procs}p): {:>8.2}s on | {:>8.2}s serial fetches",
        tp.exec_time_s, serial_fetch.exec_time_s
    );
    println!("\n(the paper's finding: replication and locality matter most; broadcast helps\n Water; latency hiding and concurrent fetches barely move these applications)");
}
