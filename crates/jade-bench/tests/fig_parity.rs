//! Acceptance check for the event layer: the task-management percentages of
//! Figures 10/11 (DASH) and 20/21 (iPSC/860) — `100 * work-free time / full
//! time` — must be reproducible from the structured event streams alone,
//! bit-for-bit equal to what the run results report.

use dsim::SimDuration;
use jade_bench::{App, Harness};
use jade_core::{LocalityMode, Metrics};
use jade_dash::DashConfig;
use jade_ipsc::IpscConfig;

fn pct(full: f64, free: f64) -> f64 {
    100.0 * free / full
}

fn exec_s(m: &Metrics) -> f64 {
    SimDuration(m.makespan_ps).as_secs_f64()
}

#[test]
fn fig_mgmt_percentages_reconstruct_from_events() {
    let mut h = Harness::new(true);
    let mode = LocalityMode::TaskPlacement;
    for procs in [2usize, 8] {
        for app in [App::Ocean, App::Cholesky] {
            let trace = h.trace(app, procs);

            // Figures 10/11: DASH.
            let spo = app.dash_sec_per_op(&trace);
            let full_cfg = DashConfig::paper(procs, mode, spo);
            let mut free_cfg = full_cfg.clone();
            free_cfg.work_free = true;
            let (rf, ef) = jade_dash::try_run_traced(&trace, &full_cfg).expect("simulation failed");
            let (rw, ew) = jade_dash::try_run_traced(&trace, &free_cfg).expect("simulation failed");
            let from_run = pct(rf.exec_time_s, rw.exec_time_s);
            let from_events = pct(
                exec_s(&Metrics::from_events(&ef, procs)),
                exec_s(&Metrics::from_events(&ew, procs)),
            );
            assert_eq!(from_events, from_run, "DASH {app:?} {procs}p");
            assert!(from_events > 0.0 && from_events <= 100.0);

            // Figures 20/21: iPSC/860.
            let spo = app.ipsc_sec_per_op(&trace);
            let full_cfg = IpscConfig::paper(procs, mode, spo);
            let mut free_cfg = full_cfg.clone();
            free_cfg.work_free = true;
            let (rf, ef) = jade_ipsc::try_run_traced(&trace, &full_cfg).expect("simulation failed");
            let (rw, ew) = jade_ipsc::try_run_traced(&trace, &free_cfg).expect("simulation failed");
            let from_run = pct(rf.exec_time_s, rw.exec_time_s);
            let from_events = pct(
                exec_s(&Metrics::from_events(&ef, procs)),
                exec_s(&Metrics::from_events(&ew, procs)),
            );
            assert_eq!(from_events, from_run, "iPSC {app:?} {procs}p");
            assert!(from_events > 0.0 && from_events <= 100.0);
        }
    }
}
