//! Property battery for the self-tuning feedback controller
//! (DESIGN.md §19): over random task DAGs and fault plans on the simulated
//! iPSC/860, a controller-on run must
//!
//! 1. replay **bit-identically** for a given seed (event stream and
//!    decision log alike),
//! 2. compute exactly what the controller-off run computes (knobs steer
//!    performance, never results), and
//! 3. keep every recorded knob value inside its documented range.

use dsim::FaultPlan;
use jade_core::{AccessSpec, LocalityMode, TraceBuilder};
use jade_ipsc::IpscConfig;
use proptest::prelude::*;

/// Build a random multi-phase trace: every task writes one object (so
/// width statistics accumulate and `final_versions` moves) and reads a
/// random subset of the others; phase breaks drop in at random points.
fn random_trace(procs: usize, sizes: &[usize], tasks: &[(u8, u8, u8, bool)]) -> jade_core::Trace {
    let mut b = TraceBuilder::new();
    let objs: Vec<_> = sizes
        .iter()
        .enumerate()
        .map(|(i, &s)| b.object(&format!("o{i}"), s, Some(i % procs)))
        .collect();
    for &(wr, rd_mask, work, brk) in tasks {
        let target = objs[wr as usize % objs.len()];
        let mut spec = AccessSpec::new();
        spec.wr(target);
        for (i, &o) in objs.iter().enumerate() {
            if o != target && rd_mask & (1 << (i % 8)) != 0 {
                spec.rd(o);
            }
        }
        b.task(spec, 0.001 + work as f64 * 1e-4);
        if brk {
            b.next_phase();
        }
    }
    b.build()
}

/// Decode a valid random fault plan: light message loss, an optional
/// mid-run fail-stop of a non-main processor, an optional checkpoint
/// chain. Values stay far inside `FaultPlan::validate` bounds.
fn random_plan(
    procs: usize,
    drop_milli: u64,
    fail: Option<(u8, u16)>,
    ckpt_milli: Option<u16>,
    seed: u64,
) -> FaultPlan {
    FaultPlan {
        drop_p: drop_milli as f64 / 1000.0,
        fail_proc: fail.map(|(p, _)| 1 + p as usize % (procs - 1)),
        fail_at: dsim::SimDuration::from_secs_f64(
            fail.map_or(0.0, |(_, at)| 0.001 + at as f64 * 1e-4),
        ),
        checkpoint: ckpt_milli.map(|k| dsim::SimDuration::from_secs_f64(0.001 + k as f64 * 1e-4)),
        seed,
        ..FaultPlan::none()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// iPSC backend: controller-on runs are bit-identical per seed, agree
    /// with controller-off on every result, and keep knobs in range —
    /// across random DAGs × random fault plans.
    #[test]
    fn ipsc_tuned_runs_are_deterministic_and_result_preserving(
        procs in 2usize..6,
        sizes in prop::collection::vec(64usize..5000, 2..7),
        tasks in prop::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<bool>()), 3..40),
        drop_milli in 0u64..30,
        fail in (any::<bool>(), any::<u8>(), any::<u16>()),
        ckpt in (any::<bool>(), any::<u16>()),
        seed in any::<u64>(),
    ) {
        let trace = random_trace(procs, &sizes, &tasks);
        let plan = random_plan(
            procs,
            drop_milli,
            if fail.0 { Some((fail.1, fail.2)) } else { None },
            if ckpt.0 { Some(ckpt.1) } else { None },
            seed,
        );
        let mut cfg = IpscConfig::paper(procs, LocalityMode::Locality, 1.0);
        cfg.faults = plan;
        let off = jade_ipsc::try_run(&trace, &cfg).expect("untuned run");
        prop_assert!(off.tune.decisions.is_empty(),
            "controller-off run must not log decisions");
        cfg.tune = true;
        let (t1, e1) = jade_ipsc::try_run_traced(&trace, &cfg).expect("tuned run");
        let (t2, e2) = jade_ipsc::try_run_traced(&trace, &cfg).expect("tuned repeat");
        prop_assert_eq!(&e1, &e2, "tuned event streams diverged across repeats");
        prop_assert_eq!(&t1.tune, &t2.tune, "tuned decision logs diverged");
        prop_assert!(!t1.tune.decisions.is_empty(),
            "every write retires width evidence; the log cannot be empty");
        t1.tune.check_ranges().expect("knob out of documented range");
        prop_assert_eq!(&t1.final_versions, &off.final_versions,
            "tuning changed computed results");
        prop_assert_eq!(t1.tasks_executed, off.tasks_executed);
    }
}
