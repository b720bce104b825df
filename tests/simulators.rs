//! Cross-crate integration tests: every application trace runs to
//! completion on both simulated machines at every locality level, and the
//! runs satisfy the invariants the paper's evaluation relies on.

use jade::apps::{cholesky, halo, ocean, pagerank, string_app, water};
use jade::dash::{self, DashConfig};
use jade::dsim::{FaultPlan, SimDuration};
use jade::ipsc::{self, IpscConfig, IpscRunResult};
use jade::{LocalityMode, Trace};

fn traces(procs: usize) -> Vec<(&'static str, Trace, bool)> {
    vec![
        (
            "water",
            water::run_trace(&water::WaterConfig::small(procs)).0,
            false,
        ),
        (
            "string",
            string_app::run_trace(&string_app::StringConfig::small(procs)).0,
            false,
        ),
        (
            "ocean",
            ocean::run_trace(&ocean::OceanConfig::small(procs)).0,
            true,
        ),
        (
            "cholesky",
            cholesky::run_trace(&cholesky::CholeskyConfig::small(procs)).0,
            true,
        ),
    ]
}

#[test]
fn every_app_runs_on_dash_at_every_level() {
    for procs in [1usize, 3, 8] {
        for (name, trace, placed) in traces(procs) {
            for mode in LocalityMode::ALL {
                if mode == LocalityMode::TaskPlacement && !placed {
                    continue;
                }
                let r = dash::run(&trace, &DashConfig::paper(procs, mode, 1e-6));
                assert_eq!(
                    r.tasks_executed,
                    trace.task_count(),
                    "{name} procs={procs} {mode}: every task must execute"
                );
                assert!(r.exec_time_s > 0.0);
                assert!(
                    r.exec_time_s >= r.task_time_s / procs as f64 * 0.99,
                    "{name}: makespan can't beat perfect speedup"
                );
                assert!((0.0..=100.0).contains(&r.locality_pct));
            }
        }
    }
}

#[test]
fn every_app_runs_on_ipsc_at_every_level() {
    for procs in [1usize, 3, 8] {
        for (name, trace, placed) in traces(procs) {
            for mode in LocalityMode::ALL {
                if mode == LocalityMode::TaskPlacement && !placed {
                    continue;
                }
                let r = ipsc::run(&trace, &IpscConfig::paper(procs, mode, 1e-6));
                assert_eq!(
                    r.tasks_executed,
                    trace.task_count(),
                    "{name} procs={procs} {mode}"
                );
                assert!(r.exec_time_s > 0.0);
                assert!((0.0..=100.0).contains(&r.locality_pct));
                if procs == 1 {
                    assert_eq!(r.fetches, 0, "{name}: no fetches on one processor");
                }
            }
        }
    }
}

#[test]
fn dash_placement_gives_full_locality() {
    let trace = ocean::run_trace(&ocean::OceanConfig::small(5)).0;
    let r = dash::run(
        &trace,
        &DashConfig::paper(5, LocalityMode::TaskPlacement, 1e-6),
    );
    assert_eq!(r.locality_pct, 100.0);
    assert_eq!(r.steals, 0);
}

#[test]
fn more_processors_do_not_lose_tasks() {
    // More processors than tasks: degenerate but must complete.
    let trace = water::run_trace(&water::WaterConfig {
        molecules: 32,
        iterations: 1,
        procs: 2,
        seed: 3,
    })
    .0;
    for procs in [4usize, 16, 32] {
        let d = dash::run(
            &trace,
            &DashConfig::paper(procs, LocalityMode::Locality, 1e-6),
        );
        assert_eq!(d.tasks_executed, trace.task_count());
        let i = ipsc::run(
            &trace,
            &IpscConfig::paper(procs, LocalityMode::Locality, 1e-6),
        );
        assert_eq!(i.tasks_executed, trace.task_count());
    }
}

#[test]
fn work_free_runs_complete_and_are_faster() {
    let trace = cholesky::run_trace(&cholesky::CholeskyConfig::small(4)).0;
    let full = IpscConfig::paper(4, LocalityMode::TaskPlacement, 1e-5);
    let mut free = full.clone();
    free.work_free = true;
    let rf = ipsc::run(&trace, &full);
    let rw = ipsc::run(&trace, &free);
    assert!(rw.exec_time_s < rf.exec_time_s);
    assert_eq!(rw.tasks_executed, rf.tasks_executed);
}

#[test]
fn simulators_are_deterministic_across_runs() {
    let trace = ocean::run_trace(&ocean::OceanConfig::small(4)).0;
    let d1 = dash::run(&trace, &DashConfig::paper(4, LocalityMode::Locality, 1e-6));
    let d2 = dash::run(&trace, &DashConfig::paper(4, LocalityMode::Locality, 1e-6));
    assert_eq!(d1.exec_time_s, d2.exec_time_s);
    assert_eq!(d1.steals, d2.steals);
    let i1 = ipsc::run(&trace, &IpscConfig::paper(4, LocalityMode::Locality, 1e-6));
    let i2 = ipsc::run(&trace, &IpscConfig::paper(4, LocalityMode::Locality, 1e-6));
    assert_eq!(i1.exec_time_s, i2.exec_time_s);
    assert_eq!(i1.comm_bytes, i2.comm_bytes);
}

#[test]
fn replication_off_serializes_on_both_machines() {
    // Section 5.1: all applications have an object read by every task in
    // the important parallel phases; without replication they serialize.
    let trace = water::run_trace(&water::WaterConfig::small(6)).0;
    let spo = 1e-4;
    let d_on = DashConfig::paper(6, LocalityMode::Locality, spo);
    let mut d_off = d_on.clone();
    d_off.replication = false;
    let don = dash::run(&trace, &d_on);
    let doff = dash::run(&trace, &d_off);
    assert!(doff.exec_time_s > 1.5 * don.exec_time_s);
    let mut i_off = IpscConfig::paper(6, LocalityMode::Locality, spo);
    i_off.replication = false;
    let ion = ipsc::run(&trace, &IpscConfig::paper(6, LocalityMode::Locality, spo));
    let ioff = ipsc::run(&trace, &i_off);
    assert!(ioff.exec_time_s > 1.5 * ion.exec_time_s);
}

#[test]
fn broadcast_volume_accounted() {
    // Water's position object becomes broadcast after the first phases.
    let trace = water::run_trace(&water::WaterConfig::small(8)).0;
    let r = ipsc::run(&trace, &IpscConfig::paper(8, LocalityMode::Locality, 1e-6));
    assert!(
        r.broadcasts > 0,
        "adaptive broadcast should engage for Water"
    );
    let mut off = IpscConfig::paper(8, LocalityMode::Locality, 1e-6);
    off.adaptive_broadcast = false;
    let r2 = ipsc::run(&trace, &off);
    assert_eq!(r2.broadcasts, 0);
}

/// What a faulty managed run must reproduce bit for bit.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    exec_time_bits: u64,
    msgs_dropped: u64,
    msgs_retried: u64,
    msgs_discarded: u64,
    prefetch_hits: u64,
    prefetch_stale: u64,
    agg_objects: u64,
    comm_bytes: u64,
    tasks_reexecuted: u64,
    checkpoint_bytes: u64,
}

impl Fingerprint {
    fn of(r: &IpscRunResult) -> Fingerprint {
        Fingerprint {
            exec_time_bits: r.exec_time_s.to_bits(),
            msgs_dropped: r.msgs_dropped,
            msgs_retried: r.msgs_retried,
            msgs_discarded: r.msgs_discarded,
            prefetch_hits: r.prefetch_hits,
            prefetch_stale: r.prefetch_stale,
            agg_objects: r.agg_objects,
            comm_bytes: r.comm_bytes,
            tasks_reexecuted: r.tasks_reexecuted,
            checkpoint_bytes: r.checkpoint_bytes,
        }
    }
}

/// One application's golden values: its `final_versions`, run-length encoded
/// as `(version, count)` and the same under every plan, then the run under
/// the racy plan and the run under the failing one.
type Golden = (&'static str, &'static [(u64, usize)], [Fingerprint; 2]);

/// Recorded at PR 19 (`b6a4331`), before the per-fetch path was rewritten.
const GOLDEN: [Golden; 2] = [
    (
        "water",
        &[(2, 1), (0, 1), (2, 18)],
        [
            Fingerprint {
                exec_time_bits: 0x40789279a76a8779,
                msgs_dropped: 5,
                msgs_retried: 8,
                msgs_discarded: 5,
                prefetch_hits: 28,
                prefetch_stale: 0,
                agg_objects: 14,
                comm_bytes: 233072,
                tasks_reexecuted: 0,
                checkpoint_bytes: 0,
            },
            Fingerprint {
                exec_time_bits: 0x4082835efaace21f,
                msgs_dropped: 0,
                msgs_retried: 7,
                msgs_discarded: 7,
                prefetch_hits: 27,
                prefetch_stale: 0,
                agg_objects: 0,
                comm_bytes: 221544,
                tasks_reexecuted: 1,
                checkpoint_bytes: 23200,
            },
        ],
    ),
    (
        "pagerank",
        &[(2, 84), (4, 42), (1, 1)],
        [
            Fingerprint {
                exec_time_bits: 0x4018605cbcee1e0f,
                msgs_dropped: 68,
                msgs_retried: 94,
                msgs_discarded: 21,
                prefetch_hits: 666,
                prefetch_stale: 0,
                agg_objects: 444,
                comm_bytes: 881344,
                tasks_reexecuted: 0,
                checkpoint_bytes: 0,
            },
            Fingerprint {
                exec_time_bits: 0x401adbf9c252de5d,
                msgs_dropped: 29,
                msgs_retried: 121,
                msgs_discarded: 72,
                prefetch_hits: 624,
                prefetch_stale: 0,
                agg_objects: 405,
                comm_bytes: 823816,
                tasks_reexecuted: 1,
                checkpoint_bytes: 99831,
            },
        ],
    ),
];

/// The other fault batteries compare a run with itself (folded against
/// traced, faulty against fault-free versions, one seed twice), so a
/// refactor that moves a retry by one calendar slot passes them all. This
/// pins faulty managed runs against constants: late and duplicated replies
/// racing a re-armed ack timer (plan one), and loss with a fail-stop and
/// checkpoints (plan two).
#[test]
fn faulty_managed_runs_match_their_golden_fingerprints() {
    let traces = [
        (
            water::run_trace(&water::WaterConfig::small(8)).0,
            water::calib::IPSC_STRIPPED_S,
        ),
        (
            pagerank::run_trace(&pagerank::PagerankConfig::small(8)).0,
            pagerank::calib::IPSC_STRIPPED_S,
        ),
    ];
    for ((trace, stripped_s), (name, versions, golden)) in traces.iter().zip(&GOLDEN) {
        let sec_per_op = stripped_s / trace.total_work();
        let mut cfg = IpscConfig::paper(8, LocalityMode::Locality, sec_per_op);
        cfg.aggregate_fetches = true;
        cfg.prefetch = true;
        cfg.target_tasks = 2;
        cfg.tune = true;
        let clean = ipsc::try_run(trace, &cfg).expect("fault-free run completes");
        let versions: Vec<u64> = versions
            .iter()
            .flat_map(|&(v, n)| std::iter::repeat_n(v, n))
            .collect();
        assert_eq!(clean.final_versions, versions, "{name}");
        let at = |share: f64| SimDuration::from_secs_f64(clean.exec_time_s * share);
        let racy =
            FaultPlan::parse("drop=0.05,dup=0.02,delay=0.1:0.0005,reorder=0.05,seed=1995").unwrap();
        let failing = FaultPlan {
            fail_proc: Some(3),
            fail_at: at(0.4),
            checkpoint: Some(at(0.125)),
            ..FaultPlan::parse("drop=0.02,seed=1995").unwrap()
        };
        for (plan, want) in [racy, failing].into_iter().zip(golden) {
            cfg.faults = plan;
            let r = ipsc::try_run(trace, &cfg).expect("faulty run completes");
            assert_eq!(Fingerprint::of(&r), *want, "{name} under {plan:?}");
            assert_eq!(r.final_versions, versions, "{name} under {plan:?}");
        }
    }
}

/// What a DASH run must reproduce bit for bit: `exec_time_s` bits, steals,
/// bytes moved, `locality_pct` bits, prefetches issued / hit / stale, stalls.
type DashPrint = (u64, u64, u64, u64, u64, u64, u64, u64);

fn dash_print(trace: &Trace, cfg: &DashConfig) -> DashPrint {
    let r = dash::try_run_folded(trace, cfg).expect("DASH run completes");
    (
        r.exec_time_s.to_bits(),
        r.steals,
        r.bytes_moved,
        r.locality_pct.to_bits(),
        r.prefetches_issued,
        r.prefetch_hits,
        r.prefetch_stale,
        r.stalls,
    )
}

/// Recorded at PR 22 (`e33ae33`), before the synchronizer, the scheduler,
/// `MemSim` and `pick_idle` were rewritten. Per application: `Locality`
/// then `NoLocality`, each under the paper configuration and then under
/// aggregation + prefetch + a seeded stall plan; last, Water at `Locality`
/// without replication and Ocean at `Locality` under a deadline of 40 % of
/// its full run.
#[rustfmt::skip]
const DASH_GOLDEN: [DashPrint; 26] = [
    (0x4080c5b304f61cda, 0, 47168, 0x4059000000000000, 0, 0, 0, 0),
    (0x4080c614c4dc5083, 0, 47168, 0x4059000000000000, 4, 4, 0, 5),
    (0x4080c5b7e26b034b, 0, 63336, 0x4035e00000000000, 0, 0, 0, 0),
    (0x4080c6176e9a4fe3, 0, 63336, 0x4035e00000000000, 5, 2, 0, 5),
    (0x40a87129937f0c3b, 0, 52560, 0x4059000000000000, 0, 0, 0, 0),
    (0x40a8713ffe9cbbff, 0, 52560, 0x4059000000000000, 3, 3, 0, 1),
    (0x40a87128b5e33a15, 0, 86496, 0x4039000000000000, 0, 0, 0, 0),
    (0x40a8713fde98ba8f, 0, 86496, 0x4039000000000000, 6, 2, 0, 1),
    (0x4037d6a46cc4a0de, 0, 11264, 0x4059000000000000, 0, 0, 0, 0),
    (0x4037ff7b261f9c33, 0, 11264, 0x4059000000000000, 25, 25, 0, 7),
    (0x4037d728d41cfc64, 0, 68096, 0x402a30c30c30c30d, 0, 0, 0, 0),
    (0x4037ffac00880b4e, 0, 63744, 0x4020aaaaaaaaaaaa, 173, 77, 0, 7),
    (0x402a80a0428148e3, 23, 24608, 0x4053127966ed8699, 0, 0, 0, 0),
    (0x402ab32f52d4fe17, 25, 24608, 0x40528e83f5717c0b, 47, 42, 0, 7),
    (0x402a81a949910e36, 0, 33760, 0x40228e83f5717c0b, 0, 0, 0, 0),
    (0x402ae6fe54db3fd4, 0, 32032, 0x401cddb0d3224f2c, 76, 43, 0, 7),
    (0x400e86677c4cc9bd, 94, 225344, 0x4052018618618618, 0, 0, 0, 0),
    (0x4011b2239736dc8f, 102, 230000, 0x4051692492492492, 245, 157, 0, 36),
    (0x401167e2adfc33af, 0, 268128, 0x402273cf3cf3cf3d, 0, 0, 0, 0),
    (0x4011d2ad495f55fe, 0, 270744, 0x4027cf3cf3cf3cf3, 418, 130, 0, 36),
    (0x40258d92ff20ad96, 39, 21024, 0x4041800000000000, 0, 0, 0, 0),
    (0x4025923c04afa777, 43, 20448, 0x403c555555555555, 60, 27, 0, 6),
    (0x40257cc13d13462d, 0, 21024, 0x401aaaaaaaaaaaab, 0, 0, 0, 0),
    (0x4025809903e427b6, 0, 21600, 0x402aaaaaaaaaaaab, 77, 27, 0, 6),
    (0x40a9a371e06c613d, 0, 47168, 0x4059000000000000, 0, 0, 0, 0),
    (0x4024a5c6d456fe89, 0, 4608, 0x4059000000000000, 0, 0, 0, 0),
];

/// The DASH batteries compare a run with itself (folded against traced, one
/// seed twice); this pins the scheduler, the memory model and the
/// No-Locality processor draw against constants.
#[test]
fn dash_runs_match_their_golden_fingerprints() {
    let traces = [
        (
            water::run_trace(&water::WaterConfig::small(8)).0,
            water::calib::DASH_STRIPPED_S,
        ),
        (
            string_app::run_trace(&string_app::StringConfig::small(8)).0,
            string_app::calib::DASH_STRIPPED_S,
        ),
        (
            ocean::run_trace(&ocean::OceanConfig::small(8)).0,
            ocean::calib::DASH_STRIPPED_S,
        ),
        (
            cholesky::run_trace(&cholesky::CholeskyConfig::small(8)).0,
            cholesky::calib::DASH_STRIPPED_S,
        ),
        (
            pagerank::run_trace(&pagerank::PagerankConfig::small(8)).0,
            pagerank::calib::DASH_STRIPPED_S,
        ),
        (
            halo::run_trace(&halo::HaloConfig::small(8)).0,
            halo::calib::DASH_STRIPPED_S,
        ),
    ];
    let paper = |i: usize, mode| {
        let (trace, stripped_s): &(Trace, f64) = &traces[i];
        DashConfig::paper(8, mode, stripped_s / trace.total_work())
    };
    let mut got = Vec::new();
    for (i, (trace, _)) in traces.iter().enumerate() {
        for mode in [LocalityMode::Locality, LocalityMode::NoLocality] {
            let cfg = paper(i, mode);
            got.push(dash_print(trace, &cfg));
            let managed = DashConfig {
                aggregate_fetches: true,
                prefetch: true,
                faults: FaultPlan::parse("stall=0.1:0.05,seed=1995").unwrap(),
                ..cfg
            };
            got.push(dash_print(trace, &managed));
        }
    }
    let mut serial = paper(0, LocalityMode::Locality);
    serial.replication = false;
    got.push(dash_print(&traces[0].0, &serial));
    let mut cut = paper(2, LocalityMode::Locality);
    let full = f64::from_bits(got[8].0);
    cut.deadline = Some(SimDuration::from_secs_f64(full * 0.4));
    let r = dash::try_run_folded(&traces[2].0, &cut).unwrap();
    assert!(r.deadline_exceeded && r.tasks_executed > 0);
    got.push(dash_print(&traces[2].0, &cut));
    assert_eq!(got, DASH_GOLDEN, "as source: {got:#x?}");
}
