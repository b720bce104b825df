//! Cross-crate integration tests: every application trace runs to
//! completion on both simulated machines at every locality level, and the
//! runs satisfy the invariants the paper's evaluation relies on.

use jade::apps::{cholesky, halo, ocean, pagerank, string_app, water};
use jade::core::{Event, TraceBuilder};
use jade::dash::{self, DashConfig};
use jade::dsim::driver::SimError;
use jade::dsim::{FaultPlan, SimDuration};
use jade::ipsc::{self, IpscConfig, IpscRunResult, PinnedSchedule};
use jade::{AccessSpec, LocalityMode, ObjectId, TaskId, Trace};

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

/// A malformed trace — its records have public fields — comes back from
/// both machines as the first problem `Trace::validate` names, not as a
/// panic deep in the simulator.
#[test]
fn malformed_traces_are_errors_on_both_machines() {
    let valid = || {
        let mut b = TraceBuilder::new();
        let o = b.object("o", 64, Some(1));
        let mut s = AccessSpec::new();
        s.wr(o);
        b.task(s, 1.0);
        b.build()
    };
    let mut cases = Vec::new();
    for work in [-1.0, f64::NAN] {
        let mut t = valid();
        t.tasks[0].work = work;
        cases.push(("bad work", t));
    }
    let mut t = valid();
    t.tasks[0].phase = 1;
    cases.push(("has phase 1 of 1", t));
    let mut t = valid();
    t.tasks[0].spec.rd(ObjectId(7));
    cases.push(("references unallocated obj#7", t));
    let mut t = valid();
    t.tasks[0].id = TaskId(3);
    cases.push(("has id task#3", t));
    for (why, trace) in &cases {
        let on_dash = dash::try_run(trace, &DashConfig::paper(4, LocalityMode::Locality, 1e-3));
        let on_ipsc = ipsc::try_run(trace, &IpscConfig::paper(4, LocalityMode::Locality, 1e-3));
        for got in [on_dash.err(), on_ipsc.err()] {
            assert!(
                matches!(&got, Some(SimError::InvalidTrace(p)) if p.contains(why)),
                "{why}: {got:?}"
            );
        }
    }
}

/// Both machines replay the dependence graph a trace keeps from its first
/// run (`Trace::dep_graph`), so a trace that changes afterwards must not
/// replay the kept graph. A clone whose specifications are all reversed
/// (the locality-object ablation) and a trace changed in place after a run
/// each simulate exactly as a copy never simulated before does.
#[test]
fn a_changed_trace_never_replays_a_stale_graph() {
    let dash_cfg = DashConfig::paper(4, LocalityMode::Locality, 1e-6);
    let ipsc_cfg = IpscConfig::paper(4, LocalityMode::Locality, 1e-6);
    let runs = |t: &Trace| {
        let (d, de) = dash::try_run_traced(t, &dash_cfg).unwrap();
        let (i, ie) = ipsc::try_run_traced(t, &ipsc_cfg).unwrap();
        (format!("{d:?}"), de, format!("{i:?}"), ie)
    };
    let trace = ocean::run_trace(&ocean::OceanConfig::small(4)).0;
    runs(&trace);
    let mut reversed = trace.clone();
    for t in &mut reversed.tasks {
        let decls: Vec<_> = t.spec.decls().iter().rev().copied().collect();
        t.spec = decls.into_iter().collect();
    }
    assert!(runs(&reversed) == runs(&reversed.clone()));

    // Four independent writers, until the last also reads what the first
    // writes: then it waits for the first.
    let mut b = TraceBuilder::new();
    let objects: Vec<ObjectId> = (0..4)
        .map(|i| b.object(&format!("o{i}"), 4096, Some(i)))
        .collect();
    for &o in &objects {
        let mut s = AccessSpec::new();
        s.wr(o);
        b.task(s, 1e4);
    }
    let mut changed = b.build();
    let before = runs(&changed);
    changed.tasks[3].spec.rd(objects[0]);
    let after = runs(&changed);
    assert!(after != before, "the change must move the run");
    assert!(after == runs(&changed.clone()));
}

/// What an iPSC run must reproduce bit for bit: `exec_time_s` bits, messages
/// dropped / retried / discarded, prefetch hits and stale prefetches,
/// aggregated objects, comm bytes, re-executed tasks, checkpoint bytes, and
/// an FNV-1a hash of the whole traced event stream.
type IpscPrint = (u64, u64, u64, u64, u64, u64, u64, u64, u64, u64, u64);

/// FNV-1a over text: fed the `Debug` rendering of every event in order, it
/// hashes every field of every event.
struct Fnv1a(u64);

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

fn ipsc_print(trace: &Trace, cfg: &IpscConfig) -> (IpscPrint, IpscRunResult, Vec<Event>) {
    use std::fmt::Write;
    let (r, events) = ipsc::try_run_traced(trace, cfg).expect("iPSC run completes");
    let mut hash = Fnv1a(0xcbf2_9ce4_8422_2325);
    for e in &events {
        write!(hash, "{e:?};").expect("hashing cannot fail");
    }
    let print = (
        r.exec_time_s.to_bits(),
        r.msgs_dropped,
        r.msgs_retried,
        r.msgs_discarded,
        r.prefetch_hits,
        r.prefetch_stale,
        r.agg_objects,
        r.comm_bytes,
        r.tasks_reexecuted,
        r.checkpoint_bytes,
        hash.0,
    );
    (print, r, events)
}

/// Per application, its `final_versions` run-length encoded as `(version,
/// count)`: the same under every configuration and every plan.
const VERSIONS: [(&str, &[(u64, usize)]); 2] = [
    ("water", &[(2, 1), (0, 1), (2, 18)]),
    ("pagerank", &[(2, 84), (4, 42), (1, 1)]),
];

/// Recorded at `8051e00`, before the iPSC fetch paths were merged into one
/// pipeline. Per application, per fetch route — managed (aggregation,
/// prefetch, two tasks a processor, tuning), demand (the paper's
/// configuration), aggregation only, prefetch only, serial fetch, eager
/// update, workstations, and a pinned replay of the demand schedule with
/// prefetch on — three runs: fault-free, under the racy plan and under the
/// failing plan. The managed racy and failing rows' first ten fields are
/// those recorded at PR 19 (`b6a4331`).
#[rustfmt::skip]
const IPSC_GOLDEN: [IpscPrint; 48] = [
    (0x4078925e2892b894, 0, 0, 6, 28, 0, 14, 362096, 0, 0, 0x99fe071ee33c344a),
    (0x40789279a76a8779, 5, 8, 5, 28, 0, 14, 233072, 0, 0, 0x70b253b62437ac88),
    (0x4082835efaace21f, 0, 7, 7, 27, 0, 0, 221544, 1, 23200, 0x75f538a43fd663f5),
    (0x407892b53701e6da, 0, 0, 2, 0, 0, 0, 288368, 0, 0, 0xc51f0eb57fabc3cc),
    (0x40789309f78af5ef, 6, 12, 12, 0, 0, 0, 260720, 0, 0, 0x43f89852ff01ceb4),
    (0x4081dcd2194f1402, 2, 15, 13, 0, 0, 0, 226168, 1, 69354, 0x23d6bcd75264407f),
    (0x407892b510a8d574, 0, 0, 2, 0, 0, 14, 288368, 0, 0, 0xa035b5736f3285e1),
    (0x407893387df8d040, 6, 13, 12, 0, 0, 14, 251504, 0, 0, 0x78a7e73d6f17d6d7),
    (0x4081dccb40b06335, 1, 14, 13, 0, 0, 18, 226168, 1, 69354, 0x80d1c29e10d7a92),
    (0x4078925c9d1c34ca, 0, 0, 6, 28, 0, 0, 362096, 0, 0, 0xea185b86a63947fd),
    (0x40789271ce7d5540, 5, 4, 5, 28, 0, 0, 297584, 0, 0, 0x8b900749e13320b8),
    (0x4081dc726a32f51e, 0, 0, 0, 29, 0, 0, 226168, 1, 69354, 0xc273368c1dc87617),
    (0x407892fd9698a914, 0, 0, 2, 0, 0, 0, 288368, 0, 0, 0xaa303b1394c2f48d),
    (0x4078936acf04f277, 6, 11, 11, 0, 0, 0, 260720, 0, 0, 0x3bb89280c40c7af),
    (0x4081dcf4e509724f, 2, 13, 11, 0, 0, 0, 226168, 1, 69354, 0x105018e2782a34c0),
    (0x407892b1e210d517, 0, 0, 2, 0, 0, 0, 288368, 0, 0, 0x3f33c16091983080),
    (0x4078930def609432, 6, 10, 12, 0, 0, 0, 272248, 0, 0, 0x65437cfd3ea7f2d2),
    (0x4081dcc6463843cc, 0, 13, 13, 0, 0, 0, 226168, 1, 55482, 0xedaf7a6340eb0a2d),
    (0x40789530de2b2f06, 0, 0, 2, 0, 0, 0, 306800, 0, 0, 0xc6a75a24613e465),
    (0x407895e96453ab68, 8, 20, 17, 0, 0, 0, 269936, 0, 0, 0xd3882d799e55db4),
    (0x407869e5f54cb2b3, 2, 16, 14, 0, 0, 0, 226192, 1, 50824, 0xf630d4c1ed6713a9),
    (0x4078925c9d1c34ca, 0, 0, 6, 28, 0, 0, 362096, 0, 0, 0xea185b86a63947fd),
    (0x40789271ce7d5540, 5, 4, 5, 28, 0, 0, 297584, 0, 0, 0x8b900749e13320b8),
    (0x4081dbbb6d40e906, 0, 0, 0, 29, 0, 0, 230784, 1, 69354, 0x8eaf8b98dc809221),
    (0x4017c87e03cc63c5, 0, 0, 0, 668, 0, 488, 865472, 0, 0, 0xf970a797529e5585),
    (0x4018605cbcee1e0f, 68, 94, 21, 666, 0, 444, 881344, 0, 0, 0x53b9b4c6258b3cc8),
    (0x401adbf9c252de5d, 29, 121, 72, 624, 0, 405, 823816, 1, 99831, 0x11f05832aa3fe766),
    (0x4016c2960423e15f, 0, 0, 0, 0, 0, 0, 875392, 0, 0, 0x97e35cf52a11a635),
    (0x40160d1f07e996a5, 106, 106, 34, 0, 0, 0, 878208, 0, 0, 0x9c5f9cd8c88f228),
    (0x40164f8ed4e09823, 51, 70, 19, 0, 0, 0, 849784, 0, 308617, 0x1c0869e1f743a889),
    (0x4016bd5cf82c8eb7, 0, 0, 0, 0, 0, 536, 875392, 0, 0, 0xbd624071e0f257ea),
    (0x40165ddbd7e0bb9a, 68, 85, 34, 0, 0, 478, 864056, 0, 0, 0x1916a82675d35bea),
    (0x4017ff6d8f0fc564, 33, 155, 111, 0, 0, 505, 884272, 1, 324528, 0x414e57756984ec33),
    (0x4015e87ef18f0d24, 0, 0, 0, 692, 0, 0, 875344, 0, 0, 0xd0b2b78ef8cad48f),
    (0x4015e5ea953cad22, 106, 105, 32, 691, 0, 0, 879888, 0, 0, 0xb1dfe0d0620b5273),
    (0x401702296e1db5e3, 47, 50, 3, 682, 0, 0, 861320, 1, 328544, 0x5ec10f00787eb630),
    (0x4015ba8e3323aa9c, 0, 0, 0, 0, 0, 0, 871248, 0, 0, 0x62bc07b51e96ec71),
    (0x4017039e3dd5d2f6, 106, 106, 33, 0, 0, 0, 858000, 0, 0, 0x6e60c536f4720c2f),
    (0x40172e08ecc75e99, 51, 63, 12, 0, 0, 0, 855640, 1, 322900, 0xe95e9c474e8af6aa),
    (0x4016c37431652492, 0, 0, 0, 0, 0, 0, 1096520, 0, 0, 0xd6e7983baaaae445),
    (0x401649ed8ad52e7d, 97, 67, 32, 0, 0, 0, 1128136, 0, 0, 0x8f0553b5dbb81dc0),
    (0x4017a0f0ccf7e96c, 48, 39, 8, 0, 0, 0, 1111240, 1, 258128, 0x3f76e4e49c6cde35),
    (0x4014970c345ff096, 0, 0, 0, 0, 0, 0, 866560, 0, 0, 0x85e2fc4948f5d305),
    (0x401c54807f11698c, 244, 1486, 1321, 0, 0, 0, 860496, 0, 0, 0x4f796a14fbd8d728),
    (0x401ad008c10af951, 106, 1508, 1378, 0, 0, 0, 826000, 1, 386542, 0x8c86ee5538963208),
    (0x4016759fd0beec89, 0, 0, 0, 702, 0, 0, 885472, 0, 0, 0x5518ab474482f902),
    (0x4016a09f971e9f31, 104, 101, 30, 702, 0, 0, 885472, 0, 0, 0xd293cb6fc015922c),
    (0x4016d11037f21d29, 47, 53, 6, 679, 0, 0, 865488, 1, 303908, 0x4dabd78f2ba1593e),
];

/// The other fault batteries compare a run with itself (folded against
/// traced, faulty against fault-free versions, one seed twice), so a
/// refactor that moves a retry by one calendar slot passes them all. This
/// pins every fetch route against constants, fault-free, then under late
/// and duplicated replies racing a re-armed ack timer (the racy plan), then
/// under loss with a fail-stop and checkpoints (the failing plan).
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
    let mut got = Vec::new();
    for ((trace, stripped_s), (name, versions)) in traces.iter().zip(VERSIONS) {
        let sec_per_op = stripped_s / trace.total_work();
        let versions: Vec<u64> = versions
            .iter()
            .flat_map(|&(v, n)| std::iter::repeat_n(v, n))
            .collect();
        let demand = IpscConfig::paper(8, LocalityMode::Locality, sec_per_op);
        let (_, _, demand_events) = ipsc_print(trace, &demand);
        let routes = [
            IpscConfig {
                aggregate_fetches: true,
                prefetch: true,
                target_tasks: 2,
                tune: true,
                ..demand.clone()
            },
            demand.clone(),
            IpscConfig {
                aggregate_fetches: true,
                ..demand.clone()
            },
            IpscConfig {
                prefetch: true,
                ..demand.clone()
            },
            IpscConfig {
                concurrent_fetches: false,
                ..demand.clone()
            },
            IpscConfig {
                eager_update: true,
                ..demand.clone()
            },
            IpscConfig::workstations(vec![1.0, 1.0, 2.0, 2.0, 4.0, 1.0, 2.0, 1.0], sec_per_op),
            IpscConfig {
                prefetch: true,
                pinned: Some(PinnedSchedule::from_events(
                    trace.tasks.len(),
                    &demand_events,
                )),
                ..demand.clone()
            },
        ];
        for (route, mut cfg) in routes.into_iter().enumerate() {
            let (print, clean, _) = ipsc_print(trace, &cfg);
            assert_eq!(clean.final_versions, versions, "{name} route {route}");
            got.push(print);
            let at = |share: f64| SimDuration::from_secs_f64(clean.exec_time_s * share);
            let racy =
                FaultPlan::parse("drop=0.05,dup=0.02,delay=0.1:0.0005,reorder=0.05,seed=1995")
                    .unwrap();
            let failing = FaultPlan {
                fail_proc: Some(3),
                fail_at: at(0.4),
                checkpoint: Some(at(0.125)),
                ..FaultPlan::parse("drop=0.02,seed=1995").unwrap()
            };
            for plan in [racy, failing] {
                cfg.faults = plan;
                let (print, r, _) = ipsc_print(trace, &cfg);
                assert_eq!(r.final_versions, versions, "{name} route {route} {plan:?}");
                got.push(print);
            }
        }
    }
    assert_eq!(got, IPSC_GOLDEN, "as source: {got:#x?}");
}

/// What a DASH run must reproduce bit for bit: `exec_time_s` bits, steals,
/// bytes moved, `locality_pct` bits, prefetches issued / hit / stale, stalls,
/// and an FNV-1a hash of the whole traced event stream.
type DashPrint = (u64, u64, u64, u64, u64, u64, u64, u64, u64);

fn dash_print(trace: &Trace, cfg: &DashConfig) -> DashPrint {
    use std::fmt::Write;
    let (r, events) = dash::try_run_traced(trace, cfg).expect("DASH run completes");
    let mut hash = Fnv1a(0xcbf2_9ce4_8422_2325);
    for e in &events {
        write!(hash, "{e:?};").expect("hashing cannot fail");
    }
    (
        r.exec_time_s.to_bits(),
        r.steals,
        r.bytes_moved,
        r.locality_pct.to_bits(),
        r.prefetches_issued,
        r.prefetch_hits,
        r.prefetch_stale,
        r.stalls,
        hash.0,
    )
}

/// Recorded at PR 22 (`e33ae33`), before the synchronizer, the scheduler,
/// `MemSim` and `pick_idle` were rewritten; the stream hashes were added at
/// `0b3e309`, before the two simulators were moved onto one driver. Per application: `Locality`
/// then `NoLocality`, each under the paper configuration and then under
/// aggregation + prefetch + a seeded stall plan; last, Water at `Locality`
/// without replication and Ocean at `Locality` under a deadline of 40 % of
/// its full run.
#[rustfmt::skip]
const DASH_GOLDEN: [DashPrint; 26] = [
    (0x4080c5b304f61cda, 0, 47168, 0x4059000000000000, 0, 0, 0, 0, 0xebc31de4080392dc),
    (0x4080c614c4dc5083, 0, 47168, 0x4059000000000000, 4, 4, 0, 5, 0x64b3c3cb5dadbdb),
    (0x4080c5b7e26b034b, 0, 63336, 0x4035e00000000000, 0, 0, 0, 0, 0xa8a31390fcd610b7),
    (0x4080c6176e9a4fe3, 0, 63336, 0x4035e00000000000, 5, 2, 0, 5, 0x3a99ee0d49d5b72),
    (0x40a87129937f0c3b, 0, 52560, 0x4059000000000000, 0, 0, 0, 0, 0xb0005cbb9c46fc92),
    (0x40a8713ffe9cbbff, 0, 52560, 0x4059000000000000, 3, 3, 0, 1, 0xc92ee5984d60ea2d),
    (0x40a87128b5e33a15, 0, 86496, 0x4039000000000000, 0, 0, 0, 0, 0xb62ac0c3bf57065c),
    (0x40a8713fde98ba8f, 0, 86496, 0x4039000000000000, 6, 2, 0, 1, 0xcf0d8f11e456beb7),
    (0x4037d6a46cc4a0de, 0, 11264, 0x4059000000000000, 0, 0, 0, 0, 0x67899658feb6c566),
    (0x4037ff7b261f9c33, 0, 11264, 0x4059000000000000, 25, 25, 0, 7, 0x3d1cf88369343aa2),
    (0x4037d728d41cfc64, 0, 68096, 0x402a30c30c30c30d, 0, 0, 0, 0, 0x8a52c141c8c7abd),
    (0x4037ffac00880b4e, 0, 63744, 0x4020aaaaaaaaaaaa, 173, 77, 0, 7, 0xfbaf582a707f178a),
    (0x402a80a0428148e3, 23, 24608, 0x4053127966ed8699, 0, 0, 0, 0, 0xda878892d5383cfb),
    (0x402ab32f52d4fe17, 25, 24608, 0x40528e83f5717c0b, 47, 42, 0, 7, 0x3bba3b7af799d317),
    (0x402a81a949910e36, 0, 33760, 0x40228e83f5717c0b, 0, 0, 0, 0, 0x8cc7d16d0abd642d),
    (0x402ae6fe54db3fd4, 0, 32032, 0x401cddb0d3224f2c, 76, 43, 0, 7, 0xcbbed9b9edc55ac6),
    (0x400e86677c4cc9bd, 94, 225344, 0x4052018618618618, 0, 0, 0, 0, 0x97b037591c25dcef),
    (0x4011b2239736dc8f, 102, 230000, 0x4051692492492492, 245, 157, 0, 36, 0x55038291f4f46198),
    (0x401167e2adfc33af, 0, 268128, 0x402273cf3cf3cf3d, 0, 0, 0, 0, 0xffb09dc4a516c693),
    (0x4011d2ad495f55fe, 0, 270744, 0x4027cf3cf3cf3cf3, 418, 130, 0, 36, 0x624d956077a539a4),
    (0x40258d92ff20ad96, 39, 21024, 0x4041800000000000, 0, 0, 0, 0, 0xcbb7819c0f5724c6),
    (0x4025923c04afa777, 43, 20448, 0x403c555555555555, 60, 27, 0, 6, 0xdf8384be9aa4de4f),
    (0x40257cc13d13462d, 0, 21024, 0x401aaaaaaaaaaaab, 0, 0, 0, 0, 0xcff6f529fe749542),
    (0x4025809903e427b6, 0, 21600, 0x402aaaaaaaaaaaab, 77, 27, 0, 6, 0xbecf5ef854f571fb),
    (0x40a9a371e06c613d, 0, 47168, 0x4059000000000000, 0, 0, 0, 0, 0x1a2a4fb36cb61e1e),
    (0x4024a5c6d456fe89, 0, 4608, 0x4059000000000000, 0, 0, 0, 0, 0x73a6cfe8a61a7e43),
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
