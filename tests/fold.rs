//! The streaming aggregator ([`MetricsFold`]) is the only path from events to
//! [`Metrics`]: fed one event at a time through a sink it must equal the
//! aggregation of the recorded stream, in any order; an untraced simulator
//! run (fold only) must equal the traced run (fold + recorder) under every
//! option that adds an emission site; and the fold must stay linear in the
//! tasks that fetch.
//!
//! Debug builds of `try_run` record (so span conservation stays checked), so
//! the fold-only instantiation is reached through the doc-hidden
//! `try_run_folded` in every profile; CI runs this file in release mode too,
//! where `try_run` is that instantiation.

use jade::apps::{ocean, pagerank, water};
use jade::core::{Component, Event, EventKind, Locality, Metrics, MetricsFold, Sink, Trace};
use jade::dash::{self, DashConfig};
use jade::dsim::{FaultPlan, SimDuration};
use jade::ipsc::{self, IpscConfig};
use jade::{LocalityMode, ObjectId, TaskId};
use proptest::prelude::*;

/// Number of `EventKind` variants; `kind_of` maps `0..KINDS` onto them.
const KINDS: u8 = 29;

/// The `k`-th event kind with payloads `a`, `b`, kept small enough that no
/// sum over a test stream overflows.
fn kind_of(k: u8, a: u64, b: u64) -> EventKind {
    let bytes = a % 1_000_000;
    let dur_ps = b % 10_000;
    match k % KINDS {
        0 => EventKind::TaskCreated,
        1 => EventKind::TaskEnabled,
        2 => EventKind::TaskDispatched {
            stolen: a.is_multiple_of(2),
            locality: [Locality::Hit, Locality::Miss, Locality::Untracked][(b % 3) as usize],
        },
        3 => EventKind::TaskPooled,
        4 => EventKind::TaskStarted,
        5 => EventKind::TaskCompleted,
        6 => EventKind::AccessReleased,
        7 => EventKind::ObjectRequest { bytes },
        // One fetch in four is instantaneous: no in-flight window.
        8 => EventKind::ObjectFetch {
            bytes,
            latency_ps: if b.is_multiple_of(4) { 0 } else { dur_ps },
        },
        9 => EventKind::AggregatedFetch {
            objects: (b % 9) as u32,
            bytes,
        },
        10 => EventKind::ObjectInvalidate,
        11 => EventKind::ObjectBroadcast {
            bytes,
            receivers: (b % 64) as u32,
        },
        12 => EventKind::MsgSend { bytes },
        13 => EventKind::MsgRecv { bytes },
        14 => EventKind::PhaseStart {
            phase: (b % 6) as u32,
        },
        15 => EventKind::PhaseEnd {
            phase: (b % 6) as u32,
        },
        16 => EventKind::Span {
            component: [Component::App, Component::Comm, Component::Mgmt][(a % 3) as usize],
            dur_ps,
        },
        17 => EventKind::MsgDropped { bytes },
        18 => EventKind::MsgRetried { bytes },
        19 => EventKind::MsgDiscarded { bytes },
        20 => EventKind::ProcStalled { dur_ps },
        21 => EventKind::WorkerFailed,
        22 => EventKind::TaskReExecuted,
        23 => EventKind::CheckpointTaken { bytes },
        24 => EventKind::CheckpointRestored { bytes },
        25 => EventKind::ObjectRestored { bytes },
        26 => EventKind::PrefetchIssued { bytes },
        27 => EventKind::PrefetchHit { bytes },
        _ => EventKind::PrefetchStale { bytes },
    }
}

#[test]
fn kind_of_covers_the_whole_vocabulary() {
    let mut names: Vec<&str> = (0..KINDS).map(|k| kind_of(k, 1, 1).name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), KINDS as usize);
}

/// The raw draw behind one event: `(kind, time, proc)`, `(task present,
/// task)`, and two payload words.
type RawEvent = ((u8, u64, usize), (bool, u32), (u64, u64));

/// A random stream. Half the events are requests, fetches and spans (the
/// kinds with per-task or buffered state); tasks are absent or small;
/// processors run past any `procs` hint the test passes.
fn stream_strategy() -> impl Strategy<Value = Vec<RawEvent>> {
    let event = (
        (0..2 * KINDS, 0..1_000_000u64, 0..12usize),
        (any::<bool>(), 0..24u32),
        (any::<u64>(), any::<u64>()),
    );
    prop::collection::vec(event, 0..200)
}

/// The event `raw` draws, its task id shifted by `offset`.
fn event_of(((k, time_ps, proc), (present, task), (a, b)): RawEvent, offset: u32) -> Event {
    let k = if k >= KINDS {
        [7, 8, 17][(k % 3) as usize]
    } else {
        k
    };
    Event {
        time_ps,
        proc,
        kind: kind_of(k, a, b),
        task: present.then_some(TaskId(offset + task)),
        object: a.is_multiple_of(3).then_some(ObjectId((b % 16) as u32)),
    }
}

/// Pushed through the `Sink` side of a fold-and-record tee, the fold
/// finishes to exactly the aggregation of what the recorder kept, and that
/// aggregation does not depend on the order of the stream.
fn assert_fold_matches(events: Vec<Event>, procs: usize, shuffle: u64) {
    let mut tee = (MetricsFold::new(procs), Vec::<Event>::new());
    for &e in &events {
        Sink::push(&mut tee, e);
    }
    let (fold, recorded) = tee;
    assert_eq!(&recorded, &events);
    let m = Metrics::from_events(&events, procs);
    assert_eq!(&fold.finish(), &m);

    let mut permuted = events;
    let mut rng = shuffle;
    for i in (1..permuted.len()).rev() {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        permuted.swap(i, (rng >> 33) as usize % (i + 1));
    }
    assert_eq!(&Metrics::from_events(&permuted, procs), &m);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every stream, its tasks offset into the millions like a long-lived
    /// `ThreadRuntime`'s half the time.
    #[test]
    fn fold_equals_from_events_in_any_order(
        raw in stream_strategy(),
        offset in any::<bool>(),
        procs in 0..8usize,
        shuffle in any::<u64>(),
    ) {
        let offset = if offset { 4_000_000 } else { 0 };
        let events = raw.into_iter().map(|r| event_of(r, offset)).collect();
        assert_fold_matches(events, procs, shuffle);
    }
}

/// Small and offset task ids in one stream, the offset ones first: the
/// fold's per-task windows open room at the front across four million ids.
#[test]
fn fold_spans_small_and_offset_task_ids() {
    let events = [4_000_007, 3, 4_000_001, 0]
        .into_iter()
        .enumerate()
        .flat_map(|(i, task)| {
            let t = 100 * i as u64;
            [7, 8, 17].map(|k| event_of(((k, t + u64::from(k), 1), (true, task), (3, 5)), 0))
        })
        .collect();
    assert_fold_matches(events, 2, 7);
}

/// A named edit of a simulator configuration.
type Tweak<'a, C> = (&'static str, &'a dyn Fn(&mut C));

/// `base` under each tweak alone, then under `combined` (indices into
/// `tweaks`) all at once as "everything".
fn variants<C: Clone>(
    base: &C,
    tweaks: &[Tweak<C>],
    combined: std::ops::RangeFrom<usize>,
) -> Vec<(&'static str, C)> {
    let apply = |picked: &[Tweak<C>]| {
        let mut c = base.clone();
        for (_, tweak) in picked {
            tweak(&mut c);
        }
        c
    };
    let mut out: Vec<_> = tweaks
        .iter()
        .map(|t| (t.0, apply(std::slice::from_ref(t))))
        .collect();
    out.push(("everything", apply(&tweaks[combined])));
    out
}

/// Every iPSC option that adds an emission site or a recovery path.
fn ipsc_variants(base: &IpscConfig, faults: FaultPlan) -> Vec<(&'static str, IpscConfig)> {
    variants(
        base,
        &[
            ("paper", &|_| {}),
            ("no replication", &|c| c.replication = false),
            ("no adaptive broadcast", &|c| c.adaptive_broadcast = false),
            ("aggregate", &|c| c.aggregate_fetches = true),
            ("prefetch", &|c| c.prefetch = true),
            ("two tasks per processor", &|c| c.target_tasks = 2),
            ("tune", &|c| c.tune = true),
            ("drop + fail-stop + checkpoint", &|c| c.faults = faults),
        ],
        3..,
    )
}

/// The DASH options among them (its fault plan is stalls only).
fn dash_variants(base: &DashConfig) -> Vec<(&'static str, DashConfig)> {
    let stalls = FaultPlan {
        stall_p: 0.2,
        stall: SimDuration::from_secs_f64(1e-4),
        seed: 11,
        ..FaultPlan::none()
    };
    variants(
        base,
        &[
            ("paper", &|_| {}),
            ("no replication", &|c| c.replication = false),
            ("stalls", &|c| c.faults = stalls),
        ],
        1..,
    )
}

fn traces(procs: usize) -> Vec<(&'static str, Trace)> {
    vec![
        (
            "water",
            water::run_trace(&water::WaterConfig::small(procs)).0,
        ),
        (
            "ocean",
            ocean::run_trace(&ocean::OceanConfig::small(procs)).0,
        ),
        (
            "pagerank",
            pagerank::run_trace(&pagerank::PagerankConfig::small(procs)).0,
        ),
    ]
}

#[test]
fn untraced_ipsc_run_equals_traced_run_and_its_stream() {
    let procs = 8;
    for (app, trace) in traces(procs) {
        let base = IpscConfig::paper(procs, LocalityMode::Locality, 1e-6);
        let clean = ipsc::try_run(&trace, &base).expect("fault-free run");
        let at = |share: f64| SimDuration::from_secs_f64(clean.exec_time_s * share);
        let faults = FaultPlan {
            drop_p: 0.05,
            seed: 3,
            fail_proc: Some(procs - 2),
            fail_at: at(0.4),
            checkpoint: Some(at(0.125)),
            ..FaultPlan::none()
        };
        for (name, cfg) in ipsc_variants(&base, faults) {
            let what = format!("{app}, {name}");
            let untraced = ipsc::try_run_folded(&trace, &cfg).expect(&what);
            let public = ipsc::try_run(&trace, &cfg).expect(&what);
            let (traced, events) = ipsc::try_run_traced(&trace, &cfg).expect(&what);
            assert_eq!(format!("{untraced:?}"), format!("{traced:?}"), "{what}");
            assert_eq!(format!("{public:?}"), format!("{traced:?}"), "{what}");
            assert_eq!(untraced.final_versions, traced.final_versions, "{what}");

            let m = Metrics::from_events(&events, procs);
            assert_eq!(
                SimDuration(m.makespan_ps).as_secs_f64(),
                untraced.exec_time_s,
                "{what}"
            );
            assert_eq!(m.tasks_started, untraced.tasks_executed, "{what}");
            assert_eq!(m.comm_bytes(), untraced.comm_bytes, "{what}");
            assert_eq!(
                SimDuration(m.task_latency_ps).as_secs_f64(),
                untraced.task_latency_s,
                "{what}"
            );
            assert_eq!(m.overlap_fraction(), untraced.overlap_frac, "{what}");
            assert_eq!(
                [
                    m.fetches,
                    m.requests,
                    m.fetch_messages(),
                    m.agg_objects,
                    m.broadcasts,
                    m.pooled,
                    m.msgs_dropped,
                    m.msgs_retried,
                    m.msgs_discarded,
                    m.workers_failed,
                    m.tasks_reexecuted,
                    m.checkpoints,
                    m.checkpoint_bytes,
                    m.checkpoint_restores,
                    m.prefetches_issued,
                    m.prefetch_hits,
                    m.prefetch_stale,
                ],
                [
                    untraced.fetches,
                    untraced.requests,
                    untraced.fetch_messages,
                    untraced.agg_objects,
                    untraced.broadcasts,
                    untraced.pooled,
                    untraced.msgs_dropped,
                    untraced.msgs_retried,
                    untraced.msgs_discarded,
                    untraced.workers_failed,
                    untraced.tasks_reexecuted,
                    untraced.checkpoints,
                    untraced.checkpoint_bytes,
                    untraced.checkpoint_restores,
                    untraced.prefetches_issued,
                    untraced.prefetch_hits,
                    untraced.prefetch_stale,
                ],
                "{what}"
            );
            if name == "everything" {
                // The covering run must actually reach the paths it names.
                assert!(m.msgs_dropped > 0 && m.workers_failed == 1, "{what}");
                assert!(m.checkpoints > 0 && m.prefetches_issued > 0, "{what}");
            }
        }
    }
}

#[test]
fn untraced_dash_run_equals_traced_run_and_its_stream() {
    let procs = 8;
    for (app, trace) in traces(procs) {
        for mode in [LocalityMode::Locality, LocalityMode::NoLocality] {
            let base = DashConfig::paper(procs, mode, 1e-6);
            for (name, cfg) in dash_variants(&base) {
                let what = format!("{app}, {mode}, {name}");
                let untraced = dash::try_run_folded(&trace, &cfg).expect(&what);
                let public = dash::try_run(&trace, &cfg).expect(&what);
                let (traced, events) = dash::try_run_traced(&trace, &cfg).expect(&what);
                assert_eq!(format!("{untraced:?}"), format!("{traced:?}"), "{what}");
                assert_eq!(format!("{public:?}"), format!("{traced:?}"), "{what}");

                let m = Metrics::from_events(&events, procs);
                assert_eq!(
                    SimDuration(m.makespan_ps).as_secs_f64(),
                    untraced.exec_time_s,
                    "{what}"
                );
                assert_eq!(m.tasks_started, untraced.tasks_executed, "{what}");
                assert_eq!(m.locality_tracked, untraced.locality_tracked, "{what}");
                assert_eq!(
                    [m.steals, m.fetch_bytes, m.stalls],
                    [untraced.steals, untraced.bytes_moved, untraced.stalls],
                    "{what}"
                );
            }
        }
    }
}

/// A scale guard with no clock in it: 300 000 distinct tasks each request
/// twice, fetch twice and run once — 1.5 M events. One pass over the fold is
/// seconds even unoptimised; a per-task window found by linear search (as it
/// once was) is 4.5e10 comparisons and does not finish inside a test run.
#[test]
fn aggregation_is_linear_in_the_tasks_that_fetch() {
    const TASKS: u64 = 300_000;
    // Ids start in the millions: the window table must not be sized by them.
    const FIRST_ID: u32 = 5_000_000;
    let mut events = Vec::with_capacity(5 * TASKS as usize);
    for i in 0..TASKS {
        let task = Some(TaskId(FIRST_ID + i as u32));
        let object = Some(ObjectId((i % 64) as u32));
        let t = 100 * i;
        let ev = |time_ps, kind| Event {
            time_ps,
            proc: (i % 32) as usize,
            kind,
            task,
            object,
        };
        events.extend([
            ev(t, EventKind::ObjectRequest { bytes: 16 }),
            ev(t + 1, EventKind::ObjectRequest { bytes: 16 }),
            ev(
                t + 40,
                EventKind::ObjectFetch {
                    bytes: 512,
                    latency_ps: 40,
                },
            ),
            ev(
                t + 61,
                EventKind::ObjectFetch {
                    bytes: 512,
                    latency_ps: 60,
                },
            ),
            ev(
                t + 61,
                EventKind::Span {
                    component: Component::App,
                    dur_ps: 30,
                },
            ),
        ]);
    }
    let m = Metrics::from_events(&events, 32);
    assert_eq!(m.requests, 2 * TASKS);
    assert_eq!(m.fetches, 2 * TASKS);
    assert_eq!(m.fetch_bytes, 1024 * TASKS);
    assert_eq!(m.object_latency_ps, 100 * TASKS);
    // Per task: last arrival (t + 61) minus first request (t).
    assert_eq!(m.task_latency_ps, 61 * TASKS);
    assert_eq!(m.total().app_ps, 30 * TASKS);
    assert_eq!(m.per_proc.len(), 32);
}
