//! Lifecycle, conservation and break-even coverage for the
//! inspector/executor fetch-aggregation pass (DESIGN.md §15).
//!
//! Coalescing is a *message-count* optimization: every object delivered
//! inside a bundle still emits its own `ObjectFetch` event carrying its own
//! payload bytes, so per-object byte attribution must sum to the metrics
//! total exactly, the event stream must stay well-formed, and the §5.3
//! break-even must keep the pass from firing on a machine where the header
//! bytes of a bundle cost more than the messages it saves.

use jade::apps::pagerank::{self, PagerankConfig};
use jade::core::{check_conservation, check_lifecycle, EventKind, Metrics, ObjectId};
use jade::ipsc::{self, IpscConfig};
use jade::LocalityMode;
use std::collections::BTreeMap;

fn paper_cfg(procs: usize, aggregate: bool) -> IpscConfig {
    let mut cfg = IpscConfig::paper(procs, LocalityMode::TaskPlacement, 1e-6);
    cfg.aggregate_fetches = aggregate;
    cfg
}

fn pagerank_trace(procs: usize) -> jade::Trace {
    pagerank::run_trace(&PagerankConfig::small(procs)).0
}

/// Per-object byte attribution under coalescing: summing the `ObjectFetch`
/// payloads per object reproduces `Metrics::comm_bytes` exactly — the
/// bundle header never leaks into the object accounting — and the
/// aggregation counters tie the bundles to the objects they carried.
#[test]
fn coalesced_bytes_attribute_to_objects() {
    let procs = 8;
    let trace = pagerank_trace(procs);
    let (r, events) =
        ipsc::try_run_traced(&trace, &paper_cfg(procs, true)).expect("simulation failed");
    assert!(
        r.agg_fetches > 0,
        "expected bundles on PageRank at paper costs"
    );

    let mut per_object: BTreeMap<ObjectId, u64> = BTreeMap::new();
    let mut bundle_objects = 0u64;
    let mut bundle_bytes = 0u64;
    for e in &events {
        match e.kind {
            EventKind::ObjectFetch { bytes, .. } => {
                *per_object
                    .entry(e.object.expect("fetch names its object"))
                    .or_insert(0) += bytes;
            }
            EventKind::AggregatedFetch { objects, bytes } => {
                assert!(objects >= 2, "a bundle delivers at least two objects");
                assert!(bytes > 0);
                bundle_objects += objects as u64;
                bundle_bytes += bytes;
            }
            _ => {}
        }
    }
    let m = Metrics::from_events(&events, procs);
    let attributed: u64 = per_object.values().sum();
    assert_eq!(
        attributed,
        m.comm_bytes(),
        "per-object attribution must be exact"
    );
    assert_eq!(m.comm_bytes(), r.comm_bytes);
    assert_eq!(m.agg_fetches, r.agg_fetches);
    assert_eq!(m.agg_objects, r.agg_objects);
    assert_eq!(bundle_objects, r.agg_objects);
    assert_eq!(m.agg_bytes, bundle_bytes);
    assert!(
        bundle_bytes <= attributed,
        "bundled payloads are a subset of all fetched payloads"
    );
    assert_eq!(m.fetch_messages(), r.fetch_messages);
    assert_eq!(r.fetch_messages, r.fetches - r.agg_objects + r.agg_fetches);

    check_lifecycle(&events).expect("lifecycle holds with AggregatedFetch present");
    check_conservation(&events, procs, m.makespan_ps)
        .expect("spans tile the makespan with AggregatedFetch present");
}

/// Coalescing must not change what the application computed, only how many
/// messages carried it.
#[test]
fn aggregation_preserves_results_and_reduces_messages() {
    let procs = 8;
    let trace = pagerank_trace(procs);
    let off = ipsc::try_run(&trace, &paper_cfg(procs, false)).expect("simulation failed");
    let on = ipsc::try_run(&trace, &paper_cfg(procs, true)).expect("simulation failed");
    assert_eq!(on.final_versions, off.final_versions);
    assert_eq!(on.tasks_executed, off.tasks_executed);
    assert_eq!(off.agg_fetches, 0, "pass off emits no bundles");
    assert!(on.agg_fetches > 0);
    assert!(
        on.requests + on.fetch_messages < off.requests + off.fetch_messages,
        "bundling must reduce physical messages"
    );
}

/// §5.3 break-even regression: with links 1000x slower than the paper's,
/// the `2k` header entries of a bundle cost far more wire time than the
/// per-message overhead it saves, so the inspector must never coalesce.
/// The run — including the order the requests go out in — must then be
/// indistinguishable from the pass being off.
#[test]
fn break_even_suppresses_aggregation_on_zero_overhead_machine() {
    let procs = 8;
    let trace = pagerank_trace(procs);
    let slow = |aggregate: bool| {
        let mut cfg = paper_cfg(procs, aggregate);
        cfg.machine.link_bandwidth /= 1000.0;
        cfg
    };
    let on = ipsc::try_run(&trace, &slow(true)).expect("simulation failed");
    assert_eq!(
        on.agg_fetches, 0,
        "break-even must not fire when the header costs exceed the savings"
    );
    assert_eq!(on.agg_objects, 0);

    // With no bundles formed, the toggle is entirely invisible.
    let off = ipsc::try_run(&trace, &slow(false)).expect("simulation failed");
    assert_eq!(on.final_versions, off.final_versions);
    assert_eq!(on.exec_time_s, off.exec_time_s);
    assert_eq!(on.requests, off.requests);
    assert_eq!(on.fetches, off.fetches);
    assert_eq!(on.comm_bytes, off.comm_bytes);
}

/// The break-even fires on the paper machine for every bundle size ≥ 2:
/// 47 µs of message latency dwarfs the per-entry header cost, so the
/// boundary sits below k = 2 there — and a slow-link machine pushes it
/// back above any practical k.
#[test]
fn break_even_boundary_follows_the_cost_model() {
    let procs = 4;
    let trace = pagerank_trace(procs);
    // Paper machine: bundles form.
    let paper = ipsc::try_run(&trace, &paper_cfg(procs, true)).expect("simulation failed");
    assert!(paper.agg_fetches > 0);

    // Links slowed 1000x: a saved message's fixed cost (~0.2 ms of wire
    // latency and handlers) against a 2x16-byte header at 2.8 kB/s
    // (~11 ms) — below break-even, so the same program must form no
    // bundles.
    let mut slow = paper_cfg(procs, true);
    slow.machine.link_bandwidth /= 1000.0;
    let r = ipsc::try_run(&trace, &slow).expect("simulation failed");
    assert_eq!(r.agg_fetches, 0, "slow links must not be coalesced over");
    assert_eq!(
        r.final_versions, paper.final_versions,
        "results unchanged either way"
    );
}
