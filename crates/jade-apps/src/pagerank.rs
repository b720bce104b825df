//! **PageRank**: push-style PageRank over a seeded power-law graph — the
//! first of the two *irregular* applications (DESIGN.md §15).
//!
//! Unlike the four paper applications, whose access sets follow from the
//! static decomposition, every gather task's read set here is **computed
//! from data at spawn time**: partition `q` reads the contribution buckets
//! of exactly those partitions that own an edge into `q`, a property of the
//! generated graph. This data-dependent fan-in is what the
//! inspector/executor aggregation pass coalesces — one gather task fetches
//! several contribution objects per owning processor, so the communicator
//! can bundle them into one message per `(task, owner)` pair.
//!
//! The decomposition is two-phase push with private buffers so that all
//! same-phase tasks are independent:
//!
//! * **scatter\[p\]** reads partition `p`'s ranks (previous parity) and
//!   rewrites `contrib[p]`: one dense bucket of contributions per target
//!   partition, accumulated in stored edge order.
//! * **gather\[q\]** writes partition `q`'s ranks (next parity) — the
//!   locality object — and reads `contrib[p]` for every sender `p`, in
//!   ascending `p` order, so floating-point accumulation is bit-identical
//!   everywhere.
//!
//! The graph generator and plan are shared with the serial reference. The
//! tasks accumulate into the buffers their objects already hold
//! ([`scatter_contribs_into`], [`gather_ranks_into`]) where the reference
//! allocates ([`scatter_contribs`], [`gather_ranks`], its oracles); both
//! add the same terms in the same order, so they match bit for bit.

use crate::common::{checksum, chunk_ranges, worker_ring, SplitMix64};
use jade_core::{Handle, JadeRuntime, TaskBuilder, Trace, TraceRuntime};
use std::sync::Arc;

/// Calibration anchors. PageRank is not one of the paper's applications, so
/// these are synthetic: chosen to give the app a serial running time of the
/// same order as the paper's four, with the usual iPSC stripped-time
/// inflation (Section 5.2.2).
pub mod calib {
    pub const DASH_SERIAL_S: f64 = 24.0;
    pub const DASH_STRIPPED_S: f64 = 23.2;
    pub const IPSC_SERIAL_S: f64 = 28.0;
    pub const IPSC_STRIPPED_S: f64 = 31.5;
}

/// Abstract operations per edge traversal (scatter).
const C_EDGE: f64 = 1.0;
/// Abstract operations per node touched (scatter share division, gather
/// accumulate/update).
const C_NODE: f64 = 1.0;
/// Standard damping factor.
pub const DAMPING: f64 = 0.85;

/// Workload configuration.
#[derive(Clone, Debug)]
pub struct PagerankConfig {
    /// Number of graph nodes.
    pub nodes: usize,
    /// Out-edges added per node by the generator.
    pub edges_per_node: usize,
    pub iterations: usize,
    /// Number of node partitions (tasks per phase). More partitions than
    /// workers keeps several remote contribution objects per owner — the
    /// fan-in the aggregation pass coalesces.
    pub parts: usize,
    pub procs: usize,
    /// Graph generator seed (deterministic RNG path; no std hashers).
    pub seed: u64,
}

impl PagerankConfig {
    /// A graph large enough to exercise the paper machines' communication
    /// behavior. Six partitions per worker processor: the in-degree skew of
    /// the power-law graph leaves the low-degree partitions with sparse
    /// sender sets, so an owner must hold several partitions before the
    /// inspector reliably finds multi-object fan-in to coalesce.
    pub fn paper(procs: usize) -> PagerankConfig {
        let workers = procs.saturating_sub(1).max(1);
        PagerankConfig {
            nodes: 4096,
            edges_per_node: 4,
            iterations: 20,
            parts: 6 * workers,
            procs,
            seed: 42,
        }
    }

    /// A seconds-scale graph: 96 nodes, more once the processor count
    /// asks for more partitions than that ([`plan`] needs a node each).
    pub fn small(procs: usize) -> PagerankConfig {
        let workers = procs.saturating_sub(1).max(1);
        PagerankConfig {
            nodes: 96.max(6 * workers),
            edges_per_node: 3,
            iterations: 4,
            parts: 6 * workers,
            procs,
            seed: 42,
        }
    }
}

/// A directed multigraph in edge-list form, generation order preserved.
#[derive(Clone, Debug)]
pub struct Graph {
    pub nodes: usize,
    /// `(src, dst)` pairs; every node has out-degree ≥ 1.
    pub edges: Vec<(u32, u32)>,
}

/// Seeded preferential-attachment generator producing a power-law
/// in-degree distribution, built entirely on the deterministic
/// [`SplitMix64`] path — no std hashers anywhere, so edge order is
/// identical on every platform and run.
///
/// A ring over the first `m + 1` nodes seeds the graph (so every node,
/// including the seeds, has out-degree ≥ 1 and rank mass is conserved);
/// each later node adds `m` edges, choosing each target by a coin flip
/// between a uniform earlier node and the head of a uniformly chosen
/// existing edge (in-degree-proportional attachment, vectors only).
pub fn power_law_graph(nodes: usize, m: usize, seed: u64) -> Graph {
    assert!(m >= 1 && nodes > m + 1, "graph too small for m={m}");
    let m0 = m + 1;
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(m0 + (nodes - m0) * m);
    for i in 0..m0 {
        edges.push((i as u32, ((i + 1) % m0) as u32));
    }
    for v in m0..nodes {
        for _ in 0..m {
            // Re-draw self-loops a few times, then fall back to `v - 1`.
            let mut dst = v as u32;
            for _ in 0..8 {
                let r = rng.next_u64();
                let cand = if r & 1 == 0 {
                    ((r >> 1) % v as u64) as u32
                } else {
                    edges[((r >> 1) as usize) % edges.len()].1
                };
                if cand != v as u32 {
                    dst = cand;
                    break;
                }
            }
            if dst == v as u32 {
                dst = (v - 1) as u32;
            }
            edges.push((v as u32, dst));
        }
    }
    Graph { nodes, edges }
}

/// The partitioned view of a graph: everything the tasks and the serial
/// reference need, precomputed once so both walk identical structures.
#[derive(Clone, Debug)]
pub struct Plan {
    /// `(start, end)` node range of each partition.
    pub ranges: Vec<(usize, usize)>,
    /// Per partition: its out-edges as `(local_src, target_part, local_dst)`
    /// in stored edge order.
    pub part_edges: Vec<Vec<(u32, u32, u32)>>,
    /// Per partition: local out-degrees (parallel to its node range).
    pub outdeg: Vec<Vec<u32>>,
    /// Per partition `q`: ascending list of partitions with ≥ 1 edge into
    /// `q` — the data-dependent read set of gather task `q`.
    pub senders: Vec<Vec<usize>>,
}

/// Partition `g` into `parts` contiguous node ranges and index its edges.
/// Pure vector walks: iteration order is the stored edge order.
pub fn plan(g: &Graph, parts: usize) -> Plan {
    assert!(parts >= 1 && parts <= g.nodes, "parts must be in 1..=nodes");
    let ranges = chunk_ranges(g.nodes, parts);
    let mut part_of = vec![0u32; g.nodes];
    for (p, &(s, e)) in ranges.iter().enumerate() {
        for v in part_of.iter_mut().take(e).skip(s) {
            *v = p as u32;
        }
    }
    let mut outdeg_global = vec![0u32; g.nodes];
    for &(s, _) in &g.edges {
        outdeg_global[s as usize] += 1;
    }
    let outdeg = ranges
        .iter()
        .map(|&(s, e)| outdeg_global[s..e].to_vec())
        .collect();
    let mut part_edges: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new(); parts];
    let mut sends = vec![vec![false; parts]; parts];
    for &(s, d) in &g.edges {
        let p = part_of[s as usize] as usize;
        let q = part_of[d as usize] as usize;
        let (ps, _) = ranges[p];
        let (qs, _) = ranges[q];
        part_edges[p].push((s - ps as u32, q as u32, d - qs as u32));
        sends[p][q] = true;
    }
    let senders = (0..parts)
        .map(|q| (0..parts).filter(|&p| sends[p][q]).collect())
        .collect();
    Plan {
        ranges,
        part_edges,
        outdeg,
        senders,
    }
}

/// Scatter kernel: distribute partition-local `ranks` along `edges` into
/// one dense bucket per target partition. Accumulation follows stored edge
/// order. The serial reference's kernel and the oracle of
/// [`scatter_contribs_into`].
pub fn scatter_contribs(
    edges: &[(u32, u32, u32)],
    ranks: &[f64],
    outdeg: &[u32],
    bucket_sizes: &[usize],
) -> Vec<Vec<f64>> {
    let mut buckets: Vec<Vec<f64>> = bucket_sizes.iter().map(|&s| vec![0.0; s]).collect();
    for &(ls, tp, ld) in edges {
        let share = ranks[ls as usize] / outdeg[ls as usize] as f64;
        buckets[tp as usize][ld as usize] += share;
    }
    buckets
}

/// [`scatter_contribs`] into the buckets `buckets` already holds: each is
/// zeroed, then accumulated in the same stored edge order, so the result is
/// the fresh one bit for bit. The first use allocates them.
pub fn scatter_contribs_into(
    buckets: &mut Vec<Vec<f64>>,
    edges: &[(u32, u32, u32)],
    ranks: &[f64],
    outdeg: &[u32],
    bucket_sizes: &[usize],
) {
    if buckets.is_empty() {
        *buckets = bucket_sizes.iter().map(|&s| vec![0.0; s]).collect();
    } else {
        buckets.iter_mut().for_each(|b| b.fill(0.0));
    }
    for &(ls, tp, ld) in edges {
        let share = ranks[ls as usize] / outdeg[ls as usize] as f64;
        buckets[tp as usize][ld as usize] += share;
    }
}

/// Gather kernel: partition `q`'s new ranks from its senders' buckets,
/// accumulated in the given (ascending-`p`) order. The serial reference's
/// kernel and the oracle of [`gather_ranks_into`].
pub fn gather_ranks(
    n_local: usize,
    q: usize,
    contribs: &[&[Vec<f64>]],
    total_nodes: usize,
) -> Vec<f64> {
    let base = (1.0 - DAMPING) / total_nodes as f64;
    let mut out = vec![base; n_local];
    for c in contribs {
        for (o, b) in out.iter_mut().zip(&c[q]) {
            *o += DAMPING * b;
        }
    }
    out
}

/// [`gather_ranks`] into `out`, which it overwrites: the same base, then
/// the senders' contributions in the given order.
pub fn gather_ranks_into<'a>(
    out: &mut [f64],
    q: usize,
    contribs: impl IntoIterator<Item = &'a [Vec<f64>]>,
    total_nodes: usize,
) {
    out.fill((1.0 - DAMPING) / total_nodes as f64);
    for c in contribs {
        for (o, b) in out.iter_mut().zip(&c[q]) {
            *o += DAMPING * b;
        }
    }
}

/// Final numeric results.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PagerankOutput {
    /// Total rank mass (the push formulation conserves it at 1.0).
    pub rank_sum: f64,
    /// Order-sensitive checksum of the final rank vector.
    pub rank_checksum: f64,
}

pub struct PagerankHandles {
    pub result: Handle<(f64, f64)>,
}

/// Build and submit the whole PageRank program on any Jade runtime.
pub fn build<R: JadeRuntime>(rt: &mut R, cfg: &PagerankConfig) -> PagerankHandles {
    let g = power_law_graph(cfg.nodes, cfg.edges_per_node, cfg.seed);
    // The inspector's plan is read-only, so the scatter tasks share one
    // copy: a runtime may hold every closure until `finish`, and a copy per
    // task would be resident `iterations` times over.
    let pl = Arc::new(plan(&g, cfg.parts));
    let ring = worker_ring(cfg.procs);
    let bucket_sizes: Arc<[usize]> = pl.ranges.iter().map(|&(s, e)| e - s).collect();

    // Rank vectors, double-buffered by iteration parity; the initial mass
    // 1/N lives in the parity-0 buffers.
    let init = 1.0 / cfg.nodes as f64;
    let rank: Vec<[Handle<Vec<f64>>; 2]> = pl
        .ranges
        .iter()
        .enumerate()
        .map(|(p, &(s, e))| {
            let home = ring[p % ring.len()];
            let mk = |rt: &mut R, q: usize, val: f64| {
                let h = rt.create(&format!("rank[{p}][{q}]"), 8 * (e - s), vec![val; e - s]);
                rt.set_home(h, home);
                h
            };
            [mk(rt, 0, init), mk(rt, 1, 0.0)]
        })
        .collect();
    // Contribution buckets, rewritten wholesale by scatter each iteration.
    let contrib: Vec<Handle<Vec<Vec<f64>>>> = (0..cfg.parts)
        .map(|p| {
            let h = rt.create(
                &format!("contrib[{p}]"),
                8 * cfg.nodes + 16 * cfg.parts,
                Vec::new(),
            );
            rt.set_home(h, ring[p % ring.len()]);
            h
        })
        .collect();
    let result = rt.create("result", 16, (0.0f64, 0.0f64));
    rt.set_home(result, 0);

    for iter in 0..cfg.iterations {
        rt.begin_phase();
        let old = iter % 2;
        let new = (iter + 1) % 2;
        for p in 0..cfg.parts {
            let (s, e) = pl.ranges[p];
            let (pl, sizes) = (Arc::clone(&pl), Arc::clone(&bucket_sizes));
            let (ch, rh) = (contrib[p], rank[p][old]);
            let placement = ring[p % ring.len()];
            rt.submit(
                TaskBuilder::new("scatter")
                    .wr(ch)
                    .rd(rh)
                    .place(placement)
                    .body(move |ctx| {
                        let edges = &pl.part_edges[p];
                        let ranks = ctx.rd(rh);
                        let mut buckets = ctx.wr(ch);
                        scatter_contribs_into(&mut buckets, edges, &ranks, &pl.outdeg[p], &sizes);
                        ctx.charge(edges.len() as f64 * C_EDGE + (e - s) as f64 * C_NODE);
                    }),
            );
        }
        for q in 0..cfg.parts {
            let (s, e) = pl.ranges[q];
            let n_local = e - s;
            let sender_handles: Vec<Handle<Vec<Vec<f64>>>> =
                pl.senders[q].iter().map(|&p| contrib[p]).collect();
            let wh = rank[q][new];
            let placement = ring[q % ring.len()];
            let total = cfg.nodes;
            // The write comes first: the new rank vector is the locality
            // object. The reads are the graph-dependent sender set.
            let mut tb = TaskBuilder::new("gather").wr(wh);
            for &h in &sender_handles {
                tb = tb.rd(h);
            }
            rt.submit(tb.place(placement).body(move |ctx| {
                let guards: Vec<_> = sender_handles.iter().map(|&h| ctx.rd(h)).collect();
                let contribs = guards.iter().map(|g| g.as_slice());
                gather_ranks_into(&mut ctx.wr(wh), q, contribs, total);
                ctx.charge((guards.len() + 1) as f64 * n_local as f64 * C_NODE);
            }));
        }
    }
    // Final serial gather: rank mass and checksum over the whole vector.
    {
        let qlast = cfg.iterations % 2;
        let finals: Vec<Handle<Vec<f64>>> = rank.iter().map(|pair| pair[qlast]).collect();
        let mut tb = TaskBuilder::new("collect").wr(result);
        for &h in &finals {
            tb = tb.rd(h);
        }
        let nodes = cfg.nodes;
        rt.submit(tb.serial_phase().body(move |ctx| {
            let mut all = Vec::with_capacity(nodes);
            for &h in &finals {
                all.extend(ctx.rd(h).iter().copied());
            }
            let sum = all.iter().sum();
            *ctx.wr(result) = (sum, checksum(all));
            ctx.charge(nodes as f64 * C_NODE);
        }));
    }
    PagerankHandles { result }
}

pub fn output<R: JadeRuntime>(rt: &R, h: &PagerankHandles) -> PagerankOutput {
    let (rank_sum, rank_checksum) = *rt.store().read(h.result);
    PagerankOutput {
        rank_sum,
        rank_checksum,
    }
}

pub fn run_on<R: JadeRuntime>(rt: &mut R, cfg: &PagerankConfig) -> PagerankOutput {
    let h = build(rt, cfg);
    rt.finish();
    output(rt, &h)
}

pub fn run_trace(cfg: &PagerankConfig) -> (Trace, PagerankOutput) {
    let mut rt = TraceRuntime::new();
    let h = build(&mut rt, cfg);
    rt.finish();
    let out = output(&rt, &h);
    let (_, trace) = rt.into_parts();
    (trace, out)
}

/// Serial reference: the same kernels over the same plan in the same order
/// (scatter `p` ascending, then gather `q` ascending with senders in
/// ascending order) — bit-identical to the Jade version at the same
/// partition count. Returns the output and total charged operations.
pub fn reference(cfg: &PagerankConfig) -> (PagerankOutput, f64) {
    let g = power_law_graph(cfg.nodes, cfg.edges_per_node, cfg.seed);
    let pl = plan(&g, cfg.parts);
    let bucket_sizes: Vec<usize> = pl.ranges.iter().map(|&(s, e)| e - s).collect();
    let mut ranks: Vec<Vec<f64>> = bucket_sizes
        .iter()
        .map(|&n| vec![1.0 / cfg.nodes as f64; n])
        .collect();
    let mut ops = 0.0;
    for _ in 0..cfg.iterations {
        let contribs: Vec<Vec<Vec<f64>>> = (0..cfg.parts)
            .map(|p| {
                ops += pl.part_edges[p].len() as f64 * C_EDGE + bucket_sizes[p] as f64 * C_NODE;
                scatter_contribs(&pl.part_edges[p], &ranks[p], &pl.outdeg[p], &bucket_sizes)
            })
            .collect();
        ranks = (0..cfg.parts)
            .map(|q| {
                let refs: Vec<&[Vec<f64>]> = pl.senders[q]
                    .iter()
                    .map(|&p| contribs[p].as_slice())
                    .collect();
                ops += (refs.len() + 1) as f64 * bucket_sizes[q] as f64 * C_NODE;
                gather_ranks(bucket_sizes[q], q, &refs, cfg.nodes)
            })
            .collect();
    }
    let all: Vec<f64> = ranks.into_iter().flatten().collect();
    ops += cfg.nodes as f64 * C_NODE;
    (
        PagerankOutput {
            rank_sum: all.iter().sum(),
            rank_checksum: checksum(all),
        },
        ops,
    )
}

pub fn expected_tasks(cfg: &PagerankConfig) -> usize {
    cfg.iterations * 2 * cfg.parts + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn generator_is_deterministic_and_total() {
        let g = power_law_graph(96, 3, 42);
        let g2 = power_law_graph(96, 3, 42);
        assert_eq!(g.edges, g2.edges);
        assert_eq!(g.edges.len(), 4 + (96 - 4) * 3);
        let mut outdeg = vec![0u32; 96];
        for &(s, d) in &g.edges {
            assert_ne!(s, d, "no self-loops");
            outdeg[s as usize] += 1;
            assert!((d as usize) < 96);
        }
        assert!(outdeg.iter().all(|&d| d >= 1), "every node pushes rank");
    }

    #[test]
    fn in_degree_is_skewed() {
        // Preferential attachment: the hot nodes collect far more than the
        // mean in-degree.
        let g = power_law_graph(4096, 4, 42);
        let mut indeg = vec![0u32; 4096];
        for &(_, d) in &g.edges {
            indeg[d as usize] += 1;
        }
        let mean = g.edges.len() as f64 / 4096.0;
        let max = *indeg.iter().max().unwrap() as f64;
        assert!(max > 8.0 * mean, "max {max} vs mean {mean}");
    }

    #[test]
    fn small_runs_at_every_processor_count() {
        for procs in 1..=64 {
            let cfg = PagerankConfig::small(procs);
            assert_eq!(cfg.nodes == 96, procs <= 17, "procs={procs}");
            let (trace, _) = run_trace(&cfg);
            assert_eq!(trace.task_count(), expected_tasks(&cfg), "procs={procs}");
        }
    }

    #[test]
    fn trace_matches_reference_exactly() {
        for procs in [1usize, 2, 3, 5] {
            let cfg = PagerankConfig::small(procs);
            let (trace, out) = run_trace(&cfg);
            let (ref_out, ref_ops) = reference(&cfg);
            assert_eq!(out, ref_out, "procs={procs}");
            assert_eq!(trace.task_count(), expected_tasks(&cfg));
            assert!(trace.validate().is_empty());
            let charged: f64 = trace.tasks.iter().map(|t| t.work).sum();
            assert!((charged - ref_ops).abs() < 1e-6, "{charged} vs {ref_ops}");
        }
    }

    #[test]
    fn rank_mass_is_conserved() {
        let (out, _) = reference(&PagerankConfig::small(3));
        assert!((out.rank_sum - 1.0).abs() < 1e-9, "sum {}", out.rank_sum);
    }

    #[test]
    fn gather_read_sets_follow_the_graph() {
        let cfg = PagerankConfig::small(3);
        let g = power_law_graph(cfg.nodes, cfg.edges_per_node, cfg.seed);
        let pl = plan(&g, cfg.parts);
        let (trace, _) = run_trace(&cfg);
        let gathers: Vec<_> = trace
            .tasks
            .iter()
            .filter(|t| t.label == "gather")
            .take(cfg.parts)
            .collect();
        for (q, t) in gathers.iter().enumerate() {
            // One write (the rank vector) plus one read per graph sender.
            assert_eq!(
                t.spec.decls().len(),
                1 + pl.senders[q].len(),
                "gather {q} declares its data-dependent sender set"
            );
        }
        // Irregularity: not every partition has the same sender count.
        let counts: Vec<usize> = pl.senders.iter().map(|s| s.len()).collect();
        assert!(
            counts.iter().any(|&c| c != counts[0]),
            "sender sets should differ across partitions: {counts:?}"
        );
    }

    #[test]
    fn placements_follow_worker_ring() {
        let cfg = PagerankConfig::small(4);
        let (trace, _) = run_trace(&cfg);
        for t in trace.tasks.iter().filter(|t| t.label != "collect") {
            let p = t.placement.expect("parallel tasks are placed");
            assert!((1..4).contains(&p), "placement {p} omits the main proc");
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// A valid configuration from unconstrained draws.
    fn config(nodes: usize, m: usize, parts: usize) -> (usize, usize, usize) {
        (nodes, m.min(nodes - 2), 1 + parts % nodes)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The in-place Jade kernels against the serial reference's
        /// allocating ones, over random graphs and partitions.
        #[test]
        fn trace_equals_reference_bit_for_bit(
            shape in (3..80usize, 1..5usize, 0..80usize),
            iterations in 1..4usize,
            procs in 1..9usize,
            seed in any::<u64>(),
        ) {
            let (nodes, edges_per_node, parts) = config(shape.0, shape.1, shape.2);
            let cfg = PagerankConfig { nodes, edges_per_node, iterations, parts, procs, seed };
            let (trace, out) = run_trace(&cfg);
            let (want, ops) = reference(&cfg);
            prop_assert_eq!(
                bits(&[out.rank_sum, out.rank_checksum]),
                bits(&[want.rank_sum, want.rank_checksum])
            );
            prop_assert_eq!(trace.total_work().to_bits(), ops.to_bits());
        }

        /// Two scatters into the same buckets equal two fresh scatters, and
        /// a gather into a vector of garbage equals a fresh gather.
        #[test]
        fn reused_buffers_equal_fresh_ones(
            shape in (3..80usize, 1..5usize, 0..80usize),
            seed in any::<u64>(),
        ) {
            let (nodes, m, parts) = config(shape.0, shape.1, shape.2);
            let pl = plan(&power_law_graph(nodes, m, seed), parts);
            let sizes: Vec<usize> = pl.ranges.iter().map(|&(s, e)| e - s).collect();
            let mut rng = SplitMix64::seed_from_u64(seed);
            let p = rng.next_u64() as usize % parts;
            let mut buckets = Vec::new();
            for _ in 0..2 {
                let ranks: Vec<f64> = (0..sizes[p]).map(|_| rng.gen_range_f64(0.0, 1.0)).collect();
                let (edges, outdeg) = (&pl.part_edges[p], &pl.outdeg[p]);
                scatter_contribs_into(&mut buckets, edges, &ranks, outdeg, &sizes);
                let fresh = scatter_contribs(edges, &ranks, outdeg, &sizes);
                prop_assert_eq!(buckets.len(), fresh.len());
                for (b, f) in buckets.iter().zip(&fresh) {
                    prop_assert_eq!(bits(b), bits(f));
                }
            }
            let contribs: Vec<Vec<Vec<f64>>> = (0..parts)
                .map(|p| {
                    let ranks: Vec<f64> =
                        (0..sizes[p]).map(|_| rng.gen_range_f64(0.0, 1.0)).collect();
                    scatter_contribs(&pl.part_edges[p], &ranks, &pl.outdeg[p], &sizes)
                })
                .collect();
            let q = rng.next_u64() as usize % parts;
            let senders: Vec<&[Vec<f64>]> =
                pl.senders[q].iter().map(|&p| contribs[p].as_slice()).collect();
            let mut out: Vec<f64> = (0..sizes[q]).map(|_| f64::from_bits(rng.next_u64())).collect();
            gather_ranks_into(&mut out, q, senders.iter().copied(), nodes);
            prop_assert_eq!(bits(&out), bits(&gather_ranks(sizes[q], q, &senders, nodes)));
        }
    }

    /// Satellite 4 regression: the generator runs entirely on the
    /// deterministic RNG path, so the first 32 edges for a known seed are
    /// pinned forever. Any hash-order or generator change breaks this.
    #[test]
    fn snapshot_first_32_edges_seed_42() {
        let g = power_law_graph(96, 3, 42);
        let expected: [(u32, u32); 32] = [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 0),
            (4, 3),
            (4, 1),
            (4, 1),
            (5, 2),
            (5, 0),
            (5, 1),
            (6, 3),
            (6, 4),
            (6, 1),
            (7, 6),
            (7, 1),
            (7, 3),
            (8, 3),
            (8, 6),
            (8, 6),
            (9, 1),
            (9, 1),
            (9, 1),
            (10, 2),
            (10, 4),
            (10, 6),
            (11, 1),
            (11, 6),
            (11, 6),
            (12, 4),
            (12, 4),
            (12, 6),
            (13, 3),
        ];
        assert_eq!(&g.edges[..32], &expected[..]);
    }
}
