//! **Water**: evaluates forces and potentials in a system of water
//! molecules in the liquid state (paper Section 4).
//!
//! Structure (exactly the paper's): an interleaved sequence of parallel and
//! serial phases, two parallel phases per iteration. Parallel tasks read the
//! molecule `positions` object and update an **explicitly replicated
//! contribution array** — one copy per processor, so tasks update their own
//! local copy instead of contending for one. Each serial phase reduces the
//! replicated arrays and updates the positions. The locality object of each
//! parallel task is the contribution-array copy it writes.
//!
//! The physics is a softened pairwise interaction (the communication and
//! concurrency structure is the paper's; the intramolecular force field is
//! simplified). The data set matches the paper: 1728 molecules, 8
//! iterations, and a 165,888-byte position object (96 bytes per molecule).

use crate::common::{checksum, creation_order, SplitMix64};
use jade_core::{Handle, JadeRuntime, TaskBuilder, Trace, TraceRuntime};

/// Paper-measured execution times used to calibrate the machine cost
/// models (Tables 1 and 6).
pub mod calib {
    /// Original serial program on DASH (seconds).
    pub const DASH_SERIAL_S: f64 = 3628.29;
    /// Stripped Jade version on DASH (seconds).
    pub const DASH_STRIPPED_S: f64 = 3285.90;
    /// Original serial program on the iPSC/860 (seconds).
    pub const IPSC_SERIAL_S: f64 = 2482.91;
    /// Stripped Jade version on the iPSC/860 (seconds).
    pub const IPSC_STRIPPED_S: f64 = 2406.72;
}

/// Cost (abstract operations) of one pairwise force evaluation.
const C_PAIR: f64 = 1.0;
/// Cost of one pairwise potential evaluation.
const C_POT: f64 = 0.6;
/// Cost of one molecule position/velocity update.
const C_UPDATE: f64 = 2.0;
/// Cost of reducing one contribution-array element.
const C_REDUCE: f64 = 0.05;

const SOFTENING: f64 = 0.05;
const DT: f64 = 1e-4;

/// Workload configuration.
#[derive(Clone, Debug)]
pub struct WaterConfig {
    pub molecules: usize,
    pub iterations: usize,
    /// Number of processors the trace is generated for (one contribution
    /// array copy, and one task per phase, per processor).
    pub procs: usize,
    pub seed: u64,
}

impl WaterConfig {
    /// The paper's data set: 1728 molecules, 8 iterations.
    pub fn paper(procs: usize) -> WaterConfig {
        WaterConfig {
            molecules: 1728,
            iterations: 8,
            procs,
            seed: 1995,
        }
    }

    /// A scaled-down workload for tests.
    pub fn small(procs: usize) -> WaterConfig {
        WaterConfig {
            molecules: 96,
            iterations: 2,
            procs,
            seed: 42,
        }
    }
}

/// Final numeric results (used to verify cross-runtime equivalence).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WaterOutput {
    /// Total potential energy after the last iteration.
    pub potential: f64,
    /// Order-sensitive checksum of the final positions.
    pub positions_checksum: f64,
}

/// Handles needed to extract results after a run.
pub struct WaterHandles {
    pub positions: Handle<Vec<[f64; 3]>>,
    pub potential: Handle<f64>,
}

fn init_positions(cfg: &WaterConfig) -> Vec<[f64; 3]> {
    let mut rng = SplitMix64::seed_from_u64(cfg.seed);
    // Molecules distributed randomly in a rectangular volume (paper §4).
    (0..cfg.molecules)
        .map(|_| {
            [
                rng.gen_range_f64(0.0, 12.0),
                rng.gen_range_f64(0.0, 12.0),
                rng.gen_range_f64(0.0, 12.0),
            ]
        })
        .collect()
}

#[inline]
fn pair_force(pi: [f64; 3], pj: [f64; 3]) -> [f64; 3] {
    let d = [pj[0] - pi[0], pj[1] - pi[1], pj[2] - pi[2]];
    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + SOFTENING;
    // Softened attractive/repulsive pair: r^-2 attraction with r^-4 core.
    let inv2 = 1.0 / r2;
    let f = inv2 - 0.5 * inv2 * inv2;
    [d[0] * f, d[1] * f, d[2] * f]
}

#[inline]
fn pair_potential(pi: [f64; 3], pj: [f64; 3]) -> f64 {
    let d = [pj[0] - pi[0], pj[1] - pi[1], pj[2] - pi[2]];
    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + SOFTENING;
    0.5 / r2.sqrt() - 1.0 / r2
}

/// Pairs a row computes at a time: short enough that the in-order add
/// chain of one block overlaps the divisions of the next in the core's
/// out-of-order window, long enough to amortise the block's loops.
const BLOCK: usize = 32;

/// The molecule positions as three coordinate arrays, so that a block of
/// pairs is computed over contiguous slices, two pairs to an SSE2 register.
fn columns(pos: &[[f64; 3]]) -> [Vec<f64>; 3] {
    [0, 1, 2].map(|k| pos.iter().map(|p| p[k]).collect())
}

/// Task `t`'s share of the pair forces, into the contribution array `f`,
/// which it zeroes first: rows `t, t + procs, ...`, each molecule `i`
/// paired with every `j > i`. Returns the number of pairs.
///
/// A pair adds into `f[i]` and subtracts from `f[j]`, a different molecule,
/// so a block of a row is computed whole first, then added into `f[i]` in
/// `j` order, then subtracted: every element sees the operations of the
/// pair-by-pair loop in the same order.
fn task_forces(pos: &[[f64; 3]], t: usize, procs: usize, f: &mut [[f64; 3]]) -> u64 {
    f.fill([0.0; 3]);
    let n = pos.len();
    let [xs, ys, zs] = columns(pos);
    let (mut gx, mut gy, mut gz) = ([0.0; BLOCK], [0.0; BLOCK], [0.0; BLOCK]);
    let mut pairs = 0u64;
    for i in (t..n).step_by(procs) {
        let pi = pos[i];
        let mut fi = f[i];
        for a in (i + 1..n).step_by(BLOCK) {
            let b = n.min(a + BLOCK);
            let (gx, gy, gz) = (&mut gx[..b - a], &mut gy[..b - a], &mut gz[..b - a]);
            let g = gx.iter_mut().zip(gy.iter_mut()).zip(gz.iter_mut());
            let later = xs[a..b].iter().zip(&ys[a..b]).zip(&zs[a..b]);
            for (((gx, gy), gz), ((&x, &y), &z)) in g.zip(later) {
                [*gx, *gy, *gz] = pair_force(pi, [x, y, z]);
            }
            let g = || gx.iter().zip(gy.iter()).zip(gz.iter());
            for ((&x, &y), &z) in g() {
                fi[0] += x;
                fi[1] += y;
                fi[2] += z;
            }
            for (fj, ((&x, &y), &z)) in f[a..b].iter_mut().zip(g()) {
                fj[0] -= x;
                fj[1] -= y;
                fj[2] -= z;
            }
        }
        f[i] = fi;
        pairs += (n - i - 1) as u64;
    }
    pairs
}

/// Task `t`'s share of the potential: the pairs of rows `t, t + procs,
/// ...`, each block of a row computed whole and then summed in `j` order.
/// Returns the energy and the number of pairs.
fn task_potential(pos: &[[f64; 3]], t: usize, procs: usize) -> (f64, u64) {
    let n = pos.len();
    let [xs, ys, zs] = columns(pos);
    let mut block = [0.0; BLOCK];
    let mut e = 0.0;
    let mut pairs = 0u64;
    for i in (t..n).step_by(procs) {
        let pi = pos[i];
        for a in (i + 1..n).step_by(BLOCK) {
            let b = n.min(a + BLOCK);
            let block = &mut block[..b - a];
            let later = xs[a..b].iter().zip(&ys[a..b]).zip(&zs[a..b]);
            for (v, ((&x, &y), &z)) in block.iter_mut().zip(later) {
                *v = pair_potential(pi, [x, y, z]);
            }
            for &v in block.iter() {
                e += v;
            }
        }
        pairs += (n - i - 1) as u64;
    }
    (e, pairs)
}

/// Build and submit the whole Water program on any Jade runtime.
pub fn build<R: JadeRuntime>(rt: &mut R, cfg: &WaterConfig) -> WaterHandles {
    let n = cfg.molecules;
    let procs = cfg.procs.max(1);
    // The position object is 96 bytes per molecule, matching the paper's
    // 165,888-byte object for 1728 molecules.
    let positions = rt.create("positions", 96 * n, init_positions(cfg));
    rt.set_home(positions, 0);
    let params = rt.create("params", 1024, (DT, SOFTENING));
    rt.set_home(params, 0);
    let velocities = rt.create("velocities", 24 * n, vec![[0.0f64; 3]; n]);
    rt.set_home(velocities, 0);
    // Explicitly replicated contribution arrays: one per processor.
    let forces: Vec<Handle<Vec<[f64; 3]>>> = (0..procs)
        .map(|t| {
            let h = rt.create(&format!("forces[{t}]"), 24 * n, vec![[0.0f64; 3]; n]);
            rt.set_home(h, t);
            h
        })
        .collect();
    let pots: Vec<Handle<f64>> = (0..procs)
        .map(|t| {
            let h = rt.create(&format!("pot[{t}]"), 8, 0.0f64);
            rt.set_home(h, t);
            h
        })
        .collect();
    let potential = rt.create("potential", 8, 0.0f64);
    rt.set_home(potential, 0);

    let order = creation_order(procs);
    for _ in 0..cfg.iterations {
        // ---- Parallel phase 1: pairwise forces into replicated copies.
        rt.begin_phase();
        for &t in &order {
            let fh = forces[t];
            let nprocs = procs;
            rt.submit(
                TaskBuilder::new("forces")
                    .wr(fh)
                    .rd(positions)
                    .rd(params)
                    .body(move |ctx| {
                        let pos = ctx.rd(positions);
                        // Interleaved slice: molecule i handled by task
                        // i % procs, pairing with all j > i.
                        let pairs = task_forces(&pos, t, nprocs, &mut ctx.wr(fh));
                        ctx.charge(pairs as f64 * C_PAIR);
                    }),
            );
        }
        // ---- Serial phase: reduce the replicated arrays, move molecules.
        rt.begin_phase();
        {
            let forces = forces.clone();
            let mut b = TaskBuilder::new("update")
                .wr(positions)
                .rd_wr(velocities)
                .rd(params);
            for &fh in &forces {
                b = b.rd(fh);
            }
            rt.submit(b.serial_phase().body(move |ctx| {
                let mut pos = ctx.wr(positions);
                let mut vel = ctx.wr(velocities);
                let n = pos.len();
                let mut total = vec![[0.0f64; 3]; n];
                for &fh in &forces {
                    let f = ctx.rd(fh);
                    for i in 0..n {
                        total[i][0] += f[i][0];
                        total[i][1] += f[i][1];
                        total[i][2] += f[i][2];
                    }
                }
                for i in 0..n {
                    for k in 0..3 {
                        vel[i][k] += DT * total[i][k];
                        pos[i][k] += DT * vel[i][k];
                    }
                }
                ctx.charge(n as f64 * C_UPDATE + (forces.len() * n) as f64 * C_REDUCE);
            }));
        }
        // ---- Parallel phase 2: potential energy into replicated scalars.
        rt.begin_phase();
        for &t in &order {
            let ph = pots[t];
            let nprocs = procs;
            rt.submit(
                TaskBuilder::new("potential")
                    .wr(ph)
                    .rd(positions)
                    .rd(params)
                    .body(move |ctx| {
                        let (e, pairs) = task_potential(&ctx.rd(positions), t, nprocs);
                        *ctx.wr(ph) = e;
                        ctx.charge(pairs as f64 * C_POT);
                    }),
            );
        }
        // ---- Serial phase: reduce the potential.
        rt.begin_phase();
        {
            let pots = pots.clone();
            let mut b = TaskBuilder::new("reduce-pot").wr(potential);
            for &ph in &pots {
                b = b.rd(ph);
            }
            rt.submit(b.serial_phase().body(move |ctx| {
                *ctx.wr(potential) = pots.iter().map(|&p| *ctx.rd(p)).sum();
                ctx.charge(pots.len() as f64 * C_REDUCE);
            }));
        }
    }
    WaterHandles {
        positions,
        potential,
    }
}

/// Extract the output after `rt.finish()`.
pub fn output<R: JadeRuntime>(rt: &R, h: &WaterHandles) -> WaterOutput {
    WaterOutput {
        potential: *rt.store().read(h.potential),
        positions_checksum: checksum(
            rt.store()
                .read(h.positions)
                .iter()
                .flat_map(|p| p.iter().copied()),
        ),
    }
}

/// Run on any runtime to completion.
pub fn run_on<R: JadeRuntime>(rt: &mut R, cfg: &WaterConfig) -> WaterOutput {
    let h = build(rt, cfg);
    rt.finish();
    output(rt, &h)
}

/// Serial execution + trace recording.
pub fn run_trace(cfg: &WaterConfig) -> (Trace, WaterOutput) {
    let mut rt = TraceRuntime::new();
    let h = build(&mut rt, cfg);
    rt.finish();
    let out = output(&rt, &h);
    let (_, trace) = rt.into_parts();
    (trace, out)
}

/// Plain serial reference implementation (the paper's "serial" version: no
/// Jade constructs, no replication). Returns the output and the abstract
/// operation count of the serial program.
pub fn reference(cfg: &WaterConfig) -> (WaterOutput, f64) {
    let n = cfg.molecules;
    let mut pos = init_positions(cfg);
    let mut vel = vec![[0.0f64; 3]; n];
    let mut ops = 0.0;
    let mut potential = 0.0;
    for _ in 0..cfg.iterations {
        let mut f = vec![[0.0f64; 3]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let fij = pair_force(pos[i], pos[j]);
                for k in 0..3 {
                    f[i][k] += fij[k];
                    f[j][k] -= fij[k];
                }
            }
        }
        ops += (n * (n - 1) / 2) as f64 * C_PAIR;
        for i in 0..n {
            for k in 0..3 {
                vel[i][k] += DT * f[i][k];
                pos[i][k] += DT * vel[i][k];
            }
        }
        ops += n as f64 * C_UPDATE;
        potential = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                potential += pair_potential(pos[i], pos[j]);
            }
        }
        ops += (n * (n - 1) / 2) as f64 * C_POT;
    }
    (
        WaterOutput {
            potential,
            positions_checksum: checksum(pos.iter().flat_map(|p| p.iter().copied())),
        },
        ops,
    )
}

/// Number of tasks the Jade version creates (diagnostic used by tests and
/// the experiment harness).
pub fn expected_tasks(cfg: &WaterConfig) -> usize {
    cfg.iterations * (2 * cfg.procs + 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn trace_matches_reference_single_proc() {
        let cfg = WaterConfig::small(1);
        let (trace, out) = run_trace(&cfg);
        let (ref_out, _) = reference(&cfg);
        // One processor: identical floating-point evaluation order.
        assert_eq!(out.potential, ref_out.potential);
        assert_eq!(out.positions_checksum, ref_out.positions_checksum);
        assert_eq!(trace.task_count(), expected_tasks(&cfg));
        assert!(trace.validate().is_empty());
    }

    #[test]
    fn trace_close_to_reference_multi_proc() {
        let cfg = WaterConfig::small(4);
        let (_, out) = run_trace(&cfg);
        let (ref_out, _) = reference(&cfg);
        // Reduction order differs; results agree to tolerance.
        assert!(
            (out.potential - ref_out.potential).abs() < 1e-9 * ref_out.potential.abs().max(1.0)
        );
    }

    #[test]
    fn multi_proc_trace_is_deterministic() {
        let cfg = WaterConfig::small(3);
        let (t1, o1) = run_trace(&cfg);
        let (t2, o2) = run_trace(&cfg);
        assert_eq!(o1, o2);
        assert_eq!(t1.task_count(), t2.task_count());
        assert_eq!(t1.total_work(), t2.total_work());
    }

    #[test]
    fn work_is_balanced_across_force_tasks() {
        let cfg = WaterConfig::small(4);
        let (trace, _) = run_trace(&cfg);
        let works: Vec<f64> = trace
            .tasks
            .iter()
            .filter(|t| t.label == "forces")
            .map(|t| t.work)
            .collect();
        assert_eq!(works.len(), cfg.iterations * 4);
        let max = works.iter().cloned().fold(0.0, f64::max);
        let min = works.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min < 1.3, "imbalance {max} vs {min}");
    }

    #[test]
    fn locality_objects_are_contribution_copies() {
        let cfg = WaterConfig::small(3);
        let (trace, _) = run_trace(&cfg);
        for t in trace.tasks.iter().filter(|t| t.label == "forces") {
            let lo = t.spec.locality_object().unwrap();
            assert!(trace.objects[lo.index()].name.starts_with("forces["));
        }
    }

    #[test]
    fn position_object_size_matches_paper() {
        let cfg = WaterConfig::paper(2);
        let mut rt = TraceRuntime::new();
        let h = build(&mut rt, &cfg);
        let (_, trace) = rt.into_parts();
        assert_eq!(trace.object_size(h.positions.id()), 165_888);
    }

    #[test]
    fn serial_phases_alternate_with_parallel() {
        let cfg = WaterConfig::small(2);
        let (trace, _) = run_trace(&cfg);
        let serial_count = trace.tasks.iter().filter(|t| t.serial_phase).count();
        assert_eq!(serial_count, cfg.iterations * 2);
    }

    /// The oracle for `task_forces`: the naive pair-by-pair loop.
    fn per_pair_forces(pos: &[[f64; 3]], t: usize, nprocs: usize, f: &mut [[f64; 3]]) -> u64 {
        for v in f.iter_mut() {
            *v = [0.0; 3];
        }
        let mut pairs = 0u64;
        let n = pos.len();
        for i in (t..n).step_by(nprocs) {
            let pi = pos[i];
            for j in (i + 1)..n {
                let fij = pair_force(pi, pos[j]);
                f[i][0] += fij[0];
                f[i][1] += fij[1];
                f[i][2] += fij[2];
                f[j][0] -= fij[0];
                f[j][1] -= fij[1];
                f[j][2] -= fij[2];
                pairs += 1;
            }
        }
        pairs
    }

    /// The oracle for `task_potential`: the naive pair-by-pair loop.
    #[allow(clippy::needless_range_loop)]
    fn per_pair_potential(pos: &[[f64; 3]], t: usize, nprocs: usize) -> (f64, u64) {
        let n = pos.len();
        let mut e = 0.0;
        let mut pairs = 0u64;
        for i in (t..n).step_by(nprocs) {
            let pi = pos[i];
            for j in (i + 1)..n {
                e += pair_potential(pi, pos[j]);
                pairs += 1;
            }
        }
        (e, pairs)
    }

    fn bits(xs: &[[f64; 3]]) -> Vec<u64> {
        xs.iter().flatten().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every task's row kernels against the pair-by-pair loops, into a
        /// contribution array of garbage, on molecules some of which share
        /// a position: rows shorter and longer than a block, and any count
        /// of rows per task.
        #[test]
        fn row_kernels_equal_the_per_pair_loops(
            n in 0..80usize,
            procs in 1..9usize,
            seed in any::<u64>(),
        ) {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let mut pos: Vec<[f64; 3]> =
                (0..n).map(|_| [0; 3].map(|_| rng.gen_range_f64(-2.0, 14.0))).collect();
            for i in 0..n {
                if rng.next_u64().is_multiple_of(6) {
                    pos[i] = pos[rng.next_u64() as usize % n];
                }
            }
            for t in 0..procs {
                let mut f: Vec<[f64; 3]> =
                    (0..n).map(|_| [0; 3].map(|_| f64::from_bits(rng.next_u64()))).collect();
                let mut want = vec![[1.0; 3]; n];
                prop_assert_eq!(
                    task_forces(&pos, t, procs, &mut f),
                    per_pair_forces(&pos, t, procs, &mut want)
                );
                prop_assert_eq!(bits(&f), bits(&want));
                let (e, pairs) = task_potential(&pos, t, procs);
                let (want_e, want_pairs) = per_pair_potential(&pos, t, procs);
                prop_assert_eq!((e.to_bits(), pairs), (want_e.to_bits(), want_pairs));
            }
        }
    }
}
