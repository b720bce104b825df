//! **Halo**: a masked halo-exchange stencil over a sparse tile grid — the
//! second *irregular* application (DESIGN.md §15, SNIPPETS.md snippet 1).
//!
//! A 2D grid of square tiles carries a 9-point Moore-neighborhood stencil,
//! but only a seeded random subset of tiles is **active**; inactive tiles
//! are holes that contribute the boundary value (0.0). Each active tile's
//! task therefore declares a read set computed from the mask at spawn time:
//! its own previous-parity buffer plus the previous-parity buffers of its
//! active neighbors only — between three and nine objects, different per
//! tile. Tiles are homed by *row*, so a task's NW/N/NE halo reads all live
//! on one remote processor: exactly the fan-in the inspector/executor
//! aggregation pass coalesces into one message per `(task, owner)` pair.
//!
//! Tiles are double-buffered by iteration parity (Jacobi across tiles), so
//! all same-iteration tasks are independent. The halo assembly is shared
//! with the serial reference; the task's stencil writes into the new-parity
//! tile ([`step_tile_into`]) where the reference allocates ([`step_tile`],
//! its oracle). Both sum the same neighbours in the same order, so the
//! reference matches the Jade version bit for bit.

use crate::common::{checksum, worker_ring, SplitMix64};
use jade_core::{Handle, JadeRuntime, TaskBuilder, Trace, TraceRuntime};

/// Calibration anchors. Halo is not one of the paper's applications, so
/// these are synthetic: the same order as the paper's four, with the usual
/// iPSC stripped-time inflation (Section 5.2.2).
pub mod calib {
    pub const DASH_SERIAL_S: f64 = 36.0;
    pub const DASH_STRIPPED_S: f64 = 35.0;
    pub const IPSC_SERIAL_S: f64 = 40.0;
    pub const IPSC_STRIPPED_S: f64 = 44.0;
}

/// Abstract operations per stencil cell update.
const C_CELL: f64 = 1.0;

/// The eight Moore-neighborhood offsets as `(dy, dx)`, row-major order.
/// Declaration order of neighbor reads and the kernels' accumulation order
/// both follow this table, so every implementation sums identically.
pub const NEIGHBORS: [(isize, isize); 8] = [
    (-1, -1),
    (-1, 0),
    (-1, 1),
    (0, -1),
    (0, 1),
    (1, -1),
    (1, 0),
    (1, 1),
];

/// Workload configuration.
#[derive(Clone, Debug)]
pub struct HaloConfig {
    pub tiles_x: usize,
    pub tiles_y: usize,
    /// Tile side in cells.
    pub tile: usize,
    pub iterations: usize,
    /// Percentage of tiles that are active (mask density).
    pub active_pct: u64,
    pub procs: usize,
    /// Mask seed (deterministic RNG path; no std hashers).
    pub seed: u64,
}

impl HaloConfig {
    /// A grid large enough to exercise the paper machines' communication
    /// behavior.
    pub fn paper(procs: usize) -> HaloConfig {
        HaloConfig {
            tiles_x: 12,
            tiles_y: 12,
            tile: 24,
            iterations: 40,
            active_pct: 70,
            procs,
            seed: 7,
        }
    }

    pub fn small(procs: usize) -> HaloConfig {
        HaloConfig {
            tiles_x: 5,
            tiles_y: 5,
            tile: 6,
            iterations: 4,
            active_pct: 70,
            procs,
            seed: 7,
        }
    }
}

/// The seeded activity mask, row-major (`[ty * tiles_x + tx]`). Tile 0 is
/// forced active so the program always has work. Built on the
/// deterministic [`SplitMix64`] path in creation order.
///
/// Every program, and the serial reference, starts here, and the kernels
/// index from the grid's shape: a grid with no tiles, or tiles with no
/// cells, is refused with a message.
pub fn active_mask(cfg: &HaloConfig) -> Vec<bool> {
    assert!(
        cfg.tiles_x * cfg.tiles_y > 0,
        "halo grid has no tiles: {} x {}",
        cfg.tiles_x,
        cfg.tiles_y
    );
    assert!(cfg.tile > 0, "halo tile side is 0: a tile has no cells");
    let mut rng = SplitMix64::seed_from_u64(cfg.seed);
    let mut mask: Vec<bool> = (0..cfg.tiles_x * cfg.tiles_y)
        .map(|_| rng.next_u64() % 100 < cfg.active_pct)
        .collect();
    mask[0] = true;
    mask
}

/// Deterministic initial value of global cell `(gx, gy)`.
#[inline]
pub fn initial_value(gx: usize, gy: usize) -> f64 {
    ((gx * 31 + gy * 17) % 101) as f64 / 101.0
}

/// Assemble the `(t + 2)²` halo of a tile from its own data and its eight
/// neighbors' edges (in [`NEIGHBORS`] order); missing or inactive
/// neighbors contribute the boundary value 0.0.
pub fn assemble_halo(t: usize, center: &[f64], nbrs: &[Option<&[f64]>; 8]) -> Vec<f64> {
    let w = t + 2;
    let mut halo = vec![0.0; w * w];
    for y in 0..t {
        halo[(y + 1) * w + 1..(y + 1) * w + 1 + t].copy_from_slice(&center[y * t..(y + 1) * t]);
    }
    for (k, &(dy, dx)) in NEIGHBORS.iter().enumerate() {
        let Some(n) = nbrs[k] else { continue };
        match (dy, dx) {
            (-1, -1) => halo[0] = n[t * t - 1],
            (-1, 0) => halo[1..1 + t].copy_from_slice(&n[(t - 1) * t..]),
            (-1, 1) => halo[t + 1] = n[(t - 1) * t],
            (0, -1) => {
                for y in 0..t {
                    halo[(y + 1) * w] = n[y * t + t - 1];
                }
            }
            (0, 1) => {
                for y in 0..t {
                    halo[(y + 1) * w + t + 1] = n[y * t];
                }
            }
            (1, -1) => halo[(t + 1) * w] = n[t - 1],
            (1, 0) => halo[(t + 1) * w + 1..(t + 1) * w + 1 + t].copy_from_slice(&n[..t]),
            (1, 1) => halo[(t + 1) * w + t + 1] = n[0],
            _ => unreachable!(),
        }
    }
    halo
}

/// One Jacobi step of the 9-point stencil over an assembled halo:
/// `new = 0.5 · center + 0.0625 · Σ neighbors` (weights sum to 1). The
/// serial reference's kernel and the oracle of [`step_tile_into`].
pub fn step_tile(t: usize, halo: &[f64]) -> Vec<f64> {
    let w = t + 2;
    let mut out = vec![0.0; t * t];
    for y in 0..t {
        for x in 0..t {
            let mut s = 0.0;
            for &(dy, dx) in &NEIGHBORS {
                s += halo[((y as isize + 1 + dy) * w as isize + x as isize + 1 + dx) as usize];
            }
            out[y * t + x] = 0.5 * halo[(y + 1) * w + x + 1] + 0.0625 * s;
        }
    }
    out
}

/// [`step_tile`] into `out`, reading the halo as three row slices per tile
/// row: the same sum in [`NEIGHBORS`] order from `0.0`, the same weights,
/// and no tile allocated per step. Every cell of `out` is overwritten.
pub fn step_tile_into(t: usize, halo: &[f64], out: &mut [f64]) {
    let w = t + 2;
    for (y, row) in out.chunks_exact_mut(t).enumerate() {
        let [up, mid, down] = [y, y + 1, y + 2].map(|r| &halo[r * w..(r + 1) * w]);
        // Each neighbour column as a slice of exactly `t` cells.
        let [nw, n, ne] = [0, 1, 2].map(|dx| &up[dx..dx + t]);
        let [west, center, east] = [0, 1, 2].map(|dx| &mid[dx..dx + t]);
        let [sw, s, se] = [0, 1, 2].map(|dx| &down[dx..dx + t]);
        for x in 0..t {
            let sum = 0.0 + nw[x] + n[x] + ne[x] + west[x] + east[x] + sw[x] + s[x] + se[x];
            row[x] = 0.5 * center[x] + 0.0625 * sum;
        }
    }
}

/// Initial cell data of tile `(tx, ty)`, row-major.
fn initial_tile(cfg: &HaloConfig, tx: usize, ty: usize) -> Vec<f64> {
    let t = cfg.tile;
    (0..t * t)
        .map(|i| initial_value(tx * t + i % t, ty * t + i / t))
        .collect()
}

/// Final numeric results.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HaloOutput {
    /// Sum over all active tiles after the final iteration.
    pub total: f64,
    /// Order-sensitive checksum (active tiles in row-major order).
    pub grid_checksum: f64,
}

pub struct HaloHandles {
    pub result: Handle<(f64, f64)>,
}

/// Build and submit the whole Halo program on any Jade runtime.
pub fn build<R: JadeRuntime>(rt: &mut R, cfg: &HaloConfig) -> HaloHandles {
    let (tx_n, ty_n, t) = (cfg.tiles_x, cfg.tiles_y, cfg.tile);
    let mask = active_mask(cfg);
    let ring = worker_ring(cfg.procs);
    // Double-buffered tile data for active tiles only; both parities start
    // with the same initial data (an unwritten buffer reads as the initial
    // state). Homed by row, so a tile's three upper neighbors share an
    // owner — the aggregation pass's fan-in.
    let buf: Vec<Option<[Handle<Vec<f64>>; 2]>> = (0..tx_n * ty_n)
        .map(|idx| {
            if !mask[idx] {
                return None;
            }
            let (tx, ty) = (idx % tx_n, idx / tx_n);
            let home = ring[ty % ring.len()];
            let data = initial_tile(cfg, tx, ty);
            let mk = |rt: &mut R, q: usize| {
                let h = rt.create(&format!("tile[{tx},{ty}][{q}]"), 8 * t * t, data.clone());
                rt.set_home(h, home);
                h
            };
            Some([mk(rt, 0), mk(rt, 1)])
        })
        .collect();
    let result = rt.create("result", 16, (0.0f64, 0.0f64));
    rt.set_home(result, 0);

    for iter in 0..cfg.iterations {
        rt.begin_phase();
        let old = iter % 2;
        let new = (iter + 1) % 2;
        for idx in 0..tx_n * ty_n {
            let Some(pair) = buf[idx] else { continue };
            let (tx, ty) = (idx % tx_n, idx / tx_n);
            // The mask decides the read set at spawn time: only active
            // in-bounds neighbors are declared (and later fetched).
            let nbr_old: [Option<Handle<Vec<f64>>>; 8] = std::array::from_fn(|k| {
                let (dy, dx) = NEIGHBORS[k];
                let (nx, ny) = (tx as isize + dx, ty as isize + dy);
                if nx < 0 || ny < 0 || nx >= tx_n as isize || ny >= ty_n as isize {
                    return None;
                }
                buf[ny as usize * tx_n + nx as usize].map(|p| p[old])
            });
            let (wh, oh) = (pair[new], pair[old]);
            let mut tb = TaskBuilder::new("stencil").wr(wh).rd(oh);
            for h in nbr_old.iter().flatten() {
                tb = tb.rd(*h);
            }
            let placement = ring[ty % ring.len()];
            rt.submit(tb.place(placement).body(move |ctx| {
                let center = ctx.rd(oh);
                let guards: [Option<_>; 8] = std::array::from_fn(|k| nbr_old[k].map(|h| ctx.rd(h)));
                let nbrs: [Option<&[f64]>; 8] =
                    std::array::from_fn(|k| guards[k].as_deref().map(|v| v.as_slice()));
                let halo = assemble_halo(t, &center, &nbrs);
                step_tile_into(t, &halo, &mut ctx.wr(wh));
                ctx.charge((t * t) as f64 * C_CELL);
            }));
        }
    }
    // Final serial gather over active tiles in row-major order.
    {
        let qlast = cfg.iterations % 2;
        let finals: Vec<Handle<Vec<f64>>> =
            buf.iter().filter_map(|p| p.map(|b| b[qlast])).collect();
        let mut tb = TaskBuilder::new("collect").wr(result);
        for &h in &finals {
            tb = tb.rd(h);
        }
        let cells = finals.len() * t * t;
        rt.submit(tb.serial_phase().body(move |ctx| {
            let mut all = Vec::with_capacity(cells);
            for &h in &finals {
                all.extend(ctx.rd(h).iter().copied());
            }
            let total = all.iter().sum();
            *ctx.wr(result) = (total, checksum(all));
            ctx.charge(cells as f64 * C_CELL);
        }));
    }
    HaloHandles { result }
}

pub fn output<R: JadeRuntime>(rt: &R, h: &HaloHandles) -> HaloOutput {
    let (total, grid_checksum) = *rt.store().read(h.result);
    HaloOutput {
        total,
        grid_checksum,
    }
}

pub fn run_on<R: JadeRuntime>(rt: &mut R, cfg: &HaloConfig) -> HaloOutput {
    let h = build(rt, cfg);
    rt.finish();
    output(rt, &h)
}

pub fn run_trace(cfg: &HaloConfig) -> (Trace, HaloOutput) {
    let mut rt = TraceRuntime::new();
    let h = build(&mut rt, cfg);
    rt.finish();
    let out = output(&rt, &h);
    let (_, trace) = rt.into_parts();
    (trace, out)
}

/// Number of active tiles under `cfg`'s mask.
pub fn active_count(cfg: &HaloConfig) -> usize {
    active_mask(cfg).iter().filter(|&&a| a).count()
}

/// Serial reference: the same mask, kernels and iteration order (active
/// tiles row-major, Jacobi across tiles) — bit-identical to the Jade
/// version. Returns the output and total charged operations.
pub fn reference(cfg: &HaloConfig) -> (HaloOutput, f64) {
    let (tx_n, ty_n, t) = (cfg.tiles_x, cfg.tiles_y, cfg.tile);
    let mask = active_mask(cfg);
    let mut state: Vec<Option<Vec<f64>>> = (0..tx_n * ty_n)
        .map(|idx| mask[idx].then(|| initial_tile(cfg, idx % tx_n, idx / tx_n)))
        .collect();
    let mut ops = 0.0;
    for _ in 0..cfg.iterations {
        let snap = state.clone();
        for idx in 0..tx_n * ty_n {
            if state[idx].is_none() {
                continue;
            }
            let (tx, ty) = (idx % tx_n, idx / tx_n);
            let nbrs: [Option<&[f64]>; 8] = std::array::from_fn(|k| {
                let (dy, dx) = NEIGHBORS[k];
                let (nx, ny) = (tx as isize + dx, ty as isize + dy);
                if nx < 0 || ny < 0 || nx >= tx_n as isize || ny >= ty_n as isize {
                    return None;
                }
                snap[ny as usize * tx_n + nx as usize].as_deref()
            });
            let center = snap[idx].as_deref().expect("active tile has data");
            let halo = assemble_halo(t, center, &nbrs);
            state[idx] = Some(step_tile(t, &halo));
            ops += (t * t) as f64 * C_CELL;
        }
    }
    let all: Vec<f64> = state.into_iter().flatten().flatten().collect();
    ops += all.len() as f64 * C_CELL;
    (
        HaloOutput {
            total: all.iter().sum(),
            grid_checksum: checksum(all),
        },
        ops,
    )
}

pub fn expected_tasks(cfg: &HaloConfig) -> usize {
    cfg.iterations * active_count(cfg) + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mask_is_deterministic_and_dense_enough() {
        let cfg = HaloConfig::small(2);
        let m1 = active_mask(&cfg);
        assert_eq!(m1, active_mask(&cfg));
        assert!(m1[0], "tile 0 is forced active");
        let active = m1.iter().filter(|&&a| a).count();
        assert!(active >= m1.len() / 3 && active < m1.len(), "{active}");
    }

    #[test]
    fn trace_matches_reference_exactly() {
        for procs in [1usize, 2, 3, 5] {
            let cfg = HaloConfig::small(procs);
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
    fn same_iteration_tasks_do_not_conflict() {
        // Jacobi double-buffering: same-iteration tasks read only old-parity
        // buffers and write disjoint new-parity buffers.
        let cfg = HaloConfig::small(3);
        let n = active_count(&cfg);
        let (trace, _) = run_trace(&cfg);
        let first: Vec<_> = trace
            .tasks
            .iter()
            .filter(|t| t.label == "stencil")
            .take(n)
            .collect();
        for i in 0..first.len() {
            for j in (i + 1)..first.len() {
                assert!(
                    !first[i].spec.conflicts_with(&first[j].spec),
                    "tiles {i} and {j} must be independent within an iteration"
                );
            }
        }
    }

    #[test]
    fn read_sets_follow_the_mask() {
        let cfg = HaloConfig::small(3);
        let mask = active_mask(&cfg);
        let (trace, _) = run_trace(&cfg);
        let decls: Vec<usize> = trace
            .tasks
            .iter()
            .filter(|t| t.label == "stencil")
            .take(active_count(&cfg))
            .map(|t| t.spec.decls().len())
            .collect();
        // Every stencil task declares its write, its own old buffer, and
        // one read per *active* in-bounds neighbor: 2..=10 declarations,
        // and — because the mask has holes — not all the same.
        assert!(decls.iter().all(|&c| (2..=10).contains(&c)), "{decls:?}");
        assert!(
            decls.iter().any(|&c| c != decls[0]),
            "mask holes should vary the read sets: {decls:?} (mask {mask:?})"
        );
    }

    #[test]
    fn stencil_stays_bounded() {
        // The weights sum to 1 with zero boundaries, so values never grow.
        let cfg = HaloConfig::small(1);
        let (out, _) = reference(&cfg);
        let cells = active_count(&cfg) * cfg.tile * cfg.tile;
        assert!(out.total.is_finite());
        assert!(
            out.total <= cells as f64,
            "total {} cells {cells}",
            out.total
        );
        let longer = HaloConfig {
            iterations: 12,
            ..cfg
        };
        let (out2, _) = reference(&longer);
        // Mass leaks out through the zero boundary, so the total shrinks.
        assert!(out2.total < out.total, "{} vs {}", out2.total, out.total);
    }

    #[test]
    #[should_panic(expected = "halo grid has no tiles: 0 x 5")]
    fn a_grid_without_tiles_is_refused() {
        run_trace(&HaloConfig {
            tiles_x: 0,
            ..HaloConfig::small(2)
        });
    }

    #[test]
    #[should_panic(expected = "halo tile side is 0")]
    fn a_tile_without_cells_is_refused() {
        reference(&HaloConfig {
            tile: 0,
            ..HaloConfig::small(2)
        });
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// A float the sum's bits are sensitive to: a signed zero, a signed
    /// subnormal, or any bit pattern that is not a NaN (whose payload an
    /// optimiser may legally take from either operand).
    fn awkward(b: u64) -> f64 {
        match b % 8 {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from_bits(b >> 12),
            3 => -f64::from_bits(b >> 12),
            _ if f64::from_bits(b).is_nan() => 1.0,
            _ => f64::from_bits(b),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The in-place Jade kernel against the serial reference's
        /// allocating one, over random shapes, masks and decompositions.
        #[test]
        fn trace_equals_reference_bit_for_bit(
            tile in 1..13usize,
            tiles in (1..6usize, 1..6usize),
            iterations in 1..4usize,
            procs in 1..9usize,
            active_pct in 0..101u64,
            seed in any::<u64>(),
        ) {
            let cfg = HaloConfig {
                tiles_x: tiles.0,
                tiles_y: tiles.1,
                tile,
                iterations,
                active_pct,
                procs,
                seed,
            };
            let (trace, out) = run_trace(&cfg);
            let (want, ops) = reference(&cfg);
            prop_assert_eq!(
                bits(&[out.total, out.grid_checksum]),
                bits(&[want.total, want.grid_checksum])
            );
            prop_assert_eq!(trace.total_work().to_bits(), ops.to_bits());
        }

        /// Signed zeros and subnormals in the halo, garbage in the tile.
        #[test]
        fn in_place_step_equals_the_allocating_step(t in 1..13usize, seed in any::<u64>()) {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let halo: Vec<f64> = (0..(t + 2) * (t + 2)).map(|_| awkward(rng.next_u64())).collect();
            let mut out: Vec<f64> = (0..t * t).map(|_| f64::from_bits(rng.next_u64())).collect();
            step_tile_into(t, &halo, &mut out);
            prop_assert_eq!(bits(&out), bits(&step_tile(t, &halo)));
        }
    }
}
