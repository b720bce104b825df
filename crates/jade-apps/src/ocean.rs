//! **Ocean**: simulates the role of eddy and boundary currents in
//! influencing large-scale ocean movements (paper Section 4).
//!
//! The computationally intensive section solves a set of discretized
//! spatial partial differential equations with an iterative five-point
//! stencil method on a square grid (192 × 192 in the paper's data set).
//!
//! The Jade decomposition is the paper's: the grid is split into **interior
//! blocks** of columns (one per worker processor, so grain tracks the
//! processor count) separated by two-column **boundary blocks**. Every
//! iteration creates one task per interior block; the task updates all of
//! its interior block plus the near column of each adjacent boundary block.
//! There is *no* serial phase between iterations — tasks of successive
//! iterations chain through the boundary columns, giving Ocean its fine
//! grain and high task-management load (Figures 10 and 20).
//!
//! **Boundary-column representation.** The paper's boundary "block" is
//! realized here as four shared objects per gap: the two boundary columns,
//! each double-buffered by iteration parity. A task writes this iteration's
//! parity buffer of its near columns and reads the *previous* iteration's
//! buffers of the far columns and of its own columns' down-neighbors. This
//! makes every cross-block dependence exactly one iteration deep, so the
//! block tasks pipeline with full utilization — matching the paper's
//! measured Ocean speedups, which a single monolithic boundary object (full
//! mutual exclusion between adjacent tasks) cannot reproduce. The update is
//! Gauss-Seidel within a block and Jacobi across block edges, the standard
//! hybrid for block-decomposed relaxation. See DESIGN.md.
//!
//! A task sweeps its columns on a skewed front (`FRONT` columns at once)
//! with the forcing term tabulated once per program; the serial reference
//! keeps the column-by-column loop and per-cell forcing and is its oracle.
//! Every cell sums the same operands in the same order, so the two agree
//! bit for bit (DESIGN.md §20).

use crate::common::{checksum, chunk_ranges, worker_ring};
use jade_core::{Handle, JadeRuntime, ProcId, TaskBuilder, Trace, TraceRuntime};
use std::sync::Arc;

/// Paper-measured execution times used for calibration (Tables 1 and 6).
pub mod calib {
    pub const DASH_SERIAL_S: f64 = 102.99;
    pub const DASH_STRIPPED_S: f64 = 100.03;
    pub const IPSC_SERIAL_S: f64 = 54.19;
    pub const IPSC_STRIPPED_S: f64 = 60.99;
}

/// Cost (abstract operations) per stencil cell update.
const C_CELL: f64 = 1.0;

/// Workload configuration.
#[derive(Clone, Debug)]
pub struct OceanConfig {
    /// Grid side (cells).
    pub n: usize,
    pub iterations: usize,
    pub procs: usize,
}

impl OceanConfig {
    /// The paper's data set: a square 192 × 192 grid. The iteration count
    /// is not stated in the paper; 900 reproduces its task-management load
    /// (see EXPERIMENTS.md §calibration).
    pub fn paper(procs: usize) -> OceanConfig {
        OceanConfig {
            n: 192,
            iterations: 900,
            procs,
        }
    }

    /// A seconds-scale grid: 32 columns, widened once the processor count
    /// needs more than that for its blocks and boundary pairs (see
    /// [`layout`]).
    pub fn small(procs: usize) -> OceanConfig {
        let blocks = procs.saturating_sub(1).max(1);
        OceanConfig {
            n: 32.max(3 * blocks),
            iterations: 12,
            procs,
        }
    }

    /// Number of interior blocks: one per worker processor ("the size of
    /// the interior blocks ... is adjusted to the number of processors").
    pub fn blocks(&self) -> usize {
        self.procs.saturating_sub(1).max(1)
    }
}

/// Column-major block of the grid: `cols` columns of `n` rows.
#[derive(Clone, Debug, Default)]
pub struct GridBlock {
    pub n: usize,
    pub cols: usize,
    pub data: Vec<f64>,
}

impl GridBlock {
    fn new(n: usize, cols: usize) -> GridBlock {
        GridBlock {
            n,
            cols,
            data: vec![0.0; n * cols],
        }
    }
}

/// Wind-stress-like forcing term at (row, global column).
#[inline]
fn forcing(n: usize, row: usize, gcol: usize) -> f64 {
    let x = gcol as f64 / n as f64;
    let y = row as f64 / n as f64;
    0.01 * (std::f64::consts::PI * y).sin() * (2.0 * std::f64::consts::PI * x).cos()
}

/// [`forcing`] separated into its two factors, each computed once per
/// program: `forcing(n, row, gcol)` evaluates `(0.01 · sin) · cos` left to
/// right, so it is exactly `rows[row] * cols[gcol]`.
struct Forcing {
    rows: Vec<f64>,
    cols: Vec<f64>,
}

impl Forcing {
    fn new(n: usize) -> Forcing {
        let at = |i: usize| i as f64 / n as f64;
        Forcing {
            rows: (0..n)
                .map(|r| 0.01 * (std::f64::consts::PI * at(r)).sin())
                .collect(),
            cols: (0..n)
                .map(|c| (2.0 * std::f64::consts::PI * at(c)).cos())
                .collect(),
        }
    }
}

/// Columns a Gauss-Seidel sweep advances at once (see [`front`]). Chosen
/// by measurement: 8 generates the paper traces 1.2x (8 processors) and
/// 1.5x (32) faster than 4 (DESIGN.md §20); a front's newest cells and
/// forcing factors then fill the sixteen SSE registers.
const FRONT: usize = 8;

/// Gauss-Seidel over a run of adjacent columns, in place: every cell gets
/// `0.25 · (up + down + left + right) + forcing` from its up and left
/// neighbours' new values and its down and right neighbours' old ones —
/// exactly as if the run were swept column by column, top to bottom.
/// `left` is the column before the run (new values), `right` the one after
/// it (old values), `cols` the run's forcing column factors.
fn sweep<'a>(
    run: impl Iterator<Item = &'a mut [f64]>,
    mut left: &'a [f64],
    right: &'a [f64],
    rows: &[f64],
    cols: &[f64],
) {
    let mut run = run.peekable();
    let mut done = 0;
    while done < cols.len() {
        let fc = &cols[done..];
        // A remainder gets a front of its own width, not narrower ones: at
        // 32 processors most runs are 4-7 columns, all remainder.
        let width = fc.len().min(FRONT);
        left = match width {
            1 => front::<1>(&mut run, left, right, rows, fc),
            2 => front::<2>(&mut run, left, right, rows, fc),
            3 => front::<3>(&mut run, left, right, rows, fc),
            4 => front::<4>(&mut run, left, right, rows, fc),
            5 => front::<5>(&mut run, left, right, rows, fc),
            6 => front::<6>(&mut run, left, right, rows, fc),
            7 => front::<7>(&mut run, left, right, rows, fc),
            _ => front::<FRONT>(&mut run, left, right, rows, fc),
        };
        done += width;
    }
}

/// Sweep the next `J` columns of `run` on a skewed front: step `s` updates
/// row `s - j` of column `j`. That cell's up and left neighbours were both
/// written at step `s - 1`, and its right neighbour is still old, one row
/// behind — the column-by-column operands, but the `J` dependence chains
/// overlap instead of waiting on each other. The up and left values are
/// carried in registers (`v[j]` is column `j`'s newest cell). Returns the
/// last column: the next group's left neighbour.
fn front<'a, const J: usize>(
    run: &mut std::iter::Peekable<impl Iterator<Item = &'a mut [f64]>>,
    left: &[f64],
    right: &'a [f64],
    rows: &[f64],
    fc: &[f64],
) -> &'a [f64] {
    let mut g: [&'a mut [f64]; J] = std::array::from_fn(|_| run.next().expect("a column"));
    let right = run.peek().map_or(right, |c| &**c);
    let fc: [f64; J] = std::array::from_fn(|j| fc[j]);
    let mut v: [f64; J] = std::array::from_fn(|j| g[j][0]);
    let last = rows.len() - 2; // the last row that is updated
    let mut cell = |j: usize, r: usize| {
        let lf = if j == 0 { left[r] } else { v[j - 1] };
        let rt = if j + 1 == J { right[r] } else { g[j + 1][r] };
        let x = 0.25 * (v[j] + g[j][r + 1] + lf + rt) + rows[r] * fc[j];
        g[j][r] = x;
        v[j] = x;
    };
    // Right to left within a step, so `v[j - 1]` is still step `s - 1`'s.
    for s in 1..last + J {
        if (J..=last).contains(&s) {
            for j in (0..J).rev() {
                cell(j, s - j);
            }
        } else {
            for j in (s.saturating_sub(last)..s.min(J)).rev() {
                cell(j, s - j);
            }
        }
    }
    std::mem::take::<&mut [f64]>(&mut g[J - 1])
}

/// Layout of interior and boundary blocks along the column axis.
#[derive(Clone, Debug)]
pub struct Layout {
    /// (global first column, width) of each interior block.
    pub interior: Vec<(usize, usize)>,
    /// Global first column of each two-column boundary gap
    /// (gap `g` sits between interior `g` and interior `g+1`).
    pub boundary: Vec<usize>,
}

/// Compute the block layout for a grid of side `n` with `blocks` interior
/// blocks. Boundary gaps are two columns wide (paper Section 4).
pub fn layout(n: usize, blocks: usize) -> Layout {
    // Rows and columns 0 and n - 1 are fixed: below 3 there is no interior
    // to update or to average a residual over.
    assert!(n >= 3, "grid too small: side {n} has no interior cell");
    if blocks == 1 {
        return Layout {
            interior: vec![(0, n)],
            boundary: vec![],
        };
    }
    let nb = blocks - 1;
    // Checked: a release build must reject a narrow grid too, not wrap.
    let interior_cols = n
        .checked_sub(2 * nb)
        .filter(|&cols| cols >= blocks)
        .unwrap_or_else(|| panic!("grid too small for {blocks} blocks"));
    let widths = chunk_ranges(interior_cols, blocks);
    let mut interior = Vec::with_capacity(blocks);
    let mut boundary = Vec::with_capacity(nb);
    let mut gcol = 0;
    for (b, (s, e)) in widths.into_iter().enumerate() {
        let w = e - s;
        interior.push((gcol, w));
        gcol += w;
        if b < nb {
            boundary.push(gcol);
            gcol += 2;
        }
    }
    debug_assert_eq!(gcol, n);
    Layout { interior, boundary }
}

/// Final numeric results.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OceanOutput {
    /// Mean absolute stencil residual after the final iteration.
    pub residual: f64,
    /// Order-sensitive checksum of the final grid (global column order).
    pub grid_checksum: f64,
}

pub struct OceanHandles {
    pub result: Handle<(f64, f64)>,
}

/// Update one boundary column into its new-parity buffer — the serial
/// reference's kernel.
///
/// * `new` — this iteration's buffer; rows `< row` already hold new values
///   and serve as the up-neighbor;
/// * `old` — previous iteration's buffer (down-neighbor);
/// * `left`/`right` — neighbor-column accessors (caller resolves new/old).
fn update_column(
    n: usize,
    gcol: usize,
    new: &mut [f64],
    old: &[f64],
    left: impl Fn(usize) -> f64,
    right: impl Fn(usize) -> f64,
) -> u64 {
    new[0] = old[0]; // fixed top/bottom rows carry over
    new[n - 1] = old[n - 1];
    for row in 1..n - 1 {
        let up = if row == 1 { old[0] } else { new[row - 1] };
        new[row] = 0.25 * (up + old[row + 1] + left(row) + right(row)) + forcing(n, row, gcol);
    }
    (n - 2) as u64
}

/// Build and submit the whole Ocean program on any Jade runtime.
pub fn build<R: JadeRuntime>(rt: &mut R, cfg: &OceanConfig) -> OceanHandles {
    let n = cfg.n;
    let blocks = cfg.blocks();
    let lay = layout(n, blocks);
    let ring = worker_ring(cfg.procs);

    let interior: Vec<Handle<GridBlock>> = lay
        .interior
        .iter()
        .enumerate()
        .map(|(b, &(_, w))| {
            let h = rt.create(&format!("interior[{b}]"), 8 * n * w, GridBlock::new(n, w));
            rt.set_home(h, ring[b % ring.len()]);
            h
        })
        .collect();
    // Boundary columns, double-buffered by iteration parity: gap g holds
    // global columns (x, x+1); column x ("left") is written by task g,
    // column x+1 ("right") by task g+1.
    let mut bl: Vec<[Handle<Vec<f64>>; 2]> = Vec::new();
    let mut br: Vec<[Handle<Vec<f64>>; 2]> = Vec::new();
    for g in 0..lay.boundary.len() {
        let hl = ring[g % ring.len()];
        let hr = ring[(g + 1) % ring.len()];
        let mk = |rt: &mut R, name: String, home: ProcId| {
            let h = rt.create(&name, 8 * n, vec![0.0f64; n]);
            rt.set_home(h, home);
            h
        };
        bl.push([
            mk(rt, format!("bndL[{g}][0]"), hl),
            mk(rt, format!("bndL[{g}][1]"), hl),
        ]);
        br.push([
            mk(rt, format!("bndR[{g}][0]"), hr),
            mk(rt, format!("bndR[{g}][1]"), hr),
        ]);
    }
    let params = rt.create("ocean-params", 512, (n, cfg.iterations));
    rt.set_home(params, 0);
    let result = rt.create("result", 16, (0.0f64, 0.0f64));
    rt.set_home(result, 0);

    let forcing = Arc::new(Forcing::new(n));
    for iter in 0..cfg.iterations {
        rt.begin_phase();
        let q = iter % 2; // this iteration's parity buffer
        for b in 0..blocks {
            let ih = interior[b];
            let (i0, iw) = lay.interior[b];
            // Left gap (global columns i0 - 2, i0 - 1) and right gap (i0 + iw,
            // i0 + iw + 1): (near column's write buffer, its old buffer, far
            // column's old buffer).
            let lg = (b > 0).then(|| (br[b - 1][q], br[b - 1][1 - q], bl[b - 1][1 - q]));
            let rg = (b < blocks - 1).then(|| (bl[b][q], bl[b][1 - q], br[b][1 - q]));
            let placement: ProcId = ring[b % ring.len()];
            // Locality object: the interior block (paper Section 4).
            let mut tb = TaskBuilder::new("stencil").rd_wr(ih);
            for (w, o, far) in lg.into_iter().chain(rg) {
                tb = tb.wr(w).rd(o).rd(far);
            }
            tb = tb.rd(params).place(placement);
            let forcing = Arc::clone(&forcing);
            rt.submit(tb.body(move |ctx| {
                // A near boundary column is swept in place like an interior
                // one, from a copy of its old buffer: its down neighbour is
                // then the old value, as the interior's right neighbour is.
                let near = |(wh, oh, _): (Handle<Vec<f64>>, Handle<Vec<f64>>, _)| {
                    let mut new = ctx.wr(wh);
                    new.copy_from_slice(&ctx.rd(oh));
                    new
                };
                let (mut lg_new, mut rg_new) = (lg.map(near), rg.map(near));
                let (far_l, far_r) = (lg.map(|(.., f)| ctx.rd(f)), rg.map(|(.., f)| ctx.rd(f)));
                let mut me = ctx.wr(ih);
                // Global columns 0 and n - 1 are fixed: where there is no
                // gap, the run stops short of them and they bound it.
                let lo = usize::from(i0 == 0);
                let hi = iw - usize::from(i0 + iw == n);
                let (head, rest) = me.data.split_at_mut(lo * n);
                let (mid, tail) = rest.split_at_mut((hi - lo) * n);
                // The task's columns, left to right: one run of the grid.
                let run = lg_new
                    .as_deref_mut()
                    .into_iter()
                    .map(Vec::as_mut_slice)
                    .chain(mid.chunks_exact_mut(n))
                    .chain(rg_new.as_deref_mut().map(Vec::as_mut_slice));
                let g0 = if lg.is_some() { i0 - 1 } else { i0 + lo };
                let width = hi - lo + usize::from(lg.is_some()) + usize::from(rg.is_some());
                sweep(
                    run,
                    far_l.as_deref().map_or(&*head, Vec::as_slice),
                    far_r.as_deref().map_or(&*tail, Vec::as_slice),
                    &forcing.rows,
                    &forcing.cols[g0..g0 + width],
                );
                ctx.charge((width * (n - 2)) as f64 * C_CELL);
            }));
        }
    }
    // Final serial gather: residual + checksum over the reassembled grid.
    {
        let interior = interior.clone();
        let qlast = (cfg.iterations + 1) % 2; // parity of the last iteration
        let final_bl: Vec<_> = bl.iter().map(|pair| pair[qlast]).collect();
        let final_br: Vec<_> = br.iter().map(|pair| pair[qlast]).collect();
        let lay2 = lay.clone();
        let mut tb = TaskBuilder::new("gather").wr(result);
        for &h in &interior {
            tb = tb.rd(h);
        }
        for (&l, &r) in final_bl.iter().zip(&final_br) {
            tb = tb.rd(l).rd(r);
        }
        rt.submit(tb.serial_phase().body(move |ctx| {
            let mut grid: Vec<Vec<f64>> = vec![vec![0.0; n]; n]; // [gcol][row]
            for (b, &(g0, w)) in lay2.interior.iter().enumerate() {
                let blk = ctx.rd(interior[b]);
                for c in 0..w {
                    grid[g0 + c].copy_from_slice(&blk.data[c * n..(c + 1) * n]);
                }
            }
            for (g, &x) in lay2.boundary.iter().enumerate() {
                grid[x].copy_from_slice(&ctx.rd(final_bl[g]));
                grid[x + 1].copy_from_slice(&ctx.rd(final_br[g]));
            }
            let (res, ck) = grid_stats(&grid, n);
            *ctx.wr(result) = (res, ck);
            ctx.charge((n * n) as f64 * C_CELL);
        }));
    }
    OceanHandles { result }
}

fn grid_stats(grid: &[Vec<f64>], n: usize) -> (f64, f64) {
    let mut res = 0.0;
    for gcol in 1..n - 1 {
        for row in 1..n - 1 {
            let v = 0.25
                * (grid[gcol][row - 1]
                    + grid[gcol][row + 1]
                    + grid[gcol - 1][row]
                    + grid[gcol + 1][row])
                + forcing(n, row, gcol);
            res += (v - grid[gcol][row]).abs();
        }
    }
    res /= ((n - 2) * (n - 2)) as f64;
    let ck = checksum(grid.iter().flat_map(|col| col.iter().copied()));
    (res, ck)
}

pub fn output<R: JadeRuntime>(rt: &R, h: &OceanHandles) -> OceanOutput {
    let (residual, grid_checksum) = *rt.store().read(h.result);
    OceanOutput {
        residual,
        grid_checksum,
    }
}

pub fn run_on<R: JadeRuntime>(rt: &mut R, cfg: &OceanConfig) -> OceanOutput {
    let h = build(rt, cfg);
    rt.finish();
    output(rt, &h)
}

pub fn run_trace(cfg: &OceanConfig) -> (Trace, OceanOutput) {
    let mut rt = TraceRuntime::new();
    let h = build(&mut rt, cfg);
    rt.finish();
    let out = output(&rt, &h);
    let (_, trace) = rt.into_parts();
    (trace, out)
}

/// Plain serial reference implementation mirroring the semantics of the
/// block decomposition: Gauss-Seidel inside interior blocks, Jacobi across
/// boundary columns (previous-iteration values at every boundary-column
/// read except the in-column up-neighbor and the interior's read of the
/// freshly-updated near-left column). Bit-identical to the Jade version at
/// the same block count.
pub fn reference_blocks(cfg: &OceanConfig, blocks: usize) -> (OceanOutput, f64) {
    let n = cfg.n;
    let lay = layout(n, blocks);
    let mut grid: Vec<Vec<f64>> = vec![vec![0.0; n]; n]; // [gcol][row]
    let mut ops = 0.0;
    for _ in 0..cfg.iterations {
        // Snapshot all boundary columns: the previous iteration's values.
        let snap: Vec<(Vec<f64>, Vec<f64>)> = lay
            .boundary
            .iter()
            .map(|&x| (grid[x].clone(), grid[x + 1].clone()))
            .collect();
        for b in 0..blocks {
            let (i0, iw) = lay.interior[b];
            // 1. Near-left boundary column x+1.
            if b > 0 {
                let x = lay.boundary[b - 1];
                let (old_l, old_r) = &snap[b - 1];
                let mut new = vec![0.0; n];
                ops += update_column(n, x + 1, &mut new, old_r, |r| old_l[r], |r| grid[i0][r])
                    as f64
                    * C_CELL;
                grid[x + 1] = new;
            }
            // 2. Interior columns, Gauss-Seidel in place.
            for c in 0..iw {
                let gcol = i0 + c;
                if gcol == 0 || gcol == n - 1 {
                    continue;
                }
                for row in 1..n - 1 {
                    let right = if c == iw - 1 {
                        snap[b].0[row]
                    } else {
                        grid[gcol + 1][row]
                    };
                    let v = 0.25
                        * (grid[gcol][row - 1] + grid[gcol][row + 1] + grid[gcol - 1][row] + right)
                        + forcing(n, row, gcol);
                    grid[gcol][row] = v;
                    ops += C_CELL;
                }
            }
            // 3. Near-right boundary column x.
            if b < blocks - 1 {
                let x = lay.boundary[b];
                let (old_l, old_r) = &snap[b];
                let mut new = vec![0.0; n];
                ops += update_column(
                    n,
                    x,
                    &mut new,
                    old_l,
                    |r| grid[i0 + iw - 1][r],
                    |r| old_r[r],
                ) as f64
                    * C_CELL;
                grid[x] = new;
            }
        }
    }
    let (res, ck) = grid_stats(&grid, n);
    ops += (n * n) as f64 * C_CELL;
    (
        OceanOutput {
            residual: res,
            grid_checksum: ck,
        },
        ops,
    )
}

/// Serial reference at the single-block decomposition (plain Gauss-Seidel).
pub fn reference(cfg: &OceanConfig) -> (OceanOutput, f64) {
    reference_blocks(cfg, 1)
}

pub fn expected_tasks(cfg: &OceanConfig) -> usize {
    cfg.iterations * cfg.blocks() + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn layout_covers_grid() {
        for n in [32usize, 192] {
            for blocks in [1usize, 2, 3, 7] {
                let lay = layout(n, blocks);
                let total: usize =
                    lay.interior.iter().map(|&(_, w)| w).sum::<usize>() + 2 * lay.boundary.len();
                assert_eq!(total, n, "n={n} blocks={blocks}");
                assert_eq!(lay.boundary.len(), blocks - 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "grid too small")]
    fn layout_rejects_a_grid_narrower_than_its_boundaries() {
        // 2 * 31 boundary columns alone exceed the 32-column grid: the
        // subtraction must not wrap in a release build.
        layout(32, 32);
    }

    #[test]
    #[should_panic(expected = "grid too small: side 1 has no interior cell")]
    fn a_one_cell_grid_is_refused() {
        run_trace(&OceanConfig {
            n: 1,
            iterations: 1,
            procs: 1,
        });
    }

    #[test]
    #[should_panic(expected = "grid too small: side 2 has no interior cell")]
    fn a_grid_without_interior_is_refused() {
        reference(&OceanConfig {
            n: 2,
            iterations: 1,
            procs: 1,
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The skewed front against the column-by-column reference: every
        /// block width up to 2 x FRONT + 1, so every remainder of the front,
        /// a block narrower than it and the one block holding both edges.
        #[test]
        fn trace_equals_block_reference_bit_for_bit(
            n in 3..48usize,
            iterations in 1..7usize,
            procs in 1..18usize,
        ) {
            // Keep the decomposition valid: blocks + 2 (blocks - 1) <= n.
            let procs = procs.min(n.div_ceil(3) + 1);
            let cfg = OceanConfig { n, iterations, procs };
            let (trace, out) = run_trace(&cfg);
            let (want, ops) = reference_blocks(&cfg, cfg.blocks());
            prop_assert_eq!(
                [out.residual.to_bits(), out.grid_checksum.to_bits()],
                [want.residual.to_bits(), want.grid_checksum.to_bits()]
            );
            prop_assert_eq!(trace.total_work().to_bits(), ops.to_bits());
        }
    }

    #[test]
    fn small_runs_at_every_processor_count() {
        for procs in 1..=64 {
            let cfg = OceanConfig::small(procs);
            assert_eq!(cfg.n == 32, procs <= 11, "procs={procs}");
            let (trace, out) = run_trace(&cfg);
            assert_eq!(trace.task_count(), expected_tasks(&cfg), "procs={procs}");
            assert!(out.residual.is_finite(), "procs={procs}");
        }
    }

    #[test]
    fn trace_matches_block_reference_exactly() {
        for procs in [1usize, 2, 3, 5] {
            let cfg = OceanConfig::small(procs);
            let (trace, out) = run_trace(&cfg);
            let (ref_out, ref_ops) = reference_blocks(&cfg, cfg.blocks());
            assert_eq!(out, ref_out, "procs={procs}");
            assert_eq!(trace.task_count(), expected_tasks(&cfg));
            assert!(trace.validate().is_empty());
            let charged: f64 = trace.tasks.iter().map(|t| t.work).sum();
            assert!((charged - ref_ops).abs() < 1e-6, "{charged} vs {ref_ops}");
        }
    }

    #[test]
    fn block_decompositions_agree_approximately() {
        // Different block counts change the edge coupling (Jacobi lags the
        // boundary columns by one iteration), so convergence rates differ
        // slightly — but both head to the same fixed point.
        let cfg = OceanConfig {
            n: 32,
            iterations: 120,
            procs: 1,
        };
        let (a, _) = reference_blocks(&cfg, 1);
        let (b, _) = reference_blocks(&cfg, 3);
        let rel = (a.residual - b.residual).abs() / a.residual.max(1e-300);
        assert!(rel < 0.2, "{} vs {} (rel {rel})", a.residual, b.residual);
        // And with more iterations the hybrid's residual keeps shrinking.
        let (b2, _) = reference_blocks(
            &OceanConfig {
                iterations: 480,
                ..cfg
            },
            3,
        );
        assert!(
            b2.residual < b.residual * 0.1,
            "{} vs {}",
            b2.residual,
            b.residual
        );
    }

    #[test]
    fn solver_converges() {
        let mut cfg = OceanConfig::small(1);
        let (out_few, _) = reference(&OceanConfig {
            iterations: 3,
            ..cfg.clone()
        });
        cfg.iterations = 60;
        let (out_many, _) = reference(&cfg);
        assert!(
            out_many.residual < out_few.residual * 0.5,
            "more iterations should reduce the residual: {} -> {}",
            out_few.residual,
            out_many.residual
        );
        assert!(out_many.residual.is_finite());
    }

    #[test]
    fn placements_follow_worker_ring() {
        let cfg = OceanConfig::small(4);
        let (trace, _) = run_trace(&cfg);
        for t in trace.tasks.iter().filter(|t| t.label == "stencil") {
            let p = t.placement.expect("stencil tasks are placed");
            assert!(
                (1..4).contains(&p),
                "placement {p} omits the main processor"
            );
        }
    }

    #[test]
    fn same_iteration_tasks_do_not_conflict() {
        // The parity double-buffering removes all same-iteration conflicts:
        // adjacent block tasks read only the other's previous-parity data.
        let cfg = OceanConfig::small(5); // 4 blocks
        let (trace, _) = run_trace(&cfg);
        let first_iter: Vec<_> = trace
            .tasks
            .iter()
            .filter(|t| t.label == "stencil")
            .take(4)
            .collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert!(
                    !first_iter[i].spec.conflicts_with(&first_iter[j].spec),
                    "blocks {i} and {j} must be independent within an iteration"
                );
            }
        }
    }

    #[test]
    fn consecutive_iterations_conflict() {
        let cfg = OceanConfig::small(3); // 2 blocks
        let (trace, _) = run_trace(&cfg);
        let stencil: Vec<_> = trace
            .tasks
            .iter()
            .filter(|t| t.label == "stencil")
            .collect();
        // Task (iter 1, block 0) depends on (iter 0, block 0) and on
        // (iter 0, block 1) through the boundary parity buffers.
        assert!(stencil[2].spec.conflicts_with(&stencil[0].spec));
        assert!(stencil[2].spec.conflicts_with(&stencil[1].spec));
    }
}
