//! **Panel Cholesky**: factors a sparse positive-definite matrix
//! (paper Section 4; the computational kernel of the application set).
//!
//! The paper factors BCSSTK15 from the Harwell-Boeing set (n = 3948, a
//! structural-engineering stiffness matrix). That file is not
//! redistributable here, so we substitute a synthetic matrix of matched
//! order and — crucially — matched *elimination-tree shape*: BCSSTK15 is a
//! physical structure with several weakly-coupled sub-assemblies, so its
//! elimination tree has parallel subtrees joined near the root. Our
//! substitute is:
//!
//! * `subassemblies` independent banded stiffness blocks (each the 5-point
//!   matrix of an m × m grid under natural ordering, band m), which factor
//!   as parallel elimination subtrees; and
//! * an **interface block** of `iface` columns ordered last, which receives
//!   a (synthetic, diagonal, SPD-preserving) contribution from every
//!   sub-assembly and factors serially — the join at the root of the tree.
//!
//! The default (two 44 × 44-grid sub-assemblies + a 63-column interface)
//! gives n = 3935 ≈ 3948 and a few thousand tasks, matching the paper's
//! task population and its "inherent lack of concurrency" at high
//! processor counts.
//!
//! The panel decomposition and task structure are exactly the paper's: one
//! **internal update** task per panel, one **external update** task per
//! dependent panel pair, locality object = the updated panel, panels mapped
//! round-robin omitting the main processor, and a serial initialization
//! task on the main processor that writes every panel (which is why, on the
//! message-passing machine, the first task to touch each panel misses its
//! target — the paper's 92% effect).

use crate::common::{checksum, worker_ring, Checksum};

/// Communication-size multiplier for panels. BCSSTK15's supernodal fronts
/// are an order of magnitude denser than our synthetic band panels; scaling
/// the shared-object size reproduces the paper's measured object-transfer
/// latency of roughly twice the mean task execution time (Section 5.4).
const FRONT_FILL: usize = 16;
use jade_core::{Handle, JadeRuntime, TaskBuilder, Trace, TraceRuntime};

/// Paper-measured execution times used for calibration (Tables 1 and 6).
pub mod calib {
    pub const DASH_SERIAL_S: f64 = 26.67;
    pub const DASH_STRIPPED_S: f64 = 28.91;
    pub const IPSC_SERIAL_S: f64 = 27.60;
    pub const IPSC_STRIPPED_S: f64 = 28.53;
}

/// Workload configuration.
#[derive(Clone, Debug)]
pub struct CholeskyConfig {
    /// Grid side of one sub-assembly (its matrix order is `grid²`, its
    /// bandwidth `grid`).
    pub grid: usize,
    /// Number of independent sub-assemblies.
    pub subassemblies: usize,
    /// Interface (separator) column count.
    pub iface: usize,
    /// Columns per panel.
    pub panel_width: usize,
    pub procs: usize,
}

impl CholeskyConfig {
    /// Matched to BCSSTK15: n = 2·44² + 63 = 3935 ≈ 3948.
    pub fn paper(procs: usize) -> CholeskyConfig {
        CholeskyConfig {
            grid: 44,
            subassemblies: 2,
            iface: 63,
            panel_width: 8,
            procs,
        }
    }

    pub fn small(procs: usize) -> CholeskyConfig {
        CholeskyConfig {
            grid: 8,
            subassemblies: 2,
            iface: 8,
            panel_width: 4,
            procs,
        }
    }

    /// Refuse a shape the panel decomposition cannot cut: every
    /// sub-assembly needs a grid and every panel a column. `build` and
    /// `reference` start here, so a bad field is named instead of failing
    /// as an index or a division deep inside the factorization.
    fn check(&self) {
        assert!(
            self.grid > 0,
            "cholesky grid is 0: a sub-assembly has no columns"
        );
        assert!(
            self.panel_width > 0,
            "cholesky panel_width is 0: a panel has no columns"
        );
    }

    /// Total matrix order.
    pub fn n(&self) -> usize {
        self.subassemblies * self.grid * self.grid + self.iface
    }

    fn block_n(&self) -> usize {
        self.grid * self.grid
    }

    fn block_panels(&self) -> usize {
        self.block_n().div_ceil(self.panel_width)
    }

    fn iface_panels(&self) -> usize {
        self.iface.div_ceil(self.panel_width)
    }

    /// Total panel count (sub-assembly panels, then interface panels).
    pub fn panels(&self) -> usize {
        self.subassemblies * self.block_panels() + self.iface_panels()
    }

    /// External-update reach within a sub-assembly (in panels).
    fn span(&self) -> usize {
        self.grid.div_ceil(self.panel_width)
    }

    /// External-update reach within the interface (in panels).
    fn iface_span(&self) -> usize {
        self.iface.saturating_sub(1).div_ceil(self.panel_width)
    }
}

/// A panel: `cols` consecutive columns of one band block, each stored as a
/// segment of `band + 1` entries (`seg[d]` = element (row `j + d`, col `j`)
/// in block-local numbering).
#[derive(Clone, Debug, Default)]
pub struct Panel {
    /// First column in block-local numbering.
    pub first_col: usize,
    pub cols: usize,
    pub band: usize,
    /// Order of the block this panel belongs to (clamps segments).
    pub block_n: usize,
    /// Column-major: `data[c * (band + 1) + d]`.
    pub data: Vec<f64>,
}

impl Panel {
    fn new(first_col: usize, cols: usize, band: usize, block_n: usize) -> Panel {
        Panel {
            first_col,
            cols,
            band,
            block_n,
            data: vec![0.0; cols * (band + 1)],
        }
    }

    #[inline]
    pub fn seg(&self, local_col: usize) -> &[f64] {
        &self.data[local_col * (self.band + 1)..(local_col + 1) * (self.band + 1)]
    }

    #[inline]
    pub fn seg_mut(&mut self, local_col: usize) -> &mut [f64] {
        &mut self.data[local_col * (self.band + 1)..(local_col + 1) * (self.band + 1)]
    }

    /// Fill with the sub-assembly stiffness values (5-point grid matrix).
    fn fill_stiffness(&mut self, grid: usize) {
        let (band, n, j0) = (self.band, self.block_n, self.first_col);
        for c in 0..self.cols {
            let j = j0 + c;
            let seg = self.seg_mut(c);
            seg.iter_mut().for_each(|x| *x = 0.0);
            let (r, col) = (j / grid, j % grid);
            seg[0] = 4.0;
            if col + 1 < grid && j + 1 < n {
                seg[1] = -1.0;
            }
            if r + 1 < grid && j + band < n {
                seg[band] = -1.0;
            }
        }
    }

    /// Fill with the interface block's base values (a well-conditioned
    /// band matrix; sub-assembly contributions are added by join tasks).
    fn fill_interface(&mut self) {
        let (band, n, j0) = (self.band, self.block_n, self.first_col);
        for c in 0..self.cols {
            let j = j0 + c;
            let seg = self.seg_mut(c);
            seg.iter_mut().for_each(|x| *x = 0.0);
            seg[0] = 8.0;
            let lim = band.min(n - 1 - j);
            for (d, x) in seg.iter_mut().enumerate().take(lim + 1).skip(1) {
                *x = -1.0 / (1.0 + d as f64);
            }
        }
    }
}

/// `cmod`: apply factored column `src` (offset `o` above `j2`) to `dst`.
#[inline]
fn cmod(dst: &mut [f64], src: &[f64], o: usize, band: usize, block_n: usize, j2: usize) -> u64 {
    let ljo = src[o];
    if ljo == 0.0 {
        return 0; // sparsity: nothing to propagate
    }
    let lim = (band - o).min(block_n - 1 - j2);
    for (d2, x) in dst.iter_mut().enumerate().take(lim + 1) {
        *x -= ljo * src[o + d2];
    }
    (lim + 1) as u64 * 2
}

/// `cdiv`: finalize column `j` (block-local) of the factor.
#[inline]
fn cdiv(seg: &mut [f64], band: usize, block_n: usize, j: usize) -> u64 {
    let pivot = seg[0];
    assert!(pivot > 0.0, "matrix not positive definite at column {j}");
    let sq = pivot.sqrt();
    seg[0] = sq;
    let lim = band.min(block_n - 1 - j);
    for x in &mut seg[1..=lim] {
        *x /= sq;
    }
    lim as u64 + 8
}

/// Internal update: factor panel `p` in place (right-looking within the
/// panel). Returns flops.
pub fn internal_update(p: &mut Panel) -> u64 {
    let (band, bn) = (p.band, p.block_n);
    let mut flops = 0;
    for c in 0..p.cols {
        let j = p.first_col + c;
        flops += cdiv(p.seg_mut(c), band, bn, j);
        let (done, rest) = p.data.split_at_mut((c + 1) * (band + 1));
        let src = &done[c * (band + 1)..];
        for c2 in (c + 1)..p.cols {
            let o = c2 - c;
            if o > band {
                break;
            }
            let j2 = p.first_col + c2;
            let dst = &mut rest[(c2 - c - 1) * (band + 1)..(c2 - c) * (band + 1)];
            flops += cmod(dst, src, o, band, bn, j2);
        }
    }
    flops
}

/// External update: apply factored panel `src` to `dst` (same block).
pub fn external_update(dst: &mut Panel, src: &Panel) -> u64 {
    let (band, bn) = (dst.band, dst.block_n);
    let mut flops = 0;
    for c in 0..src.cols {
        let j = src.first_col + c;
        for c2 in 0..dst.cols {
            let j2 = dst.first_col + c2;
            if j2 <= j || j2 - j > band {
                continue;
            }
            flops += cmod(dst.seg_mut(c2), src.seg(c), j2 - j, band, bn, j2);
        }
    }
    flops
}

/// Interface join: add a sub-assembly's (synthetic, diagonal) contribution
/// to an interface panel. The contribution is derived deterministically
/// from the factored source panel and keeps the interface SPD. Returns
/// flops (proportional to the data touched).
pub fn join_update(dst: &mut Panel, src: &Panel) -> u64 {
    let mut flops = 0;
    for c in 0..dst.cols {
        let sc = c % src.cols;
        let contrib: f64 = src.seg(sc).iter().map(|x| x.abs()).sum::<f64>();
        let seg = dst.seg_mut(c);
        seg[0] += 1e-3 * (1.0 + contrib);
        flops += (src.band + 1) as u64 * 2;
    }
    flops
}

/// Final numeric results.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CholeskyOutput {
    /// `log(det) = 2 Σ log L[j][j]` over every block and the interface.
    pub log_det: f64,
    /// Order-sensitive checksum of the whole factor.
    pub factor_checksum: f64,
}

pub struct CholeskyHandles {
    pub result: Handle<(f64, f64)>,
}

/// Description of one panel's place in the global structure.
#[derive(Clone, Copy, Debug)]
struct PanelMeta {
    /// Sub-assembly index, or `usize::MAX` for interface panels.
    block: usize,
    first_col: usize,
    cols: usize,
    band: usize,
    block_n: usize,
}

fn panel_metas(cfg: &CholeskyConfig) -> Vec<PanelMeta> {
    let mut metas = Vec::with_capacity(cfg.panels());
    let (bn, w) = (cfg.block_n(), cfg.panel_width);
    for b in 0..cfg.subassemblies {
        for k in 0..cfg.block_panels() {
            let first = k * w;
            metas.push(PanelMeta {
                block: b,
                first_col: first,
                cols: w.min(bn - first),
                band: cfg.grid,
                block_n: bn,
            });
        }
    }
    let iband = cfg.iface.saturating_sub(1).max(1);
    for k in 0..cfg.iface_panels() {
        let first = k * w;
        metas.push(PanelMeta {
            block: usize::MAX,
            first_col: first,
            cols: w.min(cfg.iface - first),
            band: iband,
            block_n: cfg.iface,
        });
    }
    metas
}

/// Build and submit the whole Panel Cholesky program on any Jade runtime.
pub fn build<R: JadeRuntime>(rt: &mut R, cfg: &CholeskyConfig) -> CholeskyHandles {
    cfg.check();
    let metas = panel_metas(cfg);
    let ring = worker_ring(cfg.procs);
    let panels: Vec<Handle<Panel>> = metas
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let h = rt.create(
                &format!("panel[{i}]"),
                8 * (m.band + 1) * m.cols * FRONT_FILL,
                Panel::new(m.first_col, m.cols, m.band, m.block_n),
            );
            // A cache-coherent machine only moves the band data the update
            // kernels actually touch, not the dense front representation.
            rt.store_mut()
                .set_cache_bytes(h.id(), 8 * (m.band + 1) * m.cols);
            rt.set_home(h, ring[i % ring.len()]);
            h
        })
        .collect();
    let result = rt.create("result", 16, (0.0f64, 0.0f64));
    rt.set_home(result, 0);
    // Factorization parameters (panel map, elimination structure): read by
    // every task — the widely-read object Section 5.1 relies on.
    let params = rt.create("chol-params", 2048, (cfg.panel_width, cfg.grid));
    rt.set_home(params, 0);

    // Serial initialization on the main processor: writes every panel, so
    // the main processor owns them all when the factorization starts.
    {
        let panels = panels.clone();
        let metas2 = metas.clone();
        let grid = cfg.grid;
        let mut tb = TaskBuilder::new("init");
        for &h in &panels {
            tb = tb.wr(h);
        }
        rt.submit(tb.serial_phase().body(move |ctx| {
            for (&h, m) in panels.iter().zip(&metas2) {
                let mut p = ctx.wr(h);
                if m.block == usize::MAX {
                    p.fill_interface();
                } else {
                    p.fill_stiffness(grid);
                }
            }
            // The paper's timing omits initialization; charge nothing.
        }));
    }
    rt.begin_phase();

    let bp = cfg.block_panels();
    let span = cfg.span();
    let iface_base = cfg.subassemblies * bp;
    // Sub-assembly factorization: parallel elimination subtrees.
    for b in 0..cfg.subassemblies {
        for k in 0..bp {
            let gk = b * bp + k;
            let kh = panels[gk];
            rt.submit(
                TaskBuilder::new("internal")
                    .rd_wr(kh)
                    .rd(params)
                    .place(ring[gk % ring.len()])
                    .body(move |ctx| {
                        let _ = ctx.rd(params);
                        let flops = internal_update(&mut ctx.wr(kh));
                        ctx.charge(flops as f64);
                    }),
            );
            for p in (k + 1)..bp.min(k + span + 1) {
                let gp = b * bp + p;
                let ph = panels[gp];
                rt.submit(
                    TaskBuilder::new("external")
                        .rd_wr(ph)
                        .rd(kh)
                        .rd(params)
                        .place(ring[gp % ring.len()])
                        .body(move |ctx| {
                            let _ = ctx.rd(params);
                            let src = ctx.rd(kh);
                            let flops = external_update(&mut ctx.wr(ph), &src);
                            ctx.charge(flops as f64);
                        }),
                );
            }
        }
        // Join: this sub-assembly's root panel contributes to every
        // interface panel.
        let root = panels[b * bp + bp - 1];
        for ip in 0..cfg.iface_panels() {
            let gp = iface_base + ip;
            let ph = panels[gp];
            rt.submit(
                TaskBuilder::new("join")
                    .rd_wr(ph)
                    .rd(root)
                    .place(ring[gp % ring.len()])
                    .body(move |ctx| {
                        let src = ctx.rd(root);
                        let flops = join_update(&mut ctx.wr(ph), &src);
                        ctx.charge(flops as f64);
                    }),
            );
        }
    }
    // Interface factorization: the serial root of the elimination tree.
    let ispan = cfg.iface_span();
    for k in 0..cfg.iface_panels() {
        let gk = iface_base + k;
        let kh = panels[gk];
        rt.submit(
            TaskBuilder::new("internal")
                .rd_wr(kh)
                .place(ring[gk % ring.len()])
                .body(move |ctx| {
                    let flops = internal_update(&mut ctx.wr(kh));
                    ctx.charge(flops as f64);
                }),
        );
        for p in (k + 1)..cfg.iface_panels().min(k + ispan + 1) {
            let gp = iface_base + p;
            let ph = panels[gp];
            rt.submit(
                TaskBuilder::new("external")
                    .rd_wr(ph)
                    .rd(kh)
                    .place(ring[gp % ring.len()])
                    .body(move |ctx| {
                        let src = ctx.rd(kh);
                        let flops = external_update(&mut ctx.wr(ph), &src);
                        ctx.charge(flops as f64);
                    }),
            );
        }
    }

    // Serial gather: log-determinant and checksum of the whole factor,
    // folded panel by panel where the panels lie.
    {
        let panels = panels.clone();
        let mut tb = TaskBuilder::new("gather").wr(result);
        for &h in &panels {
            tb = tb.rd(h);
        }
        rt.submit(tb.serial_phase().body(move |ctx| {
            let mut logdet = 0.0;
            let mut sum = Checksum::new();
            for &h in &panels {
                let p = ctx.rd(h);
                for c in 0..p.cols {
                    logdet += 2.0 * p.seg(c)[0].ln();
                }
                sum.extend(p.data.iter().copied());
            }
            *ctx.wr(result) = (logdet, sum.value());
        }));
    }
    CholeskyHandles { result }
}

pub fn output<R: JadeRuntime>(rt: &R, h: &CholeskyHandles) -> CholeskyOutput {
    let (log_det, factor_checksum) = *rt.store().read(h.result);
    CholeskyOutput {
        log_det,
        factor_checksum,
    }
}

pub fn run_on<R: JadeRuntime>(rt: &mut R, cfg: &CholeskyConfig) -> CholeskyOutput {
    let h = build(rt, cfg);
    rt.finish();
    output(rt, &h)
}

pub fn run_trace(cfg: &CholeskyConfig) -> (Trace, CholeskyOutput) {
    let mut rt = TraceRuntime::new();
    let h = build(&mut rt, cfg);
    rt.finish();
    let out = output(&rt, &h);
    let (_, trace) = rt.into_parts();
    (trace, out)
}

/// Plain serial reference: factor every sub-assembly with right-looking
/// band Cholesky, apply the interface joins, factor the interface.
/// Bit-identical to the panel decomposition (same `cmod`/`cdiv` order).
pub fn reference(cfg: &CholeskyConfig) -> (CholeskyOutput, f64) {
    cfg.check();
    let mut flops = 0u64;
    let mut logdet = 0.0;
    let mut all = Vec::new();
    // Factor a full block stored as panels so the evaluation order (and the
    // checksum layout) matches the Jade version exactly. Returns the panels
    // and the flop count.
    fn factor_block(mut panels: Vec<Panel>, span: usize) -> (Vec<Panel>, u64) {
        let np = panels.len();
        let mut flops = 0;
        for k in 0..np {
            let (head, tail) = panels.split_at_mut(k + 1);
            let pk = &mut head[k];
            flops += internal_update(pk);
            for dst in tail.iter_mut().take(span.min(np - k - 1)) {
                flops += external_update(dst, pk);
            }
        }
        (panels, flops)
    }
    let (bn, w) = (cfg.block_n(), cfg.panel_width);
    let mut roots = Vec::new();
    let mut blocks_out = Vec::new();
    for _b in 0..cfg.subassemblies {
        let mut ps = Vec::new();
        for k in 0..cfg.block_panels() {
            let first = k * w;
            let mut p = Panel::new(first, w.min(bn - first), cfg.grid, bn);
            p.fill_stiffness(cfg.grid);
            ps.push(p);
        }
        let (ps, f) = factor_block(ps, cfg.span());
        flops += f;
        roots.push(ps.last().expect("non-empty block").clone());
        blocks_out.push(ps);
    }
    // Interface: base values + joins from every sub-assembly root.
    let iband = cfg.iface.saturating_sub(1).max(1);
    let mut ifp = Vec::new();
    for k in 0..cfg.iface_panels() {
        let first = k * w;
        let mut p = Panel::new(first, w.min(cfg.iface - first), iband, cfg.iface);
        p.fill_interface();
        ifp.push(p);
    }
    for root in &roots {
        for p in ifp.iter_mut() {
            flops += join_update(p, root);
        }
    }
    let (ifp, f) = factor_block(ifp, cfg.iface_span());
    flops += f;
    for ps in blocks_out.iter().chain(std::iter::once(&ifp)) {
        for p in ps {
            for c in 0..p.cols {
                logdet += 2.0 * p.seg(c)[0].ln();
            }
            all.extend(p.data.iter().copied());
        }
    }
    (
        CholeskyOutput {
            log_det: logdet,
            factor_checksum: checksum(all.iter().copied()),
        },
        flops as f64,
    )
}

/// Verify `L Lᵀ = A` for one sub-assembly (test helper): maximum absolute
/// reconstruction error of the band factorization.
pub fn reconstruction_error(cfg: &CholeskyConfig) -> f64 {
    let (n, band, grid) = (cfg.block_n(), cfg.grid, cfg.grid);
    let stride = band + 1;
    let mut a = vec![0.0f64; n * stride];
    for j in 0..n {
        let (r, col) = (j / grid, j % grid);
        a[j * stride] = 4.0;
        if col + 1 < grid && j + 1 < n {
            a[j * stride + 1] = -1.0;
        }
        if r + 1 < grid && j + band < n {
            a[j * stride + band] = -1.0;
        }
    }
    let orig = a.clone();
    for j in 0..n {
        let (before, rest) = a.split_at_mut((j + 1) * stride);
        let seg = &mut before[j * stride..];
        cdiv(seg, band, n, j);
        for j2 in (j + 1)..n.min(j + band + 1) {
            let dst = &mut rest[(j2 - j - 1) * stride..(j2 - j) * stride];
            cmod(dst, seg, j2 - j, band, n, j2);
        }
    }
    let l = |row: usize, col: usize| -> f64 {
        if row < col || row - col > band || row >= n {
            0.0
        } else {
            a[col * stride + (row - col)]
        }
    };
    let mut max_err = 0.0f64;
    for j in 0..n {
        for d in 0..=band.min(n - 1 - j) {
            let row = j + d;
            let mut sum = 0.0;
            for k in row.saturating_sub(band)..=j {
                sum += l(row, k) * l(j, k);
            }
            max_err = max_err.max((sum - orig[j * stride + d]).abs());
        }
    }
    max_err
}

/// Number of tasks the Jade version creates.
pub fn expected_tasks(cfg: &CholeskyConfig) -> usize {
    let bp = cfg.block_panels();
    let span = cfg.span();
    let ext_per_block: usize = (0..bp).map(|k| bp.min(k + span + 1) - (k + 1)).sum();
    let ifp = cfg.iface_panels();
    let ispan = cfg.iface_span();
    let iface_ext: usize = (0..ifp).map(|k| ifp.min(k + ispan + 1) - (k + 1)).sum();
    // init + per-block (internals + externals + joins) + interface + gather
    2 + cfg.subassemblies * (bp + ext_per_block + ifp) + ifp + iface_ext
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorization_is_correct() {
        let err = reconstruction_error(&CholeskyConfig::small(1));
        assert!(err < 1e-10, "LL^T reconstruction error {err}");
    }

    #[test]
    fn trace_matches_reference_exactly() {
        let (ref_out, ref_flops) = reference(&CholeskyConfig::small(1));
        for procs in [1usize, 2, 4] {
            let cfg = CholeskyConfig::small(procs);
            let (trace, out) = run_trace(&cfg);
            assert_eq!(out, ref_out, "procs={procs}");
            assert_eq!(trace.task_count(), expected_tasks(&cfg));
            assert!(trace.validate().is_empty());
            let charged: f64 = trace.tasks.iter().map(|t| t.work).sum();
            assert!(
                (charged - ref_flops).abs() < 1e-6,
                "{charged} vs {ref_flops}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cholesky grid is 0")]
    fn a_grid_without_columns_is_refused() {
        run_trace(&CholeskyConfig {
            grid: 0,
            ..CholeskyConfig::small(2)
        });
    }

    #[test]
    #[should_panic(expected = "cholesky panel_width is 0")]
    fn a_panel_without_columns_is_refused() {
        reference(&CholeskyConfig {
            panel_width: 0,
            ..CholeskyConfig::small(2)
        });
    }

    #[test]
    fn log_det_is_finite() {
        let (out, _) = reference(&CholeskyConfig::small(1));
        assert!(out.log_det.is_finite());
    }

    #[test]
    fn paper_scale_structure() {
        let cfg = CholeskyConfig::paper(8);
        assert_eq!(cfg.n(), 3935);
        let tasks = expected_tasks(&cfg);
        assert!(
            (2500..8000).contains(&tasks),
            "task count {tasks} should be a few thousand"
        );
    }

    #[test]
    fn subassemblies_are_independent() {
        // Tasks of different sub-assemblies never conflict: the elimination
        // subtrees factor in parallel.
        let cfg = CholeskyConfig::small(3);
        let (trace, _) = run_trace(&cfg);
        let bp = cfg.block_panels();
        let block_of = |t: &jade_core::TaskRecord| {
            t.spec
                .locality_object()
                .map(|o| o.index() / bp)
                .unwrap_or(usize::MAX)
        };
        let b0: Vec<_> = trace
            .tasks
            .iter()
            .filter(|t| !t.serial_phase && t.label != "join" && block_of(t) == 0)
            .collect();
        let b1: Vec<_> = trace
            .tasks
            .iter()
            .filter(|t| !t.serial_phase && t.label != "join" && block_of(t) == 1)
            .collect();
        assert!(!b0.is_empty() && !b1.is_empty());
        for x in &b0 {
            for y in &b1 {
                assert!(!x.spec.conflicts_with(&y.spec));
            }
        }
    }

    #[test]
    fn locality_object_is_updated_panel() {
        let cfg = CholeskyConfig::small(3);
        let (trace, _) = run_trace(&cfg);
        for t in trace
            .tasks
            .iter()
            .filter(|t| t.label == "external" || t.label == "join")
        {
            let lo = t.spec.locality_object().unwrap();
            assert!(t.spec.written_objects().any(|o| o == lo));
        }
    }

    #[test]
    fn placements_omit_main() {
        let cfg = CholeskyConfig::small(4);
        let (trace, _) = run_trace(&cfg);
        for t in trace.tasks.iter().filter(|t| !t.serial_phase) {
            let p = t.placement.expect("panel tasks are placed");
            assert!((1..4).contains(&p));
        }
    }

    #[test]
    fn init_task_writes_all_panels() {
        let cfg = CholeskyConfig::small(2);
        let (trace, _) = run_trace(&cfg);
        let init = &trace.tasks[0];
        assert!(init.serial_phase);
        assert_eq!(init.spec.written_objects().count(), cfg.panels());
    }
}
