//! **String**: computes a velocity model of the geology between two oil
//! wells by tomographic inversion (paper Section 4, citing Harris et al.).
//!
//! The paper's data set is a proprietary West-Texas oil field image; we
//! substitute a synthetic layered-geology velocity model with embedded
//! anomalies, at the paper's exact discretization: a **185 ft × 450 ft
//! image at 1 ft × 1 ft resolution**, and the paper's exact shared-object
//! size for the model (383,528 bytes). The code path is the application's:
//! parallel phases trace rays through the discretized model, compute the
//! difference between simulated and observed travel times, and backproject
//! the difference linearly along the ray into an explicitly replicated
//! difference array; each serial phase reduces the replicated arrays and
//! updates the velocity model. Six iterations, one parallel phase each.

use crate::common::{checksum, creation_order};
use jade_core::{Handle, JadeRuntime, TaskBuilder, Trace, TraceRuntime};
use std::sync::Arc;

/// Paper-measured execution times used for calibration (Tables 1 and 6).
pub mod calib {
    pub const DASH_SERIAL_S: f64 = 20594.50;
    pub const DASH_STRIPPED_S: f64 = 19314.80;
    pub const IPSC_SERIAL_S: f64 = 20270.45;
    pub const IPSC_STRIPPED_S: f64 = 19629.42;
}

/// Cost (abstract operations) per ray-cell traversal step.
const C_STEP: f64 = 1.0;
/// Cost per backprojected cell.
const C_BP: f64 = 0.5;
/// Cost per model cell in the serial update. One abstract operation is a
/// full ray-tracing step (hundreds of flops); the serial phase's array
/// arithmetic is charged at its much smaller flop-equivalent so the serial
/// fraction matches the paper's near-linear String speedups.
const C_MODEL: f64 = 0.01;
/// Cost per reduced difference-array element (one add), in ray-step units.
const C_RED: f64 = 0.002;
/// Relaxation factor of the inversion.
const RELAX: f64 = 0.7;

/// Workload configuration.
#[derive(Clone, Debug)]
pub struct StringConfig {
    /// Horizontal extent (ft / cells) — distance between the wells.
    pub nx: usize,
    /// Vertical extent (ft / cells) — imaged depth interval.
    pub nz: usize,
    /// Source spacing (ft) in the left well.
    pub src_spacing: usize,
    /// Receiver spacing (ft) in the right well.
    pub rcv_spacing: usize,
    pub iterations: usize,
    pub procs: usize,
}

impl StringConfig {
    /// The paper's discretization: 185 ft × 450 ft at 1 ft resolution,
    /// six iterations.
    pub fn paper(procs: usize) -> StringConfig {
        StringConfig {
            nx: 185,
            nz: 450,
            src_spacing: 10,
            rcv_spacing: 5,
            iterations: 6,
            procs,
        }
    }

    pub fn small(procs: usize) -> StringConfig {
        StringConfig {
            nx: 24,
            nz: 40,
            src_spacing: 8,
            rcv_spacing: 8,
            iterations: 2,
            procs,
        }
    }

    pub fn cells(&self) -> usize {
        self.nx * self.nz
    }

    /// Refuse a shape with no cells or no rays, naming the field.
    fn check(&self) {
        assert!(self.nx > 0, "string nx is 0: no columns between the wells");
        assert!(self.src_spacing > 0, "string src_spacing is 0");
        assert!(self.rcv_spacing > 0, "string rcv_spacing is 0");
        let (nz, s, r) = (self.nz, self.src_spacing, self.rcv_spacing);
        assert!(nz >= s, "string nz {nz} < src_spacing {s}: no sources");
        assert!(nz >= r, "string nz {nz} < rcv_spacing {r}: no receivers");
    }

    fn sources(&self) -> Vec<f64> {
        (0..self.nz / self.src_spacing)
            .map(|i| (i * self.src_spacing) as f64 + 0.5)
            .collect()
    }

    fn receivers(&self) -> Vec<f64> {
        (0..self.nz / self.rcv_spacing)
            .map(|i| (i * self.rcv_spacing) as f64 + 0.5)
            .collect()
    }

    /// All (source depth, receiver depth) ray pairs.
    pub fn rays(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        for &s in &self.sources() {
            for &r in &self.receivers() {
                out.push((s, r));
            }
        }
        out
    }
}

/// The synthetic "true" geology: slowness (s/ft) with depth-dependent
/// layering and two smooth anomalies.
pub fn true_model(cfg: &StringConfig) -> Vec<f64> {
    let (nx, nz) = (cfg.nx, cfg.nz);
    let mut m = vec![0.0; nx * nz];
    for iz in 0..nz {
        for ix in 0..nx {
            let z = iz as f64 / nz as f64;
            let x = ix as f64 / nx as f64;
            // Velocity increases with depth (1800..3000 ft/s) with layers.
            let v = 1800.0 + 1200.0 * z + 150.0 * (z * 40.0).sin();
            // Two anomalies: one fast lens, one slow pocket.
            let a1 = (-((x - 0.3) * (x - 0.3) / 0.01 + (z - 0.4) * (z - 0.4) / 0.005)).exp();
            let a2 = (-((x - 0.7) * (x - 0.7) / 0.02 + (z - 0.7) * (z - 0.7) / 0.004)).exp();
            let v = v * (1.0 + 0.12 * a1 - 0.10 * a2);
            m[iz * nx + ix] = 1.0 / v;
        }
    }
    m
}

/// Trace a straight ray from (0, z0) to (nx, z1), visiting every crossed
/// cell with its in-cell path length. Returns the accumulated travel time
/// through `model` (slowness per cell).
pub fn trace_ray(
    model: &[f64],
    nx: usize,
    nz: usize,
    z0: f64,
    z1: f64,
    mut visit: impl FnMut(usize, f64),
) -> f64 {
    let dz_total = z1 - z0;
    let per_x = dz_total / nx as f64;
    // Length of the ray within one x-column.
    let col_len = (1.0 + per_x * per_x).sqrt();
    let mut time = 0.0;
    for ix in 0..nx {
        let za = z0 + per_x * ix as f64;
        let zb = za + per_x;
        let (mut lo, mut hi) = if za <= zb { (za, zb) } else { (zb, za) };
        lo = lo.clamp(0.0, nz as f64 - 1e-9);
        hi = hi.clamp(0.0, nz as f64 - 1e-9);
        let iz_lo = lo as usize;
        let iz_hi = hi as usize;
        if iz_lo == iz_hi {
            let idx = iz_lo * nx + ix;
            time += model[idx] * col_len;
            visit(idx, col_len);
        } else {
            let span = hi - lo;
            for iz in iz_lo..=iz_hi.min(nz - 1) {
                let cell_lo = (iz as f64).max(lo);
                let cell_hi = ((iz + 1) as f64).min(hi);
                if cell_hi <= cell_lo {
                    continue;
                }
                let frac = (cell_hi - cell_lo) / span;
                let len = col_len * frac;
                let idx = iz * nx + ix;
                time += model[idx] * len;
                visit(idx, len);
            }
        }
    }
    time
}

/// Observed travel times computed from the true model.
pub fn observations(cfg: &StringConfig) -> Vec<f64> {
    let truth = true_model(cfg);
    cfg.rays()
        .iter()
        .map(|&(s, r)| trace_ray(&truth, cfg.nx, cfg.nz, s, r, |_, _| {}))
        .collect()
}

/// Every ray's path, traced once per program: which cells `trace_ray`
/// visits, and the length it spends in each, depend only on the grid and
/// the ray's end points, never on the model it reads.
struct Paths {
    /// Ray `r` visits `cells[starts[r]..starts[r + 1]]` in order, with the
    /// in-cell lengths at the same positions of `lens`.
    starts: Vec<usize>,
    cells: Vec<u32>,
    lens: Vec<f64>,
    /// Each ray's length: its `lens` summed in order.
    total_len: Vec<f64>,
}

impl Paths {
    /// Trace `rays` through `model`: their paths, and their travel times.
    fn trace(model: &[f64], nx: usize, nz: usize, rays: &[(f64, f64)]) -> (Paths, Vec<f64>) {
        assert!(
            u32::try_from(nx * nz).is_ok(),
            "string grid of {nx} x {nz} cells is too large"
        );
        // A straight ray crosses about one cell per column and one more per
        // row boundary. Room for that many is never copied as the paths
        // grow, and the pages of it that go unused are never touched.
        let visits = rays.len() * (nx + nz);
        let mut p = Paths {
            starts: vec![0],
            cells: Vec::with_capacity(visits),
            lens: Vec::with_capacity(visits),
            total_len: Vec::with_capacity(rays.len()),
        };
        let mut times = Vec::with_capacity(rays.len());
        for &(z0, z1) in rays {
            times.push(trace_ray(model, nx, nz, z0, z1, |idx, len| {
                p.cells.push(idx as u32);
                p.lens.push(len);
            }));
            let start = p.starts[p.starts.len() - 1];
            p.total_len.push(p.lens[start..].iter().sum());
            p.starts.push(p.cells.len());
        }
        (p, times)
    }

    fn rays(&self) -> usize {
        self.total_len.len()
    }

    fn ray(&self, r: usize) -> (&[u32], &[f64]) {
        let (a, b) = (self.starts[r], self.starts[r + 1]);
        (&self.cells[a..b], &self.lens[a..b])
    }

    /// Ray `r`'s travel time through `model`, summed as `trace_ray` sums it.
    fn time(&self, r: usize, model: &[f64]) -> f64 {
        let (cells, lens) = self.ray(r);
        let mut time = 0.0;
        for (&c, &len) in cells.iter().zip(lens) {
            time += model[c as usize] * len;
        }
        time
    }
}

/// A trace task's work: predict rays `t, t + procs, ...` through `model`
/// and backproject each one's misfit along its path into `sum`, which it
/// zeroes first. Returns the squared misfit and the number of cell visits.
fn trace_rays(
    paths: &Paths,
    obs: &[f64],
    model: &[f64],
    t: usize,
    procs: usize,
    sum: &mut [f64],
) -> (f64, u64) {
    sum.fill(0.0);
    let mut bp = Vec::new();
    let mut sq = 0.0;
    let mut steps = 0u64;
    for ri in (t..paths.rays()).step_by(procs) {
        let (cells, lens) = paths.ray(ri);
        let dt = obs[ri] - paths.time(ri, model);
        sq += dt * dt;
        // No quotient reads `sum`, so they are formed apart from the
        // scatter, where the division vectorises.
        let total_len = paths.total_len[ri];
        bp.clear();
        bp.extend(lens.iter().map(|&len| dt * len / total_len));
        for (&c, &b) in cells.iter().zip(&bp) {
            sum[c as usize] += b;
        }
        steps += cells.len() as u64;
    }
    (sq, steps)
}

/// The update's per-cell weights, the total length of ray in each cell.
/// They read no model, so they are reduced once per program, in the order
/// an update would reduce per-task weights: task `t`'s rays in ascending
/// order into a partial sum from `0.0`, then the partials in task order.
fn weights(paths: &Paths, cells: usize, procs: usize) -> Vec<f64> {
    let mut wt = vec![0.0f64; cells];
    let mut part = vec![0.0f64; cells];
    for t in 0..procs {
        part.fill(0.0);
        for ri in (t..paths.rays()).step_by(procs) {
            let (cs, lens) = paths.ray(ri);
            for (&c, &len) in cs.iter().zip(lens) {
                part[c as usize] += len;
            }
        }
        for (w, &p) in wt.iter_mut().zip(&part) {
            *w += p;
        }
    }
    wt
}

/// Final numeric results.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StringOutput {
    /// RMS travel-time misfit after the final iteration.
    pub rms_misfit: f64,
    /// Order-sensitive checksum of the final model.
    pub model_checksum: f64,
}

pub struct StringHandles {
    pub model: Handle<Vec<f64>>,
    pub misfit: Handle<f64>,
}

/// Build and submit the whole String program on any Jade runtime.
pub fn build<R: JadeRuntime>(rt: &mut R, cfg: &StringConfig) -> StringHandles {
    cfg.check();
    let procs = cfg.procs.max(1);
    let cells = cfg.cells();
    let rays = cfg.rays();
    let (nx, nz) = (cfg.nx, cfg.nz);
    // Each ray's travel time through the true model is its observation.
    let (paths, obs) = Paths::trace(&true_model(cfg), nx, nz, &rays);
    let wt: Arc<[f64]> = weights(&paths, cells, procs).into();

    // Starting model: uniform slowness at the mean background velocity.
    let start = vec![1.0 / 2400.0; cells];
    // The paper's model object is 383,528 bytes; reproduce the exact
    // communication size at full scale, and scale proportionally otherwise.
    let model_bytes = if (nx, nz) == (185, 450) {
        383_528
    } else {
        cells * 4 + 1000
    };
    let model = rt.create("model", model_bytes, start);
    rt.set_home(model, 0);
    let params = rt.create("ray-params", 4096, (paths, obs));
    rt.set_home(params, 0);
    let diffs: Vec<Handle<Vec<f64>>> = (0..procs)
        .map(|t| {
            let h = rt.create(&format!("diff[{t}]"), model_bytes, vec![0.0; cells]);
            rt.set_home(h, t);
            h
        })
        .collect();
    let misfits: Vec<Handle<f64>> = (0..procs)
        .map(|t| {
            let h = rt.create(&format!("misfit[{t}]"), 8, 0.0f64);
            rt.set_home(h, t);
            h
        })
        .collect();
    let misfit = rt.create("misfit", 8, 0.0f64);
    rt.set_home(misfit, 0);

    let order = creation_order(procs);
    for _ in 0..cfg.iterations {
        // ---- Parallel phase: trace a group of rays per task,
        // backprojecting into the task's own replicated difference array.
        rt.begin_phase();
        for &t in &order {
            let dh = diffs[t];
            let mh = misfits[t];
            let nprocs = procs;
            rt.submit(
                TaskBuilder::new("trace-rays")
                    .wr(dh)
                    .rd(model)
                    .rd(params)
                    .wr(mh)
                    .body(move |ctx| {
                        let m = ctx.rd(model);
                        let p = ctx.rd(params);
                        let (paths, obs) = &*p;
                        let (sq, steps) = trace_rays(paths, obs, &m, t, nprocs, &mut ctx.wr(dh));
                        *ctx.wr(mh) = sq;
                        ctx.charge(steps as f64 * (C_STEP + C_BP));
                    }),
            );
        }
        // ---- Serial phase: reduce difference arrays, update the model.
        rt.begin_phase();
        {
            let diffs = diffs.clone();
            let misfits = misfits.clone();
            let mut b = TaskBuilder::new("update-model").wr(model).wr(misfit);
            for &dh in &diffs {
                b = b.rd(dh);
            }
            for &mh in &misfits {
                b = b.rd(mh);
            }
            let nrays = rays.len() as f64;
            let wt = Arc::clone(&wt);
            rt.submit(b.serial_phase().body(move |ctx| {
                let mut m = ctx.wr(model);
                let cells = m.len();
                let mut sum = vec![0.0f64; cells];
                for &dh in &diffs {
                    for (s, &d) in sum.iter_mut().zip(ctx.rd(dh).iter()) {
                        *s += d;
                    }
                }
                for i in 0..cells {
                    if wt[i] > 0.0 {
                        m[i] += RELAX * sum[i] / wt[i];
                    }
                }
                let sq: f64 = misfits.iter().map(|&mh| *ctx.rd(mh)).sum();
                *ctx.wr(misfit) = (sq / nrays).sqrt();
                ctx.charge(cells as f64 * C_MODEL + (diffs.len() * cells) as f64 * C_RED);
            }));
        }
    }
    StringHandles { model, misfit }
}

pub fn output<R: JadeRuntime>(rt: &R, h: &StringHandles) -> StringOutput {
    StringOutput {
        rms_misfit: *rt.store().read(h.misfit),
        model_checksum: checksum(rt.store().read(h.model).iter().copied()),
    }
}

pub fn run_on<R: JadeRuntime>(rt: &mut R, cfg: &StringConfig) -> StringOutput {
    let h = build(rt, cfg);
    rt.finish();
    output(rt, &h)
}

pub fn run_trace(cfg: &StringConfig) -> (Trace, StringOutput) {
    let mut rt = TraceRuntime::new();
    let h = build(&mut rt, cfg);
    rt.finish();
    let out = output(&rt, &h);
    let (_, trace) = rt.into_parts();
    (trace, out)
}

/// Plain serial reference implementation (no Jade, no replication).
pub fn reference(cfg: &StringConfig) -> (StringOutput, f64) {
    cfg.check();
    let cells = cfg.cells();
    let rays = cfg.rays();
    let obs = observations(cfg);
    let (nx, nz) = (cfg.nx, cfg.nz);
    let mut model = vec![1.0 / 2400.0; cells];
    let mut ops = 0.0;
    let mut rms = 0.0;
    for _ in 0..cfg.iterations {
        let mut sum = vec![0.0f64; cells];
        let mut wt = vec![0.0f64; cells];
        let mut sq = 0.0;
        for (ri, &(zs, zr)) in rays.iter().enumerate() {
            let mut path: Vec<(usize, f64)> = Vec::new();
            let t_pred = trace_ray(&model, nx, nz, zs, zr, |idx, len| path.push((idx, len)));
            let dt = obs[ri] - t_pred;
            sq += dt * dt;
            let total_len: f64 = path.iter().map(|&(_, l)| l).sum();
            for &(idx, len) in &path {
                sum[idx] += dt * len / total_len;
                wt[idx] += len;
            }
            ops += path.len() as f64 * (C_STEP + C_BP);
        }
        for i in 0..cells {
            if wt[i] > 0.0 {
                model[i] += RELAX * sum[i] / wt[i];
            }
        }
        ops += cells as f64 * C_MODEL + cells as f64 * C_RED; // one "copy"
        rms = (sq / rays.len() as f64).sqrt();
    }
    (
        StringOutput {
            rms_misfit: rms,
            model_checksum: checksum(model.iter().copied()),
        },
        ops,
    )
}

pub fn expected_tasks(cfg: &StringConfig) -> usize {
    cfg.iterations * (cfg.procs + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::SplitMix64;
    use proptest::prelude::*;

    #[test]
    fn ray_lengths_sum_to_ray_length() {
        // The per-cell path lengths of a ray must sum to its total length.
        let cfg = StringConfig::small(1);
        let model = vec![1.0; cfg.cells()];
        let mut total = 0.0;
        let t = trace_ray(&model, cfg.nx, cfg.nz, 3.5, 31.5, |_, l| total += l);
        let expect = ((cfg.nx * cfg.nx) as f64 + (31.5f64 - 3.5).powi(2)).sqrt();
        assert!((total - expect).abs() < 1e-9, "{total} vs {expect}");
        // Uniform unit slowness: time == length.
        assert!((t - expect).abs() < 1e-9);
    }

    #[test]
    fn horizontal_ray_crosses_one_row() {
        let cfg = StringConfig::small(1);
        let model = vec![2.0; cfg.cells()];
        let mut cells = Vec::new();
        let t = trace_ray(&model, cfg.nx, cfg.nz, 5.5, 5.5, |idx, l| {
            cells.push((idx, l))
        });
        assert_eq!(cells.len(), cfg.nx);
        assert!(cells.iter().all(|&(idx, _)| idx / cfg.nx == 5));
        assert!((t - 2.0 * cfg.nx as f64).abs() < 1e-9);
    }

    #[test]
    fn inversion_reduces_misfit() {
        let cfg = StringConfig::small(1);
        // Misfit of the uniform starting model:
        let truth_obs = observations(&cfg);
        let start = vec![1.0 / 2400.0; cfg.cells()];
        let mut sq0 = 0.0;
        for (&(s, r), &o) in cfg.rays().iter().zip(&truth_obs) {
            let t = trace_ray(&start, cfg.nx, cfg.nz, s, r, |_, _| {});
            sq0 += (o - t) * (o - t);
        }
        let rms0 = (sq0 / truth_obs.len() as f64).sqrt();
        let (out, _) = reference(&cfg);
        assert!(
            out.rms_misfit < rms0 * 0.5,
            "inversion should reduce misfit: {} -> {}",
            rms0,
            out.rms_misfit
        );
    }

    #[test]
    fn trace_matches_reference_single_proc() {
        let cfg = StringConfig::small(1);
        let (trace, out) = run_trace(&cfg);
        let (ref_out, ref_ops) = reference(&cfg);
        assert_eq!(out.rms_misfit, ref_out.rms_misfit);
        assert_eq!(out.model_checksum, ref_out.model_checksum);
        assert_eq!(trace.task_count(), expected_tasks(&cfg));
        assert!(ref_ops > 0.0);
    }

    #[test]
    fn multi_proc_close_to_reference() {
        let cfg = StringConfig::small(3);
        let (trace, out) = run_trace(&cfg);
        let (ref_out, _) = reference(&cfg);
        let rel = (out.rms_misfit - ref_out.rms_misfit).abs() / ref_out.rms_misfit.max(1e-12);
        assert!(rel < 1e-6, "rel {rel}");
        assert!(trace.validate().is_empty());
    }

    #[test]
    fn paper_scale_object_size() {
        let cfg = StringConfig::paper(2);
        let mut rt = TraceRuntime::new();
        let h = build(&mut rt, &cfg);
        let (_, trace) = rt.into_parts();
        assert_eq!(trace.object_size(h.model.id()), 383_528);
    }

    #[test]
    fn locality_object_is_difference_copy() {
        let cfg = StringConfig::small(2);
        let (trace, _) = run_trace(&cfg);
        for t in trace.tasks.iter().filter(|t| t.label == "trace-rays") {
            let lo = t.spec.locality_object().unwrap();
            assert!(trace.objects[lo.index()].name.starts_with("diff["));
        }
    }

    #[test]
    #[should_panic(expected = "string src_spacing is 0")]
    fn a_zero_source_spacing_is_refused() {
        run_trace(&StringConfig {
            src_spacing: 0,
            ..StringConfig::small(4)
        });
    }

    #[test]
    #[should_panic(expected = "string rcv_spacing is 0")]
    fn a_zero_receiver_spacing_is_refused() {
        reference(&StringConfig {
            rcv_spacing: 0,
            ..StringConfig::small(4)
        });
    }

    #[test]
    #[should_panic(expected = "string nz 0 < src_spacing 8: no sources")]
    fn an_image_without_depth_is_refused() {
        run_trace(&StringConfig {
            nz: 0,
            ..StringConfig::small(4)
        });
    }

    #[test]
    #[should_panic(expected = "string nz 40 < src_spacing 41: no sources")]
    fn a_source_spacing_past_the_image_is_refused() {
        run_trace(&StringConfig {
            src_spacing: 41,
            ..StringConfig::small(4)
        });
    }

    #[test]
    #[should_panic(expected = "string nz 40 < rcv_spacing 64: no receivers")]
    fn a_receiver_spacing_past_the_image_is_refused() {
        reference(&StringConfig {
            rcv_spacing: 64,
            ..StringConfig::small(4)
        });
    }

    #[test]
    #[should_panic(expected = "string nx is 0")]
    fn an_image_without_columns_is_refused() {
        run_trace(&StringConfig {
            nx: 0,
            ..StringConfig::small(4)
        });
    }

    /// The replicated accumulator of the per-ray kernel below.
    struct DiffArray {
        sum: Vec<f64>,
        weight: Vec<f64>,
    }

    /// The oracle's trace task, the naive per-ray kernel: it retraces every
    /// ray through the model and accumulates the task's own weights.
    #[allow(clippy::too_many_arguments)]
    fn per_ray_task(
        m: &[f64],
        rays: &[(f64, f64)],
        obs: &[f64],
        nx: usize,
        nz: usize,
        t: usize,
        nprocs: usize,
        d: &mut DiffArray,
    ) -> (f64, u64) {
        d.sum.iter_mut().for_each(|x| *x = 0.0);
        d.weight.iter_mut().for_each(|x| *x = 0.0);
        let mut sq = 0.0;
        let mut steps = 0u64;
        for ri in (t..rays.len()).step_by(nprocs) {
            let (zs, zr) = rays[ri];
            // First pass: predicted time and path cells.
            let mut path: Vec<(usize, f64)> = Vec::with_capacity(nx + nz);
            let t_pred = trace_ray(m, nx, nz, zs, zr, |idx, len| {
                path.push((idx, len));
            });
            let dt = obs[ri] - t_pred;
            sq += dt * dt;
            let total_len: f64 = path.iter().map(|&(_, l)| l).sum();
            for &(idx, len) in &path {
                d.sum[idx] += dt * len / total_len;
                d.weight[idx] += len;
            }
            steps += path.len() as u64;
        }
        (sq, steps)
    }

    /// The oracle's update: it reduces the sums and the weights of every
    /// task.
    fn per_ray_update(m: &mut [f64], diffs: &[DiffArray]) {
        let cells = m.len();
        let mut sum = vec![0.0f64; cells];
        let mut wt = vec![0.0f64; cells];
        for d in diffs {
            for i in 0..cells {
                sum[i] += d.sum[i];
                wt[i] += d.weight[i];
            }
        }
        for i in 0..cells {
            if wt[i] > 0.0 {
                m[i] += RELAX * sum[i] / wt[i];
            }
        }
    }

    /// The whole program on the per-ray kernels: output, and each task's
    /// work in submission order.
    fn per_ray_program(cfg: &StringConfig) -> (StringOutput, Vec<f64>) {
        let (procs, cells, rays) = (cfg.procs.max(1), cfg.cells(), cfg.rays());
        let obs = observations(cfg);
        let mut m = vec![1.0 / 2400.0; cells];
        let mut diffs: Vec<DiffArray> = (0..procs)
            .map(|_| DiffArray {
                sum: vec![0.0; cells],
                weight: vec![0.0; cells],
            })
            .collect();
        let (mut misfit, mut work) = (0.0, Vec::new());
        for _ in 0..cfg.iterations {
            let mut sqs = vec![0.0; procs];
            for t in creation_order(procs) {
                let (sq, steps) =
                    per_ray_task(&m, &rays, &obs, cfg.nx, cfg.nz, t, procs, &mut diffs[t]);
                sqs[t] = sq;
                work.push(steps as f64 * (C_STEP + C_BP));
            }
            per_ray_update(&mut m, &diffs);
            misfit = (sqs.iter().sum::<f64>() / rays.len() as f64).sqrt();
            work.push(cells as f64 * C_MODEL + (procs * cells) as f64 * C_RED);
        }
        let out = StringOutput {
            rms_misfit: misfit,
            model_checksum: checksum(m.iter().copied()),
        };
        (out, work)
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// A valid shape from unconstrained draws: spacings no larger than `nz`.
    fn shape(nx: usize, nz: usize, s: usize, r: usize) -> StringConfig {
        StringConfig {
            nx,
            nz,
            src_spacing: 1 + s % nz,
            rcv_spacing: 1 + r % nz,
            iterations: 1,
            procs: 1,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The cached paths against `trace_ray` on random models: cells,
        /// lengths, total length and travel time, for end points anywhere
        /// in the image, horizontal rays and rays clamped at either edge.
        #[test]
        fn paths_equal_trace_ray(nx in 1..40usize, nz in 1..60usize, seed in any::<u64>()) {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let h = nz as f64;
            let rays: Vec<(f64, f64)> = (0..12)
                .map(|k| {
                    let z0 = rng.gen_range_f64(0.0, h);
                    let z1 = rng.gen_range_f64(0.0, h);
                    match k % 4 {
                        0 => (z0, z1),
                        1 => (z0, z0),
                        2 => (h, z1),
                        _ => ([0.0, h][k / 4 % 2], z0.floor()),
                    }
                })
                .collect();
            let mut model = || -> Vec<f64> {
                (0..nx * nz).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect()
            };
            let (truth, other) = (model(), model());
            let (paths, times) = Paths::trace(&truth, nx, nz, &rays);
            prop_assert_eq!(paths.rays(), rays.len());
            for (r, &(z0, z1)) in rays.iter().enumerate() {
                let (mut cells, mut lens) = (Vec::new(), Vec::new());
                let time = trace_ray(&truth, nx, nz, z0, z1, |idx, len| {
                    cells.push(idx as u32);
                    lens.push(len);
                });
                let (got_cells, got_lens) = paths.ray(r);
                prop_assert_eq!(got_cells, &cells[..]);
                prop_assert_eq!(bits(got_lens), bits(&lens));
                let total: f64 = lens.iter().sum();
                prop_assert_eq!(paths.total_len[r].to_bits(), total.to_bits());
                prop_assert_eq!(times[r].to_bits(), time.to_bits());
                let time = trace_ray(&other, nx, nz, z0, z1, |_, _| {});
                prop_assert_eq!(paths.time(r, &other).to_bits(), time.to_bits());
            }
        }

        /// Each ray task against the per-ray kernel on a random model, into
        /// a difference array of garbage; the hoisted weights against the
        /// per-task weights reduced in task order.
        #[test]
        fn ray_tasks_equal_the_per_ray_kernel(
            dims in (1..30usize, 1..40usize),
            spacing in (any::<usize>(), any::<usize>()),
            procs in 1..17usize,
            seed in any::<u64>(),
        ) {
            let cfg = shape(dims.0, dims.1, spacing.0, spacing.1);
            let (cells, rays) = (cfg.cells(), cfg.rays());
            let (paths, obs) = Paths::trace(&true_model(&cfg), cfg.nx, cfg.nz, &rays);
            prop_assert_eq!(bits(&obs), bits(&observations(&cfg)));
            let mut rng = SplitMix64::seed_from_u64(seed);
            let model: Vec<f64> = (0..cells).map(|_| rng.gen_range_f64(2e-4, 6e-4)).collect();
            let mut wt = vec![0.0f64; cells];
            for t in 0..procs {
                let mut sum: Vec<f64> = (0..cells).map(|_| f64::from_bits(rng.next_u64())).collect();
                let got = trace_rays(&paths, &obs, &model, t, procs, &mut sum);
                let mut d = DiffArray { sum: vec![1.0; cells], weight: vec![1.0; cells] };
                let want = per_ray_task(&model, &rays, &obs, cfg.nx, cfg.nz, t, procs, &mut d);
                prop_assert_eq!((got.0.to_bits(), got.1), (want.0.to_bits(), want.1));
                prop_assert_eq!(bits(&sum), bits(&d.sum));
                for (w, &p) in wt.iter_mut().zip(&d.weight) {
                    *w += p;
                }
            }
            prop_assert_eq!(bits(&weights(&paths, cells, procs)), bits(&wt));
        }

        /// The whole program against the per-ray kernels: output and every
        /// task's work, over random shapes, iteration and processor counts.
        #[test]
        fn trace_equals_the_per_ray_program(
            dims in (1..24usize, 1..32usize),
            spacing in (any::<usize>(), any::<usize>()),
            iterations in 1..4usize,
            procs in 1..17usize,
        ) {
            let cfg = StringConfig { iterations, procs, ..shape(dims.0, dims.1, spacing.0, spacing.1) };
            let (trace, out) = run_trace(&cfg);
            let (want, work) = per_ray_program(&cfg);
            prop_assert_eq!(
                bits(&[out.rms_misfit, out.model_checksum]),
                bits(&[want.rms_misfit, want.model_checksum])
            );
            let got: Vec<f64> = trace.tasks.iter().map(|t| t.work).collect();
            prop_assert_eq!(bits(&got), bits(&work));
        }
    }
}
