//! Golden fingerprints of the six applications' serial runs: every output
//! field's bits and a hash of the trace the simulators replay (each task's
//! label, declarations, placement, phase, serial flag and charged work).
//! The in-crate oracle tests hold a kernel equal to its serial reference;
//! this holds both of them equal to what they computed before the kernels
//! were rewritten, at the 8- and 32-processor decompositions.

use jade::apps::{cholesky, halo, ocean, pagerank, string_app, water};
use jade::Trace;

/// 64-bit FNV-1a over the little-endian bytes of each field.
struct Fnv(u64);

impl Fnv {
    fn put(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Application and case, output field bits, task count, trace hash.
type Print = (&'static str, [u64; 2], usize, u64);

fn print(name: &'static str, trace: &Trace, out: [f64; 2]) -> Print {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for t in &trace.tasks {
        h.put(t.label.as_bytes());
        h.put(&(t.spec.decls().len() as u32).to_le_bytes());
        for d in t.spec.decls() {
            h.put(&d.object.0.to_le_bytes());
            h.put(&[d.mode as u8]);
        }
        h.put(&t.placement.map_or(u64::MAX, |p| p as u64).to_le_bytes());
        h.put(&t.phase.to_le_bytes());
        h.put(&[t.serial_phase as u8]);
        h.put(&t.work.to_bits().to_le_bytes());
    }
    (name, out.map(f64::to_bits), trace.task_count(), h.0)
}

fn water(cfg: &water::WaterConfig) -> Print {
    let (t, o) = water::run_trace(cfg);
    print("water", &t, [o.potential, o.positions_checksum])
}

fn string(cfg: &string_app::StringConfig) -> Print {
    let (t, o) = string_app::run_trace(cfg);
    print("string", &t, [o.rms_misfit, o.model_checksum])
}

fn ocean(cfg: &ocean::OceanConfig) -> Print {
    let (t, o) = ocean::run_trace(cfg);
    print("ocean", &t, [o.residual, o.grid_checksum])
}

fn cholesky(cfg: &cholesky::CholeskyConfig) -> Print {
    let (t, o) = cholesky::run_trace(cfg);
    print("cholesky", &t, [o.log_det, o.factor_checksum])
}

fn pagerank(cfg: &pagerank::PagerankConfig) -> Print {
    let (t, o) = pagerank::run_trace(cfg);
    print("pagerank", &t, [o.rank_sum, o.rank_checksum])
}

fn halo(cfg: &halo::HaloConfig) -> Print {
    let (t, o) = halo::run_trace(cfg);
    print("halo", &t, [o.total, o.grid_checksum])
}

/// Recorded at PR 24 (`21033b0`), before the kernels were rewritten. Per
/// processor count (8, then 32): the six applications' `small`
/// configurations. Then Ocean on grids whose interior blocks are 1-2, 4-5,
/// 2-3, 6-7, 10 and 12 columns wide (`small(8)`'s are 2-3), and on one
/// 19-column block that holds both fixed edges: every swept width from 1 to
/// one past the eight-column front, and full fronts followed by remainders
/// of 1, 3 and 4, each beside a boundary gap on both sides and at a fixed
/// edge. Last, Halo with one-cell tiles and with nine-cell tiles on a
/// non-square grid.
#[rustfmt::skip]
const GOLDEN: [Print; 21] = [
    ("water", [0x4066c7879f32b606, 0xc042ec436f10000b], 36, 0xb8c9d3c3c0cb0821),
    ("string", [0x3f400e41a8446e6a, 0x3f04f6889260ae48], 18, 0xd117254088d69391),
    ("ocean", [0x3f6388184ac581ef, 0xbf948972d324efb4], 85, 0x78f9e02ec4720a5b),
    ("cholesky", [0x4065997f12b81989, 0x403cc962719437d2], 99, 0x11ac9e63ce36fc41),
    ("pagerank", [0x3ff0000000000005, 0xbf655cbf78ab0d42], 337, 0x6e46c1a31b76da50),
    ("halo", [0x4069eb843b3f5dd3, 0xbfd005aa33580fda], 61, 0xb653e73bc40ed2a7),
    ("water", [0x4066c7879f32b605, 0xc042ec436f10000b], 132, 0xefa51e7ece157951),
    ("string", [0x3f400e41a8446e69, 0x3f04f6889260ae48], 66, 0xee99135b2805173d),
    ("ocean", [0x3f6e16331e738edc, 0x3f47ec78234e1406], 373, 0x20f9443b5ba25e8f),
    ("cholesky", [0x4065997f12b81989, 0x403cc962719437d2], 99, 0xff535e95532104e7),
    ("pagerank", [0x3ff0000000000004, 0x3f2200050ab6cadc], 1489, 0x6210c37b816a4133),
    ("halo", [0x4069eb843b3f5dd3, 0xbfd005aa33580fda], 61, 0xb653e73bc40ed2a7),
    ("ocean", [0x3f694bba21e20b33, 0xbf840c593fa64cce], 22, 0xc4d1341306bcc490),
    ("ocean", [0x3f6e188e5f93923a, 0x3f53fa7a13ac1da8], 22, 0xe86570cc0a10f74b),
    ("ocean", [0x3f704bcb2780b0b6, 0x3f2f12635d74ef8a], 94, 0x55f73d8f10881f37),
    ("ocean", [0x3f69eade736ce9d8, 0xbf8422445c71eaa0], 10, 0x0cf13158f514b131),
    ("ocean", [0x3f68b54f0c5e1431, 0xbf87f15a6224b236], 4, 0xaac83ea0121a9b58),
    ("ocean", [0x3f6d94ff675261f7, 0xbf77f8b6ef516dc9], 10, 0x385012980d09ffc1),
    ("ocean", [0x3f66c025db5385ad, 0x3f6626c022b4615a], 4, 0x6a67a4d3fdb338c4),
    ("halo", [0x3fd81f83cd4e9302, 0x3fb0fd3e0bc8685d], 29, 0x29edb121866295e3),
    ("halo", [0x406da783e1958b6b, 0x3f6910bf5bab1f00], 29, 0x9154b552d383dcc2),
];

#[test]
fn small_runs_match_their_golden_fingerprints() {
    let mut got = Vec::new();
    for procs in [8, 32] {
        got.push(water(&water::WaterConfig::small(procs)));
        got.push(string(&string_app::StringConfig::small(procs)));
        got.push(ocean(&ocean::OceanConfig::small(procs)));
        got.push(cholesky(&cholesky::CholeskyConfig::small(procs)));
        got.push(pagerank(&pagerank::PagerankConfig::small(procs)));
        got.push(halo(&halo::HaloConfig::small(procs)));
    }
    for (n, procs) in [
        (22, 8),
        (43, 8),
        (137, 32),
        (24, 4),
        (22, 2),
        (40, 4),
        (19, 1),
    ] {
        got.push(ocean(&ocean::OceanConfig {
            n,
            iterations: 3,
            procs,
        }));
    }
    for (tiles_x, tiles_y, tile) in [(3, 4, 1), (6, 2, 9)] {
        got.push(halo(&halo::HaloConfig {
            tiles_x,
            tiles_y,
            tile,
            ..halo::HaloConfig::small(8)
        }));
    }
    assert_eq!(got, GOLDEN, "as source: {got:#x?}");
}

/// Recorded at `7760d7b`, before String's and Water's kernels were
/// rewritten: the paper configurations at 8, then 32 processors — the
/// twelve traces the simulator workloads replay.
#[rustfmt::skip]
const PAPER: [Print; 12] = [
    ("water", [0x40ee38c480b8ef70, 0x406013118805e69a], 144, 0x2cbbdb429e34f5a5),
    ("string", [0x3f4b790bb00fbba9, 0x3f31a7174b3803c4], 54, 0x9c1d096428de36ad),
    ("ocean", [0x3f57056cf56d24f7, 0xbf74b7b26f0d90fe], 6301, 0xf5570d62b4e41987),
    ("cholesky", [0x40b2542f4c546809, 0x4009a166a6ce45bd], 3400, 0xe67ae099bb43f6f3),
    ("pagerank", [0x3ff00000000000f6, 0x3fbc0c97cdb524de], 1681, 0x3f2155dfbbfc25e4),
    ("halo", [0x40d909c4f7588be5, 0xc0060e1b587346e6], 4201, 0xb2d88865532a4c76),
    ("water", [0x40ee38c480b8ef46, 0x406013118805e69a], 528, 0x5d7e2b0c2c291445),
    ("string", [0x3f4b790bb00fbbab, 0x3f31a7174b380382], 198, 0x0f5c3372f11dd77d),
    ("ocean", [0x3f57f943d632d4b0, 0xbf678e41bd53761c], 27901, 0x1ce917d348611fef),
    ("cholesky", [0x40b2542f4c546809, 0x4009a166a6ce45bd], 3400, 0x5619fda6cb25097e),
    ("pagerank", [0x3ff00000000000fd, 0x3fbc0c97cdb524f9], 7441, 0x73269cbf3642d344),
    ("halo", [0x40d909c4f7588be5, 0xc0060e1b587346e6], 4201, 0x9b8d782564bcee76),
];

/// Too slow for a debug build (tens of seconds); in release it takes about
/// half a second: `cargo test --release --test apps_golden`.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn paper_runs_match_their_golden_fingerprints() {
    let mut got = Vec::new();
    for procs in [8, 32] {
        got.push(water(&water::WaterConfig::paper(procs)));
        got.push(string(&string_app::StringConfig::paper(procs)));
        got.push(ocean(&ocean::OceanConfig::paper(procs)));
        got.push(cholesky(&cholesky::CholeskyConfig::paper(procs)));
        got.push(pagerank(&pagerank::PagerankConfig::paper(procs)));
        got.push(halo(&halo::HaloConfig::paper(procs)));
    }
    assert_eq!(got, PAPER, "as source: {got:#x?}");
}
