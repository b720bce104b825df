//! Pins what `repro` prints: one FNV-1a hash per command group, over its
//! stdout and every file it writes. The binary runs in a fresh directory
//! under the target's temp dir, so `tune-sweep` never rewrites the tracked
//! `TUNE_sweep.json`. On a mismatch the failure message prints the new
//! table, ready to paste in as source.
//!
//! `service-stress` is not pinned: its overload count depends on thread
//! timing. The threads rows of the checkpoint sweep hash with their
//! "from checkpoint" count masked, for the same reason (DESIGN.md §13.6).

use std::path::PathBuf;
use std::process::Command;

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// A fresh, empty working directory for one `repro` run.
fn workdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("repro_golden-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the run directory");
    dir
}

/// Run `repro args` in its own directory; returns exit code, stdout, stderr.
fn repro(name: &str, args: &[&str]) -> (i32, String, String, PathBuf) {
    let dir = workdir(name);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("repro runs");
    let code = out.status.code().expect("repro exits normally");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    (code, stdout, stderr, dir)
}

/// Hash a successful run's stdout plus the listed files it wrote.
fn group(name: &'static str, args: &[&str], files: &[&str]) -> (&'static str, u64) {
    let (code, stdout, stderr, dir) = repro(name, args);
    assert_eq!(code, 0, "repro {args:?} failed:\n{stderr}");
    let mut h = Fnv1a::new();
    for line in stdout.lines() {
        h.feed(mask_checkpoint_hits(line).as_bytes());
        h.feed(b"\n");
    }
    for f in files {
        h.feed(&std::fs::read(dir.join(f)).unwrap_or_else(|e| panic!("{name}: {f}: {e}")));
    }
    (name, h.0)
}

/// `(8 from checkpoint)` -> `(_ from checkpoint)`: on real threads, which
/// recoveries find a checkpoint depends on the schedule.
fn mask_checkpoint_hits(line: &str) -> String {
    match (line.rfind('('), line.find(" from checkpoint)")) {
        (Some(open), Some(end)) if open < end => {
            format!("{}(_{}", &line[..open], &line[end..])
        }
        _ => line.to_string(),
    }
}

const QUICK_GOLDEN: &[(&str, u64)] = &[
    ("all", 0xfa11f58bcf509a7e),
    ("sweeps", 0x765a0cee589ff017),
    ("faults", 0xf131b5e86f971bbb),
    ("checkpoint", 0xf74565fbe836a508),
    ("app", 0x9dadee95ecbd01d9),
    ("trace-out", 0xc0e1339adf3cd1c7),
];

/// The `--quick` command groups CI runs, plus the whole quick evaluation.
#[test]
fn quick_groups_match_their_golden_hashes() {
    let got = vec![
        group("all", &["--quick", "all", "utilization"], &[]),
        group(
            "sweeps",
            &[
                "--quick",
                "aggregation-sweep",
                "overlap-sweep",
                "tune-sweep",
            ],
            &["OVERLAP_sweep.json", "TUNE_sweep.json"],
        ),
        group(
            "faults",
            &[
                "--quick",
                "--faults",
                "drop=0.05,dup=0.02",
                "--fault-seed",
                "42",
            ],
            &[],
        ),
        group(
            "checkpoint",
            &[
                "--quick",
                "--faults",
                "drop=0.05,fail=6@0.5,seed=3",
                "--checkpoint-interval",
                "0.5",
                "--checkpoint-interval",
                "2.0",
                "checkpoint-sweep",
            ],
            &[],
        ),
        group(
            "app",
            &["--quick", "--app", "pagerank", "--aggregate", "--prefetch"],
            &[],
        ),
        group(
            "trace-out",
            &["--quick", "--trace-out", "t.json"],
            &["t.json"],
        ),
    ];
    assert_eq!(got, QUICK_GOLDEN, "as source: {got:#x?}");
}

const PAPER_GOLDEN: &[(&str, u64)] = &[("paper all", 0x17d4e09f4ed649cb)];

/// Paper scale: every table and figure. The tables run nowhere else; they
/// take seconds optimised and far longer in a debug build, where this is
/// ignored: `cargo test -p jade-bench --release --test repro_golden`.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn paper_scale_tables_match_their_golden_hash() {
    let got = vec![group("paper all", &["all", "utilization"], &[])];
    assert_eq!(got, PAPER_GOLDEN, "as source: {got:#x?}");
}

/// Every name is checked before any experiment runs: a typo late in the
/// list exits 2 without printing a table or writing a file.
#[test]
fn unknown_experiment_is_rejected_before_any_runs() {
    let (code, stdout, stderr, _) = repro("typo", &["--quick", "table2", "tabel3"]);
    assert_eq!(code, 2, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stderr.contains("unknown experiment: tabel3"), "{stderr}");
    assert!(
        !stdout.contains("Execution Times"),
        "a table ran:\n{stdout}"
    );
    let (code, _, stderr, dir) = repro("typo-sweep", &["--quick", "tune-sweep", "tabel3"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(!dir.join("TUNE_sweep.json").exists());
}
