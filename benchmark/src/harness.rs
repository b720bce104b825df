//! What every workload shares: the run's arguments, the pass budget, the
//! repeated set-up, and the host facts.

use std::time::Instant;

/// Arguments of one workload run.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    pub seed: u64,
    /// How long to measure. Work per pass is fixed; this decides how many
    /// passes are timed.
    pub seconds: f64,
}

/// Fewest timed passes behind any reported median, however short the run.
pub const MIN_PASSES: usize = if crate::TINY { 2 } else { 5 };

/// How many times a run sets up, so that `setup_s` is a median.
pub const SETUP_REPS: usize = if crate::TINY { 1 } else { 3 };

/// Decides when a run has timed enough passes: at least [`MIN_PASSES`], and
/// then until the measuring time is used up.
pub struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    pub fn new(seconds: f64) -> Budget {
        Budget {
            start: Instant::now(),
            seconds,
        }
    }

    pub fn more(&self, passes_done: usize) -> bool {
        passes_done < MIN_PASSES || self.start.elapsed().as_secs_f64() < self.seconds
    }
}

/// Run `setup` [`SETUP_REPS`] times, dropping each state before the next
/// is built; returns the last state and the seconds each set-up took.
pub fn set_up<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let (built, s) = timed(&mut setup);
        state = Some(built);
        secs.push(s);
    }
    (state.expect("SETUP_REPS >= 1"), secs)
}

/// Cores this process may run on, as of the first call (pinning comes later).
pub fn cpus() -> usize {
    static CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Worker threads of the thread workloads: every core up to four. The
/// harness thread blocks inside `finish`/`wait`, so running threads never
/// exceed the cores.
pub fn workers() -> usize {
    cpus().min(4)
}

/// This process's peak resident set (`VmHWM`) in MB; 0 where `/proc` does
/// not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time `f` in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// The calling thread's CPU affinity, as the kernel's bit mask.
type CpuMask = [u64; 16];

#[cfg(target_os = "linux")]
mod affinity {
    use super::CpuMask;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<CpuMask> {
        let mut mask: CpuMask = [0; 16];
        // SAFETY: a libc call (std already links libc) that writes at most
        // `size` bytes into `mask`, which is that large; pid 0 names the
        // calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &CpuMask) -> bool {
        // SAFETY: a libc call that reads `size` bytes of `mask`.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn get() -> Option<super::CpuMask> {
        None
    }
    pub fn set(_: &super::CpuMask) -> bool {
        false
    }
}

/// Confines this thread, and every thread it starts from now on, to one
/// core until dropped.
///
/// The thread workloads are timed this way. On the reference host (two
/// virtual cores) the cost of moving a cache line between the cores
/// changes with where the hypervisor has put them: unpinned,
/// `threads-fine` flips between regimes a factor of two apart, minutes at
/// a time, and `threads-apps` and `service-mix` by a third — far beyond
/// any bound. On one core the same passes repeat within a few percent.
/// What they then measure is the runtime's work per task, park and wake
/// as context switches included, with `W` workers taking turns; what they
/// no longer measure is parallel speed-up, which the traced run reports
/// from unpinned passes (`*.par_speedup`), unbounded.
pub struct OneCore {
    before: Option<CpuMask>,
}

impl OneCore {
    pub fn pin() -> OneCore {
        // The worker count comes from the cores available before pinning.
        workers();
        let before = affinity::get();
        if let Some(all) = before {
            let first = (0..all.len() * 64).find(|&c| all[c / 64] >> (c % 64) & 1 == 1);
            if let Some(c) = first {
                let mut one: CpuMask = [0; 16];
                one[c / 64] = 1 << (c % 64);
                affinity::set(&one);
            }
        }
        OneCore { before }
    }
}

impl Drop for OneCore {
    fn drop(&mut self) {
        if let Some(all) = &self.before {
            affinity::set(all);
        }
    }
}
