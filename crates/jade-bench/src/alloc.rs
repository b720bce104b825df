//! Allocation counting for the zero-alloc steady-state gate.
//!
//! The counter itself is safe code (this crate is
//! `#![forbid(unsafe_code)]`); the `#[global_allocator]` shim that feeds
//! it is a ~12-line `unsafe impl GlobalAlloc` delegating to
//! [`std::alloc::System`], installed by the one crate root that opts in:
//! the workspace-level `tests/allocs.rs`. Binaries that do *not* install
//! the shim — every other binary, or one using a different global
//! allocator — see a counter that never moves, which
//! [`counting_active`] detects so alloc assertions skip cleanly instead of
//! failing vacuously.
//!
//! Only `alloc` and `realloc` are counted. Deallocations are free to
//! batch up (dropping a recycled buffer is not allocation pressure), and
//! counting them would double-charge realloc.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Record one allocation. Called by an installed allocator shim on every
/// `alloc`/`realloc`; `Relaxed` because only totals matter, and the shim
/// must add no synchronization to the paths it measures.
#[inline]
pub fn note_alloc() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
}

/// Total allocations observed since process start. Zero forever if no
/// counting shim is installed.
#[inline]
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Is a counting shim actually installed as the global allocator?
///
/// Probes by performing a handful of heap allocations the optimizer
/// cannot elide and watching whether the counter moves; memoized after
/// the first call. Concurrent allocation on other threads can only
/// inflate the observed delta, never produce a false negative.
pub fn counting_active() -> bool {
    static ACTIVE: OnceLock<bool> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        const PROBES: u64 = 16;
        let before = allocs();
        for i in 0..PROBES {
            std::hint::black_box(Box::new(std::hint::black_box(i)));
        }
        allocs().wrapping_sub(before) >= PROBES
    })
}

/// Allocations observed while running `f`, plus `f`'s result.
pub fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocs();
    let r = f();
    (allocs().wrapping_sub(before), r)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// This test binary installs no `#[global_allocator]` shim, so the
    /// counter never moves — the exact situation in which alloc
    /// assertions elsewhere must detect inactivity and skip. (The
    /// positive case — the probe observing a real shim — is covered by
    /// the workspace-level `tests/allocs.rs`, which installs one.)
    #[test]
    fn probe_reports_inactive_without_an_installed_shim() {
        assert!(!counting_active());
        let (n, _) = allocs_during(|| std::hint::black_box(vec![0u8; 4096]));
        assert_eq!(n, 0, "no shim, so nothing feeds the counter");
    }

    #[test]
    fn counter_moves_when_fed_directly() {
        let before = allocs();
        note_alloc();
        note_alloc();
        assert_eq!(allocs().wrapping_sub(before), 2);
    }
}
