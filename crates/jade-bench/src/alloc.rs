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
//! `alloc` and `realloc` feed the allocation count. Deallocations are free
//! to batch up (dropping a recycled buffer is not allocation pressure),
//! and counting them there would double-charge realloc. Beside the call
//! count the shim reports each request's size, so a gate can bound *how
//! much* a region allocates (a realloc is charged its whole new size).
//! `dealloc` feeds a counter of its own ([`frees`]): a task's heap blocks
//! are released by the worker that ran it, inside the timed `finish`, so
//! "blocks freed per retired task" is a cost the allocation count cannot
//! see.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

/// Record one allocation of `bytes`. Called by an installed allocator shim
/// on every `alloc`/`realloc`; `Relaxed` because only totals matter, and
/// the shim must add no synchronization to the paths it measures.
#[inline]
pub fn note_alloc(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Record one deallocation. Called by an installed shim on every
/// `dealloc` (a `realloc` is neither an allocation ended nor a block freed
/// as far as this count goes).
#[inline]
pub fn note_free() {
    FREES.fetch_add(1, Ordering::Relaxed);
}

/// Total allocations observed since process start. Zero forever if no
/// counting shim is installed.
#[inline]
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Total bytes requested since process start (zero without a shim).
#[inline]
pub fn alloc_bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// Total deallocations observed since process start (zero without a shim).
#[inline]
pub fn frees() -> u64 {
    FREES.load(Ordering::Relaxed)
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

/// Bytes requested from the allocator while running `f`, plus `f`'s result.
pub fn bytes_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = alloc_bytes();
    let r = f();
    (alloc_bytes().wrapping_sub(before), r)
}

/// Blocks handed back to the allocator while running `f`, plus `f`'s result.
pub fn frees_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = frees();
    let r = f();
    (frees().wrapping_sub(before), r)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one test that feeds the process-wide counter must not run inside
    /// the window of the one that asserts it stays still.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// This test binary installs no `#[global_allocator]` shim, so the
    /// counter never moves — the exact situation in which alloc
    /// assertions elsewhere must detect inactivity and skip. (The
    /// positive case — the probe observing a real shim — is covered by
    /// the workspace-level `tests/allocs.rs`, which installs one.)
    #[test]
    fn probe_reports_inactive_without_an_installed_shim() {
        let _guard = SERIAL.lock().unwrap();
        assert!(!counting_active());
        let (n, _) = allocs_during(|| std::hint::black_box(vec![0u8; 4096]));
        assert_eq!(n, 0, "no shim, so nothing feeds the counter");
    }

    #[test]
    fn counter_moves_when_fed_directly() {
        let _guard = SERIAL.lock().unwrap();
        let (before, bytes_before, frees_before) = (allocs(), alloc_bytes(), frees());
        note_alloc(24);
        note_alloc(40);
        note_free();
        assert_eq!(allocs().wrapping_sub(before), 2);
        assert_eq!(alloc_bytes().wrapping_sub(bytes_before), 64);
        assert_eq!(frees().wrapping_sub(frees_before), 1);
    }
}
