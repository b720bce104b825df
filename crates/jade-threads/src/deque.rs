//! The work-stealing ready queue of the thread executor: a vendored
//! lock-free Chase-Lev deque per worker. Every push is an owner push: a
//! worker queues what it enables, and what it recovers, on its own deque.
//! DESIGN.md §13.1 has the argument.
//!
//! **The deque.** The *owner* pushes and pops at the **bottom** of a fixed
//! ring; *thieves* steal from the **top**, which only moves forward by CAS.
//! The orderings are those Lê, Pop, Cohen & Nardelli proved for C11
//! (PPoPP'13). Slots are `AtomicUsize` task indices, so the classical
//! benign race (a thief reads a slot the owner overwrites; the failing CAS
//! discards the value) is a relaxed atomic access, not UB.
//!
//! **The ring never grows.** A batch of `n` tasks has at most `n` distinct
//! indices queued at once, and [`ChaseLev::reset`] sizes every ring for
//! `n` before the first push, so [`ChaseLev::push`] asserts the capacity:
//! a broken invariant panics rather than overwrite a live slot.

use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

/// The vendored Chase-Lev deque over `usize` elements. Owner-only
/// `push`/`pop` at the bottom; any thread may `steal` from the top.
pub(crate) struct ChaseLev {
    /// Next index a thief will steal; advanced only by successful CAS, so
    /// an observed value never recurs (no ABA; 64 bits do not wrap).
    top: AtomicIsize,
    /// Next index the owner will push. Written only by the owner.
    bottom: AtomicIsize,
    /// Slot count (a power of two) minus one: wraps the monotone counters.
    mask: usize,
    slots: Box<[AtomicUsize]>,
}

impl ChaseLev {
    pub(crate) fn with_capacity(capacity: usize) -> ChaseLev {
        let cap = capacity.max(4).next_power_of_two();
        ChaseLev {
            top: AtomicIsize::new(0),
            bottom: AtomicIsize::new(0),
            mask: cap - 1,
            slots: (0..cap).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// A slot; `top`/`bottom` carry the ordering, never the slot (LBCN §3).
    fn slot(&self, i: isize) -> &AtomicUsize {
        &self.slots[i as usize & self.mask]
    }

    /// Owner: push `v` at the bottom. Panics if the ring is full, which no
    /// batch can make happen (DESIGN.md §13.1).
    pub(crate) fn push(&self, v: usize) {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        assert!(b - t <= self.mask as isize, "ready queue over capacity");
        self.slot(b).store(v, Ordering::Relaxed);
        // Release: a thief acquiring `bottom` sees the slot write above.
        self.bottom.store(b + 1, Ordering::Release);
    }

    /// Owner: pop from the bottom (LIFO). Returns `None` when empty.
    pub(crate) fn pop(&self) -> Option<usize> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        self.bottom.store(b, Ordering::Relaxed);
        // The SeqCst fence orders the `bottom` decrement against the `top`
        // read: either a racing thief sees the reservation, or we see its
        // advanced `top` (LBCN's single required fence on the pop path).
        std::sync::atomic::fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t > b {
            // Empty: undo the reservation.
            self.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }
        let v = self.slot(b).load(Ordering::Relaxed);
        if t == b {
            // Last element: race the thieves for it via the `top` CAS.
            let won = self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
            self.bottom.store(b + 1, Ordering::Relaxed);
            return won.then_some(v);
        }
        Some(v)
    }

    /// Thief: steal from the top. Returns `None` when empty or when the
    /// steal raced another thief/the owner and lost (the caller treats both
    /// as "try elsewhere").
    pub(crate) fn steal(&self) -> Option<usize> {
        let t = self.top.load(Ordering::Acquire);
        // Order the `top` read before the `bottom` read (LBCN steal path).
        std::sync::atomic::fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return None;
        }
        // Acquire on `bottom` pairs with the owner's release push; a push
        // cannot overwrite slot `t` while it is live (`b - t` < capacity).
        let v = self.slot(t).load(Ordering::Relaxed);
        // SeqCst CAS: succeeds only if no other steal/pop consumed index
        // `t` first, which also validates the speculative slot read above.
        self.top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
            .then_some(v)
    }

    /// Approximate occupancy, for the pickers' skip-empty-queues hint.
    pub(crate) fn len_hint(&self) -> usize {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    /// Empty the deque and make room for `n` indices at once. Returns
    /// `true` if it had to reallocate.
    pub(crate) fn reset(&mut self, n: usize) -> bool {
        if self.slots.len() < n {
            *self = ChaseLev::with_capacity(n);
            return true;
        }
        *self.top.get_mut() = 0;
        *self.bottom.get_mut() = 0;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn owner_push_pop_is_lifo() {
        let d = ChaseLev::with_capacity(4);
        d.push(1);
        d.push(2);
        d.push(3);
        assert_eq!(d.pop(), Some(3));
        assert_eq!(d.pop(), Some(2));
        assert_eq!(d.pop(), Some(1));
        assert_eq!(d.pop(), None);
        assert_eq!(d.pop(), None, "empty pop is idempotent");
    }

    #[test]
    fn steal_takes_oldest() {
        let d = ChaseLev::with_capacity(4);
        d.push(10);
        d.push(20);
        assert_eq!(d.steal(), Some(10));
        assert_eq!(d.pop(), Some(20));
        assert_eq!(d.steal(), None);
    }

    #[test]
    fn wrapped_indices_stay_correct() {
        // Drive top/bottom far past the ring size so the mask wraps.
        let d = ChaseLev::with_capacity(4);
        for round in 0..1000usize {
            d.push(round);
            d.push(round + 1_000_000);
            assert_eq!(d.pop(), Some(round + 1_000_000));
            assert_eq!(d.steal(), Some(round));
        }
        assert_eq!(d.pop(), None);
    }

    #[test]
    fn concurrent_steal_loses_nothing_and_duplicates_nothing() {
        // One owner pushes and pops; several thieves steal. Every pushed
        // value must be consumed exactly once.
        const N: usize = 20_000;
        const THIEVES: usize = 3;
        let d = Arc::new(ChaseLev::with_capacity(N));
        let done = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..THIEVES {
            let d = Arc::clone(&d);
            let done = Arc::clone(&done);
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while !done.load(Ordering::Acquire) || d.len_hint() > 0 {
                    if let Some(v) = d.steal() {
                        got.push(v);
                    } else {
                        std::hint::spin_loop();
                    }
                }
                got
            }));
        }
        let mut owner_got = Vec::new();
        for i in 0..N {
            d.push(i + 1);
            if i % 3 == 0 {
                if let Some(v) = d.pop() {
                    owner_got.push(v);
                }
            }
        }
        while let Some(v) = d.pop() {
            owner_got.push(v);
        }
        done.store(true, Ordering::Release);
        let mut all = owner_got;
        for h in handles {
            all.extend(h.join().unwrap());
        }
        all.sort_unstable();
        assert_eq!(all.len(), N, "every element consumed exactly once");
        assert_eq!(all, (1..=N).collect::<Vec<_>>());
    }

    #[test]
    fn reset_reuses_the_ring_and_reports_growth() {
        let mut d = ChaseLev::with_capacity(16);
        d.push(1);
        d.push(2);
        assert!(!d.reset(8), "shrink-fit reset must not grow");
        assert_eq!(d.len_hint(), 0, "reset drains leftovers");
        assert_eq!(d.pop(), None);
        assert!(d.reset(4096), "bigger batch must grow");
        assert!(!d.reset(4096), "same-shape reset reuses");
    }

    #[test]
    #[should_panic(expected = "ready queue over capacity")]
    fn push_past_the_reset_capacity_panics() {
        let mut d = ChaseLev::with_capacity(4);
        assert!(d.reset(64));
        let fill = std::panic::catch_unwind(AssertUnwindSafe(|| {
            for i in 0..64 {
                d.push(i);
            }
        }));
        fill.expect("a deque reset to 64 takes 64 pushes");
        d.push(64);
    }

    /// Sets its flag when dropped, by a return or by a panic unwinding.
    struct SetOnDrop<'a>(&'a AtomicBool);

    impl Drop for SetOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The scheduler's whole use of one worker's deque `D`, including
        /// the one way an index can leave `D` and come back: `D`'s owner
        /// pushes and pops; two thieves steal from `D` and, as a recovery
        /// would, re-push some stolen indices on their own deques; `D`'s
        /// owner steals those back and re-pushes them on `D`. Sized for the
        /// batch as `prepare` sizes it, `D` hands every index out exactly
        /// once, and its capacity assert never fires.
        #[test]
        fn task_queue_hands_out_every_index_exactly_once(
            own in 1usize..4000,
            pop_every in 1usize..4,
            bounce_every in 1usize..5,
        ) {
            // A queued value is `index + own * trips`, so the two re-pushes
            // are distinct values of one task: a thief re-pushes `v < own`
            // as `v + own`, and `D`'s owner takes that back as `v + 2 * own`.
            let mut deques: Vec<_> = (0..3).map(|_| ChaseLev::with_capacity(4)).collect();
            for d in &mut deques {
                d.reset(own);
            }
            let (d, thieves) = deques.split_first().expect("three deques");
            let consumed = AtomicUsize::new(0);
            // Set when the owner leaves, also by a panic: the thieves stop
            // and the test fails on the owner's panic instead of hanging.
            let owner_gone = AtomicBool::new(false);
            let (consumed, owner_gone) = (&consumed, &owner_gone);
            let open = || consumed.load(Ordering::Acquire) < own && !owner_gone.load(Ordering::Acquire);
            let hand_out = |v: usize, got: &mut Vec<usize>| {
                got.push(v % own);
                consumed.fetch_add(1, Ordering::AcqRel);
            };
            // `D`'s owner steals one re-pushed index back, if there is one.
            let take_back = || {
                for e in thieves {
                    if let Some(v) = e.steal() {
                        d.push(v + own);
                        return true;
                    }
                }
                false
            };
            // All three start together: thieves that are already stealing
            // while the owner pushes race each other for the same `top`.
            let start = std::sync::Barrier::new(3);
            let start = &start;
            let (owner, mut all) = std::thread::scope(|s| {
                let handles: Vec<_> = thieves
                    .iter()
                    .map(|e| {
                        s.spawn(move || {
                            start.wait();
                            let mut got = Vec::new();
                            while open() {
                                match d.steal() {
                                    Some(v) if v < own && v % bounce_every == 0 => e.push(v + own),
                                    Some(v) => hand_out(v, &mut got),
                                    None => std::thread::yield_now(),
                                }
                            }
                            got
                        })
                    })
                    .collect();
                let mut got = Vec::new();
                start.wait();
                let owner = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    let _gone = SetOnDrop(owner_gone);
                    for v in 0..own {
                        d.push(v);
                        if v % pop_every == 0 {
                            if let Some(v) = d.pop() {
                                hand_out(v, &mut got);
                            }
                            take_back();
                        }
                    }
                    while open() {
                        match d.pop() {
                            Some(v) => hand_out(v, &mut got),
                            None if take_back() => {}
                            None => std::thread::yield_now(),
                        }
                    }
                }));
                for h in handles {
                    got.extend(h.join().unwrap());
                }
                (owner, got)
            });
            prop_assert!(owner.is_ok(), "the owner panicked: ready queue over capacity?");
            all.sort_unstable();
            prop_assert_eq!(all, (0..own).collect::<Vec<_>>());
        }
    }
}
