//! The work-stealing ready queue of the thread executor: a vendored
//! lock-free Chase-Lev deque per worker plus a small locked inbox for
//! pushes from other threads ([`TaskQueue`]). DESIGN.md §13.1 has the
//! argument.
//!
//! **The deque.** The *owner* pushes and pops at the **bottom** of a fixed
//! ring; *thieves* steal from the **top**, which only moves forward by CAS.
//! The orderings are those Lê, Pop, Cohen & Nardelli proved for C11
//! (PPoPP'13). Slots are `AtomicUsize` task indices, so the classical
//! benign race (a thief reads a slot the owner overwrites; the failing CAS
//! discards the value) is a relaxed atomic access, not UB.
//!
//! **The ring never grows.** A batch of `n` tasks has at most `n` distinct
//! indices queued at once, and [`TaskQueue::reset`] sizes every ring for
//! `n` before the first push, so [`ChaseLev::push`] asserts the capacity:
//! a broken invariant panics rather than overwrite a live slot.
//!
//! **The inbox.** Locality routing and recovery push onto *other* workers'
//! queues; those pushes go to the owner's inbox, which the owner drains
//! when its deque runs dry and thieves steal from directly, so work sent to
//! a worker spinning in a long task stays reachable. The owner's fast path
//! takes no lock.

use crate::lock;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// One worker's ready queue: a Chase-Lev deque plus its inject inbox. The
/// scheduler talks only to this wrapper.
pub(crate) struct TaskQueue {
    deque: ChaseLev,
    /// Remote pushes (bottom ops are owner-only).
    inbox: Mutex<Vec<usize>>,
    /// Inbox length, written under the lock, read without it.
    inbox_len: AtomicUsize,
}

impl TaskQueue {
    pub(crate) fn new(capacity: usize) -> TaskQueue {
        TaskQueue {
            deque: ChaseLev::with_capacity(capacity),
            inbox: Mutex::new(Vec::with_capacity(capacity)),
            inbox_len: AtomicUsize::new(0),
        }
    }

    /// Push `local` onto this queue. `owner` is true when the caller is
    /// this queue's worker or the setup thread (which runs before any).
    pub(crate) fn push(&self, local: usize, owner: bool) {
        if owner {
            self.deque.push(local);
        } else {
            let mut inbox = lock(&self.inbox);
            inbox.push(local);
            self.inbox_len.store(inbox.len(), Ordering::Release);
        }
    }

    /// Owner-side pick: pop the bottom (LIFO), falling back to draining the
    /// inbox. Pick order is a scheduling freedom: only enabled tasks queue.
    pub(crate) fn pop(&self) -> Option<usize> {
        self.deque.pop().or_else(|| {
            // Deque dry: adopt everything parked in the inbox, then retry.
            let mut inbox = lock(&self.inbox);
            if inbox.is_empty() {
                return None;
            }
            for v in inbox.drain(..) {
                self.deque.push(v);
            }
            self.inbox_len.store(0, Ordering::Release);
            drop(inbox);
            self.deque.pop()
        })
    }

    /// Thief-side pick: the victim's deque top, else its inbox (or work
    /// injected onto a worker that never goes idle would be unreachable).
    pub(crate) fn steal(&self) -> Option<usize> {
        self.deque.steal().or_else(|| {
            if self.inbox_len.load(Ordering::Acquire) == 0 {
                return None;
            }
            let mut inbox = lock(&self.inbox);
            let picked = inbox.pop();
            self.inbox_len.store(inbox.len(), Ordering::Release);
            picked
        })
    }

    /// True when a scan may skip this queue without locking anything (a
    /// racing push is covered by the epoch-parking protocol).
    pub(crate) fn is_empty_hint(&self) -> bool {
        self.deque.len_hint() == 0 && self.inbox_len.load(Ordering::Acquire) == 0
    }

    /// Drop any leftovers (an aborted batch may leave some) and make room
    /// for a batch of `n` tasks. Returns `true` if it had to allocate.
    pub(crate) fn reset(&mut self, n: usize) -> bool {
        let inbox = self.inbox.get_mut().unwrap_or_else(|e| e.into_inner());
        inbox.clear();
        *self.inbox_len.get_mut() = 0;
        let mut grew = self.deque.reset(n);
        if inbox.capacity() < n {
            inbox.reserve(n);
            grew = true;
        }
        grew
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
    fn task_queue_routes_remote_pushes_through_inbox() {
        let q = TaskQueue::new(8);
        q.push(1, false);
        q.push(2, false);
        assert!(!q.is_empty_hint(), "inbox contents count toward the hint");
        // Owner adopts the inbox when its deque is dry.
        assert!(q.pop().is_some());
        assert!(q.pop().is_some());
        assert_eq!(q.pop(), None);
        // Thieves can reach a victim's inbox directly.
        q.push(7, false);
        assert_eq!(q.steal(), Some(7));
        assert_eq!(q.steal(), None);
    }

    #[test]
    fn task_queue_reset_reuses_and_reports_growth() {
        let mut q = TaskQueue::new(16);
        q.push(1, true);
        q.push(2, false);
        assert!(!q.reset(8), "shrink-fit reset must not grow");
        assert!(q.is_empty_hint(), "reset drains leftovers");
        assert_eq!(q.pop(), None);
        assert!(q.reset(4096), "bigger batch must grow");
        assert!(!q.reset(4096), "same-shape reset reuses");
    }

    #[test]
    #[should_panic(expected = "ready queue over capacity")]
    fn push_past_the_reset_capacity_panics() {
        let mut q = TaskQueue::new(4);
        assert!(q.reset(64));
        let fill = std::panic::catch_unwind(AssertUnwindSafe(|| {
            for i in 0..64 {
                q.push(i, true);
            }
        }));
        fill.expect("a queue reset to 64 takes 64 pushes");
        q.push(64, true);
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

        /// The scheduler's whole use of a queue at once: its owner pushes
        /// and pops, two other workers push through the inbox, two thieves
        /// steal. Sized for the batch as `prepare` sizes it, the queue
        /// hands every index out exactly once (and its capacity assert
        /// never fires).
        #[test]
        fn task_queue_hands_out_every_index_exactly_once(
            own in 1usize..800,
            remote in 0usize..400,
            pop_every in 1usize..4,
        ) {
            let total = own + 2 * remote;
            let mut q = TaskQueue::new(4);
            q.reset(total);
            let consumed = AtomicUsize::new(0);
            // Set when the owner leaves, also by a panic: the thieves stop
            // and the test fails on the owner's panic instead of hanging.
            let owner_gone = AtomicBool::new(false);
            let (q, consumed, owner_gone) = (&q, &consumed, &owner_gone);
            let open = || {
                consumed.load(Ordering::Acquire) < total && !owner_gone.load(Ordering::Acquire)
            };
            let drain = |take: &dyn Fn() -> Option<usize>, got: &mut Vec<usize>| {
                while open() {
                    match take() {
                        Some(v) => {
                            got.push(v);
                            consumed.fetch_add(1, Ordering::AcqRel);
                        }
                        None => std::thread::yield_now(),
                    }
                }
            };
            let mut all = std::thread::scope(|s| {
                let mut handles = Vec::new();
                for p in 0..2 {
                    let base = own + p * remote;
                    s.spawn(move || (base..base + remote).for_each(|v| q.push(v, false)));
                }
                for _ in 0..2 {
                    handles.push(s.spawn(move || {
                        let mut got = Vec::new();
                        drain(&|| q.steal(), &mut got);
                        got
                    }));
                }
                let _gone = SetOnDrop(owner_gone);
                let mut got = Vec::new();
                for v in 0..own {
                    q.push(v, true);
                    if v % pop_every == 0 {
                        if let Some(v) = q.pop() {
                            got.push(v);
                            consumed.fetch_add(1, Ordering::AcqRel);
                        }
                    }
                }
                drain(&|| q.pop(), &mut got);
                for h in handles {
                    got.extend(h.join().unwrap());
                }
                got
            });
            all.sort_unstable();
            prop_assert_eq!(all, (0..total).collect::<Vec<_>>());
        }
    }
}
