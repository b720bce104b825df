//! The work-stealing ready queue of the thread executor: a vendored
//! lock-free Chase-Lev deque per worker, paired with a small locked inbox
//! for pushes from other threads ([`TaskQueue`]).
//!
//! This module is the **only** place in the workspace's library crates
//! where `unsafe` appears (the crate root is `#![deny(unsafe_code)]`; this
//! module opts back in). The full safety argument lives in DESIGN.md §13;
//! the load-bearing facts are inlined next to each `unsafe` block.
//!
//! # The Chase-Lev deque, in brief
//!
//! One *owner* thread pushes and pops at the **bottom** of a growable ring
//! buffer; any number of *thief* threads steal from the **top**. `top` only
//! ever moves forward via compare-and-swap, `bottom` is written only by the
//! owner. The memory orderings follow Lê, Pop, Cohen & Nardelli,
//! "Correct and Efficient Work-Stealing for Weak Memory Models" (PPoPP'13),
//! which proved the C11 orderings used here.
//!
//! Two Rust-specific choices remove most of the classical `unsafe` surface:
//!
//! * **Slots are `AtomicUsize`.** Elements are batch-local task indices
//!   (`usize`), so every slot read/write is a relaxed atomic access — the
//!   benign data race of the classical implementation (a thief reading a
//!   slot the owner concurrently overwrites, discarded by the failing CAS)
//!   is well-defined here instead of UB, and a torn read is impossible.
//! * **Retired rings are kept until drop.** Growth allocates a new ring and
//!   publishes it with a release store; the old ring is *not* freed — every
//!   ring ever allocated is owned by the `rings` graveyard and deallocated
//!   only in `Drop`, which takes `&mut self` and therefore cannot race any
//!   reader. A thief holding a stale ring pointer reads stale-but-owned
//!   memory, and its stale value is discarded by the `top` CAS.
//!
//! The remaining `unsafe` is exactly the dereference of the published ring
//! pointer.
//!
//! # Remote pushes: the inject inbox
//!
//! Chase-Lev bottom operations are owner-only, but the scheduler pushes
//! work onto *other* workers' queues (locality routing, recovery
//! re-queueing). [`TaskQueue`] pairs each Chase-Lev deque with a small
//! locked **inbox**: remote pushes append there, the owner drains it into
//! its deque when the deque runs dry, and thieves may also steal directly
//! from a victim's inbox (so work parked in an inbox whose owner never goes
//! idle — e.g. it is spinning inside a long task — is still reachable and
//! the scheduler cannot deadlock). The inbox is locked, but it is off the
//! owner's fast path: equilibrium dispatch on the owning worker never
//! touches it.

#![allow(unsafe_code)]

use crate::lock;
use std::sync::atomic::{AtomicIsize, AtomicPtr, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A power-of-two ring of atomic slots. Indexed by the *unwrapped*
/// monotone top/bottom counters; the mask wraps them.
struct Ring {
    mask: usize,
    slots: Box<[AtomicUsize]>,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        debug_assert!(capacity.is_power_of_two());
        Ring {
            mask: capacity - 1,
            slots: (0..capacity).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Relaxed slot read. Ordering is carried by `top`/`bottom`, never by
    /// the slot itself (LBCN §3); relaxed atomics make the classical
    /// "benign race" well-defined instead of UB.
    fn get(&self, i: isize) -> usize {
        self.slots[i as usize & self.mask].load(Ordering::Relaxed)
    }

    fn put(&self, i: isize, v: usize) {
        self.slots[i as usize & self.mask].store(v, Ordering::Relaxed);
    }
}

/// The vendored Chase-Lev deque over `usize` elements. Owner-only
/// `push`/`pop` at the bottom; any thread may `steal` from the top.
pub(crate) struct ChaseLev {
    /// Next index a thief will steal. Monotone non-decreasing; advanced
    /// only by successful CAS, so an observed value can never recur — the
    /// classical ABA hazard structurally cannot arise (and at one index per
    /// task ever queued, a 64-bit counter cannot overflow in practice).
    top: AtomicIsize,
    /// Next index the owner will push. Written only by the owner.
    bottom: AtomicIsize,
    /// The current ring, always pointing into one of the `Box<Ring>`s owned
    /// by `rings` below. Swapped (release) by the owner on growth.
    ring: AtomicPtr<Ring>,
    /// Owns every ring ever allocated, the current one included. Rings are
    /// deallocated only when the deque itself drops, so any pointer loaded
    /// from `ring` — however stale — refers to live memory for the whole
    /// lifetime of `&self`. Locked only on growth (never on the hot path).
    /// The `Box` is load-bearing: `ring` holds raw pointers into these
    /// allocations, which must not move when the graveyard `Vec` grows.
    #[allow(clippy::vec_box)]
    rings: Mutex<Vec<Box<Ring>>>,
}

impl ChaseLev {
    pub(crate) fn with_capacity(capacity: usize) -> ChaseLev {
        let cap = capacity.max(4).next_power_of_two();
        let first = Box::new(Ring::new(cap));
        let ptr: *mut Ring = Box::as_ref(&first) as *const Ring as *mut Ring;
        ChaseLev {
            top: AtomicIsize::new(0),
            bottom: AtomicIsize::new(0),
            ring: AtomicPtr::new(ptr),
            rings: Mutex::new(vec![first]),
        }
    }

    /// Owner: push `v` at the bottom.
    pub(crate) fn push(&self, v: usize) {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        // SAFETY: every ring ever published is owned by `self.rings` and
        // freed only in `Drop` (`&mut self`), so the pointer is valid.
        // Relaxed is enough here: only the owner swaps the pointer, and we
        // are the owner.
        let mut ring = unsafe { &*self.ring.load(Ordering::Relaxed) };
        if b - t >= ring.capacity() as isize {
            ring = self.grow(b, t, ring);
        }
        ring.put(b, v);
        // Release: a thief acquiring `bottom` sees the slot write above.
        self.bottom.store(b + 1, Ordering::Release);
    }

    /// Owner: pop from the bottom (LIFO). Returns `None` when empty.
    pub(crate) fn pop(&self) -> Option<usize> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        // SAFETY: as in `push` — rings live until `Drop`.
        let ring = unsafe { &*self.ring.load(Ordering::Relaxed) };
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
        let v = ring.get(b);
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
        // SAFETY: rings live until `Drop`. Acquire pairs with the owner's
        // release swap on growth, so a ring published before the observed
        // `bottom` is fully initialized. A *stale* ring is still valid
        // memory (graveyard), and its slot `t` holds the same value the
        // current ring holds at `t`: growth copies `top..bottom`, and the
        // owner never overwrites slot `t & mask` while `t` is live — a push
        // at `b` with `b - t < capacity` cannot alias it, and growth
        // retires the old ring before `b - t` reaches capacity.
        let ring = unsafe { &*self.ring.load(Ordering::Acquire) };
        let v = ring.get(t);
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

    /// Owner: double the ring (from `capacity` to at least `2 * capacity`),
    /// copy the live range `t..b`, publish the new ring, and retire the old
    /// one to the graveyard.
    fn grow(&self, b: isize, t: isize, old: &Ring) -> &Ring {
        let bigger = Box::new(Ring::new(old.capacity() * 2));
        for i in t..b {
            bigger.put(i, old.get(i));
        }
        let ptr: *mut Ring = Box::as_ref(&bigger) as *const Ring as *mut Ring;
        // Keep the new ring alive in the graveyard *before* publishing it.
        lock(&self.rings).push(bigger);
        // Release: thieves that acquire this pointer see the copied slots.
        self.ring.store(ptr, Ordering::Release);
        // SAFETY: `ptr` points into the `Box<Ring>` just moved into
        // `self.rings` (moving a `Box` moves the pointer, not the heap
        // allocation), which outlives `&self`.
        unsafe { &*ptr }
    }

    /// Owner-or-exclusive: pre-size so `n` pushes cannot grow. With `&mut`
    /// there are no concurrent readers, so old rings really are garbage and
    /// the graveyard can be emptied. Returns `true` if it (re)allocated.
    pub(crate) fn reserve(&mut self, n: usize) -> bool {
        debug_assert_eq!(self.len_hint(), 0, "reserve on a non-empty deque");
        let cap = unsafe { &*self.ring.load(Ordering::Relaxed) }.capacity();
        if cap >= n {
            return false;
        }
        *self = ChaseLev::with_capacity(n);
        true
    }
}

/// One worker's ready queue: a Chase-Lev deque plus its inject inbox. The
/// scheduler talks only to this wrapper.
pub(crate) struct TaskQueue {
    deque: ChaseLev,
    /// Remote pushes land here (bottom ops are owner-only); drained by the
    /// owner when its deque runs dry, stealable by thieves.
    inbox: Mutex<Vec<usize>>,
    /// Inbox length, maintained under the lock so pickers can skip an empty
    /// inbox without touching the mutex.
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

    /// Push `local` onto this queue. `owner` is true when the calling
    /// thread is this queue's worker *or* no worker threads are running yet
    /// (batch setup happens-before the spawn of every worker, so the
    /// owner-only bottom push is safe from the setup thread too).
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
    /// inject inbox. Execution order is a scheduling freedom: the
    /// synchronizer enforces every dependence ordering, so only enabled
    /// tasks are ever queued.
    pub(crate) fn pop(&self) -> Option<usize> {
        self.deque.pop().or_else(|| {
            // Deque dry: adopt everything parked in the inbox, then retry.
            // The pop takes the most recently adopted entry; FIFO-vs-LIFO
            // here is again a pure scheduling freedom.
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

    /// Thief-side pick from another worker's queue. The victim's inbox is
    /// also fair game — without that, work injected onto a worker that
    /// never goes idle (it may be spinning inside a task) would be
    /// unreachable and the scheduler could deadlock.
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

    /// True when a scan may skip this queue without locking anything. A
    /// racing push can make the hint stale; the epoch-parking protocol
    /// covers that window.
    pub(crate) fn is_empty_hint(&self) -> bool {
        self.deque.len_hint() == 0 && self.inbox_len.load(Ordering::Acquire) == 0
    }

    /// Exclusive-access reset for arena reuse between batches: drop any
    /// leftovers (an aborted batch may leave entries) and pre-size for `n`
    /// pushes. Returns `true` if storage had to be (re)allocated.
    pub(crate) fn reset(&mut self, n: usize) -> bool {
        // Drain leftovers so top == bottom before reserving.
        while self.deque.pop().is_some() {}
        let inbox = self.inbox.get_mut().unwrap_or_else(|e| e.into_inner());
        inbox.clear();
        *self.inbox_len.get_mut() = 0;
        let mut grew = self.deque.reserve(n);
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
    fn growth_preserves_contents_and_order() {
        let d = ChaseLev::with_capacity(4);
        for i in 0..100 {
            d.push(i);
        }
        // Steal half from the top (oldest first), pop half from the bottom.
        for i in 0..50 {
            assert_eq!(d.steal(), Some(i));
        }
        for i in (50..100).rev() {
            assert_eq!(d.pop(), Some(i));
        }
        assert_eq!(d.len_hint(), 0);
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
    fn reserve_prevents_growth() {
        let mut d = ChaseLev::with_capacity(4);
        assert!(d.reserve(1000));
        assert!(!d.reserve(1000), "second reserve is a no-op");
        let before = lock(&d.rings).len();
        for i in 0..1000 {
            d.push(i);
        }
        assert_eq!(lock(&d.rings).len(), before, "no growth after reserve");
    }

    #[test]
    fn concurrent_steal_loses_nothing_and_duplicates_nothing() {
        // One owner pushes and pops; several thieves steal. Every pushed
        // value must be consumed exactly once.
        const N: usize = 20_000;
        const THIEVES: usize = 3;
        let d = Arc::new(ChaseLev::with_capacity(64));
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
}
