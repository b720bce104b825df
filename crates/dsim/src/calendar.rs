//! The event calendar: a deterministic priority queue of timestamped events.
//!
//! Determinism matters: the paper's experiments must be exactly reproducible
//! from run to run, so ties in virtual time are broken by insertion order
//! (FIFO). The calendar owns the virtual clock; popping an event advances it.
//!
//! Entries live in two heaps that share one sequence counter. Ordinary
//! events go to the main heap, which stays as shallow as the number of
//! events in flight; long-lived timers (an ack timeout outlives the fetch it
//! guards many times over, and most fire to find nothing pending) go to a
//! side heap, so parking thousands of them does not deepen every other push
//! and pop. `pop` takes the smaller `(time, seq)` of the two heads — the
//! order a single heap would give, FIFO ties included.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, on ties, the
        // first-inserted) entry is popped first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event calendar.
///
/// ```
/// use dsim::{Calendar, SimTime, SimDuration};
/// let mut cal = Calendar::new();
/// cal.schedule(SimTime::from_secs_f64(2.0), "late");
/// cal.schedule(SimTime::from_secs_f64(1.0), "early");
/// let (t, ev) = cal.pop().unwrap();
/// assert_eq!(ev, "early");
/// assert_eq!(cal.now(), t);
/// ```
pub struct Calendar<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Entries scheduled with [`Calendar::schedule_timer`].
    timers: BinaryHeap<Entry<E>>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    pub fn new() -> Self {
        Calendar {
            heap: BinaryHeap::new(),
            timers: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current virtual time: the timestamp of the most recently popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Panics if `at` is in the past — scheduling backwards in time would
    /// violate causality and silently corrupt every downstream measurement.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let entry = self.entry(at, event);
        self.heap.push(entry);
    }

    /// Schedule a long-lived timer at absolute time `at`. It pops exactly
    /// where [`Calendar::schedule`] would have put it; only the heap that
    /// holds it in the meantime differs. Panics like `schedule` if `at` is
    /// in the past.
    pub fn schedule_timer(&mut self, at: SimTime, event: E) {
        let entry = self.entry(at, event);
        self.timers.push(entry);
    }

    fn entry(&mut self, at: SimTime, event: E) -> Entry<E> {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={:?} now={:?}",
            at,
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        Entry { at, seq, event }
    }

    /// Schedule `event` at the current virtual time (runs after every event
    /// already queued for `now`).
    pub fn schedule_now(&mut self, event: E) {
        let now = self.now;
        self.schedule(now, event);
    }

    /// Pop the earliest event and advance the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = if self.timer_is_next() {
            self.timers.pop()?
        } else {
            self.heap.pop()?
        };
        debug_assert!(e.at >= self.now);
        self.now = e.at;
        Some((e.at, e.event))
    }

    /// Is the earliest entry overall the head of the timer heap? `Entry`'s
    /// order is inverted for the max-heaps, so the greater head is the
    /// earlier one; sequence numbers are unique, so the heads never tie.
    fn timer_is_next(&self) -> bool {
        match (self.timers.peek(), self.heap.peek()) {
            (Some(timer), Some(event)) => timer > event,
            (Some(_), None) => true,
            (None, _) => false,
        }
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let next = if self.timer_is_next() {
            self.timers.peek()
        } else {
            self.heap.peek()
        };
        next.map(|e| e.at)
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.timers.is_empty()
    }

    pub fn len(&self) -> usize {
        self.heap.len() + self.timers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn orders_by_time() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime(30), 3);
        cal.schedule(SimTime(10), 1);
        cal.schedule(SimTime(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut cal = Calendar::new();
        for i in 0..100 {
            cal.schedule(SimTime(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime(10), ());
        cal.schedule(SimTime(25), ());
        assert_eq!(cal.now(), SimTime::ZERO);
        cal.pop();
        assert_eq!(cal.now(), SimTime(10));
        cal.pop();
        assert_eq!(cal.now(), SimTime(25));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn past_scheduling_panics() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime(10), ());
        cal.pop();
        cal.schedule(SimTime(5), ());
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn past_timer_panics() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime(10), ());
        cal.pop();
        cal.schedule_timer(SimTime(5), ());
    }

    #[test]
    fn timers_pop_in_the_order_one_heap_gives() {
        // The same random interleaving of pushes and pops through a calendar
        // that parks every third entry as a timer, and through one that uses
        // the main heap only. Times are drawn from a small range so that
        // ties, within a heap and across the two, are common.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = move |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let (mut split, mut single) = (Calendar::new(), Calendar::new());
        let mut popped = 0;
        for id in 0..20_000u32 {
            let at = split.now() + SimDuration(draw(50));
            if id % 3 == 0 {
                split.schedule_timer(at, id);
            } else {
                split.schedule(at, id);
            }
            single.schedule(at, id);
            assert_eq!(split.len(), single.len());
            assert_eq!(split.peek_time(), single.peek_time());
            if draw(3) == 0 {
                assert_eq!(split.pop(), single.pop());
                popped += 1;
            }
        }
        while !single.is_empty() {
            assert!(!split.is_empty());
            assert_eq!(split.pop(), single.pop());
            popped += 1;
        }
        assert_eq!(popped, 20_000);
        assert!(split.is_empty());
        assert_eq!(split.pop(), None);
        assert_eq!(split.peek_time(), None);
    }

    #[test]
    fn ties_across_the_two_heaps_are_fifo() {
        let mut cal = Calendar::new();
        for i in 0..100 {
            if i % 2 == 0 {
                cal.schedule_timer(SimTime(5), i);
            } else {
                cal.schedule(SimTime(5), i);
            }
        }
        assert_eq!(cal.len(), 100);
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn len_and_peek_see_parked_timers() {
        let mut cal = Calendar::new();
        cal.schedule_timer(SimTime(7), "timer");
        assert!(!cal.is_empty());
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.peek_time(), Some(SimTime(7)));
        cal.schedule(SimTime(9), "event");
        assert_eq!(cal.peek_time(), Some(SimTime(7)));
        assert_eq!(cal.pop(), Some((SimTime(7), "timer")));
        assert_eq!(cal.peek_time(), Some(SimTime(9)));
    }

    #[test]
    fn schedule_now_runs_after_existing_now_events() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime(10), 1);
        cal.schedule(SimTime(10), 2);
        let (_, first) = cal.pop().unwrap();
        assert_eq!(first, 1);
        cal.schedule_now(3);
        assert_eq!(cal.pop().unwrap().1, 2);
        assert_eq!(cal.pop().unwrap().1, 3);
    }

    #[test]
    fn interleaved_scheduling_stays_deterministic() {
        // Schedule events from within the drain loop: the kind of pattern the
        // machine runtimes use. The result must be a fixed sequence.
        let mut cal = Calendar::new();
        cal.schedule(SimTime(0), 0u64);
        let mut seen = Vec::new();
        while let Some((t, e)) = cal.pop() {
            seen.push(e);
            if e < 5 {
                cal.schedule(t + SimDuration(1), e + 10);
                cal.schedule(t + SimDuration(1), e + 1);
            }
        }
        assert_eq!(seen, vec![0, 10, 1, 11, 2, 12, 3, 13, 4, 14, 5]);
    }
}
