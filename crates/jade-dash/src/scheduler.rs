//! The shared-memory task scheduler (paper Section 3.2.1).
//!
//! At the *Locality* optimization level there is one task queue per
//! processor, structured as a queue of **object task queues**: one queue per
//! locality object, owned by the processor in whose memory module the object
//! is allocated. Enabled tasks enter the object task queue of their locality
//! object; a processor takes the first task of its first object task queue,
//! and an idle processor with nothing local cyclically searches other
//! processors' queues and steals the **last** task of the **last** object
//! task queue (preserving the cache-locality of the victim's front runs).
//!
//! At the *No Locality* level the scheduler is a single shared FIFO queue.
//!
//! Explicitly placed tasks (the *Task Placement* level) are pinned: they
//! enter a per-processor pinned queue and are never stolen.
//!
//! An object task queue owns nothing: each processor has a table of queue
//! ends indexed by locality object (slot 0 for tasks without one, slot
//! `o + 1` for object `o`), and a queue's tasks are a doubly-linked list
//! through one table indexed by task id — a task is in at most one queue.
//! A queue that drains and fills again allocates nothing; no look-up hashes.

use dsim::SimTime;
pub use jade_core::LocalityMode;
use jade_core::{ObjectId, ProcId, TaskId, Trace};
use std::collections::VecDeque;

/// End of a list / empty queue.
const NIL: u32 = u32::MAX;

/// A task's place in its object task queue.
#[derive(Clone, Copy, Debug)]
struct Link {
    prev: u32,
    next: u32,
    enqueued: SimTime,
}

/// First and last task of one object task queue (`NIL`, both, when empty).
#[derive(Clone, Copy, Debug)]
struct Ends {
    head: u32,
    tail: u32,
}

impl Ends {
    const EMPTY: Ends = Ends {
        head: NIL,
        tail: NIL,
    };
}

#[derive(Default, Debug)]
struct ProcQueue {
    /// Explicitly placed tasks; never stolen.
    pinned: VecDeque<TaskId>,
    /// Slots of the non-empty object task queues, in arrival order.
    order: VecDeque<u32>,
    by_obj: Vec<Ends>,
    len: usize,
}

/// The dense slot of a locality object (`None`: the nil-object queue).
fn slot_of(obj: Option<ObjectId>) -> usize {
    obj.map_or(0, |o| o.index() + 1)
}

// Invariant: `order` lists exactly the slots whose queue is non-empty, each
// once (`push` lists a slot when it puts a first task there; both pops
// delist a slot when they take its last).
impl ProcQueue {
    fn push(&mut self, links: &mut Vec<Link>, slot: usize, task: TaskId, now: SimTime) {
        if slot >= self.by_obj.len() {
            self.by_obj.resize(slot + 1, Ends::EMPTY);
        }
        let q = &mut self.by_obj[slot];
        let link = Link {
            prev: q.tail,
            next: NIL,
            enqueued: now,
        };
        if task.index() >= links.len() {
            // The fill is never read: a link is written when its task queues.
            links.resize(task.index() + 1, link);
        }
        links[task.index()] = link;
        match q.tail {
            NIL => {
                q.head = task.0;
                self.order.push_back(slot as u32);
            }
            tail => links[tail as usize].next = task.0,
        }
        q.tail = task.0;
        self.len += 1;
    }

    fn pop_first(&mut self, links: &mut [Link]) -> Option<TaskId> {
        if let Some(t) = self.pinned.pop_front() {
            self.len -= 1;
            return Some(t);
        }
        let q = &mut self.by_obj[*self.order.front()? as usize];
        let t = q.head;
        q.head = links[t as usize].next;
        match q.head {
            NIL => {
                q.tail = NIL;
                self.order.pop_front();
            }
            head => links[head as usize].prev = NIL,
        }
        self.len -= 1;
        Some(TaskId(t))
    }

    /// Steal the last task of the last object task queue.
    fn pop_last(&mut self, links: &mut [Link]) -> Option<TaskId> {
        let q = &mut self.by_obj[*self.order.back()? as usize];
        let t = q.tail;
        q.tail = links[t as usize].prev;
        match q.tail {
            NIL => {
                q.head = NIL;
                self.order.pop_back();
            }
            tail => links[tail as usize].next = NIL,
        }
        self.len -= 1;
        Some(TaskId(t))
    }

    /// Age of the oldest stealable (non-pinned) task.
    fn oldest_enqueue(&self, links: &[Link]) -> Option<SimTime> {
        self.order
            .iter()
            .map(|&slot| links[self.by_obj[slot as usize].head as usize].enqueued)
            .min()
    }

    fn stealable_len(&self) -> usize {
        self.len - self.pinned.len()
    }
}

/// The DASH task scheduler.
pub struct DashScheduler {
    mode: LocalityMode,
    shared: VecDeque<TaskId>,
    procs: Vec<ProcQueue>,
    /// Every queued task's place in its object task queue, by task id.
    links: Vec<Link>,
    /// How many queued tasks sit in object task queues (not pinned, not in
    /// the shared queue): when none does, a thief need not visit anybody.
    stealable: usize,
    /// Number of successful steals (reported in run results).
    pub steals: u64,
}

impl DashScheduler {
    pub fn new(mode: LocalityMode, nprocs: usize) -> DashScheduler {
        DashScheduler {
            mode,
            shared: VecDeque::new(),
            procs: (0..nprocs).map(|_| ProcQueue::default()).collect(),
            links: Vec::new(),
            stealable: 0,
            steals: 0,
        }
    }

    /// A scheduler about to run `trace`: the tables it would grow into are
    /// sized once. Behaves exactly like [`DashScheduler::new`].
    pub fn for_trace(mode: LocalityMode, nprocs: usize, trace: &Trace) -> DashScheduler {
        let mut sched = DashScheduler::new(mode, nprocs);
        if mode.uses_locality() {
            sched.links.reserve(trace.tasks.len());
            for pq in &mut sched.procs {
                pq.by_obj.reserve(trace.objects.len() + 1);
            }
        }
        sched
    }

    pub fn mode(&self) -> LocalityMode {
        self.mode
    }

    /// Insert an enabled task. `target` is the owner of the task's locality
    /// object; `pinned` marks an explicit placement being honored.
    pub fn insert(
        &mut self,
        task: TaskId,
        target: ProcId,
        locality_obj: Option<ObjectId>,
        pinned: bool,
        now: SimTime,
    ) {
        if !self.mode.uses_locality() {
            self.shared.push_back(task);
            return;
        }
        let pq = &mut self.procs[target];
        if pinned {
            pq.pinned.push_back(task);
            pq.len += 1;
        } else {
            // Tasks with an empty access spec have no locality object; they
            // share the target's nil-object queue.
            pq.push(&mut self.links, slot_of(locality_obj), task, now);
            self.stealable += 1;
        }
    }

    /// Take the next task for processor `p` from its own queue.
    pub fn pop_local(&mut self, p: ProcId) -> Option<TaskId> {
        if !self.mode.uses_locality() {
            return self.shared.pop_front();
        }
        let pq = &mut self.procs[p];
        // Pinned tasks go first.
        let from_object_queue = pq.pinned.is_empty();
        let t = pq.pop_first(&mut self.links)?;
        self.stealable -= usize::from(from_object_queue);
        Some(t)
    }

    /// Attempt a steal for idle processor `thief`: cyclically search other
    /// processors, taking the last task of the last object task queue.
    ///
    /// To avoid pathological early steals of tasks that are about to be run
    /// by their own (momentarily busy) processor, a victim is eligible when
    /// it has at least two stealable tasks, or when its oldest stealable
    /// task has waited since before `patience_cutoff`. This models the scan
    /// latency of the real distributed stealing protocol.
    pub fn steal(&mut self, thief: ProcId, patience_cutoff: SimTime) -> Option<(TaskId, ProcId)> {
        if self.stealable == 0 {
            return None;
        }
        let n = self.procs.len();
        for k in 1..n {
            let victim = (thief + k) % n;
            let pq = &self.procs[victim];
            let eligible = pq.stealable_len() >= 2
                || (pq.oldest_enqueue(&self.links)).is_some_and(|e| e <= patience_cutoff);
            if eligible {
                if let Some(t) = self.procs[victim].pop_last(&mut self.links) {
                    self.stealable -= 1;
                    self.steals += 1;
                    return Some((t, victim));
                }
            }
        }
        None
    }

    /// True if any stealable task exists anywhere (used to decide whether an
    /// idle processor should schedule a retry).
    pub fn any_stealable(&self) -> bool {
        if !self.mode.uses_locality() {
            return !self.shared.is_empty();
        }
        self.stealable > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime(0);

    /// Check the bookkeeping invariants (test support): `order` against the
    /// table, every list against its back links, `len` against both.
    fn check_invariants(pq: &ProcQueue, links: &[Link]) {
        let mut listed: Vec<u32> = pq.order.iter().copied().collect();
        listed.sort_unstable();
        let live: Vec<u32> = (0..pq.by_obj.len() as u32)
            .filter(|&slot| pq.by_obj[slot as usize].head != NIL)
            .collect();
        assert_eq!(listed, live, "order and by_obj disagree on the live queues");
        let mut tasks = 0;
        for q in &pq.by_obj {
            let (mut prev, mut t) = (NIL, q.head);
            while t != NIL {
                assert_eq!(links[t as usize].prev, prev, "back link of task {t}");
                tasks += 1;
                (prev, t) = (t, links[t as usize].next);
            }
            assert_eq!(q.tail, prev, "tail out of sync");
        }
        assert_eq!(pq.len, pq.pinned.len() + tasks, "len out of sync");
    }

    fn o(n: u32) -> Option<ObjectId> {
        Some(ObjectId(n))
    }

    #[test]
    fn shared_fifo_order() {
        let mut s = DashScheduler::new(LocalityMode::NoLocality, 4);
        s.insert(TaskId(0), 1, o(0), false, T0);
        s.insert(TaskId(1), 2, o(1), false, T0);
        assert_eq!(s.pop_local(3), Some(TaskId(0)));
        assert_eq!(s.pop_local(0), Some(TaskId(1)));
        assert_eq!(s.pop_local(0), None);
    }

    #[test]
    fn object_queue_fifo_within_object() {
        let mut s = DashScheduler::new(LocalityMode::Locality, 2);
        s.insert(TaskId(0), 0, o(5), false, T0);
        s.insert(TaskId(1), 0, o(5), false, T0);
        s.insert(TaskId(2), 0, o(6), false, T0);
        // First task of first object task queue.
        assert_eq!(s.pop_local(0), Some(TaskId(0)));
        assert_eq!(s.pop_local(0), Some(TaskId(1)));
        assert_eq!(s.pop_local(0), Some(TaskId(2)));
    }

    #[test]
    fn steal_takes_last_of_last() {
        let mut s = DashScheduler::new(LocalityMode::Locality, 2);
        s.insert(TaskId(0), 0, o(5), false, T0);
        s.insert(TaskId(1), 0, o(5), false, T0);
        s.insert(TaskId(2), 0, o(6), false, T0);
        let (t, victim) = s.steal(1, T0).unwrap();
        assert_eq!(victim, 0);
        assert_eq!(t, TaskId(2), "steals from the LAST object task queue");
        let (t2, _) = s.steal(1, T0).unwrap();
        assert_eq!(t2, TaskId(1), "steals the LAST task of the queue");
        assert_eq!(s.steals, 2);
    }

    #[test]
    fn single_fresh_task_not_stolen_before_patience() {
        let mut s = DashScheduler::new(LocalityMode::Locality, 2);
        s.insert(TaskId(0), 0, o(5), false, SimTime(1000));
        // Patience cutoff earlier than enqueue time: not eligible.
        assert!(s.steal(1, SimTime(500)).is_none());
        // Cutoff after enqueue: eligible.
        assert_eq!(s.steal(1, SimTime(1000)).unwrap().0, TaskId(0));
    }

    #[test]
    fn pinned_tasks_never_stolen() {
        let mut s = DashScheduler::new(LocalityMode::TaskPlacement, 2);
        s.insert(TaskId(0), 0, o(5), true, T0);
        assert!(s.steal(1, SimTime(u64::MAX / 2)).is_none());
        assert_eq!(s.pop_local(0), Some(TaskId(0)));
    }

    #[test]
    fn steal_search_is_cyclic() {
        let mut s = DashScheduler::new(LocalityMode::Locality, 4);
        s.insert(TaskId(0), 1, o(1), false, T0);
        s.insert(TaskId(1), 3, o(3), false, T0);
        // Thief 2 searches 3, 0, 1: finds proc 3 first.
        let (t, victim) = s.steal(2, T0).unwrap();
        assert_eq!((t, victim), (TaskId(1), 3));
    }

    #[test]
    fn no_locality_never_steals() {
        let mut s = DashScheduler::new(LocalityMode::NoLocality, 2);
        s.insert(TaskId(0), 0, o(0), false, T0);
        assert!(s.steal(1, SimTime(u64::MAX / 2)).is_none());
        assert!(s.any_stealable()); // shared queue is "stealable" work
    }

    #[test]
    fn task_without_locality_object() {
        let mut s = DashScheduler::new(LocalityMode::Locality, 2);
        s.insert(TaskId(0), 1, None, false, T0);
        assert_eq!(s.pop_local(1), Some(TaskId(0)));
    }

    /// Regression test for the `order`/`by_obj` bookkeeping: drive a long
    /// pseudo-random interleaving of inserts, local pops and steals —
    /// including repeated objects, pinned tasks, nil locality objects and
    /// the shrink-to-empty / regrow transitions — checking the structural
    /// invariant after every operation and full conservation at the end.
    #[test]
    fn random_interleavings_keep_order_and_by_obj_in_sync() {
        let mut s = DashScheduler::new(LocalityMode::Locality, 4);
        let mut lcg = 0x2545F4914F6CDD1Du64;
        let mut rnd = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) as usize
        };
        let mut inserted = 0usize;
        let mut popped = Vec::new();
        for step in 0..20_000 {
            match rnd() % 10 {
                // Weighted toward inserts early, drains late.
                0..=4 => {
                    let target = rnd() % 4;
                    // Few distinct objects => queues repeatedly drain to
                    // empty and regrow; `None` exercises the nil id.
                    let obj = match rnd() % 5 {
                        4 => None,
                        n => Some(ObjectId(n as u32)),
                    };
                    let pinned = rnd() % 8 == 0;
                    s.insert(TaskId(inserted as u32), target, obj, pinned, SimTime(step));
                    inserted += 1;
                }
                5..=7 => {
                    if let Some(t) = s.pop_local(rnd() % 4) {
                        popped.push(t);
                    }
                }
                _ => {
                    let cutoff = SimTime(step.saturating_sub(rnd() as u64 % 100));
                    if let Some((t, _victim)) = s.steal(rnd() % 4, cutoff) {
                        popped.push(t);
                    }
                }
            }
            for pq in &s.procs {
                check_invariants(pq, &s.links);
            }
            let stealable: usize = s.procs.iter().map(|pq| pq.stealable_len()).sum();
            assert_eq!(s.stealable, stealable, "stealable counter out of sync");
        }
        // Drain whatever is left and account for every task exactly once.
        for p in 0..4 {
            while let Some(t) = s.pop_local(p) {
                popped.push(t);
            }
        }
        assert_eq!(popped.len(), inserted, "tasks lost or duplicated");
        popped.sort();
        popped.dedup();
        assert_eq!(popped.len(), inserted, "a task was popped twice");
        for pq in &s.procs {
            check_invariants(pq, &s.links);
            assert_eq!(pq.len, 0);
        }
    }
}
