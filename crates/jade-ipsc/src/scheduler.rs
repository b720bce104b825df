//! The centralized message-passing scheduler (paper Section 3.4.3).
//!
//! All tasks are created on the main processor. The scheduler keeps each
//! processor supplied with up to `target_tasks` tasks so it can overlap the
//! fetches for one task with the execution of another (the latency-hiding
//! optimization; `target_tasks == 1` turns it off).
//!
//! * When a task becomes enabled: if every processor already holds the
//!   target number of tasks, the task parks in the **unassigned pool** at
//!   the main processor. Otherwise it is assigned to one of the
//!   least-loaded processors — its target processor if that is among the
//!   least loaded, else an arbitrary least-loaded one.
//! * When a remote processor reports a completed task, the scheduler pulls
//!   from the pool, preferring tasks whose target is that processor.

use dsim::ProcId;
use jade_core::TaskId;
use std::collections::VecDeque;

/// Scheduler decision for an enabled task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Assign to this processor now.
    Assign(ProcId),
    /// Park in the unassigned pool at the main processor.
    Pool,
}

/// Centralized load-tracking scheduler state (lives on the main processor).
pub struct IpscScheduler {
    /// Tasks assigned to (and not yet finished by) each processor.
    loads: Vec<usize>,
    /// Target number of in-flight tasks per processor.
    target_tasks: usize,
    /// Unassigned enabled tasks, FIFO.
    pool: VecDeque<TaskId>,
    /// Honor target-processor preference (false at the No-Locality level).
    prefer_target: bool,
    /// Fail-stopped processors: never assigned to, never pulled for.
    dead: Vec<bool>,
    /// Deterministic LCG for the "arbitrary least-loaded processor" choice,
    /// modeling the arbitrariness of the real scheduler's pick.
    lcg: u64,
    /// Tasks ever pooled (diagnostic).
    pub pooled_total: u64,
}

impl IpscScheduler {
    pub fn new(procs: usize, target_tasks: usize, prefer_target: bool) -> IpscScheduler {
        assert!(target_tasks >= 1);
        IpscScheduler {
            loads: vec![0; procs],
            target_tasks,
            pool: VecDeque::new(),
            prefer_target,
            dead: vec![false; procs],
            lcg: 0x2545F4914F6CDD1D,
            pooled_total: 0,
        }
    }

    pub fn load(&self, p: ProcId) -> usize {
        self.loads[p]
    }

    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// Minimum load over live processors; `None` when every processor is
    /// dead (cannot happen in a simulation — the main processor never
    /// fail-stops — but the scheduler stays total anyway).
    fn min_live_load(&self) -> Option<usize> {
        (0..self.loads.len())
            .filter(|&q| !self.dead[q])
            .map(|q| self.loads[q])
            .min()
    }

    /// Decide where an enabled task goes. `target` is the owner of the
    /// task's locality object at this moment; `placement` is an explicit
    /// programmer placement (honored unconditionally when present and
    /// live; a placement on a dead processor falls back to load-based
    /// assignment).
    pub fn on_enabled(
        &mut self,
        task: TaskId,
        target: ProcId,
        placement: Option<ProcId>,
    ) -> Decision {
        if let Some(p) = placement {
            if !self.dead[p] {
                self.loads[p] += 1;
                return Decision::Assign(p);
            }
        }
        let Some(min_load) = self.min_live_load() else {
            self.pool.push_back(task);
            self.pooled_total += 1;
            return Decision::Pool;
        };
        if min_load >= self.target_tasks {
            self.pool.push_back(task);
            self.pooled_total += 1;
            return Decision::Pool;
        }
        let p = if self.prefer_target && !self.dead[target] && self.loads[target] == min_load {
            target
        } else {
            // "Arbitrary" least-loaded processor: a deterministic LCG pick
            // avoids accidental affinity from always favoring low indices.
            // Count the candidates, then walk to the chosen one.
            self.lcg = self
                .lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let (loads, dead) = (&self.loads, &self.dead);
            let candidates = || (0..loads.len()).filter(|&q| !dead[q] && loads[q] == min_load);
            let pick = (self.lcg >> 33) as usize % candidates().count();
            candidates()
                .nth(pick)
                .expect("pick is below the candidate count")
        };
        self.loads[p] += 1;
        Decision::Assign(p)
    }

    /// A processor finished a task: drop its load. Call before enabling the
    /// task's successors, so they see the freed processor as least-loaded
    /// (the completion processing removes the task first). Completion
    /// notifications from a processor that has since fail-stopped are
    /// ignored — its load book was zeroed by [`Self::fail`].
    pub fn finish(&mut self, p: ProcId) {
        if self.dead[p] {
            return;
        }
        assert!(self.loads[p] > 0, "finish on processor with zero load");
        self.loads[p] -= 1;
    }

    /// Processor `p` fail-stopped: zero its load book and stop assigning to
    /// it. The simulator re-dispatches the orphaned tasks itself (it knows
    /// which ones were in flight).
    pub fn fail(&mut self, p: ProcId) {
        self.dead[p] = true;
        self.loads[p] = 0;
    }

    /// Pull a pooled task for `p` if it is live and below the target count,
    /// preferring tasks targeted at it. `target_of` computes the *current*
    /// target processor of a pooled task (object ownership is dynamic).
    pub fn try_pull(&mut self, p: ProcId, target_of: impl Fn(TaskId) -> ProcId) -> Option<TaskId> {
        if self.dead[p] || self.loads[p] >= self.target_tasks || self.pool.is_empty() {
            return None;
        }
        let idx = if self.prefer_target {
            self.pool
                .iter()
                .position(|&t| target_of(t) == p)
                .unwrap_or(0)
        } else {
            0
        };
        let task = self.pool.remove(idx)?;
        self.loads[p] += 1;
        Some(task)
    }

    /// True when no task remains assigned or pooled.
    pub fn drained(&self) -> bool {
        self.pool.is_empty() && self.loads.iter().all(|&l| l == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u32) -> TaskId {
        TaskId(n)
    }

    #[test]
    fn assigns_to_target_when_least_loaded() {
        let mut s = IpscScheduler::new(4, 1, true);
        assert_eq!(s.on_enabled(t(0), 2, None), Decision::Assign(2));
        assert_eq!(s.load(2), 1);
        // Target 2 now loaded; next task targeted there goes to some other
        // (arbitrary) least-loaded processor.
        match s.on_enabled(t(1), 2, None) {
            Decision::Assign(p) => assert_ne!(p, 2, "target is loaded"),
            d => panic!("expected assignment, got {d:?}"),
        }
    }

    #[test]
    fn pools_when_everyone_full() {
        let mut s = IpscScheduler::new(2, 1, true);
        assert_eq!(s.on_enabled(t(0), 0, None), Decision::Assign(0));
        assert_eq!(s.on_enabled(t(1), 1, None), Decision::Assign(1));
        assert_eq!(s.on_enabled(t(2), 0, None), Decision::Pool);
        assert_eq!(s.pool_len(), 1);
        assert_eq!(s.pooled_total, 1);
    }

    #[test]
    fn pull_prefers_target() {
        let mut s = IpscScheduler::new(2, 1, true);
        s.on_enabled(t(0), 0, None);
        s.on_enabled(t(1), 1, None);
        s.on_enabled(t(2), 1, None); // pooled, target 1
        s.on_enabled(t(3), 0, None); // pooled, target 0
        let targets = |task: TaskId| if task == t(2) { 1 } else { 0 };
        // Processor 1 finishes: prefers the pooled task targeted at 1.
        s.finish(1);
        assert_eq!(s.try_pull(1, targets), Some(t(2)));
        // Processor 0 finishes: takes the remaining one.
        s.finish(0);
        assert_eq!(s.try_pull(0, targets), Some(t(3)));
        assert!(!s.drained()); // two tasks still assigned
    }

    #[test]
    fn pull_fifo_without_preference() {
        let mut s = IpscScheduler::new(2, 1, false);
        s.on_enabled(t(0), 0, None);
        s.on_enabled(t(1), 1, None);
        s.on_enabled(t(2), 1, None);
        s.on_enabled(t(3), 0, None);
        // FIFO pool order regardless of targets.
        s.finish(1);
        assert_eq!(s.try_pull(1, |_| 0), Some(t(2)));
    }

    #[test]
    fn latency_hiding_target_two() {
        let mut s = IpscScheduler::new(2, 2, true);
        assert_eq!(s.on_enabled(t(0), 0, None), Decision::Assign(0));
        assert_eq!(s.on_enabled(t(1), 0, None), Decision::Assign(1));
        assert_eq!(s.on_enabled(t(2), 0, None), Decision::Assign(0));
        assert_eq!(s.on_enabled(t(3), 1, None), Decision::Assign(1));
        assert_eq!(s.on_enabled(t(4), 0, None), Decision::Pool);
    }

    #[test]
    fn placement_bypasses_load_logic() {
        let mut s = IpscScheduler::new(4, 1, true);
        assert_eq!(s.on_enabled(t(0), 0, Some(3)), Decision::Assign(3));
        assert_eq!(s.on_enabled(t(1), 0, Some(3)), Decision::Assign(3));
        assert_eq!(s.load(3), 2);
    }

    #[test]
    fn drained_after_all_finish() {
        let mut s = IpscScheduler::new(2, 1, true);
        s.on_enabled(t(0), 0, None);
        assert!(!s.drained());
        s.finish(0);
        assert_eq!(s.try_pull(0, |_| 0), None);
        assert!(s.drained());
    }
}
