//! Cost model for the Jade runtime's own overheads on the iPSC/860.
//!
//! The iPSC "does not support the fine-grained communication required for
//! efficient task management" (paper Section 5.2.2): every scheduling action
//! is a software message with interrupt-driven handlers, so per-task
//! management costs are several times the DASH costs. Constants are
//! calibrated against the paper's Figure 20/21 work-free fractions and the
//! Ocean/Cholesky execution-time tables (see EXPERIMENTS.md §calibration):
//! creation, scheduling and completion handling together cost main about
//! 1.65 ms per task.

use dsim::SimDuration;
use jade_core::AccessSpec;

/// Main-thread cost to create one task (access-spec section, task
/// descriptor allocation, synchronizer insertion).
pub(crate) const CREATE: SimDuration = SimDuration::from_micros(600);

/// Main-processor cost of one scheduling decision (load scan, pool
/// management).
pub(crate) const SCHED: SimDuration = SimDuration::from_micros(250);

/// Payload size of a task-assignment message (task descriptor plus access
/// specification).
pub(crate) const ASSIGN_BYTES: usize = 256;

/// Interrupt-handler cost on a processor receiving an assignment, per
/// message.
pub(crate) const RECV_HANDLER: SimDuration = SimDuration::from_micros(100);

/// Cost of composing and sending one object-request message (charged to the
/// requesting processor, serially per request; the *transfers* themselves
/// proceed concurrently).
pub(crate) const REQUEST_SEND: SimDuration = SimDuration::from_micros(50);

/// Payload size of an object-request message.
pub(crate) const REQUEST_BYTES: usize = 32;

/// Per-object header entry inside a coalesced (aggregated) request or reply:
/// object id, version, offset and length of that object's payload within
/// the bundled message. Feeds the Section 5.3 break-even test: coalescing
/// saves fixed per-message costs but pays for these entries at the link
/// bandwidth.
pub(crate) const AGG_ENTRY_BYTES: usize = 16;

/// Handler cost on a processor receiving an object reply.
pub(crate) const OBJECT_RECV: SimDuration = SimDuration::from_micros(50);

/// Completion-processing cost on the executing processor.
pub(crate) const COMPLETE: SimDuration = SimDuration::from_micros(150);

/// Payload size of a completion-notification message.
pub(crate) const NOTIFY_BYTES: usize = 32;

/// Main-processor cost to process a completion notification (remove queue
/// entries, enable successors, pull from the unassigned pool).
pub(crate) const NOTIFY_HANDLER: SimDuration = SimDuration::from_micros(800);

/// The serialized size of the dependence state a checkpoint captures, in
/// the paper runtime's form: per object, the queue of declarations tasks
/// still hold. Kept from counters, as no synchronizer runs. The layout is
/// a header; 9 bytes per registered task; 4 per object; and 10 per held
/// declaration, 4 under its task and 6 as its queue's entry.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SnapshotSize {
    tasks: usize,
    /// Declarations of registered tasks, and of completed ones.
    declared: usize,
    retired: usize,
    /// 1 + the largest object index registered: the object table's length.
    queues: usize,
}

/// Magic, version, replication flag, window base and the two table counts.
const SNAPSHOT_HEADER: usize = 4 + 2 + 1 + 4 + 4 + 4;

impl SnapshotSize {
    /// Count the next task in serial order, of specification `spec`, as
    /// registered. Registration may lag behind completion, but every
    /// completed task must be registered before [`encoded_len`](Self::encoded_len).
    pub(crate) fn register(&mut self, spec: &AccessSpec) {
        self.tasks += 1;
        self.declared += spec.len();
        for d in spec.decls() {
            self.queues = self.queues.max(d.object.index() + 1);
        }
    }

    /// Count a task of specification `spec` as completed.
    pub(crate) fn complete(&mut self, spec: &AccessSpec) {
        self.retired += spec.len();
    }

    /// Number of tasks registered.
    pub(crate) fn task_count(&self) -> usize {
        self.tasks
    }

    pub(crate) fn encoded_len(&self) -> usize {
        SNAPSHOT_HEADER + 9 * self.tasks + 10 * (self.declared - self.retired) + 4 * self.queues
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jade_core::{Countdown, NullSink, ObjectId, TaskId};

    /// Per seed: the final `encoded_len` of [`drive`] and its sum over every
    /// capture. Recorded while the queue synchronizer was still in the
    /// tree, whose snapshots encoded to these lengths at every capture.
    #[rustfmt::skip]
    const TABLE: [(u64, usize, usize); 8] = [
        (0, 418, 2818), (3, 433, 2445), (6, 772, 4340), (9, 239, 239),
        (12, 458, 976), (15, 592, 1776), (18, 1011, 3073), (21, 416, 10038),
    ];

    /// A seeded program of 5 to 44 tasks over 7 objects, all registered,
    /// then a seeded number of completions of enabled tasks, capturing
    /// (registering lazily, as the simulator does) after a third of them
    /// and at the end.
    fn drive(seed: u64) -> (usize, usize) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let n = 5 + next() % 40;
        let specs: Vec<AccessSpec> = (0..n)
            .map(|_| {
                let mut s = AccessSpec::new();
                for _ in 0..next() % 5 {
                    let obj = ObjectId((next() % 7) as u32);
                    match next() % 3 {
                        0 => s.rd(obj),
                        1 => s.wr(obj),
                        _ => s.rd_wr(obj),
                    };
                }
                s
            })
            .collect();
        let mut deps = Countdown::default();
        deps.rebuild(specs.iter(), seed % 4 != 3);
        let mut enabled: Vec<TaskId> = (0..n as u32)
            .map(TaskId)
            .filter(|&id| deps.add_task_traced(id, &mut NullSink, 0, 0))
            .collect();
        let mut size = SnapshotSize::default();
        let capture = |size: &mut SnapshotSize| {
            while size.task_count() < n {
                size.register(&specs[size.task_count()]);
            }
            size.encoded_len()
        };
        let mut sum = 0;
        for _ in 0..next() % (2 * n) {
            if enabled.is_empty() {
                break;
            }
            let t = enabled.swap_remove(next() % enabled.len());
            let mut newly = Vec::new();
            deps.complete_traced(t, &[], &mut newly, &mut NullSink, 0, 0);
            size.complete(&specs[t.index()]);
            enabled.extend(newly);
            if next().is_multiple_of(3) {
                sum += capture(&mut size);
            }
        }
        let last = capture(&mut size);
        (last, sum + last)
    }

    #[test]
    fn snapshot_size_reproduces_its_table() {
        let got: Vec<_> = TABLE
            .iter()
            .map(|&(seed, ..)| {
                let (last, sum) = drive(seed);
                (seed, last, sum)
            })
            .collect();
        assert_eq!(got, TABLE);
    }
}
