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
