//! Cost model for the Jade runtime's own overheads on DASH.
//!
//! The paper measures task management overhead directly (Figures 10 and 11:
//! the "work-free" methodology). These constants are the per-operation costs
//! of the Jade implementation on DASH, calibrated so that the single
//! processor overhead and the work-free fractions land where the paper
//! reports them (see EXPERIMENTS.md §calibration):
//!
//! * Panel Cholesky runs ~15–20% slower under Jade on one processor
//!   (Table 5 vs Table 1) with a few thousand tasks, implying roughly
//!   0.5–1 ms of management per task;
//! * Ocean's work-free fraction climbs to ~60% of a ~10 s run at 32
//!   processors with ~30k tasks, implying ~0.2–0.3 ms of serialized
//!   creation cost per task on the main processor.

use dsim::SimDuration;

/// Main-thread cost to create one task: executing the access specification
/// section, allocating the task descriptor, and inserting the declared
/// accesses into the synchronizer's object queues.
pub(crate) const CREATE: SimDuration = SimDuration::from_micros(300);

/// Scheduler cost to move an enabled task into an object task queue and for
/// a dispatcher to extract it.
pub(crate) const DISPATCH: SimDuration = SimDuration::from_micros(100);

/// Cost, on the executing processor, of completing a task: removing its
/// queue entries and enabling successors.
pub(crate) const COMPLETE: SimDuration = SimDuration::from_micros(200);

/// Extra cost of a steal (cyclic search plus remote queue access).
pub(crate) const STEAL: SimDuration = SimDuration::from_micros(150);

/// How long a lone freshly-queued task must wait before an idle processor
/// may steal it (models the scan latency of the distributed stealing
/// protocol; see `DashScheduler::steal`).
pub(crate) const STEAL_PATIENCE: SimDuration = SimDuration::from_micros(100);
