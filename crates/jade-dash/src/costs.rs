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

/// Per-operation Jade runtime overheads on the shared-memory machine.
#[derive(Clone, Copy, Debug)]
pub struct DashCosts {
    /// Main-thread cost to create one task: executing the access
    /// specification section, allocating the task descriptor, and inserting
    /// the declared accesses into the synchronizer's object queues.
    pub create_s: f64,
    /// Scheduler cost to move an enabled task into an object task queue and
    /// for a dispatcher to extract it.
    pub dispatch_s: f64,
    /// Cost, on the executing processor, of completing a task: removing its
    /// queue entries and enabling successors.
    pub complete_s: f64,
    /// Extra cost of a steal (cyclic search plus remote queue access).
    pub steal_s: f64,
    /// How long a lone freshly-queued task must wait before an idle
    /// processor may steal it (models the scan latency of the distributed
    /// stealing protocol; see `DashScheduler::steal`).
    pub steal_patience_s: f64,
}

impl Default for DashCosts {
    fn default() -> Self {
        DashCosts {
            create_s: 300e-6,
            dispatch_s: 100e-6,
            complete_s: 200e-6,
            steal_s: 150e-6,
            steal_patience_s: 100e-6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_positive_and_sub_millisecond() {
        let c = DashCosts::default();
        for v in [c.create_s, c.dispatch_s, c.complete_s, c.steal_s] {
            assert!(v > 0.0 && v < 1e-3);
        }
    }
}
