//! Cost model for the Jade runtime's own overheads on the iPSC/860.
//!
//! The iPSC "does not support the fine-grained communication required for
//! efficient task management" (paper Section 5.2.2): every scheduling action
//! is a software message with interrupt-driven handlers, so per-task
//! management costs are several times the DASH costs. Constants are
//! calibrated against the paper's Figure 20/21 work-free fractions and the
//! Ocean/Cholesky execution-time tables (see EXPERIMENTS.md §calibration).

/// Per-operation Jade runtime overheads on the message-passing machine.
#[derive(Clone, Copy, Debug)]
pub struct IpscCosts {
    /// Main-thread cost to create one task (access-spec section, task
    /// descriptor allocation, synchronizer insertion).
    pub create_s: f64,
    /// Main-processor cost of one scheduling decision (load scan, pool
    /// management).
    pub sched_s: f64,
    /// Payload size of a task-assignment message (task descriptor plus
    /// access specification).
    pub assign_bytes: usize,
    /// Interrupt-handler cost on a processor receiving an assignment,
    /// per message.
    pub recv_handler_s: f64,
    /// Cost of composing and sending one object-request message (charged to
    /// the requesting processor, serially per request; the *transfers*
    /// themselves proceed concurrently).
    pub request_send_s: f64,
    /// Payload size of an object-request message.
    pub request_bytes: usize,
    /// Per-object header entry inside a coalesced (aggregated) request or
    /// reply: object id, version, offset and length of that object's
    /// payload within the bundled message. Feeds the Section 5.3
    /// break-even test: coalescing saves fixed per-message costs but pays
    /// for these entries at the link bandwidth.
    pub agg_entry_bytes: usize,
    /// Handler cost on a processor receiving an object reply.
    pub object_recv_s: f64,
    /// Completion-processing cost on the executing processor.
    pub complete_s: f64,
    /// Payload size of a completion-notification message.
    pub notify_bytes: usize,
    /// Main-processor cost to process a completion notification (remove
    /// queue entries, enable successors, pull from the unassigned pool).
    pub notify_handler_s: f64,
}

impl Default for IpscCosts {
    fn default() -> Self {
        IpscCosts {
            create_s: 600e-6,
            sched_s: 250e-6,
            assign_bytes: 256,
            recv_handler_s: 100e-6,
            request_send_s: 50e-6,
            request_bytes: 32,
            agg_entry_bytes: 16,
            object_recv_s: 50e-6,
            complete_s: 150e-6,
            notify_bytes: 32,
            notify_handler_s: 800e-6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        let c = IpscCosts::default();
        assert!(c.create_s > 0.0 && c.create_s < 5e-3);
        assert!(c.assign_bytes > 0 && c.request_bytes > 0 && c.notify_bytes > 0);
        // Total per-task management on the main processor should be around
        // a millisecond: the calibration target discussed in EXPERIMENTS.md.
        let per_task_main = c.create_s + c.sched_s + c.notify_handler_s;
        assert!((0.5e-3..2e-3).contains(&per_task_main), "{per_task_main}");
    }
}
