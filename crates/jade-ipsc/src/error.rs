//! Typed errors for the iPSC/860 simulation entry points.
//!
//! Fault injection makes failure a normal outcome: a fault plan can be
//! malformed, can name a processor that cannot die, or can (in principle)
//! starve a fetch past its retry budget. These all surface as [`IpscError`]
//! through [`crate::try_run`] / [`crate::try_run_traced`] instead of
//! panicking inside the event loop.

use jade_core::{ObjectId, TaskId};
use std::fmt;

/// Why an iPSC/860 simulation could not produce a result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IpscError {
    /// The configuration requested a machine with zero processors.
    NoProcessors,
    /// The fault plan is malformed (bad probability, or a fail-stop target
    /// that is the main processor or out of range).
    InvalidFaultPlan(String),
    /// The machine/cost configuration is unusable (non-positive bandwidth,
    /// negative latency or compute cost, a negative or non-finite runtime
    /// cost, oversized jitter, bad speed factor, no room for a task per
    /// processor): left unchecked these poison virtual-time arithmetic or
    /// the scheduler deep in the event loop.
    InvalidMachine(String),
    /// The event calendar drained before the program completed: `live`
    /// tasks never finished. Indicates a protocol bug, not an injected
    /// fault — the recovery machinery is supposed to make progress under
    /// any plan.
    Stalled { live_tasks: usize },
    /// A fetch was retried past the retry budget (statistically unreachable
    /// for drop probabilities ≤ 0.2, but the type is total).
    RetriesExhausted {
        task: TaskId,
        object: ObjectId,
        attempts: u32,
    },
}

impl fmt::Display for IpscError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpscError::NoProcessors => write!(f, "need at least one processor"),
            IpscError::InvalidFaultPlan(why) => write!(f, "invalid fault plan: {why}"),
            IpscError::InvalidMachine(why) => write!(f, "invalid machine config: {why}"),
            IpscError::Stalled { live_tasks } => {
                write!(f, "simulation stalled: {live_tasks} tasks never completed")
            }
            IpscError::RetriesExhausted {
                task,
                object,
                attempts,
            } => write!(
                f,
                "fetch of {object:?} for {task:?} exhausted {attempts} retries"
            ),
        }
    }
}

impl std::error::Error for IpscError {}
