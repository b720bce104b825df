//! Typed errors for the DASH simulation entry points.
//!
//! Mirrors `jade_ipsc::IpscError`: a malformed configuration or a wedged
//! event loop surfaces as a [`DashError`] through [`crate::try_run`] /
//! [`crate::try_run_traced`] instead of panicking inside the simulator.

use std::fmt;

/// Why a DASH simulation could not produce a result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DashError {
    /// The configuration requested a machine with zero processors.
    NoProcessors,
    /// The fault plan is malformed (bad probability, or a component that
    /// cannot apply to a shared-memory machine).
    InvalidFaultPlan(String),
    /// The machine/cost configuration is unusable (a zero cluster size,
    /// line size or clock rate, a negative or non-finite runtime cost or
    /// compute cost, oversized jitter): left unchecked these poison
    /// virtual-time arithmetic deep in the event loop.
    InvalidMachine(String),
    /// The event calendar drained before the program completed: `live_tasks`
    /// tasks never finished. Indicates a scheduler bug, not an injected
    /// fault — transient stalls only shift task spans.
    Stalled { live_tasks: usize },
}

impl fmt::Display for DashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DashError::NoProcessors => write!(f, "need at least one processor"),
            DashError::InvalidFaultPlan(why) => write!(f, "invalid fault plan: {why}"),
            DashError::InvalidMachine(why) => write!(f, "invalid machine config: {why}"),
            DashError::Stalled { live_tasks } => {
                write!(f, "simulation stalled: {live_tasks} tasks never completed")
            }
        }
    }
}

impl std::error::Error for DashError {}
