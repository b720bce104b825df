//! # jade-dash — the shared-memory (Stanford DASH) Jade runtime
//!
//! Replays machine-independent Jade program traces (`jade_core::Trace`) on a
//! simulated DASH: a cache-coherent NUMA machine with 4-processor clusters
//! and the Appendix-B latency constants. Implements the paper's
//! shared-memory runtime:
//!
//! * the **locality heuristic** (Section 3.2.1): per-processor task queues
//!   of object task queues, tasks enqueued at the owner of their locality
//!   object, cyclic stealing of the last task of the last queue;
//! * the **No Locality** baseline: a single shared FIFO queue;
//! * **Task Placement**: explicit per-task placements honored and pinned;
//! * demand-driven communication accounting at coherence-line granularity
//!   ([`MemSim`]), which produces the total-task-time curves of Figures 6–9
//!   and the work-free task-management fractions of Figures 10–11.
//!
//! ```
//! use jade_core::{AccessSpec, TraceBuilder};
//! use jade_dash::{run, DashConfig, LocalityMode};
//!
//! let mut b = TraceBuilder::new();
//! let objs: Vec<_> = (0..8).map(|i| b.object(&format!("o{i}"), 1024, Some(i % 4))).collect();
//! for &o in &objs {
//!     let mut s = AccessSpec::new();
//!     s.wr(o);
//!     b.task(s, 1.0);
//! }
//! let trace = b.build();
//! let result = run(&trace, &DashConfig::paper(4, LocalityMode::Locality, 1.0));
//! assert_eq!(result.tasks_executed, 8);
//! assert!(result.exec_time_s < 8.0); // parallel speedup
//! ```

#![forbid(unsafe_code)]

mod costs;
mod memsim;
mod scheduler;
mod sim;

pub use costs::DashCosts;
pub use memsim::MemSim;
pub use scheduler::{DashScheduler, LocalityMode};
pub use sim::{
    run, run_traced, try_run, try_run_folded, try_run_traced, DashConfig, DashRunResult,
};

/// Why a DASH simulation could not produce a result: the one simulator
/// error type. A malformed fault plan is rejected, but the parts of a valid
/// plan a shared-memory machine cannot apply are ignored (see
/// [`DashConfig::faults`]), and DASH never exhausts fetch retries.
pub type DashError = dsim::driver::SimError;
