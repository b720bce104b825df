//! # jade-ipsc — the message-passing (Intel iPSC/860) Jade runtime
//!
//! Replays machine-independent Jade program traces (`jade_core::Trace`) on a
//! simulated iPSC/860 hypercube, implementing the full message-passing
//! runtime of paper Sections 3.3–3.4:
//!
//! * a software shared-object layer ([`Communicator`]) with **replication**
//!   of read-shared objects, **concurrent fetches** of a task's remote
//!   objects, and the **adaptive broadcast** protocol for widely-accessed
//!   objects;
//! * a **centralized scheduler** ([`IpscScheduler`]) on the main processor
//!   with dynamic load balancing, target-processor preference (the locality
//!   heuristic), an unassigned-task pool, and a configurable target task
//!   count per processor (the **latency hiding** optimization);
//! * NX/2-style message costing: 47 µs minimum latency, 2.8 MB/s links,
//!   senders busy for the full transfer.
//!
//! ```
//! use jade_core::{AccessSpec, LocalityMode, TraceBuilder};
//! use jade_ipsc::{run, IpscConfig};
//!
//! let mut b = TraceBuilder::new();
//! let objs: Vec<_> = (0..8).map(|i| b.object(&format!("o{i}"), 1024, Some(i % 4))).collect();
//! for &o in &objs {
//!     let mut s = AccessSpec::new();
//!     s.wr(o);
//!     b.task(s, 1.0);
//! }
//! let trace = b.build();
//! let result = run(&trace, &IpscConfig::paper(4, LocalityMode::Locality, 1.0));
//! assert_eq!(result.tasks_executed, 8);
//! ```

#![forbid(unsafe_code)]

mod communicator;
mod costs;
mod scheduler;
mod sim;

pub use communicator::{CommSnapshot, Communicator, ObjectTraffic};
pub use costs::IpscCosts;
pub use jade_core::LocalityMode;
pub use scheduler::{Decision, IpscScheduler};
pub use sim::{
    run, run_traced, try_run, try_run_folded, try_run_traced, IpscConfig, IpscRunResult,
    PinnedSchedule,
};

/// Why an iPSC/860 simulation could not produce a result: the one simulator
/// error type. Fault injection makes failure a normal outcome — a plan can
/// be malformed, can name a processor that cannot die, or can (in
/// principle) starve a fetch past its retry budget.
pub type IpscError = dsim::driver::SimError;
