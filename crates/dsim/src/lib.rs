//! # dsim — deterministic discrete-event simulation substrate
//!
//! The SC'95 evaluation ran on two machines we obviously cannot buy: the
//! Stanford DASH prototype and an Intel iPSC/860 hypercube. This crate is the
//! substitute substrate: a deterministic discrete-event core (virtual
//! [`SimTime`], an event [`Calendar`] with FIFO tie-breaking, per-processor
//! occupancy tracking) plus cost models for both machines built from the
//! latency and bandwidth constants the paper itself publishes in its
//! appendices.
//!
//! The Jade machine runtimes (`jade-dash`, `jade-ipsc`) drive their
//! scheduling and communication algorithms on top of this substrate, through
//! the one [`driver`] that replays Jade's main thread and task lifecycle for
//! both; every number they report is a function of virtual time only, so
//! experiments are exactly reproducible.
//!
//! ```
//! use dsim::{Calendar, SimTime, SimDuration, ProcClock, TimeKind};
//!
//! #[derive(Debug)]
//! enum Ev { Tick(u32) }
//!
//! let mut cal = Calendar::new();
//! let mut procs = ProcClock::new(2);
//! cal.schedule(SimTime::ZERO, Ev::Tick(0));
//! while let Some((t, Ev::Tick(n))) = cal.pop() {
//!     let done = procs.occupy(0, t, SimDuration::from_secs_f64(0.5), TimeKind::App);
//!     if n < 3 { cal.schedule(done, Ev::Tick(n + 1)); }
//! }
//! assert_eq!(procs.horizon(), SimTime::from_secs_f64(2.0));
//! ```

#![forbid(unsafe_code)]

mod calendar;
pub mod driver;
mod fault;
mod machine;
mod proc;
mod stats;
mod time;

pub use calendar::Calendar;
pub use fault::{Copies, FaultInjector, FaultPlan, MessageFate};
pub use machine::{hypercube_dimension, DashHit, DashSpec, IpscSpec, ProcId};
pub use proc::{ProcClock, ProcUsage, TimeKind};
pub use stats::{percent, ratio, Accum};
pub use time::{SimBudget, SimDuration, SimTime, PS_PER_SEC};
