//! # jade-core — the Jade programming model in Rust
//!
//! Jade (Rinard, Scales & Lam) is a portable, *implicitly* parallel language:
//! the programmer writes a serial program and declares how blocks of code
//! access shared data; the implementation extracts the concurrency and
//! optimizes the communication. This crate is the machine-independent core
//! of our reproduction of *"Communication Optimizations for Parallel
//! Computing Using Data Access Information"* (SC'95):
//!
//! * [`Store`] — the single mutable shared memory of shared objects;
//! * [`AccessSpec`] / [`TaskBuilder`] — the `withonly` construct and its
//!   access specification section (`rd(o)`, `wr(o)`);
//! * [`DepGraph`] — the dependence analysis that turns access
//!   specifications into concurrency, counted down ([`Countdown`]) by
//!   every backend; [`Synchronizer`] takes the same walk online, task by
//!   task;
//! * [`TraceRuntime`] — serial execution plus trace recording for the
//!   machine simulators (`jade-dash`, `jade-ipsc`);
//! * [`JadeRuntime`] — the portability interface: one application text runs
//!   on every backend;
//! * [`events`] — the unified structured event layer every backend emits,
//!   with the [`Metrics`] aggregator and the [`chrome`] trace exporter.
//!
//! ```
//! use jade_core::{JadeRuntime, TaskBuilder, TraceRuntime};
//!
//! let mut rt = TraceRuntime::new();
//! let xs = rt.create("xs", 8 * 4, vec![1.0f64, 2.0, 3.0, 4.0]);
//! let sum = rt.create("sum", 8, 0.0f64);
//! rt.submit(TaskBuilder::new("sum").rd(xs).wr(sum).body(move |ctx| {
//!     *ctx.wr(sum) = ctx.rd(xs).iter().sum();
//!     ctx.charge(4.0);
//! }));
//! rt.finish();
//! let (store, trace) = rt.into_parts();
//! assert_eq!(*store.read(sum), 10.0);
//! assert_eq!(trace.task_count(), 1);
//! ```

#![forbid(unsafe_code)]

mod access;
mod depgraph;
#[macro_use]
mod macros;
pub mod chrome;
pub mod events;
mod ids;
mod runtime;
mod store;
mod task;
mod trace;
pub mod tune;

pub use access::{AccessDecl, AccessMode, AccessSpec};
pub use depgraph::{Countdown, DepGraph, Synchronizer};
pub use events::{
    check_conservation, check_lifecycle, check_order, Component, Event, EventKind, Locality,
    Metrics, MetricsFold, NullSink, ProcTimes, Sink, TenantId,
};
pub use ids::{Handle, LocalityMode, ObjectId, ProcId, TaskId, MAIN_PROC};
pub use runtime::JadeRuntime;
pub use store::{ReadGuard, Store, WriteGuard};
pub use task::{TaskBody, TaskBuilder, TaskCtx, TaskDef};
pub use trace::{ObjectRecord, TaskRecord, Trace, TraceBuilder, TraceRuntime};
pub use tune::{Controller, Decision, Knob, TuneLog};
