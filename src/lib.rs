//! # jade — an implicitly parallel task runtime driven by data access information
//!
//! A from-scratch Rust reproduction of *"Communication Optimizations for
//! Parallel Computing Using Data Access Information"* (Rinard, SC'95), the
//! Jade language paper. This façade crate re-exports the whole workspace:
//!
//! * [`core`] — the programming model: shared objects, access
//!   specifications, the `withonly` task construct, the queue-based
//!   synchronizer, serial execution + trace recording;
//! * [`threads`] — a real parallel executor on OS threads, plus the
//!   multi-tenant [`JadeService`] front end (admission control,
//!   deadlines, tenant fault isolation; DESIGN.md §16);
//! * [`dash`] — the simulated shared-memory machine (Stanford
//!   DASH) with the locality-heuristic scheduler;
//! * [`ipsc`] — the simulated message-passing machine (Intel
//!   iPSC/860) with replication, concurrent fetches, adaptive broadcast and
//!   latency hiding;
//! * [`apps`] — the paper's applications: Water, String, Ocean,
//!   Panel Cholesky;
//! * [`dsim`] — the discrete-event simulation substrate.
//!
//! See README.md for a tour and DESIGN.md / EXPERIMENTS.md for the
//! reproduction methodology.

pub use dsim;
pub use jade_apps as apps;
pub use jade_core as core;
pub use jade_dash as dash;
pub use jade_ipsc as ipsc;
pub use jade_threads as threads;

pub use jade_core::{
    AccessMode, AccessSpec, Handle, JadeRuntime, LocalityMode, ObjectId, Store, Synchronizer,
    TaskBuilder, TaskCtx, TaskDef, TaskId, TenantId, Trace, TraceRuntime,
};
pub use jade_threads::{
    JadeService, Outcome, Program, ServiceConfig, ShedPolicy, SubmitError, TenantOptions,
    TenantReport, ThreadRuntime,
};
