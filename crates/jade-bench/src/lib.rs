//! # jade-bench — the experiment harness
//!
//! Regenerates **every table and figure** of the paper's evaluation
//! (Section 5) on the simulated machines, printing reproduced numbers next
//! to the paper's published numbers. See the `repro` binary
//! (`cargo run --release -p jade-bench --bin repro -- all`) and
//! EXPERIMENTS.md for the paper-vs-measured record.

#![forbid(unsafe_code)]

pub mod alloc;
pub mod apps;
pub mod experiments;
pub mod harness;
pub mod paper_data;

pub use apps::App;
pub use harness::{Harness, TraceBackend, PROCS};
