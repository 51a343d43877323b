//! # dyndens-bench
//!
//! Shared infrastructure for the benchmark harness that regenerates every
//! table and figure of the paper's evaluation (Sections 5, 6.2 and 7.3).
//!
//! The actual experiments live in two places:
//!
//! * **harness binaries** (`src/bin/*.rs`, run with
//!   `cargo run --release -p dyndens-bench --bin <name>`) print the same rows
//!   and series the paper reports — one binary per table/figure family;
//! * **criterion benches** (`benches/*.rs`, run with `cargo bench`) measure
//!   the micro-level counterparts (per-update cost, index operations,
//!   threshold adjustment, heuristics, GRASP iterations).
//!
//! This library crate provides the pieces both share: simulated datasets
//! standing in for the paper's Twitter corpora, timing helpers and plain-text
//! table rendering.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod datasets;
pub mod report;
pub mod runner;

pub use datasets::{shard_aligned_stream, unweighted_dataset, weighted_dataset, DatasetSpec};
pub use report::{percentile, Table};
pub use runner::{run_updates, RunMeasurement};
