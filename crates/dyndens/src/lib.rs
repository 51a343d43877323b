//! # dyndens
//!
//! Facade crate for the DynDens dense subgraph maintenance library — a Rust
//! reproduction of *"Dense Subgraph Maintenance under Streaming Edge Weight
//! Updates for Real-time Story Identification"* (VLDB 2012).
//!
//! This crate simply re-exports the individual workspace crates under one
//! roof, so applications only need a single dependency:
//!
//! * [`graph`] — the dynamic weighted entity graph substrate.
//! * [`density`] — density measures `S_n` and threshold families `T_n`.
//! * [`core`] — the [`prelude::DynDens`] engine, dense subgraph index,
//!   heuristics and dynamic threshold adjustment.
//! * [`shard`] — the scale-out subsystem: sharded parallel ingest across
//!   worker threads and non-blocking merged story serving.
//! * [`serve`] — the network serving layer: the versioned wire protocol, the
//!   TCP story server over a `StoryView`, and the polling client/follower.
//! * [`stream`] — entity-annotated post streams, association measures and the
//!   post → edge-weight-update pipeline.
//! * [`workloads`] — synthetic update generators and the planted-story social
//!   media simulator.
//! * [`baselines`] — brute force, Stix, GRASP, recompute and Goldberg
//!   baselines.
//!
//! ## Quick start
//!
//! ```
//! use dyndens::prelude::*;
//!
//! let mut engine = DynDens::new(AvgWeight, DynDensConfig::new(1.0, 5));
//! engine.apply_update(EdgeUpdate::new(VertexId(0), VertexId(1), 1.5));
//! assert_eq!(engine.output_dense_count(), 1);
//! ```
//!
//! See the `examples/` directory at the repository root for complete,
//! runnable scenarios (quick start, end-to-end story identification,
//! community detection, and threshold tuning).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use dyndens_baselines as baselines;
pub use dyndens_core as core;
pub use dyndens_density as density;
pub use dyndens_graph as graph;
pub use dyndens_serve as serve;
pub use dyndens_shard as shard;
pub use dyndens_stream as stream;
pub use dyndens_workloads as workloads;

/// Commonly used items, importable with `use dyndens::prelude::*`.
pub mod prelude {
    pub use dyndens_baselines::{RecomputeBlueprint, TopKPeelingBlueprint};
    pub use dyndens_core::{
        sort_stories, DenseEvent, DynDens, DynDensBlueprint, DynDensConfig, EngineBlueprint,
        EngineStats, MaintenanceEngine, StoryTable,
    };
    pub use dyndens_density::{AvgDegree, AvgWeight, DensityMeasure, SqrtDens, ThresholdFamily};
    pub use dyndens_graph::{DynamicGraph, EdgeUpdate, VertexId, VertexSet};
    pub use dyndens_shard::{
        FsyncPolicy, IngestHandle, MergeReport, PersistenceConfig, RebalanceError, RebalancePolicy,
        Rebalancer, RecoveryReport, ReshapePhase, ShardConfig, ShardFn, ShardedDynDens,
        ShardedFleet, SplitReport, StoryView,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_re_exports_work_together() {
        let mut engine = DynDens::new(AvgWeight, DynDensConfig::new(1.0, 4));
        let events = engine.apply_update(EdgeUpdate::new(VertexId(0), VertexId(1), 2.0));
        assert_eq!(events.len(), 1);
        assert_eq!(engine.dense_count(), 1);
    }
}
