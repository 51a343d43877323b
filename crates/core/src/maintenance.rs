//! The pluggable maintenance-backend seam: [`MaintenanceEngine`] and
//! [`EngineBlueprint`].
//!
//! The sharded subsystem (`dyndens-shard`) was originally hard-wired to
//! [`DynDens`]. These two traits abstract exactly the surface the shard
//! worker, WAL checkpointing, crash recovery and the `partition_by`/`absorb`
//! rebalance paths consume, so alternative maintenance strategies — the
//! paper's recompute-from-scratch reference point, or a decade of follow-up
//! algorithms (fully-dynamic top-k densest, one-pass sketches) — run under
//! identical routing, persistence and serving:
//!
//! * [`MaintenanceEngine`] is one shard's worth of maintenance state: it
//!   ingests [`EdgeUpdate`]s, answers dense-subgraph reads, serialises
//!   itself to checkpoint bytes, and supports the split/merge and eviction
//!   operations live rebalancing and bounded-state retention rely on.
//! * [`EngineBlueprint`] is the *factory*: measure + configuration, able to
//!   build a fresh engine or restore one from checkpoint bytes, and to
//!   identify itself (a stable [`kind`](EngineBlueprint::kind) string plus a
//!   [`params`](EngineBlueprint::params) fingerprint) so a persistent shard
//!   directory is pinned to the backend that wrote it — reopening a
//!   directory under a different backend or configuration fails with a
//!   typed manifest mismatch instead of silently rebuilding.
//!
//! ## Contract
//!
//! Implementations must be **deterministic**: every read must be a pure
//! function of the update sequence applied so far (a lazily rebuilt cache
//! keyed by an update version is fine; wall-clock- or iteration-order-
//! dependent answers are not). This is what lets the cross-backend
//! differential oracle compare a sharded deployment of a backend against a
//! single engine of the *same* backend bit-for-bit, even though micro-batch
//! boundaries and snapshot cadences differ between the two runs.
//!
//! Read methods take `&mut self` precisely to permit such lazy caches;
//! engines that answer from always-fresh state (like [`DynDens`]) simply
//! ignore the mutability.

use dyndens_density::DensityMeasure;
use dyndens_graph::{DynamicGraph, EdgeUpdate, VertexId, VertexSet};

use crate::config::{DeltaIt, DynDensConfig};
use crate::engine::DynDens;
use crate::events::{DenseEvent, EngineStats};
use crate::evict::EvictionReport;
use crate::ranking::{sort_stories, StoryTable};
use crate::snapshot::SnapshotError;

/// One shard's worth of dense-subgraph maintenance state, behind a
/// backend-agnostic interface. See the [module docs](self) for the
/// determinism contract.
pub trait MaintenanceEngine: Clone + std::fmt::Debug + Send + 'static {
    /// Applies one edge weight update, appending any dense-set transitions
    /// to `events`.
    ///
    /// Backends that cannot afford per-update output maintenance (periodic
    /// rebuilders, read-time peelers) may emit no events; their deployments
    /// are then served via snapshot resync rather than delta pushes.
    fn apply_update_into(&mut self, update: EdgeUpdate, events: &mut Vec<DenseEvent>);

    /// Every maintained subgraph whose density clears the *output*
    /// threshold, with its score.
    fn output_dense_subgraphs(&mut self) -> Vec<(VertexSet, f64)>;

    /// Every maintained subgraph (the possibly-larger internal family), with
    /// its score. Backends without an internal band return the output set.
    fn dense_subgraphs(&mut self) -> Vec<(VertexSet, f64)>;

    /// The output-dense subgraphs in
    /// [`story_order`](crate::ranking::story_order), cut to the first
    /// `top_k`, with the size of the whole output-dense family: what a shard
    /// publishes after every micro-batch. The default sorts
    /// [`output_dense_subgraphs`](Self::output_dense_subgraphs); an engine
    /// that keeps its ranking between reads must return the same rows, bit
    /// for bit.
    fn ranked_output(&mut self, top_k: usize) -> (StoryTable, usize) {
        let mut stories = self.output_dense_subgraphs();
        let total = stories.len();
        sort_stories(&mut stories);
        stories.truncate(top_k);
        (StoryTable::from_stories(&stories), total)
    }

    /// Number of output-dense subgraphs.
    fn output_dense_count(&mut self) -> usize {
        self.output_dense_subgraphs().len()
    }

    /// Number of maintained subgraphs.
    fn dense_count(&mut self) -> usize {
        self.dense_subgraphs().len()
    }

    /// Checks the engine's internal invariants, returning the first
    /// violation found.
    fn validate(&mut self) -> Result<(), String>;

    /// The underlying weighted graph.
    fn graph(&self) -> &DynamicGraph;

    /// The engine's work ledger.
    fn stats(&self) -> &EngineStats;

    /// Replaces the work ledger wholesale (used by rebalance commits, where
    /// the rebuilt engine must carry the live parent's counters).
    fn adopt_stats(&mut self, stats: EngineStats);

    /// Marks the engine as replaying already-counted updates (WAL
    /// recovery): full maintenance work, no stat accumulation.
    fn set_recovering(&mut self, recovering: bool);

    /// Serialises the complete engine state to bytes. Restoring via
    /// [`EngineBlueprint::restore`] and snapshotting again must reproduce
    /// the same bytes (byte-stable round trip).
    fn snapshot(&self) -> Vec<u8>;

    /// Splits the engine into `(kept, other)` children by a vertex
    /// predicate; an edge or subgraph follows its minimum vertex. The
    /// children's union must equal the parent bit-for-bit (graph weights
    /// and stored scores); both children start with default stats (callers
    /// adopt ledgers explicitly).
    fn partition_by(&self, keep: &mut dyn FnMut(VertexId) -> bool) -> (Self, Self);

    /// Folds an edge- and subgraph-disjoint sibling into this engine — the
    /// inverse of [`partition_by`](Self::partition_by). Weights and scores
    /// are copied bit-for-bit; the ledgers are summed.
    fn absorb(&mut self, other: Self);

    /// The exact cancelling updates that would remove every edge with
    /// weight at or below `min_weight` (positive weights only), without
    /// applying them, in canonical ascending `(a, b)` order. The sharded
    /// compaction path journals these to the WAL *before* calling
    /// [`evict_below`](Self::evict_below), so the two must agree on the
    /// victim set.
    fn edges_below(&self, min_weight: f64) -> Vec<EdgeUpdate>;

    /// Evicts every edge with weight at or below `min_weight` through
    /// the ordinary update path, appending transitions to `events`.
    fn evict_below(&mut self, min_weight: f64, events: &mut Vec<DenseEvent>) -> EvictionReport;
}

/// A maintenance backend's identity and factory: everything the sharded
/// subsystem needs to build, restore, and *pin* engines of one kind. See
/// the [module docs](self).
pub trait EngineBlueprint: Clone + std::fmt::Debug + Send + Sync + 'static {
    /// The engine type this blueprint builds.
    type Engine: MaintenanceEngine;

    /// Stable machine-readable backend identifier (`"dyndens"`,
    /// `"recompute"`, ...), pinned in the shard MANIFEST. Reopening a
    /// directory under a blueprint with a different kind fails with
    /// `ManifestMismatch { field: "engine kind" }`.
    fn kind(&self) -> &'static str;

    /// The density measure's name, pinned in the MANIFEST alongside the
    /// kind.
    fn measure_name(&self) -> &'static str;

    /// A byte fingerprint of every answer-relevant configuration parameter,
    /// pinned in the MANIFEST. Two blueprints with equal `kind`, equal
    /// `measure_name` and equal `params` must produce interchangeable
    /// engines.
    fn params(&self) -> Vec<u8>;

    /// Builds a fresh, empty engine.
    fn fresh(&self) -> Self::Engine;

    /// Restores an engine from [`MaintenanceEngine::snapshot`] bytes.
    fn restore(&self, bytes: &[u8]) -> Result<Self::Engine, SnapshotError>;
}

/// Encodes the answer-relevant fields of a [`DynDensConfig`] as a canonical
/// byte fingerprint (threshold bits, `Nmax`, `delta_it` mode + value bits,
/// optimisation flags). Shared by every blueprint whose backend consumes a
/// [`DynDensConfig`], so equal configurations always produce equal
/// [`EngineBlueprint::params`] prefixes.
pub fn encode_config_params(config: &DynDensConfig) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 8 + 1 + 8 + 1);
    out.extend_from_slice(&config.threshold.to_bits().to_le_bytes());
    out.extend_from_slice(&(config.n_max as u64).to_le_bytes());
    let (tag, value) = match config.delta_it {
        DeltaIt::Absolute(v) => (0u8, v),
        DeltaIt::FractionOfMax(v) => (1u8, v),
    };
    out.push(tag);
    out.extend_from_slice(&value.to_bits().to_le_bytes());
    let flags = (config.implicit_too_dense as u8)
        | ((config.max_explore as u8) << 1)
        | ((config.degree_prioritize as u8) << 2);
    out.push(flags);
    out
}

/// The [`EngineBlueprint`] of the incremental [`DynDens`] engine — the
/// reproduction's reference backend, bit-exact with the pre-trait stack.
#[derive(Debug, Clone)]
pub struct DynDensBlueprint<D: DensityMeasure> {
    measure: D,
    config: DynDensConfig,
}

impl<D: DensityMeasure> DynDensBlueprint<D> {
    /// A blueprint building [`DynDens`] engines over `measure` with
    /// `config`.
    pub fn new(measure: D, config: DynDensConfig) -> Self {
        DynDensBlueprint { measure, config }
    }

    /// The density measure.
    pub fn measure(&self) -> &D {
        &self.measure
    }

    /// The engine configuration.
    pub fn config(&self) -> &DynDensConfig {
        &self.config
    }
}

impl<D: DensityMeasure> EngineBlueprint for DynDensBlueprint<D> {
    type Engine = DynDens<D>;

    fn kind(&self) -> &'static str {
        "dyndens"
    }

    fn measure_name(&self) -> &'static str {
        self.measure.name()
    }

    fn params(&self) -> Vec<u8> {
        encode_config_params(&self.config)
    }

    fn fresh(&self) -> DynDens<D> {
        DynDens::new(self.measure.clone(), self.config.clone())
    }

    fn restore(&self, bytes: &[u8]) -> Result<DynDens<D>, SnapshotError> {
        DynDens::restore(self.measure.clone(), bytes)
    }
}

impl<D: DensityMeasure> MaintenanceEngine for DynDens<D> {
    fn apply_update_into(&mut self, update: EdgeUpdate, events: &mut Vec<DenseEvent>) {
        DynDens::apply_update_into(self, update, events);
    }

    fn output_dense_subgraphs(&mut self) -> Vec<(VertexSet, f64)> {
        DynDens::output_dense_subgraphs(self)
    }

    fn dense_subgraphs(&mut self) -> Vec<(VertexSet, f64)> {
        DynDens::dense_subgraphs(self)
    }

    fn ranked_output(&mut self, top_k: usize) -> (StoryTable, usize) {
        DynDens::ranked_output(self, top_k)
    }

    fn output_dense_count(&mut self) -> usize {
        DynDens::output_dense_count(self)
    }

    fn dense_count(&mut self) -> usize {
        DynDens::dense_count(self)
    }

    fn validate(&mut self) -> Result<(), String> {
        DynDens::validate(self)
    }

    fn graph(&self) -> &DynamicGraph {
        DynDens::graph(self)
    }

    fn stats(&self) -> &EngineStats {
        DynDens::stats(self)
    }

    fn adopt_stats(&mut self, stats: EngineStats) {
        DynDens::adopt_stats(self, stats);
    }

    fn set_recovering(&mut self, recovering: bool) {
        DynDens::set_recovering(self, recovering);
    }

    fn snapshot(&self) -> Vec<u8> {
        DynDens::snapshot(self)
    }

    fn partition_by(&self, keep: &mut dyn FnMut(VertexId) -> bool) -> (Self, Self) {
        DynDens::partition_by(self, keep)
    }

    fn absorb(&mut self, other: Self) {
        DynDens::absorb(self, other);
    }

    fn edges_below(&self, min_weight: f64) -> Vec<EdgeUpdate> {
        DynDens::edges_below(self, min_weight)
    }

    fn evict_below(&mut self, min_weight: f64, events: &mut Vec<DenseEvent>) -> EvictionReport {
        DynDens::evict_below(self, min_weight, events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyndens_density::AvgWeight;

    fn drive<E: MaintenanceEngine>(engine: &mut E) {
        let mut events = Vec::new();
        for (a, b, d) in [(0u32, 1u32, 1.2), (1, 2, 1.1), (0, 2, 1.0)] {
            engine.apply_update_into(EdgeUpdate::new(VertexId(a), VertexId(b), d), &mut events);
        }
    }

    #[test]
    fn dyndens_backend_behaves_like_the_inherent_engine() {
        let blueprint = DynDensBlueprint::new(AvgWeight, DynDensConfig::new(1.0, 4));
        let mut engine = blueprint.fresh();
        drive(&mut engine);
        engine.validate().unwrap();
        assert!(MaintenanceEngine::output_dense_count(&mut engine) >= 4);
        assert_eq!(engine.stats().updates, 3);

        // Snapshot/restore round-trips byte-stably through the blueprint.
        let bytes = MaintenanceEngine::snapshot(&engine);
        let restored = blueprint.restore(&bytes).unwrap();
        assert_eq!(MaintenanceEngine::snapshot(&restored), bytes);
    }

    #[test]
    fn config_params_fingerprint_answer_relevant_fields() {
        let base = DynDensConfig::new(1.0, 4).with_delta_it(0.15);
        assert_eq!(
            encode_config_params(&base),
            encode_config_params(&base.clone())
        );
        for bent in [
            DynDensConfig::new(1.1, 4).with_delta_it(0.15),
            DynDensConfig::new(1.0, 5).with_delta_it(0.15),
            DynDensConfig::new(1.0, 4).with_delta_it(0.2),
            DynDensConfig::new(1.0, 4).with_delta_it_fraction(0.15),
            DynDensConfig::plain(1.0, 4).with_delta_it(0.15),
        ] {
            assert_ne!(encode_config_params(&base), encode_config_params(&bent));
        }
    }
}
