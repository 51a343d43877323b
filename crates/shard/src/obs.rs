//! Internal instrumentation bundles: pre-registered metric handles for the
//! shard subsystem's hot paths.
//!
//! All registration (name interning, label formatting) happens once, at
//! worker spawn or at a slot renumber; the hot paths then touch only the
//! `Arc`'d atomic handles inside these bundles. Every site is gated on the
//! deployment's [`ObsHandle`](dyndens_obs::ObsHandle) being enabled, so the
//! uninstrumented fast path stays a branch on `None`.

use std::sync::Arc;
use std::time::Duration;

use dyndens_core::EngineStats;
use dyndens_obs::{names, Counter, Gauge, Histogram, ObsEvent, Registry};

/// One row of the engine-gauge table: a metric name plus the `EngineStats`
/// field it mirrors.
type EngineGaugeRow = (&'static str, fn(&EngineStats) -> u64);

/// Per-shard gauges mirroring every [`EngineStats`] counter into the
/// registry, name-for-name. Destructuring in `set_from` would not survive a
/// field addition silently, so the table is the single list to extend.
const ENGINE_GAUGES: &[EngineGaugeRow] = &[
    ("dyndens_engine_updates", |s| s.updates),
    ("dyndens_engine_positive_updates", |s| s.positive_updates),
    ("dyndens_engine_negative_updates", |s| s.negative_updates),
    ("dyndens_engine_explorations", |s| s.explorations),
    ("dyndens_engine_cheap_explorations", |s| {
        s.cheap_explorations
    }),
    ("dyndens_engine_candidates_examined", |s| {
        s.candidates_examined
    }),
    ("dyndens_engine_subgraphs_inserted", |s| {
        s.subgraphs_inserted
    }),
    ("dyndens_engine_subgraphs_evicted", |s| s.subgraphs_evicted),
    ("dyndens_engine_explore_all_invocations", |s| {
        s.explore_all_invocations
    }),
    ("dyndens_engine_star_markers_created", |s| {
        s.star_markers_created
    }),
    ("dyndens_engine_star_markers_removed", |s| {
        s.star_markers_removed
    }),
    ("dyndens_engine_max_explore_skips", |s| s.max_explore_skips),
    ("dyndens_engine_degree_prioritize_skips", |s| {
        s.degree_prioritize_skips
    }),
];

/// A worker's pre-registered handles: batch/apply metrics plus the engine
/// gauge block. Rebuilt (cheaply) if a merge renumbers the worker's slot.
#[derive(Debug)]
pub(crate) struct ShardObs {
    pub registry: Arc<Registry>,
    pub slot: u32,
    batches: Counter,
    updates: Counter,
    apply_us: Histogram,
    publish_ns: Histogram,
    batch_size: Histogram,
    checkpoints: Counter,
    checkpoint_us: Histogram,
    checkpoint_bytes: Gauge,
    engine_gauges: Vec<Gauge>,
}

impl ShardObs {
    pub(crate) fn for_slot(registry: &Arc<Registry>, slot: u32) -> Self {
        let label = slot.to_string();
        let labels: &[(&str, &str)] = &[("shard", label.as_str())];
        ShardObs {
            registry: Arc::clone(registry),
            slot,
            batches: registry.counter(names::SHARD_BATCHES_APPLIED_TOTAL, labels),
            updates: registry.counter(names::SHARD_UPDATES_APPLIED_TOTAL, labels),
            apply_us: registry.histogram(names::SHARD_APPLY_LATENCY_US, labels),
            publish_ns: registry.histogram(names::SHARD_PUBLISH_LATENCY_NS, labels),
            batch_size: registry.histogram(names::SHARD_BATCH_SIZE, labels),
            checkpoints: registry.counter(names::CHECKPOINTS_TOTAL, labels),
            checkpoint_us: registry.histogram(names::CHECKPOINT_LATENCY_US, labels),
            checkpoint_bytes: registry.gauge(names::CHECKPOINT_BYTES, labels),
            engine_gauges: ENGINE_GAUGES
                .iter()
                .map(|(name, _)| registry.gauge(name, labels))
                .collect(),
        }
    }

    /// Records one applied micro-batch: counters, latency/size histograms
    /// and a chatty `WorkerBatch` journal record.
    pub(crate) fn record_batch(&self, batch: usize, apply: Duration) {
        let apply_us = apply.as_micros().min(u64::MAX as u128) as u64;
        self.batches.inc();
        self.updates.add(batch as u64);
        self.apply_us.record(apply_us);
        self.batch_size.record(batch as u64);
        self.registry.emit(ObsEvent::WorkerBatch {
            shard: self.slot,
            batch: batch.min(u32::MAX as usize) as u32,
            apply_us,
        });
    }

    /// Records one publication: rendering the snapshot plus storing it into
    /// the delta ring and the epoch cell. In ns, because a publication of a
    /// small micro-batch takes about a microsecond.
    pub(crate) fn record_publish(&self, elapsed: Duration) {
        self.publish_ns.record_nanos(elapsed);
    }

    /// Records one engine checkpoint written to disk.
    pub(crate) fn record_checkpoint(&self, seq: u64, bytes: u64, elapsed: Duration) {
        self.checkpoints.inc();
        self.checkpoint_us.record_micros(elapsed);
        self.checkpoint_bytes.set(bytes);
        self.registry.emit(ObsEvent::Checkpoint {
            shard: self.slot,
            seq,
            bytes,
        });
    }

    /// Mirrors the engine's merged-ready counters into per-shard gauges.
    pub(crate) fn set_engine_gauges(&self, stats: &EngineStats) {
        for ((_, extract), gauge) in ENGINE_GAUGES.iter().zip(&self.engine_gauges) {
            gauge.set(extract(stats));
        }
    }
}

/// The WAL writer's pre-registered handles.
#[derive(Debug)]
pub(crate) struct WalObs {
    pub registry: Arc<Registry>,
    pub slot: u32,
    pub appends: Counter,
    pub append_bytes: Counter,
    pub append_us: Histogram,
    pub fsyncs: Counter,
    pub fsync_us: Histogram,
    pub rotations: Counter,
    pub segments_pruned: Counter,
    pub segments: Gauge,
    pub segment_bytes: Gauge,
}

impl WalObs {
    pub(crate) fn for_slot(registry: &Arc<Registry>, slot: u32) -> Self {
        let label = slot.to_string();
        let labels: &[(&str, &str)] = &[("shard", label.as_str())];
        WalObs {
            registry: Arc::clone(registry),
            slot,
            appends: registry.counter(names::WAL_APPENDS_TOTAL, labels),
            append_bytes: registry.counter(names::WAL_APPEND_BYTES_TOTAL, labels),
            append_us: registry.histogram(names::WAL_APPEND_LATENCY_US, labels),
            fsyncs: registry.counter(names::WAL_FSYNCS_TOTAL, labels),
            fsync_us: registry.histogram(names::WAL_FSYNC_LATENCY_US, labels),
            rotations: registry.counter(names::WAL_ROTATIONS_TOTAL, labels),
            segments_pruned: registry.counter(names::WAL_SEGMENTS_PRUNED_TOTAL, labels),
            segments: registry.gauge(names::WAL_SEGMENTS, labels),
            segment_bytes: registry.gauge(names::WAL_SEGMENT_BYTES, labels),
        }
    }
}
