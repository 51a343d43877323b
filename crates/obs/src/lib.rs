//! # dyndens-obs
//!
//! Process-wide observability for the DynDens system: a lock-free metrics
//! registry, HDR-style log-linear histograms, and a bounded structured event
//! journal — the layer that lets an operator *watch* the paper's real-time
//! maintenance claim hold under production traffic.
//!
//! ## Design
//!
//! * **[`Registry`]** — interns counters, gauges and histograms by
//!   `(name, labels)`. The interning mutex is touched only at registration;
//!   every returned handle is an `Arc`'d atomic, so instrumented hot paths
//!   (shard workers, WAL appends, request serving) pay a handful of relaxed
//!   atomic operations and never contend on the registry. Pre-existing
//!   `AtomicU64` cells join via [`Registry::adopt_counter`] at zero added
//!   hot-path cost.
//! * **[`Histogram`]** — fixed log-linear bucket layout ([`SUB_BUCKETS`]
//!   linear sub-buckets per power-of-two octave, ~3.1% bounded relative
//!   error, exact below [`SUB_BUCKETS`]). Because the layout is identical
//!   everywhere, [`HistogramSnapshot`]s merge losslessly across shards for
//!   fleet-wide p50/p99/p999 readouts.
//! * **[`Registry::emit`] / [`Registry::begin`] / [`Registry::end`]** — a
//!   bounded journal of typed [`ObsEvent`]s with span-style begin/end
//!   pairing, split into a lifecycle ring (recovery, split/merge phases,
//!   compaction windows) and a chatty ring (batches, fsyncs, connections)
//!   so rare events survive busy traffic.
//! * **[`RegistrySnapshot`]** — an owned capture of everything, with a
//!   `dyndens-graph`-convention binary codec (the serve protocol's
//!   `Metrics` response payload) and a Prometheus-style text exposition.
//!
//! ## Threading it through
//!
//! Subsystems take an [`ObsHandle`] — a cloneable, optional reference to a
//! shared [`Registry`]. A disabled handle (the default) keeps every
//! instrumentation site on a `None` fast path, which is what the < 3%
//! ingest-overhead budget is measured against.
//!
//! ```
//! use dyndens_obs::{ObsHandle, Registry};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(Registry::new());
//! let obs = ObsHandle::new(registry.clone());
//! let applies = registry.histogram(dyndens_obs::names::SHARD_APPLY_LATENCY_US, &[("shard", "0")]);
//! applies.record(180);
//! let snap = registry.snapshot();
//! assert_eq!(snap.merged_histogram(dyndens_obs::names::SHARD_APPLY_LATENCY_US).count, 1);
//! assert!(obs.is_enabled());
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod histogram;
mod journal;
mod registry;
mod snapshot;

pub use histogram::{
    bucket_bounds, bucket_index, Histogram, HistogramSnapshot, N_BUCKETS, SUB_BUCKETS,
};
pub use journal::{
    ObsEvent, ObsRecord, RebalanceStage, SpanMark, CHATTY_RING_CAPACITY, LIFECYCLE_RING_CAPACITY,
    OBS_RECORD_MIN_ENCODED,
};
pub use registry::{Counter, Gauge, Registry};
pub use snapshot::{HistogramSample, MetricName, MetricSample, RegistrySnapshot};

use std::sync::Arc;

/// A cloneable, optional reference to a shared [`Registry`].
///
/// Subsystem configs carry one of these; the default (disabled) handle makes
/// every instrumentation site a branch on `None` — measured to keep the
/// ingest hot path within its overhead budget. Handles compare equal for
/// config-equality purposes only by enablement, not by registry identity.
#[derive(Clone, Default)]
pub struct ObsHandle {
    registry: Option<Arc<Registry>>,
}

impl std::fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsHandle")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl ObsHandle {
    /// A disabled handle: all instrumentation sites become no-ops.
    pub fn none() -> Self {
        ObsHandle { registry: None }
    }

    /// A handle backed by `registry`.
    pub fn new(registry: Arc<Registry>) -> Self {
        ObsHandle {
            registry: Some(registry),
        }
    }

    /// `true` when a registry is attached.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// The attached registry, if any.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.registry.as_ref()
    }
}

/// The metric-name catalog: every name the DynDens subsystems register,
/// as constants so instrumentation sites, benches, CI gates and
/// `docs/OBSERVABILITY.md` cannot drift apart. Label keys are noted per
/// constant; units are in the name suffix (`_us` microseconds, `_ns`
/// nanoseconds, `_bytes`, `_total` monotone counts).
pub mod names {
    /// Counter `{shard}`: updates routed to a shard's queue (adopted from
    /// the router's hot-path cell).
    pub const SHARD_ROUTED_TOTAL: &str = "dyndens_shard_routed_total";
    /// Counter `{shard}`: micro-batches applied by the worker.
    pub const SHARD_BATCHES_APPLIED_TOTAL: &str = "dyndens_shard_batches_applied_total";
    /// Counter `{shard}`: updates applied by the worker.
    pub const SHARD_UPDATES_APPLIED_TOTAL: &str = "dyndens_shard_updates_applied_total";
    /// Histogram `{shard}`: engine apply latency per micro-batch, µs
    /// (excludes publication).
    pub const SHARD_APPLY_LATENCY_US: &str = "dyndens_shard_apply_latency_us";
    /// Histogram `{shard}`: publication latency per micro-batch (rendering
    /// the snapshot and storing it into the delta ring and epoch cell), ns.
    pub const SHARD_PUBLISH_LATENCY_NS: &str = "dyndens_shard_publish_latency_ns";
    /// Histogram `{shard}`: updates per applied micro-batch.
    pub const SHARD_BATCH_SIZE: &str = "dyndens_shard_batch_size";
    /// Gauge `{shard}`: routed-minus-applied backlog, refreshed on
    /// `queue_depths()` probes (rebalancer cadence).
    pub const SHARD_QUEUE_DEPTH: &str = "dyndens_shard_queue_depth";

    /// Counter `{shard}`: WAL records appended.
    pub const WAL_APPENDS_TOTAL: &str = "dyndens_wal_appends_total";
    /// Counter `{shard}`: WAL payload bytes appended.
    pub const WAL_APPEND_BYTES_TOTAL: &str = "dyndens_wal_append_bytes_total";
    /// Histogram `{shard}`: WAL append (buffer + write) latency, µs.
    pub const WAL_APPEND_LATENCY_US: &str = "dyndens_wal_append_latency_us";
    /// Counter `{shard}`: `sync_data` calls issued.
    pub const WAL_FSYNCS_TOTAL: &str = "dyndens_wal_fsyncs_total";
    /// Histogram `{shard}`: `sync_data` latency, µs.
    pub const WAL_FSYNC_LATENCY_US: &str = "dyndens_wal_fsync_latency_us";
    /// Counter `{shard}`: WAL segment rotations.
    pub const WAL_ROTATIONS_TOTAL: &str = "dyndens_wal_rotations_total";
    /// Counter `{shard}`: WAL segments deleted by pruning.
    pub const WAL_SEGMENTS_PRUNED_TOTAL: &str = "dyndens_wal_segments_pruned_total";
    /// Gauge `{shard}`: live WAL segment count.
    pub const WAL_SEGMENTS: &str = "dyndens_wal_segments";
    /// Gauge `{shard}`: bytes in the active WAL segment.
    pub const WAL_SEGMENT_BYTES: &str = "dyndens_wal_segment_bytes";

    /// Counter `{shard}`: engine checkpoints written.
    pub const CHECKPOINTS_TOTAL: &str = "dyndens_checkpoints_total";
    /// Histogram `{shard}`: checkpoint serialize+write latency, µs.
    pub const CHECKPOINT_LATENCY_US: &str = "dyndens_checkpoint_latency_us";
    /// Gauge `{shard}`: size of the last checkpoint, bytes.
    pub const CHECKPOINT_BYTES: &str = "dyndens_checkpoint_bytes";

    /// Counter `{shard}`: crash recoveries performed at startup.
    pub const RECOVERIES_TOTAL: &str = "dyndens_recoveries_total";
    /// Counter `{shard}`: WAL updates replayed during recovery.
    pub const RECOVERY_REPLAYED_TOTAL: &str = "dyndens_recovery_replayed_total";

    /// Counter: shard splits committed.
    pub const SPLITS_TOTAL: &str = "dyndens_splits_total";
    /// Counter: shard merges committed.
    pub const MERGES_TOTAL: &str = "dyndens_merges_total";
    /// Histogram: split/merge ingest pause (quiesce → commit), µs.
    pub const REBALANCE_PAUSE_US: &str = "dyndens_rebalance_pause_us";
    /// Gauge: share of the observation window routed to the hottest shard,
    /// in permille, refreshed on each rebalancer probe.
    pub const REBALANCE_MAX_SHARE_PERMILLE: &str = "dyndens_rebalance_max_share_permille";
    /// Gauge: deepest queue seen by the last rebalancer probe.
    pub const REBALANCE_MAX_QUEUE_DEPTH: &str = "dyndens_rebalance_max_queue_depth";
    /// Gauge: slot chosen by the last rebalancer split decision.
    pub const REBALANCE_LAST_PICK: &str = "dyndens_rebalance_last_pick";

    /// Counter: decay-driven compaction passes completed.
    pub const COMPACTION_PASSES_TOTAL: &str = "dyndens_compaction_passes_total";
    /// Counter: fully-decayed edges evicted by compaction.
    pub const COMPACTION_EVICTED_EDGES_TOTAL: &str = "dyndens_compaction_evicted_edges_total";
    /// Counter: tracked co-occurrence pairs pruned by the stream tracker.
    pub const COMPACTION_PRUNED_PAIRS_TOTAL: &str = "dyndens_compaction_pruned_pairs_total";
    /// Counter: cancellation updates emitted for decayed pairs.
    pub const COMPACTION_CANCELLED_TOTAL: &str = "dyndens_compaction_cancelled_total";

    /// Counter `{type}`: requests served, by request type
    /// (`top_k|poll|stats|metrics|error` — `error` counts undecodable
    /// requests answered with a typed `Error` reply).
    pub const SERVE_REQUESTS_TOTAL: &str = "dyndens_serve_requests_total";
    /// Histogram `{type}`: decode→response-built latency per request, µs.
    pub const SERVE_REQUEST_LATENCY_US: &str = "dyndens_serve_request_latency_us";
    /// Counter: connections accepted.
    pub const SERVE_CONNS_ACCEPTED_TOTAL: &str = "dyndens_serve_conns_accepted_total";
    /// Counter: connections severed by I/O or framing errors.
    pub const SERVE_CONNS_SEVERED_TOTAL: &str = "dyndens_serve_conns_severed_total";
    /// Counter: `Poll` requests answered with a resync directive.
    pub const SERVE_RESYNCS_TOTAL: &str = "dyndens_serve_resyncs_total";
    /// Counter: typed `Error` replies sent.
    pub const SERVE_ERROR_REPLIES_TOTAL: &str = "dyndens_serve_error_replies_total";
    /// Counter: connections refused at accept because the server was at its
    /// `max_connections` bound.
    pub const SERVE_CONNS_REJECTED_TOTAL: &str = "dyndens_serve_conns_rejected_total";
    /// Gauge: push subscriptions currently registered (event-loop mode).
    pub const SERVE_SUBSCRIBERS: &str = "dyndens_serve_subscribers";
    /// Counter: `Push` frames enqueued to subscribers.
    pub const SERVE_PUSHES_TOTAL: &str = "dyndens_serve_pushes_total";
    /// Counter: subscribers evicted for overflowing the bounded write queue.
    pub const SERVE_SLOW_EVICTIONS_TOTAL: &str = "dyndens_serve_slow_evictions_total";
    /// Counter: event-loop wakeups (publication signals, accepts, shutdown).
    pub const SERVE_WAKEUPS_TOTAL: &str = "dyndens_serve_wakeups_total";
    /// Histogram: one publication fan-out pass over a loop's subscribers, µs.
    pub const SERVE_FANOUT_LATENCY_US: &str = "dyndens_serve_fanout_latency_us";
}
