//! Live shard rebalancing: splitting a hot shard — and merging cold siblings
//! back together — while the rest of the fleet keeps ingesting.
//!
//! A fixed shard count means one hot entity partition caps whole-pipeline
//! throughput forever, and a fleet split for a long-gone hot spot pays the
//! per-shard overhead forever. Both directions are one transaction,
//! `reshape`, over the generational [`ShardMap`]: N parent slots are
//! replaced by M children, routed by the new map.
//!
//! ```text
//!  1. park     routing[p] := Parked for every parent p (one shared queue;
//!              every other slot keeps ingesting)
//!  2. quiesce  stop the parents' workers → engines and WALs complete to
//!              their seqs Sₚ; each worker hands back its WAL writer
//!  3. rebuild  parents (snapshot + WAL replay, or the live engines in
//!              memory) ──absorb──► one engine ──partition by the new
//!              map──► children, each starting at ΣSₚ
//!  4. persist  child dirs (snapshot @ ΣSₚ, fresh WAL) + MANIFEST rewrite
//!              — the commit point
//!  5. publish  the new roster in one epoch store; launch the children
//!  6. drain    the parked backlog through the new map, in arrival order
//!  7. retire   the parents' directories
//! ```
//!
//! A **split** ([`ShardedFleet::split_shard`]) is N=1 → M=2: the bit-0
//! child keeps the parent's slot, the bit-1 child takes a new one. A
//! **merge** ([`ShardedFleet::merge_shards`]) is N=2 → M=1 over two
//! **sibling** slots (leaves of one `Split` trie node — see
//! [`ShardMap::merge_candidates`]): the merged shard keeps the smaller
//! slot, and the last slot is renumbered into the freed one without a
//! respawn.
//!
//! Only the parents pause: updates routed to them park in an unbounded
//! queue and are re-routed, in order, at commit. Readers need no
//! coordination either: the [`StoryView`](crate::StoryView) roster changes
//! in one store, every child's delta ring starts empty — pollers resync
//! from its snapshot, exactly as after crash recovery — and a renumbered
//! slot keeps its ring, so its pollers follow deltas under the new index.
//! Publication watchers attached to the roster are attached to every child
//! cell before it publishes, so one [`StoryView::watch`](crate::StoryView::watch)
//! covers every later topology.
//!
//! ## Equivalence
//!
//! Under the partitioning invariant (no maintained subgraph spans two
//! shards — see the crate docs) the children of a split
//! ([`MaintenanceEngine::partition_by`]) are **bit-identical** to engines
//! that only ever saw their own slices, and a merged engine
//! ([`MaintenanceEngine::absorb`]) to one that saw both: a split or merge
//! mid-stream yields exactly the story sets of a fleet that never changed
//! topology (`tests/rebalance_equivalence.rs`). The work ledger is preserved
//! too: rebuild replay counts nothing, and the first child adopts the
//! parents' live counters.
//!
//! ## Crash safety and failure containment
//!
//! The manifest rewrite is the commit point. The children's snapshots and
//! WALs are durable *before* it; the parents' directories are retired
//! *after* it. A crash before the rewrite recovers the parents (orphan child
//! directories are overwritten by the next attempt — engine ids are
//! persisted in the manifest and never reused); a crash after recovers the
//! children.
//!
//! If the rebuild fails (damaged snapshot, corrupt WAL, disk errors), the
//! parents are relaunched on their intact live engines and their own WAL
//! writers — no disk read — the parked backlog is drained to them through
//! the unchanged map, and the fleet continues as before with the error
//! reported to the caller (`tests/rebalance_abort.rs`).
//! [`Rebalancer`] drives both directions from a hot-slot split policy and
//! a cold-pair merge policy.

use std::io;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::Instant;

use dyndens_core::{EngineBlueprint, EngineStats, MaintenanceEngine};
use dyndens_graph::{EdgeUpdate, ShardMap};
use dyndens_obs::{names, ObsEvent, RebalanceStage};

use crate::config::PersistenceConfig;
use crate::recovery::{self, RecoveryError};
use crate::sharded::{launch, spawn_worker, ShardTx, ShardedFleet};
use crate::view::ShardRoster;
use crate::wal::WalWriter;
use crate::worker::{WorkerMsg, WorkerPersistence};

/// An error splitting or merging shards. The fleet is left routing exactly
/// as before the attempt: the parents are relaunched on their live engines
/// and WAL writers, and the updates that parked meanwhile are applied.
#[derive(Debug)]
pub enum RebalanceError {
    /// Filesystem failure while rebuilding or persisting the children.
    Io(io::Error),
    /// A parent's persisted state could not be read back (damaged
    /// snapshot, corrupt WAL segment, …).
    Recovery(RecoveryError),
    /// The slot does not name a live worker (or its route-trie leaf already
    /// sits at the maximum split depth).
    UnknownShard(usize),
    /// The two slots handed to a merge are not sibling leaves of the routing
    /// trie (only pairs produced by one split — see
    /// [`ShardMap::merge_candidates`] — can be merged).
    NotSiblings(usize, usize),
    /// A parent's snapshot + WAL did not reach its quiesce point: replay
    /// rebuilt state up to `found` but the worker had applied `expected`
    /// updates. Indicates missing WAL records.
    HistoryGap {
        /// The parent's sequence number at quiesce.
        expected: u64,
        /// The sequence number replay actually reached.
        found: u64,
    },
}

impl From<io::Error> for RebalanceError {
    fn from(e: io::Error) -> Self {
        RebalanceError::Io(e)
    }
}

impl From<RecoveryError> for RebalanceError {
    fn from(e: RecoveryError) -> Self {
        RebalanceError::Recovery(e)
    }
}

impl std::fmt::Display for RebalanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RebalanceError::Io(e) => write!(f, "rebalance I/O failure: {e}"),
            RebalanceError::Recovery(e) => write!(f, "rebalance could not read shard state: {e}"),
            RebalanceError::UnknownShard(slot) => {
                write!(f, "shard {slot} is not a splittable worker slot")
            }
            RebalanceError::NotSiblings(a, b) => {
                write!(f, "shards {a} and {b} are not sibling slots of one split")
            }
            RebalanceError::HistoryGap { expected, found } => write!(
                f,
                "rebalance replay reached sequence {found} but the shard had applied {expected}; \
                 WAL records are missing"
            ),
        }
    }
}

impl std::error::Error for RebalanceError {}

/// The milestones of one split or merge, reported to the observer callback
/// of [`ShardedFleet::split_shard_with`] and
/// [`ShardedFleet::merge_shards_with`]. Operational monitoring can hang off
/// these; the equivalence tests use [`Parked`](ReshapePhase::Parked) to
/// ingest concurrently and prove that untouched shards keep applying updates
/// while the reshaped slots are down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReshapePhase {
    /// The parent slots' workers are quiesced and stopped; updates routed to
    /// them are parking. Every other shard is ingesting normally.
    Parked,
    /// The children are rebuilt (and, for persistent deployments, durable
    /// on disk with the manifest rewritten — the new topology is now
    /// committed even across a crash).
    Rebuilt,
    /// Routing serves the new map; the parked backlog has been drained to
    /// the children, whose workers are live; a displaced last slot is
    /// renumbered.
    Committed,
}

/// What a completed split did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitReport {
    /// The worker slot that was split (now serving the bit-0 child).
    pub slot: usize,
    /// The new worker slot serving the bit-1 child.
    pub new_slot: usize,
    /// The retired parent's engine id.
    pub parent_engine: u64,
    /// The children's fresh engine ids (bit 0, bit 1).
    pub child_engines: (u64, u64),
    /// The parent's sequence number at quiesce — both children start here.
    pub parent_seq: u64,
    /// Sequence number of the checkpoint the rebuild started from (0 when
    /// the rebuild partitioned live in-memory state or started fresh).
    pub snapshot_seq: u64,
    /// WAL updates replayed past the checkpoint.
    pub replayed_updates: u64,
    /// Updates that parked during the split and were re-routed at commit.
    pub parked_updates: u64,
    /// The routing-table generation after the split.
    pub generation: u64,
}

/// What a completed merge did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeReport {
    /// The worker slot the merged shard serves (the smaller of the pair).
    pub slot: usize,
    /// The worker slot the merge freed (the larger of the pair).
    pub freed_slot: usize,
    /// The former slot of the worker renumbered into
    /// [`freed_slot`](MergeReport::freed_slot) (always the previous last
    /// slot), or `None` when the freed slot was the last one.
    pub moved_slot: Option<usize>,
    /// The retired children's engine ids (routing bit 0, bit 1).
    pub child_engines: (u64, u64),
    /// The merged shard's fresh engine id.
    pub merged_engine: u64,
    /// The children's sequence numbers at quiesce (bit 0, bit 1).
    pub child_seqs: (u64, u64),
    /// The merged shard's starting sequence number (the children's sum).
    pub merged_seq: u64,
    /// Updates that parked during the merge and were drained at commit.
    pub parked_updates: u64,
    /// The routing-table generation after the merge.
    pub generation: u64,
}

/// Thresholds deciding when a shard is hot enough to split.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalancePolicy {
    /// Split when a slot's ingest queue depth (updates routed but not yet
    /// applied) reaches this many updates — the shard is falling behind its
    /// stream.
    pub min_queue_depth: u64,
    /// Split when a slot applied more than this fraction of the fleet's
    /// updates **since the previous check** (skew signal; only meaningful
    /// once [`min_total_updates`](RebalancePolicy::min_total_updates) is met
    /// within the window).
    pub min_share: f64,
    /// Minimum fleet-wide updates applied within the check window before
    /// the share signal fires (avoids splitting on startup or idle noise).
    /// Also gates the **merge** signal: an idle fleet is indistinguishable
    /// from a cold one, so nothing merges until the window carries at least
    /// this much traffic.
    pub min_total_updates: u64,
    /// Merge a sibling pair back together only while **both** slots' ingest
    /// queue depths are at or below this bound (neither is falling behind).
    pub merge_max_queue_depth: u64,
    /// ... and each of the pair applied at most this fraction of the fleet's
    /// updates within the check window (both slices have gone cold — e.g.
    /// their stories decayed out).
    pub merge_max_share: f64,
}

impl Default for RebalancePolicy {
    /// Split on queue depth 4096 or a 60% share of a ≥50k-update window;
    /// merge sibling slots whose queues are ≤16 deep and whose window shares
    /// are each ≤5%.
    fn default() -> Self {
        RebalancePolicy {
            min_queue_depth: 4096,
            min_share: 0.6,
            min_total_updates: 50_000,
            merge_max_queue_depth: 16,
            merge_max_share: 0.05,
        }
    }
}

/// Detects hot shards from the fleet's live signals and drives splits.
///
/// The two signals are the ones the facade already maintains: per-slot
/// **ingest queue depth** ([`ShardedFleet::queue_depths`], routed minus
/// applied — the backpressure measure) and the per-slot share of updates
/// applied **since the previous check**, derived from the published
/// [`ShardSnapshot`](crate::ShardSnapshot) stats (the skew measure). The
/// share signal is a *rate*, not a lifetime counter, for two reasons: a slot
/// that was hot an hour ago but is balanced now must not be split, and the
/// child that adopts the parent's cumulative ledger after a split must not
/// look eternally hot. That makes the rebalancer stateful: the first
/// [`pick`](Rebalancer::pick) after construction (or after a topology
/// change) only establishes the baseline window. Drive it from an
/// operations loop:
///
/// ```no_run
/// use dyndens_shard::{rebalance::Rebalancer, ShardConfig, ShardedDynDens};
/// use dyndens_core::DynDensConfig;
/// use dyndens_density::AvgWeight;
///
/// let mut fleet = ShardedDynDens::new(
///     AvgWeight,
///     DynDensConfig::new(1.0, 4).with_delta_it(0.15),
///     ShardConfig::new(2),
/// );
/// let mut rebalancer = Rebalancer::default();
/// loop {
///     // ... ingest for a while ...
///     if let Some(result) = rebalancer.maybe_split(&mut fleet) {
///         let report = result.expect("split failed");
///         println!("split shard {} -> +{}", report.slot, report.new_slot);
///     }
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Rebalancer {
    policy: RebalancePolicy,
    /// Per-slot applied-update counters at the previous [`pick`], the base
    /// of the share window. Reset whenever the slot count changes.
    ///
    /// [`pick`]: Rebalancer::pick
    baseline: Vec<u64>,
    /// The cold-slot window base for [`pick_merge`](Rebalancer::pick_merge),
    /// kept separate from the split baseline so an operations loop can drive
    /// both signals without the two consuming each other's windows.
    merge_baseline: Vec<u64>,
}

/// Per-slot updates applied since `baseline`, which then moves to the
/// current counters. `None` while the window is being established: on the
/// first call, and whenever a topology change altered the slot count.
fn share_window<B: EngineBlueprint>(
    fleet: &ShardedFleet<B>,
    baseline: &mut Vec<u64>,
) -> Option<Vec<u64>> {
    let view = fleet.view().pin();
    let applied: Vec<u64> = (0..view.n_shards())
        .map(|s| view.shard_snapshot(s).stats.updates)
        .collect();
    let deltas = (baseline.len() == applied.len()).then(|| {
        applied
            .iter()
            .zip(baseline.iter())
            .map(|(now, base)| now.saturating_sub(*base))
            .collect()
    });
    *baseline = applied;
    deltas
}

impl Rebalancer {
    /// A rebalancer with the given thresholds.
    pub fn new(policy: RebalancePolicy) -> Self {
        Rebalancer {
            policy,
            baseline: Vec::new(),
            merge_baseline: Vec::new(),
        }
    }

    /// The thresholds in effect.
    pub fn policy(&self) -> &RebalancePolicy {
        &self.policy
    }

    /// The hottest splittable slot, or `None` while no slot crosses the
    /// policy thresholds. Queue depth dominates (a shard actively falling
    /// behind); the applied-share skew signal backs it up, computed over the
    /// window since the previous `pick` (the first call after construction
    /// or a topology change only establishes the window).
    pub fn pick<B: EngineBlueprint>(&mut self, fleet: &ShardedFleet<B>) -> Option<usize> {
        let deltas = share_window(fleet, &mut self.baseline).unwrap_or_default();
        let depths = fleet.queue_depths();
        let total: u64 = deltas.iter().sum();
        // Publish the two signals the decision is based on — the observed
        // skew is what an operator tunes the policy thresholds against.
        if let Some(registry) = fleet.config().obs.registry() {
            registry
                .gauge(names::REBALANCE_MAX_QUEUE_DEPTH, &[])
                .set(depths.iter().copied().max().unwrap_or(0));
            let most = deltas.iter().copied().max().unwrap_or(0);
            registry
                .gauge(names::REBALANCE_MAX_SHARE_PERMILLE, &[])
                .set(most.saturating_mul(1000).checked_div(total).unwrap_or(0));
        }
        let picked = (|| {
            if let Some((slot, &depth)) = depths.iter().enumerate().max_by_key(|&(_, &depth)| depth)
            {
                if depth >= self.policy.min_queue_depth {
                    return Some(slot);
                }
            }
            // An unestablished window is empty, so this also waits for one.
            if deltas.len() < 2 || total < self.policy.min_total_updates {
                return None;
            }
            let (slot, &most) = deltas.iter().enumerate().max_by_key(|&(_, &n)| n)?;
            (most as f64 > self.policy.min_share * total as f64).then_some(slot)
        })();
        if let (Some(registry), Some(slot)) = (fleet.config().obs.registry(), picked) {
            registry
                .gauge(names::REBALANCE_LAST_PICK, &[])
                .set(slot as u64);
        }
        picked
    }

    /// Splits the hottest shard if any slot crosses the thresholds. Returns
    /// `None` when the fleet is balanced (or while the share window is still
    /// being established).
    pub fn maybe_split<B: EngineBlueprint>(
        &mut self,
        fleet: &mut ShardedFleet<B>,
    ) -> Option<Result<SplitReport, RebalanceError>> {
        let slot = self.pick(fleet)?;
        Some(fleet.split_shard(slot))
    }

    /// The coldest mergeable sibling pair, or `None` while no pair qualifies.
    /// A pair qualifies when both slots' ingest queues are at or below
    /// [`merge_max_queue_depth`](RebalancePolicy::merge_max_queue_depth) and
    /// each applied at most
    /// [`merge_max_share`](RebalancePolicy::merge_max_share) of a window
    /// carrying at least
    /// [`min_total_updates`](RebalancePolicy::min_total_updates) fleet-wide
    /// — cold slices inside an otherwise active fleet. The idle-fleet guard
    /// is deliberate: with no traffic at all, "cold" carries no information,
    /// and merging would churn topology for nothing. Like
    /// [`pick`](Rebalancer::pick), the first call after construction or a
    /// topology change only establishes the window.
    pub fn pick_merge<B: EngineBlueprint>(
        &mut self,
        fleet: &ShardedFleet<B>,
    ) -> Option<(usize, usize)> {
        let deltas = share_window(fleet, &mut self.merge_baseline)?;
        let total: u64 = deltas.iter().sum();
        if total < self.policy.min_total_updates {
            return None;
        }
        let depths = fleet.queue_depths();
        let cold = |slot: usize| {
            depths[slot] <= self.policy.merge_max_queue_depth
                && deltas[slot] as f64 <= self.policy.merge_max_share * total as f64
        };
        fleet
            .shard_map()
            .merge_candidates()
            .into_iter()
            .filter(|&(a, b)| cold(a) && cold(b))
            .min_by_key(|&(a, b)| deltas[a] + deltas[b])
    }

    /// Merges the coldest sibling pair if one qualifies. Returns `None` when
    /// no pair crosses the cold thresholds (or while the window is still
    /// being established).
    pub fn maybe_merge<B: EngineBlueprint>(
        &mut self,
        fleet: &mut ShardedFleet<B>,
    ) -> Option<Result<MergeReport, RebalanceError>> {
        let (a, b) = self.pick_merge(fleet)?;
        Some(fleet.merge_shards(a, b))
    }
}

/// One topology change, as the shared transaction sees it.
struct Reshape<'a> {
    /// The parent shards as `(slot, engine id)`: parked, quiesced and
    /// rebuilt together, absorbed in this order.
    parents: &'a [(usize, u64)],
    /// The children as `(slot, engine id)`, in routing-bit order. A slot one
    /// past the last grows the fleet.
    children: &'a [(usize, u64)],
    /// The slot a merge frees; the last slot is renumbered into it.
    freed: Option<usize>,
    /// The routing table after the change.
    new_map: ShardMap,
    /// The journal record of a stage, given the parked and replayed counts.
    event: &'a dyn Fn(RebalanceStage, u64, u64) -> ObsEvent,
    /// The counter a committed change bumps.
    committed: &'static str,
}

/// What a committed reshape measured, for the split and merge reports.
struct Reshaped {
    /// The parents' sequence numbers at quiesce, in `parents` order; every
    /// child starts at their sum.
    parent_seqs: Vec<u64>,
    /// The checkpoints replay started from, summed over the parents.
    snapshot_seq: u64,
    /// WAL updates replayed past them.
    replayed: u64,
    /// Parked updates drained to the children.
    parked: u64,
    /// The routing-table generation after the change.
    generation: u64,
}

/// The rebuilt children, with what their rebuild replayed.
struct Rebuilt<E> {
    /// Each child's engine and durability half, in `children` order.
    children: Vec<(E, Option<WorkerPersistence>)>,
    /// The checkpoints replay started from, summed over the parents.
    snapshot_seq: u64,
    /// WAL updates replayed past them.
    replayed: u64,
}

impl<B: EngineBlueprint> ShardedFleet<B> {
    /// Splits worker `slot` into two shards: the bit-0 child keeps `slot`,
    /// the bit-1 child takes a new slot, and the routing table advances one
    /// generation. Equivalent to
    /// [`split_shard_with`](Self::split_shard_with) with a no-op observer.
    pub fn split_shard(&mut self, slot: usize) -> Result<SplitReport, RebalanceError> {
        self.split_shard_with(slot, |_| {})
    }

    /// Splits worker `slot`, invoking `observer` at each [`ReshapePhase`].
    ///
    /// Only the split shard pauses: updates routed to it during the split
    /// park (unbounded) and are re-routed through the refined map at commit;
    /// every other shard — and every [`IngestHandle`](crate::IngestHandle)
    /// and [`StoryView`](crate::StoryView) — keeps working throughout,
    /// including from other threads. Pollers of the split slot resynchronise
    /// from its post-split snapshot (its delta ring restarts empty, exactly
    /// like after crash recovery).
    ///
    /// For persistent deployments the parent is replayed from its newest
    /// checkpoint plus its WAL, partitioned by the refined routing, and the
    /// split commits durably via a manifest rewrite. In-memory deployments
    /// partition the live engine instead. See the
    /// [module docs](crate::rebalance) for the full protocol, equivalence
    /// guarantees and failure semantics.
    pub fn split_shard_with(
        &mut self,
        slot: usize,
        mut observer: impl FnMut(ReshapePhase),
    ) -> Result<SplitReport, RebalanceError> {
        let mut new_map = self.shard_map();
        let spec = new_map
            .split(slot)
            .ok_or(RebalanceError::UnknownShard(slot))?;
        let event = |stage: RebalanceStage, parked: u64, replayed: u64| ObsEvent::SplitPhase {
            slot: slot as u32,
            new_slot: spec.new_slot as u32,
            stage,
            parked,
            replayed,
        };
        let done = self.reshape(
            Reshape {
                parents: &[(slot, spec.parent_engine)],
                children: &[
                    (slot, spec.child_zero_engine),
                    (spec.new_slot, spec.child_one_engine),
                ],
                freed: None,
                new_map,
                event: &event,
                committed: names::SPLITS_TOTAL,
            },
            &mut observer,
        )?;
        Ok(SplitReport {
            slot,
            new_slot: spec.new_slot,
            parent_engine: spec.parent_engine,
            child_engines: (spec.child_zero_engine, spec.child_one_engine),
            parent_seq: done.parent_seqs[0],
            snapshot_seq: done.snapshot_seq,
            replayed_updates: done.replayed,
            parked_updates: done.parked,
            generation: done.generation,
        })
    }

    /// Merges sibling worker slots `a` and `b` back into one shard.
    /// Equivalent to [`merge_shards_with`](Self::merge_shards_with) with a
    /// no-op observer.
    pub fn merge_shards(&mut self, a: usize, b: usize) -> Result<MergeReport, RebalanceError> {
        self.merge_shards_with(a, b, |_| {})
    }

    /// Merges sibling worker slots `a` and `b` — the exact inverse of the
    /// split that created them — invoking `observer` at each
    /// [`ReshapePhase`].
    ///
    /// Only the two siblings pause: updates routed to either park
    /// (unbounded, on one shared queue) and are drained to the merged worker
    /// at commit; every other shard keeps working throughout. The merged
    /// shard keeps the smaller slot of the pair; the larger slot is freed,
    /// and the previous last slot is renumbered into it without respawning
    /// its worker (see [`MergeReport::moved_slot`]). Pollers of the merged
    /// slot resynchronise from its post-merge snapshot, exactly as after a
    /// split or crash recovery; a renumbered slot keeps its delta ring, so
    /// its pollers follow deltas seamlessly under the new index.
    ///
    /// For persistent deployments each sibling is replayed from its own
    /// durable state to its quiesce point, then absorbed into one engine
    /// ([`MaintenanceEngine::absorb`]), and the merge commits durably via the
    /// same atomic manifest rewrite as a split. In-memory deployments absorb
    /// the live engines directly. If the rebuild fails, both siblings are
    /// relaunched and the fleet continues un-merged with the error reported.
    pub fn merge_shards_with(
        &mut self,
        a: usize,
        b: usize,
        mut observer: impl FnMut(ReshapePhase),
    ) -> Result<MergeReport, RebalanceError> {
        let mut new_map = self.shard_map();
        let spec = new_map
            .merge(a, b)
            .ok_or(RebalanceError::NotSiblings(a, b))?;
        let event = |stage: RebalanceStage, parked: u64, _replayed: u64| ObsEvent::MergePhase {
            slot: spec.slot as u32,
            freed_slot: spec.freed_slot as u32,
            stage,
            parked,
        };
        let done = self.reshape(
            Reshape {
                parents: &[
                    (spec.zero_slot, spec.zero_engine),
                    (spec.one_slot, spec.one_engine),
                ],
                children: &[(spec.slot, spec.merged_engine)],
                freed: Some(spec.freed_slot),
                new_map,
                event: &event,
                committed: names::MERGES_TOTAL,
            },
            &mut observer,
        )?;
        Ok(MergeReport {
            slot: spec.slot,
            freed_slot: spec.freed_slot,
            moved_slot: spec.moved_slot,
            child_engines: (spec.zero_engine, spec.one_engine),
            merged_engine: spec.merged_engine,
            child_seqs: (done.parent_seqs[0], done.parent_seqs[1]),
            merged_seq: done.parent_seqs.iter().sum(),
            parked_updates: done.parked,
            generation: done.generation,
        })
    }

    /// The one topology-change transaction; see the
    /// [module docs](crate::rebalance) for its steps.
    fn reshape(
        &mut self,
        plan: Reshape<'_>,
        observer: &mut dyn FnMut(ReshapePhase),
    ) -> Result<Reshaped, RebalanceError> {
        // 1. Park the parents on one shared queue: their ingest accumulates
        // unconsumed, in per-sender order — all the children need, since the
        // parents' slices touch disjoint edges. The pause clock runs from
        // here to commit.
        let pause_started = Instant::now();
        let (park_tx, park_rx) = channel();
        let old_txs: Vec<SyncSender<WorkerMsg>> = {
            let mut routing = self.routing.write().expect("routing poisoned");
            plan.parents
                .iter()
                .map(|&(slot, _)| {
                    let parked = ShardTx::Parked(park_tx.clone());
                    match std::mem::replace(&mut routing.senders[slot], parked) {
                        ShardTx::Live(tx) => tx,
                        // Reshapes are serialised by `&mut self`, and every
                        // one ends with its parents' slots live again.
                        ShardTx::Parked(_) => unreachable!("slot {slot} is already parked"),
                    }
                })
                .collect()
        };

        // 2. Quiesce: a worker processes everything routed before its
        // shutdown, so once it has exited its engine and WAL are complete to
        // its published sequence number. It hands back its WAL writer.
        for tx in old_txs {
            let _ = tx.send(WorkerMsg::Shutdown);
        }
        let persists: Vec<Option<WorkerPersistence>> = plan
            .parents
            .iter()
            .map(|&(slot, _)| {
                let worker = self.workers[slot].take().expect("a live slot has a worker");
                worker.join().expect("shard worker panicked")
            })
            .collect();
        let roster = self.roster.load();
        let parent_seqs: Vec<u64> = plan
            .parents
            .iter()
            .map(|&(slot, _)| roster.cells[slot].seq())
            .collect();
        let start_seq = parent_seqs.iter().sum();
        observer(ReshapePhase::Parked);
        // One journal span covers the whole change; the Committed record is
        // enriched with the report counts. An aborted attempt leaves the
        // span open — a Begin without an End.
        let registry = self.config.obs.registry().cloned();
        let span = registry
            .as_ref()
            .map(|r| r.begin((plan.event)(RebalanceStage::Parked, 0, 0)));

        // 3. Rebuild the children; on failure, relaunch the parents as they
        // were.
        let Rebuilt {
            children,
            snapshot_seq,
            replayed,
        } = match self.rebuild(&plan, &parent_seqs, start_seq) {
            Ok(rebuilt) => rebuilt,
            Err(e) => {
                self.relaunch(plan.parents, &parent_seqs, persists, &park_rx);
                return Err(e);
            }
        };
        drop(persists);
        observer(ReshapePhase::Rebuilt);
        if let (Some(registry), Some(span)) = (&registry, span) {
            registry.note(span, (plan.event)(RebalanceStage::Rebuilt, 0, replayed));
        }

        // 4. Publish the new roster in ONE epoch store, so readers switch
        // from the parents to all the children atomically — no interleaving
        // observes one child without its sibling (which would transiently
        // lose a slice's stories). Children get fresh cells at their start
        // sequence number (a reused slot stays monotone: its old cell sat at
        // one parent's share of that sum) and empty delta rings. Each fresh
        // cell inherits the roster's watchers before its worker can publish.
        let mut cells = roster.cells.clone();
        let mut rings = roster.rings.clone();
        let mut targets = Vec::with_capacity(children.len());
        let mut routed = Vec::with_capacity(children.len());
        for ((engine, persist), &(slot, _)) in children.into_iter().zip(plan.children) {
            let shard = launch(&self.config, slot, engine, start_seq, persist);
            shard.cell.watch_like(&self.roster);
            place(&mut cells, slot, shard.cell);
            place(&mut rings, slot, shard.ring);
            place(&mut self.engines, slot, shard.engine);
            place(&mut self.workers, slot, Some(shard.handle));
            place(&mut self.slots, slot, shard.slot_cell);
            targets.push((slot, shard.tx));
            routed.push(shard.routed);
        }
        if let Some(freed) = plan.freed {
            cells.swap_remove(freed);
            rings.swap_remove(freed);
            self.engines.swap_remove(freed);
            self.workers.swap_remove(freed);
            self.slots.swap_remove(freed);
            if let Some(moved) = self.slots.get(freed) {
                // Renumber the moved worker in place (no respawn): it stamps
                // every snapshot it publishes from now on with `freed`.
                moved.store(freed as u32, Ordering::Relaxed);
            }
        }
        self.roster.store(Arc::new(ShardRoster { cells, rings }));

        // 5. Commit routing: install the new map and drain the parked
        // backlog through it. Holding the write lock guarantees no sender is
        // mid-send, so the drain is complete.
        let generation = plan.new_map.generation();
        let parked = {
            let mut routing = self.routing.write().expect("routing poisoned");
            let counts = drain(&park_rx, &plan.new_map, &targets);
            for (((slot, tx), routed), count) in targets.into_iter().zip(routed).zip(&counts) {
                routed.fetch_add(*count, Ordering::Relaxed);
                place(&mut routing.senders, slot, ShardTx::Live(tx));
                place(&mut routing.routed, slot, routed);
            }
            if let Some(freed) = plan.freed {
                routing.senders.swap_remove(freed);
                routing.routed.swap_remove(freed);
                // The renumbered slot carries the previous last slot's
                // routed cell, and the last slot no longer exists.
                if let Some(registry) = &registry {
                    if let Some(moved) = routing.routed.get(freed) {
                        registry.adopt_counter(
                            names::SHARD_ROUTED_TOTAL,
                            &[("shard", &freed.to_string())],
                            Arc::clone(moved),
                        );
                    }
                    let last = routing.routed.len().to_string();
                    registry.unregister(names::SHARD_ROUTED_TOTAL, &[("shard", &last)]);
                }
            }
            routing.map = plan.new_map;
            counts.iter().sum()
        };

        // 6. Retire the parents' directories (the manifest no longer
        // references them; best-effort — an orphan is harmless).
        if let Some(p) = &self.persistence {
            for &(_, engine_id) in plan.parents {
                let _ = std::fs::remove_dir_all(recovery::shard_dir(&p.dir, engine_id));
            }
        }
        observer(ReshapePhase::Committed);
        if let (Some(registry), Some(span)) = (&registry, span) {
            registry.end(
                span,
                (plan.event)(RebalanceStage::Committed, parked, replayed),
            );
            registry.counter(plan.committed, &[]).inc();
            registry
                .histogram(names::REBALANCE_PAUSE_US, &[])
                .record_micros(pause_started.elapsed());
        }
        Ok(Reshaped {
            parent_seqs,
            snapshot_seq,
            replayed,
            parked,
            generation,
        })
    }

    /// Rebuilds the children from the quiesced parents — replaying each
    /// parent's directory (persistent) or taking its live engine (in
    /// memory) — then persists them and rewrites the manifest, the commit
    /// point. Also returns the replay's checkpoint base and length.
    fn rebuild(
        &self,
        plan: &Reshape<'_>,
        parent_seqs: &[u64],
        start_seq: u64,
    ) -> Result<Rebuilt<B::Engine>, RebalanceError> {
        // The parents' live ledger is authoritative: replay counts nothing,
        // and the first child adopts the parents' counters wholesale.
        let mut stats = EngineStats::default();
        for &(slot, _) in plan.parents {
            stats.merge(
                self.engines[slot]
                    .lock()
                    .expect("shard engine poisoned")
                    .stats(),
            );
        }
        let (mut snapshot_seq, mut replayed) = (0, 0);
        let mut whole: Option<B::Engine> = None;
        for (&(slot, engine_id), &seq) in plan.parents.iter().zip(parent_seqs) {
            let engine = match &self.persistence {
                // A clean quiesce left the directory complete: replay must
                // reach the quiesce point exactly, and a torn tail is
                // corruption, not a crash artefact.
                Some(p) => {
                    let dir = recovery::shard_dir(&p.dir, engine_id);
                    let r = recovery::replay(&self.blueprint, &dir)?;
                    if let Some((segment, ..)) = r.torn_tail {
                        return Err(RecoveryError::CorruptWal { segment }.into());
                    }
                    if r.seq != seq {
                        return Err(RebalanceError::HistoryGap {
                            expected: seq,
                            found: r.seq,
                        });
                    }
                    snapshot_seq += r.snapshot_seq;
                    replayed += r.replayed;
                    r.engine
                }
                // In memory nothing below can fail, so the quiesced parent's
                // engine is moved out rather than copied.
                None => std::mem::replace(
                    &mut *self.engines[slot].lock().expect("shard engine poisoned"),
                    self.blueprint.fresh(),
                ),
            };
            match whole.as_mut() {
                Some(whole) => whole.absorb(engine),
                None => whole = Some(engine),
            }
        }
        let whole = whole.expect("a reshape has a parent");
        let mut children = match plan.children {
            [_] => vec![whole],
            [(zero_slot, _), _] => {
                let (zero, one) = whole.partition_by(&mut |v| plan.new_map.route(v) == *zero_slot);
                vec![zero, one]
            }
            _ => unreachable!("a reshape builds one or two children"),
        };
        children[0].adopt_stats(stats);
        for child in &mut children[1..] {
            child.adopt_stats(EngineStats::default());
        }

        let persists = match &self.persistence {
            Some(p) => {
                let mut persists = Vec::with_capacity(children.len());
                for (child, &(_, engine_id)) in children.iter().zip(plan.children) {
                    persists.push(Some(persist_child(p, engine_id, start_seq, child)?));
                }
                // The commit point: from here, recovery reopens the new
                // topology.
                recovery::rewrite_manifest(
                    &p.dir,
                    self.blueprint.kind(),
                    self.blueprint.measure_name(),
                    &self.blueprint.params(),
                    &plan.new_map,
                )?;
                persists
            }
            None => children.iter().map(|_| None).collect(),
        };
        Ok(Rebuilt {
            children: children.into_iter().zip(persists).collect(),
            snapshot_seq,
            replayed,
        })
    }

    /// Relaunches the parents after an aborted rebuild, on their intact live
    /// engines and their own WAL writers (no disk read), and drains the
    /// parked backlog to them through the unchanged map.
    fn relaunch(
        &mut self,
        parents: &[(usize, u64)],
        seqs: &[u64],
        persists: Vec<Option<WorkerPersistence>>,
        park_rx: &Receiver<WorkerMsg>,
    ) {
        let roster = self.roster.load();
        let mut targets = Vec::with_capacity(parents.len());
        for ((&(slot, _), &seq), persist) in parents.iter().zip(seqs).zip(persists) {
            let (tx, handle, slot_cell) = spawn_worker(
                slot,
                &self.config,
                seq,
                persist,
                &self.engines[slot],
                &roster.cells[slot],
                &roster.rings[slot],
            );
            self.workers[slot] = Some(handle);
            self.slots[slot] = slot_cell;
            targets.push((slot, tx));
        }
        let mut routing = self.routing.write().expect("routing poisoned");
        drain(park_rx, &routing.map, &targets);
        for (slot, tx) in targets {
            routing.senders[slot] = ShardTx::Live(tx);
        }
    }
}

/// Sets `table[slot]`, growing the table when `slot` is one past its end.
fn place<T>(table: &mut Vec<T>, slot: usize, item: T) {
    if slot == table.len() {
        table.push(item);
    } else {
        table[slot] = item;
    }
}

/// Drains a parked backlog, in arrival order, to the shards now serving the
/// parked slots: each update to the target `map` routes it to; each flush,
/// compaction pass and shutdown to every target (a flush waiter waits for
/// every copy, a compaction waiter sums every target's evictions). Returns
/// the updates sent to each target.
fn drain(
    park_rx: &Receiver<WorkerMsg>,
    map: &ShardMap,
    targets: &[(usize, SyncSender<WorkerMsg>)],
) -> Vec<u64> {
    let target = |u: &EdgeUpdate| {
        let slot = map.route(u.a.min(u.b));
        targets
            .iter()
            .position(|&(s, _)| s == slot)
            .expect("a parked update routes to a reshaped slot")
    };
    let mut counts = vec![0u64; targets.len()];
    while let Ok(msg) = park_rx.try_recv() {
        let updates = match msg {
            WorkerMsg::Update(u) => vec![u],
            WorkerMsg::Batch(batch) => batch,
            control => {
                for (_, tx) in targets {
                    let _ = tx.send(control.clone());
                }
                continue;
            }
        };
        let mut groups = vec![Vec::new(); targets.len()];
        for u in updates {
            groups[target(&u)].push(u);
        }
        for ((group, (_, tx)), count) in groups.into_iter().zip(targets).zip(&mut counts) {
            if !group.is_empty() {
                *count += group.len() as u64;
                let _ = tx.send(WorkerMsg::Batch(group));
            }
        }
    }
    counts
}

/// Writes one child's initial state: its directory (clobbering an orphan
/// from a previously crashed or aborted attempt — engine ids are only
/// consumed by the manifest rewrite), a snapshot at its start sequence
/// number, and a fresh WAL positioned to append from it.
fn persist_child<E: MaintenanceEngine>(
    p: &PersistenceConfig,
    engine_id: u64,
    seq: u64,
    child: &E,
) -> Result<WorkerPersistence, RebalanceError> {
    let dir = recovery::shard_dir(&p.dir, engine_id);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    recovery::write_snapshot(&dir, seq, &child.snapshot(), p.retained_snapshots)?;
    let wal = WalWriter::open(&dir, seq, Vec::new(), p.fsync, p.segment_max_bytes)?;
    Ok(WorkerPersistence::new(p, dir, wal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FsyncPolicy, ShardConfig, ShardFn};
    use crate::sharded::ShardedDynDens;
    use dyndens_core::DynDensConfig;
    use dyndens_density::AvgWeight;
    use dyndens_graph::{EdgeUpdate, VertexId, VertexSet};

    fn update(a: u32, b: u32, delta: f64) -> EdgeUpdate {
        EdgeUpdate::new(VertexId(a), VertexId(b), delta)
    }

    fn engine_config() -> DynDensConfig {
        DynDensConfig::new(1.0, 4).with_delta_it(0.15)
    }

    fn shard_config(n: usize) -> ShardConfig {
        ShardConfig::new(n)
            .with_shard_fn(ShardFn::Modulo)
            .with_max_batch(4)
    }

    /// A stream of two communities both owned by base slot 0 of a 2-slot
    /// modulo map (residues 0 and 2 mod 4), plus one on slot 1: splitting
    /// slot 0 separates the two co-resident communities.
    fn skewed_updates() -> Vec<EdgeUpdate> {
        let mut updates = Vec::new();
        let communities: &[&[u32]] = &[&[0, 4, 8], &[2, 6, 10], &[1, 5, 9]];
        for round in 0..6 {
            for community in communities {
                for (i, &a) in community.iter().enumerate() {
                    for &b in &community[i + 1..] {
                        let delta = if round == 5 && i == 0 { -0.1 } else { 0.23 };
                        updates.push(update(a, b, delta));
                    }
                }
            }
        }
        updates
    }

    fn sorted_bits(mut sets: Vec<(VertexSet, f64)>) -> Vec<(VertexSet, u64)> {
        sets.sort_by(|a, b| a.0.cmp(&b.0));
        sets.into_iter().map(|(s, d)| (s, d.to_bits())).collect()
    }

    #[test]
    fn in_memory_split_preserves_the_answer_and_the_ledger() {
        let updates = skewed_updates();
        let mut reference = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
        let (head, tail) = updates.split_at(updates.len() / 2);
        reference.apply_batch(&updates);
        let want = sorted_bits(reference.dense_subgraphs());

        let mut fleet = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
        fleet.apply_batch(head);
        let mut phases = Vec::new();
        let report = fleet.split_shard_with(0, |p| phases.push(p)).unwrap();
        assert_eq!(
            phases,
            vec![
                ReshapePhase::Parked,
                ReshapePhase::Rebuilt,
                ReshapePhase::Committed
            ]
        );
        assert_eq!(report.slot, 0);
        assert_eq!(report.new_slot, 2);
        assert_eq!(report.generation, 1);
        assert_eq!(fleet.n_shards(), 3);
        fleet.apply_batch(tail);
        fleet.validate().unwrap();
        assert_eq!(sorted_bits(fleet.dense_subgraphs()), want);
        // The ledger counts every update exactly once across the split.
        assert_eq!(fleet.stats().updates, updates.len() as u64);
        // Both children own part of the split slot's slice.
        let per_shard = fleet.view().per_shard_seq();
        assert_eq!(per_shard.len(), 3);
        assert!(per_shard[2] > report.parent_seq);
    }

    #[test]
    fn updates_parked_during_split_are_rerouted() {
        let mut fleet = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
        fleet.apply_batch(&[update(0, 4, 1.1), update(2, 6, 1.2), update(1, 5, 1.3)]);
        fleet.flush();
        let handle = fleet.ingest_handle();
        let view = fleet.view();
        let report = fleet
            .split_shard_with(0, |phase| {
                if phase == ReshapePhase::Parked {
                    // Routed to the parked slot: must wait for the commit.
                    handle.apply_update(update(0, 8, 0.9));
                    handle.apply_update(update(2, 10, 0.8));
                    // Routed to the untouched slot: applied while the split
                    // shard is down.
                    let before = view.shard_seq(1);
                    handle.apply_update(update(1, 9, 0.7));
                    while view.shard_seq(1) == before {
                        std::thread::yield_now();
                    }
                }
            })
            .unwrap();
        assert_eq!(report.parked_updates, 2);
        fleet.flush();
        // Both children start at the parent's quiesce point (2 updates) and
        // each applied one parked update; the untouched slot applied three.
        assert_eq!(fleet.view().per_shard_seq(), vec![3, 2, 3]);
        fleet.validate().unwrap();
        // The parked updates landed on their new owners: residue 0 mod 4
        // stayed on slot 0, residue 2 mod 4 moved to slot 2.
        assert_eq!(fleet.shard_of(&update(0, 8, 0.0)), 0);
        assert_eq!(fleet.shard_of(&update(2, 10, 0.0)), 2);
    }

    #[test]
    fn persistent_split_rebuilds_from_snapshot_and_wal_slice() {
        let dir = std::env::temp_dir().join(format!("dyndens-reb-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let persistence = || {
            PersistenceConfig::new(&dir)
                .with_fsync(FsyncPolicy::Never)
                .with_snapshot_every_batches(3)
        };
        let updates = skewed_updates();
        let mut reference = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
        reference.apply_batch(&updates);
        let want = sorted_bits(reference.dense_subgraphs());

        let mut fleet = ShardedDynDens::with_persistence(
            AvgWeight,
            engine_config(),
            shard_config(2),
            persistence(),
        )
        .unwrap();
        let (head, tail) = updates.split_at(2 * updates.len() / 3);
        // Flush per chunk so each chunk is its own micro-batch and the
        // checkpoint cadence (every 3 micro-batches) actually fires.
        for chunk in head.chunks(4) {
            fleet.apply_batch(chunk);
            fleet.flush();
        }
        let report = fleet.split_shard(0).unwrap();
        // The rebuild really was checkpoint + WAL slice: a checkpoint existed
        // (cadence 3) and the tail past it was replayed.
        assert!(report.snapshot_seq > 0, "expected a checkpoint base");
        assert_eq!(
            report.snapshot_seq + report.replayed_updates,
            report.parent_seq
        );
        fleet.apply_batch(tail);
        assert_eq!(sorted_bits(fleet.dense_subgraphs()), want);
        assert_eq!(fleet.stats().updates, updates.len() as u64);
        // The parent's directory is retired; the children's exist.
        assert!(!recovery::shard_dir(&dir, report.parent_engine).exists());
        assert!(recovery::shard_dir(&dir, report.child_engines.0).exists());
        assert!(recovery::shard_dir(&dir, report.child_engines.1).exists());

        // Crash + reopen: the manifest's refined topology recovers all three
        // shards and the identical answer.
        drop(fleet);
        let reopened = ShardedDynDens::with_persistence(
            AvgWeight,
            engine_config(),
            shard_config(2),
            persistence(),
        )
        .unwrap();
        assert_eq!(reopened.n_shards(), 3);
        assert_eq!(reopened.recovery_reports().len(), 3);
        assert_eq!(sorted_bits(reopened.dense_subgraphs()), want);
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn split_rejects_unknown_slots() {
        let mut fleet = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
        assert!(matches!(
            fleet.split_shard(7),
            Err(RebalanceError::UnknownShard(7))
        ));
        assert_eq!(fleet.n_shards(), 2);
    }

    #[test]
    fn in_memory_merge_is_the_splits_inverse() {
        let updates = skewed_updates();
        let mut reference = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
        reference.apply_batch(&updates);
        let want = sorted_bits(reference.dense_subgraphs());

        let mut fleet = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
        let third = updates.len() / 3;
        fleet.apply_batch(&updates[..third]);
        let split = fleet.split_shard(0).unwrap();
        fleet.apply_batch(&updates[third..2 * third]);
        let mut phases = Vec::new();
        let report = fleet
            .merge_shards_with(split.new_slot, 0, |p| phases.push(p))
            .unwrap();
        assert_eq!(
            phases,
            vec![
                ReshapePhase::Parked,
                ReshapePhase::Rebuilt,
                ReshapePhase::Committed
            ]
        );
        assert_eq!(report.slot, 0);
        assert_eq!(report.freed_slot, 2);
        assert_eq!(report.moved_slot, None);
        assert_eq!(report.merged_seq, report.child_seqs.0 + report.child_seqs.1);
        assert_eq!(report.generation, 2);
        assert_eq!(fleet.n_shards(), 2);
        fleet.apply_batch(&updates[2 * third..]);
        fleet.validate().unwrap();
        assert_eq!(sorted_bits(fleet.dense_subgraphs()), want);
        // The ledger survives the round trip: every update counted once.
        assert_eq!(fleet.stats().updates, updates.len() as u64);
        assert_eq!(fleet.view().per_shard_seq().len(), 2);
        // Pollers of the merged slot resync (its delta ring restarted empty
        // at the merge point); the untouched slot's ring is unaffected.
        assert_eq!(
            fleet
                .view()
                .deltas_since(0, report.merged_seq.saturating_sub(1)),
            crate::view::DeltaCatchUp::Resync
        );
    }

    #[test]
    fn merge_renumbers_the_displaced_last_slot() {
        let updates = skewed_updates();
        let mut reference = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
        reference.apply_batch(&updates);
        let want = sorted_bits(reference.dense_subgraphs());

        // Split both base slots: workers 0..=3 with sibling pairs (0, 2)
        // and (1, 3). Merging (0, 2) frees the middle slot 2, so worker 3
        // is renumbered into it without a respawn.
        let mut fleet = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
        let (head, tail) = updates.split_at(updates.len() / 2);
        fleet.apply_batch(head);
        fleet.split_shard(0).unwrap();
        fleet.split_shard(1).unwrap();
        assert_eq!(fleet.n_shards(), 4);
        let report = fleet.merge_shards(0, 2).unwrap();
        assert_eq!(report.moved_slot, Some(3));
        assert_eq!(fleet.n_shards(), 3);
        // The moved worker keeps applying updates under its new number.
        fleet.apply_batch(tail);
        fleet.flush();
        fleet.validate().unwrap();
        assert_eq!(sorted_bits(fleet.dense_subgraphs()), want);
        assert_eq!(fleet.stats().updates, updates.len() as u64);
        // Ingest routed to the renumbered slot reaches it: slot 2 now owns
        // the slice worker 3 served (residue 3 mod 4 under the map).
        let depths = fleet.queue_depths();
        assert_eq!(depths.len(), 3);
        assert_eq!(fleet.queue_depths(), vec![0, 0, 0]);
    }

    #[test]
    fn merge_rejects_non_sibling_pairs() {
        let mut fleet = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
        assert!(matches!(
            fleet.merge_shards(0, 1),
            Err(RebalanceError::NotSiblings(0, 1))
        ));
        assert_eq!(fleet.n_shards(), 2);
    }

    #[test]
    fn persistent_merge_commits_durably() {
        let dir = std::env::temp_dir().join(format!("dyndens-merge-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let persistence = || {
            PersistenceConfig::new(&dir)
                .with_fsync(FsyncPolicy::Never)
                .with_snapshot_every_batches(3)
        };
        let updates = skewed_updates();
        let mut reference = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
        reference.apply_batch(&updates);
        let want = sorted_bits(reference.dense_subgraphs());

        let mut fleet = ShardedDynDens::with_persistence(
            AvgWeight,
            engine_config(),
            shard_config(2),
            persistence(),
        )
        .unwrap();
        let (head, tail) = updates.split_at(updates.len() / 2);
        for chunk in head.chunks(4) {
            fleet.apply_batch(chunk);
            fleet.flush();
        }
        let split = fleet.split_shard(0).unwrap();
        let report = fleet.merge_shards(0, split.new_slot).unwrap();
        assert_eq!(report.child_engines, split.child_engines);
        fleet.apply_batch(tail);
        assert_eq!(sorted_bits(fleet.dense_subgraphs()), want);
        // The children's directories are retired; the merged one exists.
        assert!(!recovery::shard_dir(&dir, report.child_engines.0).exists());
        assert!(!recovery::shard_dir(&dir, report.child_engines.1).exists());
        assert!(recovery::shard_dir(&dir, report.merged_engine).exists());

        // Crash + reopen: the manifest's coarsened topology recovers two
        // shards and the identical answer.
        drop(fleet);
        let reopened = ShardedDynDens::with_persistence(
            AvgWeight,
            engine_config(),
            shard_config(2),
            persistence(),
        )
        .unwrap();
        assert_eq!(reopened.n_shards(), 2);
        assert_eq!(sorted_bits(reopened.dense_subgraphs()), want);
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_watch_covers_later_topologies() {
        struct Counter(std::sync::atomic::AtomicU64);
        impl crate::view::PublishWaker for Counter {
            fn wake(&self, _seq: u64) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let mut fleet = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
        let counter = Arc::new(Counter(Default::default()));
        let waker: Arc<dyn crate::view::PublishWaker> = counter.clone();
        fleet.view().watch(&waker);
        let fires = |fleet: &ShardedDynDens<AvgWeight>, u: EdgeUpdate| {
            let before = counter.0.load(Ordering::SeqCst);
            fleet.apply_update(u);
            fleet.flush();
            counter.0.load(Ordering::SeqCst) > before
        };

        // Watched once, before any topology change: the split's new slot
        // and the merge's fresh cell both wake it.
        let split = fleet.split_shard(0).unwrap();
        assert_eq!(fleet.shard_of(&update(2, 6, 0.0)), split.new_slot);
        assert!(fires(&fleet, update(2, 6, 0.4)), "split child publication");
        fleet.merge_shards(0, split.new_slot).unwrap();
        assert_eq!(fleet.shard_of(&update(0, 4, 0.0)), 0);
        assert!(fires(&fleet, update(0, 4, 0.4)), "merged shard publication");
    }

    #[test]
    fn rebalancer_merges_cold_siblings() {
        let mut fleet = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
        fleet.split_shard(0).unwrap();
        assert_eq!(fleet.n_shards(), 3);
        let mut rebalancer = Rebalancer::new(RebalancePolicy {
            min_queue_depth: u64::MAX,
            min_share: 1.0,
            min_total_updates: 10,
            merge_max_queue_depth: 16,
            merge_max_share: 0.1,
        });
        // First call only establishes the cold window.
        assert_eq!(rebalancer.pick_merge(&fleet), None, "no window yet");
        // An idle fleet must not merge: cold is indistinguishable from dead.
        assert_eq!(rebalancer.pick_merge(&fleet), None, "idle fleet");

        // All traffic lands on slot 1; the siblings (0, 2) sit cold.
        let updates: Vec<EdgeUpdate> = (0..40).map(|i| update(1, 5 + 2 * (i % 5), 0.1)).collect();
        fleet.apply_batch(&updates);
        fleet.flush();
        assert_eq!(rebalancer.pick_merge(&fleet), Some((0, 2)));
        // Each pick consumes the window, so feed another hot round before
        // letting the driver act on the signal.
        fleet.apply_batch(&updates);
        fleet.flush();
        let report = rebalancer.maybe_merge(&mut fleet).unwrap().unwrap();
        assert_eq!((report.slot, report.freed_slot), (0, 2));
        assert_eq!(fleet.n_shards(), 2);
        // The topology change resets the window; no further merge fires.
        assert_eq!(rebalancer.pick_merge(&fleet), None);
    }

    #[test]
    fn rebalancer_picks_the_skewed_shard_by_rate() {
        let mut fleet = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
        let mut relaxed = Rebalancer::new(RebalancePolicy {
            min_queue_depth: u64::MAX,
            min_share: 0.9,
            min_total_updates: 10,
            ..RebalancePolicy::default()
        });
        // The first pick only establishes the share window.
        assert_eq!(relaxed.pick(&fleet), None, "no window yet");

        // Everything in this window lands on slot 0.
        let updates: Vec<EdgeUpdate> = (0..40).map(|i| update(0, 2 + 2 * (i % 5), 0.1)).collect();
        fleet.apply_batch(&updates);
        fleet.flush();
        let mut strict = Rebalancer::default();
        strict.pick(&fleet); // establish the strict window too
        assert_eq!(strict.pick(&fleet), None, "below the default thresholds");
        let report = relaxed.maybe_split(&mut fleet).unwrap().unwrap();
        assert_eq!(report.slot, 0);
        assert_eq!(fleet.n_shards(), 3);

        // The split invalidated the window (slot count changed) and child
        // zero adopted the parent's cumulative ledger: the rate-based signal
        // must NOT keep splitting the historically-hot slot while the fleet
        // is now idle.
        assert_eq!(relaxed.pick(&fleet), None, "topology change resets window");
        assert_eq!(relaxed.pick(&fleet), None, "idle fleet stays un-split");

        // But fresh skew inside a new window fires again.
        let more: Vec<EdgeUpdate> = (0..40).map(|i| update(1, 3 + 2 * (i % 5), 0.1)).collect();
        fleet.apply_batch(&more);
        fleet.flush();
        assert_eq!(relaxed.pick(&fleet), Some(1));
    }
}
