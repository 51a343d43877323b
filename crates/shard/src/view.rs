//! The non-blocking read path: per-shard epoch cells, the bounded delta
//! retention ring, and the merged story view.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

use dyndens_core::{story_order, DenseEvent, EngineStats, StoryTable};
use dyndens_graph::VertexSet;

/// A publication callback attached to an [`EpochCell`] (or, through
/// [`StoryView::watch`], to every cell of a fleet).
///
/// `wake` runs on the **publishing thread** (a shard worker, or the facade
/// during a split/merge), immediately after the new epoch became visible. It
/// must therefore be cheap and non-blocking — the intended implementation is
/// an edge-style wakeup (write one byte to a self-pipe, set a flag), with all
/// real work done by the woken thread. This is the hook an event-driven
/// server uses to fan out `DeltaRing` micro-batches to push subscribers
/// without polling.
pub trait PublishWaker: Send + Sync {
    /// Notifies the waker that a publication happened; `seq` is the cell's
    /// sequence number at publication (unchanged for plain [`EpochCell::store`]
    /// publications such as roster swaps).
    fn wake(&self, seq: u64);
}

/// An ArcSwap-style epoch pointer: writers publish immutable snapshots by
/// swapping an `Arc`, readers grab the current `Arc` and then read entirely
/// lock-free.
///
/// The critical section on either side is a single pointer clone/store — a
/// handful of nanoseconds — so readers never block writers for the duration
/// of a read, and writers never block readers for the duration of an update.
/// (A dedicated lock-free `ArcSwap` would remove even that window; this
/// std-only cell keeps the same API shape so one can be dropped in later.)
#[derive(Debug)]
pub struct EpochCell<T> {
    slot: Mutex<Arc<T>>,
    /// The publication sequence number of the current epoch, readable
    /// without touching the slot's lock. This is what makes network `Poll`
    /// requests cheap: a server answering "has shard `i` advanced past seq
    /// `s`?" performs one relaxed atomic load per shard and touches the
    /// snapshot itself only for shards that actually advanced.
    seq: AtomicU64,
    /// Publication wakers, held weakly so a departed subscriber system (a
    /// dropped server) unregisters itself by dropping its `Arc`. Dead weaks
    /// are swept on every notify and every attach.
    watchers: Mutex<Vec<Weak<dyn PublishWaker>>>,
}

impl<T> EpochCell<T> {
    /// Creates a cell holding `value` as its first epoch, at sequence 0.
    pub fn new(value: T) -> Self {
        EpochCell {
            slot: Mutex::new(Arc::new(value)),
            seq: AtomicU64::new(0),
            watchers: Mutex::new(Vec::new()),
        }
    }

    /// Returns the current epoch's snapshot.
    pub fn load(&self) -> Arc<T> {
        self.slot.lock().expect("epoch cell poisoned").clone()
    }

    /// Publishes a new epoch, leaving the sequence number unchanged, and
    /// wakes every attached watcher.
    pub fn store(&self, value: Arc<T>) {
        *self.slot.lock().expect("epoch cell poisoned") = value;
        self.notify(self.seq());
    }

    /// Publishes a new epoch stamped with its publication sequence number,
    /// and wakes every attached watcher.
    pub fn store_with_seq(&self, value: Arc<T>, seq: u64) {
        *self.slot.lock().expect("epoch cell poisoned") = value;
        self.seq.store(seq, Ordering::Release);
        self.notify(seq);
    }

    /// The sequence number of the latest published epoch, without locking.
    #[inline]
    pub fn seq(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// Attaches a publication waker to this cell. The cell holds it weakly,
    /// so dropping the last strong `Arc` detaches it; re-attaching the same
    /// waker is a no-op, so watching a fleet twice does not grow the watcher
    /// list.
    pub fn watch(&self, waker: &Arc<dyn PublishWaker>) {
        let mut watchers = self.watchers.lock().expect("watcher list poisoned");
        watchers.retain(|w| w.strong_count() > 0);
        if !watchers.iter().any(|w| w.ptr_eq(&Arc::downgrade(waker))) {
            watchers.push(Arc::downgrade(waker));
        }
    }

    /// Gives this fresh cell the watchers of `other`. A reshape hands the
    /// roster's watchers to the shard cells it creates, so one
    /// [`StoryView::watch`] covers every later topology.
    pub(crate) fn watch_like<U>(&self, other: &EpochCell<U>) {
        let watchers = other
            .watchers
            .lock()
            .expect("watcher list poisoned")
            .clone();
        *self.watchers.lock().expect("watcher list poisoned") = watchers;
    }

    /// Wakes every live watcher, outside the slot lock (publication is
    /// already visible when the callbacks run).
    fn notify(&self, seq: u64) {
        let mut watchers = self.watchers.lock().expect("watcher list poisoned");
        watchers.retain(|w| match w.upgrade() {
            Some(waker) => {
                waker.wake(seq);
                true
            }
            None => false,
        });
    }
}

/// One published micro-batch of [`DenseEvent`]s, retained by a shard's
/// [`DeltaRing`]. Covers updates `base_seq..seq` of its shard; consecutive
/// retained batches are contiguous (`batch[i].seq == batch[i + 1].base_seq`).
#[derive(Debug, Clone)]
pub struct DeltaBatch {
    /// The shard's sequence number before the micro-batch.
    pub base_seq: u64,
    /// The shard's sequence number after the micro-batch.
    pub seq: u64,
    /// The events the micro-batch emitted (often empty — retention is cheap).
    pub events: Arc<[DenseEvent]>,
}

/// A bounded ring of the most recent [`DeltaBatch`]es published by one shard.
///
/// This is what turns the per-micro-batch delta stream into something a
/// remote reader can *poll*: a client that last saw sequence `s` asks for
/// everything after `s`, and as long as `s` is still covered by the ring the
/// answer is the exact event suffix — no long-polling, no subscription state
/// on the server. A client that fell further behind than the retention bound
/// is told to resynchronise from the full snapshot instead
/// ([`DeltaCatchUp::Resync`]).
#[derive(Debug)]
pub struct DeltaRing {
    batches: Mutex<VecDeque<DeltaBatch>>,
    capacity: usize,
}

impl DeltaRing {
    /// Creates an empty ring retaining up to `capacity` micro-batches.
    pub fn new(capacity: usize) -> Self {
        DeltaRing {
            batches: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
            capacity: capacity.max(1),
        }
    }

    /// Appends one published micro-batch, evicting the oldest batch once the
    /// retention bound is reached.
    pub fn push(&self, batch: DeltaBatch) {
        let mut batches = self.batches.lock().expect("delta ring poisoned");
        if batches.len() == self.capacity {
            batches.pop_front();
        }
        batches.push_back(batch);
    }

    /// The earliest sequence number a [`catch_up`](DeltaRing::catch_up) from
    /// this ring can serve deltas for, or `None` while the ring is empty
    /// (nothing published yet, or a deployment freshly recovered — its
    /// pre-crash event stream is gone by design).
    pub fn coverage_from(&self) -> Option<u64> {
        self.batches
            .lock()
            .expect("delta ring poisoned")
            .front()
            .map(|b| b.base_seq)
    }

    /// The events after `since_seq`, if the ring still covers it.
    pub fn catch_up(&self, since_seq: u64) -> DeltaCatchUp {
        let batches = self.batches.lock().expect("delta ring poisoned");
        let Some(newest) = batches.back() else {
            return DeltaCatchUp::Resync;
        };
        if since_seq >= newest.seq {
            return DeltaCatchUp::Current;
        }
        if batches.front().expect("non-empty ring").base_seq > since_seq {
            return DeltaCatchUp::Resync;
        }
        let to_seq = newest.seq;
        let events = batches
            .iter()
            .filter(|b| b.seq > since_seq)
            .flat_map(|b| b.events.iter().cloned())
            .collect();
        DeltaCatchUp::Events { to_seq, events }
    }
}

/// The answer to "what changed in this shard after sequence `s`?".
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaCatchUp {
    /// Nothing: the shard has not advanced past the asked-for sequence.
    Current,
    /// The exact [`DenseEvent`] suffix covering `since_seq..to_seq`. Applying
    /// the events in order to the story set the reader held at `since_seq`
    /// yields the story set at `to_seq`.
    Events {
        /// The shard sequence number the events catch the reader up to.
        to_seq: u64,
        /// The events, in publication order.
        events: Vec<DenseEvent>,
    },
    /// The reader is further behind than the retention bound (or the shard
    /// just recovered from a crash and the pre-crash event stream is gone):
    /// it must rebase on the shard's full published snapshot.
    Resync,
}

/// An immutable, sequence-numbered view of one shard, published by its worker
/// after every micro-batch.
#[derive(Debug, Clone, Default)]
pub struct ShardSnapshot {
    /// The shard index this snapshot belongs to.
    pub shard: usize,
    /// Number of updates this shard has applied so far. Monotone; readers can
    /// use it to detect progress and to order snapshots of the same shard.
    pub seq: u64,
    /// The shard's current output-dense subgraphs in [`story_order`]
    /// (densest first, ties broken by vertex set), truncated to the
    /// configured `top_k`: one flat table whose buffers every clone of the
    /// snapshot shares.
    pub top_stories: StoryTable,
    /// Total number of output-dense subgraphs in the shard (may exceed
    /// `top_stories.len()`).
    pub output_dense: usize,
    /// The shard engine's cumulative work counters.
    pub stats: EngineStats,
    /// The shard's `seq` before the micro-batch that produced this snapshot;
    /// [`ShardSnapshot::delta_events`] covers updates
    /// `delta_base_seq..seq`.
    pub delta_base_seq: u64,
    /// The [`DenseEvent`]s emitted by the micro-batch that produced this
    /// snapshot (the stream a subscriber would tail for incremental story
    /// changes). Shared with the shard's [`DeltaRing`] batch, so publication
    /// materialises the event list once.
    pub delta_events: Arc<[DenseEvent]>,
}

impl ShardSnapshot {
    /// The empty snapshot a shard starts from.
    pub fn empty(shard: usize) -> Self {
        ShardSnapshot {
            shard,
            ..Default::default()
        }
    }
}

/// The merged, sequence-numbered answer served to readers.
#[derive(Debug, Clone)]
pub struct MergedStories {
    /// Sum of the per-shard sequence numbers: the total number of updates
    /// reflected in this view. Monotone across snapshots of the same view.
    pub seq: u64,
    /// The per-shard sequence numbers backing [`MergedStories::seq`].
    pub per_shard_seq: Vec<u64>,
    /// The merged top-k output-dense subgraphs, densest first.
    pub stories: Vec<(VertexSet, f64)>,
    /// Total number of output-dense subgraphs across all shards.
    pub output_dense_total: usize,
}

/// The current worker roster: one epoch cell and one delta ring per live
/// worker slot. The roster itself is published through an [`EpochCell`] so
/// that a shard split (which grows the fleet) is observed by every
/// [`StoryView`] clone on its next read — cells and rings are individually
/// `Arc`-shared, so untouched shards keep publishing into the same objects
/// across roster generations.
#[derive(Debug, Clone)]
pub(crate) struct ShardRoster {
    pub(crate) cells: Vec<Arc<EpochCell<ShardSnapshot>>>,
    pub(crate) rings: Vec<Arc<DeltaRing>>,
}

/// A cheap, cloneable handle for reading merged story snapshots without
/// coordinating with the ingest path.
///
/// The view always reflects the **current topology**: after a shard split,
/// [`n_shards`](StoryView::n_shards) grows, the split slot's delta ring
/// starts empty (pollers resynchronise from its snapshot, exactly as after
/// crash recovery) and the new slot appears with the split point's sequence
/// number.
#[derive(Debug, Clone)]
pub struct StoryView {
    roster: Arc<EpochCell<ShardRoster>>,
    top_k: usize,
}

impl StoryView {
    pub(crate) fn new(roster: Arc<EpochCell<ShardRoster>>, top_k: usize) -> Self {
        StoryView { roster, top_k }
    }

    /// Number of shards feeding this view (grows across splits).
    pub fn n_shards(&self) -> usize {
        self.roster.load().cells.len()
    }

    /// Attaches `waker` to the roster cell and to every current shard cell,
    /// so it fires on every worker publication *and* on every topology change
    /// (split/merge roster swap). Attachment is idempotent per cell, and the
    /// cells hold the waker weakly — dropping the last strong `Arc` detaches
    /// it everywhere.
    ///
    /// One call covers every later topology too: a split or merge attaches
    /// the roster's watchers to each shard cell it creates before any of
    /// them publishes, so there is nothing to re-watch.
    pub fn watch(&self, waker: &Arc<dyn PublishWaker>) {
        self.roster.watch(waker);
        for cell in &self.roster.load().cells {
            cell.watch(waker);
        }
    }

    /// This view pinned to the current topology: the pinned view answers
    /// every read against this one roster, so a split or merge that commits
    /// while a caller walks the shards cannot change the shard count under
    /// it. Its shards keep publishing; only the set of shards is fixed.
    pub fn pin(&self) -> StoryView {
        let roster = EpochCell::new((*self.roster.load()).clone());
        StoryView::new(Arc::new(roster), self.top_k)
    }

    /// The latest published snapshot of one shard.
    pub fn shard_snapshot(&self, shard: usize) -> Arc<ShardSnapshot> {
        self.roster.load().cells[shard].load()
    }

    /// The latest published sequence number of one shard: a single atomic
    /// load past the roster pointer, no locks, no snapshot traffic. The
    /// primitive a polling server uses to decide whether a shard has
    /// anything new for a client.
    #[inline]
    pub fn shard_seq(&self, shard: usize) -> u64 {
        self.roster.load().cells[shard].seq()
    }

    /// The latest published sequence numbers of all shards (one atomic load
    /// each).
    pub fn per_shard_seq(&self) -> Vec<u64> {
        self.roster.load().cells.iter().map(|c| c.seq()).collect()
    }

    /// The [`DenseEvent`]s of `shard` after `since_seq`, served from the
    /// shard's bounded [`DeltaRing`]: [`DeltaCatchUp::Current`] if the shard
    /// has not advanced, the exact contiguous event suffix if retention still
    /// covers `since_seq`, and [`DeltaCatchUp::Resync`] if the reader fell
    /// behind the retention bound and must rebase on
    /// [`shard_snapshot`](StoryView::shard_snapshot).
    pub fn deltas_since(&self, shard: usize, since_seq: u64) -> DeltaCatchUp {
        self.roster.load().rings[shard].catch_up(since_seq)
    }

    /// The earliest sequence number [`deltas_since`](StoryView::deltas_since)
    /// can serve deltas for on `shard`, or `None` while nothing has been
    /// published since construction (or recovery, or a split of this shard).
    pub fn delta_coverage_from(&self, shard: usize) -> Option<u64> {
        self.roster.load().rings[shard].coverage_from()
    }

    /// Merges the latest per-shard snapshots into a top-k story view.
    ///
    /// Reads are wait-free with respect to ingest up to the epoch-pointer
    /// clones; the merge itself runs on the reader's thread over immutable
    /// data. Each call observes each shard's latest published epoch, so
    /// per-shard sequence numbers are monotone over repeated calls (the
    /// *number* of shards can grow between calls when a split commits).
    pub fn snapshot(&self) -> MergedStories {
        let roster = self.roster.load();
        let shards: Vec<Arc<ShardSnapshot>> = roster.cells.iter().map(|c| c.load()).collect();
        let per_shard_seq: Vec<u64> = shards.iter().map(|s| s.seq).collect();
        let seq = per_shard_seq.iter().sum();
        let output_dense_total = shards.iter().map(|s| s.output_dense).sum();
        let stories = merge_top_k(shards.iter().map(|s| &s.top_stories), self.top_k);
        MergedStories {
            seq,
            per_shard_seq,
            stories,
            output_dense_total,
        }
    }

    /// The merged cumulative work counters of all shards, as of their latest
    /// published snapshots.
    pub fn stats(&self) -> EngineStats {
        let roster = self.roster.load();
        let shards: Vec<Arc<ShardSnapshot>> = roster.cells.iter().map(|c| c.load()).collect();
        EngineStats::merged(shards.iter().map(|s| &s.stats))
    }
}

/// The first `top_k` stories of the union of `tables`, each already in
/// story order: a k-way merge that stops at `top_k` and builds a
/// [`VertexSet`] only for the stories it returns. Equal to sorting the
/// concatenation; between rows that compare equal (the same story in two
/// tables) the earlier table goes first.
fn merge_top_k<'a>(
    tables: impl Iterator<Item = &'a StoryTable>,
    top_k: usize,
) -> Vec<(VertexSet, f64)> {
    let mut heads: Vec<_> = tables.map(|t| t.iter().peekable()).collect();
    let mut stories = Vec::new();
    while stories.len() < top_k {
        let best = heads
            .iter_mut()
            .enumerate()
            .filter_map(|(i, rows)| rows.peek().map(|&row| (i, row)))
            .min_by(|a, b| story_order(a.1, b.1));
        let Some((i, (vertices, density))) = best else {
            break;
        };
        heads[i].next();
        stories.push((VertexSet::from_sorted(vertices.to_vec()), density));
    }
    stories
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyndens_core::sort_stories;
    use dyndens_graph::VertexSet;

    /// A shard snapshot of `stories`, ranked as a worker publishes them.
    fn snap(shard: usize, seq: u64, stories: &[(&[u32], f64)]) -> ShardSnapshot {
        let mut stories: Vec<(VertexSet, f64)> = stories
            .iter()
            .map(|(ids, d)| (VertexSet::from_ids(ids), *d))
            .collect();
        sort_stories(&mut stories);
        ShardSnapshot {
            shard,
            seq,
            top_stories: StoryTable::from_stories(&stories),
            output_dense: stories.len(),
            ..Default::default()
        }
    }

    fn view_of(cells: Vec<EpochCell<ShardSnapshot>>, top_k: usize) -> StoryView {
        let n = cells.len();
        let roster = ShardRoster {
            cells: cells.into_iter().map(Arc::new).collect(),
            rings: (0..n).map(|_| Arc::new(DeltaRing::new(8))).collect(),
        };
        StoryView::new(Arc::new(EpochCell::new(roster)), top_k)
    }

    #[test]
    fn epoch_cell_swaps_epochs() {
        let cell = EpochCell::new(1u32);
        let old = cell.load();
        cell.store(Arc::new(2));
        assert_eq!(*old, 1, "readers keep their epoch");
        assert_eq!(*cell.load(), 2);
        assert_eq!(cell.seq(), 0, "plain store leaves the seq untouched");
        cell.store_with_seq(Arc::new(3), 17);
        assert_eq!(cell.seq(), 17);
        assert_eq!(*cell.load(), 3);
    }

    #[test]
    fn publish_wakers_fire_and_detach() {
        use std::sync::atomic::AtomicUsize;

        #[derive(Default)]
        struct Recorder {
            wakes: AtomicUsize,
            last_seq: AtomicU64,
        }
        impl PublishWaker for Recorder {
            fn wake(&self, seq: u64) {
                self.wakes.fetch_add(1, Ordering::SeqCst);
                self.last_seq.store(seq, Ordering::SeqCst);
            }
        }

        let cell = EpochCell::new(0u32);
        let recorder = Arc::new(Recorder::default());
        let waker: Arc<dyn PublishWaker> = recorder.clone();
        cell.watch(&waker);
        cell.watch(&waker); // idempotent: re-attaching must not double-fire
        cell.store_with_seq(Arc::new(1), 5);
        assert_eq!(recorder.wakes.load(Ordering::SeqCst), 1);
        assert_eq!(recorder.last_seq.load(Ordering::SeqCst), 5);
        // A plain store (roster swap) also wakes, with the unchanged seq.
        cell.store(Arc::new(2));
        assert_eq!(recorder.wakes.load(Ordering::SeqCst), 2);
        assert_eq!(recorder.last_seq.load(Ordering::SeqCst), 5);
        // Dropping the last strong Arc detaches the waker.
        drop(waker);
        drop(recorder);
        cell.store_with_seq(Arc::new(3), 6);
        assert_eq!(*cell.load(), 3);
    }

    #[test]
    fn view_watch_covers_roster_and_shard_cells() {
        use std::sync::atomic::AtomicUsize;

        struct CountWaker(AtomicUsize);
        impl PublishWaker for CountWaker {
            fn wake(&self, _seq: u64) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        let shard_cell = Arc::new(EpochCell::new(snap(0, 0, &[])));
        let roster_cell = Arc::new(EpochCell::new(ShardRoster {
            cells: vec![Arc::clone(&shard_cell)],
            rings: vec![Arc::new(DeltaRing::new(4))],
        }));
        let view = StoryView::new(Arc::clone(&roster_cell), 4);
        let counter = Arc::new(CountWaker(AtomicUsize::new(0)));
        let waker: Arc<dyn PublishWaker> = counter.clone();
        view.watch(&waker);

        shard_cell.store_with_seq(Arc::new(snap(0, 1, &[])), 1);
        assert_eq!(counter.0.load(Ordering::SeqCst), 1, "worker publication");

        let grown = ShardRoster {
            cells: vec![
                Arc::clone(&shard_cell),
                Arc::new(EpochCell::new(snap(1, 0, &[]))),
            ],
            rings: vec![Arc::new(DeltaRing::new(4)), Arc::new(DeltaRing::new(4))],
        };
        roster_cell.store(Arc::new(grown));
        assert_eq!(counter.0.load(Ordering::SeqCst), 2, "roster swap");

        // Re-walking after the topology change covers the new cell without
        // double-attaching to the old ones.
        view.watch(&waker);
        let new_cell = Arc::clone(&roster_cell.load().cells[1]);
        new_cell.store_with_seq(Arc::new(snap(1, 2, &[])), 2);
        assert_eq!(counter.0.load(Ordering::SeqCst), 3, "new shard covered");
        shard_cell.store_with_seq(Arc::new(snap(0, 2, &[])), 2);
        assert_eq!(counter.0.load(Ordering::SeqCst), 4, "no double attach");
    }

    #[test]
    fn merged_snapshot_is_sorted_and_truncated() {
        let cells = vec![
            EpochCell::new(snap(0, 10, &[(&[0, 4], 1.5), (&[0, 8], 0.9)])),
            EpochCell::new(snap(1, 5, &[(&[1, 5], 1.2), (&[1, 9], 1.6)])),
        ];
        cells[0].store_with_seq(cells[0].load(), 10);
        cells[1].store_with_seq(cells[1].load(), 5);
        let view = view_of(cells, 3);
        assert_eq!(view.n_shards(), 2);
        let merged = view.snapshot();
        assert_eq!(merged.seq, 15);
        assert_eq!(merged.per_shard_seq, vec![10, 5]);
        assert_eq!(merged.output_dense_total, 4);
        assert_eq!(merged.stories.len(), 3);
        let densities: Vec<f64> = merged.stories.iter().map(|(_, d)| *d).collect();
        assert_eq!(densities, vec![1.6, 1.5, 1.2]);
        assert_eq!(view.shard_snapshot(1).seq, 5);
        assert_eq!(view.shard_seq(0), 10);
        assert_eq!(view.per_shard_seq(), vec![10, 5]);
    }

    #[test]
    fn merged_snapshot_breaks_cross_shard_density_ties_by_vertex_set() {
        // Three shards whose stories share densities: the merge must
        // interleave them by vertex set exactly as a sort of the
        // concatenation would.
        let per_shard: [&[(&[u32], f64)]; 3] = [
            &[(&[2, 6], 1.5), (&[0, 4, 8], 1.25), (&[4, 12], 1.25)],
            &[(&[1, 5], 1.5), (&[1, 9], 1.25), (&[5, 9], 1.0)],
            &[(&[3, 7], 1.5), (&[0, 4], 1.25)],
        ];
        let cells: Vec<_> = per_shard
            .iter()
            .enumerate()
            .map(|(i, stories)| EpochCell::new(snap(i, 1, stories)))
            .collect();
        let mut want: Vec<(VertexSet, f64)> = per_shard
            .iter()
            .flat_map(|s| s.iter().map(|(ids, d)| (VertexSet::from_ids(ids), *d)))
            .collect();
        sort_stories(&mut want);
        let ids = |ids: &[u32]| VertexSet::from_ids(ids);
        assert_eq!(
            want.iter().map(|(s, _)| s.clone()).collect::<Vec<_>>(),
            vec![
                ids(&[1, 5]),
                ids(&[2, 6]),
                ids(&[3, 7]),
                ids(&[0, 4]),
                ids(&[0, 4, 8]),
                ids(&[1, 9]),
                ids(&[4, 12]),
                ids(&[5, 9]),
            ]
        );
        let view = view_of(cells, 6);
        assert_eq!(view.snapshot().stories, want[..6].to_vec());
    }

    #[test]
    fn view_stats_merge_shards() {
        let mut a = snap(0, 1, &[]);
        a.stats.updates = 3;
        let mut b = snap(1, 1, &[]);
        b.stats.updates = 4;
        let view = view_of(vec![EpochCell::new(a), EpochCell::new(b)], 4);
        assert_eq!(view.stats().updates, 7);
    }

    #[test]
    fn view_observes_roster_growth() {
        // A split publishes a grown roster through the same epoch cell the
        // view already holds: existing view clones see the new shard (and
        // the reused slot's cleared ring) on their next read.
        let roster_cell = Arc::new(EpochCell::new(ShardRoster {
            cells: vec![Arc::new(EpochCell::new(snap(0, 7, &[(&[0, 2], 1.0)])))],
            rings: vec![Arc::new(DeltaRing::new(4))],
        }));
        let view = StoryView::new(Arc::clone(&roster_cell), 4);
        let clone = view.clone();
        assert_eq!(view.n_shards(), 1);

        let old = roster_cell.load();
        let grown = ShardRoster {
            cells: vec![
                Arc::clone(&old.cells[0]),
                Arc::new(EpochCell::new(snap(1, 7, &[(&[1, 3], 1.4)]))),
            ],
            rings: vec![Arc::new(DeltaRing::new(4)), Arc::new(DeltaRing::new(4))],
        };
        roster_cell.store(Arc::new(grown));
        assert_eq!(clone.n_shards(), 2, "pre-split clones observe the growth");
        assert_eq!(clone.snapshot().stories.len(), 2);
        // The reused slot's fresh ring is empty: pollers resync, like after
        // crash recovery.
        assert_eq!(clone.deltas_since(0, 3), DeltaCatchUp::Resync);
        // The untouched cell object is shared: a publication through the old
        // roster's cell is visible through the new roster.
        old.cells[0].store_with_seq(Arc::new(snap(0, 9, &[])), 9);
        assert_eq!(clone.shard_seq(0), 9);
    }

    fn became(ids: &[u32]) -> DenseEvent {
        DenseEvent::BecameOutputDense {
            vertices: VertexSet::from_ids(ids),
            density: 1.0,
        }
    }

    #[test]
    fn delta_ring_serves_contiguous_suffixes() {
        let ring = DeltaRing::new(3);
        assert_eq!(ring.catch_up(0), DeltaCatchUp::Resync, "empty ring");
        assert_eq!(ring.coverage_from(), None);
        for (base, seq, ids) in [(0u64, 2u64, &[0u32][..]), (2, 5, &[1]), (5, 6, &[2])] {
            ring.push(DeltaBatch {
                base_seq: base,
                seq,
                events: vec![became(ids)].into(),
            });
        }
        assert_eq!(ring.coverage_from(), Some(0));
        assert_eq!(ring.catch_up(6), DeltaCatchUp::Current);
        assert_eq!(ring.catch_up(9), DeltaCatchUp::Current, "reader ahead");
        match ring.catch_up(2) {
            DeltaCatchUp::Events { to_seq, events } => {
                assert_eq!(to_seq, 6);
                assert_eq!(events, vec![became(&[1]), became(&[2])]);
            }
            other => panic!("expected events, got {other:?}"),
        }
        // A fourth batch evicts the oldest: seq 0 is no longer covered.
        ring.push(DeltaBatch {
            base_seq: 6,
            seq: 9,
            events: Vec::new().into(),
        });
        assert_eq!(ring.coverage_from(), Some(2));
        assert_eq!(ring.catch_up(0), DeltaCatchUp::Resync);
        assert!(matches!(ring.catch_up(2), DeltaCatchUp::Events { .. }));
    }

    #[test]
    fn delta_ring_with_retention_one_keeps_only_the_newest_batch() {
        let ring = DeltaRing::new(1);
        // The constructor clamps a degenerate capacity to one.
        let clamped = DeltaRing::new(0);
        for r in [&ring, &clamped] {
            r.push(DeltaBatch {
                base_seq: 0,
                seq: 3,
                events: vec![became(&[0])].into(),
            });
            r.push(DeltaBatch {
                base_seq: 3,
                seq: 5,
                events: vec![became(&[1])].into(),
            });
            assert_eq!(r.coverage_from(), Some(3), "only the newest batch lives");
            // A reader at the surviving batch's base gets exactly it.
            match r.catch_up(3) {
                DeltaCatchUp::Events { to_seq, events } => {
                    assert_eq!(to_seq, 5);
                    assert_eq!(events, vec![became(&[1])]);
                }
                other => panic!("expected events, got {other:?}"),
            }
            // One batch further back is already out of retention.
            assert_eq!(r.catch_up(0), DeltaCatchUp::Resync);
            assert_eq!(r.catch_up(5), DeltaCatchUp::Current);
        }
    }

    #[test]
    fn delta_ring_poll_exactly_at_wrap_boundary() {
        // Capacity 3; the fourth push evicts the first batch. A reader whose
        // cursor sits exactly on the evicted/retained boundary must get the
        // full retained suffix, one update past it must resync.
        let ring = DeltaRing::new(3);
        for (base, seq) in [(0u64, 10u64), (10, 20), (20, 30), (30, 40)] {
            ring.push(DeltaBatch {
                base_seq: base,
                seq,
                events: vec![became(&[(base / 10) as u32])].into(),
            });
        }
        assert_eq!(ring.coverage_from(), Some(10));
        // Exactly at the oldest retained batch's base: full suffix.
        match ring.catch_up(10) {
            DeltaCatchUp::Events { to_seq, events } => {
                assert_eq!(to_seq, 40);
                assert_eq!(events, vec![became(&[1]), became(&[2]), became(&[3])]);
            }
            other => panic!("expected events, got {other:?}"),
        }
        // One update older than the boundary: the suffix would be incomplete.
        assert_eq!(ring.catch_up(9), DeltaCatchUp::Resync);
        // Exactly at the newest published seq: current, not an empty suffix.
        assert_eq!(ring.catch_up(40), DeltaCatchUp::Current);
        // On an interior batch boundary: the suffix starts right there.
        match ring.catch_up(30) {
            DeltaCatchUp::Events { to_seq, events } => {
                assert_eq!(to_seq, 40);
                assert_eq!(events, vec![became(&[3])]);
            }
            other => panic!("expected events, got {other:?}"),
        }
    }

    #[test]
    fn deltas_since_across_a_seq_reset() {
        // A split (like crash recovery) replaces a shard's ring with an empty
        // one whose coverage restarts at the split point S, while readers
        // still hold cursors from the old regime. Every stale cursor must be
        // told to resync; post-reset publications serve normally.
        let ring = DeltaRing::new(4);
        ring.push(DeltaBatch {
            base_seq: 90,
            seq: 100,
            events: vec![became(&[7])].into(),
        });
        let fresh = DeltaRing::new(4); // the ring after the reset, empty at S = 100
        for cursor in [0, 42, 99, 100] {
            assert_eq!(
                fresh.catch_up(cursor),
                DeltaCatchUp::Resync,
                "cursor {cursor} must rebase on the snapshot"
            );
        }
        assert_eq!(fresh.coverage_from(), None);
        // First post-reset publication continues the sequence numbers.
        fresh.push(DeltaBatch {
            base_seq: 100,
            seq: 104,
            events: vec![became(&[8])].into(),
        });
        assert_eq!(fresh.coverage_from(), Some(100));
        // A reader current to the split point follows deltas seamlessly...
        match fresh.catch_up(100) {
            DeltaCatchUp::Events { to_seq, events } => {
                assert_eq!(to_seq, 104);
                assert_eq!(events, vec![became(&[8])]);
            }
            other => panic!("expected events, got {other:?}"),
        }
        // ...while pre-reset cursors still resync (their suffix is gone).
        assert_eq!(fresh.catch_up(95), DeltaCatchUp::Resync);
    }
}
