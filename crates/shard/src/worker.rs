//! The shard worker: a thread owning one engine, fed by a bounded channel.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dyndens_core::{DenseEvent, MaintenanceEngine};
use dyndens_graph::EdgeUpdate;

use crate::config::PersistenceConfig;
use crate::obs::{ShardObs, WalObs};
use crate::recovery;
use crate::view::{DeltaBatch, DeltaRing, EpochCell, ShardSnapshot};
use crate::wal::WalWriter;

/// Messages a shard worker consumes.
#[derive(Clone)]
pub(crate) enum WorkerMsg {
    /// Apply one update.
    Update(EdgeUpdate),
    /// Apply a pre-routed batch of updates.
    Batch(Vec<EdgeUpdate>),
    /// Acknowledge once every previously sent update has been applied and its
    /// snapshot published.
    Flush(Sender<()>),
    /// Evict every engine edge with weight at or below `min_weight` (WAL-logged
    /// like ordinary updates), force a checkpoint, prune the WAL behind it,
    /// and acknowledge with the number of edges evicted.
    Compact {
        /// The eviction floor handed to [`MaintenanceEngine::edges_below`].
        min_weight: f64,
        /// Receives the number of edges evicted once the pass is durable.
        ack: Sender<u64>,
    },
    /// Stop after processing everything drained alongside this message.
    Shutdown,
}

/// A control message that terminates a drain; the worker applies whatever
/// micro-batch it drained first, then acts on the control.
enum Control {
    Shutdown,
    Compact { min_weight: f64, ack: Sender<u64> },
}

/// The durability half of a worker: its WAL writer and snapshot cadence.
pub(crate) struct WorkerPersistence {
    /// The shard's WAL, positioned to append.
    pub wal: WalWriter,
    /// The shard's persistence directory (snapshots are written here).
    pub dir: PathBuf,
    /// Snapshot every N micro-batches.
    pub snapshot_every: usize,
    /// How many snapshots to retain.
    pub retained: usize,
    /// Micro-batches applied since the last snapshot.
    pub batches_since_snapshot: usize,
}

impl WorkerPersistence {
    /// The durability half of a shard persisting into `dir` through `wal`.
    pub(crate) fn new(p: &PersistenceConfig, dir: PathBuf, wal: WalWriter) -> Self {
        WorkerPersistence {
            wal,
            dir,
            snapshot_every: p.snapshot_every_batches,
            retained: p.retained_snapshots,
            batches_since_snapshot: 0,
        }
    }

    /// Writes `bytes` as the checkpoint at `seq`, then rotates the WAL and
    /// prunes it behind the oldest retained checkpoint. A failure is not
    /// fatal: the WAL still covers the whole history since the last good
    /// checkpoint, and the cadence counter is only reset on success, so the
    /// next micro-batch retries instead of a full cadence later.
    fn checkpoint(&mut self, shard: usize, seq: u64, bytes: &[u8], obs: Option<&ShardObs>) {
        let started = obs.map(|_| Instant::now());
        match recovery::write_snapshot(&self.dir, seq, bytes, self.retained) {
            Ok(oldest_retained) => {
                self.batches_since_snapshot = 0;
                if let (Some(o), Some(t)) = (obs, started) {
                    o.record_checkpoint(seq, bytes.len() as u64, t.elapsed());
                }
                if let Err(e) = self
                    .wal
                    .rotate(seq)
                    .and_then(|()| self.wal.prune_to(oldest_retained))
                {
                    eprintln!("shard {shard}: WAL rotate/prune failed: {e}");
                }
            }
            Err(e) => eprintln!("shard {shard}: checkpoint at seq {seq} failed: {e}"),
        }
    }
}

/// Publishes one snapshot. Retention before visibility: the ring covers the
/// new seq before the epoch pointer announces it, so a poller that observes
/// the new seq can always fetch its deltas.
fn publish(ring: &DeltaRing, cell: &EpochCell<ShardSnapshot>, snapshot: ShardSnapshot) {
    let seq = snapshot.seq;
    ring.push(DeltaBatch {
        base_seq: snapshot.delta_base_seq,
        seq,
        events: Arc::clone(&snapshot.delta_events),
    });
    cell.store_with_seq(Arc::new(snapshot), seq);
}

/// Everything a worker thread is parameterised by at spawn time (beyond its
/// shared engine/cell handles).
pub(crate) struct WorkerSetup {
    /// The worker's slot index, shared with the facade: a shard **merge**
    /// that frees a middle slot renumbers the last live worker into the
    /// freed slot by storing into this cell — the worker stamps every
    /// snapshot it publishes with the current value, so readers never see a
    /// stale slot number.
    pub slot: Arc<AtomicU32>,
    /// Micro-batch drain bound.
    pub max_batch: usize,
    /// Stories kept per published snapshot.
    pub top_k: usize,
    /// The shard's sequence number at spawn (non-zero after recovery).
    pub initial_seq: u64,
    /// The durability half, absent for in-memory deployments.
    pub persist: Option<WorkerPersistence>,
    /// Pre-registered metric handles, absent when the deployment has no
    /// registry attached.
    pub obs: Option<ShardObs>,
}

/// The worker loop: block on the inbox, drain up to `max_batch` pending
/// messages, WAL the drained micro-batch (durability first), apply it under
/// a single engine lock, publish a fresh snapshot, acknowledge flushes,
/// periodically checkpoint the engine, repeat.
///
/// On shutdown the worker hands its durability half back, so an aborted
/// reshape can relaunch the shard on the same WAL writer.
pub(crate) fn run<E: MaintenanceEngine>(
    setup: WorkerSetup,
    inbox: Receiver<WorkerMsg>,
    engine: Arc<Mutex<E>>,
    cell: Arc<EpochCell<ShardSnapshot>>,
    ring: Arc<DeltaRing>,
) -> Option<WorkerPersistence> {
    let WorkerSetup {
        slot,
        max_batch,
        top_k,
        initial_seq,
        mut persist,
        mut obs,
    } = setup;
    let mut seq: u64 = initial_seq;
    // Scratch buffers reused across micro-batches.
    let mut pending: Vec<EdgeUpdate> = Vec::with_capacity(max_batch);
    let mut acks: Vec<Sender<()>> = Vec::new();
    let mut events: Vec<DenseEvent> = Vec::new();

    loop {
        let first = match inbox.recv() {
            Ok(msg) => msg,
            // All senders dropped: the facade is gone, stop quietly.
            Err(_) => break,
        };
        let mut control = absorb(first, &mut pending, &mut acks);
        // Micro-batching: drain whatever else is already queued, up to the
        // configured bound, so channel wakeups and engine locking amortise.
        // A control message (shutdown, compact) ends the drain so it acts at
        // its position in the queue order.
        while control.is_none() && pending.len() < max_batch {
            match inbox.try_recv() {
                Ok(msg) => control = absorb(msg, &mut pending, &mut acks),
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }

        let shard = slot.load(Ordering::Relaxed) as usize;
        // A shard merge can renumber this worker's slot; relabel the metric
        // handles (a rare, registration-cost path) so per-shard series keep
        // matching the slot readers see in published snapshots.
        if let Some(o) = obs.as_mut() {
            if o.slot != shard as u32 {
                let registry = Arc::clone(&o.registry);
                *o = ShardObs::for_slot(&registry, shard as u32);
                if let Some(p) = persist.as_mut() {
                    p.wal
                        .set_obs(Some(WalObs::for_slot(&registry, shard as u32)));
                }
            }
        }
        if !pending.is_empty() {
            // Durability before visibility: the micro-batch is in the WAL
            // before the engine sees it, so a crash at any later point can
            // replay it. An append failure is a broken durability contract —
            // better to kill the worker (and surface the panic on the next
            // facade call) than to silently continue unlogged.
            if let Some(p) = persist.as_mut() {
                p.wal
                    .append(seq, &pending)
                    .unwrap_or_else(|e| panic!("shard {shard}: WAL append failed: {e}"));
            }
            events.clear();
            let delta_base_seq = seq;
            let batch_len = pending.len();
            let apply_started = obs.as_ref().map(|_| Instant::now());
            let mut apply_elapsed = Duration::ZERO;
            let (snapshot, checkpoint, publish_started) = {
                let mut guard = engine.lock().expect("shard engine poisoned");
                for update in pending.drain(..) {
                    guard.apply_update_into(update, &mut events);
                    seq += 1;
                }
                // Apply latency as the worker experienced it: lock wait plus
                // the engine work, excluding checkpoint serialisation and
                // publication.
                if let Some(t) = apply_started {
                    apply_elapsed = t.elapsed();
                }
                if let Some(o) = obs.as_ref() {
                    o.set_engine_gauges(guard.stats());
                }
                // Serialise the checkpoint image while the lock guarantees
                // it corresponds exactly to `seq`; write it to disk after
                // the lock is released.
                let checkpoint = match persist.as_mut() {
                    Some(p) => {
                        p.batches_since_snapshot += 1;
                        (p.batches_since_snapshot >= p.snapshot_every).then(|| guard.snapshot())
                    }
                    None => None,
                };
                let publish_started = obs.as_ref().map(|_| Instant::now());
                (
                    build_snapshot(shard, &mut *guard, seq, delta_base_seq, &events, top_k),
                    checkpoint,
                    publish_started,
                )
            };
            publish(&ring, &cell, snapshot);
            if let (Some(o), Some(t)) = (obs.as_ref(), publish_started) {
                o.record_publish(t.elapsed());
                o.record_batch(batch_len, apply_elapsed);
            }
            if let (Some(bytes), Some(p)) = (checkpoint, persist.as_mut()) {
                p.checkpoint(shard, seq, &bytes, obs.as_ref());
            }
        }
        if let Some(Control::Compact { min_weight, ack }) = &control {
            // A compaction pass: evict decayed-out edges through the normal
            // update path (WAL first, so crash replay reproduces the
            // eviction bit-for-bit), then checkpoint unconditionally and
            // prune the WAL behind the checkpoint — the "fold evicted state
            // out of the snapshot, truncate the log" half of bounded-state
            // operation.
            events.clear();
            let delta_base_seq = seq;
            let (snapshot, checkpoint, evicted, publish_started) = {
                let mut guard = engine.lock().expect("shard engine poisoned");
                let victims = guard.edges_below(*min_weight);
                if let Some(p) = persist.as_mut() {
                    if !victims.is_empty() {
                        p.wal
                            .append(seq, &victims)
                            .unwrap_or_else(|e| panic!("shard {shard}: WAL append failed: {e}"));
                    }
                }
                let report = guard.evict_below(*min_weight, &mut events);
                debug_assert_eq!(report.edges_evicted as usize, victims.len());
                seq += report.edges_evicted;
                let checkpoint = persist.is_some().then(|| guard.snapshot());
                let publish_started = obs.as_ref().map(|_| Instant::now());
                (
                    build_snapshot(shard, &mut *guard, seq, delta_base_seq, &events, top_k),
                    checkpoint,
                    report.edges_evicted,
                    publish_started,
                )
            };
            publish(&ring, &cell, snapshot);
            if let (Some(o), Some(t)) = (obs.as_ref(), publish_started) {
                o.record_publish(t.elapsed());
            }
            if let (Some(bytes), Some(p)) = (checkpoint, persist.as_mut()) {
                p.checkpoint(shard, seq, &bytes, obs.as_ref());
            }
            // A dropped compaction waiter is not an error.
            let _ = ack.send(evicted);
        }
        for ack in acks.drain(..) {
            // A dropped flush waiter is not an error.
            let _ = ack.send(());
        }
        if matches!(control, Some(Control::Shutdown)) {
            break;
        }
    }
    persist
}

/// Folds one message into the drain buffers; a returned [`Control`] ends the
/// drain.
fn absorb(
    msg: WorkerMsg,
    pending: &mut Vec<EdgeUpdate>,
    acks: &mut Vec<Sender<()>>,
) -> Option<Control> {
    match msg {
        WorkerMsg::Update(u) => pending.push(u),
        WorkerMsg::Batch(batch) => pending.extend(batch),
        WorkerMsg::Flush(ack) => acks.push(ack),
        WorkerMsg::Compact { min_weight, ack } => {
            return Some(Control::Compact { min_weight, ack })
        }
        WorkerMsg::Shutdown => return Some(Control::Shutdown),
    }
    None
}

/// Renders the engine's current answer into an immutable snapshot: its
/// ranking cut to `top_k` (a [`MaintenanceEngine::ranked_output`] table,
/// re-ranked from the engine's changes rather than re-sorted), the family
/// size, the work ledger and the micro-batch's events.
pub(crate) fn build_snapshot<E: MaintenanceEngine>(
    shard: usize,
    engine: &mut E,
    seq: u64,
    delta_base_seq: u64,
    events: &[DenseEvent],
    top_k: usize,
) -> ShardSnapshot {
    let (top_stories, output_dense) = engine.ranked_output(top_k);
    ShardSnapshot {
        shard,
        seq,
        top_stories,
        output_dense,
        stats: engine.stats().clone(),
        delta_base_seq,
        delta_events: events.into(),
    }
}
