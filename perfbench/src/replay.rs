//! The traced run's replay of the steps that run inside shard workers.
//!
//! Apply, publish, WAL append and checkpoint run on worker threads, out of
//! the benchmark's reach. The replay feeds each shard's slice of a traced
//! round's stream, cut at the batch boundaries that round's visible log
//! observed, through the same public calls a worker makes, each inside a
//! span:
//!
//! - `core.apply`: `DynDens::apply_update_into` for every update of a batch;
//! - `shard.publish`: `output_dense_subgraphs`, the top-k sort and the
//!   snapshot's copies of the stats and events;
//! - `shard.wal_append`: `WalWriter::append` (durable workloads);
//! - `shard.checkpoint`: `DynDens::snapshot`, `recovery::write_snapshot` and
//!   the WAL rotate and prune behind it, every `snapshot_every` batches.
//!
//! Splits and merges between epochs are replayed with `partition_by` and
//! `absorb` outside any span (the caller times the real ones).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use dyndens_core::{DenseEvent, DynDens};
use dyndens_density::DensityMeasure;
use dyndens_graph::{EdgeUpdate, ShardMap, VertexSet};
use dyndens_shard::{recovery, FsyncPolicy, WalWriter};

use crate::freshness::{epochs, Landing, Mark};
use crate::trace::Tracer;

/// A topology change at the end of an epoch.
#[derive(Debug, Clone)]
pub enum Topo {
    Split {
        slot: usize,
        new_slot: usize,
        map: ShardMap,
    },
    Merge {
        slot: usize,
        freed: usize,
        map: ShardMap,
    },
}

/// The durable half of a replay: where WALs and checkpoints go, and how
/// often a checkpoint is taken.
pub struct Durable {
    pub dir: PathBuf,
    pub snapshot_every: usize,
    pub retained: usize,
    pub segment_max_bytes: u64,
}

/// Counts from a replay (times are in the tracer's spans).
#[derive(Debug, Default)]
pub struct Replayed {
    pub updates: u64,
    pub batches: u64,
    pub checkpoints: u64,
}

struct Slot<D: DensityMeasure> {
    engine: DynDens<D>,
    wal: Option<WalWriter>,
    dir: PathBuf,
    since_checkpoint: usize,
}

/// Replays `updates` (with their `landings`) at the boundaries in `marks`.
#[allow(clippy::too_many_arguments)]
pub fn replay<D: DensityMeasure>(
    updates: &[EdgeUpdate],
    landings: &[Landing],
    marks: &[Mark],
    topo: &[Topo],
    n_slots: usize,
    top_k: usize,
    make_engine: impl Fn() -> DynDens<D>,
    durable: Option<&Durable>,
    tracer: &mut Tracer,
) -> Result<Replayed, String> {
    let epochs = epochs(marks);
    let n_epochs = landings.last().map_or(1, |l| l.epoch as usize + 1);
    if epochs.len() < n_epochs || topo.len() + 1 < n_epochs {
        return Err(format!(
            "visible log has {} topology epochs, the stream {}",
            epochs.len(),
            n_epochs
        ));
    }
    let mut slots: Vec<Slot<D>> = Vec::new();
    for s in 0..n_slots {
        slots.push(open_slot(make_engine(), durable, s)?);
    }
    let mut out = Replayed::default();
    let mut events: Vec<DenseEvent> = Vec::new();
    let mut next_dir = n_slots;
    let mut start = 0;
    for (e, range) in epochs.iter().enumerate().take(n_epochs) {
        let end = start
            + landings[start..]
                .iter()
                .take_while(|l| l.epoch as usize == e)
                .count();
        for (s, slot) in slots.iter_mut().enumerate() {
            // Batch ends of slot `s` in this epoch: every sequence number it
            // published.
            let mut ends: Vec<u64> = marks[range.clone()]
                .iter()
                .filter(|m| s < m.len)
                .map(|m| m.seqs[s])
                .collect();
            ends.dedup();
            let mut ends = ends.into_iter().peekable();
            let mut batch: Vec<EdgeUpdate> = Vec::new();
            let mut first_seq = 0;
            let mut mine = (start..end)
                .filter(|&i| landings[i].slot as usize == s)
                .peekable();
            while let Some(i) = mine.next() {
                if batch.is_empty() {
                    first_seq = landings[i].seq - 1;
                }
                batch.push(updates[i]);
                while ends.peek().is_some_and(|&b| b < landings[i].seq) {
                    ends.next();
                }
                let closes = ends.peek() == Some(&landings[i].seq) || mine.peek().is_none();
                if closes {
                    if run_batch(slot, first_seq, &batch, top_k, &mut events, durable, tracer)? {
                        out.checkpoints += 1;
                    }
                    out.batches += 1;
                    out.updates += batch.len() as u64;
                    batch.clear();
                }
            }
        }
        start = end;
        if e + 1 < n_epochs {
            match &topo[e] {
                Topo::Split {
                    slot,
                    new_slot,
                    map,
                } => {
                    let (keep, moved) = slots[*slot].engine.partition_by(|v| map.route(v) == *slot);
                    slots[*slot].engine = keep;
                    assert_eq!(*new_slot, slots.len(), "a split appends its new slot");
                    let child = open_slot(moved, durable, next_dir)?;
                    next_dir += 1;
                    slots.push(child);
                }
                Topo::Merge { slot, freed, .. } => {
                    let child = slots.swap_remove(*freed);
                    slots[*slot].engine.absorb(child.engine);
                }
            }
        }
    }
    Ok(out)
}

fn open_slot<D: DensityMeasure>(
    engine: DynDens<D>,
    durable: Option<&Durable>,
    index: usize,
) -> Result<Slot<D>, String> {
    let (wal, dir) = match durable {
        Some(d) => {
            let dir = d.dir.join(format!("shard-{index:04}"));
            let wal = WalWriter::open(&dir, 0, Vec::new(), FsyncPolicy::Never, d.segment_max_bytes)
                .map_err(|e| format!("replay WAL open: {e}"))?;
            (Some(wal), dir)
        }
        None => (None, PathBuf::new()),
    };
    Ok(Slot {
        engine,
        wal,
        dir,
        since_checkpoint: 0,
    })
}

#[allow(clippy::too_many_arguments)]
fn run_batch<D: DensityMeasure>(
    slot: &mut Slot<D>,
    first_seq: u64,
    batch: &[EdgeUpdate],
    top_k: usize,
    events: &mut Vec<DenseEvent>,
    durable: Option<&Durable>,
    tracer: &mut Tracer,
) -> Result<bool, String> {
    let seq = first_seq + batch.len() as u64;
    let id = tracer.begin("replay.batch");
    if let Some(wal) = slot.wal.as_mut() {
        tracer
            .span("shard.wal_append", || wal.append(first_seq, batch))
            .map_err(|e| format!("replay WAL append: {e}"))?;
    }
    events.clear();
    let engine = &mut slot.engine;
    tracer.span("core.apply", || {
        for &u in batch {
            engine.apply_update_into(u, events);
        }
    });
    tracer.span("shard.publish", || publish(engine, events, top_k));
    let mut checkpointed = false;
    if let (Some(d), Some(wal)) = (durable, slot.wal.as_mut()) {
        slot.since_checkpoint += 1;
        if slot.since_checkpoint >= d.snapshot_every {
            slot.since_checkpoint = 0;
            checkpointed = true;
            tracer
                .span("shard.checkpoint", || {
                    checkpoint(engine, wal, &slot.dir, seq, d.retained)
                })
                .map_err(|e| format!("replay checkpoint: {e}"))?;
        }
    }
    tracer.end(id);
    Ok(checkpointed)
}

/// A worker's publication: the full output-dense family, sorted densest
/// first (ties by vertex set), cut to `top_k`, with copies of the stats and
/// the batch's events.
fn publish<D: DensityMeasure>(engine: &DynDens<D>, events: &[DenseEvent], top_k: usize) {
    let mut stories: Vec<(VertexSet, f64)> = engine.output_dense_subgraphs();
    let total = stories.len();
    stories.sort_unstable_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    stories.truncate(top_k);
    let stats = engine.stats().clone();
    let events: Arc<[DenseEvent]> = events.into();
    std::hint::black_box((stories, total, stats, events));
}

fn checkpoint<D: DensityMeasure>(
    engine: &DynDens<D>,
    wal: &mut WalWriter,
    dir: &Path,
    seq: u64,
    retained: usize,
) -> std::io::Result<()> {
    let bytes = engine.snapshot();
    let oldest = recovery::write_snapshot(dir, seq, &bytes, retained)?;
    wal.rotate(seq)?;
    wal.prune_to(oldest)?;
    Ok(())
}
