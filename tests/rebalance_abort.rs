//! The abort path of a live topology change: a split or merge whose rebuild
//! fails must leave the fleet exactly as it was — same shard count, same
//! routing generation, every update (including the ones that parked during
//! the attempt) applied — and a reopen must recover the un-reshaped
//! topology. A retry must then succeed once the fault is gone.
//!
//! The fault is deterministic: a regular file squats on the shard directory
//! the reshape is about to create (`shard-{engine_id:04}`), so clearing it
//! fails with `ENOTDIR`. Permission tricks would not work for a root user.

mod support;

use std::path::{Path, PathBuf};

use dyndens::prelude::*;
use dyndens::workloads::shard_aligned_stream;
use support::{engine_config, persistence_every, shard_config, sorted_bits, temp_dir, CHUNK};

/// A never-reshaped in-memory fleet fed `updates`: the bit-exact reference.
fn reference_bits(updates: &[EdgeUpdate]) -> Vec<(VertexSet, u64)> {
    let mut reference = ShardedDynDens::new(AvgWeight, engine_config(), shard_config(2));
    for chunk in updates.chunks(CHUNK) {
        reference.apply_batch(chunk);
    }
    sorted_bits(reference.dense_subgraphs())
}

fn open(dir: &Path) -> ShardedDynDens<AvgWeight> {
    ShardedDynDens::with_persistence(
        AvgWeight,
        engine_config(),
        shard_config(2),
        persistence_every(dir, 16),
    )
    .unwrap()
}

fn ingest(fleet: &mut ShardedDynDens<AvgWeight>, updates: &[EdgeUpdate]) {
    for chunk in updates.chunks(CHUNK) {
        fleet.apply_batch(chunk);
    }
}

/// The sum of the shards' applied sequence numbers, after a flush. (Split
/// children both start at the parent's sequence number, so this is not the
/// update count; its growth is.)
fn seq_total(fleet: &ShardedDynDens<AvgWeight>) -> u64 {
    fleet.flush();
    fleet.view().per_shard_seq().iter().sum()
}

/// Puts a regular file where the shard directory of `engine_id` will go.
fn squat(dir: &Path, engine_id: u64) -> PathBuf {
    let path = dir.join(format!("shard-{engine_id:04}"));
    std::fs::write(&path, b"squatter").unwrap();
    path
}

#[test]
fn aborted_split_keeps_the_parent_and_a_retry_succeeds() {
    let updates = shard_aligned_stream(24_000, 8, 2012);
    let (head, rest) = updates.split_at(8_000);
    let (parked, rest) = rest.split_at(4_000);
    let (between, tail) = rest.split_at(4_000);
    let dir = temp_dir("abort-split");

    let mut fleet = open(&dir);
    ingest(&mut fleet, head);
    fleet.flush();
    // Squat on child one's directory: child zero's directory is written
    // first, so the failed attempt also leaves an orphan for the retry to
    // overwrite.
    let spec = fleet.shard_map().split(0).unwrap();
    let squatter = squat(&dir, spec.child_one_engine);

    let seq_before = seq_total(&fleet);
    let handle = fleet.ingest_handle();
    let result = fleet.split_shard_with(0, |phase| {
        if phase == ReshapePhase::Parked {
            for chunk in parked.chunks(128) {
                handle.apply_batch(chunk);
            }
        }
    });
    assert!(
        matches!(result, Err(RebalanceError::Io(_))),
        "expected an I/O abort, got {result:?}"
    );
    assert_eq!(fleet.n_shards(), 2);
    assert_eq!(fleet.shard_map().generation(), 0);
    let orphan = dir.join(format!("shard-{:04}", spec.child_zero_engine));
    assert!(orphan.is_dir(), "the aborted split left child zero behind");
    // The updates that parked during the attempt were applied by the
    // relaunched parent, and the fleet keeps ingesting.
    ingest(&mut fleet, between);
    // The relaunched parents kept their live engines, so the work ledger
    // still counts every update exactly once.
    let applied = head.len() + parked.len() + between.len();
    assert_eq!(fleet.stats().updates, applied as u64);
    assert_eq!(
        seq_total(&fleet),
        seq_before + (parked.len() + between.len()) as u64
    );
    fleet.validate().unwrap();
    let want = reference_bits(&updates[..applied]);
    assert_eq!(sorted_bits(fleet.dense_subgraphs()), want);

    // A reopen recovers the un-split topology with the same bits.
    drop(fleet);
    let mut fleet = open(&dir);
    assert_eq!(fleet.n_shards(), 2);
    assert_eq!(fleet.shard_map().generation(), 0);
    assert_eq!(sorted_bits(fleet.dense_subgraphs()), want);

    // With the fault gone, a retry succeeds over the orphan directory.
    std::fs::remove_file(&squatter).unwrap();
    let report = fleet.split_shard(0).unwrap();
    assert_eq!(
        report.child_engines,
        (spec.child_zero_engine, spec.child_one_engine)
    );
    assert_eq!(fleet.n_shards(), 3);
    ingest(&mut fleet, tail);
    assert_eq!(
        sorted_bits(fleet.dense_subgraphs()),
        reference_bits(&updates)
    );
    drop(fleet);
    let reopened = open(&dir);
    assert_eq!(reopened.n_shards(), 3);
    assert_eq!(
        sorted_bits(reopened.dense_subgraphs()),
        reference_bits(&updates)
    );
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn aborted_merge_keeps_both_siblings_and_a_retry_succeeds() {
    let updates = shard_aligned_stream(24_000, 8, 2012);
    let (head, rest) = updates.split_at(8_000);
    let (parked, rest) = rest.split_at(4_000);
    let (between, tail) = rest.split_at(4_000);
    let dir = temp_dir("abort-merge");

    let mut fleet = open(&dir);
    ingest(&mut fleet, &head[..4_000]);
    let split = fleet.split_shard(0).unwrap();
    ingest(&mut fleet, &head[4_000..]);
    fleet.flush();
    let spec = fleet.shard_map().merge(0, split.new_slot).unwrap();
    let squatter = squat(&dir, spec.merged_engine);

    let seq_before = seq_total(&fleet);
    let handle = fleet.ingest_handle();
    let result = fleet.merge_shards_with(0, split.new_slot, |phase| {
        if phase == ReshapePhase::Parked {
            for chunk in parked.chunks(128) {
                handle.apply_batch(chunk);
            }
        }
    });
    assert!(
        matches!(result, Err(RebalanceError::Io(_))),
        "expected an I/O abort, got {result:?}"
    );
    assert_eq!(fleet.n_shards(), 3);
    assert_eq!(fleet.shard_map().generation(), 1);
    // The shared parked backlog reached both relaunched siblings.
    ingest(&mut fleet, between);
    // The relaunched parents kept their live engines, so the work ledger
    // still counts every update exactly once.
    let applied = head.len() + parked.len() + between.len();
    assert_eq!(fleet.stats().updates, applied as u64);
    assert_eq!(
        seq_total(&fleet),
        seq_before + (parked.len() + between.len()) as u64
    );
    fleet.validate().unwrap();
    let want = reference_bits(&updates[..applied]);
    assert_eq!(sorted_bits(fleet.dense_subgraphs()), want);

    // A reopen recovers the un-merged topology with the same bits.
    drop(fleet);
    let mut fleet = open(&dir);
    assert_eq!(fleet.n_shards(), 3);
    assert_eq!(fleet.shard_map().generation(), 1);
    assert_eq!(sorted_bits(fleet.dense_subgraphs()), want);

    std::fs::remove_file(&squatter).unwrap();
    let report = fleet.merge_shards(0, split.new_slot).unwrap();
    assert_eq!(report.merged_engine, spec.merged_engine);
    assert_eq!(fleet.n_shards(), 2);
    ingest(&mut fleet, tail);
    assert_eq!(
        sorted_bits(fleet.dense_subgraphs()),
        reference_bits(&updates)
    );
    drop(fleet);
    let reopened = open(&dir);
    assert_eq!(reopened.n_shards(), 2);
    assert_eq!(
        sorted_bits(reopened.dense_subgraphs()),
        reference_bits(&updates)
    );
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}
