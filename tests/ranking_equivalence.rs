//! Incremental story ranking equivalence: after every micro-batch, the
//! ranking an engine publishes must equal a full sort of its output-dense
//! family (`output_dense_subgraphs` + `sort_stories`), `f64` bits included.
//!
//! `DynDens` keeps its ranking between reads and re-ranks only the subgraphs
//! its index marked dirty; the other backends sort on every read. The suite
//! drives every backend over every workload generator at the engine level,
//! then the sharded fleet through the global changes that force a rebuild:
//! threshold moves, compaction, split and merge, kill and reopen.

mod support;

use dyndens::prelude::*;
use dyndens::workloads::{
    AdversarialSkew, AlignedCommunities, DocCorpus, FlashCrowd, GeoPartitioned, Workload,
};
use support::{
    canonical_stream, engine_config, for_each_backend, persistence, shard_config, temp_dir, Backend,
};

type Bits = Vec<(VertexSet, u64)>;

fn bits(stories: impl IntoIterator<Item = (VertexSet, f64)>) -> Bits {
    stories.into_iter().map(|(s, d)| (s, d.to_bits())).collect()
}

/// The reference: the whole output-dense family, fully sorted.
fn full_sort(mut stories: Vec<(VertexSet, f64)>) -> Bits {
    sort_stories(&mut stories);
    bits(stories)
}

/// Micro-batch sizes cycled through a stream: single updates, the ~10 of a
/// paced stream, the 64 of a saturated worker, and a large backlog drain.
const BATCHES: [usize; 5] = [1, 10, 64, 3, 300];

/// Feeds `updates` to `engine` in micro-batches and checks the published
/// ranking after each one, whole and cut to a small `top_k`.
fn check_every_batch<E: MaintenanceEngine>(engine: &mut E, updates: &[EdgeUpdate], label: &str) {
    let mut events = Vec::new();
    let mut rest = updates;
    for (i, &size) in BATCHES.iter().cycle().enumerate() {
        if rest.is_empty() {
            break;
        }
        let (batch, tail) = rest.split_at(size.min(rest.len()));
        rest = tail;
        for &u in batch {
            engine.apply_update_into(u, &mut events);
        }
        events.clear();
        let want = full_sort(engine.output_dense_subgraphs());
        let (table, total) = engine.ranked_output(usize::MAX);
        assert_eq!(total, want.len(), "{label}: family size after batch {i}");
        assert_eq!(bits(table), want, "{label}: ranking after batch {i}");
        let (top, total) = engine.ranked_output(5);
        assert_eq!(total, want.len(), "{label}: family size after batch {i}");
        assert_eq!(bits(top)[..], want[..want.len().min(5)], "{label}: top 5");
    }
}

fn workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(AlignedCommunities::new(3_000, 7)),
        Box::new(AdversarialSkew::new(3_000, 7)),
        Box::new(DocCorpus::new(300, 7)),
        Box::new(FlashCrowd::new(3_000, 7)),
        Box::new(GeoPartitioned::new(3_000, 7)),
    ]
}

fn check_backend<B: EngineBlueprint>(blueprint: B, backend: Backend) {
    for workload in workloads() {
        let label = format!("{}/{}", backend.kind(), workload.name());
        check_every_batch(&mut blueprint.fresh(), &workload.updates(), &label);
    }
}

#[test]
fn every_backend_publishes_a_full_sort_on_every_workload() {
    for_each_backend(|backend| match backend {
        Backend::DynDens => {
            check_backend(DynDensBlueprint::new(AvgWeight, engine_config()), backend)
        }
        Backend::Recompute => check_backend(
            RecomputeBlueprint::new(AvgWeight, engine_config(), 1),
            backend,
        ),
        Backend::TopKPeeling => check_backend(
            TopKPeelingBlueprint::new(AvgWeight, engine_config(), 4),
            backend,
        ),
    });
}

#[test]
fn threshold_moves_up_and_down_rebuild_the_ranking() {
    let updates = canonical_stream();
    let mut engine = DynDens::new(AvgWeight, engine_config());
    let mut stages = updates[..8_000].chunks(2_000);
    check_every_batch(&mut engine, stages.next().unwrap(), "before");
    for (threshold, stage) in [1.1, 0.95, 1.0].into_iter().zip(stages) {
        engine.set_output_threshold(threshold);
        let label = format!("threshold {threshold}");
        let (table, total) = engine.ranked_output(usize::MAX);
        let want = full_sort(engine.output_dense_subgraphs());
        assert_eq!(total, want.len(), "{label}");
        assert_eq!(bits(table), want, "{label}: right after the move");
        check_every_batch(&mut engine, stage, &label);
    }
}

#[test]
fn unread_engine_keeps_its_dirty_set_within_the_family() {
    let mut engine = DynDens::new(AvgWeight, engine_config());
    let mut events = Vec::new();
    let updates = canonical_stream();
    for &u in updates.iter().cycle().take(100_000) {
        engine.apply_update_into(u, &mut events);
        events.clear();
        assert!(engine.index().dirty_len() <= engine.dense_count());
    }
    let (table, total) = engine.ranked_output(usize::MAX);
    let want = full_sort(engine.output_dense_subgraphs());
    assert_eq!(total, want.len());
    assert_eq!(bits(table), want);
    assert_eq!(engine.index().dirty_len(), 0);
}

/// The fleet's published view, whole (every shard publishes its whole
/// ranking), against a full sort of the fleet's output-dense family.
fn assert_view_is_full_sort(fleet: &ShardedDynDens<AvgWeight>, label: &str) {
    let want = full_sort(fleet.output_dense());
    let merged = fleet.view().snapshot();
    assert_eq!(merged.output_dense_total, want.len(), "{label}");
    assert_eq!(bits(merged.stories), want, "{label}");
}

/// Feeds `updates` in 64-update chunks, flushing after each so every chunk
/// ends on a publication, and checks the view there.
fn feed_and_check(fleet: &mut ShardedDynDens<AvgWeight>, updates: &[EdgeUpdate], label: &str) {
    for (i, chunk) in updates.chunks(64).enumerate() {
        fleet.apply_batch(chunk);
        fleet.flush();
        assert_view_is_full_sort(fleet, &format!("{label}, chunk {i}"));
    }
}

#[test]
fn fleet_rankings_survive_compaction_split_merge_and_reopen() {
    let updates = canonical_stream();
    let mut stages = updates[..15_000].chunks(3_000);
    let dir = temp_dir("ranking-eq");
    let config = || shard_config(2).with_top_k(usize::MAX);
    let mut fleet =
        ShardedDynDens::with_persistence(AvgWeight, engine_config(), config(), persistence(&dir))
            .unwrap();
    feed_and_check(&mut fleet, stages.next().unwrap(), "start");

    let evicted = fleet.compact_below(0.5);
    assert!(evicted > 0, "compaction must evict something");
    assert_view_is_full_sort(&fleet, "after compaction");
    feed_and_check(&mut fleet, stages.next().unwrap(), "compacted");

    let split = fleet.split_shard(0).unwrap();
    assert_view_is_full_sort(&fleet, "after split");
    feed_and_check(&mut fleet, stages.next().unwrap(), "split");

    fleet.merge_shards(0, split.new_slot).unwrap();
    assert_view_is_full_sort(&fleet, "after merge");
    feed_and_check(&mut fleet, stages.next().unwrap(), "merged");

    // Kill and reopen: the recovered engines publish from a rebuilt ranking.
    drop(fleet);
    let mut fleet =
        ShardedDynDens::with_persistence(AvgWeight, engine_config(), config(), persistence(&dir))
            .unwrap();
    assert_view_is_full_sort(&fleet, "after reopen");
    feed_and_check(&mut fleet, stages.next().unwrap(), "reopened");
    drop(fleet);
    let _ = std::fs::remove_dir_all(&dir);
}
