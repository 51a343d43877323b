//! Engine snapshot / restore: the compact, versioned binary image of a
//! [`DynDens`] engine used by the crash-recovery path of `dyndens-shard`.
//!
//! A snapshot captures everything a shard worker needs to resume exactly
//! where it left off: the graph's edge weights, the threshold family's
//! *current* parameters (which may have drifted from the construction-time
//! config through dynamic threshold adjustment), the dense subgraph index
//! with its `*` markers and per-subgraph discovery metadata, the update
//! epoch, and the cumulative [`EngineStats`].
//!
//! Recovery is `restore(snapshot)` followed by replaying the write-ahead-log
//! tail. The engine's update processing is canonicalised (see
//! `DynDens::canonical_order` and `DynamicGraph::DETERMINISTIC_SET_BOUND`)
//! so that this replay is **bit-exact**: every score stored after recovery
//! carries the same `f64` bit pattern as in an engine that never crashed.
//!
//! ## Format (version 1)
//!
//! ```text
//! magic "DDSN" | version u32 | payload | crc32(magic..payload) u32
//!
//! payload :=
//!   config    threshold f64 | n_max u64 | delta_it tag u8 + value f64
//!             | flags u8 (bit0 implicit_too_dense, bit1 max_explore,
//!                         bit2 degree_prioritize)
//!   family    threshold f64 | delta_it f64      (current, post-adjustment)
//!   epoch     u64
//!   stats     13 × u64                           (EngineStats field order)
//!   graph     vertex_count u64 | edge_count u64
//!             | edge_count × (a u32 | b u32 | w f64)   (sorted by (a, b))
//!   index     subgraph_count u64
//!             | per subgraph (sorted by vertex set):
//!               card u32 | card × vertex u32 | score f64
//!               | discovered_epoch u64 | discovered_iteration u32
//!               | star u8
//! ```
//!
//! All integers little-endian, `f64` as IEEE-754 bits (see
//! [`dyndens_graph::codec`]). Everything is length-prefixed and
//! bounds-checked; a corrupt or truncated snapshot yields a
//! [`SnapshotError`], never a panic.

use dyndens_density::{DensityMeasure, ThresholdFamily};
use dyndens_graph::codec::{crc32, put_f64, put_u32, put_u64, ByteReader, CodecError};
use dyndens_graph::{DynamicGraph, VertexId, VertexSet};

use crate::config::{DeltaIt, DynDensConfig};
use crate::engine::DynDens;
use crate::events::EngineStats;
use crate::index::{SubgraphIndex, SubgraphInfo};

/// Magic bytes opening every engine snapshot.
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"DDSN";
/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// An error restoring an engine from a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The bytes do not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The snapshot was written by an unknown format version.
    UnsupportedVersion(u32),
    /// A structural decoding failure (truncation, CRC mismatch, malformed
    /// primitive).
    Codec(CodecError),
    /// The snapshot decoded structurally but violates an engine invariant.
    Invalid(&'static str),
}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> Self {
        SnapshotError::Codec(e)
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a DynDens snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::Codec(e) => write!(f, "snapshot decoding failed: {e}"),
            SnapshotError::Invalid(what) => write!(f, "invalid snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

const FLAG_IMPLICIT_TOO_DENSE: u8 = 1 << 0;
const FLAG_MAX_EXPLORE: u8 = 1 << 1;
const FLAG_DEGREE_PRIORITIZE: u8 = 1 << 2;

const DELTA_IT_ABSOLUTE: u8 = 0;
const DELTA_IT_FRACTION: u8 = 1;

impl<D: DensityMeasure> DynDens<D> {
    /// Serialises the complete engine state to the versioned binary snapshot
    /// format. The inverse is [`restore`](Self::restore).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + 24 * self.graph.edge_count());
        buf.extend_from_slice(SNAPSHOT_MAGIC);
        put_u32(&mut buf, SNAPSHOT_VERSION);

        // Config.
        put_f64(&mut buf, self.config.threshold);
        put_u64(&mut buf, self.config.n_max as u64);
        match self.config.delta_it {
            DeltaIt::Absolute(v) => {
                buf.push(DELTA_IT_ABSOLUTE);
                put_f64(&mut buf, v);
            }
            DeltaIt::FractionOfMax(v) => {
                buf.push(DELTA_IT_FRACTION);
                put_f64(&mut buf, v);
            }
        }
        let mut flags = 0u8;
        if self.config.implicit_too_dense {
            flags |= FLAG_IMPLICIT_TOO_DENSE;
        }
        if self.config.max_explore {
            flags |= FLAG_MAX_EXPLORE;
        }
        if self.config.degree_prioritize {
            flags |= FLAG_DEGREE_PRIORITIZE;
        }
        buf.push(flags);

        // Threshold family: the *current* parameters (dynamic threshold
        // adjustment may have moved them away from the config).
        put_f64(&mut buf, self.thresholds.output_threshold());
        put_f64(&mut buf, self.thresholds.delta_it());

        put_u64(&mut buf, self.epoch);

        // Stats: destructured so a new counter cannot be forgotten here.
        let EngineStats {
            updates,
            positive_updates,
            negative_updates,
            explorations,
            cheap_explorations,
            candidates_examined,
            subgraphs_inserted,
            subgraphs_evicted,
            explore_all_invocations,
            star_markers_created,
            star_markers_removed,
            max_explore_skips,
            degree_prioritize_skips,
        } = self.stats;
        for counter in [
            updates,
            positive_updates,
            negative_updates,
            explorations,
            cheap_explorations,
            candidates_examined,
            subgraphs_inserted,
            subgraphs_evicted,
            explore_all_invocations,
            star_markers_created,
            star_markers_removed,
            max_explore_skips,
            degree_prioritize_skips,
        ] {
            put_u64(&mut buf, counter);
        }

        // Graph: edges in canonical (a, b) order so snapshots of equal state
        // are byte-identical regardless of update history.
        put_u64(&mut buf, self.graph.vertex_count() as u64);
        let mut edges: Vec<(VertexId, VertexId, f64)> = self.graph.edges().collect();
        edges.sort_unstable_by_key(|&(a, b, _)| (a, b));
        put_u64(&mut buf, edges.len() as u64);
        for (a, b, w) in edges {
            put_u32(&mut buf, a.0);
            put_u32(&mut buf, b.0);
            put_f64(&mut buf, w);
        }

        // Index: subgraphs in canonical vertex-set order.
        let mut subgraphs: Vec<(VertexSet, SubgraphInfo, bool)> = self
            .index
            .iter()
            .map(|(id, verts, info)| (verts, *info, self.index.has_star(id)))
            .collect();
        subgraphs.sort_unstable_by(|x, y| x.0.cmp(&y.0));
        put_u64(&mut buf, subgraphs.len() as u64);
        for (verts, info, star) in subgraphs {
            put_u32(&mut buf, verts.len() as u32);
            for v in verts.iter() {
                put_u32(&mut buf, v.0);
            }
            put_f64(&mut buf, info.score);
            put_u64(&mut buf, info.discovered_epoch);
            put_u32(&mut buf, info.discovered_iteration);
            buf.push(star as u8);
        }

        let crc = crc32(&buf);
        put_u32(&mut buf, crc);
        buf
    }

    /// Reconstructs an engine from a snapshot produced by
    /// [`snapshot`](Self::snapshot).
    ///
    /// The density measure is supplied by the caller (it is a zero-state
    /// strategy type, not data). The restored engine is bit-identical to the
    /// snapshotted one: graph weights, index scores, discovery metadata,
    /// epoch and statistics all round-trip exactly, so continuing the update
    /// stream from the snapshot point reproduces the uninterrupted run.
    pub fn restore(measure: D, bytes: &[u8]) -> Result<Self, SnapshotError> {
        let payload = dyndens_graph::codec::verify_crc_trailer(bytes)?;
        let mut r = ByteReader::new(payload);
        if r.take(4)? != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }

        // Config.
        let threshold = r.f64()?;
        let n_max = r.u64()? as usize;
        let delta_it = match r.u8()? {
            DELTA_IT_ABSOLUTE => DeltaIt::Absolute(r.f64()?),
            DELTA_IT_FRACTION => DeltaIt::FractionOfMax(r.f64()?),
            _ => return Err(SnapshotError::Invalid("unknown delta_it tag")),
        };
        let flags = r.u8()?;
        let config = DynDensConfig {
            threshold,
            n_max,
            delta_it,
            implicit_too_dense: flags & FLAG_IMPLICIT_TOO_DENSE != 0,
            max_explore: flags & FLAG_MAX_EXPLORE != 0,
            degree_prioritize: flags & FLAG_DEGREE_PRIORITIZE != 0,
        };

        // Threshold family (current parameters). Validate before handing the
        // values to the asserting constructor.
        let fam_threshold = r.f64()?;
        let fam_delta_it = r.f64()?;
        if n_max < 2 {
            return Err(SnapshotError::Invalid("n_max below 2"));
        }
        if !(fam_threshold.is_finite() && fam_threshold > 0.0) {
            return Err(SnapshotError::Invalid("non-positive output threshold"));
        }
        let delta_it_max = ThresholdFamily::delta_it_upper_bound(&measure, fam_threshold, n_max);
        if !(fam_delta_it > 0.0 && fam_delta_it <= delta_it_max) {
            return Err(SnapshotError::Invalid("delta_it outside validity interval"));
        }
        let thresholds = ThresholdFamily::new(measure, fam_threshold, n_max, fam_delta_it);

        let epoch = r.u64()?;

        let mut stats = EngineStats::default();
        // Same destructuring discipline as the writer.
        {
            let EngineStats {
                updates,
                positive_updates,
                negative_updates,
                explorations,
                cheap_explorations,
                candidates_examined,
                subgraphs_inserted,
                subgraphs_evicted,
                explore_all_invocations,
                star_markers_created,
                star_markers_removed,
                max_explore_skips,
                degree_prioritize_skips,
            } = &mut stats;
            for counter in [
                updates,
                positive_updates,
                negative_updates,
                explorations,
                cheap_explorations,
                candidates_examined,
                subgraphs_inserted,
                subgraphs_evicted,
                explore_all_invocations,
                star_markers_created,
                star_markers_removed,
                max_explore_skips,
                degree_prioritize_skips,
            ] {
                *counter = r.u64()?;
            }
        }

        // Graph.
        let vertex_count = r.u64()? as usize;
        let edge_count = r.u64()? as usize;
        if edge_count > r.remaining() / 16 {
            return Err(SnapshotError::Invalid("edge count exceeds payload"));
        }
        let mut graph = DynamicGraph::with_vertices(vertex_count);
        for _ in 0..edge_count {
            let a = VertexId(r.u32()?);
            let b = VertexId(r.u32()?);
            let w = r.f64()?;
            if a >= b {
                return Err(SnapshotError::Invalid("edge endpoints not ascending"));
            }
            if !w.is_finite() {
                return Err(SnapshotError::Invalid("non-finite edge weight"));
            }
            graph.set_weight(a, b, w);
        }

        // Index.
        let subgraph_count = r.u64()? as usize;
        if subgraph_count > r.remaining() / (4 + 8 + 8 + 8 + 4 + 1) {
            return Err(SnapshotError::Invalid("subgraph count exceeds payload"));
        }
        let mut index = SubgraphIndex::new();
        let mut verts: Vec<VertexId> = Vec::new();
        for _ in 0..subgraph_count {
            let card = r.u32()? as usize;
            if card < 2 {
                return Err(SnapshotError::Invalid("subgraph cardinality below 2"));
            }
            verts.clear();
            for _ in 0..card {
                verts.push(VertexId(r.u32()?));
            }
            if !verts.windows(2).all(|w| w[0] < w[1]) {
                return Err(SnapshotError::Invalid("subgraph vertices not sorted"));
            }
            let score = r.f64()?;
            let discovered_epoch = r.u64()?;
            let discovered_iteration = r.u32()?;
            let star = match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(SnapshotError::Invalid("bad star flag")),
            };
            let id = index.insert(
                &verts,
                SubgraphInfo {
                    score,
                    discovered_epoch,
                    discovered_iteration,
                },
            );
            if star {
                index.set_star(id, true);
            }
        }

        if !r.is_empty() {
            return Err(SnapshotError::Invalid("trailing bytes after index"));
        }

        Ok(DynDens {
            graph,
            thresholds,
            config,
            index,
            epoch,
            stats,
            recovering: false,
            order_scratch: Vec::new(),
            ranking: Default::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyndens_density::AvgWeight;
    use dyndens_graph::EdgeUpdate;

    fn update(a: u32, b: u32, delta: f64) -> EdgeUpdate {
        EdgeUpdate::new(VertexId(a), VertexId(b), delta)
    }

    fn busy_engine() -> DynDens<AvgWeight> {
        let config = DynDensConfig::new(1.0, 4).with_delta_it(0.15);
        let mut engine = DynDens::new(AvgWeight, config);
        for u in [
            update(0, 2, 1.0),
            update(0, 3, 1.0),
            update(2, 3, 1.0),
            update(1, 3, 1.0),
            update(1, 2, 1.1),
            update(0, 1, 0.95),
            update(5, 6, 10.0), // too-dense pair: exercises * markers
            update(0, 2, -0.3),
        ] {
            engine.apply_update(u);
        }
        engine
    }

    fn assert_bit_identical(a: &DynDens<AvgWeight>, b: &DynDens<AvgWeight>) {
        let key = |e: &DynDens<AvgWeight>| {
            let mut v: Vec<(VertexSet, u64)> = e
                .dense_subgraphs()
                .into_iter()
                .map(|(s, score)| (s, score.to_bits()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(key(a), key(b));
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.index().star_count(), b.index().star_count());
        assert_eq!(a.graph().edge_count(), b.graph().edge_count());
    }

    #[test]
    fn snapshot_restore_round_trips_bit_exactly() {
        let engine = busy_engine();
        let bytes = engine.snapshot();
        let restored = DynDens::restore(AvgWeight, &bytes).unwrap();
        restored.validate().unwrap();
        assert_bit_identical(&engine, &restored);
        assert_eq!(restored.epoch, engine.epoch);
        assert_eq!(restored.config(), engine.config());
        // Snapshotting the restored engine reproduces the bytes exactly.
        assert_eq!(restored.snapshot(), bytes);
    }

    #[test]
    fn replay_after_restore_matches_uninterrupted_run() {
        let mut original = busy_engine();
        let bytes = original.snapshot();
        let mut restored = DynDens::restore(AvgWeight, &bytes).unwrap();

        let tail = [
            update(0, 1, 0.15),
            update(2, 4, 1.3),
            update(5, 6, -6.0), // shrink the * coverage radius
            update(1, 3, -0.4),
            update(4, 2, 0.2),
        ];
        for u in tail {
            original.apply_update(u);
            restored.apply_update(u);
        }
        original.validate().unwrap();
        restored.validate().unwrap();
        assert_bit_identical(&original, &restored);
        // Continued snapshots agree byte-for-byte as well.
        assert_eq!(original.snapshot(), restored.snapshot());
    }

    #[test]
    fn recovering_flag_suppresses_stats_but_not_state() {
        let mut engine = busy_engine();
        let stats_before = engine.stats().clone();
        engine.set_recovering(true);
        assert!(engine.is_recovering());
        engine.apply_update(update(0, 1, 0.15));
        assert_eq!(engine.stats(), &stats_before, "replay must not count");
        engine.set_recovering(false);

        // The maintenance state still moved: an uninterrupted engine that
        // counted the update agrees on the dense set.
        let mut reference = busy_engine();
        reference.apply_update(update(0, 1, 0.15));
        let mut a = engine.dense_subgraphs();
        let mut b = reference.dense_subgraphs();
        a.sort_by(|x, y| x.0.cmp(&y.0));
        b.sort_by(|x, y| x.0.cmp(&y.0));
        assert_eq!(a, b);
        // And counting resumes once the flag is cleared.
        engine.apply_update(update(0, 1, 0.01));
        assert_eq!(engine.stats().updates, stats_before.updates + 1);
    }

    #[test]
    fn corrupt_snapshots_are_rejected_cleanly() {
        let engine = busy_engine();
        let bytes = engine.snapshot();

        // Truncation at every prefix length: never a panic.
        for cut in 0..bytes.len() {
            assert!(DynDens::<AvgWeight>::restore(AvgWeight, &bytes[..cut]).is_err());
        }
        // Single-byte corruption is caught by the CRC.
        for pos in [0, 4, 8, bytes.len() / 2, bytes.len() - 5] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0xFF;
            assert!(
                DynDens::<AvgWeight>::restore(AvgWeight, &bad).is_err(),
                "flip at {pos} must be detected"
            );
        }
        // Version from the future.
        let mut future = bytes.clone();
        future[4] = 0xFE;
        let truncated = future.len() - 4;
        future.truncate(truncated);
        let crc = crc32(&future);
        put_u32(&mut future, crc);
        assert!(matches!(
            DynDens::<AvgWeight>::restore(AvgWeight, &future),
            Err(SnapshotError::UnsupportedVersion(0xFE))
        ));
    }

    #[test]
    fn partition_preserves_union_and_future_evolution() {
        // Two vertex-disjoint cliques, one on even ids, one on odd ids: the
        // partition by id parity must reproduce, bit for bit, the engines
        // that only ever saw their own clique's updates.
        let config = DynDensConfig::new(1.0, 4).with_delta_it(0.15);
        let even = [
            update(0, 2, 1.1),
            update(0, 4, 1.2),
            update(2, 4, 1.05),
            update(0, 2, -0.2),
        ];
        let odd = [update(1, 3, 1.3), update(1, 5, 0.9), update(3, 5, 1.0)];
        let mut parent = DynDens::new(AvgWeight, config.clone());
        // Interleave the two communities the way a shared shard would see them.
        for pair in even.iter().zip(odd.iter()) {
            parent.apply_update(*pair.0);
            parent.apply_update(*pair.1);
        }
        parent.apply_update(even[3]);

        let (mut zero, one) = parent.partition_by(|v| v.0 % 2 == 0);
        zero.validate().unwrap();
        one.validate().unwrap();

        // The split point: the union of the children equals the parent.
        let mut union: Vec<(VertexSet, u64)> = zero
            .dense_subgraphs()
            .into_iter()
            .chain(one.dense_subgraphs())
            .map(|(s, d)| (s, d.to_bits()))
            .collect();
        union.sort();
        let mut want: Vec<(VertexSet, u64)> = parent
            .dense_subgraphs()
            .into_iter()
            .map(|(s, d)| (s, d.to_bits()))
            .collect();
        want.sort();
        assert_eq!(union, want);
        assert_eq!(zero.epoch, parent.epoch);
        assert_eq!(one.epoch, parent.epoch);
        assert_eq!(
            zero.stats().updates,
            0,
            "children start with a clean ledger"
        );

        // Future evolution: each child continues exactly like a reference
        // engine that only ever ingested its own slice.
        let mut ref_even = DynDens::new(AvgWeight, config.clone());
        for u in even {
            ref_even.apply_update(u);
        }
        let tail = [update(2, 4, -0.3), update(0, 6, 1.4), update(4, 6, 1.15)];
        for u in tail {
            zero.apply_update(u);
            ref_even.apply_update(u);
        }
        let key = |e: &DynDens<AvgWeight>| {
            let mut v: Vec<(VertexSet, u64)> = e
                .dense_subgraphs()
                .into_iter()
                .map(|(s, d)| (s, d.to_bits()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(key(&zero), key(&ref_even));
    }

    #[test]
    fn snapshot_survives_threshold_adjustment() {
        let mut engine = busy_engine();
        // Dynamic threshold adjustment drifts the family away from config.
        engine.thresholds_mut().set_output_threshold(0.9);
        let bytes = engine.snapshot();
        let restored = DynDens::restore(AvgWeight, &bytes).unwrap();
        assert_eq!(
            restored.thresholds().output_threshold().to_bits(),
            engine.thresholds().output_threshold().to_bits()
        );
        assert_eq!(
            restored.thresholds().delta_it().to_bits(),
            engine.thresholds().delta_it().to_bits()
        );
    }
}
