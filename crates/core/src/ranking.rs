//! Story ranking: the one order every published story list follows, the
//! flat [`StoryTable`] a shard publishes, and the output-dense ranking a
//! [`DynDens`] engine keeps between reads.
//!
//! An update changes only the subgraphs around its edge (Section 4 bounds
//! how far), so the engine does not re-sort its output-dense family on
//! every read. The index records which subgraphs were inserted, removed or
//! re-scored (its dirty set); a read drops those rows from the previous
//! ranking, re-ranks the ones still output-dense, and merges the two sorted
//! runs. A global change — a new output threshold, an eviction pass, a
//! split or merge, a restore — or a dirty set that outgrew the family makes
//! the next read rebuild the ranking from the whole index instead.

use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

use dyndens_density::DensityMeasure;
use dyndens_graph::{VertexId, VertexSet};

use crate::engine::DynDens;
use crate::index::NodeId;

/// The story order: densest first, ties broken by ascending vertex set, so
/// every ranked list is deterministic.
pub fn story_order(a: (&[VertexId], f64), b: (&[VertexId], f64)) -> Ordering {
    b.1.partial_cmp(&a.1)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.0.cmp(b.0))
}

/// Sorts stories in [`story_order`].
pub fn sort_stories(stories: &mut [(VertexSet, f64)]) {
    stories.sort_unstable_by(|a, b| story_order((a.0.as_slice(), a.1), (b.0.as_slice(), b.1)));
}

/// A ranked story list in three flat buffers: every story's vertex ids back
/// to back, the offset where each story starts, and the densities. Cloning
/// shares the buffers, so a published table costs three copies however many
/// readers hold it, and readers build [`VertexSet`]s only for the rows they
/// return.
#[derive(Debug, Clone, PartialEq)]
pub struct StoryTable {
    vertices: Arc<[VertexId]>,
    /// Row `i` is `vertices[offsets[i]..offsets[i + 1]]`; `offsets[0] == 0`.
    offsets: Arc<[u32]>,
    densities: Arc<[f64]>,
}

impl Default for StoryTable {
    fn default() -> Self {
        Rows::default().table(0)
    }
}

impl StoryTable {
    /// A table of `stories`, in the given order.
    pub fn from_stories(stories: &[(VertexSet, f64)]) -> Self {
        let mut rows = Rows::default();
        for (set, density) in stories {
            rows.push(NodeId::ROOT, *density, set.as_slice());
        }
        rows.table(stories.len())
    }

    /// Number of stories.
    pub fn len(&self) -> usize {
        self.densities.len()
    }

    /// `true` if the table holds no story.
    pub fn is_empty(&self) -> bool {
        self.densities.is_empty()
    }

    /// Story `i` as its ascending vertex ids and its density.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> (&[VertexId], f64) {
        let span = self.offsets[i] as usize..self.offsets[i + 1] as usize;
        (&self.vertices[span], self.densities[i])
    }

    /// The stories in table order, without materialising vertex sets.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&[VertexId], f64)> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// The stories as owned `(vertex set, density)` pairs, in table order.
    pub fn to_vec(&self) -> Vec<(VertexSet, f64)> {
        self.iter()
            .map(|(vs, d)| (VertexSet::from_sorted(vs.to_vec()), d))
            .collect()
    }
}

impl IntoIterator for StoryTable {
    type Item = (VertexSet, f64);
    type IntoIter = std::vec::IntoIter<(VertexSet, f64)>;

    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

/// Ranked rows: every row's vertices back to back, and per row its index
/// node, density and end offset.
#[derive(Debug, Clone, Default)]
struct Rows {
    meta: Vec<RowMeta>,
    vertices: Vec<VertexId>,
}

#[derive(Debug, Clone, Copy)]
struct RowMeta {
    density: f64,
    node: NodeId,
    /// One past the row's last vertex in `Rows::vertices`.
    end: u32,
}

impl Rows {
    fn len(&self) -> usize {
        self.meta.len()
    }

    fn clear(&mut self) {
        self.meta.clear();
        self.vertices.clear();
    }

    fn start(&self, i: usize) -> usize {
        if i == 0 {
            0
        } else {
            self.meta[i - 1].end as usize
        }
    }

    fn row(&self, i: usize) -> (&[VertexId], f64) {
        let meta = self.meta[i];
        (
            &self.vertices[self.start(i)..meta.end as usize],
            meta.density,
        )
    }

    fn push(&mut self, node: NodeId, density: f64, vertices: &[VertexId]) {
        self.vertices.extend_from_slice(vertices);
        self.close_row(node, density);
    }

    /// Ends a row whose vertices were just appended to `self.vertices`.
    fn close_row(&mut self, node: NodeId, density: f64) {
        let end = self.vertices.len() as u32;
        self.meta.push(RowMeta { density, node, end });
    }

    fn push_from(&mut self, other: &Rows, i: usize) {
        let (vertices, density) = other.row(i);
        self.push(other.meta[i].node, density, vertices);
    }

    /// Appends the rows `range` of `other` as one run.
    fn extend_from(&mut self, other: &Rows, range: Range<usize>) {
        if range.is_empty() {
            return;
        }
        let start = other.start(range.start) as u32;
        let base = self.vertices.len() as u32;
        self.meta
            .extend(other.meta[range.clone()].iter().map(|m| RowMeta {
                end: m.end - start + base,
                ..*m
            }));
        let end = other.meta[range.end - 1].end as usize;
        self.vertices
            .extend_from_slice(&other.vertices[start as usize..end]);
    }

    /// The first `top_k` rows as a table.
    fn table(&self, top_k: usize) -> StoryTable {
        let meta = &self.meta[..top_k.min(self.len())];
        let end = meta.last().map_or(0, |m| m.end as usize);
        StoryTable {
            vertices: self.vertices[..end].into(),
            offsets: std::iter::once(0)
                .chain(meta.iter().map(|m| m.end))
                .collect(),
            densities: meta.iter().map(|m| m.density).collect(),
        }
    }
}

/// An integer whose ascending order is [`story_order`]'s descending density
/// order: `-0.0` and `0.0` map to one key, as they compare equal there.
/// Densities of output-dense subgraphs are never NaN.
#[inline]
fn density_key(density: f64) -> u64 {
    debug_assert!(!density.is_nan());
    let bits = (density + 0.0).to_bits();
    if bits >> 63 == 1 {
        bits
    } else {
        !bits & !(1 << 63)
    }
}

/// The output-dense ranking a [`DynDens`] keeps between reads, in
/// [`story_order`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Ranking {
    /// `rows` matches the index as of the last read, up to its dirty set.
    /// Cleared by a global change, so the next read rebuilds.
    built: bool,
    rows: Rows,
    /// The merge target, swapped with `rows` by each read.
    spare: Rows,
    /// The re-ranked changed subgraphs of a read, and their sorted order
    /// (by density key, then vertex set).
    fresh: Rows,
    order: Vec<(u64, usize)>,
}

impl Ranking {
    /// Makes the next read rebuild the ranking from the whole index.
    pub(crate) fn invalidate(&mut self) {
        self.built = false;
    }
}

impl<D: DensityMeasure> DynDens<D> {
    /// The output-dense subgraphs in [`story_order`], cut to the first
    /// `top_k`, with the size of the whole output-dense family.
    ///
    /// Equal, density bits included, to sorting
    /// [`output_dense_subgraphs`](Self::output_dense_subgraphs) with
    /// [`sort_stories`] — but only the subgraphs changed since the previous
    /// call are re-ranked (see the [module docs](self)).
    pub fn ranked_output(&mut self, top_k: usize) -> (StoryTable, usize) {
        self.refresh_ranking();
        (self.ranking.rows.table(top_k), self.ranking.rows.len())
    }

    fn refresh_ranking(&mut self) {
        let ranking = &mut self.ranking;
        let index = &self.index;
        let thresholds = &self.thresholds;
        let dirty = index.dirty().filter(|_| ranking.built);
        if dirty.is_some_and(|d| d.is_empty()) {
            return;
        }
        let fresh = &mut ranking.fresh;
        fresh.clear();
        let mut rank = |id: NodeId, card: usize, score: f64| {
            if thresholds.is_output_dense(score, card) {
                index.push_path(id, &mut fresh.vertices);
                fresh.close_row(id, thresholds.measure().density(score, card));
            }
        };
        match dirty {
            Some(dirty) => {
                for &id in dirty {
                    if let Some(info) = index.stored_info(id) {
                        rank(id, index.cardinality(id), info.score);
                    }
                }
            }
            None => {
                for (id, card, info) in index.infos() {
                    rank(id, card, info.score);
                }
            }
        }
        let order = &mut ranking.order;
        order.clear();
        order.extend((0..fresh.len()).map(|j| (density_key(fresh.meta[j].density), j)));
        order.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| fresh.row(a.1).0.cmp(fresh.row(b.1).0))
        });

        // One pass over the previous rows: a changed row is dropped, a
        // re-ranked row goes in before the first row it precedes, and the
        // unchanged rows between two such points are copied as one run. A
        // rebuild keeps no previous row.
        let (old, merged) = (&ranking.rows, &mut ranking.spare);
        let old_len = if dirty.is_some() { old.len() } else { 0 };
        merged.clear();
        let mut run = 0;
        let mut next = order.iter().peekable();
        for i in 0..old_len {
            let key = density_key(old.meta[i].density);
            while let Some(&&(fresh_key, j)) = next.peek() {
                let old_first = key
                    .cmp(&fresh_key)
                    .then_with(|| old.row(i).0.cmp(fresh.row(j).0))
                    .is_lt();
                if old_first {
                    break;
                }
                merged.extend_from(old, run..i);
                run = i;
                merged.push_from(fresh, j);
                next.next();
            }
            if index.is_dirty(old.meta[i].node) {
                merged.extend_from(old, run..i);
                run = i + 1;
            }
        }
        merged.extend_from(old, run..old_len);
        for &(_, j) in next {
            merged.push_from(fresh, j);
        }
        std::mem::swap(&mut ranking.rows, &mut ranking.spare);
        ranking.built = true;
        self.index.clear_dirty();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DynDensConfig;
    use dyndens_density::AvgWeight;
    use dyndens_graph::EdgeUpdate;

    fn sorted_output(engine: &DynDens<AvgWeight>) -> Vec<(VertexSet, u64)> {
        let mut want = engine.output_dense_subgraphs();
        sort_stories(&mut want);
        want.into_iter().map(|(s, d)| (s, d.to_bits())).collect()
    }

    fn ranked(engine: &mut DynDens<AvgWeight>, top_k: usize) -> Vec<(VertexSet, u64)> {
        let (table, total) = engine.ranked_output(top_k);
        assert_eq!(total, engine.output_dense_count());
        table.into_iter().map(|(s, d)| (s, d.to_bits())).collect()
    }

    #[test]
    fn story_table_round_trips_and_shares_buffers() {
        let stories = vec![
            (VertexSet::from_ids(&[1, 4, 9]), 1.5),
            (VertexSet::from_ids(&[0, 2]), 1.25),
            (VertexSet::from_ids(&[3, 5]), 1.25),
        ];
        let table = StoryTable::from_stories(&stories);
        assert_eq!(table.len(), 3);
        assert_eq!(
            table.get(1),
            (VertexSet::from_ids(&[0, 2]).as_slice(), 1.25)
        );
        assert_eq!(table.iter().len(), 3);
        assert_eq!(table.to_vec(), stories);
        assert_eq!(table.clone().into_iter().collect::<Vec<_>>(), stories);
        assert!(Arc::ptr_eq(&table.clone().vertices, &table.vertices));
        assert!(StoryTable::default().is_empty());
        assert_eq!(StoryTable::default().iter().count(), 0);
    }

    #[test]
    fn ranking_follows_every_update_bit_exactly() {
        let mut engine = DynDens::new(AvgWeight, DynDensConfig::new(1.0, 4).with_delta_it(0.15));
        let mut x: u64 = 7;
        for step in 0..3_000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = ((x >> 33) % 12) as u32;
            let b = ((x >> 45) % 12) as u32;
            if a == b {
                continue;
            }
            let w = engine.graph().weight(a.into(), b.into());
            let delta = if (x >> 20).is_multiple_of(3) {
                -w.min(0.4)
            } else {
                0.35
            };
            if w + delta > 1.45 || delta == 0.0 {
                continue;
            }
            engine.apply_update(EdgeUpdate::new(a.into(), b.into(), delta));
            // Read at irregular intervals so dirty sets of many sizes merge.
            if step % (1 + step % 7) == 0 {
                assert_eq!(ranked(&mut engine, usize::MAX), sorted_output(&engine));
                let top = ranked(&mut engine, 5);
                assert_eq!(top[..], sorted_output(&engine)[..top.len()]);
            }
        }
        engine.validate().unwrap();
    }

    #[test]
    fn threshold_change_rebuilds_the_ranking() {
        let mut engine = DynDens::new(AvgWeight, DynDensConfig::new(1.0, 4).with_delta_it(0.15));
        for (a, b, w) in [(0, 1, 1.2), (1, 2, 1.1), (0, 2, 1.0), (3, 4, 1.4)] {
            engine.apply_update(EdgeUpdate::new(VertexId(a), VertexId(b), w));
        }
        assert_eq!(ranked(&mut engine, usize::MAX), sorted_output(&engine));
        for t in [1.3, 0.9, 1.05] {
            engine.set_output_threshold(t);
            assert_eq!(ranked(&mut engine, usize::MAX), sorted_output(&engine));
        }
    }

    #[test]
    fn dirty_set_stays_within_the_family_without_reads() {
        let mut engine = DynDens::new(AvgWeight, DynDensConfig::new(1.0, 4).with_delta_it(0.15));
        for i in 0..2_000u32 {
            let (a, b) = (i % 9, (i * 5 + 1) % 9);
            let w = engine.graph().weight(VertexId(a), VertexId(b));
            let delta = if i % 4 == 3 { -w.min(0.2) } else { 0.3 };
            if a != b && delta != 0.0 {
                engine.apply_update(EdgeUpdate::new(VertexId(a), VertexId(b), delta));
            }
            assert!(engine.index().dirty_len() <= engine.dense_count());
        }
        assert_eq!(ranked(&mut engine, usize::MAX), sorted_output(&engine));
        assert_eq!(engine.index().dirty_len(), 0);
    }
}
