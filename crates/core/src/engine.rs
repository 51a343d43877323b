//! The DynDens engine: incremental maintenance of dense subgraphs under
//! streaming edge weight updates (Algorithms 1 and 2 of the paper).

use dyndens_density::{DensityMeasure, ThresholdFamily};
use dyndens_graph::{DynamicGraph, EdgeUpdate, VertexId, VertexSet};

use crate::config::{DeltaIt, DynDensConfig};
use crate::events::{DenseEvent, EngineStats};
use crate::heuristics::{DegreePrioritize, MaxExploreBound};
use crate::index::{NodeId, SubgraphIndex, SubgraphInfo};
use crate::ranking::Ranking;

/// Per-update exploration context shared by the recursive exploration
/// procedures.
struct UpdateCtx {
    a: VertexId,
    b: VertexId,
    delta: f64,
    /// `ceil(delta / delta_it)` — the theoretical bound on exploration
    /// iterations (Section 4.1.4).
    max_iterations: usize,
    /// MaxExplore bound for this update (Section 7.1); `unbounded` when the
    /// heuristic is disabled.
    bound: MaxExploreBound,
    epoch: u64,
}

/// The DynDens dense subgraph maintenance engine.
///
/// A `DynDens` instance owns the evolving entity graph, the threshold family
/// `T_n` and the dense subgraph index, and processes a stream of
/// [`EdgeUpdate`]s, reporting after each update which subgraphs became or
/// stopped being output-dense.
///
/// ```
/// use dyndens_core::{DynDens, DynDensConfig};
/// use dyndens_density::AvgWeight;
/// use dyndens_graph::{EdgeUpdate, VertexId};
///
/// let config = DynDensConfig::new(1.0, 4).with_delta_it(0.15);
/// let mut engine = DynDens::new(AvgWeight, config);
/// let events = engine.apply_update(EdgeUpdate::new(VertexId(0), VertexId(1), 1.2));
/// assert_eq!(events.len(), 1); // {0, 1} became output-dense
/// ```
#[derive(Debug, Clone)]
pub struct DynDens<D: DensityMeasure> {
    pub(crate) graph: DynamicGraph,
    pub(crate) thresholds: ThresholdFamily<D>,
    pub(crate) config: DynDensConfig,
    pub(crate) index: SubgraphIndex,
    pub(crate) epoch: u64,
    pub(crate) stats: EngineStats,
    /// `true` while WAL replay re-applies updates that were already counted
    /// before a crash: suppresses [`EngineStats`] accumulation so recovered
    /// engines do not double-count replayed work (see
    /// [`set_recovering`](Self::set_recovering)).
    pub(crate) recovering: bool,
    /// Scratch buffer reused by `canonical_order` (hot path, per update).
    pub(crate) order_scratch: Vec<([u32; SubgraphIndex::PATH_KEY_WIDTH], NodeId)>,
    /// The output-dense ranking as of the last
    /// [`ranked_output`](Self::ranked_output), brought up to date from the
    /// index's dirty set on the next one.
    pub(crate) ranking: Ranking,
}

impl<D: DensityMeasure> DynDens<D> {
    /// Creates an engine over an initially empty graph whose vertex set grows
    /// lazily as updates mention new vertices.
    ///
    /// Note: the paper's data model assumes a complete graph over a fixed set
    /// of `N` vertices. With `implicit_too_dense` disabled (the explore-all
    /// fallback), extensions of a too-dense subgraph by a vertex that is
    /// introduced *later* and stays disconnected are only materialised once
    /// that vertex gains an edge; declare the full universe up front with
    /// [`with_vertex_capacity`](Self::with_vertex_capacity) if exact
    /// explicit enumeration of such corner cases matters. The default
    /// `ImplicitTooDense` representation covers them either way.
    pub fn new(measure: D, config: DynDensConfig) -> Self {
        Self::with_vertex_capacity(measure, config, 0)
    }

    /// Creates an engine over a graph with `n_vertices` pre-declared vertices
    /// (`VertexId(0) .. VertexId(n_vertices - 1)`), matching the paper's
    /// fixed-universe data model.
    pub fn with_vertex_capacity(measure: D, config: DynDensConfig, n_vertices: usize) -> Self {
        let thresholds = match config.delta_it {
            DeltaIt::Absolute(v) => {
                ThresholdFamily::new(measure, config.threshold, config.n_max, v)
            }
            DeltaIt::FractionOfMax(f) => {
                ThresholdFamily::with_delta_it_fraction(measure, config.threshold, config.n_max, f)
            }
        };
        DynDens {
            graph: DynamicGraph::with_vertices(n_vertices),
            thresholds,
            config,
            index: SubgraphIndex::new(),
            epoch: 0,
            stats: EngineStats::default(),
            recovering: false,
            order_scratch: Vec::new(),
            ranking: Ranking::default(),
        }
    }

    /// The evolving entity graph.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// The threshold family currently in effect.
    pub fn thresholds(&self) -> &ThresholdFamily<D> {
        &self.thresholds
    }

    /// Mutable thresholds. A threshold change can move every subgraph in or
    /// out of the output-dense band, so the ranking is rebuilt on its next
    /// read.
    pub(crate) fn thresholds_mut(&mut self) -> &mut ThresholdFamily<D> {
        self.ranking.invalidate();
        &mut self.thresholds
    }

    /// The engine configuration.
    pub fn config(&self) -> &DynDensConfig {
        &self.config
    }

    /// Cumulative processing statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Resets the cumulative statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Replaces the cumulative statistics wholesale.
    ///
    /// Used by shard rebalancing: a split rebuilds two child engines by
    /// filtered replay (with [`set_recovering`](Self::set_recovering) set, so
    /// the children count nothing), then hands the parent's live counters to
    /// the child that keeps the parent's worker slot. The fleet-merged work
    /// ledger stays exactly the sum of all work ever counted — no update is
    /// counted twice or dropped by a split.
    pub fn adopt_stats(&mut self, stats: EngineStats) {
        self.stats = stats;
    }

    /// Partitions the engine's maintenance state into two engines by a
    /// vertex predicate: edge `(a, b)` and subgraph `S` land in the first
    /// engine when `keep` holds for their **minimum** vertex (the same
    /// endpoint shard routing uses), in the second otherwise.
    ///
    /// This is the engine half of a shard split. Both children inherit the
    /// configuration, the *current* (possibly adjusted) threshold-family
    /// parameters, the update epoch and the parent's vertex universe; stored
    /// scores and discovery metadata are copied bit-for-bit, and `*` markers
    /// travel with their subgraph. Statistics start at zero — the caller
    /// decides how to attribute the parent's ledger (see
    /// [`adopt_stats`](Self::adopt_stats)).
    ///
    /// When no maintained subgraph spans the two sides (the partitioning
    /// invariant of `dyndens-shard`), the children's union is exactly the
    /// parent's state and each child is bit-identical to an engine that only
    /// ever saw its own slice of the update stream. A spanning subgraph is
    /// assigned by its minimum vertex — the union answer is still preserved
    /// at the split point, but the two sides' future evolution becomes the
    /// same partition approximation hash-sharding already accepts.
    pub fn partition_by(&self, mut keep: impl FnMut(VertexId) -> bool) -> (Self, Self) {
        let child = || DynDens {
            graph: DynamicGraph::with_vertices(self.graph.vertex_count()),
            thresholds: ThresholdFamily::new(
                self.thresholds.measure().clone(),
                self.thresholds.output_threshold(),
                self.config.n_max,
                self.thresholds.delta_it(),
            ),
            config: self.config.clone(),
            index: SubgraphIndex::new(),
            epoch: self.epoch,
            stats: EngineStats::default(),
            recovering: false,
            order_scratch: Vec::new(),
            ranking: Ranking::default(),
        };
        let (mut zero, mut one) = (child(), child());
        for (a, b, w) in self.graph.edges() {
            let side = if keep(a) { &mut zero } else { &mut one };
            side.graph.set_weight(a, b, w);
        }
        for (id, verts, info) in self.index.iter() {
            let min = verts.as_slice()[0];
            let side = if keep(min) { &mut zero } else { &mut one };
            let new_id = side.index.insert(verts.as_slice(), *info);
            if self.index.has_star(id) {
                side.index.set_star(new_id, true);
            }
        }
        (zero, one)
    }

    /// Folds another engine's maintenance state into this one — the inverse
    /// of [`partition_by`](Self::partition_by), used by a shard **merge** to
    /// coarsen two sibling engines back into one.
    ///
    /// Both engines must have the same configuration and current
    /// threshold-family parameters, and their maintained states must be
    /// edge- and subgraph-disjoint (always true for siblings produced by a
    /// split, whose slices are separated by a routing bit). Edge weights and
    /// stored subgraph scores are copied bit-for-bit, `*` markers travel
    /// with their subgraph, the vertex universe grows to the union, the
    /// epoch becomes the maximum of the two (each side's epoch counts only
    /// its own slice's updates) and the work ledgers are summed — so the
    /// merged engine answers exactly like the union of the two children,
    /// down to the score bits.
    pub fn absorb(&mut self, other: Self) {
        debug_assert_eq!(
            self.thresholds.output_threshold().to_bits(),
            other.thresholds.output_threshold().to_bits(),
            "absorb requires identical threshold families"
        );
        debug_assert_eq!(
            self.thresholds.delta_it().to_bits(),
            other.thresholds.delta_it().to_bits(),
            "absorb requires identical threshold families"
        );
        if other.graph.vertex_count() > self.graph.vertex_count() {
            self.graph
                .ensure_vertex(VertexId((other.graph.vertex_count() - 1) as u32));
        }
        for (a, b, w) in other.graph.edges() {
            debug_assert_eq!(
                self.graph.weight(a, b),
                0.0,
                "absorb requires edge-disjoint engines"
            );
            self.graph.set_weight(a, b, w);
        }
        for (id, verts, info) in other.index.iter() {
            let new_id = self.index.insert(verts.as_slice(), *info);
            if other.index.has_star(id) {
                self.index.set_star(new_id, true);
            }
        }
        self.epoch = self.epoch.max(other.epoch);
        self.stats.merge(&other.stats);
        self.ranking.invalidate();
    }

    /// Marks the engine as replaying already-counted updates (WAL recovery).
    ///
    /// While the flag is set, [`apply_update_into`](Self::apply_update_into)
    /// performs the full maintenance work — the dense subgraph state after
    /// replay is identical to an uninterrupted run — but leaves every
    /// [`EngineStats`] counter untouched. Without this, replaying the WAL
    /// tail after [`restore`](Self::restore) would count the replayed
    /// updates a second time (the snapshot already carries the counters up
    /// to its sequence point), inflating the throughput ledgers merged into
    /// `BENCH_shard.json`.
    pub fn set_recovering(&mut self, recovering: bool) {
        self.recovering = recovering;
    }

    /// `true` while the engine is replaying a WAL tail (stat accumulation
    /// suppressed).
    pub fn is_recovering(&self) -> bool {
        self.recovering
    }

    /// Read access to the dense subgraph index (for white-box inspection and
    /// benchmarks).
    pub fn index(&self) -> &SubgraphIndex {
        &self.index
    }

    /// Number of dense subgraphs currently maintained (explicitly).
    pub fn dense_count(&self) -> usize {
        self.index.len()
    }

    /// All explicitly maintained dense subgraphs together with their scores.
    pub fn dense_subgraphs(&self) -> Vec<(VertexSet, f64)> {
        self.index
            .iter()
            .map(|(_, v, info)| (v, info.score))
            .collect()
    }

    /// All explicitly maintained output-dense subgraphs together with their
    /// densities, i.e. the answer to the Engagement problem at the current
    /// point of the stream (excluding subgraphs only represented implicitly
    /// through `*` markers, matching the accounting of the paper's Table 2).
    pub fn output_dense_subgraphs(&self) -> Vec<(VertexSet, f64)> {
        self.index
            .infos()
            .filter(|&(_, card, info)| self.thresholds.is_output_dense(info.score, card))
            .map(|(id, card, info)| {
                let density = self.thresholds.measure().density(info.score, card);
                (self.index.vertices(id), density)
            })
            .collect()
    }

    /// Number of explicitly maintained output-dense subgraphs.
    pub fn output_dense_count(&self) -> usize {
        self.index
            .infos()
            .filter(|&(_, card, info)| self.thresholds.is_output_dense(info.score, card))
            .count()
    }

    /// `true` if the subgraph is tracked as dense: either it is explicitly
    /// stored in the index, or it is covered by an `ImplicitTooDense` `*`
    /// marker (it extends a marked too-dense subgraph whose score alone
    /// already clears the dense bound at the queried cardinality).
    pub fn is_tracked_dense(&self, set: &VertexSet) -> bool {
        if set.len() < 2 || set.len() > self.thresholds.n_max() {
            return false;
        }
        if self.index.find(set.as_slice()).is_some() {
            return true;
        }
        self.covered_by_star(set)
    }

    /// `true` if the subgraph is covered by a `*` marker (see
    /// [`is_tracked_dense`](Self::is_tracked_dense)).
    pub fn covered_by_star(&self, set: &VertexSet) -> bool {
        for base in self.index.star_bases_within(set.as_slice()) {
            if self.index.cardinality(base) < set.len()
                && self.thresholds.is_dense(self.index.score(base), set.len())
            {
                return true;
            }
        }
        false
    }

    /// Processes a single edge weight update and returns the changes to the
    /// reported set of output-dense subgraphs.
    pub fn apply_update(&mut self, update: EdgeUpdate) -> Vec<DenseEvent> {
        let mut events = Vec::new();
        self.apply_update_into(update, &mut events);
        events
    }

    /// Processes a single update, appending events to `events` (avoids a fresh
    /// allocation per update in hot loops).
    pub fn apply_update_into(&mut self, update: EdgeUpdate, events: &mut Vec<DenseEvent>) {
        if self.recovering {
            // Replayed updates were already counted before the crash; redo
            // the maintenance work but discard the counter deltas.
            let saved = self.stats.clone();
            self.apply_update_inner(update, events);
            self.stats = saved;
        } else {
            self.apply_update_inner(update, events);
        }
    }

    fn apply_update_inner(&mut self, update: EdgeUpdate, events: &mut Vec<DenseEvent>) {
        self.stats.updates += 1;
        if update.delta == 0.0 {
            return;
        }
        self.epoch += 1;
        self.graph.apply_update(&update);
        if update.delta < 0.0 {
            self.stats.negative_updates += 1;
            self.process_negative(update, events);
        } else {
            self.stats.positive_updates += 1;
            self.process_positive(update, events);
        }
    }

    /// Convenience: processes a sequence of updates, returning all events in
    /// order.
    pub fn apply_updates<I: IntoIterator<Item = EdgeUpdate>>(
        &mut self,
        updates: I,
    ) -> Vec<DenseEvent> {
        let mut events = Vec::new();
        for u in updates {
            self.apply_update_into(u, &mut events);
        }
        events
    }

    // ------------------------------------------------------------------
    // Negative updates (Algorithm 1, lines 1-3)
    // ------------------------------------------------------------------

    fn process_negative(&mut self, update: EdgeUpdate, events: &mut Vec<DenseEvent>) {
        let (a, b, delta) = (update.a, update.b, update.delta);
        // Only subgraphs containing both endpoints see their score change.
        // Processed in canonical (vertex set) order, not index-arena order:
        // arena order depends on the full insert/remove history, which a
        // snapshot-restored engine does not share, and the coverage repairs
        // below are order-sensitive at the floating-point-bit level. The
        // canonical order makes replay-after-restore bit-identical.
        let affected = self.canonical_order(
            self.index
                .subgraphs_containing(a)
                .into_iter()
                .filter(|&id| self.index.contains_vertex(id, b))
                .collect(),
        );
        for id in affected {
            let card = self.index.cardinality(id);
            let old_score = self.index.score(id);
            let new_score = old_score + delta;
            let was_output = self.thresholds.is_output_dense(old_score, card);
            let still_dense = self.thresholds.is_dense(new_score, card);
            let still_output = self.thresholds.is_output_dense(new_score, card);
            // ImplicitTooDense coverage repair, before any demotion or
            // eviction: a `*` marker on this subgraph covered every superset
            // of cardinality within the coverage radius determined by the
            // *old* score. The score drop shrinks that radius (possibly to
            // nothing); supersets that fall out of coverage but remain dense
            // through their own additional edges must be materialised, or the
            // index loses them.
            if self.index.has_star(id) {
                let old_radius = self.coverage_radius(old_score, card);
                let still_starred = still_dense && self.thresholds.is_too_dense(new_score, card);
                let new_radius = if still_starred {
                    self.coverage_radius(new_score, card)
                } else {
                    card
                };
                if new_radius < old_radius {
                    self.materialise_covered_band(id, new_score, new_radius, old_radius, events);
                }
                if still_dense && !still_starred {
                    self.index.set_star(id, false);
                    self.stats.star_markers_removed += 1;
                }
            }
            if still_dense {
                self.index.add_score(id, delta);
                if was_output && !still_output {
                    events.push(DenseEvent::NoLongerOutputDense {
                        vertices: self.index.vertices(id),
                        density: self.thresholds.measure().density(new_score, card),
                    });
                }
            } else {
                if was_output {
                    events.push(DenseEvent::NoLongerOutputDense {
                        vertices: self.index.vertices(id),
                        density: self.thresholds.measure().density(new_score, card),
                    });
                }
                self.index.remove(id);
                self.stats.subgraphs_evicted += 1;
            }
        }
    }

    /// Orders index nodes by their vertex sets, making iteration a function
    /// of the engine's *abstract* state (which subgraphs exist) rather than
    /// of index-arena history. Exploration and coverage repair visit these
    /// lists mutably, so the visiting order decides which arithmetic path
    /// first materialises a candidate; canonical order keeps that path — and
    /// therefore every stored score bit — reproducible across
    /// snapshot/restore.
    /// Runs on every update, hence the allocation-free
    /// [`SubgraphIndex::path_key`] fast path (stack-array keys built once
    /// per node into a reused scratch buffer, instead of a `VertexSet`
    /// allocation each).
    fn canonical_order(&mut self, mut ids: Vec<NodeId>) -> Vec<NodeId> {
        if ids.len() <= 1 {
            return ids;
        }
        let mut keyed = std::mem::take(&mut self.order_scratch);
        keyed.clear();
        for &id in &ids {
            match self.index.path_key(id) {
                Some(key) => keyed.push((key, id)),
                None => {
                    // Nmax beyond the key width: materialise the sets.
                    self.order_scratch = keyed;
                    let mut slow: Vec<(VertexSet, NodeId)> = ids
                        .into_iter()
                        .map(|id| (self.index.vertices(id), id))
                        .collect();
                    slow.sort_unstable_by(|x, y| x.0.cmp(&y.0));
                    return slow.into_iter().map(|(_, id)| id).collect();
                }
            }
        }
        keyed.sort_unstable_by_key(|x| x.0);
        ids.clear();
        ids.extend(keyed.iter().map(|&(_, id)| id));
        self.order_scratch = keyed;
        ids
    }

    /// The largest cardinality whose subgraphs are covered by a `*` marker on
    /// a subgraph of cardinality `card` with the given score: the coverage
    /// claim of [`covered_by_star`](Self::covered_by_star) is
    /// `is_dense(base_score, n)` for supersets of cardinality `n`, and the
    /// dense score bound grows with `n`, so coverage is a contiguous band
    /// `card + 1 ..= radius`.
    fn coverage_radius(&self, base_score: f64, card: usize) -> usize {
        let mut radius = card;
        for n in card + 1..=self.thresholds.n_max() {
            if self.thresholds.is_dense(base_score, n) {
                radius = n;
            } else {
                break;
            }
        }
        radius
    }

    /// Materialises the dense supersets of `base` whose cardinality lies in
    /// `new_radius + 1 ..= old_radius`: previously covered by the base's `*`
    /// marker, no longer covered after its score dropped to `new_base_score`.
    ///
    /// Candidates are enumerated by growing the base one neighbouring vertex
    /// or one disjoint edge at a time through dense intermediates (the same
    /// reachability structure the too-dense exploration relies on).
    /// Materialised subgraphs that are output-dense are reported, matching
    /// the accounting that only explicitly represented subgraphs generate
    /// events; ones that are themselves too-dense receive their own marker,
    /// which also bounds how much of the family must be expanded.
    fn materialise_covered_band(
        &mut self,
        base: NodeId,
        new_base_score: f64,
        new_radius: usize,
        old_radius: usize,
        events: &mut Vec<DenseEvent>,
    ) {
        let base_set = self.index.vertices(base);
        // The graph does not change during the expansion; collect its edge
        // list once for the disjoint-edge steps below (sorted: adjacency-map
        // iteration order is not reproducible across snapshot/restore).
        let all_edges: Vec<(VertexId, VertexId, f64)> = if base_set.len() + 2 <= old_radius {
            let mut edges: Vec<_> = self.graph.edges().collect();
            edges.sort_unstable_by_key(|&(y, z, _)| (y, z));
            edges
        } else {
            Vec::new()
        };
        let mut seen: std::collections::BTreeSet<VertexSet> = std::collections::BTreeSet::new();
        let mut stack: Vec<(VertexSet, f64)> = vec![(base_set, new_base_score)];
        while let Some((set, score)) = stack.pop() {
            let card = set.len();
            if card >= old_radius {
                // Larger supersets were never covered by the old marker.
                continue;
            }
            let gamma = self.graph.neighborhood_scores(&set);
            let mut candidates: Vec<(VertexSet, f64)> = Vec::new();
            for (&y, &gamma_y) in &gamma {
                if !set.contains(y) {
                    candidates.push((set.with(y), score + gamma_y));
                }
            }
            // Canonical expansion order (gamma is a hash map; see
            // `canonical_order`): which path first reaches a superset decides
            // the score bits it is stored with.
            candidates.sort_unstable_by(|x, y| x.0.cmp(&y.0));
            if card + 2 <= old_radius {
                for &(y, z, w) in all_edges
                    .iter()
                    .filter(|&&(y, z, _)| !set.contains(y) && !set.contains(z))
                {
                    let ext_score = w
                        + score
                        + gamma.get(&y).copied().unwrap_or(0.0)
                        + gamma.get(&z).copied().unwrap_or(0.0);
                    candidates.push((set.with(y).with(z), ext_score));
                }
            }
            for (ext, ext_score) in candidates {
                let ext_card = ext.len();
                if ext_card > old_radius
                    || !self.thresholds.is_dense(ext_score, ext_card)
                    || !seen.insert(ext.clone())
                {
                    continue;
                }
                self.stats.candidates_examined += 1;
                if ext_card > new_radius && self.index.find(ext.as_slice()).is_none() {
                    let id = self.index.insert(
                        ext.as_slice(),
                        SubgraphInfo {
                            score: ext_score,
                            discovered_epoch: self.epoch,
                            discovered_iteration: 0,
                        },
                    );
                    self.stats.subgraphs_inserted += 1;
                    if self.thresholds.is_output_dense(ext_score, ext_card) {
                        events.push(DenseEvent::BecameOutputDense {
                            vertices: ext.clone(),
                            density: self.thresholds.measure().density(ext_score, ext_card),
                        });
                    }
                    if self.config.implicit_too_dense
                        && self.thresholds.is_too_dense(ext_score, ext_card)
                    {
                        self.index.set_star(id, true);
                        self.stats.star_markers_created += 1;
                        // Its own marker now covers its supersets up to its
                        // coverage radius; anything beyond old_radius was
                        // never covered by the original marker.
                        if self.coverage_radius(ext_score, ext_card) >= old_radius {
                            continue;
                        }
                    }
                }
                stack.push((ext, ext_score));
            }
        }
    }

    // ------------------------------------------------------------------
    // Positive updates (Algorithm 1, lines 4-11; Algorithm 2)
    // ------------------------------------------------------------------

    fn process_positive(&mut self, update: EdgeUpdate, events: &mut Vec<DenseEvent>) {
        let (a, b, delta) = (update.a, update.b, update.delta);
        let new_weight = self.graph.weight(a, b);

        let max_iterations = self.thresholds.exploration_iterations(delta);
        // The MaxExplore inequalities (Section 7.1) carry a `delta_it` slack
        // and are derived in the single-iteration regime `delta <= delta_it`;
        // a large update processed in several exploration iterations can
        // create newly-dense subgraphs beyond the bound (observed on
        // recompute-style replays where each edge arrives as one full-weight
        // update). Fall back to the exact unbounded exploration there.
        let bound = if self.config.max_explore && max_iterations <= 1 {
            MaxExploreBound::compute(&self.graph, &self.thresholds, a, b, new_weight)
        } else {
            MaxExploreBound::unbounded(self.thresholds.n_max())
        };
        let ctx = UpdateCtx {
            a,
            b,
            delta,
            max_iterations,
            bound,
            epoch: self.epoch,
        };

        // Snapshots: subgraphs that were dense before this update and contain a
        // and/or b, and the * markers present before this update. Both are
        // visited in canonical (vertex set) order — exploration discoveries
        // depend on which base reaches a candidate first, so arena order
        // would make the resulting score bits depend on index history and
        // break snapshot/replay bit-equivalence.
        let affected = self.canonical_order(self.index.subgraphs_containing_either(a, b));
        let stars = if self.config.implicit_too_dense {
            self.canonical_order(self.index.star_bases())
        } else {
            Vec::new()
        };

        // Base case of Algorithm 1, line 4: the edge {a, b} itself, if it is
        // newly-dense and not already maintained.
        if self.index.find(&[a.min(b), a.max(b)]).is_none()
            && self.thresholds.is_dense(new_weight, 2)
        {
            let pair = VertexSet::pair(a, b);
            self.insert_newly_dense(&pair, new_weight, 0, &ctx, events);
            self.explore(&pair, new_weight, 1, true, &ctx, events);
        }

        for id in affected {
            if !self.index.has_info(id) {
                // May have been restructured by earlier work in this update.
                continue;
            }
            let contains_a = self.index.contains_vertex(id, a);
            let contains_b = self.index.contains_vertex(id, b);
            let card = self.index.cardinality(id);
            if contains_a && contains_b {
                // Algorithm 1, lines 10-11.
                let old_score = self.index.score(id);
                let new_score = self.index.add_score(id, delta);
                if !self.thresholds.is_output_dense(old_score, card)
                    && self.thresholds.is_output_dense(new_score, card)
                {
                    events.push(DenseEvent::BecameOutputDense {
                        vertices: self.index.vertices(id),
                        density: self.thresholds.measure().density(new_score, card),
                    });
                }
                let verts = self.index.vertices(id);
                self.explore(&verts, new_score, 1, true, &ctx, events);
            } else {
                // Algorithm 1, lines 5-8: cheap exploration.
                self.cheap_explore(id, contains_a, &ctx, events);
            }
        }

        // ImplicitTooDense star bases: their covered extensions may need to be
        // grown around, and two-vertex extensions by {a, b} may be newly-dense
        // (Section 3.2.3).
        for base in stars {
            if !self.index.has_info(base) || !self.index.has_star(base) {
                continue;
            }
            self.process_star_base(base, &ctx, events);
        }
    }

    /// Cheap exploration (Algorithm 1 line 6): augments a dense subgraph
    /// containing exactly one of the updated endpoints with the other one.
    fn cheap_explore(
        &mut self,
        id: NodeId,
        contains_a: bool,
        ctx: &UpdateCtx,
        events: &mut Vec<DenseEvent>,
    ) {
        let card = self.index.cardinality(id);
        let score = self.index.score(id);
        if card + 1 > self.thresholds.n_max() {
            return;
        }
        // A subgraph that was too-dense before the update normally need not be
        // cheap-explored: its extension by the other endpoint was already
        // dense before the update (its score is unchanged by this update since
        // it contains only one endpoint, so "before" == "now"), and is tracked
        // — by the `*` marker in the implicit representation, or explicitly by
        // explore-all. The exception is the explicit representation with lazy
        // vertex creation: if `other` did not exist yet when the base became
        // too-dense, explore-all could not materialise the extension, so
        // materialise (and explore around) it now that `other` is connected.
        if self.thresholds.is_too_dense(score, card) {
            if !self.config.implicit_too_dense {
                let other = if contains_a { ctx.b } else { ctx.a };
                let verts = self.index.vertices(id);
                let ext = verts.with(other);
                if self.index.find(ext.as_slice()).is_none() {
                    self.stats.candidates_examined += 1;
                    let ext_score = score + self.graph.degree_into(other, &verts);
                    if self.note_candidate(&ext, ext_score, 1, ctx, events) {
                        self.explore(&ext, ext_score, 2, true, ctx, events);
                    }
                }
            }
            return;
        }
        if self.config.max_explore && !ctx.bound.should_cheap_explore(contains_a, card) {
            self.stats.max_explore_skips += 1;
            return;
        }
        let other = if contains_a { ctx.b } else { ctx.a };
        let verts = self.index.vertices(id);
        let other_degree = self.graph.degree_into(other, &verts);
        // The updated edge connects `other` to the endpoint inside `C`, so its
        // pre-update degree into `C` is lower by exactly delta.
        if self.config.degree_prioritize
            && DegreePrioritize::skip_cheap_exploration(card, other_degree - ctx.delta, score)
        {
            self.stats.degree_prioritize_skips += 1;
            return;
        }
        self.stats.cheap_explorations += 1;
        self.stats.candidates_examined += 1;
        let ext_score = score + other_degree;
        let ext_card = card + 1;
        // Newly-dense check: dense now, and not dense before the update (the
        // extension contains both endpoints, so its pre-update score is lower
        // by exactly delta).
        if self.thresholds.is_dense(ext_score, ext_card)
            && !self.thresholds.is_dense(ext_score - ctx.delta, ext_card)
        {
            let ext = verts.with(other);
            if self.note_candidate(&ext, ext_score, 1, ctx, events) {
                // Algorithm 1, line 8: newly-dense subgraphs found via cheap
                // exploration are explored starting from iteration 2.
                self.explore(&ext, ext_score, 2, true, ctx, events);
            }
        }
    }

    /// Handles one `*` marker during a positive update: extensions of the
    /// marked too-dense base that involve the updated endpoints may have
    /// newly-dense supergraphs that regular exploration cannot reach, because
    /// the extensions themselves are only represented implicitly.
    fn process_star_base(&mut self, base: NodeId, ctx: &UpdateCtx, events: &mut Vec<DenseEvent>) {
        let verts = self.index.vertices(base);
        let card = verts.len();
        let contains_a = verts.contains(ctx.a);
        let contains_b = verts.contains(ctx.b);
        if contains_a && contains_b {
            // The base's own score was already updated through the regular
            // iteration; all covered extensions only became denser.
            return;
        }
        let base_score = self.index.score(base);
        if !contains_a && !contains_b {
            // The two-vertex extension C ∪ {a, b} is the only covered-adjacent
            // subgraph whose score changed.
            if card + 2 > self.thresholds.n_max() {
                return;
            }
            let deg_a = self.graph.degree_into(ctx.a, &verts);
            let deg_b = self.graph.degree_into(ctx.b, &verts);
            let w_ab = self.graph.weight(ctx.a, ctx.b);
            let score = base_score + deg_a + deg_b + w_ab;
            let ext_card = card + 2;
            self.stats.candidates_examined += 1;
            if self.thresholds.is_dense(score, ext_card) {
                let ext = verts.with(ctx.a).with(ctx.b);
                let newly = !self.thresholds.is_dense(score - ctx.delta, ext_card);
                let covered = self.thresholds.is_dense(base_score, ext_card);
                if newly && !covered {
                    self.note_candidate(&ext, score, 1, ctx, events);
                    // Discovered at iteration 1, explored from iteration 2.
                    self.explore(&ext, score, 2, false, ctx, events);
                } else {
                    // Stable-dense (it was dense before the update, explicitly
                    // or through the marker): its score contains both updated
                    // endpoints, so its supergraphs may be newly-dense. It is
                    // explored like the stable-dense subgraphs of the main
                    // loop, i.e. starting at iteration 1 — starting at 2
                    // would fall outside the `ceil(delta / delta_it)` budget
                    // for single-iteration updates and lose discoveries.
                    self.explore(&ext, score, 1, false, ctx, events);
                }
            }
        } else {
            // Exactly one endpoint inside the base: the covered extension
            // C ∪ {other} contains both endpoints and acts as a stable-dense
            // subgraph that must be explored.
            if card + 1 > self.thresholds.n_max() {
                return;
            }
            let other = if contains_a { ctx.b } else { ctx.a };
            let deg_other = self.graph.degree_into(other, &verts);
            let score = base_score + deg_other;
            let ext = verts.with(other);
            self.explore(&ext, score, 1, false, ctx, events);
        }
    }

    /// The exploration procedure (Algorithm 2): tries to augment a dense
    /// subgraph (given by `verts` and its current `score`) with one more
    /// vertex, recursing on newly-dense discoveries.
    fn explore(
        &mut self,
        verts: &VertexSet,
        score: f64,
        iteration: usize,
        use_max_explore: bool,
        ctx: &UpdateCtx,
        events: &mut Vec<DenseEvent>,
    ) {
        let card = verts.len();
        if card >= self.thresholds.n_max() {
            return;
        }
        let contains_both = verts.contains(ctx.a) && verts.contains(ctx.b);
        let was_too_dense_before =
            contains_both && self.thresholds.is_too_dense(score - ctx.delta, card);
        let too_dense_now = self.thresholds.is_too_dense(score, card);
        // A subgraph that was already too-dense before the update has only
        // stable-dense one-vertex supergraphs; with the explicit explore-all
        // representation those are already in the index and will be explored
        // through the affected-subgraph loop, so nothing new can be discovered
        // here. With the implicit representation the supergraphs are only
        // covered by the * marker, and a score increase of the base can make
        // *their* supergraphs newly-dense, so we still fall through to the
        // too-dense handling below in that case.
        if was_too_dense_before && !(self.config.implicit_too_dense && too_dense_now) {
            return;
        }
        self.stats.explorations += 1;

        let ext_card = card + 1;

        if too_dense_now {
            // Every one-vertex extension is dense. Either cover the
            // disconnected ones with a * marker (ImplicitTooDense) or fall back
            // to the full explore-all expansion.
            if self.config.implicit_too_dense {
                // The subgraph may itself only exist virtually (covered by an
                // ancestor's * marker, e.g. when it is reached through
                // `process_star_base`). A * marker needs an explicit node to
                // live on, and the marker is required so that the subgraph's
                // own (possibly disconnected) extensions stay covered.
                let id = match self.index.find(verts.as_slice()) {
                    Some(id) => id,
                    None => {
                        let newly = !self.thresholds.is_dense(score - ctx.delta, card);
                        let id = self.index.insert(
                            verts.as_slice(),
                            SubgraphInfo {
                                score,
                                discovered_epoch: ctx.epoch,
                                discovered_iteration: iteration as u32,
                            },
                        );
                        self.stats.subgraphs_inserted += 1;
                        if newly && self.thresholds.is_output_dense(score, card) {
                            events.push(DenseEvent::BecameOutputDense {
                                vertices: verts.clone(),
                                density: self.thresholds.measure().density(score, card),
                            });
                        }
                        id
                    }
                };
                if !self.index.has_star(id) {
                    self.index.set_star(id, true);
                    self.stats.star_markers_created += 1;
                }
                let gamma = self.graph.neighborhood_scores(verts);
                let mut candidates: Vec<(VertexId, f64)> = gamma
                    .iter()
                    .filter(|(&y, _)| !verts.contains(y))
                    .map(|(&y, &g)| (y, g))
                    .collect();
                candidates.sort_unstable_by_key(|&(y, _)| y);
                for (y, gamma_y) in candidates {
                    self.stats.candidates_examined += 1;
                    let ext_score = score + gamma_y;
                    let ext = verts.with(y);
                    if !self.thresholds.is_dense(ext_score - ctx.delta, ext_card) {
                        if self.note_candidate(&ext, ext_score, iteration, ctx, events) {
                            self.explore(
                                &ext,
                                ext_score,
                                iteration + 1,
                                use_max_explore,
                                ctx,
                                events,
                            );
                        }
                    } else if contains_both && self.index.find(ext.as_slice()).is_none() {
                        // The extension was already dense before the update but
                        // is only represented through the * marker. Its score
                        // changed together with the base's, so its own
                        // supergraphs may be newly-dense; it is a stable-dense
                        // subgraph containing both endpoints and must be
                        // explored just like the explicit ones in the main loop.
                        self.explore(&ext, ext_score, 1, false, ctx, events);
                    }
                }
                // "Exploring C ∪ {*}": the one-vertex extensions represented by
                // the marker may in turn have newly-dense supergraphs obtained
                // by adding an edge that is not incident on the base at all
                // (Section 3.2.3). Those are exactly the subgraphs
                // C ∪ {y, z} for an edge (y, z) disjoint from C with
                // sufficiently high weight.
                if card + 2 <= self.thresholds.n_max() {
                    let mut disjoint: Vec<(VertexId, VertexId, f64)> = self
                        .graph
                        .edges()
                        .filter(|&(y, z, _)| !verts.contains(y) && !verts.contains(z))
                        .collect();
                    // Canonical order: edges() iterates hash maps, whose
                    // order is not reproducible across snapshot/restore.
                    disjoint.sort_unstable_by_key(|&(y, z, _)| (y, z));
                    for (y, z, w) in disjoint {
                        self.stats.candidates_examined += 1;
                        let ext_score = score
                            + gamma.get(&y).copied().unwrap_or(0.0)
                            + gamma.get(&z).copied().unwrap_or(0.0)
                            + w;
                        if !self.thresholds.is_dense(ext_score, card + 2) {
                            continue;
                        }
                        let ext = verts.with(y).with(z);
                        let ext_has_both = ext.contains(ctx.a) && ext.contains(ctx.b);
                        let before = ext_score - if ext_has_both { ctx.delta } else { 0.0 };
                        if self.thresholds.is_dense(before, card + 2) {
                            // Dense before the update: already tracked. If its
                            // score changed (both endpoints inside) and it is
                            // only represented implicitly, its supergraphs may
                            // nevertheless be newly-dense — explore it like
                            // the explicit stable-dense subgraphs.
                            if ext_has_both && self.index.find(ext.as_slice()).is_none() {
                                self.explore(&ext, ext_score, 1, false, ctx, events);
                            }
                            continue;
                        }
                        if self.note_candidate(&ext, ext_score, iteration, ctx, events) {
                            self.explore(
                                &ext,
                                ext_score,
                                iteration + 1,
                                use_max_explore,
                                ctx,
                                events,
                            );
                        }
                    }
                }
            } else {
                // Explore-all (Algorithm 2, lines 2-5).
                self.stats.explore_all_invocations += 1;
                let gamma = self.graph.neighborhood_scores(verts);
                for raw in 0..self.graph.vertex_count() as u32 {
                    let y = VertexId(raw);
                    if verts.contains(y) {
                        continue;
                    }
                    self.stats.candidates_examined += 1;
                    let ext_score = score + gamma.get(&y).copied().unwrap_or(0.0);
                    if !self.thresholds.is_dense(ext_score - ctx.delta, ext_card) {
                        let ext = verts.with(y);
                        if self.note_candidate(&ext, ext_score, iteration, ctx, events) {
                            self.explore(
                                &ext,
                                ext_score,
                                iteration + 1,
                                use_max_explore,
                                ctx,
                                events,
                            );
                        }
                    }
                }
            }
            return;
        }

        // Regular neighbour exploration is subject to the iteration bounds.
        if iteration > ctx.max_iterations {
            return;
        }
        if use_max_explore && self.config.max_explore && iteration > ctx.bound.iterations_for(card)
        {
            self.stats.max_explore_skips += 1;
            return;
        }

        let gamma = self.graph.neighborhood_scores(verts);
        let mut candidates: Vec<(VertexId, f64)> = gamma
            .iter()
            .filter(|(&y, _)| !verts.contains(y))
            .map(|(&y, &g)| (y, g))
            .collect();
        candidates.sort_unstable_by_key(|&(y, _)| y);
        for (y, gamma_y) in candidates {
            if self.config.degree_prioritize
                && DegreePrioritize::skip_exploration(card, gamma_y, score)
            {
                self.stats.degree_prioritize_skips += 1;
                continue;
            }
            self.stats.candidates_examined += 1;
            let ext_score = score + gamma_y;
            if !self.thresholds.is_dense(ext_score, ext_card) {
                continue;
            }
            if !self.thresholds.is_dense(ext_score - ctx.delta, ext_card) {
                let ext = verts.with(y);
                if self.note_candidate(&ext, ext_score, iteration, ctx, events) {
                    self.explore(&ext, ext_score, iteration + 1, use_max_explore, ctx, events);
                }
            } else if contains_both {
                // The extension was already dense before the update. It is
                // normally in the index — and then the affected-subgraph loop
                // explores it — but it may only be represented implicitly
                // (covered by a `*` marker below it, or lost to lazy vertex
                // creation in the explicit mode). Its score changed together
                // with this subgraph's (both endpoints inside), so its own
                // supergraphs may be newly-dense: explore it like the
                // explicit stable-dense subgraphs of the main loop.
                let ext = verts.with(y);
                if self.index.find(ext.as_slice()).is_none() {
                    self.explore(&ext, ext_score, 1, false, ctx, events);
                }
            }
        }
    }

    /// Records a newly-dense candidate in the index, reporting it if it is
    /// output-dense. Returns `true` if the caller should recurse on it
    /// (Section 3.2.2 point ii: candidates already discovered at an earlier or
    /// equal exploration iteration within this update are not re-examined).
    fn note_candidate(
        &mut self,
        verts: &VertexSet,
        score: f64,
        iteration: usize,
        ctx: &UpdateCtx,
        events: &mut Vec<DenseEvent>,
    ) -> bool {
        if let Some(existing) = self.index.find(verts.as_slice()) {
            let info = *self.index.info(existing);
            if info.discovered_epoch != ctx.epoch {
                // It was dense before the update; handled by the main loop.
                return false;
            }
            if info.discovered_iteration <= iteration as u32 {
                return false;
            }
            self.index.info_mut(existing).discovered_iteration = iteration as u32;
            return true;
        }
        let id = self.index.insert(
            verts.as_slice(),
            SubgraphInfo {
                score,
                discovered_epoch: ctx.epoch,
                discovered_iteration: iteration as u32,
            },
        );
        self.stats.subgraphs_inserted += 1;
        if self.thresholds.is_output_dense(score, verts.len()) {
            events.push(DenseEvent::BecameOutputDense {
                vertices: verts.clone(),
                density: self.thresholds.measure().density(score, verts.len()),
            });
        }
        // If the fresh subgraph is itself too-dense, its extensions must stay
        // covered even when the recursion below is cut short by the iteration
        // bounds; the marker (or the recursion into the too-dense branch of
        // `explore`) takes care of that.
        if self.config.implicit_too_dense && self.thresholds.is_too_dense(score, verts.len()) {
            self.index.set_star(id, true);
            self.stats.star_markers_created += 1;
        }
        true
    }

    /// Inserts a newly-dense subgraph discovered outside of exploration (the
    /// `{a, b}` base case).
    fn insert_newly_dense(
        &mut self,
        verts: &VertexSet,
        score: f64,
        iteration: usize,
        ctx: &UpdateCtx,
        events: &mut Vec<DenseEvent>,
    ) {
        self.note_candidate(verts, score, iteration, ctx, events);
    }

    // ------------------------------------------------------------------
    // Validation helpers (used heavily by the test suites)
    // ------------------------------------------------------------------

    /// Exhaustively checks internal consistency: index structure invariants,
    /// stored scores matching the graph, every stored subgraph being dense,
    /// `*` markers sitting only on too-dense subgraphs, and cardinalities
    /// within bounds. Intended for tests and debugging; cost is proportional
    /// to the index size times `Nmax^2`.
    pub fn validate(&self) -> Result<(), String> {
        self.index.check_invariants()?;
        for (id, verts, info) in self.index.iter() {
            let card = verts.len();
            if !(2..=self.thresholds.n_max()).contains(&card) {
                return Err(format!("subgraph {verts} has out-of-range cardinality"));
            }
            let actual = self.graph.score(&verts);
            if (actual - info.score).abs() > 1e-6 {
                return Err(format!(
                    "stored score {} of {verts} disagrees with graph score {actual}",
                    info.score
                ));
            }
            if !self.thresholds.is_dense(info.score, card) {
                return Err(format!("stored subgraph {verts} is not dense"));
            }
            if self.index.has_star(id) && !self.thresholds.is_too_dense(info.score, card) {
                return Err(format!("* marker on {verts}, which is not too-dense"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyndens_density::AvgWeight;

    fn update(a: u32, b: u32, delta: f64) -> EdgeUpdate {
        EdgeUpdate::new(VertexId(a), VertexId(b), delta)
    }

    /// Builds the entity graph of the paper's execution example (Figure 2(a))
    /// just before the update of edge (1, 2): vertices are renumbered to
    /// 0-based (paper vertex i = our vertex i-1).
    ///
    /// Paper weights: w(1,3)=w(1,4)=w(3,4)=w(2,4)=1.0, w(2,3)=1.1, w(1,2)=0.8,
    /// w(1,5)=0.8 (vertex 5 hangs off vertex 1 with a light edge).
    fn execution_example_engine() -> DynDens<AvgWeight> {
        // The paper uses T = 1, Nmax = 4 and thresholds T_2 = 0.9,
        // T_3 = 0.975, which correspond to delta_it = 0.075 under our
        // AvgWeight parameterisation (see dyndens-density's threshold tests).
        let config = DynDensConfig::plain(1.0, 4).with_delta_it(0.075);
        let mut engine = DynDens::new(AvgWeight, config);
        for u in [
            update(0, 2, 1.0),
            update(0, 3, 1.0),
            update(2, 3, 1.0),
            update(1, 3, 1.0),
            update(1, 2, 1.1),
            update(0, 1, 0.8),
            update(0, 4, 0.8),
        ] {
            engine.apply_update(u);
        }
        engine
    }

    fn dense_sets(engine: &DynDens<AvgWeight>) -> Vec<VertexSet> {
        let mut v: Vec<VertexSet> = engine
            .dense_subgraphs()
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        v.sort();
        v
    }

    #[test]
    fn execution_example_initial_state() {
        let engine = execution_example_engine();
        engine.validate().unwrap();
        // Figure 2(b), top half (0-based vertex ids): {0,2}, {0,3}, {1,2},
        // {1,3}, {2,3}, {0,2,3}, {1,2,3} are dense; {0,1} (weight 0.8 < 0.9)
        // and {0,4} are not.
        let dense = dense_sets(&engine);
        let expected: Vec<VertexSet> = [
            vec![0u32, 2],
            vec![0, 3],
            vec![1, 2],
            vec![1, 3],
            vec![2, 3],
            vec![0, 2, 3],
            vec![1, 2, 3],
        ]
        .iter()
        .map(|ids| VertexSet::from_ids(ids))
        .collect();
        let mut expected = expected;
        expected.sort();
        assert_eq!(dense, expected);
        assert_eq!(engine.output_dense_count(), 7);
    }

    #[test]
    fn execution_example_update() {
        let mut engine = execution_example_engine();
        // The update of the paper: edge (1,2) [our (0,1)] goes from 0.8 to 0.95.
        let events = engine.apply_update(update(0, 1, 0.15));
        engine.validate().unwrap();

        let dense = dense_sets(&engine);
        let expected: Vec<VertexSet> = [
            vec![0u32, 2],
            vec![0, 3],
            vec![1, 2],
            vec![1, 3],
            vec![2, 3],
            vec![0, 2, 3],
            vec![1, 2, 3],
            // newly-dense after the update (bottom half of Figure 2(b)):
            vec![0, 1],
            vec![0, 1, 2],
            vec![0, 1, 3],
            vec![0, 1, 2, 3],
        ]
        .iter()
        .map(|ids| VertexSet::from_ids(ids))
        .collect();
        let mut expected = expected;
        expected.sort();
        assert_eq!(dense, expected);

        // {0,1,2} (paper {1,2,3}, density 1.016) and {0,1,2,3} (density 1.0083)
        // become output-dense; {0,1} (0.95) and {0,1,3} (0.983) do not.
        let mut became: Vec<VertexSet> = events
            .iter()
            .filter(|e| e.is_became())
            .map(|e| e.vertices().clone())
            .collect();
        became.sort();
        assert_eq!(
            became,
            vec![
                VertexSet::from_ids(&[0, 1, 2]),
                VertexSet::from_ids(&[0, 1, 2, 3])
            ]
        );
        assert!(events.iter().all(|e| e.is_became()));
    }

    #[test]
    fn negative_update_evicts_and_reports() {
        let mut engine = execution_example_engine();
        engine.apply_update(update(0, 1, 0.15));
        // Now pull the same edge back down hard: {0,1}, {0,1,2}, {0,1,3} and
        // {0,1,2,3} lose density.
        let events = engine.apply_update(update(0, 1, -0.8));
        engine.validate().unwrap();
        let gone: Vec<VertexSet> = events
            .iter()
            .filter(|e| !e.is_became())
            .map(|e| e.vertices().clone())
            .collect();
        // The two previously output-dense subgraphs containing edge (0,1) are
        // reported as lost.
        assert!(gone.contains(&VertexSet::from_ids(&[0, 1, 2])));
        assert!(gone.contains(&VertexSet::from_ids(&[0, 1, 2, 3])));
        // And the index no longer stores subgraphs containing the edge (0,1).
        for (set, _) in engine.dense_subgraphs() {
            assert!(
                !(set.contains(VertexId(0)) && set.contains(VertexId(1))),
                "{set} should have been evicted"
            );
        }
    }

    #[test]
    fn zero_delta_is_a_no_op() {
        let mut engine = execution_example_engine();
        let before = dense_sets(&engine);
        let events = engine.apply_update(update(0, 1, 0.0));
        assert!(events.is_empty());
        assert_eq!(dense_sets(&engine), before);
    }

    #[test]
    fn single_heavy_edge_is_reported() {
        let config = DynDensConfig::new(1.0, 4).with_delta_it(0.15);
        let mut engine = DynDens::new(AvgWeight, config);
        let events = engine.apply_update(update(3, 9, 1.5));
        assert_eq!(events.len(), 1);
        assert!(events[0].is_became());
        assert_eq!(events[0].vertices(), &VertexSet::from_ids(&[3, 9]));
        assert_eq!(engine.dense_count(), 1);
        assert_eq!(engine.output_dense_count(), 1);
        engine.validate().unwrap();
    }

    #[test]
    fn growing_clique_is_tracked_at_all_cardinalities() {
        let config = DynDensConfig::new(1.0, 5).with_delta_it_fraction(0.5);
        let mut engine = DynDens::new(AvgWeight, config);
        // Build a 5-clique with all weights 1.2, one edge at a time.
        let mut events = Vec::new();
        for i in 0..5u32 {
            for j in (i + 1)..5u32 {
                engine.apply_update_into(update(i, j, 1.2), &mut events);
            }
        }
        engine.validate().unwrap();
        // Every subset of cardinality 2..=5 is output-dense: C(5,2)+C(5,3)+C(5,4)+C(5,5) = 10+10+5+1 = 26.
        assert_eq!(engine.output_dense_count(), 26);
        assert!(engine.is_tracked_dense(&VertexSet::from_ids(&[0, 1, 2, 3, 4])));
        assert!(engine.is_tracked_dense(&VertexSet::from_ids(&[1, 3])));
        assert!(!engine.is_tracked_dense(&VertexSet::from_ids(&[0, 1, 2, 3, 4, 5])));
    }

    #[test]
    fn implicit_too_dense_covers_disconnected_extensions() {
        // One extremely heavy edge makes {0,1} too-dense: adding any third
        // vertex (even a disconnected one) keeps it dense. With the implicit
        // representation the index stays small but coverage queries succeed.
        let config = DynDensConfig::new(1.0, 4).with_delta_it(0.15);
        let mut engine = DynDens::new(AvgWeight, config);
        engine.apply_update(update(0, 1, 10.0));
        // Materialise a few unrelated vertices so they exist in the graph.
        engine.apply_update(update(5, 6, 0.2));
        engine.validate().unwrap();
        assert!(engine.index().star_count() >= 1);
        assert!(engine.is_tracked_dense(&VertexSet::from_ids(&[0, 1, 5])));
        assert!(engine.is_tracked_dense(&VertexSet::from_ids(&[0, 1, 6])));
        assert!(engine.covered_by_star(&VertexSet::from_ids(&[0, 1, 5, 6])));
        // The explicit index does not enumerate all of those.
        assert!(engine.dense_count() < 5);
    }

    #[test]
    fn explore_all_mode_matches_implicit_coverage() {
        let implicit_cfg = DynDensConfig::new(1.0, 4).with_delta_it(0.15);
        let explicit_cfg = implicit_cfg.clone().with_implicit_too_dense(false);
        let updates = vec![
            update(0, 1, 10.0),
            update(5, 6, 0.2),
            update(2, 3, 1.3),
            update(1, 2, 0.8),
        ];
        let mut imp = DynDens::new(AvgWeight, implicit_cfg);
        let mut exp = DynDens::new(AvgWeight, explicit_cfg);
        for u in &updates {
            imp.apply_update(*u);
            exp.apply_update(*u);
        }
        imp.validate().unwrap();
        exp.validate().unwrap();
        // Every subgraph explicitly stored by the explore-all variant must be
        // tracked (explicitly or implicitly) by the implicit variant.
        for (set, _) in exp.dense_subgraphs() {
            assert!(imp.is_tracked_dense(&set), "implicit variant lost {set}");
        }
        assert!(exp.stats().explore_all_invocations > 0);
        assert!(imp.stats().star_markers_created > 0);
    }

    #[test]
    fn star_coverage_shrink_and_demotion_keep_tracking_exact() {
        // T = 1, Nmax = 4, delta_it = 0.15: dense score bounds are 0.8 (card
        // 2), 2.85 (card 3) and 6.0 (card 4).
        let config = DynDensConfig::new(1.0, 4).with_delta_it(0.15);
        let mut engine = DynDens::with_vertex_capacity(AvgWeight, config, 6);
        engine.apply_update(update(0, 1, 6.5)); // too-dense pair: covers cards 3 and 4
        engine.apply_update(update(2, 3, 1.2)); // separate output-dense pair
        engine.validate().unwrap();
        // Zero-contribution (disconnected) and cross-component supersets are
        // covered by the marker.
        assert!(engine.is_tracked_dense(&VertexSet::from_ids(&[0, 1, 4])));
        assert!(engine.is_tracked_dense(&VertexSet::from_ids(&[0, 1, 2, 3])));

        // Radius shrink (6.5 -> 5.0): card-4 coverage is lost. {0,1,2,3}
        // stays dense through its own (2,3) edge (5.0 + 1.2 >= 6.0) and must
        // be materialised; zero-contribution card-4 supersets score exactly
        // 5.0 < 6.0, i.e. they stop being dense the moment they stop being
        // covered — nothing is lost.
        engine.apply_update(update(0, 1, -1.5));
        engine.validate().unwrap();
        assert!(engine.index().star_count() >= 1, "base must stay too-dense");
        assert!(
            engine
                .dense_subgraphs()
                .iter()
                .any(|(s, _)| s == &VertexSet::from_ids(&[0, 1, 2, 3])),
            "weighted ext must be explicit after falling out of coverage"
        );
        assert!(engine.is_tracked_dense(&VertexSet::from_ids(&[0, 1, 4]))); // card-3 coverage retained

        // Full demotion (5.0 -> 2.0 < 2.85): the marker goes away, and every
        // previously covered superset is either materialised or no longer
        // dense.
        engine.apply_update(update(0, 1, -3.0));
        engine.validate().unwrap();
        assert_eq!(engine.index().star_count(), 0);
        assert!(!engine.is_tracked_dense(&VertexSet::from_ids(&[0, 1, 4])));
        assert!(engine.is_tracked_dense(&VertexSet::from_ids(&[0, 1])));
        assert!(engine.is_tracked_dense(&VertexSet::from_ids(&[2, 3])));
        // {0,1,2,3} lost density (2.0 + 1.2 < 6.0) and must be evicted.
        assert!(!engine.is_tracked_dense(&VertexSet::from_ids(&[0, 1, 2, 3])));
    }

    #[test]
    fn partition_then_absorb_round_trips_the_answer() {
        // Two communities separated by the parity of the vertex id, so a
        // `keep = even` partition is subgraph-disjoint.
        let config = DynDensConfig::new(1.0, 4).with_delta_it(0.15);
        let mut engine = DynDens::new(AvgWeight, config);
        for (a, b) in [(0, 2), (0, 4), (2, 4), (1, 3), (1, 5), (3, 5)] {
            engine.apply_update(update(a, b, 1.25));
        }
        engine.apply_update(update(0, 2, 10.0)); // a `*` marker on one side
        engine.validate().unwrap();
        let mut want: Vec<(VertexSet, u64)> = engine
            .dense_subgraphs()
            .into_iter()
            .map(|(s, d)| (s, d.to_bits()))
            .collect();
        want.sort_by(|a, b| a.0.cmp(&b.0));
        let stars = engine.index().star_count();
        let want_stats = engine.stats().clone();

        let (mut zero, one) = engine.partition_by(|v| v.index() % 2 == 0);
        zero.adopt_stats(want_stats.clone());
        zero.absorb(one);
        zero.validate().unwrap();
        let mut got: Vec<(VertexSet, u64)> = zero
            .dense_subgraphs()
            .into_iter()
            .map(|(s, d)| (s, d.to_bits()))
            .collect();
        got.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(got, want);
        assert_eq!(zero.index().star_count(), stars);
        assert_eq!(zero.stats(), &want_stats);

        // The merged engine keeps evolving exactly like the original.
        for u in [update(0, 1, 1.5), update(2, 3, 0.75)] {
            engine.apply_update(u);
            zero.apply_update(u);
        }
        let left: Vec<(VertexSet, u64)> = {
            let mut v: Vec<_> = engine
                .dense_subgraphs()
                .into_iter()
                .map(|(s, d)| (s, d.to_bits()))
                .collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        };
        let right: Vec<(VertexSet, u64)> = {
            let mut v: Vec<_> = zero
                .dense_subgraphs()
                .into_iter()
                .map(|(s, d)| (s, d.to_bits()))
                .collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        };
        assert_eq!(left, right);
    }

    #[test]
    fn stats_are_accumulated() {
        let mut engine = execution_example_engine();
        engine.apply_update(update(0, 1, 0.15));
        let s = engine.stats();
        assert_eq!(s.updates, 8);
        assert_eq!(s.positive_updates, 8);
        assert!(s.explorations > 0);
        assert!(s.cheap_explorations > 0);
        assert!(s.subgraphs_inserted >= 11);
        engine.reset_stats();
        assert_eq!(engine.stats().updates, 0);
    }
}
