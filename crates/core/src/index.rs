//! The dense subgraph index: a prefix tree over sorted vertex sets with
//! embedded per-vertex inverted lists (Section 3.2.1 of the paper).
//!
//! Every maintained subgraph is stored as a path from the root of the tree,
//! following its vertices in ascending order; the node at the end of the path
//! carries the subgraph's [`SubgraphInfo`]. Because dense subgraphs overlap
//! heavily, shared prefixes are stored once, keeping the memory footprint low.
//!
//! To iterate efficiently over the subgraphs containing a given vertex `u`,
//! every tree node labelled `u` is linked into `u`'s inverted list (a doubly
//! linked list threaded through the nodes themselves). A subgraph contains `u`
//! exactly when its path passes through a node labelled `u`, so iterating the
//! inverted list and walking each node's subtree visits every such subgraph
//! exactly once.
//!
//! Too-dense subgraphs may additionally carry a `*` marker (the
//! `ImplicitTooDense` optimisation of Section 3.2.3): the marker represents
//! all one-vertex extensions of the subgraph without materialising them.
//! Marked nodes are tracked in a separate set so the engine can iterate over
//! them on every update (the paper's `*` inverted list).
//!
//! The three mutators that change a subgraph's score or existence —
//! [`insert`](SubgraphIndex::insert), [`remove`](SubgraphIndex::remove) and
//! [`add_score`](SubgraphIndex::add_score) — also record the subgraph's node
//! in a **dirty set**, once until the set is cleared. The engine's
//! output-dense ranking re-ranks only those nodes when it is read. A node id
//! freed by a removal may be reused by a later insertion; its dirty flag
//! lives beside the arena rather than in the node, so it survives the reuse,
//! and a ranking row left by the removed subgraph is dropped even though the
//! id now names another subgraph. The set never grows beyond the family it
//! describes: once it would hold more nodes than the index stores
//! subgraphs, it collapses into an "everything changed" mark and stops
//! recording, so an engine nobody reads keeps bounded memory.

use dyndens_graph::{FxHashMap, FxHashSet, VertexId, VertexSet};

/// Identifier of a node in the prefix tree (an index into the node arena).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    pub(crate) const ROOT: NodeId = NodeId(0);

    #[inline]
    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Per-subgraph information stored at the node terminating the subgraph's
/// path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubgraphInfo {
    /// The subgraph's score `Σ w_ij` over its internal edges.
    pub score: f64,
    /// The update epoch at which the subgraph was inserted (used to
    /// distinguish newly-dense subgraphs from pre-existing ones within a
    /// single update).
    pub discovered_epoch: u64,
    /// The exploration iteration at which the subgraph was discovered within
    /// its discovery epoch (Section 3.2.2, point ii).
    pub discovered_iteration: u32,
}

impl SubgraphInfo {
    /// Creates the info record for a subgraph discovered outside of any
    /// exploration (epoch and iteration 0).
    pub fn with_score(score: f64) -> Self {
        SubgraphInfo {
            score,
            discovered_epoch: 0,
            discovered_iteration: 0,
        }
    }
}

#[derive(Debug, Clone)]
struct Node {
    vertex: VertexId,
    parent: NodeId,
    depth: u32,
    /// Children sorted by vertex id for binary search.
    children: Vec<(VertexId, NodeId)>,
    info: Option<SubgraphInfo>,
    /// `ImplicitTooDense` marker: this subgraph is too-dense and its
    /// one-vertex extensions are represented implicitly.
    star: bool,
    inv_prev: Option<NodeId>,
    inv_next: Option<NodeId>,
    in_use: bool,
}

impl Node {
    fn new(vertex: VertexId, parent: NodeId, depth: u32) -> Self {
        Node {
            vertex,
            parent,
            depth,
            children: Vec::new(),
            info: None,
            star: false,
            inv_prev: None,
            inv_next: None,
            in_use: true,
        }
    }
}

/// The dense subgraph index.
#[derive(Debug, Clone)]
pub struct SubgraphIndex {
    nodes: Vec<Node>,
    free: Vec<NodeId>,
    /// Heads of the per-vertex inverted lists.
    inverted: FxHashMap<VertexId, NodeId>,
    /// Nodes currently carrying a `*` marker.
    star_bases: FxHashSet<NodeId>,
    /// Number of subgraphs (nodes with info).
    len: usize,
    /// Nodes whose subgraph changed score or existence since the last
    /// [`clear_dirty`](Self::clear_dirty), each once.
    dirty: Vec<NodeId>,
    /// Membership flags of `dirty`, one per arena slot: compact, so a
    /// ranking can test every row against them cheaply.
    dirty_flags: Vec<bool>,
    /// The dirty set outgrew the family: every subgraph counts as changed,
    /// and nothing more is recorded until the next clear.
    dirty_overflow: bool,
}

impl Default for SubgraphIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl SubgraphIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        // Node 0 is the root; its vertex label is never read.
        let root = Node::new(VertexId(u32::MAX - 1), NodeId::ROOT, 0);
        SubgraphIndex {
            nodes: vec![root],
            free: Vec::new(),
            inverted: FxHashMap::default(),
            star_bases: FxHashSet::default(),
            len: 0,
            dirty: Vec::new(),
            dirty_flags: vec![false],
            dirty_overflow: false,
        }
    }

    /// Number of subgraphs stored in the index.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the index stores no subgraphs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of allocated tree nodes (root excluded); exposed for memory
    /// accounting in benchmarks and for white-box tests.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.in_use).count() - 1
    }

    fn node(&self, id: NodeId) -> &Node {
        debug_assert!(self.nodes[id.idx()].in_use, "dangling NodeId");
        &self.nodes[id.idx()]
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        debug_assert!(self.nodes[id.idx()].in_use, "dangling NodeId");
        &mut self.nodes[id.idx()]
    }

    fn child_of(&self, id: NodeId, v: VertexId) -> Option<NodeId> {
        let node = self.node(id);
        node.children
            .binary_search_by_key(&v, |&(cv, _)| cv)
            .ok()
            .map(|i| node.children[i].1)
    }

    fn alloc_node(&mut self, vertex: VertexId, parent: NodeId, depth: u32) -> NodeId {
        let id = match self.free.pop() {
            Some(id) => {
                self.nodes[id.idx()] = Node::new(vertex, parent, depth);
                id
            }
            None => {
                let id = NodeId(self.nodes.len() as u32);
                self.nodes.push(Node::new(vertex, parent, depth));
                self.dirty_flags.push(false);
                id
            }
        };
        // Link into the inverted list of `vertex` (push front).
        let head = self.inverted.get(&vertex).copied();
        if let Some(h) = head {
            self.nodes[h.idx()].inv_prev = Some(id);
        }
        self.nodes[id.idx()].inv_next = head;
        self.inverted.insert(vertex, id);
        id
    }

    fn unlink_inverted(&mut self, id: NodeId) {
        let (vertex, prev, next) = {
            let n = &self.nodes[id.idx()];
            (n.vertex, n.inv_prev, n.inv_next)
        };
        match prev {
            Some(p) => self.nodes[p.idx()].inv_next = next,
            None => {
                // `id` was the head.
                match next {
                    Some(nx) => {
                        self.inverted.insert(vertex, nx);
                    }
                    None => {
                        self.inverted.remove(&vertex);
                    }
                }
            }
        }
        if let Some(nx) = next {
            self.nodes[nx.idx()].inv_prev = prev;
        }
        self.nodes[id.idx()].inv_prev = None;
        self.nodes[id.idx()].inv_next = None;
    }

    /// Finds the tree node for the exact vertex path, whether or not it
    /// carries subgraph info.
    fn find_node(&self, vertices: &[VertexId]) -> Option<NodeId> {
        let mut cur = NodeId::ROOT;
        for &v in vertices {
            cur = self.child_of(cur, v)?;
        }
        Some(cur)
    }

    /// Finds the subgraph with exactly these (sorted, duplicate-free)
    /// vertices, returning its node if it is stored in the index.
    pub fn find(&self, vertices: &[VertexId]) -> Option<NodeId> {
        debug_assert!(
            vertices.windows(2).all(|w| w[0] < w[1]),
            "vertices must be sorted"
        );
        let id = self.find_node(vertices)?;
        self.node(id).info.map(|_| id)
    }

    /// Looks up the subgraph `C ∪ {v}` given the node of `C` and an extra
    /// vertex `v` not in `C`. Cost is O(1) when `v` is larger than every
    /// vertex of `C`, and O(|C| + 1) otherwise.
    pub fn find_extension(&self, base: NodeId, v: VertexId) -> Option<NodeId> {
        let base_node = self.node(base);
        if base == NodeId::ROOT || v > base_node.vertex {
            let id = self.child_of(base, v)?;
            return self.node(id).info.map(|_| id);
        }
        let mut vertices = self.vertices(base);
        vertices.insert(v);
        self.find(vertices.as_slice())
    }

    /// Inserts (or overwrites) the subgraph with the given sorted vertices.
    /// Returns its node id.
    pub fn insert(&mut self, vertices: &[VertexId], info: SubgraphInfo) -> NodeId {
        debug_assert!(vertices.len() >= 2, "subgraphs have cardinality >= 2");
        debug_assert!(
            vertices.windows(2).all(|w| w[0] < w[1]),
            "vertices must be sorted"
        );
        let mut cur = NodeId::ROOT;
        for (depth, &v) in vertices.iter().enumerate() {
            cur = match self.child_of(cur, v) {
                Some(c) => c,
                None => {
                    let child = self.alloc_node(v, cur, depth as u32 + 1);
                    let parent = &mut self.nodes[cur.idx()];
                    let pos = parent
                        .children
                        .binary_search_by_key(&v, |&(cv, _)| cv)
                        .unwrap_err();
                    parent.children.insert(pos, (v, child));
                    child
                }
            };
        }
        if self.node(cur).info.is_none() {
            self.len += 1;
        }
        self.node_mut(cur).info = Some(info);
        self.mark_dirty(cur);
        cur
    }

    /// Removes the subgraph stored at `id` from the index, pruning any tree
    /// nodes that no longer serve a purpose. The `*` marker, if present, is
    /// removed as well.
    pub fn remove(&mut self, id: NodeId) {
        if self.node(id).info.is_some() {
            self.len -= 1;
        }
        self.node_mut(id).info = None;
        self.mark_dirty(id);
        self.set_star(id, false);
        // Prune upwards while the node is an info-less, childless, non-root leaf.
        let mut cur = id;
        while cur != NodeId::ROOT {
            let (prune, parent, vertex) = {
                let n = self.node(cur);
                (
                    n.info.is_none() && n.children.is_empty() && !n.star,
                    n.parent,
                    n.vertex,
                )
            };
            if !prune {
                break;
            }
            self.unlink_inverted(cur);
            let parent_node = &mut self.nodes[parent.idx()];
            if let Ok(pos) = parent_node
                .children
                .binary_search_by_key(&vertex, |&(cv, _)| cv)
            {
                parent_node.children.remove(pos);
            }
            self.nodes[cur.idx()].in_use = false;
            self.free.push(cur);
            cur = parent;
        }
    }

    /// The vertices of the subgraph (or tree node) `id`, obtained by walking
    /// the parent pointers.
    pub fn vertices(&self, id: NodeId) -> VertexSet {
        let mut vs = Vec::with_capacity(self.node(id).depth as usize);
        self.push_path(id, &mut vs);
        VertexSet::from_sorted(vs)
    }

    /// Appends the vertices of `id`'s path to `out`, in ascending order.
    pub(crate) fn push_path(&self, id: NodeId, out: &mut Vec<VertexId>) {
        let start = out.len();
        out.resize(start + self.node(id).depth as usize, VertexId(0));
        let mut i = out.len();
        let mut cur = id;
        while cur != NodeId::ROOT {
            let n = self.node(cur);
            i -= 1;
            out[i] = n.vertex;
            cur = n.parent;
        }
    }

    /// The cardinality of the subgraph at `id`.
    #[inline]
    pub fn cardinality(&self, id: NodeId) -> usize {
        self.node(id).depth as usize
    }

    /// Width of the fixed-size canonical [`path_key`](Self::path_key).
    pub const PATH_KEY_WIDTH: usize = 12;

    /// A fixed-width, allocation-free encoding of the node's vertex path,
    /// zero-padded at the tail. Key order equals lexicographic vertex-set
    /// order, and distinct paths map to distinct keys: paths are strictly
    /// ascending vertex sequences, so no real path can continue with
    /// another `0` once a vertex has been emitted. Returns `None` for paths
    /// deeper than the key width (callers fall back to materialising the
    /// vertex sets).
    ///
    /// This exists for the engine's canonical processing order: sorting
    /// affected subgraphs by vertex set on every update is hot-path work,
    /// and walking the parent chain into a stack array is ~an order of
    /// magnitude cheaper than building a `VertexSet` per node.
    pub fn path_key(&self, id: NodeId) -> Option<[u32; Self::PATH_KEY_WIDTH]> {
        let depth = self.cardinality(id);
        if depth > Self::PATH_KEY_WIDTH {
            return None;
        }
        let mut key = [0u32; Self::PATH_KEY_WIDTH];
        let mut cur = id;
        let mut i = depth;
        while cur != NodeId::ROOT {
            let n = self.node(cur);
            i -= 1;
            key[i] = n.vertex.0;
            cur = n.parent;
        }
        Some(key)
    }

    /// `true` if the subgraph at `id` contains vertex `v`.
    pub fn contains_vertex(&self, id: NodeId, v: VertexId) -> bool {
        let mut cur = id;
        while cur != NodeId::ROOT {
            let n = self.node(cur);
            if n.vertex == v {
                return true;
            }
            // Paths are sorted ascending, so once we walk past `v` we can stop.
            if n.vertex < v {
                return false;
            }
            cur = n.parent;
        }
        false
    }

    /// The info record of the subgraph at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is a structural tree node without subgraph info.
    pub fn info(&self, id: NodeId) -> &SubgraphInfo {
        self.node(id)
            .info
            .as_ref()
            .expect("node does not store a subgraph")
    }

    /// Mutable access to the info record of the subgraph at `id`.
    pub fn info_mut(&mut self, id: NodeId) -> &mut SubgraphInfo {
        self.node_mut(id)
            .info
            .as_mut()
            .expect("node does not store a subgraph")
    }

    /// `true` if `id` currently stores a subgraph.
    pub fn has_info(&self, id: NodeId) -> bool {
        self.node(id).info.is_some()
    }

    /// The score of the subgraph at `id`.
    #[inline]
    pub fn score(&self, id: NodeId) -> f64 {
        self.info(id).score
    }

    /// Adds `delta` to the score of the subgraph at `id`, returning the new
    /// score.
    pub fn add_score(&mut self, id: NodeId, delta: f64) -> f64 {
        self.mark_dirty(id);
        let info = self.info_mut(id);
        info.score += delta;
        info.score
    }

    /// Records `id` in the dirty set (see the [module docs](self)).
    fn mark_dirty(&mut self, id: NodeId) {
        if self.dirty_overflow {
            return;
        }
        let flag = &mut self.dirty_flags[id.idx()];
        if !*flag {
            *flag = true;
            self.dirty.push(id);
        }
        // A removal shrinks the family, so check even when `id` was
        // already recorded.
        if self.dirty.len() > self.len {
            self.clear_dirty();
            self.dirty_overflow = true;
        }
    }

    /// The nodes whose subgraph was inserted, removed or re-scored since the
    /// last [`clear_dirty`](Self::clear_dirty), each once; `None` when the
    /// set outgrew the family and every subgraph must be treated as changed.
    /// A listed node may since have been freed, or reused by another
    /// subgraph: see [`stored_info`](Self::stored_info).
    pub(crate) fn dirty(&self) -> Option<&[NodeId]> {
        (!self.dirty_overflow).then_some(self.dirty.as_slice())
    }

    /// Number of nodes in the dirty set; never more than [`len`](Self::len).
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// `true` if `id` is in the dirty set, whether or not it still stores a
    /// subgraph.
    #[inline]
    pub(crate) fn is_dirty(&self, id: NodeId) -> bool {
        self.dirty_flags[id.idx()]
    }

    /// Empties the dirty set and lifts an overflow.
    pub(crate) fn clear_dirty(&mut self) {
        for id in self.dirty.drain(..) {
            self.dirty_flags[id.idx()] = false;
        }
        self.dirty_overflow = false;
    }

    /// The info record of `id` if the node is live and stores a subgraph.
    /// Unlike [`info`](Self::info), this accepts ids of freed nodes (as a
    /// dirty set may list them).
    pub(crate) fn stored_info(&self, id: NodeId) -> Option<&SubgraphInfo> {
        let n = &self.nodes[id.idx()];
        if n.in_use {
            n.info.as_ref()
        } else {
            None
        }
    }

    /// Sets or clears the `*` (implicit too-dense) marker on the subgraph at
    /// `id`.
    pub fn set_star(&mut self, id: NodeId, star: bool) {
        if self.node(id).star == star {
            return;
        }
        self.node_mut(id).star = star;
        if star {
            self.star_bases.insert(id);
        } else {
            self.star_bases.remove(&id);
        }
    }

    /// `true` if the subgraph at `id` carries a `*` marker.
    pub fn has_star(&self, id: NodeId) -> bool {
        self.node(id).star
    }

    /// The subgraphs currently carrying a `*` marker.
    pub fn star_bases(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.star_bases.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Number of `*` markers in the index.
    pub fn star_count(&self) -> usize {
        self.star_bases.len()
    }

    /// The star-marked subgraphs whose vertex set is a subset of `set`
    /// (which must be sorted ascending, as in [`VertexSet::as_slice`]).
    ///
    /// Walks the prefix tree restricted to the vertices of `set`, so the cost
    /// is bounded by the number of subsets of `set` present as tree paths
    /// (at most `2^|set|` with `|set| <= Nmax`), independent of how many `*`
    /// markers the index holds — the difference between this and scanning
    /// [`star_bases`](Self::star_bases) is what makes coverage queries cheap
    /// on star-heavy workloads.
    pub fn star_bases_within(&self, set: &[VertexId]) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack: Vec<(NodeId, usize)> = vec![(NodeId::ROOT, 0)];
        while let Some((node, start)) = stack.pop() {
            if self.node(node).star {
                out.push(node);
            }
            for (i, &v) in set.iter().enumerate().skip(start) {
                if let Some(child) = self.child_of(node, v) {
                    stack.push((child, i + 1));
                }
            }
        }
        out
    }

    fn push_subtree_subgraphs(
        &self,
        root: NodeId,
        stop_at: Option<VertexId>,
        out: &mut Vec<NodeId>,
    ) {
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            let n = self.node(id);
            if id != root {
                if let Some(stop) = stop_at {
                    if n.vertex == stop {
                        continue;
                    }
                }
            }
            if n.info.is_some() {
                out.push(id);
            }
            for &(_, child) in &n.children {
                stack.push(child);
            }
        }
    }

    /// All subgraphs containing vertex `v`, each exactly once.
    pub fn subgraphs_containing(&self, v: VertexId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = self.inverted.get(&v).copied();
        while let Some(id) = cur {
            self.push_subtree_subgraphs(id, None, &mut out);
            cur = self.node(id).inv_next;
        }
        out
    }

    /// All subgraphs containing vertex `a` or vertex `b`, each exactly once.
    ///
    /// Following Section 3.2.2: the subtrees hanging off the inverted list of
    /// the larger vertex are traversed first; the subtrees of the smaller
    /// vertex are then traversed, stopping whenever a node labelled with the
    /// larger vertex is encountered (those subgraphs contain both vertices and
    /// have already been visited).
    pub fn subgraphs_containing_either(&self, a: VertexId, b: VertexId) -> Vec<NodeId> {
        assert!(a != b);
        let (small, large) = if a < b { (a, b) } else { (b, a) };
        let mut out = Vec::new();
        let mut cur = self.inverted.get(&large).copied();
        while let Some(id) = cur {
            self.push_subtree_subgraphs(id, None, &mut out);
            cur = self.node(id).inv_next;
        }
        let mut cur = self.inverted.get(&small).copied();
        while let Some(id) = cur {
            self.push_subtree_subgraphs(id, Some(large), &mut out);
            cur = self.node(id).inv_next;
        }
        out
    }

    /// Iterates over every stored subgraph as `(node, cardinality, info)`,
    /// without materialising vertex sets.
    pub fn infos(&self) -> impl Iterator<Item = (NodeId, usize, &SubgraphInfo)> + '_ {
        self.nodes.iter().enumerate().filter_map(|(i, n)| {
            let info = n.info.as_ref().filter(|_| n.in_use)?;
            Some((NodeId(i as u32), n.depth as usize, info))
        })
    }

    /// Iterates over every stored subgraph as `(node, vertices, info)`.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, VertexSet, &SubgraphInfo)> + '_ {
        self.infos()
            .map(|(id, _, info)| (id, self.vertices(id), info))
    }

    /// The node ids of every stored subgraph.
    pub fn all_subgraphs(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.in_use && n.info.is_some())
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Internal consistency check used by tests: inverted lists reference
    /// exactly the in-use nodes with the corresponding vertex label, the
    /// subgraph count matches, star markers refer to stored subgraphs, and
    /// the dirty flags match a dirty set no larger than the family.
    pub fn check_invariants(&self) -> Result<(), String> {
        let flagged = self.dirty_flags.iter().filter(|&&f| f).count();
        if flagged != self.dirty.len() || self.dirty.iter().any(|&id| !self.is_dirty(id)) {
            return Err("dirty flags disagree with the dirty set".to_string());
        }
        if self.dirty.len() > self.len {
            return Err(format!(
                "dirty set of {} outgrew the family of {}",
                self.dirty.len(),
                self.len
            ));
        }
        let mut info_count = 0usize;
        let mut labelled: FxHashMap<VertexId, usize> = FxHashMap::default();
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.in_use || i == 0 {
                continue;
            }
            *labelled.entry(n.vertex).or_insert(0) += 1;
            if n.info.is_some() {
                info_count += 1;
            }
            if n.star && self.nodes[i].info.is_none() {
                return Err(format!("star marker on info-less node {i}"));
            }
            if n.star && !self.star_bases.contains(&NodeId(i as u32)) {
                return Err(format!("star marker on node {i} missing from star set"));
            }
        }
        if info_count != self.len {
            return Err(format!(
                "len {} does not match stored subgraphs {info_count}",
                self.len
            ));
        }
        for id in &self.star_bases {
            if !self.nodes[id.idx()].in_use || !self.nodes[id.idx()].star {
                return Err("stale star base".to_string());
            }
        }
        // Walk each inverted list and count membership.
        for (&v, &head) in &self.inverted {
            let mut count = 0usize;
            let mut cur = Some(head);
            let mut prev: Option<NodeId> = None;
            while let Some(id) = cur {
                let n = &self.nodes[id.idx()];
                if !n.in_use {
                    return Err(format!("inverted list of {v} references a freed node"));
                }
                if n.vertex != v {
                    return Err(format!(
                        "inverted list of {v} contains a node labelled {}",
                        n.vertex
                    ));
                }
                if n.inv_prev != prev {
                    return Err(format!("broken back-link in inverted list of {v}"));
                }
                prev = Some(id);
                cur = n.inv_next;
                count += 1;
                if count > self.nodes.len() {
                    return Err(format!("cycle in inverted list of {v}"));
                }
            }
            let expected = labelled.get(&v).copied().unwrap_or(0);
            if count != expected {
                return Err(format!(
                    "inverted list of {v} has {count} nodes, expected {expected}"
                ));
            }
        }
        // Every labelled vertex must have an inverted list.
        for (&v, &expected) in &labelled {
            if expected > 0 && !self.inverted.contains_key(&v) {
                return Err(format!("missing inverted list for {v}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vs(ids: &[u32]) -> Vec<VertexId> {
        ids.iter().map(|&i| VertexId(i)).collect()
    }

    fn insert(index: &mut SubgraphIndex, ids: &[u32], score: f64) -> NodeId {
        index.insert(&vs(ids), SubgraphInfo::with_score(score))
    }

    /// Builds the index of Figure 3: subgraphs {1,3}, {1,3,4}, {1,3,5},
    /// {3,4,5}, {4,5}.
    fn figure3_index() -> SubgraphIndex {
        let mut index = SubgraphIndex::new();
        insert(&mut index, &[1, 3], 1.0);
        insert(&mut index, &[1, 3, 4], 2.5);
        insert(&mut index, &[1, 3, 5], 2.4);
        insert(&mut index, &[3, 4, 5], 2.6);
        insert(&mut index, &[4, 5], 0.9);
        index
    }

    #[test]
    fn insert_find_and_len() {
        let index = figure3_index();
        assert_eq!(index.len(), 5);
        assert!(!index.is_empty());
        assert!(index.find(&vs(&[1, 3])).is_some());
        assert!(index.find(&vs(&[1, 3, 4])).is_some());
        assert!(index.find(&vs(&[1, 4])).is_none());
        // {1,3,4,5} shares a prefix but is not stored
        assert!(index.find(&vs(&[1, 3, 4, 5])).is_none());
        index.check_invariants().unwrap();
    }

    #[test]
    fn insert_overwrites_info() {
        let mut index = SubgraphIndex::new();
        let id1 = insert(&mut index, &[1, 2], 1.0);
        let id2 = insert(&mut index, &[1, 2], 2.0);
        assert_eq!(id1, id2);
        assert_eq!(index.len(), 1);
        assert_eq!(index.score(id1), 2.0);
    }

    #[test]
    fn vertices_cardinality_and_contains() {
        let index = figure3_index();
        let id = index.find(&vs(&[1, 3, 5])).unwrap();
        assert_eq!(index.vertices(id), VertexSet::from_ids(&[1, 3, 5]));
        assert_eq!(index.cardinality(id), 3);
        assert!(index.contains_vertex(id, VertexId(3)));
        assert!(index.contains_vertex(id, VertexId(5)));
        assert!(!index.contains_vertex(id, VertexId(4)));
        assert!(!index.contains_vertex(id, VertexId(0)));
    }

    #[test]
    fn score_updates() {
        let mut index = SubgraphIndex::new();
        let id = insert(&mut index, &[2, 7], 0.5);
        assert_eq!(index.add_score(id, 0.25), 0.75);
        assert_eq!(index.score(id), 0.75);
        assert!(index.has_info(id));
    }

    #[test]
    fn find_extension_fast_and_slow_path() {
        let index = figure3_index();
        let base = index.find(&vs(&[1, 3])).unwrap();
        // fast path: extension vertex larger than the base's last vertex
        let ext = index.find_extension(base, VertexId(4)).unwrap();
        assert_eq!(index.vertices(ext), VertexSet::from_ids(&[1, 3, 4]));
        assert!(index.find_extension(base, VertexId(6)).is_none());
        // slow path: extension vertex smaller than the base's last vertex
        let base45 = index.find(&vs(&[4, 5])).unwrap();
        let ext2 = index.find_extension(base45, VertexId(3)).unwrap();
        assert_eq!(index.vertices(ext2), VertexSet::from_ids(&[3, 4, 5]));
        assert!(index.find_extension(base45, VertexId(1)).is_none());
    }

    #[test]
    fn subgraphs_containing_single_vertex() {
        let index = figure3_index();
        let mut got: Vec<VertexSet> = index
            .subgraphs_containing(VertexId(4))
            .into_iter()
            .map(|id| index.vertices(id))
            .collect();
        got.sort();
        assert_eq!(
            got,
            vec![
                VertexSet::from_ids(&[1, 3, 4]),
                VertexSet::from_ids(&[3, 4, 5]),
                VertexSet::from_ids(&[4, 5]),
            ]
        );
        assert!(index.subgraphs_containing(VertexId(9)).is_empty());
    }

    #[test]
    fn subgraphs_containing_either_visits_each_once() {
        let index = figure3_index();
        let got = index.subgraphs_containing_either(VertexId(1), VertexId(4));
        let mut sets: Vec<VertexSet> = got.iter().map(|&id| index.vertices(id)).collect();
        sets.sort();
        sets.dedup();
        assert_eq!(
            sets.len(),
            got.len(),
            "each subgraph must be visited exactly once"
        );
        assert_eq!(
            sets,
            vec![
                VertexSet::from_ids(&[1, 3]),
                VertexSet::from_ids(&[1, 3, 4]),
                VertexSet::from_ids(&[1, 3, 5]),
                VertexSet::from_ids(&[3, 4, 5]),
                VertexSet::from_ids(&[4, 5]),
            ]
        );
        // Order-insensitive to which argument is larger.
        let got2 = index.subgraphs_containing_either(VertexId(4), VertexId(1));
        assert_eq!(got.len(), got2.len());
    }

    #[test]
    fn remove_prunes_chains() {
        let mut index = figure3_index();
        let nodes_before = index.node_count();
        let id = index.find(&vs(&[1, 3, 5])).unwrap();
        index.remove(id);
        assert_eq!(index.len(), 4);
        assert!(index.find(&vs(&[1, 3, 5])).is_none());
        // {1,3} still exists, so only one node (labelled 5) is pruned.
        assert_eq!(index.node_count(), nodes_before - 1);
        index.check_invariants().unwrap();

        // Removing {4,5} prunes the whole 4->5 chain.
        let id45 = index.find(&vs(&[4, 5])).unwrap();
        index.remove(id45);
        assert!(index.find(&vs(&[4, 5])).is_none());
        index.check_invariants().unwrap();

        // Removing {1,3} keeps the prefix node because {1,3,4} still hangs off it.
        let id13 = index.find(&vs(&[1, 3])).unwrap();
        index.remove(id13);
        assert!(index.find(&vs(&[1, 3])).is_none());
        assert!(index.find(&vs(&[1, 3, 4])).is_some());
        assert_eq!(index.len(), 2);
        index.check_invariants().unwrap();
    }

    #[test]
    fn removed_node_ids_are_reused() {
        let mut index = SubgraphIndex::new();
        let id = insert(&mut index, &[10, 20], 1.0);
        index.remove(id);
        assert!(index.is_empty());
        let id2 = insert(&mut index, &[11, 21], 1.0);
        // The arena reuses freed slots, so no unbounded growth.
        assert!(index.node_count() <= 2);
        assert!(index.has_info(id2));
        index.check_invariants().unwrap();
    }

    #[test]
    fn star_markers() {
        let mut index = figure3_index();
        let id13 = index.find(&vs(&[1, 3])).unwrap();
        assert_eq!(index.star_count(), 0);
        index.set_star(id13, true);
        index.set_star(id13, true); // idempotent
        assert!(index.has_star(id13));
        assert_eq!(index.star_bases(), vec![id13]);
        assert_eq!(index.star_count(), 1);
        index.check_invariants().unwrap();

        // Removing the subgraph clears the marker.
        index.remove(id13);
        assert_eq!(index.star_count(), 0);
        index.check_invariants().unwrap();
    }

    #[test]
    fn star_bases_within_restricts_to_subsets() {
        let mut index = figure3_index();
        let id13 = index.find(&vs(&[1, 3])).unwrap();
        let id134 = index.find(&vs(&[1, 3, 4])).unwrap();
        let id45 = index.find(&vs(&[4, 5])).unwrap();
        index.set_star(id13, true);
        index.set_star(id134, true);
        index.set_star(id45, true);

        // {1, 3, 4} admits the subsets {1,3} and {1,3,4} but not {4,5}.
        let mut within = index.star_bases_within(&vs(&[1, 3, 4]));
        within.sort_unstable();
        assert_eq!(within, vec![id13, id134]);
        // A superset of everything sees all three markers.
        assert_eq!(index.star_bases_within(&vs(&[1, 3, 4, 5])).len(), 3);
        // Disjoint and partial sets see none.
        assert!(index.star_bases_within(&vs(&[2, 6])).is_empty());
        assert!(index.star_bases_within(&vs(&[3, 4])).is_empty());
        assert!(index.star_bases_within(&vs(&[])).is_empty());
    }

    #[test]
    fn iter_and_all_subgraphs() {
        let index = figure3_index();
        let mut via_iter: Vec<VertexSet> = index.iter().map(|(_, v, _)| v).collect();
        via_iter.sort();
        let mut via_ids: Vec<VertexSet> = index
            .all_subgraphs()
            .into_iter()
            .map(|id| index.vertices(id))
            .collect();
        via_ids.sort();
        assert_eq!(via_iter, via_ids);
        assert_eq!(via_iter.len(), 5);
    }

    #[test]
    fn check_invariants_detects_len_mismatch() {
        let mut index = figure3_index();
        index.len = 17;
        assert!(index.check_invariants().is_err());
    }
}
