//! The arena-based tree pattern.

use crate::condition::Condition;
use crate::node::{EdgeKind, NodeId, PatternNode, NIL};
use tpq_base::{Error, Json, Result, TypeId, TypeSet};

/// A tree pattern query.
///
/// Nodes live in a flat arena; removal tombstones the node and
/// [`compact`](TreePattern::compact) renumbers. Exactly one alive node
/// carries the output marker `*` (the root by default).
///
/// A node's children are linked through the arena (first child, next
/// sibling, last child), and the nodes' conditions sit in one side table,
/// so a node owns no heap memory unless its type set spills: cloning a
/// pattern copies one `Vec`, and compaction is one pre-order pass.
///
/// ```
/// use tpq_pattern::{TreePattern, EdgeKind};
/// use tpq_base::TypeInterner;
/// let mut tys = TypeInterner::new();
/// let (a, b, c) = (tys.intern("a"), tys.intern("b"), tys.intern("c"));
/// let mut q = TreePattern::new(a);
/// let n1 = q.add_child(q.root(), EdgeKind::Child, b);
/// let _n2 = q.add_child(n1, EdgeKind::Descendant, c);
/// assert_eq!(q.size(), 3);
/// q.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreePattern {
    nodes: Vec<PatternNode>,
    root: NodeId,
    output: NodeId,
    /// Number of alive nodes.
    alive: usize,
    /// The condition side table: `cond_owner[i]` carries `conds[i]`.
    /// Sorted by owner; a node's conditions keep their insertion order.
    cond_owner: Vec<NodeId>,
    conds: Vec<Condition>,
}

impl TreePattern {
    /// A single-node pattern of type `ty`; the root is the output node.
    pub fn new(ty: TypeId) -> Self {
        let mut root = PatternNode::new(ty, None, EdgeKind::Child);
        root.output = true;
        TreePattern {
            nodes: vec![root],
            root: NodeId(0),
            output: NodeId(0),
            alive: 1,
            cond_owner: Vec::new(),
            conds: Vec::new(),
        }
    }

    /// The root node id.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The output (`*`) node id.
    #[inline]
    pub fn output(&self) -> NodeId {
        self.output
    }

    /// Move the output marker to `id`.
    ///
    /// # Panics
    /// Panics if `id` is dead.
    pub fn set_output(&mut self, id: NodeId) {
        assert!(self.nodes[id.index()].alive, "output node must be alive");
        let old = self.output;
        self.nodes[old.index()].output = false;
        self.nodes[id.index()].output = true;
        self.output = id;
    }

    /// Borrow a node.
    #[inline]
    pub fn node(&self, id: NodeId) -> &PatternNode {
        &self.nodes[id.index()]
    }

    /// Mutably borrow a node.
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> &mut PatternNode {
        &mut self.nodes[id.index()]
    }

    /// Whether `id` is alive (not removed).
    #[inline]
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.nodes[id.index()].alive
    }

    /// The alive children of `id`, in insertion order.
    #[inline]
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children { nodes: &self.nodes, next: self.nodes[id.index()].first_child }
    }

    /// The alive child of `id`'s parent that follows `id`, if any: with
    /// `children(parent).next()`, a child cursor that borrows nothing.
    #[inline]
    pub fn next_sibling(&self, id: NodeId) -> Option<NodeId> {
        Some(self.nodes[id.index()].next_sibling).filter(|&n| n != NIL).map(NodeId)
    }

    /// The value-based conditions on `id` (a conjunction; Section 7).
    #[inline]
    pub fn conditions(&self, id: NodeId) -> &[Condition] {
        if self.conds.is_empty() {
            return &[];
        }
        let lo = self.cond_owner.partition_point(|&o| o < id);
        let hi = lo + self.cond_owner[lo..].partition_point(|&o| o == id);
        &self.conds[lo..hi]
    }

    /// Append the condition `cond` to `id`'s conjunction.
    pub fn add_condition(&mut self, id: NodeId, cond: Condition) {
        let at = self.cond_owner.partition_point(|&o| o <= id);
        self.cond_owner.insert(at, id);
        self.conds.insert(at, cond);
    }

    /// Add a child of type `ty` under `parent` with the given edge kind.
    pub fn add_child(&mut self, parent: NodeId, edge: EdgeKind, ty: TypeId) -> NodeId {
        debug_assert!(self.nodes[parent.index()].alive, "parent must be alive");
        let id = u32::try_from(self.nodes.len()).ok().filter(|&id| id != NIL);
        let id = id.expect("pattern too large");
        self.nodes.push(PatternNode::new(ty, Some(parent), edge));
        self.link_last(parent, id);
        self.alive += 1;
        NodeId(id)
    }

    /// Append the unlinked node `id` to `parent`'s children.
    fn link_last(&mut self, parent: NodeId, id: u32) {
        let p = &mut self.nodes[parent.index()];
        let last = std::mem::replace(&mut p.last_child, id);
        match last {
            NIL => p.first_child = id,
            last => self.nodes[last as usize].next_sibling = id,
        }
    }

    /// Take `id` out of its parent's children.
    fn unlink(&mut self, parent: NodeId, id: NodeId) {
        let next = std::mem::replace(&mut self.nodes[id.index()].next_sibling, NIL);
        let (mut prev, mut cur) = (NIL, self.nodes[parent.index()].first_child);
        while cur != id.0 {
            prev = cur;
            cur = self.nodes[cur as usize].next_sibling;
        }
        match prev {
            NIL => self.nodes[parent.index()].first_child = next,
            prev => self.nodes[prev as usize].next_sibling = next,
        }
        if self.nodes[parent.index()].last_child == id.0 {
            self.nodes[parent.index()].last_child = prev;
        }
    }

    /// Make room for `additional` more nodes in the arena.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.nodes.reserve(additional);
    }

    /// Add a *temporary* child (augmentation, Section 5.2).
    pub fn add_temp_child(&mut self, parent: NodeId, edge: EdgeKind, ty: TypeId) -> NodeId {
        let id = self.add_child(parent, edge, ty);
        self.nodes[id.index()].temporary = true;
        id
    }

    /// Number of alive nodes (the paper's "size of a tree query").
    #[inline]
    pub fn size(&self) -> usize {
        self.alive
    }

    /// Arena length including tombstones.
    #[inline]
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// Iterate over alive node ids in arena order.
    pub fn alive_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().enumerate().filter(|(_, n)| n.alive).map(|(i, _)| NodeId(i as u32))
    }

    /// All alive leaves.
    pub fn leaves(&self) -> Vec<NodeId> {
        self.alive_ids().filter(|&id| self.node(id).is_leaf()).collect()
    }

    /// The node after `id` in a pre-order walk of the subtree of `top`:
    /// its first child, else the next sibling of the nearest of `id` and
    /// its ancestors below `top` that has one.
    #[inline]
    fn pre_order_next(&self, top: NodeId, mut id: NodeId) -> Option<NodeId> {
        if let Some(first) = self.children(id).next() {
            return Some(first);
        }
        while id != top {
            let n = &self.nodes[id.index()];
            if n.next_sibling != NIL {
                return Some(NodeId(n.next_sibling));
            }
            id = n.parent.expect("a node below top has a parent");
        }
        None
    }

    /// Alive node ids in post-order (children before parents). Follows the
    /// child and sibling links without a stack: safe on arbitrarily deep
    /// patterns.
    pub fn post_order(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.size());
        if !self.is_alive(self.root) {
            return out;
        }
        let leftmost_leaf = |mut id: NodeId| {
            while let Some(first) = self.children(id).next() {
                id = first;
            }
            id
        };
        let mut id = leftmost_leaf(self.root);
        loop {
            out.push(id);
            if id == self.root {
                return out;
            }
            let n = &self.nodes[id.index()];
            id = match n.next_sibling {
                NIL => n.parent.expect("a non-root node has a parent"),
                next => leftmost_leaf(NodeId(next)),
            };
        }
    }

    /// Alive node ids in pre-order (parents before children).
    pub fn pre_order(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.size());
        if !self.is_alive(self.root) {
            return out;
        }
        let mut next = Some(self.root);
        while let Some(id) = next {
            out.push(id);
            next = self.pre_order_next(self.root, id);
        }
        out
    }

    /// Iterate over the proper ancestors of `id`, nearest first.
    pub fn ancestors(&self, id: NodeId) -> Ancestors<'_> {
        Ancestors { pattern: self, current: self.node(id).parent }
    }

    /// Whether `anc` is a **proper** ancestor of `desc` in the pattern tree.
    pub fn is_proper_ancestor(&self, anc: NodeId, desc: NodeId) -> bool {
        self.ancestors(desc).any(|a| a == anc)
    }

    /// Depth of `id` (root has depth 0).
    pub fn depth(&self, id: NodeId) -> usize {
        self.ancestors(id).count()
    }

    /// Maximum depth over alive nodes (single walk, O(n)).
    pub fn max_depth(&self) -> usize {
        if !self.is_alive(self.root) {
            return 0;
        }
        let (mut max, mut depth) = (0, 0);
        let mut id = self.root;
        loop {
            max = max.max(depth);
            if let Some(first) = self.children(id).next() {
                id = first;
                depth += 1;
                continue;
            }
            // Climb to the nearest ancestor-or-self with a next sibling.
            loop {
                if id == self.root {
                    return max;
                }
                let n = &self.nodes[id.index()];
                if n.next_sibling != NIL {
                    id = NodeId(n.next_sibling);
                    break;
                }
                id = n.parent.expect("a non-root node has a parent");
                depth -= 1;
            }
        }
    }

    /// Maximum fanout (number of alive children) over alive nodes.
    pub fn max_fanout(&self) -> usize {
        self.alive_ids().map(|id| self.children(id).count()).max().unwrap_or(0)
    }

    /// Number of alive nodes in the subtree rooted at `id` (inclusive).
    pub fn subtree_size(&self, id: NodeId) -> usize {
        if !self.is_alive(id) {
            return 0;
        }
        let mut count = 0;
        let mut next = Some(id);
        while let Some(n) = next {
            count += 1;
            next = self.pre_order_next(id, n);
        }
        count
    }

    /// Remove an alive leaf. Errors if `id` is not an alive leaf, is the
    /// root, or is the output node (a `*` node can never be redundant).
    pub fn remove_leaf(&mut self, id: NodeId) -> Result<()> {
        let node = &self.nodes[id.index()];
        if !node.alive {
            return Err(Error::InvalidPattern(format!("{id} is already removed")));
        }
        if !node.is_leaf() {
            return Err(Error::InvalidPattern(format!("{id} is not a leaf")));
        }
        if id == self.root {
            return Err(Error::InvalidPattern("cannot remove the root".into()));
        }
        if id == self.output {
            return Err(Error::InvalidPattern("cannot remove the output node".into()));
        }
        let parent = node.parent.expect("non-root has a parent");
        self.unlink(parent, id);
        self.nodes[id.index()].alive = false;
        self.alive -= 1;
        Ok(())
    }

    /// Remove a whole subtree (used when stripping augmentation temps and by
    /// partial elimination orderings). Errors if the subtree contains the
    /// output node or the root.
    pub fn remove_subtree(&mut self, id: NodeId) -> Result<()> {
        if id == self.root {
            return Err(Error::InvalidPattern("cannot remove the root subtree".into()));
        }
        if !self.is_alive(id) {
            return Err(Error::InvalidPattern(format!("{id} is already removed")));
        }
        if id == self.output || self.is_proper_ancestor(id, self.output) {
            return Err(Error::InvalidPattern("subtree contains the output node".into()));
        }
        let parent = self.nodes[id.index()].parent.expect("non-root has a parent");
        self.unlink(parent, id);
        self.kill_subtree(id);
        Ok(())
    }

    /// Tombstone every node of the (already unlinked) subtree of `top`,
    /// clearing their links: a post-order walk over the links, without a
    /// stack.
    fn kill_subtree(&mut self, top: NodeId) {
        let mut id = top;
        loop {
            while let Some(first) = self.children(id).next() {
                id = first;
            }
            // `id` has no children left: kill it, then go on to its next
            // sibling's subtree, or kill its parent, whose children are
            // all dead by then.
            loop {
                let n = &mut self.nodes[id.index()];
                let (next, parent) = (n.next_sibling, n.parent);
                n.alive = false;
                (n.first_child, n.last_child, n.next_sibling) = (NIL, NIL, NIL);
                self.alive -= 1;
                if id == top {
                    return;
                }
                if next != NIL {
                    id = NodeId(next);
                    break;
                }
                id = parent.expect("a node below top has a parent");
            }
        }
    }

    /// Strip every temporary node (and its temporary descendants) and every
    /// chase-added extra type, restoring an augmentation-free pattern. Works
    /// in place: the temporaries are unlinked and tombstoned, and each type
    /// set is reset to its primary type.
    ///
    /// Augmentation only ever adds temporary *leaves* under original nodes
    /// (Section 5.2 applies ICs to original nodes only), so temporary nodes
    /// never have original descendants.
    pub fn strip_temporaries(&mut self) {
        for i in 0..self.nodes.len() {
            let n = &self.nodes[i];
            if !n.alive {
                continue;
            }
            if n.temporary && n.parent.is_none_or(|p| !self.nodes[p.index()].temporary) {
                self.remove_subtree(NodeId(i as u32)).expect("temporary subtree is removable");
            } else {
                let n = &mut self.nodes[i];
                n.types.reset_to(n.primary);
            }
        }
    }

    /// Compact the arena: drop tombstones and renumber in pre-order, so the
    /// new root is index 0 and parents precede children. Returns the new
    /// pattern and the old-id → new-id mapping. One pre-order pass: each
    /// alive node is copied once and relinked under its parent's copy.
    pub fn compact(&self) -> (TreePattern, Vec<Option<NodeId>>) {
        let mut mapping: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        let mut out = TreePattern {
            nodes: Vec::with_capacity(self.size()),
            root: NodeId(0),
            output: NodeId(0),
            alive: 0,
            cond_owner: Vec::new(),
            conds: Vec::new(),
        };
        let mut next = Some(self.root).filter(|&r| self.is_alive(r));
        while let Some(id) = next {
            let new = NodeId(out.nodes.len() as u32);
            mapping[id.index()] = Some(new);
            let old = &self.nodes[id.index()];
            let parent = old.parent.map(|p| mapping[p.index()].expect("parent precedes child"));
            out.nodes.push(PatternNode {
                types: old.types.clone(),
                parent,
                first_child: NIL,
                last_child: NIL,
                next_sibling: NIL,
                ..*old
            });
            if let Some(p) = parent {
                out.link_last(p, new.0);
            }
            for cond in self.conditions(id) {
                out.cond_owner.push(new);
                out.conds.push(cond.clone());
            }
            next = self.pre_order_next(self.root, id);
        }
        out.alive = out.nodes.len();
        out.root = mapping[self.root.index()].expect("root alive");
        out.output = mapping[self.output.index()].expect("output alive");
        (out, mapping)
    }

    /// JSON form of the whole arena, tombstones included, so that
    /// [`TreePattern::from_json`] reproduces the pattern exactly
    /// (`from_json(to_json(q)) == q` under full structural equality).
    pub fn to_json(&self) -> Json {
        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let id = NodeId(i as u32);
                Json::object(vec![
                    ("primary", Json::Int(n.primary.0 as i64)),
                    ("types", Json::Array(n.types.iter().map(|t| Json::Int(t.0 as i64)).collect())),
                    ("parent", n.parent.map_or(Json::Null, |p| Json::Int(p.0 as i64))),
                    ("edge", Json::Str(n.edge.separator().to_string())),
                    (
                        "children",
                        Json::Array(self.children(id).map(|c| Json::Int(c.0 as i64)).collect()),
                    ),
                    (
                        "conditions",
                        Json::Array(self.conditions(id).iter().map(Condition::to_json).collect()),
                    ),
                    ("output", Json::Bool(n.output)),
                    ("temporary", Json::Bool(n.temporary)),
                    ("alive", Json::Bool(n.alive)),
                ])
            })
            .collect();
        Json::object(vec![
            ("nodes", Json::Array(nodes)),
            ("root", Json::Int(self.root.0 as i64)),
            ("output", Json::Int(self.output.0 as i64)),
        ])
    }

    /// Inverse of [`TreePattern::to_json`]. Validates the reconstructed
    /// pattern before returning it.
    pub fn from_json(json: &Json) -> Result<TreePattern> {
        fn node_id(json: &Json) -> Option<NodeId> {
            Some(NodeId(u32::try_from(json.as_i64()?).ok()?))
        }
        let bad = |what: &str| Error::InvalidPattern(format!("pattern json: {what}"));

        let raw_nodes =
            json.get("nodes").and_then(Json::as_array).ok_or_else(|| bad("missing nodes array"))?;
        let mut nodes = Vec::with_capacity(raw_nodes.len());
        let mut child_lists = Vec::with_capacity(raw_nodes.len());
        let mut conditions = Vec::new();
        for (i, raw) in raw_nodes.iter().enumerate() {
            let primary = raw
                .get("primary")
                .and_then(Json::as_i64)
                .and_then(|i| u32::try_from(i).ok())
                .map(TypeId)
                .ok_or_else(|| bad("bad primary type"))?;
            let types: TypeSet = raw
                .get("types")
                .and_then(Json::as_array)
                .ok_or_else(|| bad("bad type set"))?
                .iter()
                .map(|t| {
                    t.as_i64()
                        .and_then(|i| u32::try_from(i).ok())
                        .map(TypeId)
                        .ok_or_else(|| bad("bad type id"))
                })
                .collect::<Result<_>>()?;
            let parent = match raw.get("parent") {
                Some(Json::Null) | None => None,
                Some(p) => Some(node_id(p).ok_or_else(|| bad("bad parent id"))?),
            };
            let edge = match raw.get("edge").and_then(Json::as_str) {
                Some("/") => EdgeKind::Child,
                Some("//") => EdgeKind::Descendant,
                _ => return Err(bad("bad edge kind")),
            };
            let children: Vec<NodeId> = raw
                .get("children")
                .and_then(Json::as_array)
                .ok_or_else(|| bad("bad child list"))?
                .iter()
                .map(|c| node_id(c).ok_or_else(|| bad("bad child id")))
                .collect::<Result<_>>()?;
            if let Some(conds) = raw.get("conditions").and_then(Json::as_array) {
                for c in conds {
                    let cond = Condition::from_json(c).ok_or_else(|| bad("bad condition"))?;
                    conditions.push((NodeId(i as u32), cond));
                }
            }
            let flag = |key: &str| raw.get(key).and_then(Json::as_bool).unwrap_or_default();
            let mut node = PatternNode::new(primary, parent, edge);
            node.types = types;
            node.output = flag("output");
            node.temporary = flag("temporary");
            node.alive = raw.get("alive").and_then(Json::as_bool).unwrap_or(true);
            nodes.push(node);
            child_lists.push(children);
        }
        let root = json
            .get("root")
            .and_then(node_id)
            .filter(|r| r.index() < nodes.len())
            .ok_or_else(|| bad("bad root id"))?;
        let output = json
            .get("output")
            .and_then(node_id)
            .filter(|o| o.index() < nodes.len())
            .ok_or_else(|| bad("bad output id"))?;
        let alive = nodes.iter().filter(|n| n.alive).count();
        let (cond_owner, conds) = conditions.into_iter().unzip();
        let mut pattern = TreePattern { nodes, root, output, alive, cond_owner, conds };
        // Link each child list in order. A child must name the node that
        // lists it as its parent and be listed once, so the links form a
        // forest whatever the input.
        let mut listed = vec![false; pattern.nodes.len()];
        for (i, children) in child_lists.into_iter().enumerate() {
            for c in children {
                let parent =
                    pattern.nodes.get(c.index()).ok_or_else(|| bad("node id out of range"))?.parent;
                if parent != Some(NodeId(i as u32))
                    || std::mem::replace(&mut listed[c.index()], true)
                {
                    return Err(bad("child list disagrees with parent links"));
                }
                pattern.link_last(NodeId(i as u32), c.0);
            }
        }
        if pattern.nodes.iter().any(|n| n.parent.is_some_and(|p| p.index() >= listed.len())) {
            return Err(bad("node id out of range"));
        }
        pattern.validate()?;
        Ok(pattern)
    }

    /// Check every structural invariant; used defensively at public API
    /// boundaries and extensively in tests.
    pub fn validate(&self) -> Result<()> {
        if !self.is_alive(self.root) {
            return Err(Error::InvalidPattern("root is dead".into()));
        }
        if self.node(self.root).parent.is_some() {
            return Err(Error::InvalidPattern("root has a parent".into()));
        }
        if !self.is_alive(self.output) {
            return Err(Error::InvalidPattern("output node is dead".into()));
        }
        let mut marked = 0usize;
        let mut reachable = 0usize;
        let mut next = Some(self.root);
        while let Some(id) = next {
            next = self.pre_order_next(self.root, id);
            reachable += 1;
            let n = self.node(id);
            if n.output {
                marked += 1;
                if id != self.output {
                    return Err(Error::InvalidPattern(format!(
                        "{id} is marked but output field says {}",
                        self.output
                    )));
                }
            }
            if !n.types.contains(n.primary) {
                return Err(Error::InvalidPattern(format!(
                    "{id}: type set does not contain the primary type"
                )));
            }
            for c in self.children(id) {
                if !self.is_alive(c) {
                    return Err(Error::InvalidPattern(format!("{id} has dead child {c}")));
                }
                if self.node(c).parent != Some(id) {
                    return Err(Error::InvalidPattern(format!(
                        "child {c} of {id} has a mismatched parent link"
                    )));
                }
            }
            if let Some(p) = n.parent {
                if !self.is_alive(p) {
                    return Err(Error::InvalidPattern(format!("{id} has dead parent {p}")));
                }
            }
        }
        if marked != 1 {
            return Err(Error::InvalidPattern(format!("{marked} output markers (want 1)")));
        }
        let alive = self.alive_ids().count();
        if reachable != alive || alive != self.size() {
            return Err(Error::InvalidPattern(format!(
                "{reachable} reachable alive nodes but {alive} alive in arena (counted {})",
                self.size()
            )));
        }
        Ok(())
    }
}

/// Iterator over the alive children of a node, in insertion order. See
/// [`TreePattern::children`].
#[derive(Clone)]
pub struct Children<'a> {
    nodes: &'a [PatternNode],
    next: u32,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        match self.next {
            NIL => None,
            id => {
                self.next = self.nodes[id as usize].next_sibling;
                Some(NodeId(id))
            }
        }
    }
}

/// Iterator over proper ancestors, nearest first. See
/// [`TreePattern::ancestors`].
pub struct Ancestors<'a> {
    pattern: &'a TreePattern,
    current: Option<NodeId>,
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.current?;
        self.current = self.pattern.node(id).parent;
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpq_base::TypeInterner;

    fn chain() -> (TreePattern, Vec<NodeId>) {
        // a / b // c / d
        let mut tys = TypeInterner::new();
        let ids = tys.intern_all(["a", "b", "c", "d"]);
        let mut q = TreePattern::new(ids[0]);
        let b = q.add_child(q.root(), EdgeKind::Child, ids[1]);
        let c = q.add_child(b, EdgeKind::Descendant, ids[2]);
        let d = q.add_child(c, EdgeKind::Child, ids[3]);
        (q, vec![NodeId(0), b, c, d])
    }

    #[test]
    fn build_and_sizes() {
        let (q, ids) = chain();
        assert_eq!(q.size(), 4);
        assert_eq!(q.leaves(), vec![ids[3]]);
        assert_eq!(q.depth(ids[3]), 3);
        assert_eq!(q.max_depth(), 3);
        assert_eq!(q.max_fanout(), 1);
        q.validate().unwrap();
    }

    #[test]
    fn orders_are_consistent() {
        let (q, ids) = chain();
        assert_eq!(q.pre_order(), ids);
        let mut rev = ids.clone();
        rev.reverse();
        assert_eq!(q.post_order(), rev);
    }

    #[test]
    fn ancestors_nearest_first() {
        let (q, ids) = chain();
        let anc: Vec<_> = q.ancestors(ids[3]).collect();
        assert_eq!(anc, vec![ids[2], ids[1], ids[0]]);
        assert!(q.is_proper_ancestor(ids[0], ids[3]));
        assert!(!q.is_proper_ancestor(ids[3], ids[0]));
        assert!(!q.is_proper_ancestor(ids[1], ids[1]));
    }

    #[test]
    fn remove_leaf_rules() {
        let (mut q, ids) = chain();
        // Not a leaf.
        assert!(q.remove_leaf(ids[1]).is_err());
        // Output node (root by default) cannot be removed even if leaf-like.
        assert!(q.remove_leaf(ids[0]).is_err());
        q.remove_leaf(ids[3]).unwrap();
        assert_eq!(q.size(), 3);
        assert!(q.remove_leaf(ids[3]).is_err(), "double removal rejected");
        // c is now a leaf.
        q.remove_leaf(ids[2]).unwrap();
        assert_eq!(q.size(), 2);
        q.validate().unwrap();
    }

    #[test]
    fn cannot_remove_output_leaf() {
        let (mut q, ids) = chain();
        q.set_output(ids[3]);
        assert!(q.remove_leaf(ids[3]).is_err());
    }

    #[test]
    fn remove_subtree_protects_output() {
        let (mut q, ids) = chain();
        q.set_output(ids[2]);
        assert!(q.remove_subtree(ids[1]).is_err(), "contains output");
        q.set_output(ids[0]);
        q.remove_subtree(ids[1]).unwrap();
        assert_eq!(q.size(), 1);
        q.validate().unwrap();
    }

    #[test]
    fn compact_renumbers_and_preserves_shape() {
        let (mut q, ids) = chain();
        let mut tys = TypeInterner::new();
        tys.intern_all(["a", "b", "c", "d", "e"]);
        let e = q.add_child(ids[1], EdgeKind::Descendant, TypeId(4));
        q.remove_leaf(ids[3]).unwrap();
        q.remove_leaf(ids[2]).unwrap();
        let (c, mapping) = q.compact();
        assert_eq!(c.size(), 3);
        assert_eq!(c.arena_len(), 3);
        assert_eq!(mapping[ids[3].index()], None);
        let new_e = mapping[e.index()].unwrap();
        assert_eq!(c.node(new_e).primary, TypeId(4));
        assert_eq!(c.node(new_e).edge, EdgeKind::Descendant);
        c.validate().unwrap();
    }

    #[test]
    fn strip_temporaries_removes_temp_subtrees_and_extra_types() {
        let (mut q, ids) = chain();
        let t = q.add_temp_child(ids[1], EdgeKind::Descendant, TypeId(9));
        let _t2 = q.add_temp_child(t, EdgeKind::Child, TypeId(10));
        q.node_mut(ids[2]).types.insert(TypeId(11));
        assert_eq!(q.size(), 6);
        q.strip_temporaries();
        assert_eq!(q.size(), 4);
        assert_eq!(q.node(ids[2]).types.len(), 1);
        q.validate().unwrap();
    }

    #[test]
    fn validate_catches_double_output() {
        let (mut q, ids) = chain();
        q.node_mut(ids[2]).output = true; // corrupt directly
        assert!(q.validate().is_err());
    }

    #[test]
    fn set_output_moves_marker() {
        let (mut q, ids) = chain();
        q.set_output(ids[2]);
        assert!(q.node(ids[2]).output);
        assert!(!q.node(ids[0]).output);
        assert_eq!(q.output(), ids[2]);
        q.validate().unwrap();
    }

    #[test]
    fn json_round_trip_preserves_tombstones_and_flags() {
        let (mut q, ids) = chain();
        let t = q.add_temp_child(ids[1], EdgeKind::Descendant, TypeId(9));
        q.node_mut(t).types.insert(TypeId(11));
        q.remove_leaf(ids[3]).unwrap();
        q.set_output(ids[2]);
        let text = q.to_json().to_string_pretty();
        let back = TreePattern::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(q, back);
        assert_eq!(back.arena_len(), q.arena_len(), "tombstones survive");
    }

    #[test]
    fn from_json_rejects_garbage() {
        for text in [
            "{}",
            r#"{"nodes": [], "root": 0, "output": 0}"#,
            r#"{"nodes": [{"primary": 0, "types": [0], "parent": 7, "edge": "/",
                 "children": [], "conditions": [], "output": true,
                 "temporary": false, "alive": true}], "root": 0, "output": 0}"#,
        ] {
            let json = Json::parse(text).unwrap();
            assert!(TreePattern::from_json(&json).is_err(), "accepted: {text}");
        }
    }

    #[test]
    fn subtree_size_counts_inclusively() {
        let (q, ids) = chain();
        assert_eq!(q.subtree_size(ids[0]), 4);
        assert_eq!(q.subtree_size(ids[2]), 2);
        assert_eq!(q.subtree_size(ids[3]), 1);
    }
}
