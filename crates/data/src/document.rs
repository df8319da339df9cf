//! Column-stored documents and forests.
//!
//! A [`Document`] keeps one column per node field instead of one struct per
//! node: the parent, the primary type, a span into one shared type pool, a
//! span into one shared attribute pool, the child links, the id of the
//! last node of each subtree, and one bit per node that marks the nodes
//! whose parent is the node just before them. Every parsed or repaired
//! document is *pre-ordered*: a node's id is its pre-order rank, so its
//! subtree is the id interval `id ..= subtree_end(id)` and ancestorship is
//! two comparisons. A document grown by hand out of document order stays a
//! valid document; [`Document::is_pre_order`] tells the two kinds apart
//! and [`Document::to_pre_order`] renumbers the second kind.

use std::fmt;
use tpq_base::{Error, Result, TypeId, TypeSet, Value};

/// Index of a node inside a [`Document`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DataNodeId(pub u32);

impl DataNodeId {
    /// The id as a usize, for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DataNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// No node: the root's parent, the end of a child or sibling chain.
const NONE: u32 = u32::MAX;

/// The `end` of a node on the path from the root to the last node: its
/// subtree ends at the last node, whichever that is.
const OPEN: u32 = u32::MAX;

/// A node's run of entries in a pool.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }

    /// Whether the span is the pool's tail, so it can grow in place.
    fn at_tail(self, pool_len: usize) -> bool {
        (self.start + self.len) as usize == pool_len
    }
}

fn pool_len<T>(pool: &[T]) -> u32 {
    u32::try_from(pool.len()).expect("document too large")
}

/// A single rooted data tree of multi-typed nodes (Section 2.2: an
/// `employee` entry is also a `person`). Documents are append-only —
/// repairs (making a document satisfy constraints) only add nodes or types.
///
/// There is deliberately no `Default` impl: a zero-node document has no
/// root, so every accessor would panic. Construct via [`Document::new`]
/// (or the parsers/generators), all of which yield a rooted tree.
#[derive(Debug, Clone)]
pub struct Document {
    /// Parent id; [`NONE`] for the root.
    parent: Vec<u32>,
    primary: Vec<TypeId>,
    /// Each node's ascending type set in `type_pool` (always holds `primary`).
    types: Vec<Span>,
    type_pool: Vec<TypeId>,
    /// The nodes with more than one type, ascending: the primary column
    /// and these nodes' type sets together list every node's types.
    multi_typed: Vec<DataNodeId>,
    /// Each node's attributes in `attr_pool` (at most one entry per name).
    attrs: Vec<Span>,
    attr_pool: Vec<(TypeId, Value)>,
    first_child: Vec<u32>,
    next_sibling: Vec<u32>,
    last_child: Vec<u32>,
    /// While `pre_order`: the id of the last node of each subtree, or
    /// [`OPEN`] for the nodes on the path to the last node.
    end: Vec<u32>,
    /// One bit per node, 64 to a word: node `c` is set iff its parent is
    /// `c - 1`. Nodes are only appended, so a bit never goes stale.
    first_children: Vec<u64>,
    /// Whether every id is its node's pre-order rank.
    pre_order: bool,
}

impl Document {
    /// A single-node document of type `ty`.
    pub fn new(ty: TypeId) -> Self {
        let mut doc = Document::empty();
        doc.push_node(None, ty, &[ty], []);
        doc
    }

    /// A document without nodes, which [`Document::push_node`] fills
    /// starting with the root.
    pub(crate) fn empty() -> Self {
        Document {
            parent: Vec::new(),
            primary: Vec::new(),
            types: Vec::new(),
            type_pool: Vec::new(),
            multi_typed: Vec::new(),
            attrs: Vec::new(),
            attr_pool: Vec::new(),
            first_child: Vec::new(),
            next_sibling: Vec::new(),
            last_child: Vec::new(),
            end: Vec::new(),
            first_children: Vec::new(),
            pre_order: true,
        }
    }

    /// Append a node under `parent` (`None` only for the first node) with
    /// the ascending type set `types`, which holds `primary`, and the
    /// attributes `attrs`, whose names must be distinct.
    pub(crate) fn push_node(
        &mut self,
        parent: Option<DataNodeId>,
        primary: TypeId,
        types: &[TypeId],
        attrs: impl IntoIterator<Item = (TypeId, Value)>,
    ) -> DataNodeId {
        debug_assert!(types.windows(2).all(|w| w[0] < w[1]) && types.contains(&primary));
        let id = pool_len(&self.parent);
        assert!(id != NONE, "document too large");
        match parent {
            None => assert_eq!(id, 0, "only the root has no parent"),
            Some(p) => self.link(p.0, id),
        }
        self.parent.push(parent.map_or(NONE, |p| p.0));
        self.primary.push(primary);
        self.types.push(Span { start: pool_len(&self.type_pool), len: types.len() as u32 });
        self.type_pool.extend_from_slice(types);
        if types.len() > 1 {
            self.multi_typed.push(DataNodeId(id));
        }
        let start = pool_len(&self.attr_pool);
        self.attr_pool.extend(attrs);
        self.attrs.push(Span { start, len: pool_len(&self.attr_pool) - start });
        self.first_child.push(NONE);
        self.next_sibling.push(NONE);
        self.last_child.push(NONE);
        self.end.push(OPEN);
        if id.is_multiple_of(64) {
            self.first_children.push(0);
        }
        if parent.is_some_and(|p| p.0 == id - 1) {
            self.first_children[id as usize / 64] |= 1 << (id % 64);
        }
        DataNodeId(id)
    }

    /// Hang the node `id`, about to be pushed, under `p` as its last child,
    /// and keep track of whether ids are still pre-order ranks. They are iff
    /// `p` is on the path from the root to the last node; that path's nodes
    /// below `p` are then complete. Each node leaves the path once, so this
    /// is amortized O(1).
    fn link(&mut self, p: u32, id: u32) {
        if self.pre_order {
            if self.end[p as usize] == OPEN {
                let mut x = id - 1;
                while x != p {
                    self.end[x as usize] = id - 1;
                    x = self.parent[x as usize];
                }
            } else {
                self.pre_order = false;
            }
        }
        match self.last_child[p as usize] {
            NONE => self.first_child[p as usize] = id,
            last => self.next_sibling[last as usize] = id,
        }
        self.last_child[p as usize] = id;
    }

    /// The root id (always `DataNodeId(0)`).
    #[inline]
    pub fn root(&self) -> DataNodeId {
        DataNodeId(0)
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the document is empty (never true for constructed docs).
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The element name / primary object class of `id`.
    #[inline]
    pub fn primary(&self, id: DataNodeId) -> TypeId {
        self.primary[id.index()]
    }

    /// All types of `id`, ascending (always contains its primary type).
    #[inline]
    pub fn types(&self, id: DataNodeId) -> &[TypeId] {
        &self.type_pool[self.types[id.index()].range()]
    }

    /// Every node's primary type, in id order.
    pub fn primary_column(&self) -> &[TypeId] {
        &self.primary
    }

    /// The nodes with more than one type, ascending: with
    /// [`Document::primary_column`], these nodes' type sets list every
    /// node's types.
    pub fn multi_typed(&self) -> &[DataNodeId] {
        &self.multi_typed
    }

    /// Whether `id` carries type `ty`.
    #[inline]
    pub fn has_type(&self, id: DataNodeId, ty: TypeId) -> bool {
        self.types(id).contains(&ty)
    }

    /// Whether `id` carries every type of `tys`.
    #[inline]
    pub fn has_types(&self, id: DataNodeId, tys: &TypeSet) -> bool {
        let have = self.types(id);
        tys.iter().all(|t| have.contains(&t))
    }

    /// The parent of `id`; `None` for the root.
    #[inline]
    pub fn parent(&self, id: DataNodeId) -> Option<DataNodeId> {
        match self.parent[id.index()] {
            NONE => None,
            p => Some(DataNodeId(p)),
        }
    }

    /// The children of `id`, in document order.
    pub fn children(&self, id: DataNodeId) -> impl Iterator<Item = DataNodeId> + '_ {
        std::iter::successors(self.first_child(id), |&c| self.next_sibling(c))
    }

    /// The first child of `id`, if any.
    pub(crate) fn first_child(&self, id: DataNodeId) -> Option<DataNodeId> {
        let c = self.first_child[id.index()];
        (c != NONE).then_some(DataNodeId(c))
    }

    /// The sibling after `id`, if any.
    pub(crate) fn next_sibling(&self, id: DataNodeId) -> Option<DataNodeId> {
        let s = self.next_sibling[id.index()];
        (s != NONE).then_some(DataNodeId(s))
    }

    /// The attribute values of `id` (at most one entry per name).
    #[inline]
    pub fn attrs(&self, id: DataNodeId) -> &[(TypeId, Value)] {
        &self.attr_pool[self.attrs[id.index()].range()]
    }

    /// The value of attribute `name` on `id`, if present.
    pub fn attr(&self, id: DataNodeId, name: TypeId) -> Option<&Value> {
        self.attrs(id).iter().find(|(a, _)| *a == name).map(|(_, v)| v)
    }

    /// Append a child of type `ty` under `parent`.
    pub fn add_child(&mut self, parent: DataNodeId, ty: TypeId) -> DataNodeId {
        self.push_node(Some(parent), ty, &[ty], [])
    }

    /// Add an extra type to a node (LDAP multi-typing / repairs).
    pub fn add_type(&mut self, id: DataNodeId, ty: TypeId) {
        let Err(at) = self.types(id).binary_search(&ty) else {
            return;
        };
        let mut span = self.types[id.index()];
        if span.len == 1 {
            if let Err(pos) = self.multi_typed.binary_search(&id) {
                self.multi_typed.insert(pos, id);
            }
        }
        if !span.at_tail(self.type_pool.len()) {
            // Move the set to the end of the pool, where it can grow.
            let start = pool_len(&self.type_pool);
            self.type_pool.extend_from_within(span.range());
            span.start = start;
        }
        self.type_pool.insert(span.start as usize + at, ty);
        span.len += 1;
        self.types[id.index()] = span;
    }

    /// Set an attribute value on a node, replacing any earlier value of
    /// the same name.
    pub fn set_attr(&mut self, id: DataNodeId, name: TypeId, value: Value) {
        let mut span = self.attrs[id.index()];
        if let Some((_, old)) = self.attr_pool[span.range()].iter_mut().find(|(a, _)| *a == name) {
            *old = value;
            return;
        }
        if !span.at_tail(self.attr_pool.len()) {
            // Move the attributes to the end of the pool, where they can grow.
            let start = pool_len(&self.attr_pool);
            for k in span.range() {
                let moved = std::mem::replace(&mut self.attr_pool[k], (name, Value::Int(0)));
                self.attr_pool.push(moved);
            }
            span.start = start;
        }
        self.attr_pool.push((name, value));
        span.len += 1;
        self.attrs[id.index()] = span;
    }

    /// Iterate over all node ids in ascending order.
    pub fn ids(&self) -> impl DoubleEndedIterator<Item = DataNodeId> {
        (0..self.len() as u32).map(DataNodeId)
    }

    /// Whether every id is its node's pre-order (document-order) rank. The
    /// XML readers and [`Document::to_pre_order`] always yield such a
    /// document, and [`Document::add_child`] keeps it one while nodes are
    /// appended in document order.
    #[inline]
    pub fn is_pre_order(&self) -> bool {
        self.pre_order
    }

    /// The last node of `id`'s subtree in a pre-ordered document: the
    /// subtree is exactly the ids `id ..= subtree_end(id)`.
    #[inline]
    pub fn subtree_end(&self, id: DataNodeId) -> DataNodeId {
        debug_assert!(self.pre_order, "subtree intervals need pre-order ids");
        DataNodeId(self.end[id.index()].min(self.len() as u32 - 1))
    }

    /// The nodes whose parent is the node just before them, one bit per
    /// node, 64 to a word: in a pre-ordered document, every node's first
    /// child.
    #[inline]
    pub fn first_children(&self) -> &[u64] {
        &self.first_children
    }

    /// Node ids in pre-order (document order).
    pub fn pre_order(&self) -> Vec<DataNodeId> {
        if self.pre_order {
            return self.ids().collect();
        }
        let mut out = Vec::with_capacity(self.len());
        // Pushing a node's next sibling before its first child visits the
        // whole subtree before the sibling.
        let mut stack = vec![0u32];
        while let Some(x) = stack.pop() {
            out.push(DataNodeId(x));
            for link in [self.next_sibling[x as usize], self.first_child[x as usize]] {
                if link != NONE {
                    stack.push(link);
                }
            }
        }
        out
    }

    /// This document renumbered in pre-order, and for each new id the id
    /// the node had here.
    pub fn to_pre_order(&self) -> (Document, Vec<DataNodeId>) {
        let order = self.pre_order();
        let mut new_id = vec![NONE; self.len()];
        for (rank, old) in (0u32..).zip(&order) {
            new_id[old.index()] = rank;
        }
        let mut out = Document::empty();
        for &old in &order {
            let parent = self.parent(old).map(|p| DataNodeId(new_id[p.index()]));
            out.push_node(parent, self.primary(old), self.types(old), self.attrs(old).to_vec());
        }
        debug_assert!(out.pre_order);
        (out, order)
    }

    /// Whether `anc` is a **proper** ancestor of `desc`: an interval test
    /// on a pre-ordered document, a parent walk otherwise.
    pub fn is_proper_ancestor(&self, anc: DataNodeId, desc: DataNodeId) -> bool {
        if self.pre_order {
            return anc < desc && desc <= self.subtree_end(anc);
        }
        let mut cur = self.parent(desc);
        while let Some(p) = cur {
            if p == anc {
                return true;
            }
            cur = self.parent(p);
        }
        false
    }

    /// Depth of `id` (root = 0).
    pub fn depth(&self, id: DataNodeId) -> usize {
        let mut d = 0;
        let mut cur = self.parent(id);
        while let Some(p) = cur {
            d += 1;
            cur = self.parent(p);
        }
        d
    }

    /// Check structural invariants: one tree reachable from the root, child
    /// links that agree with the parent column, ascending type sets holding
    /// the primary type, a first-children column that agrees with the
    /// parent column and, for a pre-ordered document, ids that are
    /// pre-order ranks with correct subtree ends.
    pub fn validate(&self) -> Result<()> {
        let bad = |m: String| Err(Error::InvalidDocument(m));
        let n = self.len();
        if n == 0 {
            return bad("empty document".into());
        }
        if self.parent[0] != NONE {
            return bad("root has a parent".into());
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0u32];
        let mut rank = 0u32;
        while let Some(x) = stack.pop() {
            let id = DataNodeId(x);
            if std::mem::replace(&mut seen[x as usize], true) {
                return bad(format!("{id} reachable twice"));
            }
            if self.pre_order && x != rank {
                return bad(format!("{id} is not at its pre-order rank {rank}"));
            }
            rank += 1;
            let types = self.types(id);
            if !types.contains(&self.primary(id)) {
                return bad(format!("{id}: type set missing primary type"));
            }
            if !types.windows(2).all(|w| w[0] < w[1]) {
                return bad(format!("{id}: type set not ascending"));
            }
            let (from, mut c, mut last) = (stack.len(), self.first_child[x as usize], NONE);
            while c != NONE {
                if c as usize >= n || stack.len() - from >= n {
                    return bad(format!("{id}: broken child links"));
                }
                if self.parent[c as usize] != x {
                    return bad(format!("child d{c} of {id} has mismatched parent"));
                }
                stack.push(c);
                last = c;
                c = self.next_sibling[c as usize];
            }
            if self.last_child[x as usize] != last {
                return bad(format!("{id}: last-child link is stale"));
            }
            stack[from..].reverse();
        }
        if seen.iter().any(|&s| !s) {
            return bad("unreachable nodes".into());
        }
        if !self.ids().filter(|&id| self.types(id).len() > 1).eq(self.multi_typed.iter().copied()) {
            return bad("the list of multi-typed nodes is stale".into());
        }
        if self.first_children.len() != n.div_ceil(64) {
            return bad("the first-children column has the wrong length".into());
        }
        for c in 0..self.first_children.len() * 64 {
            let set = self.first_children[c / 64] & (1 << (c % 64)) != 0;
            if set != (c > 0 && c < n && self.parent[c] == c as u32 - 1) {
                return bad(format!("d{c}: first-children bit is wrong"));
            }
        }
        if self.pre_order {
            for id in self.ids().rev() {
                let want = match self.last_child[id.index()] {
                    NONE => id,
                    last => self.subtree_end(DataNodeId(last)),
                };
                if self.subtree_end(id) != want {
                    return bad(format!("{id}: subtree end is wrong"));
                }
            }
        }
        Ok(())
    }
}

/// Node-by-node equality: the same ids with the same parent, types,
/// attributes and children. Pool layout does not matter.
impl PartialEq for Document {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self.ids().all(|id| {
                self.parent[id.index()] == other.parent[id.index()]
                    && self.primary(id) == other.primary(id)
                    && self.types(id) == other.types(id)
                    && self.attrs(id) == other.attrs(id)
                    && self.children(id).eq(other.children(id))
            })
    }
}

impl Eq for Document {}

/// A forest of documents — the paper's database model ("information is
/// represented as a forest of trees").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Forest {
    /// The member trees.
    pub trees: Vec<Document>,
}

/// An empty forest is fine (unlike an empty [`Document`]), so `Forest`
/// keeps a `Default` — manual, since `Document` no longer derives one.
impl Default for Forest {
    fn default() -> Self {
        Forest { trees: Vec::new() }
    }
}

impl Forest {
    /// An empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// A forest of one tree.
    pub fn single(doc: Document) -> Self {
        Forest { trees: vec![doc] }
    }

    /// Push a tree.
    pub fn push(&mut self, doc: Document) {
        self.trees.push(doc);
    }

    /// Total node count across trees.
    pub fn total_nodes(&self) -> usize {
        self.trees.iter().map(Document::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> (Document, Vec<DataNodeId>) {
        // a(b(c), d)
        let mut d = Document::new(TypeId(0));
        let b = d.add_child(d.root(), TypeId(1));
        let c = d.add_child(b, TypeId(2));
        let e = d.add_child(d.root(), TypeId(3));
        (d, vec![DataNodeId(0), b, c, e])
    }

    /// a(b, c(d)) grown breadth-first: ids 0:a 1:b 2:c 3:d, but d is
    /// appended under c after b was closed — still pre-order. Then e under
    /// b breaks it.
    fn out_of_order() -> Document {
        let mut d = Document::new(TypeId(0));
        let b = d.add_child(d.root(), TypeId(1));
        let c = d.add_child(d.root(), TypeId(2));
        d.add_child(c, TypeId(3));
        assert!(d.is_pre_order());
        d.add_child(b, TypeId(4));
        d
    }

    #[test]
    fn set_attr_overwrites_an_existing_value() {
        let (mut d, ids) = doc();
        let level = TypeId(9);
        d.set_attr(ids[1], level, Value::Int(1));
        d.set_attr(ids[1], level, Value::Int(3));
        assert_eq!(d.attr(ids[1], level), Some(&Value::Int(3)));
        assert_eq!(d.attrs(ids[1]).len(), 1);
    }

    #[test]
    fn attributes_and_types_grow_on_any_node_in_any_order() {
        let (mut d, ids) = doc();
        let (x, y) = (TypeId(8), TypeId(9));
        d.set_attr(ids[1], x, Value::Int(1));
        d.set_attr(ids[2], x, Value::Int(2));
        d.set_attr(ids[1], y, Value::Str("s".into()));
        d.add_type(ids[1], TypeId(7));
        d.add_type(ids[2], TypeId(0));
        d.add_type(ids[1], TypeId(5));
        assert_eq!(d.attrs(ids[1]), &[(x, Value::Int(1)), (y, Value::Str("s".into()))]);
        assert_eq!(d.attrs(ids[2]), &[(x, Value::Int(2))]);
        assert!(d.attrs(ids[3]).is_empty());
        assert_eq!(d.types(ids[1]), &[TypeId(1), TypeId(5), TypeId(7)]);
        assert_eq!(d.types(ids[2]), &[TypeId(0), TypeId(2)]);
        d.validate().unwrap();
    }

    #[test]
    fn build_and_validate() {
        let (d, ids) = doc();
        assert_eq!(d.len(), 4);
        d.validate().unwrap();
        assert_eq!(d.pre_order(), vec![ids[0], ids[1], ids[2], ids[3]]);
        assert_eq!(d.children(ids[0]).collect::<Vec<_>>(), [ids[1], ids[3]]);
    }

    #[test]
    fn ancestorship_and_depth() {
        let (d, ids) = doc();
        assert!(d.is_proper_ancestor(ids[0], ids[2]));
        assert!(d.is_proper_ancestor(ids[1], ids[2]));
        assert!(!d.is_proper_ancestor(ids[2], ids[2]));
        assert!(!d.is_proper_ancestor(ids[3], ids[2]));
        assert_eq!(d.depth(ids[2]), 2);
        assert_eq!(d.depth(ids[0]), 0);
    }

    #[test]
    fn appending_in_document_order_keeps_subtree_intervals() {
        let (d, ids) = doc();
        assert!(d.is_pre_order());
        let ends: Vec<_> = ids.iter().map(|&u| d.subtree_end(u)).collect();
        assert_eq!(ends, [ids[3], ids[2], ids[2], ids[3]]);
        let mut chain = Document::new(TypeId(0));
        let mut cur = chain.root();
        for _ in 0..100_000 {
            cur = chain.add_child(cur, TypeId(1));
        }
        assert!(chain.is_pre_order());
        assert_eq!(chain.subtree_end(chain.root()), cur);
        assert!(chain.is_proper_ancestor(chain.root(), cur));
        chain.validate().unwrap();
    }

    #[test]
    fn appending_out_of_document_order_is_tracked_and_renumbered() {
        let d = out_of_order();
        assert!(!d.is_pre_order());
        d.validate().unwrap();
        let order = d.pre_order();
        assert_eq!(order.iter().map(|u| u.0).collect::<Vec<_>>(), [0, 1, 4, 2, 3]);
        let (pre, old) = d.to_pre_order();
        assert!(pre.is_pre_order());
        pre.validate().unwrap();
        assert_eq!(old, order);
        for u in pre.ids() {
            let o = old[u.index()];
            assert_eq!(pre.types(u), d.types(o));
            assert_eq!(pre.parent(u).map(|p| old[p.index()]), d.parent(o));
            let kids: Vec<_> = pre.children(u).map(|c| old[c.index()]).collect();
            assert_eq!(kids, d.children(o).collect::<Vec<_>>());
            for w in pre.ids() {
                let walk = d.is_proper_ancestor(o, old[w.index()]);
                assert_eq!(pre.is_proper_ancestor(u, w), walk, "{u} {w}");
            }
        }
    }

    #[test]
    fn equality_ignores_pool_layout() {
        let (mut a, ids) = doc();
        let (mut b, _) = doc();
        a.add_type(ids[1], TypeId(9));
        a.add_type(ids[3], TypeId(8));
        b.add_type(ids[3], TypeId(8));
        b.add_type(ids[1], TypeId(9));
        assert_eq!(a, b);
        b.add_type(ids[2], TypeId(9));
        assert_ne!(a, b);
    }

    #[test]
    fn add_type_multi_types_a_node() {
        let (mut d, ids) = doc();
        d.add_type(ids[1], TypeId(9));
        assert!(d.has_type(ids[1], TypeId(9)));
        assert!(d.has_type(ids[1], TypeId(1)));
        d.validate().unwrap();
    }

    #[test]
    fn forest_counts() {
        let (d, _) = doc();
        let mut f = Forest::single(d.clone());
        f.push(d);
        assert_eq!(f.trees.len(), 2);
        assert_eq!(f.total_nodes(), 8);
    }

    #[test]
    fn every_public_constructor_yields_a_valid_rooted_document() {
        // `Document` has no `Default` (a zero-node doc would panic in
        // `root()` and every accessor); each remaining way to obtain one
        // must give a tree whose root is immediately usable.
        let d = Document::new(TypeId(7));
        assert_eq!(d.len(), 1);
        assert!(!d.is_empty());
        assert_eq!(d.primary(d.root()), TypeId(7));
        d.validate().unwrap();

        let mut grown = Document::new(TypeId(0));
        grown.add_child(grown.root(), TypeId(1));
        grown.validate().unwrap();

        let f = Forest::default();
        assert!(f.trees.is_empty());
        let f = Forest::new();
        assert_eq!(f.total_nodes(), 0);
        let f = Forest::single(d.clone());
        f.trees.iter().for_each(|t| t.validate().unwrap());
    }

    #[test]
    fn validate_catches_corruption() {
        let (mut d, ids) = doc();
        d.parent[ids[2].index()] = ids[3].0; // break parent link
        assert!(d.validate().is_err());
        let (mut d, ids) = doc();
        d.end[ids[1].index()] = ids[1].0; // b's subtree holds c
        assert!(d.validate().is_err());
        let (mut d, ids) = doc();
        d.first_children[0] ^= 1 << ids[3].0; // d's parent is a, not c
        assert!(d.validate().is_err());
        let (mut d, ids) = doc();
        d.first_children[0] ^= 1 << ids[2].0; // c's parent is b
        assert!(d.validate().is_err());
    }
}
