//! Arena-based documents and forests.

use std::fmt;
use tpq_base::{Error, Result, TypeId, TypeSet, Value};

/// Index of a node inside a [`Document`] arena.
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

/// One node of a document. Data nodes carry a *set* of types (Section 2.2:
/// an `employee` entry is also a `person`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataNode {
    /// The element name / primary object class.
    pub primary: TypeId,
    /// All types of the node (always contains `primary`).
    pub types: TypeSet,
    /// Parent link; `None` for the root.
    pub parent: Option<DataNodeId>,
    /// Children in document order.
    pub children: Vec<DataNodeId>,
    /// Attribute values (`name id -> value`; at most one entry per name).
    pub attrs: Vec<(TypeId, Value)>,
}

impl DataNode {
    /// The value of attribute `name`, if present.
    pub fn attr(&self, name: TypeId) -> Option<&Value> {
        self.attrs.iter().find(|(a, _)| *a == name).map(|(_, v)| v)
    }
}

/// A single rooted data tree. Unlike patterns, documents are append-only —
/// repairs (making a document satisfy constraints) only add nodes or types.
///
/// There is deliberately no `Default` impl: a zero-node document has no
/// root, so every accessor would panic. Construct via [`Document::new`]
/// (or the parsers/generators), all of which yield a rooted tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    nodes: Vec<DataNode>,
}

impl Document {
    /// A single-node document of type `ty`.
    pub fn new(ty: TypeId) -> Self {
        Document {
            nodes: vec![DataNode {
                primary: ty,
                types: TypeSet::singleton(ty),
                parent: None,
                children: Vec::new(),
                attrs: Vec::new(),
            }],
        }
    }

    /// The root id (always `DataNodeId(0)`).
    #[inline]
    pub fn root(&self) -> DataNodeId {
        DataNodeId(0)
    }

    /// Borrow a node.
    #[inline]
    pub fn node(&self, id: DataNodeId) -> &DataNode {
        &self.nodes[id.index()]
    }

    /// Mutably borrow a node.
    #[inline]
    pub fn node_mut(&mut self, id: DataNodeId) -> &mut DataNode {
        &mut self.nodes[id.index()]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the document is empty (never true for constructed docs).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Append a child of type `ty` under `parent`.
    pub fn add_child(&mut self, parent: DataNodeId, ty: TypeId) -> DataNodeId {
        let id = DataNodeId(u32::try_from(self.nodes.len()).expect("document too large"));
        self.nodes.push(DataNode {
            primary: ty,
            types: TypeSet::singleton(ty),
            parent: Some(parent),
            children: Vec::new(),
            attrs: Vec::new(),
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Add an extra type to a node (LDAP multi-typing / repairs).
    pub fn add_type(&mut self, id: DataNodeId, ty: TypeId) {
        self.nodes[id.index()].types.insert(ty);
    }

    /// Set an attribute value on a node, replacing any earlier value of
    /// the same name.
    pub fn set_attr(&mut self, id: DataNodeId, name: TypeId, value: Value) {
        let attrs = &mut self.nodes[id.index()].attrs;
        match attrs.iter_mut().find(|(a, _)| *a == name) {
            Some((_, old)) => *old = value,
            None => attrs.push((name, value)),
        }
    }

    /// Iterate over all node ids in arena (pre-insertion) order.
    pub fn ids(&self) -> impl Iterator<Item = DataNodeId> {
        (0..self.nodes.len() as u32).map(DataNodeId)
    }

    /// Node ids in pre-order (document order).
    pub fn pre_order(&self) -> Vec<DataNodeId> {
        let mut out = Vec::with_capacity(self.len());
        let mut stack = vec![self.root()];
        while let Some(id) = stack.pop() {
            out.push(id);
            for &c in self.node(id).children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Whether `anc` is a **proper** ancestor of `desc` (parent walk; use a
    /// [`DocIndex`](crate::DocIndex) for O(1) checks in hot paths).
    pub fn is_proper_ancestor(&self, anc: DataNodeId, desc: DataNodeId) -> bool {
        let mut cur = self.node(desc).parent;
        while let Some(p) = cur {
            if p == anc {
                return true;
            }
            cur = self.node(p).parent;
        }
        false
    }

    /// Depth of `id` (root = 0).
    pub fn depth(&self, id: DataNodeId) -> usize {
        let mut d = 0;
        let mut cur = self.node(id).parent;
        while let Some(p) = cur {
            d += 1;
            cur = self.node(p).parent;
        }
        d
    }

    /// Check structural invariants.
    pub fn validate(&self) -> Result<()> {
        if self.nodes.is_empty() {
            return Err(Error::InvalidDocument("empty document".into()));
        }
        if self.nodes[0].parent.is_some() {
            return Err(Error::InvalidDocument("root has a parent".into()));
        }
        let mut seen = vec![false; self.len()];
        for id in self.pre_order() {
            if seen[id.index()] {
                return Err(Error::InvalidDocument(format!("{id} reachable twice")));
            }
            seen[id.index()] = true;
            let n = self.node(id);
            if !n.types.contains(n.primary) {
                return Err(Error::InvalidDocument(format!("{id}: type set missing primary type")));
            }
            for &c in &n.children {
                if self.node(c).parent != Some(id) {
                    return Err(Error::InvalidDocument(format!(
                        "child {c} of {id} has mismatched parent"
                    )));
                }
            }
        }
        if seen.iter().any(|&s| !s) {
            return Err(Error::InvalidDocument("unreachable nodes".into()));
        }
        Ok(())
    }
}

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

    #[test]
    fn set_attr_overwrites_an_existing_value() {
        let (mut d, ids) = doc();
        let level = TypeId(9);
        d.set_attr(ids[1], level, Value::Int(1));
        d.set_attr(ids[1], level, Value::Int(3));
        assert_eq!(d.node(ids[1]).attr(level), Some(&Value::Int(3)));
        assert_eq!(d.node(ids[1]).attrs.len(), 1);
    }

    #[test]
    fn build_and_validate() {
        let (d, ids) = doc();
        assert_eq!(d.len(), 4);
        d.validate().unwrap();
        assert_eq!(d.pre_order(), vec![ids[0], ids[1], ids[2], ids[3]]);
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
    fn add_type_multi_types_a_node() {
        let (mut d, ids) = doc();
        d.add_type(ids[1], TypeId(9));
        assert!(d.node(ids[1]).types.contains(TypeId(9)));
        assert!(d.node(ids[1]).types.contains(TypeId(1)));
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
        // `root()`/`node()`); each remaining way to obtain one must give a
        // tree whose root is immediately usable.
        let d = Document::new(TypeId(7));
        assert_eq!(d.len(), 1);
        assert!(!d.is_empty());
        assert_eq!(d.node(d.root()).primary, TypeId(7));
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
        d.node_mut(ids[2]).parent = Some(ids[3]); // break parent link
        assert!(d.validate().is_err());
    }
}
