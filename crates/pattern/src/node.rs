//! Pattern node and edge primitives.

use std::fmt;
use tpq_base::{TypeId, TypeSet};

/// Index of a node inside a [`TreePattern`](crate::TreePattern) arena.
///
/// Ids are stable across leaf removal (tombstones) but are invalidated by
/// [`TreePattern::compact`](crate::TreePattern::compact).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a usize, for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The two edge kinds of a tree pattern (Section 3: single edges are *child*
/// edges, double edges are *descendant* edges).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeKind {
    /// `/` — the child must be directly contained in the parent.
    Child,
    /// `//` — the child must be a proper descendant of the parent.
    Descendant,
}

impl EdgeKind {
    /// DSL separator for this edge kind.
    pub fn separator(self) -> &'static str {
        match self {
            EdgeKind::Child => "/",
            EdgeKind::Descendant => "//",
        }
    }
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.separator())
    }
}

/// The "no node" value of the child and sibling links.
pub(crate) const NIL: u32 = u32::MAX;

/// One node of a tree pattern.
///
/// `primary` is the type the query was written with; `types` additionally
/// holds co-occurrence types merged in by the chase (Section 5.2) and always
/// contains `primary`. `temporary` marks nodes added by augmentation — they
/// are never candidates for removal and are stripped after ACIM.
///
/// A node owns no heap memory while its type set fits inline: its
/// children are first-child / next-sibling / last-child links into the
/// arena, read through [`TreePattern::children`](crate::TreePattern::children),
/// and its conditions sit in the pattern's side table, read through
/// [`TreePattern::conditions`](crate::TreePattern::conditions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternNode {
    /// The query type of this node.
    pub primary: TypeId,
    /// All types associated with the node (`⊇ {primary}` while alive).
    pub types: TypeSet,
    /// Parent link; `None` for the root.
    pub parent: Option<NodeId>,
    /// Kind of the edge from the parent (meaningless for the root, kept as
    /// [`EdgeKind::Child`]).
    pub edge: EdgeKind,
    /// Whether this node carries the output marker `*`.
    pub output: bool,
    /// Whether this node was added by augmentation (temporary).
    pub temporary: bool,
    /// Tombstone flag; dead nodes are skipped by every traversal.
    pub alive: bool,
    /// The first alive child, or [`NIL`].
    pub(crate) first_child: u32,
    /// The last alive child, or [`NIL`]; appends go after it.
    pub(crate) last_child: u32,
    /// The parent's next alive child after this one, or [`NIL`].
    pub(crate) next_sibling: u32,
}

impl PatternNode {
    /// A fresh, alive, non-temporary node of type `ty`.
    pub fn new(ty: TypeId, parent: Option<NodeId>, edge: EdgeKind) -> Self {
        PatternNode {
            primary: ty,
            types: TypeSet::singleton(ty),
            parent,
            edge,
            output: false,
            temporary: false,
            alive: true,
            first_child: NIL,
            last_child: NIL,
            next_sibling: NIL,
        }
    }

    /// Whether the node currently has no children.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.first_child == NIL
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_separators() {
        assert_eq!(EdgeKind::Child.separator(), "/");
        assert_eq!(EdgeKind::Descendant.separator(), "//");
        assert_eq!(EdgeKind::Descendant.to_string(), "//");
    }

    #[test]
    fn new_node_contains_primary_type() {
        let n = PatternNode::new(TypeId(7), None, EdgeKind::Child);
        assert!(n.types.contains(TypeId(7)));
        assert!(n.alive);
        assert!(!n.temporary);
        assert!(n.is_leaf());
    }

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(NodeId(3).index(), 3);
    }
}
