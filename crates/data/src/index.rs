//! Pre/post/level node index over a document.
//!
//! The classic interval encoding: node `a` is a proper ancestor of node `d`
//! iff `pre(a) < pre(d) && post(d) < post(a)`. The index also keeps, per
//! type, the list of nodes carrying that type (in pre-order), which is what
//! the pattern-matching engine iterates over.

use crate::document::{DataNodeId, Document};
use tpq_base::{FxHashMap, TypeId};

/// Immutable index over one [`Document`]. Build once, query many times.
#[derive(Debug, Clone)]
pub struct DocIndex {
    pre: Vec<u32>,
    post: Vec<u32>,
    level: Vec<u32>,
    by_type: FxHashMap<TypeId, Vec<DataNodeId>>,
}

impl DocIndex {
    /// Build the index in one DFS pass.
    pub fn build(doc: &Document) -> Self {
        let n = doc.len();
        let mut pre = vec![0u32; n];
        let mut post = vec![0u32; n];
        let mut level = vec![0u32; n];
        let mut by_type: FxHashMap<TypeId, Vec<DataNodeId>> = FxHashMap::default();
        // The per-type lists are gathered in a table indexed by type id,
        // because a hash lookup per node type costs a fifth of the build.
        // Interned ids are small. The table grows only up to the document's
        // size, so a stray huge id goes to the map instead.
        let mut dense: Vec<Vec<DataNodeId>> = Vec::new();
        let dense_limit = n + 64;
        let mut pre_counter = 0u32;
        let mut post_counter = 0u32;
        // Iterative DFS with an explicit enter/exit stack to avoid recursion
        // depth limits on deep documents.
        enum Step {
            Enter(DataNodeId, u32),
            Exit(DataNodeId),
        }
        let mut stack = vec![Step::Enter(doc.root(), 0)];
        while let Some(step) = stack.pop() {
            match step {
                Step::Enter(id, lvl) => {
                    pre[id.index()] = pre_counter;
                    pre_counter += 1;
                    level[id.index()] = lvl;
                    for t in doc.node(id).types.iter() {
                        let i = t.0 as usize;
                        if i >= dense_limit {
                            by_type.entry(t).or_default().push(id);
                            continue;
                        }
                        if i >= dense.len() {
                            dense.resize_with(i + 1, Vec::new);
                        }
                        dense[i].push(id);
                    }
                    stack.push(Step::Exit(id));
                    for &c in doc.node(id).children.iter().rev() {
                        stack.push(Step::Enter(c, lvl + 1));
                    }
                }
                Step::Exit(id) => {
                    post[id.index()] = post_counter;
                    post_counter += 1;
                }
            }
        }
        by_type.extend(
            (0u32..)
                .zip(dense)
                .filter(|(_, list)| !list.is_empty())
                .map(|(t, list)| (TypeId(t), list)),
        );
        DocIndex { pre, post, level, by_type }
    }

    /// Pre-order rank of `id`.
    #[inline]
    pub fn pre(&self, id: DataNodeId) -> u32 {
        self.pre[id.index()]
    }

    /// Post-order rank of `id`.
    #[inline]
    pub fn post(&self, id: DataNodeId) -> u32 {
        self.post[id.index()]
    }

    /// Depth of `id` (root = 0).
    #[inline]
    pub fn level(&self, id: DataNodeId) -> u32 {
        self.level[id.index()]
    }

    /// Number of proper descendants of `id`. They are exactly the nodes
    /// with pre ranks `pre(id) + 1 ..= pre(id) + descendants(id)`.
    #[inline]
    pub fn descendants(&self, id: DataNodeId) -> u32 {
        // post = pre - level + descendants (ranks start at 0).
        self.post[id.index()] + self.level[id.index()] - self.pre[id.index()]
    }

    /// O(1): is `anc` a **proper** ancestor of `desc`?
    #[inline]
    pub fn is_proper_ancestor(&self, anc: DataNodeId, desc: DataNodeId) -> bool {
        self.pre[anc.index()] < self.pre[desc.index()]
            && self.post[desc.index()] < self.post[anc.index()]
    }

    /// O(1): is `parent` the parent of `child`? (ancestorship plus a level
    /// difference of one).
    #[inline]
    pub fn is_parent(&self, parent: DataNodeId, child: DataNodeId) -> bool {
        self.level[child.index()] == self.level[parent.index()] + 1
            && self.is_proper_ancestor(parent, child)
    }

    /// Nodes carrying type `ty`, in pre-order. Empty slice if none.
    pub fn nodes_of_type(&self, ty: TypeId) -> &[DataNodeId] {
        self.by_type.get(&ty).map_or(&[], Vec::as_slice)
    }

    /// Distinct types present in the document.
    pub fn types(&self) -> impl Iterator<Item = TypeId> + '_ {
        self.by_type.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> (Document, Vec<DataNodeId>) {
        // 0:a ( 1:b ( 2:c ), 3:b )
        let mut d = Document::new(TypeId(0));
        let b1 = d.add_child(d.root(), TypeId(1));
        let c = d.add_child(b1, TypeId(2));
        let b2 = d.add_child(d.root(), TypeId(1));
        (d, vec![DataNodeId(0), b1, c, b2])
    }

    #[test]
    fn ancestor_checks_match_parent_walk() {
        let (d, ids) = doc();
        let idx = DocIndex::build(&d);
        for &a in &ids {
            for &b in &ids {
                assert_eq!(
                    idx.is_proper_ancestor(a, b),
                    d.is_proper_ancestor(a, b),
                    "mismatch for {a},{b}"
                );
            }
        }
    }

    #[test]
    fn parent_check() {
        let (d, ids) = doc();
        let idx = DocIndex::build(&d);
        assert!(idx.is_parent(ids[0], ids[1]));
        assert!(idx.is_parent(ids[1], ids[2]));
        assert!(!idx.is_parent(ids[0], ids[2]), "grandchild is not a child");
        assert!(!idx.is_parent(ids[2], ids[1]));
    }

    #[test]
    fn type_lists_in_pre_order() {
        let (d, ids) = doc();
        let idx = DocIndex::build(&d);
        assert_eq!(idx.nodes_of_type(TypeId(1)), &[ids[1], ids[3]]);
        assert_eq!(idx.nodes_of_type(TypeId(2)), &[ids[2]]);
        assert!(idx.nodes_of_type(TypeId(9)).is_empty());
    }

    #[test]
    fn multi_typed_nodes_appear_in_every_type_list() {
        let (mut d, ids) = doc();
        d.add_type(ids[3], TypeId(2));
        let idx = DocIndex::build(&d);
        assert_eq!(idx.nodes_of_type(TypeId(2)), &[ids[2], ids[3]]);
    }

    #[test]
    fn huge_type_ids_are_indexed_too() {
        let (mut d, ids) = doc();
        let huge = TypeId(u32::MAX - 1);
        d.add_type(ids[2], huge);
        d.add_type(ids[3], huge);
        let idx = DocIndex::build(&d);
        assert_eq!(idx.nodes_of_type(huge), &[ids[2], ids[3]]);
        assert_eq!(idx.nodes_of_type(TypeId(1)), &[ids[1], ids[3]]);
        assert!(idx.nodes_of_type(TypeId(7)).is_empty());
        let mut types: Vec<TypeId> = idx.types().collect();
        types.sort_unstable();
        assert_eq!(types, [TypeId(0), TypeId(1), TypeId(2), huge]);
    }

    #[test]
    fn descendant_counts_match_the_document() {
        let (d, ids) = doc();
        let idx = DocIndex::build(&d);
        for &u in &ids {
            let below = ids.iter().filter(|&&w| d.is_proper_ancestor(u, w)).count();
            assert_eq!(idx.descendants(u) as usize, below, "descendants of {u}");
        }
    }

    #[test]
    fn levels() {
        let (d, ids) = doc();
        let idx = DocIndex::build(&d);
        assert_eq!(idx.level(ids[0]), 0);
        assert_eq!(idx.level(ids[1]), 1);
        assert_eq!(idx.level(ids[2]), 2);
    }

    #[test]
    fn deep_document_does_not_overflow_stack() {
        let mut d = Document::new(TypeId(0));
        let mut cur = d.root();
        for _ in 0..100_000 {
            cur = d.add_child(cur, TypeId(1));
        }
        let idx = DocIndex::build(&d);
        assert!(idx.is_proper_ancestor(d.root(), cur));
    }
}
