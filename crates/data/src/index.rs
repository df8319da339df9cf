//! Per-type node lists over a document.
//!
//! In a pre-ordered [`Document`] a node's id is its pre-order rank and its
//! subtree is an id interval, so ancestorship needs no index at all.
//! [`DocIndex::build`] lists, per type, the nodes carrying it in id order
//! (document order on a pre-ordered document), with one counting sort over
//! the document's type column. The matcher in `tpq-match` no longer reads
//! these lists: it turns the same column into one bit row per type of the
//! pattern on every call.

use crate::document::{DataNodeId, Document};
use tpq_base::TypeId;

/// Immutable index over one [`Document`]. Build once, query many times.
#[derive(Debug, Clone)]
pub struct DocIndex {
    /// `nodes[start[t] .. start[t + 1]]` carry type `t`, for every type id
    /// below `start.len() - 1`.
    start: Vec<u32>,
    nodes: Vec<DataNodeId>,
    /// Nodes of type ids too large for the table, grouped by ascending type:
    /// `spill_nodes[i]` carries `spill_types[i]`.
    spill_types: Vec<TypeId>,
    spill_nodes: Vec<DataNodeId>,
}

impl DocIndex {
    /// Build the index with one counting sort: count each type, turn the
    /// counts into list starts, then place every node in id order. Both
    /// passes read the primary-type column, plus the full type sets of the
    /// few multi-typed nodes.
    pub fn build(doc: &Document) -> Self {
        // Interned ids are small. The table grows only up to the document's
        // size, so a stray huge id goes to the sorted spill list instead.
        let limit = doc.len() + 64;
        let primary = doc.primary_column();
        let multi = doc.multi_typed();
        let extras =
            |id: DataNodeId| doc.types(id).iter().copied().filter(move |&t| t != doc.primary(id));
        let mut start: Vec<u32> = Vec::new();
        let mut spill: Vec<(TypeId, DataNodeId)> = Vec::new();
        let mut count = |t: TypeId, id: DataNodeId| {
            let i = t.index();
            if i >= limit {
                spill.push((t, id));
                return;
            }
            if i + 1 >= start.len() {
                start.resize(i + 2, 0);
            }
            start[i + 1] += 1;
        };
        for (id, &t) in (0u32..).zip(primary) {
            count(t, DataNodeId(id));
        }
        for &id in multi {
            extras(id).for_each(|t| count(t, id));
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        let mut next = start.clone();
        let mut nodes = vec![DataNodeId(0); start.last().map_or(0, |&n| n as usize)];
        let mut place = |t: TypeId, id: DataNodeId| {
            if t.index() < limit {
                let slot = &mut next[t.index()];
                nodes[*slot as usize] = id;
                *slot += 1;
            }
        };
        let mut multi = multi.iter().copied().peekable();
        for (id, &t) in (0u32..).zip(primary) {
            let id = DataNodeId(id);
            place(t, id);
            if multi.next_if_eq(&id).is_some() {
                extras(id).for_each(|t| place(t, id));
            }
        }
        spill.sort_unstable();
        let (spill_types, spill_nodes) = spill.into_iter().unzip();
        DocIndex { start, nodes, spill_types, spill_nodes }
    }

    /// Nodes carrying type `ty`, in id order. Empty slice if none.
    pub fn nodes_of_type(&self, ty: TypeId) -> &[DataNodeId] {
        let i = ty.index();
        if i + 1 < self.start.len() {
            return &self.nodes[self.start[i] as usize..self.start[i + 1] as usize];
        }
        let lo = self.spill_types.partition_point(|&t| t < ty);
        let hi = self.spill_types.partition_point(|&t| t <= ty);
        &self.spill_nodes[lo..hi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpq_base::SmallRng;

    fn doc() -> (Document, Vec<DataNodeId>) {
        // 0:a ( 1:b ( 2:c ), 3:b )
        let mut d = Document::new(TypeId(0));
        let b1 = d.add_child(d.root(), TypeId(1));
        let c = d.add_child(b1, TypeId(2));
        let b2 = d.add_child(d.root(), TypeId(1));
        (d, vec![DataNodeId(0), b1, c, b2])
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
        d.add_type(ids[1], TypeId(u32::MAX - 7));
        let idx = DocIndex::build(&d);
        assert_eq!(idx.nodes_of_type(huge), &[ids[2], ids[3]]);
        assert_eq!(idx.nodes_of_type(TypeId(u32::MAX - 7)), &[ids[1]]);
        assert_eq!(idx.nodes_of_type(TypeId(1)), &[ids[1], ids[3]]);
        assert!(idx.nodes_of_type(TypeId(7)).is_empty());
        assert!(idx.nodes_of_type(TypeId(u32::MAX)).is_empty());
        // The table covers the small ids only.
        assert!(idx.start.len() <= 4, "table of {} entries", idx.start.len());
    }

    #[test]
    fn type_lists_equal_a_pre_order_filter_on_random_documents() {
        for seed in 0..30u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let num_types = rng.gen_range(1..6u32);
            let spec = crate::DocumentSpec {
                nodes: rng.gen_range(1..200),
                num_types: num_types as usize,
                max_fanout: rng.gen_range(1..5),
                extra_type_prob: 0.4,
                seed,
            };
            let mut d = crate::generate_document(&spec);
            // Extra types on arbitrary nodes, not just the newest one.
            for _ in 0..rng.gen_range(0..20usize) {
                let u = DataNodeId(rng.gen_range(0..d.len() as u32));
                d.add_type(u, TypeId(rng.gen_range(0..num_types + 2)));
            }
            let idx = DocIndex::build(&d);
            let mut pre_order = Vec::new();
            let mut stack = vec![d.root()];
            while let Some(u) = stack.pop() {
                pre_order.push(u);
                let children: Vec<_> = d.children(u).collect();
                stack.extend(children.into_iter().rev());
            }
            for t in (0..num_types + 3).map(TypeId) {
                let want: Vec<DataNodeId> =
                    pre_order.iter().copied().filter(|&u| d.has_type(u, t)).collect();
                assert_eq!(idx.nodes_of_type(t), want, "seed {seed} type {t:?}");
            }
        }
    }
}
