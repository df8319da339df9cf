//! The reference implementation: the redundant-leaf test of Figure 3 and
//! a MEO loop over it.
//!
//! A node of a query is redundant iff there is an endomorphism on the query
//! that is not the identity on it (Proposition 4.1). For a *leaf* `l`,
//! Theorem 4.2 reduces the check to one bottom-up pruning sweep of the
//! images table: initialize `images(l)` to every same-type node *except*
//! `l`, initialize `images(v)` for every other node to all compatible
//! nodes, prune bottom-up, and test `images(root)` for non-emptiness.
//!
//! [`redundant_leaf`] follows Figure 3's enhancements: images are pruned
//! only along the ancestor chain of `l` (each ancestor's other subtrees are
//! minimized once, on demand, and marked), and the walk up exits early when
//! `images(v) = ∅` (leaf not redundant — no embedding of `v`'s subtree
//! exists at all) or `v ∈ images(v)` (leaf redundant — the identity extends
//! upward from `v`). It rebuilds its tables for every test.
//!
//! Production minimization runs the incremental engine
//! ([`crate::incremental::CimEngine`]), which keeps the tables alive across
//! tests (Section 6.1). This module is the oracle it is checked against:
//! the differential tests compare the engine with [`cim_with_order`], and
//! Theorem 4.1's order-independence is tested by running that loop under
//! different candidate orders.

use crate::mapping::{edge_preserved, node_compatible, original_children};
use tpq_base::FxHashSet;
use tpq_pattern::{NodeId, TreePattern};

/// Is the alive leaf `l` of `q` redundant?
///
/// "Leaf" means *no original children*: temporary (augmentation-added)
/// nodes are virtual and do not count — an original node whose only
/// children are temps is a leaf for elimination purposes. Temps
/// participate as mapping targets but must never be passed as `l` — ACIM
/// never tests them.
///
/// # Panics
/// Panics (debug) if `l` is not an alive original leaf or is the output
/// node.
pub fn redundant_leaf(q: &TreePattern, l: NodeId) -> bool {
    debug_assert!(
        q.is_alive(l) && !q.node(l).temporary && original_children(q, l).next().is_none(),
        "l must be an alive original leaf"
    );
    debug_assert!(l != q.output(), "the output node is never tested");
    debug_assert!(l != q.root(), "the root is never tested");

    // Images are keyed by original (non-temporary) nodes — the
    // homomorphism domain. Targets include temporary nodes: that is how
    // ACIM's augmentation makes IC-implied leaves removable. Ancestry is
    // read by walking parent links.
    let targets: Vec<NodeId> = q.alive_ids().collect();
    let originals: Vec<NodeId> = q.alive_ids().filter(|&v| !q.node(v).temporary).collect();
    let mut images: Vec<Vec<NodeId>> = vec![Vec::new(); q.arena_len()];
    for &v in &originals {
        images[v.index()] = targets
            .iter()
            .copied()
            .filter(|&u| !(v == l && u == l) && node_compatible(q, v, q, u))
            .collect();
    }

    // If no candidate exists for l at all, it cannot move anywhere.
    if images[l.index()].is_empty() {
        return false;
    }

    // Walk up from l, minimizing images on demand (Figure 3). All
    // (original-children-free) leaves start marked: their images need no
    // pruning.
    let mut marked = vec![false; q.arena_len()];
    for &v in &originals {
        if original_children(q, v).next().is_none() {
            marked[v.index()] = true;
        }
    }
    for v in q.ancestors(l) {
        minimize_images(q, v, &mut images, &mut marked);
        if images[v.index()].is_empty() {
            return false;
        }
        if images[v.index()].contains(&v) {
            return true;
        }
    }
    // Unreachable in theory (at the root one of the two tests above fires:
    // any endomorphism fixes the root, so a non-empty pruned images(root)
    // contains the root); kept as a safe fallback.
    !images[q.root().index()].is_empty()
}

/// `minimize-images` of Figure 3: ensure every descendant's images are
/// pruned, then prune `v`'s own images against its children.
fn minimize_images(q: &TreePattern, v: NodeId, images: &mut [Vec<NodeId>], marked: &mut [bool]) {
    if !marked[v.index()] {
        for c in original_children(q, v) {
            if !marked[c.index()] {
                minimize_images(q, c, images, marked);
            }
        }
        marked[v.index()] = true;
    }
    // A node minimized on an earlier ancestor visit is re-pruned too: one
    // of its children (the previous ancestor on the walk) may have changed.
    prune(q, v, images);
}

/// Keep the images `u` of `v` under which every original child of `v` has
/// an image that fits below `u`.
fn prune(q: &TreePattern, v: NodeId, images: &mut [Vec<NodeId>]) {
    let mut kept = std::mem::take(&mut images[v.index()]);
    kept.retain(|&u| {
        original_children(q, v)
            .all(|w| images[w.index()].iter().any(|&u2| edge_preserved(q.node(w).edge, q, u, u2)))
    });
    images[v.index()] = kept;
}

/// CIM by a maximal elimination ordering over [`redundant_leaf`], testing
/// the candidate leaves in the order `priority` returns and collecting
/// them afresh after every removal. Returns the compacted result.
///
/// Candidates are the original leaves other than the root and the output
/// node; a leaf once found non-redundant is never re-tested (deleting
/// other leaves cannot make it redundant, Figure 3's enhancement (1)).
/// Removing a leaf also removes the temporary children augmentation hung
/// under it, so on an augmented pattern this is ACIM's CIM phase; strip
/// the temporaries from the result to finish ACIM.
pub fn cim_with_order<F>(q: &TreePattern, mut priority: F) -> TreePattern
where
    F: FnMut(&TreePattern, &[NodeId]) -> Vec<NodeId>,
{
    let mut work = q.clone();
    let mut non_redundant: FxHashSet<NodeId> = FxHashSet::default();
    loop {
        let candidates: Vec<NodeId> = work
            .alive_ids()
            .filter(|&l| {
                !work.node(l).temporary
                    && original_children(&work, l).next().is_none()
                    && l != work.root()
                    && l != work.output()
                    && !non_redundant.contains(&l)
            })
            .collect();
        if candidates.is_empty() {
            break;
        }
        let mut progress = false;
        for l in priority(&work, &candidates) {
            if !work.is_alive(l) || original_children(&work, l).next().is_some() {
                continue;
            }
            if redundant_leaf(&work, l) {
                let temps: Vec<NodeId> = work.children(l).collect();
                for t in temps {
                    work.remove_subtree(t).expect("temp subtree is removable");
                }
                work.remove_leaf(l).expect("candidate is a removable leaf");
                progress = true;
                break;
            }
            non_redundant.insert(l);
        }
        if !progress {
            break;
        }
    }
    work.compact().0
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpq_base::TypeInterner;
    use tpq_pattern::parse_pattern;

    fn p(s: &str, tys: &mut TypeInterner) -> TreePattern {
        parse_pattern(s, tys).unwrap()
    }

    fn leaf_named(q: &TreePattern, tys: &TypeInterner, name: &str) -> NodeId {
        q.leaves()
            .into_iter()
            .find(|&l| tys.name(q.node(l).primary) == name)
            .unwrap_or_else(|| panic!("no leaf {name}"))
    }

    /// Reference implementation: l is redundant iff the pattern without l
    /// still has a homomorphism into... precisely, iff an endomorphism
    /// non-identity on l exists, which (for a leaf) is equivalent to a
    /// homomorphism q → q where l's candidates exclude l. We recompute that
    /// with the naive backtracker by checking hom(q, q\{l}) — deleting the
    /// leaf and asking whether the smaller query still embeds the larger
    /// one (q ⊆ q\l always holds the other way).
    fn redundant_reference(q: &TreePattern, l: NodeId) -> bool {
        let mut without = q.clone();
        without.remove_leaf(l).unwrap();
        crate::mapping::has_homomorphism_naive(q, &without)
    }

    #[test]
    fn duplicate_branch_leaf_is_redundant() {
        let mut tys = TypeInterner::new();
        // Dept*[//DBProject]//Manager//DBProject: the bare DBProject branch
        // is subsumed by the Manager//DBProject branch.
        let q = p("Dept*[//DBProject]//Manager//DBProject", &mut tys);
        let branch_leaf = q.children(q.root()).next().unwrap();
        assert!(q.node(branch_leaf).is_leaf());
        assert!(redundant_leaf(&q, branch_leaf));
        assert!(redundant_reference(&q, branch_leaf));
        // The deep DBProject (under Manager) is NOT redundant.
        let deep = *q.leaves().iter().find(|&&l| l != branch_leaf).unwrap();
        assert!(!redundant_leaf(&q, deep));
        assert!(!redundant_reference(&q, deep));
    }

    #[test]
    fn c_edge_leaf_not_subsumed_by_d_edge_twin() {
        let mut tys = TypeInterner::new();
        // a*[/b]//b : the c-child b is NOT redundant (c-edge is stricter),
        // but the d-child b IS (the c-child witnesses it).
        let q = p("a*[/b]//b", &mut tys);
        let kids = q.children(q.root()).collect::<Vec<_>>();
        let (c_leaf, d_leaf) = (kids[0], kids[1]);
        assert!(!redundant_leaf(&q, c_leaf));
        assert!(redundant_leaf(&q, d_leaf));
        assert!(!redundant_reference(&q, c_leaf));
        assert!(redundant_reference(&q, d_leaf));
    }

    #[test]
    fn leaf_can_map_to_internal_node() {
        let mut tys = TypeInterner::new();
        // a*[/b]/b/c : the leaf b (left) maps onto the internal b (right).
        let q = p("a*[/b]/b/c", &mut tys);
        let kids = q.children(q.root()).collect::<Vec<_>>();
        let b_leaf = kids[0];
        assert!(q.node(b_leaf).is_leaf());
        assert!(redundant_leaf(&q, b_leaf));
        assert!(redundant_reference(&q, b_leaf));
    }

    #[test]
    fn star_blocks_mapping() {
        let mut tys = TypeInterner::new();
        // The marked c leaf cannot be moved onto the unmarked c.
        let q = p("a[/b/c][/b/c*]", &mut tys);
        let starred = q.output();
        assert!(q.node(starred).is_leaf());
        // Its unmarked twin IS redundant.
        let twin = leaf_named(&q, &tys, "c");
        let twin = if twin == starred {
            q.leaves().into_iter().find(|&l| l != starred).unwrap()
        } else {
            twin
        };
        assert!(redundant_leaf(&q, twin));
        assert!(redundant_reference(&q, twin));
    }

    #[test]
    fn deep_chain_redundancy() {
        let mut tys = TypeInterner::new();
        // Articles/Article*[//Paragraph]//Section//Paragraph (Fig 2(b)-ish):
        // the shallow Paragraph is redundant via the deep one.
        let q = p("Articles/Article*[//Paragraph]//Section//Paragraph", &mut tys);
        let article = q.children(q.root()).next().unwrap();
        let shallow = q.children(article).next().unwrap();
        assert!(redundant_leaf(&q, shallow));
        assert!(redundant_reference(&q, shallow));
        let deep = leaf_named(&q, &tys, "Paragraph");
        let deep = if deep == shallow {
            q.leaves().into_iter().find(|&l| l != shallow).unwrap()
        } else {
            deep
        };
        assert!(!redundant_leaf(&q, deep));
    }

    #[test]
    fn no_same_type_node_means_not_redundant() {
        let mut tys = TypeInterner::new();
        let q = p("a*[/b]/c", &mut tys);
        for l in q.leaves() {
            assert!(!redundant_leaf(&q, l));
            assert!(!redundant_reference(&q, l));
        }
    }

    #[test]
    fn matches_reference_on_exhaustive_small_patterns() {
        // Cross-validate against the naive reference on a batch of shapes.
        let mut tys = TypeInterner::new();
        let shapes = [
            "a*[/b][/b]",
            "a*[//b][/b]",
            "a*[//b][//b]",
            "a*[/b/c][//c]",
            "a*[/b//c][/b/c]",
            "a*[//b//c][//c]",
            "a*[/a][/a/a]",
            "a*[//a]//a//a",
            "r*[/x/y][/x[/y][/z]]",
            "r*[//x/y][//x]",
        ];
        for s in shapes {
            let q = p(s, &mut tys);
            for l in q.leaves() {
                if l == q.output() {
                    continue;
                }
                assert_eq!(
                    redundant_leaf(&q, l),
                    redundant_reference(&q, l),
                    "pattern {s}, leaf {l}"
                );
            }
        }
    }
}
