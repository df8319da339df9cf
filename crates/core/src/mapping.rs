//! Containment mappings (query homomorphisms), Section 4.
//!
//! A containment mapping `h : Q2 → Q1` maps nodes of `Q2` to nodes of `Q1`
//! such that
//!
//! 1. types are preserved — we use the (equivalent, see below) type-set
//!    inclusion `types(v) ⊆ types(h(v))`, and `h(v)` carries `*` iff `v`
//!    does;
//! 2. a c-child maps to a c-child, a d-child to a **proper descendant**.
//!
//! By the adapted homomorphism theorem, `Q1 ⊆ Q2` iff such a mapping
//! exists. For plain patterns (one type per node) the inclusion rule
//! reduces to type equality; for chase-augmented patterns, whose extra
//! types are exactly the co-occurrence closure of the primary type under a
//! *closed* constraint set, inclusion of the primary type and inclusion of
//! the full set coincide — so the one rule serves both Section 4 and
//! Section 5.
//!
//! [`has_homomorphism`] decides existence in polynomial time with the same
//! bottom-up candidate ("images") pruning the paper uses for redundancy
//! testing: candidates are exact — `u ∈ images(v)` after pruning iff the
//! subtree of `v` embeds below `u` with `v ↦ u` — because pattern children
//! are independent subtrees (mappings need not be injective).
//! [`has_homomorphism_naive`] is an exponential backtracking reference used
//! to cross-validate it in tests and ablation benches.

use tpq_base::{FxHashMap, Guard, Result};
use tpq_pattern::{EdgeKind, NodeId, TreePattern};

/// Pre/post-order index over the alive nodes of a pattern, giving O(1)
/// proper-ancestor tests. This is the paper's "ancestor/descendant table"
/// (Section 6.1) for the containment checks and the rebuild-per-test
/// reference ([`crate::redundant`]); the incremental engine keeps the
/// same table as bitset rows.
#[derive(Debug, Clone)]
pub struct PatIndex {
    pre: Vec<u32>,
    post: Vec<u32>,
}

impl PatIndex {
    /// Build for the alive nodes of `p`.
    pub fn build(p: &TreePattern) -> Self {
        let mut pre = vec![u32::MAX; p.arena_len()];
        let mut post = vec![u32::MAX; p.arena_len()];
        let mut pre_c = 0u32;
        let mut post_c = 0u32;
        enum Step {
            Enter(NodeId),
            Exit(NodeId),
        }
        let mut stack = vec![Step::Enter(p.root())];
        while let Some(step) = stack.pop() {
            match step {
                Step::Enter(id) => {
                    if !p.is_alive(id) {
                        continue;
                    }
                    pre[id.index()] = pre_c;
                    pre_c += 1;
                    stack.push(Step::Exit(id));
                    // Reversed so that the children pop in insertion order.
                    let first = stack.len();
                    stack.extend(p.children(id).map(Step::Enter));
                    stack[first..].reverse();
                }
                Step::Exit(id) => {
                    post[id.index()] = post_c;
                    post_c += 1;
                }
            }
        }
        PatIndex { pre, post }
    }

    /// O(1): is `anc` a proper ancestor of `desc`?
    #[inline]
    pub fn is_proper_ancestor(&self, anc: NodeId, desc: NodeId) -> bool {
        self.pre[anc.index()] < self.pre[desc.index()]
            && self.post[desc.index()] < self.post[anc.index()]
    }
}

/// Node-level compatibility for `v ↦ u`: type-set inclusion, `*`
/// preservation, and condition entailment.
///
/// The output node must map to the output node (that is what keeps answer
/// sets aligned), but a *non*-output node may map onto the output node:
/// `a[/b*][/b]` ≡ `a[/b*]` requires the unmarked `b` to fold onto the
/// marked one. (The paper's Figure 2(b) → 2(c) step relies on the same
/// freedom: the unmarked `Article` branch folds onto `Article*`.)
///
/// With value-based conditions (Section 7), the target's conditions must
/// logically entail the source's: every data node matching `u` then also
/// satisfies `v`'s conditions.
#[inline]
pub(crate) fn node_compatible(from: &TreePattern, v: NodeId, to: &TreePattern, u: NodeId) -> bool {
    (!from.node(v).output || to.node(u).output)
        && to.node(u).types.is_superset(&from.node(v).types)
        && tpq_pattern::condition::entails(to.conditions(u), from.conditions(v))
}

/// Alive, non-temporary children of `v` — the homomorphism *domain* side.
///
/// Temporary (augmentation-added) nodes are virtual: per Section 6.1 of
/// the paper they "are maintained only as redundant nodes in the images
/// and the ancestor/descendant tables", i.e. they serve as mapping targets
/// but never need images of their own. Treating them as domain nodes would
/// wrongly block removals (an original node whose only children are temps
/// must be removable by mapping onto a temp, which has no children).
pub(crate) fn original_children(q: &TreePattern, v: NodeId) -> Vec<NodeId> {
    q.children(v).filter(|&c| !q.node(c).temporary).collect()
}

/// Compute the pruned candidate sets ("images") for a homomorphism
/// `from → to`. `candidates[v]` after return is exactly the set of `u` such
/// that the (original-node) subtree of `v` embeds below `u` with `v ↦ u`.
///
/// Temporary nodes of `from` are skipped (virtual, targets only);
/// temporary nodes of `to` do participate as targets.
///
/// `exclude` optionally bans one specific pair `(v, u)` from the initial
/// candidates — the redundant-leaf test (Figure 3) initializes
/// `images(l)` without `l` itself.
///
/// This is the hot `O(n · maxImage)` table construction, so it is where
/// the [`Guard`] spends most of its steps: one step per candidate
/// considered. A tripped guard aborts mid-table with [`Err`]; callers
/// discard the partial table.
pub(crate) fn pruned_candidates(
    from: &TreePattern,
    to: &TreePattern,
    to_index: &PatIndex,
    exclude: Option<(NodeId, NodeId)>,
    guard: &Guard,
) -> Result<Vec<Vec<NodeId>>> {
    let mut cand: Vec<Vec<NodeId>> = vec![Vec::new(); from.arena_len()];
    let to_alive: Vec<NodeId> = to.alive_ids().collect();
    for v in from.alive_ids() {
        if from.node(v).temporary {
            continue;
        }
        guard.spend(to_alive.len() as u64)?;
        let mut list: Vec<NodeId> =
            to_alive.iter().copied().filter(|&u| node_compatible(from, v, to, u)).collect();
        if let Some((ev, eu)) = exclude {
            if ev == v {
                list.retain(|&u| u != eu);
            }
        }
        cand[v.index()] = list;
    }
    for v in from.post_order() {
        if !from.node(v).temporary {
            guard.spend(cand[v.index()].len() as u64 + 1)?;
            prune_node(from, to, to_index, v, &mut cand);
        }
    }
    Ok(cand)
}

/// Re-prune the candidate set of a single node `v` against its
/// (original) children's current candidate sets. Returns `true` if
/// anything was removed.
pub(crate) fn prune_node(
    from: &TreePattern,
    to: &TreePattern,
    to_index: &PatIndex,
    v: NodeId,
    cand: &mut [Vec<NodeId>],
) -> bool {
    let children = original_children(from, v);
    if children.is_empty() {
        return false;
    }
    let before = cand[v.index()].len();
    let mut kept = Vec::with_capacity(before);
    'outer: for i in 0..before {
        let u = cand[v.index()][i];
        for &w in &children {
            let ok = match from.node(w).edge {
                EdgeKind::Child => cand[w.index()].iter().any(|&u2| {
                    to.node(u2).edge == EdgeKind::Child && to.node(u2).parent == Some(u)
                }),
                EdgeKind::Descendant => {
                    cand[w.index()].iter().any(|&u2| to_index.is_proper_ancestor(u, u2))
                }
            };
            if !ok {
                continue 'outer;
            }
        }
        kept.push(u);
    }
    let changed = kept.len() != before;
    cand[v.index()] = kept;
    changed
}

/// Does a containment mapping `from → to` exist? The candidate-table
/// build spends one guard step per candidate considered.
pub fn has_homomorphism(from: &TreePattern, to: &TreePattern, guard: &Guard) -> Result<bool> {
    let to_index = PatIndex::build(to);
    let cand = pruned_candidates(from, to, &to_index, None, guard)?;
    Ok(!cand[from.root().index()].is_empty())
}

/// Rule 2 for one edge: may a child of `v ↦ u`, reached by `edge`, map
/// onto `u2` (a c-child of `u`, or a proper descendant for a d-child)?
fn edge_preserved(
    edge: EdgeKind,
    to: &TreePattern,
    to_index: &PatIndex,
    u: NodeId,
    u2: NodeId,
) -> bool {
    match edge {
        EdgeKind::Child => to.node(u2).edge == EdgeKind::Child && to.node(u2).parent == Some(u),
        EdgeKind::Descendant => to_index.is_proper_ancestor(u, u2),
    }
}

/// Find a containment mapping `from → to`, if any, as a node map. The
/// candidate-table build spends guard steps as in [`has_homomorphism`].
///
/// Extraction is greedy top-down over the pruned candidates, which is
/// complete because candidates are exact (see module docs).
pub fn find_homomorphism(
    from: &TreePattern,
    to: &TreePattern,
    guard: &Guard,
) -> Result<Option<FxHashMap<NodeId, NodeId>>> {
    let to_index = PatIndex::build(to);
    let cand = pruned_candidates(from, to, &to_index, None, guard)?;
    let Some(&root_img) = cand[from.root().index()].first() else { return Ok(None) };
    let mut map = FxHashMap::default();
    map.insert(from.root(), root_img);
    let mut stack = vec![from.root()];
    while let Some(v) = stack.pop() {
        let u = map[&v];
        for w in original_children(from, v) {
            let edge = from.node(w).edge;
            let mut images = cand[w.index()].iter().copied();
            let u2 = images.find(|&u2| edge_preserved(edge, to, &to_index, u, u2));
            let u2 = u2.expect("pruned candidate sets are exact");
            map.insert(w, u2);
            stack.push(w);
        }
    }
    Ok(Some(map))
}

/// Verify that `map` really is a containment mapping `from → to`.
/// Used by tests to check witnesses produced by [`find_homomorphism`].
pub fn is_valid_homomorphism(
    from: &TreePattern,
    to: &TreePattern,
    map: &FxHashMap<NodeId, NodeId>,
) -> bool {
    let to_index = PatIndex::build(to);
    for v in from.alive_ids() {
        if from.node(v).temporary {
            continue;
        }
        let Some(&u) = map.get(&v) else { return false };
        if !to.is_alive(u) || !node_compatible(from, v, to, u) {
            return false;
        }
        if let Some(p) = from.node(v).parent {
            let Some(&pu) = map.get(&p) else { return false };
            if !edge_preserved(from.node(v).edge, to, &to_index, pu, u) {
                return false;
            }
        }
    }
    true
}

/// Exponential backtracking reference implementation of
/// [`has_homomorphism`]; used for cross-validation only.
pub fn has_homomorphism_naive(from: &TreePattern, to: &TreePattern) -> bool {
    let to_index = PatIndex::build(to);
    let order: Vec<NodeId> =
        from.pre_order().into_iter().filter(|&v| !from.node(v).temporary).collect();
    let mut assignment: FxHashMap<NodeId, NodeId> = FxHashMap::default();
    backtrack(from, to, &to_index, &order, 0, &mut assignment)
}

fn backtrack(
    from: &TreePattern,
    to: &TreePattern,
    to_index: &PatIndex,
    order: &[NodeId],
    i: usize,
    assignment: &mut FxHashMap<NodeId, NodeId>,
) -> bool {
    if i == order.len() {
        return true;
    }
    let v = order[i];
    let parent_img = from.node(v).parent.map(|p| assignment[&p]);
    for u in to.alive_ids() {
        if !node_compatible(from, v, to, u) {
            continue;
        }
        if parent_img.is_some_and(|pu| !edge_preserved(from.node(v).edge, to, to_index, pu, u)) {
            continue;
        }
        assignment.insert(v, u);
        if backtrack(from, to, to_index, order, i + 1, assignment) {
            return true;
        }
        assignment.remove(&v);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpq_base::TypeInterner;
    use tpq_pattern::parse_pattern;

    fn p(s: &str, tys: &mut TypeInterner) -> TreePattern {
        parse_pattern(s, tys).unwrap()
    }

    #[test]
    fn identity_hom_always_exists() {
        let mut tys = TypeInterner::new();
        for s in ["a", "a/b//c", "a*[/b][/b/c]//d"] {
            let q = p(s, &mut tys);
            assert!(has_homomorphism(&q, &q, &Guard::unlimited()).unwrap(), "{s}");
            assert!(has_homomorphism_naive(&q, &q), "{s}");
        }
    }

    #[test]
    fn descendant_edge_maps_to_chain() {
        let mut tys = TypeInterner::new();
        // from: a//c ; to: a/b/c — the d-edge maps across the chain.
        let from = p("a//c", &mut tys);
        let to = p("a/b/c", &mut tys);
        assert!(has_homomorphism(&from, &to, &Guard::unlimited()).unwrap());
        assert!(has_homomorphism_naive(&from, &to));
        // But a c-edge cannot stretch.
        let from_c = p("a/c", &mut tys);
        assert!(!has_homomorphism(&from_c, &to, &Guard::unlimited()).unwrap());
        assert!(!has_homomorphism_naive(&from_c, &to));
    }

    #[test]
    fn descendant_is_proper() {
        let mut tys = TypeInterner::new();
        // a//a cannot map into a single a node.
        let from = p("a//a", &mut tys);
        let to = p("a", &mut tys);
        assert!(!has_homomorphism(&from, &to, &Guard::unlimited()).unwrap());
        assert!(!has_homomorphism_naive(&from, &to));
    }

    #[test]
    fn star_must_map_to_star() {
        let mut tys = TypeInterner::new();
        let from = p("a/b*", &mut tys);
        let to = p("a*[/b]", &mut tys);
        assert!(!has_homomorphism(&from, &to, &Guard::unlimited()).unwrap());
        assert!(!has_homomorphism_naive(&from, &to));
        let to2 = p("a/b*", &mut tys);
        assert!(has_homomorphism(&from, &to2, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn non_injective_mappings_allowed() {
        let mut tys = TypeInterner::new();
        // Two b-branches of `from` can share the single b of `to`.
        let from = p("a*[/b]/b", &mut tys);
        let to = p("a*/b", &mut tys);
        assert!(has_homomorphism(&from, &to, &Guard::unlimited()).unwrap());
        assert!(has_homomorphism_naive(&from, &to));
    }

    #[test]
    fn figure_2h_right_branch_folds_left() {
        let mut tys = TypeInterner::new();
        let h = p("OrgUnit*[/Dept/Researcher//DBProject]//Dept//DBProject", &mut tys);
        let i = p("OrgUnit*/Dept/Researcher//DBProject", &mut tys);
        // Fig 2(h) ⊇ Fig 2(i) and vice versa: hom in both directions.
        assert!(has_homomorphism(&h, &i, &Guard::unlimited()).unwrap());
        assert!(has_homomorphism(&i, &h, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn typeset_inclusion_enables_mapping_onto_multi_typed_nodes() {
        let mut tys = TypeInterner::new();
        let from = p("Org*/Employee", &mut tys);
        let mut to = p("Org*/PermEmp", &mut tys);
        let emp = tys.lookup("Employee").unwrap();
        let perm_node = to.children(to.root()).next().unwrap();
        to.node_mut(perm_node).types.insert(emp);
        assert!(has_homomorphism(&from, &to, &Guard::unlimited()).unwrap());
        assert!(has_homomorphism_naive(&from, &to));
        // And not the other way around: PermEmp is not among Employee's types.
        assert!(!has_homomorphism(&to, &from, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn find_homomorphism_produces_a_valid_witness() {
        let mut tys = TypeInterner::new();
        let from = p("a*[/b]//c", &mut tys);
        let to = p("a*[/b][/x//c]", &mut tys);
        let map = find_homomorphism(&from, &to, &Guard::unlimited()).unwrap().expect("hom exists");
        assert!(is_valid_homomorphism(&from, &to, &map));
        assert!(find_homomorphism(&to, &from, &Guard::unlimited()).unwrap().is_none());
    }

    #[test]
    fn pruning_agrees_with_naive_on_tricky_cases() {
        let mut tys = TypeInterner::new();
        let cases = [
            ("a*[/b/c][/b/d]", "a*/b[/c]/d", true),
            ("a*/b[/c]/d", "a*[/b/c][/b/d]", false),
            ("a*//b//c", "a*/b/x/c", true),
            ("a*//c//b", "a*/b/x/c", false),
            ("a*[//b][//c]", "a*//x[/b][/c]", true),
            ("a*[/a/a]", "a*/a/a", true),
            ("a*/a/a", "a*[/a/a]", true),
        ];
        for (f, t, want) in cases {
            let from = p(f, &mut tys);
            let to = p(t, &mut tys);
            assert_eq!(
                has_homomorphism(&from, &to, &Guard::unlimited()).unwrap(),
                want,
                "{f} -> {t}"
            );
            assert_eq!(has_homomorphism_naive(&from, &to), want, "naive {f} -> {t}");
        }
    }

    #[test]
    fn pat_index_matches_parent_walk() {
        let mut tys = TypeInterner::new();
        let mut q = p("a*[/b/c][//d]/e", &mut tys);
        // Remove a leaf so the index must handle tombstones.
        let d = q.leaves().into_iter().find(|&l| tys.name(q.node(l).primary) == "d").unwrap();
        q.remove_leaf(d).unwrap();
        let idx = PatIndex::build(&q);
        let alive: Vec<NodeId> = q.alive_ids().collect();
        for &a in &alive {
            for &b in &alive {
                assert_eq!(idx.is_proper_ancestor(a, b), q.is_proper_ancestor(a, b), "{a} anc {b}");
            }
        }
    }
}
