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
//! are independent subtrees (mappings need not be injective). It runs the
//! row kernel of [`tpq_base::rows`] over the target numbered in pre-order,
//! so a d-edge is an interval test. [`has_homomorphism_naive`] is an
//! exponential backtracking reference, walking the pattern's links, used
//! to cross-validate it in tests and ablation benches.

use tpq_base::rows::{self, ones, PreOrderTree, Rows};
use tpq_base::{FxHashMap, Guard, Result};
use tpq_pattern::{EdgeKind, NodeId, TreePattern};

/// Rank of a node with no pre-order rank.
const NONE: u32 = u32::MAX;

/// The alive nodes of a pattern numbered in pre-order: the row kernel's
/// view of it. Deleting leaves leaves every survivor's rank, parent and
/// subtree interval valid, so one numbering serves a pattern for as long
/// as only leaves are removed.
pub(crate) struct PreOrder {
    /// `rank[id]`: the pre-order rank of arena node `id`, [`NONE`] if dead.
    rank: Vec<u32>,
    /// Indexed by rank.
    nodes: Vec<Ranked>,
    /// One bit per rank: `r` hangs by a child edge under `r - 1`.
    first_children: Vec<u64>,
}

/// One numbered node.
struct Ranked {
    id: NodeId,
    /// The parent's rank, [`NONE`] at the root.
    parent: u32,
    /// The last rank of the subtree.
    end: u32,
    child_edge: bool,
    temporary: bool,
}

impl PreOrder {
    /// Number `q`'s alive nodes in pre-order, each node's original children
    /// before its temporary ones (otherwise in child order), marking the
    /// first children that hang by a child edge, then fill in the subtree
    /// ends by one reverse pass.
    pub(crate) fn new(q: &TreePattern) -> PreOrder {
        let mut rank = vec![NONE; q.arena_len()];
        let mut nodes: Vec<Ranked> = Vec::with_capacity(q.size());
        let mut first_children = Vec::with_capacity(q.size().div_ceil(64));
        // Never deeper than the pattern is large, so it never regrows.
        let mut stack = Vec::with_capacity(q.size());
        stack.push(q.root());
        while let Some(id) = stack.pop() {
            let r = nodes.len() as u32;
            rank[id.index()] = r;
            let node = q.node(id);
            let parent = node.parent.map_or(NONE, |p| rank[p.index()]);
            let (child_edge, temporary) = (node.edge == EdgeKind::Child, node.temporary);
            nodes.push(Ranked { id, parent, end: r, child_edge, temporary });
            if r.is_multiple_of(64) {
                first_children.push(0);
            }
            if child_edge && r > 0 && parent == r - 1 {
                rows::set(&mut first_children, r);
            }
            // Pushed last, popped first: the original children.
            for temporaries in [true, false] {
                let first = stack.len();
                stack.extend(q.children(id).filter(|&c| q.node(c).temporary == temporaries));
                stack[first..].reverse();
            }
        }
        for r in (1..nodes.len()).rev() {
            let (parent, end) = (nodes[r].parent as usize, nodes[r].end);
            nodes[parent].end = nodes[parent].end.max(end);
        }
        PreOrder { rank, nodes, first_children }
    }

    /// The number of numbered nodes.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The rank of the alive node `id`.
    #[inline]
    pub(crate) fn rank(&self, id: NodeId) -> u32 {
        debug_assert_ne!(self.rank[id.index()], NONE, "{id} was not alive when numbered");
        self.rank[id.index()]
    }

    /// The arena id of rank `r`.
    #[inline]
    pub(crate) fn id(&self, r: u32) -> NodeId {
        self.nodes[r as usize].id
    }

    /// Is `r` a temporary (augmentation-added) node?
    #[inline]
    pub(crate) fn temporary(&self, r: u32) -> bool {
        self.nodes[r as usize].temporary
    }

    /// The original (non-temporary) children of `v`, in child order: each
    /// child's subtree ends right before the next child, and the temporary
    /// children come last. Some may have been removed since.
    pub(crate) fn original_children(&self, v: u32) -> impl Iterator<Item = u32> + '_ {
        let (mut c, end) = (v + 1, self.nodes[v as usize].end);
        std::iter::from_fn(move || {
            let child = c;
            (c <= end && !self.nodes[c as usize].temporary).then(|| {
                c = self.nodes[child as usize].end + 1;
                child
            })
        })
    }

    /// Does `r` hang by a child edge?
    #[inline]
    pub(crate) fn child_edge(&self, r: u32) -> bool {
        self.nodes[r as usize].child_edge
    }

    /// The rank of `r`'s parent.
    #[inline]
    pub(crate) fn parent(&self, r: u32) -> Option<u32> {
        Some(self.nodes[r as usize].parent).filter(|&p| p != NONE)
    }

    /// One candidate row per node of `domain` (of an arena of
    /// `arena_len` nodes): the numbered nodes `u` with `compatible(v, u)`.
    /// Spends one guard step per numbered node per row.
    pub(crate) fn candidates(
        &self,
        domain: impl Iterator<Item = NodeId>,
        arena_len: usize,
        guard: &Guard,
        compatible: impl Fn(NodeId, NodeId) -> bool,
    ) -> Result<Rows> {
        let mut cand = Rows::new(arena_len, self.len());
        for v in domain {
            guard.spend(self.len() as u64)?;
            let row = cand.row_mut(v.index());
            for u in (0..self.len() as u32).filter(|&u| compatible(v, self.id(u))) {
                rows::set(row, u);
            }
        }
        Ok(cand)
    }

    /// The member of lowest arena id: the one a list of candidates in
    /// arena order would give first.
    pub(crate) fn lowest(&self, members: impl Iterator<Item = u32>) -> Option<u32> {
        members.min_by_key(|&u| self.id(u))
    }
}

impl PreOrderTree for PreOrder {
    #[inline]
    fn c_parent(&self, u: u32) -> Option<u32> {
        let node = &self.nodes[u as usize];
        Some(node.parent).filter(|&p| node.child_edge && p != NONE)
    }

    #[inline]
    fn subtree_end(&self, u: u32) -> u32 {
        self.nodes[u as usize].end
    }

    #[inline]
    fn first_children(&self) -> &[u64] {
        &self.first_children
    }
}

/// The proper descendants of `u` in pre-order, by a walk over the child
/// and sibling links.
fn descendants(q: &TreePattern, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
    let mut next = q.children(u).next();
    std::iter::from_fn(move || {
        let id = next?;
        // The first child, else the next sibling of the nearest of `id`
        // and its ancestors below `u`.
        next = q.children(id).next();
        let mut up = id;
        while next.is_none() && up != u {
            next = q.next_sibling(up);
            up = q.node(up).parent.expect("a node below `u` has a parent");
        }
        Some(id)
    })
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
pub(crate) fn original_children(q: &TreePattern, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
    q.children(v).filter(|&c| !q.node(c).temporary)
}

/// The pruned candidate rows ("images") of a homomorphism `from → to`,
/// over `tree`, the pre-order numbering of `to`: row `v` after return is
/// exactly the set of `u` such that the (original-node) subtree of `v`
/// embeds below `u` with `v ↦ u`. Temporary nodes of `from` are skipped
/// (virtual, targets only); temporary nodes of `to` do participate as
/// targets.
///
/// One guard step is spent per candidate considered: `to`'s size per
/// original node of `from`, then the row's size plus one per prune. A
/// tripped guard aborts mid-table with [`Err`].
fn images(from: &TreePattern, to: &TreePattern, tree: &PreOrder, guard: &Guard) -> Result<Rows> {
    let domain = from.alive_ids().filter(|&v| !from.node(v).temporary);
    let mut cand =
        tree.candidates(domain, from.arena_len(), guard, |v, u| node_compatible(from, v, to, u))?;
    let mut scratch = vec![0; cand.words()];
    for v in from.post_order() {
        if from.node(v).temporary {
            continue;
        }
        guard.spend(rows::count(cand.row(v.index())) + 1)?;
        for w in original_children(from, v) {
            let (row, child_row) = cand.row_with(v.index(), w.index());
            let child_edge = from.node(w).edge == EdgeKind::Child;
            rows::keep_parents(tree, child_edge, row, child_row, &mut scratch);
        }
    }
    Ok(cand)
}

/// Does a containment mapping `from → to` exist? The candidate-table
/// build spends one guard step per candidate considered.
pub fn has_homomorphism(from: &TreePattern, to: &TreePattern, guard: &Guard) -> Result<bool> {
    let tree = PreOrder::new(to);
    let cand = images(from, to, &tree, guard)?;
    Ok(!rows::is_empty(cand.row(from.root().index())))
}

/// Find a containment mapping `from → to`, if any, as a node map. The
/// candidate-table build spends guard steps as in [`has_homomorphism`].
///
/// Extraction is greedy top-down over the pruned candidates, taking the
/// fitting candidate of lowest id, which is complete because candidates
/// are exact (see module docs).
pub fn find_homomorphism(
    from: &TreePattern,
    to: &TreePattern,
    guard: &Guard,
) -> Result<Option<FxHashMap<NodeId, NodeId>>> {
    let tree = PreOrder::new(to);
    let cand = images(from, to, &tree, guard)?;
    let Some(root_img) = tree.lowest(ones(cand.row(from.root().index()), 0)) else {
        return Ok(None);
    };
    let mut map = FxHashMap::default();
    map.insert(from.root(), root_img);
    let mut stack = vec![from.root()];
    while let Some(v) = stack.pop() {
        let u = map[&v];
        for w in original_children(from, v) {
            let child_edge = from.node(w).edge == EdgeKind::Child;
            let u2 = tree.lowest(rows::below(&tree, child_edge, u, cand.row(w.index())));
            map.insert(w, u2.expect("pruned candidate sets are exact"));
            stack.push(w);
        }
    }
    Ok(Some(map.into_iter().map(|(v, u)| (v, tree.id(u))).collect()))
}

/// Verify that `map` really is a containment mapping `from → to`.
/// Used by tests to check witnesses produced by [`find_homomorphism`].
pub fn is_valid_homomorphism(
    from: &TreePattern,
    to: &TreePattern,
    map: &FxHashMap<NodeId, NodeId>,
) -> bool {
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
            if !edge_preserved(from.node(v).edge, to, pu, u) {
                return false;
            }
        }
    }
    true
}

/// Rule 2 by parent links, for the checkers and oracles: may a child
/// reached by `edge` map onto `u2` when its parent maps onto `u`?
pub(crate) fn edge_preserved(edge: EdgeKind, to: &TreePattern, u: NodeId, u2: NodeId) -> bool {
    match edge {
        EdgeKind::Child => to.node(u2).edge == EdgeKind::Child && to.node(u2).parent == Some(u),
        EdgeKind::Descendant => to.is_proper_ancestor(u, u2),
    }
}

/// Exponential backtracking reference implementation of
/// [`has_homomorphism`]; used for cross-validation only.
pub fn has_homomorphism_naive(from: &TreePattern, to: &TreePattern) -> bool {
    let order: Vec<NodeId> =
        from.pre_order().into_iter().filter(|&v| !from.node(v).temporary).collect();
    let mut assignment: FxHashMap<NodeId, NodeId> = FxHashMap::default();
    backtrack(from, to, &order, 0, &mut assignment)
}

fn backtrack(
    from: &TreePattern,
    to: &TreePattern,
    order: &[NodeId],
    i: usize,
    assignment: &mut FxHashMap<NodeId, NodeId>,
) -> bool {
    if i == order.len() {
        return true;
    }
    let v = order[i];
    // Rule 2 by links: the root may map anywhere, a c-child onto a c-child
    // of its parent's image, a d-child onto a proper descendant.
    let edge = from.node(v).edge;
    let parent_img = from.node(v).parent.map(|p| assignment[&p]);
    let anywhere = parent_img.is_none().then(|| to.alive_ids());
    let children = parent_img
        .filter(|_| edge == EdgeKind::Child)
        .map(|pu| to.children(pu).filter(|&u| to.node(u).edge == EdgeKind::Child));
    let below = parent_img.filter(|_| edge == EdgeKind::Descendant).map(|pu| descendants(to, pu));
    let images = anywhere.into_iter().flatten();
    let images = images.chain(children.into_iter().flatten()).chain(below.into_iter().flatten());
    for u in images {
        if !node_compatible(from, v, to, u) {
            continue;
        }
        assignment.insert(v, u);
        if backtrack(from, to, order, i + 1, assignment) {
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

    /// A chain `t0 - t1 - …` of `n` nodes, the edge into node `i` given by
    /// `edge(i)`; a node of type `x` hangs between `t(k - 1)` and `tk`.
    fn chain(
        n: usize,
        extra_at: Option<usize>,
        edge: impl Fn(usize) -> EdgeKind,
        tys: &mut TypeInterner,
    ) -> TreePattern {
        let mut q = TreePattern::new(tys.intern("t0"));
        let mut tail = q.root();
        for i in 1..n {
            if extra_at == Some(i) {
                tail = q.add_child(tail, EdgeKind::Child, tys.intern("x"));
            }
            tail = q.add_child(tail, edge(i), tys.intern(&format!("t{i}")));
        }
        q
    }

    #[test]
    fn chains_across_word_boundaries_agree_with_naive() {
        // Each type occurs once per chain, so the naive search stays
        // linear. A node inserted above `tk` stretches the edge into `tk`:
        // only a d-edge there still maps.
        let mut tys = TypeInterner::new();
        let g = Guard::unlimited();
        for n in [63, 64, 65, 127, 128, 129] {
            for k in [62, 63, 64, 65, 126, 127, 128].into_iter().filter(|&k| k < n) {
                let to = chain(n, Some(k), |_| EdgeKind::Child, &mut tys);
                for kind in [EdgeKind::Child, EdgeKind::Descendant] {
                    let from =
                        chain(n, None, |i| if i == k { kind } else { EdgeKind::Child }, &mut tys);
                    let want = kind == EdgeKind::Descendant;
                    assert_eq!(has_homomorphism(&from, &to, &g).unwrap(), want, "n={n} k={k}");
                    assert_eq!(has_homomorphism_naive(&from, &to), want, "naive n={n} k={k}");
                    if let Some(map) = find_homomorphism(&from, &to, &g).unwrap() {
                        assert!(is_valid_homomorphism(&from, &to, &map), "n={n} k={k}");
                    }
                    // Backwards, the inserted node has no image.
                    assert!(!has_homomorphism(&to, &from, &g).unwrap(), "n={n} k={k}");
                    assert!(!has_homomorphism_naive(&to, &from), "naive n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn target_built_out_of_pre_order() {
        // The target's two chains are built alternately, so its arena
        // interleaves them; the left chain has an `x` where the right one
        // has `tk`, so only the right chain takes the mapping.
        let mut tys = TypeInterner::new();
        let g = Guard::unlimited();
        for (n, k) in [(33, 31), (64, 40), (65, 63)] {
            let mut to = TreePattern::new(tys.intern("t0"));
            let (mut left, mut right) = (to.root(), to.root());
            for i in 1..n {
                let decoy = if i == k { tys.intern("x") } else { tys.intern(&format!("t{i}")) };
                left = to.add_child(left, EdgeKind::Child, decoy);
                right = to.add_child(right, EdgeKind::Descendant, tys.intern(&format!("t{i}")));
            }
            assert_ne!(to.pre_order(), to.alive_ids().collect::<Vec<_>>(), "n={n}");
            let deep = chain(
                n,
                None,
                |i| if i % 3 == 0 { EdgeKind::Child } else { EdgeKind::Descendant },
                &mut tys,
            );
            let loose = chain(n, None, |_| EdgeKind::Descendant, &mut tys);
            for (from, want) in [(&deep, false), (&loose, true)] {
                assert_eq!(has_homomorphism(from, &to, &g).unwrap(), want, "n={n}");
                assert_eq!(has_homomorphism_naive(from, &to), want, "naive n={n}");
                let map = find_homomorphism(from, &to, &g).unwrap();
                assert_eq!(map.is_some(), want, "n={n}");
                if let Some(map) = map {
                    assert!(is_valid_homomorphism(from, &to, &map), "n={n}");
                    assert_eq!(map[&from.root()], to.root());
                }
            }
            let left_only = chain(k, None, |_| EdgeKind::Child, &mut tys);
            assert!(
                has_homomorphism(&left_only, &to, &g).unwrap(),
                "n={n}: the left chain up to x"
            );
            assert!(has_homomorphism_naive(&left_only, &to));
        }
    }

    #[test]
    fn numbering_marks_the_first_children_that_hang_by_a_child_edge() {
        let mut rng = tpq_base::SmallRng::seed_from_u64(29);
        for round in 0..40 {
            // Each node under a random earlier one, some of them temporary
            // (numbered after their original siblings), some by a d-edge.
            let mut q = TreePattern::new(tpq_base::TypeId(0));
            let mut ids = vec![q.root()];
            for _ in 1..rng.gen_range(1..200usize) {
                let parent = ids[rng.gen_range(0..ids.len())];
                let edge = if rng.gen_bool(0.3) { EdgeKind::Descendant } else { EdgeKind::Child };
                let id = q.add_child(parent, edge, tpq_base::TypeId(1));
                q.node_mut(id).temporary = rng.gen_bool(0.2);
                ids.push(id);
            }
            let tree = PreOrder::new(&q);
            assert_eq!(tree.first_children().len(), tree.len().div_ceil(64));
            for r in 0..tree.len() as u32 {
                let want = r > 0 && tree.c_parent(r) == Some(r - 1);
                assert_eq!(rows::has(tree.first_children(), r), want, "round {round}, rank {r}");
            }
        }
    }
}
