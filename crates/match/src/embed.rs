//! The production evaluator: candidate pruning + feasibility.
//!
//! Phase 1 (bottom-up): for each pattern node `v`, compute `cand(v)` — the
//! data nodes `u` such that the subtree of `v` embeds with `v ↦ u`. The
//! computation mirrors the images pruning of the minimization algorithms:
//! pattern subtrees are independent, so `u ∈ cand(v)` iff `u` carries
//! `v`'s types and every pattern child has a structurally compatible
//! candidate.
//!
//! Phase 2 (top-down): intersect with reachability from the root to get
//! `feasible(v)` — the data nodes that participate in at least one *full*
//! embedding. The answer set is `feasible(output)`.

use crate::{prefix_max_end, PreOrdered};
use tpq_base::{failpoint, FxHashSet, Guard, Result};
use tpq_data::{DataNodeId, DocIndex, Document};
use tpq_pattern::{EdgeKind, NodeId, TreePattern};

/// Per-pattern-child acceleration structure for the bottom-up pass: does
/// a candidate of the child sit correctly below a given parent image?
///
/// * c-edge: the set of parents of the child's candidates (O(1) probe);
/// * d-edge: the child's candidates ascend in document order, so some
///   candidate lies inside `u`'s subtree iff the first one after `u` is at
///   most `subtree_end(u)` — one binary search.
enum ChildCheck<'c> {
    /// c-edge, few candidates: a plain scan beats building a set.
    FewChildren(&'c [DataNodeId]),
    Children(FxHashSet<DataNodeId>),
    Descendants(&'c [DataNodeId]),
}

/// Below this length, linear scans win over hash/binary-search setups.
const SMALL_LIST: usize = 16;

impl<'c> ChildCheck<'c> {
    fn build(edge: EdgeKind, cand: &'c [DataNodeId], doc: &Document) -> Self {
        match edge {
            EdgeKind::Child if cand.len() <= SMALL_LIST => ChildCheck::FewChildren(cand),
            EdgeKind::Child => {
                ChildCheck::Children(cand.iter().filter_map(|&u2| doc.parent(u2)).collect())
            }
            EdgeKind::Descendant => ChildCheck::Descendants(cand),
        }
    }

    fn has_image_below(&self, u: DataNodeId, doc: &Document) -> bool {
        match self {
            ChildCheck::FewChildren(cand) => cand.iter().any(|&u2| doc.parent(u2) == Some(u)),
            ChildCheck::Children(parents) => parents.contains(&u),
            ChildCheck::Descendants(cand) => {
                let from = cand.partition_point(|&u2| u2 <= u);
                cand.get(from).is_some_and(|&u2| u2 <= doc.subtree_end(u))
            }
        }
    }
}

/// Acceleration structure for the top-down pass: does a feasible parent
/// image sit correctly above a given child candidate?
///
/// * c-edge: probe the feasible set with the candidate's parent;
/// * d-edge: among feasible images before `u2` (a prefix of the ascending
///   list), an ancestor exists iff the furthest subtree end in that prefix
///   reaches `u2`.
enum ParentCheck<'f> {
    Linear(&'f [DataNodeId]),
    Indexed { feasible: &'f [DataNodeId], set: FxHashSet<DataNodeId>, reach: Vec<u32> },
}

impl<'f> ParentCheck<'f> {
    fn build(feasible: &'f [DataNodeId], doc: &Document) -> Self {
        if feasible.len() <= SMALL_LIST {
            return ParentCheck::Linear(feasible);
        }
        debug_assert!(feasible.windows(2).all(|w| w[0] < w[1]));
        ParentCheck::Indexed {
            feasible,
            set: feasible.iter().copied().collect(),
            reach: prefix_max_end(doc, feasible),
        }
    }

    fn has_image_above(&self, u2: DataNodeId, edge: EdgeKind, doc: &Document) -> bool {
        match self {
            ParentCheck::Linear(feasible) => feasible.iter().any(|&u| match edge {
                EdgeKind::Child => doc.parent(u2) == Some(u),
                EdgeKind::Descendant => doc.is_proper_ancestor(u, u2),
            }),
            ParentCheck::Indexed { feasible, set, reach } => match edge {
                EdgeKind::Child => doc.parent(u2).is_some_and(|p| set.contains(&p)),
                EdgeKind::Descendant => reach[feasible.partition_point(|&p| p < u2)] > u2.0,
            },
        }
    }
}

/// A prepared matcher for one `(pattern, document)` pair. Build once with
/// [`Matcher::new`], then query candidates, feasibility, answers and
/// counts without recomputation. Node ids it returns are the caller's,
/// also when the document had to be renumbered in pre-order.
pub struct Matcher<'a> {
    pattern: &'a TreePattern,
    doc: PreOrdered<'a>,
    /// `cand[v]`: subtree-embedding candidates, ascending.
    cand: Vec<Vec<DataNodeId>>,
    /// `feasible[v]`: candidates reachable in a full embedding.
    feasible: Vec<Vec<DataNodeId>>,
}

impl<'a> Matcher<'a> {
    /// Build candidate and feasibility tables for `pattern` on `doc`. The
    /// bottom-up candidate pass spends one guard step per candidate
    /// examined and the top-down pass one per feasibility probe, so a
    /// deadline or budget trips mid-build on large documents. Passes the
    /// `match.build` failpoint once on entry.
    ///
    /// ```
    /// use tpq_base::{Guard, TypeInterner};
    /// use tpq_data::parse_xml;
    /// use tpq_match::Matcher;
    /// use tpq_pattern::parse_pattern;
    ///
    /// let mut tys = TypeInterner::new();
    /// let q = parse_pattern("a*//b", &mut tys).unwrap();
    /// let doc = parse_xml("<a><b/><c><b/></c></a>", &mut tys).unwrap();
    /// let m = Matcher::new(&q, &doc, &Guard::unlimited()).unwrap();
    /// assert_eq!(m.answers().len(), 1);
    /// assert_eq!(m.count_embeddings(), 2);
    /// ```
    pub fn new(pattern: &'a TreePattern, doc: &'a Document, guard: &Guard) -> Result<Self> {
        failpoint::hit("match.build")?;
        let _span = tpq_obs::span!("match.build");
        let doc = PreOrdered::new(doc);
        let index = {
            let _s = tpq_obs::span!("match.index");
            DocIndex::build(&doc)
        };
        let cand_span = tpq_obs::span!("match.candidates");
        let mut cand: Vec<Vec<DataNodeId>> = vec![Vec::new(); pattern.arena_len()];
        // Bottom-up candidates.
        for v in pattern.post_order() {
            let node = pattern.node(v);
            let mut list: Vec<DataNodeId> = {
                // Seed from the rarest type's list, then check the full
                // type set and the value conditions.
                let seed = node
                    .types
                    .iter()
                    .min_by_key(|t| index.nodes_of_type(*t).len())
                    .expect("non-empty type set");
                index
                    .nodes_of_type(seed)
                    .iter()
                    .copied()
                    .filter(|&u| {
                        doc.has_types(u, &node.types)
                            && tpq_pattern::condition::satisfied_by(&node.conditions, doc.attrs(u))
                    })
                    .collect()
            };
            guard.spend(list.len() as u64 + 1)?;
            let children: Vec<NodeId> =
                node.children.iter().copied().filter(|&c| pattern.is_alive(c)).collect();
            if !children.is_empty() {
                // Structural-join style checks: O(1)/O(log k) per
                // candidate instead of scanning child candidate lists.
                let checks: Vec<ChildCheck> = children
                    .iter()
                    .map(|&w| ChildCheck::build(pattern.node(w).edge, &cand[w.index()], &doc))
                    .collect();
                list.retain(|&u| checks.iter().all(|c| c.has_image_below(u, &doc)));
            }
            cand[v.index()] = list;
        }
        if tpq_obs::enabled() {
            let total: usize = cand.iter().map(Vec::len).sum();
            tpq_obs::incr("match.candidates", total as u64);
        }
        drop(cand_span);
        // Top-down feasibility.
        let _join_span = tpq_obs::span!("match.join");
        let mut feasible: Vec<Vec<DataNodeId>> = vec![Vec::new(); pattern.arena_len()];
        feasible[pattern.root().index()] = cand[pattern.root().index()].clone();
        for v in pattern.pre_order() {
            let parents = &feasible[v.index()];
            let parent_check = ParentCheck::build(parents, &doc);
            let mut results: Vec<(NodeId, Vec<DataNodeId>)> = Vec::new();
            for &w in &pattern.node(v).children {
                if !pattern.is_alive(w) {
                    continue;
                }
                guard.spend(cand[w.index()].len() as u64 + 1)?;
                let edge = pattern.node(w).edge;
                let filtered: Vec<DataNodeId> = cand[w.index()]
                    .iter()
                    .copied()
                    .filter(|&u2| parent_check.has_image_above(u2, edge, &doc))
                    .collect();
                results.push((w, filtered));
            }
            for (w, filtered) in results {
                feasible[w.index()] = filtered;
            }
        }
        Ok(Matcher { pattern, doc, cand, feasible })
    }

    /// Does at least one embedding exist?
    pub fn matches(&self) -> bool {
        !self.cand[self.pattern.root().index()].is_empty()
    }

    /// Data nodes the output node binds to across all embeddings, in
    /// document order.
    pub fn answers(&self) -> Vec<DataNodeId> {
        self.doc.to_caller(self.feasible[self.pattern.output().index()].clone())
    }

    /// Subtree-embedding candidates of a pattern node (phase 1 result), in
    /// document order.
    pub fn candidates(&self, v: NodeId) -> Vec<DataNodeId> {
        self.doc.to_caller(self.cand[v.index()].clone())
    }

    /// Total number of embeddings (may be exponential in value; saturates
    /// at `u64::MAX`). Computed bottom-up in O(|Q| · |D| log |D|): per
    /// pattern node, one count per candidate, where a candidate's count is
    /// the product over pattern children of the summed counts of the
    /// child's candidates below it.
    pub fn count_embeddings(&self) -> u64 {
        let doc = &self.doc;
        // `count[v][i]`: embeddings of `v`'s subtree with `v ↦ cand[v][i]`.
        let mut count: Vec<Vec<u64>> = vec![Vec::new(); self.pattern.arena_len()];
        for v in self.pattern.post_order() {
            let cand = &self.cand[v.index()];
            let mut counts = vec![1u64; cand.len()];
            for &w in &self.pattern.node(v).children {
                if !self.pattern.is_alive(w) {
                    continue;
                }
                let below = &self.cand[w.index()];
                let below_counts = &count[w.index()];
                match self.pattern.node(w).edge {
                    EdgeKind::Child => {
                        let mut by_parent: tpq_base::FxHashMap<DataNodeId, u64> =
                            tpq_base::FxHashMap::default();
                        for (&u2, &c) in below.iter().zip(below_counts) {
                            if let Some(p) = doc.parent(u2) {
                                let sum = by_parent.entry(p).or_insert(0);
                                *sum = sum.saturating_add(c);
                            }
                        }
                        for (&u, n) in cand.iter().zip(&mut counts) {
                            *n = n.saturating_mul(by_parent.get(&u).copied().unwrap_or(0));
                        }
                    }
                    EdgeKind::Descendant => {
                        // Candidates ascend in document order, so the ones
                        // below `u` are a contiguous run; u128 prefix sums of
                        // u64 counts cannot overflow.
                        let mut prefix = vec![0u128; below.len() + 1];
                        for (i, &c) in below_counts.iter().enumerate() {
                            prefix[i + 1] = prefix[i] + u128::from(c);
                        }
                        for (&u, n) in cand.iter().zip(&mut counts) {
                            let lo = below.partition_point(|&p| p <= u);
                            let hi = below.partition_point(|&p| p <= doc.subtree_end(u));
                            let sum = u64::try_from(prefix[hi] - prefix[lo]).unwrap_or(u64::MAX);
                            *n = n.saturating_mul(sum);
                        }
                    }
                }
            }
            count[v.index()] = counts;
        }
        count[self.pattern.root().index()].iter().fold(0u64, |a, &c| a.saturating_add(c))
    }

    /// Enumerate up to `limit` full embeddings as pattern-node →
    /// data-node maps. Enumeration walks the (already pruned) candidate
    /// sets top-down, so each partial assignment extends to at least one
    /// embedding — no dead-end backtracking.
    pub fn embeddings(&self, limit: usize) -> Vec<tpq_base::FxHashMap<NodeId, DataNodeId>> {
        let _span = tpq_obs::span!("match.enumerate");
        let mut out = Vec::new();
        if limit == 0 || !self.matches() {
            return out;
        }
        let order = self.pattern.pre_order();
        let mut binding: tpq_base::FxHashMap<NodeId, DataNodeId> = tpq_base::FxHashMap::default();
        self.enumerate(&order, 0, &mut binding, limit, &mut out);
        tpq_obs::incr("match.embeddings", out.len() as u64);
        out
    }

    fn enumerate(
        &self,
        order: &[NodeId],
        i: usize,
        binding: &mut tpq_base::FxHashMap<NodeId, DataNodeId>,
        limit: usize,
        out: &mut Vec<tpq_base::FxHashMap<NodeId, DataNodeId>>,
    ) {
        if out.len() == limit {
            return;
        }
        if i == order.len() {
            out.push(binding.iter().map(|(&v, &u)| (v, self.doc.caller_id(u))).collect());
            return;
        }
        let v = order[i];
        let parent_img = self.pattern.node(v).parent.map(|p| binding[&p]);
        let edge = self.pattern.node(v).edge;
        for &u in &self.cand[v.index()] {
            if let Some(pu) = parent_img {
                let ok = match edge {
                    EdgeKind::Child => self.doc.parent(u) == Some(pu),
                    EdgeKind::Descendant => self.doc.is_proper_ancestor(pu, u),
                };
                if !ok {
                    continue;
                }
            }
            binding.insert(v, u);
            self.enumerate(order, i + 1, binding, limit, out);
            binding.remove(&v);
            if out.len() == limit {
                return;
            }
        }
    }
}

/// One-shot: the answer set of `pattern` on `doc` (unsorted, duplicate
/// free).
pub fn answer_set(pattern: &TreePattern, doc: &Document) -> Vec<DataNodeId> {
    Matcher::new(pattern, doc, &Guard::unlimited())
        .expect("unlimited guard cannot trip and no failpoint is armed")
        .answers()
}

/// Answer sets per tree of a forest, as `(tree_index, node)` pairs.
pub fn answer_set_forest(
    pattern: &TreePattern,
    forest: &tpq_data::Forest,
) -> Vec<(usize, DataNodeId)> {
    forest
        .trees
        .iter()
        .enumerate()
        .flat_map(|(i, doc)| answer_set(pattern, doc).into_iter().map(move |n| (i, n)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpq_base::TypeInterner;
    use tpq_data::parse_xml;
    use tpq_pattern::parse_pattern;

    fn setup(q: &str, xml: &str) -> (TreePattern, Document, TypeInterner) {
        let mut tys = TypeInterner::new();
        let p = parse_pattern(q, &mut tys).unwrap();
        let d = parse_xml(xml, &mut tys).unwrap();
        (p, d, tys)
    }

    fn build<'a>(p: &'a TreePattern, d: &'a Document) -> Matcher<'a> {
        Matcher::new(p, d, &Guard::unlimited()).unwrap()
    }

    #[test]
    fn single_node_pattern_matches_every_node_of_type() {
        let (p, d, _) = setup("b*", "<a><b/><c><b/></c></a>");
        let mut answers = answer_set(&p, &d);
        answers.sort_unstable();
        assert_eq!(answers.len(), 2);
        assert!(build(&p, &d).matches());
    }

    #[test]
    fn c_edge_requires_direct_child() {
        let (p, d, _) = setup("a/b*", "<a><x><b/></x></a>");
        assert!(!build(&p, &d).matches());
        let (p2, d2, _) = setup("a//b*", "<a><x><b/></x></a>");
        assert_eq!(answer_set(&p2, &d2).len(), 1);
    }

    #[test]
    fn answers_respect_ancestor_constraints() {
        // Only b nodes under an a count, not the stray one.
        let (p, d, _) = setup("a//b*", "<r><a><b/></a><b/></r>");
        let answers = answer_set(&p, &d);
        assert_eq!(answers.len(), 1);
        // The answer is the b inside a (data node 2 in document order).
        assert_eq!(d.parent(answers[0]).map(|p| p.index()), Some(1));
    }

    #[test]
    fn multi_branch_pattern() {
        let (p, d, _) = setup(
            "Dept*[//Manager][//DBProject]",
            "<Org>\
               <Dept><Manager/><DBProject/></Dept>\
               <Dept><Manager/></Dept>\
               <Dept><DBProject/></Dept>\
             </Org>",
        );
        assert_eq!(answer_set(&p, &d).len(), 1, "only the first Dept has both");
    }

    #[test]
    fn multi_typed_pattern_node_needs_all_types() {
        let mut tys = TypeInterner::new();
        let mut p = parse_pattern("Org*/Employee", &mut tys).unwrap();
        let person = tys.intern("Person");
        let emp_node = p.node(p.root()).children[0];
        p.node_mut(emp_node).types.insert(person);
        let d = parse_xml(r#"<Org><Employee/><Employee also="Person"/></Org>"#, &mut tys).unwrap();
        let m = build(&p, &d);
        assert_eq!(m.candidates(emp_node).len(), 1, "only the multi-typed node");
        assert!(m.matches());
    }

    #[test]
    fn count_embeddings_product_shape() {
        // a with two b-children: pattern a*[//b][//b] has 2×2 embeddings
        // per a... both b branches range independently.
        let (p, d, _) = setup("a*[//b][//b]", "<a><b/><b/></a>");
        assert_eq!(build(&p, &d).count_embeddings(), 4);
        let (p2, d2, _) = setup("a*//b", "<a><b/><b/></a>");
        assert_eq!(build(&p2, &d2).count_embeddings(), 2);
    }

    #[test]
    fn counting_is_polynomial_on_a_deep_chain() {
        // Every `a//a//…` embedding into a chain picks an increasing run of
        // depths, so there are C(150, k); plain recursion over candidate
        // pairs would take exponential time here.
        let xml = format!("{}{}", "<a>".repeat(150), "</a>".repeat(150));
        let (p4, d, mut tys) = setup("a*//a//a//a", &xml);
        assert_eq!(build(&p4, &d).count_embeddings(), 20_260_275);
        let p6 = parse_pattern("a*//a//a//a//a//a", &mut tys).unwrap();
        assert_eq!(build(&p6, &d).count_embeddings(), 14_297_000_725);
        let c2 = parse_pattern("a*/a//a", &mut tys).unwrap();
        // A c-edge pins the second node: 149 parent/child pairs, each with
        // every deeper node below.
        assert_eq!(build(&c2, &d).count_embeddings(), (0..149u64).map(|i| 148 - i).sum::<u64>());
    }

    #[test]
    fn counting_saturates_instead_of_overflowing() {
        // 40 `b` leaves under one `a`: a*[//b]×13 has 40^13 > 2^64 embeddings.
        let xml = format!("<a>{}</a>", "<b/>".repeat(40));
        let q = format!("a*{}", "[//b]".repeat(13));
        let (p, d, _) = setup(&q, &xml);
        assert_eq!(build(&p, &d).count_embeddings(), u64::MAX);
    }

    #[test]
    fn descendant_is_proper_on_data_too() {
        let (p, d, _) = setup("a//a*", "<a/>");
        assert!(!build(&p, &d).matches());
        let (p2, d2, _) = setup("a//a*", "<a><a/></a>");
        assert_eq!(answer_set(&p2, &d2).len(), 1);
    }

    #[test]
    fn pattern_root_floats_anywhere() {
        let (p, d, _) = setup("b*/c", "<a><x><b><c/></b></x></a>");
        assert_eq!(answer_set(&p, &d).len(), 1);
    }

    #[test]
    fn no_match_empty_answers() {
        let (p, d, _) = setup("z*", "<a><b/></a>");
        assert!(!build(&p, &d).matches());
        assert!(answer_set(&p, &d).is_empty());
        assert_eq!(build(&p, &d).count_embeddings(), 0);
    }

    #[test]
    fn forest_answers_tag_tree_index() {
        let mut tys = TypeInterner::new();
        let p = parse_pattern("b*", &mut tys).unwrap();
        let d1 = parse_xml("<a><b/></a>", &mut tys).unwrap();
        let d2 = parse_xml("<b/>", &mut tys).unwrap();
        let forest = tpq_data::Forest { trees: vec![d1, d2] };
        let answers = answer_set_forest(&p, &forest);
        assert_eq!(answers.len(), 2);
        assert_eq!(answers[0].0, 0);
        assert_eq!(answers[1].0, 1);
    }

    #[test]
    fn embeddings_enumeration_matches_counts() {
        let (p, d, _) = setup("a*[//b][//b]", "<a><b/><b/><b/></a>");
        let m = build(&p, &d);
        assert_eq!(m.count_embeddings(), 9);
        let all = m.embeddings(usize::MAX);
        assert_eq!(all.len(), 9);
        // Every returned map is a valid embedding.
        for emb in &all {
            for v in p.alive_ids() {
                let u = emb[&v];
                assert!(d.has_types(u, &p.node(v).types));
                if let Some(parent) = p.node(v).parent {
                    let pu = emb[&parent];
                    match p.node(v).edge {
                        tpq_pattern::EdgeKind::Child => {
                            assert_eq!(d.parent(u), Some(pu))
                        }
                        tpq_pattern::EdgeKind::Descendant => {
                            assert!(d.is_proper_ancestor(pu, u))
                        }
                    }
                }
            }
        }
        // The limit is honored.
        assert_eq!(m.embeddings(4).len(), 4);
        assert!(m.embeddings(0).is_empty());
    }

    #[test]
    fn embeddings_agree_with_naive_count_on_random_docs() {
        let mut tys = TypeInterner::new();
        for i in 0..4 {
            tys.intern(&format!("t{i}"));
        }
        let doc = tpq_data::generate_document(&tpq_data::DocumentSpec {
            nodes: 30,
            num_types: 4,
            max_fanout: 3,
            extra_type_prob: 0.1,
            seed: 7,
        });
        for q in ["t0*[//t1]//t2", "t1*[/t2][/t3]", "t0*//t0"] {
            let p = parse_pattern(q, &mut tys).unwrap();
            let m = build(&p, &doc);
            assert_eq!(
                m.embeddings(usize::MAX).len() as u64,
                crate::naive::count_embeddings_naive(&p, &doc, &Guard::unlimited()).unwrap(),
                "{q}"
            );
        }
    }

    #[test]
    fn equivalent_patterns_same_answers() {
        // Figure 2(h) ≡ 2(i) — check on an actual database.
        let (h, d, mut tys) = setup(
            "OrgUnit*[/Dept/Researcher//DBProject]//Dept//DBProject",
            "<Root>\
               <OrgUnit><Dept><Researcher><X><DBProject/></X></Researcher></Dept></OrgUnit>\
               <OrgUnit><Dept><Researcher/></Dept><Dept><DBProject/></Dept></OrgUnit>\
             </Root>",
        );
        let i = parse_pattern("OrgUnit*/Dept/Researcher//DBProject", &mut tys).unwrap();
        assert!(crate::same_answers(&h, &i, &d));
        // First OrgUnit matches, second does not (its Researcher manages
        // nothing).
        assert_eq!(answer_set(&h, &d).len(), 1);
    }
}
