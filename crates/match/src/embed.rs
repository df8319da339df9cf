//! The evaluator: two semi-join passes over pre-order bit rows.
//!
//! This is the O(|D|·|Q|) candidate pruning of Gottlob, Koch and Schulz
//! ("Conjunctive Queries over Trees", PAPERS.md). On a pre-ordered
//! document a node's id is its pre-order rank and its subtree is the id
//! interval up to [`Document::subtree_end`], so a set of data nodes is one
//! bit row over ids and every structural check below reads rows a word at
//! a time or their set bits in ascending order. The rows and both edge
//! steps are the row kernel of [`tpq_base::rows`], which the minimization
//! engine and the containment test run over patterns.
//!
//! Type rows: one pass over the document's primary-type column, plus its
//! multi-typed nodes, sets one row per distinct type the pattern uses.
//!
//! Phase 1 (bottom-up): for each pattern node `v`, compute `cand(v)` — the
//! data nodes `u` such that the subtree of `v` embeds with `v ↦ u`. The
//! computation mirrors the images pruning of the minimization algorithms:
//! pattern subtrees are independent, so `u ∈ cand(v)` iff `u` carries
//! `v`'s types (the AND of their rows) and its attributes satisfy `v`'s
//! value conditions, and every pattern child has a structurally compatible
//! candidate. A c-edge ANDs the row with the parents of the child's
//! candidates: the candidates in [`Document::first_children`] give theirs
//! as the row shifted down one bit, the others by a scatter. A d-edge
//! keeps `u` when the child's first candidate after `u` is at most
//! `subtree_end(u)`.
//!
//! Phase 2 (top-down): intersect with reachability from the root to get
//! `feasible(v)` — the data nodes that participate in at least one *full*
//! embedding. The answer set is `feasible(output)`, which depends only on
//! the `cand` rows of the root→output path, so the pass walks that path
//! alone.

use crate::PreOrdered;
use tpq_base::rows::{and_into, below, has, keep_parents, ones, retain, set_range, PreOrderTree};
use tpq_base::{failpoint, Guard, Result, TypeId, TypeSet};
use tpq_data::{DataNodeId, DocIndex, Document};
use tpq_pattern::{condition, EdgeKind, NodeId, TreePattern};

/// The set bits of `row` as ascending ids.
fn ids(row: &[u64]) -> Vec<DataNodeId> {
    ones(row, 0).map(DataNodeId).collect()
}

/// A pre-ordered document as the row kernel's tree: every edge is a child
/// edge.
struct DocTree<'d>(&'d Document);

impl PreOrderTree for DocTree<'_> {
    #[inline]
    fn c_parent(&self, u: u32) -> Option<u32> {
        self.0.parent(DataNodeId(u)).map(|p| p.0)
    }

    #[inline]
    fn subtree_end(&self, u: u32) -> u32 {
        self.0.subtree_end(DataNodeId(u)).0
    }

    #[inline]
    fn first_children(&self) -> &[u64] {
        self.0.first_children()
    }
}

/// One row per distinct type a pattern uses, over one document's nodes.
struct TypeRows {
    /// The pattern's types, ascending: row `i` is the nodes of `types[i]`.
    types: Vec<TypeId>,
    words: usize,
    rows: Vec<u64>,
}

impl TypeRows {
    /// One pass over the primary-type column, then the type sets of the
    /// multi-typed nodes. A type's row is found by a table over the small
    /// type ids; ids past the document's size, for which such a table
    /// would dwarf the rows, by binary search.
    fn build(pattern: &TreePattern, doc: &Document) -> Self {
        let mut types: Vec<TypeId> =
            pattern.alive_ids().flat_map(|v| pattern.node(v).types.iter()).collect();
        types.sort_unstable();
        types.dedup();
        // Nodes of a type the pattern does not use go to one extra row.
        let other = types.len();
        let limit = doc.len() + 64;
        let table_len = types.iter().map(|t| t.index() + 1).filter(|&n| n <= limit).max();
        let mut table = vec![other; table_len.unwrap_or(0)];
        for (slot, t) in types.iter().enumerate() {
            if let Some(entry) = table.get_mut(t.index()) {
                *entry = slot;
            }
        }
        let slot = |t: TypeId| match table.get(t.index()) {
            Some(&slot) => slot,
            None => types.binary_search(&t).unwrap_or(other),
        };
        let words = doc.len().div_ceil(64);
        let mut rows = vec![0u64; (other + 1) * words];
        for (w, chunk) in doc.primary_column().chunks(64).enumerate() {
            for (bit, &t) in chunk.iter().enumerate() {
                rows[slot(t) * words + w] |= 1 << bit;
            }
        }
        for &u in doc.multi_typed() {
            for &t in doc.types(u) {
                rows[slot(t) * words + u.index() / 64] |= 1 << (u.0 % 64);
            }
        }
        rows.truncate(other * words);
        TypeRows { types, words, rows }
    }

    /// The nodes that carry every type of `types`.
    fn and_of(&self, types: &TypeSet) -> Vec<u64> {
        let mut rows = types.iter().map(|t| {
            let slot = self.types.binary_search(&t).expect("a type of the pattern");
            &self.rows[slot * self.words..(slot + 1) * self.words]
        });
        let mut row = rows.next().expect("non-empty type set").to_vec();
        for other in rows {
            and_into(&mut row, other);
        }
        row
    }
}

/// A prepared matcher for one `(pattern, document)` pair. Build once with
/// [`Matcher::new`], then query candidates, answers and counts without
/// recomputation. Node ids it returns are the caller's, also when the
/// document had to be renumbered in pre-order.
pub struct Matcher<'a> {
    pattern: &'a TreePattern,
    doc: PreOrdered<'a>,
    /// `cand[v]`: subtree-embedding candidates, one bit per data node.
    cand: Vec<Vec<u64>>,
    /// `feasible(output)`: the answer set, ascending.
    answers: Vec<DataNodeId>,
}

impl<'a> Matcher<'a> {
    /// Build the type rows, the candidate rows and the answer set of
    /// `pattern` on `doc`. One guard step is spent per document node read
    /// by the type pass, and per row word and per visited bit of every
    /// later step, so a deadline or budget trips mid-build on large
    /// documents. Passes the `match.build` failpoint once on entry.
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
        guard.spend(doc.len() as u64)?;
        let types = {
            let _s = tpq_obs::span!("match.index");
            TypeRows::build(pattern, &doc)
        };
        let tree = DocTree(&doc);
        let words = doc.len().div_ceil(64);
        // The parents of a c-edge child's candidates, and the proper
        // descendants of a d-edge parent's feasible nodes.
        let mut scratch = vec![0u64; words];
        let words = words as u64;
        let cand_span = tpq_obs::span!("match.candidates");
        let mut cand: Vec<Vec<u64>> = vec![Vec::new(); pattern.arena_len()];
        for v in pattern.post_order() {
            let node = pattern.node(v);
            let mut row = types.and_of(&node.types);
            guard.spend(words * node.types.len() as u64)?;
            let conditions = pattern.conditions(v);
            if !conditions.is_empty() {
                let seen = retain(&mut row, |u| {
                    condition::satisfied_by(conditions, doc.attrs(DataNodeId(u)))
                });
                guard.spend(seen)?;
            }
            for w in pattern.children(v) {
                let below = &cand[w.index()];
                let child_edge = pattern.node(w).edge == EdgeKind::Child;
                let (seen, _) = keep_parents(&tree, child_edge, &mut row, below, &mut scratch);
                guard.spend(words + seen)?;
            }
            cand[v.index()] = row;
        }
        if tpq_obs::enabled() {
            let total: u32 = cand.iter().flatten().map(|w| w.count_ones()).sum();
            tpq_obs::incr("match.candidates", u64::from(total));
        }
        drop(cand_span);
        let _join_span = tpq_obs::span!("match.join");
        let mut path = vec![pattern.output()];
        while let Some(p) = pattern.node(*path.last().expect("non-empty")).parent {
            path.push(p);
        }
        let root = path.pop().expect("the path ends at the root");
        let mut feasible = cand[root.index()].clone();
        for &w in path.iter().rev() {
            let mut below = cand[w.index()].clone();
            let seen = match pattern.node(w).edge {
                EdgeKind::Child => retain(&mut below, |c| {
                    doc.parent(DataNodeId(c)).is_some_and(|p| has(&feasible, p.0))
                }),
                EdgeKind::Descendant => {
                    // A feasible node's subtree holds every feasible node
                    // nested in it, so the outermost ones cover them all.
                    scratch.fill(0);
                    let mut seen = 0;
                    let mut next = ones(&feasible, 0).next();
                    while let Some(p) = next {
                        seen += 1;
                        let end = tree.subtree_end(p) as usize;
                        set_range(&mut scratch, p as usize + 1, end + 1);
                        next = ones(&feasible, end + 1).next();
                    }
                    and_into(&mut below, &scratch);
                    seen
                }
            };
            guard.spend(words + seen)?;
            feasible = below;
        }
        let answers = ids(&feasible);
        Ok(Matcher { pattern, doc, cand, answers })
    }

    /// Does at least one embedding exist?
    pub fn matches(&self) -> bool {
        self.cand[self.pattern.root().index()].iter().any(|&w| w != 0)
    }

    /// Data nodes the output node binds to across all embeddings, in
    /// document order.
    pub fn answers(&self) -> Vec<DataNodeId> {
        self.doc.to_caller(self.answers.clone())
    }

    /// Subtree-embedding candidates of a pattern node (phase 1 result), in
    /// document order.
    pub fn candidates(&self, v: NodeId) -> Vec<DataNodeId> {
        self.doc.to_caller(ids(&self.cand[v.index()]))
    }

    /// Total number of embeddings (may be exponential in value; saturates
    /// at `u64::MAX`). Computed bottom-up in O(|Q| · |D| log |D|): per
    /// pattern node, one count per candidate, where a candidate's count is
    /// the product over pattern children of the summed counts of the
    /// child's candidates below it.
    pub fn count_embeddings(&self) -> u64 {
        let doc = &self.doc;
        let cand: Vec<Vec<DataNodeId>> = self.cand.iter().map(|row| ids(row)).collect();
        // `count[v][i]`: embeddings of `v`'s subtree with `v ↦ cand[v][i]`.
        let mut count: Vec<Vec<u64>> = vec![Vec::new(); self.pattern.arena_len()];
        for v in self.pattern.post_order() {
            let cand_v = &cand[v.index()];
            let mut counts = vec![1u64; cand_v.len()];
            for w in self.pattern.children(v) {
                let below = &cand[w.index()];
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
                        for (&u, n) in cand_v.iter().zip(&mut counts) {
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
                        for (&u, n) in cand_v.iter().zip(&mut counts) {
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
        let row = &self.cand[v.index()];
        // The candidates of `v` that fit its parent's image: all of them
        // at the root, else the image's children or its subtree's interior.
        let images: Vec<DataNodeId> = match self.pattern.node(v).parent {
            None => ids(row),
            Some(p) => {
                let child_edge = self.pattern.node(v).edge == EdgeKind::Child;
                below(&DocTree(&self.doc), child_edge, binding[&p].0, row).map(DataNodeId).collect()
            }
        };
        for u in images {
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

/// [`answer_set`] under the name of the former twig-join engine, for
/// callers written against it.
pub fn answer_set_twig(pattern: &TreePattern, doc: &Document) -> Vec<DataNodeId> {
    answer_set(pattern, doc)
}

/// [`Matcher::new`]'s answers, under the name of the former twig-join
/// engine and with the [`DocIndex`] argument that engine read, for callers
/// written against it. The matcher builds its own type rows and ignores
/// `index`.
pub fn answer_set_twig_indexed(
    pattern: &TreePattern,
    doc: &Document,
    _index: &DocIndex,
    guard: &Guard,
) -> Result<Vec<DataNodeId>> {
    Matcher::new(pattern, doc, guard).map(|m| m.answers())
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
    use crate::answer_set_naive;
    use tpq_base::{Error, TypeInterner};
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

    /// The answers of `p` on `d`, which must equal the naive oracle's: both
    /// come back in document order.
    fn agree(p: &TreePattern, d: &Document) -> Vec<DataNodeId> {
        let answers = answer_set(p, d);
        assert_eq!(answers, answer_set_naive(p, d, &Guard::unlimited()).unwrap(), "vs naive");
        answers
    }

    fn check(q: &str, xml: &str) -> Vec<DataNodeId> {
        let (p, d, _) = setup(q, xml);
        agree(&p, &d)
    }

    #[test]
    fn single_node_pattern_matches_every_node_of_type() {
        let (p, d, _) = setup("b*", "<a><b/><c><b/></c></a>");
        assert_eq!(agree(&p, &d).len(), 2);
        assert!(build(&p, &d).matches());
    }

    #[test]
    fn c_edge_requires_direct_child() {
        let (p, d, _) = setup("a/b*", "<a><x><b/></x></a>");
        assert!(!build(&p, &d).matches());
        assert_eq!(check("a//b*", "<a><x><b/></x></a>").len(), 1);
    }

    #[test]
    fn answers_respect_ancestor_constraints() {
        // Only b nodes under an a count, not the stray one.
        let (p, d, _) = setup("a//b*", "<r><a><b/></a><b/></r>");
        let answers = agree(&p, &d);
        assert_eq!(answers.len(), 1);
        // The answer is the b inside a (data node 2 in document order).
        assert_eq!(d.parent(answers[0]).map(|p| p.index()), Some(1));
    }

    #[test]
    fn multi_branch_pattern() {
        let answers = check(
            "Dept*[//Manager][//DBProject]",
            "<Org>\
               <Dept><Manager/><DBProject/></Dept>\
               <Dept><Manager/></Dept>\
               <Dept><DBProject/></Dept>\
             </Org>",
        );
        assert_eq!(answers.len(), 1, "only the first Dept has both");
    }

    #[test]
    fn output_below_branching_nodes() {
        // The output sits under a branch sibling; the top-down pass must
        // respect satisfaction of the off-path branch.
        let answers = check(
            "Dept[//Manager]//Project*",
            "<Org>\
               <Dept><Manager/><Project/></Dept>\
               <Dept><Project/></Dept>\
             </Org>",
        );
        assert_eq!(answers.len(), 1);
    }

    #[test]
    fn self_overlap_chains() {
        // a//a and deeper chains: the same data node is a candidate of
        // several pattern nodes, nested inside its own candidates.
        assert!(check("a//a*", "<a/>").is_empty());
        assert_eq!(check("a//a*", "<a><a/></a>").len(), 1);
        assert_eq!(check("a//a*", "<a><a><a/></a></a>").len(), 2);
        assert_eq!(check("a//a//a*", "<a><a><a><a/></a></a></a>").len(), 2);
        assert_eq!(check("a/a*", "<a><a><a/></a></a>").len(), 2);
        assert_eq!(check("a*//a", "<a><b><a/></b></a>").len(), 1);
    }

    #[test]
    fn deep_output_chain() {
        assert_eq!(check("a//b//c*", "<a><x><b><y><c/></y></b></x><c/></a>").len(), 1);
        assert_eq!(check("a/b/c*", "<a><b><c/></b><c/></a>").len(), 1);
    }

    #[test]
    fn multi_typed_pattern_node_needs_all_types() {
        let mut tys = TypeInterner::new();
        let mut p = parse_pattern("Org*/Employee", &mut tys).unwrap();
        let person = tys.intern("Person");
        let emp_node = p.children(p.root()).next().unwrap();
        p.node_mut(emp_node).types.insert(person);
        let d = parse_xml(r#"<Org><Employee/><Employee also="Person"/></Org>"#, &mut tys).unwrap();
        let m = build(&p, &d);
        assert_eq!(m.candidates(emp_node).len(), 1, "only the multi-typed node");
        assert!(m.matches());
        assert_eq!(agree(&p, &d).len(), 1);
    }

    #[test]
    fn value_conditions_filter_the_seed_list() {
        let mut tys = TypeInterner::new();
        let p = parse_pattern(r#"Book*{price<50}"#, &mut tys).unwrap();
        let d = parse_xml(r#"<Shop><Book price="95"/><Book price="12"/><Book/></Shop>"#, &mut tys)
            .unwrap();
        assert_eq!(agree(&p, &d).len(), 1);
    }

    #[test]
    fn wide_documents_with_interleaved_siblings() {
        // Sibling subtrees interleave candidates of different pattern
        // nodes, so the merge pointers skip whole subtrees.
        let xml = "<r>\
            <a><b/><c/></a><a><c/></a><b/><a><b><c/></b></a>\
            <x><a><b/></a></x><c/>\
        </r>";
        for q in ["a*[//b]", "a*[/b][/c]", "r[//c]//a//b*", "a//c*"] {
            check(q, xml);
        }
    }

    #[test]
    fn wide_pattern_over_sixty_four_children() {
        // More than 64 children on one pattern node.
        let mut tys = TypeInterner::new();
        let n = 70;
        let q: String =
            std::iter::once("r*".to_owned()).chain((0..n).map(|i| format!("[//t{i}]"))).collect();
        let p = parse_pattern(&q, &mut tys).unwrap();
        let leaves: String = (0..n).map(|i| format!("<t{i}/>")).collect();
        let d = parse_xml(&format!("<top><r>{leaves}</r><r><t0/></r></top>"), &mut tys).unwrap();
        assert_eq!(agree(&p, &d).len(), 1);
    }

    #[test]
    fn guard_budget_trips_to_err_not_wrong_answers() {
        let (p, d, _) = setup("a//b*", "<a><b/><b/><b/><b/></a>");
        let index = DocIndex::build(&d);
        for guard in [Guard::with_budget(3), Guard::with_budget(9)] {
            match Matcher::new(&p, &d, &guard) {
                Err(Error::Budget { .. }) => {}
                Err(e) => panic!("expected a budget trip, got {e:?}"),
                Ok(_) => panic!("expected a budget trip, got answers"),
            }
        }
        let guard = Guard::with_budget(u64::MAX);
        let answers = answer_set_twig_indexed(&p, &d, &index, &guard).unwrap();
        assert_eq!(answers, agree(&p, &d));
        assert!(guard.spent() > 9, "spent {}", guard.spent());
    }

    #[test]
    fn guard_charges_of_a_child_chain_are_pinned() {
        // 1 + 20 × (7 + 5) = 241 nodes over four words; the matching `a`
        // and `b` nodes are first children and later children.
        let sections = "<s><a><b/></a><c/><a><b/><b/></a></s><s><c/><a><c/><b/></a></s>";
        let (p, d, _) = setup("r/s/a/b*", &format!("<r>{}</r>", sections.repeat(20)));
        assert_eq!(d.len(), 241);
        let guard = Guard::with_budget(u64::MAX);
        let m = Matcher::new(&p, &d, &guard).unwrap();
        assert_eq!(m.answers().len(), 80);
        assert_eq!(guard.spent(), 641, "the charges of one complete build");
    }

    #[test]
    fn indexed_entry_point_equals_the_matcher() {
        let (p, d, mut tys) = setup("a//b*", "<a><b/><c><b/></c></a>");
        let index = DocIndex::build(&d);
        let p2 = parse_pattern("c/b*", &mut tys).unwrap();
        let g = Guard::unlimited();
        for (q, want) in [(&p, 2), (&p2, 1)] {
            let answers = answer_set_twig_indexed(q, &d, &index, &g).unwrap();
            assert_eq!(answers.len(), want);
            assert_eq!(answers, agree(q, &d));
            assert_eq!(answer_set_twig(q, &d), answers);
        }
    }

    #[test]
    fn match_build_failpoint_injects() {
        let (p, d, _) = setup("a*", "<a/>");
        let index = DocIndex::build(&d);
        let g = Guard::unlimited();
        for indexed in [false, true] {
            let _fp = failpoint::arm_for_thread("match.build", failpoint::Action::Err, 1);
            let got = if indexed {
                answer_set_twig_indexed(&p, &d, &index, &g)
            } else {
                Matcher::new(&p, &d, &g).map(|m| m.answers())
            };
            assert_eq!(got.unwrap_err(), Error::Injected { point: "match.build".into() });
        }
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
        assert_eq!(check("a//a*", "<a><a/></a>").len(), 1);
    }

    #[test]
    fn pattern_root_floats_anywhere() {
        assert_eq!(check("b*/c", "<a><x><b><c/></b></x></a>").len(), 1);
    }

    #[test]
    fn no_match_empty_answers() {
        let (p, d, _) = setup("z*", "<a><b/></a>");
        assert!(!build(&p, &d).matches());
        assert!(agree(&p, &d).is_empty());
        assert!(check("a/z*", "<a><b/></a>").is_empty());
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
