//! Holistic twig-join evaluation over a pre-ordered document.
//!
//! TwigStack-style matching (see "A Survey of XML Tree Patterns" in
//! PAPERS.md) on the region encoding: a node's id is its pre-order rank
//! and its subtree is the id interval up to
//! [`Document::subtree_end`]. Every alive pattern node is fed from the
//! type list of its rarest ("seed") type in the document's [`DocIndex`],
//! filtered lazily by its full type set and value conditions. Pattern
//! nodes that share a seed type share one *stream* (one cursor), so each
//! type list is read once per query however often the type repeats in the
//! pattern. The streams are merged into one document-order sweep by
//! bucketing their elements on id (a pass over the id range instead of a
//! heap sift per element), and each element is offered to every member of
//! its stream in `alive_ids` order.
//! The sweep maintains a single *spine* of frames (one frame per live
//! (pattern node, data node) pair whose data node is an ancestor-or-self of
//! the sweep position) plus, per pattern node, a stack of spine positions.
//! Because frames pop in post-order, a frame knows by pop time whether
//! every pattern child found a correctly-related match below it; satisfied
//! frames propagate one bit into their parent's frames.
//!
//! Memory stays O(document depth × pattern size) during the sweep — no
//! per-pattern-node candidate vectors. Only the nodes on the root→output
//! path record their satisfied matches, and a final top-down pass filters
//! those path lists to the answer set, which is exactly
//! [`embed::Matcher::answers`](crate::embed::Matcher::answers) (same
//! contents, same pre-order).
//!
//! Two soundness notes, mirrored by `debug_assert`s below:
//!
//! * **Push pruning.** A stream hit `(v, u)` is discarded unless `v`'s
//!   pattern parent currently holds a frame in the required relation to
//!   `u` (its parent for a c-edge, any proper ancestor for a d-edge). By
//!   induction over pattern ancestors this keeps every data node that
//!   participates in a full embedding, so the recorded path lists sit
//!   between the true feasible sets and the unpruned candidate sets — the
//!   final path filter then yields exactly the feasible output set.
//! * **Propagation early-stop.** Satisfied-child bits are set on parent
//!   frames from the deepest up, stopping at the first frame that already
//!   has the bit: set-regions of a stack are always closed toward the
//!   stack bottom, so everything below the stop point is already marked.

use crate::{prefix_max_end, PreOrdered};
use tpq_base::{failpoint, FxHashMap, FxHashSet, Guard, Result, TypeId};
use tpq_data::{DataNodeId, DocIndex, Document};
use tpq_pattern::{condition, EdgeKind, NodeId, TreePattern};

/// One-shot: the answer set of `pattern` on `doc` via the twig join.
/// Document-order sorted and duplicate-free, byte-identical to
/// [`crate::answer_set`].
pub fn answer_set_twig(pattern: &TreePattern, doc: &Document) -> Vec<DataNodeId> {
    let doc = PreOrdered::new(doc);
    let index = {
        let _s = tpq_obs::span!("twig.index");
        DocIndex::build(&doc)
    };
    let answers = answer_set_twig_indexed(pattern, &doc, &index, &Guard::unlimited())
        .expect("unlimited guard cannot trip and no failpoint is armed");
    doc.to_caller(answers)
}

/// The twig join over a caller-provided [`DocIndex`] of `doc` — the entry
/// point for matching many patterns against one indexed document without
/// rebuilding the index per query. A document whose ids are not in
/// pre-order is renumbered and indexed afresh, and its answers come back
/// in its own ids. One guard step is spent per stream element examined for
/// each pattern node the stream feeds, per accepted (pattern node, element)
/// pair, and per satisfied-bit propagation, so budgets and deadlines trip
/// mid-sweep on large documents. Passes the `match.build` failpoint once
/// on entry.
pub fn answer_set_twig_indexed(
    pattern: &TreePattern,
    doc: &Document,
    index: &DocIndex,
    guard: &Guard,
) -> Result<Vec<DataNodeId>> {
    failpoint::hit("match.build")?;
    if !doc.is_pre_order() {
        let doc = PreOrdered::new(doc);
        let index = DocIndex::build(&doc);
        return join(pattern, &doc, &index, guard).map(|answers| doc.to_caller(answers));
    }
    join(pattern, doc, index, guard)
}

/// The twig join proper, on a pre-ordered document.
fn join(
    pattern: &TreePattern,
    doc: &Document,
    index: &DocIndex,
    guard: &Guard,
) -> Result<Vec<DataNodeId>> {
    let _span = tpq_obs::span!("twig.match");
    let shape = PatternShape::new(pattern);
    let mut sweep = Sweep::new(pattern, doc, index, &shape);
    sweep.run(guard)?;
    sweep.answers(guard)
}

/// Immutable per-pattern tables the sweep indexes by arena position.
struct PatternShape {
    /// Alive children per node (arena-indexed; dead slots empty).
    alive_children: Vec<Vec<NodeId>>,
    /// Position of each node within its parent's alive-children list.
    slot: Vec<u32>,
    /// The root→output chain.
    path: Vec<NodeId>,
    /// Arena-indexed position on `path`, if any.
    path_pos: Vec<Option<usize>>,
}

impl PatternShape {
    fn new(pattern: &TreePattern) -> Self {
        let arena = pattern.arena_len();
        let mut alive_children: Vec<Vec<NodeId>> = vec![Vec::new(); arena];
        let mut slot = vec![0u32; arena];
        for v in pattern.alive_ids() {
            let kids: Vec<NodeId> =
                pattern.node(v).children.iter().copied().filter(|&c| pattern.is_alive(c)).collect();
            for (i, &c) in kids.iter().enumerate() {
                slot[c.index()] = i as u32;
            }
            alive_children[v.index()] = kids;
        }
        let mut path = vec![pattern.output()];
        while let Some(p) = pattern.node(*path.last().expect("non-empty")).parent {
            path.push(p);
        }
        path.reverse();
        debug_assert_eq!(path[0], pattern.root(), "output chain must reach the root");
        let mut path_pos: Vec<Option<usize>> = vec![None; arena];
        for (i, &v) in path.iter().enumerate() {
            path_pos[v.index()] = Some(i);
        }
        PatternShape { alive_children, slot, path, path_pos }
    }
}

/// Which-children-matched bits of one frame. Patterns wider than 64
/// children spill to the heap; everything else stays inline.
enum Mask {
    Small(u64),
    Large(Box<[u64]>),
}

impl Mask {
    fn new(children: usize) -> Self {
        if children <= 64 {
            Mask::Small(0)
        } else {
            Mask::Large(vec![0u64; children.div_ceil(64)].into_boxed_slice())
        }
    }

    /// Set bit `i`; returns whether it was newly set.
    fn set(&mut self, i: u32) -> bool {
        match self {
            Mask::Small(bits) => {
                let m = 1u64 << i;
                let newly = *bits & m == 0;
                *bits |= m;
                newly
            }
            Mask::Large(words) => {
                let (w, m) = ((i / 64) as usize, 1u64 << (i % 64));
                let newly = words[w] & m == 0;
                words[w] |= m;
                newly
            }
        }
    }
}

/// A live (pattern node, data node) pair on the spine.
struct Frame {
    /// Arena index of the pattern node.
    v: u32,
    u: DataNodeId,
    /// The last node of `u`'s subtree: the frame stays live while the
    /// sweep position is at most this.
    last: DataNodeId,
    /// Alive children whose subtree match is still missing.
    need: u32,
    seen: Mask,
}

/// One pattern node fed by a [`Stream`].
struct Member {
    v: NodeId,
    /// Type set exactly `{seed}` and no value conditions: every list
    /// element qualifies without reading its types or attributes.
    exact: bool,
}

/// One seed type's stream: the index list of the type, shared by
/// every alive pattern node whose rarest type it is, so each list is read
/// once per query however many pattern nodes it feeds.
struct Stream<'a> {
    list: &'a [DataNodeId],
    pos: usize,
    /// Pattern nodes seeded by this list, in `alive_ids` order.
    members: Vec<Member>,
    /// Members whose full type set and conditions the last element read
    /// satisfies, in member order.
    hits: Vec<NodeId>,
}

impl Stream<'_> {
    /// Read the next list element and record which members accept it,
    /// spending one step per member.
    fn next(&mut self, pattern: &TreePattern, doc: &Document, guard: &Guard) -> Result<DataNodeId> {
        let u = self.list[self.pos];
        self.pos += 1;
        guard.spend(self.members.len() as u64)?;
        self.hits.clear();
        for m in &self.members {
            let node = pattern.node(m.v);
            if m.exact
                || (doc.has_types(u, &node.types)
                    && condition::satisfied_by(&node.conditions, doc.attrs(u)))
            {
                self.hits.push(m.v);
            }
        }
        Ok(u)
    }
}

struct Sweep<'a> {
    pattern: &'a TreePattern,
    doc: &'a Document,
    shape: &'a PatternShape,
    streams: Vec<Stream<'a>>,
    /// Push-ordered live frames; always a nesting chain (each frame's data
    /// node is an ancestor-or-self of every data node above it).
    spine: Vec<Frame>,
    /// Per pattern node (arena-indexed): spine positions of its frames,
    /// bottom = highest ancestor.
    stacks: Vec<Vec<u32>>,
    /// Satisfied matches of the root→output path nodes, in pop order.
    path_cand: Vec<Vec<DataNodeId>>,
}

impl<'a> Sweep<'a> {
    fn new(
        pattern: &'a TreePattern,
        doc: &'a Document,
        index: &'a DocIndex,
        shape: &'a PatternShape,
    ) -> Self {
        let mut streams: Vec<Stream<'a>> = Vec::new();
        let mut by_seed: FxHashMap<TypeId, usize> = FxHashMap::default();
        for v in pattern.alive_ids() {
            let node = pattern.node(v);
            let seed = node
                .types
                .iter()
                .min_by_key(|t| index.nodes_of_type(*t).len())
                .expect("non-empty type set");
            let exact = node.types.len() == 1 && node.conditions.is_empty();
            let si = *by_seed.entry(seed).or_insert_with(|| {
                streams.push(Stream {
                    list: index.nodes_of_type(seed),
                    pos: 0,
                    members: Vec::new(),
                    hits: Vec::new(),
                });
                streams.len() - 1
            });
            streams[si].members.push(Member { v, exact });
        }
        Sweep {
            pattern,
            doc,
            shape,
            streams,
            spine: Vec::new(),
            stacks: vec![Vec::new(); pattern.arena_len()],
            path_cand: vec![Vec::new(); shape.path.len()],
        }
    }

    /// Merge the streams in document order, maintaining the spine.
    fn run(&mut self, guard: &Guard) -> Result<()> {
        let _span = tpq_obs::span!("twig.sweep");
        // Bucket every stream element on its id: `first[p - lo]` starts the
        // chain of streams whose next element is node `p`, and each event
        // links to the next one. Linking the streams last to first leaves
        // every chain in stream order. A stream's events come up in list
        // order, so its cursor yields the event's data node.
        const END: u32 = u32::MAX;
        let lists = self.streams.iter().map(|s| s.list).filter(|l| !l.is_empty());
        let lo = lists.clone().map(|l| l[0].0).min().unwrap_or(0);
        let hi = lists.clone().map(|l| l[l.len() - 1].0 + 1).max().unwrap_or(0);
        let mut first = vec![END; (hi - lo) as usize];
        let mut events: Vec<(u32, u32)> = Vec::with_capacity(lists.map(<[_]>::len).sum());
        for (si, s) in self.streams.iter().enumerate().rev() {
            for &u in s.list {
                let slot = &mut first[(u.0 - lo) as usize];
                events.push((si as u32, *slot));
                *slot = (events.len() - 1) as u32;
            }
        }
        for &head in &first {
            let mut e = head;
            while e != END {
                let (si, next) = events[e as usize];
                e = next;
                let stream = &mut self.streams[si as usize];
                let u = stream.next(self.pattern, self.doc, guard)?;
                if stream.hits.is_empty() {
                    continue;
                }
                let hits = std::mem::take(&mut stream.hits);
                // Retire frames that are not ancestors-or-self of the sweep
                // position; their subtrees are complete.
                while self.spine.last().is_some_and(|f| f.last < u) {
                    self.pop_top(guard)?;
                }
                guard.spend(hits.len() as u64)?;
                for &v in &hits {
                    self.enter(v, u, guard)?;
                }
                self.streams[si as usize].hits = hits;
            }
        }
        while !self.spine.is_empty() {
            self.pop_top(guard)?;
        }
        Ok(())
    }

    /// The sweep reached `u`, which `v`'s stream accepted: open a frame for
    /// `(v, u)` if it can still take part in a full embedding.
    fn enter(&mut self, v: NodeId, u: DataNodeId, guard: &Guard) -> Result<()> {
        if !self.connects_upward(v, u) {
            return Ok(());
        }
        let children = self.shape.alive_children[v.index()].len();
        if children == 0 {
            // Leaf fast path: the frame would be born satisfied, so
            // complete it now instead of touching the spine. The parent
            // frames it targets are identical either way — anything
            // pushed later has a larger id and cannot be an ancestor.
            self.complete(v.index() as u32, u, guard)
        } else {
            self.stacks[v.index()].push(self.spine.len() as u32);
            self.spine.push(Frame {
                v: v.index() as u32,
                u,
                last: self.doc.subtree_end(u),
                need: children as u32,
                seen: Mask::new(children),
            });
            Ok(())
        }
    }

    /// Can a frame for `(v, u)` still take part in a full embedding? True
    /// iff `v` is the pattern root or its parent's stack holds a frame in
    /// the required relation to `u`.
    fn connects_upward(&self, v: NodeId, u: DataNodeId) -> bool {
        let Some(parent_v) = self.pattern.node(v).parent else {
            return true;
        };
        let stack = &self.stacks[parent_v.index()];
        match self.pattern.node(v).edge {
            EdgeKind::Child => {
                // All stacked frames are ancestors-or-self of `u`, so the
                // deepest non-self frame is the only one that can be the
                // parent.
                let parent = self.doc.parent(u);
                for &fi in stack.iter().rev() {
                    let f = &self.spine[fi as usize];
                    if f.u == u {
                        continue;
                    }
                    return parent == Some(f.u);
                }
                false
            }
            EdgeKind::Descendant => {
                // A proper ancestor exists iff the bottom frame is not `u`
                // itself (a self frame can only sit alone at the top).
                stack.first().is_some_and(|&fi| self.spine[fi as usize].u != u)
            }
        }
    }

    fn pop_top(&mut self, guard: &Guard) -> Result<()> {
        let frame = self.spine.pop().expect("pop_top called on a non-empty spine");
        let popped = self.stacks[frame.v as usize].pop();
        debug_assert_eq!(popped, Some(self.spine.len() as u32), "stack/spine desync");
        if frame.need == 0 {
            self.complete(frame.v, frame.u, guard)?;
        }
        Ok(())
    }

    /// `(v, u)`'s subtree fully matched: record it if `v` is on the output
    /// path, and mark the satisfied-child bit on `v`'s parent frames.
    fn complete(&mut self, v: u32, u: DataNodeId, guard: &Guard) -> Result<()> {
        if let Some(pos) = self.shape.path_pos[v as usize] {
            self.path_cand[pos].push(u);
        }
        let vid = NodeId(v);
        let Some(parent_v) = self.pattern.node(vid).parent else {
            return Ok(());
        };
        let slot = self.shape.slot[vid.index()];
        let stack = &self.stacks[parent_v.index()];
        match self.pattern.node(vid).edge {
            EdgeKind::Child => {
                // As in `connects_upward`: the deepest non-self frame is
                // the only one that can be `u`'s parent.
                let parent = self.doc.parent(u);
                for &fi in stack.iter().rev() {
                    let f = &mut self.spine[fi as usize];
                    if f.u == u {
                        continue;
                    }
                    if parent == Some(f.u) && f.seen.set(slot) {
                        f.need -= 1;
                    }
                    break;
                }
            }
            EdgeKind::Descendant => {
                for &fi in stack.iter().rev() {
                    let f = &mut self.spine[fi as usize];
                    if f.u == u {
                        continue;
                    }
                    debug_assert!(self.doc.is_proper_ancestor(f.u, u));
                    if !f.seen.set(slot) {
                        break; // everything below is already marked
                    }
                    guard.spend(1)?;
                    f.need -= 1;
                }
            }
        }
        Ok(())
    }

    /// Filter the recorded path lists top-down into the answer set.
    fn answers(mut self, guard: &Guard) -> Result<Vec<DataNodeId>> {
        let _span = tpq_obs::span!("twig.paths");
        let doc = self.doc;
        let mut feasible = std::mem::take(&mut self.path_cand[0]);
        feasible.sort_unstable();
        for i in 1..self.shape.path.len() {
            let v = self.shape.path[i];
            let edge = self.pattern.node(v).edge;
            let mut cands = std::mem::take(&mut self.path_cand[i]);
            cands.sort_unstable();
            guard.spend(cands.len() as u64 + 1)?;
            feasible = match edge {
                EdgeKind::Child => {
                    let set: FxHashSet<DataNodeId> = feasible.into_iter().collect();
                    cands
                        .into_iter()
                        .filter(|&u| doc.parent(u).is_some_and(|p| set.contains(&p)))
                        .collect()
                }
                EdgeKind::Descendant => {
                    // Among feasible parents before `u`, an ancestor exists
                    // iff the furthest subtree end in that prefix reaches `u`.
                    let reach = prefix_max_end(doc, &feasible);
                    cands
                        .into_iter()
                        .filter(|&u| reach[feasible.partition_point(|&p| p < u)] > u.0)
                        .collect()
                }
            };
        }
        if tpq_obs::enabled() {
            tpq_obs::incr("twig.answers", feasible.len() as u64);
        }
        Ok(feasible)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{answer_set, answer_set_naive};
    use tpq_base::{Error, TypeInterner};
    use tpq_data::parse_xml;
    use tpq_pattern::parse_pattern;

    fn setup(q: &str, xml: &str) -> (TreePattern, Document, TypeInterner) {
        let mut tys = TypeInterner::new();
        let p = parse_pattern(q, &mut tys).unwrap();
        let d = parse_xml(xml, &mut tys).unwrap();
        (p, d, tys)
    }

    /// The twig answers must be byte-identical to the embed matcher's.
    fn check(q: &str, xml: &str) -> Vec<DataNodeId> {
        let (p, d, _) = setup(q, xml);
        let twig = answer_set_twig(&p, &d);
        assert_eq!(twig, answer_set(&p, &d), "{q} on {xml}: disagrees with embed");
        let mut sorted = twig.clone();
        sorted.sort_unstable();
        let naive = answer_set_naive(&p, &d, &Guard::unlimited()).unwrap();
        assert_eq!(sorted, naive, "{q} on {xml}: disagrees with naive");
        twig
    }

    #[test]
    fn single_node_pattern_matches_every_node_of_type() {
        assert_eq!(check("b*", "<a><b/><c><b/></c></a>").len(), 2);
    }

    #[test]
    fn c_edge_requires_direct_child() {
        assert!(check("a/b*", "<a><x><b/></x></a>").is_empty());
        assert_eq!(check("a//b*", "<a><x><b/></x></a>").len(), 1);
    }

    #[test]
    fn answers_respect_ancestor_constraints() {
        let answers = check("a//b*", "<r><a><b/></a><b/></r>");
        assert_eq!(answers.len(), 1);
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
        // The output sits under a branch sibling; the path filter must
        // respect satisfaction of the off-path branch.
        assert_eq!(
            check(
                "Dept[//Manager]//Project*",
                "<Org>\
                   <Dept><Manager/><Project/></Dept>\
                   <Dept><Project/></Dept>\
                 </Org>",
            )
            .len(),
            1
        );
    }

    #[test]
    fn self_overlap_chains() {
        // a//a and deeper chains: the same data node serves several
        // pattern nodes at different stack depths.
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
    fn pattern_root_floats_anywhere() {
        assert_eq!(check("b*/c", "<a><x><b><c/></b></x></a>").len(), 1);
    }

    #[test]
    fn multi_typed_pattern_node_needs_all_types() {
        let mut tys = TypeInterner::new();
        let mut p = parse_pattern("Org*/Employee", &mut tys).unwrap();
        let person = tys.intern("Person");
        let emp_node = p.node(p.root()).children[0];
        p.node_mut(emp_node).types.insert(person);
        let d = parse_xml(r#"<Org><Employee/><Employee also="Person"/></Org>"#, &mut tys).unwrap();
        assert_eq!(answer_set_twig(&p, &d), answer_set(&p, &d));
        assert_eq!(answer_set_twig(&p, &d).len(), 1);
    }

    #[test]
    fn value_conditions_filter_streams() {
        let mut tys = TypeInterner::new();
        let p = parse_pattern(r#"Book*{price<50}"#, &mut tys).unwrap();
        let d = parse_xml(r#"<Shop><Book price="95"/><Book price="12"/><Book/></Shop>"#, &mut tys)
            .unwrap();
        assert_eq!(answer_set_twig(&p, &d), answer_set(&p, &d));
        assert_eq!(answer_set_twig(&p, &d).len(), 1);
    }

    #[test]
    fn no_match_empty_answers() {
        assert!(check("z*", "<a><b/></a>").is_empty());
        assert!(check("a/z*", "<a><b/></a>").is_empty());
    }

    #[test]
    fn wide_documents_with_interleaved_siblings() {
        // Sibling subtrees force constant frame retirement mid-stream.
        let xml = "<r>\
            <a><b/><c/></a><a><c/></a><b/><a><b><c/></b></a>\
            <x><a><b/></a></x><c/>\
        </r>";
        check("a*[//b]", xml);
        check("a*[/b][/c]", xml);
        check("r[//c]//a//b*", xml);
        check("a//c*", xml);
    }

    #[test]
    fn guard_budget_trips_to_err_not_wrong_answers() {
        let (p, d, _) = setup("a//b*", "<a><b/><b/><b/><b/></a>");
        let guard = Guard::with_budget(3);
        match answer_set_twig_indexed(&p, &d, &DocIndex::build(&d), &guard) {
            Err(Error::Budget { .. }) => {}
            other => panic!("expected budget trip, got {other:?}"),
        }
    }

    #[test]
    fn unlimited_guard_passes_through() {
        let (p, d, _) = setup("a//b*", "<a><b/></a>");
        let answers =
            answer_set_twig_indexed(&p, &d, &DocIndex::build(&d), &Guard::unlimited()).unwrap();
        assert_eq!(answers.len(), 1);
    }

    #[test]
    fn indexed_entry_point_reuses_the_index() {
        let (p, d, mut tys) = setup("a//b*", "<a><b/><c><b/></c></a>");
        let index = DocIndex::build(&d);
        let p2 = parse_pattern("c/b*", &mut tys).unwrap();
        let g = Guard::unlimited();
        assert_eq!(answer_set_twig_indexed(&p, &d, &index, &g).unwrap().len(), 2);
        assert_eq!(answer_set_twig_indexed(&p2, &d, &index, &g).unwrap().len(), 1);
    }

    #[test]
    fn match_build_failpoint_injects() {
        let _fp = failpoint::arm_for_thread("match.build", failpoint::Action::Err, 1);
        let (p, d, _) = setup("a*", "<a/>");
        let index = DocIndex::build(&d);
        let err = answer_set_twig_indexed(&p, &d, &index, &Guard::unlimited()).unwrap_err();
        assert_eq!(err, Error::Injected { point: "match.build".into() });
    }

    #[test]
    fn wide_pattern_spills_to_large_mask() {
        // More than 64 children on one pattern node exercises Mask::Large.
        let mut tys = TypeInterner::new();
        let n = 70;
        let mut q = String::from("r*");
        for i in 0..n {
            q.push_str(&format!("[//t{i}]"));
        }
        let p = parse_pattern(&q, &mut tys).unwrap();
        let mut xml = String::from("<r>");
        for i in 0..n {
            xml.push_str(&format!("<t{i}/>"));
        }
        xml.push_str("</r><!-- -->");
        let xml = format!("<top>{xml}</top>");
        let d = parse_xml(&xml, &mut tys).unwrap();
        assert_eq!(answer_set_twig(&p, &d), answer_set(&p, &d));
        assert_eq!(answer_set_twig(&p, &d).len(), 1);
    }
}
