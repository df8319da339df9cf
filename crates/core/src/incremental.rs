//! CIM and ACIM on the incremental engine — the paper's Section 6.1
//! implementation strategy.
//!
//! [`cim`] is Constraint-Independent Minimization (Section 4): a maximal
//! elimination ordering (MEO) that deletes redundant leaves until none is
//! left, which by Theorem 4.1 reaches the unique minimal equivalent query
//! whatever the order. [`acim`] is Augment, then CIM (Sections 5.2–5.3):
//!
//! 1. close the constraint set logically;
//! 2. **augment** the query: merge co-occurrence types into original
//!    nodes and add temporary children for required child/descendant
//!    constraints whose target type occurs in the query
//!    ([`mod@crate::chase`]);
//! 3. run **CIM** on the augmented query — temporary nodes are never
//!    candidates for removal but do serve as mapping targets;
//! 4. strip all temporary nodes and chase-added types.
//!
//! Theorem 5.1: the result is the unique minimal query equivalent to the
//! input under the constraints. CIM is ACIM under the empty constraint
//! set, whose augmentation adds nothing, so both run the same stage.
//!
//! "The ancestor/descendant table as well as the images table are also
//! stored as hash tables" — i.e. they persist across redundancy tests
//! instead of being rebuilt for every leaf. [`CimEngine`] numbers the
//! alive nodes of the (possibly augmented) pattern in pre-order once per
//! build, temporaries included, and keeps two tables over that numbering:
//!
//! * `base`, the globally pruned images table: row `v` is exactly the set
//!   of nodes `u` such that the subtree of `v` embeds below `u` with
//!   `v ↦ u` (no exclusions);
//! * `compat`, the node-level compatibility rows: row `v` is every `u`
//!   with `v ↦ u` allowed by types, the output marker and conditions. It
//!   is built once by ANDing per-type rows (and the output row); the
//!   condition entailment check runs per pair only for nodes that carry
//!   conditions.
//!
//! The ancestor/descendant table is the numbering itself: the subtree of
//! `u` is the rank interval `u ..= subtree_end(u)`.
//!
//! # Row layout
//!
//! A row is a bitset over the ranks, ⌈n/64⌉ `u64` words for `n` alive
//! nodes ([`tpq_base::rows`], the row kernel the document matcher also
//! runs), so each table takes n·⌈n/64⌉·8 bytes — a 57-node augmented
//! pattern needs one word per row and 456 bytes per table. Pruning a node
//! keeps, per original child, the parents of a c-child's members, or the
//! nodes whose subtree interval holds a d-child's member.
//!
//! The footprint is quadratic in the pattern: a 100k-node pattern of
//! distinct types would need gigabytes. The build therefore spends its
//! [`Guard`] charge before it allocates a row, so a step budget refuses
//! such a pattern first (a deadline alone does not bound the memory).
//!
//! # Redundancy tests
//!
//! Testing a leaf `l` costs only an *overlay walk* along `l`'s ancestor
//! chain, keeping one row per path step: the leaf's row is
//! `base(l) \ {l}`, and each ancestor's row is its base row kept to the
//! members that fit the row below — every off-path constraint was already
//! verified when the base was pruned, and overlay rows only shrink, so
//! nothing else can change. The Figure 3 early exits apply unchanged: an
//! empty row means "not redundant"; `v ∈ overlay(v)` means "redundant"
//! (identity extends upward because `u ∈ base(u)` always holds).
//!
//! # Removals
//!
//! Removing a leaf clears its bit (and the bits of its temporary
//! children) in every row; each row that lost a bit re-prunes its parent,
//! up to a fixpoint. The proper ancestors of the removed leaf are the only
//! nodes whose rows can *grow* (only the leaf's parent lost a
//! constraint), so they are recomputed bottom-up as `compat & alive` and
//! pruned. Deleting leaves never changes a survivor's rank, parent or
//! subtree interval, so the numbering outlives every removal. Since tests
//! outnumber removals, total table-building work drops from
//! `O(tests · n · maxImage)` to `O(removals · n · maxImage)`; the
//! `ablate-incremental` panel quantifies it.
//!
//! # Identical answers
//!
//! The API takes and returns arena ids. Candidate leaves are tested in
//! arena order and each witness is the fitting overlay member of lowest
//! arena id, as with the list-based tables of the rebuild-per-test
//! reference ([`crate::redundant`]), so witnesses, `tpq explain` output
//! and [`MinimizeStats`] counters do not depend on the numbering. The
//! [`Guard`] is charged the same steps: the size of the alive set per
//! compatibility row, the row size plus one per prune, and the size of the
//! alive set per ancestor recomputation. The one addition: when rows span
//! several words and the two tables' words (plus one row per type)
//! outnumber the compatibility charge, the build also spends the
//! difference. The reference is the oracle the differential tests hold
//! the engine to.

use crate::mapping::PreOrder;
use crate::pipeline::{minimize_unlimited, Strategy};
use crate::stats::MinimizeStats;
use std::cell::Cell;
use std::time::Instant;
use tpq_base::rows::{self, PreOrderTree, Rows};
use tpq_base::{FxHashMap, Guard, Result, TypeId};
use tpq_constraints::ConstraintSet;
use tpq_pattern::{NodeId, TreePattern};

/// Minimize `q` without constraints (Theorem 4.1); returns the compacted
/// minimal query.
pub fn cim(q: &TreePattern) -> TreePattern {
    minimize_unlimited(q, &ConstraintSet::default(), Strategy::CimOnly).pattern
}

/// Minimize `q` under `ics` (closed here) with ACIM alone (Theorem 5.1);
/// returns the compacted minimal equivalent query.
pub fn acim(q: &TreePattern, ics: &ConstraintSet) -> TreePattern {
    minimize_unlimited(q, &ics.closure(), Strategy::AcimOnly).pattern
}

/// Incremental minimization engine over one (possibly augmented) pattern.
/// Its rows are over the pre-order ranks of the pattern's alive nodes; its
/// API takes and returns arena ids.
pub struct CimEngine {
    q: TreePattern,
    /// The images table; rows of temporary and dead nodes stay empty.
    base: Rows,
    /// The alive nodes at construction in pre-order: deleting leaves never
    /// changes a survivor's rank, parent or subtree interval.
    tree: PreOrder,
    /// Row `v`: every node alive at construction that `v` may map onto.
    /// Rows of temporary nodes stay empty (they are never in the domain).
    compat: Rows,
    /// The alive nodes.
    alive: Vec<u64>,
    /// Scratch row for [`rows::keep_parents`].
    mask: Vec<u64>,
}

impl CimEngine {
    /// Build the engine: number the alive nodes in pre-order and build the
    /// globally pruned images table (timed into `stats.tables_time`).
    /// Table construction spends one step per candidate considered, so a
    /// small budget or deadline trips before the `O(n · maxImage)` build
    /// completes. The compatibility charge is spent before any row is
    /// allocated, so a budget also bounds the tables' n·⌈n/64⌉ words.
    pub fn new_guarded(q: TreePattern, stats: &mut MinimizeStats, guard: &Guard) -> Result<Self> {
        let _span = tpq_obs::span!("acim.tables");
        let t0 = Instant::now();
        let tree = PreOrder::new(&q);
        let n = tree.len();
        let words = n.div_ceil(64);
        let type_row = charge_build(&q, words, guard)?;
        let mut alive = vec![0; words];
        rows::set_range(&mut alive, 0, n);
        let compat = compat_rows(&q, &tree, &alive, &type_row, guard)?;
        let base = compat.clone();
        let mut engine = CimEngine { q, base, tree, compat, alive, mask: vec![0; words] };
        // Reverse pre-order visits every child before its parent.
        for v in (0..n as u32).rev() {
            if !engine.tree.temporary(v) {
                guard.spend(rows::count(engine.base.row(v as usize)) + 1)?;
                engine.prune(v);
            }
        }
        stats.tables_time += t0.elapsed();
        if tpq_obs::enabled() {
            use tpq_obs::FieldValue::U64;
            tpq_obs::event(
                "acim.table",
                &[
                    ("nodes", U64(engine.q.arena_len() as u64)),
                    ("candidates", U64((0..n).map(|v| rows::count(engine.base.row(v))).sum())),
                ],
            );
        }
        Ok(engine)
    }

    /// Whether `v` has an alive original child: a node whose children are
    /// all temporary is a leaf for redundancy tests.
    fn has_original_child(&self, v: u32) -> bool {
        self.tree.original_children(v).any(|c| rows::has(&self.alive, c))
    }

    /// Borrow the current pattern.
    pub fn pattern(&self) -> &TreePattern {
        &self.q
    }

    /// Consume the engine, returning the minimized pattern.
    pub fn into_pattern(self) -> TreePattern {
        self.q
    }

    /// Keep the members of `v`'s images row that fit every alive original
    /// child's row. Returns `true` if anything was removed.
    fn prune(&mut self, v: u32) -> bool {
        let CimEngine { base, tree, mask, alive, .. } = self;
        let mut changed = false;
        for w in tree.original_children(v) {
            if !rows::has(alive, w) {
                continue;
            }
            let (row, child_row) = base.row_with(v as usize, w as usize);
            changed |= rows::keep_parents(tree, tree.child_edge(w), row, child_row, mask).1;
            if rows::is_empty(row) {
                break;
            }
        }
        changed
    }

    /// Maintain the tables across the removal of leaf `l` (and the
    /// already-removed subtrees of its temporary children) instead of
    /// rebuilding:
    ///
    /// 1. clear the dead nodes' bits in every row and cascade the
    ///    shrinkage upward — a row's pruning condition depends only on its
    ///    children's rows, so re-pruning parents to a fixpoint restores
    ///    exactness;
    /// 2. recompute the rows of `l`'s proper ancestors from scratch
    ///    (they are the only rows that can *grow*: only `parent(l)` lost a
    ///    constraint, and growth propagates only upward along the
    ///    ancestor chain).
    ///
    /// The numbering stays valid: deleting leaves never changes the
    /// ancestors or the subtree interval of a surviving node.
    /// A tripped guard leaves the tables stale; the pattern itself stays
    /// valid (the removal was already proven redundant), but the engine
    /// must be discarded — `run_guarded` propagates the error out.
    fn apply_removal(
        &mut self,
        l: u32,
        worklist: &mut Vec<u32>,
        stats: &mut MinimizeStats,
        guard: &Guard,
    ) -> Result<()> {
        let _span = tpq_obs::span!("acim.tables");
        let t0 = Instant::now();
        let (q, tree) = (&self.q, &self.tree);
        // Step 1: clear the bits of every node the removal killed, cascade
        // shrinkage.
        rows::retain(&mut self.alive, |u| q.is_alive(tree.id(u)));
        self.base.row_mut(l as usize).fill(0);
        worklist.clear();
        for w in rows::ones(&self.alive, 0) {
            if !self.q.node(tree.id(w)).temporary
                && rows::and_into(self.base.row_mut(w as usize), &self.alive)
            {
                worklist.extend(tree.parent(w));
            }
        }
        while let Some(v) = worklist.pop() {
            guard.check()?;
            // Ancestors of l get a full recompute below.
            let recomputed = v < l && l <= self.tree.subtree_end(v);
            if recomputed || !rows::has(&self.alive, v) || self.tree.temporary(v) {
                continue;
            }
            if self.prune(v) {
                worklist.extend(self.tree.parent(v));
            }
        }
        // Step 2: ancestors of l, bottom-up, recomputed from scratch.
        let targets = rows::count(&self.alive);
        let mut next = self.tree.parent(l);
        while let Some(v) = next {
            guard.spend(targets)?;
            let CimEngine { base, compat, alive, .. } = self;
            let row = base.row_mut(v as usize);
            row.copy_from_slice(compat.row(v as usize));
            rows::and_into(row, alive);
            self.prune(v);
            next = self.tree.parent(v);
        }
        stats.tables_time += t0.elapsed();
        Ok(())
    }

    /// Figure 3 redundancy test via the overlay walk: the node `l` maps
    /// onto under one witnessing endomorphism, or `None` if `l` is not
    /// redundant. `l` must be an original leaf (no original children), not
    /// the root or output node. The witness may be a temporary node —
    /// `tpq explain` resolves those back to the chase step that created
    /// them.
    pub fn test_leaf_witness(&self, l: NodeId) -> Option<NodeId> {
        let mut scratch = SCRATCH.take();
        let Scratch { path, overlay, mask, .. } = &mut scratch;
        let witness = self.witness(self.tree.rank(l), path, overlay, mask);
        scratch.keep(&self.q);
        witness
    }

    /// [`CimEngine::test_leaf_witness`] of rank `l`, on the caller's
    /// buffers.
    fn witness(
        &self,
        l: u32,
        path: &mut Vec<u32>,
        overlay: &mut Vec<u64>,
        mask: &mut Vec<u64>,
    ) -> Option<NodeId> {
        let _span = tpq_obs::span!("acim.scan");
        debug_assert!(!self.has_original_child(l));
        let tree = &self.tree;
        let words = self.base.words();
        mask.resize(words, 0);
        // The ancestor chain walked so far, leaf first — the spine the
        // witness extraction descends — and its overlay rows, one per
        // path step, back to back.
        path.clear();
        path.push(l);
        overlay.clear();
        overlay.extend_from_slice(self.base.row(l as usize));
        rows::clear(overlay, l);
        if rows::is_empty(overlay) {
            return None;
        }
        let mut next = tree.parent(l);
        while let Some(v) = next {
            let path_child = *path.last().expect("path starts at l");
            let below = overlay.len() - words;
            overlay.extend_from_slice(self.base.row(v as usize));
            let (done, row) = overlay.split_at_mut(below + words);
            rows::keep_parents(tree, tree.child_edge(path_child), row, &done[below..], mask);
            if rows::is_empty(row) {
                return None;
            }
            if rows::has(row, v) {
                overlay.truncate(below + words);
                return Some(self.descend_overlay(path, v, overlay));
            }
            path.push(v);
            next = tree.parent(v);
        }
        // The root was reached without an early exit; its overlay row is
        // non-empty, which (endomorphisms fix the root) means redundant.
        path.pop();
        let (below, top) = overlay.split_at(path.len() * words);
        let top = tree.lowest(rows::ones(top, 0)).expect("the root's overlay row is non-empty");
        Some(self.descend_overlay(path, top, below))
    }

    /// Extract `l`'s image by walking the overlay spine back down from the
    /// node that mapped to `top`, choosing the edge-compatible candidate
    /// of lowest arena id in each row. Sound because every overlay
    /// candidate came from `base` (so its whole subtree is certified) and
    /// every surviving parent candidate passed the same edge check against
    /// the child's overlay row when the row above was masked.
    fn descend_overlay(&self, path: &[u32], top: u32, overlay: &[u64]) -> NodeId {
        let tree = &self.tree;
        let words = self.base.words();
        let mut image = top;
        for (k, &p) in path.iter().enumerate().rev() {
            let row = &overlay[k * words..(k + 1) * words];
            image = tree
                .lowest(rows::below(tree, tree.child_edge(p), image, row))
                .expect("surviving image has an edge-compatible candidate in the overlay");
        }
        tree.id(image)
    }

    /// Run the MEO loop to completion; returns the removed node ids in
    /// order. The guard is checked at every loop head and spent per
    /// redundancy test and per table-maintenance step. On a trip the
    /// engine's pattern is valid but partially minimized (every applied
    /// removal was proven redundant) — callers wanting all-or-nothing
    /// semantics should discard the engine.
    ///
    /// The run's tests and removals reach the `redundancy_tests` and
    /// `cim_removed` counters once, when it returns, also on a trip.
    pub fn run_guarded(&mut self, stats: &mut MinimizeStats, guard: &Guard) -> Result<Vec<NodeId>> {
        let mut scratch = SCRATCH.take();
        let before = (stats.redundancy_tests, stats.cim_removed);
        let removed = self.meo(&mut scratch, stats, guard);
        scratch.keep(&self.q);
        tpq_obs::incr("redundancy_tests", (stats.redundancy_tests - before.0) as u64);
        tpq_obs::incr("cim_removed", (stats.cim_removed - before.1) as u64);
        removed
    }

    /// [`CimEngine::run_guarded`] on the caller's buffers. Candidates are
    /// tested in arena order, as the rebuild-per-test reference tests them.
    fn meo(
        &mut self,
        scratch: &mut Scratch,
        stats: &mut MinimizeStats,
        guard: &Guard,
    ) -> Result<Vec<NodeId>> {
        let obs_on = tpq_obs::enabled();
        let mut removed = Vec::new();
        let Scratch { candidates, path, overlay, mask, worklist, non_redundant } = scratch;
        non_redundant.clear();
        non_redundant.resize(self.base.words(), 0);
        let output = self.tree.rank(self.q.output());
        loop {
            guard.check()?;
            candidates.clear();
            let tree = &self.tree;
            candidates.extend(self.q.alive_ids().map(|id| tree.rank(id)).filter(|&v| {
                !self.tree.temporary(v)
                    && !self.has_original_child(v)
                    && v != 0
                    && v != output
                    && !rows::has(non_redundant, v)
            }));
            if candidates.is_empty() {
                break;
            }
            let mut progress = false;
            for &l in candidates.iter() {
                if !rows::has(&self.alive, l) {
                    continue;
                }
                guard.spend(1)?;
                stats.redundancy_tests += 1;
                if let Some(witness) = self.witness(l, path, overlay, mask) {
                    let id = self.tree.id(l);
                    if obs_on {
                        use tpq_obs::FieldValue::U64;
                        tpq_obs::event(
                            "cim.prune",
                            &[("node", U64(id.0 as u64)), ("witness", U64(witness.0 as u64))],
                        );
                    }
                    // Remove l and its temporary children, then maintain
                    // the tables incrementally.
                    while let Some(t) = self.q.children(id).next() {
                        debug_assert!(self.q.node(t).temporary);
                        self.q.remove_subtree(t).expect("temp subtree");
                    }
                    self.q.remove_leaf(id).expect("leaf");
                    self.apply_removal(l, worklist, stats, guard)?;
                    removed.push(id);
                    stats.cim_removed += 1;
                    progress = true;
                } else {
                    rows::set(non_redundant, l);
                }
            }
            if !progress {
                break;
            }
        }
        Ok(removed)
    }
}

/// Each thread keeps its MEO buffers for the next engine, unless they grew
/// for a pattern larger than this.
const KEEP_SCRATCH_NODES: usize = 4096;

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::default();
}

/// The MEO loop's reusable buffers; node sets and lists are over ranks.
#[derive(Default)]
struct Scratch {
    /// The leaves to test in the current round.
    candidates: Vec<u32>,
    /// The overlay walk's ancestor chain, its rows and its edge mask.
    path: Vec<u32>,
    overlay: Vec<u64>,
    mask: Vec<u64>,
    /// Rows to re-prune after a removal.
    worklist: Vec<u32>,
    /// The leaves found not redundant, as a row.
    non_redundant: Vec<u64>,
}

impl Scratch {
    /// Hand the buffers back to the thread, unless they grew for a
    /// pattern too large to pin them for.
    fn keep(self, q: &TreePattern) {
        if q.arena_len() <= KEEP_SCRATCH_NODES {
            SCRATCH.set(self);
        }
    }
}

/// Spend the table build's charge before any row exists, and index the
/// alive nodes' types for [`compat_rows`]. The charge is the alive count
/// `n` per original node, one compatibility row each, as a list-based
/// build spends it. When rows are wider than one word and the tables (two
/// of n rows plus one per type) take more words than that, the difference
/// is spent too, so a step budget bounds the tables' memory whatever the
/// pattern's shape.
fn charge_build(q: &TreePattern, words: usize, guard: &Guard) -> Result<FxHashMap<TypeId, usize>> {
    let (n, targets) = (q.size(), q.size() as u64);
    let mut charged = 0;
    for v in q.alive_ids() {
        if !q.node(v).temporary {
            guard.spend(targets)?;
            charged += targets;
        }
    }
    // Sized for the usual handful of types so the index does not regrow.
    let mut type_row: FxHashMap<TypeId, usize> =
        FxHashMap::with_capacity_and_hasher(16, Default::default());
    for u in q.alive_ids() {
        for t in q.node(u).types.iter() {
            let next = type_row.len();
            type_row.entry(t).or_insert(next);
        }
    }
    if words > 1 {
        let footprint = ((2 * n + type_row.len()) * words) as u64;
        if footprint > charged {
            guard.spend(footprint - charged)?;
        }
    }
    Ok(type_row)
}

/// The `compat` table of `q` over `tree`: for every alive original node
/// `v`, the alive nodes `u` with `node_compatible(v, u)`. Type-set
/// inclusion is the AND of one row per type of `v`; the output marker
/// masks the row down to the output node; entailment runs per pair only
/// when `v` carries conditions, after a guard check ([`charge_build`]
/// already spent the steps, so this only catches a deadline or a
/// cancellation).
fn compat_rows(
    q: &TreePattern,
    tree: &PreOrder,
    alive: &[u64],
    type_row: &FxHashMap<TypeId, usize>,
    guard: &Guard,
) -> Result<Rows> {
    let words = alive.len();
    let n = tree.len() as u32;
    // The nodes carrying type `t`, at `type_row[t] * words`.
    let mut type_rows = vec![0; type_row.len() * words];
    for u in 0..n {
        for t in q.node(tree.id(u)).types.iter() {
            let at = type_row[&t] * words;
            rows::set(&mut type_rows[at..at + words], u);
        }
    }
    let mut compat = Rows::new(n as usize, n as usize);
    let out = tree.rank(q.output());
    for v in 0..n {
        let node = q.node(tree.id(v));
        if node.temporary {
            continue;
        }
        let row = compat.row_mut(v as usize);
        row.copy_from_slice(alive);
        for t in node.types.iter() {
            let at = type_row[&t] * words;
            rows::and_into(row, &type_rows[at..at + words]);
        }
        if node.output {
            let keep = rows::has(row, out);
            row.fill(0);
            if keep {
                rows::set(row, out);
            }
        }
        let conditions = q.conditions(tree.id(v));
        if !conditions.is_empty() {
            guard.check()?;
            rows::retain(row, |u| {
                tpq_pattern::condition::entails(q.conditions(tree.id(u)), conditions)
            });
        }
    }
    Ok(compat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::{augment_guarded, present_types};
    use crate::containment::{equivalent, equivalent_under};
    use crate::pipeline::minimize_closed_guarded;
    use crate::redundant::{cim_with_order, redundant_leaf};
    use tpq_base::TypeInterner;
    use tpq_constraints::parse_constraints;
    use tpq_pattern::{isomorphic, parse_pattern, EdgeKind};

    fn p(s: &str, tys: &mut TypeInterner) -> TreePattern {
        parse_pattern(s, tys).unwrap()
    }

    fn setup(q: &str, ics: &str) -> (TreePattern, ConstraintSet, TypeInterner) {
        let mut tys = TypeInterner::new();
        let pat = parse_pattern(q, &mut tys).unwrap();
        let set = parse_constraints(ics, &mut tys).unwrap();
        (pat, set, tys)
    }

    /// The rebuild-per-test reference CIM, in arena order.
    fn oracle(q: &TreePattern) -> TreePattern {
        cim_with_order(q, |_, c| c.to_vec())
    }

    fn new_engine(q: TreePattern) -> CimEngine {
        CimEngine::new_guarded(q, &mut MinimizeStats::default(), &Guard::unlimited()).unwrap()
    }

    fn run(engine: &mut CimEngine) -> Vec<NodeId> {
        engine.run_guarded(&mut MinimizeStats::default(), &Guard::unlimited()).unwrap()
    }

    // ------------------------------------------------------------- CIM

    #[test]
    fn already_minimal_queries_untouched() {
        let mut tys = TypeInterner::new();
        for s in ["a", "a*/b//c", "a*[/b][/c]", "a*[/b/c][/b/d]"] {
            let q = p(s, &mut tys);
            let m = cim(&q);
            assert!(isomorphic(&q, &m), "{s} should be untouched");
        }
    }

    #[test]
    fn intro_department_example() {
        // "departments that contain a database project and that contain
        // project managers managing a database project" — the first branch
        // is subsumed (Section 1).
        let mut tys = TypeInterner::new();
        let q = p("Dept*[//DBProject]//Manager//DBProject", &mut tys);
        let m = cim(&q);
        assert_eq!(m.size(), 3);
        assert!(equivalent(&q, &m, &Guard::unlimited()).unwrap());
        let expected = p("Dept*//Manager//DBProject", &mut tys);
        assert!(isomorphic(&m, &expected));
    }

    #[test]
    fn figure_2h_to_2i() {
        let mut tys = TypeInterner::new();
        let q = p("OrgUnit*[/Dept/Researcher//DBProject]//Dept//DBProject", &mut tys);
        let m = cim(&q);
        let expected = p("OrgUnit*/Dept/Researcher//DBProject", &mut tys);
        assert!(isomorphic(&m, &expected), "Figure 2(h) minimizes to 2(i)");
        assert!(equivalent(&q, &m, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn figure_2b_to_2c() {
        let mut tys = TypeInterner::new();
        let b = p("Articles[/Article//Paragraph]/Article*//Section//Paragraph", &mut tys);
        let m = cim(&b);
        let c = p("Articles/Article*//Section//Paragraph", &mut tys);
        assert!(isomorphic(&m, &c), "Figure 2(b) minimizes to 2(c)");
        assert!(equivalent(&b, &m, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn cascading_removal_of_whole_branches() {
        let mut tys = TypeInterner::new();
        // The a/b/c branch folds onto the deeper a/b/c/d chain.
        let q = p("r*[/a/b/c]/a/b/c/d", &mut tys);
        let m = cim(&q);
        let expected = p("r*/a/b/c/d", &mut tys);
        assert!(isomorphic(&m, &expected));
    }

    #[test]
    fn output_node_always_survives() {
        let mut tys = TypeInterner::new();
        let q = p("a[/b*]/b", &mut tys);
        let m = cim(&q);
        // The unmarked b folds onto b*; the marked one stays.
        assert_eq!(m.size(), 2);
        assert!(m.node(m.output()).output);
        assert!(equivalent(&q, &m, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn result_has_no_redundant_leaves() {
        let mut tys = TypeInterner::new();
        for s in [
            "Dept*[//DBProject]//Manager//DBProject",
            "r*[/a/b][/a][/a/b/c]",
            "x*[//y][//y//z][//z]",
            "a*[/a/a][//a]",
        ] {
            let q = p(s, &mut tys);
            let m = cim(&q);
            for l in m.leaves() {
                if l == m.output() || l == m.root() {
                    continue;
                }
                assert!(!redundant_leaf(&m, l), "{s}: leaf {l} still redundant in result");
            }
        }
    }

    #[test]
    fn different_orders_give_isomorphic_results() {
        let mut tys = TypeInterner::new();
        let q = p("r*[/a/b][/a/b/c][//a][/a[/b][/b/c]]", &mut tys);
        let forward = cim_with_order(&q, |_, c| c.to_vec());
        let backward = cim_with_order(&q, |_, c| {
            let mut v = c.to_vec();
            v.reverse();
            v
        });
        let default = cim(&q);
        assert!(isomorphic(&forward, &backward), "Theorem 4.1 uniqueness");
        assert!(isomorphic(&forward, &default));
        assert!(equivalent(&q, &forward, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn cim_is_idempotent() {
        let mut tys = TypeInterner::new();
        let q = p("Dept*[//DBProject]//Manager//DBProject", &mut tys);
        let once = cim(&q);
        let twice = cim(&once);
        assert!(isomorphic(&once, &twice));
    }

    #[test]
    fn stats_count_removals_and_tests() {
        let mut tys = TypeInterner::new();
        let q = p("Dept*[//DBProject]//Manager//DBProject", &mut tys);
        let out = minimize_closed_guarded(
            &q,
            &ConstraintSet::default(),
            Strategy::CimOnly,
            &Guard::unlimited(),
        )
        .unwrap();
        assert_eq!(out.stats.cim_removed, 1);
        assert!(out.stats.redundancy_tests >= 1);
        assert_eq!(out.pattern.size(), q.size() - out.stats.cim_removed);
    }

    #[test]
    fn single_node_pattern_is_fixed_point() {
        let mut tys = TypeInterner::new();
        let q = p("a", &mut tys);
        assert_eq!(cim(&q).size(), 1);
    }

    // ------------------------------------------------------------ ACIM

    #[test]
    fn no_constraints_reduces_to_cim() {
        let (q, ics, _) = setup("Dept*[//DBProject]//Manager//DBProject", "");
        let a = acim(&q, &ics);
        let c = cim(&q);
        assert!(isomorphic(&a, &c));
    }

    #[test]
    fn required_child_removes_leaf() {
        // "find the title and author of books that have a publisher" with
        // "every book has a publisher" (Section 1).
        let (q, ics, mut tys) = setup("Book*[/Title][/Author][/Publisher]", "Book -> Publisher");
        let m = acim(&q, &ics);
        let expected = parse_pattern("Book*[/Title][/Author]", &mut tys).unwrap();
        assert!(isomorphic(&m, &expected));
        assert!(equivalent_under(&q, &m, &ics, &Guard::unlimited()).unwrap());
        assert!(!equivalent(&q, &m, &Guard::unlimited()).unwrap(), "not equivalent without the IC");
    }

    #[test]
    fn required_child_does_not_remove_constrained_subtree() {
        // Publisher has a Name child in the query: the IC only guarantees a
        // bare Publisher, so the subtree must survive.
        let (q, ics, _) = setup("Book*[/Title][/Publisher/Name]", "Book -> Publisher");
        let m = acim(&q, &ics);
        assert_eq!(m.size(), 4);
    }

    #[test]
    fn figure_2a_to_2e_full_pipeline() {
        // Section 3.3 / 5.2: 2(a) with Article -> Title and
        // Section ->> Paragraph minimizes to 2(e) = Articles/Article*//Section.
        let (q, ics, mut tys) = setup(
            "Articles[/Article//Paragraph]/Article*[/Title]//Section//Paragraph",
            "Article -> Title\nSection ->> Paragraph",
        );
        let m = acim(&q, &ics);
        let e = parse_pattern("Articles/Article*//Section", &mut tys).unwrap();
        assert!(isomorphic(&m, &e), "got {} nodes", m.size());
        assert!(equivalent_under(&q, &m, &ics, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn figure_2b_with_section_ic_needs_augmentation() {
        // Section 5.1's pitfall: chase+CIM naively gives 2(c), not minimal.
        // ACIM must reach 2(e) in one application.
        let (q, ics, mut tys) = setup(
            "Articles[/Article//Paragraph]/Article*//Section//Paragraph",
            "Section ->> Paragraph",
        );
        let m = acim(&q, &ics);
        let e = parse_pattern("Articles/Article*//Section", &mut tys).unwrap();
        assert!(isomorphic(&m, &e));
    }

    #[test]
    fn figure_2d_augmentation_example() {
        // Section 3.3 last example: 2(d) = Articles[/Article//Paragraph]
        // /Article*//Section. With Section ->> Paragraph, augmentation
        // temporarily re-adds a Paragraph below Section, the left branch
        // folds, and the result is 2(e).
        let (q, ics, mut tys) =
            setup("Articles[/Article//Paragraph]/Article*//Section", "Section ->> Paragraph");
        let m = acim(&q, &ics);
        let e = parse_pattern("Articles/Article*//Section", &mut tys).unwrap();
        assert!(isomorphic(&m, &e));
        assert!(equivalent_under(&q, &m, &ics, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn figure_2f_to_2g_cooccurrence() {
        let (q, ics, mut tys) = setup(
            "Organization*[/Employee//Project][/PermEmp//DBproject]",
            "PermEmp ~ Employee\nDBproject ~ Project",
        );
        let m = acim(&q, &ics);
        let g = parse_pattern("Organization*/PermEmp//DBproject", &mut tys).unwrap();
        assert!(isomorphic(&m, &g), "Figure 2(f) minimizes to 2(g), got {} nodes", m.size());
        assert!(equivalent_under(&q, &m, &ics, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn result_carries_no_temporaries_or_extra_types() {
        let (q, ics, _) = setup("Book*[/Title][/Publisher]", "Book -> Publisher\nBook ~ Item");
        let m = acim(&q, &ics);
        for v in m.alive_ids() {
            assert!(!m.node(v).temporary);
            assert_eq!(m.node(v).types.len(), 1);
        }
        m.validate().unwrap();
    }

    #[test]
    fn acim_is_idempotent() {
        let (q, ics, _) = setup(
            "Articles[/Article//Paragraph]/Article*//Section//Paragraph",
            "Section ->> Paragraph",
        );
        let once = acim(&q, &ics);
        let twice = acim(&once, &ics);
        assert!(isomorphic(&once, &twice));
    }

    #[test]
    fn descendant_ic_removes_d_leaf_only() {
        let (q, ics, _) = setup("a*[//b][/b]", "a ->> b");
        let m = acim(&q, &ics);
        // The d-child b is implied by the IC; the c-child b is NOT (the IC
        // only guarantees a descendant) — but the d-child is also subsumed
        // by the c-child even without ICs. Result: a*[/b].
        assert_eq!(m.size(), 2);
        let child = m.children(m.root()).next().unwrap();
        assert_eq!(m.node(child).edge, EdgeKind::Child);
        assert!(equivalent_under(&q, &m, &ics, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn chain_of_ics_removes_deep_structure() {
        // a -> u, u -> w: the whole /u/w spine is implied.
        let (q, ics, _) = setup("a*[/b]/u/w", "a -> u\nu -> w");
        let m = acim(&q, &ics);
        assert_eq!(m.size(), 2, "only a*[/b] remains, got {}", m.size());
        assert!(equivalent_under(&q, &m, &ics, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn stats_record_augmentation_and_removals() {
        let (q, ics, _) = setup("Book*[/Title][/Publisher]", "Book -> Publisher");
        let out =
            minimize_closed_guarded(&q, &ics.closure(), Strategy::AcimOnly, &Guard::unlimited())
                .unwrap();
        assert!(out.stats.augment_nodes_added >= 1);
        assert_eq!(out.stats.cim_removed, 1);
        assert!(out.stats.total_time >= out.stats.tables_time);
    }

    // ------------------------------------- the engine against the oracle

    #[test]
    fn agrees_with_rebuilding_cim_on_fixed_cases() {
        let mut tys = TypeInterner::new();
        for s in [
            "a",
            "Dept*[//DBProject]//Manager//DBProject",
            "OrgUnit*[/Dept/Researcher//DBProject]//Dept//DBProject",
            "Articles[/Article//Paragraph]/Article*//Section//Paragraph",
            "r*[/a/b/c]/a/b/c/d",
            "a*[/b][/b/c]",
            "a*[/b/c][/b[/c][/d]]",
            "x*[//y][//y//z][//z]",
        ] {
            let q = p(s, &mut tys);
            let fast = cim(&q);
            let slow = oracle(&q);
            assert!(
                isomorphic(&fast, &slow),
                "{s}: incremental {} vs rebuilding {}",
                fast.size(),
                slow.size()
            );
        }
    }

    #[test]
    fn moving_parent_case_detected() {
        // The case that makes the overlay walk necessary: removing the
        // left c requires moving its parent b too.
        let mut tys = TypeInterner::new();
        let q = p("a*[/b/c][/b[/c][/d]]", &mut tys);
        let m = cim(&q);
        assert_eq!(m.size(), 4, "the whole left /b/c branch folds onto the bigger b");
    }

    #[test]
    fn acim_matches_the_oracle() {
        let (q, ics, _) = setup(
            "Articles[/Article//Paragraph]/Article*[/Title]//Section//Paragraph",
            "Article -> Title\nSection ->> Paragraph",
        );
        let closed = ics.closure();
        let mut work = q.clone();
        let allowed = present_types(&work);
        augment_guarded(
            &mut work,
            &closed,
            &allowed,
            &mut MinimizeStats::default(),
            &Guard::unlimited(),
        )
        .unwrap();
        let mut reference = oracle(&work);
        reference.strip_temporaries();
        let inc = acim(&q, &ics);
        assert!(isomorphic(&inc, &reference.compact().0));
        assert_eq!(inc.size(), 3);
    }

    #[test]
    fn agrees_with_rebuilding_cim_on_random_patterns() {
        // Deterministic pseudo-random pattern family without pulling in a
        // rand dependency: mix a seed into shape decisions.
        for seed in 0u64..60 {
            let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut next = move |m: u64| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % m
            };
            let mut q = TreePattern::new(tpq_base::TypeId(next(3) as u32));
            let mut nodes = vec![q.root()];
            for _ in 0..next(10) + 2 {
                let parent = nodes[next(nodes.len() as u64) as usize];
                let edge = if next(2) == 0 { EdgeKind::Child } else { EdgeKind::Descendant };
                let n = q.add_child(parent, edge, tpq_base::TypeId(next(3) as u32));
                nodes.push(n);
            }
            let star = nodes[next(nodes.len() as u64) as usize];
            q.set_output(star);
            let fast = cim(&q);
            let slow = oracle(&q);
            assert!(
                isomorphic(&fast, &slow),
                "seed {seed}: incremental {} vs rebuilding {}",
                fast.size(),
                slow.size()
            );
        }
    }

    /// A root `r*` with children of distinct types `t1..` plus, as the
    /// last arena node, a twin of the first child: exactly `n` nodes,
    /// the twin at bit `n - 1`.
    fn star_with_twin(n: usize, edge: EdgeKind) -> TreePattern {
        let mut tys = TypeInterner::new();
        let mut q = TreePattern::new(tys.intern("r"));
        for i in 1..n - 1 {
            q.add_child(q.root(), edge, tys.intern(&format!("t{i}")));
        }
        q.add_child(q.root(), edge, tys.intern("t1"));
        assert_eq!(q.arena_len(), n);
        q
    }

    /// A root `r*` with a `//b` leaf, then a c-edge chain of `a`s ending in
    /// a `b` as the last arena node: the leaf folds onto the far `b`
    /// through the ancestor rows.
    fn leaf_over_chain(n: usize) -> TreePattern {
        let mut tys = TypeInterner::new();
        let (a, b) = (tys.intern("a"), tys.intern("b"));
        let mut q = TreePattern::new(tys.intern("r"));
        q.add_child(q.root(), EdgeKind::Descendant, b);
        let mut tail = q.root();
        for _ in 2..n - 1 {
            tail = q.add_child(tail, EdgeKind::Child, a);
        }
        q.add_child(tail, EdgeKind::Child, b);
        assert_eq!(q.arena_len(), n);
        q
    }

    #[test]
    fn arenas_at_word_boundaries() {
        for n in [63, 64, 65, 128, 129] {
            let last = NodeId(n as u32 - 1);
            for edge in [EdgeKind::Child, EdgeKind::Descendant] {
                let q = star_with_twin(n, edge);
                let mut engine = new_engine(q.clone());
                assert_eq!(engine.test_leaf_witness(NodeId(1)), Some(last), "n={n} {edge:?}");
                assert_eq!(engine.test_leaf_witness(last), Some(NodeId(1)), "n={n} {edge:?}");
                assert_eq!(engine.test_leaf_witness(NodeId(2)), None, "n={n} {edge:?}");
                assert_eq!(run(&mut engine), [NodeId(1)]);
                assert_eq!(engine.pattern().size(), n - 1);
                assert!(isomorphic(&cim(&q), &oracle(&q)), "n={n} {edge:?}");
            }
            let q = leaf_over_chain(n);
            let mut engine = new_engine(q.clone());
            assert_eq!(engine.test_leaf_witness(NodeId(1)), Some(last), "n={n}");
            assert_eq!(engine.test_leaf_witness(last), None, "n={n}");
            assert_eq!(run(&mut engine), [NodeId(1)]);
            assert!(isomorphic(&cim(&q), &oracle(&q)), "n={n}");
        }
    }

    /// A pattern over three types whose nodes hang one to four arena ids
    /// below their parent, by random edges, so that c- and d-edge pairs sit
    /// on both sides of every word boundary. Temporary two-node chains hang
    /// under nodes 1–3 at the end of the arena: pre-order ranks them right
    /// after their parents, ahead of most original nodes, so ranks and
    /// arena ids interleave. `n` counts every arena node.
    fn interleaved_arena(n: usize, seed: u64) -> TreePattern {
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        let edge = |next: &mut dyn FnMut(u64) -> u64| {
            if next(2) == 0 {
                EdgeKind::Child
            } else {
                EdgeKind::Descendant
            }
        };
        let mut q = TreePattern::new(TypeId(0));
        for i in 1..n - 6 {
            let parent = NodeId((i - 1 - next(i.min(4) as u64) as usize) as u32);
            let e = edge(&mut next);
            q.add_child(parent, e, TypeId(next(3) as u32));
        }
        q.set_output(NodeId(next(n as u64 - 6) as u32));
        for p in 1..=3 {
            let (e1, e2) = (edge(&mut next), edge(&mut next));
            let t = q.add_temp_child(NodeId(p), e1, TypeId(next(3) as u32));
            q.add_temp_child(t, e2, TypeId(next(3) as u32));
        }
        assert_eq!(q.arena_len(), n);
        q
    }

    #[test]
    fn engine_matches_the_oracle_across_words_with_interleaved_temporaries() {
        let mut removed = 0;
        for n in [63, 64, 65, 127, 128, 129] {
            for seed in 0..3 {
                let q = interleaved_arena(n, seed);
                let mut engine = new_engine(q.clone());
                removed += run(&mut engine).len();
                let mut fast = engine.into_pattern();
                fast.strip_temporaries();
                let mut slow = oracle(&q);
                slow.strip_temporaries();
                let (fast, slow) = (fast.compact().0, slow.compact().0);
                assert!(
                    isomorphic(&fast, &slow),
                    "n={n} seed={seed}: engine {} vs oracle {}",
                    fast.size(),
                    slow.size()
                );
            }
        }
        assert!(removed > 0, "no arena had a redundant node");
    }

    #[test]
    fn meo_counters_advance_once_per_run_also_on_a_trip() {
        tpq_obs::set_enabled(true);
        let (tests, removals) =
            (tpq_obs::counter("redundancy_tests"), tpq_obs::counter("cim_removed"));
        let mut tys = TypeInterner::new();
        let q = p("Dept*[//DBProject]//Manager//DBProject", &mut tys);
        // Other tests bump the process-wide counters too, so each check is
        // a floor.
        let (tests0, removals0) = (tests.get(), removals.get());
        let mut stats = MinimizeStats::default();
        let mut engine =
            CimEngine::new_guarded(q.clone(), &mut stats, &Guard::unlimited()).unwrap();
        engine.run_guarded(&mut stats, &Guard::unlimited()).unwrap();
        assert_eq!(stats.cim_removed, 1);
        assert!(tests.get() - tests0 >= stats.redundancy_tests as u64);
        assert!(removals.get() - removals0 >= 1);
        // One test passes the budget; the removal's table upkeep trips it.
        let tests0 = tests.get();
        let mut stats = MinimizeStats::default();
        let mut engine = new_engine(q);
        assert!(engine.run_guarded(&mut stats, &Guard::with_budget(2)).is_err());
        assert_eq!((stats.redundancy_tests, stats.cim_removed), (1, 0));
        assert!(tests.get() - tests0 >= 1, "the tripped run's test is counted");
    }

    #[test]
    fn removal_clears_nested_temporary_subtrees_from_the_alive_row() {
        // `r*[/a[/x/y]][/a][/b]`, the first `a` carrying a two-level
        // temporary chain: removing that `a` kills `x` and `y` too.
        let mut tys = TypeInterner::new();
        let (a, b, x, y) = (tys.intern("a"), tys.intern("b"), tys.intern("x"), tys.intern("y"));
        let mut q = TreePattern::new(tys.intern("r"));
        let first = q.add_child(q.root(), EdgeKind::Child, a);
        let t = q.add_temp_child(first, EdgeKind::Child, x);
        q.add_temp_child(t, EdgeKind::Child, y);
        q.add_child(q.root(), EdgeKind::Child, a);
        q.add_child(q.root(), EdgeKind::Child, b);
        let mut engine = new_engine(q);
        assert_eq!(run(&mut engine), [first]);
        let tree = &engine.tree;
        let mut alive: Vec<NodeId> = rows::ones(&engine.alive, 0).map(|r| tree.id(r)).collect();
        alive.sort_unstable();
        let expected: Vec<NodeId> = engine.pattern().alive_ids().collect();
        assert_eq!(alive, expected);
        for v in expected {
            let row = engine.base.row(tree.rank(v) as usize);
            assert!(rows::ones(row, 0).all(|u| engine.pattern().is_alive(tree.id(u))), "{v}");
        }
    }
}
