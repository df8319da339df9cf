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
//! instead of being rebuilt for every leaf. [`CimEngine`] keeps three
//! tables over the arena of the (possibly augmented) pattern:
//!
//! * `base`, the globally pruned images table: row `v` is exactly the set
//!   of nodes `u` such that the subtree of `v` embeds below `u` with
//!   `v ↦ u` (no exclusions);
//! * `anc`, the ancestor/descendant table: row `u` is the set of `u`'s
//!   proper ancestors;
//! * `compat`, the node-level compatibility rows: row `v` is every `u`
//!   with `v ↦ u` allowed by types, the output marker and conditions. It
//!   is built once by ANDing per-type rows (and the output row); the
//!   condition entailment check runs per pair only for nodes that carry
//!   conditions.
//!
//! # Row layout
//!
//! A row is a bitset over the arena: ⌈n/64⌉ `u64` words for an arena of
//! `n` nodes, with node `u` at bit `u % 64` of word `u / 64`. A table
//! stores its `n` rows back to back in one `Vec<u64>`, so each table
//! takes n·⌈n/64⌉·8 bytes — a 57-node augmented pattern needs one word
//! per row and 456 bytes per table. Structural checks become word
//! operations:
//!
//! * a c-edge child's row maps to the set of parents of its members that
//!   hang by a c-edge;
//! * a d-edge child's row maps to the union of its members' `anc` rows;
//! * pruning a node ANDs its row with every original child's mask.
//!
//! The footprint is quadratic in the arena: a 100k-node pattern of
//! distinct types would need gigabytes. The build therefore spends its
//! [`Guard`] charge before it allocates a row, so a step budget refuses
//! such a pattern first (a deadline alone does not bound the memory).
//!
//! # Redundancy tests
//!
//! Testing a leaf `l` costs only an *overlay walk* along `l`'s ancestor
//! chain, keeping one row per path step: the leaf's row is
//! `base(l) \ {l}`, and each ancestor's row is its base row ANDed with
//! the mask of the row below — every off-path constraint was already
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
//! pruned. Since tests outnumber removals, total table-building work
//! drops from `O(tests · n · maxImage)` to `O(removals · n · maxImage)`;
//! the `ablate-incremental` panel quantifies it.
//!
//! # Identical answers
//!
//! Rows are iterated in ascending arena order, which is the order of the
//! candidate lists of the list-based tables ([`crate::mapping`]). Witness
//! extraction takes the first edge-compatible member of each overlay row,
//! so the witnesses, `tpq explain` output and [`MinimizeStats`] counters
//! equal those of list-based tables, and the [`Guard`] is charged the same
//! steps: the size of the alive set per compatibility row, the row size
//! plus one per prune, and the size of the alive set per ancestor
//! recomputation. The one addition: when rows span several words and the
//! tables' words outnumber the compatibility charge (few original nodes in
//! a large arena), the build also spends the difference. The
//! rebuild-per-test reference ([`crate::redundant`]) is the oracle the
//! differential tests hold the engine to.

use crate::chase::{augment_guarded, present_types};
use crate::pipeline::{minimize_unlimited, Strategy};
use crate::stats::MinimizeStats;
use std::cell::Cell;
use std::time::Instant;
use tpq_base::{FxHashMap, Guard, Result, TypeId};
use tpq_constraints::ConstraintSet;
use tpq_pattern::{EdgeKind, NodeId, TreePattern};

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

/// The CIM/ACIM stage on a working copy: augment `work` under `closed`
/// (skipped for CIM, `None`), build the engine, run the MEO loop and strip
/// the temporaries. The result is not compacted, so `tpq explain`'s node
/// ids stay valid. A tripped guard returns [`Err`]; the partial work is
/// dropped.
pub(crate) fn acim_stage(
    mut work: TreePattern,
    closed: Option<&ConstraintSet>,
    stats: &mut MinimizeStats,
    guard: &Guard,
) -> Result<TreePattern> {
    let _span = tpq_obs::span!("acim");
    if let Some(closed) = closed {
        let allowed = present_types(&work);
        augment_guarded(&mut work, closed, &allowed, stats, guard)?;
    }
    let mut engine = CimEngine::new_guarded(work, stats, guard)?;
    engine.run_guarded(stats, guard)?;
    let mut out = engine.into_pattern();
    out.strip_temporaries();
    Ok(out)
}

/// Fixed-width bitset rows, one per arena node, stored back to back.
struct Table {
    words: usize,
    bits: Vec<u64>,
}

impl Table {
    fn new(rows: usize, words: usize) -> Table {
        Table { words, bits: vec![0; rows * words] }
    }

    #[inline]
    fn row(&self, id: NodeId) -> &[u64] {
        &self.bits[id.index() * self.words..(id.index() + 1) * self.words]
    }

    #[inline]
    fn row_mut(&mut self, id: NodeId) -> &mut [u64] {
        &mut self.bits[id.index() * self.words..(id.index() + 1) * self.words]
    }
}

#[inline]
fn contains(row: &[u64], u: NodeId) -> bool {
    row[u.index() / 64] & (1 << (u.index() % 64)) != 0
}

#[inline]
fn insert(row: &mut [u64], u: NodeId) {
    row[u.index() / 64] |= 1 << (u.index() % 64);
}

#[inline]
fn remove(row: &mut [u64], u: NodeId) {
    row[u.index() / 64] &= !(1 << (u.index() % 64));
}

fn is_empty(row: &[u64]) -> bool {
    row.iter().all(|&w| w == 0)
}

fn count(row: &[u64]) -> u64 {
    row.iter().map(|w| u64::from(w.count_ones())).sum()
}

/// `row &= mask`; returns whether `row` lost a member.
#[inline]
fn and_with(row: &mut [u64], mask: &[u64]) -> bool {
    let mut changed = false;
    for (r, &m) in row.iter_mut().zip(mask) {
        changed |= *r & !m != 0;
        *r &= m;
    }
    changed
}

/// The members of `row` in ascending arena order.
fn ones(row: &[u64]) -> Ones<'_> {
    Ones { row, word: 0, cur: row.first().copied().unwrap_or(0) }
}

/// Iterator behind [`ones`].
struct Ones<'a> {
    row: &'a [u64],
    /// Index of the word `cur` came from.
    word: usize,
    /// The not yet visited bits of that word.
    cur: u64,
}

impl Iterator for Ones<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        while self.cur == 0 {
            self.word += 1;
            self.cur = *self.row.get(self.word)?;
        }
        let b = self.cur.trailing_zeros() as usize;
        self.cur &= self.cur - 1;
        Some(NodeId((self.word * 64 + b) as u32))
    }
}

/// The pattern's edges as rows, fixed while leaves are removed (deleting
/// leaves never changes the ancestors or parents of surviving nodes).
struct Edges {
    /// The ancestor/descendant table: row `u` holds `u`'s proper ancestors.
    anc: Table,
    /// `c_parent[u]`: `u`'s parent if `u` hangs by a c-edge.
    c_parent: Vec<Option<NodeId>>,
    /// Each node's original (non-temporary) children, in child order: the
    /// children of `v` are `originals[starts[v]..starts[v + 1]]`. Pruning
    /// reads them as one slice instead of following the pattern's sibling
    /// links through the temporaries the chase appended.
    starts: Vec<u32>,
    originals: Vec<NodeId>,
}

impl Edges {
    /// The rows of `q`'s alive nodes, given their post-order `post`.
    fn build(q: &TreePattern, post: &[NodeId], words: usize) -> Edges {
        let mut anc = Table::new(q.arena_len(), words);
        let mut c_parent = vec![None; q.arena_len()];
        // Reverse post-order visits every parent before its children.
        for &u in post.iter().rev() {
            let Some(p) = q.node(u).parent else { continue };
            anc.bits.copy_within(p.index() * words..(p.index() + 1) * words, u.index() * words);
            insert(anc.row_mut(u), p);
            if q.node(u).edge == EdgeKind::Child {
                c_parent[u.index()] = Some(p);
            }
        }
        let mut starts = Vec::with_capacity(q.arena_len() + 1);
        let mut originals = Vec::with_capacity(post.len());
        for v in 0..q.arena_len() {
            starts.push(originals.len() as u32);
            let v = NodeId(v as u32);
            if q.is_alive(v) {
                originals.extend(q.children(v).filter(|&c| !q.node(c).temporary));
            }
        }
        starts.push(originals.len() as u32);
        Edges { anc, c_parent, starts, originals }
    }

    /// The original children `v` had when the engine was built; some may
    /// have been removed since.
    #[inline]
    fn originals(&self, v: NodeId) -> &[NodeId] {
        &self.originals[self.starts[v.index()] as usize..self.starts[v.index() + 1] as usize]
    }

    /// Write into `mask` the nodes that pass the structural check as the
    /// parent's image, for a child hanging by `edge` whose candidates are
    /// `child_row`: the parents of the members hanging by a c-edge, or
    /// every proper ancestor of a member.
    fn mask(&self, edge: EdgeKind, child_row: &[u64], mask: &mut [u64]) {
        mask.fill(0);
        match edge {
            EdgeKind::Child => {
                for u in ones(child_row) {
                    if let Some(p) = self.c_parent[u.index()] {
                        insert(mask, p);
                    }
                }
            }
            EdgeKind::Descendant => {
                for u in ones(child_row) {
                    for (m, &a) in mask.iter_mut().zip(self.anc.row(u)) {
                        *m |= a;
                    }
                }
            }
        }
    }

    /// May a child hanging by `edge` map onto `u` when its parent maps
    /// onto `image`?
    fn fits(&self, edge: EdgeKind, image: NodeId, u: NodeId) -> bool {
        match edge {
            EdgeKind::Child => self.c_parent[u.index()] == Some(image),
            EdgeKind::Descendant => contains(self.anc.row(u), image),
        }
    }
}

/// Incremental minimization engine over one (possibly augmented) pattern.
pub struct CimEngine {
    q: TreePattern,
    /// The images table; rows of temporary and dead nodes stay empty.
    base: Table,
    edges: Edges,
    /// Row `v`: every node alive at construction that `v` may map onto.
    /// Rows of temporary nodes stay empty (they are never in the domain).
    compat: Table,
    /// The alive nodes.
    alive: Vec<u64>,
    /// Scratch row for [`Edges::mask`].
    mask: Vec<u64>,
}

impl CimEngine {
    /// Build the engine: ancestor/descendant table plus the globally
    /// pruned images table (timed into `stats.tables_time`). Table
    /// construction spends one step per candidate considered, so a small
    /// budget or deadline trips before the `O(n · maxImage)` build
    /// completes. The compatibility charge is spent before any row is
    /// allocated, so a budget also bounds the tables' n·⌈n/64⌉ words.
    pub fn new_guarded(q: TreePattern, stats: &mut MinimizeStats, guard: &Guard) -> Result<Self> {
        let _span = tpq_obs::span!("acim.tables");
        let t0 = Instant::now();
        let n = q.arena_len();
        let words = n.div_ceil(64);
        let type_row = charge_build(&q, words, guard)?;
        let mut alive = vec![0; words];
        for u in q.alive_ids() {
            insert(&mut alive, u);
        }
        let post = q.post_order();
        let edges = Edges::build(&q, &post, words);
        let compat = compat_rows(&q, &alive, &type_row, guard)?;
        let base = Table { words, bits: compat.bits.clone() };
        let mut engine = CimEngine { q, base, edges, compat, alive, mask: vec![0; words] };
        for &v in &post {
            if !engine.q.node(v).temporary {
                guard.spend(count(engine.base.row(v)) + 1)?;
                engine.prune(v);
            }
        }
        stats.tables_time += t0.elapsed();
        if tpq_obs::enabled() {
            use tpq_obs::FieldValue::U64;
            tpq_obs::event(
                "acim.table",
                &[("nodes", U64(n as u64)), ("candidates", U64(count(&engine.base.bits)))],
            );
        }
        Ok(engine)
    }

    /// Whether `v` has an alive original child: a node whose children are
    /// all temporary is a leaf for redundancy tests.
    fn has_original_child(&self, v: NodeId) -> bool {
        self.edges.originals(v).iter().any(|&c| contains(&self.alive, c))
    }

    /// Borrow the current pattern.
    pub fn pattern(&self) -> &TreePattern {
        &self.q
    }

    /// Consume the engine, returning the minimized pattern.
    pub fn into_pattern(self) -> TreePattern {
        self.q
    }

    /// AND `v`'s images row with the mask of each original child's row.
    /// Returns `true` if anything was removed.
    fn prune(&mut self, v: NodeId) -> bool {
        let CimEngine { q, base, edges, mask, alive, .. } = self;
        let mut changed = false;
        for &w in edges.originals(v) {
            if !contains(alive, w) {
                continue;
            }
            edges.mask(q.node(w).edge, base.row(w), mask);
            let row = base.row_mut(v);
            changed |= and_with(row, mask);
            if is_empty(row) {
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
    /// The ancestor table stays valid: deleting leaves never changes the
    /// ancestors of surviving nodes.
    /// A tripped guard leaves the tables stale; the pattern itself stays
    /// valid (the removal was already proven redundant), but the engine
    /// must be discarded — `run_guarded` propagates the error out.
    fn apply_removal(
        &mut self,
        l: NodeId,
        worklist: &mut Vec<NodeId>,
        stats: &mut MinimizeStats,
        guard: &Guard,
    ) -> Result<()> {
        let _span = tpq_obs::span!("acim.tables");
        let t0 = Instant::now();
        // Step 1: clear the bits of every node the removal killed, cascade
        // shrinkage.
        for (i, word) in self.alive.iter_mut().enumerate() {
            let mut rest = *word;
            while rest != 0 {
                let b = rest.trailing_zeros();
                rest &= rest - 1;
                if !self.q.is_alive(NodeId(i as u32 * 64 + b)) {
                    *word &= !(1 << b);
                }
            }
        }
        self.base.row_mut(l).fill(0);
        worklist.clear();
        for w in self.q.alive_ids() {
            if !self.q.node(w).temporary && and_with(self.base.row_mut(w), &self.alive) {
                if let Some(p) = self.q.node(w).parent {
                    worklist.push(p);
                }
            }
        }
        while let Some(v) = worklist.pop() {
            guard.check()?;
            // Ancestors of l get a full recompute below.
            let recomputed = contains(self.edges.anc.row(l), v);
            if recomputed || !self.q.is_alive(v) || self.q.node(v).temporary {
                continue;
            }
            if self.prune(v) {
                if let Some(p) = self.q.node(v).parent {
                    worklist.push(p);
                }
            }
        }
        // Step 2: ancestors of l, bottom-up, recomputed from scratch.
        let targets = count(&self.alive);
        let mut next = self.q.node(l).parent;
        while let Some(v) = next {
            guard.spend(targets)?;
            let CimEngine { base, compat, alive, .. } = self;
            let row = base.row_mut(v);
            row.copy_from_slice(compat.row(v));
            and_with(row, alive);
            self.prune(v);
            next = self.q.node(v).parent;
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
        let witness = self.witness(l, &mut scratch.path, &mut scratch.overlay);
        scratch.keep(&self.q);
        witness
    }

    /// [`CimEngine::test_leaf_witness`] on the caller's buffers.
    fn witness(&self, l: NodeId, path: &mut Vec<NodeId>, overlay: &mut Vec<u64>) -> Option<NodeId> {
        let _span = tpq_obs::span!("acim.scan");
        debug_assert!(!self.has_original_child(l));
        let words = self.base.words;
        // The ancestor chain walked so far, leaf first — the spine the
        // witness extraction descends — and its overlay rows, one per
        // path step, back to back.
        path.clear();
        path.push(l);
        overlay.clear();
        overlay.extend_from_slice(self.base.row(l));
        remove(overlay, l);
        if is_empty(overlay) {
            return None;
        }
        for v in self.q.ancestors(l) {
            let path_child = *path.last().expect("path starts at l");
            let below = overlay.len() - words;
            overlay.resize(below + 2 * words, 0);
            let (done, row) = overlay.split_at_mut(below + words);
            self.edges.mask(self.q.node(path_child).edge, &done[below..], row);
            and_with(row, self.base.row(v));
            if is_empty(row) {
                return None;
            }
            if contains(row, v) {
                overlay.truncate(below + words);
                return Some(self.descend_overlay(path, v, overlay));
            }
            path.push(v);
        }
        // The root was reached without an early exit; its overlay row is
        // non-empty, which (endomorphisms fix the root) means redundant.
        path.pop();
        let (below, top) = overlay.split_at(path.len() * words);
        let top = ones(top).next().expect("the root's overlay row is non-empty");
        Some(self.descend_overlay(path, top, below))
    }

    /// Extract `l`'s image by walking the overlay spine back down from the
    /// node that mapped to `top`, choosing the first edge-compatible
    /// candidate of each row. Sound because every overlay candidate came
    /// from `base` (so its whole subtree is certified) and every surviving
    /// parent candidate passed the same edge check against the child's
    /// overlay row when the row above was masked.
    fn descend_overlay(&self, path: &[NodeId], top: NodeId, overlay: &[u64]) -> NodeId {
        let words = self.base.words;
        let mut image = top;
        for (k, &p) in path.iter().enumerate().rev() {
            let row = &overlay[k * words..(k + 1) * words];
            image = ones(row)
                .find(|&u| self.edges.fits(self.q.node(p).edge, image, u))
                .expect("surviving image has an edge-compatible candidate in the overlay");
        }
        image
    }

    /// Run the MEO loop to completion; returns the removed node ids in
    /// order. The guard is checked at every loop head and spent per
    /// redundancy test and per table-maintenance step. On a trip the
    /// engine's pattern is valid but partially minimized (every applied
    /// removal was proven redundant) — callers wanting all-or-nothing
    /// semantics should discard the engine.
    pub fn run_guarded(&mut self, stats: &mut MinimizeStats, guard: &Guard) -> Result<Vec<NodeId>> {
        let mut scratch = SCRATCH.take();
        let removed = self.meo(&mut scratch, stats, guard);
        scratch.keep(&self.q);
        removed
    }

    /// [`CimEngine::run_guarded`] on the caller's buffers.
    fn meo(
        &mut self,
        scratch: &mut Scratch,
        stats: &mut MinimizeStats,
        guard: &Guard,
    ) -> Result<Vec<NodeId>> {
        let tests = tpq_obs::counter("redundancy_tests");
        let removals = tpq_obs::counter("cim_removed");
        let obs_on = tpq_obs::enabled();
        let mut removed = Vec::new();
        let Scratch { candidates, path, overlay, worklist, non_redundant } = scratch;
        non_redundant.clear();
        non_redundant.resize(self.base.words, 0);
        loop {
            guard.check()?;
            candidates.clear();
            candidates.extend(self.q.alive_ids().filter(|&v| {
                !self.q.node(v).temporary
                    && !self.has_original_child(v)
                    && v != self.q.root()
                    && v != self.q.output()
                    && !contains(non_redundant, v)
            }));
            if candidates.is_empty() {
                break;
            }
            let mut progress = false;
            for &l in candidates.iter() {
                if !self.q.is_alive(l) {
                    continue;
                }
                guard.spend(1)?;
                stats.redundancy_tests += 1;
                if obs_on {
                    tests.add(1);
                }
                if let Some(witness) = self.witness(l, path, overlay) {
                    if obs_on {
                        use tpq_obs::FieldValue::U64;
                        tpq_obs::event(
                            "cim.prune",
                            &[("node", U64(l.0 as u64)), ("witness", U64(witness.0 as u64))],
                        );
                    }
                    // Remove l and its temporary children, then maintain
                    // the tables incrementally.
                    while let Some(t) = self.q.children(l).next() {
                        debug_assert!(self.q.node(t).temporary);
                        self.q.remove_subtree(t).expect("temp subtree");
                    }
                    self.q.remove_leaf(l).expect("leaf");
                    self.apply_removal(l, worklist, stats, guard)?;
                    removed.push(l);
                    stats.cim_removed += 1;
                    if obs_on {
                        removals.add(1);
                    }
                    progress = true;
                } else {
                    insert(non_redundant, l);
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

/// The MEO loop's reusable buffers.
#[derive(Default)]
struct Scratch {
    /// The leaves to test in the current round.
    candidates: Vec<NodeId>,
    /// The overlay walk's ancestor chain and its rows.
    path: Vec<NodeId>,
    overlay: Vec<u64>,
    /// Rows to re-prune after a removal.
    worklist: Vec<NodeId>,
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
/// per original node, one compatibility row each, as a list-based build
/// spends it. When rows are wider than one word and the tables (three of
/// n rows plus one per type) take more words than that, the difference is
/// spent too, so a step budget bounds the tables' memory whatever the
/// arena's shape.
fn charge_build(q: &TreePattern, words: usize, guard: &Guard) -> Result<FxHashMap<TypeId, usize>> {
    let targets = q.alive_ids().count() as u64;
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
        let footprint = ((3 * q.arena_len() + type_row.len()) * words) as u64;
        if footprint > charged {
            guard.spend(footprint - charged)?;
        }
    }
    Ok(type_row)
}

/// The `compat` table of `q`: for every alive original node `v`, the alive
/// nodes `u` with `node_compatible(v, u)`. Type-set inclusion is the AND
/// of one row per type of `v`; the output marker masks the row down to
/// the output node; entailment runs per pair only when `v` carries
/// conditions, after a guard check ([`charge_build`] already spent the
/// steps, so this only catches a deadline or a cancellation).
fn compat_rows(
    q: &TreePattern,
    alive: &[u64],
    type_row: &FxHashMap<TypeId, usize>,
    guard: &Guard,
) -> Result<Table> {
    let words = alive.len();
    // The nodes carrying type `t`, at `type_row[t] * words`.
    let mut type_rows = vec![0; type_row.len() * words];
    for u in q.alive_ids() {
        for t in q.node(u).types.iter() {
            let at = type_row[&t] * words;
            insert(&mut type_rows[at..at + words], u);
        }
    }
    let mut compat = Table::new(q.arena_len(), words);
    for v in q.alive_ids() {
        let node = q.node(v);
        if node.temporary {
            continue;
        }
        let row = compat.row_mut(v);
        row.copy_from_slice(alive);
        for t in node.types.iter() {
            let at = type_row[&t] * words;
            and_with(row, &type_rows[at..at + words]);
        }
        if node.output {
            let out = q.output();
            let keep = contains(row, out);
            row.fill(0);
            if keep {
                insert(row, out);
            }
        }
        let conditions = q.conditions(v);
        if !conditions.is_empty() {
            guard.check()?;
            let members: Vec<NodeId> = ones(row).collect();
            for u in members {
                if !tpq_pattern::condition::entails(q.conditions(u), conditions) {
                    remove(row, u);
                }
            }
        }
    }
    Ok(compat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::{equivalent, equivalent_under};
    use crate::pipeline::minimize_closed_guarded;
    use crate::redundant::{cim_with_order, redundant_leaf};
    use tpq_base::TypeInterner;
    use tpq_constraints::parse_constraints;
    use tpq_pattern::{isomorphic, parse_pattern};

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

    #[test]
    fn row_iteration_crosses_word_boundaries() {
        let mut row = vec![0u64; 4];
        let members = [0, 1, 63, 64, 127, 192, 255];
        for &u in &members {
            insert(&mut row, NodeId(u));
        }
        let got: Vec<u32> = ones(&row).map(|u| u.0).collect();
        assert_eq!(got, members, "ascending, across words and past an empty one");
        assert_eq!(count(&row), members.len() as u64);
        for u in 0..256 {
            assert_eq!(contains(&row, NodeId(u)), members.contains(&u), "bit {u}");
        }
        remove(&mut row, NodeId(64));
        remove(&mut row, NodeId(0));
        assert_eq!(ones(&row).next(), Some(NodeId(1)));
        remove(&mut row, NodeId(63));
        remove(&mut row, NodeId(127));
        assert_eq!(ones(&row).map(|u| u.0).collect::<Vec<_>>(), [1, 192, 255]);
        assert_eq!(ones(&[0, 0]).next(), None);
        assert_eq!(ones(&[]).next(), None);
        assert_eq!(ones(&[u64::MAX]).count(), 64);
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
        let alive: Vec<NodeId> = ones(&engine.alive).collect();
        let expected: Vec<NodeId> = engine.pattern().alive_ids().collect();
        assert_eq!(alive, expected);
        for v in expected {
            assert!(ones(engine.base.row(v)).all(|u| engine.pattern().is_alive(u)), "{v}");
        }
    }
}
