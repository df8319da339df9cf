//! CDM — Constraint-Dependent Minimization by local pruning
//! (Sections 5.4–5.5).
//!
//! CDM walks the query bottom-up, propagating information content
//! ([`crate::info`]) and, at each node, applying the minimization rules of
//! Figure 6, which are exactly the four local-redundancy conditions of
//! Section 5.4. A leaf `l` of type `t2` under node `v` of type `t1` is
//! *locally redundant* when (with `Σ` logically closed):
//!
//! 1. `l` is a c-child and `t1 -> t2 ∈ Σ`;
//! 2. `l` is a d-child and `t1 ->> t2 ∈ Σ`;
//! 3. `l` is a c-child and `v` has another c-child of type `t` with
//!    `t ~ t2 ∈ Σ`;
//! 4. `l` is a d-child and `v` has a descendant `w` of type `t` (at any
//!    depth, witnessed by an obligation in `v`'s information content) with
//!    `t ->> t2 ∈ Σ` or `t ~ t2 ∈ Σ`.
//!
//! Only *plain* obligations (direct unconstrained leaves) are removal
//! targets; any live obligation can witness. Removing a leaf can make its
//! parent a leaf, which the parent's parent then sees as a plain
//! obligation — the single post-order sweep handles the cascade. That one
//! sweep reaches the fixpoint: a rule at `v` reads only `v`'s subtree,
//! which is final by the time `v` is visited, and a removal only takes
//! witnesses away, so a second sweep would remove nothing.
//!
//! CDM is *incomplete* (Theorem 5.2 gives local minimality only) but fast:
//! its cost is `O(min(n · maxd · maxf, n²))` and independent of the size
//! of the constraint repository (every rule check is a hash probe keyed by
//! a type pair — Figure 8(a)).

use crate::info::{Obligation, ObligationKind};
use crate::pipeline::{minimize_unlimited, Strategy};
use crate::stats::MinimizeStats;
use std::cell::Cell;
use std::ops::Range;
use tpq_base::{Guard, Result, TypeId};
use tpq_constraints::ConstraintSet;
use tpq_pattern::{NodeId, TreePattern};

/// Minimize `q` by local pruning under `ics` (closure computed
/// internally). Returns the compacted, locally minimal query.
pub fn cdm(q: &TreePattern, ics: &ConstraintSet) -> TreePattern {
    minimize_unlimited(q, &ics.closure(), Strategy::CdmOnly).pattern
}

/// Run CDM on `q` in place. `closed` **must** be logically closed (the
/// rules consult it directly; an unclosed set silently misses
/// redundancies). Returns the number of leaves removed.
///
/// The guard is checked once on entry and spent once per post-order
/// frame. On a trip `q` is left partially pruned but still
/// equivalent under the constraints (every removal applied was
/// individually justified by a Figure 6 rule); callers wanting
/// all-or-nothing semantics work on a clone.
pub fn cdm_in_place_guarded(
    q: &mut TreePattern,
    closed: &ConstraintSet,
    stats: &mut MinimizeStats,
    guard: &Guard,
) -> Result<usize> {
    let _span = tpq_obs::span!("cdm");
    guard.check()?;
    let mut scratch = SCRATCH.take();
    let swept = scratch.sweep(q, closed, guard);
    if q.arena_len() <= KEEP_SCRATCH_NODES {
        SCRATCH.set(scratch); // larger buffers are dropped, not pinned
    }
    let removed = swept?;
    stats.cdm_removed += removed;
    tpq_obs::incr("cdm_removed", removed as u64);
    Ok(removed)
}

/// Each thread keeps its sweep buffers for the next call, unless they
/// grew for a pattern larger than this.
const KEEP_SCRATCH_NODES: usize = 4096;

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::default();
}

/// A node on the post-order walk, with the child to enter next and where
/// its children's contents start in [`Scratch::done`] and
/// [`Scratch::obligations`].
struct Frame {
    node: NodeId,
    next: Option<NodeId>,
    done: usize,
    obligations: usize,
}

/// The information content of a finished node, awaiting its parent: its
/// obligations are `Scratch::obligations[obligations]`.
struct Done {
    node: NodeId,
    self_type: TypeId,
    self_constrained: bool,
    obligations: Range<usize>,
}

/// The sweep's reusable buffers. The finished children of every node on
/// the walk sit on `done`, and their obligation lists back to back at the
/// end of `obligations`, so a node's contents are built without a list of
/// their own.
#[derive(Default)]
struct Scratch {
    frames: Vec<Frame>,
    done: Vec<Done>,
    obligations: Vec<Obligation>,
}

impl Scratch {
    /// One post-order sweep over the whole tree, applying the Figure 6
    /// rules at each node once its children are final. Iterative, so
    /// safe on arbitrarily deep queries. Returns the leaves removed.
    fn sweep(
        &mut self,
        q: &mut TreePattern,
        closed: &ConstraintSet,
        guard: &Guard,
    ) -> Result<usize> {
        self.frames.clear();
        self.done.clear();
        self.obligations.clear();
        let mut removed = 0;
        let root = q.root();
        self.frames.push(Frame {
            node: root,
            next: q.children(root).next(),
            done: 0,
            obligations: 0,
        });
        while let Some(top) = self.frames.last_mut() {
            if let Some(c) = top.next {
                top.next = q.next_sibling(c);
                guard.spend(1)?;
                let frame = Frame {
                    node: c,
                    next: q.children(c).next(),
                    done: self.done.len(),
                    obligations: self.obligations.len(),
                };
                self.frames.push(frame);
                continue;
            }
            let frame = self.frames.pop().expect("just peeked");
            removed += self.minimize_at(q, closed, &frame);
        }
        Ok(removed)
    }

    /// Gather the obligations of `frame.node` from its children's finished
    /// contents, apply the Figure 6 rules against them, and replace the
    /// children's contents with the node's own. Returns the leaves removed.
    fn minimize_at(&mut self, q: &mut TreePattern, closed: &ConstraintSet, frame: &Frame) -> usize {
        let v = frame.node;
        let gathered = self.obligations.len();
        for d in &self.done[frame.done..] {
            let own = Obligation::of_child(q, d.node, d.self_type, d.self_constrained);
            self.obligations.push(own);
            for i in d.obligations.clone() {
                let propagated = self.obligations[i].propagated();
                // Constrained obligations carry no source, so duplicates
                // are pure noise — dedup them.
                if !self.obligations[gathered..].contains(&propagated) {
                    self.obligations.push(propagated);
                }
            }
        }
        let children = self.done.len() - frame.done;
        let mut survivors = children;
        // Minimization rules at v, until no plain obligation is removable.
        // A removed leaf contributed exactly its own plain obligation (it
        // has none below it, and plain obligations never take part in the
        // dedup), so dropping that one entry leaves the list a regather
        // would build, in the same order.
        loop {
            let obligations = &self.obligations[gathered..];
            let target = obligations.iter().enumerate().find_map(|(i, o)| {
                let l = o.source?;
                if o.constrained || l == q.output() || q.node(l).temporary {
                    return None;
                }
                removable(q.node(v).primary, o, i, obligations, closed).map(|why| (i, l, why))
            });
            let Some((i, l, why)) = target else { break };
            if tpq_obs::enabled() {
                use tpq_obs::FieldValue::{Str, U64};
                let mut fields = vec![
                    ("node", U64(l.0 as u64)),
                    ("at", U64(v.0 as u64)),
                    ("rule", U64(why.rule as u64)),
                    ("lhs", U64(why.lhs.0 as u64)),
                    ("op", Str(why.op)),
                    ("rhs", U64(why.rhs.0 as u64)),
                ];
                if let Some(w) = why.witness {
                    fields.push(("witness_ty", U64(w.0 as u64)));
                }
                tpq_obs::event("cdm.prune", &fields);
            }
            q.remove_leaf(l).expect("plain obligation sources are removable leaves");
            self.obligations.remove(gathered + i);
            survivors -= 1;
        }
        // v's content replaces its children's: its obligations move down
        // to where theirs began.
        self.obligations.drain(frame.obligations..gathered);
        self.done.truncate(frame.done);
        self.done.push(Done {
            node: v,
            self_type: q.node(v).primary,
            self_constrained: survivors > 0,
            obligations: frame.obligations..self.obligations.len(),
        });
        children - survivors
    }
}

/// Why a plain obligation is locally redundant: the Figure 6 rule number
/// and the closed-set constraint `lhs op rhs` that fired, with the
/// witnessing obligation's type for the sibling rules (3 and 4). Feeds
/// the `cdm.prune` decision event and, through it, `tpq explain`.
struct CdmReason {
    rule: u8,
    lhs: tpq_base::TypeId,
    op: &'static str,
    rhs: tpq_base::TypeId,
    witness: Option<tpq_base::TypeId>,
}

/// Figure 6 / the four conditions: is the plain obligation `target`
/// (at a node of type `t_v`) redundant? `Some` carries the rule that
/// justified it.
fn removable(
    t_v: tpq_base::TypeId,
    target: &Obligation,
    target_idx: usize,
    obligations: &[Obligation],
    closed: &ConstraintSet,
) -> Option<CdmReason> {
    let t2 = target.ty;
    // Value-based conditions (Section 7): ICs guarantee existence by type
    // only, so IC-based removals need a condition-free target, and a
    // witness must entail the target's conditions.
    let unconditioned = target.conditions.is_empty();
    let witness_ok = |o1: &crate::info::Obligation| {
        tpq_pattern::condition::entails(&o1.conditions, &target.conditions)
    };
    match target.kind {
        ObligationKind::Ancestor => {
            // Condition 2: the node's own type requires a t2 descendant.
            if unconditioned && closed.has_required_descendant(t_v, t2) {
                return Some(CdmReason { rule: 2, lhs: t_v, op: "->>", rhs: t2, witness: None });
            }
            // Condition 4: any other descendant witnesses it.
            obligations.iter().enumerate().find_map(|(i, o1)| {
                if i == target_idx {
                    return None;
                }
                if closed.has_required_descendant(o1.ty, t2) && unconditioned {
                    Some(CdmReason {
                        rule: 4,
                        lhs: o1.ty,
                        op: "->>",
                        rhs: t2,
                        witness: Some(o1.ty),
                    })
                } else if closed.has_cooccurrence(o1.ty, t2) && witness_ok(o1) {
                    Some(CdmReason { rule: 4, lhs: o1.ty, op: "~", rhs: t2, witness: Some(o1.ty) })
                } else {
                    None
                }
            })
        }
        ObligationKind::Parent => {
            // Condition 1: the node's own type requires a t2 child.
            if unconditioned && closed.has_required_child(t_v, t2) {
                return Some(CdmReason { rule: 1, lhs: t_v, op: "->", rhs: t2, witness: None });
            }
            // Condition 3: a sibling c-child co-occurs with t2.
            obligations.iter().enumerate().find_map(|(i, o1)| {
                (i != target_idx
                    && o1.kind == ObligationKind::Parent
                    && closed.has_cooccurrence(o1.ty, t2)
                    && witness_ok(o1))
                .then_some(CdmReason {
                    rule: 3,
                    lhs: o1.ty,
                    op: "~",
                    rhs: t2,
                    witness: Some(o1.ty),
                })
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::equivalent_under;
    use tpq_base::TypeInterner;
    use tpq_constraints::parse_constraints;
    use tpq_pattern::{isomorphic, parse_pattern};

    fn run(q: &str, ics: &str) -> (TreePattern, TreePattern, ConstraintSet, TypeInterner) {
        let mut tys = TypeInterner::new();
        let pat = parse_pattern(q, &mut tys).unwrap();
        let set = parse_constraints(ics, &mut tys).unwrap();
        let out = cdm(&pat, &set);
        (pat, out, set, tys)
    }

    #[test]
    fn condition_1_required_child() {
        let (q, m, ics, mut tys) = run("Book*[/Title][/Publisher]", "Book -> Publisher");
        let want = parse_pattern("Book*/Title", &mut tys).unwrap();
        assert!(isomorphic(&m, &want));
        assert!(equivalent_under(&q, &m, &ics, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn condition_2_required_descendant() {
        let (q, m, ics, mut tys) = run("Book*[//LastName][/Title]", "Book ->> LastName");
        let want = parse_pattern("Book*/Title", &mut tys).unwrap();
        assert!(isomorphic(&m, &want));
        assert!(equivalent_under(&q, &m, &ics, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn required_child_ic_does_not_remove_d_leaf_or_vice_versa() {
        // a ->> b does not justify removing a c-child b.
        let (_, m, _, _) = run("a*[/b][/c]", "a ->> b");
        assert_eq!(m.size(), 3);
        // a -> b DOES justify removing a d-child b (closure: a ->> b).
        let (_, m2, _, _) = run("a*[//b][/c]", "a -> b");
        assert_eq!(m2.size(), 2);
    }

    #[test]
    fn condition_3_sibling_cooccurrence() {
        // Figure 2(f) core: Employee c-child is subsumed by the PermEmp
        // c-child since PermEmp ~ Employee.
        let (q, m, ics, _) = run("Organization*[/Employee][/PermEmp]", "PermEmp ~ Employee");
        assert_eq!(m.size(), 2);
        // The PermEmp child must be the survivor.
        assert!(equivalent_under(&q, &m, &ics, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn condition_3_needs_c_children_both_ways() {
        // A d-child witness cannot subsume a c-child target.
        let (_, m, _, _) = run("Organization*[/Employee][//PermEmp]", "PermEmp ~ Employee");
        assert_eq!(m.size(), 3, "c-child Employee must survive");
        // But a c-child witness subsumes a d-child target (condition 4).
        let (_, m2, _, _) = run("Organization*[//Employee][/PermEmp]", "PermEmp ~ Employee");
        assert_eq!(m2.size(), 2);
    }

    #[test]
    fn condition_4_deep_witness() {
        // The Paragraph d-leaf under Article is witnessed by the deep
        // Section node (Section ->> Paragraph), Figure 2(b) reasoning.
        let (q, m, ics, mut tys) =
            run("Article*[//Paragraph]//Section//Paragraph", "Section ->> Paragraph");
        // Both Paragraphs go: the deep one by condition 2 at Section, the
        // shallow one by condition 4 at Article (witness Section).
        let want = parse_pattern("Article*//Section", &mut tys).unwrap();
        assert!(isomorphic(&m, &want), "got {} nodes", m.size());
        assert!(equivalent_under(&q, &m, &ics, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn cascade_within_one_sweep() {
        // Removing c (child of b) makes b a leaf, which is then removable
        // at a: a -> b, b -> c.
        let (q, m, ics, _) = run("a*[/x]/b/c", "a -> b\nb -> c");
        assert_eq!(m.size(), 2, "only a*[/x] remains");
        assert!(equivalent_under(&q, &m, &ics, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn mutual_cooccurrence_keeps_one_leaf() {
        let (q, m, ics, _) = run("r*[/a][/b]", "a ~ b\nb ~ a");
        assert_eq!(m.size(), 2, "exactly one of the twins survives");
        assert!(equivalent_under(&q, &m, &ics, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn no_constraints_means_no_removals() {
        let (_, m, _, _) = run("Dept*[//DBProject]//Manager//DBProject", "");
        // The CIM-redundancy in this query is NOT local; CDM must leave it.
        assert_eq!(m.size(), 4);
    }

    #[test]
    fn output_leaf_never_removed() {
        let (_, m, _, _) = run("Book[/Publisher*][/Title]", "Book -> Publisher");
        assert_eq!(m.size(), 3, "the marked Publisher must survive");
        assert!(m.node(m.output()).output);
    }

    #[test]
    fn constrained_subtrees_never_removed() {
        // Publisher has structure below it; the IC only guarantees a bare
        // Publisher.
        let (_, m, _, _) = run("Book*[/Title][/Publisher/Name]", "Book -> Publisher");
        assert_eq!(m.size(), 4);
    }

    #[test]
    fn figure_5_example_full_run() {
        // Example 5.1/5.2. Query: t1* with c-child t2 (d-children t5/t4 ...)
        // reconstructed shape:
        //   t1*[ //t2[//t5/t4][/t6] ][ /t3//t7 ][ //t4/t8 ]  (illustrative)
        // Here we use the paper's applied ICs: t2 -> t6, t5 -> t6 style
        // local removals. We exercise a compact variant:
        //   t1*[//t2[//t5[/t6]][/t6]] with t5 -> t6 and t2 -> t6:
        //   both t6 leaves vanish.
        let (q, m, ics, _) = run("t1*[//t2[//t5[/t6]][/t6]]", "t5 -> t6\nt2 -> t6");
        assert_eq!(m.size(), 3);
        assert!(equivalent_under(&q, &m, &ics, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn result_is_locally_minimal() {
        // Theorem 5.2: no leaf of the result is locally redundant.
        let cases = [
            ("Book*[/Title][/Publisher][//LastName]", "Book -> Publisher\nBook ->> LastName"),
            ("a*[//b][/c[/d]][//d]", "c -> d\na ->> b"),
            ("r*[/a][/b][//c]", "a ~ b\nb ~ a\na ->> c"),
        ];
        for (qs, is) in cases {
            let (_, m, ics, _) = run(qs, is);
            let closed = ics.closure();
            assert!(
                crate::local::locally_redundant_leaves(&m, &closed).is_empty(),
                "{qs}: locally redundant leaf remains"
            );
        }
    }

    #[test]
    fn cdm_is_idempotent() {
        let (_, m, ics, _) =
            run("Book*[/Title][/Publisher][//LastName]", "Book -> Publisher\nBook ->> LastName");
        let again = cdm(&m, &ics);
        assert!(isomorphic(&m, &again));
    }

    #[test]
    fn unclosed_set_is_closed_internally_by_cdm() {
        // cdm() closes; a -> b plus b ~ c implies a -> c.
        let (q, m, ics, _) = run("a*[/c][/x]", "a -> b\nb ~ c");
        assert_eq!(m.size(), 2);
        assert!(equivalent_under(&q, &m, &ics, &Guard::unlimited()).unwrap());
    }
}
