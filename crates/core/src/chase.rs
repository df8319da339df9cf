//! Chase and augmentation (Section 5.1–5.2).
//!
//! The classical chase adds IC-implied structure to a query. A blind chase
//! can blow the query up arbitrarily (Section 5.1), so ACIM uses the
//! restricted **augmentation**: work with a *logically closed* constraint
//! set, apply ICs only to nodes that existed before the chase, only for
//! target types that occur in the original query, and mark everything
//! added as *temporary* so it is never tested for redundancy and is
//! stripped at the end.

use crate::stats::MinimizeStats;
use std::cell::Cell;
use tpq_base::{failpoint, FxHashSet, Guard, Result, TypeId};
use tpq_constraints::ConstraintSet;
use tpq_pattern::{EdgeKind, NodeId, TreePattern};

/// One round of the unrestricted chase of Section 5.1, applied to the
/// current nodes of `q` (added nodes are plain, *not* temporary). Exposed
/// for illustration and for tests that reproduce the Section 5.1
/// counter-example; ACIM uses [`augment_guarded`] instead.
pub fn chase(q: &TreePattern, ics: &ConstraintSet) -> TreePattern {
    let mut out = q.clone();
    let nodes: Vec<NodeId> = out.alive_ids().collect();
    for v in nodes {
        let types: Vec<TypeId> = out.node(v).types.iter().collect();
        for t in types {
            for &u in ics.cooccurrences_of(t) {
                out.node_mut(v).types.insert(u);
            }
            for &u in ics.required_children_of(t) {
                out.add_child(v, EdgeKind::Child, u);
            }
            for &u in ics.required_descendants_of(t) {
                out.add_child(v, EdgeKind::Descendant, u);
            }
        }
    }
    out
}

/// Augment `q` in place with respect to the **closed** constraint set
/// `closed` (Section 5.2). Returns the number of temporary nodes added.
///
/// * Co-occurrence constraints merge extra types into original nodes.
/// * `t1 -> t2` / `t1 ->> t2` add a temporary c-/d-child of type `t2`
///   under each original node carrying `t1` — but only when `t2` is in
///   `allowed_rhs` (for ACIM: the types present in the original query;
///   "if there is no node of type t2 in the original query, then we do not
///   apply this IC").
/// * When both `t1 -> t2` and `t1 ->> t2` apply, only the (stronger)
///   c-child is added: a d-edge query node can map onto a c-child, so the
///   d-child temp would be dead weight.
/// * ICs are never applied *structurally* to nodes added by the
///   augmentation itself — temps stay childless. Their *type sets*,
///   however, are the co-occurrence closure of their type: a temp stands
///   for an IC-guaranteed data node, and every data node of type `t2`
///   carries `t2`'s co-occurrence types on a Σ-satisfying database.
///   Without this, an original node that gained a co-occurrence type
///   could never map onto an equally-typed temp.
///
/// The guard is spent one step per (node, type) pair chased, and the
/// `chase.step` failpoint is passed on each. A tripped guard (or injected
/// fault) aborts mid-augmentation with [`Err`], leaving `q` partially
/// augmented but structurally valid — every temp added is IC-implied, so
/// the partial pattern is still equivalent to the input under the
/// constraints. Callers wanting all-or-nothing semantics work on a clone
/// (as [`crate::minimize_closed_guarded`] does).
pub fn augment_guarded(
    q: &mut TreePattern,
    closed: &ConstraintSet,
    allowed_rhs: &FxHashSet<TypeId>,
    stats: &mut MinimizeStats,
    guard: &Guard,
) -> Result<usize> {
    let _span = tpq_obs::span!("acim.augment");
    let mut scratch = SCRATCH.take();
    let augmented = scratch.augment(q, closed, allowed_rhs, stats, guard);
    if q.arena_len() <= KEEP_SCRATCH_NODES {
        SCRATCH.set(scratch); // larger buffers are dropped, not pinned
    }
    let added = augmented?;
    stats.augment_nodes_added += added;
    tpq_obs::incr("augment_nodes_added", added as u64);
    Ok(added)
}

/// Each thread keeps its chase buffers for the next call, unless they grew
/// for a pattern larger than this.
const KEEP_SCRATCH_NODES: usize = 4096;

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::default();
}

/// The chase's reusable buffers.
#[derive(Default)]
struct Scratch {
    /// The nodes the chase applies to: alive and not temporary.
    originals: Vec<NodeId>,
    /// The types of the node being chased, copied out of its set, which
    /// the chase extends.
    types: Vec<TypeId>,
    /// The (edge, type) pairs of the node's temporary children so far. A
    /// long chain of constraints gives a node hundreds, so a set.
    have: FxHashSet<(EdgeKind, TypeId)>,
}

impl Scratch {
    /// The body of [`augment_guarded`]; returns the temps added.
    fn augment(
        &mut self,
        q: &mut TreePattern,
        closed: &ConstraintSet,
        allowed_rhs: &FxHashSet<TypeId>,
        stats: &mut MinimizeStats,
        guard: &Guard,
    ) -> Result<usize> {
        let obs_on = tpq_obs::enabled();
        use tpq_obs::FieldValue::{Str, U64};
        let Scratch { originals, types, have } = self;
        originals.clear();
        originals.extend(q.alive_ids().filter(|&v| !q.node(v).temporary));
        // Phase 1: co-occurrence types. One pass suffices on a closed set.
        for &v in originals.iter() {
            types.clear();
            types.extend(q.node(v).types.iter());
            for &t in types.iter() {
                failpoint::hit("chase.step")?;
                guard.spend(1)?;
                for &u in closed.cooccurrences_of(t) {
                    if q.node_mut(v).types.insert(u) {
                        stats.augment_types_added += 1;
                        if obs_on {
                            tpq_obs::event(
                                "chase.apply",
                                &[
                                    ("node", U64(v.0 as u64)),
                                    ("lhs", U64(t.0 as u64)),
                                    ("op", Str("~")),
                                    ("rhs", U64(u.0 as u64)),
                                ],
                            );
                        }
                    }
                }
            }
        }
        // Phase 2: temporary children.
        let mut added = 0usize;
        for &v in originals.iter() {
            guard.check()?;
            types.clear();
            types.extend(q.node(v).types.iter());
            have.clear();
            have.extend(
                q.children(v)
                    .filter(|&c| q.node(c).temporary)
                    .map(|c| (q.node(c).edge, q.node(c).primary)),
            );
            for &t in types.iter() {
                failpoint::hit("chase.step")?;
                guard.spend(1)?;
                for &u in closed.required_children_of(t) {
                    if allowed_rhs.contains(&u) && have.insert((EdgeKind::Child, u)) {
                        let temp = q.add_temp_child(v, EdgeKind::Child, u);
                        expand_temp_types(q, temp, closed);
                        added += 1;
                        if obs_on {
                            tpq_obs::event(
                                "chase.apply",
                                &[
                                    ("node", U64(v.0 as u64)),
                                    ("lhs", U64(t.0 as u64)),
                                    ("op", Str("->")),
                                    ("rhs", U64(u.0 as u64)),
                                    ("temp", U64(temp.0 as u64)),
                                ],
                            );
                        }
                    }
                }
            }
            for &t in types.iter() {
                failpoint::hit("chase.step")?;
                guard.spend(1)?;
                for &u in closed.required_descendants_of(t) {
                    if allowed_rhs.contains(&u)
                        && !have.contains(&(EdgeKind::Child, u))
                        && have.insert((EdgeKind::Descendant, u))
                    {
                        let temp = q.add_temp_child(v, EdgeKind::Descendant, u);
                        expand_temp_types(q, temp, closed);
                        added += 1;
                        if obs_on {
                            tpq_obs::event(
                                "chase.apply",
                                &[
                                    ("node", U64(v.0 as u64)),
                                    ("lhs", U64(t.0 as u64)),
                                    ("op", Str("->>")),
                                    ("rhs", U64(u.0 as u64)),
                                    ("temp", U64(temp.0 as u64)),
                                ],
                            );
                        }
                    }
                }
            }
        }
        Ok(added)
    }
}

/// Give a freshly added temp the co-occurrence closure of its type (one
/// pass suffices on a closed set).
fn expand_temp_types(q: &mut TreePattern, temp: NodeId, closed: &ConstraintSet) {
    let t = q.node(temp).primary;
    for &u in closed.cooccurrences_of(t) {
        q.node_mut(temp).types.insert(u);
    }
}

/// The set of types present in `q` (over full type sets of alive,
/// non-temporary nodes) — the `allowed_rhs` ACIM passes to
/// [`augment_guarded`].
pub fn present_types(q: &TreePattern) -> FxHashSet<TypeId> {
    // Sized for the usual handful of types so the set does not regrow.
    let mut s = FxHashSet::with_capacity_and_hasher(16, Default::default());
    for v in q.alive_ids() {
        if !q.node(v).temporary {
            for t in q.node(v).types.iter() {
                s.insert(t);
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpq_base::TypeInterner;
    use tpq_constraints::parse_constraints;
    use tpq_pattern::parse_pattern;

    #[test]
    fn augment_adds_temp_children_for_present_types_only() {
        let mut tys = TypeInterner::new();
        let mut q = parse_pattern("Book*[/Title][/Author]", &mut tys).unwrap();
        let ics =
            parse_constraints("Book -> Title\nBook -> Publisher\nAuthor ->> LastName", &mut tys)
                .unwrap()
                .closure();
        let allowed = present_types(&q);
        let mut stats = MinimizeStats::default();
        let added =
            augment_guarded(&mut q, &ics, &allowed, &mut stats, &Guard::unlimited()).unwrap();
        // Only Book -> Title fires: Publisher and LastName are not in the
        // query.
        assert_eq!(added, 1);
        let temp = q.alive_ids().find(|&v| q.node(v).temporary).expect("one temp node");
        assert_eq!(tys.name(q.node(temp).primary), "Title");
        assert_eq!(q.node(temp).edge, EdgeKind::Child);
        assert_eq!(q.node(temp).parent, Some(q.root()));
        q.validate().unwrap();
    }

    #[test]
    fn augment_prefers_c_child_over_d_child() {
        let mut tys = TypeInterner::new();
        let mut q = parse_pattern("a*//b", &mut tys).unwrap();
        // Closure of a -> b contains both a -> b and a ->> b.
        let ics = parse_constraints("a -> b", &mut tys).unwrap().closure();
        let allowed = present_types(&q);
        let mut stats = MinimizeStats::default();
        let added =
            augment_guarded(&mut q, &ics, &allowed, &mut stats, &Guard::unlimited()).unwrap();
        assert_eq!(added, 1, "only the c-child temp, not a second d-child");
        let temp = q.alive_ids().find(|&v| q.node(v).temporary).unwrap();
        assert_eq!(q.node(temp).edge, EdgeKind::Child);
    }

    #[test]
    fn augment_merges_cooccurrence_types() {
        let mut tys = TypeInterner::new();
        let mut q = parse_pattern("Org*/PermEmp", &mut tys).unwrap();
        let ics = parse_constraints("PermEmp ~ Employee", &mut tys).unwrap().closure();
        let allowed = present_types(&q);
        let mut stats = MinimizeStats::default();
        augment_guarded(&mut q, &ics, &allowed, &mut stats, &Guard::unlimited()).unwrap();
        let perm = q.children(q.root()).next().unwrap();
        let emp = tys.lookup("Employee").unwrap();
        assert!(q.node(perm).types.contains(emp));
        assert_eq!(stats.augment_types_added, 1);
    }

    #[test]
    fn augment_never_applies_ics_to_temps() {
        let mut tys = TypeInterner::new();
        let mut q = parse_pattern("a*[/b]", &mut tys).unwrap();
        let ics = parse_constraints("a -> b\nb -> a", &mut tys).unwrap().closure();
        let allowed = present_types(&q);
        let mut stats = MinimizeStats::default();
        augment_guarded(&mut q, &ics, &allowed, &mut stats, &Guard::unlimited()).unwrap();
        // Original a gets temp b (child) and temp a (descendant, from the
        // cyclic closure a ->> a); original b symmetrically. The temps
        // themselves must NOT get children of their own.
        for v in q.alive_ids() {
            if q.node(v).temporary {
                assert!(q.node(v).is_leaf(), "temps stay leaves");
            }
        }
        assert_eq!(stats.augment_nodes_added, 4);
    }

    #[test]
    fn augment_is_idempotent() {
        let mut tys = TypeInterner::new();
        let mut q = parse_pattern("a*[/b]", &mut tys).unwrap();
        let ics = parse_constraints("a -> b", &mut tys).unwrap().closure();
        let allowed = present_types(&q);
        let mut stats = MinimizeStats::default();
        let first =
            augment_guarded(&mut q, &ics, &allowed, &mut stats, &Guard::unlimited()).unwrap();
        let second =
            augment_guarded(&mut q, &ics, &allowed, &mut stats, &Guard::unlimited()).unwrap();
        assert_eq!(first, 1);
        assert_eq!(second, 0, "existing temp children deduplicate");
    }

    #[test]
    fn unrestricted_chase_applies_everything_once() {
        let mut tys = TypeInterner::new();
        let q = parse_pattern("Book*", &mut tys).unwrap();
        let ics = parse_constraints("Book -> Title\nBook ->> LastName", &mut tys).unwrap();
        let chased = chase(&q, &ics);
        assert_eq!(chased.size(), 3);
        // Chase-added nodes are not temporary.
        assert!(chased.alive_ids().all(|v| !chased.node(v).temporary));
    }

    #[test]
    fn present_types_includes_cooccurrence_added_types() {
        let mut tys = TypeInterner::new();
        let mut q = parse_pattern("a*", &mut tys).unwrap();
        let extra = tys.intern("x");
        let root = q.root();
        q.node_mut(root).types.insert(extra);
        let p = present_types(&q);
        assert!(p.contains(&extra));
        assert_eq!(p.len(), 2);
    }
}
