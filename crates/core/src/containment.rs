//! Containment and equivalence of tree pattern queries, with and without
//! integrity constraints (Sections 3.1, 3.2).
//!
//! Without constraints, `Q1 ⊆ Q2` iff a containment mapping `Q2 → Q1`
//! exists ([`crate::mapping`]).
//!
//! Under a constraint set `Σ`, `Q1 ⊆_Σ Q2` iff `Q2` maps into the
//! (possibly infinite) chase of `Q1` by `Σ`. We decide that without
//! materializing the chase: the candidate pruning is relaxed so that a
//! pattern child `w` of `v` with no image candidate below `u` can be
//! *discharged by a guarantee* — a derivation from the closed `Σ` showing
//! that every `Σ`-database node matching `u` must have the whole subtree
//! of `w` below it. Guarantee derivations descend strictly into the
//! pattern, so the recursion terminates; memoization keeps the whole test
//! polynomial.

use crate::mapping::{has_homomorphism, PreOrder};
use tpq_base::rows::{self, ones, PreOrderTree};
use tpq_base::{FxHashMap, Guard, Result, TypeId, TypeSet};
use tpq_constraints::ConstraintSet;
use tpq_pattern::{EdgeKind, NodeId, TreePattern};

/// `q1 ⊆ q2`: every answer of `q1` on every database is an answer of `q2`.
///
/// The candidate-table build spends guard steps; a tripped guard aborts
/// with [`Err`] (the inputs are read-only). Emits one
/// `containment.check` event (`kind` = `plain`).
///
/// ```
/// use tpq_base::{Guard, TypeInterner};
/// use tpq_core::contains;
/// use tpq_pattern::parse_pattern;
///
/// let mut tys = TypeInterner::new();
/// let narrow = parse_pattern("a*/b/c", &mut tys).unwrap();
/// let wide = parse_pattern("a*/b", &mut tys).unwrap();
/// assert!(contains(&narrow, &wide, &Guard::unlimited()).unwrap());
/// assert!(!contains(&wide, &narrow, &Guard::unlimited()).unwrap());
/// ```
pub fn contains(q1: &TreePattern, q2: &TreePattern, guard: &Guard) -> Result<bool> {
    let held = has_homomorphism(q2, q1, guard)?;
    record_check("plain", q1, q2, held);
    Ok(held)
}

/// Emit the `containment.check` decision event (no-op when the
/// observability layer is disabled — one relaxed load).
fn record_check(kind: &'static str, q1: &TreePattern, q2: &TreePattern, held: bool) {
    use tpq_obs::FieldValue::{Str, U64};
    tpq_obs::event(
        "containment.check",
        &[
            ("kind", Str(kind)),
            ("q1_nodes", U64(q1.size() as u64)),
            ("q2_nodes", U64(q2.size() as u64)),
            ("holds", U64(held as u64)),
        ],
    );
}

/// `q1 ≡ q2`: two-way containment, one [`contains`] per direction (the
/// second only when the first holds).
pub fn equivalent(q1: &TreePattern, q2: &TreePattern, guard: &Guard) -> Result<bool> {
    Ok(contains(q1, q2, guard)? && contains(q2, q1, guard)?)
}

/// `q1 ⊆_Σ q2`: containment over databases satisfying `ics`.
///
/// `ics` need not be closed; the closure is computed internally. The
/// candidate-table build and guarantee derivations spend guard steps; a
/// tripped guard aborts with [`Err`]. Emits one `containment.check`
/// event (`kind` = `under`).
///
/// ```
/// use tpq_base::{Guard, TypeInterner};
/// use tpq_constraints::parse_constraints;
/// use tpq_core::contains_under;
/// use tpq_pattern::parse_pattern;
///
/// let mut tys = TypeInterner::new();
/// let book = parse_pattern("Book*", &mut tys).unwrap();
/// let with_pub = parse_pattern("Book*[/Publisher]", &mut tys).unwrap();
/// let ics = parse_constraints("Book -> Publisher", &mut tys).unwrap();
/// // Every Book has a Publisher child, so the branch adds nothing.
/// assert!(contains_under(&book, &with_pub, &ics, &Guard::unlimited()).unwrap());
/// ```
pub fn contains_under(
    q1: &TreePattern,
    q2: &TreePattern,
    ics: &ConstraintSet,
    guard: &Guard,
) -> Result<bool> {
    contains_closed(q1, q2, &ics.closure(), guard)
}

/// [`contains_under`] over a set that is already closed.
fn contains_closed(
    q1: &TreePattern,
    q2: &TreePattern,
    closed: &ConstraintSet,
    guard: &Guard,
) -> Result<bool> {
    let held = ContainmentUnder::new(q1, q2, closed).check(guard)?;
    record_check("under", q1, q2, held);
    Ok(held)
}

/// `q1 ≡_Σ q2`: two-way containment under `ics`, closed once.
pub fn equivalent_under(
    q1: &TreePattern,
    q2: &TreePattern,
    ics: &ConstraintSet,
    guard: &Guard,
) -> Result<bool> {
    let closed = ics.closure();
    Ok(contains_closed(q1, q2, &closed, guard)? && contains_closed(q2, q1, &closed, guard)?)
}

struct ContainmentUnder<'a> {
    /// The containee — homomorphism *target* (side of the chase).
    q1: &'a TreePattern,
    /// The container — homomorphism *source*.
    q2: &'a TreePattern,
    closed: &'a ConstraintSet,
    /// `q1` numbered in pre-order: the candidate rows' numbering.
    q1_tree: PreOrder,
    /// Memo for guarantee derivations: (basis type, q2 node, edge) → bool.
    memo: FxHashMap<(TypeId, NodeId, EdgeKind), bool>,
}

impl<'a> ContainmentUnder<'a> {
    fn new(q1: &'a TreePattern, q2: &'a TreePattern, closed: &'a ConstraintSet) -> Self {
        ContainmentUnder { q1, q2, closed, q1_tree: PreOrder::new(q1), memo: FxHashMap::default() }
    }

    /// Does `Σ` give every node of type `s` all the types in `need`?
    fn covers(&self, s: TypeId, need: &TypeSet) -> bool {
        need.iter().all(|t| t == s || self.closed.has_cooccurrence(s, t))
    }

    /// Under `Σ`, does every database node matching `u` (types `u_types`)
    /// also carry type `t`? Direct membership or via co-occurrence.
    fn node_has_type(&self, u_types: &TypeSet, t: TypeId) -> bool {
        u_types.iter().any(|s| s == t || self.closed.has_cooccurrence(s, t))
    }

    /// Is the q2 subtree rooted at `w`, reached over an edge of kind
    /// `edge`, guaranteed below every database node of type `basis`?
    fn guaranteed(
        &mut self,
        basis: TypeId,
        w: NodeId,
        edge: EdgeKind,
        guard: &Guard,
    ) -> Result<bool> {
        if self.q2.node(w).output {
            // The output node must map to the image of q1's output node,
            // never to IC-implied structure.
            return Ok(false);
        }
        if !self.q2.conditions(w).is_empty() {
            // ICs guarantee existence by type only; they say nothing about
            // attribute values, so a conditioned node cannot be discharged.
            return Ok(false);
        }
        if let Some(&hit) = self.memo.get(&(basis, w, edge)) {
            return Ok(hit);
        }
        guard.spend(1)?;
        let need = self.q2.node(w).types.clone();
        let witnesses: Vec<TypeId> = match edge {
            EdgeKind::Child => self.closed.required_children_of(basis).to_vec(),
            EdgeKind::Descendant => self.closed.required_descendants_of(basis).to_vec(),
        };
        let children: Vec<NodeId> = self.q2.children(w).collect();
        let mut ok = false;
        'witness: for s in witnesses {
            if !self.covers(s, &need) {
                continue;
            }
            for &x in &children {
                let xe = self.q2.node(x).edge;
                if !self.guaranteed(s, x, xe, guard)? {
                    continue 'witness;
                }
            }
            ok = true;
            break;
        }
        self.memo.insert((basis, w, edge), ok);
        Ok(ok)
    }

    /// Can the q2 child `w` of a node mapped to `u` be discharged by a
    /// guarantee?
    ///
    /// For a c-edge the guaranteed structure must hang directly under `u`,
    /// so only `u`'s own types can anchor it. For a d-edge the chase may
    /// attach the structure under *any* node of `q1` at or below `u`
    /// (e.g. `Section ->> Paragraph` guarantees a `Paragraph` below
    /// `Article*` through the `Section` descendant), so every such node's
    /// types are tried as anchors.
    fn discharged(&mut self, u: u32, w: NodeId, guard: &Guard) -> Result<bool> {
        let edge = self.q2.node(w).edge;
        match edge {
            EdgeKind::Child => {
                let basis: Vec<TypeId> = self.q1.node(self.q1_tree.id(u)).types.iter().collect();
                for t in basis {
                    if self.guaranteed(t, w, EdgeKind::Child, guard)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            EdgeKind::Descendant => {
                let end = self.q1_tree.subtree_end(u);
                let anchors: Vec<TypeId> = self
                    .q1
                    .alive_ids()
                    .filter(|&z| (u..=end).contains(&self.q1_tree.rank(z)))
                    .flat_map(|z| self.q1.node(z).types.iter().collect::<Vec<_>>())
                    .collect();
                for t in anchors {
                    if self.guaranteed(t, w, EdgeKind::Descendant, guard)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
        }
    }

    /// Candidate rows for a homomorphism q2 → q1 over `q1`'s pre-order
    /// numbering, with IC-aware node compatibility, pruned bottom-up. A
    /// candidate `u` of `v` stays when each child `w` of `v` has a fitting
    /// candidate below `u` or is discharged by a guarantee, the children
    /// tried in order until one fails.
    fn check(&mut self, guard: &Guard) -> Result<bool> {
        let (q1, q2) = (self.q1, self.q2);
        let mut cand = self.q1_tree.candidates(q2.alive_ids(), q2.arena_len(), guard, |v, u| {
            (!q2.node(v).output || q1.node(u).output)
                && q2.node(v).types.iter().all(|t| self.node_has_type(&q1.node(u).types, t))
                && tpq_pattern::condition::entails(q1.conditions(u), q2.conditions(v))
        })?;
        let mut current = Vec::new();
        for v in self.q2.post_order() {
            guard.check()?;
            let children: Vec<NodeId> = self.q2.children(v).collect();
            if children.is_empty() {
                continue;
            }
            current.clear();
            current.extend(ones(cand.row(v.index()), 0));
            for &u in &current {
                guard.spend(children.len() as u64)?;
                for &w in &children {
                    let child_edge = self.q2.node(w).edge == EdgeKind::Child;
                    let image =
                        rows::below(&self.q1_tree, child_edge, u, cand.row(w.index())).next();
                    if image.is_none() && !self.discharged(u, w, guard)? {
                        rows::clear(cand.row_mut(v.index()), u);
                        break;
                    }
                }
            }
        }
        Ok(!rows::is_empty(cand.row(self.q2.root().index())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpq_base::TypeInterner;
    use tpq_constraints::parse_constraints;
    use tpq_pattern::parse_pattern;

    fn setup(
        q1: &str,
        q2: &str,
        ics: &str,
    ) -> (TreePattern, TreePattern, ConstraintSet, TypeInterner) {
        let mut tys = TypeInterner::new();
        let a = parse_pattern(q1, &mut tys).unwrap();
        let b = parse_pattern(q2, &mut tys).unwrap();
        let c = parse_constraints(ics, &mut tys).unwrap();
        (a, b, c, tys)
    }

    #[test]
    fn plain_containment_is_hom_in_reverse() {
        let (a, b, _, _) = setup("a*/b/c", "a*/b", "");
        // a/b/c is more restrictive: a/b/c ⊆ a/b.
        assert!(contains(&a, &b, &Guard::unlimited()).unwrap());
        assert!(!contains(&b, &a, &Guard::unlimited()).unwrap());
        assert!(!equivalent(&a, &b, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn figure_2h_2i_equivalence() {
        let (h, i, _, _) = setup(
            "OrgUnit*[/Dept/Researcher//DBProject]//Dept//DBProject",
            "OrgUnit*/Dept/Researcher//DBProject",
            "",
        );
        assert!(equivalent(&h, &i, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn star_position_breaks_figure_2h_equivalence() {
        // Paper, Section 3.1: with the * moved to the right-branch Dept the
        // two queries are no longer equivalent.
        let (h, i, _, _) = setup(
            "OrgUnit[/Dept/Researcher//DBProject]//Dept*//DBProject",
            "OrgUnit/Dept*/Researcher//DBProject",
            "",
        );
        assert!(!equivalent(&h, &i, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn containment_under_required_child() {
        // Every Book has a Publisher: Book* ≡_Σ Book*[/Publisher].
        let (plain, with_pub, ics, _) = setup("Book*", "Book*[/Publisher]", "Book -> Publisher");
        assert!(contains_under(&plain, &with_pub, &ics, &Guard::unlimited()).unwrap());
        assert!(contains_under(&with_pub, &plain, &ics, &Guard::unlimited()).unwrap());
        assert!(equivalent_under(&plain, &with_pub, &ics, &Guard::unlimited()).unwrap());
        // Without the IC they are not equivalent.
        assert!(!equivalent(&plain, &with_pub, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn containment_under_needs_the_right_edge_kind() {
        // Book ->> LastName does NOT imply a LastName *child*.
        let (plain, with_child, ics, _) = setup("Book*", "Book*/LastName", "Book ->> LastName");
        assert!(!contains_under(&plain, &with_child, &ics, &Guard::unlimited()).unwrap());
        let (plain2, with_desc, ics2, _) = setup("Book*", "Book*//LastName", "Book ->> LastName");
        assert!(contains_under(&plain2, &with_desc, &ics2, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn guarantee_chains_compose() {
        // a -> u, u -> w: a* ≡_Σ a*/u/w even though the chain is two deep.
        let (plain, chain, ics, _) = setup("a*", "a*/u/w", "a -> u\nu -> w");
        assert!(contains_under(&plain, &chain, &ics, &Guard::unlimited()).unwrap());
        assert!(equivalent_under(&plain, &chain, &ics, &Guard::unlimited()).unwrap());
        // But a*/u/w/x is not guaranteed.
        let (plain2, deeper, ics2, _) = setup("a*", "a*/u/w/x", "a -> u\nu -> w");
        assert!(!contains_under(&plain2, &deeper, &ics2, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn cooccurrence_containment() {
        // PermEmp ~ Employee: Org*/PermEmp ⊆_Σ Org*/Employee.
        let (perm, emp, ics, _) = setup("Org*/PermEmp", "Org*/Employee", "PermEmp ~ Employee");
        assert!(contains_under(&perm, &emp, &ics, &Guard::unlimited()).unwrap());
        assert!(
            !contains_under(&emp, &perm, &ics, &Guard::unlimited()).unwrap(),
            "co-occurrence is directed"
        );
        assert!(
            !contains(&perm, &emp, &Guard::unlimited()).unwrap(),
            "not contained without the IC"
        );
    }

    #[test]
    fn figure_2f_2g_equivalence_under_cooccurrence() {
        // Section 3.3 first illustration.
        let (f, g, ics, _) = setup(
            "Organization*[/Employee//Project][/PermEmp//DBproject]",
            "Organization*/PermEmp//DBproject",
            "PermEmp ~ Employee\nDBproject ~ Project",
        );
        assert!(equivalent_under(&f, &g, &ics, &Guard::unlimited()).unwrap());
        assert!(!equivalent(&f, &g, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn figure_2a_2b_equivalence_under_article_title() {
        // Section 3.3: with Article -> Title, Figure 2(a) ≡ 2(b).
        let (a, b, ics, _) = setup(
            "Articles[/Article//Paragraph]/Article*[/Title]//Section//Paragraph",
            "Articles[/Article//Paragraph]/Article*//Section//Paragraph",
            "Article -> Title",
        );
        assert!(equivalent_under(&a, &b, &ics, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn figure_2b_2e_equivalence_under_section_paragraph() {
        // Section 3.3: with Section ->> Paragraph, Figure 2(b) ≡ 2(e) =
        // Articles/Article*//Section.
        let (b, e, ics, _) = setup(
            "Articles[/Article//Paragraph]/Article*//Section//Paragraph",
            "Articles/Article*//Section",
            "Section ->> Paragraph",
        );
        assert!(equivalent_under(&b, &e, &ics, &Guard::unlimited()).unwrap());
        assert!(!equivalent(&b, &e, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn d_edge_guarantee_anchors_on_descendant_nodes() {
        // The Paragraph below Article* is guaranteed through the Section
        // descendant, not through Article*'s own type.
        let (small, big, ics, _) =
            setup("Article*//Section", "Article*[//Paragraph]//Section", "Section ->> Paragraph");
        assert!(contains_under(&small, &big, &ics, &Guard::unlimited()).unwrap());
        assert!(!contains(&small, &big, &Guard::unlimited()).unwrap());
        // A c-edge cannot be anchored on a descendant.
        let (small2, big2, ics2, _) =
            setup("Article*//Section", "Article*[/Paragraph]//Section", "Section ->> Paragraph");
        assert!(!contains_under(&small2, &big2, &ics2, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn output_node_cannot_be_discharged_by_guarantees() {
        // Even though every a has a b child, the *marked* b must come from
        // the query: a* ⊄_Σ a/b*.
        let (plain, marked, ics, _) = setup("a*", "a/b*", "a -> b");
        assert!(!contains_under(&plain, &marked, &ics, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn empty_constraint_set_reduces_to_plain_containment() {
        let (a, b, none, _) = setup("x*[/y][/y/z]", "x*/y/z", "");
        assert_eq!(
            contains_under(&a, &b, &none, &Guard::unlimited()).unwrap(),
            contains(&a, &b, &Guard::unlimited()).unwrap()
        );
        assert_eq!(
            contains_under(&b, &a, &none, &Guard::unlimited()).unwrap(),
            contains(&b, &a, &Guard::unlimited()).unwrap()
        );
    }

    #[test]
    fn every_containment_entry_emits_one_event_per_direction() {
        let _serial = crate::explain::RING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        tpq_obs::set_enabled(true);
        let (plain, with_pub, ics, _) = setup("Book*", "Book*[/Publisher]", "Book -> Publisher");
        let g = Guard::unlimited();
        let trace = tpq_obs::fresh_trace_id();
        {
            let _scope = tpq_obs::trace_scope(trace);
            assert!(!contains(&plain, &with_pub, &g).unwrap());
            assert!(contains_under(&plain, &with_pub, &ics, &g).unwrap());
            assert!(equivalent(&plain, &plain, &g).unwrap());
            assert!(equivalent_under(&plain, &with_pub, &ics, &g).unwrap());
        }
        let seen: Vec<(&str, u64, u64, u64)> = tpq_obs::drain_events()
            .iter()
            .filter(|e| e.trace == trace && e.name == "containment.check")
            .map(|e| {
                let field = |k| e.u64_field(k).unwrap();
                (e.str_field("kind").unwrap(), field("q1_nodes"), field("q2_nodes"), field("holds"))
            })
            .collect();
        assert_eq!(
            seen,
            [
                ("plain", 1, 2, 0),
                ("under", 1, 2, 1),
                ("plain", 1, 1, 1),
                ("plain", 1, 1, 1),
                ("under", 1, 2, 1),
                ("under", 2, 1, 1),
            ]
        );
    }

    #[test]
    fn guarantees_inside_branches() {
        // d-edge guarantee with inner structure: every Dept has a Manager
        // descendant who (by ~) is a Person. Org*//Dept ⊆ Org*//Dept[//Person].
        let (lhs, rhs, ics, _) =
            setup("Org*//Dept", "Org*//Dept//Person", "Dept ->> Manager\nManager ~ Person");
        assert!(contains_under(&lhs, &rhs, &ics, &Guard::unlimited()).unwrap());
    }
}
