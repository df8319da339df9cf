//! Information content for CDM (Section 5.4–5.5).
//!
//! Each node of the query is labelled with an *information content*: its
//! own type argument (`t` when the node is an unconstrained leaf, `~t`
//! when it has descendants) plus *structural obligations* describing what
//! the query forces to exist below it:
//!
//! * `a t` — obligated to be an ancestor of an unconstrained node of type
//!   `t` with nothing between: a direct d-child leaf;
//! * `a~ t` — same obligation but the node is constrained or deeper;
//! * `p t` / `p~ t` — the parent (c-child) analogues.
//!
//! Contents are propagated bottom-up by the rules of Figure 4: a child's
//! own type argument becomes `a t` / `p t` (or the `~` variants) at its
//! parent depending on the edge, and every obligation a child carries
//! becomes `a~ t` at the parent (rows 2, 3, 5, 6 — once there is
//! intervening structure, the obligation is "constrained").
//!
//! Plain obligations (`a t`, `p t`) remember the leaf that generated them
//! ([`Obligation::source`]): those are exactly the candidates the
//! minimization rules of Figure 6 may delete.

use tpq_base::TypeId;
use tpq_pattern::condition::Condition;
use tpq_pattern::{EdgeKind, NodeId, TreePattern};

/// Whether an obligation demands ancestry (`a`, from a d-edge) or
/// parenthood (`p`, from a c-edge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObligationKind {
    /// `a t` / `a~ t`.
    Ancestor,
    /// `p t` / `p~ t`.
    Parent,
}

/// One structural obligation in a node's information content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Obligation {
    /// Ancestor-of or parent-of.
    pub kind: ObligationKind,
    /// `true` for the `~` variants (`a~ t`, `p~ t`).
    pub constrained: bool,
    /// The obligated type.
    pub ty: TypeId,
    /// The direct leaf child that generated a *plain* obligation
    /// (`a t` / `p t`); `None` for constrained obligations.
    pub source: Option<NodeId>,
    /// Value-based conditions of the obligated node (Section 7): a target
    /// with conditions is only removable when a witness entails them, and
    /// IC-based rules require it to be condition-free.
    pub conditions: Vec<Condition>,
}

impl Obligation {
    /// The obligation child `c` puts on its parent through its own type
    /// argument `self_type` (`~` when `self_constrained`): rows 1 and 4 of
    /// Figure 4. Only an unconstrained child is a removal candidate, so
    /// only its obligation remembers it as the source.
    pub(crate) fn of_child(
        q: &TreePattern,
        c: NodeId,
        self_type: TypeId,
        self_constrained: bool,
    ) -> Obligation {
        let kind = match q.node(c).edge {
            EdgeKind::Descendant => ObligationKind::Ancestor,
            EdgeKind::Child => ObligationKind::Parent,
        };
        Obligation {
            kind,
            constrained: self_constrained,
            ty: self_type,
            source: if self_constrained { None } else { Some(c) },
            conditions: q.conditions(c).to_vec(),
        }
    }

    /// This obligation of a child as its parent sees it: `a~ t`, since
    /// the child is structure in between (rows 2, 3, 5 and 6).
    pub(crate) fn propagated(&self) -> Obligation {
        Obligation {
            kind: ObligationKind::Ancestor,
            constrained: true,
            ty: self.ty,
            source: None,
            conditions: self.conditions.clone(),
        }
    }
}

/// The full information content at one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfoContent {
    /// The node's own type argument.
    pub self_type: TypeId,
    /// `true` for `~t` (the node has children), `false` for plain `t`.
    pub self_constrained: bool,
    /// Structural obligations, in child order (may contain several plain
    /// obligations of the same type from distinct leaves).
    pub obligations: Vec<Obligation>,
}

impl InfoContent {
    /// Information content of a leaf: just its unconstrained type.
    pub fn leaf(ty: TypeId) -> Self {
        InfoContent { self_type: ty, self_constrained: false, obligations: Vec::new() }
    }

    /// Merge the propagated contribution of child `c` (whose own content is
    /// `child_info`, reached over `edge`) into `self` — the rules of
    /// Figure 4.
    pub fn absorb_child(&mut self, q: &TreePattern, c: NodeId, child_info: &InfoContent) {
        self.self_constrained = true;
        self.obligations.push(Obligation::of_child(
            q,
            c,
            child_info.self_type,
            child_info.self_constrained,
        ));
        for o in &child_info.obligations {
            let propagated = o.propagated();
            // Constrained obligations carry no source, so duplicates are
            // pure noise — dedup them.
            if !self.obligations.contains(&propagated) {
                self.obligations.push(propagated);
            }
        }
    }
}

/// Compute the information content of every alive node of `q` (bottom-up,
/// no minimization). Indexed by arena position; dead slots hold `None`.
///
/// This is the pure propagation of Example 5.1, exposed for inspection and
/// testing; [`crate::cdm()`](fn@crate::cdm) interleaves the same propagation with the
/// minimization rules.
pub fn propagate(q: &TreePattern) -> Vec<Option<InfoContent>> {
    let mut out: Vec<Option<InfoContent>> = vec![None; q.arena_len()];
    for v in q.post_order() {
        let mut info = InfoContent::leaf(q.node(v).primary);
        for c in q.children(v) {
            let child_info = out[c.index()].take().expect("post-order: child processed");
            info.absorb_child(q, c, &child_info);
            out[c.index()] = Some(child_info);
        }
        out[v.index()] = Some(info);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpq_base::TypeInterner;
    use tpq_pattern::parse_pattern;

    fn ob(kind: ObligationKind, constrained: bool, ty: TypeId) -> (ObligationKind, bool, TypeId) {
        (kind, constrained, ty)
    }

    fn shape(o: &Obligation) -> (ObligationKind, bool, TypeId) {
        (o.kind, o.constrained, o.ty)
    }

    #[test]
    fn example_5_1_left_branch() {
        // The paper's Example 5.1 left branch: t2 //... t2 is d-child of t1;
        // t5 is d-child of t2; t4 is c-child of t5. Figure 5 step 1:
        //   t4 leaf:      t4
        //   t5 (c-parent): ~t5, p t4
        //   t2 (d-parent): ~t2, a~ t5, a~ t4
        let mut tys = TypeInterner::new();
        let q = parse_pattern("t1*//t2//t5/t4", &mut tys).unwrap();
        let infos = propagate(&q);
        let t = |n: &str| tys.lookup(n).unwrap();
        let find = |name: &str| q.alive_ids().find(|&v| q.node(v).primary == t(name)).unwrap();
        let i4 = infos[find("t4").index()].as_ref().unwrap();
        assert_eq!(i4.self_type, t("t4"));
        assert!(!i4.self_constrained);
        assert!(i4.obligations.is_empty());

        let i5 = infos[find("t5").index()].as_ref().unwrap();
        assert!(i5.self_constrained);
        assert_eq!(
            i5.obligations.iter().map(shape).collect::<Vec<_>>(),
            vec![ob(ObligationKind::Parent, false, t("t4"))]
        );
        assert_eq!(i5.obligations[0].source, Some(find("t4")));

        let i2 = infos[find("t2").index()].as_ref().unwrap();
        assert!(i2.self_constrained);
        let shapes: Vec<_> = i2.obligations.iter().map(shape).collect();
        assert_eq!(
            shapes,
            vec![
                ob(ObligationKind::Ancestor, true, t("t5")),
                ob(ObligationKind::Ancestor, true, t("t4")),
            ]
        );
        // Constrained obligations never carry sources.
        assert!(i2.obligations.iter().all(|o| o.source.is_none()));
    }

    #[test]
    fn d_child_leaf_gives_plain_ancestor_obligation() {
        let mut tys = TypeInterner::new();
        let q = parse_pattern("a*//b", &mut tys).unwrap();
        let infos = propagate(&q);
        let root_info = infos[q.root().index()].as_ref().unwrap();
        assert!(root_info.self_constrained);
        assert_eq!(root_info.obligations.len(), 1);
        let o = &root_info.obligations[0];
        assert_eq!(o.kind, ObligationKind::Ancestor);
        assert!(!o.constrained);
        assert!(o.source.is_some());
    }

    #[test]
    fn constrained_child_gives_constrained_argument() {
        let mut tys = TypeInterner::new();
        let q = parse_pattern("a*/b/c", &mut tys).unwrap();
        let infos = propagate(&q);
        let root_info = infos[q.root().index()].as_ref().unwrap();
        let shapes: Vec<_> = root_info.obligations.iter().map(shape).collect();
        let t = |n: &str| tys.lookup(n).unwrap();
        assert_eq!(
            shapes,
            vec![
                ob(ObligationKind::Parent, true, t("b")),
                ob(ObligationKind::Ancestor, true, t("c")),
            ]
        );
    }

    #[test]
    fn merging_children_concatenates_contributions() {
        let mut tys = TypeInterner::new();
        let q = parse_pattern("r*[/x][//y]//y", &mut tys).unwrap();
        let infos = propagate(&q);
        let root_info = infos[q.root().index()].as_ref().unwrap();
        // Two plain a-obligations of type y (distinct sources) + one p x.
        let t = |n: &str| tys.lookup(n).unwrap();
        let y_obs: Vec<_> = root_info.obligations.iter().filter(|o| o.ty == t("y")).collect();
        assert_eq!(y_obs.len(), 2);
        assert!(y_obs.iter().all(|o| !o.constrained && o.source.is_some()));
        assert_ne!(y_obs[0].source, y_obs[1].source);
    }

    #[test]
    fn deep_obligations_dedup() {
        let mut tys = TypeInterner::new();
        // Two branches both containing deep c's: only one a~ c at the root.
        let q = parse_pattern("r*[/x/c][/y/c]", &mut tys).unwrap();
        let infos = propagate(&q);
        let root_info = infos[q.root().index()].as_ref().unwrap();
        let t = |n: &str| tys.lookup(n).unwrap();
        let c_obs: Vec<_> = root_info.obligations.iter().filter(|o| o.ty == t("c")).collect();
        assert_eq!(c_obs.len(), 1, "constrained duplicates merge");
        assert!(c_obs[0].constrained);
    }
}
