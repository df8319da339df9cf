//! Direct audit of local redundancy (Section 5.4).
//!
//! [`locally_redundant_leaves`] implements the four conditions of
//! Section 5.4 *literally* — walking parents, siblings and descendant sets
//! with no information-content machinery. It exists to validate CDM:
//! Theorem 5.2 says CDM's output contains no locally redundant leaf, and
//! the property tests check exactly that with this function.

use tpq_base::TypeId;
use tpq_constraints::ConstraintSet;
use tpq_pattern::{EdgeKind, NodeId, TreePattern};

/// All alive leaves of `q` that are locally redundant with respect to the
/// **closed** constraint set `closed`, in pre-order.
pub fn locally_redundant_leaves(q: &TreePattern, closed: &ConstraintSet) -> Vec<NodeId> {
    q.pre_order()
        .into_iter()
        .filter(|&l| {
            q.node(l).is_leaf()
                && l != q.root()
                && l != q.output()
                && !q.node(l).temporary
                && is_locally_redundant(q, closed, l)
        })
        .collect()
}

fn is_locally_redundant(q: &TreePattern, closed: &ConstraintSet, l: NodeId) -> bool {
    let v = q.node(l).parent.expect("non-root leaf has a parent");
    let t1 = q.node(v).primary;
    let t2 = q.node(l).primary;
    // Value-based conditions (Section 7): IC-based removals need a
    // condition-free leaf; co-occurrence witnesses must entail the leaf's
    // conditions.
    let unconditioned = q.conditions(l).is_empty();
    let entailed_by = |w: NodeId| tpq_pattern::condition::entails(q.conditions(w), q.conditions(l));
    match q.node(l).edge {
        EdgeKind::Child => {
            // Condition (i): t1 -> t2.
            if unconditioned && closed.has_required_child(t1, t2) {
                return true;
            }
            // Condition (iii): another c-child of v of a type co-occurring
            // with t2.
            q.children(v).filter(|&c| c != l).any(|c| {
                q.node(c).edge == EdgeKind::Child
                    && closed.has_cooccurrence(q.node(c).primary, t2)
                    && entailed_by(c)
            })
        }
        EdgeKind::Descendant => {
            // Condition (ii): t1 ->> t2.
            if unconditioned && closed.has_required_descendant(t1, t2) {
                return true;
            }
            // Condition (iv): a descendant w of v (other than l) whose type
            // requires or co-occurs with t2.
            descendants_except(q, v, l).into_iter().any(|w| {
                let tw: TypeId = q.node(w).primary;
                (unconditioned && closed.has_required_descendant(tw, t2))
                    || (closed.has_cooccurrence(tw, t2) && entailed_by(w))
            })
        }
    }
}

fn descendants_except(q: &TreePattern, v: NodeId, skip: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut stack: Vec<NodeId> = q.children(v).collect();
    while let Some(n) = stack.pop() {
        if n == skip {
            continue;
        }
        out.push(n);
        stack.extend(q.children(n));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpq_base::TypeInterner;
    use tpq_constraints::parse_constraints;
    use tpq_pattern::parse_pattern;

    fn audit(q: &str, ics: &str) -> usize {
        let mut tys = TypeInterner::new();
        let pat = parse_pattern(q, &mut tys).unwrap();
        let closed = parse_constraints(ics, &mut tys).unwrap().closure();
        locally_redundant_leaves(&pat, &closed).len()
    }

    #[test]
    fn each_condition_detected() {
        assert_eq!(audit("Book*[/Publisher][/x]", "Book -> Publisher"), 1);
        assert_eq!(audit("Book*[//LastName][/x]", "Book ->> LastName"), 1);
        assert_eq!(audit("O*[/Employee][/PermEmp]", "PermEmp ~ Employee"), 1);
        assert_eq!(audit("Article*[//Paragraph]//Section/x", "Section ->> Paragraph"), 1);
    }

    #[test]
    fn edge_kind_mismatches_not_detected() {
        // ->> does not justify a c-child; -> does justify a d-child (via
        // closure) — audit takes the closed set, so test accordingly.
        assert_eq!(audit("a*[/b][/x]", "a ->> b"), 0);
        assert_eq!(audit("a*[//b][/x]", "a -> b"), 1);
    }

    #[test]
    fn deep_witness_only_counts_for_d_children() {
        // c-child Employee cannot be justified by a deep PermEmp.
        assert_eq!(audit("O*[/Employee]//D/PermEmp", "PermEmp ~ Employee"), 0);
        // d-child Employee can.
        assert_eq!(audit("O*[//Employee]//D/PermEmp", "PermEmp ~ Employee"), 1);
    }

    #[test]
    fn output_and_internal_nodes_ignored() {
        assert_eq!(audit("Book[/Publisher*]", "Book -> Publisher"), 0);
        assert_eq!(audit("Book*/Publisher/x", "Book -> Publisher"), 0);
    }

    #[test]
    fn mutual_twins_both_flagged() {
        // The audit flags both (removing either is valid); CDM then removes
        // only one.
        assert_eq!(audit("r*[/a][/b]", "a ~ b\nb ~ a"), 2);
    }

    #[test]
    fn no_ics_nothing_local() {
        assert_eq!(audit("Dept*[//DBProject]//Manager//DBProject", ""), 0);
    }
}
