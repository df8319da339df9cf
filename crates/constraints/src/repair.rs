//! Checking and establishing constraint satisfaction on documents.
//!
//! Constraint-dependent minimization is only sound on databases that
//! satisfy the constraints, so the test suite needs a way to *build* such
//! databases: [`repair`] extends an arbitrary document (adding nodes and
//! types, never removing) until it satisfies a closed constraint set.
//! [`satisfies`] is the corresponding checker.

use crate::set::ConstraintSet;
use tpq_base::{Error, Result, TypeId, TypeSet};
use tpq_data::{DataNodeId, Document};

/// Whether `doc` satisfies every constraint in `set`.
pub fn satisfies(doc: &Document, set: &ConstraintSet) -> bool {
    // types_below[v] = union of type sets of proper descendants of v.
    let mut types_below: Vec<TypeSet> = vec![TypeSet::new(); doc.len()];
    let mut order = doc.pre_order();
    order.reverse(); // children before parents
    for &id in &order {
        let mut below = TypeSet::new();
        for c in doc.children(id) {
            for &t in doc.types(c) {
                below.insert(t);
            }
            below.union_with(&types_below[c.index()]);
        }
        types_below[id.index()] = below;
    }
    for id in doc.ids() {
        for &t in doc.types(id) {
            for &u in set.cooccurrences_of(t) {
                if !doc.has_type(id, u) {
                    return false;
                }
            }
            for &u in set.required_children_of(t) {
                if !doc.children(id).any(|c| doc.has_type(c, u)) {
                    return false;
                }
            }
            for &u in set.required_descendants_of(t) {
                if !types_below[id.index()].contains(u) {
                    return false;
                }
            }
        }
    }
    true
}

/// Extend `doc` (adding nodes and types only) so that it satisfies `set`.
///
/// Every node gets the co-occurrence closure of its types. Then each node
/// gets one new last child of type `u` for every required child `u` none of
/// its children carries and every required descendant `u` its subtree
/// lacks, counting the children already added to it; each new node is
/// repaired the same way in turn. A node's additions depend only on its own
/// types, its input subtree and its earlier additions, so the repaired
/// document is written out in pre-order as the input is read, and comes
/// back pre-ordered without a renumbering copy.
///
/// `set` must be logically closed and finitely satisfiable; otherwise an
/// [`Error::InvalidConstraints`] is returned. The input is untouched.
pub fn repair(doc: &Document, set: &ConstraintSet) -> Result<Document> {
    if !set.is_closed() {
        return Err(Error::InvalidConstraints(
            "repair requires a logically closed constraint set".into(),
        ));
    }
    if !set.is_finitely_satisfiable() {
        return Err(Error::InvalidConstraints(
            "constraint set has a required-descendant cycle; no finite tree satisfies it".into(),
        ));
    }
    // Subtrees are read as id intervals of the input.
    let renumbered;
    let input = if doc.is_pre_order() {
        doc
    } else {
        renumbered = doc.to_pre_order().0;
        &renumbered
    };
    let mut out = Document::new(input.primary(input.root()));
    // Input nodes whose subtrees are still being copied, with their copies.
    let mut open: Vec<(DataNodeId, DataNodeId)> = Vec::new();
    for id in input.ids() {
        let copy = match input.parent(id) {
            None => out.root(),
            Some(p) => {
                while let Some(&(top, top_copy)) = open.last().filter(|&&(top, _)| top != p) {
                    open.pop();
                    complete(input, &mut out, set, top, top_copy);
                }
                let &(_, p_copy) = open.last().expect("the parent is open");
                out.add_child(p_copy, input.primary(id))
            }
        };
        for &t in input.types(id) {
            out.add_type(copy, t);
            for &u in set.cooccurrences_of(t) {
                out.add_type(copy, u);
            }
        }
        for (a, v) in input.attrs(id) {
            out.set_attr(copy, *a, v.clone());
        }
        open.push((id, copy));
    }
    while let Some((top, top_copy)) = open.pop() {
        complete(input, &mut out, set, top, top_copy);
    }
    debug_assert!(out.is_pre_order());
    debug_assert!(satisfies(&out, set));
    Ok(out)
}

/// Input node `x` is copied to `copy` with its whole input subtree: append
/// the children repair adds to it, each with everything added below it.
fn complete(
    input: &Document,
    out: &mut Document,
    set: &ConstraintSet,
    x: DataNodeId,
    copy: DataNodeId,
) {
    let carries = |y: DataNodeId, u: TypeId| {
        input.types(y).iter().any(|&t| t == u || set.has_cooccurrence(t, u))
    };
    let below = x.0 + 1..=input.subtree_end(x).0;
    let added = additions(
        set,
        out.types(copy),
        |u| out.children(copy).any(|c| out.has_type(c, u)),
        |u| below.clone().any(|y| carries(DataNodeId(y), u)),
    );
    // Depth first, so the additions land in pre-order.
    let mut todo: Vec<(DataNodeId, TypeId)> = added.into_iter().rev().map(|u| (copy, u)).collect();
    while let Some((parent, u)) = todo.pop() {
        let id = out.add_child(parent, u);
        for &c in set.cooccurrences_of(u) {
            out.add_type(id, c);
        }
        let more = additions(set, out.types(id), |_| false, |_| false);
        todo.extend(more.into_iter().rev().map(|w| (id, w)));
    }
}

/// The types of the children repair adds to a node with the closed type
/// set `types`, in order: per type, each required child that neither
/// `has_child` nor an earlier addition provides, then each required
/// descendant that neither `has_below` nor an earlier addition provides.
fn additions(
    set: &ConstraintSet,
    types: &[TypeId],
    has_child: impl Fn(TypeId) -> bool,
    has_below: impl Fn(TypeId) -> bool,
) -> Vec<TypeId> {
    let mut added: Vec<TypeId> = Vec::new();
    let got = |added: &[TypeId], u| added.iter().any(|&a| a == u || set.has_cooccurrence(a, u));
    for &t in types {
        for &u in set.required_children_of(t) {
            if !has_child(u) && !got(&added, u) {
                added.push(u);
            }
        }
        for &u in set.required_descendants_of(t) {
            if !has_below(u) && !got(&added, u) {
                added.push(u);
            }
        }
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint::*;
    use tpq_base::{TypeId, TypeInterner};
    use tpq_data::parse_xml;

    fn t(i: u32) -> TypeId {
        TypeId(i)
    }

    #[test]
    fn satisfies_detects_missing_child() {
        let mut tys = TypeInterner::new();
        let doc = parse_xml("<Book><Author/></Book>", &mut tys).unwrap();
        let book = tys.lookup("Book").unwrap();
        let title = tys.intern("Title");
        let set = ConstraintSet::from_iter([RequiredChild(book, title)]);
        assert!(!satisfies(&doc, &set));
        let ok = parse_xml("<Book><Author/><Title/></Book>", &mut tys).unwrap();
        assert!(satisfies(&ok, &set));
    }

    #[test]
    fn satisfies_checks_descendants_not_just_children() {
        let mut tys = TypeInterner::new();
        let doc = parse_xml("<Book><Author><LastName/></Author></Book>", &mut tys).unwrap();
        let book = tys.lookup("Book").unwrap();
        let last = tys.lookup("LastName").unwrap();
        let desc = ConstraintSet::from_iter([RequiredDescendant(book, last)]);
        assert!(satisfies(&doc, &desc));
        let child = ConstraintSet::from_iter([RequiredChild(book, last)]);
        assert!(!satisfies(&doc, &child), "grandchild does not satisfy a child IC");
    }

    #[test]
    fn satisfies_checks_cooccurrence() {
        let mut tys = TypeInterner::new();
        let doc = parse_xml("<Employee/>", &mut tys).unwrap();
        let emp = tys.lookup("Employee").unwrap();
        let person = tys.intern("Person");
        let set = ConstraintSet::from_iter([CoOccurrence(emp, person)]);
        assert!(!satisfies(&doc, &set));
        let ok = parse_xml(r#"<Employee also="Person"/>"#, &mut tys).unwrap();
        assert!(satisfies(&ok, &set));
    }

    #[test]
    fn repair_adds_missing_structure() {
        let mut tys = TypeInterner::new();
        let doc = parse_xml("<Book/>", &mut tys).unwrap();
        let book = tys.lookup("Book").unwrap();
        let (title, author, last) =
            (tys.intern("Title"), tys.intern("Author"), tys.intern("LastName"));
        let set = ConstraintSet::from_iter([
            RequiredChild(book, title),
            RequiredChild(book, author),
            RequiredChild(author, last),
        ])
        .closure();
        let fixed = repair(&doc, &set).unwrap();
        assert!(satisfies(&fixed, &set));
        assert!(fixed.len() >= 4, "Book, Title, Author, LastName");
        fixed.validate().unwrap();
    }

    #[test]
    fn repair_keeps_the_first_children_column() {
        // Every Dept gains a Manager and a Budget after its own children,
        // so the added nodes are first children or later children.
        let mut tys = TypeInterner::new();
        let xml = format!("<Org>{}</Org>", "<Dept><Manager/></Dept><Dept/>".repeat(30));
        let doc = parse_xml(&xml, &mut tys).unwrap();
        let (dept, manager) = (tys.lookup("Dept").unwrap(), tys.lookup("Manager").unwrap());
        let budget = tys.intern("Budget");
        let set =
            ConstraintSet::from_iter([RequiredChild(dept, manager), RequiredChild(dept, budget)])
                .closure();
        let fixed = repair(&doc, &set).unwrap();
        assert_eq!(fixed.len(), 1 + 30 * 6);
        fixed.validate().unwrap();
        for c in fixed.ids() {
            let bit = fixed.first_children()[c.index() / 64] >> (c.0 % 64) & 1 == 1;
            assert_eq!(bit, c.0 > 0 && fixed.parent(c).is_some_and(|p| p.0 == c.0 - 1), "{c}");
        }
    }

    #[test]
    fn repair_adds_cooccurrence_types_everywhere() {
        let mut tys = TypeInterner::new();
        let doc = parse_xml("<Org><Employee/><Employee/></Org>", &mut tys).unwrap();
        let emp = tys.lookup("Employee").unwrap();
        let person = tys.intern("Person");
        let set = ConstraintSet::from_iter([CoOccurrence(emp, person)]).closure();
        let fixed = repair(&doc, &set).unwrap();
        assert!(satisfies(&fixed, &set));
        assert_eq!(fixed.len(), doc.len(), "no nodes needed, only types");
    }

    #[test]
    fn repair_satisfies_constraints_on_nodes_it_adds() {
        // a ->> b, b -> c: repairing an <a/> must produce the whole chain.
        let set =
            ConstraintSet::from_iter([RequiredDescendant(t(0), t(1)), RequiredChild(t(1), t(2))])
                .closure();
        let doc = Document::new(t(0));
        let fixed = repair(&doc, &set).unwrap();
        assert!(satisfies(&fixed, &set));
        assert!(fixed.len() >= 3);
    }

    #[test]
    fn repair_rejects_unclosed_sets() {
        let set = ConstraintSet::from_iter([RequiredChild(t(0), t(1))]); // not closed
        let doc = Document::new(t(0));
        assert!(repair(&doc, &set).is_err());
    }

    #[test]
    fn repair_rejects_descendant_cycles() {
        let set = ConstraintSet::from_iter([
            RequiredDescendant(t(0), t(1)),
            RequiredDescendant(t(1), t(0)),
        ])
        .closure();
        let doc = Document::new(t(0));
        assert!(repair(&doc, &set).is_err());
    }

    #[test]
    fn repair_is_idempotent_on_satisfying_documents() {
        let set = ConstraintSet::from_iter([RequiredChild(t(0), t(1))]).closure();
        let doc = repair(&Document::new(t(0)), &set).unwrap();
        let again = repair(&doc, &set).unwrap();
        assert_eq!(doc, again);
    }

    #[test]
    fn empty_set_is_always_satisfied() {
        let doc = Document::new(t(0));
        let set = ConstraintSet::new();
        assert!(satisfies(&doc, &set));
        assert_eq!(repair(&doc, &set).unwrap(), doc);
    }
}
