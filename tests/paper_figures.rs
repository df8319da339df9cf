//! End-to-end reproduction of every claim the paper makes about its
//! running examples (Figures 1 and 2, Sections 1, 3.3, 5.2).

use tpq::prelude::*;

fn types() -> TypeInterner {
    TypeInterner::new()
}

/// Figure 2 queries, by panel, in the DSL.
mod fig2 {
    pub const A: &str = "Articles[/Article//Paragraph]/Article*[/Title]//Section//Paragraph";
    pub const B: &str = "Articles[/Article//Paragraph]/Article*//Section//Paragraph";
    pub const C: &str = "Articles/Article*//Section//Paragraph";
    pub const D: &str = "Articles[/Article//Paragraph]/Article*//Section";
    pub const E: &str = "Articles/Article*//Section";
    pub const F: &str = "Organization*[/Employee//Project][/PermEmp//DBproject]";
    pub const G: &str = "Organization*/PermEmp//DBproject";
    pub const H: &str = "OrgUnit*[/Dept/Researcher//DBProject]//Dept//DBProject";
    pub const I: &str = "OrgUnit*/Dept/Researcher//DBProject";
}

#[test]
fn section_1_book_publisher() {
    // "find the title and author of books that have a publisher" + "every
    // book has a publisher" simplifies to "find the title and author of
    // books".
    let mut tys = types();
    let q = parse_pattern("Book*[/Title][/Author][/Publisher]", &mut tys).unwrap();
    let ics = parse_constraints("Book -> Publisher", &mut tys).unwrap();
    let m = minimize(&q, &ics).pattern;
    let want = parse_pattern("Book*[/Title][/Author]", &mut tys).unwrap();
    assert!(isomorphic(&m, &want));
}

#[test]
fn section_1_department_projects() {
    let mut tys = types();
    let q = parse_pattern("Dept*[//DBProject]//Manager//DBProject", &mut tys).unwrap();
    let m = cim(&q);
    let want = parse_pattern("Dept*//Manager//DBProject", &mut tys).unwrap();
    assert!(isomorphic(&m, &want));
}

#[test]
fn fig_2h_equivalent_to_2i_and_minimal() {
    let mut tys = types();
    let h = parse_pattern(fig2::H, &mut tys).unwrap();
    let i = parse_pattern(fig2::I, &mut tys).unwrap();
    assert!(equivalent(&h, &i, &Guard::unlimited()).unwrap());
    assert!(isomorphic(&cim(&h), &i));
    // 2(i) is already minimal.
    assert!(isomorphic(&cim(&i), &i));
}

#[test]
fn fig_2h_star_on_dept_breaks_equivalence() {
    // Section 3.1: "if Figure 2(h) were modified to put the '*' on the
    // Dept node in the right branch, the queries would not be equivalent."
    let mut tys = types();
    let h_star =
        parse_pattern("OrgUnit[/Dept/Researcher//DBProject]//Dept*//DBProject", &mut tys).unwrap();
    let i_star = parse_pattern("OrgUnit/Dept*/Researcher//DBProject", &mut tys).unwrap();
    assert!(!equivalent(&h_star, &i_star, &Guard::unlimited()).unwrap());
    // And the modified 2(h) really keeps both branches under CIM.
    assert_eq!(cim(&h_star).size(), h_star.size());
}

#[test]
fn fig_2f_to_2g_under_cooccurrence() {
    let mut tys = types();
    let f = parse_pattern(fig2::F, &mut tys).unwrap();
    let g = parse_pattern(fig2::G, &mut tys).unwrap();
    let ics = parse_constraints("PermEmp ~ Employee\nDBproject ~ Project", &mut tys).unwrap();
    assert!(equivalent_under(&f, &g, &ics, &Guard::unlimited()).unwrap());
    assert!(!equivalent(&f, &g, &Guard::unlimited()).unwrap());
    let m = minimize(&f, &ics).pattern;
    assert!(isomorphic(&m, &g));
    // 2(g) "cannot be reduced further and is thus minimal".
    assert!(isomorphic(&minimize(&g, &ics).pattern, &g));
}

#[test]
fn fig_2a_chain_of_simplifications() {
    let mut tys = types();
    let a = parse_pattern(fig2::A, &mut tys).unwrap();
    let b = parse_pattern(fig2::B, &mut tys).unwrap();
    let c = parse_pattern(fig2::C, &mut tys).unwrap();
    let e = parse_pattern(fig2::E, &mut tys).unwrap();
    let title_ic = parse_constraints("Article -> Title", &mut tys).unwrap();
    let para_ic = parse_constraints("Section ->> Paragraph", &mut tys).unwrap();
    let both = parse_constraints("Article -> Title\nSection ->> Paragraph", &mut tys).unwrap();

    // Erratum (see DESIGN.md §2.3): the paper says 2(a) "cannot be
    // minimized further" without ICs, but its own 2(b) -> 2(c) step folds
    // the unmarked Article branch onto Article*, and the identical fold
    // applies to 2(a) (Title sits only in the mapping's *target*). The
    // fold is semantically sound — we assert the correct behaviour.
    let a_folded = cim(&a);
    assert_eq!(a_folded.size(), 5, "left branch folds; Title survives");
    assert!(equivalent(&a, &a_folded, &Guard::unlimited()).unwrap());
    // With Article -> Title, 2(a) ≡ 2(b).
    assert!(equivalent_under(&a, &b, &title_ic, &Guard::unlimited()).unwrap());
    // 2(b) CIM-minimizes to 2(c), which is CIM-minimal.
    assert!(isomorphic(&cim(&b), &c));
    assert!(isomorphic(&cim(&c), &c));
    // 2(c) + Section ->> Paragraph gives 2(e).
    assert!(isomorphic(&minimize(&c, &para_ic).pattern, &e));
    // Full pipeline from 2(a) with both ICs lands on 2(e).
    assert!(isomorphic(&minimize(&a, &both).pattern, &e));
    assert!(equivalent_under(&a, &e, &both, &Guard::unlimited()).unwrap());
}

#[test]
fn fig_2d_requires_augmentation() {
    // Section 3.3 last example: 2(d) is CIM-minimal, CDM can do nothing,
    // yet 2(e) is the true minimum under Section ->> Paragraph.
    let mut tys = types();
    let d = parse_pattern(fig2::D, &mut tys).unwrap();
    let e = parse_pattern(fig2::E, &mut tys).unwrap();
    let ics = parse_constraints("Section ->> Paragraph", &mut tys).unwrap();

    assert!(isomorphic(&cim(&d), &d), "2(d) is CIM-minimal");
    let after_cdm = cdm(&d, &ics);
    assert_eq!(after_cdm.size(), d.size(), "no local redundancy in 2(d)");
    let after_acim = acim(&d, &ics);
    assert!(isomorphic(&after_acim, &e), "augmentation unlocks 2(e)");
    assert!(equivalent_under(&d, &e, &ics, &Guard::unlimited()).unwrap());
}

#[test]
fn section_5_1_chase_then_cim_is_not_enough() {
    // The Section 5.1 pitfall: chasing 2(b) with Section ->> Paragraph and
    // then running plain CIM yields 2(c)'s shape (4 nodes), NOT the
    // minimal 2(e) (3 nodes) — because the chase-added Paragraph is a
    // plain node that keeps the Section "constrained".
    let mut tys = types();
    let b = parse_pattern(fig2::B, &mut tys).unwrap();
    let ics = parse_constraints("Section ->> Paragraph", &mut tys).unwrap();
    let chased = tpq::core::chase(&b, &ics);
    let after = cim(&chased);
    let e = parse_pattern(fig2::E, &mut tys).unwrap();
    assert!(after.size() > e.size(), "naive chase+CIM overshoots the minimum");
    // ACIM (temporary-aware augmentation) does reach 2(e).
    assert!(isomorphic(&acim(&b, &ics), &e));
}

#[test]
fn fig_1a_schema_inference() {
    // Figure 1(a): from the Book schema we infer Book -> Title and, since
    // every Author has a LastName child, Book ->> LastName.
    let mut tys = types();
    let schema = tpq::constraints::Schema::parse(
        "element Book = Title, Author+, Chapter\nelement Author = LastName",
        &mut tys,
    )
    .unwrap();
    let ics = schema.infer_closed();
    let t = |n: &str| tys.lookup(n).unwrap();
    assert!(ics.has_required_child(t("Book"), t("Title")));
    assert!(ics.has_required_descendant(t("Book"), t("LastName")));

    // Use them: a query asking for books with a last-name descendant
    // simplifies.
    let q = parse_pattern("Book*[/Title][//LastName]", &mut tys).unwrap();
    let m = minimize(&q, &ics).pattern;
    assert_eq!(m.size(), 1, "Title and LastName are both implied");
}

#[test]
fn answer_sets_agree_on_conforming_databases() {
    // Semantic check of the whole 2(a) -> 2(e) pipeline on documents that
    // satisfy the constraints.
    let mut tys = types();
    let a = parse_pattern(fig2::A, &mut tys).unwrap();
    let e = parse_pattern(fig2::E, &mut tys).unwrap();
    let doc = parse_xml(
        "<Articles>\
           <Article><Title/><Section><Paragraph/></Section></Article>\
           <Article><Title/><Section><Section><Paragraph/></Section><Paragraph/></Section></Article>\
           <Article><Title/></Article>\
         </Articles>",
        &mut tys,
    )
    .unwrap();
    let mut ans_a = answer_set(&a, &doc);
    let mut ans_e = answer_set(&e, &doc);
    ans_a.sort_unstable();
    ans_e.sort_unstable();
    assert_eq!(ans_a, ans_e);
    assert_eq!(ans_a.len(), 2);
}

#[test]
fn non_conforming_database_distinguishes_them() {
    // On a database violating Section ->> Paragraph the two queries are
    // NOT interchangeable — constraint-dependent minimization is only
    // sound on conforming data.
    let mut tys = types();
    let c = parse_pattern(fig2::C, &mut tys).unwrap();
    let e = parse_pattern(fig2::E, &mut tys).unwrap();
    let bad =
        parse_xml("<Articles><Article><Title/><Section/></Article></Articles>", &mut tys).unwrap();
    let ans_c = answer_set(&c, &bad);
    let ans_e = answer_set(&e, &bad);
    assert!(ans_c.is_empty());
    assert_eq!(ans_e.len(), 1);
}
