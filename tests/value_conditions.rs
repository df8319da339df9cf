//! Section 7 of the paper — value-based conditions — end to end.
//!
//! "Tree pattern queries may involve value-based conditions, e.g., that
//! the price of a book always be less than $100 … when we consider
//! endomorphisms, a node u cannot be mapped to a node w unless the
//! conditions at w logically entail those at u."

use tpq::prelude::*;

fn tys() -> TypeInterner {
    TypeInterner::new()
}

#[test]
fn entailed_conditioned_branch_is_redundant() {
    // Books cheaper than 50 are also cheaper than 100: the looser branch
    // folds onto the stricter one.
    let mut t = tys();
    let q = parse_pattern("Shelf*[//Book{price<100}]//Book{price<50}//Review", &mut t).unwrap();
    let m = cim(&q);
    let want = parse_pattern("Shelf*//Book{price<50}//Review", &mut t).unwrap();
    assert!(isomorphic(&m, &want), "got {} nodes", m.size());
    assert!(equivalent(&q, &m, &Guard::unlimited()).unwrap());
}

#[test]
fn non_entailed_conditions_block_minimization() {
    // price<10 and price>50 are incomparable: nothing folds either way.
    let mut t = tys();
    let q = parse_pattern("Shelf*[//Book{price<10}]//Book{price>50}", &mut t).unwrap();
    let m = cim(&q);
    assert_eq!(m.size(), q.size());
    // Distinct attributes never entail each other.
    let q2 = parse_pattern("Shelf*[//Book{year>2000}]//Book{price<50}", &mut t).unwrap();
    assert_eq!(cim(&q2).size(), q2.size());
    // One-directional entailment folds exactly one branch: the looser
    // price<50 requirement is subsumed by the stricter price<10 node.
    let q3 = parse_pattern("Shelf*[//Book{price<10}]//Book{price<50}", &mut t).unwrap();
    let m3 = cim(&q3);
    assert_eq!(m3.size(), 2);
    let survivor = m3.alive_ids().find(|&v| !m3.conditions(v).is_empty()).unwrap();
    assert_eq!(m3.conditions(survivor)[0].value, tpq::base::Value::Int(10));
}

#[test]
fn unconditioned_node_subsumed_by_conditioned_twin() {
    // A bare Book requirement is implied by any conditioned Book.
    let mut t = tys();
    let q = parse_pattern("Shelf*[//Book]//Book{price<50}", &mut t).unwrap();
    let m = cim(&q);
    assert_eq!(m.size(), 2);
    // But not the other way: the conditioned one must survive.
    let survivor =
        m.alive_ids().find(|&v| !m.conditions(v).is_empty()).expect("conditioned node survives");
    assert_eq!(m.conditions(survivor).len(), 1);
}

#[test]
fn equality_pins_fold_both_ways() {
    // lang="en" twins are mutually redundant: exactly one survives.
    let mut t = tys();
    let q = parse_pattern(r#"Shelf*[//Book{lang="en"}]//Book{lang="en"}"#, &mut t).unwrap();
    let m = cim(&q);
    assert_eq!(m.size(), 2);
}

#[test]
fn matching_respects_attribute_values() {
    let mut t = tys();
    let q = parse_pattern(r#"Shelf*//Book{price<100,lang="en"}"#, &mut t).unwrap();
    let doc = parse_xml(
        r#"<Shelf>
             <Book price="95" lang="en"/>
             <Book price="120" lang="en"/>
             <Book price="10" lang="fr"/>
             <Book lang="en"/>
           </Shelf>"#,
        &mut t,
    )
    .unwrap();
    let shelves = answer_set(&q, &doc);
    assert_eq!(shelves.len(), 1, "the shelf matches via the first book only");
    // Move the output to the Book node to see which books matched.
    let mut q2 = q.clone();
    let book = q2.children(q2.root()).next().unwrap();
    q2.set_output(book);
    let books = answer_set(&q2, &doc);
    assert_eq!(books.len(), 1);
    // The matching book is the 95/en one (document order: first child).
    assert_eq!(books[0].index(), 1);
}

#[test]
fn minimized_conditioned_query_keeps_answers() {
    let mut t = tys();
    let q = parse_pattern("Shelf*[//Book{price<100}]//Book{price<50}//Review", &mut t).unwrap();
    let m = cim(&q);
    let doc = parse_xml(
        r#"<Shelf>
             <Book price="40"><Review/></Book>
             <Book price="80"/>
           </Shelf>"#,
        &mut t,
    )
    .unwrap();
    assert!(tpq::matching::same_answers(&q, &m, &doc));
    assert_eq!(answer_set(&m, &doc).len(), 1);
    // A shelf whose only cheap book has no review does not match.
    let doc2 =
        parse_xml(r#"<Shelf><Book price="40"/><Book price="80"><Review/></Book></Shelf>"#, &mut t)
            .unwrap();
    assert!(answer_set(&m, &doc2).is_empty());
    assert!(tpq::matching::same_answers(&q, &m, &doc2));
}

#[test]
fn ics_do_not_discharge_conditioned_nodes() {
    // Every Book has a Price child — but not necessarily one satisfying
    // amount<100, so the conditioned leaf must survive ACIM.
    let mut t = tys();
    let q = parse_pattern("Book*[/Title]/Price{amount<100}", &mut t).unwrap();
    let ics = parse_constraints("Book -> Price\nBook -> Title", &mut t).unwrap();
    let m = minimize(&q, &ics).pattern;
    // Title goes (implied), the conditioned Price stays.
    assert_eq!(m.size(), 2);
    let kept = m.children(m.root()).next().unwrap();
    assert!(!m.conditions(kept).is_empty());
    assert!(equivalent_under(&q, &m, &ics, &Guard::unlimited()).unwrap());
}

#[test]
fn cdm_uses_entailment_for_cooccurrence_witnesses() {
    // PermEmp ~ Employee: an Employee{age>30} requirement is subsumed by a
    // PermEmp{age>40} sibling (40 < age entails 30 < age), but not by a
    // PermEmp{age>20} one.
    let mut t = tys();
    let ics = parse_constraints("PermEmp ~ Employee", &mut t).unwrap();
    let q = parse_pattern("Org*[/Employee{age>30}][/PermEmp{age>40}]", &mut t).unwrap();
    let m = cdm(&q, &ics);
    assert_eq!(m.size(), 2, "entailed sibling folds");
    let q2 = parse_pattern("Org*[/Employee{age>30}][/PermEmp{age>20}]", &mut t).unwrap();
    let m2 = cdm(&q2, &ics);
    assert_eq!(m2.size(), 3, "non-entailed sibling survives");
}

#[test]
fn unsatisfiable_conditions_entail_anything() {
    // A node that can never match makes its subsuming branch trivially
    // removable; the containment machinery must not choke.
    let mut t = tys();
    let q = parse_pattern("Shelf*[//Book{price<10}]//Book{price<5,price>6}", &mut t).unwrap();
    let m = cim(&q);
    // The price<10 branch folds onto the unsatisfiable one (ex falso).
    assert_eq!(m.size(), 2);
    assert!(equivalent(&q, &m, &Guard::unlimited()).unwrap());
    // And indeed neither query ever matches anything with a Book.
    let doc = parse_xml(r#"<Shelf><Book price="3"/></Shelf>"#, &mut t).unwrap();
    assert!(answer_set(&m, &doc).is_empty());
}

#[test]
fn integer_normalization_in_minimization() {
    // price<=99 and price<100 are the same integer condition; the twins
    // are mutually redundant and the survivor's DSL keeps working.
    let mut t = tys();
    let q = parse_pattern("Shelf*[//Book{price<=99}]//Book{price<100}", &mut t).unwrap();
    let m = cim(&q);
    assert_eq!(m.size(), 2);
    let printed = tpq::pattern::print::to_dsl(&m, &t);
    let back = parse_pattern(&printed, &mut t).unwrap();
    assert!(isomorphic(&m, &back));
}

#[test]
fn containment_under_ics_with_conditions() {
    let mut t = tys();
    let ics = parse_constraints("Book -> Price", &mut t).unwrap();
    let plain = parse_pattern("Book*", &mut t).unwrap();
    let bare = parse_pattern("Book*/Price", &mut t).unwrap();
    let conditioned = parse_pattern("Book*/Price{amount<10}", &mut t).unwrap();
    // The bare Price is implied; the conditioned one is not.
    assert!(contains_under(&plain, &bare, &ics, &Guard::unlimited()).unwrap());
    assert!(!contains_under(&plain, &conditioned, &ics, &Guard::unlimited()).unwrap());
    // Conditioned is still contained in bare.
    assert!(contains_under(&conditioned, &bare, &ics, &Guard::unlimited()).unwrap());
}

#[test]
fn json_round_trips_conditions() {
    let mut t = tys();
    let q = parse_pattern(r#"Book*{price<100,lang="en"}/Title"#, &mut t).unwrap();
    let json = q.to_json().to_string_compact();
    let parsed = tpq::base::Json::parse(&json).unwrap();
    let back = TreePattern::from_json(&parsed).unwrap();
    assert_eq!(q, back);
}
