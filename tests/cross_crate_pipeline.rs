//! Whole-system integration: schema → inferred constraints → minimization
//! → repaired databases → answer-set equality, across every crate.

use tpq::constraints::{repair, satisfies, Schema};
use tpq::core::Strategy;
use tpq::matching::answer_set_forest;
use tpq::prelude::*;

#[test]
fn publishing_house_end_to_end() {
    let mut tys = TypeInterner::new();
    // A publishing-house schema: books must have a title and at least one
    // author; authors must have a last name; every hardcover is a book
    // variant (co-occurrence).
    let schema = Schema::parse(
        "element Catalog = Book*\n\
         element Book = Title, Author+, Chapter*\n\
         element Author = LastName, FirstName?\n\
         class Hardcover : Book",
        &mut tys,
    )
    .unwrap();
    let ics = schema.infer_closed();

    // A customer query written the long way.
    let q = parse_pattern("Catalog/Book*[/Title][//LastName][/Author/LastName]", &mut tys).unwrap();
    let out = tpq::core::minimize_with(&q, &ics, Strategy::CdmThenAcim);
    // Title is implied (Book -> Title); //LastName is implied
    // (Book ->> LastName); Author/LastName is implied too: Book -> Author
    // and Author -> LastName.
    assert_eq!(out.pattern.size(), 2, "only Catalog/Book* survives");
    assert!(equivalent_under(&q, &out.pattern, &ics, &Guard::unlimited()).unwrap());

    // Build a raw catalog missing required pieces, repair it, and verify
    // query/minimized-query agreement on the repaired version.
    let raw = parse_xml(
        "<Catalog>\
           <Book/>\
           <Book><Title/><Author><LastName/></Author></Book>\
           <Hardcover/>\
         </Catalog>",
        &mut tys,
    )
    .unwrap();
    assert!(!satisfies(&raw, &ics));
    let fixed = repair(&raw, &ics).unwrap();
    assert!(satisfies(&fixed, &ics));

    let mut before = answer_set(&q, &fixed);
    let mut after = answer_set(&out.pattern, &fixed);
    before.sort_unstable();
    after.sort_unstable();
    assert_eq!(before, after);
    // All three entries answer: two books plus the hardcover (which is
    // also a Book by co-occurrence).
    assert_eq!(before.len(), 3);

    // On the raw (non-conforming) catalog the queries may disagree —
    // demonstrating why the ICs matter.
    assert_ne!(answer_set(&q, &raw).len(), answer_set(&out.pattern, &raw).len());
}

#[test]
fn forest_queries_across_directory_shards() {
    let mut tys = TypeInterner::new();
    let q_raw = parse_pattern("Dept*[//Manager][//Manager//Report]", &mut tys).unwrap();
    let minimal = cim(&q_raw);
    assert_eq!(minimal.size(), 3, "the bare //Manager branch folds");

    let mut forest = Forest::new();
    for xml in [
        "<Dept><Manager><Report/></Manager></Dept>",
        "<Dept><Manager/></Dept>",
        "<Org><Dept><Team><Manager><X><Report/></X></Manager></Team></Dept></Org>",
    ] {
        forest.push(parse_xml(xml, &mut tys).unwrap());
    }
    let mut a = answer_set_forest(&q_raw, &forest);
    let mut b = answer_set_forest(&minimal, &forest);
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
    assert_eq!(a.len(), 2, "shards 0 and 2 answer");
}

#[test]
fn minimization_reduces_matching_work() {
    // The practical payoff: fewer pattern nodes, fewer embeddings to
    // enumerate. Build a query with heavy duplication and a fanout-y
    // document.
    let mut tys = TypeInterner::new();
    let q = parse_pattern("Dept*[//Proj][//Proj][//Proj][//Mgr//Proj]", &mut tys).unwrap();
    let m = cim(&q);
    assert_eq!(m.size(), 3);

    let mut xml = String::from("<Dept>");
    for _ in 0..6 {
        xml.push_str("<Mgr><Proj/><Proj/></Mgr>");
    }
    xml.push_str("</Dept>");
    let doc = parse_xml(&xml, &mut tys).unwrap();

    let full = Matcher::new(&q, &doc, &Guard::unlimited()).unwrap().count_embeddings();
    let reduced = Matcher::new(&m, &doc, &Guard::unlimited()).unwrap().count_embeddings();
    assert!(reduced < full, "{reduced} vs {full}");
    // Same answers regardless.
    assert_eq!(answer_set(&q, &doc), answer_set(&m, &doc));
}

#[test]
fn stats_plumb_through_the_public_api() {
    let mut tys = TypeInterner::new();
    let q = parse_pattern("Book*[/Title][/Publisher][//LastName]", &mut tys).unwrap();
    let ics = parse_constraints("Book -> Publisher\nBook ->> LastName", &mut tys).unwrap();
    let out = minimize(&q, &ics);
    assert_eq!(out.pattern.size(), 2);
    assert_eq!(out.stats.cdm_removed, 2, "both implied leaves are local");
    assert_eq!(out.stats.cim_removed, 0);
    assert!(out.stats.total_time > std::time::Duration::ZERO);
}

#[test]
fn json_round_trips_patterns_and_constraints() {
    let mut tys = TypeInterner::new();
    let q = parse_pattern("a*[/b][//c/d]", &mut tys).unwrap();
    let json = q.to_json().to_string_compact();
    let parsed = tpq::base::Json::parse(&json).unwrap();
    let back = tpq::pattern::TreePattern::from_json(&parsed).unwrap();
    assert_eq!(q, back);

    let ics = parse_constraints("a -> b\nc ~ d", &mut tys).unwrap();
    let json = tpq::base::Json::Array(ics.iter().map(|c| c.to_json()).collect());
    let parsed = tpq::base::Json::parse(&json.to_string_compact()).unwrap();
    let back: Vec<tpq::constraints::Constraint> = match &parsed {
        tpq::base::Json::Array(items) => {
            items.iter().map(|j| tpq::constraints::Constraint::from_json(j).unwrap()).collect()
        }
        _ => panic!("expected array"),
    };
    assert_eq!(back.len(), 2);
}
