//! The paper's running XML example, end to end:
//!
//! 1. declare a schema for an article catalog;
//! 2. infer integrity constraints from it (Section 2.2);
//! 3. minimize Figure 2(a) down to Figure 2(e) through the CDM + ACIM
//!    pipeline (Sections 3.3, 5.2);
//! 4. evaluate both queries against an XML catalog and verify the answer
//!    sets coincide, with fewer embedding checks for the minimal query.
//!
//! Run with `cargo run --example xml_catalog`.

use tpq::constraints::Schema;
use tpq::prelude::*;

fn main() -> Result<()> {
    let mut types = TypeInterner::new();

    // ------------------------------------------------------------------
    // Schema: every Article has a Title; every Section has a Paragraph
    // somewhere below (via the required Paragraph content of Section).
    // ------------------------------------------------------------------
    let schema = Schema::parse(
        "element Articles = Article+\n\
         element Article = Title, Author*, Section*\n\
         element Section = Paragraph, Section*\n\
         element Paragraph =",
        &mut types,
    )?;
    let ics = schema.infer_closed();
    println!("inferred {} constraints from the schema, e.g.:", ics.len());
    for c in ics.iter().take(4) {
        println!(
            "  {} {} {}",
            types.name(c.lhs()),
            match c {
                tpq::constraints::Constraint::RequiredChild(..) => "->",
                tpq::constraints::Constraint::RequiredDescendant(..) => "->>",
                tpq::constraints::Constraint::CoOccurrence(..) => "~",
            },
            types.name(c.rhs())
        );
    }

    // ------------------------------------------------------------------
    // Figure 2(a): articles (in a collection containing some article with
    // a paragraph) that have a title, and a paragraph, and a section with
    // a paragraph.
    // ------------------------------------------------------------------
    let fig2a = parse_pattern(
        "Articles[/Article//Paragraph]/Article*[/Title]//Section//Paragraph",
        &mut types,
    )?;
    println!("\nFigure 2(a), {} nodes:", fig2a.size());
    println!("{}", to_tree_string(&fig2a, &types));

    let outcome = minimize(&fig2a, &ics);
    println!(
        "minimal equivalent under the schema constraints, {} nodes (CDM removed {}, ACIM {}):",
        outcome.pattern.size(),
        outcome.stats.cdm_removed,
        outcome.stats.cim_removed,
    );
    println!("{}", to_tree_string(&outcome.pattern, &types));

    // Figure 2(e) is Articles/Article*//Section.
    let fig2e = parse_pattern("Articles/Article*//Section", &mut types)?;
    assert!(isomorphic(&outcome.pattern, &fig2e), "reached Figure 2(e)");
    assert!(equivalent_under(&fig2a, &outcome.pattern, &ics, &Guard::unlimited())?);

    // ------------------------------------------------------------------
    // Run both against a catalog document that satisfies the schema.
    // ------------------------------------------------------------------
    let catalog = parse_xml(
        r#"<Articles>
             <Article>
               <Title/>
               <Section><Paragraph/></Section>
             </Article>
             <Article>
               <Title/>
               <Section><Paragraph/><Section><Paragraph/></Section></Section>
             </Article>
             <Article>
               <Title/>
             </Article>
           </Articles>"#,
        &mut types,
    )?;
    let mut before = answer_set(&fig2a, &catalog);
    let mut after = answer_set(&outcome.pattern, &catalog);
    before.sort_unstable();
    after.sort_unstable();
    assert_eq!(before, after, "answer sets agree on a conforming catalog");
    println!("\nboth queries return the same {} article(s) on the catalog ✓", after.len());
    println!(
        "embeddings enumerated: {} for Figure 2(a) vs {} for the minimal query",
        Matcher::new(&fig2a, &catalog, &Guard::unlimited())?.count_embeddings(),
        Matcher::new(&outcome.pattern, &catalog, &Guard::unlimited())?.count_embeddings(),
    );
    Ok(())
}
