//! Quickstart: parse a tree pattern, minimize it with and without
//! integrity constraints, and inspect the result — then print where the
//! time went, phase by phase.
//!
//! Run with `cargo run --example quickstart`.

use tpq::prelude::*;

fn main() -> Result<()> {
    // Turn the observability layer on for the whole run so the final
    // report covers every phase below (it is off by default and costs
    // one atomic load per instrumented call site when disabled).
    tpq::obs::set_enabled(true);

    let mut types = TypeInterner::new();

    // ------------------------------------------------------------------
    // 1. Constraint-independent minimization (CIM).
    //
    // "Find departments that contain a database project and that contain
    // project managers managing a database project" — the first DBProject
    // requirement is subsumed by the second (paper, Section 1).
    // ------------------------------------------------------------------
    let query = parse_pattern("Dept*[//DBProject]//Manager//DBProject", &mut types)?;
    println!("original query ({} nodes):", query.size());
    println!("{}", to_tree_string(&query, &types));

    let minimal = cim(&query);
    println!("CIM-minimal query ({} nodes):", minimal.size());
    println!("{}", to_tree_string(&minimal, &types));
    assert!(equivalent(&query, &minimal, &Guard::unlimited())?);

    // ------------------------------------------------------------------
    // 2. Constraint-dependent minimization (CDM + ACIM).
    //
    // "Find the title and author of books that have a publisher", knowing
    // that every book has a publisher (paper, Section 1).
    // ------------------------------------------------------------------
    let query = parse_pattern("Book*[/Title][/Author][/Publisher]", &mut types)?;
    let ics = parse_constraints("Book -> Publisher", &mut types)?;
    let outcome = minimize(&query, &ics);
    println!(
        "under `Book -> Publisher`, {} nodes -> {} nodes:",
        query.size(),
        outcome.pattern.size()
    );
    println!("{}", to_tree_string(&outcome.pattern, &types));
    println!("as DSL: {}", to_dsl(&outcome.pattern, &types));
    assert!(equivalent_under(&query, &outcome.pattern, &ics, &Guard::unlimited())?);

    // ------------------------------------------------------------------
    // 3. The minimized query returns the same answers — demonstrably.
    // ------------------------------------------------------------------
    let doc = parse_xml(
        r#"<Shelf>
             <Book><Title/><Author/><Publisher/></Book>
             <Book><Title/><Author/><Publisher/><Year/></Book>
           </Shelf>"#,
        &mut types,
    )?;
    let before = answer_set(&query, &doc);
    let after = answer_set(&outcome.pattern, &doc);
    println!(
        "answers on sample shelf: {} before, {} after minimization",
        before.len(),
        after.len()
    );
    assert_eq!(before.len(), after.len());
    println!("minimization preserved the answer set ✓");

    // ------------------------------------------------------------------
    // 4. Where did the time go? The tpq-obs layer has been recording
    // spans for every phase (minimize / cdm / acim.tables / acim.scan /
    // match.*) the whole time — render the per-phase report.
    // ------------------------------------------------------------------
    println!("\nper-phase timing report:");
    print!("{}", tpq::obs::report().to_text());
    Ok(())
}
