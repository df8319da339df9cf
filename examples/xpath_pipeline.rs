//! An end-to-end "query optimizer session" over XPath with value
//! conditions (the paper's Section 7 extension):
//!
//! 1. infer the catalog schema's closed constraint set once;
//! 2. accept XPath queries with attribute predicates;
//! 3. minimize each, show the rewrite, and run both against a catalog to
//!    confirm the answers agree while the minimized query does less work.
//!
//! Run with `cargo run --example xpath_pipeline`.

use tpq::constraints::Schema;
use tpq::core::{minimize_closed_guarded, Strategy};
use tpq::pattern::parse_xpath;
use tpq::prelude::*;

fn main() -> Result<()> {
    let mut types = TypeInterner::new();

    let schema = Schema::parse(
        "element Catalog = Book*\n\
         element Book = Title, Author+\n\
         element Author = LastName",
        &mut types,
    )?;
    // Closed once, shared by every query below.
    let closed = schema.infer_closed();

    let catalog = parse_xml(
        r#"<Catalog>
             <Book price="95" lang="en">
               <Title/><Author><LastName/></Author>
             </Book>
             <Book price="150" lang="en">
               <Title/><Author><LastName/></Author>
             </Book>
             <Book price="12" lang="fr">
               <Title/><Author><LastName/></Author>
             </Book>
           </Catalog>"#,
        &mut types,
    )?;

    // Three user queries, written the verbose way an application might
    // generate them.
    let queries = [
        // Title and LastName tests are schema-implied.
        "//Catalog/Book[Title][.//LastName][@price < 100]",
        // The looser price predicate is entailed by the stricter one.
        "//Catalog[.//Book[@price < 200]]/Book[@price < 100][Title]",
        // Nothing removable: conditions are incomparable.
        "//Catalog/Book[@price < 100][@lang = 'en']",
    ];

    for src in queries {
        let q = parse_xpath(src, &mut types)?;
        let out = minimize_closed_guarded(&q, &closed, Strategy::default(), &Guard::unlimited())?;
        println!("XPath : {src}");
        println!("parsed: {}", to_dsl(&q, &types));
        println!(
            "minimal ({} -> {} nodes): {}",
            q.size(),
            out.pattern.size(),
            to_dsl(&out.pattern, &types)
        );
        assert!(equivalent_under(&q, &out.pattern, &closed, &Guard::unlimited())?);
        // Minimal queries are unique (Theorem 5.1): a second pass is a no-op.
        let again = minimize_closed_guarded(
            &out.pattern,
            &closed,
            Strategy::default(),
            &Guard::unlimited(),
        )?;
        assert!(isomorphic(&again.pattern, &out.pattern));

        let mut before = answer_set(&q, &catalog);
        let mut after = answer_set(&out.pattern, &catalog);
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after, "schema-conforming catalog: answers agree");
        println!(
            "answers: {} book(s); embeddings enumerated {} -> {}\n",
            after.len(),
            Matcher::new(&q, &catalog, &Guard::unlimited())?.count_embeddings(),
            Matcher::new(&out.pattern, &catalog, &Guard::unlimited())?.count_embeddings(),
        );
    }
    println!("all three queries verified against the catalog ✓");
    Ok(())
}
