//! Engine-agreement battery: the matcher and the naive backtracking
//! enumerator must agree on the answer set of every random (pattern,
//! document) pair — including multi-typed nodes, value conditions, and
//! `a//a`-style self-overlapping patterns.
//!
//! The matcher returns document order and naive id order, so they are
//! compared as sorted sets (the two orders coincide on pre-ordered
//! documents).
//!
//! Further batteries cover pattern nodes that read one type row, documents
//! whose sizes straddle the 64-bit words of the matcher's bit rows (with
//! embedding counts checked too), type ids near `u32::MAX`, and a budget
//! that trips partway through matching a 100k-node document.

use tpq_base::{Cmp, Error, Guard, SmallRng, TypeId, TypeInterner, TypeSet, Value};
use tpq_data::{generate_document, DataNodeId, DocIndex, Document, DocumentSpec};
use tpq_match::{
    answer_set, answer_set_naive, answer_set_twig_indexed, count_embeddings_naive, Matcher,
};
use tpq_pattern::{parse_pattern, Condition, TreePattern};
use tpq_workload::{random_pattern, redundancy_query, PatternSpec, RedundancySpec};

/// A uniform probability in `[0, 1)` (the in-tree rng has no float ranges).
fn prob(rng: &mut SmallRng) -> f64 {
    rng.gen_range(0..1000u32) as f64 / 1000.0
}

/// Sprinkle value conditions over a random pattern and matching attribute
/// values over the document, so the condition-filtering paths of both
/// engines are exercised (the generators alone emit neither).
fn decorate(pattern: &mut TreePattern, doc: &mut Document, num_types: usize, rng: &mut SmallRng) {
    let attr = TypeId(num_types as u32); // one id past the type universe
    let ids: Vec<_> = pattern.alive_ids().collect();
    for v in ids {
        if rng.gen_bool(0.3) {
            let cond = if rng.gen_bool(0.7) {
                let op =
                    *rng.choose(&[Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge, Cmp::Eq, Cmp::Ne]).unwrap();
                Condition::new(attr, op, Value::Int(rng.gen_range(0..6u32) as i64))
            } else {
                Condition::new(attr, Cmp::Eq, Value::Str("x".into()))
            };
            pattern.add_condition(v, cond);
        }
    }
    for u in doc.ids().collect::<Vec<_>>() {
        if rng.gen_bool(0.5) {
            let value = if rng.gen_bool(0.8) {
                Value::Int(rng.gen_range(0..6u32) as i64)
            } else {
                Value::Str(if rng.gen_bool(0.5) { "x" } else { "y" }.into())
            };
            doc.set_attr(u, attr, value);
        }
    }
}

/// Assert both engines agree on one pair; returns the answer count.
/// The naive enumerator walks every embedding, which explodes on dense
/// self-overlapping pairs — it runs under a budget and is skipped (not
/// failed) when that trips.
fn agree(pattern: &TreePattern, doc: &Document, ctx: &str) -> usize {
    let mut answers = answer_set(pattern, doc);
    answers.sort_unstable();
    match answer_set_naive(pattern, doc, &Guard::with_budget(2_000_000)) {
        Ok(naive) => assert_eq!(answers, naive, "{ctx}: matcher vs naive (as sets)"),
        Err(Error::Budget { .. }) => {} // embedding count blew up; skip oracle
        Err(e) => panic!("{ctx}: naive failed unexpectedly: {e:?}"),
    }
    answers.len()
}

#[test]
fn engines_agree_on_random_pairs() {
    let mut nonempty = 0usize;
    for seed in 0..120u64 {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
        // Few types ⇒ frequent self-overlap (`a//a`, `a/a//a`…) and dense
        // match sets; more types ⇒ sparse streams and early pruning.
        let num_types = rng.gen_range(1..5usize);
        let pspec = PatternSpec {
            nodes: rng.gen_range(1..9),
            num_types,
            d_edge_prob: prob(&mut rng),
            max_fanout: rng.gen_range(1..4),
            seed,
        };
        let dspec = DocumentSpec {
            nodes: rng.gen_range(1..250),
            num_types,
            max_fanout: rng.gen_range(1..6),
            extra_type_prob: prob(&mut rng) * 0.4,
            seed: seed.wrapping_mul(31) + 7,
        };
        let mut pattern = random_pattern(&pspec);
        let mut doc = generate_document(&dspec);
        if seed % 2 == 0 {
            decorate(&mut pattern, &mut doc, num_types, &mut rng);
        }
        let ctx = format!("seed {seed} ({pspec:?}, {dspec:?})");
        nonempty += usize::from(agree(&pattern, &doc, &ctx) > 0);
    }
    // The battery must actually exercise the match paths, not vacuously
    // compare empty answer sets.
    assert!(nonempty >= 30, "only {nonempty}/120 pairs had answers — generators drifted?");
}

#[test]
fn guarded_engines_trip_to_err_not_wrong_answers() {
    for seed in 0..20u64 {
        let pattern =
            random_pattern(&PatternSpec { nodes: 6, num_types: 3, seed, ..PatternSpec::default() });
        let doc = generate_document(&DocumentSpec {
            nodes: 120,
            num_types: 3,
            seed: seed + 999,
            ..DocumentSpec::default()
        });
        let full = answer_set(&pattern, &doc);
        let index = DocIndex::build(&doc);
        // A budget far below the work either trips or — only if the true
        // workload was tiny — returns the exact full answer.
        for budget in [1u64, 5, 25] {
            match answer_set_twig_indexed(&pattern, &doc, &index, &Guard::with_budget(budget)) {
                Err(Error::Budget { .. }) => {}
                Ok(ans) => {
                    assert_eq!(ans, full, "seed {seed} budget {budget}: partial answers leaked")
                }
                Err(e) => panic!("seed {seed} budget {budget}: unexpected error {e:?}"),
            }
            match answer_set_naive(&pattern, &doc, &Guard::with_budget(budget)) {
                Err(Error::Budget { .. }) => {}
                Ok(ans) => {
                    assert_eq!(
                        ans, full,
                        "seed {seed} budget {budget}: naive partial answers leaked"
                    )
                }
                Err(e) => panic!("seed {seed} budget {budget}: unexpected error {e:?}"),
            }
        }
    }
}

#[test]
fn indexed_matcher_agrees_with_a_fresh_one_across_queries_on_one_doc() {
    // The matcher over a caller-built index (what the benchmark's layer
    // replay times) must match a fresh Matcher per query.
    let doc = generate_document(&DocumentSpec {
        nodes: 300,
        num_types: 4,
        seed: 42,
        ..DocumentSpec::default()
    });
    let index = DocIndex::build(&doc);
    let guard = Guard::unlimited();
    for seed in 0..40u64 {
        let pattern =
            random_pattern(&PatternSpec { nodes: 5, num_types: 4, seed, ..PatternSpec::default() });
        let indexed = answer_set_twig_indexed(&pattern, &doc, &index, &guard).unwrap();
        let fresh = Matcher::new(&pattern, &doc, &guard).unwrap().answers();
        assert_eq!(indexed, fresh, "seed {seed}");
    }
}

#[test]
fn pattern_nodes_sharing_a_seed_type_agree() {
    // Few types and dense multi-typing: most pattern nodes share a type
    // row with a parent, a sibling or a cousin.
    let mut tys = TypeInterner::new();
    for i in 0..3 {
        tys.intern(&format!("t{i}"));
    }
    let mut total = 0;
    for seed in 0..12u64 {
        let doc = generate_document(&DocumentSpec {
            nodes: 150,
            num_types: 3,
            max_fanout: 3,
            extra_type_prob: 0.3,
            seed,
        });
        for q in [
            // Several members of one stream, in different branches.
            "t0*[//t1][//t1/t2]//t1",
            "t1[/t1][//t2//t1]//t1*",
            "t2*[//t0][//t0][/t0]",
            // Parent and child of the same type, c- and d-edges.
            "t0*/t0",
            "t0/t0*",
            "t0*//t0",
            "t0//t0*//t0",
            "t1/t1//t1*/t1",
            "t2*[/t2][//t2]",
        ] {
            total += agree(&parse_pattern(q, &mut tys).unwrap(), &doc, q);
        }
    }
    assert!(total > 100, "only {total} answers: the documents stopped matching");
}

#[test]
fn mixed_exact_and_filtered_members_of_one_stream_agree() {
    // One type row feeds members with exactly that type (no filtering),
    // members with an extra type, and members with a value condition.
    let mut tys = TypeInterner::new();
    for i in 0..3 {
        tys.intern(&format!("t{i}"));
    }
    let x = tys.intern("x");
    let mut total = 0;
    for seed in 0..12u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut doc = generate_document(&DocumentSpec {
            nodes: 150,
            num_types: 3,
            max_fanout: 3,
            extra_type_prob: 0.3,
            seed: seed + 100,
        });
        for u in doc.ids().collect::<Vec<_>>() {
            if rng.gen_bool(0.6) {
                doc.set_attr(u, x, Value::Int(rng.gen_range(0..5u32) as i64));
            }
        }
        for q in ["t0*[//t1{x<2}][//t1]//t1", "t1{x>=1}/t1*{x<4}//t1", "t0[/t0{x=3}]//t0*"] {
            total += agree(&parse_pattern(q, &mut tys).unwrap(), &doc, q);
        }
        // Multi-typed members: give one of several t1 nodes an extra type,
        // so its row is the AND of two type rows.
        for extra in [TypeId(0), TypeId(2)] {
            let mut p = parse_pattern("t0*[//t1][//t1][/t1]", &mut tys).unwrap();
            let kids = p.children(p.root()).collect::<Vec<_>>();
            p.node_mut(kids[rng.gen_range(0..kids.len())]).types.insert(extra);
            total += agree(&p, &doc, &format!("seed {seed}: t0*[//t1][//t1][/t1] +{extra:?}"));
        }
    }
    assert!(total > 50, "only {total} answers: the documents stopped matching");
}

/// A tree of Figure-7 sections: a `tR` with a `tF0/tF1/…` chain (complete
/// in every other section), `tX` children with nested `tX`s, and later
/// sections under earlier `tR`/`tX` nodes.
fn sections_document(tys: &mut TypeInterner, fillers: usize, sections: usize) -> Document {
    let mut rng = SmallRng::seed_from_u64(7);
    let t_r = tys.intern("tR");
    let t_x = tys.intern("tX");
    let chain: Vec<TypeId> = (0..fillers).map(|i| tys.intern(&format!("tF{i}"))).collect();
    let mut doc = Document::new(t_r);
    let mut points: Vec<DataNodeId> = Vec::new();
    for s in 0..sections {
        let r = if s == 0 {
            doc.root()
        } else {
            doc.add_child(points[rng.gen_range(0..points.len())], t_r)
        };
        let len = if s % 2 == 0 { fillers } else { rng.gen_range(0..fillers) };
        chain[..len].iter().fold(r, |cur, &f| doc.add_child(cur, f));
        points.push(r);
        for _ in 0..rng.gen_range(1..3usize) {
            let x = doc.add_child(r, t_x);
            points.push(x);
            if rng.gen_bool(0.5) {
                points.push(doc.add_child(x, t_x));
            }
        }
    }
    doc
}

#[test]
fn raw_figure7_queries_with_sixteen_redundant_leaves_agree() {
    // The raw query's 16 `//tX` leaves all read the one `tX` list beside
    // the witness chain's `tX` nodes. They fold onto that chain even
    // without constraints, so the raw query is equivalent to the same
    // family with no planted leaves, which naive can still enumerate.
    for degree in [2, 3] {
        let raw =
            redundancy_query(&RedundancySpec { total_nodes: 30, redundant_nodes: 16, degree });
        let core =
            redundancy_query(&RedundancySpec { total_nodes: 30 - 16, redundant_nodes: 0, degree });
        let mut tys = raw.types.clone();
        let doc = sections_document(&mut tys, raw.filler_types.len(), 60);
        assert_eq!(tys.len(), raw.types.len(), "the document reuses the query's type ids");
        let raw_answers = answer_set(&raw.pattern, &doc);
        assert_eq!(raw_answers, answer_set(&core.pattern, &doc), "degree {degree}: raw vs core");
        let mut sorted = raw_answers.clone();
        sorted.sort_unstable();
        let naive = answer_set_naive(&core.pattern, &doc, &Guard::unlimited()).unwrap();
        assert_eq!(sorted, naive, "degree {degree}: vs naive");
        assert!(!raw_answers.is_empty(), "degree {degree}: no section matched");
    }
}

/// A random tree grown by attaching each node under a random earlier one,
/// so its ids are not document-order ranks (unlike a parsed or generated
/// document, which come back renumbered).
fn grown_out_of_order(rng: &mut SmallRng, nodes: u32, num_types: u32) -> Document {
    let mut doc = Document::new(TypeId(rng.gen_range(0..num_types)));
    for i in 1..nodes {
        let parent = DataNodeId(rng.gen_range(0..i));
        let u = doc.add_child(parent, TypeId(rng.gen_range(0..num_types)));
        if rng.gen_bool(0.3) {
            doc.add_type(u, TypeId(rng.gen_range(0..num_types)));
        }
    }
    doc
}

#[test]
fn documents_built_out_of_document_order_answer_in_the_callers_ids() {
    // Every engine must agree on a document whose ids are not
    // document-order ranks and answer in its ids: exactly the answers on
    // the renumbered copy, mapped back through the renumbering.
    let mut out_of_order = 0;
    let mut nonempty = 0;
    for seed in 0..60u64 {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x0dd);
        let num_types = rng.gen_range(1..5usize);
        let nodes = rng.gen_range(2..200u32);
        let mut doc = grown_out_of_order(&mut rng, nodes, num_types as u32);
        let mut pattern = random_pattern(&PatternSpec {
            nodes: rng.gen_range(1..7),
            num_types,
            d_edge_prob: prob(&mut rng),
            max_fanout: 3,
            seed,
        });
        decorate(&mut pattern, &mut doc, num_types, &mut rng);
        out_of_order += usize::from(!doc.is_pre_order());
        let ctx = format!("seed {seed}");
        nonempty += usize::from(agree(&pattern, &doc, &ctx) > 0);

        let (pre, caller) = doc.to_pre_order();
        let back = |answers: Vec<DataNodeId>| -> Vec<DataNodeId> {
            answers.into_iter().map(|u| caller[u.index()]).collect()
        };
        let answers = answer_set(&pattern, &doc);
        assert_eq!(answers, back(answer_set(&pattern, &pre)), "{ctx}: vs renumbered");
        let guard = Guard::unlimited();
        let index = DocIndex::build(&doc);
        let indexed = answer_set_twig_indexed(&pattern, &doc, &index, &guard).unwrap();
        assert_eq!(indexed, answers, "{ctx}: indexed on the out-of-order document");
        let m = Matcher::new(&pattern, &doc, &guard).unwrap();
        let on_pre = Matcher::new(&pattern, &pre, &guard).unwrap();
        assert_eq!(m.count_embeddings(), on_pre.count_embeddings(), "{ctx}: counts");
        for v in pattern.alive_ids() {
            assert_eq!(m.candidates(v), back(on_pre.candidates(v)), "{ctx}: candidates of {v:?}");
        }
        for embedding in m.embeddings(20) {
            for (v, u) in embedding {
                assert!(doc.has_types(u, &pattern.node(v).types), "{ctx}: {v:?} -> {u}");
            }
        }
    }
    assert!(out_of_order >= 40, "only {out_of_order}/60 documents were out of order");
    assert!(nonempty >= 20, "only {nonempty}/60 pairs had answers");
}

#[test]
fn deep_chain_with_mixed_edges_agrees() {
    // A 10k-deep chain of mostly `f` nodes with rare `a`, `b` and `c`, and
    // an `s` (now and then a `c`) leaf beside every third chain node.
    // Candidates nest thousands deep and subtree ends vary, so each merge
    // pointer must step over long runs; rare types everywhere but at the
    // output keep naive, which scans the document per binding, within its
    // budget.
    let mut tys = TypeInterner::new();
    let [a, b, c, f, s] = ["a", "b", "c", "f", "s"].map(|t| tys.intern(t));
    let depth = 10_000u32;
    let ty = |i: u32| match (i % 1000, i % 700) {
        (0, _) => a,
        (1, _) => b,
        (_, 3) => c,
        _ => f,
    };
    let mut doc = Document::new(ty(0));
    let mut cur = doc.root();
    for i in 1..depth {
        if i % 3 == 0 {
            doc.add_child(cur, if i % 300 == 0 { c } else { s });
        }
        cur = doc.add_child(cur, ty(i));
    }
    assert!(doc.is_pre_order());
    let mut total = 0;
    for q in ["a//b//f*", "a//b//s*", "a/b//c*", "a//b/c*", "a*[/b]//c", "c//a/b*", "a[/b]//a*//c"]
    {
        let pattern = parse_pattern(q, &mut tys).unwrap();
        let answers = answer_set(&pattern, &doc);
        let naive = answer_set_naive(&pattern, &doc, &Guard::with_budget(20_000_000))
            .unwrap_or_else(|e| panic!("{q}: naive did not finish: {e}"));
        assert_eq!(answers, naive, "{q}");
        total += answers.len();
    }
    assert!(total > 1000, "only {total} answers: the chain stopped matching");
}

/// Both engines' answers and embedding counts on one pair; returns the
/// count, or 0 when the naive enumerator ran out of budget.
fn agree_with_counts(pattern: &TreePattern, doc: &Document, ctx: &str) -> u64 {
    let m = Matcher::new(pattern, doc, &Guard::unlimited()).unwrap();
    let mut answers = m.answers();
    answers.sort_unstable();
    let naive = answer_set_naive(pattern, doc, &Guard::with_budget(2_000_000));
    let count = count_embeddings_naive(pattern, doc, &Guard::with_budget(2_000_000));
    match (naive, count) {
        (Ok(naive), Ok(count)) => {
            assert_eq!(answers, naive, "{ctx}: answers vs naive");
            assert_eq!(m.count_embeddings(), count, "{ctx}: embedding count vs naive");
            count
        }
        (Err(Error::Budget { .. }), _) | (_, Err(Error::Budget { .. })) => 0,
        (Err(e), _) | (_, Err(e)) => panic!("{ctx}: naive failed unexpectedly: {e:?}"),
    }
}

/// Patterns over `t0`–`t2` and the attribute `x`: c- and d-edge pairs,
/// value conditions, a multi-typed node and self-overlap.
fn boundary_patterns(tys: &mut TypeInterner) -> Vec<TreePattern> {
    let mut patterns: Vec<TreePattern> = [
        "t0*/t1",
        "t0*//t1",
        "t0/t1*",
        "t0//t1*",
        "t1*[/t2][//t0]",
        "t0[/t1{x<2}]//t2*",
        "t2*{x>=1}//t2",
        "t0//t0*//t0",
        "t1*/t1/t1",
        "t0*[//t1//t2][/t2{x!=3}]",
    ]
    .iter()
    .map(|q| parse_pattern(q, tys).unwrap())
    .collect();
    let mut multi = parse_pattern("t0*//t1[/t2]", tys).unwrap();
    let t1 = multi.children(multi.root()).next().unwrap();
    multi.node_mut(t1).types.insert(TypeId(2));
    patterns.push(multi);
    patterns
}

#[test]
fn documents_across_row_word_boundaries_agree_with_naive() {
    // 63/64/65 and 127/128/129 nodes end a row just before, at and just
    // after a word boundary. The nodes on both sides of each boundary get
    // an extra type and an attribute value, and the chains of the low
    // fanouts put parent/child and ancestor/descendant pairs across it.
    let mut tys = TypeInterner::new();
    for i in 0..3 {
        tys.intern(&format!("t{i}"));
    }
    let x = tys.intern("x");
    let patterns = boundary_patterns(&mut tys);
    let (mut crossing, mut total) = (0, 0);
    for nodes in [63usize, 64, 65, 127, 128, 129] {
        for seed in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(seed * 1000 + nodes as u64);
            let mut doc = generate_document(&DocumentSpec {
                nodes,
                num_types: 3,
                max_fanout: 1 + seed as usize % 3,
                extra_type_prob: 0.1,
                seed: seed + nodes as u64,
            });
            let near = |b: usize| b.saturating_sub(3)..(b + 3).min(nodes);
            for u in near(64).chain(near(128)) {
                let u = DataNodeId(u as u32);
                doc.add_type(u, TypeId(rng.gen_range(0..3u32)));
                doc.set_attr(u, x, Value::Int(rng.gen_range(0..4u32) as i64));
            }
            crossing += doc
                .ids()
                .filter(|&u| doc.parent(u).is_some_and(|p| p.index() / 64 != u.index() / 64))
                .count();
            for (i, p) in patterns.iter().enumerate() {
                total += agree_with_counts(p, &doc, &format!("{nodes} nodes, seed {seed}, #{i}"));
            }
        }
    }
    assert!(crossing >= 30, "only {crossing} parent/child pairs across a word boundary");
    assert!(total > 1000, "only {total} embeddings: the documents stopped matching");
}

#[test]
fn documents_built_out_of_order_across_word_boundaries_agree_with_naive() {
    let mut tys = TypeInterner::new();
    for i in 0..3 {
        tys.intern(&format!("t{i}"));
    }
    let patterns = boundary_patterns(&mut tys);
    let mut total = 0;
    for nodes in [63u32, 64, 65, 127, 128, 129] {
        let mut rng = SmallRng::seed_from_u64(u64::from(nodes));
        let doc = grown_out_of_order(&mut rng, nodes, 3);
        assert!(!doc.is_pre_order(), "{nodes} nodes: grown in document order");
        for (i, p) in patterns.iter().enumerate() {
            total += agree_with_counts(p, &doc, &format!("{nodes} nodes out of order, #{i}"));
        }
    }
    assert!(total > 100, "only {total} embeddings: the documents stopped matching");
}

#[test]
fn child_edge_chains_agree_with_naive_on_first_and_later_children() {
    // `t0/t1/t2`-style chains, a root with two child branches, and child
    // edges under descendant edges, on documents of 63–300 nodes.
    let mut tys = TypeInterner::new();
    for i in 0..3 {
        tys.intern(&format!("t{i}"));
    }
    let queries = [
        "t0/t1/t2*",
        "t0*/t1/t2",
        "t1/t0*/t1",
        "t0*[/t1][/t2]",
        "t1*[/t0/t2][/t1]",
        "t0//t1/t2*",
        "t2*//t0/t1",
        "t0//t1*[/t2][/t0]",
        "t0/t1//t2/t0*",
    ];
    let patterns: Vec<TreePattern> =
        queries.iter().map(|q| parse_pattern(q, &mut tys).unwrap()).collect();
    let (mut first, mut later, mut total) = (0, 0, 0);
    for seed in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xc0ed);
        let doc = generate_document(&DocumentSpec {
            nodes: rng.gen_range(63..301),
            num_types: 3,
            max_fanout: rng.gen_range(1..6),
            extra_type_prob: 0.1,
            seed: seed + 29,
        });
        for (i, p) in patterns.iter().enumerate() {
            let ctx = format!("{} nodes, seed {seed}, {}", doc.len(), queries[i]);
            total += agree_with_counts(p, &doc, &ctx);
            // Where the output hangs by a child edge, its answers are the
            // matching children of that edge.
            if i < 3 || i == 5 {
                for u in answer_set(p, &doc) {
                    if doc.parent(u).is_some_and(|p| p.0 + 1 == u.0) {
                        first += 1;
                    } else {
                        later += 1;
                    }
                }
            }
        }
    }
    assert!(first >= 100 && later >= 100, "{first} first-child and {later} later-child answers");
    assert!(total > 1000, "only {total} embeddings: the documents stopped matching");
}

#[test]
fn type_ids_near_u32_max_agree_with_naive() {
    // Huge type ids as primary types and as extra types, beside small
    // ones; the matcher must neither size a table by them nor miss them.
    let (huge, big, absent) = (TypeId(u32::MAX - 1), TypeId(u32::MAX - 2), TypeId(u32::MAX));
    let mut tys = TypeInterner::new();
    let t0 = tys.intern("t0");
    let mut doc = Document::new(huge);
    let mut rng = SmallRng::seed_from_u64(11);
    for i in 0..140u32 {
        let ty = *rng.choose(&[huge, big, t0]).unwrap();
        // Under the root or the newest node, so ids stay in document order.
        let parent = if i % 3 == 0 { doc.root() } else { DataNodeId(doc.len() as u32 - 1) };
        let u = doc.add_child(parent, ty);
        if rng.gen_bool(0.3) {
            doc.add_type(u, *rng.choose(&[huge, big, t0]).unwrap());
        }
    }
    assert!(doc.is_pre_order());
    let mut total = 0;
    for (q, types) in [
        ("t0*/t0", [huge, big]),
        ("t0*//t0", [big, huge]),
        ("t0//t0*", [huge, t0]),
        ("t0*/t0", [absent, huge]),
    ] {
        let mut p = parse_pattern(q, &mut tys).unwrap();
        let child = p.children(p.root()).next().unwrap();
        let root = p.root();
        p.node_mut(root).types = TypeSet::singleton(types[0]);
        p.node_mut(child).types = TypeSet::singleton(types[1]);
        total += agree_with_counts(&p, &doc, &format!("{q} as {types:?}"));
        // The same pattern with the child also needing `t0`.
        p.node_mut(child).types.insert(t0);
        total += agree_with_counts(&p, &doc, &format!("{q} as {types:?} + t0"));
    }
    assert!(total > 100, "only {total} embeddings: the huge types stopped matching");
}

#[test]
fn a_small_budget_trips_partway_through_a_large_document() {
    let mut tys = TypeInterner::new();
    for i in 0..4 {
        tys.intern(&format!("t{i}"));
    }
    let doc = generate_document(&DocumentSpec {
        nodes: 100_000,
        num_types: 4,
        max_fanout: 4,
        extra_type_prob: 0.1,
        seed: 3,
    });
    let pattern = parse_pattern("t0*[//t1][/t2]//t3", &mut tys).unwrap();
    let full = Guard::with_budget(u64::MAX);
    let answers = Matcher::new(&pattern, &doc, &full).unwrap().answers();
    assert_eq!(answers, answer_set(&pattern, &doc));
    assert!(!answers.is_empty());
    // Past the type pass, which costs one step per node, and short of the
    // rest of the build.
    let (nodes, total) = (doc.len() as u64, full.spent());
    assert!(total > nodes + 10_000, "the build after the type pass cost only {}", total - nodes);
    let guard = Guard::with_budget((nodes + total) / 2);
    match Matcher::new(&pattern, &doc, &guard) {
        Err(Error::Budget { .. }) => {}
        Err(e) => panic!("expected a budget trip, got {e:?}"),
        Ok(_) => panic!("expected a budget trip, got answers"),
    }
    assert!(guard.spent() > nodes, "tripped in the type pass, not partway through the build");
}
