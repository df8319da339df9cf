//! Property-based validation of the paper's theorems on random inputs.
//!
//! Patterns, documents and constraint sets are drawn from the
//! `tpq-workload` generators under explicit seed loops, so every failure
//! message names the seed that reproduces it.

use tpq::base::Guard;
use tpq::base::SmallRng;
use tpq::constraints::ConstraintSet;
use tpq::core::{
    augment_guarded, cdm, cdm_in_place_guarded, chase::present_types, cim, cim_with_order,
    equivalent, equivalent_under, has_homomorphism, has_homomorphism_naive,
    locally_redundant_leaves, minimize_closed_guarded, minimize_with, MinimizeOutcome,
    MinimizeStats, Strategy,
};
use tpq::matching::{answer_set, answer_set_naive};
use tpq::pattern::{isomorphic, TreePattern};
use tpq_workload::{random_constraints, random_pattern, ConstraintSpec, PatternSpec};

const CASES: u64 = 64;

fn pattern(seed: u64, nodes: usize, num_types: usize) -> TreePattern {
    random_pattern(&PatternSpec { nodes, num_types, d_edge_prob: 0.5, max_fanout: 3, seed })
}

/// Derive per-case parameters from the case number: a fresh RNG whose
/// draws are stable across test reorderings.
fn case_rng(salt: u64, case: u64) -> SmallRng {
    SmallRng::seed_from_u64(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ case)
}

/// Theorem 4.1 (existence): CIM output is equivalent to the input and no
/// larger.
#[test]
fn cim_preserves_equivalence() {
    for case in 0..CASES {
        let mut r = case_rng(1, case);
        let nodes = r.gen_range(1..14usize);
        let nt = r.gen_range(1..5usize);
        let q = pattern(case, nodes, nt);
        let m = cim(&q);
        assert!(m.size() <= q.size());
        assert!(equivalent(&q, &m, &Guard::unlimited()).unwrap(), "not equivalent for case {case}");
        m.validate().unwrap();
    }
}

/// Theorem 4.1 (uniqueness): any elimination order reaches an isomorphic
/// minimal query.
#[test]
fn cim_unique_up_to_isomorphism() {
    for case in 0..CASES {
        let mut r = case_rng(2, case);
        let nodes = r.gen_range(1..12usize);
        let q = pattern(case, nodes, 3);
        let default = cim(&q);
        for shuffle_seed in 0..3u64 {
            let shuffled = cim_with_order(&q, |_, cands| {
                let mut v = cands.to_vec();
                let mut rng = SmallRng::seed_from_u64(case ^ shuffle_seed);
                rng.shuffle(&mut v);
                v
            });
            assert!(isomorphic(&default, &shuffled), "orders disagree for case {case}");
        }
    }
}

/// CIM is idempotent.
#[test]
fn cim_idempotent() {
    for case in 0..CASES {
        let mut r = case_rng(3, case);
        let q = pattern(case, r.gen_range(1..14usize), 3);
        let once = cim(&q);
        let twice = cim(&once);
        assert!(isomorphic(&once, &twice), "case {case}");
    }
}

/// The rebuild-per-test oracle: `cim_with_order` in arena order.
fn rebuilding_cim(q: &TreePattern) -> TreePattern {
    cim_with_order(q, |_, cands| cands.to_vec())
}

/// The ACIM oracle: augment under `closed`, run the rebuild-per-test MEO
/// loop, strip the temporaries. Also returns the number of original nodes
/// it removed.
fn rebuilding_acim(q: &TreePattern, closed: &ConstraintSet) -> (TreePattern, usize) {
    let mut work = q.clone();
    let allowed = present_types(&work);
    augment_guarded(
        &mut work,
        closed,
        &allowed,
        &mut MinimizeStats::default(),
        &Guard::unlimited(),
    )
    .unwrap();
    let mut out = rebuilding_cim(&work);
    out.strip_temporaries();
    let out = out.compact().0;
    let removed = q.size() - out.size();
    (out, removed)
}

/// The engine's ACIM under an already closed set.
fn engine_acim(q: &TreePattern, closed: &ConstraintSet) -> MinimizeOutcome {
    minimize_closed_guarded(q, closed, Strategy::AcimOnly, &Guard::unlimited()).unwrap()
}

/// The incremental engine (Section 6.1 implementation) computes the same
/// minimum as the rebuild-per-test implementation.
#[test]
fn incremental_engine_matches_rebuilding() {
    for case in 0..CASES {
        let mut r = case_rng(4, case);
        let q = pattern(case, r.gen_range(1..14usize), 3);
        let inc = cim(&q);
        let reb = rebuilding_cim(&q);
        assert!(
            isomorphic(&inc, &reb),
            "incremental {} vs rebuilding {} (case {case})",
            inc.size(),
            reb.size()
        );
    }
}

/// ... and the same under constraints, through augmentation.
#[test]
fn incremental_acim_matches_rebuilding() {
    incremental_acim_matches_rebuilding_over(4);
}

/// ... with constraints over types the pattern mostly lacks.
#[test]
fn incremental_acim_matches_rebuilding_under_sparse_constraints() {
    incremental_acim_matches_rebuilding_over(8);
}

/// 10-node patterns over 4 types against up to 7 random constraints over
/// `ic_types` types.
fn incremental_acim_matches_rebuilding_over(ic_types: usize) {
    for case in 0..CASES {
        let mut r = case_rng(5, case);
        let count = r.gen_range(0..8usize);
        let q = pattern(case, 10, 4);
        let ics =
            random_constraints(&ConstraintSpec { count, num_types: ic_types, seed: case << 8 });
        let closed = ics.closure();
        let inc = engine_acim(&q, &closed);
        let (reb, reb_removed) = rebuilding_acim(&q, &closed);
        assert!(
            isomorphic(&inc.pattern, &reb),
            "incremental {} vs rebuilding {} (case {case})",
            inc.pattern.size(),
            reb.size()
        );
        assert_eq!(inc.stats.cim_removed, reb_removed, "case {case}");
    }
}

/// The polynomial containment test agrees with brute-force search.
#[test]
fn homomorphism_pruning_matches_naive() {
    for case in 0..CASES {
        let mut r = case_rng(6, case);
        let n1 = r.gen_range(1..8usize);
        let n2 = r.gen_range(1..8usize);
        let a = pattern(case, n1, 3);
        let b = pattern(case ^ 0xFFFF, n2, 3);
        assert_eq!(
            has_homomorphism(&a, &b, &Guard::unlimited()).unwrap(),
            has_homomorphism_naive(&a, &b),
            "case {case} a→b"
        );
        assert_eq!(
            has_homomorphism(&b, &a, &Guard::unlimited()).unwrap(),
            has_homomorphism_naive(&b, &a),
            "case {case} b→a"
        );
    }
}

/// The production evaluator agrees with exhaustive enumeration.
#[test]
fn evaluator_matches_naive() {
    for case in 0..CASES {
        let q = pattern(case, 6, 3);
        let doc = tpq::data::generate_document(&tpq::data::DocumentSpec {
            nodes: 25,
            num_types: 3,
            max_fanout: 3,
            extra_type_prob: 0.15,
            seed: case << 16,
        });
        let mut fast = answer_set(&q, &doc);
        fast.sort_unstable();
        assert_eq!(fast, answer_set_naive(&q, &doc, &Guard::unlimited()).unwrap(), "case {case}");
    }
}

/// Semantic check of CIM: identical answer sets on random documents.
#[test]
fn cim_preserves_answers_on_random_documents() {
    for case in 0..CASES {
        let q = pattern(case, 10, 3);
        let m = cim(&q);
        let doc = tpq::data::generate_document(&tpq::data::DocumentSpec {
            nodes: 40,
            num_types: 3,
            max_fanout: 4,
            extra_type_prob: 0.1,
            seed: case << 16,
        });
        assert!(tpq::matching::same_answers(&q, &m, &doc), "case {case}");
    }
}

/// Theorem 5.1: ACIM output is equivalent under the constraints and no
/// larger than the CIM output.
#[test]
fn acim_preserves_equivalence_under_ics() {
    acim_preserves_equivalence_under_ics_over(4);
}

/// ... and over 8 types, where fewer nodes share a type.
#[test]
fn acim_preserves_equivalence_under_ics_over_eight_types() {
    acim_preserves_equivalence_under_ics_over(8);
}

/// Patterns and constraints both over `num_types` types.
fn acim_preserves_equivalence_under_ics_over(num_types: usize) {
    for case in 0..CASES {
        let mut r = case_rng(7, case);
        let nodes = r.gen_range(1..12usize);
        let count = r.gen_range(0..8usize);
        let q = pattern(case, nodes, num_types);
        let ics = random_constraints(&ConstraintSpec { count, num_types, seed: case << 8 });
        let a = minimize_with(&q, &ics, Strategy::AcimOnly).pattern;
        let c = cim(&q);
        assert!(a.size() <= c.size(), "ACIM must subsume CIM (case {case})");
        assert!(equivalent_under(&q, &a, &ics, &Guard::unlimited()).unwrap(), "case {case}");
        a.validate().unwrap();
    }
}

/// Theorem 5.2: CDM output is equivalent and locally minimal.
#[test]
fn cdm_locally_minimal() {
    cdm_locally_minimal_over(4);
}

/// ... also with constraints over types the pattern mostly lacks.
#[test]
fn cdm_locally_minimal_under_sparse_constraints() {
    cdm_locally_minimal_over(8);
}

/// 12-node patterns over 4 types against constraints over `ic_types`.
fn cdm_locally_minimal_over(ic_types: usize) {
    for case in 0..CASES {
        let mut r = case_rng(8, case);
        let count = r.gen_range(0..8usize);
        let q = pattern(case, 12, 4);
        let ics =
            random_constraints(&ConstraintSpec { count, num_types: ic_types, seed: case << 8 });
        let m = cdm(&q, &ics);
        assert!(equivalent_under(&q, &m, &ics, &Guard::unlimited()).unwrap(), "case {case}");
        let closed = ics.closure();
        assert!(
            locally_redundant_leaves(&m, &closed).is_empty(),
            "locally redundant leaf survives CDM (case {case})"
        );
    }
}

/// CDM's one post-order sweep reaches its fixpoint: a second sweep over
/// its output, before compaction and after, removes nothing.
#[test]
fn cdm_second_sweep_removes_nothing() {
    let mut first = 0;
    for case in 0..CASES {
        let mut r = case_rng(9, case);
        let count = r.gen_range(4..20usize);
        let ic_types = r.gen_range(3..6usize);
        let mut q = pattern(case, r.gen_range(2..20), 4);
        let closed =
            random_constraints(&ConstraintSpec { count, num_types: ic_types, seed: case << 9 })
                .closure();
        let (mut stats, guard) = (MinimizeStats::default(), Guard::unlimited());
        first += cdm_in_place_guarded(&mut q, &closed, &mut stats, &guard).unwrap();
        let again = cdm_in_place_guarded(&mut q, &closed, &mut stats, &guard).unwrap();
        assert_eq!(again, 0, "case {case}: a second sweep removed {again} more");
        let (mut compacted, _) = q.compact();
        let again = cdm_in_place_guarded(&mut compacted, &closed, &mut stats, &guard).unwrap();
        assert_eq!(again, 0, "case {case}: a sweep over the compacted output removed {again}");
    }
    assert!(first >= CASES as usize, "only {first} removals: the battery stopped exercising CDM");
}

/// Theorem 5.3: CDM as a pre-filter does not change ACIM's result.
#[test]
fn cdm_prefilter_reaches_the_same_minimum() {
    cdm_prefilter_reaches_the_same_minimum_over(4);
}

/// ... also with constraints over types the pattern mostly lacks.
#[test]
fn cdm_prefilter_reaches_the_same_minimum_under_sparse_constraints() {
    cdm_prefilter_reaches_the_same_minimum_over(8);
}

/// 12-node patterns over 4 types against constraints over `ic_types`.
fn cdm_prefilter_reaches_the_same_minimum_over(ic_types: usize) {
    for case in 0..CASES {
        let mut r = case_rng(9, case);
        let count = r.gen_range(0..8usize);
        let q = pattern(case, 12, 4);
        let ics =
            random_constraints(&ConstraintSpec { count, num_types: ic_types, seed: case << 8 });
        let direct = minimize_with(&q, &ics, Strategy::AcimOnly).pattern;
        let combined = minimize_with(&q, &ics, Strategy::CdmThenAcim).pattern;
        assert!(
            isomorphic(&direct, &combined),
            "ACIM {} nodes vs CDM+ACIM {} nodes (case {case})",
            direct.size(),
            combined.size()
        );
    }
}

/// Semantic check of ACIM: answer sets agree on databases *repaired to
/// satisfy the constraints*.
#[test]
fn acim_preserves_answers_on_conforming_documents() {
    for case in 0..CASES {
        let q = pattern(case, 8, 4);
        let ics = random_constraints(&ConstraintSpec { count: 5, num_types: 4, seed: case << 8 });
        let m = minimize_with(&q, &ics, Strategy::CdmThenAcim).pattern;
        let raw = tpq::data::generate_document(&tpq::data::DocumentSpec {
            nodes: 20,
            num_types: 4,
            max_fanout: 3,
            extra_type_prob: 0.1,
            seed: case << 16,
        });
        let closed = ics.closure();
        if !closed.is_finitely_satisfiable() {
            continue;
        }
        let doc = tpq::constraints::repair(&raw, &closed).unwrap();
        assert!(
            tpq::matching::same_answers(&q, &m, &doc),
            "answers diverge on a conforming document (case {case})"
        );
    }
}

/// DSL printing round-trips through the parser up to isomorphism.
#[test]
fn dsl_round_trip() {
    for case in 0..CASES {
        let mut r = case_rng(10, case);
        let q = pattern(case, r.gen_range(1..15usize), 4);
        let mut tys = tpq::base::TypeInterner::new();
        tpq_workload::random::universe(&mut tys, 4);
        let printed = tpq::pattern::print::to_dsl(&q, &tys);
        let back = tpq::pattern::parse_pattern(&printed, &mut tys).unwrap();
        assert!(isomorphic(&q, &back), "{printed}");
    }
}

/// Compaction preserves the canonical key.
#[test]
fn compaction_preserves_canonical_form() {
    for case in 0..CASES {
        let mut r = case_rng(11, case);
        let mut q = pattern(case, r.gen_range(2..12usize), 3);
        if let Some(l) = q.leaves().into_iter().find(|&l| l != q.output() && l != q.root()) {
            q.remove_leaf(l).unwrap();
        }
        let (compacted, _) = q.compact();
        assert_eq!(q.canonical_key(), compacted.canonical_key(), "case {case}");
        compacted.validate().unwrap();
    }
}

/// Closure is idempotent and finitely satisfiable for generated sets.
#[test]
fn closure_idempotent() {
    for case in 0..CASES {
        let mut r = case_rng(12, case);
        let count = r.gen_range(0..12usize);
        let ics = random_constraints(&ConstraintSpec { count, num_types: 6, seed: case });
        let closed = ics.closure();
        assert!(closed.is_closed(), "case {case}");
        assert!(closed.is_finitely_satisfiable(), "case {case}");
        assert!(closed.len() >= ics.len(), "case {case}");
    }
}

/// Parsers reject or accept arbitrary input without panicking.
#[test]
fn parsers_never_panic() {
    // A character pool biased toward DSL/XML syntax so random strings
    // reach deep parser states, plus some unicode.
    const POOL: &[char] = &[
        'a', 'b', 'Z', '0', '9', '/', '[', ']', '{', '}', '*', '<', '>', '=', '"', '\'', ',', '.',
        '-', '~', ' ', '\t', '\n', '(', ')', '&', ';', '!', 'é', '∀', '§',
    ];
    for case in 0..400u64 {
        let mut r = case_rng(13, case);
        let len = r.gen_range(0..60usize);
        let input: String = (0..len).map(|_| *r.choose(POOL).expect("non-empty pool")).collect();
        let mut tys = tpq::base::TypeInterner::new();
        let _ = tpq::pattern::parse_pattern(&input, &mut tys);
        let _ = tpq::pattern::parse_xpath(&input, &mut tys);
        let _ = tpq::data::parse_xml(&input, &mut tys);
        let _ = tpq::constraints::parse_constraints(&input, &mut tys);
        let _ = tpq::constraints::Schema::parse(&input, &mut tys);
    }
}

/// Near-miss mutations of valid pattern text parse or fail cleanly, and
/// whatever parses round-trips.
#[test]
fn mutated_dsl_never_panics() {
    let base = r#"Articles/Article*{price<100,lang="en"}[/Title][//Para]//Section"#;
    for case in 0..200u64 {
        let mut r = case_rng(14, case);
        let cut = r.gen_range(0..40usize);
        let mut text: Vec<char> = base.chars().collect();
        let pos = (case as usize) % text.len();
        match case % 4 {
            0 => {
                text.remove(pos);
            }
            1 => text.insert(pos, '['),
            2 => text.insert(pos, '}'),
            _ => text.truncate(cut.min(text.len())),
        }
        let s: String = text.into_iter().collect();
        let mut tys = tpq::base::TypeInterner::new();
        if let Ok(q) = tpq::pattern::parse_pattern(&s, &mut tys) {
            q.validate().unwrap();
            let printed = tpq::pattern::print::to_dsl(&q, &tys);
            let back = tpq::pattern::parse_pattern(&printed, &mut tys).unwrap();
            assert!(isomorphic(&q, &back), "{printed}");
        }
    }
}

/// Repair always yields a satisfying document.
#[test]
fn repair_satisfies() {
    for case in 0..CASES {
        let ics = random_constraints(&ConstraintSpec { count: 6, num_types: 5, seed: case });
        let closed = ics.closure();
        if !closed.is_finitely_satisfiable() {
            continue;
        }
        let raw = tpq::data::generate_document(&tpq::data::DocumentSpec {
            nodes: 15,
            num_types: 5,
            max_fanout: 3,
            extra_type_prob: 0.2,
            seed: case << 16,
        });
        let fixed = tpq::constraints::repair(&raw, &closed).unwrap();
        assert!(tpq::constraints::satisfies(&fixed, &closed), "case {case}");
        fixed.validate().unwrap();
    }
}

/// The XML round trip and repair both yield pre-ordered documents (each id
/// is the node's document-order rank), also from a document grown out of
/// document order. Repair keeps every input node's types, attributes and
/// children, in order and ahead of the children it appends.
#[test]
fn round_trip_and_repair_yield_pre_ordered_documents() {
    use tpq::base::{TypeId, TypeInterner, Value};
    use tpq::data::{DataNodeId, Document};
    let mut pre_ordered_inputs = 0;
    for case in 0..CASES {
        let mut r = case_rng(13, case);
        // Each node attaches under a random earlier one.
        let mut raw = Document::new(TypeId(r.gen_range(0..5u32)));
        for i in 1..r.gen_range(1..80u32) {
            let u = raw.add_child(DataNodeId(r.gen_range(0..i)), TypeId(r.gen_range(0..5u32)));
            if r.gen_bool(0.3) {
                raw.add_type(u, TypeId(r.gen_range(0..5u32)));
            }
        }
        let mut tys = TypeInterner::new();
        for i in 0..5 {
            tys.intern(&format!("t{i}"));
        }
        let attr = tys.intern("v");
        for u in raw.ids().collect::<Vec<_>>() {
            if r.gen_bool(0.3) {
                raw.set_attr(u, attr, Value::Int(r.gen_range(0..9u32) as i64));
            }
        }
        pre_ordered_inputs += usize::from(raw.is_pre_order());
        let xml = tpq::data::write_xml(&raw, &tys);
        let parsed = tpq::data::parse_xml(&xml, &mut tys).unwrap();
        assert!(parsed.is_pre_order(), "case {case}: parsed document out of order");
        assert_eq!(parsed, raw.to_pre_order().0, "case {case}: round trip changed the tree");

        let ics = random_constraints(&ConstraintSpec { count: 6, num_types: 5, seed: case });
        let closed = ics.closure();
        if !closed.is_finitely_satisfiable() {
            continue;
        }
        let fixed = tpq::constraints::repair(&parsed, &closed).unwrap();
        assert!(fixed.is_pre_order(), "case {case}: repaired document out of order");
        fixed.validate().unwrap();
        assert!(tpq::constraints::satisfies(&fixed, &closed), "case {case}");
        assert_eq!(fixed, tpq::constraints::repair(&raw, &closed).unwrap(), "case {case}");
        // Walk input and output together: each input node's children are
        // the first children of its image.
        let mut todo: Vec<(DataNodeId, DataNodeId)> = vec![(parsed.root(), fixed.root())];
        while let Some((x, y)) = todo.pop() {
            let have = fixed.types(y);
            assert!(
                parsed.types(x).iter().all(|t| have.contains(t)),
                "case {case}: {x} lost a type"
            );
            assert_eq!(parsed.primary(x), fixed.primary(y), "case {case}: {x}");
            assert_eq!(parsed.attrs(x), fixed.attrs(y), "case {case}: {x} attributes");
            let kids: Vec<_> = parsed.children(x).collect();
            let images: Vec<_> = fixed.children(y).take(kids.len()).collect();
            assert_eq!(images.len(), kids.len(), "case {case}: {x} lost a child");
            todo.extend(kids.into_iter().zip(images));
        }
    }
    assert!(pre_ordered_inputs < CASES as usize / 2, "most inputs should be out of order");
}

/// ... and on augmented arenas that span several 64-bit words, where the
/// engine's bitset rows cross word boundaries: 24–40-node patterns under
/// dense constraint sets grow to 65–250 arena nodes.
#[test]
fn incremental_acim_matches_rebuilding_on_multiword_arenas() {
    let (mut arenas, mut removed) = (Vec::new(), 0);
    for case in 0..CASES {
        let mut r = case_rng(12, case);
        let nodes = r.gen_range(24..41usize);
        let q = pattern(case, nodes, 8);
        let count = r.gen_range(24..60usize);
        let ics = random_constraints(&ConstraintSpec { count, num_types: 8, seed: case << 8 });
        let closed = ics.closure();
        let inc = engine_acim(&q, &closed);
        let (reb, reb_removed) = rebuilding_acim(&q, &closed);
        assert!(
            isomorphic(&inc.pattern, &reb),
            "incremental {} vs rebuilding {} (case {case})",
            inc.pattern.size(),
            reb.size()
        );
        assert_eq!(inc.stats.cim_removed, reb_removed, "case {case}");
        arenas.push(q.arena_len() + inc.stats.augment_nodes_added);
        removed += inc.stats.cim_removed;
    }
    let (min, max) = (arenas.iter().min().unwrap(), arenas.iter().max().unwrap());
    assert!(*min > 64 && *max > 128, "arenas span {min}..={max} nodes: fewer than 2–3 words");
    assert!(removed > 0, "no case removed a node");
}
