//! Differential and determinism tests for the parallel batch engine:
//! `BatchMinimizer` must agree with sequential `minimize_closed_guarded`
//! calls on every query (up to isomorphism — minimal queries are unique only up to
//! isomorphism, Theorem 5.1), for every strategy and every worker count,
//! and its output must not depend on the worker count at all.

use tpq::core::{minimize_closed_guarded, BatchMinimizer, Strategy};
use tpq::prelude::*;
use tpq_workload::{random_constraints, random_pattern, ConstraintSpec, PatternSpec};

const STRATEGIES: [Strategy; 4] =
    [Strategy::CimOnly, Strategy::AcimOnly, Strategy::CdmOnly, Strategy::CdmThenAcim];

/// A mixed workload over one small type universe: random shapes plus
/// hand-picked paper patterns, with deliberate duplicates and
/// sibling-permuted isomorphic copies to exercise the memo cache.
fn workload() -> (Vec<TreePattern>, ConstraintSet) {
    let num_types = 6;
    let mut queries: Vec<TreePattern> = (0..24)
        .map(|seed| {
            random_pattern(&PatternSpec {
                nodes: 6 + (seed as usize % 7),
                num_types,
                d_edge_prob: 0.4,
                max_fanout: 3,
                seed,
            })
        })
        .collect();
    let mut tys = TypeInterner::new();
    for i in 0..num_types {
        tys.intern(&format!("t{i}"));
    }
    for src in [
        "t0*[/t1][/t2]",
        "t0*[/t2][/t1]", // isomorphic to the previous line
        "t0*[//t1//t2]//t1//t2",
        "t1*[/t2][/t2/t3]",
        "t0*",
    ] {
        queries.push(parse_pattern(src, &mut tys).expect("workload pattern"));
    }
    let dup = queries[3].clone();
    queries.push(dup); // exact duplicate
    let ics = random_constraints(&ConstraintSpec { count: 5, num_types, seed: 7 });
    (queries, ics)
}

#[test]
fn batch_agrees_with_sequential_for_every_strategy_and_job_count() {
    let (queries, ics) = workload();
    let closed = ics.closure();
    for strategy in STRATEGIES {
        let expected: Vec<TreePattern> = queries
            .iter()
            .map(|q| minimize_closed_guarded(q, &closed, strategy, &Guard::unlimited()).unwrap())
            .map(|out| out.pattern)
            .collect();
        for jobs in 1..=8 {
            let engine = BatchMinimizer::with_strategy(&ics, strategy);
            let out = engine.minimize_batch(&queries, jobs);
            assert_eq!(out.patterns.len(), queries.len(), "{strategy:?} jobs={jobs}");
            for (i, (got, want)) in out.patterns.iter().zip(&expected).enumerate() {
                assert!(
                    isomorphic(got, want),
                    "{strategy:?} jobs={jobs} query {i}: batch size {} vs sequential size {}",
                    got.size(),
                    want.size()
                );
            }
        }
    }
}

#[test]
fn output_is_deterministic_across_job_counts() {
    let (queries, ics) = workload();
    let baseline = BatchMinimizer::new(&ics).minimize_batch(&queries, 1);
    for jobs in 2..=8 {
        let out = BatchMinimizer::new(&ics).minimize_batch(&queries, jobs);
        // Same input order ⇒ byte-identical output in the same order,
        // regardless of how many threads did the work.
        assert_eq!(out.patterns, baseline.patterns, "jobs={jobs}");
    }
}

#[test]
fn warm_cache_preserves_results_and_order() {
    let (queries, ics) = workload();
    let engine = BatchMinimizer::new(&ics);
    let cold = engine.minimize_batch(&queries, 4);
    assert!(cold.stats.cache_hits >= 2, "duplicates in the workload must fold");
    let warm = engine.minimize_batch(&queries, 4);
    assert_eq!(warm.stats.cache_misses, 0);
    assert_eq!(warm.patterns, cold.patterns);
}

#[test]
fn batch_results_stay_equivalent_to_inputs() {
    let (queries, ics) = workload();
    let engine = BatchMinimizer::new(&ics);
    let out = engine.minimize_batch(&queries, 4);
    for (q, m) in queries.iter().zip(&out.patterns) {
        assert!(
            equivalent_under(q, m, engine.constraints(), &Guard::unlimited()).unwrap(),
            "minimization changed semantics"
        );
        assert!(m.size() <= q.size());
    }
}
