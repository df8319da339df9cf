//! Robustness battery: resource governance, panic isolation and
//! deterministic fault injection, driven through the public API.
//!
//! Three families of guarantees are checked here (see
//! `docs/ROBUSTNESS.md`):
//!
//! * **Guards** — every minimization strategy honors a deadline, a step
//!   budget and cooperative cancellation, failing with `Error::Budget`
//!   instead of hanging, and never publishing a non-equivalent result;
//! * **Isolation** — a panicking or fault-injected task inside the batch
//!   engine lands in its own result slot; the process, the pool and the
//!   sibling tasks survive;
//! * **Failpoints** — the `tpq_base::failpoint` hooks (`chase.step`,
//!   `match.build`, `pool.task`, `parse.*`) fire deterministically and
//!   surface through the layers above them as typed errors.

use tpq::base::failpoint::{self, Action};
use tpq::base::BudgetResource;
use tpq::core::{minimize_closed_guarded, BatchMinimizer, Strategy};
use tpq::matching::Matcher;
use tpq::prelude::*;
use tpq_workload::{random_constraints, random_pattern, ConstraintSpec, PatternSpec};

const STRATEGIES: [Strategy; 4] =
    [Strategy::CimOnly, Strategy::AcimOnly, Strategy::CdmOnly, Strategy::CdmThenAcim];

/// A pattern big enough that every strategy must spend real work on it.
fn big_pattern(seed: u64) -> TreePattern {
    random_pattern(&PatternSpec { nodes: 60, num_types: 5, d_edge_prob: 0.4, max_fanout: 3, seed })
}

fn some_constraints() -> ConstraintSet {
    random_constraints(&ConstraintSpec { count: 5, num_types: 5, seed: 3 })
}

// ---------------------------------------------------------------- guards

#[test]
fn every_strategy_honors_an_expired_deadline() {
    let q = big_pattern(1);
    let closed = some_constraints().closure();
    let guard = Guard::with_deadline_ms(0);
    std::thread::sleep(std::time::Duration::from_millis(2));
    for strategy in STRATEGIES {
        let err = minimize_closed_guarded(&q, &closed, strategy, &guard).unwrap_err();
        assert!(
            matches!(err, Error::Budget { resource: BudgetResource::Deadline, .. }),
            "{strategy:?}: {err}"
        );
    }
}

#[test]
fn pathological_pattern_trips_a_short_deadline_instead_of_hanging() {
    // Acceptance check: a heavy input under a 1 ms deadline must come
    // back quickly with a Budget error, not hang. A 900-node pattern
    // forces quadratic table builds well past the deadline.
    let q = random_pattern(&PatternSpec {
        nodes: 900,
        num_types: 4,
        d_edge_prob: 0.5,
        max_fanout: 3,
        seed: 11,
    });
    let closed = some_constraints().closure();
    let t0 = std::time::Instant::now();
    let err =
        minimize_closed_guarded(&q, &closed, Strategy::default(), &Guard::with_deadline_ms(1))
            .unwrap_err();
    assert!(err.is_budget(), "{err}");
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(10),
        "deadline must abort promptly, took {:?}",
        t0.elapsed()
    );
}

#[test]
fn every_strategy_honors_a_step_budget() {
    let q = big_pattern(2);
    let closed = some_constraints().closure();
    for strategy in STRATEGIES {
        // Unlimited succeeds; a 5-step allowance cannot. Both are fresh
        // runs: a memoizing engine would answer the second from its memo
        // and hide the trip.
        assert!(
            minimize_closed_guarded(&q, &closed, strategy, &Guard::unlimited()).is_ok(),
            "{strategy:?}"
        );
        let err =
            minimize_closed_guarded(&q, &closed, strategy, &Guard::with_budget(5)).unwrap_err();
        assert!(
            matches!(err, Error::Budget { resource: BudgetResource::Steps, .. }),
            "{strategy:?}: {err}"
        );
    }
}

#[test]
fn cancellation_from_another_thread_interrupts_minimization() {
    let closed = some_constraints().closure();
    let guard = Guard::cancellable();
    let worker = {
        let guard = guard.clone();
        std::thread::spawn(move || {
            // Keep minimizing fresh patterns until the guard kills one.
            let mut seed = 100;
            loop {
                seed += 1;
                if let Err(e) = minimize_closed_guarded(
                    &big_pattern(seed),
                    &closed,
                    Strategy::default(),
                    &guard,
                ) {
                    return e;
                }
            }
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(10));
    guard.cancel();
    let err = worker.join().expect("worker must return an error, not die");
    assert!(matches!(err, Error::Budget { resource: BudgetResource::Cancelled, .. }), "{err}");
}

/// Cancel-safety property: an interrupted minimization either returns a
/// Budget error (input untouched) or, when the budget happened to
/// suffice, a pattern equivalent to the input. It never returns a
/// non-equivalent pattern, for any strategy and any interruption point.
#[test]
fn interrupted_minimization_is_never_wrong() {
    let closed = some_constraints().closure();
    for seed in 0..6u64 {
        let q = random_pattern(&PatternSpec {
            nodes: 12,
            num_types: 5,
            d_edge_prob: 0.4,
            max_fanout: 3,
            seed,
        });
        for strategy in STRATEGIES {
            // Sweep budgets from "trips immediately" to "never trips",
            // interrupting the pipeline at many different points.
            for budget in [1u64, 3, 10, 30, 100, 300, 1000, 10_000, 1_000_000] {
                let before = q.clone();
                match minimize_closed_guarded(&q, &closed, strategy, &Guard::with_budget(budget)) {
                    Err(e) => assert!(e.is_budget(), "{strategy:?} budget={budget}: {e}"),
                    Ok(out) => {
                        assert!(
                            equivalent_under(&q, &out.pattern, &closed, &Guard::unlimited())
                                .unwrap(),
                            "{strategy:?} budget={budget}: non-equivalent result"
                        );
                    }
                }
                assert_eq!(q, before, "{strategy:?} budget={budget}: input mutated");
            }
        }
    }
}

#[test]
fn guarded_matchers_honor_budgets() {
    let mut tys = TypeInterner::new();
    let doc = tpq::data::generate_document(&tpq::data::DocumentSpec {
        nodes: 200,
        num_types: 4,
        max_fanout: 4,
        extra_type_prob: 0.2,
        seed: 5,
    });
    for i in 0..4 {
        tys.intern(&format!("t{i}"));
    }
    let q = parse_pattern("t0*[//t1][//t2]//t3", &mut tys).unwrap();
    // The production matcher and the naive cross-validator both trip.
    let err = Matcher::new(&q, &doc, &Guard::with_budget(3)).err().expect("must trip");
    assert!(err.is_budget(), "{err}");
    let err = tpq::matching::answer_set_naive(&q, &doc, &Guard::with_budget(3)).unwrap_err();
    assert!(err.is_budget(), "{err}");
    // Unlimited guards agree with the infallible entry points.
    let fast = Matcher::new(&q, &doc, &Guard::unlimited()).unwrap().answers();
    let mut plain = answer_set(&q, &doc);
    plain.sort_unstable();
    let mut fast = fast;
    fast.sort_unstable();
    assert_eq!(fast, plain);
}

// ------------------------------------------------------------- failpoints

#[test]
fn chase_failpoint_surfaces_as_an_injected_error() {
    let _fp = failpoint::arm_for_thread("chase.step", Action::Err, 1);
    let mut tys = TypeInterner::new();
    let closed = parse_constraints("a -> b", &mut tys).unwrap().closure();
    let q = parse_pattern("a*[/b][/c]", &mut tys).unwrap();
    let err =
        minimize_closed_guarded(&q, &closed, Strategy::default(), &Guard::unlimited()).unwrap_err();
    assert_eq!(err, Error::Injected { point: "chase.step".into() });
    // One-shot: the very next run is clean.
    assert!(minimize_closed_guarded(&q, &closed, Strategy::default(), &Guard::unlimited()).is_ok());
}

#[test]
fn mid_chase_panic_inside_the_batch_is_isolated() {
    // Panic on the 3rd chase step: the chase is mid-flight when the fault
    // fires, and the pool shield must contain it to one slot.
    let _fp = failpoint::arm_for_thread("chase.step", Action::Panic, 3);
    let mut tys = TypeInterner::new();
    let ics = parse_constraints("a -> b\nb -> c", &mut tys).unwrap();
    let engine = BatchMinimizer::new(&ics);
    let queries = vec![
        parse_pattern("a*[/b][/d]", &mut tys).unwrap(),
        parse_pattern("x*[/y]", &mut tys).unwrap(),
    ];
    // jobs=1 keeps every task on this thread, where the failpoint is armed.
    let out = engine.minimize_batch_guarded(&queries, 1, &Guard::unlimited());
    let errors: Vec<usize> = (0..queries.len()).filter(|&i| out.results[i].is_err()).collect();
    assert_eq!(errors.len(), 1, "exactly one slot fails: {:?}", out.results);
    let failed = errors[0];
    match &out.results[failed] {
        Err(Error::WorkerPanic { message }) => {
            assert!(message.contains("chase.step"), "{message}")
        }
        other => panic!("expected a captured panic, got {other:?}"),
    }
    assert_eq!(out.stats.panics, 1);
    // The engine still works afterwards.
    assert!(engine.minimize_cached_guarded(&queries[failed], &Guard::unlimited()).is_ok());
}

#[test]
fn matcher_build_failpoint_fires() {
    let _fp = failpoint::arm_for_thread("match.build", Action::Err, 1);
    let mut tys = TypeInterner::new();
    let doc = parse_xml("<a><b/></a>", &mut tys).unwrap();
    let q = parse_pattern("a*/b", &mut tys).unwrap();
    let err = Matcher::new(&q, &doc, &Guard::unlimited()).err().expect("must fire");
    assert_eq!(err, Error::Injected { point: "match.build".into() });
    assert!(Matcher::new(&q, &doc, &Guard::unlimited()).is_ok(), "one-shot");
}

#[test]
fn injected_worker_panic_never_aborts_the_process() {
    // Acceptance check, through the facade: a panic injected into a pool
    // worker becomes an error entry; the other tasks and the process
    // survive, on every jobs setting that stays on this thread.
    let mut tys = TypeInterner::new();
    let ics = parse_constraints("a -> b", &mut tys).unwrap();
    let queries: Vec<TreePattern> = ["a*[/b]", "b*[/c]", "c*[/d]", "d*[/e]"]
        .iter()
        .map(|s| parse_pattern(s, &mut tys).unwrap())
        .collect();
    let engine = BatchMinimizer::new(&ics);
    let _fp = failpoint::arm_for_thread("pool.task", Action::Panic, 2);
    let out = engine.minimize_batch_guarded(&queries, 1, &Guard::unlimited());
    assert_eq!(out.stats.failed, 1);
    assert_eq!(out.stats.panics, 1);
    assert!(out.results[0].is_ok());
    assert!(matches!(out.results[1], Err(Error::WorkerPanic { .. })));
    assert!(out.results[2].is_ok());
    assert!(out.results[3].is_ok());
}

// --------------------------------------------------------------- batching

#[test]
fn batch_under_budget_pressure_completes_cached_work() {
    let mut tys = TypeInterner::new();
    let ics = parse_constraints("a -> b", &mut tys).unwrap();
    let engine = BatchMinimizer::new(&ics);
    let warm = parse_pattern("a*[/b][/c]", &mut tys).unwrap();
    let cold = parse_pattern("d*[/e][/f]", &mut tys).unwrap();
    let warmed = engine.minimize_cached_guarded(&warm, &Guard::unlimited()).unwrap().pattern;
    let guard = Guard::cancellable();
    guard.cancel();
    let out = engine.minimize_batch_guarded(&[warm, cold], 2, &guard);
    assert_eq!(out.results[0].as_ref().unwrap(), &warmed, "cache hit survives");
    assert!(out.results[1].as_ref().unwrap_err().is_budget(), "cold query trips");
}
