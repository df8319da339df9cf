//! Heap allocations per parse and per minimization, counted by a global
//! allocator of this test binary, on a batch shaped like a cold
//! `tpq minimize --batch` log: random 24-node queries over ten types,
//! minimized under one random 16-constraint schema.
//!
//! A pattern node owns no heap memory while its type set fits inline, and
//! the minimization stages keep their working lists in per-thread scratch,
//! so the counts stay small and flat. The test prints each stage's count
//! (run with `--nocapture` to see them) and bounds the totals.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tpq::base::{Guard, TypeInterner};
use tpq::core::chase::present_types;
use tpq::core::{
    augment_guarded, cdm_in_place_guarded, minimize_closed_guarded, CimEngine, MinimizeStats,
    Strategy,
};
use tpq::pattern::parse_pattern;
use tpq::pattern::print::to_dsl;
use tpq_workload::random::universe;
use tpq_workload::{random_constraints, random_pattern, ConstraintSpec, PatternSpec};

/// Counts the allocations (and reallocations) made on the current thread,
/// so the test harness's own threads do not disturb the figures.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; counting touches only a
// thread-local `Cell` that needs no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f`, adding the allocations it made to `total`.
fn counted<T>(total: &mut u64, f: impl FnOnce() -> T) -> T {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    *total += ALLOCATIONS.with(Cell::get) - before;
    out
}

/// Types in the schema and the queries.
const TYPES: usize = 10;
/// Queries in the batch.
const QUERIES: u64 = 300;
/// The most allocations one minimization may make on average.
const MAX_PER_MINIMIZE: u64 = 100;
/// The most allocations one parse may make on average.
const MAX_PER_PARSE: u64 = 30;

#[test]
fn batch_cold_minimization_stays_nearly_allocation_free() {
    let mut types = TypeInterner::new();
    universe(&mut types, TYPES);
    let schema = random_constraints(&ConstraintSpec { count: 16, num_types: TYPES, seed: 1 });
    let closed = schema.closure();
    let texts: Vec<String> = (0..QUERIES)
        .map(|seed| {
            let q = random_pattern(&PatternSpec {
                nodes: 24,
                num_types: TYPES,
                d_edge_prob: 0.5,
                max_fanout: 3,
                seed,
            });
            to_dsl(&q, &types)
        })
        .collect();

    let guard = Guard::unlimited();
    let mut parse = 0;
    let mut whole = 0;
    // clone + CDM, compaction, chase, tables, MEO, strip + compaction.
    let mut stages = [0u64; 6];
    for text in &texts {
        let q = counted(&mut parse, || parse_pattern(text, &mut types).unwrap());
        let want = counted(&mut whole, || {
            minimize_closed_guarded(&q, &closed, Strategy::CdmThenAcim, &guard).unwrap()
        });

        let mut stats = MinimizeStats::default();
        let work = counted(&mut stages[0], || {
            let mut work = q.clone();
            cdm_in_place_guarded(&mut work, &closed, &mut stats, &guard).unwrap();
            work
        });
        let mut work = counted(&mut stages[1], || work.compact().0);
        counted(&mut stages[2], || {
            let allowed = present_types(&work);
            augment_guarded(&mut work, &closed, &allowed, &mut stats, &guard).unwrap();
        });
        let mut engine =
            counted(&mut stages[3], || CimEngine::new_guarded(work, &mut stats, &guard).unwrap());
        counted(&mut stages[4], || engine.run_guarded(&mut stats, &guard).unwrap());
        let done = counted(&mut stages[5], || {
            let mut done = engine.into_pattern();
            done.strip_temporaries();
            done.compact().0
        });
        assert!(tpq::pattern::isomorphic(&done, &want.pattern), "staged replay differs: {text}");
    }

    let per = |n: u64| n as f64 / QUERIES as f64;
    println!("allocations per parse: {:.1}", per(parse));
    println!("allocations per minimization: {:.1}", per(whole));
    let names = ["clone+cdm", "compact", "chase", "tables", "meo", "strip+compact"];
    for (name, n) in names.iter().zip(stages) {
        println!("  {name:<14} {:.1}", per(n));
    }
    assert!(
        whole <= MAX_PER_MINIMIZE * QUERIES,
        "{:.1} allocations per minimization (at most {MAX_PER_MINIMIZE})",
        per(whole)
    );
    assert!(
        parse <= MAX_PER_PARSE * QUERIES,
        "{:.1} allocations per parse (at most {MAX_PER_PARSE})",
        per(parse)
    );
}
