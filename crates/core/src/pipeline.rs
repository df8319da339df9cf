//! The end-to-end minimization pipeline (Theorem 5.3): CDM as a fast
//! pre-filter, then ACIM for global minimality.
//!
//! [`minimize_closed_guarded`] is the one entry point every strategy runs
//! through; the one-shots ([`minimize`], [`minimize_with`] and the
//! paper-named [`crate::cim()`], [`crate::acim()`], [`crate::cdm()`]) and
//! the batch engine ([`crate::batch::BatchMinimizer`]) call it. Query
//! optimizers that minimize many patterns against one schema close the
//! constraint set once ([`ConstraintSet::closure`]) and pass it to every
//! call, or use a `BatchMinimizer`, which also memoizes results.

use crate::cdm::cdm_in_place_guarded;
use crate::chase::{augment_guarded, present_types};
use crate::incremental::CimEngine;
use crate::stats::MinimizeStats;
use std::time::Instant;
use tpq_base::{BudgetResource, Error, Guard, Result};
use tpq_constraints::ConstraintSet;
use tpq_pattern::{isomorphic, TreePattern};

/// Which algorithm(s) [`minimize_with`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Constraint-independent minimization only (ignores the constraints).
    CimOnly,
    /// ACIM alone (globally minimal, slower on large queries).
    AcimOnly,
    /// CDM alone (locally minimal, fastest; may not be globally minimal).
    CdmOnly,
    /// CDM pre-filter, then ACIM — globally minimal and the fastest way to
    /// get there (Section 6.4, Figure 9(b)).
    #[default]
    CdmThenAcim,
}

impl std::str::FromStr for Strategy {
    type Err = String;

    /// Parse the CLI / serve-protocol spelling of a strategy: `full`
    /// (or the empty string) for the default pipeline, `cim`, `acim`,
    /// `cdm` for the individual algorithms.
    fn from_str(s: &str) -> std::result::Result<Strategy, String> {
        match s {
            "" | "full" => Ok(Strategy::CdmThenAcim),
            "cim" => Ok(Strategy::CimOnly),
            "acim" => Ok(Strategy::AcimOnly),
            "cdm" => Ok(Strategy::CdmOnly),
            other => Err(format!("unknown strategy '{other}' (expected full, cim, acim or cdm)")),
        }
    }
}

/// Result of a minimization run.
#[derive(Debug, Clone)]
pub struct MinimizeOutcome {
    /// The minimized (compacted) query.
    pub pattern: TreePattern,
    /// Per-phase measurements.
    pub stats: MinimizeStats,
}

/// Minimize `q` under `ics` with the default strategy
/// ([`Strategy::CdmThenAcim`]). Pass an empty set for pure
/// constraint-independent minimization.
///
/// ```
/// use tpq_base::TypeInterner;
/// use tpq_constraints::parse_constraints;
/// use tpq_core::minimize;
/// use tpq_pattern::parse_pattern;
///
/// let mut tys = TypeInterner::new();
/// let q = parse_pattern("Book*[/Title][/Publisher]", &mut tys).unwrap();
/// let ics = parse_constraints("Book -> Publisher", &mut tys).unwrap();
/// let out = minimize(&q, &ics);
/// assert_eq!(out.pattern.size(), 2); // the implied /Publisher branch folds
/// assert_eq!(out.stats.total_removed(), 1);
/// ```
pub fn minimize(q: &TreePattern, ics: &ConstraintSet) -> MinimizeOutcome {
    minimize_with(q, ics, Strategy::default())
}

/// Minimize `q` under `ics` with an explicit [`Strategy`].
///
/// One-shot convenience over [`minimize_closed_guarded`]. Repeated calls
/// against the same constraint set do **not** recompute the quadratic
/// closure: it is taken from the process-wide engine table of
/// [`crate::shared_engine`] (the `engine.cache.hit` / `engine.recomputed`
/// counters report its behavior). The engine's memo is not consulted, so
/// every call runs the full pipeline and returns its stats. For heavy
/// many-query workloads, close the set once and call
/// [`minimize_closed_guarded`], or use a [`crate::batch::BatchMinimizer`];
/// both also skip the set-equality probe.
pub fn minimize_with(q: &TreePattern, ics: &ConstraintSet, strategy: Strategy) -> MinimizeOutcome {
    let engine = crate::batch::shared_engine(ics, strategy);
    minimize_unlimited(q, engine.constraints(), strategy)
}

/// [`minimize_closed_guarded`] without limits, for the infallible
/// one-shots.
pub(crate) fn minimize_unlimited(
    q: &TreePattern,
    closed: &ConstraintSet,
    strategy: Strategy,
) -> MinimizeOutcome {
    minimize_closed_guarded(q, closed, strategy, &Guard::unlimited())
        .expect("unlimited guard cannot trip and no failpoint is armed")
}

/// Minimize `q` under an **already closed** constraint set with the given
/// strategy — the closure is never recomputed here, so pass only sets
/// produced by [`ConstraintSet::closure`] (an unclosed set silently
/// under-minimizes).
///
/// The guard is threaded through every stage (CDM sweeps, chase steps,
/// table builds, redundancy tests). On a tripped guard the input is
/// untouched — every stage works on an internal clone — and the error
/// reports which resource ran out. Budget trips also bump the
/// `guard.timeout` / `guard.budget` / `guard.cancel` observability
/// counters. [`Strategy::CimOnly`] ignores `closed`: CIM is ACIM under the
/// empty constraint set, so it runs the same engine without the chase.
pub fn minimize_closed_guarded(
    q: &TreePattern,
    closed: &ConstraintSet,
    strategy: Strategy,
    guard: &Guard,
) -> Result<MinimizeOutcome> {
    let _span = tpq_obs::span!("minimize");
    let mut stats = MinimizeStats::default();
    let t0 = Instant::now();
    let pattern = run_stages(q, closed, strategy, &mut stats, guard)
        .inspect_err(note_budget_trip)?
        .compact()
        .0;
    stats.total_time = t0.elapsed();
    Ok(MinimizeOutcome { pattern, stats })
}

/// Run `strategy`'s stages on a clone of `q`: CDM, then augmentation
/// (not for CIM), the engine's MEO loop and stripping. The result stays
/// uncompacted, so the decision events' node ids are ids of `q`'s arena;
/// [`minimize_closed_guarded`] and [`crate::explain()`] compact it once.
pub(crate) fn run_stages(
    q: &TreePattern,
    closed: &ConstraintSet,
    strategy: Strategy,
    stats: &mut MinimizeStats,
    guard: &Guard,
) -> Result<TreePattern> {
    let mut work = q.clone();
    if matches!(strategy, Strategy::CdmOnly | Strategy::CdmThenAcim) {
        cdm_in_place_guarded(&mut work, closed, stats, guard)?;
    }
    if strategy == Strategy::CdmOnly {
        return Ok(work);
    }
    let _span = tpq_obs::span!("acim");
    if strategy != Strategy::CimOnly {
        let allowed = present_types(&work);
        augment_guarded(&mut work, closed, &allowed, stats, guard)?;
    }
    let mut engine = CimEngine::new_guarded(work, stats, guard)?;
    engine.run_guarded(stats, guard)?;
    let mut out = engine.into_pattern();
    out.strip_temporaries();
    Ok(out)
}

/// Record a budget trip on the observability counters (the base crate
/// cannot depend on `tpq-obs`, so the counters are bumped where the
/// errors surface).
pub(crate) fn note_budget_trip(e: &Error) {
    if let Error::Budget { resource, .. } = e {
        let name = match resource {
            BudgetResource::Deadline => "guard.timeout",
            BudgetResource::Steps => "guard.budget",
            BudgetResource::Cancelled => "guard.cancel",
        };
        tpq_obs::incr(name, 1);
    }
}

/// Is `q` minimal in the absence of constraints? (Theorem 4.1.)
pub fn is_minimal(q: &TreePattern) -> bool {
    let m = crate::incremental::cim(q);
    m.size() == q.size() && isomorphic(&m, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::equivalent_under;
    use tpq_base::TypeInterner;
    use tpq_constraints::parse_constraints;
    use tpq_pattern::{isomorphic, parse_pattern};

    fn setup(q: &str, ics: &str) -> (TreePattern, ConstraintSet, TypeInterner) {
        let mut tys = TypeInterner::new();
        let pat = parse_pattern(q, &mut tys).unwrap();
        let set = parse_constraints(ics, &mut tys).unwrap();
        (pat, set, tys)
    }

    #[test]
    fn cdm_then_acim_equals_acim_alone() {
        // Theorem 5.3: the pre-filter does not change the outcome.
        let cases = [
            (
                "Articles[/Article//Paragraph]/Article*[/Title]//Section//Paragraph",
                "Article -> Title\nSection ->> Paragraph",
            ),
            (
                "Organization*[/Employee//Project][/PermEmp//DBproject]",
                "PermEmp ~ Employee\nDBproject ~ Project",
            ),
            ("Book*[/Title][/Publisher][//LastName]", "Book -> Publisher\nBook ->> LastName"),
            ("Dept*[//DBProject]//Manager//DBProject", ""),
        ];
        for (qs, is) in cases {
            let (q, ics, _) = setup(qs, is);
            let combined = minimize_with(&q, &ics, Strategy::CdmThenAcim);
            let direct = minimize_with(&q, &ics, Strategy::AcimOnly);
            assert!(
                isomorphic(&combined.pattern, &direct.pattern),
                "{qs}: CDM+ACIM ({}) vs ACIM ({})",
                combined.pattern.size(),
                direct.pattern.size()
            );
            assert!(equivalent_under(&q, &combined.pattern, &ics, &Guard::unlimited()).unwrap());
        }
    }

    #[test]
    fn cdm_only_is_between_input_and_global_minimum() {
        let (q, ics, _) = setup(
            "Articles[/Article//Paragraph]/Article*//Section//Paragraph",
            "Section ->> Paragraph",
        );
        let local = minimize_with(&q, &ics, Strategy::CdmOnly).pattern;
        let global = minimize_with(&q, &ics, Strategy::AcimOnly).pattern;
        assert!(global.size() <= local.size());
        assert!(local.size() <= q.size());
        assert!(equivalent_under(&q, &local, &ics, &Guard::unlimited()).unwrap());
    }

    #[test]
    fn empty_constraints_all_strategies_agree_with_cim() {
        let (q, ics, _) = setup("Dept*[//DBProject]//Manager//DBProject", "");
        let cim_r = minimize_with(&q, &ics, Strategy::CimOnly).pattern;
        let acim_r = minimize_with(&q, &ics, Strategy::AcimOnly).pattern;
        let both = minimize_with(&q, &ics, Strategy::CdmThenAcim).pattern;
        assert!(isomorphic(&cim_r, &acim_r));
        assert!(isomorphic(&cim_r, &both));
    }

    #[test]
    fn stats_total_time_covers_phases() {
        let (q, ics, _) =
            setup("Book*[/Title][/Publisher][//LastName]", "Book -> Publisher\nBook ->> LastName");
        let out = minimize(&q, &ics);
        assert!(out.stats.total_time >= out.stats.tables_time);
        assert!(out.stats.total_removed() >= 1);
    }

    /// Minimize under an already closed set, as a query optimizer does for
    /// many queries against one schema.
    fn closed_run(q: &TreePattern, closed: &ConstraintSet, strategy: Strategy) -> TreePattern {
        minimize_closed_guarded(q, closed, strategy, &Guard::unlimited()).unwrap().pattern
    }

    #[test]
    fn one_closure_serves_many_queries() {
        let mut tys = TypeInterner::new();
        let closed = parse_constraints("Article -> Title\nSection ->> Paragraph", &mut tys)
            .unwrap()
            .closure();
        let cases = [
            ("Articles/Article*[/Title]//Section//Paragraph", 3),
            ("Article*[/Title]", 1),
            ("Article*//Section", 2),
            ("Section*//Paragraph", 1),
        ];
        for (src, want) in cases {
            let q = parse_pattern(src, &mut tys).unwrap();
            let m = closed_run(&q, &closed, Strategy::default());
            assert_eq!(m.size(), want, "{src}");
            assert!(equivalent_under(&q, &m, &closed, &Guard::unlimited()).unwrap(), "{src}");
        }
    }

    #[test]
    fn minimality_checks() {
        let mut tys = TypeInterner::new();
        let closed = parse_constraints("Article -> Title", &mut tys).unwrap().closure();
        // Under constraints, a minimal query is its own minimization.
        let minimal = parse_pattern("Article*//Section", &mut tys).unwrap();
        let redundant = parse_pattern("Article*[/Title]//Section", &mut tys).unwrap();
        assert!(isomorphic(&closed_run(&minimal, &closed, Strategy::default()), &minimal));
        assert_eq!(closed_run(&redundant, &closed, Strategy::default()).size(), 2);
        // Constraint-free minimality.
        let q = parse_pattern("a*[//b]//b//c", &mut tys).unwrap();
        assert!(!is_minimal(&q));
        assert!(is_minimal(&crate::incremental::cim(&q)));
        assert!(is_minimal(&redundant), "Title is redundant only under the IC");
    }

    #[test]
    fn strategies_share_one_closed_set() {
        let mut tys = TypeInterner::new();
        let closed = parse_constraints("a -> b", &mut tys).unwrap().closure();
        let q = parse_pattern("a*[/b][/c]", &mut tys).unwrap();
        for strategy in
            [Strategy::CimOnly, Strategy::AcimOnly, Strategy::CdmOnly, Strategy::CdmThenAcim]
        {
            let m = closed_run(&q, &closed, strategy);
            match strategy {
                Strategy::CimOnly => assert_eq!(m.size(), 3, "CIM ignores ICs"),
                _ => assert_eq!(m.size(), 2),
            }
        }
    }

    #[test]
    fn default_strategy_is_cdm_then_acim() {
        assert_eq!(Strategy::default(), Strategy::CdmThenAcim);
    }

    #[test]
    fn repeated_one_shot_calls_reuse_the_closure() {
        // Counters only move while the obs layer is enabled. They are
        // process-wide and other tests bump them concurrently, so the hit
        // count is a floor, and the recompute count is the fewest seen
        // over a few windows, each on a constraint set of its own: three
        // calls that each closed the set would add 3 in every window.
        let _table = crate::batch::engine_table_lock();
        tpq_obs::set_enabled(true);
        let (hits, recomputes) =
            (tpq_obs::counter("engine.cache.hit"), tpq_obs::counter("engine.recomputed"));
        let mut tys = TypeInterner::new();
        let q = parse_pattern("Book*[/Title][/Publisher][//LastName]", &mut tys).unwrap();
        let mut fewest = u64::MAX;
        for window in 0..5 {
            let ics = parse_constraints(
                &format!("Book -> Publisher\nBook ->> LastName\nTitle -> Page{window}"),
                &mut tys,
            )
            .unwrap();
            let (hits_before, recomputes_before) = (hits.get(), recomputes.get());
            let a = minimize(&q, &ics).pattern;
            let b = minimize(&q, &ics).pattern;
            let c = minimize(&q, &ics).pattern;
            let hits_after = hits.get();
            fewest = fewest.min(recomputes.get() - recomputes_before);
            assert!(
                hits_after >= hits_before + 2,
                "second and third calls must hit the engine table ({hits_before} -> {hits_after})"
            );
            assert!(isomorphic(&a, &b) && isomorphic(&b, &c));
        }
        assert!(fewest <= 1, "the closure is computed at most once, not {fewest} times");
    }

    #[test]
    fn every_strategy_shares_one_closure_per_constraint_set() {
        // Process-wide counters: take the fewest recomputes over a few
        // windows, each on a set of its own, as in the test above.
        let _table = crate::batch::engine_table_lock();
        tpq_obs::set_enabled(true);
        let recomputes = tpq_obs::counter("engine.recomputed");
        let mut tys = TypeInterner::new();
        let q = parse_pattern("Mug*[/Handle][//Glaze]", &mut tys).unwrap();
        let mut fewest = u64::MAX;
        for window in 0..5 {
            let ics = parse_constraints(&format!("Mug -> Handle\nMug ->> Glaze{window}"), &mut tys)
                .unwrap();
            let before = recomputes.get();
            for strategy in
                [Strategy::CimOnly, Strategy::AcimOnly, Strategy::CdmOnly, Strategy::CdmThenAcim]
            {
                minimize_with(&q, &ics, strategy);
            }
            fewest = fewest.min(recomputes.get() - before);
        }
        assert_eq!(fewest, 1, "four strategies on one fresh set close it once");
    }
}
