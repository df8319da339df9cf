//! Tree pattern query minimization — the core algorithms of
//! *Minimization of Tree Pattern Queries* (SIGMOD 2001).
//!
//! # Overview
//!
//! * [`contains()`](fn@contains) / [`equivalent()`](fn@equivalent) — containment and equivalence of tree
//!   patterns via containment mappings (Section 4);
//!   [`has_homomorphism()`](fn@has_homomorphism) is the mapping test itself;
//!   it, containment under constraints and the engine prune candidate bit
//!   rows with the row kernel the document matcher also runs
//!   ([`tpq_base::rows`]);
//! * [`cim()`](fn@cim) — **C**onstraint-**I**ndependent **M**inimization: the unique
//!   minimal equivalent query in the absence of integrity constraints
//!   (Theorem 4.1), computed by a maximal elimination ordering on the
//!   Section 6.1 engine ([`CimEngine`]), which keeps the images table of
//!   Figure 3's redundant-leaf test alive across tests and reads ancestry
//!   off a pre-order numbering ([`redundant_leaf`] is the rebuild-per-test
//!   reference it is checked against);
//! * [`contains_under()`](fn@contains_under) / [`equivalent_under()`](fn@equivalent_under) — containment and
//!   equivalence *under* a set of required-child / required-descendant /
//!   co-occurrence constraints (Section 5);
//! * [`acim()`](fn@acim) — **A**ugmented CIM: chase-style augmentation with temporary
//!   nodes, then CIM on the same engine, then stripping; always yields the
//!   unique minimal equivalent query under the constraints (Theorem 5.1);
//! * [`cdm()`](fn@cdm) — **C**onstraint-**D**ependent **M**inimization: the fast
//!   local-pruning pass driven by information-content propagation
//!   (Figures 4 and 6); produces a locally minimal query (Theorem 5.2);
//! * [`minimize()`](fn@minimize) — the recommended pipeline, CDM as a pre-filter followed
//!   by ACIM (Theorem 5.3), with per-phase statistics;
//!   [`minimize_closed_guarded()`](fn@minimize_closed_guarded) is the one
//!   entry point behind every strategy, taking a closed constraint set and
//!   a [`Guard`](tpq_base::Guard).
//!
//! Each decision procedure has one entry point, which takes a
//! [`Guard`](tpq_base::Guard) (`Guard::unlimited()` for no limit) and
//! returns a `Result`. The paper-named one-shots (`minimize`,
//! `minimize_with`, `cim`, `acim`, `cdm`) are the only infallible wrappers.
//!
//! # Example
//!
//! ```
//! use tpq_base::TypeInterner;
//! use tpq_pattern::parse_pattern;
//! use tpq_constraints::parse_constraints;
//! use tpq_core::{cim, minimize};
//!
//! let mut tys = TypeInterner::new();
//! // Figure 2(h): OrgUnits containing a Dept with a Researcher managing a
//! // DBProject, and a Dept descendant containing a DBProject.
//! let q = parse_pattern(
//!     "OrgUnit*[/Dept/Researcher//DBProject]//Dept//DBProject",
//!     &mut tys,
//! ).unwrap();
//! let m = cim(&q);
//! assert_eq!(m.size(), 4); // Figure 2(i): the right branch folds away
//!
//! // Figure 2(b) + the IC Section ->> Paragraph gives Figure 2(e).
//! let q = parse_pattern(
//!     "Articles[/Article//Paragraph]/Article*//Section//Paragraph",
//!     &mut tys,
//! ).unwrap();
//! let ics = parse_constraints("Section ->> Paragraph", &mut tys).unwrap();
//! let out = minimize(&q, &ics);
//! assert_eq!(out.pattern.size(), 3); // Figure 2(e): Articles/Article*//Section
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod cdm;
pub mod chase;
pub mod containment;
pub mod explain;
pub mod incremental;
pub mod info;
pub mod local;
pub mod mapping;
pub mod pipeline;
pub mod redundant;
pub mod stats;

pub use batch::{
    clear_shared_caches, export_engines, probe_engine_text, seed_engine, shared_engine,
    shared_engine_for_text, shared_front_usage, BatchMinimizer, BatchOutcome, BatchStats,
    CachedOutcome, FrontAnswer, GuardedBatchOutcome, FRONT_MAX_BYTES, FRONT_MAX_ENTRIES,
};
pub use cdm::{cdm, cdm_in_place_guarded};
pub use chase::{augment_guarded, chase};
pub use containment::{contains, contains_under, equivalent, equivalent_under};
pub use explain::{explain, ChaseFact, Deletion, Explanation, Reason};
pub use incremental::{acim, cim, CimEngine};
pub use local::locally_redundant_leaves;
pub use mapping::{has_homomorphism, has_homomorphism_naive};
pub use pipeline::{
    is_minimal, minimize, minimize_closed_guarded, minimize_with, MinimizeOutcome, Strategy,
};
pub use redundant::{cim_with_order, redundant_leaf};
pub use stats::MinimizeStats;
