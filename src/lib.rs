//! # tpq — Minimization of Tree Pattern Queries
//!
//! A from-scratch Rust implementation of *Minimization of Tree Pattern
//! Queries* (Amer-Yahia, Cho, Lakshmanan, Srivastava — SIGMOD 2001).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`base`] — type interner, type sets, errors;
//! * [`pattern`] — tree pattern queries, DSL, isomorphism;
//! * [`data`] — tree-structured documents, XML-subset parsing;
//! * [`constraints`] — integrity constraints, logical closure, schemas;
//! * [`core`] — containment mappings and the CIM / ACIM / CDM algorithms;
//! * [`matching`] — pattern evaluation against documents;
//! * [`obs`] — spans, counters and latency histograms over all of the
//!   above (disabled unless requested; see `docs/OBSERVABILITY.md`);
//! * [`serve`] — the long-running minimization service behind
//!   `tpq serve` (see `docs/ARCHITECTURE.md` for when to use it).
//!
//! ## Quickstart
//!
//! ```
//! use tpq::prelude::*;
//!
//! let mut types = TypeInterner::new();
//! // "departments that contain a database project and that contain project
//! // managers managing a database project" (Section 1)
//! let q = parse_pattern("Dept*[//DBProject]//Manager//DBProject", &mut types).unwrap();
//! let minimal = cim(&q);
//! assert_eq!(minimal.size(), 3); // the first //DBProject branch is redundant
//! ```

pub use tpq_base as base;
pub use tpq_constraints as constraints;
pub use tpq_core as core;
pub use tpq_data as data;
pub use tpq_match as matching;
pub use tpq_obs as obs;
pub use tpq_pattern as pattern;
pub use tpq_serve as serve;

/// Single-import convenience: the types and functions nearly every user
/// needs.
pub mod prelude {
    pub use tpq_base::{
        Cmp, Error, Guard, GuardBuilder, Result, TypeId, TypeInterner, TypeSet, Value,
    };
    pub use tpq_constraints::{parse_constraints, Constraint, ConstraintSet, Schema};
    pub use tpq_core::{
        acim, cdm, cim, contains, contains_under, equivalent, equivalent_under, minimize,
        MinimizeOutcome, MinimizeStats,
    };
    pub use tpq_data::{parse_xml, parse_xml_reader, Document, Forest};
    pub use tpq_match::{answer_set, answer_set_naive, count_embeddings_naive, Matcher};
    pub use tpq_pattern::print::{to_dsl, to_tree_string};
    pub use tpq_pattern::{
        entails, isomorphic, parse_pattern, parse_xpath, Condition, EdgeKind, NodeId, TreePattern,
    };
}
