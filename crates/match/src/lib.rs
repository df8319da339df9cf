//! Tree pattern matching: evaluating patterns against documents.
//!
//! "The idea is one finds all ways of *embedding* the pattern into the
//! database, with the answer set constructed from the set of all
//! embeddings found" (Section 1). An embedding maps each pattern node to a
//! data node carrying all the pattern node's types, a c-edge to a
//! parent/child pair, and a d-edge to a proper ancestor/descendant pair.
//! The pattern root may land anywhere in the tree. The answer set is the
//! set of data nodes bound to the output (`*`) node across all embeddings.
//!
//! Three evaluators are provided:
//!
//! * [`embed`] — the production evaluator: bottom-up candidate pruning
//!   over a [`DocIndex`](tpq_data::DocIndex) (O(1) structural checks),
//!   then a top-down feasibility pass; polynomial and exact, embedding
//!   counts included;
//! * [`twig`] — a holistic twig join: one document-order merge of one
//!   stream per seed type (pattern nodes sharing their rarest type share
//!   its list) with path stacks, O(depth × pattern) sweep memory instead of
//!   per-node candidate vectors; returns the same answers as [`embed`];
//! * [`naive`] — exponential backtracking enumeration of embeddings, used
//!   to cross-validate the other evaluators in tests.
//!
//! Each evaluator has one guarded entry point that returns a `Result`
//! (`Guard::unlimited()` for no limit): [`Matcher::new`],
//! [`answer_set_twig_indexed`], [`answer_set_naive`] and
//! [`count_embeddings_naive`]. [`answer_set`] and [`answer_set_twig`] are
//! infallible conveniences over the first two; they panic only if the
//! `match.build` failpoint is armed.
//!
//! Matching cost grows with pattern size — which is the whole motivation
//! for minimization; the ablation benches quantify it.

#![warn(missing_docs)]

pub mod embed;
pub mod naive;
pub mod twig;

pub use embed::{answer_set, answer_set_forest, Matcher};
pub use naive::{answer_set_naive, count_embeddings_naive};
pub use twig::{answer_set_twig, answer_set_twig_indexed};

/// Do two patterns produce the same answer set on `doc`? (Empirical
/// equivalence on one database; used by property tests against the
/// containment-mapping based `tpq_core::equivalent`.)
pub fn same_answers(
    q1: &tpq_pattern::TreePattern,
    q2: &tpq_pattern::TreePattern,
    doc: &tpq_data::Document,
) -> bool {
    let mut a = answer_set(q1, doc);
    let mut b = answer_set(q2, doc);
    a.sort_unstable();
    b.sort_unstable();
    a == b
}
