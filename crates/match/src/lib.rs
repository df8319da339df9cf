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
//! Two evaluators are provided:
//!
//! * [`embed`] — the production evaluator: one bit row over pre-order ids
//!   per type the pattern uses, bottom-up candidate pruning on those rows,
//!   then a top-down feasibility pass along the root→output path;
//!   polynomial and exact, embedding counts included;
//! * [`naive`] — exponential backtracking enumeration of embeddings, used
//!   to cross-validate the production evaluator in tests.
//!
//! Each evaluator has one guarded entry point that returns a `Result`
//! (`Guard::unlimited()` for no limit): [`Matcher::new`],
//! [`answer_set_naive`] and [`count_embeddings_naive`].
//! [`answer_set`] is the infallible convenience over the first; it panics
//! only if the `match.build` failpoint is armed. [`answer_set_twig`]
//! equals it, and [`answer_set_twig_indexed`] equals [`Matcher::new`]'s
//! answers; both keep the names of the former twig-join engine, and the
//! second ignores the [`DocIndex`](tpq_data::DocIndex) it still takes.
//!
//! Matching cost grows with pattern size — which is the whole motivation
//! for minimization; the ablation benches quantify it.

#![warn(missing_docs)]

pub mod embed;
pub mod naive;

pub use embed::{answer_set, answer_set_forest, answer_set_twig, answer_set_twig_indexed, Matcher};
pub use naive::{answer_set_naive, count_embeddings_naive};

use std::borrow::Cow;
use tpq_data::{DataNodeId, Document};

/// `doc` with pre-order ids, which every interval test of the matcher
/// needs: borrowed when the document already has them, else renumbered once,
/// with the map back to the caller's ids. Parsed and repaired documents are
/// always pre-ordered; hand-built ones from tests and generators may not be.
struct PreOrdered<'a> {
    doc: Cow<'a, Document>,
    /// The caller's id of each renumbered node; empty when borrowed.
    caller_ids: Vec<DataNodeId>,
}

impl<'a> PreOrdered<'a> {
    fn new(doc: &'a Document) -> Self {
        if doc.is_pre_order() {
            return PreOrdered { doc: Cow::Borrowed(doc), caller_ids: Vec::new() };
        }
        let (doc, caller_ids) = doc.to_pre_order();
        PreOrdered { doc: Cow::Owned(doc), caller_ids }
    }

    /// `id` of the pre-ordered document as the caller's id.
    fn caller_id(&self, id: DataNodeId) -> DataNodeId {
        if self.caller_ids.is_empty() {
            id
        } else {
            self.caller_ids[id.index()]
        }
    }

    /// Ids of the pre-ordered document as the caller's ids, in place.
    fn to_caller(&self, mut ids: Vec<DataNodeId>) -> Vec<DataNodeId> {
        ids.iter_mut().for_each(|id| *id = self.caller_id(*id));
        ids
    }
}

impl std::ops::Deref for PreOrdered<'_> {
    type Target = Document;

    fn deref(&self) -> &Document {
        &self.doc
    }
}

/// Do two patterns produce the same answer set on `doc`? (Empirical
/// equivalence on one database; used by property tests against the
/// containment-mapping based `tpq_core::equivalent`.)
pub fn same_answers(
    q1: &tpq_pattern::TreePattern,
    q2: &tpq_pattern::TreePattern,
    doc: &Document,
) -> bool {
    let mut a = answer_set(q1, doc);
    let mut b = answer_set(q2, doc);
    a.sort_unstable();
    b.sort_unstable();
    a == b
}
