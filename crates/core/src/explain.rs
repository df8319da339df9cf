//! Explain traces: *why* each node of a minimized query was deleted.
//!
//! [`explain`] runs one minimization with the observability event layer
//! forced on and a fresh trace id scoped to the run, then folds the
//! drained [`tpq_obs::Event`] stream into one [`Deletion`] record per
//! removed node:
//!
//! * a CDM removal cites the Figure 6 rule and the constraint-closure
//!   fact that fired (`cdm.prune` events);
//! * a CIM/ACIM removal cites the node the deleted leaf maps onto under
//!   a witnessing endomorphism (`cim.prune` events). When the witness is
//!   a temporary node added by augmentation, the `chase.apply` event that
//!   created it is resolved so the explanation names the IC instead of an
//!   internal node id (ACIM's Theorem 5.1 mechanism made visible).
//!
//! All node ids in an [`Explanation`] refer to the **input** pattern's
//! arena: the strategies are driven without intermediate compaction, so
//! a `Deletion::node` can be looked up directly in the caller's pattern.
//! (Temporary augmentation nodes get ids past `input.arena_len()`; they
//! never appear as deletions, only — resolved — as witnesses.)
//!
//! Concurrency: the event ring is process-global, so explains serialize
//! on an internal lock and filter the drained batch by their own trace
//! id. Running an explain turns the observability layer on for the rest
//! of the process (it is never turned back off — concurrent users may
//! rely on it).

use crate::pipeline::{note_budget_trip, run_stages, Strategy};
use crate::stats::MinimizeStats;
use std::sync::Mutex;
use std::time::Instant;
use tpq_base::{Guard, Result, TypeId};
use tpq_constraints::ConstraintSet;
use tpq_pattern::{NodeId, TreePattern};

/// One applied constraint-closure fact, as recorded by the chase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaseFact {
    /// Node of the input pattern the fact was applied at.
    pub at: NodeId,
    /// Left-hand type of the constraint.
    pub lhs: TypeId,
    /// Constraint operator: `->`, `->>` or `~`.
    pub op: &'static str,
    /// Right-hand type of the constraint.
    pub rhs: TypeId,
}

/// The justification for one deleted node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reason {
    /// Deleted by a CDM information-content rule (Figure 6).
    Cdm {
        /// Figure 6 rule number (1–4).
        rule: u8,
        /// Parent node the rule fired at.
        at: NodeId,
        /// The constraint-closure fact that made the node redundant.
        fact: ChaseFact,
        /// Rule 3/4 co-occurrence witness type (the sibling/descendant
        /// type whose presence discharges the deleted node).
        witness_ty: Option<TypeId>,
    },
    /// Deleted by CIM/ACIM: the leaf maps onto `witness` under an
    /// endomorphism fixing everything else.
    Cim {
        /// The node the deleted leaf maps onto (input-arena id; for an
        /// IC-implied witness this is the temporary node's id).
        witness: NodeId,
        /// Primary type of the witness node.
        witness_ty: TypeId,
        /// When the witness was a temporary node added by augmentation,
        /// the chase fact that created it (ACIM's mechanism).
        via: Option<ChaseFact>,
    },
}

/// One deleted node with its justification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deletion {
    /// The deleted node's id in the **input** pattern's arena.
    pub node: NodeId,
    /// The deleted node's primary type.
    pub ty: TypeId,
    /// Why the deletion was sound.
    pub reason: Reason,
}

/// The result of an explained minimization run.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The minimized (compacted) query — identical to what
    /// [`crate::minimize_with`] returns for the same inputs.
    pub minimized: TreePattern,
    /// Per-phase measurements of the run.
    pub stats: MinimizeStats,
    /// The trace id the run executed under (render with
    /// [`tpq_obs::trace_hex`]).
    pub trace: u64,
    /// One record per deleted node, in removal order.
    pub deletions: Vec<Deletion>,
    /// The raw event stream of the run (decision events and span-close
    /// events), in emission order.
    pub events: Vec<tpq_obs::Event>,
}

/// Held by whoever drains the process-global event ring in this crate, so
/// two drains never take each other's events.
pub(crate) static RING_LOCK: Mutex<()> = Mutex::new(());

/// Minimize `q` under `ics` (closed internally) and explain every
/// deletion. See the module docs for semantics and concurrency notes. A
/// tripped guard returns [`Err`] with the input untouched (the run works
/// on an internal clone).
pub fn explain(
    q: &TreePattern,
    ics: &ConstraintSet,
    strategy: Strategy,
    guard: &Guard,
) -> Result<Explanation> {
    let _serial = RING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    tpq_obs::set_enabled(true);
    let closed = ics.closure();
    let trace = tpq_obs::fresh_trace_id();
    let mut stats = MinimizeStats::default();
    let t0 = Instant::now();
    let run = {
        let _scope = tpq_obs::trace_scope(trace);
        let _span = tpq_obs::span!("minimize");
        run_stages(q, &closed, strategy, &mut stats, guard).map(|work| work.compact().0)
    };
    let events: Vec<tpq_obs::Event> =
        tpq_obs::drain_events().into_iter().filter(|e| e.trace == trace).collect();
    let minimized = run.inspect_err(note_budget_trip)?;
    stats.total_time = t0.elapsed();
    let deletions = fold_deletions(q, &events);
    Ok(Explanation { minimized, stats, trace, deletions, events })
}

/// Fold the filtered event stream into per-node deletion records.
fn fold_deletions(input: &TreePattern, events: &[tpq_obs::Event]) -> Vec<Deletion> {
    // Temp node id -> the chase fact that created it.
    let chase_facts: Vec<(NodeId, ChaseFact)> = events
        .iter()
        .filter(|e| e.name == "chase.apply")
        .filter_map(|e| {
            let temp = NodeId(e.u64_field("temp")? as u32);
            Some((
                temp,
                ChaseFact {
                    at: NodeId(e.u64_field("node")? as u32),
                    lhs: TypeId(e.u64_field("lhs")? as u32),
                    op: e.str_field("op")?,
                    rhs: TypeId(e.u64_field("rhs")? as u32),
                },
            ))
        })
        .collect();
    let fact_for = |id: NodeId| chase_facts.iter().find(|(t, _)| *t == id).map(|(_, f)| f.clone());
    let original = |id: NodeId| id.index() < input.arena_len();
    let mut out = Vec::new();
    for e in events {
        match e.name {
            "cdm.prune" => {
                let (Some(node), Some(at), Some(rule), Some(lhs), Some(op), Some(rhs)) = (
                    e.u64_field("node"),
                    e.u64_field("at"),
                    e.u64_field("rule"),
                    e.u64_field("lhs"),
                    e.str_field("op"),
                    e.u64_field("rhs"),
                ) else {
                    continue;
                };
                let node = NodeId(node as u32);
                if !original(node) {
                    continue;
                }
                out.push(Deletion {
                    node,
                    ty: input.node(node).primary,
                    reason: Reason::Cdm {
                        rule: rule as u8,
                        at: NodeId(at as u32),
                        fact: ChaseFact {
                            at: NodeId(at as u32),
                            lhs: TypeId(lhs as u32),
                            op,
                            rhs: TypeId(rhs as u32),
                        },
                        witness_ty: e.u64_field("witness_ty").map(|w| TypeId(w as u32)),
                    },
                });
            }
            "cim.prune" => {
                let (Some(node), Some(witness)) = (e.u64_field("node"), e.u64_field("witness"))
                else {
                    continue;
                };
                let node = NodeId(node as u32);
                if !original(node) {
                    continue;
                }
                let witness = NodeId(witness as u32);
                let via = fact_for(witness);
                let witness_ty = match &via {
                    Some(fact) => fact.rhs,
                    None if original(witness) => input.node(witness).primary,
                    // A temp whose creation event was overwritten in the
                    // ring: fall back to the deleted node's own type (a
                    // witness always carries it).
                    None => input.node(node).primary,
                };
                out.push(Deletion {
                    node,
                    ty: input.node(node).primary,
                    reason: Reason::Cim { witness, witness_ty, via },
                });
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn explains_match_the_plain_pipeline_result() {
        let (q, ics, _) = setup(
            "Articles[/Article//Paragraph]/Article*//Section//Paragraph",
            "Section ->> Paragraph",
        );
        for strategy in
            [Strategy::CimOnly, Strategy::AcimOnly, Strategy::CdmOnly, Strategy::CdmThenAcim]
        {
            let ex = explain(&q, &ics, strategy, &Guard::unlimited()).unwrap();
            let plain = crate::pipeline::minimize_with(&q, &ics, strategy);
            assert!(
                isomorphic(&ex.minimized, &plain.pattern),
                "{strategy:?}: explain and minimize disagree"
            );
        }
    }

    #[test]
    fn every_deleted_node_gets_a_justification() {
        // Figure 2 ACIM example: 5 nodes in, 3 out — two deletions.
        let (q, ics, _) = setup(
            "Articles[/Article//Paragraph]/Article*//Section//Paragraph",
            "Section ->> Paragraph",
        );
        let ex = explain(&q, &ics, Strategy::CdmThenAcim, &Guard::unlimited()).unwrap();
        assert_eq!(ex.minimized.size(), 3);
        assert_eq!(ex.deletions.len(), q.size() - ex.minimized.size());
        for d in &ex.deletions {
            assert!(d.node.index() < q.arena_len(), "deletions cite input-arena ids");
            match &d.reason {
                Reason::Cdm { rule, .. } => assert!((1..=4).contains(rule)),
                Reason::Cim { witness_ty, .. } => {
                    // A witness must be able to stand in for the deleted
                    // node, so it carries the same primary type here.
                    assert_eq!(*witness_ty, d.ty);
                }
            }
        }
    }

    #[test]
    fn acim_witness_resolves_to_the_creating_chase_fact() {
        // The shallow Paragraph folds onto the IC-implied temp under
        // Section (ACIM's mechanism); the explanation must cite the IC.
        let (q, ics, tys) = setup(
            "Articles[/Article//Paragraph]/Article*//Section//Paragraph",
            "Section ->> Paragraph",
        );
        let ex = explain(&q, &ics, Strategy::AcimOnly, &Guard::unlimited()).unwrap();
        let section = tys.lookup("Section").unwrap();
        let paragraph = tys.lookup("Paragraph").unwrap();
        let via_ic = ex.deletions.iter().any(|d| {
            matches!(
                &d.reason,
                Reason::Cim { via: Some(fact), .. }
                    if fact.lhs == section && fact.op == "->>" && fact.rhs == paragraph
            )
        });
        assert!(via_ic, "no deletion cites the Section ->> Paragraph chase fact: {ex:#?}");
    }

    #[test]
    fn cdm_deletion_cites_the_figure_6_rule() {
        let (q, ics, tys) = setup("Section*//Paragraph", "Section ->> Paragraph");
        let ex = explain(&q, &ics, Strategy::CdmOnly, &Guard::unlimited()).unwrap();
        assert_eq!(ex.minimized.size(), 1);
        assert_eq!(ex.deletions.len(), 1);
        let d = &ex.deletions[0];
        assert_eq!(d.ty, tys.lookup("Paragraph").unwrap());
        match &d.reason {
            Reason::Cdm { rule, fact, .. } => {
                assert_eq!(*rule, 2);
                assert_eq!(fact.op, "->>");
                assert_eq!(fact.lhs, tys.lookup("Section").unwrap());
                assert_eq!(fact.rhs, tys.lookup("Paragraph").unwrap());
            }
            other => panic!("expected a CDM reason, got {other:?}"),
        }
    }

    #[test]
    fn constraint_free_explain_uses_plain_witnesses() {
        let (q, ics, _) = setup("Dept*[//DBProject]//Manager//DBProject", "");
        let ex = explain(&q, &ics, Strategy::CimOnly, &Guard::unlimited()).unwrap();
        assert_eq!(ex.minimized.size(), 3);
        assert_eq!(ex.deletions.len(), 1);
        match &ex.deletions[0].reason {
            Reason::Cim { via, witness, .. } => {
                assert!(via.is_none(), "no ICs, so no chase facts");
                assert!(witness.index() < q.arena_len());
            }
            other => panic!("expected a CIM reason, got {other:?}"),
        }
    }

    #[test]
    fn events_are_scoped_to_the_run_trace() {
        let (q, ics, _) = setup("a*[/b][/b]", "");
        let ex = explain(&q, &ics, Strategy::CimOnly, &Guard::unlimited()).unwrap();
        assert!(ex.trace != 0);
        assert!(!ex.events.is_empty());
        assert!(ex.events.iter().all(|e| e.trace == ex.trace));
    }
}
