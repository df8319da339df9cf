//! Bounded-exhaustive semantic validation.
//!
//! Property tests sample; these tests *enumerate*. Over a small universe
//! (two pattern types, bounded sizes) we generate every ordered tree
//! shape, every edge-kind assignment and every type assignment, and
//! check the algorithms against brute-force answer-set semantics:
//!
//! * `cim` preserves answer sets on every enumerated document;
//! * `minimize` (CDM→ACIM) preserves answer sets on every enumerated
//!   document *repaired* to satisfy the constraints;
//! * `contains` is sound (answers really are contained on every
//!   enumerated document) **and complete** (a `false` verdict is always
//!   witnessed by a counterexample from the canonical family: the
//!   contained pattern expanded with filler-typed chains on its d-edges).

use tpq::prelude::*;
use tpq_pattern::EdgeKind;

const PATTERN_TYPES: u32 = 2;
/// A type never used in patterns, for canonical d-edge expansions.
const FILLER: u32 = 2;

/// All parent-pointer vectors for ordered trees of `n` nodes
/// (`parent[i] < i`).
fn tree_shapes(n: usize) -> Vec<Vec<usize>> {
    fn rec(n: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        let i = cur.len() + 1;
        if i > n {
            out.push(cur.clone());
            return;
        }
        for p in 0..i {
            cur.push(p);
            rec(n, cur, out);
            cur.pop();
        }
    }
    if n == 0 {
        return Vec::new();
    }
    let mut out = Vec::new();
    rec(n - 1, &mut Vec::new(), &mut out);
    out
}

/// Every pattern with exactly `n` nodes over `PATTERN_TYPES` types, both
/// edge kinds, output on the root.
fn all_patterns(n: usize) -> Vec<TreePattern> {
    let mut out = Vec::new();
    for shape in tree_shapes(n) {
        let edges = shape.len();
        for edge_bits in 0..(1u32 << edges) {
            for ty_bits in 0..(PATTERN_TYPES as u64).pow(n as u32) {
                let mut tys = Vec::with_capacity(n);
                let mut rest = ty_bits;
                for _ in 0..n {
                    tys.push(TypeId((rest % PATTERN_TYPES as u64) as u32));
                    rest /= PATTERN_TYPES as u64;
                }
                let mut q = TreePattern::new(tys[0]);
                let mut ids = vec![q.root()];
                for (i, &p) in shape.iter().enumerate() {
                    let edge = if edge_bits >> i & 1 == 1 {
                        EdgeKind::Descendant
                    } else {
                        EdgeKind::Child
                    };
                    ids.push(q.add_child(ids[p], edge, tys[i + 1]));
                }
                out.push(q);
            }
        }
    }
    out
}

/// Every document with up to `max_n` nodes over `num_types` types.
fn all_documents(max_n: usize, num_types: u32) -> Vec<Document> {
    let mut out = Vec::new();
    for n in 1..=max_n {
        for shape in tree_shapes(n) {
            for ty_bits in 0..(num_types as u64).pow(n as u32) {
                let mut tys = Vec::with_capacity(n);
                let mut rest = ty_bits;
                for _ in 0..n {
                    tys.push(TypeId((rest % num_types as u64) as u32));
                    rest /= num_types as u64;
                }
                let mut d = Document::new(tys[0]);
                let mut ids = vec![d.root()];
                for (i, &p) in shape.iter().enumerate() {
                    ids.push(d.add_child(ids[p], tys[i + 1]));
                }
                out.push(d);
            }
        }
    }
    out
}

/// Canonical counterexample family for `q1 ⊆ q2`: `q1` frozen into a
/// document, with each d-edge expanded to a chain of 1..=3 filler nodes
/// (filler never occurs in patterns, so it cannot create accidental
/// matches). Returns `(document, answer node of q1's output under the
/// identity embedding)`.
fn expansions(q1: &TreePattern) -> Vec<(Document, tpq::data::DataNodeId)> {
    let d_edges: Vec<tpq::pattern::NodeId> = q1
        .alive_ids()
        .filter(|&v| v != q1.root() && q1.node(v).edge == EdgeKind::Descendant)
        .collect();
    let combos = 3u32.pow(d_edges.len() as u32);
    let mut out = Vec::new();
    for combo in 0..combos {
        let mut lens = std::collections::HashMap::new();
        let mut rest = combo;
        for &e in &d_edges {
            lens.insert(e, rest % 3);
            rest /= 3;
        }
        // Build the document by pre-order walk of q1.
        let mut doc = Document::new(q1.node(q1.root()).primary);
        let mut map = std::collections::HashMap::new();
        map.insert(q1.root(), doc.root());
        for v in q1.pre_order() {
            if v == q1.root() {
                continue;
            }
            let mut attach = map[&q1.node(v).parent.unwrap()];
            if q1.node(v).edge == EdgeKind::Descendant {
                for _ in 0..lens[&v] {
                    attach = doc.add_child(attach, TypeId(FILLER));
                }
            }
            let me = doc.add_child(attach, q1.node(v).primary);
            map.insert(v, me);
        }
        out.push((doc, map[&q1.output()]));
    }
    out
}

fn answers_sorted(q: &TreePattern, d: &Document) -> Vec<tpq::data::DataNodeId> {
    let mut a = answer_set(q, d);
    a.sort_unstable();
    a
}

#[test]
fn cim_preserves_answers_exhaustively() {
    let docs = all_documents(4, PATTERN_TYPES);
    let mut patterns = Vec::new();
    for n in 1..=4 {
        patterns.extend(all_patterns(n));
    }
    assert!(patterns.len() > 500, "enumeration sanity: {}", patterns.len());
    let mut minimized_count = 0;
    for q in &patterns {
        let m = cim(q);
        if m.size() < q.size() {
            minimized_count += 1;
        }
        for d in &docs {
            assert_eq!(answers_sorted(q, d), answers_sorted(&m, d), "q={q:?} m={m:?} d={d:?}");
        }
    }
    assert!(minimized_count > 50, "some queries must actually shrink: {minimized_count}");
}

#[test]
fn containment_is_sound_and_complete_exhaustively() {
    let docs = all_documents(4, PATTERN_TYPES);
    let patterns: Vec<TreePattern> = (1..=3).flat_map(all_patterns).collect();
    let mut positives = 0;
    let mut witnessed_negatives = 0;
    for q1 in &patterns {
        for q2 in &patterns {
            let verdict = contains(q1, q2, &Guard::unlimited()).unwrap();
            if verdict {
                positives += 1;
                // Soundness on every enumerated document.
                for d in &docs {
                    let a1 = answers_sorted(q1, d);
                    let a2 = answers_sorted(q2, d);
                    assert!(
                        a1.iter().all(|x| a2.contains(x)),
                        "contains said true but answers leak: {q1:?} vs {q2:?} on {d:?}"
                    );
                }
            } else {
                // Completeness: some canonical expansion separates them.
                let separated = expansions(q1).into_iter().any(|(d, witness)| {
                    answer_set(q1, &d).contains(&witness) && !answer_set(q2, &d).contains(&witness)
                });
                assert!(
                    separated,
                    "contains said false but no canonical expansion separates {q1:?} from {q2:?}"
                );
                witnessed_negatives += 1;
            }
        }
    }
    assert!(positives > 100, "sanity: {positives}");
    assert!(witnessed_negatives > 100, "sanity: {witnessed_negatives}");
}

#[test]
fn minimize_under_ics_preserves_answers_exhaustively() {
    // Fixed constraint set over the pattern universe.
    let mut types = TypeInterner::new();
    types.intern("t0");
    types.intern("t1");
    let ics = parse_constraints("t0 -> t1", &mut types).unwrap();
    let closed = ics.closure();
    let docs: Vec<Document> = all_documents(3, PATTERN_TYPES)
        .into_iter()
        .map(|d| tpq::constraints::repair(&d, &closed).unwrap())
        .collect();
    let patterns: Vec<TreePattern> = (1..=4).flat_map(all_patterns).collect();
    let mut shrunk = 0;
    for q in &patterns {
        let m = minimize(q, &ics).pattern;
        if m.size() < q.size() {
            shrunk += 1;
        }
        for d in &docs {
            assert_eq!(answers_sorted(q, d), answers_sorted(&m, d), "q={q:?} m={m:?} d={d:?}");
        }
    }
    assert!(shrunk > 100, "the IC must fire often: {shrunk}");
}

#[test]
fn equivalence_verdicts_match_answer_sets_on_all_documents() {
    // For equivalent pairs, answers agree on EVERY document (not just
    // containment one way).
    let docs = all_documents(4, PATTERN_TYPES);
    let patterns: Vec<TreePattern> = (1..=3).flat_map(all_patterns).collect();
    let mut eq_pairs = 0;
    for q1 in &patterns {
        for q2 in &patterns {
            if equivalent(q1, q2, &Guard::unlimited()).unwrap() {
                eq_pairs += 1;
                for d in &docs {
                    assert_eq!(answers_sorted(q1, d), answers_sorted(q2, d));
                }
            }
        }
    }
    assert!(eq_pairs > patterns.len(), "at least the diagonal plus some: {eq_pairs}");
}
