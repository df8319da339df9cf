//! Brute-force embedding enumeration — the reference evaluator.
//!
//! Enumerates every embedding by backtracking over pattern nodes in
//! pre-order. Exponential in the worst case; exists to cross-validate
//! [`crate::embed`] in tests and to serve as the baseline in the ablation
//! benches.

use tpq_base::{FxHashSet, Guard, Result};
use tpq_data::{DataNodeId, Document};
use tpq_pattern::{EdgeKind, NodeId, TreePattern};

/// The answer set of `pattern` on `doc`, by exhaustive enumeration.
///
/// The backtracker is exponential in the worst case, so pass a bounded
/// guard anywhere the input is not trusted to be tiny: one step is spent
/// per (pattern node, data node) binding attempt.
///
/// ```
/// use tpq_base::{Guard, TypeInterner};
/// use tpq_data::parse_xml;
/// use tpq_match::answer_set_naive;
/// use tpq_pattern::parse_pattern;
///
/// let mut tys = TypeInterner::new();
/// let q = parse_pattern("a*/b", &mut tys).unwrap();
/// let doc = parse_xml("<r><a><b/></a><a/></r>", &mut tys).unwrap();
/// assert_eq!(answer_set_naive(&q, &doc, &Guard::unlimited()).unwrap().len(), 1);
/// // A budget bounds the enumeration.
/// assert!(answer_set_naive(&q, &doc, &Guard::with_budget(2)).is_err());
/// ```
pub fn answer_set_naive(
    pattern: &TreePattern,
    doc: &Document,
    guard: &Guard,
) -> Result<Vec<DataNodeId>> {
    let mut answers: FxHashSet<DataNodeId> = FxHashSet::default();
    enumerate(pattern, doc, guard, &mut |binding| {
        // Every node is bound when `visit` fires; an unbound output would
        // mean a corrupted traversal, so skip it rather than panic.
        if let Some(out) = binding[pattern.output().index()] {
            answers.insert(out);
        }
    })?;
    let mut out: Vec<DataNodeId> = answers.into_iter().collect();
    out.sort_unstable();
    Ok(out)
}

/// The number of embeddings of `pattern` into `doc`, by exhaustive
/// enumeration (see [`answer_set_naive`] for the spend model).
pub fn count_embeddings_naive(pattern: &TreePattern, doc: &Document, guard: &Guard) -> Result<u64> {
    let mut count = 0u64;
    enumerate(pattern, doc, guard, &mut |_| count += 1)?;
    Ok(count)
}

fn enumerate<F: FnMut(&[Option<DataNodeId>])>(
    pattern: &TreePattern,
    doc: &Document,
    guard: &Guard,
    visit: &mut F,
) -> Result<()> {
    let order: Vec<NodeId> = pattern.pre_order();
    let mut binding: Vec<Option<DataNodeId>> = vec![None; pattern.arena_len()];
    // Read-only state shared by every recursion level.
    struct Ctx<'a> {
        pattern: &'a TreePattern,
        doc: &'a Document,
        order: &'a [NodeId],
        guard: &'a Guard,
    }
    fn rec<F: FnMut(&[Option<DataNodeId>])>(
        ctx: &Ctx<'_>,
        i: usize,
        binding: &mut Vec<Option<DataNodeId>>,
        visit: &mut F,
    ) -> Result<()> {
        if i == ctx.order.len() {
            visit(binding);
            return Ok(());
        }
        let v = ctx.order[i];
        let node = ctx.pattern.node(v);
        // Pre-order binds parents before children; if that invariant were
        // ever broken, produce no embeddings instead of panicking.
        let parent_img = match node.parent {
            None => None,
            Some(p) => match binding[p.index()] {
                Some(img) => Some(img),
                None => return Ok(()),
            },
        };
        for u in ctx.doc.ids() {
            ctx.guard.spend(1)?;
            if !ctx.doc.has_types(u, &node.types)
                || !tpq_pattern::condition::satisfied_by(
                    ctx.pattern.conditions(v),
                    ctx.doc.attrs(u),
                )
            {
                continue;
            }
            if let Some(pu) = parent_img {
                let ok = match node.edge {
                    EdgeKind::Child => ctx.doc.parent(u) == Some(pu),
                    EdgeKind::Descendant => ctx.doc.is_proper_ancestor(pu, u),
                };
                if !ok {
                    continue;
                }
            }
            binding[v.index()] = Some(u);
            rec(ctx, i + 1, binding, visit)?;
            binding[v.index()] = None;
        }
        Ok(())
    }
    let ctx = Ctx { pattern, doc, order: &order, guard };
    rec(&ctx, 0, &mut binding, visit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embed::{answer_set, Matcher};
    use tpq_base::TypeInterner;
    use tpq_data::{generate_document, parse_xml, DocumentSpec};
    use tpq_pattern::parse_pattern;

    #[test]
    fn agrees_with_fast_evaluator_on_fixed_cases() {
        let mut tys = TypeInterner::new();
        let doc = parse_xml("<r><a><b/><b><c/></b></a><a><c/></a><b><a><b/></a></b></r>", &mut tys)
            .unwrap();
        for q in
            ["a*", "a*/b", "a*//b", "a//b*", "b*//c", "a*[/b][/b/c]", "r*//a//b", "a*[//c]", "x*"]
        {
            let p = parse_pattern(q, &mut tys).unwrap();
            let mut fast = answer_set(&p, &doc);
            fast.sort_unstable();
            let g = Guard::unlimited();
            assert_eq!(fast, answer_set_naive(&p, &doc, &g).unwrap(), "{q} answers");
            let count = Matcher::new(&p, &doc, &g).unwrap().count_embeddings();
            assert_eq!(count, count_embeddings_naive(&p, &doc, &g).unwrap(), "{q} counts");
        }
    }

    #[test]
    fn agrees_on_random_documents() {
        let mut tys = TypeInterner::new();
        for i in 0..8u32 {
            tys.intern(&format!("t{i}"));
        }
        for seed in 0..6u64 {
            let doc = generate_document(&DocumentSpec {
                nodes: 30,
                num_types: 4,
                max_fanout: 3,
                extra_type_prob: 0.2,
                seed,
            });
            for q in ["t0*//t1", "t1*[/t2][/t3]", "t0*[//t1//t2]", "t2*/t2"] {
                let p = parse_pattern(q, &mut tys).unwrap();
                let mut fast = answer_set(&p, &doc);
                fast.sort_unstable();
                assert_eq!(
                    fast,
                    answer_set_naive(&p, &doc, &Guard::unlimited()).unwrap(),
                    "seed {seed} {q}"
                );
            }
        }
    }
}
