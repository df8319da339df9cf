//! Random document generation.
//!
//! Used by the experiment harness (documents to evaluate minimized vs
//! unminimized patterns against) and by the property tests (empirical
//! equivalence checks need a population of databases). For documents too
//! large to build in memory, [`stream_xml_to`] writes the markup straight
//! to an [`std::io::Write`] sink instead.

use crate::document::Document;
use std::io::{BufWriter, Write};
use tpq_base::{SmallRng, TypeId};

/// Parameters for [`generate_document`].
#[derive(Debug, Clone)]
pub struct DocumentSpec {
    /// Number of nodes to generate (≥ 1).
    pub nodes: usize,
    /// Number of distinct types `t0..t{num_types-1}` to draw from.
    pub num_types: usize,
    /// Maximum fanout per node (≥ 1). New nodes attach to a uniformly random
    /// existing node that still has spare fanout.
    pub max_fanout: usize,
    /// Probability that a node gets one extra (co-occurring) type.
    pub extra_type_prob: f64,
    /// RNG seed — generation is fully deterministic given the spec.
    pub seed: u64,
}

impl Default for DocumentSpec {
    fn default() -> Self {
        DocumentSpec { nodes: 100, num_types: 8, max_fanout: 4, extra_type_prob: 0.1, seed: 0 }
    }
}

/// Generate a random document per `spec`. Types are `TypeId(0)` through
/// `TypeId(spec.num_types - 1)`; callers that need names should intern that
/// many names first so ids line up. Nodes attach under random earlier
/// nodes, so the tree grows out of document order; it is renumbered once
/// at the end, and comes back pre-ordered like a parsed document.
pub fn generate_document(spec: &DocumentSpec) -> Document {
    assert!(spec.nodes >= 1, "a document has at least one node");
    assert!(spec.num_types >= 1, "need at least one type");
    assert!(spec.max_fanout >= 1, "fanout must be at least 1");
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let ty = |rng: &mut SmallRng| TypeId(rng.gen_range(0..spec.num_types as u32));
    let root_ty = ty(&mut rng);
    let mut doc = Document::new(root_ty);
    // Candidates that still have spare fanout (swap-remove keeps this O(1)).
    let mut open = vec![doc.root()];
    while doc.len() < spec.nodes {
        let slot = rng.gen_range(0..open.len());
        let parent = open[slot];
        let child = doc.add_child(parent, ty(&mut rng));
        // Draw the extra type from the non-primary types directly, so the
        // realized multi-typing rate matches `extra_type_prob` instead of
        // silently no-opping whenever the draw repeats the primary.
        if spec.num_types > 1 && rng.gen_bool(spec.extra_type_prob) {
            let primary = doc.primary(child);
            let shift = 1 + rng.gen_range(0..spec.num_types as u32 - 1);
            doc.add_type(child, TypeId((primary.0 + shift) % spec.num_types as u32));
        }
        open.push(child);
        if doc.children(parent).count() >= spec.max_fanout {
            open.swap_remove(slot);
        }
    }
    doc.to_pre_order().0
}

/// Parameters for [`stream_xml_to`] — the disk-scale counterpart of
/// [`DocumentSpec`]. Type names are `t0..t{num_types-1}`, matching
/// [`generate_document`]'s `TypeId` convention once interned in order.
#[derive(Debug, Clone)]
pub struct XmlStreamSpec {
    /// Number of elements to emit (≥ 1).
    pub nodes: usize,
    /// Number of distinct types `t0..t{num_types-1}` to draw from.
    pub num_types: usize,
    /// Maximum fanout per element (≥ 1).
    pub max_fanout: usize,
    /// Probability that an element gets one extra type via `also=`
    /// (drawn excluding the primary, like [`generate_document`]).
    pub extra_type_prob: f64,
    /// Probability that an element gets a `v="<int>"` attribute.
    pub attr_prob: f64,
    /// RNG seed — the emitted bytes are fully deterministic given the spec.
    pub seed: u64,
}

impl Default for XmlStreamSpec {
    fn default() -> Self {
        XmlStreamSpec {
            nodes: 100_000,
            num_types: 8,
            max_fanout: 4,
            extra_type_prob: 0.1,
            attr_prob: 0.1,
            seed: 0,
        }
    }
}

/// Probability of descending (opening a child) at each step of the
/// streaming walk when both moves are legal. Below ½, the walk is
/// close-biased, so element depth stays shallow no matter how many nodes
/// are emitted — multi-hundred-MB outputs never approach
/// [`crate::MAX_XML_DEPTH`].
const STREAM_DESCEND_PROB: f64 = 0.45;

/// Counts the bytes that actually reach the sink under the [`BufWriter`].
struct CountingWriter<W> {
    inner: W,
    bytes: u64,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Generate a random XML document of exactly `spec.nodes` elements and
/// write its markup to `out` (compact, no inter-element whitespace),
/// returning the number of bytes written.
///
/// The generator is a single pre-order pass with an open-element stack, so
/// the markup never exists in memory as one `String` — point it at a file
/// and it produces multi-hundred-MB documents in O(depth) memory, ready to
/// be re-ingested through [`crate::parse_xml_reader`]. The walk never
/// closes an element while doing so would leave no open element with spare
/// fanout, which is what lets it hit the node budget exactly.
pub fn stream_xml_to<W: Write>(spec: &XmlStreamSpec, out: W) -> std::io::Result<u64> {
    assert!(spec.nodes >= 1, "a document has at least one element");
    assert!(spec.num_types >= 1, "need at least one type");
    assert!(spec.max_fanout >= 1, "fanout must be at least 1");
    let mut w = BufWriter::new(CountingWriter { inner: out, bytes: 0 });
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let ty = |rng: &mut SmallRng| rng.gen_range(0..spec.num_types as u32);
    let open_tag = |w: &mut BufWriter<CountingWriter<W>>,
                    rng: &mut SmallRng,
                    t: u32,
                    spec: &XmlStreamSpec|
     -> std::io::Result<()> {
        write!(w, "<t{t}")?;
        if spec.num_types > 1 && rng.gen_bool(spec.extra_type_prob) {
            let shift = 1 + rng.gen_range(0..spec.num_types as u32 - 1);
            write!(w, " also=\"t{}\"", (t + shift) % spec.num_types as u32)?;
        }
        if rng.gen_bool(spec.attr_prob) {
            write!(w, " v=\"{}\"", rng.gen_range(0..100u32))?;
        }
        write!(w, ">")
    };
    let root_ty = ty(&mut rng);
    open_tag(&mut w, &mut rng, root_ty, spec)?;
    // Open elements as (type, children emitted so far); `spare` tracks the
    // total unused fanout across them — the budget-feasibility invariant is
    // `spare >= 1` whenever elements remain to be placed.
    let mut stack: Vec<(u32, usize)> = vec![(root_ty, 0)];
    let mut spare = spec.max_fanout;
    let mut emitted = 1usize;
    while emitted < spec.nodes {
        let top = *stack.last().expect("root stays open while emitting");
        let top_spare = spec.max_fanout - top.1;
        let can_open = top_spare > 0;
        let can_close = stack.len() > 1 && spare - top_spare > 0;
        let open_now = if can_open && can_close {
            rng.gen_bool(STREAM_DESCEND_PROB)
        } else {
            // When the top is saturated, `spare >= 1` guarantees an open
            // element below it, so closing is always legal here.
            can_open
        };
        if open_now {
            let t = ty(&mut rng);
            open_tag(&mut w, &mut rng, t, spec)?;
            stack.last_mut().expect("non-empty").1 += 1;
            spare = spare - 1 + spec.max_fanout;
            stack.push((t, 0));
            emitted += 1;
        } else {
            let (t, _) = stack.pop().expect("can_close implies depth > 1");
            spare -= top_spare;
            write!(w, "</t{t}>")?;
        }
    }
    while let Some((t, _)) = stack.pop() {
        write!(w, "</t{t}>")?;
    }
    w.flush()?;
    let counter = w.into_inner().map_err(|e| e.into_error())?;
    Ok(counter.bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_size_and_validates() {
        for nodes in [1, 2, 17, 200] {
            let doc = generate_document(&DocumentSpec { nodes, ..Default::default() });
            assert_eq!(doc.len(), nodes);
            doc.validate().unwrap();
        }
    }

    #[test]
    fn generated_documents_are_pre_ordered() {
        for seed in 0..8 {
            let doc = generate_document(&DocumentSpec { nodes: 120, seed, ..Default::default() });
            assert!(doc.is_pre_order());
            doc.validate().unwrap();
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let spec = DocumentSpec { nodes: 64, seed: 42, ..Default::default() };
        assert_eq!(generate_document(&spec), generate_document(&spec));
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_document(&DocumentSpec { nodes: 64, seed: 1, ..Default::default() });
        let b = generate_document(&DocumentSpec { nodes: 64, seed: 2, ..Default::default() });
        assert_ne!(a, b);
    }

    #[test]
    fn fanout_bound_is_respected() {
        let spec = DocumentSpec { nodes: 300, max_fanout: 2, ..Default::default() };
        let doc = generate_document(&spec);
        for id in doc.ids() {
            assert!(doc.children(id).count() <= 2);
        }
    }

    #[test]
    fn fanout_one_gives_a_chain() {
        let spec = DocumentSpec { nodes: 20, max_fanout: 1, ..Default::default() };
        let doc = generate_document(&spec);
        assert_eq!(doc.depth(crate::DataNodeId(19)), 19);
    }

    #[test]
    fn extra_types_appear_when_probability_is_one() {
        let spec =
            DocumentSpec { nodes: 50, extra_type_prob: 1.0, num_types: 2, ..Default::default() };
        let doc = generate_document(&spec);
        // The extra draw excludes the primary, so probability 1.0 means
        // every non-root node is multi-typed — no silent no-ops.
        for id in doc.ids().skip(1) {
            assert_eq!(doc.types(id).len(), 2, "{id} should carry an extra type");
        }
    }

    #[test]
    fn realized_multi_typing_rate_tracks_probability() {
        let spec = DocumentSpec {
            nodes: 2000,
            extra_type_prob: 0.5,
            num_types: 3,
            seed: 7,
            ..Default::default()
        };
        let doc = generate_document(&spec);
        let multi = doc.ids().skip(1).filter(|&id| doc.types(id).len() > 1).count();
        let rate = multi as f64 / (spec.nodes - 1) as f64;
        // Binomial(1999, 0.5): ±0.05 is > 4 sigma. Before the redraw fix
        // the realized rate was prob * (1 - 1/num_types) ≈ 0.33.
        assert!((rate - 0.5).abs() < 0.05, "realized rate {rate}");
    }

    #[test]
    fn single_type_documents_never_multi_type() {
        let spec =
            DocumentSpec { nodes: 50, extra_type_prob: 1.0, num_types: 1, ..Default::default() };
        let doc = generate_document(&spec);
        for id in doc.ids() {
            assert_eq!(doc.types(id).len(), 1);
        }
    }

    #[test]
    fn stream_xml_is_deterministic_and_reingests() {
        let spec = XmlStreamSpec { nodes: 5_000, seed: 11, ..Default::default() };
        let mut a = Vec::new();
        let bytes = stream_xml_to(&spec, &mut a).unwrap();
        assert_eq!(bytes, a.len() as u64);
        let mut b = Vec::new();
        stream_xml_to(&spec, &mut b).unwrap();
        assert_eq!(a, b, "same spec, same bytes");

        let mut tys = tpq_base::TypeInterner::new();
        let doc = crate::parse_xml_reader(&a[..], &mut tys).unwrap();
        assert_eq!(doc.len(), spec.nodes);
        doc.validate().unwrap();
        for id in doc.ids() {
            assert!(doc.children(id).count() <= spec.max_fanout);
            for &t in doc.types(id) {
                let name = tys.name(t);
                let idx: usize = name.strip_prefix('t').unwrap().parse().unwrap();
                assert!(idx < spec.num_types, "unexpected type {name}");
            }
        }
        // The chunked reader and the slice parser agree on the output.
        let mut tys2 = tpq_base::TypeInterner::new();
        let via_slice = crate::parse_xml(std::str::from_utf8(&a).unwrap(), &mut tys2).unwrap();
        assert_eq!(doc, via_slice);
    }

    #[test]
    fn stream_xml_multi_types_and_attrs_appear() {
        let spec = XmlStreamSpec {
            nodes: 200,
            extra_type_prob: 1.0,
            attr_prob: 1.0,
            num_types: 3,
            seed: 3,
            ..Default::default()
        };
        let mut out = Vec::new();
        stream_xml_to(&spec, &mut out).unwrap();
        let mut tys = tpq_base::TypeInterner::new();
        let doc = crate::parse_xml_reader(&out[..], &mut tys).unwrap();
        let v = tys.lookup("v").unwrap();
        for id in doc.ids() {
            assert_eq!(doc.types(id).len(), 2, "{id} must be multi-typed");
            assert!(doc.attr(id, v).is_some(), "{id} must carry v=");
        }
    }

    #[test]
    fn stream_xml_single_node_and_chain_edge_cases() {
        for spec in [
            XmlStreamSpec { nodes: 1, ..Default::default() },
            XmlStreamSpec { nodes: 40, max_fanout: 1, ..Default::default() },
            XmlStreamSpec { nodes: 17, num_types: 1, ..Default::default() },
        ] {
            let mut out = Vec::new();
            stream_xml_to(&spec, &mut out).unwrap();
            let mut tys = tpq_base::TypeInterner::new();
            let doc = crate::parse_xml_reader(&out[..], &mut tys).unwrap();
            assert_eq!(doc.len(), spec.nodes, "{spec:?}");
            doc.validate().unwrap();
        }
    }

    #[test]
    fn types_stay_in_range() {
        let spec = DocumentSpec { nodes: 100, num_types: 3, ..Default::default() };
        let doc = generate_document(&spec);
        for id in doc.ids() {
            for &t in doc.types(id) {
                assert!(t.0 < 3);
            }
        }
    }
}
