//! Rooted-tree isomorphism and canonical keys.
//!
//! The paper's uniqueness theorems (4.1, 5.1) state that minimal equivalent
//! queries are unique *up to isomorphism*. Two patterns are isomorphic when
//! a bijection between their alive nodes preserves the parent relation, the
//! edge kinds, the full type sets, the conditions, the output marker and
//! the temporary flag.
//!
//! We decide this with the classic canonical-encoding construction: encode
//! every subtree with its children sorted by their own encodings, then
//! compare root encodings. Sorting makes sibling order immaterial — tree
//! patterns are unordered (Section 2.1: "we do not consider order in our
//! queries").
//!
//! # Key format
//!
//! A [`CanonicalKey`] is a byte string: the pre-order serialization of the
//! alive nodes, in which every node's children appear in ascending order
//! of their own serializations, compared as byte slices. Each node writes
//! a header and then its children:
//!
//! ```text
//! flags   u8      bit 0: output marker, bit 1: temporary,
//!                 bit 2: `//` edge from the parent (never set on the root)
//! types   varint n, then n type ids as varints, ascending (the full set)
//! conds   varint m, then m distinct normalized conditions, ascending by
//!         their bytes: attr varint, op u8, then the value as
//!         0 + zigzag varint (integer) or 1 + varint length + UTF-8 bytes
//! arity   varint k, the number of alive children; k child encodings follow
//! ```
//!
//! Varints are unsigned LEB128. Every field is fixed-width or
//! length-prefixed, so a key is **self-delimiting**: it decodes to exactly
//! one ordered tree, so equal keys mean isomorphic patterns. Because
//! children are sorted, isomorphic patterns in turn get equal keys
//! whatever their sibling order or node ids. No hash is involved anywhere,
//! so two keys can never be equal by collision. Type and attribute ids are
//! raw [`TypeId`](tpq_base::TypeId) numbers: a key is meaningful only
//! relative to the [`TypeInterner`](tpq_base::TypeInterner) that assigned
//! them.
//!
//! The encoder writes into one reusable per-thread buffer. A subtree's
//! encoding is contiguous in that buffer, so sorting a node's children
//! rewrites only the block they occupy, and only when they are out of
//! order. The walk is iterative, so depth is not stack-bounded.

use crate::node::{EdgeKind, NodeId};
use crate::pattern::TreePattern;
use std::cell::RefCell;
use std::ops::Range;

/// An exact cache key for a pattern: two patterns have equal keys **iff**
/// they are isomorphic (within one type interner). The bytes follow the
/// [key format](self#key-format); there is no hash, so no collisions are
/// possible — batch memo caches can trust equality.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalKey(Box<[u8]>);

impl CanonicalKey {
    /// The underlying canonical encoding.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Rebuild a key from an encoding captured earlier with
    /// [`CanonicalKey::as_bytes`] — the deserialization half of cache
    /// snapshots.
    ///
    /// The bytes are **not** re-validated: the caller must guarantee they
    /// came from [`TreePattern::canonical_key`] under the *same*
    /// [`TypeId`] ↔ name assignment (same interner, or one restored to an
    /// identical state). A key rebuilt under a different assignment can
    /// collide with a different pattern's key and serve wrong cached
    /// answers.
    ///
    /// [`TypeId`]: tpq_base::TypeId
    pub fn from_bytes(encoding: Vec<u8>) -> CanonicalKey {
        CanonicalKey(encoding.into_boxed_slice())
    }
}

impl TreePattern {
    /// The canonical key of this pattern: equal keys ⇔ isomorphic
    /// patterns. Cost is one iterative walk plus a sort of each node's
    /// children by their encodings; cache the key when keying repeated
    /// lookups.
    pub fn canonical_key(&self) -> CanonicalKey {
        ENCODER.with(|cell| {
            let mut encoder = cell.borrow_mut();
            encoder.encode(self);
            let key = CanonicalKey(encoder.key.as_slice().into());
            if self.arena_len() > KEEP_BUFFERS_NODES {
                *encoder = Encoder::default(); // do not pin one huge pattern's buffers
            }
            key
        })
    }
}

/// Whether two patterns are isomorphic (as unordered, typed, marked trees).
pub fn isomorphic(a: &TreePattern, b: &TreePattern) -> bool {
    a.size() == b.size() && a.canonical_key() == b.canonical_key()
}

/// Each thread keeps its encoder buffers for the next key, unless they
/// grew for a pattern larger than this.
const KEEP_BUFFERS_NODES: usize = 4096;

thread_local! {
    static ENCODER: RefCell<Encoder> = RefCell::new(Encoder::default());
}

enum Step {
    Enter(NodeId),
    /// The node whose header starts at `start` is finished once its
    /// `arity` children are.
    Exit {
        start: usize,
        arity: usize,
    },
}

/// The encoder's reusable state.
#[derive(Default)]
struct Encoder {
    /// The key under construction.
    key: Vec<u8>,
    stack: Vec<Step>,
    /// Start offsets of finished subtrees whose parent is not finished
    /// yet; a node's children are the last `arity` entries at its exit.
    done: Vec<usize>,
    /// Ranges being sorted: one node's conditions or children.
    ranges: Vec<Range<usize>>,
    /// Staging bytes for those ranges.
    tmp: Vec<u8>,
}

impl Encoder {
    fn encode(&mut self, p: &TreePattern) {
        self.key.clear();
        self.done.clear();
        self.stack.clear();
        self.stack.push(Step::Enter(p.root()));
        while let Some(step) = self.stack.pop() {
            match step {
                Step::Enter(id) => {
                    let start = self.key.len();
                    let arity = self.write_header(p, id);
                    self.stack.push(Step::Exit { start, arity });
                    // Reversed so that the children pop in insertion order.
                    let first = self.stack.len();
                    self.stack.extend(p.children(id).map(Step::Enter));
                    self.stack[first..].reverse();
                }
                Step::Exit { start, arity } => {
                    self.sort_children(arity);
                    self.done.push(start);
                }
            }
        }
    }

    /// Write the header of `id` and return its number of alive children.
    fn write_header(&mut self, p: &TreePattern, id: NodeId) -> usize {
        let node = p.node(id);
        let descendant = id != p.root() && node.edge == EdgeKind::Descendant;
        self.key.push(
            u8::from(node.output) | u8::from(node.temporary) << 1 | u8::from(descendant) << 2,
        );
        // Full type set, not just the primary type: augmentation-added
        // types are semantically meaningful while present.
        put_varint(&mut self.key, node.types.len() as u64);
        for t in node.types.iter() {
            put_varint(&mut self.key, u64::from(t.0));
        }
        self.ranges.clear();
        self.tmp.clear();
        for c in p.conditions(id) {
            let start = self.tmp.len();
            put_condition(&mut self.tmp, c);
            self.ranges.push(start..self.tmp.len());
        }
        let tmp = &self.tmp;
        self.ranges.sort_unstable_by(|a, b| tmp[a.clone()].cmp(&tmp[b.clone()]));
        self.ranges.dedup_by(|a, b| tmp[a.clone()] == tmp[b.clone()]);
        put_varint(&mut self.key, self.ranges.len() as u64);
        for r in &self.ranges {
            self.key.extend_from_slice(&tmp[r.clone()]);
        }
        let arity = p.children(id).count();
        put_varint(&mut self.key, arity as u64);
        arity
    }

    /// Put the node's finished children — its last `arity` subtrees,
    /// back to back at the end of `key` — in ascending byte order, and
    /// pop them off `done`.
    fn sort_children(&mut self, arity: usize) {
        let Encoder { key, done, ranges, tmp, .. } = self;
        let first = done.len() - arity;
        ranges.clear();
        for (i, &start) in done[first..].iter().enumerate() {
            let end = done.get(first + i + 1).copied().unwrap_or(key.len());
            ranges.push(start..end);
        }
        done.truncate(first);
        if ranges.windows(2).all(|w| key[w[0].clone()] <= key[w[1].clone()]) {
            return;
        }
        let start = ranges[0].start;
        ranges.sort_unstable_by(|a, b| key[a.clone()].cmp(&key[b.clone()]));
        tmp.clear();
        for r in ranges.iter() {
            tmp.extend_from_slice(&key[r.clone()]);
        }
        key[start..].copy_from_slice(tmp);
    }
}

/// One condition, normalized (`< v` → `<= v-1`, `> v` → `>= v+1`).
fn put_condition(out: &mut Vec<u8>, c: &crate::Condition) {
    let c = c.normalized();
    put_varint(out, u64::from(c.attr.0));
    out.push(c.op as u8);
    match &c.value {
        &tpq_base::Value::Int(v) => {
            out.push(0);
            put_varint(out, ((v << 1) ^ (v >> 63)) as u64); // zigzag
        }
        tpq_base::Value::Str(s) => {
            out.push(1);
            put_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// Unsigned LEB128.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_pattern;
    use tpq_base::{Cmp, TypeInterner};

    fn p(s: &str, tys: &mut TypeInterner) -> TreePattern {
        parse_pattern(s, tys).unwrap()
    }

    #[test]
    fn sibling_order_is_immaterial() {
        let mut tys = TypeInterner::new();
        let a = p("r*[/a][//b]/c", &mut tys);
        let b = p("r*[//b][/c]/a", &mut tys);
        assert!(isomorphic(&a, &b));
    }

    #[test]
    fn edge_kind_distinguishes() {
        let mut tys = TypeInterner::new();
        let a = p("r/a", &mut tys);
        let b = p("r//a", &mut tys);
        assert!(!isomorphic(&a, &b));
    }

    #[test]
    fn output_position_distinguishes() {
        let mut tys = TypeInterner::new();
        let a = p("r*/a", &mut tys);
        let b = p("r/a*", &mut tys);
        assert!(!isomorphic(&a, &b));
    }

    #[test]
    fn type_distinguishes() {
        let mut tys = TypeInterner::new();
        let a = p("r/a", &mut tys);
        let b = p("r/b", &mut tys);
        assert!(!isomorphic(&a, &b));
    }

    #[test]
    fn size_mismatch_short_circuits() {
        let mut tys = TypeInterner::new();
        let a = p("r/a", &mut tys);
        let b = p("r/a/a", &mut tys);
        assert!(!isomorphic(&a, &b));
    }

    #[test]
    fn identical_deep_trees_match_after_tombstoning() {
        let mut tys = TypeInterner::new();
        let mut a = p("r*[/a][/b/c]//d", &mut tys);
        let b_full = p("r*[/a][/b/c]//d", &mut tys);
        // Remove and re-add a node: ids differ, isomorphism holds.
        let d = *a
            .leaves()
            .iter()
            .find(|&&l| a.node(l).primary == b_full.node(b_full.leaves()[2]).primary)
            .unwrap();
        let ty = a.node(d).primary;
        let edge = a.node(d).edge;
        let parent = a.node(d).parent.unwrap();
        a.remove_leaf(d).unwrap();
        a.add_child(parent, edge, ty);
        assert!(isomorphic(&a, &b_full));
    }

    #[test]
    fn temporary_flag_distinguishes() {
        let mut tys = TypeInterner::new();
        let mut a = p("r", &mut tys);
        let mut b = p("r", &mut tys);
        let t = tys.intern("x");
        a.add_child(a.root(), crate::EdgeKind::Child, t);
        b.add_temp_child(b.root(), crate::EdgeKind::Child, t);
        assert!(!isomorphic(&a, &b));
    }

    #[test]
    fn extra_types_distinguish() {
        let mut tys = TypeInterner::new();
        let a = p("r/a", &mut tys);
        let mut b = p("r/a", &mut tys);
        let extra = tys.intern("zz");
        let child = b.children(b.root()).next().unwrap();
        b.node_mut(child).types.insert(extra);
        assert!(!isomorphic(&a, &b));
    }

    #[test]
    fn canonical_key_is_stable_under_clone() {
        let mut tys = TypeInterner::new();
        let a = p("r*[/a][//b[/c]]/d", &mut tys);
        assert_eq!(a.canonical_key(), a.clone().canonical_key());
    }

    #[test]
    fn canonical_key_agrees_with_isomorphism() {
        let mut tys = TypeInterner::new();
        let a = p("r*[/a][//b]/c", &mut tys);
        let b = p("r*[//b][/c]/a", &mut tys);
        let c = p("r*[//b][/c]/d", &mut tys);
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert_ne!(a.canonical_key(), c.canonical_key());
        let bytes = a.canonical_key().as_bytes().to_vec();
        assert_eq!(CanonicalKey::from_bytes(bytes), a.canonical_key());
        // Usable as a hash-map key.
        let mut map = std::collections::HashMap::new();
        map.insert(a.canonical_key(), 1);
        assert_eq!(map.get(&b.canonical_key()), Some(&1));
    }

    #[test]
    fn key_bytes_follow_the_documented_format() {
        let mut tys = TypeInterner::new();
        let a = p("r*//a{x<3}", &mut tys); // r = t0, a = t1, x = t2
        let key = a.canonical_key();
        #[rustfmt::skip]
        let want = [
            0b001, 1, 0, 0, 1,                 // root: output; {t0}; no conds; 1 child
            0b100, 1, 1, 1, 2, Cmp::Le as u8, 0, 4, 0, // `//`; {t1}; x <= 2 (zigzag 4); leaf
        ];
        assert_eq!(key.as_bytes(), want);
    }

    #[test]
    fn deep_and_wide_patterns_encode_iteratively() {
        let mut tys = TypeInterner::new();
        let ty = tys.intern("n");
        let mut chain = p("r*", &mut tys);
        let mut at = chain.root();
        for _ in 0..10_000 {
            at = chain.add_child(at, crate::EdgeKind::Descendant, ty);
        }
        assert_eq!(chain.canonical_key().as_bytes().len(), 10_001 * 5);
        let mut fan = p("r*", &mut tys);
        let other = tys.intern("m");
        for i in 0..10_000 {
            fan.add_child(fan.root(), crate::EdgeKind::Child, if i % 2 == 0 { ty } else { other });
        }
        let mut flipped = p("r*", &mut tys);
        for i in 0..10_000 {
            flipped.add_child(
                flipped.root(),
                crate::EdgeKind::Child,
                if i % 2 == 0 { other } else { ty },
            );
        }
        assert!(isomorphic(&fan, &flipped));
    }
}
