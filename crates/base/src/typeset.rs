//! Small sorted sets of [`TypeId`]s.
//!
//! Data nodes carry a *set* of types (Section 2.2 of the paper: "every
//! employee entry must also belong to the type person"), and the chase of
//! co-occurrence constraints adds types to pattern nodes. These sets are
//! almost always tiny (1–4 elements), so a sorted array beats a hash set in
//! both space and time.
//!
//! A set of up to [`TypeSet::INLINE`] ids lives inline, in the 32 bytes of
//! the value itself: making, cloning and dropping it touch no heap. A set
//! that grows past that spills to a sorted `Vec`, and moves back inline
//! when removals shrink it to the inline capacity again, so every set has
//! one representation per content. Equality, hashing and iteration read
//! the sorted ids only, whichever representation holds them.

use crate::TypeId;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A sorted, duplicate-free set of [`TypeId`]s.
///
/// ```
/// use tpq_base::{TypeId, TypeSet};
/// let mut s = TypeSet::singleton(TypeId(3));
/// s.insert(TypeId(1));
/// s.insert(TypeId(3)); // duplicate ignored
/// assert!(s.contains(TypeId(1)));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![TypeId(1), TypeId(3)]);
/// ```
#[derive(Clone)]
pub struct TypeSet {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    /// The first `len` ids, ascending.
    Inline { len: u8, ids: [TypeId; TypeSet::INLINE] },
    /// More than [`TypeSet::INLINE`] ids, ascending.
    Spilled(Vec<TypeId>),
}

impl TypeSet {
    /// The most ids a set holds without a heap allocation.
    pub const INLINE: usize = 7;

    /// The empty set.
    pub fn new() -> Self {
        TypeSet { repr: Repr::Inline { len: 0, ids: [TypeId(0); Self::INLINE] } }
    }

    /// A one-element set.
    pub fn singleton(ty: TypeId) -> Self {
        let mut ids = [TypeId(0); Self::INLINE];
        ids[0] = ty;
        TypeSet { repr: Repr::Inline { len: 1, ids } }
    }

    /// Insert `ty`; returns `true` if it was not already present.
    pub fn insert(&mut self, ty: TypeId) -> bool {
        let Err(pos) = self.as_slice().binary_search(&ty) else { return false };
        match &mut self.repr {
            Repr::Inline { len, ids } if usize::from(*len) < Self::INLINE => {
                ids.copy_within(pos..usize::from(*len), pos + 1);
                ids[pos] = ty;
                *len += 1;
            }
            Repr::Inline { ids, .. } => {
                let mut spilled = Vec::with_capacity(2 * Self::INLINE);
                spilled.extend_from_slice(&ids[..pos]);
                spilled.push(ty);
                spilled.extend_from_slice(&ids[pos..]);
                self.repr = Repr::Spilled(spilled);
            }
            Repr::Spilled(sorted) => sorted.insert(pos, ty),
        }
        true
    }

    /// Remove `ty`; returns `true` if it was present.
    pub fn remove(&mut self, ty: TypeId) -> bool {
        let Ok(pos) = self.as_slice().binary_search(&ty) else { return false };
        match &mut self.repr {
            Repr::Inline { len, ids } => {
                ids.copy_within(pos + 1..usize::from(*len), pos);
                *len -= 1;
            }
            Repr::Spilled(sorted) => {
                sorted.remove(pos);
                if sorted.len() <= Self::INLINE {
                    let mut ids = [TypeId(0); Self::INLINE];
                    ids[..sorted.len()].copy_from_slice(sorted);
                    self.repr = Repr::Inline { len: sorted.len() as u8, ids };
                }
            }
        }
        true
    }

    /// Membership test (binary search).
    #[inline]
    pub fn contains(&self, ty: TypeId) -> bool {
        self.as_slice().binary_search(&ty).is_ok()
    }

    /// Whether every element of `other` is in `self`.
    pub fn is_superset(&self, other: &TypeSet) -> bool {
        other.iter().all(|t| self.contains(t))
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate in ascending id order.
    #[inline]
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, TypeId>> {
        self.as_slice().iter().copied()
    }

    /// Union `other` into `self`.
    pub fn union_with(&mut self, other: &TypeSet) {
        for t in other.iter() {
            self.insert(t);
        }
    }

    /// Borrow the underlying sorted slice.
    #[inline]
    pub fn as_slice(&self) -> &[TypeId] {
        match &self.repr {
            Repr::Inline { len, ids } => &ids[..usize::from(*len)],
            Repr::Spilled(sorted) => sorted,
        }
    }

    /// Make `self` the one-element set `{ty}` in place, dropping a spilled
    /// buffer.
    pub fn reset_to(&mut self, ty: TypeId) {
        match &mut self.repr {
            Repr::Inline { len, ids } => {
                ids[0] = ty;
                *len = 1;
            }
            Repr::Spilled(_) => *self = TypeSet::singleton(ty),
        }
    }
}

impl Default for TypeSet {
    fn default() -> Self {
        TypeSet::new()
    }
}

impl PartialEq for TypeSet {
    fn eq(&self, other: &TypeSet) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for TypeSet {}

impl Hash for TypeSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for TypeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TypeSet").field("sorted", &self.as_slice()).finish()
    }
}

impl FromIterator<TypeId> for TypeSet {
    fn from_iter<I: IntoIterator<Item = TypeId>>(iter: I) -> Self {
        let mut s = TypeSet::new();
        for t in iter {
            s.insert(t);
        }
        s
    }
}

impl From<TypeId> for TypeSet {
    fn from(ty: TypeId) -> Self {
        TypeSet::singleton(ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hasher;

    fn set(ids: &[u32]) -> TypeSet {
        ids.iter().map(|&i| TypeId(i)).collect()
    }

    #[test]
    fn insert_keeps_sorted_and_dedups() {
        let mut s = TypeSet::new();
        assert!(s.insert(TypeId(5)));
        assert!(s.insert(TypeId(2)));
        assert!(!s.insert(TypeId(5)));
        assert_eq!(s.as_slice(), &[TypeId(2), TypeId(5)]);
    }

    #[test]
    fn remove_works() {
        let mut s = set(&[1, 2, 3]);
        assert!(s.remove(TypeId(2)));
        assert!(!s.remove(TypeId(2)));
        assert_eq!(s.as_slice(), &[TypeId(1), TypeId(3)]);
    }

    #[test]
    fn superset_and_union() {
        let mut a = set(&[1, 2]);
        let b = set(&[2, 3]);
        assert!(!a.is_superset(&b));
        a.union_with(&b);
        assert!(a.is_superset(&b));
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn from_iter_dedups_out_of_order_input() {
        let s: TypeSet = [TypeId(9), TypeId(0), TypeId(9)].into_iter().collect();
        assert_eq!(s.as_slice(), &[TypeId(0), TypeId(9)]);
    }

    /// `TypeId(0), TypeId(2), …`: `n` ids, inserted in descending order so
    /// every insert shifts the ones already there.
    fn evens(n: u32) -> TypeSet {
        let mut s = TypeSet::new();
        for i in (0..n).rev() {
            s.insert(TypeId(2 * i));
        }
        s
    }

    fn is_inline(s: &TypeSet) -> bool {
        matches!(s.repr, Repr::Inline { .. })
    }

    fn hash_of(s: &TypeSet) -> u64 {
        let mut h = crate::hash::FxHasher::default();
        s.hash(&mut h);
        h.finish()
    }

    #[test]
    fn inline_spill_boundary_round_trips() {
        let n = TypeSet::INLINE as u32;
        let mut s = evens(n);
        assert!(is_inline(&s), "{n} ids fit inline");
        assert_eq!(s.len(), TypeSet::INLINE);
        // The N+1th id, in the middle, spills.
        assert!(s.insert(TypeId(3)));
        assert!(!is_inline(&s), "{} ids spill", n + 1);
        assert!(!s.insert(TypeId(3)), "a duplicate does not grow a spilled set");
        assert_eq!(s.len(), TypeSet::INLINE + 1);
        assert!(s.as_slice().windows(2).all(|w| w[0] < w[1]));
        // Removing it moves the set back inline, equal to the original.
        assert!(s.remove(TypeId(3)));
        assert!(is_inline(&s));
        assert_eq!(s, evens(n));
        // Remove back to empty, from the front.
        for i in 0..n {
            assert!(s.remove(TypeId(2 * i)));
            assert_eq!(s.len(), (n - i - 1) as usize);
        }
        assert!(s.is_empty());
        assert!(!s.remove(TypeId(0)));
    }

    #[test]
    fn spilled_and_shrunk_set_agrees_with_inline_twin() {
        let mut shrunk = evens(TypeSet::INLINE as u32 + 3);
        for i in TypeSet::INLINE as u32..TypeSet::INLINE as u32 + 3 {
            shrunk.remove(TypeId(2 * i));
        }
        let inline = evens(TypeSet::INLINE as u32);
        assert_eq!(shrunk, inline);
        assert_eq!(hash_of(&shrunk), hash_of(&inline));
        assert_eq!(format!("{shrunk:?}"), format!("{inline:?}"));
        // A set still spilled hashes as its slice, like an inline one.
        let big = evens(20);
        let mut h = crate::hash::FxHasher::default();
        big.as_slice().hash(&mut h);
        assert_eq!(hash_of(&big), h.finish());
        let mut one = big.clone();
        one.reset_to(TypeId(5));
        assert!(is_inline(&one));
        assert_eq!(one, TypeSet::singleton(TypeId(5)));
    }

    #[test]
    fn matches_a_btreeset_under_random_edits() {
        use crate::SmallRng;
        use std::collections::BTreeSet;
        let mut rng = SmallRng::seed_from_u64(27);
        for _ in 0..200 {
            let (mut s, mut reference) = (TypeSet::new(), BTreeSet::new());
            for _ in 0..60 {
                let t = TypeId(rng.gen_range(0..24u32));
                match rng.gen_range(0..3u32) {
                    0 => assert_eq!(s.insert(t), reference.insert(t)),
                    1 => assert_eq!(s.remove(t), reference.remove(&t)),
                    _ => {
                        let other: TypeSet = (0..rng.gen_range(0..10u32))
                            .map(|_| TypeId(rng.gen_range(0..24u32)))
                            .collect();
                        s.union_with(&other);
                        reference.extend(other.iter());
                    }
                }
                assert!(s.iter().eq(reference.iter().copied()));
                assert_eq!(s.len(), reference.len());
                assert_eq!(is_inline(&s), s.len() <= TypeSet::INLINE);
                assert!(s.contains(t) == reference.contains(&t));
            }
        }
    }

    #[test]
    fn empty_set_properties() {
        let s = TypeSet::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.contains(TypeId(0)));
        assert!(s.is_superset(&TypeSet::new()));
    }
}
