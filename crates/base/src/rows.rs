//! Bit rows over a pre-ordered tree: the one candidate-pruning kernel of
//! the document matcher, the minimization engine and the containment
//! test (Gottlob, Koch and Schulz, "Conjunctive Queries over Trees").
//!
//! A set of nodes is one row: ⌈n/64⌉ `u64` words, node `u` at bit `u % 64`
//! of word `u / 64`. Node ids are pre-order ranks, so the subtree of `u` is
//! the interval `u ..= subtree_end(u)` and no ancestor table is needed:
//! [`keep_parents`] prunes a row against a child's row over either edge
//! kind, and [`below`] lists the members that fit under one image. A first
//! child's id is its parent's plus one, so over a child edge the first
//! children of a row give their parents a word at a time, by a shift.

/// A tree whose node ids are pre-order ranks `0..n`.
pub trait PreOrderTree {
    /// The parent of `u` when `u` hangs by a child edge; `None` for the
    /// root and for a node that hangs by a descendant edge.
    fn c_parent(&self, u: u32) -> Option<u32>;
    /// The last id of `u`'s subtree (`u` itself for a leaf).
    fn subtree_end(&self, u: u32) -> u32;
    /// The first children as a row: the nodes `c` with
    /// `c_parent(c) == Some(c - 1)`.
    fn first_children(&self) -> &[u64];
}

/// Fixed-width rows stored back to back in one allocation.
#[derive(Debug, Clone)]
pub struct Rows {
    words: usize,
    bits: Vec<u64>,
}

impl Rows {
    /// `rows` empty rows over `bits` nodes each.
    pub fn new(rows: usize, bits: usize) -> Rows {
        let words = bits.div_ceil(64);
        Rows { words, bits: vec![0; rows * words] }
    }

    /// Words per row.
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// Row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words..(i + 1) * self.words]
    }

    /// Row `i`, mutably.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.bits[i * self.words..(i + 1) * self.words]
    }

    /// Row `i` mutably beside row `j`; panics if `i == j`.
    #[inline]
    pub fn row_with(&mut self, i: usize, j: usize) -> (&mut [u64], &[u64]) {
        let w = self.words;
        let (lo, hi) = self.bits.split_at_mut(i.max(j) * w);
        let (low, high) = (&mut lo[i.min(j) * w..][..w], &mut hi[..w]);
        if i < j {
            (low, high)
        } else {
            (high, low)
        }
    }
}

/// Is `u` a member of `row`?
#[inline]
pub fn has(row: &[u64], u: u32) -> bool {
    row[u as usize / 64] & (1 << (u % 64)) != 0
}

/// Add `u` to `row`.
#[inline]
pub fn set(row: &mut [u64], u: u32) {
    row[u as usize / 64] |= 1 << (u % 64);
}

/// Remove `u` from `row`.
#[inline]
pub fn clear(row: &mut [u64], u: u32) {
    row[u as usize / 64] &= !(1 << (u % 64));
}

/// Add the members `lo .. hi` to `row`.
pub fn set_range(row: &mut [u64], lo: usize, hi: usize) {
    if lo >= hi {
        return;
    }
    let (first, last) = (lo / 64, (hi - 1) / 64);
    let head = !0u64 << (lo % 64);
    let tail = !0u64 >> (63 - (hi - 1) % 64);
    if first == last {
        row[first] |= head & tail;
    } else {
        row[first] |= head;
        row[first + 1..last].fill(!0);
        row[last] |= tail;
    }
}

/// Has `row` no member?
#[inline]
pub fn is_empty(row: &[u64]) -> bool {
    row.iter().all(|&w| w == 0)
}

/// The number of members of `row`.
#[inline]
pub fn count(row: &[u64]) -> u64 {
    row.iter().map(|w| u64::from(w.count_ones())).sum()
}

/// `row &= mask`; returns whether `row` lost a member.
#[inline]
pub fn and_into(row: &mut [u64], mask: &[u64]) -> bool {
    let mut changed = false;
    for (r, &m) in row.iter_mut().zip(mask) {
        changed |= *r & !m != 0;
        *r &= m;
    }
    changed
}

/// The members of `row` from `from` on, ascending; `.next()` is the
/// successor lookup.
#[inline]
pub fn ones(row: &[u64], from: usize) -> Ones<'_> {
    let word = from / 64;
    let bits = row.get(word).map_or(0, |&w| w & (!0 << (from % 64)));
    Ones { row, word, bits }
}

/// Iterator behind [`ones`].
#[derive(Debug, Clone)]
pub struct Ones<'r> {
    row: &'r [u64],
    /// Index of the word `bits` came from.
    word: usize,
    /// The not yet visited members of that word.
    bits: u64,
}

impl Iterator for Ones<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = *self.row.get(self.word)?;
        }
        let bit = self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        Some(self.word as u32 * 64 + bit)
    }
}

/// Clear the members of `row` that `keep` rejects, offering them in
/// ascending order; returns how many it offered.
pub fn retain(row: &mut [u64], mut keep: impl FnMut(u32) -> bool) -> u64 {
    let mut seen = 0;
    for (w, word) in (0u32..).zip(row.iter_mut()) {
        let (mut bits, mut kept) = (*word, 0);
        while bits != 0 {
            let bit = bits.trailing_zeros();
            bits &= bits - 1;
            seen += 1;
            kept |= u64::from(keep(w * 64 + bit)) << bit;
        }
        *word = kept;
    }
    seen
}

/// One edge step of the bottom-up pruning: keep the members of `row` that
/// can image the parent of a child whose candidates are `child_row`.
///
/// * Child edge (`child_edge`): the parents of the members of `child_row`
///   that hang by a child edge, gathered in `scratch` (one row). A first
///   child's parent is the node just before it, so the first-child
///   members give their parents a word at a time, shifted down one bit;
///   only the other members are scattered one by one.
/// * Descendant edge: the members `u` whose subtree holds a member of
///   `child_row` strictly below `u`, i.e. whose successor in `child_row`
///   is at most `subtree_end(u)`.
///
/// Returns the members visited (of `child_row` for a child edge, of `row`
/// for a descendant edge) and whether `row` lost a member.
pub fn keep_parents(
    tree: &impl PreOrderTree,
    child_edge: bool,
    row: &mut [u64],
    child_row: &[u64],
    scratch: &mut [u64],
) -> (u64, bool) {
    if child_edge {
        let first = tree.first_children();
        debug_assert_eq!(first.len(), child_row.len(), "one first-children row per tree");
        scratch.fill(0);
        let mut seen = 0;
        for (w, &members) in child_row.iter().enumerate() {
            if members == 0 {
                continue;
            }
            seen += u64::from(members.count_ones());
            // Bit 0 of a word is the first child of bit 63 of the word
            // before; the root, bit 0 of word 0, is never a first child.
            let firsts = members & first[w];
            scratch[w] |= firsts >> 1;
            if w > 0 {
                scratch[w - 1] |= firsts << 63;
            }
            let mut rest = members & !firsts;
            while rest != 0 {
                let c = w as u32 * 64 + rest.trailing_zeros();
                rest &= rest - 1;
                if let Some(p) = tree.c_parent(c) {
                    set(scratch, p);
                }
            }
        }
        return (seen, and_into(row, scratch));
    }
    // `u`'s successor in `child_row` is in `u`'s word or is `after`, the
    // first member past that word, recomputed only once `u`'s word
    // reaches it.
    let mut after = 0;
    let mut dropped = false;
    let seen = retain(row, |u| {
        let word = u as usize / 64;
        if after < (word + 1) * 64 {
            after = ones(child_row, (word + 1) * 64).next().map_or(usize::MAX, |c| c as usize);
        }
        let above = child_row[word] & (!1 << (u % 64));
        let next = if above != 0 { word * 64 + above.trailing_zeros() as usize } else { after };
        let keep = next <= tree.subtree_end(u) as usize;
        dropped |= !keep;
        keep
    });
    (seen, dropped)
}

/// The members of `row` one edge below `image`, ascending: its children
/// that hang by a child edge (`child_edge`), else its proper descendants.
pub fn below<'r, T: PreOrderTree>(
    tree: &'r T,
    child_edge: bool,
    image: u32,
    row: &'r [u64],
) -> impl Iterator<Item = u32> + 'r {
    let end = tree.subtree_end(image);
    ones(row, image as usize + 1)
        .take_while(move |&u| u <= end)
        .filter(move |&u| !child_edge || tree.c_parent(u) == Some(image))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pre-order tree given as parent and subtree-end columns; every
    /// edge is a child edge unless listed in `d_edges`.
    struct Tree {
        parent: Vec<Option<u32>>,
        end: Vec<u32>,
        d_edges: Vec<u32>,
        /// Derived from the columns above.
        first: Vec<u64>,
    }

    impl Tree {
        fn new(parent: Vec<Option<u32>>, end: Vec<u32>, d_edges: Vec<u32>) -> Tree {
            let mut tree = Tree { first: vec![0; parent.len().div_ceil(64)], parent, end, d_edges };
            for c in 1..tree.parent.len() as u32 {
                if tree.c_parent(c) == Some(c - 1) {
                    set(&mut tree.first, c);
                }
            }
            tree
        }
    }

    impl PreOrderTree for Tree {
        fn c_parent(&self, u: u32) -> Option<u32> {
            self.parent[u as usize].filter(|_| !self.d_edges.contains(&u))
        }

        fn subtree_end(&self, u: u32) -> u32 {
            self.end[u as usize]
        }

        fn first_children(&self) -> &[u64] {
            &self.first
        }
    }

    /// A chain `0 - 1 - … - (n-1)`, each node the parent of the next.
    fn chain(n: u32, d_edges: Vec<u32>) -> Tree {
        Tree::new((0..n).map(|u| u.checked_sub(1)).collect(), vec![n - 1; n as usize], d_edges)
    }

    fn row_of(bits: usize, members: &[u32]) -> Vec<u64> {
        let mut row = vec![0; bits.div_ceil(64)];
        members.iter().for_each(|&u| set(&mut row, u));
        row
    }

    #[test]
    fn row_iteration_crosses_word_boundaries() {
        let members = [0, 1, 63, 64, 127, 192, 255];
        let mut row = row_of(256, &members);
        assert_eq!(ones(&row, 0).collect::<Vec<_>>(), members, "ascending, past an empty word");
        assert_eq!(count(&row), members.len() as u64);
        for u in 0..256 {
            assert_eq!(has(&row, u), members.contains(&u), "bit {u}");
        }
        assert_eq!(ones(&row, 2).next(), Some(63));
        assert_eq!(ones(&row, 64).collect::<Vec<_>>(), [64, 127, 192, 255]);
        assert_eq!(ones(&row, 128).next(), Some(192));
        assert_eq!(ones(&row, 256).next(), None);
        clear(&mut row, 64);
        clear(&mut row, 0);
        assert_eq!(ones(&row, 0).next(), Some(1));
        clear(&mut row, 63);
        clear(&mut row, 127);
        assert_eq!(ones(&row, 0).collect::<Vec<_>>(), [1, 192, 255]);
        assert_eq!(ones(&[0, 0], 0).next(), None);
        assert_eq!(ones(&[], 0).next(), None);
        assert_eq!(ones(&[u64::MAX], 0).count(), 64);
        assert!(is_empty(&[0, 0]) && !is_empty(&row));
    }

    #[test]
    fn ranges_and_masks_cross_word_boundaries() {
        for (lo, hi) in [(0, 0), (3, 4), (60, 70), (63, 129), (0, 192), (64, 128)] {
            let mut row = vec![0; 3];
            set_range(&mut row, lo, hi);
            assert_eq!(
                ones(&row, 0).collect::<Vec<_>>(),
                (lo as u32..hi as u32).collect::<Vec<_>>()
            );
        }
        let mut row = row_of(130, &[5, 63, 64, 129]);
        assert!(and_into(&mut row, &row_of(130, &[5, 64, 100])));
        assert_eq!(ones(&row, 0).collect::<Vec<_>>(), [5, 64]);
        assert!(!and_into(&mut row, &row_of(130, &[5, 64])));
        let mut odd = row_of(130, &[1, 63, 64, 65, 129]);
        assert_eq!(retain(&mut odd, |u| u % 2 == 1), 5);
        assert_eq!(ones(&odd, 0).collect::<Vec<_>>(), [1, 63, 65, 129]);
        let mut rows = Rows::new(3, 130);
        assert_eq!(rows.words(), 3);
        rows.row_mut(2).copy_from_slice(&odd);
        let (first, last) = rows.row_with(0, 2);
        first.copy_from_slice(last);
        let (last, first) = rows.row_with(2, 0);
        clear(last, 1);
        assert_eq!(ones(first, 0).count(), 4);
        assert_eq!((0..3).map(|i| count(rows.row(i))).sum::<u64>(), 7);
    }

    #[test]
    fn edge_steps_on_a_chain_across_word_boundaries() {
        // Node `u`'s child is `u + 1`, by a descendant edge at 64 and 128.
        let tree = chain(130, vec![64, 128]);
        for child in [62u32, 63, 64, 65, 127, 128, 129] {
            let below = row_of(130, &[child]);
            let mut row = row_of(130, &(0..130).collect::<Vec<_>>());
            let mut scratch = vec![0; 3];
            assert_eq!(keep_parents(&tree, true, &mut row, &below, &mut scratch), (1, true));
            let want: Vec<u32> = tree.c_parent(child).into_iter().collect();
            assert_eq!(ones(&row, 0).collect::<Vec<_>>(), want, "c-parent of {child}");
            let mut row = row_of(130, &(0..130).collect::<Vec<_>>());
            assert_eq!(keep_parents(&tree, false, &mut row, &below, &mut scratch), (130, true));
            assert_eq!(ones(&row, 0).collect::<Vec<_>>(), (0..child).collect::<Vec<_>>());
            for u in 0..130 {
                let d: Vec<u32> = super::below(&tree, false, u, &below).collect();
                assert_eq!(d, if u < child { vec![child] } else { vec![] }, "below {u}");
                let c = super::below(&tree, true, u, &below).next();
                assert_eq!(c, Some(child).filter(|_| tree.c_parent(child) == Some(u)), "{u}");
            }
        }
    }

    /// A random pre-order tree of `n` nodes: each node hangs under a node
    /// on the path from the root to its predecessor, by a descendant edge
    /// with probability `d`.
    fn random_tree(rng: &mut crate::SmallRng, n: u32, d: f64) -> Tree {
        let mut parent = vec![None];
        let mut path = vec![0u32];
        for u in 1..n {
            path.truncate(rng.gen_range(1..path.len() + 1));
            parent.push(path.last().copied());
            path.push(u);
        }
        let mut end: Vec<u32> = (0..n).collect();
        for u in (1..n as usize).rev() {
            let p = parent[u].expect("a non-root node has a parent") as usize;
            end[p] = end[p].max(end[u]);
        }
        let d_edges = (1..n).filter(|_| rng.gen_bool(d)).collect();
        Tree::new(parent, end, d_edges)
    }

    #[test]
    fn child_step_agrees_with_a_per_member_scatter() {
        let mut rng = crate::SmallRng::seed_from_u64(29);
        for round in 0..600 {
            let n = if round < 300 { round + 1 } else { rng.gen_range(1..301) };
            let tree = random_tree(&mut rng, n, [0.0, 0.2, 0.6][round as usize % 3]);
            let density = [0.02, 0.3, 0.9][round as usize / 3 % 3];
            let mut members: Vec<u32> = (0..n).filter(|_| rng.gen_bool(density)).collect();
            // The bits either side of each word boundary, and the last word.
            members.extend([63, 64, 127, 128, n - 1].into_iter().filter(|&u| u < n));
            let child_row = row_of(n as usize, &members);
            let row = row_of(n as usize, &(0..n).filter(|_| rng.gen_bool(0.7)).collect::<Vec<_>>());
            let mut want = vec![0; row.len()];
            for c in ones(&child_row, 0) {
                if let Some(p) = tree.c_parent(c) {
                    set(&mut want, p);
                }
            }
            let mut kept = row.clone();
            let want_changed = and_into(&mut kept, &want);
            let mut got = row.clone();
            let mut scratch = vec![!0; row.len()];
            let step = keep_parents(&tree, true, &mut got, &child_row, &mut scratch);
            assert_eq!(step, (count(&child_row), want_changed), "round {round}, {n} nodes");
            assert_eq!(got, kept, "round {round}, {n} nodes");
        }
    }

    #[test]
    fn descendant_step_respects_subtree_ends() {
        // 0 has children 1 (subtree 1..=64) and 65 (subtree 65..=129);
        // 1's subtree is the chain 1..=64, 65's the chain 65..=129.
        let mut parent: Vec<Option<u32>> = (0..130).map(|u: u32| u.checked_sub(1)).collect();
        parent[65] = Some(0);
        let mut end = vec![64; 130];
        end[0] = 129;
        end[65..].fill(129);
        let tree = Tree::new(parent, end, Vec::new());
        let below = row_of(130, &[64, 129]);
        let mut scratch = vec![0; 3];
        let mut row = row_of(130, &[0, 1, 63, 64, 65, 128, 129]);
        assert_eq!(keep_parents(&tree, false, &mut row, &below, &mut scratch), (7, true));
        assert_eq!(ones(&row, 0).collect::<Vec<_>>(), [0, 1, 63, 65, 128]);
        let below = row_of(130, &[65]);
        let mut row = row_of(130, &[0, 1, 64, 65]);
        assert_eq!(keep_parents(&tree, false, &mut row, &below, &mut scratch), (4, true));
        assert_eq!(ones(&row, 0).collect::<Vec<_>>(), [0], "65 is not below 1 or 64");
        let mut row = row_of(130, &[0, 1, 64]);
        assert_eq!(keep_parents(&tree, true, &mut row, &below, &mut scratch), (1, true));
        assert_eq!(ones(&row, 0).collect::<Vec<_>>(), [0]);
    }
}
