//! The binary canonical key checked against the string canonical form it
//! replaced.
//!
//! [`reference_form`] is that earlier string encoding, kept here only as
//! an oracle. Two patterns must have equal keys exactly when their
//! reference strings are equal, on random `tpq-workload` patterns that
//! carry conditions, temporaries, extra types and a moved output marker,
//! and on shuffled rebuilds of them.

use std::fmt::Write as _;
use tpq::base::{Cmp, SmallRng, TypeId, Value};
use tpq::constraints::{Constraint, ConstraintSet};
use tpq::core::chase;
use tpq::pattern::{isomorphic, parse_pattern, Condition, NodeId, TreePattern};
use tpq::prelude::TypeInterner;
use tpq_workload::{random_pattern, PatternSpec};

/// The string canonical form: one `(…)` group per node holding its types,
/// `*`/`!` flags, sorted normalized conditions and sorted `/`- or
/// `//`-prefixed child encodings.
fn reference_form(pattern: &TreePattern) -> String {
    let mut enc: Vec<Option<String>> = vec![None; pattern.arena_len()];
    for id in pattern.post_order() {
        let s = reference_node(pattern, id, &enc);
        enc[id.index()] = Some(s);
    }
    enc[pattern.root().index()].take().expect("root encoded")
}

fn reference_node(p: &TreePattern, id: NodeId, enc: &[Option<String>]) -> String {
    let node = p.node(id);
    let mut s = String::new();
    s.push('(');
    for t in node.types.iter() {
        let _ = write!(s, "{},", t.0);
    }
    if node.output {
        s.push('*');
    }
    if node.temporary {
        s.push('!');
    }
    if !p.conditions(id).is_empty() {
        let mut conds: Vec<String> = p
            .conditions(id)
            .iter()
            .map(|c| c.normalized())
            .map(|c| format!("{}{}{};", c.attr.0, c.op, c.value))
            .collect();
        conds.sort_unstable();
        conds.dedup();
        s.push('{');
        for c in conds {
            s.push_str(&c);
        }
        s.push('}');
    }
    let mut kids: Vec<String> = p
        .children(id)
        .map(|c| {
            let mut k = String::new();
            k.push_str(p.node(c).edge.separator());
            k.push_str(enc[c.index()].as_deref().expect("post-order: child encoded"));
            k
        })
        .collect();
    kids.sort_unstable();
    for k in kids {
        s.push_str(&k);
    }
    s.push(')');
    s
}

/// A small pool, so that duplicates and `<`/`>` normalization collide:
/// `x<3` ≡ `x<=2` and `x>1` ≡ `x>=2`.
fn random_condition(rng: &mut SmallRng) -> Condition {
    const OPS: [Cmp; 6] = [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge];
    let attr = TypeId(10 + rng.gen_range(0..2u32));
    if rng.gen_bool(0.2) {
        let op = if rng.gen_bool(0.5) { Cmp::Eq } else { Cmp::Ne };
        return Condition::new(attr, op, Value::Str("a".into()));
    }
    Condition::new(
        attr,
        OPS[rng.gen_range(0..OPS.len())],
        Value::Int(i64::from(rng.gen_range(1..4u32))),
    )
}

/// Add conditions, temporary leaves, extra types and move the output
/// marker, each at random.
fn decorate(q: &mut TreePattern, rng: &mut SmallRng) {
    let ids: Vec<NodeId> = q.alive_ids().collect();
    for &id in &ids {
        while rng.gen_bool(0.3) {
            let c = random_condition(rng);
            q.add_condition(id, c);
        }
        if id != q.root() && q.node(id).is_leaf() && rng.gen_bool(0.15) {
            q.node_mut(id).temporary = true;
        }
        if rng.gen_bool(0.2) {
            q.node_mut(id).types.insert(TypeId(rng.gen_range(0..3u32)));
        }
    }
    if rng.gen_bool(0.5) {
        q.set_output(ids[rng.gen_range(0..ids.len())]);
    }
}

/// An isomorphic rebuild of `q`: every child list and condition list
/// shuffled, and node ids reassigned.
fn permuted(q: &TreePattern, rng: &mut SmallRng) -> TreePattern {
    let mut out = TreePattern::new(q.node(q.root()).primary);
    let mut map = vec![None; q.arena_len()];
    map[q.root().index()] = Some(out.root());
    let mut stack = vec![(q.root(), out.root())];
    while let Some((from, to)) = stack.pop() {
        let node = q.node(from);
        out.node_mut(to).types = node.types.clone();
        out.node_mut(to).temporary = node.temporary;
        let mut conds = q.conditions(from).to_vec();
        rng.shuffle(&mut conds);
        for c in conds {
            out.add_condition(to, c);
        }
        let mut kids: Vec<NodeId> = q.children(from).collect();
        rng.shuffle(&mut kids);
        for c in kids {
            let id = out.add_child(to, q.node(c).edge, q.node(c).primary);
            map[c.index()] = Some(id);
            stack.push((c, id));
        }
    }
    out.set_output(map[q.output().index()].expect("output is alive"));
    out
}

fn spec(seed: u64, nodes: usize) -> PatternSpec {
    PatternSpec { nodes, num_types: 2, d_edge_prob: 0.5, max_fanout: 3, seed }
}

/// Over every pair of a population dense in isomorphic pairs, keys agree
/// exactly when reference strings agree.
#[test]
fn key_equality_matches_reference_equality() {
    let mut rng = SmallRng::seed_from_u64(0x6b65_7973);
    let mut population = Vec::new();
    for seed in 0..160 {
        let mut q = random_pattern(&spec(seed, rng.gen_range(1..7usize)));
        if rng.gen_bool(0.5) {
            decorate(&mut q, &mut rng);
        }
        population.push(q);
    }
    for i in 0..60 {
        let copy = permuted(&population[i], &mut rng);
        population.push(copy);
    }
    let keys: Vec<_> = population.iter().map(TreePattern::canonical_key).collect();
    let refs: Vec<String> = population.iter().map(reference_form).collect();
    let mut equal_pairs = 0;
    for i in 0..population.len() {
        for j in i + 1..population.len() {
            let same = keys[i] == keys[j];
            assert_eq!(same, refs[i] == refs[j], "{} vs {}", refs[i], refs[j]);
            assert_eq!(same, isomorphic(&population[i], &population[j]));
            equal_pairs += usize::from(same);
        }
    }
    assert!(equal_pairs >= 60, "too few isomorphic pairs to test: {equal_pairs}");
}

/// Larger decorated patterns keep their key (and reference string) under
/// any reordering of children and conditions.
#[test]
fn keys_are_invariant_under_random_child_permutations() {
    let mut rng = SmallRng::seed_from_u64(0x7065_726d);
    for seed in 0..64 {
        let mut q = random_pattern(&PatternSpec {
            nodes: rng.gen_range(1..40usize),
            num_types: 3,
            d_edge_prob: 0.5,
            max_fanout: 4,
            seed,
        });
        decorate(&mut q, &mut rng);
        for _ in 0..3 {
            let p = permuted(&q, &mut rng);
            assert_eq!(reference_form(&p), reference_form(&q), "seed {seed}");
            assert_eq!(p.canonical_key(), q.canonical_key(), "seed {seed}");
        }
    }
}

/// One small edit of a random decorated pattern changes its key exactly
/// when it changes its reference string: a repeated condition, a strict
/// bound's non-strict twin, a flipped temporary flag, an extra type or a
/// moved output marker.
#[test]
fn single_edits_change_the_key_exactly_when_the_reference_changes() {
    let mut rng = SmallRng::seed_from_u64(0x6564_6974);
    let (mut same, mut different) = (0, 0);
    for seed in 0..200 {
        let mut q = random_pattern(&PatternSpec {
            nodes: rng.gen_range(2..20usize),
            num_types: 3,
            d_edge_prob: 0.5,
            max_fanout: 4,
            seed,
        });
        decorate(&mut q, &mut rng);
        let ids: Vec<NodeId> = q.alive_ids().collect();
        let id = ids[rng.gen_range(0..ids.len())];
        let mut edited = q.clone();
        match rng.gen_range(0..5u32) {
            // The same condition once on one side, twice on the other.
            0 => {
                let c = random_condition(&mut rng);
                q.add_condition(id, c.clone());
                edited.add_condition(id, c.clone());
                edited.add_condition(id, c);
            }
            // A bound on one side, its normalized twin on the other.
            1 => {
                let c = random_condition(&mut rng);
                edited.add_condition(id, c.normalized());
                q.add_condition(id, c);
            }
            2 if id != q.root() => {
                let temporary = edited.node(id).temporary;
                edited.node_mut(id).temporary = !temporary;
            }
            3 => {
                edited.node_mut(id).types.insert(TypeId(rng.gen_range(0..4u32)));
            }
            _ => edited.set_output(id),
        }
        let edited = permuted(&edited, &mut rng);
        if agree(&q, &edited) {
            same += 1;
        } else {
            different += 1;
        }
    }
    assert!(same >= 20 && different >= 20, "{same} unchanged, {different} changed");
}

fn agree(a: &TreePattern, b: &TreePattern) -> bool {
    let same = a.canonical_key() == b.canonical_key();
    assert_eq!(same, reference_form(a) == reference_form(b));
    same
}

#[test]
fn strict_bounds_normalize_and_duplicate_conditions_fold() {
    let mut tys = TypeInterner::new();
    let mut p = |s: &str| parse_pattern(s, &mut tys).unwrap();
    assert!(agree(&p("r*/a{x<3}"), &p("r*/a{x<=2}")));
    assert!(agree(&p("r*/a{x>1}"), &p("r*/a{x>=2}")));
    assert!(agree(&p("r*/a{x<3,x<3,x<=2}"), &p("r*/a{x<=2}")));
    assert!(agree(&p(r#"r*/a{y="s",x=1}"#), &p(r#"r*/a{x=1,y="s",x=1}"#)));
    assert!(!agree(&p("r*/a{x<3}"), &p("r*/a{x<=3}")));
    assert!(!agree(&p("r*/a{x=1}"), &p(r#"r*/a{x="1"}"#)));
    assert!(!agree(&p("r*/a{x=1}"), &p("r*/a")));
}

#[test]
fn temporaries_and_the_output_marker_distinguish() {
    let mut tys = TypeInterner::new();
    let q = parse_pattern("r*[/a][//b]", &mut tys).unwrap();
    let a = q.children(q.root()).next().unwrap();

    let mut temp = q.clone();
    temp.node_mut(a).temporary = true;
    assert!(!agree(&q, &temp));

    let mut moved = q.clone();
    moved.set_output(a);
    assert!(!agree(&q, &moved));
    assert!(agree(&moved, &parse_pattern("r[//b]/a*", &mut tys).unwrap()));
}

/// Co-occurrence constraints give nodes multi-type sets under the chase;
/// those sets, not just the primary types, are part of the key.
#[test]
fn chased_multi_type_sets_are_keyed() {
    let mut tys = TypeInterner::new();
    let q = parse_pattern("r*[/a][/b]", &mut tys).unwrap();
    let (r, a, b) = (tys.lookup("r").unwrap(), tys.lookup("a").unwrap(), tys.lookup("b").unwrap());
    let mut ics = ConstraintSet::new();
    ics.insert(Constraint::CoOccurrence(a, b));
    let chased = chase(&q, &ics);
    assert!(!agree(&q, &chased), "a gained type b");
    // The chased `a` carries {a, b}; a pattern that carries {a, b} on its
    // other child instead is isomorphic once siblings are reordered.
    let mut flipped = q.clone();
    let kids = flipped.children(flipped.root()).collect::<Vec<_>>();
    flipped.node_mut(kids[1]).types.insert(a);
    flipped.node_mut(kids[1]).primary = a;
    flipped.node_mut(kids[0]).primary = b;
    flipped.node_mut(kids[0]).types = tpq::base::TypeSet::singleton(b);
    assert!(agree(&chased, &flipped));

    // Random patterns under random co-occurrences still agree pairwise.
    let mut rng = SmallRng::seed_from_u64(0x6368_6173);
    let mut ics = ConstraintSet::new();
    ics.insert(Constraint::CoOccurrence(TypeId(0), TypeId(1)));
    ics.insert(Constraint::RequiredChild(r, TypeId(0)));
    let population: Vec<TreePattern> = (0..80)
        .map(|seed| {
            let q = random_pattern(&spec(seed, rng.gen_range(1..6usize)));
            if rng.gen_bool(0.5) {
                chase(&q, &ics)
            } else {
                q
            }
        })
        .collect();
    for x in &population {
        for y in &population {
            agree(x, y);
        }
    }
}

/// Tombstoned nodes take no part in the key.
#[test]
fn removed_leaves_leave_no_trace() {
    let mut tys = TypeInterner::new();
    let mut q = parse_pattern("r*[/a][//b/c]", &mut tys).unwrap();
    let c = *q.leaves().iter().find(|&&l| q.node(l).primary == tys.lookup("c").unwrap()).unwrap();
    q.remove_leaf(c).unwrap();
    assert!(agree(&q, &parse_pattern("r*[//b]/a", &mut tys).unwrap()));
    assert!(agree(&q, &q.compact().0));
}
