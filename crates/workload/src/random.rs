//! Random patterns and constraint sets for property-based testing.
//!
//! Patterns are arbitrary; constraint sets are generated *acyclic by
//! construction* (every constraint points from a lower-indexed type to a
//! higher-indexed one), which guarantees finite satisfiability of the
//! closure — a precondition for repairing documents to satisfy them.

use tpq_base::{SmallRng, TypeId, TypeInterner};
use tpq_constraints::{Constraint, ConstraintSet};
use tpq_pattern::{EdgeKind, NodeId, TreePattern};

/// Parameters for [`random_pattern`].
#[derive(Debug, Clone)]
pub struct PatternSpec {
    /// Number of nodes (≥ 1).
    pub nodes: usize,
    /// Types are drawn uniformly from `t0..t{num_types-1}`.
    pub num_types: usize,
    /// Probability that an edge is a descendant edge.
    pub d_edge_prob: f64,
    /// Maximum fanout.
    pub max_fanout: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PatternSpec {
    fn default() -> Self {
        PatternSpec { nodes: 8, num_types: 4, d_edge_prob: 0.5, max_fanout: 3, seed: 0 }
    }
}

/// Generate a random pattern; the output marker lands on a uniformly
/// random node. Type ids are `TypeId(0)..TypeId(num_types-1)`; intern that
/// many names (e.g. with [`universe`]) for printing.
pub fn random_pattern(spec: &PatternSpec) -> TreePattern {
    assert!(spec.nodes >= 1 && spec.num_types >= 1 && spec.max_fanout >= 1);
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let ty = |rng: &mut SmallRng| TypeId(rng.gen_range(0..spec.num_types as u32));
    let root_ty = ty(&mut rng);
    let mut q = TreePattern::new(root_ty);
    let mut open: Vec<NodeId> = vec![q.root()];
    let mut all: Vec<NodeId> = vec![q.root()];
    while q.size() < spec.nodes {
        let slot = rng.gen_range(0..open.len());
        let parent = open[slot];
        let edge =
            if rng.gen_bool(spec.d_edge_prob) { EdgeKind::Descendant } else { EdgeKind::Child };
        let child = q.add_child(parent, edge, ty(&mut rng));
        open.push(child);
        all.push(child);
        if q.children(parent).count() >= spec.max_fanout {
            open.swap_remove(slot);
        }
    }
    let star = all[rng.gen_range(0..all.len())];
    q.set_output(star);
    q.validate().expect("random pattern is valid");
    q
}

/// Parameters for [`random_constraints`].
#[derive(Debug, Clone)]
pub struct ConstraintSpec {
    /// Number of constraints to draw.
    pub count: usize,
    /// Type universe size (pairs drawn with lhs index < rhs index).
    pub num_types: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ConstraintSpec {
    fn default() -> Self {
        ConstraintSpec { count: 4, num_types: 6, seed: 0 }
    }
}

/// Generate a random, acyclic (hence finitely satisfiable) constraint
/// set over `TypeId(0)..TypeId(num_types-1)`.
pub fn random_constraints(spec: &ConstraintSpec) -> ConstraintSet {
    assert!(spec.num_types >= 2 || spec.count == 0);
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let mut set = ConstraintSet::new();
    let mut attempts = 0;
    while set.len() < spec.count && attempts < spec.count * 50 {
        attempts += 1;
        let a = rng.gen_range(0..spec.num_types as u32 - 1);
        let b = rng.gen_range(a + 1..spec.num_types as u32);
        let c = match rng.gen_range(0..3u32) {
            0 => Constraint::RequiredChild(TypeId(a), TypeId(b)),
            1 => Constraint::RequiredDescendant(TypeId(a), TypeId(b)),
            _ => Constraint::CoOccurrence(TypeId(a), TypeId(b)),
        };
        set.insert(c);
    }
    set
}

/// Intern `n` type names `t0..t{n-1}` so that generated `TypeId`s print
/// nicely.
pub fn universe(types: &mut TypeInterner, n: usize) -> Vec<TypeId> {
    (0..n).map(|i| types.intern(&format!("t{i}"))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_respects_spec() {
        for seed in 0..10 {
            let spec =
                PatternSpec { nodes: 20, num_types: 3, max_fanout: 2, seed, ..Default::default() };
            let q = random_pattern(&spec);
            assert_eq!(q.size(), 20);
            assert!(q.max_fanout() <= 2);
            for v in q.alive_ids() {
                assert!(q.node(v).primary.0 < 3);
            }
        }
    }

    #[test]
    fn pattern_deterministic_per_seed() {
        let spec = PatternSpec { seed: 7, ..Default::default() };
        assert_eq!(random_pattern(&spec), random_pattern(&spec));
    }

    #[test]
    fn star_can_land_anywhere() {
        let mut root_count = 0;
        for seed in 0..30 {
            let q = random_pattern(&PatternSpec { seed, ..Default::default() });
            if q.output() == q.root() {
                root_count += 1;
            }
        }
        assert!(root_count > 0 && root_count < 30, "marker varies across seeds");
    }

    #[test]
    fn constraints_are_acyclic_and_closable() {
        for seed in 0..10 {
            let set = random_constraints(&ConstraintSpec { count: 8, num_types: 6, seed });
            let closed = set.closure();
            assert!(closed.is_finitely_satisfiable(), "seed {seed}");
        }
    }

    #[test]
    fn constraint_count_met_when_space_allows() {
        let set = random_constraints(&ConstraintSpec { count: 10, num_types: 12, seed: 1 });
        assert_eq!(set.len(), 10);
    }
}
