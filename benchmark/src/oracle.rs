//! Answer oracles: the program's minimized text must be isomorphic to an
//! offline `minimize_with` of the same query, computed before the timed
//! section starts.

use std::collections::HashMap;
use tpq_base::TypeInterner;
use tpq_constraints::{parse_constraints, ConstraintSet};
use tpq_core::{minimize_with, Strategy};
use tpq_pattern::{isomorphic, parse_pattern, TreePattern};

/// Expected minimized queries for a set of query indices.
pub struct Oracle {
    types: TypeInterner,
    expected: HashMap<u32, TreePattern>,
    /// Reply texts already proven right, so repeated (memo-hit) answers
    /// cost a string compare.
    verified: HashMap<u32, String>,
}

impl Oracle {
    /// Minimize `queries[i]` under `constraints` for every `i` in `which`.
    pub fn new(constraints: &str, queries: &[String], which: &[u32]) -> Oracle {
        let mut types = TypeInterner::new();
        let ics: ConstraintSet =
            parse_constraints(constraints, &mut types).expect("generated constraints parse");
        let expected = which
            .iter()
            .map(|&i| {
                let q = parse_pattern(&queries[i as usize], &mut types)
                    .expect("generated query parses");
                (i, minimize_with(&q, &ics, Strategy::default()).pattern)
            })
            .collect();
        Oracle { types, expected, verified: HashMap::new() }
    }

    /// Whether `minimized` is a right answer for query `i`.
    pub fn check(&mut self, i: u32, minimized: &str) -> bool {
        if self.verified.get(&i).is_some_and(|v| v == minimized) {
            return true;
        }
        let Some(want) = self.expected.get(&i) else {
            return false;
        };
        let ok = parse_pattern(minimized, &mut self.types).is_ok_and(|got| isomorphic(&got, want));
        if ok {
            self.verified.insert(i, minimized.to_owned());
        }
        ok
    }
}
