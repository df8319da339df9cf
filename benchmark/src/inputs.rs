//! Seeded inputs for the three workloads. Everything here is a pure
//! function of the seed: the same seed gives byte-identical inputs.
//!
//! The program under test only ever sees the rendered text (DSL queries,
//! constraint lines, XML); the benchmark re-parses that text under its own
//! interner for oracles and in-process layer replays.

use std::collections::HashSet;
use tpq_base::{SmallRng, TypeInterner};
use tpq_constraints::{parse_constraints, Constraint, ConstraintSet};
use tpq_data::{DataNodeId, Document};
use tpq_pattern::print::to_dsl;
use tpq_pattern::{parse_pattern, CanonicalKey};
use tpq_workload::random::universe;
use tpq_workload::{
    random_constraints, random_pattern, redundancy_query, relevant_constraints, ConstraintSpec,
    PatternSpec, RedundancySpec, Zipf,
};

/// How big each workload's inputs are. [`Sizes::full`] is what a run
/// measures; [`Sizes::quick`] keeps the self-test short.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Distinct queries in the serve pool.
    pub serve_pool: usize,
    /// Requests in one serve round.
    pub serve_requests: usize,
    /// Distinct queries in the batch log.
    pub batch_unique: usize,
    /// Elements in the generated match-deep document (before repair).
    pub doc_nodes: usize,
}

impl Sizes {
    /// The measured sizes.
    pub fn full() -> Sizes {
        Sizes { serve_pool: 1_500, serve_requests: 6_000, batch_unique: 1_000, doc_nodes: 100_000 }
    }

    /// Self-test sizes.
    pub fn quick() -> Sizes {
        Sizes { serve_pool: 300, serve_requests: 900, batch_unique: 60, doc_nodes: 4_000 }
    }
}

/// Types in the random schema and patterns (`t0` … `t9`).
const SCHEMA_TYPES: usize = 10;
/// Constraints in the shared schema.
const SCHEMA_CONSTRAINTS: usize = 16;
/// Nodes per random query.
const PATTERN_NODES: usize = 24;
/// Copies of each distinct query in the batch log.
const BATCH_REPEATS: usize = 4;

/// Derive an independent sub-seed, so each generator's stream does not
/// depend on how many values another one drew.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// One constraint per line in `parse_constraints` syntax, sorted.
fn constraint_text(set: &ConstraintSet, types: &TypeInterner) -> String {
    let mut lines: Vec<String> = set
        .iter()
        .map(|c| {
            let op = match c {
                Constraint::RequiredChild(..) => "->",
                Constraint::RequiredDescendant(..) => "->>",
                Constraint::CoOccurrence(..) => "~",
            };
            format!("{} {op} {}", types.name(c.lhs()), types.name(c.rhs()))
        })
        .collect();
    lines.sort();
    lines.join("\n")
}

/// The shared 16-constraint schema over `t0` … `t9` (acyclic, so every
/// closure is finitely satisfiable).
fn random_schema(seed: u64) -> String {
    let set = random_constraints(&ConstraintSpec {
        count: SCHEMA_CONSTRAINTS,
        num_types: SCHEMA_TYPES,
        seed: sub_seed(seed, 1),
    });
    assert_eq!(set.len(), SCHEMA_CONSTRAINTS, "schema generator fell short");
    let mut types = TypeInterner::new();
    universe(&mut types, SCHEMA_TYPES);
    constraint_text(&set, &types)
}

/// `count` random 24-node queries, pairwise non-isomorphic, as DSL text.
fn distinct_patterns(count: usize, seed: u64) -> Vec<String> {
    let mut types = TypeInterner::new();
    universe(&mut types, SCHEMA_TYPES);
    let mut seen: HashSet<CanonicalKey> = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    let mut draw = 0u64;
    while out.len() < count {
        let q = random_pattern(&PatternSpec {
            nodes: PATTERN_NODES,
            num_types: SCHEMA_TYPES,
            d_edge_prob: 0.5,
            max_fanout: 3,
            seed: sub_seed(seed, 1_000_000 + draw),
        });
        draw += 1;
        if seen.insert(q.canonical_key()) {
            out.push(to_dsl(&q, &types));
        }
    }
    out
}

/// The distinctness guard: re-parse `queries` under a fresh interner and
/// count distinct canonical keys.
pub fn distinct_count(constraints: &str, queries: &[String]) -> usize {
    let mut types = TypeInterner::new();
    parse_constraints(constraints, &mut types).expect("generated constraints parse");
    let keys: HashSet<CanonicalKey> = queries
        .iter()
        .map(|q| parse_pattern(q, &mut types).expect("generated query parses").canonical_key())
        .collect();
    keys.len()
}

/// The serve-zipf inputs: one schema, a pool of distinct queries, and one
/// round's request stream drawn Zipf(1.0) over the pool.
#[derive(Debug, Clone)]
pub struct ServeInputs {
    /// Constraint text every request carries.
    pub constraints: String,
    /// Distinct DSL queries; requests name them by index.
    pub pool: Vec<String>,
    /// Pool index of each request, in stream order.
    pub requests: Vec<u32>,
    /// Client connection (0 or 1) each pool entry is routed to. Every
    /// request for one query goes down one connection, so the memo's
    /// hit/miss sequence does not depend on thread timing; entries are
    /// assigned heaviest first to the lighter connection, which balances
    /// the two request counts.
    pub route: Vec<u8>,
}

impl ServeInputs {
    /// Generate the serve-zipf inputs for `seed`.
    pub fn generate(seed: u64, sizes: &Sizes) -> ServeInputs {
        let constraints = random_schema(seed);
        let pool = distinct_patterns(sizes.serve_pool, sub_seed(seed, 2));
        let zipf = Zipf::new(pool.len(), 1.0);
        let mut rng = SmallRng::seed_from_u64(sub_seed(seed, 3));
        let requests: Vec<u32> =
            (0..sizes.serve_requests).map(|_| zipf.sample(&mut rng) as u32).collect();
        let mut draws = vec![0u64; pool.len()];
        for &r in &requests {
            draws[r as usize] += 1;
        }
        let mut order: Vec<usize> = (0..pool.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(draws[i]), i));
        let mut route = vec![0u8; pool.len()];
        let mut load = [0u64; 2];
        for i in order {
            let conn = usize::from(load[1] < load[0]);
            route[i] = conn as u8;
            load[conn] += draws[i];
        }
        ServeInputs { constraints, pool, requests, route }
    }

    /// Pool entries the stream actually requests, ascending.
    pub fn used(&self) -> Vec<u32> {
        let mut used = self.requests.clone();
        used.sort_unstable();
        used.dedup();
        used
    }

    /// Bytes of everything the program is sent (for determinism checks).
    pub fn fingerprint(&self) -> Vec<u8> {
        let mut out = self.constraints.clone().into_bytes();
        for &r in &self.requests {
            out.extend_from_slice(self.pool[r as usize].as_bytes());
            out.push(b'0' + self.route[r as usize]);
            out.push(b'\n');
        }
        out
    }
}

/// The batch-cold inputs: one schema and a shuffled log in which every
/// distinct query appears [`BATCH_REPEATS`] times.
#[derive(Debug, Clone)]
pub struct BatchInputs {
    /// Constraint file contents.
    pub constraints: String,
    /// Distinct DSL queries.
    pub unique: Vec<String>,
    /// Index into `unique` of each log line, in file order.
    pub log: Vec<u32>,
}

impl BatchInputs {
    /// Generate the batch-cold inputs for `seed`.
    pub fn generate(seed: u64, sizes: &Sizes) -> BatchInputs {
        let constraints = random_schema(sub_seed(seed, 4));
        let unique = distinct_patterns(sizes.batch_unique, sub_seed(seed, 5));
        let mut log: Vec<u32> =
            (0..unique.len() as u32).flat_map(|i| std::iter::repeat_n(i, BATCH_REPEATS)).collect();
        SmallRng::seed_from_u64(sub_seed(seed, 6)).shuffle(&mut log);
        BatchInputs { constraints, unique, log }
    }

    /// The log file contents, one query per line.
    pub fn log_text(&self) -> String {
        let mut out = String::new();
        for &i in &self.log {
            out.push_str(&self.unique[i as usize]);
            out.push('\n');
        }
        out
    }

    /// Bytes of everything the program is sent.
    pub fn fingerprint(&self) -> Vec<u8> {
        let mut out = self.constraints.clone().into_bytes();
        out.extend_from_slice(self.log_text().as_bytes());
        out
    }
}

/// The match-deep inputs: Figure-7 redundancy queries, their relevant
/// constraints, and the recipe for one deep document.
#[derive(Debug, Clone)]
pub struct MatchInputs {
    /// Constraint text (relevant constraints of the widest query).
    pub constraints: String,
    /// DSL queries, `//`-heavy, with 4–16 planted redundant leaves.
    pub queries: Vec<String>,
    /// Size of each query's unique minimal equivalent.
    pub minimal_sizes: Vec<usize>,
    /// Query index of each timed operation, cycled through in order.
    pub order: Vec<u32>,
    /// Document recipe (see [`MatchInputs::document`]).
    doc_nodes: usize,
    doc_seed: u64,
    fillers: Vec<String>,
}

/// Nodes per Figure-7 query.
const FIG7_NODES: usize = 30;
/// Relevant constraints per Figure-7 query.
const FIG7_CONSTRAINTS: usize = 8;
/// A new section of the deep document nests under one of this many most
/// recent sections, so section depth grows about `2 / window` per section.
const SECTION_WINDOW: usize = 64;

impl MatchInputs {
    /// Generate the match-deep inputs for `seed`.
    pub fn generate(seed: u64, sizes: &Sizes) -> MatchInputs {
        let mut rng = SmallRng::seed_from_u64(sub_seed(seed, 7));
        let generated: Vec<_> = (4..=16)
            .map(|redundant_nodes| {
                redundancy_query(&RedundancySpec {
                    total_nodes: FIG7_NODES,
                    redundant_nodes,
                    // A witness chain of one would itself be implied by
                    // `tF0 ->> tX`; two or three keeps the minimum known.
                    degree: 2 + rng.gen_range(0..2usize),
                })
            })
            .collect();
        let widest = generated.iter().max_by_key(|g| g.filler_types.len()).expect("13 queries");
        let ics = relevant_constraints(widest, FIG7_CONSTRAINTS);
        let constraints = constraint_text(&ics, &widest.types);
        let fillers =
            widest.filler_types.iter().map(|&t| widest.types.name(t).to_owned()).collect();
        let queries = generated.iter().map(|g| to_dsl(&g.pattern, &g.types)).collect();
        let minimal_sizes = generated.iter().map(|g| g.expected_minimal_size).collect();
        let mut order: Vec<u32> = (0..generated.len() as u32).collect();
        rng.shuffle(&mut order);
        MatchInputs {
            constraints,
            queries,
            minimal_sizes,
            order,
            doc_nodes: sizes.doc_nodes,
            doc_seed: sub_seed(seed, 8),
            fillers,
        }
    }

    /// Generate the deep document, interning its names into `types`.
    ///
    /// The document is a tree of *sections*. A section is a `tR` node with
    /// a child chain `tF0/tF1/…` (complete half the time, so the queries'
    /// filler chains do match), one to three `tX` children (each with a
    /// nested `tX` half the time), and later sections nested under its
    /// `tR` or one of its `tX` nodes. Each new section nests under one of
    /// the [`SECTION_WINDOW`] most recent ones, which makes the document
    /// deep (hundreds of levels) with `tR` and `tX` recurring along every
    /// path: the `//`-heavy, recursive case holistic twig joins are built
    /// for.
    pub fn document(&self, types: &mut TypeInterner) -> Document {
        let mut rng = SmallRng::seed_from_u64(self.doc_seed);
        let t_r = types.intern("tR");
        let t_x = types.intern("tX");
        let fillers: Vec<_> = self.fillers.iter().map(|f| types.intern(f)).collect();
        let mut doc = Document::new(t_r);
        // Attachment points of each section: its tR, then its tX nodes.
        let mut sections: Vec<Vec<DataNodeId>> = Vec::new();
        let mut next_parent: Option<DataNodeId> = None;
        while doc.len() < self.doc_nodes {
            let r = match next_parent {
                None => doc.root(),
                Some(p) => doc.add_child(p, t_r),
            };
            let chain =
                if rng.gen_bool(0.5) { fillers.len() } else { 1 + rng.gen_range(0..fillers.len()) };
            let mut cur = r;
            for &f in &fillers[..chain] {
                cur = doc.add_child(cur, f);
            }
            let mut points = vec![r];
            for _ in 0..1 + rng.gen_range(0..3usize) {
                let x = doc.add_child(r, t_x);
                points.push(x);
                if rng.gen_bool(0.5) {
                    points.push(doc.add_child(x, t_x));
                }
            }
            sections.push(points);
            let back = rng.gen_range(0..sections.len().min(SECTION_WINDOW));
            let parent = &sections[sections.len() - 1 - back];
            next_parent = Some(parent[rng.gen_range(0..parent.len())]);
        }
        doc
    }

    /// Bytes of everything the program is sent (queries, constraints, and
    /// the document rendered as XML).
    pub fn fingerprint(&self) -> Vec<u8> {
        let mut out = self.constraints.clone().into_bytes();
        for &i in &self.order {
            out.extend_from_slice(self.queries[i as usize].as_bytes());
            out.push(b'\n');
        }
        let mut types = TypeInterner::new();
        let doc = self.document(&mut types);
        tpq_data::write_xml_to(&doc, &types, &mut out).expect("writing to a Vec cannot fail");
        out
    }
}
