//! Matching panels: engine throughput on streamed documents, and the
//! end-to-end payoff of minimizing before matching.
//!
//! These are the data-side companions to the minimization figures: the
//! paper minimizes queries *because* matching cost grows with pattern
//! size, and these panels measure that matching side directly.
//!
//! The naive backtracking enumerator is deliberately absent from the
//! throughput panel: its embedding count (and hence its runtime) is
//! exponential in the pattern size, so it cannot be run on the
//! multi-thousand-node documents the other engines sweep (see
//! EXPERIMENTS.md).

use crate::experiments::ExpConfig;
use crate::{measure_micros, Panel, Point, Series, UNIT_MICROS, UNIT_THROUGHPUT};
use std::io::BufReader;
use tpq_constraints::ConstraintSet;
use tpq_core::{minimize_with, Strategy};
use tpq_data::{
    generate_document, parse_xml_reader, stream_xml_to, Document, DocumentSpec, XmlStreamSpec,
};
use tpq_pattern::TreePattern;
use tpq_workload::{redundancy_query, relevant_constraints, RedundancySpec};

/// Matching throughput (document nodes per second, higher is better) of
/// the matcher over streamed-from-disk documents of growing size. Each
/// measured run is one-shot — index build included — because that is what
/// `tpq match` pays.
pub fn match_throughput(cfg: &ExpConfig) -> Panel {
    let xs = cfg.grid(&[10_000, 40_000, 120_000], &[2_000, 8_000]);
    let mut embed_pts = Vec::new();
    for &x in &xs {
        let spec = XmlStreamSpec { nodes: x as usize, seed: cfg.seed, ..XmlStreamSpec::default() };
        // Round-trip through a real file: the generator streams XML to
        // disk and the chunked reader ingests it, so the panel also
        // covers the pipeline a multi-hundred-MB document would take.
        let path = std::env::temp_dir()
            .join(format!("tpq-match-throughput-{}-{x}.xml", std::process::id()));
        let mut types = tpq_base::TypeInterner::new();
        let doc = (|| -> std::io::Result<_> {
            let file = std::fs::File::create(&path)?;
            stream_xml_to(&spec, file)?;
            let reader = BufReader::new(std::fs::File::open(&path)?);
            Ok(parse_xml_reader(reader, &mut types).expect("generator emits valid XML"))
        })()
        .expect("temp dir is writable");
        let _ = std::fs::remove_file(&path);
        // A three-level pattern over the generator's densest types.
        let query = tpq_pattern::parse_pattern("t0*[//t1]//t2", &mut types).unwrap();
        let (embed_m, _) = measure_micros(cfg.iters, || tpq_match::answer_set(&query, &doc));
        embed_pts.push(throughput_point(x, embed_m));
    }
    Panel {
        id: "match-throughput".into(),
        title: "matching throughput on streamed documents".into(),
        x_label: "DocNodes".into(),
        unit: UNIT_THROUGHPUT.into(),
        series: vec![Series { label: "Embed".into(), points: embed_pts }],
    }
}

/// Convert a wall-time measurement over a document of `nodes` nodes into
/// nodes/second, keeping the sample spread (fastest run → max throughput).
fn throughput_point(nodes: u64, m: crate::Measurement) -> Point {
    let thru = |us: f64| nodes as f64 / (us.max(1e-3) / 1e6);
    Point {
        x: nodes,
        micros: thru(m.median),
        min_micros: thru(m.max),
        max_micros: thru(m.min),
        aux_micros: None,
    }
}

/// End-to-end latency of answering a Figure-7 redundancy query: matching
/// the raw query as-is, matching its pre-minimized form, and the full
/// minimize-then-match pipeline. The gap between `Raw` and
/// `MinimizeThenMatch` is the payoff the paper argues for — minimization
/// cost is tiny next to the matching it saves.
pub fn minimize_then_match(cfg: &ExpConfig) -> Panel {
    let mut raw_pts = Vec::new();
    let mut min_pts = Vec::new();
    let mut pipe_pts = Vec::new();
    for x in redundancy_grid(cfg) {
        let MatchCase { raw, ics, minimized, doc } = match_case(cfg, x);
        let (raw_m, raw_ans) = measure_micros(cfg.iters, || tpq_match::answer_set(&raw, &doc));
        let (min_m, min_ans) =
            measure_micros(cfg.iters, || tpq_match::answer_set(&minimized, &doc));
        // ICs hold vacuously relevant here — minimization must not change
        // the answers on any document the raw/minimized pair agrees on.
        assert_eq!(raw_ans, min_ans, "minimized query changed the answer set at x={x}");
        let (pipe_m, _) = measure_micros(cfg.iters, || {
            let m = minimize_with(&raw, &ics, Strategy::default()).pattern;
            tpq_match::answer_set(&m, &doc)
        });
        raw_pts.push(Point::timed(x, raw_m));
        min_pts.push(Point::timed(x, min_m));
        pipe_pts.push(Point::timed(x, pipe_m));
    }
    Panel {
        id: "minimize-then-match".into(),
        title: "Figure-7 queries end-to-end: raw match vs minimize-then-match".into(),
        x_label: "RedNodes".into(),
        unit: UNIT_MICROS.into(),
        series: vec![
            Series { label: "Raw".into(), points: raw_pts },
            Series { label: "Minimized".into(), points: min_pts },
            Series { label: "MinimizeThenMatch".into(), points: pipe_pts },
        ],
    }
}

/// The redundant-node counts the minimize-then-match panel sweeps.
fn redundancy_grid(cfg: &ExpConfig) -> Vec<u64> {
    cfg.grid(&[4, 8, 12, 16], &[4, 12])
}

/// One minimize-then-match point: a 33-node Figure-7 query with `x`
/// redundant nodes, its constraints, its minimized form, and a generated
/// document over its types.
struct MatchCase {
    raw: TreePattern,
    ics: ConstraintSet,
    minimized: TreePattern,
    doc: Document,
}

fn match_case(cfg: &ExpConfig, x: u64) -> MatchCase {
    let q = redundancy_query(&RedundancySpec {
        total_nodes: 33,
        redundant_nodes: x as usize,
        degree: 2,
    });
    let ics = relevant_constraints(&q, 8);
    let minimized = minimize_with(&q.pattern, &ics, Strategy::default()).pattern;
    assert_eq!(minimized.size(), q.expected_minimal_size);
    // The generator's interner ids cover exactly the query's types, so a
    // document drawn over that universe matches non-trivially.
    let doc = generate_document(&DocumentSpec {
        nodes: if cfg.quick { 1_500 } else { 6_000 },
        num_types: q.types.len(),
        seed: cfg.seed,
        ..DocumentSpec::default()
    });
    MatchCase { raw: q.pattern, ics, minimized, doc }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_panel_is_higher_is_better_and_engines_scale() {
        let p = match_throughput(&ExpConfig::quick());
        assert_eq!(p.unit, UNIT_THROUGHPUT);
        assert!(!p.lower_is_better(), "throughput wants higher values");
        assert_eq!(p.series.len(), 1);
        for s in &p.series {
            for pt in &s.points {
                assert!(pt.micros > 0.0, "{}: zero throughput", s.label);
                assert!(pt.min_micros <= pt.micros && pt.micros <= pt.max_micros);
            }
        }
    }

    #[test]
    fn minimized_matching_beats_raw_at_max_redundancy() {
        // The claim is Minimized < Raw (the pattern is ~half the size),
        // measured as work rather than wall time: the matcher spends one
        // guard step per seed-list element and per merged element, so the
        // count is the same on an idle and a loaded host.
        let cfg = ExpConfig::quick();
        let x = *redundancy_grid(&cfg).last().unwrap();
        let case = match_case(&cfg, x);
        let work = |q: &TreePattern| {
            let guard = tpq_base::Guard::with_budget(u64::MAX);
            let m = tpq_match::Matcher::new(q, &case.doc, &guard).unwrap();
            (guard.spent(), m.answers())
        };
        let (raw, raw_answers) = work(&case.raw);
        let (min, min_answers) = work(&case.minimized);
        assert_eq!(raw_answers, min_answers, "minimization changed the answers at x={x}");
        assert!(
            min < raw,
            "matching the minimized query ({min} steps) should beat raw ({raw} steps)"
        );
    }
}
