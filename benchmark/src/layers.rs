//! The traced run: per-layer metrics, measured by timing calls into each
//! crate's public functions from the benchmark's own code (nothing is
//! added inside the program).
//!
//! A traced run reports the layers of all three workloads, each measured
//! on the inputs of the workload it belongs to: the serve layers on the
//! serve-zipf stream, the batch and core layers on the batch-cold log,
//! the data and match layers on the match-deep document and queries.
//! Every section also checks that its layer numbers describe the same
//! computation the program performed (see the checks below).

use crate::inputs::{BatchInputs, MatchInputs, ServeInputs};
use crate::oracle::Oracle;
use crate::report::{mean, micros, quantile, Metric, Outcome};
use crate::serve::{drive, parse_answer, request_lines, Server};
use crate::sys::nproc;
use crate::workloads::{
    deep_document, guard_distinct, run_batch, sorted, wrong_lines, BatchFiles, MatchSetup, CLIENTS,
};
use crate::Ctx;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tpq_base::{Guard, Json, TypeInterner};
use tpq_constraints::{parse_constraints, satisfies, ConstraintSet};
use tpq_core::chase::present_types;
use tpq_core::{
    augment_guarded, cdm_in_place_guarded, minimize_closed_guarded, minimize_with, shared_engine,
    BatchMinimizer, CimEngine, MinimizeStats, Strategy,
};
use tpq_data::DocIndex;
use tpq_match::{answer_set, answer_set_twig_indexed};
use tpq_pattern::print::to_dsl;
use tpq_pattern::{isomorphic, parse_pattern, TreePattern};

/// Requests between `TIMELINE` drains; below the flight recorder's
/// 1024-record ring, so no record is evicted before it is read.
const FLIGHT_CHUNK: usize = 1000;
/// `tpq minimize --batch --stats` runs per traced batch section.
const CLI_REPEATS: usize = 3;
/// Repetitions of cheap single calls (closure, key pass, index build).
const SMALL_REPEATS: usize = 5;
/// 1-job vs n-job batch pairs.
const SPEEDUP_REPEATS: usize = 2;

/// All three traced sections. The match section repeats its queries for
/// a third of `--seconds`; the other two have fixed work, so their counts
/// repeat exactly for a seed.
pub fn all(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = serve_layers(ctx)?;
    out.absorb(batch_layers(ctx)?);
    out.absorb(match_layers(ctx, ctx.seconds / 3.0)?);
    Ok(out)
}

/// Run `f`, pushing its wall time in microseconds onto `samples`.
fn timed<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let r = f();
    samples.push(micros(t.elapsed()));
    r
}

fn p50(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

fn p99(v: &[f64]) -> f64 {
    quantile(v, 0.99)
}

/// The serve layers: one live server takes the whole serve-zipf round,
/// then the same requests are replayed in process, layer by layer.
fn serve_layers(ctx: &Ctx) -> Result<Outcome, String> {
    let inputs = ServeInputs::generate(ctx.seed, &ctx.sizes);
    let mut out = Outcome::default();
    guard_distinct(&mut out, "serve pool", &inputs.constraints, &inputs.pool);
    let mut oracle = Oracle::new(&inputs.constraints, &inputs.pool, &inputs.used());
    let lines = request_lines(&inputs);
    let n = inputs.requests.len();

    let (mut server, _) = Server::boot(&ctx.tpq)?;
    let mut conns = (0..CLIENTS).map(|_| server.connect()).collect::<Result<Vec<_>, _>>()?;
    let mut replies = Vec::with_capacity(n);
    // Flight-record phases in microseconds: queue, parse, minimize, render.
    let mut phases: [Vec<f64>; 4] = Default::default();
    let mut last_seq = -1;
    while replies.len() < n {
        let from = replies.len();
        replies.extend(drive(&mut conns, &lines, &inputs, from..(from + FLIGHT_CHUNK).min(n))?);
        for record in server.timeline(FLIGHT_CHUNK)? {
            let seq = record.get("seq").and_then(Json::as_i64).unwrap_or(-1);
            if seq <= last_seq || record.get("verb").and_then(Json::as_str) != Some("minimize") {
                continue;
            }
            last_seq = seq;
            for (samples, name) in phases.iter_mut().zip(["queue", "parse", "minimize", "render"]) {
                if let Some(ns) =
                    record.get("phases_ns").and_then(|p| p.get(name)).and_then(Json::as_f64)
                {
                    samples.push(ns / 1e3);
                }
            }
        }
    }
    drop(conns);
    let exit = server.shutdown()?;

    let mut server_us = Vec::with_capacity(n);
    let mut wire_us = Vec::with_capacity(n);
    let mut server_hits = Vec::with_capacity(n);
    for r in &replies {
        match parse_answer(&r.text) {
            Some(a) if oracle.check(inputs.requests[r.index], &a.minimized) => {
                server_us.push(a.server_us);
                wire_us.push(micros(r.rtt) - a.server_us);
                server_hits.push(Some(a.cache_hit));
            }
            _ => {
                out.failed += 1;
                server_hits.push(None);
            }
        }
    }
    out.attempted += n as u64;

    // The server keeps the obs layer on for its whole life; so does the
    // replay, so both pay the same recording costs.
    tpq_obs::set_enabled(true);
    let replay = replay_requests(&inputs);
    tpq_obs::set_enabled(false);
    let replay = replay?;
    // Requests are routed to connections by query, so the server saw each
    // query's requests in stream order: the fresh engine's hit/miss
    // sequence must match the server's flags exactly.
    let differ =
        replay.hits.iter().zip(&server_hits).filter(|(h, s)| s.is_some_and(|s| s != **h)).count();
    if differ > 0 {
        out.problem(format!(
            "{differ} requests: replayed memo hit/miss differs from the server's cache_hit"
        ));
    }

    let in_process = p50(&replay.constraints_parse)
        + p50(&replay.pattern_parse)
        + p50(&replay.engine_lookup)
        + p50(&replay.memo_hit)
        + p50(&replay.render);
    let hit_rate = replay.memo_hit.len() as f64 / n as f64;
    out.metrics = vec![
        Metric::new("serve.server_us_p50", "us", p50(&server_us)),
        Metric::new("serve.server_us_p99", "us", p99(&server_us))
            .with_note(format!("n={}", server_us.len())),
        Metric::new("serve.wire_us_p50", "us", p50(&wire_us)),
        Metric::new("serve.cpu_us_per_req", "us", micros(exit.usage.cpu) / n as f64),
        Metric::new("serve.queue_us", "us", p50(&phases[0]))
            .with_note(format!("n={}", phases[0].len())),
        Metric::new("serve.parse_us", "us", p50(&phases[1])),
        Metric::new("serve.minimize_us", "us", p50(&phases[2])),
        Metric::new("serve.render_us", "us", p50(&phases[3])),
        Metric::new("constraints.parse_us", "us", p50(&replay.constraints_parse)),
        Metric::new("pattern.parse_us", "us", p50(&replay.pattern_parse)),
        Metric::new("core.engine_lookup_us", "us", p50(&replay.engine_lookup)),
        Metric::new("pattern.canonical_key_us", "us", p50(&replay.canonical_key)),
        Metric::new("core.memo_hit_us_p50", "us", p50(&replay.memo_hit)),
        Metric::new("core.memo_hit_us_p99", "us", p99(&replay.memo_hit))
            .with_note(format!("n={}", replay.memo_hit.len())),
        Metric::new("core.memo_miss_us_p50", "us", p50(&replay.memo_miss)),
        Metric::new("core.memo_miss_us_p99", "us", p99(&replay.memo_miss))
            .with_note(format!("n={}", replay.memo_miss.len())),
        Metric::new("core.memo_hit_rate", "ratio", hit_rate),
        Metric::new("core.memo_entries", "count", replay.memo_entries as f64),
        Metric::new("pattern.render_us", "us", p50(&replay.render)),
        Metric::new("serve.unattributed_us", "us", p50(&server_us) - in_process)
            .with_note("server p50 minus the p50s of parse, lookup, memo hit and render"),
    ];
    Ok(out)
}

/// Per-request layer timings of the in-process serve replay.
#[derive(Default)]
struct Replay {
    constraints_parse: Vec<f64>,
    pattern_parse: Vec<f64>,
    engine_lookup: Vec<f64>,
    canonical_key: Vec<f64>,
    memo_hit: Vec<f64>,
    memo_miss: Vec<f64>,
    render: Vec<f64>,
    hits: Vec<bool>,
    memo_entries: usize,
}

/// Replay the serve stream in order through the calls a request makes:
/// parse constraints and query under one interner, look up the shared
/// engine, compute the canonical key, minimize through a *fresh* engine's
/// memo, render.
fn replay_requests(inputs: &ServeInputs) -> Result<Replay, String> {
    let mut types = TypeInterner::new();
    let mut r = Replay::default();
    let mut engine: Option<BatchMinimizer> = None;
    let guard = Guard::unlimited();
    for &query in &inputs.requests {
        let ics =
            timed(&mut r.constraints_parse, || parse_constraints(&inputs.constraints, &mut types))
                .map_err(|e| e.to_string())?;
        let q =
            timed(&mut r.pattern_parse, || parse_pattern(&inputs.pool[query as usize], &mut types))
                .map_err(|e| e.to_string())?;
        timed(&mut r.engine_lookup, || black_box(shared_engine(&ics, Strategy::default())));
        timed(&mut r.canonical_key, || black_box(q.canonical_key()));
        let engine = engine.get_or_insert_with(|| BatchMinimizer::new(&ics));
        let t = Instant::now();
        let got = engine.minimize_cached_guarded(&q, &guard).map_err(|e| e.to_string())?;
        let dt = micros(t.elapsed());
        if got.cache_hit {
            r.memo_hit.push(dt);
        } else {
            r.memo_miss.push(dt);
        }
        r.hits.push(got.cache_hit);
        timed(&mut r.render, || black_box(to_dsl(&got.pattern, &types)));
    }
    r.memo_entries = engine.map_or(0, |e| e.cache_len());
    Ok(r)
}

/// The engine wall time `tpq minimize --batch --stats` prints last on its
/// stats line, in `Duration`'s debug form (`187.3ms`, `1.2s`, `950µs`).
fn stats_wall(stderr: &str) -> Option<Duration> {
    let field =
        stderr.lines().rev().find(|l| l.contains(" queries ("))?.rsplit(" | ").next()?.trim();
    let split = field.find(|c: char| !(c.is_ascii_digit() || c == '.'))?;
    let (number, unit) = field.split_at(split);
    let value: f64 = number.parse().ok()?;
    let scale = match unit {
        "s" => 1.0,
        "ms" => 1e-3,
        "µs" | "us" => 1e-6,
        "ns" => 1e-9,
        _ => return None,
    };
    Some(Duration::from_secs_f64(value * scale))
}

/// Stage slots of the staged minimization replay.
const CDM: usize = 0;
const COMPACT: usize = 1;
const CHASE: usize = 2;
const TABLES: usize = 3;
const MEO: usize = 4;

/// The default pipeline (CDM, then incremental ACIM) called stage by
/// stage, adding each stage's time in microseconds to `stages`.
fn staged_minimize(
    q: &TreePattern,
    closed: &ConstraintSet,
    stages: &mut [f64; 5],
) -> tpq_base::Result<(TreePattern, MinimizeStats)> {
    let guard = Guard::unlimited();
    let mut stats = MinimizeStats::default();
    let t = Instant::now();
    let mut work = q.clone();
    cdm_in_place_guarded(&mut work, closed, &mut stats, &guard)?;
    stages[CDM] += micros(t.elapsed());
    let t = Instant::now();
    let (mut work, _) = work.compact();
    stages[COMPACT] += micros(t.elapsed());
    let t = Instant::now();
    let allowed = present_types(&work);
    augment_guarded(&mut work, closed, &allowed, &mut stats, &guard)?;
    stages[CHASE] += micros(t.elapsed());
    let t = Instant::now();
    let mut engine = CimEngine::new_guarded(work, &mut stats, &guard)?;
    stages[TABLES] += micros(t.elapsed());
    let t = Instant::now();
    engine.run_guarded(&mut stats, &guard)?;
    stages[MEO] += micros(t.elapsed());
    let t = Instant::now();
    let mut done = engine.into_pattern();
    done.strip_temporaries();
    let (done, _) = done.compact();
    stages[COMPACT] += micros(t.elapsed());
    Ok((done, stats))
}

/// The counters of [`MinimizeStats`] (its times never repeat).
fn counters(s: &MinimizeStats) -> [usize; 4] {
    [s.cdm_removed, s.cim_removed, s.augment_nodes_added, s.redundancy_tests]
}

/// The batch and core layers on the batch-cold log: the CLI's own engine
/// wall, then the library calls the engine makes.
fn batch_layers(ctx: &Ctx) -> Result<Outcome, String> {
    let inputs = BatchInputs::generate(ctx.seed, &ctx.sizes);
    let mut out = Outcome::default();
    guard_distinct(&mut out, "batch log", &inputs.constraints, &inputs.unique);
    let files = BatchFiles::write(&ctx.work, &inputs)?;
    let all: Vec<u32> = (0..inputs.unique.len() as u32).collect();
    let mut oracle = Oracle::new(&inputs.constraints, &inputs.unique, &all);
    let (mut engine_ms, mut overhead_ms) = (Vec::new(), Vec::new());
    for _ in 0..CLI_REPEATS {
        let run = run_batch(&ctx.tpq, &files.log, &files.ics, &["--stats"])?;
        out.failed += wrong_lines(&run, &inputs.log, &mut oracle) as u64;
        out.attempted += inputs.log.len() as u64;
        let engine = stats_wall(&run.stderr).ok_or("tpq minimize --stats printed no stats line")?;
        engine_ms.push(engine.as_secs_f64() * 1e3);
        overhead_ms.push(run.exit.wall.saturating_sub(engine).as_secs_f64() * 1e3);
    }

    let mut types = TypeInterner::new();
    let ics = parse_constraints(&inputs.constraints, &mut types).map_err(|e| e.to_string())?;
    let unique: Vec<TreePattern> = inputs
        .unique
        .iter()
        .map(|q| parse_pattern(q, &mut types).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let log: Vec<TreePattern> = inputs.log.iter().map(|&i| unique[i as usize].clone()).collect();
    let mut closure_us = Vec::new();
    let mut key_pass_us = Vec::new();
    for _ in 0..SMALL_REPEATS {
        timed(&mut closure_us, || black_box(ics.closure()));
        timed(&mut key_pass_us, || {
            for q in &log {
                black_box(q.canonical_key());
            }
        });
    }
    let closed = ics.closure();

    // 1 job vs nproc jobs, each on a fresh engine (closure outside the
    // timing, as the CLI computes it before the batch).
    let jobs = nproc();
    let (mut one_us, mut many_us) = (Vec::new(), Vec::new());
    let mut pool_stats = None;
    for _ in 0..SPEEDUP_REPEATS {
        let engine = BatchMinimizer::new(&ics);
        let one = timed(&mut one_us, || engine.minimize_batch(&log, 1));
        let engine = BatchMinimizer::new(&ics);
        let many = timed(&mut many_us, || engine.minimize_batch(&log, jobs));
        if one.patterns != many.patterns {
            out.problem("minimize_batch output depends on the job count");
        }
        pool_stats = Some(many.stats);
    }
    let pool_stats = pool_stats.expect("at least one speedup pair");
    let executed: Vec<f64> = pool_stats.executed_per_worker.iter().map(|&n| n as f64).collect();
    let imbalance = executed.iter().copied().fold(0.0, f64::max) / mean(&executed);

    // Each distinct query through the whole pipeline, then stage by stage.
    let guard = Guard::unlimited();
    let mut minimize_us = Vec::new();
    let mut totals = MinimizeStats::default();
    let mut stages = [0.0; 5];
    for (i, q) in unique.iter().enumerate() {
        let whole = timed(&mut minimize_us, || {
            minimize_closed_guarded(q, &closed, Strategy::default(), &guard)
        })
        .map_err(|e| e.to_string())?;
        totals.merge(whole.stats);
        let (staged, staged_stats) =
            staged_minimize(q, &closed, &mut stages).map_err(|e| e.to_string())?;
        if !isomorphic(&staged, &whole.pattern) || counters(&staged_stats) != counters(&whole.stats)
        {
            out.problem(format!(
                "batch query {i}: the staged replay differs from minimize_closed_guarded"
            ));
        }
    }
    out.attempted += unique.len() as u64;
    let per_query = |slot: usize| stages[slot] / unique.len() as f64;
    let speedup = p50(&one_us) / p50(&many_us);
    out.metrics = vec![
        Metric::new("batch.engine_ms", "ms", p50(&engine_ms)),
        Metric::new("batch.process_overhead_ms", "ms", p50(&overhead_ms)),
        Metric::new("constraints.closure_us", "us", p50(&closure_us)),
        Metric::new("batch.key_pass_us", "us", p50(&key_pass_us))
            .with_note(format!("{} queries", log.len())),
        Metric::new("batch.speedup", "ratio", speedup).with_note(format!("1 job vs {jobs}")),
        Metric::new("batch.steals", "count", pool_stats.steals as f64),
        Metric::new("batch.worker_imbalance", "ratio", imbalance),
        Metric::new("core.minimize_us_p50", "us", p50(&minimize_us)),
        Metric::new("core.minimize_us_p99", "us", p99(&minimize_us))
            .with_note(format!("n={}", minimize_us.len())),
        Metric::new("core.cdm_us", "us", per_query(CDM)).with_note("mean per distinct query"),
        Metric::new("pattern.compact_us", "us", per_query(COMPACT)),
        Metric::new("core.chase_us", "us", per_query(CHASE)),
        Metric::new("core.cim_tables_us", "us", per_query(TABLES)),
        Metric::new("core.cim_meo_us", "us", per_query(MEO)),
        Metric::new("core.cdm_removed", "count", totals.cdm_removed as f64),
        Metric::new("core.cim_removed", "count", totals.cim_removed as f64),
        Metric::new("core.augment_nodes_added", "count", totals.augment_nodes_added as f64),
        Metric::new("core.redundancy_tests", "count", totals.redundancy_tests as f64),
    ];
    Ok(out)
}

/// The data and match layers on the match-deep inputs: the document
/// pipeline's stages, then each engine on every query for `budget`
/// seconds (at least one pass).
fn match_layers(ctx: &Ctx, budget: f64) -> Result<Outcome, String> {
    let inputs = MatchInputs::generate(ctx.seed, &ctx.sizes);
    let mut out = Outcome::default();
    let mut setup = MatchSetup::parse(&inputs);
    let (mut parse_mb_s, mut repair_ms) = (Vec::new(), Vec::new());
    let mut doc = None;
    for _ in 0..3 {
        let pipeline = deep_document(&inputs, &ctx.work, &mut setup)?;
        parse_mb_s.push(pipeline.xml_bytes as f64 / 1e6 / pipeline.parse.as_secs_f64());
        repair_ms.push(pipeline.repair.as_secs_f64() * 1e3);
        doc = Some(pipeline.doc);
    }
    let doc = doc.expect("at least one document");
    if !satisfies(&doc, &setup.closed) {
        out.problem("the repaired document does not satisfy the constraints");
    }
    let mut index_us = Vec::new();
    let mut index = None;
    for _ in 0..SMALL_REPEATS {
        index = Some(timed(&mut index_us, || DocIndex::build(&doc)));
    }
    let index = index.expect("at least one index");

    let guard = Guard::unlimited();
    let (mut minimize_us, mut twig_us, mut embed_us, mut raw_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut answers = 0usize;
    let start = Instant::now();
    let mut pass = 0;
    while pass == 0 || start.elapsed().as_secs_f64() < budget {
        for q in &setup.raw {
            let m = timed(&mut minimize_us, || {
                minimize_with(q, &setup.ics, Strategy::default()).pattern
            });
            let twig = timed(&mut twig_us, || answer_set_twig_indexed(&m, &doc, &index, &guard))
                .map_err(|e| e.to_string())?;
            let embed = timed(&mut embed_us, || answer_set(&m, &doc));
            let raw = timed(&mut raw_us, || answer_set_twig_indexed(q, &doc, &index, &guard))
                .map_err(|e| e.to_string())?;
            let twig = sorted(twig);
            out.attempted += 1;
            out.failed += u64::from(sorted(raw) != twig || sorted(embed) != twig);
            if pass == 0 {
                answers += twig.len();
            }
        }
        pass += 1;
    }
    let total = |v: &[f64]| v.iter().sum::<f64>();
    out.metrics = vec![
        Metric::new("data.xml_parse_mb_s", "MB/s", p50(&parse_mb_s)),
        Metric::new("constraints.repair_ms", "ms", p50(&repair_ms)),
        Metric::new("data.index_build_us", "us", p50(&index_us))
            .with_note(format!("{} nodes", doc.len())),
        Metric::new("match.twig_us", "us", p50(&twig_us)).with_note(format!("n={}", twig_us.len())),
        Metric::new("match.embed_us", "us", p50(&embed_us))
            .with_note("includes its own index build"),
        Metric::new("match.raw_twig_us", "us", p50(&raw_us)),
        Metric::new(
            "match.payoff",
            "ratio",
            total(&raw_us) / (total(&minimize_us) + total(&twig_us)),
        )
        .with_note("raw twig / (minimize + twig)"),
        Metric::new("match.answers", "count", answers as f64),
    ];
    Ok(out)
}
