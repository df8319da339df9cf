//! The three end-to-end workloads, measured with tracing off.
//!
//! Every workload runs in *rounds* that repeat the same seeded work until
//! `--seconds` have passed (at least [`MIN_ROUNDS`]): a fresh server
//! taking one request stream, a few fresh batch processes, or one pass of
//! minimize-then-match over every query. A run reports its **best** round
//! for each timing (highest throughput, lowest latency and CPU per
//! operation). On a shared host, steal and co-tenant load only ever add
//! time and they come in bursts of seconds, so the best round is the
//! steadiest estimate of what the code costs; a slowdown in the code
//! slows every round, the best one included. Peak RSS is the median
//! round's, and set-up time the median of its repetitions.
//!
//! Rounds start cold (a new server or process, or the same in-process
//! state), so the memo's size and the peak RSS do not depend on how fast
//! earlier rounds went.

use crate::inputs::{distinct_count, BatchInputs, MatchInputs, ServeInputs};
use crate::oracle::Oracle;
use crate::report::{median, micros, quantile, Metric, Outcome};
use crate::serve::{drive, parse_answer, request_lines, Server};
use crate::sys::{self_usage, Exit, Proc};
use crate::Ctx;
use std::io::{BufReader, BufWriter, Read as _};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use tpq_base::TypeInterner;
use tpq_constraints::{parse_constraints, repair, ConstraintSet};
use tpq_core::{minimize_with, Strategy};
use tpq_data::{parse_xml_reader, DataNodeId, Document};
use tpq_match::{answer_set, answer_set_twig};
use tpq_pattern::{parse_pattern, TreePattern};

/// Fewest rounds a workload runs, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
/// Closed-loop client connections (one thread each) driving `tpq serve`.
pub const CLIENTS: usize = 2;
/// Fresh `tpq minimize --batch` processes per batch-cold round; their
/// wall times are the round's latency samples.
const BATCHES_PER_ROUND: usize = 5;
/// Set-up repetitions of batch-cold (one set-up is a few milliseconds,
/// so its median needs many).
const SETUP_REPEATS: usize = 21;
/// Set-up repetitions of match-deep (one set-up is the whole document
/// pipeline).
const DOC_SETUP_REPEATS: usize = 3;

/// One round: how long it took, what it did, and what it cost.
struct Round {
    wall: Duration,
    ops: usize,
    latencies_us: Vec<f64>,
    cpu: Duration,
    peak_rss_mb: f64,
}

/// The six end-to-end metrics from a run's rounds and set-up samples.
fn round_metrics(rounds: &[Round], setup_s: &[f64]) -> Vec<Metric> {
    let values = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let lowest = |f: &dyn Fn(&Round) -> f64| values(f).into_iter().fold(f64::INFINITY, f64::min);
    let samples = format!("best of {} rounds of {}", rounds.len(), rounds[0].latencies_us.len());
    vec![
        Metric::new("setup_s", "s", median(setup_s))
            .with_note(format!("median of {}", setup_s.len())),
        Metric::new(
            "throughput_qps",
            "1/s",
            values(&|r| r.ops as f64 / r.wall.as_secs_f64()).into_iter().fold(0.0, f64::max),
        )
        .with_note(format!(
            "best of {} rounds of {} operations",
            rounds.len(),
            rounds[0].ops
        )),
        Metric::new("latency_p50_us", "us", lowest(&|r| quantile(&r.latencies_us, 0.5)))
            .with_note(samples.clone()),
        Metric::new("latency_p99_us", "us", lowest(&|r| quantile(&r.latencies_us, 0.99)))
            .with_note(samples),
        Metric::new("cpu_us_per_op", "us", lowest(&|r| micros(r.cpu) / r.ops as f64)),
        Metric::new("peak_rss_mb", "MB", median(&values(&|r| r.peak_rss_mb))),
    ]
}

/// The distinctness guard: `queries` must be pairwise non-isomorphic.
pub fn guard_distinct(out: &mut Outcome, what: &str, constraints: &str, queries: &[String]) {
    let distinct = distinct_count(constraints, queries);
    if distinct != queries.len() {
        out.problem(format!("{what}: {distinct} distinct of {} queries", queries.len()));
    }
}

/// Whether another round should start.
fn more_rounds(done: usize, start: Instant, seconds: f64) -> bool {
    done < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds
}

/// serve-zipf: the release `tpq serve` at its defaults, driven in a closed
/// loop by [`CLIENTS`] connections with Zipf(1.0) requests. A round is a
/// fresh server taking the whole request stream.
pub fn serve_zipf(ctx: &Ctx) -> Result<Outcome, String> {
    let inputs = ServeInputs::generate(ctx.seed, &ctx.sizes);
    let mut out = Outcome::default();
    guard_distinct(&mut out, "serve pool", &inputs.constraints, &inputs.pool);
    let mut oracle = Oracle::new(&inputs.constraints, &inputs.pool, &inputs.used());
    let lines = request_lines(&inputs);
    let n = inputs.requests.len();
    let (mut rounds, mut setup_s) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while more_rounds(rounds.len(), start, ctx.seconds) {
        let (server, setup) = Server::boot(&ctx.tpq)?;
        setup_s.push(setup.as_secs_f64());
        let mut conns = (0..CLIENTS).map(|_| server.connect()).collect::<Result<Vec<_>, _>>()?;
        let t = Instant::now();
        let replies = drive(&mut conns, &lines, &inputs, 0..n)?;
        let wall = t.elapsed();
        drop(conns);
        let exit = server.shutdown()?;
        for r in &replies {
            let ok = parse_answer(&r.text)
                .is_some_and(|a| oracle.check(inputs.requests[r.index], &a.minimized));
            out.failed += u64::from(!ok);
        }
        out.attempted += n as u64;
        rounds.push(Round {
            wall,
            ops: n,
            latencies_us: replies.iter().map(|r| micros(r.rtt)).collect(),
            cpu: exit.usage.cpu,
            peak_rss_mb: exit.usage.peak_rss_mb,
        });
    }
    out.metrics = round_metrics(&rounds, &setup_s);
    Ok(out)
}

/// Write `text` to `dir/name` and return the path.
fn write_file(dir: &Path, name: &str, text: &str) -> Result<PathBuf, String> {
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// One finished `tpq minimize --batch` process.
pub struct BatchRun {
    /// Exit status, wall time and usage.
    pub exit: Exit,
    /// One line per log query.
    pub stdout: String,
    /// The `--stats` line, when asked for.
    pub stderr: String,
}

/// Run `tpq minimize --batch <log> --constraints <ics> [extra…]` to the end.
pub fn run_batch(tpq: &Path, log: &Path, ics: &Path, extra: &[&str]) -> Result<BatchRun, String> {
    let mut proc = Proc::spawn(
        Command::new(tpq)
            .arg("minimize")
            .arg("--batch")
            .arg(log)
            .arg("--constraints")
            .arg(ics)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped()),
    )
    .map_err(|e| format!("cannot start tpq minimize: {e}"))?;
    let mut stdout = String::new();
    let mut stderr = String::new();
    let mut out_pipe = proc.stdout().expect("stdout is piped");
    let mut err_pipe = proc.stderr().expect("stderr is piped");
    // stderr carries at most a line or two, so it cannot fill its pipe
    // while stdout is being drained.
    out_pipe.read_to_string(&mut stdout).map_err(|e| format!("reading batch output: {e}"))?;
    err_pipe.read_to_string(&mut stderr).map_err(|e| format!("reading batch stderr: {e}"))?;
    let exit = proc.wait().map_err(|e| format!("cannot reap tpq minimize: {e}"))?;
    Ok(BatchRun { exit, stdout, stderr })
}

/// The batch-cold files on disk.
pub struct BatchFiles {
    /// The query log.
    pub log: PathBuf,
    /// The constraint file.
    pub ics: PathBuf,
    /// A one-query log (for set-up timing).
    pub one: PathBuf,
}

impl BatchFiles {
    /// Write the batch-cold inputs into `dir`.
    pub fn write(dir: &Path, inputs: &BatchInputs) -> Result<BatchFiles, String> {
        Ok(BatchFiles {
            log: write_file(dir, "batch.log", &inputs.log_text())?,
            ics: write_file(dir, "batch.ics", &inputs.constraints)?,
            one: write_file(dir, "one.log", &format!("{}\n", inputs.unique[0]))?,
        })
    }
}

/// Count wrong lines of a batch run's output against `oracle`.
pub fn wrong_lines(run: &BatchRun, log: &[u32], oracle: &mut Oracle) -> usize {
    let lines: Vec<&str> = run.stdout.lines().collect();
    if !run.exit.success || lines.len() != log.len() {
        return log.len();
    }
    log.iter().zip(&lines).filter(|(&i, line)| !oracle.check(i, line)).count()
}

/// batch-cold: fresh `tpq minimize --batch` processes over the whole log
/// at the default `--jobs`, [`BATCHES_PER_ROUND`] to a round. One latency
/// sample is one whole batch process.
pub fn batch_cold(ctx: &Ctx) -> Result<Outcome, String> {
    let inputs = BatchInputs::generate(ctx.seed, &ctx.sizes);
    let mut out = Outcome::default();
    guard_distinct(&mut out, "batch log", &inputs.constraints, &inputs.unique);
    let files = BatchFiles::write(&ctx.work, &inputs)?;
    let all: Vec<u32> = (0..inputs.unique.len() as u32).collect();
    let mut oracle = Oracle::new(&inputs.constraints, &inputs.unique, &all);
    // Set-up: process start, constraint parse and closure, one query.
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let run = run_batch(&ctx.tpq, &files.one, &files.ics, &[])?;
        if wrong_lines(&run, &[0], &mut oracle) > 0 {
            out.problem("one-query set-up batch failed");
        }
        setup_s.push(run.exit.wall.as_secs_f64());
    }
    let n = inputs.log.len();
    let mut rounds = Vec::new();
    let start = Instant::now();
    while more_rounds(rounds.len(), start, ctx.seconds) {
        let mut round = Round {
            wall: Duration::ZERO,
            ops: 0,
            latencies_us: Vec::new(),
            cpu: Duration::ZERO,
            peak_rss_mb: 0.0,
        };
        for _ in 0..BATCHES_PER_ROUND {
            let run = run_batch(&ctx.tpq, &files.log, &files.ics, &[])?;
            out.failed += wrong_lines(&run, &inputs.log, &mut oracle) as u64;
            out.attempted += n as u64;
            round.wall += run.exit.wall;
            round.ops += n;
            round.latencies_us.push(micros(run.exit.wall));
            round.cpu += run.exit.usage.cpu;
            round.peak_rss_mb = round.peak_rss_mb.max(run.exit.usage.peak_rss_mb);
        }
        rounds.push(round);
    }
    out.metrics = round_metrics(&rounds, &setup_s);
    Ok(out)
}

/// The match-deep queries and constraints parsed under one interner.
pub struct MatchSetup {
    /// The interner queries, constraints and the document share.
    pub types: TypeInterner,
    /// The queries as generated.
    pub raw: Vec<TreePattern>,
    /// The constraint set.
    pub ics: ConstraintSet,
    /// Its closure.
    pub closed: ConstraintSet,
}

impl MatchSetup {
    /// Parse the match-deep queries and constraints.
    pub fn parse(inputs: &MatchInputs) -> MatchSetup {
        let mut types = TypeInterner::new();
        let ics = parse_constraints(&inputs.constraints, &mut types)
            .expect("generated constraints parse");
        let raw = inputs
            .queries
            .iter()
            .map(|q| parse_pattern(q, &mut types).expect("generated query parses"))
            .collect();
        let closed = ics.closure();
        MatchSetup { types, raw, ics, closed }
    }
}

/// The document pipeline's output, with its stages timed.
pub struct DocPipeline {
    /// The repaired document.
    pub doc: Document,
    /// Bytes of XML written and read back.
    pub xml_bytes: u64,
    /// `parse_xml_reader` time.
    pub parse: Duration,
    /// `repair` time.
    pub repair: Duration,
}

/// The match-deep document pipeline: generate, write XML, stream it back
/// in, and repair it to satisfy the closed constraints.
pub fn deep_document(
    inputs: &MatchInputs,
    work: &Path,
    setup: &mut MatchSetup,
) -> Result<DocPipeline, String> {
    let mut gen_types = TypeInterner::new();
    let generated = inputs.document(&mut gen_types);
    let path = work.join("deep.xml");
    let file = std::fs::File::create(&path).map_err(|e| format!("cannot create XML: {e}"))?;
    let mut w = BufWriter::new(file);
    tpq_data::write_xml_to(&generated, &gen_types, &mut w)
        .map_err(|e| format!("cannot write XML: {e}"))?;
    w.into_inner().map_err(|e| format!("cannot flush XML: {e}"))?;
    drop(generated);
    let xml_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let file = std::fs::File::open(&path).map_err(|e| format!("cannot open XML: {e}"))?;
    let t = Instant::now();
    let parsed =
        parse_xml_reader(BufReader::new(file), &mut setup.types).map_err(|e| e.to_string())?;
    let parse = t.elapsed();
    let t = Instant::now();
    let doc = repair(&parsed, &setup.closed).map_err(|e| e.to_string())?;
    let repair = t.elapsed();
    Ok(DocPipeline { doc, xml_bytes, parse, repair })
}

/// `answers` in document-independent order, for comparing engines.
pub fn sorted(mut answers: Vec<DataNodeId>) -> Vec<DataNodeId> {
    answers.sort_unstable();
    answers
}

/// match-deep: minimize-then-match in process against one deep, repaired
/// document. One operation is `minimize_with` then `answer_set_twig`,
/// which builds the document index per call, as `tpq match` does; a round
/// is one operation per query, in the seed's order.
pub fn match_deep(ctx: &Ctx) -> Result<Outcome, String> {
    let inputs = MatchInputs::generate(ctx.seed, &ctx.sizes);
    let mut out = Outcome::default();
    let mut setup = MatchSetup::parse(&inputs);
    let mut setup_s = Vec::new();
    let mut doc = None;
    for _ in 0..DOC_SETUP_REPEATS {
        let t = Instant::now();
        doc = Some(deep_document(&inputs, &ctx.work, &mut setup)?.doc);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let doc = doc.expect("at least one set-up");
    // Oracle, before the timed section: raw answers equal minimized
    // answers, and twig equals embed.
    let mut expected = Vec::new();
    for (i, q) in setup.raw.iter().enumerate() {
        let m = minimize_with(q, &setup.ics, Strategy::default()).pattern;
        if m.size() != inputs.minimal_sizes[i] {
            out.problem(format!(
                "query {i}: {} nodes after minimizing, want {}",
                m.size(),
                inputs.minimal_sizes[i]
            ));
        }
        let twig = answer_set_twig(&m, &doc);
        let min = sorted(twig.clone());
        if sorted(answer_set_twig(q, &doc)) != min || sorted(answer_set(&m, &doc)) != min {
            out.problem(format!("query {i}: raw twig, minimized twig and embed answers disagree"));
        }
        expected.push(twig);
    }
    let mut rounds = Vec::new();
    let start = Instant::now();
    while more_rounds(rounds.len(), start, ctx.seconds) {
        let usage = self_usage();
        let t0 = Instant::now();
        let mut latencies_us = Vec::with_capacity(inputs.order.len());
        for &i in &inputs.order {
            let i = i as usize;
            let t = Instant::now();
            let m = minimize_with(&setup.raw[i], &setup.ics, Strategy::default()).pattern;
            let answers = answer_set_twig(&m, &doc);
            latencies_us.push(micros(t.elapsed()));
            out.failed += u64::from(answers != expected[i]);
        }
        let wall = t0.elapsed();
        let after = self_usage();
        out.attempted += inputs.order.len() as u64;
        rounds.push(Round {
            wall,
            ops: inputs.order.len(),
            latencies_us,
            cpu: after.cpu.saturating_sub(usage.cpu),
            peak_rss_mb: after.peak_rss_mb,
        });
    }
    out.metrics = round_metrics(&rounds, &setup_s);
    Ok(out)
}
