//! `tpq` — the command-line front door to the library.
//!
//! ```text
//! tpq minimize --query 'Book*[/Title][/Publisher]' --ic 'Book -> Publisher' --stats
//! tpq minimize --xpath '//Book[Title][.//LastName]' --schema schema.txt --tree
//! tpq minimize --batch queries.txt --constraints ics.txt --jobs 4
//! tpq minimize --batch queries.txt --deadline-ms 250 --budget 5000000
//! tpq --trace minimize 'Dept*[//DBProject]//Manager//DBProject'
//! tpq --metrics-json out.json minimize 'a*[/b][/b/c]'
//! tpq explain  'Articles[/Article//Paragraph]/Article*//Section//Paragraph' --ic 'Section ->> Paragraph'
//! tpq match    'Dept*//Manager' org.xml
//! tpq match    --query 'Dept*//Manager' --doc org.xml --engine naive
//! tpq check    --q1 'a*[/b]' --q2 'a*' --ic 'a -> b'
//! tpq closure  --constraints ics.txt
//! tpq repair   --doc org.xml --constraints ics.txt
//! tpq serve    --addr 127.0.0.1:7878 --jobs 4 --max-conns 64 --deadline-ms 1000
//! tpq serve    --addr 127.0.0.1:7878 --flight-dump flight.jsonl
//! tpq top      --addr 127.0.0.1:7878 --interval-ms 1000
//! tpq top      --addr 127.0.0.1:7878 --once
//! ```
//!
//! Patterns are given in the DSL by default; `--xpath` switches the query
//! syntax (`minimize` and `match` also accept the query as a bare
//! positional argument). Constraints can come inline (`--ic`, repeatable),
//! from a file (`--constraints`), or inferred from a schema file
//! (`--schema`); sources combine. Each subcommand rejects an option it
//! does not read with `unknown option --<name>`.
//!
//! `minimize`, `explain`, `match`, `check`, `closure` and `repair` write
//! their results through one locked buffered writer: a reader that closes
//! the pipe early (`| head -1`) ends the command quietly, and any other
//! write error is `error: cannot write results: …` with exit code 1.
//!
//! Observability (may appear anywhere on the command line):
//!
//! * `--trace` — print a flame-style span/counter report to stderr;
//! * `--metrics-json <path>` — write the span/counter/latency report as
//!   JSON (see `docs/OBSERVABILITY.md` for the schema).
//!
//! Resource governance (`minimize` only; see `docs/ROBUSTNESS.md`):
//!
//! * `--deadline-ms <n>` — wall-clock deadline for the minimization (the
//!   whole batch in `--batch` mode);
//! * `--budget <n>` — step budget (pooled across batch workers).
//!
//! A tripped limit exits with code 1 and a `budget error: …` message; in
//! batch mode queries that finished in time still print their results,
//! with `# error: …` placeholder lines holding the failed slots.
//!
//! `tpq explain` minimizes one query like `minimize` and then prints, per
//! deleted node, the Figure 6 CDM rule or the endomorphism witness that
//! justified the deletion (IC-implied witnesses are resolved back to the
//! chase fact that created them). `--events` additionally dumps the raw
//! decision-event stream to stderr as JSON lines.
//!
//! `tpq serve` runs the minimization service from `tpq-serve`: it prints
//! `listening on <addr>` once bound, answers newline-delimited JSON
//! requests until SIGTERM / ctrl-c / a `SHUTDOWN` verb, then drains
//! in-flight work and prints a summary. The socket side is an epoll
//! event-loop reactor, so `tpq serve` runs on Linux only (see
//! `docs/SERVING.md`). `--deadline-ms` / `--budget` act as per-request
//! ceilings rather than whole-process limits. `--flight-dump <path>`
//! names the file the always-on flight recorder dumps its recent-request
//! black box to when a request panics or the process receives SIGUSR1.
//!
//! `tpq top` is the matching live dashboard: it polls a running server's
//! `STATS` and `TIMELINE` verbs and redraws RED rates, windowed latency
//! quantiles, and the slowest recent requests; `--once` prints a single
//! plain frame for scripts (see `docs/SERVING.md`).

use std::collections::hash_map::Entry;
use std::io::Write as _;
use std::process::ExitCode;
use tpq::constraints::Schema;
use tpq::core::{minimize_closed_guarded, Strategy};
use tpq::prelude::*;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let (mut trace, metrics_json) = match peel_obs_flags(&mut args) {
        Ok(pair) => pair,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    // `TPQ_TRACE=…` enables the layer inside tpq-obs itself; mirror it
    // here so the report is also *printed* without an explicit --trace.
    if matches!(std::env::var("TPQ_TRACE").as_deref(), Ok(v) if !matches!(v, "" | "0" | "false" | "off"))
    {
        trace = true;
    }
    if trace || metrics_json.is_some() {
        tpq::obs::set_enabled(true);
    }
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: tpq [--trace] [--metrics-json <path>] <minimize|explain|match|check|closure|repair|serve|query|top> [options]");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "minimize" => cmd_minimize(rest),
        "explain" => cmd_explain(rest),
        "match" => cmd_match(rest),
        "check" => cmd_check(rest),
        "closure" => cmd_closure(rest),
        "repair" => cmd_repair(rest),
        "serve" => cmd_serve(rest),
        "query" => cmd_query(rest),
        "top" => cmd_top(rest),
        "--help" | "-h" | "help" => {
            println!(
                "subcommands: minimize, explain, match, check, closure, repair, serve, query, top"
            );
            println!("global flags: --trace, --metrics-json <path>");
            Ok(())
        }
        other => Err(format!("unknown subcommand '{other}'")),
    };
    let result = result.and_then(|()| emit_obs(trace, metrics_json.as_deref()));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Remove the global observability flags from `args`, wherever they occur.
fn peel_obs_flags(args: &mut Vec<String>) -> Result2<(bool, Option<String>)> {
    let mut trace = false;
    let mut metrics_json = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trace" => {
                trace = true;
                args.remove(i);
            }
            "--metrics-json" => {
                args.remove(i);
                if i >= args.len() {
                    return Err("--metrics-json needs a path".into());
                }
                metrics_json = Some(args.remove(i));
            }
            _ => i += 1,
        }
    }
    Ok((trace, metrics_json))
}

/// Flush the requested observability sinks after a successful command.
fn emit_obs(trace: bool, metrics_json: Option<&str>) -> Result2<()> {
    if trace {
        eprint!("\n{}", tpq::obs::report().to_text());
    }
    if let Some(path) = metrics_json {
        let json = tpq::obs::report().to_json().to_string_pretty();
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

/// Minimal flag cracker: `--name value` pairs, boolean flags, and bare
/// positional arguments.
struct Opts {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
    positionals: Vec<String>,
}

impl Opts {
    /// Crack `args` against the subcommand's `booleans` (`--name`) and
    /// `valued` options (`--name value`); any other `--name` is an error.
    fn parse(args: &[String], booleans: &[&str], valued: &[&str]) -> Result2<Opts> {
        let mut pairs = Vec::new();
        let mut flags = Vec::new();
        let mut positionals = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                positionals.push(a.clone());
                continue;
            };
            if booleans.contains(&name) {
                flags.push(name.to_owned());
            } else if valued.contains(&name) {
                let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                pairs.push((name.to_owned(), v.clone()));
            } else {
                return Err(format!("unknown option --{name}"));
            }
        }
        Ok(Opts { pairs, flags, positionals })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn get_all(&self, name: &str) -> Vec<&str> {
        self.pairs.iter().filter(|(n, _)| n == name).map(|(_, v)| v.as_str()).collect()
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    fn require(&self, name: &str) -> Result2<&str> {
        self.get(name).ok_or_else(|| format!("--{name} is required"))
    }

    fn no_positionals(&self) -> Result2<()> {
        match self.positionals.first() {
            Some(p) => Err(format!("unexpected argument '{p}'")),
            None => Ok(()),
        }
    }
}

type Result2<T> = std::result::Result<T, String>;

/// The valued options [`parse_query`] reads.
const QUERY_OPTS: [&str; 2] = ["query", "xpath"];
/// The valued options [`gather_constraints`] reads.
const CONSTRAINT_OPTS: [&str; 3] = ["ic", "constraints", "schema"];
/// The valued options [`parse_guard`] reads.
const GUARD_OPTS: [&str; 2] = ["deadline-ms", "budget"];

fn read_file(path: &str) -> Result2<String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Parse the XML document at `path`, streamed from disk, so documents need
/// not fit in one contiguous `String`.
fn read_document(path: &str, types: &mut TypeInterner) -> Result2<Document> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_xml_reader(std::io::BufReader::new(file), types).map_err(|e| e.to_string())
}

fn parse_query(opts: &Opts, types: &mut TypeInterner) -> Result2<TreePattern> {
    if let Some(x) = opts.get("xpath") {
        return tpq::pattern::parse_xpath(x, types).map_err(|e| e.to_string());
    }
    let q = match opts.get("query") {
        Some(q) => q,
        None => opts
            .positionals
            .first()
            .map(String::as_str)
            .ok_or("--query is required (or pass the query as a bare argument)")?,
    };
    parse_pattern(q, types).map_err(|e| e.to_string())
}

fn gather_constraints(opts: &Opts, types: &mut TypeInterner) -> Result2<ConstraintSet> {
    let mut lines: Vec<String> = opts.get_all("ic").iter().map(|s| s.to_string()).collect();
    if let Some(path) = opts.get("constraints") {
        lines.extend(read_file(path)?.lines().map(str::to_owned));
    }
    let mut set = parse_constraints(&lines.join("\n"), types).map_err(|e| e.to_string())?;
    if let Some(path) = opts.get("schema") {
        let schema = Schema::parse(&read_file(path)?, types).map_err(|e| e.to_string())?;
        for c in schema.infer_constraints().iter() {
            set.insert(c);
        }
    }
    Ok(set)
}

/// Batch queries folded by text: each distinct line's pattern once, in
/// first-occurrence order, and the index into `patterns` of every input
/// line, in input order.
struct BatchQueries {
    patterns: Vec<TreePattern>,
    slots: Vec<usize>,
}

/// Load batch queries from `path`: either one file with one DSL query per
/// line (blank lines and `#` comments skipped), or a directory whose
/// `.txt` files are read in sorted-name order.
///
/// Each trimmed line costs one hash probe on its text; only the first
/// occurrence of a text is parsed, so a repeat costs neither a parse nor
/// a pattern. A malformed line fails the whole load at its first
/// occurrence's `file:line`.
fn read_batch_queries(path: &str, types: &mut TypeInterner) -> Result2<BatchQueries> {
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    if std::fs::metadata(path).map_err(|e| format!("cannot read {path}: {e}"))?.is_dir() {
        for entry in std::fs::read_dir(path).map_err(|e| format!("cannot read {path}: {e}"))? {
            let entry = entry.map_err(|e| format!("cannot read {path}: {e}"))?;
            let p = entry.path();
            if p.extension().is_some_and(|ext| ext == "txt") {
                files.push(p);
            }
        }
        files.sort();
        if files.is_empty() {
            return Err(format!("{path} contains no .txt query files"));
        }
    } else {
        files.push(path.into());
    }
    let texts =
        files.iter().map(|f| read_file(&f.display().to_string())).collect::<Result2<Vec<_>>>()?;
    let mut batch = BatchQueries { patterns: Vec::new(), slots: Vec::new() };
    let mut seen: tpq::base::FxHashMap<&str, usize> = tpq::base::FxHashMap::default();
    for (file, text) in files.iter().zip(&texts) {
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let slot = match seen.entry(line) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let q = parse_pattern(line, types)
                        .map_err(|e| format!("{}:{}: {e}", file.display(), lineno + 1))?;
                    batch.patterns.push(q);
                    *e.insert(batch.patterns.len() - 1)
                }
            };
            batch.slots.push(slot);
        }
    }
    Ok(batch)
}

/// Build a [`Guard`] from `--deadline-ms` / `--budget`; with neither flag
/// the guard is unlimited and minimization takes the free fast path.
fn parse_guard(opts: &Opts) -> Result2<Guard> {
    let mut builder = Guard::builder();
    if let Some(ms) = opts.get("deadline-ms") {
        let ms = ms
            .parse::<u64>()
            .map_err(|_| format!("--deadline-ms needs a non-negative integer, got '{ms}'"))?;
        builder = builder.deadline_ms(ms);
    }
    if let Some(steps) = opts.get("budget") {
        let steps = steps
            .parse::<u64>()
            .map_err(|_| format!("--budget needs a non-negative integer, got '{steps}'"))?;
        builder = builder.budget(steps);
    }
    Ok(builder.build())
}

fn constraint_line(c: &Constraint, types: &TypeInterner) -> String {
    let op = match c {
        Constraint::RequiredChild(..) => "->",
        Constraint::RequiredDescendant(..) => "->>",
        Constraint::CoOccurrence(..) => "~",
    };
    format!("{} {} {}", types.name(c.lhs()), op, types.name(c.rhs()))
}

fn cmd_minimize(args: &[String]) -> Result2<()> {
    let opts = Opts::parse(
        args,
        &["tree", "stats"],
        &[&QUERY_OPTS[..], &CONSTRAINT_OPTS, &GUARD_OPTS, &["strategy", "batch", "jobs"]].concat(),
    )?;
    let mut types = TypeInterner::new();
    let strategy = opts.get("strategy").unwrap_or_default().parse::<Strategy>()?;
    // Batch mode: one query per line from a file (or every `.txt` file in
    // a directory), minimized by the parallel batch engine: verbatim
    // repeats are folded by text before parsing, the constraint closure is
    // computed once, isomorphic queries are minimized once via the
    // canonical-key memo cache, and the unique remainder fans out over
    // `--jobs` worker threads. Output order always matches input order.
    if let Some(path) = opts.get("batch") {
        let jobs = match opts.get("jobs") {
            None => std::thread::available_parallelism().map_or(1, |n| n.get()),
            Some(n) => match n.parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => return Err(format!("--jobs needs a positive integer, got '{n}'")),
            },
        };
        let guard = parse_guard(&opts)?;
        let batch = read_batch_queries(path, &mut types)?;
        let ics = gather_constraints(&opts, &mut types)?;
        let engine = tpq::core::BatchMinimizer::with_strategy(&ics, strategy);
        let out = engine.minimize_batch_guarded(&batch.patterns, jobs, &guard);
        // The engine saw each distinct line once; count per input line, a
        // textual repeat being a cache hit.
        let folded = (batch.slots.len() - batch.patterns.len()) as u64;
        tpq::obs::incr("batch.cache.hit", folded);
        let s = tpq::core::BatchStats {
            queries: batch.slots.len(),
            cache_hits: out.stats.cache_hits + folded,
            failed: batch.slots.iter().filter(|&&slot| out.results[slot].is_err()).count(),
            ..out.stats
        };
        // Render each distinct query's line once; every input line then
        // writes its slot's line, so stdout stays parallel to the input.
        // Failed slots print a commented placeholder.
        let lines: Vec<String> = out
            .results
            .iter()
            .map(|r| match r {
                Ok(m) => to_dsl(m, &types) + "\n",
                Err(e) => format!("# error: {e}\n"),
            })
            .collect();
        let written = write_stdout(|w| {
            batch.slots.iter().try_for_each(|&slot| w.write_all(lines[slot].as_bytes()))
        })?;
        if !written {
            return Ok(());
        }
        if opts.flag("stats") {
            eprintln!(
                "{} queries ({} unique) | cache {} hit / {} miss | {} workers, {} steals | {} failed | {:?}",
                s.queries, s.unique, s.cache_hits, s.cache_misses, s.workers, s.steals, s.failed, s.wall_time,
            );
        }
        if s.failed > 0 {
            return Err(format!(
                "{} of {} queries failed (see '# error' lines above)",
                s.failed, s.queries
            ));
        }
        return Ok(());
    }
    let guard = parse_guard(&opts)?;
    let query = parse_query(&opts, &mut types)?;
    let ics = gather_constraints(&opts, &mut types)?;
    let out = minimize_closed_guarded(&query, &ics.closure(), strategy, &guard)
        .map_err(|e| e.to_string())?;
    if !write_stdout(|w| writeln!(w, "{}", to_dsl(&out.pattern, &types)))? {
        return Ok(());
    }
    if opts.flag("tree") {
        eprintln!("\n{}", to_tree_string(&out.pattern, &types));
    }
    if opts.flag("stats") {
        let s = &out.stats;
        eprintln!(
            "nodes {} -> {} | cdm removed {} | acim removed {} | temps added {} | {:?} total ({:.0}% tables)",
            query.size(),
            out.pattern.size(),
            s.cdm_removed,
            s.cim_removed,
            s.augment_nodes_added,
            s.total_time,
            s.tables_fraction() * 100.0,
        );
    }
    Ok(())
}

/// Run `body` over stdout through one locked buffered writer. Returns
/// `Ok(false)` when the reader went away (`… | head`): nobody is left to
/// tell, so the command ends quietly. Any other write error is a CLI
/// error.
fn write_stdout(
    body: impl FnOnce(&mut std::io::BufWriter<std::io::StdoutLock<'static>>) -> std::io::Result<()>,
) -> Result2<bool> {
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    match body(&mut out).and_then(|()| out.flush()) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(false),
        Err(e) => Err(format!("cannot write results: {e}")),
    }
}

/// `tpq explain`: minimize once with decision-event capture on and print,
/// for every deleted node, the constraint-closure fact or homomorphism
/// witness that justified the deletion.
fn cmd_explain(args: &[String]) -> Result2<()> {
    let opts = Opts::parse(
        args,
        &["events"],
        &[&QUERY_OPTS[..], &CONSTRAINT_OPTS, &GUARD_OPTS, &["strategy"]].concat(),
    )?;
    let mut types = TypeInterner::new();
    let strategy = opts.get("strategy").unwrap_or_default().parse::<Strategy>()?;
    let guard = parse_guard(&opts)?;
    let query = parse_query(&opts, &mut types)?;
    let ics = gather_constraints(&opts, &mut types)?;
    let ex = tpq::core::explain(&query, &ics, strategy, &guard).map_err(|e| e.to_string())?;
    let written = write_stdout(|w| {
        writeln!(w, "{}", to_dsl(&ex.minimized, &types))?;
        writeln!(
            w,
            "{} nodes -> {} ({} deleted) | trace {}",
            query.size(),
            ex.minimized.size(),
            ex.deletions.len(),
            tpq::obs::trace_hex(ex.trace),
        )?;
        for d in &ex.deletions {
            writeln!(w, "  - {}", deletion_line(d, &query, &types))?;
        }
        Ok(())
    })?;
    if written && opts.flag("events") {
        eprint!("{}", tpq::obs::events_to_json_lines(&ex.events));
    }
    Ok(())
}

/// One human-readable justification line for a deleted node.
fn deletion_line(d: &tpq::core::Deletion, q: &TreePattern, types: &TypeInterner) -> String {
    use tpq::core::Reason;
    let name = types.name(d.ty);
    let fact_line = |fact: &tpq::core::ChaseFact| {
        format!("{} {} {}", types.name(fact.lhs), fact.op, types.name(fact.rhs))
    };
    match &d.reason {
        Reason::Cdm { rule, at, fact, witness_ty } => {
            let mut line = format!(
                "{name} (node {}): CDM rule {rule} at {} (node {}): {}",
                d.node.0,
                types.name(q.node(*at).primary),
                at.0,
                fact_line(fact),
            );
            if let Some(w) = witness_ty {
                let role = if *rule == 3 { "sibling" } else { "descendant" };
                line.push_str(&format!(", witnessed by a co-occurring {} {role}", types.name(*w)));
            }
            line
        }
        Reason::Cim { witness, witness_ty, via } => match via {
            Some(fact) => format!(
                "{name} (node {}): CIM folds it onto the IC-implied {} under {} (node {}), chase: {}",
                d.node.0,
                types.name(*witness_ty),
                types.name(q.node(fact.at).primary),
                fact.at.0,
                fact_line(fact),
            ),
            None => format!(
                "{name} (node {}): CIM folds it onto {} (node {})",
                d.node.0,
                types.name(*witness_ty),
                witness.0,
            ),
        },
    }
}

fn cmd_match(args: &[String]) -> Result2<()> {
    let opts = Opts::parse(args, &["count"], &[&QUERY_OPTS[..], &["doc", "engine"]].concat())?;
    let mut types = TypeInterner::new();
    let query = parse_query(&opts, &mut types)?;
    // The document: `--doc <file>`, or the positional after the query
    // (`tpq match '<query>' doc.xml`).
    let inline_query = opts.get("query").is_none() && opts.get("xpath").is_none();
    let doc_path = match opts.get("doc") {
        Some(p) => p,
        None => opts
            .positionals
            .get(if inline_query { 1 } else { 0 })
            .map(String::as_str)
            .ok_or("--doc is required (or pass the document file after the query)")?,
    };
    let doc = read_document(doc_path, &mut types)?;
    let engine = opts.get("engine").unwrap_or("embed");
    let guard = Guard::unlimited();
    if opts.flag("count") {
        let n = match engine {
            "naive" => count_embeddings_naive(&query, &doc, &guard),
            "embed" => Matcher::new(&query, &doc, &guard).map(|m| m.count_embeddings()),
            other => return Err(format!("unknown engine '{other}' (embed|naive)")),
        }
        .map_err(|e| e.to_string())?;
        write_stdout(|w| writeln!(w, "{n}"))?;
        return Ok(());
    }
    let mut answers = match engine {
        "embed" => Matcher::new(&query, &doc, &guard).map(|m| m.answers()),
        "naive" => answer_set_naive(&query, &doc, &guard),
        other => return Err(format!("unknown engine '{other}' (embed|naive)")),
    }
    .map_err(|e| e.to_string())?;
    // Print in id order, which is document order for a parsed document,
    // so output is engine-independent and diff-able.
    answers.sort_unstable();
    write_stdout(|w| {
        writeln!(w, "{} answer(s)", answers.len())?;
        let mut path = Vec::new();
        for &a in &answers {
            // Print the path from the root to the answer node.
            path.clear();
            let mut cur = Some(a);
            while let Some(n) = cur {
                path.push(types.name(doc.primary(n)));
                cur = doc.parent(n);
            }
            path.reverse();
            writeln!(w, "  /{} (node {})", path.join("/"), a.0)?;
        }
        Ok(())
    })?;
    Ok(())
}

fn cmd_check(args: &[String]) -> Result2<()> {
    let opts = Opts::parse(args, &[], &[&CONSTRAINT_OPTS[..], &["q1", "q2"]].concat())?;
    opts.no_positionals()?;
    let mut types = TypeInterner::new();
    let q1 = parse_pattern(opts.require("q1")?, &mut types).map_err(|e| e.to_string())?;
    let q2 = parse_pattern(opts.require("q2")?, &mut types).map_err(|e| e.to_string())?;
    let ics = gather_constraints(&opts, &mut types)?;
    let guard = Guard::unlimited();
    let fwd = contains_under(&q1, &q2, &ics, &guard).map_err(|e| e.to_string())?;
    let bwd = contains_under(&q2, &q1, &ics, &guard).map_err(|e| e.to_string())?;
    write_stdout(|w| {
        writeln!(w, "q1 ⊆ q2: {fwd}")?;
        writeln!(w, "q2 ⊆ q1: {bwd}")?;
        writeln!(
            w,
            "equivalent: {}{}",
            fwd && bwd,
            if ics.is_empty() { "" } else { " (under the given constraints)" }
        )
    })?;
    Ok(())
}

fn cmd_closure(args: &[String]) -> Result2<()> {
    let opts = Opts::parse(args, &[], &CONSTRAINT_OPTS)?;
    opts.no_positionals()?;
    let mut types = TypeInterner::new();
    let ics = gather_constraints(&opts, &mut types)?;
    let closed = ics.closure();
    let mut lines: Vec<String> = closed.iter().map(|c| constraint_line(&c, &types)).collect();
    lines.sort();
    if !write_stdout(|w| lines.iter().try_for_each(|l| writeln!(w, "{l}")))? {
        return Ok(());
    }
    eprintln!("{} constraints ({} given)", closed.len(), ics.len());
    if !closed.is_finitely_satisfiable() {
        eprintln!("warning: the closure contains a required-descendant cycle; no finite tree satisfies it");
    }
    Ok(())
}

/// `tpq serve`: run the long-running minimization service until a
/// shutdown signal (SIGTERM / ctrl-c) or a `SHUTDOWN` protocol verb.
fn cmd_serve(args: &[String]) -> Result2<()> {
    let opts = Opts::parse(
        args,
        &[],
        &[
            "addr",
            "jobs",
            "max-conns",
            "deadline-ms",
            "budget",
            "max-line-bytes",
            "drain-ms",
            "strategy",
            "queue-depth",
            "snapshot",
            "restore",
            "flight-dump",
        ],
    )?;
    opts.no_positionals()?;
    let mut config =
        tpq::serve::ServeConfig { handle_signals: true, ..tpq::serve::ServeConfig::default() };
    if let Some(addr) = opts.get("addr") {
        config.addr = addr.to_owned();
    }
    if let Some(jobs) = opts.get("jobs") {
        config.jobs = jobs
            .parse::<usize>()
            .map_err(|_| format!("--jobs needs a non-negative integer, got '{jobs}'"))?;
    }
    if let Some(n) = opts.get("max-conns") {
        config.max_conns = match n.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => return Err(format!("--max-conns needs a positive integer, got '{n}'")),
        };
    }
    if let Some(ms) = opts.get("deadline-ms") {
        config.deadline_ms = Some(
            ms.parse::<u64>()
                .map_err(|_| format!("--deadline-ms needs a non-negative integer, got '{ms}'"))?,
        );
    }
    if let Some(steps) = opts.get("budget") {
        config.budget = Some(
            steps
                .parse::<u64>()
                .map_err(|_| format!("--budget needs a non-negative integer, got '{steps}'"))?,
        );
    }
    if let Some(bytes) = opts.get("max-line-bytes") {
        config.max_line_bytes = match bytes.parse::<usize>() {
            Ok(n) if n >= 2 => n,
            _ => return Err(format!("--max-line-bytes needs an integer >= 2, got '{bytes}'")),
        };
    }
    if let Some(ms) = opts.get("drain-ms") {
        config.drain_ms = ms
            .parse::<u64>()
            .map_err(|_| format!("--drain-ms needs a non-negative integer, got '{ms}'"))?;
    }
    if let Some(strategy) = opts.get("strategy") {
        config.strategy = strategy.parse::<Strategy>()?;
    }
    if let Some(n) = opts.get("queue-depth") {
        config.queue_depth = match n.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => return Err(format!("--queue-depth needs a positive integer, got '{n}'")),
        };
    }
    if let Some(path) = opts.get("snapshot") {
        config.snapshot = Some(path.into());
    }
    if let Some(path) = opts.get("restore") {
        config.restore = Some(path.into());
    }
    if let Some(path) = opts.get("flight-dump") {
        config.flight_dump = Some(path.into());
    }
    let server = tpq::serve::Server::bind(config).map_err(|e| format!("cannot bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let restore = server.handle().restore_status().clone();
    match restore.outcome {
        "restored" => println!(
            "restored snapshot: {} engines, {} patterns ({} bytes)",
            restore.stats.engines, restore.stats.patterns, restore.stats.bytes
        ),
        "rejected" => println!(
            "snapshot rejected ({}), starting cold",
            restore.reason.as_deref().unwrap_or("unknown reason")
        ),
        _ => {}
    }
    // Announce the bound address on a flushed line so wrappers (tests, CI
    // smoke scripts) can pick up the port chosen for `--addr host:0`.
    println!("listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let summary = server.run().map_err(|e| format!("serve failed: {e}"))?;
    eprintln!(
        "serve: {} connections ({} refused), {} requests ok, {} failed, {} shed",
        summary.accepted,
        summary.refused,
        summary.requests_ok,
        summary.requests_failed,
        summary.requests_shed
    );
    if let Some(path) = &summary.snapshot_written {
        eprintln!("serve: snapshot written to {}", path.display());
    }
    Ok(())
}

/// `tpq top`: a live terminal dashboard over a running `tpq serve`,
/// polling `STATS` and `TIMELINE` at `--interval-ms`. `--once` renders a
/// single plain frame (stable `key:` line prefixes, no escape codes) for
/// scripts and CI smoke checks.
fn cmd_top(args: &[String]) -> Result2<()> {
    let opts = Opts::parse(args, &["once"], &["addr", "interval-ms", "timeline"])?;
    opts.no_positionals()?;
    let mut config = tpq::serve::TopConfig::default();
    if let Some(addr) = opts.get("addr") {
        config.addr = addr.to_owned();
    }
    if let Some(ms) = opts.get("interval-ms") {
        config.interval_ms = match ms.parse::<u64>() {
            Ok(n) if n >= 1 => n,
            _ => return Err(format!("--interval-ms needs a positive integer, got '{ms}'")),
        };
    }
    if let Some(n) = opts.get("timeline") {
        config.timeline = match n.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => return Err(format!("--timeline needs a positive integer, got '{n}'")),
        };
    }
    config.once = opts.flag("once");
    let mut stdout = std::io::stdout();
    tpq::serve::top::run(&config, &mut stdout)
        .map_err(|e| format!("cannot watch {}: {e}", config.addr))
}

/// `tpq query`: minimize one query against a running `tpq serve`, with
/// the client-side retry discipline (retries only `overloaded` /
/// `injected` refusals and transport failures, honoring the server's
/// `retry_after_ms` hints, under an optional end-to-end deadline).
fn cmd_query(args: &[String]) -> Result2<()> {
    use tpq::base::Json;
    let opts = Opts::parse(
        args,
        &["stats"],
        &[
            &QUERY_OPTS[..],
            &["ic", "constraints", "strategy", "budget"],
            &["addr", "retries", "backoff-ms", "deadline-ms", "seed"],
        ]
        .concat(),
    )?;
    let addr = opts.get("addr").unwrap_or("127.0.0.1:7878").to_owned();
    let mut policy = tpq::serve::RetryPolicy::default();
    if let Some(n) = opts.get("retries") {
        policy.retries = n
            .parse::<u32>()
            .map_err(|_| format!("--retries needs a non-negative integer, got '{n}'"))?;
    }
    if let Some(ms) = opts.get("backoff-ms") {
        policy.backoff_ms = ms
            .parse::<u64>()
            .map_err(|_| format!("--backoff-ms needs a non-negative integer, got '{ms}'"))?;
    }
    if let Some(ms) = opts.get("deadline-ms") {
        policy.deadline_ms = Some(
            ms.parse::<u64>()
                .map_err(|_| format!("--deadline-ms needs a non-negative integer, got '{ms}'"))?,
        );
    }
    if let Some(seed) = opts.get("seed") {
        policy.seed = seed
            .parse::<u64>()
            .map_err(|_| format!("--seed needs a non-negative integer, got '{seed}'"))?;
    }

    // Build the protocol request object from the same flags `tpq
    // minimize` takes; the query may be --query, --xpath, or positional.
    let mut members: Vec<(&str, Json)> = Vec::new();
    if let Some(x) = opts.get("xpath") {
        members.push(("query", Json::Str(x.to_owned())));
        members.push(("syntax", Json::Str("xpath".to_owned())));
    } else {
        let q = match opts.get("query") {
            Some(q) => q,
            None => opts
                .positionals
                .first()
                .map(String::as_str)
                .ok_or("--query is required (or pass the query as a bare argument)")?,
        };
        members.push(("query", Json::Str(q.to_owned())));
    }
    let ics: Vec<String> = opts.get_all("ic").iter().map(|s| s.to_string()).collect();
    let mut constraints = ics.join("\n");
    if let Some(path) = opts.get("constraints") {
        if !constraints.is_empty() {
            constraints.push('\n');
        }
        constraints.push_str(&read_file(path)?);
    }
    if !constraints.is_empty() {
        members.push(("constraints", Json::Str(constraints)));
    }
    if let Some(strategy) = opts.get("strategy") {
        strategy.parse::<Strategy>()?; // validate locally for a better error
        members.push(("strategy", Json::Str(strategy.to_owned())));
    }
    if let Some(steps) = opts.get("budget") {
        let steps = steps
            .parse::<i64>()
            .map_err(|_| format!("--budget needs a non-negative integer, got '{steps}'"))?;
        members.push(("budget", Json::Int(steps)));
    }
    let request = Json::object(members);

    let mut client = tpq::serve::Client::new(addr, policy);
    match client.query(&request) {
        Ok(outcome) => {
            println!("{}", outcome.minimized);
            if opts.flag("stats") {
                eprintln!(
                    "query: {} attempt(s), cache {}, {}us server-side{}",
                    outcome.attempts,
                    if outcome.cache_hit { "hit" } else { "miss" },
                    outcome.micros,
                    outcome.trace.as_deref().map(|t| format!(", trace {t}")).unwrap_or_default()
                );
            }
            Ok(())
        }
        Err(e) => Err(e.to_string()),
    }
}

fn cmd_repair(args: &[String]) -> Result2<()> {
    let opts = Opts::parse(args, &[], &[&CONSTRAINT_OPTS[..], &["doc"]].concat())?;
    opts.no_positionals()?;
    let mut types = TypeInterner::new();
    let doc = read_document(opts.require("doc")?, &mut types)?;
    let ics = gather_constraints(&opts, &mut types)?.closure();
    let fixed = tpq::constraints::repair(&doc, &ics).map_err(|e| e.to_string())?;
    if write_stdout(|w| tpq::data::write_xml_to(&fixed, &types, w))? {
        eprintln!("{} -> {} nodes", doc.len(), fixed.len());
    }
    Ok(())
}
