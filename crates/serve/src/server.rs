//! The TCP server: configuration, protocol semantics, shutdown.
//!
//! The socket side is the epoll reactor in [`crate::reactor`]: one
//! thread multiplexes every socket and answers memo hits itself (a
//! textual repeat from the engine's query-text front, without parsing
//! the query or taking the interner lock), while
//! CPU-bound minimization fans out to the [`tpq_base::pool::TaskPool`],
//! whose completions re-enter the reactor through an eventfd. `--jobs`
//! bounds CPU concurrency independently of `--max-conns` (socket
//! concurrency). This module holds what the reactor calls into: verbs,
//! admission control, the two halves of the request path under their
//! panic shields, flight records and the drain epilogue.
//! The reactor needs epoll, so [`Server::run`] is Linux-only.
//! Minimization engines come from [`tpq_core::shared_engine`], so every
//! connection shares one constraint closure and one canonical-pattern
//! memo cache per constraint set, and all queries are interned through
//! one process-wide [`TypeInterner`] (see [`global_types`]).
//!
//! Shutdown is cooperative: [`ServeHandle::shutdown`] (or a SIGTERM /
//! ctrl-c when signal handling is installed, or the `SHUTDOWN` protocol
//! verb) makes the reactor stop taking connections; every buffered
//! request is answered (admitted ones by their worker, the rest with a
//! typed drain error) and [`Server::run`] waits for the connections to
//! close (bounded by [`ServeConfig::drain_ms`]) before joining the worker
//! pool.

use crate::proto::{success_response, ProtoError, Request, Syntax, DEFAULT_MAX_LINE_BYTES};
use crate::snapshot::SnapshotStats;
use std::io::{ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, TryLockError};
use std::time::{Duration, Instant};
use tpq_base::pool::{catch_panic, shielded, TaskPool};
use tpq_base::{failpoint, Guard, Json, TypeInterner};
use tpq_constraints::parse_constraints;
use tpq_core::{
    probe_engine_text, shared_engine_for_text, shared_front_usage, BatchMinimizer, CachedOutcome,
    FrontAnswer, MinimizeStats, Strategy,
};
use tpq_pattern::print::to_dsl;
use tpq_pattern::{CanonicalKey, TreePattern};

/// Server tunables. `Default` gives a loopback development server.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Minimization worker threads (`0` = available parallelism).
    pub jobs: usize,
    /// Maximum simultaneous connections; excess connections receive one
    /// `overloaded` error line and are closed.
    pub max_conns: usize,
    /// Server-wide per-request wall-clock deadline (ms). A request's own
    /// `deadline_ms` may tighten but never exceed it.
    pub deadline_ms: Option<u64>,
    /// Server-wide per-request step budget; same capping rule.
    pub budget: Option<u64>,
    /// Strategy for requests that do not name one.
    pub strategy: Strategy,
    /// Upper bound on one request line, in bytes.
    pub max_line_bytes: usize,
    /// How long [`Server::run`] waits for in-flight connections to finish
    /// after shutdown is requested, in milliseconds.
    pub drain_ms: u64,
    /// Install SIGINT/SIGTERM handlers that trigger graceful shutdown
    /// (the `tpq serve` CLI sets this; tests drive shutdown explicitly).
    pub handle_signals: bool,
    /// Admission-queue bound: requests in flight (executing *or* waiting
    /// on a pool worker) beyond this are shed with a typed `overloaded`
    /// error carrying a `retry_after_ms` hint — before they are parsed,
    /// so a shed request costs almost nothing. Distinct from
    /// [`max_conns`](ServeConfig::max_conns), which gates *connections*
    /// at accept time.
    pub queue_depth: usize,
    /// Write a warm-restart cache snapshot here after the drain completes
    /// (atomically: tmp sibling + rename). `None` disables.
    pub snapshot: Option<PathBuf>,
    /// Restore a snapshot from here at bind time. A missing file is a
    /// normal cold start; a corrupt, truncated, wrong-version or
    /// interner-incompatible file is *rejected* (logged, counted) and the
    /// server starts cold — it never crashes or restores partially.
    pub restore: Option<PathBuf>,
    /// Where the flight recorder dumps its black box (atomically: tmp
    /// sibling + rename) when a worker panics or SIGUSR1 arrives. `None`
    /// disables dumping; the in-memory ring and the `TIMELINE` verb stay
    /// on regardless.
    pub flight_dump: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7878".to_owned(),
            jobs: 0,
            max_conns: 64,
            deadline_ms: None,
            budget: None,
            strategy: Strategy::default(),
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            drain_ms: 5_000,
            handle_signals: false,
            queue_depth: 256,
            snapshot: None,
            restore: None,
            flight_dump: None,
        }
    }
}

/// What one server lifetime did; returned by [`Server::run`].
#[derive(Debug, Clone, Default)]
pub struct ServeSummary {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections refused at the `max_conns` limit.
    pub refused: u64,
    /// Requests answered successfully.
    pub requests_ok: u64,
    /// Requests answered with an error response.
    pub requests_failed: u64,
    /// Requests shed with a typed `overloaded` / `injected` error
    /// (admission queue, armed failpoint, or drain flush); a subset of
    /// [`requests_failed`](ServeSummary::requests_failed).
    pub requests_shed: u64,
    /// Where the drain-time snapshot landed, when one was configured and
    /// the write succeeded.
    pub snapshot_written: Option<PathBuf>,
}

/// What the `--restore` attempt at bind time did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreStatus {
    /// `"cold"` (no snapshot configured, or the file does not exist yet),
    /// `"restored"`, or `"rejected"`.
    pub outcome: &'static str,
    /// What the restored snapshot contained (zeroed unless restored).
    pub stats: SnapshotStats,
    /// Why the snapshot was rejected, when it was.
    pub reason: Option<String>,
}

impl Default for RestoreStatus {
    fn default() -> RestoreStatus {
        RestoreStatus { outcome: "cold", stats: SnapshotStats::default(), reason: None }
    }
}

/// Shared mutable server state: counters, the worker pool, config.
/// Crate-visible so the reactor can drive it.
pub(crate) struct ServerState {
    pub(crate) shutdown: AtomicBool,
    pub(crate) active: AtomicUsize,
    /// Requests currently being processed (the `serve.inflight` gauge).
    pub(crate) inflight: AtomicUsize,
    pub(crate) accepted: AtomicU64,
    pub(crate) refused: AtomicU64,
    pub(crate) requests_ok: AtomicU64,
    pub(crate) requests_failed: AtomicU64,
    /// Requests shed at the admission queue (`queue_depth` exceeded).
    pub(crate) shed_queue_full: AtomicU64,
    /// Requests shed by the armed `serve.shed` failpoint.
    pub(crate) shed_injected: AtomicU64,
    /// Buffered requests answered with a typed error during drain.
    pub(crate) shed_drain: AtomicU64,
    pub(crate) pool: TaskPool,
    pub(crate) config: ServeConfig,
    pub(crate) started: Instant,
    /// What `--restore` did at bind time (immutable afterwards).
    restore: RestoreStatus,
    /// The always-on flight recorder every request feeds; drained by the
    /// `TIMELINE` verb, dumped on worker panic or SIGUSR1.
    pub(crate) flight: tpq_obs::FlightRecorder,
    /// The rolling 60-second window behind the STATS `window` block and
    /// the `tpq_*_1m` METRICS gauges.
    pub(crate) window: tpq_obs::RollingWindow,
}

impl ServerState {
    pub(crate) fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
            || (self.config.handle_signals && crate::signal::triggered())
    }

    /// Total requests shed across all three reasons.
    pub(crate) fn requests_shed(&self) -> u64 {
        self.shed_queue_full.load(Ordering::Relaxed)
            + self.shed_injected.load(Ordering::Relaxed)
            + self.shed_drain.load(Ordering::Relaxed)
    }
}

/// A clonable handle that can observe and stop a running [`Server`].
#[derive(Clone)]
pub struct ServeHandle {
    state: Arc<ServerState>,
}

impl ServeHandle {
    /// Request graceful shutdown: stop accepting, drain in-flight work.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::Release);
    }

    /// Has shutdown been requested (by any route)?
    pub fn is_shutdown(&self) -> bool {
        self.state.shutdown_requested()
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.state.active.load(Ordering::Acquire)
    }

    /// What the `--restore` attempt at bind time did.
    pub fn restore_status(&self) -> &RestoreStatus {
        &self.state.restore
    }

    /// Dump the flight recorder to the configured `--flight-dump` path
    /// right now, returning the number of records written. Errors when no
    /// dump path was configured. This is the programmatic twin of sending
    /// the process SIGUSR1.
    pub fn dump_flight(&self) -> std::io::Result<usize> {
        match &self.state.config.flight_dump {
            Some(path) => self.state.flight.dump(path),
            None => Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "no --flight-dump path configured",
            )),
        }
    }
}

/// The process-wide [`TypeInterner`] behind every request the serve layer
/// parses. One interner for the whole process keeps [`TypeId`]s globally
/// consistent, which is what makes sharing canonical-key memo caches
/// across connections (and across [`Server`] instances in tests) sound.
///
/// [`TypeId`]: tpq_base::TypeId
pub fn global_types() -> &'static Mutex<TypeInterner> {
    static TYPES: OnceLock<Mutex<TypeInterner>> = OnceLock::new();
    TYPES.get_or_init(|| Mutex::new(TypeInterner::new()))
}

/// Lock the global interner, recovering from a poisoned lock (the
/// interner is append-only, so a panic mid-intern leaves it usable).
fn lock_types() -> std::sync::MutexGuard<'static, TypeInterner> {
    global_types().lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A bound, not-yet-running minimization server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Bind the listen socket and spawn the worker pool. Also enables the
    /// `tpq-obs` layer so the `STATS` verb has data to report.
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let jobs = if config.jobs == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.jobs
        };
        tpq_obs::set_enabled(true);
        if config.handle_signals {
            crate::signal::install();
        }
        let restore = restore_at_bind(config.restore.as_deref());
        Ok(Server {
            listener,
            state: Arc::new(ServerState {
                shutdown: AtomicBool::new(false),
                active: AtomicUsize::new(0),
                inflight: AtomicUsize::new(0),
                accepted: AtomicU64::new(0),
                refused: AtomicU64::new(0),
                requests_ok: AtomicU64::new(0),
                requests_failed: AtomicU64::new(0),
                shed_queue_full: AtomicU64::new(0),
                shed_injected: AtomicU64::new(0),
                shed_drain: AtomicU64::new(0),
                pool: TaskPool::new(jobs),
                config,
                started: Instant::now(),
                restore,
                flight: tpq_obs::FlightRecorder::default(),
                window: tpq_obs::RollingWindow::new(),
            }),
        })
    }

    /// The address actually bound (resolves `:0` to the chosen port).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle for observing and stopping this server from other threads.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle { state: Arc::clone(&self.state) }
    }

    /// Serve until shutdown is requested, then drain and return totals.
    ///
    /// The epoll reactor ([`crate::reactor`]) owns every socket and hands
    /// minimization work to the shared worker pool. Returns after
    /// in-flight connections finish (bounded by [`ServeConfig::drain_ms`]).
    /// Off Linux there is no epoll, and this fails with
    /// [`ErrorKind::Unsupported`].
    pub fn run(self) -> std::io::Result<ServeSummary> {
        #[cfg(target_os = "linux")]
        return crate::reactor::run(self.listener, self.state);
        #[cfg(not(target_os = "linux"))]
        Err(std::io::Error::new(ErrorKind::Unsupported, "tpq serve needs Linux (epoll)"))
    }
}

/// Join the worker pool, write the drain-time snapshot if one is
/// configured, and summarize the server lifetime. The reactor's epilogue
/// — by the time it runs no socket I/O remains.
pub(crate) fn finalize(state: &ServerState) -> ServeSummary {
    state.pool.shutdown();
    // With the pool joined the cache layers are quiescent: snapshot
    // them for the next boot's --restore.
    let snapshot_written = match &state.config.snapshot {
        Some(path) => match crate::snapshot::write_snapshot(path, &lock_types()) {
            Ok(stats) => {
                tpq_obs::incr("snapshot.write.patterns", stats.patterns as u64);
                Some(path.clone())
            }
            Err(e) => {
                eprintln!("tpq-serve: snapshot write to {} failed: {e}", path.display());
                None
            }
        },
        None => None,
    };
    ServeSummary {
        accepted: state.accepted.load(Ordering::Relaxed),
        refused: state.refused.load(Ordering::Relaxed),
        requests_ok: state.requests_ok.load(Ordering::Relaxed),
        requests_failed: state.requests_failed.load(Ordering::Relaxed),
        requests_shed: state.requests_shed(),
        snapshot_written,
    }
}

/// Attempt the bind-time snapshot restore. A missing file is a normal
/// cold start (first boot of a `--restore`d deployment); anything else
/// that fails validation is *rejected* — logged to stderr, counted, and
/// the server starts cold.
fn restore_at_bind(path: Option<&std::path::Path>) -> RestoreStatus {
    let Some(path) = path else {
        return RestoreStatus::default();
    };
    if !path.exists() {
        return RestoreStatus::default();
    }
    match crate::snapshot::restore_snapshot(path, &mut lock_types()) {
        Ok(stats) => RestoreStatus { outcome: "restored", stats, reason: None },
        Err(e) => {
            eprintln!("tpq-serve: restore from {} failed: {e}; starting cold", path.display());
            RestoreStatus {
                outcome: "rejected",
                stats: SnapshotStats::default(),
                reason: Some(e.reason),
            }
        }
    }
}

/// Tell an over-limit client why it is being dropped. The stream must
/// still be in blocking mode (freshly accepted sockets are).
pub(crate) fn refuse_connection(state: &ServerState, mut stream: TcpStream) {
    state.refused.fetch_add(1, Ordering::Relaxed);
    tpq_obs::incr("serve.conn.refused", 1);
    let error = ProtoError::overloaded(format!(
        "connection limit of {} reached, try again later",
        state.config.max_conns
    ));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = writeln!(stream, "{}", error.to_json());
}

/// What the dispatcher wants done with the connection after a line.
pub(crate) enum Flow {
    /// Send this response and keep reading.
    Respond(Json),
    /// Send this pre-rendered multi-line text verbatim (the `METRICS`
    /// exposition) and keep reading. The text carries its own `# EOF`
    /// terminator line so clients can re-frame the stream.
    Raw(String),
    /// Blank line: nothing to send.
    Skip,
    /// Send this response, then trigger graceful server shutdown.
    Shutdown(Json),
}

/// Count one buffered request shed by the drain (flight record
/// included; `line_len` is the shed line's size sans newline) and build
/// its typed error. The drain answers such requests with this instead
/// of letting them vanish with the socket.
pub(crate) fn drain_shed_error(state: &ServerState, line_len: usize) -> ProtoError {
    state.shed_drain.fetch_add(1, Ordering::Relaxed);
    state.requests_failed.fetch_add(1, Ordering::Relaxed);
    tpq_obs::incr("serve.shed.drain", 1);
    tpq_obs::incr("serve.request.error", 1);
    let e = ProtoError::overloaded(
        "server is draining; request was not processed — retry against the restarted server",
    );
    record_flight(
        state,
        FlightDraft::shed(line_len, &e, Instant::now()),
        rendered_len(&e.to_json()),
        false,
    );
    e
}

/// Answer protocol verbs (and the cheap rejections) synchronously, or
/// return `None` for a JSON minimization request, which the reactor
/// hands to a pool worker.
pub(crate) fn dispatch_verb(state: &ServerState, line: &str) -> Option<Flow> {
    if line.is_empty() {
        return Some(Flow::Skip);
    }
    match line {
        "PING" => Some(Flow::Respond(Json::object(vec![("ok", Json::Bool(true))]))),
        "STATS" => Some(Flow::Respond(stats_json(state))),
        "METRICS" => Some(Flow::Raw(metrics_text(state))),
        "SHUTDOWN" => {
            tpq_obs::incr("serve.shutdown", 1);
            Some(Flow::Shutdown(Json::object(vec![
                ("ok", Json::Bool(true)),
                ("draining", Json::Bool(true)),
            ])))
        }
        _ if line == "TIMELINE" || line.starts_with("TIMELINE ") => {
            Some(timeline_flow(state, line["TIMELINE".len()..].trim()))
        }
        _ if !line.starts_with('{') => Some(Flow::Respond(
            ProtoError::bad_request(format!(
                "unknown verb '{}' (expected PING, STATS, METRICS, TIMELINE, SHUTDOWN or a JSON object)",
                line.chars().take(32).collect::<String>()
            ))
            .to_json(),
        )),
        _ => None,
    }
}

/// How many flight records a bare `TIMELINE` (no count) returns.
const DEFAULT_TIMELINE_RECORDS: usize = 50;

/// The `TIMELINE [n]` verb: the newest `n` flight records (default
/// [`DEFAULT_TIMELINE_RECORDS`], oldest first) as JSON lines, terminated
/// by `# EOF` exactly like `METRICS`. Reads are non-destructive — the
/// ring keeps its contents for the crash dump — so pollers deduplicate
/// by the records' `seq` field.
fn timeline_flow(state: &ServerState, arg: &str) -> Flow {
    let n = if arg.is_empty() {
        DEFAULT_TIMELINE_RECORDS
    } else {
        match arg.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                return Flow::Respond(
                    ProtoError::bad_request(format!(
                        "TIMELINE count must be a positive integer, got '{arg}'"
                    ))
                    .to_json(),
                )
            }
        }
    };
    let mut text = tpq_obs::flight_to_json_lines(&state.flight.recent(n));
    text.push_str("# EOF\n");
    Flow::Raw(text)
}

/// The `METRICS` verb: the whole tpq-obs registry plus the server gauges
/// in Prometheus text exposition format, terminated by a `# EOF` line so
/// clients of the line-framed protocol know where the exposition ends.
fn metrics_text(state: &ServerState) -> String {
    let inflight = state.inflight.load(Ordering::Acquire);
    // Queue depth = requests waiting for (not holding) a pool worker.
    let queued = inflight.saturating_sub(state.pool.size());
    let snapshot_age_seconds = match state.restore.outcome {
        "restored" => {
            let now_ms = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_millis() as u64);
            now_ms.saturating_sub(state.restore.stats.created_unix_ms) as f64 / 1e3
        }
        _ => 0.0,
    };
    let window = state.window.snapshot();
    let gauges = [
        ("serve.inflight", inflight as f64),
        ("serve.connections.active", state.active.load(Ordering::Acquire) as f64),
        ("serve.uptime_seconds", state.started.elapsed().as_secs_f64()),
        ("serve.queue.depth", queued as f64),
        ("serve.queue.limit", state.config.queue_depth as f64),
        ("serve.snapshot.restored", f64::from(u8::from(state.restore.outcome == "restored"))),
        ("serve.snapshot.rejected", f64::from(u8::from(state.restore.outcome == "rejected"))),
        ("serve.snapshot.bytes", state.restore.stats.bytes as f64),
        ("serve.snapshot.age_seconds", snapshot_age_seconds),
        // The rolling 60-second window: RED rates and latency quantiles.
        ("serve.request.rate_1m", window.request_rate()),
        ("serve.error.rate_1m", window.error_rate()),
        ("serve.shed.rate_1m", window.shed_rate()),
        ("serve.request.p50_seconds_1m", window.p50_ns as f64 / 1e9),
        ("serve.request.p95_seconds_1m", window.p95_ns as f64 / 1e9),
        ("serve.request.p99_seconds_1m", window.p99_ns as f64 / 1e9),
        // Flight-recorder health.
        ("serve.flight.recorded", state.flight.recorded() as f64),
        ("serve.flight.dropped", state.flight.dropped() as f64),
    ];
    let mut text = tpq_obs::prometheus(&gauges);
    text.push_str("# EOF\n");
    text
}

/// The `STATS` verb: server totals plus the whole tpq-obs registry.
fn stats_json(state: &ServerState) -> Json {
    Json::object(vec![
        ("uptime_ms", Json::Int(state.started.elapsed().as_millis() as i64)),
        (
            "connections",
            Json::object(vec![
                ("active", Json::Int(state.active.load(Ordering::Acquire) as i64)),
                ("accepted", Json::Int(state.accepted.load(Ordering::Relaxed) as i64)),
                ("refused", Json::Int(state.refused.load(Ordering::Relaxed) as i64)),
            ]),
        ),
        (
            "requests",
            Json::object(vec![
                ("ok", Json::Int(state.requests_ok.load(Ordering::Relaxed) as i64)),
                ("error", Json::Int(state.requests_failed.load(Ordering::Relaxed) as i64)),
                ("inflight", Json::Int(state.inflight.load(Ordering::Acquire) as i64)),
            ]),
        ),
        (
            "shed",
            Json::object(vec![
                ("queue_full", Json::Int(state.shed_queue_full.load(Ordering::Relaxed) as i64)),
                ("injected", Json::Int(state.shed_injected.load(Ordering::Relaxed) as i64)),
                ("drain", Json::Int(state.shed_drain.load(Ordering::Relaxed) as i64)),
                ("total", Json::Int(state.requests_shed() as i64)),
                ("queue_limit", Json::Int(state.config.queue_depth as i64)),
            ]),
        ),
        (
            "snapshot",
            Json::object(vec![
                ("restore", Json::Str(state.restore.outcome.to_owned())),
                ("restored_engines", Json::Int(state.restore.stats.engines as i64)),
                ("restored_patterns", Json::Int(state.restore.stats.patterns as i64)),
                ("bytes", Json::Int(state.restore.stats.bytes as i64)),
                ("created_unix_ms", Json::Int(state.restore.stats.created_unix_ms as i64)),
            ]),
        ),
        (
            "pool",
            Json::object(vec![
                ("workers", Json::Int(state.pool.size() as i64)),
                ("executed", Json::Int(state.pool.executed() as i64)),
            ]),
        ),
        ("window", window_json(&state.window.snapshot())),
        ("front", front_json()),
        (
            "flight",
            Json::object(vec![
                ("recorded", Json::Int(state.flight.recorded() as i64)),
                ("dropped", Json::Int(state.flight.dropped() as i64)),
                ("capacity", Json::Int(state.flight.capacity() as i64)),
            ]),
        ),
        // Event-ring losses, surfaced top-level (and inside the obs
        // report) so clients notice silent event loss without digging.
        ("events_dropped", Json::Int(tpq_obs::events_dropped() as i64)),
        ("obs", tpq_obs::report().to_json()),
    ])
}

/// The STATS `front` block: the query-text fronts of the engines in the
/// process-wide engine table, summed.
fn front_json() -> Json {
    let (entries, bytes) = shared_front_usage();
    Json::object(vec![("entries", Json::Int(entries as i64)), ("bytes", Json::Int(bytes as i64))])
}

/// The STATS `window` block: the rolling 60-second RED view. `seconds`
/// is the covered span (grows to 60 after the first minute); quantiles
/// are in microseconds, matching the response `stats.micros` field.
fn window_json(w: &tpq_obs::WindowStats) -> Json {
    let errors: Vec<(&str, Json)> =
        w.errors.iter().map(|&(kind, n)| (kind, Json::Int(n as i64))).collect();
    Json::object(vec![
        ("seconds", Json::Int(w.seconds as i64)),
        ("requests", Json::Int(w.requests() as i64)),
        ("ok", Json::Int(w.ok as i64)),
        ("errors", Json::object(errors)),
        ("shed", Json::Int(w.shed as i64)),
        ("request_rate", Json::Float(w.request_rate())),
        ("error_rate", Json::Float(w.error_rate())),
        ("shed_rate", Json::Float(w.shed_rate())),
        ("p50_us", Json::Float(w.p50_ns as f64 / 1e3)),
        ("p95_us", Json::Float(w.p95_ns as f64 / 1e3)),
        ("p99_us", Json::Float(w.p99_ns as f64 / 1e3)),
    ])
}

/// The effective per-request limit for one resource: the tighter of the
/// request's ask and the server's ceiling.
fn effective_limit(requested: Option<u64>, ceiling: Option<u64>) -> Option<u64> {
    match (requested, ceiling) {
        (Some(r), Some(c)) => Some(r.min(c)),
        (r, c) => r.or(c),
    }
}

/// The protocol spelling of a strategy, for flight records.
fn strategy_name(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::CdmThenAcim => "full",
        Strategy::CimOnly => "cim",
        Strategy::AcimOnly => "acim",
        Strategy::CdmOnly => "cdm",
    }
}

/// Milliseconds since the Unix epoch, for flight-record timestamps.
fn now_unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// A [`tpq_obs::FlightRecord`] in the making: everything the request
/// path knows before the response is rendered onto the wire. The reactor
/// fills in `bytes_out` and the backpressure flag via [`record_flight`]
/// — it only knows those at completion delivery, after the pool worker is
/// long gone.
#[derive(Debug, Clone)]
pub(crate) struct FlightDraft {
    trace: u64,
    strategy: &'static str,
    queue_ns: u64,
    parse_ns: u64,
    minimize_ns: u64,
    render_ns: u64,
    total_ns: u64,
    bytes_in: u64,
    outcome: &'static str,
    cache_hit: bool,
    front_hit: bool,
    shed: bool,
}

impl FlightDraft {
    /// A draft for a request shed before it was parsed (admission queue,
    /// injected fault, or drain flush): no trace, no phases, just the
    /// arrival size, the shed outcome and the (tiny) time spent.
    pub(crate) fn shed(line_len: usize, error: &ProtoError, t0: Instant) -> FlightDraft {
        FlightDraft {
            trace: 0,
            strategy: "-",
            queue_ns: 0,
            parse_ns: 0,
            minimize_ns: 0,
            render_ns: 0,
            total_ns: t0.elapsed().as_nanos() as u64,
            bytes_in: line_len as u64 + 1,
            outcome: error.kind,
            cache_hit: false,
            front_hit: false,
            shed: true,
        }
    }
}

/// Finalize one request's flight record: feed the rolling window, push
/// the record into the ring, and — when the request crashed its worker —
/// dump the black box while the evidence is still in it. Called by the
/// reactor where response size and backpressure state are known: at
/// completion delivery, or at once for a request it answers itself.
pub(crate) fn record_flight(
    state: &ServerState,
    draft: FlightDraft,
    bytes_out: u64,
    backpressure: bool,
) {
    if draft.outcome == "ok" {
        state.window.record_ok(draft.total_ns);
    } else {
        state.window.record_error(draft.outcome, draft.shed, draft.total_ns);
    }
    let crashed = draft.outcome == "panic";
    state.flight.record(tpq_obs::FlightRecord {
        seq: 0, // assigned by the ring
        t_unix_ms: now_unix_ms(),
        trace: draft.trace,
        verb: "minimize",
        strategy: draft.strategy,
        queue_ns: draft.queue_ns,
        parse_ns: draft.parse_ns,
        minimize_ns: draft.minimize_ns,
        render_ns: draft.render_ns,
        total_ns: draft.total_ns,
        bytes_in: draft.bytes_in,
        bytes_out,
        outcome: draft.outcome,
        cache_hit: draft.cache_hit,
        front_hit: draft.front_hit,
        shed: draft.shed,
        backpressure,
    });
    if crashed {
        maybe_dump_flight(state, "worker panic");
    }
}

/// Dump the flight ring to the configured `--flight-dump` path (no-op
/// without one). `reason` is for the stderr note only.
pub(crate) fn maybe_dump_flight(state: &ServerState, reason: &str) {
    let Some(path) = &state.config.flight_dump else {
        return;
    };
    match state.flight.dump(path) {
        Ok(n) => {
            eprintln!(
                "tpq-serve: flight recorder dumped {n} records to {} ({reason})",
                path.display()
            );
        }
        Err(e) => {
            eprintln!("tpq-serve: flight dump to {} failed: {e} ({reason})", path.display());
        }
    }
}

/// The framed size of a response: its compact rendering plus the newline.
fn rendered_len(json: &Json) -> u64 {
    json.to_string_compact().len() as u64 + 1
}

/// Request lines at most this long are prepared on the reactor thread
/// (probed against the front, then parsed, keyed and probed against the
/// memo). Longer lines go to the pool unparsed, so that one huge query
/// cannot stall every connection.
const INLINE_MAX_LINE: usize = 4 * 1024;

/// What the reactor does with an admitted minimization request.
pub(crate) enum Dispatch {
    /// Answered on the reactor thread — a front or memo hit or a typed
    /// error: send the response and finalize the flight draft.
    Answered(Json, FlightDraft),
    /// Hand this to a pool worker.
    Pool(PoolJob),
}

/// The pool's share of one admitted request.
pub(crate) enum PoolJob {
    /// A line the reactor did not start: the worker passes the
    /// `pool.task` failpoint and runs both halves.
    Line { line: String, t0: Instant },
    /// A request the reactor started (and so passed the failpoint for)
    /// but could not finish.
    Started(Box<StartedJob>),
}

impl PoolJob {
    /// Run the job on a pool worker and build its response and draft.
    pub(crate) fn run(self, state: &ServerState) -> (Json, FlightDraft) {
        match self {
            PoolJob::Line { line, t0 } => process_request(state, &line, t0),
            PoolJob::Started(job) => job.run(state),
        }
    }
}

/// A request the reactor started, waiting for a pool worker.
pub(crate) struct StartedJob {
    req: Admitted,
    rest: Rest,
    /// When the reactor handed the job to the pool; the queue phase
    /// starts here.
    spawned: Instant,
}

/// What a request the reactor started still needs from a worker.
enum Rest {
    /// Its constraint text is not in the engine table, or the interner
    /// was busy: the worker runs the whole request, parsing the text (and
    /// closing a new set).
    Line(String),
    /// A memo miss: minimization and render.
    Miss(MissWork),
}

impl StartedJob {
    /// Finish the request behind the panic shield. The reactor already
    /// passed the `pool.task` failpoint for it, so this shield skips it.
    fn run(self, state: &ServerState) -> (Json, FlightDraft) {
        let StartedJob { mut req, rest, spawned } = self;
        req.draft.queue_ns = spawned.elapsed().as_nanos() as u64;
        let _scope = tpq_obs::trace_scope(req.draft.trace);
        let t0 = req.t0;
        let draft = &mut req.draft;
        let result = catch_panic(|| {
            Ok(match rest {
                Rest::Line(line) => serve_line(state, &line, t0, draft),
                Rest::Miss(work) => run_miss(work, t0, draft),
            })
        })
        .unwrap_or_else(|e| Err(ProtoError::from_error(&e)));
        req.finish(state, result)
    }
}

/// One admitted minimization request: its arrival time and its flight
/// draft, which carries its trace id (echoed back as the `trace`
/// response field).
struct Admitted {
    t0: Instant,
    draft: FlightDraft,
}

impl Admitted {
    /// Mint the trace id and open the draft of a request that arrived at
    /// `t0` and waited `queue_ns` before its first half started.
    fn new(line: &str, t0: Instant, queue_ns: u64) -> Admitted {
        let trace = tpq_obs::fresh_trace_id();
        let draft = FlightDraft {
            trace,
            strategy: "-",
            queue_ns,
            parse_ns: 0,
            minimize_ns: 0,
            render_ns: 0,
            total_ns: 0,
            bytes_in: line.len() as u64 + 1,
            outcome: "ok",
            cache_hit: false,
            front_hit: false,
            shed: false,
        };
        Admitted { t0, draft }
    }

    /// Close the request: bump the outcome counters, record its wall
    /// time, and stamp the trace id on the response.
    fn finish(
        mut self,
        state: &ServerState,
        result: Result<Json, ProtoError>,
    ) -> (Json, FlightDraft) {
        let elapsed = self.t0.elapsed();
        tpq_obs::record_duration("serve.request", elapsed);
        self.draft.total_ns = elapsed.as_nanos() as u64;
        let json = match result {
            Ok(json) => {
                state.requests_ok.fetch_add(1, Ordering::Relaxed);
                tpq_obs::incr("serve.request.ok", 1);
                json
            }
            Err(e) => {
                state.requests_failed.fetch_add(1, Ordering::Relaxed);
                tpq_obs::incr("serve.request.error", 1);
                self.draft.outcome = e.kind;
                e.to_json()
            }
        };
        (with_trace(json, self.draft.trace), self.draft)
    }
}

/// Start one *admitted* minimization request. `t0` is its arrival time.
///
/// A line of at most [`INLINE_MAX_LINE`] bytes is started right here, on
/// the reactor thread, behind the pool's panic shield ([`shielded`],
/// which also passes the `pool.task` failpoint): [`prepare_inline`]
/// finds the engine by the text probe alone, and a front hit, a memo hit
/// or a typed error is answered at once (`serve.request.inline`). A
/// front hit takes no interner lock. A memo miss goes to the pool with
/// its prepared query, and a constraint text the engine table does not
/// know goes there whole, so that parsing and closing a new schema never
/// stalls the reactor; so does a request that meets a busy interner. Any
/// longer line goes to the pool unparsed: a worker holding the interner
/// while it parses a huge line must never stall every connection.
/// Either way, each request passes `pool.task` exactly once, and a panic
/// anywhere in its work answers it with a `panic` error.
pub(crate) fn start_request(state: &ServerState, line: &str, t0: Instant) -> Dispatch {
    if line.len() > INLINE_MAX_LINE {
        return Dispatch::Pool(PoolJob::Line { line: line.to_owned(), t0 });
    }
    let mut req = Admitted::new(line, t0, 0);
    let _scope = tpq_obs::trace_scope(req.draft.trace);
    let prepared = shielded(|| Ok(prepare_inline(state, line, t0, &mut req.draft)))
        .unwrap_or_else(|e| Err(ProtoError::from_error(&e)));
    let rest = match prepared {
        Ok(None) => Rest::Line(line.to_owned()),
        Ok(Some(Prepared::Miss(work))) => Rest::Miss(work),
        Ok(Some(Prepared::Hit(json))) => return answer_inline(state, req, Ok(json)),
        Err(e) => return answer_inline(state, req, Err(e)),
    };
    let job = StartedJob { req, rest, spawned: Instant::now() };
    Dispatch::Pool(PoolJob::Started(Box::new(job)))
}

/// Close a request on the reactor thread.
fn answer_inline(state: &ServerState, req: Admitted, result: Result<Json, ProtoError>) -> Dispatch {
    tpq_obs::incr("serve.request.inline", 1);
    let (json, draft) = req.finish(state, result);
    Dispatch::Answered(json, draft)
}

/// Execute both halves of one admitted request on a pool worker, behind
/// one [`shielded`] call. Time between `t0` and this call is queue time.
fn process_request(state: &ServerState, line: &str, t0: Instant) -> (Json, FlightDraft) {
    let mut req = Admitted::new(line, t0, t0.elapsed().as_nanos() as u64);
    let _scope = tpq_obs::trace_scope(req.draft.trace);
    let draft = &mut req.draft;
    let result = shielded(|| Ok(serve_line(state, line, t0, draft)))
        .unwrap_or_else(|e| Err(ProtoError::from_error(&e)));
    req.finish(state, result)
}

/// Both halves of a request on a pool worker.
fn serve_line(
    state: &ServerState,
    line: &str,
    t0: Instant,
    draft: &mut FlightDraft,
) -> Result<Json, ProtoError> {
    match prepare(state, line, t0, draft)? {
        Prepared::Hit(json) => Ok(json),
        Prepared::Miss(work) => run_miss(work, t0, draft),
    }
}

/// The admission decision for a request that observed `n_prev` requests
/// already in flight. `None` admits; `Some` is the typed shed error:
/// `overloaded` + `retry_after_ms` when the queue bound is exceeded, or
/// the armed `serve.shed` failpoint's `injected` error (the chaos
/// battery's way of forcing sheds without real overload).
pub(crate) fn admission_check(state: &ServerState, n_prev: usize) -> Option<ProtoError> {
    if let Err(e) = failpoint::hit("serve.shed") {
        state.shed_injected.fetch_add(1, Ordering::Relaxed);
        tpq_obs::incr("serve.shed.injected", 1);
        return Some(ProtoError::from_error(&e));
    }
    if n_prev >= state.config.queue_depth {
        state.shed_queue_full.fetch_add(1, Ordering::Relaxed);
        tpq_obs::incr("serve.shed.queue_full", 1);
        // Back off proportionally to how far past the bound we are,
        // capped: deep overload should not translate into minutes-long
        // client sleeps.
        let excess = (n_prev - state.config.queue_depth) as u64;
        let retry_after_ms = 25u64.saturating_mul(excess + 1).min(1_000);
        return Some(ProtoError::overloaded_retry_after(
            format!(
                "admission queue full ({} requests in flight, bound {})",
                n_prev, state.config.queue_depth
            ),
            retry_after_ms,
        ));
    }
    None
}

/// Append the request's trace id to a response object (success and error
/// responses alike), leaving the established inner shapes untouched.
fn with_trace(json: Json, trace: u64) -> Json {
    match json {
        Json::Object(mut members) => {
            members.push(("trace".to_owned(), Json::Str(tpq_obs::trace_hex(trace))));
            Json::Object(members)
        }
        other => other,
    }
}

/// What the first half of a request found.
enum Prepared {
    /// The front or the memo knew the query: the rendered response.
    Hit(Json),
    /// Neither did: the work left for the second half.
    Miss(MissWork),
}

/// A parsed query with the syntax and text it was parsed from, which
/// key its engine's query-text front.
struct ParsedQuery {
    syntax: Syntax,
    text: String,
    pattern: TreePattern,
}

/// The prepared query of a memo miss, with its engine, guard and the
/// canonical key its probe used.
struct MissWork {
    query: ParsedQuery,
    engine: Arc<BatchMinimizer>,
    guard: Guard,
    key: CanonicalKey,
}

/// The first half of a request on the reactor thread: parse the line,
/// find the engine by [`probe_engine_text`] alone and probe its front
/// ([`front_hit`]), all without the process-wide interner. On a front
/// miss, take the interner with `try_lock` and go on as
/// [`prepare_query`]. `None` when the engine table does not know the
/// constraint text (parsing it, and closing a set the table does not
/// hold, is left to a worker) or the interner is busy.
fn prepare_inline(
    state: &ServerState,
    line: &str,
    t0: Instant,
    draft: &mut FlightDraft,
) -> Result<Option<Prepared>, ProtoError> {
    let t_parse = Instant::now();
    let req = Request::parse(line)?;
    let strategy = req.strategy.unwrap_or(state.config.strategy);
    let Some(engine) = probe_engine_text(&req.constraints, strategy) else {
        return Ok(None);
    };
    if let Some(json) = front_hit(&engine, &req, t_parse, t0, draft) {
        return Ok(Some(Prepared::Hit(json)));
    }
    let mut types = match global_types().try_lock() {
        Ok(types) => types,
        // The interner is append-only, so a panic mid-intern leaves it
        // usable (as in `lock_types`).
        Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        Err(TryLockError::WouldBlock) => return Ok(None),
    };
    prepare_query(state, req, engine, &mut types, t_parse, t0, draft).map(Some)
}

/// The first half of a request on a pool worker: parse the line, look
/// the engine up by its constraint text (a text seen before skips the
/// parse), probe its front ([`front_hit`]), then as [`prepare_query`].
/// The interner is held for each parse, not while a new set is closed.
fn prepare(
    state: &ServerState,
    line: &str,
    t0: Instant,
    draft: &mut FlightDraft,
) -> Result<Prepared, ProtoError> {
    let t_parse = Instant::now();
    let req = Request::parse(line)?;
    let strategy = req.strategy.unwrap_or(state.config.strategy);
    // Constraints before the query, under the process-wide interner, so
    // equal constraint text always yields the same engine.
    let engine = shared_engine_for_text(&req.constraints, strategy, |text| {
        parse_constraints(text, &mut lock_types())
    })
    .map_err(|e| ProtoError::from_error(&e))?;
    if let Some(json) = front_hit(&engine, &req, t_parse, t0, draft) {
        return Ok(Prepared::Hit(json));
    }
    prepare_query(state, req, engine, &mut lock_types(), t_parse, t0, draft)
}

/// The memo-hit response for `req` from its engine's query-text front,
/// if the front holds the query's text: one probe, and no parse, key or
/// render. Writes the phase times (parse from `t_parse`, the probe as
/// minimize), the strategy and both hit flags into `draft`.
fn front_hit(
    engine: &BatchMinimizer,
    req: &Request,
    t_parse: Instant,
    t0: Instant,
    draft: &mut FlightDraft,
) -> Option<Json> {
    let parse_ns = t_parse.elapsed().as_nanos() as u64;
    let t_probe = Instant::now();
    let answer = engine.front_probe(req.syntax, &req.query)?;
    draft.minimize_ns = t_probe.elapsed().as_nanos() as u64;
    draft.parse_ns = parse_ns;
    draft.strategy = strategy_name(engine.strategy());
    draft.cache_hit = true;
    draft.front_hit = true;
    Some(success_response(
        answer.minimized.into(),
        answer.input_nodes,
        answer.output_nodes,
        true,
        &MinimizeStats::default(),
        t0.elapsed(),
    ))
}

/// The rest of the first half, once the engine is found and its front
/// missed: parse the query under `types`, key it and probe the memo. A
/// hit is rendered at once. Writes the phase times (parse from
/// `t_parse`), the strategy and the cache outcome into `draft`.
fn prepare_query(
    state: &ServerState,
    req: Request,
    engine: Arc<BatchMinimizer>,
    types: &mut TypeInterner,
    t_parse: Instant,
    t0: Instant,
    draft: &mut FlightDraft,
) -> Result<Prepared, ProtoError> {
    let pattern = req.syntax.parse(&req.query, types).map_err(|e| ProtoError::from_error(&e))?;
    let query = ParsedQuery { syntax: req.syntax, text: req.query, pattern };
    draft.parse_ns = t_parse.elapsed().as_nanos() as u64;
    draft.strategy = strategy_name(engine.strategy());
    let t_min = Instant::now();
    let key = query.pattern.canonical_key();
    let hit = engine.probe(&key);
    draft.minimize_ns = t_min.elapsed().as_nanos() as u64;
    let Some(pattern) = hit else {
        let mut builder = Guard::builder();
        if let Some(ms) = effective_limit(req.deadline_ms, state.config.deadline_ms) {
            builder = builder.deadline_ms(ms);
        }
        if let Some(steps) = effective_limit(req.budget, state.config.budget) {
            builder = builder.budget(steps);
        }
        return Ok(Prepared::Miss(MissWork { query, engine, guard: builder.build(), key }));
    };
    let out = CachedOutcome { pattern, cache_hit: true, stats: MinimizeStats::default() };
    Ok(Prepared::Hit(respond(&engine, &query, &out, types, t0, draft)))
}

/// The second half of a request whose memo probe missed: minimize under
/// the guard, memoize, render.
fn run_miss(work: MissWork, t0: Instant, draft: &mut FlightDraft) -> Result<Json, ProtoError> {
    let t_min = Instant::now();
    let out = work
        .engine
        .minimize_miss(&work.query.pattern, work.key, &work.guard)
        .map_err(|e| ProtoError::from_error(&e))?;
    draft.minimize_ns += t_min.elapsed().as_nanos() as u64;
    Ok(respond(&work.engine, &work.query, &out, &lock_types(), t0, draft))
}

/// Render a minimized query into the success response, timing the render
/// and noting the cache outcome in `draft`, and remember the answer in
/// `engine`'s front under the query's text.
fn respond(
    engine: &BatchMinimizer,
    query: &ParsedQuery,
    out: &CachedOutcome,
    types: &TypeInterner,
    t0: Instant,
    draft: &mut FlightDraft,
) -> Json {
    draft.cache_hit = out.cache_hit;
    let t_render = Instant::now();
    let minimized = to_dsl(&out.pattern, types);
    draft.render_ns = t_render.elapsed().as_nanos() as u64;
    let (input_nodes, output_nodes) = (query.pattern.size(), out.pattern.size());
    let answer = FrontAnswer { minimized: minimized.as_str().into(), input_nodes, output_nodes };
    engine.front_insert(query.syntax, &query.text, answer);
    success_response(minimized, input_nodes, output_nodes, out.cache_hit, &out.stats, t0.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_limit_takes_the_tighter_bound() {
        assert_eq!(effective_limit(None, None), None);
        assert_eq!(effective_limit(Some(5), None), Some(5));
        assert_eq!(effective_limit(None, Some(7)), Some(7));
        assert_eq!(effective_limit(Some(5), Some(7)), Some(5));
        assert_eq!(effective_limit(Some(9), Some(7)), Some(7), "server ceiling wins");
    }

    #[test]
    fn default_config_is_a_loopback_dev_server() {
        let c = ServeConfig::default();
        assert!(c.addr.starts_with("127.0.0.1"));
        assert!(!c.handle_signals);
        assert_eq!(c.max_line_bytes, DEFAULT_MAX_LINE_BYTES);
    }
}
