//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line, one response line per request, in order. A
//! request is either a JSON object or one of five bare verbs:
//!
//! * `PING` — liveness probe, answered with `{"ok":true}`;
//! * `STATS` — server + observability snapshot as one JSON object
//!   (counters are cumulative since process start; the `window` block is
//!   the rolling last-minute view);
//! * `METRICS` — the same snapshot in Prometheus text exposition format.
//!   A multi-line response: it ends with a `# EOF` line, after which
//!   normal line framing resumes;
//! * `TIMELINE [n]` — the newest `n` (default 50) completed-request
//!   flight records, one JSON object per line, oldest first, terminated
//!   by `# EOF` exactly like `METRICS`. Each record carries the request's
//!   trace id, strategy, outcome, byte sizes, and per-phase nanosecond
//!   timings (see `docs/OBSERVABILITY.md` for the schema);
//! * `SHUTDOWN` — acknowledge, then drain the server gracefully.
//!
//! A minimization request:
//!
//! ```json
//! {"query": "Book*[/Title][/Publisher]", "constraints": "Book -> Publisher"}
//! ```
//!
//! with optional fields `"syntax"` (`"dsl"`, the default, or `"xpath"`),
//! `"strategy"` (`"full"`, `"cim"`, `"acim"`, `"cdm"`), `"deadline_ms"`
//! and `"budget"` (non-negative integers, capped by the server's own
//! limits). Unknown fields are rejected so client typos surface as
//! errors instead of silently ignored options.
//!
//! A successful response (the server appends a per-request `trace` id —
//! 16 hex digits — to every minimization response; quote it when
//! correlating with `TIMELINE` flight records or drained decision events):
//!
//! ```json
//! {"minimized": "Book*/Title", "stats": {"input_nodes": 3, "output_nodes": 2,
//!  "cache_hit": false, "micros": 41.0, "cim_removed": 1, "cdm_removed": 0},
//!  "trace": "000000000000002a"}
//! ```
//!
//! A failure (always a single line, always this shape plus the same
//! appended `trace` field):
//!
//! ```json
//! {"error": {"kind": "parse", "message": "pattern parse error at byte 3: …"}}
//! ```
//!
//! `kind` is one of `bad-request` (malformed JSON / wrong types /
//! unknown fields / oversized line), `parse` (query or constraint text),
//! `invalid` (structurally invalid input), `budget` (deadline, step
//! budget or cancellation tripped), `panic` (the worker minimizing this
//! request panicked; other requests are unaffected), `injected` (an
//! armed failpoint fired), or `overloaded`.
//!
//! `overloaded` is sent in three situations: a connection refused at
//! `--max-conns` (sent once, then the connection closes), a request
//! **shed** by admission control because the in-server request queue is
//! at its `--queue-depth` high-water mark (the connection stays open),
//! or a request still buffered when the server drains. Shed responses
//! carry an extra `retry_after_ms` hint inside the error object:
//!
//! ```json
//! {"error": {"kind": "overloaded", "message": "…", "retry_after_ms": 50}}
//! ```
//!
//! Only `overloaded` and `injected` are **retryable** (see
//! [`ProtoError::is_retryable`]): the request was never minimized, so
//! resending it is safe and may succeed. `bad-request`, `parse`,
//! `invalid` and `budget` are deterministic verdicts about the request
//! itself, and `panic` is evidence the request crashes a worker —
//! retrying any of them wastes server capacity.

use std::time::Duration;
use tpq_base::{Error, Json};
use tpq_core::Strategy;

/// Query syntax selector for [`Request::syntax`].
pub use tpq_pattern::Syntax;

/// Upper bound on one request line (bytes), protecting the server from
/// unbounded buffering. Longer lines are answered with a `bad-request`
/// error and the connection is closed (framing can no longer be trusted).
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

/// One parsed minimization request.
#[derive(Debug, Clone, Default)]
pub struct Request {
    /// Query text, in the syntax named by `syntax`.
    pub query: String,
    /// Constraint lines (`A -> B`, `A ->> B`, `A ~ B`), possibly empty.
    pub constraints: String,
    /// Query syntax (`"syntax"` field; defaults to the DSL).
    pub syntax: Syntax,
    /// Minimization strategy (`"strategy"` field; `None` = server default).
    pub strategy: Option<Strategy>,
    /// Per-request wall-clock deadline (capped by the server's).
    pub deadline_ms: Option<u64>,
    /// Per-request step budget (capped by the server's).
    pub budget: Option<u64>,
}

impl Request {
    /// Parse one request line (already known not to be a verb). Returns
    /// a `bad-request` [`ProtoError`] on malformed JSON, wrong types or
    /// unknown fields.
    pub fn parse(line: &str) -> Result<Request, ProtoError> {
        let value = Json::parse(line).map_err(|e| ProtoError::bad_request(e.to_string()))?;
        let Json::Object(members) = value else {
            return Err(ProtoError::bad_request("request must be a JSON object"));
        };
        let mut req = Request::default();
        let mut saw_query = false;
        for (key, value) in &members {
            match key.as_str() {
                "query" => {
                    req.query = expect_str(value, "query")?.to_owned();
                    saw_query = true;
                }
                "constraints" => req.constraints = expect_str(value, "constraints")?.to_owned(),
                "syntax" => {
                    req.syntax = match expect_str(value, "syntax")? {
                        "dsl" => Syntax::Dsl,
                        "xpath" => Syntax::Xpath,
                        other => {
                            return Err(ProtoError::bad_request(format!(
                                "unknown syntax '{other}' (expected dsl or xpath)"
                            )))
                        }
                    };
                }
                "strategy" => {
                    let text = expect_str(value, "strategy")?;
                    req.strategy = Some(text.parse::<Strategy>().map_err(ProtoError::bad_request)?);
                }
                "deadline_ms" => req.deadline_ms = Some(expect_u64(value, "deadline_ms")?),
                "budget" => req.budget = Some(expect_u64(value, "budget")?),
                other => {
                    return Err(ProtoError::bad_request(format!("unknown field '{other}'")));
                }
            }
        }
        if !saw_query {
            return Err(ProtoError::bad_request("missing required field 'query'"));
        }
        Ok(req)
    }
}

fn expect_str<'a>(value: &'a Json, field: &str) -> Result<&'a str, ProtoError> {
    value
        .as_str()
        .ok_or_else(|| ProtoError::bad_request(format!("field '{field}' must be a string")))
}

fn expect_u64(value: &Json, field: &str) -> Result<u64, ProtoError> {
    value.as_i64().and_then(|n| u64::try_from(n).ok()).ok_or_else(|| {
        ProtoError::bad_request(format!("field '{field}' must be a non-negative integer"))
    })
}

/// A protocol-level failure, rendered as the `{"error": …}` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Stable machine-readable category (see the module docs).
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
    /// Backoff hint for shed requests: how long a well-behaved client
    /// should wait before retrying. Only set on `overloaded` errors from
    /// admission control; rendered as `retry_after_ms` in the error
    /// object when present.
    pub retry_after_ms: Option<u64>,
}

impl ProtoError {
    /// A `bad-request` error (malformed JSON, wrong types, protocol abuse).
    pub fn bad_request(message: impl Into<String>) -> ProtoError {
        ProtoError { kind: "bad-request", message: message.into(), retry_after_ms: None }
    }

    /// An `overloaded` error (connection or request refused by a limit).
    pub fn overloaded(message: impl Into<String>) -> ProtoError {
        ProtoError { kind: "overloaded", message: message.into(), retry_after_ms: None }
    }

    /// An `overloaded` error carrying a `retry_after_ms` backoff hint —
    /// what admission control sends for a shed request.
    pub fn overloaded_retry_after(message: impl Into<String>, retry_after_ms: u64) -> ProtoError {
        ProtoError {
            kind: "overloaded",
            message: message.into(),
            retry_after_ms: Some(retry_after_ms),
        }
    }

    /// Whether a client may safely resend the request after seeing this
    /// error kind. True exactly for `overloaded` (the server refused the
    /// request before doing any work) and `injected` (a deterministic
    /// test fault); see the module docs for why the other kinds must not
    /// be retried.
    pub fn is_retryable_kind(kind: &str) -> bool {
        matches!(kind, "overloaded" | "injected")
    }

    /// [`ProtoError::is_retryable_kind`] for this error.
    pub fn is_retryable(&self) -> bool {
        Self::is_retryable_kind(self.kind)
    }

    /// Classify a workspace [`Error`] into a protocol error.
    pub fn from_error(e: &Error) -> ProtoError {
        let kind = match e {
            Error::PatternParse { .. }
            | Error::XmlParse { .. }
            | Error::ConstraintParse { .. }
            | Error::SchemaParse { .. } => "parse",
            Error::InvalidPattern(_) | Error::InvalidDocument(_) | Error::InvalidConstraints(_) => {
                "invalid"
            }
            Error::Budget { .. } => "budget",
            Error::Injected { .. } => "injected",
            Error::WorkerPanic { .. } => "panic",
        };
        ProtoError { kind, message: e.to_string(), retry_after_ms: None }
    }

    /// The single-line JSON rendering of this error.
    pub fn to_json(&self) -> Json {
        let mut inner = vec![
            ("kind", Json::Str(self.kind.to_owned())),
            ("message", Json::Str(self.message.clone())),
        ];
        if let Some(ms) = self.retry_after_ms {
            inner.push(("retry_after_ms", Json::Int(ms as i64)));
        }
        Json::object(vec![("error", Json::object(inner))])
    }
}

/// Render a successful minimization as the response object.
pub fn success_response(
    minimized_dsl: String,
    input_nodes: usize,
    output_nodes: usize,
    cache_hit: bool,
    stats: &tpq_core::MinimizeStats,
    elapsed: Duration,
) -> Json {
    Json::object(vec![
        ("minimized", Json::Str(minimized_dsl)),
        (
            "stats",
            Json::object(vec![
                ("input_nodes", Json::Int(input_nodes as i64)),
                ("output_nodes", Json::Int(output_nodes as i64)),
                ("cache_hit", Json::Bool(cache_hit)),
                ("micros", Json::Float(elapsed.as_secs_f64() * 1e6)),
                ("cim_removed", Json::Int(stats.cim_removed as i64)),
                ("cdm_removed", Json::Int(stats.cdm_removed as i64)),
                ("redundancy_tests", Json::Int(stats.redundancy_tests as i64)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_request_parses() {
        let r = Request::parse(r#"{"query": "a*[/b]"}"#).unwrap();
        assert_eq!(r.query, "a*[/b]");
        assert_eq!(r.constraints, "");
        assert_eq!(r.syntax, Syntax::Dsl);
        assert_eq!(r.strategy, None);
        assert_eq!(r.deadline_ms, None);
    }

    #[test]
    fn full_request_parses() {
        let r = Request::parse(
            r#"{"query": "//Book[Title]", "constraints": "Book -> Title",
                "syntax": "xpath", "strategy": "acim", "deadline_ms": 250, "budget": 100}"#,
        )
        .unwrap();
        assert_eq!(r.syntax, Syntax::Xpath);
        assert_eq!(r.strategy, Some(Strategy::AcimOnly));
        assert_eq!(r.deadline_ms, Some(250));
        assert_eq!(r.budget, Some(100));
    }

    #[test]
    fn malformed_requests_are_bad_requests() {
        for bad in [
            "",                                          // empty
            "{",                                         // truncated JSON
            r#"{"query": "a*""#,                         // truncated string + object
            "[1, 2]",                                    // not an object
            "42",                                        // not an object
            r#""query""#,                                // bare string
            r#"{"quarry": "a*"}"#,                       // unknown field
            r#"{}"#,                                     // missing query
            r#"{"query": 7}"#,                           // wrong type
            r#"{"query": "a*", "deadline_ms": -1}"#,     // negative integer
            r#"{"query": "a*", "deadline_ms": "soon"}"#, // wrong type
            r#"{"query": "a*", "strategy": "fastest"}"#, // unknown strategy
            r#"{"query": "a*", "syntax": "sql"}"#,       // unknown syntax
            r#"{"query": "a*"} {"query": "b*"}"#,        // trailing garbage
        ] {
            let e = Request::parse(bad).unwrap_err();
            assert_eq!(e.kind, "bad-request", "{bad:?} -> {e:?}");
        }
    }

    #[test]
    fn error_kinds_classify_workspace_errors() {
        use tpq_base::BudgetResource;
        let cases = [
            (Error::PatternParse { offset: 0, message: "x".into() }, "parse"),
            (Error::ConstraintParse { line: 1, message: "x".into() }, "parse"),
            (Error::InvalidPattern("x".into()), "invalid"),
            (Error::Budget { resource: BudgetResource::Deadline, spent: 2, limit: 1 }, "budget"),
            (Error::Injected { point: "chase.step".into() }, "injected"),
            (Error::WorkerPanic { message: "boom".into() }, "panic"),
        ];
        for (error, kind) in cases {
            assert_eq!(ProtoError::from_error(&error).kind, kind, "{error}");
        }
    }

    #[test]
    fn error_response_shape_is_stable() {
        let text = ProtoError::bad_request("nope").to_json().to_string_compact();
        assert_eq!(text, r#"{"error":{"kind":"bad-request","message":"nope"}}"#);
    }

    #[test]
    fn shed_errors_carry_the_retry_hint() {
        let text = ProtoError::overloaded_retry_after("full", 75).to_json().to_string_compact();
        assert_eq!(text, r#"{"error":{"kind":"overloaded","message":"full","retry_after_ms":75}}"#);
        // The hint is strictly opt-in: plain errors keep the two-field shape.
        assert!(!ProtoError::overloaded("full").to_json().to_string_compact().contains("retry"));
    }

    #[test]
    fn only_overloaded_and_injected_are_retryable() {
        for kind in ["overloaded", "injected"] {
            assert!(ProtoError::is_retryable_kind(kind), "{kind}");
        }
        for kind in ["bad-request", "parse", "invalid", "budget", "panic", "made-up"] {
            assert!(!ProtoError::is_retryable_kind(kind), "{kind}");
        }
        assert!(ProtoError::overloaded_retry_after("q", 1).is_retryable());
        assert!(!ProtoError::bad_request("x").is_retryable());
    }

    #[test]
    fn success_response_shape_is_stable() {
        let json = success_response(
            "a*".into(),
            3,
            1,
            true,
            &tpq_core::MinimizeStats::default(),
            Duration::from_micros(5),
        );
        assert_eq!(json.get("minimized").and_then(Json::as_str), Some("a*"));
        let stats = json.get("stats").unwrap();
        assert_eq!(stats.get("input_nodes").and_then(Json::as_i64), Some(3));
        assert_eq!(stats.get("output_nodes").and_then(Json::as_i64), Some(1));
        assert_eq!(stats.get("cache_hit").and_then(Json::as_bool), Some(true));
    }
}
