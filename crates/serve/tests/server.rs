//! Integration tests for the serve layer: real sockets, real threads.
//!
//! Every test starts its own [`Server`] on an ephemeral loopback port,
//! drives it over TCP, and shuts it down via the handle or the
//! `SHUTDOWN` verb. Fault-injection tests live in `faults.rs` (their own
//! process) because failpoints arm process-wide.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;
use tpq_base::TypeInterner;
use tpq_constraints::parse_constraints;
use tpq_core::{minimize_with, Strategy};
use tpq_pattern::{parse_pattern, print::to_dsl};
use tpq_serve::{ServeConfig, ServeHandle, ServeSummary, Server};

/// Start a server with `config` (addr forced to an ephemeral loopback
/// port) and return its address, handle, and run-thread join handle.
fn start(
    mut config: ServeConfig,
) -> (SocketAddr, ServeHandle, std::thread::JoinHandle<ServeSummary>) {
    config.addr = "127.0.0.1:0".to_owned();
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("local_addr");
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, thread)
}

fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect");
    // `writeln!` writes a line and its newline separately; without
    // TCP_NODELAY the newline can wait out a delayed ACK (~40 ms).
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    BufReader::new(stream)
}

/// Send one line, read one response line.
fn round_trip(conn: &mut BufReader<TcpStream>, line: &str) -> String {
    writeln!(conn.get_mut(), "{line}").expect("write");
    let mut response = String::new();
    conn.read_line(&mut response).expect("read");
    assert!(response.ends_with('\n'), "unterminated response: {response:?}");
    response.trim_end().to_owned()
}

/// What the library itself answers for `(query, constraints)` — the
/// sequential ground truth the server must reproduce byte-for-byte.
fn expected_minimization(query: &str, constraints: &str) -> String {
    let mut types = TypeInterner::new();
    let ics = parse_constraints(constraints, &mut types).expect("constraints");
    let q = parse_pattern(query, &mut types).expect("query");
    let out = minimize_with(&q, &ics, Strategy::default());
    to_dsl(&out.pattern, &types)
}

/// Pull the `"minimized"` field out of a raw response line.
fn minimized_of(response: &str) -> String {
    let json = tpq_base::Json::parse(response).expect("response JSON");
    json.get("minimized")
        .and_then(tpq_base::Json::as_str)
        .unwrap_or_else(|| panic!("no 'minimized' in {response}"))
        .to_owned()
}

fn error_kind_of(response: &str) -> String {
    let json = tpq_base::Json::parse(response).expect("response JSON");
    json.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(tpq_base::Json::as_str)
        .unwrap_or_else(|| panic!("no error kind in {response}"))
        .to_owned()
}

/// The worked examples the concurrency tests replay. Mixed constraint
/// sets on purpose: they exercise several shared engines at once.
const CASES: &[(&str, &str)] = &[
    ("Book*[/Title][/Publisher]", "Book -> Publisher"),
    ("Book*[/Title][/Publisher][//Title]", "Book -> Publisher"),
    ("OrgUnit*[/Dept/Researcher//DBProject]//Dept//DBProject", ""),
    ("Articles[/Article//Paragraph]/Article*//Section//Paragraph", "Section ->> Paragraph"),
    ("a*[/b][/c][//d]", "a -> b\na -> c"),
    ("x[/y]/x*[/y]//z", ""),
];

#[test]
fn ping_answers_ok() {
    let (addr, handle, thread) = start(ServeConfig::default());
    let mut conn = connect(addr);
    assert_eq!(round_trip(&mut conn, "PING"), r#"{"ok":true}"#);
    drop(conn);
    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn minimizes_one_request_like_the_library() {
    let (addr, handle, thread) = start(ServeConfig::default());
    let mut conn = connect(addr);
    let response = round_trip(
        &mut conn,
        r#"{"query": "Book*[/Title][/Publisher]", "constraints": "Book -> Publisher"}"#,
    );
    assert_eq!(
        minimized_of(&response),
        expected_minimization("Book*[/Title][/Publisher]", "Book -> Publisher"),
    );
    let json = tpq_base::Json::parse(&response).unwrap();
    let stats = json.get("stats").expect("stats");
    assert_eq!(stats.get("input_nodes").and_then(tpq_base::Json::as_i64), Some(3));
    assert_eq!(stats.get("output_nodes").and_then(tpq_base::Json::as_i64), Some(2));
    drop(conn);
    handle.shutdown();
    let summary = thread.join().unwrap();
    assert_eq!(summary.requests_ok, 1);
    assert_eq!(summary.requests_failed, 0);
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let (addr, handle, thread) = start(ServeConfig::default());
    let mut conn = connect(addr);
    // Write every request before reading any response.
    for (query, constraints) in CASES {
        writeln!(
            conn.get_mut(),
            r#"{{"query": {}, "constraints": {}}}"#,
            tpq_base::Json::Str((*query).to_owned()).to_string_compact(),
            tpq_base::Json::Str((*constraints).to_owned()).to_string_compact(),
        )
        .unwrap();
    }
    for (query, constraints) in CASES {
        let mut response = String::new();
        conn.read_line(&mut response).unwrap();
        assert_eq!(
            minimized_of(response.trim_end()),
            expected_minimization(query, constraints),
            "query {query}"
        );
    }
    drop(conn);
    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn eight_concurrent_clients_match_the_sequential_answers() {
    let expected: Vec<String> = CASES.iter().map(|(q, c)| expected_minimization(q, c)).collect();
    let (addr, handle, thread) = start(ServeConfig { jobs: 4, ..ServeConfig::default() });
    std::thread::scope(|scope| {
        for client in 0..8 {
            let expected = &expected;
            scope.spawn(move || {
                let mut conn = connect(addr);
                // Each client walks the cases from a different offset so
                // engines and caches are hit in interleaved orders.
                for i in 0..CASES.len() {
                    let idx = (client + i) % CASES.len();
                    let (query, constraints) = CASES[idx];
                    let line = format!(
                        r#"{{"query": {}, "constraints": {}}}"#,
                        tpq_base::Json::Str(query.to_owned()).to_string_compact(),
                        tpq_base::Json::Str(constraints.to_owned()).to_string_compact(),
                    );
                    let response = round_trip(&mut conn, &line);
                    assert_eq!(
                        minimized_of(&response),
                        expected[idx],
                        "client {client}, query {query}"
                    );
                }
            });
        }
    });
    handle.shutdown();
    let summary = thread.join().unwrap();
    assert_eq!(summary.requests_ok, (8 * CASES.len()) as u64);
    assert_eq!(summary.requests_failed, 0);
    assert_eq!(summary.accepted, 8);
}

#[test]
fn malformed_lines_get_typed_errors_and_the_connection_survives() {
    let (addr, handle, thread) = start(ServeConfig::default());
    let mut conn = connect(addr);
    for (line, kind) in [
        ("{", "bad-request"),                   // truncated JSON
        (r#"{"query": "a*""#, "bad-request"),   // truncated string
        ("[1,2]", "bad-request"),               // not an object
        (r#"{"quarry": "a*"}"#, "bad-request"), // unknown field
        (r#"{}"#, "bad-request"),               // missing query
        (r#"{"query": 7}"#, "bad-request"),     // wrong type
        (r#"{"query": "a*", "deadline_ms": "soon"}"#, "bad-request"),
        (r#"{"query": "a*", "strategy": "fastest"}"#, "bad-request"),
        ("HELLO", "bad-request"),          // unknown verb
        (r#"{"query": "a*[/"}"#, "parse"), // bad DSL
        (r#"{"query": "a*", "constraints": "b <- c"}"#, "parse"),
    ] {
        let response = round_trip(&mut conn, line);
        assert_eq!(error_kind_of(&response), kind, "line {line:?} -> {response}");
    }
    // The same connection still answers good requests afterwards.
    let response = round_trip(&mut conn, r#"{"query": "a*[/b]"}"#);
    assert_eq!(minimized_of(&response), expected_minimization("a*[/b]", ""));
    drop(conn);
    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn oversized_line_is_rejected_and_the_connection_closed() {
    let (addr, handle, thread) =
        start(ServeConfig { max_line_bytes: 1024, ..ServeConfig::default() });
    let mut conn = connect(addr);
    // 4 KiB of garbage with no newline: the server must not buffer it all.
    conn.get_mut().write_all(&[b'x'; 4096]).unwrap();
    let mut response = String::new();
    conn.read_line(&mut response).unwrap();
    assert_eq!(error_kind_of(response.trim_end()), "bad-request");
    assert!(response.contains("exceeds 1024 bytes"), "{response}");
    // Connection is closed afterwards: next read sees EOF.
    let mut rest = String::new();
    assert_eq!(conn.read_line(&mut rest).unwrap(), 0, "expected EOF, got {rest:?}");
    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn non_utf8_line_is_rejected() {
    let (addr, handle, thread) = start(ServeConfig::default());
    let mut conn = connect(addr);
    conn.get_mut().write_all(b"\xff\xfe{}\n").unwrap();
    let mut response = String::new();
    conn.read_line(&mut response).unwrap();
    assert_eq!(error_kind_of(response.trim_end()), "bad-request");
    assert!(response.contains("UTF-8"), "{response}");
    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn per_request_budget_trips_without_dropping_the_connection() {
    let (addr, handle, thread) = start(ServeConfig::default());
    let mut conn = connect(addr);
    // An uncached query with a one-step budget cannot finish.
    let response =
        round_trip(&mut conn, r#"{"query": "BudgetCase*[/BA][/BB][//BC]//BD", "budget": 1}"#);
    assert_eq!(error_kind_of(&response), "budget");
    // Same connection, same query, no budget: fine.
    let response = round_trip(&mut conn, r#"{"query": "BudgetCase*[/BA][/BB][//BC]//BD"}"#);
    assert_eq!(
        minimized_of(&response),
        expected_minimization("BudgetCase*[/BA][/BB][//BC]//BD", "")
    );
    drop(conn);
    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn zero_deadline_trips_on_a_large_query() {
    let (addr, handle, thread) = start(ServeConfig::default());
    let mut conn = connect(addr);
    // A 40-node descendant chain: containment work far exceeds the
    // 128-step interval between wall-clock reads, so a 0 ms deadline
    // must trip.
    let chain = (0..40).map(|i| format!("DL{i}")).collect::<Vec<_>>().join("//");
    let line = format!(
        r#"{{"query": {}, "deadline_ms": 0}}"#,
        tpq_base::Json::Str(chain).to_string_compact()
    );
    let response = round_trip(&mut conn, &line);
    assert_eq!(error_kind_of(&response), "budget", "{response}");
    drop(conn);
    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn server_deadline_caps_request_asks() {
    // Server ceiling 0 ms: even a request asking for a huge deadline trips.
    let (addr, handle, thread) =
        start(ServeConfig { deadline_ms: Some(0), ..ServeConfig::default() });
    let mut conn = connect(addr);
    let chain = (0..40).map(|i| format!("SC{i}")).collect::<Vec<_>>().join("//");
    let line = format!(
        r#"{{"query": {}, "deadline_ms": 60000}}"#,
        tpq_base::Json::Str(chain).to_string_compact()
    );
    let response = round_trip(&mut conn, &line);
    assert_eq!(error_kind_of(&response), "budget", "{response}");
    drop(conn);
    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn connections_over_the_limit_are_refused() {
    let (addr, handle, thread) = start(ServeConfig { max_conns: 1, ..ServeConfig::default() });
    let mut first = connect(addr);
    // Round-trip guarantees the accept loop has registered this connection.
    assert_eq!(round_trip(&mut first, "PING"), r#"{"ok":true}"#);
    let mut second = connect(addr);
    let mut response = String::new();
    second.read_line(&mut response).unwrap();
    assert_eq!(error_kind_of(response.trim_end()), "overloaded");
    drop(first);
    handle.shutdown();
    let summary = thread.join().unwrap();
    assert_eq!(summary.refused, 1);
}

#[test]
fn stats_verb_reports_server_and_observability_state() {
    let (addr, handle, thread) = start(ServeConfig::default());
    let mut conn = connect(addr);
    round_trip(&mut conn, r#"{"query": "StatsCase*[/SA][/SB]"}"#);
    let response = round_trip(&mut conn, "STATS");
    let json = tpq_base::Json::parse(&response).expect("STATS JSON");
    assert!(json.get("uptime_ms").is_some());
    let connections = json.get("connections").expect("connections");
    assert_eq!(connections.get("active").and_then(tpq_base::Json::as_i64), Some(1));
    let requests = json.get("requests").expect("requests");
    assert!(requests.get("ok").and_then(tpq_base::Json::as_i64).unwrap() >= 1);
    let pool = json.get("pool").expect("pool");
    assert!(pool.get("workers").and_then(tpq_base::Json::as_i64).unwrap() >= 1);
    assert!(
        json.get("events_dropped").and_then(tpq_base::Json::as_i64).is_some(),
        "STATS must report event-ring losses"
    );
    assert!(json.get("obs").is_some(), "STATS must embed the obs registry");
    assert!(response.contains("serve.request"), "obs registry lists serve counters");
    // Overload and warm-restart observability: shed totals by reason, the
    // queue bound, and the restore outcome are always present.
    let shed = json.get("shed").expect("shed block");
    for reason in ["queue_full", "injected", "drain", "total"] {
        assert!(shed.get(reason).and_then(tpq_base::Json::as_i64).is_some(), "shed.{reason}");
    }
    assert!(shed.get("queue_limit").and_then(tpq_base::Json::as_i64).unwrap() >= 1);
    let snapshot = json.get("snapshot").expect("snapshot block");
    assert_eq!(
        snapshot.get("restore").and_then(tpq_base::Json::as_str),
        Some("cold"),
        "no --restore configured means a cold start"
    );
    drop(conn);
    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn shutdown_verb_drains_the_server() {
    let (addr, _handle, thread) = start(ServeConfig::default());
    // A second, idle connection must not wedge the drain.
    let idle = connect(addr);
    let mut conn = connect(addr);
    let response = round_trip(&mut conn, "SHUTDOWN");
    assert!(response.contains("\"draining\":true"), "{response}");
    let summary = thread.join().unwrap();
    assert_eq!(summary.accepted, 2);
    drop(idle);
    // The listener is gone: new connections fail or are immediately closed.
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(stream) => {
            stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut buffer = Vec::new();
            let n = (&stream).read_to_end(&mut buffer).unwrap_or(0);
            assert_eq!(n, 0, "post-shutdown connection should see EOF");
        }
    }
}

#[test]
fn handle_shutdown_reports_summary_totals() {
    let (addr, handle, thread) = start(ServeConfig::default());
    let mut conn = connect(addr);
    round_trip(&mut conn, r#"{"query": "SummaryCase*[/QA]"}"#);
    round_trip(&mut conn, "{");
    drop(conn);
    handle.shutdown();
    assert!(handle.is_shutdown());
    let summary = thread.join().unwrap();
    assert_eq!(summary.accepted, 1);
    assert_eq!(summary.requests_ok, 1);
    assert_eq!(summary.requests_failed, 1);
}

/// Pull the appended `"trace"` field out of a raw response line.
fn trace_of(response: &str) -> String {
    let json = tpq_base::Json::parse(response).expect("response JSON");
    json.get("trace")
        .and_then(tpq_base::Json::as_str)
        .unwrap_or_else(|| panic!("no 'trace' in {response}"))
        .to_owned()
}

/// Send `METRICS` and read the multi-line exposition up to its `# EOF`
/// terminator (exclusive).
fn scrape_metrics(conn: &mut BufReader<TcpStream>) -> Vec<String> {
    writeln!(conn.get_mut(), "METRICS").expect("write");
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        conn.read_line(&mut line).expect("read metrics line");
        let line = line.trim_end().to_owned();
        if line == "# EOF" {
            return lines;
        }
        lines.push(line);
    }
}

#[test]
fn metrics_verb_returns_wellformed_prometheus_exposition() {
    let (addr, handle, thread) = start(ServeConfig::default());
    let mut conn = connect(addr);
    // Generate some traffic so counters and histograms are non-empty.
    round_trip(&mut conn, r#"{"query": "MetricsCase*[/MA][/MB]"}"#);
    let lines = scrape_metrics(&mut conn);
    assert!(!lines.is_empty());
    let mut declared = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("metric name").to_owned();
            let kind = parts.next().expect("metric kind");
            assert!(matches!(kind, "counter" | "gauge" | "histogram"), "{line}");
            // Every metric ships a description: the line right above a
            // # TYPE must be a # HELP for the same metric.
            let help = i.checked_sub(1).and_then(|prev| lines.get(prev));
            let expected = format!("# HELP {name} ");
            match help {
                Some(help) if help.starts_with(&expected) => {
                    assert!(help.len() > expected.len(), "empty HELP for {name}")
                }
                other => panic!("missing # HELP above {line}: found {other:?}"),
            }
            declared.push(name);
            continue;
        }
        if line.starts_with("# HELP ") {
            continue; // validated alongside its # TYPE line above
        }
        assert!(!line.starts_with('#'), "unexpected comment: {line}");
        // Sample lines: `name[{labels}] value`, names under the tpq_ prefix.
        assert!(line.starts_with("tpq_"), "unprefixed sample: {line}");
        let value = line.rsplit(' ').next().expect("sample value");
        assert!(value.parse::<f64>().is_ok() || value == "+Inf", "unparseable value in {line}");
    }
    assert!(!declared.is_empty(), "no # TYPE headers in the exposition");
    let mut sorted = declared.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), declared.len(), "duplicate metric names: {declared:?}");
    assert!(declared.iter().any(|n| n == "tpq_serve_inflight"));
    assert!(declared.iter().any(|n| n == "tpq_serve_uptime_seconds"));
    assert!(declared.iter().any(|n| n == "tpq_serve_request_ok_total"));
    // The overload / warm-restart gauges are part of the contract, and
    // none of them may collide with an existing metric name (the dedup
    // assertion above covers the whole exposition).
    for gauge in [
        "tpq_serve_queue_depth",
        "tpq_serve_queue_limit",
        "tpq_serve_snapshot_restored",
        "tpq_serve_snapshot_rejected",
        "tpq_serve_snapshot_bytes",
        "tpq_serve_snapshot_age_seconds",
    ] {
        assert!(declared.iter().any(|n| n == gauge), "missing gauge {gauge}: {declared:?}");
    }
    // Line framing resumes after # EOF: the connection is still usable.
    assert_eq!(round_trip(&mut conn, "PING"), r#"{"ok":true}"#);
    drop(conn);
    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn responses_carry_distinct_per_request_trace_ids() {
    let (addr, handle, thread) = start(ServeConfig::default());
    let mut conn = connect(addr);
    let first = trace_of(&round_trip(&mut conn, r#"{"query": "TraceCase*[/TA]"}"#));
    let second = trace_of(&round_trip(&mut conn, r#"{"query": "TraceCase*[/TB]"}"#));
    for trace in [&first, &second] {
        assert_eq!(trace.len(), 16, "trace is 16 hex digits: {trace}");
        assert!(trace.chars().all(|c| c.is_ascii_hexdigit()), "{trace}");
    }
    assert_ne!(first, second, "each request gets its own trace id");
    // Error responses carry a trace too, outside the stable error object.
    let error = round_trip(&mut conn, r#"{"query": "((("}"#);
    assert_eq!(error_kind_of(&error), "parse");
    assert_eq!(trace_of(&error).len(), 16);
    drop(conn);
    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn request_counters_survive_a_registry_reset() {
    // reset() isolates counter assertions from whatever ran earlier in
    // this binary; servers in other tests may still add counts
    // concurrently, so the assertion is a floor.
    tpq_obs::reset();
    let (addr, handle, thread) = start(ServeConfig::default());
    let mut conn = connect(addr);
    round_trip(&mut conn, r#"{"query": "ResetCase*[/RA]"}"#);
    let report = tpq_obs::report();
    assert!(report.counter("serve.request.ok") >= 1);
    drop(conn);
    handle.shutdown();
    thread.join().unwrap();
}
