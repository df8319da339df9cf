//! Integration tests for the flight recorder surface: the `TIMELINE`
//! verb, the `STATS` window/flight blocks, the `tpq_*_1m` gauges, and
//! explicit dumps through [`ServeHandle::dump_flight`]. The flight
//! recorder is on by default.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;
use tpq_base::Json;
use tpq_serve::{ServeConfig, ServeHandle, ServeSummary, Server};

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

fn round_trip(conn: &mut BufReader<TcpStream>, line: &str) -> String {
    writeln!(conn.get_mut(), "{line}").expect("write");
    let mut response = String::new();
    conn.read_line(&mut response).expect("read");
    response.trim_end().to_owned()
}

/// Send a `TIMELINE` line and collect the JSON records up to `# EOF`.
fn scrape_timeline(conn: &mut BufReader<TcpStream>, verb: &str) -> Vec<Json> {
    writeln!(conn.get_mut(), "{verb}").expect("write");
    let mut records = Vec::new();
    loop {
        let mut line = String::new();
        conn.read_line(&mut line).expect("read timeline line");
        let line = line.trim_end();
        if line == "# EOF" {
            return records;
        }
        records.push(Json::parse(line).unwrap_or_else(|e| panic!("bad record {line:?}: {e}")));
    }
}

fn str_of<'j>(record: &'j Json, field: &str) -> &'j str {
    record
        .get(field)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no string '{field}' in {record:?}"))
}

fn int_of(record: &Json, field: &str) -> i64 {
    record
        .get(field)
        .and_then(Json::as_i64)
        .unwrap_or_else(|| panic!("no int '{field}' in {record:?}"))
}

/// Drive one server through a mixed workload and check the timeline
/// records it hands back. Shared by the per-engine tests below.
fn check_timeline(config: ServeConfig) {
    let (addr, handle, thread) = start(config);
    let mut conn = connect(addr);

    // Two identical requests (the second hits the canonical-pattern memo
    // cache), one parse failure, one bare-verb round trip for contrast.
    let ok = round_trip(&mut conn, r#"{"query": "Flight*[/FA][/FB]", "strategy": "cim"}"#);
    assert!(ok.contains("\"minimized\""), "{ok}");
    let again = round_trip(&mut conn, r#"{"query": "Flight*[/FA][/FB]", "strategy": "cim"}"#);
    assert!(again.contains("\"minimized\""), "{again}");
    let bad = round_trip(&mut conn, r#"{"query": "((("}"#);
    assert!(bad.contains("\"error\""), "{bad}");
    assert_eq!(round_trip(&mut conn, "PING"), r#"{"ok":true}"#);

    let records = scrape_timeline(&mut conn, "TIMELINE");
    assert_eq!(records.len(), 3, "three requests, verbs not recorded: {records:?}");

    // Records come back oldest first with gap-free seqs.
    let seqs: Vec<i64> = records.iter().map(|r| int_of(r, "seq")).collect();
    assert_eq!(seqs, vec![0, 1, 2]);

    let first = &records[0];
    assert_eq!(str_of(first, "verb"), "minimize");
    assert_eq!(str_of(first, "outcome"), "ok");
    assert_eq!(str_of(first, "strategy"), "cim");
    assert_eq!(str_of(first, "trace").len(), 16, "trace ids are 16 hex digits");
    let phases = first.get("phases_ns").expect("phases_ns");
    let parse = phases.get("parse").and_then(Json::as_i64).expect("parse phase");
    let minimize = phases.get("minimize").and_then(Json::as_i64).expect("minimize phase");
    assert!(parse > 0, "parse phase timed: {first:?}");
    assert!(minimize > 0, "minimize phase timed: {first:?}");
    assert!(int_of(first, "total_ns") >= parse + minimize, "total covers the phases");
    assert!(int_of(first, "bytes_in") > 0 && int_of(first, "bytes_out") > 0);
    assert_eq!(first.get("shed"), Some(&Json::Bool(false)));

    // The repeat was answered from cache; the parse failure is typed and
    // never reached a strategy.
    assert_eq!(records[1].get("cache_hit"), Some(&Json::Bool(true)), "{records:?}");
    assert_eq!(str_of(&records[2], "outcome"), "parse");
    assert_eq!(str_of(&records[2], "strategy"), "-");

    // A count argument trims to the newest records, still oldest first.
    let newest = scrape_timeline(&mut conn, "TIMELINE 2");
    assert_eq!(newest.iter().map(|r| int_of(r, "seq")).collect::<Vec<_>>(), vec![1, 2]);
    // Reads are non-destructive: a second full drain sees everything.
    assert_eq!(scrape_timeline(&mut conn, "TIMELINE").len(), 3);

    // A malformed count is a single-line typed error, not a hang.
    let err = round_trip(&mut conn, "TIMELINE zero");
    assert!(err.contains("bad-request"), "{err}");

    drop(conn);
    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn timeline_returns_phase_timed_records_reactor_engine() {
    check_timeline(ServeConfig::default());
}

#[test]
fn stats_and_metrics_surface_the_rolling_window() {
    let (addr, handle, thread) = start(ServeConfig::default());
    let mut conn = connect(addr);
    for _ in 0..3 {
        let ok = round_trip(&mut conn, r#"{"query": "Window*[/WA][/WB]"}"#);
        assert!(ok.contains("\"minimized\""), "{ok}");
    }
    let bad = round_trip(&mut conn, r#"{"query": "((("}"#);
    assert!(bad.contains("\"error\""), "{bad}");

    let stats = Json::parse(&round_trip(&mut conn, "STATS")).expect("stats JSON");
    let window = stats.get("window").expect("window block");
    assert!(int_of(window, "seconds") >= 1);
    assert_eq!(int_of(window, "ok"), 3);
    assert_eq!(int_of(window, "requests"), 4);
    let errors = window.get("errors").expect("errors by kind");
    assert_eq!(errors.get("parse").and_then(Json::as_i64), Some(1));
    assert_eq!(int_of(window, "shed"), 0);
    let rate = window.get("request_rate").and_then(Json::as_f64).expect("request_rate");
    assert!(rate > 0.0, "window rate positive after traffic");
    let p50 = window.get("p50_us").and_then(Json::as_f64).expect("p50_us");
    let p99 = window.get("p99_us").and_then(Json::as_f64).expect("p99_us");
    assert!(p50 > 0.0 && p99 >= p50, "quantiles ordered: p50={p50} p99={p99}");

    let flight = stats.get("flight").expect("flight block");
    assert_eq!(int_of(flight, "recorded"), 4);
    assert_eq!(int_of(flight, "dropped"), 0);
    assert!(int_of(flight, "capacity") > 0);

    // The same window feeds the 1m gauges in the Prometheus exposition.
    writeln!(conn.get_mut(), "METRICS").expect("write");
    let mut gauges = Vec::new();
    loop {
        let mut line = String::new();
        conn.read_line(&mut line).expect("read metrics line");
        let line = line.trim_end();
        if line == "# EOF" {
            break;
        }
        gauges.push(line.to_owned());
    }
    for name in [
        "tpq_serve_request_rate_1m",
        "tpq_serve_error_rate_1m",
        "tpq_serve_shed_rate_1m",
        "tpq_serve_request_p50_seconds_1m",
        "tpq_serve_request_p95_seconds_1m",
        "tpq_serve_request_p99_seconds_1m",
        "tpq_serve_flight_recorded",
        "tpq_serve_flight_dropped",
    ] {
        assert!(gauges.iter().any(|l| l.starts_with(&format!("{name} "))), "missing gauge {name}");
    }
    let recorded = gauges
        .iter()
        .find_map(|l| l.strip_prefix("tpq_serve_flight_recorded "))
        .and_then(|v| v.parse::<f64>().ok())
        .expect("flight recorded gauge value");
    assert!(recorded >= 4.0, "gauge tracks the ring: {recorded}");

    drop(conn);
    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn dump_flight_writes_the_black_box_through_the_handle() {
    let dir = std::env::temp_dir().join(format!("tpq-serve-flight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dump = dir.join("flight.jsonl");
    let (addr, handle, thread) =
        start(ServeConfig { flight_dump: Some(dump.clone()), ..ServeConfig::default() });
    let mut conn = connect(addr);
    let ok = round_trip(&mut conn, r#"{"query": "Dump*[/DA][/DB]"}"#);
    assert!(ok.contains("\"minimized\""), "{ok}");

    let written = handle.dump_flight().expect("dump via handle");
    assert_eq!(written, 1);
    let text = std::fs::read_to_string(&dump).expect("dump file");
    let record = Json::parse(text.lines().next().expect("one record")).expect("record JSON");
    assert_eq!(str_of(&record, "outcome"), "ok");
    assert!(!dump.with_file_name("flight.jsonl.tmp").exists(), "tmp renamed away");

    drop(conn);
    handle.shutdown();
    thread.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn top_once_renders_a_frame_from_a_live_server() {
    let (addr, handle, thread) = start(ServeConfig::default());
    let mut conn = connect(addr);
    let ok = round_trip(&mut conn, r#"{"query": "Top*[/TA][/TB]"}"#);
    assert!(ok.contains("\"minimized\""), "{ok}");

    let config = tpq_serve::TopConfig { addr: addr.to_string(), once: true, ..Default::default() };
    let mut out = Vec::new();
    tpq_serve::top::run(&config, &mut out).expect("top --once");
    let frame = String::from_utf8(out).expect("utf8 frame");
    assert!(frame.starts_with("tpq top — "), "{frame}");
    assert!(frame.contains("timeline: 1 records sampled"), "{frame}");
    assert!(frame.contains("requests: 1 ok"), "{frame}");
    let slow = frame.lines().find(|l| l.starts_with("  slow:")).expect("slow line");
    assert!(slow.contains("outcome=ok"), "{slow}");
    assert!(!frame.contains('\x1b'), "--once frames carry no escape codes");

    drop(conn);
    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn dump_flight_without_a_configured_path_is_an_error() {
    let (addr, handle, thread) = start(ServeConfig::default());
    let err = handle.dump_flight().expect_err("no --flight-dump configured");
    assert!(err.to_string().contains("flight-dump"), "{err}");
    let mut conn = connect(addr);
    assert_eq!(round_trip(&mut conn, "PING"), r#"{"ok":true}"#);
    drop(conn);
    handle.shutdown();
    thread.join().unwrap();
}
