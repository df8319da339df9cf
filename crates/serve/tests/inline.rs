//! The reactor's inline path: front hits, memo hits (and early errors)
//! are answered on the reactor thread, misses and long lines go to the
//! pool, and the engine is looked up by the raw constraint text.
//!
//! Kept in their own test binary (own process): the tests read the
//! process-wide `serve.request.inline` and `batch.front.hit` counters and
//! arm the process-wide `parse.constraints` and `parse.pattern`
//! failpoints, so they serialize on one lock.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tpq_base::failpoint::{self, Action};
use tpq_base::Json;
use tpq_core::{probe_engine_text, Strategy, FRONT_MAX_BYTES, FRONT_MAX_ENTRIES};
use tpq_serve::{global_types, ServeConfig, ServeHandle, ServeSummary, Server};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn start() -> (SocketAddr, ServeHandle, std::thread::JoinHandle<ServeSummary>) {
    let config = ServeConfig { addr: "127.0.0.1:0".to_owned(), jobs: 1, ..ServeConfig::default() };
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

fn round_trip(conn: &mut BufReader<TcpStream>, line: &str) -> Json {
    writeln!(conn.get_mut(), "{line}").expect("write");
    let mut response = String::new();
    conn.read_line(&mut response).expect("read");
    Json::parse(response.trim_end()).unwrap_or_else(|e| panic!("bad response {response}: {e}"))
}

fn request(query: &str, constraints: &str) -> String {
    Json::object(vec![
        ("query", Json::Str(query.to_owned())),
        ("constraints", Json::Str(constraints.to_owned())),
    ])
    .to_string_compact()
}

fn minimized(response: &Json) -> &str {
    response
        .get("minimized")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no minimization in {response:?}"))
}

fn cache_hit(response: &Json) -> bool {
    response
        .get("stats")
        .and_then(|s| s.get("cache_hit"))
        .and_then(Json::as_bool)
        .unwrap_or_else(|| panic!("no cache_hit in {response:?}"))
}

fn inline_count() -> u64 {
    tpq_obs::counter("serve.request.inline").get()
}

fn front_hits() -> u64 {
    tpq_obs::counter("batch.front.hit").get()
}

/// A response without the fields that differ between two answers to one
/// query: the server's `micros` and the per-request `trace`.
fn without_timing(response: &Json) -> Json {
    let Json::Object(members) = response else { panic!("not an object: {response:?}") };
    let members = members
        .iter()
        .filter(|(k, _)| k != "trace")
        .map(|(k, v)| match (k.as_str(), v) {
            ("stats", Json::Object(stats)) => (
                k.clone(),
                Json::Object(stats.iter().filter(|(f, _)| f != "micros").cloned().collect()),
            ),
            _ => (k.clone(), v.clone()),
        })
        .collect();
    Json::Object(members)
}

/// The newest flight record.
fn last_record(conn: &mut BufReader<TcpStream>) -> Json {
    writeln!(conn.get_mut(), "TIMELINE 1").expect("write");
    let mut record = String::new();
    conn.read_line(&mut record).expect("read record");
    let mut eof = String::new();
    conn.read_line(&mut eof).expect("read EOF");
    assert_eq!(eof.trim_end(), "# EOF");
    Json::parse(record.trim_end()).expect("record JSON")
}

/// The queue phase of the newest flight record: 0 for a request the
/// reactor answered itself, the pool wait otherwise.
fn last_queue_ns(conn: &mut BufReader<TcpStream>) -> i64 {
    let record = last_record(conn);
    record
        .get("phases_ns")
        .and_then(|p| p.get("queue"))
        .and_then(Json::as_i64)
        .unwrap_or_else(|| panic!("no queue phase in {record:?}"))
}

#[test]
fn inline_counts_memo_hits_not_misses() {
    let _serial = serial();
    let (addr, handle, thread) = start();
    let mut conn = connect(addr);
    let line = request("InlA*[/InlB][/InlB][/InlC]", "InlA -> InlC");

    let before = inline_count();
    let miss = round_trip(&mut conn, &line);
    assert_eq!(minimized(&miss), "InlA*/InlB");
    assert!(!cache_hit(&miss));
    assert_eq!(inline_count(), before, "a miss is minimized on the pool");
    assert!(last_queue_ns(&mut conn) > 0, "a miss waits for a worker");

    let hit = round_trip(&mut conn, &line);
    assert_eq!(minimized(&hit), "InlA*/InlB");
    assert!(cache_hit(&hit));
    assert_eq!(inline_count(), before + 1, "a hit is answered on the reactor thread");
    assert_eq!(last_queue_ns(&mut conn), 0, "an inline answer never queues");

    drop(conn);
    handle.shutdown();
    let summary = thread.join().unwrap();
    assert_eq!((summary.requests_ok, summary.requests_failed), (2, 0));
}

#[test]
fn one_schema_text_is_parsed_once_and_respellings_share_its_engine() {
    let _serial = serial();
    let (addr, handle, thread) = start();
    let mut conn = connect(addr);
    let schema = "TxtA -> TxtC\nTxtA ->> TxtD";
    let query = "TxtA*[/TxtB][/TxtC][//TxtD]";
    assert_eq!(minimized(&round_trip(&mut conn, &request(query, schema))), "TxtA*/TxtB");

    // A second request with the same text must not parse it again: the
    // armed failpoint would fail that parse.
    let fp = failpoint::arm("parse.constraints", Action::Err, 1);
    let other = round_trip(&mut conn, &request("TxtA*[/TxtB][/TxtB]", schema));
    assert_eq!(minimized(&other), "TxtA*/TxtB", "{other:?}");
    drop(fp);

    // Another spelling of the same set reaches the same engine, whose
    // memo already holds the first query.
    let respelled = "TxtA ->> TxtD\n  TxtA -> TxtC";
    let hit = round_trip(&mut conn, &request(query, respelled));
    assert_eq!(minimized(&hit), "TxtA*/TxtB");
    assert!(cache_hit(&hit), "one set, one engine: {hit:?}");

    drop(conn);
    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn a_line_over_the_inline_cap_is_answered_through_the_pool() {
    let _serial = serial();
    let (addr, handle, thread) = start();
    let mut conn = connect(addr);
    // JSON whitespace pads the line past the 4 KiB inline cap.
    let line =
        format!(r#"{{"query": "CapA*[/CapB][/CapB]",{}"strategy": "full"}}"#, " ".repeat(5000));
    assert!(line.len() > 4096);

    let before = inline_count();
    for expect_hit in [false, true] {
        let response = round_trip(&mut conn, &line);
        assert_eq!(minimized(&response), "CapA*/CapB");
        assert_eq!(cache_hit(&response), expect_hit);
        assert!(last_queue_ns(&mut conn) > 0, "the pool prepared it");
    }
    assert_eq!(inline_count(), before, "even the memo hit went through the pool");

    drop(conn);
    handle.shutdown();
    thread.join().unwrap();
}

/// A request that meets a busy interner goes to the pool instead of
/// blocking the reactor: while the test holds the interner, the reactor
/// still answers other connections. The request re-spells the warmed
/// query, so it is a memo hit but misses the query-text front, and needs
/// the interner to parse.
#[test]
fn a_busy_interner_sends_the_request_to_the_pool() {
    let _serial = serial();
    let (addr, handle, thread) = start();
    let mut conn = connect(addr);
    let warm = request("BusyA*[/BusyB][/BusyB]", "");
    assert_eq!(minimized(&round_trip(&mut conn, &warm)), "BusyA*/BusyB");
    let line = request("BusyA*[/BusyB]/BusyB", "");
    let before = inline_count();

    let types = global_types().lock().expect("interner");
    writeln!(conn.get_mut(), "{line}").expect("write");
    // Wait, on another connection, until the reactor has admitted the
    // request; it cannot answer it while the interner is held.
    let mut probe = connect(addr);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = round_trip(&mut probe, "STATS");
        let inflight = stats.get("requests").and_then(|r| r.get("inflight")).cloned();
        if inflight == Some(Json::Int(1)) {
            break;
        }
        assert!(Instant::now() < deadline, "request never admitted: {stats:?}");
        std::thread::sleep(Duration::from_millis(2));
    }
    drop(types);

    let mut response = String::new();
    conn.read_line(&mut response).expect("read");
    let response = Json::parse(response.trim_end()).expect("response JSON");
    assert_eq!(minimized(&response), "BusyA*/BusyB");
    assert!(cache_hit(&response));
    assert_eq!(inline_count(), before, "the hit was answered by a worker");

    drop((conn, probe));
    handle.shutdown();
    thread.join().unwrap();
}

/// A constraint text the engine table does not know is parsed and closed
/// on a worker, never on the reactor thread. The schema is a 300-type
/// `->>` chain whose closure takes a noticeable time (about 0.1 s in a
/// release build), on a line short enough for the inline path; while a
/// worker closes it, a memo hit and STATS on another connection are
/// answered in a fraction of that time.
#[test]
fn a_new_schema_is_closed_on_a_worker_while_the_reactor_answers() {
    let _serial = serial();
    let (addr, handle, thread) = start();
    let mut conn = connect(addr);
    let hit_line = request("SlowA*[/SlowB][/SlowB]", "");
    for _ in 0..2 {
        assert_eq!(minimized(&round_trip(&mut conn, &hit_line)), "SlowA*/SlowB");
    }

    let schema: Vec<String> = (0..300).map(|i| format!("K{i}->>K{}", i + 1)).collect();
    let big_line = request("K0*[//K299]/Zz", &schema.join("\n"));
    assert!(big_line.len() <= 4096, "short enough to be tried inline");
    let mut big = connect(addr);
    let sent_big = Instant::now();
    writeln!(big.get_mut(), "{big_line}").expect("write");
    let closer = std::thread::spawn(move || {
        let mut response = String::new();
        big.read_line(&mut response).expect("read");
        (sent_big.elapsed(), Json::parse(response.trim_end()).expect("response JSON"))
    });
    std::thread::sleep(Duration::from_millis(10));

    let before = inline_count();
    let sent_hit = Instant::now();
    let hit = round_trip(&mut conn, &hit_line);
    let stats = round_trip(&mut conn, "STATS");
    let answered_in = sent_hit.elapsed();
    assert!(cache_hit(&hit), "{hit:?}");
    assert_eq!(inline_count(), before + 1, "the hit was answered on the reactor thread");
    assert!(stats.get("requests").is_some(), "{stats:?}");

    let (closed_in, response) = closer.join().unwrap();
    assert_eq!(minimized(&response), "K0*/Zz", "the closure implies //K299");
    assert!(
        answered_in * 2 < closed_in,
        "the reactor waited for the closure: hit + STATS took {answered_in:?}, \
         the new schema {closed_in:?}"
    );

    drop(conn);
    handle.shutdown();
    thread.join().unwrap();
}

/// A panic on the reactor thread's half of a request (here: parsing the
/// query of a request whose schema text is known) answers that request
/// with a `panic` error, and the reactor carries on serving.
#[test]
fn a_panic_on_the_reactor_answers_its_request_and_the_server_carries_on() {
    let _serial = serial();
    let (addr, handle, thread) = start();
    let mut conn = connect(addr);
    let schema = "PanA -> PanC";
    let warm = round_trip(&mut conn, &request("PanA*[/PanC]", schema));
    assert_eq!(minimized(&warm), "PanA*");

    let before = inline_count();
    let fp = failpoint::arm("parse.pattern", Action::Panic, 1);
    let poisoned = round_trip(&mut conn, &request("PanA*[/PanB][/PanB]", schema));
    drop(fp);
    let kind = poisoned.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str);
    assert_eq!(kind, Some("panic"), "{poisoned:?}");
    assert_eq!(inline_count(), before + 1, "the panic was answered on the reactor thread");

    let after = round_trip(&mut conn, &request("PanA*[/PanB][/PanB]", schema));
    assert_eq!(minimized(&after), "PanA*/PanB");
    let stats = round_trip(&mut connect(addr), "STATS");
    let inflight = stats.get("requests").and_then(|r| r.get("inflight")).cloned();
    assert_eq!(inflight, Some(Json::Int(0)), "{stats:?}");

    drop(conn);
    handle.shutdown();
    let summary = thread.join().unwrap();
    assert_eq!((summary.requests_ok, summary.requests_failed), (2, 1));
}

/// A textual repeat is answered from the engine's query-text front: its
/// query is not parsed again (the armed `parse.pattern` failpoint would
/// panic that parse), and its response is the memo hit's apart from
/// `micros` and `trace`.
#[test]
fn a_textual_repeat_is_answered_from_the_front() {
    let _serial = serial();
    let (addr, handle, thread) = start();
    let mut conn = connect(addr);
    let schema = "FrA -> FrC";
    let line = request("FrA*[/FrB][/FrB][/FrC]", schema);
    // An isomorphic re-spelling: a memo hit, but not the same text.
    let respelled = request("FrA*[/FrC][/FrB]/FrB", schema);
    let miss = round_trip(&mut conn, &line);
    assert_eq!((minimized(&miss), cache_hit(&miss)), ("FrA*/FrB", false));
    let (hits, inline) = (front_hits(), inline_count());
    let memo_hit = round_trip(&mut conn, &respelled);
    assert!(cache_hit(&memo_hit));
    assert_eq!(front_hits(), hits, "a re-spelling misses the front");
    assert_eq!(last_record(&mut conn).get("front_hit"), Some(&Json::Bool(false)));

    let fp = failpoint::arm("parse.pattern", Action::Panic, 1);
    let repeat = round_trip(&mut conn, &line);
    assert_eq!(front_hits(), hits + 1, "the repeat was a front hit: {repeat:?}");
    assert_eq!(inline_count(), inline + 2, "both hits were answered on the reactor thread");
    assert_eq!(without_timing(&repeat), without_timing(&memo_hit));
    let record = last_record(&mut conn);
    assert_eq!(record.get("front_hit"), Some(&Json::Bool(true)), "{record:?}");
    assert_eq!(record.get("cache_hit"), Some(&Json::Bool(true)), "{record:?}");
    // The memo hit filled the front for its own text too.
    let again = round_trip(&mut conn, &respelled);
    assert_eq!(without_timing(&again), without_timing(&memo_hit));
    assert_eq!(front_hits(), hits + 2);
    drop(fp);

    drop(conn);
    handle.shutdown();
    let summary = thread.join().unwrap();
    assert_eq!((summary.requests_ok, summary.requests_failed), (4, 0));
}

/// A front hit needs no interner, so it is answered on the reactor thread
/// while another thread holds the interner.
#[test]
fn a_front_hit_is_answered_while_the_interner_is_held() {
    let _serial = serial();
    let (addr, handle, thread) = start();
    let mut conn = connect(addr);
    let line = request("HeldA*[/HeldB][/HeldB]", "");
    assert_eq!(minimized(&round_trip(&mut conn, &line)), "HeldA*/HeldB");

    let before = inline_count();
    let types = global_types().lock().expect("interner");
    let hit = round_trip(&mut conn, &line);
    assert_eq!(minimized(&hit), "HeldA*/HeldB");
    assert!(cache_hit(&hit));
    assert_eq!(inline_count(), before + 1, "answered on the reactor thread");
    assert_eq!(last_queue_ns(&mut conn), 0, "an inline answer never queues");
    drop(types);

    drop(conn);
    handle.shutdown();
    thread.join().unwrap();
}

/// A flood of more distinct query texts than one front holds is answered
/// correctly, and the engine's front never passes its entry or byte cap.
#[test]
fn a_flood_of_distinct_texts_keeps_the_front_within_its_bounds() {
    let _serial = serial();
    let (addr, handle, thread) = start();
    let mut conn = connect(addr);
    let schema = "FloodA -> FloodZ";
    let texts = FRONT_MAX_ENTRIES + 200;
    let usage = || {
        probe_engine_text(schema, Strategy::default()).expect("the schema's engine").front_usage()
    };
    // Pipeline the requests in chunks well under the admission queue.
    const CHUNK: usize = 64;
    for start in (0..texts).step_by(CHUNK) {
        let ids = start..(start + CHUNK).min(texts);
        let mut lines = String::new();
        for i in ids.clone() {
            lines.push_str(&request(&format!("Fl{i}*[/FloodB][/FloodB]"), schema));
            lines.push('\n');
        }
        conn.get_mut().write_all(lines.as_bytes()).expect("write");
        for i in ids {
            let mut response = String::new();
            conn.read_line(&mut response).expect("read");
            let response = Json::parse(response.trim_end()).expect("response JSON");
            assert_eq!(minimized(&response), format!("Fl{i}*/FloodB"));
        }
        let (entries, bytes) = usage();
        assert!(entries <= FRONT_MAX_ENTRIES, "{entries} entries");
        assert!(bytes <= FRONT_MAX_BYTES, "{bytes} bytes");
    }
    let (entries, _) = usage();
    assert!(entries < texts, "the front started over at its cap: {entries}");
    let stats = round_trip(&mut conn, "STATS");
    let front = stats.get("front").unwrap_or_else(|| panic!("no front block: {stats:?}"));
    assert!(front.get("entries").and_then(Json::as_i64).is_some_and(|n| n > 0), "{front:?}");
    assert!(front.get("bytes").and_then(Json::as_i64).is_some_and(|n| n > 0), "{front:?}");
    // The first text left the front, and the memo still answers it.
    let first = round_trip(&mut conn, &request("Fl0*[/FloodB][/FloodB]", schema));
    assert_eq!(minimized(&first), "Fl0*/FloodB");
    assert!(cache_hit(&first));

    drop(conn);
    handle.shutdown();
    thread.join().unwrap();
}
