//! Fault-injection tests for the serve layer.
//!
//! Kept in their own test binary (own process): failpoints arm
//! process-wide, and the hit comes from a pool worker thread, so
//! thread-scoped arming cannot be used. The tests take one lock so that
//! no failpoint armed by one fires in another.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;
use tpq_base::failpoint::{self, Action};
use tpq_serve::{ServeConfig, Server};

/// Serialize the tests of this binary (a failed test poisons the lock;
/// the others still run).
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
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

fn error_kind_of(response: &str) -> String {
    tpq_base::Json::parse(response)
        .ok()
        .and_then(|j| j.get("error")?.get("kind")?.as_str().map(str::to_owned))
        .unwrap_or_else(|| panic!("no error kind in {response}"))
}

/// One poisoned request must answer with a typed error while every other
/// request — on the same connection, on others, before and after — is
/// served normally, and the server must still drain cleanly.
#[test]
fn injected_worker_faults_poison_one_request_only() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("tpq-serve-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dump = dir.join("flight.jsonl");
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 2,
        flight_dump: Some(dump.clone()),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run().expect("run"));

    let mut conn = connect(addr);

    // Baseline: the query works.
    let ok = round_trip(&mut conn, r#"{"query": "Fault*[/FA][/FB]"}"#);
    assert!(ok.contains("\"minimized\""), "{ok}");

    // Case 1: the worker minimizing the next request panics.
    let _fp = failpoint::arm("pool.task", Action::Panic, 1);
    let poisoned = round_trip(&mut conn, r#"{"query": "Fault*[/FA][/FB]"}"#);
    assert_eq!(error_kind_of(&poisoned), "panic", "{poisoned}");
    assert!(poisoned.contains("injected panic"), "{poisoned}");

    // The panic triggered an automatic flight-recorder dump, and the
    // crashing request is the last record in the black box.
    let dumped = std::fs::read_to_string(&dump).expect("panic triggered a flight dump");
    let last = dumped.lines().last().expect("dump has records");
    let record = tpq_base::Json::parse(last).expect("record JSON");
    assert_eq!(record.get("outcome").and_then(tpq_base::Json::as_str), Some("panic"), "{last}");

    // The same connection keeps working, as does a fresh one.
    let after = round_trip(&mut conn, r#"{"query": "Fault*[/FA][/FB]"}"#);
    assert!(after.contains("\"minimized\""), "{after}");
    let mut conn2 = connect(addr);
    let other = round_trip(&mut conn2, r#"{"query": "Fault2*[/FC]"}"#);
    assert!(other.contains("\"minimized\""), "{other}");

    // Case 2: the worker reports an injected error instead of panicking.
    let _fp = failpoint::arm("pool.task", Action::Err, 1);
    let injected = round_trip(&mut conn, r#"{"query": "Fault*[/FA][/FB]"}"#);
    assert_eq!(error_kind_of(&injected), "injected", "{injected}");
    let recovered = round_trip(&mut conn, r#"{"query": "Fault*[/FA][/FB]"}"#);
    assert!(recovered.contains("\"minimized\""), "{recovered}");

    // Case 3: a dump torn mid-write (crash modeled by the flight.dump
    // failpoint) must fail without clobbering the panic-time black box.
    let before = std::fs::read_to_string(&dump).unwrap();
    let _fp = failpoint::arm("flight.dump", Action::Err, 1);
    handle.dump_flight().expect_err("armed failpoint fails the dump");
    assert_eq!(std::fs::read_to_string(&dump).unwrap(), before, "old dump survives");
    assert!(!dump.with_file_name("flight.jsonl.tmp").exists(), "torn tmp removed");
    // Disarmed, the dump goes through and now includes the later records.
    let written = handle.dump_flight().expect("dump after disarm");
    assert!(written >= 6, "all requests so far are in the ring: {written}");

    drop(conn);
    drop(conn2);
    handle.shutdown();
    let summary = thread.join().unwrap();
    assert_eq!(summary.requests_ok, 4);
    assert_eq!(summary.requests_failed, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A panic outside the minimization itself (here: while parsing the
/// pattern on the pool worker) still answers its own request, records a
/// `panic` flight record, and gives its admission slot back.
#[test]
fn a_panic_while_parsing_answers_its_request_and_frees_its_slot() {
    let _serial = serial();
    let server =
        Server::bind(ServeConfig { addr: "127.0.0.1:0".into(), jobs: 1, ..ServeConfig::default() })
            .expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run().expect("run"));

    let mut conn = connect(addr);
    conn.get_ref().set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    let _fp = failpoint::arm("parse.pattern", Action::Panic, 1);
    let poisoned = round_trip(&mut conn, r#"{"query": "Parse*[/PA][/PB]"}"#);
    assert_eq!(error_kind_of(&poisoned), "panic", "{poisoned}");
    assert!(poisoned.contains("injected panic"), "{poisoned}");

    // The same connection is answered again, and the panicked request
    // no longer counts as in flight.
    let after = round_trip(&mut conn, r#"{"query": "Parse*[/PA][/PA]"}"#);
    assert!(after.contains(r#""minimized":"Parse*/PA""#), "{after}");
    let stats = tpq_base::Json::parse(&round_trip(&mut conn, "STATS")).expect("STATS JSON");
    let inflight = stats.get("requests").and_then(|r| r.get("inflight")).cloned();
    assert_eq!(inflight, Some(tpq_base::Json::Int(0)), "{stats:?}");

    // The panic has its own flight record.
    writeln!(conn.get_mut(), "TIMELINE").unwrap();
    let mut outcomes = Vec::new();
    loop {
        let mut line = String::new();
        conn.read_line(&mut line).expect("read TIMELINE");
        if line.trim_end() == "# EOF" {
            break;
        }
        let record = tpq_base::Json::parse(line.trim_end()).expect("record JSON");
        outcomes.push(record.get("outcome").and_then(tpq_base::Json::as_str).unwrap().to_owned());
    }
    assert_eq!(outcomes, ["panic", "ok"]);

    drop(conn);
    handle.shutdown();
    let summary = thread.join().unwrap();
    assert_eq!((summary.requests_ok, summary.requests_failed), (1, 1));
}
