//! The chaos battery: concurrent load against a live server under armed
//! failpoints, tripping guards, saturated admission queues, and a
//! kill-and-restart mid-traffic — asserting the robustness invariants:
//!
//! * the server **never returns a wrong minimization**, no matter what
//!   is being shed or injected around the request;
//! * every refused request carries a **typed** `overloaded` (or
//!   `injected`) error — nothing is silently dropped, including requests
//!   still buffered at drain time;
//! * retrying clients ride out overload **and** a full server restart;
//! * a server restored from the dying server's snapshot answers the old
//!   working set from its memo (cache hits) where a cold server would
//!   miss.
//!
//! Failpoints arm process-wide and the caches are process-wide, so the
//! tests serialize on one mutex and use type names unique to each test.
//! Everything is seeded — reruns shed the same requests the same way.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};
use tpq_base::failpoint::{self, Action};
use tpq_base::{Json, TypeInterner};
use tpq_core::{clear_shared_caches, minimize_with, Strategy};
use tpq_pattern::{parse_pattern, print::to_dsl};
use tpq_serve::{Client, RetryPolicy, ServeConfig, ServeHandle, ServeSummary, Server};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|p| p.into_inner())
}

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

/// Ground truth computed sequentially by the library itself.
fn expected_minimization(query: &str, constraints: &str) -> String {
    let mut types = TypeInterner::new();
    let ics = tpq_constraints::parse_constraints(constraints, &mut types).expect("constraints");
    let q = parse_pattern(query, &mut types).expect("query");
    to_dsl(&minimize_with(&q, &ics, Strategy::default()).pattern, &types)
}

/// A pattern far too large to minimize inside a 150ms deadline in a test
/// build: `branches` identical deep chains hanging off one root. Sent
/// with `"deadline_ms": 150` it occupies exactly one pool worker for the
/// full deadline, then answers a typed `budget` error — the
/// deterministic way to plug a `jobs = 1` server.
fn plug_query(prefix: &str, branches: usize, depth: usize) -> String {
    let chain: String =
        (0..depth).map(|d| format!("/{prefix}T{}", d % 8)).collect::<Vec<_>>().concat();
    let mut q = format!("{prefix}Root*");
    for _ in 0..branches {
        q.push('[');
        q.push_str(&chain);
        q.push(']');
    }
    q
}

fn request_line(query: &str, constraints: &str, deadline_ms: Option<u64>) -> String {
    let mut members = vec![("query", Json::Str(query.to_owned()))];
    if !constraints.is_empty() {
        members.push(("constraints", Json::Str(constraints.to_owned())));
    }
    if let Some(ms) = deadline_ms {
        members.push(("deadline_ms", Json::Int(ms as i64)));
    }
    Json::object(members).to_string_compact()
}

fn error_kind_of(response: &str) -> Option<String> {
    Json::parse(response).ok()?.get("error")?.get("kind")?.as_str().map(str::to_owned)
}

/// Saturate a `jobs = 1, queue_depth = 2` server: one plug request holds
/// the worker, one burst request is admitted into the queue, and every
/// other concurrent request must be shed with a typed `overloaded` error
/// carrying a `retry_after_ms` hint. No response may ever be a wrong
/// minimization, and the shed arithmetic is exact.
#[test]
fn saturated_queue_sheds_typed_errors_and_never_wrong_answers() {
    let _guard = lock();
    clear_shared_caches();
    let (addr, handle, thread) =
        start(ServeConfig { jobs: 1, queue_depth: 2, ..ServeConfig::default() });

    let small_q = "ChaosShedA*[/ChaosShedB][/ChaosShedB][//ChaosShedC]";
    let expected = expected_minimization(small_q, "");
    let plug = plug_query("ChaosShed", 60, 30);

    // Plug the single worker...
    let mut plug_conn = connect(addr);
    writeln!(plug_conn.get_mut(), "{}", request_line(&plug, "", Some(150))).unwrap();
    std::thread::sleep(Duration::from_millis(50)); // worker now occupied
                                                   // ...then burst 6 concurrent requests against queue_depth = 2.
    const BURST: usize = 6;
    let burst: Vec<_> = (0..BURST)
        .map(|_| {
            let line = request_line(small_q, "", None);
            std::thread::spawn(move || {
                let mut conn = connect(addr);
                round_trip(&mut conn, &line)
            })
        })
        .collect();
    let responses: Vec<String> = burst.into_iter().map(|t| t.join().unwrap()).collect();

    let mut oks = 0;
    let mut sheds = 0;
    for response in &responses {
        match error_kind_of(response) {
            None => {
                let json = Json::parse(response).unwrap();
                assert_eq!(
                    json.get("minimized").and_then(Json::as_str),
                    Some(expected.as_str()),
                    "an admitted request answered a WRONG minimization: {response}"
                );
                oks += 1;
            }
            Some(kind) => {
                assert_eq!(kind, "overloaded", "sheds must be typed overloaded: {response}");
                let hint = Json::parse(response)
                    .unwrap()
                    .get("error")
                    .and_then(|e| e.get("retry_after_ms"))
                    .and_then(Json::as_i64);
                assert!(hint.is_some_and(|ms| ms >= 1), "shed without retry hint: {response}");
                sheds += 1;
            }
        }
    }
    // Exact arithmetic: the plug holds inflight slot 1, one burst request
    // takes slot 2 (the bound), the other five observe a full queue.
    assert_eq!(oks, 1, "exactly one burst request fits the queue: {responses:?}");
    assert_eq!(sheds, BURST - 1);

    // The plug itself answers a typed budget error — the guard tripped.
    let mut plug_response = String::new();
    plug_conn.read_line(&mut plug_response).unwrap();
    assert_eq!(error_kind_of(plug_response.trim_end()).as_deref(), Some("budget"));

    // Same storm again, but through retrying clients: everyone succeeds
    // once the plug drains, and nobody gets a wrong answer.
    let mut plug_conn = connect(addr);
    writeln!(plug_conn.get_mut(), "{}", request_line(&plug, "", Some(150))).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    // The first storm memoized small_q: the reactor answers it from the
    // memo without the plugged worker.
    let hit = Json::parse(&round_trip(&mut connect(addr), &request_line(small_q, "", None)))
        .expect("response JSON");
    assert_eq!(hit.get("minimized").and_then(Json::as_str), Some(expected.as_str()), "{hit:?}");
    let cache_hit = hit.get("stats").and_then(|s| s.get("cache_hit")).and_then(Json::as_bool);
    assert_eq!(cache_hit, Some(true), "{hit:?}");
    // So each retrying client sends a query of its own that no one has
    // sent before: a miss, which needs the plugged worker.
    let retried: Vec<_> = (0..BURST)
        .map(|i| {
            let query = format!("ChaosShedA*[/ChaosShedR{i}][/ChaosShedR{i}][//ChaosShedC]");
            let expected = expected_minimization(&query, "");
            let req = Json::object(vec![("query", Json::Str(query))]);
            std::thread::spawn(move || {
                let mut client = Client::new(
                    addr.to_string(),
                    RetryPolicy {
                        retries: 10,
                        backoff_ms: 30,
                        seed: 42 + i as u64,
                        ..RetryPolicy::default()
                    },
                );
                (client.query(&req).expect("retrying client must eventually succeed"), expected)
            })
        })
        .collect();
    let mut retried_more_than_once = 0;
    for t in retried {
        let (outcome, expected) = t.join().unwrap();
        assert_eq!(outcome.minimized, expected);
        if outcome.attempts > 1 {
            retried_more_than_once += 1;
        }
    }
    assert!(
        retried_more_than_once >= 1,
        "with the worker plugged, at least one client must have been shed and retried"
    );

    // Server-side accounting agrees.
    let mut conn = connect(addr);
    let stats = Json::parse(&round_trip(&mut conn, "STATS")).unwrap();
    let shed = stats.get("shed").expect("shed block in STATS");
    assert!(shed.get("queue_full").and_then(Json::as_i64).unwrap() >= sheds as i64);
    assert_eq!(shed.get("queue_limit").and_then(Json::as_i64), Some(2));

    handle.shutdown();
    let summary = thread.join().unwrap();
    assert!(summary.requests_shed >= sheds as u64);
    clear_shared_caches();
}

/// The armed `serve.shed` failpoint forces one `injected` refusal; a
/// retrying client absorbs it (`injected` is retryable) and the refusal
/// is counted under its own reason.
#[test]
fn injected_shed_is_typed_and_retried() {
    let _guard = lock();
    clear_shared_caches();
    let (addr, handle, thread) = start(ServeConfig { jobs: 1, ..ServeConfig::default() });
    let fp = failpoint::arm("serve.shed", Action::Err, 1);
    let req = Json::object(vec![("query", Json::Str("ChaosInjA*[/ChaosInjB][/ChaosInjB]".into()))]);
    let mut client = Client::new(
        addr.to_string(),
        RetryPolicy { retries: 3, backoff_ms: 10, seed: 7, ..RetryPolicy::default() },
    );
    let outcome = client.query(&req).expect("client retries through the injected shed");
    drop(fp);
    assert_eq!(outcome.attempts, 2, "first attempt injected, second served");
    assert_eq!(outcome.minimized, expected_minimization("ChaosInjA*[/ChaosInjB][/ChaosInjB]", ""));

    let mut conn = connect(addr);
    let stats = Json::parse(&round_trip(&mut conn, "STATS")).unwrap();
    assert_eq!(stats.get("shed").and_then(|s| s.get("injected")).and_then(Json::as_i64), Some(1));
    handle.shutdown();
    thread.join().unwrap();
    clear_shared_caches();
}

/// Satellite (a), the drain contract: requests already buffered behind a
/// `SHUTDOWN` are answered with typed errors — counted as drain sheds —
/// never silently dropped with the socket.
#[test]
fn drain_answers_every_buffered_request_with_a_typed_error() {
    let _guard = lock();
    clear_shared_caches();
    let (addr, _handle, thread) = start(ServeConfig { jobs: 1, ..ServeConfig::default() });

    let q = "ChaosDrainA*[/ChaosDrainB][/ChaosDrainB]";
    let expected = expected_minimization(q, "");
    let mut conn = connect(addr);
    // One write: a request, the shutdown, then two more requests the
    // server will already have buffered when it processes SHUTDOWN.
    let payload = format!(
        "{}\nSHUTDOWN\n{}\n{}\n",
        request_line(q, "", None),
        request_line(q, "", None),
        request_line(q, "", None)
    );
    conn.get_mut().write_all(payload.as_bytes()).unwrap();

    let mut lines = Vec::new();
    let mut line = String::new();
    while conn.read_line(&mut line).unwrap() > 0 {
        lines.push(line.trim_end().to_owned());
        line.clear();
    }
    assert_eq!(lines.len(), 4, "request + ack + two drain errors, got {lines:?}");
    assert_eq!(
        Json::parse(&lines[0]).unwrap().get("minimized").and_then(Json::as_str),
        Some(expected.as_str()),
        "the pre-shutdown request is served normally"
    );
    assert!(lines[1].contains("\"draining\":true"), "{}", lines[1]);
    for drained in &lines[2..] {
        assert_eq!(error_kind_of(drained).as_deref(), Some("overloaded"), "{drained}");
        assert!(drained.contains("draining"), "{drained}");
    }

    let summary = thread.join().unwrap();
    assert_eq!(summary.requests_ok, 1);
    assert!(summary.requests_shed >= 2, "both buffered requests counted as drain sheds");
    clear_shared_caches();
}

/// The full chaos cycle: kill a snapshotting server mid-traffic, restart
/// it from the snapshot on the same port, and assert (1) every retrying
/// client survives the restart with a correct answer, and (2) the
/// restored server answers the old working set from its memo — cache
/// hits where a cold start would miss.
#[test]
fn kill_and_restore_mid_traffic_keeps_clients_whole_and_the_cache_warm() {
    let _guard = lock();
    clear_shared_caches();
    let snap = std::env::temp_dir()
        .join(format!("tpq-chaos-tests-{}", std::process::id()))
        .join("kill-restore.json");
    std::fs::create_dir_all(snap.parent().unwrap()).unwrap();
    let _ = std::fs::remove_file(&snap);

    const QUERIES: usize = 12;
    let constraints = "ChaosKrA -> ChaosKrC";
    let queries: Vec<String> =
        (0..QUERIES).map(|i| format!("ChaosKrA*[/ChaosKrB{i}][/ChaosKrB{i}][/ChaosKrC]")).collect();
    let expected: Vec<String> =
        queries.iter().map(|q| expected_minimization(q, constraints)).collect();

    let (addr, handle, thread) =
        start(ServeConfig { jobs: 2, snapshot: Some(snap.clone()), ..ServeConfig::default() });

    // Wave 1 warms the memo through real traffic.
    let mut warm_client = Client::new(addr.to_string(), RetryPolicy::default());
    for (q, want) in queries.iter().zip(&expected) {
        let req = Json::object(vec![
            ("query", Json::Str(q.clone())),
            ("constraints", Json::Str(constraints.to_owned())),
        ]);
        assert_eq!(&warm_client.query(&req).expect("warm-up").minimized, want);
    }

    // Wave 2 is mid-flight when the server dies: clients must retry
    // through drain sheds, connection refusals while the port is down,
    // and the restart — and still get correct answers.
    let wave2: Vec<_> = (0..QUERIES)
        .map(|i| {
            let q = queries[i].clone();
            let want = expected[i].clone();
            let addr = addr.to_string();
            std::thread::spawn(move || {
                let req = Json::object(vec![
                    ("query", Json::Str(q)),
                    ("constraints", Json::Str("ChaosKrA -> ChaosKrC".to_owned())),
                ]);
                let mut client = Client::new(
                    addr,
                    RetryPolicy {
                        retries: 40,
                        backoff_ms: 25,
                        max_backoff_ms: 400,
                        seed: 1000 + i as u64,
                        ..RetryPolicy::default()
                    },
                );
                let outcome = client.query(&req).expect("client must survive the restart");
                assert_eq!(outcome.minimized, want, "wrong answer across the restart");
                outcome.attempts
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(3));
    handle.shutdown();
    let summary = thread.join().unwrap();
    assert_eq!(summary.snapshot_written.as_deref(), Some(snap.as_path()));

    // Simulate the process restart: cold caches, then a server restored
    // from the snapshot, bound to the SAME port the clients are retrying.
    clear_shared_caches();
    let server = {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Server::bind(ServeConfig {
                addr: addr.to_string(),
                jobs: 2,
                restore: Some(snap.clone()),
                ..ServeConfig::default()
            }) {
                Ok(server) => break server,
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => panic!("could not rebind {addr}: {e}"),
            }
        }
    };
    let status = server.handle().restore_status().clone();
    assert_eq!(status.outcome, "restored");
    assert!(
        status.stats.patterns >= QUERIES,
        "snapshot must carry the whole warmed working set ({} < {QUERIES})",
        status.stats.patterns
    );
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run().expect("restored server run"));

    for t in wave2 {
        t.join().expect("wave-2 client panicked");
    }

    // The restored-beats-cold invariant, per request: replaying the old
    // working set hits the restored memo on the FIRST touch.
    let mut replay = Client::new(addr.to_string(), RetryPolicy::default());
    for (q, want) in queries.iter().zip(&expected) {
        let req = Json::object(vec![
            ("query", Json::Str(q.clone())),
            ("constraints", Json::Str(constraints.to_owned())),
        ]);
        let outcome = replay.query(&req).expect("replay");
        assert_eq!(&outcome.minimized, want);
        assert!(outcome.cache_hit, "restored server must answer {q} from the memo");
    }

    handle.shutdown();
    thread.join().unwrap();
    let _ = std::fs::remove_file(&snap);
    clear_shared_caches();
}
