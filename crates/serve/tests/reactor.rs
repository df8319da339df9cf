//! Edge-case tests for the epoll reactor (Linux-only): framing across
//! partial reads, pipelining order under out-of-order pool completion,
//! and write-queue backpressure isolation.
//!
//! The general protocol battery in `server.rs` already runs against the
//! reactor; this file covers the behaviors only an event loop can get
//! wrong.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
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

fn minimized_of(response: &str) -> String {
    let json = tpq_base::Json::parse(response).expect("response JSON");
    json.get("minimized")
        .and_then(tpq_base::Json::as_str)
        .unwrap_or_else(|| panic!("no 'minimized' in {response}"))
        .to_owned()
}

#[test]
fn partial_lines_reassemble_across_wakeups() {
    // One request delivered in five separate writes with pauses between
    // them: each write lands as its own epoll edge, none of them ends in
    // a newline until the last, and the reactor must buffer the partial
    // frame without answering or closing.
    let (addr, handle, thread) = start(ServeConfig::default());
    let mut conn = connect(addr);
    let request = r#"{"query": "Book*[/Title][/Publisher]", "constraints": "Book -> Publisher"}"#;
    let bytes = format!("{request}\n").into_bytes();
    for chunk in bytes.chunks(bytes.len() / 4) {
        conn.get_mut().write_all(chunk).expect("write chunk");
        conn.get_mut().flush().unwrap();
        std::thread::sleep(Duration::from_millis(30));
    }
    let mut response = String::new();
    conn.read_line(&mut response).expect("read");
    assert_eq!(minimized_of(response.trim_end()), "Book*/Title");

    // A second split request on the same connection still frames right.
    let (a, b) = request.split_at(10);
    conn.get_mut().write_all(a.as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    conn.get_mut().write_all(b.as_bytes()).unwrap();
    conn.get_mut().write_all(b"\n").unwrap();
    let mut response = String::new();
    conn.read_line(&mut response).expect("read");
    assert_eq!(minimized_of(response.trim_end()), "Book*/Title");

    drop(conn);
    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn pipelined_responses_come_back_in_request_order() {
    // 40 distinct requests in ONE write, against several pool workers:
    // completions can finish in any order, but the sequence machinery
    // must deliver responses in request order.
    let (addr, handle, thread) = start(ServeConfig { jobs: 4, ..ServeConfig::default() });
    let mut conn = connect(addr);
    let mut batch = String::new();
    for i in 0..40 {
        // Distinct unminimizable queries: the response echoes the type
        // name, which is what we key the order check on.
        batch.push_str(&format!("{{\"query\": \"Q{i}*/R{i}\"}}\n"));
    }
    conn.get_mut().write_all(batch.as_bytes()).expect("write batch");
    for i in 0..40 {
        let mut response = String::new();
        conn.read_line(&mut response).expect("read");
        let minimized = minimized_of(response.trim_end());
        assert_eq!(minimized, format!("Q{i}*/R{i}"), "response {i} out of order");
    }
    drop(conn);
    handle.shutdown();
    let summary = thread.join().unwrap();
    assert_eq!(summary.requests_ok, 40);
}

#[test]
fn slow_reader_trips_backpressure_without_stalling_others() {
    // Client A floods verbs that produce output but never reads, until
    // the server's write queue for that one connection crosses the high
    // water mark and input processing pauses. Client B must still get
    // prompt answers, and must be able to observe the stall counter.
    // Afterwards A drains everything and every response is intact.
    let (addr, handle, thread) = start(ServeConfig::default());
    let mut slow = connect(addr);
    const FLOOD: usize = 3000;
    let mut batch = String::new();
    for _ in 0..FLOOD {
        batch.push_str("METRICS\n");
    }
    slow.get_mut().write_all(batch.as_bytes()).expect("write flood");

    // Give the reactor a moment to fill A's socket and its write queue.
    let mut fast = connect(addr);
    let t0 = Instant::now();
    let stalled = loop {
        writeln!(fast.get_mut(), "METRICS").unwrap();
        let mut stalls: Option<u64> = None;
        loop {
            let mut line = String::new();
            fast.read_line(&mut line).expect("fast read");
            if line.starts_with("# EOF") {
                break;
            }
            if let Some(v) = line.trim_end().strip_prefix("tpq_serve_backpressure_stalls_total ") {
                stalls = v.parse().ok();
            }
        }
        match stalls {
            Some(n) if n > 0 => break n,
            _ if t0.elapsed() > Duration::from_secs(20) => break 0,
            _ => std::thread::sleep(Duration::from_millis(25)),
        }
    };
    assert!(stalled > 0, "write queue never hit the high-water mark");
    // The fast client kept getting full expositions while A was stalled
    // (the loop above would have timed out otherwise). Now drain A: once
    // it reads, the queue empties, processing resumes, and all FLOOD
    // expositions arrive, each correctly framed.
    let mut eofs = 0usize;
    let mut line = String::new();
    while eofs < FLOOD {
        line.clear();
        slow.read_line(&mut line).expect("slow drain");
        assert!(!line.is_empty(), "connection closed early after {eofs} expositions");
        if line.starts_with("# EOF") {
            eofs += 1;
        }
    }
    drop(slow);
    drop(fast);
    handle.shutdown();
    thread.join().unwrap();
}

#[test]
fn eof_with_responses_in_flight_still_answers_nothing_lost() {
    // Write pipelined requests and immediately shut down the sending
    // half: the reactor sees EOF while pool work is outstanding, and
    // must flush every response before closing.
    let (addr, handle, thread) = start(ServeConfig { jobs: 2, ..ServeConfig::default() });
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut batch = String::new();
    for i in 0..8 {
        batch.push_str(&format!("{{\"query\": \"E{i}*/F{i}\"}}\n"));
    }
    (&stream).write_all(batch.as_bytes()).expect("write");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut reader = BufReader::new(stream);
    let mut responses = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).expect("read") == 0 {
            break; // server closed after flushing
        }
        responses.push(line.trim_end().to_owned());
    }
    assert_eq!(responses.len(), 8, "every pipelined request answered before close");
    for (i, response) in responses.iter().enumerate() {
        assert_eq!(minimized_of(response), format!("E{i}*/F{i}"));
    }
    handle.shutdown();
    thread.join().unwrap();
}
