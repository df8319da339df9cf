//! The serve-concurrency panel: request latency under a herd of idle
//! connections, plus the cost of accepting the herd itself.
//!
//! The serve-latency panel measures the request path when every client is
//! busy; this one measures what PR 9's epoll reactor is for — whether a
//! large population of *idle* connections taxes the request path. The
//! panel boots one loopback [`tpq_serve::Server`], and for each herd size
//! opens that many connections which then sit silent, measures the ramp
//! (accept cost per connection, epoll registration included), and then
//! round-trips a batch of minimization requests on one fresh connection,
//! reporting p50/p99 exactly like `serve-latency` does (client-side
//! log-scale [`tpq_obs::Histogram`], so the numbers quantize like the
//! METRICS exposition).
//!
//! A thread-per-connection server degrades linearly in the herd size (one
//! OS thread per idle socket); an epoll reactor should hold the request
//! quantiles flat. The herd sizes adapt to `RLIMIT_NOFILE` — the bench
//! process pays two fds per herd member (client end + accepted end), so
//! on a constrained runner the grid shrinks instead of dying on EMFILE.

use crate::{experiments::ExpConfig, Panel, Point, Series};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;
use tpq_obs::Histogram;
use tpq_serve::{ServeConfig, Server};

/// Herd sizes (idle connections held while measuring) for full runs.
const HERD_FULL: [u64; 3] = [256, 1024, 4096];

/// Herd sizes for `--quick` (CI) runs.
const HERD_QUICK: [u64; 3] = [64, 128, 256];

/// Measured round trips per herd size (after one unmeasured warmup).
fn round_trips(cfg: &ExpConfig) -> usize {
    if cfg.quick {
        60
    } else {
        200
    }
}

/// Largest herd this process can afford: two fds per member (client end
/// plus the server's accepted end), with headroom for the harness. Zero
/// off Linux, where `tpq serve` does not run.
fn herd_budget() -> u64 {
    #[cfg(target_os = "linux")]
    if let Some((soft, _)) = tpq_base::fd::nofile_limit() {
        return soft.saturating_sub(128) / 2;
    }
    0
}

/// Request-latency quantiles and per-connection accept cost vs the number
/// of idle connections concurrently held by the server.
pub fn serve_concurrency(cfg: &ExpConfig) -> Panel {
    let sizes: Vec<u64> = if cfg.quick { HERD_QUICK } else { HERD_FULL }
        .into_iter()
        .filter(|n| *n <= herd_budget())
        .collect();
    assert!(!sizes.is_empty(), "fd limit too low (or unknown) for even the smallest herd");
    // The same request every time: after the first round trip the shared
    // engine answers from its canonical-pattern cache, so the panel
    // measures the socket path under load, not minimization CPU.
    let request = r#"{"query": "Book*[/Title][/Publisher]", "constraints": "Book -> Publisher"}"#;

    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs: 2,
        max_conns: (*sizes.last().unwrap() + 16) as usize,
        handle_signals: false,
        ..ServeConfig::default()
    })
    .expect("bind loopback serve port");
    let addr = server.local_addr().expect("bound server has an address");
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run());

    // One unmeasured round trip before any ramp: the first request ever
    // pays server-thread boot and lazy engine setup, which would land on
    // the smallest herd's accept series otherwise.
    {
        let warm = TcpStream::connect(addr).expect("warmup connection");
        let mut reader = BufReader::new(warm.try_clone().expect("clone socket"));
        (&warm).write_all(b"PING\n").expect("send warmup ping");
        let mut pong = String::new();
        reader.read_line(&mut pong).expect("read warmup pong");
    }

    let mut accept_us = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    for &n in &sizes {
        // Ramp: n connections that connect and then never speak. Paced in
        // chunks below the listener's backlog — a full-speed ramp
        // overflows the SYN queue and the kernel's ~1s retransmit would
        // swamp the accept cost we want to measure. The PING barrier on
        // the newest socket proves the reactor accepted the whole chunk
        // (accepts are FIFO), so the measured cost covers accept +
        // nonblocking setup + epoll registration, amortized per
        // connection.
        let t0 = Instant::now();
        let mut herd: Vec<TcpStream> = Vec::with_capacity(n as usize);
        for chunk in 0..n.div_ceil(64) {
            for i in 0..64.min(n - chunk * 64) {
                herd.push(TcpStream::connect(addr).unwrap_or_else(|e| {
                    panic!("herd conn {}: {e}", chunk * 64 + i);
                }));
            }
            let mut barrier = herd.last().expect("non-empty chunk");
            let mut reader = BufReader::new(barrier.try_clone().expect("clone socket"));
            barrier.write_all(b"PING\n").expect("chunk barrier ping");
            let mut pong = String::new();
            reader.read_line(&mut pong).expect("chunk barrier pong");
        }
        accept_us.push(Point::flat(n, t0.elapsed().as_micros() as f64 / n as f64));

        let stream = TcpStream::connect(addr).expect("measuring connection");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
        let mut writer = stream;
        let mut response = String::new();
        writer.write_all(b"PING\n").expect("send warmup ping");
        reader.read_line(&mut response).expect("read warmup pong");
        let hist = Histogram::default();
        let framed = format!("{request}\n");
        for _ in 0..round_trips(cfg) {
            let t0 = Instant::now();
            writer.write_all(framed.as_bytes()).expect("send request");
            response.clear();
            reader.read_line(&mut response).expect("read response");
            hist.record(t0.elapsed().as_micros() as u64);
            assert!(response.contains("\"minimized\""), "bad response: {response}");
        }
        p50.push(Point::flat(n, hist.quantile(0.50) as f64));
        p99.push(Point::flat(n, hist.quantile(0.99) as f64));
        drop(herd);
    }

    handle.shutdown();
    let summary = server_thread.join().expect("server thread").expect("server run");
    assert!(summary.requests_ok >= (round_trips(cfg) * sizes.len()) as u64);

    Panel {
        id: "serve-concurrency".into(),
        title: "tpq serve: request latency and accept cost vs idle connections held".into(),
        x_label: "Idle connections".into(),
        unit: crate::UNIT_MICROS.into(),
        series: vec![
            Series { label: "p50".into(), points: p50 },
            Series { label: "p99".into(), points: p99 },
            Series { label: "accept/conn".into(), points: accept_us },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrency_panel_measures_all_sizes() {
        let p = serve_concurrency(&ExpConfig::quick());
        assert_eq!(p.id, "serve-concurrency");
        assert_eq!(p.series.len(), 3);
        let sizes = p.series[0].points.len();
        assert!(sizes >= 1, "at least one herd size must fit the fd budget");
        for s in &p.series {
            assert_eq!(s.points.len(), sizes);
            for pt in &s.points {
                assert!(pt.micros > 0.0, "{} at {} conns measured 0us", s.label, pt.x);
            }
        }
        // p50 <= p99 at every herd size (same histogram).
        for i in 0..sizes {
            assert!(p.series[0].points[i].micros <= p.series[1].points[i].micros);
        }
    }
}
