//! The serve-degradation panel: how gracefully `tpq serve` degrades
//! under overload, and how much a warm-restart snapshot buys at boot.
//!
//! Four series, all in percent (higher is better), all against live
//! loopback servers:
//!
//! * **cold-hit** — engine-memo hit rate per replay round of a Zipf
//!   request mix, starting from empty caches: round 1 earns only the
//!   mix's duplicate rate, later rounds converge to 100%.
//! * **restored-hit** — the same replay after a snapshot → clear →
//!   restore cycle: round 1 starts at (not climbs to) 100%, which is the
//!   measurable payoff of `--snapshot` / `--restore`.
//! * **shed-rate** — percent of an 8-request burst shed while one plug
//!   request holds the single worker, versus the admission-queue depth.
//!   The arithmetic is deterministic: a queue of depth *q* admits the
//!   plug plus `q - 1` burst requests, shedding `8 - (q - 1)`.
//! * **p99-retention** — `100 · p99(1 client) / p99(c clients)` over a
//!   cache-warm mix: how much tail latency survives added concurrency
//!   (100 = no degradation). Encoding the ratio baseline-over-candidate
//!   keeps "higher is better", matching the percent unit's compare
//!   direction.

use crate::{experiments::ExpConfig, Panel, Point, Series};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpq_base::Json;
use tpq_obs::Histogram;
use tpq_serve::{global_types, restore_snapshot, write_snapshot, ServeConfig, Server};
use tpq_workload::{zipf_request_mix, MixSpec};

/// Replay rounds for the warmup curves.
const ROUNDS: u64 = 3;
/// Admission-queue depths for the shed series.
const DEPTHS: [u64; 3] = [1, 2, 4];
/// Burst size for the shed series.
const BURST: usize = 8;
/// Client counts for the p99-retention series.
const CLIENTS: [u64; 3] = [1, 2, 4];

/// Boot a loopback server and return its pieces.
fn boot(config: ServeConfig) -> (SocketAddr, tpq_serve::ServeHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServeConfig { addr: "127.0.0.1:0".to_owned(), ..config })
        .expect("bind loopback serve port");
    let addr = server.local_addr().expect("bound server has an address");
    let handle = server.handle();
    let thread = std::thread::spawn(move || {
        server.run().expect("bench server run");
    });
    (addr, handle, thread)
}

fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect to bench server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let reader = BufReader::new(stream.try_clone().expect("clone socket"));
    (reader, stream)
}

/// Replay `lines` once on one connection; return `(hits, total)` from the
/// per-response `stats.cache_hit` field.
fn replay_counting_hits(addr: SocketAddr, lines: &[String]) -> (u64, u64) {
    let (mut reader, mut writer) = connect(addr);
    let mut hits = 0;
    let mut response = String::new();
    for line in lines {
        writeln!(writer, "{line}").expect("send request");
        response.clear();
        reader.read_line(&mut response).expect("read response");
        let json = Json::parse(response.trim_end()).expect("response is JSON");
        assert!(json.get("error").is_none(), "mix request rejected: {response}");
        if json.get("stats").and_then(|s| s.get("cache_hit")).and_then(Json::as_bool) == Some(true)
        {
            hits += 1;
        }
    }
    (hits, lines.len() as u64)
}

/// Hit-rate percent per round of replaying `lines` against a fresh
/// server over the process-wide caches *as they currently are*.
fn hit_rate_rounds(lines: &[String]) -> Vec<Point> {
    let (addr, handle, thread) = boot(ServeConfig { jobs: 2, ..ServeConfig::default() });
    let points = (1..=ROUNDS)
        .map(|round| {
            let (hits, total) = replay_counting_hits(addr, lines);
            Point::flat(round, 100.0 * hits as f64 / total as f64)
        })
        .collect();
    handle.shutdown();
    thread.join().expect("server thread");
    points
}

/// A pattern far too large to minimize inside its 150ms deadline: sent to
/// a `jobs = 1` server it occupies the only worker for the whole
/// deadline, then answers a typed `budget` error.
fn plug_line() -> String {
    let chain: String = (0..30).map(|d| format!("/DegPlugT{}", d % 8)).collect();
    let mut q = "DegPlugRoot*".to_owned();
    for _ in 0..60 {
        q.push('[');
        q.push_str(&chain);
        q.push(']');
    }
    Json::object(vec![("query", Json::Str(q)), ("deadline_ms", Json::Int(150))]).to_string_compact()
}

/// Shed percent of an [`BURST`]-request burst at one queue depth.
fn shed_rate_at_depth(depth: u64) -> f64 {
    // Each depth starts cold: a probe memoized at an earlier depth would
    // be a memo hit, answered on the reactor thread without queueing.
    tpq_core::clear_shared_caches();
    let (addr, handle, thread) =
        boot(ServeConfig { jobs: 1, queue_depth: depth as usize, ..ServeConfig::default() });
    // Plug the worker, give the server a beat to start executing it...
    let (mut plug_reader, mut plug_writer) = connect(addr);
    writeln!(plug_writer, "{}", plug_line()).expect("send plug");
    std::thread::sleep(Duration::from_millis(50));
    // ...then burst concurrently and count the typed sheds.
    let probe =
        Json::object(vec![("query", Json::Str("DegShedA*[/DegShedB][/DegShedB]".to_owned()))])
            .to_string_compact();
    let shed = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..BURST)
            .map(|_| {
                let probe = &probe;
                scope.spawn(move || {
                    let (mut reader, mut writer) = connect(addr);
                    writeln!(writer, "{probe}").expect("send probe");
                    let mut response = String::new();
                    reader.read_line(&mut response).expect("read probe response");
                    let json = Json::parse(response.trim_end()).expect("probe response JSON");
                    match json.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str) {
                        Some("overloaded") => true,
                        None => false,
                        Some(kind) => panic!("probe answered unexpected error kind {kind}"),
                    }
                })
            })
            .collect();
        handles.into_iter().map(false_positive_free_join).filter(|&was_shed| was_shed).count()
    });
    // Drain the plug's budget error so the connection closes cleanly.
    let mut plug_response = String::new();
    plug_reader.read_line(&mut plug_response).expect("read plug response");
    handle.shutdown();
    thread.join().expect("server thread");
    100.0 * shed as f64 / BURST as f64
}

/// Join a scoped probe thread, propagating its panic.
fn false_positive_free_join(h: std::thread::ScopedJoinHandle<'_, bool>) -> bool {
    match h.join() {
        Ok(was_shed) => was_shed,
        Err(p) => std::panic::resume_unwind(p),
    }
}

/// p99 round-trip latency of replaying warm `lines` at `clients`
/// concurrent connections.
fn p99_at(addr: SocketAddr, lines: &[String], clients: u64) -> f64 {
    let hist = Arc::new(Histogram::default());
    let chunk = lines.len().div_ceil(clients as usize);
    std::thread::scope(|scope| {
        for slice in lines.chunks(chunk) {
            let hist = Arc::clone(&hist);
            scope.spawn(move || {
                let (mut reader, mut writer) = connect(addr);
                let mut response = String::new();
                // Unmeasured warmup round trip: connection setup is not
                // request service time.
                writeln!(writer, "PING").expect("send warmup ping");
                reader.read_line(&mut response).expect("read warmup pong");
                for line in slice {
                    let t0 = Instant::now();
                    writeln!(writer, "{line}").expect("send request");
                    response.clear();
                    reader.read_line(&mut response).expect("read response");
                    hist.record(t0.elapsed().as_micros() as u64);
                }
            });
        }
    });
    hist.quantile(0.99) as f64
}

/// The serve-degradation panel. See the module docs for the four series.
pub fn serve_degradation(cfg: &ExpConfig) -> Panel {
    let mix = zipf_request_mix(&MixSpec {
        pool: 16,
        requests: if cfg.quick { 48 } else { 96 },
        skew: 1.0,
        seed: cfg.seed,
    });
    let lines: Vec<String> = mix
        .queries
        .iter()
        .map(|q| {
            Json::object(vec![
                ("query", Json::Str(q.clone())),
                ("constraints", Json::Str(mix.constraints.clone())),
            ])
            .to_string_compact()
        })
        .collect();

    // Warmup curves: cold first (empty caches), then snapshot what the
    // cold run warmed, clear, restore, and measure again.
    tpq_core::clear_shared_caches();
    let cold = hit_rate_rounds(&lines);
    let snap = std::env::temp_dir()
        .join(format!("tpq-bench-degradation-{}", std::process::id()))
        .join("warm.json");
    std::fs::create_dir_all(snap.parent().expect("snapshot dir")).expect("create snapshot dir");
    {
        let types = global_types().lock().expect("types lock");
        write_snapshot(&snap, &types).expect("write warm snapshot");
    }
    tpq_core::clear_shared_caches();
    {
        let mut types = global_types().lock().expect("types lock");
        restore_snapshot(&snap, &mut types).expect("restore warm snapshot");
    }
    let restored = hit_rate_rounds(&lines);
    let _ = std::fs::remove_file(&snap);

    // Load shedding: deterministic shed arithmetic per queue depth.
    let shed_points: Vec<Point> =
        DEPTHS.iter().map(|&d| Point::flat(d, shed_rate_at_depth(d))).collect();

    // Tail-latency retention vs concurrency over the (now warm) mix.
    let (addr, handle, thread) = boot(ServeConfig { jobs: 2, ..ServeConfig::default() });
    let (_, _) = replay_counting_hits(addr, &lines); // ensure warm
    let baseline = p99_at(addr, &lines, 1).max(1.0);
    let mut retention_points = vec![Point::flat(1, 100.0)];
    for &c in &CLIENTS[1..] {
        retention_points.push(Point::flat(c, 100.0 * baseline / p99_at(addr, &lines, c).max(1.0)));
    }
    handle.shutdown();
    thread.join().expect("server thread");

    Panel {
        id: "serve-degradation".into(),
        title: "tpq serve under stress: warmup hit rates (cold vs restored), shed rate vs \
                queue depth, p99 retention vs clients"
            .into(),
        x_label: "Round / queue depth / clients".into(),
        unit: crate::UNIT_PERCENT.into(),
        series: vec![
            Series { label: "cold-hit".into(), points: cold },
            Series { label: "restored-hit".into(), points: restored },
            Series { label: "shed-rate".into(), points: shed_points },
            Series { label: "p99-retention".into(), points: retention_points },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degradation_panel_shapes_and_invariants() {
        let _guard = crate::global_cache_test_lock();
        let p = serve_degradation(&ExpConfig::quick());
        assert_eq!(p.id, "serve-degradation");
        assert_eq!(p.unit, crate::UNIT_PERCENT);
        assert_eq!(p.series.len(), 4);
        let by_label = |label: &str| {
            p.series.iter().find(|s| s.label == label).unwrap_or_else(|| panic!("{label}"))
        };

        // The acceptance criterion of the warm-restart snapshot: the
        // restored server's FIRST round beats the cold server's.
        let cold = by_label("cold-hit");
        let restored = by_label("restored-hit");
        assert!(
            restored.points[0].micros > cold.points[0].micros,
            "restored round 1 ({:.1}%) must beat cold round 1 ({:.1}%)",
            restored.points[0].micros,
            cold.points[0].micros
        );
        assert!(
            restored.points[0].micros > 99.0,
            "a restored memo answers the whole old working set: {:.1}%",
            restored.points[0].micros
        );
        // Both curves converge once warm.
        assert!(cold.points.last().unwrap().micros > 99.0);

        // Shed arithmetic: depth q admits the plug + (q-1) probes.
        let shed = by_label("shed-rate");
        for (pt, depth) in shed.points.iter().zip(DEPTHS) {
            let expected = 100.0 * (BURST as u64 + 1 - depth) as f64 / BURST as f64;
            assert!(
                (pt.micros - expected).abs() < 1e-9,
                "depth {depth}: shed {:.1}% != expected {expected:.1}%",
                pt.micros
            );
        }

        // Retention is anchored at 100 for one client and stays positive.
        let retention = by_label("p99-retention");
        assert!((retention.points[0].micros - 100.0).abs() < 1e-9);
        for pt in &retention.points {
            assert!(pt.micros > 0.0);
        }
    }
}
