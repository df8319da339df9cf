//! Served answers equal offline answers, on a cold `tpq serve` and again
//! after a warm restart from its snapshot.
//!
//! The patterns come from the random-pattern draws of the matcher's
//! differential battery (`crates/match/tests/differential.rs`), the
//! constraints from a small pool of random sets, and every request runs
//! under each of the four strategies. Every request is sent twice, so the
//! repeat is answered from the engine's query-text front. Every answer
//! must equal offline `minimize_closed_guarded` on the closed set, and a
//! repeat must be a hit with the first answer's text. "Equal" is up to
//! isomorphism: the server's memo answers a query with the minimization
//! of the first isomorphic query it saw, whose siblings may print in a
//! different order (minimal queries are unique up to isomorphism,
//! Theorem 5.1).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;
use tpq::base::{Json, SmallRng};
use tpq::core::{minimize_closed_guarded, Strategy};
use tpq::prelude::*;
use tpq_workload::{random_constraints, random_pattern, ConstraintSpec, PatternSpec};

/// Random patterns replayed per server lifetime.
const SEEDS: u64 = 150;
/// Type universe of the constraint pool; patterns draw from 1–4 types.
const TYPES: usize = 4;
const STRATEGIES: [&str; 4] = ["full", "cim", "acim", "cdm"];

/// A uniform probability in `[0, 1)`, drawn as the differential battery
/// draws it.
fn prob(rng: &mut SmallRng) -> f64 {
    rng.gen_range(0..1000u32) as f64 / 1000.0
}

/// One request: the constraint set's index in the pool, then the query,
/// the constraints and the strategy, all as text.
type Request = (usize, String, String, &'static str);

/// The requests, grouped by constraint set. Four sets (the empty one and
/// three random ones) under four strategies make 16 shared engines, twice
/// the server's engine cache: the snapshot holds the engines of the sets
/// replayed last, and the restored server rebuilds the others.
fn requests() -> Vec<Request> {
    let mut types = TypeInterner::new();
    for i in 0..TYPES {
        types.intern(&format!("t{i}"));
    }
    let pool: Vec<String> = (0..4u64)
        .map(|k| {
            let count = if k == 0 { 0 } else { 2 + 2 * k as usize };
            let ics = random_constraints(&ConstraintSpec { count, num_types: TYPES, seed: k });
            ics.iter().map(|c| c.to_string()).collect::<Vec<_>>().join("\n")
        })
        .collect();
    let mut out = Vec::new();
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
        let num_types = rng.gen_range(1..5usize);
        let q = random_pattern(&PatternSpec {
            nodes: rng.gen_range(1..9),
            num_types,
            d_edge_prob: prob(&mut rng),
            max_fanout: rng.gen_range(1..4),
            seed,
        });
        let query = to_dsl(&q, &types);
        let set = seed as usize % pool.len();
        for strategy in STRATEGIES {
            out.push((set, query.clone(), pool[set].clone(), strategy));
        }
    }
    out.sort_by_key(|r| r.0);
    out
}

/// Offline ground truth for one request.
fn offline(query: &str, ics: &str, strategy: &str, types: &mut TypeInterner) -> TreePattern {
    let closed = parse_constraints(ics, types).unwrap().closure();
    let q = parse_pattern(query, types).unwrap();
    let strategy = strategy.parse::<Strategy>().unwrap();
    minimize_closed_guarded(&q, &closed, strategy, &Guard::unlimited()).unwrap().pattern
}

/// Start `tpq serve` on an ephemeral port with `extra` flags.
fn serve(extra: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_tpq"))
        .args(["serve", "--addr", "127.0.0.1:0", "--jobs", "2"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve starts")
}

/// The server's bound address and the banner lines printed before it.
fn banner(child: &mut Child) -> (String, Vec<String>) {
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut banner = Vec::new();
    loop {
        let mut line = String::new();
        assert!(stdout.read_line(&mut line).unwrap() > 0, "serve exited early: {banner:?}");
        if let Some(addr) = line.trim().strip_prefix("listening on ") {
            return (addr.to_owned(), banner);
        }
        banner.push(line.trim().to_owned());
    }
}

/// Replay `requests` on one connection, each twice in a row, check each
/// answer against the offline one and each repeat against the first
/// answer, then shut the server down. Returns the memo hits among the
/// first sends.
fn replay_and_check(requests: &[Request], addr: &str, child: &mut Child, label: &str) -> usize {
    let stream = TcpStream::connect(addr).expect("connect to serve");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut conn = BufReader::new(stream);
    let mut round_trip = |line: &str| -> Json {
        conn.get_mut().write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut response = String::new();
        conn.read_line(&mut response).unwrap();
        Json::parse(response.trim_end()).unwrap_or_else(|e| panic!("{label}: {e}: {response}"))
    };
    let mut types = TypeInterner::new();
    let mut hits = 0;
    for (_, query, ics, strategy) in requests {
        let request = Json::object(vec![
            ("query", Json::Str(query.clone())),
            ("constraints", Json::Str(ics.clone())),
            ("strategy", Json::Str(strategy.to_string())),
        ]);
        let line = request.to_string_compact();
        let response = round_trip(&line);
        let ctx = format!("{label} {strategy} {query:?} under {ics:?}: {response:?}");
        let text = response.get("minimized").and_then(Json::as_str).expect(&ctx);
        let served = parse_pattern(text, &mut types).expect(&ctx);
        let want = offline(query, ics, strategy, &mut types);
        assert!(isomorphic(&served, &want), "{ctx}, offline {}", to_dsl(&want, &types));
        let cache_hit = |response: &Json| {
            response.get("stats").and_then(|s| s.get("cache_hit")).and_then(Json::as_bool)
        };
        hits += usize::from(cache_hit(&response).expect(&ctx));
        let repeat = round_trip(&line);
        let ctx = format!("{ctx}, repeated: {repeat:?}");
        assert_eq!(repeat.get("minimized").and_then(Json::as_str), Some(text), "{ctx}");
        assert_eq!(cache_hit(&repeat), Some(true), "{ctx}");
    }
    writeln!(conn.get_mut(), "SHUTDOWN").unwrap();
    assert!(child.wait().expect("serve exits").success(), "{label}: serve should exit 0");
    let mut err = String::new();
    child.stderr.take().unwrap().read_to_string(&mut err).unwrap();
    assert!(err.contains("0 failed"), "{label}: {err}");
    hits
}

#[test]
fn served_answers_equal_offline_answers_cold_and_after_a_restore() {
    let dir = std::env::temp_dir().join(format!("tpq-served-answers-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = dir.join("snapshot.json");
    let snapshot_arg = snapshot.to_str().unwrap();
    let mut requests = requests();
    let total = requests.len();

    let mut cold = serve(&["--snapshot", snapshot_arg]);
    let (addr, _) = banner(&mut cold);
    let cold_hits = replay_and_check(&requests, &addr, &mut cold, "cold");
    assert!(Path::new(&snapshot).exists(), "the drain wrote a snapshot");
    assert!(cold_hits < total / 4, "a cold server computes its answers ({cold_hits} hits)");

    // Replay the sets in reverse: the ones the snapshot holds come first
    // and hit its memo, the rest rebuild their engines.
    requests.sort_by_key(|r| std::cmp::Reverse(r.0));
    let mut warm = serve(&["--restore", snapshot_arg]);
    let (addr, restored) = banner(&mut warm);
    assert!(restored.iter().any(|l| l.starts_with("restored snapshot:")), "{restored:?}");
    let warm_hits = replay_and_check(&requests, &addr, &mut warm, "restored");
    assert!(warm_hits >= total / 2, "restored memo answered {warm_hits} of {total}");
    assert!(warm_hits < total, "some engines were evicted and rebuilt");
    std::fs::remove_dir_all(&dir).ok();
}
