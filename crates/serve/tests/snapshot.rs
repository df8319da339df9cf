//! Robustness tests for warm-restart snapshots: round-trip of both
//! cache layers, rejection of damaged files, and atomicity of the write.
//!
//! The caches and the serve-layer interner are process-wide, so every
//! test here serializes on one mutex, uses type names unique to itself,
//! and clears the shared caches to simulate the cold half of a restart.
//! (Within one process the global interner is append-only, so the
//! restore-time identity check always passes — exactly the same reason
//! it passes for a fresh process restoring at startup.)

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};
use tpq_base::failpoint::{self, Action};
use tpq_core::{clear_shared_caches, shared_engine, Strategy};
use tpq_pattern::parse_pattern;
use tpq_serve::snapshot::SCHEMA_VERSION;
use tpq_serve::{global_types, restore_snapshot, write_snapshot, ServeConfig, Server};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|p| p.into_inner())
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tpq-snapshot-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Warm the shared caches with this test's unique types and return the
/// DSL the engine memoized.
fn warm(query: &str, constraints: &str) -> (tpq_constraints::ConstraintSet, String) {
    let mut types = global_types().lock().unwrap();
    let ics = tpq_constraints::parse_constraints(constraints, &mut types).expect("constraints");
    let q = parse_pattern(query, &mut types).expect("query");
    drop(types);
    // The one-shot path builds the shared engine (its closed set); the
    // engine path then fills the engine's canonical-pattern memo.
    let one_shot = tpq_core::minimize(&q, &ics).pattern;
    let engine = shared_engine(&ics, Strategy::default());
    let cached = engine.minimize_cached_guarded(&q, &tpq_base::Guard::unlimited()).unwrap().pattern;
    let types = global_types().lock().unwrap();
    assert_eq!(
        tpq_pattern::print::to_dsl(&one_shot, &types),
        tpq_pattern::print::to_dsl(&cached, &types)
    );
    (ics, tpq_pattern::print::to_dsl(&cached, &types))
}

#[test]
fn round_trip_restores_both_cache_layers() {
    let _guard = lock();
    clear_shared_caches();
    let (ics, minimized) =
        warm("SnapRtA*[/SnapRtB][/SnapRtC][//SnapRtD]", "SnapRtA -> SnapRtC\nSnapRtA ->> SnapRtD");

    let path = temp_path("round-trip.json");
    let stats = {
        let types = global_types().lock().unwrap();
        write_snapshot(&path, &types).expect("write")
    };
    assert_eq!(stats.engines, 1);
    assert_eq!(stats.patterns, 1);
    assert!(stats.bytes > 0 && stats.created_unix_ms > 0);

    // Cold half of the restart: every cache layer emptied.
    clear_shared_caches();
    assert!(tpq_core::export_engines().is_empty());

    let restored = {
        let mut types = global_types().lock().unwrap();
        restore_snapshot(&path, &mut types).expect("restore")
    };
    assert_eq!((restored.engines, restored.patterns), (1, 1));
    assert_eq!(restored.created_unix_ms, stats.created_unix_ms);

    // The restored engine must answer the query from the memo (a cache
    // hit) with the exact pre-restart minimization.
    let q = {
        let mut types = global_types().lock().unwrap();
        parse_pattern("SnapRtA*[/SnapRtB][/SnapRtC][//SnapRtD]", &mut types).unwrap()
    };
    let engine = shared_engine(&ics, Strategy::default());
    let out = engine.minimize_cached_guarded(&q, &tpq_base::Guard::unlimited()).unwrap();
    assert!(out.cache_hit, "restored memo must hit on the pre-restart query");
    let types = global_types().lock().unwrap();
    assert_eq!(tpq_pattern::print::to_dsl(&out.pattern, &types), minimized);
    drop(types);
    clear_shared_caches();
}

#[test]
fn damaged_snapshots_are_rejected_and_the_server_starts_cold() {
    let _guard = lock();
    clear_shared_caches();
    warm("SnapDmgA*[/SnapDmgB][/SnapDmgC]", "SnapDmgA -> SnapDmgC");
    let good = temp_path("damaged-good.json");
    {
        let types = global_types().lock().unwrap();
        write_snapshot(&good, &types).expect("write");
    }
    let text = std::fs::read_to_string(&good).unwrap();

    // Truncation (torn write the rename should have prevented).
    let truncated = temp_path("damaged-truncated.json");
    std::fs::write(&truncated, &text[..text.len() / 2]).unwrap();
    // One flipped byte inside the payload (bit rot): checksum mismatch.
    let corrupt = temp_path("damaged-corrupt.json");
    std::fs::write(&corrupt, text.replacen("SnapDmgB", "SnapDmgX", 1)).unwrap();
    // A future schema version this build does not read.
    let wrong_version = temp_path("damaged-version.json");
    let current = format!("\"schema\":{SCHEMA_VERSION}");
    assert!(text.contains(&current));
    std::fs::write(&wrong_version, text.replacen(&current, "\"schema\":99", 1)).unwrap();
    // Not JSON at all.
    let garbage = temp_path("damaged-garbage.json");
    std::fs::write(&garbage, "not json at all\n").unwrap();
    let missing = temp_path("damaged-missing.json");
    let _ = std::fs::remove_file(&missing);

    clear_shared_caches();
    for (path, needle) in [
        (&truncated, "JSON"),
        (&corrupt, "checksum"),
        (&wrong_version, "schema version 99"),
        (&garbage, "JSON"),
        (&missing, "cannot read"),
    ] {
        let err = {
            let mut types = global_types().lock().unwrap();
            restore_snapshot(path, &mut types).expect_err("must reject")
        };
        assert!(
            err.reason.contains(needle),
            "{}: reason {:?} should mention {needle:?}",
            path.display(),
            err.reason
        );
        assert!(
            tpq_core::export_engines().is_empty(),
            "a rejected restore must leave the caches untouched"
        );
    }

    // The server boots cold — never crashes — on each damaged file, and
    // reports the right outcome; a missing file is a plain cold start.
    for (path, outcome) in
        [(&corrupt, "rejected"), (&wrong_version, "rejected"), (&missing, "cold")]
    {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            jobs: 1,
            restore: Some(path.clone()),
            ..ServeConfig::default()
        })
        .expect("bind must survive a damaged snapshot");
        assert_eq!(server.handle().restore_status().outcome, outcome, "{}", path.display());
    }
    clear_shared_caches();
}

#[test]
fn snapshot_write_is_atomic_under_a_midwrite_failpoint() {
    let _guard = lock();
    clear_shared_caches();
    warm("SnapAtomA*[/SnapAtomB][/SnapAtomC]", "SnapAtomA -> SnapAtomC");
    let path = temp_path("atomic.json");
    {
        let types = global_types().lock().unwrap();
        write_snapshot(&path, &types).expect("first write");
    }
    let before = std::fs::read_to_string(&path).unwrap();

    // Second write crashes (failpoint) after the tmp file exists but
    // before the rename: the previous snapshot must survive intact and
    // no tmp debris may remain.
    let fp = failpoint::arm("snapshot.write", Action::Err, 1);
    let err = {
        let types = global_types().lock().unwrap();
        write_snapshot(&path, &types).expect_err("failpoint must surface as an error")
    };
    drop(fp);
    assert!(err.to_string().contains("injected"), "{err}");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), before, "prior snapshot intact");
    assert!(!path.with_file_name("atomic.json.tmp").exists(), "tmp file cleaned up");

    // And the surviving file still restores.
    clear_shared_caches();
    let mut types = global_types().lock().unwrap();
    restore_snapshot(&path, &mut types).expect("snapshot survived the torn write");
    drop(types);
    clear_shared_caches();
}

#[test]
fn restore_failpoint_rejects_cleanly() {
    let _guard = lock();
    clear_shared_caches();
    warm("SnapRfA*[/SnapRfB]", "");
    let path = temp_path("read-failpoint.json");
    {
        let types = global_types().lock().unwrap();
        write_snapshot(&path, &types).expect("write");
    }
    clear_shared_caches();
    let fp = failpoint::arm("snapshot.read", Action::Err, 1);
    let err = {
        let mut types = global_types().lock().unwrap();
        restore_snapshot(&path, &mut types).expect_err("armed read failpoint")
    };
    drop(fp);
    assert!(err.reason.contains("injected"), "{err}");
    // Second attempt (failpoint disarmed) succeeds — the rejection left
    // nothing broken behind.
    let mut types = global_types().lock().unwrap();
    restore_snapshot(&path, &mut types).expect("restore after disarm");
    drop(types);
    clear_shared_caches();
}

/// The `"key":"…"` value of the first memo entry in a snapshot's text.
fn first_memo_key(text: &str) -> &str {
    let start = text.find("\"key\":\"").expect("a memo entry") + "\"key\":\"".len();
    let len = text[start..].find('"').expect("closing quote");
    &text[start..start + len]
}

#[test]
fn schema_3_round_trip_serves_warm_hits_to_isomorphic_queries() {
    let _guard = lock();
    clear_shared_caches();
    let (ics, minimized) = warm("SnapV3A*[/SnapV3B][//SnapV3C][/SnapV3D]", "SnapV3A -> SnapV3D");
    let path = temp_path("schema-3.json");
    {
        let types = global_types().lock().unwrap();
        write_snapshot(&path, &types).expect("write");
    }
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(SCHEMA_VERSION, 3);
    assert!(text.starts_with("{\"schema\":3,"), "{text}");
    assert!(!text.contains("\"closures\""), "schema 3 has no closures section: {text}");
    let key = first_memo_key(&text);
    assert!(
        !key.is_empty() && key.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b)),
        "memo keys are stored as lowercase hex: {key}"
    );

    clear_shared_caches();
    let restored = {
        let mut types = global_types().lock().unwrap();
        restore_snapshot(&path, &mut types).expect("restore")
    };
    assert_eq!(restored.patterns, 1);
    // Siblings reordered: a different pattern, the same canonical key.
    let q = {
        let mut types = global_types().lock().unwrap();
        parse_pattern("SnapV3A*[/SnapV3D][/SnapV3B]//SnapV3C", &mut types).unwrap()
    };
    let out = shared_engine(&ics, Strategy::default())
        .minimize_cached_guarded(&q, &tpq_base::Guard::unlimited())
        .unwrap();
    assert!(out.cache_hit, "the restored memo answers an isomorphic query");
    let types = global_types().lock().unwrap();
    assert_eq!(tpq_pattern::print::to_dsl(&out.pattern, &types), minimized);
    drop(types);
    clear_shared_caches();
}

#[test]
fn schema_1_snapshots_are_rejected_and_the_server_starts_cold() {
    let _guard = lock();
    clear_shared_caches();
    warm("SnapV1A*[/SnapV1B][/SnapV1C]", "SnapV1A -> SnapV1C");
    let path = temp_path("schema-1.json");
    {
        let types = global_types().lock().unwrap();
        write_snapshot(&path, &types).expect("write");
    }
    let text = std::fs::read_to_string(&path).unwrap();
    let current = format!("\"schema\":{SCHEMA_VERSION}");
    // What schema-1 builds wrote: memo keys as the string canonical form
    // rather than hex.
    let key = first_memo_key(&text).to_owned();
    let v1 = text.replacen(&current, "\"schema\":1", 1).replacen(&key, "(0,*/(1,)/(2,))", 1);
    // What schema-2 builds wrote: a closures array in the payload.
    let v2 = text.replacen(&current, "\"schema\":2", 1).replacen(
        ",\"engines\":[",
        ",\"closures\":[],\"engines\":[",
        1,
    );
    assert!(v2.contains("\"closures\":[]"), "{v2}");

    tpq_obs::set_enabled(true);
    let rejected = tpq_obs::counter("snapshot.restore.rejected");
    for (version, old) in [(1, v1), (2, v2)] {
        std::fs::write(&path, old).unwrap();
        clear_shared_caches();
        let before = rejected.get();
        let err = {
            let mut types = global_types().lock().unwrap();
            restore_snapshot(&path, &mut types).expect_err("old schemas must be rejected")
        };
        assert!(err.reason.contains(&format!("schema version {version}")), "{err}");
        assert!(rejected.get() > before, "counted as snapshot.restore.rejected");
        assert!(tpq_core::export_engines().is_empty(), "nothing restored");

        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            jobs: 1,
            restore: Some(path.clone()),
            ..ServeConfig::default()
        })
        .expect("bind must survive an old snapshot");
        assert_eq!(server.handle().restore_status().outcome, "rejected");
        assert!(tpq_core::export_engines().is_empty(), "the server starts cold");
    }
    clear_shared_caches();
}
