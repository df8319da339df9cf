//! The flight recorder: a fixed-capacity, lock-light ring of completed
//! request records — the serve layer's black box.
//!
//! Counters say *how many*; the flight recorder says *what just
//! happened*, one [`FlightRecord`] per completed request with its
//! per-phase nanosecond breakdown (queue / parse / minimize / render),
//! byte counts, outcome kind, and the cache-hit / front-hit / shed /
//! backpressure flags. The ring keeps the most recent
//! [`capacity`](FlightRecorder::capacity) records; `tpq serve` drains it
//! over the `TIMELINE` verb and dumps it to disk
//! ([`FlightRecorder::dump`]) on a request panic or SIGUSR1.
//!
//! Writes follow the same lock-light contract as the event ring: one
//! `try_lock` per record, and a contended push is *dropped* and counted
//! ([`FlightRecorder::dropped`]) rather than ever blocking a request
//! thread. Reads ([`FlightRecorder::recent`]) are non-destructive, so a
//! `TIMELINE` drain never erases the black box a later crash dump needs;
//! consumers deduplicate across polls by [`FlightRecord::seq`].

use std::collections::VecDeque;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use tpq_base::{failpoint, Json};

/// Default ring capacity: enough to hold several seconds of traffic at
/// serve-bench rates while keeping the resident set under ~256 KiB.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1024;

/// One completed request, as the serve layer saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecord {
    /// Ring-assigned emission order (gap-free; gaps across `TIMELINE`
    /// polls mean records were evicted or dropped in between).
    pub seq: u64,
    /// Completion wall-clock time, milliseconds since the Unix epoch.
    pub t_unix_ms: u64,
    /// The request's trace id (`0` for requests shed before one was
    /// minted); rendered as 16 hex digits, matching response `trace`
    /// fields.
    pub trace: u64,
    /// What kind of line this was (`"minimize"`; verbs are not recorded).
    pub verb: &'static str,
    /// Strategy the request ran under, or `"-"` when it never reached
    /// one (parse failures, sheds).
    pub strategy: &'static str,
    /// Nanoseconds between arrival and the start of processing (time
    /// queued for a pool worker).
    pub queue_ns: u64,
    /// Nanoseconds parsing the request line, query and constraints.
    pub parse_ns: u64,
    /// Nanoseconds in the minimization engine (cache hits included).
    pub minimize_ns: u64,
    /// Nanoseconds rendering the minimized pattern back to DSL text.
    pub render_ns: u64,
    /// Nanoseconds from arrival to completion (the span the `serve.request`
    /// histogram records).
    pub total_ns: u64,
    /// Request line length in bytes (including the newline).
    pub bytes_in: u64,
    /// Response line length in bytes (including the newline).
    pub bytes_out: u64,
    /// `"ok"` or the error kind of the response (`"parse"`, `"budget"`,
    /// `"panic"`, `"overloaded"`, …).
    pub outcome: &'static str,
    /// Whether the minimization was answered from the canonical-pattern
    /// memo cache (a front hit counts too).
    pub cache_hit: bool,
    /// Whether the answer came from the engine's query-text front, which
    /// parses, keys and renders nothing (implies `cache_hit`).
    pub front_hit: bool,
    /// Whether the request was shed (admission queue, injected fault, or
    /// drain) instead of being processed.
    pub shed: bool,
    /// Whether the connection was paused over its write high-water mark
    /// when the response was delivered (reactor engine only).
    pub backpressure: bool,
}

impl FlightRecord {
    /// One-object JSON rendering; schema in `docs/OBSERVABILITY.md`.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("seq", Json::Int(self.seq as i64)),
            ("t_unix_ms", Json::Int(self.t_unix_ms as i64)),
            (
                "trace",
                if self.trace == 0 { Json::Null } else { Json::Str(crate::trace_hex(self.trace)) },
            ),
            ("verb", Json::Str(self.verb.to_owned())),
            ("strategy", Json::Str(self.strategy.to_owned())),
            (
                "phases_ns",
                Json::object(vec![
                    ("queue", Json::Int(self.queue_ns as i64)),
                    ("parse", Json::Int(self.parse_ns as i64)),
                    ("minimize", Json::Int(self.minimize_ns as i64)),
                    ("render", Json::Int(self.render_ns as i64)),
                ]),
            ),
            ("total_ns", Json::Int(self.total_ns as i64)),
            ("bytes_in", Json::Int(self.bytes_in as i64)),
            ("bytes_out", Json::Int(self.bytes_out as i64)),
            ("outcome", Json::Str(self.outcome.to_owned())),
            ("cache_hit", Json::Bool(self.cache_hit)),
            ("front_hit", Json::Bool(self.front_hit)),
            ("shed", Json::Bool(self.shed)),
            ("backpressure", Json::Bool(self.backpressure)),
        ])
    }
}

/// Render a batch of flight records as JSON lines (one compact object
/// per line, oldest first) — the `TIMELINE` payload and the dump format.
pub fn flight_to_json_lines(records: &[FlightRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_json().to_string_compact());
        out.push('\n');
    }
    out
}

/// The seq-assigning interior of the recorder, behind one mutex.
struct Ring {
    records: VecDeque<FlightRecord>,
    next_seq: u64,
}

/// A fixed-capacity ring of [`FlightRecord`]s with lock-light writes.
pub struct FlightRecorder {
    ring: Mutex<Ring>,
    capacity: usize,
    /// Records lost to write-time lock contention (never to eviction).
    dropped: AtomicU64,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` records (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            ring: Mutex::new(Ring { records: VecDeque::with_capacity(capacity), next_seq: 0 }),
            capacity,
            dropped: AtomicU64::new(0),
        }
    }

    /// Ring capacity (oldest records are evicted past this).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Record one completed request. The record's `seq` field is
    /// overwritten with the ring-assigned sequence number. When the ring
    /// lock is contended the record is dropped and counted instead of
    /// blocking — a request thread never waits on the recorder.
    pub fn record(&self, mut record: FlightRecord) {
        let Ok(mut ring) = self.ring.try_lock() else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        record.seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.records.len() == self.capacity {
            ring.records.pop_front();
        }
        ring.records.push_back(record);
    }

    /// The newest `n` records, oldest first. Non-destructive: the ring
    /// keeps everything for a later [`dump`](FlightRecorder::dump), and
    /// repeated polls overlap — deduplicate by [`FlightRecord::seq`].
    pub fn recent(&self, n: usize) -> Vec<FlightRecord> {
        let ring = self.ring.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let skip = ring.records.len().saturating_sub(n);
        ring.records.iter().skip(skip).cloned().collect()
    }

    /// Records pushed so far (dropped ones excluded).
    pub fn recorded(&self) -> u64 {
        let ring = self.ring.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        ring.next_seq
    }

    /// Records lost to write-time lock contention.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Dump the whole ring to `path` as JSON lines, atomically: the file
    /// is written next to `path` as `<name>.tmp` and renamed into place,
    /// so a crash (or the `flight.dump` failpoint) mid-write never
    /// clobbers a previous dump with a torn one. Returns the number of
    /// records written.
    pub fn dump(&self, path: &Path) -> std::io::Result<usize> {
        let records = self.recent(usize::MAX);
        let text = flight_to_json_lines(&records);
        let tmp = path.with_file_name(match path.file_name().and_then(|n| n.to_str()) {
            Some(name) => format!("{name}.tmp"),
            None => return Err(std::io::Error::other("flight dump path has no file name")),
        });
        let write_result = (|| -> std::io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            // The failpoint models a crash after the tmp file exists but
            // before the rename — the window atomicity must cover.
            failpoint::hit("flight.dump").map_err(std::io::Error::other)?;
            f.sync_all()?;
            std::fs::rename(&tmp, path)
        })();
        if let Err(e) = write_result {
            let _ = std::fs::remove_file(&tmp);
            crate::incr("flight.dump.error", 1);
            return Err(e);
        }
        crate::incr("flight.dump.ok", 1);
        Ok(records.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(outcome: &'static str) -> FlightRecord {
        FlightRecord {
            seq: 0,
            t_unix_ms: 1_700_000_000_000,
            trace: 0x2a,
            verb: "minimize",
            strategy: "full",
            queue_ns: 10,
            parse_ns: 20,
            minimize_ns: 30,
            render_ns: 5,
            total_ns: 65,
            bytes_in: 48,
            bytes_out: 120,
            outcome,
            cache_hit: false,
            front_hit: false,
            shed: false,
            backpressure: false,
        }
    }

    #[test]
    fn ring_assigns_seqs_and_evicts_oldest() {
        let rec = FlightRecorder::new(3);
        for _ in 0..5 {
            rec.record(record("ok"));
        }
        let all = rec.recent(usize::MAX);
        assert_eq!(all.len(), 3, "capacity bounds the ring");
        assert_eq!(all.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(rec.recorded(), 5);
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn recent_is_non_destructive_and_takes_the_newest() {
        let rec = FlightRecorder::new(8);
        for _ in 0..4 {
            rec.record(record("ok"));
        }
        let two = rec.recent(2);
        assert_eq!(two.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![2, 3]);
        // Nothing was consumed.
        assert_eq!(rec.recent(usize::MAX).len(), 4);
    }

    #[test]
    fn json_lines_render_one_object_per_record() {
        let rec = FlightRecorder::new(4);
        rec.record(record("ok"));
        rec.record(record("budget"));
        let text = flight_to_json_lines(&rec.recent(usize::MAX));
        assert_eq!(text.lines().count(), 2);
        let first = Json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("seq").and_then(Json::as_i64), Some(0));
        assert_eq!(first.get("outcome").and_then(Json::as_str), Some("ok"));
        assert_eq!(first.get("trace").and_then(Json::as_str), Some("000000000000002a"));
        let phases = first.get("phases_ns").unwrap();
        assert_eq!(phases.get("minimize").and_then(Json::as_i64), Some(30));
        assert_eq!(first.get("front_hit").and_then(Json::as_bool), Some(false));
        let second = Json::parse(text.lines().nth(1).unwrap()).unwrap();
        assert_eq!(second.get("outcome").and_then(Json::as_str), Some("budget"));
    }

    #[test]
    fn zero_trace_renders_null() {
        let mut r = record("overloaded");
        r.trace = 0;
        r.shed = true;
        assert!(matches!(r.to_json().get("trace"), Some(Json::Null)));
    }

    #[test]
    fn dump_writes_json_lines_atomically() {
        let dir = std::env::temp_dir().join(format!("tpq-flight-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight.jsonl");
        let rec = FlightRecorder::new(4);
        rec.record(record("ok"));
        assert_eq!(rec.dump(&path).unwrap(), 1);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(!path.with_file_name("flight.jsonl.tmp").exists(), "tmp renamed away");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dump_failpoint_leaves_the_previous_dump_intact() {
        let dir = std::env::temp_dir().join(format!("tpq-flight-fp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight.jsonl");
        let rec = FlightRecorder::new(4);
        rec.record(record("ok"));
        rec.dump(&path).unwrap();
        let before = std::fs::read_to_string(&path).unwrap();
        rec.record(record("panic"));
        let _fp = failpoint::arm_for_thread("flight.dump", failpoint::Action::Err, 1);
        assert!(rec.dump(&path).is_err(), "armed failpoint fails the dump");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), before, "old dump survives");
        assert!(!path.with_file_name("flight.jsonl.tmp").exists(), "torn tmp removed");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
