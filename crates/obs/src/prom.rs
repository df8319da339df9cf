//! Prometheus text exposition of a registry snapshot.
//!
//! Mapping rules (also tabulated in `docs/OBSERVABILITY.md`):
//!
//! * every metric is prefixed `tpq_`; dots and dashes in the internal
//!   name become underscores (`serve.request.ok` → `tpq_serve_request_ok`);
//! * counters gain the conventional `_total` suffix and `# TYPE … counter`;
//! * per-span latency histograms are exported in seconds as
//!   `tpq_<name>_seconds` with cumulative `_bucket{le="…"}` lines, `_sum`
//!   and `_count` (`# TYPE … histogram`);
//! * value distributions ([`crate::record_value`]) export as suffix-free
//!   histograms with *raw* bucket bounds — they are dimensionless, so no
//!   seconds scaling applies;
//! * caller-supplied gauges (`serve.inflight`, `serve.uptime_seconds`)
//!   are emitted as-is with `# TYPE … gauge`;
//! * every metric gets a `# HELP` line before its `# TYPE`: a curated
//!   description for the well-known names ([`help_for`]), a generated
//!   one naming the internal metric otherwise — scrapers never see a
//!   description-free metric.
//!
//! The suffix scheme keeps names collision-free: a counter and a
//! histogram may share an internal name and still export distinctly.

use crate::registry::Snapshot;
use std::fmt::Write as _;

/// The exposition class a `# HELP` fallback is generated for.
#[derive(Clone, Copy)]
enum Class {
    Gauge,
    Counter,
    SpanHistogram,
    ValueHistogram,
}

/// Curated descriptions for the workspace's well-known metric names
/// (keyed by the *internal* dotted name, before Prometheus mangling).
/// Names not listed here fall back to a generated class description, so
/// every exported metric carries a `# HELP` line either way.
fn help_for(internal: &str) -> Option<&'static str> {
    Some(match internal {
        // Serve gauges.
        "serve.inflight" => "Requests currently admitted and not yet answered.",
        "serve.connections.active" => "Connections currently open.",
        "serve.uptime_seconds" => "Seconds since the server started.",
        "serve.queue.depth" => "Requests waiting for a pool worker (inflight minus workers).",
        "serve.queue.limit" => "Admission-queue bound; requests beyond it are shed.",
        "serve.snapshot.restored" => "1 when the bind-time cache snapshot restore succeeded.",
        "serve.snapshot.rejected" => "1 when the bind-time cache snapshot was rejected.",
        "serve.snapshot.bytes" => "Size of the restored snapshot file in bytes.",
        "serve.snapshot.age_seconds" => "Age of the restored snapshot at scrape time.",
        // Rolling-window (1-minute) gauges.
        "serve.request.rate_1m" => "Requests per second over the rolling 60-second window.",
        "serve.error.rate_1m" => "Errored requests per second over the rolling 60-second window.",
        "serve.shed.rate_1m" => "Shed requests per second over the rolling 60-second window.",
        "serve.request.p50_seconds_1m" => {
            "Median request latency over the rolling 60-second window."
        }
        "serve.request.p95_seconds_1m" => {
            "95th-percentile request latency over the rolling 60-second window."
        }
        "serve.request.p99_seconds_1m" => {
            "99th-percentile request latency over the rolling 60-second window."
        }
        // Serve counters.
        "serve.request.ok" => "Requests answered successfully.",
        "serve.request.error" => "Requests answered with an error response.",
        "serve.request.inline" => {
            "Requests answered on the reactor thread (front hits, memo hits and early errors), not the pool."
        }
        "batch.front.hit" => {
            "Requests answered from an engine's query-text front, without parse, key or render."
        }
        "serve.conn.accepted" => "Connections accepted.",
        "serve.conn.refused" => "Connections refused at the max-conns limit.",
        "serve.accept.errors" => {
            "Failed accept calls (such as EMFILE); the reactor retries every loop tick."
        }
        "serve.shed.queue_full" => "Requests shed because the admission queue was full.",
        "serve.shed.injected" => "Requests shed by the armed serve.shed failpoint.",
        "serve.shed.drain" => "Buffered requests answered with a typed drain error at shutdown.",
        "serve.shutdown" => "SHUTDOWN protocol verbs received.",
        "serve.epoll.wakeups" => "Reactor event-loop iterations.",
        "serve.backpressure.stalls" => "Connections paused at the write-queue high-water mark.",
        "flight.dump.ok" => "Flight-recorder black-box dumps written.",
        "flight.dump.error" => {
            "Flight-recorder dumps that failed (torn writes leave the old file)."
        }
        "serve.flight.recorded" => "Flight records captured since the server started.",
        "serve.flight.dropped" => "Flight records lost to recorder lock contention.",
        "snapshot.write.ok" => "Cache snapshots written at drain time.",
        "snapshot.write.error" => "Cache snapshot writes that failed.",
        "snapshot.write.patterns" => "Patterns serialized into the drain-time cache snapshot.",
        "snapshot.restore.ok" => "Cache snapshots restored at bind time.",
        "snapshot.restore.rejected" => "Cache snapshot restores rejected by validation.",
        // Latency histograms.
        "serve.request" => "Request service time from arrival to response, in seconds.",
        "serve.conn" => "Connection lifetime, in seconds.",
        // Value histograms.
        "serve.epoll.ready" => "Ready events per reactor wakeup.",
        _ => return None,
    })
}

/// Write the `# HELP` line for one metric: curated text when the
/// internal name is known, a generated class description otherwise.
fn write_help(out: &mut String, metric: &str, internal: &str, class: Class) {
    match help_for(internal) {
        Some(text) => {
            let _ = writeln!(out, "# HELP {metric} {text}");
        }
        None => {
            let text = match class {
                Class::Gauge => format!("Current value of the '{internal}' gauge."),
                Class::Counter => {
                    format!("Cumulative count of '{internal}' events since process start.")
                }
                Class::SpanHistogram => {
                    format!("Latency distribution of '{internal}' spans, in seconds.")
                }
                Class::ValueHistogram => format!("Distribution of '{internal}' values."),
            };
            let _ = writeln!(out, "# HELP {metric} {text}");
        }
    }
}

/// `serve.request.ok` → `tpq_serve_request_ok`. Any character outside
/// Prometheus' `[a-zA-Z0-9_:]` set maps to `_`.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("tpq_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Render `snapshot` (plus caller-supplied gauges) as Prometheus text
/// exposition. Lines are sorted by metric name within each class so the
/// output is deterministic; the caller owns any framing terminator.
pub(crate) fn render(snapshot: &Snapshot, gauges: &[(&str, f64)]) -> String {
    let mut out = String::new();

    let mut gauges: Vec<_> = gauges.to_vec();
    gauges.sort_by(|a, b| a.0.cmp(b.0));
    for (name, value) in gauges {
        let internal = name;
        let name = prometheus_name(name);
        write_help(&mut out, &name, internal, Class::Gauge);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", fmt_f64(value));
    }

    let mut counters: Vec<_> = snapshot.counters.clone();
    counters.sort();
    for (name, value) in counters {
        let internal = name;
        let name = prometheus_name(name);
        write_help(&mut out, &format!("{name}_total"), internal, Class::Counter);
        let _ = writeln!(out, "# TYPE {name}_total counter");
        let _ = writeln!(out, "{name}_total {value}");
    }

    // Event-ring losses are always exported, even at zero: silent event
    // loss is exactly what this counter exists to make visible.
    let _ = writeln!(
        out,
        "# HELP tpq_events_dropped_total Events lost to ring write contention since the last reset."
    );
    let _ = writeln!(out, "# TYPE tpq_events_dropped_total counter");
    let _ = writeln!(out, "tpq_events_dropped_total {}", snapshot.events_dropped);

    let mut histograms: Vec<_> = snapshot.histograms.iter().collect();
    histograms.sort_by_key(|(n, _)| *n);
    for (name, h) in histograms {
        if h.count() == 0 {
            continue;
        }
        let internal = *name;
        let name = prometheus_name(name);
        write_help(&mut out, &format!("{name}_seconds"), internal, Class::SpanHistogram);
        let _ = writeln!(out, "# TYPE {name}_seconds histogram");
        let mut cumulative = 0u64;
        for (bound_ns, count) in h.nonzero_buckets() {
            cumulative += count;
            let le = fmt_f64(bound_ns as f64 / 1e9);
            let _ = writeln!(out, "{name}_seconds_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_seconds_bucket{{le=\"+Inf\"}} {}", h.count());
        let _ = writeln!(out, "{name}_seconds_sum {}", fmt_f64(h.sum() as f64 / 1e9));
        let _ = writeln!(out, "{name}_seconds_count {}", h.count());
    }

    // Value distributions are dimensionless, so bucket bounds stay raw
    // (no seconds scaling) and the metric name carries no unit suffix.
    let mut values: Vec<_> = snapshot.values.iter().collect();
    values.sort_by_key(|(n, _)| *n);
    for (name, h) in values {
        if h.count() == 0 {
            continue;
        }
        let internal = *name;
        let name = prometheus_name(name);
        write_help(&mut out, &name, internal, Class::ValueHistogram);
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (bound, count) in h.nonzero_buckets() {
            cumulative += count;
            let le = fmt_f64(bound as f64);
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
        let _ = writeln!(out, "{name}_sum {}", fmt_f64(h.sum() as f64));
        let _ = writeln!(out, "{name}_count {}", h.count());
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;
    use std::sync::Arc;

    #[test]
    fn name_mapping_replaces_dots_and_dashes() {
        assert_eq!(prometheus_name("serve.request.ok"), "tpq_serve_request_ok");
        assert_eq!(prometheus_name("bad-request"), "tpq_bad_request");
        assert_eq!(prometheus_name("a:b"), "tpq_a:b");
    }

    #[test]
    fn exposition_is_well_formed_and_duplicate_free() {
        let h = Arc::new(Histogram::default());
        h.record(100);
        h.record(2_000_000);
        let snapshot = Snapshot {
            counters: vec![("serve.request.ok", 3), ("serve.request", 5)],
            spans: vec![],
            edges: vec![],
            histograms: vec![("serve.request", Arc::clone(&h)), ("empty", Default::default())],
            values: vec![("serve.epoll.ready", Arc::clone(&h)), ("idle", Default::default())],
            events_dropped: 7,
        };
        let text = render(&snapshot, &[("serve.inflight", 2.0), ("serve.uptime_seconds", 1.5)]);

        // Every # TYPE names a distinct metric.
        let mut typed: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("# TYPE "))
            .map(|l| l.split_whitespace().nth(2).unwrap())
            .collect();
        let before = typed.len();
        typed.sort_unstable();
        typed.dedup();
        assert_eq!(typed.len(), before, "duplicate metric names in exposition");

        // Every # TYPE is immediately preceded by a # HELP for the same
        // metric (the CI scrape check enforces the same invariant live).
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let metric = rest.split_whitespace().next().unwrap();
                let prev = lines.get(i.wrapping_sub(1)).copied().unwrap_or("");
                assert!(
                    prev.starts_with(&format!("# HELP {metric} ")),
                    "no # HELP before '{line}' (saw '{prev}')"
                );
                assert!(
                    prev.len() > format!("# HELP {metric} ").len(),
                    "empty description for {metric}"
                );
            }
        }

        assert!(text.contains("# HELP tpq_serve_inflight Requests currently admitted"));
        assert!(text.contains("# TYPE tpq_serve_inflight gauge"));
        assert!(text.contains("tpq_serve_inflight 2.0"));
        assert!(text.contains("tpq_serve_request_ok_total 3"));
        assert!(text.contains("# TYPE tpq_events_dropped_total counter"));
        assert!(text.contains("tpq_events_dropped_total 7"));
        // Counter/histogram name collision resolved by suffixes.
        assert!(text.contains("tpq_serve_request_total 5"));
        assert!(text.contains("# TYPE tpq_serve_request_seconds histogram"));
        assert!(text.contains("tpq_serve_request_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("tpq_serve_request_seconds_count 2"));
        assert!(!text.contains("tpq_empty"), "empty histograms are omitted");
        // Value histograms export suffix-free with raw bucket bounds.
        assert!(text.contains("# TYPE tpq_serve_epoll_ready histogram"));
        assert!(text.contains("tpq_serve_epoll_ready_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("tpq_serve_epoll_ready_count 2"));
        assert!(!text.contains("tpq_idle"), "empty value histograms are omitted");

        // Bucket counts are cumulative and end at the total.
        let buckets: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("tpq_serve_request_seconds_bucket"))
            .map(|l| l.split_whitespace().last().unwrap().parse().unwrap())
            .collect();
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "buckets not cumulative: {buckets:?}");
        assert_eq!(*buckets.last().unwrap(), 2);
    }

    #[test]
    fn zero_count_value_histograms_are_omitted_entirely() {
        // A registered-but-empty value histogram (record_value was never
        // called, or reset() cleared it) must not leak any exposition
        // lines — no # HELP, no # TYPE, no +Inf bucket. Prometheus
        // histograms with zero observations are legal but noisy; the
        // contract here is omission.
        let snapshot = Snapshot {
            counters: vec![],
            spans: vec![],
            edges: vec![],
            histograms: vec![("quiet.span", Default::default())],
            values: vec![("quiet.values", Default::default())],
            events_dropped: 0,
        };
        let text = render(&snapshot, &[]);
        assert!(!text.contains("quiet_values"), "zero-count value histogram leaked:\n{text}");
        assert!(!text.contains("quiet_span"), "zero-count span histogram leaked:\n{text}");
        // The always-on loss counter is still the only counter present.
        assert!(text.contains("tpq_events_dropped_total 0"));
    }

    #[test]
    fn unknown_names_get_generated_help_descriptions() {
        let snapshot = Snapshot {
            counters: vec![("made.up.counter", 1)],
            spans: vec![],
            edges: vec![],
            histograms: vec![],
            values: vec![],
            events_dropped: 0,
        };
        let text = render(&snapshot, &[("made.up.gauge", 1.0)]);
        assert!(
            text.contains("# HELP tpq_made_up_counter_total Cumulative count of 'made.up.counter'")
        );
        assert!(text.contains("# HELP tpq_made_up_gauge Current value of the 'made.up.gauge'"));
    }
}
