//! Shared harness for regenerating the paper's evaluation (Section 6)
//! and for persisting the results as benchmark trajectories.
//!
//! Each figure panel has an [`experiments`] module function returning a
//! measured [`Panel`]; the `experiments` binary prints them in the
//! paper's row format, writes them as schema-versioned
//! [`trajectory::Trajectory`] files (`BENCH_<panel>.json`). The
//! `compare` binary diffs two trajectory directories and flags
//! regressions (see [`compare`]).

pub mod compare;
pub mod concurrency_panel;
pub mod degradation_panel;
pub mod experiments;
pub mod match_panel;
pub mod serve_panel;
pub mod trajectory;

/// Serialize the tests that read or clear the process-wide minimization
/// caches (the cache panel's hit-rate deltas and the degradation panel's
/// cold/restored restarts would otherwise perturb each other under the
/// parallel test runner).
#[cfg(test)]
pub(crate) fn global_cache_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| std::sync::Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

use std::time::Instant;
use tpq_base::Json;

/// Summary of repeated timing samples for one measured point: the median
/// plus the extremes, so persisted trajectories keep the variance that a
/// lone median hides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Median of the samples. For an even sample count this is the mean
    /// of the two middle samples (not the upper one).
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Measurement {
    /// Summarize a non-empty set of samples.
    ///
    /// # Panics
    /// Panics on an empty slice or NaN samples.
    pub fn from_samples(samples: &[f64]) -> Measurement {
        assert!(!samples.is_empty(), "measurement needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
        let n = sorted.len();
        let median = if n.is_multiple_of(2) {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        } else {
            sorted[n / 2]
        };
        Measurement { median, min: sorted[0], max: sorted[n - 1] }
    }

    /// A degenerate measurement for derived values (cache hit rates,
    /// speedups, histogram quantiles) that have no per-iteration spread.
    pub fn flat(value: f64) -> Measurement {
        Measurement { median: value, min: value, max: value }
    }
}

/// One measured point of a series.
#[derive(Debug, Clone)]
pub struct Point {
    /// The x-axis value (query size, redundancy, constraint count, …).
    pub x: u64,
    /// Measured median value — wall micros for timing panels, the
    /// panel's [`Panel::unit`] otherwise.
    pub micros: f64,
    /// Smallest sample behind the median (equals `micros` for derived
    /// panels with no spread).
    pub min_micros: f64,
    /// Largest sample behind the median.
    pub max_micros: f64,
    /// Optional secondary measurement (e.g. tables time for Figure 7(b)).
    pub aux_micros: Option<f64>,
}

impl Point {
    /// A point from a repeated-sample [`Measurement`].
    pub fn timed(x: u64, m: Measurement) -> Point {
        Point { x, micros: m.median, min_micros: m.min, max_micros: m.max, aux_micros: None }
    }

    /// A point for a derived value with no per-iteration spread.
    pub fn flat(x: u64, value: f64) -> Point {
        Point { x, micros: value, min_micros: value, max_micros: value, aux_micros: None }
    }

    /// JSON form; `aux_micros` is omitted when absent.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("x", Json::Int(self.x as i64)),
            ("micros", Json::Float(self.micros)),
            ("min_micros", Json::Float(self.min_micros)),
            ("max_micros", Json::Float(self.max_micros)),
        ];
        if let Some(aux) = self.aux_micros {
            members.push(("aux_micros", Json::Float(aux)));
        }
        Json::object(members)
    }

    /// Parse the [`Point::to_json`] form. `min_micros`/`max_micros`
    /// default to the median when absent, so pre-trajectory JSON (which
    /// only carried the median) still loads.
    pub fn from_json(json: &Json) -> Result<Point, String> {
        let x = json
            .get("x")
            .and_then(Json::as_i64)
            .ok_or_else(|| "point is missing integer 'x'".to_owned())?;
        let micros = json
            .get("micros")
            .and_then(Json::as_f64)
            .ok_or_else(|| "point is missing numeric 'micros'".to_owned())?;
        let min_micros = json.get("min_micros").and_then(Json::as_f64).unwrap_or(micros);
        let max_micros = json.get("max_micros").and_then(Json::as_f64).unwrap_or(micros);
        let aux_micros = json.get("aux_micros").and_then(Json::as_f64);
        Ok(Point { x: x as u64, micros, min_micros, max_micros, aux_micros })
    }
}

/// A named curve, mirroring one gnuplot series of the paper's figures.
#[derive(Debug, Clone)]
pub struct Series {
    /// Label as it appears in the paper (e.g. `"100Constraints"`).
    pub label: String,
    /// Measured points in x order.
    pub points: Vec<Point>,
}

impl Series {
    /// JSON form.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("label", Json::Str(self.label.clone())),
            ("points", Json::Array(self.points.iter().map(Point::to_json).collect())),
        ])
    }

    /// Parse the [`Series::to_json`] form.
    pub fn from_json(json: &Json) -> Result<Series, String> {
        let label = json
            .get("label")
            .and_then(Json::as_str)
            .ok_or_else(|| "series is missing 'label'".to_owned())?
            .to_owned();
        let points = json
            .get("points")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("series '{label}' is missing 'points'"))?
            .iter()
            .map(Point::from_json)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("series '{label}': {e}"))?;
        Ok(Series { label, points })
    }
}

/// Unit of a timing panel's point values (wall microseconds).
pub const UNIT_MICROS: &str = "us";
/// Unit of a cache-hit-rate panel (0–100).
pub const UNIT_PERCENT: &str = "percent";
/// Unit of a speedup panel (dimensionless, ×).
pub const UNIT_RATIO: &str = "ratio";
/// Unit of a throughput panel (document nodes matched per second).
pub const UNIT_THROUGHPUT: &str = "nodes_per_sec";

/// A whole figure panel.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Identifier, e.g. `"fig7a"`.
    pub id: String,
    /// Human title quoting the paper.
    pub title: String,
    /// Axis label for x.
    pub x_label: String,
    /// What the point values measure: [`UNIT_MICROS`] (lower is better),
    /// [`UNIT_PERCENT`], [`UNIT_RATIO`] or [`UNIT_THROUGHPUT`] (higher is
    /// better).
    pub unit: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Panel {
    /// Whether smaller point values are better for this panel's unit
    /// (true for wall times, false for hit rates, speedups and
    /// throughputs).
    pub fn lower_is_better(&self) -> bool {
        self.unit != UNIT_PERCENT && self.unit != UNIT_RATIO && self.unit != UNIT_THROUGHPUT
    }

    /// JSON form.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("id", Json::Str(self.id.clone())),
            ("title", Json::Str(self.title.clone())),
            ("x_label", Json::Str(self.x_label.clone())),
            ("unit", Json::Str(self.unit.clone())),
            ("series", Json::Array(self.series.iter().map(Series::to_json).collect())),
        ])
    }

    /// Parse the [`Panel::to_json`] form (`unit` defaults to micros for
    /// pre-trajectory JSON).
    pub fn from_json(json: &Json) -> Result<Panel, String> {
        let id = json
            .get("id")
            .and_then(Json::as_str)
            .ok_or_else(|| "panel is missing 'id'".to_owned())?
            .to_owned();
        let title = json.get("title").and_then(Json::as_str).unwrap_or("").to_owned();
        let x_label = json.get("x_label").and_then(Json::as_str).unwrap_or("x").to_owned();
        let unit = json.get("unit").and_then(Json::as_str).unwrap_or(UNIT_MICROS).to_owned();
        let series = json
            .get("series")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("panel '{id}' is missing 'series'"))?
            .iter()
            .map(Series::from_json)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("panel '{id}': {e}"))?;
        Ok(Panel { id, title, x_label, unit, series })
    }

    /// Render the panel as an aligned text table (x column + one column
    /// per series, values in the panel's unit).
    pub fn to_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "## {} — {}", self.id, self.title);
        let _ = write!(out, "{:>12}", self.x_label);
        for s in &self.series {
            let _ = write!(out, " {:>16}", s.label);
        }
        let _ = writeln!(out);
        let suffix = if self.unit == UNIT_MICROS { "us" } else { "" };
        let xs: Vec<u64> =
            self.series.first().map_or(Vec::new(), |s| s.points.iter().map(|p| p.x).collect());
        for (i, x) in xs.iter().enumerate() {
            let _ = write!(out, "{x:>12}");
            for s in &self.series {
                match s.points.get(i) {
                    Some(p) => {
                        let _ = write!(out, " {:>14.1}{suffix:<2}", p.micros);
                    }
                    None => {
                        let _ = write!(out, " {:>16}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// Measure `f` over `iters` runs (after one warmup) and summarize the
/// wall times in microseconds. The closure's result is returned from the
/// last run so the compiler cannot elide the work.
pub fn measure_micros<T>(iters: usize, mut f: impl FnMut() -> T) -> (Measurement, T) {
    assert!(iters >= 1);
    let mut last = f(); // warmup
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        last = f();
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    (Measurement::from_samples(&samples), last)
}

/// Median wall time of `f` over `iters` runs (after one warmup), in
/// microseconds. For an even `iters` the two middle samples are averaged.
pub fn median_micros<T>(iters: usize, f: impl FnMut() -> T) -> (f64, T) {
    let (m, last) = measure_micros(iters, f);
    (m.median, last)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_micros_returns_positive_time() {
        let (us, v) = median_micros(3, || (0..1000u64).sum::<u64>());
        assert_eq!(v, 499_500);
        assert!(us >= 0.0);
    }

    #[test]
    fn even_sample_counts_average_the_middle_pair() {
        let m = Measurement::from_samples(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(m.median, 2.5, "even count averages the two middle samples");
        assert_eq!(m.min, 1.0);
        assert_eq!(m.max, 4.0);
        let odd = Measurement::from_samples(&[5.0, 1.0, 3.0]);
        assert_eq!(odd.median, 3.0);
        let one = Measurement::from_samples(&[7.0]);
        assert_eq!((one.median, one.min, one.max), (7.0, 7.0, 7.0));
    }

    #[test]
    fn measure_micros_orders_min_median_max() {
        let (m, _) = measure_micros(6, || std::hint::black_box((0..500u64).sum::<u64>()));
        assert!(m.min <= m.median && m.median <= m.max);
        assert!(m.min >= 0.0);
    }

    #[test]
    fn point_json_round_trips_with_min_max() {
        let p = Point { x: 3, micros: 2.5, min_micros: 2.0, max_micros: 4.0, aux_micros: None };
        let parsed = Point::from_json(&p.to_json()).unwrap();
        assert_eq!(parsed.x, 3);
        assert_eq!((parsed.micros, parsed.min_micros, parsed.max_micros), (2.5, 2.0, 4.0));
        // Median-only legacy points still parse, min/max degenerate.
        let legacy = Json::object(vec![("x", Json::Int(1)), ("micros", Json::Float(9.0))]);
        let parsed = Point::from_json(&legacy).unwrap();
        assert_eq!((parsed.min_micros, parsed.max_micros), (9.0, 9.0));
        assert!(Point::from_json(&Json::object(vec![("x", Json::Int(1))])).is_err());
    }

    #[test]
    fn panel_table_renders_all_series() {
        let panel = Panel {
            id: "figX".into(),
            title: "demo".into(),
            x_label: "Size".into(),
            unit: UNIT_MICROS.into(),
            series: vec![
                Series { label: "A".into(), points: vec![Point::flat(1, 2.0)] },
                Series { label: "B".into(), points: vec![Point::flat(1, 3.0)] },
            ],
        };
        let t = panel.to_table();
        assert!(t.contains("figX"));
        assert!(t.contains('A') && t.contains('B'));
        assert!(t.contains("2.0us"));
    }

    #[test]
    fn panel_json_round_trips() {
        let panel = Panel {
            id: "cache".into(),
            title: "hit rates".into(),
            x_label: "Round".into(),
            unit: UNIT_PERCENT.into(),
            series: vec![Series {
                label: "BatchMemo".into(),
                points: vec![Point::flat(1, 50.0), Point::flat(2, 100.0)],
            }],
        };
        assert!(!panel.lower_is_better(), "percent panels want higher values");
        let parsed = Panel::from_json(&panel.to_json()).unwrap();
        assert_eq!(parsed.id, "cache");
        assert_eq!(parsed.unit, UNIT_PERCENT);
        assert_eq!(parsed.series[0].points.len(), 2);
        assert_eq!(parsed.series[0].points[1].micros, 100.0);
    }
}
