//! Summary statistics and the result a run prints.

use tpq_base::Json;

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (`q = 0.5` is the median). Empty input gives NaN.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values` (NaN when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Microseconds in a [`std::time::Duration`].
pub fn micros(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// Context printed beside the value (sample counts, spreads).
    pub note: String,
}

impl Metric {
    /// A metric without a note.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value, note: String::new() }
    }

    /// Attach a note.
    pub fn with_note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// What a workload run (or a traced run) produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (requests, log queries, match operations, or
    /// layer replays in a traced run).
    pub attempted: u64,
    /// Operations that failed, were shed, or gave a wrong answer.
    pub failed: u64,
    /// Consistency checks that did not hold (each also makes the run
    /// incorrect).
    pub problems: Vec<String>,
    /// The measurements.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Record a failed consistency check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Fold another outcome (a traced section) into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.metrics.extend(other.metrics);
    }

    /// Whether every answer was right and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Print the human-readable lines, then the one-line JSON result as
    /// the last line of standard output.
    pub fn print(&self) {
        for m in &self.metrics {
            let note = if m.note.is_empty() { String::new() } else { format!("  ({})", m.note) };
            println!("{:<28} = {:>14.4} {}{note}", m.name, m.value, m.unit);
        }
        let rate =
            if self.attempted == 0 { 0.0 } else { self.failed as f64 / self.attempted as f64 };
        println!("{:<28} = {rate} ({} of {})", "error_rate", self.failed, self.attempted);
        for p in &self.problems {
            println!("# check failed: {p}");
        }
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    Json::object(vec![
                        ("value", Json::Float(m.value)),
                        ("unit", Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        let result = Json::object(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::Object(metrics)),
        ]);
        println!("{}", result.to_string_compact());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
    }
}
