//! Point-by-point comparison of two benchmark-trajectory directories,
//! with a noise threshold, per-panel overrides and a markdown report —
//! the engine behind the `tpq-bench compare` binary and the CI perf gate.
//!
//! Matching is by panel id, then by `(series label, x)` within a panel,
//! so grid changes never misalign the rest of the curve. A panel, series
//! or point that only the candidate has is new and passes; one that only
//! the baseline has is missing and fails the gate, so nothing stops being
//! gated without a deliberate baseline edit. Direction comes from the panel's unit: micros regress
//! upward, hit rates and speedups regress downward.

use crate::trajectory::Trajectory;
use crate::{Panel, UNIT_MICROS};
use std::fmt::Write;

/// Noise tolerances for [`compare`].
#[derive(Debug, Clone)]
pub struct Thresholds {
    /// Relative change (fraction, e.g. `0.20` = ±20%) below which a point
    /// is considered unchanged.
    pub default_rel: f64,
    /// Absolute floor for micros panels: a point whose baseline and
    /// candidate are both under this many microseconds never regresses —
    /// sub-floor timings are dominated by scheduler noise.
    pub abs_floor_us: f64,
    /// Per-panel overrides of the relative threshold, by panel id.
    pub per_panel: Vec<(String, f64)>,
}

impl Default for Thresholds {
    fn default() -> Thresholds {
        Thresholds { default_rel: 0.20, abs_floor_us: 20.0, per_panel: Vec::new() }
    }
}

impl Thresholds {
    /// The relative threshold in force for a panel.
    pub fn for_panel(&self, id: &str) -> f64 {
        self.per_panel
            .iter()
            .find(|(panel, _)| panel == id)
            .map_or(self.default_rel, |(_, rel)| *rel)
    }
}

/// How one panel moved between baseline and candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanelStatus {
    /// At least one point got better past the threshold, none got worse.
    Improved,
    /// At least one point got worse past the threshold.
    Regressed,
    /// Every matched point is within the threshold.
    Unchanged,
    /// Panel exists only in the candidate (new benchmark).
    New,
    /// The panel, or a series or point of it, exists only in the
    /// baseline (a benchmark disappeared — treated as a failure,
    /// deletions must be deliberate).
    Missing,
}

impl PanelStatus {
    /// Short human label.
    pub fn label(self) -> &'static str {
        match self {
            PanelStatus::Improved => "improved",
            PanelStatus::Regressed => "regressed",
            PanelStatus::Unchanged => "unchanged",
            PanelStatus::New => "new",
            PanelStatus::Missing => "missing",
        }
    }
}

/// One matched point's movement.
#[derive(Debug, Clone)]
pub struct PointDelta {
    /// Series label within the panel.
    pub series: String,
    /// The point's x value.
    pub x: u64,
    /// Baseline value (panel unit).
    pub base: f64,
    /// Candidate value (panel unit).
    pub cand: f64,
    /// Signed relative change, `(cand - base) / base` (0 when the
    /// baseline is zero and the candidate is too; 1.0 when only the
    /// baseline is zero).
    pub rel: f64,
    /// Worse past the threshold, in the panel's direction.
    pub regressed: bool,
    /// Better past the threshold.
    pub improved: bool,
}

/// One panel's comparison.
#[derive(Debug, Clone)]
pub struct PanelReport {
    /// Panel id.
    pub id: String,
    /// Unit of the panel's values.
    pub unit: String,
    /// Overall classification.
    pub status: PanelStatus,
    /// Relative threshold that was applied.
    pub rel_threshold: f64,
    /// Every matched point, in baseline order.
    pub deltas: Vec<PointDelta>,
    /// Baseline series and points the candidate lacks, in baseline order
    /// (`series S` or `S @x=N`); empty when the whole panel is missing.
    pub missing: Vec<String>,
}

impl PanelReport {
    /// The matched point that moved the most in the regressing direction
    /// (by |rel| among regressed points), if any.
    pub fn worst(&self) -> Option<&PointDelta> {
        self.deltas
            .iter()
            .filter(|d| d.regressed)
            .max_by(|a, b| a.rel.abs().partial_cmp(&b.rel.abs()).expect("no NaN"))
    }
}

/// The whole comparison.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Per-panel results, baseline order then new panels.
    pub panels: Vec<PanelReport>,
}

impl CompareReport {
    /// Whether the gate should fail: any panel regressed or disappeared.
    pub fn has_failures(&self) -> bool {
        self.panels
            .iter()
            .any(|p| matches!(p.status, PanelStatus::Regressed | PanelStatus::Missing))
    }

    /// Count panels with the given status.
    pub fn count(&self, status: PanelStatus) -> usize {
        self.panels.iter().filter(|p| p.status == status).count()
    }

    /// Render the comparison as a markdown report (the CI job summary).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Benchmark trajectory comparison\n");
        let _ = writeln!(out, "| panel | status | worst change | threshold |");
        let _ = writeln!(out, "|-------|--------|--------------|-----------|");
        for p in &self.panels {
            let worst = match p.status {
                PanelStatus::New => "first measurement".to_owned(),
                PanelStatus::Missing if p.missing.is_empty() => "panel disappeared".to_owned(),
                PanelStatus::Missing => format!("lost {}", p.missing.join(", ")),
                _ => match p.worst().or_else(|| {
                    p.deltas
                        .iter()
                        .max_by(|a, b| a.rel.abs().partial_cmp(&b.rel.abs()).expect("no NaN"))
                }) {
                    Some(d) => format!(
                        "{} @x={}: {:.1} → {:.1} {} ({:+.1}%)",
                        d.series,
                        d.x,
                        d.base,
                        d.cand,
                        p.unit,
                        d.rel * 100.0
                    ),
                    None => "no matched points".to_owned(),
                },
            };
            let _ = writeln!(
                out,
                "| {} | {} | {} | ±{:.0}% |",
                p.id,
                p.status.label(),
                worst,
                p.rel_threshold * 100.0
            );
        }
        let _ = writeln!(out);
        for p in self.panels.iter().filter(|p| p.deltas.iter().any(|d| d.regressed)) {
            let _ = writeln!(out, "## {} regressions\n", p.id);
            for d in p.deltas.iter().filter(|d| d.regressed) {
                let _ = writeln!(
                    out,
                    "- `{}` @x={}: {:.1} → {:.1} {} ({:+.1}%)",
                    d.series,
                    d.x,
                    d.base,
                    d.cand,
                    p.unit,
                    d.rel * 100.0
                );
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// Compare one candidate panel against its baseline.
fn compare_panel(base: &Panel, cand: &Panel, th: &Thresholds) -> PanelReport {
    let rel_threshold = th.for_panel(&base.id);
    let lower_is_better = base.lower_is_better();
    let mut deltas = Vec::new();
    let mut missing = Vec::new();
    for base_series in &base.series {
        let Some(cand_series) = cand.series.iter().find(|s| s.label == base_series.label) else {
            missing.push(format!("series {}", base_series.label));
            continue;
        };
        for bp in &base_series.points {
            let Some(cp) = cand_series.points.iter().find(|p| p.x == bp.x) else {
                missing.push(format!("{} @x={}", base_series.label, bp.x));
                continue;
            };
            let rel = if bp.micros == 0.0 {
                if cp.micros == 0.0 {
                    0.0
                } else {
                    1.0
                }
            } else {
                (cp.micros - bp.micros) / bp.micros
            };
            // Sub-floor micros points are scheduler noise, never a signal.
            let under_floor = base.unit == UNIT_MICROS
                && bp.micros < th.abs_floor_us
                && cp.micros < th.abs_floor_us;
            let worse = if lower_is_better { rel > rel_threshold } else { rel < -rel_threshold };
            let better = if lower_is_better { rel < -rel_threshold } else { rel > rel_threshold };
            deltas.push(PointDelta {
                series: base_series.label.clone(),
                x: bp.x,
                base: bp.micros,
                cand: cp.micros,
                rel,
                regressed: worse && !under_floor,
                improved: better && !under_floor,
            });
        }
    }
    let status = if !missing.is_empty() {
        PanelStatus::Missing
    } else if deltas.iter().any(|d| d.regressed) {
        PanelStatus::Regressed
    } else if deltas.iter().any(|d| d.improved) {
        PanelStatus::Improved
    } else {
        PanelStatus::Unchanged
    };
    PanelReport {
        id: base.id.clone(),
        unit: base.unit.clone(),
        status,
        rel_threshold,
        deltas,
        missing,
    }
}

/// Compare candidate trajectories against baselines, panel by panel.
pub fn compare(
    baseline: &[Trajectory],
    candidate: &[Trajectory],
    th: &Thresholds,
) -> CompareReport {
    let mut panels = Vec::new();
    for base in baseline {
        match candidate.iter().find(|c| c.panel.id == base.panel.id) {
            Some(cand) => panels.push(compare_panel(&base.panel, &cand.panel, th)),
            None => panels.push(PanelReport {
                id: base.panel.id.clone(),
                unit: base.panel.unit.clone(),
                status: PanelStatus::Missing,
                rel_threshold: th.for_panel(&base.panel.id),
                deltas: Vec::new(),
                missing: Vec::new(),
            }),
        }
    }
    for cand in candidate {
        if !baseline.iter().any(|b| b.panel.id == cand.panel.id) {
            panels.push(PanelReport {
                id: cand.panel.id.clone(),
                unit: cand.panel.unit.clone(),
                status: PanelStatus::New,
                rel_threshold: th.for_panel(&cand.panel.id),
                deltas: Vec::new(),
                missing: Vec::new(),
            });
        }
    }
    CompareReport { panels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExpConfig;
    use crate::{Point, Series, UNIT_PERCENT};

    fn traj(id: &str, unit: &str, values: &[(u64, f64)]) -> Trajectory {
        Trajectory::new(
            Panel {
                id: id.into(),
                title: id.into(),
                x_label: "x".into(),
                unit: unit.into(),
                series: vec![Series {
                    label: "S".into(),
                    points: values.iter().map(|&(x, v)| Point::flat(x, v)).collect(),
                }],
            },
            &ExpConfig::quick(),
        )
    }

    #[test]
    fn self_compare_is_all_unchanged() {
        let t = vec![traj("a", UNIT_MICROS, &[(1, 100.0), (2, 200.0)])];
        let report = compare(&t, &t, &Thresholds::default());
        assert!(!report.has_failures());
        assert_eq!(report.panels[0].status, PanelStatus::Unchanged);
    }

    #[test]
    fn slowdown_past_threshold_regresses_micros_panels() {
        let base = vec![traj("a", UNIT_MICROS, &[(1, 100.0)])];
        let cand = vec![traj("a", UNIT_MICROS, &[(1, 130.0)])];
        let report = compare(&base, &cand, &Thresholds::default());
        assert!(report.has_failures());
        let p = &report.panels[0];
        assert_eq!(p.status, PanelStatus::Regressed);
        let worst = p.worst().unwrap();
        assert_eq!(worst.x, 1);
        assert!((worst.rel - 0.3).abs() < 1e-9);
        assert!(report.to_markdown().contains("regressed"));
    }

    #[test]
    fn direction_flips_for_percent_panels() {
        // A hit rate FALLING is the regression; rising is an improvement.
        let base = vec![traj("cache", UNIT_PERCENT, &[(1, 80.0)])];
        let down = vec![traj("cache", UNIT_PERCENT, &[(1, 40.0)])];
        let up = vec![traj("cache", UNIT_PERCENT, &[(1, 100.0)])];
        let th = Thresholds::default();
        assert_eq!(compare(&base, &down, &th).panels[0].status, PanelStatus::Regressed);
        assert_eq!(compare(&base, &up, &th).panels[0].status, PanelStatus::Improved);
        // And a faster micros panel is an improvement, not a regression.
        let fast_base = vec![traj("a", UNIT_MICROS, &[(1, 100.0)])];
        let fast_cand = vec![traj("a", UNIT_MICROS, &[(1, 60.0)])];
        assert_eq!(compare(&fast_base, &fast_cand, &th).panels[0].status, PanelStatus::Improved);
    }

    #[test]
    fn threshold_boundary_is_exclusive() {
        // Exactly +20% on a ±20% threshold is unchanged; just past it
        // regresses.
        let base = vec![traj("a", UNIT_MICROS, &[(1, 100.0)])];
        let at = vec![traj("a", UNIT_MICROS, &[(1, 120.0)])];
        let past = vec![traj("a", UNIT_MICROS, &[(1, 120.1)])];
        let th = Thresholds::default();
        assert_eq!(compare(&base, &at, &th).panels[0].status, PanelStatus::Unchanged);
        assert_eq!(compare(&base, &past, &th).panels[0].status, PanelStatus::Regressed);
    }

    #[test]
    fn per_panel_override_beats_the_default() {
        let base = vec![traj("noisy", UNIT_MICROS, &[(1, 100.0)])];
        let cand = vec![traj("noisy", UNIT_MICROS, &[(1, 160.0)])];
        let th =
            Thresholds { per_panel: vec![("noisy".to_owned(), 0.80)], ..Thresholds::default() };
        let report = compare(&base, &cand, &th);
        assert_eq!(report.panels[0].status, PanelStatus::Unchanged);
        assert_eq!(report.panels[0].rel_threshold, 0.80);
    }

    #[test]
    fn missing_panel_fails_and_new_panel_does_not() {
        let base = vec![traj("a", UNIT_MICROS, &[(1, 10.0)])];
        let cand = vec![traj("b", UNIT_MICROS, &[(1, 10.0)])];
        let report = compare(&base, &cand, &Thresholds::default());
        assert!(report.has_failures(), "a disappeared");
        assert_eq!(report.count(PanelStatus::Missing), 1);
        assert_eq!(report.count(PanelStatus::New), 1);
        let only_new = compare(&[], &cand, &Thresholds::default());
        assert!(!only_new.has_failures(), "brand-new panels pass the gate");
        let md = report.to_markdown();
        assert!(md.contains("panel disappeared") && md.contains("first measurement"));
    }

    #[test]
    fn missing_series_or_point_fails_and_new_ones_do_not() {
        let two_series = |a: &[(u64, f64)], b: &[(u64, f64)]| {
            let mut t = traj("p", UNIT_MICROS, a);
            t.panel.series.push(Series {
                label: "T".into(),
                points: b.iter().map(|&(x, v)| Point::flat(x, v)).collect(),
            });
            vec![t]
        };
        let base = two_series(&[(1, 10.0), (2, 20.0)], &[(1, 30.0)]);
        let th = Thresholds::default();
        // The candidate dropped series T.
        let no_series = vec![traj("p", UNIT_MICROS, &[(1, 10.0), (2, 20.0)])];
        let report = compare(&base, &no_series, &th);
        assert!(report.has_failures(), "a series disappeared");
        assert_eq!(report.panels[0].status, PanelStatus::Missing);
        assert_eq!(report.panels[0].missing, ["series T"]);
        assert!(report.to_markdown().contains("lost series T"));
        // The candidate dropped point S @x=2 but kept every series.
        let no_point = two_series(&[(1, 10.0)], &[(1, 30.0)]);
        let report = compare(&base, &no_point, &th);
        assert!(report.has_failures(), "a point disappeared");
        assert_eq!(report.panels[0].missing, ["S @x=2"]);
        assert_eq!(report.panels[0].deltas.len(), 2, "the shared points are still compared");
        // A series or point only the candidate has is new and passes.
        let mut grown = two_series(&[(1, 10.0), (2, 20.0), (3, 40.0)], &[(1, 30.0)]);
        grown[0].panel.series.push(Series { label: "U".into(), points: vec![Point::flat(1, 1.0)] });
        let report = compare(&base, &grown, &th);
        assert!(!report.has_failures());
        assert_eq!(report.panels[0].status, PanelStatus::Unchanged);
    }

    #[test]
    fn zero_and_subfloor_points_never_regress() {
        // Both-zero points are unchanged; zero→tiny stays under the
        // absolute floor; zero→large regresses.
        let base = vec![traj("a", UNIT_MICROS, &[(1, 0.0), (2, 0.0), (3, 0.0), (4, 5.0)])];
        let cand = vec![traj("a", UNIT_MICROS, &[(1, 0.0), (2, 12.0), (3, 500.0), (4, 19.0)])];
        let report = compare(&base, &cand, &Thresholds::default());
        let d = &report.panels[0].deltas;
        assert!(!d[0].regressed, "0 -> 0 is unchanged");
        assert!(!d[1].regressed, "sub-floor jitter is not a regression");
        assert!(d[2].regressed, "0 -> 500us is a real regression");
        assert!(!d[3].regressed, "5us -> 19us stays under the 20us floor");
    }

    #[test]
    fn grid_changes_do_not_misalign_points() {
        // Candidate dropped x=2 and added x=3: x=1 still matches by key,
        // and the dropped point is reported as missing.
        let base = vec![traj("a", UNIT_MICROS, &[(1, 100.0), (2, 200.0)])];
        let cand = vec![traj("a", UNIT_MICROS, &[(1, 101.0), (3, 999.0)])];
        let report = compare(&base, &cand, &Thresholds::default());
        let p = &report.panels[0];
        assert_eq!(p.status, PanelStatus::Missing);
        assert_eq!(p.missing, ["S @x=2"]);
        assert_eq!(p.deltas.len(), 1, "only the shared x=1 point is compared");
        assert!(!p.deltas[0].regressed);
    }
}
