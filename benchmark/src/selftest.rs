//! `--self-test`: a quick-size run of everything, checking the contract
//! the benchmark promises rather than measuring anything.
//!
//! * every workload and metric name matches `[A-Za-z0-9_.-]+`, and the
//!   names the runs print are exactly those `BENCHMARK.json` lists;
//! * the same seed gives byte-identical inputs and a different seed gives
//!   different ones;
//! * every workload end to end, and the traced run, is correct: all
//!   oracles and consistency checks pass.

use crate::inputs::{BatchInputs, MatchInputs, ServeInputs, Sizes};
use crate::{run, Ctx, WORKLOADS};
use std::collections::BTreeSet;
use std::path::Path;
use tpq_base::Json;

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The `name` fields of the array `key` in `BENCHMARK.json`.
fn listed(spec: &Json, key: &str) -> BTreeSet<String> {
    spec.get(key)
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_owned))
        .collect()
}

/// Every input the program would see for `seed`, as bytes.
fn fingerprints(seed: u64, sizes: &Sizes) -> [Vec<u8>; 3] {
    [
        ServeInputs::generate(seed, sizes).fingerprint(),
        BatchInputs::generate(seed, sizes).fingerprint(),
        MatchInputs::generate(seed, sizes).fingerprint(),
    ]
}

/// Run the self-test; `Err` lists every failed check.
pub fn run_self_test(root: &Path, tpq: &Path, work: &Path) -> Result<(), String> {
    let mut failures = Vec::new();
    let text = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let spec = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let (end_to_end, per_layer) = (listed(&spec, "end_to_end"), listed(&spec, "per_layer"));
    let workloads = listed(&spec, "workloads");
    if workloads != WORKLOADS.iter().map(|w| w.to_string()).collect() {
        failures.push(format!("BENCHMARK.json workloads {workloads:?} differ from {WORKLOADS:?}"));
    }
    for name in workloads.iter().chain(&end_to_end).chain(&per_layer) {
        if !valid_name(name) {
            failures.push(format!("invalid name '{name}'"));
        }
    }

    let sizes = Sizes::quick();
    let (a, b, c) = (fingerprints(1, &sizes), fingerprints(1, &sizes), fingerprints(2, &sizes));
    for (i, workload) in WORKLOADS.iter().enumerate() {
        if a[i] != b[i] {
            failures.push(format!("{workload}: the same seed gave different inputs"));
        }
        if a[i] == c[i] {
            failures.push(format!("{workload}: seeds 1 and 2 gave identical inputs"));
        }
    }

    let ctx = Ctx { tpq: tpq.to_owned(), work: work.to_owned(), seed: 7, seconds: 0.5, sizes };
    let runs =
        WORKLOADS.iter().map(|w| (*w, false, &end_to_end)).chain([("all", true, &per_layer)]);
    for (workload, trace, want) in runs {
        let outcome = run(&ctx, if trace { WORKLOADS[0] } else { workload }, trace)?;
        let got: BTreeSet<String> = outcome.metrics.iter().map(|m| m.name.to_owned()).collect();
        if &got != want {
            let missing: Vec<_> = want.difference(&got).collect();
            let extra: Vec<_> = got.difference(want).collect();
            failures.push(format!(
                "{workload} (trace {trace}): missing {missing:?}, unlisted {extra:?}"
            ));
        }
        if !outcome.correct() {
            failures.push(format!(
                "{workload} (trace {trace}): {} of {} failed; {:?}",
                outcome.failed, outcome.attempted, outcome.problems
            ));
        }
        println!("self-test: {workload} (trace {trace}): {} operations checked", outcome.attempted);
    }
    if failures.is_empty() {
        println!("self-test: all checks passed");
        Ok(())
    } else {
        Err(format!("self-test failed:\n  {}", failures.join("\n  ")))
    }
}
