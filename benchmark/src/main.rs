//! The tpq benchmark: three seeded workloads, end to end and layer by
//! layer. See `README.md` beside this crate for what each workload and
//! metric is for.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve-zipf --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --self-test
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the named workload's end-to-end metrics; with `--trace 1`
//! they are the per-layer metrics of all three workloads.

mod inputs;
mod layers;
mod oracle;
mod report;
mod selftest;
mod serve;
mod sys;
mod workloads;

use inputs::Sizes;
use report::Outcome;
use std::path::{Path, PathBuf};
use tpq_base::Json;

/// The workloads, by the names `--workload` takes.
pub const WORKLOADS: [&str; 3] = ["serve-zipf", "batch-cold", "match-deep"];

/// Everything a workload or traced section needs to run.
pub struct Ctx {
    /// The release `tpq` binary.
    pub tpq: PathBuf,
    /// Scratch directory for generated files.
    pub work: PathBuf,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed section, in seconds.
    pub seconds: f64,
    /// Input sizes.
    pub sizes: Sizes,
}

/// Run one workload end to end (`trace == false`) or the traced layer
/// sections (`trace == true`).
pub fn run(ctx: &Ctx, workload: &str, trace: bool) -> Result<Outcome, String> {
    if trace {
        return layers::all(ctx);
    }
    match workload {
        "serve-zipf" => workloads::serve_zipf(ctx),
        "batch-cold" => workloads::batch_cold(ctx),
        "match-deep" => workloads::match_deep(ctx),
        other => Err(format!("unknown workload '{other}'")),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, self_test: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} needs {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a non-negative integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.self_test && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(args)
}

/// A scratch directory under this crate, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(crate_dir: &Path) -> Result<WorkDir, String> {
        let dir = crate_dir.join("work").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes `work/` too unless another run still has a directory there.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() {
    if let Err(e) = real_main() {
        eprintln!("benchmark: {e}");
        std::process::exit(1);
    }
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = crate_dir.parent().ok_or("the benchmark crate has no parent directory")?;
    let tpq = sys::build_tpq(root)?;
    let work = WorkDir::create(crate_dir)?;
    if args.self_test {
        return selftest::run_self_test(root, &tpq, &work.0);
    }
    let ctx = Ctx {
        tpq,
        work: work.0.clone(),
        seed: args.seed,
        seconds: args.seconds,
        sizes: Sizes::full(),
    };
    let ticks = sys::cpu_ticks();
    let outcome = run(&ctx, &args.workload, args.trace)?;
    let provenance = Json::object(vec![
        ("workload", Json::Str(args.workload.clone())),
        ("trace", Json::Bool(args.trace)),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Float(args.seconds)),
        ("git_rev", Json::Str(sys::git_rev(root))),
        ("source_digest", Json::Str(sys::source_digest(root))),
        ("nproc", Json::Int(sys::nproc() as i64)),
        ("steal_share", Json::Float(sys::steal_share(ticks, sys::cpu_ticks()))),
    ]);
    println!("# provenance {}", provenance.to_string_compact());
    outcome.print();
    Ok(())
}
