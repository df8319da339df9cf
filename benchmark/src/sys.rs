//! Operating-system plumbing: child processes with their own resource
//! usage, `/proc` readers, building the `tpq` binary, and run provenance.

use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use tpq_base::Json;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads /proc and `struct rusage` as laid out on 64-bit Linux");

#[repr(C)]
#[derive(Debug, Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs of which
/// the first is `ru_maxrss` (KiB).
#[repr(C)]
#[derive(Debug, Default, Clone, Copy)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RawRusage) -> i32;
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// CPU time and peak resident set of one process.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User plus system CPU time.
    pub cpu: Duration,
    /// Peak resident set size in MiB (`VmHWM`).
    pub peak_rss_mb: f64,
}

impl Usage {
    fn from_raw(raw: &RawRusage) -> Usage {
        let micros = |t: Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
        Usage {
            cpu: Duration::from_micros(micros(raw.utime) + micros(raw.stime)),
            peak_rss_mb: raw.maxrss as f64 / 1024.0,
        }
    }
}

/// Resource usage of this process so far.
pub fn self_usage() -> Usage {
    let mut raw = RawRusage::default();
    // SAFETY: `raw` is a properly aligned, writable `struct rusage` for
    // 64-bit Linux (checked by the compile_error gate above), and
    // RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with valid arguments");
    Usage::from_raw(&raw)
}

/// A child process that is always reaped: [`Proc::wait`] collects its
/// exit status and resource usage, and dropping an unwaited `Proc` kills
/// it and waits, so no run leaves a process behind.
pub struct Proc {
    child: Child,
    started: Instant,
    reaped: bool,
}

/// How a child process ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Whether it exited normally with status 0.
    pub success: bool,
    /// Spawn-to-reap wall time.
    pub wall: Duration,
    /// The child's own CPU time and peak RSS.
    pub usage: Usage,
}

impl Proc {
    /// Spawn `cmd`; the wall clock of [`Exit::wall`] starts here.
    pub fn spawn(cmd: &mut Command) -> std::io::Result<Proc> {
        let started = Instant::now();
        let child = cmd.spawn()?;
        Ok(Proc { child, started, reaped: false })
    }

    /// The child's standard output pipe (when spawned with one).
    pub fn stdout(&mut self) -> Option<std::process::ChildStdout> {
        self.child.stdout.take()
    }

    /// The child's standard error pipe (when spawned with one).
    pub fn stderr(&mut self) -> Option<std::process::ChildStderr> {
        self.child.stderr.take()
    }

    /// Block until the child exits and return its status and usage.
    pub fn wait(mut self) -> std::io::Result<Exit> {
        let (status, usage) = self.reap()?;
        let wall = self.started.elapsed();
        // A normal exit has the low seven bits clear; the code is bits 8..16.
        let success = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
        Ok(Exit { success, wall, usage })
    }

    fn reap(&mut self) -> std::io::Result<(i32, Usage)> {
        let pid = i32::try_from(self.child.id()).expect("Linux pids fit in i32");
        let mut status = 0i32;
        let mut raw = RawRusage::default();
        loop {
            // SAFETY: `status` and `raw` are valid, writable and properly
            // aligned for the duration of the call; `pid` is our own
            // child, not yet reaped (`reaped` is false until this
            // returns successfully).
            let rc = unsafe { wait4(pid, &mut status, 0, &mut raw) };
            if rc == pid {
                self.reaped = true;
                return Ok((status, Usage::from_raw(&raw)));
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.reap();
        }
    }
}

/// Build the release `tpq` binary of the repository at `root` and return
/// its path. Cargo's own target directory rules apply (`CARGO_TARGET_DIR`
/// when set); the path comes from Cargo's artifact messages.
pub fn build_tpq(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let out = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "--bin", "tpq"])
        .arg("--message-format=json")
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building tpq failed ({})", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|line| Json::parse(line).ok())
        .filter(|msg| msg.get("reason").and_then(Json::as_str) == Some("compiler-artifact"))
        .filter(|msg| {
            msg.get("target").and_then(|t| t.get("name")).and_then(Json::as_str) == Some("tpq")
        })
        .find_map(|msg| msg.get("executable").and_then(Json::as_str).map(PathBuf::from))
        .ok_or_else(|| "cargo reported no tpq executable".to_owned())
}

/// Aggregate CPU counters from the first line of `/proc/stat`, in ticks:
/// `(steal, total)`.
pub fn cpu_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of all CPU time the hypervisor stole between two
/// [`cpu_ticks`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out at `root`, read from `.git` without running
/// git (a checkout without `.git` reports `unknown`).
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown".to_owned() } else { head.to_owned() };
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_suffix(reference).map(|rev| rev.trim().to_owned()))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// FNV-1a digest of the program's sources (manifests, lock file and every
/// file under `src/` and `crates/*/src/`), so a result names the code it
/// measured even where there is no `.git`.
pub fn source_digest(root: &Path) -> String {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_files(&root.join("src"), &mut files);
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            files.push(entry.path().join("Cargo.toml"));
            collect_files(&entry.path().join("src"), &mut files);
        }
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in &files {
        let mut bytes = Vec::new();
        if std::fs::File::open(file).and_then(|mut f| f.read_to_end(&mut bytes)).is_ok() {
            eat(file.strip_prefix(root).unwrap_or(file).to_string_lossy().as_bytes());
            eat(&bytes);
        }
    }
    format!("{hash:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}
