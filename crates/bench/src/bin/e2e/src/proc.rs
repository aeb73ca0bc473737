//! What `/proc/self` knows about this process, and the stamp every output
//! carries (git rev, seed, nproc, rustc, run-directory filesystem, phase
//! lengths).

use std::path::Path;
use std::process::Command;

use muppet_core::json::Json;

/// Linux reports process times in clock ticks of 1/100 s on every
/// supported configuration (`getconf CLK_TCK`).
pub const TICKS_PER_S: f64 = 100.0;

/// ⟨utime, stime⟩ in clock ticks from a `stat` file (`/proc/self/stat`
/// for the process, `/proc/thread-self/stat` for the calling thread).
pub fn cpu_ticks(stat_path: &str) -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string(stat_path).ok()?;
    // Field 2 is "(comm)" and may hold spaces: count from the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    Some((fields.next()?.parse().ok()?, fields.next()?.parse().ok()?))
}

/// Process CPU seconds so far: ⟨user, system⟩.
pub fn process_cpu_split_s() -> (f64, f64) {
    let (u, s) = cpu_ticks("/proc/self/stat").unwrap_or((0, 0));
    (u as f64 / TICKS_PER_S, s as f64 / TICKS_PER_S)
}

/// Process CPU seconds so far, user and system together.
pub fn process_cpu_s() -> f64 {
    let (user, system) = process_cpu_split_s();
    user + system
}

/// The calling thread's CPU seconds so far.
pub fn thread_cpu_s() -> f64 {
    let (u, s) = cpu_ticks("/proc/thread-self/stat").unwrap_or((0, 0));
    (u + s) as f64 / TICKS_PER_S
}

/// A numeric field of `/proc/self/status` (`VmHWM`, `Threads`,
/// `nonvoluntary_ctxt_switches`, ...), without its unit.
pub fn status_field(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Filesystem type of the mount holding `path`, from
/// `/proc/self/mountinfo` (longest mount point that prefixes it).
fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let (head, tail) = line.split_once(" - ")?;
            let mount_point = head.split_whitespace().nth(4)?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), tail.split_whitespace().next().unwrap_or("?")))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs.to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The provenance object stamped on every output.
pub fn stamp(seed: u64, run_dir: &Path, phases: &[(&str, f64)]) -> Json {
    let unknown = || "unknown".to_string();
    Json::obj([
        ("git_rev", Json::str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown))),
        ("seed", Json::num(seed as f64)),
        (
            "nproc",
            Json::num(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0) as f64),
        ),
        ("rustc", Json::str(command_line("rustc", &["--version"]).unwrap_or_else(unknown))),
        ("run_dir_fs", Json::str(fs_type(run_dir))),
        ("phase_seconds", Json::obj(phases.iter().map(|(name, s)| (*name, Json::num(*s))))),
    ])
}
