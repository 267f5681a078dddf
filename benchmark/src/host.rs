//! What the benchmark reads from the machine it runs on: the
//! environment fingerprint stored in every result, process CPU time and
//! peak resident memory.

use std::process::Command;

use serde::{Deserialize, Serialize};

/// Where and how a result was measured. `compare` refuses to set two
/// results side by side when `nproc` or `aes_backend` differ, so rows
/// from a 1-core box and a multi-core box (or from AES-NI and the
/// portable cipher) are never mixed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fingerprint {
    pub nproc: u64,
    pub aes_backend: String,
    pub rustc: String,
    pub git_commit: String,
    pub seed: u64,
    pub warmup_s: f64,
    pub window_s: f64,
    pub workers: u64,
    /// `--smoke` runs are for checking that the benchmark works; their
    /// numbers are not comparable with anything.
    pub smoke: bool,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's standard output, or `"unknown"`: the
/// driver's checkout is not a git repository, and neither tool is
/// needed to measure.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

impl Fingerprint {
    pub fn capture(seed: u64, warmup_s: f64, window_s: f64, workers: usize, smoke: bool) -> Self {
        Fingerprint {
            nproc: nproc() as u64,
            aes_backend: haac_gc::active_backend().name().to_string(),
            rustc: first_line("rustc", &["-V"]),
            git_commit: first_line("git", &["rev-parse", "HEAD"]),
            seed,
            warmup_s,
            window_s,
            workers: workers as u64,
            smoke,
        }
    }
}

/// The program reads `HAAC_*` variables for its scale, AES backend,
/// pipeline depth and telemetry switch; any of them would silently
/// change what is measured. The benchmark sets none and refuses to run
/// with one set.
pub fn refuse_haac_env() -> Result<(), String> {
    match std::env::vars_os().find(|(key, _)| key.to_string_lossy().starts_with("HAAC_")) {
        Some((key, _)) => Err(format!(
            "{} is set: unset every HAAC_* variable, the benchmark measures the defaults",
            key.to_string_lossy()
        )),
        None => Ok(()),
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads getrusage and /proc/self/status as 64-bit Linux lays them out");

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs
/// the benchmark does not read.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User + system CPU seconds this process (every thread: both parties,
/// the accept loop, the bank producer) has used so far.
pub fn cpu_seconds() -> f64 {
    let mut usage = Rusage { utime: [0; 2], stime: [0; 2], rest: [0; 14] };
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout
    // the C library expects on this target (checked by the cfg above),
    // and RUSAGE_SELF (0) is a valid `who`.
    let status = unsafe { getrusage(0, &mut usage) };
    assert_eq!(status, 0, "getrusage(RUSAGE_SELF) cannot fail with valid arguments");
    let seconds = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    seconds(usage.utime) + seconds(usage.stime)
}

/// `VmHWM`: the most resident memory the process has held, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status reads");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line in kB");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_positive() {
        let before = cpu_seconds();
        let mut x = 1u64;
        while cpu_seconds() - before < 0.02 {
            for i in 0..100_000u64 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
            }
        }
        assert!(cpu_seconds() > before);
        assert!(peak_rss_mb() > 0.5);
    }
}
