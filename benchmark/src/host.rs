//! What the benchmark learns about the machine it runs on: a noise sentinel,
//! the process's peak memory and the provenance recorded beside results.

use std::process::Command;
use std::time::Instant;

/// Times a fixed integer loop (about 50 ms on the reference box). Run before
/// and after a workload, the relative change says whether the machine's
/// speed moved under the measurement.
#[must_use]
pub fn calibration_spin_ms() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..20_000_000u64 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        x ^= x >> 29;
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc` does
/// not offer it.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Restricts this thread, and every thread it starts from now on, to one of
/// the hardware threads it may run on (the highest-numbered one). Returns
/// which, or `None` where that cannot be done.
///
/// With two hardware threads to choose from, the kernel moves the threads of
/// a request between them every few seconds, and a wake-up across hardware
/// threads of this virtual machine costs several times one within: the same
/// round trip reads 47, 65 or 115 us for seconds at a time. On one hardware
/// thread there is one placement, and the fastest of many samples is the
/// work's own cost (see `stats::fastest`).
#[cfg(target_os = "linux")]
#[must_use]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // The kernel's `cpu_set_t`: 1024 bits.
    let mut allowed = [0u64; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = allowed.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly the size passed; the call
    // only reads it.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(word * 64 + bit)
}

/// See the Linux version; elsewhere nothing is pinned.
#[cfg(not(target_os = "linux"))]
#[must_use]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Hardware threads available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Facts recorded beside every result file.
#[derive(Clone, Debug)]
pub struct Provenance {
    /// Hardware threads available.
    pub nproc: usize,
    /// The first `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Provenance {
    /// Collects the facts; anything unavailable reads `unknown`.
    #[must_use]
    pub fn collect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Provenance {
            nproc: nproc(),
            cpu_model,
            rustc: command_line("rustc", &["-V"]),
            // Asked only in the root of a git checkout: elsewhere git would
            // search the directories above, which are not the benchmark's.
            commit: if std::path::Path::new(".git").exists() {
                command_line("git", &["rev-parse", "HEAD"])
            } else {
                "unknown".to_string()
            },
        }
    }

    /// The facts as the body of a JSON object (no braces).
    #[must_use]
    pub fn json_fields(&self) -> String {
        format!(
            "\"nproc\":{},\"cpu_model\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\"",
            self.nproc,
            escape(&self.cpu_model),
            escape(&self.rustc),
            escape(&self.commit)
        )
    }
}

/// First line of a command's standard output; `unknown` when it cannot run
/// or fails. The child has ended when this returns.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Escapes a string for embedding in a JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
