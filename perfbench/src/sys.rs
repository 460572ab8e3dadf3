//! Process and host facts: CPU affinity, resource usage, and the host
//! provenance stamped into every report. Linux only — the benchmark
//! reads `getrusage`, `sched_{get,set}affinity` and `/proc`.

use std::fmt::Write as _;
use std::path::Path;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct RawUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

/// `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u64; 16];

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut RawUsage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Whole-process resource usage: every thread, including exited ones.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Usage {
    /// User plus system CPU time, in seconds.
    pub cpu_s: f64,
    /// Peak resident set size so far, in KiB: `VmHWM` of
    /// `/proc/self/status`. (`ru_maxrss` would not do: exec carries the
    /// launching process's peak over, e.g. that of `cargo run`.)
    pub max_rss_kb: u64,
    /// Minor page faults.
    pub minor_faults: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

impl Usage {
    /// The process's usage now.
    #[must_use]
    pub fn now() -> Usage {
        let mut raw = RawUsage::default();
        // SAFETY: `raw` is a writable, correctly laid out `struct rusage`
        // for 64-bit Linux, and RUSAGE_SELF is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Usage {
            cpu_s: secs(&raw.utime) + secs(&raw.stime),
            max_rss_kb: peak_rss_kb(),
            minor_faults: raw.minflt.max(0) as u64,
            ctx_switches: (raw.nvcsw + raw.nivcsw).max(0) as u64,
        }
    }

    /// Counters accumulated since `earlier` (peak RSS is kept as is).
    #[must_use]
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            cpu_s: self.cpu_s - earlier.cpu_s,
            max_rss_kb: self.max_rss_kb,
            minor_faults: self.minor_faults - earlier.minor_faults,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }
}

/// `VmHWM` of `/proc/self/status`, in KiB; 0 if unreadable.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|value| value.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// The CPUs the calling thread may run on.
#[must_use]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Confines the calling thread — and every thread it spawns afterwards
/// — to `cpus`.
///
/// # Errors
///
/// A message when the kernel refuses the mask.
pub fn set_cpus(cpus: &[usize]) -> Result<(), String> {
    let mut mask: CpuSet = [0; 16];
    for &cpu in cpus.iter().filter(|&&c| c < 1024) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!("sched_setaffinity({cpus:?}) failed"))
    }
}

/// Renders a CPU list compactly: `0-3,6`.
#[must_use]
pub fn cpu_list(cpus: &[usize]) -> String {
    let mut out = String::new();
    let mut i = 0;
    while i < cpus.len() {
        let mut j = i;
        while j + 1 < cpus.len() && cpus[j + 1] == cpus[j] + 1 {
            j += 1;
        }
        if !out.is_empty() {
            out.push(',');
        }
        if j > i {
            let _ = write!(out, "{}-{}", cpus[i], cpus[j]);
        } else {
            let _ = write!(out, "{}", cpus[i]);
        }
        i = j + 1;
    }
    out
}

/// Steal time so far, in clock ticks of 1/100 s (the 8th value of a
/// `cpu` line of `/proc/stat`), summed over `cpus`, or for the whole host
/// when `cpus` is empty; 0 where the kernel does not report it.
#[must_use]
pub fn steal_ticks(cpus: &[usize]) -> u64 {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    text.lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let name = fields.next()?.strip_prefix("cpu")?;
            let wanted = if cpus.is_empty() {
                name.is_empty()
            } else {
                name.parse().is_ok_and(|cpu: usize| cpus.contains(&cpu))
            };
            if wanted {
                fields.nth(7)?.parse::<u64>().ok()
            } else {
                None
            }
        })
        .sum()
}

/// Facts about the host a measurement was taken on.
#[derive(Clone, Debug, PartialEq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// The `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// The `flags` line of the first CPU in `/proc/cpuinfo`.
    pub cpu_flags: String,
    /// Whether a hardware `cpu` PMU is exposed: `"available"` or
    /// `"unavailable"`.
    pub pmu: &'static str,
}

impl Host {
    /// Reads the host facts.
    #[must_use]
    pub fn probe() -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |key: &str| {
            cpuinfo
                .lines()
                .find(|line| line.split(':').next().map(str::trim) == Some(key))
                .and_then(|line| line.split_once(':'))
                .map(|(_, value)| value.trim().to_string())
                .unwrap_or_else(|| "unknown".to_string())
        };
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model: field("model name"),
            cpu_flags: field("flags"),
            pmu: if Path::new("/sys/bus/event_source/devices/cpu").exists() {
                "available"
            } else {
                "unavailable"
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_render_as_ranges() {
        assert_eq!(cpu_list(&[0, 1, 2, 3, 6]), "0-3,6");
        assert_eq!(cpu_list(&[1]), "1");
        assert_eq!(cpu_list(&[]), "");
    }

    #[test]
    fn usage_grows_with_work() {
        let before = Usage::now();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        let after = Usage::now().since(&before);
        assert!(after.cpu_s >= 0.0 && after.max_rss_kb > 0, "{x}");
    }
}
