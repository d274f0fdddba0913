//! Facts about the host, read at run time.

use std::fs;
use std::time::Instant;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Size in bytes of the highest-level data or unified cache of CPU 0, from
/// sysfs; `None` where sysfs does not say.
pub fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for entry in fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()? {
        let dir = entry.ok()?.path();
        let read = |f: &str| fs::read_to_string(dir.join(f)).ok();
        let Some(kind) = read("type") else { continue };
        if kind.trim() == "Instruction" {
            continue;
        }
        let level: u32 = read("level").and_then(|s| s.trim().parse().ok())?;
        let size = read("size").and_then(|s| parse_size(s.trim()))?;
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, size));
        }
    }
    best.map(|(_, size)| size)
}

fn parse_size(s: &str) -> Option<u64> {
    let (digits, unit) = s.split_at(s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len()));
    let n: u64 = digits.parse().ok()?;
    Some(match unit {
        "" => n,
        "K" => n << 10,
        "M" => n << 20,
        "G" => n << 30,
        _ => return None,
    })
}

/// A line naming `what`, its size, the LLC size and their ratio.
pub fn working_set_note(what: &str, bytes: u64) -> String {
    match llc_bytes() {
        Some(llc) => format!(
            "working set: {what} = {:.2} MiB; LLC = {:.1} MiB; working set / LLC = {:.3}",
            bytes as f64 / (1u64 << 20) as f64,
            llc as f64 / (1u64 << 20) as f64,
            bytes as f64 / llc as f64
        ),
        None => format!(
            "working set: {what} = {:.2} MiB; LLC size unknown",
            bytes as f64 / (1u64 << 20) as f64
        ),
    }
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The last pid the kernel handed out in this pid namespace: every thread
/// or process created in the namespace takes the next one.
pub fn last_pid() -> Option<u64> {
    read_u64("/proc/sys/kernel/ns_last_pid")
}

/// Pids handed out in this pid namespace since [`last_pid`] read `before`
/// (allowing for one wrap at `pid_max`).
pub fn pids_since(before: u64) -> Option<u64> {
    let now = last_pid()?;
    if now >= before {
        Some(now - before)
    } else {
        Some(now + read_u64("/proc/sys/kernel/pid_max")? - before)
    }
}

/// A timed window counts only if the hypervisor stole at most this share
/// of the CPUs' time during it.  On a 2-vCPU VM, undisturbed runs saw
/// 0.3–2.3 % steal; a run that saw 21 % served 43 % fewer jobs.
pub const QUIET_STEAL: f64 = 0.05;
/// Once a timed phase has run this many times its `--seconds` of wall
/// clock, every further window counts, so a run on a busy host ends in
/// time and reports what it measured.
pub const WALL_ALLOWANCE: f64 = 2.0;

/// The hypervisor's steal time since a start, from the `steal` column of
/// `/proc/stat` (ticks of 10 ms, summed over CPUs).
pub struct Steal {
    at: Instant,
    ticks: Option<u64>,
}

impl Steal {
    pub fn start() -> Self {
        Steal {
            at: Instant::now(),
            ticks: steal_ticks(),
        }
    }

    /// The share of the CPUs' time stolen since the start; 0 where
    /// `/proc/stat` does not say.
    pub fn share(&self) -> f64 {
        match (self.ticks, steal_ticks()) {
            (Some(a), Some(b)) => {
                let cpu_ms = self.at.elapsed().as_secs_f64() * 1e3 * nproc() as f64;
                b.saturating_sub(a) as f64 * 10.0 / cpu_ms
            }
            _ => 0.0,
        }
    }
}

/// Which windows of a timed phase counted.  Another tenant of the host
/// that takes the CPUs away from this VM slows every layer at once; the
/// program cannot cause that, so a window in which it happened is run
/// again instead of counted.  Every window's outputs are verified and its
/// jobs counted as attempted either way.
#[derive(Debug, Default)]
pub struct Windows {
    kept: Vec<f64>,
    dropped: Vec<f64>,
}

impl Windows {
    /// Whether the window that ran since `steal` counts: it does if the
    /// host stayed quiet, or if `over_time`.
    pub fn admit(&mut self, steal: &Steal, over_time: bool) -> bool {
        let share = steal.share();
        let counts = share <= QUIET_STEAL || over_time;
        if counts {
            self.kept.push(share);
        } else {
            self.dropped.push(share);
        }
        counts
    }

    /// A line on which of `what`'s windows counted, with the steal in each.
    pub fn note(&self, what: &str) -> String {
        let pct = |v: &[f64]| {
            v.iter()
                .map(|s| format!("{:.1}", s * 100.0))
                .collect::<Vec<_>>()
        };
        format!(
            "{what}: {} counted (steal % {:?}); {} run again because the hypervisor stole more than {:.0} % of the CPUs' time (steal % {:?})",
            self.kept.len(),
            pct(&self.kept),
            self.dropped.len(),
            QUIET_STEAL * 100.0,
            pct(&self.dropped)
        )
    }
}

fn steal_ticks() -> Option<u64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    cpu.split_whitespace().nth(7)?.parse().ok()
}

fn read_u64(path: &str) -> Option<u64> {
    fs::read_to_string(path).ok()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sysfs_sizes() {
        assert_eq!(parse_size("107520K"), Some(105 << 20));
        assert_eq!(parse_size("4M"), Some(4 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("3X"), None);
    }

    #[test]
    fn the_pid_counter_sees_a_thread_spawn() {
        let Some(before) = last_pid() else {
            return; // no /proc: the traced run fails instead
        };
        std::thread::spawn(|| {}).join().unwrap();
        assert!(pids_since(before).unwrap() >= 1);
    }
}
