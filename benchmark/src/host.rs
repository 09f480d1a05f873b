//! What the benchmark reads from the host: CPU time, peak memory,
//! core count and the filesystem under the journal.

use std::path::Path;

/// (utime, stime) of this process in seconds, from `/proc/self/stat`
/// (10 ms ticks; includes threads that have already exited).
pub fn cpu_user_sys() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // The command name may contain spaces: fields resume after ')'.
    let after = stat.rsplit(')').next().unwrap_or("");
    let mut ticks = after
        .split_whitespace()
        .skip(11)
        .map(|v| v.parse::<u64>().expect("cpu ticks") as f64 / 100.0);
    (ticks.next().expect("utime"), ticks.next().expect("stime"))
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM");
    kib / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Filesystem type of the longest mount point that is a prefix of
/// `path`, from `/proc/mounts`.
pub fn filesystem_of(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype)
}
