//! What the numbers were measured on.

use std::path::Path;

/// Logical CPUs the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Whether the kernel exposes a hardware performance-monitoring unit
/// (without one, instruction and cycle counts are unavailable and only
/// wall time can be measured).
pub fn hardware_pmu() -> bool {
    Path::new("/sys/bus/event_source/devices/cpu").exists()
        || Path::new("/sys/bus/event_source/devices/cpu_core").exists()
}

/// Peak resident set size of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
