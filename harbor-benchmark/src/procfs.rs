//! What the operating system says about this process. Linux only, like the
//! rest of the harness (`/proc` is the one interface available without a
//! libc binding).

use std::fs;

/// Mapped regions of this process. Every live or unjoined thread holds a
/// stack and a guard mapping, so this is how thread-stack retention shows.
pub fn maps_lines() -> usize {
    fs::read_to_string("/proc/self/maps")
        .map(|s| s.lines().count())
        .unwrap_or(0)
}

/// A round stops here instead of letting the kernel kill the process at
/// `vm.max_map_count` (65530 by default): the abort is then an error
/// message naming the cause, not a SIGABRT from a failed thread spawn.
pub const MAPS_LIMIT: usize = 55_000;
const _: () = assert!(
    MAPS_LIMIT < 65_530,
    "the guard must sit below the kernel's default"
);

pub fn check_maps(lines: usize) -> Result<(), String> {
    if lines > MAPS_LIMIT {
        return Err(format!(
            "{lines} mapped regions, above the guard of {MAPS_LIMIT}: the workers retain a \
             stack per per-transaction connection thread (see README), and the process would \
             die at vm.max_map_count; shorten the cluster's lifetime"
        ));
    }
    Ok(())
}

fn status_field(name: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(name))?;
    line[name.len()..]
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Starts a new high-water mark for `peak_rss_mb` at the current resident
/// size, so each round reports its own peak and the run can take a median
/// rather than a maximum. Where the kernel refuses, the mark simply keeps
/// rising and every round reports the process's peak so far.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size since the last reset, in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

pub fn threads() -> u64 {
    status_field("Threads").unwrap_or(0)
}

/// User plus system CPU seconds of the whole process, exited threads
/// included. `/proc/self/stat` counts in clock ticks; Linux fixes the
/// user-visible tick at 100 Hz on every architecture Rust targets.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields count from after
    // its closing parenthesis, where field 3 is the first.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (tick(11) + tick(12)) as f64 / 100.0 // utime, stime = fields 14, 15
}

/// CPUs the machine has online, whatever this process is pinned to.
pub fn nproc() -> usize {
    fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_guard_trips_above_the_limit_only() {
        assert!(check_maps(0).is_ok());
        assert!(check_maps(MAPS_LIMIT).is_ok());
        let err = check_maps(MAPS_LIMIT + 1).unwrap_err();
        assert!(err.contains("vm.max_map_count"), "{err}");
    }

    #[test]
    fn reads_this_process() {
        assert!(maps_lines() > 0);
        assert!(peak_rss_mb() > 0.0);
        reset_peak_rss();
        assert!(peak_rss_mb() > 0.0);
        assert!(threads() >= 1);
        assert!(nproc() >= 1);
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.02 {
            for i in 0..1_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
        }
        assert!(cpu_seconds() > before);
    }
}
