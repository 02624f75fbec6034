//! Two settings of the process, made before anything is measured, that take
//! the box's two largest sources of run-to-run noise out of the numbers.
//! Both are the same on either side of any comparison; the README has the
//! measurements behind them.

/// glibc's allocator, pinned through its environment variables (read once,
/// at start-up — hence the re-exec):
///
/// - the trim and mmap thresholds, which glibc otherwise adjusts from the
///   heap's recent history: a 200k-row result is 100 MB of small vectors,
///   and left alone a round's full scans ran at 40 ms or at 55 ms depending
///   on what sat on top of the heap when the round began;
/// - one arena: with the usual arena per thread, memory freed by one round's
///   threads is not reused by the next round's, and the resident set grew by
///   50–70 MB a round. On one CPU a single arena costs no contention.
const MALLOC: [(&str, &str); 4] = [
    ("MALLOC_TRIM_THRESHOLD_", "4000000000"),
    ("MALLOC_TOP_PAD_", "16777216"),
    ("MALLOC_MMAP_THRESHOLD_", "33554432"),
    ("MALLOC_ARENA_MAX", "1"),
];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Room for 1024 CPUs, the size of glibc's `cpu_set_t`.
type CpuMask = [u64; 16];

/// Restricts this thread, and so every thread it starts from now on, to one
/// of the CPUs it may run on (the highest-numbered: the box keeps its
/// housekeeping threads on CPU 0). Returns that CPU.
///
/// The box has two virtual CPUs, and this thread-per-connection system is
/// faster on one of them than on both: spread by the kernel, every hand-off
/// between threads is a cross-CPU wake-up and every `mmap`/`mprotect` of a
/// connection thread's stack a TLB-shootdown interrupt to the other
/// virtual CPU, and `ingest_front` commits 1650 transactions a second
/// instead of 4000 — or something in between, depending on where the
/// process was started. On one CPU there is one answer. The price: no
/// parallel path inside the system can show a gain here (README, "Load
/// shape", has the layouts tried).
pub fn to_one_cpu() -> Option<usize> {
    let mut allowed: CpuMask = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed; the kernel writes at most that many bytes. Pid 0 is the caller.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = allowed.iter().rposition(|w| *w != 0)?;
    let cpu = word * 64 + 63 - allowed[word].leading_zeros() as usize;
    let mut one: CpuMask = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed and is only
    // read; the mask names a CPU the kernel has just said we may use.
    (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), one.as_ptr()) } == 0)
        .then_some(cpu)
}

/// Re-executes the program with the allocator pinned, unless it already is.
/// Returns only if there was nothing to do or the exec failed.
pub fn allocator(argv: &[String]) {
    use std::os::unix::process::CommandExt;
    if MALLOC.iter().all(|(k, _)| std::env::var_os(k).is_some()) {
        return;
    }
    if let Ok(exe) = std::env::current_exe() {
        let err = std::process::Command::new(exe)
            .args(argv)
            .envs(MALLOC)
            .exec();
        eprintln!("could not re-exec with the allocator pinned ({err}); timings will be noisier");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_to_a_cpu_it_was_allowed() {
        // On its own thread: the pin must not leak into the other tests.
        let cpu = std::thread::spawn(to_one_cpu)
            .join()
            .unwrap()
            .expect("affinity calls work");
        let mut now: CpuMask = [0; 16];
        assert!(cpu < 1024);
        // SAFETY: as in `to_one_cpu`.
        assert_eq!(
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), now.as_mut_ptr()) },
            0
        );
        assert!(
            now[cpu / 64] & (1 << (cpu % 64)) != 0,
            "the chosen CPU was one of ours"
        );
    }
}
