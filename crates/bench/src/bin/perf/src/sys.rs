//! Process measurements the standard library does not expose: peak
//! resident memory of this process and of its waited-for children.

/// Peak resident set of this process in MiB (`VmHWM`), or 0 when
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_self_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Largest peak resident set of any waited-for child process in MiB
/// (`getrusage(RUSAGE_CHILDREN).ru_maxrss`), or 0 if the call fails.
#[must_use]
pub fn peak_rss_children_mb() -> f64 {
    const RUSAGE_CHILDREN: i32 = -1;
    #[repr(C)]
    struct Rusage {
        // ru_utime and ru_stime: two `struct timeval`s.
        _times: [i64; 4],
        // ru_maxrss first, then thirteen more counters this code ignores.
        counters: [i64; 14],
    }
    // Declared directly, as `relogic-serve` declares `signal(2)`, to avoid
    // depending on the `libc` crate; `getrusage` is in every libc the
    // workspace targets.
    unsafe extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage {
        _times: [0; 4],
        counters: [0; 14],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` of the Linux
    // layout (two timevals followed by fourteen longs); getrusage only
    // writes into it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &raw mut usage) };
    if rc != 0 {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let kib = usage.counters[0] as f64;
    kib / 1024.0
}

/// Hardware threads available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_probes_read_positive_values() {
        assert!(peak_rss_self_mb() > 0.0);
        let status = std::process::Command::new("true").status();
        if status.is_ok_and(|s| s.success()) {
            assert!(peak_rss_children_mb() > 0.0);
        }
    }
}
