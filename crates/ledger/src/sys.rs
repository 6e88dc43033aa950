//! What the harness reads from the operating system: process CPU time,
//! peak memory from `/proc/self/status`, the load average and the core
//! count.

use std::time::Duration;

/// `struct timespec` on 64-bit Linux.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// User + system CPU time this process (all threads, live and joined) has
/// consumed so far, from `CLOCK_PROCESS_CPUTIME_ID`; `None` where that
/// clock is not available. (`/proc/self/stat` carries the same quantity in
/// 10 ms ticks, too coarse for a two-second round.)
pub fn process_cpu() -> Option<Duration> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `clock_gettime(2)` writes one `struct timespec` through
        // the pointer and keeps nothing; `ts` is a live, exclusively
        // borrowed value whose layout matches the C struct on this target
        // (two 64-bit signed fields, guarded by the cfg above).
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        if rc == 0 {
            let (secs, nanos) = (
                u64::try_from(ts.tv_sec).ok()?,
                u32::try_from(ts.tv_nsec).ok()?,
            );
            return Some(Duration::new(secs, nanos));
        }
    }
    None
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The 1-minute load average.
pub fn load_average() -> Option<f64> {
    let s = std::fs::read_to_string("/proc/loadavg").ok()?;
    s.split_whitespace().next()?.parse().ok()
}

/// Threads other than the caller that are runnable right now, averaged
/// over ten samples 20 ms apart (the run-queue field of `/proc/loadavg`).
/// Unlike the 1-minute average this forgets a finished child at once, so
/// it can tell foreign load from the benchmark's own previous run.
pub fn runnable_others() -> Option<f64> {
    let mut total = 0.0;
    let samples = 10;
    for i in 0..samples {
        if i > 0 {
            std::thread::sleep(Duration::from_millis(20));
        }
        let s = std::fs::read_to_string("/proc/loadavg").ok()?;
        let running: f64 = s
            .split_whitespace()
            .nth(3)?
            .split('/')
            .next()?
            .parse()
            .ok()?;
        total += (running - 1.0).max(0.0);
    }
    Some(total / samples as f64)
}

/// Cores available to this process (1 when the query fails).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn proc_readers_return_plausible_values() {
        // Burn a little CPU so utime+stime cannot be stuck at zero forever.
        let mut x = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed() < Duration::from_millis(40) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let cpu = process_cpu().expect("the process CPU clock reads");
        assert!(cpu >= Duration::from_millis(10), "cpu {cpu:?}");
        assert!(peak_rss_mib().expect("VmHWM present") > 0.5);
        assert!(load_average().expect("loadavg parses") >= 0.0);
        assert!(runnable_others().expect("run queue parses") >= 0.0);
        assert!(nproc() >= 1);
    }
}
