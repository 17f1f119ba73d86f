//! The CPU time of this process, which the host-time metrics are read from.
//!
//! As the harness drives it, the simulator runs on one thread and never
//! blocks, so on an idle host a pass's CPU time is its wall time (0.02%
//! apart on the median of 661 passes). On a shared host they part: whenever
//! more runnable threads than cores are about — the case the driver warns
//! of — the wall clock also counts the time another process held the core,
//! and this clock does not. With two other busy processes on this 2-core
//! host the fastest pass of six runs read 44–56 us/elem by the wall clock
//! and 36–39 by this one, against 35–36 on the idle host.
//!
//! The clock is the whole process's, not the thread's, so that a simulator
//! that one day steps on worker threads pays for their spinning here.

use std::time::Instant;

/// Runs `f`; returns its result and the CPU seconds the process spent in
/// it. Falls back to wall seconds where the platform's CPU clock is not one
/// this module can read.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let wall = Instant::now();
    let cpu = imp::process_cpu_s();
    let value = f();
    let spent = match (cpu, imp::process_cpu_s()) {
        (Some(start), Some(end)) => end - start,
        _ => wall.elapsed().as_secs_f64(),
    };
    (value, spent)
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod imp {
    /// `struct timespec` of 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }

    pub fn process_cpu_s() -> Option<f64> {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `clock_gettime` is the C library's, which std links. It
        // writes one `struct timespec` through the pointer, and `ts` is a
        // live, exclusively borrowed value of that layout: two 64-bit
        // fields on every 64-bit Linux target, which the `cfg` selects.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod imp {
    pub fn process_cpu_s() -> Option<f64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        if imp::process_cpu_s().is_none() {
            return;
        }
        let (x, worked) = cpu_timed(|| {
            (0..20_000_000u64).fold(1u64, |x, i| {
                std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i))
            })
        });
        std::hint::black_box(x);
        assert!(worked > 0.0);
    }
}
