//! CPU-time clocks.
//!
//! The benchmark's bounded timings are CPU time, not wall time: on a shared
//! virtual machine the wall clock also counts the time the host gives this
//! machine's cores to other tenants (steal) and the time other processes
//! hold them, and both swing by tens of percent from minute to minute. The
//! kernel's CPU clocks leave both out, so they follow the program's own work.

use std::ffi::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn read(clock: c_int) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec that outlives the call,
    // which only writes it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds used so far by every thread of this process, ended ones
/// included.
pub fn process_s() -> f64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds used so far by the calling thread.
pub fn thread_s() -> f64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_with_work_and_not_with_sleep() {
        let spin = || {
            let t = std::time::Instant::now();
            while t.elapsed().as_millis() < 50 {
                std::hint::black_box(0u64);
            }
        };
        let (p0, t0) = (process_s(), thread_s());
        spin();
        let (p1, t1) = (process_s(), thread_s());
        assert!(t1 - t0 > 0.02, "thread clock {}", t1 - t0);
        assert!(p1 - p0 >= t1 - t0 - 1e-3, "process clock {}", p1 - p0);
        std::thread::sleep(std::time::Duration::from_millis(100));
        assert!(thread_s() - t1 < 0.02);
        // A finished thread's time stays in the process clock.
        let p2 = process_s();
        std::thread::spawn(spin).join().unwrap();
        assert!(process_s() - p2 > 0.02);
    }
}
