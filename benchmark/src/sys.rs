//! Process resource counters: CPU time, peak resident memory and minor
//! page faults of this process (all threads), read with `getrusage(2)`.

use std::time::Duration;

/// `struct rusage` as laid out by Linux on 64-bit targets: two `timeval`s
/// followed by fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime_sec: i64,
    utime_usec: i64,
    stime_sec: i64,
    stime_usec: i64,
    maxrss_kib: i64,
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

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// `RUSAGE_SELF`: the calling process, every thread included.
const RUSAGE_SELF: i32 = 0;

/// A point-in-time reading of the process counters.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU time.
    pub cpu: Duration,
    /// Peak resident set size so far, in KiB.
    pub maxrss_kib: u64,
    /// Minor page faults so far.
    pub minor_faults: u64,
}

/// Reads the counters of the whole process.
pub fn usage() -> Usage {
    let mut raw = RUsage::default();
    // SAFETY: `raw` is a live, writable `struct rusage` with the Linux
    // 64-bit layout, and `RUSAGE_SELF` is a valid `who`; the call writes
    // only inside that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail on a valid buffer"
    );
    let micros = |sec: i64, usec: i64| sec as u64 * 1_000_000 + usec as u64;
    Usage {
        cpu: Duration::from_micros(
            micros(raw.utime_sec, raw.utime_usec) + micros(raw.stime_sec, raw.stime_usec),
        ),
        maxrss_kib: raw.maxrss_kib as u64,
        minor_faults: raw.minflt as u64,
    }
}
