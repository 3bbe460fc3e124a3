//! The clocks a run reads, and the host record: what the machine was doing
//! while a run measured. The host record explains a shift between two sets
//! of runs; no metric is ever normalised by it.

use std::hint::black_box;
use std::time::Instant;

/// Aggregate CPU jiffies from the first line of `/proc/stat`:
/// `(steal, total)`. `None` where the file is unavailable.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user, so the total stops at steal.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Percentage of CPU time stolen by the hypervisor between two readings.
pub fn steal_pct(start: Option<(u64, u64)>, end: Option<(u64, u64)>) -> f64 {
    match (start, end) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => 0.0,
    }
}

/// Milliseconds for a fixed dependent integer chain owned by the benchmark:
/// the same instructions on every commit, so its time tracks the host only.
pub fn ref_loop_ms() -> f64 {
    let t = Instant::now();
    let mut x: u64 = black_box(0x9e37_79b9_7f4a_7c15);
    for _ in 0..black_box(30_000_000u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

#[repr(C)]
#[derive(Default)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: user and system time, then 14 longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    user: Timeval,
    system: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const RUSAGE_CHILDREN: i32 = -1;

/// CPU time of every thread of this process so far, in milliseconds. On a
/// guest with steal accounting, time the hypervisor gave to other tenants
/// is not in it.
pub fn process_cpu_ms() -> f64 {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6
}

/// CPU time (user + system) of every child process this process has
/// waited for, in milliseconds.
pub fn children_cpu_ms() -> f64 {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a valid, writable rusage for the call's duration.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) failed");
    let ms = |t: &Timeval| t.sec as f64 * 1e3 + t.usec as f64 / 1e3;
    ms(&ru.user) + ms(&ru.system)
}

/// Wall and CPU time of one timed call, both in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub wall_ms: f64,
    /// This process's threads plus the child processes it waited for
    /// during the call.
    pub cpu_ms: f64,
}

/// Run `f` and time it on the wall clock and the CPU clocks.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timing) {
    let cpu0 = process_cpu_ms() + children_cpu_ms();
    let t = Instant::now();
    let out = f();
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let cpu_ms = process_cpu_ms() + children_cpu_ms() - cpu0;
    (out, Timing { wall_ms, cpu_ms })
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The resolved SIMD tier as a capability level (scalar 0, portable 1,
/// avx2 2, avx512 3) plus its label.
pub fn simd_tier() -> (u32, &'static str) {
    use cnc_intersect::SimdTier;
    let tier = SimdTier::resolve();
    let level = match tier {
        SimdTier::Scalar => 0,
        SimdTier::Portable => 1,
        SimdTier::Avx2 => 2,
        SimdTier::Avx512 => 3,
    };
    (level, tier.label())
}
