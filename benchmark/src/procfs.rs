//! What the benchmark asks the kernel: process CPU time, peak RSS, and the
//! host-noise diagnostics (steal, CPU pressure).
//!
//! `/proc` parsing is split from reading so it can be tested on fixed text.

use std::fs;

/// `clockid_t` of the calling process's CPU-time clock (linux/time.h).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `struct timespec` of the 64-bit Linux ABIs this repo builds for.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time this process has consumed so far (user + system, every
/// thread), ns.
///
/// `/proc/self/stat` carries the same sum in 10 ms ticks: a one-second
/// window at 2 000 ops/s would then resolve `cpu_us_per_op` to 5 µs steps
/// and the median of twenty such windows would read the same on every run.
/// The kernel's own clock has no such grid.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the layout the kernel
    // ABI defines for 64-bit Linux, and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Steal ticks summed over CPUs, from the first line of `/proc/stat`.
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    line.split_ascii_whitespace().nth(7)?.parse().ok()
}

/// `some avg10` of `/proc/pressure/cpu`: the share of the last ten seconds
/// in which some runnable task waited for a CPU, in percent.
pub fn parse_pressure_some_avg10(pressure: &str) -> Option<f64> {
    let line = pressure.lines().find_map(|l| l.strip_prefix("some "))?;
    line.split_ascii_whitespace()
        .find_map(|f| f.strip_prefix("avg10="))?
        .parse()
        .ok()
}

/// This process's peak resident set, MiB.
pub fn vm_hwm_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&status).expect("parse VmHWM") as f64 / 1024.0
}

/// Host-noise reading taken before and after a run. Diagnostic only: a
/// kernel without PSI or a host that hides steal reports `None`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostNoise {
    /// Steal ticks since boot.
    pub steal_ticks: Option<u64>,
    /// CPU pressure, `some avg10`, percent.
    pub pressure_avg10: Option<f64>,
}

impl HostNoise {
    /// Read both diagnostics now.
    pub fn read() -> Self {
        HostNoise {
            steal_ticks: fs::read_to_string("/proc/stat")
                .ok()
                .and_then(|s| parse_steal_ticks(&s)),
            pressure_avg10: fs::read_to_string("/proc/pressure/cpu")
                .ok()
                .and_then(|s| parse_pressure_some_avg10(&s)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status =
            "Name:\tafc-benchmark\nVmPeak:\t 900000 kB\nVmHWM:\t  291224 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(291_224));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn steal_is_the_eighth_cpu_field() {
        let stat = "cpu  100 2 30 4000 5 0 6 77 0 0\ncpu0 50 1 15 2000 2 0 3 40 0 0\n";
        assert_eq!(parse_steal_ticks(stat), Some(77));
        assert_eq!(parse_steal_ticks("intr 1 2 3\n"), None);
    }

    #[test]
    fn pressure_some_avg10() {
        let p = "some avg10=1.25 avg60=0.50 avg300=0.10 total=12345\n\
                 full avg10=0.00 avg60=0.00 avg300=0.00 total=0\n";
        assert_eq!(parse_pressure_some_avg10(p), Some(1.25));
        assert_eq!(parse_pressure_some_avg10(""), None);
    }

    #[test]
    fn live_readings_parse_on_this_host() {
        assert!(vm_hwm_mib() > 0.0);
        // Other tests share the process, so its CPU clock can outrun wall
        // time; it cannot stand still while this thread spins.
        let (wall, before) = (std::time::Instant::now(), process_cpu_ns());
        while wall.elapsed() < std::time::Duration::from_millis(5) {
            std::hint::spin_loop();
        }
        assert!(process_cpu_ns() - before >= 1_000_000);
    }
}
