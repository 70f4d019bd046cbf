//! Sleeping and timing helpers used by the device models.
//!
//! All simulated device latency flows through [`sleep_for`]/[`sleep_until`],
//! so the fidelity of every modeled service time is bounded by how precisely
//! a thread can wait. Plain `thread::sleep` is *not* precise enough: Linux
//! applies a default per-thread **timer slack** of 50 µs, so a requested
//! 80 µs wait wakes at ~130–145 µs — a >60% error on the NVRAM-scale waits
//! the journal and replication hops model.
//!
//! [`sleep_until`] therefore implements a hybrid precise wait:
//!
//! 1. once per thread, shrink the timer slack to 1 µs via
//!    `prctl(PR_SET_TIMERSLACK)` (cheap, no capabilities needed);
//! 2. if the remaining wait exceeds a small reserve, `thread::sleep` for
//!    `remaining − reserve` so the CPU stays available to other threads —
//!    on the single-core reference host this matters;
//! 3. spin (`std::hint::spin_loop`) across the final few tens of
//!    microseconds to land on the deadline.
//!
//! The result is waits accurate to a few microseconds while still yielding
//! the CPU for all but the tail of each wait.

use std::time::{Duration, Instant};

/// Tail window that is spun rather than slept. Chosen above the observed
/// post-`PR_SET_TIMERSLACK` wakeup error (~15–25 µs) so the kernel sleep
/// never overshoots the deadline.
const SPIN_RESERVE: Duration = Duration::from_micros(60);

/// `prctl(2)` constants for per-thread timer slack (linux/prctl.h).
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Shrink this thread's timer slack to 1 µs (default is 50 µs), once.
#[inline]
fn tighten_timer_slack() {
    thread_local! {
        static TIGHTENED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }
    TIGHTENED.with(|t| {
        if !t.get() {
            // Best effort: a failure just means sleeps stay coarse.
            unsafe { prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0) };
            t.set(true);
        }
    });
}

/// Sleep for `d` with microsecond-scale precision. Zero-duration calls
/// return immediately.
#[inline]
pub fn sleep_for(d: Duration) {
    if d > Duration::ZERO {
        sleep_until(Instant::now() + d);
    }
}

/// Sleep until `deadline` with microsecond-scale precision (no-op if
/// already past). Kernel-sleeps the bulk of the wait, spins the tail.
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline <= now {
        return;
    }
    tighten_timer_slack();
    let remaining = deadline - now;
    if remaining > SPIN_RESERVE {
        std::thread::sleep(remaining - SPIN_RESERVE);
    }
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

/// Format a duration compactly for table output: `842us`, `3.2ms`, `1.75s`.
pub fn fmt_dur(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}us")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleep_for_zero_is_instant() {
        let t = Instant::now();
        sleep_for(Duration::ZERO);
        assert!(t.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn sleep_for_waits_at_least_requested() {
        let t = Instant::now();
        sleep_for(Duration::from_millis(10));
        assert!(t.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn sleep_until_past_deadline_returns() {
        let t = Instant::now();
        sleep_until(Instant::now() - Duration::from_secs(1));
        assert!(t.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn short_sleeps_are_precise() {
        // The whole point of the hybrid wait: an 80 µs request must not
        // cost 140 µs. Warm the thread's slack setting first, then check
        // the median of several samples stays within a third of the
        // request (generous to absorb scheduler noise in CI).
        sleep_for(Duration::from_micros(10));
        let mut samples: Vec<Duration> = (0..9)
            .map(|_| {
                let t = Instant::now();
                sleep_for(Duration::from_micros(80));
                t.elapsed()
            })
            .collect();
        samples.sort();
        let med = samples[samples.len() / 2];
        assert!(med >= Duration::from_micros(80), "{med:?}");
        assert!(med < Duration::from_micros(110), "{med:?}");
    }

    #[test]
    fn fmt_dur_ranges() {
        assert_eq!(fmt_dur(Duration::from_micros(842)), "842us");
        assert_eq!(fmt_dur(Duration::from_micros(3_200)), "3.20ms");
        assert_eq!(fmt_dur(Duration::from_micros(1_750_000)), "1.75s");
    }
}
