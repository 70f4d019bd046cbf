//! The estimators every reported number goes through.
//!
//! All of them are chosen for repeatability on a shared 2-vCPU host: a
//! neighbour's burst or one lost reply spoils a few windows or a few
//! samples, and a median does not move.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Lower median of a sample set in ns, as µs; 0 when empty.
pub fn p50_us(samples_ns: &[u64]) -> f64 {
    let mut v = samples_ns.to_vec();
    v.sort_unstable();
    v.get(v.len().saturating_sub(1) / 2)
        .map_or(0.0, |ns| *ns as f64 / 1e3)
}

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 100]`) of `sorted` (ascending).
///
/// Refuses (`None`) a percentile with fewer than [`MIN_TAIL_SAMPLES`]
/// samples beyond it: a p99.9 of 3 000 samples is the third-largest value,
/// which says nothing repeatable about the tail.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    assert!(p > 0.0 && p <= 100.0, "percentile out of range");
    if sorted.is_empty() {
        return None;
    }
    // The epsilon keeps 99.9 % of 10 000 at rank 9 990 despite 99.9 not
    // being a binary fraction.
    let rank = (p / 100.0 * sorted.len() as f64 - 1e-9).ceil() as usize;
    let rank = rank.clamp(1, sorted.len());
    if p < 100.0 && sorted.len() - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(sorted[rank - 1])
}

/// One measurement window as closed by the generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Window length, ns (the generator closes a window at the first event
    /// at or after its nominal end, so this is measured, not nominal).
    pub len_ns: u64,
    /// Ops observed complete (and correct) inside the window.
    pub completed: u64,
    /// Process CPU consumed inside the window, ns.
    pub cpu_ns: u64,
    /// CPU time the hypervisor took from this guest inside the window,
    /// `/proc/stat` ticks summed over the CPUs.
    pub steal_ticks: u64,
}

/// `/proc/stat` counts steal in `USER_HZ` ticks, which Linux fixes at 100
/// per second for every architecture's user ABI.
pub const STEAL_TICKS_PER_S: u64 = 100;

/// Steal above this share of a window's CPU capacity marks it as *stolen*.
pub const QUIET_STEAL_SHARE: f64 = 0.01;

/// The windows the end-to-end estimators use: those in which the
/// hypervisor took no more than [`QUIET_STEAL_SHARE`] of the guest's CPUs.
///
/// A window in which a neighbour held this guest's CPUs measures the
/// neighbour, and on a shared host such windows come in bursts long enough
/// to move a median. Steal is the one symptom the guest can see, so it is
/// the filter. When fewer than a quarter of the windows are quiet the whole
/// run was disturbed; the least-stolen quarter is then the best there is,
/// and the `host:` line says so.
///
/// Returns the indices of the windows to use, ascending.
pub fn quiet_windows(windows: &[Window], cpus: u64) -> Vec<usize> {
    let stolen_share = |w: &Window| {
        let capacity_s = w.len_ns as f64 / 1e9 * cpus as f64;
        w.steal_ticks as f64 / STEAL_TICKS_PER_S as f64 / capacity_s
    };
    let mut by_steal: Vec<usize> = (0..windows.len()).collect();
    by_steal.sort_by(|&a, &b| stolen_share(&windows[a]).total_cmp(&stolen_share(&windows[b])));
    let quiet = by_steal
        .iter()
        .take_while(|&&i| stolen_share(&windows[i]) <= QUIET_STEAL_SHARE)
        .count();
    by_steal.truncate(quiet.max(windows.len().div_ceil(4)));
    by_steal.sort_unstable();
    by_steal
}

/// Median over windows of completed ops per second.
pub fn window_ops_per_s(windows: &[Window]) -> Option<f64> {
    let rates: Vec<f64> = windows
        .iter()
        .filter(|w| w.len_ns > 0)
        .map(|w| w.completed as f64 * 1e9 / w.len_ns as f64)
        .collect();
    median(&rates)
}

/// Median over windows of process CPU per completed op, µs. Windows in
/// which nothing completed carry no per-op cost and are left out.
pub fn window_cpu_us_per_op(windows: &[Window]) -> Option<f64> {
    let costs: Vec<f64> = windows
        .iter()
        .filter(|w| w.completed > 0)
        .map(|w| w.cpu_ns as f64 / 1e3 / w.completed as f64)
        .collect();
    median(&costs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p50_of_ns_samples_in_us() {
        assert_eq!(p50_us(&[]), 0.0);
        assert_eq!(p50_us(&[3_000, 1_000, 2_500]), 2.5);
        assert_eq!(p50_us(&[4_000, 1_000, 2_000, 3_000]), 2.0);
    }

    #[test]
    fn window_median_ignores_spoiled_windows() {
        // 30 windows at 7 000 ops/s; a lost op (2 s slot) and a neighbour's
        // burst spoil four of them. The mean moves 9 %, the median not at all.
        let mut windows = vec![
            Window {
                len_ns: 1_000_000_000,
                completed: 7_000,
                cpu_ns: 1_900_000_000,
                steal_ticks: 0,
            };
            30
        ];
        for w in &mut windows[10..14] {
            w.completed = 2_000;
        }
        assert_eq!(window_ops_per_s(&windows), Some(7_000.0));
        let mean = windows.iter().map(|w| w.completed as f64).sum::<f64>() / 30.0;
        assert!(mean < 6_400.0);
    }

    #[test]
    fn stolen_windows_are_left_out() {
        let w = |steal_ticks| Window {
            len_ns: 500_000_000,
            completed: 1_000,
            cpu_ns: 0,
            steal_ticks,
        };
        // Half a second on two CPUs is one CPU-second: 1 % is one tick.
        let windows = [w(0), w(1), w(2), w(30), w(0)];
        assert_eq!(quiet_windows(&windows, 2), [0, 1, 4]);
        // On one CPU one tick is already 2 %.
        assert_eq!(quiet_windows(&windows, 1), [0, 4]);
        // One quiet window in eight is under a quarter: the least-stolen
        // quarter is used.
        let windows = [w(9), w(7), w(0), w(9), w(8), w(9), w(3), w(9)];
        assert_eq!(quiet_windows(&windows, 2), [2, 6]);
        assert!(quiet_windows(&[], 2).is_empty());
    }

    #[test]
    fn window_rate_uses_measured_length() {
        let w = [Window {
            len_ns: 500_000_000,
            completed: 1_000,
            cpu_ns: 0,
            steal_ticks: 0,
        }];
        assert_eq!(window_ops_per_s(&w), Some(2_000.0));
    }

    #[test]
    fn cpu_per_op_is_per_window_and_skips_empty_windows() {
        let w = |completed, cpu_ms: u64| Window {
            len_ns: 1_000_000_000,
            completed,
            cpu_ns: cpu_ms * 1_000_000,
            steal_ticks: 0,
        };
        let windows = [w(1_000, 1_000), w(2_000, 1_000), w(0, 500), w(500, 1_000)];
        // Per window: 1000, 500, (skipped), 2000 µs/op.
        assert_eq!(window_cpu_us_per_op(&windows), Some(1_000.0));
        assert_eq!(window_cpu_us_per_op(&[w(0, 10)]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 90.0), Some(90));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        // p99 of 1 000 samples has exactly 10 beyond it: allowed.
        let v: Vec<u64> = (1..=1_000).collect();
        assert_eq!(percentile(&v, 99.0), Some(990));
        // p99.9 of the same has one beyond it: refused.
        assert_eq!(percentile(&v, 99.9), None);
        // p99 of 999 samples has 9 beyond it: refused.
        assert_eq!(percentile(&v[..999], 99.0), None);
        // 10 000 samples carry a p99.9.
        let v: Vec<u64> = (1..=10_000).collect();
        assert_eq!(percentile(&v, 99.9), Some(9_990));
        // A median needs ten samples above it too.
        assert_eq!(percentile(&[1, 2, 3], 50.0), None);
    }
}
