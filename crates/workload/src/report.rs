//! Job results.

use afc_common::timeutil::fmt_dur;
use afc_common::{HistSnapshot, TimeSeries};
use std::fmt;
use std::time::Duration;

/// Aggregated result of one job.
#[derive(Debug, Clone)]
pub struct Report {
    /// Completed operations.
    pub ops: u64,
    /// Failed operations.
    pub errors: u64,
    /// Wall-clock runtime.
    pub runtime: Duration,
    /// Block size used.
    pub bs: u64,
    /// Latency histogram of every completed op.
    pub lat: HistSnapshot,
    /// Windowed IOPS series (when sampling was enabled).
    pub series: TimeSeries,
    /// Job label.
    pub label: String,
}

impl Report {
    /// Operations per second.
    pub fn iops(&self) -> f64 {
        if self.runtime.is_zero() {
            return 0.0;
        }
        self.ops as f64 / self.runtime.as_secs_f64()
    }

    /// Bytes per second.
    pub fn bandwidth(&self) -> f64 {
        self.iops() * self.bs as f64
    }

    /// Mean latency.
    pub fn mean_lat(&self) -> Duration {
        Duration::from_micros(self.lat.mean_us())
    }

    /// 99th-percentile latency.
    pub fn p99(&self) -> Duration {
        Duration::from_micros(self.lat.p99_us())
    }

    /// Bandwidth in MiB/s (figure tables).
    pub fn mibps(&self) -> f64 {
        self.bandwidth() / (1024.0 * 1024.0)
    }

    /// One-line summary row: `label iops k-iops lat-mean lat-p99 bw`.
    pub fn row(&self) -> Vec<String> {
        vec![
            self.label.clone(),
            format!("{:.0}", self.iops()),
            fmt_dur(self.mean_lat()),
            fmt_dur(self.p99()),
            format!("{:.1}MiB/s", self.mibps()),
        ]
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} ops in {} = {:.0} IOPS ({:.1} MiB/s), lat mean {} p50 {} p99 {}{}",
            self.label,
            self.ops,
            fmt_dur(self.runtime),
            self.iops(),
            self.mibps(),
            fmt_dur(self.mean_lat()),
            fmt_dur(Duration::from_micros(self.lat.p50_us())),
            fmt_dur(self.p99()),
            if self.errors > 0 {
                format!(", {} ERRORS", self.errors)
            } else {
                String::new()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(ops: u64, secs: f64) -> Report {
        let lat = afc_common::Histogram::new();
        lat.observe_us(500);
        Report {
            ops,
            errors: 0,
            runtime: Duration::from_secs_f64(secs),
            bs: 4096,
            lat: lat.snapshot(),
            series: TimeSeries::new(),
            label: "test".into(),
        }
    }

    #[test]
    fn iops_and_bandwidth() {
        let r = report(10_000, 2.0);
        assert!((r.iops() - 5_000.0).abs() < 1.0);
        assert!((r.bandwidth() - 5_000.0 * 4096.0).abs() < 4096.0);
        assert!(r.mibps() > 19.0);
    }

    #[test]
    fn zero_runtime_safe() {
        let r = Report {
            runtime: Duration::ZERO,
            ..report(5, 1.0)
        };
        assert_eq!(r.iops(), 0.0);
    }

    #[test]
    fn display_contains_key_fields() {
        let s = report(100, 1.0).to_string();
        assert!(s.contains("test"));
        assert!(s.contains("IOPS"));
        assert!(!s.contains("ERRORS"));
        let mut bad = report(100, 1.0);
        bad.errors = 3;
        assert!(bad.to_string().contains("ERRORS"));
    }

    #[test]
    fn row_has_five_cells() {
        assert_eq!(report(1, 1.0).row().len(), 5);
    }
}
