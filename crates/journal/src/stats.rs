//! Journal statistics.

use afc_common::metrics::{Counter, Metrics};

/// The journal's counters: the cells the hot path mutates, registered into
/// a cluster [`Metrics`] registry by [`JournalStatsCell::register_into`].
#[derive(Debug, Default)]
pub struct JournalStatsCell {
    /// Entries submitted.
    pub submits: Counter,
    /// Entries committed (callbacks fired).
    pub commits: Counter,
    /// Entries committed by the thread that submitted them — it found no
    /// commit in progress and led the write group (subset of `commits`).
    pub inline_commits: Counter,
    /// Device writes issued (each covers a batch).
    pub batches: Counter,
    /// Group-commit flush barriers issued (one per intact record).
    pub flushes: Counter,
    /// Bytes written to the device (aligned footprints).
    pub bytes_written: Counter,
    /// Bytes released by trims.
    pub trimmed_bytes: Counter,
    /// Times a submitter blocked on a full ring.
    pub full_stalls: Counter,
    /// Total time submitters spent blocked, microseconds.
    pub full_stall_us: Counter,
    /// Device write errors absorbed (fault injection).
    pub write_errors: Counter,
    /// Torn device writes: the batch tail was poisoned and its commit
    /// callback dropped (fault injection / power-loss model).
    pub torn_writes: Counter,
    /// Entries discarded by replay checksum validation (torn tails).
    pub replay_truncated: Counter,
}

impl JournalStatsCell {
    /// Mean entries per device write.
    pub fn avg_batch(&self) -> f64 {
        match self.batches.get() {
            0 => 0.0,
            batches => self.commits.get() as f64 / batches as f64,
        }
    }

    /// Register every cell under `<prefix>.<field>` (e.g.
    /// `node0.journal.commits`). Registering the same cells from several
    /// journals under one prefix sums them in snapshots.
    pub fn register_into(&self, m: &Metrics, prefix: &str) {
        let fields: [(&str, &Counter); 12] = [
            ("submits", &self.submits),
            ("commits", &self.commits),
            ("inline_commits", &self.inline_commits),
            ("batches", &self.batches),
            ("flushes", &self.flushes),
            ("bytes_written", &self.bytes_written),
            ("trimmed_bytes", &self.trimmed_bytes),
            ("full_stalls", &self.full_stalls),
            ("full_stall_us", &self.full_stall_us),
            ("write_errors", &self.write_errors),
            ("torn_writes", &self.torn_writes),
            ("replay_truncated", &self.replay_truncated),
        ];
        for (name, cell) in fields {
            m.register_counter(format!("{prefix}.{name}"), cell);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_batch_math() {
        let c = JournalStatsCell::default();
        assert_eq!(c.avg_batch(), 0.0);
        c.commits.add(100);
        c.batches.add(25);
        assert!((c.avg_batch() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn register_exposes_all_fields() {
        let m = Metrics::new();
        let c = JournalStatsCell::default();
        c.register_into(&m, "node0.journal");
        c.commits.add(7);
        c.bytes_written.add(4096);
        let s = m.snapshot();
        assert_eq!(s.counter("node0.journal.commits"), Some(7));
        assert_eq!(s.counter("node0.journal.bytes_written"), Some(4096));
        assert_eq!(s.counter("node0.journal.torn_writes"), Some(0));
    }
}
