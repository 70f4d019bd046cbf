//! Database statistics: write amplification, stalls, compaction work.

use afc_common::metrics::{Counter, Metrics};

/// The database's counters: the cells the hot path mutates, registered
/// into a cluster [`Metrics`] registry by [`DbStatsCell::register_into`].
#[derive(Debug, Default)]
pub struct DbStatsCell {
    /// Payload bytes handed to `put`/`write_batch` by callers.
    pub user_bytes: Counter,
    /// Batches committed.
    pub commits: Counter,
    /// WAL bytes written to the device.
    pub wal_bytes: Counter,
    /// Memtable flushes to L0.
    pub flushes: Counter,
    /// Bytes written flushing memtables.
    pub flush_bytes: Counter,
    /// L0→L1 compactions performed.
    pub compactions: Counter,
    /// Bytes read by compaction inputs.
    pub compact_read_bytes: Counter,
    /// Bytes written by compaction outputs.
    pub compact_write_bytes: Counter,
    /// Writer stalls (memtable/L0 backpressure events).
    pub stalls: Counter,
    /// Total time writers spent stalled, microseconds.
    pub stall_us: Counter,
    /// Point lookups served.
    pub gets: Counter,
    /// SSTable probes that charged a device read.
    pub table_reads: Counter,
    /// Background table I/O charges that failed (injected device faults).
    /// The data itself is safe (tables are built in memory before the
    /// charge), so the worker proceeds — but loudly, not silently.
    pub table_io_errors: Counter,
}

impl DbStatsCell {
    /// Write amplification: device write bytes (WAL + flush + compaction)
    /// per user byte. The paper's §3.4 observation (4 KB blocks → ~2 GB
    /// extra per 2 GB user data) is this ratio climbing for small entries.
    pub fn write_amplification(&self) -> f64 {
        let device = self.wal_bytes.get() + self.flush_bytes.get() + self.compact_write_bytes.get();
        match self.user_bytes.get() {
            0 => 0.0,
            user => device as f64 / user as f64,
        }
    }

    /// Register every cell under `<prefix>.<field>` (e.g.
    /// `osd0.kv.wal_bytes`).
    pub fn register_into(&self, m: &Metrics, prefix: &str) {
        let fields: [(&str, &Counter); 13] = [
            ("user_bytes", &self.user_bytes),
            ("commits", &self.commits),
            ("wal_bytes", &self.wal_bytes),
            ("flushes", &self.flushes),
            ("flush_bytes", &self.flush_bytes),
            ("compactions", &self.compactions),
            ("compact_read_bytes", &self.compact_read_bytes),
            ("compact_write_bytes", &self.compact_write_bytes),
            ("stalls", &self.stalls),
            ("stall_us", &self.stall_us),
            ("gets", &self.gets),
            ("table_reads", &self.table_reads),
            ("table_io_errors", &self.table_io_errors),
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
    fn write_amplification_math() {
        let c = DbStatsCell::default();
        assert_eq!(c.write_amplification(), 0.0, "zero user bytes is safe");
        c.user_bytes.add(100);
        c.wal_bytes.add(120);
        c.flush_bytes.add(100);
        c.compact_write_bytes.add(80);
        assert!((c.write_amplification() - 3.0).abs() < 1e-9);
    }
}
