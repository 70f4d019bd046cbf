//! Accumulated device statistics.

use crate::StreamId;
use afc_common::metrics::{Counter, Metrics};
use std::time::Duration;

/// Snapshot of device activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DevStats {
    /// Completed read requests.
    pub reads: u64,
    /// Completed write requests.
    pub writes: u64,
    /// Completed flush requests.
    pub flushes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written (host writes; GC copy-forward excluded).
    pub bytes_written: u64,
    /// Accumulated service time in microseconds (busy time across channels).
    pub busy_us: u64,
    /// Reads that were planned while at least one write was in flight —
    /// the read/write interference events the light-weight transaction
    /// optimization removes from the write path.
    pub interfered_reads: u64,
    /// Host bytes written per stream, indexed by [`StreamId::index`].
    /// Sums to `bytes_written` on stream-aware devices.
    pub stream_bytes: [u64; 6],
    /// Bytes the FTL copied forward during garbage collection (flash
    /// writes beyond the host's). Zero on devices without an FTL model.
    pub gc_copied_bytes: u64,
    /// Garbage-collection passes that stalled a host write.
    pub gc_passes: u64,
}

/// Thread-safe accumulator backing [`DevStats`]. Fields are shared
/// metric cells so device counters can be registered into a cluster
/// [`Metrics`] registry ([`StatsCell::register_into`]).
#[derive(Debug, Default)]
pub struct StatsCell {
    reads: Counter,
    writes: Counter,
    flushes: Counter,
    bytes_read: Counter,
    bytes_written: Counter,
    busy_us: Counter,
    interfered_reads: Counter,
    stream_bytes: [Counter; 6],
    gc_copied_bytes: Counter,
    gc_passes: Counter,
}

impl StatsCell {
    /// Create a zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Account a read of `len` bytes taking `service`; `interfered` marks a
    /// read planned while writes were in flight.
    pub fn on_read(&self, len: u64, service: Duration, interfered: bool) {
        self.reads.inc();
        self.bytes_read.add(len);
        self.busy_us.add(service.as_micros() as u64);
        if interfered {
            self.interfered_reads.inc();
        }
    }

    /// Account a host write of `len` bytes on `stream` taking `service`.
    pub fn on_write(&self, len: u64, stream: StreamId, service: Duration) {
        self.writes.inc();
        self.bytes_written.add(len);
        self.stream_bytes[stream.index()].add(len);
        self.busy_us.add(service.as_micros() as u64);
    }

    /// Account a flush taking `service`.
    pub fn on_flush(&self, service: Duration) {
        self.flushes.inc();
        self.busy_us.add(service.as_micros() as u64);
    }

    /// Account `passes` GC passes that copied `copied_bytes` of live data
    /// forward (one host write can trigger a chain of passes).
    pub fn on_gc(&self, passes: u64, copied_bytes: u64) {
        self.gc_passes.add(passes);
        self.gc_copied_bytes.add(copied_bytes);
    }

    /// Take a consistent-enough snapshot (relaxed reads; counters only).
    pub fn snapshot(&self) -> DevStats {
        DevStats {
            reads: self.reads.get(),
            writes: self.writes.get(),
            flushes: self.flushes.get(),
            bytes_read: self.bytes_read.get(),
            bytes_written: self.bytes_written.get(),
            busy_us: self.busy_us.get(),
            interfered_reads: self.interfered_reads.get(),
            stream_bytes: core::array::from_fn(|i| self.stream_bytes[i].get()),
            gc_copied_bytes: self.gc_copied_bytes.get(),
            gc_passes: self.gc_passes.get(),
        }
    }

    /// Register every cell under `<prefix>.<field>` (e.g.
    /// `osd0.data.writes`, `osd0.data.stream.journal.bytes`,
    /// `osd0.data.gc.copied_bytes`). RAID-0 members registered under one
    /// prefix are summed in snapshots, matching [`DevStats::combined`].
    pub fn register_into(&self, m: &Metrics, prefix: &str) {
        let fields: [(&str, &Counter); 9] = [
            ("reads", &self.reads),
            ("writes", &self.writes),
            ("flushes", &self.flushes),
            ("bytes_read", &self.bytes_read),
            ("bytes_written", &self.bytes_written),
            ("busy_us", &self.busy_us),
            ("interfered_reads", &self.interfered_reads),
            ("gc.copied_bytes", &self.gc_copied_bytes),
            ("gc.pauses", &self.gc_passes),
        ];
        for (name, cell) in fields {
            m.register_counter(format!("{prefix}.{name}"), cell);
        }
        for s in StreamId::ALL {
            let cell = &self.stream_bytes[s.index()];
            m.register_counter(format!("{prefix}.stream.{}.bytes", s.metric_name()), cell);
        }
    }
}

impl DevStats {
    /// Total requests of all kinds.
    pub fn total_ops(&self) -> u64 {
        self.reads + self.writes + self.flushes
    }

    /// Device-level write amplification: flash page writes (host +
    /// GC copy-forward) over host writes. 1.0 when GC never copied a
    /// live page (or the device has no FTL model / saw no writes).
    pub fn flash_write_amplification(&self) -> f64 {
        if self.bytes_written == 0 {
            return 1.0;
        }
        (self.bytes_written + self.gc_copied_bytes) as f64 / self.bytes_written as f64
    }

    /// Sum two snapshots (used by RAID-0 to aggregate members).
    #[must_use]
    pub fn combined(&self, other: &DevStats) -> DevStats {
        DevStats {
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            flushes: self.flushes + other.flushes,
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
            busy_us: self.busy_us + other.busy_us,
            interfered_reads: self.interfered_reads + other.interfered_reads,
            stream_bytes: core::array::from_fn(|i| self.stream_bytes[i] + other.stream_bytes[i]),
            gc_copied_bytes: self.gc_copied_bytes + other.gc_copied_bytes,
            gc_passes: self.gc_passes + other.gc_passes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_accumulates() {
        let c = StatsCell::new();
        c.on_read(4096, Duration::from_micros(100), false);
        c.on_read(4096, Duration::from_micros(100), true);
        c.on_write(8192, StreamId::Journal, Duration::from_micros(50));
        c.on_flush(Duration::from_micros(10));
        let s = c.snapshot();
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.flushes, 1);
        assert_eq!(s.bytes_read, 8192);
        assert_eq!(s.bytes_written, 8192);
        assert_eq!(s.busy_us, 260);
        assert_eq!(s.interfered_reads, 1);
        assert_eq!(s.stream_bytes[StreamId::Journal.index()], 8192);
        assert_eq!(s.stream_bytes.iter().sum::<u64>(), s.bytes_written);
        assert_eq!(s.total_ops(), 4);
    }

    #[test]
    fn gc_accounting_and_flash_wa() {
        let c = StatsCell::new();
        // No writes yet: WA degenerates to 1.0, not NaN.
        assert_eq!(c.snapshot().flash_write_amplification(), 1.0);
        c.on_write(4096, StreamId::DataCold, Duration::from_micros(50));
        c.on_gc(1, 8192);
        let s = c.snapshot();
        assert_eq!(s.gc_passes, 1);
        assert_eq!(s.gc_copied_bytes, 8192);
        assert!((s.flash_write_amplification() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn combined_sums_fields() {
        let a = DevStats {
            reads: 1,
            writes: 2,
            flushes: 3,
            bytes_read: 4,
            bytes_written: 5,
            busy_us: 6,
            interfered_reads: 7,
            stream_bytes: [1, 2, 3, 4, 5, 6],
            gc_copied_bytes: 8,
            gc_passes: 9,
        };
        let b = a;
        let c = a.combined(&b);
        assert_eq!(c.reads, 2);
        assert_eq!(c.interfered_reads, 14);
        assert_eq!(c.stream_bytes, [2, 4, 6, 8, 10, 12]);
        assert_eq!(c.gc_copied_bytes, 16);
        assert_eq!(c.gc_passes, 18);
        assert_eq!(c.total_ops(), 12);
    }
}
