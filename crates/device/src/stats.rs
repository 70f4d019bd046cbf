//! Accumulated device statistics.

use crate::StreamId;
use afc_common::metrics::{Counter, Metrics};
use std::time::Duration;

/// A device's activity counters, as shared metric cells. The owning device
/// updates them; [`StatsCell::register_into`] registers the same cells
/// into a cluster [`Metrics`] registry, which is how everything outside
/// the device reads them. A device's own unit tests read them with
/// `.get()`.
#[derive(Debug, Default)]
pub struct StatsCell {
    /// Completed read requests.
    pub reads: Counter,
    /// Completed write requests.
    pub writes: Counter,
    /// Completed flush requests.
    pub flushes: Counter,
    /// Bytes read.
    pub bytes_read: Counter,
    /// Bytes written (host writes; GC copy-forward excluded).
    pub bytes_written: Counter,
    /// Accumulated service time in microseconds (busy time across channels).
    pub busy_us: Counter,
    /// Reads that were planned while at least one write was in flight —
    /// the read/write interference events the light-weight transaction
    /// optimization removes from the write path.
    pub interfered_reads: Counter,
    /// Host bytes written per stream, indexed by [`StreamId::index`].
    /// Sums to `bytes_written` on stream-aware devices.
    pub stream_bytes: [Counter; 6],
    /// Bytes the FTL copied forward during garbage collection (flash
    /// writes beyond the host's). Zero on devices without an FTL model.
    pub gc_copied_bytes: Counter,
    /// Garbage-collection passes that stalled a host write.
    pub gc_passes: Counter,
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

    /// Device-level write amplification: flash page writes (host +
    /// GC copy-forward) over host writes. 1.0 when GC never copied a
    /// live page (or the device has no FTL model / saw no writes).
    pub fn flash_write_amplification(&self) -> f64 {
        let host = self.bytes_written.get();
        if host == 0 {
            return 1.0;
        }
        (host + self.gc_copied_bytes.get()) as f64 / host as f64
    }

    /// Register every cell under `<prefix>.<field>` (e.g.
    /// `osd0.data.writes`, `osd0.data.stream.journal.bytes`,
    /// `osd0.data.gc.copied_bytes`). RAID-0 members registered under one
    /// prefix are summed in snapshots: that sum is the RAID-0 aggregate.
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
        assert_eq!(c.reads.get(), 2);
        assert_eq!(c.writes.get(), 1);
        assert_eq!(c.flushes.get(), 1);
        assert_eq!(c.bytes_read.get(), 8192);
        assert_eq!(c.bytes_written.get(), 8192);
        assert_eq!(c.busy_us.get(), 260);
        assert_eq!(c.interfered_reads.get(), 1);
        assert_eq!(c.stream_bytes[StreamId::Journal.index()].get(), 8192);
        let streams: u64 = c.stream_bytes.iter().map(Counter::get).sum();
        assert_eq!(streams, c.bytes_written.get());
    }

    #[test]
    fn gc_accounting_and_flash_wa() {
        let c = StatsCell::new();
        // No writes yet: WA degenerates to 1.0, not NaN, even when GC
        // copied bytes with no host write to divide by.
        assert_eq!(c.flash_write_amplification(), 1.0);
        c.on_gc(1, 4096);
        assert_eq!(c.flash_write_amplification(), 1.0);
        c.on_write(4096, StreamId::DataCold, Duration::from_micros(50));
        c.on_gc(1, 4096);
        assert_eq!(c.gc_passes.get(), 2);
        assert_eq!(c.gc_copied_bytes.get(), 8192);
        assert!((c.flash_write_amplification() - 3.0).abs() < 1e-9);
    }
}
