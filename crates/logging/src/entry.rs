//! Log entries and the bounded in-memory ring.

use crate::Level;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Message payload: owned (formatted at the callsite) or interned (cache).
#[derive(Debug, Clone)]
enum Msg {
    Owned(String),
    Cached(Arc<str>),
}

/// One log entry.
#[derive(Debug, Clone)]
pub struct LogEntry {
    level: Level,
    subsys: &'static str,
    at: Instant,
    msg: Msg,
}

impl LogEntry {
    /// An entry with an owned, formatted message.
    pub fn new(level: Level, subsys: &'static str, msg: String) -> Self {
        LogEntry {
            level,
            subsys,
            at: Instant::now(),
            msg: Msg::Owned(msg),
        }
    }

    /// An entry referencing an interned message (no allocation).
    pub fn cached(level: Level, subsys: &'static str, msg: Arc<str>) -> Self {
        LogEntry {
            level,
            subsys,
            at: Instant::now(),
            msg: Msg::Cached(msg),
        }
    }

    /// Entry level.
    pub fn level(&self) -> Level {
        self.level
    }

    /// Originating subsystem.
    pub fn subsys(&self) -> &'static str {
        self.subsys
    }

    /// Submission timestamp.
    pub fn at(&self) -> Instant {
        self.at
    }

    /// Message text.
    pub fn message(&self) -> &str {
        match &self.msg {
            Msg::Owned(s) => s,
            Msg::Cached(s) => s,
        }
    }

    /// Whether the message came from the intern cache.
    pub fn is_cached(&self) -> bool {
        matches!(self.msg, Msg::Cached(_))
    }
}

/// Bounded ring of recent entries (Ceph's in-memory crash-dump buffer):
/// "the first log entry is overwritten when the number of log entries
/// reaches the limit".
#[derive(Debug)]
pub struct LogRing {
    buf: Mutex<VecDeque<LogEntry>>,
    capacity: usize,
}

impl LogRing {
    /// Create a ring holding up to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        LogRing {
            buf: Mutex::new(VecDeque::with_capacity(capacity.min(16_384))),
            capacity: capacity.max(1),
        }
    }

    /// Append, evicting the oldest entry at capacity.
    pub fn push(&self, e: LogEntry) {
        let mut b = self.buf.lock();
        if b.len() == self.capacity {
            b.pop_front();
        }
        b.push_back(e);
    }

    /// Append `batch` in order under one lock, evicting the oldest entries
    /// at capacity. On return `batch` holds the evicted entries instead, so
    /// the caller can drop them after the lock is released.
    pub fn push_batch(&self, batch: &mut VecDeque<LogEntry>) {
        let mut b = self.buf.lock();
        for _ in 0..batch.len() {
            if b.len() == self.capacity {
                batch.extend(b.pop_front());
            }
            b.extend(batch.pop_front());
        }
    }

    /// Snapshot oldest-first.
    pub fn dump(&self) -> Vec<LogEntry> {
        self.buf.lock().iter().cloned().collect()
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.buf.lock().len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_accessors() {
        let e = LogEntry::new(Level::Info, "osd", "hello".into());
        assert_eq!(e.level(), Level::Info);
        assert_eq!(e.subsys(), "osd");
        assert_eq!(e.message(), "hello");
        assert!(!e.is_cached());
        let c = LogEntry::cached(Level::Trace, "pg", Arc::from("cached"));
        assert!(c.is_cached());
        assert_eq!(c.message(), "cached");
    }

    #[test]
    fn ring_evicts_oldest() {
        let r = LogRing::new(3);
        for i in 0..5 {
            r.push(LogEntry::new(Level::Debug, "t", format!("{i}")));
        }
        let d = r.dump();
        assert_eq!(d.len(), 3);
        assert_eq!(d[0].message(), "2");
        assert_eq!(d[2].message(), "4");
        assert!(!r.is_empty());
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn push_batch_appends_in_order_and_hands_back_the_evicted() {
        let r = LogRing::new(3);
        let entries = |range: std::ops::Range<u32>| -> VecDeque<LogEntry> {
            range
                .map(|i| LogEntry::new(Level::Debug, "t", format!("{i}")))
                .collect()
        };
        let texts = |es: Vec<LogEntry>| -> Vec<String> {
            es.iter().map(|e| e.message().to_string()).collect()
        };
        let mut batch = entries(0..2);
        r.push_batch(&mut batch);
        assert!(batch.is_empty());
        // Longer than the ring: the batch's own head is evicted too.
        let mut batch = entries(2..7);
        r.push_batch(&mut batch);
        assert_eq!(texts(r.dump()), ["4", "5", "6"]);
        assert_eq!(texts(batch.into()), ["0", "1", "2", "3"]);
    }

    #[test]
    fn zero_capacity_clamped() {
        let r = LogRing::new(0);
        r.push(LogEntry::new(Level::Debug, "t", "x".into()));
        assert_eq!(r.len(), 1);
    }
}
