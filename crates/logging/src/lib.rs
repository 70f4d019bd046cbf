//! The debug-log subsystem (Ceph's `dout`), blocking and non-blocking.
//!
//! §2.3/§3.3 of the paper: every step of the OSD I/O path emits a debug log
//! entry. Community Ceph routes all entries through a single logging thread
//! and the *submitting* thread waits for its entry to be accepted — harmless
//! when each I/O takes milliseconds on an HDD, but on flash "the logging
//! sometimes takes longer than the actual I/O itself".
//!
//! Modes, selected by [`LogMode`]:
//!
//! - [`LogMode::Off`] — entries are counted and dropped (the paper's
//!   "no log" configuration in Figure 4).
//! - [`LogMode::Blocking`] — community behaviour. The submitter formats the
//!   message (a real allocation), enqueues under a global mutex, and blocks
//!   on a condvar until the single logger thread has consumed the entry.
//!   Every cost here is real: allocation, lock contention, two context
//!   switches per entry, FIFO serialization across *all* OSD threads.
//! - [`LogMode::NonBlocking`] — the paper's fix. Submission is a push onto a
//!   bounded staging queue under a short lock, never a syscall (drop-oldest
//!   on overflow, counted); multiple flusher threads move whole batches into
//!   the in-memory ring, one wake-up per linger instead of one per record
//!   (see [`nonblocking`]); a [`cache::LogCache`] interns repeated message
//!   strings so hot-path submissions allocate nothing.
//!
//! The in-memory ring (`dump()`) mirrors Ceph's crash-dump log buffer, and
//! an optional device sink models "filestore logging" to `/var/log`.

#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod blocking;
pub mod cache;
pub mod entry;
pub mod nonblocking;

pub use cache::LogCache;
pub use entry::{LogEntry, LogRing};

use afc_common::metrics::{Counter, Metrics};
use std::sync::Arc;

/// Verbosity level, ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Errors (always logged when logging is on).
    Error = 0,
    /// Operational info.
    Info = 1,
    /// Per-op debug (level 10-ish in Ceph terms).
    Debug = 2,
    /// Per-step trace (level 20-ish in Ceph terms).
    Trace = 3,
}

/// Logging mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogMode {
    /// Logging disabled.
    Off,
    /// Community Ceph: synchronous hand-off to a single logger thread.
    Blocking,
    /// AFCeph: asynchronous bounded staging queue with parallel flushers.
    NonBlocking,
}

/// Logger configuration.
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Mode.
    pub mode: LogMode,
    /// Maximum level recorded (entries above are skipped at the callsite).
    pub max_level: Level,
    /// In-memory ring capacity (entries).
    pub ring_entries: usize,
    /// Bounded submission queue length (non-blocking mode).
    pub queue_entries: usize,
    /// Flusher threads (non-blocking mode).
    pub flushers: usize,
}

impl LogConfig {
    /// Community defaults: blocking, debug level.
    pub fn community() -> Self {
        LogConfig {
            mode: LogMode::Blocking,
            max_level: Level::Debug,
            ring_entries: 10_000,
            queue_entries: 4096,
            flushers: 1,
        }
    }

    /// AFCeph defaults: non-blocking with two flushers.
    pub fn afceph() -> Self {
        LogConfig {
            mode: LogMode::NonBlocking,
            flushers: 2,
            ..Self::community()
        }
    }

    /// Logging off.
    pub fn off() -> Self {
        LogConfig {
            mode: LogMode::Off,
            ..Self::community()
        }
    }
}

enum Backend {
    Off,
    Blocking(blocking::BlockingLogger),
    NonBlocking(nonblocking::NonBlockingLogger),
}

/// The logger façade used by every component on the I/O path.
///
/// Cheap to clone via [`Arc`]; the OSD keeps one per daemon.
pub struct Logger {
    cfg: LogConfig,
    backend: Backend,
    submitted: Counter,
    dropped: Counter,
    skipped: Counter,
    block_wait_us: Counter,
    flushes: Counter,
    cache: LogCache,
}

impl Logger {
    /// Build a logger for `cfg`.
    pub fn new(cfg: LogConfig) -> Arc<Self> {
        let (submitted, dropped, block_wait_us) = (Counter::new(), Counter::new(), Counter::new());
        let flushes = Counter::new();
        let backend = match cfg.mode {
            LogMode::Off => Backend::Off,
            LogMode::Blocking => Backend::Blocking(blocking::BlockingLogger::new(
                cfg.ring_entries,
                submitted.clone(),
                block_wait_us.clone(),
            )),
            LogMode::NonBlocking => Backend::NonBlocking(nonblocking::NonBlockingLogger::new(
                cfg.ring_entries,
                cfg.queue_entries,
                cfg.flushers.max(1),
                submitted.clone(),
                dropped.clone(),
                flushes.clone(),
            )),
        };
        Arc::new(Logger {
            cfg,
            backend,
            submitted,
            dropped,
            skipped: Counter::new(),
            block_wait_us,
            flushes,
            cache: LogCache::new(),
        })
    }

    /// Fast level check; callsites skip argument formatting when false.
    #[inline]
    pub fn enabled(&self, level: Level) -> bool {
        !matches!(self.cfg.mode, LogMode::Off) && level <= self.cfg.max_level
    }

    /// Log a static message (the hot-path form: no allocation needed in
    /// non-blocking mode thanks to the string cache).
    #[inline]
    pub fn log(&self, level: Level, subsys: &'static str, msg: &'static str) {
        if !self.enabled(level) {
            self.skipped.inc();
            return;
        }
        match &self.backend {
            Backend::Off => unreachable!("enabled() filtered Off"),
            Backend::Blocking(b) => {
                // Community behaviour formats eagerly even for static text.
                b.submit(LogEntry::new(level, subsys, format!("{subsys}: {msg}")));
            }
            Backend::NonBlocking(nb) => {
                let cached = self.cache.intern(subsys, msg);
                nb.submit(LogEntry::cached(level, subsys, cached));
            }
        }
    }

    /// Log a dynamically-formatted message; `f` runs only when enabled.
    pub fn logf(&self, level: Level, subsys: &'static str, f: impl FnOnce() -> String) {
        if !self.enabled(level) {
            self.skipped.inc();
            return;
        }
        let msg = f();
        match &self.backend {
            Backend::Off => unreachable!("enabled() filtered Off"),
            Backend::Blocking(b) => b.submit(LogEntry::new(level, subsys, msg)),
            Backend::NonBlocking(nb) => nb.submit(LogEntry::new(level, subsys, msg)),
        }
    }

    /// Snapshot of the in-memory ring (most recent last).
    pub fn dump(&self) -> Vec<LogEntry> {
        match &self.backend {
            Backend::Off => Vec::new(),
            Backend::Blocking(b) => b.dump(),
            Backend::NonBlocking(nb) => nb.dump(),
        }
    }

    /// Wait until previously submitted entries have been processed
    /// (non-blocking mode; no-op otherwise). Test helper.
    pub fn drain(&self) {
        if let Backend::NonBlocking(nb) = &self.backend {
            nb.drain();
        }
    }

    /// Register this logger's counters into a cluster metric registry as
    /// `<prefix>.log.{submitted,dropped,skipped,block_wait_us,flushes}`
    /// (e.g. `osd0.log.dropped`). `flushes` counts the non-empty batches the
    /// non-blocking flushers moved into the ring, so `submitted ÷ flushes`
    /// is records per flusher wake-up.
    pub fn attach_metrics(&self, m: &Metrics, prefix: &str) {
        let fields: [(&str, &Counter); 5] = [
            ("submitted", &self.submitted),
            ("dropped", &self.dropped),
            ("skipped", &self.skipped),
            ("block_wait_us", &self.block_wait_us),
            ("flushes", &self.flushes),
        ];
        for (name, cell) in fields {
            m.register_counter(format!("{prefix}.log.{name}"), cell);
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> LogMode {
        self.cfg.mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_mode_drops_everything_cheaply() {
        let l = Logger::new(LogConfig::off());
        assert!(!l.enabled(Level::Error));
        l.log(Level::Error, "osd", "boom");
        l.logf(Level::Debug, "osd", || panic!("must not format when off"));
        assert!(l.dump().is_empty());
        assert_eq!(l.submitted.get(), 0);
        assert_eq!(l.skipped.get(), 2);
    }

    #[test]
    fn level_filter_skips_verbose() {
        let mut cfg = LogConfig::afceph();
        cfg.max_level = Level::Info;
        let l = Logger::new(cfg);
        assert!(l.enabled(Level::Info));
        assert!(!l.enabled(Level::Trace));
        l.log(Level::Trace, "osd", "noise");
        l.drain();
        assert!(l.dump().is_empty());
    }

    #[test]
    fn blocking_mode_records_in_order() {
        let l = Logger::new(LogConfig::community());
        for i in 0..50 {
            l.logf(Level::Debug, "osd", || format!("op {i}"));
        }
        let d = l.dump();
        assert_eq!(d.len(), 50);
        assert!(d[0].message().contains("op 0"));
        assert!(d[49].message().contains("op 49"));
        assert_eq!(l.submitted.get(), 50);
    }

    #[test]
    fn nonblocking_mode_records() {
        let l = Logger::new(LogConfig::afceph());
        for i in 0..100 {
            if i % 2 == 0 {
                l.log(Level::Debug, "osd", "static message");
            } else {
                l.logf(Level::Debug, "osd", || format!("dyn {i}"));
            }
        }
        l.drain();
        assert_eq!(l.dump().len(), 100);
        assert_eq!(l.submitted.get(), 100);
    }

    /// Figure 4's axis, per record: a blocking submit waits for the writer
    /// thread (two context switches), a non-blocking one is a lock and a
    /// push, `Off` is a branch. Best of five rounds each, so a burst of
    /// stolen CPU cannot reorder them.
    #[test]
    fn submit_cost_orders_blocking_nonblocking_off() {
        let ns_per_record = |cfg: LogConfig| {
            let l = Logger::new(cfg);
            (0..5)
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    for _ in 0..2_000 {
                        l.log(Level::Debug, "osd", "hot path event");
                    }
                    t0.elapsed().as_nanos() / 2_000
                })
                .min()
                .expect("five rounds")
        };
        let blocking = ns_per_record(LogConfig::community());
        let nonblocking = ns_per_record(LogConfig::afceph());
        let off = ns_per_record(LogConfig::off());
        assert!(
            blocking > nonblocking && nonblocking >= off,
            "ns per record: blocking {blocking}, non-blocking {nonblocking}, off {off}"
        );
    }

    #[test]
    fn concurrent_blocking_submissions_all_arrive() {
        let l = Logger::new(LogConfig::community());
        std::thread::scope(|s| {
            for t in 0..8 {
                let l = &l;
                s.spawn(move || {
                    for i in 0..100 {
                        l.logf(Level::Debug, "osd", || format!("t{t} op{i}"));
                    }
                });
            }
        });
        assert_eq!(l.dump().len(), 800);
    }

    #[test]
    fn blocking_wait_time_is_accounted() {
        let l = Logger::new(LogConfig::community());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let l = &l;
                s.spawn(move || {
                    for _ in 0..200 {
                        l.log(Level::Debug, "osd", "contend");
                    }
                });
            }
        });
        assert!(l.block_wait_us.get() > 0);
    }
}
