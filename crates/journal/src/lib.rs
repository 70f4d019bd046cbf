//! The write-ahead journal on NVRAM.
//!
//! Ceph acknowledges a write once the journal entry is durable on the
//! primary *and* every replica (splay replication); the filestore applies
//! asynchronously afterwards. This crate implements that journal as a ring
//! on an [`afc_device::BlockDev`] (the paper used a PMC 8 GB NVRAM card,
//! 2 GB per OSD):
//!
//! - **Group commit**: submissions enqueue into a pending batch; the
//!   committer thread drains the queue, writes one coalesced multi-entry
//!   record (per-entry checksums preserved), issues a **single flush**
//!   barrier for the whole record, and fires every commit callback in
//!   submission order on its own thread — no per-entry device round trip,
//!   no completion-channel hop. Batch size is bounded by
//!   [`JournalConfig::batch_max_ops`] / [`JournalConfig::batch_max_bytes`];
//!   an adaptive linger ([`JournalConfig::batch_max_wait`]) lets a batch
//!   that already holds ≥2 entries fill further, while a lone entry always
//!   flushes immediately so low queue depth pays no added latency.
//! - **Inline fast path**: [`Journal::submit_inline`] commits on the
//!   *calling* thread when the journal is idle, skipping the committer
//!   wakeup entirely; under contention it degrades to the queued path. A
//!   `committing` flag makes inline and batch commits mutually exclusive,
//!   so the global callback order is still exactly sequence order.
//! - **Ring space accounting**: entries occupy the ring until the filestore
//!   reports them applied ([`Journal::trim_through`]). When the ring fills,
//!   submitters block — the backpressure behind Figure 10's 32K-random-write
//!   fluctuation ("if journal is full with its data, the system gets blocked
//!   until some of data in journal is flushed to filestore").
//! - **Replay**: untrimmed entries survive a crash (NVRAM is persistent) and
//!   [`Journal::replay`] returns them oldest-first for filestore re-apply.
//!
//! # Torn-write contract
//!
//! Every entry carries a checksum over `(seq, payload)`. When the backing
//! device reports a torn write ([`AfcError::TornWrite`], fault injection
//! modeling power loss mid-transfer), the batch's tail entry reached media
//! only partially: it is published with a poisoned checksum and its commit
//! callback is **dropped** — the write was never durable, so it must never
//! be acknowledged. A torn record is also never flushed: the barrier only
//! runs for records that reached media whole. [`Journal::replay`] validates
//! checksums oldest-first and truncates the log at the first invalid entry;
//! garbage past a tear is never replayed. [`Journal::crash_image`] +
//! [`Journal::recover`] model a crash/restart: the image holds exactly the
//! media-durable entries (in-flight submissions are lost, like DRAM
//! contents at power loss).

#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod stats;

pub use stats::JournalStatsCell;

use afc_common::lockdep::{self, classes, TrackedCondvar, TrackedMutex};
use afc_common::{sleep_for, wait_until, AfcError, Result};
use afc_device::{BlockDev, IoReq, StreamId};
use bytes::Bytes;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Journal configuration.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Ring capacity in bytes (2 GiB per OSD in the paper's testbed).
    pub capacity: u64,
    /// Device-write alignment (direct I/O block size).
    pub align: u64,
    /// Maximum entries folded into one group-commit record.
    pub batch_max_ops: usize,
    /// Maximum aligned bytes folded into one group-commit record. A batch
    /// always admits at least one entry regardless of this cap.
    pub batch_max_bytes: u64,
    /// Adaptive linger: once the pending batch holds ≥2 entries, wait up
    /// to this long for it to fill before flushing. A lone entry never
    /// lingers, so low queue depth pays no added latency. Zero disables
    /// lingering entirely (flush whatever drained).
    pub batch_max_wait: Duration,
    /// Fail `submit` instead of blocking when the ring is full.
    pub fail_when_full: bool,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            capacity: 2 * 1024 * 1024 * 1024,
            // The journal device is byte-addressable PMC NVRAM, not a
            // block SSD: a 4 KiB direct-I/O alignment would pad every
            // 4 KiB client op to an 8 KiB footprint (2× journal write
            // amplification on its own). 256 B keeps records cache-line
            // aligned while writing only what the record needs.
            align: 256,
            batch_max_ops: 64,
            batch_max_bytes: 8 * 1024 * 1024,
            batch_max_wait: Duration::ZERO,
            fail_when_full: false,
        }
    }
}

/// Commit callback: receives the entry's journal sequence number. Runs on
/// the journal committer thread (or the submitting thread for inline
/// commits), always in sequence order.
pub type CommitFn = Box<dyn FnOnce(u64) + Send>;

/// A journaled entry retained for replay until trimmed.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// Monotonic sequence number (1-based).
    pub seq: u64,
    /// Aligned on-ring footprint in bytes.
    pub footprint: u64,
    /// The serialized transaction payload.
    pub payload: Bytes,
    /// Checksum over `(seq, payload)`; a mismatch marks a torn tail.
    pub checksum: u64,
}

/// Checksum binding an entry's payload to its sequence number, so a stale
/// payload at a reused ring offset can never validate under a new seq.
pub fn entry_checksum(seq: u64, payload: &[u8]) -> u64 {
    afc_common::rng::hash_bytes(payload) ^ afc_common::rng::mix64(seq)
}

impl JournalEntry {
    /// Whether the stored checksum matches the payload.
    pub fn is_valid(&self) -> bool {
        self.checksum == entry_checksum(self.seq, &self.payload)
    }
}

/// What [`Journal::replay`] found in the ring.
pub struct Replay {
    /// The valid committed-but-untrimmed entries, oldest first.
    pub entries: Vec<JournalEntry>,
    /// The sequences this call truncated (a torn tail and everything
    /// behind it): never durable, never acknowledged. Empty: log was whole.
    pub truncated: Range<u64>,
}

struct Pending {
    seq: u64,
    footprint: u64,
    payload: Bytes,
    on_commit: CommitFn,
}

struct RingState {
    /// Entries waiting for the committer thread.
    pending: VecDeque<Pending>,
    /// Committed but untrimmed entries (replay set), oldest first.
    live: VecDeque<JournalEntry>,
    /// Bytes occupied by pending + live entries.
    used: u64,
    next_seq: u64,
    write_cursor: u64,
    /// A record (batch or inline) is between drain and callback-complete.
    /// While set, no other commit may start: this is what serializes
    /// inline commits against the committer and keeps callback order
    /// equal to sequence order.
    committing: bool,
    shutdown: bool,
}

struct Inner {
    cfg: JournalConfig,
    dev: Arc<dyn BlockDev>,
    ring: TrackedMutex<RingState>,
    /// Committer wakeup (work arrived, or `committing` cleared).
    work_cv: TrackedCondvar,
    /// Space-available wakeup for blocked submitters.
    space_cv: TrackedCondvar,
    stats: JournalStatsCell,
}

/// The write-ahead ring journal. See the crate docs.
pub struct Journal {
    inner: Arc<Inner>,
    committer: Option<std::thread::JoinHandle<()>>,
}

impl Journal {
    /// Open a journal on `dev`. The configured capacity is clamped to the
    /// device size.
    pub fn new(dev: Arc<dyn BlockDev>, cfg: JournalConfig) -> Arc<Self> {
        let cfg = JournalConfig {
            capacity: cfg.capacity.min(dev.capacity()),
            ..cfg
        };
        let inner = Arc::new(Inner {
            cfg,
            dev,
            ring: TrackedMutex::new(
                &classes::JOURNAL_RING,
                RingState {
                    pending: VecDeque::new(),
                    live: VecDeque::new(),
                    used: 0,
                    next_seq: 1,
                    write_cursor: 0,
                    committing: false,
                    shutdown: false,
                },
            ),
            work_cv: TrackedCondvar::new(),
            space_cv: TrackedCondvar::new(),
            stats: JournalStatsCell::default(),
        });
        let committer = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("journal-committer".into())
                .spawn(move || committer_loop(inner))
                .expect("spawn journal committer")
        };
        Arc::new(Journal {
            inner,
            committer: Some(committer),
        })
    }

    /// Aligned ring footprint of a payload (header + data, rounded up).
    fn footprint(&self, len: usize) -> u64 {
        let raw = len as u64 + 64; // entry header
        raw.div_ceil(self.inner.cfg.align) * self.inner.cfg.align
    }

    /// Reject an entry that could never fit the ring.
    fn check_footprint(&self, footprint: u64) -> Result<()> {
        if footprint > self.inner.cfg.capacity {
            return Err(AfcError::InvalidArgument(format!(
                "entry footprint {footprint} exceeds journal capacity {}",
                self.inner.cfg.capacity
            )));
        }
        Ok(())
    }

    /// Submit a transaction payload into the pending group-commit batch.
    /// Blocks while the ring is full (or fails with [`AfcError::Full`]
    /// when `fail_when_full`). `on_commit` fires on the committer thread
    /// once the entry's record is durable.
    pub fn submit(&self, payload: Bytes, on_commit: CommitFn) -> Result<u64> {
        let footprint = self.footprint(payload.len());
        self.check_footprint(footprint)?;
        let inner = &self.inner;
        if !inner.cfg.fail_when_full {
            // May park on space_cv until the filestore trims; callers must
            // not hold any no-block lock class across this.
            lockdep::assert_blockable("journal submit (ring-full wait)");
        }
        let mut ring = inner.ring.lock();
        while ring.used + footprint > inner.cfg.capacity {
            if ring.shutdown {
                return Err(AfcError::ShutDown("journal".into()));
            }
            if inner.cfg.fail_when_full {
                return Err(AfcError::Full("journal ring".into()));
            }
            inner.stats.full_stalls.inc();
            let t0 = Instant::now();
            inner.space_cv.wait(&mut ring);
            inner
                .stats
                .full_stall_us
                .add(t0.elapsed().as_micros() as u64);
        }
        if ring.shutdown {
            return Err(AfcError::ShutDown("journal".into()));
        }
        let seq = ring.next_seq;
        ring.next_seq += 1;
        ring.used += footprint;
        ring.pending.push_back(Pending {
            seq,
            footprint,
            payload,
            on_commit,
        });
        inner.stats.submits.inc();
        inner.work_cv.notify_one();
        Ok(seq)
    }

    /// Submit with the low-queue-depth fast path: when the journal is
    /// idle (no pending batch, no commit in flight, space available), the
    /// record is written and flushed on the *calling* thread and
    /// `on_commit` fires before this returns — no committer-thread hop.
    /// Otherwise it degrades to the queued group-commit path. Callback
    /// order is sequence order either way (see `RingState::committing`).
    ///
    /// The caller eats the device latency, so use this only from threads
    /// allowed to block for a device write (e.g. replica-side dispatch).
    pub fn submit_inline(&self, payload: Bytes, on_commit: CommitFn) -> Result<u64> {
        let footprint = self.footprint(payload.len());
        self.check_footprint(footprint)?;
        let inner = &self.inner;
        let seq = {
            let mut ring = inner.ring.lock();
            if ring.shutdown {
                return Err(AfcError::ShutDown("journal".into()));
            }
            if !ring.pending.is_empty()
                || ring.committing
                || ring.used + footprint > inner.cfg.capacity
            {
                drop(ring);
                return self.submit(payload, on_commit);
            }
            let seq = ring.next_seq;
            ring.next_seq += 1;
            ring.used += footprint;
            ring.committing = true;
            inner.stats.submits.inc();
            seq
        };
        // A batch of one, claimed by the caller instead of the committer.
        let entry = Pending {
            seq,
            footprint,
            payload,
            on_commit,
        };
        if !commit_record(inner, vec![entry]) {
            inner.stats.inline_commits.inc();
        }
        Ok(seq)
    }

    /// Submit and block until the entry is durable (convenience for tests
    /// and simple callers).
    pub fn submit_and_wait(&self, payload: Bytes) -> Result<u64> {
        lockdep::assert_blockable("journal submit_and_wait");
        let (tx, rx) = crossbeam::channel::bounded(1);
        let seq = self.submit(
            payload,
            Box::new(move |s| {
                let _ = tx.send(s);
            }),
        )?;
        rx.recv()
            .map_err(|_| AfcError::ShutDown("journal".into()))?;
        Ok(seq)
    }

    /// Release ring space for all entries with `seq <= through` (the
    /// filestore has applied them).
    pub fn trim_through(&self, through: u64) {
        let inner = &self.inner;
        let mut ring = inner.ring.lock();
        let mut freed = 0u64;
        while let Some(front) = ring.live.front() {
            if front.seq > through {
                break;
            }
            freed += front.footprint;
            ring.live.pop_front();
        }
        if freed > 0 {
            ring.used -= freed;
            inner.stats.trimmed_bytes.add(freed);
            inner.space_cv.notify_all();
        }
    }

    /// Committed-but-untrimmed entries, oldest first (crash replay set).
    ///
    /// Checksums are validated oldest-first and the log is truncated at the
    /// first invalid entry: a torn tail (and anything structurally after
    /// it) is discarded, never handed back for re-apply, and reported so
    /// the caller stops waiting for it. Truncation frees the garbage's ring
    /// space, so a second call returns the same valid prefix — idempotent.
    pub fn replay(&self) -> Replay {
        let inner = &self.inner;
        let mut ring = inner.ring.lock();
        let valid = ring.live.iter().take_while(|e| e.is_valid()).count();
        let garbage: Vec<JournalEntry> = ring.live.drain(valid..).collect();
        let mut truncated = 0..0;
        if let (Some(first), Some(last)) = (garbage.first(), garbage.last()) {
            truncated = first.seq..last.seq + 1;
            ring.used -= garbage.iter().map(|e| e.footprint).sum::<u64>();
            inner.stats.replay_truncated.add(garbage.len() as u64);
            inner.space_cv.notify_all();
        }
        Replay {
            entries: ring.live.iter().cloned().collect(),
            truncated,
        }
    }

    /// The highest sequence number handed out so far (0: none yet).
    pub fn last_seq(&self) -> u64 {
        self.inner.ring.lock().next_seq - 1
    }

    /// The media-durable entry set as of *now*: what survives a simulated
    /// power loss. In-flight (pending) submissions are excluded — they were
    /// still in DRAM. A torn tail is included as-written (bad checksum);
    /// [`Journal::replay`] on the recovered journal truncates it.
    pub fn crash_image(&self) -> Vec<JournalEntry> {
        self.inner.ring.lock().live.iter().cloned().collect()
    }

    /// Re-open a journal from a crash image (see [`Journal::crash_image`]).
    /// Sequencing resumes after the highest recovered entry.
    pub fn recover(
        dev: Arc<dyn BlockDev>,
        cfg: JournalConfig,
        image: Vec<JournalEntry>,
    ) -> Arc<Self> {
        let j = Journal::new(dev, cfg);
        {
            let mut ring = j.inner.ring.lock();
            ring.used = image.iter().map(|e| e.footprint).sum();
            ring.next_seq = image.iter().map(|e| e.seq).max().unwrap_or(0) + 1;
            ring.live = image.into();
        }
        j
    }

    /// Fraction of the ring currently occupied.
    pub fn used_fraction(&self) -> f64 {
        let ring = self.inner.ring.lock();
        ring.used as f64 / self.inner.cfg.capacity as f64
    }

    /// The journal's live counters.
    pub fn stats(&self) -> &JournalStatsCell {
        &self.inner.stats
    }

    /// Register this journal's stat counters into a cluster metric
    /// registry under `<prefix>.<field>` (e.g. `node0.journal.commits`).
    pub fn register_metrics(&self, m: &afc_common::metrics::Metrics, prefix: &str) {
        self.inner.stats.register_into(m, prefix);
    }

    /// Block until every submitted entry has committed — or, for torn
    /// tails, been dropped (their callbacks never fire). Test helper.
    pub fn quiesce(&self) {
        loop {
            let s = &self.inner.stats;
            if s.commits.get() + s.torn_writes.get() >= s.submits.get() {
                return;
            }
            sleep_for(Duration::from_micros(200));
        }
    }
}

/// Write one coalesced record of `total` aligned bytes at the ring cursor
/// and harden it with the group-commit flush barrier. Returns whether the
/// record's tail tore. Called with no locks held (the device wait blocks).
///
/// One modeled event, one wait: the write and its barrier are both
/// *planned* on the device, back to back, and the thread waits once, for
/// the later completion — the barrier's, which the device orders behind
/// the write it hardens. Faults surface at plan time exactly as
/// [`BlockDev::submit`] surfaces them.
fn write_record(inner: &Inner, total: u64) -> bool {
    let offset = {
        let mut ring = inner.ring.lock();
        let cap = inner.cfg.capacity;
        if ring.write_cursor + total > cap {
            ring.write_cursor = 0;
        }
        let off = ring.write_cursor;
        ring.write_cursor += total;
        off
    };
    // When the record is on media; `None` when a fault kept the device
    // from taking the request at all (nothing to wait for).
    let mut done = None;
    let torn = match inner.dev.plan(IoReq::write_stream(
        offset,
        total.min(u32::MAX as u64) as u32,
        StreamId::Journal,
    )) {
        Ok(p) => {
            done = Some(p.completion);
            false
        }
        Err(AfcError::TornWrite(_)) => {
            // Power-loss model: a prefix of the record reached media, the
            // tail entry tore. The caller poisons the tail when publishing.
            inner.stats.torn_writes.inc();
            true
        }
        Err(_) => {
            // Injected device fault: entries are still accepted (NVRAM
            // models don't really fail mid-stream); account and continue.
            inner.stats.write_errors.inc();
            false
        }
    };
    inner.stats.batches.inc();
    inner.stats.bytes_written.add(total);
    if !torn {
        // One barrier makes the whole record durable — this is the flush
        // the group amortizes. A torn record never reached media whole,
        // so there is nothing to harden.
        match inner.dev.plan(IoReq::flush()) {
            Ok(p) => {
                inner.stats.flushes.inc();
                done = done.max(Some(p.completion));
            }
            Err(_) => inner.stats.write_errors.inc(),
        }
    }
    if let Some(done) = done {
        wait_until(inner.dev.wait_class(), done);
    }
    torn
}

/// Commit one claimed batch (the caller set `committing` and took these
/// entries out of `pending`): write one record, publish it to the replay
/// set, fire the callbacks in submission order on this thread, and only
/// then let the next record start. Returns whether the tail tore.
fn commit_record(inner: &Inner, batch: Vec<Pending>) -> bool {
    let torn = write_record(inner, batch.iter().map(|p| p.footprint).sum());
    let n = batch.len();
    let mut callbacks: Vec<(u64, CommitFn)> = Vec::with_capacity(n);
    {
        let mut ring = inner.ring.lock();
        for (i, p) in batch.into_iter().enumerate() {
            let tail_torn = torn && i + 1 == n;
            let mut checksum = entry_checksum(p.seq, &p.payload);
            if tail_torn {
                // The tail is garbage on media: poison its checksum so
                // replay truncates it. Never durable, so never
                // acknowledged: its commit callback is dropped.
                checksum = !checksum;
            }
            ring.live.push_back(JournalEntry {
                seq: p.seq,
                footprint: p.footprint,
                payload: p.payload,
                checksum,
            });
            if !tail_torn {
                callbacks.push((p.seq, p.on_commit));
            }
        }
    }
    for (seq, cb) in callbacks {
        inner.stats.commits.inc();
        cb(seq);
    }
    inner.ring.lock().committing = false;
    inner.work_cv.notify_all();
    torn
}

fn committer_loop(inner: Arc<Inner>) {
    loop {
        // Claim a batch: wait for work and for any in-flight record
        // (inline or previous batch) to finish its callbacks.
        let batch: Vec<Pending> = {
            let mut ring = inner.ring.lock();
            loop {
                if !ring.pending.is_empty() && !ring.committing {
                    break;
                }
                if ring.shutdown && ring.pending.is_empty() {
                    return;
                }
                inner.work_cv.wait(&mut ring);
            }
            // Adaptive linger: a lone entry flushes immediately (low
            // queue depth must not pay added latency); with ≥2 entries
            // queued, arrivals are bursty — wait up to batch_max_wait for
            // the batch to fill before flushing.
            let wait = inner.cfg.batch_max_wait;
            if !wait.is_zero() && ring.pending.len() >= 2 {
                let deadline = Instant::now() + wait;
                let full = |r: &RingState| {
                    r.pending.len() >= inner.cfg.batch_max_ops
                        || r.pending.iter().map(|p| p.footprint).sum::<u64>()
                            >= inner.cfg.batch_max_bytes
                };
                while !full(&ring) && !ring.shutdown {
                    if inner.work_cv.wait_until(&mut ring, deadline).timed_out() {
                        break;
                    }
                }
            }
            // Drain up to the ops/bytes caps (always at least one entry).
            let mut n = 0usize;
            let mut bytes = 0u64;
            for p in ring.pending.iter() {
                if n == inner.cfg.batch_max_ops
                    || (n > 0 && bytes + p.footprint > inner.cfg.batch_max_bytes)
                {
                    break;
                }
                bytes += p.footprint;
                n += 1;
            }
            ring.committing = true;
            ring.pending.drain(..n).collect()
        };
        commit_record(&inner, batch);
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        {
            let mut ring = self.inner.ring.lock();
            ring.shutdown = true;
        }
        self.inner.work_cv.notify_all();
        self.inner.space_cv.notify_all();
        if let Some(h) = self.committer.take() {
            if h.thread().id() != std::thread::current().id() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afc_common::MIB;
    use afc_device::{Nvram, NvramConfig};
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicU64, Ordering as AOrd};

    fn journal(capacity: u64) -> Arc<Journal> {
        let dev = Arc::new(Nvram::new(NvramConfig::pmc_8g()));
        Journal::new(
            dev,
            JournalConfig {
                capacity,
                // Ring-occupancy tests below size their payloads around
                // 4 KiB footprints; pin the alignment they were written
                // against rather than the production default.
                align: 4096,
                ..JournalConfig::default()
            },
        )
    }

    fn payload(n: usize) -> Bytes {
        Bytes::from(vec![0xabu8; n])
    }

    #[test]
    fn submit_commits_and_fires_callback() {
        let j = journal(16 * MIB);
        let fired = Arc::new(AtomicU64::new(0));
        let f = Arc::clone(&fired);
        let seq = j
            .submit(
                payload(4096),
                Box::new(move |s| {
                    f.store(s, AOrd::SeqCst);
                }),
            )
            .unwrap();
        j.quiesce();
        assert_eq!(fired.load(AOrd::SeqCst), seq);
        let s = j.stats();
        assert_eq!(s.submits.get(), 1);
        assert_eq!(s.commits.get(), 1);
        assert!(s.bytes_written.get() >= 4096);
        assert_eq!(s.flushes.get(), 1, "one barrier per record");
    }

    #[test]
    fn sequences_are_monotonic_and_callbacks_ordered() {
        let j = journal(64 * MIB);
        let order = Arc::new(Mutex::new(Vec::new()));
        for _ in 0..100 {
            let o = Arc::clone(&order);
            j.submit(payload(100), Box::new(move |s| o.lock().push(s)))
                .unwrap();
        }
        j.quiesce();
        let o = order.lock();
        assert_eq!(o.len(), 100);
        assert!(o.windows(2).all(|w| w[0] < w[1]), "commit order broken");
    }

    #[test]
    fn batching_reduces_device_writes() {
        let j = journal(64 * MIB);
        for _ in 0..200 {
            j.submit(payload(512), Box::new(|_| {})).unwrap();
        }
        j.quiesce();
        let s = j.stats();
        assert!(
            s.batches.get() < s.submits.get(),
            "batches={} submits={}",
            s.batches.get(),
            s.submits.get()
        );
        // One flush per record, not per entry: the group-commit payoff.
        assert_eq!(s.flushes.get(), s.batches.get());
    }

    #[test]
    fn batch_respects_bytes_cap() {
        let dev = Arc::new(Nvram::new(NvramConfig::pmc_8g()));
        let j = Journal::new(
            dev,
            JournalConfig {
                capacity: 64 * MIB,
                // Two 4K-aligned footprints per record, max.
                align: 4096,
                batch_max_bytes: 8 * 1024,
                ..JournalConfig::default()
            },
        );
        for _ in 0..10 {
            j.submit(payload(512), Box::new(|_| {})).unwrap();
        }
        j.quiesce();
        let s = j.stats();
        assert_eq!(s.commits.get(), 10);
        assert!(
            s.batches.get() >= 5,
            "bytes cap ignored: {} batches",
            s.batches.get()
        );
    }

    #[test]
    fn inline_commit_fires_before_return() {
        let j = journal(16 * MIB);
        let fired = Arc::new(AtomicU64::new(0));
        let f = Arc::clone(&fired);
        let seq = j
            .submit_inline(
                payload(1024),
                Box::new(move |s| {
                    f.store(s, AOrd::SeqCst);
                }),
            )
            .unwrap();
        // No quiesce: the callback ran on *this* thread before return.
        assert_eq!(fired.load(AOrd::SeqCst), seq);
        let s = j.stats();
        assert_eq!(s.inline_commits.get(), 1);
        assert_eq!(s.commits.get(), 1);
        assert_eq!(s.flushes.get(), 1);
        assert_eq!(j.replay().entries.len(), 1);
    }

    #[test]
    fn mixed_inline_and_queued_callbacks_stay_ordered() {
        let j = journal(64 * MIB);
        let order = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            for t in 0..4 {
                let j = &j;
                let order = Arc::clone(&order);
                s.spawn(move || {
                    for _ in 0..50 {
                        let o = Arc::clone(&order);
                        let cb: CommitFn = Box::new(move |s| o.lock().push(s));
                        if t % 2 == 0 {
                            j.submit_inline(payload(128), cb).unwrap();
                        } else {
                            j.submit(payload(128), cb).unwrap();
                        }
                    }
                });
            }
        });
        j.quiesce();
        let o = order.lock();
        assert_eq!(o.len(), 200);
        assert!(
            o.windows(2).all(|w| w[0] < w[1]),
            "inline/queued commit interleaving broke order"
        );
    }

    #[test]
    fn linger_fills_batches_under_load() {
        let dev = Arc::new(Nvram::new(NvramConfig::pmc_8g()));
        let j = Journal::new(
            dev,
            JournalConfig {
                capacity: 64 * MIB,
                batch_max_wait: Duration::from_millis(5),
                ..JournalConfig::default()
            },
        );
        // Queue a burst before the committer can drain it all; the linger
        // window should coalesce the stragglers instead of emitting many
        // tiny records.
        for _ in 0..64 {
            j.submit(payload(256), Box::new(|_| {})).unwrap();
        }
        j.quiesce();
        let s = j.stats();
        assert_eq!(s.commits.get(), 64);
        assert!(
            s.batches.get() <= 8,
            "linger did not coalesce: {}",
            s.batches.get()
        );
    }

    #[test]
    fn full_ring_blocks_until_trim() {
        let j = journal(64 * 1024); // 16 4K-aligned slots
        let mut seqs = Vec::new();
        for _ in 0..16 {
            seqs.push(j.submit(payload(1000), Box::new(|_| {})).unwrap());
        }
        j.quiesce();
        assert!(j.used_fraction() > 0.9);
        // Next submit would block; trim from another thread unblocks it.
        let j2 = Arc::clone(&j);
        let last = *seqs.last().unwrap();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            j2.trim_through(last);
        });
        let t0 = Instant::now();
        j.submit(payload(1000), Box::new(|_| {})).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(25), "did not block");
        t.join().unwrap();
        assert!(j.stats().full_stalls.get() > 0);
        assert!(j.stats().full_stall_us.get() > 0);
    }

    #[test]
    fn fail_when_full_mode_errors() {
        let dev = Arc::new(Nvram::new(NvramConfig::pmc_8g()));
        let j = Journal::new(
            dev,
            JournalConfig {
                capacity: 16 * 1024,
                // 4 slots of 1000-byte payloads at 4 KiB footprints.
                align: 4096,
                fail_when_full: true,
                ..JournalConfig::default()
            },
        );
        let mut ok = 0;
        let mut full = 0;
        for _ in 0..10 {
            match j.submit(payload(1000), Box::new(|_| {})) {
                Ok(_) => ok += 1,
                Err(AfcError::Full(_)) => full += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(ok >= 3 && full >= 1, "ok={ok} full={full}");
    }

    #[test]
    fn replay_returns_untrimmed_entries() {
        let j = journal(16 * MIB);
        let mut seqs = Vec::new();
        for i in 0..10 {
            seqs.push(
                j.submit(Bytes::from(vec![i as u8; 64]), Box::new(|_| {}))
                    .unwrap(),
            );
        }
        j.quiesce();
        assert_eq!(j.replay().entries.len(), 10);
        j.trim_through(seqs[4]);
        let r = j.replay().entries;
        assert_eq!(r.len(), 5);
        assert_eq!(r[0].seq, seqs[5]);
        assert_eq!(r[0].payload[0], 5u8);
        // Trim everything.
        j.trim_through(u64::MAX);
        assert!(j.replay().entries.is_empty());
        assert_eq!(j.used_fraction(), 0.0);
    }

    #[test]
    fn oversized_entry_rejected() {
        let j = journal(64 * 1024);
        let err = j.submit(payload(128 * 1024), Box::new(|_| {})).unwrap_err();
        assert_eq!(err.kind(), "invalid_argument");
        let err = j
            .submit_inline(payload(128 * 1024), Box::new(|_| {}))
            .unwrap_err();
        assert_eq!(err.kind(), "invalid_argument");
    }

    #[test]
    fn submit_and_wait_round_trip() {
        let j = journal(16 * MIB);
        let seq = j.submit_and_wait(payload(2048)).unwrap();
        assert_eq!(seq, 1);
        assert_eq!(j.stats().commits.get(), 1);
    }

    #[test]
    fn concurrent_submitters() {
        let j = journal(64 * MIB);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let j = &j;
                s.spawn(move || {
                    for _ in 0..100 {
                        j.submit_and_wait(payload(256)).unwrap();
                    }
                });
            }
        });
        let s = j.stats();
        assert_eq!(s.submits.get(), 800);
        assert_eq!(s.commits.get(), 800);
    }

    #[test]
    fn drop_with_pending_work_is_clean() {
        let j = journal(16 * MIB);
        for _ in 0..50 {
            j.submit(payload(100), Box::new(|_| {})).unwrap();
        }
        drop(j); // must not hang
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use afc_common::faults::{FaultKind, FaultRegistry, FaultSpec};
    use afc_device::{Nvram, NvramConfig};
    use std::sync::atomic::{AtomicU64, Ordering as AOrd};

    #[test]
    fn entry_checksum_binds_seq_and_payload() {
        let p = Bytes::from_static(b"payload");
        let e = JournalEntry {
            seq: 9,
            footprint: 4096,
            payload: p.clone(),
            checksum: entry_checksum(9, &p),
        };
        assert!(e.is_valid());
        assert!(!JournalEntry {
            seq: 10,
            ..e.clone()
        }
        .is_valid());
        assert!(!JournalEntry {
            payload: Bytes::from_static(b"payloae"),
            ..e
        }
        .is_valid());
    }

    #[test]
    fn torn_tail_never_acks_and_replay_truncates() {
        let dev = Arc::new(Nvram::new(NvramConfig::pmc_8g()));
        let reg = Arc::new(FaultRegistry::new());
        dev.faults().attach(Arc::clone(&reg), "jdev");
        let j = Journal::new(dev, JournalConfig::default());
        for i in 0..3u8 {
            j.submit_and_wait(Bytes::from(vec![i; 256])).unwrap();
        }
        // The next device write tears: the entry lands with a poisoned
        // checksum and its commit callback must never fire.
        reg.install(FaultSpec::new("jdev.write", FaultKind::Torn));
        let acked = Arc::new(AtomicU64::new(0));
        let a = Arc::clone(&acked);
        j.submit(
            Bytes::from(vec![9u8; 256]),
            Box::new(move |_| {
                a.fetch_add(1, AOrd::SeqCst);
            }),
        )
        .unwrap();
        j.quiesce();
        assert_eq!(acked.load(AOrd::SeqCst), 0, "torn write was acked");
        assert_eq!(j.stats().torn_writes.get(), 1);

        // Crash: the image keeps the torn tail as-written...
        let image = j.crash_image();
        assert_eq!(image.len(), 4);
        assert!(!image[3].is_valid());
        drop(j);

        // ...and replay on the recovered journal truncates it, idempotently.
        let dev2 = Arc::new(Nvram::new(NvramConfig::pmc_8g()));
        let j2 = Journal::recover(dev2, JournalConfig::default(), image);
        let r1 = j2.replay();
        assert_eq!(r1.entries.len(), 3, "garbage tail must not be replayed");
        assert!(r1.entries.iter().all(JournalEntry::is_valid));
        assert_eq!(r1.truncated, 4..5, "the caller learns what was cut");
        assert_eq!(j2.stats().replay_truncated.get(), 1);
        let r2 = j2.replay();
        assert_eq!(
            r1.entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
            r2.entries.iter().map(|e| e.seq).collect::<Vec<_>>()
        );
        assert!(r2.truncated.is_empty(), "nothing left to cut");
        // Sequencing resumes after the highest recovered entry.
        let seq = j2.submit_and_wait(Bytes::from_static(b"next")).unwrap();
        assert_eq!(seq, 5);
    }

    #[test]
    fn torn_inline_commit_never_acks() {
        let dev = Arc::new(Nvram::new(NvramConfig::pmc_8g()));
        let reg = Arc::new(FaultRegistry::new());
        dev.faults().attach(Arc::clone(&reg), "jdev");
        let j = Journal::new(dev, JournalConfig::default());
        reg.install(FaultSpec::new("jdev.write", FaultKind::Torn));
        let acked = Arc::new(AtomicU64::new(0));
        let a = Arc::clone(&acked);
        j.submit_inline(
            Bytes::from(vec![7u8; 256]),
            Box::new(move |_| {
                a.fetch_add(1, AOrd::SeqCst);
            }),
        )
        .unwrap();
        j.quiesce();
        assert_eq!(acked.load(AOrd::SeqCst), 0, "torn inline write was acked");
        assert_eq!(j.stats().torn_writes.get(), 1);
        assert_eq!(
            j.stats().flushes.get(),
            0,
            "torn record must not be flushed"
        );
        // The poisoned entry truncates on replay; the journal keeps working.
        assert!(j.replay().entries.is_empty());
        let seq = j.submit_and_wait(Bytes::from_static(b"after")).unwrap();
        assert_eq!(seq, 2);
    }

    #[test]
    fn injected_device_faults_are_absorbed_and_counted() {
        let dev = Arc::new(Nvram::new(NvramConfig::pmc_8g()));
        let faults = Arc::clone(&dev);
        let j = Journal::new(dev, JournalConfig::default());
        faults.faults().inject(2);
        for _ in 0..6 {
            j.submit_and_wait(Bytes::from(vec![0u8; 512])).unwrap();
        }
        let s = j.stats();
        assert_eq!(
            s.commits.get(),
            6,
            "entries must commit despite device faults"
        );
        assert!(s.write_errors.get() >= 1, "faults not accounted: {s:?}");
    }
}
