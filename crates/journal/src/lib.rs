//! The write-ahead journal on NVRAM.
//!
//! Ceph acknowledges a write once the journal entry is durable on the
//! primary *and* every replica (splay replication); the filestore applies
//! asynchronously afterwards. This crate implements that journal as a ring
//! on an [`afc_device::BlockDev`] (the paper used a PMC 8 GB NVRAM card,
//! 2 GB per OSD):
//!
//! - **Write group**: [`Journal::submit`] appends the entry to the pending
//!   queue. If no commit is in progress the submitter becomes the group's
//!   leader: it takes up to [`JournalConfig::batch_max_ops`] /
//!   [`JournalConfig::batch_max_bytes`] of the queue, writes them as one
//!   coalesced record (per-entry checksums preserved) behind a **single
//!   flush** barrier, fires their commit callbacks in sequence order, and
//!   repeats until the queue is empty. A submitter that finds a leader
//!   returns at once; the leader commits its entry. The journal owns no
//!   thread.
//! - **Durability is an instant, not a wait**: the record's write and
//!   flush are *planned* on the device ([`BlockDev::plan_at`]), no earlier
//!   than now and than the latest *not-before* instant its entries were
//!   submitted with, and the callback receives `(seq, durable)` — the
//!   sequence and the instant the record is on media — without any thread
//!   sleeping for it. A submitter passes now, unless its entry exists
//!   only from a later instant: a replica's sub-op taken on the primary's
//!   thread passes its `Replicate`'s arrival, so its record is on media no
//!   earlier than it would be had a thread waited out the hop. Whoever
//!   makes the entry's durability visible (an ack, a reply, an applied
//!   mark) does so no earlier than `durable`; [`Journal::submit_and_wait`]
//!   waits for it itself.
//! - **Ring space accounting**: entries occupy the ring until the filestore
//!   reports them applied ([`Journal::trim_through`]). A full ring is the
//!   backpressure behind Figure 10's 32K-random-write fluctuation ("if
//!   journal is full with its data, the system gets blocked until some of
//!   data in journal is flushed to filestore"), but the journal itself
//!   never waits: [`Journal::submit`] hands the wait to its caller, naming
//!   the entry whose trim makes room, and times it as a full-ring stall.
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
//! entries whose record is durable at the crash instant (records still
//! being written are lost, like DRAM contents at power loss).

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::let_underscore_must_use)]

pub mod stats;

pub use stats::JournalStatsCell;

use afc_common::lockdep::{self, classes, TrackedMutex};
use afc_common::timeutil::sleep_until;
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
        }
    }
}

/// Commit callback: receives the entry's journal sequence number and the
/// instant its record is durable (possibly still ahead). Runs on the
/// write group's leader — the submitting thread, or the one that was
/// committing when it submitted — always in sequence order.
pub type CommitFn = Box<dyn FnOnce(u64, Instant) + Send>;

/// The `make_room` of a submitter with nobody to trim the ring for it:
/// a full ring fails the submit with [`AfcError::Full`].
pub fn no_room(through: u64) -> Result<()> {
    Err(AfcError::Full(format!(
        "journal ring: no room until seq {through} is trimmed"
    )))
}

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
    /// Its record is planned no earlier than this.
    not_before: Instant,
    on_commit: CommitFn,
}

struct RingState {
    /// Entries waiting for the leader's next record, in sequence order.
    pending: VecDeque<Pending>,
    /// Written but untrimmed entries (replay set), oldest first, each
    /// beside the instant its record is durable.
    live: VecDeque<(JournalEntry, Instant)>,
    /// Bytes occupied by pending + live entries.
    used: u64,
    next_seq: u64,
    write_cursor: u64,
    /// A leader is committing records. Only the leader writes records and
    /// fires callbacks, which is what keeps callback order equal to
    /// sequence order.
    committing: bool,
}

impl RingState {
    /// The sequence whose trim leaves room for `footprint` more bytes in a
    /// ring of `capacity` — the oldest entries go first — or `None` when
    /// there is room now.
    fn trim_for(&self, footprint: u64, capacity: u64) -> Option<u64> {
        let mut excess = (self.used + footprint)
            .checked_sub(capacity)
            .filter(|&e| e > 0)?;
        let written = self.live.iter().map(|(e, _)| (e.seq, e.footprint));
        let pending = self.pending.iter().map(|p| (p.seq, p.footprint));
        written.chain(pending).find_map(|(seq, footprint)| {
            let room = footprint >= excess;
            excess = excess.saturating_sub(footprint);
            room.then_some(seq)
        })
    }
}

/// The write-ahead ring journal. See the crate docs.
pub struct Journal {
    cfg: JournalConfig,
    dev: Arc<dyn BlockDev>,
    ring: TrackedMutex<RingState>,
    stats: JournalStatsCell,
}

impl Journal {
    /// Open a journal on `dev`. The configured capacity is clamped to the
    /// device size.
    pub fn new(dev: Arc<dyn BlockDev>, cfg: JournalConfig) -> Arc<Self> {
        let cfg = JournalConfig {
            capacity: cfg.capacity.min(dev.capacity()),
            ..cfg
        };
        Arc::new(Journal {
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
                },
            ),
            stats: JournalStatsCell::default(),
        })
    }

    /// Aligned ring footprint of a payload (header + data, rounded up).
    fn footprint(&self, len: usize) -> u64 {
        let raw = len as u64 + 64; // entry header
        raw.div_ceil(self.cfg.align) * self.cfg.align
    }

    /// Submit a transaction payload whose record may start no earlier than
    /// `not_before` (now, for a payload that exists now); the journal
    /// waits for nothing, the device included. `on_commit` fires once the
    /// entry's record is written — on this thread when it leads the write
    /// group, else on the leader's — with the instant the record is
    /// durable. While the ring
    /// has no room for the entry, `make_room` is called off the ring lock
    /// with the sequence whose trim makes room, and timed as a full-ring
    /// stall: once it returns `Ok` the submit tries again, and its error is
    /// the submit's (`on_commit` dropped unfired, like every error here).
    pub fn submit(
        &self,
        payload: Bytes,
        not_before: Instant,
        on_commit: CommitFn,
        mut make_room: impl FnMut(u64) -> Result<()>,
    ) -> Result<u64> {
        let footprint = self.footprint(payload.len());
        if footprint > self.cfg.capacity {
            return Err(AfcError::InvalidArgument(format!(
                "entry footprint {footprint} exceeds journal capacity {}",
                self.cfg.capacity
            )));
        }
        let mut ring = self.ring.lock();
        while let Some(through) = ring.trim_for(footprint, self.cfg.capacity) {
            drop(ring);
            self.stats.full_stalls.inc();
            let t0 = Instant::now();
            let room = make_room(through);
            self.stats
                .full_stall_us
                .add(t0.elapsed().as_micros() as u64);
            room?;
            ring = self.ring.lock();
        }
        let seq = ring.next_seq;
        ring.next_seq += 1;
        ring.used += footprint;
        ring.pending.push_back(Pending {
            seq,
            footprint,
            payload,
            not_before,
            on_commit,
        });
        self.stats.submits.inc();
        if ring.committing {
            // The leader takes it into its next record.
            return Ok(seq);
        }
        ring.committing = true;
        while !ring.pending.is_empty() {
            let (durable, callbacks, torn) = self.write_record(&mut ring);
            drop(ring);
            // Dropped off the lock: what a callback holds may act when it
            // goes (a write's reply slot).
            drop(torn);
            for (s, cb) in callbacks {
                self.stats.commits.inc();
                if s == seq {
                    self.stats.inline_commits.inc();
                }
                cb(s, durable);
            }
            ring = self.ring.lock();
        }
        ring.committing = false;
        Ok(seq)
    }

    /// Submit and block until the entry is durable (convenience for tests
    /// and simple callers): one wait, booked to the device's ledger row.
    /// A full ring fails it ([`no_room`]).
    pub fn submit_and_wait(&self, payload: Bytes) -> Result<u64> {
        lockdep::assert_blockable("journal submit_and_wait");
        let (tx, rx) = crossbeam::channel::bounded(1);
        let seq = self.submit(
            payload,
            Instant::now(),
            Box::new(move |_, durable| {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "a send fails only once the waiter has gone, and then no one wants the instant"
                )]
                let _ = tx.send(durable);
            }),
            no_room,
        )?;
        // A torn entry's callback is dropped: never durable.
        let durable = rx
            .recv()
            .map_err(|_| AfcError::TornWrite(format!("journal seq {seq}")))?;
        wait_until(self.dev.wait_class(), durable);
        Ok(seq)
    }

    /// Release ring space for all entries with `seq <= through` (the
    /// filestore has applied them).
    pub fn trim_through(&self, through: u64) {
        let mut ring = self.ring.lock();
        let mut freed = 0u64;
        while let Some((front, _)) = ring.live.front() {
            if front.seq > through {
                break;
            }
            freed += front.footprint;
            ring.live.pop_front();
        }
        if freed > 0 {
            ring.used -= freed;
            self.stats.trimmed_bytes.add(freed);
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
        let mut ring = self.ring.lock();
        let valid = ring.live.iter().take_while(|(e, _)| e.is_valid()).count();
        let garbage: Vec<JournalEntry> = ring.live.drain(valid..).map(|(e, _)| e).collect();
        let mut truncated = 0..0;
        if let (Some(first), Some(last)) = (garbage.first(), garbage.last()) {
            truncated = first.seq..last.seq + 1;
            ring.used -= garbage.iter().map(|e| e.footprint).sum::<u64>();
            self.stats.replay_truncated.add(garbage.len() as u64);
        }
        Replay {
            entries: ring.live.iter().map(|(e, _)| e.clone()).collect(),
            truncated,
        }
    }

    /// The highest sequence number handed out so far (0: none yet).
    pub fn last_seq(&self) -> u64 {
        self.ring.lock().next_seq - 1
    }

    /// The media-durable entry set as of *now*: what survives a simulated
    /// power loss — the written entries up to the first whose record is
    /// not yet durable. Pending entries are excluded too: they were still
    /// in DRAM. A torn tail is included as-written (bad checksum);
    /// [`Journal::replay`] on the recovered journal truncates it.
    pub fn crash_image(&self) -> Vec<JournalEntry> {
        let now = Instant::now();
        let ring = self.ring.lock();
        ring.live
            .iter()
            .take_while(|(_, durable)| *durable <= now)
            .map(|(e, _)| e.clone())
            .collect()
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
            let now = Instant::now();
            let mut ring = j.ring.lock();
            ring.used = image.iter().map(|e| e.footprint).sum();
            ring.next_seq = image.iter().map(|e| e.seq).max().unwrap_or(0) + 1;
            ring.live = image.into_iter().map(|e| (e, now)).collect();
        }
        j
    }

    /// Fraction of the ring currently occupied.
    pub fn used_fraction(&self) -> f64 {
        let ring = self.ring.lock();
        ring.used as f64 / self.cfg.capacity as f64
    }

    /// The journal's live counters.
    pub fn stats(&self) -> &JournalStatsCell {
        &self.stats
    }

    /// Register this journal's stat counters into a cluster metric
    /// registry under `<prefix>.<field>` (e.g. `node0.journal.commits`).
    pub fn register_metrics(&self, m: &afc_common::metrics::Metrics, prefix: &str) {
        self.stats.register_into(m, prefix);
    }

    /// Block until no record is being committed — every submitted entry
    /// has fired its callback or, for a torn tail, been dropped — and
    /// every written record is durable. Test helper.
    pub fn quiesce(&self) {
        loop {
            let ring = self.ring.lock();
            if !ring.committing {
                let durable = ring.live.iter().map(|(_, d)| *d).max();
                drop(ring);
                if let Some(d) = durable {
                    sleep_until(d);
                }
                return;
            }
            drop(ring);
            sleep_for(Duration::from_micros(200));
        }
    }

    /// The leader's step (ring lock held, so the device sees records in
    /// sequence order): take one batch off the queue within the ops/bytes
    /// caps (always at least one entry), plan its coalesced write and the
    /// flush barrier that hardens it at the ring cursor, and publish the
    /// entries to the replay set. Returns when the record is durable, the
    /// callbacks to fire, in sequence order, after the lock drops, and a
    /// torn tail's callback, to drop unfired after it.
    ///
    /// Nothing waits here: both requests are *planned*, back to back, from
    /// now or the batch's latest not-before, whichever is later, and the
    /// record is durable at the later completion — the barrier's, which
    /// the device orders behind the write it hardens. Faults surface at
    /// plan time exactly as [`BlockDev::submit`] surfaces them.
    fn write_record(
        &self,
        ring: &mut RingState,
    ) -> (Instant, Vec<(u64, CommitFn)>, Option<CommitFn>) {
        let (mut n, mut total) = (0usize, 0u64);
        let mut not_before = Instant::now();
        for p in ring.pending.iter() {
            if n == self.cfg.batch_max_ops
                || (n > 0 && total + p.footprint > self.cfg.batch_max_bytes)
            {
                break;
            }
            total += p.footprint;
            not_before = not_before.max(p.not_before);
            n += 1;
        }
        if ring.write_cursor + total > self.cfg.capacity {
            ring.write_cursor = 0;
        }
        let offset = ring.write_cursor;
        ring.write_cursor += total;
        // When the record is on media; `None` when a fault kept the device
        // from taking the request at all (nothing to wait for).
        let mut done = None;
        let record =
            IoReq::write_stream(offset, total.min(u32::MAX as u64) as u32, StreamId::Journal);
        let torn = match self.dev.plan_at(record, not_before) {
            Ok(p) => {
                done = Some(p.completion);
                false
            }
            Err(AfcError::TornWrite(_)) => {
                // Power-loss model: a prefix of the record reached media,
                // the tail entry tore.
                self.stats.torn_writes.inc();
                true
            }
            Err(_) => {
                // Injected device fault: entries are still accepted (NVRAM
                // models don't really fail mid-stream); account and continue.
                self.stats.write_errors.inc();
                false
            }
        };
        self.stats.batches.inc();
        self.stats.bytes_written.add(total);
        if !torn {
            // One barrier makes the whole record durable — this is the
            // flush the group amortizes. A torn record never reached media
            // whole, so there is nothing to harden.
            match self.dev.plan_at(IoReq::flush(), not_before) {
                Ok(p) => {
                    self.stats.flushes.inc();
                    done = done.max(Some(p.completion));
                }
                Err(_) => self.stats.write_errors.inc(),
            }
        }
        let durable = done.unwrap_or(not_before);
        let mut callbacks = Vec::with_capacity(n);
        let mut torn_tail = None;
        for (i, p) in ring.pending.drain(..n).enumerate() {
            let mut checksum = entry_checksum(p.seq, &p.payload);
            if torn && i + 1 == n {
                // The tail is garbage on media: poison its checksum so
                // replay truncates it. Never durable, so never
                // acknowledged: its commit callback is dropped unfired,
                // once the ring lock is.
                checksum = !checksum;
                torn_tail = Some(p.on_commit);
            } else {
                callbacks.push((p.seq, p.on_commit));
            }
            let entry = JournalEntry {
                seq: p.seq,
                footprint: p.footprint,
                payload: p.payload,
                checksum,
            };
            ring.live.push_back((entry, durable));
        }
        (durable, callbacks, torn_tail)
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

    /// Submit `n` entries from inside the first one's callback, so they
    /// queue behind a leader that is still committing: the followers of a
    /// write group, made deterministic.
    fn burst_behind_a_leader(j: &Arc<Journal>, n: usize, len: usize) {
        let j2 = Arc::clone(j);
        j.submit(
            payload(len),
            Instant::now(),
            Box::new(move |_, _| {
                for _ in 0..n {
                    j2.submit(payload(len), Instant::now(), Box::new(|_, _| {}), no_room)
                        .unwrap();
                }
            }),
            no_room,
        )
        .unwrap();
    }

    /// An idle journal: the submitter leads, so its callback has fired
    /// (on this thread) before `submit` returns.
    #[test]
    fn leader_commits_before_submit_returns() {
        let j = journal(16 * MIB);
        let fired = Arc::new(AtomicU64::new(0));
        let f = Arc::clone(&fired);
        let seq = j
            .submit(
                payload(4096),
                Instant::now(),
                Box::new(move |s, _| {
                    f.store(s, AOrd::SeqCst);
                }),
                no_room,
            )
            .unwrap();
        assert_eq!(fired.load(AOrd::SeqCst), seq);
        let s = j.stats();
        assert_eq!(s.submits.get(), 1);
        assert_eq!(s.commits.get(), 1);
        assert_eq!(s.inline_commits.get(), 1);
        assert!(s.bytes_written.get() >= 4096);
        assert_eq!(s.flushes.get(), 1, "one barrier per record");
        j.quiesce();
        assert_eq!(j.replay().entries.len(), 1);
    }

    #[test]
    fn sequences_are_monotonic_and_callbacks_ordered() {
        let j = journal(64 * MIB);
        let order = Arc::new(Mutex::new(Vec::new()));
        for _ in 0..100 {
            let o = Arc::clone(&order);
            j.submit(
                payload(100),
                Instant::now(),
                Box::new(move |s, _| o.lock().push(s)),
                no_room,
            )
            .unwrap();
        }
        j.quiesce();
        let o = order.lock();
        assert_eq!(o.len(), 100);
        assert!(o.windows(2).all(|w| w[0] < w[1]), "commit order broken");
    }

    /// Followers ride the leader's next record: 199 entries queued behind
    /// record 1 go out as ⌈199 / 64⌉ records, one flush each, committed by
    /// the leader rather than their submitter.
    #[test]
    fn followers_share_the_leaders_records() {
        let j = journal(64 * MIB);
        burst_behind_a_leader(&j, 199, 512);
        let s = j.stats();
        assert_eq!(s.commits.get(), 200);
        assert_eq!(s.batches.get(), 1 + 199_u64.div_ceil(64));
        // One flush per record, not per entry: the group-commit payoff.
        assert_eq!(s.flushes.get(), s.batches.get());
        assert_eq!(s.inline_commits.get(), 1, "only the leader's own entry");
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
        burst_behind_a_leader(&j, 9, 512);
        let s = j.stats();
        assert_eq!(s.commits.get(), 10);
        assert_eq!(s.batches.get(), 1 + 5, "bytes cap ignored");
    }

    #[test]
    fn concurrent_submitters_keep_callbacks_ordered() {
        let j = journal(64 * MIB);
        let order = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let j = &j;
                let order = Arc::clone(&order);
                s.spawn(move || {
                    for _ in 0..50 {
                        let o = Arc::clone(&order);
                        j.submit(
                            payload(128),
                            Instant::now(),
                            Box::new(move |s, _| o.lock().push(s)),
                            no_room,
                        )
                        .unwrap();
                    }
                });
            }
        });
        j.quiesce();
        let o = order.lock();
        assert_eq!(o.len(), 200);
        assert!(
            o.windows(2).all(|w| w[0] < w[1]),
            "leader hand-over broke order"
        );
    }

    /// On slow NVRAM the submitter does not wait for the device: the
    /// callback gets the instant the record will be durable, and a crash
    /// before that instant loses the entry.
    #[test]
    fn crash_image_holds_only_durable_records() {
        const ACCESS: Duration = Duration::from_millis(20);
        let dev = Arc::new(Nvram::new(NvramConfig {
            access: ACCESS,
            ..NvramConfig::pmc_8g()
        }));
        let j = Journal::new(dev, JournalConfig::default());
        let t0 = Instant::now();
        let durable = Arc::new(Mutex::new(None));
        let d = Arc::clone(&durable);
        j.submit(
            payload(256),
            Instant::now(),
            Box::new(move |_, at| *d.lock() = Some(at)),
            no_room,
        )
        .unwrap();
        assert!(t0.elapsed() < ACCESS, "submit waited for the device");
        let durable = durable.lock().expect("the leader fired the callback");
        assert!(durable >= t0 + ACCESS);
        if Instant::now() < durable {
            assert!(j.crash_image().is_empty(), "image holds a record in flight");
        }
        sleep_until(durable);
        assert_eq!(j.crash_image().len(), 1);
    }

    /// A record is planned from the latest not-before in its batch: an
    /// entry that exists only from a later instant is durable no earlier
    /// than that instant plus the device write, and so is every entry
    /// batched with it.
    #[test]
    fn a_record_is_planned_no_earlier_than_its_batchs_latest_not_before() {
        const AHEAD: Duration = Duration::from_millis(30);
        let dev = Arc::new(Nvram::new(NvramConfig::pmc_8g()));
        let access = NvramConfig::pmc_8g().access;
        let j = Journal::new(dev, JournalConfig::default());
        let durable = Arc::new(Mutex::new(Vec::new()));
        let t0 = Instant::now();
        let (d, j2) = (Arc::clone(&durable), Arc::clone(&j));
        // The follower is submitted from the leader's callback, so it
        // rides the leader's next record with an earlier not-before.
        j.submit(
            payload(256),
            t0 + AHEAD,
            Box::new(move |_, at| {
                d.lock().push(at);
                let d = Arc::clone(&d);
                let follow = Box::new(move |_, at| d.lock().push(at));
                j2.submit(payload(256), Instant::now(), follow, no_room)
                    .unwrap();
            }),
            no_room,
        )
        .unwrap();
        assert!(t0.elapsed() < AHEAD, "submit waited for its not-before");
        let durable = durable.lock().clone();
        assert_eq!(durable.len(), 2);
        assert!(
            durable[0] >= t0 + AHEAD + access,
            "planned before it existed"
        );
        assert!(
            durable[1] >= durable[0],
            "a later record made durable first"
        );
        if Instant::now() < t0 + AHEAD {
            assert!(j.crash_image().is_empty(), "durable before its not-before");
        }
        // Two entries batched into one record: the later not-before holds
        // back both.
        let times = Arc::new(Mutex::new(Vec::new()));
        let (t, j2) = (Arc::clone(&times), Arc::clone(&j));
        let t1 = Instant::now();
        let leader = Box::new(move |_, _| {
            for ahead in [Duration::ZERO, AHEAD] {
                let t = Arc::clone(&t);
                let cb = Box::new(move |_, at| t.lock().push(at));
                j2.submit(payload(256), t1 + ahead, cb, no_room).unwrap();
            }
        });
        j.submit(payload(256), t1, leader, no_room).unwrap();
        let times = times.lock().clone();
        assert_eq!(times.len(), 2);
        assert_eq!(j.stats().batches.get(), 4, "the two shared a record");
        for at in times {
            assert!(
                at >= t1 + AHEAD + access,
                "held back by less than its batch"
            );
        }
    }

    /// A full ring names the entry whose trim makes room and hands the
    /// wait to the submitter: the journal times it as a stall, returns its
    /// error, and admits the entry once the wait has made room.
    #[test]
    fn a_full_ring_hands_its_wait_to_the_submitter() {
        let j = journal(4 * 4096); // four 4K-aligned slots
        for _ in 0..4 {
            j.submit(payload(1000), Instant::now(), Box::new(|_, _| {}), no_room)
                .unwrap();
        }
        j.trim_through(1);
        j.submit(payload(1000), Instant::now(), Box::new(|_, _| {}), no_room)
            .unwrap();
        // Full: slot 2 frees room for one more entry, slot 3 for two.
        let mut named = Vec::new();
        let err = j
            .submit(
                payload(1000),
                Instant::now(),
                Box::new(|_, _| {}),
                |through| {
                    named.push(through);
                    std::thread::sleep(Duration::from_millis(20));
                    Err(AfcError::Timeout("no apply".into()))
                },
            )
            .unwrap_err();
        assert!(matches!(err, AfcError::Timeout(_)), "{err}");
        assert_eq!(named, [2], "named the wrong entry");
        assert_eq!(j.stats().full_stalls.get(), 1);
        assert!(j.stats().full_stall_us.get() >= 20_000, "wait not timed");
        assert_eq!(j.stats().submits.get(), 5, "admitted without room");
        let big = payload(4096 + 1000); // two slots
        assert!(matches!(
            j.submit(big.clone(), Instant::now(), Box::new(|_, _| {}), no_room),
            Err(AfcError::Full(_))
        ));
        // A wait that makes room admits the entry; one that frees too
        // little is asked again, for the same entry.
        let mut trims = vec![2, 3];
        let fired = Arc::new(AtomicU64::new(0));
        let f = Arc::clone(&fired);
        let j2 = Arc::clone(&j);
        let seq = j
            .submit(
                big,
                Instant::now(),
                Box::new(move |s, _| f.store(s, AOrd::SeqCst)),
                |through| {
                    assert_eq!(through, 3);
                    j2.trim_through(trims.remove(0));
                    Ok(())
                },
            )
            .unwrap();
        assert!(trims.is_empty(), "retried without asking again");
        assert_eq!((seq, fired.load(AOrd::SeqCst)), (6, 6));
        assert_eq!(j.stats().full_stalls.get(), 4);
    }

    #[test]
    fn replay_returns_untrimmed_entries() {
        let j = journal(16 * MIB);
        let mut seqs = Vec::new();
        for i in 0..10 {
            seqs.push(
                j.submit(
                    Bytes::from(vec![i as u8; 64]),
                    Instant::now(),
                    Box::new(|_, _| {}),
                    no_room,
                )
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
        let err = j
            .submit(
                payload(128 * 1024),
                Instant::now(),
                Box::new(|_, _| {}),
                no_room,
            )
            .unwrap_err();
        assert_eq!(err.kind(), "invalid_argument");
    }

    #[test]
    fn submit_and_wait_round_trip() {
        let j = journal(16 * MIB);
        let seq = j.submit_and_wait(payload(2048)).unwrap();
        assert_eq!(seq, 1);
        assert_eq!(j.stats().commits.get(), 1);
        assert_eq!(j.crash_image().len(), 1, "returned before durable");
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
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use afc_common::faults::{FaultKind, FaultRegistry, FaultSite, FaultSpec, Io};

    const JDEV: FaultSite = FaultSite::Journal { node: 0, io: None };
    const JDEV_WRITE: FaultSite = FaultSite::Journal {
        node: 0,
        io: Some(Io::Write),
    };
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
        dev.faults().attach(Arc::clone(&reg), JDEV);
        let j = Journal::new(dev, JournalConfig::default());
        for i in 0..3u8 {
            j.submit_and_wait(Bytes::from(vec![i; 256])).unwrap();
        }
        // The next device write tears: the entry lands with a poisoned
        // checksum, its commit callback never fires, and the record is
        // never flushed.
        reg.install(FaultSpec::new(JDEV_WRITE, FaultKind::Torn));
        let acked = Arc::new(AtomicU64::new(0));
        let a = Arc::clone(&acked);
        j.submit(
            Bytes::from(vec![9u8; 256]),
            Instant::now(),
            Box::new(move |_, _| {
                a.fetch_add(1, AOrd::SeqCst);
            }),
            no_room,
        )
        .unwrap();
        j.quiesce();
        assert_eq!(acked.load(AOrd::SeqCst), 0, "torn write was acked");
        assert_eq!(j.stats().torn_writes.get(), 1);
        assert_eq!(
            j.stats().flushes.get(),
            3,
            "torn record must not be flushed"
        );

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
    fn injected_device_faults_are_absorbed_and_counted() {
        let dev = Arc::new(Nvram::new(NvramConfig::pmc_8g()));
        let reg = Arc::new(FaultRegistry::new());
        dev.faults().attach(Arc::clone(&reg), JDEV);
        let j = Journal::new(dev, JournalConfig::default());
        reg.install(FaultSpec::new(JDEV, FaultKind::Error).times(2));
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
        assert_eq!(reg.hits(JDEV), 2);
    }
}
