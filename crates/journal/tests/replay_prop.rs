//! Property test: journal replay returns exactly the committed, untrimmed
//! prefix — for arbitrary submit/trim interleavings, with and without a
//! torn tail at the crash point — and replay is idempotent.

use afc_common::faults::{FaultKind, FaultRegistry, FaultSite, FaultSpec, Io};

const JDEV: FaultSite = FaultSite::Journal { node: 0, io: None };
const JDEV_WRITE: FaultSite = FaultSite::Journal {
    node: 0,
    io: Some(Io::Write),
};
use afc_device::{Nvram, NvramConfig};
use afc_journal::{no_room, Journal, JournalConfig};
use bytes::Bytes;
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// Deterministic per-entry payload so replayed bytes can be checked.
fn payload_for(seq: u64, len: usize) -> Bytes {
    Bytes::from(vec![(seq % 251) as u8; len.max(1)])
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Model: a run of submits interleaved with trims, then a crash —
    /// optionally tearing one final in-flight entry. Replay after
    /// recovery must yield seqs `(trimmed, committed]` with the original
    /// payloads; the torn entry never appears; a second replay returns
    /// the same entries (idempotence).
    #[test]
    fn replay_is_exactly_the_committed_untrimmed_prefix(
        cmds in proptest::collection::vec((0u8..5, any::<u8>(), 1u16..2048), 1..50),
        torn_tail in any::<bool>(),
    ) {
        let dev = Arc::new(Nvram::new(NvramConfig::pmc_8g()));
        let reg = Arc::new(FaultRegistry::new());
        dev.faults().attach(Arc::clone(&reg), JDEV);
        let j = Journal::new(dev, JournalConfig::default());

        let mut committed: u64 = 0; // highest acked seq
        let mut trimmed: u64 = 0;   // highest trim watermark issued
        for (kind, arg, len) in &cmds {
            if *kind < 4 {
                // Submit (weighted 4:1 over trim to grow the log).
                let seq = j
                    .submit_and_wait(payload_for(committed + 1, *len as usize))
                    .unwrap();
                prop_assert_eq!(seq, committed + 1, "seqs must be dense");
                committed = seq;
            } else if committed > trimmed {
                // Trim through some already-committed point.
                let through = trimmed + 1 + u64::from(*arg) % (committed - trimmed);
                j.trim_through(through);
                trimmed = through;
            }
        }
        if torn_tail {
            // Crash point: the last entry tears mid-write. It must be
            // recovered as garbage and truncated, never replayed.
            reg.install(FaultSpec::new(JDEV_WRITE, FaultKind::Torn));
            j.submit(payload_for(committed + 1, 512), Instant::now(), Box::new(|_, _| {}), no_room).unwrap();
            j.quiesce();
            prop_assert_eq!(j.stats().torn_writes.get(), 1);
        }

        // Crash + recover onto a fresh device.
        let image = j.crash_image();
        drop(j);
        let j2 = Journal::recover(
            Arc::new(Nvram::new(NvramConfig::pmc_8g())),
            JournalConfig::default(),
            image,
        );

        let replayed = j2.replay().entries;
        let expect: Vec<u64> = (trimmed + 1..=committed).collect();
        let got: Vec<u64> = replayed.iter().map(|e| e.seq).collect();
        prop_assert_eq!(&got, &expect, "replay must be the committed untrimmed prefix");
        for e in &replayed {
            prop_assert!(e.is_valid());
            prop_assert_eq!(&e.payload[..1], &payload_for(e.seq, 1)[..1]);
        }

        // Double replay = single replay.
        let again: Vec<u64> = j2.replay().entries.iter().map(|e| e.seq).collect();
        prop_assert_eq!(&again, &expect, "second replay must be a no-op repeat");
    }

    /// Group commit is a pure batching optimization: a run of coalesced
    /// submits must replay to exactly the same `(seq, payload)` sequence
    /// as the same payloads written one record per op, and callbacks must
    /// fire in submission order either way.
    #[test]
    fn group_commit_replay_equals_per_op_replay(
        lens in proptest::collection::vec(1u16..2048, 3..32),
    ) {
        // Batched journal: entry 1's callback submits the rest while its
        // record is still being committed, so they queue behind the leader
        // and go out together in its next record.
        let grouped = Journal::new(
            Arc::new(Nvram::new(NvramConfig::pmc_8g())),
            JournalConfig::default(),
        );
        let acked = Arc::new(Mutex::new(Vec::new()));
        let (g, a, rest) = (Arc::clone(&grouped), Arc::clone(&acked), lens[1..].to_vec());
        grouped
            .submit(
                payload_for(1, lens[0] as usize), Instant::now(),
                Box::new(move |s, _| {
                    a.lock().push(s);
                    for (i, len) in rest.iter().enumerate() {
                        let a = Arc::clone(&a);
                        g.submit(
                            payload_for(i as u64 + 2, *len as usize), Instant::now(),
                            Box::new(move |s, _| a.lock().push(s)), no_room,
                        )
                        .unwrap();
                    }
                }), no_room,
            )
            .unwrap();
        grouped.quiesce();
        let gs = grouped.stats();
        prop_assert_eq!(gs.batches.get(), 2, "the followers share one record");
        prop_assert_eq!(gs.flushes.get(), gs.batches.get(), "one barrier per record");
        let order = acked.lock().clone();
        let expect_order: Vec<u64> = (1..=lens.len() as u64).collect();
        prop_assert_eq!(&order, &expect_order, "callbacks left submission order");

        // Per-op reference: identical payloads, one record + flush each.
        let solo = Journal::new(
            Arc::new(Nvram::new(NvramConfig::pmc_8g())),
            JournalConfig { batch_max_ops: 1, ..JournalConfig::default() },
        );
        for (i, len) in lens.iter().enumerate() {
            solo.submit_and_wait(payload_for(i as u64 + 1, *len as usize)).unwrap();
        }
        prop_assert_eq!(solo.stats().batches.get(), lens.len() as u64);

        // Crash both; the recovered logs must replay identically.
        let (gi, si) = (grouped.crash_image(), solo.crash_image());
        drop(grouped);
        drop(solo);
        let g2 = Journal::recover(
            Arc::new(Nvram::new(NvramConfig::pmc_8g())),
            JournalConfig::default(),
            gi,
        );
        let s2 = Journal::recover(
            Arc::new(Nvram::new(NvramConfig::pmc_8g())),
            JournalConfig::default(),
            si,
        );
        let gr: Vec<(u64, Bytes)> = g2.replay().entries.iter().map(|e| (e.seq, e.payload.clone())).collect();
        let sr: Vec<(u64, Bytes)> = s2.replay().entries.iter().map(|e| (e.seq, e.payload.clone())).collect();
        prop_assert_eq!(&gr, &sr, "group-commit replay diverges from per-op replay");
        // Double replay is a no-op repeat on both.
        prop_assert_eq!(g2.replay().entries.len(), gr.len());
        prop_assert_eq!(s2.replay().entries.len(), sr.len());
    }
}

/// Crash point inside a multi-entry batch flush: the record tears at its
/// tail. Entries before the tail reached media whole and are committed;
/// only the tail is poisoned, dropped from acks, and truncated on replay.
#[test]
fn torn_batch_tail_poisons_only_the_tail() {
    let dev = Arc::new(Nvram::new(NvramConfig::pmc_8g()));
    let reg = Arc::new(FaultRegistry::new());
    dev.faults().attach(Arc::clone(&reg), JDEV);
    let j = Journal::new(dev, JournalConfig::default());

    // Entry 1's callback arms the tear and submits entries 2..=5 while
    // its record is still being committed: they queue behind the leader
    // and go out as one multi-entry record, which tears at its tail.
    let acked = Arc::new(Mutex::new(Vec::new()));
    let (j2, a) = (Arc::clone(&j), Arc::clone(&acked));
    j.submit(
        payload_for(1, 256),
        Instant::now(),
        Box::new(move |s, _| {
            a.lock().push(s);
            reg.install(FaultSpec::new(JDEV_WRITE, FaultKind::Torn).times(1));
            for s in 2..=5u64 {
                let a = Arc::clone(&a);
                j2.submit(
                    payload_for(s, 256),
                    Instant::now(),
                    Box::new(move |q, _| a.lock().push(q)),
                    no_room,
                )
                .unwrap();
            }
        }),
        no_room,
    )
    .unwrap();
    j.quiesce();

    let st = j.stats();
    assert_eq!(st.torn_writes.get(), 1);
    assert_eq!(st.batches.get(), 2, "entries 2..=5 must share one record");
    assert_eq!(st.flushes.get(), 1, "a torn record must never be flushed");
    // Entries 2..=4 of the torn record are durable and acked in order;
    // only the tail (5) is dropped.
    assert_eq!(acked.lock().clone(), vec![1, 2, 3, 4]);

    // Crash: replay truncates exactly at the torn tail, idempotently.
    let image = j.crash_image();
    assert_eq!(image.len(), 5, "the torn tail is on media, as garbage");
    drop(j);
    let j2 = Journal::recover(
        Arc::new(Nvram::new(NvramConfig::pmc_8g())),
        JournalConfig::default(),
        image,
    );
    let seqs: Vec<u64> = j2.replay().entries.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, vec![1, 2, 3, 4]);
    assert_eq!(j2.stats().replay_truncated.get(), 1);
    assert_eq!(
        j2.replay().entries.len(),
        4,
        "double replay must repeat the same prefix"
    );
}
