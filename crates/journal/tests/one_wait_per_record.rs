//! One modeled event, one wait: a journal record — the coalesced write and
//! the flush barrier that hardens it — costs the committing thread exactly
//! one wait on the NVRAM model, not one per device request.
//!
//! Alone in its test binary: the modeled-wait ledger is process-wide, and
//! any other journal running beside this one would book to the same row.

use afc_common::timeutil::{ledger, WaitClass};
use afc_device::{Nvram, NvramConfig};
use afc_journal::{Journal, JournalConfig};
use bytes::Bytes;
use std::sync::Arc;

#[test]
fn a_record_is_one_nvram_wait() {
    let j = Journal::new(
        Arc::new(Nvram::new(NvramConfig::pmc_8g())),
        JournalConfig::default(),
    );
    let row = ledger().class(WaitClass::Nvram);
    assert_eq!(row.waits.get(), 0, "something else booked NVRAM waits");
    for i in 0..500u32 {
        let payload = Bytes::from(vec![i as u8; 64 + (i as usize * 37) % 4096]);
        // All three ways in: queued (coalescing with its neighbours), inline
        // on this thread, and queued with the caller blocked on the commit.
        match i % 3 {
            0 => j.submit(payload, Box::new(|_| {})).map(drop),
            1 => j.submit_inline(payload, Box::new(|_| {})).map(drop),
            _ => j.submit_and_wait(payload).map(drop),
        }
        .unwrap();
    }
    j.quiesce();
    let s = j.stats();
    assert_eq!(s.commits.get(), 500);
    assert_eq!(s.flushes.get(), s.batches.get());
    // The ledger counts a wait only if its deadline is still ahead when the
    // thread gets to it, and a record's ~18 µs can pass while the committer
    // is descheduled between planning and waiting — so a record may book no
    // wait, rarely; it can never book two.
    let (waits, records) = (row.waits.get(), s.batches.get());
    assert!(
        waits <= records && waits * 100 >= records * 99,
        "{waits} NVRAM waits for {records} records"
    );
}
