//! No thread waits for a journal record: `submit` plans the record's write
//! and flush and hands the callback the instant they complete, so it books
//! no NVRAM wait at all; `submit_and_wait`, the one caller that must
//! observe durability itself, waits for it at most once per call.
//!
//! Alone in its test binary: the modeled-wait ledger is process-wide, and
//! any other journal running beside this one would book to the same row.

use afc_common::timeutil::{ledger, WaitClass};
use afc_device::{Nvram, NvramConfig};
use afc_journal::{no_room, Journal, JournalConfig};
use bytes::Bytes;
use std::sync::Arc;
use std::time::Instant;

#[test]
fn submit_books_no_nvram_wait_and_submit_and_wait_at_most_one() {
    let j = Journal::new(
        Arc::new(Nvram::new(NvramConfig::pmc_8g())),
        JournalConfig::default(),
    );
    let row = ledger().class(WaitClass::Nvram);
    assert_eq!(row.waits.get(), 0, "something else booked NVRAM waits");
    let payload = |i: u32| Bytes::from(vec![i as u8; 64 + (i as usize * 37) % 4096]);
    for i in 0..500u32 {
        j.submit(payload(i), Instant::now(), Box::new(|_, _| {}), no_room)
            .unwrap();
    }
    assert_eq!(row.waits.get(), 0, "a submit waited for its record");
    for i in 0..500u32 {
        j.submit_and_wait(payload(i)).unwrap();
    }
    j.quiesce();
    let s = j.stats();
    assert_eq!(s.commits.get(), 1000);
    assert_eq!(s.flushes.get(), s.batches.get());
    assert_eq!(
        s.inline_commits.get(),
        1000,
        "an idle journal's submitter leads"
    );
    // A wait whose deadline passed before the caller got to it books
    // nothing, so a call may book no wait; it can never book two.
    assert!(row.waits.get() <= 500, "{} NVRAM waits", row.waits.get());
}
