//! What the calibrated wait costs a thread that has the host to itself.
//!
//! Alone in its test binary so that no other test's threads compete for the
//! cores while it measures: the number is a property of an *idle* thread.

use afc_common::timeutil::{Ledger, WaitClass};
use std::time::{Duration, Instant};

/// With the fixed 60 µs reserve an 80 µs wait spun about half of its wall
/// time whatever the host did. Calibrated, an idle thread's spin is the gap
/// between its typical wake error and the 3/4 quantile of its wake errors.
#[test]
fn idle_waits_sleep_more_than_they_spin() {
    let l = Ledger::default();
    for _ in 0..2_000 {
        l.wait_until(WaitClass::Net, Instant::now() + Duration::from_micros(80));
    }
    let row = l.class(WaitClass::Net);
    let (sleep, spin) = (row.sleep_us.get(), row.spin_us.get());
    assert!(
        (spin as f64) < 0.35 * (sleep + spin) as f64,
        "spun {spin} µs of {} µs waited",
        sleep + spin
    );
}
