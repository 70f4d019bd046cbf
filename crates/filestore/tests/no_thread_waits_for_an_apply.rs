//! No thread waits for an apply: `queue_transaction` plans the
//! transaction's device requests on its lane and hands the callback the
//! instant the last one completes, so it books no SSD wait; a lane applies
//! one transaction at a time in modeled time, in queue order; and a full
//! throttle is waited out until the earliest completion, not on a thread
//! that finishes one.
//!
//! The modeled-wait ledger is process-wide, so the tests of this binary
//! take turns.

use afc_common::metrics::Metrics;
use afc_common::timeutil::{ledger, WaitClass};
use afc_device::{Ssd, SsdConfig};
use afc_filestore::{FileStore, FileStoreConfig, Transaction, TxOp};
use bytes::Bytes;
use crossbeam::channel::Receiver;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

/// A quiet SSD whose 4 KiB write takes `write_base` (and a little
/// transfer), behind a light-weight filestore tuned by `tune`.
fn store(write_base: Duration, tune: impl FnOnce(&mut FileStoreConfig)) -> Arc<FileStore> {
    let dev = Ssd::new(SsdConfig {
        write_base,
        jitter: 0.0,
        ..SsdConfig::sata3()
    });
    let mut cfg = FileStoreConfig::lightweight();
    tune(&mut cfg);
    FileStore::new(Arc::new(dev), cfg).unwrap()
}

/// One 4 KiB write: a single device request (the KV batch only buffers).
fn write(object: &str) -> Transaction {
    let mut t = Transaction::new();
    t.push(TxOp::Write {
        object: object.into(),
        offset: 0,
        data: Bytes::from(vec![9u8; 4096]),
    });
    t
}

/// Queue `txn`; its completion instant arrives on the channel, tagged.
fn queue(fs: &FileStore, txn: Transaction, tag: u32) -> Receiver<(u32, Instant)> {
    let (tx, rx) = crossbeam::channel::unbounded();
    fs.queue_transaction(
        txn,
        Box::new(move |r| {
            tx.send((tag, r.unwrap())).unwrap();
        }),
    )
    .unwrap();
    rx
}

fn ssd_waits() -> u64 {
    let row = ledger().class(WaitClass::Ssd);
    row.waits.get() + row.late.get()
}

#[test]
fn queueing_books_no_ssd_wait_and_the_callback_gets_the_completion() {
    let _turn = SERIAL.lock();
    let service = Duration::from_millis(20);
    let fs = store(service, |_| {});
    let before = ssd_waits();
    let t0 = Instant::now();
    let rx = queue(&fs, write("a"), 0);
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(5), "queueing took {took:?}");
    assert_eq!(ssd_waits(), before, "queueing waited for the device");
    let (_, at) = rx.try_recv().expect("an idle lane plans right away");
    assert!(at >= t0 + service, "completion {:?} early", at - t0);
    fs.wait_idle();
    assert_eq!(ssd_waits(), before, "wait_idle booked a device wait");
    assert_eq!(fs.read("a", 0, 4096).unwrap().data, vec![9u8; 4096]);
}

#[test]
fn one_lane_applies_one_transaction_at_a_time_in_queue_order() {
    let _turn = SERIAL.lock();
    let service = Duration::from_millis(20);
    let fs = store(service, |c| c.apply_threads = 1);
    let t0 = Instant::now();
    let (tx, rx) = crossbeam::channel::unbounded();
    for tag in 0..2 {
        let tx = tx.clone();
        fs.queue_transaction(
            write("same"),
            Box::new(move |r| tx.send((tag, r.unwrap())).unwrap()),
        )
        .unwrap();
    }
    let first = rx.recv_timeout(Duration::from_secs(5)).unwrap();
    let second = rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!((first.0, second.0), (0, 1), "applied out of queue order");
    assert!(first.1 >= t0 + service);
    assert!(
        second.1 >= first.1 + service && second.1 >= t0 + 2 * service,
        "second completed {:?} after the first: the lane overlapped them",
        second.1 - first.1
    );
    fs.wait_idle();
    assert!(Instant::now() >= second.1, "wait_idle returned early");
}

#[test]
fn a_full_throttle_is_waited_out_until_the_earliest_completion() {
    let _turn = SERIAL.lock();
    // Long enough that the checks between the instants cannot overrun them.
    let service = Duration::from_millis(200);
    let fs = store(service, |c| {
        c.apply_threads = 1;
        c.queue_max_ops = 2;
    });
    let m = Metrics::new();
    fs.register_metrics(&m, "fs");
    let waits = || m.snapshot().counter("fs.throttle.waits").unwrap();
    let first = queue(&fs, write("x"), 0);
    let second = queue(&fs, write("y"), 1);
    assert_eq!((waits(), fs.queue_len()), (0, 2));
    let (_, earliest) = first.try_recv().expect("the first is planned at once");
    assert!(
        second.try_recv().is_err(),
        "planned before its lane was free"
    );
    let third = queue(&fs, write("z"), 2);
    let admitted = Instant::now();
    assert_eq!(waits(), 1, "the third transaction did not wait");
    assert!(admitted >= earliest, "admitted before a slot was released");
    let (_, later) = second.recv_timeout(Duration::from_secs(5)).unwrap();
    assert!(
        admitted < later,
        "waited for the later completion, not the earliest"
    );
    let (_, last) = third.recv_timeout(Duration::from_secs(5)).unwrap();
    assert!(last >= later + service, "the third overlapped the second");
    fs.wait_idle();
    assert_eq!(fs.queue_len(), 0);
}
