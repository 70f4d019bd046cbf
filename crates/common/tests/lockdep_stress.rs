//! Multi-thread lockdep stress tests.
//!
//! The unit tests in `lockdep.rs` cover each check in isolation; these
//! exercise the detector under real cross-thread interleavings:
//!
//! - a *deterministic* inversion (barrier-sequenced, not racy) must be
//!   caught on its first occurrence — lockdep's whole value is flagging
//!   orderings that have never yet deadlocked;
//! - heavy contention on correctly-ordered acquisitions must produce
//!   zero false positives;
//! - an inversion arriving mid-storm, while other threads hold and
//!   release the same classes, must still be caught.
//!
//! Each test declares its own ranked classes, above every class in
//! `DECLARED_ORDER`. The check reads only the acquiring thread's held set,
//! so an inversion is caught on the thread that commits it, whatever other
//! threads did before.

use afc_common::lockdep::{LockClass, TrackedMutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Barrier};
use std::thread;

/// Runs `f` expecting a lockdep panic; returns the panic message.
fn expect_lockdep_panic(f: impl FnOnce() + Send + 'static) -> String {
    let err = thread::spawn(move || catch_unwind(AssertUnwindSafe(f)))
        .join()
        .expect("harness thread must not die outside catch_unwind")
        .expect_err("lockdep should have panicked");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<non-string panic>".to_string())
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "lockdep compiled out in release")]
fn deterministic_cross_thread_inversion_is_caught() {
    static A: LockClass = LockClass {
        name: "stress.det_a",
        rank: 9_400,
        no_block_while_held: false,
    };
    static B: LockClass = LockClass {
        name: "stress.det_b",
        rank: 9_500,
        no_block_while_held: false,
    };
    let a = Arc::new(TrackedMutex::new(&A, 0u32));
    let b = Arc::new(TrackedMutex::new(&B, 0u32));

    // Thread 1 nests A→B, the declared order, then releases both and
    // signals. Only after the signal does thread 2 attempt B→A, so there is
    // no actual deadlock and no timing dependence: the inversion has never
    // deadlocked, and lockdep must flag it all the same.
    let (tx, rx) = mpsc::channel();
    let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
    let establisher = thread::spawn(move || {
        let ga = a1.lock();
        let gb = b1.lock();
        drop(gb);
        drop(ga);
        tx.send(()).unwrap();
    });
    rx.recv().unwrap();
    establisher.join().unwrap();

    let msg = expect_lockdep_panic(move || {
        let _gb = b.lock();
        let _ga = a.lock(); // B→A inverts the ranks
    });
    assert!(
        msg.contains("hierarchy violation"),
        "unexpected panic message: {msg}"
    );
    assert!(
        msg.contains("stress.det_a") && msg.contains("stress.det_b"),
        "panic should name both classes: {msg}"
    );
}

#[test]
fn contended_in_order_acquisitions_produce_no_false_positives() {
    static L1: LockClass = LockClass {
        name: "stress.ok_1",
        rank: 9_100,
        no_block_while_held: false,
    };
    static L2: LockClass = LockClass {
        name: "stress.ok_2",
        rank: 9_200,
        no_block_while_held: false,
    };
    static L3: LockClass = LockClass {
        name: "stress.ok_3",
        rank: 9_300,
        no_block_while_held: false,
    };
    let m1 = Arc::new(TrackedMutex::new(&L1, 0u64));
    let m2 = Arc::new(TrackedMutex::new(&L2, 0u64));
    let m3 = Arc::new(TrackedMutex::new(&L3, 0u64));

    const THREADS: usize = 8;
    const ITERS: usize = 400;
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let (m1, m2, m3) = (Arc::clone(&m1), Arc::clone(&m2), Arc::clone(&m3));
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                for i in 0..ITERS {
                    // Mix full chains, partial chains and try_locks — all
                    // respecting rank order, so lockdep must stay silent.
                    match (t + i) % 3 {
                        0 => {
                            let mut g1 = m1.lock();
                            let mut g2 = m2.lock();
                            let mut g3 = m3.lock();
                            *g1 += 1;
                            *g2 += 1;
                            *g3 += 1;
                        }
                        1 => {
                            let mut g2 = m2.lock();
                            *g2 += 1;
                            if let Some(mut g3) = m3.try_lock() {
                                *g3 += 1;
                            }
                        }
                        _ => {
                            let mut g3 = m3.lock();
                            *g3 += 1;
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("in-order stress thread must not panic");
    }
    // Sanity: the counters prove every thread really ran its loop.
    assert!(*m3.lock() >= (THREADS * ITERS) as u64 / 3);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "lockdep compiled out in release")]
fn inversion_is_caught_amid_concurrent_lock_traffic() {
    static X: LockClass = LockClass {
        name: "stress.storm_x",
        rank: 9_600,
        no_block_while_held: false,
    };
    static Y: LockClass = LockClass {
        name: "stress.storm_y",
        rank: 9_700,
        no_block_while_held: false,
    };
    let x = Arc::new(TrackedMutex::new(&X, 0u64));
    let y = Arc::new(TrackedMutex::new(&Y, 0u64));

    // Four threads hammer the legitimate X→Y order; once the first
    // full chain has completed, the offender tries Y→X.
    let (first_chain_tx, first_chain_rx) = mpsc::channel();
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let (x, y) = (Arc::clone(&x), Arc::clone(&y));
            let tx = first_chain_tx.clone();
            thread::spawn(move || {
                for _ in 0..300 {
                    let mut gx = x.lock();
                    let mut gy = y.lock();
                    *gx += 1;
                    *gy += 1;
                    drop(gy);
                    drop(gx);
                    let _ = tx.send(());
                }
            })
        })
        .collect();
    first_chain_rx.recv().unwrap();

    let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
    let msg = expect_lockdep_panic(move || {
        // try_lock until Y is obtained so the offender cannot deadlock
        // against the storm; the X acquisition then trips the detector.
        loop {
            if let Some(_gy) = y2.try_lock() {
                let _gx = x2.lock();
                return;
            }
        }
    });
    assert!(
        msg.contains("hierarchy violation"),
        "unexpected panic message: {msg}"
    );
    assert!(
        msg.contains("stress.storm_x") && msg.contains("stress.storm_y"),
        "panic should name both classes: {msg}"
    );

    for w in workers {
        w.join().expect("storm worker must not panic");
    }
}
