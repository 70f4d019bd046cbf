//! PG pending-queue contention tests (lockdep active in debug builds).
//!
//! The pending queue (§3.1) hands drain responsibility to whichever
//! thread holds the PG lock, so the failure mode to guard against is a
//! *stranded* work item: queued after the holder's last drain check but
//! never picked up. These tests hammer a single PG from many threads —
//! with concurrent quiesce/shutdown traffic at the cluster level — and
//! assert that every submitted completion ran and every thread joins
//! cleanly. Lockdep wrappers are live throughout, so any lock-order
//! regression on this path fails these tests too.

use afc_common::{FaultKind, FaultPlan, FaultSite, FaultSpec, NetSite, PgId, PoolId};
use afc_core::osd::pg::Pg;
use afc_core::{Cluster, DeviceProfile, OsdTuning};
use bytes::Bytes;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

#[test]
fn pending_queue_loses_no_completions_under_contention() {
    const THREADS: usize = 8;
    const OPS_PER_THREAD: usize = 500;
    let pg = Pg::new(PgId {
        pool: PoolId(0),
        seq: 7,
    });
    let completions = Arc::new(AtomicUsize::new(0));
    let stop_quiescer = Arc::new(AtomicBool::new(false));

    // A quiescer thread concurrently drains the FIFO the way
    // `Osd::quiesce` would — it must coexist with the submitters without
    // double-running or stranding work.
    let quiescer = {
        let pg = Arc::clone(&pg);
        let stop = Arc::clone(&stop_quiescer);
        thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                pg.drain(true);
                thread::yield_now();
            }
        })
    };

    let barrier = Arc::new(Barrier::new(THREADS));
    let submitters: Vec<_> = (0..THREADS)
        .map(|t| {
            let pg = Arc::clone(&pg);
            let completions = Arc::clone(&completions);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                for i in 0..OPS_PER_THREAD {
                    let c = Arc::clone(&completions);
                    // Alternate the community (blocking) and pending-queue
                    // (try-lock) paths: both drain one FIFO and the
                    // hand-off between them is where items could strand.
                    let blocking = (t + i) % 2 == 0;
                    pg.submit(
                        Box::new(move |st| {
                            st.next_pg_seq += 1;
                            c.fetch_add(1, Ordering::Relaxed);
                        }),
                        blocking,
                    );
                }
            })
        })
        .collect();
    for s in submitters {
        s.join().expect("submitter must join cleanly");
    }

    // Non-blocking submissions may have left work for a holder that
    // has since released; a final blocking drain must leave nothing.
    let deadline = Instant::now() + Duration::from_secs(5);
    while completions.load(Ordering::Relaxed) < THREADS * OPS_PER_THREAD {
        pg.drain(true);
        assert!(
            Instant::now() < deadline,
            "work stranded in the pending queue"
        );
        thread::sleep(Duration::from_millis(1));
    }
    stop_quiescer.store(true, Ordering::Relaxed);
    quiescer.join().expect("quiescer must join cleanly");

    assert_eq!(
        completions.load(Ordering::Relaxed),
        THREADS * OPS_PER_THREAD
    );
    assert_eq!(pg.processed(), (THREADS * OPS_PER_THREAD) as u64);
    assert_eq!(pg.pending_len(), 0);
}

/// One door: an op submitted non-blocking while `with_state` holds the PG
/// lock (peering/recovery handlers) is left "for the holder", and that
/// holder runs it before `with_state` returns. When the peering guard did
/// not drain, the op sat in the FIFO until the next op on the PG happened
/// to drain it, which a synchronous client on one hot object never sends.
#[test]
fn work_left_for_a_with_state_holder_runs_before_it_returns() {
    let pg = Pg::new(PgId {
        pool: PoolId(0),
        seq: 9,
    });
    let ran = Arc::new(AtomicBool::new(false));
    pg.with_state(|_| {
        thread::scope(|s| {
            let ran = Arc::clone(&ran);
            let pg = &pg;
            s.spawn(move || pg.submit(Box::new(move |_| ran.store(true, Ordering::SeqCst)), false))
                .join()
                .expect("non-blocking submit returns while the lock is held");
        });
        assert_eq!(pg.pending_len(), 1, "left, not run, while the lock is held");
    });
    assert!(
        ran.load(Ordering::SeqCst),
        "the holder must drain on release"
    );
    assert_eq!((pg.pending_len(), pg.processed()), (0, 1));
}

/// ROADMAP item 0's hang, end to end: synchronous clients, each on its own
/// hot object (write, ack, read — `overwrites_are_strongly_consistent`'s
/// shape), so nothing else ever touches that PG. Until PR 24 the
/// completion worker took the PG lock after every write (it takes none
/// now); before PR 18 that holder did not drain on release, so a client
/// op that lost its `try_lock` to it sat there forever. One attempt, no
/// retry: a stranded op surfaces as `Timeout`.
#[test]
fn hot_object_write_then_read_never_strands_an_op() {
    const CLIENTS: usize = 3;
    const ROUNDS: usize = 1500;
    let cluster = Cluster::builder()
        .nodes(2)
        .osds_per_node(2)
        .replication(2)
        .pg_num(16)
        .tuning(OsdTuning::afceph())
        .devices(DeviceProfile::clean())
        .build()
        .unwrap();
    let done = AtomicBool::new(false);
    thread::scope(|s| {
        // Spinners keep both cores busy so holders get preempted inside
        // their critical sections, which is what opens the window.
        for _ in 0..4 {
            s.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = cluster.client().unwrap();
                client.set_op_timeout(Duration::from_secs(1));
                client.set_max_retries(1);
                s.spawn(move || {
                    let name = format!("hot-{c}");
                    for v in 0..ROUNDS {
                        let body = [v as u8; 64];
                        client.write_object(&name, 0, &body).unwrap();
                        assert_eq!(client.read_object(&name, 0, 64).unwrap(), body);
                    }
                })
            })
            .collect();
        let results: Vec<_> = clients.into_iter().map(|c| c.join()).collect();
        done.store(true, Ordering::Relaxed);
        for r in results {
            r.expect("an op was stranded in a PG's pending FIFO");
        }
    });
    cluster.shutdown();
}

#[test]
fn cluster_survives_concurrent_writers_and_quiesce() {
    const WRITERS: usize = 4;
    const OBJECTS_PER_WRITER: usize = 25;
    let cluster = Arc::new(
        Cluster::builder()
            .nodes(2)
            .osds_per_node(2)
            .replication(2)
            .pg_num(16)
            .tuning(OsdTuning::afceph())
            .devices(DeviceProfile::clean())
            .build()
            .unwrap(),
    );
    let client = cluster.client().unwrap();

    // Quiesce concurrently with the write storm: quiesce takes the
    // journal and filestore idle paths while writers hold PG locks, so
    // this cross-checks the declared hierarchy under real traffic.
    let stop = Arc::new(AtomicBool::new(false));
    let quiescer = {
        let cluster = Arc::clone(&cluster);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                cluster.quiesce();
                thread::yield_now();
            }
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let client = Arc::clone(&client);
            thread::spawn(move || {
                for i in 0..OBJECTS_PER_WRITER {
                    let name = format!("contend-{w}-{i}");
                    client.write_object(&name, 0, name.as_bytes()).unwrap();
                }
            })
        })
        .collect();
    for h in writers {
        h.join().expect("writer must join cleanly");
    }
    stop.store(true, Ordering::Relaxed);
    quiescer.join().expect("quiescer must join cleanly");
    cluster.quiesce();

    // No lost completions: every write that returned Ok is readable.
    for w in 0..WRITERS {
        for i in 0..OBJECTS_PER_WRITER {
            let name = format!("contend-{w}-{i}");
            assert_eq!(
                client.read_object(&name, 0, name.len() as u32).unwrap(),
                name.as_bytes(),
                "lost completion for {name}"
            );
        }
    }

    // Shutdown must be idempotent and race-safe: two concurrent calls
    // plus a third after the fact, all returning with threads joined.
    let c1 = Arc::clone(&cluster);
    let c2 = Arc::clone(&cluster);
    let s1 = thread::spawn(move || c1.shutdown());
    let s2 = thread::spawn(move || c2.shutdown());
    s1.join().expect("first shutdown must join cleanly");
    s2.join().expect("second shutdown must join cleanly");
    cluster.shutdown();
}

#[test]
fn shutdown_drains_inflight_faulted_ops_without_hanging() {
    // Every replica ack is dropped and resends never exhaust, so the
    // write below is permanently stranded waiting on its RepAck.
    // Shutdown must fail it out of `rep_waits` and join all workers —
    // the pre-fix behaviour was a quiesce/join hang on the stuck op.
    let cluster = Arc::new(
        Cluster::builder()
            .nodes(2)
            .osds_per_node(1)
            .replication(2)
            .pg_num(8)
            .tuning(OsdTuning {
                rep_resend_after_ms: 20,
                rep_max_resends: u32::MAX,
                ..OsdTuning::afceph()
            })
            .devices(DeviceProfile::clean())
            .faults(FaultPlan::new(0xDEAD))
            .build()
            .unwrap(),
    );
    let reg = cluster.fault_registry().unwrap().clone();
    let client = cluster.client().unwrap();

    client.write_object("pre_fault", 0, b"fine").unwrap();
    reg.install(FaultSpec::new(FaultSite::Net(NetSite::RepAck), FaultKind::Drop).forever());
    let stuck = client
        .write_object_async("stranded", 0, Bytes::from_static(b"never acked"))
        .unwrap();
    // Let the op reach the primary and start burning resend attempts.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let resends = cluster.metrics_snapshot().site_sum("op.rep_resends");
        if resends >= 2 {
            break;
        }
        assert!(Instant::now() < deadline, "resend machinery never engaged");
        thread::sleep(Duration::from_millis(5));
    }
    assert!(
        stuck.try_wait().is_none(),
        "stranded op acked unexpectedly?"
    );

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let c = Arc::clone(&cluster);
    thread::spawn(move || {
        c.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown hung on an in-flight faulted op");
}
