//! The `drv.*` pass: each layer driven alone through its public calls, on
//! devices whose modeled delays are zero, so the number is the layer's own
//! software. One span per timed call.
//!
//! Calls that cost microseconds are timed one by one. Calls that cost tens
//! of nanoseconds would drown in the clock's own ~25 ns, so they are timed
//! in batches of [`BATCH`] and the span covers the batch.

use crate::estimators::p50_us;
use crate::sut::{self, Delays};
use crate::trace::Recorder;
use crate::workload::BLOCK_BYTES;
use afc_common::{ClientId, ObjectId, OsdId, PgId, PoolId};
use afc_core::osd::pg::Pg;
use afc_core::qos::{Deq, QosScheduler};
use afc_core::QosTag;
use afc_crush::osdmap::PoolSpec;
use afc_crush::{CrushMap, OsdMap};
use afc_device::{BlockDev, IoReq, Nvram, Ssd};
use afc_filestore::{FileStore, FileStoreConfig, Transaction, TxOp};
use afc_journal::{Journal, JournalConfig};
use afc_kvstore::{Db, DbConfig, WriteOptions};
use afc_logging::{Level, LogConfig, Logger};
use afc_messenger::{Addr, Messenger, NetConfig, Network};
use bytes::Bytes;
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

/// Calls per span for the nanosecond-scale layers.
pub const BATCH: u64 = 64;

/// Calls (or batches) per driver in a full run; `--quick` runs a tenth.
pub const CALLS: u64 = 2_000;

/// Time `calls` single calls of `f`, one span each; median, µs.
fn per_call_us(
    rec: &mut Recorder,
    pass: u64,
    name: &'static str,
    calls: u64,
    mut f: impl FnMut(u64),
) -> f64 {
    p50_us(
        &(0..calls)
            .map(|i| rec.time(name, pass, || f(i)))
            .collect::<Vec<_>>(),
    )
}

/// Time `batches` batches of [`BATCH`] calls of `f`, one span each; median
/// per call, ns.
fn per_batch_ns(
    rec: &mut Recorder,
    pass: u64,
    name: &'static str,
    batches: u64,
    mut f: impl FnMut(u64),
) -> f64 {
    let samples: Vec<u64> = (0..batches)
        .map(|b| rec.time(name, pass, || (0..BATCH).for_each(|i| f(b * BATCH + i))))
        .collect();
    p50_us(&samples) * 1e3 / BATCH as f64
}

fn zero_nvram() -> Arc<dyn BlockDev> {
    Arc::new(Nvram::new(sut::devices(Delays::Zero).nvram))
}

fn zero_ssd() -> Ssd {
    Ssd::new(sut::devices(Delays::Zero).ssd)
}

/// Two endpoints on a zero-hop network; one ping-pong per call.
fn messenger(rec: &mut Recorder, pass: u64, calls: u64) -> f64 {
    let net: Arc<Network<u64>> = Network::new(NetConfig {
        hop_latency: Duration::ZERO,
        ..NetConfig::default()
    });
    let (client, server) = (Addr::Client(ClientId(1)), Addr::Osd(OsdId(0)));
    let (pong_tx, pong_rx) = mpsc::channel::<u64>();
    let reply: Arc<OnceLock<Messenger<u64>>> = Arc::new(OnceLock::new());
    let ping = net
        .register(
            client,
            Arc::new(move |_from: Addr, n: u64| {
                let _ = pong_tx.send(n);
            }),
        )
        .expect("register client endpoint");
    let echo = Arc::clone(&reply);
    let server_side = net
        .register(
            server,
            Arc::new(move |from: Addr, n: u64| {
                let _ = echo.get().expect("server messenger set").send(from, n, 64);
            }),
        )
        .expect("register server endpoint");
    let _ = reply.set(server_side);
    let rtt = per_call_us(rec, pass, "drv.messenger.rtt", calls, |i| {
        ping.send(server, i, 64).expect("ping");
        assert_eq!(pong_rx.recv_timeout(Duration::from_secs(2)), Ok(i));
    });
    net.shutdown();
    rtt
}

fn qos(rec: &mut Recorder, pass: u64, batches: u64) -> f64 {
    let sched: QosScheduler<u64> = QosScheduler::new();
    let tag = QosTag::best_effort();
    per_batch_ns(rec, pass, "drv.qos.enq_deq", batches, |i| {
        let now = Instant::now();
        sched.enqueue(&tag, i, now);
        assert!(matches!(sched.dequeue(now), Deq::Ready(n) if n == i));
    })
}

fn pg_submit(rec: &mut Recorder, pass: u64, batches: u64) -> f64 {
    let pg = Pg::new(PgId {
        pool: PoolId(0),
        seq: 1,
    });
    per_batch_ns(rec, pass, "drv.osd.pg_submit", batches, |_| {
        pg.submit(Box::new(|st| st.info_version += 1), false)
    })
}

fn journal(rec: &mut Recorder, pass: u64, calls: u64) -> f64 {
    let journal = Journal::new(zero_nvram(), JournalConfig::default());
    let payload = Bytes::from(vec![0xa5u8; BLOCK_BYTES as usize]);
    per_call_us(rec, pass, "drv.journal.submit_and_wait", calls, |_| {
        journal
            .submit_and_wait(payload.clone())
            .expect("journal submit");
    })
}

fn filestore(rec: &mut Recorder, pass: u64, calls: u64) -> f64 {
    let dev: Arc<dyn BlockDev> = Arc::new(zero_ssd());
    let store = FileStore::new(dev, FileStoreConfig::lightweight()).expect("filestore");
    let data = Bytes::from(vec![0x5au8; BLOCK_BYTES as usize]);
    per_call_us(rec, pass, "drv.filestore.apply_sync", calls, |i| {
        let mut txn = Transaction::new();
        txn.push(TxOp::Write {
            object: format!("pool0/drv{}", i % 16),
            offset: (i / 16 % 128) * u64::from(BLOCK_BYTES),
            data: data.clone(),
        });
        store.apply_sync(txn).expect("apply");
    })
}

fn kvstore(rec: &mut Recorder, pass: u64, calls: u64) -> (f64, f64) {
    let db = Db::open(zero_nvram(), DbConfig::default()).expect("open db");
    let key = |i: u64| Bytes::from(format!("key{:08x}", i % 4_096));
    let value = Bytes::from(vec![0u8; 128]);
    let put = per_call_us(rec, pass, "drv.kvstore.put", calls, |i| {
        db.put(key(i), value.clone(), WriteOptions::async_())
            .expect("put");
    });
    let get = per_call_us(rec, pass, "drv.kvstore.get", calls, |i| {
        assert!(db.get(&key(i)).expect("get").is_some());
    });
    (put, get)
}

fn device_plan(rec: &mut Recorder, pass: u64, batches: u64) -> f64 {
    let ssd = zero_ssd();
    per_batch_ns(rec, pass, "drv.device.plan", batches, |i| {
        let offset = (i * u64::from(BLOCK_BYTES)) % (1 << 30);
        ssd.plan(IoReq::read(offset, BLOCK_BYTES)).expect("plan");
    })
}

fn crush_place(rec: &mut Recorder, pass: u64, batches: u64) -> f64 {
    let mut map = OsdMap::new(CrushMap::uniform(2, 2));
    map.add_pool(
        PoolId(0),
        PoolSpec {
            pg_num: 64,
            size: 2,
        },
    )
    .expect("add pool");
    let objects: Vec<ObjectId> = (0..crate::workload::OBJECTS)
        .map(|o| ObjectId::new(PoolId(0), crate::workload::object_name(o)))
        .collect();
    per_batch_ns(rec, pass, "drv.crush.place", batches, |i| {
        let placed = map.object_placement(&objects[i as usize % objects.len()]);
        std::hint::black_box(placed.expect("placement"));
    })
}

fn logging(rec: &mut Recorder, pass: u64, batches: u64) -> f64 {
    let logger = Logger::new(LogConfig::afceph());
    per_batch_ns(rec, pass, "drv.logging.submit", batches, |_| {
        logger.log(Level::Debug, "osd", "hot path event")
    })
}

/// Run `f` as the pass `span` under `root`.
fn pass<R>(
    rec: &mut Recorder,
    root: u64,
    span: &'static str,
    f: impl FnOnce(&mut Recorder, u64) -> R,
) -> R {
    let id = rec.open(span, root);
    let r = f(rec, id);
    rec.close(id);
    r
}

/// Run every layer driver; `calls` timed calls (or batches) each.
pub fn run_all(rec: &mut Recorder, calls: u64) -> Vec<(String, f64)> {
    let root = rec.open("drv", 0);
    let (kv_put, kv_get) = pass(rec, root, "drv.kvstore", |r, p| kvstore(r, p, calls));
    let out = vec![
        (
            "drv.messenger.rtt_us_p50",
            pass(rec, root, "drv.messenger", |r, p| messenger(r, p, calls)),
        ),
        (
            "drv.qos.enq_deq_ns",
            pass(rec, root, "drv.qos", |r, p| qos(r, p, calls)),
        ),
        (
            "drv.osd.pg_submit_ns",
            pass(rec, root, "drv.osd", |r, p| pg_submit(r, p, calls)),
        ),
        (
            "drv.journal.submit_wait_us_p50",
            pass(rec, root, "drv.journal", |r, p| journal(r, p, calls)),
        ),
        (
            "drv.filestore.apply_us_p50",
            pass(rec, root, "drv.filestore", |r, p| filestore(r, p, calls)),
        ),
        ("drv.kvstore.put_us_p50", kv_put),
        ("drv.kvstore.get_us_p50", kv_get),
        (
            "drv.device.plan_ns",
            pass(rec, root, "drv.device", |r, p| device_plan(r, p, calls)),
        ),
        (
            "drv.crush.place_ns",
            pass(rec, root, "drv.crush", |r, p| crush_place(r, p, calls)),
        ),
        (
            "drv.logging.submit_ns",
            pass(rec, root, "drv.logging", |r, p| logging(r, p, calls)),
        ),
    ];
    rec.close(root);
    out.into_iter().map(|(n, v)| (n.to_string(), v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_driver_runs_and_spans_nest() {
        let mut rec = Recorder::default();
        let out = run_all(&mut rec, 20);
        assert_eq!(out.len(), 10);
        for (name, v) in &out {
            assert!(v.is_finite() && *v > 0.0, "{name} = {v}");
        }
        let spans = rec.spans();
        // Root, nine passes, 20 spans per driver (two drivers in kvstore).
        assert_eq!(spans.len(), 1 + 9 + 10 * 20);
        assert!(spans.iter().skip(1).all(|s| s.parent != 0));
        let journal_pass = spans.iter().find(|s| s.name == "drv.journal").unwrap();
        let calls: Vec<_> = spans
            .iter()
            .filter(|s| s.parent == journal_pass.id)
            .collect();
        assert_eq!(calls.len(), 20);
        assert!(calls
            .iter()
            .all(|s| s.name == "drv.journal.submit_and_wait" && s.end_ns <= journal_pass.end_ns));
    }
}
