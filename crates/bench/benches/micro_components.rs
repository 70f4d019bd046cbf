//! Criterion micro-benchmarks for the individual substrates: LSM KV ops,
//! CRUSH mapping, logging submission under both modes, PG queue paths,
//! device planning, journal round trips, histogram recording.

use afc_common::{Histogram, ObjectId, PgId, PoolId};
use afc_core::osd::pg::Pg;
use afc_crush::osdmap::PoolSpec;
use afc_crush::{CrushMap, OsdMap};
use afc_device::{BlockDev, IoReq, Nvram, NvramConfig, Ssd, SsdConfig};
use afc_journal::{Journal, JournalConfig};
use afc_kvstore::{Db, DbConfig, WriteBatch, WriteOptions};
use afc_logging::{Level, LogConfig, Logger};
use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::sync::Arc;
use std::time::Duration;

fn bench_kvstore(c: &mut Criterion) {
    let mut g = c.benchmark_group("kvstore");
    g.measurement_time(Duration::from_secs(2)).sample_size(20);
    let dev = Arc::new(Nvram::new(NvramConfig::pmc_8g()));
    let db = Db::open(dev, DbConfig::default()).expect("open db");
    let mut i = 0u64;
    g.bench_function("put_async", |b| {
        b.iter(|| {
            i += 1;
            db.put(
                Bytes::from(format!("key{:08x}", i % 100_000)),
                Bytes::from(vec![0u8; 128]),
                WriteOptions::async_(),
            )
            .unwrap();
        })
    });
    g.bench_function("batch10_async", |b| {
        b.iter(|| {
            let mut wb = WriteBatch::new();
            for k in 0..10 {
                i += 1;
                wb.put(
                    Bytes::from(format!("key{:08x}", (i + k) % 100_000)),
                    Bytes::from(vec![0u8; 128]),
                );
            }
            db.write_batch(&wb, WriteOptions::async_()).unwrap();
        })
    });
    g.bench_function("get_hot", |b| {
        db.put(&b"hotkey"[..], &b"hotvalue"[..], WriteOptions::async_())
            .unwrap();
        b.iter(|| db.get(b"hotkey").unwrap())
    });
    g.finish();
}

fn bench_crush(c: &mut Criterion) {
    let mut g = c.benchmark_group("crush");
    g.measurement_time(Duration::from_secs(2)).sample_size(20);
    let mut map = OsdMap::new(CrushMap::uniform(16, 4));
    map.add_pool(
        PoolId(0),
        PoolSpec {
            pg_num: 4096,
            size: 3,
        },
    )
    .unwrap();
    let mut i = 0u32;
    g.bench_function("pg_acting_3x16x4", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            map.pg_acting(PgId {
                pool: PoolId(0),
                seq: i % 4096,
            })
            .unwrap()
        })
    });
    g.bench_function("object_to_pg", |b| {
        b.iter_batched(
            || ObjectId::new(PoolId(0), format!("rbd_data.vm.{i:016x}")),
            |o| o.pg(4096),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_logging(c: &mut Criterion) {
    let mut g = c.benchmark_group("logging");
    g.measurement_time(Duration::from_secs(2)).sample_size(20);
    let blocking = Logger::new(LogConfig::community());
    g.bench_function("blocking_submit", |b| {
        b.iter(|| blocking.log(Level::Debug, "osd", "hot path event"))
    });
    let nonblocking = Logger::new(LogConfig::afceph());
    g.bench_function("nonblocking_submit", |b| {
        b.iter(|| nonblocking.log(Level::Debug, "osd", "hot path event"))
    });
    let off = Logger::new(LogConfig::off());
    g.bench_function("off_submit", |b| {
        b.iter(|| off.log(Level::Debug, "osd", "hot path event"))
    });
    g.finish();
}

fn bench_pg_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("pg_queue");
    g.measurement_time(Duration::from_secs(2)).sample_size(20);
    let pg = Pg::new(PgId {
        pool: PoolId(0),
        seq: 1,
    });
    g.bench_function("submit_blocking_uncontended", |b| {
        b.iter(|| pg.submit(Box::new(|_st| {}), true))
    });
    g.bench_function("submit_pending_uncontended", |b| {
        b.iter(|| pg.submit(Box::new(|_st| {}), false))
    });
    g.finish();
}

fn bench_device(c: &mut Criterion) {
    let mut g = c.benchmark_group("device");
    g.measurement_time(Duration::from_secs(2)).sample_size(20);
    let ssd = Ssd::new(SsdConfig::sata3());
    g.bench_function("ssd_plan_4k_read", |b| {
        let mut off = 0u64;
        b.iter(|| {
            off = (off + 4096) % (1 << 30);
            ssd.plan(IoReq::read(off, 4096)).unwrap()
        })
    });
    g.finish();
}

fn bench_journal(c: &mut Criterion) {
    let mut g = c.benchmark_group("journal");
    g.measurement_time(Duration::from_secs(2)).sample_size(10);
    let dev = Arc::new(Nvram::new(NvramConfig::pmc_8g()));
    let j = Journal::new(dev, JournalConfig::default());
    g.bench_function("submit_and_wait_4k", |b| {
        b.iter(|| j.submit_and_wait(Bytes::from(vec![0u8; 4096])).unwrap())
    });
    g.finish();
}

fn bench_hist(c: &mut Criterion) {
    let mut g = c.benchmark_group("hist");
    g.measurement_time(Duration::from_secs(2)).sample_size(20);
    let h = Histogram::new();
    let mut i = 0u64;
    g.bench_function("record", |b| {
        b.iter(|| {
            i += 1;
            h.observe_us(i % 100_000);
        })
    });
    g.bench_function("p99", |b| b.iter(|| h.snapshot().p99_us()));
    g.finish();
}

criterion_group!(
    benches,
    bench_kvstore,
    bench_crush,
    bench_logging,
    bench_pg_queue,
    bench_device,
    bench_journal,
    bench_hist
);
criterion_main!(benches);
