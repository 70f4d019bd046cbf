//! **Ablation** — metadata-cache capacity sweep (§3.4).
//!
//! The paper sizes the write-through cache from object counts (≈2.5 GB of
//! metadata per 10 TB at 4 MB objects) and argues the residency is cheap.
//! Here we shrink the cache below the working set and watch the §3.4
//! metadata reads reappear in the write path.

use afc_common::{Metrics, Table};
use afc_device::{Ssd, SsdConfig};
use afc_filestore::{FileStore, FileStoreConfig, Transaction, TxOp};
use bytes::Bytes;
use std::sync::Arc;

fn main() {
    const OBJECTS: u64 = 512;
    const WRITES: u64 = 4096;
    let mut table = Table::new(vec![
        "cache entries",
        "meta reads",
        "hit rate",
        "interfered dev reads",
    ]);
    for cache in [16usize, 64, 256, 512, 1024] {
        let dev = Arc::new(Ssd::new(SsdConfig {
            jitter: 0.0,
            ..SsdConfig::sata3()
        }));
        let mut cfg = FileStoreConfig::lightweight();
        cfg.meta_cache_entries = cache;
        cfg.queue_max_ops = 5000;
        let metrics = Metrics::new();
        dev.register_metrics(&metrics, "data");
        let fs = FileStore::new(dev, cfg).expect("open filestore");
        fs.register_metrics(&metrics, "fs");
        for i in 0..WRITES {
            let obj = format!("obj.{:08x}", (i * 2654435761) % OBJECTS); // scattered reuse
            let mut t = Transaction::new();
            t.push(TxOp::Touch {
                object: obj.clone(),
            });
            t.push(TxOp::Write {
                object: obj,
                offset: 0,
                data: Bytes::from(vec![0u8; 4096]),
            });
            fs.apply_sync(t).unwrap();
        }
        fs.wait_idle();
        let snap = metrics.snapshot();
        let get = |name: &str| snap.counter(name).unwrap_or(0);
        let (hits, misses) = (get("fs.cache_hits"), get("fs.cache_misses"));
        table.row(vec![
            cache.to_string(),
            get("fs.meta_reads").to_string(),
            format!(
                "{:.1}%",
                hits as f64 / (hits + misses).max(1) as f64 * 100.0
            ),
            get("data.interfered_reads").to_string(),
        ]);
    }
    println!("== Ablation: write-through metadata cache size ({OBJECTS}-object working set, {WRITES} writes) ==");
    table.print();
    println!("(a cache below the working set reintroduces the read-during-write traffic §3.4 eliminates)");
}
