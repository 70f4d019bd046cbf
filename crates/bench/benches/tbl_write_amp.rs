//! **§2.4/§3.4 analysis** — LSM write amplification vs block size.
//!
//! Paper: "when a client writes a total of 2GB using 4MB block size, 30MB
//! of additional data is written. However, if the block size is 4KB
//! instead, 2GB of additional data is written." Small blocks mean many
//! small omap/PG-log records, which churn the KV store's levels.
//!
//! We push the same client volume through the filestore at both block
//! sizes and report the KV store's device-write bytes vs user bytes.

use afc_common::bytesize::fmt_bytes;
use afc_common::{Metrics, Table};
use afc_device::{Nvram, NvramConfig};
use afc_filestore::{FileStore, FileStoreConfig, Transaction, TxOp};
use bytes::Bytes;
use std::sync::Arc;

fn drive(bs: u64, total: u64, profile: FileStoreConfig) -> (u64, u64, f64) {
    // Fast device so the table generates quickly; WA is a byte ratio and
    // does not depend on device speed.
    let dev = Arc::new(Nvram::new(NvramConfig::pmc_8g()));
    let fs = FileStore::new(dev, profile).expect("open filestore");
    let metrics = Metrics::new();
    fs.register_kv_metrics(&metrics, "kv");
    let mut written = 0u64;
    let mut seq = 0u64;
    while written < total {
        seq += 1;
        let obj = format!("rbd_data.img.{:016x}", written / (4 << 20));
        let mut t = Transaction::new();
        t.push(TxOp::Touch {
            object: obj.clone(),
        });
        t.push(TxOp::Write {
            object: obj.clone(),
            offset: written % (4 << 20),
            data: Bytes::from(vec![0u8; bs as usize]),
        });
        t.push(TxOp::OmapSetKeys {
            object: "pgmeta_0.1".into(),
            keys: vec![
                (
                    Bytes::from(format!("pglog.{seq:016x}")),
                    Bytes::from(vec![1u8; 130]),
                ),
                (Bytes::from_static(b"info"), Bytes::from(vec![2u8; 64])),
            ],
        });
        fs.apply_sync(t).unwrap();
        written += bs;
    }
    fs.wait_idle();
    fs.sync().unwrap();
    let snap = metrics.snapshot();
    let kv = |name: &str| snap.counter(name).unwrap_or(0);
    let user = kv("kv.user_bytes");
    let device = kv("kv.wal_bytes") + kv("kv.flush_bytes") + kv("kv.compact_write_bytes");
    (user, device, device as f64 / user.max(1) as f64)
}

fn main() {
    // 64 MiB of client data stands in for the paper's 2 GB (ratio-preserving).
    let total = 64u64 << 20;
    let mut t = Table::new(vec![
        "profile",
        "bs",
        "kv user bytes",
        "kv device bytes",
        "extra",
        "extra/client-GB",
        "WA",
    ]);
    for (name, cfg) in [
        ("community", FileStoreConfig::community()),
        ("lightweight", FileStoreConfig::lightweight()),
    ] {
        for bs in [4u64 << 10, 4 << 20] {
            let mut cfg = cfg.clone();
            cfg.queue_max_ops = 5000; // don't throttle the generator
            let (user, device, wa) = drive(bs, total, cfg);
            let extra = device.saturating_sub(user);
            t.row(vec![
                name.to_string(),
                if bs == 4 << 10 {
                    "4K".into()
                } else {
                    "4M".into()
                },
                fmt_bytes(user),
                fmt_bytes(device),
                fmt_bytes(extra),
                fmt_bytes(extra * (1 << 30) / total),
                format!("{wa:.2}x"),
            ]);
        }
    }
    println!("== §3.4 analysis: KV write amplification vs client block size ==");
    println!(
        "({} client bytes per cell; paper wrote 2GB: 4M bs → ~30MB extra, 4K bs → ~2GB extra)",
        fmt_bytes(total)
    );
    t.print();
}
