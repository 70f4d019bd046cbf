//! Property-based cross-crate tests.
//!
//! The central safety claim of the paper is that the optimized paths are
//! *semantically equivalent* to the community paths — only faster. These
//! properties drive randomized operation sequences through both
//! configurations and demand identical observable state.

use afc_device::{Nvram, NvramConfig};
use afc_filestore::{FileStore, FileStoreConfig, Transaction, TxOp};
use afcstore::common::{BlockTarget, MIB};
use afcstore::{Cluster, DeviceProfile, OsdTuning};
use bytes::Bytes;
use proptest::prelude::*;
use std::sync::Arc;

/// A randomized filestore operation.
#[derive(Debug, Clone)]
enum FsOp {
    Write {
        obj: u8,
        off: u16,
        fill: u8,
        len: u16,
    },
    Truncate {
        obj: u8,
        size: u16,
    },
    Remove {
        obj: u8,
    },
    Omap {
        obj: u8,
        key: u8,
        val: u8,
    },
}

fn fsop() -> impl Strategy<Value = FsOp> {
    prop_oneof![
        (0u8..4, 0u16..8192, any::<u8>(), 1u16..2048).prop_map(|(obj, off, fill, len)| {
            FsOp::Write {
                obj,
                off,
                fill,
                len,
            }
        }),
        (0u8..4, 0u16..8192).prop_map(|(obj, size)| FsOp::Truncate { obj, size }),
        (0u8..4).prop_map(|obj| FsOp::Remove { obj }),
        (0u8..4, any::<u8>(), any::<u8>()).prop_map(|(obj, key, val)| FsOp::Omap { obj, key, val }),
    ]
}

fn apply(fs: &FileStore, ops: &[FsOp]) {
    for op in ops {
        let mut t = Transaction::new();
        match op {
            FsOp::Write {
                obj,
                off,
                fill,
                len,
            } => {
                let name = format!("obj{obj}");
                t.push(TxOp::Touch {
                    object: name.clone(),
                });
                t.push(TxOp::Write {
                    object: name,
                    offset: *off as u64,
                    data: Bytes::from(vec![*fill; *len as usize]),
                });
            }
            FsOp::Truncate { obj, size } => {
                let name = format!("obj{obj}");
                if !fs.exists(&name) {
                    continue;
                }
                t.push(TxOp::Truncate {
                    object: name,
                    size: *size as u64,
                });
            }
            FsOp::Remove { obj } => {
                let name = format!("obj{obj}");
                if !fs.exists(&name) {
                    continue;
                }
                t.push(TxOp::Remove { object: name });
            }
            FsOp::Omap { obj, key, val } => {
                t.push(TxOp::OmapSetKeys {
                    object: format!("obj{obj}"),
                    keys: vec![(Bytes::from(format!("k{key}")), Bytes::from(vec![*val; 16]))],
                });
            }
        }
        fs.apply_sync(t).unwrap();
    }
}

type ObjState = (String, Option<Vec<u8>>, Vec<(Vec<u8>, Vec<u8>)>);

fn observable_state(fs: &FileStore) -> Vec<ObjState> {
    let mut out = Vec::new();
    for obj in 0..4u8 {
        let name = format!("obj{obj}");
        let data = if fs.exists(&name) {
            Some(
                fs.read(&name, 0, 16384, std::time::Instant::now())
                    .unwrap()
                    .data,
            )
        } else {
            None
        };
        let omap = fs
            .omap_scan(&name)
            .unwrap()
            .into_iter()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect();
        out.push((name, data, omap));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Community and light-weight transaction execution are observationally
    /// equivalent for any operation sequence.
    #[test]
    fn filestore_profiles_equivalent(ops in proptest::collection::vec(fsop(), 1..40)) {
        let mk = |cfg: FileStoreConfig| {
            FileStore::new(Arc::new(Nvram::new(NvramConfig::pmc_8g())), cfg)
                .expect("open filestore")
        };
        let community = mk(FileStoreConfig::community());
        let lwt = mk(FileStoreConfig::lightweight());
        apply(&community, &ops);
        apply(&lwt, &ops);
        prop_assert_eq!(observable_state(&community), observable_state(&lwt));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    /// An RBD image behaves exactly like a flat byte array for any write
    /// pattern, across both cluster configurations.
    #[test]
    fn rbd_image_matches_model(
        writes in proptest::collection::vec((0u64..(8 * 1024 * 1024 - 4096), 1usize..4096, any::<u8>()), 1..12),
        afceph in any::<bool>(),
    ) {
        let tuning = if afceph { OsdTuning::afceph() } else { OsdTuning::community() };
        let cluster = Cluster::builder()
            .nodes(2).osds_per_node(1).replication(2).pg_num(16)
            .tuning(tuning)
            .devices(DeviceProfile::clean())
            .build().unwrap();
        let img = cluster.create_image("prop", 8 * MIB).unwrap();
        let mut model = vec![0u8; 8 * MIB as usize];
        for (off, len, fill) in &writes {
            let data = vec![*fill; *len];
            img.write_at(*off, &data).unwrap();
            model[*off as usize..*off as usize + *len].copy_from_slice(&data);
        }
        for (off, len, _) in &writes {
            let got = img.read_at(*off, *len).unwrap();
            prop_assert_eq!(&got, &model[*off as usize..*off as usize + *len]);
        }
        cluster.shutdown();
    }
}
