//! Property-based tests for the stream-aware FTL.
//!
//! The FTL is the one component where a bookkeeping slip silently loses
//! user data: a live page dropped during garbage collection is gone with
//! no error path. These properties drive arbitrary write/trim
//! interleavings (which embed GC at arbitrary points via free-block
//! pressure) through the model and demand the structural invariants hold
//! after every step — forward/reverse map agreement, valid-count
//! consistency, no live pages on free blocks, flash WA >= 1.0 — plus
//! per-stream byte conservation at the device layer.

use afc_common::metrics::Metrics;
use afc_device::{BlockDev, Ftl, FtlConfig, IoReq, Ssd, SsdConfig, StreamId};
use proptest::prelude::*;
use std::time::Duration;

/// Small geometry so pressure GC fires within a few dozen ops:
/// 8 pages/block, 32 blocks, 30% over-provisioning.
fn tiny(streams: bool) -> FtlConfig {
    FtlConfig {
        page_size: 4096,
        pages_per_block: 8,
        blocks: 32,
        op_ratio: 0.3,
        gc_free_blocks: 2,
        streams_enabled: streams,
        gc_page_cost: Duration::from_micros(60),
    }
}

const STREAMS: [StreamId; 6] = StreamId::ALL;

#[derive(Debug, Clone)]
enum FtlOp {
    /// Host write of `pages` pages starting at logical page `lpn`.
    Write { lpn: u16, pages: u8, stream: u8 },
    /// Trim (unmap) `pages` pages starting at logical page `lpn`.
    Trim { lpn: u16, pages: u8 },
}

fn ftl_op() -> impl Strategy<Value = FtlOp> {
    prop_oneof![
        4 => (0u16..256, 1u8..9, 0u8..6)
            .prop_map(|(lpn, pages, stream)| FtlOp::Write { lpn, pages, stream }),
        1 => (0u16..256, 1u8..17).prop_map(|(lpn, pages)| FtlOp::Trim { lpn, pages }),
    ]
}

fn apply(ftl: &mut Ftl, ops: &[FtlOp]) {
    let page = 4096u64;
    for op in ops {
        match op {
            FtlOp::Write { lpn, pages, stream } => {
                ftl.host_write(
                    *lpn as u64 * page,
                    *pages as u32 * page as u32,
                    STREAMS[*stream as usize],
                );
            }
            FtlOp::Trim { lpn, pages } => {
                ftl.trim(*lpn as u64 * page, *pages as u32 * page as u32);
            }
        }
        // The full structural audit after every single step, so a
        // violation is pinned to the op that introduced it, not the
        // op that tripped over it later.
        ftl.check_invariants();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// No interleaving of writes, trims, and the GC they provoke ever
    /// loses a live page or corrupts the maps — on a clean drive, with
    /// and without stream separation.
    #[test]
    fn ftl_invariants_hold_under_arbitrary_interleavings(
        ops in proptest::collection::vec(ftl_op(), 1..120),
        streams in any::<bool>(),
    ) {
        let mut ftl = Ftl::new(tiny(streams));
        apply(&mut ftl, &ops);
        prop_assert!(ftl.flash_wa() >= 1.0);
        let (host, copied, passes) = ftl.counters();
        // GC only ever copies pages it had a pass for.
        prop_assert!(passes == 0 || copied > 0 || host > 0);
    }

    /// Same property starting from a pre-aged (sustained) drive, where
    /// the very first writes can already trigger collection.
    #[test]
    fn ftl_invariants_hold_on_a_pre_aged_drive(
        ops in proptest::collection::vec(ftl_op(), 1..80),
        streams in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut ftl = Ftl::new(tiny(streams));
        ftl.pre_age(seed);
        ftl.check_invariants();
        apply(&mut ftl, &ops);
        prop_assert!(ftl.flash_wa() >= 1.0);
    }

    /// Device-layer conservation: every byte the SSD reports written is
    /// attributed to exactly one stream, and flash WA never dips below
    /// 1.0 regardless of the stream mix.
    #[test]
    fn ssd_stream_bytes_are_conserved(
        writes in proptest::collection::vec((0u64..64, 1u32..5, 0u8..6), 1..64),
    ) {
        // Sustained profile: the FTL arrives pre-aged, so collection is
        // live from the first overwrite and WA accounting is exercised.
        let cfg = SsdConfig::sata3_sustained().with_seed(7).with_streams(true);
        let ssd = Ssd::new(cfg);
        let m = Metrics::new();
        ssd.register_metrics(&m, "osd0.data");
        for (page, pages, stream) in &writes {
            ssd.submit(IoReq::write_stream(
                page * 4096,
                pages * 4096,
                STREAMS[*stream as usize],
            ))
            .unwrap();
        }
        let s = m.snapshot();
        let get = |name: &str| s.counter(&format!("osd0.data.{name}")).unwrap();
        let streams: u64 = STREAMS
            .iter()
            .map(|st| get(&format!("stream.{}.bytes", st.metric_name())))
            .sum();
        let host = get("bytes_written");
        prop_assert_eq!(streams, host);
        let flash_wa = (host + get("gc.copied_bytes")) as f64 / host as f64;
        prop_assert!(flash_wa >= 1.0);
    }
}
