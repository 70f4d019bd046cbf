//! The four traffic shapes, the seeded op stream, and the payload function
//! that makes every read checkable.

use bytes::Bytes;

/// Objects in the data set.
pub const OBJECTS: u32 = 256;
/// Bytes per object (one prefill write each).
pub const OBJECT_BYTES: u32 = 512 * 1024;
/// Bytes per op.
pub const BLOCK_BYTES: u32 = 4096;
/// Blocks per object; the data set is `OBJECTS × BLOCKS` = 32 768 blocks.
pub const BLOCKS: u32 = OBJECT_BYTES / BLOCK_BYTES;

/// How the generator paces its ops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Closed loop: `qd` ops outstanding; the next op of a slot is sent
    /// when its previous one completes (callers that wait for a reply).
    Closed {
        /// Queue depth.
        qd: usize,
    },
    /// Open loop: one op every `1/rate` seconds whatever the system does
    /// (independent users), each timed from its due time.
    Open {
        /// Ops per second offered.
        rate: u32,
    },
}

/// One traffic shape. The names are fixed: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line, copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// Pacing.
    pub pacing: Pacing,
    /// Share of reads in the op stream, percent.
    pub read_pct: u32,
}

/// All workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "w4k_qd1",
        why: "closed loop QD1 4 KiB random overwrite: the unqueued write path (4 hops + NVRAM + software); bypasses every batching or coalescing mechanism, so those must show no change here",
        pacing: Pacing::Closed { qd: 1 },
        read_pct: 0,
    },
    Workload {
        name: "w4k_qd16",
        why: "closed loop QD16, same op stream, at the 2-core knee: PG collisions, journal group commit, sharded completion and kv flush/compaction engage; write-path software shows in ops_per_s",
        pacing: Pacing::Closed { qd: 16 },
        read_pct: 0,
    },
    Workload {
        name: "r4k_qd8",
        why: "closed loop QD8 4 KiB random verified reads: messenger, QoS queue and PG as for writes, then reader pool and SSD read; never the journal, filestore apply or kvstore",
        pacing: Pacing::Closed { qd: 8 },
        read_pct: 100,
    },
    Workload {
        name: "mix70_open2k",
        why: "open loop at 2000 ops/s, 70 % reads / 30 % writes on the same blocks: read/write interference and apply-gate waits, stalls charged to every op queued behind them, rss shows queue growth",
        pacing: Pacing::Open { rate: 2000 },
        read_pct: 70,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 4 KiB read, verified against [`payload`].
    Read,
    /// 4 KiB overwrite with [`payload`].
    Write,
}

impl Kind {
    /// Name in the trace file.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Read => "read",
            Kind::Write => "write",
        }
    }
}

/// One generated op: the only thing the system under test ever sees of a
/// workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Read or write.
    pub kind: Kind,
    /// Object index in `0..OBJECTS`.
    pub object: u32,
    /// Block index in `0..BLOCKS`.
    pub block: u32,
}

/// SplitMix64: the whole benchmark's source of pseudo-randomness.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
}

/// The op stream of one run: a pure function of `(workload, seed)`.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: SplitMix,
    read_pct: u32,
}

impl OpStream {
    /// Stream for `workload` under `seed`.
    pub fn new(workload: &Workload, seed: u64) -> Self {
        OpStream {
            rng: SplitMix(seed),
            read_pct: workload.read_pct,
        }
    }

    /// Next op: uniform block of a uniform object, read with the
    /// workload's share.
    pub fn next_op(&mut self) -> Op {
        let r = self.rng.next_u64();
        let kind = if ((r >> 40) % 100) < u64::from(self.read_pct) {
            Kind::Read
        } else {
            Kind::Write
        };
        Op {
            kind,
            object: (r % u64::from(OBJECTS)) as u32,
            block: ((r >> 20) % u64::from(BLOCKS)) as u32,
        }
    }
}

/// Name of object `o` in the pool.
pub fn object_name(o: u32) -> String {
    format!("bench{o}")
}

/// Append the payload of block `b` of object `o` to `out`.
///
/// The payload is a pure function of `(o, b)`: an overwrite stores the
/// bytes the prefill stored, so a read is checkable at any moment, however
/// it races with writes.
fn extend_payload(out: &mut Vec<u8>, o: u32, b: u32) {
    let mut rng = SplitMix((u64::from(o) << 32) | u64::from(b));
    for _ in 0..BLOCK_BYTES / 8 {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
}

/// Payload of block `b` of object `o`.
pub fn payload(o: u32, b: u32) -> Bytes {
    let mut v = Vec::with_capacity(BLOCK_BYTES as usize);
    extend_payload(&mut v, o, b);
    Bytes::from(v)
}

/// Payload of the whole object `o` (what the prefill writes).
pub fn object_payload(o: u32) -> Bytes {
    let mut v = Vec::with_capacity(OBJECT_BYTES as usize);
    for b in 0..BLOCKS {
        extend_payload(&mut v, o, b);
    }
    Bytes::from(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let w = by_name("mix70_open2k").unwrap();
        let take = |seed| {
            let mut s = OpStream::new(w, seed);
            (0..1000).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(take(7), take(7));
        assert_ne!(take(7), take(8));
    }

    #[test]
    fn mix_and_ranges_follow_the_workload() {
        for w in &WORKLOADS {
            let mut s = OpStream::new(w, 42);
            let ops: Vec<Op> = (0..20_000).map(|_| s.next_op()).collect();
            assert!(ops.iter().all(|o| o.object < OBJECTS && o.block < BLOCKS));
            let reads = ops.iter().filter(|o| o.kind == Kind::Read).count() as f64;
            let share = reads / ops.len() as f64 * 100.0;
            assert!(
                (share - f64::from(w.read_pct)).abs() < 1.5,
                "{}: {share}",
                w.name
            );
            // Uniform over objects: every object is hit.
            let mut seen = vec![false; OBJECTS as usize];
            ops.iter().for_each(|o| seen[o.object as usize] = true);
            assert!(seen.iter().all(|s| *s));
        }
    }

    #[test]
    fn payload_is_a_pure_function_of_object_and_block() {
        assert_eq!(payload(3, 9), payload(3, 9));
        assert_ne!(payload(3, 9), payload(9, 3));
        assert_ne!(payload(0, 0), payload(0, 1));
        assert_eq!(payload(1, 2).len(), BLOCK_BYTES as usize);
        let whole = object_payload(5);
        assert_eq!(whole.len(), OBJECT_BYTES as usize);
        let at = 7 * BLOCK_BYTES as usize;
        assert_eq!(&whole[at..at + BLOCK_BYTES as usize], &payload(5, 7)[..]);
    }

    #[test]
    fn workload_names_are_unique_and_whys_fit_the_contract() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(w.why.len() <= 200, "{}", w.name);
            assert!(!w.why.contains('\n'));
            assert!(WORKLOADS[i + 1..].iter().all(|o| o.name != w.name));
        }
    }
}
