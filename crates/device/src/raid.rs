//! RAID-0 striping over member devices.
//!
//! The paper's OSDs each sit on a RAID-0 set of 2–3 SATA SSDs. Striped
//! requests are planned on every involved member up front (reserving channel
//! time on each) and the aggregate completes at the latest member completion,
//! so stripe parallelism is real without helper threads.

use crate::{validate, BlockDev, IoKind, IoPlan, IoReq};
use afc_common::{AfcError, Result};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A RAID-0 (striping) aggregate of homogeneous members.
pub struct Raid0 {
    members: Vec<Arc<dyn BlockDev>>,
    stripe: u64,
    capacity: u64,
}

impl Raid0 {
    /// Build a RAID-0 set with the given stripe unit (bytes).
    pub fn new(members: Vec<Arc<dyn BlockDev>>, stripe: u64) -> Result<Self> {
        if members.is_empty() {
            return Err(AfcError::InvalidArgument(
                "RAID-0 needs at least one member".into(),
            ));
        }
        if stripe == 0 {
            return Err(AfcError::InvalidArgument(
                "stripe unit must be positive".into(),
            ));
        }
        let min_cap = members.iter().map(|m| m.capacity()).min().unwrap();
        let capacity = min_cap * members.len() as u64;
        Ok(Raid0 {
            members,
            stripe,
            capacity,
        })
    }

    /// Number of member devices.
    pub fn width(&self) -> usize {
        self.members.len()
    }

    /// Split `[offset, offset+len)` into per-member segments.
    fn segments(&self, offset: u64, len: u64) -> Vec<(usize, u64, u32)> {
        let n = self.members.len() as u64;
        let mut out = Vec::new();
        let mut off = offset;
        let mut remaining = len;
        while remaining > 0 {
            let stripe_idx = off / self.stripe;
            let within = off % self.stripe;
            let member = (stripe_idx % n) as usize;
            let member_stripe = stripe_idx / n;
            let member_off = member_stripe * self.stripe + within;
            let take = (self.stripe - within).min(remaining);
            out.push((member, member_off, take as u32));
            off += take;
            remaining -= take;
        }
        out
    }
}

impl BlockDev for Raid0 {
    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn plan_at(&self, req: IoReq, not_before: Instant) -> Result<IoPlan> {
        validate(&req, self.capacity)?;
        if req.kind == IoKind::Flush {
            let mut latest: Option<IoPlan> = None;
            for m in &self.members {
                let p = m.plan_at(IoReq::flush(), not_before)?;
                latest = Some(match latest {
                    Some(prev) if prev.completion >= p.completion => prev,
                    _ => p,
                });
            }
            return Ok(latest.expect("non-empty members"));
        }
        let mut completion = None;
        let mut service = Duration::ZERO;
        for (member, off, len) in self.segments(req.offset, req.len as u64) {
            let p = self.members[member].plan_at(
                IoReq {
                    kind: req.kind,
                    offset: off,
                    len,
                    stream: req.stream,
                },
                not_before,
            )?;
            service = service.max(p.service);
            completion = Some(match completion {
                Some(prev) if prev >= p.completion => prev,
                _ => p.completion,
            });
        }
        Ok(IoPlan {
            completion: completion.expect("len > 0 produces segments"),
            service,
        })
    }

    fn model(&self) -> &str {
        "raid0"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ssd, SsdConfig};
    use afc_common::{KIB, MIB};

    fn ssds(width: usize, cfg: SsdConfig) -> Vec<Arc<Ssd>> {
        (0..width)
            .map(|i| {
                Arc::new(Ssd::new(SsdConfig {
                    jitter: 0.0,
                    ..cfg.clone().with_seed(i as u64)
                }))
            })
            .collect()
    }

    fn raid_of(members: &[Arc<Ssd>]) -> Raid0 {
        let members = members
            .iter()
            .map(|m| Arc::clone(m) as Arc<dyn BlockDev>)
            .collect();
        Raid0::new(members, 64 * KIB).unwrap()
    }

    fn raid(width: usize) -> Raid0 {
        raid_of(&ssds(width, SsdConfig::sata3()))
    }

    #[test]
    fn capacity_is_members_times_min() {
        let r = raid(3);
        assert_eq!(r.capacity(), 3 * 512 * afc_common::GIB);
        assert_eq!(r.width(), 3);
    }

    #[test]
    fn small_io_hits_one_member() {
        let r = raid(3);
        let segs = r.segments(4 * KIB, 4 * KIB);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].0, 0); // within first stripe
    }

    #[test]
    fn large_io_spans_members_round_robin() {
        let r = raid(3);
        let segs = r.segments(0, 256 * KIB); // 4 stripes of 64K
        assert_eq!(segs.len(), 4);
        let members: Vec<usize> = segs.iter().map(|s| s.0).collect();
        assert_eq!(members, vec![0, 1, 2, 0]);
        // Second visit to member 0 is its second stripe.
        assert_eq!(segs[3].1, 64 * KIB);
    }

    #[test]
    fn unaligned_io_splits_at_stripe_boundary() {
        let r = raid(2);
        let segs = r.segments(60 * KIB, 8 * KIB);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0], (0, 60 * KIB, 4 * KIB as u32));
        assert_eq!(segs[1], (1, 0, 4 * KIB as u32));
    }

    #[test]
    fn striping_overlaps_large_transfers() {
        // A 4 MiB read over 3 members should complete ~3x faster than over 1.
        let r1 = raid(1);
        let r3 = raid(3);
        let t0 = Instant::now();
        let p1 = r1.plan(IoReq::read(0, 4 * MIB as u32)).unwrap();
        let p3 = r3.plan(IoReq::read(0, 4 * MIB as u32)).unwrap();
        let d1 = p1.completion - t0;
        let d3 = p3.completion - t0;
        assert!(d3 < d1.mul_f64(0.5), "d1={d1:?} d3={d3:?}");
    }

    /// The registry's same-name sum is the only RAID-0 aggregate: members
    /// registered under one prefix, as a cluster builds `osdN.data.*`, read
    /// back as the sum of what each member counted, field by field.
    #[test]
    fn registry_sums_members_under_one_prefix() {
        use crate::StreamId;
        use afc_common::metrics::{MetricValue, Metrics};
        // Sustained members: the FTL arrives pre-aged, so the GC counters
        // move too.
        let members = ssds(2, SsdConfig::sata3_sustained());
        let r = raid_of(&members);
        let shared = Metrics::new();
        let solo: Vec<Metrics> = members.iter().map(|_| Metrics::new()).collect();
        for (m, own) in members.iter().zip(&solo) {
            m.register_metrics(&shared, "osd0.data");
            m.register_metrics(own, "osd0.data");
        }
        // Every stream, striped over both members, then reads behind the
        // writes (interfered) and a flush.
        for (i, s) in StreamId::ALL.into_iter().enumerate() {
            for j in 0..64u64 {
                let off = (i as u64 * 64 + j) * 128 * KIB;
                r.plan(IoReq::write_stream(off, (128 * KIB) as u32, s))
                    .unwrap();
            }
        }
        r.plan(IoReq::read(0, (192 * KIB) as u32)).unwrap();
        r.plan(IoReq::flush()).unwrap();

        let sum = shared.snapshot();
        let parts: Vec<_> = solo.iter().map(Metrics::snapshot).collect();
        assert_eq!(sum.len(), 15, "every StatsCell counter is registered");
        for (id, v) in sum.iter() {
            let each: Vec<u64> = parts
                .iter()
                .map(|p| p.counter(id.name()).expect("member registered it"))
                .collect();
            assert_eq!(*v, MetricValue::Counter(each.iter().sum()), "{}", id.name());
            if !id.name().starts_with("osd0.data.gc.") {
                assert!(
                    each.iter().all(|&n| n > 0),
                    "{} idle on a member",
                    id.name()
                );
            }
        }
        assert_eq!(sum.counter("osd0.data.writes"), Some(6 * 64 * 2));
        assert_eq!(sum.counter("osd0.data.flushes"), Some(2));
        assert!(sum.counter("osd0.data.gc.copied_bytes") > Some(0));
    }

    #[test]
    fn flush_fans_out() {
        let members = ssds(3, SsdConfig::sata3());
        raid_of(&members).plan(IoReq::flush()).unwrap();
        assert!(members.iter().all(|m| m.stats().flushes.get() == 1));
    }

    #[test]
    fn invalid_construction() {
        assert!(Raid0::new(vec![], 64 * KIB).is_err());
        let m: Vec<Arc<dyn BlockDev>> = vec![Arc::new(Ssd::new(SsdConfig::sata3()))];
        assert!(Raid0::new(m, 0).is_err());
    }

    #[test]
    fn segments_cover_request_exactly() {
        let r = raid(3);
        for (off, len) in [
            (0u64, 1u64),
            (63 * KIB, 2 * KIB),
            (5 * KIB, 300 * KIB),
            (191 * KIB, 66 * KIB),
        ] {
            let segs = r.segments(off, len);
            let total: u64 = segs.iter().map(|s| s.2 as u64).sum();
            assert_eq!(total, len, "off={off} len={len}");
        }
    }
}
