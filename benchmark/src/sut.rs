//! The system under test: the paper cluster, built, prefilled and driven
//! through its public client API only.

use crate::generator::{Mark, Nanos, Target, OP_DEADLINE_NS};
use crate::procfs;
use crate::workload::{self, Kind, Op, BLOCK_BYTES, OBJECTS};
use afc_common::metrics::MetricsSnapshot;
use afc_core::client::rados::OpHandle;
use afc_core::{Cluster, DeviceProfile, OpOutcome, OsdTuning, RadosClient};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One-way hop latency of the modeled network (the `ClusterBuilder` default,
/// restated because `client.model_floor_us` is computed from it).
pub const HOP: Duration = Duration::from_micros(80);

/// What to do with the modeled delays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delays {
    /// As configured: 80 µs hops, clean SATA3 SSDs, PMC NVRAM.
    Modeled,
    /// Hop latency and the devices' base service times set to zero, so what
    /// is left of an op's latency is software (`client.sw_lat_p50_us`).
    Zero,
}

/// The device profile of a run.
pub fn devices(delays: Delays) -> DeviceProfile {
    let mut d = DeviceProfile::clean();
    if delays == Delays::Zero {
        d.ssd.read_base = Duration::ZERO;
        d.ssd.write_base = Duration::ZERO;
        d.ssd.rw_interference = Duration::ZERO;
        d.nvram.access = Duration::ZERO;
    }
    d
}

/// Build the cluster every workload runs on: 2 nodes × 2 OSDs, replication
/// 2, 64 PGs, AFCeph tuning (QoS scheduler on, best-effort volume), clean
/// devices. `seed` feeds the devices' jitter streams.
pub fn build(seed: u64, delays: Delays) -> Cluster {
    Cluster::builder()
        .nodes(2)
        .osds_per_node(2)
        .replication(2)
        .pg_num(64)
        .tuning(OsdTuning::afceph())
        .devices(devices(delays))
        .hop_latency(match delays {
            Delays::Modeled => HOP,
            Delays::Zero => Duration::ZERO,
        })
        .seed(seed)
        .build()
        .expect("cluster build")
}

/// Write every object once, whole, at QD1, and drain. Sequential large
/// writes keep set-up time dominated by modeled device time, not by the
/// scheduler. Returns an error naming the object whose write failed.
pub fn prefill(cluster: &Cluster, client: &RadosClient, progress: &dyn Fn()) -> Result<(), String> {
    for o in 0..OBJECTS {
        let handle = client
            .write_object_async(&workload::object_name(o), 0, workload::object_payload(o))
            .map_err(|e| format!("prefill submit of object {o}: {e}"))?;
        match handle.wait_timeout(Duration::from_nanos(OP_DEADLINE_NS)) {
            Ok(OpOutcome::Done) => progress(),
            other => return Err(format!("prefill write of object {o}: {other:?}")),
        }
    }
    cluster.quiesce();
    progress();
    Ok(())
}

/// An op in flight on the cluster.
pub struct Handle {
    inner: OpHandle,
    op: Op,
}

/// [`Target`] over one client session of a running cluster.
pub struct ClusterTarget<'a> {
    cluster: &'a Cluster,
    client: Arc<RadosClient>,
    names: Vec<String>,
    epoch: Instant,
    progress: &'a dyn Fn(),
    /// Reads that completed with other bytes than were written.
    pub mismatches: u64,
    /// Metric snapshots taken at the measured phase's ends.
    pub snapshots: Vec<MetricsSnapshot>,
}

impl<'a> ClusterTarget<'a> {
    /// Open a session on `cluster`. `progress` is called on every
    /// completion (the watchdog's heartbeat).
    pub fn new(cluster: &'a Cluster, progress: &'a dyn Fn()) -> Self {
        // Linux pads every timed wait by the thread's timer slack, 50 µs by
        // default; the repo's precise sleep shrinks it to 1 µs on first use.
        // Without this an open-loop op would be sent ~50 µs after it is due.
        afc_common::sleep_for(Duration::from_nanos(1));
        ClusterTarget {
            cluster,
            client: cluster.client().expect("client session"),
            names: (0..OBJECTS).map(workload::object_name).collect(),
            epoch: Instant::now(),
            progress,
            mismatches: 0,
            snapshots: Vec::new(),
        }
    }

    fn check(&mut self, h: &Handle, result: afc_common::Result<OpOutcome>) -> bool {
        (self.progress)();
        match (h.op.kind, result) {
            (Kind::Write, Ok(OpOutcome::Done)) => true,
            (Kind::Read, Ok(OpOutcome::Data(data))) => {
                let ok = data == workload::payload(h.op.object, h.op.block);
                if !ok {
                    self.mismatches += 1;
                }
                ok
            }
            _ => false,
        }
    }
}

impl Target for ClusterTarget<'_> {
    type Handle = Handle;

    fn now(&self) -> Nanos {
        self.epoch.elapsed().as_nanos() as Nanos
    }

    fn sleep_until(&mut self, t: Nanos) {
        afc_common::timeutil::sleep_until(self.epoch + Duration::from_nanos(t));
    }

    fn submit(&mut self, op: &Op) -> Option<Handle> {
        let name = &self.names[op.object as usize];
        let offset = u64::from(op.block) * u64::from(BLOCK_BYTES);
        let inner = match op.kind {
            Kind::Read => self.client.read_object_async(name, offset, BLOCK_BYTES),
            Kind::Write => {
                let data = workload::payload(op.object, op.block);
                self.client.write_object_async(name, offset, data)
            }
        };
        inner.ok().map(|inner| Handle { inner, op: *op })
    }

    fn wait(&mut self, h: &Handle, until: Nanos) -> Option<bool> {
        let timeout = Duration::from_nanos(until.saturating_sub(self.now()));
        match h.inner.wait_timeout(timeout) {
            Err(afc_common::AfcError::Timeout(_)) => None,
            result => Some(self.check(h, result)),
        }
    }

    fn try_wait(&mut self, h: &Handle) -> Option<bool> {
        h.inner.try_wait().map(|result| self.check(h, result))
    }

    fn cpu_ns(&mut self) -> u64 {
        procfs::process_cpu_ns()
    }

    fn steal_ticks(&mut self) -> u64 {
        procfs::HostNoise::read().steal_ticks.unwrap_or(0)
    }

    fn mark(&mut self, _mark: Mark) {
        self.snapshots.push(self.cluster.metrics_snapshot());
    }
}
