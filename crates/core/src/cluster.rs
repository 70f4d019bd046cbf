//! Cluster assembly: nodes × OSDs over an in-process fabric.
//!
//! [`ClusterBuilder`] reproduces the paper's testbed shape: N server nodes,
//! each with one NVRAM card shared by its OSDs (journals) and a RAID-0 set
//! of SATA SSDs per OSD (filestore), replicated pools over an in-process
//! network with optional Nagle behaviour.

use crate::client::rados::RadosClient;
use crate::client::rbd::RbdImage;
use crate::messages::OsdMsg;
use crate::monitor::{FailureConfig, Monitor};
use crate::osd::{Osd, OsdParams};
use crate::qos::QosSpec;
use crate::tuning::OsdTuning;
use afc_common::metrics::{Metrics, MetricsSnapshot};
use afc_common::{
    AfcError, ClientId, FaultPlan, FaultRegistry, ObjectId, OsdId, PgId, PoolId, Result, VolumeId,
    GIB, KIB,
};
use afc_crush::osdmap::PoolSpec;
use afc_crush::CrushMap;
use afc_device::{BlockDev, Nvram, NvramConfig, Raid0, Ssd, SsdConfig};
use afc_messenger::{NetConfig, Network};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Per-OSD device provisioning.
#[derive(Debug, Clone)]
pub struct DeviceProfile {
    /// SSDs striped per OSD (the paper's nodes used 2–3; default 3).
    pub ssds_per_osd: usize,
    /// SSD model config.
    pub ssd: SsdConfig,
    /// NVRAM card per node.
    pub nvram: NvramConfig,
    /// Journal ring bytes per OSD (2 GiB in the paper).
    pub journal_capacity: u64,
    /// RAID-0 stripe unit.
    pub stripe: u64,
}

impl DeviceProfile {
    /// Clean-state flash (Figure 9's conditions).
    pub fn clean() -> Self {
        DeviceProfile {
            ssds_per_osd: 3,
            ssd: SsdConfig::sata3(),
            nvram: NvramConfig::pmc_8g(),
            journal_capacity: 2 * GIB,
            stripe: 64 * KIB,
        }
    }

    /// Sustained-state flash (Figures 10/11's conditions).
    pub fn sustained() -> Self {
        DeviceProfile {
            ssd: SsdConfig::sata3_sustained(),
            ..Self::clean()
        }
    }

    /// Shrink the journal (forces the Figure 10 journal-full fluctuation
    /// at bench scale).
    #[must_use]
    pub fn with_journal_capacity(mut self, bytes: u64) -> Self {
        self.journal_capacity = bytes;
        self
    }
}

/// Result of a deep scrub pass.
#[derive(Debug, Clone, Default)]
pub struct ScrubReport {
    /// PGs in the scanned pool.
    pub pgs_checked: u64,
    /// Data objects compared across their acting sets.
    pub objects_checked: u64,
    /// `(pg, object)` pairs whose replicas disagree (or are missing).
    pub inconsistent: Vec<(PgId, String)>,
}

impl ScrubReport {
    /// True when every object's replicas agree.
    pub fn is_clean(&self) -> bool {
        self.inconsistent.is_empty()
    }
}

/// Builder for [`Cluster`].
pub struct ClusterBuilder {
    nodes: u32,
    osds_per_node: u32,
    replication: usize,
    pg_num: u32,
    tuning: OsdTuning,
    devices: DeviceProfile,
    hop_latency: Duration,
    msgr_cpu: Duration,
    seed: u64,
    faults: Option<FaultPlan>,
    failure: Option<FailureConfig>,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        ClusterBuilder {
            nodes: 4,
            osds_per_node: 4,
            replication: 2,
            pg_num: 128,
            tuning: OsdTuning::community(),
            devices: DeviceProfile::clean(),
            hop_latency: Duration::from_micros(80),
            msgr_cpu: Duration::ZERO,
            seed: 0xafc_5eed,
            faults: None,
            failure: None,
        }
    }
}

impl ClusterBuilder {
    /// Number of server nodes.
    #[must_use]
    pub fn nodes(mut self, n: u32) -> Self {
        self.nodes = n;
        self
    }

    /// OSD daemons per node (4 in the paper).
    #[must_use]
    pub fn osds_per_node(mut self, n: u32) -> Self {
        self.osds_per_node = n;
        self
    }

    /// Replication factor (2 in the paper).
    #[must_use]
    pub fn replication(mut self, n: usize) -> Self {
        self.replication = n;
        self
    }

    /// PGs in the RBD pool.
    #[must_use]
    pub fn pg_num(mut self, n: u32) -> Self {
        self.pg_num = n;
        self
    }

    /// Tuning vector for every OSD.
    #[must_use]
    pub fn tuning(mut self, t: OsdTuning) -> Self {
        self.tuning = t;
        self
    }

    /// Device provisioning.
    #[must_use]
    pub fn devices(mut self, d: DeviceProfile) -> Self {
        self.devices = d;
        self
    }

    /// One-way network latency.
    #[must_use]
    pub fn hop_latency(mut self, d: Duration) -> Self {
        self.hop_latency = d;
        self
    }

    /// Per-message messenger CPU work (the Figure 12 scalability ceiling).
    #[must_use]
    pub fn messenger_cpu(mut self, d: Duration) -> Self {
        self.msgr_cpu = d;
        self
    }

    /// Deterministic seed for device jitter streams.
    #[must_use]
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Install a deterministic fault-injection plan. Sites the cluster
    /// wires up:
    /// - `net.request` / `net.reply` / `net.replicate` / `net.repack`
    ///   (messenger, per message class),
    /// - `osd{id}.data.{read,write}` (every SSD member under that OSD's
    ///   RAID-0),
    /// - `node{n}.journal.{read,write}` (the node's shared NVRAM card),
    /// - `osd{id}.fs.{apply,mid_apply}` (filestore apply path).
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Failure-detection policy (reporter quorum, auto mark-out). Only
    /// meaningful together with [`OsdTuning::with_heartbeats`].
    #[must_use]
    pub fn failure_config(mut self, cfg: FailureConfig) -> Self {
        self.failure = Some(cfg);
        self
    }

    /// Assemble and start the cluster.
    pub fn build(self) -> Result<Cluster> {
        if self.nodes == 0 || self.osds_per_node == 0 {
            return Err(AfcError::InvalidArgument(
                "cluster needs nodes and OSDs".into(),
            ));
        }
        if self.replication == 0 || self.replication > self.nodes as usize {
            return Err(AfcError::InvalidArgument(format!(
                "replication {} impossible with {} nodes (host failure domain)",
                self.replication, self.nodes
            )));
        }
        let net = Network::new(NetConfig {
            hop_latency: self.hop_latency,
            nagle: self.tuning.nagle,
            cpu_per_msg: self.msgr_cpu,
            ..NetConfig::default()
        });
        let faults = self
            .faults
            .as_ref()
            .map(|p| Arc::new(FaultRegistry::from_plan(p)));
        if let Some(reg) = &faults {
            net.attach_faults(Arc::clone(reg), |_from, _to, msg: &OsdMsg| {
                Some(
                    match msg {
                        OsdMsg::Request(_) => "net.request",
                        OsdMsg::Reply(_) => "net.reply",
                        OsdMsg::Replicate(_) => "net.replicate",
                        OsdMsg::RepAck(_) => "net.repack",
                        OsdMsg::Ping(_) | OsdMsg::Pong(_) => "net.heartbeat",
                        OsdMsg::PgQuery(_) | OsdMsg::PgInfo(_) => "net.peering",
                        OsdMsg::Push(_) => "net.push",
                    }
                    .to_string(),
                )
            });
        }
        let metrics = Arc::new(Metrics::new());
        net.attach_metrics(&metrics);
        // The modeled-wait ledger is process-wide (a wait does not know
        // whose cluster it serves): two clusters alive in one process see
        // each other's waits under `model.*`.
        afc_common::timeutil::ledger().register_into(&metrics);
        let crush = CrushMap::uniform(self.nodes, self.osds_per_node);
        let monitor = Arc::new(Monitor::new(crush));
        if let Some(cfg) = self.failure {
            monitor.set_failure_config(cfg);
        }
        let pool = PoolId(0);
        monitor.update(|m| {
            m.add_pool(
                pool,
                PoolSpec {
                    pg_num: self.pg_num,
                    size: self.replication,
                },
            )
        })?;
        let mut osds = Vec::new();
        for node in 0..self.nodes {
            // One NVRAM card per node, shared by its OSDs' journals.
            let nvram = Arc::new(Nvram::new(self.devices.nvram.clone()));
            if let Some(reg) = &faults {
                nvram
                    .faults()
                    .attach(Arc::clone(reg), format!("node{node}.journal"));
            }
            // The card's device-level counters; ring-level journal stats
            // land under `node{n}.journal.*` via each OSD's journal.
            nvram.register_metrics(&metrics, &format!("node{node}.journal.dev"));
            for o in 0..self.osds_per_node {
                let id = OsdId(node * self.osds_per_node + o);
                let members: Vec<Arc<dyn BlockDev>> = (0..self.devices.ssds_per_osd.max(1))
                    .map(|d| {
                        let seed = self.seed ^ ((id.0 as u64) << 16) ^ d as u64;
                        // The tuning profile decides write placement: afceph
                        // separates streams into per-group FTL allocation,
                        // community keeps the mixed-stream behaviour.
                        let ssd = Ssd::new(
                            self.devices
                                .ssd
                                .clone()
                                .with_seed(seed)
                                .with_streams(self.tuning.streams_enabled),
                        );
                        if let Some(reg) = &faults {
                            // Attach to every member: RAID-0 fans a request
                            // out, so any member can surface the fault.
                            ssd.faults()
                                .attach(Arc::clone(reg), format!("osd{}.data", id.0));
                        }
                        // Every member registers under the OSD's data site;
                        // snapshots sum them (the RAID-0 aggregate view).
                        ssd.register_metrics(&metrics, &format!("osd{}.data", id.0));
                        Arc::new(ssd) as Arc<dyn BlockDev>
                    })
                    .collect();
                let data_dev: Arc<dyn BlockDev> =
                    Arc::new(Raid0::new(members, self.devices.stripe)?);
                let journal_capacity = self
                    .devices
                    .journal_capacity
                    .min(self.devices.nvram.capacity / self.osds_per_node as u64);
                let osd = Osd::spawn(OsdParams {
                    id,
                    tuning: self.tuning.clone(),
                    data_dev,
                    journal_dev: Arc::clone(&nvram) as Arc<dyn BlockDev>,
                    journal_capacity,
                    map: monitor.shared_map(),
                    net: Arc::clone(&net),
                    monitor: Some(Arc::clone(&monitor)),
                })?;
                if let Some(reg) = &faults {
                    osd.store()
                        .attach_faults(Arc::clone(reg), format!("osd{}.fs", id.0));
                }
                osd.attach_metrics(&metrics, &format!("node{node}.journal"));
                osds.push(osd);
            }
        }
        Ok(Cluster {
            net,
            monitor,
            osds,
            pool,
            tuning: self.tuning,
            faults,
            metrics,
            next_client: AtomicU64::new(1),
            next_volume: AtomicU64::new(1),
            stopped: AtomicBool::new(false),
        })
    }
}

/// A running storage cluster.
pub struct Cluster {
    net: Arc<Network<OsdMsg>>,
    monitor: Arc<Monitor>,
    osds: Vec<Arc<Osd>>,
    pool: PoolId,
    tuning: OsdTuning,
    faults: Option<Arc<FaultRegistry>>,
    metrics: Arc<Metrics>,
    next_client: AtomicU64,
    next_volume: AtomicU64,
    stopped: AtomicBool,
}

impl Cluster {
    /// Start building a cluster.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// Connect a new client session.
    pub fn client(&self) -> Result<Arc<RadosClient>> {
        let id = ClientId(self.next_client.fetch_add(1, Ordering::Relaxed));
        RadosClient::connect(&self.net, self.monitor.shared_map(), id, self.pool)
    }

    /// Convenience: connect a client and open an image handle on it.
    pub fn create_image(&self, name: &str, size: u64) -> Result<RbdImage> {
        let client = self.client()?;
        RbdImage::new(client, name, size)
    }

    /// Connect a client session bound to a fresh QoS volume under `spec`
    /// (SolidFire-style min/max/burst IOPS). Every op the session issues
    /// carries the volume tag; OSDs schedule it in the per-volume QoS
    /// scheduler when [`OsdTuning::qos_enabled`] is set. Volume ids are
    /// cluster-allocated starting at 1 (volume 0 is the shared
    /// best-effort volume untagged clients bill to).
    pub fn open_volume(&self, spec: QosSpec) -> Result<Arc<RadosClient>> {
        let client = self.client()?;
        let vid = VolumeId(self.next_volume.fetch_add(1, Ordering::Relaxed));
        client.open_volume(vid, spec);
        Ok(client)
    }

    /// The monitor.
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// The OSDs.
    pub fn osds(&self) -> &[Arc<Osd>] {
        &self.osds
    }

    /// An OSD by id.
    pub fn osd(&self, id: OsdId) -> Option<&Arc<Osd>> {
        self.osds.iter().find(|o| o.id() == id)
    }

    /// The network fabric.
    pub fn network(&self) -> &Arc<Network<OsdMsg>> {
        &self.net
    }

    /// The RBD pool.
    pub fn pool(&self) -> PoolId {
        self.pool
    }

    /// The tuning the cluster was built with.
    pub fn tuning(&self) -> &OsdTuning {
        &self.tuning
    }

    /// The fault registry, when the cluster was built with a fault plan.
    /// Tests use it to install/clear faults mid-run and to read hit
    /// counters.
    pub fn fault_registry(&self) -> Option<&Arc<FaultRegistry>> {
        self.faults.as_ref()
    }

    /// The cluster-wide metric registry. Every subsystem registers into
    /// it at build time: device counters (`osdN.data.*`,
    /// `nodeN.journal.dev.*`), journal rings (`nodeN.journal.*`),
    /// filestore (`osdN.fs.*`), KV DBs (`osdN.kv.*`), per-OSD op counters
    /// (`osdN.op.*`), write-path stage histograms (`osdN.stage.*`),
    /// loggers (`osdN.log.*`), the fabric (`net.*`) and the process-wide
    /// modeled-wait ledger (`model.*`: process CPU minus the sum of
    /// `model.*.spin_us` is the CPU the software used).
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Point-in-time snapshot of every metric in the cluster, as a
    /// stable sorted tree (see [`MetricsSnapshot`]); use
    /// [`MetricsSnapshot::to_prometheus`] for a text export.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Drain in-flight work across the cluster (benchmark epilogue).
    pub fn quiesce(&self) {
        for o in &self.osds {
            o.quiesce();
        }
    }

    /// Deep scrub: verify replica consistency for every PG — each data
    /// object's bytes on the primary are compared against every up
    /// replica. Ceph runs this continuously in the background; here it is
    /// an on-demand pass (quiesce first for a stable view). Returns the
    /// report; inconsistencies indicate a replication bug or injected
    /// corruption.
    pub fn deep_scrub(&self) -> Result<ScrubReport> {
        let map = self.monitor.map();
        let mut report = ScrubReport::default();
        // Gather every store name on any OSD; only data objects parse
        // (pgmeta objects are per-OSD bookkeeping).
        let mut objects: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        for osd in &self.osds {
            objects.extend(osd.store().list_objects());
        }
        for name in objects {
            let Some(obj) = ObjectId::parse(&name) else {
                continue;
            };
            let Ok((pg, acting)) = map.object_placement(&obj) else {
                continue;
            };
            report.objects_checked += 1;
            let mut copies = Vec::new();
            for osd_id in &acting {
                let Some(osd) = self.osd(*osd_id) else {
                    continue;
                };
                let hash = match osd.store().fs().stat(&name) {
                    Ok(size) => match osd.store().read(&name, 0, size as usize) {
                        Ok(read) => afc_common::rng::hash_bytes(&read.wait()),
                        Err(_) => u64::MAX, // unreadable copy
                    },
                    Err(_) => u64::MAX, // missing copy
                };
                copies.push((*osd_id, hash));
            }
            if copies.windows(2).any(|w| w[0].1 != w[1].1) {
                report.inconsistent.push((pg, name));
            }
        }
        report.pgs_checked = map.pool(self.pool)?.pg_num as u64;
        Ok(report)
    }

    /// Stop everything: fabric first (no new messages), then OSD threads.
    pub fn shutdown(&self) {
        // ordering: idempotence latch on a cold path; SeqCst so concurrent
        // shutdown() calls (explicit + Drop) agree on a single winner.
        if self.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        self.net.shutdown();
        for o in &self.osds {
            o.shutdown();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}
