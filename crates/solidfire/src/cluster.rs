//! The SolidFire cluster and its iSCSI-like volumes.

use crate::chunk::{chunk_extents, CHUNK};
use crate::node::SfNode;
use afc_common::blocktarget::check_range;
use afc_common::metrics::{Metrics, MetricsSnapshot};
use afc_common::rng::hash_bytes;
use afc_common::{sleep_for, AfcError, BlockTarget, Result};
use afc_device::{BlockDev, Nvram, NvramConfig, Raid0, Ssd, SsdConfig};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct SfConfig {
    /// Storage nodes (the paper compared 4 vs 4).
    pub nodes: usize,
    /// SSDs per node (10 in the paper's SolidFire boxes).
    pub ssds_per_node: usize,
    /// SSD model.
    pub ssd: SsdConfig,
    /// NVRAM model.
    pub nvram: NvramConfig,
    /// NVRAM staging buffer, in chunks, per node.
    pub stage_limit: usize,
    /// One-way network latency per volume request (iSCSI hop).
    pub hop_latency: Duration,
    /// Metadata-service update latency, paid **per chunk** on writes (the
    /// LBA→fingerprint map lives on the metadata service the paper notes
    /// SolidFire needs; CRUSH avoids this component entirely) and once per
    /// read request.
    pub meta_hop: Duration,
    /// End-to-end iSCSI-target + dual-replication + dedup pipeline latency
    /// per write request, calibrated to the paper's observed SolidFire
    /// latency floor (≈3 ms 4K random writes at load).
    pub write_pipeline: Duration,
    /// Pipeline latency per read request (no replication/dedup stages).
    pub read_pipeline: Duration,
    /// Store each chunk on two nodes (SolidFire's Double Helix RF=2).
    pub replicate: bool,
}

impl SfConfig {
    /// The paper's comparison setup: 4 nodes × 10 SSDs + NVRAM.
    pub fn paper() -> Self {
        SfConfig {
            nodes: 4,
            ssds_per_node: 10,
            ssd: SsdConfig::sata3_sustained(),
            nvram: NvramConfig::pmc_8g(),
            stage_limit: 4096,
            hop_latency: Duration::from_micros(80),
            meta_hop: Duration::from_micros(330),
            write_pipeline: Duration::from_micros(2200),
            read_pipeline: Duration::from_micros(600),
            replicate: true,
        }
    }
}

/// Aggregate statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SfStats {
    /// Dedup hits across nodes.
    pub dedup_hits: u64,
    /// Dedup misses (unique chunks stored).
    pub dedup_misses: u64,
    /// Distinct chunks resident.
    pub chunks: u64,
}

/// A SolidFire-style cluster.
pub struct SfCluster {
    cfg: SfConfig,
    nodes: Vec<Arc<SfNode>>,
    metrics: Metrics,
}

impl SfCluster {
    /// Build a cluster from `cfg`.
    pub fn new(cfg: SfConfig) -> Result<Arc<Self>> {
        if cfg.nodes == 0 || cfg.ssds_per_node == 0 {
            return Err(AfcError::InvalidArgument(
                "solidfire needs nodes and ssds".into(),
            ));
        }
        let metrics = Metrics::new();
        let mut nodes = Vec::new();
        for n in 0..cfg.nodes {
            let members: Vec<Arc<dyn BlockDev>> = (0..cfg.ssds_per_node)
                .map(|d| {
                    let seed = SEED_BASE ^ ((n as u64) << 8) ^ d as u64;
                    let ssd = Ssd::new(cfg.ssd.clone().with_seed(seed));
                    ssd.register_metrics(&metrics, &format!("node{n}.data"));
                    Arc::new(ssd) as Arc<dyn BlockDev>
                })
                .collect();
            let data: Arc<dyn BlockDev> = Arc::new(Raid0::new(members, 64 * 1024)?);
            let nvram: Arc<dyn BlockDev> = Arc::new(Nvram::new(cfg.nvram.clone()));
            nodes.push(SfNode::new(data, nvram, cfg.stage_limit));
        }
        Ok(Arc::new(SfCluster {
            cfg,
            nodes,
            metrics,
        }))
    }

    /// Create a volume.
    pub fn volume(self: &Arc<Self>, name: impl Into<String>, size: u64) -> Result<SfVolume> {
        if size == 0 {
            return Err(AfcError::InvalidArgument(
                "volume size must be positive".into(),
            ));
        }
        Ok(SfVolume {
            cluster: Arc::clone(self),
            _name: name.into(),
            size,
            lba_map: Mutex::new(HashMap::new()),
        })
    }

    fn node_for(&self, hash: u64) -> &Arc<SfNode> {
        &self.nodes[(hash % self.nodes.len() as u64) as usize]
    }

    /// Replica node for Double-Helix RF=2 (next node in fingerprint order).
    fn replica_for(&self, hash: u64) -> &Arc<SfNode> {
        &self.nodes[((hash + 1) % self.nodes.len() as u64) as usize]
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> SfStats {
        let mut s = SfStats::default();
        for n in &self.nodes {
            let (h, m) = n.dedup_stats();
            s.dedup_hits += h;
            s.dedup_misses += m;
            s.chunks += n.chunk_count() as u64;
        }
        s
    }

    /// Snapshot of the cluster's device counters: each node's flash
    /// members summed under `nodeN.data.*`.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Wait for all staged chunks to flush.
    pub fn quiesce(&self) {
        for n in &self.nodes {
            n.quiesce();
        }
    }
}

/// Device jitter seed base for SolidFire nodes.
const SEED_BASE: u64 = 0x0050_11df;

/// An iSCSI-like block volume over the dedup store.
pub struct SfVolume {
    cluster: Arc<SfCluster>,
    _name: String,
    size: u64,
    /// LBA-chunk index → fingerprint (the volume's metadata map).
    lba_map: Mutex<HashMap<u64, u64>>,
}

impl SfVolume {
    fn read_chunk(&self, index: u64) -> Result<Bytes> {
        let hash = self.lba_map.lock().get(&index).copied();
        match hash {
            Some(h) => self.cluster.node_for(h).get_chunk(h),
            None => Ok(Bytes::from(vec![0u8; CHUNK as usize])), // unwritten
        }
    }

    fn write_chunk(&self, index: u64, data: Bytes) -> Result<()> {
        debug_assert_eq!(data.len() as u64, CHUNK);
        let hash = hash_bytes(&data); // real dedup fingerprinting cost
                                      // Per-chunk metadata-service update (LBA map + fingerprint table).
        sleep_for(self.cluster.cfg.meta_hop);
        self.cluster.node_for(hash).put_chunk(hash, data.clone())?;
        if self.cluster.cfg.replicate && self.cluster.nodes.len() > 1 {
            self.cluster.replica_for(hash).put_chunk(hash, data)?;
        }
        let old = self.lba_map.lock().insert(index, hash);
        if let Some(old) = old {
            // Rewrite releases the previous mapping's reference(s); for
            // identical content this cancels the refcount bump from put.
            self.cluster.node_for(old).unref_chunk(old);
            if self.cluster.cfg.replicate && self.cluster.nodes.len() > 1 {
                self.cluster.replica_for(old).unref_chunk(old);
            }
        }
        Ok(())
    }
}

impl BlockTarget for SfVolume {
    fn size(&self) -> u64 {
        self.size
    }

    fn write_at(&self, off: u64, data: &[u8]) -> Result<()> {
        check_range(self.size, off, data.len() as u64)?;
        sleep_for(self.cluster.cfg.hop_latency + self.cluster.cfg.write_pipeline);
        let mut cursor = 0usize;
        for e in chunk_extents(off, data.len() as u64) {
            let slice = &data[cursor..cursor + e.len as usize];
            cursor += e.len as usize;
            let chunk_data = if e.is_full() {
                Bytes::copy_from_slice(slice)
            } else {
                // Read-modify-write at chunk edges: the non-4K penalty.
                let old = self.read_chunk(e.index)?;
                let mut buf = old.to_vec();
                buf[e.within as usize..(e.within + e.len) as usize].copy_from_slice(slice);
                Bytes::from(buf)
            };
            self.write_chunk(e.index, chunk_data)?;
        }
        Ok(())
    }

    fn read_at(&self, off: u64, len: usize) -> Result<Vec<u8>> {
        check_range(self.size, off, len as u64)?;
        sleep_for(
            self.cluster.cfg.hop_latency
                + self.cluster.cfg.read_pipeline
                + self.cluster.cfg.meta_hop,
        );
        let mut out = Vec::with_capacity(len);
        for e in chunk_extents(off, len as u64) {
            let chunk = self.read_chunk(e.index)?;
            out.extend_from_slice(&chunk[e.within as usize..(e.within + e.len) as usize]);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afc_common::MIB;

    fn cluster() -> Arc<SfCluster> {
        let cfg = SfConfig {
            nodes: 2,
            ssds_per_node: 2,
            ssd: SsdConfig {
                jitter: 0.0,
                ..SsdConfig::sata3()
            },
            hop_latency: Duration::ZERO,
            meta_hop: Duration::ZERO,
            write_pipeline: Duration::ZERO,
            read_pipeline: Duration::ZERO,
            replicate: false,
            ..SfConfig::paper()
        };
        SfCluster::new(cfg).unwrap()
    }

    #[test]
    fn volume_roundtrip_aligned() {
        let c = cluster();
        let v = c.volume("v", 64 * MIB).unwrap();
        let data = vec![0x42u8; 8192];
        v.write_at(4096, &data).unwrap();
        assert_eq!(v.read_at(4096, 8192).unwrap(), data);
        // Unwritten regions read as zeros.
        assert_eq!(v.read_at(0, 4096).unwrap(), vec![0u8; 4096]);
    }

    #[test]
    fn unaligned_write_rmw_preserves_neighbors() {
        let c = cluster();
        let v = c.volume("v", 64 * MIB).unwrap();
        v.write_at(0, &vec![0x11u8; 4096]).unwrap();
        // Overwrite the middle 100 bytes.
        v.write_at(1000, &[0x22u8; 100]).unwrap();
        let out = v.read_at(0, 4096).unwrap();
        assert_eq!(out[999], 0x11);
        assert_eq!(out[1000], 0x22);
        assert_eq!(out[1099], 0x22);
        assert_eq!(out[1100], 0x11);
    }

    #[test]
    fn identical_content_dedups_across_lbas() {
        let c = cluster();
        let v = c.volume("v", 64 * MIB).unwrap();
        let data = vec![0x7fu8; 4096];
        for i in 0..32 {
            v.write_at(i * 4096, &data).unwrap();
        }
        let s = c.stats();
        assert_eq!(s.dedup_misses, 1, "{s:?}");
        assert_eq!(s.dedup_hits, 31);
        assert_eq!(s.chunks, 1);
    }

    #[test]
    fn overwrite_releases_old_chunk() {
        let c = cluster();
        let v = c.volume("v", 64 * MIB).unwrap();
        v.write_at(0, &vec![1u8; 4096]).unwrap();
        v.write_at(0, &vec![2u8; 4096]).unwrap();
        c.quiesce();
        assert_eq!(c.stats().chunks, 1, "old chunk not freed");
        assert_eq!(v.read_at(0, 4096).unwrap(), vec![2u8; 4096]);
    }

    #[test]
    fn sequential_reads_shatter_into_chunk_ios() {
        let c = cluster();
        let v = c.volume("v", 64 * MIB).unwrap();
        // Unique content per chunk (no dedup) over 1 MiB.
        for i in 0..256u64 {
            let mut data = vec![0u8; 4096];
            data[..8].copy_from_slice(&i.to_le_bytes());
            v.write_at(i * 4096, &data).unwrap();
        }
        c.quiesce();
        let before = c.metrics_snapshot().site_sum("data.reads");
        v.read_at(0, MIB as usize).unwrap();
        let after = c.metrics_snapshot().site_sum("data.reads");
        // One flash read per 4K chunk — no large-transfer coalescing.
        assert_eq!(after - before, 256);
    }

    #[test]
    fn rejects_bad_ranges_and_sizes() {
        let c = cluster();
        let v = c.volume("v", MIB).unwrap();
        assert!(v.write_at(MIB, &[0u8; 1]).is_err());
        assert!(v.read_at(0, 0).is_err());
        assert!(c.volume("w", 0).is_err());
    }
}
