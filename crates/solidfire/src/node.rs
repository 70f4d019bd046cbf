//! A SolidFire storage node: NVRAM staging + log-structured flash.
//!
//! Writes ack once the chunk is staged in NVRAM; a background flusher
//! drains staged chunks to the flash log. Reads check the staging buffer
//! first, then fetch from the chunk's stored (scattered) log position —
//! every read is an independent 4 KB device access, which is the
//! fragmentation that ruins SolidFire's sequential bandwidth.

use crate::chunk::CHUNK;
use afc_common::{AfcError, Result};
use afc_device::{BlockDev, IoReq, StreamId};
use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Fingerprint → chunk record.
struct ChunkRec {
    data: Bytes,
    refs: u64,
    /// Log offset on flash (None while only staged in NVRAM).
    log_off: Option<u64>,
}

struct NodeState {
    chunks: HashMap<u64, ChunkRec>,
    staged: u64,
}

/// One storage node.
pub struct SfNode {
    data_dev: Arc<dyn BlockDev>,
    nvram: Arc<dyn BlockDev>,
    state: Mutex<NodeState>,
    log_head: AtomicU64,
    flush_tx: Sender<u64>,
    flusher: Mutex<Option<std::thread::JoinHandle<()>>>,
    dedup_hits: AtomicU64,
    dedup_misses: AtomicU64,
}

impl SfNode {
    /// Create a node over a flash device and an NVRAM card. `stage_limit`
    /// bounds NVRAM-staged chunks before writers feel flash backpressure.
    pub fn new(
        data_dev: Arc<dyn BlockDev>,
        nvram: Arc<dyn BlockDev>,
        stage_limit: usize,
    ) -> Arc<Self> {
        let (tx, rx): (Sender<u64>, Receiver<u64>) = bounded(stage_limit.max(1));
        let node = Arc::new(SfNode {
            data_dev,
            nvram,
            state: Mutex::new(NodeState {
                chunks: HashMap::new(),
                staged: 0,
            }),
            log_head: AtomicU64::new(0),
            flush_tx: tx,
            flusher: Mutex::new(None),
            dedup_hits: AtomicU64::new(0),
            dedup_misses: AtomicU64::new(0),
        });
        let n2 = Arc::clone(&node);
        *node.flusher.lock() = Some(
            std::thread::Builder::new()
                .name("sf-flusher".into())
                .spawn(move || {
                    while let Ok(hash) = rx.recv() {
                        n2.flush_one(hash);
                    }
                })
                .expect("spawn sf flusher"),
        );
        node
    }

    fn flush_one(&self, hash: u64) {
        let cap = self.data_dev.capacity();
        let off = self.log_head.fetch_add(CHUNK, Ordering::Relaxed) % (cap - CHUNK);
        // Log append on flash.
        let _ = self
            .data_dev
            .submit(IoReq::write_stream(off, CHUNK as u32, StreamId::DataCold));
        let mut st = self.state.lock();
        if let Some(rec) = st.chunks.get_mut(&hash) {
            if rec.log_off.is_none() {
                rec.log_off = Some(off);
                st.staged = st.staged.saturating_sub(1);
            }
        }
    }

    /// Store a chunk by fingerprint. Deduplicated chunks only bump a
    /// refcount (metadata write to NVRAM); new chunks stage their data in
    /// NVRAM (ack) and queue the flash flush. Blocks when the staging
    /// buffer is full — flash bandwidth is then the limiter.
    pub fn put_chunk(&self, hash: u64, data: Bytes) -> Result<()> {
        debug_assert_eq!(data.len() as u64, CHUNK);
        // Metadata (LBA map + fingerprint table) update in NVRAM.
        self.nvram.submit(IoReq::write_stream(
            hash % (self.nvram.capacity() - 256),
            256,
            StreamId::DataCold,
        ))?;
        let is_new = {
            let mut st = self.state.lock();
            match st.chunks.get_mut(&hash) {
                Some(rec) => {
                    rec.refs += 1;
                    self.dedup_hits.fetch_add(1, Ordering::Relaxed);
                    false
                }
                None => {
                    st.chunks.insert(
                        hash,
                        ChunkRec {
                            data: data.clone(),
                            refs: 1,
                            log_off: None,
                        },
                    );
                    st.staged += 1;
                    self.dedup_misses.fetch_add(1, Ordering::Relaxed);
                    true
                }
            }
        };
        if is_new {
            // Chunk payload into NVRAM (the fast ack), then queue the flush.
            self.nvram.submit(IoReq::write_stream(
                hash % (self.nvram.capacity() - CHUNK),
                CHUNK as u32,
                StreamId::DataCold,
            ))?;
            self.flush_tx
                .send(hash)
                .map_err(|_| AfcError::ShutDown("solidfire node".into()))?;
        }
        Ok(())
    }

    /// Fetch a chunk by fingerprint. Staged chunks read from NVRAM; flushed
    /// chunks pay an independent 4 KB flash read at their log position.
    pub fn get_chunk(&self, hash: u64) -> Result<Bytes> {
        let (data, log_off) = {
            let st = self.state.lock();
            let rec = st
                .chunks
                .get(&hash)
                .ok_or_else(|| AfcError::NotFound(format!("chunk {hash:#x}")))?;
            (rec.data.clone(), rec.log_off)
        };
        match log_off {
            Some(off) => {
                self.data_dev.submit(IoReq::read(off, CHUNK as u32))?;
            }
            None => {
                self.nvram.submit(IoReq::read(0, CHUNK as u32))?;
            }
        }
        Ok(data)
    }

    /// Drop one reference; frees the chunk at zero.
    pub fn unref_chunk(&self, hash: u64) {
        let mut st = self.state.lock();
        if let Some(rec) = st.chunks.get_mut(&hash) {
            rec.refs -= 1;
            if rec.refs == 0 {
                if rec.log_off.is_none() {
                    st.staged = st.staged.saturating_sub(1);
                }
                st.chunks.remove(&hash);
            }
        }
    }

    /// `(dedup hits, dedup misses)`.
    pub fn dedup_stats(&self) -> (u64, u64) {
        (
            self.dedup_hits.load(Ordering::Relaxed),
            self.dedup_misses.load(Ordering::Relaxed),
        )
    }

    /// Distinct chunks resident.
    pub fn chunk_count(&self) -> usize {
        self.state.lock().chunks.len()
    }

    /// The flash device (stats).
    pub fn data_dev(&self) -> &Arc<dyn BlockDev> {
        &self.data_dev
    }

    /// Wait until all staged chunks are flushed (test helper).
    pub fn quiesce(&self) {
        while self.state.lock().staged > 0 {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }
}

impl Drop for SfNode {
    fn drop(&mut self) {
        let (dead, _) = bounded(1);
        self.flush_tx = dead;
        if let Some(h) = self.flusher.lock().take() {
            if h.thread().id() != std::thread::current().id() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afc_common::rng::hash_bytes;
    use afc_device::{Nvram, NvramConfig, Ssd, SsdConfig};

    fn node() -> Arc<SfNode> {
        let ssd = Arc::new(Ssd::new(SsdConfig {
            jitter: 0.0,
            ..SsdConfig::sata3()
        }));
        let nv = Arc::new(Nvram::new(NvramConfig::pmc_8g()));
        SfNode::new(ssd, nv, 64)
    }

    fn chunk(fill: u8) -> Bytes {
        Bytes::from(vec![fill; CHUNK as usize])
    }

    #[test]
    fn put_get_roundtrip() {
        let n = node();
        let data = chunk(7);
        let h = hash_bytes(&data);
        n.put_chunk(h, data.clone()).unwrap();
        assert_eq!(n.get_chunk(h).unwrap(), data);
        assert!(n.get_chunk(12345).is_err());
    }

    #[test]
    fn duplicate_chunks_dedup() {
        let n = node();
        let data = chunk(9);
        let h = hash_bytes(&data);
        for _ in 0..10 {
            n.put_chunk(h, data.clone()).unwrap();
        }
        let (hits, misses) = n.dedup_stats();
        assert_eq!(misses, 1);
        assert_eq!(hits, 9);
        assert_eq!(n.chunk_count(), 1);
        n.quiesce();
        // Only one flash log write happened for ten puts.
        assert_eq!(n.data_dev().stats().writes, 1);
    }

    #[test]
    fn refcount_frees_at_zero() {
        let n = node();
        let data = chunk(3);
        let h = hash_bytes(&data);
        n.put_chunk(h, data.clone()).unwrap();
        n.put_chunk(h, data).unwrap();
        n.unref_chunk(h);
        assert_eq!(n.chunk_count(), 1);
        n.unref_chunk(h);
        assert_eq!(n.chunk_count(), 0);
    }

    #[test]
    fn flushed_reads_hit_flash() {
        let n = node();
        let data = chunk(1);
        let h = hash_bytes(&data);
        n.put_chunk(h, data).unwrap();
        n.quiesce();
        let before = n.data_dev().stats().reads;
        n.get_chunk(h).unwrap();
        assert_eq!(n.data_dev().stats().reads, before + 1);
    }
}
