//! A SolidFire-style all-flash comparator (§4.4, Figure 11).
//!
//! The paper benchmarks its optimized Ceph against SolidFire, whose
//! architecture it characterizes as: **content-addressed 4 KB chunks** with
//! mandatory deduplication, chunk hashes and metadata staged in **NVRAM**
//! (fast write acks), data laid out **log-structured** on flash, and a
//! metadata service that maps volume LBAs to chunk fingerprints. The
//! consequences the paper measures — and this model reproduces:
//!
//! - strong 4 KB random-write performance (NVRAM-acked, dedup-amortized);
//! - degraded non-4K performance (every op shatters into 4 KB chunks, with
//!   read-modify-write at unaligned edges);
//! - poor sequential bandwidth: "client's sequential workload would be
//!   random workload in the storage cluster because SolidFire divides all
//!   inputs to 4KB unit for deduplication" — large reads become per-chunk
//!   lookups with no large-transfer coalescing.
//!
//! Chunks are placed on nodes by fingerprint (`hash % nodes`), giving
//! global dedup; real content hashing ([`afc_common::rng::hash_bytes`])
//! keeps dedup behaviour honest under the benchmark's data patterns.

#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod chunk;
pub mod cluster;
pub mod node;

pub use chunk::{chunk_extents, ChunkExtent, CHUNK};
pub use cluster::{SfCluster, SfConfig, SfStats, SfVolume};
pub use node::SfNode;
