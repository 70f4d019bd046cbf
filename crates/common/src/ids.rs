//! Strongly-typed identifiers used across the storage stack.
//!
//! Mirrors the entities in the paper's Ceph-like architecture: nodes host
//! OSD daemons, objects belong to pools, objects are grouped into placement
//! groups (PGs), and cluster maps are versioned by epochs.

use std::fmt;

use crate::rng::mix64;

/// A physical server node hosting one or more OSDs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// An object storage daemon (one per RAID-0 SSD group in the paper's setup).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OsdId(pub u32);

/// A storage pool (namespace with its own PG count and replication factor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PoolId(pub u32);

/// A placement group within a pool: the unit of placement, ordering and
/// locking in the OSD ("PG lock" in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PgId {
    /// Owning pool.
    pub pool: PoolId,
    /// Sequence number of the PG within the pool, `0..pg_num`.
    pub seq: u32,
}

/// A client session (one per VM / FIO job in the evaluation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u64);

/// A logical volume for QoS accounting: the unit that owns a min/max/burst
/// IOPS spec in the per-volume scheduler. Volume 0 is the shared
/// best-effort volume (untagged traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VolumeId(pub u64);

/// A monotonically increasing cluster-map version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Epoch(pub u64);

/// A per-client monotonically increasing operation id; `(ClientId, OpId)`
/// uniquely identifies a request in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u64);

/// A named object within a pool. Object names are interned as `String`s at
/// this layer; hot paths hash them once via [`ObjectId::name_hash`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId {
    /// Owning pool.
    pub pool: PoolId,
    /// Object name, e.g. `rbd_data.vm0.0000000000000004`.
    pub name: String,
}

impl ObjectId {
    /// Create an object id in `pool` with the given name.
    pub fn new(pool: PoolId, name: impl Into<String>) -> Self {
        ObjectId {
            pool,
            name: name.into(),
        }
    }

    /// Stable 64-bit hash of the object name (used for PG mapping).
    pub fn name_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in self.name.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        mix64(h ^ ((self.pool.0 as u64) << 32))
    }

    /// The inverse of `Display` (`pool<N>/<name>`, the object's store
    /// name): `None` for a store name that is not an object's, such as a PG
    /// meta object's `pgmeta_*`.
    pub fn parse(s: &str) -> Option<ObjectId> {
        let (pool, name) = s.strip_prefix("pool")?.split_once('/')?;
        Some(ObjectId::new(PoolId(pool.parse().ok()?), name))
    }

    /// Map this object to a PG, Ceph-style: `pg = hash(name) % pg_num`.
    pub fn pg(&self, pg_num: u32) -> PgId {
        assert!(pg_num > 0, "pg_num must be positive");
        PgId {
            pool: self.pool,
            seq: (self.name_hash() % pg_num as u64) as u32,
        }
    }
}

impl Epoch {
    /// The epoch before any map exists.
    pub const ZERO: Epoch = Epoch(0);

    /// The next epoch.
    #[must_use]
    pub fn next(self) -> Epoch {
        Epoch(self.0 + 1)
    }
}

impl OpId {
    /// The next op id.
    #[must_use]
    pub fn next(self) -> OpId {
        OpId(self.0 + 1)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

impl fmt::Display for OsdId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "osd.{}", self.0)
    }
}

impl fmt::Display for PoolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pool{}", self.0)
    }
}

impl fmt::Display for PgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:x}", self.pool.0, self.seq)
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client.{}", self.0)
    }
}

impl fmt::Display for VolumeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vol{}", self.0)
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.pool, self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_pg_mapping_is_stable() {
        let o = ObjectId::new(PoolId(1), "rbd_data.vm0.0000000000000004");
        assert_eq!(o.pg(128), o.pg(128));
        assert_eq!(o.pg(128).pool, PoolId(1));
        assert!(o.pg(128).seq < 128);
    }

    #[test]
    fn object_pg_mapping_spreads() {
        // 1000 sequential object names should land on many distinct PGs.
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            let o = ObjectId::new(PoolId(0), format!("rbd_data.img.{i:016x}"));
            seen.insert(o.pg(128).seq);
        }
        assert!(seen.len() > 100, "only {} of 128 PGs hit", seen.len());
    }

    #[test]
    fn name_hash_depends_on_pool() {
        let a = ObjectId::new(PoolId(0), "x");
        let b = ObjectId::new(PoolId(1), "x");
        assert_ne!(a.name_hash(), b.name_hash());
    }

    #[test]
    #[should_panic(expected = "pg_num must be positive")]
    fn zero_pg_num_panics() {
        ObjectId::new(PoolId(0), "x").pg(0);
    }

    #[test]
    fn store_names_round_trip() {
        for o in [
            ObjectId::new(PoolId(0), "rbd_data.vm0.0000000000000004"),
            ObjectId::new(PoolId(17), "a/b"),
            ObjectId::new(PoolId(u32::MAX), ""),
        ] {
            assert_eq!(ObjectId::parse(&o.to_string()), Some(o));
        }
        for not_an_object in [
            "pgmeta_0.1f",
            "pgmeta_pool0/x",
            "no_slash",
            "pool/x",
            "poolpool1/x",
            "1/x",
            "pool4294967296/x",
        ] {
            assert_eq!(ObjectId::parse(not_an_object), None, "{not_an_object}");
        }
    }

    #[test]
    fn epoch_and_opid_advance() {
        assert_eq!(Epoch::ZERO.next(), Epoch(1));
        assert_eq!(OpId(41).next(), OpId(42));
    }

    #[test]
    fn display_formats() {
        assert_eq!(OsdId(3).to_string(), "osd.3");
        assert_eq!(
            PgId {
                pool: PoolId(2),
                seq: 0x1f
            }
            .to_string(),
            "2.1f"
        );
        assert_eq!(NodeId(1).to_string(), "node1");
        assert_eq!(ClientId(7).to_string(), "client.7");
        assert_eq!(VolumeId(5).to_string(), "vol5");
        assert_eq!(Epoch(9).to_string(), "e9");
    }
}
