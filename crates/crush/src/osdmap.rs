//! The versioned OSD map shared by monitors, OSDs and clients.

use crate::map::CrushMap;
use afc_common::{AfcError, Epoch, ObjectId, OsdId, PgId, PoolId, Result};
use std::collections::BTreeMap;

/// Liveness/membership status of an OSD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OsdStatus {
    /// Process is running and heartbeating.
    pub up: bool,
    /// OSD participates in placement (down+out OSDs are remapped around).
    pub in_cluster: bool,
}

impl Default for OsdStatus {
    fn default() -> Self {
        OsdStatus {
            up: true,
            in_cluster: true,
        }
    }
}

/// Pool parameters.
#[derive(Debug, Clone, Copy)]
pub struct PoolSpec {
    /// Number of PGs.
    pub pg_num: u32,
    /// Replication factor (paper uses 2).
    pub size: usize,
}

/// A versioned cluster map: CRUSH hierarchy + OSD statuses + pools.
#[derive(Debug, Clone)]
pub struct OsdMap {
    epoch: Epoch,
    crush: CrushMap,
    status: BTreeMap<OsdId, OsdStatus>,
    pools: BTreeMap<PoolId, PoolSpec>,
    /// Temporary acting-set overrides installed during peering, so a
    /// caught-up survivor can keep primaryship while the CRUSH-preferred
    /// OSD recovers (Ceph's `pg_temp`). Cleared when recovery completes.
    pg_temp: BTreeMap<PgId, Vec<OsdId>>,
}

impl OsdMap {
    /// Create epoch-1 map from a CRUSH hierarchy; all OSDs up+in.
    pub fn new(crush: CrushMap) -> Self {
        let status = crush
            .osds()
            .into_iter()
            .map(|o| (o, OsdStatus::default()))
            .collect();
        OsdMap {
            epoch: Epoch(1),
            crush,
            status,
            pools: BTreeMap::new(),
            pg_temp: BTreeMap::new(),
        }
    }

    /// Current epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The CRUSH hierarchy.
    pub fn crush(&self) -> &CrushMap {
        &self.crush
    }

    /// Register a pool. Bumps the epoch.
    pub fn add_pool(&mut self, pool: PoolId, spec: PoolSpec) -> Result<()> {
        if spec.pg_num == 0 || spec.size == 0 {
            return Err(AfcError::InvalidArgument(
                "pool needs pg_num > 0 and size > 0".into(),
            ));
        }
        if self.pools.insert(pool, spec).is_some() {
            return Err(AfcError::AlreadyExists(format!("{pool}")));
        }
        self.epoch = self.epoch.next();
        Ok(())
    }

    /// Pool spec lookup.
    pub fn pool(&self, pool: PoolId) -> Result<PoolSpec> {
        self.pools
            .get(&pool)
            .copied()
            .ok_or_else(|| AfcError::NotFound(format!("{pool}")))
    }

    /// All pools.
    pub fn pools(&self) -> impl Iterator<Item = (PoolId, PoolSpec)> + '_ {
        self.pools.iter().map(|(p, s)| (*p, *s))
    }

    /// Status of an OSD (default up+in when untracked).
    pub fn osd_status(&self, osd: OsdId) -> OsdStatus {
        self.status.get(&osd).copied().unwrap_or_default()
    }

    /// Mark an OSD up/down. Bumps the epoch only on an actual transition:
    /// re-marking a down OSD down must not invalidate maps (that would
    /// retrigger peering across the cluster for a no-op).
    pub fn set_up(&mut self, osd: OsdId, up: bool) {
        let st = self.status.entry(osd).or_default();
        if st.up == up {
            return;
        }
        st.up = up;
        self.epoch = self.epoch.next();
    }

    /// Mark an OSD in/out of placement. Bumps the epoch only on an actual
    /// transition (idempotent like [`OsdMap::set_up`]).
    pub fn set_in(&mut self, osd: OsdId, in_cluster: bool) {
        let st = self.status.entry(osd).or_default();
        if st.in_cluster == in_cluster {
            return;
        }
        st.in_cluster = in_cluster;
        self.epoch = self.epoch.next();
    }

    /// Install a temporary acting-set override for a PG (primary first).
    /// Idempotent: re-installing the same override does not bump the epoch.
    pub fn set_pg_temp(&mut self, pg: PgId, acting: Vec<OsdId>) {
        if self.pg_temp.get(&pg) == Some(&acting) {
            return;
        }
        self.pg_temp.insert(pg, acting);
        self.epoch = self.epoch.next();
    }

    /// Remove a PG's temporary acting-set override. Idempotent.
    pub fn clear_pg_temp(&mut self, pg: PgId) {
        if self.pg_temp.remove(&pg).is_some() {
            self.epoch = self.epoch.next();
        }
    }

    /// Install several `pg_temp` overrides in one epoch bump (a recovery
    /// tick publishes its whole batch as a single map version). No-op
    /// entries don't count; an all-no-op batch leaves the epoch alone.
    pub fn set_pg_temps(&mut self, temps: &[(PgId, Vec<OsdId>)]) {
        let mut changed = false;
        for (pg, acting) in temps {
            if self.pg_temp.get(pg) == Some(acting) {
                continue;
            }
            self.pg_temp.insert(*pg, acting.clone());
            changed = true;
        }
        if changed {
            self.epoch = self.epoch.next();
        }
    }

    /// Remove several `pg_temp` overrides in one epoch bump. Idempotent
    /// like [`OsdMap::set_pg_temps`].
    pub fn clear_pg_temps(&mut self, pgs: &[PgId]) {
        let mut changed = false;
        for pg in pgs {
            changed |= self.pg_temp.remove(pg).is_some();
        }
        if changed {
            self.epoch = self.epoch.next();
        }
    }

    /// The temporary acting-set override for a PG, if any.
    pub fn pg_temp(&self, pg: PgId) -> Option<&[OsdId]> {
        self.pg_temp.get(&pg).map(|v| v.as_slice())
    }

    /// Replace the CRUSH hierarchy (cluster expansion). Bumps the epoch and
    /// tracks any new OSDs as up+in.
    pub fn set_crush(&mut self, crush: CrushMap) {
        for o in crush.osds() {
            self.status.entry(o).or_default();
        }
        self.crush = crush;
        self.epoch = self.epoch.next();
    }

    /// Map an object to its PG.
    pub fn object_pg(&self, obj: &ObjectId) -> Result<PgId> {
        let spec = self.pool(obj.pool)?;
        Ok(obj.pg(spec.pg_num))
    }

    /// Where a PG lives under this map: its placed and acting sets, from
    /// one CRUSH descent. `Err` only for an unknown pool.
    pub fn pg_placement(&self, pg: PgId) -> Result<Placement> {
        let spec = self.pool(pg.pool)?;
        let placed = self
            .crush
            .select(pg, spec.size, &|o| !self.osd_status(o).in_cluster);
        let live = |o: &&OsdId| {
            let st = self.osd_status(**o);
            st.up && st.in_cluster
        };
        let mut acting: Vec<OsdId> = self
            .pg_temp
            .get(&pg)
            .into_iter()
            .flatten()
            .filter(live)
            .copied()
            .collect();
        if acting.is_empty() {
            acting = placed.iter().filter(live).copied().collect();
        }
        Ok(Placement { placed, acting })
    }

    /// Full placement of an object: `(pg, acting-set)`; `NotFound` when no
    /// OSD of its PG is up.
    pub fn object_placement(&self, obj: &ObjectId) -> Result<(PgId, Vec<OsdId>)> {
        let pg = self.object_pg(obj)?;
        let acting = self.pg_placement(pg)?.acting;
        if acting.is_empty() {
            return Err(AfcError::NotFound(format!("no acting OSDs for pg {pg}")));
        }
        Ok((pg, acting))
    }
}

/// A PG's two OSD sets under one map ([`OsdMap::pg_placement`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Placement {
    /// CRUSH's choice excluding **out** OSDs but *including* down-but-in
    /// ones: the set expected to hold the PG's data once everyone is
    /// healthy again. A primary journals each write a member of
    /// `placed − acting` misses, for recovery.
    pub placed: Vec<OsdId>,
    /// The OSDs serving the PG, primary first. A `pg_temp` override
    /// (installed during recovery) wins while it names an up+in OSD.
    /// Otherwise it is the up members of `placed`: **out** OSDs are
    /// re-descended around (backfill rebalances their data), while a
    /// **down-but-in** OSD is only dropped, and the PG runs *degraded* on
    /// the survivors until the peer returns and recovery replays what it
    /// missed (see DESIGN.md). Empty when no member is up.
    pub acting: Vec<OsdId>,
}

impl Placement {
    /// The primary: the first OSD of the acting set.
    pub fn primary(&self) -> Option<OsdId> {
        self.acting.first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn map4x4() -> OsdMap {
        let mut m = OsdMap::new(CrushMap::uniform(4, 4));
        m.add_pool(
            PoolId(0),
            PoolSpec {
                pg_num: 256,
                size: 2,
            },
        )
        .unwrap();
        m
    }

    fn acting(m: &OsdMap, seq: u32) -> Vec<OsdId> {
        let pg = PgId {
            pool: PoolId(0),
            seq,
        };
        m.pg_placement(pg).unwrap().acting
    }

    #[test]
    fn pool_registration() {
        let mut m = OsdMap::new(CrushMap::uniform(2, 2));
        assert!(m.pool(PoolId(0)).is_err());
        m.add_pool(
            PoolId(0),
            PoolSpec {
                pg_num: 64,
                size: 2,
            },
        )
        .unwrap();
        assert_eq!(m.pool(PoolId(0)).unwrap().pg_num, 64);
        assert!(m
            .add_pool(PoolId(0), PoolSpec { pg_num: 1, size: 1 })
            .is_err());
        assert!(m
            .add_pool(PoolId(1), PoolSpec { pg_num: 0, size: 1 })
            .is_err());
        assert_eq!(m.pools().count(), 1);
    }

    #[test]
    fn epoch_bumps_on_changes() {
        let mut m = map4x4();
        let e0 = m.epoch();
        m.set_up(OsdId(3), false);
        assert!(m.epoch() > e0);
        let e1 = m.epoch();
        m.set_crush(CrushMap::uniform(5, 4));
        assert!(m.epoch() > e1);
    }

    #[test]
    fn status_transitions_are_idempotent() {
        // Regression: re-marking a down OSD down (or an out OSD out) used
        // to bump the epoch, spuriously invalidating every cached map.
        let mut m = map4x4();
        m.set_up(OsdId(3), false);
        let e = m.epoch();
        m.set_up(OsdId(3), false);
        assert_eq!(m.epoch(), e, "no-op set_up must not bump the epoch");
        m.set_up(OsdId(3), true);
        assert!(m.epoch() > e);

        let e = m.epoch();
        m.set_in(OsdId(5), true); // already in
        assert_eq!(m.epoch(), e, "no-op set_in must not bump the epoch");
        m.set_in(OsdId(5), false);
        assert!(m.epoch() > e);
        let e = m.epoch();
        m.set_in(OsdId(5), false);
        assert_eq!(m.epoch(), e);
    }

    #[test]
    fn pg_temp_overrides_acting_until_cleared() {
        let mut m = map4x4();
        let pg = PgId {
            pool: PoolId(0),
            seq: 7,
        };
        let crush = m.pg_placement(pg).unwrap();
        let swapped: Vec<OsdId> = crush.acting.iter().rev().copied().collect();
        m.set_pg_temp(pg, swapped.clone());
        let e = m.epoch();
        let temp = m.pg_placement(pg).unwrap();
        assert_eq!(temp.acting, swapped);
        assert_eq!(temp.primary(), Some(swapped[0]));
        // The override moves the acting set, not the placed set.
        assert_eq!(temp.placed, crush.placed);
        assert_eq!(m.pg_temp(pg), Some(swapped.as_slice()));
        // Idempotent re-install: no epoch bump.
        m.set_pg_temp(pg, swapped.clone());
        assert_eq!(m.epoch(), e);
        // Down members are filtered out of the override.
        m.set_up(swapped[0], false);
        assert!(!acting(&m, 7).contains(&swapped[0]));
        m.set_up(swapped[0], true);
        // Clearing restores CRUSH placement; clearing twice is a no-op.
        m.clear_pg_temp(pg);
        assert_eq!(m.pg_placement(pg).unwrap(), crush);
        let e = m.epoch();
        m.clear_pg_temp(pg);
        assert_eq!(m.epoch(), e);
    }

    #[test]
    fn placed_set_includes_down_but_in_osds() {
        let mut m = map4x4();
        let pg = PgId {
            pool: PoolId(0),
            seq: 11,
        };
        let placed = m.pg_placement(pg).unwrap().placed;
        assert_eq!(placed.len(), 2);
        m.set_up(placed[0], false);
        // Down-but-in: still placed, no longer acting.
        let down = m.pg_placement(pg).unwrap();
        assert_eq!(down.placed, placed);
        assert_eq!(down.acting, vec![placed[1]]);
        // Out: removed from the placed set entirely.
        m.set_in(placed[0], false);
        assert!(!m.pg_placement(pg).unwrap().placed.contains(&placed[0]));
        // Every member down: still placed, nobody acting, no primary.
        m.set_in(placed[0], true);
        m.set_up(placed[1], false);
        let gone = m.pg_placement(pg).unwrap();
        assert_eq!((gone.primary(), gone.placed), (None, placed));
    }

    #[test]
    fn object_placement_consistent() {
        let mut m = map4x4();
        let obj = ObjectId::new(PoolId(0), "rbd_data.vm1.000000000000002a");
        let (pg, acting) = m.object_placement(&obj).unwrap();
        assert_eq!(acting.len(), 2);
        assert_eq!(m.pg_placement(pg).unwrap().acting, acting);
        assert_eq!(m.object_pg(&obj).unwrap(), pg);
        for o in &acting {
            m.set_up(*o, false);
        }
        assert!(matches!(
            m.object_placement(&obj),
            Err(AfcError::NotFound(_))
        ));
    }

    #[test]
    fn down_osd_leaves_degraded_survivors() {
        let mut m = map4x4();
        // Record acting sets, then kill osd.0: its PGs must keep exactly
        // their surviving member (degraded), promoting it to primary.
        let before: Vec<(u32, Vec<OsdId>)> = (0..256)
            .map(|seq| (seq, acting(&m, seq)))
            .filter(|(_, a)| a[0] == OsdId(0))
            .collect();
        assert!(!before.is_empty());
        m.set_up(OsdId(0), false);
        for (seq, old) in before {
            let acting = acting(&m, seq);
            assert!(
                !acting.contains(&OsdId(0)),
                "pg {seq} still maps to down osd"
            );
            assert_eq!(acting.len(), 1, "degraded PG runs on the survivor");
            assert_eq!(
                acting[0], old[1],
                "survivor (old replica) promoted to primary"
            );
        }
    }

    #[test]
    fn out_osd_is_remapped_around() {
        let mut m = map4x4();
        m.set_in(OsdId(7), false);
        for seq in 0..256 {
            let place = m
                .pg_placement(PgId {
                    pool: PoolId(0),
                    seq,
                })
                .unwrap();
            assert!(!place.placed.contains(&OsdId(7)));
            assert_eq!(
                place.acting, place.placed,
                "an out OSD is re-descended around"
            );
        }
    }

    #[test]
    fn every_osd_leads_some_pgs() {
        let m = map4x4();
        let primaries: BTreeSet<OsdId> = (0..256).map(|seq| acting(&m, seq)[0]).collect();
        assert_eq!(primaries, m.crush().osds().into_iter().collect());
    }

    #[test]
    fn expansion_keeps_most_placements() {
        let m = map4x4();
        let mut grown = m.clone();
        grown.set_crush(CrushMap::uniform(5, 4));
        let mut moved = 0;
        for seq in 0..256 {
            let pg = PgId {
                pool: PoolId(0),
                seq,
            };
            let a = m.pg_placement(pg).unwrap().acting;
            let b = grown.pg_placement(pg).unwrap().acting;
            moved += a.iter().filter(|o| !b.contains(o)).count();
        }
        assert!(moved < 256, "moved {moved} of 512 replicas");
    }

    #[test]
    fn unknown_pool_errors() {
        let m = map4x4();
        let obj = ObjectId::new(PoolId(9), "x");
        assert!(matches!(m.object_pg(&obj), Err(AfcError::NotFound(_))));
    }
}
