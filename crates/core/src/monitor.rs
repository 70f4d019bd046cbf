//! The (single, simplified) monitor: authority over the cluster map.
//!
//! Real Ceph runs a Paxos quorum of monitors; map-change consensus is not
//! what the paper evaluates, so here one monitor owns the versioned
//! [`OsdMap`] and every OSD/client shares a handle to it. Updates bump the
//! epoch and are immediately visible (the shared `RwLock` stands in for map
//! gossip).
//!
//! # Failure detection
//!
//! OSDs heartbeat each other and report silent peers via
//! [`Monitor::report_down`]. Once [`FailureConfig::min_reporters`]
//! distinct OSDs have accused the same peer, the monitor marks it *down*
//! (epoch bump — survivors promote and run degraded). If the OSD stays
//! down past [`FailureConfig::mark_out_after`], the periodic
//! [`Monitor::tick`] marks it *out*: CRUSH re-descends and the data is
//! backfilled onto a replacement. A returning OSD calls
//! [`Monitor::report_alive`] to clear the accusations and rejoin.

use afc_common::lockdep::{classes, TrackedMutex, TrackedRwLock};
use afc_common::{Epoch, OsdId, PgId};
use afc_crush::{CrushMap, OsdMap};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The shared, lock-order-tracked handle to the current cluster map.
pub type SharedMap = Arc<TrackedRwLock<Arc<OsdMap>>>;

/// Failure-detection policy knobs.
#[derive(Debug, Clone)]
pub struct FailureConfig {
    /// Distinct reporters required before an accused OSD is marked down
    /// (Ceph's `mon_osd_min_down_reporters`; 1 suits small test clusters).
    pub min_reporters: usize,
    /// How long an OSD may stay down before [`Monitor::tick`] marks it
    /// out of placement. `None` disables auto-out (the default: tests and
    /// benches decide explicitly).
    pub mark_out_after: Option<Duration>,
}

impl Default for FailureConfig {
    fn default() -> Self {
        FailureConfig {
            min_reporters: 1,
            mark_out_after: None,
        }
    }
}

/// Failure-report accounting (guarded by `MON_FAIL`, which ranks below
/// the map lock so accusations can publish a new map while held).
#[derive(Default)]
struct FailState {
    cfg: FailureConfig,
    /// target → set of accusing OSDs.
    reporters: BTreeMap<OsdId, BTreeSet<OsdId>>,
    /// When each currently-down OSD was marked down.
    down_since: BTreeMap<OsdId, Instant>,
}

/// The cluster-map authority.
pub struct Monitor {
    map: SharedMap,
    fail: TrackedMutex<FailState>,
}

impl Monitor {
    /// Create a monitor with an initial CRUSH hierarchy.
    pub fn new(crush: CrushMap) -> Self {
        Monitor {
            map: Arc::new(TrackedRwLock::new(
                &classes::OSD_MAP,
                Arc::new(OsdMap::new(crush)),
            )),
            fail: TrackedMutex::new(&classes::MON_FAIL, FailState::default()),
        }
    }

    /// The shared map handle given to OSDs and clients.
    pub fn shared_map(&self) -> SharedMap {
        Arc::clone(&self.map)
    }

    /// Snapshot of the current map.
    pub fn map(&self) -> Arc<OsdMap> {
        self.map.read().clone()
    }

    /// Current epoch.
    pub fn epoch(&self) -> Epoch {
        self.map.read().epoch()
    }

    /// Apply a mutation to the map (pool creation, OSD status, CRUSH
    /// change); publishes the new version atomically.
    pub fn update<R>(&self, f: impl FnOnce(&mut OsdMap) -> R) -> R {
        let mut guard = self.map.write();
        let mut next = (**guard).clone();
        let r = f(&mut next);
        *guard = Arc::new(next);
        r
    }

    /// Install the failure-detection policy (cluster build time).
    pub fn set_failure_config(&self, cfg: FailureConfig) {
        self.fail.lock().cfg = cfg;
    }

    /// An OSD accuses `target` of missing heartbeats. Marks the target
    /// down (and starts its mark-out clock) once enough distinct
    /// reporters agree. Returns `true` if this call transitioned the
    /// target to down.
    pub fn report_down(&self, reporter: OsdId, target: OsdId) -> bool {
        if reporter == target {
            return false;
        }
        let mut fail = self.fail.lock();
        let n = {
            let set = fail.reporters.entry(target).or_default();
            set.insert(reporter);
            set.len()
        };
        if n < fail.cfg.min_reporters {
            return false;
        }
        let transitioned = self.update(|m| {
            let was_up = m.osd_status(target).up;
            m.set_up(target, false);
            was_up
        });
        if transitioned {
            fail.down_since.insert(target, Instant::now());
        }
        transitioned
    }

    /// A (re)started OSD asserts it is alive: clears any accusations and
    /// marks it up (epoch bump → peers re-peer and recover it).
    pub fn report_alive(&self, osd: OsdId) {
        let mut fail = self.fail.lock();
        fail.reporters.remove(&osd);
        fail.down_since.remove(&osd);
        self.update(|m| m.set_up(osd, true));
    }

    /// Periodic sweep (driven by OSD heartbeat tickers): marks OSDs that
    /// have been down longer than `mark_out_after` out of placement so
    /// CRUSH re-descends and backfill rebuilds redundancy elsewhere.
    pub fn tick(&self) {
        let mut fail = self.fail.lock();
        let Some(grace) = fail.cfg.mark_out_after else {
            return;
        };
        let overdue: Vec<OsdId> = fail
            .down_since
            .iter()
            .filter(|(_, since)| since.elapsed() >= grace)
            .map(|(o, _)| *o)
            .collect();
        if overdue.is_empty() {
            return;
        }
        for o in &overdue {
            fail.down_since.remove(o);
        }
        self.update(|m| {
            for o in &overdue {
                m.set_in(*o, false);
            }
        });
    }

    /// Install a batch of `pg_temp` overrides in one epoch bump.
    pub fn set_pg_temps(&self, temps: &[(PgId, Vec<OsdId>)]) {
        if temps.is_empty() {
            return;
        }
        self.update(|m| m.set_pg_temps(temps));
    }

    /// Clear a batch of `pg_temp` overrides in one epoch bump.
    pub fn clear_pg_temps(&self, pgs: &[PgId]) {
        if pgs.is_empty() {
            return;
        }
        self.update(|m| m.clear_pg_temps(pgs));
    }

    /// Mark an OSD down (failure detection shortcut for tests).
    pub fn mark_down(&self, osd: OsdId) {
        self.fail.lock().down_since.insert(osd, Instant::now());
        self.update(|m| m.set_up(osd, false));
    }

    /// Mark an OSD up again.
    pub fn mark_up(&self, osd: OsdId) {
        self.report_alive(osd);
    }

    /// Bring an out OSD back into placement.
    pub fn mark_in(&self, osd: OsdId) {
        self.update(|m| m.set_in(osd, true));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afc_common::PoolId;
    use afc_crush::osdmap::PoolSpec;

    #[test]
    fn updates_bump_epoch_and_publish() {
        let mon = Monitor::new(CrushMap::uniform(2, 2));
        let e0 = mon.epoch();
        mon.update(|m| {
            m.add_pool(
                PoolId(0),
                PoolSpec {
                    pg_num: 32,
                    size: 2,
                },
            )
            .unwrap()
        });
        assert!(mon.epoch() > e0);
        let shared = mon.shared_map();
        assert_eq!(shared.read().pool(PoolId(0)).unwrap().pg_num, 32);
    }

    #[test]
    fn mark_down_up_cycle() {
        let mon = Monitor::new(CrushMap::uniform(2, 2));
        mon.mark_down(OsdId(1));
        assert!(!mon.map().osd_status(OsdId(1)).up);
        mon.mark_up(OsdId(1));
        assert!(mon.map().osd_status(OsdId(1)).up);
    }

    #[test]
    fn shared_handle_sees_updates() {
        let mon = Monitor::new(CrushMap::uniform(2, 2));
        let shared = mon.shared_map();
        let before = shared.read().epoch();
        mon.mark_down(OsdId(0));
        assert!(shared.read().epoch() > before);
    }

    #[test]
    fn report_down_needs_quorum_of_reporters() {
        let mon = Monitor::new(CrushMap::uniform(3, 1));
        mon.set_failure_config(FailureConfig {
            min_reporters: 2,
            mark_out_after: None,
        });
        assert!(!mon.report_down(OsdId(1), OsdId(0)));
        assert!(mon.map().osd_status(OsdId(0)).up, "one accuser is gossip");
        assert!(mon.report_down(OsdId(2), OsdId(0)));
        assert!(!mon.map().osd_status(OsdId(0)).up);
        // Further accusations are no-ops (idempotent map, no epoch bump).
        let e = mon.epoch();
        assert!(!mon.report_down(OsdId(1), OsdId(0)));
        assert_eq!(mon.epoch(), e);
        // Self-accusation never counts.
        assert!(!mon.report_down(OsdId(1), OsdId(1)));
        assert!(mon.map().osd_status(OsdId(1)).up);
    }

    #[test]
    fn report_alive_clears_accusations() {
        let mon = Monitor::new(CrushMap::uniform(2, 1));
        assert!(mon.report_down(OsdId(1), OsdId(0)));
        mon.report_alive(OsdId(0));
        assert!(mon.map().osd_status(OsdId(0)).up);
        // Accusation ledger was reset: the next report needs to re-reach
        // the threshold from scratch (min_reporters = 1 → it does).
        assert!(mon.report_down(OsdId(1), OsdId(0)));
    }

    #[test]
    fn tick_marks_overdue_osds_out() {
        let mon = Monitor::new(CrushMap::uniform(3, 1));
        mon.set_failure_config(FailureConfig {
            min_reporters: 1,
            mark_out_after: Some(Duration::ZERO),
        });
        mon.report_down(OsdId(2), OsdId(0));
        assert!(mon.map().osd_status(OsdId(0)).in_cluster);
        mon.tick();
        assert!(!mon.map().osd_status(OsdId(0)).in_cluster, "not marked out");
        // Without mark_out_after, tick never touches membership.
        mon.set_failure_config(FailureConfig {
            min_reporters: 1,
            mark_out_after: None,
        });
        mon.report_down(OsdId(2), OsdId(1));
        mon.tick();
        assert!(mon.map().osd_status(OsdId(1)).in_cluster);
        mon.mark_in(OsdId(0));
        assert!(mon.map().osd_status(OsdId(0)).in_cluster);
    }

    #[test]
    fn pg_temp_batches_bump_epoch_once() {
        let mon = Monitor::new(CrushMap::uniform(2, 2));
        mon.update(|m| {
            m.add_pool(PoolId(0), PoolSpec { pg_num: 8, size: 2 })
                .unwrap()
        });
        let pg = |seq| PgId {
            pool: PoolId(0),
            seq,
        };
        let e0 = mon.epoch();
        mon.set_pg_temps(&[
            (pg(0), vec![OsdId(1), OsdId(0)]),
            (pg(1), vec![OsdId(2), OsdId(3)]),
        ]);
        assert_eq!(mon.epoch().0, e0.0 + 1, "batch must be one epoch bump");
        assert_eq!(
            mon.map().pg_placement(pg(0)).unwrap().acting,
            vec![OsdId(1), OsdId(0)]
        );
        let e1 = mon.epoch();
        mon.clear_pg_temps(&[pg(0), pg(1)]);
        assert_eq!(mon.epoch().0, e1.0 + 1);
        mon.set_pg_temps(&[]);
        mon.clear_pg_temps(&[]);
        assert_eq!(mon.epoch().0, e1.0 + 1, "empty batches are free");
    }
}
