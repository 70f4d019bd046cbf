//! The CRUSH hierarchy: hosts containing OSDs, with weighted straw2 selection
//! and host-level failure domains.

use crate::straw2::straw2_draw;
use afc_common::rng::mix64;
use afc_common::{NodeId, OsdId, PgId};
use std::collections::BTreeMap;

/// The placement hierarchy: a single root of hosts, each holding OSDs.
///
/// Selection picks `size` distinct *hosts* first (failure domain = host, as
/// in the paper's replicated pools), then one OSD within each chosen host.
#[derive(Debug, Clone, Default)]
pub struct CrushMap {
    hosts: BTreeMap<NodeId, Vec<(OsdId, f64)>>,
}

impl CrushMap {
    /// Create an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Convenience: `nodes` hosts × `osds_per_node` unit-weight OSDs, ids
    /// assigned row-major (node 0 gets osd 0..k, node 1 gets k..2k, ...).
    pub fn uniform(nodes: u32, osds_per_node: u32) -> Self {
        let mut m = CrushMap::new();
        for n in 0..nodes {
            for o in 0..osds_per_node {
                m.add_osd(NodeId(n), OsdId(n * osds_per_node + o), 1.0);
            }
        }
        m
    }

    /// Add (or re-weight) an OSD under a host.
    pub fn add_osd(&mut self, node: NodeId, osd: OsdId, weight: f64) {
        let osds = self.hosts.entry(node).or_default();
        if let Some(e) = osds.iter_mut().find(|(o, _)| *o == osd) {
            e.1 = weight;
        } else {
            osds.push((osd, weight));
        }
    }

    /// Remove an OSD; removes the host when it empties.
    pub fn remove_osd(&mut self, node: NodeId, osd: OsdId) {
        if let Some(osds) = self.hosts.get_mut(&node) {
            osds.retain(|(o, _)| *o != osd);
            if osds.is_empty() {
                self.hosts.remove(&node);
            }
        }
    }

    /// All OSD ids in the map.
    pub fn osds(&self) -> Vec<OsdId> {
        let mut v: Vec<OsdId> = self.hosts.values().flatten().map(|(o, _)| *o).collect();
        v.sort_unstable();
        v
    }

    /// All host ids in the map.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.hosts.keys().copied().collect()
    }

    /// Host of an OSD, if present.
    pub fn host_of(&self, osd: OsdId) -> Option<NodeId> {
        self.hosts
            .iter()
            .find(|(_, osds)| osds.iter().any(|(o, _)| *o == osd))
            .map(|(n, _)| *n)
    }

    /// Total weight of a host (sum of its OSD weights).
    fn host_weight(&self, node: NodeId) -> f64 {
        self.hosts
            .get(&node)
            .map(|v| v.iter().map(|(_, w)| w).sum())
            .unwrap_or(0.0)
    }

    /// Stable per-PG selection key.
    fn pg_key(pg: PgId) -> u64 {
        mix64(((pg.pool.0 as u64) << 32) ^ pg.seq as u64 ^ 0xc0ff_ee11_d00d_f00d)
    }

    /// Select `size` OSDs for `pg` across distinct hosts; `exclude` filters
    /// OSDs (used for down/out OSDs). Returns fewer than `size` entries when
    /// the map cannot satisfy the constraint.
    pub fn select(&self, pg: PgId, size: usize, exclude: &dyn Fn(OsdId) -> bool) -> Vec<OsdId> {
        let key = Self::pg_key(pg);
        let mut chosen_hosts: Vec<NodeId> = Vec::with_capacity(size);
        let mut out = Vec::with_capacity(size);
        for replica in 0..size as u64 {
            // Choose the best host not already chosen whose OSD pick survives
            // the exclusion filter; retry with a perturbed key a few times to
            // step past excluded OSDs (CRUSH's "retry descent").
            let mut picked = None;
            for attempt in 0..8u64 {
                let rkey = mix64(key ^ (replica << 16) ^ (attempt << 40));
                let host = self
                    .hosts
                    .keys()
                    .filter(|n| !chosen_hosts.contains(n))
                    .max_by(|a, b| {
                        let da = straw2_draw(rkey, a.0 as u64, self.host_weight(**a));
                        let db = straw2_draw(rkey, b.0 as u64, self.host_weight(**b));
                        da.partial_cmp(&db).expect("draws are finite or -inf")
                    })
                    .copied();
                let Some(host) = host else { break };
                // Pick an OSD within the host by straw2 over OSD weights.
                let osd = self.hosts[&host]
                    .iter()
                    .filter(|(o, _)| !exclude(*o))
                    .max_by(|(oa, wa), (ob, wb)| {
                        let da = straw2_draw(rkey ^ 0xabcd, oa.0 as u64, *wa);
                        let db = straw2_draw(rkey ^ 0xabcd, ob.0 as u64, *wb);
                        da.partial_cmp(&db).expect("draws are finite or -inf")
                    })
                    .map(|(o, _)| *o);
                if let Some(osd) = osd {
                    picked = Some((host, osd));
                    break;
                }
                // Host had no eligible OSD: mark it chosen to skip it and retry.
                chosen_hosts.push(host);
            }
            if let Some((host, osd)) = picked {
                chosen_hosts.push(host);
                out.push(osd);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afc_common::PoolId;

    fn pg(seq: u32) -> PgId {
        PgId {
            pool: PoolId(0),
            seq,
        }
    }

    const NO_EXCLUDE: fn(OsdId) -> bool = |_| false;

    #[test]
    fn uniform_map_shape() {
        let m = CrushMap::uniform(4, 4);
        assert_eq!(m.nodes().len(), 4);
        assert_eq!(m.osds().len(), 16);
        assert_eq!(m.host_of(OsdId(5)), Some(NodeId(1)));
        assert_eq!(m.host_of(OsdId(99)), None);
    }

    #[test]
    fn select_is_deterministic() {
        let m = CrushMap::uniform(4, 4);
        for s in 0..64 {
            assert_eq!(
                m.select(pg(s), 2, &NO_EXCLUDE),
                m.select(pg(s), 2, &NO_EXCLUDE)
            );
        }
    }

    #[test]
    fn replicas_on_distinct_hosts() {
        let m = CrushMap::uniform(4, 4);
        for s in 0..256 {
            let osds = m.select(pg(s), 3, &NO_EXCLUDE);
            assert_eq!(osds.len(), 3);
            let hosts: Vec<NodeId> = osds.iter().map(|o| m.host_of(*o).unwrap()).collect();
            let mut uniq = hosts.clone();
            uniq.sort();
            uniq.dedup();
            assert_eq!(uniq.len(), 3, "pg {s}: hosts {hosts:?}");
        }
    }

    #[test]
    fn placement_is_roughly_uniform() {
        let m = CrushMap::uniform(4, 4);
        let mut counts: BTreeMap<OsdId, usize> = BTreeMap::new();
        let pgs = 4096;
        for s in 0..pgs {
            for o in m.select(pg(s), 2, &NO_EXCLUDE) {
                *counts.entry(o).or_default() += 1;
            }
        }
        let expected = (pgs * 2 / 16) as f64;
        for (o, c) in counts {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.30, "{o}: {c} vs expected {expected}");
        }
    }

    #[test]
    fn weights_shift_load() {
        let mut m = CrushMap::uniform(2, 2);
        // Make osd.0 three times the weight of its peer on node0.
        m.add_osd(NodeId(0), OsdId(0), 3.0);
        let mut c0 = 0;
        let mut c1 = 0;
        for s in 0..4096 {
            let osds = m.select(pg(s), 1, &NO_EXCLUDE);
            match osds.first() {
                Some(&OsdId(0)) => c0 += 1,
                Some(&OsdId(1)) => c1 += 1,
                _ => {}
            }
        }
        assert!(c0 > c1 * 2, "c0={c0} c1={c1}");
    }

    #[test]
    fn exclusion_remaps_within_same_host_first() {
        let m = CrushMap::uniform(4, 4);
        for s in 0..128 {
            let before = m.select(pg(s), 2, &NO_EXCLUDE);
            let dead = before[0];
            let after = m.select(pg(s), 2, &|o| o == dead);
            assert_eq!(after.len(), 2);
            assert!(!after.contains(&dead));
        }
    }

    #[test]
    fn adding_a_host_moves_proportional_data() {
        let before = CrushMap::uniform(4, 4);
        let mut after = before.clone();
        for o in 0..4 {
            after.add_osd(NodeId(4), OsdId(16 + o), 1.0);
        }
        let pgs = 2048;
        let mut moved = 0;
        for s in 0..pgs {
            let a = before.select(pg(s), 2, &NO_EXCLUDE);
            let b = after.select(pg(s), 2, &NO_EXCLUDE);
            moved += a.iter().filter(|o| !b.contains(o)).count();
        }
        let frac = moved as f64 / (pgs * 2) as f64;
        // Ideal movement when growing 4 → 5 hosts is 1/5 = 20%; straw2 over
        // our retry scheme should stay in the same ballpark, far below a
        // naive rehash (~80%+).
        assert!(frac < 0.40, "moved {:.1}%", frac * 100.0);
        assert!(
            frac > 0.05,
            "suspiciously little movement: {:.1}%",
            frac * 100.0
        );
    }

    #[test]
    fn select_handles_insufficient_hosts() {
        let m = CrushMap::uniform(2, 2);
        let osds = m.select(pg(7), 3, &NO_EXCLUDE);
        assert!(osds.len() <= 2, "only 2 hosts exist: {osds:?}");
    }

    #[test]
    fn remove_osd_and_empty_host() {
        let mut m = CrushMap::uniform(2, 1);
        m.remove_osd(NodeId(1), OsdId(1));
        assert_eq!(m.nodes(), vec![NodeId(0)]);
        assert_eq!(m.osds(), vec![OsdId(0)]);
    }
}
