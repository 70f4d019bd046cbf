//! Property tests for CRUSH placement invariants.

use afc_common::{NodeId, ObjectId, OsdId, PgId, PoolId};
use afc_crush::osdmap::PoolSpec;
use afc_crush::{CrushMap, OsdMap};
use proptest::prelude::*;

fn arbitrary_map() -> impl Strategy<Value = (CrushMap, u32, usize)> {
    (2u32..8, 1u32..5, 1usize..4).prop_map(|(nodes, osds, size)| {
        (
            CrushMap::uniform(nodes, osds),
            nodes,
            size.min(nodes as usize),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Selection is deterministic, the right size, duplicate-free, and
    /// never co-locates replicas on one host.
    #[test]
    fn select_invariants((crush, _nodes, size) in arbitrary_map(), seq in 0u32..4096) {
        let pg = PgId { pool: PoolId(0), seq };
        let a = crush.select(pg, size, &|_| false);
        let b = crush.select(pg, size, &|_| false);
        prop_assert_eq!(&a, &b, "non-deterministic");
        prop_assert_eq!(a.len(), size);
        let mut hosts: Vec<NodeId> = a.iter().map(|o| crush.host_of(*o).unwrap()).collect();
        hosts.sort();
        let before = hosts.len();
        hosts.dedup();
        prop_assert_eq!(hosts.len(), before, "replicas share a host");
    }

    /// Excluding OSDs never returns an excluded OSD and keeps determinism.
    #[test]
    fn exclusion_respected((crush, nodes, size) in arbitrary_map(), seq in 0u32..1024, dead in 0u32..16) {
        let osds = crush.osds();
        let dead = osds[dead as usize % osds.len()];
        let pg = PgId { pool: PoolId(0), seq };
        let picked = crush.select(pg, size, &|o| o == dead);
        prop_assert!(!picked.contains(&dead));
        let _ = nodes;
    }

    /// Object→PG→OSD is stable through the OsdMap layer, and every object
    /// maps somewhere valid.
    #[test]
    fn object_placement_total(name in "[a-z0-9._-]{1,40}", pgs in 1u32..512) {
        let mut m = OsdMap::new(CrushMap::uniform(4, 2));
        m.add_pool(PoolId(0), PoolSpec { pg_num: pgs, size: 2 }).unwrap();
        let obj = ObjectId::new(PoolId(0), name);
        let (pg, acting) = m.object_placement(&obj).unwrap();
        prop_assert!(pg.seq < pgs);
        prop_assert_eq!(acting.len(), 2);
        prop_assert!(acting.iter().all(|o| o.0 < 8));
        prop_assert_eq!(m.object_placement(&obj).unwrap(), (pg, acting));
    }

    /// Marking one OSD down only shrinks acting sets that contained it;
    /// every other PG's acting set is untouched (stability).
    #[test]
    fn down_is_local(seq in 0u32..256, victim in 0u32..8) {
        let mut m = OsdMap::new(CrushMap::uniform(4, 2));
        m.add_pool(PoolId(0), PoolSpec { pg_num: 256, size: 2 }).unwrap();
        let pg = PgId { pool: PoolId(0), seq };
        let before = m.pg_placement(pg).unwrap().acting;
        m.set_up(OsdId(victim), false);
        let after = m.pg_placement(pg).unwrap().acting;
        if before.contains(&OsdId(victim)) {
            let survivors: Vec<_> = before.iter().copied().filter(|o| *o != OsdId(victim)).collect();
            prop_assert_eq!(after, survivors);
        } else {
            prop_assert_eq!(after, before);
        }
    }
}
