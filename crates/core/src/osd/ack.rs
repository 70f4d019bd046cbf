//! Ordered ack delivery (§3.1, last paragraph).
//!
//! Local commits and replica acks can finish writes out of order. "We added
//! logic that sends client sequential acks if a client wants to receive
//! ordered acks as requested. Completion worker can sort these unordered
//! acks before sending them to clients." Ordering is per `(client, PG)`
//! lane in *arrival* order: an ack is released only after every
//! earlier-arrived op on its lane has been released.

use afc_common::lockdep::{classes, TrackedMutex};
use afc_common::{ClientId, PgId};
use std::collections::{BTreeMap, HashMap};

struct Lane<T> {
    next_assign: u64,
    next_release: u64,
    held: BTreeMap<u64, T>,
}

/// Per-(client, PG) ack sequencer over acks of type `T`.
pub struct OrderedAcker<T> {
    lanes: TrackedMutex<HashMap<(ClientId, PgId), Lane<T>>>,
}

impl<T> Default for OrderedAcker<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> OrderedAcker<T> {
    /// Create an empty sequencer.
    pub fn new() -> Self {
        OrderedAcker {
            lanes: TrackedMutex::new(&classes::ACK_LANES, HashMap::new()),
        }
    }

    /// Assign the next lane slot for an arriving op.
    pub fn assign(&self, client: ClientId, pg: PgId) -> u64 {
        let mut lanes = self.lanes.lock();
        let lane = lanes.entry((client, pg)).or_insert(Lane {
            next_assign: 0,
            next_release: 0,
            held: BTreeMap::new(),
        });
        let idx = lane.next_assign;
        lane.next_assign += 1;
        idx
    }

    /// Offer a completed ack. Returns every ack now releasable, in order
    /// (possibly empty if an earlier slot is still outstanding).
    pub fn release(&self, client: ClientId, pg: PgId, idx: u64, ack: T) -> Vec<T> {
        let mut lanes = self.lanes.lock();
        let Some(lane) = lanes.get_mut(&(client, pg)) else {
            return vec![ack];
        };
        lane.held.insert(idx, ack);
        let mut out = Vec::new();
        while let Some(entry) = lane.held.remove(&lane.next_release) {
            out.push(entry);
            lane.next_release += 1;
        }
        out
    }

    /// Acks currently held back (diagnostics).
    pub fn held(&self) -> usize {
        self.lanes.lock().values().map(|l| l.held.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::ClientReply;
    use afc_common::{OpId, PoolId};
    use afc_messenger::Addr;

    fn reply(n: u64) -> ClientReply {
        ClientReply {
            op_id: OpId(n),
            result: Ok(crate::messages::OpOutcome::Done),
        }
    }

    fn pg() -> PgId {
        PgId {
            pool: PoolId(0),
            seq: 0,
        }
    }

    const CLIENT: ClientId = ClientId(1);
    const TO: Addr = Addr::Client(ClientId(1));

    #[test]
    fn in_order_completion_releases_immediately() {
        let a = OrderedAcker::<(Addr, ClientReply)>::new();
        let i0 = a.assign(CLIENT, pg());
        let i1 = a.assign(CLIENT, pg());
        assert_eq!(a.release(CLIENT, pg(), i0, (TO, reply(0))).len(), 1);
        assert_eq!(a.release(CLIENT, pg(), i1, (TO, reply(1))).len(), 1);
        assert_eq!(a.held(), 0);
    }

    #[test]
    fn out_of_order_completion_is_resequenced() {
        let a = OrderedAcker::<(Addr, ClientReply)>::new();
        let i0 = a.assign(CLIENT, pg());
        let i1 = a.assign(CLIENT, pg());
        let i2 = a.assign(CLIENT, pg());
        // Completion worker finishes 2 and 1 before 0.
        assert!(a.release(CLIENT, pg(), i2, (TO, reply(2))).is_empty());
        assert!(a.release(CLIENT, pg(), i1, (TO, reply(1))).is_empty());
        assert_eq!(a.held(), 2);
        let burst = a.release(CLIENT, pg(), i0, (TO, reply(0)));
        let ids: Vec<u64> = burst.iter().map(|(_, r)| r.op_id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(a.held(), 0);
    }

    #[test]
    fn lanes_are_independent() {
        let a = OrderedAcker::<(Addr, ClientReply)>::new();
        let pg2 = PgId {
            pool: PoolId(0),
            seq: 1,
        };
        let x = a.assign(CLIENT, pg());
        let _y0 = a.assign(CLIENT, pg2);
        let y1 = a.assign(CLIENT, pg2);
        // pg2's later slot is blocked only by pg2's earlier slot, not pg()'s.
        assert!(a.release(CLIENT, pg2, y1, (TO, reply(11))).is_empty());
        assert_eq!(a.release(CLIENT, pg(), x, (TO, reply(0))).len(), 1);
    }

    #[test]
    fn unknown_lane_passes_through() {
        let a = OrderedAcker::<(Addr, ClientReply)>::new();
        assert_eq!(a.release(CLIENT, pg(), 0, (TO, reply(9))).len(), 1);
    }
}
