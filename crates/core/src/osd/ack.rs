//! A PG's reply order (§3.1, last paragraph: "sends client sequential
//! acks … Completion worker can sort these unordered acks").
//!
//! A client write or delete takes its PG's next reply slot at its order
//! point (`PgState::reply_slots`, under the PG lock, in `pg_seq` order).
//! Its reply, `Ok` or error, leaves once every earlier slot has replied or
//! been dropped, and no earlier than the reply before it; a client's ops
//! reach the order point in issue order, so its replies from a PG do too.
//! An op rejected before its order point takes no slot.

use std::collections::BTreeMap;
use std::time::Instant;

/// One PG's replies of type `T`, released in slot order. Slots are handed
/// out 0, 1, 2, … by the caller's order point; each is finished once.
pub struct ReplyOrder<T> {
    /// The slot released next.
    next: u64,
    /// Slots finished ahead of `next`: a reply and its departure, or
    /// `None` for a slot dropped unreplied.
    held: BTreeMap<u64, Option<(T, Instant)>>,
    /// The departure of the last reply released.
    last: Instant,
}

impl<T> Default for ReplyOrder<T> {
    fn default() -> Self {
        ReplyOrder {
            next: 0,
            held: BTreeMap::new(),
            last: Instant::now(),
        }
    }
}

impl<T> ReplyOrder<T> {
    /// Finish `slot` with a reply to leave at its departure bound, or with
    /// `None` if its op never replies, and `send` every reply that is now
    /// releasable, in slot order, each with its departure raised to the one
    /// released before it. `send` runs under the caller's guard, so the PG's
    /// replies are also sent in slot order.
    pub fn release(
        &mut self,
        slot: u64,
        reply: Option<(T, Instant)>,
        mut send: impl FnMut(T, Instant),
    ) {
        if slot != self.next {
            self.held.insert(slot, reply);
            return;
        }
        let mut entry = Some(reply);
        while let Some(finished) = entry {
            self.next += 1;
            if let Some((r, at)) = finished {
                self.last = self.last.max(at);
                send(r, self.last);
            }
            entry = self.held.remove(&self.next);
        }
    }

    /// Replies and dropped slots held behind a missing slot (diagnostics).
    pub fn held(&self) -> usize {
        self.held.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{ClientReply, OpOutcome};
    use afc_common::OpId;
    use std::time::Duration;

    fn reply(n: u64) -> ClientReply {
        ClientReply {
            op_id: OpId(n),
            result: Ok(OpOutcome::Done),
        }
    }

    /// Finish `slot` with op `n`'s reply (`None`: drop the slot); the op
    /// ids sent, in order.
    fn finish(o: &mut ReplyOrder<ClientReply>, slot: u64, n: Option<u64>) -> Vec<u64> {
        let mut sent = Vec::new();
        let at = Instant::now();
        o.release(slot, n.map(|n| (reply(n), at)), |r, _| sent.push(r.op_id.0));
        sent
    }

    #[test]
    fn in_order_completion_releases_immediately() {
        let mut o = ReplyOrder::default();
        assert_eq!(finish(&mut o, 0, Some(0)), [0]);
        assert_eq!(finish(&mut o, 1, Some(1)), [1]);
        assert_eq!(o.held(), 0);
    }

    #[test]
    fn out_of_order_completion_is_resequenced() {
        let mut o = ReplyOrder::default();
        // Slots 2 and 1 finish before 0.
        assert!(finish(&mut o, 2, Some(2)).is_empty());
        assert!(finish(&mut o, 1, Some(1)).is_empty());
        assert_eq!(o.held(), 2);
        assert_eq!(finish(&mut o, 0, Some(0)), [0, 1, 2]);
        assert_eq!(o.held(), 0);
    }

    /// Every PG keeps its own order: a PG's later slot waits only for that
    /// PG's earlier ones.
    #[test]
    fn lanes_are_independent() {
        let (mut a, mut b) = (ReplyOrder::default(), ReplyOrder::default());
        assert!(finish(&mut b, 1, Some(11)).is_empty());
        assert_eq!(finish(&mut a, 0, Some(0)), [0]);
        assert_eq!(finish(&mut b, 0, Some(10)), [10, 11]);
    }

    /// A slot whose op never replies releases what waits behind it, and
    /// nothing is left held.
    #[test]
    fn drained_lanes_are_dropped() {
        let mut o = ReplyOrder::default();
        assert!(finish(&mut o, 1, Some(1)).is_empty());
        assert!(finish(&mut o, 3, Some(3)).is_empty());
        assert!(finish(&mut o, 2, None).is_empty());
        assert_eq!(finish(&mut o, 0, None), [1, 3]);
        assert_eq!(o.held(), 0);
        assert_eq!(finish(&mut o, 4, Some(4)), [4]);
    }

    /// A fresh PG's first reply passes through at its own departure.
    #[test]
    fn unknown_lane_passes_through() {
        let mut o = ReplyOrder::default();
        let at = Instant::now() + Duration::from_millis(5);
        let mut sent = Vec::new();
        o.release(0, Some((reply(9), at)), |r, at| sent.push((r.op_id.0, at)));
        assert_eq!(sent, [(9, at)]);
    }

    /// A reply never departs before the one released ahead of it.
    #[test]
    fn a_reply_departs_no_earlier_than_the_one_before() {
        let mut o = ReplyOrder::default();
        let t0 = Instant::now();
        let late = t0 + Duration::from_millis(5);
        let mut sent = Vec::new();
        let mut send = |r: ClientReply, at| sent.push((r.op_id.0, at));
        o.release(1, Some((reply(1), t0)), &mut send);
        o.release(0, Some((reply(0), late)), &mut send);
        o.release(2, Some((reply(2), t0)), &mut send);
        assert_eq!(sent, [(0, late), (1, late), (2, late)]);
    }
}
