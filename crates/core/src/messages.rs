//! Wire messages between clients, primaries and replicas.

use crate::qos::QosTag;
use afc_common::{AfcError, ClientId, Epoch, ObjectId, OpId, OsdId, PgId};
use bytes::Bytes;

/// Object-level operation requested by a client.
#[derive(Debug, Clone)]
pub enum ObjectOp {
    /// Write `data` at `offset`.
    Write {
        /// Byte offset within the object.
        offset: u64,
        /// Payload.
        data: Bytes,
    },
    /// Read `len` bytes at `offset`.
    Read {
        /// Byte offset within the object.
        offset: u64,
        /// Length.
        len: u32,
    },
    /// Fetch object size.
    Stat,
    /// Delete the object.
    Delete,
}

impl ObjectOp {
    /// Whether this op mutates state (and therefore journals/replicates).
    pub fn is_write(&self) -> bool {
        matches!(self, ObjectOp::Write { .. } | ObjectOp::Delete)
    }

    /// Approximate wire size of the request carrying this op.
    pub fn wire_bytes(&self) -> u32 {
        match self {
            ObjectOp::Write { data, .. } => 256 + data.len() as u32,
            _ => 256,
        }
    }
}

/// Result payload of a completed op.
#[derive(Debug, Clone)]
pub enum OpOutcome {
    /// Write/delete acknowledged (journal-durable everywhere).
    Done,
    /// Read data.
    Data(Bytes),
    /// Object size.
    Size(u64),
}

/// Client request to the primary OSD (`MOSDOp`).
#[derive(Debug, Clone)]
pub struct ClientOp {
    /// Issuing client.
    pub client: ClientId,
    /// Per-client op id.
    pub op_id: OpId,
    /// Target placement group (client computes it via CRUSH).
    pub pg: PgId,
    /// Target object.
    pub object: ObjectId,
    /// The operation.
    pub op: ObjectOp,
    /// Map epoch the client computed the placement under. A primary that
    /// has moved on rejects with `WrongEpoch`/`NotPrimary` so the client
    /// refreshes its snapshot instead of hammering a stale target.
    pub epoch: Epoch,
    /// QoS identity: which volume this op bills to and that volume's
    /// min/max/burst contract. Untagged clients send
    /// [`QosTag::best_effort`] (volume 0, no floor, no ceiling).
    pub qos: QosTag,
}

/// Primary's reply to the client (`MOSDOpReply`).
#[derive(Debug, Clone)]
pub struct ClientReply {
    /// Echoed op id.
    pub op_id: OpId,
    /// Result.
    pub result: Result<OpOutcome, AfcError>,
}

/// Replication sub-op, primary → replica (`MOSDRepOp`).
#[derive(Debug, Clone)]
pub struct RepOp {
    /// Correlation id unique on the primary.
    pub rep_id: u64,
    /// Placement group.
    pub pg: PgId,
    /// Target object.
    pub object: ObjectId,
    /// The (write) operation to mirror.
    pub op: ObjectOp,
    /// PG log sequence assigned by the primary.
    pub pg_seq: u64,
    /// `pg_seq` of the `Replicate` sent this replica for this PG just
    /// before this one, which the replica must take first (`None`: none).
    pub prev: Option<u64>,
}

/// Replica's commit ack, replica → primary (`MOSDRepOpReply`). Also acks
/// recovery pushes (the `rep_id` then carries a push id from the same
/// counter space).
#[derive(Debug, Clone)]
pub struct RepOpReply {
    /// Correlation id.
    pub rep_id: u64,
    /// Acking replica.
    pub from: OsdId,
}

/// Heartbeat ping/pong between OSDs (`MOSDPing`).
#[derive(Debug, Clone)]
pub struct PingMsg {
    /// Sender.
    pub from: OsdId,
    /// Sender's map epoch (peers use it to notice they are stale).
    pub epoch: Epoch,
}

/// Peering info request, primary → peer (`GetInfo`).
#[derive(Debug, Clone)]
pub struct PgQueryMsg {
    /// Placement group being peered.
    pub pg: PgId,
    /// Epoch tagging the peering round; echoed in the reply so stale
    /// answers from older rounds are ignored.
    pub epoch: Epoch,
    /// Querying (acting-primary) OSD.
    pub from: OsdId,
}

/// Peering info reply, peer → primary (`Notify`/`Info`).
#[derive(Debug, Clone)]
pub struct PgInfoMsg {
    /// Placement group.
    pub pg: PgId,
    /// Echo of the round epoch from the query.
    pub epoch: Epoch,
    /// Replying OSD.
    pub from: OsdId,
    /// Highest PG-log sequence the peer has committed.
    pub last_update: u64,
}

/// Recovery push, primary → peer (`MOSDPGPush`): the authoritative full
/// copy of one object (or its deletion when `data` is `None`).
#[derive(Debug, Clone)]
pub struct PushOp {
    /// Correlation id unique on the pushing primary.
    pub push_id: u64,
    /// Placement group.
    pub pg: PgId,
    /// Object being recovered.
    pub object: ObjectId,
    /// Full object bytes, or `None` to propagate a deletion.
    pub data: Option<Bytes>,
    /// PG log sequence covered by this push.
    pub pg_seq: u64,
}

/// Everything that travels over the fabric.
#[derive(Debug, Clone)]
pub enum OsdMsg {
    /// Client → primary.
    Request(ClientOp),
    /// Primary → client.
    Reply(ClientReply),
    /// Primary → replica.
    Replicate(RepOp),
    /// Replica → primary (write sub-ops and recovery pushes).
    RepAck(RepOpReply),
    /// OSD → OSD heartbeat.
    Ping(PingMsg),
    /// Heartbeat response.
    Pong(PingMsg),
    /// Peering: acting primary asks a peer for its PG info.
    PgQuery(PgQueryMsg),
    /// Peering: peer answers with its last committed PG-log seq.
    PgInfo(PgInfoMsg),
    /// Recovery/backfill object push.
    Push(PushOp),
}

impl OsdMsg {
    /// Wire size estimate used for Nagle decisions and byte counters.
    pub fn wire_bytes(&self) -> u32 {
        match self {
            OsdMsg::Request(r) => r.op.wire_bytes(),
            OsdMsg::Reply(r) => match &r.result {
                Ok(OpOutcome::Data(d)) => 128 + d.len() as u32,
                _ => 128,
            },
            OsdMsg::Replicate(r) => r.op.wire_bytes() + 64,
            OsdMsg::RepAck(_) => 96,
            OsdMsg::Ping(_) | OsdMsg::Pong(_) => 64,
            OsdMsg::PgQuery(_) => 96,
            OsdMsg::PgInfo(_) => 128,
            OsdMsg::Push(p) => 256 + p.data.as_ref().map_or(0, |d| d.len() as u32),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afc_common::PoolId;

    #[test]
    fn write_classification() {
        assert!(ObjectOp::Write {
            offset: 0,
            data: Bytes::new()
        }
        .is_write());
        assert!(ObjectOp::Delete.is_write());
        assert!(!ObjectOp::Read { offset: 0, len: 1 }.is_write());
        assert!(!ObjectOp::Stat.is_write());
    }

    #[test]
    fn wire_bytes_scale_with_payload() {
        let small = ObjectOp::Write {
            offset: 0,
            data: Bytes::from(vec![0; 512]),
        };
        let large = ObjectOp::Write {
            offset: 0,
            data: Bytes::from(vec![0; 65536]),
        };
        assert!(large.wire_bytes() > small.wire_bytes());
        let read = ObjectOp::Read {
            offset: 0,
            len: 4096,
        };
        assert_eq!(read.wire_bytes(), 256);
    }

    #[test]
    fn reply_wire_bytes_include_data() {
        let r = OsdMsg::Reply(ClientReply {
            op_id: OpId(1),
            result: Ok(OpOutcome::Data(Bytes::from(vec![0; 4096]))),
        });
        assert!(r.wire_bytes() > 4096);
        let ack = OsdMsg::RepAck(RepOpReply {
            rep_id: 1,
            from: OsdId(0),
        });
        assert_eq!(ack.wire_bytes(), 96);
    }

    #[test]
    fn client_op_construction() {
        let op = ClientOp {
            client: ClientId(1),
            op_id: OpId(9),
            pg: PgId {
                pool: PoolId(0),
                seq: 3,
            },
            object: ObjectId::new(PoolId(0), "o"),
            op: ObjectOp::Stat,
            epoch: Epoch(1),
            qos: QosTag::best_effort(),
        };
        assert_eq!(op.op_id, OpId(9));
        assert!(!op.op.is_write());
    }

    #[test]
    fn recovery_wire_bytes() {
        let ping = OsdMsg::Ping(PingMsg {
            from: OsdId(0),
            epoch: Epoch(3),
        });
        assert_eq!(ping.wire_bytes(), 64);
        let push = OsdMsg::Push(PushOp {
            push_id: 1,
            pg: PgId {
                pool: PoolId(0),
                seq: 0,
            },
            object: ObjectId::new(PoolId(0), "o"),
            data: Some(Bytes::from(vec![0; 4096])),
            pg_seq: 9,
        });
        assert!(push.wire_bytes() > 4096);
        let del = OsdMsg::Push(PushOp {
            push_id: 2,
            pg: PgId {
                pool: PoolId(0),
                seq: 0,
            },
            object: ObjectId::new(PoolId(0), "o"),
            data: None,
            pg_seq: 10,
        });
        assert_eq!(del.wire_bytes(), 256);
    }
}
