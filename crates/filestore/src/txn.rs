//! Filestore transactions (Figure 7).
//!
//! A write request reaches the filestore as a transaction bundling the data
//! write with its metadata: `OP_WRITE` (file data), `OP_SETATTRS` (object
//! metadata as xattrs), `OP_OMAP_SETKEYS` (omap + PG log into the KV DB),
//! and — in the community path — `OP_SETALLOCHINT`. The light-weight
//! transaction **deduplicates** redundant ops before queuing
//! ([`Transaction::dedup`]).

use afc_common::{AfcError, Result};
use bytes::Bytes;

/// One operation within a transaction.
#[derive(Debug, Clone)]
pub enum TxOp {
    /// Ensure the object's backing file exists.
    Touch {
        /// Object name.
        object: String,
    },
    /// Write data into the object.
    Write {
        /// Object name.
        object: String,
        /// Byte offset.
        offset: u64,
        /// Payload.
        data: Bytes,
    },
    /// Truncate the object.
    Truncate {
        /// Object name.
        object: String,
        /// New size.
        size: u64,
    },
    /// Remove the object.
    Remove {
        /// Object name.
        object: String,
    },
    /// Set object xattrs (one syscall each in the community path).
    SetAttrs {
        /// Object name.
        object: String,
        /// Attribute name/value pairs.
        attrs: Vec<(String, Bytes)>,
    },
    /// Insert omap keys (PG log, object omap) into the KV DB.
    OmapSetKeys {
        /// Owning object (namespace prefix in the KV DB).
        object: String,
        /// Key/value pairs.
        keys: Vec<(Bytes, Bytes)>,
    },
    /// Remove omap keys.
    OmapRmKeys {
        /// Owning object.
        object: String,
        /// Keys to delete.
        keys: Vec<Bytes>,
    },
    /// `set-alloc-hint` (`fallocate`): beneficial for sequential streams,
    /// useless for random small writes — the LWT drops it there (§3.4).
    SetAllocHint {
        /// Object name.
        object: String,
    },
}

impl TxOp {
    /// The object this op addresses.
    pub fn object(&self) -> &str {
        match self {
            TxOp::Touch { object }
            | TxOp::Write { object, .. }
            | TxOp::Truncate { object, .. }
            | TxOp::Remove { object }
            | TxOp::SetAttrs { object, .. }
            | TxOp::OmapSetKeys { object, .. }
            | TxOp::OmapRmKeys { object, .. }
            | TxOp::SetAllocHint { object } => object,
        }
    }
}

/// An atomic group of filestore operations.
#[derive(Debug, Clone, Default)]
pub struct Transaction {
    ops: Vec<TxOp>,
}

impl Transaction {
    /// Create an empty transaction.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an op (builder style).
    pub fn push(&mut self, op: TxOp) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// The ops in order.
    pub fn ops(&self) -> &[TxOp] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the transaction is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Serialized size on the journal (header + op payloads).
    pub fn encoded_bytes(&self) -> u64 {
        let mut n = 32u64;
        for op in &self.ops {
            n += 16 + op.object().len() as u64;
            n += match op {
                TxOp::Write { data, .. } => data.len() as u64 + 16,
                TxOp::SetAttrs { attrs, .. } => attrs
                    .iter()
                    .map(|(k, v)| k.len() as u64 + v.len() as u64 + 8)
                    .sum::<u64>(),
                TxOp::OmapSetKeys { keys, .. } => keys
                    .iter()
                    .map(|(k, v)| k.len() as u64 + v.len() as u64 + 8)
                    .sum::<u64>(),
                TxOp::OmapRmKeys { keys, .. } => {
                    keys.iter().map(|k| k.len() as u64 + 8).sum::<u64>()
                }
                TxOp::Truncate { .. } => 8,
                TxOp::Touch { .. } | TxOp::Remove { .. } | TxOp::SetAllocHint { .. } => 0,
            };
        }
        n
    }

    /// Bytes of object data written by this transaction.
    pub fn data_bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                TxOp::Write { data, .. } => data.len() as u64,
                _ => 0,
            })
            .sum()
    }

    /// Serialize for journaling. The wire format is self-delimiting
    /// (tag + length-prefixed fields) so [`Transaction::decode`] can
    /// reconstruct the exact op list during crash replay.
    pub fn encode(&self) -> Bytes {
        let mut buf = Vec::with_capacity(self.encoded_bytes() as usize);
        put_u32(&mut buf, self.ops.len() as u32);
        for op in &self.ops {
            match op {
                TxOp::Touch { object } => {
                    buf.extend_from_slice(&[0]);
                    put_str(&mut buf, object);
                }
                TxOp::Write {
                    object,
                    offset,
                    data,
                } => {
                    buf.extend_from_slice(&[1]);
                    put_str(&mut buf, object);
                    buf.extend_from_slice(&offset.to_le_bytes());
                    put_bytes(&mut buf, data);
                }
                TxOp::Truncate { object, size } => {
                    buf.extend_from_slice(&[2]);
                    put_str(&mut buf, object);
                    buf.extend_from_slice(&size.to_le_bytes());
                }
                TxOp::Remove { object } => {
                    buf.extend_from_slice(&[3]);
                    put_str(&mut buf, object);
                }
                TxOp::SetAttrs { object, attrs } => {
                    buf.extend_from_slice(&[4]);
                    put_str(&mut buf, object);
                    put_u32(&mut buf, attrs.len() as u32);
                    for (k, v) in attrs {
                        put_str(&mut buf, k);
                        put_bytes(&mut buf, v);
                    }
                }
                TxOp::OmapSetKeys { object, keys } => {
                    buf.extend_from_slice(&[5]);
                    put_str(&mut buf, object);
                    put_u32(&mut buf, keys.len() as u32);
                    for (k, v) in keys {
                        put_bytes(&mut buf, k);
                        put_bytes(&mut buf, v);
                    }
                }
                TxOp::OmapRmKeys { object, keys } => {
                    buf.extend_from_slice(&[6]);
                    put_str(&mut buf, object);
                    put_u32(&mut buf, keys.len() as u32);
                    for k in keys {
                        put_bytes(&mut buf, k);
                    }
                }
                TxOp::SetAllocHint { object } => {
                    buf.extend_from_slice(&[7]);
                    put_str(&mut buf, object);
                }
            }
        }
        Bytes::from(buf)
    }

    /// Decode a serialized transaction (journal replay). Fails with
    /// [`AfcError::Corruption`] on any structural damage.
    pub fn decode(buf: &[u8]) -> Result<Transaction> {
        let mut cur = Cursor {
            buf,
            shared: None,
            pos: 0,
        };
        Self::decode_from(&mut cur)
    }

    /// Decode from a refcounted buffer, slicing each `Bytes` field (write
    /// payloads, omap keys/values, attr values) out of `buf` instead of
    /// copying it — the zero-copy replay path: a decoded write shares its
    /// data with the journal entry that carried it.
    pub fn decode_shared(buf: &Bytes) -> Result<Transaction> {
        let mut cur = Cursor {
            buf,
            shared: Some(buf),
            pos: 0,
        };
        Self::decode_from(&mut cur)
    }

    fn decode_from(cur: &mut Cursor) -> Result<Transaction> {
        let buf = cur.buf;
        let n = cur.u32()? as usize;
        let mut ops = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let tag = cur.u8()?;
            let object = cur.string()?;
            let op = match tag {
                0 => TxOp::Touch { object },
                1 => TxOp::Write {
                    object,
                    offset: cur.u64()?,
                    data: cur.bytes()?,
                },
                2 => TxOp::Truncate {
                    object,
                    size: cur.u64()?,
                },
                3 => TxOp::Remove { object },
                4 => {
                    let n = cur.u32()? as usize;
                    let mut attrs = Vec::with_capacity(n.min(1024));
                    for _ in 0..n {
                        attrs.push((cur.string()?, cur.bytes()?));
                    }
                    TxOp::SetAttrs { object, attrs }
                }
                5 => {
                    let n = cur.u32()? as usize;
                    let mut keys = Vec::with_capacity(n.min(1024));
                    for _ in 0..n {
                        keys.push((cur.bytes()?, cur.bytes()?));
                    }
                    TxOp::OmapSetKeys { object, keys }
                }
                6 => {
                    let n = cur.u32()? as usize;
                    let mut keys = Vec::with_capacity(n.min(1024));
                    for _ in 0..n {
                        keys.push(cur.bytes()?);
                    }
                    TxOp::OmapRmKeys { object, keys }
                }
                7 => TxOp::SetAllocHint { object },
                t => {
                    return Err(AfcError::Corruption(format!("unknown txn op tag {t}")));
                }
            };
            ops.push(op);
        }
        if cur.pos != buf.len() {
            return Err(AfcError::Corruption(format!(
                "trailing garbage in txn encoding: {} of {} bytes consumed",
                cur.pos,
                buf.len()
            )));
        }
        Ok(Transaction { ops })
    }

    /// The light-weight transaction's op minimization (§3.4: "The redundancy
    /// is removed and operations in this transaction is minimized"):
    /// duplicate `Touch`/`SetAllocHint` per object collapse to one, repeated
    /// `SetAttrs` on the same object merge (last value wins per attr), and
    /// consecutive `OmapSetKeys` on the same object concatenate so they
    /// reach the KV DB as one batch insert.
    #[must_use]
    pub fn dedup(self) -> Transaction {
        let mut out: Vec<TxOp> = Vec::with_capacity(self.ops.len());
        let mut touched: Vec<String> = Vec::new();
        let mut hinted: Vec<String> = Vec::new();
        for op in self.ops {
            match op {
                TxOp::Touch { object } => {
                    if !touched.contains(&object) {
                        touched.push(object.clone());
                        out.push(TxOp::Touch { object });
                    }
                }
                TxOp::SetAllocHint { object } => {
                    if !hinted.contains(&object) {
                        hinted.push(object.clone());
                        out.push(TxOp::SetAllocHint { object });
                    }
                }
                TxOp::SetAttrs { object, attrs } => {
                    if let Some(TxOp::SetAttrs {
                        object: prev_obj,
                        attrs: prev,
                    }) = out
                        .iter_mut()
                        .rev()
                        .find(|o| matches!(o, TxOp::SetAttrs { object: po, .. } if *po == object))
                    {
                        debug_assert_eq!(*prev_obj, object);
                        for (k, v) in attrs {
                            if let Some(e) = prev.iter_mut().find(|(pk, _)| *pk == k) {
                                e.1 = v;
                            } else {
                                prev.push((k, v));
                            }
                        }
                    } else {
                        out.push(TxOp::SetAttrs { object, attrs });
                    }
                }
                TxOp::OmapSetKeys { object, keys } => {
                    if let Some(TxOp::OmapSetKeys {
                        object: po,
                        keys: prev,
                    }) = out.last_mut()
                    {
                        if *po == object {
                            prev.extend(keys);
                            continue;
                        }
                    }
                    out.push(TxOp::OmapSetKeys { object, keys });
                }
                other => out.push(other),
            }
        }
        Transaction { ops: out }
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

struct Cursor<'a> {
    buf: &'a [u8],
    /// When decoding from a refcounted buffer, `bytes()` slices it
    /// (O(1), shared ownership) instead of copying.
    shared: Option<&'a Bytes>,
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| AfcError::Corruption("truncated txn encoding".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut a = [0; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    fn bytes(&mut self) -> Result<Bytes> {
        let n = self.u32()? as usize;
        if let Some(shared) = self.shared {
            let start = self.pos;
            self.take(n)?; // bounds check + advance
            return Ok(shared.slice(start..start + n));
        }
        Ok(Bytes::copy_from_slice(self.take(n)?))
    }

    fn string(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| AfcError::Corruption("non-UTF-8 object name in txn".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(obj: &str, n: usize) -> TxOp {
        TxOp::Write {
            object: obj.into(),
            offset: 0,
            data: Bytes::from(vec![0u8; n]),
        }
    }

    #[test]
    fn builder_and_sizes() {
        let mut t = Transaction::new();
        t.push(TxOp::Touch { object: "o".into() });
        t.push(w("o", 4096));
        t.push(TxOp::SetAttrs {
            object: "o".into(),
            attrs: vec![("_".into(), Bytes::from_static(b"m"))],
        });
        t.push(TxOp::OmapSetKeys {
            object: "o".into(),
            keys: vec![(Bytes::from_static(b"k"), Bytes::from_static(b"v"))],
        });
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(t.data_bytes(), 4096);
        assert!(t.encoded_bytes() > 4096);
    }

    #[test]
    fn dedup_collapses_touch_and_hint() {
        let mut t = Transaction::new();
        for _ in 0..3 {
            t.push(TxOp::Touch { object: "o".into() });
            t.push(TxOp::SetAllocHint { object: "o".into() });
        }
        t.push(TxOp::Touch {
            object: "other".into(),
        });
        let d = t.dedup();
        let touches = d
            .ops()
            .iter()
            .filter(|o| matches!(o, TxOp::Touch { .. }))
            .count();
        let hints = d
            .ops()
            .iter()
            .filter(|o| matches!(o, TxOp::SetAllocHint { .. }))
            .count();
        assert_eq!(touches, 2);
        assert_eq!(hints, 1);
    }

    #[test]
    fn dedup_merges_setattrs_last_wins() {
        let mut t = Transaction::new();
        t.push(TxOp::SetAttrs {
            object: "o".into(),
            attrs: vec![
                ("a".into(), Bytes::from_static(b"1")),
                ("b".into(), Bytes::from_static(b"2")),
            ],
        });
        t.push(TxOp::SetAttrs {
            object: "o".into(),
            attrs: vec![("a".into(), Bytes::from_static(b"9"))],
        });
        let d = t.dedup();
        let attrs: Vec<_> = d
            .ops()
            .iter()
            .filter_map(|o| match o {
                TxOp::SetAttrs { attrs, .. } => Some(attrs.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(attrs.len(), 1);
        let merged = &attrs[0];
        assert_eq!(
            merged.iter().find(|(k, _)| k == "a").unwrap().1.as_ref(),
            b"9"
        );
        assert_eq!(
            merged.iter().find(|(k, _)| k == "b").unwrap().1.as_ref(),
            b"2"
        );
    }

    #[test]
    fn dedup_concatenates_adjacent_omap() {
        let mut t = Transaction::new();
        t.push(TxOp::OmapSetKeys {
            object: "o".into(),
            keys: vec![(Bytes::from_static(b"k1"), Bytes::from_static(b"v1"))],
        });
        t.push(TxOp::OmapSetKeys {
            object: "o".into(),
            keys: vec![(Bytes::from_static(b"k2"), Bytes::from_static(b"v2"))],
        });
        let d = t.dedup();
        assert_eq!(d.len(), 1);
        match &d.ops()[0] {
            TxOp::OmapSetKeys { keys, .. } => assert_eq!(keys.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dedup_preserves_write_order() {
        let mut t = Transaction::new();
        t.push(w("o", 10));
        t.push(w("o", 20));
        let d = t.dedup();
        assert_eq!(d.len(), 2);
        match (&d.ops()[0], &d.ops()[1]) {
            (TxOp::Write { data: a, .. }, TxOp::Write { data: b, .. }) => {
                assert_eq!((a.len(), b.len()), (10, 20));
            }
            _ => panic!("writes reordered"),
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut t = Transaction::new();
        t.push(TxOp::Touch { object: "o".into() });
        t.push(TxOp::SetAllocHint { object: "o".into() });
        t.push(TxOp::Write {
            object: "o".into(),
            offset: 512,
            data: Bytes::from(vec![9u8; 1000]),
        });
        t.push(TxOp::Truncate {
            object: "o".into(),
            size: 700,
        });
        t.push(TxOp::SetAttrs {
            object: "o".into(),
            attrs: vec![("snapset".into(), Bytes::from_static(b"{}"))],
        });
        t.push(TxOp::OmapSetKeys {
            object: "pgmeta_3".into(),
            keys: vec![(Bytes::from_static(b"pglog.1"), Bytes::from(vec![1u8; 64]))],
        });
        t.push(TxOp::OmapRmKeys {
            object: "pgmeta_3".into(),
            keys: vec![Bytes::from_static(b"pglog.0")],
        });
        t.push(TxOp::Remove {
            object: "stale".into(),
        });
        let enc = t.encode();
        let d = Transaction::decode(&enc).unwrap();
        assert_eq!(d.len(), t.len());
        assert_eq!(format!("{:?}", d.ops()), format!("{:?}", t.ops()));
    }

    #[test]
    fn decode_shared_is_zero_copy_and_identical() {
        let mut t = Transaction::new();
        t.push(TxOp::Touch { object: "o".into() });
        t.push(TxOp::Write {
            object: "o".into(),
            offset: 64,
            data: Bytes::from(vec![7u8; 4096]),
        });
        t.push(TxOp::OmapSetKeys {
            object: "pgmeta_1".into(),
            keys: vec![(Bytes::from_static(b"k"), Bytes::from_static(b"v"))],
        });
        let enc = t.encode();
        let copied = Transaction::decode(&enc).unwrap();
        let shared = Transaction::decode_shared(&enc).unwrap();
        assert_eq!(format!("{:?}", shared.ops()), format!("{:?}", copied.ops()));
        // The write payload must alias the encoding, not a fresh allocation.
        let data = shared
            .ops()
            .iter()
            .find_map(|o| match o {
                TxOp::Write { data, .. } => Some(data),
                _ => None,
            })
            .unwrap();
        let enc_range = enc.as_ptr() as usize..enc.as_ptr() as usize + enc.len();
        assert!(enc_range.contains(&(data.as_ptr() as usize)));
        // Damage is rejected identically on both paths.
        let torn = enc.slice(..enc.len() - 3);
        assert!(Transaction::decode_shared(&torn).is_err());
    }

    #[test]
    fn decode_rejects_damage() {
        let mut t = Transaction::new();
        t.push(w("obj", 100));
        let enc = t.encode();
        // Truncation, trailing garbage, and a bad tag all fail loudly.
        assert!(Transaction::decode(&enc[..enc.len() - 3]).is_err());
        let mut garbage = enc.to_vec();
        garbage.push(0xff);
        assert!(Transaction::decode(&garbage).is_err());
        let mut bad_tag = enc.to_vec();
        bad_tag[4] = 0x7f;
        assert!(Transaction::decode(&bad_tag).is_err());
        // Empty txn round-trips.
        let e = Transaction::new().encode();
        assert_eq!(Transaction::decode(&e).unwrap().len(), 0);
    }

    #[test]
    fn op_object_accessor() {
        assert_eq!(w("abc", 1).object(), "abc");
        assert_eq!(TxOp::Remove { object: "x".into() }.object(), "x");
    }
}
