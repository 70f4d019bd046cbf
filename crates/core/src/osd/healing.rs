//! Self-healing: heartbeat failure detection, epoch-triggered peering, and
//! throttled recovery/backfill pushes (the degraded-write ledgers they
//! drain are filled by the write path through `record_degraded_write` /
//! `defer_to_recovery`).

use super::pg::{PeeringRound, Pg, PgHealth, PgState};
use super::write::{install_txn, mutation_txn};
use super::OsdInner;
use crate::messages::{ObjectOp, OsdMsg, PgInfoMsg, PgQueryMsg, PingMsg, PushOp, RepOpReply};
use crate::monitor::Monitor;
use afc_common::lockdep::{classes, TrackedMutex};
use afc_common::metrics::{Counter, Gauge, Metrics};
use afc_common::{AfcError, ObjectId, OsdId, PgId};
use afc_crush::{OsdMap, Placement};
use afc_messenger::Addr;
use bytes::Bytes;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Max concurrent recovery pushes per PG — the throttle keeping backfill
/// traffic from starving client I/O (Ceph's `osd_recovery_max_active`).
const RECOVERY_MAX_INFLIGHT: usize = 16;

/// Primary-side record of one outstanding recovery `Push`, kept until its
/// ack (a `RepAck` carrying the push id) arrives. A push whose ack is
/// overdue is not retransmitted verbatim — the object is requeued into
/// `peer_missing` so the next pump pass pushes *fresh* data (a verbatim
/// resend could overwrite a newer push on the peer).
pub(super) struct PushWait {
    pg: Arc<Pg>,
    peer: OsdId,
    object: String,
    gen: u64,
    sent: Instant,
}

#[derive(Default)]
struct HealCounters {
    hb_pings: Counter,
    hb_reports: Counter,
    peering_rounds: Counter,
    peering_completed: Counter,
    recovery_pushes: Counter,
    recovery_push_acks: Counter,
    recovery_requeues: Counter,
    pgs_degraded: Gauge,
    pgs_recovering: Gauge,
    pgs_peering: Gauge,
}

pub(super) struct Healing {
    /// Outstanding recovery pushes by push id.
    pub(super) push_waits: TrackedMutex<HashMap<u64, PushWait>>,
    /// Last heartbeat heard from each up peer (ping or pong).
    pub(super) hb_peers: TrackedMutex<HashMap<OsdId, Instant>>,
    c: HealCounters,
}

impl Healing {
    pub(super) fn new() -> Self {
        Healing {
            push_waits: TrackedMutex::new(&classes::PUSH_WAITS, HashMap::new()),
            hb_peers: TrackedMutex::new(&classes::HB_PEERS, HashMap::new()),
            c: HealCounters::default(),
        }
    }

    pub(super) fn register(&self, m: &Metrics, osd: &str) {
        let c = &self.c;
        m.register_counter(format!("{osd}.hb.pings"), &c.hb_pings);
        m.register_counter(format!("{osd}.hb.reports"), &c.hb_reports);
        m.register_counter(format!("{osd}.peering.rounds"), &c.peering_rounds);
        m.register_counter(format!("{osd}.peering.completed"), &c.peering_completed);
        m.register_gauge(format!("{osd}.peering.pgs_peering"), &c.pgs_peering);
        m.register_counter(format!("{osd}.recovery.pushes"), &c.recovery_pushes);
        m.register_counter(format!("{osd}.recovery.push_acks"), &c.recovery_push_acks);
        m.register_counter(format!("{osd}.recovery.requeues"), &c.recovery_requeues);
        m.register_gauge(format!("{osd}.recovery.pgs_degraded"), &c.pgs_degraded);
        m.register_gauge(format!("{osd}.recovery.pgs_recovering"), &c.pgs_recovering);
    }
}

/// Heartbeat / self-healing ticker (opt-in): pings peers, reports silent
/// ones to the monitor, and pumps the peering and recovery state machines
/// on every map-epoch change.
pub(super) fn heartbeat_loop(inner: Arc<OsdInner>) {
    let interval = Duration::from_millis(inner.tuning.heartbeat_interval_ms);
    while !inner.shutdown.load(Ordering::Relaxed) {
        std::thread::sleep(interval);
        if !inner.paused.load(Ordering::Relaxed) && !inner.shutdown.load(Ordering::Relaxed) {
            inner.heartbeat_tick();
        }
    }
}

/// Hand a picked push back to the pump (PG lock held): unless a newer
/// generation superseded it, the object leaves `recovering` for
/// `peer_missing`, so the next pump pass reads and pushes fresh bytes.
fn requeue_push(st: &mut PgState, peer: OsdId, object: String, gen: u64) {
    let key = (peer, object);
    if st.recovering.get(&key) == Some(&gen) {
        st.recovering.remove(&key);
        st.peer_missing.entry(peer).or_default().insert(key.1);
    }
}

impl OsdInner {
    /// Record a heartbeat (ping or pong) from `peer`.
    pub(super) fn note_peer_alive(&self, peer: OsdId) {
        self.heal.hb_peers.lock().insert(peer, Instant::now());
    }

    pub(super) fn handle_ping(&self, from: Addr, ping: PingMsg) {
        self.note_peer_alive(ping.from);
        let epoch = self.map.read().epoch();
        self.send(
            from,
            OsdMsg::Pong(PingMsg {
                from: self.id,
                epoch,
            }),
        );
    }

    /// One heartbeat interval: reassert liveness, ping peers, report the
    /// silent ones, then pump peering/recovery against the current map.
    /// Runs on the dedicated `-hb` thread; never called on the I/O path.
    fn heartbeat_tick(self: &Arc<Self>) {
        let Some(mon) = self.monitor.clone() else {
            return;
        };
        // Rejoin: if the map thinks we are down (we were paused, or a peer
        // falsely accused us), reassert liveness — epoch bump, peers re-peer.
        {
            let map = self.map.read().clone();
            if !map.osd_status(self.id).up {
                mon.report_alive(self.id);
            }
        }
        let map = self.map.read().clone();
        let peers: Vec<OsdId> = map
            .crush()
            .osds()
            .into_iter()
            .filter(|&o| o != self.id && map.osd_status(o).up)
            .collect();
        // Suspicion sweep before this round's pings: a peer heard from
        // within the grace window is healthy; one first seen now starts
        // its window fresh (no instant accusations after our own resume).
        let grace = Duration::from_millis(self.tuning.heartbeat_grace_ms.max(1));
        let now = Instant::now();
        let mut suspects: Vec<OsdId> = Vec::new();
        {
            let mut hb = self.heal.hb_peers.lock();
            hb.retain(|o, _| peers.contains(o));
            for &p in &peers {
                let last = *hb.entry(p).or_insert(now);
                if now.duration_since(last) >= grace {
                    suspects.push(p);
                }
            }
        }
        for &p in &peers {
            self.heal.c.hb_pings.inc();
            self.send(
                Addr::Osd(p),
                OsdMsg::Ping(PingMsg {
                    from: self.id,
                    epoch: map.epoch(),
                }),
            );
        }
        for s in suspects {
            self.heal.c.hb_reports.inc();
            mon.report_down(self.id, s);
        }
        mon.tick();
        // Pump against the possibly-just-bumped map.
        let map = self.map.read().clone();
        self.pump_pgs(&map, &mon);
        self.refresh_health_gauges();
    }

    /// Drive every local PG's peering and recovery state machine one step.
    fn pump_pgs(self: &Arc<Self>, map: &OsdMap, mon: &Monitor) {
        // A re-placement can promote this OSD into a PG it has never
        // hosted (no ops ever touched it here): the *map*, not the local
        // PG table, decides what must be peered — instantiate those on
        // demand or they would silently never peer or backfill.
        let mut pgs: Vec<(Arc<Pg>, Placement)> = Vec::new();
        for (pool, spec) in map.pools() {
            for seq in 0..spec.pg_num {
                let id = PgId { pool, seq };
                let place = map.pg_placement(id).unwrap_or_default();
                if place.primary() == Some(self.id) || self.pgs.read().contains_key(&id) {
                    pgs.push((self.pg(id), place));
                }
            }
        }
        let mut temps: Vec<(PgId, Vec<OsdId>)> = Vec::new();
        let mut clears: Vec<PgId> = Vec::new();
        for (pg, Placement { placed, acting }) in pgs {
            if acting.first() != Some(&self.id) {
                // Replica (or unplaced): primary-side bookkeeping dies
                // here; a later promotion re-peers from scratch.
                pg.with_state(|st| {
                    st.peering = None;
                    st.health = PgHealth::Active;
                    st.acting = acting;
                    st.peer_missing.clear();
                    st.recovering.clear();
                    st.backfill.clear();
                    st.want_pg_temp = None;
                    st.want_clear_temp = false;
                    // Empty: no write waits on a sub-op of this PG.
                    if !st.rep_sent.is_empty() {
                        let err = AfcError::NotPrimary(format!("no longer leads {}", pg.id()));
                        self.restart_chains(st, pg.id(), None, &err);
                    }
                });
                continue;
            }
            let mut queries: Vec<OsdId> = Vec::new();
            let mut picks: Vec<(OsdId, String, u64)> = Vec::new();
            pg.with_state(|st| {
                let round_current = st.peering.as_ref().is_some_and(|r| r.epoch == map.epoch());
                if round_current {
                    // Round already in flight for this epoch: re-query the
                    // laggards (tolerates dropped peering messages).
                    if let Some(round) = &st.peering {
                        queries.extend(round.awaiting.iter().copied());
                    }
                } else if st.peering.is_some() || st.acting != acting {
                    // Stale round, or the map moved this PG: (re)peer.
                    self.start_peering(map, &pg, st, &acting, &mut queries);
                }
                if st.peering.is_none() {
                    self.schedule_recovery_locked(map, pg.id(), st, &mut picks);
                    // pg_temp stewardship: pin ourselves while the placed
                    // primary is down or stale; hand primacy back (behind
                    // a peering fence) once it is owed nothing. A handoff
                    // temp queued by `complete_peering` takes precedence.
                    if st.want_pg_temp.is_none()
                        && placed.first() != Some(&self.id)
                        && map.pg_temp(pg.id()).is_none()
                    {
                        st.want_pg_temp = Some(acting.clone());
                    }
                    if map.pg_temp(pg.id()).is_some() {
                        if let Some(&head) = placed.first() {
                            if head == self.id {
                                // We are the placed primary again (e.g. a
                                // re-placement after a mark-out): the
                                // override is obsolete once no placed peer
                                // is owed anything; clearing it lets the
                                // next round admit new placed members for
                                // backfill.
                                if !placed.iter().any(|o| *o != self.id && st.owes_peer(*o)) {
                                    st.want_clear_temp = true;
                                }
                            } else if map.osd_status(head).up && !st.owes_peer(head) {
                                // Fence before the handoff publishes: a
                                // write racing past this point would miss
                                // `head`; fenced, it is rejected with
                                // `WrongEpoch` and retried against the
                                // post-handoff map.
                                st.health = PgHealth::Peering;
                                st.want_clear_temp = true;
                            }
                        }
                    }
                    if let Some(t) = st.want_pg_temp.take() {
                        temps.push((pg.id(), t));
                    }
                    if std::mem::take(&mut st.want_clear_temp) {
                        clears.push(pg.id());
                    } else if st.health != PgHealth::Peering {
                        self.update_health_locked(map, &placed, st);
                    }
                }
            });
            for p in queries {
                self.send(
                    Addr::Osd(p),
                    OsdMsg::PgQuery(PgQueryMsg {
                        pg: pg.id(),
                        epoch: map.epoch(),
                        from: self.id,
                    }),
                );
            }
            for (peer, obj_name, gen) in picks {
                self.send_push(&pg, peer, obj_name, gen);
            }
        }
        // pg_temp changes batch into one epoch bump each; both are no-ops
        // (and free) when the batches are empty.
        mon.set_pg_temps(&temps);
        mon.clear_pg_temps(&clears);
    }

    /// Begin a peering round for the current epoch (PG lock held).
    fn start_peering(
        &self,
        map: &OsdMap,
        pg: &Arc<Pg>,
        st: &mut PgState,
        acting: &[OsdId],
        queries: &mut Vec<OsdId>,
    ) {
        let peers: BTreeSet<OsdId> = acting.iter().copied().filter(|&o| o != self.id).collect();
        self.heal.c.peering_rounds.inc();
        self.log("peering: start round");
        st.health = PgHealth::Peering;
        st.peering = Some(PeeringRound {
            epoch: map.epoch(),
            awaiting: peers.clone(),
            infos: BTreeMap::new(),
        });
        if peers.is_empty() {
            // Sole member: the round completes on local info alone.
            self.complete_peering(map, pg, st);
        } else {
            queries.extend(peers);
        }
    }

    /// A peer answers a `GetInfo` with its highest known PG-log sequence.
    pub(super) fn handle_pgquery(self: &Arc<Self>, from: Addr, q: PgQueryMsg) {
        let pg = self.pg(q.pg);
        let last_update = pg.with_state(|st| st.next_pg_seq);
        self.send(
            from,
            OsdMsg::PgInfo(PgInfoMsg {
                pg: q.pg,
                epoch: q.epoch,
                from: self.id,
                last_update,
            }),
        );
    }

    /// Collect a peering answer; the round completes when every acting
    /// peer has reported.
    pub(super) fn handle_pginfo(self: &Arc<Self>, info: PgInfoMsg) {
        // Map snapshot strictly before the PG lock (lock rank order).
        let map = self.map.read().clone();
        if info.epoch != map.epoch() {
            return; // answer from a superseded round
        }
        let pg = self.pg(info.pg);
        pg.with_state(|st| {
            let Some(round) = st.peering.as_mut() else {
                return;
            };
            if round.epoch != info.epoch {
                return;
            }
            round.awaiting.remove(&info.from);
            round.infos.insert(info.from, info.last_update);
            if round.awaiting.is_empty() {
                self.complete_peering(&map, &pg, st);
            }
        });
    }

    /// Close a peering round: agree on the authoritative log position,
    /// schedule backfill for stale peers, resume I/O.
    fn complete_peering(&self, map: &OsdMap, pg: &Arc<Pg>, st: &mut PgState) {
        let Some(round) = st.peering.take() else {
            return;
        };
        let Placement { placed, acting } = map.pg_placement(pg.id()).unwrap_or_default();
        let mine = st.next_pg_seq;
        // The most advanced peer, the lowest id among equals.
        let ahead = round.infos.iter().map(|(p, lu)| (*lu, Reverse(*p))).max();
        if let Some((_, Reverse(best))) = ahead.filter(|(lu, _)| *lu > mine) {
            // A peer holds history we lack (we were down, or we are a
            // fresh member promoted by a re-placement): hand primacy to
            // the most advanced peer via `pg_temp` and stay fenced until
            // the map reflects it — serving I/O without the data would
            // fabricate `NotFound`s for acked writes. The interim primary
            // then backfills us and hands primacy back (see `pump_pgs`).
            let mut temp = vec![best];
            temp.extend(acting.iter().copied().filter(|o| *o != best));
            st.want_pg_temp = Some(temp);
            st.health = PgHealth::Peering;
            st.acting = acting;
            self.heal.c.peering_completed.inc();
            return;
        }
        // No peer is ahead, so our position is the authoritative one.
        for (&peer, &lu) in &round.infos {
            if lu != mine {
                // Stale (or divergent) copy: full backfill — every local
                // object is pushed, converging the peer without a per-op
                // log diff.
                st.backfill.insert(peer);
            }
        }
        // Ledgers owed to peers that left placement (marked out) are
        // dropped: CRUSH re-homed their data.
        st.peer_missing
            .retain(|o, s| !s.is_empty() && (placed.contains(o) || map.osd_status(*o).up));
        st.backfill
            .retain(|o| placed.contains(o) || map.osd_status(*o).up);
        st.acting = acting;
        self.heal.c.peering_completed.inc();
        self.log("peering: round complete");
        self.update_health_locked(map, &placed, st);
    }

    /// Recompute `health` from the ledgers and the map (PG lock held).
    fn update_health_locked(&self, map: &OsdMap, placed: &[OsdId], st: &mut PgState) {
        if st.peering.is_some() {
            st.health = PgHealth::Peering;
            return;
        }
        let owes_up = !st.recovering.is_empty()
            || st.backfill.iter().any(|o| map.osd_status(*o).up)
            || st
                .peer_missing
                .iter()
                .any(|(o, s)| !s.is_empty() && map.osd_status(*o).up);
        let degraded = placed.iter().any(|o| !st.acting.contains(o));
        st.health = if owes_up {
            PgHealth::Recovering
        } else if degraded {
            PgHealth::Degraded
        } else {
            PgHealth::Active
        };
    }

    /// Journal a write the down-but-placed peers missed (PG lock held).
    pub(super) fn record_degraded_write(&self, st: &mut PgState, absent: &[OsdId], obj_name: &str) {
        for &peer in absent {
            st.peer_missing
                .entry(peer)
                .or_default()
                .insert(obj_name.to_string());
        }
        if !absent.is_empty() && st.health == PgHealth::Active {
            st.health = PgHealth::Degraded;
        }
    }

    /// Whether replication of `obj_name` to `peer` must yield to recovery:
    /// the peer's base copy is stale or absent, so mirroring a partial
    /// write onto it would corrupt it — the pump pushes the full object
    /// instead. Supersedes any in-flight push so stale data cannot win.
    pub(super) fn defer_to_recovery(&self, st: &mut PgState, peer: OsdId, obj_name: &str) -> bool {
        let missing = st
            .peer_missing
            .get(&peer)
            .is_some_and(|s| s.contains(obj_name));
        let key = (peer, obj_name.to_string());
        let in_flight = st.recovering.contains_key(&key);
        if !missing && !in_flight && !st.backfill.contains(&peer) {
            return false;
        }
        st.recovering.remove(&key);
        st.peer_missing
            .entry(peer)
            .or_default()
            .insert(obj_name.to_string());
        true
    }

    /// Move up to [`RECOVERY_MAX_INFLIGHT`] owed objects into `recovering`
    /// (PG lock held); the caller performs the reads and sends after
    /// releasing the lock. Backfill peers get the PG's whole object list
    /// enumerated into their ledger first.
    fn schedule_recovery_locked(
        &self,
        map: &OsdMap,
        pg_id: PgId,
        st: &mut PgState,
        picks: &mut Vec<(OsdId, String, u64)>,
    ) {
        if !st.backfill.is_empty() {
            let objects: Vec<String> = self
                .store
                .list_objects()
                .into_iter()
                .filter(|name| {
                    ObjectId::parse(name).and_then(|obj| map.object_pg(&obj).ok()) == Some(pg_id)
                })
                .collect();
            let peers: Vec<OsdId> = st.backfill.iter().copied().collect();
            for p in peers {
                st.backfill.remove(&p);
                let set = st.peer_missing.entry(p).or_default();
                for o in &objects {
                    set.insert(o.clone());
                }
            }
        }
        let max = RECOVERY_MAX_INFLIGHT;
        if st.recovering.len() >= max {
            return;
        }
        let budget = max - st.recovering.len();
        let mut chosen: Vec<(OsdId, String)> = Vec::new();
        'outer: for (&peer, objs) in st.peer_missing.iter() {
            if !map.osd_status(peer).up {
                continue; // unreachable peer: its ledger waits
            }
            for o in objs.iter() {
                if st.recovering.contains_key(&(peer, o.clone())) {
                    continue;
                }
                chosen.push((peer, o.clone()));
                if chosen.len() >= budget {
                    break 'outer;
                }
            }
        }
        for (peer, obj) in chosen {
            if let Some(s) = st.peer_missing.get_mut(&peer) {
                s.remove(&obj);
            }
            st.push_gen += 1;
            let gen = st.push_gen;
            st.recovering.insert((peer, obj.clone()), gen);
            picks.push((peer, obj, gen));
        }
    }

    /// Read the authoritative copy of one owed object and push it. The
    /// read happens off the PG lock; the send re-validates the pick's
    /// generation under the lock, so a push superseded by a concurrent
    /// write is dropped (the pump re-pushes fresh data later).
    fn send_push(self: &Arc<Self>, pg: &Arc<Pg>, peer: OsdId, obj_name: String, gen: u64) {
        // Every acked write must be in the pushed bytes: wait for all this
        // OSD has journaled. If an apply is wedged, the pump picks again.
        if self.wait_applied(self.journal.last_seq()).is_err() {
            return pg.with_state(|st| requeue_push(st, peer, obj_name, gen));
        }
        let data = match self.store.stat(&obj_name) {
            Ok(m) => self
                .store
                .read(&obj_name, 0, m.size as usize, Instant::now())
                .ok()
                .map(|read| Bytes::from(read.wait())),
            Err(_) => None, // deleted (or never created): propagate absence
        };
        let Some(object) = ObjectId::parse(&obj_name) else {
            return;
        };
        pg.with_state(|st| {
            if st.recovering.get(&(peer, obj_name.clone())) != Some(&gen) {
                return; // superseded; the pump will push fresh data
            }
            let push_id = self.alloc_rep_id();
            let push = PushOp {
                push_id,
                pg: pg.id(),
                object,
                data,
                pg_seq: st.next_pg_seq,
            };
            // PG_STATE → PUSH_WAITS ranks upward; holding the PG lock
            // through the send keeps the ack from racing this bookkeeping.
            self.heal.push_waits.lock().insert(
                push_id,
                PushWait {
                    pg: Arc::clone(pg),
                    peer,
                    object: obj_name,
                    gen,
                    sent: Instant::now(),
                },
            );
            self.heal.c.recovery_pushes.inc();
            self.log("send recovery push");
            self.send(Addr::Osd(peer), OsdMsg::Push(push));
        });
    }

    /// Replica side of a recovery push: install the full copy (or the
    /// deletion) through the same sub-op routine as a mirrored write — push
    /// ids share the id space and the `RepAck` — outside the PG's chain of
    /// `Replicate`s. A push is never resent verbatim, a copy duplicated on
    /// the wire arrives right behind it, and no write to its object is
    /// sent the peer while it is in flight (`defer_to_recovery`), so
    /// installing a copy twice changes nothing.
    pub(super) fn handle_push(self: &Arc<Self>, from: Addr, push: PushOp) {
        self.log("handle recovery push");
        let (pg, pg_seq) = (push.pg, push.pg_seq);
        self.handle_subop(from, push.push_id, pg, pg_seq, None, move |me| {
            let obj_name = push.object.to_string();
            match &push.data {
                Some(data) => Some(install_txn(pg, &obj_name, pg_seq, data)),
                // Nothing to delete locally: ack right away.
                None if me.store.stat(&obj_name).is_err() => None,
                None => mutation_txn(pg, &obj_name, pg_seq, &ObjectOp::Delete),
            }
        });
    }

    /// Primary side of a push ack: retire the in-flight entry unless a
    /// newer generation superseded it.
    pub(super) fn handle_push_ack(&self, ack: RepOpReply) {
        // The push_waits guard drops before the PG lock (sequential, not
        // nested: the ranks would invert the declared order otherwise).
        let Some(pw) = self.heal.push_waits.lock().remove(&ack.rep_id) else {
            return;
        };
        self.heal.c.recovery_push_acks.inc();
        let key = (pw.peer, pw.object);
        pw.pg.with_state(|st| {
            if st.recovering.get(&key) == Some(&pw.gen) {
                st.recovering.remove(&key);
            }
        });
    }

    /// Requeue pushes whose ack is overdue (lost push or lost ack, or the
    /// peer died again). A verbatim resend could overwrite a newer push on
    /// the peer, so the object goes back into `peer_missing` and the pump
    /// pushes fresh bytes instead.
    pub(super) fn requeue_expired_pushes(&self) {
        let timeout = Duration::from_millis(self.tuning.rep_resend_after_ms.max(1) * 4);
        let now = Instant::now();
        let expired: Vec<PushWait> = self
            .heal
            .push_waits
            .lock()
            .extract_if(|_, w| now.duration_since(w.sent) >= timeout)
            .map(|(_, w)| w)
            .collect();
        for pw in expired {
            self.heal.c.recovery_requeues.inc();
            pw.pg
                .with_state(|st| requeue_push(st, pw.peer, pw.object, pw.gen));
        }
    }

    /// Refresh the per-OSD PG-health gauges (heartbeat thread).
    fn refresh_health_gauges(&self) {
        let pgs: Vec<Arc<Pg>> = self.pgs.read().values().cloned().collect();
        let (mut deg, mut rec, mut peering) = (0i64, 0i64, 0i64);
        for pg in pgs {
            match pg.with_state(|st| st.health) {
                PgHealth::Degraded => deg += 1,
                PgHealth::Recovering => rec += 1,
                PgHealth::Peering => peering += 1,
                PgHealth::Active => {}
            }
        }
        self.heal.c.pgs_degraded.set(deg);
        self.heal.c.pgs_recovering.set(rec);
        self.heal.c.pgs_peering.set(peering);
    }
}
