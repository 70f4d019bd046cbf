//! dmClock-style per-volume QoS scheduling for the OSD op queue.
//!
//! SolidFire's defining product feature — guaranteed per-volume
//! min/max/burst IOPS — reproduced on the afc side as a two-level
//! scheduler in front of the OSD op workers:
//!
//! 1. **Reservation phase.** Every volume with `min_iops > 0` carries a
//!    dmClock-style reservation deadline tag that advances by
//!    `1/min_iops` per dispatch. A volume whose tag lags `now` is owed
//!    guaranteed throughput and is served *before* all best-effort
//!    traffic, earliest tag first — which under oversubscription
//!    (Σ min_iops > capacity) degrades every reservation proportionally
//!    to its `min_iops` instead of starving anyone, because a volume with
//!    3× the floor advances its tag a third as far per dispatch.
//! 2. **Weight phase.** Remaining capacity round-robins across all
//!    backlogged volumes. A per-volume limit bucket (rate `max_iops`,
//!    cap `burst`) gates *both* phases, so no volume exceeds its ceiling
//!    no matter how empty the cluster is.
//!
//! A streak cap ([`RESERVATION_STREAK_MAX`]) bounds how many consecutive
//! dispatches the reservation phase may win while best-effort work is
//! waiting: even a hopelessly oversubscribed set of reservations leaks
//! ~1/(K+1) of capacity to the weight phase, so untagged traffic always
//! makes progress.
//!
//! The scheduler is generic over the queued item so the dequeue policy is
//! unit-testable with synthetic clocks; the OSD instantiates it with its
//! PG work closures. Internal traffic (replication, recovery, peering)
//! never enters this scheduler — only client ops are tagged and shaped.
//!
//! Limit buckets refill lazily at access time and clamp to their cap;
//! reservation tags are clamped forward when a volume goes busy again. So
//! an idle volume never accumulates more than one bounded burst of
//! credit on either level.

use afc_common::lockdep::classes;
use afc_common::metrics::{Counter, Histogram, MetricSet};
use afc_common::{TrackedMutex, VolumeId};
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// Consecutive reservation-phase dispatches allowed while weight-phase
/// candidates are waiting, before one weight pick is forced. Bounds
/// best-effort starvation at ~1/(K+1) of capacity under reservation
/// oversubscription.
pub const RESERVATION_STREAK_MAX: u32 = 8;

/// A volume's QoS contract: guaranteed floor, hard ceiling, burst credit.
///
/// All rates are in IOPS. `max_iops == 0` means unlimited; `burst` is the
/// number of ops a volume may momentarily exceed its sustained `max_iops`
/// by after idling (SolidFire's "burst IOPS" knob). `best_effort()` (all
/// zero) is the untagged default: no floor, no ceiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QosSpec {
    /// Guaranteed IOPS floor (reservation). 0 = no guarantee.
    pub min_iops: u64,
    /// IOPS ceiling (limit). 0 = unlimited.
    pub max_iops: u64,
    /// Burst credit in ops above the sustained ceiling. Only meaningful
    /// with `max_iops > 0`.
    pub burst: u64,
}

impl QosSpec {
    /// No floor, no ceiling: scheduled purely by the weight phase.
    pub const fn best_effort() -> Self {
        QosSpec {
            min_iops: 0,
            max_iops: 0,
            burst: 0,
        }
    }

    /// Build a spec, clamping `min_iops` to `max_iops` when a ceiling is
    /// set (a floor above the ceiling is unsatisfiable by construction).
    pub fn new(min_iops: u64, max_iops: u64, burst: u64) -> Self {
        let min_iops = if max_iops > 0 {
            min_iops.min(max_iops)
        } else {
            min_iops
        };
        QosSpec {
            min_iops,
            max_iops,
            burst,
        }
    }
}

/// The QoS identity carried on every client op: which volume it bills to
/// and that volume's contract. Carrying the spec inline means OSDs learn
/// a volume's QoS from its first op — no registration protocol, and a
/// re-opened volume's updated spec wins on arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QosTag {
    /// Owning volume.
    pub volume: VolumeId,
    /// The volume's QoS contract.
    pub spec: QosSpec,
}

impl QosTag {
    /// The shared best-effort volume (id 0): untagged traffic.
    pub const fn best_effort() -> Self {
        QosTag {
            volume: VolumeId(0),
            spec: QosSpec::best_effort(),
        }
    }

    /// Tag ops for `volume` under `spec`.
    pub fn new(volume: VolumeId, spec: QosSpec) -> Self {
        QosTag { volume, spec }
    }
}

/// A lazily-refilled token bucket. Fractional tokens accumulate between
/// polls; the cap bounds what an idle volume can save up.
#[derive(Debug)]
struct TokenBucket {
    /// Tokens per second.
    rate: f64,
    /// Maximum stored tokens.
    cap: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    fn new(rate_iops: u64, cap: f64, now: Instant) -> Self {
        let cap = cap.max(1.0);
        TokenBucket {
            rate: rate_iops as f64,
            cap,
            // Start full: a fresh volume may burst immediately.
            tokens: cap,
            last: now,
        }
    }

    fn refill(&mut self, now: Instant) {
        if now > self.last {
            let dt = now.duration_since(self.last).as_secs_f64();
            self.tokens = (self.tokens + self.rate * dt).min(self.cap);
            self.last = now;
        }
    }

    fn has_token(&self) -> bool {
        self.tokens >= 1.0
    }

    fn take(&mut self) {
        self.tokens -= 1.0;
    }

    /// Earliest instant at which a full token will be available.
    fn next_available(&self, now: Instant) -> Instant {
        if self.tokens >= 1.0 || self.rate <= 0.0 {
            return now;
        }
        now + Duration::from_secs_f64((1.0 - self.tokens) / self.rate)
    }
}

/// dmClock reservation clock. The volume is owed a guaranteed dispatch
/// whenever `tag <= now`; every reservation dispatch advances the tag by
/// `1/min_iops`, so under oversubscription the volume whose tag lags
/// furthest is the one furthest below its floor. Unlike a token bucket,
/// the tag never saturates while the volume stays busy — that is what
/// keeps the split *proportional* when Σ min_iops exceeds capacity.
#[derive(Debug)]
struct Reservation {
    /// Seconds of clock per guaranteed op (`1 / min_iops`).
    interval: Duration,
    /// How far the tag may lag `now` when the volume goes busy after an
    /// idle spell — the post-idle catch-up credit, in wall time of floor.
    window: Duration,
    /// The deadline tag.
    tag: Instant,
}

impl Reservation {
    fn new(min_iops: u64, now: Instant) -> Self {
        let window = Duration::from_millis(250);
        Reservation {
            interval: Duration::from_secs_f64(1.0 / min_iops as f64),
            window,
            // Start one window behind: a fresh volume may claim its
            // floor immediately (min_iops / 4 ops of initial credit).
            tag: now.checked_sub(window).unwrap_or(now),
        }
    }

    /// True when the volume is below its guaranteed floor.
    fn due(&self, now: Instant) -> bool {
        self.tag <= now
    }

    /// Account one guaranteed dispatch.
    fn on_dispatch(&mut self) {
        self.tag += self.interval;
    }

    /// Clamp the tag forward when the volume goes busy after idling, so
    /// idle time banks at most `window` worth of reservation credit.
    fn on_busy(&mut self, now: Instant) {
        if let Some(floor) = now.checked_sub(self.window) {
            if self.tag < floor {
                self.tag = floor;
            }
        }
    }
}

/// Per-volume scheduler state: the FIFO of pending items plus the
/// reservation clock, limit bucket, and cached metric handles.
struct VolState<T> {
    spec: QosSpec,
    /// Pending items with their enqueue timestamps (for the queue-wait
    /// histogram).
    queue: VecDeque<(T, Instant)>,
    /// Reservation clock, present when `min_iops > 0`. Its catch-up
    /// window is 250 ms of floor — enough to ride out scheduler hiccups,
    /// small enough that an idle volume cannot bank a deluge.
    reservation: Option<Reservation>,
    /// Ceiling, present when `max_iops > 0`. Rate `max_iops`, cap `burst`
    /// (or 250 ms of ceiling when no burst is configured).
    limit: Option<TokenBucket>,
    /// Whether the current queue head has already been billed to the
    /// `limited` counters — dequeue polls repeat (one per woken worker),
    /// but each *op* counts as rate-limited at most once.
    limited_counted: bool,
    c_res: Counter,
    c_weight: Counter,
    c_limited: Counter,
    c_enq: Counter,
    h_wait: Histogram,
}

impl<T> VolState<T> {
    fn new(vol: VolumeId, spec: QosSpec, now: Instant, set: &MetricSet) -> Self {
        let (reservation, limit) = Self::buckets(&spec, now);
        VolState {
            spec,
            queue: VecDeque::new(),
            reservation,
            limit,
            limited_counted: false,
            c_res: set.counter(&format!("{vol}.served_reservation")),
            c_weight: set.counter(&format!("{vol}.served_weight")),
            c_limited: set.counter(&format!("{vol}.limited")),
            c_enq: set.counter(&format!("{vol}.enqueued")),
            h_wait: set.histogram(&format!("{vol}.queue_wait")),
        }
    }

    fn buckets(spec: &QosSpec, now: Instant) -> (Option<Reservation>, Option<TokenBucket>) {
        let reservation = (spec.min_iops > 0).then(|| Reservation::new(spec.min_iops, now));
        let limit = (spec.max_iops > 0).then(|| {
            let cap = if spec.burst > 0 {
                spec.burst as f64
            } else {
                spec.max_iops as f64 / 4.0
            };
            TokenBucket::new(spec.max_iops, cap, now)
        });
        (reservation, limit)
    }

    /// Adopt a changed spec (volume re-opened with new QoS): rebuild the
    /// buckets, keep the queue. Balances carry over — a fresh bucket
    /// starts full, so without the carry-over a client could mint a new
    /// burst of credit (and reset consumed reservation credit) just by
    /// re-opening the volume with an alternating spec.
    fn set_spec(&mut self, spec: QosSpec, now: Instant) {
        if self.spec == spec {
            return;
        }
        self.spec = spec;
        let (mut r, mut l) = Self::buckets(&spec, now);
        if let (Some(old), Some(new)) = (self.limit.as_mut(), l.as_mut()) {
            old.refill(now);
            new.tokens = old.tokens.min(new.cap);
        }
        if let (Some(old), Some(new)) = (self.reservation.as_ref(), r.as_mut()) {
            // The further-ahead tag means less outstanding credit; keep it.
            if old.tag > new.tag {
                new.tag = old.tag;
            }
        }
        self.reservation = r;
        self.limit = l;
    }

    /// True when the limit bucket (if any) permits a dispatch now.
    fn limit_ok(&self) -> bool {
        self.limit.as_ref().is_none_or(TokenBucket::has_token)
    }

    /// Take the head item for dispatch at `now`: spends a limit token and
    /// books the item's queue wait.
    #[expect(
        clippy::expect_used,
        reason = "`dequeue` picks only volumes whose queue is non-empty"
    )]
    fn pop(&mut self, now: Instant) -> T {
        if let Some(b) = &mut self.limit {
            b.take();
        }
        let (item, enq) = self.queue.pop_front().expect("picked volume backlogged");
        self.limited_counted = false;
        self.h_wait.observe(now.duration_since(enq));
        item
    }
}

struct SchedState<T> {
    vols: BTreeMap<VolumeId, VolState<T>>,
    /// Total queued items across volumes.
    queued: usize,
    /// Consecutive reservation-phase dispatches (see
    /// [`RESERVATION_STREAK_MAX`]).
    streak: u32,
    /// Last volume served by the weight phase (round-robin cursor).
    rr_last: Option<VolumeId>,
}

/// Outcome of a dequeue attempt.
#[derive(Debug)]
pub enum Deq<T> {
    /// An item was dispatched.
    Ready(T),
    /// Items are queued but every backlogged volume is at its limit;
    /// nothing can dispatch before the given instant.
    Wait(Instant),
    /// No items queued.
    Empty,
}

/// The two-level (reservation → weight) per-volume scheduler. See the
/// module docs for the policy; all methods are safe to call concurrently.
pub struct QosScheduler<T> {
    state: TrackedMutex<SchedState<T>>,
    metrics: MetricSet,
    c_res: Counter,
    c_weight: Counter,
    c_limited: Counter,
    c_enq: Counter,
}

impl<T> Default for QosScheduler<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> QosScheduler<T> {
    /// Create an empty scheduler.
    pub fn new() -> Self {
        let metrics = MetricSet::new();
        QosScheduler {
            state: TrackedMutex::new(
                &classes::OSD_QOS,
                SchedState {
                    vols: BTreeMap::new(),
                    queued: 0,
                    streak: 0,
                    rr_last: None,
                },
            ),
            c_res: metrics.counter("served_reservation"),
            c_weight: metrics.counter("served_weight"),
            c_limited: metrics.counter("limited"),
            c_enq: metrics.counter("enqueued"),
            metrics,
        }
    }

    /// The live metric set (`served_reservation`, `served_weight`,
    /// `limited`, `enqueued`, plus `volN.*` and the `volN.queue_wait`
    /// histogram per volume) for `Metrics::attach_set`.
    pub fn metrics(&self) -> &MetricSet {
        &self.metrics
    }

    /// Queue `item` for `tag.volume`, creating (or re-speccing) the
    /// volume's state from the tag.
    pub fn enqueue(&self, tag: &QosTag, item: T, now: Instant) {
        let mut st = self.state.lock();
        let vs = match st.vols.entry(tag.volume) {
            std::collections::btree_map::Entry::Occupied(e) => {
                let vs = e.into_mut();
                vs.set_spec(tag.spec, now);
                vs
            }
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(VolState::new(tag.volume, tag.spec, now, &self.metrics))
            }
        };
        if vs.queue.is_empty() {
            // Going busy after an idle spell: bound the banked credit.
            if let Some(r) = &mut vs.reservation {
                r.on_busy(now);
            }
        }
        vs.queue.push_back((item, now));
        vs.c_enq.inc();
        st.queued += 1;
        self.c_enq.inc();
    }

    /// Total queued items.
    pub fn len(&self) -> usize {
        self.state.lock().queued
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain every queue (shutdown path). Items are returned so their
    /// drop side effects (permit release, etc.) run outside the lock.
    pub fn clear(&self) -> Vec<T> {
        let mut st = self.state.lock();
        let mut out = Vec::with_capacity(st.queued);
        for vs in st.vols.values_mut() {
            out.extend(vs.queue.drain(..).map(|(item, _)| item));
        }
        st.queued = 0;
        out
    }

    /// Pick the next item to dispatch at `now` per the two-level policy.
    pub fn dequeue(&self, now: Instant) -> Deq<T> {
        let mut st = self.state.lock();
        if st.queued == 0 {
            return Deq::Empty;
        }
        let st = &mut *st;
        for vs in st.vols.values_mut() {
            if !vs.queue.is_empty() {
                if let Some(b) = &mut vs.limit {
                    b.refill(now);
                }
            }
        }

        // Reservation phase: among backlogged, limit-clear volumes below
        // their floor (tag due), the one whose tag lags furthest.
        let mut res_pick: Option<(VolumeId, Instant)> = None;
        // Does any backlogged, limit-clear volume with no due reservation
        // exist? (The streak cap only matters when someone else is
        // waiting.)
        let mut weight_waiting = false;
        for (vol, vs) in st.vols.iter() {
            if vs.queue.is_empty() || !vs.limit_ok() {
                continue;
            }
            match vs.reservation.as_ref().filter(|r| r.due(now)) {
                Some(r) => {
                    if res_pick.is_none_or(|(_, t)| r.tag < t) {
                        res_pick = Some((*vol, r.tag));
                    }
                }
                None => weight_waiting = true,
            }
        }

        let mut forced = false;
        if let Some((vol, _)) = res_pick {
            if !weight_waiting || st.streak < RESERVATION_STREAK_MAX {
                #[expect(clippy::expect_used, reason = "`vol` was just read from `vols`")]
                let vs = st.vols.get_mut(&vol).expect("picked volume exists");
                if let Some(r) = &mut vs.reservation {
                    r.on_dispatch();
                }
                let item = vs.pop(now);
                vs.c_res.inc();
                self.c_res.inc();
                st.queued -= 1;
                // Saturate: with no weight candidate waiting the cap check
                // is skipped, so the streak can grow without bound.
                st.streak = st.streak.saturating_add(1);
                return Deq::Ready(item);
            }
            // Streak cap hit: force one weight pick, and aim it at the
            // volumes actually waiting behind the reservations (those
            // with no due floor claim) — `weight_waiting` guarantees at
            // least one such candidate exists.
            forced = true;
        }

        // Weight phase: round-robin over backlogged, limit-clear volumes,
        // starting just past the cursor.
        let candidates: Vec<VolumeId> = st
            .vols
            .iter()
            .filter(|(_, vs)| !vs.queue.is_empty() && vs.limit_ok())
            .filter(|(_, vs)| !forced || !vs.reservation.as_ref().is_some_and(|r| r.due(now)))
            .map(|(v, _)| *v)
            .collect();
        if let Some(vol) = pick_round_robin(&candidates, st.rr_last) {
            #[expect(clippy::expect_used, reason = "`vol` was just read from `vols`")]
            let vs = st.vols.get_mut(&vol).expect("picked volume exists");
            let item = vs.pop(now);
            vs.c_weight.inc();
            self.c_weight.inc();
            st.queued -= 1;
            st.streak = 0;
            st.rr_last = Some(vol);
            return Deq::Ready(item);
        }

        // Everything backlogged is rate-limited: report the earliest
        // instant a limit bucket frees up.
        let mut deadline: Option<Instant> = None;
        for vs in st.vols.values_mut() {
            if vs.queue.is_empty() {
                continue;
            }
            // Bill the deferred head once, not once per worker poll.
            if !vs.limited_counted {
                vs.limited_counted = true;
                vs.c_limited.inc();
                self.c_limited.inc();
            }
            if let Some(b) = &vs.limit {
                let at = b.next_available(now);
                deadline = Some(deadline.map_or(at, |d| d.min(at)));
            }
        }
        // A backlogged volume always has a limit bucket here (a volume
        // without one is always limit_ok and would have dispatched), but
        // fall back to a short poll rather than panic.
        Deq::Wait(deadline.unwrap_or(now + Duration::from_millis(1)))
    }
}

/// Next element after `last` in `sorted` (wrapping), or the first element
/// when `last` is absent.
fn pick_round_robin(sorted: &[VolumeId], last: Option<VolumeId>) -> Option<VolumeId> {
    if sorted.is_empty() {
        return None;
    }
    let Some(last) = last else {
        return Some(sorted[0]);
    };
    match sorted.iter().position(|v| *v > last) {
        Some(i) => Some(sorted[i]),
        None => Some(sorted[0]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> Instant {
        Instant::now()
    }

    fn drain_at<T>(s: &QosScheduler<T>, now: Instant, max: usize) -> Vec<T> {
        let mut out = Vec::new();
        for _ in 0..max {
            match s.dequeue(now) {
                Deq::Ready(x) => out.push(x),
                _ => break,
            }
        }
        out
    }

    #[test]
    fn fifo_within_a_volume() {
        let s = QosScheduler::new();
        let tag = QosTag::best_effort();
        let now = t0();
        for i in 0..5u32 {
            s.enqueue(&tag, i, now);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(drain_at(&s, now, 10), vec![0, 1, 2, 3, 4]);
        assert!(s.is_empty());
        assert!(matches!(s.dequeue(now), Deq::Empty));
    }

    #[test]
    fn reservation_served_before_best_effort() {
        let s = QosScheduler::new();
        let now = t0();
        let noisy = QosTag::best_effort();
        let prot = QosTag::new(VolumeId(1), QosSpec::new(1000, 0, 0));
        for i in 0..10u32 {
            s.enqueue(&noisy, i, now);
        }
        s.enqueue(&prot, 100, now);
        s.enqueue(&prot, 101, now);
        // The reserved volume's items jump the whole best-effort backlog.
        let got = drain_at(&s, now, 2);
        assert_eq!(got, vec![100, 101]);
    }

    #[test]
    fn max_iops_enforced_with_wait_deadline() {
        let s = QosScheduler::new();
        let now = t0();
        // 1000 IOPS ceiling, burst 2: exactly 2 ops dispatch immediately.
        let tag = QosTag::new(VolumeId(1), QosSpec::new(0, 1000, 2));
        for i in 0..10u32 {
            s.enqueue(&tag, i, now);
        }
        assert_eq!(drain_at(&s, now, 10).len(), 2);
        let Deq::Wait(at) = s.dequeue(now) else {
            panic!("expected Wait while rate-limited");
        };
        // Next token at +1ms (1000 IOPS).
        let dt = at.duration_since(now);
        assert!(dt <= Duration::from_millis(2), "deadline {dt:?}");
        assert!(dt >= Duration::from_micros(500), "deadline {dt:?}");
        // After the deadline a token has accrued.
        let later = now + Duration::from_millis(1);
        assert_eq!(drain_at(&s, later, 10).len(), 1);
        assert!(s.metrics().counter("vol1.limited").get() > 0);
    }

    #[test]
    fn burst_credit_is_capped() {
        let s = QosScheduler::new();
        let now = t0();
        let tag = QosTag::new(VolumeId(1), QosSpec::new(0, 100, 5));
        s.enqueue(&tag, 0u32, now);
        drain_at(&s, now, 1);
        // A long idle period must not bank more than `burst` tokens.
        let later = now + Duration::from_secs(3600);
        for i in 0..20u32 {
            s.enqueue(&tag, i, later);
        }
        // Started full (5), spent 1, idle refill clamps at 5.
        assert_eq!(drain_at(&s, later, 20).len(), 5);
        assert!(matches!(s.dequeue(later), Deq::Wait(_)));
    }

    #[test]
    fn idle_volume_reservation_credit_is_capped() {
        let s = QosScheduler::new();
        let now = t0();
        // min 1000 → reservation cap is 250 (min/4).
        let prot = QosTag::new(VolumeId(1), QosSpec::new(1000, 0, 0));
        let noisy = QosTag::best_effort();
        s.enqueue(&prot, 0u32, now);
        drain_at(&s, now, 1);
        // An hour idle, then both volumes go backlogged.
        let later = now + Duration::from_secs(3600);
        for i in 0..1000u32 {
            s.enqueue(&prot, i, later);
            s.enqueue(&noisy, 10_000 + i, later);
        }
        // With credit capped at 250, and the streak cap forcing a weight
        // pick every RESERVATION_STREAK_MAX reservation picks, the first
        // ~300 dispatches cannot all be the reserved volume.
        let got = drain_at(&s, later, 300);
        let noisy_served = got.iter().filter(|x| **x >= 10_000).count();
        assert!(
            noisy_served >= 300 / (RESERVATION_STREAK_MAX as usize + 1),
            "noisy starved: only {noisy_served} of 300"
        );
    }

    #[test]
    fn oversubscribed_reservations_degrade_proportionally() {
        let s = QosScheduler::new();
        let start = t0();
        let a = QosTag::new(VolumeId(1), QosSpec::new(1000, 0, 0));
        let b = QosTag::new(VolumeId(2), QosSpec::new(3000, 0, 0));
        for i in 0..4000u32 {
            s.enqueue(&a, i, start);
            s.enqueue(&b, 100_000 + i, start);
        }
        // Capacity 2000 IOPS vs 4000 reserved: dispatch one op every
        // 0.5 ms of synthetic time for one synthetic second.
        let (mut na, mut nb) = (0usize, 0usize);
        for step in 1..=2000u64 {
            let now = start + Duration::from_micros(500 * step);
            match s.dequeue(now) {
                Deq::Ready(x) if x < 100_000 => na += 1,
                Deq::Ready(_) => nb += 1,
                _ => {}
            }
        }
        // b reserved 3× a's floor → should get ~3× the dispatches; both
        // must make progress.
        assert!(na > 0 && nb > 0, "na={na} nb={nb}");
        let ratio = nb as f64 / na as f64;
        assert!(
            (2.0..=4.5).contains(&ratio),
            "expected ~3:1 split, got {nb}:{na} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn weight_phase_round_robins_across_volumes() {
        let s = QosScheduler::new();
        let now = t0();
        for v in 1..=3u64 {
            let tag = QosTag::new(VolumeId(v), QosSpec::best_effort());
            for i in 0..4u32 {
                s.enqueue(&tag, (v as u32) * 100 + i, now);
            }
        }
        let got = drain_at(&s, now, 6);
        // Perfect interleave: one op per volume per round.
        assert_eq!(got, vec![100, 200, 300, 101, 201, 301]);
    }

    #[test]
    fn spec_update_on_reopen_wins() {
        let s = QosScheduler::new();
        let now = t0();
        let v = VolumeId(1);
        s.enqueue(&QosTag::new(v, QosSpec::new(0, 100, 1)), 0u32, now);
        drain_at(&s, now, 1);
        // Re-open with a higher burst: the new cap applies, but the spent
        // token balance carries over — re-opening mints no fresh credit.
        let tag = QosTag::new(v, QosSpec::new(0, 100, 50));
        for i in 0..30u32 {
            s.enqueue(&tag, i, now);
        }
        assert!(matches!(s.dequeue(now), Deq::Wait(_)));
        // A second later the 100 IOPS rate has accrued past 30 tokens
        // (clamped to the new 50 cap), so the whole backlog drains.
        let later = now + Duration::from_secs(1);
        assert_eq!(drain_at(&s, later, 40).len(), 30);
    }

    #[test]
    fn reopen_with_alternating_spec_mints_no_burst() {
        let s = QosScheduler::new();
        let now = t0();
        let v = VolumeId(1);
        let a = QosTag::new(v, QosSpec::new(0, 100, 5));
        let b = QosTag::new(v, QosSpec::new(0, 100, 6));
        for i in 0..40u32 {
            s.enqueue(if i % 2 == 0 { &a } else { &b }, i, now);
        }
        // The first open's burst (5) is all the credit there is; flapping
        // the spec on every enqueue refills nothing.
        assert_eq!(drain_at(&s, now, 40).len(), 5);
        assert!(matches!(s.dequeue(now), Deq::Wait(_)));
    }

    #[test]
    fn reopen_does_not_reset_reservation_credit() {
        let s = QosScheduler::new();
        let now = t0();
        let v = VolumeId(1);
        let t1 = QosTag::new(v, QosSpec::new(1000, 0, 0));
        for i in 0..400u32 {
            s.enqueue(&t1, i, now);
        }
        // Consumes the whole 250 ms catch-up window of reservation
        // credit; the tail dispatches via the weight phase.
        drain_at(&s, now, 400);
        let before = s.metrics().counter("vol1.served_reservation").get();
        assert!(before > 0);
        // Re-opening with a different floor must not re-arm the window.
        s.enqueue(&QosTag::new(v, QosSpec::new(2000, 0, 0)), 999u32, now);
        drain_at(&s, now, 1);
        assert_eq!(s.metrics().counter("vol1.served_reservation").get(), before);
    }

    #[test]
    fn limited_counts_deferred_ops_not_polls() {
        let s = QosScheduler::new();
        let now = t0();
        let tag = QosTag::new(VolumeId(1), QosSpec::new(0, 1000, 1));
        for i in 0..3u32 {
            s.enqueue(&tag, i, now);
        }
        assert_eq!(drain_at(&s, now, 1).len(), 1);
        // Several workers re-polling the same blocked head bill it once.
        for _ in 0..5 {
            assert!(matches!(s.dequeue(now), Deq::Wait(_)));
        }
        assert_eq!(s.metrics().counter("vol1.limited").get(), 1);
        assert_eq!(s.metrics().counter("limited").get(), 1);
        // Once the head dispatches, the next deferred head counts anew.
        let later = now + Duration::from_millis(2);
        assert_eq!(drain_at(&s, later, 1).len(), 1);
        assert!(matches!(s.dequeue(later), Deq::Wait(_)));
        assert!(matches!(s.dequeue(later), Deq::Wait(_)));
        assert_eq!(s.metrics().counter("vol1.limited").get(), 2);
    }

    #[test]
    fn clear_returns_queued_items() {
        let s = QosScheduler::new();
        let now = t0();
        s.enqueue(&QosTag::best_effort(), 1u32, now);
        s.enqueue(&QosTag::new(VolumeId(9), QosSpec::new(10, 0, 0)), 2, now);
        let mut drained = s.clear();
        drained.sort_unstable();
        assert_eq!(drained, vec![1, 2]);
        assert!(s.is_empty());
    }

    #[test]
    fn spec_normalizes_min_above_max() {
        let s = QosSpec::new(5000, 1000, 0);
        assert_eq!(s.min_iops, 1000);
        // Unlimited ceiling keeps the floor as-is.
        assert_eq!(QosSpec::new(5000, 0, 0).min_iops, 5000);
    }

    #[test]
    fn scheduler_counts_phases() {
        let s = QosScheduler::new();
        let now = t0();
        s.enqueue(
            &QosTag::new(VolumeId(1), QosSpec::new(100, 0, 0)),
            1u32,
            now,
        );
        s.enqueue(&QosTag::best_effort(), 2u32, now);
        drain_at(&s, now, 2);
        assert_eq!(s.metrics().counter("served_reservation").get(), 1);
        assert_eq!(s.metrics().counter("served_weight").get(), 1);
        assert_eq!(s.metrics().counter("vol1.served_reservation").get(), 1);
        assert_eq!(s.metrics().counter("vol0.served_weight").get(), 1);
        assert_eq!(s.metrics().counter("enqueued").get(), 2);
        // Queue-wait histograms exist per volume.
        assert_eq!(s.metrics().histogram("vol1.queue_wait").count(), 1);
    }
}
