//! Deterministic, seed-reproducible fault injection.
//!
//! A fault schedule is plain data: a [`FaultPlan`] is a seed plus a list of
//! [`FaultSpec`]s, each naming an injection [`FaultSite`], a [`FaultKind`],
//! and a counter window (`after` matching hits pass through, then the next
//! `count` fire). Components that can fail hold an `Arc<FaultRegistry>` and
//! ask [`FaultRegistry::check`] at their injection sites; the registry
//! replays the schedule deterministically, so any failure observed in a
//! test is reproducible from the plan alone.
//!
//! The hot path is free when no faults are loaded: `check` is a single
//! relaxed atomic load before touching any lock, and the registry disarms
//! itself once every spec is exhausted.
//!
//! ```
//! use afc_common::faults::{FaultKind, FaultPlan, FaultRegistry, FaultSite, FaultSpec, Io};
//!
//! let site = FaultSite::Journal { node: 0, io: Some(Io::Write) };
//! let plan = FaultPlan::new(42).with(FaultSpec::new(site, FaultKind::Error).after(1));
//! let reg = FaultRegistry::from_plan(&plan);
//! assert_eq!(reg.check(site), None); // first hit passes
//! assert_eq!(reg.check(site), Some(FaultKind::Error));
//! assert_eq!(reg.hits(site), 1);
//! assert_eq!(site.to_string(), "node0.journal.write");
//! ```

use crate::lockdep::{classes, TrackedMutex};
use crate::rng;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// What happens when a fault fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail the operation with a (retryable) I/O error.
    Error,
    /// Add a latency spike of the given duration.
    Delay(Duration),
    /// Tear the write: a prefix reaches media, the tail is garbage.
    /// Only meaningful at device/journal write sites.
    Torn,
    /// Silently drop the message. Only at [`FaultSite::Net`] sites.
    Drop,
    /// Deliver the message twice. Only at [`FaultSite::Net`] sites.
    Duplicate,
}

/// The message classes of the cluster fabric, one fault site each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetSite {
    /// Client → primary op (`net.request`).
    Request,
    /// Primary → client answer (`net.reply`).
    Reply,
    /// Primary → replica sub-op (`net.replicate`).
    Replicate,
    /// Replica → primary sub-op ack (`net.repack`).
    RepAck,
    /// OSD ↔ OSD ping and pong (`net.heartbeat`).
    Heartbeat,
    /// PG query and info (`net.peering`).
    Peering,
    /// Recovery push (`net.push`).
    Push,
}

/// A device I/O verb, the optional last segment of a device site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Io {
    Read,
    Write,
    Flush,
}

/// The two points of a filestore apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ApplyPoint {
    /// Before the transaction's first op (`osdN.fs.apply`): fail it whole,
    /// or hold its lane for a `Delay`.
    Apply,
    /// Between two ops (`osdN.fs.mid_apply`): fail with a partial apply
    /// behind, or add a `Delay` to the chain.
    MidApply,
}

/// Where a fault is injected. `Display` gives the dotted name.
///
/// A device site with no verb (`io: None`) covers every I/O at that
/// device; with one, only that verb's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A message class on the fabric (`net.repack`).
    Net(NetSite),
    /// A node's shared NVRAM card, its OSDs' journals (`node0.journal.flush`).
    Journal { node: u32, io: Option<Io> },
    /// Every SSD member under an OSD's RAID-0 (`osd0.data.read`).
    Data { osd: u32, io: Option<Io> },
    /// An OSD's filestore apply path (`osd0.fs.mid_apply`).
    Apply { osd: u32, point: ApplyPoint },
}

impl FaultSite {
    /// This device site narrowed to `io`; other sites have no verb.
    fn with_io(self, io: Io) -> FaultSite {
        match self {
            FaultSite::Journal { node, .. } => FaultSite::Journal { node, io: Some(io) },
            FaultSite::Data { osd, .. } => FaultSite::Data { osd, io: Some(io) },
            other => other,
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let io = |io: &Option<Io>| match io {
            None => "",
            Some(Io::Read) => ".read",
            Some(Io::Write) => ".write",
            Some(Io::Flush) => ".flush",
        };
        match self {
            FaultSite::Net(n) => f.write_str(match n {
                NetSite::Request => "net.request",
                NetSite::Reply => "net.reply",
                NetSite::Replicate => "net.replicate",
                NetSite::RepAck => "net.repack",
                NetSite::Heartbeat => "net.heartbeat",
                NetSite::Peering => "net.peering",
                NetSite::Push => "net.push",
            }),
            FaultSite::Journal { node, io: v } => write!(f, "node{node}.journal{}", io(v)),
            FaultSite::Data { osd, io: v } => write!(f, "osd{osd}.data{}", io(v)),
            FaultSite::Apply { osd, point } => match point {
                ApplyPoint::Apply => write!(f, "osd{osd}.fs.apply"),
                ApplyPoint::MidApply => write!(f, "osd{osd}.fs.mid_apply"),
            },
        }
    }
}

/// One scheduled fault: plain data, freely cloned and printed. Its site
/// and kind are set only by [`FaultSpec::new`], which rejects a pair that
/// cannot fire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Injection site this spec arms.
    site: FaultSite,
    /// Effect when it fires.
    kind: FaultKind,
    /// Matching hits to let through unharmed before the first firing.
    pub after: u64,
    /// Firings before the spec is exhausted (`u64::MAX` = permanent).
    pub count: u64,
}

impl FaultSpec {
    /// A spec firing on the first matching hit, exactly once.
    ///
    /// # Panics
    ///
    /// On a `Drop` or `Duplicate` at a device, journal or apply site:
    /// only a message can be lost or sent twice, so it would never fire.
    ///
    /// ```
    /// use afc_common::faults::{FaultKind, FaultSite, FaultSpec, Io};
    /// let spec = FaultSpec::new(FaultSite::Data { osd: 0, io: Some(Io::Write) }, FaultKind::Torn);
    /// assert_eq!(spec.after, 0);
    /// assert_eq!(spec.count, 1);
    /// ```
    pub fn new(site: FaultSite, kind: FaultKind) -> Self {
        assert!(
            matches!(site, FaultSite::Net(_))
                || !matches!(kind, FaultKind::Drop | FaultKind::Duplicate),
            "{kind:?} cannot fire at {site}: only a message is dropped or duplicated"
        );
        FaultSpec {
            site,
            kind,
            after: 0,
            count: 1,
        }
    }

    /// Let the first `n` matching hits through before firing.
    ///
    /// ```
    /// use afc_common::faults::{FaultKind, FaultSite, FaultSpec};
    /// // Fail the third write, then recover.
    /// let spec = FaultSpec::new(FaultSite::Data { osd: 0, io: None }, FaultKind::Error).after(2);
    /// assert_eq!(spec.after, 2);
    /// ```
    #[must_use]
    pub fn after(mut self, n: u64) -> Self {
        self.after = n;
        self
    }

    /// Fire `n` times before exhausting.
    ///
    /// ```
    /// use afc_common::faults::{FaultKind, FaultSite, FaultSpec, NetSite};
    /// let spec = FaultSpec::new(FaultSite::Net(NetSite::Request), FaultKind::Drop).times(3);
    /// assert_eq!(spec.count, 3);
    /// ```
    #[must_use]
    pub fn times(mut self, n: u64) -> Self {
        self.count = n;
        self
    }

    /// Fire on every matching hit, forever (a permanent fault).
    ///
    /// ```
    /// use afc_common::faults::{ApplyPoint, FaultKind, FaultSite, FaultSpec};
    /// let site = FaultSite::Apply { osd: 1, point: ApplyPoint::Apply };
    /// let spec = FaultSpec::new(site, FaultKind::Error).forever();
    /// assert_eq!(spec.count, u64::MAX);
    /// ```
    #[must_use]
    pub fn forever(mut self) -> Self {
        self.count = u64::MAX;
        self
    }
}

/// A complete, replayable fault schedule: seed + specs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for any randomized decisions a harness derives from this plan.
    pub seed: u64,
    /// The scheduled faults.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    ///
    /// ```
    /// use afc_common::faults::FaultPlan;
    /// let plan = FaultPlan::new(7);
    /// assert_eq!(plan.seed, 7);
    /// assert!(plan.specs.is_empty());
    /// ```
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: Vec::new(),
        }
    }

    /// Append a spec (builder style).
    ///
    /// ```
    /// use afc_common::faults::{FaultKind, FaultPlan, FaultSite, FaultSpec, NetSite};
    /// let plan = FaultPlan::new(7)
    ///     .with(FaultSpec::new(FaultSite::Data { osd: 0, io: None }, FaultKind::Error))
    ///     .with(FaultSpec::new(FaultSite::Net(NetSite::Push), FaultKind::Drop));
    /// assert_eq!(plan.specs.len(), 2);
    /// ```
    #[must_use]
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }
}

/// A loaded spec plus its firing counters.
#[derive(Debug)]
struct ArmedSpec {
    spec: FaultSpec,
    /// Matching hits observed so far (fired or not).
    seen: u64,
    /// Times this spec has fired.
    fired: u64,
}

impl ArmedSpec {
    fn exhausted(&self) -> bool {
        self.fired >= self.spec.count
    }
}

#[derive(Debug, Default)]
struct RegState {
    specs: Vec<ArmedSpec>,
    /// Fires per site (the spec's own site), for test assertions.
    hits: HashMap<FaultSite, u64>,
}

/// The runtime registry components consult at their injection sites.
///
/// With no specs loaded, [`check`](Self::check) is one relaxed atomic load.
pub struct FaultRegistry {
    armed: AtomicBool,
    seed: u64,
    state: TrackedMutex<RegState>,
}

impl Default for FaultRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultRegistry {
    /// An empty, disarmed registry (seed 0).
    pub fn new() -> Self {
        FaultRegistry {
            armed: AtomicBool::new(false),
            seed: 0,
            state: TrackedMutex::new(&classes::FAULTS, RegState::default()),
        }
    }

    /// A registry pre-loaded from a plan.
    pub fn from_plan(plan: &FaultPlan) -> Self {
        let reg = FaultRegistry {
            seed: plan.seed,
            ..Self::new()
        };
        for spec in &plan.specs {
            reg.install(spec.clone());
        }
        reg
    }

    /// The plan's seed, for harnesses deriving randomized decisions.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Deterministic child RNG for stream `stream` of this plan's seed.
    pub fn rng(&self, stream: u64) -> rand::rngs::StdRng {
        rng::seeded(rng::child_seed(self.seed, stream))
    }

    /// Arm one spec.
    pub fn install(&self, spec: FaultSpec) {
        let mut st = self.state.lock();
        st.specs.push(ArmedSpec {
            spec,
            seen: 0,
            fired: 0,
        });
        // ordering: `armed` is an advisory fast-path filter with Relaxed
        // readers; the specs themselves are only read under `state`, so the
        // mutex provides the real synchronization. Release is belt-and-braces
        // for the flag itself.
        self.armed.store(true, Ordering::Release);
    }

    /// Remove every spec (hit counts are preserved for assertions).
    pub fn clear(&self) {
        let mut st = self.state.lock();
        st.specs.clear();
        // ordering: see `install` — advisory filter, payload is mutex-guarded.
        self.armed.store(false, Ordering::Release);
    }

    /// Whether any spec may still fire.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// Consult the schedule at `site`. Returns the fault to apply, if one
    /// fires. Free (one relaxed load) when nothing is armed.
    #[inline]
    pub fn check(&self, site: FaultSite) -> Option<FaultKind> {
        if !self.armed.load(Ordering::Relaxed) {
            return None;
        }
        self.check_slow(site, None)
    }

    /// Like [`check`](Self::check) for an `io` at the device site `base`:
    /// a spec at the bare site (all I/O) or at the site with that verb
    /// matches.
    ///
    /// ```
    /// use afc_common::faults::{FaultKind, FaultRegistry, FaultSite, FaultSpec, Io};
    /// let reg = FaultRegistry::new();
    /// let write = FaultSite::Data { osd: 0, io: Some(Io::Write) };
    /// reg.install(FaultSpec::new(write, FaultKind::Torn).forever());
    /// let base = FaultSite::Data { osd: 0, io: None };
    /// assert_eq!(reg.check_io(base, Io::Write), Some(FaultKind::Torn));
    /// assert_eq!(reg.check_io(base, Io::Read), None);
    /// ```
    #[inline]
    pub fn check_io(&self, base: FaultSite, io: Io) -> Option<FaultKind> {
        if !self.armed.load(Ordering::Relaxed) {
            return None;
        }
        self.check_slow(base, Some(io))
    }

    fn check_slow(&self, base: FaultSite, io: Option<Io>) -> Option<FaultKind> {
        let mut st = self.state.lock();
        let mut fired: Option<(FaultSite, FaultKind)> = None;
        let mut live = false;
        for armed in &mut st.specs {
            let site = armed.spec.site;
            let matches = site == base || io.is_some_and(|io| site == base.with_io(io));
            if matches && !armed.exhausted() {
                armed.seen += 1;
                if fired.is_none() && armed.seen > armed.spec.after && !armed.exhausted() {
                    armed.fired += 1;
                    fired = Some((site, armed.spec.kind.clone()));
                }
            }
            live |= !armed.exhausted();
        }
        if let Some((site, _)) = &fired {
            *st.hits.entry(*site).or_insert(0) += 1;
        }
        if !live {
            // Everything exhausted: restore the zero-cost happy path.
            // ordering: see `install` — advisory filter, payload is mutex-guarded.
            self.armed.store(false, Ordering::Release);
        }
        fired.map(|(_, kind)| kind)
    }

    /// Times any spec declared at exactly `site` has fired.
    pub fn hits(&self, site: FaultSite) -> u64 {
        self.state.lock().hits.get(&site).copied().unwrap_or(0)
    }

    /// Total fires across all sites.
    pub fn total_hits(&self) -> u64 {
        self.state.lock().hits.values().sum()
    }
}

impl std::fmt::Debug for FaultRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultRegistry")
            .field("armed", &self.is_armed())
            .field("seed", &self.seed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: FaultSite = FaultSite::Net(NetSite::Request);
    const T: FaultSite = FaultSite::Net(NetSite::Reply);
    const DEV: FaultSite = FaultSite::Data { osd: 0, io: None };

    #[test]
    fn empty_registry_never_fires() {
        let reg = FaultRegistry::new();
        assert!(!reg.is_armed());
        assert_eq!(reg.check(S), None);
        assert_eq!(reg.total_hits(), 0);
    }

    #[test]
    fn after_and_count_window() {
        let reg = FaultRegistry::new();
        reg.install(FaultSpec::new(S, FaultKind::Error).after(2).times(2));
        assert_eq!(reg.check(S), None);
        assert_eq!(reg.check(S), None);
        assert_eq!(reg.check(S), Some(FaultKind::Error));
        assert_eq!(reg.check(S), Some(FaultKind::Error));
        assert_eq!(reg.check(S), None, "exhausted");
        assert!(!reg.is_armed(), "registry disarms once exhausted");
        assert_eq!(reg.hits(S), 2);
    }

    #[test]
    fn sites_are_independent() {
        let reg = FaultRegistry::new();
        reg.install(FaultSpec::new(S, FaultKind::Error).forever());
        assert_eq!(reg.check(T), None);
        assert_eq!(reg.check(S), Some(FaultKind::Error));
        assert_eq!(reg.hits(S), 1);
        assert_eq!(reg.hits(T), 0);
        assert!(reg.is_armed(), "forever specs never exhaust");
    }

    #[test]
    fn io_verb_matching() {
        let reg = FaultRegistry::new();
        let write = DEV.with_io(Io::Write);
        reg.install(FaultSpec::new(write, FaultKind::Torn).forever());
        reg.install(FaultSpec::new(DEV, FaultKind::Delay(Duration::from_millis(1))).forever());
        // Bare-site spec matches any verb; a verb spec only its own.
        assert_eq!(reg.check_io(DEV, Io::Write), Some(FaultKind::Torn));
        assert_eq!(
            reg.check_io(DEV, Io::Read),
            Some(FaultKind::Delay(Duration::from_millis(1)))
        );
        // Another device's I/O matches neither.
        let other = FaultSite::Data { osd: 1, io: None };
        assert_eq!(reg.check_io(other, Io::Write), None);
        // An exact check at a verb site does not see the bare spec.
        assert_eq!(reg.check(DEV.with_io(Io::Read)), None);
        assert_eq!((reg.hits(write), reg.hits(DEV)), (1, 1));
    }

    #[test]
    fn sites_print_their_dotted_names() {
        let names: Vec<String> = [
            FaultSite::Net(NetSite::RepAck),
            FaultSite::Journal {
                node: 1,
                io: Some(Io::Flush),
            },
            FaultSite::Data { osd: 12, io: None },
            FaultSite::Apply {
                osd: 3,
                point: ApplyPoint::MidApply,
            },
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        assert_eq!(
            names,
            [
                "net.repack",
                "node1.journal.flush",
                "osd12.data",
                "osd3.fs.mid_apply"
            ]
        );
    }

    #[test]
    fn a_message_fault_is_rejected_at_a_device_site() {
        let apply = FaultSite::Apply {
            osd: 0,
            point: ApplyPoint::Apply,
        };
        let journal = FaultSite::Journal {
            node: 0,
            io: Some(Io::Write),
        };
        for site in [DEV, journal, apply] {
            for kind in [FaultKind::Drop, FaultKind::Duplicate] {
                let built = std::panic::catch_unwind(|| FaultSpec::new(site, kind.clone()));
                assert!(built.is_err(), "{kind:?} at {site} was accepted");
            }
            let _ = FaultSpec::new(site, FaultKind::Error);
        }
        let _ = FaultSpec::new(S, FaultKind::Drop);
        let _ = FaultSpec::new(S, FaultKind::Duplicate);
    }

    #[test]
    fn plan_replays_identically() {
        let plan = FaultPlan::new(7)
            .with(FaultSpec::new(S, FaultKind::Error).after(1).times(3))
            .with(FaultSpec::new(T, FaultKind::Drop));
        let run = |plan: &FaultPlan| {
            let reg = FaultRegistry::from_plan(plan);
            let mut out = Vec::new();
            for _ in 0..6 {
                out.push(reg.check(S));
                out.push(reg.check(T));
            }
            out
        };
        assert_eq!(run(&plan), run(&plan));
        assert_eq!(plan.seed, 7);
    }

    #[test]
    fn clear_disarms() {
        let reg = FaultRegistry::new();
        reg.install(FaultSpec::new(S, FaultKind::Error).forever());
        assert_eq!(reg.check(S), Some(FaultKind::Error));
        reg.clear();
        assert!(!reg.is_armed());
        assert_eq!(reg.check(S), None);
        assert_eq!(reg.hits(S), 1, "hit history survives clear");
    }

    #[test]
    fn registry_rng_is_deterministic() {
        use rand::Rng;
        let a = FaultRegistry::from_plan(&FaultPlan::new(42));
        let b = FaultRegistry::from_plan(&FaultPlan::new(42));
        assert_eq!(a.rng(3).random::<u64>(), b.rng(3).random::<u64>());
    }
}
