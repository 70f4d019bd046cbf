//! Waiting for modeled time, and the ledger of what that waiting cost.
//!
//! Every simulated service time — a wire hop, an NVRAM flush, an SSD access
//! — is a thread waiting for a deadline, so the fidelity of the model is
//! bounded by how precisely a thread can wait, and the model's CPU cost by
//! how it waits. Plain `thread::sleep` is not precise enough: Linux applies
//! a default per-thread **timer slack** of 50 µs, and even with the slack
//! shrunk to 1 µs (`prctl(PR_SET_TIMERSLACK)`, once per thread) a sleeping
//! thread is woken some tens of microseconds after its timer fires. Spinning
//! is precise but burns a core.
//!
//! # The calibrated wait
//!
//! [`wait_until`] (and [`sleep_until`]/[`sleep_for`], the same wait without
//! a ledger row) therefore sleeps *short* by a reserve and spins the
//! residual. The reserve is not a constant: each thread keeps a running
//! estimate of a high quantile (3/4) of its **own measured kernel wake
//! errors** (instant it actually woke − instant it asked to be woken). The
//! kernel sleep is aimed at `deadline − estimate`; whatever is left when
//! the thread wakes is spun. The estimate starts at 60 µs, never leaves
//! `[0, 60 µs]`, moves by a fixed step of at most 1.5 µs per observation,
//! and learns only from errors it could have hidden (≤ 60 µs), so neither
//! one long stall (a descheduled guest, a neighbour's burst) nor a host
//! whose cores are saturated can drag it to the clamp. A wait shorter than the estimate is spun whole —
//! NVRAM's 8–20 µs service times cannot be slept.
//!
//! **Invariant: a wait never returns before its deadline.** When the kernel
//! wakes the thread later than the estimate allowed for, the wait returns
//! late; that lateness is reported (`model.overshoot_us`), not hidden by
//! spinning longer on every other wait.
//!
//! # The ledger
//!
//! The same function keeps the account that separates the model's CPU from
//! the software's: per [`WaitClass`], how many modeled waits there were and
//! how their wall time split into kernel sleep (costs no CPU) and spin
//! (costs a core), plus a histogram of `return time − deadline`. The
//! process-wide [`ledger`] is what the storage stack's waits are booked to;
//! `Cluster` registers it as `model.{net,nvram,ssd}.{waits,sleep_us,spin_us}`
//! and `model.overshoot_us`, so **software CPU = process CPU − Σ spin_us**.
//! A wait asked for after its deadline is no wait; it counts only in
//! `model.<class>.late`, so `waits + late` is every wait asked for.
//!
//! A thread that must be woken early when something falls due sooner (a
//! messenger delivery thread) splits the wait at its kernel sleep with
//! [`Ledger::begin`] and sleeps on its own condvar; see [`Wait`].

use crate::metrics::{Counter, Histogram, Metrics};
use std::cell::Cell;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// `prctl(2)` constants for per-thread timer slack (linux/prctl.h).
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// What a modeled wait stands for: the ledger row it is booked to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitClass {
    /// A message on the wire (messenger hop latency, Nagle delay).
    Net,
    /// The journal device.
    Nvram,
    /// A data device (SSD, RAID-0 of SSDs; also the HDD baseline).
    Ssd,
}

impl WaitClass {
    /// All classes, in ledger order.
    pub const ALL: [WaitClass; 3] = [WaitClass::Net, WaitClass::Nvram, WaitClass::Ssd];

    /// Metric-name segment (`model.<this>.spin_us`).
    pub fn metric_name(self) -> &'static str {
        match self {
            WaitClass::Net => "net",
            WaitClass::Nvram => "nvram",
            WaitClass::Ssd => "ssd",
        }
    }
}

/// Running estimate of a high quantile of one thread's kernel wake errors:
/// the reserve its next kernel sleep stops short of the deadline by.
///
/// A sign-based stochastic quantile tracker over the errors a reserve can
/// hide (those up to [`Self::MAX`]): an error above the estimate raises it
/// by `UP`, one at or below lowers it by `DOWN`, which balances where a
/// fraction `UP / (UP + DOWN)` of them fall below. The size of an error
/// never enters, only its side, so no single observation moves the
/// estimate by more than one up-step.
#[derive(Debug, Clone, Copy)]
struct WakeEstimator {
    reserve_ns: u32,
}

impl WakeEstimator {
    /// Upper clamp and starting value: the reserve every wait paid before
    /// the estimate existed. A host whose wake errors are worse than this
    /// returns late rather than spinning longer.
    const MAX_NS: u32 = 60_000;
    const MAX: Duration = Duration::from_nanos(Self::MAX_NS as u64);
    /// Steps up and down. Their ratio sets the tracked quantile,
    /// `UP / (UP + DOWN)` = 3/4. Higher buys punctuality with spin: on the
    /// reference host 3/4 keeps the repo benchmark's median op latency
    /// within a few percent of what the fixed 60 µs reserve gave, 2/3 and
    /// 1/2 do not (EXPERIMENTS.md, "Where the CPU goes: the model's spin").
    const UP_NS: u32 = 1_500;
    const DOWN_NS: u32 = 500;

    const fn new() -> Self {
        WakeEstimator {
            reserve_ns: Self::MAX_NS,
        }
    }

    fn reserve(self) -> Duration {
        Duration::from_nanos(u64::from(self.reserve_ns))
    }

    /// Account one measured wake error. An error beyond [`Self::MAX`] is
    /// no evidence: no reserve this estimator may choose would have hidden
    /// it, and counting it pins every thread of a host with saturated cores
    /// at the clamp — where the spinning itself helps keep them saturated.
    fn observe(&mut self, err: Duration) {
        if err > Self::MAX {
            return;
        }
        self.reserve_ns = if err > self.reserve() {
            (self.reserve_ns + Self::UP_NS).min(Self::MAX_NS)
        } else {
            self.reserve_ns.saturating_sub(Self::DOWN_NS)
        };
    }
}

/// Per-thread wait state.
#[derive(Clone, Copy)]
struct Waiter {
    /// Timer slack already shrunk on this thread.
    tightened: bool,
    est: WakeEstimator,
}

thread_local! {
    static WAITER: Cell<Waiter> = const {
        Cell::new(Waiter { tightened: false, est: WakeEstimator::new() })
    };
}

/// One [`WaitClass`]'s row of a [`Ledger`].
#[derive(Debug, Default)]
pub struct ClassLedger {
    /// Waits whose deadline was still ahead when they were asked for.
    pub waits: Counter,
    /// Wall time those waits spent in kernel sleep, microseconds, plus
    /// the sleep of split waits that were cut short ([`Wait::interrupted`]).
    pub sleep_us: Counter,
    /// Wall time those waits spent spinning — CPU the model burned.
    pub spin_us: Counter,
    /// Waits asked for after their deadline had passed: no wait, nothing
    /// else booked. `waits + late` counts every wait asked for.
    pub late: Counter,
}

/// Account of modeled waits: per class, their count and how their wall
/// time split into sleep and spin; over all classes, how late they
/// returned. See the module docs.
#[derive(Debug, Default)]
pub struct Ledger {
    classes: [ClassLedger; 3],
    /// `return time − deadline` of every counted wait.
    pub overshoot_us: Histogram,
}

impl Ledger {
    /// The row of `class`.
    pub fn class(&self, class: WaitClass) -> &ClassLedger {
        &self.classes[class as usize]
    }

    /// Register as `model.<class>.{waits,sleep_us,spin_us,late}` and
    /// `model.overshoot_us`.
    pub fn register_into(&self, m: &Metrics) {
        for class in WaitClass::ALL {
            let (row, name) = (self.class(class), class.metric_name());
            m.register_counter(format!("model.{name}.waits"), &row.waits);
            m.register_counter(format!("model.{name}.sleep_us"), &row.sleep_us);
            m.register_counter(format!("model.{name}.spin_us"), &row.spin_us);
            m.register_counter(format!("model.{name}.late"), &row.late);
        }
        m.register_histogram("model.overshoot_us", &self.overshoot_us);
    }

    /// Wait until `deadline` (see the module docs), booking the wait to
    /// `class` in this ledger. Returns at once, counted only as `late`,
    /// when the deadline has already passed.
    pub fn wait_until(&self, class: WaitClass, deadline: Instant) {
        match calibrated_wait(deadline) {
            Some(w) => self.book(class, deadline, w),
            None => self.class(class).late.inc(),
        }
    }

    /// Start a wait for `deadline` whose kernel sleep the caller performs
    /// itself, on a condvar it can be woken from (see [`Wait`]). `None`
    /// when the deadline has already passed: no wait, counted only as
    /// `late`.
    pub fn begin(&self, class: WaitClass, deadline: Instant) -> Option<Wait<'_>> {
        let Some(sleep) = Sleep::plan(deadline) else {
            self.class(class).late.inc();
            return None;
        };
        Some(Wait {
            ledger: self,
            class,
            deadline,
            sleep,
        })
    }

    fn book(&self, class: WaitClass, deadline: Instant, w: Waited) {
        let row = self.class(class);
        row.waits.inc();
        row.sleep_us.add(round_us(w.woke - w.start));
        row.spin_us.add(round_us(w.end - w.woke));
        self.overshoot_us.observe(w.end - deadline);
    }
}

/// A calibrated wait split at its kernel sleep, for a thread that must be
/// woken early when something falls due before `deadline` (a messenger
/// delivery thread). The caller sleeps until [`Self::sleep_target`] on its
/// own condvar, then either [`Self::finish`]es (spin the residual, book
/// one wait) or, woken early, calls [`Self::interrupted`]: the time slept
/// is booked as sleep, but no wait is counted and nothing is spun.
#[must_use = "a begun wait is finished or interrupted"]
pub struct Wait<'a> {
    ledger: &'a Ledger,
    class: WaitClass,
    deadline: Instant,
    sleep: Sleep,
}

impl Wait<'_> {
    /// Where the kernel sleep should end: the deadline less this thread's
    /// wake-error estimate. `None` when the wait is too short to sleep.
    pub fn sleep_target(&self) -> Option<Instant> {
        self.sleep.target
    }

    /// The kernel sleep reached its target (or there was none): learn the
    /// wake error, spin to the deadline, book the wait. Never returns
    /// before the deadline.
    pub fn finish(self) {
        let waited = self.sleep.spin(self.deadline);
        self.ledger.book(self.class, self.deadline, waited);
    }

    /// The kernel sleep was cut short; the caller re-plans.
    pub fn interrupted(self) {
        let slept = self.sleep.start.elapsed();
        self.ledger.class(self.class).sleep_us.add(round_us(slept));
    }
}

/// The process-wide ledger the storage stack's modeled waits are booked to.
pub fn ledger() -> &'static Ledger {
    static LEDGER: OnceLock<Ledger> = OnceLock::new();
    LEDGER.get_or_init(Ledger::default)
}

/// Nearest microsecond: unbiased, so per-wait rounding does not accumulate
/// in the ledger's sums the way truncation would.
fn round_us(d: Duration) -> u64 {
    (d.as_nanos() as u64 + 500) / 1_000
}

/// The instants of one wait: asked, woken from the kernel sleep (= `start`
/// when the wait was too short to sleep), returned.
struct Waited {
    start: Instant,
    woke: Instant,
    end: Instant,
}

/// The one wait primitive, in two halves around the kernel sleep: plan it
/// to `deadline −` this thread's wake-error estimate; after it, feed the
/// estimate the error just measured and spin the residual.
struct Sleep {
    start: Instant,
    target: Option<Instant>,
}

impl Sleep {
    /// `None` when `deadline` is not in the future.
    fn plan(deadline: Instant) -> Option<Sleep> {
        let start = Instant::now();
        if deadline <= start {
            return None;
        }
        let reserve = WAITER.with(|cell| {
            let mut w = cell.get();
            if !w.tightened {
                // SAFETY: PR_SET_TIMERSLACK takes an integer argument and
                // touches only the calling thread's timer slack. Best
                // effort: a failure just means this thread's wake errors
                // stay coarse.
                unsafe { prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0) };
                w.tightened = true;
                cell.set(w);
            }
            w.est.reserve()
        });
        let target = (deadline - start > reserve).then(|| deadline - reserve);
        Some(Sleep { start, target })
    }

    /// Called once the kernel sleep to `target` is over.
    fn spin(self, deadline: Instant) -> Waited {
        let woke = match self.target {
            Some(target) => {
                let woke = Instant::now();
                WAITER.with(|cell| {
                    let mut w = cell.get();
                    w.est.observe(woke.saturating_duration_since(target));
                    cell.set(w);
                });
                woke
            }
            None => self.start,
        };
        let mut end = woke;
        while end < deadline {
            std::hint::spin_loop();
            end = Instant::now();
        }
        Waited {
            start: self.start,
            woke,
            end,
        }
    }
}

fn calibrated_wait(deadline: Instant) -> Option<Waited> {
    let s = Sleep::plan(deadline)?;
    if let Some(target) = s.target {
        std::thread::sleep(target - s.start);
    }
    Some(s.spin(deadline))
}

/// Wait until `deadline` for a modeled event of `class`, booked to the
/// process-wide [`ledger`]. Never returns before `deadline`.
#[inline]
pub fn wait_until(class: WaitClass, deadline: Instant) {
    ledger().wait_until(class, deadline);
}

/// Wait until `deadline` with the calibrated wait, booked nowhere (pacing,
/// polling — waits that are not modeled service time). No-op if already
/// past; never returns before `deadline`.
pub fn sleep_until(deadline: Instant) {
    calibrated_wait(deadline);
}

/// [`sleep_until`] `d` from now. Zero-duration calls return immediately.
#[inline]
pub fn sleep_for(d: Duration) {
    if d > Duration::ZERO {
        sleep_until(Instant::now() + d);
    }
}

/// Format a duration compactly for table output: `842us`, `3.2ms`, `1.75s`.
pub fn fmt_dur(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}us")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::mix64;

    const US: Duration = Duration::from_micros(1);

    #[test]
    fn sleep_for_zero_is_instant() {
        let t = Instant::now();
        sleep_for(Duration::ZERO);
        assert!(t.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn sleep_for_waits_at_least_requested() {
        let t = Instant::now();
        sleep_for(Duration::from_millis(10));
        assert!(t.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn past_deadline_returns_counted_late_only() {
        let l = Ledger::default();
        let past = Instant::now() - Duration::from_secs(1);
        l.wait_until(WaitClass::Net, past);
        assert!(l.begin(WaitClass::Net, past).is_none());
        let net = l.class(WaitClass::Net);
        assert_eq!((net.waits.get(), net.late.get()), (0, 2));
        assert_eq!(net.sleep_us.get() + net.spin_us.get(), 0);
        assert_eq!(l.overshoot_us.count(), 0);
    }

    #[test]
    fn concurrent_waits_never_return_early() {
        let l = Ledger::default();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let l = &l;
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        let d = US * (30 + (mix64(t << 32 | i) % 271) as u32);
                        let deadline = Instant::now() + d;
                        l.wait_until(WaitClass::ALL[(i % 3) as usize], deadline);
                        let now = Instant::now();
                        assert!(now >= deadline, "returned {:?} early", deadline - now);
                    }
                });
            }
        });
        // Not `== 4_000`: a thread descheduled between choosing its deadline
        // and asking for it finds the deadline passed, which is no wait.
        let waits: u64 = WaitClass::ALL.iter().map(|&c| l.class(c).waits.get()).sum();
        assert!(waits <= 4_000 && l.overshoot_us.count() == waits);
    }

    /// Drive an estimator with errors drawn uniformly from `[0, max_us)`.
    fn feed_uniform(e: &mut WakeEstimator, n: u64, max_us: u64, seed: u64) {
        for i in 0..n {
            e.observe(Duration::from_nanos(mix64(seed ^ i) % (max_us * 1_000)));
            assert!(e.reserve() <= WakeEstimator::MAX);
        }
    }

    #[test]
    fn estimator_starts_at_the_old_reserve_and_finds_the_quantile() {
        let mut e = WakeEstimator::new();
        assert_eq!(e.reserve(), 60 * US);
        // Uniform on [0, 40 µs): the 3/4 quantile is 30 µs.
        feed_uniform(&mut e, 4_000, 40, 1);
        let r = e.reserve();
        assert!(r > 22 * US && r < 38 * US, "{r:?}");
        // The distribution shifts (a busier host): the estimate follows.
        // Uniform on [0, 56 µs): 42 µs.
        feed_uniform(&mut e, 4_000, 56, 2);
        let r = e.reserve();
        assert!(r > 34 * US && r < 50 * US, "{r:?}");
    }

    #[test]
    fn estimator_outliers_are_capped_and_range_is_clamped() {
        let mut e = WakeEstimator::new();
        feed_uniform(&mut e, 4_000, 40, 3);
        let before = e.reserve();
        let cap = Duration::from_nanos(u64::from(WakeEstimator::UP_NS));
        // A hideable error above the estimate moves it one up-step…
        e.observe(WakeEstimator::MAX);
        assert_eq!(e.reserve() - before, cap);
        // …a 5 ms outlier, or a thousand (a saturated host), by nothing.
        let before = e.reserve();
        for _ in 0..1_000 {
            e.observe(Duration::from_millis(5));
        }
        assert_eq!(e.reserve(), before);
        // Errors all at the edge of what can be hidden pin it at the
        // clamp, never beyond…
        for _ in 0..1_000 {
            e.observe(WakeEstimator::MAX);
            assert!(e.reserve() <= WakeEstimator::MAX);
        }
        assert!(e.reserve() > WakeEstimator::MAX - 2 * US);
        // …and errors that are all zero take it to zero, never below.
        for _ in 0..1_000 {
            e.observe(Duration::ZERO);
        }
        assert_eq!(e.reserve(), Duration::ZERO);
    }

    #[test]
    fn ledger_conserves_counts_and_time() {
        let l = Ledger::default();
        let (mut future, mut wall) = (0u64, Duration::ZERO);
        for i in 0..600u64 {
            let now = Instant::now();
            // Every third deadline is already past: not a wait.
            let deadline = if i % 3 == 0 {
                now - US
            } else {
                future += 1;
                now + US * (10 + (mix64(i) % 200) as u32)
            };
            l.wait_until(WaitClass::Ssd, deadline);
            if deadline > now {
                wall += now.elapsed();
            }
        }
        let row = l.class(WaitClass::Ssd);
        // A deadline that was ahead when this loop read the clock can have
        // passed by the time the wait reads it (this thread descheduled in
        // between): rarely one wait fewer, never one more.
        let waits = row.waits.get();
        assert!(
            waits <= future && waits * 100 >= future * 99,
            "{waits} of {future}"
        );
        assert_eq!(l.overshoot_us.count(), waits);
        assert_eq!(l.class(WaitClass::Net).waits.get(), 0);
        let booked = (row.sleep_us.get() + row.spin_us.get()) as f64;
        let wall = wall.as_secs_f64() * 1e6;
        assert!(
            (booked - wall).abs() < 0.05 * wall,
            "booked {booked} µs of {wall} µs waited"
        );
    }

    #[test]
    fn split_wait_is_never_early_and_an_interrupted_one_is_no_wait() {
        let l = Ledger::default();
        let deadline = Instant::now() + Duration::from_millis(1);
        let w = l.begin(WaitClass::Net, deadline).unwrap();
        let target = w.sleep_target().expect("1 ms is long enough to sleep");
        assert!(target < deadline);
        std::thread::sleep(target.saturating_duration_since(Instant::now()));
        w.finish();
        assert!(Instant::now() >= deadline);
        let net = l.class(WaitClass::Net);
        assert_eq!((net.waits.get(), l.overshoot_us.count()), (1, 1));
        let slept = net.sleep_us.get();
        let w = l.begin(WaitClass::Net, Instant::now() + Duration::from_millis(50));
        std::thread::sleep(Duration::from_millis(2));
        w.unwrap().interrupted();
        assert_eq!((net.waits.get(), l.overshoot_us.count()), (1, 1));
        assert!(net.sleep_us.get() >= slept + 2_000);
        assert!(l.begin(WaitClass::Net, Instant::now() - US).is_none());
    }

    #[test]
    fn ledger_registers_every_row() {
        let m = Metrics::new();
        let l = Ledger::default();
        l.register_into(&m);
        l.wait_until(WaitClass::Nvram, Instant::now() + 5 * US);
        let s = m.snapshot();
        assert_eq!(s.counter("model.nvram.waits"), Some(1));
        assert_eq!(s.counter("model.net.spin_us"), Some(0));
        assert_eq!(s.counter("model.ssd.sleep_us"), Some(0));
        assert_eq!(s.histogram("model.overshoot_us").map(|h| h.count), Some(1));
    }

    #[test]
    fn fmt_dur_ranges() {
        assert_eq!(fmt_dur(Duration::from_micros(842)), "842us");
        assert_eq!(fmt_dur(Duration::from_micros(3_200)), "3.20ms");
        assert_eq!(fmt_dur(Duration::from_micros(1_750_000)), "1.75s");
    }
}
