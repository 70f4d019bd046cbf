//! The load generator: one thread, closed or open loop, lost-op proof.
//!
//! It drives a [`Target`] — the cluster in production, a virtual-time fake
//! in the tests — and owns every decision that makes a run repeatable:
//!
//! - every op has a deadline; an op unanswered by then is *failed*, its
//!   slot is recycled and the run goes on, so a lost reply costs one slot
//!   for one deadline and never the run;
//! - the measured phase is cut into windows closed by the generator itself,
//!   each carrying its own op count and process-CPU delta;
//! - an open-loop op is timed from the moment it was *due*, so a stall is
//!   charged to every op that queued behind it, and how late the generator
//!   itself ran is recorded beside it;
//! - if nothing completes for [`GenConfig::stall_ns`] the run ends with what
//!   it has and says so.

use crate::estimators::Window;
use crate::workload::{Op, OpStream, Pacing};
use std::collections::VecDeque;

/// Nanoseconds on the target's monotonic clock.
pub type Nanos = u64;

/// Points in a run at which the target records its own state (metric
/// snapshots), so counters are cut at the same boundaries as the windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// Warm-up is over; the first window opens.
    MeasureStart,
    /// The last window closed; the drain begins.
    MeasureEnd,
}

/// What the generator drives. All time the generator sees comes from here,
/// so a fake target can run it in virtual time.
pub trait Target {
    /// An op in flight.
    type Handle;
    /// Monotonic clock.
    fn now(&self) -> Nanos;
    /// Block until the clock reads at least `t`.
    fn sleep_until(&mut self, t: Nanos);
    /// Send `op`. `None` means the target refused it outright (failed op).
    fn submit(&mut self, op: &Op) -> Option<Self::Handle>;
    /// Block until `h` completes or the clock reads `until`. `Some(true)`:
    /// completed with the right output; `Some(false)`: completed wrong or
    /// with an error; `None`: still pending.
    fn wait(&mut self, h: &Self::Handle, until: Nanos) -> Option<bool>;
    /// [`Target::wait`] without blocking.
    fn try_wait(&mut self, h: &Self::Handle) -> Option<bool>;
    /// Process CPU so far, ns.
    fn cpu_ns(&mut self) -> u64;
    /// CPU time the hypervisor has taken from this guest so far, ticks.
    fn steal_ticks(&mut self) -> u64 {
        0
    }
    /// Called at each [`Mark`].
    fn mark(&mut self, _mark: Mark) {}
}

/// Parameters of one generator run.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Closed loop with a queue depth, or open loop with a rate.
    pub pacing: Pacing,
    /// Discarded lead-in.
    pub warmup_ns: Nanos,
    /// Nominal window length.
    pub window_ns: Nanos,
    /// Windows in the measured phase.
    pub windows: usize,
    /// An op unanswered this long after it was sent is failed.
    pub deadline_ns: Nanos,
    /// An op unanswered this long is no longer blocked on while younger
    /// ops are in flight (see [`Run::reap`]). Far above any healthy latency.
    pub suspect_ns: Nanos,
    /// The run ends early if nothing completes for this long.
    pub stall_ns: Nanos,
    /// Open loop only: an op due while this many are outstanding is
    /// refused (failed) instead of sent, so a dead system cannot grow the
    /// generator's own queue without bound.
    pub max_outstanding: usize,
    /// Keep one [`OpSpan`] per op (the traced run).
    pub record_spans: bool,
}

/// Per-op deadline of every real run.
pub const OP_DEADLINE_NS: Nanos = 2_000_000_000;
/// Suspect age of every real run.
pub const SUSPECT_NS: Nanos = 20_000_000;
/// Stall limit of every real run.
pub const STALL_NS: Nanos = 10_000_000_000;
/// Open-loop cap on outstanding ops.
pub const MAX_OUTSTANDING: usize = 512;

/// The life of one op as the client saw it; three spans share its `id`:
/// `op` = `[due, complete]`, and its children `client.submit` =
/// `[submit_start, submit_end]` and `client.wait` = `[submit_end, complete]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpan {
    /// Op number within the run.
    pub id: u64,
    /// The op.
    pub op: Op,
    /// When the op was due (closed loop: when its slot came free).
    pub due: Nanos,
    /// Entry to `submit`.
    pub submit_start: Nanos,
    /// Return from `submit`.
    pub submit_end: Nanos,
    /// When the generator observed the completion (or gave the op up).
    pub complete: Nanos,
    /// Completed with the right output.
    pub ok: bool,
}

/// What a run measured. Latencies and counts cover the measured phase only.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// The closed windows, in order.
    pub windows: Vec<Window>,
    /// Ops issued (or refused) in the measured phase.
    pub attempted: u64,
    /// Of those, ops that failed: error, wrong output, refused, or no
    /// answer within the deadline.
    pub failed: u64,
    /// Of the failed, ops that got no answer within the deadline.
    pub timed_out: u64,
    /// Latency of each op completed in the measured phase, ns: from submit
    /// (closed loop) or from its due time (open loop) to the observed
    /// completion.
    pub latencies_ns: Vec<u64>,
    /// Time inside `submit` for each op issued in the measured phase, ns.
    pub submit_ns: Vec<u64>,
    /// Open loop: how long after its due time each op was sent, ns.
    pub late_ns: Vec<u64>,
    /// One span record per op of the measured phase, if asked for.
    pub spans: Vec<OpSpan>,
    /// Ops completed with the right output in any phase: warm-up, measured
    /// phase and drain. What the cluster did between two drained states.
    pub completed_all: u64,
    /// Clock at [`Mark::MeasureStart`] and [`Mark::MeasureEnd`].
    pub measured: (Nanos, Nanos),
    /// The run was cut short because nothing completed for the stall limit.
    pub stalled: bool,
}

impl RunStats {
    /// Ops completed with the right output inside the windows.
    pub fn completed(&self) -> u64 {
        self.windows.iter().map(|w| w.completed).sum()
    }

    /// The windows at `indices` and the latencies of the ops completed in
    /// them. (Each completed op adds one latency, in completion order, so a
    /// window's samples follow those of the windows before it.)
    pub fn select(&self, indices: &[usize]) -> (Vec<Window>, Vec<u64>) {
        let mut starts = Vec::with_capacity(self.windows.len());
        let mut at = 0;
        for w in &self.windows {
            starts.push(at);
            at += w.completed as usize;
        }
        let windows = indices.iter().map(|&i| self.windows[i]).collect();
        let latencies = indices
            .iter()
            .flat_map(|&i| {
                &self.latencies_ns[starts[i]..starts[i] + self.windows[i].completed as usize]
            })
            .copied()
            .collect();
        (windows, latencies)
    }
}

struct InFlight<H> {
    handle: H,
    id: u64,
    op: Op,
    due: Nanos,
    submit_start: Nanos,
    submit_end: Nanos,
    /// Issued inside the measured phase: counts as attempted.
    measured: bool,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warmup,
    Measure,
    Drain,
}

struct Run<'a, T: Target> {
    target: &'a mut T,
    cfg: &'a GenConfig,
    stats: RunStats,
    phase: Phase,
    /// Nominal end of the current phase segment (warm-up or window).
    boundary: Nanos,
    window_start: Nanos,
    window_cpu: u64,
    window_steal: u64,
    window_completed: u64,
    last_progress: Nanos,
    inflight: VecDeque<InFlight<T::Handle>>,
    next_id: u64,
}

impl<T: Target> Run<'_, T> {
    /// Close the warm-up or the current window if the clock has passed its
    /// nominal end. Waits are capped at `boundary`, so at most one segment
    /// ends per call.
    fn roll(&mut self, now: Nanos) {
        if self.phase == Phase::Drain || now < self.boundary {
            return;
        }
        let cpu = self.target.cpu_ns();
        let steal = self.target.steal_ticks();
        if self.phase == Phase::Warmup {
            self.phase = Phase::Measure;
            self.target.mark(Mark::MeasureStart);
            self.stats.measured.0 = now;
        } else {
            self.stats.windows.push(Window {
                len_ns: now - self.window_start,
                completed: self.window_completed,
                cpu_ns: cpu - self.window_cpu,
                steal_ticks: steal - self.window_steal,
            });
            if self.stats.windows.len() == self.cfg.windows {
                self.phase = Phase::Drain;
                self.target.mark(Mark::MeasureEnd);
                self.stats.measured.1 = now;
            }
        }
        self.window_start = now;
        self.window_cpu = cpu;
        self.window_steal = steal;
        self.window_completed = 0;
        self.boundary += self.cfg.window_ns;
    }

    fn issue(&mut self, op: Op, due: Nanos) {
        let measured = self.phase == Phase::Measure;
        let id = self.next_id;
        self.next_id += 1;
        if measured {
            self.stats.attempted += 1;
        }
        if self.inflight.len() >= self.cfg.max_outstanding {
            if measured {
                self.stats.failed += 1;
            }
            return;
        }
        let submit_start = self.target.now();
        let handle = self.target.submit(&op);
        let submit_end = self.target.now();
        if measured {
            self.stats.submit_ns.push(submit_end - submit_start);
            if matches!(self.cfg.pacing, Pacing::Open { .. }) {
                self.stats.late_ns.push(submit_start - due);
            }
        }
        let Some(handle) = handle else {
            if measured {
                self.stats.failed += 1;
            }
            return;
        };
        self.inflight.push_back(InFlight {
            handle,
            id,
            op,
            due,
            submit_start,
            submit_end,
            measured,
        });
    }

    /// Book the end of `f`: completed (`Some(ok)`) or given up (`None`).
    fn resolve(&mut self, f: InFlight<T::Handle>, outcome: Option<bool>, now: Nanos) {
        let ok = outcome == Some(true);
        if outcome.is_some() {
            self.last_progress = now;
        }
        if ok {
            self.stats.completed_all += 1;
        }
        if ok && self.phase == Phase::Measure {
            self.window_completed += 1;
            let from = match self.cfg.pacing {
                Pacing::Closed { .. } => f.submit_start,
                Pacing::Open { .. } => f.due,
            };
            self.stats.latencies_ns.push(now - from);
        }
        if f.measured {
            if !ok {
                self.stats.failed += 1;
                if outcome.is_none() {
                    self.stats.timed_out += 1;
                }
            }
            if self.cfg.record_spans {
                self.stats.spans.push(OpSpan {
                    id: f.id,
                    op: f.op,
                    due: f.due,
                    submit_start: f.submit_start,
                    submit_end: f.submit_end,
                    complete: now,
                    ok,
                });
            }
        }
    }

    /// Block on one op until it completes or `until`, then sweep the rest
    /// without blocking and give up the ones past their deadline.
    ///
    /// The op blocked on is the oldest one still younger than
    /// `suspect_ns`: blocking on a lost op until its deadline would idle
    /// every other slot for as long, so an op that old is only polled — and
    /// blocked on again only when nothing younger is in flight.
    fn reap(&mut self, until: Nanos) {
        let now = self.target.now();
        let suspect = |f: &InFlight<T::Handle>| now >= f.submit_start + self.cfg.suspect_ns;
        let pick = self.inflight.iter().position(|f| !suspect(f)).unwrap_or(0);
        let Some(f) = self.inflight.get(pick) else {
            return;
        };
        let limit = if suspect(f) {
            f.submit_start + self.cfg.deadline_ns
        } else {
            f.submit_start + self.cfg.suspect_ns
        };
        if let Some(ok) = self.target.wait(&f.handle, until.min(limit)) {
            let now = self.target.now();
            let f = self.inflight.remove(pick).expect("index in range");
            self.resolve(f, Some(ok), now);
        }
        let mut i = 0;
        while i < self.inflight.len() {
            let f = &self.inflight[i];
            let outcome = self.target.try_wait(&f.handle);
            let now = self.target.now();
            if outcome.is_some() || now >= f.submit_start + self.cfg.deadline_ns {
                let f = self.inflight.remove(i).expect("index in range");
                self.resolve(f, outcome, now);
            } else {
                i += 1;
            }
        }
    }
}

/// Run `ops` against `target` as `cfg` says: warm up, measure
/// `cfg.windows` windows, then wait out what is still in flight.
pub fn run<T: Target>(target: &mut T, cfg: &GenConfig, ops: &mut OpStream) -> RunStats {
    let t0 = target.now();
    let cpu0 = target.cpu_ns();
    let mut run = Run {
        target,
        cfg,
        stats: RunStats::default(),
        phase: Phase::Warmup,
        boundary: t0 + cfg.warmup_ns,
        window_start: t0,
        window_cpu: cpu0,
        window_steal: 0,
        window_completed: 0,
        last_progress: t0,
        inflight: VecDeque::new(),
        next_id: 0,
    };
    // Open loop: op i is due at t0 + i × interval, exactly.
    let mut sent: u64 = 0;
    let due_of = |i: u64, rate: u32| t0 + i * 1_000_000_000 / u64::from(rate);

    loop {
        let now = run.target.now();
        run.roll(now);
        if run.phase == Phase::Drain {
            break;
        }
        if now - run.last_progress > cfg.stall_ns {
            run.stats.stalled = true;
            break;
        }
        match cfg.pacing {
            Pacing::Closed { qd } => {
                for _ in run.inflight.len()..qd {
                    let due = run.target.now();
                    run.issue(ops.next_op(), due);
                }
                if run.inflight.is_empty() {
                    // Every submit was refused: retry at a bounded rate
                    // until the stall limit ends the run.
                    run.target.sleep_until(now + 1_000_000);
                } else {
                    run.reap(run.boundary);
                }
            }
            Pacing::Open { rate } => {
                while due_of(sent, rate) <= now {
                    run.issue(ops.next_op(), due_of(sent, rate));
                    sent += 1;
                }
                let next = due_of(sent, rate).min(run.boundary);
                if run.inflight.is_empty() {
                    run.target.sleep_until(next);
                    // An idle open loop is not a stalled system.
                    run.last_progress = run.target.now();
                } else {
                    run.reap(next);
                }
            }
        }
    }
    // Drain: every op still in flight is followed to its answer or its
    // deadline, so `failed` is exact.
    while !run.inflight.is_empty() {
        run.reap(Nanos::MAX);
    }
    run.stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::{median, window_cpu_us_per_op, window_ops_per_s};
    use crate::workload;

    const US: Nanos = 1_000;
    const MS: Nanos = 1_000_000;

    /// A target in virtual time: each op completes `service` after its
    /// submit, except every `lose_every`-th, which never does. `submit`
    /// costs `submit_cost`, once `stall_at` is reached one submit stalls
    /// for `stall_for`. CPU advances 10 µs per completed wait.
    struct Fake {
        clock: Nanos,
        service: Nanos,
        submit_cost: Nanos,
        lose_every: Option<u64>,
        stall_at: Option<Nanos>,
        stall_for: Nanos,
        submitted: u64,
        lost: Vec<u64>,
        cpu: u64,
        marks: Vec<(Mark, Nanos)>,
    }

    impl Fake {
        fn new(service: Nanos) -> Self {
            Fake {
                clock: 0,
                service,
                submit_cost: 2 * US,
                lose_every: None,
                stall_at: None,
                stall_for: 0,
                submitted: 0,
                lost: Vec::new(),
                cpu: 0,
                marks: Vec::new(),
            }
        }
    }

    /// Completion time; `None` for a lost op.
    type FakeHandle = Option<Nanos>;

    impl Target for Fake {
        type Handle = FakeHandle;
        fn now(&self) -> Nanos {
            self.clock
        }
        fn sleep_until(&mut self, t: Nanos) {
            self.clock = self.clock.max(t);
        }
        fn submit(&mut self, _op: &Op) -> Option<FakeHandle> {
            let n = self.submitted;
            self.submitted += 1;
            if self.stall_at.is_some_and(|at| self.clock >= at) {
                self.stall_at = None;
                self.clock += self.stall_for;
            }
            self.clock += self.submit_cost;
            if self.lose_every.is_some_and(|k| n % k == k - 1) {
                self.lost.push(n);
                return Some(None);
            }
            Some(Some(self.clock + self.service))
        }
        fn wait(&mut self, h: &FakeHandle, until: Nanos) -> Option<bool> {
            match *h {
                Some(done) if done <= until => {
                    self.clock = self.clock.max(done);
                    self.cpu += 10 * US;
                    Some(true)
                }
                _ => {
                    self.clock = self.clock.max(until);
                    None
                }
            }
        }
        fn try_wait(&mut self, h: &FakeHandle) -> Option<bool> {
            h.filter(|done| *done <= self.clock).map(|_| true)
        }
        fn cpu_ns(&mut self) -> u64 {
            self.cpu
        }
        fn mark(&mut self, mark: Mark) {
            self.marks.push((mark, self.clock));
        }
    }

    fn cfg(pacing: Pacing) -> GenConfig {
        GenConfig {
            pacing,
            warmup_ns: 100 * MS,
            window_ns: 100 * MS,
            windows: 20,
            deadline_ns: 50 * MS,
            suspect_ns: 5 * MS,
            stall_ns: 500 * MS,
            max_outstanding: MAX_OUTSTANDING,
            record_spans: true,
        }
    }

    fn stream(name: &str) -> OpStream {
        OpStream::new(workload::by_name(name).unwrap(), 1)
    }

    #[test]
    fn closed_loop_runs_warmup_windows_and_drain() {
        let mut t = Fake::new(198 * US);
        let c = cfg(Pacing::Closed { qd: 1 });
        let s = run(&mut t, &c, &mut stream("w4k_qd1"));
        assert_eq!(s.windows.len(), 20);
        assert!(!s.stalled);
        assert_eq!(s.failed, 0);
        // 200 µs per op at QD1: 5 000 ops/s, 500 per 100 ms window.
        let rate = window_ops_per_s(&s.windows).unwrap();
        assert!((rate - 5_000.0).abs() < 15.0, "{rate}");
        assert_eq!(s.latencies_ns.len() as u64, s.completed());
        // The warm-up's ops and the drain's are counted once, outside the windows.
        assert_eq!(s.completed_all, t.submitted);
        assert!((s.completed_all - s.completed()).abs_diff(500) <= 2);
        assert!(s.latencies_ns.iter().all(|l| *l == 200 * US));
        assert!(s.submit_ns.iter().all(|l| *l == 2 * US));
        // Marks sit at the measured phase's ends, and the phase is as long
        // as asked (a window closes at the first event past its end).
        assert_eq!(t.marks.len(), 2);
        assert_eq!(t.marks[0], (Mark::MeasureStart, s.measured.0));
        assert_eq!(t.marks[1], (Mark::MeasureEnd, s.measured.1));
        let len = s.measured.1 - s.measured.0;
        assert!((2_000 * MS..2_001 * MS).contains(&len), "{len}");
        // Windows can be picked with their own latencies.
        let (w, l) = s.select(&[0, 19]);
        assert_eq!(w, [s.windows[0], s.windows[19]]);
        assert_eq!(
            l.len() as u64,
            s.windows[0].completed + s.windows[19].completed
        );
        // Warm-up ops are neither attempted nor traced.
        assert!(s.attempted.abs_diff(s.completed()) <= 1);
        assert_eq!(s.spans.len() as u64, s.attempted);
        assert!(s.spans.iter().all(|p| p.due >= s.measured.0));
    }

    #[test]
    fn each_window_carries_its_own_cpu() {
        // The fake burns 10 µs per completed op, so a window's CPU must
        // follow its own op count whatever happens in the other windows.
        let mut t = Fake::new(500 * US);
        let c = cfg(Pacing::Closed { qd: 4 });
        let s = run(&mut t, &c, &mut stream("w4k_qd16"));
        for w in &s.windows {
            assert!(w.cpu_ns.abs_diff(w.completed * 10 * US) <= 10 * US, "{w:?}");
        }
        let cost = window_cpu_us_per_op(&s.windows).unwrap();
        assert!((cost - 10.0).abs() < 0.1, "{cost}");
    }

    #[test]
    fn lost_ops_fail_on_time_and_do_not_move_the_rate() {
        let run_with = |lose_every| {
            let mut t = Fake::new(1_000 * US);
            t.lose_every = lose_every;
            let c = cfg(Pacing::Closed { qd: 16 });
            let s = run(&mut t, &c, &mut stream("w4k_qd16"));
            (s, t)
        };
        let (clean, _) = run_with(None);
        let (lossy, fake) = run_with(Some(5_000));
        assert_eq!(clean.failed, 0);
        assert!(!lossy.stalled);
        // The run ends on time: the drain waits for no more than one deadline.
        assert!(fake.clock <= lossy.measured.1 + 50 * MS + MS);
        // Exactly the lost ops issued in the measured phase are failed, all
        // of them by timeout, each after one deadline.
        let lost_measured: Vec<u64> = lossy.spans.iter().filter(|p| !p.ok).map(|p| p.id).collect();
        let expected: Vec<u64> = fake
            .lost
            .iter()
            .copied()
            .filter(|n| lossy.spans.iter().any(|p| p.id == *n))
            .collect();
        assert!(!expected.is_empty());
        assert_eq!(lost_measured, expected);
        assert_eq!(lossy.failed, expected.len() as u64);
        assert_eq!(lossy.timed_out, lossy.failed);
        for p in lossy.spans.iter().filter(|p| !p.ok) {
            let waited = p.complete - p.submit_start;
            assert!((50 * MS..52 * MS).contains(&waited), "{waited}");
        }
        assert!(lossy.attempted.abs_diff(lossy.completed() + lossy.failed) <= 16);
        // A lost op holds 1 of 16 slots for 50 ms of a 100 ms window; the
        // median window never sees one.
        let (a, b) = (
            window_ops_per_s(&clean.windows).unwrap(),
            window_ops_per_s(&lossy.windows).unwrap(),
        );
        assert!((a - b).abs() / a < 0.02, "{a} vs {b}");
    }

    #[test]
    fn qd1_survives_a_lost_op_in_its_only_slot() {
        let mut t = Fake::new(198 * US);
        t.lose_every = Some(3_000);
        let c = cfg(Pacing::Closed { qd: 1 });
        let s = run(&mut t, &c, &mut stream("w4k_qd1"));
        assert_eq!(s.windows.len(), 20);
        assert!(s.failed >= 2);
        // The windows that held a 50 ms hole are slow; the median is not.
        let rate = window_ops_per_s(&s.windows).unwrap();
        assert!((rate - 5_000.0).abs() < 15.0, "{rate}");
        let slow = s.windows.iter().filter(|w| w.completed < 300).count();
        assert_eq!(slow as u64, s.failed);
    }

    #[test]
    fn a_dead_target_ends_the_run_at_the_stall_limit() {
        let mut t = Fake::new(200 * US);
        t.lose_every = Some(1);
        let c = cfg(Pacing::Closed { qd: 4 });
        let s = run(&mut t, &c, &mut stream("w4k_qd16"));
        assert!(s.stalled);
        assert!(s.windows.len() < 20);
        assert_eq!(s.completed(), 0);
        // Ended by the stall limit (plus the drain's last deadline), not by
        // running the whole 2.1 s.
        assert!(t.clock < 600 * MS, "{}", t.clock);
    }

    #[test]
    fn open_loop_holds_its_rate_and_times_from_due() {
        let mut t = Fake::new(300 * US);
        let c = cfg(Pacing::Open { rate: 2_000 });
        let s = run(&mut t, &c, &mut stream("mix70_open2k"));
        assert_eq!(s.failed, 0);
        let rate = window_ops_per_s(&s.windows).unwrap();
        assert!((rate - 2_000.0).abs() < 2.0, "{rate}");
        // On time: each op is sent the moment it is due.
        assert!(s.late_ns.iter().all(|l| *l == 0));
        // Due → completion = submit cost + service.
        assert!(s.latencies_ns.iter().all(|l| *l == 302 * US));
        // Ops are due on the exact schedule, whatever was completing.
        for pair in s.spans.windows(2) {
            assert_eq!(pair[1].due - pair[0].due, 500 * US);
        }
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_ops_due_during_it() {
        let mut t = Fake::new(300 * US);
        t.stall_at = Some(1_000 * MS);
        t.stall_for = 50 * MS;
        let mut c = cfg(Pacing::Open { rate: 2_000 });
        // The op whose submit stalls must outlive the stall.
        c.deadline_ns = 200 * MS;
        let s = run(&mut t, &c, &mut stream("mix70_open2k"));
        assert_eq!(s.failed, 0);
        // 50 ms at 2 000 ops/s: about 100 ops were due during the stall.
        // Each is sent late and its latency, counted from its due time,
        // includes the wait; a submit-to-completion clock would hide it.
        let hit: Vec<&OpSpan> = s
            .spans
            .iter()
            .filter(|p| p.submit_start - p.due > 100 * US)
            .collect();
        assert!((95..=105).contains(&hit.len()), "{}", hit.len());
        for p in &hit {
            let lat = p.complete - p.due;
            let late = p.submit_start - p.due;
            assert!(lat >= late + 300 * US);
            assert!(p.complete - p.submit_start < 310 * US);
        }
        let worst = s.latencies_ns.iter().max().unwrap();
        assert!(*worst >= 50 * MS, "{worst}");
        // The generator's lateness is reported, and the median run is clean.
        assert!(*s.late_ns.iter().max().unwrap() >= 49 * MS);
        let lat: Vec<f64> = s.latencies_ns.iter().map(|l| *l as f64).collect();
        assert_eq!(median(&lat), Some(302_000.0));
        // The schedule does not slip: ops due after the stall are on time.
        assert_eq!(
            s.spans.last().unwrap().submit_start,
            s.spans.last().unwrap().due
        );
    }

    #[test]
    fn open_loop_refuses_ops_beyond_the_outstanding_cap() {
        let mut t = Fake::new(200 * US);
        t.lose_every = Some(1);
        let mut c = cfg(Pacing::Open { rate: 2_000 });
        c.max_outstanding = 8;
        c.stall_ns = Nanos::MAX;
        let s = run(&mut t, &c, &mut stream("mix70_open2k"));
        // Nothing ever answers: every op is failed, by timeout if it got a
        // slot and by refusal otherwise, and the queue never passed the cap.
        assert_eq!(s.completed(), 0);
        assert_eq!(s.failed, s.attempted);
        assert!(s.timed_out > 0 && s.timed_out < s.failed);
        assert!(t.submitted < s.attempted + 300);
    }
}
