//! Unified metric registry for the whole cluster: a metric is its dotted
//! site name.
//!
//! Every subsystem (devices, journal, filestore, kvstore, messenger,
//! logging, the OSD op path) registers its counters, gauges and latency
//! histograms into one [`Metrics`] registry under dotted site names that
//! follow the same convention as [`crate::faults`] injection sites
//! (`osd3.data.writes`, `node0.journal.commits`, `net.bytes`, ...).
//!
//! The hot path is lock-free: a metric handle ([`Counter`], [`Gauge`],
//! [`Histogram`]) is a cheap `Arc` around atomics, fetched once at
//! construction time; updating it is one relaxed atomic op (same cost model
//! as the `faults` armed-flag fast path). The registry itself is only
//! touched at registration and snapshot time.
//!
//! Snapshots are a stable, sorted tree ([`MetricsSnapshot`]) that can be
//! diffed, queried by name, or rendered to the Prometheus text exposition
//! format ([`MetricsSnapshot::to_prometheus`]).
//!
//! ```
//! use afc_common::metrics::Metrics;
//! use std::time::Duration;
//!
//! let m = Metrics::new();
//! let writes = m.counter("osd0.data.writes");
//! let lat = m.histogram("osd0.stage.journal");
//! writes.add(3);
//! lat.observe(Duration::from_micros(250));
//!
//! let snap = m.snapshot();
//! assert_eq!(snap.counter("osd0.data.writes"), Some(3));
//! let h = snap.histogram("osd0.stage.journal").unwrap();
//! assert_eq!(h.count, 1);
//! ```

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Buckets per octave (16 sub-buckets bounds relative error at ~6%).
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// Octaves above the linear range: 1 µs · 2^26 ≈ 67 s.
const OCTAVES: usize = 26;
const NBUCKETS: usize = SUB * (OCTAVES + 1);

/// A monotonic event counter. Cheap to clone; all clones share the cell,
/// and an update is one relaxed atomic add. Components keep their counters
/// as struct fields and register them once with
/// [`Metrics::register_counter`].
///
/// ```
/// use afc_common::metrics::Counter;
/// let c = Counter::new();
/// c.inc();
/// c.add(9);
/// assert_eq!(c.get(), 10);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Create a detached counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge for instantaneous values (queue depths, bytes in flight).
///
/// Cheap to clone; all clones share the cell. Updates are one relaxed
/// atomic op.
///
/// ```
/// use afc_common::metrics::Gauge;
/// let g = Gauge::new();
/// g.add(5);
/// g.sub(2);
/// assert_eq!(g.get(), 3);
/// g.set(-1);
/// assert_eq!(g.get(), -1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Create a detached gauge at zero (register it with
    /// [`Metrics::register_gauge`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A thread-safe latency histogram with geometric buckets (µs resolution).
///
/// The histogram is shared: recording is one relaxed `fetch_add` on the
/// owning bucket plus one on the running µs sum, so it can sit on the
/// write path and one instance can serve every thread of a workload run.
/// The sample count is derived from the buckets,
/// which keeps snapshots internally consistent even while writers are
/// racing the snapshot.
///
/// ```
/// use afc_common::metrics::Histogram;
/// use std::time::Duration;
///
/// let h = Histogram::new();
/// for us in [100u64, 200, 400, 800] {
///     h.observe_us(us);
/// }
/// h.observe(Duration::from_millis(5));
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 5);
/// assert!(snap.quantile_us(0.5) >= 200 && snap.quantile_us(0.5) <= 450);
/// ```
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistCells>);

#[derive(Debug)]
struct HistCells {
    buckets: Vec<AtomicU64>,
    sum_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Create a detached, empty histogram (register it with
    /// [`Metrics::register_histogram`]).
    pub fn new() -> Self {
        let mut buckets = Vec::with_capacity(NBUCKETS);
        buckets.resize_with(NBUCKETS, AtomicU64::default);
        Histogram(Arc::new(HistCells {
            buckets,
            sum_us: AtomicU64::new(0),
        }))
    }

    #[inline]
    fn bucket_of(us: u64) -> usize {
        if us < SUB as u64 {
            return us as usize;
        }
        // v >= SUB: normalize so (v >> shift) lands in [SUB, 2*SUB).
        let msb = 63 - us.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = ((us >> shift) as usize) - SUB;
        let idx = SUB + shift as usize * SUB + sub;
        idx.min(NBUCKETS - 1)
    }

    /// Inclusive upper bound (µs) of bucket `idx`; the final bucket is
    /// unbounded and reported as `u64::MAX` (`+Inf` in Prometheus terms).
    fn bucket_le(idx: usize) -> u64 {
        if idx >= NBUCKETS - 1 {
            return u64::MAX;
        }
        if idx < SUB {
            return idx as u64;
        }
        let shift = ((idx - SUB) / SUB) as u32;
        let sub = ((idx - SUB) % SUB) as u64;
        let low = (SUB as u64 + sub) << shift;
        low + (1u64 << shift) - 1
    }

    /// Record one latency sample.
    #[inline]
    pub fn observe(&self, d: Duration) {
        self.observe_us(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Record a latency expressed in microseconds.
    #[inline]
    pub fn observe_us(&self, us: u64) {
        self.0.buckets[Self::bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.0.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Number of recorded samples (sum over buckets).
    pub fn count(&self) -> u64 {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    fn load_raw(&self) -> (Vec<u64>, u64) {
        let buckets = self
            .0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        (buckets, self.0.sum_us.load(Ordering::Relaxed))
    }

    /// Point-in-time snapshot of this histogram alone.
    pub fn snapshot(&self) -> HistSnapshot {
        let (raw, sum_us) = self.load_raw();
        HistSnapshot::from_raw(&raw, sum_us)
    }
}

/// A live, dynamically growing set of named counters and histograms, for
/// the one subsystem whose names are not known at construction: per-volume
/// QoS series, where a volume appears with its first tagged op. Everything
/// else holds fixed [`Counter`] fields. Attaching the set once via
/// [`Metrics::attach_set`] makes every present *and future* member visible
/// in snapshots.
///
/// ```
/// use afc_common::metrics::{MetricSet, Metrics};
/// let set = MetricSet::new();
/// let m = Metrics::new();
/// m.attach_set("osd0.qos", &set);
/// set.counter("vol1.limited").add(4); // created after attach
/// set.histogram("vol1.queue_wait").observe_us(250);
/// let snap = m.snapshot();
/// assert_eq!(snap.counter("osd0.qos.vol1.limited"), Some(4));
/// assert_eq!(snap.histogram("osd0.qos.vol1.queue_wait").unwrap().count, 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct MetricSet {
    inner: Arc<RwLock<SetCells>>,
}

#[derive(Debug, Default)]
struct SetCells {
    counters: BTreeMap<String, Counter>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricSet {
    /// Create an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-create the counter named `name`. Callers cache the returned
    /// handle; the set is not meant to be hit per event.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.inner.read().counters.get(name) {
            return c.clone();
        }
        let mut cells = self.inner.write();
        cells.counters.entry(name.to_string()).or_default().clone()
    }

    /// Get-or-create the histogram named `name`. Callers cache the
    /// returned handle; the set is not meant to be hit per sample.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(h) = self.inner.read().histograms.get(name) {
            return h.clone();
        }
        let mut cells = self.inner.write();
        cells
            .histograms
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Every member, as `(name, source)`.
    fn sources(&self) -> Vec<(String, Source)> {
        let cells = self.inner.read();
        let counters = cells
            .counters
            .iter()
            .map(|(k, c)| (k.clone(), Source::Counter(c.clone())));
        let histograms = cells
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), Source::Histogram(h.clone())));
        counters.chain(histograms).collect()
    }
}

/// A metric's identity: its dotted site name.
///
/// Site names are dotted segments of `[a-z0-9_]`, subsystem instances as
/// path components (`osd2.fs.txns_applied`, `node0.journal.commits`); a
/// debug build panics on any other name.
///
/// ```
/// use afc_common::metrics::MetricId;
/// let id = MetricId::new("osd0.op.writes");
/// assert_eq!(id.name(), "osd0.op.writes");
/// ```
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricId(String);

impl MetricId {
    /// The identity of the metric named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        debug_assert!(
            name.split('.').all(|seg| !seg.is_empty()
                && seg
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')),
            "metric name `{name}` is not dotted [a-z0-9_] segments"
        );
        MetricId(name)
    }

    /// The dotted site name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl From<&str> for MetricId {
    fn from(s: &str) -> Self {
        MetricId::new(s)
    }
}

impl From<String> for MetricId {
    fn from(s: String) -> Self {
        MetricId::new(s)
    }
}

#[derive(Clone)]
enum Source {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The cluster-wide metric registry.
///
/// Components register shared handles at construction time; the registry
/// is never touched on the hot path. Multiple registrations under the same
/// [`MetricId`] are **summed/merged at snapshot time** — this is how the
/// two SSD members of an OSD's RAID-0 data target appear as one
/// `osdN.data.*` series, mirroring how they share one fault site.
///
/// ```
/// use afc_common::metrics::{Counter, Metrics};
///
/// let m = Metrics::new();
/// // Two members share the site name; the snapshot sums them.
/// let a = m.counter("osd0.data.writes");
/// let b = Counter::new();
/// m.register_counter("osd0.data.writes", &b);
/// a.add(2);
/// b.add(3);
/// assert_eq!(m.snapshot().counter("osd0.data.writes"), Some(5));
/// ```
#[derive(Default)]
pub struct Metrics {
    sources: RwLock<BTreeMap<MetricId, Vec<Source>>>,
    sets: RwLock<Vec<(String, MetricSet)>>,
}

impl Metrics {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create and register a new counter cell under `id`.
    pub fn counter(&self, id: impl Into<MetricId>) -> Counter {
        let c = Counter::new();
        self.register_counter(id, &c);
        c
    }

    /// Register an existing counter cell under `id` (the cell keeps
    /// working wherever it already lives; snapshots will read it).
    pub fn register_counter(&self, id: impl Into<MetricId>, c: &Counter) {
        self.sources
            .write()
            .entry(id.into())
            .or_default()
            .push(Source::Counter(c.clone()));
    }

    /// Create and register a new gauge cell under `id`.
    pub fn gauge(&self, id: impl Into<MetricId>) -> Gauge {
        let g = Gauge::new();
        self.register_gauge(id, &g);
        g
    }

    /// Register an existing gauge cell under `id`.
    pub fn register_gauge(&self, id: impl Into<MetricId>, g: &Gauge) {
        self.sources
            .write()
            .entry(id.into())
            .or_default()
            .push(Source::Gauge(g.clone()));
    }

    /// Create and register a new histogram cell under `id`.
    pub fn histogram(&self, id: impl Into<MetricId>) -> Histogram {
        let h = Histogram::new();
        self.register_histogram(id, &h);
        h
    }

    /// Register an existing histogram cell under `id`.
    pub fn register_histogram(&self, id: impl Into<MetricId>, h: &Histogram) {
        self.sources
            .write()
            .entry(id.into())
            .or_default()
            .push(Source::Histogram(h.clone()));
    }

    /// Attach a live [`MetricSet`]: every member of the set — including
    /// ones created after the attach — appears in snapshots as
    /// `<prefix>.<name>`, summed or merged with any same-named
    /// registration.
    pub fn attach_set(&self, prefix: &str, set: &MetricSet) {
        self.sets.write().push((prefix.to_string(), set.clone()));
    }

    /// Point-in-time snapshot of every registered metric, as a stable
    /// sorted tree. Duplicate registrations are summed (counters, gauges)
    /// or merged (histograms).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut all = self.sources.read().clone();
        for (prefix, set) in self.sets.read().iter() {
            for (name, source) in set.sources() {
                all.entry(MetricId::new(format!("{prefix}.{name}")))
                    .or_default()
                    .push(source);
            }
        }
        let mut out: BTreeMap<MetricId, MetricValue> = BTreeMap::new();
        for (id, sources) in all {
            let mut counter_sum: Option<u64> = None;
            let mut gauge_sum: Option<i64> = None;
            let mut hist_raw: Option<(Vec<u64>, u64)> = None;
            for s in sources {
                match s {
                    Source::Counter(c) => {
                        counter_sum = Some(counter_sum.unwrap_or(0) + c.get());
                    }
                    Source::Gauge(g) => {
                        gauge_sum = Some(gauge_sum.unwrap_or(0) + g.get());
                    }
                    Source::Histogram(h) => {
                        let (raw, sum_us) = h.load_raw();
                        match &mut hist_raw {
                            None => hist_raw = Some((raw, sum_us)),
                            Some((acc, acc_sum)) => {
                                for (a, b) in acc.iter_mut().zip(&raw) {
                                    *a += *b;
                                }
                                *acc_sum += sum_us;
                            }
                        }
                    }
                }
            }
            // A single id should hold a single kind; if kinds were mixed,
            // histograms win, then counters — deterministic either way.
            let value = if let Some((raw, sum_us)) = hist_raw {
                MetricValue::Histogram(HistSnapshot::from_raw(&raw, sum_us))
            } else if let Some(v) = counter_sum {
                MetricValue::Counter(v)
            } else if let Some(v) = gauge_sum {
                MetricValue::Gauge(v)
            } else {
                continue;
            };
            out.insert(id, value);
        }
        MetricsSnapshot { metrics: out }
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics")
            .field("registered", &self.sources.read().len())
            .field("sets", &self.sets.read().len())
            .finish()
    }
}

/// One metric's value inside a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic event count.
    Counter(u64),
    /// Instantaneous signed value.
    Gauge(i64),
    /// Latency distribution.
    Histogram(HistSnapshot),
}

/// Frozen histogram state: sparse cumulative buckets plus totals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// `(le_us, cumulative_count)` for every non-empty bucket, ascending;
    /// `le_us == u64::MAX` is the unbounded (`+Inf`) bucket.
    pub buckets: Vec<(u64, u64)>,
    /// Total recorded samples.
    pub count: u64,
    /// Sum of all recorded values, µs.
    pub sum_us: u64,
}

impl HistSnapshot {
    fn from_raw(raw: &[u64], sum_us: u64) -> HistSnapshot {
        let mut buckets = Vec::new();
        let mut cum = 0u64;
        for (idx, &c) in raw.iter().enumerate() {
            if c > 0 {
                cum += c;
                buckets.push((Histogram::bucket_le(idx), cum));
            }
        }
        HistSnapshot {
            buckets,
            count: cum,
            sum_us,
        }
    }

    /// Value (µs) at quantile `q` in `[0, 1]`: the inclusive upper bound
    /// of the first bucket containing the ranked sample. Returns 0 when
    /// empty.
    ///
    /// ```
    /// use afc_common::metrics::Histogram;
    /// let h = Histogram::new();
    /// for _ in 0..99 { h.observe_us(100); }
    /// h.observe_us(10_000);
    /// let s = h.snapshot();
    /// assert!(s.quantile_us(0.5) < 120);
    /// assert!(s.quantile_us(0.999) >= 10_000);
    /// ```
    pub fn quantile_us(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        for &(le, cum) in &self.buckets {
            if cum >= rank {
                return le;
            }
        }
        self.buckets.last().map(|&(le, _)| le).unwrap_or(0)
    }

    /// Median, µs.
    pub fn p50_us(&self) -> u64 {
        self.quantile_us(0.50)
    }

    /// 99th percentile, µs.
    pub fn p99_us(&self) -> u64 {
        self.quantile_us(0.99)
    }

    /// Arithmetic mean, µs (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }

    /// Fold `other` into `self`, bucket by bucket.
    ///
    /// All histograms share one fixed bucket layout, so snapshots from
    /// different sources (e.g. the same stage on every OSD) merge exactly:
    /// counts add per bucket and quantiles of the merged snapshot reflect
    /// the combined population.
    ///
    /// ```
    /// use afc_common::metrics::Histogram;
    /// let (a, b) = (Histogram::new(), Histogram::new());
    /// a.observe_us(100);
    /// b.observe_us(100_000);
    /// let mut merged = a.snapshot();
    /// merged.merge(&b.snapshot());
    /// assert_eq!(merged.count, 2);
    /// assert!(merged.quantile_us(1.0) >= 100_000);
    /// ```
    pub fn merge(&mut self, other: &HistSnapshot) {
        let decum = |b: &[(u64, u64)]| {
            let mut prev = 0;
            b.iter()
                .map(|&(le, cum)| {
                    let c = cum - prev;
                    prev = cum;
                    (le, c)
                })
                .collect::<Vec<_>>()
        };
        let mut per: BTreeMap<u64, u64> = BTreeMap::new();
        for (le, c) in decum(&self.buckets)
            .into_iter()
            .chain(decum(&other.buckets))
        {
            *per.entry(le).or_insert(0) += c;
        }
        let mut cum = 0;
        self.buckets = per
            .into_iter()
            .map(|(le, c)| {
                cum += c;
                (le, cum)
            })
            .collect();
        self.count = cum;
        self.sum_us += other.sum_us;
    }
}

/// A stable, sorted point-in-time view of every metric in a registry.
///
/// Obtained from [`Metrics::snapshot`]; query it by name, iterate it, or
/// render it in the Prometheus text format.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    metrics: BTreeMap<MetricId, MetricValue>,
}

impl MetricsSnapshot {
    /// Look up the value registered under `name`.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.get(&MetricId::new(name))
    }

    /// Counter value under `name`, if present and a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value under `name`, if present and a gauge.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Histogram under `name`, if present and a histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        match self.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Sum of the counter `key` over every site that has it: all metrics
    /// named `<site>.<key>` where `<site>` is one leading component
    /// (`osd3`, `node0`). `site_sum("op.writes")` is the cluster's
    /// acknowledged writes.
    ///
    /// ```
    /// use afc_common::metrics::Metrics;
    /// let m = Metrics::new();
    /// m.counter("osd0.op.writes").add(2);
    /// m.counter("osd1.op.writes").add(3);
    /// assert_eq!(m.snapshot().site_sum("op.writes"), 5);
    /// ```
    pub fn site_sum(&self, key: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|(id, _)| id.0.split_once('.').is_some_and(|(_, k)| k == key))
            .filter_map(|(_, v)| match v {
                MetricValue::Counter(c) => Some(*c),
                _ => None,
            })
            .sum()
    }

    /// Iterate all `(identity, value)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricId, &MetricValue)> {
        self.metrics.iter()
    }

    /// Number of metrics in the snapshot.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when the snapshot holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Render the snapshot in the Prometheus text exposition format.
    ///
    /// Dotted site names are not valid Prometheus metric names, so each
    /// series gets a sanitized name (dots → underscores) and carries the
    /// exact site name in a `site` label. Histogram `le` bounds and sums
    /// are microseconds.
    ///
    /// ```
    /// use afc_common::metrics::Metrics;
    /// let m = Metrics::new();
    /// m.counter("net.bytes").add(7);
    /// let text = m.snapshot().to_prometheus();
    /// assert!(text.contains("net_bytes{site=\"net.bytes\"} 7"));
    /// ```
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (id, v) in &self.metrics {
            let san = sanitize(id.name());
            let labels = format!("site=\"{}\"", escape_label(id.name()));
            match v {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {san} counter");
                    let _ = writeln!(out, "{san}{{{labels}}} {c}");
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {san} gauge");
                    let _ = writeln!(out, "{san}{{{labels}}} {g}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {san} histogram");
                    for &(le, cum) in &h.buckets {
                        let le_s = if le == u64::MAX {
                            "+Inf".to_string()
                        } else {
                            le.to_string()
                        };
                        let _ = writeln!(out, "{san}_bucket{{{labels},le=\"{le_s}\"}} {cum}");
                    }
                    if h.buckets.last().map(|&(le, _)| le) != Some(u64::MAX) {
                        let _ = writeln!(out, "{san}_bucket{{{labels},le=\"+Inf\"}} {}", h.count);
                    }
                    let _ = writeln!(out, "{san}_sum{{{labels}}} {}", h.sum_us);
                    let _ = writeln!(out, "{san}_count{{{labels}}} {}", h.count);
                }
            }
        }
        out
    }
}

/// Sanitize a dotted site name into a Prometheus-legal metric name.
fn sanitize(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        s.insert(0, '_');
    }
    s
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is not dotted [a-z0-9_] segments")]
    fn a_metric_name_off_the_convention_panics() {
        Metrics::new().counter("osd0.Op.writes");
    }

    #[test]
    fn counter_and_gauge_roundtrip_values() {
        let m = Metrics::new();
        let c = m.counter("a.b.c");
        let g = m.gauge("a.b.depth");
        c.add(41);
        c.inc();
        g.add(10);
        g.sub(3);
        let s = m.snapshot();
        assert_eq!(s.counter("a.b.c"), Some(42));
        assert_eq!(s.gauge("a.b.depth"), Some(7));
        assert_eq!(s.counter("missing"), None);
        assert_eq!(s.gauge("a.b.c"), None);
    }

    #[test]
    fn duplicate_registrations_sum() {
        let m = Metrics::new();
        let a = m.counter("osd0.data.writes");
        let b = Counter::new();
        m.register_counter("osd0.data.writes", &b);
        a.add(2);
        b.add(5);
        assert_eq!(m.snapshot().counter("osd0.data.writes"), Some(7));

        let h1 = m.histogram("osd0.stage.journal");
        let h2 = Histogram::new();
        m.register_histogram("osd0.stage.journal", &h2);
        h1.observe_us(100);
        h2.observe_us(100);
        h2.observe_us(1000);
        let s = m.snapshot();
        assert_eq!(s.histogram("osd0.stage.journal").unwrap().count, 3);
    }

    #[test]
    fn attached_sets_appear_with_prefix() {
        let m = Metrics::new();
        let set = MetricSet::new();
        m.attach_set("osd0.qos", &set);
        // Members created *after* the attach are still visible — the whole
        // point of the live set — and each name is one cell however many
        // handles were taken.
        set.counter("vol1.limited").add(3);
        set.counter("vol1.limited").inc();
        set.histogram("vol1.queue_wait").observe_us(100);
        set.histogram("vol1.queue_wait").observe_us(300);
        set.histogram("vol2.queue_wait").observe_us(50);
        let s = m.snapshot();
        assert_eq!(s.counter("osd0.qos.vol1.limited"), Some(4));
        let h1 = s.histogram("osd0.qos.vol1.queue_wait").expect("vol1 hist");
        assert_eq!(h1.count, 2);
        let h2 = s.histogram("osd0.qos.vol2.queue_wait").expect("vol2 hist");
        assert_eq!(h2.count, 1);
        assert_eq!(s.len(), 3);
        assert_eq!(set.counter("vol1.limited").get(), 4);
        assert_eq!(set.histogram("vol1.queue_wait").count(), 2);
    }

    #[test]
    fn set_merges_with_typed_registration() {
        let m = Metrics::new();
        m.histogram("qos.lat").observe_us(10);
        m.counter("qos.limited").add(1);
        let set = MetricSet::new();
        set.histogram("lat").observe_us(20);
        set.counter("limited").add(2);
        m.attach_set("qos", &set);
        let s = m.snapshot();
        assert_eq!(s.histogram("qos.lat").expect("merged").count, 2);
        assert_eq!(s.counter("qos.limited"), Some(3));
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Exact values below SUB get exact buckets.
        for us in 0..SUB as u64 {
            let h = Histogram::new();
            h.observe_us(us);
            let s = h.snapshot();
            assert_eq!(s.buckets, vec![(us, 1)], "us={us}");
            assert_eq!(s.quantile_us(1.0), us);
        }
        // Power-of-two boundaries: value falls in a bucket whose le bound
        // is >= the value and within the ~6% relative-error budget.
        for us in [16u64, 17, 31, 32, 1 << 10, (1 << 20) + 123, 1 << 25] {
            let h = Histogram::new();
            h.observe_us(us);
            let le = h.snapshot().quantile_us(1.0);
            assert!(le >= us, "us={us} le={le}");
            assert!((le - us) as f64 / us as f64 <= 0.07, "us={us} le={le}");
        }
        // Saturation: beyond the covered range lands in the +Inf bucket.
        let h = Histogram::new();
        h.observe_us(u64::MAX / 2);
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![(u64::MAX, 1)]);
        assert_eq!(s.quantile_us(0.5), u64::MAX);
        assert_eq!(s.count, 1);
    }

    #[test]
    fn histogram_quantiles_track_distribution() {
        let h = Histogram::new();
        for i in 1..=10_000u64 {
            h.observe_us(i);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10_000);
        let p50 = s.p50_us() as f64;
        let p99 = s.p99_us() as f64;
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.08, "p50={p50}");
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.08, "p99={p99}");
        assert!((s.mean_us() as f64 - 5_000.0).abs() / 5_000.0 < 0.01);
    }

    #[test]
    fn prometheus_rendering_keeps_the_site_name() {
        let m = Metrics::new();
        m.counter("osd0.data.writes").add(12);
        m.gauge("node0.journal.depth").set(-4);
        let h = m.histogram("osd0.stage.journal");
        for us in [3u64, 90, 90] {
            h.observe_us(us);
        }
        // An empty histogram still renders its +Inf bucket, sum and count.
        m.histogram("osd0.stage.ack");
        let text = m.snapshot().to_prometheus();
        let want = "\
# TYPE node0_journal_depth gauge
node0_journal_depth{site=\"node0.journal.depth\"} -4
# TYPE osd0_data_writes counter
osd0_data_writes{site=\"osd0.data.writes\"} 12
# TYPE osd0_stage_ack histogram
osd0_stage_ack_bucket{site=\"osd0.stage.ack\",le=\"+Inf\"} 0
osd0_stage_ack_sum{site=\"osd0.stage.ack\"} 0
osd0_stage_ack_count{site=\"osd0.stage.ack\"} 0
# TYPE osd0_stage_journal histogram
osd0_stage_journal_bucket{site=\"osd0.stage.journal\",le=\"3\"} 1
osd0_stage_journal_bucket{site=\"osd0.stage.journal\",le=\"91\"} 3
osd0_stage_journal_bucket{site=\"osd0.stage.journal\",le=\"+Inf\"} 3
osd0_stage_journal_sum{site=\"osd0.stage.journal\"} 183
osd0_stage_journal_count{site=\"osd0.stage.journal\"} 3
";
        assert_eq!(text, want);
    }

    #[test]
    fn snapshot_while_writing_is_consistent() {
        use std::sync::atomic::AtomicBool;
        let m = Arc::new(Metrics::new());
        let h = m.histogram("x.lat");
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    h.observe_us(i % 10_000);
                    i += 1;
                }
                i - 1
            })
        };
        for _ in 0..50 {
            let s = m.snapshot();
            if let Some(hs) = s.histogram("x.lat") {
                // Cumulative counts are monotone and end at `count`.
                let mut prev = 0;
                for &(_, cum) in &hs.buckets {
                    assert!(cum >= prev);
                    prev = cum;
                }
                assert_eq!(hs.count, prev);
            }
        }
        stop.store(true, Ordering::Relaxed);
        let written = writer.join().unwrap();
        assert_eq!(m.snapshot().histogram("x.lat").unwrap().count, written);
    }

    #[test]
    fn histogram_merge_matches_combined_population() {
        let a = Histogram::new();
        let b = Histogram::new();
        let combined = Histogram::new();
        for i in 0..500u64 {
            a.observe_us(i * 7 % 3000);
            combined.observe_us(i * 7 % 3000);
        }
        for i in 0..300u64 {
            b.observe_us(10_000 + i * 13 % 5000);
            combined.observe_us(10_000 + i * 13 % 5000);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m, combined.snapshot());
        // Merging an empty snapshot is the identity.
        let before = m.clone();
        m.merge(&Histogram::new().snapshot());
        assert_eq!(m, before);
    }
}
