//! Common types and utilities shared by every `afcstore` crate.
//!
//! This crate deliberately has no knowledge of storage semantics; it provides
//! the plumbing the rest of the workspace is built from:
//!
//! - [`error`]: the workspace-wide error type.
//! - [`faults`]: deterministic fault-injection schedules and the runtime
//!   registry components consult at their injection sites.
//! - [`ids`]: strongly-typed identifiers (OSDs, PGs, objects, clients, epochs).
//! - [`series`]: wall-clock time-series recording for fluctuation plots.
//! - [`metrics`]: the unified cluster metric registry, keyed by dotted
//!   site name (counters, gauges, latency histograms, Prometheus rendering).
//! - [`rng`]: seeded RNG construction and a fast 64-bit mixing hash.
//! - [`timeutil`]: the calibrated wait every modeled service time goes
//!   through, and the ledger of what those waits slept and spun.
//! - [`table`]: fixed-width table rendering for benchmark harness output.
//! - [`bytesize`]: byte-size constants and formatting.
//! - [`blocktarget`]: the [`blocktarget::BlockTarget`] trait that workload
//!   generators drive and storage clients implement.
//! - [`lockdep`]: runtime lock-order checking and the declared lock
//!   hierarchy for the OSD hot path (debug builds only).

#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod blocktarget;
pub mod bytesize;
pub mod error;
pub mod faults;
pub mod ids;
pub mod lockdep;
pub mod metrics;
pub mod rng;
pub mod series;
pub mod table;
pub mod timeutil;

pub use blocktarget::BlockTarget;
pub use bytesize::{GIB, KIB, MIB, TIB};
pub use error::{AfcError, Result};
pub use faults::{FaultKind, FaultPlan, FaultRegistry, FaultSite, FaultSpec, NetSite};
pub use ids::{ClientId, Epoch, NodeId, ObjectId, OpId, OsdId, PgId, PoolId, VolumeId};
pub use metrics::{
    Counter, Gauge, HistSnapshot, Histogram, MetricId, MetricSet, MetricValue, Metrics,
    MetricsSnapshot,
};

pub use lockdep::{
    TrackedCondvar, TrackedMutex, TrackedMutexGuard, TrackedRwLock, TrackedRwLockReadGuard,
    TrackedRwLockWriteGuard,
};
pub use series::{IopsSampler, TimeSeries};
pub use table::Table;
pub use timeutil::{sleep_for, wait_until, WaitClass};
