//! CRUSH-style deterministic data placement.
//!
//! Ceph places objects without a metadata server: an object name hashes to a
//! placement group (PG), and CRUSH maps each PG pseudo-randomly — but
//! deterministically and with minimal movement on cluster changes — onto an
//! ordered set of OSDs (first entry = primary). This crate implements the
//! straw2 bucket algorithm over a host/OSD hierarchy with host-level failure
//! domains, plus the versioned [`OsdMap`] the cluster and clients share.
//!
//! The implementation follows Weil's CRUSH/straw2 construction: each
//! candidate draws `ln(u) / weight` where `u` is a uniform hash of
//! `(pg, candidate, replica)`, and the maximum draw wins. Straw2's key
//! property — changing one bucket's weight only moves data into or out of
//! that bucket — is what keeps rebalancing traffic proportional to change.

#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod map;
pub mod osdmap;
pub mod straw2;

pub use map::CrushMap;
pub use osdmap::{OsdMap, OsdStatus, Placement};
pub use straw2::straw2_draw;
