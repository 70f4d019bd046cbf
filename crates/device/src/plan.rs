//! Channel-reservation pool shared by the device models.
//!
//! A device with `n` internal channels can service `n` requests concurrently;
//! further requests queue. [`ChannelPool::reserve`] picks the earliest-free
//! channel, reserves `service` time on it starting no earlier than the
//! request's not-before instant, and returns the completion instant. The
//! caller carries that instant on (the next request of a chain, a message
//! stamped to leave then), waits for it ([`crate::BlockDev::submit`]) or
//! aggregates several completions (RAID-0).

use parking_lot::Mutex;
use std::time::{Duration, Instant};

/// Earliest-free-channel reservation pool.
#[derive(Debug)]
pub struct ChannelPool {
    busy_until: Mutex<Vec<Instant>>,
}

impl ChannelPool {
    /// Create a pool with `channels` independent service channels.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "device needs at least one channel");
        ChannelPool {
            busy_until: Mutex::new(vec![Instant::now(); channels]),
        }
    }

    /// Reserve `service` time on the earliest-free channel, starting no
    /// earlier than `not_before`. Returns the completion instant (queue
    /// wait included).
    pub fn reserve(&self, service: Duration, not_before: Instant) -> Instant {
        let mut slots = self.busy_until.lock();
        let slot = slots
            .iter_mut()
            .min_by_key(|t| **t)
            .expect("pool has at least one channel");
        let start = (*slot).max(not_before);
        let completion = start + service;
        *slot = completion;
        completion
    }

    /// Reserve `service` time on *every* channel starting after the last
    /// currently-reserved instant and no earlier than `not_before` — a
    /// barrier. Used for flush.
    pub fn reserve_barrier(&self, service: Duration, not_before: Instant) -> Instant {
        let mut slots = self.busy_until.lock();
        let latest = slots
            .iter()
            .copied()
            .max()
            .unwrap_or(not_before)
            .max(not_before);
        let completion = latest + service;
        for s in slots.iter_mut() {
            *s = completion;
        }
        completion
    }

    /// Instant when the whole device goes idle (for tests/metrics).
    pub fn idle_at(&self) -> Instant {
        let slots = self.busy_until.lock();
        slots.iter().copied().max().unwrap_or_else(Instant::now)
    }

    /// Number of channels currently busy (reserved past `now`).
    pub fn busy_channels(&self) -> usize {
        let now = Instant::now();
        self.busy_until.lock().iter().filter(|t| **t > now).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn single_channel_serializes() {
        let p = ChannelPool::new(1);
        let c1 = p.reserve(10 * MS, Instant::now());
        let c2 = p.reserve(10 * MS, Instant::now());
        // Second reservation starts after the first completes.
        assert!(c2 >= c1 + 10 * MS);
    }

    #[test]
    fn multiple_channels_overlap() {
        let p = ChannelPool::new(4);
        let t0 = Instant::now();
        let completions: Vec<Instant> =
            (0..4).map(|_| p.reserve(10 * MS, Instant::now())).collect();
        // All four fit concurrently: all complete ~10ms from now.
        for c in &completions {
            assert!(*c <= t0 + 15 * MS, "channel did not run concurrently");
        }
        // A fifth queues behind one of them.
        let c5 = p.reserve(10 * MS, Instant::now());
        assert!(c5 >= t0 + 20 * MS - MS);
    }

    #[test]
    fn barrier_waits_for_all() {
        let p = ChannelPool::new(2);
        let _ = p.reserve(5 * MS, Instant::now());
        let long = p.reserve(20 * MS, Instant::now());
        let b = p.reserve_barrier(MS, Instant::now());
        assert!(b >= long + MS);
        // After a barrier, all channels are busy until the barrier completes.
        assert_eq!(p.busy_channels(), 2);
    }

    #[test]
    fn idle_at_tracks_latest() {
        let p = ChannelPool::new(2);
        let c = p.reserve(50 * MS, Instant::now());
        assert_eq!(p.idle_at(), c);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        ChannelPool::new(0);
    }
}
