//! The write-through object metadata cache (§3.4).
//!
//! "We avoid reading metadata from storage by maximizing the use of cache
//! (write through) because most of the metadata exist in memory. Write
//! through cache has an advantage that can avoid inconsistent state because
//! data is written directly to storage."
//!
//! Entries are small (the paper: "most of the object metadata are under
//! 270 bytes"), so a bounded map with FIFO eviction is faithful to the
//! memory analysis in §3.4 (≈2.5 GB for 10 TB at 4 MB objects).

use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};

/// Cached per-object metadata (what the baseline re-reads from storage on
/// every write).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObjectMeta {
    /// Object size in bytes.
    pub size: u64,
    /// Mutation count (version).
    pub version: u64,
    /// Whether an allocation hint was recorded.
    pub alloc_hint: bool,
}

struct Inner {
    map: HashMap<String, ObjectMeta>,
    order: VecDeque<String>,
}

/// Bounded write-through metadata cache.
pub struct MetaCache {
    inner: Mutex<Inner>,
    capacity: usize,
    pub(crate) hits: afc_common::metrics::Counter,
    pub(crate) misses: afc_common::metrics::Counter,
}

impl MetaCache {
    /// Create a cache holding up to `capacity` objects' metadata.
    pub fn new(capacity: usize) -> Self {
        MetaCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity: capacity.max(1),
            hits: Default::default(),
            misses: Default::default(),
        }
    }

    /// Look up an object's metadata.
    pub fn get(&self, object: &str) -> Option<ObjectMeta> {
        let inner = self.inner.lock();
        match inner.map.get(object) {
            Some(m) => {
                self.hits.inc();
                Some(m.clone())
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Insert/update (write-through: the caller has already persisted it).
    pub fn put(&self, object: &str, meta: ObjectMeta) {
        let mut inner = self.inner.lock();
        if inner.map.insert(object.to_string(), meta).is_none() {
            inner.order.push_back(object.to_string());
            while inner.map.len() > self.capacity {
                if let Some(victim) = inner.order.pop_front() {
                    inner.map.remove(&victim);
                }
            }
        }
    }

    /// Drop an object's entry (object removed).
    pub fn invalidate(&self, object: &str) {
        let mut inner = self.inner.lock();
        inner.map.remove(object);
        inner.order.retain(|o| o != object);
    }

    /// Drop every entry (simulated crash: the cache is volatile state).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.order.clear();
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Register hit/miss counters under `<prefix>.cache_hits` /
    /// `<prefix>.cache_misses`.
    pub fn register_into(&self, m: &afc_common::metrics::Metrics, prefix: &str) {
        m.register_counter(format!("{prefix}.cache_hits"), &self.hits);
        m.register_counter(format!("{prefix}.cache_misses"), &self.misses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_and_stats() {
        let c = MetaCache::new(10);
        assert!(c.get("a").is_none());
        c.put(
            "a",
            ObjectMeta {
                size: 42,
                version: 1,
                alloc_hint: false,
            },
        );
        assert_eq!(c.get("a").unwrap().size, 42);
        assert_eq!((c.hits.get(), c.misses.get()), (1, 1));
    }

    #[test]
    fn update_in_place_keeps_len() {
        let c = MetaCache::new(10);
        c.put("a", ObjectMeta::default());
        c.put(
            "a",
            ObjectMeta {
                size: 1,
                version: 2,
                alloc_hint: true,
            },
        );
        assert_eq!(c.len(), 1);
        assert_eq!(c.get("a").unwrap().version, 2);
    }

    #[test]
    fn eviction_is_fifo_and_bounded() {
        let c = MetaCache::new(3);
        for i in 0..5 {
            c.put(
                &format!("o{i}"),
                ObjectMeta {
                    size: i,
                    ..Default::default()
                },
            );
        }
        assert_eq!(c.len(), 3);
        assert!(c.get("o0").is_none());
        assert!(c.get("o1").is_none());
        assert!(c.get("o4").is_some());
    }

    #[test]
    fn invalidate_removes() {
        let c = MetaCache::new(4);
        c.put("x", ObjectMeta::default());
        c.invalidate("x");
        assert!(c.is_empty());
        assert!(c.get("x").is_none());
    }

    #[test]
    fn concurrent_access_is_safe() {
        let c = std::sync::Arc::new(MetaCache::new(100));
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..500 {
                        let key = format!("o{}", (t * 13 + i) % 50);
                        c.put(
                            &key,
                            ObjectMeta {
                                size: i,
                                ..Default::default()
                            },
                        );
                        let _ = c.get(&key);
                    }
                });
            }
        });
        assert!(c.len() <= 100);
    }
}
