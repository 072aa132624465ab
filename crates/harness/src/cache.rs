//! Content-addressed stage caching.
//!
//! A [`StageCache`] memoises one kind of stage output (a design, a
//! profiling run) under a [`CacheKey`] — the stable hash of everything the
//! stage's output depends on. Because every stage in the workspace is a
//! deterministic function of its inputs, a hit is guaranteed byte-identical
//! to recomputation; the cache never needs invalidation or eviction, only
//! keying discipline.
//!
//! The cache is safe to share across the job runner's workers and computes
//! each key exactly once: the map lock is held only to find or create a
//! key's slot, and concurrent callers on a key still being computed block
//! on that slot until the one result is ready.
//!
//! # Examples
//!
//! ```
//! use mapwave_harness::cache::StageCache;
//! use mapwave_harness::hash::stable_hash_of;
//!
//! static SQUARES: StageCache<u64> = StageCache::new("doc.squares");
//! let k = stable_hash_of(&7u64);
//! assert_eq!(SQUARES.get_or_insert_with(k, || 49), 49);
//! assert_eq!(SQUARES.get_or_insert_with(k, || unreachable!()), 49);
//! assert_eq!(SQUARES.stats().hits, 1);
//! ```

use crate::hash::CacheKey;
use crate::telemetry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Hit/miss totals of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
}

/// A keyed in-memory memo for one stage kind.
///
/// `const`-constructible, so caches are declared as `static`s shared by
/// every caller in the process.
#[derive(Debug)]
pub struct StageCache<V> {
    name: &'static str,
    map: Mutex<Option<HashMap<CacheKey, Arc<OnceLock<V>>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V: Clone> StageCache<V> {
    /// An empty cache named `name` (the name keys telemetry counters).
    pub const fn new(name: &'static str) -> Self {
        StageCache {
            name,
            map: Mutex::new(None),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The cache's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The value for `key`, computing and caching it on a miss.
    ///
    /// `compute` runs at most once per key. The map lock is **not** held
    /// while it runs, so misses on other keys proceed in parallel; callers
    /// on the same key block until its value is ready and count as hits.
    pub fn get_or_insert_with(&self, key: CacheKey, compute: impl FnOnce() -> V) -> V {
        let slot = {
            let mut guard = self.map.lock().expect("stage cache poisoned");
            Arc::clone(
                guard
                    .get_or_insert_with(HashMap::new)
                    .entry(key)
                    .or_default(),
            )
        };
        let mut computed = false;
        let value = slot
            .get_or_init(|| {
                computed = true;
                compute()
            })
            .clone();
        if computed {
            self.misses.fetch_add(1, Ordering::Relaxed);
            telemetry::count("cache.miss", 1);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            telemetry::count("cache.hit", 1);
        }
        value
    }

    /// Hit/miss totals so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::stable_hash_of;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn memoises_and_counts() {
        let cache: StageCache<String> = StageCache::new("test.memo");
        let k = stable_hash_of(&("a", 1u64));
        let mut computed = 0;
        let v1 = cache.get_or_insert_with(k, || {
            computed += 1;
            "value".to_string()
        });
        let v2 = cache.get_or_insert_with(k, || {
            computed += 1;
            "other".to_string()
        });
        assert_eq!(v1, "value");
        assert_eq!(v2, "value", "hit returns the first computation");
        assert_eq!(computed, 1);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache: StageCache<u64> = StageCache::new("test.keys");
        for i in 0..100u64 {
            cache.get_or_insert_with(stable_hash_of(&i), || i * i);
        }
        for i in 0..100u64 {
            let v = cache.get_or_insert_with(stable_hash_of(&i), || unreachable!("cached"));
            assert_eq!(v, i * i);
        }
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 100,
                misses: 100
            }
        );
    }

    #[test]
    fn concurrent_access_is_consistent() {
        static CACHE: StageCache<u64> = StageCache::new("test.concurrent");
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..50u64 {
                        let v = CACHE.get_or_insert_with(stable_hash_of(&i), || i + 1000);
                        assert_eq!(v, i + 1000);
                    }
                });
            }
        });
        assert_eq!(CACHE.stats().misses, 50, "each key computed once");
        assert_eq!(CACHE.stats().hits, 150);
    }

    #[test]
    fn concurrent_misses_on_one_key_compute_once() {
        const THREADS: usize = 4;
        let cache: StageCache<u64> = StageCache::new("test.once");
        let computations = AtomicUsize::new(0);
        let start = Barrier::new(THREADS);
        let key = stable_hash_of(&"shared");
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    start.wait();
                    let v = cache.get_or_insert_with(key, || {
                        computations.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        7
                    });
                    assert_eq!(v, 7);
                });
            }
        });
        assert_eq!(computations.load(Ordering::SeqCst), 1, "one computation");
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: THREADS as u64 - 1,
                misses: 1
            }
        );
    }
}
