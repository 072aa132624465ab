//! Content-addressed stage caching.
//!
//! A [`StageCache`] memoises one kind of stage output (a profiling run, a
//! NoC simulation, a rendered figure) under a [`CacheKey`] — the stable
//! hash of everything the stage's output depends on. Because every stage in
//! the workspace is a deterministic function of its inputs, a hit is
//! guaranteed byte-identical to recomputation; the cache never needs
//! invalidation or eviction, only keying discipline.
//!
//! The in-memory layer is a mutex-guarded map safe to share across the job
//! runner's workers (the lock is never held while computing a missing
//! entry). [`DiskCache`] adds an optional plain-text on-disk layer for
//! values with a text form — rendered tables survive process restarts.
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
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Hit/miss totals of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when never used).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A keyed in-memory memo for one stage kind.
///
/// `const`-constructible, so caches are declared as `static`s shared by
/// every context build in the process.
#[derive(Debug)]
pub struct StageCache<V> {
    name: &'static str,
    map: Mutex<Option<HashMap<CacheKey, V>>>,
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

    /// The cached value for `key`, if present.
    pub fn get(&self, key: CacheKey) -> Option<V> {
        let guard = self.map.lock().expect("stage cache poisoned");
        let hit = guard.as_ref().and_then(|m| m.get(&key).cloned());
        drop(guard);
        match &hit {
            Some(_) => self.note_hit(),
            None => self.note_miss(),
        }
        hit
    }

    /// Whether `key` is cached. Unlike [`StageCache::get`] this counts
    /// neither a hit nor a miss.
    pub fn contains(&self, key: CacheKey) -> bool {
        let guard = self.map.lock().expect("stage cache poisoned");
        guard.as_ref().is_some_and(|m| m.contains_key(&key))
    }

    /// Stores `value` under `key` (last write wins).
    pub fn insert(&self, key: CacheKey, value: V) {
        let mut guard = self.map.lock().expect("stage cache poisoned");
        guard.get_or_insert_with(HashMap::new).insert(key, value);
    }

    /// The value for `key`, computing and caching it on a miss.
    ///
    /// The lock is **not** held during `compute`: concurrent workers missing
    /// the same key compute redundantly (identical results by determinism)
    /// rather than serialising the whole pool on one entry.
    pub fn get_or_insert_with(&self, key: CacheKey, compute: impl FnOnce() -> V) -> V {
        {
            let guard = self.map.lock().expect("stage cache poisoned");
            if let Some(v) = guard.as_ref().and_then(|m| m.get(&key)) {
                let v = v.clone();
                drop(guard);
                self.note_hit();
                return v;
            }
        }
        self.note_miss();
        let value = compute();
        self.insert(key, value.clone());
        value
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map
            .lock()
            .expect("stage cache poisoned")
            .as_ref()
            .map_or(0, HashMap::len)
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries and zeroes the statistics.
    pub fn clear(&self) {
        *self.map.lock().expect("stage cache poisoned") = None;
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// Hit/miss totals so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        telemetry::count("cache.hit", 1);
    }

    fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        telemetry::count("cache.miss", 1);
    }
}

/// A plain-text on-disk cache layer.
///
/// Each entry is a UTF-8 file `<hex key>.txt` under the cache directory —
/// inspectable with any pager, removable with `rm`. Writes go through a
/// temporary file and rename, so a crashed process never leaves a torn
/// entry behind.
///
/// Entries carry an integrity header (`mapwave-cache v1 <body hash>`): a
/// load whose body fails the checksum — truncation, bit rot, a partial
/// copy, or a pre-header legacy file — is **quarantined** (renamed to
/// `<name>.corrupt`, counted as `cache.corrupt_evicted`) and reported as a
/// miss, so callers recompute instead of consuming garbage.
#[derive(Debug, Clone)]
pub struct DiskCache {
    dir: PathBuf,
}

/// Magic prefix of a v1 disk-cache entry header.
const DISK_HEADER_PREFIX: &str = "mapwave-cache v1 ";

/// The stable hash of an entry body, as stored in its header.
fn body_digest(body: &str) -> String {
    let mut h = crate::hash::StableHasher::new();
    h.write(body.as_bytes());
    h.finish().to_hex()
}

impl DiskCache {
    /// Opens (creating if needed) the cache directory.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DiskCache { dir })
    }

    /// The directory entries live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, key: CacheKey) -> PathBuf {
        self.dir.join(format!("{}.txt", key.to_hex()))
    }

    /// The stored text for `key`, if present and intact.
    ///
    /// An entry whose integrity header is missing or whose body fails the
    /// checksum is quarantined (renamed to `<name>.corrupt`, counted as
    /// `cache.corrupt_evicted`) and treated as absent — the caller
    /// recomputes rather than panicking on (or silently trusting) a torn
    /// file.
    pub fn load(&self, key: CacheKey) -> Option<String> {
        let path = self.path_of(key);
        let raw = std::fs::read_to_string(&path).ok()?;
        match Self::verify(&raw) {
            Some(body) => Some(body.to_string()),
            None => {
                self.quarantine(&path);
                None
            }
        }
    }

    /// Splits off and checks the integrity header; `Some(body)` iff intact.
    fn verify(raw: &str) -> Option<&str> {
        let rest = raw.strip_prefix(DISK_HEADER_PREFIX)?;
        let (digest, body) = rest.split_once('\n')?;
        (digest == body_digest(body)).then_some(body)
    }

    /// Moves a failed entry aside so the slot reads as a miss from now on.
    fn quarantine(&self, path: &Path) {
        telemetry::count("cache.corrupt_evicted", 1);
        let mut corrupt = path.as_os_str().to_owned();
        corrupt.push(".corrupt");
        // If even the rename fails, fall back to removal: a corrupt entry
        // must never be served twice.
        if std::fs::rename(path, PathBuf::from(corrupt)).is_err() {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Stores `text` under `key` (with its integrity header).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if writing fails.
    pub fn store(&self, key: CacheKey, text: &str) -> std::io::Result<()> {
        let path = self.path_of(key);
        let tmp = self.dir.join(format!(".{}.tmp", key.to_hex()));
        std::fs::write(
            &tmp,
            format!("{DISK_HEADER_PREFIX}{}\n{text}", body_digest(text)),
        )?;
        std::fs::rename(&tmp, &path)
    }

    /// The stored text for `key`, computing (and persisting) it on a miss.
    ///
    /// A failed write is not fatal — the computed value is still returned.
    pub fn load_or_store_with(&self, key: CacheKey, compute: impl FnOnce() -> String) -> String {
        if let Some(text) = self.load(key) {
            telemetry::count("cache.disk.hit", 1);
            return text;
        }
        telemetry::count("cache.disk.miss", 1);
        let text = compute();
        let _ = self.store(key, &text);
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::stable_hash_of;

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
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache: StageCache<u64> = StageCache::new("test.keys");
        for i in 0..100u64 {
            cache.insert(stable_hash_of(&i), i * i);
        }
        assert_eq!(cache.len(), 100);
        for i in 0..100u64 {
            assert_eq!(cache.get(stable_hash_of(&i)), Some(i * i));
        }
    }

    #[test]
    fn clear_resets_everything() {
        let cache: StageCache<u8> = StageCache::new("test.clear");
        cache.insert(stable_hash_of(&1u8), 1);
        let _ = cache.get(stable_hash_of(&1u8));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn hit_rate_is_sane() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let s = CacheStats { hits: 3, misses: 1 };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
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
        assert_eq!(CACHE.len(), 50);
    }

    #[test]
    fn disk_cache_roundtrips() {
        let dir =
            std::env::temp_dir().join(format!("mapwave-disk-cache-test-{}", std::process::id()));
        let cache = DiskCache::open(&dir).expect("temp dir is writable");
        let k = stable_hash_of(&("fig8", 42u64));
        assert_eq!(cache.load(k), None);
        let text = cache.load_or_store_with(k, || "table body\n".to_string());
        assert_eq!(text, "table body\n");
        assert_eq!(cache.load(k), Some("table body\n".to_string()));
        let again = cache.load_or_store_with(k, || unreachable!("must hit disk"));
        assert_eq!(again, "table body\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_cache_quarantines_truncated_entries() {
        let dir =
            std::env::temp_dir().join(format!("mapwave-disk-cache-trunc-{}", std::process::id()));
        let cache = DiskCache::open(&dir).expect("temp dir is writable");
        let k = stable_hash_of(&("fig8", 7u64));
        cache.store(k, "full table body\n").unwrap();

        // Simulate a torn write: chop the file mid-body.
        let path = dir.join(format!("{}.txt", k.to_hex()));
        let raw = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 5]).unwrap();

        assert_eq!(cache.load(k), None, "truncated entry must read as a miss");
        assert!(
            dir.join(format!("{}.txt.corrupt", k.to_hex())).exists(),
            "truncated entry must be quarantined, not deleted silently"
        );
        let recomputed = cache.load_or_store_with(k, || "recomputed\n".to_string());
        assert_eq!(recomputed, "recomputed\n");
        assert_eq!(
            cache.load(k),
            Some("recomputed\n".to_string()),
            "recomputed entry is stored back intact"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_cache_rejects_headerless_legacy_entries() {
        let dir =
            std::env::temp_dir().join(format!("mapwave-disk-cache-legacy-{}", std::process::id()));
        let cache = DiskCache::open(&dir).expect("temp dir is writable");
        let k = stable_hash_of(&("legacy", 1u64));
        // A pre-header file (or arbitrary garbage dropped in the dir).
        std::fs::write(dir.join(format!("{}.txt", k.to_hex())), "old payload").unwrap();
        assert_eq!(cache.load(k), None, "headerless entry must not be served");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_cache_counts_corrupt_evictions() {
        telemetry::enable();
        let dir =
            std::env::temp_dir().join(format!("mapwave-disk-cache-count-{}", std::process::id()));
        let cache = DiskCache::open(&dir).expect("temp dir is writable");
        let k = stable_hash_of(&("counted", 2u64));
        // Other tests in this binary may reset the global telemetry store
        // concurrently; retry until an eviction is observed in a snapshot.
        let mut observed = false;
        for _ in 0..32 {
            std::fs::write(dir.join(format!("{}.txt", k.to_hex())), "garbage").unwrap();
            assert_eq!(cache.load(k), None);
            if telemetry::snapshot().counter("cache.corrupt_evicted") >= 1 {
                observed = true;
                break;
            }
        }
        assert!(
            observed,
            "quarantine must be observable via cache.corrupt_evicted"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
