//! `cache.wait` counts exactly the lookups that found their key still
//! being computed by another thread: a caller that arrives mid-compute
//! waits once, a caller that arrives after the value is ready does not.
//!
//! Single-test binary on purpose: it asserts on the process-global
//! telemetry counters, which other tests in the same binary could reset
//! concurrently.

use std::sync::mpsc;
use std::time::Duration;

use mapwave_harness::cache::{CacheStats, StageCache};
use mapwave_harness::hash::stable_hash_of;
use mapwave_harness::telemetry;

#[test]
fn a_lookup_that_blocks_on_another_threads_compute_counts_one_wait() {
    static CACHE: StageCache<u64> = StageCache::new("test.wait");
    let key = stable_hash_of(&"slow");
    telemetry::reset();
    telemetry::enable();

    let (started, computing) = mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(|| {
            let v = CACHE.get_or_insert_with(key, || {
                started.send(()).unwrap();
                std::thread::sleep(Duration::from_millis(200));
                7
            });
            assert_eq!(v, 7);
            telemetry::flush();
        });
        // Look the key up while the other thread is inside `compute`.
        computing.recv().unwrap();
        assert_eq!(CACHE.get_or_insert_with(key, || unreachable!()), 7);
    });
    // The value is ready now: a plain hit.
    assert_eq!(CACHE.get_or_insert_with(key, || unreachable!()), 7);

    let seen = telemetry::snapshot();
    telemetry::disable();
    assert_eq!(CACHE.stats(), CacheStats { hits: 2, misses: 1 });
    assert_eq!(seen.counter("cache.miss"), 1);
    assert_eq!(seen.counter("cache.hit"), 2);
    assert_eq!(
        seen.counter("cache.wait"),
        1,
        "only the blocked lookup waited"
    );
}
