//! The concurrent specialization cache.
//!
//! Keyed by (filter-program fingerprint, options fingerprint), so
//! artifacts compiled under different machine modes can never alias.
//! Entries are `OnceLock`s inside one `RwLock` map: the lock is held
//! only long enough to find or insert the entry, and the (expensive —
//! a store load, or a whole session build plus a generator run)
//! initialization itself happens in `OnceLock::get_or_init`, where
//! concurrent requesters of the *same* filter block until the one
//! initializer finishes and requesters of *other* filters proceed
//! untouched. N workers asking for one filter trigger exactly one
//! specialization, by construction rather than by luck.
//!
//! **Eviction is least-recently-used** over the whole map, with an exact
//! capacity. Every lookup stamps its entry from a cache-wide tick
//! counter (under the read lock only); a full cache drops the
//! initialized entry with the smallest stamp. The victim depends only on
//! the order of lookups, never on a clock, so one request sequence
//! gives the same hits, misses and evictions on every run.
//!
//! **Failures expire.** A failed specialization is cached (so a broken
//! filter fails fast instead of re-running the generator per request)
//! but only for 30 seconds: a transient failure must not poison a
//! tenant until process restart, and a permanently broken filter is
//! cheap to re-discover. Successful entries leave only by eviction.

use crate::store::ArtifactStore;
use mlbox::{CompiledFilter, SessionOptions};
use mlbox_bpf::insn::{fingerprint, Insn};
use mlbox_bpf::FilterHarness;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// How long a failed specialization stays cached before its key is
/// tried again.
const NEGATIVE_TTL: Duration = Duration::from_secs(30);

/// What a cached specialization is indexed by. Both halves are stable
/// fingerprints ([`mlbox_bpf::insn::fingerprint`],
/// [`SessionOptions::fingerprint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Fingerprint of the filter program.
    pub filter: u64,
    /// Fingerprint of the session options the artifact is compiled under.
    pub options: u64,
}

impl CacheKey {
    /// The key for `filter` specialized under `options`.
    pub fn new(filter: &[Insn], options: &SessionOptions) -> CacheKey {
        CacheKey {
            filter: fingerprint(filter),
            options: options.fingerprint(),
        }
    }
}

/// A point-in-time snapshot of cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from an already-initialized entry (including
    /// requests that blocked on another thread's in-flight
    /// specialization — the work was still done once).
    pub hits: u64,
    /// Requests whose initializer actually ran.
    pub misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Cached failures dropped because their 30-second lifetime lapsed.
    pub expired: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Total requests observed.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }

    /// hits / requests, or 0 for an untouched cache.
    pub fn hit_rate(&self) -> f64 {
        let req = self.requests();
        if req == 0 {
            0.0
        } else {
            self.hits as f64 / req as f64
        }
    }
}

/// One cache slot: the exactly-once cell plus what eviction and expiry
/// decide by.
#[derive(Debug)]
struct EntryState<T> {
    cell: OnceLock<Result<Arc<T>, String>>,
    inserted: Instant,
    /// The cache tick of the latest lookup; the smallest is the victim.
    used: AtomicU64,
}

impl<T> EntryState<T> {
    /// Whether the entry is a failure older than `negative_ttl`. An
    /// entry still in flight never expires under its initializer.
    fn expired(&self, negative_ttl: Duration) -> bool {
        matches!(self.cell.get(), Some(Err(_))) && self.inserted.elapsed() > negative_ttl
    }
}

type Entry<T> = Arc<EntryState<T>>;

/// A capacity-bounded, exactly-once concurrent cache with
/// least-recently-used eviction.
///
/// Generic over the cached artifact so tests can exercise the
/// concurrency contract with cheap payloads; the serving layer uses
/// [`FilterCache`].
pub struct SpecializationCache<T> {
    map: RwLock<HashMap<CacheKey, Entry<T>>>,
    capacity: usize,
    negative_ttl: Duration,
    /// Source of the recency stamps.
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    expired: AtomicU64,
}

impl<T> fmt::Debug for SpecializationCache<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpecializationCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl<T> SpecializationCache<T> {
    /// A cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        SpecializationCache {
            map: RwLock::new(HashMap::new()),
            capacity,
            negative_ttl: NEGATIVE_TTL,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            expired: AtomicU64::new(0),
        }
    }

    /// Marks `entry` as the most recently used.
    fn touch(&self, entry: &EntryState<T>) {
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        entry.used.store(now, Ordering::Relaxed);
    }

    /// Looks up `key`, running `init` to fill the entry if absent.
    /// Exactly one concurrent caller per key runs `init`; the others
    /// block until it finishes and share the result. Failures are cached
    /// too — a filter that fails to specialize fails every request
    /// identically instead of re-specializing per request — but only for
    /// 30 seconds.
    ///
    /// # Errors
    ///
    /// Returns the error `init` produced (now or on a previous request).
    ///
    /// # Panics
    ///
    /// Panics if the map lock is poisoned.
    pub fn get_or_init(
        &self,
        key: CacheKey,
        init: impl FnOnce() -> Result<Arc<T>, String>,
    ) -> Result<Arc<T>, String> {
        // Fast path: a live entry exists; never take the write lock.
        let entry = {
            let map = self.map.read().expect("cache lock poisoned");
            match map.get(&key) {
                Some(e) if !e.expired(self.negative_ttl) => {
                    self.touch(e);
                    Some(e.clone())
                }
                _ => None,
            }
        };
        let entry = match entry {
            Some(e) => e,
            None => {
                let mut map = self.map.write().expect("cache lock poisoned");
                // Drop every lapsed failure while we hold the write lock
                // anyway — expiry is lazy, amortized onto the misses that
                // need the lock regardless.
                let before = map.len();
                map.retain(|_, e| !e.expired(self.negative_ttl));
                self.expired
                    .fetch_add((before - map.len()) as u64, Ordering::Relaxed);
                let entry = match map.get(&key) {
                    // Lost the insert race to another writer; use theirs.
                    Some(e) => e.clone(),
                    None => {
                        while map.len() >= self.capacity {
                            let Some(victim) = victim_of(&map) else { break };
                            map.remove(&victim);
                            self.evictions.fetch_add(1, Ordering::Relaxed);
                        }
                        let entry = Arc::new(EntryState {
                            cell: OnceLock::new(),
                            inserted: Instant::now(),
                            used: AtomicU64::new(0),
                        });
                        map.insert(key, entry.clone());
                        entry
                    }
                };
                self.touch(&entry);
                entry
            }
        };
        // Initialize outside the lock: a slow specialization must not
        // stall requests for other filters.
        let mut ran = false;
        let result = entry
            .cell
            .get_or_init(|| {
                ran = true;
                init()
            })
            .clone();
        // Only the caller whose initializer ran counts a miss, so
        // misses == distinct keys exactly, even under contention.
        if ran {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Current counters and residency.
    ///
    /// # Panics
    ///
    /// Panics if the map lock is poisoned.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            entries: self.map.read().expect("cache lock poisoned").len(),
        }
    }
}

/// Picks the entry a full cache should drop: the initialized entry used
/// least recently. If *every* entry is still initializing — their
/// initializers owed to blocked waiters — the oldest in-flight entry is
/// unlinked instead; its waiters keep their `Arc` and complete
/// normally, the map just stops tracking it.
fn victim_of<T>(map: &HashMap<CacheKey, Entry<T>>) -> Option<CacheKey> {
    let initialized = map
        .iter()
        .filter(|(_, e)| e.cell.get().is_some())
        .min_by_key(|(_, e)| e.used.load(Ordering::Relaxed))
        .map(|(k, _)| *k);
    initialized.or_else(|| map.iter().min_by_key(|(_, e)| e.inserted).map(|(k, _)| *k))
}

/// The cache the serving layer actually uses: filter programs to
/// [`CompiledFilter`] artifacts.
pub type FilterCache = SpecializationCache<CompiledFilter>;

impl FilterCache {
    /// Returns the artifact for `filter` specialized under `options`,
    /// building a one-shot harness session and running the generator if
    /// (and only if) no other request has done so already. `key` is
    /// `CacheKey::new(filter, options)`, which the caller has computed
    /// already (a pool worker hashes each batch's filter once).
    ///
    /// # Errors
    ///
    /// Returns a rendered error if the filter is invalid or
    /// specialization fails; the failure is cached for 30 seconds.
    pub fn get_or_specialize(
        &self,
        key: CacheKey,
        filter: &[Insn],
        options: &SessionOptions,
    ) -> Result<Arc<CompiledFilter>, String> {
        debug_assert_eq!(key, CacheKey::new(filter, options));
        self.get_or_init(key, || specialize(filter, options))
    }

    /// Like [`get_or_specialize`](FilterCache::get_or_specialize), with
    /// the disk `store` as the tier between this cache and the
    /// generator: a cache miss first tries to load the persisted
    /// artifact (container-verified, session-free); only if the store
    /// also misses does the generator run — and its product is saved, so
    /// the *next* cold process (or post-eviction request) loads instead
    /// of recompiling.
    ///
    /// # Errors
    ///
    /// Returns a rendered error if the store has a corrupt or
    /// incompatible artifact for the key, or if specialization fails.
    pub fn get_or_load_or_specialize(
        &self,
        key: CacheKey,
        filter: &[Insn],
        options: &SessionOptions,
        store: &ArtifactStore,
    ) -> Result<Arc<CompiledFilter>, String> {
        debug_assert_eq!(key, CacheKey::new(filter, options));
        self.get_or_init(key, || {
            if let Some(artifact) = store.load(key.filter, options).map_err(|e| e.to_string())? {
                return Ok(Arc::new(artifact));
            }
            let artifact = specialize(filter, options)?;
            store.save(&artifact).map_err(|e| e.to_string())?;
            Ok(artifact)
        })
    }
}

fn specialize(filter: &[Insn], options: &SessionOptions) -> Result<Arc<CompiledFilter>, String> {
    let mut harness =
        FilterHarness::with_options(filter, options.clone()).map_err(|e| e.to_string())?;
    let artifact = harness.compile_artifact().map_err(|e| e.to_string())?;
    Ok(Arc::new(artifact))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlbox_bpf::{port_filter, telnet_filter};

    fn specialize_in(
        cache: &FilterCache,
        filter: &[Insn],
        options: &SessionOptions,
    ) -> Result<Arc<CompiledFilter>, String> {
        cache.get_or_specialize(CacheKey::new(filter, options), filter, options)
    }

    #[test]
    fn misses_count_distinct_keys_and_hits_the_rest() {
        let cache: SpecializationCache<u64> = SpecializationCache::new(16);
        let k1 = CacheKey {
            filter: 1,
            options: 0,
        };
        let k2 = CacheKey {
            filter: 2,
            options: 0,
        };
        for _ in 0..5 {
            cache.get_or_init(k1, || Ok(Arc::new(10))).unwrap();
        }
        for _ in 0..3 {
            cache.get_or_init(k2, || Ok(Arc::new(20))).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 6);
        assert_eq!(stats.requests(), 8);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn same_filter_different_options_do_not_alias() {
        let filter = telnet_filter();
        let plain = SessionOptions::default();
        let flat = SessionOptions {
            flat_env: true,
            ..SessionOptions::default()
        };
        assert_ne!(
            CacheKey::new(&filter, &plain),
            CacheKey::new(&filter, &flat)
        );
        let cache = FilterCache::new(16);
        specialize_in(&cache, &filter, &plain).unwrap();
        specialize_in(&cache, &filter, &flat).unwrap();
        assert_eq!(cache.stats().misses, 2, "one specialization per mode");
    }

    #[test]
    fn flat_env_and_default_artifacts_never_alias() {
        // A flat-env artifact compiles `acc n`/`env_cons` streams and
        // may carry frame-backed values; serving it from the pair-spine
        // slot (or vice versa) would change both the instruction stream
        // and the step accounting. The options fingerprint must keep the
        // two modes in separate cache entries.
        let filter = telnet_filter();
        let plain = SessionOptions::default();
        let flat = SessionOptions {
            flat_env: true,
            ..SessionOptions::default()
        };
        assert_ne!(
            CacheKey::new(&filter, &plain),
            CacheKey::new(&filter, &flat)
        );
        let cache = FilterCache::new(16);
        specialize_in(&cache, &filter, &plain).unwrap();
        specialize_in(&cache, &filter, &flat).unwrap();
        assert_eq!(cache.stats().misses, 2, "one specialization per mode");
    }

    #[test]
    fn failures_are_cached() {
        use mlbox_bpf::insn::Insn;
        let bad = vec![Insn::JeqK { k: 0, jt: 9, jf: 9 }];
        let cache = FilterCache::new(16);
        let opts = SessionOptions::default();
        let e1 = specialize_in(&cache, &bad, &opts).unwrap_err();
        let e2 = specialize_in(&cache, &bad, &opts).unwrap_err();
        assert_eq!(e1, e2);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1), "failure hits the cache");
    }

    #[test]
    fn failures_expire_after_the_negative_ttl() {
        // The bugfix this PR ships: a cached failure must age out instead
        // of poisoning its key (and holding capacity) until restart.
        let mut cache: SpecializationCache<u64> = SpecializationCache::new(16);
        cache.negative_ttl = Duration::from_millis(40);
        let key = CacheKey {
            filter: 7,
            options: 0,
        };
        cache
            .get_or_init(key, || Err("transient".into()))
            .unwrap_err();
        // Within the TTL the failure is served from cache...
        cache
            .get_or_init(key, || panic!("must not re-run yet"))
            .unwrap_err();
        std::thread::sleep(Duration::from_millis(60));
        // ...after it, the initializer runs again and can now succeed.
        let v = cache.get_or_init(key, || Ok(Arc::new(42))).unwrap();
        assert_eq!(*v, 42);
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "failure re-initialized after TTL");
        assert_eq!(stats.expired, 1);
        // The recovered success does not expire.
        std::thread::sleep(Duration::from_millis(60));
        cache
            .get_or_init(key, || panic!("success must persist"))
            .unwrap();
    }

    #[test]
    fn capacity_is_bounded() {
        let cache: SpecializationCache<u64> = SpecializationCache::new(8);
        for i in 0..64u64 {
            let k = CacheKey {
                filter: i,
                options: 0,
            };
            cache.get_or_init(k, || Ok(Arc::new(i))).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 8, "the capacity is exact");
        assert_eq!(stats.evictions, 56);
        assert_eq!(stats.misses, 64);
    }

    #[test]
    fn eviction_drops_the_least_recently_used_entry() {
        // A is slow to build and B instant, but B was used last: the
        // third key evicts A, whatever either cost to build.
        let cache: SpecializationCache<u64> = SpecializationCache::new(2);
        let [a, b, c] = [5, 13, 21].map(|filter| CacheKey { filter, options: 0 });
        cache
            .get_or_init(a, || {
                std::thread::sleep(Duration::from_millis(5));
                Ok(Arc::new(1))
            })
            .unwrap();
        cache.get_or_init(b, || Ok(Arc::new(2))).unwrap();
        cache.get_or_init(b, || panic!("B is resident")).unwrap();
        cache.get_or_init(c, || Ok(Arc::new(3))).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        cache
            .get_or_init(b, || panic!("the recently used entry was evicted"))
            .unwrap();
        let mut reran = false;
        cache
            .get_or_init(a, || {
                reran = true;
                Ok(Arc::new(1))
            })
            .unwrap();
        assert!(
            reran,
            "the least recently used entry should have been the victim"
        );
    }

    #[test]
    fn tenant_sweep_keeps_the_hot_keys_resident() {
        // The multi-tenant thrash scenario: a small hot set is swept over
        // repeatedly while cold tenants stream through a cache far
        // smaller than the tenant count. The hot keys are always among
        // the most recently used, so each is built exactly once.
        const TENANTS: u64 = 2048;
        const HOT: u64 = 4;
        let cache: SpecializationCache<u64> = SpecializationCache::new(64);
        let mut builds = vec![0u32; TENANTS as usize];
        let mut access = |filter: u64| {
            let key = CacheKey { filter, options: 0 };
            cache
                .get_or_init(key, || {
                    builds[filter as usize] += 1;
                    Ok(Arc::new(filter))
                })
                .unwrap();
        };
        for hot in 0..HOT {
            access(hot);
        }
        for cold in HOT..TENANTS {
            access(cold);
            for hot in 0..HOT {
                access(hot);
            }
        }
        assert_eq!(builds[..HOT as usize], [1; HOT as usize]);
        let stats = cache.stats();
        assert_eq!(stats.misses, TENANTS);
        assert_eq!(stats.evictions, TENANTS - 64);
    }

    #[test]
    fn cached_artifacts_are_shared_not_rebuilt() {
        let cache = FilterCache::new(16);
        let opts = SessionOptions::default();
        let filter = port_filter(80);
        let a = specialize_in(&cache, &filter, &opts).unwrap();
        let b = specialize_in(&cache, &filter, &opts).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
