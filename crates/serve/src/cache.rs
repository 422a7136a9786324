//! The concurrent specialization cache.
//!
//! Keyed by (filter-program fingerprint, options fingerprint), so
//! artifacts compiled under different machine modes can never alias.
//! Entries are `OnceLock`s inside sharded `RwLock` maps: the shard lock
//! is held only long enough to find or insert the entry, and the
//! (expensive — a whole session build plus a generator run)
//! specialization itself happens in `OnceLock::get_or_init`, where
//! concurrent requesters of the *same* filter block until the one
//! initializer finishes and requesters of *other* filters proceed
//! untouched. N workers asking for one filter trigger exactly one
//! specialization, by construction rather than by luck.
//!
//! **Eviction is cost-aware**, not FIFO: each entry carries its measured
//! initialization cost (wall nanoseconds of the specialization that
//! built it) and a size (instruction count for filter artifacts), and
//! when a shard is full the entry with the smallest `cost × size`
//! weight is dropped — the entry that is cheapest to rebuild and frees
//! the least. A multi-tenant sweep where one tenant's filter took 200ms
//! to specialize and another's took 2ms should never evict the former
//! to admit a third copy of the latter.
//!
//! **Eviction remembers.** Each shard keeps an ARC-style *ghost list*:
//! the rebuild weight of recently evicted entries, keyed by the evicted
//! key. When a key on the ghost list is re-admitted — typically via a
//! fast disk-store load rather than a full re-specialization — the new
//! entry is pre-seeded with the weight it earned originally, so the
//! cheapness of the *reload* does not mark a genuinely expensive filter
//! as the shard's next victim. Without this, a popular filter evicted
//! once thrashes forever: every reload is cheap, so every reload makes
//! it the minimum-weight entry again.
//!
//! **Entries expire.** Successful entries live for the configured
//! [`CacheConfig::ttl`] (unbounded by default). *Failed* specializations
//! are special: they are cached (so a broken filter fails fast instead
//! of re-running the generator per request) but only for the bounded
//! [`CacheConfig::negative_ttl`] — a transient failure must not poison a
//! tenant until process restart, and a permanently broken filter is
//! cheap to re-discover.

use crate::store::ArtifactStore;
use mlbox::fingerprint::Fnv1a;
use mlbox::{CompiledFilter, SessionOptions};
use mlbox_bpf::insn::{fingerprint, Insn};
use mlbox_bpf::FilterHarness;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Duration, Instant};

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

    fn shard_of(&self, shards: usize) -> usize {
        // The halves are already FNV digests; fold and re-mix so shard
        // choice doesn't correlate with the low bits of either.
        let mut h = Fnv1a::new();
        h.write_u64(self.filter);
        h.write_u64(self.options);
        (h.finish() % shards as u64) as usize
    }
}

/// Cache tuning knobs.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Maximum resident entries (approximately; enforced per shard).
    pub capacity: usize,
    /// Lifetime of successful entries; `None` = never expire.
    pub ttl: Option<Duration>,
    /// Lifetime of *failed* entries. Always bounded: a cached failure
    /// must age out so a transient problem (exhausted fuel budget, a
    /// racing deploy) does not poison the key until process restart.
    pub negative_ttl: Duration,
    /// How many evicted keys the ghost list remembers (approximately;
    /// enforced per shard). A re-admitted key found on the ghost list is
    /// pre-seeded with the eviction-time weight it earned originally, so
    /// a cheap reload does not make it the instant next victim. Zero
    /// disables the ghost list.
    pub ghost_capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 64,
            ttl: None,
            negative_ttl: Duration::from_secs(30),
            ghost_capacity: 256,
        }
    }
}

impl CacheConfig {
    /// A config with the given capacity and default lifetimes.
    pub fn with_capacity(capacity: usize) -> CacheConfig {
        CacheConfig {
            capacity,
            ..CacheConfig::default()
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
    /// Entries dropped because their TTL (positive or negative) lapsed.
    pub expired: u64,
    /// Re-admissions that found their key on the ghost list and kept
    /// their original rebuild weight.
    pub ghost_hits: u64,
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

/// One cache slot: the exactly-once cell plus the metadata eviction and
/// expiry decide by. `cost`/`size` are written once by the thread whose
/// initializer ran, before any other thread can read the filled cell's
/// weight for eviction — a racing reader sees at worst the pessimistic
/// default (0 ⇒ min weight), which only makes the entry *more* evictable.
#[derive(Debug)]
struct EntryState<T> {
    cell: OnceLock<Result<Arc<T>, String>>,
    inserted: Instant,
    /// Measured initialization cost, nanoseconds.
    cost: AtomicU64,
    /// Size in the cache's own unit (instruction count for artifacts).
    size: AtomicU64,
}

impl<T> EntryState<T> {
    fn new() -> Self {
        EntryState {
            cell: OnceLock::new(),
            inserted: Instant::now(),
            cost: AtomicU64::new(0),
            size: AtomicU64::new(0),
        }
    }

    /// Rebuild-cost × size, the eviction weight. At least 1 for any
    /// initialized entry so weights multiply meaningfully.
    fn weight(&self) -> u64 {
        self.cost
            .load(Ordering::Relaxed)
            .max(1)
            .saturating_mul(self.size.load(Ordering::Relaxed).max(1))
    }

    /// Whether the entry's lifetime has lapsed under `config`.
    fn expired(&self, config: &CacheConfig) -> bool {
        match self.cell.get() {
            None => false, // in flight: never expire under the initializer
            Some(Ok(_)) => config.ttl.is_some_and(|ttl| self.inserted.elapsed() > ttl),
            Some(Err(_)) => self.inserted.elapsed() > config.negative_ttl,
        }
    }
}

type Entry<T> = Arc<EntryState<T>>;

#[derive(Debug)]
struct Shard<T> {
    map: HashMap<CacheKey, Entry<T>>,
    /// Ghost list: eviction-time (cost, size) of recently evicted
    /// entries, with `ghost_order` tracking eviction recency for the
    /// capacity bound.
    ghost: HashMap<CacheKey, (u64, u64)>,
    ghost_order: VecDeque<CacheKey>,
}

impl<T> Shard<T> {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            ghost: HashMap::new(),
            ghost_order: VecDeque::new(),
        }
    }

    /// Records an evicted entry's weight, dropping the oldest ghosts
    /// beyond `capacity`.
    fn remember_ghost(&mut self, key: CacheKey, cost: u64, size: u64, capacity: usize) {
        if capacity == 0 {
            return;
        }
        if self.ghost.insert(key, (cost, size)).is_some() {
            self.ghost_order.retain(|k| *k != key);
        }
        self.ghost_order.push_back(key);
        while self.ghost.len() > capacity {
            match self.ghost_order.pop_front() {
                Some(old) => {
                    self.ghost.remove(&old);
                }
                None => break,
            }
        }
    }

    /// Takes a remembered weight for a re-admitted key, if any.
    fn recall_ghost(&mut self, key: &CacheKey) -> Option<(u64, u64)> {
        let remembered = self.ghost.remove(key)?;
        self.ghost_order.retain(|k| k != key);
        Some(remembered)
    }
}

type Sizer<T> = Box<dyn Fn(&T) -> u64 + Send + Sync>;

/// A sharded, capacity-bounded, exactly-once concurrent cache with
/// cost-aware eviction and per-entry TTLs.
///
/// Generic over the cached artifact so tests can exercise the
/// concurrency contract with cheap payloads; the serving layer uses
/// [`FilterCache`].
pub struct SpecializationCache<T> {
    shards: Vec<RwLock<Shard<T>>>,
    per_shard_capacity: usize,
    per_shard_ghost: usize,
    config: CacheConfig,
    sizer: Sizer<T>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    expired: AtomicU64,
    ghost_hits: AtomicU64,
}

impl<T> fmt::Debug for SpecializationCache<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpecializationCache")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

const SHARDS: usize = 8;

impl<T> SpecializationCache<T> {
    /// A cache holding at most (roughly) `capacity` entries with default
    /// lifetimes, entries weighted 1 apiece (pure cost eviction).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self::with_config(CacheConfig::with_capacity(capacity))
    }

    /// A cache with explicit tuning and unit entry sizes.
    ///
    /// # Panics
    ///
    /// Panics if `config.capacity` is zero.
    pub fn with_config(config: CacheConfig) -> Self {
        Self::with_config_and_sizer(config, Box::new(|_| 1))
    }

    /// A cache with explicit tuning and an entry-size measure; eviction
    /// weight is measured-cost × size.
    ///
    /// # Panics
    ///
    /// Panics if `config.capacity` is zero.
    pub fn with_config_and_sizer(config: CacheConfig, sizer: Sizer<T>) -> Self {
        assert!(config.capacity > 0, "cache capacity must be positive");
        SpecializationCache {
            shards: (0..SHARDS).map(|_| RwLock::new(Shard::new())).collect(),
            per_shard_capacity: config.capacity.div_ceil(SHARDS),
            per_shard_ghost: config.ghost_capacity.div_ceil(SHARDS),
            config,
            sizer,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            ghost_hits: AtomicU64::new(0),
        }
    }

    /// Looks up `key`, running `init` to fill the entry if absent.
    /// Exactly one concurrent caller per key runs `init`; the others
    /// block until it finishes and share the result. Failures are cached
    /// too — a filter that fails to specialize fails every request
    /// identically instead of re-specializing per request — but only for
    /// [`CacheConfig::negative_ttl`]. The entry's eviction cost is the
    /// measured wall time of `init`.
    ///
    /// # Errors
    ///
    /// Returns the error `init` produced (now or on a previous request).
    ///
    /// # Panics
    ///
    /// Panics if a shard lock is poisoned (a previous `init` panicked).
    pub fn get_or_init(
        &self,
        key: CacheKey,
        init: impl FnOnce() -> Result<Arc<T>, String>,
    ) -> Result<Arc<T>, String> {
        self.get_or_init_costed(key, || {
            let started = Instant::now();
            let result = init();
            let cost = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            result.map(|value| (value, cost.max(1)))
        })
    }

    /// [`get_or_init`](Self::get_or_init) with the initializer reporting
    /// its own rebuild cost (for callers that know it better than wall
    /// time — e.g. a store load reporting the cost of the *original*
    /// specialization — and for deterministic eviction tests).
    ///
    /// # Errors
    ///
    /// Returns the error `init` produced (now or on a previous request).
    ///
    /// # Panics
    ///
    /// Panics if a shard lock is poisoned (a previous `init` panicked).
    pub fn get_or_init_costed(
        &self,
        key: CacheKey,
        init: impl FnOnce() -> Result<(Arc<T>, u64), String>,
    ) -> Result<Arc<T>, String> {
        let shard = &self.shards[key.shard_of(SHARDS)];
        // Fast path: a live entry exists; never take the write lock.
        let entry = {
            let guard = shard.read().expect("cache shard poisoned");
            match guard.map.get(&key) {
                Some(e) if !e.expired(&self.config) => Some(e.clone()),
                _ => None,
            }
        };
        let entry = match entry {
            Some(e) => e,
            None => {
                let mut guard = shard.write().expect("cache shard poisoned");
                // Drop every lapsed entry in the shard while we hold the
                // write lock anyway — expiry is lazy, amortized onto the
                // misses that need the lock regardless.
                let lapsed: Vec<CacheKey> = guard
                    .map
                    .iter()
                    .filter(|(_, e)| e.expired(&self.config))
                    .map(|(k, _)| *k)
                    .collect();
                for k in &lapsed {
                    guard.map.remove(k);
                    self.expired.fetch_add(1, Ordering::Relaxed);
                }
                match guard.map.get(&key) {
                    // Lost the insert race to another writer; use theirs.
                    Some(e) => e.clone(),
                    None => {
                        while guard.map.len() >= self.per_shard_capacity {
                            match victim_of(&guard.map) {
                                Some(v) => {
                                    if let Some(e) = guard.map.remove(&v) {
                                        // Remember successful victims so
                                        // a prompt re-admission keeps the
                                        // weight the entry earned when it
                                        // was actually built.
                                        if e.cell.get().is_some_and(|r| r.is_ok()) {
                                            let cost = e.cost.load(Ordering::Relaxed);
                                            let size = e.size.load(Ordering::Relaxed);
                                            guard.remember_ghost(
                                                v,
                                                cost,
                                                size,
                                                self.per_shard_ghost,
                                            );
                                        }
                                    }
                                    self.evictions.fetch_add(1, Ordering::Relaxed);
                                }
                                None => break,
                            }
                        }
                        let entry = Arc::new(EntryState::new());
                        if let Some((cost, size)) = guard.recall_ghost(&key) {
                            entry.cost.store(cost, Ordering::Relaxed);
                            entry.size.store(size, Ordering::Relaxed);
                            self.ghost_hits.fetch_add(1, Ordering::Relaxed);
                        }
                        guard.map.insert(key, entry.clone());
                        entry
                    }
                }
            }
        };
        // Initialize outside any shard lock: a slow specialization must
        // not stall requests for other filters in the same shard.
        let mut ran = false;
        let result = entry
            .cell
            .get_or_init(|| {
                ran = true;
                match init() {
                    Ok((value, cost)) => {
                        // A ghost re-admission pre-seeded `cost` with the
                        // weight the entry earned when it was originally
                        // built; a cheap rebuild (a store load) must not
                        // shrink it back to instant-victim territory.
                        let remembered = entry.cost.load(Ordering::Relaxed);
                        entry.cost.store(cost.max(remembered), Ordering::Relaxed);
                        entry.size.store((self.sizer)(&value), Ordering::Relaxed);
                        Ok(value)
                    }
                    Err(e) => Err(e),
                }
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
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            ghost_hits: self.ghost_hits.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.read().expect("cache shard poisoned").map.len())
                .sum(),
        }
    }
}

/// Picks the entry a full shard should drop: the initialized entry with
/// the smallest cost × size weight (cheapest to rebuild, least to free),
/// oldest first among equals. If *every* entry is still initializing —
/// their weights unknown and their initializers owed to blocked waiters
/// — the oldest in-flight entry is unlinked instead; its waiters keep
/// their `Arc` and complete normally, the map just stops tracking it.
fn victim_of<T>(map: &HashMap<CacheKey, Entry<T>>) -> Option<CacheKey> {
    let initialized = map
        .iter()
        .filter(|(_, e)| e.cell.get().is_some())
        .min_by_key(|(_, e)| (e.weight(), e.inserted))
        .map(|(k, _)| *k);
    initialized.or_else(|| map.iter().min_by_key(|(_, e)| e.inserted).map(|(k, _)| *k))
}

/// The cache the serving layer actually uses: filter programs to
/// [`CompiledFilter`] artifacts, sized by instruction count so eviction
/// weight is (specialization nanoseconds × artifact instructions).
pub type FilterCache = SpecializationCache<CompiledFilter>;

/// The sizer [`FilterCache`] constructors install.
fn artifact_sizer() -> Sizer<CompiledFilter> {
    Box::new(|artifact| artifact.instructions() as u64)
}

impl FilterCache {
    /// A filter cache with explicit tuning, sized by instruction count.
    ///
    /// # Panics
    ///
    /// Panics if `config.capacity` is zero.
    pub fn for_filters(config: CacheConfig) -> FilterCache {
        FilterCache::with_config_and_sizer(config, artifact_sizer())
    }

    /// Returns the artifact for `filter` specialized under `options`,
    /// building a one-shot harness session and running the generator if
    /// (and only if) no other request has done so already.
    ///
    /// # Errors
    ///
    /// Returns a rendered error if the filter is invalid or
    /// specialization fails; the failure is cached (for
    /// [`CacheConfig::negative_ttl`]).
    pub fn get_or_specialize(
        &self,
        filter: &[Insn],
        options: &SessionOptions,
    ) -> Result<Arc<CompiledFilter>, String> {
        let key = CacheKey::new(filter, options);
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
        filter: &[Insn],
        options: &SessionOptions,
        store: &ArtifactStore,
    ) -> Result<Arc<CompiledFilter>, String> {
        let key = CacheKey::new(filter, options);
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

    /// Keys that all land in one shard, for deterministic eviction tests.
    fn same_shard_keys(n: usize) -> Vec<CacheKey> {
        let mut keys = Vec::new();
        let mut filter = 0u64;
        while keys.len() < n {
            let key = CacheKey { filter, options: 0 };
            if key.shard_of(SHARDS) == 0 {
                keys.push(key);
            }
            filter += 1;
        }
        keys
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
        let optimized = SessionOptions {
            optimize: true,
            ..SessionOptions::default()
        };
        assert_ne!(
            CacheKey::new(&filter, &plain),
            CacheKey::new(&filter, &optimized)
        );
        let cache = FilterCache::new(16);
        cache.get_or_specialize(&filter, &plain).unwrap();
        cache.get_or_specialize(&filter, &optimized).unwrap();
        assert_eq!(cache.stats().misses, 2, "one specialization per mode");
    }

    #[test]
    fn fused_and_unfused_artifacts_never_alias() {
        // A fused artifact has a different instruction stream (and step
        // counts) than the default one; serving it from the unfused slot
        // would silently change the cost model mid-flight.
        let filter = telnet_filter();
        let plain = SessionOptions::default();
        let fused = SessionOptions {
            fuse: true,
            ..SessionOptions::default()
        };
        assert_ne!(
            CacheKey::new(&filter, &plain),
            CacheKey::new(&filter, &fused)
        );
        let cache = FilterCache::new(16);
        let a = cache.get_or_specialize(&filter, &plain).unwrap();
        let b = cache.get_or_specialize(&filter, &fused).unwrap();
        assert_eq!(cache.stats().misses, 2, "one specialization per mode");
        assert!(
            b.instructions() < a.instructions(),
            "the fused artifact carries fused (fewer) instructions: {} vs {}",
            b.instructions(),
            a.instructions()
        );
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
        cache.get_or_specialize(&filter, &plain).unwrap();
        cache.get_or_specialize(&filter, &flat).unwrap();
        assert_eq!(cache.stats().misses, 2, "one specialization per mode");
    }

    #[test]
    fn failures_are_cached() {
        use mlbox_bpf::insn::Insn;
        let bad = vec![Insn::JeqK { k: 0, jt: 9, jf: 9 }];
        let cache = FilterCache::new(16);
        let opts = SessionOptions::default();
        let e1 = cache.get_or_specialize(&bad, &opts).unwrap_err();
        let e2 = cache.get_or_specialize(&bad, &opts).unwrap_err();
        assert_eq!(e1, e2);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1), "failure hits the cache");
    }

    #[test]
    fn failures_expire_after_the_negative_ttl() {
        // The bugfix this PR ships: a cached failure must age out instead
        // of poisoning its key (and holding capacity) until restart.
        let cache: SpecializationCache<u64> = SpecializationCache::with_config(CacheConfig {
            capacity: 16,
            ttl: None,
            negative_ttl: Duration::from_millis(40),
            ..CacheConfig::default()
        });
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
        // The recovered success does not expire (no positive TTL here).
        std::thread::sleep(Duration::from_millis(60));
        cache
            .get_or_init(key, || panic!("success must persist"))
            .unwrap();
    }

    #[test]
    fn successes_expire_after_the_positive_ttl() {
        let cache: SpecializationCache<u64> = SpecializationCache::with_config(CacheConfig {
            capacity: 16,
            ttl: Some(Duration::from_millis(40)),
            negative_ttl: Duration::from_secs(30),
            ..CacheConfig::default()
        });
        let key = CacheKey {
            filter: 9,
            options: 0,
        };
        cache.get_or_init(key, || Ok(Arc::new(1))).unwrap();
        cache
            .get_or_init(key, || panic!("fresh entry must be served"))
            .unwrap();
        std::thread::sleep(Duration::from_millis(60));
        cache.get_or_init(key, || Ok(Arc::new(2))).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "entry rebuilt after TTL");
        assert_eq!(stats.expired, 1);
    }

    #[test]
    fn capacity_is_bounded() {
        let cache: SpecializationCache<u64> = SpecializationCache::new(8);
        // Per-shard capacity is 1, so hammering many keys forces
        // evictions whatever shard they land in.
        for i in 0..64u64 {
            let k = CacheKey {
                filter: i,
                options: 0,
            };
            cache.get_or_init(k, || Ok(Arc::new(i))).unwrap();
        }
        let stats = cache.stats();
        assert!(stats.entries <= 8, "resident {} > capacity", stats.entries);
        assert!(stats.evictions > 0);
        assert_eq!(stats.misses, 64);
    }

    #[test]
    fn eviction_prefers_the_cheapest_entry() {
        // Capacity 16 ⇒ 2 per shard. Fill one shard with an expensive
        // and a cheap entry, then insert a third: the cheap one must go,
        // whatever order they arrived in (i.e. not FIFO).
        let cache: SpecializationCache<u64> = SpecializationCache::new(16);
        let keys = same_shard_keys(3);
        let (cheap, dear, next) = (keys[0], keys[1], keys[2]);
        cache
            .get_or_init_costed(cheap, || Ok((Arc::new(1), 10)))
            .unwrap();
        cache
            .get_or_init_costed(dear, || Ok((Arc::new(2), 1_000_000)))
            .unwrap();
        cache
            .get_or_init_costed(next, || Ok((Arc::new(3), 500)))
            .unwrap();
        assert_eq!(cache.stats().evictions, 1);
        // The expensive entry survived...
        cache
            .get_or_init_costed(dear, || panic!("expensive entry was evicted"))
            .unwrap();
        // ...the cheap one did not.
        let mut reran = false;
        cache
            .get_or_init_costed(cheap, || {
                reran = true;
                Ok((Arc::new(1), 10))
            })
            .unwrap();
        assert!(reran, "cheap entry should have been the victim");
    }

    #[test]
    fn eviction_weight_includes_size() {
        // Same measured cost, different sizes: the smaller entry is the
        // cheaper victim (it frees less, but costs the same to rebuild —
        // weight = cost × size makes small-and-cheap go first).
        let cache: SpecializationCache<Vec<u8>> = SpecializationCache::with_config_and_sizer(
            CacheConfig::with_capacity(16),
            Box::new(|v: &Vec<u8>| v.len() as u64),
        );
        let keys = same_shard_keys(3);
        let (small, large, next) = (keys[0], keys[1], keys[2]);
        cache
            .get_or_init_costed(small, || Ok((Arc::new(vec![0u8; 2]), 100)))
            .unwrap();
        cache
            .get_or_init_costed(large, || Ok((Arc::new(vec![0u8; 4096]), 100)))
            .unwrap();
        cache
            .get_or_init_costed(next, || Ok((Arc::new(vec![0u8; 8]), 100)))
            .unwrap();
        cache
            .get_or_init_costed(large, || panic!("large entry was evicted"))
            .unwrap();
        let mut reran = false;
        cache
            .get_or_init_costed(small, || {
                reran = true;
                Ok((Arc::new(vec![0u8; 2]), 100))
            })
            .unwrap();
        assert!(reran, "small entry should have been the victim");
    }

    #[test]
    fn ghost_readmission_keeps_the_original_weight() {
        // Capacity 16 ⇒ 2 per shard, with a positive TTL so both slots
        // open up mid-test. An expensive entry is evicted, then — after
        // the original residents lapse — re-admitted via a *cheap*
        // rebuild (the store-load pattern) next to a mid-priced
        // neighbour. The ghost list restores the original build cost,
        // so the next insert evicts the neighbour; at reload cost the
        // re-admitted entry would have been the victim instead.
        let cache: SpecializationCache<u64> = SpecializationCache::with_config(CacheConfig {
            capacity: 16,
            ttl: Some(Duration::from_millis(100)),
            ..CacheConfig::default()
        });
        let keys = same_shard_keys(5);
        let (dear, a, b, mid, next) = (keys[0], keys[1], keys[2], keys[3], keys[4]);
        cache
            .get_or_init_costed(dear, || Ok((Arc::new(1), 1_000_000)))
            .unwrap();
        cache
            .get_or_init_costed(a, || Ok((Arc::new(2), 2_000_000)))
            .unwrap();
        // The shard is full; `dear` (minimum weight) is evicted and
        // remembered by the ghost list.
        cache
            .get_or_init_costed(b, || Ok((Arc::new(3), 3_000_000)))
            .unwrap();
        assert_eq!(cache.stats().evictions, 1);
        // Both residents lapse, freeing the shard...
        std::thread::sleep(Duration::from_millis(150));
        // ...so the mid-priced entry and the cheaply reloaded `dear`
        // are admitted side by side without evicting each other.
        cache
            .get_or_init_costed(mid, || Ok((Arc::new(4), 500_000)))
            .unwrap();
        cache
            .get_or_init_costed(dear, || Ok((Arc::new(1), 50)))
            .unwrap();
        assert_eq!(cache.stats().ghost_hits, 1);
        // The next insert sees weights {mid: 500_000, dear: 1_000_000}
        // — the reload cost of 50 did not stick — and evicts `mid`.
        cache
            .get_or_init_costed(next, || Ok((Arc::new(5), 4_000_000)))
            .unwrap();
        cache
            .get_or_init_costed(dear, || panic!("re-admitted entry thrashed"))
            .unwrap();
    }

    #[test]
    fn ghost_list_is_bounded_and_can_be_disabled() {
        let cache: SpecializationCache<u64> = SpecializationCache::with_config(CacheConfig {
            capacity: 8,
            ghost_capacity: 0,
            ..CacheConfig::default()
        });
        let keys = same_shard_keys(3);
        cache
            .get_or_init_costed(keys[0], || Ok((Arc::new(1), 1_000_000)))
            .unwrap();
        cache
            .get_or_init_costed(keys[1], || Ok((Arc::new(2), 2_000_000)))
            .unwrap();
        // keys[0] was evicted (per-shard capacity 1) but nothing was
        // remembered: the re-admission is not a ghost hit.
        cache
            .get_or_init_costed(keys[0], || Ok((Arc::new(1), 50)))
            .unwrap();
        assert_eq!(cache.stats().ghost_hits, 0);
    }

    #[test]
    fn tenant_sweep_hit_rate_improves_with_the_ghost_list() {
        // The 2048-tenant thrash scenario: a small hot set is swept over
        // repeatedly while cold tenants stream through a cache far
        // smaller than the tenant count. First builds are expensive;
        // rebuilds after eviction are cheap (the store-load pattern).
        // Without the ghost list a hot tenant evicted once re-enters at
        // its reload cost, becomes the minimum-weight entry, and
        // thrashes forever; with it, hot tenants keep their true weight.
        const TENANTS: usize = 2048;
        const HOT: usize = 4;
        const SPECIALIZE: u64 = 1_000_000;
        const RELOAD: u64 = 100;
        let run = |ghost_capacity: usize| -> CacheStats {
            let cache: SpecializationCache<u64> = SpecializationCache::with_config(CacheConfig {
                capacity: 64, // ≪ TENANTS; 8 per shard
                ghost_capacity,
                ..CacheConfig::default()
            });
            let keys = same_shard_keys(TENANTS);
            let (hot, cold) = keys.split_at(HOT);
            // A key's first build costs SPECIALIZE; later rebuilds cost
            // RELOAD, exactly as get_or_load_or_specialize behaves once
            // the artifact is on disk.
            let mut built = std::collections::HashSet::new();
            let mut access = |cache: &SpecializationCache<u64>, key: CacheKey| {
                let cost = if built.insert(key) {
                    SPECIALIZE
                } else {
                    RELOAD
                };
                cache
                    .get_or_init_costed(key, || Ok((Arc::new(0), cost)))
                    .unwrap();
            };
            for key in hot {
                access(&cache, *key);
            }
            for key in cold {
                access(&cache, *key);
                for key in hot {
                    access(&cache, *key);
                }
            }
            cache.stats()
        };
        let without = run(0);
        let with = run(CacheConfig::default().ghost_capacity);
        assert!(with.ghost_hits > 0, "ghost list never consulted");
        assert!(
            with.hit_rate() > without.hit_rate() + 0.05,
            "ghost list should lift the sweep hit rate: {:.3} vs {:.3}",
            with.hit_rate(),
            without.hit_rate()
        );
    }

    #[test]
    fn cached_artifacts_are_shared_not_rebuilt() {
        let cache = FilterCache::new(16);
        let opts = SessionOptions::default();
        let filter = port_filter(80);
        let a = cache.get_or_specialize(&filter, &opts).unwrap();
        let b = cache.get_or_specialize(&filter, &opts).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
