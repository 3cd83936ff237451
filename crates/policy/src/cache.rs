//! The sharded decision cache: the gateway's analogue of an LSM access
//! vector cache (AVC).
//!
//! Repeated `PolicyEngine::query` evaluations for the same (principal set,
//! module, operation) are served from here instead of re-running the
//! delegation fixpoint. The cache is split into N shards, each behind its
//! own mutex, so concurrent lookups from different threads rarely contend;
//! a request's shard is chosen by mixing its full key. Every key carries
//! the invalidation epoch it was computed under, so a stale decision can
//! never match after an epoch bump.
//!
//! Epochs are monotone (the gateway's only ever grow), which makes the
//! entries of an older epoch dead weight the moment a newer one is seen:
//! no lookup will ask for them again. A shard therefore holds entries of
//! one epoch only — the newest it has been given. An insert at a newer
//! epoch empties the shard first, and an insert at an older one (a miss
//! that raced an epoch bump) is dropped. Neither counts as an eviction:
//! `evictions` counts live entries displaced by sampled LRU because the
//! working set of *one* epoch outgrew the shard, and a refill after an
//! epoch bump has the whole capacity to itself.

use crate::engine::Decision;
use parking_lot::Mutex;
use std::collections::HashMap;

/// FNV-1a over a byte string; the gate's cheap non-cryptographic hash.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_chain(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue an FNV-1a chain from a previous state (with a separator fold so
/// `("ab","c")` and `("a","bc")` hash differently).
pub(crate) fn fnv64_chain(mut h: u64, bytes: &[u8]) -> u64 {
    h = (h ^ 0xff).wrapping_mul(0x100_0000_01b3);
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: turns a structured value into well-spread bits.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The full identity of a cached decision. Two requests share an entry only
/// if every field matches — including the epoch, which is what makes
/// invalidation safe without walking the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Order-insensitive fingerprint of the requesting principal set.
    pub principals: u64,
    /// Fingerprint of the module name.
    pub module: u64,
    /// Fingerprint of the operation plus the rest of the action
    /// environment (app domain, module version, uid).
    pub operation: u64,
    /// The gateway invalidation epoch the decision was computed under.
    pub epoch: u64,
}

impl CacheKey {
    fn mixed(&self) -> u64 {
        mix64(
            self.principals
                ^ self.module.rotate_left(17)
                ^ self.operation.rotate_left(31)
                ^ self.epoch.rotate_left(47),
        )
    }
}

/// Sizing knobs for [`DecisionCache`].
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Number of independently locked shards (rounded up to a power of
    /// two, minimum 1).
    pub shards: usize,
    /// Total entry budget across all shards.
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 16,
            capacity: 4096,
        }
    }
}

impl CacheConfig {
    /// A configuration that disables caching entirely: every lookup misses
    /// and nothing is ever stored. Used to measure the uncached baseline
    /// through otherwise identical code paths.
    pub fn disabled() -> CacheConfig {
        CacheConfig {
            shards: 1,
            capacity: 0,
        }
    }
}

/// Counter snapshot, taken with [`DecisionCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the policy engine.
    pub misses: u64,
    /// Live entries displaced to make room (entries expired with their
    /// epoch are not counted).
    pub evictions: u64,
    /// Decisions offered for caching (including any not stored: cache
    /// disabled, or computed under an epoch already superseded).
    pub insertions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    decision: Decision,
    last_used: u64,
}

struct Shard {
    map: HashMap<CacheKey, Entry>,
    /// The epoch of every resident entry: the newest an insert has carried.
    epoch: u64,
    /// Shard-local recency clock; bumped on every touch.
    tick: u64,
    capacity: usize,
    /// Per-shard statistics, mutated under the shard mutex already held by
    /// every lookup — a global atomic here would bounce one cache line
    /// between every dispatching core on every single hit.
    hits: u64,
    misses: u64,
    evictions: u64,
    insertions: u64,
}

/// How many resident entries an eviction inspects: Redis-style sampled LRU
/// rather than exact LRU, so eviction stays O(1)-ish without an intrusive
/// list.
const EVICTION_SAMPLE: usize = 8;

impl Shard {
    fn touch(&mut self, key: &CacheKey) -> Option<Decision> {
        self.tick += 1;
        let tick = self.tick;
        let found = self.map.get_mut(key).map(|e| {
            e.last_used = tick;
            e.decision.clone()
        });
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    /// Clone-free variant of `touch`: project the resident decision
    /// through `f` while it stays in the map.
    fn probe<R>(&mut self, key: &CacheKey, f: impl FnOnce(&Decision) -> R) -> Option<R> {
        self.tick += 1;
        let tick = self.tick;
        let found = self.map.get_mut(key).map(|e| {
            e.last_used = tick;
            f(&e.decision)
        });
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    /// Insert, first expiring everything resident if `key` opens a newer
    /// epoch, and displacing the least-recently-used of a small sample
    /// when full.
    fn insert(&mut self, key: CacheKey, decision: Decision) {
        self.insertions += 1;
        if self.capacity == 0 || key.epoch < self.epoch {
            // Caching disabled, or the epoch moved on while this decision
            // was being computed: nothing could ever look it up.
            return;
        }
        if key.epoch > self.epoch {
            self.map.clear();
            self.epoch = key.epoch;
        }
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.map.get_mut(&key) {
            // Another thread raced us to the same miss; keep theirs fresh.
            e.last_used = tick;
            return;
        }
        if self.map.len() >= self.capacity {
            // Rotate the sample window through the map (keyed off the
            // recency clock): HashMap iteration order is stable between
            // mutations, so always sampling the front would make entries
            // past the window unevictable.
            let len = self.map.len();
            let start = if len > EVICTION_SAMPLE {
                (self.tick as usize).wrapping_mul(7) % (len - EVICTION_SAMPLE + 1)
            } else {
                0
            };
            if let Some(victim) = self
                .map
                .iter()
                .skip(start)
                .take(EVICTION_SAMPLE)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                self.map.remove(&victim);
                self.evictions += 1;
            }
        }
        self.map.insert(
            key,
            Entry {
                decision,
                last_used: tick,
            },
        );
    }
}

/// A bounded, sharded map from [`CacheKey`] to [`Decision`] with approximate
/// LRU eviction and hit/miss/eviction accounting. All accounting is
/// per-shard (summed by [`DecisionCache::stats`]), so a lookup touches no
/// memory shared beyond its own shard.
pub struct DecisionCache {
    shards: Vec<Mutex<Shard>>,
    mask: u64,
    enabled: bool,
}

impl DecisionCache {
    /// Build a cache from the given sizing.
    pub fn new(config: CacheConfig) -> DecisionCache {
        let shards = config.shards.max(1).next_power_of_two();
        let per_shard = if config.capacity == 0 {
            0
        } else {
            config.capacity.div_ceil(shards).max(1)
        };
        DecisionCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::with_capacity(per_shard),
                        epoch: 0,
                        tick: 0,
                        capacity: per_shard,
                        hits: 0,
                        misses: 0,
                        evictions: 0,
                        insertions: 0,
                    })
                })
                .collect(),
            mask: shards as u64 - 1,
            enabled: config.capacity > 0,
        }
    }

    /// Whether this cache can ever store an entry. A
    /// [`CacheConfig::disabled`] cache reports `false`, and the gateway
    /// uses that to switch off the thread-local L0 tier as well — a
    /// "disabled cache" baseline must measure *no* decision caching, not
    /// "no sharded caching with a secret L0 in front".
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        &self.shards[(key.mixed() & self.mask) as usize]
    }

    /// Look up a decision, refreshing its recency on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<Decision> {
        self.shard(key).lock().touch(key)
    }

    /// Look up a decision and project it through `f` *without cloning it*:
    /// the closure runs under the shard lock against the resident entry.
    /// The hot dispatch path only needs `Decision::is_allowed`, so this
    /// avoids a per-hit heap allocation (cloning an Allow copies its
    /// `used_assertions` vector).
    pub fn probe<R>(&self, key: &CacheKey, f: impl FnOnce(&Decision) -> R) -> Option<R> {
        self.shard(key).lock().probe(key, f)
    }

    /// Record a freshly computed decision.
    pub fn insert(&self, key: CacheKey, decision: Decision) {
        self.shard(&key).lock().insert(key, decision);
    }

    /// Snapshot the counters and the resident entry count (sums the
    /// per-shard accounting).
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for shard in &self.shards {
            let shard = shard.lock();
            stats.hits += shard.hits;
            stats.misses += shard.misses;
            stats.evictions += shard.evictions;
            stats.insertions += shard.insertions;
            stats.entries += shard.map.len();
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64, epoch: u64) -> CacheKey {
        CacheKey {
            principals: n,
            module: n.rotate_left(7),
            operation: n.rotate_left(13),
            epoch,
        }
    }

    fn allow() -> Decision {
        Decision::Allow {
            used_assertions: vec![0],
        }
    }

    #[test]
    fn hit_miss_accounting() {
        let cache = DecisionCache::new(CacheConfig::default());
        assert_eq!(cache.get(&key(1, 0)), None);
        cache.insert(key(1, 0), allow());
        assert_eq!(cache.get(&key(1, 0)), Some(allow()));
        assert_eq!(cache.get(&key(2, 0)), None);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.entries), (1, 2, 1, 1));
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn epoch_is_part_of_the_key() {
        let cache = DecisionCache::new(CacheConfig::default());
        cache.insert(key(1, 0), allow());
        assert_eq!(cache.get(&key(1, 1)), None, "stale epoch must never hit");
        assert_eq!(cache.get(&key(1, 0)), Some(allow()));
    }

    #[test]
    fn refill_after_an_epoch_bump_has_the_whole_capacity() {
        // 64 live keys in 4 shards of 64: the live set fits with room to
        // spare, so refilling it epoch after epoch must never evict, and
        // what is resident is never more than the live set — the dead
        // epochs' 640 entries would otherwise fill the cache and make
        // every later insert pay an eviction.
        let cache = DecisionCache::new(CacheConfig {
            shards: 4,
            capacity: 256,
        });
        for epoch in 0..10 {
            for n in 0..64 {
                cache.insert(key(n, epoch), allow());
            }
            let s = cache.stats();
            assert!(s.entries <= 64, "{} entries at epoch {epoch}", s.entries);
            assert_eq!(s.evictions, 0, "evicted at epoch {epoch}");
        }
        for n in 0..64 {
            assert_eq!(cache.get(&key(n, 9)), Some(allow()));
            assert_eq!(cache.get(&key(n, 8)), None);
        }
    }

    #[test]
    fn insert_at_an_older_epoch_is_dropped() {
        let cache = DecisionCache::new(CacheConfig {
            shards: 1,
            capacity: 8,
        });
        cache.insert(key(1, 5), allow());
        // A miss that raced the bump to epoch 5 arrives late.
        cache.insert(key(2, 3), allow());
        assert_eq!(cache.get(&key(2, 3)), None);
        assert_eq!(cache.get(&key(1, 5)), Some(allow()), "live entry lost");
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions, s.insertions), (1, 0, 2));
    }

    /// The one-epoch thrash: a working set larger than the cache still
    /// evicts by sampled LRU.
    #[test]
    fn capacity_is_bounded_and_evictions_are_counted() {
        let cache = DecisionCache::new(CacheConfig {
            shards: 4,
            capacity: 64,
        });
        for n in 0..1000 {
            cache.insert(key(n, 0), Decision::Deny);
        }
        let s = cache.stats();
        assert!(s.entries <= 64, "entries {} exceed capacity", s.entries);
        assert_eq!(s.insertions, 1000);
        assert!(s.evictions >= 1000 - 64);
    }

    #[test]
    fn eviction_prefers_cold_entries() {
        // One shard, capacity 8: keep touching key 0, flood with others;
        // the hot key should survive sampled-LRU eviction.
        let cache = DecisionCache::new(CacheConfig {
            shards: 1,
            capacity: 8,
        });
        cache.insert(key(0, 0), allow());
        for n in 1..200 {
            assert_eq!(cache.get(&key(0, 0)), Some(allow()), "hot key evicted");
            cache.insert(key(n, 0), Decision::Deny);
        }
    }

    #[test]
    fn disabled_cache_never_stores() {
        let cache = DecisionCache::new(CacheConfig::disabled());
        cache.insert(key(1, 0), allow());
        assert_eq!(cache.get(&key(1, 0)), None, "disabled cache must not hit");
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions, s.hits), (0, 0, 0));
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let cache = DecisionCache::new(CacheConfig {
            shards: 5,
            capacity: 100,
        });
        assert_eq!(cache.shards.len(), 8);
        let one = DecisionCache::new(CacheConfig {
            shards: 0,
            capacity: 1,
        });
        assert_eq!(one.shards.len(), 1);
    }
}
