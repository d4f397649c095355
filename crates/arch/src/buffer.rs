//! The data buffer of Fig. 4: tracks which column slices are resident in
//! the computational array and applies a replacement policy when full.
//!
//! The paper uses LRU ("we choose the least recently used (LRU) column for
//! replacement, and more optimized replacement strategy could be
//! possible"); FIFO and Random are provided for the replacement-policy
//! ablation (`tcim_core::ablations::replacement_ablation`).

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// Replacement policy of the slice cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum ReplacementPolicy {
    /// Least-recently-used — the paper's choice.
    #[default]
    Lru,
    /// First-in-first-out.
    Fifo,
    /// Uniform random victim (deterministic per seed).
    Random,
}

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The slice was already resident — no array WRITE needed.
    Hit,
    /// The slice was loaded into free space — one array WRITE.
    Miss,
    /// The slice replaced a victim — one array WRITE plus an exchange.
    Exchange {
        /// The evicted slice key.
        evicted: u64,
    },
}

impl AccessOutcome {
    /// Whether this access required writing the slice into the array.
    pub fn wrote(&self) -> bool {
        !matches!(self, AccessOutcome::Hit)
    }
}

/// A fixed-capacity cache over slice keys (column id × slice index packed
/// into a `u64`), with pluggable replacement.
///
/// # Example
///
/// ```
/// use tcim_arch::{ReplacementPolicy, SliceCache, AccessOutcome};
///
/// let mut cache = SliceCache::new(2, ReplacementPolicy::Lru, 0);
/// assert_eq!(cache.access(1), AccessOutcome::Miss);
/// assert_eq!(cache.access(2), AccessOutcome::Miss);
/// assert_eq!(cache.access(1), AccessOutcome::Hit);
/// // 2 is now the least recently used and gets evicted.
/// assert_eq!(cache.access(3), AccessOutcome::Exchange { evicted: 2 });
/// ```
#[derive(Debug, Clone)]
pub struct SliceCache {
    capacity: usize,
    policy: ReplacementPolicy,
    /// Key → recency stamp (LRU) or insertion stamp (FIFO).
    resident: HashMap<u64, u64, SliceKeys>,
    /// LRU/FIFO order queue (lazily pruned of stale entries).
    order: VecDeque<(u64, u64)>,
    /// Random-policy key list for O(1) victim sampling.
    keys: Vec<u64>,
    /// Key → index into `keys` (Random policy).
    key_pos: HashMap<u64, usize, SliceKeys>,
    clock: u64,
    rng: ChaCha12Rng,
}

impl SliceCache {
    /// Creates a cache holding up to `capacity` slices.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero — the controller always needs room
    /// for at least one column slice.
    pub fn new(capacity: usize, policy: ReplacementPolicy, seed: u64) -> Self {
        assert!(capacity > 0, "slice cache capacity must be non-zero");
        SliceCache {
            capacity,
            policy,
            resident: HashMap::default(),
            order: VecDeque::new(),
            keys: Vec::new(),
            key_pos: HashMap::default(),
            clock: 0,
            rng: ChaCha12Rng::seed_from_u64(seed),
        }
    }

    /// Number of resident slices.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// Whether the cache holds no slices.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// The configured capacity in slices.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The active replacement policy.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Whether `key` is resident without touching recency state.
    pub fn contains(&self, key: u64) -> bool {
        self.resident.contains_key(&key)
    }

    /// Accesses `key`: returns [`AccessOutcome::Hit`] if resident
    /// (updating recency under LRU), otherwise loads it, evicting a victim
    /// when at capacity.
    pub fn access(&mut self, key: u64) -> AccessOutcome {
        self.clock += 1;
        if self.resident.contains_key(&key) {
            if self.policy == ReplacementPolicy::Lru {
                self.resident.insert(key, self.clock);
                self.order.push_back((key, self.clock));
            }
            return AccessOutcome::Hit;
        }

        let evicted =
            if self.resident.len() >= self.capacity { Some(self.evict()) } else { None };

        self.resident.insert(key, self.clock);
        match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                self.order.push_back((key, self.clock));
            }
            ReplacementPolicy::Random => {
                self.key_pos.insert(key, self.keys.len());
                self.keys.push(key);
            }
        }

        match evicted {
            Some(v) => AccessOutcome::Exchange { evicted: v },
            None => AccessOutcome::Miss,
        }
    }

    fn evict(&mut self) -> u64 {
        match self.policy {
            ReplacementPolicy::Lru => loop {
                let (key, stamp) =
                    self.order.pop_front().expect("order queue covers all resident keys");
                // Skip stale entries superseded by a later touch.
                if self.resident.get(&key) == Some(&stamp) {
                    self.resident.remove(&key);
                    return key;
                }
            },
            ReplacementPolicy::Fifo => loop {
                let (key, _) =
                    self.order.pop_front().expect("order queue covers all resident keys");
                if self.resident.remove(&key).is_some() {
                    return key;
                }
            },
            ReplacementPolicy::Random => {
                let idx = self.rng.gen_range(0..self.keys.len());
                let key = self.keys.swap_remove(idx);
                self.key_pos.remove(&key);
                if idx < self.keys.len() {
                    let moved = self.keys[idx];
                    self.key_pos.insert(moved, idx);
                }
                self.resident.remove(&key);
                key
            }
        }
    }
}

/// The slice cache's maps hash with [`SliceKeyHasher`].
type SliceKeys = BuildHasherDefault<SliceKeyHasher>;

/// A small fixed hasher for slice keys: the splitmix64 finalizer. A
/// key's column sits in its high half (`j << 32`), and the finalizer
/// mixes it into the low bits a hash table indexes by (a bare multiply
/// leaves keys that differ only in the column colliding). Keys come from
/// the simulator itself, never from outside the program, so the maps
/// need no defence against crafted collisions, and nothing iterates
/// them, so no outcome depends on the hasher.
#[derive(Debug, Clone, Copy, Default)]
struct SliceKeyHasher(u64);

impl Hasher for SliceKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let mut z = (self.0 ^ key).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_that_differ_only_in_the_column_spread_over_the_low_bits() {
        let low_bits: std::collections::HashSet<u64> = (0..1024u64)
            .map(|column| {
                let mut hasher = SliceKeyHasher::default();
                hasher.write_u64(column << 32 | 7);
                hasher.finish() & 1023
            })
            .collect();
        // 1024 keys over 1024 buckets fill about 647 when hashed
        // uniformly; a hash that ignores the high half fills one.
        assert!(low_bits.len() > 512, "{} low-bit buckets", low_bits.len());
    }

    #[test]
    fn first_touch_is_always_a_miss() {
        let mut c = SliceCache::new(8, ReplacementPolicy::Lru, 0);
        for k in 0..8 {
            assert_eq!(c.access(k), AccessOutcome::Miss);
        }
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = SliceCache::new(3, ReplacementPolicy::Lru, 0);
        c.access(1);
        c.access(2);
        c.access(3);
        c.access(1); // refresh 1 → LRU order is now 2, 3, 1
        assert_eq!(c.access(4), AccessOutcome::Exchange { evicted: 2 });
        assert!(c.contains(1));
        assert!(!c.contains(2));
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut c = SliceCache::new(3, ReplacementPolicy::Fifo, 0);
        c.access(1);
        c.access(2);
        c.access(3);
        c.access(1); // hit, but FIFO order unchanged
        assert_eq!(c.access(4), AccessOutcome::Exchange { evicted: 1 });
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<AccessOutcome> {
            let mut c = SliceCache::new(4, ReplacementPolicy::Random, seed);
            (0..32).map(|k| c.access(k % 12)).collect()
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn random_eviction_stays_at_capacity() {
        let mut c = SliceCache::new(4, ReplacementPolicy::Random, 1);
        for k in 0..100 {
            c.access(k);
            assert!(c.len() <= 4);
        }
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn hit_does_not_evict() {
        let mut c = SliceCache::new(2, ReplacementPolicy::Lru, 0);
        c.access(1);
        c.access(2);
        for _ in 0..10 {
            assert_eq!(c.access(1), AccessOutcome::Hit);
            assert_eq!(c.access(2), AccessOutcome::Hit);
        }
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn wrote_flag() {
        assert!(!AccessOutcome::Hit.wrote());
        assert!(AccessOutcome::Miss.wrote());
        assert!(AccessOutcome::Exchange { evicted: 0 }.wrote());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        SliceCache::new(0, ReplacementPolicy::Lru, 0);
    }

    #[test]
    fn lru_stale_entries_are_skipped_correctly() {
        // Touch a key many times to build up stale queue entries, then
        // force evictions and verify consistency.
        let mut c = SliceCache::new(2, ReplacementPolicy::Lru, 0);
        c.access(1);
        for _ in 0..50 {
            c.access(1);
        }
        c.access(2);
        assert_eq!(c.access(3), AccessOutcome::Exchange { evicted: 1 });
        assert_eq!(c.access(2), AccessOutcome::Hit);
        assert!(c.contains(3));
    }
}
