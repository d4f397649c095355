//! The pipeline's artifact caches: one bounded LRU type,
//! [`ArtifactCache`], behind both the prepared-graph cache
//! ([`PreparedCache`](crate::PreparedCache)) and the sharded-artifact
//! cache ([`ShardedCache`](crate::ShardedCache)), and one plan memo,
//! `PlanMemo`, behind the scheduled plans of a [`PreparedGraph`] and
//! the composition plans of a
//! [`ShardedPreparedGraph`](crate::ShardedPreparedGraph).
//!
//! Phase one of the paper's dataflow (orient, slice, map; §IV-A/B) runs
//! once per graph and Algorithm 1 then runs over its products many
//! times, so every product is built once per key and shared by `Arc`.
//! Both types recover a lock poisoned by a panicking holder instead of
//! propagating it: no critical section can panic between its updates,
//! an entry is inserted only once complete, and every entry can be
//! rebuilt.
//!
//! [`PreparedGraph`]: crate::PreparedGraph

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

struct Lru<K, V> {
    map: HashMap<K, Arc<V>>,
    /// Keys in least-recently-used-first order.
    order: Vec<K>,
    hits: u64,
    misses: u64,
}

/// A bounded, keyed cache of shared artifacts with LRU eviction.
///
/// Thread-safe behind a mutex; artifacts are shared out as `Arc<V>`, so
/// eviction never invalidates an in-flight execution. Only the owning
/// [`TcimPipeline`](crate::TcimPipeline) fills the cache (the
/// build-on-miss entry point is crate-private), so every entry was
/// built for its key.
pub struct ArtifactCache<K, V> {
    lru: Mutex<Lru<K, V>>,
    capacity: usize,
}

impl<K, V> fmt::Debug for ArtifactCache<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lru = self.lru();
        write!(
            f,
            "ArtifactCache(len={}, capacity={}, hits={}, misses={})",
            lru.map.len(),
            self.capacity,
            lru.hits,
            lru.misses
        )
    }
}

impl<K, V> ArtifactCache<K, V> {
    /// An empty cache holding at most `capacity` artifacts.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be at least 1");
        let lru = Lru { map: HashMap::new(), order: Vec::new(), hits: 0, misses: 0 };
        ArtifactCache { lru: Mutex::new(lru), capacity }
    }

    fn lru(&self) -> MutexGuard<'_, Lru<K, V>> {
        self.lru.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of cached artifacts.
    pub fn len(&self) -> usize {
        self.lru().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of artifacts the cache holds before evicting.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lookups that found a cached artifact.
    pub fn hits(&self) -> u64 {
        self.lru().hits
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.lru().misses
    }
}

impl<K: Copy + Eq + Hash, V> ArtifactCache<K, V> {
    /// The cached artifact for `key`, or the one `build` makes, and
    /// whether the cache served it (`true`) or this call built it
    /// (`false`).
    ///
    /// A hit counts a hit and refreshes the key's recency. A miss counts
    /// a miss and builds outside the lock; racing builders agree on the
    /// first inserted artifact, and one that lost the race still paid
    /// for its build, so it reports a miss too. Inserting past capacity
    /// evicts the least recently used key.
    ///
    /// # Errors
    ///
    /// Propagates `build`'s error; a failed build inserts nothing.
    pub(crate) fn get_or_build<E>(
        &self,
        key: K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<(Arc<V>, bool), E> {
        {
            let mut lru = self.lru();
            if let Some(found) = lru.map.get(&key).cloned() {
                lru.hits += 1;
                lru.order.retain(|k| k != &key);
                lru.order.push(key);
                return Ok((found, true));
            }
            lru.misses += 1;
        }
        let built = Arc::new(build()?);
        let mut lru = self.lru();
        if let Some(existing) = lru.map.get(&key).cloned() {
            return Ok((existing, false));
        }
        lru.map.insert(key, Arc::clone(&built));
        lru.order.push(key);
        if lru.order.len() > self.capacity {
            let evicted = lru.order.remove(0);
            lru.map.remove(&evicted);
        }
        Ok((built, false))
    }

    /// The cached artifact for `key`, if present — without counting a
    /// lookup or refreshing recency, so pricing a prediction leaves the
    /// cache's accounting untouched.
    pub(crate) fn peek(&self, key: &K) -> Option<Arc<V>> {
        self.lru().map.get(key).cloned()
    }

    /// The cached keys in least-recently-used-first order (for eviction
    /// inspection; touches neither the counters nor recency).
    pub fn keys_lru_first(&self) -> Vec<K> {
        self.lru().order.clone()
    }
}

/// The plans one artifact has built, at most one per key, each built
/// on first use and shared by every later query.
#[derive(Debug)]
pub(crate) struct PlanMemo<P>(Mutex<Vec<Arc<P>>>);

impl<P> Default for PlanMemo<P> {
    fn default() -> Self {
        PlanMemo(Mutex::default())
    }
}

impl<P> PlanMemo<P> {
    /// The memoized plan `is_for` accepts, or the one `build` makes
    /// (memoized), and whether this call built it. The build runs under
    /// the memo's lock, so concurrent first queries plan once.
    pub(crate) fn get_or_build<E>(
        &self,
        is_for: impl Fn(&P) -> bool,
        build: impl FnOnce() -> Result<P, E>,
    ) -> Result<(Arc<P>, bool), E> {
        let mut plans = self.plans();
        if let Some(plan) = plans.iter().find(|plan| is_for(plan)) {
            return Ok((Arc::clone(plan), false));
        }
        let plan = Arc::new(build()?);
        plans.push(Arc::clone(&plan));
        Ok((plan, true))
    }

    /// Plans built so far.
    pub(crate) fn len(&self) -> usize {
        self.plans().len()
    }

    fn plans(&self) -> MutexGuard<'_, Vec<Arc<P>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
impl<K, V> ArtifactCache<K, V> {
    /// Poisons the cache's lock by panicking while holding it, so tests
    /// of the pipeline's caches can check they keep answering.
    pub(crate) fn poison(&self) {
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _lru = self.lru();
            panic!("poison the cache");
        }));
        assert!(poisoned.is_err() && self.lru.is_poisoned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    fn make(value: u32) -> impl FnOnce() -> Result<u32, Infallible> {
        move || Ok(value)
    }

    /// Eviction removes the least recently used key and a hit refreshes
    /// recency.
    #[test]
    fn evictions_follow_lru_order_and_hits_refresh_recency() {
        let cache = ArtifactCache::new(2);
        assert_eq!(cache.capacity(), 2);
        let insert = |key: u32| {
            let (value, hit) = cache.get_or_build(key, make(key * 10)).unwrap();
            assert!(!hit, "{key} was not resident");
            assert_eq!(*value, key * 10);
        };
        let hit = |key: u32| cache.get_or_build(key, make(0)).unwrap().1;
        insert(1);
        insert(2);
        assert_eq!(cache.keys_lru_first(), vec![1, 2]);

        // A hit moves the key to most-recently-used.
        assert!(hit(1));
        assert_eq!(cache.keys_lru_first(), vec![2, 1]);

        // The next insert evicts the LRU key (2), not the refreshed 1.
        insert(3);
        assert_eq!(cache.keys_lru_first(), vec![1, 3]);
        assert!(cache.peek(&2).is_none(), "2 was the LRU victim");
        assert!(hit(1), "1 survived thanks to the refresh");

        // Eviction keeps following recency: 1 was just refreshed, so 3
        // is now the victim.
        insert(4);
        assert_eq!(cache.keys_lru_first(), vec![1, 4]);
        assert!(cache.peek(&3).is_none());

        // A resident key returns the cached artifact and evicts nothing;
        // peeking counts nothing and refreshes nothing.
        let (again, was_hit) = cache.get_or_build(4, make(0)).unwrap();
        assert!(was_hit && *again == 40);
        assert_eq!(cache.len(), 2);
        assert_eq!((cache.hits(), cache.misses()), (3, 4));
        assert_eq!(cache.peek(&1).as_deref(), Some(&10));
        assert_eq!(cache.keys_lru_first(), vec![1, 4]);
        assert_eq!((cache.hits(), cache.misses()), (3, 4));
    }

    #[test]
    fn a_failed_build_inserts_nothing() {
        let cache: ArtifactCache<u32, u32> = ArtifactCache::new(2);
        assert_eq!(cache.get_or_build(1, || Err("no")), Err("no"));
        assert!(cache.is_empty());
        assert_eq!(cache.misses(), 1);
        let (value, hit) = cache.get_or_build(1, make(7)).unwrap();
        assert!(!hit && *value == 7);
    }

    #[test]
    fn a_builder_that_loses_the_race_reports_a_miss() {
        // A build that another builder overtakes (the nested call runs
        // while the outer build is outside the lock) is served the first
        // insert and still reports a miss.
        let cache = ArtifactCache::new(4);
        let (value, hit) = cache
            .get_or_build(1, || {
                let (winner, hit) = cache.get_or_build(1, make(10)).unwrap();
                assert!(!hit && *winner == 10);
                Ok::<_, Infallible>(20)
            })
            .unwrap();
        assert!(!hit && *value == 10, "the first insert wins");
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 2, 1));

        // The same accounting holds for eight callers released at once.
        let cache = ArtifactCache::new(4);
        let barrier = std::sync::Barrier::new(8);
        let served: Vec<(Arc<u32>, bool)> = std::thread::scope(|scope| {
            let callers: Vec<_> = (0..8)
                .map(|caller| {
                    let (cache, barrier) = (&cache, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        cache.get_or_build(1, make(caller)).unwrap()
                    })
                })
                .collect();
            callers.into_iter().map(|caller| caller.join().unwrap()).collect()
        });
        let built = served.iter().filter(|(_, hit)| !hit).count() as u64;
        assert_eq!(built, cache.misses(), "every call that built reports a miss");
        assert_eq!(cache.hits() + cache.misses(), 8);
        assert_eq!(cache.len(), 1);
        assert!(served.iter().all(|(value, _)| Arc::ptr_eq(value, &served[0].0)));
    }

    #[test]
    fn a_poisoned_cache_keeps_answering() {
        let cache = ArtifactCache::new(2);
        let (first, _) = cache.get_or_build(1, make(10)).unwrap();
        cache.poison();
        let (again, hit) = cache.get_or_build(1, make(0)).unwrap();
        assert!(hit && Arc::ptr_eq(&first, &again));
        assert!(cache.peek(&1).is_some());
        cache.get_or_build(2, make(20)).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.keys_lru_first().len(), 2);
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        assert!(format!("{cache:?}").contains("len=2"));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_cache_panics() {
        ArtifactCache::<u32, u32>::new(0);
    }

    #[test]
    fn a_poisoned_plan_memo_keeps_answering() {
        let memo = PlanMemo::default();
        let (first, built) = memo.get_or_build(|&p| p == 1, make(1)).unwrap();
        assert!(built);
        let err = memo.get_or_build(|&p| p == 2, || Err::<u32, _>("invalid"));
        assert_eq!(err.unwrap_err(), "invalid", "a failed build memoizes nothing");
        assert_eq!(memo.len(), 1);
        // A panic while the memo is locked poisons it; lookups recover.
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _plans = memo.plans();
            panic!("poison the plan memo");
        }));
        assert!(poisoned.is_err());
        let (again, built) = memo.get_or_build(|&p| p == 1, make(0)).unwrap();
        assert!(!built && Arc::ptr_eq(&first, &again));
        let (_, built) = memo.get_or_build(|&p| p == 2, make(2)).unwrap();
        assert!(built);
        assert_eq!(memo.len(), 2);
    }
}
