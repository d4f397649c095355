//! The name table: every registered graph, static or live, bound by
//! name under one lock.
//!
//! A name binds either a **static** prepared artifact or a **live**
//! dynamic graph, never both: the check that a name is free and the
//! insert that binds it are one critical section under the table's
//! write lock. A static binding is keyed by name **and** structural
//! fingerprint: re-registering the same graph under its name is
//! idempotent, while a *different* graph replaces the binding (a new
//! dataset version rolling over). Static artifacts live in (and are
//! shared with) the pipeline's `PreparedCache`; the table pins its own
//! `Arc`, so LRU eviction from the cache never invalidates a registered
//! graph.
//!
//! Lookups hand graphs out as `Arc`s, so nobody holds the table lock
//! while preparing, executing or applying updates.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use tcim_core::PreparedGraph;
use tcim_stream::{DynamicGraph, EpochSnapshot};

use crate::error::{Result, ServiceError};

/// A registered graph's public card: identity, size and serving stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphInfo {
    /// The registry name.
    pub name: String,
    /// Structural fingerprint of the registered graph (for live
    /// graphs: the latest folded epoch's).
    pub fingerprint: u64,
    /// Vertex count.
    pub vertices: usize,
    /// Undirected edge count.
    pub edges: usize,
    /// Whether registration found the artifact already prepared (in
    /// the pipeline's `PreparedCache`) instead of building it. Always
    /// false for live graphs.
    pub prepared_cache_hit: bool,
    /// Queries served from this registration so far.
    pub queries_served: u64,
    /// Whether this is a live (incrementally maintained) graph rather
    /// than a static prepared artifact.
    pub live: bool,
}

/// A live graph: its dynamic state and the epoch snapshot it last
/// published.
pub(crate) struct LiveGraph {
    dynamic: Mutex<DynamicGraph>,
    /// The latest published epoch snapshot, refreshed whenever the
    /// dynamic graph folds. Readers clone it out from under the
    /// `RwLock` without ever touching the `dynamic` mutex, so update
    /// batches never block snapshot-isolated reads. Lock order on
    /// writer paths is `dynamic` → `published`; readers take only
    /// `published`.
    published: RwLock<EpochSnapshot>,
}

impl LiveGraph {
    /// The dynamic state, locked: writers and maintained reads
    /// serialize here.
    pub(crate) fn dynamic(&self) -> MutexGuard<'_, DynamicGraph> {
        self.dynamic.lock().expect("live graph lock is never poisoned")
    }

    /// The latest published epoch snapshot.
    pub(crate) fn published(&self) -> EpochSnapshot {
        self.published.read().expect("published lock is never poisoned").clone()
    }

    /// Publishes `snapshot` to snapshot-isolated readers. Callers hold
    /// the [`LiveGraph::dynamic`] guard the snapshot was taken under.
    pub(crate) fn publish(&self, snapshot: EpochSnapshot) {
        *self.published.write().expect("published lock is never poisoned") = snapshot;
    }
}

/// What a registered name resolves to.
#[derive(Clone)]
pub(crate) enum Graph {
    /// A prepared artifact, answered by any backend.
    Static(Arc<PreparedGraph>),
    /// A dynamic graph with incrementally maintained counts.
    Live(Arc<LiveGraph>),
}

struct Entry {
    graph: Graph,
    prepared_cache_hit: bool,
    served: AtomicU64,
}

impl Entry {
    fn new(graph: Graph, prepared_cache_hit: bool) -> Arc<Entry> {
        Arc::new(Entry { graph, prepared_cache_hit, served: AtomicU64::new(0) })
    }

    /// The card of this entry under `name`. A live card locks the
    /// dynamic state, so callers never build one under the table lock.
    fn info(&self, name: &str) -> GraphInfo {
        let (fingerprint, vertices, edges, live) = match &self.graph {
            Graph::Static(prepared) => {
                let key = prepared.key();
                (key.fingerprint, key.vertices, key.edges, false)
            }
            Graph::Live(graph) => {
                let dynamic = graph.dynamic();
                let fingerprint = dynamic.prepared().key().fingerprint;
                (fingerprint, dynamic.vertex_count(), dynamic.edge_count(), true)
            }
        };
        GraphInfo {
            name: name.to_string(),
            fingerprint,
            vertices,
            edges,
            prepared_cache_hit: self.prepared_cache_hit,
            queries_served: self.served.load(Ordering::Relaxed),
            live,
        }
    }
}

/// The thread-safe name → graph table.
///
/// Lookups and listing take the shared lock; registration and eviction
/// take the exclusive lock briefly.
#[derive(Default)]
pub(crate) struct GraphStore {
    inner: RwLock<HashMap<String, Arc<Entry>>>,
}

impl GraphStore {
    fn read(&self) -> RwLockReadGuard<'_, HashMap<String, Arc<Entry>>> {
        self.inner.read().expect("name table lock is never poisoned")
    }

    fn write(&self) -> RwLockWriteGuard<'_, HashMap<String, Arc<Entry>>> {
        self.inner.write().expect("name table lock is never poisoned")
    }

    /// Binds `name` to the static artifact `prepared`, recording
    /// whether its preparation was a cache hit. Re-binding the *same*
    /// fingerprint is idempotent (the original registration and its
    /// serving counter survive); a different fingerprint replaces the
    /// binding.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NameInUse`] when `name` is bound to a live graph.
    pub(crate) fn insert(
        &self,
        name: &str,
        prepared: Arc<PreparedGraph>,
        prepared_cache_hit: bool,
    ) -> Result<GraphInfo> {
        let mut table = self.write();
        if let Some(existing) = table.get(name) {
            match &existing.graph {
                Graph::Live(_) => {
                    return Err(ServiceError::NameInUse { name: name.to_string() })
                }
                Graph::Static(bound)
                    if bound.key().fingerprint == prepared.key().fingerprint =>
                {
                    return Ok(existing.info(name));
                }
                Graph::Static(_) => {}
            }
        }
        let entry = Entry::new(Graph::Static(prepared), prepared_cache_hit);
        let info = entry.info(name);
        table.insert(name.to_string(), entry);
        Ok(info)
    }

    /// Binds `name` to a live graph over `dynamic`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NameInUse`] when `name` is bound at all.
    pub(crate) fn insert_live(&self, name: &str, dynamic: DynamicGraph) -> Result<GraphInfo> {
        let published = RwLock::new(dynamic.epoch_snapshot());
        let graph = LiveGraph { dynamic: Mutex::new(dynamic), published };
        let entry = Entry::new(Graph::Live(Arc::new(graph)), false);
        let info = entry.info(name);
        let mut table = self.write();
        if table.contains_key(name) {
            return Err(ServiceError::NameInUse { name: name.to_string() });
        }
        table.insert(name.to_string(), entry);
        Ok(info)
    }

    /// The graph bound to `name`, bumping its serving counter by
    /// `served` (one lookup answers a whole group of requests).
    pub(crate) fn get(&self, name: &str, served: u64) -> Option<Graph> {
        let table = self.read();
        let entry = table.get(name)?;
        entry.served.fetch_add(served, Ordering::Relaxed);
        Some(entry.graph.clone())
    }

    /// Unbinds `name`, returning its final card. A static artifact
    /// survives in the `PreparedCache` until LRU eviction drops it.
    pub(crate) fn remove(&self, name: &str) -> Option<GraphInfo> {
        let entry = self.write().remove(name)?;
        Some(entry.info(name))
    }

    /// Every registered graph's card, sorted by name.
    pub(crate) fn list(&self) -> Vec<GraphInfo> {
        let entries: Vec<(String, Arc<Entry>)> = self
            .read()
            .iter()
            .map(|(name, entry)| (name.clone(), Arc::clone(entry)))
            .collect();
        let mut infos: Vec<GraphInfo> =
            entries.iter().map(|(name, entry)| entry.info(name)).collect();
        infos.sort_by(|a, b| a.name.cmp(&b.name));
        infos
    }

    /// How many static and how many live graphs are bound.
    pub(crate) fn counts(&self) -> (usize, usize) {
        let table = self.read();
        let live =
            table.values().filter(|entry| matches!(entry.graph, Graph::Live(_))).count();
        (table.len() - live, live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcim_core::{TcimConfig, TcimPipeline};
    use tcim_graph::generators::classic;

    fn prepared(n: usize) -> Arc<PreparedGraph> {
        TcimPipeline::new(&TcimConfig::default()).unwrap().prepare(&classic::wheel(n))
    }

    #[test]
    fn register_get_evict_roundtrip() {
        let store = GraphStore::default();
        assert!(store.list().is_empty());
        let info = store.insert("wheel", prepared(10), false).unwrap();
        assert_eq!((info.vertices, info.edges), (10, 18));
        assert!(!info.prepared_cache_hit);
        assert!(store.get("wheel", 0).is_some());
        assert!(store.get("wheel", 1).is_some());
        assert!(store.get("unknown", 1).is_none());
        let info = &store.list()[0];
        assert_eq!(info.queries_served, 1, "get bumps the serving counter");
        let removed = store.remove("wheel").unwrap();
        assert_eq!(removed.queries_served, 1);
        assert!(store.list().is_empty());
    }

    #[test]
    fn same_fingerprint_reregistration_is_idempotent() {
        let store = GraphStore::default();
        store.insert("g", prepared(12), false).unwrap();
        store.get("g", 1);
        let again = store.insert("g", prepared(12), true).unwrap();
        assert_eq!(again.queries_served, 1, "original registration survives");
        assert!(!again.prepared_cache_hit, "original provenance survives");
        // A different graph under the same name replaces the binding.
        let replaced = store.insert("g", prepared(13), true).unwrap();
        assert_eq!(replaced.queries_served, 0);
        assert_eq!(replaced.vertices, 13);
        assert_eq!(store.counts(), (1, 0));
    }

    #[test]
    fn list_is_sorted_by_name() {
        let store = GraphStore::default();
        store.insert("zebra", prepared(10), false).unwrap();
        store.insert("alpha", prepared(11), false).unwrap();
        let names: Vec<String> = store.list().into_iter().map(|i| i.name).collect();
        assert_eq!(names, vec!["alpha", "zebra"]);
    }
}
