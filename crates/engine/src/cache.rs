//! The schema-artifact cache: one immutable, `Arc`-shared
//! [`SchemaArtifacts`] bundle per registered schema.
//!
//! ## Keying and invalidation
//!
//! Registration hands out an opaque [`SchemaId`] (a slot index). Each
//! slot carries a **generation** counter; [`SchemaArtifactCache::replace`]
//! and [`SchemaArtifactCache::invalidate`] bump it and drop the cached
//! bundle, so any consumer holding `(SchemaId, generation)` can detect
//! staleness without comparing schemas. Rebuild after invalidation is
//! lazy — the next [`SchemaArtifactCache::artifacts`] call pays for it
//! (and counts a **miss**); every serve off the cached bundle counts a
//! **hit**. Registration itself builds eagerly and counts the initial
//! miss, so `hits + misses` equals the number of artifact lookups plus
//! registrations, and "warm solves skip classification/ordering" is
//! exactly `misses == schemas registered` after any warm run.
//!
//! [`SchemaArtifactCache::register`] dedups structurally identical
//! schemas (fingerprint first, full `==` to confirm), returning the
//! existing id — re-registering a schema is a hit, not a rebuild.
//!
//! ## The disk tier
//!
//! A cache built with [`SchemaArtifactCache::with_store`] is **tiered**:
//! hot bundles live in memory behind `Arc`s as before, and every build
//! first consults a crash-safe content-addressed
//! [`ArtifactStore`](mcc_store::ArtifactStore) keyed by schema
//! fingerprint. A valid on-disk bundle skips classification entirely
//! (the store counts a `store_hit`; the slot still counts its cold
//! cache miss); a fresh build is written through so the *next* process
//! warm-starts. Two rules keep the tier invisible to correctness:
//!
//! * a loaded bundle is only accepted if its bipartite graph equals the
//!   schema's own — a fingerprint collision or misfiled blob falls back
//!   to a clean rebuild (and overwrite);
//! * [`SchemaArtifactCache::invalidate`] removes the disk object *under
//!   the slot write lock*, so a racing rebuilder can never re-serve the
//!   pre-invalidation bundle from disk for the new generation. That
//!   unlink is the engine's one blocking call under a lock, and it has
//!   one home: `remove_from_disk_under_slot_lock`, which takes the write
//!   guard as proof (see [`crate::lock`] for the rule it is the exception
//!   to).
//!
//! The store degrades itself to memory-only on persistent I/O errors;
//! the cache keeps working identically (every `store`/`load` just
//! becomes a no-op miss).

use crate::lock::{read, write, Unlocked};
use mcc::SchemaArtifacts;
use mcc_datamodel::{RelationalSchema, RelationalSchemaError};
use mcc_store::{ArtifactStore, StoreStats};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockWriteGuard};

/// Opaque handle to a registered schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SchemaId(usize);

impl fmt::Display for SchemaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schema#{}", self.0)
    }
}

/// A cache lookup result: the shared bundle plus the generation it was
/// built for. Holders can revalidate cheaply by comparing generations.
#[derive(Debug, Clone)]
pub struct CachedArtifacts {
    /// The slot generation the bundle corresponds to.
    pub generation: u64,
    /// The shared artifact bundle.
    pub artifacts: Arc<SchemaArtifacts>,
}

/// Cache failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// The id does not name a registered schema (of *this* cache).
    UnknownSchema(SchemaId),
    /// The schema failed validation when (re)building its artifacts.
    Schema(RelationalSchemaError),
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::UnknownSchema(id) => write!(f, "{id} is not registered"),
            CacheError::Schema(e) => write!(f, "invalid schema: {e}"),
        }
    }
}

impl std::error::Error for CacheError {}

struct Slot {
    schema: Arc<RelationalSchema>,
    fingerprint: u64,
    generation: u64,
    artifacts: Option<Arc<SchemaArtifacts>>,
}

/// Debug-build coherence certificate for a cache slot: the stored
/// fingerprint matches the stored schema (they are only ever set
/// together, so a mismatch means a torn update), and the slot's
/// generation has not moved backwards relative to a generation the
/// caller observed earlier (generations are bump-only). Invoked through
/// `debug_assert!` at the rebuild-commit and mutation points; compiled
/// out of release builds.
fn check_cache_coherence(slot: &Slot, observed_generation: u64) -> bool {
    slot.fingerprint == slot.schema.fingerprint() && slot.generation >= observed_generation
}

/// The shared, thread-safe artifact cache. See the module docs for the
/// keying/invalidation contract. All methods take `&self`; the cache is
/// `Sync` and meant to live in an `Arc` shared by every worker (and
/// possibly several [`crate::Engine`]s).
#[derive(Default)]
pub struct SchemaArtifactCache {
    slots: RwLock<Vec<Slot>>,
    hits: AtomicU64,
    misses: AtomicU64,
    store: Option<Arc<ArtifactStore>>,
}

impl fmt::Debug for SchemaArtifactCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchemaArtifactCache")
            .field("schemas", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl SchemaArtifactCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache backed by a persistent artifact store: builds
    /// consult the disk tier first and write through on rebuild, so a
    /// restarted engine sharing the same store root warm-starts without
    /// reclassifying (see the module docs).
    pub fn with_store(store: Arc<ArtifactStore>) -> Self {
        SchemaArtifactCache {
            store: Some(store),
            ..Self::default()
        }
    }

    /// The disk tier, if this cache has one.
    pub fn store(&self) -> Option<&Arc<ArtifactStore>> {
        self.store.as_ref()
    }

    /// The disk tier's counters (all-zero when there is no disk tier).
    pub fn store_stats(&self) -> StoreStats {
        self.store.as_ref().map(|s| s.stats()).unwrap_or_default()
    }

    /// Registers `schema`, building its artifact bundle eagerly (counted
    /// as the slot's one cold **miss**). A schema structurally equal to
    /// an already-registered one is deduplicated: the existing id comes
    /// back and the lookup counts a **hit**.
    pub fn register(&self, schema: RelationalSchema) -> Result<SchemaId, CacheError> {
        self.register_in(schema, &mut Unlocked::new())
    }

    /// [`SchemaArtifactCache::register`] on the caller's token.
    pub(crate) fn register_in(
        &self,
        schema: RelationalSchema,
        t: &mut Unlocked,
    ) -> Result<SchemaId, CacheError> {
        let fingerprint = schema.fingerprint();
        {
            let slots = read(&self.slots, t);
            if let Some(i) = slots
                .iter()
                .position(|s| s.fingerprint == fingerprint && *s.schema == schema)
            {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(SchemaId(i));
            }
        }
        // Build outside the slot lock — classification and the disk tier
        // are the expensive part, and holding `slots` across them would
        // stall every concurrent lookup. Racing registrations of the
        // same schema may duplicate the build; the re-check under the
        // write lock below keeps ids unique and discards the loser.
        let artifacts = self.build_or_load(&schema, t)?;
        let mut slots = write(&self.slots, t);
        if let Some(i) = slots
            .iter()
            .position(|s| s.fingerprint == fingerprint && *s.schema == schema)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(SchemaId(i));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        slots.push(Slot {
            schema: Arc::new(schema),
            fingerprint,
            generation: 0,
            artifacts: Some(artifacts),
        });
        debug_assert!(
            slots.last().is_some_and(|s| check_cache_coherence(s, 0)),
            "registration created an incoherent slot"
        );
        Ok(SchemaId(slots.len() - 1))
    }

    /// Replaces the schema behind `id` (a schema *mutation*): the old
    /// bundle is dropped, the generation bumps, and the new bundle is
    /// built lazily on the next [`SchemaArtifactCache::artifacts`] call.
    /// The new schema is validated here, eagerly, so a bad replacement
    /// fails at the mutation site instead of at some later query.
    pub fn replace(&self, id: SchemaId, schema: RelationalSchema) -> Result<(), CacheError> {
        schema.to_bipartite().map_err(CacheError::Schema)?;
        let t = &mut Unlocked::new();
        let mut slots = write(&self.slots, t);
        let slot = slots.get_mut(id.0).ok_or(CacheError::UnknownSchema(id))?;
        let observed = slot.generation;
        slot.fingerprint = schema.fingerprint();
        slot.schema = Arc::new(schema);
        slot.generation += 1;
        slot.artifacts = None;
        debug_assert!(
            check_cache_coherence(slot, observed + 1),
            "replace left an incoherent slot"
        );
        Ok(())
    }

    /// Drops the cached bundle for `id` and bumps its generation without
    /// changing the schema — forcing the next lookup to rebuild (a
    /// **miss**). Returns `false` for an unknown id.
    pub fn invalidate(&self, id: SchemaId) -> bool {
        let t = &mut Unlocked::new();
        let mut slots = write(&self.slots, t);
        let Some(slot) = slots.get_mut(id.0) else {
            return false;
        };
        slot.generation += 1;
        slot.artifacts = None;
        let fingerprint = slot.fingerprint;
        if let Some(store) = &self.store {
            remove_from_disk_under_slot_lock(store, &slots, fingerprint);
        }
        true
    }

    /// The artifacts for `id`: the cached bundle (a **hit**), or a lazy
    /// rebuild if the slot was invalidated (a **miss**).
    pub fn artifacts(&self, id: SchemaId) -> Result<CachedArtifacts, CacheError> {
        self.artifacts_in(id, &mut Unlocked::new())
    }

    /// [`SchemaArtifactCache::artifacts`] on the caller's token.
    pub(crate) fn artifacts_in(
        &self,
        id: SchemaId,
        t: &mut Unlocked,
    ) -> Result<CachedArtifacts, CacheError> {
        // Each pass either returns or observed a strictly newer
        // generation than the one it built for. A loop rather than a
        // retrying call keeps sustained churn from growing the stack.
        loop {
            {
                let slots = read(&self.slots, t);
                let slot = slots.get(id.0).ok_or(CacheError::UnknownSchema(id))?;
                if let Some(a) = &slot.artifacts {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(CachedArtifacts {
                        generation: slot.generation,
                        artifacts: Arc::clone(a),
                    });
                }
            }
            // Rebuild outside any lock (classification is the expensive
            // part), then install under the write lock — racing rebuilders
            // may duplicate work but never serve stale artifacts: the
            // generation is re-checked and a bundle built for an older
            // generation is discarded.
            let (schema, generation) = {
                let slots = read(&self.slots, t);
                let slot = slots.get(id.0).ok_or(CacheError::UnknownSchema(id))?;
                (Arc::clone(&slot.schema), slot.generation)
            };
            let built = self.build_or_load(&schema, t)?;
            self.misses.fetch_add(1, Ordering::Relaxed);
            let mut slots = write(&self.slots, t);
            let slot = slots.get_mut(id.0).ok_or(CacheError::UnknownSchema(id))?;
            // Generations never move backwards, even across the unlocked
            // rebuild window (debug-build certificate).
            debug_assert!(
                check_cache_coherence(slot, generation),
                "slot regressed behind an observed generation during rebuild"
            );
            if slot.generation == generation {
                if slot.artifacts.is_none() {
                    slot.artifacts = Some(Arc::clone(&built));
                }
                let a = slot.artifacts.as_ref().unwrap_or(&built);
                return Ok(CachedArtifacts {
                    generation,
                    artifacts: Arc::clone(a),
                });
            }
            // Invalidated again while we were building: discard the
            // bundle and start over against the newer generation.
        }
    }

    /// The schema behind `id`, if registered.
    pub fn schema(&self, id: SchemaId) -> Option<Arc<RelationalSchema>> {
        read(&self.slots, &mut Unlocked::new())
            .get(id.0)
            .map(|s| Arc::clone(&s.schema))
    }

    /// Number of registered schemas.
    pub fn len(&self) -> usize {
        read(&self.slots, &mut Unlocked::new()).len()
    }

    /// Whether no schema is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Artifact lookups served from the cache (plus dedup'd
    /// registrations).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Artifact builds: cold registrations plus post-invalidation
    /// rebuilds.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The tiered build: a validated disk hit skips classification; a
    /// miss builds and writes through. Without a store this is exactly
    /// the old cold build. Classification and the disk tier both block,
    /// hence the token.
    fn build_or_load(
        &self,
        schema: &RelationalSchema,
        _: &mut Unlocked,
    ) -> Result<Arc<SchemaArtifacts>, CacheError> {
        let bg = schema.to_bipartite().map_err(CacheError::Schema)?;
        let Some(store) = &self.store else {
            return Ok(Arc::new(SchemaArtifacts::build(bg)));
        };
        let fingerprint = schema.fingerprint();
        if let Some(loaded) = store.load(fingerprint) {
            // Last line of defense against a fingerprint collision (or a
            // blob filed under the wrong key despite the header echo):
            // the decoded bundle must describe *this* schema's graph.
            if *loaded.bipartite() == bg {
                return Ok(Arc::new(loaded));
            }
        }
        let built = Arc::new(SchemaArtifacts::build(bg));
        store.store(fingerprint, &built);
        Ok(built)
    }
}

/// Unlinks `fingerprint`'s disk object while the slot write lock is held —
/// the guard is the proof. This is the invalidation barrier: a racing
/// rebuilder re-reads its slot (blocking on this lock) before it consults
/// the store, so by the time it can see the new generation the old bytes
/// are gone and it must genuinely rebuild. Moving the unlink outside the
/// lock reopens that stale-read race (pinned by `store_tier.rs`). It is
/// the one blocking call the engine makes under a lock.
#[expect(
    clippy::disallowed_methods,
    reason = "the one sanctioned unlink: under the slot write lock, by design"
)]
fn remove_from_disk_under_slot_lock(
    store: &ArtifactStore,
    _proof: &RwLockWriteGuard<'_, Vec<Slot>>,
    fingerprint: u64,
) {
    store.remove(fingerprint);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RelationalSchema {
        RelationalSchema::from_lists(
            "emp",
            &["emp_id", "name", "dept", "budget"],
            &[("EMP", &[0, 1, 2]), ("DEPT", &[2, 3])],
        )
    }

    #[test]
    fn register_is_the_only_cold_miss() {
        let cache = SchemaArtifactCache::new();
        let id = cache.register(sample()).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        for _ in 0..5 {
            let got = cache.artifacts(id).unwrap();
            assert_eq!(got.generation, 0);
            assert!(got.artifacts.classification().six_two);
        }
        assert_eq!((cache.hits(), cache.misses()), (5, 1));
    }

    #[test]
    fn structurally_equal_schemas_deduplicate() {
        let cache = SchemaArtifactCache::new();
        let a = cache.register(sample()).unwrap();
        let b = cache.register(sample()).unwrap();
        assert_eq!(a, b);
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn invalidation_bumps_generation_and_rebuilds_lazily() {
        let cache = SchemaArtifactCache::new();
        let id = cache.register(sample()).unwrap();
        let g0 = cache.artifacts(id).unwrap();
        assert!(cache.invalidate(id));
        let g1 = cache.artifacts(id).unwrap();
        assert_eq!(g1.generation, g0.generation + 1);
        assert!(!Arc::ptr_eq(&g0.artifacts, &g1.artifacts));
        // register miss + rebuild miss, one hit each for g0 and the
        // post-rebuild lookups.
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn replace_swaps_the_schema() {
        let cache = SchemaArtifactCache::new();
        let id = cache.register(sample()).unwrap();
        let bigger = RelationalSchema::from_lists(
            "emp2",
            &["emp_id", "name", "dept", "budget", "site"],
            &[("EMP", &[0, 1, 2]), ("DEPT", &[2, 3]), ("LOC", &[3, 4])],
        );
        cache.replace(id, bigger.clone()).unwrap();
        assert_eq!(*cache.schema(id).unwrap(), bigger);
        let got = cache.artifacts(id).unwrap();
        assert_eq!(got.generation, 1);
        assert_eq!(got.artifacts.bipartite().graph().node_count(), 8);
        // Invalid replacements fail eagerly and leave the slot intact.
        let bad = RelationalSchema::from_lists("bad", &["a"], &[("r", &[7])]);
        assert!(matches!(cache.replace(id, bad), Err(CacheError::Schema(_))));
        assert_eq!(*cache.schema(id).unwrap(), bigger);
    }

    #[test]
    fn unknown_ids_are_reported() {
        let cache = SchemaArtifactCache::new();
        let other = SchemaArtifactCache::new();
        let id = other.register(sample()).unwrap();
        assert!(matches!(
            cache.artifacts(id),
            Err(CacheError::UnknownSchema(e)) if e == id
        ));
        assert!(!cache.invalidate(id));
        assert!(cache.schema(id).is_none());
    }

    #[test]
    fn cache_is_shareable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SchemaArtifactCache>();
        assert_send_sync::<CachedArtifacts>();
    }
}
