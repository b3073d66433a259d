//! Content-addressed registry of reduced models.
//!
//! The registry maps a content address — the SHA-256 of the canonical
//! netlist plus the exact reduction options, see
//! [`ServiceRequest`](crate::ServiceRequest) — to a reduced model. It
//! has two tiers:
//!
//! * an in-memory LRU (bounded, always present), and
//! * an optional directory of `<hex-key>.rom` files in the
//!   [`sympvl::write_model`] text format, written atomically
//!   (temp + rename via [`mpvl_obs::write_atomic`]) so concurrent
//!   services sharing the directory never observe a torn model.
//!
//! The directory is the durable tier: models outlive the process, and
//! a fresh service pointed at the same directory serves warm hits
//! immediately. Memory evictions never delete files.

use crate::error::ServiceError;
use mpvl_engine::Lru;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use sympvl::ReducedModel;

pub(crate) struct RegistryInner {
    /// The memory tier.
    pub(crate) entries: Lru<String, Arc<ReducedModel>>,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

pub(crate) struct ModelRegistry {
    dir: Option<PathBuf>,
    inner: Mutex<RegistryInner>,
}

impl ModelRegistry {
    pub(crate) fn new(capacity: usize, dir: Option<PathBuf>) -> Self {
        ModelRegistry {
            dir,
            inner: Mutex::new(RegistryInner {
                entries: Lru::new(capacity),
                hits: 0,
                misses: 0,
            }),
        }
    }

    /// The memory tier and counters, recovering from poison like every
    /// service lock.
    pub(crate) fn lock(&self) -> MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn rom_path(&self, key_hex: &str) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{key_hex}.rom")))
    }

    /// Looks a key up: memory first, then the persistent directory
    /// (a disk hit is promoted into memory). Both tiers count as hits.
    pub(crate) fn get(&self, key_hex: &str) -> Option<Arc<ReducedModel>> {
        let held = self.lock().entries.get(key_hex).cloned();
        // Disk probe outside the lock: parsing a ROM file must not
        // serialize every other registry access.
        let found = held.or_else(|| {
            let text = std::fs::read_to_string(self.rom_path(key_hex)?).ok()?;
            let model = Arc::new(sympvl::read_model(&text).ok()?);
            self.insert(key_hex, model.clone());
            Some(model)
        });
        let mut inner = self.lock();
        if found.is_some() {
            inner.hits += 1;
            mpvl_obs::counter_add("service", "registry_hits", 1);
        } else {
            inner.misses += 1;
            mpvl_obs::counter_add("service", "registry_misses", 1);
        }
        found
    }

    /// Registers a model under its content address: persisted first
    /// (atomically, when a directory is configured), then cached in
    /// memory. Idempotent — re-putting an existing key just refreshes
    /// its recency.
    pub(crate) fn put(&self, key_hex: &str, model: Arc<ReducedModel>) -> Result<(), ServiceError> {
        if let Some(path) = self.rom_path(key_hex) {
            let text = sympvl::write_model(&model);
            mpvl_obs::write_atomic(&path, &text).map_err(|e| ServiceError::Persist {
                path: path.display().to_string(),
                message: e.to_string(),
            })?;
        }
        self.insert(key_hex, model);
        Ok(())
    }

    /// Caches `model` in memory; a key already held keeps its model
    /// and only becomes most recently used.
    fn insert(&self, key_hex: &str, model: Arc<ReducedModel>) {
        let mut inner = self.lock();
        if inner.entries.get(key_hex).is_none() {
            inner.entries.insert(key_hex.to_string(), model);
        }
    }
}
