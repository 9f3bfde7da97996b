//! Per-tenant key registry with LRU eviction.
//!
//! The engine multiplexes many tenants over one parameter set; each tenant
//! owns independent key material (public, relinearization, Galois). Keys
//! are large — a relinearization key at the paper's parameters is
//! 6 digits × 2 polys × 6 residues × 4096 coeffs × 4 B ≈ 1.2 MB — so the
//! registry is a bounded, interior-mutable cache: reads take a shared lock
//! and bump a recency stamp; registering past capacity evicts the
//! least-recently-used tenant. Evicted tenants simply re-register (the
//! client always holds its own keys); jobs in flight keep their `Arc`.

use crate::error::EngineError;
use hefv_core::context::FvContext;
use hefv_core::galois::GaloisKeySet;
use hefv_core::keys::{PublicKey, RelinKey};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Process-wide snapshot-restore outcome counters, rendered as
/// `hefv_snapshot_restore_total{outcome=}` in the metrics exposition
/// (statics, like the net client's retry counter: restores happen at
/// process start, usually before any router exists to hang stats on).
static SNAPSHOT_RESTORE_OK: AtomicU64 = AtomicU64::new(0);
static SNAPSHOT_RESTORE_FAILED: AtomicU64 = AtomicU64::new(0);

/// Counts one snapshot-restore outcome (`true` = the snapshot verified
/// and was applied).
pub fn note_snapshot_restore(ok: bool) {
    if ok {
        SNAPSHOT_RESTORE_OK.fetch_add(1, Ordering::Relaxed);
    } else {
        SNAPSHOT_RESTORE_FAILED.fetch_add(1, Ordering::Relaxed);
    }
}

/// `(ok, integrity_failure)` totals of every snapshot restore this
/// process attempted.
pub fn snapshot_restore_counts() -> (u64, u64) {
    (
        SNAPSHOT_RESTORE_OK.load(Ordering::Relaxed),
        SNAPSHOT_RESTORE_FAILED.load(Ordering::Relaxed),
    )
}

/// Tenant identifier (assigned by the operator, opaque to the engine).
pub type TenantId = u64;

/// One tenant's key material. Every field is optional: a tenant doing only
/// additions needs no keys at all beyond its inputs.
#[derive(Clone, Default)]
pub struct TenantKeys {
    /// Public key. It travels with the key set (registration frames and
    /// `HEVR` snapshots), but the engine never reads it: it encrypts
    /// nothing, so clients pack and encrypt their own inputs.
    pub pk: Option<Arc<PublicKey>>,
    /// Relinearization key, needed for `Mul`.
    pub rlk: Option<Arc<RelinKey>>,
    /// Galois key set, needed for `Rotate`/`SumSlots`.
    pub galois: Option<Arc<GaloisKeySet>>,
}

impl TenantKeys {
    /// Key set with everything needed for the full op repertoire.
    pub fn full(pk: PublicKey, rlk: RelinKey, galois: GaloisKeySet) -> Self {
        TenantKeys {
            pk: Some(Arc::new(pk)),
            rlk: Some(Arc::new(rlk)),
            galois: Some(Arc::new(galois)),
        }
    }

    /// Key set for add/mul workloads (no rotations).
    pub fn compute(pk: PublicKey, rlk: RelinKey) -> Self {
        TenantKeys {
            pk: Some(Arc::new(pk)),
            rlk: Some(Arc::new(rlk)),
            galois: None,
        }
    }

    /// Key set for linear workloads (add/sub/neg, plaintext products):
    /// just the public key.
    pub fn encrypt_only(pk: PublicKey) -> Self {
        TenantKeys {
            pk: Some(Arc::new(pk)),
            rlk: None,
            galois: None,
        }
    }
}

struct Entry {
    keys: Arc<TenantKeys>,
    last_used: AtomicU64,
}

/// Bounded multi-tenant key cache.
pub struct KeyRegistry {
    capacity: usize,
    clock: AtomicU64,
    evictions: AtomicU64,
    inner: RwLock<HashMap<TenantId, Entry>>,
}

impl KeyRegistry {
    /// Creates a registry holding at most `capacity` tenants (≥ 1).
    pub fn new(capacity: usize) -> Self {
        KeyRegistry {
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            inner: RwLock::new(HashMap::new()),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers (or replaces) a tenant's keys, evicting the LRU tenant
    /// if the registry is over capacity.
    pub fn register(&self, tenant: TenantId, keys: TenantKeys) {
        let stamp = self.tick();
        let mut map = self.inner.write().unwrap();
        map.insert(
            tenant,
            Entry {
                keys: Arc::new(keys),
                last_used: AtomicU64::new(stamp),
            },
        );
        while map.len() > self.capacity {
            let victim = map
                .iter()
                .filter(|(id, _)| **id != tenant)
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(id, _)| *id);
            match victim {
                Some(id) => {
                    map.remove(&id);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
    }

    /// Looks a tenant up, refreshing its recency.
    pub fn get(&self, tenant: TenantId) -> Option<Arc<TenantKeys>> {
        let stamp = self.tick();
        let map = self.inner.read().unwrap();
        map.get(&tenant).map(|e| {
            e.last_used.store(stamp, Ordering::Relaxed);
            Arc::clone(&e.keys)
        })
    }

    /// Whether a tenant is resident, *without* refreshing its recency —
    /// this is the anti-entropy probe: a sweep checking replica health
    /// must see eviction pressure as it is, not mask it by touching
    /// every tenant it audits.
    pub fn contains(&self, tenant: TenantId) -> bool {
        self.inner.read().unwrap().contains_key(&tenant)
    }

    /// Serializes every resident tenant into a checksummed `HEVR`
    /// snapshot blob (see [`crate::wire::encode_registry_snapshot`]),
    /// in ascending tenant order so identical populations produce
    /// byte-identical snapshots.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut entries: Vec<(TenantId, Arc<TenantKeys>)> = {
            let map = self.inner.read().unwrap();
            map.iter().map(|(&t, e)| (t, Arc::clone(&e.keys))).collect()
        };
        entries.sort_by_key(|(t, _)| *t);
        crate::wire::encode_registry_snapshot(&entries)
    }

    /// Restores tenants from an `HEVR` snapshot blob, registering every
    /// entry (existing tenants are replaced; eviction applies as in
    /// [`KeyRegistry::register`]). Returns how many tenants were
    /// restored, and records the outcome in the process-wide
    /// `hefv_snapshot_restore_total` counters.
    ///
    /// # Errors
    ///
    /// [`EngineError::IntegrityFailure`] when the snapshot is torn,
    /// bit-flipped, or otherwise fails verification — in which case
    /// *nothing* was registered (the decode stages fully first).
    pub fn restore(&self, ctx: &FvContext, bytes: &[u8]) -> Result<usize, EngineError> {
        match crate::wire::decode_registry_snapshot(ctx, bytes) {
            Ok(entries) => {
                let n = entries.len();
                for (tenant, keys) in entries {
                    self.register(tenant, keys);
                }
                note_snapshot_restore(true);
                Ok(n)
            }
            Err(e) => {
                note_snapshot_restore(false);
                Err(e)
            }
        }
    }

    /// Drops a tenant's keys (no-op if absent).
    pub fn remove(&self, tenant: TenantId) -> bool {
        self.inner.write().unwrap().remove(&tenant).is_some()
    }

    /// Number of resident tenants.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total evictions since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_keys() -> TenantKeys {
        TenantKeys::default()
    }

    #[test]
    fn register_get_remove() {
        let r = KeyRegistry::new(8);
        assert!(r.is_empty());
        r.register(1, empty_keys());
        assert_eq!(r.len(), 1);
        assert!(r.get(1).is_some());
        assert!(r.get(2).is_none());
        assert!(r.remove(1));
        assert!(!r.remove(1));
        assert!(r.is_empty());
    }

    #[test]
    fn evicts_least_recently_used() {
        let r = KeyRegistry::new(2);
        r.register(1, empty_keys());
        r.register(2, empty_keys());
        // Touch tenant 1 so tenant 2 is the LRU.
        assert!(r.get(1).is_some());
        r.register(3, empty_keys());
        assert_eq!(r.len(), 2);
        assert!(r.get(1).is_some(), "recently used survives");
        assert!(r.get(2).is_none(), "LRU evicted");
        assert!(r.get(3).is_some(), "newcomer resident");
        assert_eq!(r.evictions(), 1);
    }

    #[test]
    fn never_evicts_the_tenant_just_registered() {
        let r = KeyRegistry::new(1);
        r.register(1, empty_keys());
        r.register(2, empty_keys());
        assert!(r.get(2).is_some());
        assert!(r.get(1).is_none());
    }

    #[test]
    fn reregistering_replaces_in_place() {
        let r = KeyRegistry::new(2);
        r.register(1, empty_keys());
        r.register(2, empty_keys());
        r.register(1, empty_keys());
        assert_eq!(r.len(), 2);
        assert_eq!(r.evictions(), 0);
    }

    #[test]
    fn contains_does_not_refresh_recency() {
        let r = KeyRegistry::new(2);
        r.register(1, empty_keys());
        r.register(2, empty_keys());
        // An anti-entropy probe of tenant 1 must not save it from LRU.
        assert!(r.contains(1));
        r.register(3, empty_keys());
        assert!(!r.contains(1), "probed tenant still evicted as LRU");
        assert!(r.contains(2) && r.contains(3));
    }

    #[test]
    fn snapshots_roundtrip_through_the_registry() {
        use hefv_core::params::FvParams;
        let ctx = FvContext::new(FvParams::insecure_toy()).unwrap();
        let r = KeyRegistry::new(8);
        r.register(5, empty_keys());
        r.register(1, empty_keys());
        let blob = r.snapshot();
        assert!(crate::wire::is_registry_snapshot(&blob));
        // Same population → byte-identical snapshot (sorted entries).
        assert_eq!(blob, r.snapshot());

        let fresh = KeyRegistry::new(8);
        assert_eq!(fresh.restore(&ctx, &blob).unwrap(), 2);
        assert!(fresh.contains(1) && fresh.contains(5));

        // A flipped bit refuses wholesale: nothing lands.
        let mut bad = blob.clone();
        bad[8] ^= 1;
        let empty = KeyRegistry::new(8);
        assert!(matches!(
            empty.restore(&ctx, &bad),
            Err(EngineError::IntegrityFailure(_))
        ));
        assert!(empty.is_empty(), "failed restore must not partially apply");
    }

    #[test]
    fn inflight_arcs_survive_eviction() {
        let r = KeyRegistry::new(1);
        r.register(1, empty_keys());
        let held = r.get(1).unwrap();
        r.register(2, empty_keys());
        assert!(r.get(1).is_none());
        // The job holding the Arc keeps using the evicted keys safely.
        assert!(held.pk.is_none());
    }
}
