//! Storage fault injection: a [`TemplateStore`] that misbehaves on
//! schedule.
//!
//! The store trait is infallible by contract — a read that cannot be
//! served is a miss, a write that cannot land is dropped — so every
//! storage fault maps onto behavior the stack already promises to
//! absorb. `Corrupt` is the interesting one: instead of *assuming* the
//! corrupt-artifact path returns a miss, the wrapper garbles the real
//! artifact's canonical JSON and routes it through the real
//! [`TemplateArtifact::from_json`] validator, so the test exercises the
//! same parse-and-reject code a damaged disk file would hit.

use std::sync::Arc;

use frozenqubits::{
    CacheStats, CompiledTemplate, TemplateArtifact, TemplateIndexEntry, TemplateKey, TemplateStore,
};

use crate::plan::{FaultKind, FaultPlan, FaultSite};

/// A [`TemplateStore`] decorator that injects scheduled storage faults
/// in front of any inner store.
#[derive(Debug)]
pub struct FaultyStore {
    inner: Box<dyn TemplateStore>,
    plan: Arc<FaultPlan>,
}

impl FaultyStore {
    /// Wraps `inner`, consulting `plan` at every fetch and insert.
    #[must_use]
    pub fn new(inner: Box<dyn TemplateStore>, plan: Arc<FaultPlan>) -> FaultyStore {
        FaultyStore { inner, plan }
    }

    /// Garbles an artifact's wire form so validation must reject it:
    /// truncating mid-document is exactly what a torn write leaves
    /// behind, and the parser has to fail on it.
    fn corrupt(json: &str) -> Option<TemplateArtifact> {
        let cut = json.len() / 2;
        TemplateArtifact::from_json(&json[..cut]).ok()
    }
}

impl TemplateStore for FaultyStore {
    fn fetch(&self, key: &TemplateKey) -> Option<CompiledTemplate> {
        match self.plan.roll(FaultSite::StoreFetch) {
            Some(FaultKind::ReadError) => None,
            Some(FaultKind::Corrupt) => {
                let template = self.inner.fetch(key)?;
                let artifact = TemplateArtifact::new(key.clone(), template);
                Self::corrupt(&artifact.to_json()).map(|a| a.template().clone())
            }
            Some(FaultKind::Stall(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                self.inner.fetch(key)
            }
            _ => self.inner.fetch(key),
        }
    }

    fn insert(&self, key: &TemplateKey, template: &CompiledTemplate) {
        match self.plan.roll(FaultSite::StoreInsert) {
            Some(FaultKind::WriteError) => {}
            Some(FaultKind::Stall(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                self.inner.insert(key, template);
            }
            _ => self.inner.insert(key, template),
        }
    }

    fn fetch_fingerprint(&self, fingerprint: &str) -> Option<TemplateArtifact> {
        match self.plan.roll(FaultSite::StoreFetch) {
            Some(FaultKind::ReadError) => None,
            Some(FaultKind::Corrupt) => {
                let artifact = self.inner.fetch_fingerprint(fingerprint)?;
                Self::corrupt(&artifact.to_json())
            }
            Some(FaultKind::Stall(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                self.inner.fetch_fingerprint(fingerprint)
            }
            _ => self.inner.fetch_fingerprint(fingerprint),
        }
    }

    fn index(&self) -> Vec<TemplateIndexEntry> {
        self.inner.index()
    }

    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frozenqubits::api::{DeviceSpec, JobBuilder};
    use frozenqubits::MemoryStore;

    /// A compiled template + key pair, produced the same way the
    /// service does it: run a tiny frozen job and pull the artifact out
    /// of the runner's cache.
    fn sample_artifact() -> TemplateArtifact {
        let runner = frozenqubits::BatchRunner::new().with_threads(1);
        let spec = JobBuilder::new()
            .barabasi_albert(8, 1, 5)
            .device(DeviceSpec::IbmMontreal)
            .frozen()
            .build()
            .unwrap();
        runner.run(std::slice::from_ref(&spec));
        let index = runner.cache().index();
        let fp = &index[0].fingerprint;
        runner.cache().artifact(fp).expect("compiled artifact")
    }

    fn all_faults(kind: FaultKind, site: FaultSite) -> Arc<FaultPlan> {
        Arc::new(FaultPlan::new(1).with_rule(site, kind, 1, None))
    }

    #[test]
    fn read_error_is_a_miss_not_a_crash() {
        let artifact = sample_artifact();
        let inner = MemoryStore::new();
        inner.insert(artifact.key(), artifact.template());
        let store = FaultyStore::new(
            Box::new(inner),
            all_faults(FaultKind::ReadError, FaultSite::StoreFetch),
        );
        assert!(store.fetch(artifact.key()).is_none());
        assert!(store.fetch_fingerprint(&artifact.fingerprint()).is_none());
    }

    #[test]
    fn corrupt_routes_through_the_real_validator_and_misses() {
        let artifact = sample_artifact();
        let inner = MemoryStore::new();
        inner.insert(artifact.key(), artifact.template());
        let store = FaultyStore::new(
            Box::new(inner),
            all_faults(FaultKind::Corrupt, FaultSite::StoreFetch),
        );
        assert!(store.fetch(artifact.key()).is_none());
        assert!(store.fetch_fingerprint(&artifact.fingerprint()).is_none());
    }

    #[test]
    fn write_error_drops_the_insert() {
        let artifact = sample_artifact();
        let store = FaultyStore::new(
            Box::new(MemoryStore::new()),
            all_faults(FaultKind::WriteError, FaultSite::StoreInsert),
        );
        store.insert(artifact.key(), artifact.template());
        assert_eq!(store.stats().len, 0, "faulted write must not land");
        assert!(store.index().is_empty());
    }

    #[test]
    fn no_matching_rule_passes_straight_through() {
        let artifact = sample_artifact();
        // Faults scheduled only on Dial: storage behaves normally.
        let plan =
            Arc::new(FaultPlan::new(1).with_rule(FaultSite::Dial, FaultKind::Refuse, 1, None));
        let store = FaultyStore::new(Box::new(MemoryStore::new()), plan);
        store.insert(artifact.key(), artifact.template());
        assert_eq!(
            store.fetch(artifact.key()).as_ref(),
            Some(artifact.template())
        );
        assert_eq!(store.index().len(), 1);
    }

    #[test]
    fn partial_rate_faults_some_fetches_and_serves_the_rest() {
        let artifact = sample_artifact();
        let inner = MemoryStore::new();
        inner.insert(artifact.key(), artifact.template());
        let plan = Arc::new(FaultPlan::new(4).with_rule(
            FaultSite::StoreFetch,
            FaultKind::ReadError,
            3,
            None,
        ));
        let store = FaultyStore::new(Box::new(inner), Arc::clone(&plan));
        let misses = (0..300)
            .filter(|_| store.fetch(artifact.key()).is_none())
            .count() as u64;
        assert_eq!(misses, plan.total_fired());
        assert!(misses > 0 && misses < 300);
    }
}
