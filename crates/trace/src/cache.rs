//! A process-wide memo of generated traces.
//!
//! The experiment harness regenerates the same traces over and over: every
//! figure binary prepares contexts from the same `(seed, spec, duration)`
//! triples, and a parallel sweep would otherwise generate one copy per
//! worker. Generation is deterministic — the same triple always produces the
//! same trace — so a shared cache is safe and cuts repeated preparation down
//! to one generation plus cheap `Arc` clones.
//!
//! Entries are keyed by the generator seed, the duration's exact bit pattern,
//! and a structural fingerprint of the [`ClusterSpec`] (its JSON serialization,
//! so any change to any field produces a distinct key).
//!
//! The cache never evicts: a process requests a few dozen distinct traces at
//! most (fig06 asks for 20). [`clear_trace_cache`] is the one memory control;
//! outstanding `Arc` handles keep cleared traces alive until their holders
//! drop them.

use crate::cluster::ClusterSpec;
use crate::generator::TraceGenerator;
use crate::trace::Trace;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct TraceKey {
    seed: u64,
    duration_bits: u64,
    spec_fingerprint: String,
}

fn cache() -> &'static Mutex<BTreeMap<TraceKey, Arc<Trace>>> {
    static CACHE: OnceLock<Mutex<BTreeMap<TraceKey, Arc<Trace>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

// lint note: the `.expect("trace cache lock")` calls below are the one
// accepted panic in this module — a poisoned mutex means another thread
// already panicked mid-generation and the process is going down anyway.

impl TraceGenerator {
    /// Like [`TraceGenerator::generate`], but memoized process-wide: repeated
    /// calls with the same seed, spec, and duration return a shared handle to
    /// one generated trace instead of regenerating it.
    ///
    /// Concurrent first calls with the same key may race to generate (the
    /// cache lock is not held during generation); all of them end up with
    /// equal traces and one copy is retained.
    ///
    /// # Panics
    /// Panics if `duration_secs` is not positive or the spec has no pipelines
    /// with positive weight.
    pub fn generate_cached(&self, spec: &ClusterSpec, duration_secs: f64) -> Arc<Trace> {
        let key = TraceKey {
            seed: self.seed(),
            duration_bits: duration_secs.to_bits(),
            spec_fingerprint: serde_json::to_string(spec).expect("cluster specs always serialize"),
        };
        if let Some(hit) = cache().lock().expect("trace cache lock").get(&key) {
            return Arc::clone(hit);
        }
        let generated = Arc::new(self.generate(spec, duration_secs));
        let mut entries = cache().lock().expect("trace cache lock");
        Arc::clone(entries.entry(key).or_insert(generated))
    }
}

/// Number of traces currently held by the process-wide cache.
pub fn cached_trace_count() -> usize {
    cache().lock().expect("trace cache lock").len()
}

/// Drop every cached trace (useful to bound memory in long-running sweeps).
pub fn clear_trace_cache() {
    cache().lock().expect("trace cache lock").clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cache is process-global; serialize the tests that assert on its
    /// exact contents so `cargo test`'s parallelism cannot interleave them.
    fn lock_for_test() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
        match GUARD.get_or_init(|| Mutex::new(())).lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn tiny_spec() -> ClusterSpec {
        ClusterSpec::balanced(200)
    }

    #[test]
    fn identical_calls_share_one_generation() {
        let _serial = lock_for_test();
        clear_trace_cache();
        let generator = TraceGenerator::new(77);
        let a = generator.generate_cached(&tiny_spec(), 600.0);
        let b = generator.generate_cached(&tiny_spec(), 600.0);
        assert!(
            Arc::ptr_eq(&a, &b),
            "second call must reuse the first trace"
        );
        assert_eq!(cached_trace_count(), 1);
    }

    #[test]
    fn cached_trace_matches_uncached_generation() {
        let _serial = lock_for_test();
        let generator = TraceGenerator::new(78);
        let cached = generator.generate_cached(&tiny_spec(), 600.0);
        let fresh = generator.generate(&tiny_spec(), 600.0);
        assert_eq!(cached.jobs().len(), fresh.jobs().len());
        for (a, b) in cached.jobs().iter().zip(fresh.jobs()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let _serial = lock_for_test();
        clear_trace_cache();
        let generator = TraceGenerator::new(79);
        let base = generator.generate_cached(&tiny_spec(), 600.0);
        let other_seed = TraceGenerator::new(80).generate_cached(&tiny_spec(), 600.0);
        let other_duration = generator.generate_cached(&tiny_spec(), 1200.0);
        let other_spec = generator.generate_cached(&ClusterSpec::balanced(201), 600.0);
        assert!(!Arc::ptr_eq(&base, &other_seed));
        assert!(!Arc::ptr_eq(&base, &other_duration));
        assert!(!Arc::ptr_eq(&base, &other_spec));
        assert_eq!(cached_trace_count(), 4);
        clear_trace_cache();
        assert_eq!(cached_trace_count(), 0);
    }
}
