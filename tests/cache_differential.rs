//! Differential tests for the content-addressed analysis cache: it must
//! not change a single measured byte, and it must analyse each unique
//! intercepted binary exactly once.

use dydroid::{Pipeline, PipelineConfig};
use dydroid_workload::{generate, CorpusSpec};

/// ~235 apps with every archetype represented, including malware, so the
/// Table VIII environment re-runs actually trigger.
fn tiny_corpus() -> Vec<dydroid_workload::SyntheticApp> {
    generate(&CorpusSpec {
        scale: 0.004,
        seed: 99,
    })
}

fn cached_config() -> PipelineConfig {
    PipelineConfig::default()
}

fn uncached_config() -> PipelineConfig {
    PipelineConfig {
        analysis_cache: false,
        ..PipelineConfig::default()
    }
}

/// The tentpole invariant: with the cache on the report JSON is
/// byte-identical to the uncached sweep.
#[test]
fn cached_sweep_report_is_byte_identical_to_uncached() {
    let corpus = tiny_corpus();

    let cached = Pipeline::new(cached_config()).run(&corpus);
    let uncached = Pipeline::new(uncached_config()).run(&corpus);

    let cached_json = serde_json::to_string(&cached).expect("serialise cached report");
    let uncached_json = serde_json::to_string(&uncached).expect("serialise uncached report");
    assert!(
        !cached_json.is_empty(),
        "report serialisation must not be empty"
    );
    assert_eq!(
        cached_json, uncached_json,
        "the analysis cache changed the measured results"
    );
}

/// Exactly-once: every cache miss is a distinct binary, every signature
/// build corresponds to one miss, and re-sweeping the same corpus on the
/// same pipeline performs zero additional analyses.
#[test]
fn cache_analyzes_each_unique_binary_exactly_once() {
    let corpus = tiny_corpus();
    let pipeline = Pipeline::new(cached_config());

    let _ = pipeline.run(&corpus);
    let first = pipeline.cache_stats();
    assert!(first.misses > 0, "corpus must intercept some binaries");
    assert!(first.hits > 0, "corpus must contain duplicate binaries");
    assert_eq!(
        first.misses, first.entries,
        "every miss must create exactly one cache entry"
    );
    assert_eq!(
        first.sig_builds, first.misses,
        "one BinarySig::build per unique binary"
    );
    assert!(
        first.taint_runs <= first.misses,
        "taint runs only on the dex subset of unique binaries"
    );

    // Second sweep over the same corpus: all lookups must hit.
    let _ = pipeline.run(&corpus);
    let second = pipeline.cache_stats();
    assert_eq!(
        second.sig_builds, first.sig_builds,
        "re-sweep must not rebuild any signature"
    );
    assert_eq!(
        second.taint_runs, first.taint_runs,
        "re-sweep must not re-run taint analysis"
    );
    assert_eq!(second.misses, first.misses, "re-sweep must not miss");
    assert!(second.hits > first.hits, "re-sweep lookups must all hit");
    assert_eq!(second.entries, first.entries);
}

/// The disabled cache recomputes every lookup and stores nothing.
#[test]
fn disabled_cache_recomputes_every_lookup() {
    let corpus = tiny_corpus();
    let pipeline = Pipeline::new(uncached_config());

    let _ = pipeline.run(&corpus);
    let stats = pipeline.cache_stats();
    assert_eq!(stats.hits, 0, "disabled cache must never hit");
    assert_eq!(stats.entries, 0, "disabled cache must store nothing");
    assert_eq!(
        stats.sig_builds, stats.misses,
        "disabled cache still builds one signature per lookup"
    );
}
