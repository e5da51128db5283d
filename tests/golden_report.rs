//! Golden report anchor: a fixed-seed sweep's paper tables must hash to
//! the committed digests in `e2ebench/digests.json`.
//!
//! Every other byte-identity test compares two code paths of the same
//! build, so a change to shared code moves both sides together. This one
//! compares against committed bytes: the `tables --json` object (the
//! shape `e2ebench::tables_json` renders), hashed with FNV-1a-64 plus
//! its size. An intended change to the report regenerates the digests
//! with `e2ebench digests` and says why in CHANGES.md.

use std::path::PathBuf;
use std::sync::Arc;

use dydroid::{IoHarness, Journal, MeasurementReport, Pipeline, PipelineConfig};
use dydroid_workload::{generate, CorpusSpec, SyntheticApp};
use serde_json::Value;

const DIGESTS: &str = include_str!("../e2ebench/digests.json");

fn digests() -> Value {
    serde_json::from_str(DIGESTS).expect("digests.json parses")
}

fn scale() -> f64 {
    digests()["scale"].as_f64().expect("digests.json scale")
}

fn default_seed() -> u64 {
    digests()["default_seed"]
        .as_u64()
        .expect("digests.json default_seed")
}

/// The committed `(fnv64 hex, bytes)` entry for `seed`.
fn expected(seed: u64) -> (String, u64) {
    let d = digests();
    let entry = &d["seeds"][seed.to_string().as_str()];
    (
        entry["fnv64"].as_str().expect("fnv64").to_string(),
        entry["bytes"].as_u64().expect("bytes"),
    )
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn corpus(seed: u64) -> Vec<SyntheticApp> {
    generate(&CorpusSpec {
        scale: scale(),
        seed,
    })
}

fn config(workers: usize) -> PipelineConfig {
    PipelineConfig {
        workers,
        ..PipelineConfig::default()
    }
}

/// The report's paper tables as pretty JSON, as `tables --json` writes.
fn tables_json(report: &MeasurementReport, seed: u64) -> String {
    serde_json::json!({
        "scale": scale(),
        "seed": seed,
        "apps": report.records().len(),
        "table2": report.table2(),
        "table3": report.table3(),
        "table4": report.table4(),
        "table5": report.table5(),
        "table6": report.table6(),
        "figure3": report.figure3(),
        "table7": report.table7(),
        "table8": report.env_counts(),
        "table9": report.table9(),
        "table10": report.table10(),
    })
    .to_pretty_string()
}

fn assert_golden(report: &MeasurementReport, seed: u64) {
    let json = tables_json(report, seed);
    let actual = (
        format!("{:016x}", fnv64(json.as_bytes())),
        json.len() as u64,
    );
    assert_eq!(
        actual,
        expected(seed),
        "seed {seed}: report tables drifted from e2ebench/digests.json"
    );
}

#[test]
fn default_seed_in_memory_matches_committed_digest() {
    let seed = default_seed();
    let report = Pipeline::new(config(2)).run(&corpus(seed));
    assert_golden(&report, seed);
}

#[test]
fn seed_zero_in_memory_matches_committed_digest() {
    let report = Pipeline::new(config(2)).run(&corpus(0));
    assert_golden(&report, 0);
}

#[test]
fn default_seed_journaled_matches_committed_digest() {
    let seed = default_seed();
    let dir: PathBuf = std::env::temp_dir().join(format!("dydroid_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create journal dir");
    let journal = Journal::new(dir.join("sweep.jsonl"));
    journal.reset().expect("reset journal");
    let report = Pipeline::new(config(1))
        .run_resumable(&corpus(seed), &journal)
        .expect("journaled sweep");
    let _ = std::fs::remove_dir_all(&dir);
    assert_golden(&report, seed);
}

/// Write op at which the resume case kills its sweep. A default-seed
/// journaled sweep with 2 workers makes about 56,400 harness-routed
/// write ops, so this lands in its last quarter: most apps are
/// journaled, the shard streams hold them, and a torn tail is left
/// behind.
const RESUME_CRASH_AT_OP: u64 = 48_000;

#[test]
fn default_seed_resumed_after_crash_matches_committed_digest() {
    let seed = default_seed();
    let dir: PathBuf =
        std::env::temp_dir().join(format!("dydroid_golden_resume_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create journal dir");
    let journal = Journal::new(dir.join("sweep.jsonl"));
    journal.reset().expect("reset journal");
    let corpus = corpus(seed);

    let harness = IoHarness::new(Some(RESUME_CRASH_AT_OP), None);
    let mut crashing = Pipeline::new(config(2));
    crashing.set_io_harness(Arc::clone(&harness));
    crashing
        .run_resumable(&corpus, &journal)
        .expect("interrupted sweep still returns");
    assert!(
        harness.crashed(),
        "crash point {RESUME_CRASH_AT_OP} never fired ({} write ops)",
        harness.ops()
    );
    let shards = journal.discover_shards().expect("discover shards");

    let report = Pipeline::new(config(2))
        .run_resumable(&corpus, &journal)
        .expect("resumed sweep");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!shards.is_empty(), "the killed sweep left no shard streams");
    assert!(
        report.stats().recovered_records > 0,
        "recovery returned no records"
    );
    assert_golden(&report, seed);
}
