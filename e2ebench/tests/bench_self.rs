//! Tests of the benchmark's own machinery: corpus determinism, span
//! self-time accounting and the report digest check.

use dydroid::{Pipeline, PipelineConfig};
use dydroid_e2ebench::{
    corpus_digest, layer_totals, self_times_ns, tables_json, Digest, DigestCheck, DigestTable, Span,
};
use dydroid_workload::{generate, CorpusSpec};

fn corpus(seed: u64) -> Vec<dydroid_workload::SyntheticApp> {
    generate(&CorpusSpec { scale: 0.002, seed })
}

#[test]
fn a_seed_always_gives_the_same_corpus_and_seeds_differ() {
    let a = corpus_digest(&corpus(7));
    assert_eq!(a, corpus_digest(&corpus(7)));
    assert_ne!(a, corpus_digest(&corpus(8)));
    assert!(a.bytes > 0);
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        app: None,
    }
}

#[test]
fn self_time_subtracts_what_children_cover() {
    // root [0, 100)
    //   app [10, 90)
    //     decompile [20, 40)
    //       inner [25, 30)
    //     monkey [35, 60)   overlaps decompile by 5; counted once in app
    //     late [85, 95)     reaches past app's end; only [85, 90) counts
    //   tail [95, 100)
    let spans = vec![
        span("root", 0, 100, None),
        span("app", 10, 90, Some(0)),
        span("decompile", 20, 40, Some(1)),
        span("inner", 25, 30, Some(2)),
        span("monkey", 35, 60, Some(1)),
        span("late", 85, 95, Some(1)),
        span("tail", 95, 100, Some(0)),
    ];
    assert_eq!(self_times_ns(&spans), vec![15, 35, 15, 5, 25, 10, 5]);
    let totals = layer_totals(&spans);
    assert_eq!(totals["decompile"].1, 1);
    assert!((totals["app"].0 - 35e-9).abs() < 1e-15);
}

#[test]
fn self_time_of_a_leaf_is_its_duration() {
    let spans = vec![span("leaf", 5, 12, None)];
    assert_eq!(self_times_ns(&spans), vec![7]);
}

#[test]
fn digest_check_rejects_a_one_byte_change() {
    let apps = corpus(3);
    let report = Pipeline::new(PipelineConfig {
        workers: 1,
        ..Default::default()
    })
    .run(&apps);
    let json = tables_json(&report, 0.002, 3);
    let table_text = format!(
        r#"{{"scale": 0.002, "seeds": {{"3": {}}}}}"#,
        Digest::of(json.as_bytes()).to_json().to_compact_string()
    );
    let table = DigestTable::parse(&table_text).expect("parse digest table");
    assert_eq!(table.scale(), 0.002);
    assert_eq!(table.check(3, &json), DigestCheck::Match);

    let mut bytes = json.clone().into_bytes();
    let at = bytes
        .iter()
        .position(|b| b.is_ascii_digit())
        .expect("a digit");
    bytes[at] = if bytes[at] == b'9' {
        b'8'
    } else {
        bytes[at] + 1
    };
    let changed = String::from_utf8(bytes).expect("ascii edit");
    assert!(matches!(
        table.check(3, &changed),
        DigestCheck::Mismatch { .. }
    ));

    assert_eq!(table.check(4, &json), DigestCheck::Uncommitted);
}
