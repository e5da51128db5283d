//! Exact-equivalence property of the signature matcher: the inverted
//! block index with threshold pruning must return the same verdict —
//! same family, same score *bits* — as the naive quadratic scan, for
//! every training set, test binary, and threshold, including empty and
//! trivial (< 2 block) samples and scores sitting exactly on the
//! threshold boundary. The naive scan prunes nothing, and the index
//! never considers more samples than it.

use dydroid_analysis::{BinarySig, BlockSig, MalwareDetector};
use proptest::prelude::*;

/// A block from a deliberately tiny vocabulary, so training and test
/// multisets collide constantly and partial-overlap scores land on and
/// around every threshold.
fn block() -> impl Strategy<Value = BlockSig> {
    (0u64..12, 0u8..3).prop_map(|(pattern, out_degree)| BlockSig {
        pattern,
        out_degree,
    })
}

/// One training sample: may be empty or a single block (both are
/// excluded from matching by the trivial-sample guard).
fn sample() -> impl Strategy<Value = Vec<BlockSig>> {
    prop::collection::vec(block(), 0..9)
}

/// A family: up to four samples.
fn family() -> impl Strategy<Value = Vec<Vec<BlockSig>>> {
    prop::collection::vec(sample(), 0..4)
}

/// Thresholds hammer the exact boundary cases: 0 (everything matches,
/// even zero-score samples), 1 (only perfect containment), and values
/// that small block counts hit exactly (0.5 of 2, 0.75 of 4, 0.9 of 10).
fn threshold() -> impl Strategy<Value = f64> {
    prop::sample::select(vec![0.0, 0.25, 0.5, 0.75, 0.9, 1.0])
}

/// Checks the matcher counters after one detection on each of two
/// identically trained detectors: `indexed` ran `detect_sig`, `naive`
/// ran `detect_sig_naive`, and `matched` says whether a family matched.
fn check_stats(
    indexed: &MalwareDetector,
    naive: &MalwareDetector,
    matched: bool,
) -> Result<(), String> {
    let istats = indexed.stats();
    let nstats = naive.stats();
    // At a non-positive threshold even samples sharing no block pass the
    // bound, so they are scored (and can match) without being candidates.
    if indexed.threshold() > 0.0 {
        if matched {
            prop_assert!(istats.candidates > 0, "a match needs a candidate");
        }
        prop_assert!(
            istats.fully_scored <= istats.candidates,
            "scored candidates cannot exceed generated ones"
        );
    }
    prop_assert_eq!(nstats.pruned, 0, "naive scan must not prune");
    prop_assert!(
        nstats.candidates >= istats.candidates,
        "the index must not consider more samples than the naive scan"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexed_matches_naive_verdicts_exactly(
        families in prop::collection::vec(family(), 1..5),
        test_blocks in prop::collection::vec(block(), 0..14),
        thresh in threshold(),
    ) {
        let mut indexed = MalwareDetector::with_threshold(thresh);
        for (f, samples) in families.iter().enumerate() {
            let sigs = samples
                .iter()
                .map(|blocks| BinarySig::from_blocks(blocks.clone()))
                .collect();
            indexed.train_sigs(format!("family_{f}"), sigs);
        }
        let naive = indexed.clone();

        let test = BinarySig::from_blocks(test_blocks);
        let a = indexed.detect_sig(&test);
        let b = naive.detect_sig_naive(&test);
        check_stats(&indexed, &naive, a.is_some())?;
        match (&a, &b) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                prop_assert_eq!(&x.family, &y.family);
                prop_assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
            _ => prop_assert!(false, "indexed {:?} vs naive {:?}", a, b),
        }
    }

    #[test]
    fn threshold_boundary_scores_agree(
        base in prop::collection::vec(block(), 10..11),
        keep in 0usize..11,
    ) {
        // A 10-block sample probed with `keep` of its own blocks plus
        // filler: the score is exactly keep/10, so keep == 9 sits
        // precisely on the 0.9 default threshold.
        let mut indexed = MalwareDetector::with_threshold(0.9);
        indexed.train_sigs("fam", vec![BinarySig::from_blocks(base.clone())]);
        let naive = indexed.clone();

        let mut probe: Vec<BlockSig> = base.iter().take(keep.min(10)).copied().collect();
        probe.resize(
            10,
            BlockSig {
                pattern: u64::MAX,
                out_degree: 0,
            },
        );
        let test = BinarySig::from_blocks(probe);
        let a = indexed.detect_sig(&test);
        let b = naive.detect_sig_naive(&test);
        check_stats(&indexed, &naive, a.is_some())?;
        prop_assert_eq!(a.is_some(), b.is_some());
        if let (Some(x), Some(y)) = (&a, &b) {
            prop_assert_eq!(&x.family, &y.family);
            prop_assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }
}
