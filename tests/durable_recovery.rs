//! Property tests for the framed durable-record format: arbitrary record
//! streams survive arbitrary truncation and single-bit corruption without
//! ever being mis-parsed — the scanner recovers exactly the intact prefix
//! and detects (never silently accepts) the first damaged frame. The
//! JSON those frames carry round-trips any string through the vendored
//! `serde_json` shim. The slicing-by-8 CRC32 the frames carry agrees
//! with the plain bytewise table loop at every length and alignment.

use dydroid::durable::{crc32, encode_frame, encode_frames, scan_stream};
use proptest::prelude::*;
use serde_json::Value;

/// Arbitrary single-line JSON record bodies, the payload shape every
/// persistent stream (journal, ledger, events) writes.
fn bodies_from(fields: &[(u32, u8)]) -> Vec<String> {
    fields
        .iter()
        .map(|(a, b)| format!("{{\"app\":\"com.p{a}\",\"flows\":{b}}}"))
        .collect()
}

/// Byte offset where frame `k` of the encoded stream ends.
fn frame_boundary(start_seq: u64, bodies: &[String], k: usize) -> usize {
    bodies
        .iter()
        .take(k)
        .enumerate()
        .map(|(i, b)| encode_frame(start_seq + i as u64, b).len())
        .sum()
}

/// Reference CRC32: the classic one-byte-per-step table loop.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *slot = c;
    }
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// `len + 8` pseudo-random bytes from `seed` (xorshift64).
fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len + 8)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

#[test]
fn crc32_matches_the_bytewise_loop_at_short_lengths_and_every_offset() {
    let bytes = noise(0x5eed, 80);
    for offset in 0..8 {
        for len in 0..=72 {
            let slice = &bytes[offset..offset + len];
            assert_eq!(
                crc32(slice),
                crc32_bytewise(slice),
                "len {len} at +{offset}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The slicing-by-8 CRC32 equals the bytewise reference for any
    /// input of 0–4096 bytes starting at any alignment.
    #[test]
    fn crc32_matches_the_bytewise_loop(
        seed in any::<u64>(),
        len in 0usize..4097,
        offset in 0usize..8,
    ) {
        let bytes = noise(seed, len);
        let slice = &bytes[offset..offset + len];
        prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
    }

    /// A freshly encoded stream round-trips losslessly and scans clean.
    /// (A whole valid stream always numbers its frames 0..n.)
    #[test]
    fn encoded_streams_round_trip(
        fields in prop::collection::vec((any::<u32>(), any::<u8>()), 0..12),
    ) {
        let bodies = bodies_from(&fields);
        let encoded = encode_frames(0, &bodies);
        let scan = scan_stream(encoded.as_bytes());
        prop_assert!(scan.is_clean(), "clean stream must scan clean: {:?}", scan.defect);
        prop_assert_eq!(&scan.bodies, &bodies);
        prop_assert_eq!(scan.dropped, 0);
        prop_assert_eq!(scan.next_seq, bodies.len() as u64);
        prop_assert_eq!(scan.valid_len as usize, encoded.len());
    }

    /// Truncating the stream at any byte offset recovers exactly the
    /// frames wholly before the cut; the torn tail is detected, never
    /// parsed into a record.
    #[test]
    fn truncation_recovers_the_intact_prefix(
        fields in prop::collection::vec((any::<u32>(), any::<u8>()), 0..12),
        at in any::<prop::sample::Index>(),
    ) {
        let bodies = bodies_from(&fields);
        let encoded = encode_frames(0, &bodies);
        let cut = at.index(encoded.len() + 1);
        let scan = scan_stream(&encoded.as_bytes()[..cut]);

        // The number of frames that fit entirely within the cut.
        let intact = (0..=bodies.len())
            .rev()
            .find(|&k| frame_boundary(0, &bodies, k) <= cut)
            .unwrap();
        prop_assert_eq!(scan.bodies.len(), intact);
        prop_assert_eq!(&scan.bodies, &bodies[..intact].to_vec());
        prop_assert_eq!(scan.valid_len as usize, frame_boundary(0, &bodies, intact));
        let at_boundary = cut == scan.valid_len as usize;
        prop_assert_eq!(scan.is_clean(), at_boundary);

        // The valid prefix the scanner reports is itself a clean stream,
        // so truncating a file back to `valid_len` fully repairs it.
        let rescan = scan_stream(&encoded.as_bytes()[..scan.valid_len as usize]);
        prop_assert!(rescan.is_clean());
        prop_assert_eq!(&rescan.bodies, &scan.bodies);
    }

    /// Flipping any single bit anywhere in the stream is always detected:
    /// every frame before the damaged one is recovered verbatim, and the
    /// damaged frame is dropped rather than accepted with altered content.
    #[test]
    fn single_bit_flips_never_mis_parse(
        fields in prop::collection::vec((any::<u32>(), any::<u8>()), 1..12),
        at in any::<prop::sample::Index>(),
        bit in 0u32..8,
    ) {
        let bodies = bodies_from(&fields);
        let mut encoded = encode_frames(0, &bodies).into_bytes();
        let idx = at.index(encoded.len());
        encoded[idx] ^= 1 << bit;
        let scan = scan_stream(&encoded);

        // The frame whose bytes contain the flip.
        let flipped = (0..bodies.len())
            .find(|&k| idx < frame_boundary(0, &bodies, k + 1))
            .unwrap();
        prop_assert!(!scan.is_clean(), "bit flip at byte {idx} went undetected");
        prop_assert_eq!(scan.bodies.len(), flipped);
        prop_assert_eq!(&scan.bodies, &bodies[..flipped].to_vec());
        prop_assert_eq!(scan.valid_len as usize, frame_boundary(0, &bodies, flipped));
    }

    /// Any string survives `to_string` then `from_str`: multi-byte
    /// UTF-8 runs, the escapes the encoder writes (quote, backslash,
    /// newline, tab, other control characters as `\u00XX`), and the
    /// plain runs between them.
    #[test]
    fn json_strings_round_trip(
        s in "[a-z0-9 \"\\\\/\n\r\t\u{1}\u{8}\u{c}\u{1f}é߿ࠀ中\u{fffd}😀\u{10ffff}]{0,48}",
    ) {
        let text = serde_json::to_string(&Value::Str(s.clone())).expect("encode");
        let back: Value = serde_json::from_str(&text).expect("decode");
        prop_assert_eq!(back, Value::Str(s));
    }
}
