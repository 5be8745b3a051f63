//! Seeded fuzz sweep of the serialization formats: random byte mutations,
//! truncations and splices of `Schedule::to_bytes` (with and without an
//! attached prefetch plan) must never panic — every input either decodes
//! into *some* well-formed schedule or reports a typed [`BinaryError`] — and
//! the text `dump()` path survives the same treatment through `parse()`.
//! Whenever a corrupted input does decode, re-encoding it must round-trip,
//! i.e. the decoder never fabricates a schedule it cannot itself represent.
//!
//! This extends the fixed corruption cases of `binary_roundtrip.rs` with a
//! deterministic (seeded) randomized sweep across every builder's encoding.

mod common;

use common::builder_schedules;
use symla::prelude::*;
use symla_matrix::generate::seeded_rng;
use symla_sched::PrefetchPlan;

/// Decoding `bytes` must either fail with a typed error or produce a
/// schedule the encoder can reproduce exactly (no "unrepresentable"
/// schedules leak out of the decoder).
fn assert_decode_is_total(name: &str, tag: &str, bytes: &[u8]) {
    if let Ok(decoded) = Schedule::<f64>::from_bytes(bytes) {
        let reencoded = decoded.to_bytes();
        let again = Schedule::<f64>::from_bytes(&reencoded)
            .unwrap_or_else(|e| panic!("{name}/{tag}: re-encode of accepted input failed: {e}"));
        assert_eq!(again, decoded, "{name}/{tag}: accepted input round-trips");
    }
    // The plan-carrying decoder must be equally total on the same input.
    if let Ok((decoded, plan)) = Schedule::<f64>::from_bytes_with_plan(bytes) {
        let reencoded = match &plan {
            Some(p) => decoded.to_bytes_with_plan(p),
            None => decoded.to_bytes(),
        };
        let (again, plan_again) = Schedule::<f64>::from_bytes_with_plan(&reencoded)
            .unwrap_or_else(|e| panic!("{name}/{tag}: plan re-encode failed: {e}"));
        assert_eq!(again, decoded, "{name}/{tag}: plan path round-trips");
        assert_eq!(plan_again, plan, "{name}/{tag}: plan survives");
    }
}

/// Random single- and multi-byte mutations of every builder's encoding
/// never panic; accepted mutants round-trip.
#[test]
fn random_mutations_never_panic() {
    let mut rng = seeded_rng(0xF0221);
    for (name, schedule) in builder_schedules() {
        for bytes in [
            schedule.to_bytes(),
            schedule.to_bytes_with_plan(&PrefetchPlan::plan(&schedule, 2, Some(64))),
        ] {
            for round in 0..200 {
                let mut mutated = bytes.clone();
                // 1..=4 independent byte mutations per round.
                let hits = 1 + (rng.next_u64() % 4) as usize;
                for _ in 0..hits {
                    let pos = (rng.next_u64() % bytes.len() as u64) as usize;
                    mutated[pos] = rng.next_u64() as u8;
                }
                assert_decode_is_total(name, &format!("mutate round {round}"), &mutated);
            }
        }
    }
}

/// Random truncations (including to the empty input) and random-tail
/// extensions never panic; every strict truncation of a valid encoding that
/// still decodes must round-trip.
#[test]
fn random_truncations_and_extensions_never_panic() {
    let mut rng = seeded_rng(0xF0222);
    for (name, schedule) in builder_schedules() {
        let bytes = schedule.to_bytes();
        for round in 0..200 {
            let cut = (rng.next_u64() % (bytes.len() as u64 + 1)) as usize;
            assert_decode_is_total(name, &format!("truncate to {cut}"), &bytes[..cut]);

            let mut extended = bytes.clone();
            let tail = (rng.next_u64() % 16) as usize + 1;
            for _ in 0..tail {
                extended.push(rng.next_u64() as u8);
            }
            assert_decode_is_total(name, &format!("extend round {round}"), &extended);
        }
    }
}

/// Random splices — a window of one builder's encoding pasted into
/// another's — never panic. This is the shape of corruption a partial file
/// write or a cache collision would produce.
#[test]
fn random_splices_never_panic() {
    let mut rng = seeded_rng(0xF0223);
    let schedules = builder_schedules();
    let encodings: Vec<(&str, Vec<u8>)> = schedules
        .iter()
        .map(|(name, s)| (*name, s.to_bytes()))
        .collect();
    for round in 0..400 {
        let (a_name, a) = &encodings[(rng.next_u64() % encodings.len() as u64) as usize];
        let (_, b) = &encodings[(rng.next_u64() % encodings.len() as u64) as usize];
        let mut spliced = a.clone();
        let dst = (rng.next_u64() % a.len() as u64) as usize;
        let src = (rng.next_u64() % b.len() as u64) as usize;
        let len = (rng.next_u64() % 64) as usize + 1;
        for i in 0..len {
            if dst + i >= spliced.len() || src + i >= b.len() {
                break;
            }
            spliced[dst + i] = b[src + i];
        }
        assert_decode_is_total(a_name, &format!("splice round {round}"), &spliced);
    }
}

/// The leveled (container v2) encodings fuzz like the flat ones: random
/// mutations of every builder's tier-3 variant — which exercises the
/// leveled Load/Store TLV tags and the v2 text header — never panic, and
/// accepted mutants round-trip. Mutations that land on a level byte must
/// decode into *some* level (levels are total over `u8`), never panic.
#[test]
fn leveled_encodings_fuzz_like_flat_ones() {
    use symla_memory::Level;
    let mut rng = seeded_rng(0xF0225);
    for (name, schedule) in builder_schedules() {
        let leveled = schedule.with_transfer_level(Level::new(3));
        let bytes = leveled.to_bytes();
        let text = leveled.dump();
        for round in 0..150 {
            // Binary: 1..=4 byte mutations per round.
            let mut mutated = bytes.clone();
            let hits = 1 + (rng.next_u64() % 4) as usize;
            for _ in 0..hits {
                let pos = (rng.next_u64() % bytes.len() as u64) as usize;
                mutated[pos] = rng.next_u64() as u8;
            }
            assert_decode_is_total(name, &format!("leveled mutate round {round}"), &mutated);

            // Binary: random truncation.
            let cut = (rng.next_u64() % (bytes.len() as u64 + 1)) as usize;
            assert_decode_is_total(name, &format!("leveled truncate to {cut}"), &bytes[..cut]);

            // Text: mutate a handful of characters of the v2 dump. The
            // replacement alphabet includes `@` and `l` so the ` @l3`
            // suffixes themselves get corrupted, not just the step bodies.
            let mut chars: Vec<char> = text.chars().collect();
            for _ in 0..4 {
                let pos = (rng.next_u64() % chars.len() as u64) as usize;
                chars[pos] = b" 0123456789azAZ#:x,-@l"[(rng.next_u64() % 22) as usize] as char;
            }
            let mutated_text: String = chars.into_iter().collect();
            if let Ok(parsed) = Schedule::<f64>::parse(&mutated_text) {
                let redumped = parsed.dump();
                let again = Schedule::<f64>::parse(&redumped).unwrap_or_else(|e| {
                    panic!("{name}: leveled round {round}: accepted text failed to re-parse: {e}")
                });
                assert_eq!(
                    again, parsed,
                    "{name}: leveled round {round}: text round trip"
                );
            }
        }
    }
}

/// The text path is equally total: random character mutations, line drops,
/// line duplications and truncations of `dump()` either parse into a
/// schedule whose own dump re-parses, or report a typed parse error — never
/// a panic.
#[test]
fn text_dump_fuzz_never_panics() {
    let mut rng = seeded_rng(0xF0224);
    for (name, schedule) in builder_schedules() {
        let text = schedule.dump();
        let lines: Vec<&str> = text.lines().collect();
        for round in 0..200 {
            let mutated: String = match round % 4 {
                // Mutate a handful of characters.
                0 => {
                    let mut chars: Vec<char> = text.chars().collect();
                    for _ in 0..4 {
                        let pos = (rng.next_u64() % chars.len() as u64) as usize;
                        let replacement =
                            b" 0123456789azAZ#:x,-"[(rng.next_u64() % 20) as usize] as char;
                        chars[pos] = replacement;
                    }
                    chars.into_iter().collect()
                }
                // Drop a random line.
                1 => {
                    let drop = (rng.next_u64() % lines.len() as u64) as usize;
                    lines
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != drop)
                        .map(|(_, l)| *l)
                        .collect::<Vec<_>>()
                        .join("\n")
                }
                // Duplicate a random line in place.
                2 => {
                    let dup = (rng.next_u64() % lines.len() as u64) as usize;
                    let mut out: Vec<&str> = Vec::with_capacity(lines.len() + 1);
                    for (i, l) in lines.iter().enumerate() {
                        out.push(l);
                        if i == dup {
                            out.push(l);
                        }
                    }
                    out.join("\n")
                }
                // Truncate mid-character-stream.
                _ => {
                    let cut = (rng.next_u64() % (text.len() as u64 + 1)) as usize;
                    let mut cut = cut;
                    while !text.is_char_boundary(cut) {
                        cut -= 1;
                    }
                    text[..cut].to_string()
                }
            };
            if let Ok(parsed) = Schedule::<f64>::parse(&mutated) {
                let redumped = parsed.dump();
                let again = Schedule::<f64>::parse(&redumped).unwrap_or_else(|e| {
                    panic!("{name}: round {round}: accepted text failed to re-parse: {e}")
                });
                assert_eq!(again, parsed, "{name}: round {round}: text round trip");
            }
        }
    }
}
