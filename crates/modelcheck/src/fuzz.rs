//! Differential fuzz bodies for the `fuzz/` cargo-fuzz targets.
//!
//! The actual properties live here, in-tree, so they run in three ways:
//!
//! 1. As libFuzzer targets (`cargo fuzz run pmpte_decode`, …): the thin
//!    wrappers in `fuzz/fuzz_targets/` call straight into these functions.
//!    That layer needs the external `libfuzzer-sys` crate and a nightly
//!    toolchain, so it lives outside the workspace.
//! 2. As the deterministic corpus smoke ([`smoke`], driven by
//!    `hpmp-verify fuzz`): every committed seed is replayed, then a
//!    [`SplitMix64`]-derived mutation storm runs over them — no external
//!    dependency, byte-identical across runs, suitable for tier-1 CI.
//! 3. As plain unit tests below.
//!
//! Every body takes arbitrary bytes and must not panic; where the input
//! parses, the body asserts a differential property (an independent
//! reference implementation agrees, or a round-trip is the identity).

use hpmp_core::{table_pointer_decode, table_pointer_encode, LeafPmpte, MalformedPmpte, RootPmpte};
use hpmp_faults::CampaignSpec;
use hpmp_memsim::SplitMix64;
use hpmp_penglai::TeeFlavor;
use hpmp_trace::json::parse_json;
use hpmp_trace::{BenchReport, HostProfile, Snapshot, SpanStream, Timeline, TraceReader};

fn word(data: &[u8], offset: usize) -> u64 {
    let mut bytes = [0u8; 8];
    for (i, b) in bytes.iter_mut().enumerate() {
        *b = data.get(offset + i).copied().unwrap_or(0);
    }
    u64::from_le_bytes(bytes)
}

/// Independent reference for root-pmpte validation: bits 4–12 and 49–62
/// are reserved-zero, and the whole word must have even parity (the bit
/// positions are spelled out here from Figure 6-c rather than reusing the
/// production masks, so a mask typo in either side is a mismatch, not a
/// silently shared bug).
fn reference_root_decode(bits: u64) -> Result<(bool, u8, u64), MalformedPmpte> {
    let reserved = (0x1ffu64 << 4) | (0x3fffu64 << 49);
    if bits & reserved != 0 {
        return Err(MalformedPmpte::ReservedBits(bits));
    }
    if bits.count_ones() % 2 == 1 {
        return Err(MalformedPmpte::ParityMismatch(bits));
    }
    let valid = bits & 1 != 0;
    let rwx = ((bits >> 1) & 0x7) as u8;
    let ppn = (bits >> 13) & ((1u64 << 36) - 1);
    Ok((valid, rwx, ppn))
}

/// Independent reference for leaf-pmpte validation: each 4-bit nibble's
/// bit 3 must equal the parity of its three permission bits.
fn reference_leaf_ok(bits: u64) -> bool {
    (0..16).all(|i| {
        let nibble = (bits >> (i * 4)) & 0xf;
        let perms = nibble & 0x7;
        let parity = (nibble >> 3) & 1;
        parity == (perms.count_ones() as u64 & 1)
    })
}

/// Independent reference for the table-pointer register (Figure 6-b):
/// `Mode` in bits 63:62, where only `Mode = 0` (a 2-level table) is legal
/// and 1–3 are reserved; the root table's address is `PPN[43:0] << 12`.
fn reference_pointer_decode(reg: u64) -> Option<u64> {
    let mode = reg >> 62;
    let ppn = reg & ((1u64 << 44) - 1);
    (mode == 0).then_some(ppn << 12)
}

/// Fuzz body: pmpte decode must agree with the parity-checked reference
/// or reject fail-closed, and so must the table-pointer register decode.
/// The first 8 bytes are a root pmpte, the next 8 a leaf pmpte and the
/// next 8 a table-pointer register (missing bytes read as zero).
///
/// # Panics
///
/// Panics when production decode and the reference disagree, or when a
/// legal encoding fails to round-trip — each panic is a finding.
pub fn fuzz_pmpte_decode(data: &[u8]) {
    let root_bits = word(data, 0);
    match (
        RootPmpte::decode(root_bits),
        reference_root_decode(root_bits),
    ) {
        (Ok(entry), Ok((valid, rwx, ppn))) => {
            assert_eq!(entry.to_bits(), root_bits, "decode must be lossless");
            assert!(!entry.is_malformed());
            assert_eq!(entry.is_valid(), valid);
            if entry.is_huge() {
                assert_eq!(entry.perms().bits(), rwx, "huge perms disagree");
                assert_ne!(rwx, 0, "huge entry with empty perms");
            }
            if entry.is_pointer() {
                assert_eq!(rwx, 0, "pointer with perms set");
                assert_eq!(
                    entry.leaf_table().page_number(),
                    ppn,
                    "pointer PPN disagrees"
                );
            }
        }
        (Err(got), Err(want)) => {
            assert_eq!(got, want, "rejection reasons disagree");
            assert!(RootPmpte::from_bits(root_bits).is_malformed());
        }
        (got, want) => {
            panic!("root pmpte {root_bits:#018x}: production says {got:?}, reference says {want:?}")
        }
    }

    let leaf_bits = word(data, 8);
    let reference_ok = reference_leaf_ok(leaf_bits);
    match LeafPmpte::decode(leaf_bits) {
        Ok(entry) => {
            assert!(
                reference_ok,
                "leaf pmpte {leaf_bits:#018x} accepted but a nibble parity is bad"
            );
            assert_eq!(entry.to_bits(), leaf_bits);
            for i in 0..16 {
                let nibble = (leaf_bits >> (i * 4)) & 0x7;
                assert_eq!(u64::from(entry.perm(i).bits()), nibble);
                // Rewriting a page with its own permission is the identity.
                assert_eq!(entry.with_perm(i, entry.perm(i)), entry);
            }
        }
        Err(_) => {
            assert!(
                !reference_ok,
                "leaf pmpte {leaf_bits:#018x} rejected but every nibble parity is good"
            );
            assert!(LeafPmpte::from_bits(leaf_bits).is_malformed());
        }
    }

    let pointer = word(data, 16);
    let root = table_pointer_decode(pointer);
    assert_eq!(
        root.map(|root| root.raw()),
        reference_pointer_decode(pointer),
        "table pointer {pointer:#018x}: production and reference decode disagree"
    );
    if let Some(root) = root {
        // Re-encoding keeps the PPN, writes `Mode = 0` and clears bits 61:44.
        let legal = pointer & ((1u64 << 44) - 1);
        assert_eq!(table_pointer_encode(root), legal, "pointer re-encode");
    }
}

/// Fuzz body: `CampaignSpec` parsing must never panic, and any spec that
/// parses must survive parse → canonical → parse as the identity.
pub fn fuzz_campaign_spec(data: &[u8]) {
    let text = String::from_utf8_lossy(data);
    if let Ok(spec) = CampaignSpec::parse(&text) {
        let canon = spec.canonical();
        let again = CampaignSpec::parse(&canon)
            .unwrap_or_else(|e| panic!("canonical `{canon}` must reparse: {e}"));
        assert_eq!(again, spec, "canonical round-trip must be the identity");
        assert_eq!(again.canonical(), canon, "canonical must be a fixed point");
        // Derived quantities must hold on anything that parses.
        let total: u64 = (0..spec.shards).map(|s| spec.shard_trials(s)).sum();
        assert_eq!(total, spec.faults, "shard split must cover the total");
        if spec.flavor == TeeFlavor::PenglaiPmp {
            assert!(
                !spec
                    .effective_classes()
                    .contains(&hpmp_faults::FaultClass::PmpteFlip),
                "PMP flavour must drop pmpte flips"
            );
        }
    }
}

/// Fuzz body: every versioned JSON reader must reject arbitrary bytes
/// with a typed error, never a panic.
pub fn fuzz_json_readers(data: &[u8]) {
    let text = String::from_utf8_lossy(data);
    let _ = parse_json(&text);
    let _ = Snapshot::from_json(&text);
    let _ = BenchReport::from_json(&text);
    let _ = HostProfile::from_json(&text);
    let _ = SpanStream::parse(data);
    let _ = Timeline::parse(data);
    if let Ok(mut reader) = TraceReader::new(data) {
        let _ = reader.read_all();
    }
}

/// A fuzz body: takes arbitrary bytes, panics on a property violation.
pub type FuzzBody = fn(&[u8]);

/// The three fuzz targets, by the name `cargo fuzz` knows them under.
pub const TARGETS: [(&str, FuzzBody); 3] = [
    ("pmpte_decode", fuzz_pmpte_decode),
    ("campaign_spec", fuzz_campaign_spec),
    ("json_readers", fuzz_json_readers),
];

/// Outcome of one deterministic corpus smoke run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SmokeReport {
    /// Committed seeds replayed.
    pub seeds: usize,
    /// Mutated inputs generated and executed.
    pub mutations: usize,
}

/// Deterministic corpus smoke: replays every seed in `corpus` through
/// `body`, then runs `iters` mutations — each derived from a seed (or from
/// empty input when the corpus is empty) by [`SplitMix64`]-driven byte
/// flips, truncation and extension, exactly reproducible from `seed`.
///
/// This is the dependency-free stand-in the CI smoke job runs on stable;
/// `cargo fuzz run` drives the same bodies coverage-guided when a nightly
/// toolchain and `libfuzzer-sys` are available.
///
/// # Panics
///
/// Panics when the body panics — i.e. when a property fails.
pub fn smoke(body: fn(&[u8]), corpus: &[Vec<u8>], iters: usize, seed: u64) -> SmokeReport {
    for input in corpus {
        body(input);
    }
    let mut rng = SplitMix64::seed_from_u64(seed);
    for _ in 0..iters {
        let mut input = if corpus.is_empty() {
            Vec::new()
        } else {
            corpus[rng.gen_range(0..corpus.len() as u64) as usize].clone()
        };
        for _ in 0..rng.gen_range(1..8) {
            match rng.gen_range(0..4) {
                // Flip one bit.
                0 if !input.is_empty() => {
                    let i = rng.gen_range(0..input.len() as u64) as usize;
                    input[i] ^= 1 << rng.gen_range(0..8);
                }
                // Overwrite one byte.
                1 if !input.is_empty() => {
                    let i = rng.gen_range(0..input.len() as u64) as usize;
                    input[i] = rng.gen_range(0..256) as u8;
                }
                // Truncate.
                2 if !input.is_empty() => {
                    let i = rng.gen_range(0..input.len() as u64) as usize;
                    input.truncate(i);
                }
                // Append a few bytes.
                _ => {
                    for _ in 0..rng.gen_range(1..9) {
                        input.push(rng.gen_range(0..256) as u8);
                    }
                }
            }
        }
        body(&input);
    }
    SmokeReport {
        seeds: corpus.len(),
        mutations: iters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Legal encodings must pass the differential check.
    #[test]
    fn legal_pmptes_pass_the_differential_body() {
        use hpmp_memsim::{Perms, PhysAddr};
        let mut data = [0u8; 24];
        let pointer = table_pointer_encode(PhysAddr::new(0x8040_0000));
        data[16..].copy_from_slice(&pointer.to_le_bytes());
        for root in [
            RootPmpte::INVALID,
            RootPmpte::pointer(PhysAddr::new(0x8040_0000)),
            RootPmpte::huge(Perms::RW),
            RootPmpte::huge(Perms::RWX),
        ] {
            data[..8].copy_from_slice(&root.to_bits().to_le_bytes());
            for leaf in [
                LeafPmpte::splat(Perms::NONE),
                LeafPmpte::splat(Perms::RW).with_perm(3, Perms::RX),
            ] {
                data[8..16].copy_from_slice(&leaf.to_bits().to_le_bytes());
                fuzz_pmpte_decode(&data);
            }
        }
    }

    #[test]
    fn bodies_survive_a_mutation_storm() {
        let corpora: [Vec<Vec<u8>>; 3] = [
            vec![vec![0u8; 16], vec![0xff; 16]],
            vec![b"faults=10,shards=2".to_vec(), b"flavor=pmp".to_vec()],
            vec![b"{\"a\":1}".to_vec(), b"[]".to_vec()],
        ];
        for ((_, body), corpus) in TARGETS.into_iter().zip(corpora) {
            let report = smoke(body, &corpus, 500, 0x5eed);
            assert_eq!(report.mutations, 500);
        }
    }

    #[test]
    fn smoke_is_deterministic() {
        let body = fuzz_json_readers;
        let a = smoke(body, &[b"x".to_vec()], 50, 7);
        let b = smoke(body, &[b"x".to_vec()], 50, 7);
        assert_eq!(a, b);
    }
}
