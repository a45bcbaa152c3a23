//! Campaign specifications: what to inject, how much, and how the work is
//! sharded for deterministic parallel execution.

use hpmp_memsim::SplitMix64;
use hpmp_penglai::TeeFlavor;

/// One class of injected fault (§2 of the threat model in DESIGN.md).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Bit flips in root/leaf pmptes resident in simulated DRAM.
    PmpteFlip,
    /// Corruption of PMP `addr`/`config` registers, including illegal
    /// T-bit/mode encodings.
    RegCorrupt,
    /// Suppressed TLB/PMPTW-cache invalidations after a monitor remap.
    StaleCache,
    /// A monitor interposition point that fires but whose register
    /// reprogramming is lost (dropped CSR writes on a domain switch).
    Interpose,
    /// A fault landing in the middle of a segment-compaction pass: one
    /// region already relocated, the rest pending, and then a pmpte flip
    /// (table flavours) or register corruption (PMP flavour) hits before
    /// the pass resumes.
    CompactRace,
}

impl FaultClass {
    /// Every class, in canonical order.
    pub(crate) const ALL: [FaultClass; 5] = [
        FaultClass::PmpteFlip,
        FaultClass::RegCorrupt,
        FaultClass::StaleCache,
        FaultClass::Interpose,
        FaultClass::CompactRace,
    ];

    /// Stable short key used in spec strings, counters and JSONL records.
    pub(crate) fn key(self) -> &'static str {
        match self {
            FaultClass::PmpteFlip => "pmpte",
            FaultClass::RegCorrupt => "regs",
            FaultClass::StaleCache => "stale",
            FaultClass::Interpose => "interpose",
            FaultClass::CompactRace => "compact",
        }
    }

    fn from_key(key: &str) -> Option<FaultClass> {
        FaultClass::ALL.iter().copied().find(|c| c.key() == key)
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// A parsed `--fault-campaign` specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Which TEE flavour to boot the monitor as.
    pub flavor: TeeFlavor,
    /// Fault classes to draw from, in canonical order, deduplicated.
    pub classes: Vec<FaultClass>,
    /// Total number of fault trials across all shards.
    pub faults: u64,
    /// Number of enclave domains (the host always exists on top).
    pub domains: u32,
    /// Number of independent shards the campaign is split into. The shard
    /// count is part of the spec — not derived from `--jobs` — so the same
    /// seed yields byte-identical output at any parallelism.
    pub shards: u64,
}

impl Default for CampaignSpec {
    fn default() -> CampaignSpec {
        CampaignSpec {
            flavor: TeeFlavor::PenglaiHpmp,
            classes: FaultClass::ALL.to_vec(),
            faults: 200,
            domains: 2,
            shards: 8,
        }
    }
}

impl CampaignSpec {
    /// Parses a spec string of comma-separated `key=value` pairs, e.g.
    /// `faults=1000,classes=pmpte+regs+stale+interpose,flavor=hpmp,domains=2,shards=8`.
    /// Unset keys take the defaults above; `classes=all` selects every class.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown keys, unknown class or
    /// flavour names, and zero counts.
    pub fn parse(s: &str) -> Result<CampaignSpec, String> {
        let mut spec = CampaignSpec::default();
        for pair in s.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got `{pair}`"))?;
            match key.trim() {
                "flavor" => {
                    spec.flavor = match value.trim() {
                        "pmp" => TeeFlavor::PenglaiPmp,
                        "pmpt" => TeeFlavor::PenglaiPmpt,
                        "hpmp" => TeeFlavor::PenglaiHpmp,
                        other => return Err(format!("unknown flavor `{other}`")),
                    }
                }
                "classes" => {
                    if value.trim() == "all" {
                        spec.classes = FaultClass::ALL.to_vec();
                    } else {
                        let mut picked = Vec::new();
                        for name in value.split('+') {
                            let class = FaultClass::from_key(name.trim())
                                .ok_or_else(|| format!("unknown fault class `{name}`"))?;
                            if !picked.contains(&class) {
                                picked.push(class);
                            }
                        }
                        // Canonical order regardless of spelling order.
                        spec.classes = FaultClass::ALL
                            .iter()
                            .copied()
                            .filter(|c| picked.contains(c))
                            .collect();
                    }
                }
                "faults" => {
                    spec.faults = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad faults count `{value}`"))?
                }
                "domains" => {
                    spec.domains = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad domains count `{value}`"))?
                }
                "shards" => {
                    spec.shards = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad shards count `{value}`"))?
                }
                other => return Err(format!("unknown campaign key `{other}`")),
            }
        }
        if spec.faults == 0 {
            return Err("faults must be > 0".into());
        }
        if spec.shards == 0 {
            return Err("shards must be > 0".into());
        }
        if spec.domains == 0 {
            return Err("domains must be > 0 (stale-cache faults target enclaves)".into());
        }
        if spec.domains > 8 {
            return Err("domains must be <= 8 (PMP flavour register-file budget)".into());
        }
        if spec.classes.is_empty() {
            return Err("classes must not be empty".into());
        }
        if spec.effective_classes().is_empty() {
            return Err("pmpte faults need a table-backed flavor (pmpt or hpmp)".into());
        }
        Ok(spec)
    }

    /// The classes that can actually be exercised under this flavour: the
    /// PMP flavour has no permission tables, so pmpte flips are dropped.
    pub fn effective_classes(&self) -> Vec<FaultClass> {
        self.classes
            .iter()
            .copied()
            .filter(|&c| c != FaultClass::PmpteFlip || self.flavor != TeeFlavor::PenglaiPmp)
            .collect()
    }

    /// Canonical spec string (round-trips through [`CampaignSpec::parse`]).
    pub fn canonical(&self) -> String {
        let flavor = match self.flavor {
            TeeFlavor::PenglaiPmp => "pmp",
            TeeFlavor::PenglaiPmpt => "pmpt",
            TeeFlavor::PenglaiHpmp => "hpmp",
        };
        let classes: Vec<&str> = self.classes.iter().map(|c| c.key()).collect();
        format!(
            "flavor={},classes={},faults={},domains={},shards={}",
            flavor,
            classes.join("+"),
            self.faults,
            self.domains,
            self.shards
        )
    }

    /// Trials assigned to `shard`: the total split as evenly as possible,
    /// with the remainder spread over the lowest-numbered shards.
    pub fn shard_trials(&self, shard: u64) -> u64 {
        let base = self.faults / self.shards;
        let extra = self.faults % self.shards;
        base + u64::from(shard < extra)
    }

    /// The RNG seed for `shard`, derived by advancing a [`SplitMix64`]
    /// stream seeded from the campaign seed. Each shard gets an independent
    /// stream; the derivation depends only on `(campaign_seed, shard)`, so
    /// shards can run in any order on any number of threads.
    pub(crate) fn shard_seed(campaign_seed: u64, shard: u64) -> u64 {
        let mut stream = SplitMix64::seed_from_u64(campaign_seed);
        let mut seed = stream.next_u64();
        for _ in 0..shard {
            seed = stream.next_u64();
        }
        seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_defaults_and_roundtrip() {
        let spec = CampaignSpec::parse("").expect("empty spec");
        assert_eq!(spec, CampaignSpec::default());
        let full = CampaignSpec::parse("faults=1000,classes=all,flavor=pmpt,domains=3,shards=16")
            .expect("full spec");
        assert_eq!(full.faults, 1000);
        assert_eq!(full.flavor, TeeFlavor::PenglaiPmpt);
        assert_eq!(full.domains, 3);
        assert_eq!(full.shards, 16);
        assert_eq!(CampaignSpec::parse(&full.canonical()).expect("canon"), full);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(CampaignSpec::parse("faults=0").is_err());
        assert!(CampaignSpec::parse("shards=0").is_err());
        assert!(CampaignSpec::parse("domains=0").is_err());
        assert!(CampaignSpec::parse("classes=bogus").is_err());
        assert!(CampaignSpec::parse("flavor=keystone").is_err());
        assert!(CampaignSpec::parse("nonsense").is_err());
        assert!(CampaignSpec::parse("classes=pmpte,flavor=pmp").is_err());
    }

    #[test]
    fn classes_are_canonicalised() {
        let spec = CampaignSpec::parse("classes=stale+pmpte+stale").expect("spec");
        assert_eq!(
            spec.classes,
            vec![FaultClass::PmpteFlip, FaultClass::StaleCache]
        );
    }

    #[test]
    fn pmp_flavor_drops_pmpte_class() {
        let spec = CampaignSpec::parse("flavor=pmp").expect("spec");
        assert!(!spec.effective_classes().contains(&FaultClass::PmpteFlip));
        assert_eq!(spec.effective_classes().len(), 4);
    }

    #[test]
    fn shard_split_covers_total() {
        let spec = CampaignSpec::parse("faults=103,shards=8").expect("spec");
        let total: u64 = (0..8).map(|s| spec.shard_trials(s)).sum();
        assert_eq!(total, 103);
        assert_eq!(spec.shard_trials(0), 13);
        assert_eq!(spec.shard_trials(7), 12);
    }

    #[test]
    fn shard_seeds_are_stable_and_distinct() {
        let a = CampaignSpec::shard_seed(42, 3);
        assert_eq!(a, CampaignSpec::shard_seed(42, 3));
        assert_ne!(a, CampaignSpec::shard_seed(42, 4));
        assert_ne!(a, CampaignSpec::shard_seed(43, 3));
    }
}
