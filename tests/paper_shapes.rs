//! The claims table: every asserted shape claim of EXPERIMENTS.md (E1–E12)
//! as one row over the values the `repro` experiments return — the same
//! runs, with the same parameters, that `ci/REPRO_all.txt` pins. A row
//! names its experiment id, the claim, the measured value and the band the
//! value must fall in, so a re-pin that moves a claim fails that row by
//! name. A known deviation from the paper is a row too, marked as one: it
//! pins today's number rather than hiding it.

use hpmp_bench::experiments::{Experiment, Outcome, Values};
use hpmp_bench::run_ordered;
use hpmp_suite::analyze::{EventRefs, PAPER_REFS};
use hpmp_suite::machine::{RefBreakdown, VirtRefBreakdown};
use hpmp_suite::memsim::{AccessKind, CoreKind};
use hpmp_suite::trace::NullSink;
use hpmp_suite::workloads::frag::VaLayout;
use hpmp_suite::workloads::latency::{TestCase, VirtCase};
use hpmp_suite::workloads::lmbench::Syscall;
use hpmp_suite::workloads::smp::SmpTelemetrySpec;
use std::sync::OnceLock;

/// One claim: where it comes from, what it says, what was measured and
/// the inclusive band the measurement must fall in.
struct Claim {
    id: &'static str,
    claim: String,
    measured: f64,
    band: (f64, f64),
}

/// Bands for "strictly positive margin" and "no upper bound".
const POSITIVE: f64 = 1e-9;
const NONE: f64 = f64::INFINITY;

fn row(id: &'static str, claim: impl Into<String>, measured: f64, band: (f64, f64)) -> Claim {
    Claim {
        id,
        claim: claim.into(),
        measured,
        band,
    }
}

fn min(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

fn max(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::NEG_INFINITY, f64::max)
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The paper's row for `scheme`, native or virtualized.
fn paper(scheme: &str, virtualized: bool) -> EventRefs {
    PAPER_REFS
        .iter()
        .find(|row| row.scheme == scheme && row.refs.is_virtualized() == virtualized)
        .unwrap_or_else(|| panic!("PAPER_REFS has no {scheme} row"))
        .refs
}

/// Rows for one measured reference split against the paper's.
fn refs_rows(id: &'static str, scheme: &str, measured: [u64; 4], expected: [u64; 4]) -> Vec<Claim> {
    let names = [
        "total",
        "pmpte for (nested) PT pages",
        "pmpte for guest-PT pages",
        "pmpte for data",
    ];
    names
        .iter()
        .zip(measured.iter().zip(expected))
        .map(|(name, (&m, e))| {
            row(
                id,
                format!("{scheme}: {name} = {e}"),
                m as f64,
                (e as f64, e as f64),
            )
        })
        .collect()
}

fn native_split(refs: &RefBreakdown) -> [u64; 4] {
    [refs.total(), refs.pmpte_for_pt, 0, refs.pmpte_for_data]
}

fn virt_split(refs: &VirtRefBreakdown) -> [u64; 4] {
    [
        refs.total(),
        refs.pmpte_for_npt,
        refs.pmpte_for_gpt,
        refs.pmpte_for_data,
    ]
}

fn paper_split(refs: &EventRefs) -> [u64; 4] {
    [
        refs.total(),
        refs.pmpte_for_pt + refs.pmpte_for_npt,
        refs.pmpte_for_gpt,
        refs.pmpte_for_data,
    ]
}

/// Every claim row the experiments' values support.
fn claims(outcome: &Outcome) -> Vec<Claim> {
    let mut rows = Vec::new();
    match &outcome.values {
        Values::Refs(schemes) => {
            for (scheme, refs) in schemes {
                let label = scheme.to_string();
                let paper_name = if label == "PMPT" { "PMP Table" } else { &label };
                let expected = paper_split(&paper(paper_name, false));
                rows.extend(refs_rows("E1.refs", &label, native_split(refs), expected));
            }
        }
        Values::Latency(panels) => {
            let walking = || {
                panels
                    .iter()
                    .flat_map(|(_, _, rows)| rows.iter().filter(|r| r.case != TestCase::Tc4))
            };
            let case = |case| {
                panels
                    .iter()
                    .flat_map(move |(_, _, rows)| rows.iter().filter(move |r| r.case == case))
            };
            rows.push(row(
                "E2.order",
                "PMPT > HPMP > PMP on every walking case (smallest margin, cycles)",
                min(walking().map(|r| {
                    r.pmpt
                        .saturating_sub(r.hpmp)
                        .min(r.hpmp.saturating_sub(r.pmp)) as f64
                })),
                (1.0, NONE),
            ));
            rows.push(row(
                "E2.tc4",
                "TC4 identical across schemes (largest spread, cycles)",
                max(case(TestCase::Tc4).map(|r| {
                    (r.pmpt.max(r.hpmp).max(r.pmp) - r.pmpt.min(r.hpmp).min(r.pmp)) as f64
                })),
                (0.0, 0.0),
            ));
            rows.push(row(
                "E2.mitigation",
                "HPMP mitigation, lowest over walking cases (paper: 23.1% BOOM)",
                min(walking().map(|r| r.mitigation())),
                (0.231, 1.0),
            ));
            rows.push(row(
                "E2.mitigation",
                "HPMP mitigation, highest over walking cases",
                max(walking().map(|r| r.mitigation())),
                (0.0, 1.0),
            ));
            let tc1 = |core, op| {
                let (.., rows) = panels
                    .iter()
                    .find(|(c, o, _)| *c == core && *o == op)
                    .expect("panel");
                rows[0]
            };
            rows.push(row(
                "E2.sd-ld",
                "sd > ld on the cold walk, TC1 (smallest margin, cycles)",
                min([CoreKind::Rocket, CoreKind::Boom]
                    .into_iter()
                    .flat_map(|core| {
                        let (ld, sd) = (tc1(core, AccessKind::Read), tc1(core, AccessKind::Write));
                        [sd.pmpt - ld.pmpt, sd.hpmp - ld.hpmp, sd.pmp - ld.pmp].map(|d| d as f64)
                    })),
                (1.0, NONE),
            ));
            let tc2 = || case(TestCase::Tc2).map(|r| r.mitigation());
            for (which, measured) in [("lowest", min(tc2())), ("highest", max(tc2()))] {
                rows.push(row(
                    "E2.tc2-deviation",
                    format!("known deviation: TC2 mitigation is 75% on every panel ({which}), since every pmpte hits the L2 alike"),
                    measured,
                    (0.75, 0.75),
                ));
            }
            let cells = |tc| case(tc).flat_map(|r| [r.pmpt, r.hpmp, r.pmp]);
            rows.push(row(
                "E2.tc3-deviation",
                "known deviation: TC3 costs more than TC2 in 11 of the 12 (panel, scheme) cells; only Rocket ld PMPT falls",
                cells(TestCase::Tc2)
                    .zip(cells(TestCase::Tc3))
                    .filter(|(tc2, tc3)| tc3 > tc2)
                    .count() as f64,
                (11.0, 11.0),
            ));
        }
        Values::Syscalls(syscalls) => {
            let ratio = |i: usize, j: usize| -> Vec<f64> {
                syscalls
                    .iter()
                    .map(|(_, c)| c[i] as f64 / c[j] as f64)
                    .collect()
            };
            rows.push(row(
                "E4.average",
                "PMPT/HPMP averaged over the syscall mix (paper: 128.43%)",
                mean(&ratio(1, 2)),
                (1.10, 1.45),
            ));
            rows.push(row(
                "E4.hpmp-pmp",
                "HPMP/PMP averaged over the syscall mix: HPMP tracks PMP",
                mean(&ratio(2, 0)),
                (1.0, 1.12),
            ));
            let null = syscalls
                .iter()
                .find(|(s, _)| *s == Syscall::Null)
                .expect("null row")
                .1;
            rows.push(row(
                "E4.null",
                "null costs the same under every flavour (PMPT/PMP)",
                null[1] as f64 / null[0] as f64,
                (1.0, 1.0),
            ));
        }
        Values::Serverless { functions, chain } => {
            rows.push(row(
                "E6.recovery",
                "HPMP recovers most of PMPT's FunctionBench overhead (lowest (PMPT-HPMP)/(PMPT-PMP), both cores)",
                min(functions.iter().map(|(_, _, [pmp, pmpt, hpmp])| (pmpt - hpmp) as f64 / (pmpt - pmp) as f64)),
                (0.6, 1.0),
            ));
            let overhead: Vec<f64> = chain
                .iter()
                .map(|(_, [pmp, pmpt, _])| *pmpt as f64 / *pmp as f64)
                .collect();
            rows.push(row(
                "E6.chain",
                "image chain: PMPT overhead falls as the image grows (smallest step)",
                min(overhead.windows(2).map(|w| w[0] - w[1])),
                (POSITIVE, NONE),
            ));
        }
        Values::Virt { cycles, cold_refs } => {
            for (scheme, refs) in cold_refs {
                let expected = paper_split(&paper(&scheme.to_string(), true));
                rows.extend(refs_rows(
                    "E8.refs",
                    &scheme.to_string(),
                    virt_split(refs),
                    expected,
                ));
            }
            let case = |case| cycles.iter().find(|(c, _)| *c == case).expect("case").1;
            let [pmpt, hpmp, gpt, pmp] = case(VirtCase::Tc1);
            rows.push(row(
                "E8.order",
                "TC1: PMP < HPMP-GPT < HPMP < PMPT (smallest margin, cycles)",
                min([gpt - pmp, hpmp - gpt, pmpt - hpmp].map(|d| d as f64)),
                (1.0, NONE),
            ));
            let (v, g) = (case(VirtCase::AfterHfenceV), case(VirtCase::AfterHfenceG));
            rows.push(row(
                "E8.hfence",
                "hfence.vvma cheaper than hfence.gvma for every scheme (smallest margin, cycles)",
                min((0..4).map(|i| g[i] as f64 - v[i] as f64)),
                (1.0, NONE),
            ));
            let tc4 = case(VirtCase::Tc4);
            rows.push(row(
                "E8.tc4",
                "TC4 identical across schemes (spread, cycles)",
                (tc4.iter().max().unwrap() - tc4.iter().min().unwrap()) as f64,
                (0.0, 0.0),
            ));
        }
        Values::Tee { switch, regions } => {
            let at = |domains| {
                switch
                    .iter()
                    .find(|(d, _)| *d == domains)
                    .expect("domain count")
                    .1
            };
            rows.push(row(
                "E9.wall",
                "Penglai-PMP reports \"no available PMP\" at 101 domains",
                f64::from(u8::from(at(101)[0].is_none())),
                (1.0, 1.0),
            ));
            let hpmp: Vec<f64> = switch
                .iter()
                .filter_map(|(_, [_, h])| h.map(|c| c as f64))
                .collect();
            rows.push(row(
                "E9.hpmp-101",
                "Penglai-HPMP switches at 2, 12 and 101 domains",
                hpmp.len() as f64,
                (3.0, 3.0),
            ));
            rows.push(row(
                "E9.flat",
                "Penglai-HPMP switch cost flat in the domain count (spread, cycles)",
                max(hpmp.iter().copied()) - min(hpmp.iter().copied()),
                (0.0, 0.0),
            ));
            let extra = switch
                .iter()
                .filter_map(|(_, [pmp, hpmp])| Some(hpmp.as_ref()? - pmp.as_ref()?));
            rows.push(row(
                "E9.switch-deviation",
                "known deviation: Penglai-HPMP switches 12 cycles (2.2%) slower than Penglai-PMP wherever both switch (paper: < 1%)",
                max(extra.map(|c| c as f64)),
                (12.0, 12.0),
            ));
            rows.push(row(
                "E9.pmp-regions",
                "Penglai-PMP stops below 16 of 100 64 KiB regions",
                regions[0] as f64,
                (1.0, 15.0),
            ));
            rows.push(row(
                "E9.hpmp-regions",
                "Penglai-HPMP allocates all 100 64 KiB regions",
                regions[1] as f64,
                (100.0, 100.0),
            ));
        }
        Values::Frag(layouts) => {
            rows.push(row(
                "E10.order",
                "HPMP < PMPT in all four layouts (smallest margin, cycles)",
                min(layouts
                    .iter()
                    .map(|(.., [_, pmpt, hpmp])| *pmpt as f64 - *hpmp as f64)),
                (1.0, NONE),
            ));
            let (ideal, worst) = (layouts[0].2, layouts[3].2);
            rows.push(row(
                "E10.hurts",
                "fragmentation hurts every scheme (smallest fragmented - contiguous, cycles)",
                min((0..3).map(|i| worst[i] as f64 - ideal[i] as f64)),
                (1.0, NONE),
            ));
        }
        Values::Caching(layouts) => {
            let fragmented = layouts
                .iter()
                .find(|(va, _)| *va == VaLayout::Fragmented)
                .expect("row")
                .1;
            let [_, pmpt_cache, hpmp, ..] = fragmented;
            rows.push(row(
                "E11.pmpt-cache",
                "PMPT-Cache < plain HPMP on fragmented VA (margin, cycles)",
                hpmp as f64 - pmpt_cache as f64,
                (1.0, NONE),
            ));
            rows.push(row(
                "E11.hpmp-cache",
                "HPMP-Cache is the fastest table-backed configuration in both VA layouts (smallest margin, cycles)",
                min(layouts.iter().map(|(_, [pmpt, pmpt_cache, hpmp, hpmp_cache, _])| {
                    *pmpt.min(pmpt_cache).min(hpmp) as f64 - *hpmp_cache as f64
                })),
                (1.0, NONE),
            ));
        }
        Values::Pwc(functions) => {
            rows.push(row(
                "E12.pwc",
                "PWC(8) = PWC(32) for every flavour and function (largest gap, cycles)",
                max(functions
                    .iter()
                    .flat_map(|(_, c)| [0, 2, 4].map(|i| c[i].abs_diff(c[i + 1]) as f64))),
                (0.0, 0.0),
            ));
            rows.push(row(
                "E12.hpmp8-pmpt32",
                "HPMP(8) beats PMPT(32) on every function (smallest margin, cycles)",
                min(functions.iter().map(|(_, c)| c[3] as f64 - c[4] as f64)),
                (1.0, NONE),
            ));
        }
        Values::None => {}
    }
    rows
}

/// Every claim row, measured once per test binary: the experiments the
/// claims read run on two workers the first time a test asks, and every
/// test below reads the same rows.
fn all_rows() -> &'static [Claim] {
    static ROWS: OnceLock<Vec<Claim>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let experiments = [
            Experiment::Fig2,
            Experiment::Fig10,
            Experiment::Table3,
            Experiment::Fig12ac,
            Experiment::Fig13,
            Experiment::Fig14,
            Experiment::Fig15,
            Experiment::Fig16,
            Experiment::Fig17,
        ];
        let outcomes = run_ordered(
            experiments.len(),
            2,
            |i| experiments[i].run(&mut NullSink, SmpTelemetrySpec::default()),
            |_| {},
        );
        let mut rows = Vec::new();
        for (experiment, outcome) in experiments.iter().zip(outcomes) {
            let outcome = outcome.unwrap_or_else(|e| panic!("{}: {e}", experiment.name()));
            let claims = claims(&outcome);
            assert!(
                !claims.is_empty(),
                "{} has no claim rows",
                experiment.name()
            );
            rows.extend(claims);
        }
        rows
    })
}

/// Checks `rows`; a failure lists each row outside its band by id and claim.
fn assert_in_band<'a>(rows: impl IntoIterator<Item = &'a Claim>) {
    let failed: Vec<String> = rows
        .into_iter()
        .filter(|r| !(r.band.0..=r.band.1).contains(&r.measured))
        .map(|r| {
            let (lo, hi) = r.band;
            format!(
                "{}: {}: measured {}, band [{lo}, {hi}]",
                r.id, r.claim, r.measured
            )
        })
        .collect();
    assert!(
        failed.is_empty(),
        "claim rows out of band:\n{}",
        failed.join("\n")
    );
}

/// Checks the rows under `ids`, each of which must have at least one row.
fn assert_rows(ids: &[&str]) {
    let rows = all_rows();
    for id in ids {
        assert!(rows.iter().any(|r| r.id == *id), "no claim row {id}");
    }
    assert_in_band(rows.iter().filter(|r| ids.contains(&r.id)));
}

#[test]
fn every_claim_row_holds() {
    let rows = all_rows();
    // `cargo test --test paper_shapes -- --nocapture` prints the table.
    for r in rows {
        let (lo, hi) = r.band;
        println!(
            "{:<18} {:>10.4} in [{lo}, {hi}]  {}",
            r.id, r.measured, r.claim
        );
    }
    assert_in_band(rows);
}

/// E2: HPMP mitigates at least the paper's lowest 23.1% of PMPT's extra
/// walk latency on every walking case of fig10.
#[test]
fn mitigation_band_headline() {
    assert_rows(&["E2.mitigation"]);
}

/// E4: PMPT/HPMP averages within [1.10, 1.45] over table3's syscall mix
/// (paper: 128.43%) while HPMP tracks PMP.
#[test]
fn lmbench_average_ratio_headline() {
    assert_rows(&["E4.average", "E4.hpmp-pmp"]);
}

/// E6: HPMP recovers at least 60% of PMPT's FunctionBench overhead on
/// every function, Rocket and BOOM.
#[test]
fn serverless_recovery_headline() {
    assert_rows(&["E6.recovery"]);
}

/// E1: fig2's cold walk makes 4/12/6 references under PMP/PMPT/HPMP with
/// the paper's pmpte split (the BOOM agreement is tests/reference_counts.rs'
/// `cold_refs`).
#[test]
fn reference_count_identity() {
    assert_rows(&["E1.refs"]);
}
