//! Application-level traffic in the virtualized environment (§6/§8.6
//! extension).
//!
//! The paper evaluates virtualization with single-access microbenchmarks
//! (Figure 13); this extension runs a sustained key-value-style workload in
//! the guest — random probes over a resident guest dataset — so the 3-D
//! walk's cost shows up as end-to-end throughput, the way Figure 12 shows
//! it for the native case.

use hpmp_machine::{MachineConfig, VirtMachine, VirtScheme};
use hpmp_memsim::{AccessKind, CoreKind, SplitMix64, VirtAddr, PAGE_SIZE};

/// Result of a guest-application run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VirtAppOutcome {
    /// Requests served.
    pub requests: u64,
    /// Total cycles.
    pub cycles: u64,
}

impl VirtAppOutcome {
    /// Mean cycles per request.
    pub fn cycles_per_request(&self) -> f64 {
        self.cycles as f64 / self.requests.max(1) as f64
    }
}

/// Serves `requests` key-value probes in a guest with `dataset_pages` of
/// resident data, under `scheme`. Each request: parse compute, two random
/// dataset reads, one write.
///
/// # Panics
///
/// Panics if the guest fixture cannot be built (fixed layout; sizes are
/// bounded by the fixture's pools).
pub fn run_guest_kv(
    core: CoreKind,
    scheme: VirtScheme,
    dataset_pages: u64,
    requests: u64,
) -> VirtAppOutcome {
    run_guest_kv_with_sink(core, scheme, dataset_pages, requests, hpmp_trace::NullSink).0
}

/// As [`run_guest_kv`], recording walk events into `sink` and returning the
/// guest machine's metrics snapshot alongside the outcome.
///
/// # Panics
///
/// As [`run_guest_kv`].
pub fn run_guest_kv_with_sink<S: hpmp_trace::TraceSink>(
    core: CoreKind,
    scheme: VirtScheme,
    dataset_pages: u64,
    requests: u64,
    sink: S,
) -> (VirtAppOutcome, hpmp_trace::Snapshot) {
    let config = crate::fixture::config_for(core);
    run_guest_kv_with_config(config, scheme, dataset_pages, requests, sink)
}

/// As [`run_guest_kv_with_sink`], on a guest machine built from `config`
/// (so TLB inlining, the HPMP entry count, PWC and PMPTW-Cache geometry
/// and memory encryption all apply to the guest).
///
/// # Panics
///
/// As [`run_guest_kv`].
pub fn run_guest_kv_with_config<S: hpmp_trace::TraceSink>(
    config: MachineConfig,
    scheme: VirtScheme,
    dataset_pages: u64,
    requests: u64,
    sink: S,
) -> (VirtAppOutcome, hpmp_trace::Snapshot) {
    let mut machine = VirtMachine::with_sink(config, scheme, dataset_pages, sink);
    let base = 0x20_0000u64;
    let bytes = dataset_pages * PAGE_SIZE;
    // Pre-fault the dataset (long-running guest).
    for i in 0..dataset_pages {
        machine
            .access(VirtAddr::new(base + i * PAGE_SIZE), AccessKind::Write)
            .expect("guest dataset page");
    }

    let mut rng = SplitMix64::seed_from_u64(0x6e57);
    let mut cycles = 0u64;
    for _ in 0..requests {
        cycles += 120; // parse/dispatch compute in the guest
        for _ in 0..2 {
            let off = rng.gen_range(0..bytes) & !7;
            cycles += machine
                .access(VirtAddr::new(base + off), AccessKind::Read)
                .expect("probe")
                .cycles;
        }
        let off = rng.gen_range(0..bytes) & !7;
        cycles += machine
            .access(VirtAddr::new(base + off), AccessKind::Write)
            .expect("update")
            .cycles;
    }
    machine.sink_mut().flush();
    let snapshot = machine.metrics_snapshot();
    (VirtAppOutcome { requests, cycles }, snapshot)
}

/// Dataset size for the default guest workload: large enough that probes
/// miss the combined TLB regularly (the 3-D-walk-exposing regime).
pub const GUEST_DATASET_PAGES: u64 = 1536;

#[cfg(test)]
mod tests {
    use super::*;

    fn cpr(scheme: VirtScheme) -> f64 {
        run_guest_kv(CoreKind::Rocket, scheme, GUEST_DATASET_PAGES, 400).cycles_per_request()
    }

    #[test]
    fn guest_ordering_matches_native_shape() {
        let pmp = cpr(VirtScheme::Pmp);
        let hpmp_gpt = cpr(VirtScheme::HpmpGpt);
        let hpmp = cpr(VirtScheme::Hpmp);
        let pmpt = cpr(VirtScheme::PmpTable);
        assert!(pmp < hpmp_gpt, "PMP {pmp} < HPMP-GPT {hpmp_gpt}");
        assert!(hpmp_gpt < hpmp, "HPMP-GPT {hpmp_gpt} < HPMP {hpmp}");
        assert!(hpmp < pmpt, "HPMP {hpmp} < PMPT {pmpt}");
    }

    #[test]
    fn small_dataset_closes_the_gap() {
        // A TLB-resident guest dataset makes schemes nearly equal
        // (permission inlining covers the hits).
        let small_pmp =
            run_guest_kv(CoreKind::Rocket, VirtScheme::Pmp, 64, 300).cycles_per_request();
        let small_pmpt =
            run_guest_kv(CoreKind::Rocket, VirtScheme::PmpTable, 64, 300).cycles_per_request();
        let ratio = small_pmpt / small_pmp;
        assert!(
            ratio < 1.05,
            "TLB-resident guest should be scheme-insensitive: {ratio}"
        );
    }

    /// The same TLB-resident guest stops being scheme-insensitive once
    /// the config turns permission inlining off: every hit re-checks.
    #[test]
    fn config_reaches_the_guest() {
        let inlined = run_guest_kv(CoreKind::Rocket, VirtScheme::PmpTable, 64, 300);
        let mut config = MachineConfig::rocket();
        config.tlb_inlining = false;
        let (rechecked, _) =
            run_guest_kv_with_config(config, VirtScheme::PmpTable, 64, 300, hpmp_trace::NullSink);
        assert!(rechecked.cycles > inlined.cycles);
    }

    #[test]
    fn outcome_accounting() {
        let out = run_guest_kv(CoreKind::Rocket, VirtScheme::Hpmp, 64, 10);
        assert_eq!(out.requests, 10);
        assert!(out.cycles > 10 * 120);
    }
}
