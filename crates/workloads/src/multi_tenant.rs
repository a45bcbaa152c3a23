//! Multi-tenant scalability (§1's motivation: microservices and serverless
//! reach "more than 100 instances per node").
//!
//! Runs N concurrently-resident enclave domains round-robin, each serving
//! short requests over its private memory, with a monitor-mediated domain
//! switch between turns. Penglai-PMP collapses at the 16-entry wall;
//! the table-backed flavours keep per-request cost flat as N grows — the
//! scalability half of the paper's claim (the performance half is the rest
//! of the evaluation).

use hpmp_core::PmpRegion;
use hpmp_machine::{Machine, MachineConfig};
use hpmp_memsim::{AccessKind, PhysAddr, PrivMode, SplitMix64};
use hpmp_penglai::{DomainId, GmsLabel, MonitorError, SecureMonitor, TeeFlavor};

/// Result of a multi-tenant run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenancyOutcome {
    /// Domains that were actually created.
    pub tenants: u32,
    /// Total cycles across all requests and switches.
    pub total_cycles: u64,
    /// Requests served.
    pub requests: u64,
    /// Whether creation stopped early at the PMP entry wall.
    pub hit_entry_wall: bool,
}

impl TenancyOutcome {
    /// Mean cycles per request (switch cost included).
    pub fn cycles_per_request(&self) -> f64 {
        self.total_cycles as f64 / self.requests.max(1) as f64
    }
}

/// Boots `tenants` enclaves under `flavor` on a machine built from
/// `config` (or a core kind) and serves `rounds` round-robin request
/// cycles; each request touches a few cache lines of the tenant's private
/// region (checked end-to-end through the machine). Records walk events
/// into `sink`; returns the outcome and the machine's metrics snapshot.
///
/// # Errors
///
/// Propagates monitor errors other than the expected entry wall.
pub fn run_tenancy_with_sink<S: hpmp_trace::TraceSink>(
    flavor: TeeFlavor,
    config: impl Into<MachineConfig>,
    tenants: u32,
    rounds: u32,
    sink: S,
) -> Result<(TenancyOutcome, hpmp_trace::Snapshot), MonitorError> {
    let mut machine = Machine::with_sink(config.into(), sink);
    let ram = PmpRegion::new(PhysAddr::new(0x8000_0000), 1 << 30);
    let mut monitor = SecureMonitor::boot(&mut machine, flavor, ram).expect("monitor boots");

    let mut domains: Vec<(DomainId, PhysAddr)> = Vec::new();
    let mut hit_entry_wall = false;
    for _ in 0..tenants {
        match monitor.create_domain(&mut machine, 256 * 1024, GmsLabel::Slow) {
            Ok((id, _)) => {
                let base = monitor.regions_of(id)?[0].region.base;
                domains.push((id, base));
            }
            Err(MonitorError::OutOfPmpEntries) => {
                hit_entry_wall = true;
                break;
            }
            Err(e) => return Err(e),
        }
    }

    let mut rng = SplitMix64::seed_from_u64(0x7e7a);
    let mut total_cycles = 0u64;
    let mut requests = 0u64;
    let mut cache = hpmp_core::PmptwCache::disabled();
    for _ in 0..rounds {
        for &(id, base) in &domains {
            total_cycles += monitor.switch_to(&mut machine, id)?;
            // Serve one request: eight touches within the tenant's region,
            // checked by the active HPMP programming (M-mode check model:
            // S-mode data accesses at physical addresses via the checker +
            // memory system, since tenants here run flat-physical).
            for _ in 0..8 {
                let addr = PhysAddr::new(base.raw() + (rng.gen_range(0..64u64) * 64));
                let out = machine.regs().check(
                    machine.phys(),
                    &mut cache,
                    addr,
                    AccessKind::Read,
                    PrivMode::Supervisor,
                );
                assert!(out.allowed, "tenant must reach its own memory");
                total_cycles += 6; // modelled hit latency per touch
            }
            total_cycles += machine.run_compute(400);
            requests += 1;
        }
    }
    machine.flush_sink();
    let snapshot = machine.metrics_snapshot();
    Ok((
        TenancyOutcome {
            tenants: domains.len() as u32,
            total_cycles,
            requests,
            hit_entry_wall,
        },
        snapshot,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpmp_memsim::CoreKind;

    fn tenancy(
        flavor: TeeFlavor,
        tenants: u32,
        rounds: u32,
    ) -> Result<TenancyOutcome, MonitorError> {
        let sink = hpmp_trace::NullSink;
        Ok(run_tenancy_with_sink(flavor, CoreKind::Rocket, tenants, rounds, sink)?.0)
    }

    #[test]
    fn pmp_hits_wall_table_flavours_scale() {
        let pmp = tenancy(TeeFlavor::PenglaiPmp, 100, 1).unwrap();
        assert!(pmp.hit_entry_wall, "PMP must hit the entry wall");
        assert!(pmp.tenants <= 15);

        for flavor in [TeeFlavor::PenglaiPmpt, TeeFlavor::PenglaiHpmp] {
            let out = tenancy(flavor, 100, 1).unwrap();
            assert!(!out.hit_entry_wall, "{flavor} must scale");
            assert_eq!(out.tenants, 100);
        }
    }

    #[test]
    fn per_request_cost_flat_in_tenant_count() {
        let small = tenancy(TeeFlavor::PenglaiHpmp, 4, 4).unwrap();
        let large = tenancy(TeeFlavor::PenglaiHpmp, 64, 4).unwrap();
        let ratio = large.cycles_per_request() / small.cycles_per_request();
        assert!(
            (0.9..1.1).contains(&ratio),
            "per-request cost must be flat: {ratio} ({} vs {})",
            small.cycles_per_request(),
            large.cycles_per_request()
        );
    }

    #[test]
    fn requests_scale_with_rounds() {
        let out = tenancy(TeeFlavor::PenglaiHpmp, 8, 3).unwrap();
        assert_eq!(out.requests, 24);
        assert!(out.total_cycles > 0);
    }
}
