//! The campaign engine: a sharded environment of machine + monitor +
//! per-domain address spaces, four fault-injection trial procedures, and a
//! lockstep permission oracle that classifies every probed access.
//!
//! The fail-closed invariant enforced after every injection: an access the
//! fast path *grants* but the oracle *denies* is an isolation violation
//! (`silent`); an access the fast path *denies* but the oracle would allow
//! is graceful degradation (`degraded`) and acceptable.

use hpmp_core::{PmpConfig, PmpRegion, PmptRefs, PmptwCache};
use hpmp_machine::{Fault, Machine, MachineConfig};
use hpmp_memsim::{
    AccessKind, FrameAllocator, Perms, PhysAddr, PrivMode, SplitMix64, VirtAddr, PAGE_SIZE,
};
use hpmp_paging::{AddressSpace, TranslationMode};
use hpmp_penglai::{DomainId, GmsLabel, SecureMonitor, TeeFlavor};
use hpmp_trace::MetricsRegistry;

use crate::spec::{CampaignSpec, FaultClass};

/// Base of simulated RAM (matches the repro harness).
const RAM_BASE: u64 = 0x8000_0000;
/// 1 GiB of simulated RAM.
const RAM_SIZE: u64 = 1 << 30;
/// Bytes granted to each domain's probe region.
const DOMAIN_BYTES: u64 = 1 << 20;
/// Offset of the page-table frame pool inside each domain's region, so PT
/// walks stay within memory the domain legitimately owns.
const PT_POOL_OFF: u64 = 1 << 19;

/// VA of the domain's own probe page (expected: grant).
const OWN_VA: u64 = 0x10_0000;
/// VA mapped at the monitor's base (expected: deny, always).
const MON_VA: u64 = 0x20_0000;
/// VA mapped into the monitor's table arena (expected: deny for enclaves).
const TBL_VA: u64 = 0x30_0000;
/// Base VA for foreign-domain probe pages (expected: deny).
const FOREIGN_VA: u64 = 0x40_0000;
/// Base VA for the stale-cache trials' throwaway mappings.
const STALE_VA: u64 = 0x100_0000;

fn class_idx(class: FaultClass) -> usize {
    FaultClass::ALL
        .iter()
        .position(|&c| c == class)
        .expect("class in ALL")
}

/// What one batch of oracle-checked probes observed.
#[derive(Clone, Copy, Debug, Default)]
struct ProbeSummary {
    /// Denials that surfaced as [`Fault::CorruptPmpte`].
    corrupt: u64,
    /// Fast-path grants the oracle denied — isolation violations.
    silent: u64,
    /// Fast-path denials the oracle would have allowed — degradation.
    degraded: u64,
    /// Whether the domain's own probe page was readable.
    own_read_ok: bool,
}

/// Outcome of one fault trial.
#[derive(Clone, Debug)]
struct TrialResult {
    class: FaultClass,
    victim: String,
    detail: String,
    injected: bool,
    detected: bool,
    silent: u64,
    degraded: u64,
    stale_rejects: u64,
    recovery_failed: bool,
}

impl TrialResult {
    fn skipped(class: FaultClass, victim: String, detail: String) -> TrialResult {
        TrialResult {
            class,
            victim,
            detail,
            injected: false,
            detected: false,
            silent: 0,
            degraded: 0,
            stale_rejects: 0,
            recovery_failed: false,
        }
    }

    /// An injected fault, with `probes`' silent and degraded counts.
    fn injected(
        class: FaultClass,
        victim: String,
        detail: String,
        detected: bool,
        probes: ProbeSummary,
        recovery_failed: bool,
    ) -> TrialResult {
        TrialResult {
            injected: true,
            detected,
            silent: probes.silent,
            degraded: probes.degraded,
            recovery_failed,
            ..TrialResult::skipped(class, victim, detail)
        }
    }
}

/// Counters accumulated by one shard, plus its JSONL trial records.
#[derive(Clone, Debug, Default)]
pub struct ShardReport {
    /// Shard index within the campaign.
    shard: u64,
    /// Trials executed (including skipped ones).
    trials: u64,
    /// Faults injected, indexed by [`FaultClass::ALL`] position.
    injected: [u64; 5],
    /// Faults detected (fail-closed denial, scrub repair, or quarantine),
    /// indexed like `injected`.
    detected: [u64; 5],
    /// Fast-path grants the oracle denied — must be zero for a pass.
    silent: u64,
    /// Spurious denials (graceful degradation; informational).
    degraded: u64,
    /// Recovery paths that failed to restore service.
    recovery_failures: u64,
    /// TLB lookups rejected by the isolation-epoch check.
    stale_rejects: u64,
    /// One JSON object per trial, newline-terminated, in trial order.
    records: String,
}

impl ShardReport {
    fn absorb(&mut self, trial: u64, r: &TrialResult) {
        self.trials += 1;
        let idx = class_idx(r.class);
        if r.injected {
            self.injected[idx] += 1;
            if r.detected {
                self.detected[idx] += 1;
            }
        }
        self.silent += r.silent;
        self.degraded += r.degraded;
        self.stale_rejects += r.stale_rejects;
        self.recovery_failures += u64::from(r.recovery_failed);
        self.records.push_str(&format!(
            "{{\"shard\":{},\"trial\":{},\"class\":\"{}\",\"victim\":\"{}\",\"detail\":\"{}\",\
             \"injected\":{},\"detected\":{},\"silent\":{},\"degraded\":{},\
             \"stale_rejects\":{},\"recovery_failed\":{}}}\n",
            self.shard,
            trial,
            r.class,
            r.victim,
            r.detail,
            r.injected,
            r.detected,
            r.silent,
            r.degraded,
            r.stale_rejects,
            r.recovery_failed
        ));
    }
}

/// The merged, campaign-level result.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Canonical spec string the campaign ran with.
    spec: String,
    /// The campaign seed.
    seed: u64,
    /// Number of shards merged.
    shards: u64,
    /// Total trials executed.
    pub trials: u64,
    /// Per-class injection counts, indexed by [`FaultClass::ALL`] position.
    injected: [u64; 5],
    /// Per-class detection counts, indexed like `injected`.
    pub detected: [u64; 5],
    /// Total silent violations (pass requires zero).
    pub silent: u64,
    /// Total spurious denials.
    pub degraded: u64,
    /// Total failed recoveries (pass requires zero).
    pub recovery_failures: u64,
    /// Total isolation-epoch TLB rejections.
    pub stale_rejects: u64,
    /// All shard records concatenated in shard order.
    pub records: String,
}

impl CampaignReport {
    /// Merges per-shard reports (which must be in shard order) into the
    /// campaign total. The merge is pure accumulation, so it is
    /// byte-identical however the shards were scheduled.
    pub fn merge(spec: &CampaignSpec, seed: u64, shards: &[ShardReport]) -> CampaignReport {
        let mut report = CampaignReport {
            spec: spec.canonical(),
            seed,
            shards: shards.len() as u64,
            trials: 0,
            injected: [0; 5],
            detected: [0; 5],
            silent: 0,
            degraded: 0,
            recovery_failures: 0,
            stale_rejects: 0,
            records: String::new(),
        };
        for s in shards {
            report.trials += s.trials;
            for i in 0..FaultClass::ALL.len() {
                report.injected[i] += s.injected[i];
                report.detected[i] += s.detected[i];
            }
            report.silent += s.silent;
            report.degraded += s.degraded;
            report.recovery_failures += s.recovery_failures;
            report.stale_rejects += s.stale_rejects;
            report.records.push_str(&s.records);
        }
        report
    }

    /// Total faults injected across all classes.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// The fail-closed verdict: no silent violation, no failed recovery.
    pub fn passed(&self) -> bool {
        self.silent == 0 && self.recovery_failures == 0
    }

    /// Exports the campaign counters into a [`MetricsRegistry`] under the
    /// `faults.` prefix.
    pub fn export(&self, reg: &mut MetricsRegistry) {
        for (i, class) in FaultClass::ALL.iter().enumerate() {
            reg.add(format!("faults.injected.{class}"), self.injected[i]);
            reg.add(format!("faults.detected.{class}"), self.detected[i]);
        }
        reg.add("faults.trials", self.trials);
        reg.add("faults.silent", self.silent);
        reg.add("faults.degraded", self.degraded);
        reg.add("faults.recovery_failures", self.recovery_failures);
        reg.add("faults.stale_rejects", self.stale_rejects);
    }

    /// A single deterministic JSON object summarising the campaign.
    pub fn summary_json(&self) -> String {
        let classes: Vec<String> = FaultClass::ALL
            .iter()
            .enumerate()
            .map(|(i, c)| format!("\"{}\":{}", c, self.injected[i]))
            .collect();
        let detected: Vec<String> = FaultClass::ALL
            .iter()
            .enumerate()
            .map(|(i, c)| format!("\"{}\":{}", c, self.detected[i]))
            .collect();
        format!(
            "{{\"spec\":\"{}\",\"seed\":{},\"shards\":{},\"trials\":{},\
             \"injected\":{{{},\"total\":{}}},\"detected\":{{{}}},\
             \"silent\":{},\"degraded\":{},\"recovery_failures\":{},\
             \"stale_rejects\":{},\"pass\":{}}}",
            self.spec,
            self.seed,
            self.shards,
            self.trials,
            classes.join(","),
            self.total_injected(),
            detected.join(","),
            self.silent,
            self.degraded,
            self.recovery_failures,
            self.stale_rejects,
            self.passed()
        )
    }
}

/// One shard's simulated world: a machine, a booted monitor, and an
/// address space per domain with identically-laid-out probe targets.
struct Env {
    machine: Machine,
    monitor: SecureMonitor,
    domains: Vec<DomainId>,
    spaces: Vec<AddressSpace>,
    pools: Vec<FrameAllocator>,
    probe_pages: Vec<PhysAddr>,
    /// `(va, pa, kind)` probes per domain; index 0 is the own-page read.
    targets: Vec<Vec<(u64, PhysAddr, AccessKind)>>,
    stale_next_va: u64,
    cur: usize,
}

impl Env {
    fn new(spec: &CampaignSpec) -> Result<Env, String> {
        let mut machine = Machine::new(MachineConfig::rocket());
        let ram = PmpRegion::new(PhysAddr::new(RAM_BASE), RAM_SIZE);
        let mut monitor = SecureMonitor::boot(&mut machine, spec.flavor, ram)
            .map_err(|e| format!("boot: {e}"))?;

        let mut domains = vec![DomainId::HOST];
        let (host_region, _) = monitor
            .alloc_region(&mut machine, DomainId::HOST, DOMAIN_BYTES, GmsLabel::Slow)
            .map_err(|e| format!("host region: {e}"))?;
        let mut regions = vec![host_region];
        for _ in 0..spec.domains {
            let (id, _) = monitor
                .create_domain(&mut machine, DOMAIN_BYTES, GmsLabel::Slow)
                .map_err(|e| format!("create domain: {e}"))?;
            let gms = monitor
                .regions_of(id)
                .map_err(|e| format!("regions: {e}"))?[0];
            domains.push(id);
            regions.push(gms.region);
        }
        let probe_pages: Vec<PhysAddr> = regions.iter().map(|r| r.base).collect();

        let mut spaces = Vec::new();
        let mut pools = Vec::new();
        let mut targets = Vec::new();
        for (i, region) in regions.iter().enumerate() {
            let mut pool = FrameAllocator::new(
                PhysAddr::new(region.base.raw() + PT_POOL_OFF),
                DOMAIN_BYTES - PT_POOL_OFF,
            );
            let mut space = AddressSpace::new(
                TranslationMode::Sv39,
                (i + 1) as u16,
                machine.phys_mut(),
                &mut pool,
            )
            .map_err(|e| format!("space: {e:?}"))?;
            let tbl_page = PhysAddr::new(RAM_BASE + (5 << 20));
            let mut maps = vec![
                (OWN_VA, probe_pages[i]),
                (MON_VA, ram.base),
                (TBL_VA, tbl_page),
            ];
            for (j, &page) in probe_pages.iter().enumerate() {
                if j != i {
                    maps.push((FOREIGN_VA + (j as u64) * PAGE_SIZE, page));
                }
            }
            let mut probe_list = vec![
                (OWN_VA, probe_pages[i], AccessKind::Read),
                (OWN_VA, probe_pages[i], AccessKind::Write),
            ];
            for &(va, pa) in &maps {
                space
                    .map_page(
                        machine.phys_mut(),
                        &mut pool,
                        VirtAddr::new(va),
                        pa,
                        Perms::RW,
                        true,
                    )
                    .map_err(|e| format!("map {va:#x}: {e:?}"))?;
                if va != OWN_VA {
                    probe_list.push((va, pa, AccessKind::Read));
                }
            }
            spaces.push(space);
            pools.push(pool);
            targets.push(probe_list);
        }

        Ok(Env {
            machine,
            monitor,
            domains,
            spaces,
            pools,
            probe_pages,
            targets,
            stale_next_va: STALE_VA,
            cur: 0,
        })
    }

    fn victim_name(&self, idx: usize) -> String {
        self.domains[idx].to_string()
    }

    /// Switches the running domain (no-op when already current).
    fn switch(&mut self, idx: usize) -> Result<(), String> {
        if self.cur != idx {
            self.monitor
                .switch_to(&mut self.machine, self.domains[idx])
                .map_err(|e| format!("switch: {e}"))?;
            self.cur = idx;
        }
        Ok(())
    }

    /// Runs every probe of the current domain in lockstep with the oracle.
    fn probe_all(&mut self) -> ProbeSummary {
        let mut summary = ProbeSummary::default();
        let i = self.cur;
        for (n, &(va, pa, kind)) in self.targets[i].clone().iter().enumerate() {
            let outcome =
                self.machine
                    .access(&self.spaces[i], VirtAddr::new(va), kind, PrivMode::User);
            let allowed = self.monitor.oracle_check_for(self.domains[i], pa, kind);
            match outcome {
                Ok(_) => {
                    if n == 0 {
                        summary.own_read_ok = true;
                    }
                    if !allowed {
                        summary.silent += 1;
                    }
                }
                Err(fault) => {
                    if matches!(fault, Fault::CorruptPmpte(_)) {
                        summary.corrupt += 1;
                    }
                    if allowed {
                        summary.degraded += 1;
                    }
                }
            }
        }
        summary
    }

    /// Class (a): flip one bit of a root/leaf pmpte in simulated DRAM.
    /// The parity-protected encoding must turn every single-bit flip into
    /// a fail-closed [`Fault::CorruptPmpte`]; scrub then quarantines and
    /// rebuilds the affected domain's table.
    fn trial_pmpte_flip(&mut self, rng: &mut SplitMix64) -> TrialResult {
        let v = (rng.next_u64() % self.domains.len() as u64) as usize;
        let victim = self.victim_name(v);
        if let Err(e) = self.switch(v) {
            return TrialResult::skipped(FaultClass::PmpteFlip, victim, e);
        }
        let refs = self.pmpte_refs(self.probe_pages[v]);
        if refs.is_empty() {
            return TrialResult::skipped(
                FaultClass::PmpteFlip,
                victim,
                "no pmpte on probe path".into(),
            );
        }
        let target = refs[(rng.next_u64() % refs.len() as u64) as usize].addr;
        let bit = rng.gen_range(0..64) as u32;
        let before = self.machine.phys().read_u64(target);
        self.machine
            .phys_mut()
            .write_u64(target, before ^ (1u64 << bit));
        // Model the eventual eviction of any cached copy of the pmpte.
        self.machine.sfence_vma_all();

        // Probe first: decode-time parity must catch the flip fail-closed.
        let probes = self.probe_all();
        let mut detected = probes.corrupt > 0;

        let scrub = self.monitor.scrub(&mut self.machine);
        detected |= !scrub.corrupt_domains.is_empty();
        let mut recovery_failed = false;
        for &d in &scrub.corrupt_domains {
            if self
                .monitor
                .rebuild_domain_table(&mut self.machine, d)
                .is_err()
            {
                recovery_failed = true;
            }
        }
        let restored = self
            .machine
            .access(
                &self.spaces[v],
                VirtAddr::new(OWN_VA),
                AccessKind::Read,
                PrivMode::User,
            )
            .is_ok();
        recovery_failed |= !restored;

        let detail = format!("pmpte@{target}^bit{bit}");
        let class = FaultClass::PmpteFlip;
        TrialResult::injected(class, victim, detail, detected, probes, recovery_failed)
    }

    /// Class (b): corrupt a PMP `addr` or `config` register, including
    /// illegal T-bit/mode encodings. Registers are TCB-internal state, so
    /// the monitor's shadow-copy scrub runs *before* probing — it is the
    /// modelled defence for this class (probing first would exercise
    /// corrupted registers the architecture has no self-check for).
    fn trial_reg_corrupt(&mut self, rng: &mut SplitMix64) -> TrialResult {
        let v = (rng.next_u64() % self.domains.len() as u64) as usize;
        let victim = self.victim_name(v);
        if let Err(e) = self.switch(v) {
            return TrialResult::skipped(FaultClass::RegCorrupt, victim, e);
        }
        let idx = (rng.next_u64() % self.machine.regs().len() as u64) as usize;
        let detail = if rng.next_u64() & 1 == 0 {
            let bit = rng.gen_range(0..64) as u32;
            self.machine.regs_mut().corrupt_addr(idx, 1u64 << bit);
            format!("addr[{idx}]^bit{bit}")
        } else {
            let bit = rng.gen_range(0..8) as u32;
            self.machine.regs_mut().corrupt_cfg(idx, 1u8 << bit);
            format!("cfg[{idx}]^bit{bit}")
        };

        let scrub = self.monitor.scrub(&mut self.machine);
        let detected = scrub.repaired_registers > 0;
        let probes = self.probe_all();

        let detail = format!("{detail} repaired={}", scrub.repaired_registers);
        let failed = !probes.own_read_ok;
        TrialResult::injected(
            FaultClass::RegCorrupt,
            victim,
            detail,
            detected,
            probes,
            failed,
        )
    }

    /// Class (c): suppress the TLB/PMPTW invalidation fence after a
    /// monitor remap (here: a region free). The isolation-epoch tags must
    /// still force the stale translation to miss and re-walk, which then
    /// fails closed against the updated permission state.
    fn trial_stale(&mut self, rng: &mut SplitMix64) -> TrialResult {
        let enclaves = self.domains.len() - 1;
        let v = 1 + (rng.next_u64() % enclaves as u64) as usize;
        let victim = self.victim_name(v);
        if let Err(e) = self.switch(v) {
            return TrialResult::skipped(FaultClass::StaleCache, victim, e);
        }
        let region = match self.monitor.alloc_region(
            &mut self.machine,
            self.domains[v],
            PAGE_SIZE,
            GmsLabel::Slow,
        ) {
            Ok((region, _)) => region,
            Err(e) => {
                return TrialResult::skipped(FaultClass::StaleCache, victim, format!("alloc: {e}"))
            }
        };
        let va = self.stale_next_va;
        self.stale_next_va += PAGE_SIZE;
        if let Err(e) = self.spaces[v].map_page(
            self.machine.phys_mut(),
            &mut self.pools[v],
            VirtAddr::new(va),
            region.base,
            Perms::RW,
            true,
        ) {
            return TrialResult::skipped(FaultClass::StaleCache, victim, format!("map: {e:?}"));
        }
        // Warm the TLB with the soon-to-be-stale translation.
        let warm = self
            .machine
            .access(
                &self.spaces[v],
                VirtAddr::new(va),
                AccessKind::Read,
                PrivMode::User,
            )
            .is_ok();
        if !warm {
            let detail = format!("warm probe denied at {va:#x}");
            return TrialResult {
                recovery_failed: true,
                ..TrialResult::skipped(FaultClass::StaleCache, victim, detail)
            };
        }

        self.machine.set_fence_suppression(true);
        let freed = self
            .monitor
            .free_region(&mut self.machine, self.domains[v], region.base);
        self.machine.set_fence_suppression(false);
        if let Err(e) = freed {
            return TrialResult::skipped(FaultClass::StaleCache, victim, format!("free: {e}"));
        }

        let stale_before = self.machine.tlb_stats().stale;
        let outcome = self.machine.access(
            &self.spaces[v],
            VirtAddr::new(va),
            AccessKind::Read,
            PrivMode::User,
        );
        let allowed = self
            .monitor
            .oracle_check_for(self.domains[v], region.base, AccessKind::Read);
        let (detected, silent) = match outcome {
            Ok(_) => (false, u64::from(!allowed)),
            Err(_) => (true, 0),
        };
        let stale_rejects = self.machine.tlb_stats().stale - stale_before;
        let probes = self.probe_all();

        let detail = format!("fence dropped after free of {region} (va {va:#x})");
        let failed = !probes.own_read_ok;
        TrialResult {
            silent: silent + probes.silent,
            stale_rejects,
            ..TrialResult::injected(
                FaultClass::StaleCache,
                victim,
                detail,
                detected,
                probes,
                failed,
            )
        }
    }

    /// Class (d): a monitor interposition point fires (the domain switch
    /// happens, bookkeeping updates) but the register reprogramming is
    /// lost — modelled by force-restoring the pre-switch register image.
    /// The shadow-copy scrub must notice and repair before any guest
    /// access depends on the registers.
    fn trial_interpose(&mut self, rng: &mut SplitMix64) -> TrialResult {
        let len = self.domains.len();
        let from = self.cur;
        let to = (from + 1 + (rng.next_u64() % (len - 1) as u64) as usize) % len;
        let victim = self.victim_name(to);
        let n = self.machine.regs().len();
        let snapshot: Vec<(u64, PmpConfig)> = (0..n)
            .map(|i| {
                (
                    self.machine.regs().addr_reg(i),
                    self.machine.regs().cfg_reg(i),
                )
            })
            .collect();
        if let Err(e) = self.switch(to) {
            return TrialResult::skipped(FaultClass::Interpose, victim, e);
        }
        for (i, &(addr, cfg)) in snapshot.iter().enumerate() {
            self.machine.regs_mut().force_restore(i, addr, cfg);
        }

        // Scrub before probing, as for class (b): the dropped reprogramming
        // left the register file describing the *previous* domain.
        let scrub = self.monitor.scrub(&mut self.machine);
        let detected = scrub.repaired_registers > 0;
        let probes = self.probe_all();

        let detail = format!(
            "switch {}->{} dropped {} csr writes, repaired={}",
            self.domains[from],
            self.domains[to],
            2 * n,
            scrub.repaired_registers
        );
        let failed = !probes.own_read_ok;
        TrialResult::injected(
            FaultClass::Interpose,
            victim,
            detail,
            detected,
            probes,
            failed,
        )
    }

    /// Class (e): a fault lands *mid-compaction* — one region already
    /// relocated, the rest of the pass pending. Whatever the fault hits
    /// (a pmpte under table flavours, a PMP register under the PMP
    /// flavour), the pass must either complete or fail closed, the
    /// scrub/rebuild path must restore service, and the relocated
    /// region's bytes must survive — a canary written before the first
    /// move is asserted from the region's final base.
    fn trial_compact_race(&mut self, rng: &mut SplitMix64) -> TrialResult {
        const SCRATCH: u64 = 64 * 1024;
        let enclaves = self.domains.len() - 1;
        let v = 1 + (rng.next_u64() % enclaves as u64) as usize;
        let victim = self.victim_name(v);
        if let Err(e) = self.switch(v) {
            return TrialResult::skipped(FaultClass::CompactRace, victim, e);
        }
        // Two scratch regions; freeing the lower leaves a hole the upper
        // can slide into.
        let mut scratch = || {
            self.monitor
                .alloc_region(&mut self.machine, self.domains[v], SCRATCH, GmsLabel::Slow)
                .map(|(r, _)| r)
        };
        let (a, b) = match (scratch(), scratch()) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                return TrialResult::skipped(FaultClass::CompactRace, victim, format!("alloc: {e}"))
            }
        };
        let (low, high) = if a.base < b.base { (a, b) } else { (b, a) };
        let canary = rng.next_u64();
        self.machine.phys_mut().write_u64(high.base, canary);
        if let Err(e) = self
            .monitor
            .free_region(&mut self.machine, self.domains[v], low.base)
        {
            return TrialResult::skipped(FaultClass::CompactRace, victim, format!("free: {e}"));
        }
        let first = match self.monitor.compact(&mut self.machine, Some(1)) {
            Ok(report) => report,
            Err(e) => {
                return TrialResult::skipped(FaultClass::CompactRace, victim, format!("pass: {e}"))
            }
        };
        if first.moved_regions == 0 {
            let _ = self
                .monitor
                .free_region(&mut self.machine, self.domains[v], high.base);
            return TrialResult::skipped(FaultClass::CompactRace, victim, "nothing movable".into());
        }

        // The injection, between the first move and the rest of the pass.
        let detail = if self.monitor.flavor() == TeeFlavor::PenglaiPmp {
            let idx = (rng.next_u64() % self.machine.regs().len() as u64) as usize;
            let bit = rng.gen_range(0..64) as u32;
            self.machine.regs_mut().corrupt_addr(idx, 1u64 << bit);
            format!("mid-compaction addr[{idx}]^bit{bit}")
        } else {
            let moved = self.scratch_base(v, SCRATCH);
            let refs = self.pmpte_refs(moved);
            if refs.is_empty() {
                return TrialResult::skipped(
                    FaultClass::CompactRace,
                    victim,
                    "no pmpte on moved path".into(),
                );
            }
            let target = refs[(rng.next_u64() % refs.len() as u64) as usize].addr;
            let bit = rng.gen_range(0..64) as u32;
            let before = self.machine.phys().read_u64(target);
            self.machine
                .phys_mut()
                .write_u64(target, before ^ (1u64 << bit));
            self.machine.sfence_vma_all();
            format!("mid-compaction pmpte@{target}^bit{bit}")
        };

        // Resume: either the pass completes over the fault, or it fails
        // closed — both are acceptable, silence is not.
        let mut detected = self.monitor.compact(&mut self.machine, None).is_err();
        let probes = self.probe_all();
        detected |= probes.corrupt > 0;

        let scrub = self.monitor.scrub(&mut self.machine);
        detected |= !scrub.corrupt_domains.is_empty() || scrub.repaired_registers > 0;
        let mut recovery_failed = false;
        for &d in &scrub.corrupt_domains {
            if self
                .monitor
                .rebuild_domain_table(&mut self.machine, d)
                .is_err()
            {
                recovery_failed = true;
            }
        }
        // Any remaining holes must still be compactable after recovery.
        if self.monitor.compact(&mut self.machine, None).is_err() {
            recovery_failed = true;
        }

        // The moved region's bytes must have followed it.
        let survived = self.machine.phys().read_u64(self.scratch_base(v, SCRATCH)) == canary;
        let restored = self
            .machine
            .access(
                &self.spaces[v],
                VirtAddr::new(OWN_VA),
                AccessKind::Read,
                PrivMode::User,
            )
            .is_ok();
        recovery_failed |= !survived || !restored;
        let cleanup_base = self.scratch_base(v, SCRATCH);
        recovery_failed |= self
            .monitor
            .free_region(&mut self.machine, self.domains[v], cleanup_base)
            .is_err();

        let detail = format!("{detail} canary_survived={survived}");
        let class = FaultClass::CompactRace;
        TrialResult::injected(class, victim, detail, detected, probes, recovery_failed)
    }

    /// The pmptes the fast path reads on its way to `addr`.
    fn pmpte_refs(&self, addr: PhysAddr) -> PmptRefs {
        let regs = self.machine.regs();
        let mut cache = PmptwCache::disabled();
        let mode = PrivMode::Supervisor;
        regs.check(
            self.machine.phys(),
            &mut cache,
            addr,
            AccessKind::Read,
            mode,
        )
        .refs
    }

    /// Current base of domain `v`'s scratch region (it moves during the
    /// compact-race trial).
    fn scratch_base(&self, v: usize, size: u64) -> PhysAddr {
        self.monitor
            .regions_of(self.domains[v])
            .expect("victim exists")
            .iter()
            .find(|g| g.region.size == size)
            .expect("scratch region live")
            .region
            .base
    }

    /// Runs the one fail-closed check over the machine after a trial. A
    /// broken invariant fails the trial's recovery and is named in its
    /// detail, so the campaign keeps its records and reports FAIL.
    fn fail_closed(&self, result: &mut TrialResult) {
        let image = [(self.machine.regs(), self.monitor.current())];
        let mem = self.machine.phys();
        if let Some(v) = self.monitor.fail_closed_violation(mem, &image) {
            result.recovery_failed = true;
            result.detail = format!("{} violation: {v}", result.detail);
        }
    }
}

/// Runs one shard of a campaign to completion.
///
/// Shards are fully independent: each builds its own machine + monitor
/// world and draws from its own [`SplitMix64`] stream derived from
/// `(campaign_seed, shard)`, so any scheduling of shards over threads
/// produces identical per-shard reports.
///
/// After every trial the monitor's one fail-closed check
/// ([`SecureMonitor::fail_closed_violation`]) runs over the shard's
/// machine, as it does after every op of the model checker and the random
/// batteries; a broken invariant fails that trial's recovery, and the
/// shard runs on.
///
/// # Errors
///
/// Fails if the shard environment cannot be constructed (boot or mapping
/// failure).
pub fn run_shard(
    spec: &CampaignSpec,
    campaign_seed: u64,
    shard: u64,
) -> Result<ShardReport, String> {
    let classes = spec.effective_classes();
    let mut rng = SplitMix64::seed_from_u64(CampaignSpec::shard_seed(campaign_seed, shard));
    let mut env = Env::new(spec)?;
    let mut report = ShardReport {
        shard,
        ..ShardReport::default()
    };
    for trial in 0..spec.shard_trials(shard) {
        let class = classes[(rng.next_u64() % classes.len() as u64) as usize];
        let mut result = match class {
            FaultClass::PmpteFlip => env.trial_pmpte_flip(&mut rng),
            FaultClass::RegCorrupt => env.trial_reg_corrupt(&mut rng),
            FaultClass::StaleCache => env.trial_stale(&mut rng),
            FaultClass::Interpose => env.trial_interpose(&mut rng),
            FaultClass::CompactRace => env.trial_compact_race(&mut rng),
        };
        env.fail_closed(&mut result);
        report.absorb(trial, &result);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a whole campaign serially (shard 0, 1, …) and merges it.
    fn run_campaign(spec: &CampaignSpec, seed: u64) -> Result<CampaignReport, String> {
        let shards: Result<Vec<_>, _> = (0..spec.shards)
            .map(|shard| run_shard(spec, seed, shard))
            .collect();
        Ok(CampaignReport::merge(spec, seed, &shards?))
    }

    #[test]
    fn a_broken_invariant_fails_the_trial_in_its_record() {
        let spec = CampaignSpec::parse("faults=1,domains=2").expect("spec");
        let mut env = Env::new(&spec).expect("env");
        let mut result = TrialResult::skipped(FaultClass::RegCorrupt, "host".into(), "x".into());
        env.fail_closed(&mut result);
        assert!(!result.recovery_failed, "{}", result.detail);
        // Reserved config bit 6: an image `validate` rejects.
        env.machine.regs_mut().corrupt_cfg(1, 1 << 6);
        env.fail_closed(&mut result);
        assert!(result.recovery_failed);
        assert!(result.detail.contains("violation: hart 0's image invalid"));
    }

    #[test]
    fn small_campaign_detects_everything() {
        let spec = CampaignSpec::parse("faults=40,shards=4,domains=2").expect("spec");
        let report = run_campaign(&spec, 7).expect("campaign");
        assert_eq!(report.trials, 40);
        assert_eq!(report.silent, 0, "silent violations:\n{}", report.records);
        assert_eq!(report.recovery_failures, 0, "{}", report.records);
        assert!(report.passed());
        // Every injected fault in every class was detected.
        assert_eq!(report.injected, report.detected, "{}", report.records);
        assert!(report.total_injected() > 0);
    }

    #[test]
    fn campaign_covers_all_flavors() {
        for flavor in ["pmp", "pmpt", "hpmp"] {
            let spec =
                CampaignSpec::parse(&format!("faults=24,shards=2,flavor={flavor}")).expect("spec");
            let report = run_campaign(&spec, 11).expect(flavor);
            assert!(report.passed(), "{flavor} failed:\n{}", report.records);
            assert_eq!(
                report.injected, report.detected,
                "{flavor} missed faults:\n{}",
                report.records
            );
        }
    }

    #[test]
    fn acceptance_thousand_faults_deterministic() {
        // The ISSUE acceptance bar: >= 1000 faults across all four classes,
        // zero panics, zero silent violations, and a byte-identical report
        // for the same seed regardless of shard execution order.
        let spec = CampaignSpec::parse("faults=1000,classes=all,shards=8,domains=2").expect("spec");
        let forward: Vec<ShardReport> = (0..spec.shards)
            .map(|s| run_shard(&spec, 1234, s).expect("shard"))
            .collect();
        let mut backward: Vec<ShardReport> = (0..spec.shards)
            .rev()
            .map(|s| run_shard(&spec, 1234, s).expect("shard"))
            .collect();
        backward.reverse();

        let a = CampaignReport::merge(&spec, 1234, &forward);
        let b = CampaignReport::merge(&spec, 1234, &backward);
        assert_eq!(a.summary_json(), b.summary_json());
        assert_eq!(a.records, b.records);

        assert_eq!(a.trials, 1000);
        assert!(
            a.total_injected() >= 900,
            "too many skips: {}",
            a.summary_json()
        );
        for (i, class) in FaultClass::ALL.iter().enumerate() {
            assert!(a.injected[i] > 0, "class {class} never injected");
        }
        assert_eq!(a.silent, 0, "silent violations:\n{}", a.records);
        assert_eq!(a.recovery_failures, 0, "{}", a.records);
        assert!(a.stale_rejects > 0, "epoch check never engaged");
    }

    #[test]
    fn export_and_summary_shape() {
        let spec = CampaignSpec::parse("faults=8,shards=2").expect("spec");
        let report = run_campaign(&spec, 3).expect("campaign");
        let mut reg = MetricsRegistry::new();
        report.export(&mut reg);
        let snap = reg.snapshot();
        assert_eq!(snap.value("faults.silent"), 0);
        assert_eq!(snap.value("faults.trials"), 8);
        assert_eq!(
            snap.subtree_total("faults.injected"),
            report.total_injected()
        );
        let json = report.summary_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"pass\":true"));
        // Each record line is one JSON object.
        for line in report.records.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }
}
