//! The SMP face of the secure monitor: one [`SecureMonitor`] serving N
//! harts, each with its own PMP/HPMP register image and permission caches,
//! synchronized by the cross-hart shootdown protocol.
//!
//! ## The protocol
//!
//! The single-hart monitor already fences *the machine it runs on* inside
//! every mutating op. What it cannot do alone is reach the other harts: a
//! grant, revoke, teardown or relabel on hart A leaves every other hart
//! with (a) possibly stale TLB/PMPTW-Cache entries — permissions are
//! inlined in TLB entries, so a stale entry is a stale *grant* — and (b) a
//! possibly stale register image, when that hart's scheduled domain's
//! holdings include the changed domain ([`SecureMonitor::image_depends`]).
//!
//! [`SmpSystem`] closes both: after every monitor op it drains the
//! monitor's pending-shootdown note and delivers one IPI per remote hart —
//! `Reprogram` where the image depends on the change, `FenceOnly`
//! elsewhere. Delivery is synchronous, as in Penglai and CoVE's TSM: the
//! sender stalls until the slowest receiver has trapped, reprogrammed or
//! fenced, and acked. The stall is charged to the sender
//! (`hart.<i>.fence_stall_cycles`), the handler work to each receiver
//! (`hart.<i>.shootdown_cycles`), so `hpmp-analyze` can attribute
//! shootdown overhead per hart.
//!
//! Fault campaigns re-open the stale window deliberately:
//! [`SmpSystem::set_shootdown_suppression`] skips delivery entirely,
//! which — unlike the single-hart fence suppression, whose epoch half
//! still kills stale entries — leaves remote TLBs *genuinely* stale. The
//! shootdown property test uses this to prove it can observe the bug class
//! it guards against.
//!
//! ## Scheduling discipline
//!
//! `monitor.current` is a single-hart notion; here every hart has its own
//! scheduled domain. Before running an op on hart A the system banks
//! `current` to `scheduled[A]`; after the op it reads `current` back (ops
//! like `destroy_domain` switch internally). An enclave may be scheduled
//! on at most one hart at a time — its image and private memory exist
//! once — while the host may run on any number of harts.

use crate::degrade::DegradationPolicy;
use crate::gms::GmsLabel;
use crate::monitor::{cost, DomainId, MonitorError, SecureMonitor, TeeFlavor};
use hpmp_core::{DeferredShootdown, IpiKind, PmpRegion};
use hpmp_machine::{Machine, MachineConfig, MultiHartMachine};
use hpmp_memsim::{AccessKind, PhysAddr};
use hpmp_trace::{
    MetricsRegistry, NullSink, Snapshot, SpanCollector, SpanEvent, SpanKind, TraceSink,
};

/// N harts, one secure monitor, one physical memory.
///
/// `Clone` forks the whole system — monitor, every hart's registers and
/// caches, the shared physical memory — into an independent copy, which is
/// what lets the bounded model checker (`hpmp-modelcheck`) backtrack: apply
/// an op to a fork, explore, discard. Forking panics if the threaded
/// backend is active (see [`hpmp_machine::MultiHartMachine`]'s `Clone`).
#[derive(Clone, Debug)]
pub struct SmpSystem<S: TraceSink = NullSink> {
    mh: MultiHartMachine<S>,
    monitor: SecureMonitor,
    /// Which domain each hart is running. Kept by this layer; the
    /// monitor's own `current` is banked to `scheduled[hart]` around every
    /// op.
    scheduled: Vec<DomainId>,
    /// The shootdown list drained after every op, kept so that draining
    /// reuses its storage instead of allocating.
    changed: Vec<DomainId>,
    /// Fault-injection switch: when set, shootdown IPIs are never
    /// delivered and remote harts keep stale cached grants.
    suppress_shootdowns: bool,
    /// Span producer: every `*_on` op opens a span; shootdown deliveries
    /// emit per-receiver child spans causally linked to it. Disabled (and
    /// zero-cost) unless [`SmpSystem::enable_spans`] was called.
    spans: SpanCollector,
}

impl SmpSystem {
    /// Boots a monitor over `harts` identical untraced machines.
    ///
    /// # Errors
    ///
    /// As [`SecureMonitor::boot`].
    pub fn boot(
        config: MachineConfig,
        flavor: TeeFlavor,
        ram: PmpRegion,
        harts: usize,
    ) -> Result<SmpSystem, MonitorError> {
        SmpSystem::boot_machines(
            (0..harts).map(|_| Machine::new(config)).collect(),
            flavor,
            ram,
        )
    }
}

impl<S: TraceSink> SmpSystem<S> {
    /// Boots a monitor over pre-built machines (e.g. each with its own
    /// trace sink). Hart 0 boots the monitor; every other hart receives
    /// the monitor's entry-0 segment and the host image, exactly as
    /// secondary harts do on real hardware before the host OS starts.
    ///
    /// # Errors
    ///
    /// As [`SecureMonitor::boot`].
    pub fn boot_machines(
        machines: Vec<Machine<S>>,
        flavor: TeeFlavor,
        ram: PmpRegion,
    ) -> Result<SmpSystem<S>, MonitorError> {
        let mut mh = MultiHartMachine::from_machines(machines);
        let mut monitor = SecureMonitor::boot(mh.machine(0), flavor, ram)?;
        let harts = mh.harts();
        for hart in 1..harts as u16 {
            let m = mh.machine(hart);
            m.regs_mut().configure_segment(
                0,
                monitor.monitor_region(),
                hpmp_memsim::Perms::NONE,
            )?;
            monitor.program_current(m)?;
        }
        // Boot-time table builds note shootdowns; nobody was running yet.
        let mut changed = Vec::new();
        monitor.take_shootdowns(&mut changed);
        Ok(SmpSystem {
            mh,
            monitor,
            scheduled: vec![DomainId::HOST; harts],
            changed,
            suppress_shootdowns: false,
            spans: SpanCollector::disabled(),
        })
    }

    /// Number of harts.
    pub fn harts(&self) -> usize {
        self.mh.harts()
    }

    /// The monitor, read-only. All mutation must go through the `*_on`
    /// ops so the shootdown protocol runs.
    pub fn monitor(&self) -> &SecureMonitor {
        &self.monitor
    }

    /// The multi-hart machine, for scheduling-neutral inspection (per-hart
    /// sinks, IPI counters).
    pub fn machines(&self) -> &MultiHartMachine<S> {
        &self.mh
    }

    /// Activates and returns `hart`'s machine, for running accesses on it.
    pub fn machine(&mut self, hart: u16) -> &mut Machine<S> {
        self.mh.machine(hart)
    }

    /// The domain scheduled on `hart`.
    pub fn scheduled(&self, hart: u16) -> DomainId {
        self.scheduled[usize::from(hart)]
    }

    /// The cache-free permission oracle, asked from `hart`'s point of
    /// view: may `hart`'s scheduled domain access `addr`?
    pub fn oracle_check_on(&self, hart: u16, addr: PhysAddr, kind: AccessKind) -> bool {
        self.monitor
            .oracle_check_for(self.scheduled(hart), addr, kind)
    }

    /// A deterministic 64-bit fingerprint of the system's *logical* state:
    /// every hart's register image, the per-hart scheduling assignment, the
    /// suppression switch, and the monitor's own state hash
    /// ([`SecureMonitor::hash_state`]). Cycle counters, metrics and spans
    /// are deliberately excluded — two states that differ only in
    /// accounting behave identically under every future op sequence, which
    /// is exactly the convergence the model checker prunes on.
    ///
    /// Stable across runs and platforms (FNV-1a over explicit
    /// little-endian words), so explored/pruned counts are reproducible.
    pub fn state_fingerprint(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = hpmp_memsim::Fnv1a::new();
        h.write_usize(self.mh.harts());
        for hart in 0..self.mh.harts() as u16 {
            let regs = self.mh.peek(hart).regs();
            h.write_usize(regs.len());
            for i in 0..regs.len() {
                h.write_u64(regs.addr_reg(i));
                h.write_u8(regs.cfg_reg(i).to_bits());
            }
        }
        for d in &self.scheduled {
            h.write_u32(d.0);
        }
        h.write_u8(u8::from(self.suppress_shootdowns));
        self.monitor.hash_state(&mut h);
        h.finish()
    }

    /// The global simulated clock spans and timeline slices are stamped
    /// with: total machine cycles across all harts plus the monitor's own
    /// cycles. Every input only ever accumulates, so the clock is
    /// monotone, and it advances identically at any `--jobs` because the
    /// whole SMP run is single-threaded and seed-interleaved.
    pub fn global_cycles(&self) -> u64 {
        self.mh.total_machine_cycles() + self.monitor.stats().cycles
    }

    /// Enables span collection, retaining at most `capacity` spans
    /// (overflow is counted, not silently discarded — see
    /// `trace.dropped.spans` in snapshots).
    pub fn enable_spans(&mut self, capacity: usize) {
        self.spans = SpanCollector::bounded(capacity);
    }

    /// The span collector (disabled unless [`SmpSystem::enable_spans`]
    /// was called).
    pub fn spans(&self) -> &SpanCollector {
        &self.spans
    }

    /// Takes the span collector out, leaving a disabled one behind.
    pub fn take_spans(&mut self) -> SpanCollector {
        std::mem::take(&mut self.spans)
    }

    /// Suppresses (or restores) shootdown delivery. Unlike single-hart
    /// fence suppression — whose unsuppressable epoch half still
    /// invalidates stale entries — suppressed shootdowns never reach the
    /// remote hart at all, so its TLB keeps stale grants. Strictly a
    /// fault-injection hook.
    pub fn set_shootdown_suppression(&mut self, suppress: bool) {
        self.suppress_shootdowns = suppress;
    }

    /// Schedules `target` on `hart` (a domain switch on that hart),
    /// broadcasting a fence-only shootdown to the other harts. Returns
    /// modelled cycles (switch + sender-side stall).
    ///
    /// # Errors
    ///
    /// [`MonitorError::AlreadyScheduled`] if `target` is an enclave
    /// already scheduled on a different hart; otherwise as
    /// [`SecureMonitor::switch_to`].
    pub fn switch_on(&mut self, hart: u16, target: DomainId) -> Result<u64, MonitorError> {
        if target != DomainId::HOST {
            let elsewhere = self
                .scheduled
                .iter()
                .enumerate()
                .any(|(h, &d)| d == target && h != usize::from(hart));
            if elsewhere {
                return Err(MonitorError::AlreadyScheduled(target));
            }
        }
        self.monitor.set_current_unchecked(self.scheduled(hart));
        let begin = self.spans.is_enabled().then(|| self.global_cycles());
        let span = self.spans.reserve();
        let cycles = self.monitor.switch_to(self.mh.machine(hart), target)?;
        self.scheduled[usize::from(hart)] = target;
        // A switch changes no holdings, but remote harts may hold TLB
        // entries tagged with the switched hart's old world; Penglai
        // broadcasts a fence on switch, and so do we.
        let stall = self.deliver(hart, &[], span)?;
        if let (Some(id), Some(t0)) = (span, begin) {
            self.spans.emit_reserved(SpanEvent {
                id,
                parent: None,
                kind: SpanKind::Switch,
                hart,
                domain: Some(target.0),
                begin: t0,
                end: t0 + cycles + stall,
            });
        }
        Ok(cycles + stall)
    }

    /// Creates an enclave domain, driven from `hart`. Returns
    /// `(id, cycles)` including the shootdown stall.
    ///
    /// # Errors
    ///
    /// As [`SecureMonitor::create_domain`].
    pub fn create_domain_on(
        &mut self,
        hart: u16,
        initial_size: u64,
        label: GmsLabel,
    ) -> Result<(DomainId, u64), MonitorError> {
        self.op(
            hart,
            SpanKind::CreateDomain,
            |id: &DomainId| Some(id.0),
            |mon, m| mon.create_domain(m, initial_size, label),
        )
    }

    /// Destroys a domain, driven from `hart`. If the domain was scheduled
    /// on another hart, that hart's reprogram IPI reschedules it to the
    /// host — the model of "kill an enclave out from under its core".
    ///
    /// # Errors
    ///
    /// As [`SecureMonitor::destroy_domain`].
    pub fn destroy_domain_on(&mut self, hart: u16, id: DomainId) -> Result<u64, MonitorError> {
        let ((), cycles) = self.op(
            hart,
            SpanKind::DestroyDomain,
            |_: &()| Some(id.0),
            |mon, m| mon.destroy_domain(m, id).map(|c| ((), c)),
        )?;
        Ok(cycles)
    }

    /// Allocates a region for `domain`, driven from `hart`.
    ///
    /// # Errors
    ///
    /// As [`SecureMonitor::alloc_region`].
    pub fn alloc_on(
        &mut self,
        hart: u16,
        domain: DomainId,
        size: u64,
        label: GmsLabel,
    ) -> Result<(PmpRegion, u64), MonitorError> {
        self.op(
            hart,
            SpanKind::Alloc,
            |_: &PmpRegion| Some(domain.0),
            |mon, m| mon.alloc_region(m, domain, size, label),
        )
    }

    /// Frees `domain`'s region at `base`, driven from `hart`.
    ///
    /// # Errors
    ///
    /// As [`SecureMonitor::free_region`].
    pub fn free_on(
        &mut self,
        hart: u16,
        domain: DomainId,
        base: PhysAddr,
    ) -> Result<u64, MonitorError> {
        let ((), cycles) = self.op(
            hart,
            SpanKind::Free,
            |_: &()| Some(domain.0),
            |mon, m| mon.free_region(m, domain, base).map(|c| ((), c)),
        )?;
        Ok(cycles)
    }

    /// Relabels `domain`'s region at `base`, driven from `hart`.
    ///
    /// # Errors
    ///
    /// As [`SecureMonitor::relabel`].
    pub fn relabel_on(
        &mut self,
        hart: u16,
        domain: DomainId,
        base: PhysAddr,
        label: GmsLabel,
    ) -> Result<u64, MonitorError> {
        let ((), cycles) = self.op(
            hart,
            SpanKind::Relabel,
            |_: &()| Some(domain.0),
            |mon, m| mon.relabel(m, domain, base, label).map(|c| ((), c)),
        )?;
        Ok(cycles)
    }

    /// Pins `domain` against compaction; see
    /// [`SecureMonitor::pin_domain`]. Pure bookkeeping — no permission
    /// changes, so no shootdown round.
    ///
    /// # Errors
    ///
    /// As [`SecureMonitor::pin_domain`].
    pub fn pin_domain(&mut self, domain: DomainId) -> Result<(), MonitorError> {
        self.monitor.pin_domain(domain)
    }

    /// Unpins `domain`; see [`SecureMonitor::unpin_domain`].
    pub fn unpin_domain(&mut self, domain: DomainId) {
        self.monitor.unpin_domain(domain);
    }

    /// Replaces the monitor's degradation policy. Pure bookkeeping.
    pub fn set_degradation_policy(&mut self, policy: DegradationPolicy) {
        self.monitor.set_degradation_policy(policy);
    }

    /// Runs one monitor op on `hart` with `current` banked to that hart's
    /// scheduled domain, then drains and delivers the shootdown. The
    /// returned cycle count includes the sender-side stall.
    ///
    /// When spans are enabled the op gets a span of `kind` covering its
    /// whole interval (monitor work + stall), and the delivery's child
    /// spans hang off it causally. `domain_of` names the domain the op
    /// was about, given its result.
    fn op<R>(
        &mut self,
        hart: u16,
        kind: SpanKind,
        domain_of: impl FnOnce(&R) -> Option<u32>,
        f: impl FnOnce(&mut SecureMonitor, &mut Machine<S>) -> Result<(R, u64), MonitorError>,
    ) -> Result<(R, u64), MonitorError> {
        self.monitor.set_current_unchecked(self.scheduled(hart));
        let begin = self.spans.is_enabled().then(|| self.global_cycles());
        let span = self.spans.reserve();
        let out = f(&mut self.monitor, self.mh.machine(hart));
        // Ops may have switched domains internally (destroy of the running
        // domain falls back to the host).
        self.scheduled[usize::from(hart)] = self.monitor.current();
        // Drain the shootdown list and the compaction breadcrumb even when
        // the op failed: an allocation that escalated through compaction
        // before being refused still *moved memory*, and remote harts must
        // observe that before anything else runs.
        let mut changed = std::mem::take(&mut self.changed);
        self.monitor.take_shootdowns(&mut changed);
        let note = self.monitor.take_compaction_note();
        // A failed op has no span for the delivery to hang off.
        let parent = if out.is_ok() { span } else { None };
        let delivered = self.deliver(hart, &changed, parent);
        let domain = changed.first().map(|d| d.0);
        self.changed = changed;
        let stall = delivered?;
        let (r, mut cycles) = out?;
        cycles += stall;
        if let (Some(id), Some(t0)) = (span, begin) {
            if let Some(n) = note {
                // The compaction stall, attributable inside the op span.
                self.spans.emit(
                    SpanKind::Compact,
                    hart,
                    domain,
                    Some(id),
                    t0 + n.offset,
                    t0 + n.offset + n.cycles,
                );
            }
            self.spans.emit_reserved(SpanEvent {
                id,
                parent: None,
                kind,
                hart,
                domain: domain_of(&r),
                begin: t0,
                end: t0 + cycles,
            });
        }
        Ok((r, cycles))
    }

    /// Delivers a shootdown from `hart` to every other hart and returns
    /// the sender's stall cycles. `changed` lists every domain whose
    /// holdings the op touched (several, when compaction ran) and picks
    /// reprogram targets; a plain fence broadcast passes an empty slice.
    /// Receivers are borrowed, not activated: reprogramming and fencing
    /// touch only their registers and caches, so physical memory stays
    /// with `from`.
    ///
    /// When spans are enabled, each receiver gets a child span chain under
    /// `parent`: an `ipi_send` on the sender (the doorbell write, charged
    /// to the sender but *not* part of its stall), then a
    /// `shootdown_recv` umbrella per receiver covering interconnect
    /// flight + trap + optional reprogram + fence, with those phases as
    /// its own children. The sender's stall is exactly the slowest
    /// receiver's umbrella (`ipi_latency + slowest ack`), which is what
    /// lets `hpmp-analyze timeline` attribute stall cycles to named
    /// receiver-side spans.
    fn deliver(
        &mut self,
        from: u16,
        changed: &[DomainId],
        parent: Option<u64>,
    ) -> Result<u64, MonitorError> {
        if self.suppress_shootdowns || self.mh.harts() == 1 {
            return Ok(0);
        }
        // Under the threaded backend the hart-local handler half
        // (invalidate + cycle charge) is deferred to the receiver's own
        // thread via its mailbox; everything that needs the monitor's
        // state — kind selection, reprogramming the register image — still
        // runs serially here, and the sender's stall is charged
        // identically. Receiver-side spans are skipped: the threaded
        // backend runs with spans disabled.
        let deferred = self.mh.threaded();
        let spans_on = self.spans.is_enabled() && !deferred;
        let t0 = if spans_on { self.global_cycles() } else { 0 };
        let ipi_post = self.mh.shootdown_cost().ipi_post;
        let ipi_latency = self.mh.shootdown_cost().ipi_latency;
        // All doorbells are written before the first receiver's flight
        // completes; receivers then handle concurrently.
        let t_sent = t0 + (self.mh.harts() as u64 - 1) * ipi_post;
        let domain = changed.first().map(|d| d.0);
        let mut posted = 0u64;
        let mut sender_cycles = 0;
        let mut slowest_ack = 0;
        for hart in 0..self.mh.harts() as u16 {
            if hart == from {
                continue;
            }
            let kind = if changed
                .iter()
                .any(|&d| self.monitor.image_depends(self.scheduled(hart), d))
            {
                IpiKind::Reprogram
            } else {
                IpiKind::FenceOnly
            };
            sender_cycles += self.mh.post_ipi(from, hart, kind);
            if spans_on {
                let t = t0 + posted * ipi_post;
                self.spans
                    .emit(SpanKind::IpiSend, from, domain, parent, t, t + ipi_post);
            }
            posted += 1;
            // Delivery is synchronous: the receiver traps immediately.
            let ipi = self.mh.take_ipi(hart).expect("IPI just posted");
            let mut handler = cost::TRAP_ROUND_TRIP;
            let mut reprogram_cycles = 0;
            if ipi.kind == IpiKind::Reprogram {
                // The scheduled domain may be the one just destroyed; a
                // real handler finds its domain gone and parks the hart in
                // the host.
                let mut sched = self.scheduled(hart);
                if self.monitor.regions_of(sched).is_err() {
                    sched = DomainId::HOST;
                    self.scheduled[usize::from(hart)] = sched;
                }
                self.monitor.set_current_unchecked(sched);
                reprogram_cycles = self.monitor.program_current(self.mh.peek_mut(hart))?;
                handler += reprogram_cycles;
            }
            handler += cost::FENCE;
            if deferred {
                self.mh.defer_shootdown(
                    hart,
                    DeferredShootdown {
                        kind: ipi.kind,
                        handler_cycles: handler,
                    },
                );
            } else {
                self.mh.peek_mut(hart).invalidate_isolation();
                self.mh.charge_shootdown(hart, handler);
            }
            slowest_ack = slowest_ack.max(handler);
            if spans_on {
                // The umbrella's width is ipi_latency + this receiver's
                // ack; the slowest sibling equals the sender's stall.
                let recv = self.spans.emit(
                    SpanKind::ShootdownRecv,
                    hart,
                    domain,
                    parent,
                    t_sent,
                    t_sent + ipi_latency + handler,
                );
                let mut t = t_sent + ipi_latency;
                self.spans.emit(
                    SpanKind::Trap,
                    hart,
                    domain,
                    recv,
                    t,
                    t + cost::TRAP_ROUND_TRIP,
                );
                t += cost::TRAP_ROUND_TRIP;
                if reprogram_cycles > 0 {
                    self.spans.emit(
                        SpanKind::Reprogram,
                        hart,
                        domain,
                        recv,
                        t,
                        t + reprogram_cycles,
                    );
                    t += reprogram_cycles;
                }
                self.spans
                    .emit(SpanKind::Fence, hart, domain, recv, t, t + cost::FENCE);
            }
        }
        // Restore the banked current to the initiating hart.
        self.monitor.set_current_unchecked(self.scheduled(from));
        let stall = self.mh.shootdown_cost().sender_stall(slowest_ack);
        self.mh.charge_fence_stall(from, stall);
        Ok(sender_cycles + stall)
    }

    /// Switches the system to the threaded execution backend. Call after
    /// all tenant setup; see
    /// [`hpmp_machine::MultiHartMachine::enable_threaded`]. Shootdowns
    /// posted by later ops are deferred to per-hart mailboxes and drained
    /// at epoch starts (or at [`SmpSystem::quiesce`]).
    pub fn enable_threaded(&mut self) {
        assert!(
            !self.spans.is_enabled(),
            "span collection requires the deterministic backend"
        );
        self.mh.enable_threaded();
    }

    /// Whether the threaded backend is active.
    pub fn threaded(&self) -> bool {
        self.mh.threaded()
    }

    /// Runs one parallel epoch across all harts; see
    /// [`hpmp_machine::MultiHartMachine::parallel_epoch`]. `body` must only
    /// run accesses/compute on its own machine — monitor ops stay in the
    /// serial phases between epochs.
    pub fn parallel_epoch<E, R>(
        &mut self,
        extras: &mut [E],
        body: impl Fn(u16, &mut Machine<S>, &mut E) -> R + Sync,
    ) -> Vec<R>
    where
        S: Send,
        E: Send,
        R: Send,
    {
        self.mh.parallel_epoch(extras, body)
    }

    /// Drains any still-deferred shootdowns, so a following
    /// [`SmpSystem::metrics_snapshot`] is complete. No-op under the
    /// deterministic backend.
    pub fn quiesce(&mut self) {
        self.mh.quiesce_threaded();
    }

    /// One merged snapshot: the multi-hart machine's `hart.<i>.*` and
    /// `smp.*` counters, the monitor's `monitor.*` counters, and the
    /// telemetry layer's own `trace.*` accounting (spans retained and
    /// dropped — overflow is visible, never silent).
    pub fn metrics_snapshot(&mut self) -> Snapshot {
        let mut trace = MetricsRegistry::new();
        trace.set("trace.spans", self.spans.len() as u64);
        trace.set("trace.dropped.spans", self.spans.dropped());
        self.mh
            .metrics_snapshot()
            .merge(&self.monitor.metrics_snapshot())
            .merge(&trace.snapshot())
    }

    /// Cross-layer accounting check, the SMP analogue of
    /// [`hpmp_machine::Machine::verify_accounting`]: every hart's own
    /// machine invariant must hold, every per-hart counter must reappear
    /// unchanged under `hart.<i>.*` in the merged snapshot, and the
    /// `smp.*` aggregates must equal the per-hart sums.
    ///
    /// # Errors
    ///
    /// Describes the first mismatch found.
    pub fn verify_accounting(&mut self) -> Result<(), String> {
        let merged = self.metrics_snapshot();
        let mut cycles = 0u64;
        let mut sent = 0u64;
        let mut received = 0u64;
        for hart in 0..self.mh.harts() as u16 {
            self.mh
                .peek(hart)
                .verify_accounting()
                .map_err(|e| format!("hart {hart}: {e}"))?;
            let own = self.mh.peek_mut(hart).metrics_snapshot();
            for (name, value) in own.iter() {
                let merged_name = format!("hart.{hart}.{name}");
                let got = merged.value(&merged_name);
                if got != value {
                    return Err(format!(
                        "merged snapshot says {merged_name} = {got} but hart {hart}'s \
                         own registry says {value}"
                    ));
                }
            }
            cycles += own.value("machine.cycles");
            sent += merged.value(&format!("hart.{hart}.ipis_sent"));
            received += merged.value(&format!("hart.{hart}.ipis_received"));
        }
        let checks = [
            ("smp.cycles", cycles),
            ("smp.ipis_sent", sent),
            ("smp.ipis_delivered", received),
            ("monitor.cycles", self.monitor.stats().cycles),
        ];
        for (name, want) in checks {
            let got = merged.value(name);
            if got != want {
                return Err(format!(
                    "merged snapshot says {name} = {got} but the per-hart sum is {want}"
                ));
            }
        }
        Ok(())
    }

    /// Flushes every hart's trace sink.
    pub fn flush_sinks(&mut self) {
        self.mh.flush_sinks();
    }

    /// Consumes the system, returning each hart's sink in hart order.
    pub fn into_sinks(self) -> Vec<S> {
        self.mh.into_sinks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RAM: PmpRegion = PmpRegion::new(PhysAddr::new(0x8000_0000), 1 << 30);

    fn boot(flavor: TeeFlavor, harts: usize) -> SmpSystem {
        SmpSystem::boot(MachineConfig::rocket(), flavor, RAM, harts).unwrap()
    }

    #[test]
    fn secondary_harts_boot_with_the_host_image() {
        let mut smp = boot(TeeFlavor::PenglaiHpmp, 4);
        let monitor_region = smp.monitor().monitor_region();
        for hart in 0..4 {
            assert_eq!(smp.scheduled(hart), DomainId::HOST);
            // Every hart's entry 0 protects the monitor.
            let m = smp.machine(hart);
            assert_eq!(m.regs().entry_region(0), Some(monitor_region));
        }
    }

    #[test]
    fn enclave_schedulable_on_one_hart_only() {
        let mut smp = boot(TeeFlavor::PenglaiHpmp, 2);
        let (id, _) = smp.create_domain_on(0, 1 << 20, GmsLabel::Slow).unwrap();
        smp.switch_on(0, id).unwrap();
        assert_eq!(
            smp.switch_on(1, id),
            Err(MonitorError::AlreadyScheduled(id))
        );
        // The host can run anywhere, including alongside itself.
        smp.switch_on(1, DomainId::HOST).unwrap();
        // Once hart 0 leaves the enclave, hart 1 may enter it.
        smp.switch_on(0, DomainId::HOST).unwrap();
        smp.switch_on(1, id).unwrap();
    }

    #[test]
    fn delivery_leaves_the_sender_active_and_reprograms_receivers() {
        // Harts 1-3 each run an enclave; hart 0 drives one grant per
        // enclave, so every receiver takes a Reprogram IPI once and a
        // FenceOnly IPI twice. Delivery borrows the receivers without
        // moving physical memory into them.
        let mut smp = boot(TeeFlavor::PenglaiHpmp, 4);
        let mut enclaves = Vec::new();
        for hart in 1..4 {
            let (id, _) = smp.create_domain_on(0, 1 << 20, GmsLabel::Slow).unwrap();
            smp.switch_on(hart, id).unwrap();
            enclaves.push(id);
        }
        let image = |m: &Machine| {
            let regs = m.regs();
            (0..regs.len())
                .map(|i| (regs.addr_reg(i), regs.cfg_reg(i)))
                .collect::<Vec<_>>()
        };
        let shootdowns = |smp: &mut SmpSystem, hart: u16| {
            smp.metrics_snapshot()
                .value(&format!("hart.{hart}.shootdowns"))
        };
        let before: Vec<u64> = (1..4).map(|hart| shootdowns(&mut smp, hart)).collect();
        for &id in &enclaves {
            smp.alloc_on(0, id, 1 << 20, GmsLabel::Fast).unwrap();
            assert_eq!(smp.mh.active(), 0, "delivery moved physical memory");
            for hart in 1..4u16 {
                // What program_current programs for the scheduled domain,
                // on a fresh hart booted like a secondary one.
                let mut monitor = smp.monitor.clone();
                let mut fresh = Machine::new(MachineConfig::rocket());
                fresh
                    .regs_mut()
                    .configure_segment(0, monitor.monitor_region(), hpmp_memsim::Perms::NONE)
                    .unwrap();
                monitor.set_current_unchecked(smp.scheduled(hart));
                monitor.program_current(&mut fresh).unwrap();
                assert_eq!(
                    image(smp.mh.peek(hart)),
                    image(&fresh),
                    "hart {hart} after the grant to {id:?}"
                );
            }
        }
        for hart in 1..4u16 {
            let taken = shootdowns(&mut smp, hart) - before[usize::from(hart) - 1];
            assert_eq!(taken, 3, "hart {hart}: one IPI per grant");
        }
    }

    #[test]
    fn alloc_reprograms_the_hart_running_the_domain() {
        // Domain runs on hart 1; a grant driven from hart 0 must land in
        // hart 1's register image via the Reprogram IPI.
        let mut smp = boot(TeeFlavor::PenglaiHpmp, 2);
        let (id, _) = smp.create_domain_on(0, 1 << 20, GmsLabel::Slow).unwrap();
        smp.switch_on(1, id).unwrap();
        let (region, _) = smp.alloc_on(0, id, 1 << 20, GmsLabel::Fast).unwrap();
        // A Fast GMS becomes a segment in the running image under HPMP:
        // hart 1 must now carry it.
        let carries =
            |m: &Machine| (0..m.regs().len()).any(|i| m.regs().entry_region(i) == Some(region));
        assert!(
            carries(smp.mh.peek(1)),
            "remote hart's image missed the reprogram IPI"
        );
        assert!(
            !carries(smp.mh.peek(0)),
            "host hart must not carry the enclave's segment"
        );
        let snap = smp.metrics_snapshot();
        assert!(snap.value("hart.1.shootdowns") >= 1);
        assert!(snap.value("hart.0.fence_stall_cycles") > 0);
    }

    #[test]
    fn destroy_while_scheduled_elsewhere_parks_that_hart_in_the_host() {
        let mut smp = boot(TeeFlavor::PenglaiHpmp, 2);
        let (id, _) = smp.create_domain_on(0, 1 << 20, GmsLabel::Slow).unwrap();
        smp.switch_on(1, id).unwrap();
        smp.destroy_domain_on(0, id).unwrap();
        assert_eq!(smp.scheduled(1), DomainId::HOST);
        // And the parked hart's oracle answer is the host's.
        let probe = PhysAddr::new(RAM.base.raw() + (1 << 29));
        assert!(smp.oracle_check_on(1, probe, AccessKind::Read));
    }

    #[test]
    fn suppressed_shootdowns_leave_remote_images_stale() {
        let mut smp = boot(TeeFlavor::PenglaiPmp, 2);
        let before: Vec<_> = {
            let m = smp.mh.peek(1);
            (0..m.regs().len()).map(|i| m.regs().addr_reg(i)).collect()
        };
        smp.set_shootdown_suppression(true);
        // A new enclave region must appear as a deny entry in every
        // PMP-flavour host image — but the IPI never arrives.
        smp.create_domain_on(0, 1 << 20, GmsLabel::Slow).unwrap();
        let after: Vec<_> = {
            let m = smp.mh.peek(1);
            (0..m.regs().len()).map(|i| m.regs().addr_reg(i)).collect()
        };
        assert_eq!(before, after, "suppression must freeze the remote image");
        let snap = smp.metrics_snapshot();
        assert_eq!(snap.value("hart.1.ipis_received"), 0);
    }

    #[test]
    fn single_hart_smp_matches_plain_monitor_costs() {
        // With one hart there is nobody to shoot down: op costs must equal
        // the single-hart monitor's exactly.
        let mut smp = boot(TeeFlavor::PenglaiHpmp, 1);
        let mut machine = Machine::new(MachineConfig::rocket());
        let mut mon = SecureMonitor::boot(&mut machine, TeeFlavor::PenglaiHpmp, RAM).unwrap();

        let (id_smp, c_smp) = smp.create_domain_on(0, 1 << 20, GmsLabel::Slow).unwrap();
        let (id_mon, c_mon) = mon
            .create_domain(&mut machine, 1 << 20, GmsLabel::Slow)
            .unwrap();
        assert_eq!(id_smp, id_mon);
        assert_eq!(c_smp, c_mon);
        assert_eq!(
            smp.switch_on(0, id_smp).unwrap(),
            mon.switch_to(&mut machine, id_mon).unwrap()
        );
    }

    #[test]
    fn ops_emit_causally_linked_shootdown_spans() {
        let mut smp = boot(TeeFlavor::PenglaiHpmp, 3);
        smp.enable_spans(1 << 16);
        let (id, cycles) = smp.create_domain_on(0, 1 << 20, GmsLabel::Slow).unwrap();

        let spans = smp.spans().spans().to_vec();
        let root = spans
            .iter()
            .find(|s| s.kind == SpanKind::CreateDomain)
            .expect("op span emitted");
        assert_eq!(root.hart, 0);
        assert_eq!(root.domain, Some(id.0));
        assert_eq!(root.cycles(), cycles, "op span covers the whole op");
        let recv: Vec<_> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::ShootdownRecv && s.parent == Some(root.id))
            .collect();
        assert_eq!(recv.len(), 2, "one umbrella per remote hart");
        // The sender's stall is exactly the slowest receiver umbrella.
        let snap = smp.metrics_snapshot();
        let slowest = recv.iter().map(|s| s.cycles()).max().unwrap();
        assert_eq!(snap.value("hart.0.fence_stall_cycles"), slowest);
        // Each umbrella decomposes into trap + fence (+ reprogram), and
        // the phase children sum to the umbrella minus the flight.
        for r in &recv {
            let phases: u64 = spans
                .iter()
                .filter(|s| s.parent == Some(r.id))
                .map(|s| s.cycles())
                .sum();
            assert_eq!(
                phases,
                r.cycles() - smp.machines().shootdown_cost().ipi_latency,
                "umbrella = flight + its phases"
            );
        }
        assert_eq!(snap.value("trace.dropped.spans"), 0);
        assert_eq!(snap.value("trace.spans"), spans.len() as u64);
    }

    #[test]
    fn span_overflow_is_counted_in_snapshots() {
        let mut smp = boot(TeeFlavor::PenglaiHpmp, 2);
        smp.enable_spans(1);
        smp.create_domain_on(0, 1 << 20, GmsLabel::Slow).unwrap();
        let snap = smp.metrics_snapshot();
        assert_eq!(snap.value("trace.spans"), 1);
        assert!(snap.value("trace.dropped.spans") > 0, "overflow must count");
    }

    #[test]
    fn spans_do_not_perturb_costs_or_counters() {
        let run = |spans: bool| {
            let mut smp = boot(TeeFlavor::PenglaiHpmp, 2);
            if spans {
                smp.enable_spans(1 << 16);
            }
            let (id, c1) = smp.create_domain_on(0, 1 << 20, GmsLabel::Slow).unwrap();
            let c2 = smp.switch_on(1, id).unwrap();
            let (_, c3) = smp.alloc_on(0, id, 1 << 20, GmsLabel::Fast).unwrap();
            (c1 + c2 + c3, smp.metrics_snapshot())
        };
        let (cycles_off, snap_off) = run(false);
        let (cycles_on, snap_on) = run(true);
        assert_eq!(cycles_off, cycles_on, "observation must not change costs");
        // Everything except the telemetry layer's own trace.* accounting
        // must be identical.
        let strip = |s: &Snapshot| -> Vec<(String, u64)> {
            s.iter()
                .filter(|(k, _)| !k.starts_with("trace."))
                .map(|(k, v)| (k.to_string(), v))
                .collect()
        };
        assert_eq!(strip(&snap_off), strip(&snap_on));
    }

    #[test]
    fn verify_accounting_holds_after_churn() {
        let mut smp = boot(TeeFlavor::PenglaiHpmp, 3);
        let (id, _) = smp.create_domain_on(0, 1 << 20, GmsLabel::Slow).unwrap();
        smp.switch_on(1, id).unwrap();
        let (region, _) = smp.alloc_on(0, id, 1 << 20, GmsLabel::Fast).unwrap();
        smp.free_on(0, id, region.base).unwrap();
        smp.verify_accounting().expect("counters must reconcile");
    }

    #[test]
    fn host_memory_is_shared_across_harts() {
        let mut smp = boot(TeeFlavor::PenglaiHpmp, 3);
        let addr = PhysAddr::new(RAM.base.raw() + (1 << 28));
        smp.machine(0).phys_mut().write_u64(addr, 0xabcd);
        assert_eq!(smp.machine(2).phys().read_u64(addr), 0xabcd);
        // Permission answer agrees everywhere while all run the host.
        for hart in 0..3 {
            assert!(smp.oracle_check_on(hart, addr, AccessKind::Write));
        }
    }
}
