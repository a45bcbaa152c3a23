//! A multi-hart machine: N cores with *private* microarchitectural state
//! (TLBs, PWC, PMPTW-Cache, PMP/HPMP register image) sharing one physical
//! memory.
//!
//! The paper's FPGA evaluation runs Penglai-HPMP on a multicore Rocket
//! SoC, where the costliest monitor path is cross-hart synchronization: a
//! change to one domain's holdings must be reflected on *every* hart whose
//! register image or permission caches could have observed the old state.
//! This type supplies the mechanics for that — per-hart [`Machine`]s, a
//! shared-memory discipline, an [`IpiFabric`], and per-hart
//! `hart.<i>.*` counters — while the policy (who gets a reprogram vs. a
//! fence) stays with the secure monitor, which knows each hart's scheduled
//! domain.
//!
//! ## Shared physical memory without sharing
//!
//! Every [`Machine`] owns its `PhysMem`; threading a shared one through
//! the walk path would ripple `Rc<RefCell<..>>` (or a lifetime) through
//! every layer for the benefit of exactly one caller. Instead the harts
//! take *turns* owning the one real `PhysMem`: [`MultiHartMachine::machine`]
//! O(1)-swaps it from the previously active hart into the requested one.
//! Only the active hart may touch memory — which is also true of the
//! simulation itself, since the deterministic interleaver steps one hart
//! at a time. The inactive harts hold empty placeholders; anything that
//! reads memory must go through [`MultiHartMachine::machine`] first.
//!
//! ## Determinism
//!
//! Hart interleaving is decided by [`HartScheduler`], a seeded SplitMix64
//! round-robin/weighted picker. No wall clock, no thread scheduling: the
//! same seed yields the same interleaving, so traces and metrics are
//! byte-identical at any `--jobs`.

use crate::machine::{Machine, MachineConfig};
use hpmp_core::{Ipi, IpiFabric, IpiKind, ShootdownCost};
use hpmp_memsim::SplitMix64;
use hpmp_trace::{Counters, MetricsRegistry, NullSink, Snapshot, TraceSink};

/// One hart's cross-hart synchronization counters, exported as
/// `hart.<i>.*`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HartCounters {
    /// Shootdown IPIs this hart posted.
    pub ipis_sent: u64,
    /// Shootdown IPIs this hart took.
    pub ipis_received: u64,
    /// Shootdown handlers this hart ran.
    pub shootdowns: u64,
    /// Cycles those handlers cost.
    pub shootdown_cycles: u64,
    /// Sender-side stall cycles waiting for shootdown acknowledgements.
    pub fence_stall_cycles: u64,
}

impl Counters for HartCounters {
    const NAMES: &'static [&'static str] = &[
        "ipis_sent",
        "ipis_received",
        "shootdowns",
        "shootdown_cycles",
        "fence_stall_cycles",
    ];

    fn values(&self) -> impl IntoIterator<Item = u64> {
        [
            self.ipis_sent,
            self.ipis_received,
            self.shootdowns,
            self.shootdown_cycles,
            self.fence_stall_cycles,
        ]
    }
}

/// N harts around one physical memory. See the module docs for the
/// ownership discipline.
#[derive(Debug)]
pub struct MultiHartMachine<S: TraceSink = NullSink> {
    pub(crate) harts: Vec<Machine<S>>,
    /// Which hart currently owns the real `PhysMem` (the canonical copy,
    /// under the threaded backend).
    pub(crate) active: usize,
    fabric: IpiFabric,
    cost: ShootdownCost,
    /// One per hart, in hart order.
    pub(crate) counters: Vec<HartCounters>,
    /// Threaded-backend state (per-hart shootdown mailboxes); `None`
    /// under the deterministic interleaver. See
    /// [`crate::threaded`].
    pub(crate) threaded: Option<crate::threaded::ThreadedState>,
}

impl MultiHartMachine {
    /// Builds `harts` identical tracing-free machines. Hart 0 starts as
    /// the owner of physical memory.
    pub fn new(config: MachineConfig, harts: usize) -> MultiHartMachine {
        MultiHartMachine::from_machines((0..harts).map(|_| Machine::new(config)).collect())
    }
}

impl<S: TraceSink> MultiHartMachine<S> {
    /// Wraps pre-built machines (e.g. each with its own trace sink). The
    /// first machine's `PhysMem` is taken as the canonical shared memory;
    /// the others' must still be empty.
    ///
    /// # Panics
    /// If `machines` is empty or longer than `u16::MAX` harts.
    pub fn from_machines(mut machines: Vec<Machine<S>>) -> MultiHartMachine<S> {
        assert!(!machines.is_empty(), "a machine needs at least one hart");
        assert!(machines.len() <= usize::from(u16::MAX), "too many harts");
        for (i, m) in machines.iter_mut().enumerate() {
            m.set_hart_id(i as u16);
        }
        let harts = machines.len();
        MultiHartMachine {
            harts: machines,
            active: 0,
            fabric: IpiFabric::new(harts),
            cost: ShootdownCost::DEFAULT,
            counters: vec![HartCounters::default(); harts],
            threaded: None,
        }
    }

    /// Number of harts.
    pub fn harts(&self) -> usize {
        self.harts.len()
    }

    /// The hart currently owning physical memory.
    pub fn active(&self) -> u16 {
        self.active as u16
    }

    /// The IPI cost calibration.
    pub fn shootdown_cost(&self) -> ShootdownCost {
        self.cost
    }

    /// Activates `hart` — moving the shared `PhysMem` into it — and
    /// returns it. O(1); a no-op when `hart` is already active.
    ///
    /// # Panics
    /// If `hart` is out of range.
    #[inline]
    pub fn machine(&mut self, hart: u16) -> &mut Machine<S> {
        let hart = usize::from(hart);
        if hart != self.active {
            let (a, b) = (self.active.min(hart), self.active.max(hart));
            let (lo, hi) = self.harts.split_at_mut(b);
            std::mem::swap(lo[a].phys_mut(), hi[0].phys_mut());
            self.active = hart;
        }
        &mut self.harts[hart]
    }

    /// Borrows `hart` *without* activating it. Its caches, registers,
    /// metrics and sink are valid; its `PhysMem` is only valid if `hart`
    /// is the active one.
    pub fn peek(&self, hart: u16) -> &Machine<S> {
        &self.harts[usize::from(hart)]
    }

    /// Mutably borrows `hart` without activating it. Same validity caveat
    /// as [`MultiHartMachine::peek`]: do not touch physical memory through
    /// this borrow unless `hart` is active.
    #[inline]
    pub fn peek_mut(&mut self, hart: u16) -> &mut Machine<S> {
        &mut self.harts[usize::from(hart)]
    }

    /// Posts a shootdown IPI from `from` to `to`, charging the sender the
    /// doorbell-write cost. Returns that cost.
    #[inline]
    pub fn post_ipi(&mut self, from: u16, to: u16, kind: IpiKind) -> u64 {
        assert_ne!(from, to, "a hart does not IPI itself");
        self.fabric.post(to, Ipi { from, kind });
        self.counters[usize::from(from)].ipis_sent += 1;
        let cost = self.cost.ipi_post;
        self.harts[usize::from(from)].charge_cycles(cost);
        cost
    }

    /// Takes `hart`'s pending IPI, counting the receipt. The caller (the
    /// SMP monitor layer) then performs and charges the handler work via
    /// [`MultiHartMachine::charge_shootdown`].
    #[inline]
    pub fn take_ipi(&mut self, hart: u16) -> Option<Ipi> {
        let ipi = self.fabric.take(hart);
        if ipi.is_some() {
            self.counters[usize::from(hart)].ipis_received += 1;
        }
        ipi
    }

    /// Charges one shootdown's receiver-side cost (trap, reprogram or
    /// fence, return) to `hart`: bumps `hart.<i>.shootdowns` and
    /// `hart.<i>.shootdown_cycles`, and folds the cycles into the hart's
    /// own cycle counter.
    #[inline]
    pub fn charge_shootdown(&mut self, hart: u16, cycles: u64) {
        let counters = &mut self.counters[usize::from(hart)];
        counters.shootdowns += 1;
        counters.shootdown_cycles += cycles;
        self.harts[usize::from(hart)].charge_cycles(cycles);
    }

    /// Charges the sender-side stall for a synchronous shootdown — the
    /// interconnect flight plus waiting for the slowest receiver's ack —
    /// to `hart` as `hart.<i>.fence_stall_cycles`.
    #[inline]
    pub fn charge_fence_stall(&mut self, hart: u16, cycles: u64) {
        self.counters[usize::from(hart)].fence_stall_cycles += cycles;
        self.harts[usize::from(hart)].charge_cycles(cycles);
    }

    /// Whether `hart` has an undelivered IPI (only under fault-injected
    /// suppression; the normal protocol is synchronous).
    pub fn ipi_pending(&self, hart: u16) -> bool {
        self.fabric.pending(hart)
    }

    /// Total machine cycles across all harts. Monotone and cheap (no
    /// snapshot allocation), this is the machine half of the global
    /// simulated clock that timeline slices and spans are stamped with.
    pub fn total_machine_cycles(&self) -> u64 {
        self.harts.iter().map(|m| m.stats().cycles).sum()
    }

    /// One merged snapshot: this driver's `hart.<i>.*` shootdown/fence
    /// counters, each hart's full machine snapshot re-prefixed under
    /// `hart.<i>.`, and `smp.*` aggregates (`smp.harts`, `smp.cycles` =
    /// total cycles across harts, `smp.ipis_sent/delivered/merged`).
    pub fn metrics_snapshot(&mut self) -> Snapshot {
        let mut merged = MetricsRegistry::new();
        let mut total_cycles = 0;
        for hart in 0..self.harts.len() {
            self.counters[hart].export(&mut merged, &format!("hart.{hart}"));
            let snap = self.harts[hart].metrics_snapshot();
            total_cycles += snap.value("machine.cycles");
            for (name, value) in snap.iter() {
                merged.set(format!("hart.{hart}.{name}"), value);
            }
        }
        merged.set("smp.harts", self.harts.len() as u64);
        merged.set("smp.cycles", total_cycles);
        merged.set("smp.ipis_sent", self.fabric.sent());
        merged.set("smp.ipis_delivered", self.fabric.delivered());
        merged.set("smp.ipis_merged", self.fabric.merged());
        merged.into_snapshot()
    }

    /// Flushes every hart's trace sink.
    pub fn flush_sinks(&mut self) {
        for m in &mut self.harts {
            m.flush_sink();
        }
    }

    /// Consumes the machine, returning each hart's sink in hart order.
    pub fn into_sinks(self) -> Vec<S> {
        self.harts.into_iter().map(Machine::into_sink).collect()
    }
}

/// Snapshot support for the bounded model checker: a clone is an
/// independent fork of the whole multi-hart state (harts, registers,
/// caches, the shared `PhysMem`, IPI fabric, counters) that the DFS can
/// mutate and discard without touching the original.
///
/// Only the deterministic backend can be forked — the threaded backend
/// owns OS threads and per-hart mailboxes that have no meaningful copy.
impl<S: TraceSink + Clone> Clone for MultiHartMachine<S> {
    fn clone(&self) -> MultiHartMachine<S> {
        assert!(
            self.threaded.is_none(),
            "cannot fork a MultiHartMachine while the threaded backend is active"
        );
        MultiHartMachine {
            harts: self.harts.clone(),
            active: self.active,
            fabric: self.fabric.clone(),
            cost: self.cost,
            counters: self.counters.clone(),
            threaded: None,
        }
    }
}

/// A deterministic hart interleaver: seeded, weighted, wall-clock-free.
///
/// Each call to [`HartScheduler::next_hart`] picks a hart with probability
/// proportional to its weight, from a [`SplitMix64`] stream. Equal weights
/// give a fair random interleaving; skewed weights model asymmetric load.
/// The sequence depends only on `(seed, weights)`, never on thread timing,
/// so multi-hart runs stay byte-identical at any `--jobs`.
#[derive(Clone, Debug)]
pub struct HartScheduler {
    rng: SplitMix64,
    weights: Vec<u64>,
    total: u64,
}

impl HartScheduler {
    /// A fair scheduler over `harts` harts.
    pub fn fair(seed: u64, harts: usize) -> HartScheduler {
        HartScheduler::weighted(seed, vec![1; harts])
    }

    /// A weighted scheduler; `weights[i]` is hart `i`'s relative share.
    ///
    /// # Panics
    /// If `weights` is empty or sums to zero.
    pub fn weighted(seed: u64, weights: Vec<u64>) -> HartScheduler {
        let total: u64 = weights.iter().sum();
        assert!(total > 0, "scheduler needs at least one positive weight");
        HartScheduler {
            rng: SplitMix64::seed_from_u64(seed),
            weights,
            total,
        }
    }

    /// The next hart to step.
    pub fn next_hart(&mut self) -> u16 {
        let mut pick = self.rng.gen_range(0..self.total);
        for (hart, &w) in self.weights.iter().enumerate() {
            if pick < w {
                return hart as u16;
            }
            pick -= w;
        }
        unreachable!("pick < total by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpmp_memsim::{PhysAddr, PrivMode};

    fn machine() -> MultiHartMachine {
        MultiHartMachine::new(MachineConfig::rocket(), 3)
    }

    #[test]
    fn phys_mem_follows_the_active_hart() {
        let mut mh = machine();
        let addr = PhysAddr::new(0x8000_0000);
        mh.machine(0).phys_mut().write_u64(addr, 0xdead_beef);
        assert_eq!(mh.machine(0).phys().read_u64(addr), 0xdead_beef);
        // Hart 2 sees the same memory once activated...
        assert_eq!(mh.machine(2).phys().read_u64(addr), 0xdead_beef);
        mh.machine(2).phys_mut().write_u64(addr, 0x1234);
        // ...and hart 0 sees hart 2's write.
        assert_eq!(mh.machine(0).phys().read_u64(addr), 0x1234);
        assert_eq!(mh.active(), 0);
    }

    #[test]
    fn harts_have_private_register_files() {
        use hpmp_core::PmpRegion;
        use hpmp_memsim::Perms;

        let mut mh = machine();
        mh.machine(1)
            .regs_mut()
            .configure_segment(
                0,
                PmpRegion::new(PhysAddr::new(0x8000_0000), 0x1000),
                Perms::RW,
            )
            .unwrap();
        assert!(mh.peek(1).regs().entry_region(0).is_some());
        assert!(
            mh.peek(0).regs().entry_region(0).is_none(),
            "register images are per-hart"
        );
        assert!(mh.peek(2).regs().entry_region(0).is_none());
    }

    #[test]
    fn events_carry_their_hart_id() {
        use hpmp_memsim::{AccessKind, FrameAllocator, VirtAddr, PAGE_SIZE};
        use hpmp_paging::{AddressSpace, TranslationMode};
        use hpmp_trace::RingSink;

        let machines = (0..2)
            .map(|_| Machine::with_sink(MachineConfig::rocket(), RingSink::new(8)))
            .collect();
        let mut mh = MultiHartMachine::from_machines(machines);
        let mut frames = FrameAllocator::new(PhysAddr::new(0x8000_0000), 8 * PAGE_SIZE);
        let space = {
            let m = mh.machine(1);
            AddressSpace::new(TranslationMode::Sv39, 1, m.phys_mut(), &mut frames).unwrap()
        };
        // An unmapped access faults, but still emits a trace event.
        let _ = mh.machine(1).access(
            &space,
            VirtAddr::new(0x10_0000),
            AccessKind::Read,
            PrivMode::Supervisor,
        );
        let ev = mh.peek(1).sink().latest().expect("event emitted");
        assert_eq!(ev.hart, 1);
    }

    #[test]
    fn ipi_counters_and_costs() {
        let mut mh = machine();
        let cost = mh.post_ipi(0, 1, IpiKind::Reprogram);
        assert_eq!(cost, ShootdownCost::DEFAULT.ipi_post);
        assert!(mh.ipi_pending(1));
        let ipi = mh.take_ipi(1).unwrap();
        assert_eq!(ipi.from, 0);
        mh.charge_shootdown(1, 500);
        mh.charge_fence_stall(0, 700);

        let snap = mh.metrics_snapshot();
        assert_eq!(snap.value("hart.0.ipis_sent"), 1);
        assert_eq!(snap.value("hart.1.ipis_received"), 1);
        assert_eq!(snap.value("hart.1.shootdowns"), 1);
        assert_eq!(snap.value("hart.1.shootdown_cycles"), 500);
        assert_eq!(snap.value("hart.0.fence_stall_cycles"), 700);
        assert_eq!(snap.value("smp.harts"), 3);
        assert_eq!(snap.value("smp.ipis_sent"), 1);
        assert_eq!(snap.value("smp.ipis_delivered"), 1);
        // Sync costs land in each hart's cycle counter, and smp.cycles
        // totals them.
        assert_eq!(snap.value("hart.0.machine.cycles"), cost + 700);
        assert_eq!(snap.value("hart.1.machine.cycles"), 500);
        assert_eq!(snap.value("smp.cycles"), cost + 700 + 500);
    }

    #[test]
    fn scheduler_is_deterministic_and_fair() {
        let picks = |seed| -> Vec<u16> {
            let mut s = HartScheduler::fair(seed, 4);
            (0..64).map(|_| s.next_hart()).collect()
        };
        assert_eq!(picks(7), picks(7), "same seed, same interleaving");
        assert_ne!(picks(7), picks(8), "different seed, different interleaving");
        let p = picks(7);
        for hart in 0..4u16 {
            assert!(p.contains(&hart), "hart {hart} never scheduled");
        }
    }

    #[test]
    fn weighted_scheduler_respects_weights() {
        let mut s = HartScheduler::weighted(3, vec![9, 1]);
        let picks: Vec<u16> = (0..200).map(|_| s.next_hart()).collect();
        let ones = picks.iter().filter(|&&h| h == 1).count();
        assert!(
            ones > 0 && ones < 80,
            "9:1 weighting grossly violated: {ones}/200"
        );
    }
}
