//! The one monitor-op vocabulary, the one tolerated-error rule and the
//! replayable schedules every monitor checker speaks.
//!
//! A [`Schedule`] is an explicit, totally ordered sequence of monitor ops,
//! each tagged with the hart that drives it. The bounded model checker
//! emits counterexamples in this form, the random batteries in
//! `tests/monitor_fuzz.rs` and `tests/shootdown.rs` record their resolved
//! ops in it, and a failure of any of them replays with [`boot_system`] +
//! [`Schedule::run`] + [`SmpSystem::fail_closed_violation`]. The text
//! format round-trips through [`Schedule::parse`] and `Display`, e.g.:
//!
//! ```text
//! h0:create h1:switch(1) h0:alloc(1,fast) h0:alloc(1,slow,192K) h1:free(1,0)
//! h0:corrupt(3,cfg,5) h0:flip(1,17) h0:drop-fence(1)
//! ```
//!
//! Domain ids in a schedule are the monitor's own deterministic ids
//! (`create` assigns 1, 2, … in order), so a schedule replayed against a
//! fresh boot resolves identically to the run that produced it.

use hpmp_core::{PmpRegion, PmptwCache};
use hpmp_machine::MachineConfig;
use hpmp_memsim::{AccessKind, PhysAddr, PrivMode};
use hpmp_penglai::{
    DegradeStage, DomainId, GmsLabel, MonitorError, SmpSystem, TeeFlavor, Violation,
};
use hpmp_trace::TraceSink;

/// Region size of a `create` or `alloc` that names none: 1 MiB.
pub(crate) const SMALL_REGION: u64 = 1 << 20;
/// Region size of a `big` allocation: 16 MiB. Three of these exhaust the
/// 64 MiB arena of a 128 MiB boot, which drives the monitor through its
/// compaction/table-only/admission ladder inside a small op bound.
pub(crate) const PRESSURE_REGION: u64 = 16 << 20;
/// Region a `drop-fence` op allocates and frees: 64 KiB.
const DROP_FENCE_REGION: u64 = 64 << 10;

/// One monitor operation, hart-agnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MonitorOp {
    /// `create[(size)]` — create an enclave with a `size`-byte initial
    /// region, [`GmsLabel::Slow`]; 1 MiB when the text names no size.
    Create {
        /// Initial region size in bytes.
        size: u64,
    },
    /// `destroy(d)` — destroy enclave `d`.
    Destroy(u32),
    /// `alloc(d,label[,size])` — allocate a `size`-byte region for `d`:
    /// 1 MiB when the text names no size, 16 MiB for `big`.
    Alloc {
        /// Owning domain id.
        domain: u32,
        /// Requested placement label.
        label: GmsLabel,
        /// Region size in bytes.
        size: u64,
    },
    /// `free(d,slot)` — free the `slot`-th region of `d`'s GMS list.
    Free {
        /// Owning domain id.
        domain: u32,
        /// Index into the domain's GMS list at issue time.
        slot: usize,
    },
    /// `relabel(d,slot,label)` — relabel the `slot`-th region of `d`.
    Relabel {
        /// Owning domain id.
        domain: u32,
        /// Index into the domain's GMS list at issue time.
        slot: usize,
        /// The new label.
        label: GmsLabel,
    },
    /// `switch(d)` / `switch(host)` — schedule domain `d` on the hart.
    Switch(u32),
    /// `corrupt(entry,addr|cfg,bit)` — a fault: flip one bit of the hart's
    /// address or config register `entry`, then scrub, which must repair
    /// it.
    CorruptReg {
        /// Register-file entry.
        entry: usize,
        /// The config register rather than the address register.
        cfg: bool,
        /// Bit to flip: below 8 for a config register, else below 64.
        bit: u8,
    },
    /// `flip(step,bit)` — a fault: flip one bit of the `step`-th pmpte the
    /// hart's walk to its scheduled domain's first region reads, then
    /// scrub (which must quarantine that domain), rebuild every
    /// quarantined table and scrub again (which must come back clean).
    FlipPmpte {
        /// Index into the walk's pmpte reads ([`pmpte_path`]).
        step: usize,
        /// Bit to flip, below 64.
        bit: u8,
    },
    /// `drop-fence(d)` — a fault: allocate and free a 64 KiB region for
    /// `d` with the hart's invalidation fences suppressed.
    DropFence(u32),
}

/// A [`MonitorOp`] driven from a specific hart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduledOp {
    /// The hart the op runs on.
    pub hart: u16,
    /// The operation.
    pub op: MonitorOp,
}

/// An explicit interleaving of monitor ops across harts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule(pub Vec<ScheduledOp>);

fn label_key(label: GmsLabel) -> &'static str {
    match label {
        GmsLabel::Fast => "fast",
        GmsLabel::Slow => "slow",
    }
}

fn parse_label(s: &str) -> Result<GmsLabel, String> {
    match s {
        "fast" => Ok(GmsLabel::Fast),
        "slow" => Ok(GmsLabel::Slow),
        other => Err(format!("unknown label `{other}`")),
    }
}

/// A size as the text form writes it: `<n>K` for whole KiB, else bytes.
fn size_text(size: u64) -> String {
    match size.is_multiple_of(1024) {
        true => format!("{}K", size / 1024),
        false => size.to_string(),
    }
}

fn parse_size(s: &str) -> Result<u64, String> {
    let (digits, unit) = s.strip_suffix('K').map_or((s, 1), |kib| (kib, 1024));
    let size = digits.parse::<u64>().ok().and_then(|n| n.checked_mul(unit));
    size.ok_or_else(|| format!("bad size `{s}`"))
}

impl std::fmt::Display for MonitorOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            MonitorOp::Create { size: SMALL_REGION } => f.write_str("create"),
            MonitorOp::Create { size } => write!(f, "create({})", size_text(size)),
            MonitorOp::Destroy(d) => write!(f, "destroy({d})"),
            MonitorOp::Alloc {
                domain,
                label,
                size,
            } => {
                write!(f, "alloc({domain},{}", label_key(label))?;
                match size {
                    SMALL_REGION => {}
                    PRESSURE_REGION => f.write_str(",big")?,
                    size => write!(f, ",{}", size_text(size))?,
                }
                f.write_str(")")
            }
            MonitorOp::Free { domain, slot } => write!(f, "free({domain},{slot})"),
            MonitorOp::Relabel {
                domain,
                slot,
                label,
            } => write!(f, "relabel({domain},{slot},{})", label_key(label)),
            MonitorOp::Switch(d) if d == DomainId::HOST.0 => f.write_str("switch(host)"),
            MonitorOp::Switch(d) => write!(f, "switch({d})"),
            MonitorOp::CorruptReg { entry, cfg, bit } => {
                let reg = if cfg { "cfg" } else { "addr" };
                write!(f, "corrupt({entry},{reg},{bit})")
            }
            MonitorOp::FlipPmpte { step, bit } => write!(f, "flip({step},{bit})"),
            MonitorOp::DropFence(d) => write!(f, "drop-fence({d})"),
        }
    }
}

impl std::fmt::Display for ScheduledOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h{}:{}", self.hart, self.op)
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, op) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{op}")?;
        }
        Ok(())
    }
}

impl ScheduledOp {
    fn parse(tok: &str) -> Result<ScheduledOp, String> {
        let (hart_part, op_part) = tok
            .split_once(':')
            .ok_or_else(|| format!("expected h<hart>:<op>, got `{tok}`"))?;
        let hart: u16 = hart_part
            .strip_prefix('h')
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("bad hart tag `{hart_part}`"))?;
        let (name, args) = match op_part.split_once('(') {
            None => (op_part, Vec::new()),
            Some((name, rest)) => {
                let inner = rest
                    .strip_suffix(')')
                    .ok_or_else(|| format!("unclosed args in `{op_part}`"))?;
                (name, inner.split(',').map(str::trim).collect())
            }
        };
        let arg = |idx: usize| -> Result<&str, String> {
            args.get(idx)
                .copied()
                .ok_or_else(|| format!("`{op_part}` is missing argument {idx}"))
        };
        let domain = |idx: usize| -> Result<u32, String> {
            match arg(idx)? {
                "host" => Ok(DomainId::HOST.0),
                raw => raw
                    .parse()
                    .map_err(|_| format!("bad domain id `{raw}` in `{op_part}`")),
            }
        };
        let index = |idx: usize, below: usize| -> Result<usize, String> {
            arg(idx)?
                .parse()
                .ok()
                .filter(|&n| n < below)
                .ok_or_else(|| format!("bad argument {idx} in `{op_part}`"))
        };
        let op = match name {
            "create" => MonitorOp::Create {
                size: match args.first() {
                    None => SMALL_REGION,
                    Some(size) => parse_size(size)?,
                },
            },
            "destroy" => MonitorOp::Destroy(domain(0)?),
            "alloc" => MonitorOp::Alloc {
                domain: domain(0)?,
                label: parse_label(arg(1)?)?,
                size: match args.get(2) {
                    None => SMALL_REGION,
                    Some(&"big") => PRESSURE_REGION,
                    Some(size) => parse_size(size)?,
                },
            },
            "free" => MonitorOp::Free {
                domain: domain(0)?,
                slot: index(1, usize::MAX)?,
            },
            "relabel" => MonitorOp::Relabel {
                domain: domain(0)?,
                slot: index(1, usize::MAX)?,
                label: parse_label(arg(2)?)?,
            },
            "switch" => MonitorOp::Switch(domain(0)?),
            "corrupt" => {
                let cfg = match arg(1)? {
                    "addr" => false,
                    "cfg" => true,
                    other => return Err(format!("unknown register `{other}` in `{op_part}`")),
                };
                MonitorOp::CorruptReg {
                    entry: index(0, usize::MAX)?,
                    cfg,
                    bit: index(2, if cfg { 8 } else { 64 })? as u8,
                }
            }
            "flip" => MonitorOp::FlipPmpte {
                step: index(0, usize::MAX)?,
                bit: index(1, 64)? as u8,
            },
            "drop-fence" => MonitorOp::DropFence(domain(0)?),
            other => return Err(format!("unknown op `{other}`")),
        };
        Ok(ScheduledOp { hart, op })
    }
}

/// A fault deliberately planted at boot, to demonstrate that the checkers
/// find the bug class they guard against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Plant {
    /// No fault: the property is expected to hold.
    #[default]
    None,
    /// Suppress cross-hart shootdown delivery ([`SmpSystem::
    /// set_shootdown_suppression`]): remote harts keep stale register
    /// images and cached grants — the exact window the shootdown protocol
    /// exists to close.
    SuppressShootdowns,
}

impl std::fmt::Display for Plant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Plant::None => "none",
            Plant::SuppressShootdowns => "suppress-shootdown",
        })
    }
}

/// The system a schedule runs on: what [`boot_system`] builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Boot {
    /// TEE flavour.
    pub flavor: TeeFlavor,
    /// Number of harts.
    pub harts: usize,
    /// RAM in MiB. The model checker's default 128 leaves a 64 MiB region
    /// arena, so `big` allocations reach the degradation ladder within a
    /// small bound.
    pub ram_mib: u64,
    /// Planted fault, if any.
    pub plant: Plant,
}

impl Default for Boot {
    fn default() -> Boot {
        Boot {
            flavor: TeeFlavor::PenglaiHpmp,
            harts: 2,
            ram_mib: 128,
            plant: Plant::None,
        }
    }
}

/// Why [`boot_system`] could not boot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BootError {
    /// The boot asks for no harts, or for more than hart ids can name.
    Harts(usize),
    /// The monitor refused the RAM (too small for its layout).
    Ram(MonitorError),
}

impl std::fmt::Display for BootError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BootError::Harts(n) => write!(f, "a system has 1 to 65535 harts, not {n}"),
            BootError::Ram(e) => write!(f, "the monitor cannot boot: {e}"),
        }
    }
}

impl std::error::Error for BootError {}

/// Boots `boot` (applying the planted fault): the one boot path of the
/// model checker, the random batteries and every replay.
///
/// # Errors
///
/// [`BootError`] when `boot` asks for no harts, more than hart ids can
/// name, or too little RAM.
pub fn boot_system(boot: &Boot) -> Result<SmpSystem, BootError> {
    if !(1..=usize::from(u16::MAX)).contains(&boot.harts) {
        return Err(BootError::Harts(boot.harts));
    }
    let ram = PmpRegion::new(PhysAddr::new(0x8000_0000), boot.ram_mib << 20);
    let mut smp = SmpSystem::boot(MachineConfig::rocket(), boot.flavor, ram, boot.harts)
        .map_err(BootError::Ram)?;
    smp.set_shootdown_suppression(boot.plant == Plant::SuppressShootdowns);
    Ok(smp)
}

/// An issued op's outcome: the region an `alloc` placed, or the monitor's
/// refusal. Refusals are outcomes, not replay failures — a refused
/// allocation may still have compacted memory and shot down remote harts.
pub type Outcome = Result<Option<PmpRegion>, MonitorError>;

impl Schedule {
    /// Parses the whitespace-separated text form. Empty input is the empty
    /// schedule.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the first malformed token.
    pub fn parse(text: &str) -> Result<Schedule, String> {
        text.split_whitespace()
            .map(ScheduledOp::parse)
            .collect::<Result<Vec<_>, _>>()
            .map(Schedule)
    }

    /// Applies every op in order to `smp`, returning each op's outcome.
    ///
    /// # Errors
    ///
    /// As [`apply`]: only when an op cannot be issued at all.
    pub fn run<S: TraceSink>(&self, smp: &mut SmpSystem<S>) -> Result<Vec<Outcome>, String> {
        self.0.iter().map(|s| apply(smp, *s)).collect()
    }
}

/// The pmpte addresses `hart`'s fast path reads on its way to the first
/// region of its scheduled domain, in walk order; empty when that domain
/// has no region or the walk reads no table.
pub fn pmpte_path<S: TraceSink>(smp: &SmpSystem<S>, hart: u16) -> Vec<PhysAddr> {
    let regions = smp.monitor().regions_of(smp.scheduled(hart));
    let Some(base) = regions.ok().and_then(|g| g.first()).map(|g| g.region.base) else {
        return Vec::new();
    };
    let mem = smp.machines().peek(smp.machines().active()).phys();
    let regs = smp.machines().peek(hart).regs();
    let mut cache = PmptwCache::disabled();
    let out = regs.check(
        mem,
        &mut cache,
        base,
        AccessKind::Read,
        PrivMode::Supervisor,
    );
    out.refs.iter().map(|r| r.addr).collect()
}

/// The GMS slot of `domain`'s region at `base`: what a `free` or
/// `relabel` names to act on that region.
pub fn slot_of<S: TraceSink>(smp: &SmpSystem<S>, domain: u32, base: PhysAddr) -> Option<usize> {
    let regions = smp.monitor().regions_of(DomainId(domain)).ok()?;
    regions.iter().position(|g| g.region.base == base)
}

/// Applies one scheduled op.
///
/// # Errors
///
/// Fails only when the op cannot be *issued* at all: it names a hart, a
/// domain, a region slot, a register or a walk step that does not exist at
/// that point (the schedule is being replayed against a different boot
/// state than the one that produced it), or it is a fault op on a system
/// of more than one hart.
pub fn apply<S: TraceSink>(smp: &mut SmpSystem<S>, s: ScheduledOp) -> Result<Outcome, String> {
    let hart = s.hart;
    if usize::from(hart) >= smp.harts() {
        return Err(format!("op `{s}` names a hart of {}", smp.harts()));
    }
    // The monitor keeps one shadow register image, so `scrub_on` and
    // `rebuild_on` refuse systems of several harts; refusing here keeps
    // the fault itself from landing first.
    let fault = matches!(
        s.op,
        MonitorOp::CorruptReg { .. } | MonitorOp::FlipPmpte { .. } | MonitorOp::DropFence(_)
    );
    if fault && smp.harts() > 1 {
        return Err(format!("fault op `{s}` needs a 1-hart system"));
    }
    let region_base = |smp: &SmpSystem<S>, domain: u32, slot: usize| {
        let gmss = smp
            .monitor()
            .regions_of(DomainId(domain))
            .map_err(|e| format!("op `{s}` names a dead domain: {e}"))?;
        gmss.get(slot).map(|g| g.region.base).ok_or_else(|| {
            format!(
                "op `{s}` names slot {slot} but the domain has {} regions",
                gmss.len()
            )
        })
    };
    let none = |r: Result<u64, MonitorError>| r.map(|_| None);
    let out = match s.op {
        MonitorOp::Create { size } => smp
            .create_domain_on(hart, size, GmsLabel::Slow)
            .map(|_| None),
        MonitorOp::Destroy(d) => none(smp.destroy_domain_on(hart, DomainId(d))),
        MonitorOp::Alloc {
            domain,
            label,
            size,
        } => smp
            .alloc_on(hart, DomainId(domain), size, label)
            .map(|(region, _)| Some(region)),
        MonitorOp::Free { domain, slot } => {
            let base = region_base(smp, domain, slot)?;
            none(smp.free_on(hart, DomainId(domain), base))
        }
        MonitorOp::Relabel {
            domain,
            slot,
            label,
        } => {
            let base = region_base(smp, domain, slot)?;
            none(smp.relabel_on(hart, DomainId(domain), base, label))
        }
        MonitorOp::Switch(d) => none(smp.switch_on(hart, DomainId(d))),
        MonitorOp::CorruptReg { entry, cfg, bit } => {
            let regs = smp.machine(hart).regs_mut();
            if entry >= regs.len() || bit >= if cfg { 8 } else { 64 } {
                return Err(format!("op `{s}` names a bit of {} entries", regs.len()));
            }
            if cfg {
                regs.corrupt_cfg(entry, 1 << bit);
            } else {
                regs.corrupt_addr(entry, 1 << bit);
            }
            let domain = smp.scheduled(hart);
            smp.scrub_on(hart).and_then(|scrub| {
                let repaired = scrub.repaired_registers > 0;
                repaired
                    .then_some(None)
                    .ok_or(MonitorError::IntegrityLost(domain))
            })
        }
        MonitorOp::FlipPmpte { step, bit } => {
            let path = pmpte_path(smp, hart);
            let Some(&target) = path.get(step).filter(|_| bit < 64) else {
                return Err(format!(
                    "op `{s}` names a bit of a {}-pmpte walk",
                    path.len()
                ));
            };
            let m = smp.machine(hart);
            let word = m.phys().read_u64(target);
            m.phys_mut().write_u64(target, word ^ (1 << bit));
            m.sfence_vma_all();
            flip_recovery(smp, hart)
        }
        MonitorOp::DropFence(d) => {
            smp.machine(hart).set_fence_suppression(true);
            let out = smp
                .alloc_on(hart, DomainId(d), DROP_FENCE_REGION, GmsLabel::Slow)
                .and_then(|(region, _)| smp.free_on(hart, DomainId(d), region.base));
            smp.machine(hart).set_fence_suppression(false);
            none(out)
        }
    };
    Ok(out)
}

/// The scrub, rebuild and re-scrub after a pmpte flip on `hart`'s walk.
fn flip_recovery<S: TraceSink>(smp: &mut SmpSystem<S>, hart: u16) -> Outcome {
    let domain = smp.scheduled(hart);
    let scrub = smp.scrub_on(hart)?;
    if !scrub.corrupt_domains.contains(&domain) {
        return Err(MonitorError::IntegrityLost(domain));
    }
    for d in scrub.corrupt_domains {
        smp.rebuild_on(hart, d)?;
    }
    if !smp.scrub_on(hart)?.clean() {
        return Err(MonitorError::IntegrityLost(domain));
    }
    Ok(None)
}

/// The one tolerated-error rule: may op `s`, just applied to `smp`, have
/// been refused with `e`? Destroy, free and the register and pmpte faults
/// tolerate nothing. A switch tolerates running out of PMP entries, and
/// [`MonitorError::AlreadyScheduled`] only while the target runs on
/// another hart. A relabel tolerates running out of PMP entries or memory.
/// Create, alloc and the dropped-fence churn tolerate those two, and
/// admission backpressure while the monitor is in
/// [`DegradeStage::Admission`].
pub fn tolerated<S: TraceSink>(smp: &SmpSystem<S>, s: ScheduledOp, e: MonitorError) -> bool {
    use MonitorError::{AlreadyScheduled, OutOfMemory, OutOfPmpEntries, ResourceExhausted};
    let admission = smp.monitor().degrade_stage() == DegradeStage::Admission;
    match s.op {
        MonitorOp::Switch(d) => {
            let elsewhere =
                (0..smp.harts() as u16).any(|h| h != s.hart && smp.scheduled(h) == DomainId(d));
            e == OutOfPmpEntries || (e == AlreadyScheduled(DomainId(d)) && elsewhere)
        }
        MonitorOp::Relabel { .. } => matches!(e, OutOfPmpEntries | OutOfMemory),
        MonitorOp::Create { .. } | MonitorOp::Alloc { .. } | MonitorOp::DropFence(_) => {
            matches!(e, OutOfPmpEntries | OutOfMemory)
                || (matches!(e, ResourceExhausted { .. }) && admission)
        }
        _ => false,
    }
}

/// Why a checked step failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepError {
    /// The op could not be issued ([`apply`]'s error).
    Unissuable(String),
    /// The monitor refused the op with an error [`tolerated`] rejects.
    Untolerated(MonitorError),
    /// The fail-closed check found a broken invariant after the op.
    Violation(Violation),
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::Unissuable(why) => f.write_str(why),
            StepError::Untolerated(e) => write!(f, "untolerated refusal: {e}"),
            StepError::Violation(v) => write!(f, "leaves {v}"),
        }
    }
}

/// One checked step: applies `s`, holds a refusal to [`tolerated`], then
/// runs the one fail-closed check ([`SmpSystem::fail_closed_violation`]).
///
/// # Errors
///
/// The first of the three that fails.
pub fn checked_apply<S: TraceSink>(
    smp: &mut SmpSystem<S>,
    s: ScheduledOp,
) -> Result<Outcome, StepError> {
    let outcome = apply(smp, s).map_err(StepError::Unissuable)?;
    if let Err(e) = outcome {
        if !tolerated(smp, s, e) {
            return Err(StepError::Untolerated(e));
        }
    }
    match smp.fail_closed_violation() {
        Some(v) => Err(StepError::Violation(v)),
        None => Ok(outcome),
    }
}

/// A booted system driven one [`checked_apply`] at a time, keeping the
/// schedule applied so far. `Display` renders the boot and the schedule,
/// which [`boot_system`] + [`Schedule::run`] replay.
#[derive(Clone, Debug)]
pub struct CheckedRun {
    /// The boot the run started from.
    pub boot: Boot,
    /// The system.
    pub smp: SmpSystem,
    /// Every op applied so far, a failing one last.
    pub schedule: Schedule,
}

impl std::fmt::Display for CheckedRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?} schedule `{}`", self.boot, self.schedule)
    }
}

impl CheckedRun {
    /// Boots `boot` with an empty schedule.
    ///
    /// # Errors
    ///
    /// As [`boot_system`].
    pub fn boot(boot: Boot) -> Result<CheckedRun, BootError> {
        let smp = boot_system(&boot)?;
        let schedule = Schedule::default();
        Ok(CheckedRun {
            boot,
            smp,
            schedule,
        })
    }

    /// Records `s` and applies it through [`checked_apply`].
    ///
    /// # Errors
    ///
    /// As [`checked_apply`]; the run then replays to the failure.
    pub fn step(&mut self, s: ScheduledOp) -> Result<Outcome, StepError> {
        self.schedule.0.push(s);
        checked_apply(&mut self.smp, s)
    }

    /// Steps through every op of `schedule`.
    ///
    /// # Errors
    ///
    /// As [`CheckedRun::step`], at the first failing op.
    pub fn run(&mut self, schedule: &Schedule) -> Result<(), StepError> {
        schedule
            .0
            .iter()
            .try_for_each(|&s| self.step(s).map(|_| ()))
    }
}
