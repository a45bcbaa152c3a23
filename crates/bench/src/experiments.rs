//! The paper's experiments as values.
//!
//! Each [`Experiment`] runs against one trace sink and returns an
//! [`Outcome`]: its [`Report`] tables, the merged metrics [`Snapshot`] of
//! every machine it drove, the telemetry `multihart` records, and the typed
//! [`Values`] that the reproduction's claims table reads. `repro` renders
//! the tables in presentation order; nothing here prints.
//!
//! Absolute cycle counts come from the simulated SoC, not the authors'
//! FPGA; the *shapes* (who wins, by what factor, where crossovers are) are
//! the reproduction targets — see EXPERIMENTS.md.

use std::fmt;

use hpmp_core::{estimate_resources, HardwareParams, PmpRegion, PmptwCacheConfig};
use hpmp_machine::{
    IsolationScheme, Machine, MachineConfig, RefBreakdown, SystemBuilder, VirtRefBreakdown,
    VirtScheme,
};
use hpmp_memsim::{AccessKind, CoreKind, Perms, PhysAddr, PrivMode, VirtAddr};
use hpmp_paging::TranslationMode;
use hpmp_penglai::{DomainId, GmsLabel, MonitorError, OsError, SecureMonitor, TeeFlavor};
use hpmp_trace::{Snapshot, TraceSink};
use hpmp_workloads::frag::{PaLayout, VaLayout};
use hpmp_workloads::latency::{
    figure_10_panel, measure_virt_with_sink, LatencyRow, TestCase, VirtCase, VIRT_CASES,
};
use hpmp_workloads::lmbench::{self, Syscall};
use hpmp_workloads::serverless::{self, Function};
use hpmp_workloads::smp::{run_smp_with, spec_for, SmpTelemetry, SmpTelemetrySpec};
use hpmp_workloads::{frag, gap, redis, rv8, TeeBench, FLAVORS};

use crate::{pct, pct_f, Report};

/// Declares [`Experiment`], [`Experiment::ALL`] and [`Experiment::name`]
/// from one list, so a name and its variant cannot drift apart.
macro_rules! experiments {
    ($($(#[$doc:meta])* $variant:ident = $name:literal,)*) => {
        /// One experiment of the reproduction. [`Experiment::ALL`] lists
        /// them in presentation order.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Experiment {
            $($(#[$doc])* $variant,)*
        }

        impl Experiment {
            /// Every experiment, in presentation order.
            pub const ALL: [Experiment; [$($name),*].len()] = [$(Experiment::$variant),*];

            /// The experiment's command-line name.
            pub fn name(self) -> &'static str {
                match self {
                    $(Experiment::$variant => $name,)*
                }
            }
        }
    };
}

experiments! {
    /// Table 1: simulation configurations.
    Table1 = "table1",
    /// Figures 2/4: memory references per cold TLB-miss access.
    Fig2 = "fig2",
    /// Figure 10: ld/sd latency for TC1–TC4 on both cores.
    Fig10 = "fig10",
    /// Table 3: LMBench syscall costs.
    Table3 = "table3",
    /// Figure 11: RV8 and GAP.
    Fig11 = "fig11",
    /// Figure 12-a/b/c: FunctionBench and the image-processing chain.
    Fig12ac = "fig12ac",
    /// Figure 12-d/e: Redis RPS.
    Fig12de = "fig12de",
    /// Figure 13: virtualized access latency.
    Fig13 = "fig13",
    /// Figure 14: TEE operation costs.
    Fig14 = "fig14",
    /// Figure 15: fragmentation.
    Fig15 = "fig15",
    /// Figure 16: the PMPTW-Cache.
    Fig16 = "fig16",
    /// Figure 17: FunctionBench with 8 vs 32 PWC entries.
    Fig17 = "fig17",
    /// Table 4: hardware resource costs (analytic substitute).
    Table4 = "table4",
    /// Figure 3: the preview chart.
    Fig3 = "fig3",
    /// Extension: the translation-depth sweep.
    Svsweep = "svsweep",
    /// Extension: key-value throughput in a guest.
    Virtapp = "virtapp",
    /// Extension: 100-tenant packing.
    Tenancy = "tenancy",
    /// Extension: memory-encryption interaction.
    Encryption = "encryption",
    /// Extension: multi-hart scaling.
    Multihart = "multihart",
}

impl Experiment {
    /// The experiment named `name`, if there is one.
    pub fn parse(name: &str) -> Option<Experiment> {
        Experiment::ALL.into_iter().find(|e| e.name() == name)
    }

    /// Runs the experiment, recording the walk events of every machine it
    /// drives into `sink`. `multihart`'s 4-hart HPMP run records the
    /// telemetry `telemetry` asks for; its harts record no walk events,
    /// since each would need a sink of its own.
    ///
    /// # Errors
    ///
    /// The first error a workload, the monitor or a machine returned.
    pub fn run<S: TraceSink>(
        self,
        sink: &mut S,
        telemetry: SmpTelemetrySpec,
    ) -> std::result::Result<Outcome, ExperimentError> {
        let mut out = Outcome::default();
        match self {
            Experiment::Table1 => table1(&mut out),
            Experiment::Fig2 => fig2(&mut out, sink)?,
            Experiment::Fig10 => fig10(&mut out, sink),
            Experiment::Table3 => table3(&mut out, sink)?,
            Experiment::Fig11 => fig11(&mut out, sink)?,
            Experiment::Fig12ac => fig12ac(&mut out, sink)?,
            Experiment::Fig12de => fig12de(&mut out, sink)?,
            Experiment::Fig13 => fig13(&mut out, sink),
            Experiment::Fig14 => fig14(&mut out, sink)?,
            Experiment::Fig15 => fig15(&mut out, sink),
            Experiment::Fig16 => fig16(&mut out, sink),
            Experiment::Fig17 => fig17(&mut out, sink)?,
            Experiment::Table4 => table4(&mut out),
            Experiment::Fig3 => fig3(&mut out, sink)?,
            Experiment::Svsweep => svsweep(&mut out, sink)?,
            Experiment::Virtapp => virtapp(&mut out, sink),
            Experiment::Tenancy => tenancy(&mut out, sink)?,
            Experiment::Encryption => encryption(&mut out, sink)?,
            Experiment::Multihart => multihart(&mut out, telemetry)?,
        }
        sink.flush();
        Ok(out)
    }
}

/// Everything one experiment produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Its tables, in print order.
    pub reports: Vec<Report>,
    /// The merged metrics snapshot of every machine it drove (empty for
    /// `table1` and `table4`, which drive none).
    pub snapshot: Snapshot,
    /// Time-resolved artifacts (recorded by `multihart` only).
    pub telemetry: SmpTelemetry,
    /// The typed numbers its claims read.
    pub values: Values,
}

impl Outcome {
    fn merge(&mut self, snapshot: &Snapshot) {
        self.snapshot = self.snapshot.merge(snapshot);
    }
}

/// The typed numbers behind an experiment's tables that the claims table
/// reads. Per-flavour arrays are in `[PMP, PMPT, HPMP]` order unless a
/// variant says otherwise.
#[derive(Clone, Debug, Default)]
pub enum Values {
    /// The experiment's claims read its tables alone, or it has none.
    #[default]
    None,
    /// Figures 2/4: each scheme's cold Sv39 miss references (Rocket).
    Refs(Vec<(IsolationScheme, RefBreakdown)>),
    /// Figure 10: one panel per core and operation.
    Latency(Vec<(CoreKind, AccessKind, Vec<LatencyRow>)>),
    /// Table 3: cycles per call of each syscall (BOOM).
    Syscalls(Vec<(Syscall, [u64; 3])>),
    /// Figure 12-a/b/c: mean cycles per FunctionBench invocation, and the
    /// image chain's cycles per image size (Rocket).
    Serverless {
        /// `(core, function, cycles per flavour)`.
        functions: Vec<(CoreKind, Function, [u64; 3])>,
        /// `(image side in pixels, cycles per flavour)`.
        chain: Vec<(u64, [u64; 3])>,
    },
    /// Figure 13: cycles per case in `[PMPT, HPMP, HPMP-GPT, PMP]` order,
    /// and each scheme's references on the cold (TC1) access.
    Virt {
        /// `(case, cycles per scheme)`.
        cycles: Vec<(VirtCase, [u64; 4])>,
        /// The TC1 access's references per scheme.
        cold_refs: Vec<(VirtScheme, VirtRefBreakdown)>,
    },
    /// Figure 14: switch cycles per domain count under `[PMP, HPMP]`
    /// (`None`: no PMP entry was left), and the 64 KiB regions each of
    /// those flavours allocated out of 100.
    Tee {
        /// `(domains, switch cycles per flavour)`.
        switch: Vec<(u32, [Option<u64>; 2])>,
        /// Regions allocated per flavour.
        regions: [usize; 2],
    },
    /// Figure 15: total cycles per native layout.
    Frag(Vec<(PaLayout, VaLayout, [u64; 3])>),
    /// Figure 16: cycles per VA layout in `[PMPT, PMPT-Cache, HPMP,
    /// HPMP-Cache, PMP]` order.
    Caching(Vec<(VaLayout, [u64; 5])>),
    /// Figure 17: mean cycles per function in `[PMP(8), PMP(32), PMPT(8),
    /// PMPT(32), HPMP(8), HPMP(32)]` order.
    Pwc(Vec<(Function, [u64; 6])>),
}

/// Why an experiment stopped before its tables were complete.
#[derive(Debug)]
pub enum ExperimentError {
    /// A workload, the monitor or a machine refused an operation.
    Os(OsError),
    /// The named SMP workload has no shape to run.
    NoSmpShape(&'static str),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Os(e) => e.fmt(f),
            ExperimentError::NoSmpShape(name) => write!(f, "workload {name} has no SMP shape"),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl<E: Into<OsError>> From<E> for ExperimentError {
    fn from(e: E) -> Self {
        ExperimentError::Os(e.into())
    }
}

type Result<T = (), E = ExperimentError> = std::result::Result<T, E>;

/// The three native schemes in the column order of Figures 2/4.
const SCHEMES: [IsolationScheme; 3] = [
    IsolationScheme::Pmp,
    IsolationScheme::PmpTable,
    IsolationScheme::Hpmp,
];

/// A cold Sv39-or-deeper TLB-miss read of one mapped page on a fresh
/// system built from `config`; returns the access's references and cycles.
fn cold_access<S: TraceSink>(
    out: &mut Outcome,
    config: MachineConfig,
    scheme: IsolationScheme,
    mode: TranslationMode,
    sink: S,
) -> Result<(RefBreakdown, u64)> {
    let mut sys = SystemBuilder::new(config, scheme)
        .translation_mode(mode)
        .sink(sink)
        .build();
    sys.map_range(VirtAddr::new(0x10_0000), 1, Perms::RW);
    sys.sync_pt_grants();
    sys.machine.flush_microarch();
    let access = sys.machine.access(
        &sys.space,
        VirtAddr::new(0x10_0000),
        AccessKind::Read,
        PrivMode::Supervisor,
    )?;
    out.merge(&sys.machine.metrics_snapshot());
    Ok((access.refs, access.cycles))
}

/// Mean cycles of `n` cold invocations of `function` on a fresh stack.
fn function_cycles<S: TraceSink>(
    out: &mut Outcome,
    flavor: TeeFlavor,
    config: impl Into<MachineConfig>,
    function: Function,
    n: u64,
    sink: S,
) -> Result<u64> {
    let mut tee = TeeBench::boot_with_sink(flavor, config, sink);
    let cycles = serverless::measure_function_on(&mut tee, function, n)?;
    out.merge(&tee.machine.metrics_snapshot());
    Ok(cycles)
}

/// A monitor of `flavor` booted over 1 GiB of RAM on a Rocket machine.
fn boot_monitor<S: TraceSink>(
    flavor: TeeFlavor,
    sink: S,
) -> Result<(Machine<S>, SecureMonitor), MonitorError> {
    let mut machine = Machine::with_sink(MachineConfig::rocket(), sink);
    let ram = PmpRegion::new(PhysAddr::new(0x8000_0000), 1 << 30);
    let monitor = SecureMonitor::boot(&mut machine, flavor, ram)?;
    Ok((machine, monitor))
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

fn table1(out: &mut Outcome) {
    let mut r = Report::new(
        "Table 1: simulation configurations",
        &["Parameter", "Value"],
    );
    for (name, cfg) in [
        ("Rocket", MachineConfig::rocket()),
        ("BOOM", MachineConfig::boom()),
    ] {
        r.row(&[
            format!("{name} core"),
            format!("{} @ {} MHz", cfg.core.kind, cfg.core.clock_mhz),
        ]);
        for (level, cache, unit, shift) in [
            ("L1 D-cache", &cfg.mem.l1, "KiB", 10),
            ("L2", &cfg.mem.l2, "KiB", 10),
            ("LLC", &cfg.mem.llc, "MiB", 20),
        ] {
            let size = cache.capacity >> shift;
            r.row(&[
                format!("{name} {level}"),
                format!(
                    "{size} {unit}, {}-way, {}-cycle hit",
                    cache.ways, cache.hit_latency
                ),
            ]);
        }
        r.row(&[
            format!("{name} TLB"),
            format!(
                "L1 {} entries FA, L2 {} direct-mapped",
                cfg.tlb.l1_entries, cfg.tlb.l2_entries
            ),
        ]);
        r.row(&[
            format!("{name} PTECache (PWC)"),
            format!("{} entries", cfg.pwc.entries),
        ]);
    }
    let dram = MachineConfig::rocket().mem.dram;
    r.row(&[
        "DRAM".into(),
        format!(
            "{} banks, {} B rows, {}/{} cycle hit/miss",
            dram.banks, dram.row_bytes, dram.row_hit_latency, dram.row_miss_latency
        ),
    ]);
    out.reports.push(r);
}

fn fig2<S: TraceSink>(out: &mut Outcome, sink: &mut S) -> Result {
    let mut r = Report::new(
        "Figures 2/4: memory references per access (Sv39, TLB miss, cold)",
        &[
            "Scheme",
            "PT reads",
            "pmpte (PT)",
            "pmpte (data)",
            "data",
            "total",
        ],
    );
    let mut refs = Vec::new();
    for scheme in SCHEMES {
        let config = MachineConfig::rocket();
        let (access, _) = cold_access(out, config, scheme, TranslationMode::Sv39, &mut *sink)?;
        r.row(&[
            scheme.to_string(),
            access.pt_reads.to_string(),
            access.pmpte_for_pt.to_string(),
            access.pmpte_for_data.to_string(),
            access.data_reads.to_string(),
            access.total().to_string(),
        ]);
        refs.push((scheme, access));
    }
    r.note("paper: PMP=4, PMP Table=12, HPMP=6");
    out.reports.push(r);
    out.values = Values::Refs(refs);
    Ok(())
}

fn fig10<S: TraceSink>(out: &mut Outcome, sink: &mut S) {
    let mut panels = Vec::new();
    for core in [CoreKind::Rocket, CoreKind::Boom] {
        for op in [AccessKind::Read, AccessKind::Write] {
            let op_name = if op == AccessKind::Read { "ld" } else { "sd" };
            let mut r = Report::new(
                format!("Figure 10: {op_name} latency ({core}), cycles"),
                &["Case", "PMPTable", "HPMP", "PMP", "HPMP mitigation"],
            );
            let (rows, snap) = figure_10_panel(core, op, &mut *sink);
            out.merge(&snap);
            for row in &rows {
                r.row(&[
                    row.case.to_string(),
                    row.pmpt.to_string(),
                    row.hpmp.to_string(),
                    row.pmp.to_string(),
                    if row.case == TestCase::Tc4 {
                        "-".into()
                    } else {
                        pct_f(row.mitigation())
                    },
                ]);
            }
            r.note("paper: HPMP mitigates 23.1%-73.1% (BOOM), 47.7%-72.4% (Rocket)");
            out.reports.push(r);
            panels.push((core, op, rows));
        }
    }
    out.values = Values::Latency(panels);
}

fn table3<S: TraceSink>(out: &mut Outcome, sink: &mut S) -> Result {
    let mut r = Report::new(
        "Table 3: OS operation costs (BOOM), cycles per call",
        &["Syscall", "PMP", "PMPT", "HPMP", "PMPT/HPMP"],
    );
    let iters = 12;
    let mut ratios = Vec::new();
    let mut values = Vec::new();
    for syscall in lmbench::SYSCALLS {
        let mut cycles = [0; 3];
        for (slot, flavor) in cycles.iter_mut().zip(FLAVORS) {
            let (mean, snap) =
                lmbench::measure_syscall(flavor, CoreKind::Boom, syscall, iters, &mut *sink)?;
            out.merge(&snap);
            *slot = mean;
        }
        let [pmp, pmpt, hpmp] = cycles;
        let ratio = pmpt as f64 / hpmp as f64;
        ratios.push(ratio);
        r.row(&[
            syscall.to_string(),
            pmp.to_string(),
            pmpt.to_string(),
            hpmp.to_string(),
            pct_f(ratio),
        ]);
        values.push((syscall, cycles));
    }
    r.row(&[
        "Avg".into(),
        String::new(),
        String::new(),
        String::new(),
        pct_f(mean(&ratios)),
    ]);
    r.note("paper: PMPT/HPMP avg = 128.43%");
    out.reports.push(r);
    out.values = Values::Syscalls(values);
    Ok(())
}

/// One table row normalised to its first (PMP) cell.
fn normalised_row(label: String, [pmp, pmpt, hpmp]: [u64; 3]) -> [String; 4] {
    [label, "100.0%".into(), pct(pmpt, pmp), pct(hpmp, pmp)]
}

fn fig11<S: TraceSink>(out: &mut Outcome, sink: &mut S) -> Result {
    let mut r = Report::new(
        "Figure 11-a: RV8 (Rocket), latency normalised to Penglai-PMP",
        &["Kernel", "PL-PMP", "PL-PMPT", "PL-HPMP"],
    );
    for kernel in rv8::RV8_KERNELS {
        let mut cycles = [0; 3];
        for (slot, flavor) in cycles.iter_mut().zip(FLAVORS) {
            let (total, snap) =
                rv8::run_rv8_with_sink(flavor, CoreKind::Rocket, kernel, &mut *sink)?;
            out.merge(&snap);
            *slot = total;
        }
        r.row(&normalised_row(kernel.to_string(), cycles));
    }
    r.note("paper: PMPT 0.0%-1.7% over PMP; HPMP 0.0%-0.5%");
    out.reports.push(r);

    let graph = gap::default_graph();
    let budget = 20_000;
    for core in [CoreKind::Rocket, CoreKind::Boom] {
        let mut r = Report::new(
            format!("Figure 11-b/c: GAP ({core}), latency normalised to Penglai-PMP"),
            &["Kernel", "PL-PMP", "PL-PMPT", "PL-HPMP"],
        );
        for kernel in gap::GAP_KERNELS {
            let mut cycles = [0; 3];
            for (slot, flavor) in cycles.iter_mut().zip(FLAVORS) {
                let (total, snap) =
                    gap::run_gap_with_sink(flavor, core, kernel, &graph, budget, &mut *sink)?;
                out.merge(&snap);
                *slot = total;
            }
            r.row(&normalised_row(kernel.to_string(), cycles));
        }
        r.note("paper: PMPT 1.2%-6.7% (Rocket) / 1.8%-9.6% (BOOM); HPMP <= 2.4%");
        out.reports.push(r);
    }
    Ok(())
}

fn fig12ac<S: TraceSink>(out: &mut Outcome, sink: &mut S) -> Result {
    let n = 3;
    let mut functions = Vec::new();
    for core in [CoreKind::Rocket, CoreKind::Boom] {
        let mut r = Report::new(
            format!("Figure 12-a/b: FunctionBench ({core}), latency normalised to PL-PMP"),
            &["Function", "PL-PMP", "PL-PMPT", "PL-HPMP"],
        );
        for function in serverless::FUNCTIONS {
            let mut cycles = [0; 3];
            for (slot, flavor) in cycles.iter_mut().zip(FLAVORS) {
                *slot = function_cycles(out, flavor, core, function, n, &mut *sink)?;
            }
            r.row(&normalised_row(function.to_string(), cycles));
            functions.push((core, function, cycles));
        }
        r.note("paper: PMPT avg 5.1% (Rocket) / 14.1% (BOOM); HPMP avg 2.0% / 3.5%");
        out.reports.push(r);
    }

    let mut r = Report::new(
        "Figure 12-c: serverless image processing chain (Rocket), normalised to PL-PMP",
        &["Image size", "PL-PMP", "PL-PMPT", "PL-HPMP"],
    );
    let mut chain = Vec::new();
    for size in [32u64, 64, 128, 256] {
        let mut cycles = [0; 3];
        for (slot, flavor) in cycles.iter_mut().zip(FLAVORS) {
            let (total, snap) =
                serverless::image_chain(flavor, CoreKind::Rocket, size, &mut *sink)?;
            out.merge(&snap);
            *slot = total;
        }
        r.row(&normalised_row(format!("{size}x{size}"), cycles));
        chain.push((size, cycles));
    }
    r.note("paper: PMPT 29.7% -> 1.6% as size grows; HPMP 0.3%-6.7%");
    out.reports.push(r);
    out.values = Values::Serverless { functions, chain };
    Ok(())
}

/// Requests-per-second of every Redis command on one fresh server.
fn redis_rps<S: TraceSink>(
    out: &mut Outcome,
    flavor: TeeFlavor,
    core: CoreKind,
    commands: &[redis::RedisCommand],
    requests: u64,
    sink: S,
) -> Result<Vec<f64>> {
    let mut server =
        redis::RedisServer::start_with_sink(flavor, core, redis::DEFAULT_DATASET_PAGES, sink)?;
    let rps = commands
        .iter()
        .map(|&cmd| server.rps(cmd, requests))
        .collect::<Result<_, _>>()?;
    out.merge(&server.tee_mut().machine.metrics_snapshot());
    Ok(rps)
}

fn fig12de<S: TraceSink>(out: &mut Outcome, sink: &mut S) -> Result {
    let requests = 250;
    for core in [CoreKind::Rocket, CoreKind::Boom] {
        let mut r = Report::new(
            format!("Figure 12-d/e: Redis ({core}), RPS normalised to Penglai-PMP"),
            &["Command", "PL-PMP", "PL-PMPT", "PL-HPMP"],
        );
        // Each server is independent, so serving one flavour's commands
        // after another's gives the same numbers as interleaving them.
        let commands = &redis::REDIS_COMMANDS;
        let rps = FLAVORS
            .into_iter()
            .map(|flavor| redis_rps(out, flavor, core, commands, requests, &mut *sink))
            .collect::<Result<Vec<_>>>()?;
        for (i, cmd) in redis::REDIS_COMMANDS.iter().enumerate() {
            let (pmp, pmpt, hpmp) = (rps[0][i], rps[1][i], rps[2][i]);
            r.row(&[
                cmd.to_string(),
                "100.0%".into(),
                pct_f(pmpt / pmp),
                pct_f(hpmp / pmp),
            ]);
        }
        r.note("paper: PMPT loses 5.9%-18.0% (Rocket) / 10.8%-31.8% (BOOM); HPMP ~3-5%");
        out.reports.push(r);
    }
    Ok(())
}

fn fig13<S: TraceSink>(out: &mut Outcome, sink: &mut S) {
    let mut r = Report::new(
        "Figure 13: virtualized access latency (Rocket), cycles",
        &["Case", "PMPT", "HPMP", "HPMP-GPT", "PMP"],
    );
    let schemes = [
        VirtScheme::PmpTable,
        VirtScheme::Hpmp,
        VirtScheme::HpmpGpt,
        VirtScheme::Pmp,
    ];
    let mut cycles = Vec::new();
    let mut cold_refs = Vec::new();
    for case in VIRT_CASES {
        let mut row = [0; 4];
        for (slot, scheme) in row.iter_mut().zip(schemes) {
            let (latency, snap) =
                measure_virt_with_sink(CoreKind::Rocket, scheme, case, &mut *sink);
            out.merge(&snap);
            *slot = latency;
            if case == VirtCase::Tc1 {
                let refs = |name| snap.value(&format!("virt.refs.{name}"));
                let breakdown = VirtRefBreakdown {
                    npt_reads: refs("npt_reads"),
                    gpt_reads: refs("gpt_reads"),
                    data_reads: refs("data_reads"),
                    pmpte_for_npt: refs("pmpte_for_npt"),
                    pmpte_for_gpt: refs("pmpte_for_gpt"),
                    pmpte_for_data: refs("pmpte_for_data"),
                };
                cold_refs.push((scheme, breakdown));
            }
        }
        let mut cells = vec![case.to_string()];
        cells.extend(row.iter().map(u64::to_string));
        r.row(&cells);
        cycles.push((case, row));
    }
    r.note("paper: HPMP cuts PMPT's extra cost to 29.7%-75.6%; HPMP-GPT to 16.3%-26.8%");
    out.reports.push(r);
    out.values = Values::Virt { cycles, cold_refs };
}

fn fig14<S: TraceSink>(out: &mut Outcome, sink: &mut S) -> Result {
    let tee_flavors = [TeeFlavor::PenglaiPmp, TeeFlavor::PenglaiHpmp];
    // (a) Domain switch cost at 2 / 12 / 101 domains.
    let mut r = Report::new(
        "Figure 14-a: domain switch latency (cycles)",
        &["Domains", "Penglai-PMP", "Penglai-HPMP"],
    );
    let mut switch = Vec::new();
    for count in [2u32, 12, 101] {
        let mut cells = vec![format!("{count}-domains")];
        let mut costs = [None; 2];
        for (slot, flavor) in costs.iter_mut().zip(tee_flavors) {
            cells.push(match switch_cost(out, flavor, count, &mut *sink) {
                Ok(cycles) => {
                    *slot = Some(cycles);
                    cycles.to_string()
                }
                Err(MonitorError::OutOfPmpEntries) => "no available PMP".into(),
                Err(e) => return Err(e.into()),
            });
        }
        r.row(&cells);
        switch.push((count, costs));
    }
    r.note("paper: HPMP within 1% of PMP; stable with instance count; PMP fails at 101");
    out.reports.push(r);

    // (b)/(c) Region allocation and release, 64 KiB x 100.
    let mut r = Report::new(
        "Figure 14-b/c: 64 KiB region allocation/release latency (cycles)",
        &[
            "Regions",
            "PMP alloc",
            "PMP free",
            "HPMP alloc",
            "HPMP free",
        ],
    );
    let pmp = region_cycle_series(out, TeeFlavor::PenglaiPmp, 100, &mut *sink)?;
    let hpmp = region_cycle_series(out, TeeFlavor::PenglaiHpmp, 100, &mut *sink)?;
    for i in [1usize, 10, 25, 50, 75, 100] {
        let get = |series: &[u64]| {
            series
                .get(i - 1)
                .map_or_else(|| "no PMP".into(), u64::to_string)
        };
        r.row(&[
            i.to_string(),
            get(&pmp.0),
            get(&pmp.1),
            get(&hpmp.0),
            get(&hpmp.1),
        ]);
    }
    r.note("paper: PMP stops at ~13 regions; HPMP supports >100 at slightly higher cost");
    out.reports.push(r);

    // (d) Allocation with different sizes (HPMP).
    let mut r = Report::new(
        "Figure 14-d: Penglai-HPMP allocation latency by region size (cycles)",
        &["Size (MiB)", "Latency"],
    );
    for mib in [1u64, 2, 4, 8, 16, 32, 64] {
        let (mut machine, mut monitor) = boot_monitor(TeeFlavor::PenglaiHpmp, &mut *sink)?;
        let (_, cycles) =
            monitor.alloc_region(&mut machine, DomainId::HOST, mib << 20, GmsLabel::Slow)?;
        r.row(&[mib.to_string(), cycles.to_string()]);
        out.merge(&machine.metrics_snapshot());
    }
    r.note("paper: grows with size; 32 MiB-aligned regions collapse to one huge pmpte");
    out.reports.push(r);
    out.values = Values::Tee {
        switch,
        regions: [pmp.0.len(), hpmp.0.len()],
    };
    Ok(())
}

/// Cycles of one switch into an enclave with `domains` domains resident
/// (the host included).
fn switch_cost<S: TraceSink>(
    out: &mut Outcome,
    flavor: TeeFlavor,
    domains: u32,
    sink: S,
) -> Result<u64, MonitorError> {
    let (mut machine, mut monitor) = boot_monitor(flavor, sink)?;
    let switched = (|| {
        let (target, _) = monitor.create_domain(&mut machine, 1 << 20, GmsLabel::Slow)?;
        for _ in 2..domains {
            monitor.create_domain(&mut machine, 1 << 20, GmsLabel::Slow)?;
        }
        monitor.switch_to(&mut machine, target)?;
        monitor.switch_to(&mut machine, DomainId::HOST)?;
        monitor.switch_to(&mut machine, target)
    })();
    out.merge(&machine.metrics_snapshot());
    switched
}

/// Allocation and release cycles of up to `count` 64 KiB regions, until
/// the flavour runs out of PMP entries.
fn region_cycle_series<S: TraceSink>(
    out: &mut Outcome,
    flavor: TeeFlavor,
    count: usize,
    sink: S,
) -> Result<(Vec<u64>, Vec<u64>)> {
    let (mut machine, mut monitor) = boot_monitor(flavor, sink)?;
    let mut allocs = Vec::new();
    let mut bases = Vec::new();
    for _ in 0..count {
        match monitor.alloc_region(&mut machine, DomainId::HOST, 64 * 1024, GmsLabel::Slow) {
            Ok((region, cycles)) => {
                allocs.push(cycles);
                bases.push(region.base);
            }
            Err(MonitorError::OutOfPmpEntries) => break,
            Err(e) => return Err(e.into()),
        }
    }
    let frees = bases
        .into_iter()
        .map(|base| monitor.free_region(&mut machine, DomainId::HOST, base))
        .collect::<Result<_, _>>()?;
    out.merge(&machine.metrics_snapshot());
    Ok((allocs, frees))
}

fn fig15<S: TraceSink>(out: &mut Outcome, sink: &mut S) {
    let mut r = Report::new(
        "Figure 15: fragmentation, total latency of 24 fresh-page touches (Rocket, cycles)",
        &["PA / VA", "PMP", "PMPT", "HPMP"],
    );
    let mut layouts = Vec::new();
    for pa in [PaLayout::Contiguous, PaLayout::Fragmented] {
        for va in [VaLayout::Contiguous, VaLayout::Fragmented] {
            let mut cycles = [0; 3];
            for (slot, scheme) in cycles.iter_mut().zip(SCHEMES) {
                let cache = PmptwCacheConfig::DISABLED;
                let (total, snap) =
                    frag::measure(CoreKind::Rocket, scheme, va, pa, cache, &mut *sink);
                out.merge(&snap);
                *slot = total;
            }
            let mut row = vec![format!("{pa} / {va}")];
            row.extend(cycles.iter().map(u64::to_string));
            r.row(&row);
            layouts.push((pa, va, cycles));
        }
    }
    r.note("paper: fragmented worst; HPMP < PMPT in every case");
    out.reports.push(r);

    // §8.8's virtualized cases (3)/(4): fragmented host virtual pages
    // backing the guest, with contiguous vs fragmented physical frames.
    let mut r = Report::new(
        "Figure 15 (virt cases 3/4): 24 fresh guest-page touches (Rocket, cycles)",
        &["Backing", "PMP", "PMPT", "HPMP", "HPMP-GPT"],
    );
    for backing in [PaLayout::Contiguous, PaLayout::Fragmented] {
        let mut row = vec![backing.to_string()];
        for scheme in [
            VirtScheme::Pmp,
            VirtScheme::PmpTable,
            VirtScheme::Hpmp,
            VirtScheme::HpmpGpt,
        ] {
            let (total, snap) = frag::measure_virt(CoreKind::Rocket, scheme, backing, &mut *sink);
            out.merge(&snap);
            row.push(total.to_string());
        }
        r.row(&row);
    }
    r.note("paper cases (3)/(4): fragmented PTEs in the virtualized environment");
    out.reports.push(r);
    out.values = Values::Frag(layouts);
}

fn fig16<S: TraceSink>(out: &mut Outcome, sink: &mut S) {
    let mut r = Report::new(
        "Figure 16: permission-table caching (Rocket, cycles; fragmented-PA case)",
        &[
            "VA layout",
            "PMPT",
            "PMPT-Cache",
            "HPMP",
            "HPMP-Cache",
            "PMP",
        ],
    );
    let (off, on) = (PmptwCacheConfig::DISABLED, PmptwCacheConfig::ENABLED_8);
    let configs = [
        (IsolationScheme::PmpTable, off),
        (IsolationScheme::PmpTable, on),
        (IsolationScheme::Hpmp, off),
        (IsolationScheme::Hpmp, on),
        (IsolationScheme::Pmp, off),
    ];
    let mut layouts = Vec::new();
    for va in [VaLayout::Contiguous, VaLayout::Fragmented] {
        let pa = PaLayout::Contiguous;
        let mut cycles = [0; 5];
        for (slot, (scheme, cache)) in cycles.iter_mut().zip(configs) {
            let (total, snap) = frag::measure(CoreKind::Rocket, scheme, va, pa, cache, &mut *sink);
            out.merge(&snap);
            *slot = total;
        }
        let mut row = vec![va.to_string()];
        row.extend(cycles.iter().map(u64::to_string));
        r.row(&row);
        layouts.push((va, cycles));
    }
    r.note("paper: cache helps PMPT most on fragmented VA; HPMP-Cache is best overall");
    out.reports.push(r);
    out.values = Values::Caching(layouts);
}

fn fig17<S: TraceSink>(out: &mut Outcome, sink: &mut S) -> Result {
    let mut r = Report::new(
        "Figure 17: FunctionBench with PWC sizes (Rocket), normalised to PMP(8)",
        &[
            "Function", "PMP(8)", "PMP(32)", "PMPT(8)", "PMPT(32)", "HPMP(8)", "HPMP(32)",
        ],
    );
    let n = 2;
    let mut values = Vec::new();
    for function in serverless::FUNCTIONS {
        let mut cycles = [0; 6];
        let configs = FLAVORS.into_iter().flat_map(|f| [(f, 8), (f, 32)]);
        for (slot, (flavor, entries)) in cycles.iter_mut().zip(configs) {
            let mut config = MachineConfig::rocket();
            config.pwc.entries = entries;
            *slot = function_cycles(out, flavor, config, function, n, &mut *sink)?;
        }
        let mut row = vec![function.to_string()];
        row.extend(cycles.iter().map(|&v| pct(v, cycles[0])));
        r.row(&row);
        values.push((function, cycles));
    }
    r.note("paper: larger PWC helps only marginally; HPMP(8) still beats PMPT(32)");
    out.reports.push(r);
    out.values = Values::Pwc(values);
    Ok(())
}

fn table4(out: &mut Outcome) {
    let mut r = Report::new(
        "Table 4: FPGA resource costs (ANALYTIC MODEL - see DESIGN.md substitution)",
        &[
            "Resource", "Baseline", "HPMP", "Cost", "Base+H", "HPMP+H", "Cost",
        ],
    );
    let plain = estimate_resources(&HardwareParams::prototype());
    let hyp = estimate_resources(&HardwareParams::prototype_hypervisor());
    r.row(&[
        "LUT".into(),
        plain.baseline_lut.to_string(),
        plain.hpmp_lut.to_string(),
        format!("{:.2}%", plain.lut_cost_percent()),
        hyp.baseline_lut.to_string(),
        hyp.hpmp_lut.to_string(),
        format!("{:.2}%", hyp.lut_cost_percent()),
    ]);
    r.row(&[
        "FF".into(),
        plain.baseline_ff.to_string(),
        plain.hpmp_ff.to_string(),
        format!("{:.2}%", plain.ff_cost_percent()),
        hyp.baseline_ff.to_string(),
        hyp.hpmp_ff.to_string(),
        format!("{:.2}%", hyp.ff_cost_percent()),
    ]);
    r.row(&[
        "BRAM/DSP delta".into(),
        "-".into(),
        plain.bram_delta.to_string(),
        "0.00%".into(),
        "-".into(),
        hyp.dsp_delta.to_string(),
        "0.00%".into(),
    ]);
    r.note("paper: 0.94%/1.18% LUT, 0.16%/0.78% FF, zero BRAM/DSP");
    out.reports.push(r);
}

fn fig3<S: TraceSink>(out: &mut Outcome, sink: &mut S) -> Result {
    let mut r = Report::new(
        "Figure 3: preview (BOOM), Table normalised to Segment",
        &["Experiment", "Avg", "Worst"],
    );
    let mut row = |name: &str, ratios: &[f64], worst: fn(f64, f64) -> f64, start| {
        let worst = ratios.iter().copied().fold(start, worst);
        r.row(&[name.into(), pct_f(mean(ratios)), pct_f(worst)]);
    };
    let (pmp, pmpt) = (TeeFlavor::PenglaiPmp, TeeFlavor::PenglaiPmpt);

    // (a) single ld latency across TC1-TC3 (walking cases).
    let (rows, snap) = figure_10_panel(CoreKind::Boom, AccessKind::Read, &mut *sink);
    out.merge(&snap);
    let ratios: Vec<f64> = rows
        .iter()
        .filter(|row| row.case != TestCase::Tc4)
        .map(|row| row.pmpt as f64 / row.pmp as f64)
        .collect();
    row("ld latency", &ratios, f64::max, f64::MIN);

    // (b) GAP.
    let graph = gap::default_graph();
    let mut ratios = Vec::new();
    for kernel in gap::GAP_KERNELS {
        let mut run = |flavor| -> Result<f64> {
            let (cycles, snap) =
                gap::run_gap_with_sink(flavor, CoreKind::Boom, kernel, &graph, 8_000, &mut *sink)?;
            out.merge(&snap);
            Ok(cycles as f64)
        };
        let base = run(pmp)?;
        ratios.push(run(pmpt)? / base);
    }
    row("GAP", &ratios, f64::max, f64::MIN);

    // (c) serverless.
    let mut ratios = Vec::new();
    for function in serverless::FUNCTIONS {
        let mut run =
            |flavor| function_cycles(out, flavor, CoreKind::Boom, function, 2, &mut *sink);
        let base = run(pmp)?;
        ratios.push(run(pmpt)? as f64 / base as f64);
    }
    row("Serverless", &ratios, f64::max, f64::MIN);

    // (d) Redis RPS (lower is the table's loss).
    let mut ratios = Vec::new();
    for cmd in [
        redis::RedisCommand::Get,
        redis::RedisCommand::Set,
        redis::RedisCommand::Lrange100,
        redis::RedisCommand::Mset,
    ] {
        let base = redis_rps(out, pmp, CoreKind::Boom, &[cmd], 150, &mut *sink)?[0];
        ratios.push(redis_rps(out, pmpt, CoreKind::Boom, &[cmd], 150, &mut *sink)?[0] / base);
    }
    row("Redis RPS", &ratios, f64::min, f64::MAX);
    r.note("paper: ld +63.4% avg/+91.1% worst; GAP +5.2%/+9.6%; RPS lower is worse");
    out.reports.push(r);
    Ok(())
}

fn svsweep<S: TraceSink>(out: &mut Outcome, sink: &mut S) -> Result {
    let mut r = Report::new(
        "Depth sweep: cold TLB-miss references and cycles by translation mode (Rocket)",
        &[
            "Mode",
            "PMP refs",
            "PMPT refs",
            "HPMP refs",
            "PMP cyc",
            "PMPT cyc",
            "HPMP cyc",
        ],
    );
    for mode in [
        TranslationMode::Sv39,
        TranslationMode::Sv48,
        TranslationMode::Sv57,
    ] {
        let mut refs = Vec::new();
        let mut cycles = Vec::new();
        for scheme in SCHEMES {
            let config = MachineConfig::rocket();
            let (access, latency) = cold_access(out, config, scheme, mode, &mut *sink)?;
            refs.push(access.total().to_string());
            cycles.push(latency.to_string());
        }
        let mut row = vec![mode.to_string()];
        row.extend(refs);
        row.extend(cycles);
        r.row(&row);
    }
    r.note("paper §2.2: the extra dimension worsens with depth; HPMP saving grows with it");
    out.reports.push(r);
    Ok(())
}

fn virtapp<S: TraceSink>(out: &mut Outcome, sink: &mut S) {
    use hpmp_workloads::virt_app::{run_guest_kv_with_sink, GUEST_DATASET_PAGES};
    let mut r = Report::new(
        "Guest key-value workload (Rocket): cycles per request over the 3-D walk",
        &["Scheme", "cycles/req", "vs PMP"],
    );
    let requests = 600;
    let mut base = None;
    for scheme in [
        VirtScheme::Pmp,
        VirtScheme::PmpTable,
        VirtScheme::Hpmp,
        VirtScheme::HpmpGpt,
    ] {
        let (run, snap) = run_guest_kv_with_sink(
            CoreKind::Rocket,
            scheme,
            GUEST_DATASET_PAGES,
            requests,
            &mut *sink,
        );
        out.merge(&snap);
        let cpr = run.cycles_per_request();
        let base = *base.get_or_insert(cpr);
        r.row(&[scheme.to_string(), format!("{cpr:.0}"), pct_f(cpr / base)]);
    }
    r.note("extension of §8.6: the Figure-13 ordering holds under sustained guest load");
    out.reports.push(r);
}

fn encryption<S: TraceSink>(out: &mut Outcome, sink: &mut S) -> Result {
    let mut r = Report::new(
        "Memory-encryption interaction (Rocket): cold TLB-miss ld, cycles",
        &["Engine", "PMP", "PMPT", "HPMP", "PMPT-PMP gap"],
    );
    for (name, latency) in [("off", 0u16), ("AES-XTS 26c", 26), ("AES-XTS 40c", 40)] {
        let mut cycles = Vec::new();
        for scheme in SCHEMES {
            let mut config = MachineConfig::rocket();
            config.mem = config.mem.with_encryption(latency);
            let (_, access) = cold_access(out, config, scheme, TranslationMode::Sv39, &mut *sink)?;
            cycles.push(access);
        }
        r.row(&[
            name.to_string(),
            cycles[0].to_string(),
            cycles[1].to_string(),
            cycles[2].to_string(),
            (cycles[1] - cycles[0]).to_string(),
        ]);
    }
    r.note("encryption widens the table-vs-segment gap: every extra reference pays the engine");
    out.reports.push(r);
    Ok(())
}

fn tenancy<S: TraceSink>(out: &mut Outcome, sink: &mut S) -> Result {
    use hpmp_workloads::multi_tenant::run_tenancy_with_sink;
    let mut r = Report::new(
        "Multi-tenant packing (Rocket): 100 requested tenants",
        &["Flavour", "tenants", "entry wall", "cycles/request"],
    );
    for flavor in FLAVORS {
        let (run, snap) = run_tenancy_with_sink(flavor, CoreKind::Rocket, 100, 2, &mut *sink)?;
        out.merge(&snap);
        r.row(&[
            flavor.to_string(),
            run.tenants.to_string(),
            if run.hit_entry_wall { "yes" } else { "no" }.into(),
            format!("{:.0}", run.cycles_per_request()),
        ]);
    }
    r.note("intro claim: >100 instances per node; PMP walls below 16 domains");
    out.reports.push(r);
    Ok(())
}

/// One tenant enclave per hart over a shared monitor, the churny `tenancy`
/// SMP shape, swept over 1/2/4/8 harts: every GMS change on one hart shoots
/// down all the others, so the interesting number is how much of the total
/// the remote fence/reprogram stalls eat as the hart count grows. The run
/// is seeded, so it is deterministic; the 4-hart HPMP run also records the
/// telemetry `telemetry` asks for.
fn multihart(out: &mut Outcome, telemetry: SmpTelemetrySpec) -> Result {
    let spec = spec_for("tenancy").ok_or(ExperimentError::NoSmpShape("tenancy"))?;
    let seed = 0xA11CE;
    let run = |flavor, harts, telemetry| {
        let machines = (0..harts)
            .map(|_| Machine::new(MachineConfig::rocket()))
            .collect();
        run_smp_with(machines, flavor, seed, spec, telemetry)
    };
    let counters_only = SmpTelemetrySpec::default();
    let mut r = Report::new(
        "SMP scaling (Rocket): tenancy shape, cross-hart shootdown overhead",
        &[
            "Harts",
            "PMPT cycles",
            "HPMP cycles",
            "HPMP IPIs",
            "HPMP stall cyc",
            "stall share",
        ],
    );
    for harts in [1usize, 2, 4, 8] {
        let (pmpt, ..) = run(TeeFlavor::PenglaiPmpt, harts, counters_only)?;
        let recording = if harts == 4 { telemetry } else { counters_only };
        let (hpmp, snap, _, recorded) = run(TeeFlavor::PenglaiHpmp, harts, recording)?;
        if harts == 4 {
            out.telemetry = recorded;
        }
        let stall: u64 = (0..harts)
            .map(|h| snap.value(&format!("hart.{h}.fence_stall_cycles")))
            .sum();
        out.merge(&snap);
        r.row(&[
            harts.to_string(),
            pmpt.total_cycles.to_string(),
            hpmp.total_cycles.to_string(),
            hpmp.ipis_delivered.to_string(),
            stall.to_string(),
            pct_f(stall as f64 / hpmp.total_cycles as f64),
        ]);
    }
    r.note("IPIs grow ~quadratically with harts, but cheap segment reprograms cap the stall share");
    out.reports.push(r);
    Ok(())
}
