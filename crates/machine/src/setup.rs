//! Canonical system setups for the three isolation schemes.
//!
//! The paper compares **PMP** (all-segment), **PMP Table** (all-table) and
//! **HPMP** (segments for PT pages, table for data). [`SystemBuilder`]
//! constructs a flat S-mode system in each configuration: one protected RAM
//! region, one pool of PT-page frames, and an address space whose PT pages
//! come from that pool — contiguous (HPMP's "fast" GMS) or deliberately
//! scattered through RAM (the baseline).

use hpmp_core::{FillPolicy, PmpRegion, PmpTable, TableLevels};
use hpmp_memsim::{FrameAllocator, Perms, PhysAddr, VirtAddr, PAGE_SIZE};
use hpmp_paging::{AddressSpace, PtFrameSource, TranslationMode};
use hpmp_trace::{NullSink, TraceSink};

use crate::machine::{Machine, MachineConfig};

/// The physical-memory isolation scheme under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IsolationScheme {
    /// Segment-based isolation (RISC-V PMP): in-register checks only.
    Pmp,
    /// Table-based isolation (PMP Table for everything).
    PmpTable,
    /// Hybrid: PT pages behind a segment, data behind the table.
    Hpmp,
}

impl std::fmt::Display for IsolationScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IsolationScheme::Pmp => "PMP",
            IsolationScheme::PmpTable => "PMPT",
            IsolationScheme::Hpmp => "HPMP",
        })
    }
}

/// A PT-frame source that scatters page-table pages across RAM with a large
/// stride, modelling a buddy allocator handing out whatever frame is free —
/// the baseline layout that defeats segment protection.
#[derive(Debug)]
pub struct ScatteredPtFrames {
    base: PhysAddr,
    stride: u64,
    limit: u64,
    next: u64,
}

impl ScatteredPtFrames {
    /// Scatters frames as `base + i * stride` for `i < limit`.
    pub fn new(base: PhysAddr, stride: u64, limit: u64) -> ScatteredPtFrames {
        assert!(stride >= PAGE_SIZE && stride.is_multiple_of(PAGE_SIZE));
        ScatteredPtFrames {
            base,
            stride,
            limit,
            next: 0,
        }
    }
}

impl PtFrameSource for ScatteredPtFrames {
    fn alloc_pt_frame(&mut self) -> Option<PhysAddr> {
        if self.next >= self.limit {
            return None;
        }
        let frame = PhysAddr::new(self.base.raw() + self.next * self.stride);
        self.next += 1;
        Some(frame)
    }
}

/// Where the builder placed everything; handed to tests and workloads.
#[derive(Debug)]
pub struct System<S: TraceSink = NullSink> {
    /// The machine, with HPMP programmed per the chosen scheme.
    pub machine: Machine<S>,
    /// The S-mode address space under test.
    pub space: AddressSpace,
    /// Data-page frames remaining for further mappings.
    pub data_frames: FrameAllocator,
    /// PT-page frames remaining (contiguous pool or scattered source).
    pub pt_frames: Box<dyn PtFrameSource>,
    /// The PMP Table protecting RAM (present for `PmpTable` and `Hpmp`).
    pub pmp_table: Option<PmpTable>,
    /// Frames remaining for PMP-Table pages.
    pub table_frames: FrameAllocator,
    /// The protected RAM region.
    pub ram: PmpRegion,
    /// How many of `space`'s PT pages the table already grants.
    pt_granted: usize,
}

impl<S: TraceSink> System<S> {
    /// Maps `pages` consecutive virtual pages starting at `va`, pulling data
    /// frames from the data pool and granting `perms`. Each run of
    /// contiguous frames is granted and mapped in one go.
    ///
    /// # Panics
    ///
    /// Panics if the pools run dry (fixtures size them generously).
    pub fn map_range(&mut self, va: VirtAddr, pages: u64, perms: Perms) {
        let mut done = 0;
        while done < pages {
            let (frame, run) = self
                .data_frames
                .alloc_run(pages - done)
                .expect("data frames exhausted");
            self.grant(frame, run, Perms::RWX);
            self.space
                .map_run(
                    self.machine.phys_mut(),
                    self.pt_frames.as_mut(),
                    va + done * PAGE_SIZE,
                    frame,
                    run,
                    perms,
                    true,
                )
                .expect("mapping failed");
            done += run;
        }
    }

    /// Maps `va` to a specific frame (used by fragmentation experiments).
    ///
    /// # Panics
    ///
    /// Panics if the mapping fails.
    pub fn map_page_at(&mut self, va: VirtAddr, frame: PhysAddr, perms: Perms) {
        self.grant(frame, 1, Perms::RWX);
        self.space
            .map_page(
                self.machine.phys_mut(),
                self.pt_frames.as_mut(),
                va,
                frame,
                perms,
                true,
            )
            .expect("mapping failed");
    }

    /// Sets `perms` on `pages` frames from `frame` in the PMP Table, if the
    /// scheme has one. Idempotent.
    fn grant(&mut self, frame: PhysAddr, pages: u64, perms: Perms) {
        if let Some(table) = &mut self.pmp_table {
            table
                .set_range_perm(
                    self.machine.phys_mut(),
                    &mut self.table_frames,
                    frame,
                    pages * PAGE_SIZE,
                    perms,
                    FillPolicy::PerPage,
                )
                .expect("PMP table grant failed");
        }
    }
}

/// Builder for the canonical single-domain system.
#[derive(Debug)]
pub struct SystemBuilder<S: TraceSink = NullSink> {
    config: MachineConfig,
    scheme: IsolationScheme,
    ram_base: u64,
    ram_size: u64,
    contiguous_pt: Option<bool>,
    mode: TranslationMode,
    sink: S,
}

impl SystemBuilder {
    /// Starts a builder for `scheme` on the given SoC configuration.
    pub fn new(config: MachineConfig, scheme: IsolationScheme) -> SystemBuilder {
        SystemBuilder {
            config,
            scheme,
            ram_base: 0x8000_0000,
            ram_size: 1 << 30,
            contiguous_pt: None,
            mode: TranslationMode::Sv39,
            sink: NullSink,
        }
    }
}

impl<S: TraceSink> SystemBuilder<S> {
    /// Overrides the protected RAM region (must be NAPOT-representable).
    pub fn ram(mut self, base: u64, size: u64) -> SystemBuilder<S> {
        self.ram_base = base;
        self.ram_size = size;
        self
    }

    /// Overrides PT-page placement. Defaults to contiguous for every scheme
    /// — the Penglai family always keeps PT pages in one region (Penglai
    /// already requires it to trap page-table modifications, §5); scattered
    /// placement is the stock-kernel ablation.
    pub fn contiguous_pt(mut self, contiguous: bool) -> SystemBuilder<S> {
        self.contiguous_pt = Some(contiguous);
        self
    }

    /// Overrides the translation mode (default Sv39).
    pub fn translation_mode(mut self, mode: TranslationMode) -> SystemBuilder<S> {
        self.mode = mode;
        self
    }

    /// Attaches a trace sink: the built machine records one event per
    /// access into it.
    pub fn sink<T: TraceSink>(self, sink: T) -> SystemBuilder<T> {
        SystemBuilder {
            config: self.config,
            scheme: self.scheme,
            ram_base: self.ram_base,
            ram_size: self.ram_size,
            contiguous_pt: self.contiguous_pt,
            mode: self.mode,
            sink,
        }
    }

    /// Builds the machine, programs the HPMP entries for the scheme, and
    /// creates an empty address space.
    ///
    /// Layout inside RAM: `[pt pool 16 MiB][table pages 16 MiB][data ...]`.
    ///
    /// # Panics
    ///
    /// Panics if the region is too small or not NAPOT-encodable — fixture
    /// misuse, not a runtime condition.
    pub fn build(self) -> System<S> {
        let ram = PmpRegion::new(PhysAddr::new(self.ram_base), self.ram_size);
        assert!(ram.is_napot(), "RAM region must be NAPOT-encodable");
        assert!(self.ram_size >= 64 << 20, "RAM must be at least 64 MiB");
        let mut machine = Machine::with_sink(self.config, self.sink);

        let pt_pool_base = PhysAddr::new(self.ram_base);
        let pt_pool_size = 16u64 << 20;
        let table_base = PhysAddr::new(self.ram_base + pt_pool_size);
        let table_size = 16u64 << 20;
        let data_base = PhysAddr::new(self.ram_base + pt_pool_size + table_size);
        let data_size = self.ram_size - pt_pool_size - table_size;

        let mut table_frames = FrameAllocator::new(table_base, table_size);
        let contiguous_pt = self.contiguous_pt.unwrap_or(true);
        let mut pt_frames: Box<dyn PtFrameSource> = if contiguous_pt {
            Box::new(FrameAllocator::new(pt_pool_base, pt_pool_size))
        } else {
            // Scatter PT pages through the data area with a 2 MiB stride.
            Box::new(ScatteredPtFrames::new(
                PhysAddr::new(data_base.raw() + data_size / 2),
                2 << 20,
                pt_pool_size / PAGE_SIZE,
            ))
        };

        // Program the register file.
        let mut pmp_table = None;
        match self.scheme {
            IsolationScheme::Pmp => {
                machine
                    .regs_mut()
                    .configure_segment(0, ram, Perms::RWX)
                    .expect("segment setup");
            }
            IsolationScheme::PmpTable => {
                let table =
                    PmpTable::new(ram, machine.phys_mut(), &mut table_frames).expect("table setup");
                machine
                    .regs_mut()
                    .configure_table(0, ram, table.root(), TableLevels::Two)
                    .expect("table entry setup");
                pmp_table = Some(table);
            }
            IsolationScheme::Hpmp => {
                let mut table =
                    PmpTable::new(ram, machine.phys_mut(), &mut table_frames).expect("table setup");
                // Include the PT pool in the table too (cache-like
                // management: segments are a cache of the table), so
                // flipping the segment off still leaves the pool covered.
                table
                    .set_range_perm(
                        machine.phys_mut(),
                        &mut table_frames,
                        pt_pool_base,
                        pt_pool_size,
                        Perms::RW,
                        FillPolicy::PerPage,
                    )
                    .expect("pool fill");
                // Entry 0: the fast GMS (PT pool) as a segment.
                machine
                    .regs_mut()
                    .configure_segment(0, PmpRegion::new(pt_pool_base, pt_pool_size), Perms::RW)
                    .expect("fast GMS setup");
                // Entries 1/2: the table over all of RAM.
                machine
                    .regs_mut()
                    .configure_table(1, ram, table.root(), TableLevels::Two)
                    .expect("table entry setup");
                pmp_table = Some(table);
            }
        }

        // PMP-table pages themselves must be readable by the hardware
        // walker; they are M-mode-owned and the PMPTW is not subject to
        // HPMP checks (it is the checker), so nothing to configure.

        let space = AddressSpace::new(self.mode, 1, machine.phys_mut(), pt_frames.as_mut())
            .expect("address space root");

        let data_frames = FrameAllocator::new(data_base, data_size / 2);
        let mut system = System {
            machine,
            space,
            data_frames,
            pt_frames,
            pmp_table,
            table_frames,
            ram,
            pt_granted: 0,
        };
        // In table schemes, PT pages must be granted in the table (the OS
        // reads/writes them, and the PTW checks them). Grant the root now;
        // later PT pages are granted by System::sync_pt_grants.
        system.sync_pt_grants();
        system
    }
}

impl<S: TraceSink> System<S> {
    /// Grants table permissions for any PT pages created since the last
    /// call. Call after a batch of mappings when running a table scheme
    /// (PMPT grants PT pages in the table; HPMP *also* includes them, per
    /// the cache-like management rule). Pages granted by an earlier call
    /// are not touched again, and each run of contiguous new PT pages is
    /// granted in one range write.
    pub fn sync_pt_grants(&mut self) {
        if self.pmp_table.is_none() {
            return;
        }
        // Copied out: `grant` borrows the whole system.
        let pages = self.space.pt_pages()[self.pt_granted..].to_vec();
        self.pt_granted += pages.len();
        for run in pages.chunk_by(|a, b| b.raw() == a.raw() + PAGE_SIZE) {
            self.grant(run[0], run.len() as u64, Perms::RW);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpmp_memsim::{AccessKind, PrivMode};

    fn system(scheme: IsolationScheme) -> System {
        let mut sys = SystemBuilder::new(MachineConfig::rocket(), scheme).build();
        sys.map_range(VirtAddr::new(0x10_0000), 16, Perms::RW);
        sys.sync_pt_grants();
        sys
    }

    /// Figure 2-a/b: PMP adds no memory references — 3 PT reads + 1 data.
    #[test]
    fn pmp_reference_count_matches_figure_2b() {
        let mut sys = system(IsolationScheme::Pmp);
        sys.machine.flush_microarch();
        let out = sys
            .machine
            .access(
                &sys.space,
                VirtAddr::new(0x10_0000),
                AccessKind::Read,
                PrivMode::Supervisor,
            )
            .unwrap();
        assert_eq!(out.refs.pt_reads, 3);
        assert_eq!(out.refs.data_reads, 1);
        assert_eq!(out.refs.pmpte_for_pt, 0);
        assert_eq!(out.refs.pmpte_for_data, 0);
        assert_eq!(out.refs.total(), 4);
    }

    /// Figure 2-c: a 2-level permission table makes it 12.
    #[test]
    fn pmpt_reference_count_matches_figure_2c() {
        let mut sys = system(IsolationScheme::PmpTable);
        sys.machine.flush_microarch();
        let out = sys
            .machine
            .access(
                &sys.space,
                VirtAddr::new(0x10_0000),
                AccessKind::Read,
                PrivMode::Supervisor,
            )
            .unwrap();
        assert_eq!(out.refs.pt_reads, 3);
        assert_eq!(out.refs.data_reads, 1);
        assert_eq!(out.refs.pmpte_for_pt, 6);
        assert_eq!(out.refs.pmpte_for_data, 2);
        assert_eq!(out.refs.total(), 12);
    }

    /// Figure 4: HPMP reduces it to 6.
    #[test]
    fn hpmp_reference_count_matches_figure_4() {
        let mut sys = system(IsolationScheme::Hpmp);
        sys.machine.flush_microarch();
        let out = sys
            .machine
            .access(
                &sys.space,
                VirtAddr::new(0x10_0000),
                AccessKind::Read,
                PrivMode::Supervisor,
            )
            .unwrap();
        assert_eq!(out.refs.pt_reads, 3);
        assert_eq!(out.refs.data_reads, 1);
        assert_eq!(out.refs.pmpte_for_pt, 0, "PT pages are segment-checked");
        assert_eq!(out.refs.pmpte_for_data, 2);
        assert_eq!(out.refs.total(), 6);
    }

    /// TLB hits are scheme-independent (permission inlining).
    #[test]
    fn tlb_hit_identical_across_schemes() {
        let mut cycles = Vec::new();
        for scheme in [
            IsolationScheme::Pmp,
            IsolationScheme::PmpTable,
            IsolationScheme::Hpmp,
        ] {
            let mut sys = system(scheme);
            let va = VirtAddr::new(0x10_0000);
            sys.machine
                .access(&sys.space, va, AccessKind::Read, PrivMode::Supervisor)
                .unwrap();
            let warm = sys
                .machine
                .access(&sys.space, va, AccessKind::Read, PrivMode::Supervisor)
                .unwrap();
            assert_eq!(warm.refs.total(), 1);
            assert!(warm.tlb_hit.is_some());
            cycles.push(warm.cycles);
        }
        assert!(
            cycles.windows(2).all(|w| w[0] == w[1]),
            "TC4 must be identical: {cycles:?}"
        );
    }

    /// Cold latency ordering: PMP < HPMP < PMPT.
    #[test]
    fn cold_latency_ordering() {
        let mut lat = Vec::new();
        for scheme in [
            IsolationScheme::Pmp,
            IsolationScheme::Hpmp,
            IsolationScheme::PmpTable,
        ] {
            let mut sys = system(scheme);
            sys.machine.flush_microarch();
            let out = sys
                .machine
                .access(
                    &sys.space,
                    VirtAddr::new(0x10_0000),
                    AccessKind::Read,
                    PrivMode::Supervisor,
                )
                .unwrap();
            lat.push(out.cycles);
        }
        assert!(
            lat[0] < lat[1],
            "PMP {} should beat HPMP {}",
            lat[0],
            lat[1]
        );
        assert!(
            lat[1] < lat[2],
            "HPMP {} should beat PMPT {}",
            lat[1],
            lat[2]
        );
    }

    /// Unmapped addresses fault; addresses outside HPMP coverage fault.
    #[test]
    fn faults_reported() {
        let mut sys = system(IsolationScheme::Pmp);
        let err = sys
            .machine
            .access(
                &sys.space,
                VirtAddr::new(0xdead_0000),
                AccessKind::Read,
                PrivMode::Supervisor,
            )
            .unwrap_err();
        assert!(matches!(err, crate::machine::Fault::PageFault(_)));
        // Write to a read-mapped... map an RO page and try to write.
        sys.map_range(VirtAddr::new(0x80_0000), 1, Perms::READ);
        sys.sync_pt_grants();
        let err = sys
            .machine
            .access(
                &sys.space,
                VirtAddr::new(0x80_0000),
                AccessKind::Write,
                PrivMode::Supervisor,
            )
            .unwrap_err();
        assert!(matches!(err, crate::machine::Fault::PtePermission(_)));
    }

    /// A data page never granted in the table faults under PMPT.
    #[test]
    fn table_denial_faults() {
        let mut sys = system(IsolationScheme::PmpTable);
        // Map a VA to a frame but revoke it in the table.
        let frame = sys.data_frames.alloc().unwrap();
        sys.map_page_at(VirtAddr::new(0x90_0000), frame, Perms::RW);
        sys.sync_pt_grants();
        let table = sys.pmp_table.as_mut().unwrap();
        table
            .set_page_perm(
                sys.machine.phys_mut(),
                &mut sys.table_frames,
                frame,
                Perms::NONE,
            )
            .unwrap();
        sys.machine.sfence_vma_all();
        let err = sys
            .machine
            .access(
                &sys.space,
                VirtAddr::new(0x90_0000),
                AccessKind::Read,
                PrivMode::Supervisor,
            )
            .unwrap_err();
        assert!(matches!(err, crate::machine::Fault::IsolationOnData(_)));
    }

    /// Every word of every PMP-Table page, in `table_pages()` order.
    fn table_words(sys: &System) -> Vec<u64> {
        let table = sys.pmp_table.as_ref().unwrap();
        let mem = sys.machine.phys();
        table
            .table_pages()
            .iter()
            .flat_map(|&page| (0..PAGE_SIZE / 8).map(move |i| mem.read_u64(page + i * 8)))
            .collect()
    }

    /// A second `sync_pt_grants` in a row writes nothing, and a PT page
    /// revoked after the first stays revoked: only new PT pages are granted.
    #[test]
    fn repeated_sync_leaves_table_words_unchanged() {
        let mut sys = system(IsolationScheme::PmpTable);
        let words = table_words(&sys);
        sys.sync_pt_grants();
        assert_eq!(table_words(&sys), words);

        let page = sys.space.pt_pages()[1];
        let table = sys.pmp_table.as_mut().unwrap();
        table
            .set_page_perm(
                sys.machine.phys_mut(),
                &mut sys.table_frames,
                page,
                Perms::NONE,
            )
            .unwrap();
        let words = table_words(&sys);
        sys.sync_pt_grants();
        assert_eq!(table_words(&sys), words);
    }

    /// The PT pages a `map_range` creates between two calls get RW.
    #[test]
    fn sync_grants_pt_pages_created_since_the_last_call() {
        let mut sys = system(IsolationScheme::PmpTable);
        let granted = sys.space.pt_pages().len();
        // A new 1 GiB slot: a new level-1 and a new leaf page table.
        sys.map_range(VirtAddr::new(1 << 30), 1, Perms::RW);
        let created = sys.space.pt_pages()[granted..].to_vec();
        assert_eq!(created.len(), 2);
        let lookup = |sys: &System, page| {
            let table = sys.pmp_table.as_ref().unwrap();
            table.lookup(sys.machine.phys(), page)
        };
        for &page in &created {
            assert_eq!(lookup(&sys, page), None, "not granted before the sync");
        }
        sys.sync_pt_grants();
        for &page in &created {
            assert_eq!(lookup(&sys, page), Some(Perms::RW));
        }
    }

    /// Sv48 under PMPT: 4 PT reads, each with 2 pmpte reads => 15 total.
    #[test]
    fn sv48_scales_reference_count() {
        let mut sys = SystemBuilder::new(MachineConfig::rocket(), IsolationScheme::PmpTable)
            .translation_mode(TranslationMode::Sv48)
            .build();
        sys.map_range(VirtAddr::new(0x10_0000), 1, Perms::RW);
        sys.sync_pt_grants();
        sys.machine.flush_microarch();
        let out = sys
            .machine
            .access(
                &sys.space,
                VirtAddr::new(0x10_0000),
                AccessKind::Read,
                PrivMode::Supervisor,
            )
            .unwrap();
        assert_eq!(out.refs.pt_reads, 4);
        assert_eq!(out.refs.pmpte_for_pt, 8);
        assert_eq!(out.refs.total(), 15);
    }
}
