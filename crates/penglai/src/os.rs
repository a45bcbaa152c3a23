//! A small simulated OS kernel running inside a domain.
//!
//! The paper's Penglai-HPMP requires ~700 lines of Linux changes whose sole
//! effect is behavioural: all page-table pages come from one contiguous pool
//! labelled as a "fast" GMS. [`SimOs`] reproduces exactly that behaviour —
//! processes, fork/exec, mmap, a kernel direct map, and one contiguous
//! PT-page pool (the stock kernel's scattered PT pages are the machine-level
//! ablation, `SystemBuilder::contiguous_pt`).
//!
//! Crucially, kernel work is *priced through the machine*: PTE installs are
//! issued as kernel stores through the direct map, so a fork's page-table
//! construction hits the TLB/walker/HPMP path like any other memory traffic.
//! That is where the Table-vs-HPMP gap in LMBench's `fork+exit` comes from.

use hpmp_core::PmpRegion;
use hpmp_machine::{Fault, Machine};
use hpmp_memsim::{AccessKind, Perms, PhysAddr, PrivMode, VirtAddr, PAGE_SIZE};
use hpmp_paging::{AddressSpace, MapError, PtFrameSource, TranslationMode};
use hpmp_trace::TraceSink;

use crate::gms::GmsLabel;
use crate::monitor::{DomainId, SecureMonitor};

/// Errors from OS operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OsError {
    /// Unknown process.
    NoSuchProcess(Pid),
    /// Out of physical frames.
    OutOfMemory,
    /// Page-table construction failed.
    Map(MapError),
    /// A memory access faulted.
    Access(Fault),
    /// A hint ioctl's VA range is unmapped or not physically contiguous.
    BadHintRange(VirtAddr),
    /// Unknown hint id.
    NoSuchHint(HintId),
    /// The monitor rejected a hint (wrong flavour, region not owned, …).
    Monitor(crate::monitor::MonitorError),
}

impl std::fmt::Display for OsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OsError::NoSuchProcess(pid) => write!(f, "no such process {pid:?}"),
            OsError::OutOfMemory => f.write_str("out of memory"),
            OsError::Map(e) => write!(f, "mapping failed: {e}"),
            OsError::Access(e) => write!(f, "access faulted: {e}"),
            OsError::BadHintRange(va) => {
                write!(
                    f,
                    "hint range at {va} unmapped or not physically contiguous"
                )
            }
            OsError::NoSuchHint(id) => write!(f, "no such hint {id:?}"),
            OsError::Monitor(e) => write!(f, "monitor rejected hint: {e}"),
        }
    }
}

impl From<crate::monitor::MonitorError> for OsError {
    fn from(e: crate::monitor::MonitorError) -> OsError {
        OsError::Monitor(e)
    }
}

/// Identifier of a hot-region hint installed via the ioctl interface (§9).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HintId(pub u32);

/// One installed hot-region hint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegionHint {
    /// The hint's id.
    pub id: HintId,
    /// Owning process.
    pub pid: Pid,
    /// Virtual base of the hinted range.
    pub va: VirtAddr,
    /// Pages covered.
    pub pages: u64,
    /// The physical region handed to the monitor (NAPOT superset of the
    /// backing frames).
    pub region: PmpRegion,
}

impl std::error::Error for OsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OsError::Map(e) => Some(e),
            OsError::Access(e) => Some(e),
            OsError::Monitor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MapError> for OsError {
    fn from(e: MapError) -> OsError {
        OsError::Map(e)
    }
}

impl From<Fault> for OsError {
    fn from(e: Fault) -> OsError {
        OsError::Access(e)
    }
}

/// Process identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u32);

/// Base of the kernel direct map in kernel virtual space.
pub const KERNEL_DIRECT_MAP: u64 = 0x0040_0000_0000;
/// Base virtual address of user code in every process.
pub const USER_CODE_BASE: u64 = 0x1_0000;
/// Base virtual address of the user heap.
pub const USER_HEAP_BASE: u64 = 0x1000_0000;

#[derive(Debug)]
struct Process {
    pid: Pid,
    space: AddressSpace,
    heap_pages: u64,
    mapped: Vec<VirtAddr>,
    /// Virtual pages currently in copy-on-write state.
    cow: std::collections::HashSet<u64>,
    /// Lazily-mapped regions: (base, pages) reserved but not yet backed.
    lazy: Vec<(VirtAddr, u64)>,
}

/// The contiguous PT pool with a free-list, so exited processes' PT pages
/// are reused (as a real kernel does).
#[derive(Debug)]
struct PtPool {
    alloc: hpmp_memsim::FrameAllocator,
    free: Vec<PhysAddr>,
}

impl PtPool {
    fn recycle(&mut self, frame: PhysAddr) {
        self.free.push(frame);
    }
}

impl PtFrameSource for PtPool {
    fn alloc_pt_frame(&mut self) -> Option<PhysAddr> {
        self.free.pop().or_else(|| self.alloc.alloc())
    }
}

/// Counters for OS activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OsStats {
    /// Processes created (spawn + fork).
    pub processes_created: u64,
    /// PTE installs priced through the machine.
    pub pte_installs: u64,
    /// Context switches performed.
    pub context_switches: u64,
    /// Modelled kernel cycles (sum of returned costs).
    pub kernel_cycles: u64,
}

/// The simulated OS kernel.
///
/// All methods that do work return the cycle cost they incurred on the
/// machine (memory traffic plus modelled compute), which the workload
/// models aggregate into the paper's per-benchmark latencies.
#[derive(Debug)]
pub struct SimOs {
    kernel_space: AddressSpace,
    processes: Vec<Process>,
    current: Option<Pid>,
    next_pid: u32,
    next_asid: u16,
    pt_pool: PtPool,
    pt_pool_region: (PhysAddr, u64),
    data_frames: hpmp_memsim::FrameAllocator,
    free_data: Vec<PhysAddr>,
    kernel_area: (PhysAddr, u64),
    ram_base: PhysAddr,
    hints: Vec<RegionHint>,
    next_hint: u32,
    stats: OsStats,
}

impl SimOs {
    /// Boots the OS with an explicit layout: `direct map [ram_base,
    /// +ram_size)` with 2 MiB huge pages, a contiguous PT pool region (a
    /// monitor-granted "fast" GMS under Penglai-HPMP) and a data region.
    ///
    /// # Panics
    ///
    /// Panics if the regions fall outside the direct map.
    pub fn boot_with_layout<S: TraceSink>(
        machine: &mut Machine<S>,
        ram_base: PhysAddr,
        ram_size: u64,
        (pool_base, pool_size): (PhysAddr, u64),
        (data_base, data_size): (PhysAddr, u64),
    ) -> SimOs {
        let end = ram_base.raw() + ram_size;
        assert!(pool_base.raw() >= ram_base.raw() && pool_base.raw() + pool_size <= end);
        assert!(data_base.raw() >= ram_base.raw() && data_base.raw() + data_size <= end);

        // Data-region layout: [user frames | unused | kernel objects],
        // quarters 0–2, 2–3, 3–4.
        let mut pt_pool = PtPool {
            alloc: hpmp_memsim::FrameAllocator::new(pool_base, pool_size),
            free: Vec::new(),
        };

        // Kernel space (ASID 0): direct-map RAM with 2 MiB huge pages.
        let mut kernel_space =
            AddressSpace::new(TranslationMode::Sv39, 0, machine.phys_mut(), &mut pt_pool)
                .expect("kernel root");
        let huge = 2u64 << 20;
        let mut off = 0;
        while off < ram_size {
            kernel_space
                .map_huge_page(
                    machine.phys_mut(),
                    &mut pt_pool,
                    VirtAddr::new(KERNEL_DIRECT_MAP + off),
                    PhysAddr::new(ram_base.raw() + off),
                    Perms::RW,
                    false,
                    1,
                )
                .expect("direct map");
            off += huge;
        }

        SimOs {
            kernel_space,
            processes: Vec::new(),
            current: None,
            next_pid: 1,
            next_asid: 1,
            pt_pool,
            pt_pool_region: (pool_base, pool_size),
            data_frames: hpmp_memsim::FrameAllocator::new(data_base, data_size / 2),
            free_data: Vec::new(),
            kernel_area: (
                PhysAddr::new(data_base.raw() + 3 * (data_size / 4)),
                data_size / 4,
            ),
            ram_base,
            hints: Vec::new(),
            next_hint: 1,
            stats: OsStats::default(),
        }
    }

    /// A region of kernel-owned objects (dentry/inode slabs and I/O
    /// buffers) inside the domain's data GMS, used by the syscall models.
    pub fn kernel_area(&self) -> (PhysAddr, u64) {
        self.kernel_area
    }

    /// The contiguous PT pool region — what the OS labels as a fast GMS.
    pub fn pt_pool_region(&self) -> (PhysAddr, u64) {
        self.pt_pool_region
    }

    /// Kernel virtual address of a physical address via the direct map.
    pub fn kernel_va(&self, pa: PhysAddr) -> VirtAddr {
        VirtAddr::new(KERNEL_DIRECT_MAP + (pa.raw() - self.ram_base.raw()))
    }

    /// Activity counters.
    pub fn stats(&self) -> OsStats {
        self.stats
    }

    /// The currently scheduled process.
    pub fn current(&self) -> Option<Pid> {
        self.current
    }

    /// Live process count.
    pub fn process_count(&self) -> usize {
        self.processes.len()
    }

    /// Creates a process with `code_pages` of RX code and one stack page —
    /// the exec half of `fork+exec`. Returns the pid and kernel cycle cost.
    ///
    /// # Errors
    ///
    /// Fails when frames run out or an internal access faults.
    pub fn spawn<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        code_pages: u64,
    ) -> Result<(Pid, u64), OsError> {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let asid = self.alloc_asid(machine);

        let mut cycles = machine.run_compute(1200); // task_struct, fd table, …
        let mut space = AddressSpace::new(
            TranslationMode::Sv39,
            asid,
            machine.phys_mut(),
            &mut self.pt_pool,
        )?;
        cycles += self.price_new_pt_pages(machine, &space, 0)?;

        let mut mapped = Vec::new();
        // Map code and stack.
        for i in 0..code_pages {
            let frame = self.alloc_data_frame().ok_or(OsError::OutOfMemory)?;
            let before = space.pt_pages().len();
            space.map_page(
                machine.phys_mut(),
                &mut self.pt_pool,
                VirtAddr::new(USER_CODE_BASE + i * PAGE_SIZE),
                frame,
                Perms::RX,
                true,
            )?;
            cycles += self.price_new_pt_pages(machine, &space, before)?;
            cycles += self.price_pte_install(machine, &space)?;
            mapped.push(VirtAddr::new(USER_CODE_BASE + i * PAGE_SIZE));
        }
        let stack_frame = self.alloc_data_frame().ok_or(OsError::OutOfMemory)?;
        let before = space.pt_pages().len();
        let stack_va = VirtAddr::new(0x7f_ffff_f000);
        space.map_page(
            machine.phys_mut(),
            &mut self.pt_pool,
            stack_va,
            stack_frame,
            Perms::RW,
            true,
        )?;
        cycles += self.price_new_pt_pages(machine, &space, before)?;
        cycles += self.price_pte_install(machine, &space)?;
        mapped.push(stack_va);

        self.processes.push(Process {
            pid,
            space,
            heap_pages: 0,
            mapped,
            cow: Default::default(),
            lazy: Vec::new(),
        });
        self.stats.processes_created += 1;
        self.stats.kernel_cycles += cycles;
        Ok((pid, cycles))
    }

    /// Forks `parent`: clones its address space (re-walking every mapping
    /// and installing PTEs in a fresh tree). Returns the child pid and cost.
    ///
    /// # Errors
    ///
    /// Fails for unknown pids or exhausted frames.
    pub fn fork<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        parent: Pid,
    ) -> Result<(Pid, u64), OsError> {
        let parent_idx = self
            .processes
            .iter()
            .position(|p| p.pid == parent)
            .ok_or(OsError::NoSuchProcess(parent))?;
        let mappings: Vec<VirtAddr> = self.processes[parent_idx].mapped.clone();
        let translations: Vec<(VirtAddr, PhysAddr, Perms)> = mappings
            .iter()
            .filter_map(|va| {
                self.processes[parent_idx]
                    .space
                    .translate(machine.phys(), *va)
                    .map(|t| (*va, t.paddr.page_base(), t.perms))
            })
            .collect();

        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let asid = self.alloc_asid(machine);

        let mut cycles = machine.run_compute(2000); // dup task, mm_struct …
        let mut space = AddressSpace::new(
            TranslationMode::Sv39,
            asid,
            machine.phys_mut(),
            &mut self.pt_pool,
        )?;
        cycles += self.price_new_pt_pages(machine, &space, 0)?;
        for (va, frame, perms) in &translations {
            let before = space.pt_pages().len();
            // Copy-on-write: share the frame read-only; the COW set records
            // which pages may be upgraded back to RW on a write fault.
            let shared = if perms.can_write() {
                Perms::READ
            } else {
                *perms
            };
            space.map_page(
                machine.phys_mut(),
                &mut self.pt_pool,
                *va,
                *frame,
                shared,
                true,
            )?;
            cycles += self.price_new_pt_pages(machine, &space, before)?;
            cycles += self.price_pte_install(machine, &space)?;
        }
        let heap_pages = self.processes[parent_idx].heap_pages;
        // Both sides of the fork see formerly-writable pages as COW.
        let cow: std::collections::HashSet<u64> = translations
            .iter()
            .filter(|(_, _, perms)| perms.can_write())
            .map(|(va, _, _)| va.page_number())
            .collect();
        for (va, _, perms) in &translations {
            if perms.can_write() {
                self.processes[parent_idx]
                    .space
                    .protect_page(machine.phys_mut(), *va, Perms::READ);
                self.processes[parent_idx].cow.insert(va.page_number());
                machine.sfence_vma_asid(self.processes[parent_idx].space.asid());
            }
        }
        self.processes.push(Process {
            pid,
            space,
            heap_pages,
            mapped: mappings,
            cow,
            lazy: Vec::new(),
        });
        self.stats.processes_created += 1;
        self.stats.kernel_cycles += cycles;
        Ok((pid, cycles))
    }

    /// Exits a process: tears down its address space, recycling its PT and
    /// data frames. Returns the cost.
    ///
    /// # Errors
    ///
    /// Fails for unknown pids.
    pub fn exit<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        pid: Pid,
    ) -> Result<u64, OsError> {
        let idx = self
            .processes
            .iter()
            .position(|p| p.pid == pid)
            .ok_or(OsError::NoSuchProcess(pid))?;
        let process = self.processes.remove(idx);
        // Walk the PT pages once (freeing them reads each page header).
        let mut cycles = machine.run_compute(800);
        for page in process.space.pt_pages() {
            let va = self.kernel_va(*page);
            let out = machine.access(
                &self.kernel_space,
                va,
                AccessKind::Read,
                PrivMode::Supervisor,
            )?;
            cycles += out.cycles;
            self.pt_pool.recycle(*page);
        }
        // Recycle data frames not shared with a live process (COW frames of
        // a live parent/child stay out of the free list).
        for va in &process.mapped {
            if let Some(t) = process.space.translate(machine.phys(), *va) {
                let frame = t.paddr.page_base();
                let shared = self.processes.iter().any(|p| {
                    p.mapped.contains(va)
                        && p.space
                            .translate(machine.phys(), *va)
                            .is_some_and(|pt| pt.paddr.page_base() == frame)
                });
                if !shared {
                    self.free_data.push(frame);
                }
            }
        }
        machine.sfence_vma_asid(process.space.asid());
        if self.current == Some(pid) {
            self.current = None;
        }
        self.stats.kernel_cycles += cycles;
        Ok(cycles)
    }

    /// Allocates one user data frame, preferring recycled frames.
    fn alloc_data_frame(&mut self) -> Option<PhysAddr> {
        self.free_data.pop().or_else(|| self.data_frames.alloc())
    }

    /// Hands out the next ASID; on 16-bit rollover the kernel must flush
    /// all non-global translations before reusing identifiers (the classic
    /// ASID-generation scheme, conservatively modelled as a full fence).
    fn alloc_asid<S: TraceSink>(&mut self, machine: &mut Machine<S>) -> u16 {
        let asid = self.next_asid;
        let (next, wrapped) = self.next_asid.overflowing_add(1);
        self.next_asid = next.max(1);
        if wrapped {
            machine.sfence_vma_all();
        }
        asid
    }

    /// Unmaps `pages` pages starting at `va` (`munmap`): PTEs are cleared,
    /// per-page TLB shootdowns issued, and exclusively-owned frames
    /// recycled. Returns the cycle cost.
    ///
    /// # Errors
    ///
    /// Fails for unknown pids; unmapped pages within the range are skipped
    /// (as `munmap` does).
    pub fn munmap<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        pid: Pid,
        va: VirtAddr,
        pages: u64,
    ) -> Result<u64, OsError> {
        let idx = self
            .processes
            .iter()
            .position(|p| p.pid == pid)
            .ok_or(OsError::NoSuchProcess(pid))?;
        let mut cycles = machine.run_compute(300);
        for i in 0..pages {
            let page_va = VirtAddr::new(va.page_base().raw() + i * PAGE_SIZE);
            let Some(old) = self.processes[idx]
                .space
                .unmap_page(machine.phys_mut(), page_va)
            else {
                continue;
            };
            let asid = self.processes[idx].space.asid();
            machine.sfence_vma_page(asid, page_va);
            cycles += machine.run_compute(60); // shootdown + accounting
            let frame = old.paddr.page_base();
            let shared = self.processes.iter().enumerate().any(|(j, p)| {
                j != idx
                    && p.space
                        .translate(machine.phys(), page_va)
                        .is_some_and(|t| t.paddr.page_base() == frame)
            });
            if !shared {
                self.free_data.push(frame);
            }
            self.processes[idx].mapped.retain(|m| *m != page_va);
            self.processes[idx].cow.remove(&page_va.page_number());
        }
        self.stats.kernel_cycles += cycles;
        Ok(cycles)
    }

    /// Grows a process's heap by `pages` (the mmap/brk path). Returns cost.
    ///
    /// # Errors
    ///
    /// Fails for unknown pids or exhausted frames.
    pub fn mmap<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        pid: Pid,
        pages: u64,
    ) -> Result<u64, OsError> {
        let idx = self
            .processes
            .iter()
            .position(|p| p.pid == pid)
            .ok_or(OsError::NoSuchProcess(pid))?;
        let mut cycles = machine.run_compute(300);
        for _ in 0..pages {
            let frame = self.alloc_data_frame().ok_or(OsError::OutOfMemory)?;
            let heap_pages = self.processes[idx].heap_pages;
            let va = VirtAddr::new(USER_HEAP_BASE + heap_pages * PAGE_SIZE);
            let before = self.processes[idx].space.pt_pages().len();
            self.processes[idx].space.map_page(
                machine.phys_mut(),
                &mut self.pt_pool,
                va,
                frame,
                Perms::RW,
                true,
            )?;
            let space_ref = &self.processes[idx].space;
            cycles += Self::price_new_pt_pages_inner(
                machine,
                &self.kernel_space,
                self.ram_base,
                space_ref,
                before,
                &mut self.stats,
            )?;
            cycles += Self::price_pte_install_inner(
                machine,
                &self.kernel_space,
                self.ram_base,
                space_ref,
                &mut self.stats,
            )?;
            self.processes[idx].heap_pages += 1;
            self.processes[idx].mapped.push(va);
        }
        self.stats.kernel_cycles += cycles;
        Ok(cycles)
    }

    /// Reserves `pages` of heap lazily: no frames are allocated and no PTEs
    /// installed until the first touch through
    /// [`SimOs::user_access_faulting`] — on-demand paging.
    ///
    /// # Errors
    ///
    /// Fails for unknown pids.
    pub fn mmap_lazy(&mut self, pid: Pid, pages: u64) -> Result<VirtAddr, OsError> {
        let idx = self
            .processes
            .iter()
            .position(|p| p.pid == pid)
            .ok_or(OsError::NoSuchProcess(pid))?;
        let base = VirtAddr::new(USER_HEAP_BASE + self.processes[idx].heap_pages * PAGE_SIZE);
        self.processes[idx].heap_pages += pages;
        self.processes[idx].lazy.push((base, pages));
        Ok(base)
    }

    /// Changes a page's protection (`mprotect`), fencing the stale TLB
    /// entry. Returns the cycle cost.
    ///
    /// # Errors
    ///
    /// Fails for unknown pids or unmapped pages.
    pub fn mprotect<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        pid: Pid,
        va: VirtAddr,
        perms: Perms,
    ) -> Result<u64, OsError> {
        let idx = self
            .processes
            .iter()
            .position(|p| p.pid == pid)
            .ok_or(OsError::NoSuchProcess(pid))?;
        self.processes[idx]
            .space
            .protect_page(machine.phys_mut(), va, perms)
            .ok_or(OsError::Access(Fault::PageFault(va)))?;
        self.processes[idx].cow.remove(&va.page_number());
        let asid = self.processes[idx].space.asid();
        machine.sfence_vma_asid(asid);
        let cycles = machine.run_compute(300);
        self.stats.kernel_cycles += cycles;
        Ok(cycles)
    }

    /// A user access with kernel fault handling: demand-paging faults map a
    /// fresh zero frame; COW write faults copy the shared frame and upgrade
    /// the mapping. Both charge realistic kernel work (trap, frame copy
    /// through the direct map, PTE install, fence) before the retry.
    ///
    /// # Errors
    ///
    /// Propagates faults the handlers do not recognise.
    pub fn user_access_faulting<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        pid: Pid,
        va: VirtAddr,
        kind: AccessKind,
    ) -> Result<u64, OsError> {
        match self.user_access(machine, pid, va, kind) {
            Ok(cycles) => Ok(cycles),
            Err(OsError::Access(Fault::PageFault(_))) => {
                let handler = self.handle_demand_fault(machine, pid, va)?;
                Ok(handler + self.user_access(machine, pid, va, kind)?)
            }
            Err(OsError::Access(Fault::PtePermission(_))) if kind == AccessKind::Write => {
                let handler = self.handle_cow_fault(machine, pid, va)?;
                Ok(handler + self.user_access(machine, pid, va, kind)?)
            }
            Err(e) => Err(e),
        }
    }

    /// Demand-paging handler: the faulting page must lie in a lazy region.
    fn handle_demand_fault<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        pid: Pid,
        va: VirtAddr,
    ) -> Result<u64, OsError> {
        let idx = self
            .processes
            .iter()
            .position(|p| p.pid == pid)
            .ok_or(OsError::NoSuchProcess(pid))?;
        let covered = self.processes[idx].lazy.iter().any(|(base, pages)| {
            va.page_number() >= base.page_number() && va.page_number() < base.page_number() + pages
        });
        if !covered {
            return Err(OsError::Access(Fault::PageFault(va)));
        }
        let mut cycles = machine.run_compute(500); // trap + vma lookup
        let frame = self.alloc_data_frame().ok_or(OsError::OutOfMemory)?;
        let before = self.processes[idx].space.pt_pages().len();
        self.processes[idx].space.map_page(
            machine.phys_mut(),
            &mut self.pt_pool,
            va.page_base(),
            frame,
            Perms::RW,
            true,
        )?;
        let space_ref = &self.processes[idx].space;
        cycles += Self::price_new_pt_pages_inner(
            machine,
            &self.kernel_space,
            self.ram_base,
            space_ref,
            before,
            &mut self.stats,
        )?;
        cycles += Self::price_pte_install_inner(
            machine,
            &self.kernel_space,
            self.ram_base,
            space_ref,
            &mut self.stats,
        )?;
        self.processes[idx].mapped.push(va.page_base());
        self.stats.kernel_cycles += cycles;
        Ok(cycles)
    }

    /// COW handler: copy the shared frame, remap RW.
    fn handle_cow_fault<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        pid: Pid,
        va: VirtAddr,
    ) -> Result<u64, OsError> {
        let idx = self
            .processes
            .iter()
            .position(|p| p.pid == pid)
            .ok_or(OsError::NoSuchProcess(pid))?;
        if !self.processes[idx].cow.contains(&va.page_number()) {
            return Err(OsError::Access(Fault::PtePermission(va)));
        }
        let mut cycles = machine.run_compute(500); // trap + vma lookup
        let old = self.processes[idx]
            .space
            .translate(machine.phys(), va.page_base())
            .ok_or(OsError::Access(Fault::PageFault(va)))?;
        let shared_elsewhere = self.processes.iter().enumerate().any(|(j, p)| {
            j != idx
                && p.space
                    .translate(machine.phys(), va.page_base())
                    .is_some_and(|t| t.paddr.page_base() == old.paddr.page_base())
        });
        if shared_elsewhere {
            // Copy the 4 KiB frame through the direct map (priced as a few
            // representative line transfers plus compute for the rest).
            let new_frame = self.alloc_data_frame().ok_or(OsError::OutOfMemory)?;
            let src = self.kernel_va(old.paddr.page_base());
            let dst = self.kernel_va(new_frame);
            for line in 0..4u64 {
                cycles += machine
                    .access(
                        &self.kernel_space,
                        src + line * 1024,
                        AccessKind::Read,
                        PrivMode::Supervisor,
                    )?
                    .cycles;
                cycles += machine
                    .access(
                        &self.kernel_space,
                        dst + line * 1024,
                        AccessKind::Write,
                        PrivMode::Supervisor,
                    )?
                    .cycles;
            }
            cycles += machine.run_compute(PAGE_SIZE / 8);
            self.processes[idx].space.remap_page(
                machine.phys_mut(),
                va.page_base(),
                new_frame,
                Perms::RW,
            );
        } else {
            // Sole owner: upgrade in place.
            self.processes[idx]
                .space
                .protect_page(machine.phys_mut(), va.page_base(), Perms::RW);
        }
        self.processes[idx].cow.remove(&va.page_number());
        let asid = self.processes[idx].space.asid();
        machine.sfence_vma_asid(asid);
        cycles += machine.run_compute(200); // return path
        self.stats.kernel_cycles += cycles;
        Ok(cycles)
    }

    /// Schedules `pid`, flushing non-global translations if the ASID space
    /// forces it. Returns the cost.
    ///
    /// # Errors
    ///
    /// Fails for unknown pids.
    pub fn context_switch<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        pid: Pid,
    ) -> Result<u64, OsError> {
        if !self.processes.iter().any(|p| p.pid == pid) {
            return Err(OsError::NoSuchProcess(pid));
        }
        let cycles = machine.run_compute(400);
        self.current = Some(pid);
        self.stats.context_switches += 1;
        self.stats.kernel_cycles += cycles;
        Ok(cycles)
    }

    /// Performs a user-mode access in `pid`'s address space.
    ///
    /// # Errors
    ///
    /// Fails for unknown pids or faulting accesses.
    pub fn user_access<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        pid: Pid,
        va: VirtAddr,
        kind: AccessKind,
    ) -> Result<u64, OsError> {
        let process = self
            .processes
            .iter()
            .find(|p| p.pid == pid)
            .ok_or(OsError::NoSuchProcess(pid))?;
        let out = machine.access(&process.space, va, kind, PrivMode::User)?;
        Ok(out.cycles)
    }

    /// Performs a kernel access to physical address `pa` via the direct map.
    ///
    /// # Errors
    ///
    /// Propagates access faults.
    pub fn kernel_access<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        pa: PhysAddr,
        kind: AccessKind,
    ) -> Result<u64, OsError> {
        let va = self.kernel_va(pa);
        let out = machine.access(&self.kernel_space, va, kind, PrivMode::Supervisor)?;
        Ok(out.cycles)
    }

    /// Virtual addresses mapped in `pid` (for workload generators).
    ///
    /// # Errors
    ///
    /// Fails for unknown pids.
    pub fn mappings(&self, pid: Pid) -> Result<&[VirtAddr], OsError> {
        self.processes
            .iter()
            .find(|p| p.pid == pid)
            .map(|p| p.mapped.as_slice())
            .ok_or(OsError::NoSuchProcess(pid))
    }

    /// The address space of `pid` (for direct machine access in workloads).
    ///
    /// # Errors
    ///
    /// Fails for unknown pids.
    pub fn space_of(&self, pid: Pid) -> Result<&AddressSpace, OsError> {
        self.processes
            .iter()
            .find(|p| p.pid == pid)
            .map(|p| &p.space)
            .ok_or(OsError::NoSuchProcess(pid))
    }

    /// The §9 hint-create ioctl: marks `[va, va + pages·4K)` of `pid` as a
    /// hot region. The driver resolves the range to physical frames,
    /// verifies contiguity, rounds to the smallest NAPOT superset, and asks
    /// the monitor to label it as a fast sub-GMS. Returns the hint id and
    /// the monitor's cycle cost.
    ///
    /// # Errors
    ///
    /// Fails if the range is unmapped or physically discontiguous, or if
    /// the monitor rejects the label (non-HPMP flavour).
    pub fn ioctl_hint_create<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        monitor: &mut SecureMonitor,
        domain: DomainId,
        pid: Pid,
        va: VirtAddr,
        pages: u64,
    ) -> Result<(HintId, u64), OsError> {
        let process = self
            .processes
            .iter()
            .find(|p| p.pid == pid)
            .ok_or(OsError::NoSuchProcess(pid))?;
        // Resolve and require physical contiguity.
        let first = process
            .space
            .translate(machine.phys(), va)
            .ok_or(OsError::BadHintRange(va))?
            .paddr
            .page_base();
        for i in 1..pages {
            let page_va = va + i * PAGE_SIZE;
            let t = process
                .space
                .translate(machine.phys(), page_va)
                .ok_or(OsError::BadHintRange(page_va))?;
            if t.paddr.page_base().raw() != first.raw() + i * PAGE_SIZE {
                return Err(OsError::BadHintRange(page_va));
            }
        }
        // Round to the smallest NAPOT superset that covers the whole range
        // (aligning the base down can push the end out, so grow until the
        // range fits).
        let bytes = pages * PAGE_SIZE;
        let end = first.raw() + bytes;
        let mut size = bytes.next_power_of_two();
        let region = loop {
            let base = first.raw() & !(size - 1);
            if base + size >= end {
                break PmpRegion::new(PhysAddr::new(base), size);
            }
            size *= 2;
        };
        let cycles = monitor.label_subregion(machine, domain, region, GmsLabel::Fast)?;

        let id = HintId(self.next_hint);
        self.next_hint += 1;
        self.hints.push(RegionHint {
            id,
            pid,
            va,
            pages,
            region,
        });
        Ok((id, cycles))
    }

    /// The hint-delete ioctl: removes a hint and its fast sub-GMS.
    ///
    /// # Errors
    ///
    /// Fails for unknown hints.
    pub fn ioctl_hint_delete<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        monitor: &mut SecureMonitor,
        domain: DomainId,
        id: HintId,
    ) -> Result<u64, OsError> {
        let idx = self
            .hints
            .iter()
            .position(|h| h.id == id)
            .ok_or(OsError::NoSuchHint(id))?;
        let hint = self.hints.remove(idx);
        Ok(monitor.unlabel_subregion(machine, domain, hint.region)?)
    }

    /// The hint-query ioctl: returns the installed hints.
    pub fn ioctl_hint_query(&self) -> &[RegionHint] {
        &self.hints
    }

    /// Prices the kernel stores that zero and link PT pages allocated since
    /// `before` (each new page: a few line-sized stores through the direct
    /// map — priced as 4 representative stores plus compute).
    fn price_new_pt_pages<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        space: &AddressSpace,
        before: usize,
    ) -> Result<u64, OsError> {
        Self::price_new_pt_pages_inner(
            machine,
            &self.kernel_space,
            self.ram_base,
            space,
            before,
            &mut self.stats,
        )
    }

    fn price_new_pt_pages_inner<S: TraceSink>(
        machine: &mut Machine<S>,
        kernel_space: &AddressSpace,
        ram_base: PhysAddr,
        space: &AddressSpace,
        before: usize,
        stats: &mut OsStats,
    ) -> Result<u64, OsError> {
        let mut cycles = 0;
        for page in &space.pt_pages()[before..] {
            let va = VirtAddr::new(KERNEL_DIRECT_MAP + (page.raw() - ram_base.raw()));
            for line in 0..4u64 {
                let out = machine.access(
                    kernel_space,
                    va + line * 1024,
                    AccessKind::Write,
                    PrivMode::Supervisor,
                )?;
                cycles += out.cycles;
            }
            cycles += machine.run_compute(128); // rest of the memset
            stats.pte_installs += 1;
        }
        Ok(cycles)
    }

    /// Prices the single PTE store of a leaf install (the deepest PT page).
    fn price_pte_install<S: TraceSink>(
        &mut self,
        machine: &mut Machine<S>,
        space: &AddressSpace,
    ) -> Result<u64, OsError> {
        Self::price_pte_install_inner(
            machine,
            &self.kernel_space,
            self.ram_base,
            space,
            &mut self.stats,
        )
    }

    fn price_pte_install_inner<S: TraceSink>(
        machine: &mut Machine<S>,
        kernel_space: &AddressSpace,
        ram_base: PhysAddr,
        space: &AddressSpace,
        stats: &mut OsStats,
    ) -> Result<u64, OsError> {
        let leaf = *space.pt_pages().last().expect("space has a root");
        let va = VirtAddr::new(KERNEL_DIRECT_MAP + (leaf.raw() - ram_base.raw()));
        let out = machine.access(kernel_space, va, AccessKind::Write, PrivMode::Supervisor)?;
        stats.pte_installs += 1;
        Ok(out.cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpmp_core::PmpRegion;
    use hpmp_machine::MachineConfig;

    const RAM_BASE: PhysAddr = PhysAddr::new(0x8000_0000);
    const RAM_SIZE: u64 = 256 << 20;

    /// The OS over 256 MiB of RAM: a 16 MiB PT pool at its base, then a
    /// 120 MiB data region.
    fn boot() -> (Machine, SimOs) {
        let mut machine = Machine::new(MachineConfig::rocket());
        // Flat PMP so accesses are always allowed; OS behaviour is under test.
        machine
            .regs_mut()
            .configure_segment(0, PmpRegion::new(RAM_BASE, 1 << 30), Perms::RWX)
            .unwrap();
        let pool_size = 16 << 20;
        let data_base = PhysAddr::new(RAM_BASE.raw() + pool_size);
        let os = SimOs::boot_with_layout(
            &mut machine,
            RAM_BASE,
            RAM_SIZE,
            (RAM_BASE, pool_size),
            (data_base, (RAM_SIZE - pool_size) / 2),
        );
        (machine, os)
    }

    #[test]
    fn spawn_creates_runnable_process() {
        let (mut machine, mut os) = boot();
        let (pid, cycles) = os.spawn(&mut machine, 4).unwrap();
        assert!(cycles > 0);
        assert_eq!(os.process_count(), 1);
        let cost = os
            .user_access(
                &mut machine,
                pid,
                VirtAddr::new(USER_CODE_BASE),
                AccessKind::Read,
            )
            .unwrap();
        assert!(cost > 0);
    }

    #[test]
    fn fork_clones_mappings_cow() {
        let (mut machine, mut os) = boot();
        let (parent, _) = os.spawn(&mut machine, 4).unwrap();
        let (child, cycles) = os.fork(&mut machine, parent).unwrap();
        assert!(cycles > 0);
        assert_ne!(parent, child);
        // The child sees the code pages.
        os.user_access(
            &mut machine,
            child,
            VirtAddr::new(USER_CODE_BASE),
            AccessKind::Read,
        )
        .unwrap();
        // The stack became read-only in the child (COW).
        let err = os
            .user_access(
                &mut machine,
                child,
                VirtAddr::new(0x7f_ffff_f000),
                AccessKind::Write,
            )
            .unwrap_err();
        assert!(matches!(err, OsError::Access(Fault::PtePermission(_))));
    }

    #[test]
    fn exit_reclaims_process() {
        let (mut machine, mut os) = boot();
        let (pid, _) = os.spawn(&mut machine, 2).unwrap();
        os.exit(&mut machine, pid).unwrap();
        assert_eq!(os.process_count(), 0);
        assert!(matches!(
            os.user_access(
                &mut machine,
                pid,
                VirtAddr::new(USER_CODE_BASE),
                AccessKind::Read
            ),
            Err(OsError::NoSuchProcess(_))
        ));
    }

    #[test]
    fn mmap_extends_heap() {
        let (mut machine, mut os) = boot();
        let (pid, _) = os.spawn(&mut machine, 1).unwrap();
        os.mmap(&mut machine, pid, 8).unwrap();
        for i in 0..8u64 {
            os.user_access(
                &mut machine,
                pid,
                VirtAddr::new(USER_HEAP_BASE + i * PAGE_SIZE),
                AccessKind::Write,
            )
            .unwrap();
        }
    }

    #[test]
    fn contiguous_placement_keeps_pt_pages_in_pool() {
        let (mut machine, mut os) = boot();
        let (pid, _) = os.spawn(&mut machine, 16).unwrap();
        let (pool_base, pool_size) = os.pt_pool_region();
        for page in os.space_of(pid).unwrap().pt_pages() {
            assert!(
                page.raw() >= pool_base.raw() && page.raw() < pool_base.raw() + pool_size,
                "PT page {page} escaped the pool"
            );
        }
    }

    #[test]
    fn demand_paging_maps_on_first_touch() {
        let (mut machine, mut os) = boot();
        let (pid, _) = os.spawn(&mut machine, 1).unwrap();
        let base = os.mmap_lazy(pid, 4).unwrap();
        // An eager access faults; the faulting path maps and retries.
        assert!(matches!(
            os.user_access(&mut machine, pid, base, AccessKind::Write),
            Err(OsError::Access(Fault::PageFault(_)))
        ));
        let cycles = os
            .user_access_faulting(&mut machine, pid, base, AccessKind::Write)
            .expect("demand fault handled");
        assert!(cycles > 500, "fault handling must cost real work: {cycles}");
        // Second touch: normal access, no handler.
        let warm = os
            .user_access(&mut machine, pid, base, AccessKind::Read)
            .unwrap();
        assert!(warm < cycles);
        // A touch outside any lazy region still faults.
        assert!(matches!(
            os.user_access_faulting(
                &mut machine,
                pid,
                VirtAddr::new(0x5000_0000),
                AccessKind::Read
            ),
            Err(OsError::Access(Fault::PageFault(_)))
        ));
    }

    #[test]
    fn cow_fault_copies_and_upgrades() {
        let (mut machine, mut os) = boot();
        let (parent, _) = os.spawn(&mut machine, 2).unwrap();
        os.mmap(&mut machine, parent, 2).unwrap();
        let heap = VirtAddr::new(USER_HEAP_BASE);
        os.user_access(&mut machine, parent, heap, AccessKind::Write)
            .unwrap();
        let (child, _) = os.fork(&mut machine, parent).unwrap();

        // Both sides are read-only now (true COW).
        assert!(os
            .user_access(&mut machine, parent, heap, AccessKind::Write)
            .is_err());
        assert!(os
            .user_access(&mut machine, child, heap, AccessKind::Write)
            .is_err());
        let parent_frame = os
            .space_of(parent)
            .unwrap()
            .translate(machine.phys(), heap)
            .unwrap()
            .paddr;
        let child_frame = os
            .space_of(child)
            .unwrap()
            .translate(machine.phys(), heap)
            .unwrap()
            .paddr;
        assert_eq!(parent_frame, child_frame, "frame shared before the write");

        // The child writes: COW copies the frame and upgrades.
        os.user_access_faulting(&mut machine, child, heap, AccessKind::Write)
            .expect("COW resolved");
        let child_frame_after = os
            .space_of(child)
            .unwrap()
            .translate(machine.phys(), heap)
            .unwrap()
            .paddr;
        assert_ne!(child_frame_after, parent_frame, "child got a private copy");
        // Parent then writes: sole owner, upgraded in place.
        os.user_access_faulting(&mut machine, parent, heap, AccessKind::Write)
            .expect("parent upgrade");
        let parent_frame_after = os
            .space_of(parent)
            .unwrap()
            .translate(machine.phys(), heap)
            .unwrap()
            .paddr;
        assert_eq!(
            parent_frame_after, parent_frame,
            "parent kept the original frame"
        );
    }

    #[test]
    fn munmap_unmaps_and_recycles() {
        let (mut machine, mut os) = boot();
        let (pid, _) = os.spawn(&mut machine, 1).unwrap();
        os.mmap(&mut machine, pid, 4).unwrap();
        let heap = VirtAddr::new(USER_HEAP_BASE);
        for i in 0..4u64 {
            os.user_access(&mut machine, pid, heap + i * PAGE_SIZE, AccessKind::Write)
                .unwrap();
        }
        os.munmap(&mut machine, pid, heap, 2).unwrap();
        // The unmapped pages fault; the rest stay mapped.
        assert!(matches!(
            os.user_access(&mut machine, pid, heap, AccessKind::Read),
            Err(OsError::Access(Fault::PageFault(_)))
        ));
        os.user_access(&mut machine, pid, heap + 2 * PAGE_SIZE, AccessKind::Read)
            .unwrap();
        // Unmapping an already-unmapped range is a no-op, not an error.
        os.munmap(&mut machine, pid, heap, 2).unwrap();
    }

    #[test]
    fn munmap_does_not_recycle_shared_frames() {
        let (mut machine, mut os) = boot();
        let (parent, _) = os.spawn(&mut machine, 1).unwrap();
        os.mmap(&mut machine, parent, 1).unwrap();
        let heap = VirtAddr::new(USER_HEAP_BASE);
        os.user_access(&mut machine, parent, heap, AccessKind::Write)
            .unwrap();
        let (child, _) = os.fork(&mut machine, parent).unwrap();
        let frame = os
            .space_of(child)
            .unwrap()
            .translate(machine.phys(), heap)
            .unwrap()
            .paddr
            .page_base();
        // Parent unmaps: the frame is still the child's, so it must not be
        // recycled into a fresh allocation.
        os.munmap(&mut machine, parent, heap, 1).unwrap();
        let (other, _) = os.spawn(&mut machine, 1).unwrap();
        os.mmap(&mut machine, other, 1).unwrap();
        let fresh = os
            .space_of(other)
            .unwrap()
            .translate(machine.phys(), heap)
            .unwrap()
            .paddr
            .page_base();
        assert_ne!(
            fresh, frame,
            "shared frame must not be reused while the child lives"
        );
        os.user_access(&mut machine, child, heap, AccessKind::Read)
            .expect("child survives");
    }

    #[test]
    fn mprotect_changes_and_fences() {
        let (mut machine, mut os) = boot();
        let (pid, _) = os.spawn(&mut machine, 1).unwrap();
        os.mmap(&mut machine, pid, 1).unwrap();
        let heap = VirtAddr::new(USER_HEAP_BASE);
        os.user_access(&mut machine, pid, heap, AccessKind::Write)
            .unwrap();
        os.mprotect(&mut machine, pid, heap, Perms::READ).unwrap();
        assert!(matches!(
            os.user_access(&mut machine, pid, heap, AccessKind::Write),
            Err(OsError::Access(Fault::PtePermission(_)))
        ));
        os.user_access(&mut machine, pid, heap, AccessKind::Read)
            .unwrap();
        os.mprotect(&mut machine, pid, heap, Perms::RW).unwrap();
        os.user_access(&mut machine, pid, heap, AccessKind::Write)
            .unwrap();
    }

    #[test]
    fn kernel_access_works_via_direct_map() {
        let (mut machine, mut os) = boot();
        let cost = os
            .kernel_access(
                &mut machine,
                PhysAddr::new(RAM_BASE.raw() + 0x10_0000),
                AccessKind::Read,
            )
            .unwrap();
        assert!(cost > 0);
    }

    #[test]
    fn stats_accumulate() {
        let (mut machine, mut os) = boot();
        let (pid, _) = os.spawn(&mut machine, 2).unwrap();
        os.fork(&mut machine, pid).unwrap();
        os.context_switch(&mut machine, pid).unwrap();
        let stats = os.stats();
        assert_eq!(stats.processes_created, 2);
        assert_eq!(stats.context_switches, 1);
        assert!(stats.pte_installs > 0);
        assert!(stats.kernel_cycles > 0);
    }
}
