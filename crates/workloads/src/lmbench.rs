//! The LMBench OS-operation model (§8.2, Table 3).
//!
//! Each syscall is modelled by the kernel work it actually performs on the
//! simulated OS: trap entry, kernel data-structure accesses (whose footprint
//! determines the TLB-miss rate and hence the scheme gap), buffer copies,
//! and — for fork/exec — genuine page-table construction through
//! [`hpmp_penglai::SimOs`]. `null` touches almost nothing and lands at
//! ~100% in every scheme; `fork+exec` rebuilds address spaces and lands at
//! the top of the table.

use hpmp_machine::MachineConfig;
use hpmp_memsim::{AccessKind, CoreKind, PhysAddr, SplitMix64};
use hpmp_penglai::{OsError, Pid, TeeFlavor};
use hpmp_trace::TraceSink;

use crate::fixture::TeeBench;

/// The syscalls of Table 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Syscall {
    /// `getppid`-style null syscall.
    Null,
    /// `read` from /dev/zero into a small buffer.
    Read,
    /// `write` to /dev/null.
    Write,
    /// `stat` of a path (dentry walk).
    Stat,
    /// `fstat` of an open fd.
    Fstat,
    /// `open` + `close` of a path.
    OpenClose,
    /// pipe round-trip between two processes.
    Pipe,
    /// `fork` + `exit`.
    ForkExit,
    /// `fork` + `exec`.
    ForkExec,
}

/// All syscalls in Table 3's order.
pub const SYSCALLS: [Syscall; 9] = [
    Syscall::Null,
    Syscall::Read,
    Syscall::Write,
    Syscall::Stat,
    Syscall::Fstat,
    Syscall::OpenClose,
    Syscall::Pipe,
    Syscall::ForkExit,
    Syscall::ForkExec,
];

impl std::fmt::Display for Syscall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Syscall::Null => "null",
            Syscall::Read => "read",
            Syscall::Write => "write",
            Syscall::Stat => "stat",
            Syscall::Fstat => "fstat",
            Syscall::OpenClose => "open/close",
            Syscall::Pipe => "pipe",
            Syscall::ForkExit => "fork+exit",
            Syscall::ForkExec => "fork+exec",
        })
    }
}

/// A benchmark context: a TEE stack with one resident process and a seeded
/// RNG for kernel-structure placement.
#[derive(Debug)]
pub struct LmbenchContext<S: TraceSink = hpmp_trace::NullSink> {
    tee: TeeBench<S>,
    proc: Pid,
    rng: SplitMix64,
    /// Base of the simulated kernel-object area (dentries, inodes, files).
    kernel_objs: PhysAddr,
}

impl LmbenchContext {
    /// Boots the stack and a resident benchmark process.
    ///
    /// # Errors
    ///
    /// Propagates OS boot errors.
    pub fn new(flavor: TeeFlavor, core: CoreKind) -> Result<LmbenchContext, OsError> {
        LmbenchContext::new_with_sink(
            flavor,
            crate::fixture::config_for(core),
            hpmp_trace::NullSink,
        )
    }
}

impl<S: TraceSink> LmbenchContext<S> {
    /// The underlying TEE stack (for stats and trace inspection).
    pub fn tee(&self) -> &TeeBench<S> {
        &self.tee
    }

    /// Mutable access to the underlying TEE stack.
    pub fn tee_mut(&mut self) -> &mut TeeBench<S> {
        &mut self.tee
    }

    /// As [`LmbenchContext::new`] on a machine built from `config`,
    /// recording walk events into `sink`.
    ///
    /// # Errors
    ///
    /// Propagates OS boot errors.
    pub fn new_with_sink(
        flavor: TeeFlavor,
        config: MachineConfig,
        sink: S,
    ) -> Result<LmbenchContext<S>, OsError> {
        let mut tee = TeeBench::boot_with_sink(flavor, config, sink);
        let (proc, _) = tee.os.spawn(&mut tee.machine, 8)?;
        tee.os.mmap(&mut tee.machine, proc, 8)?;
        // Kernel objects live in the OS's kernel area inside the data GMS.
        let kernel_objs = tee.os.kernel_area().0;
        Ok(LmbenchContext {
            tee,
            proc,
            rng: SplitMix64::seed_from_u64(0xbe9c),
            kernel_objs,
        })
    }

    /// Runs one iteration of `syscall`, returning its cycle cost.
    ///
    /// # Errors
    ///
    /// Propagates access faults.
    pub fn run(&mut self, syscall: Syscall) -> Result<u64, OsError> {
        let mut cycles = self.trap(120); // entry/exit + dispatch
        match syscall {
            Syscall::Null => {
                cycles += self.kernel_hot(4)?;
            }
            Syscall::Read => {
                cycles += self.kernel_hot(6)?;
                cycles += self.kernel_objects(6)?; // file, inode, page cache
                cycles += self.copy(512)?;
            }
            Syscall::Write => {
                cycles += self.kernel_hot(6)?;
                cycles += self.kernel_objects(3)?;
                cycles += self.copy(512)?;
            }
            Syscall::Stat => {
                cycles += self.kernel_hot(8)?;
                // Path walk: ~6 dentry/inode lookups scattered over the
                // dentry cache — the TLB-miss-heavy part.
                cycles += self.kernel_objects(26)?;
            }
            Syscall::Fstat => {
                cycles += self.kernel_hot(6)?;
                cycles += self.kernel_objects(5)?;
            }
            Syscall::OpenClose => {
                cycles += self.kernel_hot(10)?;
                cycles += self.kernel_objects(30)?; // walk + fd alloc + release
            }
            Syscall::Pipe => {
                cycles += self.kernel_hot(10)?;
                cycles += self.kernel_objects(12)?;
                cycles += self.copy(512)?;
                cycles += self
                    .tee
                    .os
                    .context_switch(&mut self.tee.machine, self.proc)?;
                cycles += self.copy(512)?;
                cycles += self
                    .tee
                    .os
                    .context_switch(&mut self.tee.machine, self.proc)?;
            }
            Syscall::ForkExit => {
                let (child, fork) = self.tee.os.fork(&mut self.tee.machine, self.proc)?;
                cycles += fork;
                cycles += self.kernel_objects(10)?;
                cycles += self.tee.os.exit(&mut self.tee.machine, child)?;
            }
            Syscall::ForkExec => {
                let (child, fork) = self.tee.os.fork(&mut self.tee.machine, self.proc)?;
                cycles += fork;
                cycles += self.tee.os.exit(&mut self.tee.machine, child)?;
                let (fresh, spawn) = self.tee.os.spawn(&mut self.tee.machine, 12)?;
                cycles += spawn;
                cycles += self.kernel_objects(12)?;
                cycles += self.tee.os.exit(&mut self.tee.machine, fresh)?;
            }
        }
        Ok(cycles)
    }

    fn trap(&mut self, instructions: u64) -> u64 {
        self.tee.machine.run_compute(instructions)
    }

    /// Hot per-CPU kernel data: a few lines, always TLB/cache resident.
    fn kernel_hot(&mut self, accesses: u64) -> Result<u64, OsError> {
        let mut cycles = 0;
        let (base, size) = self.tee.os.kernel_area();
        let hot = PhysAddr::new(base.raw() + size - (1 << 20));
        for i in 0..accesses {
            let pa = PhysAddr::new(hot.raw() + (i % 8) * 64);
            cycles += self
                .tee
                .os
                .kernel_access(&mut self.tee.machine, pa, AccessKind::Read)?;
        }
        Ok(cycles)
    }

    /// Scattered kernel objects over a 16 MiB slab area: dentries, inodes,
    /// files. This is where the schemes separate.
    fn kernel_objects(&mut self, accesses: u64) -> Result<u64, OsError> {
        let mut cycles = 0;
        let slab = (16u64 << 20).min(self.tee.os.kernel_area().1 / 2);
        for _ in 0..accesses {
            let off = self.rng.gen_range(0..slab) & !63;
            let pa = PhysAddr::new(self.kernel_objs.raw() + off);
            cycles += self
                .tee
                .os
                .kernel_access(&mut self.tee.machine, pa, AccessKind::Read)?;
            cycles += self.tee.machine.run_compute(12);
        }
        Ok(cycles)
    }

    /// A user↔kernel buffer copy of `bytes`.
    fn copy(&mut self, bytes: u64) -> Result<u64, OsError> {
        let mut cycles = 0;
        let lines = bytes.div_ceil(64);
        for i in 0..lines {
            let user_va = hpmp_memsim::VirtAddr::new(hpmp_penglai::USER_HEAP_BASE + i * 64);
            cycles += self.tee.os.user_access(
                &mut self.tee.machine,
                self.proc,
                user_va,
                AccessKind::Read,
            )?;
            let (base, size) = self.tee.os.kernel_area();
            let pa = PhysAddr::new(base.raw() + size - (2 << 20) + i * 64);
            cycles += self
                .tee
                .os
                .kernel_access(&mut self.tee.machine, pa, AccessKind::Write)?;
        }
        Ok(cycles)
    }
}

/// Mean cost of `syscall` over `iters` iterations (first iteration warms
/// up and is excluded).
///
/// # Errors
///
/// Propagates OS errors.
pub fn measure_syscall(
    flavor: TeeFlavor,
    core: CoreKind,
    syscall: Syscall,
    iters: u64,
) -> Result<u64, OsError> {
    let mut ctx = LmbenchContext::new(flavor, core)?;
    ctx.run(syscall)?; // warm-up
    let mut total = 0;
    for _ in 0..iters {
        total += ctx.run(syscall)?;
    }
    Ok(total / iters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_scheme_independent() {
        let pmp =
            measure_syscall(TeeFlavor::PenglaiPmp, CoreKind::Rocket, Syscall::Null, 20).unwrap();
        let pmpt =
            measure_syscall(TeeFlavor::PenglaiPmpt, CoreKind::Rocket, Syscall::Null, 20).unwrap();
        let ratio = pmpt as f64 / pmp as f64;
        assert!((0.98..1.05).contains(&ratio), "null ratio {ratio}");
    }

    #[test]
    fn stat_separates_schemes() {
        let pmp =
            measure_syscall(TeeFlavor::PenglaiPmp, CoreKind::Rocket, Syscall::Stat, 12).unwrap();
        let pmpt =
            measure_syscall(TeeFlavor::PenglaiPmpt, CoreKind::Rocket, Syscall::Stat, 12).unwrap();
        let hpmp =
            measure_syscall(TeeFlavor::PenglaiHpmp, CoreKind::Rocket, Syscall::Stat, 12).unwrap();
        let pmpt_ratio = pmpt as f64 / pmp as f64;
        let hpmp_ratio = hpmp as f64 / pmp as f64;
        assert!(
            pmpt_ratio > 1.05,
            "stat: PMPT should cost >5%: {pmpt_ratio}"
        );
        assert!(hpmp_ratio < pmpt_ratio, "stat: HPMP must beat PMPT");
    }

    #[test]
    fn fork_exec_heaviest() {
        let mut ctx = LmbenchContext::new(TeeFlavor::PenglaiPmpt, CoreKind::Rocket).unwrap();
        let null = ctx.run(Syscall::Null).unwrap();
        let fork_exec = ctx.run(Syscall::ForkExec).unwrap();
        assert!(
            fork_exec > 10 * null,
            "fork+exec {fork_exec} vs null {null}"
        );
    }

    #[test]
    fn all_syscalls_run_on_all_flavours() {
        for flavor in crate::fixture::FLAVORS {
            let mut ctx = LmbenchContext::new(flavor, CoreKind::Rocket).unwrap();
            for syscall in SYSCALLS {
                assert!(ctx.run(syscall).unwrap() > 0, "{flavor} {syscall}");
            }
        }
    }
}
