//! User-memory arenas and access-pattern generation.
//!
//! Application workloads are expressed as *memory reference traces with
//! compute interleaved*: a process owns an arena of mapped pages, and a
//! pattern generator yields byte offsets into it. The trace is then replayed
//! through the full machine (TLB → walk → HPMP → caches), so each suite's
//! TLB-miss profile — the quantity that separates the three schemes — is a
//! property of its pattern, exactly as on the FPGA.

use hpmp_machine::Machine;
use hpmp_memsim::{AccessKind, SplitMix64, VirtAddr, PAGE_SIZE};
use hpmp_penglai::{OsError, Pid, SimOs, USER_HEAP_BASE};
use hpmp_trace::TraceSink;

/// A process-backed region of user memory.
#[derive(Clone, Copy, Debug)]
pub struct UserArena {
    /// Owning process.
    pub pid: Pid,
    /// Base virtual address.
    pub base: VirtAddr,
    /// Size in bytes.
    pub bytes: u64,
}

impl UserArena {
    /// Spawns a process and maps an arena of `pages` heap pages.
    ///
    /// # Errors
    ///
    /// Propagates OS errors (out of frames).
    pub fn create<S: TraceSink>(
        os: &mut SimOs,
        machine: &mut Machine<S>,
        pages: u64,
    ) -> Result<UserArena, OsError> {
        let (pid, _) = os.spawn(machine, 4)?;
        os.mmap(machine, pid, pages)?;
        Ok(UserArena {
            pid,
            base: VirtAddr::new(USER_HEAP_BASE),
            bytes: pages * PAGE_SIZE,
        })
    }

    /// The virtual address `offset` bytes into the arena (wrapped).
    pub fn va(&self, offset: u64) -> VirtAddr {
        VirtAddr::new(self.base.raw() + (offset % self.bytes))
    }
}

/// One step of a workload trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceStep {
    /// Byte offset into the arena.
    pub offset: u64,
    /// Load or store.
    pub kind: AccessKind,
    /// Straight-line instructions executed before this access.
    pub compute: u64,
}

/// Replays a trace through the machine, returning total cycles.
///
/// # Errors
///
/// Propagates access faults.
pub fn replay<S: TraceSink>(
    os: &mut SimOs,
    machine: &mut Machine<S>,
    arena: &UserArena,
    trace: impl IntoIterator<Item = TraceStep>,
) -> Result<u64, OsError> {
    let mut cycles = 0;
    for step in trace {
        cycles += machine.run_compute(step.compute);
        cycles += os.user_access(machine, arena.pid, arena.va(step.offset), step.kind)?;
    }
    Ok(cycles)
}

/// As [`replay`], but interleaves instruction fetches over the process's
/// code pages: every step fetches from a rotating code page before its data
/// access, exercising the I-TLB the way an interpreter with a large text
/// segment does. `code_pages` is the rotation footprint (capped to what the
/// process actually mapped).
///
/// # Errors
///
/// Propagates access faults.
pub(crate) fn replay_with_code<S: TraceSink>(
    os: &mut SimOs,
    machine: &mut Machine<S>,
    arena: &UserArena,
    code_pages: u64,
    trace: impl IntoIterator<Item = TraceStep>,
) -> Result<u64, OsError> {
    use hpmp_memsim::PrivMode;
    use hpmp_penglai::USER_CODE_BASE;
    let mut cycles = 0;
    let mut ip = 0u64;
    let space_code_pages = code_pages.max(1);
    for step in trace {
        // One representative fetch per step (a taken branch to a new line).
        let code_va = VirtAddr::new(
            USER_CODE_BASE + (ip % space_code_pages) * PAGE_SIZE + (ip * 64) % PAGE_SIZE,
        );
        let space = os.space_of(arena.pid)?;
        cycles += machine.fetch(space, code_va, PrivMode::User)?.cycles;
        ip = ip.wrapping_add(1 + step.compute / 16);
        cycles += machine.run_compute(step.compute);
        cycles += os.user_access(machine, arena.pid, arena.va(step.offset), step.kind)?;
    }
    Ok(cycles)
}

/// Deterministic pattern generators. All take a seed so runs are
/// reproducible across schemes (the *same* trace is replayed on each).
#[derive(Clone, Debug)]
pub struct Patterns {
    rng: SplitMix64,
}

impl Patterns {
    /// Creates a generator with a fixed seed.
    pub fn new(seed: u64) -> Patterns {
        Patterns {
            rng: SplitMix64::seed_from_u64(seed),
        }
    }

    /// Sequential sweep: `n` accesses with the given stride, `write_ratio`
    /// in `[0,1]`, and fixed compute per access.
    pub fn sequential(
        &mut self,
        n: u64,
        stride: u64,
        write_ratio: f64,
        compute: u64,
    ) -> Vec<TraceStep> {
        (0..n)
            .map(|i| TraceStep {
                offset: i * stride,
                kind: self.kind(write_ratio),
                compute,
            })
            .collect()
    }

    /// Uniform random accesses over a working set of `ws_bytes`.
    pub fn random(
        &mut self,
        n: u64,
        ws_bytes: u64,
        write_ratio: f64,
        compute: u64,
    ) -> Vec<TraceStep> {
        (0..n)
            .map(|_| TraceStep {
                offset: self.rng.gen_range(0..ws_bytes.max(8)) & !7,
                kind: self.kind(write_ratio),
                compute,
            })
            .collect()
    }

    /// Skewed accesses: a fraction `hot_ratio` of references go to a small
    /// hot set of `hot_bytes`; the rest are uniform over `ws_bytes` — the
    /// shape of hash tables and graph frontiers.
    pub fn skewed(
        &mut self,
        n: u64,
        ws_bytes: u64,
        hot_bytes: u64,
        hot_ratio: f64,
        write_ratio: f64,
        compute: u64,
    ) -> Vec<TraceStep> {
        (0..n)
            .map(|_| {
                let offset = if self.rng.gen_bool(hot_ratio) {
                    self.rng.gen_range(0..hot_bytes.max(8))
                } else {
                    self.rng.gen_range(0..ws_bytes.max(8))
                };
                TraceStep {
                    offset: offset & !7,
                    kind: self.kind(write_ratio),
                    compute,
                }
            })
            .collect()
    }

    fn kind(&mut self, write_ratio: f64) -> AccessKind {
        if self.rng.gen_bool(write_ratio) {
            AccessKind::Write
        } else {
            AccessKind::Read
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::TeeBench;
    use hpmp_memsim::CoreKind;
    use hpmp_penglai::TeeFlavor;
    use hpmp_trace::NullSink;

    #[test]
    fn arena_round_trip() {
        let mut tee = TeeBench::boot_with_sink(TeeFlavor::PenglaiPmp, CoreKind::Rocket, NullSink);
        let arena = UserArena::create(&mut tee.os, &mut tee.machine, 8).unwrap();
        assert_eq!(arena.bytes, 8 * PAGE_SIZE);
        assert_eq!(arena.va(0), VirtAddr::new(USER_HEAP_BASE));
        assert_eq!(arena.va(arena.bytes + 8), VirtAddr::new(USER_HEAP_BASE + 8));
    }

    #[test]
    fn replay_accumulates_cycles() {
        let mut tee = TeeBench::boot_with_sink(TeeFlavor::PenglaiHpmp, CoreKind::Rocket, NullSink);
        let arena = UserArena::create(&mut tee.os, &mut tee.machine, 8).unwrap();
        let trace = Patterns::new(7).sequential(64, 64, 0.25, 4);
        let cycles = replay(&mut tee.os, &mut tee.machine, &arena, trace).unwrap();
        assert!(cycles > 64 * 4);
    }

    #[test]
    fn patterns_are_deterministic() {
        let a = Patterns::new(42).random(32, 1 << 20, 0.5, 1);
        let b = Patterns::new(42).random(32, 1 << 20, 0.5, 1);
        assert_eq!(a, b);
        let c = Patterns::new(43).random(32, 1 << 20, 0.5, 1);
        assert_ne!(a, c);
    }

    #[test]
    fn skewed_pattern_respects_hot_set() {
        let steps = Patterns::new(1).skewed(1000, 1 << 24, 4096, 0.9, 0.0, 0);
        let hot = steps.iter().filter(|s| s.offset < 4096).count();
        assert!(hot > 800, "expected ~90% hot hits, got {hot}");
    }

    #[test]
    fn offsets_are_word_aligned() {
        for s in Patterns::new(9).random(100, 1 << 20, 0.5, 0) {
            assert_eq!(s.offset % 8, 0);
        }
    }
}
