//! The RV8 benchmark suite model (§8.3, Figure 11-a).
//!
//! RV8's kernels are compute-bound with small-to-medium working sets, which
//! is why even Penglai-PMPT costs only 0.0%–1.7% on them: nearly every
//! access is a TLB hit, and TLB inlining makes hits scheme-independent.
//! Each kernel is modelled by its compute:memory ratio, working-set size and
//! access pattern.

use hpmp_machine::MachineConfig;
use hpmp_penglai::{OsError, TeeFlavor};
use hpmp_trace::TraceSink;

use crate::arena::{replay, Patterns, UserArena};
use crate::fixture::TeeBench;

/// The eight RV8 kernels of Figure 11-a.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rv8Kernel {
    /// AES encryption over a buffer.
    Aes,
    /// NORX authenticated encryption.
    Norx,
    /// Prime sieve.
    Primes,
    /// SHA-512 hashing.
    Sha512,
    /// Quicksort over an array.
    Qsort,
    /// Dhrystone (pure integer compute).
    Dhrystone,
    /// miniz compression.
    Miniz,
    /// Big-integer arithmetic.
    Bigint,
}

/// All kernels in the figure's order.
pub const RV8_KERNELS: [Rv8Kernel; 8] = [
    Rv8Kernel::Aes,
    Rv8Kernel::Norx,
    Rv8Kernel::Primes,
    Rv8Kernel::Sha512,
    Rv8Kernel::Qsort,
    Rv8Kernel::Dhrystone,
    Rv8Kernel::Miniz,
    Rv8Kernel::Bigint,
];

impl std::fmt::Display for Rv8Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Rv8Kernel::Aes => "aes",
            Rv8Kernel::Norx => "norx",
            Rv8Kernel::Primes => "primes",
            Rv8Kernel::Sha512 => "sha512",
            Rv8Kernel::Qsort => "qsort",
            Rv8Kernel::Dhrystone => "dhrystone",
            Rv8Kernel::Miniz => "miniz",
            Rv8Kernel::Bigint => "bigint",
        })
    }
}

/// Behavioural profile of one kernel.
#[derive(Clone, Copy, Debug)]
struct Profile {
    /// Working set in bytes.
    ws: u64,
    /// Accesses issued (scaled iteration count).
    accesses: u64,
    /// Compute instructions per access.
    compute: u64,
    /// Store fraction.
    write_ratio: f64,
    /// Sequential (stride) if `Some(stride)`, random otherwise.
    stride: Option<u64>,
}

fn profile(kernel: Rv8Kernel) -> Profile {
    match kernel {
        // Streaming crypto: sequential buffers, heavy per-byte compute.
        Rv8Kernel::Aes => Profile {
            ws: 1 << 20,
            accesses: 3000,
            compute: 24,
            write_ratio: 0.5,
            stride: Some(64),
        },
        // NORX streams past the L2-TLB reach; paper's largest RV8 overhead.
        Rv8Kernel::Norx => Profile {
            ws: 6 << 20,
            accesses: 3000,
            compute: 18,
            write_ratio: 0.5,
            stride: Some(192),
        },
        // Sieve: sequential marks over a medium array.
        Rv8Kernel::Primes => Profile {
            ws: 2 << 20,
            accesses: 2500,
            compute: 10,
            write_ratio: 0.7,
            stride: Some(8),
        },
        Rv8Kernel::Sha512 => Profile {
            ws: 1 << 20,
            accesses: 2500,
            compute: 30,
            write_ratio: 0.2,
            stride: Some(64),
        },
        // Qsort: random-ish partitioning over a 3 MiB array (fits the L2
        // TLB once warm, like the RV8 input size does on the FPGA).
        Rv8Kernel::Qsort => Profile {
            ws: 3 << 20,
            accesses: 3500,
            compute: 10,
            write_ratio: 0.45,
            stride: None,
        },
        // Dhrystone: tiny working set, almost pure compute.
        Rv8Kernel::Dhrystone => Profile {
            ws: 64 << 10,
            accesses: 2000,
            compute: 40,
            write_ratio: 0.3,
            stride: Some(16),
        },
        Rv8Kernel::Miniz => Profile {
            ws: 5 << 20,
            accesses: 3000,
            compute: 16,
            write_ratio: 0.4,
            stride: Some(160),
        },
        // Bigint: tiny hot limbs, the paper's 0.0% case.
        Rv8Kernel::Bigint => Profile {
            ws: 32 << 10,
            accesses: 2000,
            compute: 36,
            write_ratio: 0.5,
            stride: Some(8),
        },
    }
}

/// Runs one RV8 kernel on a machine built from `config`, recording walk
/// events into `sink`; returns the total cycles and the machine's metrics
/// snapshot.
///
/// # Errors
///
/// Propagates OS errors.
pub fn run_rv8_with_sink<S: TraceSink>(
    flavor: TeeFlavor,
    config: impl Into<MachineConfig>,
    kernel: Rv8Kernel,
    sink: S,
) -> Result<(u64, hpmp_trace::Snapshot), OsError> {
    let p = profile(kernel);
    let mut tee = TeeBench::boot_with_sink(flavor, config, sink);
    let pages = p.ws.div_ceil(hpmp_memsim::PAGE_SIZE);
    let arena = UserArena::create(&mut tee.os, &mut tee.machine, pages)?;
    let mut patterns = Patterns::new(kernel as u64 + 1);
    let trace = match p.stride {
        Some(stride) => patterns.sequential(p.accesses, stride, p.write_ratio, p.compute),
        None => patterns.random(p.accesses, p.ws, p.write_ratio, p.compute),
    };
    // Warm-up pass over the working set (RV8 kernels iterate many times;
    // the steady state is what the paper measures).
    let warm = patterns.sequential(p.ws / 4096, 4096, 0.0, 0);
    replay(&mut tee.os, &mut tee.machine, &arena, warm)?;
    tee.machine.reset_stats();
    let cycles = replay(&mut tee.os, &mut tee.machine, &arena, trace)?;
    tee.machine.flush_sink();
    Ok((cycles, tee.machine.metrics_snapshot()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpmp_memsim::CoreKind;
    use hpmp_trace::NullSink;

    /// Total cycles of `kernel` on a Rocket core.
    fn rocket_cycles(flavor: TeeFlavor, kernel: Rv8Kernel) -> u64 {
        run_rv8_with_sink(flavor, CoreKind::Rocket, kernel, NullSink)
            .unwrap()
            .0
    }

    #[test]
    fn overheads_are_small() {
        // Figure 11-a: PMPT ≤ ~2% over PMP on RV8 (good locality).
        for kernel in [Rv8Kernel::Dhrystone, Rv8Kernel::Bigint, Rv8Kernel::Qsort] {
            let pmp = rocket_cycles(TeeFlavor::PenglaiPmp, kernel);
            let pmpt = rocket_cycles(TeeFlavor::PenglaiPmpt, kernel);
            let hpmp = rocket_cycles(TeeFlavor::PenglaiHpmp, kernel);
            let pmpt_over = pmpt as f64 / pmp as f64;
            let hpmp_over = hpmp as f64 / pmp as f64;
            assert!(
                pmpt_over < 1.12,
                "{kernel}: PMPT overhead too large: {pmpt_over}"
            );
            assert!(
                hpmp_over <= pmpt_over + 1e-9,
                "{kernel}: HPMP must not exceed PMPT"
            );
        }
    }

    #[test]
    fn compute_bound_kernels_are_insensitive() {
        // Dhrystone/bigint: tiny WS => all TLB hits => near-zero overhead.
        let pmp = rocket_cycles(TeeFlavor::PenglaiPmp, Rv8Kernel::Bigint);
        let pmpt = rocket_cycles(TeeFlavor::PenglaiPmpt, Rv8Kernel::Bigint);
        let over = pmpt as f64 / pmp as f64;
        assert!(over < 1.02, "bigint overhead should be ~0%: {over}");
    }

    #[test]
    fn all_kernels_have_profiles() {
        for kernel in RV8_KERNELS {
            let p = profile(kernel);
            assert!(p.ws > 0 && p.accesses > 0);
        }
    }
}
