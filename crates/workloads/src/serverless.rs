//! Serverless-computing case study (§8.4, Figure 12-a/b/c).
//!
//! Serverless functions are short-lived: every invocation pays process
//! creation (fork/exec with real page-table construction), cold first
//! touches of its working set, a compute phase, and teardown. The cold
//! walks are where the permission table hurts — unlike the long-running
//! suites, there is no steady state for the TLB to amortise into.

use hpmp_memsim::{AccessKind, CoreKind, PAGE_SIZE};
use hpmp_penglai::{OsError, TeeFlavor};
use hpmp_trace::{Snapshot, TraceSink};

use crate::arena::{replay, replay_with_code, Patterns, TraceStep, UserArena};
use crate::fixture::TeeBench;

/// The FunctionBench functions of Figure 12-a/b.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Function {
    /// HTML templating (chameleon).
    Chameleon,
    /// `dd`-style block copy.
    Dd,
    /// Gzip compression.
    Gzip,
    /// Linpack linear algebra.
    Linpack,
    /// Matrix multiply.
    Matmul,
    /// AES in Python.
    PyAes,
    /// Image processing (single function).
    Image,
}

/// All functions in the figure's order.
pub const FUNCTIONS: [Function; 7] = [
    Function::Chameleon,
    Function::Dd,
    Function::Gzip,
    Function::Linpack,
    Function::Matmul,
    Function::PyAes,
    Function::Image,
];

impl std::fmt::Display for Function {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Function::Chameleon => "Chameleon",
            Function::Dd => "DD",
            Function::Gzip => "GZip",
            Function::Linpack => "Linpack",
            Function::Matmul => "Matmul",
            Function::PyAes => "PyAES",
            Function::Image => "Image",
        })
    }
}

/// Behavioural profile of one function invocation.
#[derive(Clone, Copy, Debug)]
struct Profile {
    /// Code pages (exec footprint: interpreters are large).
    code_pages: u64,
    /// Heap pages touched during the run.
    heap_pages: u64,
    /// Steady-phase accesses after the cold touches.
    accesses: u64,
    /// Compute instructions per access.
    compute: u64,
    /// Random (true) or streaming (false) steady phase.
    random: bool,
}

fn profile(function: Function) -> Profile {
    match function {
        // Template rendering: many small objects, random.
        Function::Chameleon => Profile {
            code_pages: 48,
            heap_pages: 160,
            accesses: 1600,
            compute: 8,
            random: true,
        },
        // dd: streaming copy, low compute.
        Function::Dd => Profile {
            code_pages: 16,
            heap_pages: 256,
            accesses: 2400,
            compute: 3,
            random: false,
        },
        Function::Gzip => Profile {
            code_pages: 24,
            heap_pages: 192,
            accesses: 2200,
            compute: 12,
            random: false,
        },
        // Linpack/Matmul: blocked numeric kernels, good locality, heavy FP.
        Function::Linpack => Profile {
            code_pages: 32,
            heap_pages: 128,
            accesses: 1800,
            compute: 22,
            random: false,
        },
        Function::Matmul => Profile {
            code_pages: 16,
            heap_pages: 96,
            accesses: 1500,
            compute: 26,
            random: false,
        },
        Function::PyAes => Profile {
            code_pages: 40,
            heap_pages: 64,
            accesses: 1400,
            compute: 18,
            random: true,
        },
        Function::Image => Profile {
            code_pages: 32,
            heap_pages: 200,
            accesses: 2000,
            compute: 9,
            random: false,
        },
    }
}

/// Runs one cold invocation of `function`; returns end-to-end cycles
/// (create + touch + compute + teardown).
///
/// # Errors
///
/// Propagates OS errors.
pub fn invoke<S: TraceSink>(
    tee: &mut TeeBench<S>,
    function: Function,
    seed: u64,
) -> Result<u64, OsError> {
    let p = profile(function);
    let mut cycles = 0;

    // Cold start: spawn with the function's code footprint; the heap is
    // reserved lazily, as mmap does — first touches take demand faults
    // (trap + frame grab + PTE install), the real cold-start dynamic.
    let (pid, spawn_cycles) = tee.os.spawn(&mut tee.machine, p.code_pages)?;
    cycles += spawn_cycles;
    let heap_base = tee.os.mmap_lazy(pid, p.heap_pages)?;

    let arena = UserArena {
        pid,
        base: heap_base,
        bytes: p.heap_pages * PAGE_SIZE,
    };
    // Cold touches: one demand fault per page.
    for i in 0..p.heap_pages {
        cycles += tee.machine.run_compute(4);
        cycles += tee.os.user_access_faulting(
            &mut tee.machine,
            pid,
            hpmp_memsim::VirtAddr::new(heap_base.raw() + i * PAGE_SIZE),
            AccessKind::Write,
        )?;
    }

    // Steady phase, with instruction fetches over the function's code
    // footprint (interpreters like Chameleon/PyAES have large text).
    let mut patterns = Patterns::new(seed);
    let ws = p.heap_pages * PAGE_SIZE;
    let steady = if p.random {
        patterns.random(p.accesses, ws, 0.4, p.compute)
    } else {
        patterns.sequential(p.accesses, 72, 0.4, p.compute)
    };
    cycles += replay_with_code(&mut tee.os, &mut tee.machine, &arena, p.code_pages, steady)?;

    // Teardown.
    cycles += tee.os.exit(&mut tee.machine, pid)?;
    Ok(cycles)
}

/// Mean invocation latency over `n` cold invocations on `tee`, whose
/// machine and sink then hold the run's counters and events.
///
/// # Errors
///
/// Propagates OS errors.
pub fn measure_function_on<S: TraceSink>(
    tee: &mut TeeBench<S>,
    function: Function,
    n: u64,
) -> Result<u64, OsError> {
    let mut total = 0;
    for i in 0..n {
        total += invoke(tee, function, 0x5eed + i)?;
    }
    Ok(total / n)
}

/// The chained image-processing application of Figure 12-c: four functions
/// invoked in sequence, each handling an `size × size` image (4 bytes per
/// pixel), recording walk events into `sink`. Returns the end-to-end
/// latency and the machine's metrics snapshot.
///
/// # Errors
///
/// Propagates OS errors.
pub fn image_chain<S: TraceSink>(
    flavor: TeeFlavor,
    core: CoreKind,
    size: u64,
    sink: S,
) -> Result<(u64, Snapshot), OsError> {
    let mut tee = TeeBench::boot_with_sink(flavor, core, sink);
    let image_bytes = size * size * 4;
    let image_pages = image_bytes.div_ceil(PAGE_SIZE).max(1);
    let mut cycles = 0;
    // Stages: decode, resize, filter, encode. Compute per pixel grows with
    // the stage's arithmetic intensity.
    for compute_per_px in [6u64, 4, 10, 8] {
        let (pid, spawn_cycles) = tee.os.spawn(&mut tee.machine, 24)?;
        cycles += spawn_cycles;
        cycles += tee.os.mmap(&mut tee.machine, pid, image_pages * 2)?;
        let arena = UserArena {
            pid,
            base: hpmp_memsim::VirtAddr::new(hpmp_penglai::USER_HEAP_BASE),
            bytes: image_pages * 2 * PAGE_SIZE,
        };
        // Stream input image, write output image; sampled at one access per
        // 16 pixels to bound simulation time (compute scaled to match).
        let samples = (size * size / 16).max(64);
        let trace: Vec<TraceStep> = (0..samples)
            .flat_map(|i| {
                let off = (i * 64) % (image_pages * PAGE_SIZE);
                [
                    TraceStep {
                        offset: off,
                        kind: AccessKind::Read,
                        compute: compute_per_px * 16,
                    },
                    TraceStep {
                        offset: image_pages * PAGE_SIZE + off,
                        kind: AccessKind::Write,
                        compute: 2,
                    },
                ]
            })
            .collect();
        cycles += replay(&mut tee.os, &mut tee.machine, &arena, trace)?;
        cycles += tee.os.exit(&mut tee.machine, pid)?;
    }
    tee.machine.flush_sink();
    Ok((cycles, tee.machine.metrics_snapshot()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpmp_trace::NullSink;

    fn mean(flavor: TeeFlavor, function: Function, n: u64) -> u64 {
        let mut tee = TeeBench::boot_with_sink(flavor, CoreKind::Rocket, NullSink);
        measure_function_on(&mut tee, function, n).unwrap()
    }

    fn chain(flavor: TeeFlavor, size: u64) -> u64 {
        image_chain(flavor, CoreKind::Rocket, size, NullSink)
            .unwrap()
            .0
    }

    #[test]
    fn functions_separate_schemes() {
        // Figure 12: PMPT costs double-digit %, HPMP a few %.
        let pmp = mean(TeeFlavor::PenglaiPmp, Function::Dd, 2);
        let pmpt = mean(TeeFlavor::PenglaiPmpt, Function::Dd, 2);
        let hpmp = mean(TeeFlavor::PenglaiHpmp, Function::Dd, 2);
        let pmpt_over = pmpt as f64 / pmp as f64;
        let hpmp_over = hpmp as f64 / pmp as f64;
        assert!(
            pmpt_over > 1.01,
            "PMPT must cost >1% on serverless: {pmpt_over}"
        );
        assert!(hpmp_over < pmpt_over, "HPMP must recover the gap");
        assert!(
            (hpmp_over - 1.0) < 0.6 * (pmpt_over - 1.0),
            "HPMP should remove most of the overhead: {hpmp_over} vs {pmpt_over}"
        );
    }

    #[test]
    fn image_chain_grows_with_size() {
        let small = chain(TeeFlavor::PenglaiPmp, 32);
        let large = chain(TeeFlavor::PenglaiPmp, 128);
        assert!(large > small * 2, "latency must grow with image size");
    }

    #[test]
    fn image_chain_gap_shrinks_with_size() {
        // Figure 12-c: the PMPT gap narrows as compute grows (29.7% -> 1.6%).
        let over = |size| {
            let pmp = chain(TeeFlavor::PenglaiPmp, size);
            let pmpt = chain(TeeFlavor::PenglaiPmpt, size);
            pmpt as f64 / pmp as f64
        };
        let small = over(32);
        let large = over(256);
        assert!(
            small > large,
            "overhead must shrink with size: {small} vs {large}"
        );
    }

    #[test]
    fn all_functions_run() {
        let mut tee = TeeBench::boot_with_sink(TeeFlavor::PenglaiHpmp, CoreKind::Rocket, NullSink);
        for function in FUNCTIONS {
            assert!(invoke(&mut tee, function, 1).unwrap() > 0, "{function}");
        }
    }
}
