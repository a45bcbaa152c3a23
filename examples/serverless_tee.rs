//! Serverless functions inside a Penglai enclave: the paper's motivating
//! workload. Boots the full stack (secure monitor → enclave domain →
//! simulated OS) under each TEE flavour and invokes a FunctionBench-style
//! function cold, showing how the permission table taxes short-lived
//! functions and how Penglai-HPMP recovers the loss.
//!
//! Run with: `cargo run --release --example serverless_tee`

use hpmp_suite::memsim::CoreKind;
use hpmp_suite::penglai::TeeFlavor;
use hpmp_suite::trace::NullSink;
use hpmp_suite::workloads::serverless::{invoke, Function, FUNCTIONS};
use hpmp_suite::workloads::TeeBench;

fn main() {
    println!("Cold serverless invocations under the three Penglai flavours (Rocket)\n");

    let flavors = [
        TeeFlavor::PenglaiPmp,
        TeeFlavor::PenglaiPmpt,
        TeeFlavor::PenglaiHpmp,
    ];

    println!(
        "{:<12}{:>14}{:>14}{:>14}",
        "function", "PL-PMP", "PL-PMPT", "PL-HPMP"
    );
    for function in FUNCTIONS {
        // Fresh stack per cell so every flavour sees the same cold state;
        // normalise the row to its own Penglai-PMP cell.
        let cells: Vec<u64> = flavors
            .iter()
            .map(|&flavor| {
                let mut tee = TeeBench::boot_with_sink(flavor, CoreKind::Rocket, NullSink);
                invoke(&mut tee, function, 1).expect("invocation")
            })
            .collect();
        print!("{:<12}", function.to_string());
        for &cycles in &cells {
            print!("{:>13.1}%", cycles as f64 * 100.0 / cells[0] as f64);
        }
        println!();
    }

    // Zoom in on one function and break down where the cycles go.
    println!("\nBreakdown for one cold {} invocation:", Function::Dd);
    for flavor in flavors {
        let mut tee = TeeBench::boot_with_sink(flavor, CoreKind::Rocket, NullSink);
        tee.machine.reset_stats();
        let cycles = invoke(&mut tee, Function::Dd, 1).expect("invocation");
        let stats = tee.machine.stats();
        println!(
            "  {flavor:<14} {cycles:>9} cycles | {:>6} walks | pmpte refs: {} (PT) + {} (data)",
            stats.walks, stats.refs.pmpte_for_pt, stats.refs.pmpte_for_data,
        );
    }
    println!("\nUnder HPMP the PT-page pmpte count is zero: page-table pages live in");
    println!("the contiguous fast GMS and are checked by a segment register instead.");
}
