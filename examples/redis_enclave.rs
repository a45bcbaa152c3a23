//! A long-running in-memory data store inside an enclave (§8.5): starts a
//! Redis-like server with a resident dataset under each TEE flavour and
//! measures requests-per-second for a few commands, reproducing the shape of
//! Figure 12-d/e — the permission table costs double-digit RPS on
//! pointer-chasing commands, and Penglai-HPMP recovers most of it.
//!
//! Run with: `cargo run --release --example redis_enclave`

use hpmp_suite::memsim::CoreKind;
use hpmp_suite::penglai::TeeFlavor;
use hpmp_suite::trace::NullSink;
use hpmp_suite::workloads::redis::{RedisCommand, RedisServer, DEFAULT_DATASET_PAGES};

fn main() {
    println!("Redis RPS inside a Penglai enclave (Rocket, 32 MiB resident dataset)\n");

    let commands = [
        RedisCommand::PingInline,
        RedisCommand::Set,
        RedisCommand::Get,
        RedisCommand::Lrange100,
        RedisCommand::Lrange600,
        RedisCommand::Mset,
    ];
    let flavors = [
        TeeFlavor::PenglaiPmp,
        TeeFlavor::PenglaiPmpt,
        TeeFlavor::PenglaiHpmp,
    ];

    // One resident server per flavour, as in the paper's methodology.
    let mut servers: Vec<RedisServer> = flavors
        .iter()
        .map(|&flavor| {
            RedisServer::start_with_sink(flavor, CoreKind::Rocket, DEFAULT_DATASET_PAGES, NullSink)
                .expect("server boot")
        })
        .collect();

    println!(
        "{:<14}{:>14}{:>14}{:>14}{:>10}",
        "command", "PL-PMP", "PL-PMPT", "PL-HPMP", "PMPT loss"
    );
    for cmd in commands {
        let rps: Vec<f64> = servers
            .iter_mut()
            .map(|server| server.rps(cmd, 300).expect("requests served"))
            .collect();
        println!(
            "{:<14}{:>11.0}/s{:>11.0}/s{:>11.0}/s{:>9.1}%",
            cmd.to_string(),
            rps[0],
            rps[1],
            rps[2],
            (1.0 - rps[1] / rps[0]) * 100.0,
        );
    }

    println!("\nPING barely moves (no keyspace traffic); LRANGE suffers most —");
    println!("every list node is a fresh random page, so each request TLB-misses");
    println!("hundreds of times and pays the permission table on every miss.");
}
