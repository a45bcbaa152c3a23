//! The Redis in-memory data-store model (§8.5, Figure 12-d/e).
//!
//! A long-running server with a large resident dataset: every request
//! parses input (compute + hot accesses), probes the keyspace hash table
//! (random accesses over the full dataset — the TLB-miss source), and walks
//! value structures whose shape depends on the command. Throughput is
//! reported as requests-per-second, so the scheme overhead appears as an
//! RPS *drop*, largest for pointer-chasing commands like `LRANGE`.

use hpmp_machine::MachineConfig;
use hpmp_memsim::{AccessKind, SplitMix64, PAGE_SIZE};
use hpmp_penglai::{OsError, TeeFlavor};
use hpmp_trace::TraceSink;

use crate::arena::{replay, TraceStep, UserArena};
use crate::fixture::TeeBench;

/// The redis-benchmark commands of Figure 12-d/e.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RedisCommand {
    /// `PING` (inline protocol).
    PingInline,
    /// `PING` (bulk protocol).
    PingBulk,
    /// `SET key value`.
    Set,
    /// `GET key`.
    Get,
    /// `INCR key`.
    Incr,
    /// `LPUSH list value`.
    Lpush,
    /// `RPUSH list value`.
    Rpush,
    /// `LPOP list`.
    Lpop,
    /// `RPOP list`.
    Rpop,
    /// `SADD set value`.
    Sadd,
    /// `HSET hash field value`.
    Hset,
    /// `SPOP set`.
    Spop,
    /// `LRANGE` over 100 elements.
    Lrange100,
    /// `LRANGE` over 300 elements.
    Lrange300,
    /// `LRANGE` over 500 elements.
    Lrange500,
    /// `LRANGE` over 600 elements.
    Lrange600,
    /// `MSET` of 10 keys.
    Mset,
}

/// All commands in the figure's order.
pub const REDIS_COMMANDS: [RedisCommand; 17] = [
    RedisCommand::PingInline,
    RedisCommand::PingBulk,
    RedisCommand::Set,
    RedisCommand::Get,
    RedisCommand::Incr,
    RedisCommand::Lpush,
    RedisCommand::Rpush,
    RedisCommand::Lpop,
    RedisCommand::Rpop,
    RedisCommand::Sadd,
    RedisCommand::Hset,
    RedisCommand::Spop,
    RedisCommand::Lrange100,
    RedisCommand::Lrange300,
    RedisCommand::Lrange500,
    RedisCommand::Lrange600,
    RedisCommand::Mset,
];

impl std::fmt::Display for RedisCommand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RedisCommand::PingInline => "PING_INLINE",
            RedisCommand::PingBulk => "PING_BULK",
            RedisCommand::Set => "SET",
            RedisCommand::Get => "GET",
            RedisCommand::Incr => "INCR",
            RedisCommand::Lpush => "LPUSH",
            RedisCommand::Rpush => "RPUSH",
            RedisCommand::Lpop => "LPOP",
            RedisCommand::Rpop => "RPOP",
            RedisCommand::Sadd => "SADD",
            RedisCommand::Hset => "HSET",
            RedisCommand::Spop => "SPOP",
            RedisCommand::Lrange100 => "LRANGE_100",
            RedisCommand::Lrange300 => "LRANGE_300",
            RedisCommand::Lrange500 => "LRANGE_500",
            RedisCommand::Lrange600 => "LRANGE_600",
            RedisCommand::Mset => "MSET",
        })
    }
}

/// Per-request shape: `(keyspace_probes, value_nodes, writes, parse_compute)`.
fn shape(cmd: RedisCommand) -> (u64, u64, bool, u64) {
    match cmd {
        RedisCommand::PingInline => (0, 0, false, 60),
        RedisCommand::PingBulk => (0, 0, false, 80),
        RedisCommand::Set => (1, 1, true, 110),
        RedisCommand::Get => (1, 1, false, 100),
        RedisCommand::Incr => (1, 1, true, 105),
        RedisCommand::Lpush => (1, 2, true, 115),
        RedisCommand::Rpush => (1, 2, true, 115),
        RedisCommand::Lpop => (1, 2, true, 105),
        RedisCommand::Rpop => (1, 2, true, 105),
        RedisCommand::Sadd => (1, 2, true, 115),
        RedisCommand::Hset => (1, 2, true, 120),
        RedisCommand::Spop => (1, 2, true, 110),
        // LRANGE_N walks N list nodes scattered through the heap: the
        // pointer chase that makes it the worst case of the figure.
        RedisCommand::Lrange100 => (1, 100, false, 140),
        RedisCommand::Lrange300 => (1, 300, false, 180),
        RedisCommand::Lrange500 => (1, 500, false, 220),
        RedisCommand::Lrange600 => (1, 600, false, 240),
        // MSET: 10 keys, but each probe is cheap and parse dominates.
        RedisCommand::Mset => (10, 10, true, 260),
    }
}

/// A resident Redis server instance.
#[derive(Debug)]
pub struct RedisServer<S: TraceSink = hpmp_trace::NullSink> {
    tee: TeeBench<S>,
    arena: UserArena,
    rng: SplitMix64,
    dataset_bytes: u64,
}

impl<S: TraceSink> RedisServer<S> {
    /// Mutable access to the underlying TEE stack.
    pub fn tee_mut(&mut self) -> &mut TeeBench<S> {
        &mut self.tee
    }

    /// Boots the stack on a machine built from `config` (or a core kind)
    /// and a server with a `dataset_pages`-page resident dataset,
    /// pre-faulted (Redis is long-running; its pages are resident).
    /// Records walk events into `sink`.
    ///
    /// # Errors
    ///
    /// Propagates OS errors.
    pub fn start_with_sink(
        flavor: TeeFlavor,
        config: impl Into<MachineConfig>,
        dataset_pages: u64,
        sink: S,
    ) -> Result<RedisServer<S>, OsError> {
        let mut tee = TeeBench::boot_with_sink(flavor, config, sink);
        let arena = UserArena::create(&mut tee.os, &mut tee.machine, dataset_pages)?;
        // Pre-fault every page once.
        let warm: Vec<TraceStep> = (0..dataset_pages)
            .map(|i| TraceStep {
                offset: i * PAGE_SIZE,
                kind: AccessKind::Write,
                compute: 0,
            })
            .collect();
        replay(&mut tee.os, &mut tee.machine, &arena, warm)?;
        Ok(RedisServer {
            tee,
            arena,
            rng: SplitMix64::seed_from_u64(0x7ed1),
            dataset_bytes: dataset_pages * PAGE_SIZE,
        })
    }

    /// Serves one request; returns its cycle cost.
    ///
    /// # Errors
    ///
    /// Propagates access faults.
    pub fn serve(&mut self, cmd: RedisCommand) -> Result<u64, OsError> {
        let (probes, nodes, writes, parse) = shape(cmd);
        let mut trace = Vec::with_capacity((probes + nodes + 2) as usize);
        // Parse + dispatch over hot server state.
        trace.push(TraceStep {
            offset: 0,
            kind: AccessKind::Read,
            compute: parse,
        });
        for _ in 0..probes {
            // Hash-table probe: uniform over the dataset.
            trace.push(TraceStep {
                offset: self.rng.gen_range(0..self.dataset_bytes) & !7,
                kind: AccessKind::Read,
                compute: 6,
            });
        }
        for _ in 0..nodes {
            // Value nodes: allocator-scattered.
            trace.push(TraceStep {
                offset: self.rng.gen_range(0..self.dataset_bytes) & !7,
                kind: if writes {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                compute: 4,
            });
        }
        replay(&mut self.tee.os, &mut self.tee.machine, &self.arena, trace)
    }

    /// Requests-per-second for `cmd`, measured over `n` requests.
    ///
    /// # Errors
    ///
    /// Propagates access faults.
    pub fn rps(&mut self, cmd: RedisCommand, n: u64) -> Result<f64, OsError> {
        let mut total = 0;
        for _ in 0..n {
            total += self.serve(cmd)?;
        }
        let mean_cycles = total as f64 / n as f64;
        let hz = self.tee.machine.core().clock_mhz as f64 * 1e6;
        Ok(hz / mean_cycles)
    }
}

/// Default resident dataset: 32 MiB (large enough that hash probes miss the
/// 1024-entry L2 TLB, as redis-benchmark's keyspace does on the FPGA).
pub const DEFAULT_DATASET_PAGES: u64 = (32 << 20) / PAGE_SIZE;

#[cfg(test)]
mod tests {
    use super::*;
    use hpmp_memsim::CoreKind;
    use hpmp_trace::NullSink;

    fn rps(flavor: TeeFlavor, cmd: RedisCommand) -> f64 {
        let mut server =
            RedisServer::start_with_sink(flavor, CoreKind::Rocket, DEFAULT_DATASET_PAGES, NullSink)
                .unwrap();
        server.rps(cmd, 300).unwrap()
    }

    #[test]
    fn pmpt_drops_rps() {
        let pmp = rps(TeeFlavor::PenglaiPmp, RedisCommand::Get);
        let pmpt = rps(TeeFlavor::PenglaiPmpt, RedisCommand::Get);
        let hpmp = rps(TeeFlavor::PenglaiHpmp, RedisCommand::Get);
        assert!(pmpt < pmp, "PMPT must lower RPS: {pmpt} vs {pmp}");
        assert!(hpmp > pmpt, "HPMP must recover RPS: {hpmp} vs {pmpt}");
    }

    #[test]
    fn lrange_hurts_most() {
        let drop = |cmd| {
            let pmp = rps(TeeFlavor::PenglaiPmp, cmd);
            let pmpt = rps(TeeFlavor::PenglaiPmpt, cmd);
            1.0 - pmpt / pmp
        };
        let lrange = drop(RedisCommand::Lrange100);
        let mset = drop(RedisCommand::Mset);
        assert!(
            lrange > mset,
            "LRANGE_100 drop {lrange} should exceed MSET drop {mset}"
        );
    }

    #[test]
    fn ping_is_cheap_and_insensitive() {
        let pmp = rps(TeeFlavor::PenglaiPmp, RedisCommand::PingInline);
        let pmpt = rps(TeeFlavor::PenglaiPmpt, RedisCommand::PingInline);
        let get = rps(TeeFlavor::PenglaiPmp, RedisCommand::Get);
        assert!(pmp > get, "PING must be faster than GET");
        assert!(
            (pmp - pmpt).abs() / pmp < 0.12,
            "PING nearly scheme-independent"
        );
    }

    #[test]
    fn all_commands_serve() {
        let mut server =
            RedisServer::start_with_sink(TeeFlavor::PenglaiHpmp, CoreKind::Rocket, 1024, NullSink)
                .unwrap();
        for cmd in REDIS_COMMANDS {
            assert!(server.serve(cmd).unwrap() > 0, "{cmd}");
        }
    }
}
