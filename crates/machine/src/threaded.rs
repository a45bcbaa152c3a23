//! The threaded SMP execution backend: harts on real OS threads.
//!
//! The deterministic backend ([`crate::multihart`]) interleaves harts on
//! one thread and shuttles a single canonical [`PhysMem`] between them, so
//! every cross-hart effect is synchronous by construction. This module
//! adds a second backend where each hart runs on its own OS thread during
//! an *epoch* — a maximal run of scheduler rounds containing no monitor
//! operation — and the driver joins all threads (the acknowledgement
//! barrier) before any serial monitor work runs. Three mechanisms keep the
//! two backends observably identical, counter for counter:
//!
//! 1. **Sharded `PhysMem` ownership.** [`MultiHartMachine::enable_threaded`]
//!    clones the canonical physical memory into every hart's slot once, and
//!    turns on the canonical copy's write log. Only the *active* hart (the
//!    one the serial phases run monitor operations on) ever mutates
//!    physical memory — page-table edits, monitor state — and at each epoch
//!    boundary the dirty pages are broadcast to the other shards. Inside an
//!    epoch every hart only **reads** its shard, so no synchronization is
//!    needed on the hot path.
//! 2. **Per-hart counters.** Every counter a hart bumps during an epoch is
//!    a plain field of state it owns exclusively for the epoch: its
//!    [`Machine`]'s stats and its own
//!    [`HartCounters`](crate::multihart::HartCounters), which
//!    [`MultiHartMachine::parallel_epoch`] hands to the hart's thread
//!    alongside the machine. Nothing is merged at the join.
//! 3. **Mailbox IPIs with an acknowledgement barrier.** A monitor
//!    operation that would synchronously run each remote hart's shootdown
//!    handler instead posts a [`DeferredShootdown`] (handler cost fully
//!    computed at post time) to the receiver's SPSC mailbox. Each hart
//!    drains its mailbox at the start of the next epoch, *before* issuing
//!    any access, so no access can observe pre-shootdown state. The epoch
//!    join is the acknowledgement barrier that replaces the interleaver's
//!    synchronous sender stall — the stall cycles themselves are still
//!    charged at post time via [`ShootdownCost::sender_stall`], keeping
//!    the cycle accounting identical.
//!
//! What this deliberately does **not** model: memory-system contention
//! between harts (each shard has its own latency model, as in the
//! deterministic backend), cache coherence traffic for the broadcast, or
//! torn reads — the epoch discipline makes those unobservable by design.
//!
//! [`ShootdownCost::sender_stall`]: hpmp_core::ShootdownCost::sender_stall

use std::collections::VecDeque;

use hpmp_core::DeferredShootdown;
use hpmp_trace::TraceSink;

use crate::machine::Machine;
use crate::multihart::{HartCounters, MultiHartMachine};

/// Which SMP execution backend drives a multi-hart run. Library-only:
/// `hpmp_workloads::smp::run_smp_backend` is the one entry that runs
/// `Threaded`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecBackend {
    /// Single-threaded round-robin interleaver with synchronous shootdown
    /// delivery. Bit-for-bit reproducible; the reference semantics.
    Deterministic,
    /// One OS thread per hart inside each epoch, with sharded physical
    /// memory, per-hart counters, and mailbox shootdown delivery.
    /// Produces the same merged counter snapshot as `Deterministic`.
    Threaded,
}

/// A single-producer single-consumer shootdown mailbox.
///
/// The producer is the serial phase (the monitor operation posting
/// deferred handlers); the consumer is the owning hart's thread, which
/// drains the queue at the next epoch start. The epoch barrier guarantees
/// the two roles never run concurrently, so a plain queue behind `&mut`
/// suffices — "SPSC" names the protocol, the barrier provides the
/// exclusion.
#[derive(Debug, Default)]
pub struct SpscMailbox {
    queue: VecDeque<DeferredShootdown>,
}

impl SpscMailbox {
    /// Producer side: queue one deferred handler.
    pub fn post(&mut self, deferred: DeferredShootdown) {
        self.queue.push_back(deferred);
    }

    /// Consumer side: dequeue the oldest deferred handler.
    pub fn take(&mut self) -> Option<DeferredShootdown> {
        self.queue.pop_front()
    }

    /// Number of handlers awaiting the next epoch.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the mailbox is drained.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

/// Threaded-backend state hung off a [`MultiHartMachine`] by
/// [`MultiHartMachine::enable_threaded`].
#[derive(Debug)]
pub(crate) struct ThreadedState {
    /// One shootdown mailbox per hart.
    mailboxes: Vec<SpscMailbox>,
}

/// Runs one hart's epoch-start mailbox drain, then its epoch body.
///
/// The drain happens strictly before any access the body issues, which is
/// what makes deferred delivery indistinguishable from the deterministic
/// backend's synchronous delivery.
fn drain_mailbox<S: TraceSink>(
    machine: &mut Machine<S>,
    mailbox: &mut SpscMailbox,
    counters: &mut HartCounters,
) {
    while let Some(deferred) = mailbox.take() {
        machine.invalidate_isolation();
        machine.charge_cycles(deferred.handler_cycles);
        counters.shootdowns += 1;
        counters.shootdown_cycles += deferred.handler_cycles;
    }
}

impl<S: TraceSink> MultiHartMachine<S> {
    /// Whether the threaded backend is active (shootdowns are deferred to
    /// mailboxes instead of delivered synchronously).
    pub fn threaded(&self) -> bool {
        self.threaded.is_some()
    }

    /// Switches this machine to the threaded backend: unshares physical
    /// memory into per-hart shards, starts write-logging on the canonical
    /// copy, and allocates per-hart mailboxes.
    ///
    /// Call after all setup (tenant mapping, monitor programming) is done,
    /// at the point where the deterministic backend would begin its round
    /// loop — the shards snapshot physical memory as of this call.
    ///
    /// # Panics
    /// If the threaded backend is already enabled.
    pub fn enable_threaded(&mut self) {
        assert!(self.threaded.is_none(), "threaded backend already enabled");
        let harts = self.harts.len();
        // Unshare: every inactive slot currently holds an empty
        // placeholder; replace it with a full copy of the canonical
        // memory. The clones inherit `log_writes = false`, so after this
        // exactly one PhysMem — the canonical, wherever swaps move it —
        // carries the write log.
        let canonical = self.harts[self.active].phys().clone();
        for (hart, machine) in self.harts.iter_mut().enumerate() {
            if hart != self.active {
                *machine.phys_mut() = canonical.clone();
            }
        }
        self.harts[self.active].phys_mut().set_write_log(true);
        self.threaded = Some(ThreadedState {
            mailboxes: (0..harts).map(|_| SpscMailbox::default()).collect(),
        });
    }

    /// Queues one shootdown handler to `hart`'s mailbox, to be drained at
    /// the start of the hart's next epoch (or at [`Self::quiesce_threaded`]).
    ///
    /// # Panics
    /// If the threaded backend is not enabled or `hart` is out of range.
    pub fn defer_shootdown(&mut self, hart: u16, deferred: DeferredShootdown) {
        self.threaded
            .as_mut()
            .expect("threaded backend not enabled")
            .mailboxes[usize::from(hart)]
        .post(deferred);
    }

    /// Deferred shootdowns not yet drained, across all mailboxes.
    pub fn deferred_shootdowns(&self) -> usize {
        self.threaded.as_ref().map_or(0, |state| {
            state.mailboxes.iter().map(SpscMailbox::len).sum()
        })
    }

    /// Propagates pages the canonical memory dirtied since the last
    /// broadcast to every other shard.
    fn broadcast_dirty(&mut self) {
        let active = self.active;
        let dirty = self.harts[active].phys_mut().take_dirty_pfns();
        if dirty.is_empty() {
            return;
        }
        let (left, rest) = self.harts.split_at_mut(active);
        let (canonical, right) = rest.split_first_mut().expect("active hart in range");
        for shard in left.iter_mut().chain(right.iter_mut()) {
            for &pfn in &dirty {
                shard.phys_mut().copy_page_from(canonical.phys(), pfn);
            }
        }
    }

    /// Runs one epoch: broadcasts dirty pages, spawns one OS thread per
    /// hart (each drains its shootdown mailbox, then runs `body` against
    /// its own machine, shard, and `extra`) and joins them all — the
    /// acknowledgement barrier.
    ///
    /// `body` must not touch monitor or cross-hart state; anything that
    /// would (domain switches, grants, revocations) belongs in the serial
    /// phase between epochs.
    ///
    /// # Panics
    /// If the threaded backend is not enabled, `extras.len()` differs from
    /// the hart count, or a hart thread panics.
    pub fn parallel_epoch<E, R>(
        &mut self,
        extras: &mut [E],
        body: impl Fn(u16, &mut Machine<S>, &mut E) -> R + Sync,
    ) -> Vec<R>
    where
        S: Send,
        E: Send,
        R: Send,
    {
        assert_eq!(
            extras.len(),
            self.harts.len(),
            "one extra per hart required"
        );
        self.broadcast_dirty();
        let state = self
            .threaded
            .as_mut()
            .expect("threaded backend not enabled");
        let body = &body;
        let results: Vec<R> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .harts
                .iter_mut()
                .zip(state.mailboxes.iter_mut())
                .zip(self.counters.iter_mut())
                .zip(extras.iter_mut())
                .enumerate()
                .map(|(hart, (((machine, mailbox), counters), extra))| {
                    scope.spawn(move || {
                        drain_mailbox(machine, mailbox, counters);
                        body(hart as u16, machine, extra)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("hart thread panicked"))
                .collect()
        });
        results
    }

    /// Drains every mailbox serially, so a final snapshot taken after the
    /// last epoch accounts for shootdowns posted by the last serial phase.
    /// No-op under the deterministic backend.
    pub fn quiesce_threaded(&mut self) {
        if self.threaded.is_none() {
            return;
        }
        for hart in 0..self.harts.len() {
            loop {
                let deferred =
                    self.threaded.as_mut().expect("checked above").mailboxes[hart].take();
                let Some(deferred) = deferred else { break };
                let hart = hart as u16;
                self.machine(hart).invalidate_isolation();
                self.charge_shootdown(hart, deferred.handler_cycles);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpmp_core::IpiKind;
    use hpmp_memsim::PhysAddr;

    use crate::machine::MachineConfig;

    fn mini_cluster(harts: usize) -> MultiHartMachine {
        MultiHartMachine::new(MachineConfig::rocket(), harts)
    }

    #[test]
    fn dirty_broadcast_keeps_shards_in_sync() {
        let mut mh = mini_cluster(3);
        // Write through the canonical copy before unsharing.
        let addr = PhysAddr::new(0x8000_0000);
        mh.peek_mut(0).phys_mut().write_u64(addr, 0x1111);
        mh.enable_threaded();
        // Post-unshare write on the canonical copy: logged, and invisible
        // to the shards until the next epoch's broadcast.
        mh.peek_mut(0).phys_mut().write_u64(addr, 0x2222);
        let seen = mh.parallel_epoch(&mut [(); 3], |_, machine, ()| machine.phys().read_u64(addr));
        assert_eq!(seen, vec![0x2222, 0x2222, 0x2222]);
    }

    #[test]
    fn deferred_shootdowns_drain_before_epoch_accesses() {
        let mut mh = mini_cluster(2);
        mh.enable_threaded();
        let before_cycles = mh.peek(1).stats().cycles;
        mh.defer_shootdown(
            1,
            DeferredShootdown {
                kind: IpiKind::FenceOnly,
                handler_cycles: 123,
            },
        );
        assert_eq!(mh.deferred_shootdowns(), 1);
        mh.parallel_epoch(&mut [(); 2], |_, _machine, _extra| {});
        assert_eq!(mh.deferred_shootdowns(), 0);
        assert_eq!(
            mh.peek(1).stats().cycles,
            before_cycles + 123,
            "handler cycles charged to the receiving hart"
        );
        let snap = mh.metrics_snapshot();
        assert_eq!(snap.get("hart.1.shootdowns"), Some(1));
        assert_eq!(snap.get("hart.1.shootdown_cycles"), Some(123));
        assert_eq!(snap.get("hart.0.shootdowns"), Some(0));
    }

    #[test]
    fn quiesce_drains_tail_shootdowns() {
        let mut mh = mini_cluster(2);
        mh.enable_threaded();
        mh.defer_shootdown(
            1,
            DeferredShootdown {
                kind: IpiKind::Reprogram,
                handler_cycles: 77,
            },
        );
        mh.quiesce_threaded();
        assert_eq!(mh.deferred_shootdowns(), 0);
        let snap = mh.metrics_snapshot();
        assert_eq!(snap.get("hart.1.shootdowns"), Some(1));
        assert_eq!(snap.get("hart.1.shootdown_cycles"), Some(77));
    }
}
