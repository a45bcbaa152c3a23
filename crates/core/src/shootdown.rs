//! Cross-hart shootdown plumbing: an inter-processor-interrupt fabric and
//! the cycle costs of delivering one.
//!
//! When the secure monitor changes a domain's holdings (grant, revoke,
//! teardown) or switches the scheduled domain, every *other* hart may hold
//! stale state in three places: its TLBs (permissions are inlined in TLB
//! entries under HPMP), its PMPTW-Cache, and — if the changed domain is
//! reflected in that hart's register image — the PMP/HPMP register file
//! itself. Real monitors (Penglai, Keystone, CoVE's TSM) close this window
//! by sending an IPI to each remote hart; the receiver traps to M-mode,
//! reprograms or fences, and acknowledges. The sender stalls until all
//! acknowledgements arrive, so the protocol is synchronous and the stale
//! window is zero *in the model* — fault campaigns re-open it deliberately
//! by suppressing delivery.
//!
//! This module carries only the bookkeeping and the cost constants; the
//! policy (who needs a reprogram vs. a mere fence) lives with the monitor,
//! which knows each hart's scheduled domain.

/// Cycle costs of the IPI path, calibrated against the same clock as
/// `hpmp-penglai`'s monitor-call costs (a ~1 GHz in-order core, as in the
/// paper's FPGA evaluation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShootdownCost {
    /// Sender-side cost of posting one IPI: a write to the remote hart's
    /// software-interrupt register through the interconnect (CLINT
    /// `msip`-style doorbell).
    pub ipi_post: u64,
    /// Interconnect flight time until the remote hart observes the
    /// interrupt and begins its trap. The sender's stall for one target is
    /// `ipi_post + ipi_latency +` the receiver's handler cost.
    pub ipi_latency: u64,
}

impl ShootdownCost {
    /// The default calibration: a doorbell write is an uncached store
    /// (~DRAM round trip is not needed — the CLINT is close), and delivery
    /// latency is dominated by the interconnect hop.
    pub const DEFAULT: ShootdownCost = ShootdownCost {
        ipi_post: 40,
        ipi_latency: 60,
    };
}

impl ShootdownCost {
    /// The sender's stall for one broadcast once every receiver has
    /// acknowledged: interconnect flight plus the slowest handler. (The
    /// per-target `ipi_post` writes are charged separately as they are
    /// issued.) Shared by both SMP backends so the synchronous
    /// interleaver and the mailbox/acknowledgement-barrier model charge
    /// identical cycles.
    pub fn sender_stall(&self, slowest_ack: u64) -> u64 {
        self.ipi_latency + slowest_ack
    }
}

impl Default for ShootdownCost {
    fn default() -> ShootdownCost {
        ShootdownCost::DEFAULT
    }
}

/// Cycle costs of relocating memory during segment compaction, calibrated
/// against the same clock as [`ShootdownCost`]. When the monitor runs out
/// of NAPOT-aligned free space it slides movable GMS regions downward to
/// merge the holes between them; each moved page is a 4 KiB M-mode memcpy
/// plus the cache traffic it drags along.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CopyCost {
    /// Fixed per-relocation setup: source/destination range checks and the
    /// copy-loop prologue.
    pub setup: u64,
    /// Cycles to copy one 4 KiB page (load/store pairs at cache-line
    /// granularity, ~16 bytes per cycle sustained).
    pub per_page: u64,
}

impl CopyCost {
    /// The default calibration for the ~1 GHz in-order core the rest of
    /// the model assumes.
    pub const DEFAULT: CopyCost = CopyCost {
        setup: 120,
        per_page: 256,
    };

    /// Total cycles to relocate `pages` contiguous pages.
    pub fn relocation(&self, pages: u64) -> u64 {
        self.setup + pages * self.per_page
    }
}

impl Default for CopyCost {
    fn default() -> CopyCost {
        CopyCost::DEFAULT
    }
}

/// A pending IPI: the sending hart and why it was sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ipi {
    /// The hart that posted the doorbell.
    pub from: u16,
    /// What the receiver must do upon trapping.
    pub kind: IpiKind,
}

/// What a shootdown IPI asks the receiving hart to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IpiKind {
    /// The receiver's register image is unaffected; it only needs to
    /// invalidate cached isolation state (`sfence.vma` + PMPTW-Cache
    /// flush).
    FenceOnly,
    /// The receiver's register image depends on the changed domain; it
    /// must reprogram its PMP/HPMP registers before fencing.
    Reprogram,
}

/// One shootdown handler's worth of deferred work, queued to a receiving
/// hart's SPSC mailbox by the threaded SMP backend.
///
/// In the deterministic backend the receiver's handler (trap, optional
/// reprogram, fence) runs synchronously inside the monitor operation. The
/// threaded backend performs the parts that need the monitor's state
/// (reprogramming the register image) serially at post time, then defers
/// the hart-local parts — invalidating cached isolation state and
/// charging the pre-computed handler cycles — to the receiving hart's own
/// thread, which drains its mailbox at the next epoch barrier *before*
/// issuing any accesses. No access can ever observe pre-shootdown state,
/// so the two schedules are indistinguishable counter-for-counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeferredShootdown {
    /// What the handler logically did (for tracing/diagnostics).
    pub kind: IpiKind,
    /// The receiver-side handler cost, fully computed at post time
    /// (trap round trip + any reprogram CSR writes + fence).
    pub handler_cycles: u64,
}

/// The IPI fabric: per-hart mailboxes plus delivery counters.
///
/// Deliberately dumb — it models a CLINT-style array of software-interrupt
/// doorbells, one per hart, each holding at most the *strongest* pending
/// request (a `Reprogram` absorbs a coincident `FenceOnly`, exactly as a
/// real handler that re-reads monitor state would behave). The monitor
/// posts, the multi-hart driver drains.
#[derive(Clone, Debug)]
pub struct IpiFabric {
    mailboxes: Vec<Option<Ipi>>,
    sent: u64,
    delivered: u64,
    merged: u64,
}

impl IpiFabric {
    /// A fabric for `harts` harts, all mailboxes empty.
    pub fn new(harts: usize) -> IpiFabric {
        IpiFabric {
            mailboxes: vec![None; harts],
            sent: 0,
            delivered: 0,
            merged: 0,
        }
    }

    /// Number of harts the fabric connects.
    pub fn harts(&self) -> usize {
        self.mailboxes.len()
    }

    /// Posts an IPI to `target`'s mailbox. A pending `FenceOnly` is
    /// upgraded by a `Reprogram`; a pending `Reprogram` absorbs anything.
    ///
    /// # Panics
    /// If `target` is out of range.
    #[inline]
    pub fn post(&mut self, target: u16, ipi: Ipi) {
        self.sent += 1;
        let slot = &mut self.mailboxes[usize::from(target)];
        match slot {
            None => *slot = Some(ipi),
            Some(pending) => {
                self.merged += 1;
                if pending.kind == IpiKind::FenceOnly {
                    *slot = Some(ipi);
                }
            }
        }
    }

    /// Takes `hart`'s pending IPI, if any, counting the delivery.
    #[inline]
    pub fn take(&mut self, hart: u16) -> Option<Ipi> {
        let ipi = self.mailboxes[usize::from(hart)].take();
        if ipi.is_some() {
            self.delivered += 1;
        }
        ipi
    }

    /// Whether `hart` has a pending IPI.
    pub fn pending(&self, hart: u16) -> bool {
        self.mailboxes[usize::from(hart)].is_some()
    }

    /// Total IPIs posted.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Total IPIs taken by receivers.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Posts that found the mailbox already occupied (coalesced by the
    /// doorbell, as in hardware).
    pub fn merged(&self) -> u64 {
        self.merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn post_take_roundtrip() {
        let mut fabric = IpiFabric::new(4);
        assert!(!fabric.pending(2));
        fabric.post(
            2,
            Ipi {
                from: 0,
                kind: IpiKind::FenceOnly,
            },
        );
        assert!(fabric.pending(2));
        let ipi = fabric.take(2).unwrap();
        assert_eq!(ipi.from, 0);
        assert_eq!(ipi.kind, IpiKind::FenceOnly);
        assert!(fabric.take(2).is_none(), "mailbox drained");
        assert_eq!(fabric.sent(), 1);
        assert_eq!(fabric.delivered(), 1);
        assert_eq!(fabric.merged(), 0);
    }

    #[test]
    fn reprogram_upgrades_and_absorbs() {
        let mut fabric = IpiFabric::new(2);
        let fence = Ipi {
            from: 0,
            kind: IpiKind::FenceOnly,
        };
        let reprog = Ipi {
            from: 0,
            kind: IpiKind::Reprogram,
        };

        // FenceOnly then Reprogram: upgraded.
        fabric.post(1, fence);
        fabric.post(1, reprog);
        assert_eq!(fabric.take(1).unwrap().kind, IpiKind::Reprogram);

        // Reprogram then FenceOnly: the reprogram already covers the fence.
        fabric.post(1, reprog);
        fabric.post(1, fence);
        assert_eq!(fabric.take(1).unwrap().kind, IpiKind::Reprogram);

        assert_eq!(fabric.sent(), 4);
        assert_eq!(fabric.delivered(), 2);
        assert_eq!(fabric.merged(), 2);
    }
}
