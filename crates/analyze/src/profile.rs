//! Cycle-attribution profiles over walk-event traces.
//!
//! A profile answers, mechanically, the questions the paper's figures are
//! built on: where do cycles go (per world, per access class, per step
//! kind, per table level), is every cycle accounted for (the step-sum
//! invariant), and do the walk-reference counts match the paper's
//! arithmetic — 6 vs 12 references on the native Sv39 miss path (§3), and
//! 12 vs 36 references in the 3-D (G-stage) dimension of the virtualized
//! walk (§6).
//!
//! # Attributing pmpte references
//!
//! [`WalkEvent`] deliberately does not carry the isolation scheme — the
//! trace format records what the hardware *did*, not how it was configured.
//! Both simulated machines push the pmpte guard steps of a reference
//! *immediately before* the guarded step, so a run of `pmpt_root` /
//! `pmpt_leaf` steps is attributed to the next non-pmpte step. That
//! adjacency rule recovers the per-purpose pmpte split
//! (`pmpte_for_pt` / `pmpte_for_npt` / `pmpte_for_gpt` / `pmpte_for_data`)
//! from event data alone, and with it the scheme *shape* of each event:
//! segment-only, full permission table, or the paper's hybrid.

use hpmp_trace::{SpanKind, SpanStream, StepKind, TlbOutcome, WalkEvent};
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// What the isolation layer's reference pattern looks like in one event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum IsolationShape {
    /// No pmpte references at all: pure segment checks (PMP).
    Segment,
    /// pmpte references guard page-table pages: a full permission table
    /// (PMPT).
    Table,
    /// pmpte references guard data (and possibly guest-PT) pages but never
    /// host/nested page-table pages: the paper's hybrid (HPMP / HPMP-GPT).
    Hybrid,
}

impl IsolationShape {
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            IsolationShape::Segment => "segment",
            IsolationShape::Table => "table",
            IsolationShape::Hybrid => "hybrid",
        }
    }
}

/// Per-purpose reference counts recovered from one event by pmpte
/// adjacency attribution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventRefs {
    /// Host page-table references.
    pub pt: u64,
    /// Guest page-table references (first stage).
    pub guest_pt: u64,
    /// Nested / G-stage page-table references.
    pub nested_pt: u64,
    /// Data references.
    pub data: u64,
    /// pmpte references guarding host page-table pages.
    pub pmpte_for_pt: u64,
    /// pmpte references guarding guest page-table pages.
    pub pmpte_for_gpt: u64,
    /// pmpte references guarding nested page-table pages.
    pub pmpte_for_npt: u64,
    /// pmpte references guarding the data page.
    pub pmpte_for_data: u64,
    /// pmpte references at the end of an aborted walk, with no guarded step
    /// following (the access faulted mid-check).
    pub pmpte_aborted: u64,
}

impl EventRefs {
    /// Every memory reference in the event (excluding the synthetic TLB-L2
    /// probe step).
    pub fn total(&self) -> u64 {
        self.pt + self.guest_pt + self.nested_pt + self.data + self.pmpte_total()
    }

    /// All pmpte references regardless of purpose.
    pub fn pmpte_total(&self) -> u64 {
        self.pmpte_for_pt
            + self.pmpte_for_gpt
            + self.pmpte_for_npt
            + self.pmpte_for_data
            + self.pmpte_aborted
    }

    /// References in the extra ("3-D") dimension of a virtualized walk:
    /// the G-stage page-table references plus the pmpte references guarding
    /// them. The paper's §6 claim is that HPMP cuts this from 36 to 12 for
    /// Sv39x4.
    pub fn three_d(&self) -> u64 {
        self.nested_pt + self.pmpte_for_npt
    }

    /// Whether the event went through nested (two-stage) translation.
    pub fn is_virtualized(&self) -> bool {
        self.nested_pt > 0 || self.guest_pt > 0
    }

    /// Attribute every step of an event: pmpte runs belong to the next
    /// non-pmpte step.
    pub fn of(event: &WalkEvent) -> EventRefs {
        let mut refs = EventRefs::default();
        let mut pending_pmpte = 0u64;
        for step in &event.steps {
            match step.kind {
                StepKind::PmptRoot | StepKind::PmptLeaf => pending_pmpte += 1,
                StepKind::TlbL2 => {}
                StepKind::Pt => {
                    refs.pt += 1;
                    refs.pmpte_for_pt += pending_pmpte;
                    pending_pmpte = 0;
                }
                StepKind::GuestPt => {
                    refs.guest_pt += 1;
                    refs.pmpte_for_gpt += pending_pmpte;
                    pending_pmpte = 0;
                }
                StepKind::NestedPt => {
                    refs.nested_pt += 1;
                    refs.pmpte_for_npt += pending_pmpte;
                    pending_pmpte = 0;
                }
                StepKind::Data => {
                    refs.data += 1;
                    refs.pmpte_for_data += pending_pmpte;
                    pending_pmpte = 0;
                }
            }
        }
        refs.pmpte_aborted = pending_pmpte;
        refs
    }

    /// The isolation shape this reference pattern implies.
    pub fn shape(&self) -> IsolationShape {
        if self.pmpte_for_pt > 0 || self.pmpte_for_npt > 0 {
            IsolationShape::Table
        } else if self.pmpte_total() > 0 {
            IsolationShape::Hybrid
        } else {
            IsolationShape::Segment
        }
    }
}

/// One row of the paper's cold-miss reference arithmetic: a scheme's
/// references per purpose on a full Sv39 walk (native, §3 and Figs. 2/4)
/// or Sv39x4 walk (virtualized, §6 and Fig. 8).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PaperRefs {
    /// The scheme's label in the paper's figures.
    pub scheme: &'static str,
    /// Its references, split by purpose.
    pub refs: EventRefs,
}

impl PaperRefs {
    const fn new(scheme: &'static str, refs: EventRefs) -> PaperRefs {
        PaperRefs { scheme, refs }
    }

    /// The row for a cold walk of `refs`' kind (native or virtualized) and
    /// shape. HPMP and HPMP-GPT share the hybrid shape; HPMP-GPT is the one
    /// whose guest page-table pages take no pmpte references.
    pub fn for_walk(refs: &EventRefs) -> Option<&'static PaperRefs> {
        let shape = refs.shape();
        PAPER_REFS.iter().find(|row| {
            row.refs.is_virtualized() == refs.is_virtualized()
                && row.refs.shape() == shape
                && (shape != IsolationShape::Hybrid
                    || (row.refs.pmpte_for_gpt > 0) == (refs.pmpte_for_gpt > 0))
        })
    }
}

/// A full cold walk's references: 3 PT levels and the data reference,
/// plus, when `virtualized`, the 12 G-stage references of the Sv39x4 walk;
/// `tables` pmpte references guard the (nested) page-table pages.
const fn cold(
    virtualized: bool,
    tables: u64,
    pmpte_for_gpt: u64,
    pmpte_for_data: u64,
) -> EventRefs {
    let (pt, guest_pt, nested_pt) = if virtualized { (0, 3, 12) } else { (3, 0, 0) };
    let (pmpte_for_pt, pmpte_for_npt) = if virtualized {
        (0, tables)
    } else {
        (tables, 0)
    };
    EventRefs {
        pt,
        guest_pt,
        nested_pt,
        data: 1,
        pmpte_for_pt,
        pmpte_for_gpt,
        pmpte_for_npt,
        pmpte_for_data,
        pmpte_aborted: 0,
    }
}

/// The paper's reference counts, read by `hpmp-analyze profile`'s claims
/// and by the reproduction's claims table: native PMP / PMP Table / HPMP
/// = 4 / 12 / 6; virtualized PMP / PMPT / HPMP / HPMP-GPT = 16 / 48 / 24 /
/// 18, whose 3-D parts are 12 / 36 / 12 / 12 and whose PMPT extra splits
/// 24 (NPT pages) / 6 (guest-PT pages) / 2 (data).
pub const PAPER_REFS: [PaperRefs; 7] = [
    PaperRefs::new("PMP", cold(false, 0, 0, 0)),
    PaperRefs::new("PMP Table", cold(false, 6, 0, 2)),
    PaperRefs::new("HPMP", cold(false, 0, 0, 2)),
    PaperRefs::new("PMP", cold(true, 0, 0, 0)),
    PaperRefs::new("PMPT", cold(true, 24, 6, 2)),
    PaperRefs::new("HPMP", cold(true, 0, 6, 2)),
    PaperRefs::new("HPMP-GPT", cold(true, 0, 0, 2)),
];

/// Count and cycles of one breakdown cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cell {
    /// Number of steps in the cell.
    pub count: u64,
    /// Cycles attributed to the cell.
    pub cycles: u64,
}

impl Cell {
    fn add(&mut self, cycles: u64) {
        self.count += 1;
        self.cycles += cycles;
    }
}

/// The representative cold walk of one `(virtualized?, shape)` group: the
/// event with the most references, which on a freshly flushed machine is
/// the full ISA-level walk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColdWalk {
    /// Sequence number of the representative event.
    pub seq: u64,
    /// Its recovered per-purpose reference counts.
    pub refs: EventRefs,
    /// Number of host (or guest, for virtualized events) PT levels walked —
    /// identifies Sv39 (3) vs Sv48 (4) vs Sv57 (5).
    pub pt_levels: u64,
}

/// A complete profile of one trace.
#[derive(Clone, Debug, Default)]
pub struct WalkProfile {
    /// Number of events profiled.
    pub events: u64,
    /// Sum of event cycle totals.
    pub total_cycles: u64,
    /// Cycles charged as fixed pipeline overhead.
    pub pipeline_cycles: u64,
    /// Sequence numbers of events violating the step-sum invariant.
    pub unbalanced: Vec<u64>,
    /// Events and cycles per hart. Single-hart traces collapse to one
    /// entry for hart 0.
    pub harts: BTreeMap<u16, Cell>,
    /// Cycles and counts by `world × access class × step kind` (labels).
    pub breakdown: BTreeMap<(&'static str, &'static str, &'static str), Cell>,
    /// Per-level split of leveled steps: `(world, step kind) → level → cell`.
    pub levels: BTreeMap<(&'static str, &'static str), BTreeMap<u8, Cell>>,
    /// pmpte cycles by attributed purpose (`pt`, `guest_pt`, `nested_pt`,
    /// `data`, `aborted`), per world.
    pub pmpte_by_purpose: BTreeMap<(&'static str, &'static str), Cell>,
    /// Representative cold native walk per shape (TLB-miss events without
    /// nested steps).
    pub native_cold: BTreeMap<IsolationShape, ColdWalk>,
    /// Representative cold virtualized walk per shape (TLB-miss events with
    /// nested steps).
    pub virt_cold: BTreeMap<IsolationShape, ColdWalk>,
}

impl WalkProfile {
    /// Profile a slice of events.
    pub fn from_events(events: &[WalkEvent]) -> WalkProfile {
        let mut p = WalkProfile::default();
        for event in events {
            p.add(event);
        }
        p
    }

    fn add(&mut self, event: &WalkEvent) {
        self.events += 1;
        self.total_cycles += event.cycles;
        self.pipeline_cycles += event.pipeline_cycles;
        if !event.is_balanced() {
            self.unbalanced.push(event.seq);
        }
        self.harts.entry(event.hart).or_default().add(event.cycles);

        let world = event.world.label();
        let class = hpmp_trace::AccessClass::classify(event.op, event.tlb.is_hit()).label();
        let mut pending_pmpte: Vec<u64> = Vec::new();
        for step in &event.steps {
            self.breakdown
                .entry((world, class, step.kind.label()))
                .or_default()
                .add(step.cycles);
            if let Some(level) = step.level {
                self.levels
                    .entry((world, step.kind.label()))
                    .or_default()
                    .entry(level)
                    .or_default()
                    .add(step.cycles);
            }
            if step.kind.is_pmpte() {
                pending_pmpte.push(step.cycles);
                continue;
            }
            let purpose = match step.kind {
                StepKind::Pt => Some("pt"),
                StepKind::GuestPt => Some("guest_pt"),
                StepKind::NestedPt => Some("nested_pt"),
                StepKind::Data => Some("data"),
                _ => None,
            };
            if let Some(purpose) = purpose {
                for cycles in pending_pmpte.drain(..) {
                    self.pmpte_by_purpose
                        .entry((world, purpose))
                        .or_default()
                        .add(cycles);
                }
            }
        }
        for cycles in pending_pmpte {
            self.pmpte_by_purpose
                .entry((world, "aborted"))
                .or_default()
                .add(cycles);
        }

        // Cold-walk representatives for the reference-count claims.
        if event.tlb != TlbOutcome::Miss || event.fault.is_some() {
            return;
        }
        let refs = EventRefs::of(event);
        let (group, pt_levels) = if refs.is_virtualized() {
            (&mut self.virt_cold, refs.guest_pt)
        } else {
            (&mut self.native_cold, refs.pt)
        };
        let candidate = ColdWalk {
            seq: event.seq,
            refs,
            pt_levels,
        };
        group
            .entry(refs.shape())
            .and_modify(|best| {
                if refs.total() > best.refs.total() {
                    *best = candidate.clone();
                }
            })
            .or_insert(candidate);
    }

    /// Whether every event satisfied the step-sum invariant.
    pub fn is_balanced(&self) -> bool {
        self.unbalanced.is_empty()
    }

    /// The paper-claim table: `(claim label, measured, expected)` rows for
    /// whatever shapes the trace contains. Expected values come from
    /// [`PAPER_REFS`], stated for Sv39 / Sv39x4, the modes the paper's
    /// headline numbers use; walks of other depths are reported without an
    /// expectation.
    pub fn claims(&self) -> Vec<(String, u64, Option<u64>)> {
        let expected =
            |cold: &ColdWalk| PaperRefs::for_walk(&cold.refs).filter(|_| cold.pt_levels == 3);
        let mut rows = Vec::new();
        for (&shape, cold) in &self.native_cold {
            rows.push((
                format!(
                    "native {}-level miss walk, {} shape: total references",
                    cold.pt_levels,
                    shape.label()
                ),
                cold.refs.total(),
                expected(cold).map(|row| row.refs.total()),
            ));
        }
        for (&shape, cold) in &self.virt_cold {
            let label = |what| {
                format!(
                    "virtualized {}-level miss walk, {} shape: {what}",
                    cold.pt_levels,
                    shape.label()
                )
            };
            rows.push((
                label("3-D references"),
                cold.refs.three_d(),
                expected(cold).map(|row| row.refs.three_d()),
            ));
            rows.push((
                label("total references"),
                cold.refs.total(),
                expected(cold).map(|row| row.refs.total()),
            ));
        }
        rows
    }

    /// Whether every claim row with an expectation matched it.
    pub fn claims_hold(&self) -> bool {
        self.claims()
            .iter()
            .all(|(_, measured, expected)| expected.is_none_or(|e| e == *measured))
    }

    /// Render the full profile as a text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "walk profile: {} events, {} cycles",
            self.events, self.total_cycles
        );
        let _ = writeln!(
            out,
            "  pipeline overhead: {} cycles ({:.1}%)",
            self.pipeline_cycles,
            pct(self.pipeline_cycles, self.total_cycles)
        );
        if self.is_balanced() {
            let _ = writeln!(out, "  step-sum invariant: OK (every cycle attributed)");
        } else {
            let _ = writeln!(
                out,
                "  step-sum invariant: VIOLATED in {} events (first seqs: {:?})",
                self.unbalanced.len(),
                &self.unbalanced[..self.unbalanced.len().min(8)]
            );
        }

        // Per-hart attribution, shown only for traces that are actually
        // multi-hart so single-hart reports keep their historical shape.
        if self.harts.len() > 1 || self.harts.keys().next().is_some_and(|&h| h != 0) {
            let _ = writeln!(out, "\ncycles by hart:");
            for (&hart, cell) in &self.harts {
                let _ = writeln!(
                    out,
                    "  hart {:<4} {:>10} events {:>12} cycles {:>6.1}%",
                    hart,
                    cell.count,
                    cell.cycles,
                    pct(cell.cycles, self.total_cycles)
                );
            }
        }

        let _ = writeln!(out, "\ncycles by world x access class x step kind:");
        let _ = writeln!(
            out,
            "  {:<8} {:<14} {:<10} {:>10} {:>12} {:>7}",
            "world", "class", "step", "count", "cycles", "share"
        );
        for (&(world, class, step), cell) in &self.breakdown {
            let _ = writeln!(
                out,
                "  {:<8} {:<14} {:<10} {:>10} {:>12} {:>6.1}%",
                world,
                class,
                step,
                cell.count,
                cell.cycles,
                pct(cell.cycles, self.total_cycles)
            );
        }

        if !self.levels.is_empty() {
            let _ = writeln!(out, "\nper-level split (leaf = level 0):");
            for (&(world, step), levels) in &self.levels {
                for (&level, cell) in levels {
                    let _ = writeln!(
                        out,
                        "  {:<8} {:<10} L{:<2} {:>10} {:>12}",
                        world, step, level, cell.count, cell.cycles
                    );
                }
            }
        }

        if !self.pmpte_by_purpose.is_empty() {
            let _ = writeln!(out, "\npmpte references by guarded step:");
            for (&(world, purpose), cell) in &self.pmpte_by_purpose {
                let _ = writeln!(
                    out,
                    "  {:<8} guarding {:<10} {:>10} {:>12}",
                    world, purpose, cell.count, cell.cycles
                );
            }
        }

        let claims = self.claims();
        if !claims.is_empty() {
            let _ = writeln!(
                out,
                "\npaper reference-count claims (from event data alone):"
            );
            for (label, measured, expected) in &claims {
                match expected {
                    Some(e) => {
                        let verdict = if measured == e { "OK" } else { "MISMATCH" };
                        let _ = writeln!(out, "  {label}: {measured} (paper: {e}) {verdict}");
                    }
                    None => {
                        let _ = writeln!(out, "  {label}: {measured}");
                    }
                }
            }
        }
        out
    }
}

/// Monitor-operation cycle attribution over a span stream: where monitor
/// time went per [`SpanKind`], and how much of it was segment compaction —
/// the degradation-ladder stall the aging scenario is built to surface.
///
/// Compact spans are children of the operation span whose allocation
/// triggered the pass, so their cycles are *contained in* the root
/// operation totals; [`SpanProfile::compact_share`] reports that
/// containment as a percentage rather than double-counting it.
#[derive(Clone, Debug, Default)]
pub struct SpanProfile {
    /// Spans profiled (retained in the stream).
    pub spans: u64,
    /// Spans the producer dropped at its capacity bound.
    pub dropped: u64,
    /// Count and cycles per span kind, in [`SpanKind::ALL`] order.
    pub by_kind: BTreeMap<&'static str, Cell>,
    /// Cycles inside root monitor-operation spans.
    pub op_cycles: u64,
    /// Cycles inside compaction spans (a subset of `op_cycles`).
    pub compact_cycles: u64,
    /// Root operations that triggered at least one compaction pass.
    pub compacted_ops: u64,
}

impl SpanProfile {
    /// Profile a parsed span stream.
    pub fn from_stream(stream: &SpanStream) -> SpanProfile {
        let mut p = SpanProfile {
            spans: stream.spans.len() as u64,
            dropped: stream.dropped,
            ..SpanProfile::default()
        };
        let mut compact_parents = BTreeSet::new();
        for span in &stream.spans {
            p.by_kind
                .entry(span.kind.label())
                .or_default()
                .add(span.cycles());
            if span.kind.is_operation() {
                p.op_cycles += span.cycles();
            }
            if span.kind == SpanKind::Compact {
                p.compact_cycles += span.cycles();
                if let Some(parent) = span.parent {
                    compact_parents.insert(parent);
                }
            }
        }
        p.compacted_ops = compact_parents.len() as u64;
        p
    }

    /// Share of monitor-operation cycles spent compacting, as a
    /// percentage of `op_cycles`.
    pub fn compact_share(&self) -> f64 {
        pct(self.compact_cycles, self.op_cycles)
    }

    /// Render the span attribution as a text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "span profile: {} span(s), {} dropped at capacity",
            self.spans, self.dropped
        );
        let _ = writeln!(out, "\ncycles by span kind:");
        let _ = writeln!(
            out,
            "  {:<16} {:>10} {:>12} {:>7}",
            "kind", "count", "cycles", "share"
        );
        // Fixed kind order, skipping kinds the stream never saw.
        for kind in SpanKind::ALL {
            let Some(cell) = self.by_kind.get(kind.label()) else {
                continue;
            };
            let _ = writeln!(
                out,
                "  {:<16} {:>10} {:>12} {:>6.1}%",
                kind.label(),
                cell.count,
                cell.cycles,
                pct(cell.cycles, self.op_cycles)
            );
        }
        let _ = writeln!(
            out,
            "\ndegradation attribution: {} compaction pass(es) inside {} op(s), \
             {} of {} op cycles ({:.1}%) spent compacting",
            self.by_kind
                .get(SpanKind::Compact.label())
                .map_or(0, |c| c.count),
            self.compacted_ops,
            self.compact_cycles,
            self.op_cycles,
            self.compact_share()
        );
        out
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpmp_trace::{AccessOp, PrivLevel, WalkStep, World};

    fn step(kind: StepKind, level: Option<u8>, cycles: u64) -> WalkStep {
        WalkStep {
            kind,
            level,
            addr: 0x8000_0000,
            cycles,
        }
    }

    fn event(seq: u64, world: World, steps: Vec<WalkStep>) -> WalkEvent {
        let step_cycles: u64 = steps.iter().map(|s| s.cycles).sum();
        WalkEvent {
            seq,
            hart: 0,
            world,
            op: AccessOp::Read,
            privilege: PrivLevel::Supervisor,
            va: 0x10_0000,
            paddr: Some(0x8000_0000),
            tlb: TlbOutcome::Miss,
            pwc_level: None,
            pmptw: None,
            pipeline_cycles: 1,
            cycles: 1 + step_cycles,
            fault: None,
            steps,
        }
    }

    /// A cold native PMPT Sv39 walk: (2 pmpte + pt) x3 + 2 pmpte + data.
    fn pmpt_native_walk(seq: u64) -> WalkEvent {
        let mut steps = Vec::new();
        for level in (0..3u8).rev() {
            steps.push(step(StepKind::PmptRoot, None, 5));
            steps.push(step(StepKind::PmptLeaf, None, 5));
            steps.push(step(StepKind::Pt, Some(level), 14));
        }
        steps.push(step(StepKind::PmptRoot, None, 5));
        steps.push(step(StepKind::PmptLeaf, None, 5));
        steps.push(step(StepKind::Data, None, 14));
        event(seq, World::Host, steps)
    }

    /// A cold native HPMP Sv39 walk: pt x3 + 2 pmpte + data.
    fn hpmp_native_walk(seq: u64) -> WalkEvent {
        let mut steps = Vec::new();
        for level in (0..3u8).rev() {
            steps.push(step(StepKind::Pt, Some(level), 14));
        }
        steps.push(step(StepKind::PmptRoot, None, 5));
        steps.push(step(StepKind::PmptLeaf, None, 5));
        steps.push(step(StepKind::Data, None, 14));
        event(seq, World::Enclave, steps)
    }

    /// A cold virtualized Sv39x4 walk under `pmpte_npt` pmpte refs per NPT
    /// step and `pmpte_gpt` per guest-PT step.
    fn virt_walk(seq: u64, pmpte_npt: u64, pmpte_gpt: u64, pmpte_data: u64) -> WalkEvent {
        let mut steps = Vec::new();
        // 3 guest levels, each needing a 3-step nested walk for its PTE,
        // then the final nested walk for the data GPA: 12 NestedPt total.
        for glevel in (0..3u8).rev() {
            for nlevel in (0..3u8).rev() {
                for _ in 0..pmpte_npt {
                    steps.push(step(StepKind::PmptLeaf, None, 5));
                }
                steps.push(step(StepKind::NestedPt, Some(nlevel), 14));
            }
            for _ in 0..pmpte_gpt {
                steps.push(step(StepKind::PmptLeaf, None, 5));
            }
            steps.push(step(StepKind::GuestPt, Some(glevel), 14));
        }
        for nlevel in (0..3u8).rev() {
            for _ in 0..pmpte_npt {
                steps.push(step(StepKind::PmptLeaf, None, 5));
            }
            steps.push(step(StepKind::NestedPt, Some(nlevel), 14));
        }
        for _ in 0..pmpte_data {
            steps.push(step(StepKind::PmptLeaf, None, 5));
        }
        steps.push(step(StepKind::Data, None, 14));
        event(seq, World::Guest, steps)
    }

    #[test]
    fn adjacency_attribution_recovers_purpose_split() {
        let refs = EventRefs::of(&pmpt_native_walk(0));
        assert_eq!(refs.pt, 3);
        assert_eq!(refs.pmpte_for_pt, 6);
        assert_eq!(refs.pmpte_for_data, 2);
        assert_eq!(refs.data, 1);
        assert_eq!(refs.total(), 12);
        assert_eq!(refs.shape(), IsolationShape::Table);

        let refs = EventRefs::of(&hpmp_native_walk(1));
        assert_eq!(refs.pmpte_for_pt, 0);
        assert_eq!(refs.pmpte_for_data, 2);
        assert_eq!(refs.total(), 6);
        assert_eq!(refs.shape(), IsolationShape::Hybrid);
    }

    #[test]
    fn native_claims_6_vs_12() {
        let events = vec![pmpt_native_walk(0), hpmp_native_walk(1)];
        let p = WalkProfile::from_events(&events);
        assert!(p.is_balanced());
        let table = &p.native_cold[&IsolationShape::Table];
        let hybrid = &p.native_cold[&IsolationShape::Hybrid];
        assert_eq!(table.refs.total(), 12);
        assert_eq!(hybrid.refs.total(), 6);
        assert!(p.claims_hold(), "claims: {:?}", p.claims());
    }

    #[test]
    fn virt_claims_12_vs_36() {
        // PMPT: 2 pmpte per NPT ref (36 3-D), 2 per GPT ref... the machine
        // emits 2 pmpte per guarded ref; gpt guard is 2 each for 3 refs = 6.
        let pmpt = virt_walk(0, 2, 2, 2);
        let refs = EventRefs::of(&pmpt);
        assert_eq!(refs.nested_pt, 12);
        assert_eq!(refs.pmpte_for_npt, 24);
        assert_eq!(refs.three_d(), 36);
        assert_eq!(refs.total(), 48);

        let hpmp = virt_walk(1, 0, 2, 2);
        let refs = EventRefs::of(&hpmp);
        assert_eq!(refs.three_d(), 12);
        assert_eq!(refs.total(), 24);

        let p = WalkProfile::from_events(&[pmpt, hpmp]);
        assert!(p.claims_hold(), "claims: {:?}", p.claims());
        let rendered = p.render();
        assert!(rendered.contains("3-D references"), "{rendered}");
    }

    #[test]
    fn per_hart_section_appears_only_for_multihart_traces() {
        let single = WalkProfile::from_events(&[hpmp_native_walk(0)]);
        assert!(!single.render().contains("cycles by hart"));
        assert_eq!(single.harts[&0].count, 1);

        let mut remote = hpmp_native_walk(1);
        remote.hart = 3;
        let multi = WalkProfile::from_events(&[hpmp_native_walk(0), remote]);
        let rendered = multi.render();
        assert!(rendered.contains("cycles by hart"), "{rendered}");
        assert!(rendered.contains("hart 3"), "{rendered}");
        assert_eq!(multi.harts[&3].cycles, multi.harts[&0].cycles);
    }

    #[test]
    fn unbalanced_events_are_flagged() {
        let mut e = hpmp_native_walk(0);
        e.cycles += 1;
        let p = WalkProfile::from_events(&[e]);
        assert!(!p.is_balanced());
        assert_eq!(p.unbalanced, vec![0]);
        assert!(p.render().contains("VIOLATED"));
    }

    #[test]
    fn breakdown_sums_step_cycles() {
        let p = WalkProfile::from_events(&[hpmp_native_walk(0)]);
        let cell = p.breakdown[&("enclave", "read_walk", "pt")];
        assert_eq!(cell.count, 3);
        assert_eq!(cell.cycles, 42);
        let levels = &p.levels[&("enclave", "pt")];
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[&0].count, 1);
    }

    #[test]
    fn span_profile_attributes_compaction_inside_ops() {
        use hpmp_trace::{SpanEvent, SpanStream};
        let span = |id, parent, kind, begin, end| SpanEvent {
            id,
            parent,
            kind,
            hart: 0,
            domain: Some(1),
            begin,
            end,
        };
        let stream = SpanStream {
            dropped: 2,
            spans: vec![
                // An alloc that compacted for 300 of its 500 cycles.
                span(1, None, SpanKind::Alloc, 0, 500),
                span(2, Some(1), SpanKind::Compact, 50, 350),
                // A plain switch, plus its shootdown child.
                span(3, None, SpanKind::Switch, 500, 600),
                span(4, Some(3), SpanKind::ShootdownRecv, 520, 580),
            ],
        };
        let p = SpanProfile::from_stream(&stream);
        assert_eq!(p.spans, 4);
        assert_eq!(p.dropped, 2);
        assert_eq!(p.op_cycles, 600);
        assert_eq!(p.compact_cycles, 300);
        assert_eq!(p.compacted_ops, 1);
        assert_eq!(p.compact_share(), 50.0);
        let rendered = p.render();
        assert!(rendered.contains("degradation attribution"), "{rendered}");
        assert!(rendered.contains("(50.0%)"), "{rendered}");
    }

    #[test]
    fn empty_span_stream_profiles_to_zeroes() {
        let p = SpanProfile::from_stream(&hpmp_trace::SpanStream::default());
        assert_eq!(p.op_cycles, 0);
        assert_eq!(p.compact_share(), 0.0);
        assert!(p.render().contains("0 span(s)"));
    }

    #[test]
    fn trailing_pmpte_counts_as_aborted() {
        let e = event(
            0,
            World::Host,
            vec![
                step(StepKind::Pt, Some(2), 14),
                step(StepKind::PmptRoot, None, 5),
                step(StepKind::PmptLeaf, None, 5),
            ],
        );
        let refs = EventRefs::of(&e);
        assert_eq!(refs.pmpte_aborted, 2);
        assert_eq!(refs.total(), 3);
    }
}
