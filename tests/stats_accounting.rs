//! Accounting invariants: the statistics the figures are computed from must
//! be internally consistent — reference counts match what the memory system
//! saw, TLB lookups match accesses, and cycle totals are conserved.

use hpmp_suite::machine::{IsolationScheme, MachineConfig, SystemBuilder};
use hpmp_suite::memsim::{AccessKind, Perms, PrivMode, VirtAddr, PAGE_SIZE};
use hpmp_suite::trace::{
    AccessClass, JsonlSink, LatencyHistogram, LatencyHistograms, NullSink, RingSink,
};

#[test]
fn references_match_memory_system() {
    for scheme in [
        IsolationScheme::Pmp,
        IsolationScheme::PmpTable,
        IsolationScheme::Hpmp,
    ] {
        let mut sys = SystemBuilder::new(MachineConfig::rocket(), scheme).build();
        sys.map_range(VirtAddr::new(0x10_0000), 32, Perms::RW);
        sys.sync_pt_grants();
        sys.machine.flush_microarch();
        sys.machine.reset_stats();

        for i in 0..32u64 {
            sys.machine
                .access(
                    &sys.space,
                    VirtAddr::new(0x10_0000 + i * PAGE_SIZE),
                    AccessKind::Read,
                    PrivMode::Supervisor,
                )
                .expect("mapped");
        }

        let stats = sys.machine.stats();
        let mem = sys.machine.mem_stats();
        // Every counted reference went through the memory system, and
        // nothing else did.
        assert_eq!(
            stats.refs.total(),
            mem.accesses,
            "{scheme}: reference conservation"
        );
        // Every access either hit the TLB or walked.
        let tlb = sys.machine.tlb_stats();
        assert_eq!(
            tlb.lookups(),
            stats.accesses,
            "{scheme}: one TLB lookup per access"
        );
        assert_eq!(tlb.misses, stats.walks, "{scheme}: one walk per TLB miss");
        // Data references: exactly one per access.
        assert_eq!(stats.refs.data_reads, stats.accesses, "{scheme}");
        // Hierarchy conservation: every lookup at a level is a hit or miss.
        assert_eq!(mem.l1.accesses(), mem.l1.hits + mem.l1.misses);
        assert_eq!(
            mem.dram.row_hits + mem.dram.row_misses,
            mem.llc.misses,
            "{scheme}: every LLC miss reaches DRAM"
        );
    }
}

#[test]
fn per_access_outcomes_sum_to_totals() {
    let mut sys = SystemBuilder::new(MachineConfig::boom(), IsolationScheme::Hpmp).build();
    sys.map_range(VirtAddr::new(0x10_0000), 8, Perms::RW);
    sys.sync_pt_grants();
    sys.machine.flush_microarch();
    sys.machine.reset_stats();

    let mut cycles = 0;
    let mut refs = 0;
    for i in 0..8u64 {
        let out = sys
            .machine
            .access(
                &sys.space,
                VirtAddr::new(0x10_0000 + i * PAGE_SIZE),
                AccessKind::Write,
                PrivMode::Supervisor,
            )
            .expect("mapped");
        cycles += out.cycles;
        refs += out.refs.total();
    }
    let stats = sys.machine.stats();
    assert_eq!(stats.cycles, cycles, "cycle conservation");
    assert_eq!(stats.refs.total(), refs, "reference conservation");
    assert_eq!(stats.accesses, 8);
    assert_eq!(stats.faults, 0);
}

#[test]
fn faults_are_counted_but_not_as_accesses() {
    let mut sys = SystemBuilder::new(MachineConfig::rocket(), IsolationScheme::Pmp).build();
    sys.machine.reset_stats();
    for _ in 0..3 {
        let _ = sys.machine.access(
            &sys.space,
            VirtAddr::new(0xdead_0000),
            AccessKind::Read,
            PrivMode::Supervisor,
        );
    }
    let stats = sys.machine.stats();
    assert_eq!(stats.faults, 3);
    assert_eq!(stats.accesses, 0, "faulting accesses do not complete");
}

/// Drives `accesses` reads over `pages` mapped pages on a freshly reset
/// machine carrying `sink`, reusing addresses so both TLB hits and walks
/// occur.
fn drive<S: hpmp_suite::trace::TraceSink>(
    scheme: IsolationScheme,
    sink: S,
    pages: u64,
    accesses: u64,
) -> hpmp_suite::machine::System<S> {
    let mut sys = SystemBuilder::new(MachineConfig::rocket(), scheme)
        .sink(sink)
        .build();
    sys.map_range(VirtAddr::new(0x10_0000), pages, Perms::RW);
    sys.sync_pt_grants();
    sys.machine.flush_microarch();
    sys.machine.reset_stats();
    for i in 0..accesses {
        let va = VirtAddr::new(0x10_0000 + (i % pages) * PAGE_SIZE);
        let kind = if i % 3 == 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        sys.machine
            .access(&sys.space, va, kind, PrivMode::Supervisor)
            .expect("mapped");
    }
    sys
}

#[test]
fn registry_snapshot_reconciles_with_legacy_stats() {
    for scheme in [
        IsolationScheme::Pmp,
        IsolationScheme::PmpTable,
        IsolationScheme::Hpmp,
    ] {
        let mut sys = drive(scheme, NullSink, 16, 48);
        let snap = sys.machine.metrics_snapshot();
        let stats = sys.machine.stats();
        let mem = sys.machine.mem_stats();
        let tlb = sys.machine.tlb_stats();

        // Every number a figure would use is reachable by dotted name and
        // agrees with the legacy per-component counters.
        assert_eq!(snap.value("machine.accesses"), stats.accesses, "{scheme}");
        assert_eq!(snap.value("machine.walks"), stats.walks, "{scheme}");
        assert_eq!(snap.value("machine.cycles"), stats.cycles, "{scheme}");
        assert_eq!(snap.value("machine.faults"), stats.faults, "{scheme}");
        assert_eq!(snap.value("machine.refs"), stats.refs.total(), "{scheme}");
        assert_eq!(
            snap.value("machine.refs.pt_reads"),
            stats.refs.pt_reads,
            "{scheme}"
        );
        assert_eq!(snap.value("machine.mem.accesses"), mem.accesses, "{scheme}");
        let lookups = snap.value("machine.dtlb.l1_hits")
            + snap.value("machine.dtlb.l2_hits")
            + snap.value("machine.dtlb.misses");
        assert_eq!(lookups, tlb.lookups(), "{scheme}");
        assert_eq!(snap.value("machine.dtlb.misses"), tlb.misses, "{scheme}");

        // The registry is a *view*: the reconciliation the components do
        // internally must also hold.
        sys.machine
            .verify_accounting()
            .expect("accounting must reconcile");

        // Latency histograms cover exactly the completed accesses.
        assert_eq!(
            sys.machine.histograms().total_count(),
            stats.accesses,
            "{scheme}"
        );
        let per_class: u64 = AccessClass::ALL
            .iter()
            .map(|&c| sys.machine.histograms().class(c).count())
            .sum();
        assert_eq!(
            per_class, stats.accesses,
            "{scheme}: classes partition accesses"
        );
    }
}

#[test]
fn snapshot_delta_isolates_a_measurement_phase() {
    let mut sys = drive(IsolationScheme::Hpmp, NullSink, 8, 8);
    let before = sys.machine.metrics_snapshot();
    for i in 0..24u64 {
        sys.machine
            .access(
                &sys.space,
                VirtAddr::new(0x10_0000 + (i % 8) * PAGE_SIZE),
                AccessKind::Read,
                PrivMode::Supervisor,
            )
            .expect("mapped");
    }
    let delta = sys.machine.metrics_snapshot().delta(&before);
    assert_eq!(delta.value("machine.accesses"), 24);
    let lookups = delta.value("machine.dtlb.l1_hits")
        + delta.value("machine.dtlb.l2_hits")
        + delta.value("machine.dtlb.misses");
    assert_eq!(lookups, 24, "one TLB lookup per access in the delta window");
    assert!(delta.value("machine.cycles") > 0);
}

/// The `machine.latency.<class>.bucket.<lo>` names a snapshot carries.
fn bucket_names(snap: &hpmp_suite::trace::Snapshot) -> Vec<String> {
    snap.iter()
        .filter(|(name, _)| name.starts_with("machine.latency.") && name.contains(".bucket."))
        .map(|(name, _)| name.to_string())
        .collect()
}

#[test]
fn latency_buckets_stick_once_snapshotted_and_only_then() {
    // Snapshotted, then reset: every bucket seen stays, as an explicit 0.
    let mut sys = drive(IsolationScheme::Hpmp, NullSink, 16, 48);
    let seen = bucket_names(&sys.machine.metrics_snapshot());
    assert!(!seen.is_empty(), "the drive must fill some buckets");
    sys.machine.reset_stats();
    let after = sys.machine.metrics_snapshot();
    assert_eq!(bucket_names(&after), seen);
    for name in &seen {
        assert_eq!(after.get(name), Some(0), "{name} after reset");
    }
    assert_eq!(after.get("machine.latency.read_walk.count"), Some(0));

    // Recorded, then reset before any snapshot: the buckets never appear,
    // while the per-class summaries do.
    let mut sys = drive(IsolationScheme::Hpmp, NullSink, 16, 48);
    sys.machine.reset_stats();
    let snap = sys.machine.metrics_snapshot();
    assert!(bucket_names(&snap).is_empty(), "{:?}", bucket_names(&snap));
    for class in AccessClass::ALL {
        let count = format!("machine.latency.{}.count", class.label());
        assert_eq!(snap.get(&count), Some(0), "{count}");
    }
}

#[test]
fn latency_histogram_buckets_and_merge() {
    // Bucket 0 is the exact value 0; bucket k covers [2^(k-1), 2^k).
    assert_eq!(LatencyHistogram::bucket_index(0), 0);
    assert_eq!(LatencyHistogram::bucket_index(1), 1);
    assert_eq!(LatencyHistogram::bucket_index(2), 2);
    assert_eq!(LatencyHistogram::bucket_index(3), 2);
    assert_eq!(LatencyHistogram::bucket_index(4), 3);
    assert_eq!(LatencyHistogram::bucket_index(1023), 10);
    assert_eq!(LatencyHistogram::bucket_index(1024), 11);

    let mut a = LatencyHistogram::new();
    for v in [3u64, 3, 100, 900] {
        a.record(v);
    }
    assert_eq!(a.count(), 4);
    assert_eq!(a.sum(), 1006);
    assert_eq!(a.bucket(LatencyHistogram::bucket_index(3)), 2);
    assert_eq!(a.min(), Some(3));
    assert_eq!(a.max(), Some(900));

    let mut b = LatencyHistogram::new();
    b.record(7);
    b.merge(&a);
    assert_eq!(b.count(), 5);
    assert_eq!(b.sum(), 1013);
    assert_eq!(b.max(), Some(900), "merge keeps the extremes");
    assert_eq!(b.min(), Some(3));

    // Per-class containers merge class-wise.
    let mut x = LatencyHistograms::new();
    let mut y = LatencyHistograms::new();
    x.record(AccessClass::ReadWalk, 400);
    y.record(AccessClass::ReadWalk, 500);
    y.record(AccessClass::WriteTlbHit, 9);
    x.merge(&y);
    assert_eq!(x.total_count(), 3);
    assert_eq!(x.class(AccessClass::ReadWalk).count(), 2);
    assert_eq!(x.class(AccessClass::WriteTlbHit).count(), 1);
}

#[test]
fn ring_sink_overflow_on_a_live_machine() {
    let sys = drive(IsolationScheme::Hpmp, RingSink::new(4), 8, 12);
    let ring = sys.machine.sink();
    assert_eq!(ring.len(), 4, "ring keeps only the most recent events");
    assert_eq!(ring.overwritten(), 8);
    let mut prev = None;
    for event in ring.events() {
        assert!(
            event.is_balanced(),
            "event #{}: cycles must be fully attributed",
            event.seq
        );
        if let Some(p) = prev {
            assert!(event.seq > p, "events stay in issue order");
        }
        prev = Some(event.seq);
    }
}

#[test]
fn tracing_is_deterministic_null_vs_jsonl() {
    // The same workload under the zero-cost sink and the JSONL sink must
    // produce byte-identical simulation results: tracing cannot perturb.
    let mut null_sys = drive(IsolationScheme::PmpTable, NullSink, 16, 48);
    let mut json_sys = drive(
        IsolationScheme::PmpTable,
        JsonlSink::new(Vec::new()),
        16,
        48,
    );

    assert_eq!(null_sys.machine.stats(), json_sys.machine.stats());
    assert_eq!(
        null_sys.machine.mem_stats().accesses,
        json_sys.machine.mem_stats().accesses
    );
    assert_eq!(
        null_sys.machine.metrics_snapshot().to_json(),
        json_sys.machine.metrics_snapshot().to_json()
    );

    let sink = json_sys.machine.into_sink();
    assert_eq!(sink.written(), 48, "one event per access");
    assert_eq!(sink.io_errors(), 0);
}

/// Every `key:<number>` occurrence in a JSON line, in order.
fn nums_after(line: &str, key: &str) -> Vec<u64> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(pos) = rest.find(key) {
        rest = &rest[pos + key.len()..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        out.push(digits.parse().expect("number after key"));
    }
    out
}

#[test]
fn jsonl_step_cycles_sum_to_walk_totals() {
    let sys = drive(IsolationScheme::Hpmp, JsonlSink::new(Vec::new()), 16, 48);
    let total_cycles = sys.machine.stats().cycles;
    let text = String::from_utf8(sys.machine.into_sink().into_inner()).expect("utf8");

    let mut event_cycles_sum = 0;
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 49, "schema header + one line per event");
    assert!(
        lines[0].contains("\"schema\":1"),
        "stream opens with header"
    );
    for &line in &lines[1..] {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "JSONL object per line"
        );
        let pipeline = nums_after(line, "\"pipeline_cycles\":")[0];
        // The first bare "cycles" is the event total; the rest are steps.
        let cycles = nums_after(line, "\"cycles\":");
        let (total, steps) = cycles.split_first().expect("event has a cycle total");
        assert_eq!(
            pipeline + steps.iter().sum::<u64>(),
            *total,
            "per-walk step cycles must sum to the walk total: {line}"
        );
        event_cycles_sum += total;
    }
    assert_eq!(
        event_cycles_sum, total_cycles,
        "per-event totals must sum to the machine's cycle counter"
    );
}
