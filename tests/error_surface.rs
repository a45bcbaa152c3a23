//! Error-surface hygiene: every public error type renders a meaningful,
//! lowercase-ish message, implements `std::error::Error`, and is `Send +
//! Sync` (the API-guideline requirements that make the crates usable with
//! `?` and error-handling libraries).

use std::error::Error;

use hpmp_suite::core::{HpmpError, MalformedPmpte, TableError};
use hpmp_suite::machine::Fault;
use hpmp_suite::memsim::{PhysAddr, VirtAddr};
use hpmp_suite::paging::MapError;
use hpmp_suite::penglai::{DomainId, HintId, MonitorError, OsError, Pid};
use hpmp_suite::trace::json::JsonError;
use hpmp_suite::trace::ReadError;
use hpmp_suite::workloads::smp::ThreadedTelemetry;

fn assert_error<E: Error + Send + Sync + 'static>(e: E) {
    let msg = e.to_string();
    assert!(!msg.is_empty(), "{e:?} renders empty");
    assert!(!msg.ends_with('.'), "{msg:?} has trailing punctuation");
    let debug = format!("{e:?}");
    assert!(!debug.is_empty());
}

#[test]
fn all_public_errors_behave() {
    let pa = PhysAddr::new(0x8000_0000);
    let va = VirtAddr::new(0x1000);

    assert_error(MapError::NonCanonical(va));
    assert_error(MapError::OutOfPtFrames);
    assert_error(MapError::AlreadyMapped(va));
    assert_error(MapError::HugePageConflict(va));
    assert_error(MapError::Misaligned(va));

    assert_error(HpmpError::BadIndex(20));
    assert_error(HpmpError::LastEntryTableMode);
    assert_error(HpmpError::Locked(3));
    assert_error(HpmpError::BadRegion);
    assert_error(HpmpError::RegionTooLarge);
    assert_error(HpmpError::PointerSlotBusy(4));
    assert_error(HpmpError::MalformedEntry(5));

    assert_error(TableError::OutOfReach(1 << 40));
    assert_error(TableError::OutOfTableFrames);
    assert_error(TableError::Misaligned(pa));
    assert_error(TableError::OutsideRegion(pa));
    assert_error(TableError::CorruptEntry(pa));

    assert_error(MalformedPmpte::ReservedBits(1 << 63));
    assert_error(MalformedPmpte::ParityMismatch(0x1f));

    assert_error(Fault::PageFault(va));
    assert_error(Fault::PtePermission(va));
    assert_error(Fault::IsolationOnPtPage(pa));
    assert_error(Fault::IsolationOnData(pa));
    assert_error(Fault::CorruptPmpte(pa));

    assert_error(MonitorError::OutOfPmpEntries);
    assert_error(MonitorError::OutOfMemory);
    assert_error(MonitorError::NoSuchDomain(DomainId(9)));
    assert_error(MonitorError::NotOwned);
    assert_error(MonitorError::Hpmp(HpmpError::Locked(2)));
    assert_error(MonitorError::Table(TableError::OutOfTableFrames));
    assert_error(MonitorError::BadBootRam("not NAPOT"));
    assert_error(MonitorError::IntegrityLost(DomainId(6)));
    assert_error(MonitorError::AlreadyScheduled(DomainId(7)));
    assert_error(MonitorError::ResourceExhausted { retry_after_ops: 8 });

    assert_error(OsError::NoSuchProcess(Pid(1)));
    assert_error(OsError::OutOfMemory);
    assert_error(OsError::Map(MapError::OutOfPtFrames));
    assert_error(OsError::Access(Fault::PageFault(va)));
    assert_error(OsError::BadHintRange(va));
    assert_error(OsError::NoSuchHint(HintId(2)));
    assert_error(OsError::Monitor(MonitorError::NotOwned));

    assert_error(ReadError::Io(std::io::Error::other("disk gone")));
    assert_error(ReadError::Parse {
        line: 3,
        message: "expected an object".into(),
    });
    assert_error(ReadError::Schema {
        message: "unknown schema 9".into(),
    });
    assert_error(JsonError {
        offset: 12,
        message: "unexpected end of input".into(),
    });

    assert_error(ThreadedTelemetry);
}

#[test]
fn error_conversions_compose() {
    // `?`-operator chains across layers.
    fn os_level() -> Result<(), OsError> {
        Err(MapError::OutOfPtFrames)?
    }
    assert!(matches!(
        os_level(),
        Err(OsError::Map(MapError::OutOfPtFrames))
    ));

    fn monitor_level() -> Result<(), MonitorError> {
        Err(HpmpError::Locked(3))?
    }
    fn os_monitor_level() -> Result<(), OsError> {
        monitor_level()?;
        Ok(())
    }
    let err = os_monitor_level().unwrap_err();
    assert_eq!(
        err,
        OsError::Monitor(MonitorError::Hpmp(HpmpError::Locked(3)))
    );

    // `source()` walks the same chain back down.
    let monitor = err.source().expect("OsError::Monitor has a source");
    assert_eq!(
        monitor.downcast_ref::<MonitorError>(),
        Some(&MonitorError::Hpmp(HpmpError::Locked(3)))
    );
    let hpmp = monitor.source().expect("MonitorError::Hpmp has a source");
    assert_eq!(
        hpmp.downcast_ref::<HpmpError>(),
        Some(&HpmpError::Locked(3))
    );
    assert!(hpmp.source().is_none());

    let map = OsError::Map(MapError::OutOfPtFrames);
    assert_eq!(
        map.source().and_then(|e| e.downcast_ref::<MapError>()),
        Some(&MapError::OutOfPtFrames)
    );
    let va = VirtAddr::new(0x2000);
    let access = OsError::Access(Fault::PageFault(va));
    assert_eq!(
        access.source().and_then(|e| e.downcast_ref::<Fault>()),
        Some(&Fault::PageFault(va))
    );
    assert!(OsError::OutOfMemory.source().is_none());

    // A trace read that failed in the reader keeps the `io::Error`.
    fn read_level() -> Result<(), ReadError> {
        Err(std::io::Error::other("disk gone"))?
    }
    let read = read_level().unwrap_err();
    let io = read
        .source()
        .and_then(|e| e.downcast_ref::<std::io::Error>());
    assert_eq!(io.map(ToString::to_string).as_deref(), Some("disk gone"));
    let parse = ReadError::Parse {
        line: 1,
        message: "bad".into(),
    };
    assert!(parse.source().is_none());
}

/// `PointerSlotBusy` is returned, not just rendered: a table entry whose
/// pointer slot is an active segment fails and writes nothing.
#[test]
fn configure_table_refuses_a_busy_pointer_slot() {
    use hpmp_suite::core::{HpmpRegFile, PmpRegion};
    use hpmp_suite::memsim::Perms;

    let mut regs = HpmpRegFile::new();
    let segment = PmpRegion::new(PhysAddr::new(0x8000_0000), 1 << 20);
    regs.configure_segment(1, segment, Perms::RW).unwrap();
    let image = |regs: &HpmpRegFile| -> Vec<_> {
        (0..2)
            .map(|i| (regs.addr_reg(i), regs.cfg_reg(i)))
            .collect()
    };
    let before = image(&regs);
    let table = PmpRegion::new(PhysAddr::new(0x9000_0000), 1 << 28);
    assert_eq!(
        regs.configure_table(0, table, PhysAddr::new(0x1000)),
        Err(HpmpError::PointerSlotBusy(1))
    );
    assert_eq!(image(&regs), before);
    assert_eq!(regs.entry_region(1), Some(segment));
}
