//! The schedule text format and which ops of the one op vocabulary can
//! be issued, through the public API.

use hpmp_modelcheck::{boot_system, Boot, BootError, CheckedRun, MonitorOp, Schedule};
use hpmp_penglai::DomainId;

#[test]
fn text_form_round_trips() {
    let text = "h0:create h1:switch(1) h0:alloc(1,fast) h0:alloc(1,slow,big) \
                h1:free(1,0) h0:relabel(1,1,slow) h1:destroy(1) h0:switch(host) \
                h0:create(256K) h0:alloc(0,slow,192K) h0:corrupt(3,cfg,5) \
                h0:corrupt(15,addr,63) h0:flip(1,17) h0:drop-fence(2)";
    let sched = Schedule::parse(text).expect("parse");
    assert_eq!(sched.0.len(), 14);
    assert_eq!(
        sched.to_string(),
        text.split_whitespace().collect::<Vec<_>>().join(" ")
    );
    assert_eq!(sched.0[7].op, MonitorOp::Switch(DomainId::HOST.0));
    assert_eq!(sched.0[8].op, MonitorOp::Create { size: 256 << 10 });
    assert_eq!(
        Schedule::parse("  \n ").expect("blank"),
        Schedule::default()
    );
}

#[test]
fn parse_rejects_malformed_tokens() {
    for bad in [
        "create",           // missing hart tag
        "h0:alloc(1",       // unclosed args
        "h0:alloc(1,warm)", // unknown label
        "h0:alloc(1,fast,huge)",
        "h0:create(12Q)",
        "hx:create",
        "h0:frob(1)",
        "h0:destroy(q)",
        "h0:free(1)", // missing slot
        "h0:corrupt(1,cfg,8)",
        "h0:corrupt(1,pc,3)",
        "h0:flip(0,64)",
    ] {
        assert!(Schedule::parse(bad).is_err(), "`{bad}` must not parse");
    }
}

#[test]
fn fault_ops_recover_on_every_hart() {
    // Each hart's scrub compares against that hart's own image, so the
    // fault ops run on a multi-hart system too.
    let text = "h0:create h1:switch(1) h0:corrupt(3,cfg,5) h1:corrupt(3,cfg,5) \
                h0:corrupt(2,addr,40) h1:corrupt(2,addr,40) h0:flip(0,17) h1:flip(0,17) \
                h0:drop-fence(1) h1:drop-fence(0)";
    let sched = Schedule::parse(text).expect("parse");
    let mut run = CheckedRun::boot(Boot::default()).expect("boot");
    assert_eq!(run.smp.harts(), 2);
    if let Err(e) = run.run(&sched) {
        panic!("{run}: {e}");
    }
}

#[test]
fn stray_harts_are_unissuable() {
    let mut smp = boot_system(&Boot::default()).expect("boot");
    let sched = Schedule::parse("h2:create").expect("parse");
    assert!(sched.run(&mut smp).is_err(), "`h2:create` issued");
    let no_harts = Boot {
        harts: 0,
        ..Boot::default()
    };
    assert_eq!(boot_system(&no_harts).err(), Some(BootError::Harts(0)));
}
