//! `hpmp-verify` refuses flag values it cannot act on: exit 2 and a
//! message naming the flag or value, never a panic.

use std::process::Command;

fn verify(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hpmp-verify"))
        .args(args)
        .output()
        .expect("hpmp-verify runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unbootable_flags_exit_2_and_name_the_flag() {
    for (args, flag) in [
        (["--harts", "0"], "--harts"),
        (["--harts", "70000"], "--harts"),
        (["--ram-mib", "64"], "--ram-mib"),
    ] {
        let (code, err) = verify(&["bmc", args[0], args[1], "--depth", "1", "--flavor", "pmp"]);
        assert_eq!(code, Some(2), "{args:?}: {err}");
        assert!(err.contains(flag), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn unknown_fuzz_target_exits_2() {
    let (code, err) = verify(&["fuzz", "--target", "nonsense", "--iters", "1"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("`nonsense`"), "{err}");
}
