//! `repro all` is golden: its stdout — every table of E1–E4, A1 and A2 —
//! is a committed file, and this test compares a fresh run with it byte
//! for byte. Every figure is virtual time or a count, so the output is the
//! same on any machine.
//!
//! A change that moves a cell re-records the file and says which cell
//! moved and why, as a re-record of `determinism.rs`'s golden table does.

use std::process::Command;

/// The recorded output of `repro all`.
const GOLDEN: &str = include_str!("golden/repro_all.md");

#[test]
fn repro_all_matches_the_golden_file() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("all")
        .output()
        .expect("repro runs");
    let stdout = String::from_utf8(out.stdout).expect("repro prints UTF-8");
    assert!(
        out.status.success(),
        "repro all failed ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout == GOLDEN,
        "repro all differs from tests/golden/repro_all.md; if the change is intended, \
         re-record it with `cargo run --release -p gcs-bench --bin repro -- all > \
         crates/bench/tests/golden/repro_all.md` and give the reason for every moved cell. \
         The new output:\n{stdout}"
    );
}
