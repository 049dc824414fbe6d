//! `repro <name> --json` prints exactly one JSON document for every
//! figure and table, and the plain `repro all` report stays
//! byte-for-byte what it has been.

use std::process::Command;

fn repro(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "repro {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

#[test]
fn every_figure_and_table_prints_one_json_document() {
    for name in [
        "fig4",
        "table2",
        "fig5",
        "fig6",
        "table3",
        "fig7",
        "table4",
        "fig8",
        "fig9",
        "ablations",
    ] {
        let stdout = repro(&[name, "--json"]);
        if let Err(e) = serde_json::parse(&stdout) {
            panic!("repro {name} --json is not one JSON value ({e}):\n{stdout}");
        }
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn plain_repro_all_report_is_unchanged() {
    let stdout = repro(&["all"]);
    assert_eq!(
        (stdout.len(), fnv1a(stdout.as_bytes())),
        (5863, 0x6904_d0ab_99ac_9fc9),
        "repro all drifted:\n{stdout}"
    );
}
