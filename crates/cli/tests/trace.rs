//! End-to-end: `hic trace canny` records the whole pipeline and writes a
//! Chrome trace-event JSON document that any viewer can load — every
//! event carries the required keys, and all three instrumented
//! subsystems (NoC packet flows, bus arbitration windows, batch job
//! spans) are present. The test drives the built binary, so argv parsing
//! and the exit status are covered too.

use std::process::Command;

#[test]
fn trace_canny_emits_valid_chrome_json_with_all_subsystems() {
    let dir = std::env::temp_dir().join(format!("hic-cli-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join("trace.json");

    let out = Command::new(env!("CARGO_BIN_EXE_hic"))
        .args(["trace", "canny", "-o"])
        .arg(&out_path)
        .arg("--cache-dir")
        .arg(dir.join("cache"))
        .output()
        .expect("hic runs");
    assert!(
        out.status.success(),
        "hic trace failed ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let summary = String::from_utf8_lossy(&out.stdout);
    assert!(
        summary.contains("wrote"),
        "summary reports the file:\n{summary}"
    );
    assert!(
        summary.contains("slowest flows"),
        "summary ranks packets:\n{summary}"
    );

    let text = std::fs::read_to_string(&out_path).unwrap();
    let v = serde_json::parse(&text).expect("chrome trace JSON parses");
    assert_eq!(v["schema"].as_str().unwrap(), "hic-trace/v1");
    assert_eq!(v["displayTimeUnit"].as_str().unwrap(), "ms");
    let events = v["traceEvents"].as_seq().expect("traceEvents array");
    assert!(!events.is_empty(), "trace must contain events");

    // Every record carries the keys Chrome/Perfetto require.
    for e in events {
        for key in ["ph", "ts", "pid", "tid", "name"] {
            assert!(e.get(key).is_some(), "event missing '{key}': {e:?}");
        }
    }

    let has = |ph: &str, cat: &str| {
        events.iter().any(|e| {
            e["ph"].as_str() == Some(ph) && e.get("cat").and_then(|c| c.as_str()) == Some(cat)
        })
    };
    // NoC packets export as async-nestable flows with a causal id.
    assert!(has("b", "noc"), "NoC packet flow begins");
    assert!(has("e", "noc"), "NoC packet flow ends");
    assert!(
        events
            .iter()
            .any(|e| e["ph"].as_str() == Some("b") && e.get("id").is_some()),
        "flow events carry causal ids"
    );
    // Bus grants are retrospective complete slices with a duration.
    assert!(has("X", "bus"), "bus grant windows");
    // Batch jobs are complete stage slices on worker lanes.
    assert!(has("X", "batch"), "batch job stage slices");

    let _ = std::fs::remove_dir_all(&dir);
}
