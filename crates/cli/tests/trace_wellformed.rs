//! `hic trace canny` writes a well-formed trace: the summary (which runs
//! `trace::validate` over the drained events) carries no warning, and
//! the batch lanes hold one complete stage slice per pipeline stage.
//!
//! A file of its own: tracing runs through the process-global tracer,
//! which another trace in the same test binary would interleave with.

use hic_cli::{run, CacheOpts, Command, TraceMode};

#[test]
fn trace_canny_validates_and_has_batch_stage_slices() {
    let dir = std::env::temp_dir().join(format!("hic-cli-trace-ok-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join("trace.json");

    let summary = run(Command::Trace {
        app: "canny".into(),
        mode: TraceMode::All,
        sample: 1,
        out: out_path.to_string_lossy().into_owned(),
        cache: CacheOpts {
            dir: Some(dir.join("cache").to_string_lossy().into_owned()),
            read: true,
        },
    })
    .expect("trace runs");
    assert!(!summary.contains("warning:"), "{summary}");
    assert!(summary.contains("critical path (batch):"), "{summary}");

    let text = std::fs::read_to_string(&out_path).unwrap();
    let v = serde_json::parse(&text).expect("chrome trace JSON parses");
    let events = v["traceEvents"].as_seq().expect("traceEvents array");
    for stage in ["profile", "design", "cosim"] {
        assert!(
            events.iter().any(|e| {
                e["ph"].as_str() == Some("X")
                    && e.get("cat").and_then(|c| c.as_str()) == Some("batch")
                    && e["name"]
                        .as_str()
                        .is_some_and(|n| n.split(' ').next() == Some(stage))
            }),
            "no batch X slice for {stage}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
