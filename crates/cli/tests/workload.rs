//! End-to-end: seeded `gen:` workloads and emitted memory-access traces
//! through the binary. Generated specs batch cold and then warm over one
//! artifact store, an emitted `gen:` trace replays to the same summary,
//! and `hic report` replays an emitted built-in trace.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh scratch directory for one test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("hic-workload-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run `hic <args> --cache-dir <store>`, assert it exits 0, and return
/// its stdout.
fn hic(args: &[&str], store: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hic"))
        .args(args)
        .arg("--cache-dir")
        .arg(store)
        .output()
        .expect("hic runs");
    assert!(
        out.status.success(),
        "hic {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

#[test]
fn generated_workloads_batch_deterministically_and_rerun_warm() {
    let dir = Scratch::new("batch");
    let store = dir.path("store");
    let summary = hic(&["gen", "gen:k=6,seed=11", "--summary"], &store);
    assert!(summary.contains("6 kernels"), "{summary}");

    let batch = || {
        let out = hic(
            &[
                "batch",
                "gen:k=6,seed=11",
                "gen:k=4,fanout=2,seed=3",
                "--json",
            ],
            &store,
        );
        serde_json::parse(&out).expect("stdout parses as JSON")
    };
    let cold = batch();
    let warm = batch();
    for doc in [&cold, &warm] {
        assert_eq!(doc["schema"], "hic-batch/v1");
        assert_eq!(doc["apps"].as_seq().expect("apps list").len(), 2);
    }
    let count = |doc: &serde_json::Value, key: &str| doc["cache"][key].as_u64().unwrap();
    assert!(count(&cold, "misses") > 0);
    assert!(count(&warm, "hits") > 0, "second run must hit the cache");
    assert_eq!(count(&warm, "misses"), 0, "second run recomputed");
    assert_eq!(cold["apps"], warm["apps"], "warm output must match cold");
}

#[test]
fn emitted_traces_replay_to_the_same_profile() {
    let dir = Scratch::new("replay");
    let store = dir.path("store");

    // A generated workload: the same kernel, edge and traffic numbers
    // whether profiled directly or round-tripped through its trace. The
    // text before the first `:` names the source, which differs.
    let trace = dir.path("gen.trace");
    let trace_arg = trace.to_str().expect("UTF-8 path");
    hic(
        &["gen", "gen:k=5,seed=42", "--emit-trace", "-o", trace_arg],
        &store,
    );
    let replayed = hic(&["gen", &format!("trace:{trace_arg}"), "--summary"], &store);
    let direct = hic(&["gen", "gen:k=5,seed=42", "--summary"], &store);
    let numbers = |s: &str| s.split_once(':').expect("summary has a ':'").1.to_string();
    assert_eq!(
        numbers(&replayed),
        numbers(&direct),
        "{replayed} vs {direct}"
    );

    // A built-in app: its emitted trace replays through `hic report`.
    let jpeg = dir.path("jpeg.trace");
    let jpeg_arg = jpeg.to_str().expect("UTF-8 path");
    hic(&["gen", "jpeg", "--emit-trace", "-o", jpeg_arg], &store);
    let report = hic(&["report", &format!("trace:{jpeg_arg}"), "--json"], &store);
    let v = serde_json::parse(&report).expect("stdout parses as JSON");
    let counters = v["counters"].as_map().expect("counters object");
    assert!(!counters.is_empty(), "replayed report must carry counters");
}
