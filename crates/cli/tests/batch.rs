//! End-to-end: `hic batch jpeg canny --json` through the binary, run cold
//! and then warm over one artifact store.

use std::path::Path;
use std::process::Command;

fn batch_json(store: &Path) -> serde_json::Value {
    let out = Command::new(env!("CARGO_BIN_EXE_hic"))
        .args(["batch", "jpeg", "canny", "--json", "--cache-dir"])
        .arg(store)
        .output()
        .expect("hic runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    serde_json::parse(std::str::from_utf8(&out.stdout).expect("UTF-8 stdout"))
        .expect("stdout parses as JSON")
}

#[test]
fn warm_binary_batch_is_all_cache_hits() {
    let store = std::env::temp_dir().join(format!("hic-batch-bin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let cold = batch_json(&store);
    let warm = batch_json(&store);
    let _ = std::fs::remove_dir_all(&store);

    for doc in [&cold, &warm] {
        assert_eq!(doc["schema"], "hic-batch/v1");
        assert_eq!(doc["apps"].as_seq().expect("apps list").len(), 2);
    }
    let count = |doc: &serde_json::Value, key: &str| doc["cache"][key].as_u64().unwrap();
    assert_eq!(count(&cold, "hits"), 0);
    assert!(count(&cold, "misses") > 0);
    assert!(count(&warm, "hits") > 0, "second run must hit the cache");
    assert_eq!(count(&warm, "misses"), 0, "second run recomputed");
    assert_eq!(cold["apps"], warm["apps"], "warm output must match cold");
}
