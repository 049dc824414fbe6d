//! End-to-end: `hic design`, `hic estimate` and `hic simulate` resolve
//! their argument as an app source, like every other command — a seeded
//! `gen:` workload or a built-in profiled app, not only a spec file.

use hic_cli::dispatch;

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

#[test]
fn design_takes_a_gen_source() {
    let dir = std::env::temp_dir().join(format!("hic_cli_app_sources_{}", std::process::id()));
    let out = dispatch(&argv(&format!(
        "design gen:k=8,seed=1 --json --cache-dir {}",
        dir.display()
    )))
    .expect("design gen: runs");
    let _ = std::fs::remove_dir_all(&dir);
    let v = serde_json::parse(&out).expect("plan summary is JSON");
    assert_eq!(v["variant"], "hybrid");
    let kernels = v["kernels"].as_map().expect("kernels object");
    assert!(kernels.len() >= 8, "{out}");
}

#[test]
fn estimate_and_simulate_take_a_builtin_app() {
    let out = dispatch(&argv("estimate jpeg")).expect("estimate jpeg runs");
    assert!(out.starts_with("application: jpeg (4 kernels)"), "{out}");
    for variant in ["baseline", "hybrid", "noc-only"] {
        assert!(out.contains(variant), "{out}");
    }
    let out = dispatch(&argv("simulate jpeg --frames 2")).expect("simulate jpeg runs");
    assert!(out.starts_with("2 frames, makespan"), "{out}");
}
