//! End-to-end: `hic report jpeg --json` runs the whole pipeline and the
//! resulting snapshot is non-empty, schema-valid, and covers every metric
//! family the observability layer promises.

use hic_cli::{run, CacheOpts, Command};

#[test]
fn report_json_covers_every_metric_family() {
    let out = run(Command::Report {
        app: "jpeg".into(),
        json: true,
        metrics: false,
        cache: CacheOpts::disabled(),
    })
    .expect("report runs");

    let v: serde_json::Value = serde_json::parse(&out).expect("snapshot parses as JSON");
    assert_eq!(v["schema"], "hic-obs/v1");

    let counters = &v["counters"];
    assert!(
        !counters.as_map().expect("counters object").is_empty(),
        "snapshot must not be empty"
    );

    // Profiler: read/write/edge counts from the instrumented jpeg run.
    assert!(counters["profile.edges"].as_u64().unwrap() > 0);
    assert!(counters["profile.bytes.read"].as_u64().unwrap() > 0);
    assert!(counters["profile.bytes.written"].as_u64().unwrap() > 0);

    // Design: mechanism decisions taken for jpeg's hybrid plan.
    assert!(counters["design.runs"].as_u64().unwrap() >= 1);
    assert!(counters["design.noc_routers"].as_u64().unwrap() > 0);

    // Placement: the exhaustive search's priced assignments.
    assert!(counters["noc.place.exhaustive_leaves"].as_u64().unwrap() > 0);

    // NoC: link traffic and utilization from the co-simulated mesh.
    assert!(counters["noc.flits.forwarded"].as_u64().unwrap() > 0);
    // jpeg's 64-flit worms stream through established paths, so part of
    // the co-simulation advances in bulk.
    assert!(counters["noc.bulk_cycles"].as_u64().unwrap() > 0);
    let gauges = &v["gauges"];
    assert!(gauges.get("noc.link.util_mean_permille").is_some());
    assert!(gauges.get("noc.link.util_max_permille").is_some());

    // Bus: contention from replaying jpeg's host transfers.
    assert!(counters["bus.grants"].as_u64().unwrap() > 0);
    assert!(counters.get("bus.contended_rounds").is_some());
    assert!(counters.get("bus.wait_ps").is_some());

    // Design-stage timings arrive as span histograms ("<stage>.ns"), and
    // every serialized histogram keeps the bucket-sum invariant.
    let hists = &v["histograms"];
    for stage in [
        "design.duplication.ns",
        "design.shared_memory.ns",
        "design.mapping.ns",
        "design.placement.ns",
        "design.parallel.ns",
        "cosim.run.ns",
    ] {
        assert!(hists.get(stage).is_some(), "missing span {stage}");
    }
    for (name, h) in hists.as_map().expect("histograms object") {
        let count = h["count"].as_u64().unwrap();
        let bucket_sum: u64 = h["buckets"]
            .as_seq()
            .unwrap()
            .iter()
            .map(|b| b["count"].as_u64().unwrap())
            .sum();
        assert_eq!(bucket_sum, count, "bucket sum mismatch in {name:?}");
    }
}

#[test]
fn report_table_renders_the_same_families() {
    let out = run(Command::Report {
        app: "jpeg".into(),
        json: false,
        metrics: true,
        cache: CacheOpts::disabled(),
    })
    .expect("report runs");
    for needle in [
        "profile.edges",
        "design.runs",
        "noc.flits.forwarded",
        "bus.grants",
        "design.placement.ns",
    ] {
        assert!(out.contains(needle), "table missing {needle}:\n{out}");
    }
    // --metrics appends the busiest-link headline, naming coordinates
    // and the exit port of the hottest inter-router link.
    assert!(out.contains("busiest link: ("), "{out}");
    assert!(out.contains("flits\n"), "{out}");
}

/// The binary prints the same document: `hic report jpeg --json` exits 0
/// with a `hic-obs/v1` snapshot that carries every metric family.
#[test]
fn report_binary_prints_the_obs_snapshot() {
    let store = std::env::temp_dir().join(format!("hic-report-bin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hic"))
        .args(["report", "jpeg", "--json", "--cache-dir"])
        .arg(&store)
        .output()
        .expect("hic runs");
    let _ = std::fs::remove_dir_all(&store);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v = serde_json::parse(std::str::from_utf8(&out.stdout).expect("UTF-8 stdout"))
        .expect("stdout parses as JSON");
    assert_eq!(v["schema"], "hic-obs/v1");
    let counters = v["counters"].as_map().expect("counters object");
    assert!(!counters.is_empty(), "empty counters");
    for key in [
        "profile.edges",
        "design.runs",
        "noc.flits.forwarded",
        "bus.grants",
    ] {
        assert!(v["counters"].get(key).is_some(), "missing {key}");
    }
}
