//! End-to-end: `hic heatmap` co-simulates an app and renders the
//! `hic-heatmap/v1` spatial report in all three formats, and the
//! bottleneck report names a link that actually exists in the mesh.

use hic_cli::{run, CacheOpts, Command, HeatmapEmit};

fn heatmap(app: &str, emit: HeatmapEmit) -> String {
    run(Command::Heatmap {
        app: app.into(),
        window: None,
        emit,
        cache: CacheOpts::disabled(),
    })
    .expect("heatmap runs")
}

#[test]
fn heatmap_json_is_schema_valid_and_bottlenecks_name_real_links() {
    for app in ["jpeg", "gen:k=6,seed=7"] {
        let out = heatmap(app, HeatmapEmit::Json);
        let v = serde_json::parse(&out).expect("heatmap is JSON");
        assert_eq!(v["schema"], "hic-heatmap/v1", "{app}");
        let w = v["mesh"]["w"].as_u64().expect("mesh width") as i64;
        let h = v["mesh"]["h"].as_u64().expect("mesh height") as i64;
        assert!(w >= 1 && h >= 1, "{app}");
        let links = v["links"].as_seq().expect("links array");
        assert!(!links.is_empty(), "{app} cosim crosses links: {out}");
        let flows = v["flows"].as_seq().expect("flows array");
        assert!(!flows.is_empty(), "{app} cosim has kernel flows: {out}");
        let bottlenecks = v["bottlenecks"].as_seq().expect("bottlenecks array");
        assert!(!bottlenecks.is_empty(), "{app}: {out}");
        // Every bottleneck link's endpoints lie inside the mesh and are one
        // hop apart — the report names real links, not fabrications.
        for b in bottlenecks {
            let c = |node: &str, axis: &str| b["link"][node][axis].as_u64().unwrap() as i64;
            let (fx, fy) = (c("from", "x"), c("from", "y"));
            let (tx, ty) = (c("to", "x"), c("to", "y"));
            assert!(fx < w && fy < h && tx < w && ty < h, "{app}: {b:?}");
            assert_eq!(
                (fx - tx).abs() + (fy - ty).abs(),
                1,
                "{app}: one hop: {b:?}"
            );
            let verdict = b["verdict"].as_str().unwrap();
            assert!(verdict.contains("utilization"), "{app}: {verdict}");
        }
        assert!(!v["verdict"].as_str().unwrap().is_empty(), "{app}: {out}");
    }
}

#[test]
fn heatmap_ansi_and_dot_render_for_builtin_and_generated_sources() {
    for app in ["jpeg", "gen:k=6,seed=7"] {
        let ansi = heatmap(app, HeatmapEmit::Ansi);
        assert!(ansi.contains("hic-heatmap/v1"), "{ansi}");
        assert!(ansi.contains("windows of"), "{ansi}");
        let dot = heatmap(app, HeatmapEmit::Dot);
        assert!(dot.starts_with("digraph heatmap"), "{dot}");
        assert!(dot.contains("n0_0"), "{dot}");
    }
}

#[test]
fn heatmap_window_flag_changes_the_report_windowing() {
    let out = run(Command::Heatmap {
        app: "gen:k=6,seed=3".into(),
        window: Some(128),
        emit: HeatmapEmit::Json,
        cache: CacheOpts::disabled(),
    })
    .expect("heatmap runs");
    let v = serde_json::parse(&out).expect("heatmap is JSON");
    assert_eq!(v["window"].as_u64(), Some(128), "{out}");
    assert!(v["windows"].as_u64().unwrap() >= 1, "{out}");
}
