//! Golden co-simulation results. Each constant is the `stable_hash_json`
//! of the full `CosimResult` (timings, cycle and packet counts, and the
//! heatmap at the default 1024-cycle window) that `profile` +
//! `design_variant` + `cosim` produce for a hybrid plan. Any change to
//! the flit-level engine that moves one delivery by one cycle, or one
//! flit in one heatmap window, fails here and names the job.
//!
//! The jobs are the paper's four apps, a 12-kernel generated graph, and
//! three comm-heavy 4-kernel graphs at 4, 8 and 16-byte flits — the
//! shape of the `noc-verify` benchmark, whose long wormholes stream for
//! many cycles through established paths.

use hic_core::{stable_hash_json, DesignConfig, Variant};
use hic_pipeline::stages;

const NOC_VERIFY: &str = "gen:k=4,bytes=32768,comm=0,skew=0,hostio=0";

/// (app, flit payload bytes, expected hash).
const GOLDEN: [(&str, u32, &str); 14] = [
    ("canny", 4, "aa2fdaabf89b99a62ada629de57d1787"),
    ("jpeg", 4, "bb92847820e996a2193084ef83f854b4"),
    ("klt", 4, "ff07995d8bab3472aa60dfabbfe58a54"),
    ("fluid", 4, "4134b368c7bdd43a83ed78ca43eba14b"),
    (
        "gen:k=12,skew=0,seed=1",
        4,
        "5ca0da6c86c3d77d408ca5b411757089",
    ),
    ("1", 4, "c152b2740cb046b22fc4a994befae8c9"),
    ("1", 8, "b71e6f67637c4336e06d6c8c07487693"),
    ("1", 16, "3855b6dcc71b422f24d4053755c609f3"),
    ("2", 4, "778f8550ca5b39790f4e5dab535c88c9"),
    ("2", 8, "630b50996f0ed88de5c6d372cb98c913"),
    ("2", 16, "68ef60aae9d98ecb3d7209d6ec251cdf"),
    ("3", 4, "437b4b845187e06ebe246d1edcbecf41"),
    ("3", 8, "2bd1859b918153b882f68d87830c9844"),
    ("3", 16, "b96d6fbaf5fa50fe73ee1ab988e72f55"),
];

/// A bare seed stands for the `noc-verify`-shaped graph with that seed.
fn source(app: &str) -> String {
    if app.starts_with(|c: char| c.is_ascii_digit()) {
        format!("{NOC_VERIFY},seed={app}")
    } else {
        app.to_string()
    }
}

#[test]
fn cosim_results_match_their_golden_hashes() {
    let mut drifted = Vec::new();
    for (app, flit_payload, want) in GOLDEN {
        let app = source(app);
        let cfg = DesignConfig {
            flit_payload,
            ..DesignConfig::default()
        };
        let profile = stages::profile(None, false, &app).unwrap();
        let plan =
            stages::design_variant(None, false, &profile.spec, &cfg, Variant::Hybrid).unwrap();
        let sim = stages::cosim(None, false, &plan).unwrap();
        assert!(
            sim.heatmap.is_some() || plan.noc.is_none(),
            "{app}: a NoC plan co-simulates with its heatmap"
        );
        let got = stable_hash_json(&sim).to_hex();
        if got != want {
            drifted.push(format!(
                "{app} @ {flit_payload} B/flit: got {got}, want {want}"
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "co-simulation results drifted:\n{}",
        drifted.join("\n")
    );
}
