//! Golden hybrid plans. Each constant is the `stable_hash_json` of the
//! hybrid `PlanArtifact` that `profile` + `design_variant` produce for an
//! app under the default design config. The plan holds the NoC placement,
//! so a change to the placement search that moves any node on any of
//! these apps fails here, naming the app. The paper's four apps put 4 or
//! 6 nodes on the NoC and are placed exhaustively; the two `gen:` graphs
//! put 36 and 22 and are placed greedily.

use hic_core::{stable_hash_json, DesignConfig, PlanArtifact, Variant};
use hic_pipeline::stages;

const GOLDEN: [(&str, &str); 6] = [
    ("canny", "43573a423284d74e953c227f4bb2de49"),
    ("jpeg", "df88499a81026d03fff55fc8349ce59b"),
    ("klt", "f6821f9cc7c5e26c3dd36a9493b62934"),
    ("fluid", "6c22a9a891c143942f760e6735956229"),
    ("gen:k=12,skew=0,seed=1", "c35e9a5fd8d38f19963ca80cbb45b397"),
    ("gen:k=8,seed=5", "d96de868856097a8cf4a607892998bda"),
];

#[test]
fn hybrid_plans_match_their_golden_hashes() {
    let mut drifted = Vec::new();
    for (app, want) in GOLDEN {
        let profile = stages::profile(None, false, app).unwrap();
        let plan = stages::design_variant(
            None,
            false,
            &profile.spec,
            &DesignConfig::default(),
            Variant::Hybrid,
        )
        .unwrap();
        let got = stable_hash_json(&PlanArtifact::from(&plan)).to_hex();
        if got != want {
            drifted.push(format!("{app}: got {got}, want {want}"));
        }
    }
    assert!(
        drifted.is_empty(),
        "hybrid plans drifted:\n{}",
        drifted.join("\n")
    );
}
