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
    ("canny", "765ad7de14b7219a31f0438382863011"),
    ("jpeg", "869ee70c368e3177b0dc52b2d5d72f4d"),
    ("klt", "c451ca33bc592ffbf6259a3402a96970"),
    ("fluid", "dc57f556ecfc349332b73be55a554457"),
    ("gen:k=12,skew=0,seed=1", "643a18a18fc68687b3e08081ba54a69b"),
    ("gen:k=8,seed=5", "55fc347afc424af676a970dd59810d74"),
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
