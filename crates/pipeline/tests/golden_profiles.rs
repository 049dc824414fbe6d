//! Golden profiles. Each constant is the `stable_hash_json` of the
//! `ProfileArtifact` that `profile` produces for an app: the measured
//! `AppSpec` and the function-level `CommGraph`, bytes and UMAs of every
//! edge included. A change to the profiler's attribution, to an
//! instrumented app or to the `gen:` trace synthesis fails here, naming
//! the app, before it shows up as a moved plan in `golden_plans.rs`.

use hic_core::stable_hash_json;
use hic_pipeline::stages;

const GOLDEN: [(&str, &str); 6] = [
    ("canny", "40dde7a0e1a8815216960e0085345486"),
    ("jpeg", "688de4386362bc24680db834cf24ca7c"),
    ("klt", "2d92bb91f20e73c013c4dd470e504ab4"),
    ("fluid", "875287c52214c44b70ec0346cbf42d20"),
    ("gen:k=12,skew=0,seed=1", "69cbd61d432074a03a1ee372d85bb4e3"),
    ("gen:k=8,seed=5", "9be807d4e2cf63909034871eb3ad0f67"),
];

#[test]
fn profiles_match_their_golden_hashes() {
    let mut drifted = Vec::new();
    for (app, want) in GOLDEN {
        let profile = stages::profile(None, false, app).unwrap();
        let got = stable_hash_json(&profile).to_hex();
        if got != want {
            drifted.push(format!("{app}: got {got}, want {want}"));
        }
    }
    assert!(
        drifted.is_empty(),
        "profiles drifted:\n{}",
        drifted.join("\n")
    );
}
