//! The exhaustive placement search prunes. On the profiled paper
//! applications' 8-node NoC placements it prices far fewer complete
//! assignments than the 8! = 40320 a full enumeration visits. The test
//! sits alone in its binary, so the global counter it reads moves only
//! with the designs it runs.

use hic::core::{design_custom, lattice, DesignConfig};
use hic::pipeline::stages;

#[test]
fn eight_node_placements_price_under_a_tenth_of_all_assignments() {
    const ALL: u64 = 40_320;
    let leaves = hic_obs::global().counter("noc.place.exhaustive_leaves");
    let mut eight_node = 0;
    for app in ["canny", "jpeg"] {
        let spec = stages::profile(None, false, app).unwrap().spec;
        for knobs in lattice() {
            let before = leaves.get();
            let plan = design_custom(&spec, &DesignConfig::default(), knobs).unwrap();
            let priced = leaves.get() - before;
            let Some(noc) = &plan.noc else {
                continue;
            };
            if noc.placement.slots.len() == 8 {
                eight_node += 1;
                assert!(
                    priced > 0 && priced < ALL / 10,
                    "{app} {knobs:?}: priced {priced} of {ALL} assignments"
                );
            }
        }
    }
    assert!(eight_node > 0, "no 8-node placement among canny/jpeg");
}
