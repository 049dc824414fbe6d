//! Second property suite: the knob lattice, plan invariants, the
//! synthetic generator and flit-level co-simulation hold under
//! randomized inputs.

use hic::core::{design_custom, DesignConfig, DesignKnobs, Variant};
use hic::fabric::synthetic::{generate, Shape, SyntheticSpec};
use hic::sim::{cosimulate, simulate};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Chain),
        Just(Shape::FanOut),
        Just(Shape::Diamond),
        (5u8..80).prop_map(|density_pct| Shape::Random { density_pct }),
    ]
}

fn arb_knobs() -> impl Strategy<Value = DesignKnobs> {
    (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(duplication, shared_memory, noc, parallel, adaptive_mapping)| DesignKnobs {
                duplication,
                shared_memory,
                noc,
                parallel,
                // Blanket mapping only means something with a NoC; keep the
                // combination meaningful.
                adaptive_mapping: adaptive_mapping || !noc,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_knob_subset_yields_a_valid_plan(
        shape in arb_shape(),
        kernels in 2usize..8,
        seed in 0u64..1_000,
        knobs in arb_knobs(),
    ) {
        let spec = SyntheticSpec { shape, kernels, ..SyntheticSpec::default() };
        let app = generate(&spec, &mut StdRng::seed_from_u64(seed));
        let cfg = DesignConfig::default();
        let plan = design_custom(&app, &cfg, knobs).expect("generated apps fit the budget");
        plan.check_invariants().expect("plan invariants");
        // The simulator accepts every valid plan.
        let run = simulate(&plan);
        prop_assert!(run.kernel_time > hic::fabric::Time::ZERO);
        // Mechanisms that are off leave no trace.
        if !knobs.shared_memory {
            prop_assert!(plan.sm_pairs.is_empty());
        }
        if !knobs.noc {
            prop_assert!(plan.noc.is_none());
        }
        if !knobs.parallel {
            prop_assert!(plan.parallel.is_empty());
        }
        if !knobs.duplication {
            prop_assert!(plan.duplicated.is_empty());
        }
    }

    #[test]
    fn generator_apps_always_design_and_match_across_variants(
        shape in arb_shape(),
        kernels in 2usize..7,
        seed in 0u64..500,
    ) {
        let spec = SyntheticSpec { shape, kernels, ..SyntheticSpec::default() };
        let app = generate(&spec, &mut StdRng::seed_from_u64(seed));
        let cfg = DesignConfig::default();
        let base = hic::core::design(&app, &cfg, Variant::Baseline).unwrap();
        let hyb = hic::core::design(&app, &cfg, Variant::Hybrid).unwrap();
        base.check_invariants().unwrap();
        hyb.check_invariants().unwrap();
        prop_assert!(hyb.estimate().kernels <= base.estimate().kernels);
    }

    #[test]
    fn cosim_never_beats_the_hiding_model(
        kernels in 3usize..6,
        seed in 0u64..200,
    ) {
        // Small chains keep the flit simulation fast.
        let spec = SyntheticSpec {
            shape: Shape::Chain,
            kernels,
            mean_edge_bytes: 16_384,
            ..SyntheticSpec::default()
        };
        let app = generate(&spec, &mut StdRng::seed_from_u64(seed));
        let cfg = DesignConfig::default();
        let plan = hic::core::design(&app, &cfg, Variant::Hybrid).unwrap();
        let res = cosimulate(&plan);
        // Small messages can finish streaming before their producer does;
        // the analytic model still charges a tail residual then, so the
        // co-simulation may come out marginally *faster* — but never by
        // more than those residuals.
        prop_assert!(res.slowdown_vs_analytic() >= 0.95, "{}", res.slowdown_vs_analytic());
    }
}
