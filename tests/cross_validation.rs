//! Cross-cutting integration: flit-level co-simulation vs the analytic
//! model on every paper application, and multi-frame streaming
//! consistency.

use hic::apps::calib;
use hic::core::{design, DesignConfig, Variant};
use hic::sim::{cosimulate, simulate, simulate_runs, PowerModel};

#[test]
fn cosim_brackets_analytic_on_every_app() {
    // Flit-level transfers can only add time over the full-hiding model,
    // and with the default 32-bit links the excess stays bounded on the
    // paper workloads.
    let cfg = DesignConfig::default();
    for app in calib::all() {
        let plan = design(&app, &cfg, Variant::Hybrid).expect("fits");
        let res = cosimulate(&plan);
        let s = res.slowdown_vs_analytic();
        assert!(s >= 0.98, "{}: {s}", app.name);
        assert!(s < 1.6, "{}: flit-level blowup {s}", app.name);
    }
}

#[test]
fn wide_links_close_the_cosim_gap_everywhere() {
    let cfg = DesignConfig {
        flit_payload: 32,
        ..DesignConfig::default()
    };
    for app in calib::all() {
        let plan = design(&app, &cfg, Variant::Hybrid).expect("fits");
        let res = cosimulate(&plan);
        assert!(
            res.slowdown_vs_analytic() < 1.12,
            "{}: {}",
            app.name,
            res.slowdown_vs_analytic()
        );
    }
}

#[test]
fn streaming_interval_never_exceeds_single_frame_latency() {
    let cfg = DesignConfig::default();
    for app in calib::all() {
        let plan = design(&app, &cfg, Variant::Hybrid).expect("fits");
        let one = simulate(&plan).app_time;
        let runs = simulate_runs(&plan, 12);
        assert!(
            runs.steady_interval <= one,
            "{}: interval {} vs single {}",
            app.name,
            runs.steady_interval,
            one
        );
        // Total makespan is consistent with the per-frame records.
        assert_eq!(runs.frame_done.len(), 12);
        assert_eq!(runs.makespan, *runs.frame_done.last().unwrap());
    }
}

#[test]
fn energy_model_tracks_cosim_times_consistently() {
    // Energy via the co-simulated time is ≥ energy via the analytic time
    // (same power, more time).
    let cfg = DesignConfig::default();
    let power = PowerModel::ml510_default();
    let app = calib::jpeg();
    let plan = design(&app, &cfg, Variant::Hybrid).unwrap();
    let res = cosimulate(&plan);
    let r = plan.resources().total();
    let e_cosim = power.energy_j(r, res.app_time);
    let e_analytic = power.energy_j(r, simulate(&plan).app_time);
    assert!(e_cosim >= e_analytic);
}
