//! The hybrid engine scales to large meshes: a 64×64 bursty run drains,
//! delivers every scheduled packet, is dominated by skipped cycles, and
//! moves real traffic through the routers. A scaling proof, not a
//! wall-clock benchmark.

use hic_noc::{
    schedule, schedule_hybrid, Burst, HybridNetwork, Mesh, NocConfig, Pattern, RecordMode,
};

#[test]
fn hybrid_engine_drains_a_64x64_bursty_run() {
    let mesh = Mesh::new(64, 64);
    let cfg = NocConfig::paper_default(mesh);
    let burst = Burst {
        on: 4,
        period: 10_000,
    };
    let schedule = schedule(cfg, Pattern::Uniform, 0.1, 16, Some(burst), 20_000, 0x5CA1E);
    let mut net = HybridNetwork::new(cfg);
    net.set_record_mode(RecordMode::Stats);
    schedule_hybrid(&mut net, &schedule, 16);
    net.run_until_drained(10_000_000)
        .expect("64x64 hybrid run must drain");

    let skip = net.skip_stats();
    let m = net.metrics();
    assert!(net.is_drained());
    assert_eq!(
        net.stats().delivered() as usize,
        schedule.len(),
        "every scheduled packet must be delivered"
    );
    assert!(net.stats().delivered() > 0, "schedule produced no traffic");
    assert!(
        skip.skipped_cycles > skip.stepped_cycles + skip.bulk_cycles,
        "idle-heavy schedule must be dominated by skips: {skip:?}"
    );
    assert!(
        m.forwarded_flits > 0 && m.fifo_high_water >= 1,
        "stats sanity: traffic must have crossed routers"
    );
}
