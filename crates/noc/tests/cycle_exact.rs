//! The fast path's contract: not one observable cycle may differ from the
//! original stepper. Randomized traffic — bursts of sends interleaved with
//! stepping, varied packet sizes including
//! zero-byte and multi-flit worms — runs through the reference and the
//! optimized network, and every per-packet delivery record must match
//! exactly, including the delivery cycle.

use hic_noc::reference::{
    bursty_schedule, drive_schedule, hotspot_schedule, schedule_hybrid, ReferenceNetwork,
};
use hic_noc::{DeliveredPacket, HybridNetwork, Mesh, Network, NocConfig};
use proptest::prelude::*;

fn by_id(log: &[DeliveredPacket]) -> Vec<DeliveredPacket> {
    // Within one cycle the two implementations may log deliveries in a
    // different order; per-packet contents must still agree exactly.
    let mut v = log.to_vec();
    v.sort_by_key(|p| p.id);
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fast_path_matches_reference_cycle_for_cycle(
        // (src node, dst node, payload bytes, cycles to step afterwards)
        sends in proptest::collection::vec(
            (0usize..16, 0usize..16, 0u64..96, 0u64..5),
            1..60,
        ),
    ) {
        let mesh = Mesh::new(4, 4);
        let cfg = NocConfig::paper_default(mesh);
        let mut fast = Network::new(cfg);
        let mut slow = ReferenceNetwork::new(cfg);

        for &(s, d, bytes, gap) in &sends {
            let (src, dst) = (mesh.coord(s), mesh.coord(d));
            let fid = fast.send(src, dst, bytes);
            let sid = slow.send(src, dst, bytes);
            prop_assert_eq!(fid, sid);
            for _ in 0..gap {
                fast.step();
                slow.step();
                prop_assert_eq!(fast.cycle(), slow.cycle());
            }
        }
        fast.run_until_drained(2_000_000).expect("fast path drains");
        // Step the reference to the exact same cycle so trailing idle
        // cycles cannot hide a divergence.
        while slow.cycle() < fast.cycle() {
            slow.step();
        }
        prop_assert!(slow.is_drained(), "reference must drain by the same cycle");

        let f = by_id(fast.delivered());
        let s = by_id(slow.delivered());
        prop_assert_eq!(f.len(), sends.len());
        prop_assert_eq!(&f, &s);

        // The streaming statistics agree with a scan of the reference log.
        let stats = fast.stats();
        prop_assert_eq!(stats.delivered(), s.len() as u64);
        prop_assert_eq!(stats.latency_sum(), s.iter().map(|p| p.latency()).sum::<u64>());
        prop_assert_eq!(
            stats.max_latency(),
            s.iter().map(|p| p.latency()).max().unwrap_or(0)
        );
        prop_assert_eq!(stats.bytes(), s.iter().map(|p| p.bytes).sum::<u64>());
    }

    #[test]
    fn fast_path_matches_reference_under_sustained_load(
        seed in 0u64..1_000,
        offered in prop_oneof![Just(0.05f64), Just(0.3), Just(0.8)],
    ) {
        // Saturating Bernoulli traffic — the regime where the active set
        // covers the whole mesh and backpressure dominates.
        let mesh = Mesh::new(4, 4);
        let cfg = NocConfig::paper_default(mesh);
        let mut fast = Network::new(cfg);
        let mut slow = ReferenceNetwork::new(cfg);
        hic_noc::reference::drive_uniform(&mut fast, mesh, offered, 16, cfg.flit_payload, 150, seed);
        hic_noc::reference::drive_uniform(&mut slow, mesh, offered, 16, cfg.flit_payload, 150, seed);
        fast.run_until_drained(2_000_000).expect("fast path drains");
        while slow.cycle() < fast.cycle() {
            slow.step();
        }
        prop_assert!(slow.is_drained());
        prop_assert_eq!(by_id(fast.delivered()), by_id(slow.delivered()));
    }

    #[test]
    fn hybrid_matches_reference_on_bursty_idle_heavy_traffic(
        seed in 0u64..1_000,
        burst in 1u64..6,
        gap in 50u64..4_000,
    ) {
        // Long quiescent gaps between injection bursts: the regime where
        // the hybrid engine skips instead of stepping. Every skip boundary
        // must land on exactly the cycle a stepping driver would reach.
        let mesh = Mesh::new(4, 4);
        let cfg = NocConfig::paper_default(mesh);
        let period = burst + gap;
        let cycles = period * 4;
        let schedule = bursty_schedule(mesh, 0.3, 16, cfg.flit_payload, burst, period, cycles, seed);

        let mut hybrid = HybridNetwork::new(cfg);
        schedule_hybrid(&mut hybrid, &schedule, 16);
        hybrid.run_until_drained(2_000_000).expect("hybrid drains");
        // The engine really skipped the gaps rather than stepping them.
        if !schedule.is_empty() {
            prop_assert!(hybrid.skip_stats().skipped_cycles > 0);
        }

        let mut slow = ReferenceNetwork::new(cfg);
        drive_schedule(&mut slow, &schedule, 16, cycles);
        while slow.cycle() < hybrid.cycle() {
            slow.step();
        }
        prop_assert!(slow.is_drained(), "reference must drain by the same cycle");
        prop_assert_eq!(by_id(hybrid.delivered()), by_id(slow.delivered()));
        let stats = hybrid.stats();
        prop_assert_eq!(stats.delivered(), slow.delivered().len() as u64);
        prop_assert_eq!(
            stats.latency_sum(),
            slow.delivered().iter().map(|p| p.latency()).sum::<u64>()
        );
    }

    #[test]
    fn hybrid_matches_reference_on_hotspot_skew(
        seed in 0u64..1_000,
        bias in prop_oneof![Just(0.3f64), Just(0.7)],
        hotspot in 0usize..16,
    ) {
        // Hotspot congestion piles worms onto one router: FIFOs around it
        // stay full and wormhole locks are held for many cycles, so
        // backpressure dominates while the engine interleaves live steps
        // with skips.
        let mesh = Mesh::new(4, 4);
        let cfg = NocConfig::paper_default(mesh);
        let schedule = hotspot_schedule(
            mesh, 0.25, 32, cfg.flit_payload, mesh.coord(hotspot), bias, 120, seed,
        );

        let mut hybrid = HybridNetwork::new(cfg);
        schedule_hybrid(&mut hybrid, &schedule, 32);
        hybrid.run_until_drained(2_000_000).expect("hybrid drains");

        let mut slow = ReferenceNetwork::new(cfg);
        drive_schedule(&mut slow, &schedule, 32, 120);
        while slow.cycle() < hybrid.cycle() {
            slow.step();
        }
        prop_assert!(slow.is_drained(), "reference must drain by the same cycle");
        prop_assert_eq!(by_id(hybrid.delivered()), by_id(slow.delivered()));
    }
}

/// Regression for the `advance_idle_to` hardening: misuse reports an
/// error instead of aborting the process, the past saturates, and a legal
/// jump still lands exactly on target.
#[test]
fn advance_idle_to_is_probe_safe() {
    let mesh = Mesh::new(4, 4);
    let cfg = NocConfig::paper_default(mesh);
    let mut net = Network::new(cfg);

    // Legal jump from a drained network.
    assert_eq!(net.advance_idle_to(1_000), Ok(1_000));
    assert_eq!(net.cycle(), 1_000);

    // A target in the past saturates instead of rewinding.
    assert_eq!(net.advance_idle_to(10), Ok(1_000));
    assert_eq!(net.cycle(), 1_000);

    // With traffic in flight the jump is refused, the clock untouched,
    // and the caller can fall back to stepping.
    net.send(mesh.coord(0), mesh.coord(15), 64);
    let err = net
        .advance_idle_to(2_000)
        .expect_err("in-flight must refuse");
    assert_eq!(err.inflight, 1);
    assert_eq!(err.at, 1_000);
    assert_eq!(net.cycle(), 1_000);
    net.run_until_drained(10_000).expect("drains");
    assert_eq!(net.delivered().len(), 1);
}
