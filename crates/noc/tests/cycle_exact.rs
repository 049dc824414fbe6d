//! The fast path's contract: not one observable cycle may differ from the
//! original stepper, and the bulk advance may not differ from stepping. Randomized traffic — bursts of sends interleaved with
//! stepping, varied packet sizes including
//! zero-byte and multi-flit worms — runs through the reference and the
//! optimized network, and every per-packet delivery record must match
//! exactly, including the delivery cycle.

use hic_noc::{
    drive_schedule, schedule, schedule_hybrid, Burst, DeliveredPacket, HybridNetwork, Mesh,
    Network, NocConfig, Pattern, ReferenceNetwork, SpatialConfig,
};
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
        let schedule = schedule(cfg, Pattern::Uniform, offered, 16, None, 150, seed);
        drive_schedule(&mut fast, &schedule, 16, 150);
        drive_schedule(&mut slow, &schedule, 16, 150);
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
        let burst = Burst { on: burst, period };
        let schedule = schedule(cfg, Pattern::Uniform, 0.3, 16, Some(burst), cycles, seed);

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
        let hotspot = Pattern::Hotspot { at: mesh.coord(hotspot), bias };
        let schedule = schedule(cfg, hotspot, 0.25, 32, None, 120, seed);

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

/// How the bulk twin is driven: each exercises a different stop rule of
/// the steady-wormhole advance.
#[derive(Debug, Clone, Copy)]
enum Runner {
    /// `run_until_drained` alone: bulk runs end at buckets and the budget.
    Drain,
    /// `run_to` in uneven chunks, so targets land inside steady runs.
    Chunks(u64),
    /// `run_until_delivery` until nothing is left, as co-simulation waits.
    Deliveries,
}

/// Everything observable about a finished run, for exact comparison.
#[derive(Debug, PartialEq)]
struct Observed {
    cycle: u64,
    delivered: Vec<DeliveredPacket>,
    stats: hic_noc::NocStats,
    links: Vec<[u64; 5]>,
    stalls: Vec<u64>,
    hwm: Vec<[u8; 5]>,
    windows: Vec<hic_noc::SpatialWindow>,
    flows:
        Option<std::collections::BTreeMap<(hic_noc::Coord, hic_noc::Coord), hic_noc::FlowTotals>>,
    metrics: hic_noc::NetMetrics,
    pulse: Vec<(String, u64, u64)>,
}

fn observe(net: &Network, reg: &hic_obs::Registry) -> Observed {
    let snap = reg.snapshot();
    Observed {
        cycle: net.cycle(),
        delivered: by_id(net.delivered()),
        stats: net.stats().clone(),
        links: net.link_flit_matrix().to_vec(),
        stalls: net.stall_matrix().to_vec(),
        hwm: net.fifo_hwm_matrix(),
        windows: net.spatial_windows().to_vec(),
        flows: net.flow_totals(),
        metrics: net.metrics(),
        pulse: ["flits_per_kcycle", "active_routers", "inflight_packets"]
            .iter()
            .map(|g| {
                let v = snap.gauges[&format!("noc.live.{g}")];
                (g.to_string(), v.last, v.max)
            })
            .collect(),
    }
}

/// Run `sends` (cycle, src, dst, bytes) through a network stepped one
/// cycle at a time and through a bulk-advancing twin, with the same
/// spatial window and pulse period, and return both observations plus
/// the twin's bulk-cycle count.
fn step_vs_bulk(
    cfg: NocConfig,
    sends: &[(u64, usize, usize, u64)],
    window: u64,
    pulse: u64,
    runner: Runner,
) -> (Observed, Observed, u64) {
    let mesh = cfg.mesh;
    let mut sends = sends.to_vec();
    sends.sort_by_key(|s| s.0);

    let mut twin = HybridNetwork::new(cfg);
    twin.enable_spatial(SpatialConfig::windowed(window));
    let twin_reg = hic_obs::Registry::new();
    twin.attach_pulse(&twin_reg, "noc", pulse);
    for &(at, s, d, bytes) in &sends {
        twin.send_at(at, mesh.coord(s), mesh.coord(d), bytes);
    }
    match runner {
        Runner::Drain => {
            twin.run_until_drained(10_000_000).expect("twin drains");
        }
        Runner::Chunks(chunk) => {
            while !twin.is_drained() && twin.cycle() < 10_000_000 {
                twin.run_to(twin.cycle() + chunk);
                twin.run_to(twin.cycle() + 1);
            }
        }
        Runner::Deliveries => while twin.run_until_delivery(10_000_000) {},
    }
    assert!(twin.is_drained(), "the bulk twin drains");
    let end = twin.cycle();
    twin.flush_spatial_window();

    let mut net = Network::new(cfg);
    net.enable_spatial(SpatialConfig::windowed(window));
    let reg = hic_obs::Registry::new();
    net.attach_pulse(&reg, "noc", pulse);
    let mut next = 0;
    while net.cycle() < end {
        while next < sends.len() && sends[next].0 <= net.cycle() {
            let (_, s, d, bytes) = sends[next];
            net.send(mesh.coord(s), mesh.coord(d), bytes);
            next += 1;
        }
        net.step();
    }
    net.flush_spatial_window();
    (
        observe(&net, &reg),
        observe(twin.network(), &twin_reg),
        twin.skip_stats().bulk_cycles,
    )
}

/// (cycle, src, dst, bytes) sends over a 4×4 mesh: long worms (64–256
/// flits at 4-byte flits) mixed with short packets, a third of them
/// aimed at one hotspot so worms share links, stall heads and back up.
fn worm_sends() -> impl Strategy<Value = Vec<(u64, usize, usize, u64)>> {
    proptest::collection::vec(
        (
            0u64..600,
            0usize..16,
            prop_oneof![0usize..16, 0usize..16, Just(16usize)],
            prop_oneof![256u64..1025, 256u64..1025, 256u64..1025, 0u64..64],
        ),
        1..24,
    )
}

/// (send index, dst, bytes) single-flit packets to queue behind a worm
/// send: zero-byte `HeadTail`s and one-flit messages (1–4 bytes).
fn chaser_sends() -> impl Strategy<Value = Vec<(usize, usize, u64)>> {
    proptest::collection::vec(
        (0usize..24, 0usize..16, prop_oneof![Just(0u64), 1u64..5]),
        0..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bulk_advance_matches_stepping_on_long_worms(
        sends in worm_sends(),
        chasers in chaser_sends(),
        hotspot in 0usize..16,
        buffer_flits in 1usize..6,
        flit_payload in prop_oneof![Just(4u32), Just(4u32), Just(4u32), Just(8u32)],
        window in 5u64..48,
        pulse in 2u64..40,
        runner in prop_oneof![
            Just(Runner::Drain),
            (8u64..200).prop_map(Runner::Chunks),
            Just(Runner::Deliveries),
        ],
    ) {
        let cfg = NocConfig {
            buffer_flits,
            flit_payload,
            ..NocConfig::paper_default(Mesh::new(4, 4))
        };
        // Destination 16 stands for the hotspot.
        let mut sends: Vec<_> = sends
            .iter()
            .map(|&(at, s, d, b)| (at, s, if d == 16 { hotspot } else { d }, b))
            .collect();
        // Single-flit packets queued behind a worm, then another worm, at
        // the same source and cycle (the sort in `step_vs_bulk` is stable):
        // jumps must take marks from one-flit queue entries and from
        // packets already partly injected.
        for &(i, d, b) in &chasers {
            let (at, s, worm_dst, _) = sends[i % sends.len()];
            let pos = sends.iter().rposition(|x| x.0 == at && x.1 == s).unwrap() + 1;
            sends.splice(pos..pos, [(at, s, d, b), (at, s, worm_dst, 300)]);
        }
        let (stepped, bulk, bulk_cycles) = step_vs_bulk(cfg, &sends, window, pulse, runner);
        prop_assert_eq!(stepped.delivered.len(), sends.len());
        prop_assert_eq!(&stepped, &bulk);
        // With room for a streaming worm (two flits per FIFO) and a worm
        // long enough to stream, the bulk path must really have run.
        if buffer_flits >= 2 && sends.iter().any(|s| s.3 >= 256) {
            prop_assert!(bulk_cycles > 0, "no cycle advanced in bulk");
        }
    }
}

/// A long worm on a quiet mesh streams almost entirely in bulk, across
/// window and pulse boundaries, and still matches stepping exactly.
#[test]
fn lone_worm_streams_in_bulk() {
    let cfg = NocConfig::paper_default(Mesh::new(4, 4));
    let sends = [(0, 0, 15, 1024), (10, 3, 12, 1024), (40, 5, 5, 512)];
    let (stepped, bulk, bulk_cycles) = step_vs_bulk(cfg, &sends, 16, 7, Runner::Deliveries);
    assert_eq!(stepped, bulk);
    assert!(
        bulk_cycles * 2 > bulk.cycle,
        "{bulk_cycles} of {} cycles in bulk",
        bulk.cycle
    );
}

/// Under tracing the bulk path records exactly the stepped run's packet
/// and hop events: jumps then move only Body flits, which record none.
#[test]
fn traced_bulk_run_records_the_stepped_events() {
    use hic_obs::trace::{Category, Tracer};
    let cfg = NocConfig::paper_default(Mesh::new(4, 4));
    let mesh = cfg.mesh;
    let sends = [
        (0, 0, 15, 1024),
        (0, 3, 12, 700),
        (5, 1, 15, 512),
        (30, 5, 5, 300),
        (31, 12, 3, 8),
    ];
    let traced = |bulk: bool| {
        let tracer = Tracer::new(1 << 16);
        tracer.set_enabled(Category::Noc, true);
        let mut twin = HybridNetwork::new(cfg);
        twin.attach_tracer(&tracer);
        for &(at, s, d, bytes) in &sends {
            twin.send_at(at, mesh.coord(s), mesh.coord(d), bytes);
        }
        if bulk {
            twin.run_until_drained(1_000_000).expect("drains");
        } else {
            while !twin.is_drained() {
                twin.step();
            }
        }
        let trace = tracer.take();
        assert_eq!(trace.dropped, 0);
        (trace.events, twin.skip_stats().bulk_cycles, twin.cycle())
    };
    let (stepped, _, stepped_end) = traced(false);
    let (bulk, bulk_cycles, bulk_end) = traced(true);
    assert_eq!(stepped_end, bulk_end);
    assert!(bulk_cycles > 0, "Body-only runs still advance in bulk");
    assert_eq!(stepped, bulk);
}
