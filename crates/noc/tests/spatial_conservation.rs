//! Conservation laws for the spatial accounting layer.
//!
//! Whatever the traffic pattern and whichever engine runs it, the spatial
//! matrices must balance: the non-Local entries of the per-link flit
//! matrix sum to `NetMetrics::forwarded_flits`, the Local column sums to
//! `ejected_flits`, the flow map's per-flow byte totals sum to exactly
//! the bytes handed to `send`, and each link carries exactly the flits of
//! the flows whose `Mesh::route` crosses it. On top of conservation, the
//! matrices, the closed windows, and the flow map must be *byte-identical*
//! across the step and hybrid engines — spatial observability is an
//! observation, never a perturbation.

use hic_noc::{
    drive_schedule, schedule, schedule_hybrid, Burst, Coord, Direction, FlowTotals, HybridNetwork,
    Mesh, Network, NocConfig, Pattern, SpatialConfig, PORTS,
};
use proptest::prelude::*;

const MESH: u16 = 8;
const CYCLES: u64 = 400;

fn spatial_cfg() -> SpatialConfig {
    SpatialConfig {
        window: 32,
        flows: true,
        max_windows: usize::MAX,
    }
}

/// Everything the conservation and cross-engine checks look at, in a
/// canonical serialized form so "byte-identical" is literal.
struct Observed {
    matrix: Vec<[u64; PORTS]>,
    flows: Vec<((Coord, Coord), FlowTotals)>,
    forwarded: u64,
    ejected: u64,
    bytes: String,
}

fn observe(net: &Network) -> Observed {
    let m = net.metrics();
    let matrix = net.link_flit_matrix().to_vec();
    let flows: Vec<_> = net
        .flow_totals()
        .expect("flow accounting enabled")
        .iter()
        .map(|(&k, &v)| (k, v))
        .collect();
    let bytes = serde_json::to_string(&(
        &matrix,
        net.stall_matrix(),
        net.fifo_hwm_matrix(),
        net.spatial_windows(),
        &flows,
    ))
    .expect("spatial state serializes");
    Observed {
        matrix,
        flows,
        forwarded: m.forwarded_flits,
        ejected: m.ejected_flits,
        bytes,
    }
}

fn make_schedule(pattern: u8, seed: u64, offered: f64) -> Vec<(u64, Coord, Coord)> {
    let cfg = NocConfig::paper_default(Mesh::new(MESH, MESH));
    let (pattern, offered, burst) = match pattern {
        0 => (Pattern::Uniform, offered, None),
        1 => {
            let at = Coord::new(MESH - 2, MESH / 2);
            (Pattern::Hotspot { at, bias: 0.7 }, offered, None)
        }
        _ => {
            let burst = Burst {
                on: 40,
                period: 160,
            };
            (Pattern::Uniform, (offered * 3.0).min(1.0), Some(burst))
        }
    };
    schedule(cfg, pattern, offered, 16, burst, CYCLES, seed)
}

/// Window-aligned cycle both engines park at before observation, so the
/// open-window state cannot differ just because one engine's clock
/// stopped at the drain cycle and the other's ran on.
const PARK: u64 = 1 << 22;

fn run_step_engine(schedule: &[(u64, Coord, Coord)], packet_bytes: u64) -> Observed {
    let mut net = Network::new(NocConfig::paper_default(Mesh::new(MESH, MESH)));
    net.enable_spatial(spatial_cfg());
    drive_schedule(&mut net, schedule, packet_bytes, CYCLES);
    net.run_until_drained(2_000_000).expect("drains");
    net.advance_idle_to(PARK).expect("drained");
    observe(&net)
}

fn run_hybrid_engine(schedule: &[(u64, Coord, Coord)], packet_bytes: u64) -> Observed {
    let mut net = HybridNetwork::new(NocConfig::paper_default(Mesh::new(MESH, MESH)));
    net.enable_spatial(spatial_cfg());
    schedule_hybrid(&mut net, schedule, packet_bytes);
    net.run_until_drained(2_000_000).expect("drains");
    net.run_to(PARK);
    observe(net.network())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn matrices_conserve_flits_and_flows_conserve_bytes_across_engines(
        pattern in 0u8..3,
        seed in 0u64..1_000,
        offered in prop_oneof![Just(0.05f64), Just(0.2)],
    ) {
        let packet_bytes = 16u64;
        let schedule = make_schedule(pattern, seed, offered);
        if schedule.is_empty() {
            // Nothing injected at this seed/offered combination; trivially
            // conserved.
            return proptest::TestCaseResult::Pass;
        }
        let injected_bytes = schedule.len() as u64 * packet_bytes;

        let baseline = run_step_engine(&schedule, packet_bytes);

        // Conservation: the matrix partitions the aggregate counters.
        let local = Direction::Local.index();
        let mut forwarded = 0u64;
        let mut ejected = 0u64;
        for row in &baseline.matrix {
            for (p, &f) in row.iter().enumerate() {
                if p == local {
                    ejected += f;
                } else {
                    forwarded += f;
                }
            }
        }
        prop_assert_eq!(forwarded, baseline.forwarded);
        prop_assert_eq!(ejected, baseline.ejected);

        // Conservation: flow byte/packet totals equal what was injected.
        let flow_bytes: u64 = baseline.flows.iter().map(|(_, f)| f.bytes).sum();
        let flow_packets: u64 = baseline.flows.iter().map(|(_, f)| f.packets).sum();
        let flow_delivered: u64 = baseline.flows.iter().map(|(_, f)| f.delivered).sum();
        prop_assert_eq!(flow_bytes, injected_bytes);
        prop_assert_eq!(flow_packets, schedule.len() as u64);
        prop_assert_eq!(flow_delivered, schedule.len() as u64);

        // The fabric and the route charge the same links: after drain,
        // each link's flit count is the flits of every flow routed over it.
        let mesh = Mesh::new(MESH, MESH);
        let mut charged = vec![[0u64; PORTS]; mesh.len()];
        for &((src, dst), totals) in &baseline.flows {
            for link in mesh.route(src, dst) {
                charged[mesh.index(link.from)][link.dir.index()] += totals.flits;
            }
        }
        for (r, (row, want)) in baseline.matrix.iter().zip(&charged).enumerate() {
            for p in (0..PORTS).filter(|&p| p != local) {
                prop_assert_eq!(row[p], want[p], "router {} port {}", mesh.coord(r), p);
            }
        }

        // Byte-identical spatial state across the step and hybrid engines.
        let hybrid = run_hybrid_engine(&schedule, packet_bytes);
        prop_assert_eq!(&baseline.bytes, &hybrid.bytes, "spatial state diverged");
    }
}
