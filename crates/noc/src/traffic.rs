//! Synthetic traffic: the one Bernoulli injection generator, the functions
//! that play its schedules, and the load–latency point built on them.
//!
//! Every synthetic load driven through the mesh comes from [`schedule`]:
//! per cycle and per node, one Bernoulli coin with probability
//! `offered / flits_per_packet` (so the *flit* injection rate is
//! `offered`), then the [`Pattern`]'s destination. An optional [`Burst`]
//! window silences all but the first cycles of each period. A schedule is
//! a plain `(cycle, src, dst)` list, so the fast path, the hybrid engine
//! and the reference stepper can all be subjected to identical traffic,
//! and a timed run measures the stepper and not the RNG.

use crate::engine::HybridNetwork;
use crate::flit::PacketId;
use crate::network::{Network, NocConfig, RecordMode};
use crate::reference::ReferenceNetwork;
use crate::topology::{Coord, Mesh};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Spatial traffic patterns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Destination drawn uniformly at random.
    Uniform,
    /// `(x, y) → (y, x)` — stresses the mesh diagonal. On a square mesh
    /// this is the exact transpose; on non-square meshes the transposed
    /// coordinate is wrapped back onto the mesh (`(y mod w, x mod h)`)
    /// instead of clamped, so distinct sources are not collapsed onto the
    /// edge column/row.
    Transpose,
    /// `(x, y) → (w-1-x, h-1-y)` — bit-complement-style worst case.
    Complement,
    /// Each packet targets `at` with probability `bias` and a uniform
    /// destination otherwise; `bias: 1.0` is the extreme hotspot.
    Hotspot {
        /// The hot node.
        at: Coord,
        /// Probability that a packet targets `at`.
        bias: f64,
    },
    /// Nearest neighbor (east, wrapping within the row) — the best case.
    Neighbor,
}

impl Pattern {
    /// Destination of a packet from `src` under this pattern.
    pub fn destination(self, src: Coord, mesh: Mesh, rng: &mut impl Rng) -> Coord {
        match self {
            Pattern::Uniform => mesh.coord(rng.gen_range(0..mesh.len())),
            Pattern::Transpose => Coord::new(src.y % mesh.w, src.x % mesh.h),
            Pattern::Complement => Coord::new(mesh.w - 1 - src.x, mesh.h - 1 - src.y),
            Pattern::Hotspot { at, bias } => {
                if rng.gen_bool(bias) {
                    at
                } else {
                    Pattern::Uniform.destination(src, mesh, rng)
                }
            }
            Pattern::Neighbor => Coord::new((src.x + 1) % mesh.w, src.y),
        }
    }
}

/// On/off injection window: traffic only in the first `on` cycles of each
/// `period`. Models the compute-dominated phases of profiled kernel
/// graphs — short communication bursts separated by long quiescent gaps —
/// which is the regime the hybrid engine's skip-ahead collapses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Burst {
    /// Injecting cycles at the start of each period.
    pub on: u64,
    /// Period length in cycles.
    pub period: u64,
}

/// Bernoulli `pattern` traffic at `offered` flits/node/cycle in
/// `packet_bytes` packets over `cycles` cycles (only inside `burst`'s on
/// window, if given): one `(cycle, src, dst)` entry per packet in
/// injection order, deterministic in `seed`.
pub fn schedule(
    cfg: NocConfig,
    pattern: Pattern,
    offered: f64,
    packet_bytes: u64,
    burst: Option<Burst>,
    cycles: u64,
    seed: u64,
) -> Vec<(u64, Coord, Coord)> {
    let mesh = cfg.mesh;
    if let Pattern::Hotspot { at, .. } = pattern {
        assert!(mesh.contains(at), "hotspot off mesh");
    }
    if let Some(b) = burst {
        assert!(
            b.on <= b.period && b.period > 0,
            "burst must fit in the period"
        );
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let flits_per_packet = packet_bytes.div_ceil(cfg.flit_payload as u64).max(1);
    let p_inject = (offered / flits_per_packet as f64).min(1.0);
    let mut schedule = Vec::new();
    for c in 0..cycles {
        if burst.is_some_and(|b| c % b.period >= b.on) {
            continue;
        }
        for n in 0..mesh.len() {
            if rng.gen_bool(p_inject) {
                let src = mesh.coord(n);
                schedule.push((c, src, pattern.destination(src, mesh, &mut rng)));
            }
        }
    }
    schedule
}

/// The stepping interface shared by the fast path and the reference, so
/// benches and equivalence tests can drive both with identical traffic.
pub trait Stepper {
    /// Inject a message at the source node.
    fn send(&mut self, src: Coord, dst: Coord, bytes: u64) -> PacketId;
    /// Advance one cycle.
    fn step(&mut self);
}

impl Stepper for Network {
    fn send(&mut self, src: Coord, dst: Coord, bytes: u64) -> PacketId {
        Network::send(self, src, dst, bytes)
    }
    fn step(&mut self) {
        Network::step(self)
    }
}

impl Stepper for ReferenceNetwork {
    fn send(&mut self, src: Coord, dst: Coord, bytes: u64) -> PacketId {
        ReferenceNetwork::send(self, src, dst, bytes)
    }
    fn step(&mut self) {
        ReferenceNetwork::step(self)
    }
}

/// Play a prebuilt injection schedule: inject each packet on its cycle
/// (relative to the first of the `cycles` steps performed here), stepping
/// once per cycle.
pub fn drive_schedule<S: Stepper>(
    net: &mut S,
    schedule: &[(u64, Coord, Coord)],
    packet_bytes: u64,
    cycles: u64,
) {
    let mut next = 0;
    for c in 0..cycles {
        while next < schedule.len() && schedule[next].0 == c {
            let (_, src, dst) = schedule[next];
            net.send(src, dst, packet_bytes);
            next += 1;
        }
        net.step();
    }
}

/// Load a prebuilt injection schedule into the hybrid engine's calendar.
/// Packet ids are assigned at injection time, so they match what
/// [`drive_schedule`] would have issued on a stepper: bucket cycle order,
/// then schedule order within a cycle.
pub fn schedule_hybrid(
    net: &mut HybridNetwork,
    schedule: &[(u64, Coord, Coord)],
    packet_bytes: u64,
) {
    for &(c, src, dst) in schedule {
        net.send_at(c, src, dst, packet_bytes);
    }
}

/// One measured point of a load–latency curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPoint {
    /// Accepted throughput in payload bytes per cycle (network total).
    pub throughput: f64,
    /// Mean packet latency in cycles.
    pub mean_latency: f64,
    /// 99th-percentile packet latency in cycles.
    pub p99_latency: u64,
    /// Packets delivered during the measurement window.
    pub delivered: usize,
}

/// Play `schedule` (built over `warmup + measure` cycles) into a fresh
/// fast-path network and measure the packets injected after `warmup`.
/// A load curve calls this once per offered load, each point's schedule
/// seeded `seed ^ index` so that every point is reproducible on its own.
pub fn load_point(
    cfg: NocConfig,
    schedule: &[(u64, Coord, Coord)],
    packet_bytes: u64,
    warmup: u64,
    measure: u64,
) -> LoadPoint {
    let mut net = Network::new(cfg);
    // A load point delivers on the order of `measure × nodes` packets;
    // the streaming window keeps memory flat instead of logging them all.
    net.set_record_mode(RecordMode::Stats);
    net.begin_stats_window(warmup);
    drive_schedule(&mut net, schedule, packet_bytes, warmup + measure);
    // Count *throughput* only over packets that completed inside the
    // measurement window — a delivery during cycle c is stamped c+1, so
    // everything delivered so far has `delivered <= total`, and snapshotting
    // the window bytes here excludes the drain below. The drain then
    // completes the latency percentiles without letting the accepted rate
    // chase the offered rate past saturation.
    let window_bytes = net.window_stats().bytes();
    let _ = net.run_until_drained(200_000);

    let w = net.window_stats();
    LoadPoint {
        throughput: window_bytes as f64 / measure as f64,
        mean_latency: w.mean_latency(),
        p99_latency: w.p99_latency(),
        delivered: w.delivered() as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hic_fabric::time::Frequency;

    fn cfg() -> NocConfig {
        NocConfig {
            mesh: Mesh::new(4, 4),
            clock: Frequency::from_mhz(100),
            flit_payload: 4,
            buffer_flits: 4,
        }
    }

    /// One load–latency curve: a [`load_point`] per offered load, each
    /// over its own `seed ^ index` schedule.
    fn curve(
        pattern: Pattern,
        loads: &[f64],
        warmup: u64,
        measure: u64,
        seed: u64,
    ) -> Vec<LoadPoint> {
        loads
            .iter()
            .enumerate()
            .map(|(i, &offered)| {
                let s = schedule(
                    cfg(),
                    pattern,
                    offered,
                    16,
                    None,
                    warmup + measure,
                    seed ^ i as u64,
                );
                load_point(cfg(), &s, 16, warmup, measure)
            })
            .collect()
    }

    const HOTSPOT: Pattern = Pattern::Hotspot {
        at: Coord { x: 0, y: 0 },
        bias: 1.0,
    };

    #[test]
    fn patterns_stay_on_mesh() {
        let mesh = Mesh::new(4, 3);
        let mut rng = StdRng::seed_from_u64(1);
        for p in [
            Pattern::Uniform,
            Pattern::Transpose,
            Pattern::Complement,
            Pattern::Hotspot {
                at: Coord::new(1, 1),
                bias: 0.5,
            },
            Pattern::Neighbor,
        ] {
            for i in 0..mesh.len() {
                let d = p.destination(mesh.coord(i), mesh, &mut rng);
                assert!(mesh.contains(d), "{p:?} produced {d}");
            }
        }
    }

    #[test]
    fn complement_is_an_involution() {
        let mesh = Mesh::new(4, 4);
        let mut rng = StdRng::seed_from_u64(2);
        for i in 0..mesh.len() {
            let src = mesh.coord(i);
            let d = Pattern::Complement.destination(src, mesh, &mut rng);
            let dd = Pattern::Complement.destination(d, mesh, &mut rng);
            assert_eq!(dd, src);
        }
    }

    #[test]
    fn transpose_is_a_true_transpose() {
        let mut rng = StdRng::seed_from_u64(6);
        // Square mesh: exact (x, y) → (y, x), an involution.
        let sq = Mesh::new(4, 4);
        for i in 0..sq.len() {
            let s = sq.coord(i);
            let d = Pattern::Transpose.destination(s, sq, &mut rng);
            assert_eq!(d, Coord::new(s.y, s.x));
            assert_eq!(Pattern::Transpose.destination(d, sq, &mut rng), s);
        }
        // Non-square regression: clamping used to collapse sources in the
        // out-of-range column onto their neighbor's destination; wrapping
        // keeps them distinct (and on the mesh).
        let m = Mesh::new(4, 3);
        let a = Pattern::Transpose.destination(Coord::new(2, 1), m, &mut rng);
        let b = Pattern::Transpose.destination(Coord::new(3, 1), m, &mut rng);
        assert_ne!(a, b, "distinct sources must not collapse");
        assert!(m.contains(a) && m.contains(b));
        // Where the exact transpose fits on the mesh, it is used verbatim.
        assert_eq!(
            Pattern::Transpose.destination(Coord::new(1, 2), m, &mut rng),
            Coord::new(2, 1)
        );
    }

    #[test]
    fn burst_window_silences_the_off_cycles() {
        let burst = Burst { on: 3, period: 10 };
        let s = schedule(cfg(), Pattern::Uniform, 1.0, 4, Some(burst), 100, 8);
        assert!(!s.is_empty());
        assert!(s.iter().all(|&(c, _, _)| c % 10 < 3), "{s:?}");
    }

    #[test]
    fn latency_grows_with_load() {
        let points = curve(Pattern::Uniform, &[0.02, 0.30], 200, 800, 3);
        assert!(points[0].delivered > 0);
        assert!(
            points[1].mean_latency > points[0].mean_latency,
            "{points:?}"
        );
    }

    #[test]
    fn load_curve_is_deterministic_in_its_seed() {
        let a = curve(Pattern::Uniform, &[0.05, 0.25], 100, 400, 42);
        let b = curve(Pattern::Uniform, &[0.05, 0.25], 100, 400, 42);
        assert_eq!(a, b);
        // And a single-point curve of the second load reproduces it: each
        // point's schedule depends only on the seed and the point index.
        let solo = curve(Pattern::Uniform, &[0.25], 100, 400, 42 ^ 1);
        assert_eq!(solo[0], b[1]);
    }

    #[test]
    fn neighbor_traffic_outperforms_hotspot() {
        let neighbor = curve(Pattern::Neighbor, &[0.2], 200, 800, 4);
        let hotspot = curve(HOTSPOT, &[0.2], 200, 800, 4);
        assert!(
            neighbor[0].mean_latency < hotspot[0].mean_latency,
            "neighbor {:?} vs hotspot {:?}",
            neighbor[0],
            hotspot[0]
        );
    }

    #[test]
    fn throughput_saturates_under_heavy_load() {
        let points = curve(Pattern::Uniform, &[0.1, 0.9], 200, 600, 5);
        // Offered 9x more, accepted must grow sub-linearly (saturation).
        assert!(points[1].throughput < points[0].throughput * 9.0);
        assert!(points[1].throughput > points[0].throughput * 0.8);
    }
}
