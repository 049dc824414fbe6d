//! Cross-crate property-based tests: the design algorithm, the mapping
//! function, the NoC and the profiler hold their invariants on *random*
//! applications and traffic, not just on the paper's four workloads.

use hic::core::{adaptive_map, design, CommClass, DesignConfig, KernelAttach, Variant};
use hic::fabric::kernel::DataVolumes;
use hic::fabric::resource::Resources;
use hic::fabric::time::Frequency;
use hic::fabric::{AppSpec, CommEdge, HostSpec, KernelSpec};
use hic::noc::{place, place_naive, Mesh, Network, NocConfig, NocNode, Traffic};
use hic::profiling::Profiler;
use hic::sim::simulate;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// Strategy: a random acyclic application (edges only flow from lower to
/// higher kernel ids, so the communication graph is a DAG).
fn arb_app() -> impl Strategy<Value = AppSpec> {
    (2usize..7)
        .prop_flat_map(|n| {
            let kernels = proptest::collection::vec(
                (
                    1_000u64..500_000,   // compute cycles
                    1_000u64..4_000_000, // sw cycles
                    100u64..6_000,       // luts
                    any::<bool>(),       // duplicable
                    any::<bool>(),       // streamable
                ),
                n,
            );
            let k2k =
                proptest::collection::vec((0usize..n, 0usize..n, 1u64..2_000_000u64), 0..(n * 2));
            let host_io = proptest::collection::vec(
                (0usize..n, any::<bool>(), 0u64..3_000_000u64),
                1..(n + 2),
            );
            let host_cycles = 0u64..2_000_000;
            (Just(n), kernels, k2k, host_io, host_cycles)
        })
        .prop_filter_map(
            "degenerate app",
            |(n, kernels, k2k, host_io, host_cycles)| {
                let specs: Vec<KernelSpec> = kernels
                    .iter()
                    .enumerate()
                    .map(|(i, &(cc, sw, luts, dup, stream))| {
                        let mut k = KernelSpec::new(
                            i as u32,
                            format!("k{i}"),
                            cc,
                            sw,
                            Resources::new(luts, luts),
                        );
                        k.duplicable = dup;
                        k.streamable = stream;
                        k
                    })
                    .collect();
                let mut seen = BTreeSet::new();
                let mut edges: Vec<CommEdge> = Vec::new();
                for (a, b, bytes) in k2k {
                    let (a, b) = (a.min(b), a.max(b));
                    if a == b || !seen.insert((a, b)) {
                        continue;
                    }
                    edges.push(CommEdge::k2k(a as u32, b as u32, bytes));
                }
                for (i, (k, inbound, bytes)) in host_io.into_iter().enumerate() {
                    let _ = i;
                    let e = if inbound {
                        CommEdge::h2k(k as u32, bytes)
                    } else {
                        CommEdge::k2h(k as u32, bytes)
                    };
                    let key = (usize::MAX - usize::from(inbound), k);
                    if seen.insert(key) {
                        edges.push(e);
                    }
                }
                let _ = n;
                AppSpec::new(
                    "random",
                    HostSpec::default(),
                    Frequency::from_mhz(100),
                    specs,
                    edges,
                    host_cycles,
                )
                .ok()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn design_holds_invariants_on_random_apps(app in arb_app()) {
        let cfg = DesignConfig::default();
        let base = design(&app, &cfg, Variant::Baseline).expect("baseline fits");
        let hyb = design(&app, &cfg, Variant::Hybrid).expect("hybrid fits");
        let noc = design(&app, &cfg, Variant::NocOnly).expect("noc-only fits");

        // Shared pairs use each kernel at most once and carry real bytes.
        let mut used = BTreeSet::new();
        for p in &hyb.sm_pairs {
            prop_assert!(p.bytes > 0);
            prop_assert!(used.insert(p.producer));
            prop_assert!(used.insert(p.consumer));
        }

        // Resource ordering: baseline ≤ hybrid ≤ NoC-only (LUTs).
        let (b, h, n) = (
            base.resources().total(),
            hyb.resources().total(),
            noc.resources().total(),
        );
        prop_assert!(b.luts <= h.luts);
        prop_assert!(h.luts <= n.luts, "hybrid {h} vs noc-only {n}");

        // A kernel is on the NoC only if the plan has a NoC.
        if hyb.noc.is_none() {
            for e in hyb.kernels.values() {
                prop_assert_eq!(e.attach.kernel, KernelAttach::K1);
                prop_assert!(!e.attach.mem.on_noc());
            }
        }

        // Performance: the hybrid's analytic kernel time never exceeds the
        // baseline's.
        let be = base.estimate();
        let he = hyb.estimate();
        prop_assert!(he.kernels <= be.kernels);

        // The DES agrees directionally.
        let bs = simulate(&base);
        let hs = simulate(&hyb);
        prop_assert!(
            hs.kernel_time.as_ps() <= (bs.kernel_time.as_ps() as f64 * 1.001) as u64,
            "hybrid sim {} vs baseline sim {}", hs.kernel_time, bs.kernel_time
        );

        // Determinism.
        let hyb2 = design(&app, &cfg, Variant::Hybrid).expect("fits");
        prop_assert_eq!(hyb, hyb2);
    }

    #[test]
    fn adaptive_mapping_is_total_and_feasible(
        host_in in 0u64..1_000_000,
        kernel_in in 0u64..1_000_000,
        host_out in 0u64..1_000_000,
        kernel_out in 0u64..1_000_000,
    ) {
        let v = DataVolumes { host_in, kernel_in, host_out, kernel_out };
        let class = CommClass::of(&v);
        let attach = adaptive_map(class);
        // {K1,M2} appears only for kernels that neither send to kernels
        // nor talk to the host — i.e. only the shared-memory-producer
        // shape, where it is feasible by construction.
        if attach.validate(false).is_err() {
            prop_assert!(!class.sends_to_kernels());
            prop_assert!(!class.touches_host());
            prop_assert!(class.receives_from_kernels());
        }
        // The memory keeps a bus path whenever host traffic exists.
        if class.touches_host() {
            prop_assert!(attach.mem.on_bus());
        }
        // The kernel is NoC-attached iff it sends to kernels.
        prop_assert_eq!(attach.kernel == KernelAttach::K2, class.sends_to_kernels());
    }

    #[test]
    fn noc_delivers_every_packet_exactly_once(
        sends in proptest::collection::vec((0usize..16, 0usize..16, 0u64..600), 1..60),
    ) {
        let mesh = Mesh::new(4, 4);
        let mut net = Network::new(NocConfig::paper_default(mesh));
        let mut expected_bytes = 0u64;
        for &(s, d, bytes) in &sends {
            net.send(mesh.coord(s), mesh.coord(d), bytes);
            expected_bytes += bytes;
        }
        net.run_until_drained(2_000_000).expect("network drains");
        prop_assert_eq!(net.delivered().len(), sends.len());
        let got: u64 = net.delivered().iter().map(|p| p.bytes).sum();
        prop_assert_eq!(got, expected_bytes);
        // Latency lower bound: at least hops + 1 cycles each.
        for p in net.delivered() {
            prop_assert!(p.latency() > mesh.route(p.src, p.dst).len() as u64);
        }
    }

    #[test]
    fn profiler_conserves_bytes(
        ops in proptest::collection::vec((0u8..3, 0u64..256, 1u64..16), 1..120),
    ) {
        // Reference model: a plain last-writer map.
        let mut p = Profiler::new();
        let f0 = p.register("f0");
        let f1 = p.register("f1");
        let f2 = p.register("f2");
        let fns = [f0, f1, f2];
        let mut shadow = std::collections::HashMap::new();
        let mut expected_edges = std::collections::HashMap::new();
        for (i, &(f, addr, len)) in ops.iter().enumerate() {
            let cur = fns[f as usize];
            p.enter(cur);
            if i % 2 == 0 {
                p.write(addr, len);
                for a in addr..addr + len {
                    shadow.insert(a, cur);
                }
            } else {
                p.read(addr, len);
                for a in addr..addr + len {
                    if let Some(&w) = shadow.get(&a) {
                        if w != cur {
                            *expected_edges.entry((w, cur)).or_insert(0u64) += 1;
                        }
                    }
                }
            }
            p.exit();
        }
        let g = p.graph();
        let total: u64 = expected_edges.values().sum();
        prop_assert_eq!(g.total_bytes(), total);
        for e in &g.edges {
            prop_assert_eq!(e.bytes, expected_edges[&(e.src, e.dst)]);
            prop_assert!(e.umas <= e.bytes);
        }
    }

    #[test]
    fn placement_never_worse_than_naive(
        traffic_spec in proptest::collection::vec((0u32..6, 0u32..6, 1u64..100_000), 1..12),
    ) {
        let nodes: Vec<NocNode> = (0..6)
            .map(|i| NocNode::Kernel(hic::fabric::KernelId::new(i)))
            .collect();
        let traffic: Traffic = traffic_spec
            .into_iter()
            .filter(|&(a, b, _)| a != b)
            .map(|(a, b, w)| {
                (
                    NocNode::Kernel(hic::fabric::KernelId::new(a)),
                    NocNode::Kernel(hic::fabric::KernelId::new(b)),
                    w,
                )
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(9);
        let opt = place(&nodes, &traffic, &mut rng);
        let naive = place_naive(&nodes);
        prop_assert!(opt.cost(&traffic) <= naive.cost(&traffic));
        // All nodes placed, all on distinct routers.
        let coords: BTreeSet<_> = opt.slots.values().collect();
        prop_assert_eq!(coords.len(), nodes.len());
    }
}
