//! Flit-level co-simulation.
//!
//! [`crate::system::simulate`] models NoC transfers with the closed-form
//! tail-residual latency — the paper's own assumption that the NoC fully
//! hides kernel-to-kernel traffic behind computation (Δn). This module
//! replaces that assumption with the *actual* flit-level mesh: every
//! kernel-to-kernel message is segmented into packets by the network
//! adapter, injected into the wormhole network while its producer
//! computes, and the consumer waits for the real delivery of the last
//! flit — congestion, serialization and backpressure included.
//!
//! The interesting output is the gap between the two: with the default
//! 32-bit links, a communication-dominated application like jpeg cannot
//! fully hide its kernel traffic (the link is slower than the paper's
//! Δn assumes); widening the flits recovers the analytic behaviour. The
//! `cosim` tests and the EXPERIMENTS.md ablation quantify this.

use crate::heatmap::{self, HeatmapReport};
use crate::system::{simulate, KernelTiming};
use hic_core::{InterconnectPlan, Variant};
use hic_fabric::time::Time;
use hic_fabric::{KernelId, MemoryId};
use hic_noc::{
    AdapterKind, AdapterSpec, DeliveredPacket, EngineKind, HybridNetwork, NocNode, RecordMode,
    SpatialConfig,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide spatial-accounting window for co-simulation, in NoC
/// cycles (the CLI's `--window` flag). A process global rather than a
/// parameter because co-simulation runs deep inside cached pipeline
/// stages; it changes the produced artifact, so the stage layer salts
/// its cache keys with this value. `0` disables spatial accounting entirely and
/// the result carries no heatmap.
static HEATMAP_WINDOW: AtomicU64 = AtomicU64::new(1024);

/// Set the spatial-accounting window (cycles) for subsequent
/// [`cosimulate`] calls. `0` disables the heatmap.
pub fn set_heatmap_window(cycles: u64) {
    HEATMAP_WINDOW.store(cycles, Ordering::Relaxed);
}

/// The currently selected spatial-accounting window.
pub fn heatmap_window() -> u64 {
    HEATMAP_WINDOW.load(Ordering::Relaxed)
}

/// Result of a co-simulated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CosimResult {
    /// Kernel-phase makespan with real NoC transfer times.
    pub kernel_time: Time,
    /// Application time.
    pub app_time: Time,
    /// NoC cycles elapsed.
    pub noc_cycles: u64,
    /// Packets delivered through the mesh.
    pub packets: usize,
    /// Per-kernel timings.
    pub per_kernel: BTreeMap<KernelId, KernelTiming>,
    /// The transfer-level result for the same plan (for comparison).
    pub analytic_kernel_time: Time,
    /// Spatial observability: the `hic-heatmap/v1` artifact assembled
    /// from the run's per-link and per-flow accounting. `None` for plans
    /// without a NoC or when [`set_heatmap_window`] disabled it. Absent
    /// in artifacts serialized before this field existed; those
    /// deserialize as `None`.
    pub heatmap: Option<HeatmapReport>,
}

impl CosimResult {
    /// How much slower the flit-level run is than the analytic-residual
    /// run (1.0 = the Δn hiding assumption holds exactly).
    pub fn slowdown_vs_analytic(&self) -> f64 {
        self.kernel_time.as_ps() as f64 / self.analytic_kernel_time.as_ps() as f64
    }
}

/// Co-simulate one run of a hybrid/NoC-only plan on the skip-ahead
/// [`HybridNetwork`]. Baseline plans have no NoC; they fall through to
/// the transfer-level simulator.
pub fn cosimulate(plan: &InterconnectPlan) -> CosimResult {
    use hic_obs::trace::Category;
    let reg = hic_obs::global();
    let _run = hic_obs::stage(Category::Sim, "cosim.run", &plan.app.name);
    reg.counter("cosim.runs").inc();
    let analytic = simulate(plan);
    let Some(noc) = &plan.noc else {
        return CosimResult {
            kernel_time: analytic.kernel_time,
            app_time: analytic.app_time,
            noc_cycles: 0,
            packets: 0,
            per_kernel: analytic.per_kernel.clone(),
            analytic_kernel_time: analytic.kernel_time,
            heatmap: None,
        };
    };
    assert!(
        plan.variant != Variant::Baseline,
        "baseline plans have no NoC"
    );
    // A nested scope: how much of co-simulation was the NoC engine run
    // (per-job timelines show it indented; depth-0 sums skip it, so
    // nothing double-counts).
    let _noc = hic_obs::stage(Category::Sim, "noc", &plan.app.name);

    let app = &plan.app;
    let bus = plan.config.bus;
    let clock = noc.config.clock;
    let adapter = AdapterSpec::paper_default(AdapterKind::Kernel);
    // The engine jumps only cycles whose outcome is known (nothing can
    // move, or every worm repeats its moves), so the result is exactly
    // what stepping every cycle would give.
    let mut net = HybridNetwork::new(noc.config);
    // The co-simulation consumes each delivery exactly once; event mode
    // lets the network recycle its log instead of retaining every packet.
    net.set_record_mode(RecordMode::Events);
    // Spatial observability: windowed per-link matrices plus per-flow
    // totals, assembled into the heatmap artifact after the run.
    let spatial_window = heatmap_window();
    if spatial_window != 0 {
        net.enable_spatial(SpatialConfig::windowed(spatial_window));
    }
    // Live flit-rate feed for the continuous-telemetry sampler: windowed
    // gauges every 1024 cycles, so `hic top` and `/metrics` can watch
    // flits/cycle mid-run instead of waiting for the end-of-run totals.
    net.attach_pulse(reg, "noc", 1024);
    let sm: BTreeSet<(KernelId, KernelId)> = plan
        .sm_pairs
        .iter()
        .map(|p| (p.producer, p.consumer))
        .collect();
    let fallback: BTreeSet<(KernelId, KernelId)> = plan
        .bus_fallback
        .iter()
        .filter_map(|e| Some((e.src.kernel()?, e.dst.kernel()?)))
        .collect();

    // Host input transfers, as in the transfer-level simulator.
    let order = topo(app);
    let mut host_in_done: BTreeMap<KernelId, Time> = BTreeMap::new();
    let mut bus_free = Time::ZERO;
    for &k in &order {
        let v = app.volumes(k);
        if v.host_in > 0 {
            bus_free += bus.transfer_time(v.host_in);
            host_in_done.insert(k, bus_free);
        } else {
            host_in_done.insert(k, Time::ZERO);
        }
    }

    // Each NoC edge's packets, as the contiguous id range the adapter's
    // segments were sent under; deliveries are drained from the network
    // as events, so each is examined once and the network never
    // accumulates a log.
    let mut edges = EdgeLedger::default();
    let mut timing: BTreeMap<KernelId, KernelTiming> = BTreeMap::new();
    let mut makespan = Time::ZERO;

    let to_cycles = |t: Time| -> u64 { clock.cycles_ceil(t) };
    let to_time = |c: u64| -> Time { clock.cycles(c) };

    for &k in &order {
        // Wait for kernel-side inputs: SM pairs at producer finish,
        // NoC edges at real flit delivery, fallback over the bus.
        let mut ready = host_in_done[&k];
        for e in app
            .k2k_edges()
            .filter(|e| e.dst == hic_fabric::Endpoint::Kernel(k))
        {
            let i = e.src.kernel().expect("k2k edge");
            let prod_end = timing[&i].compute_end;
            let arrival = if sm.contains(&(i, k)) {
                prod_end
            } else if fallback.contains(&(i, k)) {
                let dur = bus.transfer_time(e.bytes);
                let start = prod_end.max(bus_free);
                bus_free = start + dur + dur;
                bus_free
            } else if let Some(&edge) = edges.index.get(&(i, k)) {
                // Advance the mesh delivery by delivery until every packet
                // of this edge landed, recording each delivery's edge.
                loop {
                    edges.record(net.drain_events());
                    if edges.ranges[edge].done() {
                        break;
                    }
                    assert!(
                        net.run_until_delivery(u64::MAX),
                        "co-simulation wedged: packets of {i:?}->{k:?} in flight"
                    );
                }
                to_time(edges.ranges[edge].last).max(prod_end)
            } else {
                prod_end
            };
            ready = ready.max(arrival);
        }

        let tau = app.kernel_clock.cycles(app.kernel(k).compute_cycles);
        let compute_start = ready;
        let compute_end = compute_start + tau;

        // Stream this kernel's NoC output while it computes: inject the
        // packets starting at compute_start (never in the network's past).
        for e in app
            .k2k_edges()
            .filter(|e| e.src == hic_fabric::Endpoint::Kernel(k))
        {
            let j = e.dst.kernel().expect("k2k edge");
            if sm.contains(&(k, j)) || fallback.contains(&(k, j)) {
                continue;
            }
            let (src_slot, dst_slot) = (
                noc.placement.slots.get(&NocNode::Kernel(k)),
                noc.placement.slots.get(&NocNode::Memory(MemoryId(j.0))),
            );
            let (Some(&src), Some(&dst)) = (src_slot, dst_slot) else {
                continue;
            };
            // Fast-forward to the injection cycle: the engine advances
            // live traffic (steady wormhole runs in bulk) and skips
            // quiescent compute phases in one jump, both cycle-exact.
            let inj = to_cycles(compute_start).max(net.cycle());
            net.run_to(inj);
            let mut ids = adapter
                .segment(e.bytes)
                .into_iter()
                .map(|b| net.send(src, dst, b).0);
            let first = ids.next().expect("a message is at least one packet");
            let count = 1 + ids.count() as u64;
            edges.open((k, j), first, count);
        }

        // Host output over the bus.
        let v = app.volumes(k);
        let drained = if v.host_out > 0 {
            let dur = bus.transfer_time(v.host_out);
            let start = compute_end.max(bus_free);
            bus_free = start + dur;
            start + dur
        } else {
            compute_end
        };
        makespan = makespan.max(drained);
        timing.insert(
            k,
            KernelTiming {
                compute_start,
                compute_end,
                drained,
            },
        );
    }

    let host = app.host.clock.cycles(app.host_cycles);
    let hm = if spatial_window != 0 {
        // Close the trailing partial window so end-of-run traffic is
        // attributed before assembly.
        net.flush_spatial_window();
        let names: BTreeMap<KernelId, String> =
            app.kernels.iter().map(|k| (k.id, k.name.clone())).collect();
        Some(heatmap::assemble(net.network(), &noc.placement, &names))
    } else {
        None
    };
    let result = CosimResult {
        kernel_time: makespan,
        app_time: makespan + host,
        noc_cycles: net.cycle(),
        packets: net.stats().delivered() as usize,
        per_kernel: timing,
        analytic_kernel_time: analytic.kernel_time,
        heatmap: hm,
    };
    // End-to-end run metrics plus the network's own aggregates.
    net.publish_metrics(reg, "noc");
    reg.counter("cosim.kernel_time_ps")
        .add(result.kernel_time.as_ps());
    reg.counter("cosim.app_time_ps")
        .add(result.app_time.as_ps());
    reg.gauge("cosim.slowdown_vs_analytic_permille")
        .set((result.slowdown_vs_analytic() * 1000.0).round() as u64);
    result
}

/// The packets of one NoC edge: ids `first..first + count`, how many were
/// delivered, and the latest delivery cycle among them.
#[derive(Debug, Clone, Copy)]
struct EdgeRange {
    first: u64,
    count: u64,
    delivered: u64,
    last: u64,
}

impl EdgeRange {
    fn done(&self) -> bool {
        self.delivered == self.count
    }
}

/// Delivery bookkeeping for every NoC edge. Edges are sent one after
/// another and packet ids are assigned monotonically, so the ranges are
/// disjoint and sorted by `first`, and a delivered id finds its edge by
/// binary search.
#[derive(Debug, Default)]
struct EdgeLedger {
    ranges: Vec<EdgeRange>,
    index: BTreeMap<(KernelId, KernelId), usize>,
}

impl EdgeLedger {
    fn open(&mut self, edge: (KernelId, KernelId), first: u64, count: u64) {
        debug_assert!(self
            .ranges
            .last()
            .is_none_or(|r| r.first + r.count <= first));
        self.index.insert(edge, self.ranges.len());
        self.ranges.push(EdgeRange {
            first,
            count,
            delivered: 0,
            last: 0,
        });
    }

    fn record(&mut self, delivered: impl Iterator<Item = DeliveredPacket>) {
        for p in delivered {
            let at = self.ranges.partition_point(|r| r.first <= p.id.0) - 1;
            let r = &mut self.ranges[at];
            debug_assert!(p.id.0 < r.first + r.count, "delivery outside every edge");
            r.delivered += 1;
            r.last = r.last.max(p.delivered);
        }
    }
}

/// [`cosimulate`] under a name kept only for existing readers: both
/// [`EngineKind`]s run the same engine, so `kind` changes nothing.
pub fn cosimulate_with(plan: &InterconnectPlan, _kind: EngineKind) -> CosimResult {
    cosimulate(plan)
}

fn topo(app: &hic_fabric::AppSpec) -> Vec<KernelId> {
    app.topo_order().expect("cyclic communication graph")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hic_core::{design, DesignConfig, Variant};
    use std::sync::Mutex;

    /// Serializes tests that read or toggle the process-global heatmap
    /// window: the window changes the produced artifact, so concurrent
    /// toggling would make artifact comparisons flaky.
    static HEATMAP_WINDOW_LOCK: Mutex<()> = Mutex::new(());

    fn heatmap_lock() -> std::sync::MutexGuard<'static, ()> {
        HEATMAP_WINDOW_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    fn jpeg_like(flit_payload: u32) -> (InterconnectPlan, CosimResult) {
        let app = hic_apps::calib::jpeg();
        let cfg = DesignConfig {
            flit_payload,
            ..DesignConfig::default()
        };
        let plan = design(&app, &cfg, Variant::Hybrid).expect("fits");
        let res = cosimulate(&plan);
        (plan, res)
    }

    #[test]
    fn cosim_delivers_every_packet_and_is_ordered() {
        let (_, res) = jpeg_like(4);
        assert!(res.packets > 0);
        for t in res.per_kernel.values() {
            assert!(t.compute_start <= t.compute_end);
            assert!(t.compute_end <= t.drained);
        }
        assert!(res.kernel_time >= res.analytic_kernel_time);
    }

    #[test]
    fn narrow_links_cannot_fully_hide_jpegs_traffic() {
        // With 32-bit links (4 B/flit, 400 MB/s at 100 MHz) the NoC is
        // slower than jpeg's producers: the Δn full-hiding assumption
        // breaks and the co-simulation runs measurably slower than the
        // analytic model.
        let (_, res) = jpeg_like(4);
        assert!(
            res.slowdown_vs_analytic() > 1.10,
            "expected visible serialization, got {:.3}",
            res.slowdown_vs_analytic()
        );
    }

    #[test]
    fn wide_links_recover_the_papers_hiding_assumption() {
        // 128-bit links (16 B/flit, 1.6 GB/s) outrun the producers: the
        // co-simulated time approaches the analytic one.
        let (_, res) = jpeg_like(16);
        assert!(
            res.slowdown_vs_analytic() < 1.15,
            "wide links should hide traffic, got {:.3}",
            res.slowdown_vs_analytic()
        );
    }

    #[test]
    fn cosim_is_deterministic_whatever_engine_kind_is_named() {
        // Repeated runs agree bit-for-bit — including the spatial heatmap
        // artifact (matrices, windows, flows, bottleneck ranking, verdict
        // text) — and the retained `EngineKind` argument changes nothing.
        let _g = heatmap_lock();
        let (plan, first) = jpeg_like(4);
        assert!(first.heatmap.is_some());
        assert_eq!(first, cosimulate_with(&plan, EngineKind::Step));
        assert_eq!(first, cosimulate_with(&plan, EngineKind::Auto));
    }

    #[test]
    fn heatmap_flow_bytes_sum_to_the_injected_noc_bytes() {
        // The acceptance check of the spatial layer: kernel-pair flow
        // attribution accounts for every byte the adapter injected into
        // the mesh — no more, no less.
        let _g = heatmap_lock();
        let (plan, res) = jpeg_like(4);
        let hm = res.heatmap.as_ref().expect("NoC plan yields a heatmap");
        assert_eq!(hm.schema, crate::heatmap::HEATMAP_SCHEMA);

        // Reconstruct the injected byte total the same way the driver
        // decides what goes over the mesh: k2k edges that are neither
        // shared-memory pairs nor bus fallback, with both endpoints
        // placed.
        let noc = plan.noc.as_ref().unwrap();
        let sm: BTreeSet<(KernelId, KernelId)> = plan
            .sm_pairs
            .iter()
            .map(|p| (p.producer, p.consumer))
            .collect();
        let fallback: BTreeSet<(KernelId, KernelId)> = plan
            .bus_fallback
            .iter()
            .filter_map(|e| Some((e.src.kernel()?, e.dst.kernel()?)))
            .collect();
        let mut injected = 0u64;
        for e in plan.app.k2k_edges() {
            let (Some(i), Some(j)) = (e.src.kernel(), e.dst.kernel()) else {
                continue;
            };
            if sm.contains(&(i, j)) || fallback.contains(&(i, j)) {
                continue;
            }
            let placed = noc.placement.slots.contains_key(&NocNode::Kernel(i))
                && noc
                    .placement
                    .slots
                    .contains_key(&NocNode::Memory(MemoryId(j.0)));
            if placed {
                injected += e.bytes;
            }
        }
        let flow_bytes: u64 = hm.flows.iter().map(|f| f.totals.bytes).sum();
        assert!(injected > 0, "jpeg hybrid should use the NoC");
        assert_eq!(flow_bytes, injected);

        // Every injected packet was delivered, and the flow map agrees
        // with the aggregate delivery count.
        let delivered: u64 = hm.flows.iter().map(|f| f.totals.delivered).sum();
        assert_eq!(delivered as usize, res.packets);
        assert!(hm.hottest().is_some());
        assert!(!hm.verdict.is_empty());
    }

    #[test]
    fn heatmap_window_zero_disables_the_artifact() {
        let _g = heatmap_lock();
        let before = heatmap_window();
        set_heatmap_window(0);
        let (_, res) = jpeg_like(4);
        set_heatmap_window(before);
        assert!(res.heatmap.is_none());
        // And the window preference round-trips.
        set_heatmap_window(256);
        assert_eq!(heatmap_window(), 256);
        set_heatmap_window(before);
    }

    #[test]
    fn baseline_plan_falls_through() {
        let app = hic_apps::calib::klt();
        let plan = design(&app, &DesignConfig::default(), Variant::Baseline).expect("fits");
        let res = cosimulate(&plan);
        assert_eq!(res.packets, 0);
        assert_eq!(res.kernel_time, res.analytic_kernel_time);
    }

    #[test]
    fn sm_only_plan_has_no_noc_packets() {
        // KLT's hybrid is SM-only: no NoC → cosim equals the transfer-level
        // simulator.
        let app = hic_apps::calib::klt();
        let plan = design(&app, &DesignConfig::default(), Variant::Hybrid).expect("fits");
        assert!(plan.noc.is_none());
        let res = cosimulate(&plan);
        assert_eq!(res.packets, 0);
        assert_eq!(res.kernel_time, res.analytic_kernel_time);
    }
}
