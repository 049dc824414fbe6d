//! Flow events are not an approximation: for every delivered packet of
//! a deterministic-seed run, the latency reconstructed from the trace
//! alone (`FlowEnd.ts - FlowBegin.ts`) equals the stepper's own
//! per-packet accounting exactly. And 1-in-N sampling keeps exactly the
//! packet ids on the sampling lattice — whole flows, never fragments.

use hic_noc::{drive_schedule, schedule, Mesh, Network, NocConfig, Pattern};
use hic_obs::trace::{flows, validate, Category, Tracer};
use std::collections::BTreeMap;

#[test]
fn trace_flows_reconstruct_stepper_latencies_exactly() {
    let mesh = Mesh::new(3, 3);
    let cfg = NocConfig::paper_default(mesh);
    let tracer = Tracer::new(1 << 15);
    tracer.set_enabled(Category::Noc, true);
    let mut net = Network::new(cfg);
    net.attach_tracer(&tracer);

    // Deterministic congested traffic: enough load that latencies vary
    // well beyond the zero-load hop count.
    let schedule = schedule(cfg, Pattern::Uniform, 0.3, 16, None, 120, 7);
    drive_schedule(&mut net, &schedule, 16, 120);
    net.run_until_drained(2_000_000).expect("network drains");

    let trace = tracer.take();
    assert_eq!(trace.dropped, 0, "ring must be large enough for this run");
    validate(&trace.events).expect("NoC trace is well-formed");

    let fl = flows(&trace.events);
    let delivered = net.delivered();
    assert!(!delivered.is_empty(), "the run must move packets");
    assert_eq!(fl.len(), delivered.len(), "one completed flow per packet");

    let by_id: BTreeMap<u64, u64> = delivered.iter().map(|p| (p.id.0, p.latency())).collect();
    for f in &fl {
        let latency = by_id[&f.id];
        assert_eq!(
            f.end_ts - f.begin_ts,
            latency,
            "trace-reconstructed latency must equal the stepper's for packet {:#x}",
            f.id
        );
        assert_eq!(f.end_arg, latency, "FlowEnd carries the latency as its arg");
    }
}

#[test]
fn sampling_keeps_whole_flows_on_the_lattice() {
    let mesh = Mesh::new(3, 3);
    let cfg = NocConfig::paper_default(mesh);
    let tracer = Tracer::new(1 << 15);
    tracer.set_enabled(Category::Noc, true);
    tracer.set_sample(Category::Noc, 4);
    let mut net = Network::new(cfg);
    net.attach_tracer(&tracer);

    for _ in 0..20 {
        net.send(mesh.coord(0), mesh.coord(8), 16);
    }
    net.run_until_drained(2_000_000).expect("network drains");
    assert_eq!(net.delivered().len(), 20);

    let trace = tracer.take();
    validate(&trace.events).expect("sampled trace is still well-formed");
    let fl = flows(&trace.events);
    // Packet ids 0..20, 1-in-4 sampling: exactly 0, 4, 8, 12, 16 — and
    // each survives as a complete begin/end flow, not a fragment.
    let mut ids: Vec<u64> = fl.iter().map(|f| f.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![0, 4, 8, 12, 16]);
    for e in &trace.events {
        assert!(
            e.id.is_multiple_of(4),
            "no event may leak from an unsampled flow"
        );
    }
}
