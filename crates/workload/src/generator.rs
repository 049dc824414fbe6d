//! Seeded synthetic workload generation.
//!
//! A [`GenSpec`] plus its seed deterministically produces a layered
//! random kernel DAG, realized not as a hand-assembled `AppSpec` but as
//! a synthetic *memory-access trace* that is then replayed through the
//! real profiler ([`crate::replay`]). Generation and trace ingestion
//! therefore share one code path: the generated `AppSpec`/`CommGraph`
//! are whatever QUAD attribution says about the synthesized traffic,
//! exactly as for an instrumented application, and `--emit-trace` of a
//! generated workload is just the intermediate artifact.
//!
//! Structure drawing (all from one `StdRng::seed_from_u64(seed)`, in a
//! fixed order, so identical specs are byte-identical):
//!
//! 1. Kernels `k00..` are ordered; each kernel `i > 0` draws one
//!    producer among `0..i` (connectivity) plus up to `fanout` extras.
//!    Forward-only edges make the graph a DAG by construction.
//! 2. Each kernel independently gains a host input/output edge with
//!    probability `hostio`%; kernels without any kernel-side producer
//!    (consumer) always get a host input (output) so no kernel is dead.
//! 3. Every edge draws a volume: `bytes` jittered ±50%, ×8 with
//!    probability `skew`% (hotspot edges). The unique-address footprint
//!    is `uma`% of the volume (word-rounded); the consumer re-reads the
//!    region until the volume is covered, which is how the byte/UMA
//!    distinction of the QUAD model is exercised.
//! 4. Each kernel touches a private scratch region of `comm` × its
//!    input footprint — traffic that raises compute time without
//!    adding edges, realizing the compute/comm ratio.

use crate::genspec::GenSpec;
use crate::replay::replay;
use crate::tracefmt::{Trace, TraceEvent};
use crate::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Everything one generation run produces.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The spec that produced it.
    pub spec: GenSpec,
    /// The synthesized trace (replayable, emittable).
    pub trace: Trace,
    /// The replayed result: measured `AppSpec` + function `CommGraph`.
    pub workload: Workload,
}

/// Volume of one edge: unique footprint and how often it is re-read.
#[derive(Debug, Clone, Copy)]
struct Volume {
    addr: u64,
    umas: u64,
    reads: u64,
}

/// Generate the workload for `spec`. Deterministic: same spec (and
/// thus seed) ⇒ byte-identical trace, `AppSpec` and `CommGraph`.
pub fn generate(spec: &GenSpec) -> Generated {
    let trace = synthesize_trace(spec);
    let workload =
        replay(&trace, &spec.app_name()).expect("generated traces are valid by construction");
    Generated {
        spec: *spec,
        trace,
        workload,
    }
}

/// Synthesize just the trace (the front half of [`generate`]).
pub fn synthesize_trace(spec: &GenSpec) -> Trace {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let n = spec.kernels as usize;

    // --- 1+2: structure ---
    let mut k2k: BTreeSet<(usize, usize)> = BTreeSet::new();
    for i in 1..n {
        k2k.insert((rng.gen_range(0..i), i));
        let extra = rng.gen_range(0..=spec.fanout.min(i as u32));
        for _ in 0..extra {
            k2k.insert((rng.gen_range(0..i), i));
        }
    }
    let mut host_in: BTreeSet<usize> = BTreeSet::new();
    let mut host_out: BTreeSet<usize> = BTreeSet::new();
    let p_io = spec.host_io_pct as f64 / 100.0;
    for i in 0..n {
        if rng.gen_bool(p_io) {
            host_in.insert(i);
        }
        if rng.gen_bool(p_io) {
            host_out.insert(i);
        }
    }
    for i in 0..n {
        if !k2k.iter().any(|&(_, d)| d == i) {
            host_in.insert(i);
        }
        if !k2k.iter().any(|&(s, _)| s == i) {
            host_out.insert(i);
        }
    }

    // --- 3: volumes, in a fixed edge order ---
    let mut next_addr = 0x1000u64;
    let mut alloc = |umas: u64| {
        let a = next_addr;
        next_addr += umas.div_ceil(64) * 64;
        a
    };
    let draw = |rng: &mut StdRng| {
        let jitter = rng.gen_range(50..=150u64);
        let hot = rng.gen_bool(spec.skew_pct as f64 / 100.0);
        let mut target = spec.edge_bytes * jitter / 100;
        if hot {
            target *= 8;
        }
        let umas = ((target * spec.uma_pct as u64 / 100) / 4).max(1) * 4;
        let reads = (target / umas).max(1);
        (umas, reads)
    };
    let mut vol_host_in: BTreeMap<usize, Volume> = BTreeMap::new();
    let mut vol_k2k: BTreeMap<(usize, usize), Volume> = BTreeMap::new();
    let mut vol_host_out: BTreeMap<usize, Volume> = BTreeMap::new();
    for &i in &host_in {
        let (umas, reads) = draw(&mut rng);
        let addr = alloc(umas);
        vol_host_in.insert(i, Volume { addr, umas, reads });
    }
    for &e in &k2k {
        let (umas, reads) = draw(&mut rng);
        let addr = alloc(umas);
        vol_k2k.insert(e, Volume { addr, umas, reads });
    }
    for &i in &host_out {
        let (umas, reads) = draw(&mut rng);
        let addr = alloc(umas);
        vol_host_out.insert(i, Volume { addr, umas, reads });
    }

    // --- 4: scratch footprints ---
    let scratch: Vec<u64> = (0..n)
        .map(|i| {
            let in_umas: u64 = vol_host_in.get(&i).map_or(0, |v| v.umas)
                + vol_k2k
                    .iter()
                    .filter(|(&(_, d), _)| d == i)
                    .map(|(_, v)| v.umas)
                    .sum::<u64>();
            (spec.comm_ratio as u64 * in_umas).min(1 << 20)
        })
        .collect();
    let scratch_addr: Vec<u64> = scratch.iter().map(|&s| alloc(s.max(1))).collect();

    // --- emit the trace ---
    let kname = |i: usize| format!("k{i:02}");
    let mut ev = Vec::new();
    ev.push(TraceEvent::Func("main".into()));
    for i in 0..n {
        ev.push(TraceEvent::Func(kname(i)));
    }

    ev.push(TraceEvent::Enter("main".into()));
    for v in vol_host_in.values() {
        ev.push(TraceEvent::Write {
            addr: v.addr,
            len: v.umas,
        });
    }
    ev.push(TraceEvent::Exit);

    for i in 0..n {
        ev.push(TraceEvent::Enter(kname(i)));
        if let Some(v) = vol_host_in.get(&i) {
            for _ in 0..v.reads {
                ev.push(TraceEvent::Read {
                    addr: v.addr,
                    len: v.umas,
                });
            }
        }
        for (&(_, d), v) in vol_k2k.iter().filter(|(&(_, d), _)| d == i) {
            debug_assert_eq!(d, i);
            for _ in 0..v.reads {
                ev.push(TraceEvent::Read {
                    addr: v.addr,
                    len: v.umas,
                });
            }
        }
        if scratch[i] > 0 {
            ev.push(TraceEvent::Write {
                addr: scratch_addr[i],
                len: scratch[i],
            });
            ev.push(TraceEvent::Read {
                addr: scratch_addr[i],
                len: scratch[i],
            });
        }
        for (&(s, _), v) in vol_k2k.iter().filter(|(&(s, _), _)| s == i) {
            debug_assert_eq!(s, i);
            ev.push(TraceEvent::Write {
                addr: v.addr,
                len: v.umas,
            });
        }
        if let Some(v) = vol_host_out.get(&i) {
            ev.push(TraceEvent::Write {
                addr: v.addr,
                len: v.umas,
            });
        }
        ev.push(TraceEvent::Exit);
    }

    ev.push(TraceEvent::Enter("main".into()));
    for v in vol_host_out.values() {
        for _ in 0..v.reads {
            ev.push(TraceEvent::Read {
                addr: v.addr,
                len: v.umas,
            });
        }
    }
    ev.push(TraceEvent::Exit);

    Trace::from_events(ev)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_valid() {
        let spec = GenSpec::parse("k=8,seed=42").unwrap();
        let a = generate(&spec);
        let b = generate(&spec);
        assert!(a.workload.app.validate().is_ok());
        assert_eq!(a.trace.render(), b.trace.render());
        assert_eq!(
            serde_json::to_string(&a.workload.app).unwrap(),
            serde_json::to_string(&b.workload.app).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&a.workload.graph).unwrap(),
            serde_json::to_string(&b.workload.graph).unwrap()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&GenSpec::parse("k=8,seed=1").unwrap());
        let b = generate(&GenSpec::parse("k=8,seed=2").unwrap());
        assert_ne!(
            serde_json::to_string(&a.workload.graph).unwrap(),
            serde_json::to_string(&b.workload.graph).unwrap()
        );
    }

    #[test]
    fn kernel_count_and_connectivity_match_the_spec() {
        for k in [1u32, 2, 5, 16] {
            let g = generate(&GenSpec::parse(&format!("k={k},seed=9")).unwrap());
            assert_eq!(g.workload.app.n_kernels(), k as usize);
            // Every kernel moves data: compute time was derived from
            // nonzero touched bytes, and validate() holds.
            assert!(g.workload.app.validate().is_ok());
            for ks in &g.workload.app.kernels {
                assert!(ks.compute_cycles >= 1);
            }
        }
    }

    #[test]
    fn uma_knob_controls_rereads() {
        // uma=100: every byte unique, bytes == umas on kernel edges.
        let all_unique = generate(&GenSpec::parse("k=4,seed=3,uma=100,skew=0").unwrap());
        for e in &all_unique.workload.graph.edges {
            assert_eq!(e.bytes, e.umas, "{e:?}");
        }
        // uma=10: regions are re-read ~10x.
        let rereads = generate(&GenSpec::parse("k=4,seed=3,uma=10,skew=0").unwrap());
        let (bytes, umas): (u64, u64) = rereads
            .workload
            .graph
            .edges
            .iter()
            .fold((0, 0), |(b, u), e| (b + e.bytes, u + e.umas));
        assert!(bytes >= umas * 5, "bytes={bytes} umas={umas}");
    }

    #[test]
    fn comm_ratio_scales_compute_without_new_edges() {
        let lean = generate(&GenSpec::parse("k=4,seed=5,comm=0").unwrap());
        let fat = generate(&GenSpec::parse("k=4,seed=5,comm=16").unwrap());
        assert_eq!(
            lean.workload.graph.edges.len(),
            fat.workload.graph.edges.len()
        );
        let cycles = |w: &Workload| -> u64 { w.app.kernels.iter().map(|k| k.compute_cycles).sum() };
        assert!(cycles(&fat.workload) > 4 * cycles(&lean.workload));
    }

    #[test]
    fn emitted_trace_replays_to_the_same_workload() {
        let spec = GenSpec::parse("k=6,seed=11").unwrap();
        let g = generate(&spec);
        let reparsed = Trace::parse(&g.trace.render()).unwrap();
        let again = crate::replay::replay(&reparsed, &spec.app_name()).unwrap();
        assert_eq!(again.graph, g.workload.graph);
        assert_eq!(again.app, g.workload.app);
    }

    #[test]
    fn the_largest_access_a_spec_can_draw_parses_and_replays() {
        // bytes and skew at their maxima, every edge a hotspot, no
        // re-reads; seed 32 draws the top jitter of 150%.
        let spec = GenSpec::parse("k=1,skew=100,bytes=1048576,uma=100,comm=64,seed=32").unwrap();
        let trace = synthesize_trace(&spec);
        let longest = trace
            .events
            .iter()
            .map(|e| match e {
                TraceEvent::Write { len, .. } | TraceEvent::Read { len, .. } => *len,
                _ => 0,
            })
            .max()
            .unwrap();
        assert_eq!(longest, (1 << 20) * 150 / 100 * 8);
        assert!(longest <= crate::MAX_ACCESS_BYTES);
        let parsed = Trace::parse(&trace.render()).unwrap();
        assert_eq!(parsed.events, trace.events);
        let w = replay(&parsed, &spec.app_name()).unwrap();
        assert!(w
            .graph
            .edges
            .iter()
            .any(|e| e.bytes == longest && e.umas == longest));
    }
}
