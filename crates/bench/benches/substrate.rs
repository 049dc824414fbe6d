//! Criterion benchmarks of the simulation substrates: bus scheduling, NoC
//! flit simulation, the profiler's shadow memory, placement optimization
//! and the design algorithm itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hic_bus::{BusConfig, CycleBus, Request};
use hic_core::{design, DesignConfig, Variant};
use hic_fabric::resource::Resources;
use hic_fabric::time::Frequency;
use hic_fabric::{AppSpec, CommEdge, HostSpec, KernelSpec};
use hic_noc::{Coord, Mesh, Network, NocConfig};
use hic_profiling::{Arena, Buf, Profiler};
use std::hint::black_box;

fn bench_bus(c: &mut Criterion) {
    let mut g = c.benchmark_group("bus");
    for n_masters in [2usize, 8, 32] {
        let requests: Vec<Request> = (0..n_masters * 16)
            .map(|i| Request::at_start(i % n_masters, 1024))
            .collect();
        g.throughput(Throughput::Elements(requests.len() as u64));
        g.bench_with_input(
            BenchmarkId::new("contended_run", n_masters),
            &requests,
            |b, reqs| {
                b.iter(|| {
                    let mut bus = CycleBus::new(BusConfig::plb_100mhz());
                    black_box(bus.run(reqs))
                })
            },
        );
    }
    g.finish();
}

fn bench_noc(c: &mut Criterion) {
    let mut g = c.benchmark_group("noc");
    g.sample_size(20);
    for side in [4u16, 8] {
        g.bench_with_input(BenchmarkId::new("uniform_drain", side), &side, |b, &s| {
            b.iter(|| {
                let mesh = Mesh::new(s, s);
                let mut net = Network::new(NocConfig::paper_default(mesh));
                for i in 0..mesh.len() {
                    let src = mesh.coord(i);
                    let dst = mesh.coord((i * 7 + 3) % mesh.len());
                    net.send(src, dst, 256);
                }
                net.run_until_drained(1_000_000).expect("drains");
                black_box(net.delivered().len())
            })
        });
    }
    g.bench_function("single_packet_latency_8x8", |b| {
        b.iter(|| {
            let mesh = Mesh::new(8, 8);
            let mut net = Network::new(NocConfig::paper_default(mesh));
            net.send(Coord::new(0, 0), Coord::new(7, 7), 64);
            net.run_until_drained(10_000).expect("drains");
            black_box(net.delivered()[0].latency())
        })
    });
    g.finish();
}

fn bench_profiler(c: &mut Criterion) {
    let mut g = c.benchmark_group("profiler");
    g.throughput(Throughput::Bytes(64 * 1024));
    g.bench_function("write_read_64k", |b| {
        b.iter(|| {
            let mut p = Profiler::new();
            let fa = p.register("producer");
            let fb = p.register("consumer");
            let mut arena = Arena::new();
            let mut buf: Buf<u64> = Buf::new(&mut arena, 8192);
            p.enter(fa);
            for i in 0..8192 {
                buf.set(&mut p, i, i as u64);
            }
            p.exit();
            p.enter(fb);
            let mut acc = 0u64;
            for i in 0..8192 {
                acc = acc.wrapping_add(buf.get(&mut p, i));
            }
            p.exit();
            black_box((acc, p.graph().total_bytes()))
        })
    });
    g.finish();
}

fn chain_app(n: usize) -> AppSpec {
    let kernels: Vec<KernelSpec> = (0..n)
        .map(|i| {
            KernelSpec::new(
                i as u32,
                format!("k{i}"),
                100_000,
                800_000,
                Resources::new(1_000, 1_000),
            )
        })
        .collect();
    let mut edges = vec![CommEdge::h2k(0u32, 128_000)];
    for i in 0..n - 1 {
        edges.push(CommEdge::k2k(i as u32, (i + 1) as u32, 64_000));
    }
    // A few cross edges so not everything collapses into shared pairs.
    for i in 0..n.saturating_sub(2) {
        edges.push(CommEdge::k2k(i as u32, (i + 2) as u32, 8_064));
    }
    edges.push(CommEdge::k2h((n - 1) as u32, 64_000));
    AppSpec::new(
        "chain",
        HostSpec::default(),
        Frequency::from_mhz(100),
        kernels,
        edges,
        100_000,
    )
    .expect("valid synthetic app")
}

fn bench_design(c: &mut Criterion) {
    let mut g = c.benchmark_group("design_algorithm");
    for n in [4usize, 8, 12] {
        let app = chain_app(n);
        g.bench_with_input(BenchmarkId::new("hybrid", n), &app, |b, app| {
            b.iter(|| {
                black_box(design(app, &DesignConfig::default(), Variant::Hybrid).expect("fits"))
            })
        });
    }
    g.finish();
}

fn bench_noc_load_sweep(c: &mut Criterion) {
    use hic_noc::{load_point, schedule, Pattern};
    let cfg = NocConfig::paper_default(Mesh::new(4, 4));
    // Print a small load–latency curve so bench logs double as a NoC
    // characterization record.
    for (i, offered) in [0.05, 0.15, 0.30, 0.50].into_iter().enumerate() {
        let s = schedule(
            cfg,
            Pattern::Uniform,
            offered,
            16,
            None,
            1_500,
            11 ^ i as u64,
        );
        let p = load_point(cfg, &s, 16, 300, 1_200);
        println!(
            "[noc-load] offered {:.2} → mean latency {:.1} cyc, p99 {} cyc, thpt {:.1} B/cyc",
            offered, p.mean_latency, p.p99_latency, p.throughput
        );
    }
    let mut g = c.benchmark_group("noc_load");
    g.sample_size(10);
    g.bench_function("uniform_0p3_4x4", |b| {
        b.iter(|| {
            let s = schedule(cfg, Pattern::Uniform, 0.3, 16, None, 500, 12);
            black_box(load_point(cfg, &s, 16, 100, 400))
        })
    });
    g.finish();
}

fn bench_noc_fastpath(c: &mut Criterion) {
    use hic_noc::{drive_schedule, schedule, Pattern, RecordMode, ReferenceNetwork};

    // Simulated cycles/second of the fast path vs. the pre-optimization
    // reference stepper, 8×8 uniform Bernoulli traffic at three loads.
    // The `repro` binary records the same comparison as the `noc.speedup@*`
    // records of BENCH.json.
    const CYCLES: u64 = 2_000;
    let mesh = Mesh::new(8, 8);
    let cfg = NocConfig::paper_default(mesh);
    let mut g = c.benchmark_group("noc_fastpath");
    g.sample_size(10);
    g.throughput(Throughput::Elements(CYCLES));
    for load in [0.1f64, 0.5, 0.9] {
        let schedule = schedule(cfg, Pattern::Uniform, load, 16, None, CYCLES, 99);
        g.bench_with_input(BenchmarkId::new("fast", load), &load, |b, _| {
            b.iter(|| {
                let mut net = Network::new(cfg);
                net.set_record_mode(RecordMode::Stats);
                drive_schedule(&mut net, &schedule, 16, CYCLES);
                black_box(net.stats().delivered())
            })
        });
        g.bench_with_input(BenchmarkId::new("reference", load), &load, |b, _| {
            b.iter(|| {
                let mut net = ReferenceNetwork::new(cfg);
                drive_schedule(&mut net, &schedule, 16, CYCLES);
                black_box(net.delivered().len())
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_bus,
    bench_noc,
    bench_profiler,
    bench_design,
    bench_noc_load_sweep,
    bench_noc_fastpath
);
criterion_main!(benches);
