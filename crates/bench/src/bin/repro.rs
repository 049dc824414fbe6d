//! Regenerate the paper's tables and figures on the terminal.
//!
//! ```text
//! cargo run --release -p hic-bench --bin repro -- all
//! cargo run --release -p hic-bench --bin repro -- table3
//! cargo run --release -p hic-bench --bin repro -- fig9 --json
//! ```

use hic_bench::experiments as exp;
use hic_bench::nocperf::{
    NocHybridPoint, SamplerOverheadPoint, SpatialOverheadPoint, TraceOverheadPoint,
};
use hic_bench::regress::{self, BenchRecord};
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");

    let all = what == "all";
    let mut matched = false;

    if all || what == "fig4" {
        matched = true;
        fig4(json);
    }
    if all || what == "table2" {
        matched = true;
        table2(json);
    }
    if all || what == "fig5" {
        matched = true;
        fig5(json);
    }
    if all || what == "fig6" {
        matched = true;
        fig6(json);
    }
    if all || what == "table3" || what == "fig7" {
        matched = true;
        table3(json);
    }
    if all || what == "table4" {
        matched = true;
        table4(json);
    }
    if all || what == "fig8" {
        matched = true;
        fig8(json);
    }
    if all || what == "fig9" {
        matched = true;
        fig9(json);
    }
    if all || what == "ablations" {
        matched = true;
        ablations(json);
    }
    // Deliberately not part of `all`: it's a wall-clock benchmark, so it
    // belongs to explicit invocations (`repro -- bench-noc`), which
    // rewrite the `noc.` records of BENCH.json.
    if what == "bench-noc" {
        matched = true;
        bench_noc();
    }
    // Same deal: wall-clock, explicit-only, rewrites the `pipeline.`
    // records.
    if what == "bench-pipeline" {
        matched = true;
        bench_pipeline();
    }
    // Wall-clock daemon load test, explicit-only, rewrites the `serve.`
    // records.
    if what == "bench-serve" {
        matched = true;
        bench_serve();
    }
    // Generated-workload daemon storm, explicit-only, rewrites the
    // `workload.` records.
    if what == "bench-workload" {
        matched = true;
        bench_workload();
    }
    // Also explicit-only: the regression sentinel re-runs the wall-clock
    // benches and compares against the committed BENCH.json records.
    if what == "check" {
        matched = true;
        check(args.iter().any(|a| a == "--quick"));
    }
    if !matched {
        eprintln!(
            "unknown experiment '{what}'; expected one of: all fig4 table2 fig5 fig6 table3 fig7 table4 fig8 fig9 ablations bench-noc bench-pipeline bench-serve bench-workload check"
        );
        std::process::exit(2);
    }
}

/// `repro check [--quick]`: median-of-k re-run of the NoC, pipeline,
/// serve and workload benchmarks, gated against the committed
/// `BENCH.json` records with MAD-based noise bands (see
/// `hic_bench::regress`). Exits 1 when any gating metric regresses, 2
/// when the records are missing/unreadable.
fn check(quick: bool) {
    let records = match regress::load(Path::new(regress::BENCH_FILE)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("repro check: {e}");
            eprintln!(
                "run `repro bench-noc`, `repro bench-pipeline`, `repro bench-serve` and \
                 `repro bench-workload` to (re)create the baselines"
            );
            std::process::exit(2);
        }
    };
    println!(
        "== repro check{}: re-running benches against committed baselines on {} cores ==",
        if quick { " (--quick)" } else { "" },
        regress::host_cores()
    );
    let samples = regress::collect_samples(quick);
    let report = regress::check(&records, &samples);
    println!("{}", regress::render(&report));
    if report.regressed {
        std::process::exit(1);
    }
}

fn fig4(json: bool) {
    let rows = exp::fig4();
    if json {
        println!("{}", serde_json::to_string_pretty(&rows).unwrap());
        return;
    }
    println!("== Fig. 4: baseline system vs software ==");
    println!(
        "{:<8} {:>10} {:>12} {:>10} {:>12} {:>10}",
        "app", "app x", "(paper)", "kernel x", "(paper)", "comm/comp"
    );
    for r in rows {
        println!(
            "{:<8} {:>10.2} {:>12.2} {:>10.2} {:>12.2} {:>10.2}",
            r.app,
            r.app_speedup,
            r.paper_app_speedup,
            r.kernel_speedup,
            r.paper_kernel_speedup,
            r.comm_comp
        );
    }
    println!();
}

fn table2(json: bool) {
    let rows = exp::table2();
    if json {
        println!("{}", serde_json::to_string_pretty(&rows).unwrap());
        return;
    }
    println!("== Table II: interconnect component utilization ==");
    println!(
        "{:<20} {:>8} {:>8} {:>12}",
        "component", "LUTs", "regs", "Fmax"
    );
    for r in rows {
        let fmax = r
            .fmax_mhz
            .map_or("N/A".to_string(), |f| format!("{f:.1}MHz"));
        println!(
            "{:<20} {:>8} {:>8} {:>12}",
            r.component, r.luts, r.regs, fmax
        );
    }
    println!();
}

fn fig5(json: bool) {
    let graph = exp::fig5();
    if json {
        println!("{}", serde_json::to_string_pretty(&graph).unwrap());
        return;
    }
    println!("== Fig. 5: jpeg data-communication profile (real decoder run) ==");
    println!("{}", graph.to_table());
    println!("--- Graphviz DOT ---");
    println!("{}", graph.to_dot("jpeg data communication profile"));
}

fn fig6(json: bool) {
    let plan = exp::fig6();
    if json {
        println!("{}", serde_json::to_string_pretty(&plan).unwrap());
        return;
    }
    println!("Proposed system for the jpeg decoder (Fig. 6)");
    println!("{}", plan.describe());
}

/// Write one bench's records into BENCH.json in place of its old ones.
fn commit(prefix: &str, records: Vec<BenchRecord>) {
    let file = Path::new(regress::BENCH_FILE);
    regress::commit(file, prefix, records).unwrap_or_else(|e| panic!("{e}"));
    println!("\nwrote the `{prefix}.` records of {}", file.display());
}

fn table3(json: bool) {
    let rows = exp::table3();
    if json {
        println!("{}", serde_json::to_string_pretty(&rows).unwrap());
        return;
    }
    println!("== Table III / Fig. 7: proposed-system speed-ups ==");
    println!(
        "{:<8} {:>9} {:>9} {:>9} {:>9}   {:>9} {:>12}  solution",
        "app", "app/sw", "krn/sw", "app/base", "krn/base", "sim(a/b)", "paper"
    );
    for r in rows {
        println!(
            "{:<8} {:>9.2} {:>9.2} {:>9.2} {:>9.2}   {:>9.2} {:>3.2}/{:.2}/{:.2}/{:.2}  {}",
            r.app,
            r.app_vs_sw,
            r.kernels_vs_sw,
            r.app_vs_baseline,
            r.kernels_vs_baseline,
            r.sim_app_vs_baseline,
            r.paper[0],
            r.paper[1],
            r.paper[2],
            r.paper[3],
            r.solution
        );
    }
    println!();
}

fn table4(json: bool) {
    let rows = exp::table4();
    if json {
        println!("{}", serde_json::to_string_pretty(&rows).unwrap());
        return;
    }
    println!("== Table IV: whole-system LUTs/registers ==");
    println!(
        "{:<8} {:>14} {:>14} {:>14} {:>9} {:>9}  solution",
        "app", "baseline", "ours", "NoC-only", "ΔLUT%", "Δreg%"
    );
    for r in rows {
        println!(
            "{:<8} {:>6}/{:<7} {:>6}/{:<7} {:>6}/{:<7} {:>8.1}% {:>8.1}%  {}",
            r.app,
            r.baseline.0,
            r.baseline.1,
            r.ours.0,
            r.ours.1,
            r.noc_only.0,
            r.noc_only.1,
            r.lut_saving_vs_noc_only * 100.0,
            r.reg_saving_vs_noc_only * 100.0,
            r.solution
        );
        println!(
            "{:<8} {:>6}/{:<7} {:>6}/{:<7} {:>6}/{:<7}  (paper)",
            "", r.paper[0].0, r.paper[0].1, r.paper[1].0, r.paper[1].1, r.paper[2].0, r.paper[2].1
        );
    }
    println!();
}

fn fig8(json: bool) {
    let rows = exp::fig8();
    if json {
        println!("{}", serde_json::to_string_pretty(&rows).unwrap());
        return;
    }
    println!("== Fig. 8: interconnect resources normalized to kernels ==");
    println!("{:<8} {:>10} {:>10}", "app", "LUT ratio", "reg ratio");
    for r in rows {
        println!("{:<8} {:>10.3} {:>10.3}", r.app, r.lut_ratio, r.reg_ratio);
    }
    println!();
}

fn fig9(json: bool) {
    let rows = exp::fig9();
    if json {
        println!("{}", serde_json::to_string_pretty(&rows).unwrap());
        return;
    }
    println!("== Fig. 9: energy normalized to the baseline ==");
    println!(
        "{:<8} {:>12} {:>12} {:>10}",
        "app", "norm energy", "power ratio", "saving"
    );
    for r in rows {
        println!(
            "{:<8} {:>12.3} {:>12.3} {:>9.1}%",
            r.app,
            r.normalized_energy,
            r.power_ratio,
            r.saving * 100.0
        );
    }
    println!();
}

fn bench_noc() {
    let run = hic_bench::nocperf::measure(8, 20_000, 3);
    println!("== NoC fast path vs reference stepper (8x8) ==");
    println!(
        "{:<8} {:>8} {:>12} {:>16} {:>16} {:>9}",
        "point", "pattern", "delivered", "fast cyc/s", "reference cyc/s", "speedup"
    );
    for r in &run.points {
        println!(
            "{:<8} {:>8} {:>12} {:>16.0} {:>16.0} {:>8.2}x",
            r.label,
            r.pattern,
            r.delivered,
            r.fast_cycles_per_sec,
            r.reference_cycles_per_sec,
            r.speedup
        );
    }

    // Hybrid event-driven engine vs per-cycle stepping on the regimes
    // the engine exists for: idle-heavy bursts must clear ≥5x, and the
    // continuous-load point must not regress below 0.7x.
    let hybrid = hic_bench::nocperf::measure_hybrid(3);
    println!("\n== Hybrid engine vs per-cycle stepper ==");
    println!(
        "{:<12} {:>6} {:>10} {:>16} {:>16} {:>9} {:>12}",
        "point", "mesh", "delivered", "hybrid cyc/s", "stepper cyc/s", "speedup", "skipped"
    );
    for p in &hybrid {
        println!(
            "{:<12} {:>3}x{:<3} {:>10} {:>16.0} {:>16.0} {:>8.2}x {:>12}",
            p.label,
            p.side,
            p.side,
            p.delivered,
            p.hybrid_cycles_per_sec,
            p.stepper_cycles_per_sec,
            p.speedup,
            p.skipped_cycles
        );
        if let Some(floor) = p.floor {
            assert!(
                p.speedup >= floor,
                "hybrid engine must stay above {floor}x at point {} (got {:.2}x)",
                p.label,
                p.speedup
            );
        }
    }

    // Tracing overhead against the baseline just measured: the flight
    // recorder must be cheap enough to leave compiled in (disabled
    // within 5%) and usable under load sweeps (1-in-64 within 15%).
    let overhead = hic_bench::nocperf::measure_trace_overhead(8, 20_000, 7, &run.points);
    println!("\n== Flight-recorder overhead (8x8 uniform) ==");
    println!(
        "{:<8} {:>16} {:>16} {:>16} {:>9} {:>9} {:>8}",
        "offered",
        "baseline cyc/s",
        "disabled cyc/s",
        "1/64 cyc/s",
        "disabled",
        "sampled",
        "events"
    );
    for p in &overhead {
        println!(
            "{:<8.2} {:>16.0} {:>16.0} {:>16.0} {:>8.2}x {:>8.2}x {:>8}",
            p.offered,
            p.baseline_cycles_per_sec,
            p.disabled_cycles_per_sec,
            p.sampled_cycles_per_sec,
            p.disabled_ratio,
            p.sampled_ratio,
            p.sampled_events
        );
        // Noise-aware bars (the `repro check` discipline): the median
        // paired ratio must clear the budget minus the run's own
        // MAD-derived noise band.
        assert!(
            p.disabled_ratio >= 0.95 - p.disabled_noise,
            "disabled tracing must stay within 5% of the untraced fast path \
             (got {:.3}, noise band {:.3}, at load {})",
            p.disabled_ratio,
            p.disabled_noise,
            p.offered
        );
        assert!(
            p.sampled_ratio >= 0.85 - p.sampled_noise,
            "1-in-64 sampled tracing must stay within 15% of the untraced fast \
             path (got {:.3}, noise band {:.3}, at load {})",
            p.sampled_ratio,
            p.sampled_noise,
            p.offered
        );
    }

    // Continuous-telemetry overhead: the NoC pulse plus a background
    // sampler at 10 Hz and 100 Hz must each stay within 5% of the
    // untelemetered fast path.
    let sampler = hic_bench::nocperf::measure_sampler_overhead(8, 20_000, 7, &run.points);
    println!("\n== Sampler overhead (8x8 uniform, pulse every 1024 cycles) ==");
    println!(
        "{:<8} {:>16} {:>16} {:>9} {:>9} {:>9} {:>8}",
        "offered", "baseline cyc/s", "pulse cyc/s", "pulse", "10 Hz", "100 Hz", "samples"
    );
    for p in &sampler {
        println!(
            "{:<8.2} {:>16.0} {:>16.0} {:>8.2}x {:>8.2}x {:>8.2}x {:>8}",
            p.offered,
            p.baseline_cycles_per_sec,
            p.pulse_cycles_per_sec,
            p.pulse_ratio,
            p.hz10_ratio,
            p.hz100_ratio,
            p.hz100_samples
        );
        for (name, ratio, noise) in [
            ("pulse alone", p.pulse_ratio, p.pulse_noise),
            ("10 Hz sampling", p.hz10_ratio, p.hz10_noise),
            ("100 Hz sampling", p.hz100_ratio, p.hz100_noise),
        ] {
            assert!(
                ratio >= 0.95 - noise,
                "{name} must stay within 5% of the untelemetered fast path \
                 (got {ratio:.3}, noise band {noise:.3}, at load {})",
                p.offered
            );
        }
    }

    // Spatial-accounting overhead: the heatmap layer must be cheap
    // enough to leave compiled in (attached-but-inert within 2%) and
    // usable on every cosim run (full windowed accounting within 10%).
    let spatial = hic_bench::nocperf::measure_spatial_overhead(8, 20_000, 7, &run.points);
    println!("\n== Spatial-accounting overhead (8x8 uniform, 1024-cycle windows) ==");
    println!(
        "{:<8} {:>16} {:>16} {:>16} {:>9} {:>9} {:>8} {:>6}",
        "offered",
        "baseline cyc/s",
        "off cyc/s",
        "windowed cyc/s",
        "off",
        "windowed",
        "windows",
        "flows"
    );
    for p in &spatial {
        println!(
            "{:<8.2} {:>16.0} {:>16.0} {:>16.0} {:>8.2}x {:>8.2}x {:>8} {:>6}",
            p.offered,
            p.baseline_cycles_per_sec,
            p.off_cycles_per_sec,
            p.windowed_cycles_per_sec,
            p.off_ratio,
            p.windowed_ratio,
            p.windowed_windows,
            p.windowed_flows
        );
        assert!(
            p.off_ratio >= 0.98 - p.off_noise,
            "inert spatial accounting must stay within 2% of the unaccounted \
             fast path (got {:.3}, noise band {:.3}, at load {})",
            p.off_ratio,
            p.off_noise,
            p.offered
        );
        assert!(
            p.windowed_ratio >= 0.90 - p.windowed_noise,
            "windowed spatial accounting must stay within 10% of the \
             unaccounted fast path (got {:.3}, noise band {:.3}, at load {})",
            p.windowed_ratio,
            p.windowed_noise,
            p.offered
        );
        assert!(
            p.windowed_windows > 0 && p.windowed_flows > 0,
            "windowed run must retain windows and attribute flows at load {}",
            p.offered
        );
    }
    // One write, after every bar above has held.
    let mut records = run.records();
    records.extend(hybrid.iter().flat_map(NocHybridPoint::records));
    records.extend(overhead.iter().flat_map(TraceOverheadPoint::records));
    records.extend(sampler.iter().flat_map(SamplerOverheadPoint::records));
    records.extend(spatial.iter().flat_map(SpatialOverheadPoint::records));
    commit("noc", records);
}

fn bench_pipeline() {
    let p = hic_bench::pipelineperf::measure(None, 3);
    println!("== Batch pipeline: warm vs cold over the four paper apps ==");
    println!(
        "{} jobs on {} workers; store {} bytes",
        p.jobs, p.workers, p.store_bytes
    );
    println!(
        "cold {:.3}s ({} misses) -> warm {:.3}s ({} hits)  speedup {:.1}x",
        p.cold_secs, p.cold_stats.misses, p.warm_secs, p.warm_stats.hits, p.speedup
    );
    assert_eq!(
        p.warm_stats.misses, 0,
        "warm batch must perform zero recomputation"
    );
    assert!(
        p.speedup >= 5.0,
        "warm batch must be at least 5x faster than cold (got {:.1}x)",
        p.speedup
    );
    commit("pipeline", p.records());
}

fn bench_serve() {
    use hic_bench::serveperf::{measure, measure_log_ratio, ServePerf};
    // The ratio comes from the same paired estimator, at the same storm
    // size and round count, that a full `repro check` gates it with.
    let p = ServePerf {
        log_ratio: measure_log_ratio(64, 2, 11),
        ..measure(200, 2)
    };
    println!("== hic serve: sustained load over apps x knob lattice ==");
    println!(
        "{} clients x {} jobs on {} workers (queue cap {})",
        p.clients, p.jobs_per_client, p.workers, p.queue_cap
    );
    println!(
        "{} submitted, {} completed, {} failed in {:.3}s -> {:.1} jobs/s",
        p.submitted, p.completed, p.failed, p.wall_secs, p.jobs_per_sec
    );
    println!(
        "latency p50 {:.2}ms  p99 {:.2}ms  hit rate {:.3}  completion {:.4}",
        p.p50_ms, p.p99_ms, p.hit_rate, p.completion
    );
    println!(
        "with info logging on: {:.3}x the logging-disabled throughput \
         (median of 11 paired 64x2 storms)",
        p.log_ratio
    );
    assert_eq!(p.failed, 0, "no job may fail under load");
    assert!(
        (p.completion - 1.0).abs() < 1e-9,
        "every submitted job must complete (got {:.4})",
        p.completion
    );
    assert!(
        p.hit_rate > 0.5,
        "the lattice is far smaller than the job count; the store must \
         serve most jobs warm (got {:.3})",
        p.hit_rate
    );
    commit("serve", p.records());
}

fn bench_workload() {
    let p = hic_bench::workloadperf::measure(64, 3);
    println!("== hic serve: generated-workload storm (gen: seed pool) ==");
    println!(
        "{} clients x {} jobs over {} distinct specs on {} workers (queue cap {})",
        p.clients, p.jobs_per_client, p.spec_pool, p.workers, p.queue_cap
    );
    println!(
        "{} submitted, {} completed, {} failed in {:.3}s -> {:.1} jobs/s ({:.1} graphs/s)",
        p.submitted, p.completed, p.failed, p.wall_secs, p.jobs_per_sec, p.graphs_per_sec
    );
    println!(
        "latency p50 {:.2}ms  p99 {:.2}ms  hit rate {:.3}  completion {:.4}",
        p.p50_ms, p.p99_ms, p.hit_rate, p.completion
    );
    assert_eq!(p.failed, 0, "no generated job may fail under load");
    assert!(
        (p.completion - 1.0).abs() < 1e-9,
        "every submitted job must complete (got {:.4})",
        p.completion
    );
    assert!(
        p.hit_rate > 0.5,
        "the seed pool is far smaller than the job count; the store must \
         serve most generated jobs warm (got {:.3})",
        p.hit_rate
    );
    commit("workload", p.records());
}

fn ablations(json: bool) {
    let sm = exp::ablation_sm_vs_noc();
    let mapping = exp::ablation_mapping();
    let dup = exp::ablation_duplication();
    let place = exp::ablation_placement();
    let links = exp::ablation_link_width();
    if json {
        let v = serde_json::json!({
            "sm_vs_noc": sm,
            "mapping": mapping,
            "duplication": dup,
            "placement": place,
            "link_width": links,
        });
        println!("{}", serde_json::to_string_pretty(&v).unwrap());
        return;
    }
    println!("== Ablations ==");
    println!(
        "SM vs NoC pair: NoC {}/{} vs SM {}/{} LUT/regs  (ratio {:.1}x)",
        sm.noc_pair.0, sm.noc_pair.1, sm.sm_pair.0, sm.sm_pair.1, sm.lut_ratio
    );
    println!("\nAdaptive mapping vs blanket attach:");
    for m in mapping {
        println!(
            "  {:<8} adaptive {}/{} vs blanket {}/{}  ({} routers saved)",
            m.app, m.adaptive.0, m.adaptive.1, m.blanket.0, m.blanket.1, m.routers_saved
        );
    }
    println!("\nDuplication overhead sweep (jpeg):");
    for d in dup {
        println!(
            "  O = {:>7} cycles: duplicated = {:<5} kernels-vs-baseline = {:.2}x",
            d.overhead_cycles, d.duplicated, d.kernels_vs_baseline
        );
    }
    println!("\nPlacement (bytes-weighted mean hops):");
    for p in place {
        println!(
            "  {:<8} optimized {:.2} vs naive {:.2}",
            p.app, p.optimized_hops, p.naive_hops
        );
    }
    println!("\nLink-width sweep (jpeg, flit-level co-simulation vs Δn model):");
    for l in links {
        println!(
            "  {:>2}-byte flits: cosim/analytic = {:.3}",
            l.flit_bytes, l.slowdown_vs_analytic
        );
    }
}
