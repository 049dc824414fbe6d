//! One Criterion bench per table/figure of the paper's evaluation: each
//! target times the full regeneration of that experiment (design +
//! analysis + simulation), and — more importantly — running `cargo bench`
//! regenerates and prints every result for EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, Criterion};
use hic_bench::experiments as exp;
use std::hint::black_box;

fn bench_fig4(c: &mut Criterion) {
    // Print once so bench logs double as experiment records.
    let rows = exp::fig4();
    for r in &rows {
        println!(
            "[fig4] {}: app {:.2}x (paper {:.2}x), kernels {:.2}x (paper {:.2}x), comm/comp {:.2}",
            r.app,
            r.app_speedup,
            r.paper_app_speedup,
            r.kernel_speedup,
            r.paper_kernel_speedup,
            r.comm_comp
        );
    }
    c.bench_function("fig4_baseline_vs_sw", |b| b.iter(|| black_box(exp::fig4())));
}

fn bench_table2(c: &mut Criterion) {
    for r in exp::table2() {
        println!("[table2] {}: {}/{} LUT/regs", r.component, r.luts, r.regs);
    }
    c.bench_function("table2_component_costs", |b| {
        b.iter(|| black_box(exp::table2()))
    });
}

fn bench_fig5(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5_jpeg_profile");
    g.sample_size(10);
    g.bench_function("real_decoder_profiled_run", |b| {
        b.iter(|| black_box(exp::fig5()))
    });
    g.finish();
}

fn bench_fig6(c: &mut Criterion) {
    println!("{}", exp::fig6().describe());
    c.bench_function("fig6_jpeg_synthesis", |b| b.iter(|| black_box(exp::fig6())));
}

fn bench_table3(c: &mut Criterion) {
    for r in exp::table3() {
        println!(
            "[table3] {}: app/sw {:.2} krn/sw {:.2} app/base {:.2} krn/base {:.2} (paper {:?}) [{}]",
            r.app, r.app_vs_sw, r.kernels_vs_sw, r.app_vs_baseline, r.kernels_vs_baseline,
            r.paper, r.solution
        );
    }
    let mut g = c.benchmark_group("table3_fig7_speedups");
    g.sample_size(10);
    g.bench_function("all_apps", |b| b.iter(|| black_box(exp::table3())));
    g.finish();
}

fn bench_table4(c: &mut Criterion) {
    for r in exp::table4() {
        println!(
            "[table4] {}: base {:?} ours {:?} noc-only {:?} saving {:.1}%/{:.1}% [{}]",
            r.app,
            r.baseline,
            r.ours,
            r.noc_only,
            r.lut_saving_vs_noc_only * 100.0,
            r.reg_saving_vs_noc_only * 100.0,
            r.solution
        );
    }
    c.bench_function("table4_resources", |b| b.iter(|| black_box(exp::table4())));
}

fn bench_fig8(c: &mut Criterion) {
    for r in exp::fig8() {
        println!(
            "[fig8] {}: interconnect/kernels = {:.3} LUTs, {:.3} regs",
            r.app, r.lut_ratio, r.reg_ratio
        );
    }
    c.bench_function("fig8_normalized_interconnect", |b| {
        b.iter(|| black_box(exp::fig8()))
    });
}

fn bench_fig9(c: &mut Criterion) {
    for r in exp::fig9() {
        println!(
            "[fig9] {}: normalized energy {:.3} (saving {:.1}%, power ratio {:.3})",
            r.app,
            r.normalized_energy,
            r.saving * 100.0,
            r.power_ratio
        );
    }
    c.bench_function("fig9_energy", |b| b.iter(|| black_box(exp::fig9())));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fig4, bench_table2, bench_fig5, bench_fig6, bench_table3,
              bench_table4, bench_fig8, bench_fig9
}
criterion_main!(benches);
