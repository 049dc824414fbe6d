//! The `repro check` performance-regression sentinel.
//!
//! Several `BENCH_*.json` sidecars are committed to the repository
//! (`repro bench-noc`, `repro bench-pipeline`, `repro bench-serve`),
//! but until now nothing
//! ever compared a fresh run against them — throughput could silently
//! erode between PRs. `repro check` closes the loop: it re-runs the NoC,
//! pipeline, serve and generated-workload benchmarks a few times, takes
//! the **median** of each
//! metric, and compares against the committed baseline with a noise band
//! derived from the run-to-run **MAD** (median absolute deviation —
//! robust to the one slow outlier a shared CI machine always produces).
//!
//! # What gates and what doesn't
//!
//! Absolute throughput (cycles/second) is machine-dependent: the
//! committed numbers came from whatever machine ran the benches last,
//! and CI hardware differs. Gating on them would make `check` fail on
//! every slower machine and pass vacuously on faster ones. So the gate
//! runs on **machine-portable ratios** — fast-vs-reference NoC speedup
//! per load point and warm-vs-cold pipeline speedup — where both sides
//! of the division ran on the *same* machine in the *same* process.
//! Absolute numbers are still printed as non-gating `info` rows.
//!
//! # The band
//!
//! ```text
//! threshold = baseline − (baseline · rel_floor  +  z · 1.4826 · MAD)
//! REGRESSED ⇔ median < threshold   (or median < abs_min, if set)
//! ```
//!
//! `rel_floor` is the genuine-regression budget (how much ratio loss we
//! tolerate across machines and allocator/layout noise), and the MAD
//! term widens the band when *this* machine's runs are noisy — a noisy
//! environment earns a wider band instead of a flaky verdict. `1.4826`
//! scales MAD to the standard deviation of a normal distribution, so
//! `z` reads like a z-score.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// MAD multiplier (in normal-equivalent standard deviations).
pub const MAD_Z: f64 = 3.0;

/// Median of `xs` (not-NaN). Returns 0.0 on empty input.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median absolute deviation of `xs` around `med`.
pub fn mad(xs: &[f64], med: f64) -> f64 {
    let devs: Vec<f64> = xs.iter().map(|x| (x - med).abs()).collect();
    median(&devs)
}

/// One metric the sentinel evaluates.
#[derive(Debug, Clone)]
pub struct GateSpec {
    /// Row label, e.g. `noc.speedup@0.5`.
    pub name: String,
    /// The committed baseline value.
    pub baseline: f64,
    /// Relative loss budget: the band is at least `baseline·rel_floor`
    /// wide. Ignored for non-gating rows.
    pub rel_floor: f64,
    /// Optional hard floor — regressed if the median falls below it no
    /// matter what the band says.
    pub abs_min: Option<f64>,
    /// `false` = informational row (absolute throughput): printed,
    /// never regressed.
    pub gating: bool,
}

/// Verdict for one gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Gating metric at or above its threshold.
    Pass,
    /// Gating metric below its threshold (or hard floor).
    Regressed,
    /// Non-gating row, reported for the record.
    Info,
    /// No fresh samples were collected for this baseline metric.
    Missing,
}

impl Verdict {
    /// Fixed-width display label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::Info => "info",
            Verdict::Missing => "MISSING",
        }
    }
}

/// One evaluated row of the verdict table.
#[derive(Debug, Clone)]
pub struct GateResult {
    /// Row label.
    pub name: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Median of the fresh samples.
    pub median: f64,
    /// MAD of the fresh samples.
    pub mad: f64,
    /// Pass/fail cut-off (baseline minus the band); 0 for info rows.
    pub threshold: f64,
    /// Number of fresh samples.
    pub samples: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Evaluate one gate against its fresh samples (see the module docs for
/// the band formula).
pub fn evaluate(spec: &GateSpec, samples: &[f64]) -> GateResult {
    let med = median(samples);
    let m = mad(samples, med);
    let band = spec.baseline * spec.rel_floor + MAD_Z * 1.4826 * m;
    let threshold = spec.baseline - band;
    let verdict = if samples.is_empty() {
        Verdict::Missing
    } else if !spec.gating {
        Verdict::Info
    } else if med < threshold || spec.abs_min.is_some_and(|floor| med < floor) {
        Verdict::Regressed
    } else {
        Verdict::Pass
    };
    GateResult {
        name: spec.name.clone(),
        baseline: spec.baseline,
        median: med,
        mad: m,
        threshold: if spec.gating { threshold } else { 0.0 },
        samples: samples.len(),
        verdict,
    }
}

/// The committed baseline values `check` gates against.
#[derive(Debug, Clone, Default)]
pub struct Baselines {
    /// `(point label, fast-vs-reference speedup)` from `BENCH_noc.json`.
    pub noc_speedups: Vec<(String, f64)>,
    /// `(point label, fast cycles/sec)` — informational only.
    pub noc_throughput: Vec<(String, f64)>,
    /// `(point label, hybrid-vs-stepper speedup, hard floor)` from
    /// `BENCH_noc_hybrid.json`; `floor: None` rows are informational.
    pub noc_hybrid: Vec<(String, f64, Option<f64>)>,
    /// `(point label, off ratio, windowed ratio)` from
    /// `BENCH_noc_heatmap.json` — the spatial-accounting overhead of the
    /// heatmap layer, attached-but-inert and fully windowed.
    pub noc_spatial: Vec<(String, f64, f64)>,
    /// Warm-vs-cold speedup from `BENCH_pipeline.json`.
    pub pipeline_speedup: f64,
    /// Fraction of submitted serve jobs that completed, from
    /// `BENCH_serve.json` — gates hard at ~1.0.
    pub serve_completion: f64,
    /// Store hit rate under serve load, from `BENCH_serve.json`.
    pub serve_hit_rate: f64,
    /// Sustained daemon throughput (jobs/s) — informational only.
    pub serve_jobs_per_sec: f64,
    /// `(p50, p99)` submit→done latency in ms — informational only
    /// (the gate machinery treats lower-is-worse; latency is the
    /// opposite, so it is recorded and printed but never gated).
    pub serve_latency_ms: (f64, f64),
    /// Logged-vs-unlogged jobs/s ratio from `BENCH_serve.json` — gates
    /// hard at ≥ 0.95 (info logging may not cost >5% throughput).
    pub serve_log_ratio: f64,
    /// Fraction of submitted generated-workload jobs that completed,
    /// from `BENCH_workload.json` — gates hard at ~1.0.
    pub workload_completion: f64,
    /// Store hit rate under the generated-workload storm, from
    /// `BENCH_workload.json`.
    pub workload_hit_rate: f64,
    /// Sustained generated-job throughput (jobs/s) — informational only.
    pub workload_jobs_per_sec: f64,
    /// Graph-delivery rate (graphs/s) — informational only.
    pub workload_graphs_per_sec: f64,
    /// `(p50, p99)` submit→done latency in ms — informational only.
    pub workload_latency_ms: (f64, f64),
}

/// Load the committed sidecars from `dir`. Missing or malformed files
/// are an error — the sentinel must not silently pass with nothing to
/// compare against.
pub fn load_baselines(dir: &Path) -> Result<Baselines, String> {
    let read = |name: &str| -> Result<serde_json::Value, String> {
        let path = dir.join(name);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        serde_json::parse(&text).map_err(|e| format!("cannot parse {name}: {e:?}"))
    };
    let f64_of = |v: &serde_json::Value, key: &str, ctx: &str| -> Result<f64, String> {
        v.get(key)
            .and_then(|x| x.as_f64())
            .ok_or_else(|| format!("{ctx}: missing numeric '{key}'"))
    };

    let label_of = |v: &serde_json::Value, ctx: &str| -> Result<String, String> {
        v.get("label")
            .and_then(|x| x.as_str())
            .map(str::to_string)
            .ok_or_else(|| format!("{ctx}: missing string 'label'"))
    };

    let noc = read("BENCH_noc.json")?;
    let points = noc
        .as_seq()
        .ok_or_else(|| "BENCH_noc.json: expected an array of load points".to_string())?;
    let mut noc_speedups = Vec::new();
    let mut noc_throughput = Vec::new();
    for p in points {
        let label = label_of(p, "BENCH_noc.json point")?;
        noc_speedups.push((label.clone(), f64_of(p, "speedup", "BENCH_noc.json point")?));
        noc_throughput.push((
            label,
            f64_of(p, "fast_cycles_per_sec", "BENCH_noc.json point")?,
        ));
    }
    if noc_speedups.is_empty() {
        return Err("BENCH_noc.json: no load points".into());
    }

    let hybrid = read("BENCH_noc_hybrid.json")?;
    let points = hybrid
        .as_seq()
        .ok_or_else(|| "BENCH_noc_hybrid.json: expected an array of points".to_string())?;
    let mut noc_hybrid = Vec::new();
    for p in points {
        let label = label_of(p, "BENCH_noc_hybrid.json point")?;
        let speedup = f64_of(p, "speedup", "BENCH_noc_hybrid.json point")?;
        // `floor` is honestly optional: absent or null means info-only.
        let floor = p.get("floor").and_then(|x| x.as_f64());
        noc_hybrid.push((label, speedup, floor));
    }
    if noc_hybrid.is_empty() {
        return Err("BENCH_noc_hybrid.json: no points".into());
    }

    let spatial = read("BENCH_noc_heatmap.json")?;
    let points = spatial
        .as_seq()
        .ok_or_else(|| "BENCH_noc_heatmap.json: expected an array of points".to_string())?;
    let mut noc_spatial = Vec::new();
    for p in points {
        let label = label_of(p, "BENCH_noc_heatmap.json point")?;
        let off = f64_of(p, "off_ratio", "BENCH_noc_heatmap.json point")?;
        let windowed = f64_of(p, "windowed_ratio", "BENCH_noc_heatmap.json point")?;
        noc_spatial.push((label, off, windowed));
    }
    if noc_spatial.is_empty() {
        return Err("BENCH_noc_heatmap.json: no points".into());
    }

    let pipe = read("BENCH_pipeline.json")?;
    let pipeline_speedup = f64_of(&pipe, "speedup", "BENCH_pipeline.json")?;

    let serve = read("BENCH_serve.json")?;
    let serve_completion = f64_of(&serve, "completion", "BENCH_serve.json")?;
    let serve_hit_rate = f64_of(&serve, "hit_rate", "BENCH_serve.json")?;
    let serve_jobs_per_sec = f64_of(&serve, "jobs_per_sec", "BENCH_serve.json")?;
    let serve_latency_ms = (
        f64_of(&serve, "p50_ms", "BENCH_serve.json")?,
        f64_of(&serve, "p99_ms", "BENCH_serve.json")?,
    );
    let serve_log_ratio = f64_of(&serve, "log_ratio", "BENCH_serve.json")?;

    let workload = read("BENCH_workload.json")?;
    let workload_completion = f64_of(&workload, "completion", "BENCH_workload.json")?;
    let workload_hit_rate = f64_of(&workload, "hit_rate", "BENCH_workload.json")?;
    let workload_jobs_per_sec = f64_of(&workload, "jobs_per_sec", "BENCH_workload.json")?;
    let workload_graphs_per_sec = f64_of(&workload, "graphs_per_sec", "BENCH_workload.json")?;
    let workload_latency_ms = (
        f64_of(&workload, "p50_ms", "BENCH_workload.json")?,
        f64_of(&workload, "p99_ms", "BENCH_workload.json")?,
    );

    Ok(Baselines {
        noc_speedups,
        noc_throughput,
        noc_hybrid,
        noc_spatial,
        pipeline_speedup,
        serve_completion,
        serve_hit_rate,
        serve_jobs_per_sec,
        serve_latency_ms,
        serve_log_ratio,
        workload_completion,
        workload_hit_rate,
        workload_jobs_per_sec,
        workload_graphs_per_sec,
        workload_latency_ms,
    })
}

/// Fresh benchmark samples, keyed by gate name.
pub type Samples = BTreeMap<String, Vec<f64>>;

/// Gate label for a NoC load point. Keys are the point's stable string
/// label, not a formatted offered load — `{offered:.1}` collapsed 0.01
/// and a hypothetical 0.04 onto the same `@0.0` key.
fn noc_key(label: &str) -> String {
    format!("noc.speedup@{label}")
}

fn noc_tput_key(label: &str) -> String {
    format!("noc.cycles_per_sec@{label}")
}

fn noc_hybrid_key(label: &str) -> String {
    format!("noc.hybrid_speedup@{label}")
}

fn noc_spatial_off_key(label: &str) -> String {
    format!("noc.spatial_off@{label}")
}

fn noc_spatial_windowed_key(label: &str) -> String {
    format!("noc.spatial_windowed@{label}")
}

/// Interleaved rounds behind each `noc.spatial_*` sample.
const SPATIAL_REPEATS: u32 = 5;

/// Re-run the benchmarks and collect per-gate samples. `quick` trades
/// statistical depth for CI latency: fewer and shorter runs (the
/// rel_floor part of the band carries the verdict when MAD has little
/// data).
pub fn collect_samples(quick: bool) -> Samples {
    let (cycles, noc_runs, hybrid_runs, pipe_runs) = if quick {
        (6_000, 2, 1, 1)
    } else {
        (20_000, 3, 2, 2)
    };
    let mut samples: Samples = BTreeMap::new();
    for _ in 0..noc_runs {
        let run = crate::nocperf::measure(8, cycles, 1);
        for p in &run.points {
            samples
                .entry(noc_key(&p.label))
                .or_default()
                .push(p.speedup);
            samples
                .entry(noc_tput_key(&p.label))
                .or_default()
                .push(p.fast_cycles_per_sec);
        }
        // Spatial-accounting overhead rides each NoC round: per load
        // point, the median of SPATIAL_REPEATS paired ratios from
        // interleaved runs whose order rotates, so one slow run or the
        // round's cold start cannot sink the gate. Each NoC round adds
        // one sample, so MAD still sees run-to-run scatter.
        for p in crate::nocperf::measure_spatial_overhead(8, cycles, SPATIAL_REPEATS, &run.points) {
            samples
                .entry(noc_spatial_off_key(&p.label))
                .or_default()
                .push(p.off_ratio);
            samples
                .entry(noc_spatial_windowed_key(&p.label))
                .or_default()
                .push(p.windowed_ratio);
        }
    }
    // The hybrid points are self-sized (mostly-idle spans are nearly
    // free), so quick mode only trims the repeat count.
    for _ in 0..hybrid_runs {
        for p in crate::nocperf::measure_hybrid(1) {
            samples
                .entry(noc_hybrid_key(&p.label))
                .or_default()
                .push(p.speedup);
        }
    }
    // Best of 3 warm runs per sample, the estimator `BENCH_pipeline.json`
    // was recorded with: the gate asks whether the cache works, and one
    // warm run against a fast cold path reads the warm run's noise.
    for _ in 0..pipe_runs {
        let p = crate::pipelineperf::measure(None, 3);
        samples
            .entry("pipeline.speedup".into())
            .or_default()
            .push(p.speedup);
    }
    // One serve storm is enough: the gated columns (completion, hit
    // rate) are structural, not wall-clock, so they don't need the
    // median-of-k treatment — but they must be measured fresh.
    let (serve_clients, serve_jobs) = if quick { (24, 2) } else { (64, 2) };
    let s = crate::serveperf::measure(serve_clients, serve_jobs);
    samples.insert("serve.completion".into(), vec![s.completion]);
    samples.insert("serve.hit_rate".into(), vec![s.hit_rate]);
    samples.insert("serve.jobs_per_sec".into(), vec![s.jobs_per_sec]);
    samples.insert("serve.p50_ms".into(), vec![s.p50_ms]);
    samples.insert("serve.p99_ms".into(), vec![s.p99_ms]);
    // The logging-overhead ratio gates hard at ≥0.95, so it gets the
    // paired median of interleaved rounds with a rotating order, not a
    // one-shot pair (±15% noisy on short storms).
    let ratio_rounds = if quick { 9 } else { 11 };
    samples.insert(
        "serve.log_ratio".into(),
        vec![crate::serveperf::measure_log_ratio(
            serve_clients,
            serve_jobs,
            ratio_rounds,
        )],
    );
    // Same discipline for the generated-workload storm: one fresh run,
    // gated on the structural columns only.
    let (wl_clients, wl_jobs) = if quick { (16, 2) } else { (48, 3) };
    let w = crate::workloadperf::measure(wl_clients, wl_jobs);
    samples.insert("workload.completion".into(), vec![w.completion]);
    samples.insert("workload.hit_rate".into(), vec![w.hit_rate]);
    samples.insert("workload.jobs_per_sec".into(), vec![w.jobs_per_sec]);
    samples.insert("workload.graphs_per_sec".into(), vec![w.graphs_per_sec]);
    samples.insert("workload.p50_ms".into(), vec![w.p50_ms]);
    samples.insert("workload.p99_ms".into(), vec![w.p99_ms]);
    samples
}

/// The gate table for a set of baselines. The loss budgets are wide on
/// purpose: `check` is a sentinel for *structural* regressions (an
/// accidentally quadratic path, a lock in the hot loop), not a
/// micro-benchmark judge — debug-vs-release, CPU-governor and
/// neighbouring-load effects must not page anyone.
pub fn gate_specs(b: &Baselines) -> Vec<GateSpec> {
    let mut specs = Vec::new();
    for (label, speedup) in &b.noc_speedups {
        specs.push(GateSpec {
            name: noc_key(label),
            baseline: *speedup,
            // The fast path is ≥2.2x everywhere; losing a third of the
            // ratio means the fast path itself decayed.
            rel_floor: 0.35,
            abs_min: Some(1.2),
            gating: true,
        });
    }
    for (label, cps) in &b.noc_throughput {
        specs.push(GateSpec {
            name: noc_tput_key(label),
            baseline: *cps,
            rel_floor: 0.0,
            abs_min: None,
            gating: false,
        });
    }
    for (label, speedup, floor) in &b.noc_hybrid {
        specs.push(GateSpec {
            name: noc_hybrid_key(label),
            baseline: *speedup,
            // Skip-ahead ratios swing with how much of the span is idle;
            // the hard floor from the sidecar carries the real claim
            // (≥5x on the bursty point, ≥0.7x no-regression on uniform).
            rel_floor: 0.5,
            abs_min: *floor,
            gating: floor.is_some(),
        });
    }
    for (label, off, windowed) in &b.noc_spatial {
        // The bench-time bars (≥0.98x inert, ≥0.90x windowed, minus the
        // run's own noise band) carry the tight claim with 7 interleaved
        // repeats; the check-time floors are looser because each fresh
        // sample here is the median of only SPATIAL_REPEATS short paired
        // rounds — they catch structural regressions (accounting
        // accidentally always-on, a lock on the step path), not
        // percent-level drift.
        specs.push(GateSpec {
            name: noc_spatial_off_key(label),
            baseline: *off,
            rel_floor: 0.07,
            abs_min: Some(0.90),
            gating: true,
        });
        specs.push(GateSpec {
            name: noc_spatial_windowed_key(label),
            baseline: *windowed,
            rel_floor: 0.12,
            abs_min: Some(0.75),
            gating: true,
        });
    }
    specs.push(GateSpec {
        name: "pipeline.speedup".into(),
        baseline: b.pipeline_speedup,
        // Warm-vs-cold varies with disk cache state; the hard floor is
        // the same ≥5x bar `repro bench-pipeline` asserts.
        rel_floor: 0.75,
        abs_min: Some(5.0),
        gating: true,
    });
    // Serve gates run on the structural columns: every job must
    // complete (retries absorb admission rejections, so anything below
    // ~1.0 means lost jobs) and the store must serve the lattice warm.
    specs.push(GateSpec {
        name: "serve.completion".into(),
        baseline: b.serve_completion,
        rel_floor: 0.001,
        abs_min: Some(0.999),
        gating: true,
    });
    specs.push(GateSpec {
        name: "serve.hit_rate".into(),
        baseline: b.serve_hit_rate,
        // The hit rate moves with the clients-to-lattice ratio of the
        // fresh storm; gate only on a collapse (cache effectively off).
        rel_floor: 0.5,
        abs_min: Some(0.25),
        gating: true,
    });
    specs.push(GateSpec {
        name: "serve.jobs_per_sec".into(),
        baseline: b.serve_jobs_per_sec,
        rel_floor: 0.0,
        abs_min: None,
        gating: false,
    });
    specs.push(GateSpec {
        name: "serve.p50_ms".into(),
        baseline: b.serve_latency_ms.0,
        rel_floor: 0.0,
        abs_min: None,
        gating: false,
    });
    specs.push(GateSpec {
        name: "serve.p99_ms".into(),
        baseline: b.serve_latency_ms.1,
        rel_floor: 0.0,
        abs_min: None,
        gating: false,
    });
    // Logging overhead: the ≥0.95 absolute floor carries the claim
    // (info logging may not cost the daemon >5% throughput); the
    // relative band is loose since the ratio is noisy on shared hosts.
    specs.push(GateSpec {
        name: "serve.log_ratio".into(),
        baseline: b.serve_log_ratio,
        rel_floor: 0.5,
        abs_min: Some(0.95),
        gating: true,
    });
    // Generated-workload gates mirror the serve ones: completion is
    // structural (retries absorb admission rejections), and the seed
    // pool guarantees a warm store, so only a collapse gates.
    specs.push(GateSpec {
        name: "workload.completion".into(),
        baseline: b.workload_completion,
        rel_floor: 0.001,
        abs_min: Some(0.999),
        gating: true,
    });
    specs.push(GateSpec {
        name: "workload.hit_rate".into(),
        baseline: b.workload_hit_rate,
        rel_floor: 0.5,
        abs_min: Some(0.25),
        gating: true,
    });
    specs.push(GateSpec {
        name: "workload.jobs_per_sec".into(),
        baseline: b.workload_jobs_per_sec,
        rel_floor: 0.0,
        abs_min: None,
        gating: false,
    });
    specs.push(GateSpec {
        name: "workload.graphs_per_sec".into(),
        baseline: b.workload_graphs_per_sec,
        rel_floor: 0.0,
        abs_min: None,
        gating: false,
    });
    specs.push(GateSpec {
        name: "workload.p50_ms".into(),
        baseline: b.workload_latency_ms.0,
        rel_floor: 0.0,
        abs_min: None,
        gating: false,
    });
    specs.push(GateSpec {
        name: "workload.p99_ms".into(),
        baseline: b.workload_latency_ms.1,
        rel_floor: 0.0,
        abs_min: None,
        gating: false,
    });
    specs
}

/// The sentinel's outcome: every row plus the overall verdict.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// One row per gate, in spec order.
    pub rows: Vec<GateResult>,
    /// True when any gating row regressed (or had no samples).
    pub regressed: bool,
}

/// Evaluate `samples` against `baselines` — the pure core of `repro
/// check`, separated from benchmark execution so the regression and
/// pass paths are unit-testable with synthetic samples.
pub fn check(baselines: &Baselines, samples: &Samples) -> CheckReport {
    static EMPTY: Vec<f64> = Vec::new();
    let rows: Vec<GateResult> = gate_specs(baselines)
        .iter()
        .map(|spec| evaluate(spec, samples.get(&spec.name).unwrap_or(&EMPTY)))
        .collect();
    let regressed = rows
        .iter()
        .any(|r| matches!(r.verdict, Verdict::Regressed | Verdict::Missing));
    CheckReport { rows, regressed }
}

/// Render the verdict table.
pub fn render(report: &CheckReport) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<26} {:>12} {:>12} {:>12} {:>8} {:>4}  verdict",
        "metric", "baseline", "median", "threshold", "mad", "n"
    )
    .unwrap();
    for r in &report.rows {
        writeln!(
            out,
            "{:<26} {:>12.3} {:>12.3} {:>12.3} {:>8.3} {:>4}  {}",
            r.name,
            r.baseline,
            r.median,
            r.threshold,
            r.mad,
            r.samples,
            r.verdict.label()
        )
        .unwrap();
    }
    writeln!(
        out,
        "\noverall: {}",
        if report.regressed {
            "REGRESSED — at least one gating metric fell below its noise band"
        } else {
            "ok — all gating metrics within their noise bands"
        }
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baselines() -> Baselines {
        Baselines {
            noc_speedups: vec![
                ("0.1".into(), 3.43),
                ("0.5".into(), 2.36),
                ("0.9".into(), 2.21),
            ],
            noc_throughput: vec![
                ("0.1".into(), 497_000.0),
                ("0.5".into(), 91_000.0),
                ("0.9".into(), 81_000.0),
            ],
            noc_hybrid: vec![
                ("bursty-32".into(), 40.0, Some(5.0)),
                ("uniform-32".into(), 1.0, Some(0.7)),
                ("bursty-64".into(), 25.0, None),
            ],
            noc_spatial: vec![
                ("0.1".into(), 0.99, 0.96),
                ("0.5".into(), 0.99, 0.95),
                ("0.9".into(), 0.98, 0.94),
            ],
            pipeline_speedup: 30.0,
            serve_completion: 1.0,
            serve_hit_rate: 0.9,
            serve_jobs_per_sec: 150.0,
            serve_latency_ms: (12.0, 80.0),
            serve_log_ratio: 0.99,
            workload_completion: 1.0,
            workload_hit_rate: 0.85,
            workload_jobs_per_sec: 120.0,
            workload_graphs_per_sec: 95.0,
            workload_latency_ms: (15.0, 95.0),
        }
    }

    fn healthy_samples(b: &Baselines) -> Samples {
        let mut s = Samples::new();
        for (label, speedup) in &b.noc_speedups {
            // Honest run-to-run jitter around the baseline.
            s.insert(
                noc_key(label),
                vec![speedup * 0.97, speedup * 1.02, speedup * 0.99],
            );
            s.insert(noc_tput_key(label), vec![1.0, 1.0, 1.0]);
        }
        for (label, speedup, _) in &b.noc_hybrid {
            s.insert(noc_hybrid_key(label), vec![speedup * 0.95, speedup * 1.01]);
        }
        for (label, off, windowed) in &b.noc_spatial {
            s.insert(
                noc_spatial_off_key(label),
                vec![off * 0.99, off * 1.01, *off],
            );
            s.insert(
                noc_spatial_windowed_key(label),
                vec![windowed * 0.98, windowed * 1.02, *windowed],
            );
        }
        s.insert("pipeline.speedup".into(), vec![28.0, 31.0]);
        s.insert("serve.completion".into(), vec![1.0]);
        s.insert("serve.hit_rate".into(), vec![0.85]);
        s.insert("serve.jobs_per_sec".into(), vec![140.0]);
        s.insert("serve.p50_ms".into(), vec![13.0]);
        s.insert("serve.p99_ms".into(), vec![90.0]);
        s.insert("serve.log_ratio".into(), vec![0.98]);
        s.insert("workload.completion".into(), vec![1.0]);
        s.insert("workload.hit_rate".into(), vec![0.8]);
        s.insert("workload.jobs_per_sec".into(), vec![110.0]);
        s.insert("workload.graphs_per_sec".into(), vec![90.0]);
        s.insert("workload.p50_ms".into(), vec![16.0]);
        s.insert("workload.p99_ms".into(), vec![100.0]);
        s
    }

    #[test]
    fn median_and_mad_are_robust_to_one_outlier() {
        let xs = [3.0, 3.1, 2.9, 0.5];
        let med = median(&xs);
        assert!((med - 2.95).abs() < 1e-9);
        // One catastrophic outlier barely moves MAD.
        assert!(mad(&xs, med) < 0.3, "{}", mad(&xs, med));
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn healthy_run_passes_every_gate() {
        let b = baselines();
        let report = check(&b, &healthy_samples(&b));
        assert!(!report.regressed, "{}", render(&report));
        assert!(report
            .rows
            .iter()
            .filter(|r| r.name.starts_with("noc.speedup") || r.name == "pipeline.speedup")
            .all(|r| r.verdict == Verdict::Pass));
        // Absolute throughput rows never gate, however absurd.
        assert!(report
            .rows
            .iter()
            .filter(|r| r.name.starts_with("noc.cycles_per_sec"))
            .all(|r| r.verdict == Verdict::Info));
        // Hybrid rows gate exactly when the sidecar carries a floor.
        let verdict = |name: &str| {
            report
                .rows
                .iter()
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("missing row {name}"))
                .verdict
        };
        assert_eq!(verdict("noc.hybrid_speedup@bursty-32"), Verdict::Pass);
        assert_eq!(verdict("noc.hybrid_speedup@uniform-32"), Verdict::Pass);
        assert_eq!(verdict("noc.hybrid_speedup@bursty-64"), Verdict::Info);
        // Spatial-accounting overhead gates at every load point.
        assert_eq!(verdict("noc.spatial_off@0.5"), Verdict::Pass);
        assert_eq!(verdict("noc.spatial_windowed@0.5"), Verdict::Pass);
        // Serve: the structural columns gate, the wall-clock ones don't.
        assert_eq!(verdict("serve.completion"), Verdict::Pass);
        assert_eq!(verdict("serve.hit_rate"), Verdict::Pass);
        assert_eq!(verdict("serve.jobs_per_sec"), Verdict::Info);
        assert_eq!(verdict("serve.p50_ms"), Verdict::Info);
        assert_eq!(verdict("serve.p99_ms"), Verdict::Info);
        assert_eq!(verdict("serve.log_ratio"), Verdict::Pass);
        // Generated workload: same split.
        assert_eq!(verdict("workload.completion"), Verdict::Pass);
        assert_eq!(verdict("workload.hit_rate"), Verdict::Pass);
        assert_eq!(verdict("workload.jobs_per_sec"), Verdict::Info);
        assert_eq!(verdict("workload.graphs_per_sec"), Verdict::Info);
        assert_eq!(verdict("workload.p50_ms"), Verdict::Info);
        assert_eq!(verdict("workload.p99_ms"), Verdict::Info);
    }

    #[test]
    fn costly_logging_trips_the_log_ratio_floor() {
        let b = baselines();
        let mut s = healthy_samples(&b);
        // 8% throughput loss with logging on: past the 5% budget.
        s.insert("serve.log_ratio".into(), vec![0.92]);
        let report = check(&b, &s);
        assert!(report.regressed, "{}", render(&report));
        let row = report
            .rows
            .iter()
            .find(|r| r.name == "serve.log_ratio")
            .unwrap();
        assert_eq!(row.verdict, Verdict::Regressed);
    }

    #[test]
    fn lost_generated_jobs_trip_the_workload_completion_floor() {
        let b = baselines();
        let mut s = healthy_samples(&b);
        s.insert("workload.completion".into(), vec![0.99]);
        let report = check(&b, &s);
        assert!(report.regressed, "{}", render(&report));
        let row = report
            .rows
            .iter()
            .find(|r| r.name == "workload.completion")
            .unwrap();
        assert_eq!(row.verdict, Verdict::Regressed);
    }

    #[test]
    fn collapsed_workload_hit_rate_regresses() {
        let b = baselines();
        let mut s = healthy_samples(&b);
        // Cache-key canonicalization broke: every respelled/revisited
        // spec recomputes instead of hitting the store.
        s.insert("workload.hit_rate".into(), vec![0.1]);
        let report = check(&b, &s);
        assert!(report.regressed, "{}", render(&report));
        let row = report
            .rows
            .iter()
            .find(|r| r.name == "workload.hit_rate")
            .unwrap();
        assert_eq!(row.verdict, Verdict::Regressed);
    }

    #[test]
    fn lost_serve_jobs_trip_the_completion_floor() {
        let b = baselines();
        let mut s = healthy_samples(&b);
        // 1 of 128 jobs vanished: completion 0.992 < the 0.999 floor.
        s.insert("serve.completion".into(), vec![0.992]);
        let report = check(&b, &s);
        assert!(report.regressed, "{}", render(&report));
        let row = report
            .rows
            .iter()
            .find(|r| r.name == "serve.completion")
            .unwrap();
        assert_eq!(row.verdict, Verdict::Regressed);
    }

    #[test]
    fn collapsed_serve_hit_rate_regresses() {
        let b = baselines();
        let mut s = healthy_samples(&b);
        // Cache effectively off: every job recomputed.
        s.insert("serve.hit_rate".into(), vec![0.05]);
        let report = check(&b, &s);
        assert!(report.regressed, "{}", render(&report));
        let row = report
            .rows
            .iter()
            .find(|r| r.name == "serve.hit_rate")
            .unwrap();
        assert_eq!(row.verdict, Verdict::Regressed);
    }

    #[test]
    fn spatial_accounting_gone_always_on_regresses() {
        let b = baselines();
        let mut s = healthy_samples(&b);
        // The inert configuration now pays the full windowed cost: a
        // structural regression (the off-switch broke), well below the
        // 0.90 hard floor.
        s.insert(noc_spatial_off_key("0.5"), vec![0.84, 0.86, 0.85]);
        let report = check(&b, &s);
        assert!(report.regressed, "{}", render(&report));
        let row = report
            .rows
            .iter()
            .find(|r| r.name == "noc.spatial_off@0.5")
            .unwrap();
        assert_eq!(row.verdict, Verdict::Regressed);
    }

    #[test]
    fn collapsed_windowed_spatial_throughput_regresses() {
        let b = baselines();
        let mut s = healthy_samples(&b);
        // Windowed accounting fell to ~60% of baseline throughput —
        // below the 0.75 hard floor no noise band can excuse.
        s.insert(noc_spatial_windowed_key("0.9"), vec![0.61, 0.59, 0.60]);
        let report = check(&b, &s);
        assert!(report.regressed, "{}", render(&report));
        let row = report
            .rows
            .iter()
            .find(|r| r.name == "noc.spatial_windowed@0.9")
            .unwrap();
        assert_eq!(row.verdict, Verdict::Regressed);
    }

    #[test]
    fn hybrid_speedup_below_its_hard_floor_regresses() {
        let b = baselines();
        let mut s = healthy_samples(&b);
        // Skip-ahead collapsed: the gated bursty point runs at stepper
        // speed, far below both the noise band and the ≥5x sidecar floor.
        s.insert(noc_hybrid_key("bursty-32"), vec![0.98, 1.03]);
        let report = check(&b, &s);
        assert!(report.regressed, "{}", render(&report));
        let row = report
            .rows
            .iter()
            .find(|r| r.name == "noc.hybrid_speedup@bursty-32")
            .unwrap();
        assert_eq!(row.verdict, Verdict::Regressed);
    }

    #[test]
    fn synthetically_degraded_run_regresses() {
        let b = baselines();
        let mut s = healthy_samples(&b);
        // The fast path decayed to ~reference speed at every load.
        for (label, _) in &b.noc_speedups {
            s.insert(noc_key(label), vec![1.02, 1.05, 0.98]);
        }
        let report = check(&b, &s);
        assert!(report.regressed, "{}", render(&report));
        let degraded: Vec<_> = report
            .rows
            .iter()
            .filter(|r| r.verdict == Verdict::Regressed)
            .map(|r| r.name.clone())
            .collect();
        assert_eq!(
            degraded,
            vec!["noc.speedup@0.1", "noc.speedup@0.5", "noc.speedup@0.9"]
        );
        assert!(render(&report).contains("REGRESSED"));
    }

    #[test]
    fn degraded_pipeline_speedup_trips_the_hard_floor() {
        let b = baselines();
        let mut s = healthy_samples(&b);
        // Below the 5x hard floor even though MAD noise is tiny.
        s.insert("pipeline.speedup".into(), vec![3.9, 4.1]);
        let report = check(&b, &s);
        assert!(report.regressed);
        let row = report
            .rows
            .iter()
            .find(|r| r.name == "pipeline.speedup")
            .unwrap();
        assert_eq!(row.verdict, Verdict::Regressed);
    }

    #[test]
    fn noisy_environment_widens_the_band_instead_of_flaking() {
        // Median sits 30% below baseline — outside the plain rel_floor
        // band (threshold = 2.0·0.65 = 1.3 < 1.4? no: 1.4 > 1.3 passes
        // anyway)… so use 40% below, which fails with zero MAD but must
        // pass once run-to-run scatter widens the band.
        let spec = GateSpec {
            name: "x".into(),
            baseline: 2.0,
            rel_floor: 0.35,
            abs_min: None,
            gating: true,
        };
        let calm = evaluate(&spec, &[1.2, 1.2, 1.2]);
        assert_eq!(calm.verdict, Verdict::Regressed);
        let noisy = evaluate(&spec, &[1.2, 0.6, 2.4]);
        assert_eq!(
            noisy.verdict,
            Verdict::Pass,
            "threshold {} vs median {}",
            noisy.threshold,
            noisy.median
        );
    }

    #[test]
    fn missing_samples_fail_loudly() {
        let b = baselines();
        let report = check(&b, &Samples::new());
        assert!(report.regressed);
        assert!(report.rows.iter().all(|r| r.verdict == Verdict::Missing));
    }

    #[test]
    fn committed_sidecars_load_as_baselines() {
        // The real committed files at the repository root.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let b = load_baselines(&root).expect("committed sidecars parse");
        assert_eq!(b.noc_speedups.len(), 5);
        assert!(b.noc_speedups.iter().all(|(_, s)| *s > 1.0));
        assert_eq!(b.noc_hybrid.len(), 3);
        // The gated bursty point's committed floor is the ≥5x claim.
        let bursty = b
            .noc_hybrid
            .iter()
            .find(|(l, _, _)| l == "bursty-32")
            .expect("bursty-32 point");
        assert_eq!(bursty.2, Some(5.0));
        assert!(bursty.1 >= 5.0, "committed hybrid speedup {}", bursty.1);
        // The committed spatial-overhead record carries the heatmap
        // layer's cost claims at every classic-uniform load point.
        assert_eq!(b.noc_spatial.len(), 3);
        for (label, off, windowed) in &b.noc_spatial {
            assert!(*off >= 0.9, "committed off ratio {off} at {label}");
            assert!(
                *windowed >= 0.8,
                "committed windowed ratio {windowed} at {label}"
            );
        }
        assert!(b.pipeline_speedup > 5.0);
        // The committed serve record must carry the gated claims.
        assert!(b.serve_completion >= 0.999, "{}", b.serve_completion);
        assert!(b.serve_hit_rate > 0.5, "{}", b.serve_hit_rate);
        assert!(b.serve_jobs_per_sec > 0.0);
        assert!(b.serve_latency_ms.1 >= b.serve_latency_ms.0);
        // The committed generated-workload record carries the same
        // structural claims as the serve one.
        assert!(b.workload_completion >= 0.999, "{}", b.workload_completion);
        assert!(b.workload_hit_rate > 0.5, "{}", b.workload_hit_rate);
        assert!(b.workload_jobs_per_sec > 0.0);
        assert!(b.workload_graphs_per_sec > 0.0);
        assert!(b.workload_latency_ms.1 >= b.workload_latency_ms.0);
    }
}
