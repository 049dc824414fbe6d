//! The bench-record schema and the `repro check` performance-regression
//! sentinel.
//!
//! Every `repro bench-*` subcommand records its measurements in one
//! committed file, [`BENCH_FILE`] (`BENCH.json`): an array of
//! [`BenchRecord`]s, one per line. Each measurement struct spells its
//! rows once, in a `records()` function that also sets each row's
//! [`Kind`], band and floor (`nocperf`, `pipelineperf`, `serveperf`,
//! `workloadperf`). `repro check` calls the same functions on fresh
//! runs: it re-runs the NoC, pipeline, serve and generated-workload
//! benchmarks a few times, takes the **median** of each key's samples,
//! and compares it against the committed record with a noise band
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
//! Hence the three kinds of row:
//!
//! * `gate` — a portable ratio, checked against its band and floor;
//! * `info` — an absolute rate, printed but never gated (each bench
//!   writes `<prefix>.host_cores` beside it, and `check` prints the
//!   current core count, so a rate can be read against its host);
//! * `record` — a bench-time number `check` never re-measures (counts,
//!   recorder/sampler overheads, network metrics): skipped.
//!
//! # The band
//!
//! ```text
//! threshold = baseline − (baseline · band  +  z · 1.4826 · MAD)
//! REGRESSED ⇔ median < threshold   (or median < floor, if set)
//! ```
//!
//! `band` is the genuine-regression budget (how much ratio loss we
//! tolerate across machines and allocator/layout noise), and the MAD
//! term widens the band when *this* machine's runs are noisy — a noisy
//! environment earns a wider band instead of a flaky verdict. `1.4826`
//! scales MAD to the standard deviation of a normal distribution, so
//! `z` reads like a z-score. The loss budgets are wide on purpose:
//! `check` is a sentinel for *structural* regressions (an accidentally
//! quadratic path, a lock in the hot loop), not a micro-benchmark judge
//! — debug-vs-release, CPU-governor and neighbouring-load effects must
//! not page anyone.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// The committed bench-record file, relative to the repository root.
pub const BENCH_FILE: &str = "BENCH.json";

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

/// What `repro check` does with a [`BenchRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Machine-portable ratio: regressed below its band or floor.
    Gate,
    /// Absolute rate: printed next to the gates, never regressed.
    Info,
    /// Bench-time number `check` does not re-measure: skipped.
    Record,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Gate => "gate",
            Kind::Info => "info",
            Kind::Record => "record",
        }
    }
}

/// One row of [`BENCH_FILE`].
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Row key, e.g. `noc.speedup@0.5`: a prefix naming the bench
    /// (`noc.`, `pipeline.`, `serve.`, `workload.`), a metric, and for
    /// per-point metrics `@` plus the point's label.
    pub key: String,
    /// The measured value.
    pub value: f64,
    /// How `check` treats the row.
    pub kind: Kind,
    /// Relative loss budget of a gate row: the band is at least
    /// `value·band` wide. 0 on info and record rows.
    pub band: f64,
    /// Optional hard floor of a gate row — regressed if the median falls
    /// below it no matter what the band says.
    pub floor: Option<f64>,
    /// MAD-derived noise band (`3·1.4826·MAD`) of a value the bench took
    /// as a median of paired rounds.
    pub noise: Option<f64>,
}

impl BenchRecord {
    /// A gated row.
    pub fn gate(key: impl Into<String>, value: f64, band: f64, floor: Option<f64>) -> Self {
        BenchRecord {
            key: key.into(),
            value,
            kind: Kind::Gate,
            band,
            floor,
            noise: None,
        }
    }

    /// An informational row.
    pub fn info(key: impl Into<String>, value: f64) -> Self {
        BenchRecord {
            kind: Kind::Info,
            ..BenchRecord::record(key, value)
        }
    }

    /// A bench-time-only row.
    pub fn record(key: impl Into<String>, value: f64) -> Self {
        BenchRecord {
            key: key.into(),
            value,
            kind: Kind::Record,
            band: 0.0,
            floor: None,
            noise: None,
        }
    }

    /// The same row with its bench-time noise band attached.
    pub fn with_noise(self, noise: f64) -> Self {
        BenchRecord {
            noise: Some(noise),
            ..self
        }
    }

    fn to_json(&self) -> String {
        let num = |x: f64| serde_json::to_string(&x).expect("a number serializes");
        let key = serde_json::to_string(&self.key).expect("a string serializes");
        let mut fields = vec![
            format!("\"key\": {key}"),
            format!("\"value\": {}", num(self.value)),
            format!("\"kind\": \"{}\"", self.kind.label()),
        ];
        if self.kind == Kind::Gate {
            fields.push(format!("\"band\": {}", num(self.band)));
        }
        for (name, x) in [("floor", self.floor), ("noise", self.noise)] {
            fields.extend(x.map(|x| format!("\"{name}\": {}", num(x))));
        }
        format!("{{{}}}", fields.join(", "))
    }

    fn from_json(v: &serde_json::Value) -> Result<Self, String> {
        let key = v
            .get("key")
            .and_then(|k| k.as_str())
            .ok_or("record without a string 'key'")?;
        let number = |name: &str| v.get(name).and_then(|x| x.as_f64());
        let kind = match v.get("kind").and_then(|k| k.as_str()) {
            Some("gate") => Kind::Gate,
            Some("info") => Kind::Info,
            Some("record") => Kind::Record,
            other => return Err(format!("{key}: kind {other:?} is not gate, info or record")),
        };
        Ok(BenchRecord {
            key: key.to_string(),
            value: number("value").ok_or_else(|| format!("{key}: missing numeric 'value'"))?,
            kind,
            band: number("band").unwrap_or(0.0),
            floor: number("floor"),
            noise: number("noise"),
        })
    }
}

/// `rows` (a measurement's gate and info rows) followed by a `record`
/// row for every other number in `measurement`, keyed
/// `{prefix}.{field}{suffix}` — nested fields by their dotted path,
/// `suffix` `""` or `@label`. Fields named in `skip` or whose key `rows`
/// already has are left out, and strings and `None`s are not numbers. A
/// `<stem>_noise` field is the noise band of `<stem>_ratio`: it rides on
/// that row and leaves none of its own.
pub fn with_records(
    mut rows: Vec<BenchRecord>,
    prefix: &str,
    suffix: &str,
    measurement: &impl serde::Serialize,
    skip: &[&str],
) -> Vec<BenchRecord> {
    fn walk(path: String, v: &serde::Content, suffix: &str, rows: &mut Vec<BenchRecord>) {
        match v {
            serde::Content::Map(fields) => {
                for (k, v) in fields {
                    walk(
                        format!("{path}.{}", k.as_str().unwrap_or_default()),
                        v,
                        suffix,
                        rows,
                    );
                }
            }
            serde::Content::Seq(items) => {
                for (i, v) in items.iter().enumerate() {
                    walk(format!("{path}.{i}"), v, suffix, rows);
                }
            }
            v => {
                let key = format!("{path}{suffix}");
                if let Some(x) = v.as_f64().filter(|_| rows.iter().all(|r| r.key != key)) {
                    rows.push(BenchRecord::record(key, x));
                }
            }
        }
    }
    let content = measurement.to_content();
    for (name, v) in content.as_map().unwrap_or_default() {
        let name = name.as_str().unwrap_or_default();
        if skip.contains(&name) || name.ends_with("_noise") {
            continue;
        }
        let before = rows.len();
        walk(format!("{prefix}.{name}"), v, suffix, &mut rows);
        let noise = name
            .strip_suffix("_ratio")
            .and_then(|stem| content.get(&format!("{stem}_noise"))?.as_f64());
        if let (Some(noise), true) = (noise, rows.len() > before) {
            rows[before].noise = Some(noise);
        }
    }
    rows
}

/// Parse the text of a [`BENCH_FILE`].
pub fn parse_records(text: &str) -> Result<Vec<BenchRecord>, String> {
    let doc = serde_json::parse(text).map_err(|e| e.to_string())?;
    doc.as_seq()
        .ok_or("expected an array of records")?
        .iter()
        .map(BenchRecord::from_json)
        .collect()
}

/// Render records as a [`BENCH_FILE`]: one array, one record per line.
pub fn render_records(records: &[BenchRecord]) -> String {
    let lines: Vec<String> = records.iter().map(BenchRecord::to_json).collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

/// Load the committed records. A missing or malformed file is an error
/// — the sentinel must not silently pass with nothing to compare
/// against.
pub fn load(path: &Path) -> Result<Vec<BenchRecord>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_records(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// Replace every record under `prefix.` with `fresh`, keeping the other
/// records and their order. The fresh rows take the place of the first
/// replaced one, or go at the end when the prefix is new.
pub fn replace_prefix(records: &mut Vec<BenchRecord>, prefix: &str, fresh: Vec<BenchRecord>) {
    let dotted = format!("{prefix}.");
    let at = records
        .iter()
        .position(|r| r.key.starts_with(&dotted))
        .unwrap_or(records.len());
    records.retain(|r| !r.key.starts_with(&dotted));
    records.splice(at..at, fresh);
}

/// Logical cores of this host (1 when the count is unavailable).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Write one bench's `fresh` records, plus a `{prefix}.host_cores`
/// record, into the file at `path` in place of its old `prefix.` rows
/// (see [`replace_prefix`]); a missing file starts empty. Call it once,
/// after every bench-time assertion has passed, so a failed run leaves
/// the file as it was.
pub fn commit(path: &Path, prefix: &str, mut fresh: Vec<BenchRecord>) -> Result<(), String> {
    let mut records = if path.exists() {
        load(path)?
    } else {
        Vec::new()
    };
    fresh.push(BenchRecord::record(
        format!("{prefix}.host_cores"),
        host_cores() as f64,
    ));
    replace_prefix(&mut records, prefix, fresh);
    std::fs::write(path, render_records(&records))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
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

/// Evaluate one committed record against its fresh samples (see the
/// module docs for the band formula).
pub fn evaluate(record: &BenchRecord, samples: &[f64]) -> GateResult {
    let gating = record.kind == Kind::Gate;
    let med = median(samples);
    let m = mad(samples, med);
    let band = record.value * record.band + MAD_Z * 1.4826 * m;
    let threshold = record.value - band;
    let verdict = if samples.is_empty() {
        Verdict::Missing
    } else if !gating {
        Verdict::Info
    } else if med < threshold || record.floor.is_some_and(|floor| med < floor) {
        Verdict::Regressed
    } else {
        Verdict::Pass
    };
    GateResult {
        name: record.key.clone(),
        baseline: record.value,
        median: med,
        mad: m,
        threshold: if gating { threshold } else { 0.0 },
        samples: samples.len(),
        verdict,
    }
}

/// Fresh benchmark samples, keyed by record key.
pub type Samples = BTreeMap<String, Vec<f64>>;

fn add(samples: &mut Samples, records: impl IntoIterator<Item = BenchRecord>) {
    for r in records {
        samples.entry(r.key).or_default().push(r.value);
    }
}

/// Interleaved rounds behind each `noc.spatial_*` sample.
const SPATIAL_REPEATS: u32 = 5;

/// Re-run the benchmarks and collect samples of every record they emit.
/// `quick` trades statistical depth for CI latency: fewer and shorter
/// runs (the band part of the threshold carries the verdict when MAD
/// has little data).
pub fn collect_samples(quick: bool) -> Samples {
    use crate::{nocperf, pipelineperf, serveperf, workloadperf};
    let (cycles, noc_runs, hybrid_runs, pipe_runs) = if quick {
        (6_000, 2, 1, 1)
    } else {
        (20_000, 3, 2, 2)
    };
    let mut samples = Samples::new();
    for _ in 0..noc_runs {
        let run = nocperf::measure(8, cycles, 1);
        add(&mut samples, run.records());
        // Spatial-accounting overhead rides each NoC round: per load
        // point, the median of SPATIAL_REPEATS paired ratios from
        // interleaved runs whose order rotates, so one slow run or the
        // round's cold start cannot sink the gate. Each NoC round adds
        // one sample, so MAD still sees run-to-run scatter.
        for p in nocperf::measure_spatial_overhead(8, cycles, SPATIAL_REPEATS, &run.points) {
            add(&mut samples, p.records());
        }
    }
    // The hybrid points are self-sized (mostly-idle spans are nearly
    // free), so quick mode only trims the repeat count.
    for _ in 0..hybrid_runs {
        for p in nocperf::measure_hybrid(1) {
            add(&mut samples, p.records());
        }
    }
    // Best of 3 warm runs per sample, the estimator `repro
    // bench-pipeline` records with: the gate asks whether the cache
    // works, and one warm run against a fast cold path reads the warm
    // run's noise.
    for _ in 0..pipe_runs {
        add(&mut samples, pipelineperf::measure(None, 3).records());
    }
    // One serve storm is enough: the gated columns (completion, hit
    // rate) are structural, not wall-clock, so they don't need the
    // median-of-k treatment — but they must be measured fresh.
    let (serve_clients, serve_jobs) = if quick { (24, 2) } else { (64, 2) };
    let storm = serveperf::measure(serve_clients, serve_jobs);
    // The logging-overhead ratio gates hard at ≥0.95, so it gets the
    // paired median of interleaved rounds with a rotating order, not a
    // one-shot pair (±15% noisy on short storms).
    let ratio_rounds = if quick { 9 } else { 11 };
    let log_ratio = serveperf::measure_log_ratio(serve_clients, serve_jobs, ratio_rounds);
    add(
        &mut samples,
        serveperf::ServePerf { log_ratio, ..storm }.records(),
    );
    // Same discipline for the generated-workload storm: one fresh run,
    // gated on the structural columns only.
    let (wl_clients, wl_jobs) = if quick { (16, 2) } else { (48, 3) };
    add(
        &mut samples,
        workloadperf::measure(wl_clients, wl_jobs).records(),
    );
    samples
}

/// The sentinel's outcome: every row plus the overall verdict.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// One row per gate or info record, in file order.
    pub rows: Vec<GateResult>,
    /// True when any gating row regressed (or had no samples).
    pub regressed: bool,
}

/// Evaluate `samples` against the committed `gate` and `info` records —
/// the pure core of `repro check`, separated from benchmark execution so
/// the regression and pass paths are unit-testable with synthetic
/// samples. `record` rows are skipped.
pub fn check(records: &[BenchRecord], samples: &Samples) -> CheckReport {
    static EMPTY: Vec<f64> = Vec::new();
    let rows: Vec<GateResult> = records
        .iter()
        .filter(|r| r.kind != Kind::Record)
        .map(|r| evaluate(r, samples.get(&r.key).unwrap_or(&EMPTY)))
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
    use crate::nocperf::{NocHybridPoint, NocPerfPoint, NocPerfRun, SpatialOverheadPoint};
    use crate::pipelineperf::PipelinePerf;
    use crate::serveperf::ServePerf;
    use crate::workloadperf::WorkloadPerf;

    /// Synthetic measurements, turned into records by the same
    /// `records()` functions the benches use — so every band and floor
    /// below is the production one.
    fn fixture() -> Vec<BenchRecord> {
        let point = |label: &str, speedup, fast_cycles_per_sec| NocPerfPoint {
            label: label.into(),
            speedup,
            fast_cycles_per_sec,
            ..NocPerfPoint::default()
        };
        let run = NocPerfRun {
            points: vec![
                point("0.1", 3.43, 497_000.0),
                point("0.5", 2.36, 91_000.0),
                point("0.9", 2.21, 81_000.0),
            ],
            metrics: Vec::new(),
        };
        let hybrid = |label: &str, speedup, floor| NocHybridPoint {
            label: label.into(),
            speedup,
            floor,
            ..NocHybridPoint::default()
        };
        let spatial = |label: &str, off_ratio, windowed_ratio| SpatialOverheadPoint {
            label: label.into(),
            off_ratio,
            windowed_ratio,
            ..SpatialOverheadPoint::default()
        };
        let mut records = run.records();
        for p in [
            hybrid("bursty-32", 40.0, Some(5.0)),
            hybrid("uniform-32", 1.0, Some(0.7)),
            hybrid("bursty-64", 25.0, None),
        ] {
            records.extend(p.records());
        }
        for p in [
            spatial("0.1", 0.99, 0.96),
            spatial("0.5", 0.99, 0.95),
            spatial("0.9", 0.98, 0.94),
        ] {
            records.extend(p.records());
        }
        records.extend(
            PipelinePerf {
                jobs: 72,
                speedup: 30.0,
                warm_stats: hic_pipeline::CacheStats {
                    hits: 72,
                    ..Default::default()
                },
                ..PipelinePerf::default()
            }
            .records(),
        );
        records.extend(
            ServePerf {
                completion: 1.0,
                hit_rate: 0.9,
                jobs_per_sec: 150.0,
                p50_ms: 12.0,
                p99_ms: 80.0,
                log_ratio: 0.99,
                ..ServePerf::default()
            }
            .records(),
        );
        records.extend(
            WorkloadPerf {
                completion: 1.0,
                hit_rate: 0.85,
                jobs_per_sec: 120.0,
                graphs_per_sec: 95.0,
                p50_ms: 15.0,
                p99_ms: 95.0,
                ..WorkloadPerf::default()
            }
            .records(),
        );
        records
    }

    fn baseline(records: &[BenchRecord], key: &str) -> f64 {
        records
            .iter()
            .find(|r| r.key == key)
            .unwrap_or_else(|| panic!("missing record {key}"))
            .value
    }

    fn healthy_samples(records: &[BenchRecord]) -> Samples {
        let mut s = Samples::new();
        for label in ["0.1", "0.5", "0.9"] {
            // Honest run-to-run jitter around the baseline.
            let speedup = baseline(records, &format!("noc.speedup@{label}"));
            s.insert(
                format!("noc.speedup@{label}"),
                vec![speedup * 0.97, speedup * 1.02, speedup * 0.99],
            );
            s.insert(format!("noc.cycles_per_sec@{label}"), vec![1.0, 1.0, 1.0]);
            let off = baseline(records, &format!("noc.spatial_off@{label}"));
            s.insert(
                format!("noc.spatial_off@{label}"),
                vec![off * 0.99, off * 1.01, off],
            );
            let windowed = baseline(records, &format!("noc.spatial_windowed@{label}"));
            s.insert(
                format!("noc.spatial_windowed@{label}"),
                vec![windowed * 0.98, windowed * 1.02, windowed],
            );
        }
        for label in ["bursty-32", "uniform-32", "bursty-64"] {
            let key = format!("noc.hybrid_speedup@{label}");
            let speedup = baseline(records, &key);
            s.insert(key, vec![speedup * 0.95, speedup * 1.01]);
        }
        s.insert("pipeline.speedup".into(), vec![28.0, 31.0]);
        s.insert("pipeline.warm_hit_rate".into(), vec![1.0, 1.0]);
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

    /// Check `fixture()` against healthy samples with `key` replaced by
    /// `values`, and return the report plus the row's verdict.
    fn verdict_with(key: &str, values: Vec<f64>) -> (CheckReport, Verdict) {
        let records = fixture();
        let mut s = healthy_samples(&records);
        s.insert(key.into(), values);
        let report = check(&records, &s);
        let verdict = report
            .rows
            .iter()
            .find(|r| r.name == key)
            .unwrap_or_else(|| panic!("missing row {key}"))
            .verdict;
        (report, verdict)
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
        let records = fixture();
        let report = check(&records, &healthy_samples(&records));
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
        // Record rows are skipped outright.
        assert!(report.rows.iter().all(|r| !r.name.contains(".cycles@")));
        let verdict = |name: &str| {
            report
                .rows
                .iter()
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("missing row {name}"))
                .verdict
        };
        // Hybrid rows gate exactly when the point carries a floor.
        assert_eq!(verdict("noc.hybrid_speedup@bursty-32"), Verdict::Pass);
        assert_eq!(verdict("noc.hybrid_speedup@uniform-32"), Verdict::Pass);
        assert_eq!(verdict("noc.hybrid_speedup@bursty-64"), Verdict::Info);
        // Spatial-accounting overhead gates at every load point.
        assert_eq!(verdict("noc.spatial_off@0.5"), Verdict::Pass);
        assert_eq!(verdict("noc.spatial_windowed@0.5"), Verdict::Pass);
        assert_eq!(verdict("pipeline.warm_hit_rate"), Verdict::Pass);
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
        // 8% throughput loss with logging on: past the 5% budget.
        let (report, verdict) = verdict_with("serve.log_ratio", vec![0.92]);
        assert!(report.regressed, "{}", render(&report));
        assert_eq!(verdict, Verdict::Regressed);
    }

    #[test]
    fn lost_generated_jobs_trip_the_workload_completion_floor() {
        let (report, verdict) = verdict_with("workload.completion", vec![0.99]);
        assert!(report.regressed, "{}", render(&report));
        assert_eq!(verdict, Verdict::Regressed);
    }

    #[test]
    fn collapsed_workload_hit_rate_regresses() {
        // Cache-key canonicalization broke: every respelled/revisited
        // spec recomputes instead of hitting the store.
        let (report, verdict) = verdict_with("workload.hit_rate", vec![0.1]);
        assert!(report.regressed, "{}", render(&report));
        assert_eq!(verdict, Verdict::Regressed);
    }

    #[test]
    fn lost_serve_jobs_trip_the_completion_floor() {
        // 1 of 128 jobs vanished: completion 0.992 < the 0.999 floor.
        let (report, verdict) = verdict_with("serve.completion", vec![0.992]);
        assert!(report.regressed, "{}", render(&report));
        assert_eq!(verdict, Verdict::Regressed);
    }

    #[test]
    fn collapsed_serve_hit_rate_regresses() {
        // Cache effectively off: every job recomputed.
        let (report, verdict) = verdict_with("serve.hit_rate", vec![0.05]);
        assert!(report.regressed, "{}", render(&report));
        assert_eq!(verdict, Verdict::Regressed);
    }

    #[test]
    fn spatial_accounting_gone_always_on_regresses() {
        // The inert configuration now pays the full windowed cost: a
        // structural regression (the off-switch broke), well below the
        // 0.90 hard floor.
        let (report, verdict) = verdict_with("noc.spatial_off@0.5", vec![0.84, 0.86, 0.85]);
        assert!(report.regressed, "{}", render(&report));
        assert_eq!(verdict, Verdict::Regressed);
    }

    #[test]
    fn collapsed_windowed_spatial_throughput_regresses() {
        // Windowed accounting fell to ~60% of baseline throughput —
        // below the 0.75 hard floor no noise band can excuse.
        let (report, verdict) = verdict_with("noc.spatial_windowed@0.9", vec![0.61, 0.59, 0.60]);
        assert!(report.regressed, "{}", render(&report));
        assert_eq!(verdict, Verdict::Regressed);
    }

    #[test]
    fn hybrid_speedup_below_its_hard_floor_regresses() {
        // Skip-ahead collapsed: the gated bursty point runs at stepper
        // speed, far below both the noise band and the ≥5x floor.
        let (report, verdict) = verdict_with("noc.hybrid_speedup@bursty-32", vec![0.98, 1.03]);
        assert!(report.regressed, "{}", render(&report));
        assert_eq!(verdict, Verdict::Regressed);
    }

    #[test]
    fn synthetically_degraded_run_regresses() {
        let records = fixture();
        let mut s = healthy_samples(&records);
        // The fast path decayed to ~reference speed at every load.
        for label in ["0.1", "0.5", "0.9"] {
            s.insert(format!("noc.speedup@{label}"), vec![1.02, 1.05, 0.98]);
        }
        let report = check(&records, &s);
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
        // Below the 5x hard floor even though MAD noise is tiny.
        let (report, verdict) = verdict_with("pipeline.speedup", vec![3.9, 4.1]);
        assert!(report.regressed);
        assert_eq!(verdict, Verdict::Regressed);
    }

    #[test]
    fn one_warm_miss_trips_the_warm_hit_rate_floor() {
        // One of 72 warm stage jobs recomputed: the cache leaked, even
        // if the warm run is still fast enough to clear the 5x speedup.
        let (report, verdict) = verdict_with("pipeline.warm_hit_rate", vec![71.0 / 72.0]);
        assert!(report.regressed, "{}", render(&report));
        assert_eq!(verdict, Verdict::Regressed);
    }

    #[test]
    fn noisy_environment_widens_the_band_instead_of_flaking() {
        // Median sits 30% below baseline — outside the plain band
        // (threshold = 2.0·0.65 = 1.3 < 1.4? no: 1.4 > 1.3 passes
        // anyway)… so use 40% below, which fails with zero MAD but must
        // pass once run-to-run scatter widens the band.
        let record = BenchRecord::gate("x", 2.0, 0.35, None);
        let calm = evaluate(&record, &[1.2, 1.2, 1.2]);
        assert_eq!(calm.verdict, Verdict::Regressed);
        let noisy = evaluate(&record, &[1.2, 0.6, 2.4]);
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
        let report = check(&fixture(), &Samples::new());
        assert!(report.regressed);
        assert!(!report.rows.is_empty());
        assert!(report.rows.iter().all(|r| r.verdict == Verdict::Missing));
    }

    #[test]
    fn records_round_trip_through_the_file_format() {
        let records = fixture();
        let text = render_records(&records);
        assert_eq!(parse_records(&text).unwrap(), records);
        assert_eq!(text.lines().count(), records.len() + 2, "one record a line");
        assert!(parse_records("[{\"key\": \"x\", \"value\": 1, \"kind\": \"ratio\"}]").is_err());
    }

    #[test]
    fn record_rows_flatten_nested_fields_and_carry_noise() {
        let trace = crate::nocperf::TraceOverheadPoint {
            offered: 0.5,
            disabled_ratio: 0.97,
            disabled_noise: 0.02,
            ..Default::default()
        }
        .records();
        let ratio = trace
            .iter()
            .find(|r| r.key == "noc.trace.disabled_ratio@0.5")
            .expect("ratio row");
        assert_eq!((ratio.value, ratio.noise), (0.97, Some(0.02)));
        assert!(trace.iter().all(|r| r.kind == Kind::Record));
        assert!(trace.iter().all(|r| !r.key.contains("_noise")));

        let mut cold_stats = hic_pipeline::CacheStats::default();
        cold_stats.per_stage.insert("design".into(), (0, 64));
        let pipeline = PipelinePerf {
            speedup: 9.0,
            cold_stats,
            ..PipelinePerf::default()
        }
        .records();
        let keyed = |key: &str| pipeline.iter().filter(|r| r.key == key).collect::<Vec<_>>();
        // A field its gate row already carries leaves no second row.
        assert_eq!(keyed("pipeline.speedup").len(), 1);
        assert_eq!(keyed("pipeline.speedup")[0].kind, Kind::Gate);
        assert_eq!(
            keyed("pipeline.cold_stats.per_stage.design.1")[0].value,
            64.0
        );
        assert!(keyed("pipeline.apps").is_empty(), "strings leave no row");
    }

    #[test]
    fn replacing_a_prefix_keeps_other_records_in_place() {
        let r = |key: &str, value| BenchRecord::record(key, value);
        let mut records = vec![r("noc.a", 1.0), r("pipeline.a", 2.0), r("noc.b", 3.0)];
        replace_prefix(&mut records, "noc", vec![r("noc.c", 4.0)]);
        assert_eq!(records, vec![r("noc.c", 4.0), r("pipeline.a", 2.0)]);
        // A new prefix goes at the end; `noc` must not match `nocturne.`.
        replace_prefix(&mut records, "nocturne", vec![r("nocturne.x", 5.0)]);
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].key, "noc.c");
        assert_eq!(records[2].key, "nocturne.x");
    }

    #[test]
    fn committed_records_load_and_carry_the_gated_claims() {
        // The real committed file at the repository root.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let text = std::fs::read_to_string(root.join(BENCH_FILE)).expect("BENCH.json reads");
        let records = parse_records(&text).expect("committed records parse");
        // The file is in the canonical form `commit` writes, so a bench
        // rewrite only changes its own rows.
        assert_eq!(render_records(&records), text);
        let value = |key: &str| baseline(&records, key);
        let keys = |prefix: &str| records.iter().filter(|r| r.key.starts_with(prefix)).count();
        assert_eq!(keys("noc.speedup@"), 5);
        assert!(records
            .iter()
            .filter(|r| r.key.starts_with("noc.speedup@"))
            .all(|r| r.value > 1.0));
        assert_eq!(keys("noc.hybrid_speedup@"), 3);
        // The gated bursty point's committed floor is the ≥5x claim.
        let bursty = records
            .iter()
            .find(|r| r.key == "noc.hybrid_speedup@bursty-32")
            .expect("bursty-32 point");
        assert_eq!(bursty.floor, Some(5.0));
        assert!(
            bursty.value >= 5.0,
            "committed hybrid speedup {}",
            bursty.value
        );
        // The committed spatial-overhead records carry the heatmap
        // layer's cost claims at every classic-uniform load point.
        assert_eq!(keys("noc.spatial_off@"), 3);
        for label in ["0.1", "0.5", "0.9"] {
            let off = value(&format!("noc.spatial_off@{label}"));
            let windowed = value(&format!("noc.spatial_windowed@{label}"));
            assert!(off >= 0.9, "committed off ratio {off} at {label}");
            assert!(
                windowed >= 0.8,
                "committed windowed ratio {windowed} at {label}"
            );
        }
        assert!(value("pipeline.speedup") > 5.0);
        assert_eq!(value("pipeline.warm_hit_rate"), 1.0);
        // The committed serve records must carry the gated claims.
        assert!(value("serve.completion") >= 0.999);
        assert!(value("serve.hit_rate") > 0.5);
        assert!(value("serve.jobs_per_sec") > 0.0);
        assert!(value("serve.p99_ms") >= value("serve.p50_ms"));
        // The committed generated-workload records carry the same
        // structural claims as the serve ones.
        assert!(value("workload.completion") >= 0.999);
        assert!(value("workload.hit_rate") > 0.5);
        assert!(value("workload.jobs_per_sec") > 0.0);
        assert!(value("workload.graphs_per_sec") > 0.0);
        assert!(value("workload.p99_ms") >= value("workload.p50_ms"));
    }
}
