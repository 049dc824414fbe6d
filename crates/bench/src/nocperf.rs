//! Wall-clock throughput of the NoC fast path vs. the reference stepper.
//!
//! The optimized [`hic_noc::Network`] must be cycle-exact with
//! [`hic_noc::ReferenceNetwork`] (the pre-optimization stepper, kept as the
//! executable spec) — so the only thing left to measure is speed. This
//! module times both on identical 8×8 uniform Bernoulli traffic and
//! reports simulated cycles per wall-clock second. The `repro` binary's
//! `bench-noc` subcommand records the result, and the recorder, sampler,
//! spatial-accounting and hybrid-engine measurements beside it, as the
//! `noc.` records of `BENCH.json` (each struct's `records()` spells its
//! keys, kinds and gate floors).

use crate::regress::{with_records, BenchRecord};
use hic_noc::{
    drive_schedule, schedule, schedule_hybrid, Burst, HybridNetwork, Mesh, NetMetrics, Network,
    NocConfig, Pattern, RecordMode, ReferenceNetwork,
};
use hic_obs::trace::{Category, Tracer};
use serde::Serialize;
use std::time::Instant;

/// One measured load point of the fast-vs-reference comparison.
#[derive(Debug, Clone, Default, Serialize)]
pub struct NocPerfPoint {
    /// Stable gate-key suffix (`noc.speedup@{label}` in `repro check`);
    /// the offered load for uniform points, `"bursty"` for the on/off one.
    pub label: String,
    /// Traffic pattern: `"uniform"` or `"bursty"`.
    pub pattern: String,
    /// Offered load in flits/node/cycle (duty-cycle average for bursty).
    pub offered: f64,
    /// Simulated cycles per run.
    pub cycles: u64,
    /// Packets delivered within the run (identical for both steppers).
    pub delivered: u64,
    /// Fast path: simulated cycles per wall-clock second (best of N).
    pub fast_cycles_per_sec: f64,
    /// Reference stepper: simulated cycles per wall-clock second.
    pub reference_cycles_per_sec: f64,
    /// `fast_cycles_per_sec / reference_cycles_per_sec`.
    pub speedup: f64,
}

/// The sweep points [`measure`] times: label, uniform offered load
/// (inside the on window, for the bursty point) and burst window. The
/// 0.1/0.5/0.9 trio is the classic load curve; 0.01 and the bursty point
/// are idle-heavy regimes where the fast path's active-set walk (and, in
/// [`measure_hybrid`], the hybrid engine's skip-ahead) should dominate.
fn load_points() -> [(&'static str, f64, Option<Burst>); 5] {
    [
        ("0.01", 0.01, None),
        ("0.1", 0.1, None),
        ("0.5", 0.5, None),
        ("0.9", 0.9, None),
        ("bursty", 0.5, Some(Burst { on: 4, period: 200 })),
    ]
}

/// The classic uniform 0.1/0.5/0.9 load points of a [`measure`] run —
/// the subset the recorder/sampler overhead harnesses re-time.
fn classic_uniform(points: &[NocPerfPoint]) -> impl Iterator<Item = &NocPerfPoint> {
    points
        .iter()
        .filter(|p| p.pattern == "uniform" && p.offered >= 0.05)
}

/// The fast path's aggregate observability counters at one load point —
/// the `noc.metrics.*` records of `repro bench-noc`.
#[derive(Debug, Clone, Serialize)]
pub struct NocMetricsPoint {
    /// Matching [`NocPerfPoint::label`] (whose `offered` is this
    /// point's load).
    pub label: String,
    /// The network's always-on counters after the run.
    pub metrics: NetMetrics,
    /// Mean link utilization in [0, 1].
    pub mean_link_utilization: f64,
    /// Busiest-link utilization in [0, 1].
    pub max_link_utilization: f64,
}

/// Result of [`measure`]: timing points plus network metrics.
#[derive(Debug, Clone, Serialize)]
pub struct NocPerfRun {
    /// Timing comparison per load point.
    pub points: Vec<NocPerfPoint>,
    /// Fast-path network metrics per load point.
    pub metrics: Vec<NocMetricsPoint>,
}

impl NocPerfRun {
    /// The run's `BENCH.json` rows: the gated speedup of every point,
    /// then every point's info-only fast-path rate, then the rest as
    /// `noc.<field>@<label>` records.
    pub fn records(&self) -> Vec<BenchRecord> {
        let key = |name: &str, p: &NocPerfPoint| format!("noc.{name}@{}", p.label);
        // The fast path is ≥2.2x everywhere; losing a third of the
        // ratio means the fast path itself decayed.
        let gate = |p| BenchRecord::gate(key("speedup", p), p.speedup, 0.35, Some(1.2));
        let rate = |p| BenchRecord::info(key("cycles_per_sec", p), p.fast_cycles_per_sec);
        let mut rows: Vec<_> = self.points.iter().map(gate).collect();
        rows.extend(self.points.iter().map(rate));
        for p in &self.points {
            rows = with_records(
                rows,
                "noc",
                &format!("@{}", p.label),
                p,
                &["fast_cycles_per_sec"],
            );
        }
        for m in &self.metrics {
            rows = with_records(rows, "noc", &format!("@{}", m.label), m, &[]);
        }
        rows
    }
}

/// Time the fast path and the reference stepper on a `side`×`side` mesh
/// across the [`load_points`] sweep (uniform 0.01/0.1/0.5/0.9 plus one
/// bursty on/off point). Each configuration runs `repeats` times; the
/// best time is kept.
pub fn measure(side: u16, cycles: u64, repeats: u32) -> NocPerfRun {
    assert!(repeats >= 1);
    let mesh = Mesh::new(side, side);
    let cfg = NocConfig::paper_default(mesh);
    let mut out = Vec::new();
    let mut metrics = Vec::new();
    for (label, on, burst) in load_points() {
        let (seed, pattern, offered) = match burst {
            None => (0xB0C0 ^ (on * 100.0) as u64, "uniform", on),
            Some(b) => (0xB0C0 ^ 0xB57, "bursty", on * b.on as f64 / b.period as f64),
        };
        // Traffic is pregenerated so the timed region runs the stepper
        // alone, not the Bernoulli RNG (whose cost is identical for both
        // sides and would dilute the comparison).
        let schedule = schedule(cfg, Pattern::Uniform, on, 16, burst, cycles, seed);
        let mut fast_best = f64::INFINITY;
        let mut ref_best = f64::INFINITY;
        let mut delivered = 0u64;
        let mut net_metrics = NetMetrics::default();
        for _ in 0..repeats {
            let mut net = Network::new(cfg);
            net.set_record_mode(RecordMode::Stats);
            let t = Instant::now();
            drive_schedule(&mut net, &schedule, 16, cycles);
            fast_best = fast_best.min(t.elapsed().as_secs_f64());
            delivered = net.stats().delivered();
            net_metrics = net.metrics();

            let mut net = ReferenceNetwork::new(cfg);
            let t = Instant::now();
            drive_schedule(&mut net, &schedule, 16, cycles);
            ref_best = ref_best.min(t.elapsed().as_secs_f64());
            // Same seed, cycle-exact steppers: the delivery counts must
            // agree or the benchmark itself is comparing different work.
            assert_eq!(
                delivered,
                net.delivered().len() as u64,
                "fast path and reference diverged at load point {label}"
            );
        }
        out.push(NocPerfPoint {
            label: label.to_string(),
            pattern: pattern.to_string(),
            offered,
            cycles,
            delivered,
            fast_cycles_per_sec: cycles as f64 / fast_best,
            reference_cycles_per_sec: cycles as f64 / ref_best,
            speedup: ref_best / fast_best,
        });
        metrics.push(NocMetricsPoint {
            label: label.to_string(),
            metrics: net_metrics,
            mean_link_utilization: net_metrics.mean_link_utilization(),
            max_link_utilization: net_metrics.max_link_utilization(),
        });
    }
    NocPerfRun {
        points: out,
        metrics,
    }
}

/// One load point of the tracing-overhead measurement — the
/// `noc.trace.*` records of `repro bench-noc`.
#[derive(Debug, Clone, Default, Serialize)]
pub struct TraceOverheadPoint {
    /// Offered load in flits/node/cycle.
    pub offered: f64,
    /// Simulated cycles per run.
    pub cycles: u64,
    /// The untraced fast path at this load, re-timed round-robin with
    /// the traced configurations so all three share machine conditions.
    pub baseline_cycles_per_sec: f64,
    /// Recorder attached, all categories disabled — the one-branch path.
    pub disabled_cycles_per_sec: f64,
    /// NoC tracing enabled with 1-in-64 packet sampling.
    pub sampled_cycles_per_sec: f64,
    /// Median of the per-round paired `baseline/disabled` time ratios —
    /// the acceptance bar is ≥ 0.95 minus [`TraceOverheadPoint::
    /// disabled_noise`].
    pub disabled_ratio: f64,
    /// Median of the per-round paired `baseline/sampled` time ratios —
    /// the acceptance bar is ≥ 0.85 minus [`TraceOverheadPoint::
    /// sampled_noise`].
    pub sampled_ratio: f64,
    /// MAD-derived noise band of the paired disabled ratios
    /// (`3·1.4826·MAD`, the `repro check` discipline).
    pub disabled_noise: f64,
    /// MAD-derived noise band of the paired sampled ratios.
    pub sampled_noise: f64,
    /// Events the sampled run captured (sanity: nonzero).
    pub sampled_events: usize,
    /// Events the sampled run's ring overwrote (ideally zero).
    pub sampled_dropped: u64,
}

impl TraceOverheadPoint {
    /// `noc.trace.<field>@<offered>` records: `repro bench-noc` asserts
    /// the bars, and `repro check` does not re-run them.
    pub fn records(&self) -> Vec<BenchRecord> {
        with_records(
            Vec::new(),
            "noc.trace",
            &format!("@{}", self.offered),
            self,
            &[],
        )
    }
}

/// Measure the wall-clock cost of the flight recorder on the same
/// traffic [`measure`] times: once with a recorder attached but every
/// category disabled (the always-compiled-in price), once with NoC
/// tracing enabled at 1-in-64 packet sampling.
///
/// The untraced baseline is re-timed here, round-robin with the two
/// traced configurations, rather than reusing `baseline`'s rates:
/// interleaving keeps all three configurations under the same machine
/// conditions, so the ratios measure recorder cost instead of drift
/// between benchmark phases. `baseline` supplies the load points; only
/// the classic uniform 0.1/0.5/0.9 trio is re-timed — the idle-heavy
/// sweep points exercise the engines, not the recorder.
pub fn measure_trace_overhead(
    side: u16,
    cycles: u64,
    repeats: u32,
    baseline: &[NocPerfPoint],
) -> Vec<TraceOverheadPoint> {
    assert!(repeats >= 1);
    let mesh = Mesh::new(side, side);
    let cfg = NocConfig::paper_default(mesh);
    let mut out = Vec::new();
    for base in classic_uniform(baseline) {
        let offered = base.offered;
        let seed = 0xB0C0 ^ (offered * 100.0) as u64;
        let schedule = schedule(cfg, Pattern::Uniform, offered, 16, None, cycles, seed);

        let mut rounds: Vec<(f64, f64, f64)> = Vec::with_capacity(repeats as usize);
        let mut sampled_events = 0usize;
        let mut sampled_dropped = 0u64;
        for _ in 0..repeats {
            // Baseline: no recorder attached at all.
            let mut net = Network::new(cfg);
            net.set_record_mode(RecordMode::Stats);
            let t = Instant::now();
            drive_schedule(&mut net, &schedule, 16, cycles);
            let base_secs = t.elapsed().as_secs_f64();

            // Disabled: the recorder is attached so every site pays its
            // branch, but no category records.
            let tracer = Tracer::new(1 << 16);
            let mut net = Network::new(cfg);
            net.set_record_mode(RecordMode::Stats);
            net.attach_tracer(&tracer);
            let t = Instant::now();
            drive_schedule(&mut net, &schedule, 16, cycles);
            let disabled_secs = t.elapsed().as_secs_f64();

            // Sampled: full packet lifecycle for 1 in 64 causal ids.
            let tracer = Tracer::new(1 << 16);
            tracer.set_enabled(Category::Noc, true);
            tracer.set_sample(Category::Noc, 64);
            let mut net = Network::new(cfg);
            net.set_record_mode(RecordMode::Stats);
            net.attach_tracer(&tracer);
            let t = Instant::now();
            drive_schedule(&mut net, &schedule, 16, cycles);
            let sampled_secs = t.elapsed().as_secs_f64();
            let trace = tracer.take();
            sampled_events = trace.events.len();
            sampled_dropped = trace.dropped;

            rounds.push((base_secs, disabled_secs, sampled_secs));
        }

        let best =
            |f: fn(&(f64, f64, f64)) -> f64| rounds.iter().map(f).fold(f64::INFINITY, f64::min);
        let (disabled_ratio, disabled_noise) =
            paired_ratio(&rounds.iter().map(|r| (r.0, r.1)).collect::<Vec<_>>());
        let (sampled_ratio, sampled_noise) =
            paired_ratio(&rounds.iter().map(|r| (r.0, r.2)).collect::<Vec<_>>());
        out.push(TraceOverheadPoint {
            offered,
            cycles,
            baseline_cycles_per_sec: cycles as f64 / best(|r| r.0),
            disabled_cycles_per_sec: cycles as f64 / best(|r| r.1),
            sampled_cycles_per_sec: cycles as f64 / best(|r| r.2),
            disabled_ratio,
            sampled_ratio,
            disabled_noise,
            sampled_noise,
            sampled_events,
            sampled_dropped,
        });
    }
    out
}

/// Median and MAD-derived noise band (`3·1.4826·MAD`, the
/// [`crate::regress`] discipline) of per-round paired time ratios
/// `baseline_secs / config_secs` — each round compares the two
/// configurations under the same machine conditions, and the median
/// resists the scheduler-jitter outliers that make best-of ratios
/// flake on shared hardware.
fn paired_ratio(rounds: &[(f64, f64)]) -> (f64, f64) {
    let ratios: Vec<f64> = rounds.iter().map(|&(base, cfg)| base / cfg).collect();
    let med = crate::regress::median(&ratios);
    let band = crate::regress::MAD_Z * 1.4826 * crate::regress::mad(&ratios, med);
    (med, band)
}

/// One load point of the continuous-telemetry overhead measurement —
/// the `noc.sampler.*` records of `repro bench-noc`.
#[derive(Debug, Clone, Serialize)]
pub struct SamplerOverheadPoint {
    /// Offered load in flits/node/cycle.
    pub offered: f64,
    /// Simulated cycles per run.
    pub cycles: u64,
    /// The untraced, unsampled fast path at this load.
    pub baseline_cycles_per_sec: f64,
    /// Live-gauge pulse attached (every 1024 cycles), no sampler thread.
    pub pulse_cycles_per_sec: f64,
    /// Pulse + background sampler at 10 Hz.
    pub hz10_cycles_per_sec: f64,
    /// Pulse + background sampler at 100 Hz.
    pub hz100_cycles_per_sec: f64,
    /// Median of the per-round paired `baseline/pulse` time ratios —
    /// the acceptance bar is ≥ 0.95 minus the matching noise band.
    pub pulse_ratio: f64,
    /// Median paired ratio for pulse + 10 Hz sampler (bar ≥ 0.95).
    pub hz10_ratio: f64,
    /// Median paired ratio for pulse + 100 Hz sampler (bar ≥ 0.95).
    pub hz100_ratio: f64,
    /// MAD-derived noise bands (`3·1.4826·MAD`) of the paired pulse /
    /// 10 Hz / 100 Hz ratios, in ratio units.
    pub pulse_noise: f64,
    /// Noise band of the 10 Hz paired ratios.
    pub hz10_noise: f64,
    /// Noise band of the 100 Hz paired ratios.
    pub hz100_noise: f64,
    /// Registry samples the 100 Hz run collected (sanity: nonzero when
    /// the run is long enough for at least one tick).
    pub hz100_samples: u64,
}

impl SamplerOverheadPoint {
    /// `noc.sampler.<field>@<offered>` records; like the recorder
    /// overhead, asserted at bench time and not re-run by `repro check`.
    pub fn records(&self) -> Vec<BenchRecord> {
        with_records(
            Vec::new(),
            "noc.sampler",
            &format!("@{}", self.offered),
            self,
            &[],
        )
    }
}

/// Measure the wall-clock cost of continuous telemetry on the traffic
/// [`measure`] times: the per-step pulse hook alone, then pulse plus a
/// background [`hic_obs::Sampler`] at 10 Hz and 100 Hz. Sampling is
/// pull-based — the sampler thread reads the registry; the stepper never
/// waits on it — so the ratios should be indistinguishable from 1.
///
/// The untelemetered baseline is re-timed here, round-robin with the
/// three telemetry configurations, rather than reusing `baseline`'s
/// rates: interleaving keeps all four configurations under the same
/// machine conditions, so the ratios measure telemetry cost instead of
/// drift between benchmark phases. `baseline` supplies the load points;
/// as with [`measure_trace_overhead`], only the classic uniform trio.
pub fn measure_sampler_overhead(
    side: u16,
    cycles: u64,
    repeats: u32,
    baseline: &[NocPerfPoint],
) -> Vec<SamplerOverheadPoint> {
    use hic_obs::timeseries::{Sampler, SeriesStore};
    use std::time::Duration;
    assert!(repeats >= 1);
    let mesh = Mesh::new(side, side);
    let cfg = NocConfig::paper_default(mesh);
    let mut out = Vec::new();
    for base in classic_uniform(baseline) {
        let offered = base.offered;
        let seed = 0xB0C0 ^ (offered * 100.0) as u64;
        let schedule = schedule(cfg, Pattern::Uniform, offered, 16, None, cycles, seed);

        // One run: optionally attach the pulse, optionally spin a
        // sampler at `interval`. Returns (seconds, sampler ticks).
        let run_once = |pulse: bool, interval: Option<Duration>| -> (f64, u64) {
            let reg = hic_obs::Registry::new();
            // The registry is never empty, so every sampler tick
            // stores at least this series (the sanity count below).
            reg.counter("bench.noc.runs").inc();
            let store = SeriesStore::new(512);
            let sampler = interval.map(|iv| Sampler::start(reg.clone(), store.clone(), iv));
            let mut net = Network::new(cfg);
            net.set_record_mode(RecordMode::Stats);
            if pulse {
                net.attach_pulse(&reg, "noc", 1024);
            }
            let t = Instant::now();
            drive_schedule(&mut net, &schedule, 16, cycles);
            let secs = t.elapsed().as_secs_f64();
            drop(sampler); // joins the thread (final sample included)
            let samples = store
                .get("bench.noc.runs")
                .map(|s| s.total_samples())
                .unwrap_or(0);
            (secs, samples)
        };

        // Round-robin `repeats` rounds across the four configurations;
        // each round's paired ratios share machine conditions.
        let configs: [(bool, Option<Duration>); 4] = [
            (false, None),
            (true, None),
            (true, Some(Duration::from_millis(100))),
            (true, Some(Duration::from_millis(10))),
        ];
        let mut rounds: Vec<[f64; 4]> = Vec::with_capacity(repeats as usize);
        let mut best = [f64::INFINITY; 4];
        let mut hz100_samples = 0u64;
        for _ in 0..repeats {
            let mut round = [0.0f64; 4];
            for (i, &(pulse, interval)) in configs.iter().enumerate() {
                let (secs, samples) = run_once(pulse, interval);
                round[i] = secs;
                best[i] = best[i].min(secs);
                if i == 3 {
                    hz100_samples = samples;
                }
            }
            rounds.push(round);
        }

        let paired =
            |i: usize| paired_ratio(&rounds.iter().map(|r| (r[0], r[i])).collect::<Vec<_>>());
        let (pulse_ratio, pulse_noise) = paired(1);
        let (hz10_ratio, hz10_noise) = paired(2);
        let (hz100_ratio, hz100_noise) = paired(3);
        let [base_cps, pulse_cps, hz10_cps, hz100_cps] = best.map(|b| cycles as f64 / b);
        out.push(SamplerOverheadPoint {
            offered,
            cycles,
            baseline_cycles_per_sec: base_cps,
            pulse_cycles_per_sec: pulse_cps,
            hz10_cycles_per_sec: hz10_cps,
            hz100_cycles_per_sec: hz100_cps,
            pulse_ratio,
            hz10_ratio,
            hz100_ratio,
            pulse_noise,
            hz10_noise,
            hz100_noise,
            hz100_samples,
        });
    }
    out
}

/// One load point of the spatial-accounting overhead measurement — the
/// `noc.spatial*` records of `repro bench-noc`.
#[derive(Debug, Clone, Default, Serialize)]
pub struct SpatialOverheadPoint {
    /// Stable gate-key suffix (`noc.spatial_off@{label}` and
    /// `noc.spatial_windowed@{label}` in `repro check`).
    pub label: String,
    /// Offered load in flits/node/cycle.
    pub offered: f64,
    /// Simulated cycles per run.
    pub cycles: u64,
    /// The unaccounted fast path at this load, re-timed round-robin with
    /// the spatial configurations so all three share machine conditions.
    pub baseline_cycles_per_sec: f64,
    /// Spatial layer attached but inert ([`SpatialConfig::minimal`]):
    /// no windows, no flow map — only the per-step branch.
    pub off_cycles_per_sec: f64,
    /// Full windowed accounting ([`SpatialConfig::windowed`] at 1024):
    /// per-link matrices, window closing, and flow attribution.
    pub windowed_cycles_per_sec: f64,
    /// Median of the per-round paired `baseline/off` time ratios — the
    /// acceptance bar is ≥ 0.98 minus [`SpatialOverheadPoint::off_noise`].
    pub off_ratio: f64,
    /// Median of the per-round paired `baseline/windowed` time ratios —
    /// the acceptance bar is ≥ 0.90 minus
    /// [`SpatialOverheadPoint::windowed_noise`].
    pub windowed_ratio: f64,
    /// MAD-derived noise band of the paired off ratios (`3·1.4826·MAD`,
    /// the `repro check` discipline).
    pub off_noise: f64,
    /// MAD-derived noise band of the paired windowed ratios.
    pub windowed_noise: f64,
    /// Closed windows the windowed run retained (sanity: nonzero when
    /// the run spans at least one window).
    pub windowed_windows: usize,
    /// Distinct (src, dst) flows the windowed run attributed
    /// (sanity: nonzero).
    pub windowed_flows: usize,
}

impl SpatialOverheadPoint {
    /// The gated `noc.spatial_off@<label>` and
    /// `noc.spatial_windowed@<label>` ratios, then the rest as
    /// `noc.spatial.<field>@<label>` records.
    pub fn records(&self) -> Vec<BenchRecord> {
        let at = format!("@{}", self.label);
        let gate = |name: &str, ratio, band, floor| {
            BenchRecord::gate(format!("noc.spatial_{name}{at}"), ratio, band, Some(floor))
        };
        // The bench-time bars (≥0.98x inert, ≥0.90x windowed, minus the
        // run's own noise band) carry the tight claim with 7 interleaved
        // repeats; the check-time floors are looser because each fresh
        // sample there is the median of only a few short paired rounds
        // — they catch structural regressions (accounting accidentally
        // always-on, a lock on the step path), not percent-level drift.
        let gates = vec![
            gate("off", self.off_ratio, 0.07, 0.90).with_noise(self.off_noise),
            gate("windowed", self.windowed_ratio, 0.12, 0.75).with_noise(self.windowed_noise),
        ];
        let skip = ["off_ratio", "windowed_ratio"];
        with_records(gates, "noc.spatial", &at, self, &skip)
    }
}

/// Measure the wall-clock cost of the spatial accounting layer on the
/// same traffic [`measure`] times: once attached but inert
/// ([`SpatialConfig::minimal`] — the always-compiled-in price of the
/// per-step branch), once with full windowed matrices plus flow
/// attribution ([`SpatialConfig::windowed`] at the default 1024-cycle
/// window the cosim heatmap uses).
///
/// The unaccounted baseline is re-timed here, round-robin with the two
/// spatial configurations, rather than reusing `baseline`'s rates:
/// interleaving keeps all three configurations under the same machine
/// conditions, so the ratios measure accounting cost instead of drift
/// between benchmark phases. The order within a round rotates from one
/// round to the next. `baseline` supplies the load points; as
/// with [`measure_trace_overhead`], only the classic uniform trio.
pub fn measure_spatial_overhead(
    side: u16,
    cycles: u64,
    repeats: u32,
    baseline: &[NocPerfPoint],
) -> Vec<SpatialOverheadPoint> {
    use hic_noc::SpatialConfig;
    assert!(repeats >= 1);
    let mesh = Mesh::new(side, side);
    let cfg = NocConfig::paper_default(mesh);
    let mut out = Vec::new();
    for base in classic_uniform(baseline) {
        let offered = base.offered;
        let seed = 0xB0C0 ^ (offered * 100.0) as u64;
        let schedule = schedule(cfg, Pattern::Uniform, offered, 16, None, cycles, seed);

        let mut rounds: Vec<(f64, f64, f64)> = Vec::with_capacity(repeats as usize);
        let mut windowed_windows = 0usize;
        let mut windowed_flows = 0usize;
        for round in 0..repeats as usize {
            // Three configurations of the same traffic: no spatial layer
            // at all; attached but inert, so the per-step site pays its
            // branch but no windows close and no flows record; full
            // matrices plus flow attribution in 1024-cycle windows (what
            // `hic heatmap` and the cosim artifact use). Each round
            // rotates which runs first, so no configuration always takes
            // the round's cold start.
            let mut secs = [0.0f64; 3];
            for k in 0..3 {
                let which = (round + k) % 3;
                let mut net = Network::new(cfg);
                net.set_record_mode(RecordMode::Stats);
                match which {
                    1 => net.enable_spatial(SpatialConfig::minimal()),
                    2 => net.enable_spatial(SpatialConfig::windowed(1024)),
                    _ => {}
                }
                let t = Instant::now();
                drive_schedule(&mut net, &schedule, 16, cycles);
                secs[which] = t.elapsed().as_secs_f64();
                if which == 2 {
                    windowed_windows = net.spatial_windows().len();
                    windowed_flows = net.flow_totals().map_or(0, |m| m.len());
                }
            }
            rounds.push((secs[0], secs[1], secs[2]));
        }

        let best =
            |f: fn(&(f64, f64, f64)) -> f64| rounds.iter().map(f).fold(f64::INFINITY, f64::min);
        let (off_ratio, off_noise) =
            paired_ratio(&rounds.iter().map(|r| (r.0, r.1)).collect::<Vec<_>>());
        let (windowed_ratio, windowed_noise) =
            paired_ratio(&rounds.iter().map(|r| (r.0, r.2)).collect::<Vec<_>>());
        out.push(SpatialOverheadPoint {
            label: base.label.clone(),
            offered,
            cycles,
            baseline_cycles_per_sec: cycles as f64 / best(|r| r.0),
            off_cycles_per_sec: cycles as f64 / best(|r| r.1),
            windowed_cycles_per_sec: cycles as f64 / best(|r| r.2),
            off_ratio,
            windowed_ratio,
            off_noise,
            windowed_noise,
            windowed_windows,
            windowed_flows,
        });
    }
    out
}

/// One configuration of the hybrid-engine vs per-cycle-stepper
/// comparison — the `noc.hybrid*` records of `repro bench-noc`.
#[derive(Debug, Clone, Default, Serialize)]
pub struct NocHybridPoint {
    /// Stable gate-key suffix (`noc.hybrid_speedup@{label}`).
    pub label: String,
    /// Mesh side (the run is `side`×`side`).
    pub side: u16,
    /// Traffic pattern: `"uniform"` or `"bursty"`.
    pub pattern: String,
    /// Simulated cycles both engines cover (the hybrid's drain cycle).
    pub cycles: u64,
    /// Packets delivered (identical for both engines).
    pub delivered: u64,
    /// Hybrid engine: simulated cycles per wall-clock second (best of N).
    pub hybrid_cycles_per_sec: f64,
    /// Per-cycle stepping driver on the same fast-path network.
    pub stepper_cycles_per_sec: f64,
    /// `stepper_secs / hybrid_secs` on the same simulated span.
    pub speedup: f64,
    /// Cycles the hybrid engine jumped over without stepping.
    pub skipped_cycles: u64,
    /// Live cycles the hybrid engine simulated: stepped one at a time or
    /// applied in bulk after a steady step.
    pub stepped_cycles: u64,
    /// Hard speedup floor `repro check` gates on; `None` = info row.
    pub floor: Option<f64>,
}

impl NocHybridPoint {
    /// The `noc.hybrid_speedup@<label>` row — gated when the point has a
    /// floor, info otherwise — then the rest as
    /// `noc.hybrid.<field>@<label>` records.
    pub fn records(&self) -> Vec<BenchRecord> {
        let at = format!("@{}", self.label);
        let key = format!("noc.hybrid_speedup{at}");
        // Skip-ahead ratios swing with how much of the span is idle; the
        // hard floor carries the real claim (≥5x on the bursty point,
        // ≥0.7x no-regression on uniform).
        let row = match self.floor {
            Some(floor) => BenchRecord::gate(key, self.speedup, 0.5, Some(floor)),
            None => BenchRecord::info(key, self.speedup),
        };
        with_records(vec![row], "noc.hybrid", &at, self, &["speedup", "floor"])
    }
}

/// Time the hybrid event-driven engine against a per-cycle stepping
/// driver of the *same* optimized network, on the traffic regimes the
/// engine exists for:
///
/// * `bursty-32` — 32×32, short injection bursts separated by long
///   quiescent gaps (the profiled-kernel-graph regime). Skip-ahead
///   collapses the gaps; the gate is ≥ 5×.
/// * `uniform-32` — 32×32 continuous load: nothing to skip, so this is
///   the no-regression point (calendar + engine dispatch overhead must
///   stay small; floor 0.7×).
/// * `bursty-64` — 64×64 scaling datapoint, informational.
///
/// Both sides run the identical pregenerated schedule over the identical
/// simulated span (the stepper is driven to the hybrid's drain cycle),
/// so the ratio isolates engine cost. Cycle-exactness is asserted via
/// the delivery counts.
pub fn measure_hybrid(repeats: u32) -> Vec<NocHybridPoint> {
    assert!(repeats >= 1);
    struct Spec {
        label: &'static str,
        side: u16,
        offered: f64,
        burst: Option<Burst>,
        horizon: u64,
        floor: Option<f64>,
    }
    let specs = [
        Spec {
            label: "bursty-32",
            side: 32,
            offered: 0.1,
            burst: Some(Burst {
                on: 4,
                period: 100_000,
            }),
            horizon: 400_000,
            floor: Some(5.0),
        },
        Spec {
            label: "uniform-32",
            side: 32,
            offered: 0.1,
            burst: None,
            horizon: 2_000,
            floor: Some(0.7),
        },
        Spec {
            label: "bursty-64",
            side: 64,
            offered: 0.1,
            burst: Some(Burst {
                on: 4,
                period: 50_000,
            }),
            horizon: 200_000,
            floor: None,
        },
    ];

    let mut out = Vec::new();
    for spec in specs {
        let mesh = Mesh::new(spec.side, spec.side);
        let cfg = NocConfig::paper_default(mesh);
        let schedule = schedule(
            cfg,
            Pattern::Uniform,
            spec.offered,
            16,
            spec.burst,
            spec.horizon,
            0x47B1,
        );
        let pattern = if spec.burst.is_some() {
            "bursty"
        } else {
            "uniform"
        };

        let mut hybrid_best = f64::INFINITY;
        let mut stepper_best = f64::INFINITY;
        let mut end = 0u64;
        let mut delivered = 0u64;
        let mut skipped = 0u64;
        let mut stepped = 0u64;
        for _ in 0..repeats {
            // Hybrid engine: calendar injection + next-event skip-ahead.
            let mut hy = HybridNetwork::new(cfg);
            hy.set_record_mode(RecordMode::Stats);
            schedule_hybrid(&mut hy, &schedule, 16);
            let t = Instant::now();
            hy.run_until_drained(20_000_000).expect("hybrid drains");
            hybrid_best = hybrid_best.min(t.elapsed().as_secs_f64());
            end = hy.cycle();
            delivered = hy.stats().delivered();
            skipped = hy.skip_stats().skipped_cycles;
            stepped = hy.skip_stats().stepped_cycles + hy.skip_stats().bulk_cycles;

            // Stepping driver: the same fast-path network, stepped every
            // cycle to the exact span the hybrid covered.
            let mut net = Network::new(cfg);
            net.set_record_mode(RecordMode::Stats);
            let t = Instant::now();
            drive_schedule(&mut net, &schedule, 16, end);
            stepper_best = stepper_best.min(t.elapsed().as_secs_f64());
            assert!(
                net.is_drained(),
                "stepper must drain by the hybrid's end cycle"
            );
            assert_eq!(
                delivered,
                net.stats().delivered(),
                "hybrid and stepper diverged at point {}",
                spec.label
            );
        }
        out.push(NocHybridPoint {
            label: spec.label.to_string(),
            side: spec.side,
            pattern: pattern.to_string(),
            cycles: end,
            delivered,
            hybrid_cycles_per_sec: end as f64 / hybrid_best,
            stepper_cycles_per_sec: end as f64 / stepper_best,
            speedup: stepper_best / hybrid_best,
            skipped_cycles: skipped,
            stepped_cycles: stepped,
            floor: spec.floor,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_every_sweep_point_with_positive_rates() {
        // Tiny run: correctness of the harness, not a timing claim.
        let run = measure(4, 400, 1);
        let labels: Vec<&str> = run.points.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, ["0.01", "0.1", "0.5", "0.9", "bursty"]);
        for r in &run.points {
            assert!(r.fast_cycles_per_sec > 0.0);
            assert!(r.reference_cycles_per_sec > 0.0);
            assert!(r.delivered > 0, "no traffic at point {}", r.label);
        }
        assert_eq!(run.metrics.len(), 5);
        for m in &run.metrics {
            assert!(m.metrics.forwarded_flits > 0);
            assert!(m.mean_link_utilization > 0.0);
            assert!(m.max_link_utilization <= 1.0);
        }
        // Higher offered load must not move fewer flits.
        let flits = |label: &str| {
            run.metrics
                .iter()
                .find(|m| m.label == label)
                .unwrap()
                .metrics
                .forwarded_flits
        };
        assert!(flits("0.9") >= flits("0.1"));
        assert!(flits("0.1") >= flits("0.01"));
    }

    #[test]
    fn hybrid_harness_covers_all_points_and_really_skips() {
        // Harness correctness only — the ≥5x / ≥0.7x acceptance bars are
        // wall-clock claims asserted by `repro bench-noc` in release.
        let points = measure_hybrid(1);
        let labels: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, ["bursty-32", "uniform-32", "bursty-64"]);
        for p in &points {
            assert!(p.delivered > 0, "no traffic at point {}", p.label);
            assert!(p.hybrid_cycles_per_sec > 0.0);
            assert!(p.stepper_cycles_per_sec > 0.0);
            assert_eq!(
                p.skipped_cycles + p.stepped_cycles,
                p.cycles,
                "skip accounting must cover the whole span at {}",
                p.label
            );
            if p.pattern == "bursty" {
                assert!(
                    p.skipped_cycles > p.stepped_cycles,
                    "idle-heavy point {} must be dominated by skips",
                    p.label
                );
            }
        }
        // The gated point and the no-regression point are marked as such.
        assert_eq!(points[0].floor, Some(5.0));
        assert_eq!(points[1].floor, Some(0.7));
        assert_eq!(points[2].floor, None);
    }

    #[test]
    fn trace_overhead_harness_reports_every_load_point() {
        // Tiny run: harness correctness only — the 5%/15% acceptance
        // bars are wall-clock claims asserted by `repro bench-noc`,
        // where run sizes are large enough for stable timing.
        let run = measure(4, 200, 1);
        let overhead = measure_trace_overhead(4, 200, 1, &run.points);
        assert_eq!(overhead.len(), 3);
        for p in &overhead {
            assert!(p.disabled_cycles_per_sec > 0.0);
            assert!(p.sampled_cycles_per_sec > 0.0);
            assert!(p.disabled_ratio > 0.0);
            assert!(p.sampled_ratio > 0.0);
            assert!(
                p.sampled_events > 0,
                "1-in-64 sampling must still capture packets at load {}",
                p.offered
            );
            assert_eq!(p.sampled_dropped, 0, "ring must not overflow");
        }
    }

    #[test]
    fn spatial_overhead_harness_reports_every_load_point() {
        // Tiny run: harness correctness only — the ≥0.98x/≥0.90x
        // acceptance bars are wall-clock claims asserted by `repro
        // bench-noc`, where run sizes are large enough for stable timing.
        let run = measure(4, 200, 1);
        let overhead = measure_spatial_overhead(4, 200, 1, &run.points);
        assert_eq!(overhead.len(), 3);
        for p in &overhead {
            assert!(p.baseline_cycles_per_sec > 0.0);
            assert!(p.off_cycles_per_sec > 0.0);
            assert!(p.windowed_cycles_per_sec > 0.0);
            assert!(p.off_ratio > 0.0);
            assert!(p.windowed_ratio > 0.0);
            // 200 cycles never closes a 1024-cycle window, but flow
            // attribution records at injection, so flows must appear.
            assert!(
                p.windowed_flows > 0,
                "windowed run attributed no flows at load {}",
                p.offered
            );
        }
    }

    #[test]
    fn sampler_overhead_harness_reports_every_load_point() {
        // Tiny run: harness correctness only — the ≤5% acceptance bars
        // are wall-clock claims asserted by `repro bench-noc`.
        let run = measure(4, 200, 1);
        let overhead = measure_sampler_overhead(4, 200, 1, &run.points);
        assert_eq!(overhead.len(), 3);
        for p in &overhead {
            assert!(p.pulse_cycles_per_sec > 0.0);
            assert!(p.hz10_cycles_per_sec > 0.0);
            assert!(p.hz100_cycles_per_sec > 0.0);
            // The sampler takes an immediate sample on start and a final
            // one on stop, so even a 200-cycle run collects some.
            assert!(p.hz100_samples > 0, "sampler collected nothing");
        }
    }
}
