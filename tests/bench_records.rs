//! Pins the gate table of the committed `BENCH.json`: every row `repro
//! check` evaluates, in order, with its baseline, band, floor and
//! whether it gates. A re-recorded baseline or a moved floor must show
//! up here as a deliberate edit, not slip in with a bench run.

use hic_bench::regress::{self, Kind};
use std::path::Path;

/// `(key, baseline, band, floor)` of a gate row.
const fn gate(
    key: &'static str,
    value: f64,
    band: f64,
    floor: f64,
) -> (&'static str, f64, f64, Option<f64>, bool) {
    (key, value, band, Some(floor), true)
}

/// `(key, baseline)` of an info row: printed, never gated.
const fn info(key: &'static str, value: f64) -> (&'static str, f64, f64, Option<f64>, bool) {
    (key, value, 0.0, None, false)
}

const TABLE: [(&str, f64, f64, Option<f64>, bool); 33] = [
    gate("noc.speedup@0.01", 10.129895902335468, 0.35, 1.2),
    gate("noc.speedup@0.1", 3.0726132976042257, 0.35, 1.2),
    gate("noc.speedup@0.5", 2.1662861697796307, 0.35, 1.2),
    gate("noc.speedup@0.9", 2.467461441633605, 0.35, 1.2),
    gate("noc.speedup@bursty", 10.597731975942088, 0.35, 1.2),
    info("noc.cycles_per_sec@0.01", 1918391.2524428314),
    info("noc.cycles_per_sec@0.1", 226684.52215310762),
    info("noc.cycles_per_sec@0.5", 85472.26610866953),
    info("noc.cycles_per_sec@0.9", 78280.07251787638),
    info("noc.cycles_per_sec@bursty", 3875308.086992916),
    gate("noc.hybrid_speedup@bursty-32", 7.84453303679134, 0.5, 5.0),
    gate("noc.hybrid_speedup@uniform-32", 1.019294232565381, 0.5, 0.7),
    info("noc.hybrid_speedup@bursty-64", 3.1095083680232856),
    gate("noc.spatial_off@0.1", 1.025408436667663, 0.07, 0.90),
    gate("noc.spatial_windowed@0.1", 0.9965275676007066, 0.12, 0.75),
    gate("noc.spatial_off@0.5", 0.9931496139329622, 0.07, 0.90),
    gate("noc.spatial_windowed@0.5", 0.9849015501242396, 0.12, 0.75),
    gate("noc.spatial_off@0.9", 0.991408479597624, 0.07, 0.90),
    gate("noc.spatial_windowed@0.9", 0.9608043305669447, 0.12, 0.75),
    gate("pipeline.speedup", 16.402275796167853, 0.75, 5.0),
    gate("pipeline.warm_hit_rate", 1.0, 0.001, 0.999),
    gate("serve.completion", 1.0, 0.001, 0.999),
    gate("serve.hit_rate", 0.9662077596996246, 0.5, 0.25),
    info("serve.jobs_per_sec", 24.160355367718584),
    info("serve.p50_ms", 6830.4557460000005),
    info("serve.p99_ms", 16406.486517),
    gate("serve.log_ratio", 0.953904671911685, 0.5, 0.95),
    gate("workload.completion", 1.0, 0.001, 0.999),
    gate("workload.hit_rate", 0.7304347826086957, 0.5, 0.25),
    info("workload.jobs_per_sec", 13.613209438924324),
    info("workload.graphs_per_sec", 10.918928404137217),
    info("workload.p50_ms", 4768.130556),
    info("workload.p99_ms", 9653.679420999999),
];

#[test]
fn committed_gate_table_is_pinned() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(regress::BENCH_FILE);
    let records = regress::load(&path).expect("BENCH.json loads");
    let rows: Vec<_> = records
        .iter()
        .filter(|r| r.kind != Kind::Record)
        .map(|r| {
            (
                r.key.as_str(),
                r.value,
                r.band,
                r.floor,
                r.kind == Kind::Gate,
            )
        })
        .collect();
    for (got, want) in rows.iter().zip(&TABLE) {
        assert_eq!(got, want);
    }
    assert_eq!(rows.len(), TABLE.len(), "gate and info rows: {rows:?}");
}
