//! Sustained-load benchmark of `hic serve` fed by generated workloads.
//!
//! Where [`crate::serveperf`] storms the daemon with the four built-in
//! paper apps, this bench storms it with `gen:` sources — the synthetic
//! kernel-graph generator from `hic-workload`. Every job names a seeded
//! spec (`gen:k=…,seed=…`); the daemon resolves it through the same
//! app-source layer as the CLI, synthesizes a trace, replays it through
//! the profiler, and caches the artifact under the canonical spec
//! digest. The seed stream deliberately revisits a bounded pool so the
//! second visit to any spec is a pure store hit — exercising exactly
//! the cache-key-canonicalization claim the generator makes.
//!
//! The `repro` binary's `bench-workload` subcommand writes the result
//! as the `workload.` records of `BENCH.json`; `repro check` gates on
//! the structural columns (completion, hit rate) and prints throughput
//! and the pooled latency percentiles as info rows.

use crate::regress::{with_records, BenchRecord};
use crate::serveperf::storm;
use serde::Serialize;

/// The generated-workload measurement.
#[derive(Debug, Clone, Default, Serialize)]
pub struct WorkloadPerf {
    /// Concurrent client connections.
    pub clients: usize,
    /// Jobs each client submitted.
    pub jobs_per_client: usize,
    /// Distinct generated specs in the seed pool.
    pub spec_pool: usize,
    /// Daemon worker threads.
    pub workers: usize,
    /// Admission-queue capacity the daemon ran with.
    pub queue_cap: usize,
    /// Jobs accepted by the daemon.
    pub submitted: u64,
    /// Jobs that reached `done`.
    pub completed: u64,
    /// Jobs that reached `failed`.
    pub failed: u64,
    /// Wall-clock of the whole storm (first connect to last join).
    pub wall_secs: f64,
    /// `completed / wall_secs` — sustained throughput.
    pub jobs_per_sec: f64,
    /// Profile (graph-producing) jobs that completed per second. Design
    /// jobs reuse a cached graph, so this is the rate at which the
    /// daemon *delivered* communication graphs, warm or cold.
    pub graphs_per_sec: f64,
    /// Median submit→done latency (milliseconds).
    pub p50_ms: f64,
    /// 99th-percentile submit→done latency (milliseconds).
    pub p99_ms: f64,
    /// Store hit rate over the run: `hits / (hits + misses)`. High by
    /// construction — the seed pool is far smaller than the job count.
    pub hit_rate: f64,
    /// `completed / (clients · jobs_per_client)` — must be 1.0.
    pub completion: f64,
}

impl WorkloadPerf {
    /// The `workload.*` rows. The gates mirror the serve ones:
    /// completion is structural (retries absorb admission rejections),
    /// and the seed pool guarantees a warm store, so only a collapse of
    /// the hit rate gates.
    pub fn records(&self) -> Vec<BenchRecord> {
        let rows = vec![
            BenchRecord::gate("workload.completion", self.completion, 0.001, Some(0.999)),
            BenchRecord::gate("workload.hit_rate", self.hit_rate, 0.5, Some(0.25)),
            BenchRecord::info("workload.jobs_per_sec", self.jobs_per_sec),
            BenchRecord::info("workload.graphs_per_sec", self.graphs_per_sec),
            BenchRecord::info("workload.p50_ms", self.p50_ms),
            BenchRecord::info("workload.p99_ms", self.p99_ms),
        ];
        with_records(rows, "workload", "", self, &[])
    }
}

/// The `gen:` source string for seed-pool slot `slot`. Kernel count and
/// fanout vary with the slot so the pool is not one hot shape; the seed
/// pins determinism, so revisiting a slot is a guaranteed cache hit.
fn gen_source(slot: usize) -> String {
    format!(
        "gen:k={},fanout={},seed={}",
        4 + slot % 5,
        1 + slot % 3,
        0xBEEF + slot as u64
    )
}

/// Run `clients` concurrent clients, each submitting `jobs_per_client`
/// generated-workload jobs against a fresh in-process daemon.
pub fn measure(clients: usize, jobs_per_client: usize) -> WorkloadPerf {
    // A bounded seed pool, well below the job count, so most jobs
    // revisit a spec another client already computed.
    let total_jobs = clients * jobs_per_client;
    let spec_pool = (total_jobs / 6).clamp(4, 24);
    // Mostly profile jobs (the graph-producing path the generator exists
    // for), with a sprinkle of design jobs that reuse the cached profile
    // artifact downstream.
    let is_design = |n: usize| n % 5 == 4;
    let s = storm(clients, jobs_per_client, |n| {
        let app = gen_source(n % spec_pool);
        if is_design(n) {
            ("design", app, Some((n % 16) as u8))
        } else {
            ("profile", app, None)
        }
    });
    // Every job completed `done` (the storm asserts it), so every
    // profile job delivered a graph.
    let graphs = (0..total_jobs).filter(|&n| !is_design(n)).count();
    WorkloadPerf {
        clients,
        jobs_per_client,
        spec_pool,
        workers: s.workers,
        queue_cap: s.queue_cap,
        submitted: s.submitted,
        completed: s.completed,
        failed: s.failed,
        wall_secs: s.wall_secs,
        jobs_per_sec: s.jobs_per_sec,
        graphs_per_sec: graphs as f64 / s.wall_secs.max(1e-9),
        p50_ms: s.p50_ms,
        p99_ms: s.p99_ms,
        hit_rate: s.hit_rate,
        completion: s.completion,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_pool_sources_are_valid_and_distinct() {
        // Every pool slot parses as a gen source and names a distinct
        // spec; the job stream's `n % spec_pool` indexing is what makes
        // revisits (and therefore cache hits) happen.
        let pool: Vec<String> = (0..24).map(gen_source).collect();
        for s in &pool {
            hic_pipeline::AppSource::parse(s).expect("pool source parses");
        }
        let distinct: std::collections::BTreeSet<&String> = pool.iter().collect();
        assert_eq!(distinct.len(), pool.len(), "seeds make every slot unique");
    }

    #[test]
    fn small_generated_storm_completes_and_warms_the_cache() {
        let p = measure(6, 3);
        assert_eq!(p.completed, 18, "failed={}", p.failed);
        assert_eq!(p.failed, 0);
        assert!((p.completion - 1.0).abs() < 1e-9);
        // 18 jobs over a pool of ≤4 distinct specs: must re-hit.
        assert!(p.hit_rate > 0.0, "hit_rate {}", p.hit_rate);
        assert!(p.graphs_per_sec > 0.0 && p.graphs_per_sec <= p.jobs_per_sec);
        assert!(p.p50_ms > 0.0 && p.p99_ms >= p.p50_ms);
    }
}
