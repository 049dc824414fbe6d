//! Sustained-load benchmark of the `hic serve` daemon.
//!
//! Starts an in-process daemon on an ephemeral port, then hammers it
//! with many concurrent clients submitting design/profile/cosim jobs
//! over the paper apps × the 2⁴ knob lattice — the workload the daemon
//! exists for. Every client measures per-job latency (submit → done);
//! the run records sustained throughput and the p50/p99 of the pooled
//! latencies. The `repro` binary's `bench-serve` subcommand writes the
//! result as the `serve.` records of `BENCH.json`, and `repro check`
//! gates on the machine-portable completion, cache-hit-rate and
//! logging-overhead columns.
//!
//! The queue capacity is deliberately small relative to the client herd
//! so admission control actually engages: clients see `queue full` and
//! retry with backoff, exercising the bounded-queue + round-robin
//! fairness path rather than an infinitely deep mailbox.

use crate::regress::{with_records, BenchRecord};
use hic_pipeline::PAPER_APPS;
use hic_serve::{Client, Daemon, ServeOptions};
use serde::Serialize;
use std::time::{Duration, Instant};

/// The serve-load measurement.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ServePerf {
    /// Concurrent client connections.
    pub clients: usize,
    /// Jobs each client submitted.
    pub jobs_per_client: usize,
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
    /// Median submit→done latency (milliseconds).
    pub p50_ms: f64,
    /// 99th-percentile submit→done latency (milliseconds).
    pub p99_ms: f64,
    /// Store hit rate over the run: `hits / (hits + misses)`. High by
    /// construction — the lattice is far smaller than the job count.
    pub hit_rate: f64,
    /// `completed / (clients · jobs_per_client)` — must be 1.0: retries
    /// absorb admission rejections, so every job eventually lands.
    pub completion: f64,
    /// Logged/disabled throughput ratio, the paired median of
    /// [`measure_log_ratio`] (0.0 when not measured). `repro check` gates
    /// this at ≥ 0.95: enabling logs may not cost the daemon more than 5%
    /// of its throughput.
    pub log_ratio: f64,
}

impl ServePerf {
    /// The `serve.*` rows: the structural columns gate, the wall-clock
    /// ones are info, and the rest of the run is recorded.
    pub fn records(&self) -> Vec<BenchRecord> {
        let rows = vec![
            // Every job must complete (retries absorb admission
            // rejections, so anything below ~1.0 means lost jobs).
            BenchRecord::gate("serve.completion", self.completion, 0.001, Some(0.999)),
            // The hit rate moves with the clients-to-lattice ratio of the
            // fresh storm; gate only on a collapse (cache effectively
            // off).
            BenchRecord::gate("serve.hit_rate", self.hit_rate, 0.5, Some(0.25)),
            BenchRecord::info("serve.jobs_per_sec", self.jobs_per_sec),
            // Latency is lower-is-better, the opposite of what the gate
            // machinery assumes, so it is printed but never gated.
            BenchRecord::info("serve.p50_ms", self.p50_ms),
            BenchRecord::info("serve.p99_ms", self.p99_ms),
            // Logging overhead: the ≥0.95 absolute floor carries the
            // claim (info logging may not cost the daemon >5%
            // throughput); the relative band is loose since the ratio is
            // noisy on shared hosts.
            BenchRecord::gate("serve.log_ratio", self.log_ratio, 0.5, Some(0.95)),
        ];
        with_records(rows, "serve", "", self, &[])
    }
}

/// `sorted` percentile by nearest-rank on a pre-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Run `clients` concurrent clients, each submitting `jobs_per_client`
/// jobs against a fresh in-process daemon, and pool the latencies. Job
/// `n` (counting across clients) is `job(n)` = (kind, app, knobs), and
/// every job must end `done`.
pub(crate) fn storm(
    clients: usize,
    jobs_per_client: usize,
    job: impl Fn(usize) -> (&'static str, String, Option<u8>) + Sync,
) -> ServePerf {
    // Unique per call, not just per process: parallel test threads (and
    // the disabled/logged pair) must not race on one cache dir.
    static RUN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let run = RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let root = std::env::temp_dir().join(format!("hic-bench-serve-{}-{run}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // Cap well below the herd so `queue full` + retry actually happens.
    let queue_cap = (clients / 2).clamp(8, 64);
    let opts = ServeOptions {
        port: 0,
        queue_cap,
        cache_dir: Some(root.clone()),
        ..ServeOptions::default()
    };
    let workers = opts.workers;
    let daemon = Daemon::start(opts).expect("daemon starts");
    let port = daemon.port();

    let backoff = Duration::from_millis(2);
    let poll = Duration::from_millis(1);
    let job = &job;
    let t0 = Instant::now();
    let mut latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                scope.spawn(move || {
                    let mut c = Client::connect(port).expect("client connects");
                    let name = format!("load-{i}");
                    let mut lats = Vec::with_capacity(jobs_per_client);
                    for j in 0..jobs_per_client {
                        let (kind, app, knobs) = job(i * jobs_per_client + j);
                        let t = Instant::now();
                        let job = c
                            .submit_retrying(kind, &app, knobs, &name, backoff)
                            .expect("submit")
                            .expect("accepted after retries");
                        let state = c.wait_done(job, poll).expect("status");
                        assert_eq!(state, "done", "job {job} ({kind} {app}) failed");
                        lats.push(t.elapsed().as_secs_f64() * 1e3);
                    }
                    lats
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_secs = t0.elapsed().as_secs_f64();

    let stats = daemon.cache_stats();
    let summary = daemon.stop();
    let _ = std::fs::remove_dir_all(&root);

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));
    let total = (clients * jobs_per_client) as u64;
    let lookups = stats.hits + stats.misses;
    ServePerf {
        clients,
        jobs_per_client,
        workers,
        queue_cap,
        submitted: summary.submitted,
        completed: summary.completed,
        failed: summary.failed,
        wall_secs,
        jobs_per_sec: summary.completed as f64 / wall_secs.max(1e-9),
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        hit_rate: if lookups > 0 {
            stats.hits as f64 / lookups as f64
        } else {
            0.0
        },
        completion: summary.completed as f64 / total.max(1) as f64,
        log_ratio: 0.0,
    }
}

/// Run `clients` concurrent clients, each submitting `jobs_per_client`
/// jobs over the paper apps and the knob lattice against a fresh
/// in-process daemon.
pub fn measure(clients: usize, jobs_per_client: usize) -> ServePerf {
    storm(clients, jobs_per_client, |n| {
        let app = PAPER_APPS[n % PAPER_APPS.len()].to_string();
        // Mostly the design lattice; a sprinkle of profile and
        // (expensive) cosim jobs so the mix resembles real clients,
        // not a single hot key.
        match n % 17 {
            0 => ("profile", app, None),
            9 => ("cosim", app, None),
            _ => ("design", app, Some((n % 16) as u8)),
        }
    })
}

/// One storm with the log layer enabled at `info` into a throwaway
/// file sink; the global gate is closed again before returning.
fn measure_logged(clients: usize, jobs_per_client: usize) -> ServePerf {
    use hic_obs::log::{self, LogConfig};
    static RUN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let run = RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let log_path = std::env::temp_dir().join(format!(
        "hic-bench-serve-log-{}-{run}.ndjson",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&log_path);
    log::init(&LogConfig {
        level: Some(log::Level::Info),
        stderr: false,
        file: Some(log_path.clone()),
        ..LogConfig::default()
    })
    .expect("log sink opens");
    let logged = measure(clients, jobs_per_client);
    log::shutdown();
    let _ = std::fs::remove_file(&log_path);
    logged
}

/// Interleaved A/B estimate of the logging-overhead ratio — the claim
/// that a structured-log layer whose disabled cost is one atomic load is
/// also nearly free when *on* at `info`, since record volume is per-job,
/// not per-flit. `rounds` pairs of storms, one with logging disabled and
/// one enabled into a file sink, then the
/// median of the per-round `on/off` throughput ratios. Each pair runs
/// under the same machine conditions, and the arm that runs first
/// alternates from round to round, so neither arm always pays the
/// round's cold start. A one-shot pair swings ±15% on sub-second storms
/// from scheduler noise alone — far too wide for the hard ≥0.95 gate
/// `repro check` applies; the paired median is what the gate consumes.
pub fn measure_log_ratio(clients: usize, jobs_per_client: usize, rounds: usize) -> f64 {
    let ratios: Vec<f64> = (0..rounds.max(1))
        .map(|round| {
            let (off, on) = if round % 2 == 0 {
                let off = measure(clients, jobs_per_client);
                (off, measure_logged(clients, jobs_per_client))
            } else {
                let on = measure_logged(clients, jobs_per_client);
                (measure(clients, jobs_per_client), on)
            };
            on.jobs_per_sec / off.jobs_per_sec.max(1e-9)
        })
        .collect();
    crate::regress::median(&ratios)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(percentile(&xs, 0.99), 5.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn small_storm_completes_every_job_and_warms_the_cache() {
        let p = measure(6, 3);
        assert_eq!(p.completed, 18, "failed={} ", p.failed);
        assert_eq!(p.failed, 0);
        assert!((p.completion - 1.0).abs() < 1e-9);
        // 18 jobs over ≤ a handful of distinct artifacts: must re-hit.
        assert!(p.hit_rate > 0.0, "hit_rate {}", p.hit_rate);
        assert!(p.p50_ms > 0.0 && p.p99_ms >= p.p50_ms);
        assert!(p.jobs_per_sec > 0.0);
        // A plain measure takes no logged companion run.
        assert_eq!(p.log_ratio, 0.0);
    }

    #[test]
    fn paired_log_ratio_is_measured() {
        let ratio = measure_log_ratio(4, 2, 2);
        // The real ≥0.95 claim is gated by `repro check` on release
        // builds; here (debug, tiny storm, shared test host) only sanity:
        // the logged runs are the same order of magnitude.
        assert!(ratio > 0.2, "log_ratio {ratio}");
        // The logged runs must not leave the global gate open.
        assert!(hic_obs::log::level().is_none());
    }
}
