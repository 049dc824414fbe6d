//! The parallel batch compilation service.
//!
//! A batch run compiles several applications end-to-end. Per app the
//! work is a small DAG:
//!
//! ```text
//! Profile(app) ──┬── Design(app, knobs=0)        (baseline)
//!                ├── Design(app, knobs=1..14)    (lattice interior)
//!                ├── Design(app, knobs=15) ──── Cosim(app)   (hybrid)
//!                └── (all 16 designs) ───────── the DSE front
//! ```
//!
//! All jobs across all apps go into one pool: a profile for `canny` can
//! run while a design for `jpeg` is still in flight. Jobs are identified
//! by their *store key*, so listing the same app twice — or two apps
//! whose artifacts coincide — creates each job once (in-process dedup on
//! top of the store's single-flight). Workers pull from a shared ready
//! queue; a finished job decrements its dependents' wait counts and
//! enqueues the ones that became ready, which is exactly work stealing
//! with the queue as the steal target.
//!
//! Determinism: results are assembled *after* the pool drains, in the
//! caller's app order with lattice points in bit order, so the output is
//! byte-identical to a sequential per-app run regardless of worker count
//! or scheduling. On failure the first error — in job creation order,
//! not completion order — wins, again matching the sequential run.

use crate::source::AppSource;
use crate::stages;
use crate::store::{ArtifactStore, CacheStats, StoreConfig};
use crate::PipelineError;
use hic_core::{pareto_front, point_of, DesignConfig, DsePoint, InterconnectPlan, StableHash};
use hic_obs::trace::{self, Category};
use hic_sim::CosimResult;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};

/// What to run and how.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Applications to compile (any app source: built-in names,
    /// `gen:<spec>`, `trace:<path>`, `file:<path>`).
    pub apps: Vec<String>,
    /// Worker threads (`None` = available parallelism).
    pub jobs: Option<usize>,
    /// Cache directory (`None` = run without a store).
    pub cache_dir: Option<PathBuf>,
    /// `false` = `--no-cache`: skip reads, still publish.
    pub read_cache: bool,
    /// LRU byte cap for the store (`None` = unbounded).
    pub max_bytes: Option<u64>,
}

impl BatchOptions {
    /// Compile `apps` with a cache at `dir` and default settings.
    pub fn new(apps: Vec<String>, dir: Option<PathBuf>) -> BatchOptions {
        BatchOptions {
            apps,
            jobs: None,
            cache_dir: dir,
            read_cache: true,
            max_bytes: None,
        }
    }
}

/// Everything the batch produced for one application.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppReport {
    /// Application name.
    pub app: String,
    /// Number of hardware kernels.
    pub kernels: usize,
    /// Solution label of the hybrid plan ("hybrid" / "bus only" / ...).
    pub solution: String,
    /// Analytic hybrid kernel time (cycles).
    pub analytic_kernel_cycles: u64,
    /// Co-simulated hybrid kernel time (cycles).
    pub cosim_kernel_cycles: u64,
    /// Co-simulated application time (cycles).
    pub cosim_app_cycles: u64,
    /// Packets that crossed the NoC during co-simulation.
    pub noc_packets: u64,
    /// Analytic app speedup vs all-software execution.
    pub speedup_vs_sw: f64,
    /// Analytic app speedup vs the bus-only baseline.
    pub speedup_vs_baseline: f64,
    /// The full 2⁴ DSE lattice, in bit order.
    pub dse_points: Vec<DsePoint>,
    /// The Pareto front over (kernel time, LUTs, registers).
    pub pareto_front: Vec<DsePoint>,
}

/// The result of a batch run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchOutcome {
    /// Per-app reports, in the requested app order (duplicates kept).
    pub apps: Vec<AppReport>,
    /// Cache statistics for the run (zeroes when run without a store).
    pub stats: CacheStats,
    /// Jobs executed (after dedup).
    pub jobs_run: usize,
    /// Worker threads used.
    pub workers: usize,
}

/// What a finished job hands to its dependents and to assembly.
#[derive(Debug, Clone)]
enum JobOutput {
    /// The profile, plus its spec's `stable_hash_json` when a store will
    /// key the designs on it (computed once, not once per lattice point).
    Profile(Arc<stages::ProfileArtifact>, Option<StableHash>),
    Design(Arc<InterconnectPlan>),
    Cosim(Arc<CosimResult>),
}

enum JobKind {
    Profile { app: String },
    Design { profile: usize, bits: u8 },
    Cosim { design: usize },
}

struct JobNode {
    kind: JobKind,
    /// Jobs that consume this one's output.
    dependents: Vec<usize>,
    /// How many dependencies are still unfinished.
    waiting: usize,
}

struct PoolState {
    ready: VecDeque<usize>,
    done: usize,
    total: usize,
}

/// Run a batch compilation. See the module docs for the execution model.
pub fn run_batch(opts: &BatchOptions) -> Result<BatchOutcome, PipelineError> {
    let store = match &opts.cache_dir {
        Some(dir) => Some(ArtifactStore::open(StoreConfig {
            root: dir.clone(),
            max_bytes: opts.max_bytes,
            ..StoreConfig::default()
        })?),
        None => None,
    };
    let store = store.as_ref();
    let cfg = DesignConfig::default();
    let read = opts.read_cache;

    // --- Build the DAG, deduplicating structurally identical jobs. ---
    // Dedup is by canonical source token (`AppSource::token`), so listing
    // the same app twice — or the same `gen:` spec with its keys spelled
    // in a different order — creates each job once. (Two trace files with
    // identical contents still dedup at the store layer, which keys on
    // the content digest.)
    let mut nodes: Vec<JobNode> = Vec::new();
    let mut profile_of: HashMap<String, usize> = HashMap::new();
    // source token -> (profile node, [16 design nodes], cosim node)
    let mut plan_of: HashMap<String, (usize, Vec<usize>, usize)> = HashMap::new();
    // Validate every app string up front (first bad one wins) and keep
    // the tokens for assembly.
    let tokens: Vec<String> = opts
        .apps
        .iter()
        .map(|app| AppSource::parse(app).map(|s| s.token()))
        .collect::<Result<_, _>>()?;

    for (app, token) in opts.apps.iter().zip(&tokens) {
        if plan_of.contains_key(token) {
            continue;
        }
        let profile = *profile_of.entry(token.clone()).or_insert_with(|| {
            nodes.push(JobNode {
                kind: JobKind::Profile { app: app.clone() },
                dependents: Vec::new(),
                waiting: 0,
            });
            nodes.len() - 1
        });
        let mut designs = Vec::with_capacity(16);
        for bits in 0u8..16 {
            let id = nodes.len();
            nodes.push(JobNode {
                kind: JobKind::Design { profile, bits },
                dependents: Vec::new(),
                waiting: 1,
            });
            nodes[profile].dependents.push(id);
            designs.push(id);
        }
        // The hybrid IS lattice point 15 (`Variant::Hybrid.knobs() == ALL`
        // and identical store keys), so co-simulation rides on it.
        let hybrid = designs[15];
        let cosim = nodes.len();
        nodes.push(JobNode {
            kind: JobKind::Cosim { design: hybrid },
            dependents: Vec::new(),
            waiting: 1,
        });
        nodes[hybrid].dependents.push(cosim);
        plan_of.insert(token.clone(), (profile, designs, cosim));
    }

    // Trace labels of the `job.ready` instants: "stage app[#bits]".
    let labels: Vec<String> = nodes
        .iter()
        .map(|n| match &n.kind {
            JobKind::Profile { app } => format!("profile {app}"),
            JobKind::Design { profile, bits } => {
                let JobKind::Profile { app } = &nodes[*profile].kind else {
                    unreachable!("design depends on a profile")
                };
                format!("design {app}#{bits}")
            }
            JobKind::Cosim { design } => {
                let JobKind::Design { profile, .. } = &nodes[*design].kind else {
                    unreachable!("cosim depends on a design")
                };
                let JobKind::Profile { app } = &nodes[*profile].kind else {
                    unreachable!("design depends on a profile")
                };
                format!("cosim {app}")
            }
        })
        .collect();

    // --- Run the pool. ---
    let total = nodes.len();
    let workers = opts
        .jobs
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
        .clamp(1, total.max(1));

    let results: Vec<Mutex<Option<Result<JobOutput, PipelineError>>>> =
        (0..total).map(|_| Mutex::new(None)).collect();
    let state = Mutex::new(PoolState {
        ready: nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.waiting == 0)
            .map(|(i, _)| i)
            .collect(),
        done: 0,
        total,
    });
    let wake = Condvar::new();
    let waiting: Vec<Mutex<usize>> = nodes.iter().map(|n| Mutex::new(n.waiting)).collect();
    let depth = hic_obs::global().gauge("pipeline.queue.depth");
    depth.set(state.lock().unwrap().ready.len() as u64);
    // Live pool telemetry for `hic top` / `/metrics`: lanes currently
    // executing a job, total lanes, and a monotone completion counter the
    // sampler can turn into a jobs/sec rate.
    let busy = hic_obs::global().gauge("pipeline.workers.busy");
    let total_lanes = hic_obs::global().gauge("pipeline.workers.total");
    total_lanes.set(workers as u64);
    let completed = hic_obs::global().counter("pipeline.jobs.completed");
    if trace::enabled(Category::Batch) {
        for &job in &state.lock().unwrap().ready {
            trace::instant(Category::Batch, "job.ready", &labels[job], job as u64);
        }
    }

    // If the batch runs on behalf of a serve job, carry its context
    // across the pool: each worker re-arms the captured JobCtx so the
    // stage scopes it executes (possibly stolen from other lanes) land
    // in the submitting job's timeline.
    let jobctx = hic_obs::job::current();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _job_guard = jobctx.clone().map(hic_obs::job::adopt);
                loop {
                    let job = {
                        let mut st = state.lock().unwrap();
                        loop {
                            if let Some(j) = st.ready.pop_front() {
                                depth.dec();
                                break j;
                            }
                            if st.done == st.total {
                                return;
                            }
                            st = wake.wait(st).unwrap();
                        }
                    };

                    // The stage's slice lands on this worker's lane (its
                    // thread-local recorder), so the trace shows per-lane
                    // occupancy.
                    busy.inc();
                    let out = execute(&nodes[job].kind, &results, store, read, &cfg);
                    busy.dec();
                    completed.inc();

                    *results[job].lock().unwrap() = Some(out);
                    let mut st = state.lock().unwrap();
                    st.done += 1;
                    for &dep in &nodes[job].dependents {
                        let mut w = waiting[dep].lock().unwrap();
                        *w -= 1;
                        if *w == 0 {
                            st.ready.push_back(dep);
                            depth.inc();
                            trace::instant(Category::Batch, "job.ready", &labels[dep], dep as u64);
                        }
                    }
                    // Every finisher wakes the pool: dependents may be ready,
                    // and the last job must release the idle waiters.
                    wake.notify_all();
                }
            });
        }
    });

    // --- Deterministic assembly, in the caller's app order. ---
    let take = |id: usize| -> Result<JobOutput, PipelineError> {
        results[id]
            .lock()
            .unwrap()
            .clone()
            .expect("pool drained; every job has a result")
    };

    // First error in job-creation order wins (matches a sequential run).
    for (id, _) in nodes.iter().enumerate() {
        take(id)?;
    }

    let mut apps = Vec::with_capacity(opts.apps.len());
    for (app, token) in opts.apps.iter().zip(&tokens) {
        let (_, designs, cosim_id) = &plan_of[token];
        let mut points = Vec::with_capacity(16);
        let mut hybrid: Option<Arc<InterconnectPlan>> = None;
        for (bits, &id) in designs.iter().enumerate() {
            let JobOutput::Design(plan) = take(id)? else {
                unreachable!("design node yields a design")
            };
            points.push(point_of(&plan, hic_core::knobs_at(bits as u8)));
            if bits == 15 {
                hybrid = Some(plan);
            }
        }
        let hybrid = hybrid.expect("lattice point 15 present");
        let JobOutput::Cosim(sim) = take(*cosim_id)? else {
            unreachable!("cosim node yields a cosim result")
        };
        let front = pareto_front(&points);
        let est = hybrid.estimate();
        apps.push(AppReport {
            app: app.clone(),
            kernels: hybrid.kernels.len(),
            solution: hybrid.solution_label(),
            analytic_kernel_cycles: est.kernels.0,
            cosim_kernel_cycles: sim.kernel_time.0,
            cosim_app_cycles: sim.app_time.0,
            noc_packets: sim.packets as u64,
            speedup_vs_sw: est.app_speedup_vs_sw(),
            speedup_vs_baseline: est.app_speedup_vs_baseline(),
            dse_points: points,
            pareto_front: front,
        });
    }

    Ok(BatchOutcome {
        apps,
        stats: store.map(|s| s.stats()).unwrap_or_default(),
        jobs_run: total,
        workers,
    })
}

fn execute(
    kind: &JobKind,
    results: &[Mutex<Option<Result<JobOutput, PipelineError>>>],
    store: Option<&ArtifactStore>,
    read: bool,
    cfg: &DesignConfig,
) -> Result<JobOutput, PipelineError> {
    let input = |id: usize| -> Result<JobOutput, PipelineError> {
        results[id]
            .lock()
            .unwrap()
            .clone()
            .expect("dependency finished before dependent was enqueued")
    };
    match kind {
        JobKind::Profile { app } => stages::profile(store, read, app).map(|p| {
            let spec_hash = store.map(|_| hic_core::stable_hash_json(&p.spec));
            JobOutput::Profile(Arc::new(p), spec_hash)
        }),
        JobKind::Design { profile, bits } => {
            let JobOutput::Profile(p, spec_hash) = input(*profile)? else {
                unreachable!("design depends on a profile")
            };
            let knobs = hic_core::knobs_at(*bits);
            stages::design_point_hashed(store, read, &p.spec, spec_hash, cfg, knobs)
                .map(|plan| JobOutput::Design(Arc::new(plan)))
        }
        JobKind::Cosim { design } => {
            let JobOutput::Design(plan) = input(*design)? else {
                unreachable!("cosim depends on a design")
            };
            stages::cosim(store, read, &plan).map(|r| JobOutput::Cosim(Arc::new(r)))
        }
    }
}

/// The `hic-batch/v1` JSON document for a batch outcome.
pub fn outcome_json(out: &BatchOutcome) -> String {
    let mut s = String::from("{\"schema\":\"hic-batch/v1\",");
    s.push_str(&format!(
        "\"jobs_run\":{},\"workers\":{},",
        out.jobs_run, out.workers
    ));
    s.push_str(&format!(
        "\"cache\":{{\"hits\":{},\"misses\":{},\"singleflight_waits\":{},\"quarantined\":{},\"evicted_objects\":{},\"per_stage\":{{",
        out.stats.hits,
        out.stats.misses,
        out.stats.singleflight_waits,
        out.stats.quarantined,
        out.stats.evicted_objects,
    ));
    let mut first = true;
    for (stage, (h, m)) in &out.stats.per_stage {
        if !first {
            s.push(',');
        }
        first = false;
        s.push_str(&format!("\"{stage}\":{{\"hits\":{h},\"misses\":{m}}}"));
    }
    s.push_str("}},\"apps\":[");
    for (i, a) in out.apps.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&serde_json::to_string(a).expect("AppReport serializes"));
    }
    s.push_str("]}");
    s
}

/// Recompute one app sequentially with no store — the reference the
/// batch must match byte-for-byte (used by tests and `--verify` runs).
pub fn sequential_report(app: &str) -> Result<AppReport, PipelineError> {
    let cfg = DesignConfig::default();
    let p = stages::profile(None, false, app)?;
    let mut points = Vec::with_capacity(16);
    let mut hybrid: Option<InterconnectPlan> = None;
    for bits in 0u8..16 {
        let plan = stages::design_point(None, false, &p.spec, &cfg, hic_core::knobs_at(bits))?;
        points.push(point_of(&plan, hic_core::knobs_at(bits)));
        if bits == 15 {
            hybrid = Some(plan);
        }
    }
    let hybrid = hybrid.expect("point 15 designed");
    let sim = stages::cosim(None, false, &hybrid)?;
    let front = pareto_front(&points);
    let est = hybrid.estimate();
    Ok(AppReport {
        app: app.to_string(),
        kernels: hybrid.kernels.len(),
        solution: hybrid.solution_label(),
        analytic_kernel_cycles: est.kernels.0,
        cosim_kernel_cycles: sim.kernel_time.0,
        cosim_app_cycles: sim.app_time.0,
        noc_packets: sim.packets as u64,
        speedup_vs_sw: est.app_speedup_vs_sw(),
        speedup_vs_baseline: est.app_speedup_vs_baseline(),
        dse_points: points,
        pareto_front: front,
    })
}
