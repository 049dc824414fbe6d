//! The three workloads: their job lists, set-up, one measured pass, and
//! the output check every pass goes through.

use crate::ledger::{self, Ledger};
use hic_core::{
    stable_hash_json, DesignConfig, DesignKnobs, InterconnectPlan, PlanArtifact, StableHash,
    Variant,
};
use hic_fabric::time::Time;
use hic_pipeline::{
    run_batch, stages, ArtifactStore, BatchOptions, BatchOutcome, PipelineError, ProfileArtifact,
    StoreConfig, PAPER_APPS,
};
use hic_sim::{CosimResult, EngineKind};
use std::path::{Path, PathBuf};

/// Flit payloads (bytes) each `noc-verify` source is re-verified at.
pub const FLIT_PAYLOADS: [u32; 3] = [4, 8, 16];

/// `gen-ladder` rungs: (kernel count, graphs per pass). Many seeded
/// graphs per rung keep a pass's cost and results steady from one run
/// seed to the next; both rungs exceed 8 NoC nodes on most lattice
/// points, so placement is greedy.
const LADDER: [(u32, usize); 2] = [(8, 16), (12, 16)];

/// Generator options of every `gen-ladder` graph besides `k` and the
/// seed: no hotspot edges, whose 8× volumes made a pass's memory peak
/// and simulated cycles swing with the seed.
const LADDER_SPEC: &str = "skew=0";

/// The `noc-verify` source family, without its seed: small graphs with
/// large, unskewed edges and no private compute traffic, so the
/// flit-level co-simulation carries the pass.
const NOC_SOURCE: &str = "k=4,bytes=32768,comm=0,skew=0,hostio=0";

/// Seeded `noc-verify` sources per pass. One graph's NoC cycles vary by
/// about 30% from seed to seed. Over five run seeds, 64 half-size graphs
/// gave a pass's simulated kernel cycles an interquartile range of 2% of
/// the median, against 8% for 32 full-size ones.
const NOC_SOURCES: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperCold,
    GenLadder,
    NocVerify,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper-cold" => Some(Workload::PaperCold),
            "gen-ladder" => Some(Workload::GenLadder),
            "noc-verify" => Some(Workload::NocVerify),
            _ => None,
        }
    }

    /// Worker threads of a measured batch pass. `paper-cold` runs on one:
    /// its four apps differ in size, and with two workers a pass's time
    /// hung on which worker drew which job.
    pub fn workers(self) -> usize {
        match self {
            Workload::GenLadder => 2,
            Workload::PaperCold | Workload::NocVerify => 1,
        }
    }

    /// Whether a measured pass publishes to the store. Only `gen-ladder`
    /// does: every publish ends in an `fsync`, whose latency follows the
    /// host's disk load rather than the program, and it swamped the
    /// shorter passes of the other two workloads.
    pub fn publishes(self) -> bool {
        self == Workload::GenLadder
    }

    /// The app sources of a run seeded `seed`.
    pub fn sources(self, seed: u64) -> Vec<String> {
        match self {
            Workload::PaperCold => PAPER_APPS.iter().map(|a| a.to_string()).collect(),
            Workload::GenLadder => LADDER
                .iter()
                .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
                .enumerate()
                .map(|(i, k)| format!("gen:k={k},{LADDER_SPEC},seed={}", gen_seed(seed, i as u64)))
                .collect(),
            Workload::NocVerify => (0..NOC_SOURCES)
                .map(|i| format!("gen:{NOC_SOURCE},seed={}", gen_seed(seed, i as u64)))
                .collect(),
        }
    }

    /// The jobs of one pass: one per source for the batch workloads, one
    /// per source × flit payload for `noc-verify`.
    pub fn jobs(self, seed: u64) -> Vec<Job> {
        let sources = self.sources(seed);
        if self != Workload::NocVerify {
            return sources
                .into_iter()
                .map(|app| Job {
                    app,
                    cfg: DesignConfig::default(),
                })
                .collect();
        }
        sources
            .iter()
            .flat_map(|app| {
                FLIT_PAYLOADS.iter().map(|&flit_payload| Job {
                    app: app.clone(),
                    cfg: DesignConfig {
                        flit_payload,
                        ..DesignConfig::default()
                    },
                })
            })
            .collect()
    }
}

/// The `gen:` seed of the `index`-th generated source of a run seeded
/// `seed`: a SplitMix64 mix, cut to six digits so specs stay readable.
pub fn gen_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add((index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % 1_000_000
}

/// One compile job: an app source designed under `cfg`.
#[derive(Debug, Clone)]
pub struct Job {
    pub app: String,
    pub cfg: DesignConfig,
}

/// Everything a pass checks for one job. All of it is simulated or
/// modelled, so it repeats exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// `stable_hash_json` of the batch's `AppReport` (batch jobs only).
    pub report: Option<StableHash>,
    /// `stable_hash_json` of the hybrid plan's `PlanArtifact`.
    pub plan: StableHash,
    pub kernel_time: Time,
    pub noc_cycles: u64,
    /// `kernel_time` in kernel-clock cycles.
    pub kernel_cycles: u64,
    /// LUTs of the hybrid plan (lattice point 15).
    pub luts: u64,
}

impl Outcome {
    fn of(plan: &PlanArtifact, sim: &CosimResult, luts: u64) -> Outcome {
        Outcome {
            report: None,
            plan: stable_hash_json(plan),
            kernel_time: sim.kernel_time,
            noc_cycles: sim.noc_cycles,
            kernel_cycles: plan.app.kernel_clock.cycles_ceil(sim.kernel_time),
            luts,
        }
    }
}

/// What one pass produced, before it is checked.
pub enum PassOutput {
    Batch(BatchOutcome),
    Noc(Vec<(InterconnectPlan, CosimResult, u64)>),
}

/// A workload after set-up: its store, its jobs and their expected
/// outcomes.
pub struct Bench {
    pub workload: Workload,
    pub jobs: Vec<Job>,
    pub dir: PathBuf,
    pub store: ArtifactStore,
    pub expect: Vec<Outcome>,
    /// Batch jobs: store keys of the hybrid plan and its co-simulation,
    /// read back to check what the batch published.
    keys: Vec<(StableHash, StableHash)>,
}

fn open(dir: &Path) -> Result<ArtifactStore, String> {
    ArtifactStore::open(StoreConfig {
        root: dir.to_path_buf(),
        ..StoreConfig::default()
    })
    .map_err(|e| format!("store {}: {e}", dir.display()))
}

impl Bench {
    /// Set the workload up in a fresh store at `dir`: run every job once
    /// (failing fast, naming the job, when one cannot be compiled, e.g.
    /// over the default budget) and record its outcome. Returns the bench
    /// and whether the first job matched the uncached path.
    pub fn set_up(workload: Workload, seed: u64, dir: PathBuf) -> Result<(Bench, bool), String> {
        let store = open(&dir)?;
        let mut bench = Bench {
            workload,
            jobs: workload.jobs(seed),
            dir,
            store,
            expect: Vec::new(),
            keys: Vec::new(),
        };
        if workload == Workload::NocVerify {
            for app in workload.sources(seed) {
                stages::profile(Some(&bench.store), false, &app)
                    .map_err(|e| format!("set-up: {app}: {e}"))?;
            }
            let PassOutput::Noc(out) = bench.pass(1).map_err(|e| format!("set-up: {e}"))? else {
                unreachable!("noc-verify passes yield plans")
            };
            bench.expect = bench.noc_outcomes(&out);
        } else {
            for job in &bench.jobs {
                let opts = batch_options(
                    Some(bench.dir.clone()),
                    vec![job.app.clone()],
                    workload.workers(),
                );
                let out = run_batch(&opts).map_err(|e| format!("set-up: {}: {e}", job.app))?;
                let keys = hybrid_keys(&bench.store, &job.app)?;
                let outcome =
                    batch_outcome(&bench.store, &out.apps[0], keys, &mut Ledger::default())?;
                bench.keys.push(keys);
                bench.expect.push(outcome);
            }
        }
        let uncached = bench.uncached_matches()?;
        Ok((bench, uncached))
    }

    /// Whether the first job, run through the uncached path (no store at
    /// all), matches its set-up record.
    fn uncached_matches(&self) -> Result<bool, String> {
        let job = &self.jobs[0];
        let err = |e: PipelineError| format!("uncached {}: {e}", job.app);
        if self.workload != Workload::NocVerify {
            let report = hic_pipeline::batch::sequential_report(&job.app).map_err(err)?;
            return Ok(Some(stable_hash_json(&report)) == self.expect[0].report);
        }
        let profile = stages::profile(None, false, &job.app).map_err(err)?;
        let plan = stages::design_variant(None, false, &profile.spec, &job.cfg, Variant::Hybrid)
            .map_err(err)?;
        let sim = stages::cosim(None, false, &plan).map_err(err)?;
        let luts = plan.resources().total().luts;
        Ok(Outcome::of(&PlanArtifact::from(&plan), &sim, luts) == self.expect[0])
    }

    /// Whether the step-by-step NoC engine reproduces the default engine
    /// exactly on the `noc-verify` job that keeps the NoC busiest.
    pub fn engines_agree(&self) -> Result<bool, String> {
        let busiest = (0..self.jobs.len())
            .max_by_key(|&i| self.expect[i].noc_cycles)
            .expect("noc-verify has jobs");
        let job = &self.jobs[busiest];
        let profile =
            stages::profile(Some(&self.store), true, &job.app).map_err(|e| e.to_string())?;
        let plan = stages::design_variant(
            Some(&self.store),
            true,
            &profile.spec,
            &job.cfg,
            Variant::Hybrid,
        )
        .map_err(|e| e.to_string())?;
        Ok(hic_sim::cosimulate_with(&plan, EngineKind::Step)
            == hic_sim::cosimulate_with(&plan, EngineKind::Auto))
    }

    /// One measured pass: a `run_batch` of every source with
    /// `read_cache = false`, through the store only where the workload
    /// [publishes](Workload::publishes); or for `noc-verify` every job
    /// through the stages: profile and design read from the store, then a
    /// fresh cosim with no store.
    pub fn pass(&self, workers: usize) -> Result<PassOutput, PipelineError> {
        if self.workload != Workload::NocVerify {
            let apps = self.jobs.iter().map(|j| j.app.clone()).collect();
            let dir = self.workload.publishes().then(|| self.dir.clone());
            return run_batch(&batch_options(dir, apps, workers)).map(PassOutput::Batch);
        }
        let mut out = Vec::with_capacity(self.jobs.len());
        for job in &self.jobs {
            let store = Some(&self.store);
            let profile = stages::profile(store, true, &job.app)?;
            let plan =
                stages::design_variant(store, true, &profile.spec, &job.cfg, Variant::Hybrid)?;
            let sim = stages::cosim(None, false, &plan)?;
            std::hint::black_box(plan.estimate());
            let luts = plan.resources().total().luts;
            out.push((plan, sim, luts));
        }
        Ok(PassOutput::Noc(out))
    }

    /// The outcome of every job of a pass; see [`Bench::batch_job_outcome`].
    pub fn outcomes(&self, out: &PassOutput, reads: &mut Ledger) -> Vec<Result<Outcome, String>> {
        match out {
            PassOutput::Noc(jobs) => self.noc_outcomes(jobs).into_iter().map(Ok).collect(),
            PassOutput::Batch(batch) => batch
                .apps
                .iter()
                .enumerate()
                .map(|(i, report)| self.batch_job_outcome(i, report, reads))
                .collect(),
        }
    }

    /// The outcome of batch job `i` from its report. Where the pass
    /// published, the hybrid plan and co-simulation are read back from
    /// the store, timed into `reads`. Otherwise nothing was published, and
    /// the report, which carries every lattice point's estimate and the
    /// hybrid's co-simulated cycles, is the job's whole output.
    fn batch_job_outcome(
        &self,
        i: usize,
        report: &hic_pipeline::AppReport,
        reads: &mut Ledger,
    ) -> Result<Outcome, String> {
        if self.workload.publishes() {
            return batch_outcome(&self.store, report, self.keys[i], reads);
        }
        let want = self.expect.get(i).ok_or("more reports than jobs")?;
        Ok(Outcome {
            report: Some(stable_hash_json(report)),
            ..want.clone()
        })
    }

    fn noc_outcomes(&self, jobs: &[(InterconnectPlan, CosimResult, u64)]) -> Vec<Outcome> {
        jobs.iter()
            .map(|(plan, sim, luts)| Outcome::of(&PlanArtifact::from(plan), sim, *luts))
            .collect()
    }

    /// How many of `outcomes` differ from the set-up record.
    pub fn mismatches(&self, outcomes: &[Result<Outcome, String>]) -> usize {
        let mut bad = 0;
        for (i, got) in outcomes.iter().enumerate() {
            match got {
                Ok(o) if self.expect.get(i) == Some(o) => {}
                Ok(o) => {
                    eprintln!(
                        "compile-bench: {}: outcome changed: {o:?}",
                        self.jobs[i].app
                    );
                    bad += 1;
                }
                Err(e) => {
                    eprintln!("compile-bench: {}: {e}", self.jobs[i].app);
                    bad += 1;
                }
            }
        }
        bad + self.expect.len().saturating_sub(outcomes.len())
    }

    /// Replay one pass single-threaded with every layer call timed, then
    /// read back and check its outcomes as [`Bench::outcomes`] does.
    pub fn traced_pass(&self) -> (Ledger, Vec<Result<Outcome, String>>) {
        let mut l = Ledger::default();
        let mut outcomes = Vec::with_capacity(self.jobs.len());
        for (i, job) in self.jobs.iter().enumerate() {
            let outcome = if self.workload == Workload::NocVerify {
                ledger::replay_noc_job(&mut l, &self.store, &job.app, &job.cfg)
                    .map(|(plan, sim, luts)| Outcome::of(&PlanArtifact::from(&plan), &sim, luts))
            } else {
                let store = self.workload.publishes().then_some(&self.store);
                ledger::replay_batch_job(&mut l, store, &job.app)
                    .and_then(|report| self.batch_job_outcome(i, &report, &mut l))
            };
            outcomes.push(outcome);
        }
        (l, outcomes)
    }
}

fn batch_options(dir: Option<PathBuf>, apps: Vec<String>, workers: usize) -> BatchOptions {
    BatchOptions {
        jobs: Some(workers),
        read_cache: false,
        ..BatchOptions::new(apps, dir)
    }
}

/// Store keys of `app`'s hybrid plan and of its co-simulation, derived
/// from the artifacts a batch published.
fn hybrid_keys(store: &ArtifactStore, app: &str) -> Result<(StableHash, StableHash), String> {
    let mut scratch = Ledger::default();
    let key = stages::profile_key(app).map_err(|e| e.to_string())?;
    let profile: ProfileArtifact = ledger::read(&mut scratch, store, key, app)?;
    let design = stages::design_key(
        &profile.spec,
        &DesignConfig::default(),
        DesignKnobs::ALL,
        Variant::Hybrid.name(),
    );
    let plan: PlanArtifact = ledger::read(&mut scratch, store, design, app)?;
    Ok((design, stages::cosim_key(&plan)))
}

fn batch_outcome(
    store: &ArtifactStore,
    report: &hic_pipeline::AppReport,
    (design, cosim): (StableHash, StableHash),
    reads: &mut Ledger,
) -> Result<Outcome, String> {
    let plan: PlanArtifact = ledger::read(reads, store, design, "hybrid plan")?;
    let sim: CosimResult = ledger::read(reads, store, cosim, "hybrid cosim")?;
    let luts = report.dse_points[15].resources.luts;
    let mut outcome = Outcome::of(&plan, &sim, luts);
    outcome.report = Some(stable_hash_json(report));
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_derive_the_generated_sources() {
        assert_eq!(
            Workload::GenLadder.sources(7),
            Workload::GenLadder.sources(7)
        );
        assert_ne!(
            Workload::GenLadder.sources(7),
            Workload::GenLadder.sources(8)
        );
        assert_eq!(
            Workload::PaperCold.sources(7),
            Workload::PaperCold.sources(8)
        );
        let noc = Workload::NocVerify.jobs(3);
        assert_eq!(noc.len(), NOC_SOURCES * FLIT_PAYLOADS.len());
        assert_eq!(noc[2].cfg.flit_payload, 16);
        let ladder = Workload::GenLadder.sources(1);
        assert_eq!(ladder.len(), 32);
        assert!(ladder[0].starts_with("gen:k=8,skew=0,seed="));
        assert!(ladder[31].starts_with("gen:k=12,skew=0,seed="));
        // Every generated source gets its own seed.
        let unique: std::collections::BTreeSet<&String> = ladder.iter().collect();
        assert_eq!(unique.len(), ladder.len());
    }
}
