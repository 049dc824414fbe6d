//! # hic-cli — command-line front end
//!
//! The `hic` binary drives the whole toolflow over application sources:
//! the built-in profiled apps, `gen:` synthetic workloads, `trace:`
//! memory-access traces and `file:` JSON application specs.
//!
//! ```text
//! hic generate --shape chain --kernels 6 --seed 7 > app.json
//! hic design file:app.json                 # synthesize + describe
//! hic design gen:k=8,seed=1 --variant noc-only --json
//! hic estimate jpeg                        # all three variants side by side
//! hic simulate file:app.json --frames 16
//! hic profile jpeg                         # run a real profiled app, emit its spec
//! hic dse jpeg --json                      # the 2^4 knob lattice + Pareto front
//! hic batch canny jpeg klt fluid --json    # parallel multi-app compilation
//! ```
//!
//! The profiled-app commands (`profile`, `report`, `dse`, `batch`) and
//! `design` run through the `hic-store/v1` artifact cache (default root
//! `.hic-cache/`, overridable with `--cache-dir` or `HIC_CACHE_DIR`;
//! `--no-cache` skips reads but still publishes results for later runs).
//!
//! All command logic lives in this library so it is unit-testable; `main`
//! only forwards `std::env::args` and prints.

#![warn(missing_docs)]

pub mod top;

use hic_core::{design, pareto_front, DesignConfig, InterconnectPlan, Variant};
use hic_fabric::synthetic::{generate, Shape, SyntheticSpec};
use hic_fabric::AppSpec;
use hic_pipeline::{stages, ArtifactStore, StoreConfig};
use hic_sim::{simulate, simulate_runs, simulate_software};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::fmt::Write as _;

/// Where (and whether) a command uses the `hic-store/v1` artifact cache.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheOpts {
    /// Store root. `None` disables the store entirely (compute directly,
    /// publish nothing) — used by hermetic tests; the parser always
    /// resolves a directory.
    pub dir: Option<String>,
    /// `false` = `--no-cache`: never read, but still publish results.
    pub read: bool,
}

impl CacheOpts {
    /// No store at all: compute everything directly.
    pub fn disabled() -> CacheOpts {
        CacheOpts {
            dir: None,
            read: true,
        }
    }
}

/// Which subsystems a `hic trace` run records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Everything: batch pipeline plus a direct NoC/bus replay.
    All,
    /// NoC packet flows, bus arbitration, design and co-simulation only.
    Noc,
    /// Batch pipeline jobs only.
    Batch,
}

/// How a `hic heatmap` invocation renders the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeatmapEmit {
    /// ANSI mesh heatmap plus flow summary (the default).
    Ansi,
    /// The full `hic-heatmap/v1` artifact as pretty JSON.
    Json,
    /// Graphviz DOT overlay (neato, pinned mesh positions).
    Dot,
}

/// What a `hic gen` invocation writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenEmit {
    /// One-line workload summary (the default).
    Summary,
    /// The measured `AppSpec` as pretty JSON (feedable back via `file:`).
    Spec,
    /// The function-level communication graph as Graphviz DOT.
    Dot,
    /// The line-delimited memory-access trace (feedable back via
    /// `trace:` — built-in apps round-trip exactly).
    Trace,
}

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Synthesize an interconnect for an app.
    Design {
        /// Any app source.
        app: String,
        /// System variant.
        variant: Variant,
        /// Emit the full plan as JSON instead of the description.
        json: bool,
        /// Artifact cache settings.
        cache: CacheOpts,
    },
    /// Compare all three variants on an app.
    Estimate {
        /// Any app source.
        app: String,
    },
    /// Simulate the hybrid system.
    Simulate {
        /// Any app source.
        app: String,
        /// Number of back-to-back frames.
        frames: u64,
    },
    /// Generate a synthetic app spec to stdout.
    Generate {
        /// Dataflow shape.
        shape: Shape,
        /// Kernel count.
        kernels: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Inspect or materialize a workload from any app source: emit its
    /// measured spec, its communication graph as Graphviz DOT, its
    /// memory-access trace, or a one-line summary.
    Gen {
        /// Any app source (`canny`, `gen:<spec>`, `trace:<path>`,
        /// `file:<path>` — the last has no trace to emit).
        source: String,
        /// What to write.
        emit: GenEmit,
        /// Output path (`-` = stdout).
        out: String,
        /// Artifact cache settings (spec/DOT/summary run the profile
        /// stage; trace emission is direct and uncached).
        cache: CacheOpts,
    },
    /// Run one of the built-in profiled applications and emit its measured
    /// spec as JSON.
    Profile {
        /// One of `canny`, `jpeg`, `klt`, `fluid`.
        app: String,
        /// Artifact cache settings.
        cache: CacheOpts,
    },
    /// Run the whole pipeline (profile → design → co-simulate → bus) on a
    /// built-in app and emit the observability snapshot.
    Report {
        /// One of `canny`, `jpeg`, `klt`, `fluid`.
        app: String,
        /// Emit the `hic-obs/v1` JSON snapshot instead of the table.
        json: bool,
        /// Append a headline-metrics summary (busiest NoC link with
        /// coordinates and port) after the table.
        metrics: bool,
        /// Artifact cache settings.
        cache: CacheOpts,
    },
    /// Co-simulate an app and render its spatial communication heatmap:
    /// per-link utilization, kernel-pair flows, ranked bottlenecks.
    Heatmap {
        /// Any app source (`canny`, `gen:<spec>`, `trace:<path>`,
        /// `file:<path>`).
        app: String,
        /// Spatial accounting window in cycles (`None` = default 1024).
        window: Option<u64>,
        /// Output format.
        emit: HeatmapEmit,
        /// Artifact cache settings.
        cache: CacheOpts,
    },
    /// Explore the 2⁴ mechanism lattice for a built-in app and print the
    /// points plus the Pareto front.
    Dse {
        /// One of `canny`, `jpeg`, `klt`, `fluid`.
        app: String,
        /// Emit JSON instead of the table.
        json: bool,
        /// Artifact cache settings.
        cache: CacheOpts,
    },
    /// Compile several built-in apps in parallel through the artifact
    /// store (profile → 16 designs → co-simulation per app).
    Batch {
        /// Apps to compile, in report order.
        apps: Vec<String>,
        /// Worker threads (`None` = available parallelism).
        jobs: Option<usize>,
        /// Emit the `hic-batch/v1` JSON document instead of the table.
        json: bool,
        /// Serve live Prometheus exposition at `127.0.0.1:<port>/metrics`
        /// while the batch runs (with a background sampler attached).
        serve_metrics: Option<u16>,
        /// Keep serving this long after the batch completes, so scrapers
        /// can catch the final state of a short run.
        linger_ms: u64,
        /// Artifact cache settings.
        cache: CacheOpts,
    },
    /// Run a batch with a live terminal dashboard (sparklines of queue
    /// depth, busy lanes, cache hit-rate, NoC flit rate) on stderr.
    Top {
        /// Apps to compile, in report order.
        apps: Vec<String>,
        /// Worker threads (`None` = available parallelism).
        jobs: Option<usize>,
        /// Sampler/redraw interval in milliseconds.
        interval_ms: u64,
        /// Artifact cache settings.
        cache: CacheOpts,
    },
    /// Run the long-running compilation daemon: accept jobs from many
    /// clients over the `hic-serve/v1` line-delimited-JSON TCP protocol,
    /// execute them on a worker pool against the shared artifact store,
    /// and drain gracefully on SIGTERM/SIGINT.
    Serve {
        /// Port to bind on 127.0.0.1.
        port: u16,
        /// Worker threads (`None` = available parallelism).
        jobs: Option<usize>,
        /// Admission-queue capacity across all clients.
        queue_cap: usize,
        /// Also serve Prometheus exposition (with a sampler attached) at
        /// `127.0.0.1:<port>/metrics` while the daemon runs.
        metrics_port: Option<u16>,
        /// Stop (drain, then exit) after this many milliseconds
        /// (`None` = until signalled) — for scripts and smoke tests.
        for_ms: Option<u64>,
        /// Minimum level for the structured `hic-log/v1` layer
        /// (`None` = logging off; costs one atomic load per site).
        log_level: Option<hic_obs::log::Level>,
        /// Append structured log records to this file.
        log_file: Option<String>,
        /// Artifact cache settings.
        cache: CacheOpts,
    },
    /// List recent finished jobs on a running daemon (`jobs` verb).
    Jobs {
        /// Daemon port on 127.0.0.1.
        port: u16,
        /// Only failed jobs.
        failed_only: bool,
        /// Sort by end-to-end latency (descending) and keep this many.
        slowest: Option<usize>,
        /// Emit the raw response JSON instead of the table.
        json: bool,
    },
    /// Show the full stage timeline of a finished job on a running
    /// daemon (`inspect` verb).
    Inspect {
        /// Job id from `submit` / `hic jobs`.
        job: u64,
        /// Daemon port on 127.0.0.1.
        port: u16,
        /// Emit the raw timeline JSON instead of the rendering.
        json: bool,
    },
    /// Record a causal event trace of the pipeline on a built-in app and
    /// export it as Chrome trace-event JSON (`hic-trace/v1`).
    Trace {
        /// One of `canny`, `jpeg`, `klt`, `fluid`.
        app: String,
        /// Which subsystems to record.
        mode: TraceMode,
        /// Keep 1 in N NoC packet flows (default 1 = every packet).
        sample: u32,
        /// Output path for the JSON trace (`-` = stdout).
        out: String,
        /// Artifact cache settings (reads are always skipped so every
        /// stage actually runs and emits events; results still publish).
        cache: CacheOpts,
    },
    /// Print usage.
    Help,
}

/// Errors from parsing or running a command.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Usage(String),
    /// I/O problem.
    Io(std::io::Error),
    /// Malformed app spec.
    Json(serde_json::Error),
    /// The design stage failed.
    Design(hic_core::DesignError),
    /// The artifact store or batch service failed.
    Pipeline(hic_pipeline::PipelineError),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Json(e) => write!(f, "json error: {e}"),
            CliError::Design(e) => write!(f, "design error: {e}"),
            CliError::Pipeline(e) => write!(f, "pipeline error: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}
impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError::Json(e)
    }
}
impl From<hic_core::DesignError> for CliError {
    fn from(e: hic_core::DesignError) -> Self {
        CliError::Design(e)
    }
}
impl From<hic_pipeline::PipelineError> for CliError {
    fn from(e: hic_pipeline::PipelineError) -> Self {
        // An unknown app name or a malformed app source (bad `gen:`
        // grammar, invalid spec file) is an argument mistake, not a
        // runtime failure — route it to the usage/exit-2 path. A file
        // that cannot be read (a missing `file:` spec) is an I/O failure.
        match e {
            hic_pipeline::PipelineError::UnknownApp(_)
            | hic_pipeline::PipelineError::BadSource(_) => CliError::Usage(e.to_string()),
            hic_pipeline::PipelineError::Io(m) => CliError::Io(std::io::Error::other(m)),
            other => CliError::Pipeline(other),
        }
    }
}

/// Parse-time validation of an app-source argument: any scheme the
/// pipeline resolves (built-in name, `gen:`, `trace:`, `file:`). Syntax
/// mistakes are command-line errors (exit 2); no I/O happens here.
fn check_app_source(app: &str) -> Result<(), CliError> {
    hic_pipeline::AppSource::parse(app)
        .map(|_| ())
        .map_err(CliError::from)
}

/// The app-source argument of `design`, `estimate` or `simulate`,
/// checked like every other command's.
fn app_arg(args: &[String], cmd: &str) -> Result<String, CliError> {
    let app = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| CliError::Usage(format!("{cmd} needs an app")))?;
    check_app_source(app)?;
    Ok(app.clone())
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parse `flag`'s value as a positive integer (≥ 1), keeping the exit-2
/// usage convention: absent → `Ok(None)`, unparsable or zero → a
/// [`CliError::Usage`] naming the flag and the offending value.
fn positive_flag<T>(args: &[String], flag: &str) -> Result<Option<T>, CliError>
where
    T: std::str::FromStr + PartialOrd + From<u8>,
{
    flag_value(args, flag)
        .map(|v| {
            v.parse::<T>()
                .ok()
                .filter(|n| *n >= T::from(1u8))
                .ok_or_else(|| {
                    CliError::Usage(format!("bad {flag} '{v}' (need a positive integer)"))
                })
        })
        .transpose()
}

/// Resolve cache settings from flags and environment: `--cache-dir`
/// beats `HIC_CACHE_DIR` beats the `.hic-cache` default; `--no-cache`
/// disables reads (results are still published).
fn cache_opts(args: &[String]) -> CacheOpts {
    let dir = flag_value(args, "--cache-dir")
        .map(String::from)
        .or_else(|| std::env::var("HIC_CACHE_DIR").ok())
        .unwrap_or_else(|| ".hic-cache".to_string());
    CacheOpts {
        dir: Some(dir),
        read: !args.iter().any(|a| a == "--no-cache"),
    }
}

/// Parse a command line (without the program name).
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "design" => {
            let app = app_arg(args, "design")?;
            let variant = match flag_value(args, "--variant").unwrap_or("hybrid") {
                "hybrid" => Variant::Hybrid,
                "baseline" => Variant::Baseline,
                "noc-only" => Variant::NocOnly,
                other => {
                    return Err(CliError::Usage(format!(
                        "unknown variant '{other}' (hybrid|baseline|noc-only)"
                    )))
                }
            };
            Ok(Command::Design {
                app,
                variant,
                json: args.iter().any(|a| a == "--json"),
                cache: cache_opts(args),
            })
        }
        "estimate" => Ok(Command::Estimate {
            app: app_arg(args, "estimate")?,
        }),
        "simulate" => Ok(Command::Simulate {
            app: app_arg(args, "simulate")?,
            frames: flag_value(args, "--frames")
                .map(|v| {
                    v.parse::<u64>()
                        .map_err(|_| CliError::Usage(format!("bad --frames '{v}'")))
                })
                .transpose()?
                .unwrap_or(1)
                .max(1),
        }),
        "generate" => {
            let shape = match flag_value(args, "--shape").unwrap_or("chain") {
                "chain" => Shape::Chain,
                "fanout" => Shape::FanOut,
                "diamond" => Shape::Diamond,
                "random" => Shape::Random { density_pct: 35 },
                other => {
                    return Err(CliError::Usage(format!(
                        "unknown shape '{other}' (chain|fanout|diamond|random)"
                    )))
                }
            };
            let kernels = flag_value(args, "--kernels")
                .map(|v| {
                    v.parse::<usize>()
                        .map_err(|_| CliError::Usage(format!("bad --kernels '{v}'")))
                })
                .transpose()?
                .unwrap_or(4);
            if kernels < 2 {
                return Err(CliError::Usage("--kernels must be ≥ 2".into()));
            }
            let seed = flag_value(args, "--seed")
                .map(|v| {
                    v.parse::<u64>()
                        .map_err(|_| CliError::Usage(format!("bad --seed '{v}'")))
                })
                .transpose()?
                .unwrap_or(42);
            Ok(Command::Generate {
                shape,
                kernels,
                seed,
            })
        }
        "gen" => {
            let source = args
                .get(1)
                .filter(|a| !a.starts_with('-'))
                .ok_or_else(|| CliError::Usage("gen needs an app source".into()))?
                .clone();
            check_app_source(&source)?;
            let picks: Vec<GenEmit> = [
                ("--emit-spec", GenEmit::Spec),
                ("--emit-dot", GenEmit::Dot),
                ("--emit-trace", GenEmit::Trace),
                ("--summary", GenEmit::Summary),
            ]
            .iter()
            .filter(|(flag, _)| args.iter().any(|a| a == flag))
            .map(|&(_, emit)| emit)
            .collect();
            if picks.len() > 1 {
                return Err(CliError::Usage(
                    "pick one of --emit-spec|--emit-dot|--emit-trace|--summary".into(),
                ));
            }
            Ok(Command::Gen {
                source,
                emit: picks.first().copied().unwrap_or(GenEmit::Summary),
                out: flag_value(args, "-o").unwrap_or("-").to_string(),
                cache: cache_opts(args),
            })
        }
        "profile" => Ok(Command::Profile {
            app: args
                .get(1)
                .ok_or_else(|| CliError::Usage("profile needs an app name".into()))?
                .clone(),
            cache: cache_opts(args),
        }),
        "report" => Ok(Command::Report {
            app: args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or_else(|| CliError::Usage("report needs an app name".into()))?
                .clone(),
            json: args.iter().any(|a| a == "--json"),
            metrics: args.iter().any(|a| a == "--metrics"),
            cache: cache_opts(args),
        }),
        "heatmap" => {
            let app = args
                .get(1)
                .filter(|a| !a.starts_with('-'))
                .ok_or_else(|| CliError::Usage("heatmap needs an app source".into()))?
                .clone();
            check_app_source(&app)?;
            let picks: Vec<HeatmapEmit> = [
                ("--json", HeatmapEmit::Json),
                ("--dot", HeatmapEmit::Dot),
                ("--ansi", HeatmapEmit::Ansi),
            ]
            .iter()
            .filter(|(flag, _)| args.iter().any(|a| a == flag))
            .map(|&(_, emit)| emit)
            .collect();
            if picks.len() > 1 {
                return Err(CliError::Usage("pick one of --json|--dot|--ansi".into()));
            }
            Ok(Command::Heatmap {
                app,
                window: positive_flag::<u64>(args, "--window")?,
                emit: picks.first().copied().unwrap_or(HeatmapEmit::Ansi),
                cache: cache_opts(args),
            })
        }
        "dse" => {
            let app = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or_else(|| CliError::Usage("dse needs an app name".into()))?
                .clone();
            check_app_source(&app)?;
            Ok(Command::Dse {
                app,
                json: args.iter().any(|a| a == "--json"),
                cache: cache_opts(args),
            })
        }
        "batch" => {
            // Positional args up to the first flag are app names; flags
            // take over from there so `batch jpeg --jobs 4 canny` reads as
            // a mistake rather than silently compiling canny.
            let apps: Vec<String> = args[1..]
                .iter()
                .take_while(|a| !a.starts_with("--"))
                .cloned()
                .collect();
            if apps.is_empty() {
                return Err(CliError::Usage("batch needs at least one app name".into()));
            }
            for app in &apps {
                check_app_source(app)?;
            }
            let jobs = flag_value(args, "--jobs")
                .map(|v| {
                    v.parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| CliError::Usage(format!("bad --jobs '{v}'")))
                })
                .transpose()?;
            Ok(Command::Batch {
                apps,
                jobs,
                json: args.iter().any(|a| a == "--json"),
                serve_metrics: positive_flag::<u16>(args, "--serve-metrics")?,
                linger_ms: positive_flag::<u64>(args, "--linger-ms")?.unwrap_or(0),
                cache: cache_opts(args),
            })
        }
        "top" => {
            let apps: Vec<String> = args[1..]
                .iter()
                .take_while(|a| !a.starts_with("--"))
                .cloned()
                .collect();
            if apps.is_empty() {
                return Err(CliError::Usage("top needs at least one app name".into()));
            }
            for app in &apps {
                check_app_source(app)?;
            }
            let jobs = flag_value(args, "--jobs")
                .map(|v| {
                    v.parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| CliError::Usage(format!("bad --jobs '{v}'")))
                })
                .transpose()?;
            Ok(Command::Top {
                apps,
                jobs,
                interval_ms: positive_flag::<u64>(args, "--interval-ms")?.unwrap_or(100),
                cache: cache_opts(args),
            })
        }
        "serve" => Ok(Command::Serve {
            port: positive_flag::<u16>(args, "--port")?.unwrap_or(9191),
            jobs: positive_flag::<usize>(args, "--jobs")?,
            queue_cap: positive_flag::<usize>(args, "--queue-cap")?.unwrap_or(256),
            metrics_port: positive_flag::<u16>(args, "--metrics-port")?,
            for_ms: positive_flag::<u64>(args, "--for-ms")?,
            log_level: flag_value(args, "--log-level")
                .map(|v| {
                    hic_obs::log::Level::parse(v).ok_or_else(|| {
                        CliError::Usage(format!("bad --log-level '{v}' (debug|info|warn|error)"))
                    })
                })
                .transpose()?,
            log_file: flag_value(args, "--log-file").map(String::from),
            cache: cache_opts(args),
        }),
        "jobs" => Ok(Command::Jobs {
            port: positive_flag::<u16>(args, "--port")?.unwrap_or(9191),
            failed_only: args.iter().any(|a| a == "--failed"),
            slowest: positive_flag::<usize>(args, "--slowest")?,
            json: args.iter().any(|a| a == "--json"),
        }),
        "inspect" => {
            let job = args
                .get(1)
                .filter(|a| !a.starts_with('-'))
                .ok_or_else(|| CliError::Usage("inspect needs a job id".into()))?;
            let job = job
                .parse::<u64>()
                .map_err(|_| CliError::Usage(format!("bad job id '{job}'")))?;
            Ok(Command::Inspect {
                job,
                port: positive_flag::<u16>(args, "--port")?.unwrap_or(9191),
                json: args.iter().any(|a| a == "--json"),
            })
        }
        "trace" => {
            let app = args
                .get(1)
                .filter(|a| !a.starts_with('-'))
                .ok_or_else(|| CliError::Usage("trace needs an app name".into()))?
                .clone();
            check_app_source(&app)?;
            let noc = args.iter().any(|a| a == "--noc");
            let batch = args.iter().any(|a| a == "--batch");
            if noc && batch {
                return Err(CliError::Usage(
                    "--noc and --batch are mutually exclusive".into(),
                ));
            }
            let mode = match (noc, batch) {
                (true, _) => TraceMode::Noc,
                (_, true) => TraceMode::Batch,
                _ => TraceMode::All,
            };
            let sample = flag_value(args, "--sample")
                .map(|v| {
                    v.parse::<u32>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| CliError::Usage(format!("bad --sample '{v}'")))
                })
                .transpose()?
                .unwrap_or(1);
            Ok(Command::Trace {
                app,
                mode,
                sample,
                out: flag_value(args, "-o").unwrap_or("trace.json").to_string(),
                cache: cache_opts(args),
            })
        }
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(CliError::Usage(format!("unknown command '{other}'"))),
    }
}

/// Usage text.
pub fn usage() -> &'static str {
    "hic — Hybrid Interconnect Compiler

USAGE:
  hic design   <app> [--variant hybrid|baseline|noc-only] [--json]
  hic estimate <app>
  hic simulate <app> [--frames N]
  hic generate [--shape chain|fanout|diamond|random] [--kernels N] [--seed S]
  hic gen      <app> [--emit-spec|--emit-dot|--emit-trace|--summary] [-o FILE]
  hic profile  <app>
  hic report   <app> [--metrics] [--json]
  hic heatmap  <app> [--window N] [--json|--dot|--ansi]
  hic dse      <app> [--json]
  hic batch    <app>... [--jobs N] [--json] [--serve-metrics PORT] [--linger-ms MS]
  hic top      <app>... [--jobs N] [--interval-ms MS]
  hic serve    [--port PORT] [--jobs N] [--queue-cap N] [--metrics-port PORT]
               [--for-ms MS] [--log-level debug|info|warn|error] [--log-file F]
  hic jobs     [--port PORT] [--failed] [--slowest N] [--json]
  hic inspect  <job-id> [--port PORT] [--json]
  hic trace    <app> [--noc|--batch] [--sample N] [-o FILE]
  hic help

APP SOURCES (every command that takes <app>, and serve jobs):
  canny|jpeg|klt|fluid      built-in profiled paper applications
  gen:<spec>                seeded synthetic workload, e.g. gen:k=8,seed=7
                            (keys: k fanout skew comm hostio bytes uma seed)
  trace:<path>              replay a line-delimited memory-access trace
                            (func/enter/exit/write/read; see DESIGN.md §15)
  file:<path>               load an AppSpec JSON verbatim (no profiling)
  Identical generated specs and identical trace contents share artifact-
  cache entries regardless of spelling or file name.

GEN:
  inspects any app source: --summary (default) one-line overview,
  --emit-spec the measured AppSpec JSON (feed back via file:),
  --emit-dot the function-level communication graph as Graphviz DOT,
  --emit-trace the memory-access trace (feed back via trace:; built-in
  apps round-trip to a byte-identical communication graph).

HEATMAP:
  co-simulates the app's hybrid plan (noc-only when the hybrid is
  SM-only) and renders the hic-heatmap/v1 spatial report: per-link peak
  utilization over --window N cycle windows (default 1024), kernel-pair
  flow attribution, and a ranked bottleneck report with a plain-language
  verdict. --ansi (default) draws the mesh in the terminal, --dot emits
  a Graphviz overlay, --json the full artifact. `hic report --metrics`
  appends the busiest-link headline to the metric table.

CACHE (design, profile, report, heatmap, dse, batch, serve):
  --cache-dir <dir>   artifact store root (default .hic-cache, or HIC_CACHE_DIR)
  --no-cache          skip cache reads; results are still published

TRACE:
  records a flight-recorder event trace (hic-trace/v1) and writes Chrome
  trace-event JSON loadable in Perfetto / chrome://tracing ('-o -' =
  stdout). --noc limits recording to NoC/bus/design/sim, --batch to the
  batch pipeline; --sample N keeps 1 in N NoC packet flows. Cache reads
  are skipped so every stage runs and emits events.

SERVE:
  a long-running daemon on 127.0.0.1 (default port 9191) speaking the
  hic-serve/v1 line-delimited-JSON protocol: submit profile/design/
  cosim/batch jobs, poll status, fetch results. Jobs run on a worker
  pool against the shared artifact cache; admission is bounded
  (--queue-cap) with per-client round-robin fairness. SIGTERM/SIGINT
  drain gracefully: queued work finishes, new submits are refused.
  --metrics-port serves Prometheus exposition alongside (serve.* gauges),
  plus /healthz (503 `draining` once drain begins) and /statusz (build
  info, uptime, queue/worker snapshot, recent jobs as hic-statusz/v1).
  --log-level turns on the structured hic-log/v1 layer (one JSON record
  per line, tagged with the job id); --log-file appends records to a
  file instead of stderr.

JOBS / INSPECT (against a running daemon):
  every finished job leaves a timeline: queue wait, per-stage spans with
  cache hit/miss and lease waits, outcome and error code. `hic jobs`
  lists recent ones (--failed filters, --slowest N sorts by latency);
  `hic inspect <job-id>` renders one job's full timeline. Job ids come
  from submit responses or the jobs listing.

TELEMETRY:
  batch --serve-metrics PORT serves Prometheus text exposition at
  http://127.0.0.1:PORT/metrics while the batch runs (--linger-ms keeps
  it up after completion so scrapers catch short runs). top renders a
  live sparkline dashboard on stderr while the batch executes.
"
}

/// JSON-friendly plan summary (the raw [`InterconnectPlan`] uses typed map
/// keys that JSON cannot express).
#[derive(Debug, Serialize)]
pub struct PlanSummary {
    /// Variant name.
    pub variant: &'static str,
    /// Table IV-style solution label.
    pub solution: String,
    /// Names of duplicated kernels.
    pub duplicated: Vec<String>,
    /// Shared pairs as (producer, consumer, bytes, mode).
    pub sm_pairs: Vec<(String, String, u64, String)>,
    /// Per-kernel class/attachment/mux count, keyed by kernel name.
    pub kernels: std::collections::BTreeMap<String, (String, String, u32)>,
    /// Router count if a NoC exists.
    pub noc_routers: Option<usize>,
    /// Whole-system LUTs/registers.
    pub resources: (u64, u64),
    /// Estimated speed-ups (vs software, vs baseline) for the application.
    pub app_speedups: (f64, f64),
}

impl PlanSummary {
    /// Summarize a plan.
    pub fn of(plan: &InterconnectPlan) -> PlanSummary {
        let est = plan.estimate();
        let r = plan.resources().total();
        PlanSummary {
            variant: plan.variant.name(),
            solution: plan.solution_label(),
            duplicated: plan
                .duplicated
                .iter()
                .map(|&(o, _)| plan.app.kernel(o).name.clone())
                .collect(),
            sm_pairs: plan
                .sm_pairs
                .iter()
                .map(|p| {
                    (
                        plan.app.kernel(p.producer).name.clone(),
                        plan.app.kernel(p.consumer).name.clone(),
                        p.bytes,
                        format!("{:?}", p.mode),
                    )
                })
                .collect(),
            kernels: plan
                .kernels
                .iter()
                .map(|(k, e)| {
                    (
                        plan.app.kernel(*k).name.clone(),
                        (e.class.to_string(), e.attach.to_string(), e.port_plan.muxes),
                    )
                })
                .collect(),
            noc_routers: plan.noc.as_ref().map(|n| n.routers()),
            resources: (r.luts, r.regs),
            app_speedups: (est.app_speedup_vs_sw(), est.app_speedup_vs_baseline()),
        }
    }
}

/// Open the artifact store a command asked for (`None` when the cache is
/// disabled). Store trouble at open time (unwritable directory, …) is a
/// runtime failure, not a usage mistake.
fn open_store(cache: &CacheOpts) -> Result<Option<ArtifactStore>, CliError> {
    match &cache.dir {
        None => Ok(None),
        Some(dir) => Ok(Some(ArtifactStore::open(StoreConfig::at(dir))?)),
    }
}

/// Run a built-in profiled application through the store, returning its
/// measured spec and communication graph. On a cache miss, profiling
/// publishes `profile.*` metrics to the global registry as a side effect.
fn run_profiled(
    store: Option<&ArtifactStore>,
    read: bool,
    app: &str,
) -> Result<(AppSpec, hic_profiling::CommGraph), CliError> {
    let p = stages::profile(store, read, app)?;
    Ok((p.spec, p.graph))
}

/// Materialize the memory-access trace of an app source: built-in apps
/// re-run with the profiler's recording seam armed (so the emitted
/// trace replays to the exact profiled graph), `gen:` specs synthesize
/// their trace directly, `trace:` files re-render canonically. `file:`
/// specs arrive as finished `AppSpec`s — there are no memory accesses
/// to trace.
fn emit_trace(source: &str) -> Result<String, CliError> {
    use hic_pipeline::AppSource;
    match AppSource::parse(source)? {
        AppSource::Builtin(name) => {
            hic_profiling::record::arm();
            let ran = stages::run_profiled_builtin(&name);
            // Take unconditionally: the armed flag must not leak into a
            // later Profiler on this thread if the run failed.
            let rec = hic_profiling::record::take();
            ran?;
            let rec = rec.expect("an armed profiled run deposits a recording");
            Ok(hic_workload::Trace::from_recording(&rec).render())
        }
        AppSource::Gen(spec) => Ok(hic_workload::synthesize_trace(&spec).render()),
        AppSource::Trace(path) => {
            let text = std::fs::read_to_string(&path)?;
            let trace =
                hic_workload::Trace::parse(&text).map_err(|e| CliError::Usage(e.to_string()))?;
            Ok(trace.render())
        }
        AppSource::File(_) => Err(CliError::Usage(
            "--emit-trace needs a built-in, gen:, or trace: source \
             (file: specs carry no memory trace)"
                .into(),
        )),
    }
}

/// Run the workload a `hic trace` invocation records: a direct profile →
/// design → co-simulate → bus replay (unless `--batch`), then the batch
/// pipeline (unless `--noc`). The direct run's stages also write `batch`
/// slices; running it first keeps the batch pool's slices the last to
/// finish, which is what the summary's critical path reads. Cache reads
/// are always skipped so every stage computes and emits events; results
/// are still published.
fn run_trace_workload(
    app: &str,
    mode: TraceMode,
    cache: &CacheOpts,
    cfg: &DesignConfig,
) -> Result<(), CliError> {
    if mode != TraceMode::Batch {
        // Storeless direct run: the NoC packet flows come from the flit
        // co-simulation, which needs a plan with a mesh — fall back to
        // the noc-only variant when the hybrid is SM-only.
        let p = stages::profile(None, false, app)?;
        let plan = stages::design_variant(None, false, &p.spec, cfg, Variant::Hybrid)?;
        let plan = if plan.noc.is_some() {
            plan
        } else {
            stages::design_variant(None, false, &p.spec, cfg, Variant::NocOnly)?
        };
        let _ = stages::cosim(None, false, &plan)?;
        // Bus contention replay, as in `hic report`: every kernel's host
        // transfers through the cycle-level arbiter, all ready at zero.
        let mut bus = hic_bus::CycleBus::new(cfg.bus);
        let mut requests = Vec::new();
        for k in p.spec.kernel_ids() {
            let v = p.spec.volumes(k);
            if v.host_in > 0 {
                requests.push(hic_bus::Request::at_start(k.index(), v.host_in));
            }
            if v.host_out > 0 {
                requests.push(hic_bus::Request::at_start(k.index(), v.host_out));
            }
        }
        bus.run(&requests);
        // Packet ids restart at 0 in every network, so a second
        // co-simulation's flows would reuse the causal ids above. The
        // batch's cosim re-runs the same plan: keep one copy.
        hic_obs::trace::global().set_enabled(hic_obs::trace::Category::Noc, false);
    }
    if mode != TraceMode::Noc {
        let mut opts = hic_pipeline::BatchOptions::new(
            vec![app.to_string()],
            cache.dir.as_ref().map(std::path::PathBuf::from),
        );
        opts.read_cache = false;
        hic_pipeline::run_batch(&opts)?;
    }
    Ok(())
}

/// The text summary a `hic trace` run prints: the generic flow/slice
/// ranking plus the batch critical path and the worst bus stalls.
fn trace_summary(trace: &hic_obs::trace::Trace) -> String {
    use hic_obs::trace::{self as tr, Category};
    let mut out = tr::summarize(trace);
    let spans = tr::spans(&trace.events);
    // Critical-path job chain: per pipeline stage, the span that finished
    // last — the one every dependent job had to wait for.
    let chain: Vec<_> = ["profile", "design", "cosim"]
        .iter()
        .filter_map(|stage| {
            spans
                .iter()
                .filter(|s| s.cat == Category::Batch && s.name == *stage)
                .max_by_key(|s| s.ts + s.dur)
        })
        .collect();
    if !chain.is_empty() {
        writeln!(out, "critical path (batch):").unwrap();
        for s in &chain {
            writeln!(
                out,
                "  {} {}: {} us (t={}..{}, lane {})",
                s.name,
                s.detail.as_str(),
                s.dur,
                s.ts,
                s.ts + s.dur,
                s.tid
            )
            .unwrap();
        }
    }
    let mut stalls: Vec<_> = spans
        .iter()
        .filter(|s| s.cat == Category::Bus && s.name == "stall")
        .collect();
    stalls.sort_by_key(|s| std::cmp::Reverse(s.dur));
    if !stalls.is_empty() {
        writeln!(out, "longest bus stalls:").unwrap();
        for s in stalls.iter().take(5) {
            writeln!(out, "  master {}: {} ns at t={}", s.tid, s.dur, s.ts).unwrap();
        }
    }
    out
}

/// The human-readable `hic batch` / `hic top` result table.
fn batch_table(out: &hic_pipeline::BatchOutcome) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "batch: {} apps, {} jobs on {} workers ({} hits / {} misses)",
        out.apps.len(),
        out.jobs_run,
        out.workers,
        out.stats.hits,
        out.stats.misses
    )
    .unwrap();
    writeln!(
        s,
        "{:<8} {:>8} {:>16} {:>16} {:>10} {:>10}  solution",
        "app", "kernels", "cosim kernels", "cosim app", "vs sw", "vs base"
    )
    .unwrap();
    for a in &out.apps {
        writeln!(
            s,
            "{:<8} {:>8} {:>16} {:>16} {:>9.2}x {:>9.2}x  {}",
            a.app,
            a.kernels,
            a.cosim_kernel_cycles,
            a.cosim_app_cycles,
            a.speedup_vs_sw,
            a.speedup_vs_baseline,
            a.solution
        )
        .unwrap();
    }
    s
}

/// Connect to a running daemon, turning connection refusal into a
/// message that names the port (the usual mistake is no daemon there).
fn connect_daemon(port: u16) -> Result<hic_serve::Client, CliError> {
    hic_serve::Client::connect(port).map_err(|e| {
        CliError::Io(std::io::Error::other(format!(
            "cannot reach a daemon on 127.0.0.1:{port} ({e}) — is `hic serve` running?"
        )))
    })
}

/// Parse a daemon response line and require `"ok":true`; an `ok:false`
/// answer becomes a runtime error carrying the daemon's message.
fn daemon_ok(resp: &str) -> Result<serde_json::Value, CliError> {
    let v = serde_json::parse(resp)?;
    if v.get("ok").and_then(|o| o.as_bool()) == Some(true) {
        return Ok(v);
    }
    let msg = v
        .get("error")
        .and_then(|e| e.as_str())
        .unwrap_or("daemon answered an error")
        .to_string();
    Err(CliError::Io(std::io::Error::other(msg)))
}

/// The human-readable `hic jobs` table.
fn jobs_table(v: &serde_json::Value) -> String {
    let Some(jobs) = v.get("jobs").and_then(|j| j.as_array()) else {
        return "no job listing in response\n".to_string();
    };
    if jobs.is_empty() {
        return "no finished jobs retained\n".to_string();
    }
    let mut s = String::new();
    writeln!(
        s,
        "{:>5} {:<10} {:<8} {:<16} {:<8} {:>9} {:>9} {:>9}  error",
        "job", "client", "kind", "app", "outcome", "queue ms", "exec ms", "total ms"
    )
    .unwrap();
    for j in jobs {
        let gs = |k: &str| j.get(k).and_then(|x| x.as_str()).unwrap_or("");
        let gf = |k: &str| j.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0);
        let code = gs("error_code");
        let stage = gs("failing_stage");
        let err = match (code.is_empty(), stage.is_empty()) {
            (true, _) => String::new(),
            (false, true) => code.to_string(),
            (false, false) => format!("{code} @ {stage}"),
        };
        writeln!(
            s,
            "{:>5} {:<10} {:<8} {:<16} {:<8} {:>9.1} {:>9.1} {:>9.1}  {}",
            j.get("job").and_then(|x| x.as_u64()).unwrap_or(0),
            gs("client"),
            gs("kind"),
            gs("app"),
            gs("outcome"),
            gf("queue_wait_ms"),
            gf("exec_ms"),
            gf("total_ms"),
            err
        )
        .unwrap();
    }
    if let Some(evicted) = v.get("evicted").and_then(|x| x.as_u64()) {
        if evicted > 0 {
            writeln!(s, "({evicted} older timelines evicted from the ring)").unwrap();
        }
    }
    s
}

/// The human-readable `hic inspect` rendering of one job timeline.
fn timeline_render(t: &serde_json::Value) -> String {
    let gs = |k: &str| t.get(k).and_then(|x| x.as_str()).unwrap_or("");
    let gu = |k: &str| t.get(k).and_then(|x| x.as_u64()).unwrap_or(0);
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut s = String::new();
    let code = gs("error_code");
    writeln!(
        s,
        "job {}: {} {} ({}) — {}{} on worker {}, client {}",
        gu("job"),
        gs("kind"),
        gs("app"),
        gs("source"),
        gs("outcome"),
        if code.is_empty() {
            String::new()
        } else {
            format!(" [{code}]")
        },
        gu("worker"),
        gs("client"),
    )
    .unwrap();
    if !gs("error").is_empty() {
        writeln!(
            s,
            "error: {} (failing stage: {})",
            gs("error"),
            gs("failing_stage")
        )
        .unwrap();
    }
    let exec = gu("exec_ns");
    let sum = gu("stage_sum_ns");
    let coverage = if exec == 0 {
        0.0
    } else {
        sum as f64 / exec as f64 * 100.0
    };
    writeln!(
        s,
        "queue wait {:.2} ms, exec {:.2} ms, total {:.2} ms (stages cover {coverage:.1}% of exec)",
        ms(gu("queue_wait_ns")),
        ms(exec),
        ms(gu("total_ns")),
    )
    .unwrap();
    if !gs("heatmap").is_empty() {
        writeln!(s, "heatmap: {}", gs("heatmap")).unwrap();
    }
    let Some(stages) = t.get("stages").and_then(|x| x.as_array()) else {
        return s;
    };
    if stages.is_empty() {
        writeln!(s, "(no stage spans recorded)").unwrap();
        return s;
    }
    writeln!(
        s,
        "{:<12} {:<22} {:<6} {:>10} {:>10} {:>10}",
        "stage", "detail", "cache", "start ms", "dur ms", "lease ms"
    )
    .unwrap();
    for st in stages {
        let depth = st.get("depth").and_then(|x| x.as_u64()).unwrap_or(0) as usize;
        let name = format!(
            "{}{}",
            "  ".repeat(depth),
            st.get("name").and_then(|x| x.as_str()).unwrap_or("?")
        );
        let nsf = |k: &str| st.get(k).and_then(|x| x.as_u64()).unwrap_or(0);
        writeln!(
            s,
            "{:<12} {:<22} {:<6} {:>10.2} {:>10.2} {:>10.2}",
            name,
            st.get("detail").and_then(|x| x.as_str()).unwrap_or(""),
            st.get("cache").and_then(|x| x.as_str()).unwrap_or(""),
            ms(nsf("start_ns")),
            ms(nsf("dur_ns")),
            ms(nsf("lease_wait_ns")),
        )
        .unwrap();
    }
    s
}

/// The `hic report --metrics` headline: which inter-router link was
/// busiest in the co-simulated mesh, by coordinates and exit port (from
/// the `noc.link.busiest_*` gauges the network publishes).
fn busiest_link_line(snap: &hic_obs::Snapshot) -> String {
    let g = |name: &str| snap.gauges.get(name).map(|v| v.last);
    let (Some(x), Some(y), Some(port), Some(flits)) = (
        g("noc.link.busiest_x"),
        g("noc.link.busiest_y"),
        g("noc.link.busiest_port"),
        g("noc.link.busiest_flits"),
    ) else {
        return "busiest link: none (no NoC traffic observed)\n".to_string();
    };
    const PORTS: [&str; 5] = ["north", "east", "south", "west", "local"];
    let port = PORTS.get(port as usize).copied().unwrap_or("?");
    format!("busiest link: ({x},{y}) {port} — {flits} flits\n")
}

/// Execute a command, returning the text to print.
pub fn run(cmd: Command) -> Result<String, CliError> {
    let cfg = DesignConfig::default();
    match cmd {
        Command::Help => Ok(usage().to_string()),
        Command::Design {
            app,
            variant,
            json,
            cache,
        } => {
            let store = open_store(&cache)?;
            let (app, _graph) = run_profiled(store.as_ref(), cache.read, &app)?;
            let plan = stages::design_variant(store.as_ref(), cache.read, &app, &cfg, variant)?;
            if json {
                Ok(serde_json::to_string_pretty(&PlanSummary::of(&plan))?)
            } else {
                Ok(plan.describe())
            }
        }
        Command::Estimate { app } => {
            let (app, _graph) = run_profiled(None, false, &app)?;
            let mut out = String::new();
            let sw = simulate_software(&app);
            writeln!(
                out,
                "application: {} ({} kernels)",
                app.name,
                app.n_kernels()
            )
            .unwrap();
            writeln!(out, "software: {}", sw.app_time).unwrap();
            writeln!(
                out,
                "{:<10} {:>14} {:>10} {:>12} {:>14}",
                "variant", "app time", "vs sw", "vs baseline", "LUTs/regs"
            )
            .unwrap();
            for variant in [Variant::Baseline, Variant::Hybrid, Variant::NocOnly] {
                let plan = design(&app, &cfg, variant)?;
                let est = plan.estimate();
                let r = plan.resources().total();
                writeln!(
                    out,
                    "{:<10} {:>14} {:>9.2}x {:>11.2}x {:>14}",
                    variant.name(),
                    est.app.to_string(),
                    est.app_speedup_vs_sw(),
                    est.app_speedup_vs_baseline(),
                    r.to_string()
                )
                .unwrap();
            }
            Ok(out)
        }
        Command::Simulate { app, frames } => {
            let (app, _graph) = run_profiled(None, false, &app)?;
            let plan = design(&app, &cfg, Variant::Hybrid)?;
            let mut out = String::new();
            if frames == 1 {
                let r = simulate(&plan);
                writeln!(out, "hybrid app time: {}", r.app_time).unwrap();
                writeln!(out, "comm/comp ratio: {:.2}", r.comm_comp_ratio()).unwrap();
            } else {
                let r = simulate_runs(&plan, frames);
                writeln!(out, "{frames} frames, makespan {}", r.makespan).unwrap();
                writeln!(
                    out,
                    "steady-state interval {} ({:.1} fps)",
                    r.steady_interval,
                    r.steady_fps()
                )
                .unwrap();
            }
            Ok(out)
        }
        Command::Generate {
            shape,
            kernels,
            seed,
        } => {
            let spec = SyntheticSpec {
                shape,
                kernels,
                ..SyntheticSpec::default()
            };
            let app = generate(&spec, &mut StdRng::seed_from_u64(seed));
            Ok(serde_json::to_string_pretty(&app)?)
        }
        Command::Gen {
            source,
            emit,
            out,
            cache,
        } => {
            let text = match emit {
                GenEmit::Trace => emit_trace(&source)?,
                _ => {
                    let store = open_store(&cache)?;
                    let p = stages::profile(store.as_ref(), cache.read, &source)?;
                    match emit {
                        GenEmit::Spec => {
                            let mut s = serde_json::to_string_pretty(&p.spec)?;
                            s.push('\n');
                            s
                        }
                        GenEmit::Dot => p.graph.to_dot(&p.spec.name),
                        _ => {
                            let w = hic_workload::Workload {
                                app: p.spec,
                                graph: p.graph,
                            };
                            format!("{}\n", w.summary())
                        }
                    }
                }
            };
            if out == "-" {
                Ok(text)
            } else {
                std::fs::write(&out, &text)?;
                Ok(format!("wrote {} bytes to {out}\n", text.len()))
            }
        }
        Command::Profile { app, cache } => {
            let store = open_store(&cache)?;
            let (spec, graph) = run_profiled(store.as_ref(), cache.read, &app)?;
            let mut out = String::new();
            writeln!(out, "// measured communication profile:").unwrap();
            for line in graph.to_table().lines() {
                writeln!(out, "// {line}").unwrap();
            }
            out.push_str(&serde_json::to_string_pretty(&spec)?);
            Ok(out)
        }
        Command::Report {
            app,
            json,
            metrics,
            cache,
        } => {
            let reg = hic_obs::global();
            let store = open_store(&cache)?;
            let store = store.as_ref();
            // Profile (publishes profile.*), design (design.* spans and
            // decision counters), co-simulate (noc.* and cosim.*). Cache
            // hits skip a stage's computation, so its counters reflect
            // only what actually ran — plus the pipeline.* hit/miss
            // counters saying why.
            let (spec, _graph) = run_profiled(store, cache.read, &app)?;
            let plan = stages::design_variant(store, cache.read, &spec, &cfg, Variant::Hybrid)?;
            let _ = stages::cosim(store, cache.read, &plan)?;
            // Bus contention: replay every kernel's host transfers through
            // the cycle-level arbiter, one master per kernel, all ready at
            // time zero — the congested-fetch scenario of Section III-A.
            let mut bus = hic_bus::CycleBus::new(cfg.bus);
            let mut requests = Vec::new();
            for k in spec.kernel_ids() {
                let v = spec.volumes(k);
                if v.host_in > 0 {
                    requests.push(hic_bus::Request::at_start(k.index(), v.host_in));
                }
                if v.host_out > 0 {
                    requests.push(hic_bus::Request::at_start(k.index(), v.host_out));
                }
            }
            bus.run(&requests);
            bus.publish_metrics(reg, "bus");
            let snap = reg.snapshot();
            if json {
                Ok(snap.to_json())
            } else {
                let mut out = snap.render_table();
                if metrics {
                    out.push_str(&busiest_link_line(&snap));
                }
                Ok(out)
            }
        }
        Command::Heatmap {
            app,
            window,
            emit,
            cache,
        } => {
            if let Some(w) = window {
                hic_sim::set_heatmap_window(w);
            }
            let store = open_store(&cache)?;
            let store = store.as_ref();
            let p = stages::profile(store, cache.read, &app)?;
            // The heatmap needs a mesh: fall back to the noc-only
            // variant when the hybrid plan is SM-only (same rule as
            // `hic trace --noc`).
            let plan = stages::design_variant(store, cache.read, &p.spec, &cfg, Variant::Hybrid)?;
            let plan = if plan.noc.is_some() {
                plan
            } else {
                stages::design_variant(store, cache.read, &p.spec, &cfg, Variant::NocOnly)?
            };
            let res = stages::cosim(store, cache.read, &plan)?;
            let Some(report) = res.heatmap else {
                return Err(CliError::Io(std::io::Error::other(
                    "co-simulation produced no heatmap (spatial accounting disabled)",
                )));
            };
            match emit {
                HeatmapEmit::Json => Ok(serde_json::to_string_pretty(&report)?),
                HeatmapEmit::Dot => Ok(hic_sim::render_dot(&report)),
                HeatmapEmit::Ansi => {
                    use std::io::IsTerminal as _;
                    let color = std::io::stdout().is_terminal();
                    let mut out = hic_sim::render_ansi(&report, color);
                    out.push_str(&hic_sim::render_summary(&report));
                    Ok(out)
                }
            }
        }
        Command::Dse { app, json, cache } => {
            let store = open_store(&cache)?;
            let store = store.as_ref();
            let (spec, _graph) = run_profiled(store, cache.read, &app)?;
            let points = stages::dse_points(store, cache.read, &spec, &cfg)?;
            let front = pareto_front(&points);
            if json {
                let mut out = String::from("{\"schema\":\"hic-dse/v1\",\"app\":");
                out.push_str(&serde_json::to_string(&app)?);
                out.push_str(",\"points\":");
                out.push_str(&serde_json::to_string(&points)?);
                out.push_str(",\"pareto_front\":");
                out.push_str(&serde_json::to_string(&front)?);
                out.push('}');
                Ok(out)
            } else {
                let mut out = String::new();
                writeln!(out, "DSE over {} ({} points):", app, points.len()).unwrap();
                writeln!(
                    out,
                    "{:<22} {:>14} {:>10} {:>10}  solution",
                    "mechanisms", "kernel time", "LUTs", "regs"
                )
                .unwrap();
                for p in &points {
                    let starred = front.iter().any(|f| f.label == p.label);
                    writeln!(
                        out,
                        "{:<22} {:>14} {:>10} {:>10}  {}{}",
                        p.label,
                        p.kernels.to_string(),
                        p.resources.luts,
                        p.resources.regs,
                        p.solution,
                        if starred { "  *" } else { "" }
                    )
                    .unwrap();
                }
                writeln!(out, "* = on the Pareto front (time, LUTs, regs)").unwrap();
                Ok(out)
            }
        }
        Command::Batch {
            apps,
            jobs,
            json,
            serve_metrics,
            linger_ms,
            cache,
        } => {
            let mut opts = hic_pipeline::BatchOptions::new(
                apps,
                cache.dir.as_ref().map(std::path::PathBuf::from),
            );
            opts.jobs = jobs;
            opts.read_cache = cache.read;
            // Telemetry wrapper: sampler + /metrics endpoint for the
            // duration of the run (plus the linger window). The banner
            // goes to stderr so `--json` stdout stays machine-clean.
            let mut telemetry = serve_metrics
                .map(|port| -> Result<_, CliError> {
                    let reg = hic_obs::global().clone();
                    let store = hic_obs::timeseries::SeriesStore::new(
                        hic_obs::timeseries::DEFAULT_SERIES_CAPACITY,
                    );
                    let sampler = hic_obs::Sampler::start(
                        reg.clone(),
                        store.clone(),
                        std::time::Duration::from_millis(100),
                    );
                    let srv = hic_obs::MetricsServer::start(reg, Some(store), port)?;
                    eprintln!("serving metrics at http://127.0.0.1:{}/metrics", srv.port());
                    Ok((sampler, srv))
                })
                .transpose()?;
            let out = hic_pipeline::run_batch(&opts);
            if let Some((sampler, srv)) = &mut telemetry {
                if linger_ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(linger_ms));
                }
                sampler.stop();
                srv.stop();
            }
            let out = out?;
            if json {
                Ok(hic_pipeline::batch::outcome_json(&out))
            } else {
                Ok(batch_table(&out))
            }
        }
        Command::Top {
            apps,
            jobs,
            interval_ms,
            cache,
        } => {
            let mut opts = hic_pipeline::BatchOptions::new(
                apps,
                cache.dir.as_ref().map(std::path::PathBuf::from),
            );
            opts.jobs = jobs;
            opts.read_cache = cache.read;
            let out = top::run(&opts, interval_ms)?;
            Ok(batch_table(&out))
        }
        Command::Serve {
            port,
            jobs,
            queue_cap,
            metrics_port,
            for_ms,
            log_level,
            log_file,
            cache,
        } => {
            // Structured logging is off unless asked for (the disabled
            // layer costs one atomic load per record site). `--log-file`
            // alone implies info level; `--log-level` alone logs to
            // stderr. init() writes the hic-log/v1 header (build info)
            // to every sink.
            if log_level.is_some() || log_file.is_some() {
                hic_obs::log::init(&hic_obs::log::LogConfig {
                    level: Some(log_level.unwrap_or(hic_obs::log::Level::Info)),
                    stderr: log_file.is_none(),
                    file: log_file.as_ref().map(std::path::PathBuf::from),
                    ..hic_obs::log::LogConfig::default()
                })?;
            }
            let opts = hic_serve::ServeOptions {
                port,
                workers: jobs.unwrap_or_else(|| hic_serve::ServeOptions::default().workers),
                queue_cap,
                cache_dir: cache.dir.as_ref().map(std::path::PathBuf::from),
                read_cache: cache.read,
                // Same env knob the one-shot commands honour via
                // StoreConfig::at.
                max_bytes: std::env::var("HIC_CACHE_MAX_BYTES")
                    .ok()
                    .and_then(|v| v.parse().ok()),
            };
            let daemon = hic_serve::Daemon::start(opts)?;
            hic_serve::signal::install();
            // Optional Prometheus sidecar: sampler + /metrics endpoint
            // for the daemon's lifetime (serve.* gauges included), with
            // the daemon as the /healthz + /statusz source — health
            // flips to 503 `draining` the moment drain begins, before
            // the job listener ever closes.
            let mut telemetry = metrics_port
                .map(|mport| -> Result<_, CliError> {
                    let reg = hic_obs::global().clone();
                    let store = hic_obs::timeseries::SeriesStore::new(
                        hic_obs::timeseries::DEFAULT_SERIES_CAPACITY,
                    );
                    let sampler = hic_obs::Sampler::start(
                        reg.clone(),
                        store.clone(),
                        std::time::Duration::from_millis(100),
                    );
                    // start_full: the daemon's labeled store rides along,
                    // so the hottest-link rows of the latest cosim job
                    // (hic_noc_link_util{x,y,port}) appear on /metrics.
                    let srv = hic_obs::MetricsServer::start_full(
                        reg,
                        Some(store),
                        mport,
                        Some(daemon.status_source()),
                        Some(daemon.labeled_store()),
                    )?;
                    eprintln!("serving metrics at http://127.0.0.1:{}/metrics", srv.port());
                    Ok((sampler, srv))
                })
                .transpose()?;
            eprintln!(
                "hic serve: listening on 127.0.0.1:{} ({} workers, queue cap {})",
                daemon.port(),
                jobs.unwrap_or_else(|| hic_serve::ServeOptions::default().workers),
                queue_cap
            );
            let started = std::time::Instant::now();
            loop {
                if hic_serve::signal::term_requested() || daemon.drain_requested() {
                    break;
                }
                if let Some(ms) = for_ms {
                    if started.elapsed() >= std::time::Duration::from_millis(ms) {
                        break;
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            // Drain first so the cache stats cover every finished job,
            // then tear down (stop re-checks the already-drained state).
            daemon.begin_drain();
            daemon.wait_drained();
            let stats = daemon.cache_stats();
            let summary = daemon.stop();
            if let Some((sampler, srv)) = &mut telemetry {
                sampler.stop();
                srv.stop();
            }
            // Flush and detach the log sinks (no-op when logging is off).
            hic_obs::log::shutdown();
            Ok(format!(
                "drained: {} submitted, {} completed, {} failed, {} rejected \
                 ({} cache hits / {} misses)\n",
                summary.submitted,
                summary.completed,
                summary.failed,
                summary.rejected,
                stats.hits,
                stats.misses
            ))
        }
        Command::Jobs {
            port,
            failed_only,
            slowest,
            json,
        } => {
            let mut c = connect_daemon(port)?;
            let resp = c.jobs(failed_only, slowest)?;
            let v = daemon_ok(&resp)?;
            if json {
                Ok(resp)
            } else {
                Ok(jobs_table(&v))
            }
        }
        Command::Inspect { job, port, json } => {
            let mut c = connect_daemon(port)?;
            let resp = c.inspect(job)?;
            let v = daemon_ok(&resp)?;
            let t = v.get("timeline").ok_or_else(|| {
                CliError::Io(std::io::Error::other(format!(
                    "malformed inspect response: {resp}"
                )))
            })?;
            if json {
                Ok(serde_json::to_string_pretty(t)?)
            } else {
                Ok(timeline_render(t))
            }
        }
        Command::Trace {
            app,
            mode,
            sample,
            out,
            cache,
        } => {
            use hic_obs::trace::{self as tr, Category};
            let tracer = tr::global();
            let cats: &[Category] = match mode {
                TraceMode::All => &Category::ALL,
                TraceMode::Noc => &[
                    Category::Noc,
                    Category::Bus,
                    Category::Design,
                    Category::Sim,
                ],
                TraceMode::Batch => &[Category::Batch],
            };
            for &c in cats {
                tracer.set_enabled(c, true);
            }
            tracer.set_sample(Category::Noc, sample);
            let ran = run_trace_workload(&app, mode, &cache, &cfg);
            // Always disable and drain, even when the workload failed —
            // the global tracer must not leak into later commands.
            for &c in cats {
                tracer.set_enabled(c, false);
            }
            let trace = tracer.take();
            ran?;
            let json = tr::export_chrome_json(&trace);
            if out == "-" {
                return Ok(json);
            }
            std::fs::write(&out, &json)?;
            let mut s = trace_summary(&trace);
            writeln!(
                s,
                "wrote {} events ({} bytes) to {}",
                trace.events.len(),
                json.len(),
                out
            )
            .unwrap();
            Ok(s)
        }
    }
}

/// Outcome of a failed [`dispatch`]: what to print and how to exit.
#[derive(Debug)]
pub struct Failure {
    /// Process exit status (2 for command-line mistakes, 1 for runtime
    /// failures).
    pub exit_code: i32,
    /// The error message.
    pub message: String,
    /// Whether the usage text should follow the message (only for
    /// command-line mistakes; a failed run prints its error alone).
    pub show_usage: bool,
}

/// Parse and execute in one step, classifying failures for the binary.
///
/// A bad command line (unparsable arguments, or a run that rejects an
/// argument value) exits 2 with the usage text; a command that parsed fine
/// but failed at runtime (missing file, bad JSON, infeasible design) exits
/// 1 with just its error — dumping usage there buried the actual message
/// and made every failure look like a typo.
pub fn dispatch(args: &[String]) -> Result<String, Failure> {
    let cmd = parse(args).map_err(|e| Failure {
        exit_code: 2,
        message: e.to_string(),
        show_usage: true,
    })?;
    run(cmd).map_err(|e| match e {
        CliError::Usage(_) => Failure {
            exit_code: 2,
            message: e.to_string(),
            show_usage: true,
        },
        CliError::Io(_) | CliError::Json(_) | CliError::Design(_) | CliError::Pipeline(_) => {
            Failure {
                exit_code: 1,
                message: e.to_string(),
                show_usage: false,
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_design_with_flags() {
        let cmd = parse(&argv("design file:app.json --variant noc-only --json")).unwrap();
        match cmd {
            Command::Design {
                app,
                variant,
                json,
                cache,
            } => {
                assert_eq!(app, "file:app.json");
                assert_eq!(variant, Variant::NocOnly);
                assert!(json);
                assert!(cache.dir.is_some(), "parser always resolves a cache dir");
                assert!(cache.read);
            }
            other => panic!("expected Design, got {other:?}"),
        }
    }

    #[test]
    fn cache_flags_are_parsed() {
        let cmd = parse(&argv("report jpeg --cache-dir /tmp/c --no-cache")).unwrap();
        match cmd {
            Command::Report { cache, .. } => {
                assert_eq!(cache.dir.as_deref(), Some("/tmp/c"));
                assert!(!cache.read, "--no-cache must disable reads");
            }
            other => panic!("expected Report, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_variant_and_missing_path() {
        assert!(matches!(
            parse(&argv("design file:app.json --variant bogus")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(parse(&argv("design")), Err(CliError::Usage(_))));
    }

    #[test]
    fn design_estimate_simulate_reject_a_bare_path() {
        for cmd in ["design", "estimate", "simulate"] {
            let err = parse(&argv(&format!("{cmd} app.json"))).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{cmd}: {err:?}");
        }
    }

    #[test]
    fn parses_generate_defaults() {
        let cmd = parse(&argv("generate")).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                shape: Shape::Chain,
                kernels: 4,
                seed: 42
            }
        );
    }

    #[test]
    fn empty_args_mean_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert!(run(Command::Help).unwrap().contains("USAGE"));
    }

    #[test]
    fn generate_then_design_round_trips() {
        let json = run(Command::Generate {
            shape: Shape::Diamond,
            kernels: 5,
            seed: 3,
        })
        .unwrap();
        let dir = std::env::temp_dir().join("hic_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("app.json");
        std::fs::write(&path, &json).unwrap();
        let app = format!("file:{}", path.display());
        let out = run(Command::Design {
            app: app.clone(),
            variant: Variant::Hybrid,
            json: false,
            cache: CacheOpts::disabled(),
        })
        .unwrap();
        assert!(out.contains("solution"), "{out}");
        let est = run(Command::Estimate { app }).unwrap();
        assert!(est.contains("baseline"));
        assert!(est.contains("hybrid"));
    }

    #[test]
    fn simulate_parses_frames() {
        let cmd = parse(&argv("simulate file:app.json --frames 8")).unwrap();
        assert_eq!(
            cmd,
            Command::Simulate {
                app: "file:app.json".into(),
                frames: 8
            }
        );
    }

    #[test]
    fn design_plan_json_is_parseable() {
        let json = run(Command::Generate {
            shape: Shape::Chain,
            kernels: 4,
            seed: 9,
        })
        .unwrap();
        let dir = std::env::temp_dir().join("hic_cli_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("app.json");
        std::fs::write(&path, &json).unwrap();
        let out = run(Command::Design {
            app: format!("file:{}", path.display()),
            variant: Variant::Hybrid,
            json: true,
            cache: CacheOpts::disabled(),
        })
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["variant"], "hybrid");
        assert!(v.get("kernels").is_some());
        assert!(v["app_speedups"][0].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn profile_rejects_unknown_app() {
        assert!(matches!(
            run(Command::Profile {
                app: "nope".into(),
                cache: CacheOpts::disabled()
            }),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_report_with_flags() {
        let cmd = parse(&argv("report jpeg --json")).unwrap();
        match cmd {
            Command::Report { app, json, .. } => {
                assert_eq!(app, "jpeg");
                assert!(json);
            }
            other => panic!("expected Report, got {other:?}"),
        }
        assert!(matches!(parse(&argv("report")), Err(CliError::Usage(_))));
    }

    #[test]
    fn parses_heatmap_with_flags() {
        let cmd = parse(&argv("heatmap jpeg --window 256 --dot")).unwrap();
        match cmd {
            Command::Heatmap {
                app, window, emit, ..
            } => {
                assert_eq!(app, "jpeg");
                assert_eq!(window, Some(256));
                assert_eq!(emit, HeatmapEmit::Dot);
            }
            other => panic!("expected Heatmap, got {other:?}"),
        }
        match parse(&argv("heatmap gen:k=4,seed=7")).unwrap() {
            Command::Heatmap { window, emit, .. } => {
                assert_eq!(window, None);
                assert_eq!(emit, HeatmapEmit::Ansi);
            }
            other => panic!("expected Heatmap, got {other:?}"),
        }
        // Missing source, unknown app, conflicting emits, bad window:
        // all command-line mistakes.
        for bad in [
            "heatmap",
            "heatmap doom",
            "heatmap jpeg --json --dot",
            "heatmap jpeg --window 0",
            "heatmap jpeg --window soon",
        ] {
            assert!(
                matches!(parse(&argv(bad)), Err(CliError::Usage(_))),
                "'{bad}' must be a usage error"
            );
        }
    }

    #[test]
    fn parses_dse_and_rejects_missing_app() {
        let cmd = parse(&argv("dse canny --json")).unwrap();
        match cmd {
            Command::Dse { app, json, .. } => {
                assert_eq!(app, "canny");
                assert!(json);
            }
            other => panic!("expected Dse, got {other:?}"),
        }
        assert!(matches!(parse(&argv("dse")), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&argv("dse --json")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_batch_and_validates_apps_at_parse_time() {
        let cmd = parse(&argv("batch jpeg canny --jobs 4 --json")).unwrap();
        match cmd {
            Command::Batch {
                apps, jobs, json, ..
            } => {
                assert_eq!(apps, vec!["jpeg".to_string(), "canny".to_string()]);
                assert_eq!(jobs, Some(4));
                assert!(json);
            }
            other => panic!("expected Batch, got {other:?}"),
        }
        // No apps, unknown app, bad --jobs: all command-line mistakes.
        assert!(matches!(parse(&argv("batch")), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&argv("batch doom")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("batch jpeg --jobs 0")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("batch jpeg --jobs lots")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_gen_and_validates_sources() {
        match parse(&argv("gen gen:k=4,seed=7 --emit-trace -o /tmp/w.trace")).unwrap() {
            Command::Gen {
                source, emit, out, ..
            } => {
                assert_eq!(source, "gen:k=4,seed=7");
                assert_eq!(emit, GenEmit::Trace);
                assert_eq!(out, "/tmp/w.trace");
            }
            other => panic!("expected Gen, got {other:?}"),
        }
        match parse(&argv("gen jpeg")).unwrap() {
            Command::Gen { emit, out, .. } => {
                assert_eq!(emit, GenEmit::Summary);
                assert_eq!(out, "-");
            }
            other => panic!("expected Gen, got {other:?}"),
        }
        // Missing source, unknown app, malformed spec, conflicting emits:
        // all command-line mistakes.
        for bad in [
            "gen",
            "gen doom",
            "gen gen:k=0",
            "gen gen:zap=1",
            "gen jpeg --emit-spec --emit-dot",
        ] {
            assert!(
                matches!(parse(&argv(bad)), Err(CliError::Usage(_))),
                "'{bad}' must be a usage error"
            );
        }
    }

    #[test]
    fn app_sources_parse_everywhere_an_app_name_does() {
        for cmd in [
            "dse", "batch", "top", "trace", "gen", "profile", "report", "heatmap",
        ] {
            assert!(
                parse(&argv(&format!("{cmd} gen:k=3,seed=1"))).is_ok(),
                "{cmd} must accept gen: sources"
            );
        }
        for cmd in ["dse", "batch", "top", "trace", "gen", "heatmap"] {
            assert!(
                matches!(
                    parse(&argv(&format!("{cmd} gen:k=99"))),
                    Err(CliError::Usage(_))
                ),
                "{cmd} must reject malformed gen: specs at parse time"
            );
        }
    }

    #[test]
    fn gen_emitted_traces_replay_to_the_same_graph() {
        let dir = std::env::temp_dir().join(format!("hic-cli-gen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // Generated source: emit the trace, replay it via trace:, and
        // the communication graph must match the gen: profile exactly.
        let text = run(Command::Gen {
            source: "gen:k=3,seed=5".into(),
            emit: GenEmit::Trace,
            out: "-".into(),
            cache: CacheOpts::disabled(),
        })
        .unwrap();
        let path = dir.join("w.trace");
        std::fs::write(&path, &text).unwrap();
        let via_trace = stages::profile(None, false, &format!("trace:{}", path.display())).unwrap();
        let via_gen = stages::profile(None, false, "gen:k=3,seed=5").unwrap();
        assert_eq!(via_trace.graph, via_gen.graph);
        assert_eq!(via_trace.spec.n_kernels(), via_gen.spec.n_kernels());

        // Built-in round trip: jpeg's emitted trace replays to the
        // profiled graph byte-for-byte.
        let text = run(Command::Gen {
            source: "jpeg".into(),
            emit: GenEmit::Trace,
            out: "-".into(),
            cache: CacheOpts::disabled(),
        })
        .unwrap();
        let path = dir.join("jpeg.trace");
        std::fs::write(&path, &text).unwrap();
        let replayed = stages::profile(None, false, &format!("trace:{}", path.display())).unwrap();
        let direct = stages::run_profiled_builtin("jpeg").unwrap();
        assert_eq!(replayed.graph, direct.graph);

        // file: sources have no trace to emit.
        assert!(matches!(
            run(Command::Gen {
                source: "file:/tmp/spec.json".into(),
                emit: GenEmit::Trace,
                out: "-".into(),
                cache: CacheOpts::disabled(),
            }),
            Err(CliError::Usage(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gen_emits_spec_dot_and_summary() {
        let spec_json = run(Command::Gen {
            source: "gen:k=4,seed=2".into(),
            emit: GenEmit::Spec,
            out: "-".into(),
            cache: CacheOpts::disabled(),
        })
        .unwrap();
        let v = serde_json::parse(&spec_json).expect("spec is JSON");
        assert!(v.get("kernels").is_some(), "{spec_json}");

        // The emitted spec feeds back through file: as the same app.
        let dir = std::env::temp_dir().join(format!("hic-cli-genspec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gen.json");
        std::fs::write(&path, &spec_json).unwrap();
        let reloaded = stages::profile(None, false, &format!("file:{}", path.display())).unwrap();
        let direct = stages::profile(None, false, "gen:k=4,seed=2").unwrap();
        assert_eq!(reloaded.spec, direct.spec);

        let dot = run(Command::Gen {
            source: "gen:k=4,seed=2".into(),
            emit: GenEmit::Dot,
            out: "-".into(),
            cache: CacheOpts::disabled(),
        })
        .unwrap();
        assert!(dot.starts_with("digraph"), "{dot}");

        let summary = run(Command::Gen {
            source: "gen:k=4,seed=2".into(),
            emit: GenEmit::Summary,
            out: "-".into(),
            cache: CacheOpts::disabled(),
        })
        .unwrap();
        assert!(summary.contains("4 kernels"), "{summary}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parses_trace_with_flags_and_defaults() {
        let cmd = parse(&argv("trace canny --noc --sample 64 -o /tmp/t.json")).unwrap();
        match cmd {
            Command::Trace {
                app,
                mode,
                sample,
                out,
                ..
            } => {
                assert_eq!(app, "canny");
                assert_eq!(mode, TraceMode::Noc);
                assert_eq!(sample, 64);
                assert_eq!(out, "/tmp/t.json");
            }
            other => panic!("expected Trace, got {other:?}"),
        }
        match parse(&argv("trace jpeg")).unwrap() {
            Command::Trace {
                mode, sample, out, ..
            } => {
                assert_eq!(mode, TraceMode::All);
                assert_eq!(sample, 1);
                assert_eq!(out, "trace.json");
            }
            other => panic!("expected Trace, got {other:?}"),
        }
        // Missing app, unknown app, conflicting modes, bad --sample: all
        // command-line mistakes.
        for bad in [
            "trace",
            "trace doom",
            "trace canny --noc --batch",
            "trace canny --sample 0",
            "trace canny --sample lots",
        ] {
            assert!(
                matches!(parse(&argv(bad)), Err(CliError::Usage(_))),
                "'{bad}' must be a usage error"
            );
        }
    }

    #[test]
    fn dse_runs_storeless_and_emits_the_lattice() {
        let out = run(Command::Dse {
            app: "jpeg".into(),
            json: true,
            cache: CacheOpts::disabled(),
        })
        .unwrap();
        let v = serde_json::parse(&out).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str().unwrap(), "hic-dse/v1");
        assert!(v.get("points").is_some());
        assert!(v.get("pareto_front").is_some());
    }

    #[test]
    fn dispatch_exit_codes_cover_the_new_commands() {
        // Parse errors: exit 2 with usage. Unknown app names are caught at
        // parse time for dse/batch, so no store directory is ever created
        // for a mistyped command.
        for bad in [
            "dse",
            "dse doom",
            "batch",
            "batch doom",
            "batch jpeg --jobs 0",
        ] {
            let f = dispatch(&argv(bad)).unwrap_err();
            assert_eq!(f.exit_code, 2, "'{bad}' must be a usage error");
            assert!(f.show_usage, "'{bad}' must print usage");
        }
    }

    #[test]
    fn dispatch_classifies_parse_errors_as_usage() {
        // Unparsable command line: exit 2 and show usage.
        let f = dispatch(&argv("design")).unwrap_err();
        assert_eq!(f.exit_code, 2);
        assert!(f.show_usage);
        assert!(f.message.contains("usage error"));
        let f = dispatch(&argv("frobnicate")).unwrap_err();
        assert_eq!(f.exit_code, 2);
        assert!(f.show_usage);
    }

    #[test]
    fn parses_serve_defaults_and_flags() {
        match parse(&argv("serve")).unwrap() {
            Command::Serve {
                port,
                jobs,
                queue_cap,
                metrics_port,
                for_ms,
                log_level,
                log_file,
                cache,
            } => {
                assert_eq!(port, 9191);
                assert_eq!(jobs, None);
                assert_eq!(queue_cap, 256);
                assert_eq!(metrics_port, None);
                assert_eq!(for_ms, None);
                assert_eq!(log_level, None, "logging is off by default");
                assert_eq!(log_file, None);
                assert!(cache.dir.is_some(), "parser always resolves a cache dir");
            }
            other => panic!("expected Serve, got {other:?}"),
        }
        match parse(&argv(
            "serve --port 7000 --jobs 3 --queue-cap 32 --metrics-port 7001 \
             --for-ms 250 --log-level debug --log-file /tmp/s.log \
             --cache-dir /tmp/s --no-cache",
        ))
        .unwrap()
        {
            Command::Serve {
                port,
                jobs,
                queue_cap,
                metrics_port,
                for_ms,
                log_level,
                log_file,
                cache,
            } => {
                assert_eq!(port, 7000);
                assert_eq!(jobs, Some(3));
                assert_eq!(queue_cap, 32);
                assert_eq!(metrics_port, Some(7001));
                assert_eq!(for_ms, Some(250));
                assert_eq!(log_level, Some(hic_obs::log::Level::Debug));
                assert_eq!(log_file.as_deref(), Some("/tmp/s.log"));
                assert_eq!(cache.dir.as_deref(), Some("/tmp/s"));
                assert!(!cache.read);
            }
            other => panic!("expected Serve, got {other:?}"),
        }
        // Zero or garbage flag values are command-line mistakes.
        for bad in [
            "serve --port 0",
            "serve --jobs zero",
            "serve --queue-cap 0",
            "serve --for-ms soon",
            "serve --log-level loud",
        ] {
            assert!(
                matches!(parse(&argv(bad)), Err(CliError::Usage(_))),
                "'{bad}' must be a usage error"
            );
        }
    }

    #[test]
    fn parses_jobs_and_inspect() {
        assert_eq!(
            parse(&argv("jobs")).unwrap(),
            Command::Jobs {
                port: 9191,
                failed_only: false,
                slowest: None,
                json: false
            }
        );
        assert_eq!(
            parse(&argv("jobs --failed --slowest 5 --port 7000 --json")).unwrap(),
            Command::Jobs {
                port: 7000,
                failed_only: true,
                slowest: Some(5),
                json: true
            }
        );
        assert_eq!(
            parse(&argv("inspect 12")).unwrap(),
            Command::Inspect {
                job: 12,
                port: 9191,
                json: false
            }
        );
        assert_eq!(
            parse(&argv("inspect 3 --port 7000 --json")).unwrap(),
            Command::Inspect {
                job: 3,
                port: 7000,
                json: true
            }
        );
        for bad in ["inspect", "inspect twelve", "jobs --slowest none"] {
            assert!(
                matches!(parse(&argv(bad)), Err(CliError::Usage(_))),
                "'{bad}' must be a usage error"
            );
        }
    }

    #[test]
    fn jobs_and_inspect_against_a_live_daemon() {
        let dir = std::env::temp_dir().join(format!("hic-cli-jobsit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let daemon = hic_serve::Daemon::start(hic_serve::ServeOptions {
            port: 0,
            workers: 1,
            queue_cap: 8,
            cache_dir: Some(dir.clone()),
            read_cache: true,
            max_bytes: None,
        })
        .expect("daemon starts");
        let port = daemon.port();
        let mut c = hic_serve::Client::connect(port).expect("connect");
        let job = c.submit("profile", "canny", None, "cli").unwrap().unwrap();
        assert_eq!(
            c.wait_done(job, std::time::Duration::from_millis(5))
                .unwrap(),
            "done"
        );

        let table = run(Command::Jobs {
            port,
            failed_only: false,
            slowest: None,
            json: false,
        })
        .unwrap();
        assert!(table.contains("profile"), "{table}");
        assert!(table.contains("canny"), "{table}");
        assert!(table.contains("done"), "{table}");

        let rendered = run(Command::Inspect {
            job,
            port,
            json: false,
        })
        .unwrap();
        assert!(rendered.contains(&format!("job {job}:")), "{rendered}");
        assert!(rendered.contains("queue wait"), "{rendered}");
        assert!(rendered.contains("profile"), "{rendered}");

        let j = run(Command::Inspect {
            job,
            port,
            json: true,
        })
        .unwrap();
        let v = serde_json::parse(&j).expect("inspect --json is JSON");
        assert_eq!(v.get("outcome").unwrap().as_str(), Some("done"));

        // Unknown job: a runtime failure carrying the daemon's message.
        match run(Command::Inspect {
            job: 9999,
            port,
            json: false,
        }) {
            Err(CliError::Io(e)) => assert!(e.to_string().contains("no such job"), "{e}"),
            other => panic!("expected the daemon's error, got {other:?}"),
        }

        daemon.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_runs_bounded_and_reports_a_drain_summary() {
        let dir = std::env::temp_dir().join(format!("hic-cli-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = run(Command::Serve {
            port: 0, // ephemeral: this test must not collide with a real daemon
            jobs: Some(1),
            queue_cap: 8,
            metrics_port: None,
            for_ms: Some(1),
            log_level: None,
            log_file: None,
            cache: CacheOpts {
                dir: Some(dir.to_string_lossy().into_owned()),
                read: true,
            },
        })
        .unwrap();
        assert!(out.contains("drained"), "{out}");
        assert!(out.contains("0 failed"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dispatch_classifies_runtime_errors_as_failures() {
        // Parsed fine, failed at runtime (missing file): exit 1, no usage
        // dump. Regression: this used to exit 2 and print the usage text,
        // indistinguishable from a typo.
        let f = dispatch(&argv("design file:/no/such/file.json")).unwrap_err();
        assert_eq!(f.exit_code, 1);
        assert!(!f.show_usage);
        assert!(f.message.contains("io error"), "{}", f.message);
        // And a success path returns output.
        assert!(dispatch(&argv("help")).unwrap().contains("USAGE"));
    }
}
