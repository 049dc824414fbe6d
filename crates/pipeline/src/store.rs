//! The content-addressed artifact store (`hic-store/v1`).
//!
//! Every pipeline stage output — measured profiles, interconnect plans,
//! co-simulation results, DSE points — is persisted under a key that is a
//! stable hash of *what produced it*: the stage name, the keys of its
//! input artifacts, the [`DesignConfig`]/[`DesignKnobs`] in effect, and a
//! crate-version salt. Re-running a stage with identical inputs resolves
//! to the same key and is served from disk; changing any input changes
//! the key, so stale artifacts are never returned — invalidation is
//! structural, not time-based.
//!
//! # On-disk layout (`hic-store/v1`)
//!
//! ```text
//! <root>/
//!   VERSION                    # the literal schema id "hic-store/v1"
//!   access.log                 # append-only key log, LRU recency source
//!   objects/<kk>/<key32>.art   # kk = first two hex digits of the key
//!   quarantine/<key32>.art     # objects that failed verification
//! ```
//!
//! An object file is a one-line JSON header followed by the payload:
//!
//! ```text
//! {"schema":"hic-store/v1","stage":"design","key":"<hex>","checksum":"<hex>","bytes":N}
//! <compact JSON payload, exactly N bytes>
//! ```
//!
//! The checksum is the [`stable_hash_bytes`] digest of the payload bytes.
//! Reads verify header shape, key, byte count and checksum; any mismatch
//! moves the file to `quarantine/` (for post-mortems) and reports a miss,
//! so a corrupted cache degrades to recomputation, never to wrong
//! answers. Writes go to a temporary file in the object's directory and
//! are published with an atomic rename — readers see either the old
//! object, the new object, or nothing, never a torn file.
//!
//! Eviction is LRU by total object bytes against a configurable cap:
//! recency comes from `access.log` (appended on every publish and read
//! hit), and the least-recently-used objects are deleted until the store
//! fits. In-process, [`ArtifactStore::get_or_compute`] additionally
//! single-flights identical concurrent jobs: one caller computes, the
//! rest wait and share the result.
//!
//! # Cross-process safety
//!
//! Any number of `hic` processes may share one store directory:
//!
//! * **Single-flight across processes** — each in-process flight leader
//!   runs the [`crate::lock`] lease protocol: acquire
//!   `objects/<kk>/<key>.lease` (`create_new`, owner pid + heartbeat
//!   mtime) and compute, or poll-then-read while another process holds
//!   it, taking over leases whose heartbeat has gone stale (crashed
//!   owner). See [`crate::lock::Lease`].
//! * **`access.log` integrity** — appenders hold a shared OS file lock
//!   (`.log.lock`) and compaction holds it exclusively, so a compaction
//!   rewrite can never drop appends landing mid-rewrite.
//! * **Eviction election** — at most one process evicts at a time
//!   (`.evict.lock`, try-lock; losers skip, the winner enforces the cap).
//! * **Readers degrade, never error** — an object evicted or quarantined
//!   by another process mid-read is a miss (recompute), not an I/O error,
//!   and crashed writers' `.tmp.*` files are swept on store open.

use crate::lock::{takeover_if_stale, FsLock, Lease, LeaseConfig};
use crate::PipelineError;
use hic_core::stablehash::{stable_hash_bytes, StableHash, StableHasher};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// The store schema id, written to `VERSION` and every object header.
pub const STORE_SCHEMA: &str = "hic-store/v1";

/// Salt mixed into every key: schema id plus the workspace version, so a
/// new release (which may change any stage's semantics) starts from a
/// logically empty cache instead of replaying artifacts it cannot trust.
pub const STORE_SALT: &str = concat!("hic-store/v1:", env!("CARGO_PKG_VERSION"));

/// Compute a stage key: salt + stage name + input digests, in order.
pub fn stage_key(stage: &str, inputs: &[StableHash]) -> StableHash {
    let mut h = StableHasher::new();
    h.write_str(STORE_SALT).write_str(stage);
    for i in inputs {
        h.write_hash(*i);
    }
    h.finish()
}

/// Default size cap for `access.log` before compaction (1 MiB ≈ 30k
/// entries — far beyond any realistic working set, so compaction is a
/// safety valve, not a steady-state cost).
pub const DEFAULT_LOG_MAX_BYTES: u64 = 1 << 20;

/// Default age past which an orphaned `.tmp.*` writer file (its process
/// died between create and rename) is swept on store open. Generous: any
/// live publish finishes in well under an hour.
pub const DEFAULT_TMP_MAX_AGE: Duration = Duration::from_secs(3600);

/// Store configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the store (created if absent).
    pub root: PathBuf,
    /// LRU eviction cap on total object bytes (`None` = unbounded).
    pub max_bytes: Option<u64>,
    /// Size cap for the `access.log` recency journal: when an append
    /// pushes the file past this many bytes it is compacted in place
    /// (entries deduplicated keeping the most recent occurrence, then
    /// oldest entries dropped to half the cap), so the log stays bounded
    /// across arbitrarily many batch runs.
    pub log_max_bytes: u64,
    /// Cross-process compute-lease timing (ttl / poll / max wait).
    pub lease: LeaseConfig,
    /// Orphaned temp files (and dead lease/takeover leftovers) older
    /// than this are deleted when the store is opened.
    pub tmp_max_age: Duration,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            root: PathBuf::from(".hic-cache"),
            max_bytes: None,
            log_max_bytes: DEFAULT_LOG_MAX_BYTES,
            lease: LeaseConfig::default(),
            tmp_max_age: DEFAULT_TMP_MAX_AGE,
        }
    }
}

impl StoreConfig {
    /// A store at `root` with the cap taken from `HIC_CACHE_MAX_BYTES`
    /// (unset or unparsable = unbounded).
    pub fn at(root: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            root: root.into(),
            max_bytes: std::env::var("HIC_CACHE_MAX_BYTES")
                .ok()
                .and_then(|v| v.parse().ok()),
            ..StoreConfig::default()
        }
    }
}

/// Per-run cache statistics (also published to `hic-obs` as
/// `pipeline.store.*` / `pipeline.<stage>.*`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Reads served from disk.
    pub hits: u64,
    /// Reads that fell through to computation.
    pub misses: u64,
    /// Callers that waited on an identical in-flight computation instead
    /// of repeating it.
    pub singleflight_waits: u64,
    /// Flight leaders that found another *process* holding the compute
    /// lease and entered the poll-then-read loop.
    pub lease_waits: u64,
    /// Stale leases (dead owner, heartbeat expired) removed by takeover.
    pub lease_takeovers: u64,
    /// Objects moved to `quarantine/` after failing verification.
    pub quarantined: u64,
    /// Objects deleted by LRU eviction.
    pub evicted_objects: u64,
    /// Bytes reclaimed by LRU eviction.
    pub evicted_bytes: u64,
    /// Per-stage `(hits, misses)`.
    pub per_stage: BTreeMap<String, (u64, u64)>,
}

#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    singleflight_waits: AtomicU64,
    lease_waits: AtomicU64,
    lease_takeovers: AtomicU64,
    quarantined: AtomicU64,
    evicted_objects: AtomicU64,
    evicted_bytes: AtomicU64,
    per_stage: Mutex<BTreeMap<String, (u64, u64)>>,
}

/// One in-flight computation; waiters block on the condvar until the
/// leader deposits the serialized payload (or its error).
#[derive(Debug, Default)]
struct Flight {
    slot: Mutex<Option<Result<String, PipelineError>>>,
    done: Condvar,
}

/// A handle to an on-disk artifact store. Cheap to clone-by-`Arc` at the
/// caller's discretion; all methods take `&self`.
#[derive(Debug)]
pub struct ArtifactStore {
    root: PathBuf,
    max_bytes: Option<u64>,
    log_max_bytes: u64,
    lease: LeaseConfig,
    counters: Counters,
    inflight: Mutex<HashMap<u128, Arc<Flight>>>,
    log_lock: Mutex<()>,
    tmp_seq: AtomicU64,
}

impl ArtifactStore {
    /// Open (creating if needed) the store at `cfg.root`. Sweeps
    /// age-stale `.tmp.*` / lease leftovers from crashed writers.
    pub fn open(cfg: StoreConfig) -> Result<ArtifactStore, PipelineError> {
        let root = cfg.root;
        fs::create_dir_all(root.join("objects"))?;
        fs::create_dir_all(root.join("quarantine"))?;
        let version = root.join("VERSION");
        if !version.exists() {
            fs::write(&version, format!("{STORE_SCHEMA}\n"))?;
        }
        let store = ArtifactStore {
            root,
            max_bytes: cfg.max_bytes,
            log_max_bytes: cfg.log_max_bytes.max(1),
            lease: cfg.lease,
            counters: Counters::default(),
            inflight: Mutex::new(HashMap::new()),
            log_lock: Mutex::new(()),
            tmp_seq: AtomicU64::new(0),
        };
        store.sweep_stale_temps(cfg.tmp_max_age);
        Ok(store)
    }

    /// Delete crash leftovers under `objects/` older than `max_age`:
    /// `.tmp.*` files whose writer died between create and rename (the
    /// object scan skips them, so without this they leak forever), plus
    /// `.lease` / `.stale.*` files old enough that no live heartbeat can
    /// be keeping them (a held lease's mtime is refreshed every ttl/4).
    fn sweep_stale_temps(&self, max_age: Duration) {
        let Ok(fans) = fs::read_dir(self.root.join("objects")) else {
            return;
        };
        let mut swept = 0u64;
        for fan in fans.flatten() {
            let Ok(entries) = fs::read_dir(fan.path()) else {
                continue;
            };
            for e in entries.flatten() {
                let path = e.path();
                let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                    continue;
                };
                let leftover = name.starts_with(".tmp.")
                    || name.ends_with(".lease")
                    || name.contains(".stale.");
                if !leftover {
                    continue;
                }
                let age = e
                    .metadata()
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|m| SystemTime::now().duration_since(m).ok())
                    .unwrap_or(Duration::MAX);
                if age >= max_age && fs::remove_file(&path).is_ok() {
                    swept += 1;
                }
            }
        }
        if swept > 0 {
            hic_obs::global()
                .counter("pipeline.store.tmp_swept")
                .add(swept);
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Where the object for `key` lives (the `hic-store/v1` layout
    /// contract: `objects/<first two hex digits>/<key>.art`).
    pub fn object_path(&self, key: StableHash) -> PathBuf {
        let hex = key.to_hex();
        self.root
            .join("objects")
            .join(&hex[..2])
            .join(format!("{hex}.art"))
    }

    /// Where the compute lease for `key` lives (next to its object).
    pub fn lease_path(&self, key: StableHash) -> PathBuf {
        let hex = key.to_hex();
        self.root
            .join("objects")
            .join(&hex[..2])
            .join(format!("{hex}.lease"))
    }

    /// The *base* quarantine destination for `key`. When a key is
    /// quarantined more than once the later copies get uniquified names
    /// (`<key>.<n>.art`) so earlier evidence is never overwritten; see
    /// [`ArtifactStore::quarantined_files`] for the full set.
    pub fn quarantine_path(&self, key: StableHash) -> PathBuf {
        self.root
            .join("quarantine")
            .join(format!("{}.art", key.to_hex()))
    }

    /// Every quarantine file holding evidence for `key`, base name and
    /// uniquified alike.
    pub fn quarantined_files(&self, key: StableHash) -> Vec<PathBuf> {
        let hex = key.to_hex();
        let Ok(entries) = fs::read_dir(self.root.join("quarantine")) else {
            return Vec::new();
        };
        let mut out: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(hex.as_str()) && n.ends_with(".art"))
            })
            .collect();
        out.sort();
        out
    }

    /// This run's cache statistics so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            singleflight_waits: self.counters.singleflight_waits.load(Ordering::Relaxed),
            lease_waits: self.counters.lease_waits.load(Ordering::Relaxed),
            lease_takeovers: self.counters.lease_takeovers.load(Ordering::Relaxed),
            quarantined: self.counters.quarantined.load(Ordering::Relaxed),
            evicted_objects: self.counters.evicted_objects.load(Ordering::Relaxed),
            evicted_bytes: self.counters.evicted_bytes.load(Ordering::Relaxed),
            per_stage: self.counters.per_stage.lock().unwrap().clone(),
        }
    }

    fn count(&self, stage: &str, hit: bool) {
        // Attribute the outcome to the job's innermost open stage scope
        // (a no-op when no job context is armed).
        hic_obs::job::note_cache(hit);
        hic_obs::trace::instant(
            hic_obs::trace::Category::Batch,
            if hit { "cache.hit" } else { "cache.miss" },
            stage,
            0,
        );
        let reg = hic_obs::global();
        let mut per_stage = self.counters.per_stage.lock().unwrap();
        let entry = per_stage.entry(stage.to_string()).or_insert((0, 0));
        if hit {
            entry.0 += 1;
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            reg.counter("pipeline.store.hits").inc();
            reg.counter(&format!("pipeline.{stage}.hits")).inc();
        } else {
            entry.1 += 1;
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
            reg.counter("pipeline.store.misses").inc();
            reg.counter(&format!("pipeline.{stage}.misses")).inc();
        }
    }

    /// Load and verify the payload for `key`. Corrupt objects (bad
    /// header, key mismatch, truncated payload, checksum mismatch) are
    /// moved to `quarantine/` and reported as a miss.
    pub fn load(&self, key: StableHash) -> Option<String> {
        let path = self.object_path(key);
        let text = fs::read_to_string(&path).ok()?;
        match verify_object(key, &text) {
            Some(payload) => {
                self.touch(key);
                Some(payload.to_string())
            }
            None => {
                self.quarantine(key, &path);
                None
            }
        }
    }

    fn quarantine(&self, key: StableHash, path: &Path) {
        // Rename keeps the evidence. The destination is uniquified when
        // the base name is taken — a key corrupted twice must keep both
        // copies for post-mortems, not silently overwrite the first. If
        // even the rename fails (e.g. the file vanished concurrently)
        // just make sure the bad object is gone.
        let base = self.quarantine_path(key);
        let dst = if base.exists() {
            let hex = key.to_hex();
            (1u32..)
                .map(|n| self.root.join("quarantine").join(format!("{hex}.{n}.art")))
                .find(|p| !p.exists())
                .expect("some uniquified quarantine name is free")
        } else {
            base
        };
        if fs::rename(path, &dst).is_err() {
            let _ = fs::remove_file(path);
        }
        self.counters.quarantined.fetch_add(1, Ordering::Relaxed);
        hic_obs::global()
            .counter("pipeline.store.quarantined")
            .inc();
    }

    /// Atomically publish `payload` as the object for `key`.
    pub fn publish(
        &self,
        key: StableHash,
        stage: &str,
        payload: &str,
    ) -> Result<(), PipelineError> {
        let _stage = hic_obs::stage(hic_obs::trace::Category::Batch, "publish", stage);
        let path = self.object_path(key);
        let dir = path.parent().expect("object path has a parent");
        fs::create_dir_all(dir)?;
        let header = object_header(key, stage, payload);
        let tmp = dir.join(format!(
            ".tmp.{}.{}.{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed),
            key.to_hex()
        ));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(header.as_bytes())?;
            f.write_all(b"\n")?;
            f.write_all(payload.as_bytes())?;
            f.sync_all().ok();
        }
        fs::rename(&tmp, &path)?;
        self.touch(key);
        self.evict_to_cap();
        Ok(())
    }

    /// The canonical cached-stage entry point.
    ///
    /// * `read_cache = true`: try the store first (counting a hit/miss for
    ///   `stage`), compute on miss, publish the result.
    /// * `read_cache = false` (`--no-cache`): never read, always compute —
    ///   but still publish, so the cache warms for later runs.
    ///
    /// Identical concurrent calls (same `key`) are single-flighted: one
    /// caller computes and publishes, the rest block and deserialize the
    /// leader's payload. Across *processes*, the in-process leader runs
    /// the compute-lease protocol (see [`crate::lock`]): at most one
    /// process computes a key at a time, the others poll the lease and
    /// read the published object — so a fleet of `hic` processes sharing
    /// one cache dir still computes each artifact exactly once.
    pub fn get_or_compute<T, F>(
        &self,
        stage: &str,
        key: StableHash,
        read_cache: bool,
        compute: F,
    ) -> Result<T, PipelineError>
    where
        T: Serialize + serde::Deserialize,
        F: FnOnce() -> Result<T, PipelineError>,
    {
        if read_cache {
            if let Some(payload) = self.load(key) {
                match serde_json::from_str::<T>(&payload) {
                    Ok(v) => {
                        self.count(stage, true);
                        return Ok(v);
                    }
                    Err(_) => {
                        // Verified bytes that no longer deserialize mean a
                        // schema change the salt did not capture —
                        // quarantine and recompute.
                        self.quarantine(key, &self.object_path(key));
                    }
                }
            }
        }

        // Single-flight: first caller for this key leads, others wait.
        let (flight, leader) = {
            let mut map = self.inflight.lock().unwrap();
            match map.get(&key.0) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(Flight::default());
                    map.insert(key.0, Arc::clone(&f));
                    (f, true)
                }
            }
        };

        if !leader {
            self.counters
                .singleflight_waits
                .fetch_add(1, Ordering::Relaxed);
            hic_obs::global()
                .counter("pipeline.store.singleflight_waits")
                .inc();
            let mut slot = flight.slot.lock().unwrap();
            while slot.is_none() {
                slot = flight.done.wait(slot).unwrap();
            }
            return match slot.as_ref().expect("flight resolved") {
                Ok(payload) => {
                    self.count(stage, true);
                    serde_json::from_str(payload)
                        .map_err(|e| PipelineError::Json(format!("single-flight payload: {e}")))
                }
                Err(e) => Err(e.clone()),
            };
        }

        let outcome = self.lead_compute(stage, key, read_cache, compute);

        let (result, ret) = match outcome {
            Ok((value, payload, hit)) => {
                self.count(stage, hit);
                (Ok(payload), Ok(value))
            }
            Err(e) => {
                self.count(stage, false);
                (Err(e.clone()), Err(e))
            }
        };
        *flight.slot.lock().unwrap() = Some(result);
        flight.done.notify_all();
        self.inflight.lock().unwrap().remove(&key.0);
        ret
    }

    /// The flight leader's cross-process path: acquire the compute lease
    /// and run `compute`, or poll-then-read while another process holds
    /// it. Returns `(value, payload, was_cross_process_hit)`.
    fn lead_compute<T, F>(
        &self,
        stage: &str,
        key: StableHash,
        read_cache: bool,
        compute: F,
    ) -> Result<(T, String, bool), PipelineError>
    where
        T: Serialize + serde::Deserialize,
        F: FnOnce() -> Result<T, PipelineError>,
    {
        let run = |compute: F| -> Result<(T, String, bool), PipelineError> {
            let value = compute()?;
            let payload = serde_json::to_string(&value)
                .map_err(|e| PipelineError::Json(format!("serializing {stage} artifact: {e}")))?;
            self.publish(key, stage, &payload)?;
            Ok((value, payload, false))
        };
        if !read_cache {
            // --no-cache demands a fresh computation: no lease, no waiting.
            // Concurrent publishers are safe — publish is an atomic rename.
            return run(compute);
        }

        let lease_path = self.lease_path(key);
        let deadline = Instant::now() + self.lease.max_wait;
        let mut compute = Some(compute);
        let mut waiting = false;
        // Wall-clock spent blocked on another process's lease, reported
        // to the armed job context (if any). Stopped explicitly before
        // we compute ourselves so compute time never counts as waiting;
        // the Drop covers the wait-then-read-a-hit exits.
        struct LeaseWaitObs {
            begin: Option<Instant>,
        }
        impl LeaseWaitObs {
            fn start(&mut self) {
                self.begin.get_or_insert_with(Instant::now);
            }
            fn stop(&mut self) {
                if let Some(b) = self.begin.take() {
                    hic_obs::job::note_lease_wait(b.elapsed().as_nanos() as u64);
                }
            }
        }
        impl Drop for LeaseWaitObs {
            fn drop(&mut self) {
                self.stop();
            }
        }
        let mut wait_obs = LeaseWaitObs { begin: None };
        loop {
            // Poll-then-read: any process (or a previous iteration's
            // holder) may have published the object by now. A file that
            // vanishes mid-read (evicted elsewhere) or fails verification
            // is a miss, never an error — we fall through and compute.
            if let Some(payload) = self.load(key) {
                match serde_json::from_str::<T>(&payload) {
                    Ok(v) => return Ok((v, payload, true)),
                    Err(_) => {
                        // Verified bytes that no longer deserialize: a
                        // schema change the salt did not capture.
                        self.quarantine(key, &self.object_path(key));
                    }
                }
            }
            match Lease::try_acquire(&lease_path, self.lease.ttl) {
                Ok(Some(lease)) => {
                    wait_obs.stop();
                    // Double-check under the lease: a publish may have
                    // landed between the miss above and winning it.
                    if let Some(payload) = self.load(key) {
                        if let Ok(v) = serde_json::from_str::<T>(&payload) {
                            lease.release();
                            return Ok((v, payload, true));
                        }
                        self.quarantine(key, &self.object_path(key));
                    }
                    let out = run(compute.take().expect("compute consumed once"));
                    lease.release();
                    return out;
                }
                Ok(None) => {
                    // Another process is computing this key.
                    wait_obs.start();
                    if !waiting {
                        waiting = true;
                        self.counters.lease_waits.fetch_add(1, Ordering::Relaxed);
                        hic_obs::global()
                            .counter("pipeline.store.lease_waits")
                            .inc();
                    }
                    if takeover_if_stale(&lease_path, self.lease.ttl) {
                        // Dead owner's lease removed; retry immediately.
                        self.counters
                            .lease_takeovers
                            .fetch_add(1, Ordering::Relaxed);
                        hic_obs::global()
                            .counter("pipeline.store.lease_takeovers")
                            .inc();
                        continue;
                    }
                    if Instant::now() >= deadline {
                        // Liveness over dedup: a lease held this long is
                        // pathological — barge and compute without it.
                        wait_obs.stop();
                        return run(compute.take().expect("compute consumed once"));
                    }
                    std::thread::sleep(self.lease.poll);
                }
                Err(_) => {
                    // Lease file unusable (e.g. directory races). Dedup
                    // is an optimization, correctness is the atomic
                    // publish — compute without coordination.
                    wait_obs.stop();
                    return run(compute.take().expect("compute consumed once"));
                }
            }
        }
    }

    /// The OS-lock file guarding `access.log` rewrites. A dedicated path
    /// (never renamed-over) so the lock survives the compaction rename.
    fn log_lock_path(&self) -> PathBuf {
        self.root.join(".log.lock")
    }

    fn touch(&self, key: StableHash) {
        let _guard = self.log_lock.lock().unwrap();
        let path = self.root.join("access.log");
        // Appenders hold the cross-process lock *shared*: O_APPEND writes
        // interleave safely with each other, but must never land during a
        // compaction rewrite (exclusive holder) — the rewrite's
        // read→rename window would silently drop them.
        let cross = FsLock::shared(&self.log_lock_path()).ok();
        if let Ok(mut f) = fs::OpenOptions::new().create(true).append(true).open(&path) {
            // One write_all per line: `writeln!` issues the key and the
            // newline as separate syscalls, and two O_APPEND appenders
            // interleaving between them would fuse their keys onto one
            // mangled line.
            let line = format!("{}\n", key.to_hex());
            let _ = f.write_all(line.as_bytes());
            let oversize = f.metadata().map(|m| m.len()).unwrap_or(0) > self.log_max_bytes;
            drop(f);
            // Release the shared lock before compacting: the same process
            // upgrading shared→exclusive on two handles would deadlock
            // against itself.
            drop(cross);
            if oversize {
                self.compact_access_log(&path);
            }
        }
    }

    /// Rewrite `access.log` in place (caller holds `log_lock`): keep each
    /// key's *last* occurrence only — which preserves exactly the relative
    /// recency order [`ArtifactStore::evict_to_cap`] derives from the log —
    /// then drop oldest entries until the file fits half the cap, so
    /// appends have headroom before the next compaction. Published via
    /// tmp-file + rename like objects: readers never see a torn log.
    ///
    /// Cross-process: the rewrite holds the log lock *exclusively*, so
    /// no appender (they hold it shared) can write between our read and
    /// our rename — the race that used to lose appends. If another
    /// process is already compacting we simply skip; it bounds the log
    /// for everyone.
    fn compact_access_log(&self, path: &Path) {
        let _excl = match FsLock::try_exclusive(&self.log_lock_path()) {
            Ok(Some(l)) => l,
            _ => return,
        };
        let Ok(text) = fs::read_to_string(path) else {
            return;
        };
        let mut last: HashMap<&str, usize> = HashMap::new();
        for (i, line) in text.lines().enumerate() {
            let t = line.trim();
            if StableHash::from_hex(t).is_some() {
                last.insert(t, i);
            }
        }
        let mut keep: Vec<(usize, &str)> = last.into_iter().map(|(k, i)| (i, k)).collect();
        keep.sort_unstable();
        let target = (self.log_max_bytes / 2) as usize;
        let mut size: usize = keep.iter().map(|(_, k)| k.len() + 1).sum();
        let mut start = 0;
        while size > target && start < keep.len() {
            size -= keep[start].1.len() + 1;
            start += 1;
        }
        let mut out = String::with_capacity(size);
        for (_, k) in &keep[start..] {
            out.push_str(k);
            out.push('\n');
        }
        let tmp = path.with_extension("log.tmp");
        if fs::write(&tmp, &out).is_ok() {
            let _ = fs::rename(&tmp, path);
        }
    }

    /// Every object currently in the store as `(key, path, bytes)`.
    fn scan_objects(&self) -> Vec<(StableHash, PathBuf, u64)> {
        let mut out = Vec::new();
        let Ok(fans) = fs::read_dir(self.root.join("objects")) else {
            return out;
        };
        for fan in fans.flatten() {
            let Ok(entries) = fs::read_dir(fan.path()) else {
                continue;
            };
            for e in entries.flatten() {
                let path = e.path();
                let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                    continue;
                };
                let Some(hex) = name.strip_suffix(".art") else {
                    continue; // skips .tmp.* leftovers too
                };
                let Some(key) = StableHash::from_hex(hex) else {
                    continue;
                };
                let bytes = e.metadata().map(|m| m.len()).unwrap_or(0);
                out.push((key, path, bytes));
            }
        }
        out.sort_by_key(|(k, _, _)| *k);
        out
    }

    /// Total bytes of stored objects.
    pub fn total_bytes(&self) -> u64 {
        self.scan_objects().iter().map(|(_, _, b)| b).sum()
    }

    /// Number of stored objects.
    pub fn object_count(&self) -> usize {
        self.scan_objects().len()
    }

    /// Delete least-recently-used objects until the store fits the cap.
    ///
    /// Cross-process: at most one evictor at a time, elected by try-lock
    /// on `.evict.lock`. Losers return immediately — the winner is
    /// already driving the store under the cap, and every publish
    /// re-checks, so a momentarily-skipped eviction is retried by the
    /// next writer.
    fn evict_to_cap(&self) {
        let Some(cap) = self.max_bytes else { return };
        let _election = match FsLock::try_exclusive(&self.root.join(".evict.lock")) {
            Ok(Some(l)) => l,
            _ => return,
        };
        let objects = self.scan_objects();
        let mut total: u64 = objects.iter().map(|(_, _, b)| b).sum();
        if total <= cap {
            return;
        }
        // Recency from access.log: later lines are more recent; objects
        // never logged (log lost or truncated) rank oldest.
        let recency: HashMap<u128, usize> = {
            let _guard = self.log_lock.lock().unwrap();
            fs::read_to_string(self.root.join("access.log"))
                .map(|text| {
                    text.lines()
                        .enumerate()
                        .filter_map(|(i, l)| StableHash::from_hex(l.trim()).map(|k| (k.0, i)))
                        .collect()
                })
                .unwrap_or_default()
        };
        let mut ordered = objects;
        ordered.sort_by_key(|(k, _, _)| (recency.get(&k.0).copied().unwrap_or(0), *k));
        let reg = hic_obs::global();
        for (_, path, bytes) in ordered {
            if total <= cap {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(bytes);
                self.counters
                    .evicted_objects
                    .fetch_add(1, Ordering::Relaxed);
                self.counters
                    .evicted_bytes
                    .fetch_add(bytes, Ordering::Relaxed);
                reg.counter("pipeline.store.evicted_objects").inc();
                reg.counter("pipeline.store.evicted_bytes").add(bytes);
            }
        }
    }
}

fn object_header(key: StableHash, stage: &str, payload: &str) -> String {
    format!(
        "{{\"schema\":\"{STORE_SCHEMA}\",\"stage\":\"{stage}\",\"key\":\"{}\",\"checksum\":\"{}\",\"bytes\":{}}}",
        key.to_hex(),
        stable_hash_bytes(payload.as_bytes()).to_hex(),
        payload.len()
    )
}

/// Verify an object file's text against `key`; the payload on success.
fn verify_object(key: StableHash, text: &str) -> Option<&str> {
    let (header, payload) = text.split_once('\n')?;
    let h = serde_json::parse(header).ok()?;
    if h.get("schema")?.as_str()? != STORE_SCHEMA {
        return None;
    }
    if h.get("key")?.as_str()? != key.to_hex() {
        return None;
    }
    if h.get("bytes")?.as_u64()? != payload.len() as u64 {
        return None;
    }
    if h.get("checksum")?.as_str()? != stable_hash_bytes(payload.as_bytes()).to_hex() {
        return None;
    }
    Some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(max_bytes: Option<u64>) -> ArtifactStore {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "hic-store-unit-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        ArtifactStore::open(StoreConfig {
            root: dir,
            max_bytes,
            ..StoreConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn publish_then_load_round_trips_and_logs_a_hit() {
        let s = temp_store(None);
        let key = stage_key("unit", &[stable_hash_bytes(b"x")]);
        s.publish(key, "unit", "{\"v\":1}").unwrap();
        assert_eq!(s.load(key).as_deref(), Some("{\"v\":1}"));
        assert_eq!(s.object_count(), 1);
        let _ = fs::remove_dir_all(s.root());
    }

    #[test]
    fn verify_rejects_tampered_payload_and_header() {
        let key = stage_key("unit", &[]);
        let payload = "{\"v\":2}";
        let good = format!("{}\n{}", object_header(key, "unit", payload), payload);
        assert_eq!(verify_object(key, &good), Some(payload));
        let flipped = good.replace("{\"v\":2}", "{\"v\":3}");
        assert_eq!(verify_object(key, &flipped), None);
        let wrong_key = stage_key("other", &[]);
        assert_eq!(verify_object(wrong_key, &good), None);
        assert_eq!(verify_object(key, "not a store file"), None);
    }

    #[test]
    fn corrupt_object_is_quarantined_on_load() {
        let s = temp_store(None);
        let key = stage_key("unit", &[stable_hash_bytes(b"corrupt")]);
        s.publish(key, "unit", "{\"v\":1}").unwrap();
        // Flip payload bytes behind the store's back.
        let path = s.object_path(key);
        let text = fs::read_to_string(&path)
            .unwrap()
            .replace("\"v\":1", "\"v\":9");
        fs::write(&path, text).unwrap();
        assert_eq!(s.load(key), None);
        assert!(!path.exists(), "corrupt object must leave objects/");
        assert!(s.quarantine_path(key).exists(), "and land in quarantine/");
        assert_eq!(s.stats().quarantined, 1);
        let _ = fs::remove_dir_all(s.root());
    }

    #[test]
    fn lru_eviction_respects_the_byte_cap_and_recency() {
        let s = temp_store(Some(400));
        let keys: Vec<StableHash> = (0u8..4)
            .map(|i| stage_key("unit", &[stable_hash_bytes(&[i])]))
            .collect();
        let payload = "x".repeat(120); // object ≈ 120 B payload + header
        for (i, k) in keys.iter().enumerate() {
            s.publish(*k, "unit", &format!("\"{}{}\"", payload, i))
                .unwrap();
        }
        // Cap forces evictions; the most recently published keys survive.
        assert!(s.total_bytes() <= 400, "total {}", s.total_bytes());
        assert!(s.stats().evicted_objects >= 1);
        assert!(
            s.load(keys[3]).is_some(),
            "most recent object must survive LRU"
        );
        let _ = fs::remove_dir_all(s.root());
    }

    #[test]
    fn access_log_compacts_at_the_size_cap() {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "hic-store-logcap-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        // Cap of 10 lines (33 bytes each: 32 hex digits + newline).
        let s = ArtifactStore::open(StoreConfig {
            root: dir,
            max_bytes: None,
            log_max_bytes: 330,
            ..StoreConfig::default()
        })
        .unwrap();
        let a = stage_key("unit", &[stable_hash_bytes(b"a")]);
        let b = stage_key("unit", &[stable_hash_bytes(b"b")]);
        s.publish(a, "unit", "\"aaaa\"").unwrap();
        s.publish(b, "unit", "\"bbbb\"").unwrap();
        // Hammer the log far past the cap with alternating touches.
        for _ in 0..50 {
            assert!(s.load(a).is_some());
            assert!(s.load(b).is_some());
        }
        let log_path = s.root().join("access.log");
        let len = fs::metadata(&log_path).unwrap().len();
        assert!(len <= 330, "log stayed bounded, got {len} bytes");
        // Compaction keeps last occurrences in recency order: `b` was
        // touched after `a` most recently.
        let text = fs::read_to_string(&log_path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let pa = lines.iter().rposition(|&l| l == a.to_hex());
        let pb = lines.iter().rposition(|&l| l == b.to_hex());
        assert!(pa.is_some() && pb.is_some(), "both keys survive: {text}");
        assert!(pb > pa, "most recent touch stays last");
        let _ = fs::remove_dir_all(s.root());
    }

    #[test]
    fn open_sweeps_age_stale_temp_files_but_keeps_fresh_ones() {
        let s = temp_store(None);
        let key = stage_key("unit", &[stable_hash_bytes(b"sweep")]);
        s.publish(key, "unit", "{\"v\":1}").unwrap();
        // Fabricate crash leftovers next to the object: an orphaned
        // writer temp and a dead lease.
        let dir = s.object_path(key).parent().unwrap().to_path_buf();
        let tmp = dir.join(".tmp.99999.0.deadbeef");
        let lease = dir.join("deadlease.lease");
        fs::write(&tmp, "half-written").unwrap();
        fs::write(&lease, "pid 99999 start_unix_ms 0\n").unwrap();
        let root = s.root().to_path_buf();

        // Fresh leftovers survive an open with the default (1 h) age.
        let s2 = ArtifactStore::open(StoreConfig::at(&root)).unwrap();
        assert!(tmp.exists(), "fresh temp must not be swept");
        assert!(lease.exists(), "fresh lease must not be swept");
        drop(s2);

        // With a zero age threshold everything stale is reclaimed — and
        // real objects are untouched.
        let s3 = ArtifactStore::open(StoreConfig {
            root: root.clone(),
            tmp_max_age: Duration::ZERO,
            ..StoreConfig::default()
        })
        .unwrap();
        assert!(!tmp.exists(), "aged temp swept on open");
        assert!(!lease.exists(), "aged lease swept on open");
        assert!(s3.load(key).is_some(), "objects survive the sweep");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn repeated_quarantine_keeps_every_piece_of_evidence() {
        let s = temp_store(None);
        let key = stage_key("unit", &[stable_hash_bytes(b"evidence")]);
        for round in 0..3 {
            s.publish(key, "unit", "{\"v\":1}").unwrap();
            let path = s.object_path(key);
            let text = fs::read_to_string(&path)
                .unwrap()
                .replace("\"v\":1", &format!("\"v\":{}", 90 + round));
            fs::write(&path, text).unwrap();
            assert_eq!(s.load(key), None);
        }
        let files = s.quarantined_files(key);
        assert_eq!(
            files.len(),
            3,
            "each corruption must keep its own evidence file: {files:?}"
        );
        assert!(s.quarantine_path(key).exists(), "base name used first");
        assert_eq!(s.stats().quarantined, 3);
        let _ = fs::remove_dir_all(s.root());
    }

    #[test]
    fn vanished_object_degrades_to_miss_and_recompute() {
        let s = temp_store(None);
        let key = stage_key("unit", &[stable_hash_bytes(b"vanish")]);
        let v: u64 = s.get_or_compute("unit", key, true, || Ok(7u64)).unwrap();
        assert_eq!(v, 7);
        // Another process evicts the object out from under us.
        fs::remove_file(s.object_path(key)).unwrap();
        let v: u64 = s.get_or_compute("unit", key, true, || Ok(8u64)).unwrap();
        assert_eq!(v, 8, "vanished object must recompute, not error");
        assert_eq!(s.stats().misses, 2);
        let _ = fs::remove_dir_all(s.root());
    }

    #[test]
    fn lease_serializes_two_store_handles_like_two_processes() {
        // Two ArtifactStore instances on one root share no in-process
        // state — exactly the cross-process topology. The lease must
        // make the second handle wait and then *read* the first's
        // publish instead of recomputing.
        let s1 = temp_store(None);
        let root = s1.root().to_path_buf();
        let s2 = ArtifactStore::open(StoreConfig::at(&root)).unwrap();
        let key = stage_key("unit", &[stable_hash_bytes(b"xproc")]);
        let computes = Arc::new(AtomicU64::new(0));

        std::thread::scope(|scope| {
            let c1 = Arc::clone(&computes);
            let t1 = scope.spawn(move || {
                s1.get_or_compute("unit", key, true, || {
                    c1.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(150));
                    Ok(41u64)
                })
            });
            // Let the first handle win the lease.
            std::thread::sleep(Duration::from_millis(40));
            let c2 = Arc::clone(&computes);
            let t2 = scope.spawn(move || {
                let out = s2.get_or_compute("unit", key, true, || {
                    c2.fetch_add(1, Ordering::SeqCst);
                    Ok(41u64)
                });
                (out, s2.stats())
            });
            assert_eq!(t1.join().unwrap().unwrap(), 41);
            let (out, stats2) = t2.join().unwrap();
            assert_eq!(out.unwrap(), 41);
            assert_eq!(stats2.lease_waits, 1, "second handle waited the lease");
            assert_eq!(stats2.hits, 1, "…and was served by the publish");
        });
        assert_eq!(
            computes.load(Ordering::SeqCst),
            1,
            "exactly one compute across the two handles"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn stale_lease_from_a_dead_process_is_taken_over() {
        let s = temp_store(None);
        let key = stage_key("unit", &[stable_hash_bytes(b"takeover")]);
        // A crashed process left its lease behind: no heartbeat, old mtime.
        let lease = s.lease_path(key);
        fs::create_dir_all(lease.parent().unwrap()).unwrap();
        fs::write(&lease, "pid 0 start_unix_ms 0\n").unwrap();
        // Two minutes old: far past the fast ttl below (stale), but young
        // enough that the open-time sweep (default 1 h) leaves it for the
        // takeover path to handle.
        let f = fs::OpenOptions::new().write(true).open(&lease).unwrap();
        f.set_modified(SystemTime::now() - Duration::from_secs(120))
            .unwrap();
        drop(f);

        let root = s.root().to_path_buf();
        let fast = ArtifactStore::open(StoreConfig {
            root: root.clone(),
            lease: LeaseConfig {
                ttl: Duration::from_millis(50),
                poll: Duration::from_millis(5),
                max_wait: Duration::from_secs(30),
            },
            ..StoreConfig::default()
        })
        .unwrap();
        let v: u64 = fast
            .get_or_compute("unit", key, true, || Ok(13u64))
            .unwrap();
        assert_eq!(v, 13);
        let stats = fast.stats();
        assert_eq!(stats.lease_takeovers, 1, "stale lease must be reclaimed");
        assert!(!lease.exists(), "…and must be gone afterwards");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn reading_refreshes_recency() {
        let s = temp_store(None);
        let a = stage_key("unit", &[stable_hash_bytes(b"a")]);
        let b = stage_key("unit", &[stable_hash_bytes(b"b")]);
        s.publish(a, "unit", "\"aaaa\"").unwrap();
        s.publish(b, "unit", "\"bbbb\"").unwrap();
        // Touch `a` so `b` becomes the LRU victim.
        assert!(s.load(a).is_some());
        let log = fs::read_to_string(s.root().join("access.log")).unwrap();
        let last = log.lines().last().unwrap();
        assert_eq!(last, a.to_hex(), "read must append to the access log");
        let _ = fs::remove_dir_all(s.root());
    }
}
