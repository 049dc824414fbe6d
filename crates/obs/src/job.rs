//! Per-job causal context: the seam that turns aggregate metrics into
//! per-request timelines.
//!
//! A *job* here is one unit of externally-submitted work (a `hic serve`
//! request). [`start`] arms a thread-scoped [`JobCtx`] carrying the
//! daemon-unique job id and a shared stage collector; while armed,
//! every [`crate::stage`] scope appends a [`StageObs`] (duration,
//! nesting depth, cache outcome, lease wait) to the job, and stamps the
//! job id on the flight-recorder slice it writes — so the trace ring
//! and the per-job timeline describe the same spans and can be
//! cross-checked.
//!
//! The context hops threads explicitly: a work-stealing pool captures
//! [`current`] when a task is enqueued and re-arms it on the worker
//! with [`adopt`] — stage scopes recorded on stolen threads land in the
//! same collector (the stage vector is behind an `Arc<Mutex<_>>`;
//! stages are cold-path, milliseconds each, so the lock is noise).
//!
//! When nothing is armed every entry point is one thread-local read
//! and a branch — the pipeline stays free to call these hooks
//! unconditionally.

use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Cache outcome of one stage scope (artifact-store perspective).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheOutcome {
    /// The stage never consulted the artifact store.
    #[default]
    Uncached,
    /// Served from the store (disk read or single-flight piggyback).
    Hit,
    /// Computed and published by this job.
    Miss,
}

impl CacheOutcome {
    /// Stable wire name (`none|hit|miss`).
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Uncached => "none",
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
        }
    }
}

/// One recorded stage scope of a job.
#[derive(Debug, Clone)]
pub struct StageObs {
    /// Stage name (`profile`, `design`, `cosim`, `noc`, …).
    pub name: &'static str,
    /// Dynamic label (app/source/bits), possibly empty.
    pub detail: String,
    /// Nesting depth on the recording thread: 0 = top-level. Summing
    /// depth-0 durations approximates the job's execution time without
    /// double-counting nested scopes.
    pub depth: u32,
    /// Start offset from [`start`]/[`adopt`] arming, nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration of the scope, nanoseconds.
    pub dur_ns: u64,
    /// Artifact-store outcome observed inside the scope.
    pub cache: CacheOutcome,
    /// Time spent waiting on a cross-process lease inside the scope.
    pub lease_wait_ns: u64,
}

/// Everything observed about one job: the stages, in completion order.
#[derive(Debug, Clone, Default)]
pub struct JobObs {
    /// The job id the context was armed with.
    pub id: u64,
    /// Completed stage scopes (inner scopes complete before outer).
    pub stages: Vec<StageObs>,
}

#[derive(Debug)]
struct Shared {
    id: u64,
    epoch: Instant,
    stages: Mutex<Vec<StageObs>>,
}

/// A cloneable handle to an armed job context — capture with
/// [`current`] on the submitting thread, re-arm with [`adopt`] on the
/// executing thread.
#[derive(Debug, Clone)]
pub struct JobCtx {
    shared: Arc<Shared>,
}

impl JobCtx {
    /// The job id this context carries.
    pub fn id(&self) -> u64 {
        self.shared.id
    }
}

thread_local! {
    static CURRENT: RefCell<Option<JobCtx>> = const { RefCell::new(None) };
    /// Per-thread stack of open stage scopes (mutable notes land on the
    /// innermost one).
    static OPEN: RefCell<Vec<OpenStage>> = const { RefCell::new(Vec::new()) };
}

#[derive(Debug, Default)]
struct OpenStage {
    cache: CacheOutcome,
    lease_wait_ns: u64,
}

/// Arm a fresh context for `id` on this thread. Restores whatever was
/// armed before when the guard drops; [`JobGuard::finish`] additionally
/// returns the collected [`JobObs`].
pub fn start(id: u64) -> JobGuard {
    let ctx = JobCtx {
        shared: Arc::new(Shared {
            id,
            epoch: Instant::now(),
            stages: Mutex::new(Vec::new()),
        }),
    };
    install(ctx)
}

/// Re-arm a captured context on this thread (work-stealing hop).
pub fn adopt(ctx: JobCtx) -> JobGuard {
    install(ctx)
}

fn install(ctx: JobCtx) -> JobGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(ctx.clone()));
    JobGuard { ctx, prev }
}

/// The context armed on this thread, if any (cheap: one TLS read).
pub fn current() -> Option<JobCtx> {
    CURRENT.with(|c| c.borrow().clone())
}

/// The armed job id, if any — what the log layer stamps on records.
pub fn current_id() -> Option<u64> {
    CURRENT.with(|c| c.borrow().as_ref().map(|ctx| ctx.shared.id))
}

/// RAII for an armed context; dropping restores the previous one.
#[derive(Debug)]
pub struct JobGuard {
    ctx: JobCtx,
    prev: Option<JobCtx>,
}

impl JobGuard {
    /// Disarm and return everything collected so far. Call on the
    /// originating thread after all workers that adopted the context
    /// have finished (stages recorded after `finish` are lost).
    pub fn finish(self) -> JobObs {
        let id = self.ctx.shared.id;
        let stages = std::mem::take(&mut *self.ctx.shared.stages.lock().unwrap());
        drop(self); // restores the previous context
        JobObs { id, stages }
    }
}

impl Drop for JobGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// Push an open stage on this thread's stack and return its depth
/// (0 = top level). Called by [`crate::stage`] when a job is armed.
pub(crate) fn open_stage() -> u32 {
    OPEN.with(|o| {
        let mut o = o.borrow_mut();
        o.push(OpenStage::default());
        o.len() as u32 - 1
    })
}

/// Pop the innermost open stage and append it, with the notes made
/// inside it, to `ctx`'s timeline.
pub(crate) fn close_stage(
    ctx: &JobCtx,
    name: &'static str,
    detail: String,
    depth: u32,
    started: Instant,
    dur: Duration,
) {
    let open = OPEN.with(|o| o.borrow_mut().pop()).unwrap_or_default();
    ctx.shared.stages.lock().unwrap().push(StageObs {
        name,
        detail,
        depth,
        start_ns: started.duration_since(ctx.shared.epoch).as_nanos() as u64,
        dur_ns: dur.as_nanos() as u64,
        cache: open.cache,
        lease_wait_ns: open.lease_wait_ns,
    });
}

/// Record the artifact-store outcome on the innermost open stage.
pub fn note_cache(hit: bool) {
    OPEN.with(|o| {
        if let Some(top) = o.borrow_mut().last_mut() {
            top.cache = if hit {
                CacheOutcome::Hit
            } else {
                CacheOutcome::Miss
            };
        }
    });
}

/// Add cross-process lease wait time to the innermost open stage.
pub fn note_lease_wait(ns: u64) {
    OPEN.with(|o| {
        if let Some(top) = o.borrow_mut().last_mut() {
            top.lease_wait_ns += ns;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Category;

    /// A stage scope in a category the obs unit tests never trace.
    fn stage(name: &'static str, detail: &str) -> crate::Stage {
        crate::stage(Category::Batch, name, detail)
    }

    #[test]
    fn disarmed_hooks_are_inert() {
        assert!(current().is_none());
        assert_eq!(current_id(), None);
        {
            let _s = stage("obs.test.disarmed", "");
            assert!(OPEN.with(|o| o.borrow().is_empty()), "no stage stack");
        }
        note_cache(true); // no-op, must not panic
        note_lease_wait(5);
    }

    #[test]
    fn stages_collect_with_depth_cache_and_lease() {
        let guard = start(42);
        assert_eq!(current_id(), Some(42));
        {
            let _outer = stage("cosim", "jpeg");
            {
                let _inner = stage("noc", "");
                note_lease_wait(100);
            }
            note_cache(false);
            note_lease_wait(7);
        }
        let obs = guard.finish();
        assert_eq!(obs.id, 42);
        assert_eq!(obs.stages.len(), 2);
        // Inner completes first.
        let inner = &obs.stages[0];
        assert_eq!((inner.name, inner.depth), ("noc", 1));
        assert_eq!(inner.lease_wait_ns, 100);
        assert_eq!(inner.cache, CacheOutcome::Uncached);
        let outer = &obs.stages[1];
        assert_eq!((outer.name, outer.depth), ("cosim", 0));
        assert_eq!(outer.detail, "jpeg");
        assert_eq!(outer.cache, CacheOutcome::Miss);
        assert_eq!(outer.lease_wait_ns, 7);
        assert!(outer.dur_ns >= inner.dur_ns);
        assert!(current().is_none(), "finish disarms");
    }

    #[test]
    fn adopt_shares_the_collector_across_threads() {
        let guard = start(7);
        let ctx = current().expect("armed");
        std::thread::spawn(move || {
            let _g = adopt(ctx);
            assert_eq!(current_id(), Some(7));
            let _s = stage("design", "stolen");
        })
        .join()
        .unwrap();
        let obs = guard.finish();
        assert_eq!(obs.stages.len(), 1);
        assert_eq!(obs.stages[0].detail, "stolen");
        assert_eq!(obs.stages[0].depth, 0, "fresh stack on the worker");
    }

    #[test]
    fn guard_restores_the_previous_context() {
        let outer = start(1);
        {
            let inner = start(2);
            assert_eq!(current_id(), Some(2));
            let obs = inner.finish();
            assert_eq!(obs.id, 2);
        }
        assert_eq!(current_id(), Some(1));
        drop(outer);
        assert_eq!(current_id(), None);
    }
}
