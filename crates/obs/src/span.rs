//! The stage guard: the one scope timer every pipeline layer uses.
//!
//! [`stage`] opens a scope; dropping the returned [`Stage`] records it,
//! from one clock reading, in up to three places:
//!
//! * always: one sample of the wall time, in nanoseconds, into the
//!   global histogram `"<name>.ns"`;
//! * when `category` is traced: one [`Phase::Complete`] flight-recorder
//!   slice on this thread's lane, whose `id` is the armed job id (0 when
//!   no job is armed);
//! * when a job context is armed ([`crate::job`]): one [`StageObs`] in
//!   the job's timeline, carrying the nesting depth and the cache and
//!   lease notes made inside the scope.
//!
//! Recording on drop keeps every exit balanced — `?`, early returns and
//! unwinding included — so call sites need no success-only bookkeeping.
//! A nested stage must not reuse its parent's name, or one histogram
//! would mix a scope with its own child.
//!
//! [`StageObs`]: crate::job::StageObs

use std::fmt::Display;
use std::sync::Arc;
use std::time::Instant;

use crate::job::{self, JobCtx};
use crate::metrics::Histogram;
use crate::trace::{self, Category, Detail, Event, Phase};

/// An open stage scope (see [`stage`]); records on drop.
#[must_use = "a stage records on drop; binding it to _ ends it immediately"]
#[derive(Debug)]
pub struct Stage {
    cat: Category,
    name: &'static str,
    detail: String,
    /// `"<name>.ns"` in the global registry, resolved up front so the
    /// drop takes no registry lock.
    hist: Arc<Histogram>,
    started: Instant,
    /// Trace-clock start, set only when `cat` is traced.
    trace_us: Option<u64>,
    /// The armed job and this scope's depth on the thread's stage stack.
    job: Option<(JobCtx, u32)>,
}

/// Open a stage scope named `name` in trace category `cat`. `detail`
/// (app, source, knob bits) is formatted only when a trace event or a
/// job timeline entry will record it, so the common untraced, unarmed
/// path costs a histogram lookup and a clock read here and one
/// histogram sample on drop.
///
/// # Panics
/// If `"<name>.ns"` is already registered as a counter or gauge.
pub fn stage(cat: Category, name: &'static str, detail: impl Display) -> Stage {
    let trace_us = trace::enabled(cat).then(trace::now_us);
    let job = job::current().map(|ctx| (ctx, job::open_stage()));
    let detail = if trace_us.is_some() || job.is_some() {
        detail.to_string()
    } else {
        String::new()
    };
    Stage {
        cat,
        name,
        detail,
        hist: crate::global().histogram(&format!("{name}.ns")),
        started: Instant::now(),
        trace_us,
        job,
    }
}

impl Drop for Stage {
    fn drop(&mut self) {
        let dur = self.started.elapsed();
        self.hist.record(dur.as_nanos() as u64);
        if let Some(ts) = self.trace_us {
            let rec = trace::recorder();
            rec.record(Event {
                ts,
                dur: rec.now_us().saturating_sub(ts),
                id: self.job.as_ref().map_or(0, |(ctx, _)| ctx.id()),
                arg: 0,
                name: self.name,
                detail: Detail::of(&self.detail),
                phase: Phase::Complete,
                cat: self.cat,
                tid: rec.tid(),
            });
        }
        if let Some((ctx, depth)) = self.job.take() {
            let detail = std::mem::take(&mut self.detail);
            job::close_stage(&ctx, self.name, detail, depth, self.started, dur);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes the tests that enable categories on, or drain, the
    /// process-global tracer.
    static GLOBAL_TRACE: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        GLOBAL_TRACE.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Drain the global tracer, keeping only this test's events.
    fn events_named(names: &[&str]) -> Vec<Event> {
        trace::global()
            .take()
            .events
            .into_iter()
            .filter(|e| names.contains(&e.name))
            .collect()
    }

    fn samples(name: &str) -> u64 {
        crate::global().histogram(name).count()
    }

    #[test]
    fn one_guard_records_one_event_one_sample_and_one_stage() {
        let _l = lock();
        trace::global().set_enabled(Category::Sim, true);
        let job = job::start(9);
        {
            let _s = stage(Category::Sim, "obs.test.one", format_args!("app#{}", 15));
        }
        let obs = job.finish();
        trace::global().set_enabled(Category::Sim, false);

        let evs = events_named(&["obs.test.one"]);
        assert_eq!(evs.len(), 1, "{evs:?}");
        assert_eq!(evs[0].phase, Phase::Complete);
        assert_eq!(evs[0].cat, Category::Sim);
        assert_eq!(evs[0].id, 9, "the event carries the armed job id");
        assert_eq!(evs[0].detail.as_str(), "app#15");
        assert_eq!(samples("obs.test.one.ns"), 1);
        assert_eq!(obs.stages.len(), 1);
        assert_eq!(obs.stages[0].name, "obs.test.one");
        assert_eq!(obs.stages[0].detail, "app#15");
        assert_eq!(obs.stages[0].depth, 0);
    }

    #[test]
    fn a_scope_left_through_an_error_still_records_once() {
        fn failing() -> Result<(), String> {
            let _s = stage(Category::Sim, "obs.test.err", "");
            Err::<(), _>("bail".to_string())?;
            unreachable!("the ? above returns")
        }
        let _l = lock();
        trace::global().set_enabled(Category::Sim, true);
        let job = job::start(3);
        assert!(failing().is_err());
        let obs = job.finish();
        trace::global().set_enabled(Category::Sim, false);

        assert_eq!(events_named(&["obs.test.err"]).len(), 1);
        assert_eq!(samples("obs.test.err.ns"), 1);
        assert_eq!(obs.stages.len(), 1);
        assert_eq!(obs.stages[0].name, "obs.test.err");
    }

    #[test]
    fn nested_guards_keep_depth_and_the_top_level_sum_does_not_double_count() {
        let _l = lock();
        trace::global().set_enabled(Category::Design, true);
        let job = job::start(5);
        {
            let _outer = stage(Category::Design, "obs.test.outer", "");
            {
                let _inner = stage(Category::Design, "obs.test.inner", "");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            job::note_cache(true);
        }
        let obs = job.finish();
        trace::global().set_enabled(Category::Design, false);

        let names: Vec<(&str, u32)> = obs.stages.iter().map(|s| (s.name, s.depth)).collect();
        assert_eq!(names, vec![("obs.test.inner", 1), ("obs.test.outer", 0)]);
        let (inner, outer) = (&obs.stages[0], &obs.stages[1]);
        assert_eq!(outer.cache, job::CacheOutcome::Hit);
        assert_eq!(inner.cache, job::CacheOutcome::Uncached);
        let top: u64 = obs
            .stages
            .iter()
            .filter(|s| s.depth == 0)
            .map(|s| s.dur_ns)
            .sum();
        assert_eq!(top, outer.dur_ns, "only the outer scope counts at depth 0");
        assert!(inner.dur_ns <= outer.dur_ns);

        // The trace slices nest the same way on one lane.
        let evs = events_named(&["obs.test.outer", "obs.test.inner"]);
        assert_eq!(evs.len(), 2, "{evs:?}");
        let outer_ev = evs.iter().find(|e| e.name == "obs.test.outer").unwrap();
        let inner_ev = evs.iter().find(|e| e.name == "obs.test.inner").unwrap();
        assert_eq!(outer_ev.tid, inner_ev.tid);
        assert!(outer_ev.ts <= inner_ev.ts);
        assert!(inner_ev.ts + inner_ev.dur <= outer_ev.ts + outer_ev.dur);
        assert_eq!(samples("obs.test.outer.ns"), 1);
        assert_eq!(samples("obs.test.inner.ns"), 1);
    }

    #[test]
    fn an_untraced_unarmed_guard_records_only_its_histogram_sample() {
        let _l = lock();
        assert!(job::current().is_none());
        assert!(!trace::enabled(Category::Bus));
        let formatted = std::cell::Cell::new(false);
        struct Probe<'a>(&'a std::cell::Cell<bool>);
        impl Display for Probe<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.0.set(true);
                f.write_str("probe")
            }
        }
        {
            let _s = stage(Category::Bus, "obs.test.quiet", Probe(&formatted));
        }
        assert!(!formatted.get(), "the detail is never formatted");
        assert!(events_named(&["obs.test.quiet"]).is_empty());
        assert_eq!(samples("obs.test.quiet.ns"), 1);
    }
}
