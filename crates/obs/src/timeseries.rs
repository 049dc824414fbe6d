//! Continuous telemetry: fixed-memory time series and a background
//! sampler.
//!
//! [`crate::Snapshot`] answers "where are the counters *now*"; this
//! module answers "how did they *move*" while a run is still going. A
//! [`Series`] is a bounded ring of [`Point`]s with flight-recorder-style
//! memory behaviour: when the ring reaches capacity it **downsamples 2:1
//! in place** — adjacent points merge, each keeping the min/max envelope
//! and the latest value of the raw samples it covers — so an
//! arbitrarily long run always fits in the same memory, at ever coarser
//! (but never lying) resolution. A [`SeriesStore`] keys series by metric
//! name, and a [`Sampler`] is a background thread that snapshots a
//! [`Registry`] into the store at a fixed interval.
//!
//! The consumers:
//!
//! * `hic top` renders store series as terminal sparklines while a batch
//!   DAG executes;
//! * the `/metrics` HTTP endpoint ([`crate::expo`]) serves the same
//!   registry to external scrapers in Prometheus text format;
//! * sliding-window queries ([`Series::rate_per_sec`],
//!   [`Series::delta`]) turn cumulative counters into rates without any
//!   per-event cost on the instrumented side.
//!
//! # Cost model
//!
//! Sampling is strictly *pull*: the instrumented code pays nothing
//! beyond its existing relaxed-atomic counter updates. One sampler tick
//! is a registry snapshot (one mutex acquisition plus O(metrics) atomic
//! loads) and O(metrics) ring pushes — microseconds at the default
//! 10 Hz, which is why `repro bench-noc` can assert the whole layer
//! costs ≤ 5% even at 100 Hz (see the `noc.sampler.*` records of
//! `BENCH.json`).

use crate::registry::Registry;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default number of points a [`Series`] retains.
pub const DEFAULT_SERIES_CAPACITY: usize = 512;

/// Default sampler interval: 10 Hz.
pub const DEFAULT_SAMPLE_INTERVAL: Duration = Duration::from_millis(100);

/// One stored point: the envelope of `samples` consecutive raw samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Milliseconds since the store epoch of the *first* raw sample
    /// merged into this point.
    pub t_ms: u64,
    /// Smallest raw sample in the point's window.
    pub min: f64,
    /// Largest raw sample in the point's window.
    pub max: f64,
    /// The most recent raw sample in the point's window.
    pub last: f64,
    /// Raw samples merged into this point (≥ 1).
    pub samples: u32,
}

impl Point {
    fn of(t_ms: u64, v: f64) -> Point {
        Point {
            t_ms,
            min: v,
            max: v,
            last: v,
            samples: 1,
        }
    }

    fn absorb(&mut self, v: f64) {
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.last = v;
        self.samples += 1;
    }

    fn merge(a: Point, b: Point) -> Point {
        Point {
            t_ms: a.t_ms,
            min: a.min.min(b.min),
            max: a.max.max(b.max),
            last: b.last,
            samples: a.samples + b.samples,
        }
    }
}

/// A bounded time series with automatic 2:1 downsampling on overflow.
///
/// Invariants (pinned by `tests/timeseries_prop.rs`):
///
/// * the stored point count never exceeds the capacity;
/// * the min/max **envelope is exact**: the minimum over stored `min`s
///   (and maximum over `max`es) equals the min/max over every raw
///   sample ever pushed, no matter how many downsampling rounds ran;
/// * the `samples` fields sum to the number of raw pushes, so nothing
///   is silently discarded — only coarsened;
/// * [`Series::rate_per_sec`] over a monotone non-decreasing push
///   sequence is never negative.
#[derive(Debug, Clone)]
pub struct Series {
    cap: usize,
    /// Raw samples each *completed* point covers; doubles per
    /// downsampling round.
    per_point: u32,
    /// The in-progress point, appended once it covers `per_point` raw
    /// samples.
    pending: Option<Point>,
    points: VecDeque<Point>,
}

impl Series {
    /// An empty series retaining at most `cap` points (`cap ≥ 2`).
    ///
    /// # Panics
    /// If `cap < 2` (downsampling needs at least one pair).
    pub fn new(cap: usize) -> Series {
        assert!(cap >= 2, "series capacity must be at least 2");
        Series {
            cap,
            per_point: 1,
            pending: None,
            points: VecDeque::with_capacity(cap),
        }
    }

    /// Append one raw sample taken at `t_ms` (milliseconds since the
    /// store epoch; pushes are expected in non-decreasing `t_ms` order).
    pub fn push(&mut self, t_ms: u64, v: f64) {
        match &mut self.pending {
            Some(p) => p.absorb(v),
            None => self.pending = Some(Point::of(t_ms, v)),
        }
        let full = self
            .pending
            .as_ref()
            .is_some_and(|p| p.samples >= self.per_point);
        if full {
            let p = self.pending.take().expect("pending point present");
            self.points.push_back(p);
            if self.points.len() >= self.cap {
                self.downsample();
            }
        }
    }

    /// Merge adjacent stored points pairwise, doubling the per-point
    /// resolution. An odd trailing point is kept as-is (it will absorb a
    /// partner on the next round).
    fn downsample(&mut self) {
        let mut merged = VecDeque::with_capacity(self.cap);
        let mut iter = self.points.drain(..);
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => merged.push_back(Point::merge(a, b)),
                None => merged.push_back(a),
            }
        }
        drop(iter);
        self.points = merged;
        self.per_point = self.per_point.saturating_mul(2);
    }

    /// Stored points, oldest first, including the in-progress one.
    pub fn points(&self) -> impl Iterator<Item = &Point> {
        self.points.iter().chain(self.pending.iter())
    }

    /// Number of points [`Series::points`] yields.
    pub fn len(&self) -> usize {
        self.points.len() + usize::from(self.pending.is_some())
    }

    /// True when nothing was ever pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Raw samples each completed point currently covers (a power of
    /// two; doubles per downsampling round).
    pub fn resolution(&self) -> u32 {
        self.per_point
    }

    /// Total raw samples represented across every point.
    pub fn total_samples(&self) -> u64 {
        self.points().map(|p| p.samples as u64).sum()
    }

    /// The most recent raw sample, if any.
    pub fn last(&self) -> Option<f64> {
        self.points().last().map(|p| p.last)
    }

    /// The exact `(min, max)` envelope over every raw sample ever
    /// pushed.
    pub fn envelope(&self) -> Option<(f64, f64)> {
        let mut it = self.points();
        let first = it.next()?;
        let (mut lo, mut hi) = (first.min, first.max);
        for p in it {
            lo = lo.min(p.min);
            hi = hi.max(p.max);
        }
        Some((lo, hi))
    }

    /// Points whose window starts inside the trailing `window_ms`
    /// milliseconds (relative to the newest point's timestamp).
    pub fn window(&self, window_ms: u64) -> impl Iterator<Item = &Point> {
        let newest = self.points().last().map(|p| p.t_ms).unwrap_or(0);
        let since = newest.saturating_sub(window_ms);
        self.points().filter(move |p| p.t_ms >= since)
    }

    /// Change of the sampled value across the trailing window:
    /// `newest.last - oldest.last`. For a cumulative counter this is
    /// "events in the window" (approximated at point resolution). `None`
    /// with fewer than two points in the window.
    pub fn delta(&self, window_ms: u64) -> Option<f64> {
        let mut it = self.window(window_ms);
        let first = it.next()?;
        let last = it.last()?;
        Some(last.last - first.last)
    }

    /// Sliding-window rate: [`Series::delta`] divided by the window's
    /// actual time span, per second. For a monotone counter this is
    /// non-negative by construction. `None` with fewer than two points
    /// or a zero time span.
    pub fn rate_per_sec(&self, window_ms: u64) -> Option<f64> {
        let mut it = self.window(window_ms);
        let first = it.next()?;
        let last = it.last()?;
        let dt_ms = last.t_ms.saturating_sub(first.t_ms);
        if dt_ms == 0 {
            return None;
        }
        Some((last.last - first.last) / (dt_ms as f64 / 1000.0))
    }

    /// Per-point increments of the `last` value — the derivative at
    /// point resolution, oldest first. Empty with fewer than two points.
    pub fn deltas(&self) -> Vec<(u64, f64)> {
        let pts: Vec<&Point> = self.points().collect();
        pts.windows(2)
            .map(|w| (w[1].t_ms, w[1].last - w[0].last))
            .collect()
    }
}

/// A named, thread-safe home for [`Series`], cloneable with
/// shared-handle semantics (like [`Registry`]). Timestamps are
/// milliseconds since the store was created.
#[derive(Debug, Clone)]
pub struct SeriesStore {
    inner: Arc<StoreInner>,
}

#[derive(Debug)]
struct StoreInner {
    epoch: Instant,
    cap: usize,
    series: Mutex<BTreeMap<String, Series>>,
}

impl Default for SeriesStore {
    fn default() -> Self {
        SeriesStore::new(DEFAULT_SERIES_CAPACITY)
    }
}

impl SeriesStore {
    /// An empty store whose series hold at most `cap` points each.
    pub fn new(cap: usize) -> SeriesStore {
        SeriesStore {
            inner: Arc::new(StoreInner {
                epoch: Instant::now(),
                cap,
                series: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Milliseconds since the store was created — the `t_ms` domain of
    /// every series in it.
    pub fn now_ms(&self) -> u64 {
        self.inner.epoch.elapsed().as_millis() as u64
    }

    /// Push one sample into the series named `name` (created on first
    /// use) at the current store time.
    pub fn record(&self, name: &str, v: f64) {
        self.record_at(name, self.now_ms(), v);
    }

    /// Push one sample with an explicit timestamp (tests, replays).
    pub fn record_at(&self, name: &str, t_ms: u64, v: f64) {
        let mut series = self.inner.series.lock().unwrap();
        series
            .entry(name.to_string())
            .or_insert_with(|| Series::new(self.inner.cap))
            .push(t_ms, v);
    }

    /// Snapshot `reg` into the store: one sample per counter (its
    /// count), per gauge (its last reading), and per histogram (its
    /// sample count — monotone, so rate queries yield events/sec). All
    /// samples of one tick share a timestamp.
    pub fn sample_registry(&self, reg: &Registry) {
        let t = self.now_ms();
        let snap = reg.snapshot();
        let mut series = self.inner.series.lock().unwrap();
        let mut push = |name: &str, v: f64| {
            series
                .entry(name.to_string())
                .or_insert_with(|| Series::new(self.inner.cap))
                .push(t, v);
        };
        for (name, v) in &snap.counters {
            push(name, *v as f64);
        }
        for (name, g) in &snap.gauges {
            push(name, g.last as f64);
        }
        for (name, h) in &snap.histograms {
            push(name, h.count as f64);
        }
    }

    /// A copy of the series named `name`, if it exists.
    pub fn get(&self, name: &str) -> Option<Series> {
        self.inner.series.lock().unwrap().get(name).cloned()
    }

    /// Every series name currently present, sorted.
    pub fn names(&self) -> Vec<String> {
        self.inner.series.lock().unwrap().keys().cloned().collect()
    }

    /// [`Series::rate_per_sec`] on the named series.
    pub fn rate_per_sec(&self, name: &str, window_ms: u64) -> Option<f64> {
        self.inner
            .series
            .lock()
            .unwrap()
            .get(name)?
            .rate_per_sec(window_ms)
    }

    /// Number of series present.
    pub fn len(&self) -> usize {
        self.inner.series.lock().unwrap().len()
    }

    /// True when no series exists yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A background thread that snapshots a [`Registry`] into a
/// [`SeriesStore`] at a fixed interval. Stops (and joins) on
/// [`Sampler::stop`] or drop; stopping takes one final sample so short
/// runs always leave at least two points per series.
#[derive(Debug)]
pub struct Sampler {
    store: SeriesStore,
    registry: Registry,
    shared: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Sampler {
    /// Start sampling `reg` into `store` every `interval`. The first
    /// sample is taken immediately.
    pub fn start(reg: Registry, store: SeriesStore, interval: Duration) -> Sampler {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let handle = {
            let reg = reg.clone();
            let store = store.clone();
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("hic-obs-sampler".into())
                .spawn(move || {
                    let (stop, cv) = &*shared;
                    let mut stopped = stop.lock().unwrap();
                    loop {
                        store.sample_registry(&reg);
                        if *stopped {
                            return;
                        }
                        let (guard, _) = cv.wait_timeout(stopped, interval).unwrap();
                        stopped = guard;
                        if *stopped {
                            // Final sample on the way out, then exit at
                            // the top of the loop.
                            continue;
                        }
                    }
                })
                .expect("spawn sampler thread")
        };
        Sampler {
            store,
            registry: reg,
            shared,
            handle: Some(handle),
        }
    }

    /// The store this sampler writes into.
    pub fn store(&self) -> &SeriesStore {
        &self.store
    }

    /// The registry this sampler reads.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Stop the sampler thread (taking one final sample) and wait for
    /// it to exit.
    pub fn stop(&mut self) {
        let (stop, cv) = &*self.shared;
        *stop.lock().unwrap() = true;
        cv.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_keeps_everything_below_capacity() {
        let mut s = Series::new(8);
        for i in 0..5u64 {
            s.push(i * 10, i as f64);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.resolution(), 1);
        assert_eq!(s.last(), Some(4.0));
        assert_eq!(s.total_samples(), 5);
    }

    #[test]
    fn overflow_downsamples_two_to_one() {
        let mut s = Series::new(4);
        for i in 0..4u64 {
            s.push(i, i as f64);
        }
        // Reaching capacity triggered one downsampling round.
        assert_eq!(s.resolution(), 2);
        assert_eq!(s.points.len(), 2);
        for i in 4..100u64 {
            s.push(i, i as f64);
        }
        assert!(s.len() <= 4, "{} points", s.len());
        assert_eq!(s.total_samples(), 100);
        assert_eq!(s.envelope(), Some((0.0, 99.0)));
        assert_eq!(s.last(), Some(99.0));
    }

    #[test]
    fn envelope_survives_downsampling_with_spikes() {
        let mut s = Series::new(4);
        for i in 0..64u64 {
            // One giant spike and one deep dip buried mid-run.
            let v = match i {
                17 => 1e9,
                41 => -1e9,
                _ => i as f64,
            };
            s.push(i, v);
        }
        let (lo, hi) = s.envelope().unwrap();
        assert_eq!(lo, -1e9, "dip survives merging");
        assert_eq!(hi, 1e9, "spike survives merging");
    }

    #[test]
    fn rate_of_monotone_counter_is_nonnegative_and_scaled() {
        let mut s = Series::new(64);
        // 10 events per 100 ms tick -> 100 events/sec.
        for tick in 0..20u64 {
            s.push(tick * 100, (tick * 10) as f64);
        }
        let r = s.rate_per_sec(2_000).unwrap();
        assert!((r - 100.0).abs() < 1e-9, "rate {r}");
        assert!(s.rate_per_sec(500).unwrap() >= 0.0);
        assert_eq!(s.delta(1_000_000), Some(190.0));
    }

    #[test]
    fn rate_needs_two_points_and_nonzero_span() {
        let mut s = Series::new(8);
        assert_eq!(s.rate_per_sec(1000), None);
        s.push(5, 1.0);
        assert_eq!(s.rate_per_sec(1000), None, "one point has no rate");
        s.push(5, 2.0);
        // Two samples at the same t_ms: span is zero.
        assert_eq!(s.rate_per_sec(1000), None);
        s.push(105, 3.0);
        assert!(s.rate_per_sec(1000).is_some());
    }

    #[test]
    fn store_samples_all_metric_kinds() {
        let reg = Registry::new();
        reg.counter("c").add(3);
        reg.gauge("g").set(7);
        reg.histogram("h").record(5);
        let store = SeriesStore::new(16);
        store.sample_registry(&reg);
        reg.counter("c").add(1);
        store.sample_registry(&reg);
        assert_eq!(store.names(), vec!["c", "g", "h"]);
        let c = store.get("c").unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.last(), Some(4.0));
        assert_eq!(store.get("g").unwrap().last(), Some(7.0));
        assert_eq!(store.get("h").unwrap().last(), Some(1.0));
    }

    #[test]
    fn sampler_collects_and_stops_cleanly() {
        let reg = Registry::new();
        reg.counter("ticks").inc();
        let store = SeriesStore::new(32);
        let mut sampler = Sampler::start(reg.clone(), store.clone(), Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(40));
        reg.counter("ticks").add(9);
        sampler.stop();
        let s = store.get("ticks").expect("series exists");
        assert!(s.len() >= 2, "sampled at least twice ({} points)", s.len());
        // The stop path takes a final sample, so the last reading is
        // current even if the timer never fired again.
        assert_eq!(s.last(), Some(10.0));
        // Stopping twice is harmless.
        sampler.stop();
    }
}
