//! The named metric registry.

use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::{GaugeValue, HistogramValue, Snapshot};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

#[derive(Debug, Clone)]
enum Slot {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named home for metrics, shared by handle ([`Clone`] aliases the same
/// store). Lookups get-or-create; callers on warm paths should cache the
/// returned `Arc` handle rather than re-resolving the name per event.
#[derive(Debug, Clone)]
pub struct Registry {
    slots: Arc<Mutex<BTreeMap<String, Slot>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry {
            slots: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// The counter named `name`, created on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut slots = self.slots.lock().unwrap();
        match slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Counter(Arc::new(Counter::new())))
        {
            Slot::Counter(c) => Arc::clone(c),
            _ => panic!("metric '{name}' is not a counter"),
        }
    }

    /// The gauge named `name`, created on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut slots = self.slots.lock().unwrap();
        match slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Gauge(Arc::new(Gauge::new())))
        {
            Slot::Gauge(g) => Arc::clone(g),
            _ => panic!("metric '{name}' is not a gauge"),
        }
    }

    /// The histogram named `name`, created on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut slots = self.slots.lock().unwrap();
        match slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Histogram(Arc::new(Histogram::new())))
        {
            Slot::Histogram(h) => Arc::clone(h),
            _ => panic!("metric '{name}' is not a histogram"),
        }
    }

    /// Remove every metric (a fresh start for one-process test runs).
    pub fn clear(&self) {
        self.slots.lock().unwrap().clear();
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let slots = self.slots.lock().unwrap();
        let mut snap = Snapshot::default();
        for (name, slot) in slots.iter() {
            match slot {
                Slot::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Slot::Gauge(g) => {
                    snap.gauges.insert(
                        name.clone(),
                        GaugeValue {
                            last: g.get(),
                            max: g.max(),
                        },
                    );
                }
                Slot::Histogram(h) => {
                    snap.histograms.insert(name.clone(), HistogramValue::of(h));
                }
            }
        }
        snap
    }
}

/// The process-wide default registry. Everything in the pipeline that is
/// not handed an explicit registry publishes here; `hic report` snapshots
/// it after a run.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_get_or_create_and_share() {
        let r = Registry::new();
        r.counter("a").add(2);
        r.counter("a").inc();
        assert_eq!(r.counter("a").get(), 3);
    }

    #[test]
    fn clones_alias_the_same_store() {
        let r = Registry::new();
        let r2 = r.clone();
        r.counter("x").inc();
        assert_eq!(r2.counter("x").get(), 1);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("dual").inc();
        r.gauge("dual");
    }

    #[test]
    fn snapshot_copies_all_kinds() {
        let r = Registry::new();
        r.counter("c").add(5);
        r.gauge("g").set(9);
        r.histogram("h").record(4);
        let s = r.snapshot();
        assert_eq!(s.counters["c"], 5);
        assert_eq!(s.gauges["g"].last, 9);
        assert_eq!(s.histograms["h"].count, 1);
        r.clear();
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn global_registry_is_shared() {
        global().counter("obs.test.global").inc();
        assert!(global().counter("obs.test.global").get() >= 1);
    }
}
