//! Cycle-level non-preemptive bus scheduling.
//!
//! Masters submit transfer requests; the bus serves one transaction at a
//! time, choosing among ready requests with an arbitration policy. Grants
//! are non-preemptive (a PLB master keeps the bus for its whole burst
//! sequence) — the source of the contention the baseline system suffers
//! when multiple kernels fetch their inputs.

use crate::arbiter::{Arbiter, RoundRobin};
use crate::config::BusConfig;
use hic_fabric::time::Time;
use hic_obs::trace::{Category, Detail, Event, Phase, Recorder, Tracer};
use serde::{Deserialize, Serialize};

/// One transfer request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Requesting master (index into the platform's master table).
    pub master: usize,
    /// Bytes to move.
    pub bytes: u64,
    /// Earliest time the request can start (data availability).
    pub ready: Time,
}

impl Request {
    /// Request ready at time zero.
    pub fn at_start(master: usize, bytes: u64) -> Self {
        Request {
            master,
            bytes,
            ready: Time::ZERO,
        }
    }
}

/// One completed grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Grant {
    /// Which request (index into the submitted request list).
    pub request: usize,
    /// The master that was served.
    pub master: usize,
    /// Bytes moved.
    pub bytes: u64,
    /// Bus occupancy start.
    pub start: Time,
    /// Bus release time.
    pub end: Time,
    /// Time spent waiting after `ready` before the grant.
    pub wait: Time,
}

/// Result of running a request set through the bus.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BusTrace {
    /// Grants in service order.
    pub grants: Vec<Grant>,
    /// Total time the bus was occupied.
    pub busy: Time,
    /// Completion time of the last grant.
    pub makespan: Time,
}

impl BusTrace {
    /// Total wait time across all grants (a contention measure).
    pub fn total_wait(&self) -> Time {
        self.grants.iter().map(|g| g.wait).sum()
    }

    /// Bus utilization in [0, 1].
    pub fn utilization(&self) -> f64 {
        if self.makespan == Time::ZERO {
            0.0
        } else {
            self.busy.as_ps() as f64 / self.makespan.as_ps() as f64
        }
    }
}

/// Cumulative arbitration observability for a [`CycleBus`], accumulated
/// across every [`CycleBus::run`] call on the same bus instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusMetrics {
    /// Grants issued.
    pub grants: u64,
    /// Bytes moved across all grants.
    pub bytes: u64,
    /// Arbitration rounds where more than one master was ready — the
    /// rounds where the arbiter actually had to choose.
    pub contended_rounds: u64,
    /// Grants that started later than their request's ready time.
    pub delayed_grants: u64,
    /// Total time grants spent waiting past ready, in picoseconds.
    pub wait_ps: u64,
    /// Total bus occupancy, in picoseconds.
    pub busy_ps: u64,
    /// Most masters ever ready in a single arbitration round.
    pub peak_ready_masters: u64,
}

/// The cycle-level bus simulator.
#[derive(Debug, Clone)]
pub struct CycleBus<A = RoundRobin> {
    cfg: BusConfig,
    arbiter: A,
    metrics: BusMetrics,
    /// Flight-recorder hook for grant/contention events (`None` unless
    /// the `bus` trace category was enabled at construction or a tracer
    /// was attached explicitly). Timestamps are nanoseconds, tracks are
    /// bus masters, the causal id is the request index.
    trace: Option<Recorder>,
}

fn auto_trace() -> Option<Recorder> {
    hic_obs::trace::global()
        .enabled(Category::Bus)
        .then(hic_obs::trace::recorder)
}

impl CycleBus<RoundRobin> {
    /// A bus with round-robin arbitration.
    pub fn new(cfg: BusConfig) -> Self {
        CycleBus {
            cfg,
            arbiter: RoundRobin::new(),
            metrics: BusMetrics::default(),
            trace: auto_trace(),
        }
    }
}

impl<A: Arbiter> CycleBus<A> {
    /// Route this bus's grant/contention events to `tracer` (for tests
    /// and tools that keep a private tracer instead of the global one).
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.trace = Some(tracer.recorder());
    }

    /// The configuration.
    pub fn config(&self) -> &BusConfig {
        &self.cfg
    }

    /// Cumulative arbitration metrics across every run on this bus.
    pub fn metrics(&self) -> BusMetrics {
        self.metrics
    }

    /// Publish the cumulative metrics into `reg` under `prefix.*`.
    pub fn publish_metrics(&self, reg: &hic_obs::Registry, prefix: &str) {
        let m = self.metrics;
        reg.counter(&format!("{prefix}.grants")).add(m.grants);
        reg.counter(&format!("{prefix}.bytes")).add(m.bytes);
        reg.counter(&format!("{prefix}.contended_rounds"))
            .add(m.contended_rounds);
        reg.counter(&format!("{prefix}.delayed_grants"))
            .add(m.delayed_grants);
        reg.counter(&format!("{prefix}.wait_ps")).add(m.wait_ps);
        reg.counter(&format!("{prefix}.busy_ps")).add(m.busy_ps);
        reg.gauge(&format!("{prefix}.peak_ready_masters"))
            .set(m.peak_ready_masters);
    }

    /// Serve all `requests` to completion and return the trace.
    ///
    /// Zero-byte requests complete instantly at their ready time without
    /// occupying the bus.
    pub fn run(&mut self, requests: &[Request]) -> BusTrace {
        let mut pending: Vec<usize> = (0..requests.len()).collect();
        let mut grants = Vec::with_capacity(requests.len());
        let mut now = Time::ZERO;
        let mut busy = Time::ZERO;

        while !pending.is_empty() {
            // Advance to the earliest ready time if nothing is ready now.
            let earliest = pending
                .iter()
                .map(|&i| requests[i].ready)
                .min()
                .expect("pending non-empty");
            if earliest > now {
                now = earliest;
            }
            // Masters with a ready request, deduplicated and sorted.
            let mut ready_masters: Vec<usize> = pending
                .iter()
                .filter(|&&i| requests[i].ready <= now)
                .map(|&i| requests[i].master)
                .collect();
            ready_masters.sort_unstable();
            ready_masters.dedup();
            if ready_masters.len() > 1 {
                self.metrics.contended_rounds += 1;
            }
            self.metrics.peak_ready_masters = self
                .metrics
                .peak_ready_masters
                .max(ready_masters.len() as u64);
            let master = self.arbiter.grant(&ready_masters);
            // Oldest ready request of the granted master (submission order).
            let pos = pending
                .iter()
                .position(|&i| requests[i].master == master && requests[i].ready <= now)
                .expect("granted master has a ready request");
            let idx = pending.remove(pos);
            let req = requests[idx];
            let dur = self.cfg.transfer_time(req.bytes);
            let start = now;
            let end = start + dur;
            let wait = start.saturating_sub(req.ready);
            self.metrics.grants += 1;
            self.metrics.bytes += req.bytes;
            self.metrics.busy_ps += dur.as_ps();
            self.metrics.wait_ps += wait.as_ps();
            if wait > Time::ZERO {
                self.metrics.delayed_grants += 1;
            }
            if let Some(tr) = &self.trace {
                if tr.enabled(Category::Bus) {
                    // The contention window first (the time between ready
                    // and grant), then the occupancy window. Both are
                    // retrospective `Complete` slices on the master's
                    // track, in nanoseconds.
                    if wait > Time::ZERO {
                        tr.record(Event {
                            ts: req.ready.as_ps() / 1000,
                            dur: wait.as_ps() / 1000,
                            id: idx as u64,
                            arg: req.bytes,
                            name: "stall",
                            detail: Detail::EMPTY,
                            phase: Phase::Complete,
                            cat: Category::Bus,
                            tid: master as u32,
                        });
                    }
                    tr.record(Event {
                        ts: start.as_ps() / 1000,
                        dur: dur.as_ps() / 1000,
                        id: idx as u64,
                        arg: req.bytes,
                        name: "grant",
                        detail: Detail::EMPTY,
                        phase: Phase::Complete,
                        cat: Category::Bus,
                        tid: master as u32,
                    });
                }
            }
            grants.push(Grant {
                request: idx,
                master,
                bytes: req.bytes,
                start,
                end,
                wait,
            });
            busy += dur;
            now = end;
        }

        BusTrace {
            makespan: grants.iter().map(|g| g.end).max().unwrap_or(Time::ZERO),
            grants,
            busy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> CycleBus {
        CycleBus::new(BusConfig::plb_100mhz())
    }

    #[test]
    fn single_transfer_matches_config_time() {
        let mut b = bus();
        let tr = b.run(&[Request::at_start(0, 128)]);
        assert_eq!(tr.grants.len(), 1);
        assert_eq!(tr.grants[0].start, Time::ZERO);
        assert_eq!(tr.grants[0].end, Time::from_ns(200)); // 20 cycles @ 10ns
        assert_eq!(tr.makespan, Time::from_ns(200));
        assert!((tr.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn contending_transfers_serialize() {
        let mut b = bus();
        let tr = b.run(&[Request::at_start(0, 128), Request::at_start(1, 128)]);
        assert_eq!(tr.grants[0].end, tr.grants[1].start);
        assert_eq!(tr.makespan, Time::from_ns(400));
        assert_eq!(tr.grants[1].wait, Time::from_ns(200));
        assert_eq!(tr.total_wait(), Time::from_ns(200));
    }

    #[test]
    fn bus_idles_until_request_is_ready() {
        let mut b = bus();
        let tr = b.run(&[Request {
            master: 0,
            bytes: 128,
            ready: Time::from_us(1),
        }]);
        assert_eq!(tr.grants[0].start, Time::from_us(1));
        assert_eq!(tr.grants[0].wait, Time::ZERO);
        assert!(tr.utilization() < 0.2);
    }

    #[test]
    fn round_robin_alternates_between_masters() {
        let mut b = bus();
        let reqs: Vec<Request> = (0..6).map(|i| Request::at_start(i % 2, 128)).collect();
        let tr = b.run(&reqs);
        let order: Vec<usize> = tr.grants.iter().map(|g| g.master).collect();
        assert_eq!(order, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn same_master_requests_serve_in_submission_order() {
        let mut b = bus();
        let tr = b.run(&[
            Request::at_start(0, 8),
            Request::at_start(0, 16),
            Request::at_start(0, 24),
        ]);
        let served: Vec<u64> = tr.grants.iter().map(|g| g.bytes).collect();
        assert_eq!(served, vec![8, 16, 24]);
    }

    #[test]
    fn zero_requests_yield_empty_trace() {
        let mut b = bus();
        let tr = b.run(&[]);
        assert!(tr.grants.is_empty());
        assert_eq!(tr.makespan, Time::ZERO);
        assert_eq!(tr.utilization(), 0.0);
    }

    #[test]
    fn staggered_ready_times_interleave_correctly() {
        let mut b = bus();
        // Master 1 becomes ready while master 0's long transfer occupies
        // the bus; it must start exactly when the bus frees.
        let tr = b.run(&[
            Request::at_start(0, 1280), // 200 cycles = 2000 ns
            Request {
                master: 1,
                bytes: 128,
                ready: Time::from_ns(500),
            },
        ]);
        assert_eq!(tr.grants[1].start, Time::from_ns(2000));
        assert_eq!(tr.grants[1].wait, Time::from_ns(1500));
    }

    #[test]
    fn metrics_track_grants_and_contention() {
        let mut b = bus();
        let tr = b.run(&[Request::at_start(0, 128), Request::at_start(1, 128)]);
        let m = b.metrics();
        assert_eq!(m.grants, 2);
        assert_eq!(m.bytes, 256);
        // Both masters were ready in the first round; only one in the second.
        assert_eq!(m.contended_rounds, 1);
        assert_eq!(m.peak_ready_masters, 2);
        assert_eq!(m.delayed_grants, 1);
        assert_eq!(m.wait_ps, tr.total_wait().as_ps());
        assert_eq!(m.busy_ps, tr.busy.as_ps());
    }

    #[test]
    fn metrics_accumulate_across_runs() {
        let mut b = bus();
        b.run(&[Request::at_start(0, 128)]);
        b.run(&[Request::at_start(0, 128)]);
        let m = b.metrics();
        assert_eq!(m.grants, 2);
        assert_eq!(m.contended_rounds, 0);
        assert_eq!(m.delayed_grants, 0);
    }

    #[test]
    fn attached_tracer_records_grant_and_stall_windows() {
        let t = hic_obs::trace::Tracer::new(256);
        t.set_enabled(Category::Bus, true);
        let mut b = bus();
        b.attach_tracer(&t);
        b.run(&[Request::at_start(0, 128), Request::at_start(1, 128)]);
        let tr = t.take();
        let grants: Vec<_> = tr.events.iter().filter(|e| e.name == "grant").collect();
        assert_eq!(grants.len(), 2);
        assert_eq!(grants[0].dur, 200, "128 B = 20 cycles @ 10 ns");
        let stalls: Vec<_> = tr.events.iter().filter(|e| e.name == "stall").collect();
        assert_eq!(stalls.len(), 1, "only the losing master stalls");
        assert_eq!(stalls[0].dur, 200, "it waits out the winner's grant");
        assert_eq!(stalls[0].tid, 1);
    }

    #[test]
    fn publish_metrics_fills_a_registry() {
        let mut b = bus();
        b.run(&[Request::at_start(0, 128), Request::at_start(1, 128)]);
        let reg = hic_obs::Registry::new();
        b.publish_metrics(&reg, "bus");
        let s = reg.snapshot();
        assert_eq!(s.counters["bus.grants"], 2);
        assert_eq!(s.counters["bus.contended_rounds"], 1);
        assert!(s.counters["bus.wait_ps"] > 0);
        assert_eq!(s.gauges["bus.peak_ready_masters"].last, 2);
    }
}
