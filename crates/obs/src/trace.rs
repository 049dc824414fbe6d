//! Causal event tracing (`hic-trace/v1`): a bounded flight recorder.
//!
//! Counters and histograms answer "how much"; this module answers *who
//! talked to whom and when*. Instrumented subsystems record typed,
//! fixed-size events into per-thread ring buffers (a **flight
//! recorder**: when a ring fills, the oldest events are overwritten and
//! counted as dropped, so memory is bounded no matter how long a run
//! is). A trace is drained once at the end of a run and exported as
//! Chrome trace-event JSON that loads directly in Perfetto or
//! `chrome://tracing`.
//!
//! # Cost model
//!
//! The recorder is designed to stay compiled in:
//!
//! * **Disabled** (the default): every instrumentation site is one
//!   relaxed atomic load and a branch. No clock is read, nothing is
//!   written.
//! * **Enabled**: recording one event is a mutex lock on an
//!   uncontended per-thread ring plus a fixed-size (`Copy`) store —
//!   no allocation on the hot path; ring storage is reserved up front.
//! * **Sampling**: per-category 1-in-N sampling
//!   ([`Tracer::set_sample`]) keyed on the event's causal id, so all
//!   events of one flow (a NoC packet's inject → hops → eject) are
//!   kept or skipped together and full 8×8 load sweeps stay tractable.
//!
//! # Event model
//!
//! An [`Event`] is a fixed-size record: a [`Phase`] (complete/instant/
//! flow), a [`Category`] (which subsystem), a static
//! name, a small inline [`Detail`] string for dynamic labels, a track
//! id (`tid`), a timestamp, and phase-dependent `dur`/`id`/`arg`
//! words. Timestamps are **monotonic per track** but live in
//! per-category domains (exported as separate Perfetto processes):
//!
//! | category | pid | timestamp domain          | tid means          |
//! |----------|-----|---------------------------|--------------------|
//! | `noc`    | 1   | NoC cycles                | router index       |
//! | `bus`    | 2   | nanoseconds               | bus master         |
//! | `batch`  | 3   | µs since tracer creation  | worker lane        |
//! | `design` | 4   | µs since tracer creation  | worker lane        |
//! | `sim`    | 5   | µs since tracer creation  | worker lane        |
//!
//! Wall-clock slices are [`Phase::Complete`] records written when a
//! [`crate::stage`] guard drops; nested stages on one lane nest as
//! slices. Flow events (`FlowBegin`/`FlowStep`/`FlowEnd`) share a
//! causal `id` and export as Chrome async-nestable events (`b`/`n`/`e`),
//! which is what lets a packet's end-to-end latency be reconstructed
//! from the trace alone ([`flows`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Schema identifier carried by every exported trace document.
pub const TRACE_SCHEMA: &str = "hic-trace/v1";

/// Default per-thread ring capacity of the process-global tracer.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// The instrumented subsystems. Each category is exported as its own
/// Perfetto process because each has its own timestamp domain (see the
/// module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// NoC packet lifecycle (timestamps in cycles, tracks are routers).
    Noc,
    /// Bus arbitration (timestamps in ns, tracks are masters).
    Bus,
    /// Batch pipeline jobs (wall-clock µs, tracks are worker lanes).
    Batch,
    /// Design-stage runs (wall-clock µs).
    Design,
    /// Simulation/co-simulation runs (wall-clock µs).
    Sim,
}

/// Number of categories (sizes the per-category sampling table).
const N_CATEGORIES: usize = 5;

impl Category {
    /// All categories, in pid order.
    pub const ALL: [Category; N_CATEGORIES] = [
        Category::Noc,
        Category::Bus,
        Category::Batch,
        Category::Design,
        Category::Sim,
    ];

    /// Short lowercase name (the Chrome `cat` field).
    pub fn name(self) -> &'static str {
        match self {
            Category::Noc => "noc",
            Category::Bus => "bus",
            Category::Batch => "batch",
            Category::Design => "design",
            Category::Sim => "sim",
        }
    }

    /// The Perfetto process id this category exports under.
    pub fn pid(self) -> u32 {
        self as u32 + 1
    }

    /// The unit of this category's timestamp domain.
    pub fn ts_unit(self) -> &'static str {
        match self {
            Category::Noc => "cycles",
            Category::Bus => "ns",
            _ => "us",
        }
    }

    fn bit(self) -> u32 {
        1 << (self as u32)
    }
}

/// What kind of event a record is (maps onto Chrome trace-event `ph`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A retrospective slice with an explicit duration (`ph: "X"`).
    Complete,
    /// A point event (`ph: "i"`).
    Instant,
    /// First event of a causal flow, keyed by `id` (`ph: "b"`).
    FlowBegin,
    /// Intermediate event of a flow (`ph: "n"`).
    FlowStep,
    /// Last event of a flow (`ph: "e"`).
    FlowEnd,
}

impl Phase {
    /// The Chrome trace-event phase character.
    pub fn ph(self) -> char {
        match self {
            Phase::Complete => 'X',
            Phase::Instant => 'i',
            Phase::FlowBegin => 'b',
            Phase::FlowStep => 'n',
            Phase::FlowEnd => 'e',
        }
    }
}

/// Maximum bytes a [`Detail`] keeps (longer strings truncate).
pub const DETAIL_BYTES: usize = 23;

/// A small inline string for dynamic event labels ("canny#15") — kept
/// by value inside the event record so recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Detail {
    len: u8,
    bytes: [u8; DETAIL_BYTES],
}

impl Detail {
    /// The empty detail.
    pub const EMPTY: Detail = Detail {
        len: 0,
        bytes: [0; DETAIL_BYTES],
    };

    /// Capture `s`, truncating to [`DETAIL_BYTES`] at a char boundary.
    pub fn of(s: &str) -> Detail {
        let mut end = s.len().min(DETAIL_BYTES);
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        let mut bytes = [0u8; DETAIL_BYTES];
        bytes[..end].copy_from_slice(&s.as_bytes()[..end]);
        Detail {
            len: end as u8,
            bytes,
        }
    }

    /// The stored string.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len as usize]).expect("truncated at char boundary")
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One fixed-size trace record. `Copy`, so pushing it into a ring is a
/// plain store; the meaning of `dur`/`id`/`arg` depends on the phase
/// (duration for [`Phase::Complete`], causal id for flow phases, and a
/// free payload word — bytes, latency — otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Timestamp in the category's domain (see the module docs).
    pub ts: u64,
    /// Duration ([`Phase::Complete`] only; 0 otherwise).
    pub dur: u64,
    /// Causal id tying flow phases together (0 when unused).
    pub id: u64,
    /// Free payload word (bytes moved, latency, …).
    pub arg: u64,
    /// Static event name.
    pub name: &'static str,
    /// Dynamic label, truncated inline.
    pub detail: Detail,
    /// Event kind.
    pub phase: Phase,
    /// Subsystem.
    pub cat: Category,
    /// Track id within the category's process (router, master, lane).
    pub tid: u32,
}

/// Bounded per-thread event storage: overwrite-oldest with a dropped
/// count — flight-recorder semantics.
#[derive(Debug)]
struct Ring {
    cap: usize,
    buf: Vec<Event>,
    /// Oldest slot (the next overwrite target) once the ring is full.
    next: usize,
    /// Overwritten events, counted by the category of the event that was
    /// lost (not the one that displaced it) — that's the subsystem whose
    /// history now has a hole.
    dropped: [u64; N_CATEGORIES],
}

impl Ring {
    fn new(cap: usize) -> Ring {
        Ring {
            cap,
            buf: Vec::with_capacity(cap),
            next: 0,
            dropped: [0; N_CATEGORIES],
        }
    }

    fn push(&mut self, ev: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.dropped[self.buf[self.next].cat as usize] += 1;
            self.buf[self.next] = ev;
            self.next += 1;
            if self.next == self.cap {
                self.next = 0;
            }
        }
    }

    /// Take everything, oldest first, leaving the ring empty (with its
    /// capacity re-reserved so recording stays allocation-free).
    fn drain(&mut self) -> (Vec<Event>, [u64; N_CATEGORIES]) {
        let mut out = std::mem::replace(&mut self.buf, Vec::with_capacity(self.cap));
        if out.len() == self.cap {
            out.rotate_left(self.next);
        }
        self.next = 0;
        (out, std::mem::take(&mut self.dropped))
    }
}

#[derive(Debug)]
struct Inner {
    /// Bitmask of enabled categories ([`Category::bit`]).
    enabled: AtomicU32,
    /// Per-category 1-in-N sampling divisor (≥ 1).
    sample: [AtomicU32; N_CATEGORIES],
    capacity: usize,
    epoch: Instant,
    rings: Mutex<Vec<Arc<Mutex<Ring>>>>,
}

/// The tracing control plane: owns the per-thread rings, the enabled
/// bitmask and the sampling divisors. Cheap to clone (shared handle).
/// Most code uses the process-global instance via [`global`] and the
/// free functions; tests build their own for hermeticity.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

/// A drained trace: every recorded event plus how many were lost to
/// ring overwrites.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// All events, sorted by (pid, ts) — stable, so per-track recording
    /// order survives for equal timestamps.
    pub events: Vec<Event>,
    /// Events overwritten before they could be drained (all categories).
    pub dropped: u64,
    /// The overwritten events broken down by the category that lost
    /// history, indexed like [`Category::ALL`] — nonzero entries mean
    /// that category's summary is incomplete and the ring capacity or
    /// sampling divisor needs raising.
    pub dropped_by_category: [u64; 5],
}

impl Trace {
    /// `(category, dropped)` for every category that lost events.
    pub fn dropped_categories(&self) -> impl Iterator<Item = (Category, u64)> + '_ {
        Category::ALL
            .iter()
            .map(|&c| (c, self.dropped_by_category[c as usize]))
            .filter(|&(_, n)| n > 0)
    }
}

impl Tracer {
    /// A tracer with all categories disabled, 1-in-1 sampling, and
    /// `capacity` events per thread ring.
    pub fn new(capacity: usize) -> Tracer {
        assert!(capacity > 0, "ring capacity must be positive");
        Tracer {
            inner: Arc::new(Inner {
                enabled: AtomicU32::new(0),
                sample: std::array::from_fn(|_| AtomicU32::new(1)),
                capacity,
                epoch: Instant::now(),
                rings: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Enable or disable one category.
    pub fn set_enabled(&self, cat: Category, on: bool) {
        if on {
            self.inner.enabled.fetch_or(cat.bit(), Ordering::Relaxed);
        } else {
            self.inner.enabled.fetch_and(!cat.bit(), Ordering::Relaxed);
        }
    }

    /// Enable every category.
    pub fn enable_all(&self) {
        for c in Category::ALL {
            self.set_enabled(c, true);
        }
    }

    /// Whether `cat` currently records — the one branch a disabled
    /// instrumentation site pays.
    #[inline]
    pub fn enabled(&self, cat: Category) -> bool {
        self.inner.enabled.load(Ordering::Relaxed) & cat.bit() != 0
    }

    /// Set `cat` to keep 1 in `one_in` causal ids (0 is treated as 1).
    pub fn set_sample(&self, cat: Category, one_in: u32) {
        self.inner.sample[cat as usize].store(one_in.max(1), Ordering::Relaxed);
    }

    /// The sampling divisor of `cat` (≥ 1).
    #[inline]
    pub fn sample(&self, cat: Category) -> u64 {
        self.inner.sample[cat as usize]
            .load(Ordering::Relaxed)
            .max(1) as u64
    }

    /// Whether the event with causal id `seq` in `cat` should record:
    /// enabled and `seq` on the sampling lattice. Deterministic, so all
    /// phases of one flow sample identically.
    #[inline]
    pub fn sampled(&self, cat: Category, seq: u64) -> bool {
        self.enabled(cat) && seq.is_multiple_of(self.sample(cat))
    }

    /// Microseconds since the tracer was created (the wall-clock
    /// timestamp domain of `batch`/`design`/`sim`).
    pub fn now_us(&self) -> u64 {
        self.inner.epoch.elapsed().as_micros() as u64
    }

    /// Register a new per-thread ring and hand back its [`Recorder`].
    /// The recorder's lane id is the registration index.
    pub fn recorder(&self) -> Recorder {
        let ring = Arc::new(Mutex::new(Ring::new(self.inner.capacity)));
        let mut rings = self.inner.rings.lock().unwrap();
        let tid = rings.len() as u32;
        rings.push(Arc::clone(&ring));
        Recorder {
            inner: Arc::clone(&self.inner),
            ring,
            tid,
        }
    }

    /// Drain every ring into one [`Trace`] (events stably sorted by
    /// `(pid, ts)`), resetting the rings for the next run.
    pub fn take(&self) -> Trace {
        let rings = self.inner.rings.lock().unwrap();
        let mut events = Vec::new();
        let mut dropped_by_category = [0u64; N_CATEGORIES];
        for ring in rings.iter() {
            let (evs, d) = ring.lock().unwrap().drain();
            events.extend(evs);
            for (total, n) in dropped_by_category.iter_mut().zip(d) {
                *total += n;
            }
        }
        events.sort_by_key(|e| (e.cat.pid(), e.ts));
        Trace {
            events,
            dropped: dropped_by_category.iter().sum(),
            dropped_by_category,
        }
    }
}

/// A handle for recording into one per-thread ring. Clones share the
/// ring. The embedded `tid` is the default track for wall-clock events
/// ([`Recorder::instant`], stage slices) — the "worker lane" of batch
/// jobs; subsystems with natural tracks (routers, bus masters) pass an
/// explicit `tid` via [`Recorder::record`].
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
    ring: Arc<Mutex<Ring>>,
    tid: u32,
}

impl Recorder {
    /// This recorder's lane id.
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// Whether `cat` currently records (same one-branch check as
    /// [`Tracer::enabled`]).
    #[inline]
    pub fn enabled(&self, cat: Category) -> bool {
        self.inner.enabled.load(Ordering::Relaxed) & cat.bit() != 0
    }

    /// The sampling divisor of `cat` (≥ 1).
    #[inline]
    pub fn sample(&self, cat: Category) -> u64 {
        self.inner.sample[cat as usize]
            .load(Ordering::Relaxed)
            .max(1) as u64
    }

    /// Enabled + on the sampling lattice (see [`Tracer::sampled`]).
    #[inline]
    pub fn sampled(&self, cat: Category, seq: u64) -> bool {
        self.enabled(cat) && seq.is_multiple_of(self.sample(cat))
    }

    /// Microseconds since the owning tracer's creation.
    pub fn now_us(&self) -> u64 {
        self.inner.epoch.elapsed().as_micros() as u64
    }

    /// Push one event if its category is enabled. The caller supplies
    /// the timestamp (domain per category) and the track id.
    #[inline]
    pub fn record(&self, ev: Event) {
        if !self.enabled(ev.cat) {
            return;
        }
        self.ring.lock().unwrap().push(ev);
    }

    /// A wall-clock point event on this recorder's lane.
    pub fn instant(&self, cat: Category, name: &'static str, detail: Detail, arg: u64) {
        if !self.enabled(cat) {
            return;
        }
        self.record(Event {
            ts: self.now_us(),
            dur: 0,
            id: 0,
            arg,
            name,
            detail,
            phase: Phase::Instant,
            cat,
            tid: self.tid,
        });
    }
}

/// The process-global tracer (all categories disabled until a command
/// like `hic trace` turns them on; rings of [`DEFAULT_CAPACITY`]).
pub fn global() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(|| Tracer::new(DEFAULT_CAPACITY))
}

thread_local! {
    static TLS_RECORDER: std::cell::RefCell<Option<Recorder>> =
        const { std::cell::RefCell::new(None) };
}

/// This thread's recorder on the [`global`] tracer, created (and its
/// lane registered) on first use.
pub fn recorder() -> Recorder {
    TLS_RECORDER.with(|slot| {
        slot.borrow_mut()
            .get_or_insert_with(|| global().recorder())
            .clone()
    })
}

/// [`Tracer::enabled`] on the global tracer — the cheap gate cold-path
/// call sites check before formatting details or reading clocks.
#[inline]
pub fn enabled(cat: Category) -> bool {
    global().enabled(cat)
}

/// [`Recorder::instant`] on this thread's global-tracer recorder.
pub fn instant(cat: Category, name: &'static str, detail: &str, arg: u64) {
    if !enabled(cat) {
        return;
    }
    recorder().instant(cat, name, Detail::of(detail), arg);
}

/// [`Tracer::now_us`] on the global tracer (the start stamp of a
/// stage slice).
pub fn now_us() -> u64 {
    global().now_us()
}

// ------------------------------------------------------------- export

use crate::snapshot::push_json_str;

/// Serialize a trace as a Chrome trace-event JSON object (the
/// `hic-trace/v1` export): `{"schema", "displayTimeUnit", "dropped",
/// "traceEvents": [...]}` with one metadata `process_name` event per
/// category present plus one record per event. Loads directly in
/// Perfetto and `chrome://tracing`; any JSON parser can consume it
/// (the emitter is hand-rolled — this crate stays dependency-free).
pub fn export_chrome_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(256 + trace.events.len() * 96);
    write!(
        out,
        "{{\"schema\":\"{TRACE_SCHEMA}\",\"displayTimeUnit\":\"ms\",\"dropped\":{},\"traceEvents\":[",
        trace.dropped
    )
    .unwrap();
    let mut first = true;
    let mut emit_sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n ");
    };
    // One process-name metadata record per category present, so the
    // viewer labels the timestamp domains.
    let mut seen = [false; N_CATEGORIES];
    for e in &trace.events {
        seen[e.cat as usize] = true;
    }
    for cat in Category::ALL {
        if !seen[cat as usize] {
            continue;
        }
        emit_sep(&mut out);
        write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{},\"tid\":0,\"ts\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"{} ({})\"}}}}",
            cat.pid(),
            cat.name(),
            cat.ts_unit()
        )
        .unwrap();
    }
    for e in &trace.events {
        emit_sep(&mut out);
        write!(
            out,
            "{{\"ph\":\"{}\",\"cat\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{},\"name\":",
            e.phase.ph(),
            e.cat.name(),
            e.cat.pid(),
            e.tid,
            e.ts
        )
        .unwrap();
        if e.detail.is_empty() {
            push_json_str(&mut out, e.name);
        } else {
            let mut full = String::with_capacity(e.name.len() + 1 + DETAIL_BYTES);
            full.push_str(e.name);
            full.push(' ');
            full.push_str(e.detail.as_str());
            push_json_str(&mut out, &full);
        }
        match e.phase {
            Phase::Complete => write!(out, ",\"dur\":{}", e.dur).unwrap(),
            Phase::Instant => out.push_str(",\"s\":\"t\""),
            Phase::FlowBegin | Phase::FlowStep | Phase::FlowEnd => {
                write!(out, ",\"id\":\"{:#x}\"", e.id).unwrap();
            }
        }
        write!(out, ",\"args\":{{\"v\":{}}}}}", e.arg).unwrap();
    }
    out.push_str("\n]}\n");
    out
}

// ------------------------------------------------- analysis helpers

/// A slice read back from a trace: one [`Phase::Complete`] record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// Subsystem.
    pub cat: Category,
    /// Track the slice ran on.
    pub tid: u32,
    /// Event name.
    pub name: &'static str,
    /// Dynamic label.
    pub detail: Detail,
    /// Start timestamp (category domain).
    pub ts: u64,
    /// Duration (category domain).
    pub dur: u64,
}

/// The slices of a trace: every `Complete` record, in event order.
pub fn spans(events: &[Event]) -> Vec<SpanRec> {
    events
        .iter()
        .filter(|e| e.phase == Phase::Complete)
        .map(|e| SpanRec {
            cat: e.cat,
            tid: e.tid,
            name: e.name,
            detail: e.detail,
            ts: e.ts,
            dur: e.dur,
        })
        .collect()
}

/// A completed causal flow (both `FlowBegin` and `FlowEnd` present).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRec {
    /// Subsystem.
    pub cat: Category,
    /// Causal id shared by the flow's events.
    pub id: u64,
    /// Event name.
    pub name: &'static str,
    /// `FlowBegin` timestamp.
    pub begin_ts: u64,
    /// `FlowEnd` timestamp (`end_ts - begin_ts` = end-to-end latency).
    pub end_ts: u64,
    /// `arg` of the closing event (the NoC records latency there).
    pub end_arg: u64,
    /// Number of `FlowStep` events observed in between.
    pub steps: u32,
}

/// Reconstruct completed flows, keyed by `(category, id)`, in begin
/// order. Flows still open at drain time are omitted.
pub fn flows(events: &[Event]) -> Vec<FlowRec> {
    let mut open: BTreeMap<(u32, u64), (FlowRec, bool)> = BTreeMap::new();
    let mut order: Vec<(u32, u64)> = Vec::new();
    for e in events {
        let key = (e.cat.pid(), e.id);
        match e.phase {
            Phase::FlowBegin => {
                open.insert(
                    key,
                    (
                        FlowRec {
                            cat: e.cat,
                            id: e.id,
                            name: e.name,
                            begin_ts: e.ts,
                            end_ts: e.ts,
                            end_arg: 0,
                            steps: 0,
                        },
                        false,
                    ),
                );
                order.push(key);
            }
            Phase::FlowStep => {
                if let Some((f, _)) = open.get_mut(&key) {
                    f.steps += 1;
                }
            }
            Phase::FlowEnd => {
                if let Some((f, ended)) = open.get_mut(&key) {
                    f.end_ts = e.ts;
                    f.end_arg = e.arg;
                    *ended = true;
                }
            }
            _ => {}
        }
    }
    order
        .into_iter()
        .filter_map(|k| open.remove(&k))
        .filter_map(|(f, ended)| ended.then_some(f))
        .collect()
}

/// Check trace well-formedness: per-track timestamps non-decreasing
/// (retrospective `Complete` records exempt) and each flow id begins
/// before it steps or ends, once. Returns the first violation.
pub fn validate(events: &[Event]) -> Result<(), String> {
    let mut last_ts: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    let mut flow_state: BTreeMap<(u32, u64), (bool, bool, u64)> = BTreeMap::new();
    for e in events {
        let track = (e.cat.pid(), e.tid);
        if e.phase != Phase::Complete {
            if let Some(&prev) = last_ts.get(&track) {
                if e.ts < prev {
                    return Err(format!(
                        "track ({},{}): ts {} after {} ({:?} '{}')",
                        e.cat.name(),
                        e.tid,
                        e.ts,
                        prev,
                        e.phase,
                        e.name
                    ));
                }
            }
            last_ts.insert(track, e.ts);
        }
        match e.phase {
            Phase::FlowBegin => {
                let st = flow_state
                    .entry((e.cat.pid(), e.id))
                    .or_insert((false, false, 0));
                if st.0 {
                    return Err(format!("flow {:#x} in {} begun twice", e.id, e.cat.name()));
                }
                *st = (true, false, e.ts);
            }
            Phase::FlowStep | Phase::FlowEnd => match flow_state.get_mut(&(e.cat.pid(), e.id)) {
                None => {
                    return Err(format!(
                        "flow {:#x} in {}: {:?} before FlowBegin",
                        e.id,
                        e.cat.name(),
                        e.phase
                    ))
                }
                Some(st) => {
                    if st.1 {
                        return Err(format!(
                            "flow {:#x} in {}: event after FlowEnd",
                            e.id,
                            e.cat.name()
                        ));
                    }
                    if e.ts < st.2 {
                        return Err(format!(
                            "flow {:#x} in {}: ts {} before begin ts {}",
                            e.id,
                            e.cat.name(),
                            e.ts,
                            st.2
                        ));
                    }
                    st.2 = e.ts;
                    if e.phase == Phase::FlowEnd {
                        st.1 = true;
                    }
                }
            },
            _ => {}
        }
    }
    Ok(())
}

/// A generic human summary: event counts, the slowest completed flows
/// and the longest slices, per category domain. Front ends layer
/// domain-specific sections (critical paths, stall rankings) on top of
/// [`flows`] and [`spans`] themselves.
pub fn summarize(trace: &Trace) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "trace: {} events ({} dropped)",
        trace.events.len(),
        trace.dropped
    )
    .unwrap();
    if trace.dropped > 0 {
        let by_cat: Vec<String> = trace
            .dropped_categories()
            .map(|(c, n)| format!("{}={n}", c.name()))
            .collect();
        writeln!(
            out,
            "warning: ring buffer overwrote events ({}) — summaries below \
             are incomplete; raise --sample or the ring capacity",
            by_cat.join(", ")
        )
        .unwrap();
    } else if let Err(e) = validate(&trace.events) {
        writeln!(out, "warning: malformed trace: {e}").unwrap();
    }
    let mut fl = flows(&trace.events);
    fl.sort_by_key(|f| std::cmp::Reverse(f.end_ts.saturating_sub(f.begin_ts)));
    if !fl.is_empty() {
        writeln!(out, "slowest flows:").unwrap();
        for f in fl.iter().take(5) {
            writeln!(
                out,
                "  {} {} id={:#x}: {} {} ({} steps)",
                f.cat.name(),
                f.name,
                f.id,
                f.end_ts.saturating_sub(f.begin_ts),
                f.cat.ts_unit(),
                f.steps
            )
            .unwrap();
        }
    }
    let mut sl = spans(&trace.events);
    sl.sort_by_key(|s| std::cmp::Reverse(s.dur));
    if !sl.is_empty() {
        writeln!(out, "longest slices:").unwrap();
        for s in sl.iter().take(5) {
            let label = if s.detail.is_empty() {
                s.name.to_string()
            } else {
                format!("{} {}", s.name, s.detail.as_str())
            };
            writeln!(
                out,
                "  {} {}: {} {} (tid {})",
                s.cat.name(),
                label,
                s.dur,
                s.cat.ts_unit(),
                s.tid
            )
            .unwrap();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(phase: Phase, cat: Category, tid: u32, ts: u64, name: &'static str, id: u64) -> Event {
        Event {
            ts,
            dur: 0,
            id,
            arg: 0,
            name,
            detail: Detail::EMPTY,
            phase,
            cat,
            tid,
        }
    }

    #[test]
    fn detail_truncates_at_char_boundaries() {
        assert_eq!(Detail::of("canny#15").as_str(), "canny#15");
        let long = "x".repeat(40);
        assert_eq!(Detail::of(&long).as_str().len(), DETAIL_BYTES);
        // Multi-byte char straddling the cut is dropped whole.
        let tricky = format!("{}é", "a".repeat(DETAIL_BYTES - 1));
        let d = Detail::of(&tricky);
        assert_eq!(d.as_str(), &"a".repeat(DETAIL_BYTES - 1));
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let t = Tracer::new(4);
        t.set_enabled(Category::Noc, true);
        let r = t.recorder();
        for i in 0..10u64 {
            r.record(ev(Phase::Instant, Category::Noc, 0, i, "tick", 0));
        }
        let tr = t.take();
        assert_eq!(tr.events.len(), 4, "ring holds its capacity");
        assert_eq!(tr.dropped, 6);
        let kept: Vec<u64> = tr.events.iter().map(|e| e.ts).collect();
        assert_eq!(kept, vec![6, 7, 8, 9], "the newest events survive");
    }

    #[test]
    fn drops_are_attributed_to_the_overwritten_category() {
        let t = Tracer::new(4);
        t.enable_all();
        let r = t.recorder();
        // Fill the ring with Bus events, then push enough Noc events to
        // overwrite all of them plus two of their own.
        for i in 0..4u64 {
            r.record(ev(Phase::Instant, Category::Bus, 0, i, "bus", 0));
        }
        for i in 0..6u64 {
            r.record(ev(Phase::Instant, Category::Noc, 0, 10 + i, "noc", 0));
        }
        let tr = t.take();
        assert_eq!(tr.dropped, 6);
        assert_eq!(tr.dropped_by_category[Category::Bus as usize], 4);
        assert_eq!(tr.dropped_by_category[Category::Noc as usize], 2);
        let listed: Vec<(Category, u64)> = tr.dropped_categories().collect();
        assert_eq!(
            listed,
            vec![(Category::Noc, 2), (Category::Bus, 4)],
            "only lossy categories are listed, in Category::ALL order"
        );
        let summary = summarize(&tr);
        assert!(summary.contains("warning:"), "{summary}");
        assert!(summary.contains("noc=2"), "{summary}");
        assert!(summary.contains("bus=4"), "{summary}");
    }

    #[test]
    fn malformed_trace_summary_warns() {
        let t = Tracer::new(16);
        t.enable_all();
        let r = t.recorder();
        r.record(ev(Phase::FlowBegin, Category::Noc, 0, 1, "packet", 3));
        r.record(ev(Phase::FlowBegin, Category::Noc, 0, 2, "packet", 3));
        let summary = summarize(&t.take());
        assert!(
            summary.contains("warning: malformed trace: flow 0x3"),
            "{summary}"
        );
    }

    #[test]
    fn clean_trace_summary_has_no_warning() {
        let t = Tracer::new(16);
        t.enable_all();
        let r = t.recorder();
        r.instant(Category::Sim, "a", Detail::EMPTY, 0);
        assert!(!summarize(&t.take()).contains("warning:"));
    }

    #[test]
    fn disabled_category_records_nothing() {
        let t = Tracer::new(16);
        t.set_enabled(Category::Bus, true);
        let r = t.recorder();
        r.record(ev(Phase::Instant, Category::Noc, 0, 1, "nope", 0));
        r.instant(Category::Noc, "nope", Detail::EMPTY, 0);
        r.record(ev(Phase::Instant, Category::Bus, 0, 1, "yes", 0));
        let tr = t.take();
        assert_eq!(tr.events.len(), 1);
        assert_eq!(tr.events[0].name, "yes");
    }

    #[test]
    fn sampling_keeps_every_nth_id() {
        let t = Tracer::new(64);
        t.set_enabled(Category::Noc, true);
        t.set_sample(Category::Noc, 4);
        assert!(t.sampled(Category::Noc, 0));
        assert!(!t.sampled(Category::Noc, 1));
        assert!(t.sampled(Category::Noc, 8));
        t.set_sample(Category::Noc, 0); // clamps to 1
        assert!(t.sampled(Category::Noc, 3));
    }

    #[test]
    fn take_drains_and_resets() {
        let t = Tracer::new(8);
        t.enable_all();
        let r = t.recorder();
        r.instant(Category::Sim, "a", Detail::EMPTY, 0);
        assert_eq!(t.take().events.len(), 1);
        assert_eq!(t.take().events.len(), 0, "second take is empty");
        r.instant(Category::Sim, "b", Detail::EMPTY, 0);
        assert_eq!(t.take().events.len(), 1, "ring still usable after take");
    }

    #[test]
    fn spans_read_back_and_flows_complete() {
        let events = vec![
            ev(Phase::FlowBegin, Category::Noc, 0, 10, "packet", 7),
            ev(Phase::FlowStep, Category::Noc, 1, 11, "hop", 7),
            ev(Phase::FlowStep, Category::Noc, 2, 12, "hop", 7),
            ev(Phase::FlowEnd, Category::Noc, 3, 13, "packet", 7),
            Event {
                dur: 4,
                ..ev(Phase::Complete, Category::Batch, 0, 5, "job", 0)
            },
            ev(Phase::Instant, Category::Batch, 0, 6, "cache.hit", 0),
        ];
        validate(&events).unwrap();
        let fl = flows(&events);
        assert_eq!(fl.len(), 1);
        assert_eq!(fl[0].end_ts - fl[0].begin_ts, 3);
        assert_eq!(fl[0].steps, 2);
        let sl = spans(&events);
        assert_eq!(sl.len(), 1);
        assert_eq!((sl[0].name, sl[0].ts, sl[0].dur), ("job", 5, 4));
    }

    #[test]
    fn validate_catches_malformed_traces() {
        let backwards = vec![
            ev(Phase::Instant, Category::Noc, 0, 5, "a", 0),
            ev(Phase::Instant, Category::Noc, 0, 3, "b", 0),
        ];
        assert!(validate(&backwards).is_err());
        let orphan_step = vec![ev(Phase::FlowStep, Category::Noc, 0, 1, "hop", 9)];
        assert!(validate(&orphan_step).is_err());
        let twice = vec![
            ev(Phase::FlowBegin, Category::Noc, 0, 1, "packet", 9),
            ev(Phase::FlowBegin, Category::Noc, 0, 2, "packet", 9),
        ];
        assert!(validate(&twice).is_err());
        // A retrospective slice may start before the track's last
        // timestamp: it is written when its scope closes.
        let late_slice = vec![
            ev(Phase::Instant, Category::Batch, 0, 5, "a", 0),
            ev(Phase::Complete, Category::Batch, 0, 1, "job", 0),
        ];
        assert!(validate(&late_slice).is_ok());
    }

    #[test]
    fn export_emits_required_keys_and_metadata() {
        let t = Tracer::new(16);
        t.enable_all();
        let r = t.recorder();
        r.record(ev(Phase::FlowBegin, Category::Noc, 2, 4, "packet", 0x2a));
        r.record(Event {
            detail: Detail::of("canny#15"),
            dur: 3,
            ..ev(Phase::Complete, Category::Batch, 0, 9, "design", 0)
        });
        let json = export_chrome_json(&t.take());
        assert!(json.contains("\"schema\":\"hic-trace/v1\""));
        assert!(json.contains("\"ph\":\"b\""));
        assert!(json.contains("\"id\":\"0x2a\""));
        assert!(json.contains("\"name\":\"design canny#15\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":3"));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"tid\":2"));
    }

    #[test]
    fn recorders_get_distinct_lanes() {
        let t = Tracer::new(8);
        let a = t.recorder();
        let b = t.recorder();
        assert_ne!(a.tid(), b.tid());
    }

    #[test]
    fn global_free_functions_are_safe_when_disabled() {
        // The global tracer defaults to all-disabled; this must be a
        // cheap no-op that never touches the TLS recorder.
        instant(Category::Design, "noop", "", 0);
        // Nothing asserted beyond "no panic": other tests running in
        // parallel may have enabled categories on the global tracer.
    }
}
