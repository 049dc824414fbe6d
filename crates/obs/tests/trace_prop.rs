//! Property tests for the flight recorder: well-formed instrumentation
//! scripts always validate (per-track monotonic timestamps, flows begun
//! before they step) and read back as properly nested slices, the ring
//! bound holds for any event volume, and the Chrome trace-event export
//! parses as JSON and round-trips through the parser unchanged.

use hic_obs::trace::{
    export_chrome_json, flows, spans, validate, Category, Detail, Event, Phase, Tracer,
};
use proptest::prelude::*;

const NAMES: [&str; 3] = ["alpha", "beta", "gamma"];

/// Building blocks for hostile dynamic labels in the export test.
const PALETTE: [&str; 6] = ["canny#15", "\"", "\\", "\n", "é", "a b"];

/// One step of a wall-clock instrumentation script. `Open`/`Close` act
/// like a stage guard's scope: `Close` pops the innermost open scope and
/// writes its retrospective `Complete` slice, as the guard does on drop.
#[derive(Debug, Clone)]
enum Op {
    Open(usize),
    Close,
    Instant(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..NAMES.len()).prop_map(Op::Open),
        Just(Op::Close),
        (0..NAMES.len()).prop_map(Op::Instant),
    ]
}

fn lane_ev(phase: Phase, ts: u64, dur: u64, name: &'static str) -> Event {
    Event {
        ts,
        dur,
        id: 0,
        arg: 0,
        name,
        detail: Detail::EMPTY,
        phase,
        cat: Category::Batch,
        tid: 0,
    }
}

fn flow_ev(phase: Phase, ts: u64, id: u64, arg: u64) -> Event {
    Event {
        ts,
        dur: 0,
        id,
        arg,
        name: "packet",
        detail: Detail::EMPTY,
        phase,
        cat: Category::Noc,
        tid: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn balanced_scripts_validate_and_flows_reconstruct(
        ops in proptest::collection::vec(op_strategy(), 0..120),
        nflows in 0usize..16,
        steps in proptest::collection::vec(0u32..4, 16),
    ) {
        let t = Tracer::new(4096);
        t.enable_all();
        let r = t.recorder();

        // Wall-clock lane on a manual clock that ticks every op: scopes
        // close innermost-first (leftovers at the end), each writing a
        // slice that starts where it opened.
        let mut now = 0u64;
        let mut stack: Vec<(&'static str, u64)> = Vec::new();
        let mut opened = 0usize;
        let close = |(name, ts): (&'static str, u64), now: u64| {
            r.record(lane_ev(Phase::Complete, ts, now - ts, name));
        };
        for op in &ops {
            now += 1;
            match op {
                Op::Open(i) => {
                    stack.push((NAMES[*i], now));
                    opened += 1;
                }
                Op::Close => {
                    if let Some(open) = stack.pop() {
                        close(open, now);
                    }
                }
                Op::Instant(i) => r.record(lane_ev(Phase::Instant, now, 0, NAMES[*i])),
            }
        }
        while let Some(open) = stack.pop() {
            now += 1;
            close(open, now);
        }

        // NoC flows with manual timestamps: each id begins before it
        // steps or ends, timestamps strictly increase.
        let mut ts = 0u64;
        for id in 0..nflows as u64 {
            r.record(flow_ev(Phase::FlowBegin, ts, id, 0));
            ts += 1;
            for s in 0..steps[id as usize] {
                r.record(flow_ev(Phase::FlowStep, ts, id, s as u64));
                ts += 1;
            }
            r.record(flow_ev(Phase::FlowEnd, ts, id, ts));
            ts += 1;
        }

        let trace = t.take();
        prop_assert!(
            validate(&trace.events).is_ok(),
            "well-formed script must validate: {:?}",
            validate(&trace.events)
        );
        // Every scope reads back as one slice, and any two slices on the
        // lane are disjoint or nested — never partially overlapping.
        let sl: Vec<_> = spans(&trace.events)
            .into_iter()
            .filter(|s| s.cat == Category::Batch)
            .collect();
        prop_assert_eq!(sl.len(), opened, "one slice per scope");
        for a in &sl {
            for b in &sl {
                let (a0, a1, b0, b1) = (a.ts, a.ts + a.dur, b.ts, b.ts + b.dur);
                let disjoint = a1 <= b0 || b1 <= a0;
                let nested = (a0 <= b0 && b1 <= a1) || (b0 <= a0 && a1 <= b1);
                prop_assert!(disjoint || nested, "slices overlap: {:?} {:?}", a, b);
            }
        }

        let fl = flows(&trace.events);
        prop_assert_eq!(fl.len(), nflows, "every completed flow reconstructs");
        for f in &fl {
            prop_assert_eq!(f.steps, steps[f.id as usize], "step count survives");
            prop_assert_eq!(
                f.end_ts - f.begin_ts,
                (f.steps + 1) as u64,
                "flow latency is end - begin"
            );
        }
    }

    #[test]
    fn the_ring_bounds_memory_for_any_event_volume(
        n in 0usize..400,
        cap in 1usize..64,
    ) {
        let t = Tracer::new(cap);
        t.set_enabled(Category::Sim, true);
        let r = t.recorder();
        for i in 0..n as u64 {
            r.record(Event {
                ts: i,
                dur: 0,
                id: 0,
                arg: i,
                name: "tick",
                detail: Detail::EMPTY,
                phase: Phase::Instant,
                cat: Category::Sim,
                tid: 0,
            });
        }
        let tr = t.take();
        prop_assert!(tr.events.len() <= cap, "ring never exceeds its capacity");
        prop_assert_eq!(
            tr.events.len() + tr.dropped as usize,
            n,
            "kept + dropped accounts for every event"
        );
        if n > 0 {
            prop_assert_eq!(
                tr.events.last().unwrap().ts,
                n as u64 - 1,
                "the newest event survives"
            );
        }
    }

    #[test]
    fn export_parses_as_json_and_round_trips(
        details in proptest::collection::vec((0usize..PALETTE.len(), 1usize..5), 1..20),
    ) {
        let t = Tracer::new(1024);
        t.enable_all();
        let r = t.recorder();
        for (i, &(pal, n)) in details.iter().enumerate() {
            // Hostile detail strings (quotes, backslashes, control and
            // multi-byte chars) must survive JSON escaping.
            let d = PALETTE[pal].repeat(n);
            r.instant(Category::Design, "point", Detail::of(&d), i as u64);
        }
        r.record(flow_ev(Phase::FlowBegin, 1, 42, 0));
        r.record(flow_ev(Phase::FlowEnd, 9, 42, 8));
        let trace = t.take();
        let n_events = trace.events.len();
        let json = export_chrome_json(&trace);

        let v = serde_json::parse(&json).expect("export must parse as JSON");
        prop_assert_eq!(v["schema"].as_str().unwrap(), "hic-trace/v1");
        let evs = v["traceEvents"].as_seq().unwrap();
        // Records plus one process_name metadata event per category
        // present (design + noc here).
        prop_assert_eq!(evs.len(), n_events + 2);

        // Round-trip: re-serializing the parsed tree and parsing again
        // reproduces the same value.
        let reparsed = serde_json::parse(&serde_json::to_string(&v).unwrap()).unwrap();
        prop_assert_eq!(&v, &reparsed, "export must round-trip");
    }
}
