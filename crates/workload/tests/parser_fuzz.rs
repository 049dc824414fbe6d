//! No-panic properties for the untrusted-input parsers of this crate:
//! any byte string, lossily decoded as UTF-8, must come back from
//! `GenSpec::parse` and `Trace::parse` as `Ok` or as their structured
//! error — never as a panic. A trace that parses, with accesses of at
//! most 1 MiB in total, must also replay to `Ok` or a `TraceError`.
//!
//! Uniform bytes rarely get past the first token, so each property also
//! splices inputs from a palette of the format's own tokens, separators
//! and edge-case numbers to reach the deeper branches.

use hic_workload::{replay, GenSpec, Trace, TraceEvent};
use proptest::prelude::*;

/// Raw bytes, lossily decoded.
fn raw_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..256)
        .prop_map(|b| String::from_utf8_lossy(&b).into_owned())
}

/// A concatenation of `palette` fragments and raw bytes, lossily decoded.
fn spliced(palette: &'static [&'static str]) -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        (0..palette.len()).prop_map(move |i| palette[i].as_bytes().to_vec()),
        proptest::collection::vec(any::<u8>(), 1..4),
    ];
    proptest::collection::vec(piece, 0..24)
        .prop_map(|pieces| String::from_utf8_lossy(&pieces.concat()).into_owned())
}

const GEN_TOKENS: &[&str] = &[
    "k",
    "fanout",
    "skew",
    "comm",
    "hostio",
    "bytes",
    "uma",
    "seed",
    "=",
    ",",
    " ",
    "0",
    "1",
    "64",
    "65",
    "-1",
    "+3",
    "1048576",
    "18446744073709551615",
    "18446744073709551616",
    "é",
    "\u{0}",
    "==",
    ",,",
];

const TRACE_TOKENS: &[&str] = &[
    "func",
    "enter",
    "exit",
    "write",
    "read",
    " ",
    "\t",
    "\n",
    "\r\n",
    "#",
    "main",
    "k0",
    "0x",
    "0X",
    "0xffffffffffffffff",
    "18446744073709551615",
    "18446744073709551616",
    "18446744073709551614",
    "0xfffffffffffff000",
    "0xffffffffffffeffe",
    "4095",
    "4096",
    "0x1000",
    "0xfff",
    "9000",
    "16777216",
    "16777217",
    "1",
    "0",
    "-1",
    "é",
    "\u{0}",
];

/// Well-formed trace lines over a few names and edge-case numbers,
/// inside an opening scope, so most inputs parse and reach the profiler.
fn trace_lines() -> impl Strategy<Value = String> {
    const NAMES: &[&str] = &["main", "k0", "k1"];
    const NUMS: &[&str] = &[
        "0",
        "1",
        "4095",
        "4096",
        "0xfff",
        "9000",
        "0xfffffffffffff000",
        "18446744073709551614",
        "16777216",
    ];
    let line = prop_oneof![
        (0..2usize, 0..NAMES.len()).prop_map(|(k, n)| format!(
            "{} {}",
            ["func", "enter"][k],
            NAMES[n]
        )),
        Just("exit".to_string()),
        (0..2usize, 0..NUMS.len(), 0..NUMS.len()).prop_map(|(k, a, l)| format!(
            "{} {} {}",
            ["write", "read"][k],
            NUMS[a],
            NUMS[l]
        )),
    ];
    proptest::collection::vec(line, 0..24).prop_map(|ls| format!("enter main\n{}", ls.join("\n")))
}

/// Bytes a parsed trace reads and writes in total.
fn access_bytes(t: &Trace) -> u64 {
    t.events
        .iter()
        .map(|e| match e {
            TraceEvent::Write { len, .. } | TraceEvent::Read { len, .. } => *len,
            _ => 0,
        })
        .fold(0, u64::saturating_add)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn genspec_parse_never_panics_on_raw_bytes(s in raw_text()) {
        let _ = GenSpec::parse(&s);
    }

    #[test]
    fn genspec_parse_never_panics_on_spliced_tokens(s in spliced(GEN_TOKENS)) {
        if let Ok(spec) = GenSpec::parse(&s) {
            // Whatever parses has a canonical form that parses back.
            prop_assert_eq!(GenSpec::parse(&spec.canonical()), Ok(spec));
        }
    }

    #[test]
    fn trace_parse_never_panics_on_raw_bytes(s in raw_text()) {
        let _ = Trace::parse(&s);
    }

    #[test]
    fn trace_parse_never_panics_on_spliced_tokens(s in spliced(TRACE_TOKENS)) {
        match Trace::parse(&s) {
            Ok(t) => {
                // Whatever parses renders to text that parses back.
                prop_assert_eq!(&Trace::parse(&t.render()).unwrap().events, &t.events);
                // ... and replays without a panic, to a workload or an error.
                if access_bytes(&t) <= 1 << 20 {
                    let _ = replay(&t, "fuzz");
                }
            }
            Err(e) => {
                let lines = s.lines().count().max(1);
                prop_assert!(e.line >= 1 && e.line <= lines, "{e} of {lines} lines");
            }
        }
    }

    #[test]
    fn parsed_traces_replay_without_panicking(s in trace_lines()) {
        if let Ok(t) = Trace::parse(&s) {
            if access_bytes(&t) <= 1 << 20 {
                if let Err(e) = replay(&t, "fuzz") {
                    prop_assert!(e.line <= s.lines().count(), "{e}");
                }
            }
        }
    }
}
