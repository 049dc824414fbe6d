//! No-panic properties for the hic-serve/v1 request parser: any byte
//! string, lossily decoded as UTF-8, must come back from
//! `parse_request` as a request or as a structured `RequestError` with
//! a known code — never as a panic or a crashed connection thread.

use hic_serve::protocol::parse_request;
use proptest::prelude::*;

/// The error codes a rejected request may carry.
const CODES: [&str; 2] = ["bad_request", "bad_app_source"];

/// Fragments of real requests: keys, verbs, values and JSON punctuation.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    "\\u",
    "\\u00e9",
    "\\ud800",
    "null",
    "true",
    "false",
    "-",
    "0",
    "1",
    "16",
    "1e999",
    "-1",
    "1.5",
    "18446744073709551616",
    "\"cmd\"",
    "\"submit\"",
    "\"status\"",
    "\"result\"",
    "\"inspect\"",
    "\"jobs\"",
    "\"stats\"",
    "\"ping\"",
    "\"shutdown\"",
    "\"kind\"",
    "\"design\"",
    "\"cosim\"",
    "\"batch\"",
    "\"profile\"",
    "\"app\"",
    "\"jpeg\"",
    "\"gen:k=99\"",
    "\"gen:k=8,seed=7\"",
    "\"trace:\"",
    "\"file:\"",
    "\"knobs\"",
    "\"job\"",
    "\"client\"",
    "\"failed\"",
    "\"slowest\"",
    " ",
    "é",
    "\u{0}",
];

fn request_line() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        (0..TOKENS.len()).prop_map(|i| TOKENS[i].as_bytes().to_vec()),
        proptest::collection::vec(any::<u8>(), 1..4),
    ];
    proptest::collection::vec(piece, 0..32)
        .prop_map(|pieces| String::from_utf8_lossy(&pieces.concat()).into_owned())
}

fn assert_structured(line: &str) {
    if let Err(e) = parse_request(line) {
        assert!(
            CODES.contains(&e.code),
            "unknown code {:?} for {line:?}",
            e.code
        );
        assert!(!e.msg.is_empty(), "empty message for {line:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_request_never_panics_on_raw_bytes(
        b in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        assert_structured(&String::from_utf8_lossy(&b));
    }

    #[test]
    fn parse_request_never_panics_on_spliced_tokens(line in request_line()) {
        assert_structured(&line);
    }
}

/// Regression: a line of deeply nested brackets used to recurse once per
/// level in the JSON parser and overflow the connection thread's stack,
/// aborting the daemon. It must be a structured `bad_request` instead.
#[test]
fn deeply_nested_request_is_a_bad_request_not_a_stack_overflow() {
    for open in ["[", "{\"a\":"] {
        let line = open.repeat(100_000);
        let e = parse_request(&line).expect_err("nesting this deep is rejected");
        assert_eq!(e.code, "bad_request", "{}", e.msg);
    }
}
