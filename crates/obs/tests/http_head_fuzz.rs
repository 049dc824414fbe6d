//! No-panic properties for the metrics endpoint's request-head parser:
//! any byte string must come back from `parse_request_line` as a
//! (method, path) pair of whitespace-free words — never as a panic.
//!
//! Uniform bytes rarely look like a request, so the second property
//! splices heads from a palette of methods, paths, versions, header
//! lines and separators.

use hic_obs::expo::parse_request_line;
use proptest::prelude::*;

const TOKENS: &[&str] = &[
    "GET",
    "HEAD",
    "POST",
    "get",
    "/",
    "/metrics",
    "/healthz",
    "/statusz",
    "/metrics?x=1",
    "HTTP/1.1",
    "HTTP/1.0",
    " ",
    "\t",
    "\r\n",
    "\n",
    "\r",
    "\r\n\r\n",
    "Host: localhost",
    "Connection: close",
    ":",
    "é",
    "\u{0}",
    "\u{a0}",
    "\u{2028}",
    "\u{feff}",
];

/// Both words must be free of whitespace, and the method only empty
/// when the whole first line is blank.
fn check(head: &[u8]) {
    let (method, path) = parse_request_line(head);
    assert!(!method.contains(char::is_whitespace), "{method:?}");
    assert!(!path.contains(char::is_whitespace), "{path:?}");
    if method.is_empty() {
        assert!(path.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn request_line_never_panics_on_raw_bytes(
        head in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        check(&head);
    }

    #[test]
    fn request_line_never_panics_on_spliced_tokens(
        pieces in proptest::collection::vec(
            prop_oneof![
                (0..TOKENS.len()).prop_map(|i| TOKENS[i].as_bytes().to_vec()),
                proptest::collection::vec(any::<u8>(), 1..4),
            ],
            0..24,
        ),
    ) {
        check(&pieces.concat());
    }

    #[test]
    fn well_formed_request_lines_round_trip(
        m in 0..3usize,
        p in 3..9usize,
        rest in 11..TOKENS.len(),
    ) {
        let head = format!("{} {} HTTP/1.1\r\n{}\r\n\r\n", TOKENS[m], TOKENS[p], TOKENS[rest]);
        let (method, path) = parse_request_line(head.as_bytes());
        prop_assert_eq!(method, TOKENS[m]);
        prop_assert_eq!(path, TOKENS[p]);
    }
}

#[test]
fn short_and_empty_heads_yield_empty_words() {
    assert_eq!(parse_request_line(b""), (String::new(), String::new()));
    assert_eq!(
        parse_request_line(b"\r\n\r\n"),
        (String::new(), String::new())
    );
    assert_eq!(
        parse_request_line(b"GET\r\n\r\n"),
        ("GET".to_string(), String::new())
    );
    assert_eq!(
        parse_request_line(b"GET /metrics HTTP/1.1 extra\r\nHost: x\r\n\r\n"),
        ("GET".to_string(), "/metrics".to_string())
    );
}
