//! The `hic-trace` line-delimited memory-access trace format.
//!
//! A trace is a plain-text transcript of a profiled run — exactly the
//! operation stream a [`hic_profiling::Profiler`] would observe from an
//! instrumented application, one event per line:
//!
//! ```text
//! # comment (ignored), blank lines too
//! func <name>            # declare a function (registration order)
//! enter <name>           # push <name> on the call stack
//! exit                   # pop the call stack
//! write <addr> <len>     # current function writes len bytes at addr
//! read <addr> <len>      # current function reads len bytes at addr
//! ```
//!
//! `<addr>` and `<len>` are unsigned integers, decimal or `0x`-hex. An
//! access may not run past the end of the address space, nor be longer
//! than [`MAX_ACCESS_BYTES`].
//! `func` lines are optional for hand-written traces (an `enter` of an
//! unknown name registers it), but emitted traces always declare every
//! function up front so the replayed profiler registers names in the
//! original order — that is what makes a round-trip through the format
//! reproduce a [`CommGraph`](hic_profiling::CommGraph) byte-identically,
//! including the order of its `functions` table.
//!
//! Attribution semantics are *not* defined here: a trace is replayed
//! through the real [`hic_profiling::Profiler`] (see [`crate::replay`]),
//! so traces and instrumented apps share one QUAD implementation.

use hic_profiling::{Recording, TraceOp};
use std::fmt::Write as _;

/// Longest single access a trace may carry: 16 MiB. The generator's
/// largest access is 12 MiB (1 MiB mean × 150% jitter × 8 for a hotspot
/// edge); a longer one is refused instead of replayed byte by byte.
pub const MAX_ACCESS_BYTES: u64 = 1 << 24;

/// Why the access `addr`/`len` is out of bounds, if it is: it overflows
/// the address space or exceeds [`MAX_ACCESS_BYTES`].
pub(crate) fn check_access(addr: u64, len: u64) -> Result<(), String> {
    if addr.checked_add(len).is_none() {
        return Err(format!("{addr}+{len} overflows the address space"));
    }
    if len > MAX_ACCESS_BYTES {
        return Err(format!(
            "length {len} exceeds the {MAX_ACCESS_BYTES}-byte limit of one access"
        ));
    }
    Ok(())
}

/// One trace line, parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// `func <name>` — register a function without entering it.
    Func(String),
    /// `enter <name>`.
    Enter(String),
    /// `exit`.
    Exit,
    /// `write <addr> <len>`.
    Write {
        /// First byte address.
        addr: u64,
        /// Byte count.
        len: u64,
    },
    /// `read <addr> <len>`.
    Read {
        /// First byte address.
        addr: u64,
        /// Byte count.
        len: u64,
    },
}

/// A parse or replay problem, anchored to a 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number in the trace text.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for TraceError {}

/// A parsed trace: events plus the source line each came from, so
/// replay diagnostics can point back into the text.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Events in file order.
    pub events: Vec<TraceEvent>,
    /// 1-based source line of each event (parallel to `events`).
    pub lines: Vec<usize>,
}

impl Trace {
    /// Wrap a synthesized event list; line numbers are assigned as the
    /// events would render (one per line, starting at 1).
    pub fn from_events(events: Vec<TraceEvent>) -> Trace {
        let lines = (1..=events.len()).collect();
        Trace { events, lines }
    }

    /// Parse trace text. Blank lines and `#` comments are skipped;
    /// anything else must be a well-formed event.
    pub fn parse(text: &str) -> Result<Trace, TraceError> {
        let mut t = Trace::default();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let s = raw.trim();
            if s.is_empty() || s.starts_with('#') {
                continue;
            }
            t.events.push(parse_event(s, line)?);
            t.lines.push(line);
        }
        Ok(t)
    }

    /// Render the trace as text, one event per line. `parse` of the
    /// result reproduces `self.events` exactly.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            match e {
                TraceEvent::Func(n) => writeln!(out, "func {n}"),
                TraceEvent::Enter(n) => writeln!(out, "enter {n}"),
                TraceEvent::Exit => writeln!(out, "exit"),
                TraceEvent::Write { addr, len } => writeln!(out, "write {addr} {len}"),
                TraceEvent::Read { addr, len } => writeln!(out, "read {addr} {len}"),
            }
            .expect("write to String cannot fail");
        }
        out
    }

    /// Convert a captured profiler [`Recording`] into a trace: `func`
    /// declarations in registration order, then the operation stream.
    pub fn from_recording(rec: &Recording) -> Trace {
        let mut events = Vec::with_capacity(rec.names.len() + rec.ops.len());
        for n in &rec.names {
            events.push(TraceEvent::Func(n.clone()));
        }
        for op in &rec.ops {
            events.push(match *op {
                TraceOp::Enter(i) => TraceEvent::Enter(rec.names[i as usize].clone()),
                TraceOp::Exit => TraceEvent::Exit,
                TraceOp::Write { addr, len } => TraceEvent::Write { addr, len },
                TraceOp::Read { addr, len } => TraceEvent::Read { addr, len },
            });
        }
        Trace::from_events(events)
    }
}

fn parse_event(s: &str, line: usize) -> Result<TraceEvent, TraceError> {
    let err = |msg: String| TraceError { line, msg };
    let mut parts = s.split_whitespace();
    let kw = parts.next().expect("non-empty after trim");
    let ev = match kw {
        "func" | "enter" => {
            let name = parts
                .next()
                .ok_or_else(|| err(format!("{kw} needs a function name")))?;
            if kw == "func" {
                TraceEvent::Func(name.to_string())
            } else {
                TraceEvent::Enter(name.to_string())
            }
        }
        "exit" => TraceEvent::Exit,
        "write" | "read" => {
            let addr = parts
                .next()
                .ok_or_else(|| err(format!("{kw} needs <addr> <len>")))?;
            let len = parts
                .next()
                .ok_or_else(|| err(format!("{kw} needs <addr> <len>")))?;
            let addr = parse_u64(addr).ok_or_else(|| err(format!("bad address '{addr}'")))?;
            let len = parse_u64(len).ok_or_else(|| err(format!("bad length '{len}'")))?;
            check_access(addr, len).map_err(err)?;
            if kw == "write" {
                TraceEvent::Write { addr, len }
            } else {
                TraceEvent::Read { addr, len }
            }
        }
        other => {
            return Err(err(format!(
                "unknown event '{other}' (func|enter|exit|write|read)"
            )))
        }
    };
    if let Some(extra) = parts.next() {
        return Err(err(format!("trailing tokens starting at '{extra}'")));
    }
    Ok(ev)
}

/// Parse decimal or `0x`-prefixed hex.
fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_event_shape_and_radix() {
        let t = Trace::parse(
            "# a comment\n\nfunc main\nfunc k0\nenter main\nwrite 0x10 4\nexit\nenter k0\nread 16 0x4\nexit\n",
        )
        .unwrap();
        assert_eq!(
            t.events,
            vec![
                TraceEvent::Func("main".into()),
                TraceEvent::Func("k0".into()),
                TraceEvent::Enter("main".into()),
                TraceEvent::Write { addr: 16, len: 4 },
                TraceEvent::Exit,
                TraceEvent::Enter("k0".into()),
                TraceEvent::Read { addr: 16, len: 4 },
                TraceEvent::Exit,
            ]
        );
        // Comment + blank skipped: first event sits on line 3.
        assert_eq!(t.lines[0], 3);
    }

    #[test]
    fn render_parse_round_trips() {
        let t = Trace::parse("func a\nenter a\nwrite 0 8\nread 0 8\nexit\n").unwrap();
        let again = Trace::parse(&t.render()).unwrap();
        assert_eq!(t.events, again.events);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = Trace::parse("func a\nwobble 1 2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("unknown event"), "{e}");
        let e = Trace::parse("write 1\n").unwrap_err();
        assert!(e.msg.contains("<addr> <len>"), "{e}");
        let e = Trace::parse("read zz 4\n").unwrap_err();
        assert!(e.msg.contains("bad address"), "{e}");
        let e = Trace::parse("enter\n").unwrap_err();
        assert!(e.msg.contains("function name"), "{e}");
        let e = Trace::parse("exit now\n").unwrap_err();
        assert!(e.msg.contains("trailing"), "{e}");
        let e = Trace::parse(&format!("write {} 2\n", u64::MAX)).unwrap_err();
        assert!(e.msg.contains("overflows"), "{e}");
    }

    #[test]
    fn accesses_longer_than_the_limit_are_rejected_with_their_line() {
        let ok = format!("func a\nenter a\nwrite 0 {MAX_ACCESS_BYTES}\n");
        assert!(Trace::parse(&ok).is_ok());
        let e = Trace::parse("func a\nenter a\nwrite 0 18446744073709551614\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("exceeds"), "{e}");
        let e = Trace::parse(&format!("read 0x10 {}\n", MAX_ACCESS_BYTES + 1)).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.msg.contains("limit of one access"), "{e}");
    }

    #[test]
    fn recording_converts_with_declarations_first() {
        let rec = Recording {
            names: vec!["m".into(), "k".into()],
            ops: vec![
                TraceOp::Enter(0),
                TraceOp::Write { addr: 0, len: 2 },
                TraceOp::Exit,
                TraceOp::Enter(1),
                TraceOp::Read { addr: 0, len: 2 },
                TraceOp::Exit,
            ],
        };
        let t = Trace::from_recording(&rec);
        assert_eq!(t.events[0], TraceEvent::Func("m".into()));
        assert_eq!(t.events[1], TraceEvent::Func("k".into()));
        assert_eq!(t.events.len(), 8);
        let txt = t.render();
        assert!(txt.starts_with("func m\nfunc k\nenter m\n"), "{txt}");
    }
}
