//! Trace replay: drive a real [`Profiler`] from a parsed [`Trace`].
//!
//! Replay is deliberately thin — every attribution decision (shadow
//! memory, UMA sets, cold reads, self-communication) is made by the
//! same `hic_profiling::Profiler` that instruments the built-in
//! applications, so a trace and an instrumented run of the same access
//! pattern produce the same [`CommGraph`] by construction.
//!
//! The profiler panics on malformed use (unbalanced `exit`, accesses
//! outside any scope); replay pre-validates each event and turns those
//! cases into [`TraceError`]s carrying the offending source line
//! instead. Accesses out of the parser's bounds are refused the same
//! way, so a trace built with [`Trace::from_events`] cannot get past
//! them either. Scopes still open at end-of-trace are implicitly closed
//! (the profiler itself never requires balance).
//!
//! **Kernel promotion rule.** The first function the trace enters is
//! the host (`main` in emitted traces); every *other function the trace
//! enters* is promoted to a hardware kernel, in registration order.
//! Functions declared with `func` but never entered stay on the host
//! side. Kernel cycle counts derive from replayed traffic exactly as in
//! measured built-in apps: a pipelined kernel sustains one 4-byte word
//! per kernel cycle, software costs 10 host cycles per word (see
//! `hic_apps::common`). Resources and the duplicable/streamable traits
//! have no trace counterpart, so they derive deterministically from a
//! hash of the function name.

use crate::tracefmt::{check_access, Trace, TraceError, TraceEvent};
use crate::Workload;
use hic_fabric::resource::Resources;
use hic_fabric::time::Frequency;
use hic_fabric::{AppSpec, FunctionId, HostSpec, KernelId, KernelSpec};
use hic_profiling::Profiler;
use std::collections::BTreeMap;

/// Kernel-clock bytes per cycle (mirrors `hic_apps::common`).
pub const HW_BYTES_PER_CYCLE: u64 = 4;
/// Host cycles per touched word in software (mirrors `hic_apps::common`).
pub const SW_CYCLES_PER_ACCESS: u64 = 10;

/// Replay `trace` through a fresh profiler and assemble the measured
/// application named `name`. See the module docs for the promotion and
/// derivation rules.
pub fn replay(trace: &Trace, name: &str) -> Result<Workload, TraceError> {
    let mut prof = Profiler::new();
    let mut depth = 0usize;
    // FunctionIds in first-enter order; the first is the host.
    let mut entered: Vec<FunctionId> = Vec::new();

    for (ev, &line) in trace.events.iter().zip(&trace.lines) {
        match ev {
            TraceEvent::Func(n) => {
                prof.register(n);
            }
            TraceEvent::Enter(n) => {
                let fid = prof.register(n);
                if !entered.contains(&fid) {
                    entered.push(fid);
                }
                prof.enter(fid);
                depth += 1;
            }
            TraceEvent::Exit => {
                if depth == 0 {
                    return Err(TraceError {
                        line,
                        msg: "exit with no function on the stack".into(),
                    });
                }
                prof.exit();
                depth -= 1;
            }
            TraceEvent::Write { addr, len } => {
                if depth == 0 {
                    return Err(TraceError {
                        line,
                        msg: "write outside any function scope".into(),
                    });
                }
                check_access(*addr, *len).map_err(|msg| TraceError { line, msg })?;
                prof.write(*addr, *len);
            }
            TraceEvent::Read { addr, len } => {
                if depth == 0 {
                    return Err(TraceError {
                        line,
                        msg: "read outside any function scope".into(),
                    });
                }
                check_access(*addr, *len).map_err(|msg| TraceError { line, msg })?;
                prof.read(*addr, *len);
            }
        }
    }

    if entered.len() < 2 {
        return Err(TraceError {
            line: 0,
            msg: format!(
                "trace enters {} function(s); need a host plus at least one kernel",
                entered.len()
            ),
        });
    }

    let graph = prof.graph();
    prof.publish_metrics(hic_obs::global(), "profile");

    // Promote every entered non-root function, in *registration* order
    // (stable across traces that enter functions in different orders).
    let host = entered[0];
    let mut kernel_of: BTreeMap<FunctionId, KernelId> = BTreeMap::new();
    let mut specs = Vec::new();
    for idx in 0..prof.n_functions() as u32 {
        let fid = FunctionId::new(idx);
        if fid == host || !entered.contains(&fid) {
            continue;
        }
        let kid = KernelId::new(specs.len() as u32);
        kernel_of.insert(fid, kid);
        let stats = prof.fn_stats(fid);
        let touched = stats.bytes_read + stats.bytes_written;
        let fname = prof.name(fid);
        let traits_ = KernelTraits::of(fname);
        let mut spec = KernelSpec::new(
            kid,
            fname,
            (touched / HW_BYTES_PER_CYCLE).max(1),
            (touched / HW_BYTES_PER_CYCLE).max(1) * SW_CYCLES_PER_ACCESS,
            traits_.resources,
        );
        spec.duplicable = traits_.duplicable;
        spec.streamable = traits_.streamable;
        specs.push(spec);
    }

    let host_cycles: u64 = (0..prof.n_functions() as u32)
        .map(FunctionId::new)
        .filter(|f| !kernel_of.contains_key(f))
        .map(|f| {
            let s = prof.fn_stats(f);
            (s.bytes_read + s.bytes_written) / HW_BYTES_PER_CYCLE * SW_CYCLES_PER_ACCESS
        })
        .sum();

    let edges = graph.collapse(&kernel_of);
    let app = AppSpec::new(
        name,
        HostSpec::powerpc_400mhz(),
        Frequency::from_mhz(100),
        specs,
        edges,
        host_cycles,
    )
    .map_err(|e| TraceError {
        line: 0,
        msg: format!("replayed trace does not form a valid application: {e}"),
    })?;

    Ok(Workload { app, graph })
}

/// Deterministic per-name kernel traits for functions that arrive via a
/// trace (no synthesis data to draw on).
struct KernelTraits {
    resources: Resources,
    duplicable: bool,
    streamable: bool,
}

impl KernelTraits {
    fn of(name: &str) -> KernelTraits {
        let h = fnv1a64(name.as_bytes());
        KernelTraits {
            // Same 800..4000 band the synthetic generator uses.
            resources: Resources::new(800 + h % 3200, 800 + (h >> 16) % 3200),
            duplicable: (h >> 32) & 1 == 1,
            streamable: (h >> 33) & 1 == 1,
        }
    }
}

/// FNV-1a over bytes (64-bit), for trait derivation only.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Trace {
        Trace::parse(text).unwrap()
    }

    #[test]
    fn simple_pipeline_replays_to_app_and_graph() {
        let t = parse(
            "func main\nfunc k0\nfunc k1\n\
             enter main\nwrite 0 64\nexit\n\
             enter k0\nread 0 64\nwrite 100 64\nexit\n\
             enter k1\nread 100 64\nwrite 200 64\nexit\n\
             enter main\nread 200 64\nexit\n",
        );
        let w = replay(&t, "demo").unwrap();
        assert_eq!(w.app.name, "demo");
        assert_eq!(w.app.n_kernels(), 2);
        assert!(w.app.validate().is_ok());
        // main -> k0 -> k1 -> main, 64 bytes each.
        assert_eq!(w.graph.edges.len(), 3);
        assert!(w.graph.edges.iter().all(|e| e.bytes == 64 && e.umas == 64));
        // k0 touched 128 bytes => 32 compute cycles, 320 sw cycles.
        assert_eq!(w.app.kernel(KernelId::new(0)).compute_cycles, 32);
        assert_eq!(w.app.kernel(KernelId::new(0)).sw_cycles, 320);
        // Host touched 128 bytes => 320 host cycles.
        assert_eq!(w.app.host_cycles, 320);
    }

    #[test]
    fn replay_is_deterministic() {
        let text = "func m\nfunc a\nfunc b\n\
                    enter m\nwrite 0 32\nexit\n\
                    enter a\nread 0 32\nwrite 64 16\nexit\n\
                    enter b\nread 64 16\nwrite 128 8\nexit\n\
                    enter m\nread 128 8\nexit\n";
        let w1 = replay(&parse(text), "x").unwrap();
        let w2 = replay(&parse(text), "x").unwrap();
        assert_eq!(w1.graph, w2.graph);
        assert_eq!(w1.app, w2.app);
        assert_eq!(
            serde_json::to_string(&w1.app).unwrap(),
            serde_json::to_string(&w2.app).unwrap()
        );
    }

    #[test]
    fn unbalanced_exit_is_a_structured_error() {
        let e = replay(&parse("func a\nenter a\nexit\nexit\n"), "x").unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.msg.contains("no function on the stack"), "{e}");
    }

    #[test]
    fn access_outside_scope_is_a_structured_error() {
        let e = replay(&parse("func a\nwrite 0 4\n"), "x").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("outside any function scope"), "{e}");
        let e = replay(&parse("enter a\nexit\nread 0 4\n"), "x").unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn out_of_bounds_accesses_built_in_code_are_structured_errors() {
        let t = Trace::from_events(vec![
            TraceEvent::Enter("a".into()),
            TraceEvent::Write { addr: 0, len: 8 },
            TraceEvent::Read {
                addr: 0,
                len: crate::tracefmt::MAX_ACCESS_BYTES + 1,
            },
        ]);
        let e = replay(&t, "x").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("limit of one access"), "{e}");
    }

    #[test]
    fn single_function_traces_are_rejected() {
        let e = replay(&parse("enter only\nwrite 0 4\nexit\n"), "x").unwrap_err();
        assert!(e.msg.contains("host plus at least one kernel"), "{e}");
    }

    #[test]
    fn unclosed_scopes_at_eof_are_tolerated() {
        let t = parse(
            "enter main\nwrite 0 8\nenter k\nread 0 8\nwrite 16 8\nexit\nread 16 8\n", // main never exits
        );
        let w = replay(&t, "x").unwrap();
        assert_eq!(w.app.n_kernels(), 1);
        assert_eq!(w.graph.edges.len(), 2);
    }

    #[test]
    fn declared_but_never_entered_functions_stay_on_the_host() {
        let t = parse(
            "func main\nfunc idle\nfunc k\n\
             enter main\nwrite 0 8\nexit\nenter k\nread 0 8\nwrite 8 8\nexit\nenter main\nread 8 8\nexit\n",
        );
        let w = replay(&t, "x").unwrap();
        assert_eq!(w.app.n_kernels(), 1);
        assert_eq!(w.app.kernel(KernelId::new(0)).name, "k");
    }

    #[test]
    fn kernel_traits_are_name_stable() {
        let a = KernelTraits::of("stage_a");
        let b = KernelTraits::of("stage_a");
        assert_eq!(a.resources, b.resources);
        assert!(a.resources.luts >= 800 && a.resources.luts < 4000);
        assert!(a.resources.regs >= 800 && a.resources.regs < 4000);
    }
}
