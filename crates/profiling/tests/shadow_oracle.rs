//! The paged profiler against a hashed reference.
//!
//! `Oracle` is the profiler as it was before shadow memory and UMA sets
//! became paged: one `HashMap<u64, FunctionId>` entry per written byte
//! and one `HashSet<u64>` per producer→consumer pair, copied verbatim
//! minus the recording seam. Random operation streams — nested scopes,
//! accesses of 0–9000 bytes on and across 4 KiB page boundaries, sparse
//! addresses up to `u64::MAX - len`, cold reads, self-reads and
//! overwrites — must leave both with the same graph, the same
//! per-function counters and the same published metrics.
//!
//! A second stream pins the profiler's single-page fast path: element
//! accesses of 1–8 bytes on three adjacent pages, made in short scopes by
//! six functions, so that its memos hit, miss, see non-uniform reads and
//! see overwrites between two reads under one memo key.

use hic_fabric::FunctionId;
use hic_profiling::graph::{CommGraph, GraphEdge};
use hic_profiling::profiler::FnStats;
use hic_profiling::Profiler;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// Accumulator for one producer→consumer pair.
#[derive(Debug, Default, Clone)]
struct PairAcc {
    bytes: u64,
    umas: HashSet<u64>,
}

/// The hashed reference profiler.
#[derive(Debug, Default)]
struct Oracle {
    names: Vec<String>,
    stack: Vec<FunctionId>,
    shadow: HashMap<u64, FunctionId>,
    pairs: HashMap<(FunctionId, FunctionId), PairAcc>,
    stats: Vec<FnStats>,
}

impl Oracle {
    fn register(&mut self, name: &str) -> FunctionId {
        if let Some(pos) = self.names.iter().position(|n| n == name) {
            return FunctionId::new(pos as u32);
        }
        self.names.push(name.to_string());
        self.stats.push(FnStats::default());
        FunctionId::new((self.names.len() - 1) as u32)
    }

    fn enter(&mut self, f: FunctionId) {
        assert!(f.index() < self.names.len(), "unregistered function {f}");
        self.stats[f.index()].calls += 1;
        self.stack.push(f);
    }

    fn exit(&mut self) {
        self.stack.pop().expect("exit() with empty function stack");
    }

    fn current(&self) -> FunctionId {
        *self
            .stack
            .last()
            .expect("memory access outside any function scope")
    }

    fn write(&mut self, addr: u64, len: u64) {
        let cur = self.current();
        self.stats[cur.index()].bytes_written += len;
        for a in addr..addr + len {
            self.shadow.insert(a, cur);
        }
    }

    fn read(&mut self, addr: u64, len: u64) {
        let cur = self.current();
        self.stats[cur.index()].bytes_read += len;
        for a in addr..addr + len {
            match self.shadow.get(&a) {
                Some(&w) if w != cur => {
                    let acc = self.pairs.entry((w, cur)).or_default();
                    acc.bytes += 1;
                    acc.umas.insert(a);
                }
                Some(_) => {} // self-communication is function-local, not an edge
                None => self.stats[cur.index()].cold_reads += 1,
            }
        }
    }

    fn fn_stats(&self, f: FunctionId) -> FnStats {
        self.stats[f.index()]
    }

    fn total_edge_bytes(&self) -> u64 {
        self.pairs.values().map(|p| p.bytes).sum()
    }

    fn publish_metrics(&self, reg: &hic_obs::Registry, prefix: &str) {
        let mut read = 0u64;
        let mut written = 0u64;
        let mut cold = 0u64;
        let mut calls = 0u64;
        for s in &self.stats {
            read += s.bytes_read;
            written += s.bytes_written;
            cold += s.cold_reads;
            calls += s.calls;
        }
        reg.counter(&format!("{prefix}.functions"))
            .add(self.names.len() as u64);
        reg.counter(&format!("{prefix}.calls")).add(calls);
        reg.counter(&format!("{prefix}.bytes.read")).add(read);
        reg.counter(&format!("{prefix}.bytes.written")).add(written);
        reg.counter(&format!("{prefix}.cold_reads")).add(cold);
        reg.counter(&format!("{prefix}.edges"))
            .add(self.pairs.len() as u64);
        reg.counter(&format!("{prefix}.edge_bytes"))
            .add(self.total_edge_bytes());
        let umas: u64 = self.pairs.values().map(|p| p.umas.len() as u64).sum();
        reg.counter(&format!("{prefix}.edge_umas")).add(umas);
    }

    fn graph(&self) -> CommGraph {
        let mut edges: Vec<GraphEdge> = self
            .pairs
            .iter()
            .map(|(&(src, dst), acc)| GraphEdge {
                src,
                dst,
                bytes: acc.bytes,
                umas: acc.umas.len() as u64,
            })
            .collect();
        edges.sort_by_key(|e| (e.src, e.dst));
        CommGraph {
            functions: self.names.clone(),
            edges,
        }
    }
}

/// One profiler operation; function and address choices are resolved
/// against the run's function count when applied.
#[derive(Debug, Clone)]
enum Op {
    Enter(u32),
    Exit,
    Write { addr: u64, len: u64 },
    Read { addr: u64, len: u64 },
}

const PAGE: u64 = 4096;

/// Regions accesses cluster around, so writes and reads overlap: the
/// bottom of the address space, page boundaries, a high page and the top.
const ANCHORS: [u64; 5] = [0, PAGE, 3 * PAGE, 1 << 40, u64::MAX - 4 * PAGE];

fn access() -> impl Strategy<Value = (u64, u64)> {
    let len = prop_oneof![0..16u64, 0..9000u64, (1..4u64).prop_map(|k| k * PAGE)];
    let addr = prop_oneof![
        (0..ANCHORS.len(), 0..3 * PAGE).prop_map(|(a, off)| ANCHORS[a].saturating_add(off)),
        (0..ANCHORS.len(), 1..8u64, 0..3u64)
            .prop_map(|(a, k, s)| ANCHORS[a].saturating_add(k * PAGE).saturating_sub(s)),
        any::<u64>(),
    ];
    (addr, len).prop_map(|(addr, len)| (addr.min(u64::MAX - len), len))
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..6u32).prop_map(Op::Enter),
        Just(Op::Exit),
        access().prop_map(|(addr, len)| Op::Write { addr, len }),
        access().prop_map(|(addr, len)| Op::Read { addr, len }),
        access().prop_map(|(addr, len)| Op::Read { addr, len }),
    ]
}

/// First of the three pages [`element_access`] works on.
const ELEMENT_BASE: u64 = 16 * PAGE;

/// A 1–8-byte access on one of three adjacent pages: at a page start,
/// ending exactly at a page end, one byte past it, or inside a grid of
/// 8-byte elements at any byte offset, so that it can partly overwrite an
/// element.
fn element_access() -> impl Strategy<Value = (u64, u64)> {
    (0..3u64, 1..9u64, 0..6u8, 0..12u64, 0..8u64).prop_map(|(p, len, at, k, sub)| {
        let page = ELEMENT_BASE + p * PAGE;
        let addr = match at {
            0 => page,
            1 => page + PAGE - len,
            2 => page + PAGE - len + 1,
            _ => page + 8 * k + sub,
        };
        (addr, len)
    })
}

/// A short scope: enter one of six functions, access elements, exit.
fn element_scope() -> impl Strategy<Value = Vec<Op>> {
    let access = prop_oneof![
        element_access().prop_map(|(addr, len)| Op::Write { addr, len }),
        element_access().prop_map(|(addr, len)| Op::Read { addr, len }),
        element_access().prop_map(|(addr, len)| Op::Read { addr, len }),
    ];
    (0..6u32, proptest::collection::vec(access, 1..8)).prop_map(|(f, body)| {
        let mut ops = vec![Op::Enter(f)];
        ops.extend(body);
        ops.push(Op::Exit);
        ops
    })
}

/// Drive both profilers through `ops` over `n` functions. Exits never
/// pop the outermost scope, so every access has a current function.
fn run(n: u32, ops: &[Op]) -> (Profiler, Oracle) {
    let mut p = Profiler::new();
    let mut o = Oracle::default();
    for i in 0..n {
        let name = format!("f{i}");
        assert_eq!(p.register(&name), o.register(&name));
    }
    p.enter(FunctionId::new(0));
    o.enter(FunctionId::new(0));
    let mut depth = 1;
    for op in ops {
        match *op {
            Op::Enter(f) => {
                let f = FunctionId::new(f % n);
                p.enter(f);
                o.enter(f);
                depth += 1;
            }
            Op::Exit if depth > 1 => {
                p.exit();
                o.exit();
                depth -= 1;
            }
            Op::Exit => {}
            Op::Write { addr, len } => {
                p.write(addr, len);
                o.write(addr, len);
            }
            Op::Read { addr, len } => {
                p.read(addr, len);
                o.read(addr, len);
            }
        }
    }
    (p, o)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn paged_profiler_matches_the_hashed_oracle(
        n in 1..6u32,
        ops in proptest::collection::vec(op(), 0..40),
    ) {
        let (p, o) = run(n, &ops);
        prop_assert_eq!(p.graph(), o.graph());
        for f in 0..n {
            let f = FunctionId::new(f);
            prop_assert_eq!(p.fn_stats(f), o.fn_stats(f), "function {}", f);
        }
        let (rp, ro) = (hic_obs::Registry::new(), hic_obs::Registry::new());
        p.publish_metrics(&rp, "profile");
        o.publish_metrics(&ro, "profile");
        prop_assert_eq!(rp.snapshot().counters, ro.snapshot().counters);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn element_accesses_match_the_hashed_oracle(
        scopes in proptest::collection::vec(element_scope(), 1..40),
    ) {
        let ops: Vec<Op> = scopes.concat();
        let (p, o) = run(6, &ops);
        prop_assert_eq!(p.graph(), o.graph());
        for f in 0..6 {
            let f = FunctionId::new(f);
            prop_assert_eq!(p.fn_stats(f), o.fn_stats(f), "function {}", f);
        }
    }
}

#[test]
fn rereads_across_a_page_boundary_count_bytes_not_addresses() {
    // Fixed case for the UMA de-duplication the proptest also covers.
    let ops = [
        Op::Write {
            addr: PAGE - 5,
            len: 10,
        },
        Op::Enter(1),
        Op::Read {
            addr: PAGE - 5,
            len: 10,
        },
        Op::Read {
            addr: PAGE - 3,
            len: 6,
        },
    ];
    let (p, o) = run(2, &ops);
    assert_eq!(p.graph(), o.graph());
    assert_eq!(p.graph().edges[0].bytes, 16);
    assert_eq!(p.graph().edges[0].umas, 10);
}
