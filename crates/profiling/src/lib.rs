//! # hic-profiling — QUAD-style data-communication profiling
//!
//! A reimplementation of the measurement core of the QUAD toolset
//! (Ostadzadeh et al., ARC 2010), which the paper uses to obtain the
//! quantitative data-communication profile that drives interconnect
//! synthesis.
//!
//! QUAD instruments a running application and attributes every memory read
//! to the function that last wrote the address, accumulating per
//! (producer, consumer) pair the number of bytes transferred and the number
//! of Unique Memory Addresses (UMAs) involved. The output is a communication
//! graph like the paper's Fig. 5.
//!
//! The original QUAD observes native binaries through dynamic binary
//! instrumentation (Pin). Here the applications are Rust functions that
//! perform their memory traffic through an instrumented [`buffer::Buf`]
//! over a virtual address space — same attribution semantics, no DBI
//! needed. The tracer is exact, not sampled:
//!
//! * a **write** of byte `a` by function `f` sets `shadow[a] = f`;
//! * a **read** of byte `a` by function `g` with `shadow[a] = f`, `f ≠ g`,
//!   adds one byte to the edge `f → g` and inserts `a` into the edge's UMA
//!   set.
//!
//! Both structures are paged so that no byte costs a hash operation. The
//! shadow is a table of 4 KiB pages keyed by `addr >> 12`, each holding
//! one `u32` per address (the last writer's index + 1, 0 = never
//! written), with a 64-entry direct-mapped cache of recently used pages
//! in front of it. A write fills one slice per page it touches; a read
//! walks the bytes one page slice at a time and charges each run of
//! bytes from one writer in bulk, and a read of a page nobody wrote
//! counts cold reads without allocating it. Each edge keeps its UMA set
//! as a bitset paged the same way (512 B per 4 KiB of addresses) plus a
//! running count, and the edge accumulators sit in a `Vec` behind a
//! `(src, dst)` index with a direct-mapped cache of recent pairs.
//!
//! An access inside one page — every element access of the built-in
//! apps — skips the slicing, and memos make it one compare per
//! structure: the shadow remembers the last page read and the last page
//! written, and the edges remember recent `(page, writer, reader)`
//! charges with the pair's index and the page's UMA words. A read whose
//! bytes all have one writer is then one memo compare, one byte charge
//! and one bit-or.
//!
//! [`graph::CommGraph`] is the queryable result; it exports Graphviz DOT
//! (Fig. 5) and collapses to the kernel-level [`hic_fabric::CommEdge`] list
//! that the design algorithm consumes.

#![warn(missing_docs)]

pub mod buffer;
pub mod graph;
pub mod profiler;
pub mod record;

pub use buffer::{Arena, Buf};
pub use graph::{CommGraph, GraphEdge};
pub use profiler::{FnGuard, Profiler};
pub use record::{Recording, TraceOp};
