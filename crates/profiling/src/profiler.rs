//! The shadow-memory tracer.
//!
//! State is paged and array-indexed rather than hashed per byte. The
//! shadow memory is a set of 4 KiB pages, each one `u32` per address
//! holding the last writer's index + 1 (0 = never written); a page table
//! keyed by `addr >> 12` finds a page, and a cache of the last few pages
//! used skips the lookup while accesses stay on them. Each producer→consumer pair
//! keeps its unique addresses in a bitset paged the same way (512 B per
//! 4 KiB of addresses) plus a running count, so a UMA insert is one bit
//! test. Reads walk the shadow one page slice at a time and charge each
//! run of bytes from one writer in bulk.
//!
//! An access inside one page (every element access is one) skips the
//! slicing and costs one memo compare per structure: the shadow remembers
//! the last page read and the last page written, and the pairs remember
//! recent `(page, writer, reader)` charges with their pair index and UMA
//! page. A uniform read, all of whose bytes have one writer, is then one
//! compare, one bulk charge and one bit-or. Every memo holds `Vec`
//! indices, which stay valid as pages are added.

use crate::graph::{CommGraph, GraphEdge};
use crate::record::{self, Recording, TraceOp};
use hic_fabric::FunctionId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Address bits covered by one page of shadow cells or UMA bits.
const PAGE_BITS: u32 = 12;
/// Addresses per page.
const PAGE: usize = 1 << PAGE_BITS;
/// `u64` words in one page of UMA bits.
const PAGE_WORDS: usize = PAGE / 64;
/// Page number no address has (pages are below `2^52`): an empty memo.
const NO_PAGE: u64 = u64::MAX;

/// Split the byte range `addr..addr + len` at page boundaries into
/// `(page, offset, bytes)` slices, in address order.
fn page_slices(mut addr: u64, mut len: u64) -> impl Iterator<Item = (u64, usize, usize)> {
    std::iter::from_fn(move || {
        if len == 0 {
            return None;
        }
        let off = (addr & (PAGE as u64 - 1)) as usize;
        let n = len.min((PAGE - off) as u64) as usize;
        let slice = (addr >> PAGE_BITS, off, n);
        addr = addr.wrapping_add(n as u64);
        len -= n as u64;
        Some(slice)
    })
}

/// The range `addr..addr + len` as one `(page, offset, bytes)` slice, if
/// it is non-empty and lies inside one page.
fn one_page(addr: u64, len: u64) -> Option<(u64, usize, usize)> {
    let off = (addr & (PAGE as u64 - 1)) as usize;
    // `len - 1` wraps for an empty range, which takes the general path.
    (len.wrapping_sub(1) < (PAGE - off) as u64).then_some((addr >> PAGE_BITS, off, len as usize))
}

/// Shadow pages the page table remembers without hashing. A kernel
/// streams between a few buffers, and their pages collide in a small
/// cache: canny missed an 8-entry one on a quarter of its lookups.
const SHADOW_RECENT: usize = 64;

/// UMA pages each pair's page table remembers. The charge memo in front
/// catches most accesses, and every pair holds a table, so it stays small.
const UMA_RECENT: usize = 8;

/// Sparse page table: page number → dense page index, with a small
/// cache of `RECENT` recently used pages in front of the map,
/// direct-mapped by the low bits of the page number. The map keeps the
/// default hasher: page numbers come from trace files too.
#[derive(Debug)]
struct PageTable<const RECENT: usize> {
    index: HashMap<u64, usize>,
    /// `(page, index)` pairs; [`NO_PAGE`] marks an empty slot.
    recent: [(u64, usize); RECENT],
}

impl<const RECENT: usize> Default for PageTable<RECENT> {
    fn default() -> Self {
        PageTable {
            index: HashMap::new(),
            recent: [(NO_PAGE, 0); RECENT],
        }
    }
}

impl<const RECENT: usize> PageTable<RECENT> {
    /// Dense index of `page`, if it was ever allocated.
    fn find(&mut self, page: u64) -> Option<usize> {
        let slot = self.recent[page as usize % RECENT];
        if slot.0 == page {
            return Some(slot.1);
        }
        self.find_in_map(page)
    }

    /// [`find`](Self::find) past a cache miss, kept out of line so the
    /// hit stays small enough to inline.
    #[inline(never)]
    fn find_in_map(&mut self, page: u64) -> Option<usize> {
        let i = *self.index.get(&page)?;
        self.recent[page as usize % RECENT] = (page, i);
        Some(i)
    }

    /// Dense index of `page`, allocating the next index if it is new;
    /// the flag is `true` when it was.
    fn find_or_insert(&mut self, page: u64) -> (usize, bool) {
        if let Some(i) = self.find(page) {
            return (i, false);
        }
        let i = self.index.len();
        self.index.insert(page, i);
        self.recent[page as usize % RECENT] = (page, i);
        (i, true)
    }
}

/// Last writer of every written address.
#[derive(Debug)]
struct Shadow {
    table: PageTable<SHADOW_RECENT>,
    /// Pages back to back, [`PAGE`] cells each: writer index + 1, or 0.
    cells: Vec<u32>,
    /// `(page, first cell)` of the last page read and of the last page
    /// written.
    last_read: (u64, usize),
    last_write: (u64, usize),
}

impl Default for Shadow {
    fn default() -> Self {
        Shadow {
            table: PageTable::default(),
            cells: Vec::new(),
            last_read: (NO_PAGE, 0),
            last_write: (NO_PAGE, 0),
        }
    }
}

impl Shadow {
    /// Offset of `page`'s first cell, if the page was ever written.
    fn find(&mut self, page: u64) -> Option<usize> {
        if self.last_read.0 != page {
            self.last_read = (page, self.table.find(page)? * PAGE);
        }
        Some(self.last_read.1)
    }

    /// Offset of `page`'s first cell, allocating a zeroed page if needed.
    fn find_or_alloc(&mut self, page: u64) -> usize {
        if self.last_write.0 != page {
            let (i, fresh) = self.table.find_or_insert(page);
            if fresh {
                self.cells.resize(self.cells.len() + PAGE, 0);
            }
            self.last_write = (page, i * PAGE);
        }
        self.last_write.1
    }
}

/// A set of addresses as a paged bitset with a running size.
#[derive(Debug, Default)]
struct AddrSet {
    table: PageTable<UMA_RECENT>,
    /// Pages back to back, [`PAGE_WORDS`] words each.
    words: Vec<u64>,
    len: u64,
}

impl AddrSet {
    /// Offset of `page`'s first word, allocating an empty page if needed.
    fn find_or_alloc(&mut self, page: u64) -> usize {
        let (i, fresh) = self.table.find_or_insert(page);
        if fresh {
            self.words.resize(self.words.len() + PAGE_WORDS, 0);
        }
        i * PAGE_WORDS
    }

    /// Insert the `n` addresses from `off` on the page whose first word
    /// is at `base` (`off + n <= PAGE`).
    fn insert_run(&mut self, base: usize, off: usize, n: usize) {
        let words = &mut self.words[base..base + PAGE_WORDS];
        let (mut bit, end) = (off, off + n);
        while bit < end {
            let (w, lo) = (bit / 64, bit % 64);
            let hi = (end - w * 64).min(64);
            // a re-read finds its bits set and skips the count
            let fresh = ((u64::MAX >> (64 - (hi - lo))) << lo) & !words[w];
            if fresh != 0 {
                self.len += u64::from(fresh.count_ones());
                words[w] |= fresh;
            }
            bit = w * 64 + hi;
        }
    }
}

/// Accumulator for one producer→consumer pair.
#[derive(Debug)]
struct PairAcc {
    src: FunctionId,
    dst: FunctionId,
    bytes: u64,
    umas: AddrSet,
}

/// Pair indices [`Pairs`] remembers without hashing, direct-mapped by
/// `(src, dst)`. A consumer that alternates between two producers (fluid's
/// `dens_s`/`dens_d`, canny's `dx`/`dy`) keeps both pairs here.
const PAIR_SLOTS: usize = 16;

/// Charges [`Pairs`] remembers, direct-mapped by `(page, src, dst)`. One
/// would miss on every access of a loop that reads two streams (jpeg
/// missed it on 58% of its reads).
const CHARGE_SLOTS: usize = 8;

/// A recent charge's `(page, src, dst)` with its pair index and the
/// offset of the page's UMA words.
#[derive(Debug, Clone, Copy)]
struct ChargeMemo {
    key: (u64, u32, u32),
    pair: usize,
    words: usize,
}

/// Every pair's accumulator, in first-seen order, behind a map from
/// `(src, dst)`, a cache of recent pairs and a memo of recent charges.
/// The map keeps the default hasher: function ids come from trace files.
#[derive(Debug)]
struct Pairs {
    accs: Vec<PairAcc>,
    index: HashMap<(FunctionId, FunctionId), usize>,
    /// `(src, dst, index)`; a `src` of `u32::MAX` marks an empty slot.
    recent: [(u32, u32, usize); PAIR_SLOTS],
    charges: [ChargeMemo; CHARGE_SLOTS],
}

impl Default for Pairs {
    fn default() -> Self {
        Pairs {
            accs: Vec::new(),
            index: HashMap::new(),
            recent: [(u32::MAX, 0, 0); PAIR_SLOTS],
            charges: [ChargeMemo {
                key: (NO_PAGE, 0, 0),
                pair: 0,
                words: 0,
            }; CHARGE_SLOTS],
        }
    }
}

impl Pairs {
    /// Index of the `src → dst` accumulator, created if new.
    fn find_or_insert(&mut self, src: u32, dst: u32) -> usize {
        let slot = &mut self.recent[(src as usize * 5 + dst as usize) % PAIR_SLOTS];
        if (slot.0, slot.1) == (src, dst) {
            return slot.2;
        }
        let (s, d) = (FunctionId::new(src), FunctionId::new(dst));
        let next = self.accs.len();
        let i = *self.index.entry((s, d)).or_insert(next);
        if i == next {
            self.accs.push(PairAcc {
                src: s,
                dst: d,
                bytes: 0,
                umas: AddrSet::default(),
            });
        }
        *slot = (src, dst, i);
        i
    }

    /// Fill charge slot `slot` for `key = (page, src, dst)`, creating the
    /// pair and its UMA page if new; out of line like
    /// [`PageTable::find_in_map`].
    #[inline(never)]
    fn remember(&mut self, slot: usize, key: (u64, u32, u32)) {
        let (page, src, dst) = key;
        let pair = self.find_or_insert(src, dst);
        let words = self.accs[pair].umas.find_or_alloc(page);
        self.charges[slot] = ChargeMemo { key, pair, words };
    }

    /// Charge the `n` bytes from `off` on `page`, last written by `src`,
    /// to the pair `src → dst` (`off + n <= PAGE`).
    #[inline(always)]
    fn charge(&mut self, src: u32, dst: u32, page: u64, off: usize, n: usize) {
        let key = (page, src, dst);
        let slot = (page as usize ^ (src as usize * 3) ^ (dst as usize * 5)) % CHARGE_SLOTS;
        if self.charges[slot].key != key {
            self.remember(slot, key);
        }
        let memo = self.charges[slot];
        let acc = &mut self.accs[memo.pair];
        acc.bytes += n as u64;
        acc.umas.insert_run(memo.words, off, n);
    }
}

/// Per-function access counters (useful for locating compute hot spots and
/// for sanity checks).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FnStats {
    /// Bytes written by the function.
    pub bytes_written: u64,
    /// Bytes read by the function (from any producer, including itself).
    pub bytes_read: u64,
    /// Reads of addresses nobody has written (uninitialized reads) — these
    /// are attributed to no edge and usually indicate a workload bug.
    pub cold_reads: u64,
    /// Times the function was entered (QUAD reports per-call averages;
    /// divide the byte counters by this).
    pub calls: u64,
}

/// The QUAD-style profiler. See the crate docs for the attribution rules.
#[derive(Debug, Default)]
pub struct Profiler {
    names: Vec<String>,
    stack: Vec<FunctionId>,
    shadow: Shadow,
    pairs: Pairs,
    stats: Vec<FnStats>,
    /// `Some` when this profiler was claimed by [`record::arm`]; filled
    /// with the operation stream and deposited thread-locally on drop.
    rec: Option<Vec<TraceOp>>,
}

impl Profiler {
    /// A fresh profiler with no functions registered. If the current
    /// thread was [`record::arm`]ed, this profiler records its
    /// operation stream (see [`crate::record`]).
    pub fn new() -> Self {
        let mut p = Profiler::default();
        if record::try_claim() {
            p.rec = Some(Vec::new());
        }
        p
    }

    /// Register a function name and get its id. Registering the same name
    /// twice returns the same id.
    pub fn register(&mut self, name: &str) -> FunctionId {
        if let Some(pos) = self.names.iter().position(|n| n == name) {
            return FunctionId::new(pos as u32);
        }
        self.names.push(name.to_string());
        self.stats.push(FnStats::default());
        FunctionId::new((self.names.len() - 1) as u32)
    }

    /// Name of a registered function.
    pub fn name(&self, f: FunctionId) -> &str {
        &self.names[f.index()]
    }

    /// Number of registered functions.
    pub fn n_functions(&self) -> usize {
        self.names.len()
    }

    /// Enter a function: subsequent accesses are attributed to it.
    pub fn enter(&mut self, f: FunctionId) {
        assert!(f.index() < self.names.len(), "unregistered function {f}");
        if let Some(rec) = &mut self.rec {
            rec.push(TraceOp::Enter(f.index() as u32));
        }
        self.stats[f.index()].calls += 1;
        self.stack.push(f);
    }

    /// Leave the current function.
    ///
    /// # Panics
    /// If no function is active.
    pub fn exit(&mut self) {
        self.stack.pop().expect("exit() with empty function stack");
        if let Some(rec) = &mut self.rec {
            rec.push(TraceOp::Exit);
        }
    }

    /// RAII variant of [`enter`](Self::enter)/[`exit`](Self::exit).
    pub fn scope(&mut self, f: FunctionId) -> FnGuard<'_> {
        self.enter(f);
        FnGuard { prof: self }
    }

    /// The currently executing function.
    ///
    /// # Panics
    /// If no function is active — every access must happen inside a scope,
    /// otherwise attribution would silently drop traffic.
    pub fn current(&self) -> FunctionId {
        *self
            .stack
            .last()
            .expect("memory access outside any function scope")
    }

    /// Record a write of `len` bytes at virtual address `addr`.
    pub fn write(&mut self, addr: u64, len: u64) {
        if let Some(rec) = &mut self.rec {
            rec.push(TraceOp::Write { addr, len });
        }
        let cur = self.current();
        self.stats[cur.index()].bytes_written += len;
        let cell = cur.0 + 1;
        match one_page(addr, len) {
            Some(slice) => self.write_slice(slice, cell),
            None => page_slices(addr, len).for_each(|slice| self.write_slice(slice, cell)),
        }
    }

    /// Fill one page slice's shadow cells with `cell`.
    fn write_slice(&mut self, (page, off, n): (u64, usize, usize), cell: u32) {
        let base = self.shadow.find_or_alloc(page) + off;
        self.shadow.cells[base..base + n].fill(cell);
    }

    /// Record a read of `len` bytes at virtual address `addr`, attributing
    /// each byte to its last writer.
    pub fn read(&mut self, addr: u64, len: u64) {
        if let Some(rec) = &mut self.rec {
            rec.push(TraceOp::Read { addr, len });
        }
        let cur = self.current();
        self.stats[cur.index()].bytes_read += len;
        let cold = match one_page(addr, len) {
            Some(slice) => self.read_slice(slice, cur.0),
            None => page_slices(addr, len)
                .map(|slice| self.read_slice(slice, cur.0))
                .sum(),
        };
        self.stats[cur.index()].cold_reads += cold;
    }

    /// Charge `reader`'s read of one page slice to the bytes' last
    /// writers, one run of bytes from one writer at a time, and return the
    /// bytes nobody wrote. A uniform slice is one run.
    #[inline(always)]
    fn read_slice(&mut self, (page, off, n): (u64, usize, usize), reader: u32) -> u64 {
        let Some(base) = self.shadow.find(page) else {
            return n as u64;
        };
        let cells = &self.shadow.cells[base + off..base + off + n];
        let mut cold = 0;
        let mut i = 0;
        while i < n {
            let w = cells[i];
            let run = cells[i..].iter().position(|&c| c != w).unwrap_or(n - i);
            match w {
                0 => cold += run as u64,
                // self-communication is function-local, not an edge
                _ if w == reader + 1 => {}
                _ => self.pairs.charge(w - 1, reader, page, off + i, run),
            }
            i += run;
        }
        cold
    }

    /// Shadow pages allocated so far.
    #[cfg(test)]
    fn shadow_pages(&self) -> usize {
        self.shadow.cells.len() / PAGE
    }

    /// Access counters of a function.
    pub fn fn_stats(&self, f: FunctionId) -> FnStats {
        self.stats[f.index()]
    }

    /// Total bytes attributed to cross-function edges so far.
    pub fn total_edge_bytes(&self) -> u64 {
        self.pairs.accs.iter().map(|p| p.bytes).sum()
    }

    /// Publish the run's aggregate access statistics into `reg` under
    /// `prefix.*`: total reads/writes/cold reads/calls across functions,
    /// plus the discovered edge count and edge traffic.
    pub fn publish_metrics(&self, reg: &hic_obs::Registry, prefix: &str) {
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
            .add(self.pairs.accs.len() as u64);
        reg.counter(&format!("{prefix}.edge_bytes"))
            .add(self.total_edge_bytes());
        let umas: u64 = self.pairs.accs.iter().map(|p| p.umas.len).sum();
        reg.counter(&format!("{prefix}.edge_umas")).add(umas);
    }

    /// Snapshot the communication graph.
    pub fn graph(&self) -> CommGraph {
        let mut edges: Vec<GraphEdge> = self
            .pairs
            .accs
            .iter()
            .map(|acc| GraphEdge {
                src: acc.src,
                dst: acc.dst,
                bytes: acc.bytes,
                umas: acc.umas.len,
            })
            .collect();
        edges.sort_by_key(|e| (e.src, e.dst));
        CommGraph {
            functions: self.names.clone(),
            edges,
        }
    }
}

impl Drop for Profiler {
    fn drop(&mut self) {
        if let Some(ops) = self.rec.take() {
            record::deposit(Recording {
                names: std::mem::take(&mut self.names),
                ops,
            });
        }
    }
}

/// Guard returned by [`Profiler::scope`]; calls `exit` on drop.
pub struct FnGuard<'a> {
    prof: &'a mut Profiler,
}

impl std::ops::Deref for FnGuard<'_> {
    type Target = Profiler;
    fn deref(&self) -> &Profiler {
        self.prof
    }
}

impl std::ops::DerefMut for FnGuard<'_> {
    fn deref_mut(&mut self) -> &mut Profiler {
        self.prof
    }
}

impl Drop for FnGuard<'_> {
    fn drop(&mut self) {
        self.prof.exit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_after_write_creates_edge() {
        let mut p = Profiler::new();
        let a = p.register("producer");
        let b = p.register("consumer");
        p.enter(a);
        p.write(100, 8);
        p.exit();
        p.enter(b);
        p.read(100, 8);
        p.exit();
        let g = p.graph();
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edges[0].src, a);
        assert_eq!(g.edges[0].dst, b);
        assert_eq!(g.edges[0].bytes, 8);
        assert_eq!(g.edges[0].umas, 8);
    }

    #[test]
    fn repeated_reads_count_bytes_but_umas_once() {
        let mut p = Profiler::new();
        let a = p.register("a");
        let b = p.register("b");
        p.enter(a);
        p.write(0, 4);
        p.exit();
        p.enter(b);
        p.read(0, 4);
        p.read(0, 4);
        p.exit();
        let g = p.graph();
        assert_eq!(g.edges[0].bytes, 8);
        assert_eq!(g.edges[0].umas, 4);
    }

    #[test]
    fn self_reads_are_not_edges() {
        let mut p = Profiler::new();
        let a = p.register("a");
        p.enter(a);
        p.write(0, 16);
        p.read(0, 16);
        p.exit();
        assert!(p.graph().edges.is_empty());
        assert_eq!(p.fn_stats(a).bytes_read, 16);
    }

    #[test]
    fn overwrite_changes_attribution() {
        let mut p = Profiler::new();
        let a = p.register("a");
        let b = p.register("b");
        let c = p.register("c");
        p.enter(a);
        p.write(0, 4);
        p.exit();
        p.enter(b);
        p.write(0, 4); // b overwrites a's data without reading it
        p.exit();
        p.enter(c);
        p.read(0, 4);
        p.exit();
        let g = p.graph();
        assert_eq!(g.edges.len(), 1);
        assert_eq!((g.edges[0].src, g.edges[0].dst), (b, c));
    }

    #[test]
    fn cold_reads_are_counted_not_attributed() {
        let mut p = Profiler::new();
        let a = p.register("a");
        p.enter(a);
        p.read(1000, 4);
        p.exit();
        assert!(p.graph().edges.is_empty());
        assert_eq!(p.fn_stats(a).cold_reads, 4);
    }

    #[test]
    fn reading_unwritten_memory_allocates_no_shadow_page() {
        let mut p = Profiler::new();
        let a = p.register("a");
        p.enter(a);
        p.write(0x3000, 0);
        p.write(0x3fff, 0);
        p.read(0x10_0000, 3 * PAGE as u64 + 5);
        p.read(u64::MAX - 9000, 9000);
        assert_eq!(p.shadow_pages(), 0);
        p.write(0x2000, 8);
        p.read(0x2000 - 4, PAGE as u64); // straddles an unwritten page
        p.exit();
        assert_eq!(p.shadow_pages(), 1);
        assert_eq!(
            p.fn_stats(a).cold_reads,
            3 * PAGE as u64 + 5 + 9000 + PAGE as u64 - 8
        );
    }

    #[test]
    fn nested_scopes_attribute_to_innermost() {
        let mut p = Profiler::new();
        let outer = p.register("outer");
        let inner = p.register("inner");
        p.enter(outer);
        p.write(0, 1);
        p.enter(inner);
        p.write(1, 1);
        p.exit();
        p.write(2, 1);
        p.exit();
        p.enter(inner);
        p.read(0, 3); // 2 bytes from outer, 1 self byte
        p.exit();
        let g = p.graph();
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edges[0].bytes, 2);
    }

    #[test]
    fn scope_guard_exits_on_drop() {
        let mut p = Profiler::new();
        let a = p.register("a");
        {
            let mut g = p.scope(a);
            g.write(0, 1);
        }
        assert!(p.stack.is_empty());
    }

    #[test]
    fn calls_are_counted() {
        let mut p = Profiler::new();
        let a = p.register("a");
        for _ in 0..4 {
            p.enter(a);
            p.write(0, 8);
            p.exit();
        }
        let st = p.fn_stats(a);
        assert_eq!(st.calls, 4);
    }

    #[test]
    fn register_is_idempotent() {
        let mut p = Profiler::new();
        let a1 = p.register("f");
        let a2 = p.register("f");
        assert_eq!(a1, a2);
        assert_eq!(p.n_functions(), 1);
    }

    #[test]
    #[should_panic(expected = "outside any function scope")]
    fn access_outside_scope_panics() {
        let mut p = Profiler::new();
        p.register("a");
        p.write(0, 1);
    }

    #[test]
    fn publish_metrics_totals_match_the_profile() {
        let mut p = Profiler::new();
        let a = p.register("a");
        let b = p.register("b");
        p.enter(a);
        p.write(0, 8);
        p.exit();
        p.enter(b);
        p.read(0, 8);
        p.read(100, 2); // cold
        p.exit();
        let reg = hic_obs::Registry::new();
        p.publish_metrics(&reg, "profile");
        let s = reg.snapshot();
        assert_eq!(s.counters["profile.functions"], 2);
        assert_eq!(s.counters["profile.calls"], 2);
        assert_eq!(s.counters["profile.bytes.written"], 8);
        assert_eq!(s.counters["profile.bytes.read"], 10);
        assert_eq!(s.counters["profile.cold_reads"], 2);
        assert_eq!(s.counters["profile.edges"], 1);
        assert_eq!(s.counters["profile.edge_bytes"], 8);
        assert_eq!(s.counters["profile.edge_umas"], 8);
    }
}
