//! The communication graph (the paper's Fig. 5) and its projections.

use hic_fabric::{CommEdge, Endpoint, FunctionId, KernelId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One edge of the function-level communication graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphEdge {
    /// Producer function.
    pub src: FunctionId,
    /// Consumer function.
    pub dst: FunctionId,
    /// Bytes transferred.
    pub bytes: u64,
    /// Unique memory addresses involved.
    pub umas: u64,
}

/// A function-level data-communication graph as produced by the profiler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommGraph {
    /// Function names, indexed by `FunctionId`.
    pub functions: Vec<String>,
    /// Edges, sorted by (src, dst).
    pub edges: Vec<GraphEdge>,
}

impl CommGraph {
    /// Id of a function by name.
    pub fn function_id(&self, name: &str) -> Option<FunctionId> {
        self.functions
            .iter()
            .position(|n| n == name)
            .map(|i| FunctionId::new(i as u32))
    }

    /// Bytes on the edge `src → dst` (0 when absent).
    pub fn bytes(&self, src: FunctionId, dst: FunctionId) -> u64 {
        self.edges
            .iter()
            .find(|e| e.src == src && e.dst == dst)
            .map_or(0, |e| e.bytes)
    }

    /// Total bytes over all edges.
    pub fn total_bytes(&self) -> u64 {
        self.edges.iter().map(|e| e.bytes).sum()
    }

    /// Edges leaving `f`.
    pub fn edges_from(&self, f: FunctionId) -> impl Iterator<Item = &GraphEdge> + '_ {
        self.edges.iter().filter(move |e| e.src == f)
    }

    /// Collapse the function-level graph to the kernel-level edge list the
    /// design algorithm consumes.
    ///
    /// `kernel_of` maps each hardware-promoted function to its kernel id;
    /// all other functions collapse into [`Endpoint::Host`]. Host→host
    /// traffic disappears (it never touches the accelerator fabric);
    /// parallel edges merge, summing bytes and UMAs.
    pub fn collapse(&self, kernel_of: &BTreeMap<FunctionId, KernelId>) -> Vec<CommEdge> {
        let ep = |f: FunctionId| -> Endpoint {
            kernel_of
                .get(&f)
                .map_or(Endpoint::Host, |&k| Endpoint::Kernel(k))
        };
        let mut merged: BTreeMap<(Endpoint, Endpoint), (u64, u64)> = BTreeMap::new();
        for e in &self.edges {
            let (s, d) = (ep(e.src), ep(e.dst));
            if s == d {
                continue; // host-internal or kernel-internal traffic
            }
            let acc = merged.entry((s, d)).or_default();
            acc.0 += e.bytes;
            acc.1 += e.umas;
        }
        merged
            .into_iter()
            .map(|((src, dst), (bytes, umas))| CommEdge {
                src,
                dst,
                bytes,
                umas,
            })
            .collect()
    }

    /// Render the graph in Graphviz DOT, edges labeled `bytes (UMAs)` —
    /// the same presentation as the paper's Fig. 5.
    pub fn to_dot(&self, title: &str) -> String {
        let mut out = String::new();
        writeln!(out, "digraph \"{title}\" {{").unwrap();
        writeln!(out, "  rankdir=LR;").unwrap();
        writeln!(out, "  node [shape=box, fontname=\"monospace\"];").unwrap();
        for (i, name) in self.functions.iter().enumerate() {
            writeln!(out, "  f{i} [label=\"{name}\"];").unwrap();
        }
        for e in &self.edges {
            writeln!(
                out,
                "  f{} -> f{} [label=\"{} B ({} UMA)\"];",
                e.src.0, e.dst.0, e.bytes, e.umas
            )
            .unwrap();
        }
        writeln!(out, "}}").unwrap();
        out
    }

    /// Plain-text table of the edges (for terminal reports).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "{:<20} {:<20} {:>12} {:>10}",
            "producer", "consumer", "bytes", "UMAs"
        )
        .unwrap();
        for e in &self.edges {
            writeln!(
                out,
                "{:<20} {:<20} {:>12} {:>10}",
                self.functions[e.src.index()],
                self.functions[e.dst.index()],
                e.bytes,
                e.umas
            )
            .unwrap();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> CommGraph {
        CommGraph {
            functions: vec!["main".into(), "ka".into(), "kb".into(), "aux".into()],
            edges: vec![
                GraphEdge {
                    src: FunctionId::new(0),
                    dst: FunctionId::new(1),
                    bytes: 100,
                    umas: 50,
                },
                GraphEdge {
                    src: FunctionId::new(1),
                    dst: FunctionId::new(2),
                    bytes: 40,
                    umas: 40,
                },
                GraphEdge {
                    src: FunctionId::new(2),
                    dst: FunctionId::new(0),
                    bytes: 60,
                    umas: 30,
                },
                GraphEdge {
                    src: FunctionId::new(0),
                    dst: FunctionId::new(3),
                    bytes: 10,
                    umas: 10,
                },
                GraphEdge {
                    src: FunctionId::new(3),
                    dst: FunctionId::new(0),
                    bytes: 10,
                    umas: 10,
                },
            ],
        }
    }

    #[test]
    fn lookup_by_name() {
        let g = graph();
        assert_eq!(g.function_id("kb"), Some(FunctionId::new(2)));
        assert_eq!(g.function_id("missing"), None);
    }

    #[test]
    fn collapse_merges_host_functions_and_drops_internal_traffic() {
        let g = graph();
        let mut map = BTreeMap::new();
        map.insert(FunctionId::new(1), KernelId::new(0));
        map.insert(FunctionId::new(2), KernelId::new(1));
        let edges = g.collapse(&map);
        // main->aux and aux->main are host-internal and vanish.
        assert_eq!(edges.len(), 3);
        let find = |s, d| {
            edges
                .iter()
                .find(|e| e.src == s && e.dst == d)
                .map(|e| e.bytes)
        };
        assert_eq!(
            find(Endpoint::Host, Endpoint::Kernel(KernelId::new(0))),
            Some(100)
        );
        assert_eq!(
            find(
                Endpoint::Kernel(KernelId::new(0)),
                Endpoint::Kernel(KernelId::new(1))
            ),
            Some(40)
        );
        assert_eq!(
            find(Endpoint::Kernel(KernelId::new(1)), Endpoint::Host),
            Some(60)
        );
    }

    #[test]
    fn dot_contains_every_node_and_edge() {
        let g = graph();
        let dot = g.to_dot("t");
        for name in &g.functions {
            assert!(dot.contains(name.as_str()));
        }
        assert_eq!(dot.matches("->").count(), g.edges.len());
        assert!(dot.contains("100 B (50 UMA)"));
    }

    #[test]
    fn totals() {
        let g = graph();
        assert_eq!(g.total_bytes(), 220);
        assert_eq!(g.bytes(FunctionId::new(1), FunctionId::new(2)), 40);
        assert_eq!(g.bytes(FunctionId::new(2), FunctionId::new(1)), 0);
        assert_eq!(g.edges_from(FunctionId::new(0)).count(), 2);
    }
}
