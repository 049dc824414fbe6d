//! The `hic-heatmap/v1` spatial-observability artifact.
//!
//! Co-simulation runs the real wormhole mesh, and the spatial accounting
//! layer in `hic-noc` records *where* the traffic went: per-link flit
//! matrices, windowed utilization, per-router stall cycles, input-FIFO
//! high-water marks, and per-(source, destination) flow totals. This
//! module assembles those raw matrices into a report a human can act on:
//!
//! * a **link heatmap** — every mesh link that carried traffic, with its
//!   lifetime and peak-window utilization;
//! * a **kernel-pair flow matrix** — per placed (kernel, memory) pair,
//!   bytes/packets/latency, labeled with the application's kernel names;
//! * a ranked **bottleneck report** — the links where queueing
//!   concentrates, each attributed to the kernel flows crossing it, with
//!   a plain-language verdict ("link (2,1)->(2,2) at 0.93 peak
//!   utilization carries 71% of K3->M2 bytes; consider remapping").
//!
//! Everything in the artifact is integer-valued (permille rather than
//! float) so reports are bit-identical across NoC engines — the same
//! guarantee the underlying matrices carry.

use hic_fabric::KernelId;
use hic_noc::{Coord, Direction, FlowTotals, Mesh, Network, NocNode, Placement};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema tag stamped into every report (and into artifact cache keys).
pub const HEATMAP_SCHEMA: &str = "hic-heatmap/v1";

/// One directed mesh link and its observed load.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkHeat {
    /// Upstream router.
    pub from: Coord,
    /// Downstream router.
    pub to: Coord,
    /// Output direction at the upstream router.
    pub dir: Direction,
    /// Total flits forwarded over the link.
    pub flits: u64,
    /// Lifetime utilization in permille of the *active* cycles (the union
    /// of recorded windows; idle skip-ahead spans are excluded).
    pub util_permille: u32,
    /// Utilization of the hottest recorded window, permille.
    pub peak_permille: u32,
    /// Start cycle of the hottest window.
    pub peak_window: u64,
    /// Queueing cycles attributed to this link: the upstream router's
    /// stalled cycles, split across its output links in proportion to
    /// the flits each carried.
    pub queue_cycles: u64,
    /// High-water mark of the downstream input FIFO fed by this link,
    /// in flits.
    pub fifo_hwm: u8,
}

impl LinkHeat {
    /// Compact display form, e.g. `(1,0)->(2,0)`.
    pub fn name(&self) -> String {
        format!(
            "({},{})->({},{})",
            self.from.x, self.from.y, self.to.x, self.to.y
        )
    }
}

/// One placed traffic flow (source router -> destination router).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowHeat {
    /// Injecting router.
    pub src: Coord,
    /// Ejecting router.
    pub dst: Coord,
    /// Label of the node placed at `src` (e.g. `K3:dct`).
    pub src_label: String,
    /// Label of the node placed at `dst` (e.g. `M2`).
    pub dst_label: String,
    /// Injection/delivery totals for the flow.
    pub totals: FlowTotals,
    /// Hop count of the route between the endpoints.
    pub hops: u32,
}

impl FlowHeat {
    /// `src -> dst` using placed-node labels.
    pub fn name(&self) -> String {
        format!("{}->{}", self.src_label, self.dst_label)
    }

    /// Mean delivered latency in tenths of a cycle (0 when nothing was
    /// delivered). Integer so reports stay engine-bit-identical.
    pub fn mean_latency_x10(&self) -> u64 {
        (self.totals.latency_sum * 10)
            .checked_div(self.totals.delivered)
            .unwrap_or(0)
    }
}

/// A flow's share of one link's traffic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowShare {
    /// Flow label (`src -> dst` with placed-node names).
    pub label: String,
    /// Bytes of the flow crossing the link.
    pub bytes: u64,
    /// Permille of the link's total attributed bytes.
    pub share_permille: u32,
}

/// One ranked bottleneck: a hot link plus the flows that load it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bottleneck {
    /// The congested link.
    pub link: LinkHeat,
    /// Flows crossing the link, heaviest first (top 3).
    pub flows: Vec<FlowShare>,
    /// Plain-language one-liner describing the problem.
    pub verdict: String,
}

/// The assembled `hic-heatmap/v1` artifact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeatmapReport {
    /// Schema tag ([`HEATMAP_SCHEMA`]).
    pub schema: String,
    /// The mesh the links live on.
    pub mesh: Mesh,
    /// Window length the matrices were recorded at (cycles).
    pub window: u64,
    /// Closed windows retained by the accounting layer.
    pub windows: usize,
    /// Closed windows dropped past the retention cap.
    pub windows_evicted: u64,
    /// Cycles covered by the retained windows (idle spans excluded).
    pub active_cycles: u64,
    /// Total flits forwarded across all links (non-Local matrix sum).
    pub total_flits: u64,
    /// Node labels per placed router, for rendering.
    pub nodes: Vec<NodeLabel>,
    /// Every link that carried flits, hottest first.
    pub links: Vec<LinkHeat>,
    /// Per placed-pair flow totals, heaviest first.
    pub flows: Vec<FlowHeat>,
    /// Ranked bottlenecks (top links by peak utilization and queueing).
    pub bottlenecks: Vec<Bottleneck>,
    /// Plain-language summary of the worst bottleneck.
    pub verdict: String,
}

/// A placed node and its display label.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeLabel {
    /// Router coordinate.
    pub at: Coord,
    /// Short label (`K3:dct`, `M2`).
    pub label: String,
}

impl HeatmapReport {
    /// The hottest link, if any traffic was observed.
    pub fn hottest(&self) -> Option<&LinkHeat> {
        self.links.first()
    }
}

fn node_label(node: NocNode, names: &BTreeMap<KernelId, String>) -> String {
    match node {
        NocNode::Kernel(k) => match names.get(&k) {
            Some(n) => format!("{k}:{n}"),
            None => k.to_string(),
        },
        NocNode::Memory(m) => m.to_string(),
    }
}

fn permille(num: u64, den: u64) -> u32 {
    (num * 1000)
        .checked_div(den)
        .map_or(0, |q| q.min(1000) as u32)
}

/// Assemble a [`HeatmapReport`] from a network's spatial accounting state.
///
/// Call [`Network::flush_spatial_window`] (or the engine passthrough)
/// first so the final partial window is included. Flow-to-link
/// attribution walks each flow's [`Mesh::route`] — the same links the
/// routers forward it over, so every flit of a flow crosses every link
/// of its route exactly once.
pub fn assemble(
    net: &Network,
    placement: &Placement,
    names: &BTreeMap<KernelId, String>,
) -> HeatmapReport {
    let mesh = net.config().mesh;
    let matrix = net.link_flit_matrix();
    let stalls = net.stall_matrix();
    let hwm = net.fifo_hwm_matrix();
    let windows = net.spatial_windows();
    let active_cycles: u64 = windows.iter().map(|w| w.end - w.start).sum();
    // With windowing disabled (or nothing recorded) fall back to the
    // clock, so lifetime utilization still has a denominator.
    let denom = if active_cycles > 0 {
        active_cycles
    } else {
        net.cycle().max(1)
    };

    // Router -> placed-node label, for flow and bottleneck naming.
    let at: BTreeMap<Coord, String> = placement
        .slots
        .iter()
        .map(|(&n, &c)| (c, node_label(n, names)))
        .collect();
    let coord_label = |c: Coord| {
        at.get(&c)
            .cloned()
            .unwrap_or_else(|| format!("({},{})", c.x, c.y))
    };
    let nodes: Vec<NodeLabel> = at
        .iter()
        .map(|(&c, l)| NodeLabel {
            at: c,
            label: l.clone(),
        })
        .collect();

    // Analytic flow->link attribution along each flow's route.
    // flows_on[(router, port)] lists (flow key, bytes) crossing that link.
    type FlowsOnLink = BTreeMap<(usize, usize), Vec<((Coord, Coord), u64)>>;
    let mut flows_on: FlowsOnLink = BTreeMap::new();
    let flow_map = net.flow_totals();
    if let Some(fm) = &flow_map {
        for (&(src, dst), t) in fm {
            for link in mesh.route(src, dst) {
                flows_on
                    .entry((mesh.index(link.from), link.dir.index()))
                    .or_default()
                    .push(((src, dst), t.bytes));
            }
        }
    }

    // Per-router output totals, for proportional stall attribution.
    let local = Direction::Local.index();
    let out_flits: Vec<u64> = matrix
        .iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .filter(|&(p, _)| p != local)
                .map(|(_, &f)| f)
                .sum()
        })
        .collect();

    let mut total_flits = 0u64;
    let mut links: Vec<LinkHeat> = Vec::new();
    for r in 0..mesh.len() {
        let from = mesh.coord(r);
        for (p, &flits) in matrix[r].iter().enumerate() {
            if p == local {
                continue;
            }
            total_flits += flits;
            if flits == 0 {
                continue;
            }
            let dir = Direction::ALL[p];
            let to = mesh.neighbor(from, dir).expect("flits crossed a real link");
            // Hottest window for this link.
            let (mut peak, mut peak_at) = (0u32, 0u64);
            for w in windows {
                let u = permille(w.link_flits[r][p], w.end - w.start);
                if u > peak {
                    peak = u;
                    peak_at = w.start;
                }
            }
            // Opposite port: the downstream input FIFO this link feeds.
            let opp = (p + 2) % 4;
            links.push(LinkHeat {
                from,
                to,
                dir,
                flits,
                util_permille: permille(flits, denom),
                peak_permille: peak,
                peak_window: peak_at,
                queue_cycles: (stalls[r] * flits).checked_div(out_flits[r]).unwrap_or(0),
                fifo_hwm: hwm[mesh.index(to)][opp],
            });
        }
    }
    // Hottest first; coordinate order breaks ties so the ranking is
    // stable across engines and platforms.
    links.sort_by(|a, b| {
        (b.flits, b.peak_permille)
            .cmp(&(a.flits, a.peak_permille))
            .then_with(|| (a.from, a.dir).cmp(&(b.from, b.dir)))
    });

    let mut flows: Vec<FlowHeat> = flow_map
        .map(|fm| {
            fm.iter()
                .map(|(&(src, dst), &totals)| FlowHeat {
                    src,
                    dst,
                    src_label: coord_label(src),
                    dst_label: coord_label(dst),
                    totals,
                    hops: mesh.route(src, dst).len() as u32,
                })
                .collect()
        })
        .unwrap_or_default();
    flows.sort_by(|a, b| {
        (b.totals.bytes, b.totals.packets)
            .cmp(&(a.totals.bytes, a.totals.packets))
            .then_with(|| (a.src, a.dst).cmp(&(b.src, b.dst)))
    });

    // Bottlenecks: rank by utilization-weighted volume (flits × peak
    // permille). Pure peak saturates along an entire backpressured
    // chain; weighting by volume singles out the links where the most
    // traffic meets the congestion. Queueing breaks remaining ties.
    let score = |l: &LinkHeat| l.flits * u64::from(l.peak_permille.max(1));
    let mut ranked: Vec<&LinkHeat> = links.iter().collect();
    ranked.sort_by(|a, b| {
        (score(b), b.queue_cycles)
            .cmp(&(score(a), a.queue_cycles))
            .then_with(|| (a.from, a.dir).cmp(&(b.from, b.dir)))
    });
    let bottlenecks: Vec<Bottleneck> = ranked
        .into_iter()
        .take(5)
        .map(|l| {
            let mut shares: Vec<FlowShare> = Vec::new();
            if let Some(crossing) = flows_on.get(&(mesh.index(l.from), l.dir.index())) {
                let link_bytes: u64 = crossing.iter().map(|&(_, b)| b).sum();
                let mut sorted = crossing.clone();
                sorted.sort_by(|a, b| (b.1, a.0).cmp(&(a.1, b.0)));
                shares = sorted
                    .into_iter()
                    .take(3)
                    .map(|((src, dst), bytes)| FlowShare {
                        label: format!("{}->{}", coord_label(src), coord_label(dst)),
                        bytes,
                        share_permille: permille(bytes, link_bytes),
                    })
                    .collect();
            }
            let verdict = match shares.first() {
                Some(top) => format!(
                    "link {} at 0.{:02} peak utilization carries {}% of {} bytes \
                     (queueing {} cycles, FIFO high-water {}/{}); consider remapping the pair closer",
                    l.name(),
                    l.peak_permille / 10,
                    top.share_permille / 10,
                    top.label,
                    l.queue_cycles,
                    l.fifo_hwm,
                    net.config().buffer_flits,
                ),
                None => format!(
                    "link {} at 0.{:02} peak utilization ({} flits, queueing {} cycles)",
                    l.name(),
                    l.peak_permille / 10,
                    l.flits,
                    l.queue_cycles,
                ),
            };
            Bottleneck {
                link: l.clone(),
                flows: shares,
                verdict,
            }
        })
        .collect();

    let verdict = match bottlenecks.first() {
        Some(b) if b.link.peak_permille >= 500 => b.verdict.clone(),
        Some(b) => format!(
            "no saturated links: hottest is {} at 0.{:02} peak utilization",
            b.link.name(),
            b.link.peak_permille / 10,
        ),
        None => "no NoC traffic observed".to_string(),
    };

    HeatmapReport {
        schema: HEATMAP_SCHEMA.to_string(),
        mesh,
        window: net.spatial_windows().first().map_or(0, |w| w.end - w.start),
        windows: windows.len(),
        windows_evicted: net.spatial_evicted(),
        active_cycles,
        total_flits,
        nodes,
        links,
        flows,
        bottlenecks,
        verdict,
    }
}

/// Glyph ramp for utilization buckets (permille).
fn ramp(p: u32) -> usize {
    match p {
        0 => 0,
        1..=99 => 1,
        100..=299 => 2,
        300..=599 => 3,
        600..=849 => 4,
        _ => 5,
    }
}

/// ANSI color (SGR code) per utilization bucket: dim, default, green,
/// yellow, red, bold red.
const COLORS: [&str; 6] = ["2", "0", "32", "33", "31", "1;31"];

fn paint(s: &str, bucket: usize, color: bool) -> String {
    if color {
        format!("\x1b[{}m{}\x1b[0m", COLORS[bucket], s)
    } else {
        s.to_string()
    }
}

/// Render the mesh as an ANSI heatmap: routers as cells (labeled with the
/// placed node when one fits), links as glyphs graded by peak-window
/// utilization. `color` toggles SGR escapes (off for piped output).
pub fn render_ansi(r: &HeatmapReport, color: bool) -> String {
    const H_GLYPH: [&str; 6] = ["···", "───", "───", "═══", "═══", "███"];
    const V_GLYPH: [&str; 6] = [":", "│", "│", "║", "║", "█"];
    let mesh = r.mesh;
    // peak[(from_idx, dir)] -> permille
    let peak: BTreeMap<(usize, usize), u32> = r
        .links
        .iter()
        .map(|l| ((mesh.index(l.from), l.dir.index()), l.peak_permille))
        .collect();
    let label: BTreeMap<Coord, &str> = r.nodes.iter().map(|n| (n.at, n.label.as_str())).collect();
    let pair_peak = |a: Coord, da: Direction, b: Coord, db: Direction| -> u32 {
        let f = peak.get(&(mesh.index(a), da.index())).copied().unwrap_or(0);
        let g = peak.get(&(mesh.index(b), db.index())).copied().unwrap_or(0);
        f.max(g)
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} mesh {}x{} — peak link utilization over {}-cycle windows",
        r.schema, mesh.w, mesh.h, r.window
    );
    for y in 0..mesh.h {
        // Router row.
        let mut row = String::new();
        for x in 0..mesh.w {
            let c = Coord::new(x, y);
            let cell = match label.get(&c) {
                Some(l) => format!("[{:^5.5}]", l),
                None => "[  ·  ]".to_string(),
            };
            row.push_str(&cell);
            if x + 1 < mesh.w {
                let e = Coord::new(x + 1, y);
                let p = pair_peak(c, Direction::East, e, Direction::West);
                row.push_str(&paint(H_GLYPH[ramp(p)], ramp(p), color));
            }
        }
        out.push_str(&row);
        out.push('\n');
        // Vertical-link row.
        if y + 1 < mesh.h {
            let mut vrow = String::new();
            for x in 0..mesh.w {
                let c = Coord::new(x, y);
                let s = Coord::new(x, y + 1);
                let p = pair_peak(c, Direction::South, s, Direction::North);
                let _ = write!(vrow, "   {}   ", paint(V_GLYPH[ramp(p)], ramp(p), color));
                if x + 1 < mesh.w {
                    vrow.push_str("   ");
                }
            }
            out.push_str(vrow.trim_end());
            out.push('\n');
        }
    }
    out.push('\n');
    let _ = writeln!(out, "verdict: {}", r.verdict);
    for (i, b) in r.bottlenecks.iter().enumerate() {
        let _ = writeln!(out, "  #{} {}", i + 1, b.verdict);
    }
    out
}

/// Render the heatmap as a Graphviz DOT overlay: mesh nodes pinned to
/// their coordinates, edges weighted and colored by peak utilization.
pub fn render_dot(r: &HeatmapReport) -> String {
    const EDGE_COLOR: [&str; 6] = [
        "gray80",
        "gray60",
        "forestgreen",
        "goldenrod",
        "orangered",
        "red",
    ];
    let mesh = r.mesh;
    let label: BTreeMap<Coord, &str> = r.nodes.iter().map(|n| (n.at, n.label.as_str())).collect();
    let mut out = String::new();
    out.push_str("digraph heatmap {\n");
    let _ = writeln!(out, "  // {} — {}", r.schema, r.verdict.replace('\n', " "));
    out.push_str("  layout=neato; overlap=true; splines=true;\n");
    out.push_str("  node [shape=box, style=filled, fillcolor=gray95, fontsize=10];\n");
    for y in 0..mesh.h {
        for x in 0..mesh.w {
            let c = Coord::new(x, y);
            let l = label.get(&c).copied().unwrap_or("");
            let _ = writeln!(
                out,
                "  n{}_{} [label=\"({},{})\\n{}\", pos=\"{},{}!\"];",
                x,
                y,
                x,
                y,
                l,
                x as f32 * 1.4,
                -(y as f32) * 1.4
            );
        }
    }
    for l in &r.links {
        let b = ramp(l.peak_permille);
        let _ = writeln!(
            out,
            "  n{}_{} -> n{}_{} [color={}, penwidth={}, label=\"0.{:02}\", fontsize=8];",
            l.from.x,
            l.from.y,
            l.to.x,
            l.to.y,
            EDGE_COLOR[b],
            1 + b,
            l.peak_permille / 10,
        );
    }
    out.push_str("}\n");
    out
}

/// Labeled-series name the hottest links are published under
/// (`hic_noc_link_util{x,y,port}` after exposition sanitizing).
pub const LINK_UTIL_SERIES: &str = "noc.link.util";

/// Publish the top-`n` hottest links into a [`hic_obs::LabeledStore`]
/// as `noc.link.util` rows labeled with the upstream router coordinate
/// and output port, valued in permille of active-cycle utilization.
/// Rows keep the heatmap's hottest-first order; an empty report clears
/// the series.
pub fn publish_series(r: &HeatmapReport, store: &hic_obs::LabeledStore, n: usize) {
    let rows: Vec<hic_obs::LabeledRow> = r
        .links
        .iter()
        .take(n)
        .map(|l| {
            hic_obs::LabeledRow::new(
                vec![
                    ("x", l.from.x.to_string()),
                    ("y", l.from.y.to_string()),
                    ("port", format!("{:?}", l.dir).to_lowercase()),
                ],
                f64::from(l.util_permille),
            )
        })
        .collect();
    store.set(LINK_UTIL_SERIES, rows);
}

/// Render the bottleneck report and flow matrix as plain text (the
/// default `hic heatmap` body under the ANSI mesh).
pub fn render_summary(r: &HeatmapReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} windows of {} cycles ({} active cycles, {} evicted), {} flits over {} links",
        r.windows,
        r.window,
        r.active_cycles,
        r.windows_evicted,
        r.total_flits,
        r.links.len()
    );
    if !r.flows.is_empty() {
        out.push_str("flows (heaviest first):\n");
        for f in &r.flows {
            let _ = writeln!(
                out,
                "  {:<20} {:>10} B {:>6} pkts  {} hops  mean latency {}.{} cyc",
                f.name(),
                f.totals.bytes,
                f.totals.packets,
                f.hops,
                f.mean_latency_x10() / 10,
                f.mean_latency_x10() % 10,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hic_noc::{NocConfig, SpatialConfig};

    fn k(i: u32) -> NocNode {
        NocNode::Kernel(KernelId::new(i))
    }
    fn m(i: u32) -> NocNode {
        NocNode::Memory(hic_fabric::MemoryId::new(i))
    }

    /// A 3x3 mesh with a deliberate hotspot: two producers funnel into the
    /// memory at (2,1). The top-ranked bottleneck must name a link whose
    /// downstream router IS the hotspot.
    fn hotspot_net() -> (Network, Placement, BTreeMap<KernelId, String>) {
        let mesh = Mesh::new(3, 3);
        let mut net = Network::new(NocConfig::paper_default(mesh));
        net.enable_spatial(SpatialConfig {
            window: 16,
            flows: true,
            max_windows: usize::MAX,
        });
        let hot = Coord::new(2, 1);
        // Two sources on the hotspot's own row (their XY paths converge
        // on the final East link into it) plus one from the corner: the
        // link (1,1)->(2,1) uniquely carries the most flits.
        let srcs = [Coord::new(0, 1), Coord::new(1, 1), Coord::new(0, 0)];
        for round in 0..30 {
            for (i, &s) in srcs.iter().enumerate() {
                if round % (i + 1) == 0 {
                    net.send(s, hot, 64);
                }
            }
            net.step();
        }
        net.run_until_drained(100_000).expect("drains");
        net.flush_spatial_window();
        let placement = Placement {
            mesh,
            slots: [
                (k(0), srcs[0]),
                (k(1), srcs[1]),
                (k(2), srcs[2]),
                (m(2), hot),
            ]
            .into_iter()
            .collect(),
        };
        let names = [(KernelId::new(0), "dct".to_string())]
            .into_iter()
            .collect();
        (net, placement, names)
    }

    #[test]
    fn top_bottleneck_names_a_link_into_the_hotspot() {
        let (net, placement, names) = hotspot_net();
        let r = assemble(&net, &placement, &names);
        assert_eq!(r.schema, HEATMAP_SCHEMA);
        let top = &r.bottlenecks[0];
        // The hottest link is on the funnel into (2,1): its downstream
        // router is the hotspot itself.
        assert_eq!(
            top.link.to,
            Coord::new(2, 1),
            "top bottleneck {} does not feed the hotspot",
            top.link.name()
        );
        assert!(!top.flows.is_empty());
        assert!(top.verdict.contains("link"));
        assert!(r.verdict.contains("(2,1)"), "verdict: {}", r.verdict);
    }

    #[test]
    fn link_heat_sums_match_the_cumulative_matrix() {
        let (net, placement, names) = hotspot_net();
        let r = assemble(&net, &placement, &names);
        let local = Direction::Local.index();
        let matrix_total: u64 = net
            .link_flit_matrix()
            .iter()
            .flat_map(|row| {
                row.iter()
                    .enumerate()
                    .filter(|&(p, _)| p != local)
                    .map(|(_, &f)| f)
            })
            .sum();
        let link_total: u64 = r.links.iter().map(|l| l.flits).sum();
        assert_eq!(link_total, matrix_total);
        assert_eq!(r.total_flits, matrix_total);
        // Hottest-first ordering.
        for w in r.links.windows(2) {
            assert!(w[0].flits >= w[1].flits);
        }
    }

    #[test]
    fn flow_attribution_covers_every_flow_byte() {
        let (net, placement, names) = hotspot_net();
        let r = assemble(&net, &placement, &names);
        let injected: u64 = net.flow_totals().unwrap().values().map(|t| t.bytes).sum();
        let flow_bytes: u64 = r.flows.iter().map(|f| f.totals.bytes).sum();
        assert_eq!(flow_bytes, injected);
        // Labels come from the placement: the kernel with a name uses it.
        assert!(r.flows.iter().any(|f| f.src_label == "K0:dct"));
        assert!(r.flows.iter().all(|f| f.dst_label == "M2"));
    }

    #[test]
    fn renderers_cover_the_mesh_and_the_verdict() {
        let (net, placement, names) = hotspot_net();
        let r = assemble(&net, &placement, &names);
        let ansi = render_ansi(&r, false);
        // 3 router rows + 2 vertical-link rows at minimum.
        assert!(ansi.lines().count() >= 5);
        assert!(ansi.contains("K0:dc") || ansi.contains("K0:d"));
        assert!(ansi.contains("verdict:"));
        let colored = render_ansi(&r, true);
        assert!(colored.contains("\x1b["));
        let dot = render_dot(&r);
        assert!(dot.starts_with("digraph heatmap {"));
        assert!(dot.contains("n2_1"));
        assert!(dot.contains("->"));
        let summary = render_summary(&r);
        assert!(summary.contains("flows"));
    }

    #[test]
    fn empty_network_yields_an_empty_but_valid_report() {
        let mesh = Mesh::new(2, 2);
        let mut net = Network::new(NocConfig::paper_default(mesh));
        net.enable_spatial(SpatialConfig::default());
        let placement = Placement {
            mesh,
            slots: [(k(0), Coord::new(0, 0))].into_iter().collect(),
        };
        let r = assemble(&net, &placement, &BTreeMap::new());
        assert!(r.links.is_empty());
        assert!(r.flows.is_empty());
        assert!(r.bottlenecks.is_empty());
        assert_eq!(r.verdict, "no NoC traffic observed");
        // Still renders without panicking.
        let _ = render_ansi(&r, false);
        let _ = render_dot(&r);
    }

    #[test]
    fn hottest_links_publish_as_labeled_series() {
        let (net, placement, names) = hotspot_net();
        let r = assemble(&net, &placement, &names);
        let store = hic_obs::LabeledStore::new();
        publish_series(&r, &store, 3);
        let rows = store.get(LINK_UTIL_SERIES).expect("series published");
        assert_eq!(rows.len(), 3);
        // First row is the hottest link, labeled by its upstream router.
        let top = r.hottest().unwrap();
        assert_eq!(
            rows[0].labels,
            vec![
                ("x".to_string(), top.from.x.to_string()),
                ("y".to_string(), top.from.y.to_string()),
                ("port".to_string(), format!("{:?}", top.dir).to_lowercase()),
            ]
        );
        assert_eq!(rows[0].value, f64::from(top.util_permille));
        // The exposition renders and validates.
        let reg = hic_obs::Registry::new();
        let body = hic_obs::render_prometheus_full(&reg.snapshot(), None, Some(&store));
        assert!(body.contains("hic_noc_link_util{"), "{body}");
        hic_obs::validate_exposition(&body).unwrap();
    }

    #[test]
    fn report_round_trips_through_serde() {
        let (net, placement, names) = hotspot_net();
        let r = assemble(&net, &placement, &names);
        let json = serde_json::to_string(&r).expect("serializes");
        let back: HeatmapReport = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(r, back);
    }
}
