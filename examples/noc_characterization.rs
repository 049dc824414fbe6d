//! Characterize the NoC substrate itself: load–latency curves per traffic
//! pattern — the classic interconnect evaluation, applied to the
//! Heisswolf-style XY-routed router this reproduction implements.
//!
//! ```text
//! cargo run --release --example noc_characterization
//! ```

use hic::noc::{load_sweep, Coord, Mesh, NocConfig, Pattern};

fn main() {
    let mesh = Mesh::new(4, 4);
    let cfg = NocConfig::paper_default(mesh);
    let loads = [0.05, 0.10, 0.20, 0.35, 0.50];
    let patterns = [
        ("uniform", Pattern::Uniform),
        ("transpose", Pattern::Transpose),
        ("complement", Pattern::Complement),
        ("hotspot(0,0)", Pattern::Hotspot(Coord::new(0, 0))),
        ("neighbor", Pattern::Neighbor),
    ];

    println!("== 4x4 mesh, 32-bit links, XY routing ==");
    println!(
        "{:<14} {:>8} {:>12} {:>10} {:>12}",
        "pattern", "offered", "mean lat", "p99", "thpt B/cyc"
    );
    for (name, pattern) in patterns {
        for p in load_sweep(cfg, pattern, &loads, 16, 300, 1_500, 99) {
            println!(
                "{:<14} {:>8.2} {:>12.1} {:>10} {:>12.1}",
                name, p.offered, p.mean_latency, p.p99_latency, p.throughput
            );
        }
    }
    println!();
    println!(
        "Reading: neighbor traffic stays near the no-load latency at every \
         offered load; hotspot saturates first (every packet funnels into \
         one ejection port)."
    );
}
