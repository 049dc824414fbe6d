//! Characterize the NoC substrate itself: load–latency curves per traffic
//! pattern — the classic interconnect evaluation, applied to the
//! Heisswolf-style XY-routed router this reproduction implements.
//!
//! ```text
//! cargo run --release --example noc_characterization
//! ```

use hic::noc::{load_point, schedule, Coord, Mesh, NocConfig, Pattern};

fn main() {
    let mesh = Mesh::new(4, 4);
    let cfg = NocConfig::paper_default(mesh);
    let loads = [0.05, 0.10, 0.20, 0.35, 0.50];
    let patterns = [
        ("uniform", Pattern::Uniform),
        ("transpose", Pattern::Transpose),
        ("complement", Pattern::Complement),
        (
            "hotspot(0,0)",
            Pattern::Hotspot {
                at: Coord::new(0, 0),
                bias: 1.0,
            },
        ),
        ("neighbor", Pattern::Neighbor),
    ];

    println!("== 4x4 mesh, 32-bit links, XY routing ==");
    println!(
        "{:<14} {:>8} {:>12} {:>10} {:>12}",
        "pattern", "offered", "mean lat", "p99", "thpt B/cyc"
    );
    for (name, pattern) in patterns {
        // 300 warmup + 1500 measured cycles per point; each point seeds
        // its own schedule so it reproduces on its own.
        for (i, offered) in loads.into_iter().enumerate() {
            let s = schedule(cfg, pattern, offered, 16, None, 1_800, 99 ^ i as u64);
            let p = load_point(cfg, &s, 16, 300, 1_500);
            println!(
                "{:<14} {:>8.2} {:>12.1} {:>10} {:>12.1}",
                name, offered, p.mean_latency, p.p99_latency, p.throughput
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
