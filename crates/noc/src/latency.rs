//! Closed-form NoC transfer-latency model.
//!
//! The full-system simulator needs the time a message takes between two
//! placed nodes without re-running the flit simulator inside its event
//! loop. Under no load, a wormhole XY mesh delivers a packet of `f` flits
//! over `h` hops in `h + 1 + (f - 1)` cycles (one cycle per router
//! traversal including ejection, plus tail serialization). The model is
//! validated against [`crate::network::Network`] in this module's tests and
//! in the cross-crate integration suite.

use crate::network::NocConfig;
use crate::topology::Coord;
use serde::{Deserialize, Serialize};

/// Analytic latency calculator for one NoC configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyModel {
    cfg: NocConfig,
}

impl LatencyModel {
    /// Build from a NoC configuration.
    pub fn new(cfg: NocConfig) -> Self {
        LatencyModel { cfg }
    }

    /// Flits of a `bytes`-byte packet.
    pub fn flits(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.cfg.flit_payload as u64).max(1)
    }

    /// No-load delivery latency in cycles of a single packet.
    pub fn packet_cycles(&self, src: Coord, dst: Coord, bytes: u64) -> u64 {
        let hops = self.cfg.mesh.route(src, dst).len() as u64;
        hops + 1 + (self.flits(bytes) - 1)
    }

    /// The *pipeline residual* of a kernel→kernel transfer: with the custom
    /// interconnect, a producer streams output while computing, so the
    /// consumer waits only for the tail of the last packet after the
    /// producer finishes. This is the small non-hidden remainder of `Δn`.
    pub fn tail_residual_cycles(&self, src: Coord, dst: Coord) -> u64 {
        // One maximal packet's worth of serialization plus the route.
        let hops = self.cfg.mesh.route(src, dst).len() as u64;
        hops + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::topology::Mesh;

    fn model_and_net(w: u16, h: u16) -> (LatencyModel, Network) {
        let cfg = NocConfig::paper_default(Mesh::new(w, h));
        (LatencyModel::new(cfg), Network::new(cfg))
    }

    #[test]
    fn model_matches_flit_sim_under_no_load() {
        let (m, _) = model_and_net(4, 4);
        for (src, dst, bytes) in [
            (Coord::new(0, 0), Coord::new(3, 3), 4u64),
            (Coord::new(0, 0), Coord::new(3, 3), 64),
            (Coord::new(1, 2), Coord::new(1, 0), 16),
            (Coord::new(2, 2), Coord::new(2, 2), 4),
            (Coord::new(0, 1), Coord::new(3, 1), 100),
        ] {
            let cfg = NocConfig::paper_default(Mesh::new(4, 4));
            let mut net = Network::new(cfg);
            net.send(src, dst, bytes);
            net.run_until_drained(10_000).unwrap();
            let measured = net.delivered()[0].latency();
            assert_eq!(
                m.packet_cycles(src, dst, bytes),
                measured,
                "{src}->{dst} {bytes}B"
            );
        }
    }

    #[test]
    fn flit_count_edge_cases() {
        let (m, _) = model_and_net(2, 2);
        assert_eq!(m.flits(0), 1);
        assert_eq!(m.flits(1), 1);
        assert_eq!(m.flits(4), 1);
        assert_eq!(m.flits(5), 2);
    }

    #[test]
    fn tail_residual_is_small() {
        let (m, _) = model_and_net(4, 4);
        assert_eq!(
            m.tail_residual_cycles(Coord::new(0, 0), Coord::new(3, 3)),
            7
        );
        assert_eq!(
            m.tail_residual_cycles(Coord::new(1, 1), Coord::new(1, 1)),
            1
        );
    }
}
