//! Dual-port BRAM local memories and the port-allocation calculus.
//!
//! "BRAM in modern FPGA usually has two ports. Therefore, in a general case,
//! we use a crossbar to share the local memories of two communicating
//! kernels because one port is usually used for the host communication."
//! — Section IV-A1 of the paper.
//!
//! This module answers, for any set of agents that want to touch a local
//! memory, the question the paper answers ad hoc for the jpeg case study:
//! does the memory's native port count suffice, and if not, how many
//! multiplexers are needed?

use hic_fabric::resource::{ComponentKind, Resources};
use serde::{Deserialize, Serialize};
use std::fmt;

/// An agent that needs access to a local memory.
///
/// The variants mirror the components in the paper's Figures 2 and 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MemAgent {
    /// The kernel datapath the memory belongs to.
    KernelCore,
    /// The host, through the system communication infrastructure (bus).
    Bus,
    /// A NoC network adapter (one adapter serves both send and receive).
    NocAdapter,
    /// The 2×2 crossbar of a shared-local-memory pair.
    Crossbar,
    /// A peer kernel directly wired to a spare port (crossbar-less sharing,
    /// possible when this memory has no host traffic).
    PeerKernel,
}

impl fmt::Display for MemAgent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemAgent::KernelCore => "kernel core",
            MemAgent::Bus => "bus",
            MemAgent::NocAdapter => "NoC adapter",
            MemAgent::Crossbar => "crossbar",
            MemAgent::PeerKernel => "peer kernel",
        };
        f.write_str(s)
    }
}

/// Errors from [`PortPlan::plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortPlanError {
    /// No agent at all wants the memory — a memory nobody reads or writes
    /// is a synthesis bug upstream.
    NoAgents,
    /// The same agent kind was listed twice; each agent occupies one port
    /// and is expected once.
    DuplicateAgent(MemAgent),
}

impl fmt::Display for PortPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortPlanError::NoAgents => write!(f, "local memory has no agents"),
            PortPlanError::DuplicateAgent(a) => write!(f, "agent listed twice: {a}"),
        }
    }
}

impl std::error::Error for PortPlanError {}

/// The result of allocating a memory's ports to its agents.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortPlan {
    /// The agents, sorted.
    pub agents: Vec<MemAgent>,
    /// Number of native ports on the memory.
    pub native_ports: u32,
    /// Number of multiplexers inserted. One mux merges two agents onto one
    /// port, so each mux absorbs one excess agent.
    pub muxes: u32,
}

impl PortPlan {
    /// Allocate `agents` onto a memory with `native_ports` ports.
    ///
    /// When the agents outnumber the ports, multiplexers are inserted — one
    /// per excess agent — reproducing the paper's jpeg situation where the
    /// duplicated `huff_ac_dec` local memories are "accessed by three
    /// different components (the host, the NoC adapter and the kernel
    /// core). Therefore, a multiplexer is used."
    pub fn plan(agents: &[MemAgent], native_ports: u32) -> Result<PortPlan, PortPlanError> {
        if agents.is_empty() {
            return Err(PortPlanError::NoAgents);
        }
        let mut sorted = agents.to_vec();
        sorted.sort();
        for w in sorted.windows(2) {
            if w[0] == w[1] {
                return Err(PortPlanError::DuplicateAgent(w[0]));
            }
        }
        let excess = (sorted.len() as u32).saturating_sub(native_ports);
        Ok(PortPlan {
            agents: sorted,
            native_ports,
            muxes: excess,
        })
    }

    /// Extra FPGA resources this plan costs (the muxes).
    pub fn resources(&self) -> Resources {
        ComponentKind::Multiplexer.cost() * self.muxes as u64
    }

    /// True when the native ports suffice without multiplexing.
    pub fn is_native(&self) -> bool {
        self.muxes == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_agents_fit_dual_port() {
        let p = PortPlan::plan(&[MemAgent::KernelCore, MemAgent::Bus], 2).unwrap();
        assert!(p.is_native());
        assert_eq!(p.resources(), Resources::ZERO);
    }

    #[test]
    fn jpeg_huff_ac_case_needs_one_mux() {
        // Host + NoC adapter + kernel core on a dual-port BRAM: the exact
        // situation in Section V-B; one mux.
        let p = PortPlan::plan(
            &[MemAgent::Bus, MemAgent::NocAdapter, MemAgent::KernelCore],
            2,
        )
        .unwrap();
        assert_eq!(p.muxes, 1);
        assert_eq!(p.resources(), ComponentKind::Multiplexer.cost());
    }

    #[test]
    fn four_agents_need_two_muxes() {
        let p = PortPlan::plan(
            &[
                MemAgent::Bus,
                MemAgent::NocAdapter,
                MemAgent::KernelCore,
                MemAgent::Crossbar,
            ],
            2,
        )
        .unwrap();
        assert_eq!(p.muxes, 2);
    }

    #[test]
    fn no_agents_is_an_error() {
        assert_eq!(PortPlan::plan(&[], 2), Err(PortPlanError::NoAgents));
    }

    #[test]
    fn duplicate_agent_is_an_error() {
        let err = PortPlan::plan(&[MemAgent::Bus, MemAgent::Bus], 2).unwrap_err();
        assert_eq!(err, PortPlanError::DuplicateAgent(MemAgent::Bus));
    }

    #[test]
    fn single_port_memory_muxes_sooner() {
        let p = PortPlan::plan(&[MemAgent::KernelCore, MemAgent::Bus], 1).unwrap();
        assert_eq!(p.muxes, 1);
    }
}
