//! Network adapters.
//!
//! A kernel or a local memory does not speak flits; a network adapter (NA)
//! sits between it and its router, segmenting messages into packets and
//! serializing them onto the link. The paper provides two adapter flavours
//! with different costs (Table II): the kernel adapter (396/426) and the
//! much smaller local-memory adapter (60/114).

use hic_fabric::resource::{ComponentKind, Resources};
use serde::{Deserialize, Serialize};

/// Which side of the network the adapter serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AdapterKind {
    /// Adapter between a hardware kernel and its router.
    Kernel,
    /// Adapter between a local memory and its router.
    LocalMemory,
}

impl AdapterKind {
    /// FPGA cost of this adapter (Table II).
    pub fn cost(self) -> Resources {
        match self {
            AdapterKind::Kernel => ComponentKind::NaKernel.cost(),
            AdapterKind::LocalMemory => ComponentKind::NaLocalMem.cost(),
        }
    }
}

/// Static adapter parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdapterSpec {
    /// Adapter flavour (determines cost).
    pub kind: AdapterKind,
    /// Largest packet the adapter emits, in bytes. Long messages are
    /// segmented so no single wormhole monopolizes its path.
    pub max_packet_bytes: u64,
}

impl AdapterSpec {
    /// The defaults used in the reproduction: 256-byte packets.
    pub fn paper_default(kind: AdapterKind) -> Self {
        AdapterSpec {
            kind,
            max_packet_bytes: 256,
        }
    }

    /// Segment a `bytes`-long message into packet payload sizes.
    ///
    /// A zero-byte message still produces one empty packet (availability
    /// signal).
    pub fn segment(&self, bytes: u64) -> Vec<u64> {
        assert!(self.max_packet_bytes > 0);
        if bytes == 0 {
            return vec![0];
        }
        let full = bytes / self.max_packet_bytes;
        let rem = bytes % self.max_packet_bytes;
        let mut out = vec![self.max_packet_bytes; full as usize];
        if rem > 0 {
            out.push(rem);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segmentation_covers_all_bytes() {
        let a = AdapterSpec::paper_default(AdapterKind::Kernel);
        for bytes in [0u64, 1, 255, 256, 257, 1000, 4096] {
            let segs = a.segment(bytes);
            assert_eq!(segs.iter().sum::<u64>(), bytes);
            assert!(segs.iter().all(|&s| s <= 256));
            if bytes == 0 {
                assert_eq!(segs, vec![0]);
            } else {
                assert!(segs.iter().all(|&s| s > 0));
            }
        }
    }

    #[test]
    fn adapter_costs_match_table2() {
        assert_eq!(AdapterKind::Kernel.cost(), Resources::new(396, 426));
        assert_eq!(AdapterKind::LocalMemory.cost(), Resources::new(60, 114));
    }
}
