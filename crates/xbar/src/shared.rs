//! The shared-local-memory pairing decision.

use hic_fabric::kernel::DataVolumes;
use hic_fabric::resource::{ComponentKind, Resources};
use hic_fabric::time::Time;
use hic_fabric::KernelId;
use serde::{Deserialize, Serialize};

/// How a pair of local memories is shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SharingMode {
    /// The general case: a 2×2 crossbar switches both kernels over both
    /// memories (the consumer also talks to the host, so its BRAM has no
    /// spare port for a direct wire).
    Crossbar,
    /// The special case `D_j(in)^H = D_j(out)^H = 0`: the consumer's BRAM
    /// has a spare port and the producer connects directly.
    Direct,
}

/// A shared-local-memory pair `[HW_i → HW_j : D_ij]` with
/// `D_i(out)^K = D_j(in)^K = D_ij`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharedMemPair {
    /// The producing kernel `HW_i`.
    pub producer: KernelId,
    /// The consuming kernel `HW_j`.
    pub consumer: KernelId,
    /// The shared data segment size `D_ij` in bytes.
    pub bytes: u64,
    /// Crossbar or direct sharing.
    pub mode: SharingMode,
}

impl SharedMemPair {
    /// Decide whether `producer → consumer` qualifies for sharing and in
    /// which mode, per Section IV-A1:
    ///
    /// * the producer's entire kernel-side output goes to the consumer and
    ///   the consumer's entire kernel-side input comes from the producer
    ///   (`D_i(out)^K = D_j(in)^K = D_ij`), and
    /// * `D_ij > 0` (an empty segment saves nothing).
    ///
    /// The mode is [`SharingMode::Direct`] when the consumer has no host
    /// traffic, otherwise [`SharingMode::Crossbar`].
    pub fn qualify(
        producer: KernelId,
        consumer: KernelId,
        d_ij: u64,
        producer_vol: &DataVolumes,
        consumer_vol: &DataVolumes,
    ) -> Option<SharedMemPair> {
        if d_ij == 0 || producer == consumer {
            return None;
        }
        if producer_vol.kernel_out != d_ij || consumer_vol.kernel_in != d_ij {
            return None;
        }
        let mode = if consumer_vol.host_in == 0 && consumer_vol.host_out == 0 {
            SharingMode::Direct
        } else {
            SharingMode::Crossbar
        };
        Some(SharedMemPair {
            producer,
            consumer,
            bytes: d_ij,
            mode,
        })
    }

    /// FPGA cost of the sharing hardware.
    pub fn cost(&self) -> Resources {
        match self.mode {
            SharingMode::Crossbar => ComponentKind::Crossbar.cost(),
            SharingMode::Direct => Resources::ZERO,
        }
    }

    /// The communication-time saving `Δc = 2·D_ij·θ`: the segment no longer
    /// travels kernel→host nor host→kernel. `theta_ps_per_byte` is the
    /// bus's per-byte cost.
    pub fn delta_c(&self, theta_ps_per_byte: f64) -> Time {
        Time::from_ps((2.0 * self.bytes as f64 * theta_ps_per_byte).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vol(host_in: u64, kernel_in: u64, host_out: u64, kernel_out: u64) -> DataVolumes {
        DataVolumes {
            host_in,
            kernel_in,
            host_out,
            kernel_out,
        }
    }

    #[test]
    fn exclusive_pair_with_host_traffic_uses_crossbar() {
        // The paper's dquantz_lum → j_rev_dct pair: consumer also receives
        // host data, so the crossbar is required.
        let p = SharedMemPair::qualify(
            KernelId::new(0),
            KernelId::new(1),
            4096,
            &vol(100, 50, 0, 4096),
            &vol(200, 4096, 300, 0),
        )
        .unwrap();
        assert_eq!(p.mode, SharingMode::Crossbar);
        assert_eq!(p.cost(), Resources::new(201, 200));
    }

    #[test]
    fn host_free_consumer_shares_directly() {
        let p = SharedMemPair::qualify(
            KernelId::new(2),
            KernelId::new(3),
            1024,
            &vol(100, 0, 0, 1024),
            &vol(0, 1024, 0, 512),
        )
        .unwrap();
        assert_eq!(p.mode, SharingMode::Direct);
        assert_eq!(p.cost(), Resources::ZERO);
    }

    #[test]
    fn non_exclusive_producer_disqualifies() {
        // Producer also sends to a third kernel: kernel_out > d_ij.
        assert!(SharedMemPair::qualify(
            KernelId::new(0),
            KernelId::new(1),
            100,
            &vol(0, 0, 0, 150),
            &vol(0, 100, 0, 0),
        )
        .is_none());
    }

    #[test]
    fn non_exclusive_consumer_disqualifies() {
        // Consumer also receives from a third kernel: kernel_in > d_ij.
        assert!(SharedMemPair::qualify(
            KernelId::new(0),
            KernelId::new(1),
            100,
            &vol(0, 0, 0, 100),
            &vol(0, 130, 0, 0),
        )
        .is_none());
    }

    #[test]
    fn zero_segment_disqualifies() {
        assert!(SharedMemPair::qualify(
            KernelId::new(0),
            KernelId::new(1),
            0,
            &vol(0, 0, 0, 0),
            &vol(0, 0, 0, 0),
        )
        .is_none());
    }

    #[test]
    fn delta_c_is_twice_the_segment() {
        let p = SharedMemPair {
            producer: KernelId::new(0),
            consumer: KernelId::new(1),
            bytes: 1000,
            mode: SharingMode::Crossbar,
        };
        // θ = 1562.5 ps/B → Δc = 2 × 1000 × 1562.5 ps = 3.125 µs.
        assert_eq!(p.delta_c(1562.5), Time::from_ps(3_125_000));
    }
}
