//! The wire-latency model.
//!
//! The blackbox experiment (Figure 6) shows one-way latencies that grow
//! linearly with payload: a per-message base cost (NIC processing,
//! PCI transactions) plus a per-byte cost (wire bandwidth, DMA). The
//! model injects that delay into the simulated fabric so the
//! reproduction exhibits the paper's slopes; with [`LatencyModel::ZERO`]
//! the fabric is as fast as the queues allow, which is the right
//! setting for measuring pure software overhead (the *difference*
//! between the XDAQ and raw-GM series, which is hardware-independent).

use std::time::Duration;

/// Linear latency model: `delay = base + len * per_byte`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Fixed per-message delay in nanoseconds.
    pub base_ns: u64,
    /// Additional delay per payload byte, in nanoseconds.
    pub per_byte_ns: f64,
}

impl LatencyModel {
    /// No injected delay — pure software path.
    pub const ZERO: LatencyModel = LatencyModel {
        base_ns: 0,
        per_byte_ns: 0.0,
    };

    /// Calibrated to the paper's measured GM 1.1.3 curve on the LANai 7
    /// / 400 MHz Pentium II testbed: ~18 µs one-way base latency and
    /// ~21.5 ns/byte (≈ 2×Gbit effective wire+DMA path), which puts a
    /// 4096-byte message at ≈ 106 µs one way — matching the middle
    /// slope of Figure 6.
    pub const fn myrinet_lanai7() -> LatencyModel {
        LatencyModel {
            base_ns: 18_000,
            per_byte_ns: 21.5,
        }
    }

    /// Delay for a message of `len` bytes.
    pub fn delay(&self, len: usize) -> Duration {
        Duration::from_nanos(self.base_ns + (len as f64 * self.per_byte_ns) as u64)
    }

    /// True when the model injects no delay.
    pub fn is_zero(&self) -> bool {
        self.base_ns == 0 && self.per_byte_ns == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model() {
        assert!(LatencyModel::ZERO.is_zero());
        assert_eq!(LatencyModel::ZERO.delay(4096), Duration::ZERO);
    }

    #[test]
    fn linear_growth() {
        let m = LatencyModel {
            base_ns: 100,
            per_byte_ns: 2.0,
        };
        assert_eq!(m.delay(0), Duration::from_nanos(100));
        assert_eq!(m.delay(50), Duration::from_nanos(200));
    }

    #[test]
    fn lanai7_matches_paper_shape() {
        let m = LatencyModel::myrinet_lanai7();
        let one_byte = m.delay(1).as_nanos() as f64 / 1000.0;
        let four_k = m.delay(4096).as_nanos() as f64 / 1000.0;
        // Paper Fig. 6: GM series runs from ~18-20 µs to ~105-110 µs.
        assert!(one_byte > 15.0 && one_byte < 25.0, "{one_byte}");
        assert!(four_k > 95.0 && four_k < 115.0, "{four_k}");
    }
}
