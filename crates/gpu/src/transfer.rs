//! Host ↔ device transfer cost model.
//!
//! The NeuGraph baseline (Table 2) streams graph chunks over PCIe; the
//! paper reports its "Mem.IO" column separately from compute. The model is
//! the standard latency + bandwidth line: `t = latency + bytes / bw`.

use serde::Serialize;

use crate::spec::GpuSpec;

/// Cost of one host↔device copy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct TransferMetrics {
    /// Payload size in bytes.
    pub bytes: u64,
    /// Transfer time in milliseconds.
    pub time_ms: f64,
}

/// Prices a host↔device copy of `bytes` on the given device.
pub fn transfer(spec: &GpuSpec, bytes: u64) -> TransferMetrics {
    let bw_bytes_per_ms = spec.pcie_bandwidth_gbps * 1e6;
    let time_ms = spec.pcie_latency_us / 1000.0 + bytes as f64 / bw_bytes_per_ms;
    TransferMetrics { bytes, time_ms }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_floor() {
        let spec = GpuSpec::quadro_p6000();
        let t = transfer(&spec, 0);
        assert!((t.time_ms - spec.pcie_latency_us / 1000.0).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_scaling() {
        let spec = GpuSpec::quadro_p6000();
        // 12 GB/s => 12 MB per ms.
        let t = transfer(&spec, 12_000_000);
        assert!((t.time_ms - (1.0 + 0.01)).abs() < 1e-9, "t = {}", t.time_ms);
        let double = transfer(&spec, 24_000_000);
        assert!(double.time_ms > t.time_ms * 1.9);
    }

    #[test]
    fn big_transfers_are_slow() {
        let spec = GpuSpec::quadro_p6000();
        // 1.2 GB over 12 GB/s PCIe = 100 ms — the scale of Table 2's
        // NeuGraph Mem.IO entries.
        let t = transfer(&spec, 1_200_000_000);
        assert!(t.time_ms > 99.0 && t.time_ms < 102.0);
    }
}
