//! Deltas of the tensor kernel layer's process-wide counters (GEMM
//! dispatch, band decomposition, packed-weight cache) across a measured
//! pass, or as a serve daemon reports them in `status`.

use crate::Report;
use hsconas_tensor::kernels::{self, cache};

/// Kernel-layer counters, to take deltas across a measured pass.
#[derive(Debug, Clone, Copy)]
pub struct KernelSnapshot {
    direct: u64,
    packed: u64,
    serial: u64,
    parallel: u64,
    pack_hits: u64,
    pack_misses: u64,
    pack_invalidations: u64,
}

impl KernelSnapshot {
    pub fn take() -> KernelSnapshot {
        let d = kernels::dispatch_counts();
        let p = kernels::parallel_counts();
        let c = cache::stats();
        KernelSnapshot {
            direct: d.direct,
            packed: d.scalar + d.avx2,
            serial: p.serial,
            parallel: p.parallel,
            pack_hits: c.hits,
            pack_misses: c.misses,
            pack_invalidations: c.invalidations,
        }
    }

    pub fn since(&self, before: &KernelSnapshot) -> KernelSnapshot {
        KernelSnapshot {
            direct: self.direct - before.direct,
            packed: self.packed - before.packed,
            serial: self.serial - before.serial,
            parallel: self.parallel - before.parallel,
            pack_hits: self.pack_hits - before.pack_hits,
            pack_misses: self.pack_misses - before.pack_misses,
            pack_invalidations: self.pack_invalidations - before.pack_invalidations,
        }
    }

    /// The same counters as read from a serve daemon's `status`.
    pub fn from_status(kernel: &hsconas_serve::Json) -> KernelSnapshot {
        let n = |path: &[&str]| {
            path.iter()
                .try_fold(kernel, |j, k| j.get(k))
                .and_then(hsconas_serve::Json::as_f64)
                .unwrap_or(0.0) as u64
        };
        KernelSnapshot {
            direct: n(&["dispatch", "direct"]),
            packed: n(&["dispatch", "scalar"]) + n(&["dispatch", "avx2"]),
            serial: n(&["bands", "serial"]),
            parallel: n(&["bands", "parallel"]),
            pack_hits: n(&["pack_cache", "hits"]),
            pack_misses: n(&["pack_cache", "misses"]),
            pack_invalidations: n(&["pack_cache", "invalidations"]),
        }
    }

    pub fn report(&self, report: &mut Report) {
        let calls = self.direct + self.packed;
        let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
        report.metric("tensor.kernels.gemm_calls", calls as f64, "count");
        report.metric(
            "tensor.kernels.direct_share",
            ratio(self.direct, calls),
            "ratio",
        );
        report.metric(
            "tensor.kernels.band_parallel_share",
            ratio(self.parallel, self.serial + self.parallel),
            "ratio",
        );
        report.metric(
            "tensor.kernels.pack_hit_ratio",
            ratio(self.pack_hits, self.pack_hits + self.pack_misses),
            "ratio",
        );
        report.metric(
            "tensor.kernels.pack_invalidations",
            self.pack_invalidations as f64,
            "count",
        );
    }
}
