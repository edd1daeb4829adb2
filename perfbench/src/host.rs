//! Host fingerprint and process memory readings.
//!
//! Every result names the host it came from: core count, CPU model, the
//! SIMD features the kernels dispatch on, the codec's active CRC tier and
//! the build profile. Numbers from hosts with different fingerprints are
//! not comparable.

use distme_matrix::codec;

/// What a result needs to say about the machine that produced it.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`, or `unknown`.
    pub cpu_model: String,
    /// Runtime AVX2 detection (the packed GEMM micro-kernel's fast path).
    pub avx2: bool,
    /// Runtime FMA detection.
    pub fma: bool,
    /// The codec's dispatched CRC-32 implementation.
    pub crc_tier: String,
    /// `release` or `debug`.
    pub profile: &'static str,
}

impl Fingerprint {
    /// Reads the fingerprint of the running host.
    pub fn detect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        #[cfg(target_arch = "x86_64")]
        let (avx2, fma) = (
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("fma"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, fma) = (false, false);
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            avx2,
            fma,
            crc_tier: format!("{:?}", codec::active_crc_tier()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"avx2\": {}, \"fma\": {}, \
             \"crc_tier\": {}, \"build_profile\": {}}}",
            self.nproc,
            crate::report::json_str(&self.cpu_model),
            self.avx2,
            self.fma,
            crate::report::json_str(&self.crc_tier),
            crate::report::json_str(self.profile),
        )
    }
}

/// Peak resident set of this process (`VmHWM`) in MiB, or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
