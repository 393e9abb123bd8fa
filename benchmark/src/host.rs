//! Host fingerprint, peak memory and run-time output paths.

use std::path::PathBuf;

/// What every result is stamped with: the CPU model string, the SIMD
/// features detected at run time and the usable core count.
pub struct Fingerprint {
    pub cpu_model: String,
    pub simd: Vec<&'static str>,
    pub nproc: usize,
}

impl Fingerprint {
    pub fn detect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| std::env::consts::ARCH.to_string());
        Fingerprint {
            cpu_model,
            simd: simd_features(),
            nproc: summit_pool::machine_parallelism(),
        }
    }

    pub fn to_json(&self) -> String {
        let simd: Vec<String> = self.simd.iter().map(|f| format!("\"{f}\"")).collect();
        format!(
            "{{\"cpu_model\": \"{}\", \"simd\": [{}], \"nproc\": {}, \"gemm_simd_path\": {}}}",
            self.cpu_model.replace('\\', "\\\\").replace('"', "\\\""),
            simd.join(", "),
            self.nproc,
            summit_tensor::simd::active()
        )
    }
}

#[cfg(target_arch = "x86_64")]
fn simd_features() -> Vec<&'static str> {
    let mut f = Vec::new();
    macro_rules! probe {
        ($($name:tt),*) => {
            $(if std::arch::is_x86_feature_detected!($name) {
                f.push($name);
            })*
        };
    }
    probe!("sse4.2", "avx", "avx2", "fma", "f16c", "avx512f", "avx512bw", "avx512vl");
    f
}

#[cfg(not(target_arch = "x86_64"))]
fn simd_features() -> Vec<&'static str> {
    Vec::new()
}

/// Peak resident set size of this process in MB (`VmHWM`), or NaN where
/// `/proc` is not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Directory the trace files go to, resolved when the program runs: a
/// `ledger` directory beside the build directory that holds this
/// executable, so a relocated checkout writes inside itself.
pub fn output_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let build_dir = exe
        .parent()
        .and_then(|profile_dir| profile_dir.parent())
        .ok_or_else(|| std::io::Error::other("executable has no build directory"))?;
    let dir = build_dir.join("ledger");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
