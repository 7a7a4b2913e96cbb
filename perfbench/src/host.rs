//! Host fingerprint and process resource readings.

use crate::json_str;

/// Where and how a result was measured. Two results are comparable only
/// when every field except `revision` agrees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Logical CPUs the process may use.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// Digest of the measured crates' sources (`src-…`).
    pub revision: String,
    /// Fleet worker threads the workload ran with.
    pub workers: usize,
    /// Whether this was the traced run.
    pub traced: bool,
}

impl Fingerprint {
    /// The fingerprint of this process.
    pub fn current(workers: usize, traced: bool) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            nproc: nproc(),
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            revision: env!("PERFBENCH_REVISION").to_string(),
            workers,
            traced,
        }
    }

    /// The fields that must agree for two results to be compared; empty
    /// when they all do.
    pub fn mismatches(&self, other: &Fingerprint) -> Vec<String> {
        let mut out = Vec::new();
        let mut check = |field: &str, a: String, b: String| {
            if a != b {
                out.push(format!("{field}: {a:?} vs {b:?}"));
            }
        };
        check("nproc", self.nproc.to_string(), other.nproc.to_string());
        check("cpu_model", self.cpu_model.clone(), other.cpu_model.clone());
        check("rustc", self.rustc.clone(), other.rustc.clone());
        check(
            "workers",
            self.workers.to_string(),
            other.workers.to_string(),
        );
        check("traced", self.traced.to_string(), other.traced.to_string());
        out
    }

    /// JSON object form.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu_model\": {}, \"nproc\": {}, \"revision\": {}, \"rustc\": {}, \"traced\": {}, \"workers\": {}}}",
            json_str(&self.cpu_model),
            self.nproc,
            json_str(&self.revision),
            json_str(&self.rustc),
            self.traced,
            self.workers
        )
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
