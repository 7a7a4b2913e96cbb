//! The `perf` harness: repeatable hot-path measurements with a
//! machine-readable artifact.
//!
//! This module produces a structured [`BenchResult`] per benchmark and
//! serializes the whole run as `BENCH_pipeline.json` so perf numbers
//! accumulate across PRs and regressions are diffable:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "mode": "full",
//!   "benches": [
//!     {"name": "crypto/sha256_4k", "iters": 4000,
//!      "p50_ns": 5100, "p95_ns": 5400, "mean_ns": 5188,
//!      "bytes_per_s": 803137254}
//!   ]
//! }
//! ```
//!
//! Timing method: each benchmark is auto-calibrated to a batch size whose
//! wall-clock is comfortably above timer resolution, then `samples`
//! batches are timed; per-iteration p50/p95/mean come from the batch
//! samples. `bytes_per_s` is derived from the p50 when the benchmark
//! declares a per-iteration byte volume.

use bombdroid_obs::json::{self, JsonValue};
use std::time::Instant;

/// Version stamp of the `BENCH_pipeline.json` layout.
pub const BENCH_SCHEMA_VERSION: i128 = 1;

/// How hard to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfConfig {
    /// Batch samples to collect per benchmark.
    pub samples: usize,
    /// Target wall-clock per batch, in nanoseconds (sets the batch size).
    pub batch_target_ns: u64,
    /// Hard cap on wall-clock per benchmark, in nanoseconds.
    pub max_total_ns: u64,
}

impl PerfConfig {
    /// The default measurement profile (committed artifacts).
    pub fn full() -> Self {
        PerfConfig {
            samples: 40,
            batch_target_ns: 2_000_000,
            max_total_ns: 3_000_000_000,
        }
    }

    /// A quick smoke profile for CI (validates the plumbing, not the
    /// numbers).
    pub fn fast() -> Self {
        PerfConfig {
            samples: 6,
            batch_target_ns: 300_000,
            max_total_ns: 300_000_000,
        }
    }
}

/// One benchmark's measured result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchResult {
    /// Stable benchmark name (`area/case`).
    pub name: String,
    /// Total closure invocations across all batches.
    pub iters: u64,
    /// Median nanoseconds per iteration.
    pub p50_ns: u64,
    /// 95th-percentile nanoseconds per iteration.
    pub p95_ns: u64,
    /// Mean nanoseconds per iteration.
    pub mean_ns: u64,
    /// Bytes processed per iteration, when the benchmark is
    /// byte-oriented.
    pub bytes_per_iter: Option<u64>,
}

impl BenchResult {
    /// Throughput derived from the median, when byte-oriented.
    pub fn bytes_per_s(&self) -> Option<u64> {
        let bytes = self.bytes_per_iter?;
        if self.p50_ns == 0 {
            return None;
        }
        Some(((bytes as u128 * 1_000_000_000) / self.p50_ns as u128) as u64)
    }
}

/// Nearest-rank percentile of an already-sorted sample set.
fn percentile(sorted: &[u64], pct: u64) -> u64 {
    debug_assert!(!sorted.is_empty());
    let rank = (pct * sorted.len() as u64).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Measures `f`, returning per-iteration statistics.
///
/// The closure runs once for warm-up, once for calibration, then in
/// `config.samples` timed batches (or fewer if `max_total_ns` is hit —
/// at least one batch always completes).
pub fn run_bench<F: FnMut()>(
    name: impl Into<String>,
    bytes_per_iter: Option<u64>,
    config: &PerfConfig,
    mut f: F,
) -> BenchResult {
    // Warm-up (page in code/data), then calibrate the batch size.
    f();
    let probe_start = Instant::now();
    f();
    let probe_ns = (probe_start.elapsed().as_nanos() as u64).max(1);
    let batch = (config.batch_target_ns / probe_ns).clamp(1, 4_000_000);

    let mut samples_ns: Vec<u64> = Vec::with_capacity(config.samples);
    let total_start = Instant::now();
    let mut iters = 0u64;
    for _ in 0..config.samples.max(1) {
        let start = Instant::now();
        for _ in 0..batch {
            f();
        }
        let elapsed = start.elapsed().as_nanos() as u64;
        samples_ns.push(elapsed / batch);
        iters += batch;
        if total_start.elapsed().as_nanos() as u64 > config.max_total_ns {
            break;
        }
    }
    samples_ns.sort_unstable();
    let mean_ns = samples_ns.iter().sum::<u64>() / samples_ns.len() as u64;
    BenchResult {
        name: name.into(),
        iters,
        p50_ns: percentile(&samples_ns, 50),
        p95_ns: percentile(&samples_ns, 95),
        mean_ns,
        bytes_per_iter,
    }
}

/// Serializes a perf run as the `BENCH_pipeline.json` document.
pub fn to_json(mode: &str, results: &[BenchResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema_version\": {BENCH_SCHEMA_VERSION},\n"));
    out.push_str(&format!("  \"mode\": \"{}\",\n", json::escape(mode)));
    out.push_str("  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        let bps = match r.bytes_per_s() {
            Some(v) => v.to_string(),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"iters\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"mean_ns\": {}, \"bytes_per_s\": {}}}{}\n",
            json::escape(&r.name),
            r.iters,
            r.p50_ns,
            r.p95_ns,
            r.mean_ns,
            bps,
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Validates a `BENCH_pipeline.json` document: schema version, non-empty
/// bench list, required per-bench fields with sane values, unique names.
/// Returns the number of benchmarks on success.
pub fn validate_bench_json(text: &str) -> Result<usize, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let version = doc
        .get("schema_version")
        .and_then(JsonValue::as_int)
        .ok_or("missing integer schema_version")?;
    if version != BENCH_SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} != supported {BENCH_SCHEMA_VERSION}"
        ));
    }
    match doc.get("mode") {
        Some(JsonValue::Str(_)) => {}
        _ => return Err("missing string mode".to_string()),
    }
    let benches = doc
        .get("benches")
        .and_then(JsonValue::as_array)
        .ok_or("missing benches array")?;
    if benches.is_empty() {
        return Err("benches array is empty".to_string());
    }
    let mut names = std::collections::BTreeSet::new();
    for (i, b) in benches.iter().enumerate() {
        let name = match b.get("name") {
            Some(JsonValue::Str(s)) if !s.is_empty() => s.clone(),
            _ => return Err(format!("bench #{i}: missing non-empty name")),
        };
        if !names.insert(name.clone()) {
            return Err(format!("duplicate bench name {name:?}"));
        }
        let int_field = |key: &str| -> Result<i128, String> {
            b.get(key)
                .and_then(JsonValue::as_int)
                .ok_or_else(|| format!("bench {name:?}: missing integer {key}"))
        };
        if int_field("iters")? <= 0 {
            return Err(format!("bench {name:?}: iters must be positive"));
        }
        let p50 = int_field("p50_ns")?;
        let p95 = int_field("p95_ns")?;
        int_field("mean_ns")?;
        if p50 < 0 || p95 < p50 {
            return Err(format!("bench {name:?}: need 0 <= p50_ns <= p95_ns"));
        }
        match b.get("bytes_per_s") {
            Some(JsonValue::Null) | Some(JsonValue::Int(_)) => {}
            _ => return Err(format!("bench {name:?}: bytes_per_s must be int or null")),
        }
    }
    Ok(benches.len())
}

/// One row of a [`CompareReport`]: a benchmark present in the baseline
/// artifact, the candidate artifact, or both.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDelta {
    /// Benchmark name (`area/case`).
    pub name: String,
    /// Baseline median, when the baseline has this benchmark.
    pub base_p50_ns: Option<u64>,
    /// Candidate median, when the candidate has this benchmark.
    pub cand_p50_ns: Option<u64>,
}

impl BenchDelta {
    /// Median change in percent (positive = slower); `None` unless both
    /// sides measured the benchmark and the baseline median is nonzero.
    pub fn delta_pct(&self) -> Option<f64> {
        let base = self.base_p50_ns?;
        let cand = self.cand_p50_ns?;
        if base == 0 {
            return None;
        }
        Some((cand as f64 - base as f64) / base as f64 * 100.0)
    }
}

/// Result of comparing two perf artifacts (see [`compare_bench_json`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CompareReport {
    /// Per-benchmark deltas, in baseline order with candidate-only
    /// benchmarks appended.
    pub rows: Vec<BenchDelta>,
    /// Regression threshold in percent: a benchmark slower than this is a
    /// breach.
    pub threshold_pct: f64,
}

impl CompareReport {
    /// Names of benchmarks whose median regressed past the threshold.
    pub fn regressions(&self) -> Vec<&str> {
        self.rows
            .iter()
            .filter(|r| r.delta_pct().is_some_and(|d| d > self.threshold_pct))
            .map(|r| r.name.as_str())
            .collect()
    }

    /// The human-readable delta table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<32} {:>14} {:>14} {:>9}\n",
            "benchmark", "base p50", "cand p50", "delta"
        ));
        for r in &self.rows {
            let fmt_ns = |v: Option<u64>| match v {
                Some(n) => format!("{n} ns"),
                None => "-".to_string(),
            };
            let delta = match r.delta_pct() {
                Some(d) => format!("{d:+.1}%"),
                None => "-".to_string(),
            };
            let flag = match r.delta_pct() {
                Some(d) if d > self.threshold_pct => "  REGRESSION",
                _ => "",
            };
            out.push_str(&format!(
                "{:<32} {:>14} {:>14} {:>9}{}\n",
                r.name,
                fmt_ns(r.base_p50_ns),
                fmt_ns(r.cand_p50_ns),
                delta,
                flag,
            ));
        }
        out
    }
}

/// Extracts `name -> p50_ns` from a validated perf artifact, preserving
/// document order.
fn bench_medians(text: &str) -> Result<Vec<(String, u64)>, String> {
    validate_bench_json(text)?;
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let benches = doc
        .get("benches")
        .and_then(JsonValue::as_array)
        .ok_or("missing benches array")?;
    benches
        .iter()
        .map(|b| {
            let name = match b.get("name") {
                Some(JsonValue::Str(s)) => s.clone(),
                _ => return Err("missing name".to_string()),
            };
            let p50 = b
                .get("p50_ns")
                .and_then(JsonValue::as_int)
                .ok_or("missing p50_ns")? as u64;
            Ok((name, p50))
        })
        .collect()
}

/// Compares two `BENCH_pipeline.json` documents by median (`p50_ns`).
///
/// Both documents must validate against the schema. Rows keep the
/// baseline's order (candidate-only benchmarks are appended); a benchmark
/// missing on either side gets a dash instead of a delta. A candidate
/// median more than `threshold_pct` percent above the baseline counts as
/// a regression.
///
/// # Errors
///
/// Returns the validation or parse error of the offending document.
pub fn compare_bench_json(
    base: &str,
    cand: &str,
    threshold_pct: f64,
) -> Result<CompareReport, String> {
    let base = bench_medians(base).map_err(|e| format!("baseline: {e}"))?;
    let cand = bench_medians(cand).map_err(|e| format!("candidate: {e}"))?;
    let cand_map: std::collections::HashMap<&str, u64> =
        cand.iter().map(|(n, p)| (n.as_str(), *p)).collect();
    let base_names: std::collections::HashSet<&str> =
        base.iter().map(|(n, _)| n.as_str()).collect();
    let mut rows: Vec<BenchDelta> = base
        .iter()
        .map(|(name, p50)| BenchDelta {
            name: name.clone(),
            base_p50_ns: Some(*p50),
            cand_p50_ns: cand_map.get(name.as_str()).copied(),
        })
        .collect();
    for (name, p50) in &cand {
        if !base_names.contains(name.as_str()) {
            rows.push(BenchDelta {
                name: name.clone(),
                base_p50_ns: None,
                cand_p50_ns: Some(*p50),
            });
        }
    }
    Ok(CompareReport {
        rows,
        threshold_pct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PerfConfig {
        PerfConfig {
            samples: 4,
            batch_target_ns: 10_000,
            max_total_ns: 50_000_000,
        }
    }

    #[test]
    fn run_bench_produces_ordered_stats() {
        let mut x = 0u64;
        let r = run_bench("t/spin", Some(64), &cfg(), || {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        });
        assert!(r.iters > 0);
        assert!(r.p50_ns <= r.p95_ns);
        assert!(r.bytes_per_s().is_some());
    }

    #[test]
    fn json_roundtrip_validates() {
        let results = vec![
            BenchResult {
                name: "a/one".into(),
                iters: 10,
                p50_ns: 5,
                p95_ns: 9,
                mean_ns: 6,
                bytes_per_iter: Some(4096),
            },
            BenchResult {
                name: "b/two".into(),
                iters: 3,
                p50_ns: 100,
                p95_ns: 200,
                mean_ns: 120,
                bytes_per_iter: None,
            },
        ];
        let text = to_json("full", &results);
        assert_eq!(validate_bench_json(&text), Ok(2));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_bench_json("").is_err());
        assert!(validate_bench_json("{}").is_err());
        assert!(
            validate_bench_json(r#"{"schema_version": 2, "mode": "full", "benches": []}"#).is_err()
        );
        assert!(
            validate_bench_json(r#"{"schema_version": 1, "mode": "full", "benches": []}"#).is_err(),
            "empty bench list must fail"
        );
        let missing_field = r#"{"schema_version": 1, "mode": "full", "benches": [
            {"name": "x", "iters": 1, "p50_ns": 2, "p95_ns": 3}]}"#;
        assert!(validate_bench_json(missing_field).is_err());
        let dup = r#"{"schema_version": 1, "mode": "full", "benches": [
            {"name": "x", "iters": 1, "p50_ns": 2, "p95_ns": 3, "mean_ns": 2, "bytes_per_s": null},
            {"name": "x", "iters": 1, "p50_ns": 2, "p95_ns": 3, "mean_ns": 2, "bytes_per_s": null}]}"#;
        assert!(validate_bench_json(dup).unwrap_err().contains("duplicate"));
        let bad_order = r#"{"schema_version": 1, "mode": "full", "benches": [
            {"name": "x", "iters": 1, "p50_ns": 9, "p95_ns": 3, "mean_ns": 2, "bytes_per_s": null}]}"#;
        assert!(validate_bench_json(bad_order).is_err());
    }

    fn doc(benches: &[(&str, u64)]) -> String {
        let results: Vec<BenchResult> = benches
            .iter()
            .map(|(name, p50)| BenchResult {
                name: (*name).into(),
                iters: 10,
                p50_ns: *p50,
                p95_ns: *p50 * 2,
                mean_ns: *p50,
                bytes_per_iter: None,
            })
            .collect();
        to_json("full", &results)
    }

    #[test]
    fn compare_flags_only_regressions_past_threshold() {
        let base = doc(&[("a/fast", 100), ("b/slow", 1_000), ("c/same", 50)]);
        let cand = doc(&[("a/fast", 130), ("b/slow", 800), ("c/same", 52)]);
        let report = compare_bench_json(&base, &cand, 10.0).unwrap();
        assert_eq!(report.regressions(), vec!["a/fast"]);
        let a = &report.rows[0];
        assert_eq!(a.delta_pct().map(|d| d.round()), Some(30.0));
        // 4% noise on c/same stays under the 10% bar.
        assert!(report.render().contains("REGRESSION"));

        // A looser threshold clears it.
        let lax = compare_bench_json(&base, &cand, 35.0).unwrap();
        assert!(lax.regressions().is_empty());
    }

    #[test]
    fn compare_tolerates_asymmetric_bench_sets() {
        let base = doc(&[("a/x", 100), ("old/gone", 10)]);
        let cand = doc(&[("a/x", 90), ("new/added", 20)]);
        let report = compare_bench_json(&base, &cand, 10.0).unwrap();
        assert_eq!(report.rows.len(), 3);
        assert!(report.regressions().is_empty(), "missing rows never breach");
        let gone = report.rows.iter().find(|r| r.name == "old/gone").unwrap();
        assert_eq!(gone.cand_p50_ns, None);
        assert_eq!(gone.delta_pct(), None);
        let added = report.rows.iter().find(|r| r.name == "new/added").unwrap();
        assert_eq!(added.base_p50_ns, None);
    }

    #[test]
    fn compare_rejects_invalid_documents() {
        let good = doc(&[("a/x", 100)]);
        assert!(compare_bench_json("{}", &good, 10.0)
            .unwrap_err()
            .starts_with("baseline:"));
        assert!(compare_bench_json(&good, "nope", 10.0)
            .unwrap_err()
            .starts_with("candidate:"));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [10, 20, 30, 40];
        assert_eq!(percentile(&s, 50), 20);
        assert_eq!(percentile(&s, 95), 40);
        assert_eq!(percentile(&[7], 50), 7);
    }

    #[test]
    fn escaping_survives_parse() {
        let r = BenchResult {
            name: "we\"ird\\name".into(),
            iters: 1,
            p50_ns: 1,
            p95_ns: 1,
            mean_ns: 1,
            bytes_per_iter: None,
        };
        assert_eq!(validate_bench_json(&to_json("f\"ast", &[r])), Ok(1));
    }
}
