//! Comparing two sets of runs, and the injected-slowdown self-test.
//!
//! A set of runs is the captured standard output of benchmark runs; each
//! run contributes its `perfbench-record` line. Runs are grouped by
//! workload and run kind; each metric is compared by its median across
//! the group's runs against the bound `BENCHMARK.json` fixes for it.
//! Results whose host fingerprints differ are not compared.

use crate::host::Fingerprint;
use crate::{population, protect, stats, WORKLOADS};
use bombdroid_obs::json::{self, JsonValue};
use std::collections::BTreeMap;

/// One run's record.
#[derive(Debug, Clone)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Host fingerprint.
    pub fingerprint: Fingerprint,
    /// Whether every output passed its check.
    pub correct: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Traced runs: self time per layer, in ms.
    pub self_ms: BTreeMap<String, f64>,
}

fn num_map(v: Option<&JsonValue>, value_key: Option<&str>) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(JsonValue::Object(entries)) = v {
        for (k, v) in entries {
            let v = match value_key {
                Some(key) => v.get(key),
                None => Some(v),
            };
            if let Some(x) = v.and_then(as_f64) {
                out.insert(k.clone(), x);
            }
        }
    }
    out
}

fn as_f64(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::Int(i) => Some(*i as f64),
        JsonValue::Float(f) => Some(*f),
        _ => None,
    }
}

fn parse_fingerprint(v: &JsonValue) -> Option<Fingerprint> {
    let s = |k: &str| v.get(k).and_then(JsonValue::as_str).map(str::to_string);
    let n = |k: &str| v.get(k).and_then(JsonValue::as_int).map(|i| i as usize);
    Some(Fingerprint {
        nproc: n("nproc")?,
        cpu_model: s("cpu_model")?,
        rustc: s("rustc")?,
        revision: s("revision")?,
        workers: n("workers")?,
        traced: matches!(v.get("traced"), Some(JsonValue::Bool(true))),
    })
}

/// Extracts every record from captured benchmark output.
///
/// # Errors
///
/// A record line that does not parse.
pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(body) = line.strip_prefix("perfbench-record ") else {
            continue;
        };
        let doc = json::parse(body).map_err(|e| format!("bad record: {e}"))?;
        let s = |k: &str| {
            doc.get(k)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("record without {k:?}"))
        };
        out.push(Record {
            workload: s("workload")?,
            fingerprint: doc
                .get("fingerprint")
                .and_then(parse_fingerprint)
                .ok_or("record without a fingerprint")?,
            correct: matches!(doc.get("correct"), Some(JsonValue::Bool(true))),
            metrics: num_map(doc.get("metrics"), Some("value")),
            self_ms: num_map(doc.get("self_ms"), None),
        });
    }
    Ok(out)
}

/// The end-to-end metrics' directions and bounds from `BENCHMARK.json`:
/// name → (lower is better, bound).
///
/// # Errors
///
/// A file that does not parse or lacks the list.
pub fn bounds(benchmark_json: &str) -> Result<BTreeMap<String, (bool, f64)>, String> {
    let doc = json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    let mut out = BTreeMap::new();
    for m in list {
        let name = m
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("metric without name")?;
        let lower = m.get("better").and_then(JsonValue::as_str) == Some("lower");
        let bound = m
            .get("bound")
            .and_then(as_f64)
            .ok_or("metric without bound")?;
        out.insert(name.to_string(), (lower, bound));
    }
    Ok(out)
}

/// The workload names `BENCHMARK.json` lists.
///
/// # Errors
///
/// A file that does not parse or lacks the list.
pub fn listed_workloads(benchmark_json: &str) -> Result<Vec<String>, String> {
    let doc = json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("workloads")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json: no workloads list")?
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| "workload without name".to_string())
        })
        .collect()
}

/// One metric of one workload, compared.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median of the base runs.
    pub base: f64,
    /// Median of the candidate runs.
    pub cand: f64,
    /// How much worse the candidate is, as a share of the base (negative
    /// when better).
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
    /// Whether `worse_by` exceeds the bound.
    pub flagged: bool,
}

fn medians<'a>(maps: impl IntoIterator<Item = &'a BTreeMap<String, f64>>) -> BTreeMap<String, f64> {
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for map in maps {
        for (k, v) in map {
            values.entry(k.clone()).or_default().push(*v);
        }
    }
    values
        .into_iter()
        .map(|(k, v)| (k, stats::median(&v)))
        .collect()
}

fn end_to_end<'a>(records: &'a [Record], workload: &str) -> Vec<&'a Record> {
    records
        .iter()
        .filter(|r| r.workload == workload && !r.fingerprint.traced)
        .collect()
}

/// Refuses to compare runs whose fingerprints differ.
fn same_host(base: &[&Record], cand: &[&Record]) -> Result<(), String> {
    let Some(first) = base.first().or(cand.first()) else {
        return Ok(());
    };
    for r in base.iter().chain(cand) {
        let diff = first.fingerprint.mismatches(&r.fingerprint);
        if !diff.is_empty() {
            return Err(format!(
                "refusing to compare {}: host fingerprints differ ({})",
                r.workload,
                diff.join("; ")
            ));
        }
    }
    Ok(())
}

/// Compares the end-to-end metrics of every workload present in both
/// sets.
///
/// # Errors
///
/// Fingerprints that differ.
pub fn compare_end_to_end(
    base: &[Record],
    cand: &[Record],
    bounds: &BTreeMap<String, (bool, f64)>,
) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        let (b, c) = (end_to_end(base, workload), end_to_end(cand, workload));
        if b.is_empty() || c.is_empty() {
            continue;
        }
        same_host(&b, &c)?;
        let (bm, cm) = (
            medians(b.iter().map(|r| &r.metrics)),
            medians(c.iter().map(|r| &r.metrics)),
        );
        for (metric, &(lower, bound)) in bounds {
            let (Some(&bv), Some(&cv)) = (bm.get(metric), cm.get(metric)) else {
                continue;
            };
            let worse_by = if bv == 0.0 {
                0.0
            } else if lower {
                (cv - bv) / bv
            } else {
                (bv - cv) / bv
            };
            rows.push(Row {
                workload: workload.to_string(),
                metric: metric.clone(),
                base: bv,
                cand: cv,
                worse_by,
                bound,
                flagged: worse_by > bound,
            });
        }
    }
    Ok(rows)
}

/// The traced records of a set, with each one's self times of the tree
/// whose node names start with `prefix` (prefix removed).
fn traced_layers<'a>(
    set: &'a [Record],
    prefix: &str,
) -> (Vec<&'a Record>, Vec<BTreeMap<String, f64>>) {
    let traced: Vec<&Record> = set.iter().filter(|r| r.fingerprint.traced).collect();
    let maps = traced
        .iter()
        .map(|r| {
            r.self_ms
                .iter()
                .filter_map(|(k, v)| Some((k.strip_prefix(prefix)?.to_string(), *v)))
                .collect()
        })
        .collect();
    (traced, maps)
}

/// Per-layer self-time growth of one workload's tree across traced runs,
/// largest first: (layer, base ms, candidate ms).
///
/// # Errors
///
/// Fingerprints that differ.
pub fn compare_layers(
    base: &[Record],
    cand: &[Record],
    workload: &str,
) -> Result<Vec<(String, f64, f64)>, String> {
    let prefix = format!("{workload}/");
    let ((b, b_maps), (c, c_maps)) = (traced_layers(base, &prefix), traced_layers(cand, &prefix));
    same_host(&b, &c)?;
    let (bm, cm) = (medians(&b_maps), medians(&c_maps));
    let mut rows: Vec<(String, f64, f64)> = cm
        .iter()
        .map(|(k, &cv)| (k.clone(), bm.get(k).copied().unwrap_or(0.0), cv))
        .collect();
    rows.sort_by(|x, y| (y.2 - y.1).total_cmp(&(x.2 - x.1)));
    Ok(rows)
}

/// Renders compared rows as a table.
pub fn render_rows(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<22} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "base", "candidate", "worse%", "bound%"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<22} {:<18} {:>14.4} {:>14.4} {:>9.2} {:>7.1}  {}\n",
            r.workload,
            r.metric,
            r.base,
            r.cand,
            100.0 * r.worse_by,
            100.0 * r.bound,
            if r.flagged { "REGRESSED" } else { "ok" }
        ));
    }
    out
}

/// Layers the self-test can slow, each with the workload whose end-to-end
/// metrics the slowdown must move.
pub const SLOWABLE: [(&str, &str); 2] = [
    ("core.service", protect::NAME),
    (population::VM_RUNNER, population::VM),
];

/// The workload a slowed layer must move.
pub fn workload_of_layer(layer: &str) -> Option<&'static str> {
    SLOWABLE.iter().find(|(l, _)| *l == layer).map(|(_, w)| *w)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, tput: f64, nproc: usize) -> Record {
        Record {
            workload: workload.into(),
            fingerprint: Fingerprint {
                nproc,
                cpu_model: "cpu".into(),
                rustc: "rustc".into(),
                revision: "a".into(),
                workers: 2,
                traced: false,
            },
            correct: true,
            metrics: [("throughput_per_s".to_string(), tput)]
                .into_iter()
                .collect(),
            self_ms: BTreeMap::new(),
        }
    }

    #[test]
    fn flags_only_the_slowed_workload_and_refuses_other_hosts() {
        let bounds: BTreeMap<String, (bool, f64)> =
            [("throughput_per_s".to_string(), (false, 0.1))]
                .into_iter()
                .collect();
        let base = vec![
            record("population_vm", 100.0, 2),
            record("protect_intake", 10.0, 2),
        ];
        let cand = vec![
            record("population_vm", 80.0, 2),
            record("protect_intake", 9.8, 2),
        ];
        let rows = compare_end_to_end(&base, &cand, &bounds).unwrap();
        let flagged: Vec<&str> = rows
            .iter()
            .filter(|r| r.flagged)
            .map(|r| r.workload.as_str())
            .collect();
        assert_eq!(flagged, ["population_vm"]);
        let other_host = vec![record("population_vm", 100.0, 8)];
        assert!(compare_end_to_end(&other_host, &cand, &bounds).is_err());
    }

    #[test]
    fn parses_bounds_and_records() {
        let b = bounds(r#"{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#).unwrap();
        assert_eq!(b["setup_s"], (true, 0.25));
        let line = format!(
            "x\nperfbench-record {{\"workload\": \"fuzz_campaign\", \"seed\": 3, \"inject\": \"\", \"fingerprint\": {}, \"correct\": true, \"metrics\": {{\"setup_s\": {{\"value\": 0.5, \"unit\": \"s\"}}}}, \"self_ms\": {{\"a\": 1.5}}}}\n",
            record("w", 1.0, 2).fingerprint.to_json()
        );
        let r = parse_records(&line).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].metrics["setup_s"], 0.5);
        assert_eq!(r[0].self_ms["a"], 1.5);
    }
}
