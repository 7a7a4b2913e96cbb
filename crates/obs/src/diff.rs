//! Run-report diffing: compares two schema-v1 `metrics.json` artifacts.
//!
//! The paper's evaluation tables are comparisons — protected vs baseline,
//! run vs run. This module gives the reproduction the same move for its
//! own artifacts: validate two exports, walk every section, and report
//! what changed (deltas and percentages for counters and histogram
//! volumes, approximate p50/p95 drift for histograms and timings,
//! added/removed keys). The `metrics_diff` binary in `bombdroid-bench`
//! renders the report as a table and exits nonzero on any breach; CI runs
//! it as a hard gate between a committed reference and the fresh smoke
//! artifact.
//!
//! Breaches are exact and only raised for *deterministic* quantities —
//! counter values and histogram counts, which are bit-identical for any
//! thread count — plus any key added to or removed from those sections.
//! Wall-clock numbers (timing `total_ns`, percentile estimates) and gauges
//! vary run to run and are reported for context, never failed on.

use std::collections::BTreeSet;

use crate::hist::bucket_floor;
use crate::json::{parse, JsonValue};
use crate::schema::validate_metrics;

/// What happened to one metric between the two artifacts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffKind {
    /// Present only in the candidate.
    Added,
    /// Present only in the base.
    Removed,
    /// Present in both with a different value.
    Changed,
}

/// One row of the diff report.
#[derive(Debug, Clone)]
pub struct DiffEntry {
    /// Section the metric lives in (`counters`, `gauges`, …).
    pub section: &'static str,
    /// Metric name.
    pub name: String,
    /// Added / removed / changed.
    pub kind: DiffKind,
    /// Rendered base value (`-` when absent).
    pub base: String,
    /// Rendered candidate value (`-` when absent).
    pub cand: String,
    /// Relative change in percent, when both sides are numeric and the
    /// base is nonzero.
    pub pct: Option<f64>,
    /// Whether this row changes a deterministic quantity.
    pub breach: bool,
}

/// The full comparison of two artifacts.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// All rows with a difference, in section/name order.
    pub entries: Vec<DiffEntry>,
    /// Metrics compared (changed or not) — a sanity denominator.
    pub compared: usize,
}

impl DiffReport {
    /// Whether any row is a breach.
    pub fn has_breach(&self) -> bool {
        self.entries.iter().any(|e| e.breach)
    }

    /// Number of breaching rows.
    pub fn breaches(&self) -> usize {
        self.entries.iter().filter(|e| e.breach).count()
    }

    /// Renders the report as an aligned, human-readable table.
    pub fn table(&self) -> String {
        if self.entries.is_empty() {
            return format!("no differences across {} metrics\n", self.compared);
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:<42} {:>16} {:>16} {:>9}  {}\n",
            "section", "metric", "base", "candidate", "delta%", "flag"
        ));
        for e in &self.entries {
            let pct = match e.pct {
                Some(p) if p.is_finite() => format!("{p:+.1}%"),
                Some(_) => "new".to_string(),
                None => "-".to_string(),
            };
            let flag = match (&e.kind, e.breach) {
                (_, true) => "BREACH",
                (DiffKind::Added, _) => "added",
                (DiffKind::Removed, _) => "removed",
                (DiffKind::Changed, _) => "",
            };
            out.push_str(&format!(
                "{:<10} {:<42} {:>16} {:>16} {:>9}  {}\n",
                e.section, e.name, e.base, e.cand, pct, flag
            ));
        }
        out.push_str(&format!(
            "{} difference(s) across {} metrics, {} breach(es)\n",
            self.entries.len(),
            self.compared,
            self.breaches()
        ));
        out
    }
}

fn pct_change(base: i128, cand: i128) -> Option<f64> {
    if base == cand {
        return None;
    }
    if base == 0 {
        return Some(f64::INFINITY);
    }
    Some((cand - base) as f64 / base.unsigned_abs() as f64 * 100.0)
}

/// Approximate nearest-rank percentile from exported `[index, count]`
/// bucket pairs (bucket floor, like the live recorder).
fn bucket_percentile(buckets: &[JsonValue], p: f64) -> Option<u64> {
    let pairs: Vec<(usize, u64)> = buckets
        .iter()
        .filter_map(|b| {
            let pair = b.as_array()?;
            Some((
                usize::try_from(pair.first()?.as_int()?).ok()?,
                u64::try_from(pair.get(1)?.as_int()?).ok()?,
            ))
        })
        .collect();
    let count: u64 = pairs.iter().map(|(_, n)| n).sum();
    if count == 0 {
        return None;
    }
    let rank = ((p / 100.0 * count as f64).ceil() as u64).clamp(1, count);
    let mut cum = 0u64;
    for (i, n) in pairs {
        cum += n;
        if cum >= rank {
            return Some(bucket_floor(i));
        }
    }
    None
}

fn int_field(v: &JsonValue, key: &str) -> i128 {
    v.get(key).and_then(JsonValue::as_int).unwrap_or(0)
}

/// The sections compared, in report order, and whether a change in each
/// is a breach (deterministic) or context only (gauges, wall-clock).
const SECTIONS: [(&str, bool); 4] = [
    ("counters", true),
    ("gauges", false),
    ("histograms", true),
    ("timings", false),
];

/// One metric as the diff sees it: the compared quantities (the headline
/// value — counter or gauge value, histogram count, timing calls — and one
/// secondary field), the rendering of a changed row, and the brief
/// rendering of an added or removed one.
fn describe(section: &str, v: &JsonValue) -> ((i128, i128), String, String) {
    match section {
        "histograms" => {
            let (n, sum) = (int_field(v, "count"), int_field(v, "sum"));
            let p50 = v
                .get("buckets")
                .and_then(JsonValue::as_array)
                .and_then(|bk| bucket_percentile(bk, 50.0))
                .unwrap_or(0);
            (
                (n, sum),
                format!("n={n} Σ={sum} p50={p50}"),
                format!("n={n}"),
            )
        }
        "timings" => {
            let (calls, p95) = (int_field(v, "calls"), int_field(v, "p95_ns"));
            let p95_fmt = crate::fmt_ns(p95.max(0) as u64);
            let full = format!("calls={calls} p95={p95_fmt}");
            ((calls, p95), full, "present".to_string())
        }
        _ => {
            let x = v.as_int().unwrap_or(0);
            ((x, 0), x.to_string(), x.to_string())
        }
    }
}

/// Validates and compares two `metrics.json` texts. Any change to a
/// counter value or histogram count, and any key added to or removed from
/// those sections, is a breach; an input that fails [`validate_metrics`]
/// is an error labelled with its side.
pub fn diff_metrics(base: &str, cand: &str) -> Result<DiffReport, String> {
    let load = |label: &str, text: &str| {
        validate_metrics(text)
            .and_then(|()| parse(text).map_err(|e| e.to_string()))
            .map_err(|e| format!("{label}: {e}"))
    };
    let (base, cand) = (load("base", base)?, load("candidate", cand)?);

    let mut entries = Vec::new();
    let mut compared = 0usize;
    for (section, deterministic) in SECTIONS {
        let [b, c] = [&base, &cand].map(|root| {
            root.get(section)
                .and_then(JsonValue::as_object)
                .expect("validate_metrics checks every section")
        });
        let names: BTreeSet<&String> = b.keys().chain(c.keys()).collect();
        for name in names {
            compared += 1;
            let b = b.get(name).map(|v| describe(section, v));
            let c = c.get(name).map(|v| describe(section, v));
            let (kind, base, cand, pct) = match (b, c) {
                (Some((bq, _, _)), Some((cq, _, _))) if bq == cq => continue,
                (Some((bq, bs, _)), Some((cq, cs, _))) => {
                    (DiffKind::Changed, bs, cs, pct_change(bq.0, cq.0))
                }
                (Some((_, _, bs)), None) => (DiffKind::Removed, bs, "-".to_string(), None),
                (None, Some((_, _, cs))) => (DiffKind::Added, "-".to_string(), cs, None),
                (None, None) => unreachable!("name comes from one of the sections"),
            };
            // A changed row breaches only when its headline moved (a
            // histogram whose sum alone drifted is context).
            let breach = deterministic && (kind != DiffKind::Changed || pct.is_some());
            entries.push(DiffEntry {
                section,
                name: name.clone(),
                kind,
                base,
                cand,
                pct,
                breach,
            });
        }
    }
    Ok(DiffReport { entries, compared })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn artifact(counter: u64, hist: &[u64], timing_ns: u64) -> String {
        let r = Recorder::new();
        r.counter_add("c.stable", 100);
        r.counter_add("c.moving", counter);
        r.gauge_set("g", 5);
        for &v in hist {
            r.record("h", v);
        }
        r.timing_record("t", timing_ns);
        r.to_json(true)
    }

    #[test]
    fn identical_artifacts_produce_no_differences() {
        let a = artifact(10, &[1, 2, 3], 1000);
        let report = diff_metrics(&a, &a).unwrap();
        assert!(report.entries.is_empty(), "{}", report.table());
        assert!(!report.has_breach());
        assert!(report.compared >= 4);
        assert!(report.table().contains("no differences"));
    }

    #[test]
    fn one_unit_counter_drift_is_a_breach() {
        let base = artifact(100, &[1], 1000);
        let cand = artifact(101, &[1], 1000);
        let report = diff_metrics(&base, &cand).unwrap();
        assert!(report.has_breach());
        assert_eq!(report.breaches(), 1);
        let row = report
            .entries
            .iter()
            .find(|e| e.name == "c.moving")
            .expect("moving counter reported");
        assert_eq!(row.kind, DiffKind::Changed);
        assert!((row.pct.unwrap() - 1.0).abs() < 1e-9);
        assert!(report.table().contains("BREACH"));
    }

    #[test]
    fn added_and_removed_counters_are_breaches() {
        let base = artifact(10, &[1], 1000);
        let cand = {
            let r = Recorder::new();
            r.counter_add("c.stable", 100);
            // c.moving gone, c.brand_new appears.
            r.counter_add("c.brand_new", 1);
            r.gauge_set("g", 5);
            r.record("h", 1);
            r.timing_record("t", 1000);
            r.to_json(true)
        };
        let report = diff_metrics(&base, &cand).unwrap();
        let kinds: Vec<_> = report
            .entries
            .iter()
            .filter(|e| e.section == "counters")
            .map(|e| (e.name.clone(), e.kind.clone(), e.breach))
            .collect();
        assert!(kinds.contains(&("c.brand_new".to_string(), DiffKind::Added, true)));
        assert!(kinds.contains(&("c.moving".to_string(), DiffKind::Removed, true)));
    }

    #[test]
    fn histogram_count_drift_breaches_but_timing_drift_never_does() {
        let base = artifact(10, &[5, 5], 1_000);
        let cand = artifact(10, &[5, 5, 5, 5], 9_999_999);
        let report = diff_metrics(&base, &cand).unwrap();
        let hist = report
            .entries
            .iter()
            .find(|e| e.section == "histograms")
            .expect("histogram reported");
        assert!(hist.breach, "count doubled → breach");
        let timing = report
            .entries
            .iter()
            .find(|e| e.section == "timings")
            .expect("timing drift reported");
        assert!(!timing.breach, "wall-clock drift must stay advisory");
    }

    #[test]
    fn gauges_report_without_breaching() {
        let base = artifact(10, &[1], 1000);
        let cand = base.replace("\"g\": 5", "\"g\": 50");
        let report = diff_metrics(&base, &cand).unwrap();
        let g = report
            .entries
            .iter()
            .find(|e| e.section == "gauges")
            .expect("gauge change reported");
        assert!(!g.breach);
    }

    #[test]
    fn malformed_inputs_error_with_side_labels() {
        let good = artifact(10, &[1], 1000);
        assert!(diff_metrics("not json", &good)
            .unwrap_err()
            .contains("base"));
        assert!(diff_metrics(&good, "not json")
            .unwrap_err()
            .contains("candidate"));
        assert!(diff_metrics("[]", &good).unwrap_err().contains("base"));
    }

    #[test]
    fn candidate_failing_schema_validation_is_an_error() {
        let good = artifact(10, &[1], 1000);
        let bad = good.replace(
            &format!("\"schema_version\": {}", crate::SCHEMA_VERSION),
            "\"schema_version\": 999",
        );
        assert_ne!(good, bad, "fixture must carry a schema_version");
        let err = diff_metrics(&good, &bad).unwrap_err();
        assert!(err.starts_with("candidate"), "{err}");
        assert!(err.contains("999"), "{err}");
    }

    #[test]
    fn bucket_percentile_matches_live_recorder() {
        let r = Recorder::new();
        for _ in 0..90 {
            r.record("h", 1_024);
        }
        for _ in 0..10 {
            r.record("h", 1_048_576);
        }
        let json = r.to_json(true);
        let parsed = parse(&json).unwrap();
        let buckets = parsed
            .get("histograms")
            .unwrap()
            .get("h")
            .unwrap()
            .get("buckets")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(bucket_percentile(buckets, 50.0), Some(1_024));
        assert_eq!(bucket_percentile(buckets, 95.0), Some(1_048_576));
    }
}
