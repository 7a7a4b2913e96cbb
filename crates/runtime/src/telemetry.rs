//! Execution telemetry: what the measurement harness (and the paper's
//! Traceview-based profiling, §7.1) observes about a run.

use bombdroid_dex::{MethodRef, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Cap on recorded samples per field, to bound memory in long profiles.
pub const FIELD_SAMPLE_CAP: usize = 8_192;

/// A user-visible or destructive response fired by a detection payload
/// (paper §4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseKind {
    /// Process terminated.
    Killed,
    /// App frozen in an endless loop.
    Frozen,
    /// Large allocation leaked.
    MemoryLeaked,
    /// A reference field nulled out for a delayed crash.
    FieldNulled,
    /// The user was warned via UI.
    UserWarned,
}

/// One fired response, stamped with virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseEvent {
    /// What fired.
    pub kind: ResponseKind,
    /// Virtual milliseconds since process start.
    pub at_ms: u64,
}

/// Everything recorded while a VM runs.
///
/// Derives `PartialEq`/`Eq` so suites can assert *bit-identity* between
/// runs, and `Debug` renders every field in a fixed order — the golden
/// digests of `tests/behavior_preservation.rs` hash that rendering.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Telemetry {
    /// Instructions executed (the cost model's cycle count).
    pub instr_executed: u64,
    /// Events fired through entry points.
    pub events_run: u64,
    /// Per-method invocation counts (the Traceview analogue). A `BTreeMap`
    /// so profile reports and hot-method derivation iterate in a stable
    /// order regardless of hasher state.
    pub method_calls: BTreeMap<MethodRef, u64>,
    /// Obfuscated outer trigger conditions observed *satisfied*:
    /// `(method, pc)` of a hash-equality branch that evaluated true.
    pub outer_satisfied: BTreeSet<(MethodRef, usize)>,
    /// All equality conditions observed satisfied (QC coverage statistics).
    pub eq_satisfied: BTreeSet<(MethodRef, usize)>,
    /// Marker ids seen — the protector tags each bomb payload, so this is
    /// the set of *triggered* bombs.
    pub markers: BTreeSet<u32>,
    /// Virtual time when the first marker fired (time-to-first-bomb,
    /// Table 3).
    pub first_marker_ms: Option<u64>,
    /// Blobs successfully decrypted.
    pub blobs_decrypted: BTreeSet<u32>,
    /// Failed decryptions (wrong key / tampered blob) — what forced
    /// execution runs into.
    pub decrypt_failures: u64,
    /// Responses fired.
    pub responses: Vec<ResponseEvent>,
    /// Piracy reports sent to the developer.
    pub piracy_reports: u64,
    /// Log lines.
    pub logs: Vec<String>,
    /// Bytes leaked by `LeakMemory` responses.
    pub leaked_bytes: u64,
    /// Scalar values written to fields over time (profiling for artificial
    /// QC selection, §7.2, and Fig. 3); capped per field.
    pub field_values: BTreeMap<String, Vec<(u64, Value)>>,
    /// Reflection calls observed by an attacker hook (name, at_ms).
    pub reflection_trace: Vec<(String, u64)>,
}

impl Telemetry {
    /// Creates empty telemetry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether any detection response has fired.
    pub fn detection_fired(&self) -> bool {
        !self.responses.is_empty() || self.piracy_reports > 0
    }

    /// Number of distinct bombs triggered.
    pub fn bombs_triggered(&self) -> usize {
        self.markers.len()
    }

    /// Records a field write, respecting the per-field cap. Public so test
    /// fixtures and the protector's planner can synthesize profiles.
    pub fn record_field(&mut self, field: String, at_ms: u64, value: Value) {
        let samples = self.field_values.entry(field).or_default();
        if samples.len() < FIELD_SAMPLE_CAP {
            samples.push((at_ms, value));
        }
    }

    /// [`Self::record_field`] by reference: the key is only materialized on
    /// a field's first sample, so steady-state profiling (thousands of
    /// writes to a handful of fields) never allocates for the lookup.
    pub(crate) fn record_field_ref(&mut self, field: &str, at_ms: u64, value: Value) {
        match self.field_values.get_mut(field) {
            Some(samples) => {
                if samples.len() < FIELD_SAMPLE_CAP {
                    samples.push((at_ms, value));
                }
            }
            None => {
                self.field_values
                    .insert(field.to_string(), vec![(at_ms, value)]);
            }
        }
    }

    /// Hot methods: the `ratio` most-frequently-invoked methods (the paper
    /// excludes the top 10% from instrumentation, §7.1).
    pub fn hot_methods(&self, ratio: f64) -> Vec<MethodRef> {
        let mut counts: Vec<(&MethodRef, u64)> =
            self.method_calls.iter().map(|(m, c)| (m, *c)).collect();
        counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        let take = ((counts.len() as f64) * ratio).floor() as usize;
        counts
            .into_iter()
            .take(take)
            .map(|(m, _)| m.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_methods_takes_top_ratio() {
        let mut t = Telemetry::new();
        for (name, count) in [("a", 100u64), ("b", 50), ("c", 10), ("d", 5), ("e", 1)] {
            t.method_calls.insert(MethodRef::new("C", name), count);
        }
        let hot = t.hot_methods(0.2);
        assert_eq!(hot.len(), 1);
        assert_eq!(&*hot[0].name, "a");
        let hot40 = t.hot_methods(0.4);
        assert_eq!(hot40.len(), 2);
    }

    #[test]
    fn method_calls_iterate_deterministically_sorted() {
        let mut t = Telemetry::new();
        for name in ["zed", "alpha", "mid", "beta"] {
            t.method_calls.insert(MethodRef::new("C", name), 1);
        }
        let names: Vec<String> = t.method_calls.keys().map(|m| m.name.to_string()).collect();
        assert_eq!(names, vec!["alpha", "beta", "mid", "zed"]);
    }

    #[test]
    fn field_cap_respected() {
        let mut t = Telemetry::new();
        for i in 0..(FIELD_SAMPLE_CAP + 100) {
            t.record_field("F.x".into(), i as u64, Value::Int(i as i64));
        }
        assert_eq!(t.field_values["F.x"].len(), FIELD_SAMPLE_CAP);
    }

    #[test]
    fn detection_fired_logic() {
        let mut t = Telemetry::new();
        assert!(!t.detection_fired());
        t.piracy_reports = 1;
        assert!(t.detection_fired());
    }
}
