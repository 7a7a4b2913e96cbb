//! `bombdroid-obs` — the workspace-wide metrics & tracing layer.
//!
//! The paper's evaluation (§7–§8) is built on measurement: Traceview
//! profiling, per-phase protection cost (Table 5), trigger/response
//! latency (Table 3). This crate is the reproduction's equivalent
//! instrument: a zero-dependency facade the protection pipeline, the fleet
//! engine, the VM, and the bench harness all record into, with two
//! exporters — a human summary table and a schema-versioned
//! `metrics.json` artifact that CI diffs against a committed reference.
//!
//! # Model
//!
//! * **Counters** — monotonic `u64` sums (`obs::counter_add`).
//! * **Gauges** — last-write-wins `i64` values (`obs::gauge_set`).
//! * **Histograms** — log-bucketed distributions of deterministic values
//!   (`obs::record`), e.g. bombs injected per app.
//! * **Timings/spans** — wall-clock intervals (`obs::span` RAII guards or
//!   `obs::timing_record`). The *call count* of a timing is deterministic;
//!   the nanoseconds are not, and the deterministic export view
//!   ([`Recorder::to_json`] with `include_timings = false`) omits them.
//!
//! # Recorder scoping
//!
//! Every facade call records into the *active* recorder: the top of a
//! thread-local stack managed by [`with_recorder`], falling back to the
//! process-wide [`global`] recorder. The fleet engine gives each task its
//! own recorder and merges them into the fleet caller's recorder **in
//! task-index order** after the run, which preserves the engine's
//! bit-identical-across-thread-counts guarantee: sums, histogram buckets,
//! and call counts commute, and the one non-commutative operation (gauge
//! overwrite) happens in a deterministic order.
//!
//! # Modes
//!
//! `BOMBDROID_OBS` controls the layer process-wide:
//!
//! * `off` — facade calls are no-ops (one atomic load each).
//! * `full` (default, and any other value) — record everything; `repro`
//!   prints the summary table and writes `target/repro_output/metrics.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod flight;
pub mod hist;
pub mod json;
pub mod recorder;
pub mod schema;
mod span;
pub mod stream;

pub use hist::Histogram;
pub use recorder::{fmt_ns, Recorder, TimingStat, SCHEMA_VERSION};
pub use schema::{validate_flight, validate_metrics};
pub use span::Span;
pub use stream::{AggregatorSnapshot, ShardAggregator, WindowSummary};

use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

/// How much the observability layer does, per `BOMBDROID_OBS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsMode {
    /// Record nothing; export nothing.
    Off,
    /// Record; print the summary; write `metrics.json`. The default.
    Full,
}

impl ObsMode {
    /// Parses a `BOMBDROID_OBS` value; unknown strings fall back to the
    /// default (`Full`) so a typo degrades to "more data", never silence.
    pub fn parse(s: &str) -> ObsMode {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => ObsMode::Off,
            _ => ObsMode::Full,
        }
    }
}

// 0 = uninitialised, 1 = Off, 2 = Full. An AtomicU8 rather
// than a OnceLock so bench harnesses can flip modes inside one process to
// measure off-vs-full overhead ([`set_mode`]).
static MODE: AtomicU8 = AtomicU8::new(0);

fn encode_mode(m: ObsMode) -> u8 {
    match m {
        ObsMode::Off => 1,
        ObsMode::Full => 2,
    }
}

/// The process-wide mode: read from `BOMBDROID_OBS` on first use, but
/// overridable at runtime via [`set_mode`].
pub fn mode() -> ObsMode {
    match MODE.load(Ordering::Relaxed) {
        1 => ObsMode::Off,
        2 => ObsMode::Full,
        _ => {
            let m = std::env::var("BOMBDROID_OBS")
                .map(|s| ObsMode::parse(&s))
                .unwrap_or(ObsMode::Full);
            // First writer wins against a concurrent set_mode.
            let _ = MODE.compare_exchange(0, encode_mode(m), Ordering::Relaxed, Ordering::Relaxed);
            mode()
        }
    }
}

/// Forces the process-wide mode, overriding `BOMBDROID_OBS`. Intended for
/// harnesses (the benchmark fixes the mode per run); production code
/// should let the environment decide.
pub fn set_mode(m: ObsMode) {
    MODE.store(encode_mode(m), Ordering::Relaxed);
}

/// Whether recording is enabled at all.
pub fn enabled() -> bool {
    mode() != ObsMode::Off
}

/// The process-wide recorder everything merges into by default.
pub fn global() -> Arc<Recorder> {
    static GLOBAL: OnceLock<Arc<Recorder>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Recorder::new())).clone()
}

thread_local! {
    static STACK: RefCell<Vec<Arc<Recorder>>> = const { RefCell::new(Vec::new()) };
}

/// The recorder facade calls currently resolve to on this thread: the
/// innermost [`with_recorder`] scope, or [`global`] outside any scope.
pub fn current() -> Arc<Recorder> {
    STACK
        .with(|s| s.borrow().last().cloned())
        .unwrap_or_else(global)
}

/// Runs `f` with `rec` as this thread's active recorder. Scopes nest; the
/// previous recorder is restored when `f` returns *or unwinds* (the fleet
/// engine catches task panics outside this scope).
pub fn with_recorder<R>(rec: Arc<Recorder>, f: impl FnOnce() -> R) -> R {
    struct PopOnDrop;
    impl Drop for PopOnDrop {
        fn drop(&mut self) {
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
    STACK.with(|s| s.borrow_mut().push(rec));
    let _pop = PopOnDrop;
    f()
}

/// Adds `delta` to a counter in the active recorder.
pub fn counter_add(name: &str, delta: u64) {
    if enabled() {
        current().counter_add(name, delta);
    }
}

/// Adds `delta` to a counter only when it is nonzero — the sparse-counter
/// idiom used by per-session and per-campaign publishers (the VM's op-mix
/// counters, the guided fuzzer's `fuzz.*` family). Skipping zeros keeps
/// recorders small without breaking merge determinism: the skip depends
/// only on the deterministic value, never on scheduling, so merged totals
/// stay identical for any worker count.
pub fn counter_add_nz(name: &str, delta: u64) {
    if delta > 0 {
        counter_add(name, delta);
    }
}

/// Sets a gauge in the active recorder.
pub fn gauge_set(name: &str, value: i64) {
    if enabled() {
        current().gauge_set(name, value);
    }
}

/// Records a deterministic value into a histogram in the active recorder.
pub fn record(name: &str, value: u64) {
    if enabled() {
        current().record(name, value);
    }
}

/// Records one wall-clock interval under `name` in the active recorder.
pub fn timing_record(name: &str, ns: u64) {
    if enabled() {
        current().timing_record(name, ns);
    }
}

/// Opens a timing span; it records into the active recorder when dropped.
pub fn span(name: impl Into<String>) -> Span {
    if enabled() {
        Span::new(name.into())
    } else {
        Span::disarmed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing() {
        assert_eq!(ObsMode::parse("off"), ObsMode::Off);
        assert_eq!(ObsMode::parse("0"), ObsMode::Off);
        assert_eq!(ObsMode::parse("OFF"), ObsMode::Off);
        assert_eq!(ObsMode::parse("full"), ObsMode::Full);
        assert_eq!(ObsMode::parse("anything-else"), ObsMode::Full);
        assert_eq!(ObsMode::parse("summary"), ObsMode::Full);
    }

    #[test]
    fn with_recorder_scopes_and_restores() {
        if !enabled() {
            return; // BOMBDROID_OBS=off turns the facade into no-ops.
        }
        let outer = Arc::new(Recorder::new());
        let inner = Arc::new(Recorder::new());
        with_recorder(outer.clone(), || {
            counter_add("c", 1);
            with_recorder(inner.clone(), || {
                counter_add("c", 10);
            });
            counter_add("c", 2);
        });
        assert_eq!(outer.counter_value("c"), 3);
        assert_eq!(inner.counter_value("c"), 10);
    }

    #[test]
    fn scope_pops_on_unwind() {
        let rec = Arc::new(Recorder::new());
        let result = std::panic::catch_unwind(|| {
            with_recorder(rec.clone(), || panic!("boom"));
        });
        assert!(result.is_err());
        // The stack is clean: this lands in the global recorder, not `rec`.
        counter_add("after_unwind", 1);
        assert_eq!(rec.counter_value("after_unwind"), 0);
    }

    #[test]
    fn facade_defaults_to_global() {
        if !enabled() {
            return;
        }
        counter_add("obs.lib.global_smoke", 1);
        assert!(global().counter_value("obs.lib.global_smoke") >= 1);
    }
}
