//! End-to-end benchmark of the BombDroid-rs user paths, with a per-layer
//! breakdown from a separate traced run. See `README.md` in this
//! directory for the workloads, metrics and how to read the output.
//!
//! The benchmark drives the system only through the public APIs of the
//! workspace crates. End-to-end runs switch observability off; the traced
//! run switches it on, wraps each call into a layer's public function in
//! a span of its own, and reads the counters and spans the program
//! already emits.

pub mod breakdown;
pub mod compare;
pub mod fuzz;
pub mod host;
pub mod oracle;
pub mod population;
pub mod protect;
pub mod stats;

use bombdroid_apk::DeveloperKey;
use breakdown::Node;
use host::Fingerprint;
use rand::{rngs::StdRng, SeedableRng};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The workloads, in the order the docs describe them.
pub const WORKLOADS: [&str; 4] = [
    protect::NAME,
    population::VM,
    fuzz::NAME,
    population::SYNTHETIC,
];

/// End-to-end metrics every untraced run reports: `(name, unit)`. What an
/// "operation" is depends on the workload (see `README.md`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// Per-layer metrics: `(workload, metric, unit)`. A traced run measures
/// every workload, whatever `--workload` names, and reports each metric
/// as `<workload>.<metric>`.
pub const PER_LAYER: [(&str, &str, &str); 61] = [
    (protect::NAME, "runtime.profile_ns_per_instr", "ns"),
    (protect::NAME, "runtime.profile_ms", "ms"),
    (protect::NAME, "runtime.instr", "count"),
    (protect::NAME, "runtime.events", "count"),
    (protect::NAME, "core.sites.plan_ms", "ms"),
    (protect::NAME, "core.pipeline.arm_ms", "ms"),
    (protect::NAME, "core.pipeline.bombs", "count"),
    (protect::NAME, "crypto.sealed_bytes", "bytes"),
    (protect::NAME, "dex.validate_ms", "ms"),
    (protect::NAME, "apk.package_ms", "ms"),
    (protect::NAME, "dex.encode_ms", "ms"),
    (protect::NAME, "dex.encoded_bytes", "bytes"),
    (protect::NAME, "core.service.hit_us", "us"),
    (protect::NAME, "core.service.cache_hit_ratio", "ratio"),
    (protect::NAME, "unattributed_pct", "%"),
    (protect::NAME, "bench.operations", "count"),
    (population::VM, "runtime.ns_per_instr", "ns"),
    (population::VM, "runtime.instr", "count"),
    (population::VM, "runtime.events", "count"),
    (population::VM, "runtime.fork_us", "us"),
    (population::VM, "runtime.drive_us", "us"),
    (population::VM, "runtime.blobs_decrypted", "count"),
    (population::VM, "runtime.decrypt_failures", "count"),
    (population::VM, "runtime.frag_cache_hit_ratio", "ratio"),
    (population::VM, "sim.fold_ms", "ms"),
    (population::VM, "sim.runner_us", "us"),
    (population::VM, "sim.sessions", "count"),
    (population::VM, "core.fleet.idle_pct", "%"),
    (population::VM, "obs.windows_sealed", "count"),
    (population::VM, "obs.live_metric_names", "count"),
    (population::VM, "sim.checkpoint_ms", "ms"),
    (population::VM, "sim.resume_ms", "ms"),
    (population::VM, "sim.checkpoint_bytes", "bytes"),
    (population::VM, "unattributed_pct", "%"),
    (population::VM, "bench.operations", "count"),
    (fuzz::NAME, "attacks.harvest_ms", "ms"),
    (fuzz::NAME, "crypto.condition_hashes", "count"),
    (fuzz::NAME, "attacks.exec_us", "us"),
    (fuzz::NAME, "attacks.minset_ms", "ms"),
    (fuzz::NAME, "runtime.fork_us", "us"),
    (fuzz::NAME, "runtime.ns_per_instr", "ns"),
    (fuzz::NAME, "runtime.instr", "count"),
    (fuzz::NAME, "runtime.events", "count"),
    (fuzz::NAME, "fuzz.execs", "count"),
    (fuzz::NAME, "fuzz.edges", "count"),
    (fuzz::NAME, "fuzz.corpus_entries", "count"),
    (fuzz::NAME, "fuzz.bombs_found", "count"),
    (fuzz::NAME, "obs.windows_sealed", "count"),
    (fuzz::NAME, "unattributed_pct", "%"),
    (fuzz::NAME, "bench.operations", "count"),
    (population::SYNTHETIC, "sim.fold_ms", "ms"),
    (population::SYNTHETIC, "sim.runner_us", "us"),
    (population::SYNTHETIC, "sim.sessions", "count"),
    (population::SYNTHETIC, "core.fleet.idle_pct", "%"),
    (population::SYNTHETIC, "obs.windows_sealed", "count"),
    (population::SYNTHETIC, "obs.live_metric_names", "count"),
    (population::SYNTHETIC, "sim.checkpoint_ms", "ms"),
    (population::SYNTHETIC, "sim.resume_ms", "ms"),
    (population::SYNTHETIC, "sim.checkpoint_bytes", "bytes"),
    (population::SYNTHETIC, "unattributed_pct", "%"),
    (population::SYNTHETIC, "bench.operations", "count"),
];

/// Whether a per-layer metric counts work rather than time: such a
/// metric must repeat exactly for a given seed, across runs and worker
/// counts.
pub fn is_work_count(unit: &str) -> bool {
    unit == "count" || unit == "bytes"
}

/// The reported name of a per-layer metric.
pub fn layer_metric(workload: &str, metric: &str) -> String {
    format!("{workload}.{metric}")
}

/// How one run is set up.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed that picks the order and mix of operations.
    pub seed: u64,
    /// Measured time of an end-to-end run.
    pub seconds: f64,
    /// Traced run (per-layer metrics of every workload) instead of an
    /// end-to-end run.
    pub trace: bool,
    /// Fleet worker threads.
    pub workers: usize,
    /// Layer to slow down (the injected-slowdown self-test).
    pub inject: Option<String>,
}

/// A named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed its correctness check.
    pub failed: u64,
    /// Contract metrics (end-to-end or per-layer, by run kind).
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines: the workload's own metric names, sample
    /// counts and the first failures.
    pub notes: Vec<String>,
    /// The traced run's self-time tree of each workload.
    pub trees: Vec<(String, Node)>,
}

impl Outcome {
    /// Records a failed operation with its reason (the first few reasons
    /// are kept for the report).
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        if self
            .notes
            .iter()
            .filter(|n| n.starts_with("FAILED"))
            .count()
            < 8
        {
            self.notes.push(format!("FAILED {why}"));
        }
    }

    /// Sets a contract metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }
}

/// Slows one layer's public call down on request: after the call returns,
/// spins for a quarter of the time it took, so 20% of the slowed layer's
/// busy time is injected.
#[derive(Debug, Clone, Default)]
pub struct Inject {
    layer: Option<String>,
}

impl Inject {
    /// Slows `layer` (or nothing).
    pub fn new(layer: Option<String>) -> Self {
        Inject { layer }
    }

    /// Whether `layer` is the slowed one.
    pub fn targets(&self, layer: &str) -> bool {
        self.layer.as_deref() == Some(layer)
    }

    /// Pads a call that took `took` if `layer` is the slowed one.
    pub fn pad(&self, layer: &str, took: Duration) {
        if self.targets(layer) {
            spin(took / 4);
        }
    }
}

fn spin(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// The developer's and the pirate's signing keys (fixed, so protected
/// outputs are reproducible).
pub fn keys() -> (DeveloperKey, DeveloperKey) {
    let mut rng = StdRng::seed_from_u64(0xB0_0B5);
    (
        DeveloperKey::generate(&mut rng),
        DeveloperKey::generate(&mut rng),
    )
}

/// Runs `setup` `n` times, each from scratch, and returns the last
/// result with the median set-up time in seconds.
pub fn timed_setups<T>(n: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one setup ran"), stats::median(&times))
}

/// Nanoseconds of a duration, saturating.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A permutation of `0..n` drawn from `seed`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    use rand::seq::SliceRandom;
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    order
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Runs one workload end to end, or every workload traced, and returns
/// the outcome (without the host fields, which [`render`] adds).
///
/// # Errors
///
/// An unknown workload name.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    // The protect pipeline sizes its arm-phase pool from this variable.
    std::env::set_var("BOMBDROID_THREADS", opts.workers.to_string());
    // Tracing off for end-to-end runs, on for the traced run.
    bombdroid_obs::set_mode(if opts.trace {
        bombdroid_obs::ObsMode::Full
    } else {
        bombdroid_obs::ObsMode::Off
    });
    let inject = Inject::new(opts.inject.clone());
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload {:?}", opts.workload));
    }
    if !opts.trace {
        let mut outcome = run_workload(&opts.workload, opts, &inject);
        outcome.set("peak_rss_mb", host::peak_rss_mb());
        return Ok(outcome);
    }
    let traced_start = Instant::now();
    let mut all = Outcome::default();
    for workload in WORKLOADS {
        let mut one = run_workload(workload, opts, &inject);
        if let Some(tree) = one.trees.first().map(|(_, t)| t) {
            one.set("unattributed_pct", tree.unattributed_pct());
        }
        all.attempted += one.attempted;
        all.failed += one.failed;
        all.notes
            .extend(one.notes.into_iter().map(|n| format!("[{workload}] {n}")));
        for (metric, value) in one.metrics {
            all.set(&layer_metric(workload, &metric), value);
        }
        all.trees.extend(one.trees);
    }
    all.set("bench.traced_wall_s", traced_start.elapsed().as_secs_f64());
    Ok(all)
}

fn run_workload(workload: &str, opts: &Options, inject: &Inject) -> Outcome {
    let opts = Options {
        workload: workload.to_string(),
        ..opts.clone()
    };
    match workload {
        protect::NAME => protect::run(&opts, inject),
        fuzz::NAME => fuzz::run(&opts),
        _ => population::run(&opts, inject),
    }
}

/// Set-ups a run makes: several for an end-to-end run, whose `setup_s`
/// is their median; one for the traced run.
pub fn setups(opts: &Options) -> usize {
    if opts.trace {
        1
    } else {
        9
    }
}

/// The run's report: human-readable lines, one `perfbench-record` line
/// (the input of `perfbench compare`), and the result object as the last
/// line.
///
/// # Errors
///
/// A metric the run kind must report is missing or not finite; no
/// report is produced, so a lost metric cannot read as a perfect value.
pub fn render(opts: &Options, outcome: &Outcome) -> Result<String, String> {
    let fingerprint = Fingerprint::current(opts.workers, opts.trace);
    let wanted: Vec<(String, &str)> = if opts.trace {
        PER_LAYER
            .iter()
            .map(|(w, m, unit)| (layer_metric(w, m), *unit))
            .chain([("bench.traced_wall_s".to_string(), "s")])
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(m, u)| (m.to_string(), *u))
            .collect()
    };
    let metrics: Vec<Metric> = wanted
        .iter()
        .map(|(name, unit)| match outcome.metrics.get(name) {
            Some(&value) if value.is_finite() => Ok(Metric {
                name: name.clone(),
                value,
                unit: unit.to_string(),
            }),
            Some(value) => Err(format!("metric {name} is not finite ({value})")),
            None => Err(format!("metric {name} was not measured")),
        })
        .collect::<Result<_, _>>()?;
    let mut out = format!(
        "perfbench {} seed={} {} workers={}{}\n",
        opts.workload,
        opts.seed,
        if opts.trace { "traced" } else { "end-to-end" },
        opts.workers,
        opts.inject
            .as_ref()
            .map(|l| format!(" slowed={l}"))
            .unwrap_or_default()
    );
    out.push_str(&format!("fingerprint {}\n", fingerprint.to_json()));
    for note in &outcome.notes {
        out.push_str(note);
        out.push('\n');
    }
    for (workload, tree) in &outcome.trees {
        out.push_str(&format!("breakdown {workload}\n"));
        out.push_str(&tree.render());
    }
    for m in &metrics {
        out.push_str(&format!("{:<40} {:>16.6} {}\n", m.name, m.value, m.unit));
    }
    out.push_str(&format!(
        "operations attempted {} failed {}\n",
        outcome.attempted, outcome.failed
    ));
    let metric_json = |m: &Metric| {
        format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&m.name),
            m.value,
            json_str(&m.unit)
        )
    };
    let metrics_obj = metrics
        .iter()
        .map(metric_json)
        .collect::<Vec<_>>()
        .join(", ");
    let self_times = outcome
        .trees
        .iter()
        .flat_map(|(workload, tree)| {
            tree.self_times()
                .into_iter()
                .map(move |(k, v)| format!("{}: {}", json_str(&format!("{workload}/{k}")), v / 1e6))
        })
        .collect::<Vec<_>>()
        .join(", ");
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    out.push_str(&format!(
        "perfbench-record {{\"workload\": {}, \"seed\": {}, \"inject\": {}, \"fingerprint\": {}, \"correct\": {correct}, \"metrics\": {{{metrics_obj}}}, \"self_ms\": {{{self_times}}}}}\n",
        json_str(&opts.workload),
        opts.seed,
        json_str(opts.inject.as_deref().unwrap_or("")),
        fingerprint.to_json(),
    ));
    out.push_str(&format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics_obj}}}}}\n",
        outcome.attempted, outcome.failed
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_refuses_a_missing_or_non_finite_metric() {
        let opts = Options {
            workload: protect::NAME.to_string(),
            seed: 1,
            seconds: 1.0,
            trace: false,
            workers: 1,
            inject: None,
        };
        let mut outcome = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            outcome.set(name, 1.5);
        }
        let report = render(&opts, &outcome).expect("every metric is set");
        assert!(report.ends_with("}}}\n"));
        outcome.set("latency_p50_ms", f64::NAN);
        assert!(render(&opts, &outcome).is_err());
        outcome.metrics.remove("latency_p50_ms");
        assert!(render(&opts, &outcome).is_err());
    }
}
