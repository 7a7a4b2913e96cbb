//! Population-scale market validation.
//!
//! Sweeps device counts through the checkpointable sharded market
//! simulator (`bombdroid-sim`) with real VM sessions, and checks the
//! measured system against the paper's closed-form predictions:
//!
//! * per-bomb *conditional* trigger rates — sessions that fired a bomb
//!   over sessions that decrypted its blob — must converge to the inner
//!   trigger's predicted probability (§6 targets p ∈ [0.1, 0.2]);
//! * the detection-latency CDF must be a valid monotone distribution;
//! * live metric memory must stay O(windows), independent of device
//!   count (the streaming-aggregation contract);
//! * a mid-run kill + resume cycle at the smallest scale must reproduce
//!   the uninterrupted run's report byte-for-byte.
//!
//! Results are exported as the schema-versioned `population.json`
//! artifact, which [`validate_population_json`] checks before
//! `repro population` writes it.

use super::harness::{shared_cache, PROTECT_BASE};
use super::req_int;
use bombdroid_apk::{repackage, DeveloperKey};
use bombdroid_core::ProtectConfig;
use bombdroid_corpus::flagship;
use bombdroid_obs::json::{self, JsonValue};
use bombdroid_runtime::{InstalledPackage, SessionPool, VmOptions};
use bombdroid_sim::{BombCatalog, SimConfig, Simulator, VmRunner};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;

/// Artifact schema version; bump on breaking layout changes.
pub const POPULATION_SCHEMA_VERSION: u64 = 1;

/// The flagship under simulation (same target as the guided curves).
pub const POPULATION_APP: &str = "Hash Droid";

/// Sessions are capped at this length so the sweep's wall-clock scales
/// with device count, not with the heavy tail of power users. Conditional
/// trigger rates are unaffected in expectation (the measurement
/// conditions on the outer trigger having fired).
const CAP_MINUTES: u16 = 6;

/// Per-bomb measurement at one scale.
#[derive(Debug, Clone)]
pub struct PopulationBombRow {
    /// Bomb marker id.
    pub marker: u32,
    /// Closed-form predicted inner-trigger probability (ppm).
    pub predicted_ppm: u64,
    /// Measured conditional firing rate (ppm).
    pub measured_ppm: u64,
    /// Sessions whose outer trigger decrypted the bomb's blob.
    pub outer_sessions: u64,
    /// Sessions where the bomb fired.
    pub fired_sessions: u64,
}

/// One device-count scale of the sweep.
#[derive(Debug, Clone)]
pub struct PopulationScaleRow {
    /// Devices simulated.
    pub devices: usize,
    /// Sessions actually run (equal to `devices`: halting is disabled so
    /// every session contributes to the estimate).
    pub sessions_run: usize,
    /// Day the market pulled the listing (−1 = survived).
    pub taken_down_day: i64,
    /// Outer-weighted mean of measured per-bomb rates (ppm).
    pub weighted_measured_ppm: u64,
    /// Outer-weighted mean of predicted per-bomb rates (ppm).
    pub weighted_predicted_ppm: u64,
    /// Per-bomb rows (only bombs observed at least once).
    pub bombs: Vec<PopulationBombRow>,
    /// Detection-latency CDF over detected sessions (ppm per minute
    /// bucket).
    pub latency_cdf_ppm: Vec<u64>,
    /// Peak live metric names observed across the run — the bounded-
    /// memory claim under test.
    pub live_metric_names_max: usize,
    /// Observability windows sealed.
    pub windows_sealed: u64,
}

/// Outcome of the kill + resume cycle at the smallest scale.
#[derive(Debug, Clone)]
pub struct PopulationResume {
    /// Scale the cycle ran at.
    pub devices: usize,
    /// Chunks completed before the simulated kill.
    pub killed_after_chunks: usize,
    /// Whether the resumed report was byte-identical to the
    /// uninterrupted run's.
    pub identical: bool,
    /// Sealed-window digests of the resumed run (fingerprint of the
    /// whole metric stream).
    pub window_digests: Vec<u64>,
}

/// Shapes the simulator for one scale: windows grow with the population
/// (so chunk count stays manageable) but are clamped, keeping live metric
/// memory bounded by a constant independent of device count.
pub fn population_config(devices: usize, days: u32) -> SimConfig {
    let mut config = SimConfig::new(devices, days, PROTECT_BASE ^ 0x509);
    config.window = (devices / 32).clamp(32, 1_024);
    config.checkpoint_every = 4;
    // Measurement mode: every device's session contributes to the
    // estimate even after the listing would have been pulled.
    config.market.halt_on_takedown = false;
    config
}

/// Builds the pirated install the whole sweep shares: protect the
/// flagship, sign as the developer, repackage under a pirate key.
fn pirated_install() -> (Arc<InstalledPackage>, BombCatalog) {
    let apps = flagship::all();
    let idx = apps
        .iter()
        .position(|a| a.name == POPULATION_APP)
        .expect("Hash Droid is a flagship");
    let app = &apps[idx];
    let seed = PROTECT_BASE + idx as u64;
    let artifact = shared_cache()
        .get_or_protect(app, &ProtectConfig::fast_profile(), seed)
        .expect("flagships always protect");
    let (protected, signed) = (&artifact.0, &artifact.1);
    let catalog = BombCatalog::from_report(&protected.report);
    let pirate = DeveloperKey::generate(&mut StdRng::seed_from_u64(seed ^ 0xBAD));
    let pirated = repackage(signed, &pirate, |_| {});
    let pkg = Arc::new(InstalledPackage::install(&pirated).expect("pirated install"));
    (pkg, catalog)
}

fn vm_runner(pkg: &Arc<InstalledPackage>) -> VmRunner {
    VmRunner {
        pool: SessionPool::new(Arc::clone(pkg), VmOptions::default()),
        cap_minutes: Some(CAP_MINUTES),
    }
}

fn weighted_mean_ppm(rows: &[PopulationBombRow], value: impl Fn(&PopulationBombRow) -> u64) -> u64 {
    let mut weighted = 0u128;
    let mut outer = 0u128;
    for r in rows {
        weighted += u128::from(value(r)) * u128::from(r.outer_sessions);
        outer += u128::from(r.outer_sessions);
    }
    weighted.checked_div(outer).unwrap_or(0) as u64
}

/// Runs the sweep: one simulator per scale plus the kill + resume cycle
/// at the smallest scale. Bit-identical for any `BOMBDROID_THREADS`.
pub fn population_rows(scales: &[usize], days: u32) -> (Vec<PopulationScaleRow>, PopulationResume) {
    assert!(!scales.is_empty(), "population sweep needs scales");
    let (pkg, catalog) = pirated_install();
    let mut rows = Vec::new();
    for &devices in scales {
        let config = population_config(devices, days);
        let mut sim = Simulator::new(config, catalog.clone(), vm_runner(&pkg));
        let mut live_max = 0usize;
        sim.run_with(|s| {
            live_max = live_max.max(s.aggregator().live_metric_names());
            s.aggregator().drain_windows();
        });
        live_max = live_max.max(sim.aggregator().live_metric_names());
        let bombs: Vec<PopulationBombRow> = sim
            .bomb_stats()
            .filter(|(_, s)| s.outer_sessions > 0)
            .map(|(e, s)| PopulationBombRow {
                marker: e.marker,
                predicted_ppm: e.predicted_ppm,
                measured_ppm: s.measured_ppm(),
                outer_sessions: s.outer_sessions,
                fired_sessions: s.fired_sessions,
            })
            .collect();
        let report = sim.report_json().expect("sweep runs to completion");
        let doc = json::parse(&report).expect("own report parses");
        let latency_cdf_ppm: Vec<u64> = doc
            .get("latency_cdf_ppm")
            .and_then(JsonValue::as_array)
            .expect("report carries CDF")
            .iter()
            .filter_map(|v| v.as_int().and_then(|i| u64::try_from(i).ok()))
            .collect();
        rows.push(PopulationScaleRow {
            devices,
            sessions_run: sim.sessions_run(),
            taken_down_day: sim.market().taken_down_day.map_or(-1, i64::from),
            weighted_measured_ppm: weighted_mean_ppm(&bombs, |r| r.measured_ppm),
            weighted_predicted_ppm: weighted_mean_ppm(&bombs, |r| r.predicted_ppm),
            bombs,
            latency_cdf_ppm,
            live_metric_names_max: live_max,
            windows_sealed: sim.aggregator().windows_sealed() as u64,
        });
    }

    // Kill + resume cycle at the smallest scale: run uninterrupted, then
    // kill after two chunks, resume from the checkpoint JSON, and compare
    // final reports byte-for-byte.
    let smallest = *scales.iter().min().expect("nonempty");
    let config = population_config(smallest, days);
    let mut whole = Simulator::new(config, catalog.clone(), vm_runner(&pkg));
    whole.run();
    let expected = whole.report_json().expect("finished");

    let mut killed = Simulator::new(config, catalog.clone(), vm_runner(&pkg));
    let mut killed_after_chunks = 0usize;
    while killed_after_chunks < 2 && killed.step() {
        killed_after_chunks += 1;
    }
    let resumed_report = if killed.done() {
        killed.report_json().expect("finished")
    } else {
        let ckpt = killed.checkpoint_json().expect("at chunk boundary");
        drop(killed);
        let mut resumed =
            Simulator::from_checkpoint(&ckpt, vm_runner(&pkg)).expect("own checkpoint parses");
        resumed.run();
        resumed.report_json().expect("finished")
    };
    let digests: Vec<u64> = json::parse(&resumed_report)
        .ok()
        .and_then(|doc| {
            doc.get("aggregator")?
                .get("window_digests")?
                .as_array()
                .map(|a| {
                    a.iter()
                        .filter_map(|v| v.as_int().and_then(|i| u64::try_from(i).ok()))
                        .collect()
                })
        })
        .unwrap_or_default();
    let resume = PopulationResume {
        devices: smallest,
        killed_after_chunks,
        identical: resumed_report == expected,
        window_digests: digests,
    };
    (rows, resume)
}

/// Renders the sweep as the `population.json` artifact.
pub fn population_json(
    app: &str,
    days: u32,
    rows: &[PopulationScaleRow],
    resume: &PopulationResume,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"schema_version\": {POPULATION_SCHEMA_VERSION},\n"
    ));
    out.push_str("  \"kind\": \"population_validation\",\n");
    out.push_str(&format!("  \"app\": \"{}\",\n", json::escape(app)));
    out.push_str(&format!("  \"days\": {days},\n"));
    out.push_str("  \"scales\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"devices\": {},\n", r.devices));
        out.push_str(&format!("      \"sessions_run\": {},\n", r.sessions_run));
        out.push_str(&format!(
            "      \"taken_down_day\": {},\n",
            r.taken_down_day
        ));
        out.push_str(&format!(
            "      \"weighted_measured_ppm\": {},\n",
            r.weighted_measured_ppm
        ));
        out.push_str(&format!(
            "      \"weighted_predicted_ppm\": {},\n",
            r.weighted_predicted_ppm
        ));
        out.push_str(&format!(
            "      \"live_metric_names_max\": {},\n",
            r.live_metric_names_max
        ));
        out.push_str(&format!(
            "      \"windows_sealed\": {},\n",
            r.windows_sealed
        ));
        let bombs: Vec<String> = r
            .bombs
            .iter()
            .map(|b| {
                format!(
                    "{{\"fired_sessions\": {}, \"marker\": {}, \"measured_ppm\": {}, \"outer_sessions\": {}, \"predicted_ppm\": {}}}",
                    b.fired_sessions, b.marker, b.measured_ppm, b.outer_sessions, b.predicted_ppm,
                )
            })
            .collect();
        out.push_str(&format!("      \"bombs\": [{}],\n", bombs.join(", ")));
        let cdf: Vec<String> = r.latency_cdf_ppm.iter().map(u64::to_string).collect();
        out.push_str(&format!(
            "      \"latency_cdf_ppm\": [{}]\n",
            cdf.join(", ")
        ));
        out.push_str(if i + 1 == rows.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ],\n");
    let digests: Vec<String> = resume.window_digests.iter().map(u64::to_string).collect();
    out.push_str(&format!(
        "  \"resume\": {{\"devices\": {}, \"identical\": {}, \"killed_after_chunks\": {}, \"window_digests\": [{}]}}\n",
        resume.devices,
        resume.identical,
        resume.killed_after_chunks,
        digests.join(", "),
    ));
    out.push_str("}\n");
    out
}

/// How many outer-trigger observations a bomb needs before its measured
/// rate is held against the prediction.
const MIN_OUTER_SESSIONS: i128 = 200;

/// Outer-trigger sessions, summed over bombs, the largest scale must
/// observe for the band checks to have teeth.
const MIN_LARGEST_SCALE_OUTER: i128 = 100;

/// Fixed slack (ppm) added on top of the 3σ binomial band.
const SLACK_PPM: f64 = 25_000.0;

/// Validates a `population.json` document: schema, scale ordering,
/// per-bomb closed-form agreement (3σ + slack for sufficiently observed
/// bombs), weighted mean inside the paper's p ∈ [0.1, 0.2] band (with
/// slack), CDF validity, bounded live-metric memory, at least 100
/// outer-trigger sessions at the largest scale, and a successful
/// bit-identical resume cycle. `repro population` refuses to write an
/// artifact that fails here.
pub fn validate_population_json(text: &str) -> Result<(), String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let version = req_int(&doc, "schema_version", "document")?;
    if version != POPULATION_SCHEMA_VERSION as i128 {
        return Err(format!(
            "unsupported schema_version {version} (expected {POPULATION_SCHEMA_VERSION})"
        ));
    }
    match doc.get("kind").and_then(JsonValue::as_str) {
        Some("population_validation") => {}
        other => return Err(format!("bad kind {other:?}")),
    }
    if doc
        .get("app")
        .and_then(JsonValue::as_str)
        .is_none_or(str::is_empty)
    {
        return Err("missing or empty \"app\"".to_string());
    }
    req_int(&doc, "days", "document")?;
    let scales = doc
        .get("scales")
        .and_then(JsonValue::as_array)
        .ok_or("missing \"scales\" array")?;
    if scales.is_empty() {
        return Err("\"scales\" must not be empty".to_string());
    }
    let mut prev_devices = 0i128;
    let mut outer_total = 0i128;
    for s in scales {
        let devices = req_int(s, "devices", "scale")?;
        let ctx = format!("scale {devices}");
        if devices <= prev_devices {
            return Err(format!("{ctx}: device counts must strictly increase"));
        }
        prev_devices = devices;
        let sessions = req_int(s, "sessions_run", &ctx)?;
        if sessions != devices {
            return Err(format!(
                "{ctx}: measurement mode must run every session ({sessions} of {devices})"
            ));
        }
        req_int(s, "taken_down_day", &ctx)?;
        req_int(s, "windows_sealed", &ctx)?;
        let live = req_int(s, "live_metric_names_max", &ctx)?;
        if live > 50_000 {
            return Err(format!(
                "{ctx}: live metric names {live} — streaming memory bound violated"
            ));
        }
        let bombs = s
            .get("bombs")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("{ctx}: missing \"bombs\" array"))?;
        if bombs.is_empty() {
            return Err(format!("{ctx}: no bombs observed"));
        }
        outer_total = 0;
        for b in bombs {
            let marker = req_int(b, "marker", &ctx)?;
            let bctx = format!("{ctx} bomb {marker}");
            let outer = req_int(b, "outer_sessions", &bctx)?;
            let fired = req_int(b, "fired_sessions", &bctx)?;
            let measured = req_int(b, "measured_ppm", &bctx)?;
            let predicted = req_int(b, "predicted_ppm", &bctx)?;
            if fired > outer {
                return Err(format!("{bctx}: fired {fired} exceeds outer {outer}"));
            }
            outer_total += outer;
            if outer >= MIN_OUTER_SESSIONS {
                let p = predicted as f64 / 1e6;
                let sigma_ppm = (p * (1.0 - p) / outer as f64).sqrt() * 1e6;
                let tol = (3.0 * sigma_ppm + SLACK_PPM) as i128;
                if (measured - predicted).abs() > tol {
                    return Err(format!(
                        "{bctx}: measured {measured} ppm vs predicted {predicted} ppm \
                         exceeds tolerance {tol} ppm over {outer} outer sessions"
                    ));
                }
            }
        }
        let mean = req_int(s, "weighted_measured_ppm", &ctx)?;
        if !(70_000..=230_000).contains(&mean) {
            return Err(format!(
                "{ctx}: weighted measured mean {mean} ppm outside the paper's band"
            ));
        }
        let cdf = s
            .get("latency_cdf_ppm")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("{ctx}: missing \"latency_cdf_ppm\""))?;
        let mut prev = 0i128;
        for v in cdf {
            let v = v.as_int().ok_or_else(|| format!("{ctx}: bad CDF entry"))?;
            if v < prev {
                return Err(format!("{ctx}: latency CDF not monotone"));
            }
            prev = v;
        }
        if !cdf.is_empty() && prev != 0 && prev != 1_000_000 {
            return Err(format!("{ctx}: latency CDF ends at {prev}, not 1.0"));
        }
    }
    // Without enough outer-trigger observations at the largest scale the
    // 3σ bands are vacuous: a VM that never decrypts a blob would pass.
    if outer_total < MIN_LARGEST_SCALE_OUTER {
        return Err(format!(
            "largest scale ({prev_devices} devices) saw only {outer_total} \
             outer-trigger sessions — bomb triggering looks broken"
        ));
    }
    let resume = doc.get("resume").ok_or("missing \"resume\" object")?;
    req_int(resume, "devices", "resume")?;
    req_int(resume, "killed_after_chunks", "resume")?;
    match resume.get("identical") {
        Some(JsonValue::Bool(true)) => {}
        Some(JsonValue::Bool(false)) => {
            return Err("resume: resumed report was NOT bit-identical".to_string())
        }
        _ => return Err("resume: missing \"identical\" flag".to_string()),
    }
    resume
        .get("window_digests")
        .and_then(JsonValue::as_array)
        .ok_or("resume: missing \"window_digests\"")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> (Vec<PopulationScaleRow>, PopulationResume) {
        let bombs = vec![PopulationBombRow {
            marker: 7,
            predicted_ppm: 150_000,
            measured_ppm: 152_000,
            outer_sessions: 4_000,
            fired_sessions: 608,
        }];
        (
            vec![PopulationScaleRow {
                devices: 1_000,
                sessions_run: 1_000,
                taken_down_day: 2,
                weighted_measured_ppm: 152_000,
                weighted_predicted_ppm: 150_000,
                bombs,
                latency_cdf_ppm: vec![250_000, 600_000, 1_000_000],
                live_metric_names_max: 120,
                windows_sealed: 32,
            }],
            PopulationResume {
                devices: 1_000,
                killed_after_chunks: 2,
                identical: true,
                window_digests: vec![1, 2, 3],
            },
        )
    }

    #[test]
    fn artifact_round_trips_through_its_validator() {
        let (rows, resume) = rows();
        let text = population_json(POPULATION_APP, 14, &rows, &resume);
        validate_population_json(&text).expect("self-produced artifact validates");
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_population_json("{}").is_err());
        let (rows_ok, resume_ok) = rows();

        let mut drifted = rows_ok.clone();
        drifted[0].bombs[0].measured_ppm = 400_000; // far outside 3σ + slack
        let text = population_json(POPULATION_APP, 14, &drifted, &resume_ok);
        assert!(validate_population_json(&text).is_err());

        let mut non_monotone = rows_ok.clone();
        non_monotone[0].latency_cdf_ppm = vec![600_000, 250_000, 1_000_000];
        let text = population_json(POPULATION_APP, 14, &non_monotone, &resume_ok);
        assert!(validate_population_json(&text).is_err());

        let mut unbounded = rows_ok.clone();
        unbounded[0].live_metric_names_max = 1_000_000;
        let text = population_json(POPULATION_APP, 14, &unbounded, &resume_ok);
        assert!(validate_population_json(&text).is_err());

        let mut broken_resume = resume_ok.clone();
        broken_resume.identical = false;
        let text = population_json(POPULATION_APP, 14, &rows_ok, &broken_resume);
        assert!(validate_population_json(&text).is_err());

        let mut starved = rows_ok.clone();
        starved[0].bombs[0].outer_sessions = 99; // largest scale's outer total
        starved[0].bombs[0].fired_sessions = 15;
        let text = population_json(POPULATION_APP, 14, &starved, &resume_ok);
        assert!(validate_population_json(&text).is_err());
    }

    #[test]
    fn smoke_sweep_validates_end_to_end() {
        let (rows, resume) = population_rows(&[600], 3);
        assert_eq!(rows.len(), 1);
        assert!(resume.identical, "kill+resume must be bit-identical");
        assert!(
            rows[0].bombs.iter().any(|b| b.fired_sessions > 0),
            "some bomb must fire across 600 sessions"
        );
        // The full-band assertions need 10^4 sessions to converge; the
        // smoke only checks structure + resume, via a permissive check
        // that the artifact is well-formed JSON of the right kind.
        let text = population_json(POPULATION_APP, 3, &rows, &resume);
        let doc = json::parse(&text).expect("artifact parses");
        assert_eq!(
            doc.get("kind").and_then(JsonValue::as_str),
            Some("population_validation")
        );
    }
}
