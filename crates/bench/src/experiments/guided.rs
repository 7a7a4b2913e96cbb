//! Resilience of the protection schemes against the coverage-guided
//! greybox fuzzer ([`bombdroid_attacks::campaign`]) — the Difuzer-class
//! attacker the paper predates.
//!
//! One campaign per protection config (unprotected-control, the paper's
//! default, and a bogus-bomb-dense variant), all against the HashDroid
//! flagship under the shared [`PROTECT_BASE`] seed, producing a
//! bombs-found-vs-exec-budget curve per config. The curves are exported as
//! a schema-versioned JSON artifact (`guided_resilience.json`) that
//! [`validate_guided_json`] checks before `repro guided` writes it: the
//! control curve must reach at least one bomb, and every reported bomb
//! must have replay-validated.

use super::harness::{shared_cache, PROTECT_BASE};
use super::req_int;
use bombdroid_attacks::{fuzz, GuidedConfig};
use bombdroid_core::ProtectConfig;
use bombdroid_corpus::flagship;
use bombdroid_obs::json::{self, JsonValue};

/// Artifact schema version; bump on breaking layout changes.
pub const GUIDED_SCHEMA_VERSION: u64 = 1;

/// The flagship the curve targets (rich hash/crypto branching makes it the
/// hardest honest target among the eight).
pub const GUIDED_APP: &str = "Hash Droid";

/// One protection config's campaign outcome.
#[derive(Debug, Clone)]
pub struct GuidedCurveRow {
    /// Protection config label (`control` / `default` / `bogus_dense`).
    pub config: String,
    /// Real (marker-carrying) bombs planted by the protector.
    pub total_bombs: usize,
    /// Obfuscated outer conditions in the protected DEX.
    pub total_outer: usize,
    /// Distinct bombs the fuzzer reported.
    pub found: usize,
    /// Reported bombs whose ground-truth replay re-fired.
    pub validated: usize,
    /// Total execs spent.
    pub execs: u64,
    /// `(cumulative execs, distinct bombs)` at fixed checkpoints.
    pub curve: Vec<(u64, usize)>,
}

/// The three protection configs the curve compares, derived from `base`.
/// `control` (single trigger, no bogus bombs) is the sanity floor a
/// working fuzzer must crack; `bogus_dense` maximizes decoys.
pub fn guided_configs(base: &ProtectConfig) -> Vec<(&'static str, ProtectConfig)> {
    vec![
        (
            "control",
            ProtectConfig {
                double_trigger: false,
                bogus_ratio: 0.0,
                ..base.clone()
            },
        ),
        ("default", base.clone()),
        (
            "bogus_dense",
            ProtectConfig {
                bogus_ratio: 1.0,
                ..base.clone()
            },
        ),
    ]
}

/// Runs one guided campaign per protection config against HashDroid and
/// returns the per-config curves. Bit-identical for any thread count.
pub fn guided_curves(campaign: &GuidedConfig, base: &ProtectConfig) -> Vec<GuidedCurveRow> {
    let apps = flagship::all();
    let idx = apps
        .iter()
        .position(|a| a.name == GUIDED_APP)
        .expect("Hash Droid is a flagship");
    let app = &apps[idx];
    let seed = PROTECT_BASE + idx as u64;
    guided_configs(base)
        .into_iter()
        .map(|(name, config)| {
            let artifact = shared_cache()
                .get_or_protect(app, &config, seed)
                .expect("flagships always protect");
            let (protected, signed) = (&artifact.0, &artifact.1);
            let report = fuzz::guided(signed, campaign);
            GuidedCurveRow {
                config: name.to_string(),
                total_bombs: protected.report.marker_ids().len(),
                total_outer: report.total_outer,
                found: report.findings.len(),
                validated: report.validated_markers().len(),
                execs: report.execs,
                curve: report.curve.clone(),
            }
        })
        .collect()
}

/// Renders the curves as the `guided_resilience.json` artifact.
pub fn guided_json(app: &str, seed: u64, rows: &[GuidedCurveRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema_version\": {GUIDED_SCHEMA_VERSION},\n"));
    out.push_str("  \"kind\": \"guided_resilience_curve\",\n");
    out.push_str(&format!("  \"app\": \"{}\",\n", json::escape(app)));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str("  \"configs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"name\": \"{}\",\n",
            json::escape(&r.config)
        ));
        out.push_str(&format!("      \"total_bombs\": {},\n", r.total_bombs));
        out.push_str(&format!("      \"total_outer\": {},\n", r.total_outer));
        out.push_str(&format!("      \"found\": {},\n", r.found));
        out.push_str(&format!("      \"validated\": {},\n", r.validated));
        out.push_str(&format!("      \"execs\": {},\n", r.execs));
        let points: Vec<String> = r
            .curve
            .iter()
            .map(|(execs, bombs)| format!("{{\"execs\": {execs}, \"bombs\": {bombs}}}"))
            .collect();
        out.push_str(&format!("      \"curve\": [{}]\n", points.join(", ")));
        out.push_str(if i + 1 == rows.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Validates a `guided_resilience.json` document: schema version, field
/// shapes, count consistency (every reported bomb replay-validated,
/// `validated == found <= total_bombs`), per-config curve sanity (strictly
/// increasing exec axis, monotone nondecreasing bomb counts, final point
/// equal to `found`), and a `control` config — single trigger, no bogus
/// bombs — that found at least one bomb. `repro guided` refuses to write
/// an artifact that fails here.
pub fn validate_guided_json(text: &str) -> Result<(), String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let version = req_int(&doc, "schema_version", "document")?;
    if version != GUIDED_SCHEMA_VERSION as i128 {
        return Err(format!(
            "unsupported schema_version {version} (expected {GUIDED_SCHEMA_VERSION})"
        ));
    }
    match doc.get("kind").and_then(JsonValue::as_str) {
        Some("guided_resilience_curve") => {}
        other => return Err(format!("bad kind {other:?}")),
    }
    if doc
        .get("app")
        .and_then(JsonValue::as_str)
        .is_none_or(str::is_empty)
    {
        return Err("missing or empty \"app\"".to_string());
    }
    req_int(&doc, "seed", "document")?;
    let configs = doc
        .get("configs")
        .and_then(JsonValue::as_array)
        .ok_or("missing \"configs\" array")?;
    if configs.is_empty() {
        return Err("\"configs\" must not be empty".to_string());
    }
    let mut control_found = None;
    for c in configs {
        let name = c
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("config: missing \"name\"")?;
        let ctx = format!("config {name:?}");
        let total_bombs = req_int(c, "total_bombs", &ctx)?;
        let found = req_int(c, "found", &ctx)?;
        let validated = req_int(c, "validated", &ctx)?;
        let execs = req_int(c, "execs", &ctx)?;
        req_int(c, "total_outer", &ctx)?;
        if validated != found {
            return Err(format!(
                "{ctx}: reported {found} bombs but {validated} replay-validated"
            ));
        }
        if !(0..=total_bombs).contains(&found) {
            return Err(format!(
                "{ctx}: found {found} outside 0..={total_bombs} (total_bombs)"
            ));
        }
        if name == "control" {
            control_found = Some(found);
        }
        let curve = c
            .get("curve")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("{ctx}: missing \"curve\" array"))?;
        if curve.is_empty() {
            return Err(format!("{ctx}: empty curve"));
        }
        let mut prev_execs = 0i128;
        let mut prev_bombs = -1i128;
        for p in curve {
            let e = req_int(p, "execs", &ctx)?;
            let b = req_int(p, "bombs", &ctx)?;
            if e <= prev_execs {
                return Err(format!("{ctx}: exec axis not strictly increasing at {e}"));
            }
            if b < prev_bombs {
                return Err(format!("{ctx}: bomb count decreased at execs {e}"));
            }
            (prev_execs, prev_bombs) = (e, b);
        }
        if prev_execs != execs {
            return Err(format!(
                "{ctx}: final curve point at {prev_execs} execs, but campaign spent {execs}"
            ));
        }
        if prev_bombs != found {
            return Err(format!(
                "{ctx}: final curve point reports {prev_bombs} bombs but \"found\" is {found}"
            ));
        }
    }
    match control_found {
        Some(n) if n >= 1 => Ok(()),
        Some(n) => Err(format!(
            "control config found {n} bombs — a working guided fuzzer must crack the unprotected control app"
        )),
        None => Err("no \"control\" config".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bombdroid_attacks::ResetMode;

    fn rows() -> Vec<GuidedCurveRow> {
        vec![GuidedCurveRow {
            config: "control".to_string(),
            total_bombs: 9,
            total_outer: 12,
            found: 2,
            validated: 2,
            execs: 240,
            curve: vec![(120, 1), (240, 2)],
        }]
    }

    #[test]
    fn artifact_round_trips_through_its_validator() {
        let text = guided_json("HashDroid", PROTECT_BASE, &rows());
        validate_guided_json(&text).expect("self-produced artifact validates");
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_guided_json("{}").is_err());
        let mut bad_counts = rows();
        bad_counts[0].validated = 3; // validated > found
        let text = guided_json("HashDroid", 1, &bad_counts);
        assert!(validate_guided_json(&text).is_err());
        let mut bad_curve = rows();
        bad_curve[0].curve = vec![(120, 2), (240, 1)]; // non-monotone
        let text = guided_json("HashDroid", 1, &bad_curve);
        assert!(validate_guided_json(&text).is_err());
        let mut short_curve = rows();
        short_curve[0].curve = vec![(120, 2)]; // never reaches `execs`
        let text = guided_json("HashDroid", 1, &short_curve);
        assert!(validate_guided_json(&text).is_err());
        let mut control_found_none = rows();
        control_found_none[0].found = 0;
        control_found_none[0].validated = 0;
        control_found_none[0].curve = vec![(120, 0), (240, 0)];
        let text = guided_json("HashDroid", 1, &control_found_none);
        assert!(validate_guided_json(&text).is_err());
        let mut unvalidated = rows();
        unvalidated[0].found = 3; // validated stays 2
        unvalidated[0].curve = vec![(120, 1), (240, 3)];
        let text = guided_json("HashDroid", 1, &unvalidated);
        assert!(validate_guided_json(&text).is_err());
        let mut no_control = rows();
        no_control[0].config = "default".to_string();
        let text = guided_json("HashDroid", 1, &no_control);
        assert!(validate_guided_json(&text).is_err());
    }

    #[test]
    fn smoke_campaign_cracks_the_control_app() {
        let campaign = GuidedConfig {
            threads: Some(2),
            reset: ResetMode::SnapshotFork,
            ..GuidedConfig::smoke(PROTECT_BASE)
        };
        let rows = guided_curves(&campaign, &ProtectConfig::fast_profile());
        assert_eq!(rows.len(), 3);
        let control = &rows[0];
        assert_eq!(control.config, "control");
        assert!(
            control.found >= 1,
            "control app must yield at least one bomb"
        );
        assert_eq!(control.validated, control.found);
        let text = guided_json("HashDroid", PROTECT_BASE, &rows);
        validate_guided_json(&text).expect("experiment artifact validates");
    }
}
