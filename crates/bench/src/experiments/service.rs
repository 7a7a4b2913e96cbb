//! Protect-as-a-service smoke: drives `bombdroid_core::service` end to
//! end with a fixed-seed job mix (duplicates included), exercises
//! admission control, and exports the schema-versioned `service.json`
//! artifact, which [`validate_service_json`] checks before `repro service`
//! writes it.
//!
//! Everything in the artifact is deterministic: job outcomes depend only
//! on `(app bytes, config, effective seed)`, the drain returns results in
//! submission order regardless of `BOMBDROID_THREADS`, and the smoke
//! re-runs the same mix serially to prove the parallel drain produced
//! bit-identical bytes.

use super::harness::{flagships, PROTECT_BASE};
use super::req_int;
use crate::fixed_keys;
use bombdroid_core::service::{ProtectJob, ProtectService, ProtectionCache, SeedPolicy};
use bombdroid_core::{FleetConfig, ProtectConfig};
use bombdroid_crypto::{hex, sha256};
use bombdroid_dex::wire;
use bombdroid_obs::json::{self, JsonValue};
use std::sync::Arc;

/// `service.json` schema version.
pub const SERVICE_SCHEMA_VERSION: u32 = 1;

/// One drained job in the smoke run.
pub struct ServiceJobRow {
    /// Submission index (drain must return rows in this order).
    pub index: usize,
    /// Flagship app name.
    pub app: String,
    /// Effective seed the job's policy resolved to.
    pub seed: u64,
    /// Whether the artifact came out of the cache.
    pub cache_hit: bool,
    /// SHA-256 (hex) of the protected DEX wire bytes.
    pub dex_digest: String,
    /// Whether the signed package passed install-time verification.
    pub verified: bool,
    /// Bombs injected (real + bogus) per the protect report.
    pub bombs: usize,
}

/// Result of the service smoke run.
pub struct ServiceSmokeResult {
    /// Worker threads the parallel drain used.
    pub threads: usize,
    /// Per-job rows in submission order.
    pub rows: Vec<ServiceJobRow>,
    /// Protect passes the cache actually ran (misses).
    pub protects: usize,
    /// Requests served from a populated slot.
    pub hits: usize,
    /// Jobs refused by admission control during the overflow probe.
    pub shed: usize,
    /// Whether a serial (threads = 1) re-run of the same mix produced
    /// byte-identical artifacts in the same order.
    pub serial_identical: bool,
}

/// The fixed job mix: eight jobs over four distinct flagships, with every
/// distinct app also submitted a second time (four duplicates total).
const JOB_MIX: [usize; 8] = [0, 1, 0, 2, 1, 3, 0, 2];

fn run_mix(threads: usize, config: &ProtectConfig) -> (ProtectService, Vec<ServiceJobRow>) {
    let apps = flagships();
    let (dev, _) = fixed_keys();
    let apks: Vec<Arc<_>> = apps.iter().take(4).map(|a| Arc::new(a.apk(&dev))).collect();
    let mut svc =
        ProtectService::with_parts(threads, JOB_MIX.len(), Arc::new(ProtectionCache::new()));
    for &app_idx in &JOB_MIX {
        svc.submit(ProtectJob {
            apk: Arc::clone(&apks[app_idx]),
            config: config.clone(),
            seed: SeedPolicy::PerApp { base: PROTECT_BASE },
        })
        .expect("mix fits the queue bound");
    }
    // Overflow probe: the queue is at capacity, so one more submission
    // must shed with a typed error instead of growing the queue.
    let overflow = svc.submit(ProtectJob {
        apk: Arc::clone(&apks[0]),
        config: config.clone(),
        seed: SeedPolicy::PerApp { base: PROTECT_BASE },
    });
    assert!(overflow.is_err(), "submission past the bound must shed");
    let rows = svc
        .drain()
        .into_iter()
        .map(|o| {
            let protected = o.result.expect("flagships protect cleanly");
            let signed = protected.package(&dev);
            ServiceJobRow {
                index: o.index,
                app: apps[JOB_MIX[o.index]].name.clone(),
                seed: o.seed,
                cache_hit: o.cache_hit,
                dex_digest: hex::encode(&sha256::digest(&wire::encode_dex(&protected.dex))),
                verified: signed.verify().is_ok(),
                bombs: protected.report.bombs.len(),
            }
        })
        .collect();
    (svc, rows)
}

/// Runs the fixed-seed smoke: parallel drain (thread count from
/// `BOMBDROID_THREADS`, default all CPUs), then a serial control run to
/// prove the parallel outputs are bit-identical and identically ordered.
pub fn service_smoke(config: &ProtectConfig) -> ServiceSmokeResult {
    let threads = FleetConfig::from_env(PROTECT_BASE).threads;
    let (svc, rows) = run_mix(threads, config);
    let (_, serial_rows) = run_mix(1, config);
    let serial_identical = rows.len() == serial_rows.len()
        && rows.iter().zip(&serial_rows).all(|(a, b)| {
            a.index == b.index
                && a.seed == b.seed
                && a.cache_hit == b.cache_hit
                && a.dex_digest == b.dex_digest
        });
    ServiceSmokeResult {
        threads,
        protects: svc.cache().protect_count(),
        hits: svc.cache().hit_count(),
        shed: svc.shed_count(),
        serial_identical,
        rows,
    }
}

/// Renders the smoke result as the `service.json` artifact.
pub fn service_json(r: &ServiceSmokeResult) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"schema_version\": {SERVICE_SCHEMA_VERSION},\n"
    ));
    out.push_str("  \"kind\": \"service_smoke\",\n");
    out.push_str(&format!("  \"threads\": {},\n", r.threads));
    out.push_str(&format!("  \"protects\": {},\n", r.protects));
    out.push_str(&format!("  \"hits\": {},\n", r.hits));
    out.push_str(&format!("  \"shed\": {},\n", r.shed));
    out.push_str(&format!(
        "  \"serial_identical\": {},\n",
        r.serial_identical
    ));
    out.push_str("  \"jobs\": [\n");
    for (i, row) in r.rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"index\": {}, \"app\": \"{}\", \"seed\": {}, \"cache_hit\": {}, \"dex_digest\": \"{}\", \"verified\": {}, \"bombs\": {}}}{}\n",
            row.index,
            json::escape(&row.app),
            row.seed,
            row.cache_hit,
            row.dex_digest,
            row.verified,
            row.bombs,
            if i + 1 == r.rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

fn req_bool(obj: &JsonValue, key: &str, ctx: &str) -> Result<bool, String> {
    match obj.get(key) {
        Some(JsonValue::Bool(b)) => Ok(*b),
        _ => Err(format!("{ctx}: missing or non-bool {key:?}")),
    }
}

/// Validates a `service.json` document: schema shape plus the smoke's
/// acceptance rules — every job verified, submission-order indexes,
/// single-flight accounting (`hits + protects == jobs`, `protects` equals
/// the number of distinct artifacts), duplicate jobs byte-identical,
/// `cache_hit` exactly on re-requests, at least one shed submission, and
/// a serial control run that reproduced the parallel bytes.
pub fn validate_service_json(text: &str) -> Result<(), String> {
    let doc = json::parse(text).map_err(|e| format!("parse error: {e}"))?;
    let version = req_int(&doc, "schema_version", "document")?;
    if version != i128::from(SERVICE_SCHEMA_VERSION) {
        return Err(format!("unsupported schema_version {version}"));
    }
    match doc.get("kind").and_then(JsonValue::as_str) {
        Some("service_smoke") => {}
        other => return Err(format!("kind is {other:?}, expected \"service_smoke\"")),
    }
    let protects = req_int(&doc, "protects", "document")?;
    let hits = req_int(&doc, "hits", "document")?;
    let shed = req_int(&doc, "shed", "document")?;
    if !req_bool(&doc, "serial_identical", "document")? {
        return Err("serial control run diverged from the parallel drain".into());
    }
    if shed < 1 {
        return Err("overflow probe did not shed (admission control broken)".into());
    }
    let jobs = doc
        .get("jobs")
        .and_then(JsonValue::as_array)
        .ok_or("document: missing jobs array")?;
    if jobs.is_empty() {
        return Err("jobs array is empty".into());
    }
    let mut seen: Vec<&str> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let ctx = format!("jobs[{i}]");
        let index = req_int(job, "index", &ctx)?;
        if index != i as i128 {
            return Err(format!("{ctx}: index {index} out of submission order"));
        }
        if !req_bool(job, "verified", &ctx)? {
            return Err(format!("{ctx}: signed package failed verification"));
        }
        if req_int(job, "bombs", &ctx)? < 1 {
            return Err(format!("{ctx}: protected app reports no bombs"));
        }
        let digest = job
            .get("dex_digest")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{ctx}: missing dex_digest"))?;
        let dup = seen.contains(&digest);
        if req_bool(job, "cache_hit", &ctx)? != dup {
            return Err(format!(
                "{ctx}: cache_hit disagrees with first-occurrence order"
            ));
        }
        seen.push(digest);
    }
    let mut distinct: Vec<&&str> = seen.iter().collect();
    distinct.sort();
    distinct.dedup();
    if protects != distinct.len() as i128 {
        return Err(format!(
            "protects = {protects} but jobs cover {} distinct artifacts",
            distinct.len()
        ));
    }
    if hits + protects != jobs.len() as i128 {
        return Err(format!(
            "hits ({hits}) + protects ({protects}) != jobs ({})",
            jobs.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_artifact_validates_and_is_thread_identical() {
        let r = service_smoke(&ProtectConfig::fast_profile());
        assert!(r.serial_identical);
        assert_eq!(r.protects, 4, "four distinct apps in the mix");
        assert_eq!(r.hits, 4, "four duplicates served from cache");
        assert_eq!(r.shed, 1, "overflow probe shed exactly once");
        let text = service_json(&r);
        validate_service_json(&text).expect("self-produced artifact validates");
    }

    #[test]
    fn app_names_are_escaped() {
        let app = "Say \"hi\" \\ bye";
        let r = ServiceSmokeResult {
            threads: 1,
            rows: vec![ServiceJobRow {
                index: 0,
                app: app.to_string(),
                seed: 1,
                cache_hit: false,
                dex_digest: "00".to_string(),
                verified: true,
                bombs: 1,
            }],
            protects: 1,
            hits: 0,
            shed: 1,
            serial_identical: true,
        };
        let doc = json::parse(&service_json(&r)).expect("artifact parses");
        let jobs = doc.get("jobs").and_then(JsonValue::as_array).unwrap();
        assert_eq!(jobs[0].get("app").and_then(JsonValue::as_str), Some(app));
    }

    #[test]
    fn validator_rejects_tampered_artifacts() {
        let r = service_smoke(&ProtectConfig::fast_profile());
        let good = service_json(&r);
        let bad = good.replace("\"serial_identical\": true", "\"serial_identical\": false");
        assert!(validate_service_json(&bad).is_err());
        let bad = good.replace("\"shed\": 1", "\"shed\": 0");
        assert!(validate_service_json(&bad).is_err());
        let bad = good.replace("\"verified\": true", "\"verified\": false");
        assert!(validate_service_json(&bad).is_err());
    }
}
