//! `protect_intake`: the developer's path through the protect service.
//!
//! A closed loop with one client and one job in flight. Uploads come from
//! a fixed pool: the 8 flagships at the paper-default `ProtectConfig`
//! under `SeedPolicy::PerApp` with 32 bases. Fresh uploads arrive in
//! rounds that hold every flagship once; every 4th upload repeats an
//! earlier upload of the same epoch (64 uploads), so the service cache's
//! read path runs beside its write path. Each epoch gets a new service
//! with a private `ProtectionCache`. A job is submit → drain →
//! `ProtectedApp::package` → `wire::encode_dex`.

use crate::breakdown::Node;
use crate::oracle::{self, digest, Reference};
use crate::{ns, permutation, stats, timed_setups, Inject, Options, Outcome};
use bombdroid_apk::{ApkFile, DeveloperKey};
use bombdroid_core::{ProtectConfig, ProtectJob, ProtectService, ProtectedApp, SeedPolicy};
use bombdroid_corpus::flagship;
use bombdroid_dex::wire;
use bombdroid_obs::{self as obs, Recorder};
use bombdroid_runtime::InstalledPackage;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "protect_intake";

/// Bases per flagship in the upload pool.
const POOL_BASES: usize = 32;
/// Uploads per epoch; each epoch starts with an empty private cache.
const EPOCH: usize = 64;
/// Uploads in the traced run (one epoch).
const TRACED_UPLOADS: usize = EPOCH;
/// Tail percentile of job latency.
const TAIL: f64 = 0.90;
/// Base of the warm-up jobs in set-up (outside the pool).
const WARM_BASE: u64 = 0x3A2B_C0DE;

fn pool_base(index: usize) -> u64 {
    0x7AB0_0000 + index as u64 * 0x9E37
}

struct Fixture {
    dev: DeveloperKey,
    apks: Vec<Arc<ApkFile>>,
    config: ProtectConfig,
}

fn job(fx: &Fixture, app: usize, base: u64) -> ProtectJob {
    ProtectJob {
        apk: Arc::clone(&fx.apks[app]),
        config: fx.config.clone(),
        seed: SeedPolicy::PerApp { base },
    }
}

/// Builds the signed flagship uploads and warms the process-wide caches
/// keyed by them (QC scans, dex digests, decoded programs) with one job
/// per flagship through a throw-away service.
fn setup(workers: usize) -> Fixture {
    let (dev, _) = crate::keys();
    let apks: Vec<Arc<ApkFile>> = flagship::all()
        .iter()
        .map(|app| Arc::new(app.apk(&dev)))
        .collect();
    let fx = Fixture {
        dev,
        apks,
        config: ProtectConfig::default(),
    };
    let mut warm = ProtectService::with_threads(workers, fx.apks.len());
    for app in 0..fx.apks.len() {
        warm.submit(job(&fx, app, WARM_BASE))
            .expect("the warm-up queue holds one job per flagship");
    }
    for outcome in warm.drain() {
        if let Ok(artifact) = outcome.result {
            std::hint::black_box(wire::encode_dex(&artifact.package(&fx.dev).dex));
        }
    }
    fx
}

/// One upload of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Upload {
    app: usize,
    base: usize,
    repeat: bool,
    epoch_start: bool,
}

/// The seeded upload stream.
struct Stream {
    rng: StdRng,
    bases: Vec<usize>,
    apps: Vec<usize>,
    fresh: usize,
    position: usize,
    epoch: Vec<(usize, usize)>,
}

impl Stream {
    fn new(seed: u64, apps: usize) -> Self {
        Stream {
            rng: StdRng::seed_from_u64(seed ^ 0x5712_EA11),
            bases: permutation(POOL_BASES, seed),
            apps: (0..apps).collect(),
            fresh: 0,
            position: 0,
            epoch: Vec::new(),
        }
    }

    fn next(&mut self) -> Upload {
        let slot = self.position % EPOCH;
        self.position += 1;
        let epoch_start = slot == 0;
        if epoch_start {
            self.epoch.clear();
        }
        if slot % 4 == 3 {
            let (app, base) = self.epoch[self.rng.gen_range(0..self.epoch.len())];
            return Upload {
                app,
                base,
                repeat: true,
                epoch_start,
            };
        }
        let n = self.apps.len();
        if self.fresh.is_multiple_of(n) {
            use rand::seq::SliceRandom;
            self.apps.shuffle(&mut self.rng);
        }
        let app = self.apps[self.fresh % n];
        let base = self.bases[(self.fresh / n) % POOL_BASES];
        self.fresh += 1;
        self.epoch.push((app, base));
        Upload {
            app,
            base,
            repeat: false,
            epoch_start,
        }
    }
}

/// What one job produced and how long each step took.
struct Job {
    total_ns: u64,
    drain_ns: u64,
    package_ns: u64,
    encode_ns: u64,
    hit: bool,
    output: Result<(Arc<ProtectedApp>, ApkFile, Vec<u8>), String>,
}

fn run_job(fx: &Fixture, svc: &mut ProtectService, up: Upload, inject: &Inject) -> Job {
    let start = Instant::now();
    let submitted = svc.submit(job(fx, up.app, pool_base(up.base)));
    let mut outcomes = svc.drain();
    inject.pad("core.service", start.elapsed());
    let drained = Instant::now();
    let done = |hit, output| Job {
        total_ns: ns(start.elapsed()),
        drain_ns: ns(drained - start),
        package_ns: 0,
        encode_ns: 0,
        hit,
        output,
    };
    if let Err(e) = submitted {
        return done(false, Err(format!("submit refused: {e}")));
    }
    let Some(outcome) = outcomes.pop() else {
        return done(false, Err("drain returned no outcome".into()));
    };
    let artifact = match outcome.result {
        Ok(a) => a,
        Err(e) => return done(outcome.cache_hit, Err(format!("protect failed: {e}"))),
    };
    let signed = artifact.package(&fx.dev);
    let packaged = Instant::now();
    let dex_bytes = wire::encode_dex(&artifact.dex);
    let encoded = Instant::now();
    Job {
        total_ns: ns(encoded - start),
        drain_ns: ns(drained - start),
        package_ns: ns(packaged - drained),
        encode_ns: ns(encoded - packaged),
        hit: outcome.cache_hit,
        output: Ok((artifact, signed, dex_bytes)),
    }
}

fn reference_key(up: Upload) -> String {
    format!("app{}-base{}", up.app, up.base)
}

/// The pinned values of one job: digests of the protected dex wire
/// bytes, the strings resource and the signed APK (manifest, signature
/// and certificate key).
fn digests(artifact: &ProtectedApp, signed: &ApkFile, dex_bytes: &[u8]) -> Vec<String> {
    let mut apk = signed.manifest().to_bytes();
    apk.extend_from_slice(&signed.signature.to_le_bytes());
    apk.extend_from_slice(&signed.cert.public_key.to_bytes());
    vec![
        digest(dex_bytes),
        digest(&artifact.strings.to_bytes()),
        digest(&apk),
    ]
}

fn check(reference: &Reference, up: Upload, job: &Job) -> Result<(), String> {
    let (artifact, signed, dex_bytes) = job.output.as_ref().map_err(String::clone)?;
    let key = reference_key(up);
    let got = digests(artifact, signed, dex_bytes);
    if !reference.matches(&key, &got) {
        return Err(format!(
            "{key}: digests {got:?} differ from reference {:?}",
            reference.get(&key)
        ));
    }
    if job.hit != up.repeat {
        return Err(format!(
            "{key}: cache hit {} on a {} upload",
            job.hit,
            if up.repeat { "repeated" } else { "fresh" }
        ));
    }
    InstalledPackage::install(signed).map_err(|e| format!("{key}: install failed: {e}"))?;
    Ok(())
}

/// Runs the workload.
pub fn run(opts: &Options, inject: &Inject) -> Outcome {
    let (fx, setup_s) = timed_setups(crate::setups(opts), || setup(opts.workers));
    let reference = Reference::parse(oracle::committed(NAME));
    let mut out = Outcome::default();
    let mut stream = Stream::new(opts.seed, fx.apks.len());
    let mut svc = ProtectService::with_threads(opts.workers, 1);
    let new_service = || ProtectService::with_threads(opts.workers, 1);

    if !opts.trace {
        let budget = (opts.seconds * 1e9) as u64;
        let mut measured = 0u64;
        let mut latencies = Vec::new();
        let (mut hits, mut passes) = (0u64, 0u64);
        while measured < budget {
            let up = stream.next();
            if up.epoch_start {
                svc = new_service();
            }
            let job = run_job(&fx, &mut svc, up, inject);
            measured += job.total_ns;
            latencies.push(job.total_ns as f64 / 1e6);
            if job.hit {
                hits += 1;
            } else {
                passes += 1;
            }
            out.attempted += 1;
            if let Err(e) = check(&reference, up, &job) {
                out.fail(1, e);
            }
        }
        let n = latencies.len();
        let per_s = n as f64 / (measured as f64 / 1e9);
        let (p50, tail) = (
            stats::median(&latencies),
            stats::percentile(&latencies, TAIL),
        );
        out.set("setup_s", setup_s);
        out.set("throughput_per_s", per_s);
        out.set("latency_p50_ms", p50);
        out.set("latency_tail_ms", tail);
        out.notes.push(format!(
            "protect.jobs_per_s = {per_s:.3} 1/s ({n} jobs: {passes} protect passes, {hits} cache hits)"
        ));
        out.notes
            .push(format!("protect.job_p50_ms = {p50:.3} ms (n={n})"));
        out.notes.push(format!(
            "protect.job_p90_ms = {tail:.3} ms (n={n}, {} beyond)",
            stats::beyond(n, TAIL)
        ));
        out.notes.push(format!(
            "setup_s = {setup_s:.4} s (median of {} set-ups)",
            crate::setups(opts)
        ));
        return out;
    }

    // Traced run: one epoch, every job inside this run's own recorder.
    let rec = Arc::new(Recorder::new());
    let (mut total_ns, mut drain_ns, mut package_ns, mut encode_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut hit_ns, mut hits, mut requests) = (0u64, 0u64, 0u64);
    let (mut bombs, mut sealed, mut encoded) = (0u64, 0u64, 0u64);
    let mut count_cache = |svc: &ProtectService| {
        hits += svc.cache().hit_count() as u64;
        requests += (svc.cache().hit_count() + svc.cache().protect_count()) as u64;
    };
    for _ in 0..TRACED_UPLOADS {
        let up = stream.next();
        if up.epoch_start {
            count_cache(&svc);
            svc = new_service();
        }
        let job = obs::with_recorder(Arc::clone(&rec), || run_job(&fx, &mut svc, up, inject));
        total_ns += job.total_ns;
        drain_ns += job.drain_ns;
        package_ns += job.package_ns;
        encode_ns += job.encode_ns;
        if job.hit {
            hit_ns += job.drain_ns;
        }
        if let Ok((artifact, _, dex_bytes)) = &job.output {
            encoded += dex_bytes.len() as u64;
            if !job.hit {
                bombs += artifact.report.bombs.len() as u64;
                sealed += artifact
                    .dex
                    .blobs
                    .iter()
                    .map(|b| b.sealed.len() as u64)
                    .sum::<u64>();
            }
        }
        out.attempted += 1;
        if let Err(e) = check(&reference, up, &job) {
            out.fail(1, e);
        }
    }
    count_cache(&svc);
    let passes = requests - hits;
    let span = |name: &str| rec.timing_total_ns(name);
    let per_pass_ms = |v: u64| v as f64 / 1e6 / passes.max(1) as f64;
    let jobs = out.attempted as f64;

    let tree = Node::wall(NAME, "sum of jobs", total_ns)
        .glue()
        .child(
            Node::wall("core.service", "ProtectService::submit + drain", drain_ns).child(
                Node::wall(
                    "core.pipeline",
                    "pipeline.protect span",
                    span("pipeline.protect"),
                )
                .child(Node::wall(
                    "runtime.profile",
                    "pipeline.profile span (profile_app)",
                    span("pipeline.profile"),
                ))
                .child(Node::wall(
                    "core.sites.plan",
                    "pipeline.plan span (sites::plan)",
                    span("pipeline.plan"),
                ))
                .child(Node::wall(
                    "core.pipeline.detections",
                    "pipeline.detections span",
                    span("pipeline.detections"),
                ))
                .child(Node::wall(
                    "core.pipeline.prologue",
                    "pipeline.instrument.prologue span",
                    span("pipeline.instrument.prologue"),
                ))
                .child(Node::wall(
                    "core.pipeline.arm",
                    "pipeline.instrument.arm span",
                    span("pipeline.instrument.arm"),
                ))
                .child(Node::wall(
                    "dex.validate",
                    "pipeline.validate span (dex::validate)",
                    span("pipeline.validate"),
                )),
            ),
        )
        .child(Node::wall(
            "apk.package",
            "ProtectedApp::package",
            package_ns,
        ))
        .child(Node::wall("dex.encode", "wire::encode_dex", encode_ns));

    let profile_instr = rec.counter_value("profile.instr_executed");
    out.set("runtime.profile_ms", per_pass_ms(span("pipeline.profile")));
    out.set(
        "runtime.profile_ns_per_instr",
        span("pipeline.profile") as f64 / profile_instr.max(1) as f64,
    );
    out.set("runtime.instr", profile_instr as f64);
    out.set(
        "runtime.events",
        rec.counter_value("profile.events_run") as f64,
    );
    out.set("core.sites.plan_ms", per_pass_ms(span("pipeline.plan")));
    out.set(
        "core.pipeline.arm_ms",
        per_pass_ms(span("pipeline.instrument.arm")),
    );
    out.set("core.pipeline.bombs", bombs as f64);
    out.set("crypto.sealed_bytes", sealed as f64);
    out.set("dex.validate_ms", per_pass_ms(span("pipeline.validate")));
    out.set("apk.package_ms", package_ns as f64 / 1e6 / jobs);
    out.set("dex.encode_ms", encode_ns as f64 / 1e6 / jobs);
    out.set("dex.encoded_bytes", encoded as f64);
    out.set(
        "core.service.hit_us",
        hit_ns as f64 / 1e3 / hits.max(1) as f64,
    );
    out.set(
        "core.service.cache_hit_ratio",
        hits as f64 / requests.max(1) as f64,
    );
    out.set("bench.operations", jobs);
    out.notes.push(format!(
        "traced {} jobs ({passes} protect passes, {hits} cache hits)",
        out.attempted
    ));
    out.trees.push((NAME.to_string(), tree));
    out
}

/// The reference lines of every pool job, for `perfbench reference`.
pub fn reference_lines(workers: usize) -> Vec<String> {
    let fx = setup(workers);
    let mut lines = Vec::new();
    for base in 0..POOL_BASES {
        for app in 0..fx.apks.len() {
            let up = Upload {
                app,
                base,
                repeat: false,
                epoch_start: true,
            };
            let mut svc = ProtectService::with_threads(workers, 1);
            let job = run_job(&fx, &mut svc, up, &Inject::default());
            let values = match &job.output {
                Ok((artifact, signed, dex_bytes)) => digests(artifact, signed, dex_bytes).join(" "),
                Err(e) => format!("error {e}"),
            };
            lines.push(format!("{} {values}", reference_key(up)));
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_repeats_every_fourth_upload_within_its_epoch() {
        let mut s = Stream::new(7, 8);
        let ups: Vec<Upload> = (0..2 * EPOCH).map(|_| s.next()).collect();
        for (i, up) in ups.iter().enumerate() {
            assert_eq!(up.repeat, i % 4 == 3, "upload {i}");
            assert_eq!(up.epoch_start, i % EPOCH == 0);
            if up.repeat {
                let epoch = i / EPOCH * EPOCH;
                assert!(ups[epoch..i]
                    .iter()
                    .any(|u| !u.repeat && (u.app, u.base) == (up.app, up.base)));
            }
        }
        // Fresh uploads come in rounds that hold every flagship once, and
        // never repeat a job within an epoch.
        let fresh: Vec<_> = ups.iter().filter(|u| !u.repeat).collect();
        for round in fresh.chunks(8) {
            let mut apps: Vec<usize> = round.iter().map(|u| u.app).collect();
            apps.sort_unstable();
            assert_eq!(apps, (0..8).collect::<Vec<_>>());
        }
        let mut again = Stream::new(7, 8);
        assert!(ups.iter().all(|u| *u == again.next()));
    }
}
