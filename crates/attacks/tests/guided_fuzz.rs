//! Campaign determinism and ground-truth suite for the guided fuzzer.
//!
//! The resilience-curve artifact is only meaningful if the campaign is a
//! pure function of its config: these tests pin bit-identical corpus,
//! coverage, findings, and curves across worker counts {1, 2, 8} and
//! across snapshot-fork vs cold-boot resets, and replay every reported
//! bomb on a fresh uninstrumented VM across three protection configs
//! (including a bogus-bomb-dense one) to prove there are no false finds.

use bombdroid_apk::{ApkFile, DeveloperKey};
use bombdroid_attacks::fuzz;
use bombdroid_attacks::{GuidedConfig, GuidedReport, ResetMode};
use bombdroid_core::{ProtectConfig, Protector};
use rand::{rngs::StdRng, SeedableRng};

/// Single-trigger, no-bogus protection: the "unprotected control" app of
/// the resilience experiment. Any satisfied outer condition fires its
/// payload marker, so a competent fuzzer must find bombs here.
fn control_config() -> ProtectConfig {
    ProtectConfig {
        double_trigger: false,
        bogus_ratio: 0.0,
        ..ProtectConfig::fast_profile()
    }
}

fn bogus_dense_config() -> ProtectConfig {
    ProtectConfig {
        bogus_ratio: 1.0,
        ..ProtectConfig::fast_profile()
    }
}

fn protect(config: ProtectConfig) -> (ApkFile, bombdroid_core::ProtectReport) {
    let mut rng = StdRng::seed_from_u64(77);
    let dev = DeveloperKey::generate(&mut rng);
    let app = bombdroid_corpus::flagship::hash_droid();
    let apk = app.apk(&dev);
    let protected = Protector::new(config).protect(&apk, &mut rng).unwrap();
    (protected.package(&dev), protected.report.clone())
}

fn campaign_cfg(threads: usize, reset: ResetMode) -> GuidedConfig {
    GuidedConfig {
        seed: 0xA11CE,
        shards: 4,
        execs_per_shard: 60,
        threads: Some(threads),
        reset,
        crack_budget: 5_000,
        checkpoints: 6,
        window: 2,
    }
}

/// `(marker, shard, exec, input key)` of one finding.
type FindingSig = (u32, usize, u64, String);

/// Everything the campaign reports that must be bit-identical across
/// scheduling choices: coverage fingerprint, corpus keys, minset keys,
/// findings, and the bombs-vs-budget curve.
type Signature = (
    u64,
    Vec<String>,
    Vec<String>,
    Vec<FindingSig>,
    Vec<(u64, usize)>,
);

fn signature(r: &GuidedReport) -> Signature {
    (
        r.coverage.fingerprint(),
        r.corpus.keys(),
        r.minimized.keys(),
        r.findings
            .iter()
            .map(|f| (f.marker, f.shard, f.exec, f.input.key()))
            .collect(),
        r.curve.clone(),
    )
}

#[test]
fn campaign_is_bit_identical_across_thread_counts() {
    let (apk, _) = protect(control_config());
    let base = fuzz::guided(&apk, &campaign_cfg(1, ResetMode::SnapshotFork));
    assert!(
        !base.findings.is_empty(),
        "guided fuzzer must find at least one bomb on the control app"
    );
    assert!(!base.coverage.is_empty());
    assert!(base.curve.last().unwrap().1 >= base.findings.len());
    for threads in [2, 8] {
        let other = fuzz::guided(&apk, &campaign_cfg(threads, ResetMode::SnapshotFork));
        assert_eq!(
            signature(&base),
            signature(&other),
            "campaign diverged at {threads} worker threads"
        );
    }
}

#[test]
fn snapshot_fork_matches_cold_boot_exactly() {
    let (apk, _) = protect(control_config());
    let forked = fuzz::guided(&apk, &campaign_cfg(2, ResetMode::SnapshotFork));
    let cold = fuzz::guided(&apk, &campaign_cfg(2, ResetMode::ColdBoot));
    assert_eq!(signature(&forked), signature(&cold));
}

#[test]
fn every_reported_bomb_is_a_real_bomb_across_protection_configs() {
    let configs = [
        ("control", control_config()),
        ("paper-default", ProtectConfig::fast_profile()),
        ("bogus-dense", bogus_dense_config()),
    ];
    for (name, config) in configs {
        let (apk, report) = protect(config);
        if name == "bogus-dense" {
            assert!(
                report.bogus_bombs() > 0,
                "bogus-dense config must actually plant bogus bombs"
            );
        }
        let real_markers = report.marker_ids();
        let guided = fuzz::guided(&apk, &campaign_cfg(2, ResetMode::SnapshotFork));
        for f in &guided.findings {
            assert!(
                f.validated,
                "{name}: finding for marker {} did not replay on a fresh VM",
                f.marker
            );
            assert!(
                real_markers.contains(&f.marker),
                "{name}: reported marker {} is not a planted real bomb (false find)",
                f.marker
            );
        }
        // Bogus bombs carry no marker, so by construction none can appear;
        // the assertion above also proves the fuzzer never fabricates ids.
    }
}

#[test]
fn minimized_corpus_covers_exactly_what_the_full_corpus_covers() {
    let (apk, _) = protect(control_config());
    let r = fuzz::guided(&apk, &campaign_cfg(2, ResetMode::SnapshotFork));
    assert!(r.minimized.len() <= r.corpus.len());
    assert_eq!(r.minimized.union_coverage(), r.corpus.union_coverage());
    assert_eq!(r.corpus.union_coverage(), r.coverage);
}

#[test]
fn coverage_hook_is_invisible_to_the_cost_model() {
    // Same seed, same events, coverage on vs off: telemetry (including
    // instr_executed and the virtual clock) must be identical, and only
    // the instrumented VM may report edges. This is the deterministic
    // half of the "no overhead when disabled" perf guard.
    use bombdroid_runtime::{DeviceEnv, InstalledPackage, RtValue, Vm, VmOptions};

    let (apk, _) = protect(control_config());
    let pkg = std::sync::Arc::new(InstalledPackage::install(&apk).unwrap());
    let run = |collect_coverage: bool| {
        let opts = VmOptions {
            collect_coverage,
            ..VmOptions::default()
        };
        let env = DeviceEnv::attacker_lab(1).remove(0);
        let mut vm = Vm::new(std::sync::Arc::clone(&pkg), env, 99, opts);
        for i in 0..20 {
            let entry = i % vm.pkg.dex.entry_points.len();
            let arity = vm.pkg.dex.entry_points[entry].params.len();
            let _ = vm.fire_entry(entry, vec![RtValue::Int(i as i64); arity]);
            vm.advance_ms(500);
        }
        (vm.telemetry().clone(), vm.clock_ms(), vm.coverage_edges())
    };
    let (t_on, clock_on, edges_on) = run(true);
    let (t_off, clock_off, edges_off) = run(false);
    assert_eq!(t_on, t_off, "coverage must not perturb telemetry");
    assert_eq!(
        clock_on, clock_off,
        "coverage must not consume virtual time"
    );
    assert!(!edges_on.is_empty(), "instrumented run records edges");
    assert!(edges_off.is_empty(), "uninstrumented run records nothing");
}

#[test]
fn forked_coverage_resets_per_session() {
    use bombdroid_runtime::{DeviceEnv, InstalledPackage, RtValue, Vm, VmOptions};

    let (apk, _) = protect(control_config());
    let pkg = std::sync::Arc::new(InstalledPackage::install(&apk).unwrap());
    let opts = VmOptions {
        collect_coverage: true,
        ..VmOptions::default()
    };
    let env = DeviceEnv::attacker_lab(1).remove(0);
    let mut vm = Vm::new(std::sync::Arc::clone(&pkg), env.clone(), 1, opts);
    for entry in 0..vm.pkg.dex.entry_points.len() {
        let arity = vm.pkg.dex.entry_points[entry].params.len();
        let _ = vm.fire_entry(entry, vec![RtValue::Int(1); arity]);
    }
    assert!(!vm.coverage_edges().is_empty());
    let snap = vm.snapshot();
    // Resume keeps the recorded edges; fork starts a fresh session.
    assert_eq!(snap.resume().coverage_edges(), vm.coverage_edges());
    let fork = snap.fork(env, 2);
    assert!(fork.coverage_enabled());
    assert!(fork.coverage_edges().is_empty());
}
