//! Differential behavior-preservation sweep: for a corpus of generated
//! apps, the protected build must be observationally identical to the
//! original on legitimately-signed installs — across random device
//! environments and random event streams where no response ever fires.
//!
//! This is the paper's central correctness invariant (§7/§8.4, zero false
//! positives) driven as a differential test: same seed → same events →
//! same logs, same final statics, zero responses, zero piracy reports,
//! and zero decrypt failures (every triggered bomb must re-derive its key
//! from the live trigger value).

use bombdroid::attacks::{forced_execution, slice_attack};
use bombdroid::core::{NaiveProtector, ProtectConfig, Protector};
use bombdroid::corpus::{flagship, gen::generate_app, Category};
use bombdroid::crypto::{hex, sha256};
use bombdroid::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// Everything observable about a session, for original/protected diffing.
#[derive(Debug, PartialEq)]
struct Observation {
    logs: Vec<String>,
    statics: Vec<(String, String)>,
    responses: usize,
    piracy_reports: u64,
    decrypt_failures: u64,
}

fn observe(apk: &ApkFile, session_seed: u64, events: u64) -> Observation {
    let pkg = InstalledPackage::install(apk).expect("signed install");
    let mut rng = StdRng::seed_from_u64(session_seed);
    let env = DeviceEnv::sample(&mut rng);
    let mut vm = Vm::boot(pkg, env, session_seed ^ 0xBEEF);
    let mut source = RandomEventSource;
    run_session(&mut vm, &mut source, &mut rng, events, 60);
    let t = vm.telemetry();
    Observation {
        logs: t.logs.clone(),
        statics: vm.statics_snapshot(),
        responses: t.responses.len(),
        piracy_reports: t.piracy_reports,
        decrypt_failures: t.decrypt_failures,
    }
}

#[test]
fn protected_corpus_is_observationally_identical_on_legit_installs() {
    let dev = DeveloperKey::generate(&mut StdRng::seed_from_u64(7));
    let corpus = [
        flagship::androfish(),
        flagship::hash_droid(),
        flagship::catlog(),
        generate_app("bp-game", Category::Game, 0xA11),
        generate_app("bp-writing", Category::Writing, 0xA12),
        generate_app("bp-nav", Category::Navigation, 0xA13),
        generate_app("bp-sec", Category::Security, 0xA14),
    ];
    for (i, app) in corpus.iter().enumerate() {
        let apk = app.apk(&dev);
        let mut prng = StdRng::seed_from_u64(0xC0FFEE + i as u64);
        let protected = Protector::new(ProtectConfig::fast_profile())
            .protect(&apk, &mut prng)
            .unwrap_or_else(|e| panic!("{}: protect failed: {e}", app.name));
        assert!(
            protected.report.bombs_injected() > 0,
            "{}: corpus member must actually carry bombs",
            app.name
        );
        let signed = protected.package(&dev);

        for session_seed in [1u64, 42, 7777] {
            let original = observe(&apk, session_seed, 40);
            let guarded = observe(&signed, session_seed, 40);
            assert_eq!(
                original, guarded,
                "{} seed {session_seed}: protected run diverged",
                app.name
            );
            assert_eq!(
                (
                    guarded.responses,
                    guarded.piracy_reports,
                    guarded.decrypt_failures
                ),
                (0, 0, 0),
                "{} seed {session_seed}: legit install must look untouched",
                app.name
            );
        }
    }
}

/// SHA-256 of a value's `Debug` rendering, hex-encoded: the golden-digest
/// fingerprint. Every collection the digested values hold is ordered
/// (`BTreeMap`/`BTreeSet`/`Vec`), so the rendering is deterministic.
fn debug_digest(value: &impl std::fmt::Debug) -> String {
    hex::encode(&sha256::digest(format!("{value:?}").as_bytes()))
}

/// Checks `(label, digest)` pairs against a golden table, reporting every
/// mismatch at once so a deliberate behaviour change shows its full blast
/// radius in one run.
fn assert_golden(what: &str, golden: &[(&str, &str)], actual: &[(String, String)]) {
    let expected: Vec<(String, String)> = golden
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    if expected != actual {
        let rows: String = actual
            .iter()
            .map(|(k, v)| format!("    (\"{k}\", \"{v}\"),\n"))
            .collect();
        panic!("{what}: golden digests diverged; actual table:\n{rows}");
    }
}

/// The 7-app corpus, protected and then repackaged by a pirate, so decrypt
/// and bomb-response paths run on every session.
fn pirated_corpus() -> Vec<(String, ApkFile)> {
    let dev = DeveloperKey::generate(&mut StdRng::seed_from_u64(7));
    let pirate = DeveloperKey::generate(&mut StdRng::seed_from_u64(9));
    let corpus = [
        flagship::androfish(),
        flagship::hash_droid(),
        flagship::catlog(),
        generate_app("ti-game", Category::Game, 0xB11),
        generate_app("ti-writing", Category::Writing, 0xB12),
        generate_app("ti-nav", Category::Navigation, 0xB13),
        generate_app("ti-sec", Category::Security, 0xB14),
    ];
    corpus
        .iter()
        .enumerate()
        .map(|(i, app)| {
            let apk = app.apk(&dev);
            let mut prng = StdRng::seed_from_u64(0xE0 + i as u64);
            let protected = Protector::new(ProtectConfig::fast_profile())
                .protect(&apk, &mut prng)
                .unwrap_or_else(|e| panic!("{}: protect failed: {e}", app.name));
            let signed = protected.package(&dev);
            (app.name.clone(), repackage(&signed, &pirate, |_| {}))
        })
        .collect()
}

/// Golden digests of whole pirated sessions: for each corpus app and
/// session seed, SHA-256 of the `Debug` rendering of
/// `(statics_snapshot(), clock_ms(), Telemetry)`. The telemetry covers
/// instruction counts, per-method call counts, satisfied-condition sets,
/// bomb counters, responses and logs, so any change to charge order,
/// fault placement or fused-op semantics moves a digest.
///
/// The digests were recorded while a second, tree-walking interpreter still
/// existed and agreed with the decoded engine bit for bit on this corpus;
/// they keep pinning that behaviour now that the decoded engine is the
/// only one.
const SESSION_DIGESTS: [(&str, &str); 21] = [
    (
        "AndroFish/1",
        "ed7eee339d7395630b6f13593fb6c45ecbe38c6ffc881ca1d84b241c33b23605",
    ),
    (
        "AndroFish/42",
        "f8b575fd2a85d953c9196a5fc35ef3b5eb1b05696e56438f3e39a1f4bb80eb47",
    ),
    (
        "AndroFish/7777",
        "4091b8dd144c0104b99363b34b3a3ef8eb4de13fef0e9dfb65a9b74da5d55403",
    ),
    (
        "Hash Droid/1",
        "692e744268c04da2ba36157254a82dfd1572b9c21299b7474b02ff47a7cd09fa",
    ),
    (
        "Hash Droid/42",
        "3349be3c89c130bb12313d64dd78bad72aa70c0b73ffb3dffea9b5aeb79ccf1c",
    ),
    (
        "Hash Droid/7777",
        "1c6b220c0ff0ba859b4cf9479742d816ecb905c0265ca35ff325a92dcd814c84",
    ),
    (
        "CatLog/1",
        "d25c2d73085149d6f1e5e06fd7ed80b8b608b71b07a22218d0266dcf37160b26",
    ),
    (
        "CatLog/42",
        "225d24122c60cf1778ca09c1c07c5b8d0baa6d58e12e14871d642b7384812912",
    ),
    (
        "CatLog/7777",
        "60d582918f2663f18fa8dd516c31e2d0c7967d73b28d7553c908351a4b13477e",
    ),
    (
        "ti-game/1",
        "0c374e71aeee0e7b1fd44ef696ab45112c465a293be39e9e15b67cf060814020",
    ),
    (
        "ti-game/42",
        "b1d125f02982ff4b638a142b9f0bafbea832e3f0fe9f09a2ea65cc7c6e7d8af8",
    ),
    (
        "ti-game/7777",
        "fa8ed9f0a7e46b74efdf77ab6fe3bfbe4b90237609ab5ac5d19cb39dff112c4a",
    ),
    (
        "ti-writing/1",
        "89caa79dffc56d723d3d5f2ac0a21371fd3e3868067bdbadec9123e7b161f7a7",
    ),
    (
        "ti-writing/42",
        "de777624db1720f46d07530eeda4599a9df6ecbfb7f46fa546b42282d1342e65",
    ),
    (
        "ti-writing/7777",
        "e2d25cb33387a588228ac330d817297b6ebf9f9654c536648dcc4ee393199e2a",
    ),
    (
        "ti-nav/1",
        "7e243ae24dee24f15d7ae781ec2724386cecaed2a2fb57dc3bcba585f7e86f55",
    ),
    (
        "ti-nav/42",
        "e33436de9b611a3ea760fd5a3819903b4d285624b0d215fb2c1be686c58f2a8d",
    ),
    (
        "ti-nav/7777",
        "4e882c86617f5052203b4abef1148773d28b04cce25014c0635979bc2e03618d",
    ),
    (
        "ti-sec/1",
        "41c4ae8cadb0f9c389353f162f0ebc5bd05f8390c9bceead972f1b2714b5e64c",
    ),
    (
        "ti-sec/42",
        "4188f39f8cbcf5415e0a0be6299aab6b0eed24659520a82e8e7211169f956702",
    ),
    (
        "ti-sec/7777",
        "ec2bfb9e6022517bc45a72ecbcadd05d918fdcd9780c512217406033972ae078",
    ),
];

#[test]
fn pirated_sessions_match_golden_digests() {
    let mut actual = Vec::new();
    for (name, pirated) in pirated_corpus() {
        for session_seed in [1u64, 42, 7777] {
            let pkg = InstalledPackage::install(&pirated).expect("pirated install");
            let mut rng = StdRng::seed_from_u64(session_seed);
            let env = DeviceEnv::sample(&mut rng);
            let mut vm = Vm::boot(pkg, env, session_seed ^ 0xBEEF);
            let mut source = RandomEventSource;
            run_session(&mut vm, &mut source, &mut rng, 40, 60);
            let session = (vm.statics_snapshot(), vm.clock_ms(), vm.into_telemetry());
            actual.push((format!("{name}/{session_seed}"), debug_digest(&session)));
        }
    }
    assert_golden("pirated sessions", &SESSION_DIGESTS, &actual);
}

/// Golden digests of the two attacks that run detached fragments
/// (`Vm::run_detached_fragment`): the whole forced-execution report and
/// every slice-execution outcome, faults included, per flagship app and
/// protector, at fixed seeds. Recorded while detached fragments still ran
/// on the tree-walking interpreter, so they also pin that lowering them
/// through the decoder changed nothing.
const DETACHED_DIGESTS: [(&str, &str); 16] = [
    (
        "AndroFish/bombdroid",
        "949d9ac241b63d271fde98a6f1777aa72fa4727d4a2085ae9e11c9384a2ae026",
    ),
    (
        "AndroFish/naive",
        "b8e76ebed3ac62fe9c8c2f9065bc1bedbe05eb5bb5f82216e2ac56ce7fa5992d",
    ),
    (
        "Angulo/bombdroid",
        "d9b3fae540ad1141749b37c9ab98607948523afb6fc34e9c54aa01b087559235",
    ),
    (
        "Angulo/naive",
        "4ccd36cb34282dfb6422d59be78ceffd91f9beaadf99fb3aa9affc942cc16f72",
    ),
    (
        "SWJournal/bombdroid",
        "8a89f48c54725dbac3996da250dd7248f29c8be626347910c525b5a55de3f937",
    ),
    (
        "SWJournal/naive",
        "e2c17b00ba82d7a67435b5ba8240d3ed60369da305d1519d45a29cd7713b18ad",
    ),
    (
        "Calendar/bombdroid",
        "9336495b8fd32f24499d51991af32902da9e8655b286bb736fff6d418194ee11",
    ),
    (
        "Calendar/naive",
        "a2993a1cafd2619597ee9cc3928b127510a7b4529bde470496ff87eb89cc5ee2",
    ),
    (
        "BRouter/bombdroid",
        "33885bafe6595d29accecb2f98e0ea341a19715a5e7f450f2f2143fc6ba8ecdf",
    ),
    (
        "BRouter/naive",
        "9be198ceca85feb962b98740539b977e46ee96e6b2009756849351510ed15508",
    ),
    (
        "Binaural Beat/bombdroid",
        "6c22cd852cf48ed0e216ad90d9b038995c6a561d6b3e86bfa92ab25090535f87",
    ),
    (
        "Binaural Beat/naive",
        "68fea86aeb70964e11f01b8c7898cf355378217edabbe9e0faf0af338ea10529",
    ),
    (
        "Hash Droid/bombdroid",
        "c708c70f48122631726ae8400ee3d695132dfb3b14d6c41c8ad4c5082e0c52ed",
    ),
    (
        "Hash Droid/naive",
        "2ddef3d88062ce89828ca584224a5bf4e3c59f4efb85ab4fb6edb3207c634299",
    ),
    (
        "CatLog/bombdroid",
        "894f1d4b4847c67389a5cdaee5a468e5c0d1c3f76e461869848de6c6373c9436",
    ),
    (
        "CatLog/naive",
        "a47b82c63f8b803db896b1b1627886eb4fdc65624caa0d437ed9a1e7d0d88ead",
    ),
];

#[test]
fn detached_fragment_attacks_match_golden_digests() {
    let dev = DeveloperKey::generate(&mut StdRng::seed_from_u64(6));
    let mut actual = Vec::new();
    for (i, app) in flagship::all().iter().enumerate() {
        let apk = app.apk(&dev);
        let cfg = ProtectConfig::fast_profile();
        let mut prng = StdRng::seed_from_u64(0xF0 + i as u64);
        let fail = |e: &dyn std::fmt::Display| panic!("{}: protect failed: {e}", app.name);
        let builds = [
            (
                "bombdroid",
                Protector::new(cfg.clone())
                    .protect(&apk, &mut prng)
                    .unwrap_or_else(|e| fail(&e)),
            ),
            (
                "naive",
                NaiveProtector::new(cfg)
                    .protect(&apk, &mut prng)
                    .unwrap_or_else(|e| fail(&e)),
            ),
        ];
        for (protector, protected) in builds {
            let signed = protected.package(&dev);
            let forced = forced_execution(&signed, 1);
            let sliced = slice_attack(&signed, &[0, 1, 42, 999], 3);
            actual.push((
                format!("{}/{protector}", app.name),
                debug_digest(&(forced, sliced)),
            ));
        }
    }
    assert_golden("detached-fragment attacks", &DETACHED_DIGESTS, &actual);
}

#[test]
fn user_event_streams_are_also_preserved() {
    // Random events exercise breadth; the weighted user model exercises
    // the paths real users hit most — both must be behavior-preserving.
    let dev = DeveloperKey::generate(&mut StdRng::seed_from_u64(8));
    let app = flagship::swjournal();
    let apk = app.apk(&dev);
    let mut prng = StdRng::seed_from_u64(0xD0);
    let protected = Protector::new(ProtectConfig::fast_profile())
        .protect(&apk, &mut prng)
        .unwrap();
    let signed = protected.package(&dev);

    for session_seed in [5u64, 6] {
        let run = |apk: &ApkFile| {
            let pkg = InstalledPackage::install(apk).unwrap();
            let mut rng = StdRng::seed_from_u64(session_seed);
            let env = DeviceEnv::sample(&mut rng);
            let mut vm = Vm::boot(pkg, env, session_seed);
            let mut source = UserEventSource;
            run_session(&mut vm, &mut source, &mut rng, 30, 60);
            (vm.telemetry().logs.clone(), vm.statics_snapshot())
        };
        assert_eq!(run(&apk), run(&signed), "seed {session_seed}");
    }
}
