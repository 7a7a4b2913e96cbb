//! `fuzz_campaign`: the attacker's coverage-guided fuzz campaign.
//!
//! `fuzz::guided` campaigns against the control-config Hash Droid
//! (`double_trigger = false`, `bogus_ratio = 0`), with `SnapshotFork`
//! resets, the smoke crack budget, 4 shards of 1,000 execs, at the run's
//! worker count. Campaign seeds come from a fixed pool; `--seed` picks
//! the order. Every finding is replay-validated by the campaign itself,
//! and the benchmark checks findings, coverage and validated markers
//! against the pinned reference.

use crate::breakdown::Node;
use crate::oracle::{self, digest, Reference};
use crate::{ns, permutation, stats, timed_setups, Options, Outcome};
use bombdroid_apk::ApkFile;
use bombdroid_attacks::{
    brute, fuzz, harvest_dictionary, havoc, splice, GuidedConfig, GuidedReport, ResetMode,
};
use bombdroid_core::{derive_seed, ProtectConfig, Protector};
use bombdroid_corpus::flagship;
use bombdroid_runtime::{DeviceEnv, InstalledPackage, Vm, VmEngine, VmOptions, VmSnapshot};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "fuzz_campaign";

/// Campaign seeds in the pool.
const POOL: usize = 32;
/// Shards per campaign.
const SHARDS: usize = 4;
/// Execs per shard.
const EXECS_PER_SHARD: u64 = 1_000;
/// Campaigns in the traced run.
const TRACED_CAMPAIGNS: usize = 6;
/// Mutated inputs replayed per traced campaign to time one exec.
const EXEC_PROBES: usize = 32;
/// Tail percentile of campaign latency.
const TAIL: f64 = 0.90;
/// Seed of the control-config protection of Hash Droid.
const PROTECT_SEED: u64 = 0x9D_0001;

fn campaign_seed(index: usize) -> u64 {
    0xF0_2200 + index as u64
}

fn campaign(seed: u64, workers: usize) -> GuidedConfig {
    GuidedConfig {
        shards: SHARDS,
        execs_per_shard: EXECS_PER_SHARD,
        threads: Some(workers),
        reset: ResetMode::SnapshotFork,
        ..GuidedConfig::smoke(seed)
    }
}

struct Fixture {
    signed: ApkFile,
}

/// Protects Hash Droid under the control config, signs it, and warms the
/// process with one campaign outside the pool.
fn setup(workers: usize) -> Fixture {
    let (dev, _) = crate::keys();
    let control = ProtectConfig {
        double_trigger: false,
        bogus_ratio: 0.0,
        ..ProtectConfig::default()
    };
    let protected = Protector::new(control)
        .protect(
            &flagship::hash_droid().apk(&dev),
            &mut StdRng::seed_from_u64(PROTECT_SEED),
        )
        .expect("Hash Droid protects under the control config");
    let fx = Fixture {
        signed: protected.package(&dev),
    };
    std::hint::black_box(fuzz::guided(&fx.signed, &campaign(0x3A2B, workers)).execs);
    fx
}

/// Pinned values of one campaign: a digest of the findings, the coverage
/// fingerprint, and the validated markers.
fn values(report: &GuidedReport) -> Vec<String> {
    let findings: Vec<String> = report
        .findings
        .iter()
        .map(|f| {
            format!(
                "{}:{}:{}:{}:{}:{}",
                f.marker,
                f.shard,
                f.exec,
                f.vm_seed,
                f.input.key(),
                f.validated
            )
        })
        .collect();
    let markers: Vec<String> = report
        .validated_markers()
        .iter()
        .map(u32::to_string)
        .collect();
    vec![
        digest(findings.join("\n").as_bytes()),
        format!("{:016x}", report.coverage.fingerprint()),
        if markers.is_empty() {
            "-".to_string()
        } else {
            markers.join(",")
        },
    ]
}

fn reference_key(index: usize) -> String {
    format!("campaign{index}")
}

fn check(reference: &Reference, index: usize, report: &GuidedReport) -> Result<(), String> {
    let key = reference_key(index);
    if let Some(f) = report.findings.iter().find(|f| !f.validated) {
        return Err(format!("{key}: bomb {} did not replay", f.marker));
    }
    let got = values(report);
    if !reference.matches(&key, &got) {
        return Err(format!(
            "{key}: {got:?} differs from reference {:?}",
            reference.get(&key)
        ));
    }
    Ok(())
}

/// Runs the workload.
pub fn run(opts: &Options) -> Outcome {
    let (fx, setup_s) = timed_setups(crate::setups(opts), || setup(opts.workers));
    let reference = Reference::parse(oracle::committed(NAME));
    let order = permutation(POOL, opts.seed);
    let mut out = Outcome::default();
    if opts.trace {
        traced(opts, &fx, &reference, &order, &mut out);
        return out;
    }
    let mut measured = 0.0f64;
    let mut execs = 0u64;
    let mut latencies = Vec::new();
    let mut k = 0;
    while measured < opts.seconds {
        let index = order[k % POOL];
        k += 1;
        let config = campaign(campaign_seed(index), opts.workers);
        let start = Instant::now();
        let report = fuzz::guided(&fx.signed, &config);
        let took = start.elapsed().as_secs_f64();
        measured += took;
        latencies.push(took * 1e3);
        execs += report.execs;
        out.attempted += report.execs;
        if let Err(e) = check(&reference, index, &report) {
            out.fail(report.execs, e);
        }
    }
    let n = latencies.len();
    let per_s = execs as f64 / measured;
    let (p50, tail) = (
        stats::median(&latencies),
        stats::percentile(&latencies, TAIL),
    );
    out.set("setup_s", setup_s);
    out.set("throughput_per_s", per_s);
    out.set("latency_p50_ms", p50);
    out.set("latency_tail_ms", tail);
    out.notes.push(format!(
        "fuzz.execs_per_s = {per_s:.1} 1/s ({execs} execs in {n} campaigns of {SHARDS}x{EXECS_PER_SHARD})"
    ));
    out.notes
        .push(format!("fuzz.campaign_p50_ms = {p50:.3} ms (n={n})"));
    out.notes.push(format!(
        "fuzz.campaign_p90_ms = {tail:.3} ms (n={n}, {} beyond)",
        stats::beyond(n, TAIL)
    ));
    out.notes.push(format!(
        "setup_s = {setup_s:.4} s (median of {} set-ups)",
        crate::setups(opts)
    ));
    out
}

/// Replays one input on a fork of `pristine` with coverage on, as the
/// campaign's exec loop does; returns (fork ns, total ns, instructions,
/// events).
fn probe_exec(
    pristine: &VmSnapshot,
    env: &DeviceEnv,
    seed: u64,
    input: &bombdroid_attacks::FuzzInput,
) -> (u64, u64, u64, u64) {
    let start = Instant::now();
    let mut vm = pristine.fork(env.clone(), seed);
    let forked = Instant::now();
    for ev in &input.events {
        if vm.is_killed() || vm.is_frozen() {
            break;
        }
        let _ = vm.fire_entry(ev.entry_index, ev.args.clone());
        vm.advance_ms(1_000);
    }
    std::hint::black_box(vm.coverage_edges().len());
    let t = vm.telemetry();
    (
        ns(forked - start),
        ns(start.elapsed()),
        t.instr_executed,
        t.events_run,
    )
}

/// Condition hashes of a harvest: runs the crack loop of
/// `harvest_dictionary` (every outer condition of the dex, under the same
/// budget) and sums `brute::crack`'s tries, since the harvest reports no
/// count of its own. Also returns whether the values this loop recovers
/// are the harvested `dictionary`, so the count follows the harvest.
fn count_condition_hashes(
    pkg: &InstalledPackage,
    budget: u64,
    dictionary: &[bombdroid_dex::Value],
) -> (u64, bool) {
    let mut tries = 0u64;
    let mut recovered: Vec<String> = Vec::new();
    for condition in brute::find_conditions(&pkg.dex) {
        let cracked = brute::crack(&condition, budget);
        tries += cracked.tries;
        if let Some(v) = cracked.recovered {
            let key = format!("{v:?}");
            if !recovered.contains(&key) {
                recovered.push(key);
            }
        }
    }
    let harvested: Vec<String> = dictionary.iter().map(|v| format!("{v:?}")).collect();
    (tries, recovered == harvested)
}

/// The traced run: a fixed number of campaigns; after each, the
/// campaign's harvest and minset are timed apart on the same inputs (the
/// tree charges them to the campaign), and a sample of execs on mutants
/// of its corpus.
fn traced(opts: &Options, fx: &Fixture, reference: &Reference, order: &[usize], out: &mut Outcome) {
    let pkg = Arc::new(InstalledPackage::install(&fx.signed).expect("signed app installs"));
    let env = DeviceEnv::attacker_lab(1).remove(0);
    let opts_cov = VmOptions {
        engine: VmEngine::Decoded,
        collect_coverage: true,
        ..VmOptions::default()
    };
    let pristine = Vm::new(Arc::clone(&pkg), env.clone(), 0, opts_cov).snapshot();
    let budget = campaign(0, opts.workers).crack_budget;

    let mut hashes = 0u64;
    let (mut campaign_ns, mut harvest_ns, mut minset_ns) = (0u64, 0u64, 0u64);
    let (mut probe_fork_ns, mut probe_ns, mut probes) = (0u64, 0u64, 0u64);
    let (mut instr, mut events) = (0u64, 0u64);
    let (mut execs, mut edges, mut entries, mut found, mut windows) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for (k, &index) in order.iter().cycle().take(TRACED_CAMPAIGNS).enumerate() {
        let config = campaign(campaign_seed(index), opts.workers);
        let start = Instant::now();
        let report = fuzz::guided(&fx.signed, &config);
        campaign_ns += ns(start.elapsed());

        let start = Instant::now();
        let dictionary = harvest_dictionary(&pkg.dex, budget);
        harvest_ns += ns(start.elapsed());
        let (tries, mirrored) = count_condition_hashes(&pkg, budget, &dictionary);
        hashes += tries;
        let start = Instant::now();
        std::hint::black_box(report.corpus.minimized().len());
        minset_ns += ns(start.elapsed());
        // Exec probes replay mutants drawn the way the campaign's exec loop
        // draws them: havoc of a corpus input, spliced one time in four.
        let corpus = report.corpus.entries();
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xF422);
        for i in 0..if corpus.is_empty() { 0 } else { EXEC_PROBES } {
            let base = &corpus[rng.gen_range(0..corpus.len())].input;
            let staged = if rng.gen_range(0..4u8) == 0 {
                splice(
                    base,
                    &corpus[rng.gen_range(0..corpus.len())].input,
                    &mut rng,
                )
            } else {
                base.clone()
            };
            let input = havoc(&staged, &pkg.dex, &dictionary, &mut rng);
            let seed = derive_seed(config.seed ^ 0xF422, (k * EXEC_PROBES + i) as u64);
            let (fork, total, n_instr, n_events) = probe_exec(&pristine, &env, seed, &input);
            probe_fork_ns += fork;
            probe_ns += total;
            instr += n_instr;
            events += n_events;
            probes += 1;
        }

        execs += report.execs;
        edges += report.coverage.len() as u64;
        entries += report.corpus.len() as u64;
        found += report.findings.len() as u64;
        windows += report.windows_sealed as u64;
        out.attempted += report.execs;
        let checked = if !mirrored || dictionary.len() != report.dictionary_len {
            Err(format!(
                "campaign{index}: the counted crack loop no longer matches the harvest \
                 ({} values harvested, {} in the campaign's dictionary)",
                dictionary.len(),
                report.dictionary_len
            ))
        } else {
            check(reference, index, &report)
        };
        if let Err(e) = checked {
            out.fail(report.execs, e);
        }
    }
    let campaigns = TRACED_CAMPAIGNS as f64;
    let exec_ns = probe_ns as f64 / probes.max(1) as f64;
    // The exec loop, install, seed round, merge and finding validation run
    // inside `fuzz::guided` with no public entry of their own, so they stay
    // in the root's unattributed self time. The sampled exec cost is
    // reported beside the tree, not charged to it: replays of final-corpus
    // mutants are longer than the average exec of a campaign.
    let tree = Node::wall(NAME, "sum of fuzz::guided", campaign_ns)
        .glue()
        .child(Node::wall(
            "attacks.harvest",
            "harvest_dictionary (timed apart)",
            harvest_ns,
        ))
        .child(Node::wall(
            "attacks.minset",
            "Corpus::minimized (timed apart)",
            minset_ns,
        ));
    out.set("attacks.harvest_ms", harvest_ns as f64 / 1e6 / campaigns);
    out.set("crypto.condition_hashes", hashes as f64);
    out.set("attacks.exec_us", exec_ns / 1e3);
    out.set(
        "runtime.fork_us",
        probe_fork_ns as f64 / 1e3 / probes.max(1) as f64,
    );
    // Dispatch time only, as on `population_vm`: fork time is excluded.
    out.set(
        "runtime.ns_per_instr",
        (probe_ns - probe_fork_ns) as f64 / instr.max(1) as f64,
    );
    out.set("runtime.instr", instr as f64);
    out.set("runtime.events", events as f64);
    out.set("attacks.minset_ms", minset_ns as f64 / 1e6 / campaigns);
    out.set("fuzz.execs", execs as f64);
    out.set("fuzz.edges", edges as f64);
    out.set("fuzz.corpus_entries", entries as f64);
    out.set("fuzz.bombs_found", found as f64);
    out.set("obs.windows_sealed", windows as f64);
    out.set("bench.operations", campaigns);
    out.notes.push(format!(
        "traced {TRACED_CAMPAIGNS} campaigns ({execs} execs); harvest and minset timed apart on the same inputs, {probes} execs on mutants of their corpora"
    ));
    out.trees.push((NAME.to_string(), tree));
}

/// The reference lines of every pool campaign.
pub fn reference_lines(workers: usize) -> Vec<String> {
    let fx = setup(workers);
    (0..POOL)
        .map(|index| {
            let report = fuzz::guided(&fx.signed, &campaign(campaign_seed(index), workers));
            format!("{} {}", reference_key(index), values(&report).join(" "))
        })
        .collect()
}
