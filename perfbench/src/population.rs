//! `population_vm` and `population_synthetic`: the population day loop.
//!
//! Both run `Simulator` populations over 14 days with
//! `halt_on_takedown = false` at the run's worker count, one simulation
//! after another, each from a fixed pool of simulation seeds (`--seed`
//! picks the order). `population_vm` runs real uncapped VM sessions of
//! the paper-default protected Hash Droid, repackaged under a pirate key
//! and installed once in set-up; `population_synthetic` runs the
//! closed-form `SyntheticRunner` over the same bomb catalog at 5× the
//! population size.

use crate::breakdown::Node;
use crate::oracle::{self, digest, Reference};
use crate::{ns, permutation, stats, timed_setups, Inject, Options, Outcome};
use bombdroid_apk::repackage;
use bombdroid_core::{ProtectConfig, Protector, TaskCtx};
use bombdroid_corpus::{flagship, UserProfile};
use bombdroid_runtime::{
    run_session, DeviceEnv, InstalledPackage, SessionPool, UserEventSource, Vm, VmOptions,
    VmSnapshot,
};
use bombdroid_sim::runner::draw_rating_milli;
use bombdroid_sim::{
    BombCatalog, SessionOutcome, SessionRunner, SimConfig, Simulator, SyntheticRunner, VmRunner,
};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The VM-backed workload.
pub const VM: &str = "population_vm";
/// The closed-form workload.
pub const SYNTHETIC: &str = "population_synthetic";

/// Virtual days per simulation.
const DAYS: u32 = 14;
/// Seed of the paper-default protection of Hash Droid.
const PROTECT_SEED: u64 = 0x9D_0001;
/// Outer-trigger observations a bomb needs before its measured rate is
/// held against the prediction (as in `population_check`).
const MIN_OUTER_SESSIONS: u64 = 200;
/// Slack on top of the 3σ binomial band, in ppm (as in
/// `population_check`: the closed form ignores device-mix effects).
const SLACK_PPM: f64 = 25_000.0;

/// Shape of one of the two workloads.
struct Shape {
    name: &'static str,
    devices: usize,
    pool: usize,
    traced_sims: usize,
    warm_devices: usize,
}

const VM_SHAPE: Shape = Shape {
    name: VM,
    devices: 5_000,
    pool: 32,
    traced_sims: 2,
    warm_devices: 2_000,
};

const SYNTHETIC_SHAPE: Shape = Shape {
    name: SYNTHETIC,
    devices: 12_500,
    pool: 64,
    traced_sims: 16,
    warm_devices: 5_000,
};

fn shape(name: &str) -> &'static Shape {
    if name == VM {
        &VM_SHAPE
    } else {
        &SYNTHETIC_SHAPE
    }
}

fn sim_seed(index: usize) -> u64 {
    0x51B_0000 + index as u64
}

fn sim_config(devices: usize, seed: u64, workers: usize) -> SimConfig {
    let mut config = SimConfig::new(devices, DAYS, seed);
    config.market.halt_on_takedown = false;
    config.threads = Some(workers);
    config
}

/// Everything set-up builds: the bomb catalog and, for the VM workload,
/// a pristine snapshot of the pirated install to fork sessions from.
struct Fixture {
    catalog: BombCatalog,
    pristine: Option<VmSnapshot>,
}

impl Fixture {
    fn vm_pool(&self) -> SessionPool {
        SessionPool::warmed(self.pristine.clone().expect("VM workload has a snapshot"))
    }
}

fn vm_options() -> VmOptions {
    VmOptions {
        shared_fragment_cache: true,
        ..VmOptions::default()
    }
}

/// Protects Hash Droid at paper defaults; for the VM workload also
/// repackages it under the pirate key, installs it, snapshots a pristine
/// VM, and warms the process-wide fragment cache and the decoded program
/// with one small simulation.
fn setup(shape: &Shape, workers: usize) -> Fixture {
    let (dev, pirate) = crate::keys();
    let app = flagship::hash_droid();
    let apk = app.apk(&dev);
    let protected = Protector::new(ProtectConfig::default())
        .protect(&apk, &mut StdRng::seed_from_u64(PROTECT_SEED))
        .expect("Hash Droid protects at paper defaults");
    let catalog = BombCatalog::from_report(&protected.report);
    let warm = sim_config(shape.warm_devices, 0x3A2B, workers);
    if shape.name == SYNTHETIC {
        let mut sim = Simulator::new(warm, catalog.clone(), SyntheticRunner::new(catalog.clone()));
        run_sim(&mut sim);
        return Fixture {
            catalog,
            pristine: None,
        };
    }
    let pirated = repackage(&protected.package(&dev), &pirate, |_| {});
    let pkg = Arc::new(InstalledPackage::install(&pirated).expect("pirated copy installs"));
    let env = DeviceEnv::attacker_lab(1).remove(0);
    let pristine = Vm::new(pkg, env, 0, vm_options()).snapshot();
    let fx = Fixture {
        catalog,
        pristine: Some(pristine),
    };
    let mut sim = Simulator::new(warm, fx.catalog.clone(), VmRunner::new(fx.vm_pool()));
    run_sim(&mut sim);
    fx
}

/// Runs a simulation to the end, draining sealed windows at every chunk
/// boundary (bounded memory); returns the peak live metric names.
fn run_sim<R: SessionRunner>(sim: &mut Simulator<R>) -> usize {
    let mut live = 0;
    sim.run_with(|s| {
        live = live.max(s.aggregator().live_metric_names());
        s.aggregator().drain_windows();
    });
    live.max(sim.aggregator().live_metric_names())
}

/// Checks a finished simulation: its report digest against the pinned
/// one for the tracing mode, and every sufficiently observed bomb's
/// conditional trigger rate against its closed-form prediction (3σ
/// binomial band plus slack).
fn check_sim<R: SessionRunner>(
    sim: &Simulator<R>,
    reference: &Reference,
    key: &str,
    traced: bool,
) -> Result<(), String> {
    let report = sim.report_json()?;
    let got = digest(report.as_bytes());
    let pinned = reference
        .get(key)
        .and_then(|v| v.get(usize::from(traced)))
        .ok_or_else(|| format!("{key}: no pinned report digest"))?;
    if &got != pinned {
        return Err(format!(
            "{key}: report digest {got} differs from reference {pinned}"
        ));
    }
    for (entry, stats) in sim.bomb_stats() {
        if stats.outer_sessions < MIN_OUTER_SESSIONS {
            continue;
        }
        let p = entry.predicted_ppm as f64 / 1e6;
        let sigma_ppm = (p * (1.0 - p) / stats.outer_sessions as f64).sqrt() * 1e6;
        let tolerance = 3.0 * sigma_ppm + SLACK_PPM;
        let measured = stats.measured_ppm() as f64;
        if (measured - entry.predicted_ppm as f64).abs() > tolerance {
            return Err(format!(
                "{key}: bomb {} fired at {measured} ppm, predicted {} ± {tolerance:.0} ppm over {} sessions",
                entry.marker, entry.predicted_ppm, stats.outer_sessions
            ));
        }
    }
    Ok(())
}

fn reference_key(index: usize) -> String {
    format!("sim{index}")
}

/// Runs one end-to-end simulation; returns its wall time in seconds, its
/// sessions, and its check (run outside the measured time).
fn measure_sim<R: SessionRunner>(
    config: SimConfig,
    fx: &Fixture,
    runner: R,
    reference: &Reference,
    index: usize,
) -> (f64, usize, Result<(), String>) {
    let start = Instant::now();
    let mut sim = Simulator::new(config, fx.catalog.clone(), runner);
    run_sim(&mut sim);
    let took = start.elapsed().as_secs_f64();
    let checked = check_sim(&sim, reference, &reference_key(index), false);
    (took, sim.sessions_run(), checked)
}

/// Times every session of `VmRunner::run` (end-to-end runs), and slows
/// it down on request.
struct Timed {
    inner: VmRunner,
    /// Session times in ns (u32 holds sessions up to 4.29 s).
    samples: Arc<Mutex<Vec<u32>>>,
    inject: Inject,
}

/// Layer name of the VM session runner (`VmRunner::run`).
pub const VM_RUNNER: &str = "sim.vm_runner";
/// Layer name of the closed-form session runner (`SyntheticRunner::run`).
const SYNTHETIC_RUNNER: &str = "sim.synthetic_runner";

impl SessionRunner for Timed {
    fn run(&self, user: &UserProfile, ctx: TaskCtx) -> SessionOutcome {
        let start = Instant::now();
        let out = self.inner.run(user, ctx);
        self.inject.pad(VM_RUNNER, start.elapsed());
        let took = u32::try_from(start.elapsed().as_nanos()).unwrap_or(u32::MAX);
        self.samples
            .lock()
            .expect("no sample writer panics")
            .push(took);
        out
    }
}

/// Busy-time and chunk-span probes of the traced run.
struct Probe {
    origin: Instant,
    chunk_len: usize,
    chunk_start: Vec<AtomicU64>,
    chunk_end: Vec<AtomicU64>,
    runner_ns: AtomicU64,
    fork_ns: AtomicU64,
    drive_ns: AtomicU64,
}

impl Probe {
    fn new(config: &SimConfig) -> Self {
        let chunks = config.devices.div_ceil(config.chunk_len());
        Probe {
            origin: Instant::now(),
            chunk_len: config.chunk_len(),
            chunk_start: (0..chunks).map(|_| AtomicU64::new(u64::MAX)).collect(),
            chunk_end: (0..chunks).map(|_| AtomicU64::new(0)).collect(),
            runner_ns: AtomicU64::new(0),
            fork_ns: AtomicU64::new(0),
            drive_ns: AtomicU64::new(0),
        }
    }

    /// Wall time during which at least one runner of a chunk was active,
    /// summed over chunks: the fleet fan-out spans.
    fn fanout_ns(&self) -> u64 {
        self.chunk_start
            .iter()
            .zip(&self.chunk_end)
            .map(|(s, e)| {
                let (s, e) = (s.load(Ordering::Relaxed), e.load(Ordering::Relaxed));
                e.saturating_sub(s)
            })
            .sum()
    }
}

/// The traced session runner. For the VM workload it performs
/// `VmRunner::run`'s steps itself through their public calls, so fork and
/// drive get spans of their own; the pinned report digest proves the
/// outcome identical.
struct Traced {
    synthetic: Option<SyntheticRunner>,
    pool: Option<SessionPool>,
    probe: Arc<Probe>,
    inject: Inject,
}

impl Traced {
    fn vm_session(&self, pool: &SessionPool, user: &UserProfile, ctx: TaskCtx) -> SessionOutcome {
        let mut urng = ctx.rng();
        let env = user.device.materialize();
        let forked = Instant::now();
        let mut vm = pool.session(env, ctx.seed);
        let driven = Instant::now();
        run_session(
            &mut vm,
            &mut UserEventSource,
            &mut urng,
            u64::from(user.session_minutes),
            u64::from(user.events_per_minute),
        );
        let done = Instant::now();
        self.probe
            .fork_ns
            .fetch_add(ns(driven - forked), Ordering::Relaxed);
        self.probe
            .drive_ns
            .fetch_add(ns(done - driven), Ordering::Relaxed);
        vm.publish_obs();
        let t = vm.telemetry();
        let detected = t.detection_fired();
        SessionOutcome {
            detected,
            reports: t.piracy_reports,
            rating_milli: draw_rating_milli(detected, &mut urng),
            first_marker_min: t.first_marker_ms.map(|ms| (ms / 60_000) as u16),
            markers: t.markers.iter().copied().collect(),
            blobs: t.blobs_decrypted.iter().copied().collect(),
        }
    }
}

impl SessionRunner for Traced {
    fn run(&self, user: &UserProfile, ctx: TaskCtx) -> SessionOutcome {
        let start = Instant::now();
        let out = match (&self.pool, &self.synthetic) {
            (Some(pool), _) => {
                let out = self.vm_session(pool, user, ctx);
                self.inject.pad(VM_RUNNER, start.elapsed());
                out
            }
            (None, Some(synthetic)) => synthetic.run(user, ctx),
            (None, None) => unreachable!("a traced runner wraps a pool or a synthetic runner"),
        };
        let end = Instant::now();
        let p = &self.probe;
        p.runner_ns.fetch_add(ns(end - start), Ordering::Relaxed);
        let chunk = (ctx.index / p.chunk_len).min(p.chunk_start.len() - 1);
        p.chunk_start[chunk].fetch_min(ns(start - p.origin), Ordering::Relaxed);
        p.chunk_end[chunk].fetch_max(ns(end - p.origin), Ordering::Relaxed);
        out
    }
}

/// Runs one of the two workloads.
pub fn run(opts: &Options, inject: &Inject) -> Outcome {
    let shape = shape(&opts.workload);
    let (fx, setup_s) = timed_setups(crate::setups(opts), || setup(shape, opts.workers));
    let fx = &fx;
    let reference = Reference::parse(oracle::committed(shape.name));
    let order = permutation(shape.pool, opts.seed);
    let mut out = Outcome::default();
    if opts.trace {
        traced(opts, shape, fx, &reference, &order, inject, &mut out);
        return out;
    }

    let mut measured = 0.0f64;
    let mut sessions = 0usize;
    let mut sim_ms = Vec::new();
    // Reserved up front so peak RSS does not depend on how many sessions
    // a run fits in: untouched reserved pages are not resident.
    let samples = Arc::new(Mutex::new(Vec::with_capacity(
        (opts.seconds * 50_000.0) as usize,
    )));
    let mut k = 0;
    while measured < opts.seconds {
        let index = order[k % shape.pool];
        k += 1;
        let config = sim_config(shape.devices, sim_seed(index), opts.workers);
        let result = if shape.name == VM {
            let runner = Timed {
                inner: VmRunner::new(fx.vm_pool()),
                samples: Arc::clone(&samples),
                inject: inject.clone(),
            };
            measure_sim(config, fx, runner, &reference, index)
        } else {
            let runner = SyntheticRunner::new(fx.catalog.clone());
            measure_sim(config, fx, runner, &reference, index)
        };
        let (took, n, checked) = result;
        measured += took;
        sim_ms.push(took * 1e3);
        sessions += n;
        out.attempted += n as u64;
        if let Err(e) = checked {
            out.fail(n as u64, e);
        }
    }
    let per_s = sessions as f64 / measured;
    out.set("setup_s", setup_s);
    out.set("throughput_per_s", per_s);
    out.notes.push(format!(
        "setup_s = {setup_s:.4} s (median of {} set-ups)",
        crate::setups(opts)
    ));
    if shape.name == VM {
        let mut samples = samples.lock().expect("no sample writer panics");
        samples.sort_unstable();
        let n = samples.len();
        let (p50, p99) = (
            stats::percentile_sorted(&samples, 0.5) / 1e6,
            stats::percentile_sorted(&samples, 0.99) / 1e6,
        );
        out.set("latency_p50_ms", p50);
        out.set("latency_tail_ms", p99);
        out.notes.push(format!(
            "population.sessions_per_s = {per_s:.1} 1/s ({sessions} sessions in {} simulations of {} devices)",
            sim_ms.len(),
            shape.devices
        ));
        out.notes.push(format!(
            "population.session_p50_us = {:.2} us (n={n})",
            p50 * 1e3
        ));
        out.notes.push(format!(
            "population.session_p99_us = {:.2} us (n={n}, {} beyond)",
            p99 * 1e3,
            stats::beyond(n, 0.99)
        ));
    } else {
        let n = sim_ms.len();
        let (p50, p90) = (stats::median(&sim_ms), stats::percentile(&sim_ms, 0.90));
        out.set("latency_p50_ms", p50);
        out.set("latency_tail_ms", p90);
        out.notes.push(format!(
            "synthetic.sessions_per_s = {per_s:.1} 1/s ({sessions} sessions in {n} simulations of {} devices)",
            shape.devices
        ));
        out.notes
            .push(format!("synthetic.simulation_p50_ms = {p50:.3} ms (n={n})"));
        out.notes.push(format!(
            "synthetic.simulation_p90_ms = {p90:.3} ms (n={n}, {} beyond)",
            stats::beyond(n, 0.90)
        ));
    }
    out
}

/// The traced run: a fixed number of simulations with probes on every
/// session; the first one is checkpointed after its first chunk and
/// finished from the checkpoint.
fn traced(
    opts: &Options,
    shape: &Shape,
    fx: &Fixture,
    reference: &Reference,
    order: &[usize],
    inject: &Inject,
    out: &mut Outcome,
) {
    let (mut run_ns, mut fanout_ns, mut runner_ns, mut fork_ns, mut drive_ns) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut checkpoint_ns, mut resume_ns, mut checkpoint_bytes) = (0u64, 0u64, 0u64);
    let (mut sessions, mut windows, mut live) = (0u64, 0u64, 0usize);
    let counters = bombdroid_obs::Recorder::new();
    for (k, &index) in order.iter().cycle().take(shape.traced_sims).enumerate() {
        let config = sim_config(shape.devices, sim_seed(index), opts.workers);
        let probe = Arc::new(Probe::new(&config));
        let runner = || Traced {
            synthetic: (shape.name == SYNTHETIC).then(|| SyntheticRunner::new(fx.catalog.clone())),
            pool: (shape.name == VM).then(|| fx.vm_pool()),
            probe: Arc::clone(&probe),
            inject: inject.clone(),
        };
        let mut sim = Simulator::new(config, fx.catalog.clone(), runner());
        let start = Instant::now();
        let mut resume_error = None;
        if k == 0 {
            // One checkpoint/resume cycle at the first chunk boundary.
            sim.step();
            let paused = Instant::now();
            let text = sim.checkpoint_json().expect("paused at a chunk boundary");
            let saved = Instant::now();
            let resumed = Simulator::from_checkpoint(&text, runner());
            let restored = Instant::now();
            checkpoint_ns += ns(saved - paused);
            resume_ns += ns(restored - saved);
            checkpoint_bytes += text.len() as u64;
            match resumed {
                Ok(r) => sim = r,
                Err(e) => resume_error = Some(format!("resume from checkpoint failed: {e}")),
            }
            live = live.max(run_sim(&mut sim));
            run_ns += ns(start.elapsed()) - ns(restored - paused);
        } else {
            live = live.max(run_sim(&mut sim));
            run_ns += ns(start.elapsed());
        }
        fanout_ns += probe.fanout_ns();
        runner_ns += probe.runner_ns.load(Ordering::Relaxed);
        fork_ns += probe.fork_ns.load(Ordering::Relaxed);
        drive_ns += probe.drive_ns.load(Ordering::Relaxed);
        let n = sim.sessions_run() as u64;
        sessions += n;
        windows += sim.aggregator().windows_sealed() as u64;
        counters.merge_from(&sim.aggregator().total());
        out.attempted += n;
        let checked = match resume_error {
            Some(e) => Err(e),
            None => check_sim(&sim, reference, &reference_key(index), true),
        };
        if let Err(e) = checked {
            out.fail(n, e);
        }
    }
    let workers = opts.workers;
    let runner_node = if shape.name == VM {
        Node::busy(VM_RUNNER, "VmRunner::run, step by step", runner_ns, workers)
            .child(Node::busy(
                "runtime.fork",
                "SessionPool::session (VmSnapshot::fork)",
                fork_ns,
                workers,
            ))
            .child(Node::busy(
                "runtime.drive",
                "run_session",
                drive_ns,
                workers,
            ))
    } else {
        Node::busy(SYNTHETIC_RUNNER, "SyntheticRunner::run", runner_ns, workers)
    };
    let fold_ns = run_ns.saturating_sub(fanout_ns);
    let tree = Node::wall(shape.name, "sum of Simulator::run", run_ns)
        .glue()
        .child(
            Node::wall("core.fleet", "fan-out spans of each chunk", fanout_ns).child(runner_node),
        )
        .child(Node::wall(
            "sim.fold",
            "Simulator::run outside fan-out spans",
            fold_ns,
        ));

    let instr = counters.counter_value("vm.instr_executed");
    let hits = counters.counter_value("vm.frag_cache.hits");
    let misses = counters.counter_value("vm.frag_cache.misses");
    out.set("runtime.instr", instr as f64);
    out.set(
        "runtime.events",
        counters.counter_value("vm.events_run") as f64,
    );
    out.set(
        "runtime.blobs_decrypted",
        counters.counter_value("vm.blobs_decrypted") as f64,
    );
    out.set(
        "runtime.decrypt_failures",
        counters.counter_value("vm.decrypt_failures") as f64,
    );
    if shape.name == VM {
        out.set(
            "runtime.ns_per_instr",
            drive_ns as f64 / instr.max(1) as f64,
        );
        out.set(
            "runtime.fork_us",
            fork_ns as f64 / 1e3 / sessions.max(1) as f64,
        );
        out.set(
            "runtime.drive_us",
            drive_ns as f64 / 1e3 / sessions.max(1) as f64,
        );
        out.set(
            "runtime.frag_cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
    }
    out.set("sim.fold_ms", fold_ns as f64 / 1e6);
    out.set(
        "sim.runner_us",
        runner_ns as f64 / 1e3 / sessions.max(1) as f64,
    );
    out.set("sim.sessions", sessions as f64);
    out.set(
        "core.fleet.idle_pct",
        100.0 * (1.0 - runner_ns as f64 / (run_ns as f64 * workers as f64).max(1.0)),
    );
    out.set("obs.windows_sealed", windows as f64);
    out.set("obs.live_metric_names", live as f64);
    out.set("sim.checkpoint_ms", checkpoint_ns as f64 / 1e6);
    out.set("sim.resume_ms", resume_ns as f64 / 1e6);
    out.set("sim.checkpoint_bytes", checkpoint_bytes as f64);
    out.set("bench.operations", shape.traced_sims as f64);
    out.notes.push(format!(
        "traced {} simulations of {} devices ({sessions} sessions)",
        shape.traced_sims, shape.devices
    ));
    out.trees.push((shape.name.to_string(), tree));
}

fn finished_report<R: SessionRunner>(
    config: SimConfig,
    fx: &Fixture,
    runner: R,
) -> Result<String, String> {
    let mut sim = Simulator::new(config, fx.catalog.clone(), runner);
    run_sim(&mut sim);
    sim.report_json()
}

/// The reference lines of every pool simulation: report digests with
/// tracing off and on.
pub fn reference_lines(workload: &str, workers: usize) -> Vec<String> {
    let shape = shape(workload);
    let fx = setup(shape, workers);
    let mut lines = Vec::new();
    for index in 0..shape.pool {
        let mut digests = Vec::new();
        for mode in [bombdroid_obs::ObsMode::Off, bombdroid_obs::ObsMode::Full] {
            bombdroid_obs::set_mode(mode);
            let config = sim_config(shape.devices, sim_seed(index), workers);
            let report = if shape.name == VM {
                finished_report(config, &fx, VmRunner::new(fx.vm_pool()))
            } else {
                finished_report(config, &fx, SyntheticRunner::new(fx.catalog.clone()))
            };
            digests.push(report.map_or_else(|e| format!("error:{e}"), |r| digest(r.as_bytes())));
        }
        lines.push(format!("{} {}", reference_key(index), digests.join(" ")));
    }
    lines
}
