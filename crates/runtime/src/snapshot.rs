//! Copy-on-write session snapshots: capture a booted (and possibly warmed)
//! VM's state and mint new sessions from it in O(changed-state).
//!
//! The VM's heap (`statics`, `objects`, `arrays`) lives behind [`Arc`]s, so
//! a snapshot is a handful of refcount bumps; a forked session mutates its
//! heap through `Arc::make_mut`, cloning only what it actually touches.
//! This is the sfuzz-style reset primitive: boot once, run static init or
//! warm-up events once, then fork thousands of independent sessions — the
//! market-scale fleet simulator and coverage-guided attackers both sit on
//! top of [`SessionPool`].
//!
//! A fork from a *pristine* snapshot (taken right after [`Vm::new`], before
//! any event) is bit-identical to a cold boot with the same environment and
//! seed — which is what lets the fleet harness route every boot through a
//! pool without changing a single observable byte.

use crate::env::DeviceEnv;
use crate::package::InstalledPackage;
use crate::telemetry::Telemetry;
use crate::value::RtValue;
use crate::vm::{CovEdge, Fragment, OpMix, Vm, VmOptions};
use rand::{rngs::StdRng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// A captured session state. Cheap to clone and [`Send`]/[`Sync`]: heap
/// state is shared copy-on-write with the VM it was taken from and with
/// every session forked out of it.
#[derive(Debug, Clone)]
pub struct VmSnapshot {
    pkg: Arc<InstalledPackage>,
    env: DeviceEnv,
    opts: VmOptions,
    rng: StdRng,
    statics: Arc<HashMap<String, RtValue>>,
    objects: Arc<Vec<BTreeMap<Arc<str>, RtValue>>>,
    arrays: Arc<Vec<Vec<RtValue>>>,
    telemetry: Telemetry,
    blob_cache: HashMap<u32, Arc<Fragment>>,
    clock_ms: u64,
    instr_accum: u64,
    fuel: u64,
    killed: bool,
    frozen: bool,
    op_mix: OpMix,
    coverage: Option<BTreeSet<CovEdge>>,
}

impl Vm {
    /// Captures the complete session state: heap (by `Arc`, O(1)),
    /// telemetry, virtual clock, RNG position, and the decrypted-fragment
    /// cache.
    pub fn snapshot(&self) -> VmSnapshot {
        if bombdroid_obs::enabled() {
            bombdroid_obs::counter_add("vm.snapshot.captures", 1);
        }
        VmSnapshot {
            pkg: Arc::clone(&self.pkg),
            env: self.env.clone(),
            opts: self.opts.clone(),
            rng: self.rng.clone(),
            statics: Arc::clone(&self.statics),
            objects: Arc::clone(&self.objects),
            arrays: Arc::clone(&self.arrays),
            telemetry: self.telemetry.clone(),
            blob_cache: self.blob_cache.clone(),
            clock_ms: self.clock_ms,
            instr_accum: self.instr_accum,
            fuel: self.fuel,
            killed: self.killed,
            frozen: self.frozen,
            op_mix: self.op_mix,
            coverage: self.coverage.clone(),
        }
    }

    /// Forks a fresh session from this VM's current state — shorthand for
    /// `self.snapshot().fork(env, seed)` without materializing the
    /// intermediate snapshot.
    pub fn fork(&self, env: DeviceEnv, seed: u64) -> Vm {
        self.snapshot().fork(env, seed)
    }
}

impl VmSnapshot {
    /// Resumes the captured session exactly where it left off: same device
    /// environment, RNG position, telemetry, clock, and heap.
    pub fn resume(&self) -> Vm {
        if bombdroid_obs::enabled() {
            bombdroid_obs::counter_add("vm.fork.sessions", 1);
        }
        Vm {
            pkg: Arc::clone(&self.pkg),
            env: self.env.clone(),
            opts: self.opts.clone(),
            rng: self.rng.clone(),
            statics: Arc::clone(&self.statics),
            objects: Arc::clone(&self.objects),
            arrays: Arc::clone(&self.arrays),
            telemetry: self.telemetry.clone(),
            blob_cache: self.blob_cache.clone(),
            clock_ms: self.clock_ms,
            instr_accum: self.instr_accum,
            fuel: self.fuel,
            killed: self.killed,
            frozen: self.frozen,
            // Snapshots exist only at event boundaries, where per-event
            // call-count deltas are always drained.
            call_deltas: Vec::new(),
            called_ids: Vec::new(),
            op_mix: self.op_mix,
            coverage: self.coverage.clone(),
        }
    }

    /// Forks a *new* session from the captured state: the warmed heap,
    /// decrypted-fragment cache, and shared decoded program carry over
    /// (copy-on-write), but the session gets its own device environment,
    /// a fresh RNG seeded from `seed`, fresh telemetry, and a zeroed
    /// virtual clock. A fork of a pristine snapshot is bit-identical to
    /// `Vm::new(pkg, env, seed, opts)`.
    pub fn fork(&self, env: DeviceEnv, seed: u64) -> Vm {
        if bombdroid_obs::enabled() {
            bombdroid_obs::counter_add("vm.fork.sessions", 1);
        }
        Vm {
            pkg: Arc::clone(&self.pkg),
            env,
            opts: self.opts.clone(),
            rng: StdRng::seed_from_u64(seed),
            statics: Arc::clone(&self.statics),
            objects: Arc::clone(&self.objects),
            arrays: Arc::clone(&self.arrays),
            telemetry: Telemetry::new(),
            blob_cache: self.blob_cache.clone(),
            clock_ms: 0,
            instr_accum: 0,
            fuel: 0,
            killed: false,
            frozen: false,
            // Snapshots exist only at event boundaries, where per-event
            // call-count deltas are always drained.
            call_deltas: Vec::new(),
            called_ids: Vec::new(),
            // Like telemetry: a fork is a new session, so its execution
            // mix starts from zero.
            op_mix: OpMix::default(),
            // Coverage is per-session feedback: a fork starts empty (but
            // keeps collection enabled iff the snapshot had it on).
            coverage: self.opts.collect_coverage.then(BTreeSet::new),
        }
    }

    /// The package this snapshot executes.
    pub fn package(&self) -> &Arc<InstalledPackage> {
        &self.pkg
    }
}

/// A factory of sessions for one installed package, used by the fleet
/// harness and the market simulator to boot many devices without repeating
/// per-package work (the decoded program is built once and shared; a warmed
/// pool additionally shares post-init heap and fragment caches).
#[derive(Debug)]
pub struct SessionPool {
    pkg: Arc<InstalledPackage>,
    opts: VmOptions,
    snap: Option<VmSnapshot>,
}

impl SessionPool {
    /// A pristine pool: sessions are bit-identical to direct
    /// `Vm::new(pkg, env, seed, opts)` boots.
    pub fn new(pkg: impl Into<Arc<InstalledPackage>>, opts: VmOptions) -> Self {
        SessionPool {
            pkg: pkg.into(),
            opts,
            snap: None,
        }
    }

    /// A pool that forks every session from a warmed snapshot.
    pub fn warmed(snap: VmSnapshot) -> Self {
        SessionPool {
            pkg: Arc::clone(&snap.pkg),
            opts: snap.opts.clone(),
            snap: Some(snap),
        }
    }

    /// The pooled package.
    pub fn package(&self) -> &Arc<InstalledPackage> {
        &self.pkg
    }

    /// Mints a session for one device. Records pool reuse stats:
    /// `vm.pool.sessions` counts every mint, split into
    /// `vm.pool.forked` (warmed snapshot reused) vs `vm.pool.cold`
    /// (full boot) — the reuse ratio is forked/sessions.
    pub fn session(&self, env: DeviceEnv, seed: u64) -> Vm {
        if bombdroid_obs::enabled() {
            bombdroid_obs::counter_add("vm.pool.sessions", 1);
            bombdroid_obs::counter_add(
                if self.snap.is_some() {
                    "vm.pool.forked"
                } else {
                    "vm.pool.cold"
                },
                1,
            );
        }
        match &self.snap {
            Some(snap) => snap.fork(env, seed),
            None => Vm::new(Arc::clone(&self.pkg), env, seed, self.opts.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_session, RandomEventSource};
    use bombdroid_apk::{package_app, AppMeta, DeveloperKey, StringsXml};
    use bombdroid_dex::{
        Class, DexFile, EntryPoint, FieldRef, MethodBuilder, MethodRef, Reg, Value,
    };
    use rand::SeedableRng;

    fn fixture() -> InstalledPackage {
        let mut dex = DexFile::new();
        let mut c = Class::new("Main");
        let mut b = MethodBuilder::new("Main", "bump", 0);
        let count = FieldRef::new("Main", "count");
        b.get_static(Reg(0), count.clone());
        b.bin_const(bombdroid_dex::BinOp::Add, Reg(0), Reg(0), 1);
        b.put_static(count, Reg(0));
        b.ret(Reg(0));
        c.methods.push(b.finish());
        dex.classes.push(c);
        dex.entry_points.push(EntryPoint {
            event: Arc::from("onBump"),
            method: MethodRef::new("Main", "bump"),
            params: vec![],
            user_weight: 1.0,
        });
        let mut rng = StdRng::seed_from_u64(11);
        let dev = DeveloperKey::generate(&mut rng);
        let apk = package_app(&dex, StringsXml::new(), AppMeta::named("snap"), &dev);
        InstalledPackage::install(&apk).unwrap()
    }

    fn env(seed: u64) -> DeviceEnv {
        DeviceEnv::sample(&mut StdRng::seed_from_u64(seed))
    }

    fn drive(vm: &mut Vm, n: u64) {
        let mref = MethodRef::new("Main", "bump");
        for _ in 0..n {
            let out = vm.fire_method(&mref, vec![]);
            assert!(out.completed(), "{:?}", out.result);
        }
    }

    #[test]
    fn pristine_fork_is_bit_identical_to_cold_boot() {
        let pkg = Arc::new(fixture());
        let pool = {
            let booted = Vm::boot(Arc::clone(&pkg), env(1), 0);
            SessionPool::warmed(booted.snapshot())
        };
        let mut forked = pool.session(env(2), 99);
        let mut cold = Vm::boot(Arc::clone(&pkg), env(2), 99);
        drive(&mut forked, 5);
        drive(&mut cold, 5);
        assert_eq!(forked.telemetry(), cold.telemetry());
        assert_eq!(forked.statics_snapshot(), cold.statics_snapshot());
        assert_eq!(forked.clock_ms(), cold.clock_ms());
    }

    #[test]
    fn resume_continues_exactly_and_forks_are_isolated() {
        let pkg = Arc::new(fixture());
        let mut vm = Vm::boot(Arc::clone(&pkg), env(3), 7);
        drive(&mut vm, 10);
        let snap = vm.snapshot();

        // Resuming twice and driving identically produces identical state.
        let mut a = snap.resume();
        let mut b = snap.resume();
        drive(&mut a, 3);
        drive(&mut b, 3);
        assert_eq!(a.telemetry(), b.telemetry());
        assert_eq!(a.statics_snapshot(), b.statics_snapshot());

        // The original keeps its pre-snapshot state and mutating it does
        // not bleed into resumed sessions (copy-on-write).
        drive(&mut vm, 1);
        assert_eq!(
            vm.statics_snapshot(),
            vec![("Main.count".to_string(), "11".to_string())]
        );
        assert_eq!(
            a.statics_snapshot(),
            vec![("Main.count".to_string(), "13".to_string())]
        );

        // A fork starts fresh telemetry but inherits the warmed heap.
        let fork = snap.fork(env(4), 1);
        assert_eq!(fork.telemetry(), &Telemetry::new());
        assert_eq!(
            fork.statics_snapshot(),
            vec![("Main.count".to_string(), "10".to_string())]
        );
    }

    #[test]
    fn forked_random_sessions_match_cold_boots_end_to_end() {
        // The fleet-harness contract: routing boots through a pristine pool
        // changes nothing observable, even across full random sessions.
        let pkg = Arc::new(fixture());
        let pool = SessionPool::new(Arc::clone(&pkg), VmOptions::default());
        for seed in [1u64, 2, 3] {
            let run = |mut vm: Vm| {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut source = RandomEventSource;
                run_session(&mut vm, &mut source, &mut rng, 20, 60);
                (vm.statics_snapshot(), vm.into_telemetry())
            };
            let cold = run(Vm::boot(Arc::clone(&pkg), env(seed), seed));
            let pooled = run(pool.session(env(seed), seed));
            assert_eq!(cold, pooled, "seed {seed}");
        }
    }

    #[test]
    fn fork_shares_decoded_program_with_parent() {
        let pkg = Arc::new(fixture());
        let mut vm = Vm::boot(Arc::clone(&pkg), env(5), 1);
        drive(&mut vm, 1);
        // The decoded program lives on the package, so a fork (same Arc)
        // reuses it rather than re-decoding.
        let fork = vm.fork(env(6), 2);
        assert!(Arc::ptr_eq(&vm.pkg, &fork.pkg));
    }

    #[test]
    fn const_value_roundtrip() {
        // Guard the fixture assumptions: statics default to Int(0).
        let pkg = Arc::new(fixture());
        let mut vm = Vm::boot(pkg, env(7), 1);
        let out = vm.fire_method(&MethodRef::new("Main", "bump"), vec![]);
        assert!(out.completed());
        assert_eq!(
            vm.statics_snapshot(),
            vec![("Main.count".to_string(), Value::Int(1).to_string())]
        );
    }
}
