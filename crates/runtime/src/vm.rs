//! The virtual machine core — our stand-in for the ART runtime.
//!
//! Executes installed packages event-by-event with a deterministic cost
//! model (instructions ↦ virtual milliseconds), dispatches framework shims,
//! and implements the two bomb instructions: salted hashing and
//! decrypt-and-execute with fragment caching ("the code decryption is
//! one-time effort by caching it in memory", paper §8.4).
//!
//! The execution engine is layered across three sibling modules:
//! [`crate::decode`] lowers method bodies and fragments into flat
//! [`DecodedOp`] arrays, [`crate::exec`] holds the one dispatch loop that
//! runs every instruction, and [`crate::snapshot`] provides copy-on-write
//! session snapshots and `Vm::fork`. This module owns the VM state, the
//! cost model, and the framework shims the dispatch loop calls into.
//!
//! [`DecodedOp`]: crate::decode::DecodedOp

use crate::decode::{self, DecodedBody, DecodedProgram};
use crate::env::{DeviceEnv, EnvValue};
use crate::package::InstalledPackage;
use crate::telemetry::{ResponseEvent, ResponseKind, Telemetry};
use crate::value::RtValue;
use bombdroid_crypto::{blob, kdf};
use bombdroid_dex::{wire, BinOp, BlobId, CondOp, HostApi, Instr, MethodRef, StrOp};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// One observed control-flow edge on the decoded engine:
/// `(coverage unit, from decoded pc, to decoded pc)`.
///
/// The unit is the decoded program's flat method id for method bodies,
/// `0x8000_0000 | blob id` for decrypted fragments, and
/// [`DETACHED_COV_UNIT`] for detached fragments (each body numbers its ops
/// from zero, so without the unit tag a fragment edge could alias a
/// host-method edge). Plain tuples keep the set `Ord`-sorted, so exports
/// are deterministic.
pub type CovEdge = (u32, u32, u32);

/// Coverage unit of [`Vm::run_detached_fragment`] bodies. Method ids stay
/// below `0x8000_0000`, and blob ids index the package's blob table, so
/// a decrypted fragment reaches this unit only with 2^31 blobs.
pub const DETACHED_COV_UNIT: u32 = u32::MAX;

/// Attacker-side hooks: an analyst may "hack and modify their own Android
/// systems arbitrarily" (paper §2.2), so the VM can be instrumented when it
/// plays the attacker's device.
#[derive(Debug, Clone, Default)]
pub struct AttackerHooks {
    /// Make `getPublicKey` (direct and reflective) return these bytes.
    pub fake_public_key: Option<Vec<u8>>,
    /// Force the framework RNG to a constant (defeats SSN's probabilistic
    /// invocation).
    pub force_random: Option<i64>,
    /// Record every reflective call's resolved name (defeats SSN's name
    /// obfuscation).
    pub trace_reflection: bool,
}

/// The execution engine a VM runs its bytecode on. There is one: the
/// pre-decoded engine. The enum and [`VmOptions::engine`] remain only
/// because the benchmark package under `perfbench/` compiles against this
/// crate by path and names both; selecting it changes nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VmEngine {
    /// The pre-decoded engine: flat ops, fused superinstructions.
    #[default]
    Decoded,
}

/// VM configuration.
#[derive(Debug, Clone)]
pub struct VmOptions {
    /// Instruction budget per fired event (infinite loops hit this).
    pub fuel_per_event: u64,
    /// Instructions per virtual millisecond (the cost model's clock rate).
    pub instr_per_ms: u64,
    /// Record scalar field writes (profiling mode).
    pub record_field_values: bool,
    /// Maximum call depth.
    pub max_call_depth: usize,
    /// Share decrypted fragments across VMs in this process (fleet
    /// simulations where many devices run the same protected app). Keyed by
    /// (blob id, blob content fingerprint, derived key), so a hit proves the
    /// same ciphertext was opened with the same key — per-VM cost charging
    /// and [`Telemetry`] are identical with the cache on or off.
    pub shared_fragment_cache: bool,
    /// Execution engine; [`VmEngine::Decoded`] is the only one.
    pub engine: VmEngine,
    /// Record control-flow edges ([`CovEdge`]) from the decoded dispatch
    /// loop — the greybox fuzzer's feedback signal. Off by default: the
    /// plain dispatch path pays a single branch on an always-`None` option,
    /// and coverage recording never charges cost-model instructions, so
    /// telemetry is bit-identical with the flag on or off.
    pub collect_coverage: bool,
    /// Attacker instrumentation.
    pub hooks: AttackerHooks,
}

impl Default for VmOptions {
    fn default() -> Self {
        VmOptions {
            fuel_per_event: 300_000,
            instr_per_ms: 2_000,
            record_field_values: false,
            max_call_depth: 64,
            shared_fragment_cache: false,
            engine: VmEngine::Decoded,
            collect_coverage: false,
            hooks: AttackerHooks::default(),
        }
    }
}

/// Process-wide decrypted-fragment cache (see
/// [`VmOptions::shared_fragment_cache`]). The fingerprint covers salt and
/// ciphertext, so a tampered blob or a differently-salted protection of the
/// same app can never collide with a cached entry. The cache stores *raw*
/// fragments: decoded forms hold package-specific resolved call targets, so
/// they live in the per-VM [`Fragment`] wrapper (shared across forks of one
/// snapshot, which by construction run the same package).
type SharedFragmentKey = (u32, bombdroid_crypto::Digest256, bombdroid_crypto::Key128);

fn shared_fragments() -> &'static Mutex<HashMap<SharedFragmentKey, Arc<Vec<Instr>>>> {
    static CACHE: OnceLock<Mutex<HashMap<SharedFragmentKey, Arc<Vec<Instr>>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// A decrypted fragment as cached by one VM: the raw instruction form (the
/// process-wide cache's unit) plus its lazily decoded form.
#[derive(Debug)]
pub(crate) struct Fragment {
    pub raw: Arc<Vec<Instr>>,
    decoded: OnceLock<Arc<DecodedBody>>,
}

impl Fragment {
    /// The decoded form, lowered on first use with this package's resolved
    /// call targets.
    pub fn decoded_body(&self, pkg: &InstalledPackage, prog: &DecodedProgram) -> &Arc<DecodedBody> {
        self.decoded.get_or_init(|| {
            let body = decode::decode_body(pkg, prog, &self.raw);
            if bombdroid_obs::enabled() {
                bombdroid_obs::counter_add("vm.decode.fragments", 1);
            }
            Arc::new(body)
        })
    }
}

/// A runtime fault. Responses deliberately inject some of these into
/// repackaged apps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Null dereference.
    NullDeref,
    /// Operand had the wrong type.
    TypeError(&'static str),
    /// Integer division by zero.
    DivByZero,
    /// Array index out of bounds.
    IndexOutOfBounds,
    /// Call to a method that does not exist.
    UnknownMethod(MethodRef),
    /// Reflective call name did not resolve.
    UnknownReflectTarget(String),
    /// A `DecryptExec` failed to authenticate (wrong key or tampering).
    DecryptFailed,
    /// Decrypted bytes were not a valid fragment (tampered blob).
    FragmentDecode,
    /// Explicit `throw`.
    Thrown(String),
    /// Call depth exceeded.
    StackOverflow,
    /// Instruction budget exhausted (endless loop / freeze).
    OutOfFuel,
    /// The process was killed by a response.
    Killed,
    /// The app is frozen by a response.
    Frozen,
    /// Event index out of range or arity mismatch.
    BadEvent(String),
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::NullDeref => write!(f, "null dereference"),
            Fault::TypeError(what) => write!(f, "type error: {what}"),
            Fault::DivByZero => write!(f, "division by zero"),
            Fault::IndexOutOfBounds => write!(f, "array index out of bounds"),
            Fault::UnknownMethod(m) => write!(f, "unknown method {m}"),
            Fault::UnknownReflectTarget(n) => write!(f, "unknown reflection target {n:?}"),
            Fault::DecryptFailed => write!(f, "payload decryption failed"),
            Fault::FragmentDecode => write!(f, "decrypted fragment is malformed"),
            Fault::Thrown(m) => write!(f, "thrown: {m}"),
            Fault::StackOverflow => write!(f, "stack overflow"),
            Fault::OutOfFuel => write!(f, "event exceeded instruction budget"),
            Fault::Killed => write!(f, "process killed"),
            Fault::Frozen => write!(f, "app frozen"),
            Fault::BadEvent(m) => write!(f, "bad event: {m}"),
        }
    }
}

impl std::error::Error for Fault {}

/// Outcome of firing one event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventOutcome {
    /// `Ok(())` or the fault that ended the event.
    pub result: Result<(), Fault>,
    /// Instructions executed by this event.
    pub instr: u64,
}

impl EventOutcome {
    /// Whether the event ran to completion.
    pub fn completed(&self) -> bool {
        self.result.is_ok()
    }
}

pub(crate) enum Flow {
    Done,
    Returned(RtValue),
}

/// Deterministic execution-mix counters for one session: how often each
/// fused superinstruction dispatched, how the per-session fragment cache
/// behaved, and how many decoded method bodies were fetched. Plain `u64`
/// fields (not facade calls) so the dispatch hot loop pays one increment;
/// [`Vm::publish_obs`] folds them into the active recorder at session end.
/// Every field depends only on the session's event sequence — never on
/// scheduling — so the counters honor the fleet determinism contract.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct OpMix {
    pub(crate) hash_if: u64,
    pub(crate) binop_const_if: u64,
    pub(crate) const_if: u64,
    pub(crate) arith_chain: u64,
    pub(crate) const_array_get: u64,
    pub(crate) frag_cache_hits: u64,
    pub(crate) frag_cache_misses: u64,
    pub(crate) decode_body_fetches: u64,
}

/// The virtual machine for one app process on one device.
///
/// Heap state (`statics`, `objects`, `arrays`) lives behind [`Arc`]s with
/// copy-on-write mutation, so [`Vm::snapshot`] and [`Vm::fork`] capture and
/// resume sessions in O(changed-state) instead of deep-copying; a VM that
/// never forks pays only an uncontended refcount check per mutation.
#[derive(Debug)]
pub struct Vm {
    /// Installed package being executed. Shared: booting a second device
    /// for the same package is an [`Arc`] clone, not a bytecode copy.
    pub pkg: Arc<InstalledPackage>,
    /// Device environment.
    pub env: DeviceEnv,
    pub(crate) opts: VmOptions,
    pub(crate) rng: StdRng,
    pub(crate) statics: Arc<HashMap<String, RtValue>>,
    pub(crate) objects: Arc<Vec<BTreeMap<Arc<str>, RtValue>>>,
    pub(crate) arrays: Arc<Vec<Vec<RtValue>>>,
    pub(crate) telemetry: Telemetry,
    pub(crate) blob_cache: HashMap<u32, Arc<Fragment>>,
    pub(crate) clock_ms: u64,
    pub(crate) instr_accum: u64,
    pub(crate) fuel: u64,
    pub(crate) killed: bool,
    pub(crate) frozen: bool,
    /// Decoded-engine call counts accumulated since the last event
    /// boundary, indexed by flat decoded method id. The hot path pays a
    /// vector increment per call; [`Vm::fold_call_deltas`] moves the
    /// totals into `telemetry.method_calls` before any observer can look.
    pub(crate) call_deltas: Vec<u64>,
    /// Ids with a nonzero entry in `call_deltas`, so folding walks only
    /// the methods the event actually touched.
    pub(crate) called_ids: Vec<u32>,
    /// Deterministic per-session execution-mix counters (see [`OpMix`]).
    pub(crate) op_mix: OpMix,
    /// Observed control-flow edges, `Some` iff
    /// [`VmOptions::collect_coverage`] is set (an empty `BTreeSet` is
    /// allocation-free, so the disabled case costs nothing at runtime).
    pub(crate) coverage: Option<BTreeSet<CovEdge>>,
}

impl Vm {
    /// Boots an app process for `pkg` on a device with environment `env`.
    ///
    /// Accepts the package by value or as an [`Arc`]; fleet callers booting
    /// many devices for one package should pass `Arc` clones (or better,
    /// fork sessions from a [`crate::snapshot::SessionPool`]).
    pub fn new(
        pkg: impl Into<Arc<InstalledPackage>>,
        env: DeviceEnv,
        seed: u64,
        opts: VmOptions,
    ) -> Self {
        let pkg = pkg.into();
        let coverage = opts.collect_coverage.then(BTreeSet::new);
        Vm {
            pkg,
            env,
            opts,
            rng: StdRng::seed_from_u64(seed),
            statics: Arc::new(HashMap::new()),
            objects: Arc::new(Vec::new()),
            arrays: Arc::new(Vec::new()),
            telemetry: Telemetry::new(),
            blob_cache: HashMap::new(),
            clock_ms: 0,
            instr_accum: 0,
            fuel: 0,
            killed: false,
            frozen: false,
            call_deltas: Vec::new(),
            called_ids: Vec::new(),
            op_mix: OpMix::default(),
            coverage,
        }
    }

    /// Convenience constructor with default options.
    pub fn boot(pkg: impl Into<Arc<InstalledPackage>>, env: DeviceEnv, seed: u64) -> Self {
        Vm::new(pkg, env, seed, VmOptions::default())
    }

    /// Telemetry recorded so far.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Consumes the VM and returns its telemetry.
    pub fn into_telemetry(self) -> Telemetry {
        self.telemetry
    }

    /// Publishes this VM's telemetry-derived metrics (instruction volume,
    /// decrypt success/failure, triggered bombs, responses) into the
    /// active `bombdroid-obs` recorder. Harness code calls this once per
    /// finished run; pairing `vm.instr_executed` with the harness's
    /// `vm.drive`/`vm.session` span yields instructions-per-second, and
    /// `vm.decrypt_failures` over `vm.decrypt_failures +
    /// vm.blobs_decrypted` is the decrypt-failure rate.
    pub fn publish_obs(&self) {
        if !bombdroid_obs::enabled() {
            return;
        }
        let t = &self.telemetry;
        bombdroid_obs::counter_add("vm.runs", 1);
        bombdroid_obs::counter_add("vm.instr_executed", t.instr_executed);
        bombdroid_obs::counter_add("vm.events_run", t.events_run);
        bombdroid_obs::counter_add("vm.blobs_decrypted", t.blobs_decrypted.len() as u64);
        bombdroid_obs::counter_add("vm.decrypt_failures", t.decrypt_failures);
        bombdroid_obs::counter_add("vm.bombs_triggered", t.markers.len() as u64);
        bombdroid_obs::counter_add("vm.responses", t.responses.len() as u64);
        bombdroid_obs::counter_add("vm.piracy_reports", t.piracy_reports);
        // Execution-mix counters, skipped when zero to keep recorders
        // sparse (the skip depends only on the deterministic values, so
        // merged totals stay thread-count-independent).
        let m = &self.op_mix;
        for (name, v) in [
            ("vm.ops.hash_if", m.hash_if),
            ("vm.ops.binop_const_if", m.binop_const_if),
            ("vm.ops.const_if", m.const_if),
            ("vm.ops.arith_chain", m.arith_chain),
            ("vm.ops.const_array_get", m.const_array_get),
            ("vm.frag_cache.hits", m.frag_cache_hits),
            ("vm.frag_cache.misses", m.frag_cache_misses),
            ("vm.decode.body_fetches", m.decode_body_fetches),
        ] {
            if v > 0 {
                bombdroid_obs::counter_add(name, v);
            }
        }
    }

    /// Records one taken control-flow edge. A no-op (single `None` branch)
    /// unless [`VmOptions::collect_coverage`] was set at boot. Deliberately
    /// does **not** [`charge`](Vm::charge): the cost model, fuel, and
    /// telemetry must be bit-identical with coverage on or off, so the
    /// perf guard can assert zero overhead from the deterministic side.
    #[inline]
    pub(crate) fn cov_edge(&mut self, unit: u32, from: u32, to: u32) {
        if let Some(cov) = &mut self.coverage {
            cov.insert((unit, from, to));
        }
    }

    /// Whether this VM records coverage.
    pub fn coverage_enabled(&self) -> bool {
        self.coverage.is_some()
    }

    /// The control-flow edges observed so far, in sorted order (empty when
    /// [`VmOptions::collect_coverage`] is off).
    pub fn coverage_edges(&self) -> Vec<CovEdge> {
        match &self.coverage {
            Some(cov) => cov.iter().copied().collect(),
            None => Vec::new(),
        }
    }

    /// Takes and clears the observed edges, leaving collection enabled.
    pub fn take_coverage(&mut self) -> Vec<CovEdge> {
        match &mut self.coverage {
            Some(cov) => std::mem::take(cov).into_iter().collect(),
            None => Vec::new(),
        }
    }

    /// Current virtual time in milliseconds.
    pub fn clock_ms(&self) -> u64 {
        self.clock_ms
    }

    /// Whether a response killed the process.
    pub fn is_killed(&self) -> bool {
        self.killed
    }

    /// Whether a response froze the app.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Advances idle time (user think-time between events).
    pub fn advance_ms(&mut self, ms: u64) {
        self.clock_ms += ms;
    }

    /// A sorted snapshot of all static fields — the app's observable state
    /// (used by differential corruption probes).
    pub fn statics_snapshot(&self) -> Vec<(String, String)> {
        let mut snap: Vec<(String, String)> = self
            .statics
            .iter()
            .map(|(k, v)| (k.clone(), v.to_string()))
            .collect();
        snap.sort();
        snap
    }

    /// Executes a detached instruction fragment with a caller-supplied
    /// register file — the primitive behind *forced execution* and
    /// *slice execution* attacks (paper §2.1), where an analyst runs
    /// extracted code outside its original control flow. The body is
    /// lowered against this package and dispatched like any method body,
    /// at depth 0 under the `<detached>.fragment` method ref and coverage
    /// unit [`DETACHED_COV_UNIT`].
    pub fn run_detached_fragment(
        &mut self,
        body: &[Instr],
        mut regs: Vec<RtValue>,
    ) -> Result<Option<RtValue>, Fault> {
        self.fuel = self.opts.fuel_per_event;
        let prog = self.pkg.decoded_program();
        let decoded = decode::decode_body(&self.pkg, &prog, body);
        let mref = MethodRef::new("<detached>", "fragment");
        let flow = self.exec_decoded(&prog, &decoded, &mut regs, &mref, 0, DETACHED_COV_UNIT);
        // Fragment code may invoke package methods; account them before
        // the caller can observe telemetry.
        self.fold_call_deltas();
        match flow? {
            Flow::Returned(v) => Ok(Some(v)),
            Flow::Done => Ok(None),
        }
    }

    /// Fires entry point `index` with `args`.
    pub fn fire_entry(&mut self, index: usize, args: Vec<RtValue>) -> EventOutcome {
        let dex = self.pkg.dex.clone();
        let Some(entry) = dex.entry_points.get(index) else {
            return EventOutcome {
                result: Err(Fault::BadEvent(format!("no entry point {index}"))),
                instr: 0,
            };
        };
        self.fire_method(&entry.method.clone(), args)
    }

    /// Fires an arbitrary method as an event (also used by forced-execution
    /// attacks, which call internal methods directly).
    pub fn fire_method(&mut self, mref: &MethodRef, args: Vec<RtValue>) -> EventOutcome {
        if self.killed {
            return EventOutcome {
                result: Err(Fault::Killed),
                instr: 0,
            };
        }
        if self.frozen {
            return EventOutcome {
                result: Err(Fault::Frozen),
                instr: 0,
            };
        }
        self.fuel = self.opts.fuel_per_event;
        self.telemetry.events_run += 1;
        let before = self.telemetry.instr_executed;
        let result = self.call(mref, args, 0).map(|_| ());
        self.fold_call_deltas();
        EventOutcome {
            instr: self.telemetry.instr_executed - before,
            result,
        }
    }

    /// Folds the decoded engine's per-event call-count deltas into
    /// `telemetry.method_calls`. Runs at every event boundary (and after
    /// detached fragments), so external observers — `telemetry()`,
    /// snapshots, forks — always see fully-accounted counts: nothing can
    /// inspect a VM mid-event.
    fn fold_call_deltas(&mut self) {
        if self.called_ids.is_empty() {
            return;
        }
        let prog = self.pkg.decoded_program();
        for id in self.called_ids.drain(..) {
            let n = std::mem::take(&mut self.call_deltas[id as usize]);
            let mref = prog.entry(id as usize).mref.clone();
            *self.telemetry.method_calls.entry(mref).or_insert(0) += n;
        }
    }

    #[inline]
    pub(crate) fn charge(&mut self, cost: u64) -> Result<(), Fault> {
        self.telemetry.instr_executed += cost;
        self.instr_accum += cost;
        while self.instr_accum >= self.opts.instr_per_ms {
            self.instr_accum -= self.opts.instr_per_ms;
            self.clock_ms += 1;
        }
        if self.fuel < cost {
            self.fuel = 0;
            return Err(Fault::OutOfFuel);
        }
        self.fuel -= cost;
        Ok(())
    }

    /// Resolves and calls `mref`. The depth check comes first (a too-deep
    /// call to a missing method is a `StackOverflow`, not `UnknownMethod`).
    pub(crate) fn call(
        &mut self,
        mref: &MethodRef,
        args: Vec<RtValue>,
        depth: usize,
    ) -> Result<RtValue, Fault> {
        if depth >= self.opts.max_call_depth {
            return Err(Fault::StackOverflow);
        }
        let prog = self.pkg.decoded_program();
        match prog.resolve(&self.pkg, mref) {
            Some(id) => self.call_decoded(&prog, id, args, depth),
            None => Err(Fault::UnknownMethod(mref.clone())),
        }
    }

    /// Fetches (decrypting and caching if needed) the fragment behind
    /// `blob`, charging exactly like the historical inline sequence: cache
    /// hits charge 2, misses charge `50 + sealed/16` before key derivation.
    pub(crate) fn fragment_for(
        &mut self,
        blob: BlobId,
        key_val: RtValue,
    ) -> Result<Arc<Fragment>, Fault> {
        if let Some(f) = self.blob_cache.get(&blob.0).cloned() {
            // "the code decryption is one-time effort by caching it in
            // memory" (§8.4).
            self.op_mix.frag_cache_hits += 1;
            self.charge(2)?;
            return Ok(f);
        }
        self.op_mix.frag_cache_misses += 1;
        bombdroid_obs::flight::note("vm.frag_cache.miss", || format!("blob {}", blob.0));
        let dex = self.pkg.dex.clone();
        let b = dex.blob(blob).ok_or(Fault::TypeError("dangling blob"))?;
        self.charge(50 + b.sealed.len() as u64 / 16)?;
        let cb = key_val
            .canonical_bytes()
            .ok_or(Fault::TypeError("key source is a reference"))?;
        let key = kdf::derive_key(&cb, &b.salt);
        // With the process-wide cache on, look up (id, fingerprint, key)
        // before doing the real open: a hit proves an identical decryption
        // already succeeded, so only the redundant crypto is skipped — the
        // cost was charged above and the telemetry below records the
        // decrypt either way.
        let shared_key = self.opts.shared_fragment_cache.then(|| {
            let mut fp = bombdroid_crypto::sha256::Sha256::new();
            fp.update(&b.salt);
            fp.update(&b.sealed);
            (blob.0, fp.finalize(), key)
        });
        let shared_hit = shared_key.as_ref().and_then(|k| {
            shared_fragments()
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get(k)
                .cloned()
        });
        let raw = match shared_hit {
            Some(raw) => raw,
            None => {
                let plaintext = blob::open(&key, &b.sealed).map_err(|_| {
                    self.telemetry.decrypt_failures += 1;
                    bombdroid_obs::flight::note("vm.fault.decrypt", || {
                        format!("blob {} (wrong key or tampered ciphertext)", blob.0)
                    });
                    Fault::DecryptFailed
                })?;
                let instrs = wire::decode_fragment(&plaintext).map_err(|_| {
                    bombdroid_obs::flight::note("vm.fault.fragment_decode", || {
                        format!("blob {}", blob.0)
                    });
                    Fault::FragmentDecode
                })?;
                let raw = Arc::new(instrs);
                if let Some(k) = shared_key {
                    shared_fragments()
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .insert(k, raw.clone());
                }
                raw
            }
        };
        let f = Arc::new(Fragment {
            raw,
            decoded: OnceLock::new(),
        });
        self.blob_cache.insert(blob.0, f.clone());
        self.telemetry.blobs_decrypted.insert(blob.0);
        Ok(f)
    }

    #[inline]
    pub(crate) fn arith(op: BinOp, a: i64, b: i64) -> Result<i64, Fault> {
        Ok(match op {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    return Err(Fault::DivByZero);
                }
                a.wrapping_div(b)
            }
            BinOp::Rem => {
                if b == 0 {
                    return Err(Fault::DivByZero);
                }
                a.wrapping_rem(b)
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl((b & 63) as u32),
            BinOp::Shr => a.wrapping_shr((b & 63) as u32),
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
        })
    }

    #[inline]
    pub(crate) fn compare(cond: CondOp, a: &RtValue, b: &RtValue) -> Result<bool, Fault> {
        match cond {
            CondOp::Eq | CondOp::Ne => {
                let equal = match (a, b) {
                    (RtValue::Int(_) | RtValue::Bool(_), RtValue::Int(_) | RtValue::Bool(_)) => {
                        a.as_int() == b.as_int()
                    }
                    (RtValue::Str(x), RtValue::Str(y)) => x == y,
                    (RtValue::Bytes(x), RtValue::Bytes(y)) => x == y,
                    (RtValue::Null, RtValue::Null) => true,
                    (RtValue::Obj(x), RtValue::Obj(y)) => x == y,
                    (RtValue::Arr(x), RtValue::Arr(y)) => x == y,
                    _ => false,
                };
                Ok(if cond == CondOp::Eq { equal } else { !equal })
            }
            _ => {
                let x = a
                    .as_int()
                    .ok_or(Fault::TypeError("ordered compare on non-int"))?;
                let y = b
                    .as_int()
                    .ok_or(Fault::TypeError("ordered compare on non-int"))?;
                Ok(match cond {
                    CondOp::Lt => x < y,
                    CondOp::Le => x <= y,
                    CondOp::Gt => x > y,
                    CondOp::Ge => x >= y,
                    CondOp::Eq | CondOp::Ne => unreachable!(),
                })
            }
        }
    }

    /// String-operation core over already-fetched values (the `StrOp` arm
    /// of the dispatch loop).
    pub(crate) fn str_op_vals(
        &mut self,
        op: StrOp,
        a: RtValue,
        rhs_val: Option<RtValue>,
    ) -> Result<RtValue, Fault> {
        let s = a
            .as_str()
            .ok_or(Fault::TypeError("strop receiver not string"))?;
        let b_str = |v: &Option<RtValue>| -> Result<String, Fault> {
            match v {
                Some(RtValue::Str(s)) => Ok(s.to_string()),
                Some(RtValue::Int(i)) => Ok(i.to_string()),
                Some(RtValue::Bool(b)) => Ok(b.to_string()),
                _ => Err(Fault::TypeError("strop operand missing or non-scalar")),
            }
        };
        Ok(match op {
            StrOp::Equals => RtValue::Bool(s == b_str(&rhs_val)?),
            StrOp::StartsWith => RtValue::Bool(s.starts_with(&b_str(&rhs_val)?)),
            StrOp::EndsWith => RtValue::Bool(s.ends_with(&b_str(&rhs_val)?)),
            StrOp::Contains => RtValue::Bool(s.contains(&b_str(&rhs_val)?)),
            StrOp::Concat => RtValue::Str(Arc::from(format!("{s}{}", b_str(&rhs_val)?))),
            StrOp::Length => RtValue::Int(s.chars().count() as i64),
            StrOp::HashCode => {
                // Java's String.hashCode.
                let mut h: i32 = 0;
                for c in s.chars() {
                    h = h.wrapping_mul(31).wrapping_add(c as i32);
                }
                RtValue::Int(h as i64)
            }
            StrOp::CharAt => {
                let idx = rhs_val
                    .as_ref()
                    .and_then(|v| v.as_int())
                    .ok_or(Fault::TypeError("charAt index not int"))?;
                let c = s
                    .chars()
                    .nth(usize::try_from(idx).map_err(|_| Fault::IndexOutOfBounds)?)
                    .ok_or(Fault::IndexOutOfBounds)?;
                RtValue::Int(c as i64)
            }
            StrOp::ToUpper => RtValue::Str(Arc::from(s.to_uppercase())),
            StrOp::Rot13 => {
                let rotated: String = s
                    .chars()
                    .map(|c| match c {
                        'a'..='z' => (((c as u8 - b'a' + 13) % 26) + b'a') as char,
                        'A'..='Z' => (((c as u8 - b'A' + 13) % 26) + b'A') as char,
                        other => other,
                    })
                    .collect();
                RtValue::Str(Arc::from(rotated))
            }
            StrOp::Substring => {
                let idx = rhs_val
                    .as_ref()
                    .and_then(|v| v.as_int())
                    .ok_or(Fault::TypeError("substring index not int"))?;
                let idx = usize::try_from(idx).map_err(|_| Fault::IndexOutOfBounds)?;
                if idx > s.chars().count() {
                    return Err(Fault::IndexOutOfBounds);
                }
                RtValue::Str(Arc::from(s.chars().skip(idx).collect::<String>()))
            }
        })
    }

    /// Resolves an array element for read or write; `arr_val`/`idx_val`
    /// were fetched by the caller (fault order: array type, index type,
    /// dangling array, bounds).
    pub(crate) fn array_slot_vals(
        &mut self,
        arr_val: &RtValue,
        idx_val: &RtValue,
    ) -> Result<&mut RtValue, Fault> {
        let id = match arr_val {
            RtValue::Arr(id) => *id,
            RtValue::Null => return Err(Fault::NullDeref),
            _ => return Err(Fault::TypeError("array op on non-array")),
        };
        let i = idx_val
            .as_int()
            .ok_or(Fault::TypeError("array index not int"))?;
        let a = Arc::make_mut(&mut self.arrays)
            .get_mut(id)
            .ok_or(Fault::TypeError("dangling array"))?;
        let i = usize::try_from(i).map_err(|_| Fault::IndexOutOfBounds)?;
        a.get_mut(i).ok_or(Fault::IndexOutOfBounds)
    }

    pub(crate) fn reflect_call(&mut self, name: &str, args: &[RtValue]) -> Result<RtValue, Fault> {
        match name {
            "getPublicKey" => self.host_call(&HostApi::GetPublicKey, args),
            "getManifestDigest" => self.host_call(&HostApi::GetManifestDigest, args),
            "codeDigest" => self.host_call(&HostApi::CodeDigest, args),
            "uptimeMillis" => self.host_call(&HostApi::TimeMillis, args),
            other => Err(Fault::UnknownReflectTarget(other.to_string())),
        }
    }

    pub(crate) fn host_call(&mut self, api: &HostApi, args: &[RtValue]) -> Result<RtValue, Fault> {
        match api {
            HostApi::GetPublicKey => {
                if let Some(fake) = &self.opts.hooks.fake_public_key {
                    return Ok(RtValue::Bytes(Arc::from(fake.as_slice())));
                }
                Ok(RtValue::Bytes(Arc::from(
                    self.pkg.cert_public_key.as_slice(),
                )))
            }
            HostApi::GetManifestDigest => {
                let entry = args
                    .first()
                    .and_then(|v| v.as_str())
                    .ok_or(Fault::TypeError("manifest entry name not string"))?;
                Ok(match self.pkg.manifest_digests.get(entry) {
                    Some(d) => RtValue::Bytes(Arc::from(&d[..])),
                    None => RtValue::Null,
                })
            }
            HostApi::GetResourceString => {
                let key = args
                    .first()
                    .and_then(|v| v.as_str())
                    .ok_or(Fault::TypeError("resource key not string"))?;
                Ok(match self.pkg.resources.get(key) {
                    Some(s) => RtValue::Str(Arc::from(s.as_str())),
                    None => RtValue::Null,
                })
            }
            HostApi::CodeDigest => {
                let class = args
                    .first()
                    .and_then(|v| v.as_str())
                    .ok_or(Fault::TypeError("class name not string"))?;
                Ok(match self.pkg.class_digest(class) {
                    Some(d) => RtValue::Bytes(Arc::from(&d[..])),
                    None => RtValue::Null,
                })
            }
            HostApi::EnvQuery(key) => Ok(match self.env.query(*key) {
                EnvValue::Str(s) => RtValue::Str(Arc::from(s.as_str())),
                EnvValue::Int(i) => RtValue::Int(i),
            }),
            HostApi::Sensor(kind) => {
                let v = self.env.sensor_sample(*kind, &mut self.rng);
                Ok(RtValue::Int(v))
            }
            HostApi::TimeMillis => Ok(RtValue::Int(self.clock_ms as i64)),
            HostApi::WallClockMinute => {
                let minute = (self.env.start_minute as u64 + self.clock_ms / 60_000) % 1_440;
                Ok(RtValue::Int(minute as i64))
            }
            HostApi::Random => {
                if let Some(forced) = self.opts.hooks.force_random {
                    return Ok(RtValue::Int(forced));
                }
                let bound = args.first().and_then(|v| v.as_int()).unwrap_or(i64::MAX);
                if bound <= 0 {
                    return Ok(RtValue::Int(0));
                }
                Ok(RtValue::Int(self.rng.gen_range(0..bound)))
            }
            HostApi::Log => {
                let line: Vec<String> = args.iter().map(|v| v.to_string()).collect();
                self.telemetry.logs.push(line.join(" "));
                Ok(RtValue::Null)
            }
            HostApi::UiNotify(kind) => {
                let at = self.clock_ms;
                self.telemetry.responses.push(ResponseEvent {
                    kind: ResponseKind::UserWarned,
                    at_ms: at,
                });
                let _ = kind;
                Ok(RtValue::Null)
            }
            HostApi::ReportPiracy => {
                self.telemetry.piracy_reports += 1;
                Ok(RtValue::Null)
            }
            HostApi::LeakMemory => {
                self.telemetry.leaked_bytes += 1 << 20;
                let at = self.clock_ms;
                self.telemetry.responses.push(ResponseEvent {
                    kind: ResponseKind::MemoryLeaked,
                    at_ms: at,
                });
                Ok(RtValue::Null)
            }
            HostApi::KillProcess => {
                self.killed = true;
                let at = self.clock_ms;
                self.telemetry.responses.push(ResponseEvent {
                    kind: ResponseKind::Killed,
                    at_ms: at,
                });
                Err(Fault::Killed)
            }
            HostApi::Freeze => {
                self.frozen = true;
                let at = self.clock_ms;
                self.telemetry.responses.push(ResponseEvent {
                    kind: ResponseKind::Frozen,
                    at_ms: at,
                });
                // A frozen app burns its whole event budget spinning.
                self.clock_ms += self.fuel / self.opts.instr_per_ms;
                self.fuel = 0;
                Err(Fault::Frozen)
            }
            HostApi::NullOutField => {
                for v in Arc::make_mut(&mut self.statics).values_mut() {
                    *v = RtValue::Null;
                }
                let at = self.clock_ms;
                self.telemetry.responses.push(ResponseEvent {
                    kind: ResponseKind::FieldNulled,
                    at_ms: at,
                });
                Ok(RtValue::Null)
            }
            HostApi::SleepMs => {
                let ms = args.first().and_then(|v| v.as_int()).unwrap_or(0).max(0);
                self.clock_ms += ms as u64;
                Ok(RtValue::Null)
            }
            HostApi::Marker(id) => {
                if self.telemetry.markers.insert(*id) && self.telemetry.first_marker_ms.is_none() {
                    self.telemetry.first_marker_ms = Some(self.clock_ms);
                }
                Ok(RtValue::Null)
            }
        }
    }
}
