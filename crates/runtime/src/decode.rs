//! Pre-decode pass: lowers `dex::Instr` bodies — methods, decrypted
//! fragments and detached fragments — into flat, cache-friendly
//! [`DecodedOp`] arrays, the only form the VM executes.
//!
//! Decoding happens once per method per package (lazily, behind a
//! [`OnceLock`], next to the package's lazy class digests and dispatch
//! index) and pays for itself on the first few executions:
//!
//! * register operands become pre-resolved `usize` indices into a frame
//!   whose size is known up front, so the hot loop indexes directly instead
//!   of bounds-probing and resizing;
//! * branch targets are remapped to decoded-instruction offsets;
//! * `Invoke` callees are resolved through the package's O(1) dispatch
//!   index into flat method ids, so calls skip the per-call hash lookup;
//! * constants are pre-converted into [`RtValue`]s and static-field keys
//!   are pre-rendered, so execution never calls `to_string()`;
//! * two superinstructions are fused from the plain ops, when no consumed
//!   instruction is a branch target: a `Hash` followed by an `If` on its
//!   result against a constant becomes one [`DecodedOp::HashIf`] (the
//!   bomb-trigger guard), and a straight-line run of two or more
//!   arithmetic ops becomes one [`DecodedOp::ArithChain`].
//!
//! The decoded form is an *encoding* change only. A fused op holds the
//! very [`HashStep`], [`CondBranch`] and [`ArithStep`] values the plain
//! ops hold, and the dispatch loop runs them through the same helpers, so
//! it replays the unfused sequence (charge, write, charge, branch) by
//! construction. Every branch carries the original instruction index so
//! QC-coverage telemetry keys (`eq_satisfied` / `outer_satisfied`) name
//! source pcs. The golden digests in `tests/behavior_preservation.rs` pin
//! this contract.

use crate::package::InstalledPackage;
use crate::value::RtValue;
use bombdroid_dex::{BinOp, CondOp, HostApi, Instr, MethodRef, Reg, RegOrConst, StrOp, UnOp};
use std::sync::{Arc, OnceLock};

/// Right-hand operand of a decoded conditional branch.
#[derive(Debug, Clone)]
pub(crate) enum DecodedRhs {
    /// Compare against a frame slot.
    Slot(usize),
    /// Compare against a pre-converted constant.
    Const(RtValue),
}

/// Integer right-hand operand of an [`ArithStep`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum ArithRhs {
    /// Read the operand from a frame slot (a `BinOp`).
    Slot(usize),
    /// Pre-decoded literal (a `BinOpConst`).
    Const(i64),
}

/// One integer arithmetic op, `dst = lhs <op> rhs`: a plain
/// [`DecodedOp::Arith`] or one step of a [`DecodedOp::ArithChain`].
#[derive(Debug, Clone)]
pub(crate) struct ArithStep {
    pub op: BinOp,
    pub dst: usize,
    pub lhs: usize,
    pub rhs: ArithRhs,
}

/// A salted condition hash, `dst = Hash(src | salt)`.
#[derive(Debug, Clone)]
pub(crate) struct HashStep {
    pub dst: usize,
    pub src: usize,
    pub salt: Arc<[u8]>,
}

/// A conditional branch, `if lhs <cond> rhs goto target`. `target` is a
/// decoded offset; `pc` is the *original* instruction index, kept for
/// telemetry keys.
#[derive(Debug, Clone)]
pub(crate) struct CondBranch {
    pub cond: CondOp,
    pub lhs: usize,
    pub rhs: DecodedRhs,
    pub target: usize,
    pub pc: u32,
}

/// One pre-decoded instruction. Register operands are frame-slot indices
/// guaranteed to be in-bounds for the enclosing body's frame size; branch
/// targets index into the decoded op array.
#[derive(Debug, Clone)]
pub(crate) enum DecodedOp {
    Const {
        dst: usize,
        value: RtValue,
    },
    Move {
        dst: usize,
        src: usize,
    },
    Arith(ArithStep),
    UnOp {
        op: UnOp,
        dst: usize,
        src: usize,
    },
    StrOp {
        op: StrOp,
        dst: usize,
        lhs: usize,
        rhs: Option<usize>,
    },
    If(CondBranch),
    Switch {
        src: usize,
        arms: Box<[(i64, usize)]>,
        default: usize,
    },
    Goto {
        target: usize,
    },
    Invoke {
        /// Flat method id in the [`DecodedProgram`], `None` if the callee
        /// does not resolve in this package.
        target: Option<u32>,
        /// Retained for `method_calls` telemetry and `UnknownMethod` faults.
        mref: MethodRef,
        args: Box<[usize]>,
        dst: Option<usize>,
    },
    InvokeReflect {
        name: usize,
        args: Box<[usize]>,
        dst: Option<usize>,
    },
    HostCall {
        api: HostApi,
        args: Box<[usize]>,
        dst: Option<usize>,
    },
    GetField {
        dst: usize,
        obj: usize,
        name: Arc<str>,
    },
    PutField {
        obj: usize,
        src: usize,
        name: Arc<str>,
        /// Pre-rendered `Class.field` display form for field-value profiling.
        display: Arc<str>,
    },
    GetStatic {
        dst: usize,
        key: Arc<str>,
    },
    PutStatic {
        src: usize,
        key: Arc<str>,
    },
    NewInstance {
        dst: usize,
    },
    NewArray {
        dst: usize,
        len: usize,
    },
    ArrayGet {
        dst: usize,
        arr: usize,
        idx: usize,
    },
    ArrayPut {
        arr: usize,
        idx: usize,
        src: usize,
    },
    ArrayLen {
        dst: usize,
        arr: usize,
    },
    Hash(HashStep),
    DecryptExec {
        blob: u32,
        key_src: usize,
    },
    StegoExtract {
        dst: usize,
        src: usize,
    },
    Return {
        src: Option<usize>,
    },
    Throw {
        msg: Arc<str>,
    },
    Nop,
    /// Fused `Hash` + `If` on the hash result against a constant — the
    /// bomb-trigger guard (`Hash(X|salt) == digest`). The branch's `lhs`
    /// is the hash's `dst`.
    HashIf(HashStep, CondBranch),
    /// Fused run of two or more consecutive `BinOp`/`BinOpConst`
    /// instructions — one dispatch for a whole straight-line arithmetic
    /// chain (generated hash arithmetic is dominated by these).
    ArithChain {
        steps: Box<[ArithStep]>,
    },
}

/// A fully decoded method body (or decrypted fragment body).
#[derive(Debug)]
pub(crate) struct DecodedBody {
    pub ops: Vec<DecodedOp>,
    /// Minimum frame size: one past the highest slot any op touches.
    pub frame: usize,
}

/// One method's slot in the decoded program; the body is decoded on first
/// call.
#[derive(Debug)]
pub(crate) struct DecodedMethodEntry {
    pub mref: MethodRef,
    pub params: u16,
    pub registers: u16,
    ci: usize,
    mi: usize,
    body: OnceLock<Arc<DecodedBody>>,
}

/// Per-package decoded program: a flat table of every method, indexed by
/// `class_offsets[ci] + mi`, shared by all VMs (and forked sessions)
/// booting the package.
#[derive(Debug)]
pub(crate) struct DecodedProgram {
    class_offsets: Vec<usize>,
    methods: Vec<DecodedMethodEntry>,
}

impl DecodedProgram {
    /// Builds the method table (no bodies are decoded yet).
    pub fn build(pkg: &InstalledPackage) -> Self {
        let mut class_offsets = Vec::with_capacity(pkg.dex.classes.len());
        let mut methods = Vec::new();
        for (ci, class) in pkg.dex.classes.iter().enumerate() {
            class_offsets.push(methods.len());
            for (mi, method) in class.methods.iter().enumerate() {
                methods.push(DecodedMethodEntry {
                    mref: method.method_ref(),
                    params: method.params,
                    registers: method.registers,
                    ci,
                    mi,
                    body: OnceLock::new(),
                });
            }
        }
        DecodedProgram {
            class_offsets,
            methods,
        }
    }

    /// Resolves a method reference to its flat id, with the package's
    /// shadowing semantics (via its dispatch index).
    pub fn resolve(&self, pkg: &InstalledPackage, mref: &MethodRef) -> Option<usize> {
        pkg.resolve_method(mref)
            .map(|(ci, mi)| self.class_offsets[ci] + mi)
    }

    /// The method entry for a flat id.
    pub fn entry(&self, id: usize) -> &DecodedMethodEntry {
        &self.methods[id]
    }

    /// The decoded body for a flat id, decoding it on first call.
    pub fn body(&self, pkg: &InstalledPackage, id: usize) -> &Arc<DecodedBody> {
        let entry = &self.methods[id];
        entry.body.get_or_init(|| {
            let body = decode_body(pkg, self, &pkg.dex.classes[entry.ci].methods[entry.mi].body);
            if bombdroid_obs::enabled() {
                bombdroid_obs::counter_add("vm.decode.methods", 1);
                bombdroid_obs::counter_add("vm.decode.ops", body.ops.len() as u64);
            }
            Arc::new(body)
        })
    }
}

/// Tracks a frame-slot reference while lowering, growing the frame bound.
fn slot(max: &mut usize, r: Reg) -> usize {
    let i = r.0 as usize;
    if i + 1 > *max {
        *max = i + 1;
    }
    i
}

fn slot_opt(max: &mut usize, r: Option<Reg>) -> Option<usize> {
    r.map(|r| slot(max, r))
}

fn slots(max: &mut usize, rs: &[Reg]) -> Box<[usize]> {
    rs.iter().map(|&r| slot(max, r)).collect()
}

fn rhs(max: &mut usize, r: &RegOrConst) -> DecodedRhs {
    match r {
        RegOrConst::Reg(r) => DecodedRhs::Slot(slot(max, *r)),
        RegOrConst::Const(v) => DecodedRhs::Const(v.clone().into()),
    }
}

/// Lowers one body (method or fragment) into decoded form, then fuses
/// `Hash` + `If` pairs and arithmetic runs whose absorbed instructions are
/// not branch targets.
pub(crate) fn decode_body(
    pkg: &InstalledPackage,
    prog: &DecodedProgram,
    body: &[Instr],
) -> DecodedBody {
    // An instruction that is ever jumped to cannot be absorbed into the
    // superinstruction before it.
    let mut is_target = vec![false; body.len() + 1];
    for instr in body {
        instr.for_each_branch_target(|t| is_target[t.min(body.len())] = true);
    }
    let absorbable = |pc: usize| !is_target[pc];

    let mut max = 0usize;
    let mut ops: Vec<DecodedOp> = Vec::with_capacity(body.len());
    // Original pc -> decoded index; body.len() maps to ops.len() (exit).
    let mut pc_map = vec![usize::MAX; body.len() + 1];
    let mut fused = 0u64;

    let mut lowered = body
        .iter()
        .enumerate()
        .map(|(pc, instr)| (pc, lower(&mut max, pkg, prog, instr, pc)))
        .peekable();
    while let Some((pc, op)) = lowered.next() {
        pc_map[pc] = ops.len();
        let op = match op {
            DecodedOp::Arith(first) => {
                let mut steps = vec![first];
                while let Some((_, DecodedOp::Arith(step))) =
                    lowered.next_if(|(p, op)| absorbable(*p) && matches!(op, DecodedOp::Arith(_)))
                {
                    steps.push(step);
                }
                if steps.len() == 1 {
                    DecodedOp::Arith(steps.swap_remove(0))
                } else {
                    fused += (steps.len() - 1) as u64;
                    DecodedOp::ArithChain {
                        steps: steps.into_boxed_slice(),
                    }
                }
            }
            DecodedOp::Hash(hash) => {
                let guard = lowered.next_if(|(p, op)| {
                    absorbable(*p)
                        && matches!(op, DecodedOp::If(br)
                            if br.lhs == hash.dst && matches!(br.rhs, DecodedRhs::Const(_)))
                });
                match guard {
                    Some((_, DecodedOp::If(branch))) => {
                        fused += 1;
                        DecodedOp::HashIf(hash, branch)
                    }
                    _ => DecodedOp::Hash(hash),
                }
            }
            op => op,
        };
        ops.push(op);
        // Absorbed pcs are never branch targets; map them past the fused
        // op so a malformed jump cannot land mid-op.
        let end = lowered.peek().map_or(body.len(), |(p, _)| *p);
        pc_map[pc + 1..end].fill(ops.len());
    }
    pc_map[body.len()] = ops.len();

    // Remap branch targets from original indices to decoded offsets.
    let map = |t: usize| pc_map[t.min(body.len())];
    for op in &mut ops {
        match op {
            DecodedOp::If(br) | DecodedOp::HashIf(_, br) => br.target = map(br.target),
            DecodedOp::Goto { target } => *target = map(*target),
            DecodedOp::Switch { arms, default, .. } => {
                for (_, t) in arms.iter_mut() {
                    *t = map(*t);
                }
                *default = map(*default);
            }
            _ => {}
        }
    }

    if fused > 0 && bombdroid_obs::enabled() {
        bombdroid_obs::counter_add("vm.decode.fused", fused);
    }
    DecodedBody { ops, frame: max }
}

/// Lowers one instruction (no fusion); `pc` is its original index.
fn lower(
    max: &mut usize,
    pkg: &InstalledPackage,
    prog: &DecodedProgram,
    instr: &Instr,
    pc: usize,
) -> DecodedOp {
    match instr {
        Instr::Const { dst, value } => DecodedOp::Const {
            dst: slot(max, *dst),
            value: value.clone().into(),
        },
        Instr::Move { dst, src } => DecodedOp::Move {
            dst: slot(max, *dst),
            src: slot(max, *src),
        },
        Instr::BinOp { op, dst, lhs, rhs } => DecodedOp::Arith(ArithStep {
            op: *op,
            dst: slot(max, *dst),
            lhs: slot(max, *lhs),
            rhs: ArithRhs::Slot(slot(max, *rhs)),
        }),
        Instr::BinOpConst { op, dst, lhs, rhs } => DecodedOp::Arith(ArithStep {
            op: *op,
            dst: slot(max, *dst),
            lhs: slot(max, *lhs),
            rhs: ArithRhs::Const(*rhs),
        }),
        Instr::UnOp { op, dst, src } => DecodedOp::UnOp {
            op: *op,
            dst: slot(max, *dst),
            src: slot(max, *src),
        },
        Instr::StrOp { op, dst, lhs, rhs } => DecodedOp::StrOp {
            op: *op,
            dst: slot(max, *dst),
            lhs: slot(max, *lhs),
            rhs: slot_opt(max, *rhs),
        },
        Instr::If {
            cond,
            lhs,
            rhs: if_rhs,
            target,
        } => DecodedOp::If(CondBranch {
            cond: *cond,
            lhs: slot(max, *lhs),
            rhs: rhs(max, if_rhs),
            target: *target,
            pc: pc as u32,
        }),
        Instr::Switch { src, arms, default } => DecodedOp::Switch {
            src: slot(max, *src),
            arms: arms.clone().into_boxed_slice(),
            default: *default,
        },
        Instr::Goto { target } => DecodedOp::Goto { target: *target },
        Instr::Invoke { method, args, dst } => DecodedOp::Invoke {
            target: prog.resolve(pkg, method).map(|id| id as u32),
            mref: method.clone(),
            args: slots(max, args),
            dst: slot_opt(max, *dst),
        },
        Instr::InvokeReflect { name, args, dst } => DecodedOp::InvokeReflect {
            name: slot(max, *name),
            args: slots(max, args),
            dst: slot_opt(max, *dst),
        },
        Instr::HostCall { api, args, dst } => DecodedOp::HostCall {
            api: api.clone(),
            args: slots(max, args),
            dst: slot_opt(max, *dst),
        },
        Instr::GetField { dst, obj, field } => DecodedOp::GetField {
            dst: slot(max, *dst),
            obj: slot(max, *obj),
            name: field.name.clone(),
        },
        Instr::PutField { obj, field, src } => DecodedOp::PutField {
            obj: slot(max, *obj),
            src: slot(max, *src),
            name: field.name.clone(),
            display: Arc::from(field.to_string()),
        },
        Instr::GetStatic { dst, field } => DecodedOp::GetStatic {
            dst: slot(max, *dst),
            key: Arc::from(field.to_string()),
        },
        Instr::PutStatic { field, src } => DecodedOp::PutStatic {
            src: slot(max, *src),
            key: Arc::from(field.to_string()),
        },
        Instr::NewInstance { dst, class: _ } => DecodedOp::NewInstance {
            dst: slot(max, *dst),
        },
        Instr::NewArray { dst, len } => DecodedOp::NewArray {
            dst: slot(max, *dst),
            len: slot(max, *len),
        },
        Instr::ArrayGet { dst, arr, idx } => DecodedOp::ArrayGet {
            dst: slot(max, *dst),
            arr: slot(max, *arr),
            idx: slot(max, *idx),
        },
        Instr::ArrayPut { arr, idx, src } => DecodedOp::ArrayPut {
            arr: slot(max, *arr),
            idx: slot(max, *idx),
            src: slot(max, *src),
        },
        Instr::ArrayLen { dst, arr } => DecodedOp::ArrayLen {
            dst: slot(max, *dst),
            arr: slot(max, *arr),
        },
        Instr::Hash { dst, src, salt } => DecodedOp::Hash(HashStep {
            dst: slot(max, *dst),
            src: slot(max, *src),
            salt: Arc::from(salt.as_slice()),
        }),
        Instr::DecryptExec { blob, key_src } => DecodedOp::DecryptExec {
            blob: blob.0,
            key_src: slot(max, *key_src),
        },
        Instr::StegoExtract { dst, src } => DecodedOp::StegoExtract {
            dst: slot(max, *dst),
            src: slot(max, *src),
        },
        Instr::Return { src } => DecodedOp::Return {
            src: slot_opt(max, *src),
        },
        Instr::Throw { msg } => DecodedOp::Throw {
            msg: Arc::from(msg.as_str()),
        },
        Instr::Nop => DecodedOp::Nop,
    }
}
