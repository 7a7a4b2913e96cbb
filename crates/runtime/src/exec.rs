//! The dispatch loop: every instruction the VM runs — method bodies,
//! decrypted fragments, detached fragments — goes through
//! [`Vm::exec_decoded`].
//!
//! The two superinstructions are built from the plain ops: `ArithChain`
//! runs `Vm::arith_step` once per step, and `HashIf` runs
//! `Vm::hash_step` then `Vm::branch`, the same helpers the plain
//! `Arith`, `Hash` and `If` arms call. So a fused op makes the same
//! `charge` calls in the same order, with the same fault precedence and
//! the same telemetry writes keyed on original instruction indices, as
//! the ops it replaces. The golden digests in
//! `tests/behavior_preservation.rs` pin that contract.

use crate::decode::{
    ArithRhs, ArithStep, CondBranch, DecodedBody, DecodedOp, DecodedProgram, DecodedRhs, HashStep,
};
use crate::value::RtValue;
use crate::vm::{Fault, Flow, Vm};
use bombdroid_crypto::kdf;
use bombdroid_dex::{BlobId, CondOp, MethodRef, UnOp};
use std::collections::BTreeMap;
use std::sync::Arc;

impl Vm {
    /// Calls a resolved method on the decoded engine. The caller has
    /// already depth-checked and resolved `id`.
    pub(crate) fn call_decoded(
        &mut self,
        prog: &Arc<DecodedProgram>,
        id: usize,
        args: Vec<RtValue>,
        depth: usize,
    ) -> Result<RtValue, Fault> {
        let entry = prog.entry(id);
        if args.len() != entry.params as usize {
            return Err(Fault::BadEvent(format!(
                "{}: expected {} args, got {}",
                entry.mref,
                entry.params,
                args.len()
            )));
        }
        let mref = entry.mref.clone();
        let registers = entry.registers as usize;
        // Per-call accounting goes to a flat id-indexed delta table; the
        // event boundary folds it into `telemetry.method_calls` (one map
        // entry per *distinct* method instead of per call — see
        // `Vm::fold_call_deltas`).
        if self.call_deltas.len() <= id {
            self.call_deltas.resize(id + 1, 0);
        }
        if self.call_deltas[id] == 0 {
            self.called_ids.push(id as u32);
        }
        self.call_deltas[id] += 1;
        self.op_mix.decode_body_fetches += 1;
        let body = Arc::clone(prog.body(&self.pkg, id));
        let mut regs = vec![RtValue::Null; body.frame.max(registers).max(args.len())];
        for (i, a) in args.into_iter().enumerate() {
            regs[i] = a;
        }
        self.charge(5)?;
        match self.exec_decoded(prog, &body, &mut regs, &mref, depth, id as u32)? {
            Flow::Returned(v) => Ok(v),
            Flow::Done => Ok(RtValue::Null),
        }
    }

    /// One integer arithmetic op, plain or an `ArithChain` step: charge,
    /// lhs read, rhs read (an lhs fault wins), compute, write. Fuel
    /// exhaustion and type/div faults therefore land mid-chain at the same
    /// instruction they would without fusion.
    #[inline(always)]
    fn arith_step(&mut self, regs: &mut [RtValue], step: &ArithStep) -> Result<(), Fault> {
        self.charge(1)?;
        let a = regs[step.lhs]
            .as_int()
            .ok_or(Fault::TypeError("binop lhs not int"))?;
        let b = match step.rhs {
            ArithRhs::Slot(s) => regs[s]
                .as_int()
                .ok_or(Fault::TypeError("binop rhs not int"))?,
            ArithRhs::Const(c) => c,
        };
        regs[step.dst] = RtValue::Int(Self::arith(step.op, a, b)?);
        Ok(())
    }

    /// One salted condition hash, plain or the first half of a `HashIf`.
    #[inline(always)]
    fn hash_step(&mut self, regs: &mut [RtValue], hash: &HashStep) -> Result<(), Fault> {
        // Hashing ≤ 16 input bytes is a handful of SHA-1 compressions —
        // cheap next to interpreter dispatch.
        self.charge(4)?;
        let cb = regs[hash.src]
            .canonical_bytes()
            .ok_or(Fault::TypeError("hash of reference value"))?;
        let digest = kdf::condition_hash(&cb, &hash.salt);
        regs[hash.dst] = RtValue::Bytes(Arc::from(&digest[..]));
        Ok(())
    }

    /// One conditional branch at decoded offset `pc`, plain or the second
    /// half of a `HashIf` (whose operand reads then see the hash just
    /// written): charge, compare, QC-coverage telemetry keyed on the
    /// source pc, coverage edge. Returns the next decoded offset.
    #[inline(always)]
    fn branch(
        &mut self,
        regs: &[RtValue],
        br: &CondBranch,
        pc: usize,
        mref: &MethodRef,
        cov_unit: u32,
    ) -> Result<usize, Fault> {
        self.charge(1)?;
        let a = &regs[br.lhs];
        let (b, rhs_is_const) = match &br.rhs {
            DecodedRhs::Slot(s) => (&regs[*s], false),
            DecodedRhs::Const(v) => (v, true),
        };
        let taken = Self::compare(br.cond, a, b)?;
        // QC-coverage telemetry: an equality on a constant that held.
        // (`Eq` taken, or `Ne` fall-through.)
        let eq_held = match br.cond {
            CondOp::Eq => taken,
            CondOp::Ne => !taken,
            _ => false,
        };
        if eq_held && rhs_is_const {
            let src_pc = br.pc as usize;
            self.telemetry.eq_satisfied.insert((mref.clone(), src_pc));
            if matches!(a, RtValue::Bytes(_)) {
                self.telemetry
                    .outer_satisfied
                    .insert((mref.clone(), src_pc));
            }
        }
        let next = if taken { br.target } else { pc + 1 };
        self.cov_edge(cov_unit, pc as u32, next as u32);
        Ok(next)
    }

    /// The decoded dispatch loop. `regs` is grown to the body's frame size
    /// on entry (fragments execute in their caller's frame), so every slot
    /// index is in-bounds and reads of never-written slots yield `Null`.
    ///
    /// `cov_unit` names the body for coverage edges (see
    /// [`crate::CovEdge`]). Only the control-flow arms record edges, and
    /// only when [`crate::VmOptions::collect_coverage`] is on; coverage
    /// never charges, so the cost model is unaffected.
    pub(crate) fn exec_decoded(
        &mut self,
        prog: &Arc<DecodedProgram>,
        body: &DecodedBody,
        regs: &mut Vec<RtValue>,
        mref: &MethodRef,
        depth: usize,
        cov_unit: u32,
    ) -> Result<Flow, Fault> {
        if regs.len() < body.frame {
            regs.resize(body.frame, RtValue::Null);
        }
        let ops = &body.ops[..];
        let mut pc = 0usize;
        while let Some(op) = ops.get(pc) {
            let mut next = pc + 1;
            match op {
                DecodedOp::Const { dst, value } => {
                    self.charge(1)?;
                    regs[*dst] = value.clone();
                }
                DecodedOp::Move { dst, src } => {
                    self.charge(1)?;
                    regs[*dst] = regs[*src].clone();
                }
                DecodedOp::Arith(step) => self.arith_step(regs, step)?,
                DecodedOp::UnOp { op, dst, src } => {
                    self.charge(1)?;
                    let a = regs[*src]
                        .as_int()
                        .ok_or(Fault::TypeError("unop operand not int"))?;
                    let v = match op {
                        UnOp::Neg => a.wrapping_neg(),
                        UnOp::Not => !a,
                        UnOp::Abs => a.wrapping_abs(),
                    };
                    regs[*dst] = RtValue::Int(v);
                }
                DecodedOp::StrOp { op, dst, lhs, rhs } => {
                    self.charge(2)?;
                    let a = regs[*lhs].clone();
                    let rhs_val = rhs.map(|r| regs[r].clone());
                    let v = self.str_op_vals(*op, a, rhs_val)?;
                    regs[*dst] = v;
                }
                DecodedOp::If(br) => next = self.branch(regs, br, pc, mref, cov_unit)?,
                DecodedOp::Switch { src, arms, default } => {
                    self.charge(1)?;
                    let v = regs[*src]
                        .as_int()
                        .ok_or(Fault::TypeError("switch operand not int"))?;
                    next = arms
                        .iter()
                        .find(|(case, _)| *case == v)
                        .map(|(_, t)| *t)
                        .unwrap_or(*default);
                    self.cov_edge(cov_unit, pc as u32, next as u32);
                }
                DecodedOp::Goto { target } => {
                    self.charge(1)?;
                    next = *target;
                    self.cov_edge(cov_unit, pc as u32, next as u32);
                }
                DecodedOp::Invoke {
                    target,
                    mref: callee,
                    args,
                    dst,
                } => {
                    let argv: Vec<RtValue> = args.iter().map(|&r| regs[r].clone()).collect();
                    // Depth is checked before resolution: a too-deep call
                    // to a missing method is a StackOverflow.
                    if depth + 1 >= self.opts.max_call_depth {
                        return Err(Fault::StackOverflow);
                    }
                    let Some(id) = target else {
                        return Err(Fault::UnknownMethod(callee.clone()));
                    };
                    let ret = self.call_decoded(prog, *id as usize, argv, depth + 1)?;
                    if let Some(d) = dst {
                        regs[*d] = ret;
                    }
                }
                DecodedOp::InvokeReflect { name, args, dst } => {
                    self.charge(10)?;
                    let target = regs[*name]
                        .as_str()
                        .ok_or(Fault::TypeError("reflect name not string"))?
                        .to_string();
                    if self.opts.hooks.trace_reflection {
                        let at = self.clock_ms;
                        self.telemetry.reflection_trace.push((target.clone(), at));
                    }
                    let argv: Vec<RtValue> = args.iter().map(|&r| regs[r].clone()).collect();
                    let ret = self.reflect_call(&target, &argv)?;
                    if let Some(d) = dst {
                        regs[*d] = ret;
                    }
                }
                DecodedOp::HostCall { api, args, dst } => {
                    self.charge(10)?;
                    let argv: Vec<RtValue> = args.iter().map(|&r| regs[r].clone()).collect();
                    let ret = self.host_call(api, &argv)?;
                    if let Some(d) = dst {
                        regs[*d] = ret;
                    }
                }
                DecodedOp::GetField { dst, obj, name } => {
                    self.charge(1)?;
                    let v = match &regs[*obj] {
                        RtValue::Obj(id) => self
                            .objects
                            .get(*id)
                            .and_then(|o| o.get(name).cloned())
                            .unwrap_or(RtValue::Null),
                        RtValue::Null => return Err(Fault::NullDeref),
                        _ => return Err(Fault::TypeError("iget on non-object")),
                    };
                    regs[*dst] = v;
                }
                DecodedOp::PutField {
                    obj,
                    src,
                    name,
                    display,
                } => {
                    self.charge(1)?;
                    let v = regs[*src].clone();
                    if self.opts.record_field_values {
                        if let Some(c) = v.to_const() {
                            let at = self.clock_ms;
                            self.telemetry.record_field_ref(display, at, c);
                        }
                    }
                    match &regs[*obj] {
                        RtValue::Obj(id) => {
                            let id = *id;
                            let o = Arc::make_mut(&mut self.objects)
                                .get_mut(id)
                                .ok_or(Fault::TypeError("dangling object"))?;
                            o.insert(name.clone(), v);
                        }
                        RtValue::Null => return Err(Fault::NullDeref),
                        _ => return Err(Fault::TypeError("iput on non-object")),
                    }
                }
                DecodedOp::GetStatic { dst, key } => {
                    self.charge(1)?;
                    // Unwritten statics read as 0, matching Java's default
                    // initialization of numeric static fields.
                    let v = self.statics.get(&**key).cloned().unwrap_or(RtValue::Int(0));
                    regs[*dst] = v;
                }
                DecodedOp::PutStatic { src, key } => {
                    self.charge(1)?;
                    let v = regs[*src].clone();
                    if self.opts.record_field_values {
                        if let Some(c) = v.to_const() {
                            let at = self.clock_ms;
                            self.telemetry.record_field_ref(key, at, c);
                        }
                    }
                    let statics = Arc::make_mut(&mut self.statics);
                    match statics.get_mut(&**key) {
                        Some(slot) => *slot = v,
                        None => {
                            statics.insert(key.to_string(), v);
                        }
                    }
                }
                DecodedOp::NewInstance { dst } => {
                    self.charge(2)?;
                    let objects = Arc::make_mut(&mut self.objects);
                    let id = objects.len();
                    objects.push(BTreeMap::new());
                    regs[*dst] = RtValue::Obj(id);
                }
                DecodedOp::NewArray { dst, len } => {
                    self.charge(2)?;
                    let n = regs[*len]
                        .as_int()
                        .ok_or(Fault::TypeError("array length not int"))?;
                    if !(0..=1_000_000).contains(&n) {
                        return Err(Fault::IndexOutOfBounds);
                    }
                    let arrays = Arc::make_mut(&mut self.arrays);
                    let id = arrays.len();
                    arrays.push(vec![RtValue::Int(0); n as usize]);
                    regs[*dst] = RtValue::Arr(id);
                }
                DecodedOp::ArrayGet { dst, arr, idx } => {
                    self.charge(1)?;
                    let arr_val = regs[*arr].clone();
                    let idx_val = regs[*idx].clone();
                    let v = self.array_slot_vals(&arr_val, &idx_val)?.clone();
                    regs[*dst] = v;
                }
                DecodedOp::ArrayPut { arr, idx, src } => {
                    self.charge(1)?;
                    let v = regs[*src].clone();
                    let arr_val = regs[*arr].clone();
                    let idx_val = regs[*idx].clone();
                    *self.array_slot_vals(&arr_val, &idx_val)? = v;
                }
                DecodedOp::ArrayLen { dst, arr } => {
                    self.charge(1)?;
                    let n = match &regs[*arr] {
                        RtValue::Arr(id) => self
                            .arrays
                            .get(*id)
                            .ok_or(Fault::TypeError("dangling array"))?
                            .len(),
                        RtValue::Null => return Err(Fault::NullDeref),
                        _ => return Err(Fault::TypeError("array-length on non-array")),
                    };
                    regs[*dst] = RtValue::Int(n as i64);
                }
                DecodedOp::Hash(hash) => self.hash_step(regs, hash)?,
                DecodedOp::DecryptExec { blob, key_src } => {
                    let key_val = regs[*key_src].clone();
                    let fragment = self.fragment_for(BlobId(*blob), key_val)?;
                    let fbody = Arc::clone(fragment.decoded_body(&self.pkg, prog));
                    // Fragment pcs restart at zero; tag their coverage unit
                    // with the blob id so they never alias method edges.
                    let funit = 0x8000_0000 | *blob;
                    if let Flow::Returned(v) =
                        self.exec_decoded(prog, &fbody, regs, mref, depth, funit)?
                    {
                        return Ok(Flow::Returned(v));
                    }
                }
                DecodedOp::StegoExtract { dst, src } => {
                    self.charge(5)?;
                    let v = match regs[*src].as_str() {
                        Some(cover) => match bombdroid_apk::stego::extract(cover) {
                            Some(bytes) => RtValue::Bytes(Arc::from(bytes.as_slice())),
                            None => RtValue::Null,
                        },
                        None => RtValue::Null,
                    };
                    regs[*dst] = v;
                }
                DecodedOp::Return { src } => {
                    self.charge(1)?;
                    let v = src.map(|r| regs[r].clone()).unwrap_or(RtValue::Null);
                    return Ok(Flow::Returned(v));
                }
                DecodedOp::Throw { msg } => {
                    self.charge(1)?;
                    return Err(Fault::Thrown(msg.to_string()));
                }
                DecodedOp::Nop => {
                    self.charge(1)?;
                }
                DecodedOp::HashIf(hash, br) => {
                    self.op_mix.hash_if += 1;
                    self.hash_step(regs, hash)?;
                    next = self.branch(regs, br, pc, mref, cov_unit)?;
                }
                DecodedOp::ArithChain { steps } => {
                    self.op_mix.arith_chain += 1;
                    for step in steps.iter() {
                        self.arith_step(regs, step)?;
                    }
                }
            }
            pc = next;
        }
        Ok(Flow::Done)
    }
}
