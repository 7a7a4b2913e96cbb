//! Deterministic binary encoding — the `classes.dex` byte format.
//!
//! Used for:
//! * packaging into APK entries (and therefore MANIFEST.MF digests),
//! * the paper's *code size increase* measurement (§8.4),
//! * sealing decrypted-fragment plaintext inside [`EncryptedBlob`]s,
//! * per-class code digests for the code-snippet-scanning detection method.
//!
//! The encoding is deliberately simple (LE fixed-width lengths, one tag byte
//! per construct) but complete and round-trip tested, including a fuzz-style
//! property test.
//!
//! [`EncryptedBlob`]: crate::dex_file::EncryptedBlob

use crate::class::{Class, Field, FieldKind, Method};
use crate::dex_file::{BlobId, DexFile, EncryptedBlob, EntryPoint, ParamDomain};
use crate::instr::{
    BinOp, CondOp, EnvKey, HostApi, Instr, Reg, RegOrConst, SensorKind, StrOp, UiKind, UnOp,
};
use crate::value::{ClassName, FieldRef, MethodRef, Value};
use bombdroid_crypto::{sha256, Digest256};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"BDEX0001";

/// Error produced when decoding malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before a complete construct was read.
    UnexpectedEof {
        /// Byte offset at which more data was needed.
        at: usize,
    },
    /// A tag byte did not correspond to any known construct.
    BadTag {
        /// Offending tag value.
        tag: u8,
        /// What was being decoded.
        context: &'static str,
    },
    /// The file did not start with the `BDEX0001` magic.
    BadMagic,
    /// A string was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { at } => write!(f, "unexpected end of input at offset {at}"),
            WireError::BadTag { tag, context } => {
                write!(f, "invalid tag byte {tag:#04x} while decoding {context}")
            }
            WireError::BadMagic => write!(f, "missing BDEX0001 magic header"),
            WireError::BadUtf8 => write!(f, "string is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------- writer --

/// Where encoded bytes go: a real buffer, or a counter that only measures.
/// Every `write_*` function is generic over the sink, so the byte format
/// and the length computation can never drift apart.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
    fn put_byte(&mut self, b: u8);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
    fn put_byte(&mut self, b: u8) {
        self.push(b);
    }
}

/// Counts bytes without storing them — exact encoded lengths with no
/// allocation or copying.
#[derive(Default)]
struct Counter(usize);

impl Sink for Counter {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
    fn put_byte(&mut self, _b: u8) {
        self.0 += 1;
    }
}

#[derive(Default)]
struct Writer<S = Vec<u8>> {
    buf: S,
}

impl<S: Sink> Writer<S> {
    fn raw(&mut self, b: &[u8]) {
        self.buf.put(b);
    }
    fn u8(&mut self, v: u8) {
        self.buf.put_byte(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.put(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.put(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.put(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.put(&v.to_le_bytes());
    }
    fn usize32(&mut self, v: usize) {
        self.u32(u32::try_from(v).expect("construct too large for wire format"));
    }
    fn bytes(&mut self, b: &[u8]) {
        self.usize32(b.len());
        self.buf.put(b);
    }
    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
    fn reg(&mut self, r: Reg) {
        self.u16(r.0);
    }
    fn opt_reg(&mut self, r: Option<Reg>) {
        match r {
            None => self.u8(0),
            Some(r) => {
                self.u8(1);
                self.reg(r);
            }
        }
    }
    fn regs(&mut self, rs: &[Reg]) {
        self.usize32(rs.len());
        for r in rs {
            self.reg(*r);
        }
    }
}

// ---------------------------------------------------------------- reader --

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Decode-side string interner, keyed on borrowed input slices. Class,
    /// method, and field names repeat throughout a DEX image; interning
    /// collapses each distinct name to one `Arc<str>` allocation and makes
    /// every later occurrence a hash lookup plus a refcount bump — the
    /// single-pass string-table read that pays for most of the decode
    /// speedup (decoded structures also end up sharing name storage).
    strings: HashMap<&'a [u8], Arc<str>>,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            strings: HashMap::new(),
        }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::UnexpectedEof { at: self.pos });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    /// Bytes left to read: an upper bound for any length prefix, so a
    /// forged count can never size an allocation past the input.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn len(&mut self) -> Result<usize, WireError> {
        Ok(self.u32()? as usize)
    }
    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.len()?;
        Ok(self.take(n)?.to_vec())
    }
    fn str(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.bytes()?).map_err(|_| WireError::BadUtf8)
    }
    fn arc_str(&mut self) -> Result<Arc<str>, WireError> {
        let n = self.len()?;
        let raw = self.take(n)?;
        if let Some(s) = self.strings.get(raw) {
            return Ok(Arc::clone(s));
        }
        let s = std::str::from_utf8(raw).map_err(|_| WireError::BadUtf8)?;
        let arc: Arc<str> = Arc::from(s);
        self.strings.insert(raw, Arc::clone(&arc));
        Ok(arc)
    }
    fn reg(&mut self) -> Result<Reg, WireError> {
        Ok(Reg(self.u16()?))
    }
    fn opt_reg(&mut self) -> Result<Option<Reg>, WireError> {
        Ok(match self.u8()? {
            0 => None,
            _ => Some(self.reg()?),
        })
    }
    fn regs(&mut self) -> Result<Vec<Reg>, WireError> {
        let n = self.len()?;
        (0..n).map(|_| self.reg()).collect()
    }
}

// ---------------------------------------------------------------- values --

fn write_value<S: Sink>(w: &mut Writer<S>, v: &Value) {
    match v {
        Value::Null => w.u8(0),
        Value::Bool(b) => {
            w.u8(1);
            w.u8(*b as u8);
        }
        Value::Int(i) => {
            w.u8(2);
            w.i64(*i);
        }
        Value::Str(s) => {
            w.u8(3);
            w.str(s);
        }
        Value::Bytes(b) => {
            w.u8(4);
            w.bytes(b);
        }
    }
}

fn read_value(r: &mut Reader) -> Result<Value, WireError> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Bool(r.u8()? != 0),
        2 => Value::Int(r.i64()?),
        3 => Value::Str(r.arc_str()?),
        4 => Value::Bytes(Arc::from(r.bytes()?)),
        tag => {
            return Err(WireError::BadTag {
                tag,
                context: "value",
            })
        }
    })
}

fn write_method_ref<S: Sink>(w: &mut Writer<S>, m: &MethodRef) {
    w.str(m.class.as_str());
    w.str(&m.name);
}

fn read_method_ref(r: &mut Reader) -> Result<MethodRef, WireError> {
    let class = ClassName(r.arc_str()?);
    let name = r.arc_str()?;
    Ok(MethodRef { class, name })
}

fn write_field_ref<S: Sink>(w: &mut Writer<S>, f: &FieldRef) {
    w.str(f.class.as_str());
    w.str(&f.name);
}

fn read_field_ref(r: &mut Reader) -> Result<FieldRef, WireError> {
    let class = ClassName(r.arc_str()?);
    let name = r.arc_str()?;
    Ok(FieldRef { class, name })
}

fn bin_op_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Rem => 4,
        BinOp::And => 5,
        BinOp::Or => 6,
        BinOp::Xor => 7,
        BinOp::Shl => 8,
        BinOp::Shr => 9,
        BinOp::Min => 10,
        BinOp::Max => 11,
    }
}

fn bin_op_from(tag: u8) -> Result<BinOp, WireError> {
    Ok(match tag {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Rem,
        5 => BinOp::And,
        6 => BinOp::Or,
        7 => BinOp::Xor,
        8 => BinOp::Shl,
        9 => BinOp::Shr,
        10 => BinOp::Min,
        11 => BinOp::Max,
        tag => {
            return Err(WireError::BadTag {
                tag,
                context: "binop",
            })
        }
    })
}

fn cond_op_tag(op: CondOp) -> u8 {
    match op {
        CondOp::Eq => 0,
        CondOp::Ne => 1,
        CondOp::Lt => 2,
        CondOp::Le => 3,
        CondOp::Gt => 4,
        CondOp::Ge => 5,
    }
}

fn cond_op_from(tag: u8) -> Result<CondOp, WireError> {
    Ok(match tag {
        0 => CondOp::Eq,
        1 => CondOp::Ne,
        2 => CondOp::Lt,
        3 => CondOp::Le,
        4 => CondOp::Gt,
        5 => CondOp::Ge,
        tag => {
            return Err(WireError::BadTag {
                tag,
                context: "condop",
            })
        }
    })
}

fn un_op_tag(op: UnOp) -> u8 {
    match op {
        UnOp::Neg => 0,
        UnOp::Not => 1,
        UnOp::Abs => 2,
    }
}

fn un_op_from(tag: u8) -> Result<UnOp, WireError> {
    Ok(match tag {
        0 => UnOp::Neg,
        1 => UnOp::Not,
        2 => UnOp::Abs,
        tag => {
            return Err(WireError::BadTag {
                tag,
                context: "unop",
            })
        }
    })
}

fn str_op_tag(op: StrOp) -> u8 {
    match op {
        StrOp::Equals => 0,
        StrOp::StartsWith => 1,
        StrOp::EndsWith => 2,
        StrOp::Contains => 3,
        StrOp::Concat => 4,
        StrOp::Length => 5,
        StrOp::HashCode => 6,
        StrOp::CharAt => 7,
        StrOp::ToUpper => 8,
        StrOp::Substring => 9,
        StrOp::Rot13 => 10,
    }
}

fn str_op_from(tag: u8) -> Result<StrOp, WireError> {
    Ok(match tag {
        0 => StrOp::Equals,
        1 => StrOp::StartsWith,
        2 => StrOp::EndsWith,
        3 => StrOp::Contains,
        4 => StrOp::Concat,
        5 => StrOp::Length,
        6 => StrOp::HashCode,
        7 => StrOp::CharAt,
        8 => StrOp::ToUpper,
        9 => StrOp::Substring,
        10 => StrOp::Rot13,
        tag => {
            return Err(WireError::BadTag {
                tag,
                context: "strop",
            })
        }
    })
}

fn env_key_tag(k: EnvKey) -> u8 {
    EnvKey::ALL.iter().position(|e| *e == k).expect("in ALL") as u8
}

fn env_key_from(tag: u8) -> Result<EnvKey, WireError> {
    EnvKey::ALL
        .get(tag as usize)
        .copied()
        .ok_or(WireError::BadTag {
            tag,
            context: "envkey",
        })
}

fn sensor_tag(s: SensorKind) -> u8 {
    SensorKind::ALL
        .iter()
        .position(|e| *e == s)
        .expect("in ALL") as u8
}

fn sensor_from(tag: u8) -> Result<SensorKind, WireError> {
    SensorKind::ALL
        .get(tag as usize)
        .copied()
        .ok_or(WireError::BadTag {
            tag,
            context: "sensor",
        })
}

fn write_host_api<S: Sink>(w: &mut Writer<S>, api: &HostApi) {
    match api {
        HostApi::GetPublicKey => w.u8(0),
        HostApi::GetManifestDigest => w.u8(1),
        HostApi::GetResourceString => w.u8(2),
        HostApi::CodeDigest => w.u8(3),
        HostApi::EnvQuery(k) => {
            w.u8(4);
            w.u8(env_key_tag(*k));
        }
        HostApi::Sensor(s) => {
            w.u8(5);
            w.u8(sensor_tag(*s));
        }
        HostApi::TimeMillis => w.u8(6),
        HostApi::WallClockMinute => w.u8(7),
        HostApi::Random => w.u8(8),
        HostApi::Log => w.u8(9),
        HostApi::UiNotify(k) => {
            w.u8(10);
            w.u8(match k {
                UiKind::Toast => 0,
                UiKind::Dialog => 1,
                UiKind::TextView => 2,
            });
        }
        HostApi::ReportPiracy => w.u8(11),
        HostApi::LeakMemory => w.u8(12),
        HostApi::KillProcess => w.u8(13),
        HostApi::Freeze => w.u8(14),
        HostApi::NullOutField => w.u8(15),
        HostApi::SleepMs => w.u8(16),
        HostApi::Marker(id) => {
            w.u8(17);
            w.u32(*id);
        }
    }
}

fn read_host_api(r: &mut Reader) -> Result<HostApi, WireError> {
    Ok(match r.u8()? {
        0 => HostApi::GetPublicKey,
        1 => HostApi::GetManifestDigest,
        2 => HostApi::GetResourceString,
        3 => HostApi::CodeDigest,
        4 => HostApi::EnvQuery(env_key_from(r.u8()?)?),
        5 => HostApi::Sensor(sensor_from(r.u8()?)?),
        6 => HostApi::TimeMillis,
        7 => HostApi::WallClockMinute,
        8 => HostApi::Random,
        9 => HostApi::Log,
        10 => HostApi::UiNotify(match r.u8()? {
            0 => UiKind::Toast,
            1 => UiKind::Dialog,
            2 => UiKind::TextView,
            tag => {
                return Err(WireError::BadTag {
                    tag,
                    context: "uikind",
                })
            }
        }),
        11 => HostApi::ReportPiracy,
        12 => HostApi::LeakMemory,
        13 => HostApi::KillProcess,
        14 => HostApi::Freeze,
        15 => HostApi::NullOutField,
        16 => HostApi::SleepMs,
        17 => HostApi::Marker(r.u32()?),
        tag => {
            return Err(WireError::BadTag {
                tag,
                context: "hostapi",
            })
        }
    })
}

// ------------------------------------------------------------ instruction --

fn write_instr<S: Sink>(w: &mut Writer<S>, i: &Instr) {
    match i {
        Instr::Const { dst, value } => {
            w.u8(0);
            w.reg(*dst);
            write_value(w, value);
        }
        Instr::Move { dst, src } => {
            w.u8(1);
            w.reg(*dst);
            w.reg(*src);
        }
        Instr::BinOp { op, dst, lhs, rhs } => {
            w.u8(2);
            w.u8(bin_op_tag(*op));
            w.reg(*dst);
            w.reg(*lhs);
            w.reg(*rhs);
        }
        Instr::BinOpConst { op, dst, lhs, rhs } => {
            w.u8(3);
            w.u8(bin_op_tag(*op));
            w.reg(*dst);
            w.reg(*lhs);
            w.i64(*rhs);
        }
        Instr::UnOp { op, dst, src } => {
            w.u8(4);
            w.u8(un_op_tag(*op));
            w.reg(*dst);
            w.reg(*src);
        }
        Instr::StrOp { op, dst, lhs, rhs } => {
            w.u8(5);
            w.u8(str_op_tag(*op));
            w.reg(*dst);
            w.reg(*lhs);
            w.opt_reg(*rhs);
        }
        Instr::If {
            cond,
            lhs,
            rhs,
            target,
        } => {
            w.u8(6);
            w.u8(cond_op_tag(*cond));
            w.reg(*lhs);
            match rhs {
                RegOrConst::Reg(r) => {
                    w.u8(0);
                    w.reg(*r);
                }
                RegOrConst::Const(v) => {
                    w.u8(1);
                    write_value(w, v);
                }
            }
            w.usize32(*target);
        }
        Instr::Switch { src, arms, default } => {
            w.u8(7);
            w.reg(*src);
            w.usize32(arms.len());
            for (v, t) in arms {
                w.i64(*v);
                w.usize32(*t);
            }
            w.usize32(*default);
        }
        Instr::Goto { target } => {
            w.u8(8);
            w.usize32(*target);
        }
        Instr::Invoke { method, args, dst } => {
            w.u8(9);
            write_method_ref(w, method);
            w.regs(args);
            w.opt_reg(*dst);
        }
        Instr::InvokeReflect { name, args, dst } => {
            w.u8(10);
            w.reg(*name);
            w.regs(args);
            w.opt_reg(*dst);
        }
        Instr::HostCall { api, args, dst } => {
            w.u8(11);
            write_host_api(w, api);
            w.regs(args);
            w.opt_reg(*dst);
        }
        Instr::GetField { dst, obj, field } => {
            w.u8(12);
            w.reg(*dst);
            w.reg(*obj);
            write_field_ref(w, field);
        }
        Instr::PutField { obj, field, src } => {
            w.u8(13);
            w.reg(*obj);
            write_field_ref(w, field);
            w.reg(*src);
        }
        Instr::GetStatic { dst, field } => {
            w.u8(14);
            w.reg(*dst);
            write_field_ref(w, field);
        }
        Instr::PutStatic { field, src } => {
            w.u8(15);
            write_field_ref(w, field);
            w.reg(*src);
        }
        Instr::NewInstance { dst, class } => {
            w.u8(16);
            w.reg(*dst);
            w.str(class.as_str());
        }
        Instr::NewArray { dst, len } => {
            w.u8(17);
            w.reg(*dst);
            w.reg(*len);
        }
        Instr::ArrayGet { dst, arr, idx } => {
            w.u8(18);
            w.reg(*dst);
            w.reg(*arr);
            w.reg(*idx);
        }
        Instr::ArrayPut { arr, idx, src } => {
            w.u8(19);
            w.reg(*arr);
            w.reg(*idx);
            w.reg(*src);
        }
        Instr::ArrayLen { dst, arr } => {
            w.u8(20);
            w.reg(*dst);
            w.reg(*arr);
        }
        Instr::Hash { dst, src, salt } => {
            w.u8(21);
            w.reg(*dst);
            w.reg(*src);
            w.bytes(salt);
        }
        Instr::DecryptExec { blob, key_src } => {
            w.u8(22);
            w.u32(blob.0);
            w.reg(*key_src);
        }
        Instr::Return { src } => {
            w.u8(23);
            w.opt_reg(*src);
        }
        Instr::Throw { msg } => {
            w.u8(24);
            w.str(msg);
        }
        Instr::Nop => w.u8(25),
        Instr::StegoExtract { dst, src } => {
            w.u8(26);
            w.reg(*dst);
            w.reg(*src);
        }
    }
}

fn read_instr(r: &mut Reader) -> Result<Instr, WireError> {
    Ok(match r.u8()? {
        0 => Instr::Const {
            dst: r.reg()?,
            value: read_value(r)?,
        },
        1 => Instr::Move {
            dst: r.reg()?,
            src: r.reg()?,
        },
        2 => Instr::BinOp {
            op: bin_op_from(r.u8()?)?,
            dst: r.reg()?,
            lhs: r.reg()?,
            rhs: r.reg()?,
        },
        3 => Instr::BinOpConst {
            op: bin_op_from(r.u8()?)?,
            dst: r.reg()?,
            lhs: r.reg()?,
            rhs: r.i64()?,
        },
        4 => Instr::UnOp {
            op: un_op_from(r.u8()?)?,
            dst: r.reg()?,
            src: r.reg()?,
        },
        5 => Instr::StrOp {
            op: str_op_from(r.u8()?)?,
            dst: r.reg()?,
            lhs: r.reg()?,
            rhs: r.opt_reg()?,
        },
        6 => {
            let cond = cond_op_from(r.u8()?)?;
            let lhs = r.reg()?;
            let rhs = match r.u8()? {
                0 => RegOrConst::Reg(r.reg()?),
                1 => RegOrConst::Const(read_value(r)?),
                tag => {
                    return Err(WireError::BadTag {
                        tag,
                        context: "if-rhs",
                    })
                }
            };
            let target = r.len()?;
            Instr::If {
                cond,
                lhs,
                rhs,
                target,
            }
        }
        7 => {
            let src = r.reg()?;
            let n = r.len()?;
            // Each arm is an i64 case plus a u32 target: 12 bytes.
            let mut arms = Vec::with_capacity(n.min(r.remaining() / 12));
            for _ in 0..n {
                let v = r.i64()?;
                let t = r.len()?;
                arms.push((v, t));
            }
            let default = r.len()?;
            Instr::Switch { src, arms, default }
        }
        8 => Instr::Goto { target: r.len()? },
        9 => Instr::Invoke {
            method: read_method_ref(r)?,
            args: r.regs()?,
            dst: r.opt_reg()?,
        },
        10 => Instr::InvokeReflect {
            name: r.reg()?,
            args: r.regs()?,
            dst: r.opt_reg()?,
        },
        11 => Instr::HostCall {
            api: read_host_api(r)?,
            args: r.regs()?,
            dst: r.opt_reg()?,
        },
        12 => Instr::GetField {
            dst: r.reg()?,
            obj: r.reg()?,
            field: read_field_ref(r)?,
        },
        13 => Instr::PutField {
            obj: r.reg()?,
            field: read_field_ref(r)?,
            src: r.reg()?,
        },
        14 => Instr::GetStatic {
            dst: r.reg()?,
            field: read_field_ref(r)?,
        },
        15 => Instr::PutStatic {
            field: read_field_ref(r)?,
            src: r.reg()?,
        },
        16 => Instr::NewInstance {
            dst: r.reg()?,
            class: ClassName(r.arc_str()?),
        },
        17 => Instr::NewArray {
            dst: r.reg()?,
            len: r.reg()?,
        },
        18 => Instr::ArrayGet {
            dst: r.reg()?,
            arr: r.reg()?,
            idx: r.reg()?,
        },
        19 => Instr::ArrayPut {
            arr: r.reg()?,
            idx: r.reg()?,
            src: r.reg()?,
        },
        20 => Instr::ArrayLen {
            dst: r.reg()?,
            arr: r.reg()?,
        },
        21 => Instr::Hash {
            dst: r.reg()?,
            src: r.reg()?,
            salt: r.bytes()?,
        },
        22 => Instr::DecryptExec {
            blob: BlobId(r.u32()?),
            key_src: r.reg()?,
        },
        23 => Instr::Return { src: r.opt_reg()? },
        24 => Instr::Throw { msg: r.str()? },
        25 => Instr::Nop,
        26 => Instr::StegoExtract {
            dst: r.reg()?,
            src: r.reg()?,
        },
        tag => {
            return Err(WireError::BadTag {
                tag,
                context: "instr",
            })
        }
    })
}

// ---------------------------------------------------------------- method --

fn write_method<S: Sink>(w: &mut Writer<S>, m: &Method) {
    w.str(m.class.as_str());
    w.str(&m.name);
    w.u16(m.params);
    w.u16(m.registers);
    w.usize32(m.body.len());
    for i in &m.body {
        write_instr(w, i);
    }
}

fn read_method(r: &mut Reader) -> Result<Method, WireError> {
    let class = ClassName(r.arc_str()?);
    let name = r.arc_str()?;
    let params = r.u16()?;
    let registers = r.u16()?;
    let n = r.len()?;
    let mut body = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        body.push(read_instr(r)?);
    }
    Ok(Method {
        class,
        name,
        params,
        registers,
        body,
    })
}

fn write_class<S: Sink>(w: &mut Writer<S>, c: &Class) {
    w.str(c.name.as_str());
    w.usize32(c.fields.len());
    for f in &c.fields {
        w.str(&f.name);
        w.u8(match f.kind {
            FieldKind::Instance => 0,
            FieldKind::Static => 1,
        });
    }
    w.usize32(c.methods.len());
    for m in &c.methods {
        write_method(w, m);
    }
}

fn read_class(r: &mut Reader) -> Result<Class, WireError> {
    let name = ClassName(r.arc_str()?);
    let nf = r.len()?;
    let mut fields = Vec::with_capacity(nf.min(1 << 12));
    for _ in 0..nf {
        let fname = r.arc_str()?;
        let kind = match r.u8()? {
            0 => FieldKind::Instance,
            1 => FieldKind::Static,
            tag => {
                return Err(WireError::BadTag {
                    tag,
                    context: "fieldkind",
                })
            }
        };
        fields.push(Field { name: fname, kind });
    }
    let nm = r.len()?;
    let mut methods = Vec::with_capacity(nm.min(1 << 12));
    for _ in 0..nm {
        methods.push(read_method(r)?);
    }
    Ok(Class {
        name,
        fields,
        methods,
    })
}

fn write_entry_point<S: Sink>(w: &mut Writer<S>, e: &EntryPoint) {
    w.str(&e.event);
    write_method_ref(w, &e.method);
    w.usize32(e.params.len());
    for p in &e.params {
        match p {
            ParamDomain::IntRange(lo, hi) => {
                w.u8(0);
                w.i64(*lo);
                w.i64(*hi);
            }
            ParamDomain::Choice(vs) => {
                w.u8(1);
                w.usize32(vs.len());
                for v in vs {
                    write_value(w, v);
                }
            }
            ParamDomain::Text { max_len } => {
                w.u8(2);
                w.u32(*max_len);
            }
        }
    }
    w.f64(e.user_weight);
}

fn read_entry_point(r: &mut Reader) -> Result<EntryPoint, WireError> {
    let event = r.arc_str()?;
    let method = read_method_ref(r)?;
    let n = r.len()?;
    let mut params = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        params.push(match r.u8()? {
            0 => ParamDomain::IntRange(r.i64()?, r.i64()?),
            1 => {
                let k = r.len()?;
                let mut vs = Vec::with_capacity(k.min(1 << 12));
                for _ in 0..k {
                    vs.push(read_value(r)?);
                }
                ParamDomain::Choice(vs)
            }
            2 => ParamDomain::Text { max_len: r.u32()? },
            tag => {
                return Err(WireError::BadTag {
                    tag,
                    context: "paramdomain",
                })
            }
        });
    }
    let user_weight = r.f64()?;
    Ok(EntryPoint {
        event,
        method,
        params,
        user_weight,
    })
}

// -------------------------------------------------------------- dex file --

fn write_dex<S: Sink>(w: &mut Writer<S>, dex: &DexFile) {
    w.raw(MAGIC);
    w.usize32(dex.classes.len());
    for c in &dex.classes {
        write_class(w, c);
    }
    w.usize32(dex.blobs.len());
    for b in &dex.blobs {
        w.bytes(&b.salt);
        w.bytes(&b.sealed);
    }
    w.usize32(dex.entry_points.len());
    for e in &dex.entry_points {
        write_entry_point(w, e);
    }
}

/// Encodes a complete DEX file.
pub fn encode_dex(dex: &DexFile) -> Vec<u8> {
    // Measured: an exact-count pre-sizing pass costs a second full
    // traversal, which is slower than amortized growth here; start from a
    // page-sized buffer instead and let it double.
    let mut w = Writer {
        buf: Vec::with_capacity(4096),
    };
    write_dex(&mut w, dex);
    w.buf
}

/// Exact byte length of [`encode_dex`]'s output, without materializing it.
///
/// The protection pipeline records original/protected DEX sizes; counting
/// through the same writers costs a traversal but no allocation or copying.
pub fn encoded_dex_len(dex: &DexFile) -> usize {
    let mut w = Writer {
        buf: Counter::default(),
    };
    write_dex(&mut w, dex);
    w.buf.0
}

/// Streams encoded bytes straight into a SHA-256 state — digesting without
/// materializing (manifest computation hashes the full DEX; going through
/// the hasher's 64-byte buffer skips the transient multi-hundred-KB copy).
struct HashSink(sha256::Sha256);

impl Sink for HashSink {
    fn put(&mut self, bytes: &[u8]) {
        self.0.update(bytes);
    }
    fn put_byte(&mut self, b: u8) {
        self.0.update(&[b]);
    }
}

/// SHA-256 of [`encode_dex`]'s output, computed by streaming the encoding
/// through the digest state instead of materializing the byte vector.
/// Bit-identical to `sha256::digest(&encode_dex(dex))` because both paths
/// share the same generic writers.
pub fn dex_digest(dex: &DexFile) -> Digest256 {
    let mut w = Writer {
        buf: HashSink(sha256::Sha256::new()),
    };
    write_dex(&mut w, dex);
    w.buf.0.finalize()
}

/// Decodes a complete DEX file.
///
/// # Errors
///
/// Returns [`WireError`] on any malformed input (bad magic, truncation,
/// unknown tags, invalid UTF-8).
pub fn decode_dex(bytes: &[u8]) -> Result<DexFile, WireError> {
    let mut r = Reader::new(bytes);
    if r.take(8)? != MAGIC {
        return Err(WireError::BadMagic);
    }
    let nc = r.len()?;
    let mut classes = Vec::with_capacity(nc.min(1 << 12));
    for _ in 0..nc {
        classes.push(read_class(&mut r)?);
    }
    let nb = r.len()?;
    let mut blobs = Vec::with_capacity(nb.min(1 << 12));
    for _ in 0..nb {
        let salt = r.bytes()?;
        let sealed = r.bytes()?;
        blobs.push(EncryptedBlob { salt, sealed });
    }
    let ne = r.len()?;
    let mut entry_points = Vec::with_capacity(ne.min(1 << 12));
    for _ in 0..ne {
        entry_points.push(read_entry_point(&mut r)?);
    }
    Ok(DexFile {
        classes,
        blobs,
        entry_points,
    })
}

fn write_fragment<S: Sink>(w: &mut Writer<S>, body: &[Instr]) {
    w.usize32(body.len());
    for i in body {
        write_instr(w, i);
    }
}

/// Encodes a standalone instruction fragment (the plaintext stored inside
/// encrypted blobs), pre-sized like [`encode_dex`].
pub fn encode_fragment(body: &[Instr]) -> Vec<u8> {
    let mut w = Writer {
        buf: Vec::with_capacity(encoded_fragment_len(body)),
    };
    write_fragment(&mut w, body);
    w.buf
}

/// Exact byte length of [`encode_fragment`]'s output.
pub fn encoded_fragment_len(body: &[Instr]) -> usize {
    let mut w = Writer {
        buf: Counter::default(),
    };
    write_fragment(&mut w, body);
    w.buf.0
}

/// Decodes a standalone instruction fragment.
///
/// # Errors
///
/// Returns [`WireError`] on malformed input.
pub fn decode_fragment(bytes: &[u8]) -> Result<Vec<Instr>, WireError> {
    let mut r = Reader::new(bytes);
    let n = r.len()?;
    let mut body = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        body.push(read_instr(&mut r)?);
    }
    Ok(body)
}

/// SHA-256 digest of a method's encoded body — the unit the code-snippet
/// scanning detection method compares.
pub fn method_digest(m: &Method) -> Digest256 {
    let mut w: Writer = Writer::default();
    write_method(&mut w, m);
    sha256::digest(&w.buf)
}

/// SHA-256 digest of a class's encoded form (used for per-class install
/// digests).
pub fn class_digest(c: &Class) -> Digest256 {
    let mut w: Writer = Writer::default();
    write_class(&mut w, c);
    sha256::digest(&w.buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MethodBuilder;
    use crate::instr::HostApi;

    fn rich_dex() -> DexFile {
        let mut dex = DexFile::new();
        let mut class = Class::new("pkg/Main");
        class.fields.push(Field::instance("score"));
        class.fields.push(Field::stat("MODE"));
        let mut b = MethodBuilder::new("pkg/Main", "handle", 2);
        let end = b.fresh_label();
        b.if_not(
            CondOp::Eq,
            Reg(0),
            RegOrConst::Const(Value::Int(0xfff000)),
            end,
        );
        let h = b.fresh_reg();
        b.hash(h, Reg(0), vec![9, 9, 9]);
        b.decrypt_exec(BlobId(0), Reg(0));
        b.place_label(end);
        let s = b.fresh_reg();
        b.const_(s, Value::str("done"));
        b.host(HostApi::Log, vec![s], None);
        b.ret_void();
        class.methods.push(b.finish());
        dex.classes.push(class);
        dex.add_blob(EncryptedBlob {
            salt: vec![1, 2, 3],
            sealed: vec![7; 50],
        });
        dex.entry_points.push(EntryPoint {
            event: Arc::from("onClick"),
            method: MethodRef::new("pkg/Main", "handle"),
            params: vec![
                ParamDomain::IntRange(0, 100),
                ParamDomain::Choice(vec![Value::str("a"), Value::Bool(true)]),
            ],
            user_weight: 2.5,
        });
        dex
    }

    #[test]
    fn dex_roundtrip() {
        let dex = rich_dex();
        let bytes = encode_dex(&dex);
        let back = decode_dex(&bytes).unwrap();
        assert_eq!(dex, back);
    }

    #[test]
    fn fragment_roundtrip() {
        let dex = rich_dex();
        let body = &dex.classes[0].methods[0].body;
        let bytes = encode_fragment(body);
        assert_eq!(&decode_fragment(&bytes).unwrap(), body);
    }

    #[test]
    fn bad_magic_rejected() {
        let dex = rich_dex();
        let mut bytes = encode_dex(&dex);
        bytes[0] ^= 0xff;
        assert_eq!(decode_dex(&bytes), Err(WireError::BadMagic));
    }

    #[test]
    fn truncation_rejected() {
        let dex = rich_dex();
        let bytes = encode_dex(&dex);
        for cut in [9, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_dex(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn forged_switch_arm_count_is_a_typed_error() {
        // One instruction, opcode 7 (switch), src register 0, arm count
        // u32::MAX: 11 bytes that claim ~64 GiB of arms must fail on the
        // missing input, not abort the process on the allocation.
        let mut bytes = 1u32.to_le_bytes().to_vec();
        bytes.push(7);
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(bytes.len(), 11);
        assert_eq!(
            decode_fragment(&bytes),
            Err(WireError::UnexpectedEof { at: 11 })
        );
    }

    #[test]
    fn digests_change_with_code() {
        let dex = rich_dex();
        let d1 = method_digest(&dex.classes[0].methods[0]);
        let mut m2 = dex.classes[0].methods[0].clone();
        m2.body.push(Instr::Nop);
        assert_ne!(d1, method_digest(&m2));
        let c1 = class_digest(&dex.classes[0]);
        let mut cl2 = dex.classes[0].clone();
        cl2.methods[0] = m2;
        assert_ne!(c1, class_digest(&cl2));
    }

    #[test]
    fn encoding_is_deterministic() {
        let dex = rich_dex();
        assert_eq!(encode_dex(&dex), encode_dex(&dex));
    }

    #[test]
    fn streamed_digest_matches_materialized() {
        let dex = rich_dex();
        assert_eq!(dex_digest(&dex), sha256::digest(&encode_dex(&dex)));
        assert_eq!(
            dex_digest(&DexFile::new()),
            sha256::digest(&encode_dex(&DexFile::new()))
        );
    }

    #[test]
    fn counted_lengths_match_encoded_lengths() {
        let dex = rich_dex();
        let bytes = encode_dex(&dex);
        assert_eq!(encoded_dex_len(&dex), bytes.len());
        let body = &dex.classes[0].methods[0].body;
        assert_eq!(encoded_fragment_len(body), encode_fragment(body).len());
        assert_eq!(
            encoded_dex_len(&DexFile::new()),
            encode_dex(&DexFile::new()).len()
        );
    }
}
