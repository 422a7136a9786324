//! Byte-level encoding of frozen code and first-order values.
//!
//! The machine's run-time representation is deliberately single-threaded:
//! code lives in an `Rc`-shared [`CodeSeg`], values share structure
//! through `Rc`, and arenas/references/arrays carry `RefCell`s. A
//! specialized program — the paper's *generate once, run many* artifact —
//! leaves the thread (or process) that generated it as bytes: this
//! module's hand-rolled, deterministic, versionable rendering of a
//! [`Value`] graph and every code block it reaches. Bytes are
//! `Send + Sync`; a thread that wants to run the code [`decode`]s them
//! into a fresh segment and value graph of its own, and a loader that
//! only needs to know the bytes are sound [`validate`]s them, which
//! builds nothing.
//!
//! A payload is the block table (every reachable block, numbered densely
//! in the order a pre-order walk from the root first reaches it) followed
//! by the root value. [`encode`] refuses anything whose semantics depend
//! on shared mutation — arenas still under construction, `ref` cells,
//! arrays — with an [`ExtractError`].
//!
//! This is the raw *payload* codec: no header, no checksum, no
//! fingerprints. The framed artifact container (magic, format version,
//! fingerprints, section lengths, trailing checksum) lives one layer up
//! in `mlbox::wire`, which wraps these bytes; keeping the payload codec
//! here keeps the instruction/value encodings next to the types they
//! render, so adding an instruction without a wire rendering fails to
//! compile.
//!
//! Properties the codec guarantees:
//!
//! - **Determinism**: no hash-map iteration order leaks into the bytes.
//!   `encode(decode(bytes)) == bytes` for every accepted input.
//! - **Sharing preservation**: shared nodes (pairs, frames, closures,
//!   recursive groups — keyed on `Rc` identity) are encoded once and
//!   back-referenced by index, and a block reached twice is encoded once,
//!   so a decode restores exactly the sharing the encoder saw: the
//!   instruction count and step counts survive the disk.
//! - **Totality of decode and validate**: every read is bounds-checked,
//!   untrusted counts never pre-allocate, block references are validated
//!   against the block table, nested emits are refused, and nesting depth
//!   is capped ([`MAX_DECODE_DEPTH`]) so a malicious input errors instead
//!   of exhausting the stack. Neither ever panics, and both return the
//!   same result for every input: [`validate`] is [`decode`]'s walk with
//!   nothing built, so bytes it accepts always decode.

use crate::instr::{Instr, MergeSwitchSpec, PrimOp, SwitchArm, SwitchTable};
use crate::seg::{BlockId, CodeRef, CodeSeg};
use crate::value::{Closure, Frame, RecGroup, Value};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::rc::Rc;

/// Decode-side cap on value/instruction nesting. Adversarial inputs can
/// nest one level per byte; without a cap a few kilobytes of `pair` tags
/// would exhaust the Rust stack inside a decode that should just fail —
/// on *any* stack, including a 2 MiB test thread running an unoptimized
/// build, which is why the cap is conservative. Genuine artifacts nest
/// far shallower: code nests by block *reference* (not recursion),
/// flat-mode environments are single frames, and back-references keep
/// shared spines from re-encoding at depth.
pub const MAX_DECODE_DEPTH: usize = 512;

/// Why a byte buffer is not a valid wire payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before a read completed.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// A structurally invalid encoding (bad tag, dangling block or
    /// back-reference, nested emit, malformed UTF-8, …).
    Corrupt(&'static str),
    /// Value/instruction nesting exceeded [`MAX_DECODE_DEPTH`].
    TooDeep,
    /// Decode finished with input left over.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => write!(
                f,
                "truncated wire payload: read of {needed} byte(s) with {remaining} remaining"
            ),
            WireError::Corrupt(what) => write!(f, "corrupt wire payload: {what}"),
            WireError::TooDeep => write!(
                f,
                "wire payload nests deeper than {MAX_DECODE_DEPTH} levels"
            ),
            WireError::TrailingBytes(n) => {
                write!(f, "wire payload has {n} trailing byte(s) after the value")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Why a value cannot be encoded: it (transitively) holds mutable shared
/// state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractError {
    /// The offending run-time representation ("code arena", "ref cell",
    /// "array").
    pub kind: &'static str,
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "value contains a {}, which is mutable shared state and cannot \
             cross threads; only finished (frozen) code and first-order \
             values are portable",
            self.kind
        )
    }
}

impl std::error::Error for ExtractError {}

/// What a payload holds, as its encoder, decoder or validator counted it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PayloadInfo {
    /// Instructions in the block table: every reachable instruction,
    /// shared blocks counted once (the artifact-size metric).
    pub instructions: usize,
    /// Whether a contiguous environment frame occurs anywhere (value
    /// graph or `quote` immediates). Frames only exist under the flat
    /// environment mode, so a consumer in another mode must refuse the
    /// payload; the decoder recomputes this, never trusting the producer.
    pub uses_frames: bool,
}

// ---------------------------------------------------------------------
// Primitive writers/readers. All integers are little-endian and
// fixed-width; strings are u32-length-prefixed UTF-8.
// ---------------------------------------------------------------------

/// An append-only byte sink for the encoder.
#[derive(Default)]
struct Writer {
    bytes: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, b: u8) {
        self.bytes.push(b);
    }

    fn u32(&mut self, n: u32) {
        self.bytes.extend_from_slice(&n.to_le_bytes());
    }

    fn i64(&mut self, n: i64) {
        self.bytes.extend_from_slice(&n.to_le_bytes());
    }

    fn usize_u32(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("wire payload exceeds u32 count"));
    }

    fn str(&mut self, s: &str) {
        self.usize_u32(s.len());
        self.bytes.extend_from_slice(s.as_bytes());
    }
}

/// A bounds-checked cursor over the input for the decoder and validator.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Corrupt("boolean byte is neither 0 nor 1")),
        }
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn str(&mut self) -> Result<&'a str, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| WireError::Corrupt("string is not UTF-8"))
    }

    /// A block number, checked against the size of the block table.
    fn block_ref(&mut self, blocks: u32) -> Result<BlockId, WireError> {
        let b = self.u32()?;
        if b >= blocks {
            return Err(WireError::Corrupt("block reference out of range"));
        }
        Ok(BlockId(b))
    }

    /// A back-reference into a table of shared nodes in first-emission
    /// order, where `None` marks a node whose inline encoding is still
    /// being read (a back-reference to it would be a cycle — impossible
    /// for the DAGs the encoder writes).
    fn backref<T: Clone>(&mut self, shared: &[Option<T>]) -> Result<T, WireError> {
        match shared.get(self.u32()? as usize) {
            Some(Some(node)) => Ok(node.clone()),
            Some(None) => Err(WireError::Corrupt("cyclic back-reference")),
            None => Err(WireError::Corrupt("dangling back-reference")),
        }
    }
}

// ---------------------------------------------------------------------
// Corruption messages that both `decode` and `validate` report: the two
// walks accept the same inputs and refuse the rest with the same error.
// ---------------------------------------------------------------------

const NOT_A_GROUP: &str = "rec-closure back-reference is not a group";
const BAD_GROUP_MARKER: &str = "unknown rec-group marker";
const BAD_REC_INDEX: &str = "rec-closure index out of range";
const BAD_CON_MARKER: &str = "unknown constructor payload marker";
const BACKREF_TO_GROUP: &str = "value back-reference resolves to a rec group";
const BAD_VALUE_TAG: &str = "unknown value tag";
const NESTED_EMIT: &str = "nested emit";
const BAD_DEFAULT_MARKER: &str = "unknown switch default marker";
const BAD_OPCODE: &str = "unknown instruction opcode";
const TOO_MANY_INSTRS: &str = "segment exceeds u32 instructions";

/// The `emit` opcode ([`Instr::opcode`]), whose operand may not be
/// another `emit`.
const OP_EMIT: u8 = 9;

// ---------------------------------------------------------------------
// Value tags. Shared nodes (pair, frame, closure, rec group) are encoded
// inline on first encounter and as TAG_BACKREF afterwards; back-reference
// indices count shared nodes in order of first emission, which the
// decoder reproduces exactly.
// ---------------------------------------------------------------------

const TAG_UNIT: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_BOOL: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_PAIR: u8 = 4;
const TAG_FRAME: u8 = 5;
const TAG_CLOSURE: u8 = 6;
const TAG_RECCLOSURE: u8 = 7;
const TAG_CON: u8 = 8;
const TAG_BACKREF: u8 = 9;

/// Inside `TAG_RECCLOSURE`: the group follows inline (first encounter).
const GROUP_INLINE: u8 = 0;
/// Inside `TAG_RECCLOSURE`: the group is a back-reference.
const GROUP_BACKREF: u8 = 1;

// ---------------------------------------------------------------------
// PrimOp <-> byte. An explicit exhaustive table in both directions, so a
// new primitive without a wire number fails to compile.
// ---------------------------------------------------------------------

fn prim_to_byte(op: PrimOp) -> u8 {
    match op {
        PrimOp::Add => 0,
        PrimOp::Sub => 1,
        PrimOp::Mul => 2,
        PrimOp::Div => 3,
        PrimOp::Mod => 4,
        PrimOp::Neg => 5,
        PrimOp::Eq => 6,
        PrimOp::Ne => 7,
        PrimOp::Lt => 8,
        PrimOp::Le => 9,
        PrimOp::Gt => 10,
        PrimOp::Ge => 11,
        PrimOp::Concat => 12,
        PrimOp::BitAnd => 13,
        PrimOp::Not => 14,
        PrimOp::StrSize => 15,
        PrimOp::IntToString => 16,
        PrimOp::Print => 17,
        PrimOp::Ref => 18,
        PrimOp::Deref => 19,
        PrimOp::Assign => 20,
        PrimOp::MkArray => 21,
        PrimOp::ArrSub => 22,
        PrimOp::ArrUpdate => 23,
        PrimOp::ArrLen => 24,
    }
}

fn prim_from_byte(b: u8) -> Result<PrimOp, WireError> {
    Ok(match b {
        0 => PrimOp::Add,
        1 => PrimOp::Sub,
        2 => PrimOp::Mul,
        3 => PrimOp::Div,
        4 => PrimOp::Mod,
        5 => PrimOp::Neg,
        6 => PrimOp::Eq,
        7 => PrimOp::Ne,
        8 => PrimOp::Lt,
        9 => PrimOp::Le,
        10 => PrimOp::Gt,
        11 => PrimOp::Ge,
        12 => PrimOp::Concat,
        13 => PrimOp::BitAnd,
        14 => PrimOp::Not,
        15 => PrimOp::StrSize,
        16 => PrimOp::IntToString,
        17 => PrimOp::Print,
        18 => PrimOp::Ref,
        19 => PrimOp::Deref,
        20 => PrimOp::Assign,
        21 => PrimOp::MkArray,
        22 => PrimOp::ArrSub,
        23 => PrimOp::ArrUpdate,
        24 => PrimOp::ArrLen,
        _ => return Err(WireError::Corrupt("unknown primitive opcode")),
    })
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn addr<T>(rc: &Rc<T>) -> usize {
    Rc::as_ptr(rc) as usize
}

/// The encoder's first walk: numbers every block reachable from the
/// root, pre-order. A block's number is reserved before its instructions
/// are walked; a closure's environment is walked before its body, a
/// recursive group's bodies before its environment, switch arms before
/// the default, a branch's then-block before its else-block. Blocks are
/// keyed on `(segment identity, block id)` — a value may reach several
/// segments (a `quote`d closure over another session's code) — and
/// shared nodes are walked once, keyed on `Rc` identity, so the walk is
/// linear in the size of the graph. Segments and nodes are kept alive by
/// the value under encoding, so their addresses are stable throughout.
#[derive(Default)]
struct Numbering {
    number: HashMap<(usize, u32), u32>,
    order: Vec<(CodeSeg, BlockId)>,
    walked: HashSet<usize>,
    info: PayloadInfo,
}

impl Numbering {
    fn block(&mut self, seg: &CodeSeg, b: BlockId) -> Result<(), ExtractError> {
        let key = (seg.addr(), b.0);
        if self.number.contains_key(&key) {
            return Ok(());
        }
        let n = u32::try_from(self.order.len()).expect("wire payload exceeds u32 blocks");
        self.number.insert(key, n);
        self.order.push((seg.clone(), b));
        let (start, len) = seg.bounds_of_issued(b);
        self.info.instructions += len;
        let instrs = seg.borrow_instrs();
        instrs[start..start + len]
            .iter()
            .try_for_each(|i| self.instr(seg, i))
    }

    fn instr(&mut self, seg: &CodeSeg, i: &Instr) -> Result<(), ExtractError> {
        match i {
            Instr::Quote(v) => self.value(v),
            Instr::QuoteCons(v) | Instr::PushQuote(v) => self.value(v),
            Instr::Emit(inner) => self.instr(seg, inner),
            _ => i
                .block_refs()
                .into_iter()
                .try_for_each(|b| self.block(seg, b)),
        }
    }

    fn value(&mut self, v: &Value) -> Result<(), ExtractError> {
        match v {
            Value::Unit | Value::Int(_) | Value::Bool(_) | Value::Str(_) => Ok(()),
            Value::Con(_, payload) => payload.as_ref().map_or(Ok(()), |p| self.value(p)),
            Value::Pair(p) if self.walked.insert(addr(p)) => {
                self.value(&p.0)?;
                self.value(&p.1)
            }
            Value::Frame(f) if self.walked.insert(addr(f)) => {
                self.info.uses_frames = true;
                self.value(&f.link)?;
                f.slots.iter().try_for_each(|s| self.value(s))
            }
            Value::Closure(c) if self.walked.insert(addr(c)) => {
                self.value(&c.env)?;
                self.block(&c.body.seg, c.body.block)
            }
            Value::RecClosure { group, .. } if self.walked.insert(addr(group)) => {
                for b in group.bodies.iter() {
                    self.block(&group.seg, *b)?;
                }
                self.value(&group.env)
            }
            // Walked already.
            Value::Pair(_) | Value::Frame(_) | Value::Closure(_) | Value::RecClosure { .. } => {
                Ok(())
            }
            Value::Arena(_) => Err(ExtractError { kind: "code arena" }),
            Value::Ref(_) => Err(ExtractError { kind: "ref cell" }),
            Value::Array(_) => Err(ExtractError { kind: "array" }),
        }
    }
}

/// The encoder's second walk: writes the numbered blocks, then the root.
struct Encode<'a> {
    out: Writer,
    number: &'a HashMap<(usize, u32), u32>,
    /// Address of a shared node's allocation → its back-reference index.
    shared: HashMap<usize, u32>,
}

impl Encode<'_> {
    /// Registers a shared node the moment its inline encoding *starts*
    /// (pre-order), mirroring the decoder's reserve-then-fill. Writes a
    /// back-reference with `tag` and returns `true` if the node was
    /// already emitted.
    fn backref(&mut self, addr: usize, tag: u8) -> bool {
        if let Some(&idx) = self.shared.get(&addr) {
            self.out.u8(tag);
            self.out.u32(idx);
            return true;
        }
        let idx = u32::try_from(self.shared.len()).expect("wire payload exceeds u32 shared nodes");
        self.shared.insert(addr, idx);
        false
    }

    fn block_ref(&mut self, seg: &CodeSeg, b: BlockId) {
        self.out.u32(self.number[&(seg.addr(), b.0)]);
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Unit => self.out.u8(TAG_UNIT),
            Value::Int(n) => {
                self.out.u8(TAG_INT);
                self.out.i64(*n);
            }
            Value::Bool(b) => {
                self.out.u8(TAG_BOOL);
                self.out.u8(u8::from(*b));
            }
            Value::Str(s) => {
                self.out.u8(TAG_STR);
                self.out.str(s);
            }
            Value::Pair(p) => {
                if !self.backref(addr(p), TAG_BACKREF) {
                    self.out.u8(TAG_PAIR);
                    self.value(&p.0);
                    self.value(&p.1);
                }
            }
            Value::Frame(fr) => {
                if !self.backref(addr(fr), TAG_BACKREF) {
                    self.out.u8(TAG_FRAME);
                    self.value(&fr.link);
                    self.out.usize_u32(fr.slots.len());
                    for s in &fr.slots {
                        self.value(s);
                    }
                }
            }
            Value::Closure(c) => {
                if !self.backref(addr(c), TAG_BACKREF) {
                    self.out.u8(TAG_CLOSURE);
                    self.value(&c.env);
                    self.block_ref(&c.body.seg, c.body.block);
                }
            }
            Value::RecClosure { group, index } => {
                self.out.u8(TAG_RECCLOSURE);
                if !self.backref(addr(group), GROUP_BACKREF) {
                    self.out.u8(GROUP_INLINE);
                    self.value(&group.env);
                    self.out.usize_u32(group.bodies.len());
                    for b in group.bodies.iter() {
                        self.block_ref(&group.seg, *b);
                    }
                }
                self.out.u32(*index);
            }
            Value::Con(tag, payload) => {
                self.out.u8(TAG_CON);
                self.out.u32(*tag);
                self.out.u8(u8::from(payload.is_some()));
                if let Some(p) = payload {
                    self.value(p);
                }
            }
            Value::Arena(_) | Value::Ref(_) | Value::Array(_) => {
                unreachable!("the numbering walk refuses mutable state")
            }
        }
    }

    fn instr(&mut self, seg: &CodeSeg, i: &Instr) {
        self.out
            .u8(u8::try_from(i.opcode()).expect("opcodes fit a byte"));
        match i {
            Instr::Quote(v) => self.value(v),
            Instr::QuoteCons(v) | Instr::PushQuote(v) => self.value(v),
            Instr::Cur(b) => self.block_ref(seg, *b),
            Instr::Emit(inner) => self.instr(seg, inner),
            Instr::Branch(t, e) => {
                self.block_ref(seg, *t);
                self.block_ref(seg, *e);
            }
            Instr::RecClos(bodies) => {
                self.out.usize_u32(bodies.len());
                for b in bodies.iter() {
                    self.block_ref(seg, *b);
                }
            }
            Instr::Pack(tag) => self.out.u32(*tag),
            Instr::Switch(table) => {
                self.out.usize_u32(table.arms.len());
                for arm in &table.arms {
                    self.out.u32(arm.tag);
                    self.out.u8(u8::from(arm.bind));
                    self.block_ref(seg, arm.code);
                }
                self.out.u8(u8::from(table.default.is_some()));
                if let Some(d) = table.default {
                    self.block_ref(seg, d);
                }
            }
            Instr::Prim(op) => self.out.u8(prim_to_byte(*op)),
            Instr::Fail(msg) => self.out.str(msg),
            Instr::MergeSwitch(spec) => {
                self.out.usize_u32(spec.arms.len());
                for (tag, bind) in &spec.arms {
                    self.out.u32(*tag);
                    self.out.u8(u8::from(*bind));
                }
                self.out.u8(u8::from(spec.default));
            }
            Instr::Acc(n) | Instr::PushAcc(n) | Instr::AccApp(n) | Instr::MergeRec(n) => {
                self.out.usize_u32(*n)
            }
            Instr::Id
            | Instr::Fst
            | Instr::Snd
            | Instr::Push
            | Instr::Swap
            | Instr::ConsPair
            | Instr::App
            | Instr::LiftV
            | Instr::NewArena
            | Instr::Merge
            | Instr::Call
            | Instr::MergeBranch
            | Instr::SwapCons
            | Instr::ConsApp
            | Instr::EnvCons => {}
        }
    }
}

/// Encodes a value — every block it reaches, then the value graph — as a
/// deterministic, self-delimiting byte payload, and reports what the
/// payload holds.
///
/// # Errors
///
/// Returns an [`ExtractError`] if the value (transitively, `quote`
/// immediates in reachable code included) contains an arena, a `ref`
/// cell, or an array.
pub fn encode(v: &Value) -> Result<(Vec<u8>, PayloadInfo), ExtractError> {
    let mut numbering = Numbering::default();
    numbering.value(v)?;
    let mut e = Encode {
        out: Writer::default(),
        number: &numbering.number,
        shared: HashMap::new(),
    };
    e.out.usize_u32(numbering.order.len());
    for (seg, b) in &numbering.order {
        let (start, len) = seg.bounds_of_issued(*b);
        e.out.usize_u32(len);
        let instrs = seg.borrow_instrs();
        for i in &instrs[start..start + len] {
            e.instr(seg, i);
        }
    }
    e.value(v);
    Ok((e.out.bytes, numbering.info))
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// A decoded shared node, held in the back-reference table.
#[derive(Clone)]
enum Shared {
    Pair(Rc<(Value, Value)>),
    Frame(Rc<Frame>),
    Closure(Rc<Closure>),
    Group(Rc<RecGroup>),
}

struct Decode<'a> {
    input: Reader<'a>,
    /// The segment every decoded block lands in; closures and groups
    /// point at it before its blocks are installed.
    seg: CodeSeg,
    /// Shared nodes in first-emission order. `None` marks a node whose
    /// inline encoding is still being decoded (its index is reserved, but
    /// a back-reference to it would be a cycle — impossible for the DAGs
    /// the encoder writes, so it is rejected as corrupt).
    shared: Vec<Option<Shared>>,
    /// Number of blocks in the segment, for validating block references.
    blocks: u32,
    /// Recomputed from what actually decodes, never trusted.
    uses_frames: bool,
}

impl Decode<'_> {
    fn block_ref(&mut self) -> Result<BlockId, WireError> {
        self.input.block_ref(self.blocks)
    }

    fn read_blocks(&mut self) -> Result<Rc<Vec<BlockId>>, WireError> {
        let count = self.input.u32()?;
        let mut bodies = Vec::new();
        for _ in 0..count {
            bodies.push(self.block_ref()?);
        }
        Ok(Rc::new(bodies))
    }

    fn reserve(&mut self) -> usize {
        self.shared.push(None);
        self.shared.len() - 1
    }

    fn backref(&mut self) -> Result<Shared, WireError> {
        self.input.backref(&self.shared)
    }

    fn value(&mut self, depth: usize) -> Result<Value, WireError> {
        if depth >= MAX_DECODE_DEPTH {
            return Err(WireError::TooDeep);
        }
        Ok(match self.input.u8()? {
            TAG_UNIT => Value::Unit,
            TAG_INT => Value::Int(self.input.i64()?),
            TAG_BOOL => Value::Bool(self.input.bool()?),
            TAG_STR => Value::str(self.input.str()?),
            TAG_PAIR => {
                let slot = self.reserve();
                let a = self.value(depth + 1)?;
                let b = self.value(depth + 1)?;
                let pair = Rc::new((a, b));
                self.shared[slot] = Some(Shared::Pair(pair.clone()));
                Value::Pair(pair)
            }
            TAG_FRAME => {
                self.uses_frames = true;
                let slot = self.reserve();
                let link = self.value(depth + 1)?;
                let count = self.input.u32()?;
                let mut slots = Vec::new();
                for _ in 0..count {
                    slots.push(self.value(depth + 1)?);
                }
                let frame = Rc::new(Frame { link, slots });
                self.shared[slot] = Some(Shared::Frame(frame.clone()));
                Value::Frame(frame)
            }
            TAG_CLOSURE => {
                let slot = self.reserve();
                let env = self.value(depth + 1)?;
                let block = self.block_ref()?;
                let closure = Rc::new(Closure {
                    env,
                    body: CodeRef {
                        seg: self.seg.clone(),
                        block,
                    },
                });
                self.shared[slot] = Some(Shared::Closure(closure.clone()));
                Value::Closure(closure)
            }
            TAG_RECCLOSURE => {
                let group = match self.input.u8()? {
                    GROUP_INLINE => {
                        let slot = self.reserve();
                        let env = self.value(depth + 1)?;
                        let bodies = self.read_blocks()?;
                        let group = Rc::new(RecGroup {
                            env,
                            seg: self.seg.clone(),
                            bodies,
                        });
                        self.shared[slot] = Some(Shared::Group(group.clone()));
                        group
                    }
                    GROUP_BACKREF => match self.backref()? {
                        Shared::Group(g) => g,
                        _ => return Err(WireError::Corrupt(NOT_A_GROUP)),
                    },
                    _ => return Err(WireError::Corrupt(BAD_GROUP_MARKER)),
                };
                let index = self.input.u32()?;
                if index as usize >= group.bodies.len() {
                    return Err(WireError::Corrupt(BAD_REC_INDEX));
                }
                Value::RecClosure { group, index }
            }
            TAG_CON => {
                let tag = self.input.u32()?;
                let payload = match self.input.u8()? {
                    0 => None,
                    1 => Some(Rc::new(self.value(depth + 1)?)),
                    _ => return Err(WireError::Corrupt(BAD_CON_MARKER)),
                };
                Value::Con(tag, payload)
            }
            TAG_BACKREF => match self.backref()? {
                Shared::Pair(p) => Value::Pair(p),
                Shared::Frame(f) => Value::Frame(f),
                Shared::Closure(c) => Value::Closure(c),
                Shared::Group(_) => return Err(WireError::Corrupt(BACKREF_TO_GROUP)),
            },
            _ => return Err(WireError::Corrupt(BAD_VALUE_TAG)),
        })
    }

    /// One instruction. Its opcode byte is [`Instr::opcode`] — the
    /// numbering the statistics tables and the disassembler use, so a
    /// hex dump reads against what every other tool prints.
    fn instr(&mut self, depth: usize) -> Result<Instr, WireError> {
        if depth >= MAX_DECODE_DEPTH {
            return Err(WireError::TooDeep);
        }
        Ok(match self.input.u8()? {
            0 => Instr::Id,
            1 => Instr::Fst,
            2 => Instr::Snd,
            3 => Instr::Push,
            4 => Instr::Swap,
            5 => Instr::ConsPair,
            6 => Instr::App,
            7 => Instr::Quote(self.value(depth + 1)?),
            8 => Instr::Cur(self.block_ref()?),
            OP_EMIT => {
                let inner = self.instr(depth + 1)?;
                // The CCAM has no emit(emit(_)) (`instr::validate`).
                if matches!(inner, Instr::Emit(_)) {
                    return Err(WireError::Corrupt(NESTED_EMIT));
                }
                Instr::Emit(Box::new(inner))
            }
            10 => Instr::LiftV,
            11 => Instr::NewArena,
            12 => Instr::Merge,
            13 => Instr::Call,
            14 => Instr::Branch(self.block_ref()?, self.block_ref()?),
            15 => Instr::RecClos(self.read_blocks()?),
            16 => Instr::Pack(self.input.u32()?),
            17 => {
                let count = self.input.u32()?;
                let mut arms = Vec::new();
                for _ in 0..count {
                    let tag = self.input.u32()?;
                    let bind = self.input.bool()?;
                    let code = self.block_ref()?;
                    arms.push(SwitchArm { tag, bind, code });
                }
                let default = match self.input.u8()? {
                    0 => None,
                    1 => Some(self.block_ref()?),
                    _ => return Err(WireError::Corrupt(BAD_DEFAULT_MARKER)),
                };
                Instr::Switch(Rc::new(SwitchTable { arms, default }))
            }
            18 => Instr::Prim(prim_from_byte(self.input.u8()?)?),
            19 => Instr::Fail(Rc::new(self.input.str()?.to_owned())),
            20 => Instr::MergeBranch,
            21 => {
                let count = self.input.u32()?;
                let mut arms = Vec::new();
                for _ in 0..count {
                    let tag = self.input.u32()?;
                    let bind = self.input.bool()?;
                    arms.push((tag, bind));
                }
                let default = self.input.bool()?;
                Instr::MergeSwitch(Rc::new(MergeSwitchSpec { arms, default }))
            }
            22 => Instr::MergeRec(self.input.u32()? as usize),
            23 => Instr::Acc(self.input.u32()? as usize),
            24 => Instr::PushAcc(self.input.u32()? as usize),
            25 => Instr::QuoteCons(Rc::new(self.value(depth + 1)?)),
            26 => Instr::SwapCons,
            27 => Instr::ConsApp,
            28 => Instr::AccApp(self.input.u32()? as usize),
            29 => Instr::PushQuote(Rc::new(self.value(depth + 1)?)),
            30 => Instr::EnvCons,
            _ => return Err(WireError::Corrupt(BAD_OPCODE)),
        })
    }
}

/// A decoded payload: a fresh segment holding every block, the root
/// value, and what the decoder counted.
///
/// Code that quotes a closure over its own segment (any `lift` of a
/// closure) makes an `Rc` cycle — segment → `quote` → closure → segment —
/// so a decode whose graph is not kept must end in
/// [`discard`](Decoded::discard), which breaks it. A check of the bytes
/// alone is [`validate`], which builds no graph.
#[derive(Debug)]
pub struct Decoded {
    /// The segment the payload's blocks were installed in (payload block
    /// `i` is `BlockId(i)`).
    pub seg: CodeSeg,
    /// The root value.
    pub value: Value,
    /// Instruction count and frame flag, recomputed from the bytes.
    pub info: PayloadInfo,
}

impl Decoded {
    /// Drops the decoded graph, tearing the segment down first
    /// ([`CodeSeg::tear_down`]) so that no `Rc` cycle through it
    /// survives; returns what the decode counted.
    pub fn discard(self) -> PayloadInfo {
        self.seg.tear_down([self.value]);
        self.info
    }
}

/// Decodes a payload produced by [`encode`], consuming the entire input:
/// every block goes into one instruction vector and block table,
/// installed in a fresh segment once the whole payload has decoded.
///
/// # Errors
///
/// Returns a [`WireError`] on truncation, unknown tags, dangling or
/// cyclic references, out-of-range block numbers, nested emits,
/// over-deep nesting, or leftover bytes. Never panics.
pub fn decode(bytes: &[u8]) -> Result<Decoded, WireError> {
    let mut d = Decode {
        input: Reader { bytes, pos: 0 },
        seg: CodeSeg::new(),
        shared: Vec::new(),
        blocks: 0,
        uses_frames: false,
    };
    d.blocks = d.input.u32()?;
    let mut instrs = Vec::new();
    let mut table = Vec::new();
    for _ in 0..d.blocks {
        let len = d.input.u32()?;
        let start = u32::try_from(instrs.len()).map_err(|_| WireError::Corrupt(TOO_MANY_INSTRS))?;
        for _ in 0..len {
            instrs.push(d.instr(0)?);
        }
        table.push((start, len));
    }
    let value = d.value(0)?;
    if d.input.remaining() > 0 {
        return Err(WireError::TrailingBytes(d.input.remaining()));
    }
    let info = PayloadInfo {
        instructions: instrs.len(),
        uses_frames: d.uses_frames,
    };
    // Installed last: on every error path above the segment is still
    // empty, so the partial graph holds no cycle and drops cleanly.
    d.seg.install(instrs, table);
    Ok(Decoded {
        seg: d.seg,
        value,
        info,
    })
}

// ---------------------------------------------------------------------
// Validation: `decode`'s walk and checks, building nothing
// ---------------------------------------------------------------------

/// A filled entry of the validator's back-reference table: all a later
/// back-reference needs to know about the node it names.
#[derive(Clone, Copy)]
enum Node {
    /// A pair, frame or closure.
    Plain,
    /// A recursive group with this many bodies.
    Group(u32),
}

struct Validate<'a> {
    input: Reader<'a>,
    /// Shared nodes in first-emission order; `None` while a node's
    /// inline encoding is being walked.
    nodes: Vec<Option<Node>>,
    blocks: u32,
    uses_frames: bool,
}

impl Validate<'_> {
    fn block_ref(&mut self) -> Result<(), WireError> {
        self.input.block_ref(self.blocks).map(drop)
    }

    /// A counted list of block references; returns the count.
    fn block_refs(&mut self) -> Result<u32, WireError> {
        let count = self.input.u32()?;
        for _ in 0..count {
            self.block_ref()?;
        }
        Ok(count)
    }

    fn reserve(&mut self) -> usize {
        self.nodes.push(None);
        self.nodes.len() - 1
    }

    /// `Decode::value`'s walk.
    fn value(&mut self, depth: usize) -> Result<(), WireError> {
        if depth >= MAX_DECODE_DEPTH {
            return Err(WireError::TooDeep);
        }
        match self.input.u8()? {
            TAG_UNIT => {}
            TAG_INT => {
                self.input.i64()?;
            }
            TAG_BOOL => {
                self.input.bool()?;
            }
            TAG_STR => {
                self.input.str()?;
            }
            TAG_PAIR => {
                let slot = self.reserve();
                self.value(depth + 1)?;
                self.value(depth + 1)?;
                self.nodes[slot] = Some(Node::Plain);
            }
            TAG_FRAME => {
                self.uses_frames = true;
                let slot = self.reserve();
                self.value(depth + 1)?;
                for _ in 0..self.input.u32()? {
                    self.value(depth + 1)?;
                }
                self.nodes[slot] = Some(Node::Plain);
            }
            TAG_CLOSURE => {
                let slot = self.reserve();
                self.value(depth + 1)?;
                self.block_ref()?;
                self.nodes[slot] = Some(Node::Plain);
            }
            TAG_RECCLOSURE => {
                let bodies = match self.input.u8()? {
                    GROUP_INLINE => {
                        let slot = self.reserve();
                        self.value(depth + 1)?;
                        let bodies = self.block_refs()?;
                        self.nodes[slot] = Some(Node::Group(bodies));
                        bodies
                    }
                    GROUP_BACKREF => match self.input.backref(&self.nodes)? {
                        Node::Group(bodies) => bodies,
                        Node::Plain => return Err(WireError::Corrupt(NOT_A_GROUP)),
                    },
                    _ => return Err(WireError::Corrupt(BAD_GROUP_MARKER)),
                };
                if self.input.u32()? >= bodies {
                    return Err(WireError::Corrupt(BAD_REC_INDEX));
                }
            }
            TAG_CON => {
                self.input.u32()?;
                match self.input.u8()? {
                    0 => {}
                    1 => self.value(depth + 1)?,
                    _ => return Err(WireError::Corrupt(BAD_CON_MARKER)),
                }
            }
            TAG_BACKREF => {
                if let Node::Group(_) = self.input.backref(&self.nodes)? {
                    return Err(WireError::Corrupt(BACKREF_TO_GROUP));
                }
            }
            _ => return Err(WireError::Corrupt(BAD_VALUE_TAG)),
        }
        Ok(())
    }

    /// `Decode::instr`'s walk; returns the opcode.
    fn instr(&mut self, depth: usize) -> Result<u8, WireError> {
        if depth >= MAX_DECODE_DEPTH {
            return Err(WireError::TooDeep);
        }
        let op = self.input.u8()?;
        match op {
            0..=6 | 10..=13 | 20 | 26 | 27 | 30 => {}
            7 | 25 | 29 => self.value(depth + 1)?,
            8 => self.block_ref()?,
            OP_EMIT => {
                if self.instr(depth + 1)? == OP_EMIT {
                    return Err(WireError::Corrupt(NESTED_EMIT));
                }
            }
            14 => {
                self.block_ref()?;
                self.block_ref()?;
            }
            15 => {
                self.block_refs()?;
            }
            16 | 22 | 23 | 24 | 28 => {
                self.input.u32()?;
            }
            17 => {
                for _ in 0..self.input.u32()? {
                    self.input.u32()?;
                    self.input.bool()?;
                    self.block_ref()?;
                }
                match self.input.u8()? {
                    0 => {}
                    1 => self.block_ref()?,
                    _ => return Err(WireError::Corrupt(BAD_DEFAULT_MARKER)),
                }
            }
            18 => {
                prim_from_byte(self.input.u8()?)?;
            }
            19 => {
                self.input.str()?;
            }
            21 => {
                for _ in 0..self.input.u32()? {
                    self.input.u32()?;
                    self.input.bool()?;
                }
                self.input.bool()?;
            }
            _ => return Err(WireError::Corrupt(BAD_OPCODE)),
        }
        Ok(op)
    }
}

/// Checks a payload without building it: one walk that makes every
/// check [`decode`] makes, in the same order, and counts what `decode`
/// counts, but constructs no [`Value`], [`Instr`] or [`CodeSeg`].
/// `validate(b)` equals `decode(b).map(Decoded::discard)` for every
/// input, errors included, so bytes it accepts always decode.
///
/// # Errors
///
/// The [`WireError`] `decode` would return. Never panics.
pub fn validate(bytes: &[u8]) -> Result<PayloadInfo, WireError> {
    let mut v = Validate {
        input: Reader { bytes, pos: 0 },
        nodes: Vec::new(),
        blocks: 0,
        uses_frames: false,
    };
    v.blocks = v.input.u32()?;
    let mut instructions = 0usize;
    for _ in 0..v.blocks {
        let len = v.input.u32()?;
        u32::try_from(instructions).map_err(|_| WireError::Corrupt(TOO_MANY_INSTRS))?;
        for _ in 0..len {
            v.instr(0)?;
            instructions += 1;
        }
    }
    v.value(0)?;
    if v.input.remaining() > 0 {
        return Err(WireError::TrailingBytes(v.input.remaining()));
    }
    Ok(PayloadInfo {
        instructions,
        uses_frames: v.uses_frames,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::value::Arena;
    use std::cell::RefCell;

    fn closure(env: Value, body: Vec<Instr>) -> Value {
        Value::Closure(Rc::new(Closure {
            env,
            body: CodeSeg::new().entry(body),
        }))
    }

    fn closure_at(env: Value, seg: &CodeSeg, block: BlockId) -> Value {
        Value::Closure(Rc::new(Closure {
            env,
            body: CodeRef {
                seg: seg.clone(),
                block,
            },
        }))
    }

    /// Applies closure `f` to `arg` with a bare `app`.
    fn apply(f: Value, arg: Value) -> Value {
        let app = CodeSeg::new().entry(vec![Instr::App]);
        Machine::new().run(app, Value::pair(f, arg)).unwrap()
    }

    fn unhex(s: &str) -> Vec<u8> {
        let digits: Vec<u8> = s.bytes().filter(u8::is_ascii_hexdigit).collect();
        digits
            .chunks(2)
            .map(|p| u8::from_str_radix(std::str::from_utf8(p).unwrap(), 16).unwrap())
            .collect()
    }

    /// What `decode` makes of `bytes`, discarded, after checking that
    /// `validate` says the same.
    fn check(bytes: &[u8]) -> Result<PayloadInfo, WireError> {
        let decoded = decode(bytes).map(Decoded::discard);
        assert_eq!(validate(bytes), decoded, "validate disagrees with decode");
        decoded
    }

    /// Encodes `v`, decodes it, and checks that the decode re-encodes to
    /// the same bytes and counts what the encoder (and the validator)
    /// counted.
    fn roundtrip(v: &Value) -> (Decoded, Vec<u8>) {
        let (bytes, info) = encode(v).unwrap();
        assert_eq!(check(&bytes), Ok(info));
        let back = decode(&bytes).unwrap();
        assert_eq!(back.info, info);
        assert_eq!(
            encode(&back.value).unwrap().0,
            bytes,
            "decode-encode is not the identity on bytes"
        );
        (back, bytes)
    }

    fn pair_parts(v: &Value) -> (&Value, &Value) {
        let Value::Pair(p) = v else { panic!("{v:?}") };
        (&p.0, &p.1)
    }

    #[test]
    fn first_order_values_roundtrip() {
        let v = Value::tuple(vec![
            Value::Int(-3),
            Value::Bool(true),
            Value::str("hi"),
            Value::Con(2, Some(Rc::new(Value::Unit))),
        ]);
        let (back, _) = roundtrip(&v);
        assert_eq!(v.structural_eq(&back.value), Some(true));
        assert_eq!(back.info.instructions, 0, "no code reachable");
    }

    #[test]
    fn closures_roundtrip_and_still_run() {
        // fn x => snd x + 1, captured env ().
        let f = closure(
            Value::Unit,
            vec![
                Instr::Snd,
                Instr::Push,
                Instr::Quote(Value::Int(1)),
                Instr::ConsPair,
                Instr::Prim(PrimOp::Add),
            ],
        );
        // LiftV residualizes closures as `quote` immediates in generated
        // code; those must survive inside code, not just at the value
        // layer: fn x => f x.
        let g = closure(
            Value::Unit,
            vec![
                Instr::Snd,
                Instr::Push,
                Instr::Quote(f),
                Instr::Swap,
                Instr::ConsPair,
                Instr::App,
            ],
        );
        let (back, _) = roundtrip(&g);
        assert_eq!(back.info.instructions, 11);
        assert!(matches!(apply(back.value, Value::Int(41)), Value::Int(42)));
    }

    #[test]
    fn mutable_state_is_rejected() {
        let cases = [
            (Value::Arena(Arena::new()), "code arena"),
            (Value::Ref(Rc::new(RefCell::new(Value::Unit))), "ref cell"),
            (Value::Array(Rc::new(RefCell::new(vec![]))), "array"),
        ];
        for (v, kind) in cases {
            // Bury it in a quote of a closure's body to check the walk
            // is transitive through code.
            let buried = closure(
                Value::Unit,
                vec![Instr::Quote(Value::pair(Value::Int(1), v))],
            );
            let err = encode(&buried).unwrap_err();
            assert_eq!(err.kind, kind);
            assert!(err.to_string().contains(kind));
        }
    }

    #[test]
    fn sharing_survives_the_wire() {
        // One closure twice, a second closure over the same block, and a
        // shared pair environment.
        let seg = CodeSeg::new();
        let body = seg.add_block(vec![Instr::Id, Instr::Snd]);
        let shared = closure_at(Value::pair(Value::Int(1), Value::Int(2)), &seg, body);
        let other = closure_at(Value::Unit, &seg, body);
        let (back, _) = roundtrip(&Value::tuple(vec![shared.clone(), shared, other]));
        // The shared block is encoded once, so instruction count and
        // block count survive, and step counts will too.
        assert_eq!(back.info.instructions, 2);
        assert_eq!(back.seg.num_blocks(), 1);
        let (a, rest) = pair_parts(&back.value);
        let (b, c) = pair_parts(rest);
        let (Value::Closure(a), Value::Closure(b), Value::Closure(c)) = (a, b, c) else {
            panic!("{:?}", back.value)
        };
        assert!(Rc::ptr_eq(a, b), "closure sharing restored after decode");
        assert!(!Rc::ptr_eq(a, c));
        assert!(CodeRef::same_block(&a.body, &c.body), "block sharing too");
    }

    #[test]
    fn frames_are_flagged_by_recomputation() {
        // A closure whose captured environment is a frame — what flat
        // environment mode produces — keeps its representation (so its
        // step counts), and the payload is flagged so mismatched
        // consumers can refuse it.
        let env = Value::env_extend(
            Value::env_extend(Value::Unit, Value::Int(10)),
            Value::Int(20),
        );
        // After application the argument is slot 0, so acc 2 reads the
        // deepest captured binding.
        let f = closure(env.clone(), vec![Instr::Acc(2)]);
        let (back, _) = roundtrip(&Value::pair(f, env));
        assert!(back.info.uses_frames, "recomputed on decode");
        let (Value::Closure(c), Value::Frame(b)) = pair_parts(&back.value) else {
            panic!("{:?}", back.value)
        };
        let Value::Frame(a) = &c.env else {
            panic!("{:?}", c.env)
        };
        assert!(Rc::ptr_eq(a, b), "frame sharing restored");
        let out = apply(Value::Closure(c.clone()), Value::Unit);
        assert!(matches!(out, Value::Int(10)), "{out}");
        let plain = closure(Value::pair(Value::Unit, Value::Int(1)), vec![Instr::Snd]);
        assert!(!roundtrip(&plain).0.info.uses_frames);
    }

    #[test]
    fn every_instruction_crosses_the_wire() {
        // One of each instruction, nested blocks included, so adding an
        // instruction without a wire rendering fails this test.
        let seg = CodeSeg::new();
        let sub = seg.add_block(vec![Instr::Id]);
        let all = vec![
            Instr::Id,
            Instr::Fst,
            Instr::Snd,
            Instr::Acc(2),
            Instr::Push,
            Instr::Swap,
            Instr::ConsPair,
            Instr::App,
            Instr::Quote(Value::Int(7)),
            Instr::Cur(sub),
            Instr::Emit(Box::new(Instr::Snd)),
            Instr::LiftV,
            Instr::NewArena,
            Instr::Merge,
            Instr::Call,
            Instr::Branch(sub, sub),
            Instr::RecClos(Rc::new(vec![sub])),
            Instr::Pack(3),
            Instr::Switch(Rc::new(SwitchTable {
                arms: vec![SwitchArm {
                    tag: 0,
                    bind: true,
                    code: sub,
                }],
                default: Some(sub),
            })),
            Instr::Prim(PrimOp::Mul),
            Instr::Fail(Rc::new("boom".into())),
            Instr::MergeBranch,
            Instr::MergeSwitch(Rc::new(MergeSwitchSpec {
                arms: vec![(0, true)],
                default: true,
            })),
            Instr::MergeRec(2),
            Instr::PushAcc(1),
            Instr::QuoteCons(Rc::new(Value::Int(8))),
            Instr::SwapCons,
            Instr::ConsApp,
            Instr::AccApp(0),
            Instr::PushQuote(Rc::new(Value::Bool(false))),
            Instr::EnvCons,
        ];
        let code = seg.entry(all);
        let f = Value::Closure(Rc::new(Closure {
            env: Value::Unit,
            body: code.clone(),
        }));
        let (back, _) = roundtrip(&f);
        assert_eq!(back.info.instructions, code.len() + 1);
        let Value::Closure(c) = &back.value else {
            panic!("{:?}", back.value)
        };
        let decoded = c.body.to_vec();
        assert_eq!(decoded.len(), code.len());
        for (orig, round) in code.to_vec().iter().zip(&decoded) {
            assert_eq!(orig.opcode(), round.opcode());
        }
    }

    /// One value reaching every kind of block reference in an order that
    /// differs from the order its blocks were created in: a recursive
    /// group over a frame environment, a switch with arms and a default,
    /// a branch, an `emit`, a `quote` of a closure over a second segment,
    /// one block shared by two closures, and a shared pair.
    fn ordering_value() -> Value {
        let seg = CodeSeg::new();
        let other = CodeSeg::new();
        let foreign_body = other.add_block(vec![Instr::Snd]);
        let foreign = closure_at(Value::Int(7), &other, foreign_body);
        let dflt = seg.add_block(vec![Instr::Fail(Rc::new("no arm".into()))]);
        let arm1 = seg.add_block(vec![Instr::Snd]);
        let arm0 = seg.add_block(vec![Instr::Prim(PrimOp::Add)]);
        let else_b = seg.add_block(vec![Instr::Emit(Box::new(Instr::Fst))]);
        let then_b = seg.add_block(vec![Instr::Quote(foreign), Instr::App]);
        let shared_body = seg.add_block(vec![Instr::Acc(1)]);
        let env_body = seg.add_block(vec![Instr::Id]);
        let pair_body = seg.add_block(vec![Instr::Fst]);
        let inner = seg.add_block(vec![Instr::Push]);
        let g = seg.add_block(vec![Instr::Switch(Rc::new(SwitchTable {
            arms: vec![
                SwitchArm {
                    tag: 0,
                    bind: true,
                    code: arm0,
                },
                SwitchArm {
                    tag: 1,
                    bind: false,
                    code: arm1,
                },
            ],
            default: Some(dflt),
        }))]);
        let f = seg.add_block(vec![
            Instr::Cur(inner),
            Instr::Branch(then_b, else_b),
            Instr::RecClos(Rc::new(vec![g])),
        ]);
        let frame = Value::env_extend(
            Value::env_extend(Value::Unit, closure_at(Value::Unit, &seg, env_body)),
            Value::Int(2),
        );
        let group = Rc::new(RecGroup {
            env: frame,
            seg: seg.clone(),
            bodies: Rc::new(vec![f, g]),
        });
        let shared_pair = Value::pair(Value::Int(3), closure_at(Value::Unit, &seg, pair_body));
        Value::tuple(vec![
            Value::RecClosure { group, index: 1 },
            closure_at(shared_pair.clone(), &seg, shared_body),
            closure_at(shared_pair.clone(), &seg, shared_body),
            shared_pair,
        ])
    }

    /// `ordering_value`'s payload. Stored artifacts must keep decoding
    /// and re-encode to the same bytes, so the block numbering is part of
    /// the format.
    const ORDERING_HEX: &str = "\
        0c0000000300000008010000000e02000000040000000f010000000500000001\
        0000000302000000070601070000000000000003000000060100000002010000\
        0009010100000011020000000000000001060000000100000000070000000108\
        00000001000000120001000000020100000013060000006e6f2061726d010000\
        0000010000000101000000170100000004070005000200000006000900000001\
        0200000000000000020000000000000005000000010000000406040103000000\
        0000000006000a0000000b000000040609070000000b0000000907000000";

    #[test]
    fn block_orderings_are_pinned() {
        let (back, bytes) = roundtrip(&ordering_value());
        assert_eq!(bytes, unhex(ORDERING_HEX));
        assert_eq!(back.info.instructions, 15);
        assert!(back.info.uses_frames);
    }

    /// The forms only promotion and the compiler's inexhaustive-match
    /// path make, which no cold-compiled artifact holds: `fail` with its
    /// message, the fused constants `quote_cons`/`push_quote`, and a
    /// `quote` inside an `emit`. Their bytes are pinned so that a change
    /// to how the instruction holds its operand cannot change the format.
    const FUSED_HEX: &str = "\
        01000000 04000000 \
        13 08000000 6e6f206d61746368 \
        19 04 01 0100000000000000 03 01000000 6b \
        1d 02 00 \
        09 07 00 \
        06 00 00000000";

    #[test]
    fn fused_forms_are_pinned() {
        let seg = CodeSeg::new();
        let body = seg.add_block(vec![
            Instr::Fail(Rc::new("no match".into())),
            Instr::QuoteCons(Rc::new(Value::pair(Value::Int(1), Value::str("k")))),
            Instr::PushQuote(Rc::new(Value::Bool(false))),
            Instr::Emit(Box::new(Instr::Quote(Value::Unit))),
        ]);
        let (back, bytes) = roundtrip(&closure_at(Value::Unit, &seg, body));
        assert_eq!(bytes, unhex(FUSED_HEX));
        assert_eq!(back.info.instructions, 4);
    }

    #[test]
    fn every_edit_of_the_pinned_payload_validates_as_it_decodes() {
        // The pinned payload reaches every kind of block reference, a
        // recursive group, frames, an emit and back-references, so its
        // edits reach every check of both walks.
        let bytes = unhex(ORDERING_HEX);
        for cut in 0..bytes.len() {
            assert!(check(&bytes[..cut]).is_err(), "prefix of {cut} bytes");
        }
        for pos in 0..bytes.len() {
            let mut edited = bytes.clone();
            for byte in 0..=u8::MAX {
                edited[pos] = byte;
                let _ = check(&edited);
            }
        }
    }

    #[test]
    fn nested_emits_are_refused() {
        // One block holding emit(emit(id)), and a closure over it.
        let bytes = unhex("01000000 01000000 090900 06 00 00000000");
        assert_eq!(check(&bytes), Err(WireError::Corrupt("nested emit")));
    }

    #[test]
    fn truncation_always_errors_never_panics() {
        let f = closure(
            Value::pair(Value::str("abc"), Value::Int(5)),
            vec![
                Instr::Quote(Value::Int(1)),
                Instr::Prim(PrimOp::Add),
                Instr::Fail(Rc::new("nope".into())),
            ],
        );
        let (bytes, _) = encode(&f).unwrap();
        for len in 0..bytes.len() {
            assert!(
                check(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn corrupt_bytes_never_panic() {
        let f = closure(
            Value::tuple(vec![Value::Int(1), Value::str("x"), Value::Bool(true)]),
            vec![Instr::Snd, Instr::Prim(PrimOp::Add)],
        );
        let (bytes, _) = encode(&f).unwrap();
        for pos in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= flip;
                // Either outcome is acceptable at the payload layer (the
                // container checksum catches silent mutations); the
                // requirement is no panic, and validate agreeing.
                let _ = check(&corrupt);
            }
        }
    }

    #[test]
    fn hostile_nesting_errors_instead_of_overflowing() {
        // A payload of nothing but pair tags: blocks=0, then pair, pair,
        // pair, ... — each level claims two children and recursion would
        // run one level per byte.
        let mut bytes = vec![0, 0, 0, 0]; // zero blocks
        bytes.extend(std::iter::repeat_n(TAG_PAIR, MAX_DECODE_DEPTH + 10));
        assert_eq!(check(&bytes), Err(WireError::TooDeep));
    }

    #[test]
    fn dangling_and_cyclic_backrefs_are_rejected() {
        // blocks=0, then a bare backref to index 0 (nothing emitted).
        let mut bytes = vec![0, 0, 0, 0, TAG_BACKREF];
        bytes.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            check(&bytes),
            Err(WireError::Corrupt("dangling back-reference"))
        );
        // blocks=0, then a pair whose first child back-references the
        // pair itself (index 0, still unfilled): a cycle.
        let mut bytes = vec![0, 0, 0, 0, TAG_PAIR, TAG_BACKREF];
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.push(TAG_UNIT);
        assert_eq!(
            check(&bytes),
            Err(WireError::Corrupt("cyclic back-reference"))
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let (mut bytes, _) = encode(&Value::Int(3)).unwrap();
        bytes.push(0);
        assert_eq!(check(&bytes), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn out_of_range_block_refs_are_rejected() {
        // blocks=0, then a closure with env=unit and body block 7.
        let mut bytes = vec![0, 0, 0, 0, TAG_CLOSURE, TAG_UNIT];
        bytes.extend_from_slice(&7u32.to_le_bytes());
        assert_eq!(
            check(&bytes),
            Err(WireError::Corrupt("block reference out of range"))
        );
    }
}
