//! Thread-shareable renderings of frozen code and first-order values.
//!
//! The machine's run-time representation is deliberately single-threaded:
//! code lives in a [`CodeSeg`] (an `Rc`-shared, `RefCell`-grown arena),
//! values share structure through `Rc`, and arenas/references/arrays carry
//! `RefCell`s. That is the right choice for the simulator's hot path, but
//! it means a specialized program — the paper's *generate once, run many*
//! artifact — cannot leave the thread that generated it.
//!
//! This module defines a parallel, immutable, `Send + Sync` representation
//! ([`PortableSeg`], [`PortableInstr`], [`PortableValue`],
//! [`PortableCode`]) plus two conversions:
//!
//! - **extraction** ([`PortableValue::extract`], [`extract_code`]): walks
//!   the reachable blocks of the source segment(s) and packs them into one
//!   dense [`PortableSeg`] — a flat instruction vector plus a block table,
//!   mirroring [`CodeSeg`] itself — preserving sharing (a block referenced
//!   from two closures is packed once) and *rejecting* anything whose
//!   semantics depend on shared mutation: arenas still under construction,
//!   `ref` cells, arrays. Those are the escape hatches that must not leak
//!   into a cross-thread artifact.
//! - **hydration** ([`PortableValue::hydrate`], [`hydrate_code`]): the
//!   inverse, rebuilding a machine segment inside whichever thread
//!   wants to execute the code. Because the portable form is already flat
//!   with index-based block references, hydration is a single pass that
//!   copies the block table verbatim — portable block `i` becomes
//!   [`BlockId`]`(i)` of one fresh segment — rather than a pointer-chasing
//!   graph walk.
//!
//! Extraction and hydration cost one pass each; afterwards execution pays
//! no synchronization at all — every worker runs plain `Rc` values on its
//! own [`crate::machine::Machine`].

use crate::instr::{Instr, MergeSwitchSpec, PrimOp, SwitchArm, SwitchTable};
use crate::seg::{BlockId, CodeRef, CodeSeg};
use crate::value::{Closure, ConTag, Frame, RecGroup, Value};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// A thread-shareable code segment: the portable mirror of [`CodeSeg`].
/// Immutable once built; shared by reference between every value and
/// instruction extracted together.
#[derive(Debug)]
pub struct PortableSegData {
    /// All instructions, block after block.
    pub instrs: Vec<PortableInstr>,
    /// The block table: `(start, len)` ranges into `instrs`, indexed by
    /// portable block number.
    pub blocks: Vec<(u32, u32)>,
}

/// Shared handle to a [`PortableSegData`].
pub type PortableSeg = Arc<PortableSegData>;

impl PortableSegData {
    /// The instructions of one block.
    pub fn block(&self, b: u32) -> &[PortableInstr] {
        let (start, len) = self.blocks[b as usize];
        &self.instrs[start as usize..(start + len) as usize]
    }
}

/// A thread-shareable reference to executable code: a portable segment
/// plus the entry block to run.
#[derive(Debug, Clone)]
pub struct PortableCode {
    /// The segment holding the instructions.
    pub seg: PortableSeg,
    /// The entry block.
    pub block: u32,
}

impl PortableCode {
    /// The entry block's instructions.
    pub fn instrs(&self) -> &[PortableInstr] {
        self.seg.block(self.block)
    }
}

/// A thread-shareable closure body or value graph root (see
/// [`crate::value::Closure`]). Block references are portable block
/// numbers into the owning [`PortableValue`]'s segment.
#[derive(Debug)]
pub struct PortableClosure {
    /// Captured environment value.
    pub env: PortableVal,
    /// Body block.
    pub body: u32,
}

/// A thread-shareable recursive closure group (see
/// [`crate::value::RecGroup`]).
#[derive(Debug)]
pub struct PortableRecGroup {
    /// The environment captured at group-creation time.
    pub env: PortableVal,
    /// One body block per function in the group.
    pub bodies: Arc<Vec<u32>>,
}

/// A thread-shareable contiguous environment frame (see
/// [`crate::value::Frame`]): the flat-environment-mode rendering of a
/// pair spine.
#[derive(Debug)]
pub struct PortableFrame {
    /// The enclosing environment.
    pub link: PortableVal,
    /// Bindings, oldest first.
    pub slots: Vec<PortableVal>,
}

/// One arm of a portable `switch` dispatch (see [`SwitchArm`]).
#[derive(Debug, Clone)]
pub struct PortableSwitchArm {
    /// Tag to match.
    pub tag: ConTag,
    /// Whether the arm binds the constructor payload.
    pub bind: bool,
    /// Arm body block.
    pub code: u32,
}

/// A portable `switch` dispatch table (see [`SwitchTable`]).
#[derive(Debug, Clone)]
pub struct PortableSwitchTable {
    /// Arms in declaration order.
    pub arms: Vec<PortableSwitchArm>,
    /// Fallback block.
    pub default: Option<u32>,
}

/// The immutable subset of [`Value`], with code as portable block
/// numbers. Always paired with the [`PortableSeg`] those numbers index
/// into — see [`PortableValue`], the self-contained wrapper.
///
/// Mutable values (arenas, `ref` cells, arrays) have no portable
/// rendering — sharing them across threads would either race or silently
/// change semantics — so [`PortableValue::extract`] rejects them.
#[derive(Debug, Clone)]
pub enum PortableVal {
    /// The unit value.
    Unit,
    /// An integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(Arc<str>),
    /// A pair.
    Pair(Arc<(PortableVal, PortableVal)>),
    /// A contiguous environment frame (flat environment mode only).
    Frame(Arc<PortableFrame>),
    /// A closure.
    Closure(Arc<PortableClosure>),
    /// A member of a recursive closure group.
    RecClosure {
        /// The shared group.
        group: Arc<PortableRecGroup>,
        /// Which member this value is.
        index: usize,
    },
    /// A datatype constructor application.
    Con(ConTag, Option<Arc<PortableVal>>),
}

/// A self-contained thread-shareable value: a [`PortableVal`] graph plus
/// the [`PortableSeg`] its block numbers index into.
#[derive(Debug, Clone)]
pub struct PortableValue {
    /// The segment holding every code block the value references.
    pub seg: PortableSeg,
    /// The value graph.
    pub root: PortableVal,
    /// Whether the graph (including `quote` immediates in reachable
    /// code) contains [`PortableVal::Frame`] environments — set at
    /// extraction time so consumers can refuse to hydrate a
    /// flat-environment artifact into a pair-spine session.
    uses_frames: bool,
}

/// A thread-shareable instruction: the mirror of [`Instr`] with every
/// block reference flattened to a portable block number and every
/// embedded [`Value`] replaced by [`PortableVal`].
#[derive(Debug, Clone)]
pub enum PortableInstr {
    /// No-op.
    Id,
    /// First projection.
    Fst,
    /// Second projection.
    Snd,
    /// Fused indexed environment access.
    Acc(usize),
    /// Duplicate the top of the stack.
    Push,
    /// Exchange the two top stack entries.
    Swap,
    /// Build a pair.
    ConsPair,
    /// Apply a closure.
    App,
    /// Push a constant.
    Quote(PortableVal),
    /// Build a closure.
    Cur(u32),
    /// Append a static instruction to the arena under construction.
    Emit(Box<PortableInstr>),
    /// Residualize the current value into the arena.
    LiftV,
    /// Create a fresh arena.
    NewArena,
    /// Insert an arena into another as a `Cur` body.
    Merge,
    /// Splice generated code into the instruction stream.
    Call,
    /// Conditional.
    Branch(u32, u32),
    /// Recursive closure group.
    RecClos(Arc<Vec<u32>>),
    /// Constructor application.
    Pack(ConTag),
    /// Constructor dispatch.
    Switch(Arc<PortableSwitchTable>),
    /// Primitive operation.
    Prim(PrimOp),
    /// Abort with a message.
    Fail(Arc<str>),
    /// Merge-family conditional.
    MergeBranch,
    /// Merge-family dispatch.
    MergeSwitch(Arc<MergeSwitchSpec>),
    /// Merge-family recursion.
    MergeRec(usize),
    /// Fused `push; acc n`.
    PushAcc(usize),
    /// Fused `quote v; cons`.
    QuoteCons(PortableVal),
    /// Fused `swap; cons`.
    SwapCons,
    /// Fused `cons; app`.
    ConsApp,
    /// Fused `acc n; app`.
    AccApp(usize),
    /// Fused `push; quote v`.
    PushQuote(PortableVal),
    /// Environment extension as a frame slot (flat environment mode).
    EnvCons,
}

// The entire point of this module: everything above must be shareable
// across threads. Compile-time enforcement.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PortableValue>();
    assert_send_sync::<PortableVal>();
    assert_send_sync::<PortableInstr>();
    assert_send_sync::<PortableCode>();
    assert_send_sync::<PortableSeg>();
};

/// Why a value could not be extracted into portable form.
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

/// Extraction state. Blocks are memoized per `(segment identity, block)`,
/// both to preserve sharing (hydration restores it) and to keep the
/// conversion linear in the size of the object graph — generated code is
/// often a DAG (memoized generating extensions reuse whole blocks).
/// Value-level sharing (pairs, closures, groups) is memoized by pointer
/// for the same reason.
#[derive(Default)]
struct Extract {
    instrs: Vec<PortableInstr>,
    blocks: Vec<(u32, u32)>,
    /// `(CodeSeg::addr, block id)` → portable block number. The source
    /// segments are kept alive by the value under extraction, so the
    /// addresses are stable for the duration.
    block_memo: HashMap<(usize, u32), u32>,
    pairs: HashMap<*const (Value, Value), Arc<(PortableVal, PortableVal)>>,
    frames: HashMap<*const Frame, Arc<PortableFrame>>,
    closures: HashMap<*const Closure, Arc<PortableClosure>>,
    groups: HashMap<*const RecGroup, Arc<PortableRecGroup>>,
    uses_frames: bool,
}

impl Extract {
    fn finish(self) -> PortableSeg {
        Arc::new(PortableSegData {
            instrs: self.instrs,
            blocks: self.blocks,
        })
    }

    /// Packs one block of `seg` (and, transitively, every block it
    /// references) into the portable segment, returning its portable
    /// block number.
    fn block(&mut self, seg: &CodeSeg, b: BlockId) -> Result<u32, ExtractError> {
        let key = (seg.addr(), b.0);
        if let Some(done) = self.block_memo.get(&key) {
            return Ok(*done);
        }
        // Reserve the number first so sharing within the block's own
        // reference graph resolves; the range is filled in below.
        let number = u32::try_from(self.blocks.len()).expect("portable segment exceeds u32 blocks");
        self.blocks.push((0, 0));
        self.block_memo.insert(key, number);
        let converted = seg
            .block_to_vec(b)
            .iter()
            .map(|i| self.instr(seg, i))
            .collect::<Result<Vec<_>, _>>()?;
        let start =
            u32::try_from(self.instrs.len()).expect("portable segment exceeds u32 instructions");
        let len = u32::try_from(converted.len()).expect("block exceeds u32 instructions");
        self.instrs.extend(converted);
        self.blocks[number as usize] = (start, len);
        Ok(number)
    }

    fn value(&mut self, v: &Value) -> Result<PortableVal, ExtractError> {
        Ok(match v {
            Value::Unit => PortableVal::Unit,
            Value::Int(n) => PortableVal::Int(*n),
            Value::Bool(b) => PortableVal::Bool(*b),
            Value::Str(s) => PortableVal::Str(Arc::from(s.as_str())),
            Value::Pair(p) => {
                let key = Rc::as_ptr(p);
                if let Some(done) = self.pairs.get(&key) {
                    return Ok(PortableVal::Pair(done.clone()));
                }
                let pair = Arc::new((self.value(&p.0)?, self.value(&p.1)?));
                self.pairs.insert(key, pair.clone());
                PortableVal::Pair(pair)
            }
            Value::Frame(f) => {
                self.uses_frames = true;
                let key = Rc::as_ptr(f);
                if let Some(done) = self.frames.get(&key) {
                    return Ok(PortableVal::Frame(done.clone()));
                }
                let frame = Arc::new(PortableFrame {
                    link: self.value(&f.link)?,
                    slots: f
                        .slots
                        .iter()
                        .map(|s| self.value(s))
                        .collect::<Result<Vec<_>, _>>()?,
                });
                self.frames.insert(key, frame.clone());
                PortableVal::Frame(frame)
            }
            Value::Closure(c) => {
                let key = Rc::as_ptr(c);
                if let Some(done) = self.closures.get(&key) {
                    return Ok(PortableVal::Closure(done.clone()));
                }
                let closure = Arc::new(PortableClosure {
                    env: self.value(&c.env)?,
                    body: self.block(&c.body.seg, c.body.block)?,
                });
                self.closures.insert(key, closure.clone());
                PortableVal::Closure(closure)
            }
            Value::RecClosure { group, index } => {
                let key = Rc::as_ptr(group);
                let group = if let Some(done) = self.groups.get(&key) {
                    done.clone()
                } else {
                    let bodies = group
                        .bodies
                        .iter()
                        .map(|b| self.block(&group.seg, *b))
                        .collect::<Result<Vec<_>, _>>()?;
                    let g = Arc::new(PortableRecGroup {
                        env: self.value(&group.env)?,
                        bodies: Arc::new(bodies),
                    });
                    self.groups.insert(key, g.clone());
                    g
                };
                PortableVal::RecClosure {
                    group,
                    index: *index as usize,
                }
            }
            Value::Con(tag, payload) => PortableVal::Con(
                *tag,
                match payload {
                    Some(p) => Some(Arc::new(self.value(p)?)),
                    None => None,
                },
            ),
            Value::Arena(_) => return Err(ExtractError { kind: "code arena" }),
            Value::Ref(_) => return Err(ExtractError { kind: "ref cell" }),
            Value::Array(_) => return Err(ExtractError { kind: "array" }),
        })
    }

    fn instr(&mut self, seg: &CodeSeg, i: &Instr) -> Result<PortableInstr, ExtractError> {
        Ok(match i {
            Instr::Id => PortableInstr::Id,
            Instr::Fst => PortableInstr::Fst,
            Instr::Snd => PortableInstr::Snd,
            Instr::Acc(n) => PortableInstr::Acc(*n),
            Instr::Push => PortableInstr::Push,
            Instr::Swap => PortableInstr::Swap,
            Instr::ConsPair => PortableInstr::ConsPair,
            Instr::App => PortableInstr::App,
            Instr::Quote(v) => PortableInstr::Quote(self.value(v)?),
            Instr::Cur(c) => PortableInstr::Cur(self.block(seg, *c)?),
            Instr::Emit(inner) => PortableInstr::Emit(Box::new(self.instr(seg, inner)?)),
            Instr::LiftV => PortableInstr::LiftV,
            Instr::NewArena => PortableInstr::NewArena,
            Instr::Merge => PortableInstr::Merge,
            Instr::Call => PortableInstr::Call,
            Instr::Branch(t, e) => {
                PortableInstr::Branch(self.block(seg, *t)?, self.block(seg, *e)?)
            }
            Instr::RecClos(bodies) => {
                let bodies = bodies
                    .iter()
                    .map(|b| self.block(seg, *b))
                    .collect::<Result<Vec<_>, _>>()?;
                PortableInstr::RecClos(Arc::new(bodies))
            }
            Instr::Pack(tag) => PortableInstr::Pack(*tag),
            Instr::Switch(table) => {
                let arms = table
                    .arms
                    .iter()
                    .map(|a| {
                        Ok(PortableSwitchArm {
                            tag: a.tag,
                            bind: a.bind,
                            code: self.block(seg, a.code)?,
                        })
                    })
                    .collect::<Result<Vec<_>, ExtractError>>()?;
                let default = match table.default {
                    Some(d) => Some(self.block(seg, d)?),
                    None => None,
                };
                PortableInstr::Switch(Arc::new(PortableSwitchTable { arms, default }))
            }
            Instr::Prim(op) => PortableInstr::Prim(*op),
            Instr::Fail(msg) => PortableInstr::Fail(Arc::from(&**msg)),
            Instr::MergeBranch => PortableInstr::MergeBranch,
            Instr::MergeSwitch(spec) => PortableInstr::MergeSwitch(Arc::new((**spec).clone())),
            Instr::MergeRec(n) => PortableInstr::MergeRec(*n),
            Instr::PushAcc(n) => PortableInstr::PushAcc(*n),
            Instr::QuoteCons(v) => PortableInstr::QuoteCons(self.value(v)?),
            Instr::SwapCons => PortableInstr::SwapCons,
            Instr::ConsApp => PortableInstr::ConsApp,
            Instr::AccApp(n) => PortableInstr::AccApp(*n),
            Instr::PushQuote(v) => PortableInstr::PushQuote(self.value(v)?),
            Instr::EnvCons => PortableInstr::EnvCons,
        })
    }
}

/// Hydration state: one fresh [`CodeSeg`] per portable segment (shared by
/// every value hydrated together), plus pointer memos restoring
/// value-level sharing.
struct Hydrate {
    seg: CodeSeg,
    pairs: HashMap<*const (PortableVal, PortableVal), Rc<(Value, Value)>>,
    frames: HashMap<*const PortableFrame, Rc<Frame>>,
    closures: HashMap<*const PortableClosure, Rc<Closure>>,
    groups: HashMap<*const PortableRecGroup, Rc<RecGroup>>,
}

impl Hydrate {
    fn code(&self, b: u32) -> CodeRef {
        CodeRef {
            seg: self.seg.clone(),
            block: BlockId(b),
        }
    }

    fn value(&mut self, v: &PortableVal) -> Value {
        match v {
            PortableVal::Unit => Value::Unit,
            PortableVal::Int(n) => Value::Int(*n),
            PortableVal::Bool(b) => Value::Bool(*b),
            PortableVal::Str(s) => Value::str(&**s),
            PortableVal::Pair(p) => {
                let key = Arc::as_ptr(p);
                if let Some(done) = self.pairs.get(&key) {
                    return Value::Pair(done.clone());
                }
                let pair = Rc::new((self.value(&p.0), self.value(&p.1)));
                self.pairs.insert(key, pair.clone());
                Value::Pair(pair)
            }
            PortableVal::Frame(f) => {
                let key = Arc::as_ptr(f);
                if let Some(done) = self.frames.get(&key) {
                    return Value::Frame(done.clone());
                }
                let frame = Rc::new(Frame {
                    link: self.value(&f.link),
                    slots: f.slots.iter().map(|s| self.value(s)).collect(),
                });
                self.frames.insert(key, frame.clone());
                Value::Frame(frame)
            }
            PortableVal::Closure(c) => {
                let key = Arc::as_ptr(c);
                if let Some(done) = self.closures.get(&key) {
                    return Value::Closure(done.clone());
                }
                let closure = Rc::new(Closure {
                    env: self.value(&c.env),
                    body: self.code(c.body),
                });
                self.closures.insert(key, closure.clone());
                Value::Closure(closure)
            }
            PortableVal::RecClosure { group, index } => {
                let key = Arc::as_ptr(group);
                let group = if let Some(done) = self.groups.get(&key) {
                    done.clone()
                } else {
                    let g = Rc::new(RecGroup {
                        env: self.value(&group.env),
                        seg: self.seg.clone(),
                        bodies: Rc::new(group.bodies.iter().map(|b| BlockId(*b)).collect()),
                    });
                    self.groups.insert(key, g.clone());
                    g
                };
                Value::RecClosure {
                    group,
                    index: u32::try_from(*index).expect("rec group exceeds u32 members"),
                }
            }
            PortableVal::Con(tag, payload) => {
                Value::Con(*tag, payload.as_ref().map(|p| Rc::new(self.value(p))))
            }
        }
    }
}

impl PortableValue {
    /// Extracts a machine value into portable form, packing every
    /// reachable code block into one dense portable segment.
    ///
    /// # Errors
    ///
    /// Returns an [`ExtractError`] if the value (transitively) contains an
    /// arena, a `ref` cell, or an array.
    pub fn extract(v: &Value) -> Result<PortableValue, ExtractError> {
        let mut e = Extract::default();
        let root = e.value(v)?;
        let uses_frames = e.uses_frames;
        Ok(PortableValue {
            seg: e.finish(),
            root,
            uses_frames,
        })
    }

    /// Assembles a portable value from already-validated parts. Only the
    /// wire decoder uses this: `uses_frames` is an invariant of the graph
    /// (recomputed during decode, never trusted from the producer), so the
    /// constructor stays crate-private.
    pub(crate) fn from_parts(seg: PortableSeg, root: PortableVal, uses_frames: bool) -> Self {
        PortableValue {
            seg,
            root,
            uses_frames,
        }
    }

    /// Whether the value graph contains contiguous environment frames
    /// ([`PortableVal::Frame`]). Frames only exist under the flat
    /// environment mode; a consumer running a different mode must refuse
    /// to hydrate such a value rather than silently mixing
    /// representations with different step counts.
    pub fn uses_frames(&self) -> bool {
        self.uses_frames
    }

    /// Rebuilds a machine value inside the calling thread: one
    /// fresh segment (the block table copies over verbatim), then the
    /// value graph. Sharing present at extraction time is restored.
    pub fn hydrate(&self) -> Value {
        let mut h = hydrate_seg(&self.seg);
        h.value(&self.root)
    }

    /// Total number of instructions reachable from this value, counting
    /// each shared block once (the artifact-size metric). Because
    /// extraction packs exactly the reachable blocks, this is simply the
    /// portable segment's length.
    pub fn instr_count(&self) -> usize {
        self.seg.instrs.len()
    }
}

/// Extracts a frozen code reference into portable form.
///
/// # Errors
///
/// Returns an [`ExtractError`] if an embedded constant (`quote`)
/// contains a non-portable value.
pub fn extract_code(c: &CodeRef) -> Result<PortableCode, ExtractError> {
    let mut e = Extract::default();
    let block = e.block(&c.seg, c.block)?;
    Ok(PortableCode {
        seg: e.finish(),
        block,
    })
}

/// Rebuilds machine code inside the calling thread (one fresh
/// segment per call).
pub fn hydrate_code(c: &PortableCode) -> CodeRef {
    let h = hydrate_seg(&c.seg);
    h.code(c.block)
}

/// Rebuilds the whole portable segment as one machine segment in a single
/// pass, block table carried over verbatim (portable block `i` becomes
/// `BlockId(i)`).
fn hydrate_seg(p: &PortableSeg) -> Hydrate {
    let seg = CodeSeg::new();
    let mut h = Hydrate {
        seg: seg.clone(),
        pairs: HashMap::new(),
        frames: HashMap::new(),
        closures: HashMap::new(),
        groups: HashMap::new(),
    };
    for b in 0..p.blocks.len() {
        let instrs: Vec<Instr> = p
            .block(b as u32)
            .iter()
            .map(|i| hydrate_instr(&mut h, i))
            .collect();
        h.seg.add_block(instrs);
    }
    h
}

/// Converts one portable instruction back to machine form. Block numbers
/// map to [`BlockId`]s directly (the hydrated segment's block table is a
/// verbatim copy of the portable one); `Quote`d values are rebuilt
/// through `h` so value-level sharing is restored.
fn hydrate_instr(h: &mut Hydrate, i: &PortableInstr) -> Instr {
    match i {
        PortableInstr::Id => Instr::Id,
        PortableInstr::Fst => Instr::Fst,
        PortableInstr::Snd => Instr::Snd,
        PortableInstr::Acc(n) => Instr::Acc(*n),
        PortableInstr::Push => Instr::Push,
        PortableInstr::Swap => Instr::Swap,
        PortableInstr::ConsPair => Instr::ConsPair,
        PortableInstr::App => Instr::App,
        PortableInstr::Quote(v) => Instr::Quote(h.value(v)),
        PortableInstr::Cur(c) => Instr::Cur(BlockId(*c)),
        PortableInstr::Emit(inner) => Instr::Emit(Box::new(hydrate_instr(h, inner))),
        PortableInstr::LiftV => Instr::LiftV,
        PortableInstr::NewArena => Instr::NewArena,
        PortableInstr::Merge => Instr::Merge,
        PortableInstr::Call => Instr::Call,
        PortableInstr::Branch(t, e) => Instr::Branch(BlockId(*t), BlockId(*e)),
        PortableInstr::RecClos(bodies) => {
            Instr::RecClos(Rc::new(bodies.iter().map(|b| BlockId(*b)).collect()))
        }
        PortableInstr::Pack(tag) => Instr::Pack(*tag),
        PortableInstr::Switch(table) => {
            let arms = table
                .arms
                .iter()
                .map(|a| SwitchArm {
                    tag: a.tag,
                    bind: a.bind,
                    code: BlockId(a.code),
                })
                .collect();
            let default = table.default.map(BlockId);
            Instr::Switch(Rc::new(SwitchTable { arms, default }))
        }
        PortableInstr::Prim(op) => Instr::Prim(*op),
        PortableInstr::Fail(msg) => Instr::Fail(Rc::from(&**msg)),
        PortableInstr::MergeBranch => Instr::MergeBranch,
        PortableInstr::MergeSwitch(spec) => Instr::MergeSwitch(Rc::new((**spec).clone())),
        PortableInstr::MergeRec(n) => Instr::MergeRec(*n),
        PortableInstr::PushAcc(n) => Instr::PushAcc(*n),
        PortableInstr::QuoteCons(v) => Instr::QuoteCons(h.value(v)),
        PortableInstr::SwapCons => Instr::SwapCons,
        PortableInstr::ConsApp => Instr::ConsApp,
        PortableInstr::AccApp(n) => Instr::AccApp(*n),
        PortableInstr::PushQuote(v) => Instr::PushQuote(h.value(v)),
        PortableInstr::EnvCons => Instr::EnvCons,
    }
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

    fn app() -> CodeRef {
        CodeSeg::new().entry(vec![Instr::App])
    }

    #[test]
    fn first_order_values_roundtrip() {
        let v = Value::tuple(vec![
            Value::Int(-3),
            Value::Bool(true),
            Value::str("hi"),
            Value::Con(2, Some(Rc::new(Value::Unit))),
        ]);
        let p = PortableValue::extract(&v).unwrap();
        assert_eq!(v.structural_eq(&p.hydrate()), Some(true));
        assert_eq!(p.instr_count(), 0, "no code reachable");
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
        let p = PortableValue::extract(&f).unwrap();
        let g = p.hydrate();
        let out = Machine::new()
            .run(app(), Value::pair(g, Value::Int(41)))
            .unwrap();
        assert!(matches!(out, Value::Int(42)));
    }

    #[test]
    fn mutable_state_is_rejected() {
        let cases = [
            (Value::Arena(Arena::new()), "code arena"),
            (Value::Ref(Rc::new(RefCell::new(Value::Unit))), "ref cell"),
            (Value::Array(Rc::new(RefCell::new(vec![]))), "array"),
        ];
        for (v, kind) in cases {
            // Bury it in a pair to check the traversal is transitive.
            let buried = Value::pair(Value::Int(1), v);
            let err = PortableValue::extract(&buried).unwrap_err();
            assert_eq!(err.kind, kind);
            assert!(err.to_string().contains(kind));
        }
    }

    #[test]
    fn shared_code_stays_shared_through_roundtrip() {
        // Two closures over one segment sharing one body block.
        let seg = CodeSeg::new();
        let body = seg.add_block(vec![Instr::Snd]);
        let mk = || {
            Value::Closure(Rc::new(Closure {
                env: Value::Unit,
                body: CodeRef {
                    seg: seg.clone(),
                    block: body,
                },
            }))
        };
        let f = Value::pair(mk(), mk());
        let p = PortableValue::extract(&f).unwrap();
        // Extraction packs the shared block once…
        assert_eq!(p.seg.blocks.len(), 1);
        assert_eq!(p.instr_count(), 1);
        let h = p.hydrate();
        // …and hydration restores the sharing: both closures reference
        // the same block of the same fresh segment.
        let (ha, hb) = match &h {
            Value::Pair(pair) => match (&pair.0, &pair.1) {
                (Value::Closure(a), Value::Closure(b)) => (a.clone(), b.clone()),
                other => panic!("unexpected: {other:?}"),
            },
            other => panic!("unexpected: {other:?}"),
        };
        assert!(CodeRef::same_block(&ha.body, &hb.body));
    }

    #[test]
    fn every_instruction_roundtrips() {
        // One of each instruction, nested blocks included, so adding an
        // instruction without a portable rendering fails this test.
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
            Instr::Fail(Rc::from("boom")),
            Instr::MergeBranch,
            Instr::MergeSwitch(Rc::new(MergeSwitchSpec {
                arms: vec![(0, true)],
                default: true,
            })),
            Instr::MergeRec(2),
            Instr::PushAcc(1),
            Instr::QuoteCons(Value::Int(8)),
            Instr::SwapCons,
            Instr::ConsApp,
            Instr::AccApp(0),
            Instr::PushQuote(Value::Bool(false)),
            Instr::EnvCons,
        ];
        let code = seg.entry(all);
        let portable = extract_code(&code).unwrap();
        let back = hydrate_code(&portable);
        assert_eq!(code.len(), back.len());
        for (orig, round) in code.to_vec().iter().zip(back.to_vec().iter()) {
            assert_eq!(orig.opcode(), round.opcode());
        }
    }

    #[test]
    fn frame_environments_roundtrip_and_are_flagged() {
        // A closure whose captured environment is a frame — what flat
        // environment mode produces — survives extraction faithfully
        // (same representation, so same step counts on hydrate), and the
        // artifact is flagged so mismatched consumers can refuse it.
        let env = Value::env_extend(
            Value::env_extend(Value::Unit, Value::Int(10)),
            Value::Int(20),
        );
        // After application the argument is slot 0, so acc 2 reads the
        // deepest captured binding.
        let f = closure(env, vec![Instr::Acc(2)]);
        let p = PortableValue::extract(&f).unwrap();
        assert!(p.uses_frames());
        let g = p.hydrate();
        let Value::Closure(c) = &g else {
            panic!("{g:?}")
        };
        assert!(matches!(c.env, Value::Frame(_)), "representation kept");
        let out = Machine::new()
            .run(app(), Value::pair(g, Value::Unit))
            .unwrap();
        assert!(matches!(out, Value::Int(10)), "{out}");
        // Pair-spine values are not flagged.
        let plain = closure(Value::pair(Value::Unit, Value::Int(1)), vec![Instr::Snd]);
        assert!(!PortableValue::extract(&plain).unwrap().uses_frames());
    }

    #[test]
    fn shared_frames_stay_shared_through_roundtrip() {
        let env = Value::env_extend(Value::Unit, Value::Int(1));
        let v = Value::pair(env.clone(), env);
        let p = PortableValue::extract(&v).unwrap();
        let h = p.hydrate();
        let Value::Pair(pair) = &h else {
            panic!("{h:?}")
        };
        let (Value::Frame(a), Value::Frame(b)) = (&pair.0, &pair.1) else {
            panic!("{h:?}")
        };
        assert!(Rc::ptr_eq(a, b), "frame sharing restored");
    }

    #[test]
    fn quoted_closures_roundtrip() {
        // LiftV residualizes closures as `quote` immediates in generated
        // code; those must survive extraction inside code, not just at
        // the value layer.
        let inner = closure(Value::Unit, vec![Instr::Snd]);
        let seg = CodeSeg::new();
        let code = seg.entry(vec![
            Instr::Push,
            Instr::Quote(inner),
            Instr::Swap,
            Instr::Quote(Value::Int(5)),
            Instr::ConsPair,
            Instr::App,
        ]);
        let p = extract_code(&code).unwrap();
        let back = hydrate_code(&p);
        let out = Machine::new().run(back, Value::Unit).unwrap();
        assert!(matches!(out, Value::Int(5)), "{out}");
    }

    #[test]
    fn instr_count_counts_shared_code_once() {
        let seg = CodeSeg::new();
        let body = seg.add_block(vec![Instr::Id, Instr::Snd]);
        let mk = || {
            Value::Closure(Rc::new(Closure {
                env: Value::Unit,
                body: CodeRef {
                    seg: seg.clone(),
                    block: body,
                },
            }))
        };
        let v = Value::pair(mk(), mk());
        let p = PortableValue::extract(&v).unwrap();
        // The shared 2-instruction body packs once. (The old tree
        // representation also counted the `cur` instructions of each
        // closure body; closures now point straight at blocks.)
        assert_eq!(p.instr_count(), 2);
    }

    #[test]
    fn portable_values_cross_threads() {
        let f = closure(Value::Unit, vec![Instr::Snd]);
        let p = PortableValue::extract(&f).unwrap();
        let out = std::thread::spawn(move || {
            let g = p.hydrate();
            let v = Machine::new()
                .run(app(), Value::pair(g, Value::Int(9)))
                .unwrap();
            matches!(v, Value::Int(9))
        })
        .join()
        .unwrap();
        assert!(out);
    }
}
