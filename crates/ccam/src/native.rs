//! The thread-coded native tier (DESIGN.md §13).
//!
//! The interpreter decodes every instruction on every step: match on the
//! opcode, destructure the operands, then do the work. This module lowers
//! a block **once** into a flat array of [`NativeOp`]s — one pre-built
//! closure per instruction, operands decoded and captured at lowering
//! time — so the run path is an indirect call per step and nothing else.
//! It is the third execution tier of ROADMAP item 2: source interpreter,
//! CCAM interpreter, thread-coded CCAM.
//!
//! Lowering reuses the *same* per-opcode step functions the interpreter
//! dispatches to ([`crate::machine::core`]/[`env`]/[`fused`]), so the two
//! tiers cannot drift: a native op's effect is the interpreted op's
//! effect, and its pre-computed accounting triple (opcode, mnemonic, fuel
//! charge) makes step counts, traces, profiles, and fuel exhaustion
//! byte-identical by construction.
//!
//! Control transfers are lowered as their pre-cloned [`Instr`] — they end
//! the straight-line run and go through the machine's transfer dispatch
//! (they may freeze arenas or push frames, which a boxed step closure
//! over [`MachineState`] cannot do). A lowered op never captures the
//! [`CodeSeg`] it belongs to — the segment owns the lowering through its
//! per-block memo, and the runner passes the executing segment in at each
//! step (block operands like `Cur` are relative to it).
//!
//! [`env`]: crate::machine::env
//! [`fused`]: crate::machine::fused

use crate::instr::Instr;
use crate::machine::state::MachineState;
use crate::machine::{core, env, fuel_cost, fused, is_transfer, MachineError};
use crate::seg::{BlockId, CodeSeg};
use std::fmt;
use std::rc::Rc;

/// A pre-decoded straight-line op: the step function with its operands
/// already captured.
pub(crate) type NativeStep = Box<dyn Fn(&mut MachineState, &CodeSeg) -> Result<(), MachineError>>;

/// How one lowered op executes.
pub(crate) enum NativeRun {
    /// Straight-line: call the captured closure.
    Step(NativeStep),
    /// Control transfer or segment mutator: dispatch the pre-cloned
    /// instruction through the machine's transfer table. Statically known
    /// at lowering time, so the runner saves the pc (or pops the finished
    /// frame) before executing it.
    Transfer(Instr),
}

/// One thread-coded instruction with its pre-computed accounting triple.
pub(crate) struct NativeOp {
    /// [`Instr::opcode`] of the lowered instruction.
    pub(crate) opcode: usize,
    /// [`Instr::mnemonic`] of the lowered instruction (for traces).
    pub(crate) mnemonic: &'static str,
    /// Fuel units the instruction charges (`machine::fuel_cost`).
    pub(crate) fuel: u64,
    /// The op's effect.
    pub(crate) run: NativeRun,
}

/// A block lowered to thread code: one [`NativeOp`] per instruction, in
/// block order.
pub(crate) struct NativeBlock {
    /// The lowered ops.
    pub(crate) ops: Vec<NativeOp>,
}

impl fmt::Debug for NativeBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NativeBlock({} ops)", self.ops.len())
    }
}

/// The lowering of `block`, memoized in its segment: the first request
/// (eagerly at freeze time for frozen code, on first activation
/// otherwise) lowers and caches; every later activation is one map
/// lookup. Blocks are immutable `(start, len)` ranges of an append-only
/// segment, so a cached lowering never goes stale.
pub(crate) fn lowered(seg: &CodeSeg, block: BlockId) -> Rc<NativeBlock> {
    if let Some(nb) = seg.native_memo_get(block) {
        return nb;
    }
    let nb = Rc::new(lower_block(seg, block));
    seg.native_memo_put(block, nb.clone());
    nb
}

fn lower_block(seg: &CodeSeg, block: BlockId) -> NativeBlock {
    let instrs = seg.block_to_vec(block);
    NativeBlock {
        ops: instrs.iter().map(lower_instr).collect(),
    }
}

fn step(
    f: impl Fn(&mut MachineState, &CodeSeg) -> Result<(), MachineError> + 'static,
) -> NativeRun {
    NativeRun::Step(Box::new(f))
}

fn lower_instr(i: &Instr) -> NativeOp {
    let opcode = i.opcode();
    let run = if is_transfer(opcode) {
        NativeRun::Transfer(i.clone())
    } else {
        match i {
            Instr::Id => step(|st, _| core::id(st)),
            Instr::Fst => step(|st, _| env::fst(st)),
            Instr::Snd => step(|st, _| env::snd(st)),
            Instr::Push => step(|st, _| core::push(st)),
            Instr::Swap => step(|st, _| core::swap(st)),
            Instr::ConsPair => step(|st, _| core::cons_pair(st)),
            Instr::Quote(v) => {
                let v = v.clone();
                step(move |st, _| core::quote(st, &v))
            }
            Instr::Cur(body) => {
                let body = *body;
                step(move |st, seg| core::cur(st, seg, body))
            }
            Instr::Emit(inner) => {
                let inner = (**inner).clone();
                step(move |st, seg| core::emit(st, seg, &inner))
            }
            Instr::LiftV => step(|st, _| core::lift(st)),
            Instr::NewArena => step(core::new_arena),
            Instr::RecClos(bodies) => {
                let bodies = bodies.clone();
                step(move |st, seg| core::rec_clos(st, seg, &bodies))
            }
            Instr::Pack(tag) => {
                let tag = *tag;
                step(move |st, _| core::pack(st, tag))
            }
            Instr::Prim(op) => {
                let op = *op;
                step(move |st, _| core::prim(st, op))
            }
            Instr::Fail(msg) => {
                let msg = msg.clone();
                step(move |_st, _| core::fail(&msg))
            }
            Instr::Acc(n) => {
                let n = *n;
                step(move |st, _| env::acc(st, n))
            }
            Instr::PushAcc(n) => {
                let n = *n;
                step(move |st, _| fused::push_acc(st, n))
            }
            Instr::QuoteCons(v) => {
                let v = v.clone();
                step(move |st, _| fused::quote_cons(st, &v))
            }
            Instr::SwapCons => step(|st, _| fused::swap_cons(st)),
            Instr::PushQuote(v) => {
                let v = v.clone();
                step(move |st, _| fused::push_quote(st, &v))
            }
            Instr::EnvCons => step(|st, _| env::env_cons(st)),
            other => unreachable!("transfer {other:?} not covered by is_transfer"),
        }
    };
    NativeOp {
        opcode,
        mnemonic: i.mnemonic(),
        fuel: fuel_cost(i),
        run,
    }
}
