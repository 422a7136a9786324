//! The CCAM instruction set.
//!
//! The seven CAM instructions of Cousineau–Curien–Mauny plus `quote`, the
//! five run-time code-generation instructions of the paper (`emit`, `lift`,
//! `arena`, `merge`, `call`), and the extensions for conditionals,
//! recursion, datatypes, primitives, and the *merge family* used to build
//! specialized branch/dispatch/recursive code inside arenas (DESIGN.md
//! §3.1).
//!
//! Instructions are **flat**: nested code (`cur` bodies, branch arms,
//! switch arms, recursive groups) is referenced by [`BlockId`] into the
//! containing [`CodeSeg`] rather than owned as a
//! nested vector, so an instruction is meaningful only relative to its
//! segment (DESIGN.md §10).

use crate::seg::{BlockId, CodeSeg};
use crate::value::{ConTag, Value};
use std::fmt;
use std::rc::Rc;

/// One arm of a `switch` dispatch.
#[derive(Debug, Clone)]
pub struct SwitchArm {
    /// Tag to match.
    pub tag: ConTag,
    /// Whether the arm binds the constructor payload
    /// (top becomes `(env, payload)`; otherwise just `env`).
    pub bind: bool,
    /// Arm body, a block of the containing segment.
    pub code: BlockId,
}

/// The dispatch table of a `switch` instruction.
#[derive(Debug, Clone)]
pub struct SwitchTable {
    /// Arms in declaration order.
    pub arms: Vec<SwitchArm>,
    /// Fallback block (top becomes `env`).
    pub default: Option<BlockId>,
}

/// The shape of a `merge_switch`: which tags/binders the generated
/// dispatch will have. The arm bodies are taken from arenas on the stack.
#[derive(Debug, Clone)]
pub struct MergeSwitchSpec {
    /// `(tag, binds payload)` per arm, in order.
    pub arms: Vec<(ConTag, bool)>,
    /// Whether a default arena is present.
    pub default: bool,
}

/// Primitive machine operations. Unary primitives act on the top value;
/// binary on a top pair; ternary on a right-nested top triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division (fails on zero divisor).
    Div,
    /// Integer remainder (fails on zero divisor).
    Mod,
    /// Integer negation.
    Neg,
    /// Structural equality.
    Eq,
    /// Structural inequality.
    Ne,
    /// Less-than (integers and strings).
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// String concatenation.
    Concat,
    /// Bitwise AND on integers.
    BitAnd,
    /// Boolean negation.
    Not,
    /// String length.
    StrSize,
    /// Integer to string.
    IntToString,
    /// Print a string to the machine's output buffer.
    Print,
    /// Allocate a reference cell.
    Ref,
    /// Dereference.
    Deref,
    /// Assign to a reference cell.
    Assign,
    /// Allocate an array: `(n, init)`.
    MkArray,
    /// Array indexing: `(a, i)`.
    ArrSub,
    /// Array update: `(a, (i, v))`.
    ArrUpdate,
    /// Array length.
    ArrLen,
}

/// A CCAM instruction.
///
/// Instructions are deliberately **two words** (16 bytes), like
/// [`Value`]: a segment, an arena and a hydrated artifact are
/// `Vec<Instr>`s, which dispatch streams through, a hydrate writes, and a
/// teardown scans. Only [`Instr::Quote`] holds a whole `Value` inline;
/// rustc places every other variant's operand (8 bytes or less) beside
/// `Value`'s tag and encodes the variant in the tag's unused values. So
/// an operand wider than 8 bytes grows every instruction by a word: a
/// second inline `Value` (the fused constants are boxed for that
/// reason), a fat pointer such as `Rc<str>` (`Fail`'s message is a thin
/// `Rc<String>`), or two words of counts. `size_of_instr_stays_two_words`
/// in the test module pins the bound.
#[derive(Debug, Clone)]
pub enum Instr {
    // ---- the seven CAM instructions ----
    /// No-op.
    Id,
    /// Project the first component of the top pair.
    Fst,
    /// Project the second component of the top pair.
    Snd,
    /// Fused environment access: `Acc(n)` ≡ `Fst^n; Snd` in a single
    /// dispatch — walk `n` links down the left-nested pair spine (or load
    /// slot `n` of a flat frame), then take the second component. The
    /// compiler emits this for every variable access in flat environment
    /// mode (`EnvMode::Flat` in `mlbox-compile`); tier promotion's fusion
    /// also collapses residual `Fst..Fst; Snd` chains into it.
    Acc(usize),
    /// Duplicate the top of the stack.
    Push,
    /// Exchange the two top stack entries.
    Swap,
    /// Pop `v` then `u`; push the pair `(u, v)`.
    ConsPair,
    /// Apply: top is `([v:P], u)`; becomes `(v, u)` and runs `P`.
    App,

    // ---- constants and closures ----
    /// Replace the top with a constant (the paper's `'v`).
    Quote(Value),
    /// Build a closure capturing the top value; the body is a block of
    /// the containing segment.
    Cur(BlockId),

    // ---- run-time code generation (the paper's five) ----
    /// Append a (static) instruction to the arena in the top pair
    /// `(v, {P})`. Nested `emit` is rejected by [`validate`].
    Emit(Box<Instr>),
    /// Residualize: append `Quote(v)` to the arena in the top pair
    /// `(v, {P})`.
    LiftV,
    /// Replace the top with a fresh empty arena.
    NewArena,
    /// Top is `({P'}, (v, {P''}))`; append `Cur(P')` to `{P''}`, leaving
    /// `(v, {P''})`.
    Merge,
    /// Top is `(v, {P'})`; splice: leave `v` and run `P'`.
    Call,

    // ---- extensions: control, data, primitives ----
    /// Top is `(env, bool)`; leave `env`, run the chosen branch block.
    Branch(BlockId, BlockId),
    /// Build a recursive closure group capturing the top environment and
    /// extend the environment with all members:
    /// `env` becomes `((env, f1), ..., fn)`.
    RecClos(Rc<Vec<BlockId>>),
    /// Wrap the top value in a constructor with a payload.
    Pack(ConTag),
    /// Top is `(env, con)`; dispatch on the constructor tag.
    Switch(Rc<SwitchTable>),
    /// Primitive operation on the top value.
    Prim(PrimOp),
    /// Abort with a message (inexhaustive match). The message rides
    /// behind a thin pointer, as [`Value::Str`]'s does.
    Fail(Rc<String>),

    // ---- superinstructions (the fusion layer, DESIGN.md §11) ----
    /// Fused `Push; Acc(n)`: keep the top value and push its `n`th
    /// environment slot in one dispatch. `PushAcc(0)` also covers the
    /// fused `Push; Snd`. Produced only by `opt::render` (tier
    /// promotion); never emitted directly by the compiler.
    PushAcc(usize),
    /// Fused `Quote(v); ConsPair`: pop the top, pop `u`, push `(u, v)`.
    /// The constant is boxed so that the instruction stays two words.
    QuoteCons(Rc<Value>),
    /// Fused `Swap; ConsPair`: pop `t` then `n`, push `(t, n)` — a pair
    /// built with the operands in stack order instead of reversed.
    SwapCons,
    /// Fused `ConsPair; App`: pop the argument and the closure and apply,
    /// without materializing the intermediate pair on the stack.
    ConsApp,
    /// Fused `Acc(n); App` (and `Snd; App` as `AccApp(0)`): fetch the
    /// closure/argument pair from environment slot `n` and apply it.
    AccApp(usize),
    /// Fused `Push; Quote(v)`: keep the top value and push the constant
    /// `v` above it. Boxed like [`Instr::QuoteCons`]'s constant.
    PushQuote(Rc<Value>),
    /// Environment extension for flat-frame mode (`EnvMode::Flat`): pop
    /// the binding `v` then the environment `E`; push `E` extended with
    /// `v` as a contiguous [`Frame`](crate::value::Frame) slot.
    /// Semantically identical to [`Instr::ConsPair`] on an environment
    /// spine — the frame denotes exactly the pair `(E, v)` — but `Acc(n)`
    /// against the result is a bounds-checked index, not a spine walk.
    /// Emitted only by the flat-mode compiler at `let`/declaration
    /// extension sites.
    EnvCons,

    // ---- the merge family (specialized control inside arenas) ----
    /// Top is `(((v,{P}), {A_then}), {A_else})`; append
    /// `Branch(A_then, A_else)` to `{P}`, leaving `(v, {P})`.
    MergeBranch,
    /// Like [`Instr::MergeBranch`] for `switch`: pops one arena per arm
    /// (plus one for the default if present), appending a specialized
    /// `Switch`.
    MergeSwitch(Rc<MergeSwitchSpec>),
    /// Pops `n` arenas, appending a specialized `RecClos` group.
    MergeRec(usize),
}

/// Number of distinct opcodes, for [`Instr::opcode`]-indexed tables.
pub const OPCODE_COUNT: usize = 31;

/// Mnemonics indexed by [`Instr::opcode`].
pub const OPCODE_NAMES: [&str; OPCODE_COUNT] = [
    "id",
    "fst",
    "snd",
    "push",
    "swap",
    "cons",
    "app",
    "quote",
    "cur",
    "emit",
    "lift",
    "arena",
    "merge",
    "call",
    "branch",
    "recclos",
    "pack",
    "switch",
    "prim",
    "fail",
    "merge_branch",
    "merge_switch",
    "merge_rec",
    "acc",
    "push_acc",
    "quote_cons",
    "swap_cons",
    "cons_app",
    "acc_app",
    "push_quote",
    "env_cons",
];

impl Instr {
    /// The value this instruction embeds as an immediate (`quote` and
    /// its fused forms, looking through `emit`), if any.
    #[inline]
    pub(crate) fn quoted(&self) -> Option<&Value> {
        let i = match self {
            Instr::Emit(inner) => inner,
            i => i,
        };
        match i {
            Instr::Quote(v) => Some(v),
            Instr::QuoteCons(v) | Instr::PushQuote(v) => Some(v),
            _ => None,
        }
    }

    /// A dense opcode index in `0..OPCODE_COUNT` (operands elided), used
    /// to index the dispatch table and the opcode-pair profile.
    pub fn opcode(&self) -> usize {
        match self {
            Instr::Id => 0,
            Instr::Fst => 1,
            Instr::Snd => 2,
            Instr::Push => 3,
            Instr::Swap => 4,
            Instr::ConsPair => 5,
            Instr::App => 6,
            Instr::Quote(_) => 7,
            Instr::Cur(_) => 8,
            Instr::Emit(_) => 9,
            Instr::LiftV => 10,
            Instr::NewArena => 11,
            Instr::Merge => 12,
            Instr::Call => 13,
            Instr::Branch(_, _) => 14,
            Instr::RecClos(_) => 15,
            Instr::Pack(_) => 16,
            Instr::Switch(_) => 17,
            Instr::Prim(_) => 18,
            Instr::Fail(_) => 19,
            Instr::MergeBranch => 20,
            Instr::MergeSwitch(_) => 21,
            Instr::MergeRec(_) => 22,
            Instr::Acc(_) => 23,
            Instr::PushAcc(_) => 24,
            Instr::QuoteCons(_) => 25,
            Instr::SwapCons => 26,
            Instr::ConsApp => 27,
            Instr::AccApp(_) => 28,
            Instr::PushQuote(_) => 29,
            Instr::EnvCons => 30,
        }
    }

    /// A human-readable mnemonic (operands elided).
    pub fn mnemonic(&self) -> &'static str {
        OPCODE_NAMES[self.opcode()]
    }

    /// The blocks this instruction references, in operand order: a
    /// branch's then-block before its else-block, switch arms before the
    /// default. Looks through `emit` to the emitted instruction.
    pub fn block_refs(&self) -> Vec<BlockId> {
        match self {
            Instr::Cur(b) => vec![*b],
            Instr::Branch(t, e) => vec![*t, *e],
            Instr::Switch(table) => table
                .arms
                .iter()
                .map(|arm| arm.code)
                .chain(table.default)
                .collect(),
            Instr::RecClos(bodies) => bodies.to_vec(),
            Instr::Emit(inner) => inner.block_refs(),
            // Exhaustive on purpose: adding an instruction must force a
            // decision about whether it can carry nested code.
            Instr::Id
            | Instr::Fst
            | Instr::Snd
            | Instr::Acc(_)
            | Instr::Push
            | Instr::Swap
            | Instr::ConsPair
            | Instr::App
            | Instr::Quote(_)
            | Instr::LiftV
            | Instr::NewArena
            | Instr::Merge
            | Instr::Call
            | Instr::Pack(_)
            | Instr::Prim(_)
            | Instr::Fail(_)
            | Instr::MergeBranch
            | Instr::MergeSwitch(_)
            | Instr::MergeRec(_)
            | Instr::PushAcc(_)
            | Instr::QuoteCons(_)
            | Instr::SwapCons
            | Instr::ConsApp
            | Instr::AccApp(_)
            | Instr::PushQuote(_)
            | Instr::EnvCons => Vec::new(),
        }
    }
}

/// Validation error for malformed code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateError {
    /// What is wrong.
    pub message: String,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ValidateError {}

/// Checks the paper's structural invariant: **no nested emits** —
/// `emit(emit(i))` must never occur, at any depth inside `Cur`/`Branch`/
/// `Switch`/`RecClos` bodies (§4.2: "nested emits are not allowed on the
/// CCAM"). Block references in `code` are resolved against `seg`.
///
/// # Errors
///
/// Returns a [`ValidateError`] locating the first nested emit.
pub fn validate(seg: &CodeSeg, code: &[Instr]) -> Result<(), ValidateError> {
    fn visit(seg: &CodeSeg, i: &Instr) -> Result<(), ValidateError> {
        if let Instr::Emit(inner) = i {
            if matches!(**inner, Instr::Emit(_)) {
                return Err(ValidateError {
                    message: "nested emit: emit(emit(_)) is not a legal CCAM instruction"
                        .to_string(),
                });
            }
        }
        // Copy each block out so the segment is not borrowed across the
        // recursion (validation is not a hot path).
        for b in i.block_refs() {
            for i in seg.block_to_vec(b) {
                visit(seg, &i)?;
            }
        }
        Ok(())
    }
    for i in code {
        visit(seg, i)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_of_instr_stays_two_words() {
        // Every code vector is a Vec<Instr>: one operand wider than 8
        // bytes makes all of them a third larger.
        assert_eq!(
            std::mem::size_of::<Instr>(),
            16,
            "Instr is no longer two words"
        );
    }

    #[test]
    fn nested_emit_is_rejected() {
        let seg = CodeSeg::new();
        let bad = vec![Instr::Emit(Box::new(Instr::Emit(Box::new(Instr::Id))))];
        assert!(validate(&seg, &bad).is_err());
    }

    #[test]
    fn emit_of_cur_with_emits_is_legal() {
        // The closure-insertion technique: a statically compiled Cur body
        // may contain emits; that is not a *nested* emit.
        let seg = CodeSeg::new();
        let inner = seg.add_block(vec![Instr::Emit(Box::new(Instr::Id))]);
        let ok = vec![Instr::Emit(Box::new(Instr::Cur(inner)))];
        assert!(validate(&seg, &ok).is_ok());
    }

    #[test]
    fn deep_nested_emit_found_inside_cur() {
        let seg = CodeSeg::new();
        let inner = seg.add_block(vec![Instr::Emit(Box::new(Instr::Emit(Box::new(
            Instr::Id,
        ))))]);
        let bad = vec![Instr::Cur(inner)];
        assert!(validate(&seg, &bad).is_err());
    }

    #[test]
    fn mnemonics_exist() {
        assert_eq!(Instr::Id.mnemonic(), "id");
        assert_eq!(Instr::Emit(Box::new(Instr::Id)).mnemonic(), "emit");
        assert_eq!(Instr::MergeBranch.mnemonic(), "merge_branch");
        assert_eq!(Instr::Acc(3).mnemonic(), "acc");
    }

    #[test]
    fn emitted_acc_is_legal() {
        let seg = CodeSeg::new();
        let ok = vec![Instr::Emit(Box::new(Instr::Acc(2)))];
        assert!(validate(&seg, &ok).is_ok());
    }
}
