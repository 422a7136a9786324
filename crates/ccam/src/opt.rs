//! Emission-time peephole optimization of generated code.
//!
//! §4.2 of the paper: *"A more sophisticated specialization system might
//! compile emit(add) to a series of instructions which would test the
//! values of the operands of the add instruction at specialization time
//! (if they are available) and eliminate the instruction altogether if
//! either one is 0."* This module implements that idea as a post-pass
//! applied when an arena is frozen (see [`crate::machine::Machine::set_optimize`]):
//!
//! - **constant folding** — `⟨quote a, quote b⟩; prim op` → `quote (a op b)`;
//! - **unary folding** — `quote v; prim neg/not` → `quote v'`;
//! - **identity elimination** — `x + 0`, `0 + x`, `x * 1`, `1 * x`,
//!   `x - 0` reduce to `x`; `x * 0` and `0 * x` reduce to `quote 0` when
//!   `x`'s code is effect-free;
//! - **branch folding** — `branch` on a constant boolean condition;
//! - **dead `id` removal**;
//! - **access fusion** — `fst^k; snd` chains (the CAM's O(depth)
//!   environment walks) collapse into the single-dispatch `acc k`.
//!
//! Code is flat: nested blocks are rewritten by [`optimize_block`], which
//! appends the optimized rendering to the same segment and memoizes the
//! mapping per segment, so shared blocks are optimized once no matter how
//! many instructions reference them.
//!
//! The CAM pairing discipline makes operand boundaries recoverable: every
//! `⟨A, B⟩ = push; A; swap; B; cons` is parenthesis-balanced in
//! `push`/`cons`, so the extent of a compiled operand can be found by
//! depth counting.

use crate::instr::{Instr, PrimOp, SwitchArm, SwitchTable};
use crate::seg::{BlockId, CodeSeg};
use crate::value::Value;
use std::rc::Rc;

/// Optimizes a code sequence whose block references resolve in `seg`
/// (recursively through nested blocks, which are rewritten in `seg`).
/// The result computes the same values in the same order of effects.
pub fn peephole(seg: &CodeSeg, code: &[Instr]) -> Vec<Instr> {
    let mut cur: Vec<Instr> = code.iter().map(|i| optimize_nested(seg, i)).collect();
    for _ in 0..4 {
        // A pass can rewrite without shrinking (e.g. constant-folding a
        // chosen branch arm of the same length), so convergence is
        // detected by an explicit change flag, not by length.
        let (next, changed) = pass(seg, &cur);
        cur = next;
        if !changed {
            break;
        }
    }
    cur
}

/// Optimizes one block of `seg`, appending the optimized rendering as a
/// new block of the same segment and returning its id. Memoized per
/// segment: a block referenced by many instructions is optimized once,
/// and re-optimizing an already-optimized block is the identity.
pub fn optimize_block(seg: &CodeSeg, b: BlockId) -> BlockId {
    if let Some(done) = seg.opt_memo_get(b) {
        return done;
    }
    let optimized = peephole(seg, &seg.block_to_vec(b));
    let nb = seg.add_block(optimized);
    seg.opt_memo_put(b, nb);
    seg.opt_memo_put(nb, nb);
    nb
}

fn optimize_nested(seg: &CodeSeg, i: &Instr) -> Instr {
    match i {
        Instr::Cur(c) => Instr::Cur(optimize_block(seg, *c)),
        Instr::Branch(a, b) => Instr::Branch(optimize_block(seg, *a), optimize_block(seg, *b)),
        Instr::Switch(t) => Instr::Switch(Rc::new(SwitchTable {
            arms: t
                .arms
                .iter()
                .map(|arm| SwitchArm {
                    tag: arm.tag,
                    bind: arm.bind,
                    code: optimize_block(seg, arm.code),
                })
                .collect(),
            default: t.default.map(|d| optimize_block(seg, d)),
        })),
        Instr::RecClos(bodies) => Instr::RecClos(Rc::new(
            bodies.iter().map(|b| optimize_block(seg, *b)).collect(),
        )),
        // Exhaustive on purpose: a new instruction carrying nested code
        // must be added above, not silently left unoptimized.
        Instr::Id
        | Instr::Fst
        | Instr::Snd
        | Instr::Acc(_)
        | Instr::Push
        | Instr::Swap
        | Instr::ConsPair
        | Instr::App
        | Instr::Quote(_)
        | Instr::Emit(_)
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
        | Instr::EnvCons => i.clone(),
    }
}

/// Number of distinguishable fusion rules (see [`FuseSelection`]).
pub const FUSE_RULE_COUNT: usize = 7;

/// Rule indices: 0 is the `fst^k; snd → acc` access collapse, the rest
/// are the adjacent-pair superinstructions.
const RULE_ACCESS: usize = 0;
const RULE_PUSH_ACC: usize = 1;
const RULE_PUSH_QUOTE: usize = 2;
const RULE_QUOTE_CONS: usize = 3;
const RULE_SWAP_CONS: usize = 4;
const RULE_CONS_APP: usize = 5;
const RULE_ACC_APP: usize = 6;

/// Human-readable rule names, indexed like the selection.
pub const FUSE_RULE_NAMES: [&str; FUSE_RULE_COUNT] = [
    "access",
    "push_acc",
    "push_quote",
    "quote_cons",
    "swap_cons",
    "cons_app",
    "acc_app",
];

/// Which fusion rules a `fuse_pass` run may apply. The static `fuse`
/// entry points enable everything; the adaptive tier controller derives
/// a selection from a block's own pair profile ([`select_rules`]), so
/// the fused-pair set is a parameter, not a global constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuseSelection {
    enabled: [bool; FUSE_RULE_COUNT],
}

impl FuseSelection {
    /// Every rule enabled — the static fusion behavior.
    pub fn all() -> FuseSelection {
        FuseSelection {
            enabled: [true; FUSE_RULE_COUNT],
        }
    }

    /// No rule enabled; fusion under this selection is the identity.
    pub fn none() -> FuseSelection {
        FuseSelection {
            enabled: [false; FUSE_RULE_COUNT],
        }
    }

    /// Whether rule `r` is enabled.
    pub fn is_enabled(&self, r: usize) -> bool {
        self.enabled[r]
    }

    /// Disables the access-chain collapse (rule 0). The indexed/flat
    /// baselines charge every instruction — `acc n` included — as one
    /// step, so a step-transparent rendering must not collapse a
    /// multi-instruction `fst…; snd` chain into a single `acc`: with
    /// the collapse off, every fused opcode stands for exactly two
    /// baseline instructions, which is what the adaptive controller's
    /// indexed charge model assumes.
    pub fn disable_access(&mut self) {
        self.enabled[RULE_ACCESS] = false;
    }

    /// Number of enabled rules.
    pub fn len(&self) -> usize {
        self.enabled.iter().filter(|e| **e).count()
    }

    /// Whether no rule is enabled.
    pub fn is_empty(&self) -> bool {
        self.enabled.iter().all(|e| !e)
    }
}

/// The pair rule (if any) that would fuse the adjacent pair `(a, b)`.
fn pair_rule(a: &Instr, b: &Instr) -> Option<usize> {
    Some(match (a, b) {
        (Instr::Push, Instr::Acc(_) | Instr::Snd) => RULE_PUSH_ACC,
        (Instr::Push, Instr::Quote(_)) => RULE_PUSH_QUOTE,
        (Instr::Quote(_), Instr::ConsPair) => RULE_QUOTE_CONS,
        (Instr::Swap, Instr::ConsPair) => RULE_SWAP_CONS,
        (Instr::ConsPair, Instr::App) => RULE_CONS_APP,
        (Instr::Acc(_) | Instr::Snd, Instr::App) => RULE_ACC_APP,
        _ => return None,
    })
}

/// Ranks the fusion rules by how often their pattern occurs in `code`
/// and enables the `k` most frequent (ties broken toward the lower rule
/// index, so the ranking is deterministic). Rules whose pattern never
/// occurs stay disabled regardless of `k`. Access chains are collapsed
/// *before* the pair patterns are counted, so the counts describe the
/// shape fusion actually sees — `push; fst; snd` counts one access hit
/// and one `push_acc` hit.
pub fn select_rules(code: &[Instr], k: usize) -> FuseSelection {
    let mut counts = [0u64; FUSE_RULE_COUNT];
    let mut norm: Vec<Instr> = Vec::with_capacity(code.len());
    let mut i = 0;
    while i < code.len() {
        if matches!(code[i], Instr::Fst) {
            let mut run = 1;
            while matches!(code.get(i + run), Some(Instr::Fst)) {
                run += 1;
            }
            let collapsed = match code.get(i + run) {
                Some(Instr::Snd) => Some(run),
                Some(Instr::Acc(m)) => Some(run + m),
                _ => None,
            };
            if let Some(depth) = collapsed {
                counts[RULE_ACCESS] += 1;
                norm.push(Instr::Acc(depth));
                i += run + 1;
                continue;
            }
        }
        norm.push(code[i].clone());
        i += 1;
    }
    for w in norm.windows(2) {
        if let Some(rule) = pair_rule(&w[0], &w[1]) {
            counts[rule] += 1;
        }
    }
    let mut order: Vec<usize> = (0..FUSE_RULE_COUNT).collect();
    order.sort_by_key(|&r| (std::cmp::Reverse(counts[r]), r));
    let mut sel = FuseSelection::none();
    for &r in order.iter().take(k) {
        if counts[r] > 0 {
            sel.enabled[r] = true;
        }
    }
    sel
}

/// Superinstruction fusion (DESIGN.md §11): rewrites the hottest adjacent
/// opcode pairs of the CAM's stereotyped sequences into single fused
/// dispatches. Unlike [`peephole`] this pass never folds constants or
/// changes the computation — every fused opcode performs exactly the work
/// of the pair it replaces, in one reduction step. The `fst^k; snd → acc`
/// collapse is included so fusion composes with (and without) the
/// peephole: `push; fst; fst; snd` becomes `push_acc 2` either way.
pub fn fuse(seg: &CodeSeg, code: &[Instr]) -> Vec<Instr> {
    let mut cur: Vec<Instr> = code.iter().map(|i| fuse_nested(seg, i)).collect();
    let sel = FuseSelection::all();
    for _ in 0..4 {
        let (next, changed) = fuse_pass(&cur, &sel);
        cur = next;
        if !changed {
            break;
        }
    }
    cur
}

/// Fuses one straight-line sequence under `sel`, leaving every nested
/// block reference untouched. This is the tier controller's promotion
/// renderer: each block earns its own promotion from its own profile,
/// so nested bodies are deliberately *not* rewritten here — they stay
/// cold until their own counters cross the threshold. The flag reports
/// whether any rule fired (so callers can skip registering an identical
/// rendering).
pub fn fuse_selected(code: &[Instr], sel: &FuseSelection) -> (Vec<Instr>, bool) {
    let mut cur = code.to_vec();
    if sel.is_empty() {
        return (cur, false);
    }
    let mut any = false;
    for _ in 0..4 {
        let (next, changed) = fuse_pass(&cur, sel);
        cur = next;
        if !changed {
            break;
        }
        any = true;
    }
    (cur, any)
}

/// Fuses one block of `seg`, appending the fused rendering as a new block
/// of the same segment and returning its id. Memoized per segment, like
/// [`optimize_block`]: shared blocks are fused once, and re-fusing an
/// already-fused block is the identity.
pub fn fuse_block(seg: &CodeSeg, b: BlockId) -> BlockId {
    if let Some(done) = seg.fuse_memo_get(b) {
        return done;
    }
    let fused = fuse(seg, &seg.block_to_vec(b));
    let nb = seg.add_block(fused);
    seg.fuse_memo_put(b, nb);
    seg.fuse_memo_put(nb, nb);
    nb
}

fn fuse_nested(seg: &CodeSeg, i: &Instr) -> Instr {
    match i {
        Instr::Cur(c) => Instr::Cur(fuse_block(seg, *c)),
        Instr::Branch(a, b) => Instr::Branch(fuse_block(seg, *a), fuse_block(seg, *b)),
        Instr::Switch(t) => Instr::Switch(Rc::new(SwitchTable {
            arms: t
                .arms
                .iter()
                .map(|arm| SwitchArm {
                    tag: arm.tag,
                    bind: arm.bind,
                    code: fuse_block(seg, arm.code),
                })
                .collect(),
            default: t.default.map(|d| fuse_block(seg, d)),
        })),
        Instr::RecClos(bodies) => Instr::RecClos(Rc::new(
            bodies.iter().map(|b| fuse_block(seg, *b)).collect(),
        )),
        // `Emit` carries a single static instruction, never a fusable
        // sequence; fusion of emitted code happens when its arena freezes.
        other => other.clone(),
    }
}

/// One greedy left-to-right fusion pass over a straight-line sequence,
/// applying only the rules `sel` enables.
fn fuse_pass(code: &[Instr], sel: &FuseSelection) -> (Vec<Instr>, bool) {
    let mut out: Vec<Instr> = Vec::with_capacity(code.len());
    let mut changed = false;
    let mut i = 0;
    'outer: while i < code.len() {
        // fst^k; snd / fst^k; acc m — same access collapse as the
        // peephole, repeated here so fusion alone produces `acc`s for the
        // pair rules below to consume.
        if sel.enabled[RULE_ACCESS] && matches!(code[i], Instr::Fst) {
            let mut k = 1;
            while matches!(code.get(i + k), Some(Instr::Fst)) {
                k += 1;
            }
            let fused = match code.get(i + k) {
                Some(Instr::Snd) => Some(k),
                Some(Instr::Acc(m)) => Some(k + m),
                _ => None,
            };
            if let Some(depth) = fused {
                out.push(Instr::Acc(depth));
                changed = true;
                i += k + 1;
                continue 'outer;
            }
        }
        // Adjacent-pair superinstructions.
        let rule = code
            .get(i + 1)
            .and_then(|next| pair_rule(&code[i], next))
            .filter(|r| sel.enabled[*r]);
        let fused = match rule {
            Some(RULE_PUSH_ACC) => Some(match code.get(i + 1) {
                Some(Instr::Acc(n)) => Instr::PushAcc(*n),
                _ => Instr::PushAcc(0),
            }),
            Some(RULE_PUSH_QUOTE) => match code.get(i + 1) {
                Some(Instr::Quote(v)) => Some(Instr::PushQuote(v.clone())),
                _ => None,
            },
            Some(RULE_QUOTE_CONS) => match &code[i] {
                Instr::Quote(v) => Some(Instr::QuoteCons(v.clone())),
                _ => None,
            },
            Some(RULE_SWAP_CONS) => Some(Instr::SwapCons),
            Some(RULE_CONS_APP) => Some(Instr::ConsApp),
            Some(RULE_ACC_APP) => Some(match &code[i] {
                Instr::Acc(n) => Instr::AccApp(*n),
                _ => Instr::AccApp(0),
            }),
            _ => None,
        };
        if let Some(f) = fused {
            out.push(f);
            changed = true;
            i += 2;
            continue 'outer;
        }
        out.push(code[i].clone());
        i += 1;
    }
    (out, changed)
}

/// Whether executing this instruction can have an observable effect
/// (so eliminating it would be wrong).
fn is_pure(i: &Instr) -> bool {
    match i {
        Instr::Id
        | Instr::Fst
        | Instr::Snd
        | Instr::Acc(_)
        | Instr::Push
        | Instr::Swap
        | Instr::ConsPair
        | Instr::Quote(_)
        | Instr::Cur(_)
        | Instr::Pack(_)
        | Instr::PushAcc(_)
        | Instr::QuoteCons(_)
        | Instr::SwapCons
        | Instr::PushQuote(_)
        // Extends the environment spine as a frame slot — an allocation,
        // like `ConsPair`, with no observable effect.
        | Instr::EnvCons => true,
        Instr::Prim(op) => matches!(
            op,
            PrimOp::Add
                | PrimOp::Sub
                | PrimOp::Mul
                | PrimOp::Neg
                | PrimOp::Eq
                | PrimOp::Ne
                | PrimOp::Lt
                | PrimOp::Le
                | PrimOp::Gt
                | PrimOp::Ge
                | PrimOp::Concat
                | PrimOp::BitAnd
                | PrimOp::Not
                | PrimOp::StrSize
                | PrimOp::IntToString
        ),
        // Exhaustive on purpose: a new instruction must be classified
        // here, not silently treated as effectful (or worse, pure).
        // `App`/`Branch`/`Switch`/`RecClos` can run arbitrary code or
        // trap; `Div`/`Mod` and the array ops can trap; the five RTCG
        // instructions and the merge family mutate arenas.
        Instr::App
        | Instr::Emit(_)
        | Instr::LiftV
        | Instr::NewArena
        | Instr::Merge
        | Instr::Call
        | Instr::Branch(_, _)
        | Instr::RecClos(_)
        | Instr::Switch(_)
        | Instr::Fail(_)
        | Instr::MergeBranch
        | Instr::MergeSwitch(_)
        | Instr::MergeRec(_)
        | Instr::ConsApp
        | Instr::AccApp(_) => false,
    }
}

fn all_pure(code: &[Instr]) -> bool {
    code.iter().all(is_pure)
}

/// Finds the extent of the operand `B` in `push; A; swap; B; cons` given
/// the index *after* `swap`: returns the index of the matching `cons`.
/// Returns `None` if the sequence is not balanced within this block.
fn find_matching_cons(code: &[Instr], start: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = start;
    while i < code.len() {
        match &code[i] {
            Instr::Push => depth += 1,
            Instr::ConsPair => {
                if depth == 0 {
                    return Some(i);
                }
                depth -= 1;
            }
            _ => {}
        }
        i += 1;
    }
    None
}

fn fold_binop(op: PrimOp, a: &Value, b: &Value) -> Option<Value> {
    let out = match (op, a, b) {
        (PrimOp::Add, Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_add(*y)),
        (PrimOp::Sub, Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_sub(*y)),
        (PrimOp::Mul, Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_mul(*y)),
        // SML floor semantics, matching the machine's Div/Mod. A zero
        // divisor is left for the runtime trap.
        (PrimOp::Div, Value::Int(x), Value::Int(y)) if *y != 0 => {
            Value::Int(crate::machine::floor_div(*x, *y))
        }
        (PrimOp::Mod, Value::Int(x), Value::Int(y)) if *y != 0 => {
            Value::Int(crate::machine::floor_mod(*x, *y))
        }
        (PrimOp::BitAnd, Value::Int(x), Value::Int(y)) => Value::Int(x & y),
        (PrimOp::Lt, Value::Int(x), Value::Int(y)) => Value::Bool(x < y),
        (PrimOp::Le, Value::Int(x), Value::Int(y)) => Value::Bool(x <= y),
        (PrimOp::Gt, Value::Int(x), Value::Int(y)) => Value::Bool(x > y),
        (PrimOp::Ge, Value::Int(x), Value::Int(y)) => Value::Bool(x >= y),
        (PrimOp::Eq, a, b) => Value::Bool(a.structural_eq(b)?),
        (PrimOp::Ne, a, b) => Value::Bool(!a.structural_eq(b)?),
        _ => return None,
    };
    Some(out)
}

/// `op` with constant *left* operand `k`: is the whole expression the
/// right operand (`Some(false)`), the constant absorbing (`Some(true)`
/// meaning the result is `absorb`), or neither?
fn left_identity(op: PrimOp, k: &Value) -> Identity {
    match (op, k) {
        (PrimOp::Add, Value::Int(0)) => Identity::Pass,
        (PrimOp::Mul, Value::Int(1)) => Identity::Pass,
        (PrimOp::Mul, Value::Int(0)) => Identity::Absorb(Value::Int(0)),
        _ => Identity::No,
    }
}

fn right_identity(op: PrimOp, k: &Value) -> Identity {
    match (op, k) {
        (PrimOp::Add, Value::Int(0)) => Identity::Pass,
        (PrimOp::Sub, Value::Int(0)) => Identity::Pass,
        (PrimOp::Mul, Value::Int(1)) => Identity::Pass,
        (PrimOp::Div, Value::Int(1)) => Identity::Pass,
        (PrimOp::Mul, Value::Int(0)) => Identity::Absorb(Value::Int(0)),
        _ => Identity::No,
    }
}

enum Identity {
    /// The other operand passes through unchanged.
    Pass,
    /// The result is this constant (requires the other operand pure).
    Absorb(Value),
    /// No algebraic shortcut.
    No,
}

fn pass(seg: &CodeSeg, code: &[Instr]) -> (Vec<Instr>, bool) {
    let mut out: Vec<Instr> = Vec::with_capacity(code.len());
    let mut changed = false;
    let mut i = 0;
    'outer: while i < code.len() {
        // Window: push; <A>; swap; <B>; cons; prim op
        if matches!(code[i], Instr::Push) {
            if let Some((a_code, b_code, cons_idx)) = split_pair(code, i) {
                if let Some(Instr::Prim(op)) = code.get(cons_idx + 1) {
                    let op = *op;
                    let a_const = single_quote(a_code);
                    let b_const = single_quote(b_code);
                    // Full constant fold.
                    if let (Some(a), Some(b)) = (a_const, b_const) {
                        if let Some(v) = fold_binop(op, a, b) {
                            out.push(Instr::Quote(v));
                            changed = true;
                            i = cons_idx + 2;
                            continue 'outer;
                        }
                    }
                    // Left identity: ⟨quote k, B⟩; op
                    if let Some(k) = a_const {
                        match left_identity(op, k) {
                            Identity::Pass => {
                                out.extend(b_code.iter().cloned());
                                changed = true;
                                i = cons_idx + 2;
                                continue 'outer;
                            }
                            Identity::Absorb(v) if all_pure(b_code) => {
                                out.push(Instr::Quote(v));
                                changed = true;
                                i = cons_idx + 2;
                                continue 'outer;
                            }
                            _ => {}
                        }
                    }
                    // Right identity: ⟨A, quote k⟩; op
                    if let Some(k) = b_const {
                        match right_identity(op, k) {
                            Identity::Pass => {
                                out.extend(a_code.iter().cloned());
                                changed = true;
                                i = cons_idx + 2;
                                continue 'outer;
                            }
                            Identity::Absorb(v) if all_pure(a_code) => {
                                out.push(Instr::Quote(v));
                                changed = true;
                                i = cons_idx + 2;
                                continue 'outer;
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
        // quote v; prim neg/not — unary folding.
        if let Instr::Quote(v) = &code[i] {
            if let Some(Instr::Prim(op)) = code.get(i + 1) {
                let folded = match (op, v) {
                    (PrimOp::Neg, Value::Int(n)) => Some(Value::Int(n.wrapping_neg())),
                    (PrimOp::Not, Value::Bool(b)) => Some(Value::Bool(!b)),
                    _ => None,
                };
                if let Some(v) = folded {
                    out.push(Instr::Quote(v));
                    changed = true;
                    i += 2;
                    continue 'outer;
                }
            }
        }
        // push; quote b; cons; branch — fold a constant conditional: the
        // environment copy is consumed by the branch anyway. The chosen
        // arm's instructions are inlined from its block (same segment, so
        // any block references they carry stay valid).
        if matches!(code[i], Instr::Push) {
            if let (Some(Instr::Quote(Value::Bool(b))), Some(Instr::ConsPair)) =
                (code.get(i + 1), code.get(i + 2))
            {
                if let Some(Instr::Branch(t, e)) = code.get(i + 3) {
                    let chosen = if *b { *t } else { *e };
                    out.extend(seg.block_to_vec(chosen));
                    changed = true;
                    i += 4;
                    continue 'outer;
                }
            }
        }
        // fst^k; snd (k >= 1) — access fusion: an environment spine walk
        // collapses into one `acc` dispatch. `fst^k; acc m` likewise
        // deepens an already-fused access.
        if matches!(code[i], Instr::Fst) {
            let mut k = 1;
            while matches!(code.get(i + k), Some(Instr::Fst)) {
                k += 1;
            }
            let fused = match code.get(i + k) {
                Some(Instr::Snd) => Some(k),
                Some(Instr::Acc(m)) => Some(k + m),
                _ => None,
            };
            if let Some(depth) = fused {
                out.push(Instr::Acc(depth));
                changed = true;
                i += k + 1;
                continue 'outer;
            }
        }
        // Dead id.
        if matches!(code[i], Instr::Id) && code.len() > 1 {
            changed = true;
            i += 1;
            continue 'outer;
        }
        out.push(code[i].clone());
        i += 1;
    }
    (out, changed)
}

/// For `code[push_idx] = push`, recovers the `A` and `B` operand slices of
/// a `push; A; swap; B; cons` pairing, returning `(A, B, cons_index)`.
fn split_pair(code: &[Instr], push_idx: usize) -> Option<(&[Instr], &[Instr], usize)> {
    // Find the swap at depth 0 after push, then the cons matching it.
    let mut depth = 0usize;
    let mut j = push_idx + 1;
    let swap_idx = loop {
        match code.get(j)? {
            Instr::Push => depth += 1,
            Instr::ConsPair => {
                if depth == 0 {
                    return None; // malformed for our purposes
                }
                depth -= 1;
            }
            Instr::Swap if depth == 0 => break j,
            _ => {}
        }
        j += 1;
    };
    let cons_idx = find_matching_cons(code, swap_idx + 1)?;
    Some((
        &code[push_idx + 1..swap_idx],
        &code[swap_idx + 1..cons_idx],
        cons_idx,
    ))
}

fn single_quote(code: &[Instr]) -> Option<&Value> {
    match code {
        [Instr::Quote(v)] => Some(v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    fn pair(a: Vec<Instr>, b: Vec<Instr>) -> Vec<Instr> {
        let mut out = vec![Instr::Push];
        out.extend(a);
        out.push(Instr::Swap);
        out.extend(b);
        out.push(Instr::ConsPair);
        out
    }

    #[test]
    fn constant_addition_folds() {
        let seg = CodeSeg::new();
        let mut code = pair(
            vec![Instr::Quote(Value::Int(2))],
            vec![Instr::Quote(Value::Int(3))],
        );
        code.push(Instr::Prim(PrimOp::Add));
        let opt = peephole(&seg, &code);
        assert_eq!(opt.len(), 1);
        assert!(matches!(&opt[0], Instr::Quote(Value::Int(5))));
    }

    #[test]
    fn add_zero_left_eliminates() {
        // 0 + snd  →  snd
        let seg = CodeSeg::new();
        let mut code = pair(vec![Instr::Quote(Value::Int(0))], vec![Instr::Snd]);
        code.push(Instr::Prim(PrimOp::Add));
        let opt = peephole(&seg, &code);
        assert!(matches!(&opt[..], [Instr::Snd]), "{opt:?}");
    }

    #[test]
    fn mul_one_right_eliminates() {
        let seg = CodeSeg::new();
        let mut code = pair(vec![Instr::Snd], vec![Instr::Quote(Value::Int(1))]);
        code.push(Instr::Prim(PrimOp::Mul));
        let opt = peephole(&seg, &code);
        assert!(matches!(&opt[..], [Instr::Snd]), "{opt:?}");
    }

    #[test]
    fn mul_zero_absorbs_pure_operand_only() {
        // snd * 0 → quote 0 (snd is pure).
        let seg = CodeSeg::new();
        let mut code = pair(vec![Instr::Snd], vec![Instr::Quote(Value::Int(0))]);
        code.push(Instr::Prim(PrimOp::Mul));
        let opt = peephole(&seg, &code);
        assert!(matches!(&opt[..], [Instr::Quote(Value::Int(0))]));
        // print "x" * 0 must NOT be eliminated (effect!).
        let mut code = pair(
            vec![Instr::Quote(Value::str("x")), Instr::Prim(PrimOp::Print)],
            vec![Instr::Quote(Value::Int(0))],
        );
        code.push(Instr::Prim(PrimOp::Mul));
        let opt = peephole(&seg, &code);
        assert!(opt.len() > 1, "effectful operand preserved: {opt:?}");
    }

    #[test]
    fn nested_operands_are_balanced() {
        // (1 + 2) + snd — inner pair folds, outer keeps snd.
        let seg = CodeSeg::new();
        let inner = {
            let mut c = pair(
                vec![Instr::Quote(Value::Int(1))],
                vec![Instr::Quote(Value::Int(2))],
            );
            c.push(Instr::Prim(PrimOp::Add));
            c
        };
        let mut code = pair(inner, vec![Instr::Snd]);
        code.push(Instr::Prim(PrimOp::Add));
        let opt = peephole(&seg, &code);
        // After folding: ⟨quote 3, snd⟩; add.
        assert!(opt.iter().any(|i| matches!(i, Instr::Quote(Value::Int(3)))));
        assert!(opt.len() < code.len());
    }

    #[test]
    fn constant_branch_folds() {
        let seg = CodeSeg::new();
        let t = seg.add_block(vec![Instr::Quote(Value::Int(1))]);
        let e = seg.add_block(vec![Instr::Quote(Value::Int(2))]);
        let code = vec![
            Instr::Push,
            Instr::Quote(Value::Bool(true)),
            Instr::ConsPair,
            Instr::Branch(t, e),
        ];
        let opt = peephole(&seg, &code);
        assert!(matches!(&opt[..], [Instr::Quote(Value::Int(1))]));
    }

    #[test]
    fn same_length_rewrite_still_reaches_fixpoint() {
        // Folding this constant branch replaces 4 instructions
        // (push; quote; cons; branch) with a 4-instruction arm, so the
        // length does not shrink on that pass; the arm must still be
        // folded by the next pass rather than the rewrite being discarded.
        let seg = CodeSeg::new();
        let arm = seg.add_block(vec![
            Instr::Quote(Value::Int(1)),
            Instr::Prim(PrimOp::Neg),
            Instr::Quote(Value::Int(2)),
            Instr::Prim(PrimOp::Neg),
        ]);
        let other = seg.add_block(vec![Instr::Fail("else".into())]);
        let code = vec![
            Instr::Push,
            Instr::Quote(Value::Bool(true)),
            Instr::ConsPair,
            Instr::Branch(arm, other),
        ];
        let opt = peephole(&seg, &code);
        assert!(
            !opt.iter().any(|i| matches!(i, Instr::Branch(_, _))),
            "branch folded: {opt:?}"
        );
        assert!(
            matches!(
                &opt[..],
                [Instr::Quote(Value::Int(-1)), Instr::Quote(Value::Int(-2))]
            ),
            "arm folded on the following pass: {opt:?}"
        );
    }

    #[test]
    fn div_and_mod_constants_fold_with_floor_semantics() {
        let seg = CodeSeg::new();
        for (op, want) in [(PrimOp::Div, -4), (PrimOp::Mod, 1)] {
            let mut code = pair(
                vec![Instr::Quote(Value::Int(-7))],
                vec![Instr::Quote(Value::Int(2))],
            );
            code.push(Instr::Prim(op));
            let opt = peephole(&seg, &code);
            assert!(
                matches!(&opt[..], [Instr::Quote(Value::Int(n))] if *n == want),
                "{op:?}: {opt:?}"
            );
        }
        // A zero divisor is left for the runtime trap.
        let mut code = pair(
            vec![Instr::Quote(Value::Int(1))],
            vec![Instr::Quote(Value::Int(0))],
        );
        code.push(Instr::Prim(PrimOp::Div));
        assert_eq!(peephole(&seg, &code).len(), code.len(), "not folded");
    }

    #[test]
    fn div_by_one_eliminates() {
        let seg = CodeSeg::new();
        let mut code = pair(vec![Instr::Snd], vec![Instr::Quote(Value::Int(1))]);
        code.push(Instr::Prim(PrimOp::Div));
        let opt = peephole(&seg, &code);
        assert!(matches!(&opt[..], [Instr::Snd]), "{opt:?}");
    }

    #[test]
    fn optimized_code_computes_the_same_value() {
        // ((4 * 1) + (0 + snd)) applied to (_, 8).
        let seg = CodeSeg::new();
        let mul = {
            let mut c = pair(
                vec![Instr::Quote(Value::Int(4))],
                vec![Instr::Quote(Value::Int(1))],
            );
            c.push(Instr::Prim(PrimOp::Mul));
            c
        };
        let add0 = {
            let mut c = pair(vec![Instr::Quote(Value::Int(0))], vec![Instr::Snd]);
            c.push(Instr::Prim(PrimOp::Add));
            c
        };
        let mut code = pair(mul, add0);
        code.push(Instr::Prim(PrimOp::Add));
        let opt = peephole(&seg, &code);
        assert!(opt.len() < code.len());
        let input = Value::pair(Value::Unit, Value::Int(8));
        let a = Machine::new().run(seg.entry(code), input.clone()).unwrap();
        let b = Machine::new().run(seg.entry(opt), input).unwrap();
        assert_eq!(a.to_string(), b.to_string());
        assert_eq!(a.to_string(), "12");
    }

    #[test]
    fn fst_chains_fuse_into_acc() {
        let seg = CodeSeg::new();
        let code = vec![Instr::Fst, Instr::Fst, Instr::Fst, Instr::Snd];
        let opt = peephole(&seg, &code);
        assert!(matches!(&opt[..], [Instr::Acc(3)]), "{opt:?}");
        // A bare snd (zero fsts) is left alone — same cost either way.
        let code = vec![Instr::Snd];
        assert!(matches!(&peephole(&seg, &code)[..], [Instr::Snd]));
        // Fsts not followed by snd are not an access path.
        let code = vec![Instr::Fst, Instr::Fst];
        assert_eq!(peephole(&seg, &code).len(), 2);
    }

    #[test]
    fn fst_before_acc_deepens_the_access() {
        let seg = CodeSeg::new();
        let code = vec![Instr::Fst, Instr::Acc(2)];
        let opt = peephole(&seg, &code);
        assert!(matches!(&opt[..], [Instr::Acc(3)]), "{opt:?}");
    }

    #[test]
    fn fused_access_computes_the_same_value() {
        let seg = CodeSeg::new();
        let spine = Value::pair(
            Value::pair(Value::pair(Value::Unit, Value::Int(5)), Value::Int(6)),
            Value::Int(7),
        );
        let code = vec![Instr::Fst, Instr::Fst, Instr::Snd];
        let opt = peephole(&seg, &code);
        let a = Machine::new().run(seg.entry(code), spine.clone()).unwrap();
        let b = Machine::new().run(seg.entry(opt), spine).unwrap();
        assert_eq!(a.to_string(), b.to_string());
        assert_eq!(a.to_string(), "5");
    }

    #[test]
    fn recurses_into_cur_bodies() {
        let seg = CodeSeg::new();
        let body = {
            let mut c = pair(
                vec![Instr::Quote(Value::Int(1))],
                vec![Instr::Quote(Value::Int(2))],
            );
            c.push(Instr::Prim(PrimOp::Add));
            c
        };
        let code = vec![Instr::Cur(seg.add_block(body))];
        let opt = peephole(&seg, &code);
        let Instr::Cur(b) = &opt[0] else { panic!() };
        assert_eq!(seg.block_bounds(*b).1, 1);
    }

    #[test]
    fn shared_blocks_are_optimized_once() {
        let seg = CodeSeg::new();
        let body = seg.add_block(vec![Instr::Quote(Value::Int(1)), Instr::Prim(PrimOp::Neg)]);
        let code = vec![Instr::Cur(body), Instr::Cur(body)];
        let opt = peephole(&seg, &code);
        let (Instr::Cur(a), Instr::Cur(b)) = (&opt[0], &opt[1]) else {
            panic!("{opt:?}")
        };
        assert_eq!(a, b, "memoized: both references rewrite to one block");
        // And re-optimizing the result is the identity.
        assert_eq!(optimize_block(&seg, *a), *a);
    }

    #[test]
    fn fusion_rewrites_the_stereotyped_pairs() {
        let seg = CodeSeg::new();
        // ⟨acc 1, quote 3⟩; app — the CAM's function-application shape.
        let code = vec![
            Instr::Push,
            Instr::Acc(1),
            Instr::Swap,
            Instr::Quote(Value::Int(3)),
            Instr::ConsPair,
            Instr::App,
        ];
        let fused = fuse(&seg, &code);
        assert!(
            matches!(
                &fused[..],
                [
                    Instr::PushAcc(1),
                    Instr::Swap,
                    Instr::QuoteCons(Value::Int(3)),
                    Instr::App
                ]
            ),
            "{fused:?}"
        );
    }

    #[test]
    fn fusion_composes_with_access_collapse() {
        let seg = CodeSeg::new();
        // push; fst; fst; snd — fusion alone collapses the access chain
        // and then consumes the resulting acc.
        let code = vec![Instr::Push, Instr::Fst, Instr::Fst, Instr::Snd];
        let fused = fuse(&seg, &code);
        assert!(matches!(&fused[..], [Instr::PushAcc(2)]), "{fused:?}");
        // snd; app and cons; app become single transfers.
        let code = vec![Instr::Snd, Instr::App];
        assert!(matches!(&fuse(&seg, &code)[..], [Instr::AccApp(0)]));
        let code = vec![Instr::Swap, Instr::ConsPair, Instr::App];
        let fused = fuse(&seg, &code);
        assert!(
            matches!(&fused[..], [Instr::SwapCons, Instr::App]),
            "greedy left-to-right: swap;cons wins over cons;app: {fused:?}"
        );
    }

    #[test]
    fn fusion_never_folds_constants() {
        // ⟨quote 2, quote 3⟩; add — the peephole folds this to quote 5;
        // fusion must keep the arithmetic (it only merges dispatches).
        let seg = CodeSeg::new();
        let mut code = pair(
            vec![Instr::Quote(Value::Int(2))],
            vec![Instr::Quote(Value::Int(3))],
        );
        code.push(Instr::Prim(PrimOp::Add));
        let fused = fuse(&seg, &code);
        assert!(
            fused.iter().any(|i| matches!(i, Instr::Prim(PrimOp::Add))),
            "{fused:?}"
        );
        assert!(!fused
            .iter()
            .any(|i| matches!(i, Instr::Quote(Value::Int(5)))));
    }

    #[test]
    fn fused_code_computes_the_same_value() {
        // ((4 * 1) + (0 + snd)) applied to (_, 8) — same program as the
        // peephole agreement test, now fused instead of optimized.
        let seg = CodeSeg::new();
        let mul = {
            let mut c = pair(
                vec![Instr::Quote(Value::Int(4))],
                vec![Instr::Quote(Value::Int(1))],
            );
            c.push(Instr::Prim(PrimOp::Mul));
            c
        };
        let add0 = {
            let mut c = pair(vec![Instr::Quote(Value::Int(0))], vec![Instr::Snd]);
            c.push(Instr::Prim(PrimOp::Add));
            c
        };
        let mut code = pair(mul, add0);
        code.push(Instr::Prim(PrimOp::Add));
        let fused = fuse(&seg, &code);
        assert!(fused.len() < code.len(), "{fused:?}");
        let input = Value::pair(Value::Unit, Value::Int(8));
        let a = Machine::new().run(seg.entry(code), input.clone()).unwrap();
        let b = Machine::new().run(seg.entry(fused), input).unwrap();
        assert_eq!(a.to_string(), b.to_string());
        assert_eq!(a.to_string(), "12");
    }

    #[test]
    fn fusion_recurses_into_shared_blocks_once() {
        let seg = CodeSeg::new();
        let body = seg.add_block(vec![Instr::Push, Instr::Snd]);
        let code = vec![Instr::Cur(body), Instr::Cur(body)];
        let fused = fuse(&seg, &code);
        let (Instr::Cur(a), Instr::Cur(b)) = (&fused[0], &fused[1]) else {
            panic!("{fused:?}")
        };
        assert_eq!(a, b, "memoized: both references rewrite to one block");
        assert!(matches!(&seg.block_to_vec(*a)[..], [Instr::PushAcc(0)]));
        // And re-fusing the result is the identity.
        assert_eq!(fuse_block(&seg, *a), *a);
    }

    #[test]
    fn rule_selection_ranks_by_local_frequency() {
        // Two swap;cons pairs but only one acc;app — top-1 fuses only the
        // more frequent pattern.
        let code = vec![
            Instr::Swap,
            Instr::ConsPair,
            Instr::Swap,
            Instr::ConsPair,
            Instr::Acc(1),
            Instr::App,
        ];
        let sel = select_rules(&code, 1);
        assert_eq!(sel.len(), 1);
        let (fused, changed) = fuse_selected(&code, &sel);
        assert!(changed);
        assert!(
            matches!(
                &fused[..],
                [Instr::SwapCons, Instr::SwapCons, Instr::Acc(1), Instr::App]
            ),
            "{fused:?}"
        );
        // A large enough k enables every rule that occurs — and only those.
        let all = select_rules(&code, FUSE_RULE_COUNT);
        assert_eq!(all.len(), 2, "absent patterns stay disabled");
        let (fused, _) = fuse_selected(&code, &all);
        assert!(
            matches!(
                &fused[..],
                [Instr::SwapCons, Instr::SwapCons, Instr::AccApp(1)]
            ),
            "{fused:?}"
        );
        // k = 0 (or an empty profile) fuses nothing.
        assert!(select_rules(&code, 0).is_empty());
        let (same, changed) = fuse_selected(&code, &FuseSelection::none());
        assert!(!changed);
        assert_eq!(same.len(), code.len());
    }

    #[test]
    fn selection_counts_accesses_before_pairs() {
        // push; fst; snd — statically there is no (push, acc) pair, but
        // after the access collapse there is; the selector must see it.
        let code = vec![Instr::Push, Instr::Fst, Instr::Snd];
        let sel = select_rules(&code, FUSE_RULE_COUNT);
        assert_eq!(sel.len(), 2, "access + push_acc: {sel:?}");
        let (fused, _) = fuse_selected(&code, &sel);
        assert!(matches!(&fused[..], [Instr::PushAcc(1)]), "{fused:?}");
    }

    #[test]
    fn selected_fusion_leaves_nested_blocks_alone() {
        let seg = CodeSeg::new();
        let body = seg.add_block(vec![Instr::Push, Instr::Snd]);
        let code = vec![Instr::Cur(body), Instr::Push, Instr::Snd];
        let blocks_before = seg.num_blocks();
        let (fused, _) = fuse_selected(&code, &FuseSelection::all());
        assert_eq!(
            seg.num_blocks(),
            blocks_before,
            "promotion fuses one block at a time; nested bodies stay cold"
        );
        assert!(
            matches!(&fused[..], [Instr::Cur(b), Instr::PushAcc(0)] if *b == body),
            "{fused:?}"
        );
    }
}
