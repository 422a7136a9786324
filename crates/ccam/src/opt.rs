//! The promotion renderer: what the tier controller
//! (DESIGN.md §15) runs a hot block as.
//!
//! Promotion rewrites one block's straight line in two passes, in this
//! order:
//!
//! 1. **The §4.2 peephole.** The paper: *"A more sophisticated
//!    specialization system might compile emit(add) to a series of
//!    instructions which would test the values of the operands of the add
//!    instruction at specialization time (if they are available) and
//!    eliminate the instruction altogether if either one is 0."* The
//!    rules:
//!    - **constant folding** — `⟨quote a, quote b⟩; prim op` →
//!      `quote (a op b)`, and `quote v; prim neg/not` → `quote v'`;
//!    - **identities** — `x + 0`, `0 + x`, `x - 0`, `x * 1`, `1 * x` and
//!      `x div 1` reduce to `x`;
//!    - **absorption** — `x * 0` and `0 * x` reduce to `quote 0` when
//!      `x`'s code is pure;
//!    - **branch folding** — `branch` on a constant boolean runs the
//!      chosen arm inline;
//!    - **dead `id` removal**.
//!
//!    Nothing that can fail is folded: a zero divisor stays for the
//!    runtime trap.
//! 2. **Superinstruction fusion** (DESIGN.md §11) — `fst^k; snd` walks
//!    collapse into `acc k`, and stereotyped adjacent pairs into single
//!    fused dispatches. Fusion never changes the computation.
//!
//! Nested blocks are left alone: each earns its own promotion from its
//! own activation count.
//!
//! Promotion is invisible to the paper's cost model because every
//! rendered instruction carries a [`Charges`] record: the fuel cost of
//! each cold instruction it stands for, in Paper order. The machine
//! charges one step per record entry and finds a fuel abort's step in the
//! record, so a folded or fused dispatch counts exactly the steps its cold
//! instructions would have, and aborts where they would have. A removed
//! instruction's cost rides on the next instruction kept. At the end of a
//! block it rides on the last instruction kept when that one is pure, and
//! otherwise on an `id` left in the removed code's place.
//!
//! The CAM pairing discipline makes operand boundaries recoverable: every
//! `⟨A, B⟩ = push; A; swap; B; cons` is parenthesis-balanced in `push`
//! against `cons`/`env_cons`, so the extent of a compiled operand can be
//! found by depth counting.

use crate::instr::{Instr, PrimOp};
use crate::machine::fuel_cost;
use crate::seg::CodeSeg;
use crate::value::Value;
use std::ops::Range;
use std::rc::Rc;

/// What each instruction of a promoted rendering stands for: the fuel
/// costs of the cold instructions it replaces, in Paper order. One entry
/// is one Paper step.
#[derive(Debug, Default)]
pub struct Charges {
    /// Every cold instruction's fuel cost, in rendering order.
    costs: Vec<u64>,
    /// Rendered instruction `pc` stands for `costs[bounds[pc]..bounds[pc + 1]]`.
    bounds: Vec<u32>,
}

impl Charges {
    /// The Paper steps rendered instruction `pc` counts as.
    #[inline]
    pub fn steps(&self, pc: usize) -> u64 {
        u64::from(self.bounds[pc + 1] - self.bounds[pc])
    }

    /// The fuel costs of the cold instructions rendered instruction `pc`
    /// stands for, in Paper order.
    pub fn costs(&self, pc: usize) -> &[u64] {
        &self.costs[self.bounds[pc] as usize..self.bounds[pc + 1] as usize]
    }
}

/// Renders a cold block for promotion — the peephole, then fusion —
/// into the instructions to run and what each of them charges, or
/// returns `None` when no rule fires. Block references in `code` resolve
/// in `seg` (a folded branch's arm is read from it).
pub fn render(seg: &CodeSeg, code: &[Instr]) -> Option<(Vec<Instr>, Charges)> {
    let cold = code.iter().map(Item::cold).collect();
    let (folded, peeped) = to_fixpoint(cold, |items| peephole_pass(seg, items));
    let (items, fused) = to_fixpoint(folded, fuse_pass);
    if !(peeped || fused) {
        return None;
    }
    let mut charges = Charges {
        costs: Vec::new(),
        bounds: vec![0],
    };
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        charges.costs.extend(item.costs);
        let end = u32::try_from(charges.costs.len()).expect("rendering exceeds u32 charges");
        charges.bounds.push(end);
        out.push(item.instr);
    }
    Some((out, charges))
}

/// One instruction of a rendering under construction and the fuel costs
/// of the cold instructions it stands for.
#[derive(Debug, Clone)]
struct Item {
    instr: Instr,
    costs: Vec<u64>,
}

impl Item {
    /// A cold instruction, standing for itself.
    fn cold(i: &Instr) -> Item {
        Item {
            instr: i.clone(),
            costs: vec![fuel_cost(i)],
        }
    }
}

/// Runs `pass` until it stops rewriting (at most four times), reporting
/// whether it rewrote anything.
fn to_fixpoint(
    mut items: Vec<Item>,
    pass: impl Fn(&[Item]) -> Option<Vec<Item>>,
) -> (Vec<Item>, bool) {
    let mut any = false;
    for _ in 0..4 {
        // A pass can rewrite without shrinking (e.g. folding a constant
        // branch into an arm of the same length), so convergence is an
        // explicit signal, not a length comparison.
        match pass(&items) {
            Some(next) => {
                items = next;
                any = true;
            }
            None => break,
        }
    }
    (items, any)
}

/// The output of one pass. Removed instructions' costs wait in
/// `pending` until the next instruction kept carries them.
#[derive(Default)]
struct Out {
    items: Vec<Item>,
    pending: Vec<u64>,
    changed: bool,
}

impl Out {
    fn keep(&mut self, item: &Item) {
        self.push(item.instr.clone(), &item.costs);
    }

    fn keep_all(&mut self, items: &[Item]) {
        for item in items {
            self.keep(item);
        }
    }

    fn push(&mut self, instr: Instr, costs: &[u64]) {
        let mut all = std::mem::take(&mut self.pending);
        all.extend_from_slice(costs);
        self.items.push(Item { instr, costs: all });
    }

    /// Removes `items` from the rendering; the next instruction kept
    /// charges for them.
    fn remove(&mut self, items: &[Item]) {
        for item in items {
            self.pending.extend_from_slice(&item.costs);
        }
        self.changed = true;
    }

    /// Replaces `items` with the single instruction `instr`.
    fn replace(&mut self, items: &[Item], instr: Instr) {
        self.remove(items);
        self.push(instr, &[]);
    }

    /// The rewritten block, if anything changed. Costs still pending at
    /// the end are charged by the last instruction when it is pure — a
    /// budget that runs out among them then skips only that
    /// instruction's unobservable work — and by an `id` otherwise.
    fn finish(mut self) -> Option<Vec<Item>> {
        if !self.pending.is_empty() {
            match self.items.last_mut() {
                Some(last) if is_pure(&last.instr) => last.costs.append(&mut self.pending),
                _ => self.push(Instr::Id, &[]),
            }
        }
        self.changed.then_some(self.items)
    }
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

fn all_pure(code: &[Item]) -> bool {
    code.iter().all(|i| is_pure(&i.instr))
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

/// `op` with constant *left* operand `k`.
fn left_identity(op: PrimOp, k: &Value) -> Identity {
    match (op, k) {
        (PrimOp::Add, Value::Int(0)) => Identity::Pass,
        (PrimOp::Mul, Value::Int(1)) => Identity::Pass,
        (PrimOp::Mul, Value::Int(0)) => Identity::Absorb(Value::Int(0)),
        _ => Identity::No,
    }
}

/// `op` with constant *right* operand `k`.
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

/// For `code[push_idx] = push`, recovers the operand ranges of a
/// `push; A; swap; B; cons` pairing: `(A, B, cons_index)`. `None` unless
/// both operands are balanced within this block, each a computation on
/// the top of the stack alone: no `swap` and no pair constructor
/// (`cons`, `env_cons`) at its own depth. The rules that drop the
/// pairing rely on exactly that.
fn split_pair(code: &[Item], push_idx: usize) -> Option<(Range<usize>, Range<usize>, usize)> {
    let mut depth = 0usize;
    let mut j = push_idx + 1;
    let swap_idx = loop {
        match &code.get(j)?.instr {
            Instr::Push => depth += 1,
            Instr::ConsPair | Instr::EnvCons if depth == 0 => return None,
            Instr::ConsPair | Instr::EnvCons => depth -= 1,
            Instr::Swap if depth == 0 => break j,
            _ => {}
        }
        j += 1;
    };
    let mut j = swap_idx + 1;
    let cons_idx = loop {
        match &code.get(j)?.instr {
            Instr::Push => depth += 1,
            Instr::ConsPair if depth == 0 => break j,
            Instr::EnvCons | Instr::Swap if depth == 0 => return None,
            Instr::ConsPair | Instr::EnvCons => depth -= 1,
            _ => {}
        }
        j += 1;
    };
    Some((push_idx + 1..swap_idx, swap_idx + 1..cons_idx, cons_idx))
}

fn single_quote(code: &[Item]) -> Option<&Value> {
    match code {
        [Item {
            instr: Instr::Quote(v),
            ..
        }] => Some(v),
        _ => None,
    }
}

/// Applies the binary-operator rules to the window
/// `push; A; swap; B; cons; prim op` starting at `i`, returning the
/// index after the window when a rule fired.
fn binary_rule(code: &[Item], i: usize, out: &mut Out) -> Option<usize> {
    let (a, b, cons_idx) = split_pair(code, i)?;
    let Instr::Prim(op) = code.get(cons_idx + 1)?.instr else {
        return None;
    };
    let end = cons_idx + 2;
    let (a_const, b_const) = (
        single_quote(&code[a.clone()]),
        single_quote(&code[b.clone()]),
    );
    if let Some(v) = a_const.zip(b_const).and_then(|(x, y)| fold_binop(op, x, y)) {
        out.replace(&code[i..end], Instr::Quote(v));
        return Some(end);
    }
    // ⟨quote k, B⟩; op — B passes through, or a pure B is absorbed.
    match a_const.map_or(Identity::No, |k| left_identity(op, k)) {
        Identity::Pass => {
            out.remove(&code[i..b.start]);
            out.keep_all(&code[b]);
            out.remove(&code[cons_idx..end]);
            return Some(end);
        }
        Identity::Absorb(v) if all_pure(&code[b.clone()]) => {
            out.replace(&code[i..end], Instr::Quote(v));
            return Some(end);
        }
        _ => {}
    }
    // ⟨A, quote k⟩; op
    match b_const.map_or(Identity::No, |k| right_identity(op, k)) {
        Identity::Pass => {
            out.remove(&code[i..a.start]);
            out.keep_all(&code[a.clone()]);
            out.remove(&code[a.end..end]);
            Some(end)
        }
        Identity::Absorb(v) if all_pure(&code[a]) => {
            out.replace(&code[i..end], Instr::Quote(v));
            Some(end)
        }
        _ => None,
    }
}

/// One left-to-right pass of the §4.2 rules; `None` if none fired.
fn peephole_pass(seg: &CodeSeg, code: &[Item]) -> Option<Vec<Item>> {
    let mut out = Out::default();
    let mut i = 0;
    while i < code.len() {
        let next = code.get(i + 1).map(|it| &it.instr);
        match &code[i].instr {
            Instr::Push => {
                if let Some(end) = binary_rule(code, i, &mut out) {
                    i = end;
                    continue;
                }
                // push; quote b; cons; branch — a constant conditional:
                // the chosen arm runs inline on the environment copy the
                // branch would have consumed.
                if let (Some(Instr::Quote(Value::Bool(b))), Some(Instr::ConsPair)) =
                    (next, code.get(i + 2).map(|it| &it.instr))
                {
                    if let Some(Instr::Branch(t, e)) = code.get(i + 3).map(|it| &it.instr) {
                        let arm = seg.block_to_vec(if *b { *t } else { *e });
                        out.remove(&code[i..i + 4]);
                        for instr in &arm {
                            out.keep(&Item::cold(instr));
                        }
                        i += 4;
                        continue;
                    }
                }
            }
            // quote v; prim neg/not — unary folding.
            Instr::Quote(v) => {
                let folded = match (next, v) {
                    (Some(Instr::Prim(PrimOp::Neg)), Value::Int(n)) => {
                        Some(Value::Int(n.wrapping_neg()))
                    }
                    (Some(Instr::Prim(PrimOp::Not)), Value::Bool(b)) => Some(Value::Bool(!b)),
                    _ => None,
                };
                if let Some(v) = folded {
                    out.replace(&code[i..i + 2], Instr::Quote(v));
                    i += 2;
                    continue;
                }
            }
            // A dead `id` goes unless it would only come back to carry
            // the costs pending at the block's end.
            Instr::Id if next.is_some() || out.items.last().is_some_and(|l| is_pure(&l.instr)) => {
                out.remove(&code[i..=i]);
                i += 1;
                continue;
            }
            _ => {}
        }
        out.keep(&code[i]);
        i += 1;
    }
    out.finish()
}

/// The superinstruction (if any) that fuses the adjacent pair `(a, b)`.
fn fuse_pair(a: &Instr, b: &Instr) -> Option<Instr> {
    Some(match (a, b) {
        (Instr::Push, Instr::Acc(n)) => Instr::PushAcc(*n),
        (Instr::Push, Instr::Snd) => Instr::PushAcc(0),
        (Instr::Push, Instr::Quote(v)) => Instr::PushQuote(Rc::new(v.clone())),
        (Instr::Quote(v), Instr::ConsPair) => Instr::QuoteCons(Rc::new(v.clone())),
        (Instr::Swap, Instr::ConsPair) => Instr::SwapCons,
        (Instr::ConsPair, Instr::App) => Instr::ConsApp,
        (Instr::Acc(n), Instr::App) => Instr::AccApp(*n),
        (Instr::Snd, Instr::App) => Instr::AccApp(0),
        _ => return None,
    })
}

/// One greedy left-to-right fusion pass; `None` if no rule fired. Every
/// fused opcode performs exactly the work of the instructions it
/// replaces.
fn fuse_pass(code: &[Item]) -> Option<Vec<Item>> {
    let mut out = Out::default();
    let mut i = 0;
    while i < code.len() {
        // fst^k; snd / fst^k; acc m — the access collapse, so the pair
        // rules below can consume the resulting `acc`.
        if matches!(code[i].instr, Instr::Fst) {
            let k = code[i..]
                .iter()
                .take_while(|it| matches!(it.instr, Instr::Fst))
                .count();
            let depth = match code.get(i + k).map(|it| &it.instr) {
                Some(Instr::Snd) => Some(k),
                Some(Instr::Acc(m)) => Some(k + m),
                _ => None,
            };
            if let Some(depth) = depth {
                out.replace(&code[i..=i + k], Instr::Acc(depth));
                i += k + 1;
                continue;
            }
        }
        if let Some(f) = code
            .get(i + 1)
            .and_then(|next| fuse_pair(&code[i].instr, &next.instr))
        {
            out.replace(&code[i..i + 2], f);
            i += 2;
            continue;
        }
        out.keep(&code[i]);
        i += 1;
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    /// The promoted rendering of one straight line (the line itself when
    /// no rule fires).
    fn rendered(seg: &CodeSeg, code: &[Instr]) -> Vec<Instr> {
        render(seg, code).map_or_else(|| code.to_vec(), |r| r.0)
    }

    /// The fusion pass alone.
    fn fuse(code: &[Instr]) -> Vec<Instr> {
        let (items, _) = to_fixpoint(code.iter().map(Item::cold).collect(), fuse_pass);
        items.into_iter().map(|it| it.instr).collect()
    }

    /// Runs `code` on `input` cold and promoted from its first
    /// activation, asserts both give the same value in Paper's steps,
    /// and returns the value.
    fn agree(seg: &CodeSeg, code: Vec<Instr>, input: Value) -> String {
        let entry = seg.entry(code);
        let mut cold = Machine::new();
        let a = cold.run(entry.clone(), input.clone()).unwrap();
        let mut hot = Machine::new();
        hot.set_promote_after(0);
        let b = hot.run(entry, input).unwrap();
        assert_eq!(a.to_string(), b.to_string());
        assert_eq!(cold.stats().steps, hot.stats().steps);
        assert!(hot.stats().tier_steps[1] > 0, "the rendering ran");
        a.to_string()
    }

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
        let (code, charges) = render(&seg, &code).unwrap();
        assert!(matches!(&code[..], [Instr::Quote(Value::Int(5))]));
        assert_eq!(charges.costs(0), [1; 6], "one step per cold instruction");
        assert_eq!(charges.steps(0), 6);
    }

    #[test]
    fn add_zero_left_eliminates() {
        // 0 + snd  →  snd
        let seg = CodeSeg::new();
        let mut code = pair(vec![Instr::Quote(Value::Int(0))], vec![Instr::Snd]);
        code.push(Instr::Prim(PrimOp::Add));
        let opt = rendered(&seg, &code);
        assert!(matches!(&opt[..], [Instr::Snd]), "{opt:?}");
    }

    #[test]
    fn mul_one_right_eliminates() {
        let seg = CodeSeg::new();
        let mut code = pair(vec![Instr::Snd], vec![Instr::Quote(Value::Int(1))]);
        code.push(Instr::Prim(PrimOp::Mul));
        let opt = rendered(&seg, &code);
        assert!(matches!(&opt[..], [Instr::Snd]), "{opt:?}");
    }

    #[test]
    fn mul_zero_absorbs_pure_operand_only() {
        // snd * 0 → quote 0 (snd is pure).
        let seg = CodeSeg::new();
        let mut code = pair(vec![Instr::Snd], vec![Instr::Quote(Value::Int(0))]);
        code.push(Instr::Prim(PrimOp::Mul));
        let opt = rendered(&seg, &code);
        assert!(matches!(&opt[..], [Instr::Quote(Value::Int(0))]));
        // print "x" * 0 must NOT be eliminated (effect!).
        let mut code = pair(
            vec![Instr::Quote(Value::str("x")), Instr::Prim(PrimOp::Print)],
            vec![Instr::Quote(Value::Int(0))],
        );
        code.push(Instr::Prim(PrimOp::Mul));
        let opt = rendered(&seg, &code);
        assert!(
            opt.iter().any(|i| matches!(i, Instr::Prim(PrimOp::Print))),
            "effectful operand preserved: {opt:?}"
        );
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
        let opt = rendered(&seg, &code);
        // After folding: ⟨quote 3, snd⟩; add, whose `push; quote 3` fuses.
        assert!(opt.iter().any(|i| match i {
            Instr::Quote(v) => matches!(v, Value::Int(3)),
            Instr::PushQuote(v) => matches!(**v, Value::Int(3)),
            _ => false,
        }));
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
        let (hot, charges) = render(&seg, &code).unwrap();
        assert!(matches!(&hot[..], [Instr::Quote(Value::Int(1))]));
        assert_eq!(charges.steps(0), 5, "push, quote, cons, branch, the arm");
        assert_eq!(agree(&seg, code, Value::Unit), "1");
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
        let other = seg.add_block(vec![Instr::Fail(Rc::new("else".into()))]);
        let code = vec![
            Instr::Push,
            Instr::Quote(Value::Bool(true)),
            Instr::ConsPair,
            Instr::Branch(arm, other),
        ];
        let opt = rendered(&seg, &code);
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
            let opt = rendered(&seg, &code);
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
        let opt = rendered(&seg, &code);
        assert!(
            matches!(opt.last(), Some(Instr::Prim(PrimOp::Div))),
            "not folded: {opt:?}"
        );
    }

    #[test]
    fn div_by_one_eliminates() {
        let seg = CodeSeg::new();
        let mut code = pair(vec![Instr::Snd], vec![Instr::Quote(Value::Int(1))]);
        code.push(Instr::Prim(PrimOp::Div));
        let opt = rendered(&seg, &code);
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
        assert!(rendered(&seg, &code).len() < code.len());
        let input = Value::pair(Value::Unit, Value::Int(8));
        assert_eq!(agree(&seg, code, input), "12");
    }

    #[test]
    fn removed_costs_after_an_effect_ride_on_an_id() {
        // 0 + (print "x"; …): the `cons; add` after the effect cannot be
        // charged before it, so an `id` carries them.
        let seg = CodeSeg::new();
        let mut code = pair(
            vec![Instr::Quote(Value::Int(0))],
            vec![Instr::Quote(Value::str("x")), Instr::Prim(PrimOp::Print)],
        );
        code.push(Instr::Prim(PrimOp::Add));
        let (code, charges) = render(&seg, &code).unwrap();
        assert!(
            matches!(
                &code[..],
                [Instr::Quote(_), Instr::Prim(PrimOp::Print), Instr::Id]
            ),
            "{:?}",
            code
        );
        assert_eq!(
            (0..3).map(|pc| charges.steps(pc)).collect::<Vec<_>>(),
            [4, 1, 2]
        );
    }

    #[test]
    fn fst_chains_fuse_into_acc() {
        let seg = CodeSeg::new();
        let code = vec![Instr::Fst, Instr::Fst, Instr::Fst, Instr::Snd];
        let (code, charges) = render(&seg, &code).unwrap();
        assert!(matches!(&code[..], [Instr::Acc(3)]), "{:?}", code);
        assert_eq!(charges.steps(0), 4, "acc 3 counts the walk it replaces");
        // A bare snd (zero fsts) is left alone — same cost either way.
        assert!(render(&seg, &[Instr::Snd]).is_none());
        // Fsts not followed by snd are not an access path.
        assert!(render(&seg, &[Instr::Fst, Instr::Fst]).is_none());
    }

    #[test]
    fn fst_before_acc_deepens_the_access() {
        // A flat-env `acc 2` is one step costing 3 fuel units.
        let seg = CodeSeg::new();
        let (code, charges) = render(&seg, &[Instr::Fst, Instr::Acc(2)]).unwrap();
        assert!(matches!(&code[..], [Instr::Acc(3)]), "{:?}", code);
        assert_eq!(charges.costs(0), [1, 3]);
    }

    #[test]
    fn fused_access_computes_the_same_value() {
        let seg = CodeSeg::new();
        let spine = Value::pair(
            Value::pair(Value::pair(Value::Unit, Value::Int(5)), Value::Int(6)),
            Value::Int(7),
        );
        let code = vec![Instr::Fst, Instr::Fst, Instr::Snd];
        assert_eq!(agree(&seg, code, spine), "5");
    }

    #[test]
    fn fusion_rewrites_the_stereotyped_pairs() {
        // ⟨acc 1, quote 3⟩; app — the CAM's function-application shape.
        let code = vec![
            Instr::Push,
            Instr::Acc(1),
            Instr::Swap,
            Instr::Quote(Value::Int(3)),
            Instr::ConsPair,
            Instr::App,
        ];
        let fused = fuse(&code);
        assert!(
            matches!(
                &fused[..],
                [Instr::PushAcc(1), Instr::Swap, Instr::QuoteCons(v), Instr::App]
                    if matches!(**v, Value::Int(3))
            ),
            "{fused:?}"
        );
    }

    #[test]
    fn fusion_composes_with_access_collapse() {
        // push; fst; fst; snd — fusion alone collapses the access chain
        // and then consumes the resulting acc.
        let code = vec![Instr::Push, Instr::Fst, Instr::Fst, Instr::Snd];
        let fused = fuse(&code);
        assert!(matches!(&fused[..], [Instr::PushAcc(2)]), "{fused:?}");
        // snd; app and cons; app become single transfers.
        let code = vec![Instr::Snd, Instr::App];
        assert!(matches!(&fuse(&code)[..], [Instr::AccApp(0)]));
        let code = vec![Instr::Swap, Instr::ConsPair, Instr::App];
        let fused = fuse(&code);
        assert!(
            matches!(&fused[..], [Instr::SwapCons, Instr::App]),
            "greedy left-to-right: swap;cons wins over cons;app: {fused:?}"
        );
    }

    #[test]
    fn fusion_never_folds_constants() {
        // ⟨quote 2, quote 3⟩; add — the peephole folds this to quote 5;
        // fusion must keep the arithmetic (it only merges dispatches).
        let mut code = pair(
            vec![Instr::Quote(Value::Int(2))],
            vec![Instr::Quote(Value::Int(3))],
        );
        code.push(Instr::Prim(PrimOp::Add));
        let fused = fuse(&code);
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
        // push; snd; swap; quote 3; cons; add on (_, 8) — no rule of the
        // peephole applies, so this runs fusion alone.
        let seg = CodeSeg::new();
        let mut code = pair(vec![Instr::Snd], vec![Instr::Quote(Value::Int(3))]);
        code.push(Instr::Prim(PrimOp::Add));
        let fused = fuse(&code);
        assert!(fused.len() < code.len(), "{fused:?}");
        let input = Value::pair(Value::Unit, Value::Int(8));
        assert_eq!(agree(&seg, code, input), "11");
    }

    #[test]
    fn selected_fusion_leaves_nested_blocks_alone() {
        let seg = CodeSeg::new();
        // The body holds a foldable `1 + 2`: it is the body's own
        // promotion that folds it, not its parent's.
        let mut body = pair(
            vec![Instr::Quote(Value::Int(1))],
            vec![Instr::Quote(Value::Int(2))],
        );
        body.push(Instr::Prim(PrimOp::Add));
        let body = seg.add_block(body);
        let code = vec![Instr::Cur(body), Instr::Push, Instr::Snd];
        let blocks_before = seg.num_blocks();
        let fused = rendered(&seg, &code);
        assert_eq!(
            seg.num_blocks(),
            blocks_before,
            "promotion renders one block at a time; nested bodies stay cold"
        );
        assert!(
            matches!(&fused[..], [Instr::Cur(b), Instr::PushAcc(0)] if *b == body),
            "{fused:?}"
        );
        // And re-rendering the result is the identity.
        assert!(render(&seg, &fused).is_none());
    }
}
