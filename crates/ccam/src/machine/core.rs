//! Step functions for the core opcodes: the seven CAM instructions
//! (minus the environment projections, which live in [`super::env`]),
//! constants, closures, the RTCG staging instructions that only touch an
//! arena's *staging* buffer (`emit`, `lift`, `arena`), datatype packing,
//! and the primitives.
//!
//! Every function takes the operands **already decoded** from the
//! instruction; the dispatch table's wrappers decode them. None of
//! these appends to a segment's instruction vector or touches the
//! control stack, so the interpreter may run them under its block
//! borrow.

use super::state::{mismatch, MachineState};
use super::MachineError;
use crate::instr::{Instr, PrimOp};
use crate::machine::{floor_div, floor_mod};
use crate::seg::{BlockId, CodeRef, CodeSeg};
use crate::value::{Arena, Closure, RecGroup, Value};
use std::cell::RefCell;
use std::rc::Rc;

/// `id`: no-op.
pub(crate) fn id(_st: &mut MachineState) -> Result<(), MachineError> {
    Ok(())
}

/// `push`: duplicate the top of the stack.
pub(crate) fn push(st: &mut MachineState) -> Result<(), MachineError> {
    let v = st.top("push")?.clone();
    st.stack.push(v);
    Ok(())
}

/// `swap`: exchange the two top stack entries.
pub(crate) fn swap(st: &mut MachineState) -> Result<(), MachineError> {
    let n = st.stack.len();
    if n < 2 {
        return Err(MachineError::StackUnderflow { instr: "swap" });
    }
    st.stack.swap(n - 1, n - 2);
    Ok(())
}

/// `cons`: pop `v` then `u`; push the pair `(u, v)`.
pub(crate) fn cons_pair(st: &mut MachineState) -> Result<(), MachineError> {
    let v = st.pop("cons")?;
    let u = st.pop("cons")?;
    st.stack.push(Value::pair(u, v));
    Ok(())
}

/// `quote v`: replace the top with a constant.
pub(crate) fn quote(st: &mut MachineState, v: &Value) -> Result<(), MachineError> {
    let _ = st.pop("quote")?;
    st.stack.push(v.clone());
    Ok(())
}

/// `cur L`: build a closure capturing the top value; the body is block
/// `L` of the executing segment.
pub(crate) fn cur(st: &mut MachineState, seg: &CodeSeg, body: BlockId) -> Result<(), MachineError> {
    let env = st.pop("cur")?;
    st.stack.push(Value::Closure(Rc::new(Closure {
        env,
        body: CodeRef {
            seg: seg.clone(),
            block: body,
        },
    })));
    Ok(())
}

/// `emit i`: append a static instruction to the arena in the top pair
/// `(v, {P})`.
pub(crate) fn emit(st: &mut MachineState, seg: &CodeSeg, i: &Instr) -> Result<(), MachineError> {
    let (v, arena) = st.pop_gen_state("emit")?;
    // Block operands are relative to the executing segment; rewrite them
    // if the arena freezes into a different one (identity in the common
    // case).
    arena.push(arena.seg().import_instr(seg, i));
    st.stats.emitted += 1;
    st.stack.push(Value::pair(v, Value::Arena(arena)));
    Ok(())
}

/// `lift`: residualize — append `Quote(v)` to the arena in the top pair
/// `(v, {P})`.
pub(crate) fn lift(st: &mut MachineState) -> Result<(), MachineError> {
    let (v, arena) = st.pop_gen_state("lift")?;
    arena.push(Instr::Quote(v.clone()));
    st.stats.emitted += 1;
    st.stack.push(Value::pair(v, Value::Arena(arena)));
    Ok(())
}

/// `arena`: replace the top with a fresh empty arena bound to the
/// executing segment, so frozen code lands in the segment's growable
/// tail.
pub(crate) fn new_arena(st: &mut MachineState, seg: &CodeSeg) -> Result<(), MachineError> {
    let _ = st.pop("arena")?;
    st.stats.arenas += 1;
    st.stack.push(Value::Arena(Arena::in_seg(seg)));
    Ok(())
}

/// `recclos [L1..Ln]`: build a recursive closure group capturing the top
/// environment and extend the environment with every member.
pub(crate) fn rec_clos(
    st: &mut MachineState,
    seg: &CodeSeg,
    bodies: &Rc<Vec<BlockId>>,
) -> Result<(), MachineError> {
    let env = st.pop("recclos")?;
    let group = Rc::new(RecGroup {
        env,
        seg: seg.clone(),
        bodies: bodies.clone(),
    });
    let mut acc = group.env.clone();
    for index in 0..bodies.len() {
        acc = Value::pair(
            acc,
            Value::RecClosure {
                group: group.clone(),
                index: index as u32,
            },
        );
    }
    st.stack.push(acc);
    Ok(())
}

/// `pack t`: wrap the top value in constructor `t`.
pub(crate) fn pack(st: &mut MachineState, tag: u32) -> Result<(), MachineError> {
    let v = st.pop("pack")?;
    st.stack.push(Value::Con(tag, Some(Rc::new(v))));
    Ok(())
}

/// `fail msg`: abort (inexhaustive match).
pub(crate) fn fail(msg: &str) -> Result<(), MachineError> {
    Err(MachineError::Fail(msg.to_string()))
}

/// `prim op`: a primitive operation on the top value (unary), top pair
/// (binary), or top right-nested triple (`ArrUpdate`).
pub(crate) fn prim(st: &mut MachineState, op: PrimOp) -> Result<(), MachineError> {
    use PrimOp::*;
    let instr = "prim";
    match op {
        Neg | Not | StrSize | IntToString | Print | Ref | Deref | ArrLen => {
            let v = st.pop(instr)?;
            let out = match (op, v) {
                (Neg, Value::Int(n)) => Value::Int(n.wrapping_neg()),
                (Not, Value::Bool(b)) => Value::Bool(!b),
                (StrSize, Value::Str(s)) => Value::Int(s.len() as i64),
                (IntToString, Value::Int(n)) => Value::str(n.to_string()),
                (Print, Value::Str(s)) => {
                    st.output.push_str(&s);
                    Value::Unit
                }
                (Ref, v) => Value::Ref(Rc::new(RefCell::new(v))),
                (Deref, Value::Ref(r)) => r.borrow().clone(),
                (ArrLen, Value::Array(a)) => Value::Int(a.borrow().len() as i64),
                (_, v) => return Err(mismatch(instr, "a valid operand", &v)),
            };
            st.stack.push(out);
            Ok(())
        }
        ArrUpdate => {
            // (a, (i, v))
            let (a, rest) = st.pop_pair(instr)?;
            let Value::Pair(iv) = rest else {
                return Err(mismatch(instr, "(array, (index, value))", &rest));
            };
            let (Value::Array(arr), Value::Int(i)) = (&a, &iv.0) else {
                return Err(mismatch(instr, "(array, (index, value))", &a));
            };
            let mut borrow = arr.borrow_mut();
            let len = borrow.len();
            let idx = usize::try_from(*i)
                .ok()
                .filter(|&u| u < len)
                .ok_or(MachineError::IndexOutOfBounds { index: *i, len })?;
            borrow[idx] = iv.1.clone();
            drop(borrow);
            st.stack.push(Value::Unit);
            Ok(())
        }
        _ => {
            // Binary.
            let (a, b) = st.pop_pair(instr)?;
            let out = match (op, &a, &b) {
                (Add, Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_add(*y)),
                (Sub, Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_sub(*y)),
                (Mul, Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_mul(*y)),
                (Div, Value::Int(x), Value::Int(y)) => {
                    if *y == 0 {
                        return Err(MachineError::DivideByZero);
                    }
                    Value::Int(floor_div(*x, *y))
                }
                (Mod, Value::Int(x), Value::Int(y)) => {
                    if *y == 0 {
                        return Err(MachineError::DivideByZero);
                    }
                    Value::Int(floor_mod(*x, *y))
                }
                (Eq, a, b) => {
                    Value::Bool(a.structural_eq(b).ok_or(MachineError::EqualityUndefined)?)
                }
                (Ne, a, b) => {
                    Value::Bool(!a.structural_eq(b).ok_or(MachineError::EqualityUndefined)?)
                }
                (Lt, Value::Int(x), Value::Int(y)) => Value::Bool(x < y),
                (Le, Value::Int(x), Value::Int(y)) => Value::Bool(x <= y),
                (Gt, Value::Int(x), Value::Int(y)) => Value::Bool(x > y),
                (Ge, Value::Int(x), Value::Int(y)) => Value::Bool(x >= y),
                (Lt, Value::Str(x), Value::Str(y)) => Value::Bool(x < y),
                (Le, Value::Str(x), Value::Str(y)) => Value::Bool(x <= y),
                (Gt, Value::Str(x), Value::Str(y)) => Value::Bool(x > y),
                (Ge, Value::Str(x), Value::Str(y)) => Value::Bool(x >= y),
                (BitAnd, Value::Int(x), Value::Int(y)) => Value::Int(x & y),
                (Concat, Value::Str(x), Value::Str(y)) => {
                    let mut s = x.to_string();
                    s.push_str(y);
                    Value::str(s)
                }
                (Assign, Value::Ref(r), v) => {
                    *r.borrow_mut() = v.clone();
                    Value::Unit
                }
                (MkArray, Value::Int(n), init) => {
                    let size = MachineError::ArraySize { len: *n };
                    let len = usize::try_from(*n).map_err(|_| size.clone())?;
                    let mut elems = Vec::new();
                    elems.try_reserve_exact(len).map_err(|_| size)?;
                    elems.resize(len, init.clone());
                    Value::Array(Rc::new(RefCell::new(elems)))
                }
                (ArrSub, Value::Array(arr), Value::Int(i)) => {
                    let borrow = arr.borrow();
                    let len = borrow.len();
                    let idx = usize::try_from(*i)
                        .ok()
                        .filter(|&u| u < len)
                        .ok_or(MachineError::IndexOutOfBounds { index: *i, len })?;
                    borrow[idx].clone()
                }
                _ => return Err(mismatch(instr, "valid binary operands", &a)),
            };
            st.stack.push(out);
            Ok(())
        }
    }
}
