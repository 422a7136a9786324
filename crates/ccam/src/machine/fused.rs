//! Step functions for the straight-line fused superinstructions
//! (opcodes 24–26 and 29, DESIGN.md §11): each does the work of the
//! opcode pair it replaced in one dispatch. The fused *transfers*
//! (`cons_app`, `acc_app`) live in [`super::transfer`] — they enter
//! closures, which the straight-line tier cannot do.

use super::state::{mismatch, MachineState};
use super::MachineError;
use crate::value::Value;

/// `push_acc n`: `push; acc n` without the duplicate — peek the top,
/// resolve the access, push only the result.
pub(crate) fn push_acc(st: &mut MachineState, n: usize) -> Result<(), MachineError> {
    let out = {
        let v = st
            .stack
            .last()
            .ok_or(MachineError::StackUnderflow { instr: "push_acc" })?;
        v.env_acc(n)
            .ok_or_else(|| mismatch("push_acc", "an environment spine", v))?
    };
    st.stack.push(out);
    Ok(())
}

/// `quote_cons v`: `quote v; cons` — the quoted constant replaces the
/// top, then pairs with the value beneath.
pub(crate) fn quote_cons(st: &mut MachineState, v: &Value) -> Result<(), MachineError> {
    let _ = st.pop("quote_cons")?;
    let u = st.pop("quote_cons")?;
    st.stack.push(Value::pair(u, v.clone()));
    Ok(())
}

/// `swap_cons`: `swap; cons` — a pair with the operands in stack order
/// (top first) instead of reversed.
pub(crate) fn swap_cons(st: &mut MachineState) -> Result<(), MachineError> {
    let t = st.pop("swap_cons")?;
    let u = st.pop("swap_cons")?;
    st.stack.push(Value::pair(t, u));
    Ok(())
}

/// `push_quote v`: `push; quote v` — keep the top, push the constant
/// above it. A lone `push` underflows on an empty stack, so the fused
/// form must too.
pub(crate) fn push_quote(st: &mut MachineState, v: &Value) -> Result<(), MachineError> {
    if st.stack.is_empty() {
        return Err(MachineError::StackUnderflow {
            instr: "push_quote",
        });
    }
    st.stack.push(v.clone());
    Ok(())
}
