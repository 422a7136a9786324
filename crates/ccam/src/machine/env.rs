//! Step functions for the environment projections: the CAM's `fst`/`snd`
//! spine walks, the fused `acc n` access, and the flat-mode `env_cons`
//! frame extension. All of them are total over mixed pair/frame spines —
//! `Value::env_fst`/`env_snd`/`env_acc`/`env_extend` hold the single
//! definition of what a frame denotes.

use super::state::{mismatch, MachineState};
use super::MachineError;
use crate::value::Value;
use std::rc::Rc;

/// `fst`: project the left half of the top pair (or the frame minus its
/// innermost slot).
pub(crate) fn fst(st: &mut MachineState) -> Result<(), MachineError> {
    let v = st.pop("fst")?;
    match v {
        Value::Pair(p) => {
            let a = match Rc::try_unwrap(p) {
                Ok(pair) => pair.0,
                Err(p) => p.0.clone(),
            };
            st.stack.push(a);
        }
        v @ Value::Frame(_) => {
            let a = v.env_fst().expect("frame has a first component");
            st.stack.push(a);
        }
        other => return Err(mismatch("fst", "a pair", &other)),
    }
    Ok(())
}

/// `snd`: project the right half of the top pair (or the frame's
/// innermost slot).
pub(crate) fn snd(st: &mut MachineState) -> Result<(), MachineError> {
    let v = st.pop("snd")?;
    match v {
        Value::Pair(p) => {
            let b = match Rc::try_unwrap(p) {
                Ok(pair) => pair.1,
                Err(p) => p.1.clone(),
            };
            st.stack.push(b);
        }
        v @ Value::Frame(_) => {
            let b = v.env_snd().expect("frame has a second component");
            st.stack.push(b);
        }
        other => return Err(mismatch("snd", "a pair", &other)),
    }
    Ok(())
}

/// `acc n`: fused `fst^n; snd` — one dispatch, one reduction step, and no
/// intermediate spine values pushed. Pair nodes are walked one link per
/// cell; frame nodes (flat environments) answer with a single
/// bounds-checked index.
pub(crate) fn acc(st: &mut MachineState, n: usize) -> Result<(), MachineError> {
    let v = st.pop("acc")?;
    let out = v
        .env_acc(n)
        .ok_or_else(|| mismatch("acc", "an environment spine", &v))?;
    st.stack.push(out);
    Ok(())
}

/// `env_cons`: flat-mode environment extension — like `cons`, but the
/// result is a contiguous frame, appended in place when the environment
/// is uniquely owned, chained otherwise.
pub(crate) fn env_cons(st: &mut MachineState) -> Result<(), MachineError> {
    let v = st.pop("env_cons")?;
    let env = st.pop("env_cons")?;
    st.stack.push(Value::env_extend(env, v));
    Ok(())
}
