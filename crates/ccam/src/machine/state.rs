//! The mutable execution state shared by every opcode's step function.

use super::{MachineError, Stats};
use crate::value::{Arena, Value};
use std::rc::Rc;

/// The state a straight-line opcode operates on: the value stack, the
/// accumulated statistics, the per-run fuel account, and the `print`
/// output buffer. Control (the frame stack) and the dispatch-policy flags
/// stay on [`super::Machine`] — no straight-line opcode touches them — so
/// the per-opcode step functions in [`super::core`], [`super::env`], and
/// [`super::fused`] can be called from the interpreter's dispatch `match`
/// without borrowing the whole machine.
#[derive(Debug, Default)]
pub(crate) struct MachineState {
    /// The value stack `S`.
    pub(crate) stack: Vec<Value>,
    /// Execution statistics, the paper's measurement surface.
    pub(crate) stats: Stats,
    /// The per-run step budget, if any.
    pub(crate) fuel: Option<u64>,
    /// Fuel units spent by the current `run` (the budget is per run, not
    /// the machine's lifetime total). Distinct from `stats.steps`: a
    /// fused superinstruction counts one *step* but charges fuel for
    /// every component it replaced, so a fuel budget bounds the same
    /// amount of work in every execution mode (flat environments, tier
    /// promotion) — no dispatch encoding can be used to smuggle extra
    /// work past a per-run limit.
    pub(crate) fuel_spent: u64,
    /// Everything `print` has written.
    pub(crate) output: String,
}

/// A [`MachineError::TypeMismatch`] naming the offending instruction and
/// operand.
pub(crate) fn mismatch(instr: &'static str, expected: &'static str, found: &Value) -> MachineError {
    MachineError::TypeMismatch {
        instr,
        expected,
        found: found.to_string(),
    }
}

impl MachineState {
    /// The top of the stack, mutable.
    pub(crate) fn top(&mut self, instr: &'static str) -> Result<&mut Value, MachineError> {
        self.stack
            .last_mut()
            .ok_or(MachineError::StackUnderflow { instr })
    }

    /// Pops the top of the stack.
    pub(crate) fn pop(&mut self, instr: &'static str) -> Result<Value, MachineError> {
        self.stack
            .pop()
            .ok_or(MachineError::StackUnderflow { instr })
    }

    /// Pops the top of the stack, which must be a pair.
    pub(crate) fn pop_pair(&mut self, instr: &'static str) -> Result<(Value, Value), MachineError> {
        let v = self.pop(instr)?;
        match v {
            Value::Pair(p) => match Rc::try_unwrap(p) {
                Ok(pair) => Ok(pair),
                Err(p) => Ok((p.0.clone(), p.1.clone())),
            },
            other => Err(mismatch(instr, "a pair", &other)),
        }
    }

    /// Destructures `(v, arena)` from the top of stack, leaving nothing.
    pub(crate) fn pop_gen_state(
        &mut self,
        instr: &'static str,
    ) -> Result<(Value, Rc<Arena>), MachineError> {
        let (v, a) = self.pop_pair(instr)?;
        match a {
            Value::Arena(a) => Ok((v, a)),
            other => Err(mismatch(instr, "(value, arena)", &other)),
        }
    }

    /// Raises the stack high-water mark if the stack has grown past it.
    #[inline]
    pub(crate) fn note_stack_depth(&mut self) {
        if self.stack.len() > self.stats.max_stack {
            self.stats.max_stack = self.stack.len();
        }
    }
}
