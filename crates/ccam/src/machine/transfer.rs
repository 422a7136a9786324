//! The control-transfer and segment-mutating instructions: application,
//! branching, `call`, and the merge family. These push control frames or
//! freeze arena contents into a segment, so the dispatch loop must not
//! run them under its instruction borrow — it saves the pc (or pops the
//! frame, when the transfer ends its block), releases the borrow, and
//! calls one of these with the whole [`Machine`] (control stack and
//! freeze cache included). `seg` is always the segment of the frame the
//! instruction came from: block operands are relative to it.

use super::state::mismatch;
use super::{Machine, MachineError};
use crate::instr::{Instr, MergeSwitchSpec, SwitchArm, SwitchTable};
use crate::seg::{BlockId, CodeRef, CodeSeg};
use crate::value::Value;
use std::rc::Rc;

/// `app`: pop the `(closure, argument)` pair and enter the closure body.
pub(crate) fn app(m: &mut Machine) -> Result<(), MachineError> {
    let (f, arg) = m.state.pop_pair("app")?;
    apply_to(m, f, arg)
}

/// Fused `cons; app`: apply without materializing the (closure,
/// argument) pair on the stack.
pub(crate) fn cons_app(m: &mut Machine) -> Result<(), MachineError> {
    let arg = m.state.pop("cons_app")?;
    let f = m.state.pop("cons_app")?;
    apply_to(m, f, arg)
}

/// Fused `acc n; app` (`snd; app` when n = 0): fetch the (closure,
/// argument) pair from the environment and apply it in one dispatch.
pub(crate) fn acc_app(m: &mut Machine, n: usize) -> Result<(), MachineError> {
    let v = m.state.pop("acc_app")?;
    let w = v
        .env_acc(n)
        .ok_or_else(|| mismatch("acc_app", "an environment spine", &v))?;
    let Value::Pair(p) = w else {
        return Err(mismatch("acc_app", "a (closure, argument) pair", &w));
    };
    let (f, arg) = match Rc::try_unwrap(p) {
        Ok(pair) => pair,
        Err(p) => (p.0.clone(), p.1.clone()),
    };
    apply_to(m, f, arg)
}

/// Enters `f` applied to `arg` (the shared tail of every application
/// form).
pub(crate) fn apply_to(m: &mut Machine, f: Value, arg: Value) -> Result<(), MachineError> {
    match f {
        Value::Closure(c) => {
            // Always a genuine pair, even over a frame environment:
            // generating extensions are applied to arenas and their
            // state `(lenv, A)` is destructured as a literal pair by
            // the RTCG instructions. Frames are built only by
            // `env_cons`; `acc` walks mixed pair/frame spines.
            m.state.stack.push(Value::pair(c.env.clone(), arg));
            m.enter(c.body.clone());
            Ok(())
        }
        Value::RecClosure { group, index } => {
            // env' = ((env, f1), ..., fn), then (env', arg).
            let mut acc = group.env.clone();
            for i in 0..group.bodies.len() {
                acc = Value::pair(
                    acc,
                    Value::RecClosure {
                        group: group.clone(),
                        index: i as u32,
                    },
                );
            }
            m.state.stack.push(Value::pair(acc, arg));
            m.enter(CodeRef {
                seg: group.seg.clone(),
                block: group.bodies[index as usize],
            });
            Ok(())
        }
        other => Err(mismatch("app", "a closure", &other)),
    }
}

/// `branch L1 L2`: pop `(env, bool)`, push `env`, enter the chosen block.
pub(crate) fn branch(
    m: &mut Machine,
    seg: &CodeSeg,
    then_b: BlockId,
    else_b: BlockId,
) -> Result<(), MachineError> {
    let (env, b) = m.state.pop_pair("branch")?;
    let Value::Bool(b) = b else {
        return Err(mismatch("branch", "(env, bool)", &b));
    };
    m.state.stack.push(env);
    m.enter(CodeRef {
        seg: seg.clone(),
        block: if b { then_b } else { else_b },
    });
    Ok(())
}

/// `switch`: pop `(env, constructor)`, dispatch on the tag, optionally
/// binding the payload.
pub(crate) fn switch(
    m: &mut Machine,
    seg: &CodeSeg,
    table: &SwitchTable,
) -> Result<(), MachineError> {
    let (env, scrut) = m.state.pop_pair("switch")?;
    let Value::Con(tag, payload) = scrut else {
        return Err(mismatch("switch", "(env, constructor)", &scrut));
    };
    let arm = table.arms.iter().find(|a| a.tag == tag);
    match arm {
        Some(SwitchArm { bind, code, .. }) => {
            if *bind {
                let payload = payload.map(|p| (*p).clone()).unwrap_or(Value::Unit);
                m.state.stack.push(Value::pair(env, payload));
            } else {
                m.state.stack.push(env);
            }
            m.enter(CodeRef {
                seg: seg.clone(),
                block: *code,
            });
            Ok(())
        }
        None => match table.default {
            Some(code) => {
                m.state.stack.push(env);
                m.enter(CodeRef {
                    seg: seg.clone(),
                    block: code,
                });
                Ok(())
            }
            None => Err(MachineError::NoMatchingArm { tag }),
        },
    }
}

/// `call`: freeze the arena in the top `(v, {P})` and enter the frozen
/// block.
pub(crate) fn call(m: &mut Machine) -> Result<(), MachineError> {
    let (v, arena) = m.state.pop_gen_state("call")?;
    m.state.stack.push(v);
    m.state.stats.calls += 1;
    let code = m.freeze(&arena);
    m.enter(code);
    Ok(())
}

/// `merge`: freeze the inner arena and append `Cur` of it to the outer
/// one.
pub(crate) fn merge(m: &mut Machine) -> Result<(), MachineError> {
    let (first, second) = m.state.pop_pair("merge")?;
    let Value::Arena(inner) = first else {
        return Err(mismatch("merge", "(arena, (value, arena))", &first));
    };
    let (v, outer) = match second {
        Value::Pair(p) => match (&p.0, &p.1) {
            (v, Value::Arena(outer)) => (v.clone(), outer.clone()),
            _ => {
                return Err(mismatch(
                    "merge",
                    "(arena, (value, arena))",
                    &Value::Pair(p.clone()),
                ))
            }
        },
        other => return Err(mismatch("merge", "(arena, (value, arena))", &other)),
    };
    let body = m.freeze(&inner);
    let block = outer.seg().import_block(&body.seg, body.block);
    outer.push(Instr::Cur(block));
    m.state.stats.emitted += 1;
    m.state.stack.push(Value::pair(v, Value::Arena(outer)));
    Ok(())
}

/// `merge_branch`: freeze the then/else arenas and append `Branch` to the
/// outer one. Stack shape: `(((v,{P}), {A_then}), {A_else})`.
pub(crate) fn merge_branch(m: &mut Machine) -> Result<(), MachineError> {
    let (rest, else_a) = m.state.pop_pair("merge_branch")?;
    let Value::Pair(rest) = rest else {
        return Err(mismatch("merge_branch", "nested arenas", &rest));
    };
    let (gen_state, then_a) = (rest.0.clone(), rest.1.clone());
    // Name the operand that is actually wrong, not the (usually
    // well-formed) generation state beneath it.
    let Value::Arena(then_a) = then_a else {
        return Err(mismatch(
            "merge_branch",
            "an arena for the then-branch",
            &then_a,
        ));
    };
    let Value::Arena(else_a) = else_a else {
        return Err(mismatch(
            "merge_branch",
            "an arena for the else-branch",
            &else_a,
        ));
    };
    let Value::Pair(gp) = gen_state else {
        return Err(mismatch("merge_branch", "(value, arena)", &gen_state));
    };
    let (v, outer) = (gp.0.clone(), gp.1.clone());
    let Value::Arena(outer) = outer else {
        return Err(mismatch("merge_branch", "(value, arena)", &outer));
    };
    let (then_c, else_c) = (m.freeze(&then_a), m.freeze(&else_a));
    let then_b = outer.seg().import_block(&then_c.seg, then_c.block);
    let else_b = outer.seg().import_block(&else_c.seg, else_c.block);
    outer.push(Instr::Branch(then_b, else_b));
    m.state.stats.emitted += 1;
    m.state.stack.push(Value::pair(v, Value::Arena(outer)));
    Ok(())
}

/// `merge_switch`: pop the per-arm arenas (default last), freeze each,
/// and append `Switch` to the outer arena.
pub(crate) fn merge_switch(m: &mut Machine, spec: &MergeSwitchSpec) -> Result<(), MachineError> {
    let count = spec.arms.len() + usize::from(spec.default);
    let mut arenas = Vec::with_capacity(count);
    let mut cur = m.state.pop("merge_switch")?;
    for _ in 0..count {
        let Value::Pair(p) = cur else {
            return Err(mismatch("merge_switch", "stacked arenas", &cur));
        };
        let (rest, a) = (p.0.clone(), p.1.clone());
        let Value::Arena(a) = a else {
            return Err(mismatch("merge_switch", "an arena", &a));
        };
        arenas.push(a);
        cur = rest;
    }
    arenas.reverse(); // now in arm order, default last
    let Value::Pair(gp) = cur else {
        return Err(mismatch("merge_switch", "(value, arena)", &cur));
    };
    let (v, outer) = (gp.0.clone(), gp.1.clone());
    let Value::Arena(outer) = outer else {
        return Err(mismatch("merge_switch", "(value, arena)", &outer));
    };
    let default = if spec.default {
        let a = arenas.pop().expect("default arena present");
        let c = m.freeze(&a);
        Some(outer.seg().import_block(&c.seg, c.block))
    } else {
        None
    };
    let arms = spec
        .arms
        .iter()
        .zip(arenas)
        .map(|(&(tag, bind), a)| {
            let c = m.freeze(&a);
            SwitchArm {
                tag,
                bind,
                code: outer.seg().import_block(&c.seg, c.block),
            }
        })
        .collect();
    outer.push(Instr::Switch(Rc::new(SwitchTable { arms, default })));
    m.state.stats.emitted += 1;
    m.state.stack.push(Value::pair(v, Value::Arena(outer)));
    Ok(())
}

/// `merge_rec n`: pop `n` body arenas, freeze each, and append `RecClos`
/// to the outer arena.
pub(crate) fn merge_rec(m: &mut Machine, n: usize) -> Result<(), MachineError> {
    let mut bodies_rev = Vec::with_capacity(n);
    let mut cur = m.state.pop("merge_rec")?;
    for _ in 0..n {
        let Value::Pair(p) = cur else {
            return Err(mismatch("merge_rec", "stacked arenas", &cur));
        };
        let (rest, a) = (p.0.clone(), p.1.clone());
        let Value::Arena(a) = a else {
            return Err(mismatch("merge_rec", "an arena", &a));
        };
        bodies_rev.push(a);
        cur = rest;
    }
    bodies_rev.reverse();
    let Value::Pair(gp) = cur else {
        return Err(mismatch("merge_rec", "(value, arena)", &cur));
    };
    let (v, outer) = (gp.0.clone(), gp.1.clone());
    let Value::Arena(outer) = outer else {
        return Err(mismatch("merge_rec", "(value, arena)", &outer));
    };
    let bodies = bodies_rev
        .iter()
        .map(|a| {
            let c = m.freeze(a);
            outer.seg().import_block(&c.seg, c.block)
        })
        .collect();
    outer.push(Instr::RecClos(Rc::new(bodies)));
    m.state.stats.emitted += 1;
    m.state.stack.push(Value::pair(v, Value::Arena(outer)));
    Ok(())
}
