//! Machine invariants under randomly composed (well-formed) instruction
//! sequences: statistics are coherent, the validator is sound, and
//! tree-shaped expressions lowered to flat segment code agree with a
//! direct reference interpreter.

use ccam::instr::{validate, Instr, PrimOp};
use ccam::machine::Machine;
use ccam::seg::CodeSeg;
use ccam::value::Value;
use proptest::prelude::*;

/// Random straight-line arithmetic programs: each block keeps the
/// invariant "top of stack is an integer".
fn arith_block() -> impl Strategy<Value = Vec<Instr>> {
    prop_oneof![
        (-100i64..100).prop_map(|n| vec![Instr::Quote(Value::Int(n))]),
        (-50i64..50).prop_map(|n| vec![
            Instr::Push,
            Instr::Quote(Value::Int(n)),
            Instr::ConsPair,
            Instr::Prim(PrimOp::Add),
        ]),
        (1i64..50).prop_map(|n| vec![
            Instr::Push,
            Instr::Quote(Value::Int(n)),
            Instr::ConsPair,
            Instr::Prim(PrimOp::Mul),
        ]),
        Just(vec![Instr::Prim(PrimOp::Neg)]),
        Just(vec![Instr::Id]),
    ]
}

fn arith_program() -> impl Strategy<Value = Vec<Instr>> {
    proptest::collection::vec(arith_block(), 1..30)
        .prop_map(|blocks| blocks.into_iter().flatten().collect())
}

/// A tree-shaped integer expression — the shape the compiler used to
/// manipulate directly, now lowered to flat blocks by [`lower`].
#[derive(Debug, Clone)]
enum Expr {
    Lit(i64),
    Add(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Neg(Box<Expr>),
    If(bool, Box<Expr>, Box<Expr>),
    /// `(fn x => x + k) e` — exercises closure blocks and `app`.
    CallInc(i64, Box<Expr>),
}

fn expr() -> impl Strategy<Value = Expr> {
    let leaf = (-100i64..100).prop_map(Expr::Lit);
    leaf.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Mul(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| Expr::Neg(Box::new(a))),
            (any::<bool>(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| Expr::If(
                c,
                Box::new(t),
                Box::new(e)
            )),
            ((-50i64..50), inner.clone()).prop_map(|(k, e)| Expr::CallInc(k, Box::new(e))),
        ]
    })
}

/// The reference interpreter: direct evaluation of the tree.
fn reference(e: &Expr) -> i64 {
    match e {
        Expr::Lit(n) => *n,
        Expr::Add(a, b) => reference(a).wrapping_add(reference(b)),
        Expr::Mul(a, b) => reference(a).wrapping_mul(reference(b)),
        Expr::Neg(a) => reference(a).wrapping_neg(),
        Expr::If(c, t, e) => {
            if *c {
                reference(t)
            } else {
                reference(e)
            }
        }
        Expr::CallInc(k, e) => reference(e).wrapping_add(*k),
    }
}

/// Tree → flat lowering: nested control (branch arms, closure bodies)
/// becomes blocks of `seg`; everything else is straight-line code in the
/// current buffer.
fn lower(e: &Expr, seg: &CodeSeg, out: &mut Vec<Instr>) {
    match e {
        Expr::Lit(n) => out.push(Instr::Quote(Value::Int(*n))),
        Expr::Add(a, b) | Expr::Mul(a, b) => {
            out.push(Instr::Push);
            lower(a, seg, out);
            out.push(Instr::Swap);
            lower(b, seg, out);
            out.push(Instr::ConsPair);
            out.push(Instr::Prim(if matches!(e, Expr::Add(_, _)) {
                PrimOp::Add
            } else {
                PrimOp::Mul
            }));
        }
        Expr::Neg(a) => {
            lower(a, seg, out);
            out.push(Instr::Prim(PrimOp::Neg));
        }
        Expr::If(c, t, f) => {
            let mut then_code = Vec::new();
            lower(t, seg, &mut then_code);
            let mut else_code = Vec::new();
            lower(f, seg, &mut else_code);
            out.push(Instr::Push);
            out.push(Instr::Quote(Value::Bool(*c)));
            out.push(Instr::ConsPair);
            out.push(Instr::Branch(
                seg.add_block(then_code),
                seg.add_block(else_code),
            ));
        }
        Expr::CallInc(k, a) => {
            // ⟨cur body, arg⟩; app  where body = snd + k.
            let body = seg.add_block(vec![
                Instr::Push,
                Instr::Snd,
                Instr::Swap,
                Instr::Quote(Value::Int(*k)),
                Instr::ConsPair,
                Instr::Prim(PrimOp::Add),
            ]);
            out.push(Instr::Push);
            out.push(Instr::Cur(body));
            out.push(Instr::Swap);
            lower(a, seg, out);
            out.push(Instr::ConsPair);
            out.push(Instr::App);
        }
    }
}

proptest! {
    #[test]
    fn arithmetic_programs_never_fail(prog in arith_program()) {
        let len = prog.len() as u64;
        let seg = CodeSeg::new();
        validate(&seg, &prog).unwrap();
        let mut m = Machine::new();
        let out = m.run(seg.entry(prog), Value::Int(0)).unwrap();
        prop_assert!(matches!(out, Value::Int(_)));
        // One reduction per executed instruction.
        prop_assert_eq!(m.stats().steps, len);
    }

    #[test]
    fn fuel_bound_is_respected(prog in arith_program(), fuel in 1u64..20) {
        let len = prog.len() as u64;
        let mut m = Machine::with_fuel(fuel);
        match m.run(CodeSeg::new().entry(prog), Value::Int(0)) {
            Ok(_) => prop_assert!(len <= fuel),
            Err(e) => {
                prop_assert!(len > fuel, "unexpected error {e} for {len} <= {fuel}");
                prop_assert!(m.stats().steps <= fuel + 1);
            }
        }
    }

    #[test]
    fn generation_and_call_round_trips_values(n in -1000i64..1000) {
        // lift n into an arena, call it: identity on values, one emit,
        // one arena, one call.
        let prog = vec![
            Instr::Quote(Value::Int(n)),
            Instr::Push,
            Instr::NewArena,
            Instr::ConsPair,
            Instr::LiftV,
            Instr::Call,
        ];
        let mut m = Machine::new();
        let out = m.run(CodeSeg::new().entry(prog), Value::Unit).unwrap();
        prop_assert!(matches!(out, Value::Int(x) if x == n));
        let s = m.stats();
        prop_assert_eq!(s.emitted, 1);
        prop_assert_eq!(s.arenas, 1);
        prop_assert_eq!(s.calls, 1);
    }

    #[test]
    fn flat_lowering_agrees_with_the_reference_interpreter(e in expr(), fuel in 0u64..64) {
        let seg = CodeSeg::new();
        let mut code = Vec::new();
        lower(&e, &seg, &mut code);
        validate(&seg, &code).unwrap();
        let want = reference(&e);
        // Plain execution agrees…
        let entry = seg.entry(code);
        let mut plain = Machine::new();
        let out = plain.run(entry.clone(), Value::Unit).unwrap();
        prop_assert!(matches!(out, Value::Int(x) if x == want), "got {out}, want {want}");
        // …and so do the promoted renderings (folded by the peephole,
        // then fused) of every block, in Paper's steps.
        let mut promoted = Machine::new();
        promoted.set_promote_after(0);
        let out = promoted.run(entry.clone(), Value::Unit).unwrap();
        prop_assert!(matches!(out, Value::Int(x) if x == want), "promoted: got {out}, want {want}");
        prop_assert_eq!(promoted.stats().steps, plain.stats().steps);
        // A budget that runs out aborts both at the same step (the
        // reference has the tier controller off, so it runs cold code
        // although the segment now records promotions).
        let mut plain = Machine::with_fuel(fuel);
        plain.set_promote_after(u64::MAX);
        let a = plain.run(entry.clone(), Value::Unit).map(|v| v.to_string());
        let mut promoted = Machine::with_fuel(fuel);
        promoted.set_promote_after(0);
        let b = promoted.run(entry, Value::Unit).map(|v| v.to_string());
        prop_assert_eq!(a, b);
        prop_assert_eq!(promoted.stats().steps, plain.stats().steps);
    }

    #[test]
    fn structural_eq_is_reflexive_and_symmetric(a in -50i64..50, b in -50i64..50) {
        let v1 = Value::tuple(vec![Value::Int(a), Value::Bool(a > 0), Value::Int(b)]);
        let v2 = Value::tuple(vec![Value::Int(a), Value::Bool(a > 0), Value::Int(b)]);
        prop_assert_eq!(v1.structural_eq(&v1), Some(true));
        prop_assert_eq!(v1.structural_eq(&v2), Some(true));
        prop_assert_eq!(v2.structural_eq(&v1), Some(true));
        let v3 = Value::tuple(vec![Value::Int(a + 1), Value::Bool(a > 0), Value::Int(b)]);
        prop_assert_eq!(v1.structural_eq(&v3), Some(false));
    }
}
