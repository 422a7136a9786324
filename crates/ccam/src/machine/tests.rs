use super::*;
use crate::instr::{PrimOp, SwitchArm, SwitchTable, OPCODE_NAMES};
use std::rc::Rc;

fn entry(instrs: Vec<Instr>) -> CodeRef {
    CodeSeg::new().entry(instrs)
}

fn run(instrs: Vec<Instr>, input: Value) -> Value {
    Machine::new().run(entry(instrs), input).unwrap()
}

#[test]
fn opcode_numbering_matches_the_exemplars() {
    // One exemplar per opcode, in numbering order. The wire format and
    // the pair profile are indexed by `Instr::opcode`, so any drift
    // between the two breaks here.
    let exemplars = vec![
        Instr::Id,
        Instr::Fst,
        Instr::Snd,
        Instr::Push,
        Instr::Swap,
        Instr::ConsPair,
        Instr::App,
        Instr::Quote(Value::Unit),
        Instr::Cur(BlockId(0)),
        Instr::Emit(Box::new(Instr::Id)),
        Instr::LiftV,
        Instr::NewArena,
        Instr::Merge,
        Instr::Call,
        Instr::Branch(BlockId(0), BlockId(0)),
        Instr::RecClos(Rc::new(vec![])),
        Instr::Pack(0),
        Instr::Switch(Rc::new(SwitchTable {
            arms: vec![],
            default: None,
        })),
        Instr::Prim(PrimOp::Add),
        Instr::Fail(Rc::new("x".into())),
        Instr::MergeBranch,
        Instr::MergeSwitch(Rc::new(crate::instr::MergeSwitchSpec {
            arms: vec![],
            default: false,
        })),
        Instr::MergeRec(0),
        Instr::Acc(0),
        Instr::PushAcc(0),
        Instr::QuoteCons(Rc::new(Value::Unit)),
        Instr::SwapCons,
        Instr::ConsApp,
        Instr::AccApp(0),
        Instr::PushQuote(Rc::new(Value::Unit)),
        Instr::EnvCons,
        Instr::ConsPrim(PrimOp::Add),
        Instr::PrimInt(PrimOp::Add, 0),
        Instr::ConsBranch(BlockId(0), BlockId(0)),
        Instr::Enter(BlockId(0)),
    ];
    assert_eq!(exemplars.len(), OPCODE_COUNT);
    for (want, i) in exemplars.iter().enumerate() {
        assert_eq!(i.opcode(), want, "{}", i.mnemonic());
    }
}

#[test]
fn cam_pair_projections() {
    let p = Value::pair(Value::Int(1), Value::Int(2));
    assert!(matches!(run(vec![Instr::Fst], p.clone()), Value::Int(1)));
    assert!(matches!(run(vec![Instr::Snd], p), Value::Int(2)));
}

#[test]
fn acc_walks_the_spine_in_one_step() {
    // Spine ((((), 1), 2), 3): Acc(0) = snd, Acc(2) = fst;fst;snd.
    let spine = Value::pair(
        Value::pair(Value::pair(Value::Unit, Value::Int(1)), Value::Int(2)),
        Value::Int(3),
    );
    for (n, want) in [(0usize, 3i64), (1, 2), (2, 1)] {
        let mut m = Machine::new();
        let out = m.run(entry(vec![Instr::Acc(n)]), spine.clone()).unwrap();
        assert!(matches!(out, Value::Int(v) if v == want), "Acc({n})");
        assert_eq!(m.stats().steps, 1, "Acc({n}) is a single reduction step");
    }
}

#[test]
fn acc_agrees_with_fst_chain_and_is_cheaper() {
    let spine = Value::pair(
        Value::pair(Value::pair(Value::Unit, Value::Int(7)), Value::Int(8)),
        Value::Int(9),
    );
    let chain = vec![Instr::Fst, Instr::Fst, Instr::Snd];
    let mut m1 = Machine::new();
    let v1 = m1.run(entry(chain), spine.clone()).unwrap();
    let mut m2 = Machine::new();
    let v2 = m2.run(entry(vec![Instr::Acc(2)]), spine).unwrap();
    assert_eq!(v1.to_string(), v2.to_string());
    assert!(m2.stats().steps < m1.stats().steps);
}

#[test]
fn acc_off_the_spine_is_a_type_mismatch() {
    let err = Machine::new()
        .run(entry(vec![Instr::Acc(1)]), Value::Int(5))
        .unwrap_err();
    assert!(matches!(
        err,
        MachineError::TypeMismatch { instr: "acc", .. }
    ));
    let shallow = Value::pair(Value::Int(1), Value::Int(2));
    let err = Machine::new()
        .run(entry(vec![Instr::Acc(3)]), shallow)
        .unwrap_err();
    assert!(matches!(
        err,
        MachineError::TypeMismatch { instr: "acc", .. }
    ));
}

#[test]
fn push_swap_cons_builds_pairs() {
    // ⟨id, quote 9⟩ applied to 5 = (5, 9)
    let out = run(
        vec![
            Instr::Push,
            Instr::Id,
            Instr::Swap,
            Instr::Quote(Value::Int(9)),
            Instr::ConsPair,
        ],
        Value::Int(5),
    );
    match out {
        Value::Pair(p) => {
            assert!(matches!(p.0, Value::Int(5)));
            assert!(matches!(p.1, Value::Int(9)));
        }
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn cur_app_is_beta() {
    // (fn x => snd x) 7 — body `snd` receives (env, 7).
    let seg = CodeSeg::new();
    let body = seg.add_block(vec![Instr::Snd]);
    let prog = seg.entry(vec![
        Instr::Push,
        Instr::Cur(body),
        Instr::Swap,
        Instr::Quote(Value::Int(7)),
        Instr::ConsPair,
        Instr::App,
    ]);
    let out = Machine::new().run(prog, Value::Unit).unwrap();
    assert!(matches!(out, Value::Int(7)));
}

#[test]
fn branch_on_bool() {
    let seg = CodeSeg::new();
    let t = seg.add_block(vec![Instr::Quote(Value::Int(1))]);
    let e = seg.add_block(vec![Instr::Quote(Value::Int(2))]);
    let prog = seg.entry(vec![
        Instr::Push,
        Instr::Quote(Value::Bool(true)),
        Instr::ConsPair,
        Instr::Branch(t, e),
    ]);
    let out = Machine::new().run(prog, Value::Unit).unwrap();
    assert!(matches!(out, Value::Int(1)));
}

#[test]
fn emit_appends_to_arena() {
    // Start with (env=(), fresh arena); emit two instructions.
    let out = run(
        vec![
            Instr::Push,
            Instr::NewArena,
            Instr::ConsPair,
            Instr::Emit(Box::new(Instr::Fst)),
            Instr::Emit(Box::new(Instr::Snd)),
        ],
        Value::Unit,
    );
    let Value::Pair(p) = out else { panic!() };
    let Value::Arena(a) = &p.1 else { panic!() };
    assert_eq!(a.len(), 2);
}

#[test]
fn machine_arenas_freeze_into_the_program_segment() {
    let seg = CodeSeg::new();
    let prog = seg.entry(vec![
        Instr::Push,
        Instr::NewArena,
        Instr::ConsPair,
        Instr::Emit(Box::new(Instr::Fst)),
    ]);
    let out = Machine::new().run(prog, Value::Unit).unwrap();
    let Value::Pair(p) = out else { panic!() };
    let Value::Arena(a) = &p.1 else { panic!() };
    let frozen = a.freeze();
    assert!(
        CodeSeg::ptr_eq(&frozen.seg, &seg),
        "generated code lands in the tail of the executing segment"
    );
}

#[test]
fn lift_residualizes_the_early_value() {
    // (42, arena) --lift--> arena holds Quote(42).
    let out = run(
        vec![
            Instr::Quote(Value::Int(42)),
            Instr::Push,
            Instr::NewArena,
            Instr::ConsPair,
            Instr::LiftV,
        ],
        Value::Unit,
    );
    let Value::Pair(p) = out else { panic!() };
    let Value::Arena(a) = &p.1 else { panic!() };
    let frozen = a.freeze().to_vec();
    assert!(matches!(&frozen[0], Instr::Quote(Value::Int(42))));
}

#[test]
fn call_runs_generated_code() {
    // Build an arena with Quote(99), then call it.
    let out = run(
        vec![
            Instr::Quote(Value::Int(99)),
            Instr::Push,
            Instr::NewArena,
            Instr::ConsPair,
            Instr::LiftV,
            Instr::Call,
        ],
        Value::Unit,
    );
    assert!(matches!(out, Value::Int(99)));
}

#[test]
fn merge_inserts_cur() {
    // inner arena [snd]; outer (v=(), {}); merge → outer holds Cur([snd]).
    let out = run(
        vec![
            // build (inner_arena, ((), outer_arena))
            Instr::NewArena, // inner on top
            Instr::Push,
            Instr::Quote(Value::Unit),
            Instr::Push,
            Instr::NewArena,
            Instr::ConsPair, // ((), outer)
            Instr::ConsPair, // (inner, ((), outer))
            Instr::Merge,
        ],
        Value::Unit,
    );
    let Value::Pair(p) = out else { panic!() };
    let Value::Arena(outer) = &p.1 else { panic!() };
    assert!(matches!(&outer.freeze().to_vec()[0], Instr::Cur(_)));
}

/// `f n = if n = 0 then 0 else f (n - 1)` applied to `n`, in `seg`: a
/// tail-recursive countdown whose `branch` and `app` each end their
/// block. Body env after app: ((env0, f), n).
fn countdown(seg: &CodeSeg, n: i64) -> Vec<Instr> {
    let then_b = seg.add_block(vec![Instr::Quote(Value::Int(0))]);
    let else_b = seg.add_block(vec![
        // f (n - 1): build (f, n-1), app.
        Instr::Push,
        Instr::Fst,
        Instr::Snd, // f
        Instr::Swap,
        Instr::Push,
        Instr::Snd, // n
        Instr::Push,
        Instr::Quote(Value::Int(1)),
        Instr::ConsPair,
        Instr::Prim(PrimOp::Sub),
        Instr::Swap,
        Instr::Fst, // discard dup'd env... (cleanup)
        Instr::Quote(Value::Int(0)),
        Instr::Swap,
        Instr::ConsPair,
        Instr::Snd,      // n-1
        Instr::ConsPair, // (f, n-1)
        Instr::App,
    ]);
    let body = seg.add_block(vec![
        Instr::Push,
        Instr::Snd, // n
        Instr::Push,
        Instr::Quote(Value::Int(0)),
        Instr::ConsPair, // (n, 0)
        Instr::Prim(PrimOp::Eq),
        Instr::ConsPair, // (fullenv, bool)
        Instr::Branch(then_b, else_b),
    ]);
    vec![
        Instr::RecClos(Rc::new(vec![body])),
        Instr::Snd, // the closure
        Instr::Push,
        Instr::Swap,
        Instr::Quote(Value::Int(n)),
        Instr::ConsPair,
        Instr::App,
    ]
}

#[test]
fn recclos_supports_recursion() {
    let seg = CodeSeg::new();
    let prog = seg.entry(countdown(&seg, 5));
    let out = Machine::new().run(prog, Value::Unit).unwrap();
    assert!(matches!(out, Value::Int(0)));
}

#[test]
fn tail_transfers_do_not_grow_the_control_stack() {
    // A transfer that ends its block pops the finished frame instead of
    // leaving it to be popped after the callee returns, so a tail loop
    // runs in constant control space, observed or not.
    for fuel in [None, Some(u64::MAX)] {
        let seg = CodeSeg::new();
        let prog = seg.entry(countdown(&seg, 100_000));
        let mut m = Machine::new();
        m.state.fuel = fuel;
        let out = m.run(prog, Value::Unit).unwrap();
        assert!(matches!(out, Value::Int(0)));
        assert!(
            m.control.capacity() < 8,
            "fuel {fuel:?}: control stack grew to {}",
            m.control.capacity()
        );
    }
}

#[test]
fn switch_dispatches_and_binds() {
    let seg = CodeSeg::new();
    let arm0 = seg.add_block(vec![Instr::Quote(Value::Int(-1))]);
    let arm1 = seg.add_block(vec![Instr::Snd]);
    let table = SwitchTable {
        arms: vec![
            SwitchArm {
                tag: 0,
                bind: false,
                code: arm0,
            },
            SwitchArm {
                tag: 1,
                bind: true,
                code: arm1,
            },
        ],
        default: None,
    };
    let scrut = Value::Con(1, Some(Rc::new(Value::Int(7))));
    let prog = seg.entry(vec![
        Instr::Push,
        Instr::Quote(scrut),
        Instr::ConsPair,
        Instr::Switch(Rc::new(table)),
    ]);
    let out = Machine::new().run(prog, Value::Unit).unwrap();
    assert!(matches!(out, Value::Int(7)));
}

#[test]
fn switch_without_match_or_default_errors() {
    let table = SwitchTable {
        arms: vec![],
        default: None,
    };
    let scrut = Value::Con(9, None);
    let err = Machine::new()
        .run(
            entry(vec![
                Instr::Push,
                Instr::Quote(scrut),
                Instr::ConsPair,
                Instr::Switch(Rc::new(table)),
            ]),
            Value::Unit,
        )
        .unwrap_err();
    assert!(matches!(err, MachineError::NoMatchingArm { tag: 9 }));
}

#[test]
fn division_by_zero_errors() {
    let err = Machine::new()
        .run(
            entry(vec![Instr::Prim(PrimOp::Div)]),
            Value::pair(Value::Int(1), Value::Int(0)),
        )
        .unwrap_err();
    assert_eq!(err, MachineError::DivideByZero);
}

#[test]
fn fuel_limits_execution() {
    // An infinite loop: f x = f x.
    let seg = CodeSeg::new();
    let body = seg.add_block(vec![
        Instr::Push,
        Instr::Fst,
        Instr::Snd, // f
        Instr::Swap,
        Instr::Snd, // x
        Instr::ConsPair,
        Instr::App,
    ]);
    let prog = seg.entry(vec![
        Instr::RecClos(Rc::new(vec![body])),
        Instr::Snd,
        Instr::Push,
        Instr::Swap,
        Instr::Quote(Value::Unit),
        Instr::ConsPair,
        Instr::App,
    ]);
    let err = Machine::with_fuel(10_000)
        .run(prog, Value::Unit)
        .unwrap_err();
    assert!(matches!(err, MachineError::OutOfFuel { .. }));
}

#[test]
fn fuel_budget_is_per_run() {
    // 4 steps per run; 5 runs under an 8-step budget must all succeed
    // even though lifetime steps (20) exceed the budget.
    let mut m = Machine::with_fuel(8);
    let prog = entry(vec![
        Instr::Push,
        Instr::Quote(Value::Int(1)),
        Instr::ConsPair,
        Instr::Prim(PrimOp::Add),
    ]);
    for _ in 0..5 {
        let out = m.run(prog.clone(), Value::Int(1)).unwrap();
        assert!(matches!(out, Value::Int(2)));
    }
    assert_eq!(m.stats().steps, 20);
}

#[test]
fn env_cons_builds_frames_acc_indexes_them() {
    // let v0 = 10 in let v1 = 20 in v0 + v1 — flat encoding: each
    // extension is env_cons, each access a single Acc.
    let prog = entry(vec![
        Instr::Push,
        Instr::Quote(Value::Int(10)),
        Instr::EnvCons,
        Instr::Push,
        Instr::Quote(Value::Int(20)),
        Instr::EnvCons,
        Instr::Push,
        Instr::Acc(1),
        Instr::Swap,
        Instr::Acc(0),
        Instr::ConsPair,
        Instr::Prim(PrimOp::Add),
    ]);
    let mut m = Machine::new();
    let out = m.run(prog, Value::Unit).unwrap();
    assert!(matches!(out, Value::Int(30)));
}

#[test]
fn fst_snd_project_frames_like_the_spine_they_denote() {
    let env = Value::env_extend(Value::env_extend(Value::Unit, Value::Int(1)), Value::Int(2));
    let out = Machine::new()
        .run(entry(vec![Instr::Snd]), env.clone())
        .unwrap();
    assert!(matches!(out, Value::Int(2)));
    let out = Machine::new()
        .run(entry(vec![Instr::Fst, Instr::Snd]), env)
        .unwrap();
    assert!(matches!(out, Value::Int(1)));
}

#[test]
fn closure_over_frame_env_binds_a_pair_and_acc_walks_the_mixed_spine() {
    // cur captures a frame env; application always binds with a
    // genuine pair (the RTCG state must stay destructurable), so the
    // body sees Pair(frame, arg): Acc(0) is the argument and Acc(1)
    // resolves through the frame.
    let seg = CodeSeg::new();
    let body = seg.add_block(vec![
        Instr::Push,
        Instr::Acc(0),
        Instr::Swap,
        Instr::Acc(1),
        Instr::ConsPair,
        Instr::Prim(PrimOp::Sub),
    ]);
    let prog = seg.entry(vec![
        Instr::Push,
        Instr::Quote(Value::Int(100)),
        Instr::EnvCons,
        Instr::Cur(body),
        Instr::Push,
        Instr::Swap,
        Instr::Quote(Value::Int(7)),
        Instr::ConsPair,
        Instr::App,
    ]);
    let out = Machine::new().run(prog, Value::Unit).unwrap();
    // arg - binding = 7 - 100
    assert!(matches!(out, Value::Int(-93)));
}

#[test]
fn fuel_charges_fused_opcodes_their_component_count() {
    // `push; acc 3` (2 steps, 2+3+1... i.e. 1 + 4 fuel) vs the fused
    // `push_acc 3` (1 step, same 5 fuel): both must exhaust the same
    // budget at the same point.
    let deep = Value::pair(
        Value::pair(
            Value::pair(Value::pair(Value::Unit, Value::Int(1)), Value::Int(2)),
            Value::Int(3),
        ),
        Value::Int(4),
    );
    let plain = vec![Instr::Push, Instr::Acc(3), Instr::ConsPair];
    let fused = vec![Instr::PushAcc(3), Instr::ConsPair];
    // Plain: push(1) + acc3(4) + cons(1) = 6 fuel; fused: 5 + 1 = 6.
    for budget in [5u64, 6] {
        let mut m1 = Machine::with_fuel(budget);
        let r1 = m1.run(entry(plain.clone()), deep.clone());
        let mut m2 = Machine::with_fuel(budget);
        let r2 = m2.run(entry(fused.clone()), deep.clone());
        assert_eq!(
            r1.is_err(),
            r2.is_err(),
            "fuel {budget}: fused and plain disagree on exhaustion"
        );
    }
    // And the spine-walk equivalent (fst;fst;fst;snd) matches Acc(3).
    let chain = vec![
        Instr::Push,
        Instr::Fst,
        Instr::Fst,
        Instr::Fst,
        Instr::Snd,
        Instr::ConsPair,
    ];
    for budget in [5u64, 6] {
        let mut m1 = Machine::with_fuel(budget);
        let r1 = m1.run(entry(chain.clone()), deep.clone());
        let mut m2 = Machine::with_fuel(budget);
        let r2 = m2.run(entry(plain.clone()), deep.clone());
        assert_eq!(r1.is_err(), r2.is_err(), "fuel {budget}");
    }
}

#[test]
fn division_primitives_floor_toward_negative_infinity() {
    // SML: ~7 div 2 = ~4, ~7 mod 2 = 1; mod takes the divisor's sign.
    let run_op = |op, x, y| {
        Machine::new()
            .run(
                entry(vec![Instr::Prim(op)]),
                Value::pair(Value::Int(x), Value::Int(y)),
            )
            .unwrap()
    };
    assert!(matches!(run_op(PrimOp::Div, -7, 2), Value::Int(-4)));
    assert!(matches!(run_op(PrimOp::Mod, -7, 2), Value::Int(1)));
    assert!(matches!(run_op(PrimOp::Div, 7, -2), Value::Int(-4)));
    assert!(matches!(run_op(PrimOp::Mod, 7, -2), Value::Int(-1)));
    assert!(matches!(run_op(PrimOp::Div, -7, -2), Value::Int(3)));
    assert!(matches!(run_op(PrimOp::Mod, -7, -2), Value::Int(-1)));
}

#[test]
fn floor_helpers_satisfy_the_division_identity() {
    let cases = [
        (7, 2),
        (-7, 2),
        (7, -2),
        (-7, -2),
        (6, 3),
        (-6, 3),
        (0, 5),
        (i64::MAX, 7),
        (i64::MIN + 1, 7),
    ];
    for (x, y) in cases {
        let (q, r) = (floor_div(x, y), floor_mod(x, y));
        assert_eq!(y.wrapping_mul(q).wrapping_add(r), x, "x={x} y={y}");
        assert!(r == 0 || (r < 0) == (y < 0), "mod sign follows divisor");
    }
    // The one wrapping case, consistent with the other primitives.
    assert_eq!(floor_div(i64::MIN, -1), i64::MIN);
    assert_eq!(floor_mod(i64::MIN, -1), 0);
}

#[test]
fn merge_branch_reports_the_offending_operand() {
    // ((((), {P}), 42), 43): the then/else slots hold ints, not arenas.
    let gen = Value::pair(Value::Unit, Value::Arena(Arena::new()));
    let bad = Value::pair(Value::pair(gen, Value::Int(42)), Value::Int(43));
    let err = Machine::new()
        .run(entry(vec![Instr::MergeBranch]), bad)
        .unwrap_err();
    let MachineError::TypeMismatch {
        expected, found, ..
    } = err
    else {
        panic!("unexpected: {err:?}")
    };
    assert!(found.contains("42"), "names the bad operand, got {found:?}");
    assert!(
        expected.contains("then"),
        "says which slot, got {expected:?}"
    );
}

#[test]
fn repeated_calls_hit_the_freeze_cache() {
    let a = Arena::new();
    a.push(Instr::Quote(Value::Int(9)));
    let gen = Value::pair(Value::Unit, Value::Arena(a));
    let mut m = Machine::new();
    let out = m
        .run(
            entry(vec![
                Instr::Quote(gen.clone()),
                Instr::Call,
                Instr::Quote(gen.clone()),
                Instr::Call,
                Instr::Quote(gen),
                Instr::Call,
            ]),
            Value::Unit,
        )
        .unwrap();
    assert!(matches!(out, Value::Int(9)));
    let stats = m.stats();
    assert_eq!(stats.calls, 3);
    assert_eq!(stats.freezes, 1, "only the first call materializes code");
    assert_eq!(stats.freeze_hits, 2);
}

#[test]
fn growth_between_calls_invalidates_the_freeze_cache() {
    let a = Arena::new();
    a.push(Instr::Quote(Value::Int(1)));
    let gen = Value::pair(Value::Unit, Value::Arena(a.clone()));
    let mut m = Machine::new();
    let out = m
        .run(
            entry(vec![Instr::Quote(gen.clone()), Instr::Call]),
            Value::Unit,
        )
        .unwrap();
    assert!(matches!(out, Value::Int(1)));
    // The generator emits one more instruction; the next call must
    // execute the extended code, not the cached snapshot.
    a.push(Instr::Quote(Value::Int(2)));
    let out = m
        .run(entry(vec![Instr::Quote(gen), Instr::Call]), Value::Unit)
        .unwrap();
    assert!(matches!(out, Value::Int(2)));
    let stats = m.stats();
    assert_eq!(stats.freezes, 2);
    assert_eq!(stats.freeze_hits, 0);
}

#[test]
fn stats_delta_since_subtracts_counters() {
    let mut m = Machine::new();
    let prog = entry(vec![
        Instr::Push,
        Instr::Quote(Value::Int(1)),
        Instr::ConsPair,
    ]);
    m.run(prog.clone(), Value::Unit).unwrap();
    let before = m.stats();
    m.run(prog, Value::Unit).unwrap();
    let delta = m.stats().delta_since(&before);
    assert_eq!(delta.steps, 3);
    assert_eq!(delta.emitted, 0);
}

#[test]
fn stats_count_steps_and_emits() {
    let mut m = Machine::new();
    m.run(
        entry(vec![
            Instr::Push,
            Instr::NewArena,
            Instr::ConsPair,
            Instr::Emit(Box::new(Instr::Id)),
        ]),
        Value::Unit,
    )
    .unwrap();
    let stats = m.stats();
    assert_eq!(stats.steps, 4);
    assert_eq!(stats.emitted, 1);
    assert_eq!(stats.arenas, 1);
}

#[test]
fn print_accumulates_output() {
    let mut m = Machine::new();
    m.run(
        entry(vec![
            Instr::Quote(Value::str("hello ")),
            Instr::Prim(PrimOp::Print),
            Instr::Quote(Value::str("world")),
            Instr::Prim(PrimOp::Print),
        ]),
        Value::Unit,
    )
    .unwrap();
    assert_eq!(m.output(), "hello world");
}

#[test]
fn arrays_allocate_index_update() {
    let mut m = Machine::new();
    // array (3, 0); update (a, 1, 5); sub (a, 1)
    let out = m
        .run(
            entry(vec![
                Instr::Quote(Value::pair(Value::Int(3), Value::Int(0))),
                Instr::Prim(PrimOp::MkArray),
                Instr::Push,
                Instr::Push,
                Instr::Quote(Value::pair(Value::Int(1), Value::Int(5))),
                Instr::ConsPair, // (a, (1, 5))
                Instr::Prim(PrimOp::ArrUpdate),
                Instr::Quote(Value::Int(1)), // drop unit, keep index
                Instr::ConsPair,             // (a, 1)
                Instr::Prim(PrimOp::ArrSub),
            ]),
            Value::Unit,
        )
        .unwrap();
    assert!(matches!(out, Value::Int(5)));
}

#[test]
fn array_out_of_bounds_errors() {
    let err = Machine::new()
        .run(
            entry(vec![
                Instr::Quote(Value::pair(Value::Int(2), Value::Int(0))),
                Instr::Prim(PrimOp::MkArray),
                Instr::Push,
                Instr::Quote(Value::Int(5)),
                Instr::ConsPair,
                Instr::Prim(PrimOp::ArrSub),
            ]),
            Value::Unit,
        )
        .unwrap_err();
    assert!(matches!(
        err,
        MachineError::IndexOutOfBounds { index: 5, len: 2 }
    ));
}

#[test]
fn unallocatable_array_sizes_are_typed_errors() {
    // 2^60 elements overflow the allocator's capacity before any memory
    // is requested.
    for len in [1 << 60, -1] {
        let err = Machine::new()
            .run(
                entry(vec![
                    Instr::Quote(Value::pair(Value::Int(len), Value::Int(0))),
                    Instr::Prim(PrimOp::MkArray),
                ]),
                Value::Unit,
            )
            .unwrap_err();
        assert_eq!(err, MachineError::ArraySize { len });
    }
}

#[test]
fn equality_on_closures_is_an_error() {
    let f = Value::Closure(Rc::new(crate::value::Closure {
        env: Value::Unit,
        body: entry(vec![]),
    }));
    let err = Machine::new()
        .run(
            entry(vec![Instr::Prim(PrimOp::Eq)]),
            Value::pair(f.clone(), f),
        )
        .unwrap_err();
    assert_eq!(err, MachineError::EqualityUndefined);
}

#[test]
fn refs_assign_and_deref() {
    let out = run(
        vec![
            Instr::Quote(Value::Int(1)),
            Instr::Prim(PrimOp::Ref),
            Instr::Push,
            Instr::Push,
            Instr::Quote(Value::Int(42)),
            Instr::ConsPair,
            Instr::Prim(PrimOp::Assign),
            Instr::Swap, // bring ref back on top, drop unit below? (unit, ref)
            Instr::Prim(PrimOp::Deref),
        ],
        Value::Unit,
    );
    assert!(matches!(out, Value::Int(42)));
}

#[test]
fn tracing_records_mnemonics() {
    let mut m = Machine::new();
    m.set_trace(2);
    m.run(
        entry(vec![
            Instr::Push,
            Instr::Quote(Value::Int(1)),
            Instr::ConsPair,
        ]),
        Value::Unit,
    )
    .unwrap();
    let t = m.trace().unwrap();
    assert_eq!(t.mnemonics(), vec!["push", "quote"], "bounded at limit");
}

#[test]
fn tracing_records_block_and_pc() {
    let seg = CodeSeg::new();
    let body = seg.add_block(vec![Instr::Snd]);
    let prog = seg.entry(vec![
        Instr::Push,
        Instr::Cur(body),
        Instr::Swap,
        Instr::Quote(Value::Int(7)),
        Instr::ConsPair,
        Instr::App,
    ]);
    let mut m = Machine::new();
    m.set_trace(16);
    m.run(prog.clone(), Value::Unit).unwrap();
    let t = m.trace().unwrap();
    // The entry block is block 1 (the body was added first), and the
    // applied closure body runs as block 0 at pc 0.
    assert_eq!(t.entries[0].block, prog.block.0);
    assert_eq!(t.entries[0].pc, 0);
    assert_eq!(t.entries[1].pc, 1);
    let last = t.entries.last().unwrap();
    assert_eq!((last.block, last.pc, last.mnemonic), (body.0, 0, "snd"));
}

#[test]
fn machine_errors_display() {
    assert!(MachineError::DivideByZero.to_string().contains("zero"));
    assert!(MachineError::Fail("m".into()).to_string().contains('m'));
}

#[test]
fn fused_opcodes_agree_with_their_pairs_and_count_as_fused() {
    // Each fused opcode computes exactly what the pair it replaces
    // computes, in one reduction step, and dispatches under its own
    // mnemonic.
    let spine = Value::pair(
        Value::pair(Value::pair(Value::Unit, Value::Int(1)), Value::Int(2)),
        Value::Int(3),
    );
    let cases: Vec<(Vec<Instr>, Vec<Instr>, Value)> = vec![
        (
            vec![
                Instr::Push,
                Instr::Acc(1),
                Instr::Swap,
                Instr::Snd,
                Instr::ConsPair,
            ],
            vec![Instr::PushAcc(1), Instr::Swap, Instr::Snd, Instr::ConsPair],
            spine.clone(),
        ),
        (
            vec![
                Instr::Push,
                Instr::Swap,
                Instr::Quote(Value::Int(9)),
                Instr::ConsPair,
            ],
            vec![
                Instr::Push,
                Instr::Swap,
                Instr::QuoteCons(Rc::new(Value::Int(9))),
            ],
            spine.clone(),
        ),
        (
            vec![
                Instr::Push,
                Instr::Snd,
                Instr::Swap,
                Instr::ConsPair,
                Instr::Fst,
            ],
            vec![Instr::PushAcc(0), Instr::SwapCons, Instr::Fst],
            spine.clone(),
        ),
        (
            vec![Instr::Push, Instr::Quote(Value::Int(4)), Instr::ConsPair],
            vec![Instr::PushQuote(Rc::new(Value::Int(4))), Instr::ConsPair],
            spine.clone(),
        ),
    ];
    for (plain, fused, input) in cases {
        let mut m1 = Machine::new();
        m1.set_trace(64);
        let v1 = m1.run(entry(plain.clone()), input.clone()).unwrap();
        let mut m2 = Machine::new();
        m2.set_trace(64);
        let v2 = m2.run(entry(fused.clone()), input).unwrap();
        assert_eq!(v1.to_string(), v2.to_string(), "{plain:?} vs {fused:?}");
        assert_eq!(
            fused_dispatches(&m1),
            0,
            "plain code dispatches no fused ops"
        );
        assert!(fused_dispatches(&m2) > 0, "{fused:?}");
        assert!(m2.stats().steps < m1.stats().steps, "{fused:?}");
    }
}

#[test]
fn fused_application_transfers_like_cons_app() {
    // (fn x => snd x) 7 via ConsApp and via AccApp.
    let seg = CodeSeg::new();
    let body = seg.add_block(vec![Instr::Snd]);
    let prog = seg.entry(vec![
        Instr::Push,
        Instr::Cur(body),
        Instr::Swap,
        Instr::Quote(Value::Int(7)),
        Instr::ConsApp,
    ]);
    let mut m = Machine::new();
    let out = m.run(prog, Value::Unit).unwrap();
    assert!(matches!(out, Value::Int(7)));
    assert_eq!(m.stats().steps, 6, "cons_app is one dispatch");

    // AccApp(0): env is (_, (closure, arg)); snd; app in one step.
    let seg = CodeSeg::new();
    let body = seg.add_block(vec![Instr::Snd]);
    let mk = seg.entry(vec![Instr::Cur(body)]);
    let clos = Machine::new().run(mk, Value::Unit).unwrap();
    let env = Value::pair(Value::Unit, Value::pair(clos, Value::Int(11)));
    let seg2 = CodeSeg::new();
    let prog = seg2.entry(vec![Instr::AccApp(0)]);
    let mut m = Machine::new();
    let out = m.run(prog, env).unwrap();
    assert!(matches!(out, Value::Int(11)));
    assert_eq!(m.stats().steps, 2, "acc_app is one dispatch");
}

/// How many fused superinstructions a machine's trace recorded.
fn fused_dispatches(m: &Machine) -> usize {
    const FUSED: [&str; 10] = [
        "push_acc",
        "quote_cons",
        "swap_cons",
        "cons_app",
        "acc_app",
        "push_quote",
        "cons_prim",
        "prim_int",
        "cons_branch",
        "enter",
    ];
    m.trace()
        .expect("trace enabled")
        .mnemonics()
        .iter()
        .filter(|n| FUSED.contains(n))
        .count()
}

#[test]
fn promotion_fuses_frozen_generated_code() {
    // A generator emits the stereotyped push/quote/cons/add sequence;
    // under the tier controller the frozen block is promoted to a fused
    // rendering at its first activation, and the plain machine agrees on
    // the value and the (baseline) step count.
    let a = Arena::new();
    for _ in 0..10 {
        a.push(Instr::Push);
        a.push(Instr::Quote(Value::Int(1)));
        a.push(Instr::ConsPair);
        a.push(Instr::Prim(PrimOp::Add));
    }
    let gen = Value::pair(Value::Int(0), Value::Arena(a));
    let prog = entry(vec![Instr::Call]);

    let mut plain = Machine::new();
    let v1 = plain.run(prog.clone(), gen.clone()).unwrap();

    let mut tiered = Machine::new();
    tiered.set_promote_after(0);
    let v2 = tiered.run(prog.clone(), gen.clone()).unwrap();
    assert_eq!(v1.to_string(), v2.to_string());
    assert_eq!(tiered.stats().steps, plain.stats().steps);
    assert_eq!(tiered.stats().freeze_hits, 1, "one plain freeze slot");
    assert!(
        tiered.stats().tier_steps[1] > 0,
        "frozen code ran fused: {:?}",
        tiered.stats()
    );

    // The promoted rendering is tier state of the segment, which a
    // tracing machine does not consult: it still runs the frozen block
    // unfused.
    let mut plain2 = Machine::new();
    plain2.set_trace(1 << 10);
    let v3 = plain2.run(prog, gen).unwrap();
    assert_eq!(v1.to_string(), v3.to_string());
    assert_eq!(plain2.stats().steps, plain.stats().steps);
    assert_eq!(fused_dispatches(&plain2), 0, "promotion does not leak");
}

#[test]
fn pair_profile_counts_adjacent_dispatches() {
    let mut m = Machine::new();
    assert!(m.pair_profile().is_none(), "off by default");
    m.set_profile_pairs(true);
    m.run(
        entry(vec![
            Instr::Push,
            Instr::Quote(Value::Int(1)),
            Instr::ConsPair,
        ]),
        Value::Unit,
    )
    .unwrap();
    let hist = m.pair_profile().unwrap();
    let op = |name: &str| OPCODE_NAMES.iter().position(|n| *n == name).unwrap();
    assert_eq!(hist[op("push")][op("quote")], 1);
    assert_eq!(hist[op("quote")][op("cons")], 1);
    assert_eq!(hist[op("cons")][op("push")], 0, "no wraparound");
    let total: u64 = hist.iter().flatten().sum();
    assert_eq!(total, 2, "n instructions -> n-1 adjacent pairs");
}

// --- Unobserved vs observed accounting ---

/// A program touching every counter an unobserved run still reports:
/// output, a fused opcode, an arena with emitted code, two `call`s of one
/// generator (a freeze and a freeze hit), and a tail-recursive loop.
fn observer_program() -> CodeRef {
    let a = Arena::new();
    for _ in 0..4 {
        a.push(Instr::Push);
        a.push(Instr::Quote(Value::Int(2)));
        a.push(Instr::ConsPair);
        a.push(Instr::Prim(PrimOp::Add));
    }
    let gen = Value::pair(Value::Int(1), Value::Arena(a));
    let seg = CodeSeg::new();
    let mut code = vec![
        Instr::Quote(Value::str("go")),
        Instr::Prim(PrimOp::Print),
        Instr::PushQuote(Rc::new(Value::Int(4))),
        Instr::ConsPair,
        Instr::Quote(Value::Int(7)),
        Instr::Push,
        Instr::NewArena,
        Instr::ConsPair,
        Instr::LiftV,
        Instr::Emit(Box::new(Instr::Fst)),
        Instr::Quote(gen.clone()),
        Instr::Call,
        Instr::Quote(gen),
        Instr::Call,
    ];
    code.extend(countdown(&seg, 50));
    seg.entry(code)
}

/// A named way of turning one observer on.
type Observer = (&'static str, fn(&mut Machine));

#[test]
fn observers_do_not_change_what_a_run_reports() {
    let observers: [Observer; 4] = [
        ("none", |_| {}),
        ("fuel", |m| m.state.fuel = Some(u64::MAX)),
        ("trace", |m| m.set_trace(1 << 20)),
        ("pairs", |m| m.set_profile_pairs(true)),
    ];
    // Never promoting, and promoting from the first activation (steps
    // are counted in baseline units on either path). A trace and the
    // pair profile suppress promotion, so they are left out there.
    for promote_after in [u64::MAX, 0] {
        let label = format!("promote_after {promote_after}");
        let mut reports = Vec::new();
        for (name, enable) in observers {
            if promote_after == 0 && (name == "trace" || name == "pairs") {
                continue;
            }
            let mut m = Machine::new();
            m.set_promote_after(promote_after);
            enable(&mut m);
            assert_eq!(m.observed(), name != "none", "{name}");
            let out = m.run(observer_program(), Value::Unit).unwrap();
            let stats = m.stats();
            if let Some(trace) = m.trace() {
                assert_eq!(trace.entries.len() as u64, stats.steps, "{label}");
            }
            reports.push((name, out.to_string(), m.output().to_string(), stats));
        }
        let (_, out, output, stats) = &reports[0];
        assert_eq!(out, "0");
        assert_eq!(output, "go");
        assert!(stats.emitted > 0 && stats.arenas > 0);
        assert_eq!((stats.calls, stats.freezes, stats.freeze_hits), (2, 1, 1));
        if promote_after == 0 {
            assert!(stats.promotions > 0, "{label}");
        }
        assert_eq!(stats.tier_steps.iter().sum::<u64>(), stats.steps);
        for (name, o, p, st) in &reports[1..] {
            assert_eq!((o, p, st), (out, output, stats), "{name}, {label}");
        }
    }
}

/// A block that folds and fuses under promotion, enters a closure and
/// comes back, then runs `tail` on the pair `(5, 0)`: the failing runs
/// below stop mid-block, after a resumption, with a rendering whose
/// instructions stand for more than one step each.
fn failing_program(tail: Vec<Instr>) -> CodeRef {
    let seg = CodeSeg::new();
    let body = seg.add_block(vec![Instr::Snd]);
    let mut code = vec![
        Instr::Id,
        Instr::Push,
        Instr::Quote(Value::Int(2)),
        Instr::Swap,
        Instr::Quote(Value::Int(3)),
        Instr::ConsPair,
        Instr::Prim(PrimOp::Add),
        Instr::Push,
        Instr::Cur(body),
        Instr::Swap,
        Instr::ConsPair,
        Instr::App,
        Instr::Push,
        Instr::Quote(Value::Int(0)),
        Instr::ConsPair,
    ];
    code.extend(tail);
    seg.entry(code)
}

#[test]
fn a_failing_run_counts_the_same_steps_observed_or_not() {
    // (what fails, its tail, the cold steps up to and including the
    // failing one: 15 in the prefix, 1 in the closure body, the tail's).
    let cases = [
        (
            "fail",
            vec![Instr::Fail(Rc::new("boom".into())), Instr::Id],
            17,
        ),
        ("div by zero", vec![Instr::Prim(PrimOp::Div), Instr::Id], 17),
        ("fst on an int", vec![Instr::Snd, Instr::Fst, Instr::Id], 18),
        ("app on a non-closure", vec![Instr::App, Instr::Id], 17),
        // ⟨fst, quote 0⟩; div — a promoted `prim_int div 0`.
        (
            "prim_int div 0",
            vec![
                Instr::Push,
                Instr::Fst,
                Instr::Swap,
                Instr::Quote(Value::Int(0)),
                Instr::ConsPair,
                Instr::Prim(PrimOp::Div),
                Instr::Id,
            ],
            22,
        ),
        // ⟨cur, cur⟩; eq — a promoted `cons_prim eq` on closures.
        (
            "cons_prim eq on closures",
            vec![
                Instr::Push,
                Instr::Cur(BlockId(0)),
                Instr::Swap,
                Instr::Cur(BlockId(0)),
                Instr::ConsPair,
                Instr::Prim(PrimOp::Eq),
                Instr::Id,
            ],
            22,
        ),
    ];
    for (what, tail, steps) in cases {
        let mut errs = Vec::new();
        for promote_after in [u64::MAX, 0] {
            let label = format!("{what}, promote_after {promote_after}");
            let report = |fuel: Option<u64>| {
                let mut m = Machine::new();
                m.set_promote_after(promote_after);
                m.state.fuel = fuel;
                let err = m
                    .run(failing_program(tail.clone()), Value::Unit)
                    .unwrap_err();
                (err, m.stats())
            };
            let (err, stats) = report(None);
            assert_eq!(stats.tier_steps.iter().sum::<u64>(), stats.steps, "{label}");
            if promote_after == 0 {
                assert!(stats.tier_steps[1] > 0, "{label}: promoted code ran");
            }
            // Promoted code counts the cold steps: none past the failing
            // instruction.
            assert_eq!(stats.steps, steps, "{label}: {err}");
            assert_eq!(report(Some(u64::MAX)), (err.clone(), stats), "{label}");
            errs.push(err);
        }
        assert_eq!(errs[0], errs[1], "{what}: the same error at every tier");
    }
}

// --- Tier controller ---

/// `(entry, plain steps per run)` for a little apply-a-closure program:
/// `(fn x => x + 1) 5`.
fn apply_program() -> (CodeRef, Value) {
    let seg = CodeSeg::new();
    let body = seg.add_block(vec![
        Instr::Push,
        Instr::Snd,
        Instr::Swap,
        Instr::Quote(Value::Int(1)),
        Instr::ConsPair,
        Instr::Prim(PrimOp::Add),
    ]);
    let code = seg.entry(vec![
        Instr::Push,
        Instr::Cur(body),
        Instr::Swap,
        Instr::Quote(Value::Int(5)),
        Instr::ConsPair,
        Instr::App,
    ]);
    (code, Value::Unit)
}

/// The Paper reference: a machine with the tier controller off, which
/// runs cold code even where a machine sharing its segment promoted.
fn paper_machine(fuel: Option<u64>) -> Machine {
    let mut m = fuel.map_or_else(Machine::new, Machine::with_fuel);
    m.set_promote_after(u64::MAX);
    m
}

#[test]
fn reference_machine_ignores_promotions_recorded_on_its_segment() {
    let (code, input) = apply_program();
    let mut tiered = Machine::new();
    tiered.set_promote_after(0);
    tiered.run(code.clone(), input.clone()).unwrap();
    assert!(tiered.stats().promotions >= 2);
    let mut paper = paper_machine(None);
    paper.run(code.clone(), input.clone()).unwrap();
    let stats = paper.stats();
    assert_eq!((stats.promotions, stats.tier_steps[1]), (0, 0), "{stats:?}");
    // A machine at any other threshold follows the recorded promotions.
    let mut follower = Machine::new();
    follower.run(code, input).unwrap();
    assert_eq!(follower.stats().tier_steps[0], 0, "{:?}", follower.stats());
}

#[test]
fn adaptive_promotion_is_invisible_in_steps_and_verdicts() {
    let (code, input) = apply_program();
    let mut plain = paper_machine(None);
    let mut tiered = Machine::new();
    tiered.set_promote_after(2);
    for round in 0..6 {
        let before_p = plain.stats();
        let before_t = tiered.stats();
        let vp = plain.run(code.clone(), input.clone()).unwrap();
        let vt = tiered.run(code.clone(), input.clone()).unwrap();
        assert_eq!(vp.to_string(), vt.to_string(), "round {round}");
        assert_eq!(
            plain.stats().delta_since(&before_p).steps,
            tiered.stats().delta_since(&before_t).steps,
            "round {round}: promotion must not change the step count"
        );
    }
    let stats = tiered.stats();
    assert!(stats.promotions >= 2, "entry and body promoted: {stats:?}");
    assert_eq!(
        stats.tier_steps.iter().sum::<u64>(),
        stats.steps,
        "tier steps partition the total"
    );
    assert!(stats.tier_steps[1] > 0, "hot rounds ran fused: {stats:?}");
    assert!(stats.tier_steps[0] > 0, "cold rounds ran interpreted");
    assert_eq!(plain.stats().tier_steps[1], 0, "the reference ran cold");
}

#[test]
fn adaptive_promote_after_zero_promotes_before_first_execution() {
    let (code, input) = apply_program();
    let mut plain = Machine::new();
    let vp = plain.run(code.clone(), input.clone()).unwrap();
    let mut tiered = Machine::new();
    tiered.set_promote_after(0);
    let vt = tiered.run(code.clone(), input.clone()).unwrap();
    assert_eq!(vp.to_string(), vt.to_string());
    assert_eq!(plain.stats().steps, tiered.stats().steps);
    assert!(tiered.stats().promotions >= 2);
    assert_eq!(
        tiered.stats().tier_steps[0],
        0,
        "nothing ran cold: {:?}",
        tiered.stats()
    );
    assert!(
        tiered.stats().tier_steps[1] > 0,
        "fused renderings actually ran"
    );
}

#[test]
fn adaptive_fuel_exhaustion_matches_plain_at_every_budget() {
    let (code, input) = apply_program();
    let mut full = Machine::new();
    full.run(code.clone(), input.clone()).unwrap();
    let total = full.stats().steps;
    for budget in 0..=total {
        let mut p = paper_machine(Some(budget));
        let rp = p.run(code.clone(), input.clone());
        let mut t = Machine::with_fuel(budget);
        t.set_promote_after(0);
        let rt = t.run(code.clone(), input.clone());
        assert_eq!(rp.is_err(), rt.is_err(), "budget {budget}");
        assert_eq!(
            p.stats().steps,
            t.stats().steps,
            "budget {budget}: abort point must be step-identical"
        );
        if let (Err(ep), Err(et)) = (rp, rt) {
            assert_eq!(ep, et, "budget {budget}");
        }
    }
}

#[test]
fn adaptive_matches_an_indexed_baseline_too() {
    // Code as the flat-env compiler emits it: `acc` is itself one
    // compiled instruction, so fusing `push; acc` must charge 2 — not
    // the n + 2 fuel units it costs.
    let seg = CodeSeg::new();
    let code = seg.entry(vec![
        Instr::Push,
        Instr::Acc(1),
        Instr::Swap,
        Instr::Acc(0),
        Instr::ConsPair,
        Instr::Prim(PrimOp::Add),
    ]);
    let spine = Value::pair(Value::pair(Value::Unit, Value::Int(3)), Value::Int(4));
    let mut plain = Machine::new();
    let vp = plain.run(code.clone(), spine.clone()).unwrap();
    let mut tiered = Machine::new();
    tiered.set_promote_after(0);
    let vt = tiered.run(code.clone(), spine.clone()).unwrap();
    assert_eq!(vp.to_string(), vt.to_string());
    assert_eq!(vp.to_string(), "7");
    assert_eq!(plain.stats().steps, tiered.stats().steps);
    assert!(tiered.stats().promotions > 0);
    // And fuel exhaustion agrees at every budget (fuel stays in
    // pair-spine units in both machines).
    for budget in 0..plain.stats().steps + 2 {
        let mut p = paper_machine(Some(budget));
        let rp = p.run(code.clone(), spine.clone());
        let mut t = Machine::with_fuel(budget);
        t.set_promote_after(0);
        let rt = t.run(code.clone(), spine.clone());
        assert_eq!(rp.is_err(), rt.is_err(), "budget {budget}");
        assert_eq!(p.stats().steps, t.stats().steps, "budget {budget}");
    }
}

#[test]
fn tracing_suppresses_promotion_and_observes_the_cold_rendering() {
    let (code, input) = apply_program();
    let mut plain = paper_machine(None);
    plain.set_trace(64);
    plain.run(code.clone(), input.clone()).unwrap();
    let want = plain.trace().unwrap().mnemonics();
    let mut tiered = Machine::new();
    tiered.set_promote_after(0);
    tiered.set_trace(64);
    for _ in 0..3 {
        tiered.run(code.clone(), input.clone()).unwrap();
    }
    assert_eq!(tiered.stats().promotions, 0, "no promotion while tracing");
    assert_eq!(
        tiered.trace().unwrap().mnemonics()[..want.len()],
        want[..],
        "trace shows the cold rendering"
    );
}

#[test]
fn pair_profiling_suppresses_promotion_and_counts_cold_pairs() {
    let (code, input) = apply_program();
    let profile = |promote_after: u64| {
        let mut m = Machine::new();
        m.set_promote_after(promote_after);
        m.set_profile_pairs(true);
        for _ in 0..3 {
            m.run(code.clone(), input.clone()).unwrap();
        }
        assert_eq!(m.stats().promotions, 0, "no promotion while profiling");
        *m.pair_profile().unwrap()
    };
    assert_eq!(profile(0), profile(u64::MAX), "pairs of the cold rendering");
}

#[test]
fn adaptive_promotes_generated_code_frozen_by_call() {
    let a = Arena::new();
    a.push(Instr::Quote(Value::Int(9)));
    let gen = Value::pair(Value::Unit, Value::Arena(a));
    let prog = entry(vec![Instr::Quote(gen), Instr::Call]);
    let mut plain = Machine::new();
    let vp = plain.run(prog.clone(), Value::Unit).unwrap();
    let plain_steps = plain.stats().steps;
    let mut tiered = Machine::new();
    tiered.set_promote_after(1);
    for round in 0..4 {
        let before = tiered.stats();
        let vt = tiered.run(prog.clone(), Value::Unit).unwrap();
        assert_eq!(vp.to_string(), vt.to_string(), "round {round}");
        assert_eq!(
            tiered.stats().delta_since(&before).steps,
            plain_steps,
            "round {round}"
        );
    }
    assert!(tiered.stats().promotions > 0);
    // An arena has one snapshot, shared by every machine: every call
    // here is a hit, and the generated block earns its tier at run time
    // instead.
    assert_eq!(tiered.stats().freezes, 0);
    assert_eq!(tiered.stats().freeze_hits, 4);
}

#[test]
fn refreezes_count_stale_snapshot_rerenders() {
    let a = Arena::new();
    a.push(Instr::Quote(Value::Int(1)));
    let gen = Value::pair(Value::Unit, Value::Arena(a.clone()));
    let prog = entry(vec![Instr::Quote(gen), Instr::Call]);
    let mut m = Machine::new();
    let v = m.run(prog.clone(), Value::Unit).unwrap();
    assert_eq!(v.to_string(), "1");
    assert_eq!(m.stats().freezes, 1);
    assert_eq!(m.stats().refreezes, 0, "first freeze is not a refreeze");
    // The generator keeps emitting: the next freeze re-renders.
    a.push(Instr::Prim(PrimOp::Neg));
    let v = m.run(prog, Value::Unit).unwrap();
    assert_eq!(v.to_string(), "-1");
    assert_eq!(m.stats().freezes, 2);
    assert_eq!(m.stats().refreezes, 1);
}
