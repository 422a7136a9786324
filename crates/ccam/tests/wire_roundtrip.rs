//! Round trips of values and code through the payload wire codec.
//!
//! Values and code segments are single-threaded `Rc` graphs; the form of
//! a value that crosses threads (and processes) is its wire bytes. These
//! tests drive [`ccam::wire::encode`] and [`ccam::wire::decode`] through
//! the public API, as a producer and a consumer on either side of a
//! thread boundary would, and check that what comes back is the value
//! that went in: same results, same sharing, same representation.

use ccam::instr::{Instr, MergeSwitchSpec, PrimOp, SwitchArm, SwitchTable};
use ccam::machine::Machine;
use ccam::seg::{CodeRef, CodeSeg};
use ccam::value::{Closure, Value};
use ccam::wire::{decode, encode, Decoded};
use std::rc::Rc;

fn closure(env: Value, body: Vec<Instr>) -> Value {
    Value::Closure(Rc::new(Closure {
        env,
        body: CodeSeg::new().entry(body),
    }))
}

fn app() -> CodeRef {
    CodeSeg::new().entry(vec![Instr::App])
}

/// Sends `v` through its wire bytes.
fn carry(v: &Value) -> Decoded {
    let (bytes, _) = encode(v).unwrap();
    decode(&bytes).unwrap()
}

#[test]
fn first_order_values_roundtrip() {
    let v = Value::tuple(vec![
        Value::Int(-3),
        Value::Bool(true),
        Value::str("hi"),
        Value::Con(2, Some(Rc::new(Value::Unit))),
    ]);
    let back = carry(&v);
    assert_eq!(v.structural_eq(&back.value), Some(true));
    assert_eq!(back.info.instructions, 0, "no code reachable");
}

#[test]
fn closures_roundtrip_and_still_run() {
    // fn x => snd x + 1, captured env ().
    let f = closure(
        Value::Unit,
        vec![
            Instr::Snd,
            Instr::Push,
            Instr::Quote(Value::Int(1)),
            Instr::ConsPair,
            Instr::Prim(PrimOp::Add),
        ],
    );
    let g = carry(&f).value;
    let out = Machine::new()
        .run(app(), Value::pair(g, Value::Int(41)))
        .unwrap();
    assert!(matches!(out, Value::Int(42)));
}

#[test]
fn shared_code_stays_shared_through_roundtrip() {
    // Two closures over one segment sharing one body block.
    let seg = CodeSeg::new();
    let body = seg.add_block(vec![Instr::Snd]);
    let mk = || {
        Value::Closure(Rc::new(Closure {
            env: Value::Unit,
            body: CodeRef {
                seg: seg.clone(),
                block: body,
            },
        }))
    };
    let back = carry(&Value::pair(mk(), mk()));
    // The shared block is carried once…
    assert_eq!(back.seg.num_blocks(), 1);
    assert_eq!(back.info.instructions, 1);
    // …and the decode restores the sharing: both closures reference
    // the same block of the same fresh segment.
    let (ha, hb) = match &back.value {
        Value::Pair(pair) => match (&pair.0, &pair.1) {
            (Value::Closure(a), Value::Closure(b)) => (a.clone(), b.clone()),
            other => panic!("unexpected: {other:?}"),
        },
        other => panic!("unexpected: {other:?}"),
    };
    assert!(CodeRef::same_block(&ha.body, &hb.body));
}

#[test]
fn every_instruction_roundtrips() {
    // One of each instruction, nested blocks included, so adding an
    // instruction without a portable rendering fails this test.
    let seg = CodeSeg::new();
    let sub = seg.add_block(vec![Instr::Id]);
    let all = vec![
        Instr::Id,
        Instr::Fst,
        Instr::Snd,
        Instr::Acc(2),
        Instr::Push,
        Instr::Swap,
        Instr::ConsPair,
        Instr::App,
        Instr::Quote(Value::Int(7)),
        Instr::Cur(sub),
        Instr::Emit(Box::new(Instr::Snd)),
        Instr::LiftV,
        Instr::NewArena,
        Instr::Merge,
        Instr::Call,
        Instr::Branch(sub, sub),
        Instr::RecClos(Rc::new(vec![sub])),
        Instr::Pack(3),
        Instr::Switch(Rc::new(SwitchTable {
            arms: vec![SwitchArm {
                tag: 0,
                bind: true,
                code: sub,
            }],
            default: Some(sub),
        })),
        Instr::Prim(PrimOp::Mul),
        Instr::Fail(Rc::new("boom".into())),
        Instr::MergeBranch,
        Instr::MergeSwitch(Rc::new(MergeSwitchSpec {
            arms: vec![(0, true)],
            default: true,
        })),
        Instr::MergeRec(2),
        Instr::PushAcc(1),
        Instr::QuoteCons(Rc::new(Value::Int(8))),
        Instr::SwapCons,
        Instr::ConsApp,
        Instr::AccApp(0),
        Instr::PushQuote(Rc::new(Value::Bool(false))),
        Instr::EnvCons,
    ];
    let code = seg.entry(all);
    let f = Value::Closure(Rc::new(Closure {
        env: Value::Unit,
        body: code.clone(),
    }));
    let back = carry(&f);
    let Value::Closure(c) = &back.value else {
        panic!("{:?}", back.value)
    };
    assert_eq!(code.len(), c.body.len());
    for (orig, round) in code.to_vec().iter().zip(c.body.to_vec().iter()) {
        assert_eq!(orig.opcode(), round.opcode());
    }
}

#[test]
fn frame_environments_roundtrip_and_are_flagged() {
    // A closure whose captured environment is a frame — what flat
    // environment mode produces — survives the trip faithfully (same
    // representation, so same step counts after decoding), and the
    // payload is flagged so mismatched consumers can refuse it.
    let env = Value::env_extend(
        Value::env_extend(Value::Unit, Value::Int(10)),
        Value::Int(20),
    );
    // After application the argument is slot 0, so acc 2 reads the
    // deepest captured binding.
    let f = closure(env, vec![Instr::Acc(2)]);
    let (bytes, info) = encode(&f).unwrap();
    assert!(info.uses_frames);
    let back = decode(&bytes).unwrap();
    assert!(back.info.uses_frames);
    let g = back.value;
    let Value::Closure(c) = &g else {
        panic!("{g:?}")
    };
    assert!(matches!(c.env, Value::Frame(_)), "representation kept");
    let out = Machine::new()
        .run(app(), Value::pair(g, Value::Unit))
        .unwrap();
    assert!(matches!(out, Value::Int(10)), "{out}");
    // Pair-spine values are not flagged.
    let plain = closure(Value::pair(Value::Unit, Value::Int(1)), vec![Instr::Snd]);
    assert!(!encode(&plain).unwrap().1.uses_frames);
}

#[test]
fn shared_frames_stay_shared_through_roundtrip() {
    let env = Value::env_extend(Value::Unit, Value::Int(1));
    let h = carry(&Value::pair(env.clone(), env)).value;
    let Value::Pair(pair) = &h else {
        panic!("{h:?}")
    };
    let (Value::Frame(a), Value::Frame(b)) = (&pair.0, &pair.1) else {
        panic!("{h:?}")
    };
    assert!(Rc::ptr_eq(a, b), "frame sharing restored");
}

#[test]
fn quoted_closures_roundtrip() {
    // LiftV residualizes closures as `quote` immediates in generated
    // code; those must survive inside code, not just at the value
    // layer.
    let inner = closure(Value::Unit, vec![Instr::Snd]);
    let outer = closure(
        Value::Unit,
        vec![
            Instr::Push,
            Instr::Quote(inner),
            Instr::Swap,
            Instr::Quote(Value::Int(5)),
            Instr::ConsPair,
            Instr::App,
        ],
    );
    let back = carry(&outer);
    let Value::Closure(c) = &back.value else {
        panic!("{:?}", back.value)
    };
    let out = Machine::new().run(c.body.clone(), Value::Unit).unwrap();
    assert!(matches!(out, Value::Int(5)), "{out}");
}

#[test]
fn instr_count_counts_shared_code_once() {
    let seg = CodeSeg::new();
    let body = seg.add_block(vec![Instr::Id, Instr::Snd]);
    let mk = || {
        Value::Closure(Rc::new(Closure {
            env: Value::Unit,
            body: CodeRef {
                seg: seg.clone(),
                block: body,
            },
        }))
    };
    let v = Value::pair(mk(), mk());
    // The shared 2-instruction body is carried once, and both the
    // encoder and the decoder count it once.
    let (bytes, info) = encode(&v).unwrap();
    assert_eq!(info.instructions, 2);
    assert_eq!(decode(&bytes).unwrap().info.instructions, 2);
}
