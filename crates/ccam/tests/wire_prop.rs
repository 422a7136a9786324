//! Property tests for the payload wire codec: arbitrary encodable values
//! and programs must survive encode → decode structurally intact, the
//! encoding must be a bijection on its image
//! (`encode(decode(bytes)) == bytes`), hostile bytes (truncations,
//! single-byte corruptions, random bytes, hostile nesting) must produce
//! typed errors, never panics, and `validate` must return exactly what a
//! discarded `decode` returns on every one of those inputs.

use ccam::instr::{Instr, PrimOp};
use ccam::machine::Machine;
use ccam::seg::CodeSeg;
use ccam::value::Value;
use ccam::wire::{decode, encode, validate, Decoded, PayloadInfo, WireError};
use proptest::prelude::*;
use std::rc::Rc;

/// Arbitrary encodable values: everything `encode` accepts except
/// closures (those are exercised by the program strategies below), with
/// sharing introduced explicitly.
fn first_order_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Unit),
        any::<i64>().prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        "[a-z]{0,12}".prop_map(Value::str),
        (0u32..8).prop_map(|tag| Value::Con(tag, None)),
    ];
    leaf.prop_recursive(5, 64, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Value::pair(a, b)),
            (0u32..8, inner.clone()).prop_map(|(tag, v)| Value::Con(tag, Some(Rc::new(v)))),
            // Shared spine: cloning a Value shares its Rc-backed nodes,
            // so both halves of this pair alias the same subgraph.
            inner.clone().prop_map(|v| Value::pair(v.clone(), v)),
        ]
    })
}

/// `snd; push; quote n; cons; prim op` — the argument `op` `n`.
fn arith(op: PrimOp, n: i64) -> Vec<Instr> {
    vec![
        Instr::Snd,
        Instr::Push,
        Instr::Quote(Value::Int(n)),
        Instr::ConsPair,
        Instr::Prim(op),
    ]
}

/// A closure value over a random arithmetic body: `fn x => (x + k) * m`.
fn closure_value() -> impl Strategy<Value = Value> {
    ((-100i64..100), (-10i64..10)).prop_map(|(k, m)| closure(k, m))
}

/// `fn x => (x + k) * m`.
fn closure(k: i64, m: i64) -> Value {
    let seg = CodeSeg::new();
    let mut body = arith(PrimOp::Add, k);
    body.extend([
        Instr::Push,
        Instr::Quote(Value::Int(m)),
        Instr::ConsPair,
        Instr::Prim(PrimOp::Mul),
    ]);
    let body = seg.add_block(body);
    Machine::new()
        .run(seg.entry(vec![Instr::Cur(body)]), Value::Unit)
        .expect("closure builds")
}

/// `fn x => g (h x)` with code in two segments and a recursive group:
/// `h = fn x => x + k` is a closure over a second segment, quoted in the
/// root's body; `g = fn y => y * m` is the member of a recursive group,
/// captured as the root's environment. Also yields `(k, m)`.
fn program_value() -> impl Strategy<Value = (Value, i64, i64)> {
    ((-100i64..100), (-10i64..10)).prop_map(|(k, m)| (program(k, m), k, m))
}

/// `fn x => g (h x)`, as `program_value` describes it.
fn program(k: i64, m: i64) -> Value {
    let other = CodeSeg::new();
    let h_body = other.add_block(arith(PrimOp::Add, k));
    let h = Machine::new()
        .run(other.entry(vec![Instr::Cur(h_body)]), Value::Unit)
        .expect("h builds");
    let seg = CodeSeg::new();
    let g_body = seg.add_block(arith(PrimOp::Mul, m));
    let g = Machine::new()
        .run(
            seg.entry(vec![Instr::RecClos(Rc::new(vec![g_body])), Instr::Snd]),
            Value::Unit,
        )
        .expect("g builds");
    // On entry the top is (g, x).
    let body = seg.add_block(vec![
        Instr::Push,
        Instr::Snd,
        Instr::Push,
        Instr::Quote(h),
        Instr::Swap,
        Instr::ConsPair,
        Instr::App, // h x, with (g, x) below
        Instr::Swap,
        Instr::Fst,
        Instr::Swap,
        Instr::ConsPair,
        Instr::App, // g (h x)
    ]);
    Machine::new()
        .run(seg.entry(vec![Instr::Cur(body)]), g)
        .expect("root builds")
}

/// Applies closure `f` to `arg` via ⟨closure, arg⟩; app.
fn apply(f: Value, arg: i64) -> i64 {
    let entry = CodeSeg::new().entry(vec![Instr::App]);
    match Machine::new()
        .run(entry, Value::pair(f, Value::Int(arg)))
        .expect("closure runs")
    {
        Value::Int(n) => n,
        other => panic!("non-integer result {other}"),
    }
}

/// `validate(bytes)` next to `decode(bytes)` with its graph discarded:
/// the two must be equal, the same `PayloadInfo` or the same error.
fn both(
    bytes: &[u8],
) -> (
    Result<PayloadInfo, WireError>,
    Result<PayloadInfo, WireError>,
) {
    (validate(bytes), decode(bytes).map(Decoded::discard))
}

/// Encodes `v`, decodes it, and re-encodes the decode.
fn roundtrip(v: &Value) -> (Vec<u8>, Value, Vec<u8>) {
    let (bytes, info) = encode(v).expect("encodable by construction");
    assert_eq!(
        validate(&bytes),
        Ok(info),
        "validate counts what encode counted"
    );
    let back = decode(&bytes).expect("encoded bytes decode");
    assert_eq!(back.info, info, "decode counts what encode counted");
    let again = encode(&back.value).expect("decoded values encode").0;
    (bytes, back.value, again)
}

proptest! {
    #[test]
    fn values_survive_the_wire(v in first_order_value()) {
        let (bytes, back, again) = roundtrip(&v);
        // Structural identity after decode…
        prop_assert_eq!(v.structural_eq(&back), Some(true));
        // …and the encoding is canonical: re-encoding the decode is
        // byte-identical.
        prop_assert_eq!(again, bytes);
    }

    #[test]
    fn closures_survive_the_wire_and_still_run(
        v in closure_value(),
        arg in -1000i64..1000,
    ) {
        let (bytes, back, again) = roundtrip(&v);
        prop_assert_eq!(again, bytes);
        // The decoded closure computes the same function.
        prop_assert_eq!(apply(v, arg), apply(back, arg));
    }

    #[test]
    fn programs_over_two_segments_survive_the_wire_and_still_run(
        (v, k, m) in program_value(),
        arg in -1000i64..1000,
    ) {
        let (bytes, back, again) = roundtrip(&v);
        prop_assert_eq!(again, bytes);
        prop_assert_eq!(apply(v, arg), (arg + k) * m);
        prop_assert_eq!(apply(back, arg), (arg + k) * m);
    }

    #[test]
    fn truncations_error_and_never_panic(v in first_order_value(), cut in 0usize..4096) {
        let (bytes, _) = encode(&v).unwrap();
        let cut = cut % bytes.len().max(1);
        let (validated, decoded) = both(&bytes[..cut]);
        prop_assert!(decoded.is_err());
        prop_assert_eq!(validated, decoded);
    }

    #[test]
    fn corruptions_error_or_decode_but_never_panic(
        v in first_order_value(),
        pos in 0usize..4096,
        mask in 0u8..255,
    ) {
        let (mut bytes, _) = encode(&v).unwrap();
        let pos = pos % bytes.len().max(1);
        bytes[pos] ^= mask + 1; // a non-zero flip

        // The payload codec has no checksum (the container adds it), so
        // some flips still decode; the property is totality, not
        // rejection: decode returns, and a successful decode re-encodes
        // without panicking.
        if let Ok(back) = decode(&bytes) {
            let _ = encode(&back.value);
            back.discard();
        }
        let (validated, decoded) = both(&bytes);
        prop_assert_eq!(validated, decoded);
    }

    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        if let Ok(back) = decode(&bytes) {
            let _ = encode(&back.value);
            back.discard();
        }
        let (validated, decoded) = both(&bytes);
        prop_assert_eq!(validated, decoded);
    }
}

#[test]
fn every_truncation_and_byte_of_code_payloads_validates_as_it_decodes() {
    // Code payloads — two segments, a recursive group, a quoted closure,
    // a plain closure, an `emit`, and a group reached twice — cut at
    // every length and given every byte value at every position.
    let seg = CodeSeg::new();
    let body = seg.add_block(vec![Instr::Emit(Box::new(Instr::Snd))]);
    let group = Machine::new()
        .run(
            seg.entry(vec![Instr::RecClos(Rc::new(vec![body])), Instr::Snd]),
            Value::Unit,
        )
        .expect("group builds");
    let shared_group = Value::pair(group.clone(), group);
    let mut payloads: Vec<Vec<u8>> = [program(-7, 3), closure(11, -2), shared_group]
        .iter()
        .map(|v| encode(v).unwrap().0)
        .collect();
    // No encoder writes this one: one block (`id`), then a pair of a
    // recursive group and a plain back-reference to that group.
    payloads.push(vec![
        1, 0, 0, 0, 1, 0, 0, 0, 0, // block table
        4, 7, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // pair, group
        9, 1, 0, 0, 0, // value back-reference to the group
    ]);
    assert_eq!(
        both(&payloads[3]).0,
        Err(WireError::Corrupt(
            "value back-reference resolves to a rec group"
        ))
    );
    for bytes in payloads {
        for cut in 0..bytes.len() {
            let (validated, decoded) = both(&bytes[..cut]);
            assert!(decoded.is_err());
            assert_eq!(validated, decoded, "cut at {cut}");
        }
        for pos in 0..bytes.len() {
            let mut edited = bytes.clone();
            for byte in 0..=u8::MAX {
                edited[pos] = byte;
                let (validated, decoded) = both(&edited);
                assert_eq!(validated, decoded, "byte {byte:#04x} at {pos}");
            }
        }
    }
}

#[test]
fn hostile_nesting_validates_as_it_decodes() {
    // Zero blocks, then one nesting tag per byte past the depth cap:
    // pairs (tag 4), constructor payloads (tag 8, tag, marker 1), and
    // frames (tag 5) nest one level per encoding.
    let over = ccam::wire::MAX_DECODE_DEPTH + 10;
    let pairs: Vec<u8> = [0, 0, 0, 0]
        .into_iter()
        .chain(std::iter::repeat_n(4, over))
        .collect();
    let mut cons = vec![0, 0, 0, 0];
    for _ in 0..over {
        cons.extend_from_slice(&[8, 0, 0, 0, 0, 1]);
    }
    let frames: Vec<u8> = [0, 0, 0, 0]
        .into_iter()
        .chain(std::iter::repeat_n(5, over))
        .collect();
    for bytes in [pairs, cons, frames] {
        assert_eq!(
            both(&bytes),
            (Err(WireError::TooDeep), Err(WireError::TooDeep))
        );
    }
}

/// A closure whose body `quote`s a closure lifted from its own segment —
/// the shape `lift` of a closure leaves in generated code — built by
/// running the generator on the machine: lift `c` into an arena, merge
/// that arena as a `cur` body, and call the result.
fn lifted_closure() -> Value {
    let seg = CodeSeg::new();
    let c_body = seg.add_block(vec![Instr::Snd]);
    let generator = seg.entry(vec![
        Instr::Cur(c_body), // c
        Instr::Push,
        Instr::NewArena,
        Instr::ConsPair,
        Instr::LiftV, // (c, {quote c})
        Instr::Snd,
        Instr::Push,
        Instr::Quote(Value::Unit),
        Instr::Push,
        Instr::NewArena,
        Instr::ConsPair,
        Instr::ConsPair, // ({quote c}, ((), {}))
        Instr::Merge,    // ((), {cur {quote c}})
        Instr::Call,
    ]);
    Machine::new()
        .run(generator, Value::Unit)
        .expect("generator runs")
}

#[test]
fn validating_a_lifted_closure_payload_leaves_nothing_live() {
    let (bytes, info) = encode(&lifted_closure()).unwrap();
    // Premise: the decoded segment holds itself through the quote, so
    // dropping the decode alone leaks it (deliberately, once, here).
    let leaked = decode(&bytes).unwrap();
    let weak = leaked.seg.downgrade();
    drop(leaked);
    assert!(weak.upgrade().is_some(), "premise: a self-quoting segment");
    // Validation builds no segment, so there is nothing to leak, and it
    // counts what the encoder counted.
    assert_eq!(validate(&bytes), Ok(info));
}
