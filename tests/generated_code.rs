//! Inspects the *code that run-time specialization produces*, asserting
//! the paper's qualitative claims: the interpretive layer is gone from
//! generated code (no datatype dispatch, no interpretation loop), and
//! early values are embedded in the instruction stream as immediates
//! (Fabius-style instruction-stream encoding, §4.1).

use ccam::disasm::{census, disassemble, promoted_census};
use ccam::value::Value;
use mlbox::{programs, Session};
use mlbox_bpf::filters::telnet_filter;
use mlbox_bpf::harness::FilterHarness;

/// Extracts the body of a session value that is a closure.
fn closure_body(v: &Value) -> ccam::CodeRef {
    match v {
        Value::Closure(c) => c.body.clone(),
        other => panic!("expected a closure, got {other}"),
    }
}

fn body_census(body: &ccam::CodeRef) -> std::collections::BTreeMap<&'static str, usize> {
    census(&body.seg, body.block)
}

fn body_disasm(body: &ccam::CodeRef) -> String {
    disassemble(&body.seg, body.block)
}

#[test]
fn comp_poly_generated_code_has_no_dispatch() {
    let mut s = Session::new().unwrap();
    s.run(programs::EVAL_POLY).unwrap();
    s.run(programs::COMP_POLY).unwrap();
    let f = s.eval_expr("mlPolyFun").unwrap().raw;
    let body = closure_body(&f);
    let c = body_census(&body);

    // The list representation is *interpreted away*: no switch (datatype
    // dispatch), no fail, no pack — only arithmetic and closure plumbing.
    assert!(!c.contains_key("switch"), "census: {c:?}");
    assert!(!c.contains_key("fail"), "census: {c:?}");
    assert!(!c.contains_key("pack"), "census: {c:?}");
    // No residual code-generation instructions either: the generated code
    // is ordinary straight-line code.
    for gen_instr in ["emit", "lift", "arena", "merge", "call"] {
        assert!(!c.contains_key(gen_instr), "{gen_instr} in {c:?}");
    }
    // The four coefficients are embedded as immediates.
    assert!(c["quote"] >= 4, "census: {c:?}");
    let text = body_disasm(&body);
    assert!(text.contains("quote 2333"), "constants inline:\n{text}");
}

#[test]
fn interpreter_compiled_code_still_has_dispatch() {
    // Contrast: the *interpreter* evalPoly, compiled ordinarily, contains
    // the very switch the generator eliminates.
    let mut s = Session::new().unwrap();
    s.run(programs::EVAL_POLY).unwrap();
    let f = s.eval_expr("evalPoly").unwrap().raw;
    let (seg, body) = match &f {
        Value::RecClosure { group, .. } => (group.seg.clone(), group.bodies[0]),
        other => panic!("expected a recursive closure, got {other}"),
    };
    let c = census(&seg, body);
    assert!(c.contains_key("switch"), "census: {c:?}");
}

#[test]
fn bevalpf_specialized_filter_has_no_instruction_dispatch() {
    let mut h = FilterHarness::new(&telnet_filter()).unwrap();
    // `pfc` wraps the generated function; inspect the generated code
    // itself by invoking the generator directly.
    let generated = h
        .session_mut()
        .eval_expr("eval (bevalpf (theFilter, 0))")
        .unwrap()
        .raw;
    let body = closure_body(&generated);
    let c = body_census(&body);
    // The BPF instruction datatype is never examined at packet time...
    assert!(!c.contains_key("switch"), "census: {c:?}");
    assert!(!c.contains_key("fail"), "census: {c:?}");
    // ...but the residual *packet* tests remain as branches.
    assert!(c.contains_key("branch"), "census: {c:?}");
    // Filter constants (ethertype 2048, port 23, ...) are immediates.
    let text = body_disasm(&body);
    assert!(text.contains("quote 2048"), "{text}");
    assert!(text.contains("quote 23"), "{text}");
}

#[test]
fn generator_bodies_are_emit_sequences() {
    // A generating extension (the closure a `code` expression evaluates
    // to) is encoded as a sequence of emits plus arena plumbing — it
    // never manipulates source terms (Fabius property 1, §4.1).
    let mut s = Session::new().unwrap();
    s.run("val g = code (fn x => x * 2 + 1)").unwrap();
    let g = s.eval_expr("g").unwrap().raw;
    let body = closure_body(&g);
    let c = body_census(&body);
    assert!(c.contains_key("emit"), "census: {c:?}");
    assert!(
        c.contains_key("merge"),
        "lambda bodies merge via Cur: {c:?}"
    );
    // Structural validity: no nested emits anywhere.
    ccam::instr::validate(&body.seg, &body.to_vec()).unwrap();
}

#[test]
fn lift_embeds_closure_values_as_immediates() {
    let mut s = Session::new().unwrap();
    s.run("fun double x = x * 2").unwrap();
    s.run("val g = let cogen d = lift double in code (fn x => d (x + 1)) end")
        .unwrap();
    s.run("val f = eval g").unwrap();
    let f = s.eval_expr("f").unwrap().raw;
    let text = body_disasm(&closure_body(&f));
    // The lifted closure appears as a quoted immediate operand.
    assert!(text.contains("quote <fn"), "{text}");
}

#[test]
fn generated_code_size_tracks_polynomial_degree() {
    let mut sizes = Vec::new();
    for degree in [1usize, 2, 4, 8] {
        let mut s = Session::new().unwrap();
        s.run(programs::EVAL_POLY).unwrap();
        s.run(programs::COMP_POLY).unwrap();
        let poly: Vec<String> = (0..=degree).map(|i| i.to_string()).collect();
        s.run(&format!("val f = eval (compPoly [{}])", poly.join(", ")))
            .unwrap();
        let f = s.eval_expr("f").unwrap().raw;
        let c = body_census(&closure_body(&f));
        sizes.push(c.values().sum::<usize>());
    }
    // Linear growth: each extra coefficient adds a constant chunk.
    let d01 = sizes[1] - sizes[0];
    let d12 = sizes[2] - sizes[1];
    assert_eq!(d12, 2 * d01, "sizes: {sizes:?}");
}

/// Every block reachable from `entry`, each once, in discovery order.
fn reachable_blocks(seg: &ccam::CodeSeg, entry: ccam::BlockId) -> Vec<ccam::BlockId> {
    let mut seen = vec![entry];
    let mut next = 0;
    while let Some(&b) = seen.get(next) {
        for r in seg.block_to_vec(b).iter().flat_map(|i| i.block_refs()) {
            if !seen.contains(&r) {
                seen.push(r);
            }
        }
        next += 1;
    }
    seen
}

fn quotes_zero(code: &[ccam::Instr]) -> bool {
    use ccam::Instr::{PushQuote, Quote, QuoteCons};
    let zero = |v: &Value| matches!(v, Value::Int(0));
    code.iter().any(|i| match i {
        Quote(v) => zero(v),
        PushQuote(v) | QuoteCons(v) => zero(v),
        _ => false,
    })
}

#[test]
fn optimizer_eliminates_the_zero_coefficient() {
    // polyl = [2, 4, 0, 2333]: the x^2 term contributes `0 + (x * f x)`.
    // §4.2 envisions eliminating such instructions at specialization
    // time; promotion does once the function is hot, and still charges
    // Paper's steps.
    let mut s = Session::new().unwrap();
    s.run(programs::EVAL_POLY).unwrap();
    s.run(programs::COMP_POLY).unwrap();
    let (v_cold, cold_stats) = s.call("mlPolyFun", Value::Int(47)).unwrap();
    for _ in 0..ccam::machine::PROMOTE_AFTER {
        let (v, stats) = s.call("mlPolyFun", Value::Int(47)).unwrap();
        assert_eq!(s.render(&v), s.render(&v_cold), "promotion keeps the value");
        assert_eq!(
            stats.steps, cold_stats.steps,
            "promoted code takes Paper's steps"
        );
    }
    let body = closure_body(&s.eval_expr("mlPolyFun").unwrap().raw);
    // The zero coefficient's term is the one block that adds a quoted 0
    // (the innermost `fn x => 0` returns one, which nothing removes).
    let seg = &body.seg;
    let zero_terms: Vec<_> = reachable_blocks(seg, body.block)
        .into_iter()
        .map(|b| (b, seg.block_to_vec(b)))
        .filter(|(_, code)| code.len() > 1 && quotes_zero(code))
        .collect();
    let [(term, cold)] = &zero_terms[..] else {
        panic!("one zero term in:\n{}", disassemble(seg, body.block))
    };
    let promoted = seg.block_to_vec(seg.promoted(*term).expect("the zero term was promoted"));
    assert!(!quotes_zero(&promoted), "{promoted:?}");
    assert!(
        promoted.len() < cold.len(),
        "smaller rendering: {promoted:?}"
    );
    let size = |c: std::collections::BTreeMap<&str, usize>| c.values().sum::<usize>();
    assert!(
        size(promoted_census(seg, body.block)) < size(census(seg, body.block)),
        "the whole specialized function shrinks"
    );
}

#[test]
fn optimizer_preserves_packet_filter_semantics() {
    use mlbox_bpf::packet::PacketGen;
    // Rounds past the promotion threshold give the first (cold) round's
    // verdicts and steps.
    let filter = telnet_filter();
    let mut h = FilterHarness::new(&filter).unwrap();
    let packets = PacketGen::new(99).workload(10, 0.5);
    let mut round = || -> Vec<_> { packets.iter().map(|p| h.specialized(p).unwrap()).collect() };
    let cold = round();
    for _ in 0..ccam::machine::PROMOTE_AFTER as usize / packets.len() + 1 {
        assert_eq!(round(), cold);
    }
    let stats = h.machine_stats();
    assert!(stats.promotions > 0 && stats.tier_steps[1] > 0, "{stats:?}");
}
