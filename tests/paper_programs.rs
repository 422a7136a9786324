//! End-to-end tests of every program in the paper's §3, plus assertions
//! that the *shape* of Table 1 holds on our CCAM (DESIGN.md §4).

use mlbox::{programs, Session, SessionOptions};
use mlbox_bpf::filters::telnet_filter;
use mlbox_bpf::harness::FilterHarness;
use mlbox_bpf::packet::PacketGen;

const POLY_47: i64 = 2 + 4 * 47 + 2333 * 47 * 47 * 47;

#[test]
fn section_3_1_eval_poly() {
    let mut s = Session::new().unwrap();
    s.run(programs::EVAL_POLY).unwrap();
    assert_eq!(
        s.eval_expr("evalPoly (47, polyl)").unwrap().value,
        POLY_47.to_string()
    );
    assert_eq!(s.eval_expr("evalPoly (5, [])").unwrap().value, "0");
}

#[test]
fn section_3_1_spec_poly() {
    let mut s = Session::new().unwrap();
    s.run(programs::EVAL_POLY).unwrap();
    s.run(programs::SPEC_POLY).unwrap();
    assert_eq!(
        s.eval_expr("polylTarget 47").unwrap().value,
        POLY_47.to_string()
    );
}

#[test]
fn section_3_1_comp_poly_types() {
    let mut s = Session::new().unwrap();
    s.run(programs::EVAL_POLY).unwrap();
    let outs = s.run(programs::COMP_POLY).unwrap();
    let comp_poly_ty = &outs[0].ty;
    assert_eq!(comp_poly_ty, "int list -> (int -> int) $");
    assert_eq!(
        s.eval_expr("mlPolyFun 47").unwrap().value,
        POLY_47.to_string()
    );
}

#[test]
fn table1_polynomial_shape() {
    // The orderings of Table 1 rows 5-10.
    let mut s = Session::with_options(SessionOptions::paper()).unwrap();
    s.run(programs::EVAL_POLY).unwrap();
    s.run(programs::SPEC_POLY).unwrap();
    let eval_poly = s.eval_expr("evalPoly (47, polyl)").unwrap().stats.steps;
    let target = s.eval_expr("polylTarget 47").unwrap().stats.steps;
    let outs = s.run(programs::COMP_POLY).unwrap();
    let comp_build = outs
        .iter()
        .find(|o| o.name.as_deref() == Some("codeGenerator"))
        .unwrap()
        .stats
        .steps;
    let generate = outs
        .iter()
        .find(|o| o.name.as_deref() == Some("mlPolyFun"))
        .unwrap()
        .stats
        .steps;
    let staged = s.eval_expr("mlPolyFun 47").unwrap().stats.steps;

    // Paper: 807 (evalPoly) > 175 (polylTarget) > 74 (mlPolyFun).
    assert!(staged < target, "staged {staged} < spec-closures {target}");
    assert!(target < eval_poly, "spec {target} < interp {eval_poly}");
    // Paper ratio evalPoly/mlPolyFun ≈ 10.9; ours must be at least 3x.
    assert!(eval_poly >= 3 * staged, "{eval_poly} vs {staged}");
    // Generation costs are one-time and bounded (paper: 553 + 200 < 807).
    assert!(comp_build + generate < 4 * eval_poly);
}

#[test]
fn table1_packet_filter_shape() {
    let filter = telnet_filter();
    let mut h = FilterHarness::new(&filter).unwrap();
    let mut g = PacketGen::new(1998);
    let telnet = g.telnet(32);

    let (v1, interp_first) = h.interp(&telnet).unwrap();
    let (v2, interp_nth) = h.interp(&telnet).unwrap();
    assert!(v1 > 0 && v2 > 0);
    // Paper: evalpf steps identical on first and nth packet (9163 = 9163).
    assert_eq!(interp_first, interp_nth);

    let gen = h.specialize().unwrap();
    let (v3, run_first) = h.specialized(&telnet).unwrap();
    let (v4, run_nth) = h.specialized(&telnet).unwrap();
    assert!(v3 > 0 && v4 > 0);
    assert_eq!(run_first, run_nth);

    // Paper: bevalpf first (11984) > evalpf (9163): generation overhead.
    assert!(gen.steps + run_first > interp_first);
    // Paper: bevalpf nth (1104) ≪ evalpf (9163), ratio ≈ 8.3; require ≥ 3.
    assert!(interp_nth >= 3 * run_nth, "{interp_nth} vs {run_nth}");
}

#[test]
fn section_3_2_library_client() {
    let mut s = Session::new().unwrap();
    s.run(programs::EVAL_POLY).unwrap();
    s.run(programs::COMP_POLY).unwrap();
    s.run(programs::CLIENT).unwrap();
    s.run("val stage1 = eval client").unwrap();
    // Dynamically generated code invokes compPoly: stage-2 generation.
    let out = s.eval_expr("stage1 2 10").unwrap();
    assert_eq!(out.value, (14 + 10 * 7).to_string());
    assert!(
        out.stats.emitted > 0,
        "stage-2 code was generated at run time"
    );
}

#[test]
fn section_3_3_packet_filter_verdicts_match_native() {
    let filter = telnet_filter();
    let mut h = FilterHarness::new(&filter).unwrap();
    let mut g = PacketGen::new(77);
    for pkt in g.workload(20, 0.4) {
        let native = mlbox_bpf::native::run_filter(&filter, &pkt.bytes);
        let (iv, _) = h.interp(&pkt).unwrap();
        let (sv, _) = h.specialized(&pkt).unwrap();
        let (mv, _) = h.memo_specialized(&pkt).unwrap();
        assert_eq!(native, iv, "interp on {:?}", pkt.kind);
        assert_eq!(native, sv, "specialized on {:?}", pkt.kind);
        assert_eq!(native, mv, "memo-specialized on {:?}", pkt.kind);
    }
}

#[test]
fn section_3_4_code_power() {
    let mut s = Session::new().unwrap();
    s.run(programs::CODE_POWER).unwrap();
    for (e, b, expect) in [(0i64, 5i64, 1i64), (1, 5, 5), (10, 2, 1024), (3, 7, 343)] {
        assert_eq!(
            s.eval_expr(&format!("eval (codePower {e}) {b}"))
                .unwrap()
                .value,
            expect.to_string()
        );
    }
}

#[test]
fn section_3_4_memo_power1_no_regeneration_on_hit() {
    let mut s = Session::new().unwrap();
    s.run(programs::CODE_POWER).unwrap();
    s.run(programs::MEMO_POWER1).unwrap();
    let miss = s.eval_expr("memoPower1 12 2").unwrap();
    assert_eq!(miss.value, "4096");
    assert!(miss.stats.emitted > 0);
    let hit = s.eval_expr("memoPower1 12 2").unwrap();
    assert_eq!(hit.value, "4096");
    assert_eq!(hit.stats.emitted, 0, "cache hit must not regenerate");
}

#[test]
fn section_3_4_memo_power2_shares_subcomputations() {
    // "if it is called to compute, for instance, n^65 and then m^34 it
    // won't have to do any additional work to make a generating extension
    // for the second call."
    let mut warm = Session::new().unwrap();
    warm.run(programs::MEMO_POWER2).unwrap();
    warm.eval_expr("memoPower2 60 2").unwrap();
    let shared = warm.eval_expr("memoPower2 34 2").unwrap();

    let mut cold = Session::new().unwrap();
    cold.run(programs::MEMO_POWER2).unwrap();
    let unshared = cold.eval_expr("memoPower2 34 2").unwrap();

    assert_eq!(shared.value, unshared.value);
    assert!(
        shared.stats.steps < unshared.stats.steps,
        "sharing must save steps: {} vs {}",
        shared.stats.steps,
        unshared.stats.steps
    );
}

#[test]
fn section_2_compose_generators() {
    let mut s = Session::new().unwrap();
    s.run(programs::COMPOSE_GEN).unwrap();
    // The composition generator does not emit anything by itself...
    let out = s
        .run("val comp = composeGen (code (fn x => x * 2), code (fn x => x + 1))")
        .unwrap();
    assert_eq!(out.last().unwrap().stats.emitted, 0);
    // ...generation happens when the composite is invoked.
    let inv = s.eval_expr("eval comp 5").unwrap();
    assert_eq!(inv.value, "12");
    assert!(inv.stats.emitted > 0);
}

#[test]
fn eval_is_definable_not_primitive() {
    // The prelude defines eval = fn x => let cogen u = x in u end.
    let mut s = mlbox::Session::with_options(mlbox::SessionOptions {
        prelude: false,
        ..Default::default()
    })
    .unwrap();
    s.run("fun myEval c = let cogen u = c in u end;\nmyEval (code (fn x => x)) 9")
        .map(|outs| assert_eq!(outs.last().unwrap().value, "9"))
        .unwrap();
}
