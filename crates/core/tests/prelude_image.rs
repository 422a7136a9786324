//! Sessions built from the per-thread prelude image behave exactly like
//! sessions that compile the prelude themselves ("cold": `prelude: false`
//! followed by `run(PRELUDE)`), at every point of the option lattice, and
//! share no state with the image or with each other.

use ccam::disasm::disassemble;
use ccam::seg::{BlockId, CodeSeg};
use ccam::value::Value;
use mlbox::prelude::PRELUDE;
use mlbox::programs::{
    CLIENT, CODE_POWER, COMPOSE_GEN, COMP_POLY, EVAL_POLY, MEMO_POWER1, MEMO_POWER2, SPEC_POLY,
};
use mlbox::{Session, SessionOptions};
use mlbox_bpf::filters::telnet_filter;
use mlbox_bpf::mlsrc::{filter_decl, packet_value, BPF_ML};
use mlbox_bpf::packet::PacketGen;

/// Both environment modes, each with and without a fuel budget.
fn lattice() -> Vec<SessionOptions> {
    let mut out = Vec::new();
    for flat_env in [false, true] {
        for fuel in [None, Some(1_000_000_000)] {
            out.push(SessionOptions {
                flat_env,
                fuel,
                ..SessionOptions::default()
            });
        }
    }
    out
}

fn cold_session(options: &SessionOptions) -> Session {
    let mut s = Session::with_options(SessionOptions {
        prelude: false,
        ..options.clone()
    })
    .unwrap();
    s.run(PRELUDE).unwrap();
    s.take_warnings();
    s
}

/// Every block of the segment, in id order.
fn listing(seg: &CodeSeg) -> String {
    (0..seg.num_blocks() as u32)
        .map(|b| format!("== {b}\n{}", disassemble(seg, BlockId(b))))
        .collect()
}

/// The rendering each block was promoted to, in id order.
fn tiers(seg: &CodeSeg) -> Vec<Option<BlockId>> {
    (0..seg.num_blocks() as u32)
        .map(|b| seg.promoted(BlockId(b)))
        .collect()
}

/// Runs the Table 1 programs (telnet filter interpreted and specialized,
/// the §3.1 polynomial rows) and the §3 programs, recording every
/// outcome — value, type, per-declaration statistics, printed output, or
/// the error — in order.
fn drive(s: &mut Session) -> Vec<String> {
    let mut log = Vec::new();
    let mut run = |s: &mut Session, src: &str| {
        log.push(match s.run(src) {
            Ok(outs) => outs
                .iter()
                .map(|o| format!("{:?} : {} = {} {:?}", o.name, o.ty, o.value, o.stats))
                .collect::<Vec<_>>()
                .join("\n"),
            Err(e) => format!("error: {e}"),
        });
        log.push(s.take_output());
    };
    run(s, BPF_ML);
    run(s, &filter_decl("theFilter", &telnet_filter()));
    let pkt = PacketGen::new(1998).telnet(32);
    let filter = s.eval_expr("theFilter").unwrap().raw;
    let (v, stats) = s
        .call("runpf", Value::pair(filter, packet_value(&pkt)))
        .unwrap();
    let mut calls = vec![format!("runpf {v} {stats:?}")];
    run(s, "val pfc = compilepf theFilter");
    for _ in 0..2 {
        let (v, stats) = s.call("pfc", packet_value(&pkt)).unwrap();
        calls.push(format!("pfc {v} {stats:?}"));
    }
    for src in [EVAL_POLY, SPEC_POLY, COMP_POLY, CODE_POWER, MEMO_POWER1] {
        run(s, src);
    }
    for src in [MEMO_POWER2, COMPOSE_GEN, CLIENT] {
        run(s, src);
    }
    for src in [
        "evalPoly (47, polyl)",
        "polylTarget 47",
        "mlPolyFun 47",
        "mlPolyFun 47",
        "memoPower1 3 5",
        "memoPower2 4 3",
        "memoPower2 4 3",
        "eval (composeGen (code (fn x => x * 2), code (fn x => x + 1))) 5",
        "val stage1 = eval client",
        "stage1 2 10",
        // A prelude loop past the promotion threshold, so sessions
        // promote prelude blocks.
        "listLength (map (fn x => x + 1) (tabulate (2000, fn i => i)))",
        "print (itos (nth ([4, 5, 6], 2)))",
        "nth (nil, 0)",
    ] {
        run(s, src);
    }
    log.extend(calls);
    log.push(format!("total {:?}", s.stats()));
    log
}

fn artifact_payload(s: &mut Session) -> Vec<u8> {
    // A cold session runs with `prelude: false`, so the containers'
    // options sections differ; compare the payloads.
    s.compile_to_artifact("codePower 3", 0x1998)
        .unwrap()
        .payload()
        .to_vec()
}

#[test]
fn image_sessions_match_cold_sessions_across_the_option_lattice() {
    for options in lattice() {
        let label = format!("{options:?}");
        let mut warm = Session::with_options(options.clone()).unwrap();
        let mut cold = cold_session(&options);
        assert_eq!(warm.stats(), cold.stats(), "{label}");
        assert_eq!(
            listing(warm.code_segment()),
            listing(cold.code_segment()),
            "{label}"
        );
        assert_eq!(tiers(warm.code_segment()), tiers(cold.code_segment()));
        assert!(warm.take_warnings().is_empty(), "{label}");
        assert_eq!(drive(&mut warm), drive(&mut cold), "{label}");
        assert_eq!(
            tiers(warm.code_segment()),
            tiers(cold.code_segment()),
            "{label}"
        );
        assert_eq!(
            artifact_payload(&mut warm),
            artifact_payload(&mut cold),
            "{label}"
        );

        // Traces record (block, pc, mnemonic): equal traces mean the copy
        // kept every block id.
        let mut warm = Session::with_options(options.clone()).unwrap();
        let mut cold = cold_session(&options);
        warm.set_trace(20_000);
        cold.set_trace(20_000);
        assert_eq!(drive(&mut warm), drive(&mut cold), "{label}");
        assert_eq!(
            warm.trace().unwrap().entries,
            cold.trace().unwrap().entries,
            "{label}"
        );
    }
}

#[test]
fn a_budget_too_small_for_the_prelude_fails_as_before() {
    for fuel in [0, 1, 2, 3, 5, 8, 13, 40] {
        let options = SessionOptions {
            fuel: Some(fuel),
            ..SessionOptions::default()
        };
        let mut bare = Session::with_options(SessionOptions {
            prelude: false,
            ..options.clone()
        })
        .unwrap();
        let cold = bare.run(PRELUDE).map(|_| bare.stats());
        // Twice: a failed build must not leave an image behind.
        for _ in 0..2 {
            let warm = Session::with_options(options.clone()).map(|s| s.stats());
            match (&warm, &cold) {
                (Ok(w), Ok(c)) => assert_eq!(w, c, "fuel {fuel}"),
                (Err(w), Err(c)) => assert_eq!(w.to_string(), c.to_string(), "fuel {fuel}"),
                _ => panic!("fuel {fuel}: image {warm:?} vs cold {cold:?}"),
            }
        }
    }
    let tiny = SessionOptions {
        fuel: Some(0),
        ..SessionOptions::default()
    };
    let err = Session::with_options(tiny).unwrap_err();
    assert!(err.to_string().contains("budget"), "{err}");
}

#[test]
fn sessions_share_nothing_with_each_other() {
    let options = SessionOptions::default();
    let hot_loop = "listLength (map (fn x => x + 1) (tabulate (2000, fn i => i)))";
    let mut before = Session::with_options(options.clone()).unwrap();
    let before_listing = listing(before.code_segment());
    let before_tiers = tiers(before.code_segment());

    let mut hot = Session::with_options(options.clone()).unwrap();
    let first = hot.eval_expr(hot_loop).unwrap();
    assert!(first.stats.promotions > 0, "prelude blocks promoted");
    hot.eval_expr(hot_loop).unwrap();
    hot.run(COMP_POLY.replace("polyl", "[1, 2, 3]").as_str())
        .unwrap();
    hot.run("print \"hot\"").unwrap();
    assert_ne!(tiers(hot.code_segment()), before_tiers);

    let mut after = Session::with_options(options).unwrap();
    assert_eq!(after.stats(), before.stats());
    assert_eq!(listing(after.code_segment()), before_listing);
    assert_eq!(tiers(after.code_segment()), before_tiers);
    assert_eq!(after.take_output(), "");
    for s in [&mut before, &mut after] {
        let out = s.eval_expr(hot_loop).unwrap();
        assert_eq!(out.value, "2000");
        assert_eq!(out.stats, first.stats, "the loop starts cold again");
    }
    assert_eq!(tiers(after.code_segment()), tiers(before.code_segment()));
}

#[test]
fn dropping_a_session_spares_the_image_and_the_other_sessions() {
    let memoized = "case lookup (specCode2, 5) of NONE => false | SOME _ => true";
    let mut a = Session::new().unwrap();
    let mut b = Session::new().unwrap();
    assert!(!CodeSeg::ptr_eq(a.code_segment(), b.code_segment()));
    for s in [&mut a, &mut b] {
        s.run(MEMO_POWER2).unwrap();
        assert_eq!(s.eval_expr("memoPower2 5 2").unwrap().value, "32");
    }
    let b_listing = listing(b.code_segment());
    drop(a);
    // `b`'s code and its memo table (a `ref` cell) are untouched.
    assert_eq!(listing(b.code_segment()), b_listing);
    assert_eq!(b.eval_expr(memoized).unwrap().value, "true");
    assert_eq!(b.eval_expr("memoPower2 5 3").unwrap().value, "243");
    // A new session starts from an intact image.
    let mut c = Session::new().unwrap();
    c.run(MEMO_POWER2).unwrap();
    assert_eq!(c.eval_expr(memoized).unwrap().value, "false");
    assert_eq!(c.eval_expr("memoPower2 5 2").unwrap().value, "32");
}

#[test]
fn a_second_thread_builds_its_own_image() {
    let workload = |s: &mut Session| {
        let out = s.eval_expr("map (fn x => x * 2) [1, 2, 3]").unwrap();
        (out.value, out.stats, s.stats())
    };
    let mut here = Session::new().unwrap();
    let here_seg = here.code_segment().addr();
    let expected = workload(&mut here);
    let (there, there_seg) = std::thread::spawn(move || {
        let mut s = Session::new().unwrap();
        let seg = s.code_segment().addr();
        (workload(&mut s), seg)
    })
    .join()
    .unwrap();
    assert_eq!(there, expected);
    assert_ne!(
        there_seg, here_seg,
        "the thread's session has its own segment"
    );
    // This thread's image is untouched by the other thread's sessions.
    let mut again = Session::new().unwrap();
    assert_eq!(workload(&mut again), expected);
}
