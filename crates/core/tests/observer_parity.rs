//! Turning on an observer — per-opcode counts or a fuel budget — changes
//! nothing a session reports. The machine skips per-step accounting
//! whenever nothing observes it (DESIGN.md §13.6); this pins that the
//! skip is invisible over every Table 1 row and every §3 program.

use ccam::machine::Stats;
use ccam::value::Value;
use mlbox::programs::{
    CLIENT, CODE_POWER, COMPOSE_GEN, COMP_POLY, EVAL_POLY, MEMO_POWER1, MEMO_POWER2, SPEC_POLY,
};
use mlbox::{Session, SessionOptions};
use mlbox_bpf::filters::telnet_filter;
use mlbox_bpf::mlsrc::{filter_decl, packet_value, BPF_ML};
use mlbox_bpf::packet::PacketGen;

/// Runs the Table 1 computations (the telnet filter interpreted and
/// specialized, the six §3.1 polynomial rows) and the §3 programs,
/// recording each outcome — value and type, or the error — the output it
/// printed, and its statistics.
fn drive(options: SessionOptions) -> Vec<(String, String, Stats)> {
    let mut s = Session::with_options(options).unwrap();
    let mut log = Vec::new();
    let mut record = |s: &mut Session, what: String, stats: Stats| {
        let output = s.take_output();
        log.push((what, output, stats));
    };
    let mut run = |s: &mut Session, src: &str| match s.run(src) {
        Ok(outs) => {
            for o in outs {
                record(s, format!("{:?} : {} = {}", o.name, o.ty, o.value), o.stats);
            }
        }
        Err(e) => record(s, format!("{src}: {e}"), Stats::default()),
    };

    run(&mut s, BPF_ML);
    run(&mut s, &filter_decl("theFilter", &telnet_filter()));
    let pkt = packet_value(&PacketGen::new(1998).telnet(32));
    let filter = s.eval_expr("theFilter").unwrap().raw;
    let mut calls = Vec::new();
    for _ in 0..2 {
        let (v, stats) = s
            .call("runpf", Value::pair(filter.clone(), pkt.clone()))
            .unwrap();
        calls.push((format!("runpf {v}"), String::new(), stats));
    }
    run(&mut s, "val pfc = compilepf theFilter");
    for _ in 0..2 {
        let (v, stats) = s.call("pfc", pkt.clone()).unwrap();
        calls.push((format!("pfc {v}"), String::new(), stats));
    }

    for src in [
        EVAL_POLY,
        "val thePoly = [2, 4, 0, 2333]",
        "evalPoly (47, thePoly)",
        SPEC_POLY,
        "val specF = specPoly thePoly",
        "specF 47",
        COMP_POLY,
        "val theGen = compPoly thePoly",
        "val stagedF = eval theGen",
        "stagedF 47",
        CODE_POWER,
        MEMO_POWER1,
        MEMO_POWER2,
        COMPOSE_GEN,
        CLIENT,
        "memoPower1 3 5",
        "memoPower2 4 3",
        "memoPower2 4 3",
        "eval (composeGen (code (fn x => x * 2), code (fn x => x + 1))) 5",
        "val stage1 = eval client",
        "stage1 2 10",
        "print (itos (nth ([4, 5, 6], 2)))",
        "nth (nil, 0)",
    ] {
        run(&mut s, src);
    }
    log.extend(calls);
    log.push(("total".to_string(), String::new(), s.stats()));
    log
}

#[test]
fn observed_sessions_report_exactly_what_unobserved_ones_do() {
    let plain = drive(SessionOptions::default());
    assert!(plain.iter().any(|(_, out, _)| out == "6"), "print ran");
    for observed in [
        SessionOptions {
            count_opcodes: true,
            ..SessionOptions::default()
        },
        SessionOptions {
            fuel: Some(u64::MAX),
            ..SessionOptions::default()
        },
    ] {
        let label = format!("{observed:?}");
        let got = drive(observed);
        assert_eq!(got.len(), plain.len(), "{label}");
        for ((what, out, stats), (want_what, want_out, want_stats)) in got.iter().zip(&plain) {
            assert_eq!((what, out), (want_what, want_out), "{label}");
            if let Some(counts) = stats.opcodes {
                assert_eq!(counts.0.iter().sum::<u64>(), stats.steps, "{label}: {what}");
            }
            let stats = Stats {
                opcodes: None,
                ..*stats
            };
            assert_eq!(&stats, want_stats, "{label}: {what}");
        }
    }
}
