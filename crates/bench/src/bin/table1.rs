//! Regenerates the paper's **Table 1** ("Reduction steps on the CCAM for
//! various functions in the text") and the extension sweeps.
//!
//! Usage:
//!
//! ```text
//! table1             # the Table 1 reproduction
//! table1 --json      # the same rows as JSON, plus flat-env steps (the
//!                    # steps_indexed column and the rows_flat_env
//!                    # section), tier-controller and freeze-cache
//!                    # counters
//! table1 --profile-pairs # dynamic opcode-pair histogram of the Table 1
//!                    # workloads (the superinstruction selection data)
//! table1 sweep-poly  # polynomial-degree sweep (E6)
//! table1 sweep-filter# filter-length sweep (E6)
//! table1 crossover   # amortization break-even analysis (E6)
//! table1 memo        # memoization measurements (E4)
//! table1 optimize    # the §4.2 peephole in promoted code (E7)
//! table1 deep-env    # pair-spine vs flat access on deep
//!                    # environments (--json: the BENCH_deep_env rows)
//! table1 all         # everything
//! ```
//!
//! Every measurement runs the Paper profile ([`SessionOptions::paper`]:
//! pair-spine environments) unless it names flat frames. Absolute
//! numbers differ from the paper (our CCAM's extension instruction
//! inventory is a reconstruction — DESIGN.md §3.1); the *shape* of the
//! results is asserted in `tests/` and recorded in EXPERIMENTS.md.

use mlbox::SessionOptions;
use mlbox_bench::{
    break_even, deep_env_steps, poly_costs, poly_literal, render_table, table1_rows,
};
use mlbox_bpf::filters::{chain_filter, telnet_filter};
use mlbox_bpf::harness::FilterHarness;
use mlbox_bpf::packet::PacketGen;

/// A session in the Paper profile.
fn paper_session() -> mlbox::Session {
    mlbox::Session::with_options(SessionOptions::paper()).expect("session")
}

/// A filter harness in the Paper profile.
fn paper_harness(filter: &[mlbox_bpf::insn::Insn]) -> FilterHarness {
    FilterHarness::with_options(filter, SessionOptions::paper()).expect("harness")
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--trace") {
        let limit = args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or(40usize);
        args.drain(i..args.len().min(i + 2));
        trace(limit);
        return;
    }
    if args.iter().any(|a| a == "--profile-pairs") {
        profile_pairs();
        return;
    }
    let json = args.iter().any(|a| a == "--json");
    let mode = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "table1".into());
    let run = |name: &str| mode == name || mode == "all";
    if run("table1") {
        table1(json);
    }
    if run("sweep-poly") {
        sweep_poly();
    }
    if run("sweep-filter") {
        sweep_filter();
    }
    if run("crossover") {
        crossover();
    }
    if run("memo") {
        memo();
    }
    if run("optimize") {
        optimize_ablation();
    }
    if run("deep-env") {
        deep_env(json && mode == "deep-env");
    }
}

/// `--trace N`: prints the first `N` executed instructions of the
/// Table 1 staged polynomial call (`mlPolyFun 47`) as
/// `(block, pc, mnemonic)` triples — the machine's bounded execution
/// trace over the flat code segment.
fn trace(limit: usize) {
    let mut s = paper_session();
    s.run(mlbox::programs::EVAL_POLY).expect("evalPoly");
    s.run(mlbox::programs::COMP_POLY).expect("compPoly");
    s.set_trace(limit);
    let out = s.eval_expr("mlPolyFun 47").expect("call");
    println!("first {limit} executed instructions of `mlPolyFun 47` (block, pc, mnemonic):");
    let t = s.trace().expect("tracing enabled");
    for e in &t.entries {
        println!("  L{:<5} pc {:<4} {}", e.block, e.pc, e.mnemonic);
    }
    println!(
        "… {} of {} steps shown; result {}",
        t.entries.len(),
        out.stats.steps,
        out.value
    );
}

/// `--profile-pairs`: runs the Table 1 workloads (polynomials + telnet
/// filter) with the machine's dynamic opcode-pair histogram enabled and
/// prints the hottest adjacent pairs — the measurement behind the fused
/// superinstruction selection (DESIGN.md §11, EXPERIMENTS.md). Pairs a
/// fused opcode already covers are annotated with its mnemonic.
fn profile_pairs() {
    use ccam::instr::{OPCODE_COUNT, OPCODE_NAMES};
    let mut hist = vec![[0u64; OPCODE_COUNT]; OPCODE_COUNT];
    let mut merge = |p: Option<&ccam::machine::PairCounts>| {
        let p = p.expect("profiling enabled");
        for (row, src) in hist.iter_mut().zip(p.iter()) {
            for (c, s) in row.iter_mut().zip(src.iter()) {
                *c += s;
            }
        }
    };

    // Polynomial workloads: interpret, generate, run staged.
    let mut s = paper_session();
    s.set_profile_pairs(true);
    s.run(mlbox::programs::EVAL_POLY).expect("evalPoly");
    s.run(mlbox::programs::COMP_POLY).expect("compPoly");
    s.eval_expr("evalPoly (47, polyl)").expect("interp");
    s.run("val f = eval (compPoly polyl)").expect("generate");
    s.eval_expr("f 47").expect("staged call");
    merge(s.pair_profile());

    // Telnet filter workloads: interpret, specialize, run specialized.
    let mut h = paper_harness(&telnet_filter());
    h.session_mut().set_profile_pairs(true);
    let telnet = PacketGen::new(1998).telnet(32);
    h.interp(&telnet).expect("interp");
    h.specialize().expect("specialize");
    h.specialized(&telnet).expect("specialized");
    merge(h.session_mut().pair_profile());

    /// The fused opcode that covers an adjacent pair, if one exists.
    fn fused_as(a: &str, b: &str) -> Option<&'static str> {
        match (a, b) {
            ("push", "acc" | "snd") => Some("push_acc"),
            ("push", "quote") => Some("push_quote"),
            ("quote", "cons") => Some("quote_cons"),
            ("swap", "cons") => Some("swap_cons"),
            ("cons", "app") => Some("cons_app"),
            ("acc" | "snd", "app") => Some("acc_app"),
            ("fst", "fst" | "snd" | "acc") => Some("acc (chain collapse)"),
            _ => None,
        }
    }

    let total: u64 = hist.iter().flatten().sum();
    let mut pairs: Vec<(u64, usize, usize)> = Vec::new();
    for (a, row) in hist.iter().enumerate() {
        for (b, &count) in row.iter().enumerate() {
            if count > 0 {
                pairs.push((count, a, b));
            }
        }
    }
    pairs.sort_by_key(|p| std::cmp::Reverse(p.0));
    println!("Dynamic opcode-pair frequency over the Table 1 workloads ({total} adjacent pairs)");
    println!(
        "{:>4}  {:>7}  {:>5}  {:22}  fused as",
        "rank", "count", "share", "pair"
    );
    let mut covered = 0u64;
    for (rank, (count, a, b)) in pairs.iter().take(16).enumerate() {
        let (an, bn) = (OPCODE_NAMES[*a], OPCODE_NAMES[*b]);
        let fused = fused_as(an, bn);
        if fused.is_some() {
            covered += count;
        }
        println!(
            "{:>4}  {:>7}  {:>4.1}%  {:22}  {}",
            rank + 1,
            count,
            100.0 * *count as f64 / total as f64,
            format!("{an}; {bn}"),
            fused.unwrap_or("—")
        );
    }
    println!(
        "top-16 pairs covered by a fused opcode: {:.1}% of all adjacent dispatches\n",
        100.0 * covered as f64 / total as f64
    );
}

/// Environment-representation comparison: reduction steps for a deep
/// `let` nest under the Paper profile's pair-spine accesses and
/// `flat_env` frames. With `json`, emits the `BENCH_deep_env.json`
/// artifact shape instead.
fn deep_env(json: bool) {
    const DEPTHS: [usize; 6] = [4, 8, 16, 32, 64, 128];
    if json {
        println!(
            "{}",
            mlbox_bench::deep_env_json(&DEPTHS).expect("deep-env sweep")
        );
        return;
    }
    let [(_, spine_opts), (_, flat_opts)] = mlbox_bench::deep_env_modes();
    println!("Deep-environment access (nested lets, one walk to the outermost binding)");
    println!("{:>8} {:>12} {:>12}", "depth", "spine", "flat");
    for depth in DEPTHS {
        let spine = deep_env_steps(depth, &spine_opts).expect("spine run");
        let flat = deep_env_steps(depth, &flat_opts).expect("flat run");
        println!("{depth:>8} {spine:>12} {flat:>12}");
    }
    println!();
}

/// §4.2 ablation: the peephole ("a more sophisticated specialization
/// system might ... eliminate the instruction altogether if either
/// \[operand\] is 0") as part of promotion. Runs each workload past the
/// promotion threshold and reports the instructions of its cold code
/// against its promoted renderings, at equal steps.
fn optimize_ablation() {
    use ccam::disasm::{census, promoted_census};
    use ccam::machine::PROMOTE_AFTER;
    let mut s = paper_session();
    s.run(mlbox::programs::EVAL_POLY).expect("evalPoly");
    s.run(mlbox::programs::COMP_POLY).expect("compPoly");
    s.run("val f = eval (compPoly polyl)").expect("generate");
    let (v, first) = s.call("f", ccam::Value::Int(47)).expect("call");
    for _ in 0..PROMOTE_AFTER {
        let (again, stats) = s.call("f", ccam::Value::Int(47)).expect("call");
        assert_eq!(
            (again.to_string(), stats.steps),
            (v.to_string(), first.steps)
        );
    }
    let ccam::Value::Closure(c) = s.eval_expr("f").expect("f").raw else {
        panic!("f is a closure");
    };
    let size = |c: std::collections::BTreeMap<&str, usize>| c.values().sum::<usize>();
    let cold = size(census(&c.body.seg, c.body.block));
    let promoted = size(promoted_census(&c.body.seg, c.body.block));
    println!("§4.2 peephole in promotion (compPoly polyl; polyl has a 0 coefficient)");
    println!(
        "  specialized f: cold {cold} instructions, promoted {promoted}, call {} steps in both",
        first.steps
    );

    let filter = mlbox_bpf::filters::telnet_filter();
    let telnet = PacketGen::new(2027).telnet(16);
    let mut h = paper_harness(&filter);
    h.specialize().expect("gen");
    let (_, sp) = h.specialized(&telnet).expect("run");
    for _ in 0..PROMOTE_AFTER {
        assert_eq!(h.specialized(&telnet).expect("run").1, sp);
    }
    let seg = h.session_mut().code_segment().clone();
    let (cold, promoted) = (0..seg.num_blocks() as u32)
        .filter_map(|b| {
            let to = seg.promoted(ccam::BlockId(b))?;
            let len = |b| seg.block_bounds(b).map_or(0, |(_, len)| len);
            Some((len(ccam::BlockId(b)), len(to)))
        })
        .fold((0, 0), |(c, p), (lc, lp)| (c + lc, p + lp));
    println!(
        "  telnet filter session: promoted blocks hold {cold} cold instructions, \
         their renderings {promoted}; specialized call {sp} steps in both\n"
    );
}

/// The Table 1 reproduction: packet-filter rows measured through the BPF
/// harness, polynomial rows via the §3.1 programs. With `json`, the rows
/// are emitted as a JSON object that additionally carries the flat-env
/// steps (as the `steps_indexed` column and the `rows_flat_env` section)
/// and the harness session's tier-controller and freeze-cache counters.
fn table1(json: bool) {
    let (rows, stats) = table1_rows(&SessionOptions::paper());

    if json {
        let (flat_rows, _) = table1_rows(&SessionOptions::default());
        let dispatch = mlbox_bench::dispatch_throughput(2_000).expect("dispatch");
        println!(
            "{}",
            mlbox_bench::render_json(
                "Table 1: Reduction steps on the CCAM for various functions in the text",
                &rows,
                &flat_rows,
                &stats,
                &dispatch,
            )
        );
        return;
    }
    println!(
        "{}",
        render_table(
            "Table 1: Reduction steps on the CCAM for various functions in the text",
            &rows
        )
    );
    let (interp_steps, run_steps_n) = (rows[0].steps, rows[3].steps);
    let (interp_per_call, staged_per_call) = (rows[4].steps, rows[9].steps);
    println!(
        "shape checks: bevalpf nth / evalpf = {:.2}x cheaper (paper {:.2}x); \
         mlPolyFun / evalPoly = {:.2}x cheaper (paper {:.2}x)\n",
        interp_steps as f64 / run_steps_n as f64,
        9163.0 / 1104.0,
        interp_per_call as f64 / staged_per_call as f64,
        807.0 / 74.0,
    );
}

/// Polynomial-degree sweep: one-time and per-call costs as the degree
/// grows (all three §3.1 strategies).
fn sweep_poly() {
    println!("Polynomial degree sweep (base 47, random coefficients, seed 7)");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "degree", "interp/call", "spec build", "spec/call", "gen(once)", "staged/call", "breakeven"
    );
    for degree in [0usize, 1, 2, 3, 5, 8, 12, 16, 24, 32, 48, 64] {
        let poly = poly_literal(degree, 7);
        let c = poly_costs(&poly, 47).expect("poly costs");
        let be = break_even(
            c.comp_build + c.generate,
            c.interp_per_call,
            c.staged_per_call,
        )
        .map(|n| n.to_string())
        .unwrap_or_else(|| "never".into());
        println!(
            "{:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
            degree,
            c.interp_per_call,
            c.spec_build,
            c.spec_per_call,
            c.comp_build + c.generate,
            c.staged_per_call,
            be
        );
    }
    println!();
}

/// Filter-length sweep: interpretation cost grows with program length;
/// specialized cost stays flat (per reached instruction).
fn sweep_filter() {
    println!("Filter length sweep (chain filters, one ldb + n fall-through tests)");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>10}",
        "length", "interp/pkt", "gen(once)", "staged/pkt", "breakeven"
    );
    for n in [0usize, 2, 4, 8, 16, 32, 64] {
        let filter = chain_filter(n);
        let mut h = paper_harness(&filter);
        let pkt = mlbox_bpf::packet::Packet {
            bytes: vec![42, 0, 0, 0],
            kind: mlbox_bpf::packet::PacketKind::Arp,
        };
        let (_, interp) = h.interp(&pkt).expect("interp");
        let gen = h.specialize().expect("gen");
        let (_, staged) = h.specialized(&pkt).expect("staged");
        let be = break_even(gen.steps, interp, staged)
            .map(|x| x.to_string())
            .unwrap_or_else(|| "never".into());
        println!(
            "{:>8} {:>12} {:>12} {:>12} {:>10}",
            filter.len(),
            interp,
            gen.steps,
            staged,
            be
        );
    }
    println!();
}

/// Amortization crossover for the telnet filter: total steps of
/// interpreting n packets vs generating once + running specialized code
/// n times.
fn crossover() {
    let filter = telnet_filter();
    let mut h = paper_harness(&filter);
    let mut packets = PacketGen::new(2026);
    let telnet = packets.telnet(32);
    let (_, interp) = h.interp(&telnet).expect("interp");
    let gen = h.specialize().expect("gen");
    let (_, staged) = h.specialized(&telnet).expect("staged");
    println!("Amortization (telnet filter, telnet packets)");
    println!(
        "  interpreted: {interp} steps/packet; generation: {} steps once; specialized: {staged} steps/packet",
        gen.steps
    );
    println!(
        "{:>10} {:>14} {:>14} {:>8}",
        "packets", "interp total", "staged total", "winner"
    );
    for n in [1u64, 2, 3, 5, 10, 30, 100, 1000] {
        let it = interp * n;
        let st = gen.steps + staged * n;
        println!(
            "{:>10} {:>14} {:>14} {:>8}",
            n,
            it,
            st,
            if st < it { "staged" } else { "interp" }
        );
    }
    match break_even(gen.steps, interp, staged) {
        Some(n) => println!("  break-even at {n} packet(s)\n"),
        None => println!("  staged never wins\n"),
    }
}

/// Memoization (E4): memoPower1 hit/miss, memoPower2 sharing, and the
/// memoizing staged packet-filter generator.
fn memo() {
    let mut s = paper_session();
    s.run(mlbox::programs::CODE_POWER).expect("codePower");
    s.run(mlbox::programs::MEMO_POWER1).expect("memoPower1");
    let miss = s.eval_expr("memoPower1 16 2").expect("miss");
    let hit = s.eval_expr("memoPower1 16 2").expect("hit");
    println!(
        "memoPower1 16: miss {} steps ({} emitted), hit {} steps ({} emitted)",
        miss.stats.steps, miss.stats.emitted, hit.stats.steps, hit.stats.emitted
    );

    let mut s2 = paper_session();
    s2.run(mlbox::programs::MEMO_POWER2).expect("memoPower2");
    let first = s2.eval_expr("memoPower2 60 2").expect("60");
    let shared = s2.eval_expr("memoPower2 34 2").expect("34");
    let mut s3 = paper_session();
    s3.run(mlbox::programs::MEMO_POWER2).expect("memoPower2");
    let cold = s3.eval_expr("memoPower2 34 2").expect("34 cold");
    println!(
        "memoPower2: 2^60 first {} steps; then 2^34 {} steps (vs {} cold) — generating extensions shared",
        first.stats.steps, shared.stats.steps, cold.stats.steps
    );

    let filter = telnet_filter();
    let mut h1 = paper_harness(&filter);
    let plain = h1.specialize().expect("plain");
    let mut h2 = paper_harness(&filter);
    let memo = h2.specialize_memo().expect("memo");
    println!(
        "bevalpf generation: plain {} steps / {} emitted; per-pc memoized {} steps / {} emitted\n",
        plain.steps, plain.emitted, memo.steps, memo.emitted
    );
}
