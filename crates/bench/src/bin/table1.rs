//! Regenerates the paper's **Table 1** ("Reduction steps on the CCAM for
//! various functions in the text") and the extension sweeps.
//!
//! Usage:
//!
//! ```text
//! table1             # the Table 1 reproduction
//! table1 --json      # the same rows as JSON, plus an indexed-env
//!                    # comparison column, fused-mode, flat-env, and
//!                    # tiered sections (rows_fused, rows_flat_env,
//!                    # rows_tiered), and freeze-cache counters
//! table1 --profile-pairs # dynamic opcode-pair histogram of the Table 1
//!                    # workloads (the superinstruction selection data)
//! table1 sweep-poly  # polynomial-degree sweep (E6)
//! table1 sweep-filter# filter-length sweep (E6)
//! table1 crossover   # amortization break-even analysis (E6)
//! table1 memo        # memoization measurements (E4)
//! table1 deep-env    # pair-spine vs indexed vs flat access on deep
//!                    # environments (--json: the BENCH_deep_env rows)
//! table1 all         # everything
//! ```
//!
//! Absolute numbers differ from the paper (our CCAM's extension
//! instruction inventory is a reconstruction — DESIGN.md §3.1); the
//! *shape* of the results is asserted in `tests/` and recorded in
//! EXPERIMENTS.md.

use mlbox::SessionOptions;
use mlbox_bench::{
    break_even, deep_env_steps, poly_costs, poly_literal, render_table, table1_rows, Row,
};
use mlbox_bpf::filters::{chain_filter, telnet_filter};
use mlbox_bpf::harness::FilterHarness;
use mlbox_bpf::packet::PacketGen;

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
    let mut s = mlbox::Session::new().expect("session");
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
    let mut s = mlbox::Session::new().expect("session");
    s.set_profile_pairs(true);
    s.run(mlbox::programs::EVAL_POLY).expect("evalPoly");
    s.run(mlbox::programs::COMP_POLY).expect("compPoly");
    s.eval_expr("evalPoly (47, polyl)").expect("interp");
    s.run("val f = eval (compPoly polyl)").expect("generate");
    s.eval_expr("f 47").expect("staged call");
    merge(s.pair_profile());

    // Telnet filter workloads: interpret, specialize, run specialized.
    let mut h = FilterHarness::new(&telnet_filter()).expect("harness");
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
/// `let` nest under the default pair-spine accesses, `indexed_env`, and
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
    let [(_, spine_opts), (_, indexed_opts), (_, flat_opts)] = mlbox_bench::deep_env_modes();
    println!("Deep-environment access (nested lets, one walk to the outermost binding)");
    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "depth", "spine", "indexed", "flat"
    );
    for depth in DEPTHS {
        let spine = deep_env_steps(depth, &spine_opts).expect("spine run");
        let indexed = deep_env_steps(depth, &indexed_opts).expect("indexed run");
        let flat = deep_env_steps(depth, &flat_opts).expect("flat run");
        println!("{depth:>8} {spine:>12} {indexed:>12} {flat:>12}");
    }
    println!();
}

/// §4.2 ablation: the emission-time optimizer ("a more sophisticated
/// specialization system might ... eliminate the instruction altogether
/// if either \[operand\] is 0") on the Table 1 workloads.
fn optimize_ablation() {
    use mlbox::{Session, SessionOptions};
    let measure = |optimize: bool| {
        let mut s = Session::with_options(SessionOptions {
            optimize,
            ..Default::default()
        })
        .expect("session");
        s.run(mlbox::programs::EVAL_POLY).expect("evalPoly");
        s.run(mlbox::programs::COMP_POLY).expect("compPoly");
        let gen = s.run("val f = eval (compPoly polyl)").expect("generate");
        let call = s.eval_expr("f 47").expect("call");
        (
            gen.last().expect("outcome").stats.steps,
            call.stats.steps,
            call.value.clone(),
        )
    };
    let (gen_plain, call_plain, v1) = measure(false);
    let (gen_opt, call_opt, v2) = measure(true);
    assert_eq!(v1, v2);
    println!("Emission-time optimizer ablation (compPoly polyl; polyl has a 0 coefficient)");
    println!("  plain:     generate {gen_plain:>5} steps, specialized call {call_plain:>4} steps");
    println!("  optimized: generate {gen_opt:>5} steps, specialized call {call_opt:>4} steps");
    println!(
        "  per-call saving {:.0}% for {:.0}% extra generation work\n",
        100.0 * (call_plain - call_opt) as f64 / call_plain as f64,
        100.0 * (gen_opt as f64 - gen_plain as f64) / gen_plain as f64
    );

    let filter = mlbox_bpf::filters::telnet_filter();
    let mut packets = PacketGen::new(2027);
    let telnet = packets.telnet(16);
    let mut plain = FilterHarness::new(&filter).expect("harness");
    let mut opt = FilterHarness::with_options(
        &filter,
        SessionOptions {
            optimize: true,
            ..Default::default()
        },
    )
    .expect("harness");
    let gp = plain.specialize().expect("gen");
    let go = opt.specialize().expect("gen");
    let (_, sp) = plain.specialized(&telnet).expect("run");
    let (_, so) = opt.specialized(&telnet).expect("run");
    println!(
        "Telnet filter: plain gen {} / call {}; optimized gen {} / call {}\n",
        gp.steps, sp, go.steps, so
    );
}

/// The Table 1 reproduction: packet-filter rows measured through the BPF
/// harness, polynomial rows via the §3.1 programs. With `json`, the rows
/// are emitted as a JSON object that additionally carries an indexed-env
/// comparison column (`steps_indexed`) and the harness session's
/// freeze-cache counters.
fn table1(json: bool) {
    let (rows, stats) = table1_rows(&SessionOptions::default());

    if json {
        let (indexed_rows, _) = table1_rows(&SessionOptions {
            indexed_env: true,
            ..SessionOptions::default()
        });
        let rows: Vec<Row> = rows
            .into_iter()
            .zip(indexed_rows)
            .map(|(r, ir)| r.with_indexed(ir.steps))
            .collect();
        let fuse_options = SessionOptions {
            fuse: true,
            ..SessionOptions::default()
        };
        let (fused_rows, _) = table1_rows(&fuse_options);
        let (flat_rows, _) = table1_rows(&SessionOptions {
            flat_env: true,
            ..SessionOptions::default()
        });
        let (tiered_rows, tiered_stats) =
            mlbox_bench::table1_rows_tiered(mlbox::TierPolicy::default());
        let mut dispatch = mlbox_bench::dispatch_throughput(2_000).expect("dispatch");
        dispatch.extend(
            mlbox_bench::dispatch_throughput_with(2_000, &fuse_options).expect("fused dispatch"),
        );
        println!(
            "{}",
            mlbox_bench::render_json(
                "Table 1: Reduction steps on the CCAM for various functions in the text",
                &rows,
                &fused_rows,
                &flat_rows,
                &tiered_rows,
                &stats,
                Some(&tiered_stats),
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
        let mut h = FilterHarness::new(&filter).expect("harness");
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
    let mut h = FilterHarness::new(&filter).expect("harness");
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
    let mut s = mlbox::Session::new().expect("session");
    s.run(mlbox::programs::CODE_POWER).expect("codePower");
    s.run(mlbox::programs::MEMO_POWER1).expect("memoPower1");
    let miss = s.eval_expr("memoPower1 16 2").expect("miss");
    let hit = s.eval_expr("memoPower1 16 2").expect("hit");
    println!(
        "memoPower1 16: miss {} steps ({} emitted), hit {} steps ({} emitted)",
        miss.stats.steps, miss.stats.emitted, hit.stats.steps, hit.stats.emitted
    );

    let mut s2 = mlbox::Session::new().expect("session");
    s2.run(mlbox::programs::MEMO_POWER2).expect("memoPower2");
    let first = s2.eval_expr("memoPower2 60 2").expect("60");
    let shared = s2.eval_expr("memoPower2 34 2").expect("34");
    let mut s3 = mlbox::Session::new().expect("session");
    s3.run(mlbox::programs::MEMO_POWER2).expect("memoPower2");
    let cold = s3.eval_expr("memoPower2 34 2").expect("34 cold");
    println!(
        "memoPower2: 2^60 first {} steps; then 2^34 {} steps (vs {} cold) — generating extensions shared",
        first.stats.steps, shared.stats.steps, cold.stats.steps
    );

    let filter = telnet_filter();
    let mut h1 = FilterHarness::new(&filter).expect("harness");
    let plain = h1.specialize().expect("plain");
    let mut h2 = FilterHarness::new(&filter).expect("harness");
    let memo = h2.specialize_memo().expect("memo");
    println!(
        "bevalpf generation: plain {} steps / {} emitted; per-pc memoized {} steps / {} emitted\n",
        plain.steps, plain.emitted, memo.steps, memo.emitted
    );
}
