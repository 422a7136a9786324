//! Shared measurement helpers for the Table 1 regeneration binary
//! (`table1`).
//!
//! The paper's metric is **CCAM reduction steps** (Table 1); the
//! `dispatch` rows additionally report wall-clock time of the simulator,
//! which tracks steps closely.

use mlbox::{Error, Session, SessionOptions};
use mlbox_bpf::filters::telnet_filter;
use mlbox_bpf::harness::FilterHarness;
use mlbox_bpf::packet::PacketGen;

/// A measurement row: a computation's label and its reduction steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// What was measured (the paper's "Computation" column).
    pub label: String,
    /// CCAM reduction steps (the Paper profile's pair-spine
    /// environments — the paper's cost model).
    pub steps: u64,
    /// Instructions emitted into arenas during the computation.
    pub emitted: u64,
    /// The paper's reported number, when the row reproduces one.
    pub paper: Option<u64>,
}

impl Row {
    /// A row with a paper reference number.
    pub fn with_paper(label: impl Into<String>, steps: u64, emitted: u64, paper: u64) -> Row {
        Row {
            label: label.into(),
            steps,
            emitted,
            paper: Some(paper),
        }
    }

    /// A row without a paper reference.
    pub fn new(label: impl Into<String>, steps: u64, emitted: u64) -> Row {
        Row {
            label: label.into(),
            steps,
            emitted,
            paper: None,
        }
    }
}

/// Renders rows as an aligned text table (Computation / Reductions /
/// Emitted / Paper).
pub fn render_table(title: &str, rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let label_w = rows
        .iter()
        .map(|r| r.label.len())
        .max()
        .unwrap_or(11)
        .max("Computation".len());
    out.push_str(&format!(
        "{:label_w$}  {:>10}  {:>8}  {:>10}\n",
        "Computation", "Reductions", "Emitted", "Paper"
    ));
    out.push_str(&format!(
        "{}  {}  {}  {}\n",
        "-".repeat(label_w),
        "-".repeat(10),
        "-".repeat(8),
        "-".repeat(10)
    ));
    for r in rows {
        let paper = r
            .paper
            .map(|p| p.to_string())
            .unwrap_or_else(|| "—".to_string());
        out.push_str(&format!(
            "{:label_w$}  {:>10}  {:>8}  {:>10}\n",
            r.label, r.steps, r.emitted, paper
        ));
    }
    out
}

/// Measures all ten Table 1 rows under the given session options,
/// returning the rows plus the packet-filter harness's cumulative machine
/// statistics (for the freeze-cache counters in the JSON output). The
/// numbers are deterministic — they are pinned by the golden lockfile in
/// `tests/golden/table1_steps.json`.
pub fn table1_rows(options: &SessionOptions) -> (Vec<Row>, ccam::machine::Stats) {
    let mut rows = Vec::new();

    // ---- Packet filter rows (E1) ----
    let filter = telnet_filter();
    let mut h = FilterHarness::with_options(&filter, options.clone()).expect("harness");
    let mut packets = PacketGen::new(1998);
    let telnet = packets.telnet(32);

    let (v, interp_steps) = h.interp(&telnet).expect("interp");
    assert!(v > 0, "telnet packet must be accepted");
    rows.push(Row::with_paper(
        "evalpf on first telnet packet",
        interp_steps,
        0,
        9163,
    ));
    let (_, interp_steps_n) = h.interp(&telnet).expect("interp");
    rows.push(Row::with_paper(
        "evalpf on nth telnet packet",
        interp_steps_n,
        0,
        9163,
    ));
    let gen_stats = h.specialize().expect("specialize");
    let (v, run_steps) = h.specialized(&telnet).expect("specialized");
    assert!(v > 0);
    rows.push(Row::with_paper(
        "bevalpf on first telnet packet",
        gen_stats.steps + run_steps,
        gen_stats.emitted,
        11984,
    ));
    let (_, run_steps_n) = h.specialized(&telnet).expect("specialized");
    rows.push(Row::with_paper(
        "bevalpf on nth telnet packet",
        run_steps_n,
        0,
        1104,
    ));

    // ---- Polynomial rows (E2, E3) ----
    let c = poly_costs_with("[2, 4, 0, 2333]", 47, options.clone()).expect("poly costs");
    rows.push(Row::with_paper(
        "evalPoly (47, polyl)",
        c.interp_per_call,
        0,
        807,
    ));
    rows.push(Row::with_paper("specPoly polyl", c.spec_build, 0, 443));
    rows.push(Row::with_paper("polylTarget 47", c.spec_per_call, 0, 175));
    rows.push(Row::with_paper("compPoly polyl", c.comp_build, 0, 553));
    rows.push(Row::with_paper("eval codeGenerator", c.generate, 0, 200));
    rows.push(Row::with_paper("mlPolyFun 47", c.staged_per_call, 0, 74));
    (rows, h.machine_stats())
}

/// Wall-clock dispatch throughput of one Table 1 filter workload.
#[derive(Debug, Clone)]
pub struct DispatchRow {
    /// What was measured.
    pub label: String,
    /// Total reduction steps executed over the batch.
    pub steps: u64,
    /// Wall-clock nanoseconds for the batch.
    pub nanos: u128,
}

impl DispatchRow {
    /// Reduction steps dispatched per second of wall-clock time.
    pub fn steps_per_sec(&self) -> f64 {
        self.steps as f64 * 1e9 / (self.nanos.max(1)) as f64
    }
}

/// Measures dispatch throughput (steps/sec) of the interpretive and
/// specialized telnet filter over `iters` packets each, in the Paper
/// profile — the wall-clock counterpart of the Table 1 step counts,
/// reported in `BENCH_table1.json`. Wall-clock numbers vary run to run;
/// only the step counts are golden.
///
/// # Errors
///
/// Propagates any pipeline error.
pub fn dispatch_throughput(iters: u64) -> Result<Vec<DispatchRow>, Error> {
    /// One filter run: returns (verdict, reduction steps).
    type FilterRun<'a> = &'a mut dyn FnMut(&mut FilterHarness) -> Result<(i64, u64), Error>;
    let mut h = FilterHarness::with_options(&telnet_filter(), SessionOptions::paper())?;
    let mut packets = PacketGen::new(1998);
    let telnet = packets.telnet(32);
    h.specialize()?;
    let mut measure = |label: &str, run: FilterRun| -> Result<DispatchRow, Error> {
        let mut steps = 0u64;
        let start = std::time::Instant::now();
        for _ in 0..iters {
            steps += run(&mut h)?.1;
        }
        Ok(DispatchRow {
            label: label.to_string(),
            steps,
            nanos: start.elapsed().as_nanos(),
        })
    };
    Ok(vec![
        measure("evalpf dispatch on telnet packets", &mut |h| {
            h.interp(&telnet)
        })?,
        measure("bevalpf specialized dispatch on telnet packets", &mut |h| {
            h.specialized(&telnet)
        })?,
    ])
}

/// Renders the Table 1 rows plus the machine's freeze-cache counters as
/// a JSON object (hand-rolled: the workspace carries no serialization
/// dependency). `machine` should be the cumulative [`Stats`] of the
/// session that produced the packet-filter rows, so `freezes` and
/// `freeze_hits` describe how often generated code was actually copied
/// out of an arena versus served from the cache. `flat` rows (the same
/// computations under `SessionOptions::flat_env`) fill each main row's
/// `steps_indexed` column — the name the lockfiles pin for `acc n`
/// access steps — and also render as their own `rows_flat_env` array
/// keyed `steps_flat_env`, whose lines deliberately do *not* carry
/// `steps_indexed`, keeping the two lockfile greps line-disjoint.
/// The tier controller's counters in `machine` render as the
/// `tier_controller` object, on a line of its own that neither lockfile
/// pins. `dispatch` rows (wall clock, non-golden) are appended when
/// non-empty.
///
/// [`Stats`]: ccam::machine::Stats
pub fn render_json(
    title: &str,
    rows: &[Row],
    flat: &[Row],
    machine: &ccam::machine::Stats,
    dispatch: &[DispatchRow],
) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n  \"title\": \"{}\",\n  \"rows\": [\n",
        esc(title)
    ));
    for (i, r) in rows.iter().enumerate() {
        let paper = r
            .paper
            .map(|p| p.to_string())
            .unwrap_or_else(|| "null".to_string());
        let indexed = flat
            .get(i)
            .map_or_else(|| "null".to_string(), |f| f.steps.to_string());
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"steps\": {}, \"steps_indexed\": {}, \"emitted\": {}, \"paper\": {}}}{}\n",
            esc(&r.label),
            r.steps,
            indexed,
            r.emitted,
            paper,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]");
    if !flat.is_empty() {
        out.push_str(",\n  \"rows_flat_env\": [\n");
        for (i, r) in flat.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"label\": \"{}\", \"steps_flat_env\": {}, \"emitted\": {}}}{}\n",
                esc(&r.label),
                r.steps,
                r.emitted,
                if i + 1 < flat.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]");
    }
    out.push_str(&format!(
        ",\n  \"tier_controller\": {{\"promotions\": {}, \"refreezes\": {}, \"tier_steps\": [{}, {}]}}",
        machine.promotions, machine.refreezes, machine.tier_steps[0], machine.tier_steps[1]
    ));
    out.push_str(&format!(
        ",\n  \"freeze_cache\": {{\"freezes\": {}, \"freeze_hits\": {}, \"calls\": {}, \"steps\": {}}}",
        machine.freezes, machine.freeze_hits, machine.calls, machine.steps
    ));
    if dispatch.is_empty() {
        out.push_str("\n}");
        return out;
    }
    out.push_str(",\n  \"dispatch\": [\n");
    for (i, d) in dispatch.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"steps\": {}, \"nanos\": {}, \"steps_per_sec\": {:.0}}}{}\n",
            esc(&d.label),
            d.steps,
            d.nanos,
            d.steps_per_sec(),
            if i + 1 < dispatch.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}");
    out
}

/// A session preloaded with the paper's interpretive polynomial program
/// (`evalPoly` and `polyl` — §3.1) under `options` (e.g. `flat_env`);
/// the staging declarations are *not* yet run so their cost can be
/// measured.
///
/// # Errors
///
/// Propagates any pipeline error.
pub fn poly_session_with(options: SessionOptions) -> Result<Session, Error> {
    let mut s = Session::with_options(options)?;
    s.run(mlbox::programs::EVAL_POLY)?;
    Ok(s)
}

/// Builds a polynomial of the given degree (degree+1 coefficients) as an
/// MLbox list literal, deterministic in `seed`.
pub fn poly_literal(degree: usize, seed: u64) -> String {
    // A simple LCG keeps this deterministic without threading an RNG.
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut items = Vec::with_capacity(degree + 1);
    for _ in 0..=degree {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        items.push(((state >> 33) % 1000).to_string());
    }
    format!("[{}]", items.join(", "))
}

/// Measured costs for the six §3.1 computations on one polynomial.
#[derive(Debug, Clone, Copy)]
pub struct PolyCosts {
    /// Steps to interpret `evalPoly (x, p)` once.
    pub interp_per_call: u64,
    /// Steps to run `specPoly p` (closure-building specialization).
    pub spec_build: u64,
    /// Steps per call of the `specPoly` result.
    pub spec_per_call: u64,
    /// Steps to run `compPoly p` (build the generating-extension chain).
    pub comp_build: u64,
    /// Steps for `eval codeGenerator` (code generation itself).
    pub generate: u64,
    /// Steps per call of the generated function.
    pub staged_per_call: u64,
}

/// Measures all six §3.1 computations for one polynomial, in the Paper
/// profile.
///
/// # Errors
///
/// Propagates any pipeline error.
pub fn poly_costs(poly: &str, base: i64) -> Result<PolyCosts, Error> {
    poly_costs_with(poly, base, SessionOptions::paper())
}

/// [`poly_costs`] with explicit session options (e.g. `flat_env`).
///
/// # Errors
///
/// Propagates any pipeline error.
pub fn poly_costs_with(poly: &str, base: i64, options: SessionOptions) -> Result<PolyCosts, Error> {
    let mut s = poly_session_with(options)?;
    s.run(&format!("val thePoly = {poly}"))?;
    let interp = s.eval_expr(&format!("evalPoly ({base}, thePoly)"))?;
    s.run(mlbox::programs::SPEC_POLY)?;
    let spec_build = s.run("val specF = specPoly thePoly")?;
    let spec_call = s.eval_expr(&format!("specF {base}"))?;
    s.run(mlbox::programs::COMP_POLY)?;
    let comp_build = s.run("val theGen = compPoly thePoly")?;
    let generate = s.run("val stagedF = eval theGen")?;
    let staged_call = s.eval_expr(&format!("stagedF {base}"))?;
    Ok(PolyCosts {
        interp_per_call: interp.stats.steps,
        spec_build: spec_build.last().expect("outcome").stats.steps,
        spec_per_call: spec_call.stats.steps,
        comp_build: comp_build.last().expect("outcome").stats.steps,
        generate: generate.last().expect("outcome").stats.steps,
        staged_per_call: staged_call.stats.steps,
    })
}

/// A deep-environment access workload: `depth` nested `let` bindings,
/// whose body sums the *outermost* and innermost variables — so one access
/// must walk the whole spine. In pair-spine mode that access costs
/// `depth` dispatches (`fst^depth; snd`); in flat mode it is a single
/// `acc` dispatch.
pub fn deep_env_program(depth: usize) -> String {
    assert!(depth >= 1, "need at least one binding");
    let mut s = String::from("let ");
    for i in 0..depth {
        if i == 0 {
            s.push_str("val v0 = 1\n");
        } else {
            s.push_str(&format!("val v{i} = v{} + 1\n", i - 1));
        }
    }
    s.push_str(&format!("in v0 + v{} end", depth - 1));
    s
}

/// Reduction steps to evaluate [`deep_env_program`] at the given depth
/// under the given session options (the prelude is always disabled so the
/// measured environment contains exactly the workload's bindings).
///
/// # Errors
///
/// Propagates any pipeline error.
pub fn deep_env_steps(depth: usize, options: &SessionOptions) -> Result<u64, Error> {
    let mut s = Session::with_options(SessionOptions {
        prelude: false,
        ..options.clone()
    })?;
    Ok(s.eval_expr(&deep_env_program(depth))?.stats.steps)
}

/// The two environment representations the deep-env sweep compares,
/// as `(column label, options)` pairs: the paper's pair spine and flat
/// `Vec`-backed frames.
pub fn deep_env_modes() -> [(&'static str, SessionOptions); 2] {
    let paper = SessionOptions {
        prelude: false,
        ..SessionOptions::paper()
    };
    [
        ("spine", paper.clone()),
        (
            "flat",
            SessionOptions {
                flat_env: true,
                ..paper
            },
        ),
    ]
}

/// Renders the deep-environment sweep as JSON (the `BENCH_deep_env.json`
/// CI artifact): one row per depth carrying the step counts of both
/// environment representations (`steps`, `steps_flat_env`). Step counts
/// are deterministic.
///
/// # Errors
///
/// Propagates any pipeline error.
pub fn deep_env_json(depths: &[usize]) -> Result<String, Error> {
    let modes = deep_env_modes();
    let mut out = String::from(
        "{\n  \"title\": \"Deep-environment access: pair spine vs flat frames\",\n  \"rows\": [\n",
    );
    for (i, &depth) in depths.iter().enumerate() {
        let spine = deep_env_steps(depth, &modes[0].1)?;
        let flat = deep_env_steps(depth, &modes[1].1)?;
        out.push_str(&format!(
            "    {{\"depth\": {depth}, \"steps\": {spine}, \"steps_flat_env\": {flat}}}{}\n",
            if i + 1 < depths.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}");
    Ok(out)
}

/// The break-even point: how many uses amortize a one-time cost, given
/// per-use savings. `None` when the specialized path is not cheaper.
pub fn break_even(one_time: u64, per_use_before: u64, per_use_after: u64) -> Option<u64> {
    let saving = per_use_before.checked_sub(per_use_after)?;
    if saving == 0 {
        return None;
    }
    Some(one_time.div_ceil(saving))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let rows = vec![
            Row::with_paper("evalPoly (47, polyl)", 807, 0, 807),
            Row::new("extra", 1, 2),
        ];
        let t = render_table("Table 1", &rows);
        assert!(t.contains("Computation"));
        assert!(t.contains("807"));
        assert!(t.contains('—'));
    }

    #[test]
    fn json_rendering_includes_freeze_cache_counters() {
        let rows = vec![
            Row::with_paper("evalpf \"quoted\"", 10, 0, 9163),
            Row::new("extra", 1, 2),
        ];
        let stats = ccam::machine::Stats {
            freezes: 3,
            freeze_hits: 7,
            calls: 10,
            steps: 123,
            ..Default::default()
        };
        let j = render_json("Table 1", &rows, &[], &stats, &[]);
        assert!(j.contains("\"freezes\": 3"), "{j}");
        assert!(j.contains("\"freeze_hits\": 7"), "{j}");
        assert!(j.contains("\"paper\": null"), "{j}");
        assert!(j.contains("evalpf \\\"quoted\\\""), "{j}");
        assert!(!j.contains("dispatch"), "empty dispatch is omitted: {j}");
        assert!(!j.contains("rows_flat_env"), "empty flat is omitted: {j}");
        let d = DispatchRow {
            label: "d".into(),
            steps: 2_000,
            nanos: 1_000_000,
        };
        let j = render_json("Table 1", &rows, &[], &stats, &[d]);
        assert!(j.contains("\"steps_per_sec\": 2000000"), "{j}");
    }

    #[test]
    fn poly_literal_is_deterministic_and_sized() {
        let a = poly_literal(5, 9);
        let b = poly_literal(5, 9);
        assert_eq!(a, b);
        assert_eq!(a.matches(',').count(), 5);
    }

    #[test]
    fn poly_costs_have_the_papers_shape() {
        let c = poly_costs("[2, 4, 0, 2333]", 47).unwrap();
        // Table 1 shape: staged per-call ≪ spec per-call < interpreted.
        assert!(c.staged_per_call < c.spec_per_call, "{c:?}");
        assert!(c.spec_per_call < c.interp_per_call, "{c:?}");
        assert!(c.generate > 0 && c.comp_build > 0 && c.spec_build > 0);
    }

    #[test]
    fn json_rendering_includes_indexed_comparison() {
        // The `steps_indexed` column carries the flat rows' steps.
        let rows = vec![Row::with_paper("r", 100, 0, 90)];
        let flat = vec![Row::new("r", 60, 0)];
        let stats = ccam::machine::Stats::default();
        let j = render_json("t", &rows, &flat, &stats, &[]);
        assert!(j.contains("\"steps\": 100, \"steps_indexed\": 60"), "{j}");
    }

    #[test]
    fn json_mode_rows_never_share_lines_with_the_default_columns() {
        // The CI golden diff greps `"steps_indexed"|"freeze_cache"` for
        // the default pin and `"steps_flat_env"` for the flat pin: the
        // line sets must be disjoint so each lockfile diff sees only its
        // own column, and the tier controller's counters must stay out
        // of both.
        let rows = vec![Row::with_paper("r", 100, 0, 90)];
        let flat = vec![Row::new("r", 60, 0)];
        let stats = ccam::machine::Stats::default();
        let j = render_json("t", &rows, &flat, &stats, &[]);
        assert!(j.contains("\"rows_flat_env\""), "{j}");
        assert!(j.contains("\"tier_controller\""), "{j}");
        for line in j.lines() {
            if line.contains("\"steps_flat_env\"") {
                assert!(!line.contains("\"steps_indexed\""), "{line}");
                assert!(!line.contains("\"freeze_cache\""), "{line}");
                assert_eq!(
                    line.trim().trim_end_matches(','),
                    "{\"label\": \"r\", \"steps_flat_env\": 60, \"emitted\": 0}"
                );
            }
            if line.contains("\"tier_controller\"") {
                assert!(!line.contains("\"steps_indexed\""), "{line}");
                assert!(!line.contains("\"steps_flat_env\""), "{line}");
                assert!(!line.contains("\"freeze_cache\""), "{line}");
            }
        }
    }

    #[test]
    fn deep_env_microbench_favors_flat_mode() {
        let [(_, spine_opts), (_, flat_opts)] = deep_env_modes();
        let depth = 48;
        let spine = deep_env_steps(depth, &spine_opts).unwrap();
        let flat = deep_env_steps(depth, &flat_opts).unwrap();
        assert!(
            flat < spine,
            "flat mode must need fewer steps on deep environments \
             (flat {flat} vs spine {spine} at depth {depth})"
        );
        // The gap grows with depth: the deep access is O(depth) vs O(1).
        let spine_gap = deep_env_steps(2 * depth, &spine_opts).unwrap() - spine;
        let flat_gap = deep_env_steps(2 * depth, &flat_opts).unwrap() - flat;
        assert!(flat_gap < spine_gap, "{flat_gap} vs {spine_gap}");
    }

    /// An access-heavy variant of the deep-environment workload, packaged
    /// as a function so it compiles once and each call measures only
    /// environment accesses: `sweep` builds a `depth`-deep `let` nest over
    /// its argument and then reads the *outermost* binding `reads` times.
    fn deep_access_program(depth: usize, reads: usize) -> String {
        let mut s = String::from("fun sweep u = let val v0 = u\n");
        for i in 1..depth {
            s.push_str(&format!("val v{i} = v{} + 1\n", i - 1));
        }
        s.push_str("in ");
        s.push_str(&vec!["v0"; reads].join(" + "));
        s.push_str(" end");
        s
    }

    #[test]
    fn deep_access_program_agrees_across_modes_and_flat_saves_steps() {
        let src = deep_access_program(16, 8);
        let mut per_mode = Vec::new();
        for (name, opts) in deep_env_modes() {
            let mut s = Session::with_options(opts).unwrap();
            s.run(&src).unwrap();
            let (v, stats) = s.call("sweep", ccam::value::Value::Int(1)).unwrap();
            // depth-16 nest over u=1, eight reads of v0 (= u).
            assert_eq!(v.to_string(), "8", "{name}");
            per_mode.push((name, stats.steps));
        }
        let (spine, flat) = (per_mode[0].1, per_mode[1].1);
        assert!(
            flat < spine,
            "per-call sweep must cost fewer dispatches off the spine \
             (flat {flat} vs spine {spine})"
        );
    }

    #[test]
    fn deep_env_json_carries_all_three_columns() {
        let j = deep_env_json(&[4, 8]).unwrap();
        assert!(j.contains("\"depth\": 4"), "{j}");
        assert!(j.contains("\"steps\": "), "{j}");
        assert!(!j.contains("\"steps_indexed\""), "{j}");
        assert!(j.contains("\"steps_flat_env\": "), "{j}");
        assert_eq!(j.matches("\"depth\"").count(), 2, "{j}");
    }

    #[test]
    fn break_even_math() {
        assert_eq!(break_even(100, 30, 10), Some(5));
        assert_eq!(break_even(100, 10, 30), None);
        assert_eq!(break_even(100, 10, 10), None);
    }
}
