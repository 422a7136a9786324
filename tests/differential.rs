//! Differential testing: the compiled CCAM must agree with the reference
//! λ□ interpreter on every observable value. A fixed corpus covers each
//! construct; property-based tests then sweep randomly generated
//! programs, both unstaged and staged.

use mlbox::differential::{run_both, run_both_full};
use mlbox::EnvMode;
use proptest::prelude::*;

/// Renders an integer in SML concrete syntax (`~` for negation).
fn ml_int(n: i64) -> String {
    if n < 0 {
        format!("~{}", -n)
    } else {
        n.to_string()
    }
}

/// Asserts machine/interpreter agreement across the full 2×2
/// execution-mode matrix — environment access (pair spine vs flat
/// frames) × tiering (never promoting, the Paper reference, vs every
/// block promoted at its first activation) — that all four compiled runs
/// observe identical values and output, and that promotion leaves each
/// mode's step count at Paper's. Returns the shared rendering.
fn assert_agree_both_modes(src: &str) -> String {
    let mut baseline: Option<(String, String)> = None;
    for mode in [EnvMode::PairSpine, EnvMode::Flat] {
        let mut paper_steps = None;
        for promote_after in [u64::MAX, 0] {
            let r = run_both_full(src, true, mode, promote_after).unwrap();
            assert!(
                r.agree(),
                "{mode:?}/{promote_after} disagreement on:\n{src}\n machine: {} (out {:?})\n interp:  {} (out {:?})",
                r.machine,
                r.machine_output,
                r.interp,
                r.interp_output
            );
            match paper_steps {
                None => paper_steps = Some(r.machine_steps),
                Some(steps) => assert_eq!(
                    steps, r.machine_steps,
                    "promotion changed the step count ({mode:?}) on:\n{src}"
                ),
            }
            match &baseline {
                None => baseline = Some((r.machine, r.machine_output)),
                Some((v, o)) => assert_eq!(
                    (v, o),
                    (&r.machine, &r.machine_output),
                    "execution modes disagree ({mode:?}, {promote_after}) on:\n{src}"
                ),
            }
        }
    }
    baseline.unwrap().0
}

#[test]
fn corpus_agrees() {
    for src in [
        // Arithmetic, comparison, branching.
        "1 + 2 * 3 - 4 div 2",
        "if 3 < 5 then ~1 else 1",
        "band (12, 10) + (7 mod 3)",
        // SML floor division: div rounds toward negative infinity, mod
        // takes the divisor's sign.
        "(~7 div 2, ~7 mod 2)",
        "(7 div ~2, 7 mod ~2)",
        "(~7 div ~2, ~7 mod ~2)",
        "eval (code (fn x => (x div ~3, x mod ~3))) ~10",
        // Functions and currying.
        "(fn x => fn y => x * 10 + y) 4 2",
        "let val f = fn (a, b) => a - b in f (10, 3) end",
        // Recursion.
        "fun fact n = if n = 0 then 1 else n * fact (n - 1);\nfact 8",
        "fun even n = if n = 0 then true else odd (n - 1)\nand odd n = if n = 0 then false else even (n - 1);\neven 9",
        // Data.
        "map (fn x => x + 1) (rev [1, 2, 3])",
        "datatype t = A | B of int * int\nfun f x = case x of A => 0 | B (a, b) => a * b;\nf (B (6, 7))",
        "case SOME (1, 2) of NONE => 0 | SOME (a, b) => a + b",
        // Effects.
        "val r = ref 1\nval u = (r := !r * 5);\n!r",
        "val a = array (3, 9)\nval u = update (a, 1, 4);\nsub (a, 0) + sub (a, 1)",
        "print \"out\"; size \"four\"",
        // Staging.
        "eval (lift (3 * 3))",
        "eval (code (fn x => x + 1)) 41",
        "let cogen k = lift 5 in eval (code (fn x => x * k)) end 9",
        // A `let` (a flat-env `env_cons`) inside an operand of a
        // foldable `0 - _`.
        "let cogen z = lift 0 in eval (code (fn v => z - (let val w = v + 1 in w * 1 end))) end 16",
        "fun cp p = case p of nil => code (fn x => 0) | a :: r => let cogen f = cp r cogen a' = lift a in code (fn x => a' + (x * f x)) end;\neval (cp [3, 1, 4]) 10",
        // Multi-stage.
        "val g = code (fn a => let cogen a' = lift a in code (fn b => a' - b) end);\neval (eval g 50) 8",
        // Generators with effects at generation time.
        "val r = ref 0\nfun g u = (r := !r + 1; code (fn x => x))\nval h = eval (g ());\n(h 5, !r)",
    ] {
        assert_agree_both_modes(src);
    }
}

#[test]
fn fuel_exhaustion_parity_across_all_modes() {
    // Fuel is charged in pair-spine units (`acc n` costs n+1, `env_cons`
    // one cons), so a budget must exhaust at exactly the same point in
    // both environment modes — flat environments can't smuggle extra
    // work past a limit, nor make a budget spuriously tighter. (Promoted
    // code aborts at the Paper point too: the same program is in the
    // corpus of `mlbox::differential`'s
    // `adaptive_column_matches_paper_at_every_threshold`, whose fuel
    // sweeps compare promoted against never-promoting runs in both
    // modes.)
    use mlbox::{Session, SessionOptions};
    let prog = "fun cp e = if e = 0 then code (fn b => 1)\n\
                else let cogen p = cp (e - 1) in code (fn b => b * (p b)) end;\n\
                eval (cp 6) 2";
    let opts = |flat: bool| SessionOptions {
        flat_env: flat,
        ..Default::default()
    };
    let runs_with = |o: &SessionOptions, fuel: u64| -> bool {
        let mut o = o.clone();
        o.fuel = Some(fuel);
        match Session::with_options(o) {
            Ok(mut s) => s.run(prog).is_ok(),
            // The prelude itself ran out of fuel.
            Err(_) => false,
        }
    };
    // Bisect the default mode's minimal sufficient budget...
    let base = opts(false);
    let (mut lo, mut hi) = (1u64, 10_000_000u64);
    assert!(runs_with(&base, hi), "budget ceiling too small");
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if runs_with(&base, mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let minimal = lo;
    // ...and the flat mode must exhaust at exactly that point.
    let flat = opts(true);
    assert!(
        runs_with(&flat, minimal),
        "flat fails at the minimal budget {minimal}"
    );
    assert!(
        !runs_with(&flat, minimal - 1),
        "flat succeeds below the minimal budget {minimal}"
    );
}

#[test]
fn both_backends_reject_staging_violations() {
    let r = run_both("fn y => code (fn x => x + y)", true);
    assert!(r.is_err(), "staging violations are static errors");
}

// ---------------------------------------------------------------------
// Property-based differential testing
// ---------------------------------------------------------------------

/// A generator of closed integer expressions over one bound variable `v`.
fn int_expr(depth: u32) -> BoxedStrategy<String> {
    let leaf = prop_oneof![
        (-20i64..100).prop_map(|n| if n < 0 {
            format!("~{}", -n)
        } else {
            n.to_string()
        }),
        Just("v".to_string()),
    ];
    leaf.prop_recursive(depth, 64, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} + {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} - {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} * {b})")),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(c, a, b)| format!("(if {c} < {a} then {a} else {b})")),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| format!("(let val v = {a} in {b} end)")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("((fn v => {b}) {a})")),
        ]
    })
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_unstaged_programs_agree(body in int_expr(4), arg in -10i64..50) {
        let src = format!("(fn v => {body}) {}", ml_int(arg));
        assert_agree_both_modes(&src);
    }

    #[test]
    fn random_staged_programs_agree(body in int_expr(3), early in -10i64..50, late in -10i64..50) {
        // Stage the expression: `early` is lifted, `late` is the run-time
        // argument of the generated code.
        let src = format!(
            "let cogen e = lift {} in eval (code (fn v => {body} + e)) end {}",
            ml_int(early),
            ml_int(late)
        );
        assert_agree_both_modes(&src);
    }

    #[test]
    fn random_generators_compose(a in int_expr(2), b in int_expr(2), arg in -5i64..30) {
        let src = format!(
            "val g1 = code (fn v => {a})\n\
             val g2 = code (fn v => {b})\n\
             val both = let cogen f = g1 cogen g = g2 in code (fn v => f (g v)) end;\n\
             eval both {}",
            ml_int(arg)
        );
        assert_agree_both_modes(&src);
    }

    #[test]
    fn random_list_programs_agree(items in proptest::collection::vec(-50i64..50, 0..8)) {
        let list = items
            .iter()
            .map(|n| if *n < 0 { format!("~{}", -n) } else { n.to_string() })
            .collect::<Vec<_>>()
            .join(", ");
        let src = format!(
            "fun sum xs = case xs of nil => 0 | a :: r => a + sum r;\n\
             (sum [{list}], listLength (rev [{list}]))"
        );
        assert_agree_both_modes(&src);
    }

    #[test]
    fn random_polynomials_staged_vs_interp(coeffs in proptest::collection::vec(0i64..100, 1..6), x in 0i64..20) {
        let list = coeffs
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let src = format!(
            "fun evalPoly (x, p) = case p of nil => 0 | a :: r => a + (x * evalPoly (x, r))\n\
             fun compPoly p = case p of nil => code (fn x => 0) | a :: r => \
               let cogen f = compPoly r cogen a' = lift a in code (fn x => a' + (x * f x)) end\n\
             val staged = eval (compPoly [{list}]);\n\
             (staged {x}, evalPoly ({x}, [{list}]))"
        );
        let result = assert_agree_both_modes(&src);
        // And the two components agree with each other.
        let inner = result.trim_start_matches('(').trim_end_matches(')');
        let (a, b) = inner.split_once(", ").expect("pair");
        assert_eq!(a, b, "staged vs interpreted polynomial");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_case_under_code_agrees(
        arms in proptest::collection::vec(-20i64..20, 1..4),
        pick in 0usize..4,
        arg in -10i64..10,
    ) {
        // Dispatch on a list inside generated code.
        let k = arms.get(pick).copied().unwrap_or(0);
        let src = format!(
            "val g = code (fn xs => case xs of nil => {} | a :: _ => a + 1);\n\
             (eval g [{}], eval g [])",
            ml_int(arms[0]),
            ml_int(k),
        );
        assert_agree_both_modes(&src);
        let _ = arg;
    }

    #[test]
    fn random_staged_recursion_agrees(n in 0i64..12, m in 0i64..12) {
        // Recursion at generation time (the codePower pattern).
        let src = format!(
            "fun cp e = if e = 0 then code (fn b => 1)\n\
                        else let cogen p = cp (e - 1) in code (fn b => b * (p b)) end;\n\
             (eval (cp {n}) 2, eval (cp {m}) 3)"
        );
        assert_agree_both_modes(&src);
    }

    #[test]
    fn random_branch_shapes_under_code_agree(c in -5i64..5, t in -20i64..20, f in -20i64..20) {
        let src = format!(
            "val g = code (fn x => if x < {} then {} else {});\n\
             (eval g 0, eval g ~10, eval g 10)",
            ml_int(c), ml_int(t), ml_int(f)
        );
        assert_agree_both_modes(&src);
    }

    #[test]
    fn negative_div_mod_agree_everywhere(
        a in -60i64..60,
        b in 1i64..10,
        negate in proptest::bool::ANY,
    ) {
        // Machine vs oracle, and — with both operands lifted so the §4.2
        // peephole constant-folds the division — promoted code vs plain.
        let d = if negate { -b } else { b };
        let src = format!(
            "let cogen a' = lift {} cogen b' = lift {} in eval (code (fn u => (a' div b', a' mod b'))) end 0",
            ml_int(a),
            ml_int(d)
        );
        assert_agree_both_modes(&src);
    }

    #[test]
    fn optimizer_agrees_with_interpreter_on_random_polys(
        coeffs in proptest::collection::vec(0i64..5, 1..5),
        x in 0i64..10,
    ) {
        // Promoted code, folded by the §4.2 peephole (small coefficients
        // exercise the 0/1 identity rules) and fused, must preserve the
        // interpreter's answers.
        let list = coeffs
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let src = format!(
            "fun evalPoly (x, p) = case p of nil => 0 | a :: r => a + (x * evalPoly (x, r))\n\
             fun compPoly p = case p of nil => code (fn x => 0) | a :: r => \
               let cogen f = compPoly r cogen a' = lift a in code (fn x => a' + (x * f x)) end;\n\
             (eval (compPoly [{list}]) {x}, evalPoly ({x}, [{list}]))"
        );
        for mode in [EnvMode::PairSpine, EnvMode::Flat] {
            let v = run_both_full(&src, true, mode, 0).unwrap().machine;
            let inner = v.trim_start_matches('(').trim_end_matches(')');
            let (a, b) = inner.split_once(", ").expect("pair");
            prop_assert_eq!(a, b, "promoted staged vs interpreted");
        }
    }
}
