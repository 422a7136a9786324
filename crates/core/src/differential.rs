//! Differential testing support: run the same program through the CCAM
//! compiler *and* the reference λ□ interpreter and compare rendered
//! results. The compiled machine must agree with the staged big-step
//! semantics on every observable value — this is how the reconstructed
//! Figure 3/Figure 4 rules are validated (DESIGN.md §3).

use crate::error::Error;
use crate::prelude::PRELUDE;
use crate::render::{render_eval, render_machine};
use ccam::machine::{Machine, TierPolicy};
use ccam::value::Value;
use mlbox_compile::compile::compile_program_with;
use mlbox_compile::ctx::EnvMode;
use mlbox_eval::Interp;
use mlbox_ir::elab::Elab;
use mlbox_syntax::parser::parse_program;
use mlbox_types::check::{Checker, TypeCtx};

/// The two rendered results of a differential run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BothResults {
    /// Rendered result from the compiled CCAM run.
    pub machine: String,
    /// Rendered result from the reference interpreter.
    pub interp: String,
    /// `print` output from the machine.
    pub machine_output: String,
    /// `print` output from the interpreter.
    pub interp_output: String,
}

impl BothResults {
    /// Whether both back ends agree on value and output.
    pub fn agree(&self) -> bool {
        self.machine == self.interp && self.machine_output == self.interp_output
    }
}

/// Runs `src` (prefixed with the prelude when `with_prelude`) through
/// both back ends.
///
/// # Errors
///
/// Returns the first static error, or a dynamic error from either back
/// end. A dynamic error on *both* back ends is not distinguished here;
/// use the individual crates to compare failure behaviour.
pub fn run_both(src: &str, with_prelude: bool) -> Result<BothResults, Error> {
    run_both_with(src, with_prelude, EnvMode::default())
}

/// [`run_both`] with an explicit environment-access mode for the CCAM
/// side (the interpreter has no machine environment, so only the compiled
/// run is affected — agreement across modes is exactly what the
/// differential suite checks).
///
/// # Errors
///
/// As for [`run_both`].
pub fn run_both_with(src: &str, with_prelude: bool, mode: EnvMode) -> Result<BothResults, Error> {
    run_both_full(src, with_prelude, mode, false)
}

/// [`run_both_with`] with superinstruction fusion optionally enabled on
/// the CCAM side: with `fuse`, the compiled entry block is rewritten by
/// [`ccam::opt::fuse`] and the machine freezes generated code through
/// the fused slot, exactly as a fused [`Session`](crate::Session) would.
/// Together with [`EnvMode`] this spans the full 3×2 execution-mode
/// matrix the differential suite checks.
///
/// # Errors
///
/// As for [`run_both`].
pub fn run_both_full(
    src: &str,
    with_prelude: bool,
    mode: EnvMode,
    fuse: bool,
) -> Result<BothResults, Error> {
    let full = if with_prelude {
        format!("{PRELUDE};\n{src}")
    } else {
        src.to_string()
    };
    let program = parse_program(&full).map_err(|diag| Error::Static {
        diag,
        src: full.clone(),
    })?;
    let mut elab = Elab::new();
    let decls = elab.elab_program(&program).map_err(|diag| Error::Static {
        diag,
        src: full.clone(),
    })?;
    // Type check (so both runs are on well-typed programs only).
    let mut checker = Checker::new();
    for d in &decls {
        let tcx = TypeCtx {
            data: &elab.data,
            abbrevs: &elab.abbrevs,
        };
        checker.check_decl(d, tcx).map_err(|diag| Error::Static {
            diag,
            src: full.clone(),
        })?;
    }
    // CCAM.
    let mut code = compile_program_with(&decls, mode).map_err(|diag| Error::Static {
        diag,
        src: full.clone(),
    })?;
    let mut machine = Machine::new();
    if fuse {
        code.block = ccam::opt::fuse_block(&code.seg, code.block);
        machine.set_fuse(true);
    }
    let m_val = machine.run(code, Value::Unit)?;
    // Interpreter.
    let mut interp = Interp::new();
    let i_val = interp.eval_decls(&decls)?;
    Ok(BothResults {
        machine: render_machine(&m_val, &elab.data),
        interp: render_eval(&i_val, &elab.data),
        machine_output: machine.take_output(),
        interp_output: interp.take_output(),
    })
}

/// The `Adaptive` column of the differential suite (DESIGN.md §15):
/// compiles `src` once, runs it under a Paper-profile machine and under
/// an adaptive machine with `policy`, and asserts the verdict, `print`
/// output, and step count are byte-identical; then replays both under a
/// sweep of fuel budgets up to the full run, asserting the
/// fuel-exhaustion behavior (abort vs success, error value, and counted
/// steps at the abort point) agrees at every tested budget. Tier state
/// persists on the shared segment across the sweep, so parity is
/// checked before, during, and after promotion.
///
/// # Errors
///
/// Returns the first static error; dynamic disagreement panics with the
/// divergent pair (this is a test-suite primitive).
///
/// # Panics
///
/// Panics when any observable differs between the two profiles.
pub fn assert_adaptive_parity(
    src: &str,
    with_prelude: bool,
    mode: EnvMode,
    policy: TierPolicy,
) -> Result<(), Error> {
    let full = if with_prelude {
        format!("{PRELUDE};\n{src}")
    } else {
        src.to_string()
    };
    let program = parse_program(&full).map_err(|diag| Error::Static {
        diag,
        src: full.clone(),
    })?;
    let mut elab = Elab::new();
    let decls = elab.elab_program(&program).map_err(|diag| Error::Static {
        diag,
        src: full.clone(),
    })?;
    let code = compile_program_with(&decls, mode).map_err(|diag| Error::Static {
        diag,
        src: full.clone(),
    })?;
    // Step charges follow the cost model the compiler targeted.
    let spine_units = matches!(mode, EnvMode::PairSpine);
    let run = |fuel: Option<u64>, adaptive: bool| {
        let mut m = match fuel {
            Some(f) => Machine::with_fuel(f),
            None => Machine::new(),
        };
        if adaptive {
            m.set_tier_policy(Some(policy), spine_units);
        }
        let r = m.run(code.clone(), Value::Unit);
        let rendered = r.map(|v| render_machine(&v, &elab.data));
        (rendered, m.take_output(), m.stats())
    };
    let (v_paper, out_paper, s_paper) = run(None, false);
    let (v_ad, out_ad, s_ad) = run(None, true);
    assert_eq!(v_paper, v_ad, "verdict diverged on:\n{src}");
    assert_eq!(out_paper, out_ad, "output diverged on:\n{src}");
    assert_eq!(
        s_paper.steps, s_ad.steps,
        "step count diverged on:\n{src}\n paper: {s_paper:?}\n adaptive: {s_ad:?}"
    );
    // Fuel sweep: every budget for short runs, a boundary-heavy sample
    // for long ones (the interesting budgets are where a fused dispatch
    // straddles the limit, which the dense head and tail cover; the
    // strided middle keeps long preludes affordable).
    let total = s_paper.steps;
    let budgets: Vec<u64> = if total <= 256 {
        (0..total).collect()
    } else {
        let stride = ((total - 192) / 64).max(1) as usize;
        (0..128)
            .chain((128..total.saturating_sub(64)).step_by(stride))
            .chain(total.saturating_sub(64)..total)
            .collect()
    };
    for budget in budgets {
        let (v_p, out_p, s_p) = run(Some(budget), false);
        let (v_a, out_a, s_a) = run(Some(budget), true);
        assert_eq!(v_p, v_a, "budget {budget} verdict diverged on:\n{src}");
        assert_eq!(out_p, out_a, "budget {budget} output diverged on:\n{src}");
        assert_eq!(
            s_p.steps, s_a.steps,
            "budget {budget} abort point diverged on:\n{src}"
        );
    }
    Ok(())
}

/// Asserts both back ends agree; returns the shared rendering.
///
/// # Panics
///
/// Panics (with both renderings) when they disagree — used in tests.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn assert_agree(src: &str) -> Result<String, Error> {
    let r = run_both(src, true)?;
    assert!(
        r.agree(),
        "backend disagreement on:\n{src}\n machine: {} (out {:?})\n interp:  {} (out {:?})",
        r.machine,
        r.machine_output,
        r.interp,
        r.interp_output
    );
    Ok(r.machine)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backends_agree_on_basics() {
        for src in [
            "1 + 2 * 3",
            "let val x = 4 in x * x end",
            "map (fn x => x + 1) [1, 2, 3]",
            "eval (lift 42)",
            "eval (code (fn x => x * 3)) 5",
        ] {
            assert_agree(src).unwrap();
        }
    }

    #[test]
    fn backends_agree_on_staged_programs() {
        let src = "\
fun compPoly p =
  case p of nil => code (fn x => 0)
  | a :: r => let cogen f = compPoly r cogen a' = lift a
              in code (fn x => a' + (x * f x)) end;
eval (compPoly [1, 2, 3]) 10";
        assert_eq!(assert_agree(src).unwrap(), "321");
    }

    #[test]
    fn backends_agree_in_indexed_mode() {
        for src in [
            "let val x = 4 in x * x end",
            "eval (code (fn x => x * 3)) 5",
        ] {
            let r = run_both_with(src, true, EnvMode::Indexed).unwrap();
            assert!(r.agree(), "indexed-mode disagreement on {src}: {r:?}");
        }
    }

    #[test]
    fn backends_agree_in_fused_mode() {
        for src in [
            "let val x = 4 in x * x end",
            "eval (code (fn x => x * 3)) 5",
        ] {
            for mode in [EnvMode::PairSpine, EnvMode::Indexed, EnvMode::Flat] {
                let r = run_both_full(src, true, mode, true).unwrap();
                assert!(r.agree(), "fused {mode:?} disagreement on {src}: {r:?}");
            }
        }
    }

    #[test]
    fn backends_agree_in_flat_mode() {
        for src in [
            "let val x = 4 in x * x end",
            "eval (code (fn x => x * 3)) 5",
        ] {
            let r = run_both_with(src, true, EnvMode::Flat).unwrap();
            assert!(r.agree(), "flat-mode disagreement on {src}: {r:?}");
        }
    }

    #[test]
    fn backends_agree_on_effects() {
        assert_agree("val r = ref 0 val u = (r := !r + 5); !r * 2").unwrap();
        assert_agree("print \"x\"; print \"y\"; 0").unwrap();
    }

    /// Every program the suite checks, with and without staging, in
    /// every env mode, at every tested promotion threshold: the
    /// adaptive profile must be observationally identical to Paper —
    /// verdicts, output, step counts, and fuel aborts.
    #[test]
    fn adaptive_column_matches_paper_at_every_threshold() {
        let programs = [
            ("1 + 2 * 3", false),
            ("let val x = 4 in x * x end", false),
            ("val r = ref 0 val u = (r := !r + 5); !r * 2", false),
            ("print \"x\"; print \"y\"; 0", false),
            ("eval (lift 42)", true),
            ("eval (code (fn x => x * 3)) 5", true),
            (
                "fun compPoly p =
                   case p of nil => code (fn x => 0)
                   | a :: r => let cogen f = compPoly r cogen a' = lift a
                               in code (fn x => a' + (x * f x)) end;
                 eval (compPoly [1, 2, 3]) 10",
                true,
            ),
        ];
        for promote_after in [0, 1, 64] {
            let policy = TierPolicy {
                promote_after,
                ..TierPolicy::default()
            };
            for (src, with_prelude) in programs {
                for mode in [EnvMode::PairSpine, EnvMode::Indexed, EnvMode::Flat] {
                    assert_adaptive_parity(src, with_prelude, mode, policy).unwrap();
                }
            }
        }
    }
}
