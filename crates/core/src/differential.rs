//! Differential testing support: run the same program through the CCAM
//! compiler *and* the reference λ□ interpreter and compare rendered
//! results. The compiled machine must agree with the staged big-step
//! semantics on every observable value — this is how the reconstructed
//! Figure 3/Figure 4 rules are validated (DESIGN.md §3).

use crate::error::Error;
use crate::prelude::PRELUDE;
use crate::render::{render_eval, render_machine};
use ccam::machine::{Machine, PROMOTE_AFTER};
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
    /// Reduction steps of the compiled run.
    pub machine_steps: u64,
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
    run_both_full(src, with_prelude, mode, PROMOTE_AFTER)
}

/// [`run_both_with`] with the CCAM side's promotion threshold given
/// ([`Machine::set_promote_after`]): blocks activated more than
/// `promote_after` times run as folded and fused renderings that charge
/// Paper's steps. `0` promotes every executed block and `u64::MAX`
/// none, the Paper reference; across both with [`EnvMode`] this spans
/// the 2×2 execution-mode matrix the differential suite checks.
///
/// # Errors
///
/// As for [`run_both`].
pub fn run_both_full(
    src: &str,
    with_prelude: bool,
    mode: EnvMode,
    promote_after: u64,
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
    let code = compile_program_with(&decls, mode).map_err(|diag| Error::Static {
        diag,
        src: full.clone(),
    })?;
    let mut machine = Machine::new();
    machine.set_promote_after(promote_after);
    let m_val = machine.run(code, Value::Unit)?;
    // Interpreter.
    let mut interp = Interp::new();
    let i_val = interp.eval_decls(&decls)?;
    Ok(BothResults {
        machine: render_machine(&m_val, &elab.data),
        interp: render_eval(&i_val, &elab.data),
        machine_output: machine.take_output(),
        interp_output: interp.take_output(),
        machine_steps: machine.stats().steps,
    })
}

/// The tier column of the differential suite (DESIGN.md §15): compiles
/// `src` once, runs it on a machine that never promotes (the Paper
/// reference) and on one that promotes after `promote_after`
/// activations, and asserts the verdict, `print` output, and step count
/// are byte-identical; then replays both under a
/// sweep of fuel budgets up to the full run, asserting the
/// fuel-exhaustion behavior (abort vs success, error value, and counted
/// steps at the abort point) agrees at every tested budget. Tier state
/// persists on the shared segment across the sweep, so parity is
/// checked before, during, and after promotion; the reference runs cold
/// code throughout.
///
/// # Errors
///
/// Returns the first static error; dynamic disagreement panics with the
/// divergent pair (this is a test-suite primitive).
///
/// # Panics
///
/// Panics when any observable differs between the two machines.
pub fn assert_adaptive_parity(
    src: &str,
    with_prelude: bool,
    mode: EnvMode,
    promote_after: u64,
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
    let run = |fuel: Option<u64>, promoting: bool| {
        let mut m = match fuel {
            Some(f) => Machine::with_fuel(f),
            None => Machine::new(),
        };
        m.set_promote_after(if promoting { promote_after } else { u64::MAX });
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
        "step count diverged on:\n{src}\n paper: {s_paper:?}\n promoted: {s_ad:?}"
    );
    // Fuel sweep: every budget for short runs, a boundary-heavy sample
    // for long ones (the interesting budgets are where a folded or fused
    // dispatch straddles the limit, which the dense head and tail cover; the
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
    fn backends_agree_in_fused_mode() {
        // Fused code comes from promotion; `promote_after: 0` runs every
        // executed block fused.
        for src in [
            "let val x = 4 in x * x end",
            "eval (code (fn x => x * 3)) 5",
        ] {
            for mode in [EnvMode::PairSpine, EnvMode::Flat] {
                let r = run_both_full(src, true, mode, 0).unwrap();
                assert!(r.agree(), "fused {mode:?} disagreement on {src}: {r:?}");
                let paper = run_both_full(src, true, mode, u64::MAX).unwrap();
                assert_eq!(r.machine_steps, paper.machine_steps, "{mode:?} {src}");
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
    /// every env mode, at every tested promotion threshold: promoting
    /// must be observationally identical to never promoting — verdicts,
    /// output, step counts, and fuel aborts.
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
            // Folded renderings: a zero coefficient and the final `x * 0`
            // (identity and absorption), …
            (
                "fun compPoly p =
                   case p of nil => code (fn x => 0)
                   | a :: r => let cogen f = compPoly r cogen a' = lift a
                               in code (fn x => a' + (x * f x)) end;
                 eval (compPoly [2, 4, 0, 2333]) 47",
                true,
            ),
            // … a `0 +` whose operand ends in a call that prints, …
            (
                "let cogen z = lift 0 in eval (code (fn x => z + (fn y => (print \"a\"; y)) x)) end 5",
                true,
            ),
            // … a lifted constant deciding a branch, …
            (
                "let cogen b = lift (3 < 4) in eval (code (fn x => if b then x + 1 else x - 1)) end 9",
                true,
            ),
            // … and lifted divisors: 1 passes the dividend through, 0 is
            // not folded and traps at Paper's step.
            (
                "let cogen one = lift 1 in eval (code (fn x => (x div one, x mod one))) end 17",
                true,
            ),
            (
                "let cogen z = lift 0 cogen n = lift 7 in eval (code (fn x => x + n div z)) end 1",
                true,
            ),
            (
                "let cogen z = lift 0 in eval (code (fn x => x mod z)) end 5",
                true,
            ),
            // The staged power function whose minimal fuel budget
            // `fuel_exhaustion_parity_across_all_modes` bisects.
            (
                "fun cp e = if e = 0 then code (fn b => 1)
                   else let cogen p = cp (e - 1) in code (fn b => b * (p b)) end;
                 eval (cp 6) 2",
                true,
            ),
        ];
        for promote_after in [0, 1, 64, PROMOTE_AFTER] {
            for (src, with_prelude) in programs {
                for mode in [EnvMode::PairSpine, EnvMode::Flat] {
                    assert_adaptive_parity(src, with_prelude, mode, promote_after).unwrap();
                }
            }
        }
    }
}
