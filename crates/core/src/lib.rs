//! **MLbox** — typed run-time code generation for ML with modal types.
//!
//! A from-scratch Rust reproduction of *Run-time Code Generation and
//! Modal-ML* (Philip Wickline, Peter Lee, Frank Pfenning; PLDI 1998 /
//! CMU-CS-98-100): an SML dialect with the modal staging operators of λ□
//! (Davies–Pfenning), compiled to the **CCAM** — a Categorical Abstract
//! Machine extended with run-time code generation — so that staging
//! annotations become genuinely specialized machine code at run time.
//!
//! The language adds to core SML:
//!
//! - the type `A $` (the paper's `□A`): *generators* for code of type `A`;
//! - `code e` — build a generator for `e` (no free value variables may
//!   occur in `e`: the type checker enforces the staging discipline);
//! - `lift e` — evaluate `e` now, produce a generator that quotes it;
//! - `let cogen u = e in ... end` — bind a *code variable*; using `u` in
//!   ordinary position triggers code generation.
//!
//! # Quick start
//!
//! ```
//! use mlbox::Session;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut session = Session::new()?;
//!
//! // Stage the paper's polynomial evaluator (§3.1):
//! session.run(mlbox::programs::EVAL_POLY)?;
//! session.run(mlbox::programs::COMP_POLY)?;
//!
//! // The generated function computes the polynomial directly...
//! let staged = session.eval_expr("mlPolyFun 47")?;
//! // ...and takes far fewer CCAM reductions than interpreting the list:
//! let interp = session.eval_expr("evalPoly (47, polyl)")?;
//! assert_eq!(staged.value, interp.value);
//! assert!(staged.stats.steps * 2 < interp.stats.steps);
//! # Ok(())
//! # }
//! ```
//!
//! # Crate map
//!
//! | crate | role |
//! |---|---|
//! | [`mlbox_syntax`] | lexer, parser, surface AST |
//! | [`mlbox_ir`] | core IR, elaboration, pattern-match compilation |
//! | [`mlbox_types`] | modal Hindley–Milner type checker (Figure 2) |
//! | [`ccam`] | the abstract machine with `emit`/`lift`/`arena`/`merge`/`call` (Figure 3) |
//! | [`mlbox_compile`] | the two compilation relations (Figure 4) |
//! | [`mlbox_eval`] | reference staged interpreter (the semantics oracle) |
//! | `mlbox` (this crate) | the pipeline, prelude, and the paper's programs |

pub mod artifact;
pub mod differential;
pub mod error;
pub mod fingerprint;
pub mod prelude;
pub mod programs;
pub mod render;
pub mod session;
pub mod wire;

pub use artifact::{CompiledFilter, FilterInstance};
pub use ccam::machine::TierPolicy;
pub use error::Error;
pub use mlbox_compile::ctx::EnvMode;
pub use render::{render_eval, render_machine};
pub use session::{Checked, ExecFlags, ExecProfile, Outcome, Session, SessionOptions};

/// Runs `f` on a thread with a large stack (the reference interpreter and
/// the compiler recurse on the Rust stack; deeply staged or deeply nested
/// programs need more than the default).
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn with_big_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(256 * 1024 * 1024)
            .spawn_scoped(scope, f)
            .expect("spawn big-stack thread")
            .join()
            .expect("big-stack thread panicked")
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn with_big_stack_runs_deep_recursion() {
        fn depth(n: u64) -> u64 {
            if n == 0 {
                0
            } else {
                1 + depth(n - 1)
            }
        }
        let d = super::with_big_stack(|| depth(1_000_000));
        assert_eq!(d, 1_000_000);
    }
}
