//! The paper's §3.1 worked example: three ways to evaluate a polynomial —
//! interpreted (`evalPoly`), specialized to closures (`specPoly`), and
//! specialized to *generated CCAM code* (`compPoly`).
//!
//! It runs the Paper profile, so its step counts are comparable with
//! Table 1's.
//!
//! Run with: `cargo run --example polynomial`

use mlbox::{programs, Session, SessionOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut s = Session::with_options(SessionOptions::paper())?;
    s.run(programs::EVAL_POLY)?;
    s.run(programs::SPEC_POLY)?;
    s.run(programs::COMP_POLY)?;

    println!("polynomial: 2 + 4x + 0x^2 + 2333x^3 at x = 47\n");

    let interp = s.eval_expr("evalPoly (47, polyl)")?;
    println!(
        "evalPoly (interpreting the list):   {} = {} steps",
        interp.value, interp.stats.steps
    );

    let spec = s.eval_expr("polylTarget 47")?;
    println!(
        "specPoly closures (source staging): {} = {} steps",
        spec.value, spec.stats.steps
    );

    let staged = s.eval_expr("mlPolyFun 47")?;
    println!(
        "compPoly generated code (RTCG):     {} = {} steps",
        staged.value, staged.stats.steps
    );

    assert_eq!(interp.value, spec.value);
    assert_eq!(interp.value, staged.value);

    println!("\nTable 1 shape (paper numbers: 807 / 175 / 74):");
    println!(
        "  interpretation is {:.1}x the cost of the generated code",
        interp.stats.steps as f64 / staged.stats.steps as f64
    );

    // The one-time costs.
    let mut s2 = Session::with_options(SessionOptions::paper())?;
    s2.run(programs::EVAL_POLY)?;
    s2.run(programs::SPEC_POLY)?;
    let outs = s2.run(programs::COMP_POLY)?;
    for o in outs {
        if let Some(name) = &o.name {
            if name == "codeGenerator" || name == "mlPolyFun" {
                println!(
                    "  one-time {name}: {} steps ({} emitted)",
                    o.stats.steps, o.stats.emitted
                );
            }
        }
    }
    Ok(())
}
