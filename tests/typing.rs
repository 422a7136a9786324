//! The modal typing discipline (Figure 2): staging errors are type
//! errors, □ types propagate correctly, and the value restriction holds.

use mlbox::{Session, SessionOptions};

fn infer(src: &str) -> Result<String, String> {
    let mut s = Session::new().map_err(|e| e.to_string())?;
    s.eval_expr(src).map(|o| o.ty).map_err(|e| e.to_string())
}

fn infer_decls(src: &str) -> Result<String, String> {
    let mut s = Session::new().map_err(|e| e.to_string())?;
    s.run(src)
        .map(|outs| outs.last().map(|o| o.ty.clone()).unwrap_or_default())
        .map_err(|e| e.to_string())
}

#[test]
fn box_types_render_with_dollar() {
    assert_eq!(infer("code (fn x => x + 1)").unwrap(), "(int -> int) $");
    assert_eq!(infer("lift 3").unwrap(), "int $");
    assert_eq!(infer("code (code true)").unwrap(), "bool $ $");
}

#[test]
fn staging_violation_value_variable_under_code() {
    // The paper's central design point: "A staging error becomes a type
    // error which can be analyzed and fixed."
    let err = infer("fn y => code (fn x => x + y)").unwrap_err();
    assert!(err.contains("earlier stage"), "{err}");
}

#[test]
fn lift_fixes_the_staging_violation() {
    assert_eq!(
        infer("fn y => let cogen y' = lift y in code (fn x => x + y') end").unwrap(),
        "int -> (int -> int) $"
    );
}

#[test]
fn code_variables_usable_under_code() {
    assert!(infer("fn c => let cogen f = c in code (fn x => f (x + 0)) end").is_ok());
}

#[test]
fn code_variable_not_a_value_variable() {
    // Using u where a generator is expected vs using the generator value:
    // `let cogen u = c in u end` has the *unboxed* type.
    let t = infer("fn c => let cogen u = c in u end").unwrap();
    assert!(t.contains("$ ->"), "{t}");
    assert!(!t.ends_with('$'), "{t}");
}

#[test]
fn let_cogen_requires_a_generator() {
    let err = infer("let cogen u = 3 in u end").unwrap_err();
    assert!(err.contains("mismatch"), "{err}");
}

#[test]
fn comp_poly_has_the_papers_type() {
    let t = infer_decls(
        mlbox::programs::COMP_POLY
            .split("val codeGenerator")
            .next()
            .unwrap(),
    )
    .unwrap();
    // val compPoly : poly -> (int -> int) $
    assert_eq!(t, "int list -> (int -> int) $");
}

#[test]
fn bevalpf_has_the_papers_type() {
    let mut s = Session::new().unwrap();
    let outs = s.run(mlbox_bpf::mlsrc::BPF_ML).unwrap();
    let bev = outs
        .iter()
        .find(|o| o.name.as_deref() == Some("bevalpf"))
        .expect("bevalpf bound");
    assert_eq!(
        bev.ty,
        "(instruction array * int) -> ((int * int * int array) -> int) $"
    );
}

#[test]
fn polymorphic_generators() {
    // composeGen : ('b -> 'c)$ * ('a -> 'b)$ -> ('a -> 'c)$  (monomorphic
    // rendering may pick concrete letters; check the shape).
    let mut s = Session::new().unwrap();
    let outs = s.run(mlbox::programs::COMPOSE_GEN).unwrap();
    let t = &outs.last().unwrap().ty;
    assert!(t.matches('$').count() == 3, "{t}");
}

#[test]
fn value_restriction_applies_to_cogen() {
    // An applied expression is not a value: its □-content stays mono.
    // (This only checks it still typechecks and runs.)
    let mut s = Session::new().unwrap();
    s.run("fun idGen u = code (fn x => x)").unwrap();
    assert!(s
        .run("val r = let cogen g = idGen () in (g 1, g 2) end")
        .is_ok());
}

#[test]
fn branches_and_arms_must_agree() {
    assert!(infer("if true then 1 else false").is_err());
    assert!(infer_decls("datatype t = A | B\nfun f x = case x of A => 1 | B => true").is_err());
}

#[test]
fn occurs_check_and_infinite_types() {
    let err = infer("fn x => x x").unwrap_err();
    assert!(err.contains("infinite"), "{err}");
}

#[test]
fn ascriptions_constrain() {
    assert!(infer("(fn x => x) : int -> int").is_ok());
    assert!(infer("(fn x => x + 1) : bool -> bool").is_err());
    assert!(infer("(code (fn x => x + 1)) : (int -> int) $").is_ok());
}

#[test]
fn typecheck_can_be_disabled() {
    // With the checker off, a staging violation is caught by the compiler
    // instead (defense in depth).
    let mut s = Session::with_options(SessionOptions {
        typecheck: false,
        ..Default::default()
    })
    .unwrap();
    let err = s.eval_expr("fn y => code (fn x => x + y)").unwrap_err();
    assert!(err.to_string().contains("earlier stage"), "{err}");
}

#[test]
fn error_rendering_points_at_source() {
    let mut s = Session::new().unwrap();
    let err = s.run("val bad = fn y => code (fn x => x + y)").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains('^'), "{msg}");
    assert!(msg.contains("code (fn x => x + y)"), "{msg}");
}

#[test]
fn metaocaml_one_liners_are_typed_statically() {
    // MetaOCaml's "simple one-liners" test (ber-metaocaml test/simple.ml)
    // rendered in MLbox: `.<e>.` is `code e`, `!.` is `eval`, and a splice
    // `.<fun x -> .~e>.` is `let cogen u = e in code (fn x => u) end` — the
    // escape runs first, at generation time, as it does in MetaOCaml.
    // Quoting a generation-time value (MetaOCaml's implicit cross-stage
    // persistence) is an explicit `lift`, and running code inside code
    // needs `eval` itself lifted in. A `code` body is typed in its own
    // context (Figure 2), so a generator never sees a variable bound
    // inside the code it builds: every escape that mentions the bracket's
    // `x` is refused before anything runs. MetaOCaml's type system
    // catches only `tr4`; `tr3` and the anonymous one fail at run time.
    let cases: [(&str, &str, Result<&str, &str>); 6] = [
        (
            "tr1 = .<fun x -> .~(!. .<.<1>.>.)>.",
            "let cogen u = eval (code (code 1)) in code (fn x => u) end",
            Ok("-> int) $"),
        ),
        (
            "tr2 = .<fun x -> .~(let x = !. .<1>. in .<x>.)>.",
            "let cogen u = let val y = eval (code 1) in lift y end in code (fn x => u) end",
            Ok("-> int) $"),
        ),
        (
            "tr5 = .<fun x -> !. .<1>.>.",
            "let cogen ev = lift eval in code (fn x => ev (code 1)) end",
            Ok("-> int) $"),
        ),
        (
            "tr3 = .<fun x -> .~(let x = !. .<x>. in .<x>.)>.",
            "let cogen u = let val y = eval (code x) in lift y end in code (fn x => u) end",
            Err("`x`"),
        ),
        (
            "tr4 = .<fun x -> .~(let x = !. x in .<x>.)>.",
            "let cogen u = let val y = eval x in lift y end in code (fn x => u) end",
            Err("`x`"),
        ),
        (
            ".<fun x -> .~(!. .<x>.)>.",
            "let cogen u = eval (code x) in code (fn x => u) end",
            Err("`x`"),
        ),
    ];
    let s = Session::new().unwrap();
    for (metaocaml, src, want) in cases {
        let got = s
            .check(src)
            .map(|c| c.decls.last().expect("one declaration").1.clone());
        match (want, got) {
            (Ok(shape), Ok(ty)) => assert!(ty.ends_with(shape), "{metaocaml}: {ty}"),
            (Err(names), Err(err @ mlbox::Error::Static { .. })) => {
                assert!(err.to_string().contains(names), "{metaocaml}: {err}");
            }
            (want, got) => panic!("{metaocaml}: want {want:?}, got {got:?}"),
        }
    }
}
