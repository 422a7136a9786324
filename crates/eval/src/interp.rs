//! The big-step evaluator.

use crate::value::{CodeEnv, Env, GenRep, RClosure, RRecGroup, RVal};
use mlbox_ir::core::{CExpr, CExprS, CoreDecl, Lit, Prim};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Why evaluation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A variable had no binding (indicates an elaboration bug or a
    /// program that failed type checking).
    Unbound(String),
    /// An operation was applied to a value of the wrong shape.
    TypeMismatch {
        /// What the operation needed.
        expected: &'static str,
        /// A rendering of what it found.
        found: String,
    },
    /// Integer division or remainder by zero.
    DivideByZero,
    /// Array access out of bounds.
    IndexOutOfBounds {
        /// Attempted index.
        index: i64,
        /// Array length.
        len: usize,
    },
    /// `array (n, _)` with a negative `n`, or one too large to allocate.
    ArraySize {
        /// The requested length.
        len: i64,
    },
    /// A `Fail` expression ran (inexhaustive match).
    Fail(String),
    /// The step budget was exhausted.
    OutOfFuel {
        /// The exceeded budget.
        fuel: u64,
    },
    /// `=` on closures or generators.
    EqualityUndefined,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Unbound(n) => write!(f, "unbound variable {n}"),
            EvalError::TypeMismatch { expected, found } => {
                write!(f, "expected {expected}, found {found}")
            }
            EvalError::DivideByZero => f.write_str("integer division by zero"),
            EvalError::IndexOutOfBounds { index, len } => {
                write!(f, "array index {index} out of bounds for length {len}")
            }
            EvalError::ArraySize { len } => {
                write!(f, "array size {len} cannot be allocated")
            }
            EvalError::Fail(m) => write!(f, "failure: {m}"),
            EvalError::OutOfFuel { fuel } => {
                write!(f, "evaluation budget of {fuel} steps exhausted")
            }
            EvalError::EqualityUndefined => {
                f.write_str("equality is not defined on functions or code")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// The interpreter: holds the print buffer, a step counter, and an
/// optional fuel limit.
#[derive(Debug, Default)]
pub struct Interp {
    steps: u64,
    fuel: Option<u64>,
    output: String,
}

impl Interp {
    /// A fresh interpreter with no step budget.
    pub fn new() -> Self {
        Interp::default()
    }

    /// An interpreter that aborts after `fuel` evaluation steps.
    pub fn with_fuel(fuel: u64) -> Self {
        Interp {
            fuel: Some(fuel),
            ..Interp::default()
        }
    }

    /// Evaluation steps taken so far (one per expression node evaluated).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Everything printed so far.
    pub fn output(&self) -> &str {
        &self.output
    }

    /// Clears and returns the output buffer.
    pub fn take_output(&mut self) -> String {
        std::mem::take(&mut self.output)
    }

    /// Evaluates a closed expression.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] on dynamic failure.
    pub fn eval(&mut self, e: &CExprS) -> Result<RVal, EvalError> {
        self.eval_in(&Env::empty(), &CodeEnv::empty(), e)
    }

    /// Evaluates a declaration sequence, returning the value of the last
    /// value-producing declaration (or unit).
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] on dynamic failure.
    pub fn eval_decls(&mut self, decls: &[CoreDecl]) -> Result<RVal, EvalError> {
        let mut env = Env::empty();
        let mut cenv = CodeEnv::empty();
        let mut last = RVal::Unit;
        for d in decls {
            last = self.eval_decl(&mut env, &mut cenv, d)?;
        }
        Ok(last)
    }

    /// Evaluates one declaration against mutable environments (used by the
    /// incremental session driver).
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] on dynamic failure.
    pub fn eval_decl(
        &mut self,
        env: &mut Env,
        cenv: &mut CodeEnv,
        d: &CoreDecl,
    ) -> Result<RVal, EvalError> {
        match d {
            CoreDecl::Val(n, e) => {
                let v = self.eval_in(env, cenv, e)?;
                *env = env.bind(n.clone(), v.clone());
                Ok(v)
            }
            CoreDecl::Fun(defs) => {
                let group = Rc::new(RRecGroup {
                    env: env.clone(),
                    cenv: cenv.clone(),
                    defs: defs.clone(),
                });
                let mut result = RVal::Unit;
                for (index, def) in defs.iter().enumerate() {
                    let v = RVal::RecClosure {
                        group: group.clone(),
                        index,
                    };
                    *env = env.bind(def.name.clone(), v.clone());
                    result = v;
                }
                Ok(result)
            }
            CoreDecl::Cogen(u, e) => {
                let v = self.eval_in(env, cenv, e)?;
                let RVal::Gen(rep) = v else {
                    return Err(EvalError::TypeMismatch {
                        expected: "a code generator",
                        found: v.to_string(),
                    });
                };
                *cenv = cenv.bind(u.clone(), rep);
                Ok(RVal::Unit)
            }
            CoreDecl::Expr(e) => self.eval_in(env, cenv, e),
        }
    }

    fn tick(&mut self) -> Result<(), EvalError> {
        self.steps += 1;
        if let Some(fuel) = self.fuel {
            if self.steps > fuel {
                return Err(EvalError::OutOfFuel { fuel });
            }
        }
        Ok(())
    }

    /// Evaluates under explicit environments.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] on dynamic failure.
    pub fn eval_in(&mut self, env: &Env, cenv: &CodeEnv, e: &CExprS) -> Result<RVal, EvalError> {
        self.tick()?;
        match &e.node {
            CExpr::Lit(l) => Ok(match l {
                Lit::Int(n) => RVal::Int(*n),
                Lit::Bool(b) => RVal::Bool(*b),
                Lit::Str(s) => RVal::Str(s.clone()),
                Lit::Unit => RVal::Unit,
            }),
            CExpr::Var(n) => env
                .get(n)
                .cloned()
                .ok_or_else(|| EvalError::Unbound(n.to_string())),
            CExpr::CodeVar(u) => {
                // Using a code variable: evaluate its suspension under an
                // empty value environment (code is closed except for Δ).
                let rep = cenv
                    .get(u)
                    .cloned()
                    .ok_or_else(|| EvalError::Unbound(u.to_string()))?;
                match rep {
                    GenRep::Quote(v) => Ok((*v).clone()),
                    GenRep::Susp { body, cenv } => self.eval_in(&Env::empty(), &cenv, &body),
                }
            }
            CExpr::Lam(p, body) => Ok(RVal::Closure(Rc::new(RClosure {
                env: env.clone(),
                cenv: cenv.clone(),
                param: p.clone(),
                body: Rc::new((**body).clone()),
            }))),
            CExpr::App(f, a) => {
                let f = self.eval_in(env, cenv, f)?;
                let a = self.eval_in(env, cenv, a)?;
                self.apply(f, a)
            }
            CExpr::Prim(p, args) => {
                let mut vs = Vec::with_capacity(args.len());
                for a in args {
                    vs.push(self.eval_in(env, cenv, a)?);
                }
                self.prim(*p, vs)
            }
            CExpr::If(c, t, f) => {
                let c = self.eval_in(env, cenv, c)?;
                match c {
                    RVal::Bool(true) => self.eval_in(env, cenv, t),
                    RVal::Bool(false) => self.eval_in(env, cenv, f),
                    other => Err(EvalError::TypeMismatch {
                        expected: "a boolean condition",
                        found: other.to_string(),
                    }),
                }
            }
            CExpr::Let(n, rhs, body) => {
                let v = self.eval_in(env, cenv, rhs)?;
                self.eval_in(&env.bind(n.clone(), v), cenv, body)
            }
            CExpr::LetRec(defs, body) => {
                let group = Rc::new(RRecGroup {
                    env: env.clone(),
                    cenv: cenv.clone(),
                    defs: defs.clone(),
                });
                let mut env = env.clone();
                for (index, def) in defs.iter().enumerate() {
                    env = env.bind(
                        def.name.clone(),
                        RVal::RecClosure {
                            group: group.clone(),
                            index,
                        },
                    );
                }
                self.eval_in(&env, cenv, body)
            }
            CExpr::Tuple(parts) => {
                let mut vs = Vec::with_capacity(parts.len());
                for p in parts {
                    vs.push(self.eval_in(env, cenv, p)?);
                }
                Ok(RVal::tuple(vs))
            }
            CExpr::Proj {
                index,
                arity,
                tuple,
            } => {
                let mut v = self.eval_in(env, cenv, tuple)?;
                // Right-nested pairs: snd × index, then fst unless last.
                for _ in 0..*index {
                    v = match v {
                        RVal::Pair(p) => p.1.clone(),
                        other => {
                            return Err(EvalError::TypeMismatch {
                                expected: "a tuple",
                                found: other.to_string(),
                            })
                        }
                    };
                }
                if *index < arity - 1 {
                    v = match v {
                        RVal::Pair(p) => p.0.clone(),
                        other => {
                            return Err(EvalError::TypeMismatch {
                                expected: "a tuple",
                                found: other.to_string(),
                            })
                        }
                    };
                }
                Ok(v)
            }
            CExpr::Con(c, payload) => {
                let payload = match payload {
                    None => None,
                    Some(p) => Some(Rc::new(self.eval_in(env, cenv, p)?)),
                };
                Ok(RVal::Con(*c, payload))
            }
            CExpr::Case {
                scrut,
                arms,
                default,
            } => {
                let v = self.eval_in(env, cenv, scrut)?;
                let RVal::Con(tag, payload) = &v else {
                    return Err(EvalError::TypeMismatch {
                        expected: "a datatype value",
                        found: v.to_string(),
                    });
                };
                for arm in arms {
                    if arm.con == *tag {
                        return match (&arm.binder, payload) {
                            (Some(b), Some(p)) => {
                                self.eval_in(&env.bind(b.clone(), (**p).clone()), cenv, &arm.rhs)
                            }
                            (Some(b), None) => {
                                self.eval_in(&env.bind(b.clone(), RVal::Unit), cenv, &arm.rhs)
                            }
                            (None, _) => self.eval_in(env, cenv, &arm.rhs),
                        };
                    }
                }
                match default {
                    Some(d) => self.eval_in(env, cenv, d),
                    None => Err(EvalError::Fail(format!(
                        "no case arm for constructor tag {}",
                        tag.0
                    ))),
                }
            }
            CExpr::Code(body) => Ok(RVal::Gen(GenRep::Susp {
                body: Rc::new((**body).clone()),
                cenv: cenv.clone(),
            })),
            CExpr::Lift(inner) => {
                let v = self.eval_in(env, cenv, inner)?;
                Ok(RVal::Gen(GenRep::Quote(Rc::new(v))))
            }
            CExpr::LetCogen(u, m, n) => {
                let v = self.eval_in(env, cenv, m)?;
                let RVal::Gen(rep) = v else {
                    return Err(EvalError::TypeMismatch {
                        expected: "a code generator",
                        found: v.to_string(),
                    });
                };
                self.eval_in(env, &cenv.bind(u.clone(), rep), n)
            }
            CExpr::Fail(msg) => Err(EvalError::Fail(msg.to_string())),
            CExpr::Ascribe(inner, _) => self.eval_in(env, cenv, inner),
        }
    }

    /// Applies a function value.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] if `f` is not a function or the body fails.
    pub fn apply(&mut self, f: RVal, a: RVal) -> Result<RVal, EvalError> {
        match f {
            RVal::Closure(c) => {
                let env = c.env.bind(c.param.clone(), a);
                self.eval_in(&env, &c.cenv, &c.body)
            }
            RVal::RecClosure { group, index } => {
                let mut env = group.env.clone();
                for (i, def) in group.defs.iter().enumerate() {
                    env = env.bind(
                        def.name.clone(),
                        RVal::RecClosure {
                            group: group.clone(),
                            index: i,
                        },
                    );
                }
                let def = &group.defs[index];
                let env = env.bind(def.param.clone(), a);
                let cenv = group.cenv.clone();
                self.eval_in(&env, &cenv, &def.body)
            }
            other => Err(EvalError::TypeMismatch {
                expected: "a function",
                found: other.to_string(),
            }),
        }
    }

    // SML floor semantics for `div`/`mod` (`~7 div 2 = ~4`,
    // `~7 mod 2 = 1`). Deliberately duplicated from the machine: this
    // interpreter is the differential-testing oracle and must not depend
    // on the crate it checks.
    fn prim(&mut self, p: Prim, mut args: Vec<RVal>) -> Result<RVal, EvalError> {
        fn floor_div(x: i64, y: i64) -> i64 {
            let q = x.wrapping_div(y);
            if x.wrapping_rem(y) != 0 && (x < 0) != (y < 0) {
                q.wrapping_sub(1)
            } else {
                q
            }
        }
        fn floor_mod(x: i64, y: i64) -> i64 {
            let r = x.wrapping_rem(y);
            if r != 0 && (r < 0) != (y < 0) {
                r.wrapping_add(y)
            } else {
                r
            }
        }
        fn int(v: &RVal) -> Result<i64, EvalError> {
            match v {
                RVal::Int(n) => Ok(*n),
                other => Err(EvalError::TypeMismatch {
                    expected: "an integer",
                    found: other.to_string(),
                }),
            }
        }
        fn string(v: &RVal) -> Result<Rc<str>, EvalError> {
            match v {
                RVal::Str(s) => Ok(s.clone()),
                other => Err(EvalError::TypeMismatch {
                    expected: "a string",
                    found: other.to_string(),
                }),
            }
        }
        let out = match p {
            Prim::Add => RVal::Int(int(&args[0])?.wrapping_add(int(&args[1])?)),
            Prim::Sub => RVal::Int(int(&args[0])?.wrapping_sub(int(&args[1])?)),
            Prim::Mul => RVal::Int(int(&args[0])?.wrapping_mul(int(&args[1])?)),
            Prim::Div => {
                let d = int(&args[1])?;
                if d == 0 {
                    return Err(EvalError::DivideByZero);
                }
                RVal::Int(floor_div(int(&args[0])?, d))
            }
            Prim::Mod => {
                let d = int(&args[1])?;
                if d == 0 {
                    return Err(EvalError::DivideByZero);
                }
                RVal::Int(floor_mod(int(&args[0])?, d))
            }
            Prim::Neg => RVal::Int(int(&args[0])?.wrapping_neg()),
            Prim::Eq => RVal::Bool(
                args[0]
                    .structural_eq(&args[1])
                    .ok_or(EvalError::EqualityUndefined)?,
            ),
            Prim::Ne => RVal::Bool(
                !args[0]
                    .structural_eq(&args[1])
                    .ok_or(EvalError::EqualityUndefined)?,
            ),
            Prim::Lt | Prim::Le | Prim::Gt | Prim::Ge => {
                let b = match (&args[0], &args[1]) {
                    (RVal::Int(a), RVal::Int(b)) => match p {
                        Prim::Lt => a < b,
                        Prim::Le => a <= b,
                        Prim::Gt => a > b,
                        _ => a >= b,
                    },
                    (RVal::Str(a), RVal::Str(b)) => match p {
                        Prim::Lt => a < b,
                        Prim::Le => a <= b,
                        Prim::Gt => a > b,
                        _ => a >= b,
                    },
                    (a, _) => {
                        return Err(EvalError::TypeMismatch {
                            expected: "comparable values",
                            found: a.to_string(),
                        })
                    }
                };
                RVal::Bool(b)
            }
            Prim::BitAnd => RVal::Int(int(&args[0])? & int(&args[1])?),
            Prim::Concat => {
                let mut s = string(&args[0])?.to_string();
                s.push_str(&string(&args[1])?);
                RVal::Str(Rc::from(s))
            }
            Prim::Not => match &args[0] {
                RVal::Bool(b) => RVal::Bool(!b),
                other => {
                    return Err(EvalError::TypeMismatch {
                        expected: "a boolean",
                        found: other.to_string(),
                    })
                }
            },
            Prim::StrSize => RVal::Int(string(&args[0])?.len() as i64),
            Prim::IntToString => RVal::Str(Rc::from(int(&args[0])?.to_string())),
            Prim::Print => {
                self.output.push_str(&string(&args[0])?);
                RVal::Unit
            }
            Prim::Ref => RVal::Ref(Rc::new(RefCell::new(args.remove(0)))),
            Prim::Deref => match &args[0] {
                RVal::Ref(r) => r.borrow().clone(),
                other => {
                    return Err(EvalError::TypeMismatch {
                        expected: "a reference",
                        found: other.to_string(),
                    })
                }
            },
            Prim::Assign => match &args[0] {
                RVal::Ref(r) => {
                    *r.borrow_mut() = args[1].clone();
                    RVal::Unit
                }
                other => {
                    return Err(EvalError::TypeMismatch {
                        expected: "a reference",
                        found: other.to_string(),
                    })
                }
            },
            Prim::MkArray => {
                let n = int(&args[0])?;
                let size = EvalError::ArraySize { len: n };
                let len = usize::try_from(n).map_err(|_| size.clone())?;
                let mut elems = Vec::new();
                elems.try_reserve_exact(len).map_err(|_| size)?;
                elems.resize(len, args[1].clone());
                RVal::Array(Rc::new(RefCell::new(elems)))
            }
            Prim::ArrSub => match &args[0] {
                RVal::Array(a) => {
                    let borrow = a.borrow();
                    let i = int(&args[1])?;
                    let len = borrow.len();
                    let idx = usize::try_from(i)
                        .ok()
                        .filter(|&u| u < len)
                        .ok_or(EvalError::IndexOutOfBounds { index: i, len })?;
                    borrow[idx].clone()
                }
                other => {
                    return Err(EvalError::TypeMismatch {
                        expected: "an array",
                        found: other.to_string(),
                    })
                }
            },
            Prim::ArrUpdate => match &args[0] {
                RVal::Array(a) => {
                    let mut borrow = a.borrow_mut();
                    let i = int(&args[1])?;
                    let len = borrow.len();
                    let idx = usize::try_from(i)
                        .ok()
                        .filter(|&u| u < len)
                        .ok_or(EvalError::IndexOutOfBounds { index: i, len })?;
                    borrow[idx] = args[2].clone();
                    RVal::Unit
                }
                other => {
                    return Err(EvalError::TypeMismatch {
                        expected: "an array",
                        found: other.to_string(),
                    })
                }
            },
            Prim::ArrLen => match &args[0] {
                RVal::Array(a) => RVal::Int(a.borrow().len() as i64),
                other => {
                    return Err(EvalError::TypeMismatch {
                        expected: "an array",
                        found: other.to_string(),
                    })
                }
            },
        };
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlbox_ir::elab::Elab;
    use mlbox_syntax::parser::{parse_expr, parse_program};

    fn run(src: &str) -> RVal {
        let e = parse_expr(src).unwrap();
        let core = Elab::new().elab_expr(&e).unwrap();
        Interp::new().eval(&core).unwrap()
    }

    fn run_program(src: &str) -> RVal {
        let p = parse_program(src).unwrap();
        let decls = Elab::new().elab_program(&p).unwrap();
        Interp::new().eval_decls(&decls).unwrap()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(run("1 + 2 * 3").to_string(), "7");
        assert_eq!(run("10 div 3").to_string(), "3");
        assert_eq!(run("10 mod 3").to_string(), "1");
        assert_eq!(run("~5 + 2").to_string(), "-3");
    }

    #[test]
    fn division_floors_like_sml() {
        assert_eq!(run("~7 div 2").to_string(), "-4");
        assert_eq!(run("~7 mod 2").to_string(), "1");
        assert_eq!(run("7 div ~2").to_string(), "-4");
        assert_eq!(run("7 mod ~2").to_string(), "-1");
        assert_eq!(run("~7 div ~2").to_string(), "3");
        assert_eq!(run("~7 mod ~2").to_string(), "-1");
    }

    #[test]
    fn let_and_lambda() {
        assert_eq!(
            run("let val f = fn x => x + 1 in f 41 end").to_string(),
            "42"
        );
    }

    #[test]
    fn recursion() {
        assert_eq!(
            run_program("fun fact n = if n = 0 then 1 else n * fact (n - 1);\nfact 10").to_string(),
            "3628800"
        );
    }

    #[test]
    fn mutual_recursion() {
        assert_eq!(
            run_program(
                "fun even n = if n = 0 then true else odd (n - 1)\n\
                 and odd n = if n = 0 then false else even (n - 1);\n\
                 even 10"
            )
            .to_string(),
            "true"
        );
    }

    #[test]
    fn pattern_matching_on_lists() {
        assert_eq!(
            run_program(
                "fun sum xs = case xs of nil => 0 | a :: p => a + sum p;\nsum [1, 2, 3, 4]"
            )
            .to_string(),
            "10"
        );
    }

    #[test]
    fn clausal_fun_over_pairs() {
        assert_eq!(
            run_program(
                "fun evalPoly (x, nil) = 0\n\
                 | evalPoly (x, a::p) = a + (x * evalPoly (x, p));\n\
                 evalPoly (2, [1, 2, 3])"
            )
            .to_string(),
            "17"
        );
    }

    #[test]
    fn code_and_eval_round_trip() {
        // eval (code (fn x => x + 1)) applied to 1.
        assert_eq!(
            run_program(
                "fun eval c = let cogen u = c in u end\n\
                 val f = eval (code (fn x => x + 1));\n\
                 f 1"
            )
            .to_string(),
            "2"
        );
    }

    #[test]
    fn lift_quotes_values() {
        assert_eq!(
            run_program(
                "fun eval c = let cogen u = c in u end;\n\
                 eval (lift (21 + 21))"
            )
            .to_string(),
            "42"
        );
    }

    #[test]
    fn staged_composition() {
        // The paper's compose-generators example.
        let src = "\
fun eval c = let cogen u = c in u end
val compose = fn f => fn g =>
  let cogen f' = f
      cogen g' = g
  in code (fn x => f' (g' x)) end
val h = eval (compose (code (fn x => x * 2)) (code (fn x => x + 1)));
h 5";
        assert_eq!(run_program(src).to_string(), "12");
    }

    #[test]
    fn comp_poly_staged() {
        let src = "\
fun eval c = let cogen u = c in u end
fun compPoly p =
  case p of
    nil => code (fn x => 0)
  | a :: p' =>
      let cogen f = compPoly p'
          cogen a' = lift a
      in code (fn x => a' + (x * f x)) end
val gen = compPoly [2, 4, 0, 2333]
val f = eval gen;
f 47";
        // 2 + 4*47 + 0 + 2333*47^3 = 2 + 188 + 2333 * 103823
        let expected = 2 + 4 * 47 + 2333i64 * 47 * 47 * 47;
        assert_eq!(run_program(src).to_string(), expected.to_string());
    }

    #[test]
    fn code_does_not_capture_value_env() {
        // A value variable used under `code` is a runtime unbound error in
        // the interpreter (the type checker rejects it statically).
        let p = parse_program(
            "fun eval c = let cogen u = c in u end\n\
             val y = 5;\n\
             eval (code y)",
        )
        .unwrap();
        let decls = Elab::new().elab_program(&p).unwrap();
        let err = Interp::new().eval_decls(&decls).unwrap_err();
        assert!(matches!(err, EvalError::Unbound(_)));
    }

    #[test]
    fn refs_and_sequencing() {
        assert_eq!(
            run("let val r = ref 1 in (r := !r + 41; !r) end").to_string(),
            "42"
        );
    }

    #[test]
    fn arrays_work() {
        assert_eq!(
            run_program(
                "val a = array (4, 0)\n\
                 val u = update (a, 2, 9);\n\
                 sub (a, 2) + length a"
            )
            .to_string(),
            "13"
        );
    }

    #[test]
    fn unallocatable_array_sizes_are_typed_errors() {
        // 2^60 elements overflow the allocator's capacity before any
        // memory is requested.
        for (n, len) in [("1152921504606846976", 1 << 60), ("~1", -1)] {
            let e = parse_expr(&format!("array ({n}, 0)")).unwrap();
            let core = Elab::new().elab_expr(&e).unwrap();
            let err = Interp::new().eval(&core).unwrap_err();
            assert_eq!(err, EvalError::ArraySize { len });
            assert_eq!(
                err.to_string(),
                format!("array size {len} cannot be allocated")
            );
        }
    }

    #[test]
    fn out_of_fuel() {
        let p = parse_program("fun loop n = loop n;\nloop 0").unwrap();
        let decls = Elab::new().elab_program(&p).unwrap();
        let err = Interp::with_fuel(200).eval_decls(&decls).unwrap_err();
        assert!(matches!(err, EvalError::OutOfFuel { .. }));
    }

    #[test]
    fn inexhaustive_match_fails() {
        let p = parse_program("fun f xs = case xs of a :: p => a;\nf nil").unwrap();
        let decls = Elab::new().elab_program(&p).unwrap();
        let err = Interp::new().eval_decls(&decls).unwrap_err();
        assert!(matches!(err, EvalError::Fail(_)));
    }

    #[test]
    fn multi_stage_code_inside_code() {
        // Dynamically generated code that itself generates code.
        let src = "\
fun eval c = let cogen u = c in u end
fun compPoly p =
  case p of
    nil => code (fn x => 0)
  | a :: p' =>
      let cogen f = compPoly p'
          cogen a' = lift a
      in code (fn x => a' + (x * f x)) end
val client =
  let cogen cp = lift compPoly
  in code (fn p => let cogen inner = cp p in inner end) end
val stage1 = eval client
val f = stage1 [3, 2];
f 10";
        // 3 + 10*2 = 23
        assert_eq!(run_program(src).to_string(), "23");
    }

    #[test]
    fn print_collects_output() {
        let p = parse_program("print \"a\"; print \"b\"").unwrap();
        let decls = Elab::new().elab_program(&p).unwrap();
        let mut i = Interp::new();
        i.eval_decls(&decls).unwrap();
        assert_eq!(i.output(), "ab");
    }

    #[test]
    fn string_ops() {
        assert_eq!(run("size (\"abc\" ^ \"de\")").to_string(), "5");
        assert_eq!(run("itos 42").to_string(), "\"42\"");
    }

    #[test]
    fn case_with_datatype() {
        assert_eq!(
            run_program(
                "datatype shape = Circle of int | Square of int | Point\n\
                 fun area s = case s of Circle r => 3 * r * r | Square w => w * w | Point => 0;\n\
                 area (Circle 2) + area (Square 3) + area Point"
            )
            .to_string(),
            "21"
        );
    }

    #[test]
    fn codegen_happens_at_each_use() {
        // Each *use* of u re-runs the generator; with a lift the value is
        // shared. Here we check a generator with an effect: every use of u
        // re-evaluates the suspension.
        let src = "\
val r = ref 0
val g = code (fn _ => ())
fun eval c = let cogen u = c in u end
val x = (r := !r + 1; eval g);
!r";
        assert_eq!(run_program(src).to_string(), "1");
    }
}
