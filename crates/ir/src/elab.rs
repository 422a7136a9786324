//! Elaboration: surface AST → core IR.
//!
//! Responsibilities:
//!
//! - **scope resolution** — every identifier is resolved to a value
//!   variable, code variable, datatype constructor, or builtin, and every
//!   binder is alpha-renamed to a unique [`Name`];
//! - **desugaring** — clausal `fun`, `andalso`/`orelse`, list literals,
//!   sequences, multi-parameter currying;
//! - **pattern-match compilation** — nested patterns become single-level
//!   tag dispatch ([`CExpr::Case`]), tuple projections, and literal
//!   equality tests, using bound failure continuations so no right-hand
//!   side or failure branch is ever duplicated.

use crate::core::{CExpr, CExprS, CaseArm, CoreDecl, FunDef, Lit, Prim};
use crate::data::{ConId, DataEnv, CONS, NIL};
use crate::exhaustive::{self, ConResolver, SPat};
use crate::name::{Name, NameGen};
use mlbox_syntax::ast::{self, Decl, Expr, Pat};
use mlbox_syntax::diag::{Diagnostic, Phase};
use mlbox_syntax::span::{Span, Spanned};
use std::collections::HashMap;
use std::rc::Rc;

/// How an identifier in scope resolves.
#[derive(Debug, Clone)]
enum Binding {
    /// An ordinary value variable (Γ).
    Val(Name),
    /// A code variable (Δ).
    Cogen(Name),
    /// A datatype constructor.
    Con(ConId),
    /// A builtin primitive function.
    Builtin(Builtin),
}

/// Builtin functions available in the initial scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Builtin {
    Not,
    Ref,
    Array,
    Sub,
    Update,
    Length,
    Print,
    IntToString,
    Size,
    Band,
}

impl Builtin {
    /// The primitive and the number of components its (possibly
    /// tuple-typed) argument is unpacked into.
    fn prim(self) -> (Prim, usize) {
        match self {
            Builtin::Not => (Prim::Not, 1),
            Builtin::Ref => (Prim::Ref, 1),
            Builtin::Array => (Prim::MkArray, 2),
            Builtin::Sub => (Prim::ArrSub, 2),
            Builtin::Update => (Prim::ArrUpdate, 3),
            Builtin::Length => (Prim::ArrLen, 1),
            Builtin::Print => (Prim::Print, 1),
            Builtin::IntToString => (Prim::IntToString, 1),
            Builtin::Size => (Prim::StrSize, 1),
            Builtin::Band => (Prim::BitAnd, 2),
        }
    }
}

/// A recorded `type` abbreviation, consumed by the type checker.
#[derive(Debug, Clone)]
pub struct TypeAbbrev {
    /// Declared type parameters.
    pub tyvars: Vec<String>,
    /// The expansion.
    pub body: ast::TyS,
}

/// The elaboration context. Persistent across declarations so a session
/// can elaborate a program incrementally.
#[derive(Debug, Clone)]
pub struct Elab {
    /// Fresh-name supply (shared with later phases via `&mut`).
    pub names: NameGen,
    /// Datatype environment, extended by `datatype` declarations.
    pub data: DataEnv,
    /// Recorded `type` abbreviations by name.
    pub abbrevs: HashMap<String, TypeAbbrev>,
    /// Non-fatal warnings (non-exhaustive and redundant matches).
    pub warnings: Vec<Diagnostic>,
    scope: Vec<(String, Binding)>,
}

impl Default for Elab {
    fn default() -> Self {
        Self::new()
    }
}

impl Elab {
    /// A fresh context with the builtin scope (`nil`, `not`, `ref`,
    /// `array`, `sub`, `update`, `length`, `print`, `itos`, `size`).
    pub fn new() -> Self {
        let mut e = Elab {
            names: NameGen::new(),
            data: DataEnv::new(),
            abbrevs: HashMap::new(),
            warnings: Vec::new(),
            scope: Vec::new(),
        };
        e.scope.push(("nil".into(), Binding::Con(NIL)));
        for (name, b) in [
            ("not", Builtin::Not),
            ("ref", Builtin::Ref),
            ("array", Builtin::Array),
            ("sub", Builtin::Sub),
            ("update", Builtin::Update),
            ("length", Builtin::Length),
            ("print", Builtin::Print),
            ("itos", Builtin::IntToString),
            ("size", Builtin::Size),
            ("band", Builtin::Band),
        ] {
            e.scope.push((name.into(), Binding::Builtin(b)));
        }
        e
    }

    fn err(&self, msg: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::new(Phase::Elaborate, msg, span)
    }

    fn lookup(&self, name: &str) -> Option<&Binding> {
        self.scope
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b)
    }

    fn fresh(&mut self, text: &str) -> Name {
        self.names.fresh(text)
    }

    fn scope_mark(&self) -> usize {
        self.scope.len()
    }

    fn scope_reset(&mut self, mark: usize) {
        self.scope.truncate(mark);
    }

    fn bind_val(&mut self, source: &str) -> Name {
        let n = self.fresh(source);
        self.scope
            .push((source.to_string(), Binding::Val(n.clone())));
        n
    }

    fn bind_cogen(&mut self, source: &str) -> Name {
        let n = self.fresh(source);
        self.scope
            .push((source.to_string(), Binding::Cogen(n.clone())));
        n
    }

    // ------------------------------------------------------------------
    // Declarations
    // ------------------------------------------------------------------

    /// Elaborates one top-level declaration, extending the scope with its
    /// bindings. A single surface declaration may expand to several core
    /// declarations (pattern `val`s).
    ///
    /// # Errors
    ///
    /// Returns a diagnostic for unbound identifiers, misused constructors,
    /// or code variables used where value variables are required.
    pub fn elab_decl(&mut self, decl: &ast::DeclS) -> Result<Vec<CoreDecl>, Diagnostic> {
        let span = decl.span;
        match &decl.node {
            Decl::Val(pat, rhs) => {
                let rhs = self.elab_expr(rhs)?;
                self.elab_val_binding(pat, rhs, span)
            }
            Decl::Fun(binds) => {
                let defs = self.elab_fun_group(binds)?;
                Ok(vec![CoreDecl::Fun(defs)])
            }
            Decl::Cogen(name, rhs) => {
                let rhs = self.elab_expr(rhs)?;
                let n = self.bind_cogen(name);
                Ok(vec![CoreDecl::Cogen(n, rhs)])
            }
            Decl::Datatype { tyvars, name, cons } => {
                let data = self.data.declare(
                    name.clone(),
                    tyvars.clone(),
                    cons.iter()
                        .map(|c| (c.name.clone(), c.arg.clone()))
                        .collect(),
                );
                let ids = self.data.datatype(data).cons.clone();
                for (c, id) in cons.iter().zip(ids) {
                    self.scope.push((c.name.clone(), Binding::Con(id)));
                }
                Ok(Vec::new())
            }
            Decl::TypeAbbrev { tyvars, name, body } => {
                self.abbrevs.insert(
                    name.clone(),
                    TypeAbbrev {
                        tyvars: tyvars.clone(),
                        body: body.clone(),
                    },
                );
                Ok(Vec::new())
            }
            Decl::Expr(e) => {
                let e = self.elab_expr(e)?;
                Ok(vec![CoreDecl::Expr(e)])
            }
        }
    }

    /// Elaborates a whole program into a declaration sequence.
    ///
    /// # Errors
    ///
    /// Returns the first elaboration error.
    pub fn elab_program(&mut self, prog: &ast::Program) -> Result<Vec<CoreDecl>, Diagnostic> {
        let mut out = Vec::new();
        for d in &prog.decls {
            out.extend(self.elab_decl(d)?);
        }
        Ok(out)
    }

    /// `val pat = rhs` — decomposed into one root bind plus per-variable
    /// projection binds (via the match compiler when the pattern is
    /// refutable).
    fn elab_val_binding(
        &mut self,
        pat: &ast::PatS,
        rhs: CExprS,
        span: Span,
    ) -> Result<Vec<CoreDecl>, Diagnostic> {
        // Fast path: simple variable.
        if let Pat::Var(x) = &pat.node {
            if !self.is_constructor(x) {
                let n = self.bind_val(x);
                return Ok(vec![CoreDecl::Val(n, rhs)]);
            }
        }
        let mut vars = Vec::new();
        collect_pattern_vars(self, pat, &mut vars);
        let root = self.fresh("$root");
        let mut decls = vec![CoreDecl::Val(root.clone(), rhs)];
        if self.pat_is_irrefutable(pat) {
            // Destructure directly with projections.
            let mut binds = Vec::new();
            self.bind_irrefutable(CExpr::Var(root).at(span), pat, &mut binds)?;
            for (n, e) in binds {
                decls.push(CoreDecl::Val(n, e));
            }
            return Ok(decls);
        }
        // Refutable: run the match once, package bound variables in a tuple.
        self.warn_match(std::slice::from_ref(pat), span, "`val` binding");
        let mark = self.scope_mark();
        let arm_rhs_builder = |this: &mut Self| -> Result<CExprS, Diagnostic> {
            let parts: Result<Vec<CExprS>, Diagnostic> = vars
                .iter()
                .map(|v| {
                    let e = this.elab_expr(&Spanned::new(Expr::Var(v.clone()), span))?;
                    Ok(e)
                })
                .collect();
            let parts = parts?;
            Ok(match parts.len() {
                0 => CExpr::Lit(Lit::Unit).at(span),
                1 => parts.into_iter().next().expect("one element"),
                _ => CExpr::Tuple(parts).at(span),
            })
        };
        let matched = self.compile_match_with(
            CExpr::Var(root).at(span),
            std::slice::from_ref(pat),
            arm_rhs_builder,
            span,
            "binding match failure",
        )?;
        self.scope_reset(mark);
        // Bind the tuple, then the user variables (now in the outer scope).
        match vars.len() {
            0 => decls.push(CoreDecl::Val(self.fresh("$ignore"), matched)),
            1 => {
                let n = self.bind_val(&vars[0]);
                decls.push(CoreDecl::Val(n, matched));
            }
            arity => {
                let tup = self.fresh("$bound");
                decls.push(CoreDecl::Val(tup.clone(), matched));
                for (index, v) in vars.iter().enumerate() {
                    let n = self.bind_val(v);
                    decls.push(CoreDecl::Val(
                        n,
                        CExpr::Proj {
                            index,
                            arity,
                            tuple: Box::new(CExpr::Var(tup.clone()).at(span)),
                        }
                        .at(span),
                    ));
                }
            }
        }
        Ok(decls)
    }

    fn elab_fun_group(&mut self, binds: &[ast::FunBind]) -> Result<Rc<Vec<FunDef>>, Diagnostic> {
        // Bind every function name first (mutual recursion).
        let fnames: Vec<Name> = binds.iter().map(|b| self.bind_val(&b.name)).collect();
        let mut defs = Vec::with_capacity(binds.len());
        for (b, fname) in binds.iter().zip(fnames) {
            let arity = b.clauses[0].params.len();
            let span = b.name_span;
            let single_irrefutable = b.clauses.len() == 1
                && b.clauses[0]
                    .params
                    .iter()
                    .all(|p| self.pat_is_irrefutable(p));

            let mark = self.scope_mark();
            // Machine parameters (curried). In the single-clause fast path a
            // simple variable pattern becomes the parameter itself.
            let params: Vec<Name> = if single_irrefutable {
                b.clauses[0]
                    .params
                    .iter()
                    .enumerate()
                    .map(|(i, p)| match &p.node {
                        Pat::Var(x) if !self.is_constructor(x) => self.bind_val(x),
                        _ => self.fresh(&format!("$p{i}")),
                    })
                    .collect()
            } else {
                (0..arity).map(|i| self.fresh(&format!("$p{i}"))).collect()
            };
            let body = if single_irrefutable {
                // Fast path: destructure parameters directly.
                let clause = &b.clauses[0];
                let mut binds_acc = Vec::new();
                for (param, pat) in params.iter().zip(&clause.params) {
                    if matches!(&pat.node, Pat::Var(x) if !self.is_constructor(x)) {
                        continue; // already bound as the parameter
                    }
                    self.bind_irrefutable(
                        CExpr::Var(param.clone()).at(pat.span),
                        pat,
                        &mut binds_acc,
                    )?;
                }
                let rhs = self.elab_expr(&clause.rhs)?;
                wrap_lets(binds_acc, rhs)
            } else {
                // General path: match the parameter tuple against each clause.
                let scrut = if arity == 1 {
                    CExpr::Var(params[0].clone()).at(span)
                } else {
                    CExpr::Tuple(
                        params
                            .iter()
                            .map(|p| CExpr::Var(p.clone()).at(span))
                            .collect(),
                    )
                    .at(span)
                };
                let arms: Vec<(ast::PatS, &ast::ExprS)> = b
                    .clauses
                    .iter()
                    .map(|c| {
                        let pat = if arity == 1 {
                            c.params[0].clone()
                        } else {
                            Spanned::new(Pat::Tuple(c.params.clone()), span)
                        };
                        (pat, &c.rhs)
                    })
                    .collect();
                self.compile_match(scrut, &arms, span, &format!("match failure in {}", b.name))?
            };
            self.scope_reset(mark);

            // Curry: body already includes rest; wrap params 1.. as lambdas.
            let mut full = body;
            for p in params.iter().skip(1).rev() {
                let sp = full.span;
                full = CExpr::Lam(p.clone(), Box::new(full)).at(sp);
            }
            defs.push(FunDef {
                name: fname,
                param: params[0].clone(),
                body: full,
            });
        }
        Ok(Rc::new(defs))
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    /// Elaborates an expression in the current scope.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic for unbound identifiers or misused
    /// constructors.
    pub fn elab_expr(&mut self, e: &ast::ExprS) -> Result<CExprS, Diagnostic> {
        let span = e.span;
        Ok(match &e.node {
            Expr::Int(n) => CExpr::Lit(Lit::Int(*n)).at(span),
            Expr::Str(s) => CExpr::Lit(Lit::Str(Rc::from(s.as_str()))).at(span),
            Expr::Bool(b) => CExpr::Lit(Lit::Bool(*b)).at(span),
            Expr::Unit => CExpr::Lit(Lit::Unit).at(span),
            Expr::Var(x) => self.elab_var(x, span)?,
            Expr::Tuple(parts) => {
                let parts: Result<Vec<_>, _> = parts.iter().map(|p| self.elab_expr(p)).collect();
                CExpr::Tuple(parts?).at(span)
            }
            Expr::List(parts) => {
                let mut acc = CExpr::Con(NIL, None).at(span);
                for p in parts.iter().rev() {
                    let head = self.elab_expr(p)?;
                    acc = CExpr::Con(CONS, Some(Box::new(CExpr::Tuple(vec![head, acc]).at(span))))
                        .at(span);
                }
                acc
            }
            Expr::Cons(h, t) => {
                let h = self.elab_expr(h)?;
                let t = self.elab_expr(t)?;
                CExpr::Con(CONS, Some(Box::new(CExpr::Tuple(vec![h, t]).at(span)))).at(span)
            }
            Expr::App(f, a) => self.elab_app(f, a, span)?,
            Expr::BinOp(op, l, r) => {
                let l = self.elab_expr(l)?;
                let r = self.elab_expr(r)?;
                let prim = match op {
                    ast::BinOp::Add => Prim::Add,
                    ast::BinOp::Sub => Prim::Sub,
                    ast::BinOp::Mul => Prim::Mul,
                    ast::BinOp::Div => Prim::Div,
                    ast::BinOp::Mod => Prim::Mod,
                    ast::BinOp::Eq => Prim::Eq,
                    ast::BinOp::Ne => Prim::Ne,
                    ast::BinOp::Lt => Prim::Lt,
                    ast::BinOp::Le => Prim::Le,
                    ast::BinOp::Gt => Prim::Gt,
                    ast::BinOp::Ge => Prim::Ge,
                    ast::BinOp::Concat => Prim::Concat,
                    ast::BinOp::Assign => Prim::Assign,
                };
                CExpr::Prim(prim, vec![l, r]).at(span)
            }
            Expr::Neg(x) => CExpr::Prim(Prim::Neg, vec![self.elab_expr(x)?]).at(span),
            Expr::Deref(x) => CExpr::Prim(Prim::Deref, vec![self.elab_expr(x)?]).at(span),
            Expr::Andalso(l, r) => {
                let l = self.elab_expr(l)?;
                let r = self.elab_expr(r)?;
                CExpr::If(
                    Box::new(l),
                    Box::new(r),
                    Box::new(CExpr::Lit(Lit::Bool(false)).at(span)),
                )
                .at(span)
            }
            Expr::Orelse(l, r) => {
                let l = self.elab_expr(l)?;
                let r = self.elab_expr(r)?;
                CExpr::If(
                    Box::new(l),
                    Box::new(CExpr::Lit(Lit::Bool(true)).at(span)),
                    Box::new(r),
                )
                .at(span)
            }
            Expr::Fn(pat, body) => {
                let mark = self.scope_mark();
                let simple_var = match &pat.node {
                    Pat::Var(x) if !self.is_constructor(x) => Some(x.clone()),
                    _ => None,
                };
                let out = if let Some(x) = simple_var {
                    // Bind the user's name directly as the parameter.
                    let param = self.bind_val(&x);
                    let body = self.elab_expr(body)?;
                    CExpr::Lam(param, Box::new(body)).at(span)
                } else if self.pat_is_irrefutable(pat) {
                    let param = self.fresh("$x");
                    let mut binds = Vec::new();
                    self.bind_irrefutable(CExpr::Var(param.clone()).at(pat.span), pat, &mut binds)?;
                    let body = self.elab_expr(body)?;
                    CExpr::Lam(param, Box::new(wrap_lets(binds, body))).at(span)
                } else {
                    let param = self.fresh("$x");
                    let arms = vec![((*pat).clone(), body.as_ref())];
                    let m = self.compile_match(
                        CExpr::Var(param.clone()).at(span),
                        &arms,
                        span,
                        "match failure in fn",
                    )?;
                    CExpr::Lam(param, Box::new(m)).at(span)
                };
                self.scope_reset(mark);
                out
            }
            Expr::If(c, t, f) => {
                let c = self.elab_expr(c)?;
                let t = self.elab_expr(t)?;
                let f = self.elab_expr(f)?;
                CExpr::If(Box::new(c), Box::new(t), Box::new(f)).at(span)
            }
            Expr::While(c, body) => {
                // while c do e  ≡  let fun w () = if c then (e; w ()) else ()
                //                  in w () end
                let c = self.elab_expr(c)?;
                let body = self.elab_expr(body)?;
                let w = self.fresh("$while");
                let param = self.fresh("$u");
                let seq = self.fresh("$seq");
                let recall = CExpr::App(
                    Box::new(CExpr::Var(w.clone()).at(span)),
                    Box::new(CExpr::Lit(Lit::Unit).at(span)),
                )
                .at(span);
                let loop_body = CExpr::If(
                    Box::new(c),
                    Box::new(CExpr::Let(seq, Box::new(body), Box::new(recall.clone())).at(span)),
                    Box::new(CExpr::Lit(Lit::Unit).at(span)),
                )
                .at(span);
                CExpr::LetRec(
                    Rc::new(vec![FunDef {
                        name: w.clone(),
                        param,
                        body: loop_body,
                    }]),
                    Box::new(recall),
                )
                .at(span)
            }
            Expr::Case(scrut, arms) => {
                let scrut = self.elab_expr(scrut)?;
                let arms: Vec<(ast::PatS, &ast::ExprS)> =
                    arms.iter().map(|(p, e)| (p.clone(), e)).collect();
                self.compile_match(scrut, &arms, span, "match failure in case")?
            }
            Expr::Let(decls, body) => {
                let mark = self.scope_mark();
                let mut core_decls = Vec::new();
                for d in decls {
                    core_decls.extend(self.elab_decl(d)?);
                }
                // Body sequence: evaluate all, keep the last.
                let mut rev = body.iter().rev();
                let last = rev.next().ok_or_else(|| self.err("empty let body", span))?;
                let mut acc = self.elab_expr(last)?;
                for e in rev {
                    let v = self.elab_expr(e)?;
                    let n = self.fresh("$seq");
                    acc = CExpr::Let(n, Box::new(v), Box::new(acc)).at(span);
                }
                // Wrap the declarations around the body, innermost last.
                for d in core_decls.into_iter().rev() {
                    acc = wrap_decl(d, acc, span);
                }
                self.scope_reset(mark);
                acc
            }
            Expr::Seq(parts) => {
                let mut rev = parts.iter().rev();
                let last = rev.next().ok_or_else(|| self.err("empty sequence", span))?;
                let mut acc = self.elab_expr(last)?;
                for e in rev {
                    let v = self.elab_expr(e)?;
                    let n = self.fresh("$seq");
                    acc = CExpr::Let(n, Box::new(v), Box::new(acc)).at(span);
                }
                acc
            }
            Expr::Code(body) => {
                let body = self.elab_expr(body)?;
                CExpr::Code(Box::new(body)).at(span)
            }
            Expr::Lift(body) => {
                let body = self.elab_expr(body)?;
                CExpr::Lift(Box::new(body)).at(span)
            }
            Expr::Ascribe(inner, ty) => {
                let inner = self.elab_expr(inner)?;
                CExpr::Ascribe(Box::new(inner), ty.clone()).at(span)
            }
        })
    }

    fn elab_var(&mut self, x: &str, span: Span) -> Result<CExprS, Diagnostic> {
        match self.lookup(x).cloned() {
            Some(Binding::Val(n)) => Ok(CExpr::Var(n).at(span)),
            Some(Binding::Cogen(n)) => Ok(CExpr::CodeVar(n).at(span)),
            Some(Binding::Con(c)) => {
                if self.data.con(c).has_arg() {
                    // Eta-expand a payload-carrying constructor used as a value.
                    let p = self.fresh("$c");
                    Ok(CExpr::Lam(
                        p.clone(),
                        Box::new(CExpr::Con(c, Some(Box::new(CExpr::Var(p).at(span)))).at(span)),
                    )
                    .at(span))
                } else {
                    Ok(CExpr::Con(c, None).at(span))
                }
            }
            Some(Binding::Builtin(b)) => {
                // Eta-expand a builtin used as a value.
                let (prim, unpack) = b.prim();
                let p = self.fresh("$b");
                let arg = CExpr::Var(p.clone()).at(span);
                let args = self.unpack_arg(arg, unpack, span);
                Ok(CExpr::Lam(p, Box::new(CExpr::Prim(prim, args).at(span))).at(span))
            }
            None => Err(self.err(format!("unbound identifier `{x}`"), span)),
        }
    }

    fn elab_app(
        &mut self,
        f: &ast::ExprS,
        a: &ast::ExprS,
        span: Span,
    ) -> Result<CExprS, Diagnostic> {
        // Special-case direct application of constructors and builtins.
        if let Expr::Var(x) = &f.node {
            match self.lookup(x).cloned() {
                Some(Binding::Con(c)) => {
                    if !self.data.con(c).has_arg() {
                        return Err(self.err(format!("constructor `{x}` takes no argument"), span));
                    }
                    let arg = self.elab_expr(a)?;
                    return Ok(CExpr::Con(c, Some(Box::new(arg))).at(span));
                }
                Some(Binding::Builtin(b)) => {
                    let (prim, unpack) = b.prim();
                    // If the argument is a literal tuple of the right width,
                    // unpack it syntactically.
                    if unpack > 1 {
                        if let Expr::Tuple(parts) = &a.node {
                            if parts.len() == unpack {
                                let args: Result<Vec<_>, _> =
                                    parts.iter().map(|p| self.elab_expr(p)).collect();
                                return Ok(CExpr::Prim(prim, args?).at(span));
                            }
                        }
                    }
                    let arg = self.elab_expr(a)?;
                    if unpack == 1 {
                        return Ok(CExpr::Prim(prim, vec![arg]).at(span));
                    }
                    let tmp = self.fresh("$t");
                    let args = self.unpack_arg(CExpr::Var(tmp.clone()).at(span), unpack, span);
                    return Ok(CExpr::Let(
                        tmp,
                        Box::new(arg),
                        Box::new(CExpr::Prim(prim, args).at(span)),
                    )
                    .at(span));
                }
                _ => {}
            }
        }
        let f = self.elab_expr(f)?;
        let a = self.elab_expr(a)?;
        Ok(CExpr::App(Box::new(f), Box::new(a)).at(span))
    }

    fn unpack_arg(&mut self, arg: CExprS, unpack: usize, span: Span) -> Vec<CExprS> {
        if unpack == 1 {
            vec![arg]
        } else {
            (0..unpack)
                .map(|index| {
                    CExpr::Proj {
                        index,
                        arity: unpack,
                        tuple: Box::new(arg.clone()),
                    }
                    .at(span)
                })
                .collect()
        }
    }

    // ------------------------------------------------------------------
    // Pattern-match compilation
    // ------------------------------------------------------------------

    fn is_constructor(&self, x: &str) -> bool {
        matches!(self.lookup(x), Some(Binding::Con(_)))
    }

    /// Whether a pattern always matches (so no failure continuation is
    /// needed).
    pub fn pat_is_irrefutable(&self, pat: &ast::PatS) -> bool {
        match &pat.node {
            Pat::Wild | Pat::Unit => true,
            Pat::Var(x) => !self.is_constructor(x),
            Pat::Tuple(ps) => ps.iter().all(|p| self.pat_is_irrefutable(p)),
            Pat::Ascribe(inner, _) => self.pat_is_irrefutable(inner),
            _ => false,
        }
    }

    /// Destructures an irrefutable pattern into `(name, projection)` binds,
    /// pushing the bound variables into scope.
    fn bind_irrefutable(
        &mut self,
        occ: CExprS,
        pat: &ast::PatS,
        out: &mut Vec<(Name, CExprS)>,
    ) -> Result<(), Diagnostic> {
        match &pat.node {
            Pat::Wild | Pat::Unit => Ok(()),
            Pat::Var(x) => {
                let n = self.bind_val(x);
                out.push((n, occ));
                Ok(())
            }
            Pat::Ascribe(inner, ty) => {
                let span = occ.span;
                let constrained = CExpr::Ascribe(Box::new(occ), ty.clone()).at(span);
                self.bind_irrefutable(constrained, inner, out)
            }
            Pat::Tuple(ps) => {
                let arity = ps.len();
                // Bind the tuple once if the occurrence is not already a variable.
                let root = if matches!(occ.node, CExpr::Var(_)) {
                    occ
                } else {
                    let n = self.fresh("$tup");
                    let span = occ.span;
                    out.push((n.clone(), occ));
                    CExpr::Var(n).at(span)
                };
                for (index, p) in ps.iter().enumerate() {
                    let proj = CExpr::Proj {
                        index,
                        arity,
                        tuple: Box::new(root.clone()),
                    }
                    .at(p.span);
                    self.bind_irrefutable(proj, p, out)?;
                }
                Ok(())
            }
            _ => Err(self.err("pattern is not irrefutable", pat.span)),
        }
    }

    /// Runs the exhaustiveness/redundancy analysis on a match and records
    /// warnings.
    fn warn_match(&mut self, pats: &[ast::PatS], span: Span, what: &str) {
        let spats: Vec<SPat> = pats.iter().map(|p| exhaustive::simplify(p, self)).collect();
        let report = exhaustive::analyze(&spats, &self.data);
        if report.non_exhaustive {
            self.warnings.push(Diagnostic::warning(
                Phase::Elaborate,
                format!("{what} is not exhaustive"),
                span,
            ));
        }
        for i in report.redundant {
            self.warnings.push(Diagnostic::warning(
                Phase::Elaborate,
                format!("{what} arm {} is redundant (it can never match)", i + 1),
                pats[i].span,
            ));
        }
    }

    /// Compiles a multi-arm match whose right-hand sides are surface
    /// expressions.
    fn compile_match(
        &mut self,
        scrut: CExprS,
        arms: &[(ast::PatS, &ast::ExprS)],
        span: Span,
        fail_msg: &str,
    ) -> Result<CExprS, Diagnostic> {
        let pats: Vec<ast::PatS> = arms.iter().map(|(p, _)| p.clone()).collect();
        self.warn_match(&pats, span, "match");
        // Bind the scrutinee once.
        let (root, wrap): (Name, Option<CExprS>) = match &scrut.node {
            CExpr::Var(n) => (n.clone(), None),
            _ => {
                let n = self.fresh("$scrut");
                (n, Some(scrut))
            }
        };
        let occ = CExpr::Var(root.clone()).at(span);

        // Build from the last arm backwards, threading failure continuations.
        let mut acc = CExpr::Fail(Rc::new(fail_msg.to_owned())).at(span);
        for (pat, rhs) in arms.iter().rev() {
            let k = self.fresh("$k");
            let fail = CExpr::App(
                Box::new(CExpr::Var(k.clone()).at(span)),
                Box::new(CExpr::Lit(Lit::Unit).at(span)),
            )
            .at(span);
            let mark = self.scope_mark();
            let rhs_ref: &ast::ExprS = rhs;
            let body =
                self.pat_test(occ.clone(), pat, &fail, &mut |this| this.elab_expr(rhs_ref))?;
            self.scope_reset(mark);
            let kparam = self.fresh("$u");
            acc = CExpr::Let(
                k,
                Box::new(CExpr::Lam(kparam, Box::new(acc)).at(span)),
                Box::new(body),
            )
            .at(span);
        }
        Ok(match wrap {
            Some(scrut) => CExpr::Let(root, Box::new(scrut), Box::new(acc)).at(span),
            None => acc,
        })
    }

    /// Like [`Self::compile_match`] but for a single pattern whose
    /// right-hand side is built programmatically (used for `val` pattern
    /// bindings).
    fn compile_match_with(
        &mut self,
        scrut: CExprS,
        pats: &[ast::PatS],
        mut rhs: impl FnMut(&mut Self) -> Result<CExprS, Diagnostic>,
        span: Span,
        fail_msg: &str,
    ) -> Result<CExprS, Diagnostic> {
        let (root, wrap): (Name, Option<CExprS>) = match &scrut.node {
            CExpr::Var(n) => (n.clone(), None),
            _ => {
                let n = self.fresh("$scrut");
                (n, Some(scrut))
            }
        };
        let occ = CExpr::Var(root.clone()).at(span);
        let fail = CExpr::Fail(Rc::new(fail_msg.to_owned())).at(span);
        let pat = &pats[0];
        let body = self.pat_test(occ, pat, &fail, &mut |this| rhs(this))?;
        Ok(match wrap {
            Some(scrut) => CExpr::Let(root, Box::new(scrut), Box::new(body)).at(span),
            None => body,
        })
    }

    /// Compiles a single pattern test: if `occ` matches `pat`, bind the
    /// pattern's variables and continue with `succ`; otherwise evaluate
    /// `fail`.
    fn pat_test(
        &mut self,
        occ: CExprS,
        pat: &ast::PatS,
        fail: &CExprS,
        succ: &mut dyn FnMut(&mut Self) -> Result<CExprS, Diagnostic>,
    ) -> Result<CExprS, Diagnostic> {
        let span = pat.span;
        match &pat.node {
            Pat::Wild | Pat::Unit => succ(self),
            Pat::Var(x) => {
                if let Some(Binding::Con(c)) = self.lookup(x).cloned() {
                    // A nullary constructor used as a pattern.
                    if self.data.con(c).has_arg() {
                        return Err(self.err(
                            format!("constructor `{x}` requires an argument pattern"),
                            span,
                        ));
                    }
                    let rhs = succ(self)?;
                    return Ok(CExpr::Case {
                        scrut: Box::new(occ),
                        arms: vec![CaseArm {
                            con: c,
                            binder: None,
                            rhs,
                        }],
                        default: Some(Box::new(fail.clone())),
                    }
                    .at(span));
                }
                let n = self.bind_val(x);
                let body = succ(self)?;
                Ok(CExpr::Let(n, Box::new(occ), Box::new(body)).at(span))
            }
            Pat::Int(n) => self.literal_test(occ, CExpr::Lit(Lit::Int(*n)).at(span), fail, succ),
            Pat::Bool(b) => self.literal_test(occ, CExpr::Lit(Lit::Bool(*b)).at(span), fail, succ),
            Pat::Str(s) => self.literal_test(
                occ,
                CExpr::Lit(Lit::Str(Rc::from(s.as_str()))).at(span),
                fail,
                succ,
            ),
            Pat::Tuple(ps) => {
                let arity = ps.len();
                let occs: Vec<(CExprS, ast::PatS)> = ps
                    .iter()
                    .enumerate()
                    .map(|(index, p)| {
                        (
                            CExpr::Proj {
                                index,
                                arity,
                                tuple: Box::new(occ.clone()),
                            }
                            .at(p.span),
                            p.clone(),
                        )
                    })
                    .collect();
                self.pats_test(&occs, 0, fail, succ)
            }
            Pat::Con(cname, argp) => {
                let Some(Binding::Con(c)) = self.lookup(cname).cloned() else {
                    return Err(self.err(format!("`{cname}` is not a known constructor"), span));
                };
                if !self.data.con(c).has_arg() {
                    return Err(self.err(format!("constructor `{cname}` takes no argument"), span));
                }
                let w = self.fresh("$w");
                let wocc = CExpr::Var(w.clone()).at(span);
                let inner = self.pat_test(wocc, argp, fail, succ)?;
                Ok(CExpr::Case {
                    scrut: Box::new(occ),
                    arms: vec![CaseArm {
                        con: c,
                        binder: Some(w),
                        rhs: inner,
                    }],
                    default: Some(Box::new(fail.clone())),
                }
                .at(span))
            }
            Pat::Cons(h, t) => {
                let w = self.fresh("$w");
                let wocc = CExpr::Var(w.clone()).at(span);
                let occs = vec![
                    (
                        CExpr::Proj {
                            index: 0,
                            arity: 2,
                            tuple: Box::new(wocc.clone()),
                        }
                        .at(h.span),
                        (**h).clone(),
                    ),
                    (
                        CExpr::Proj {
                            index: 1,
                            arity: 2,
                            tuple: Box::new(wocc),
                        }
                        .at(t.span),
                        (**t).clone(),
                    ),
                ];
                let inner = self.pats_test(&occs, 0, fail, succ)?;
                Ok(CExpr::Case {
                    scrut: Box::new(occ),
                    arms: vec![CaseArm {
                        con: CONS,
                        binder: Some(w),
                        rhs: inner,
                    }],
                    default: Some(Box::new(fail.clone())),
                }
                .at(span))
            }
            Pat::Ascribe(inner, ty) => {
                let span = occ.span;
                let constrained = CExpr::Ascribe(Box::new(occ), ty.clone()).at(span);
                self.pat_test(constrained, inner, fail, succ)
            }
            Pat::List(ps) => {
                // Desugar `[p1, ..., pn]` to `p1 :: ... :: pn :: nil`.
                let mut desugared = Spanned::new(Pat::Var("nil".to_string()), span);
                for p in ps.iter().rev() {
                    desugared =
                        Spanned::new(Pat::Cons(Box::new(p.clone()), Box::new(desugared)), span);
                }
                self.pat_test(occ, &desugared, fail, succ)
            }
        }
    }

    fn literal_test(
        &mut self,
        occ: CExprS,
        lit: CExprS,
        fail: &CExprS,
        succ: &mut dyn FnMut(&mut Self) -> Result<CExprS, Diagnostic>,
    ) -> Result<CExprS, Diagnostic> {
        let span = occ.span;
        let body = succ(self)?;
        Ok(CExpr::If(
            Box::new(CExpr::Prim(Prim::Eq, vec![occ, lit]).at(span)),
            Box::new(body),
            Box::new(fail.clone()),
        )
        .at(span))
    }

    fn pats_test(
        &mut self,
        items: &[(CExprS, ast::PatS)],
        idx: usize,
        fail: &CExprS,
        succ: &mut dyn FnMut(&mut Self) -> Result<CExprS, Diagnostic>,
    ) -> Result<CExprS, Diagnostic> {
        if idx == items.len() {
            return succ(self);
        }
        let (occ, pat) = items[idx].clone();
        self.pat_test(occ, &pat, fail, &mut |this| {
            this.pats_test(items, idx + 1, fail, succ)
        })
    }
}

impl ConResolver for Elab {
    fn resolve_con(&self, name: &str) -> Option<ConId> {
        match self.lookup(name) {
            Some(Binding::Con(c)) => Some(*c),
            _ => None,
        }
    }

    fn data_env(&self) -> &DataEnv {
        &self.data
    }
}

/// Collects pattern-bound variable names in left-to-right order.
fn collect_pattern_vars(elab: &Elab, pat: &ast::PatS, out: &mut Vec<String>) {
    match &pat.node {
        Pat::Var(x) if !elab.is_constructor(x) => {
            out.push(x.clone());
        }
        Pat::Tuple(ps) | Pat::List(ps) => {
            for p in ps {
                collect_pattern_vars(elab, p, out);
            }
        }
        Pat::Cons(h, t) => {
            collect_pattern_vars(elab, h, out);
            collect_pattern_vars(elab, t, out);
        }
        Pat::Con(_, p) | Pat::Ascribe(p, _) => collect_pattern_vars(elab, p, out),
        _ => {}
    }
}

fn wrap_lets(binds: Vec<(Name, CExprS)>, body: CExprS) -> CExprS {
    let mut acc = body;
    for (n, e) in binds.into_iter().rev() {
        let span = acc.span;
        acc = CExpr::Let(n, Box::new(e), Box::new(acc)).at(span);
    }
    acc
}

/// Wraps a core declaration around a body expression.
pub fn wrap_decl(d: CoreDecl, body: CExprS, span: Span) -> CExprS {
    match d {
        CoreDecl::Val(n, e) => CExpr::Let(n, Box::new(e), Box::new(body)).at(span),
        CoreDecl::Fun(defs) => CExpr::LetRec(defs, Box::new(body)).at(span),
        CoreDecl::Cogen(n, e) => CExpr::LetCogen(n, Box::new(e), Box::new(body)).at(span),
        CoreDecl::Expr(e) => {
            // Evaluate for effect; the binder is unused.
            let n = Name::dummy_for_seq();
            CExpr::Let(n, Box::new(e), Box::new(body)).at(span)
        }
    }
}

impl Name {
    /// A reserved name used when sequencing effect-only declarations.
    /// Ids `u32::MAX` downwards are never produced by [`NameGen`], so the
    /// name cannot collide.
    fn dummy_for_seq() -> Name {
        // NameGen ids count up from zero; reserve the maximum for this.
        // Safe because a program would need 2^32 binders to collide.
        Name::synthetic(u32::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlbox_syntax::parser::{parse_expr, parse_program};

    fn elab(src: &str) -> CExprS {
        let e = parse_expr(src).unwrap();
        Elab::new().elab_expr(&e).unwrap()
    }

    fn elab_err(src: &str) -> Diagnostic {
        let e = parse_expr(src).unwrap();
        Elab::new().elab_expr(&e).unwrap_err()
    }

    #[test]
    fn literals_elaborate() {
        assert!(matches!(elab("42").node, CExpr::Lit(Lit::Int(42))));
        assert!(matches!(elab("()").node, CExpr::Lit(Lit::Unit)));
    }

    #[test]
    fn unbound_identifier_is_reported() {
        let d = elab_err("nonexistent");
        assert!(d.message.contains("unbound identifier"));
    }

    #[test]
    fn nil_is_a_constructor() {
        assert!(matches!(elab("nil").node, CExpr::Con(c, None) if c == NIL));
    }

    #[test]
    fn list_literal_desugars_to_cons() {
        match elab("[1, 2]").node {
            CExpr::Con(c, Some(payload)) => {
                assert_eq!(c, CONS);
                assert!(matches!(payload.node, CExpr::Tuple(_)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn andalso_desugars_to_if() {
        assert!(matches!(
            elab("true andalso false").node,
            CExpr::If(_, _, _)
        ));
    }

    #[test]
    fn builtin_application_becomes_prim() {
        match elab("not true").node {
            CExpr::Prim(Prim::Not, args) => assert_eq!(args.len(), 1),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn builtin_tuple_application_unpacks() {
        let e = elab("fn a => sub (a, 0)");
        let CExpr::Lam(_, body) = e.node else {
            panic!()
        };
        match body.node {
            CExpr::Prim(Prim::ArrSub, args) => assert_eq!(args.len(), 2),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn builtin_as_value_eta_expands() {
        assert!(matches!(elab("not").node, CExpr::Lam(_, _)));
    }

    #[test]
    fn fn_with_tuple_pattern_uses_projections() {
        let e = elab("fn (x, y) => x + y");
        let CExpr::Lam(_, body) = e.node else {
            panic!()
        };
        // Two lets binding projections.
        assert!(matches!(body.node, CExpr::Let(_, _, _)));
    }

    #[test]
    fn shadowing_resolves_to_innermost() {
        // let val x = 1 in let val x = 2 in x end end — inner x.
        let e = elab("let val x = 1 in let val x = 2 in x end end");
        // outermost let binds x#a, inner binds x#b, body var must be x#b.
        let CExpr::Let(_, _, inner) = e.node else {
            panic!()
        };
        let CExpr::Let(n2, _, body) = inner.node else {
            panic!()
        };
        let CExpr::Var(used) = body.node else {
            panic!()
        };
        assert_eq!(used, n2);
    }

    #[test]
    fn cogen_use_is_codevar() {
        let e = elab("fn c => let cogen u = c in u end");
        let CExpr::Lam(_, body) = e.node else {
            panic!()
        };
        let CExpr::LetCogen(u, _, inner) = body.node else {
            panic!("expected LetCogen, got {body:?}")
        };
        assert!(matches!(inner.node, CExpr::CodeVar(n) if n == u));
    }

    #[test]
    fn case_on_constructors_dispatches() {
        let p =
            parse_program("datatype t = A | B of int\nval r = fn x => case x of A => 0 | B n => n")
                .unwrap();
        let mut elab = Elab::new();
        let decls = elab.elab_program(&p).unwrap();
        assert_eq!(decls.len(), 1); // datatype contributes no core decl
    }

    #[test]
    fn clausal_fun_elaborates() {
        let p = parse_program(
            "fun evalPoly (x, nil) = 0 | evalPoly (x, a::p) = a + (x * evalPoly (x, p))",
        )
        .unwrap();
        let mut elab = Elab::new();
        let decls = elab.elab_program(&p).unwrap();
        assert_eq!(decls.len(), 1);
        assert!(matches!(&decls[0], CoreDecl::Fun(defs) if defs.len() == 1));
    }

    #[test]
    fn mutual_recursion_sees_both_names() {
        let p = parse_program(
            "fun even n = if n = 0 then true else odd (n - 1) and odd n = if n = 0 then false else even (n - 1)",
        )
        .unwrap();
        let decls = Elab::new().elab_program(&p).unwrap();
        assert!(matches!(&decls[0], CoreDecl::Fun(defs) if defs.len() == 2));
    }

    #[test]
    fn val_tuple_pattern_produces_projection_binds() {
        let p = parse_program("val (a, b) = (1, 2)\nval s = a + b").unwrap();
        let decls = Elab::new().elab_program(&p).unwrap();
        // root bind + 2 projections + final val
        assert!(decls.len() >= 4);
    }

    #[test]
    fn constructor_arity_errors() {
        let p = parse_program("datatype t = B of int\nval x = B").unwrap();
        // Eta-expansion makes bare `B` legal.
        assert!(Elab::new().elab_program(&p).is_ok());
        let p = parse_program("datatype t = A\nval x = A 3").unwrap();
        assert!(Elab::new().elab_program(&p).is_err());
    }

    #[test]
    fn nullary_constructor_pattern_requires_no_arg() {
        let p = parse_program("datatype t = B of int\nval f = fn x => case x of B => 1").unwrap();
        assert!(Elab::new().elab_program(&p).is_err());
    }

    #[test]
    fn literal_patterns_become_equality_tests() {
        let e = elab("fn x => case x of 0 => 1 | _ => 2");
        let CExpr::Lam(_, body) = e.node else {
            panic!()
        };
        // Outer structure: Let of the continuation, then If(Eq ...).
        fn contains_eq_if(e: &CExprS) -> bool {
            match &e.node {
                CExpr::If(c, _, _) => {
                    matches!(c.node, CExpr::Prim(Prim::Eq, _))
                }
                CExpr::Let(_, _, b) => contains_eq_if(b),
                _ => false,
            }
        }
        assert!(contains_eq_if(&body));
    }

    #[test]
    fn code_and_lift_elaborate() {
        let e = elab("fn c => let cogen f = c in code (fn x => f x) end");
        let CExpr::Lam(_, body) = e.node else {
            panic!()
        };
        let CExpr::LetCogen(_, _, inner) = body.node else {
            panic!()
        };
        assert!(matches!(inner.node, CExpr::Code(_)));
        assert!(matches!(elab("lift 3").node, CExpr::Lift(_)));
    }
}
