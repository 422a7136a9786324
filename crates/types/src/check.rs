//! The modal type checker: Hindley–Milner inference with let-polymorphism
//! (value restriction) over the dual-context typing discipline of Figure 2.
//!
//! Two contexts are threaded: Γ (value variables) and Δ (code variables).
//! The critical staging rule: checking `code M` **clears Γ** — only code
//! variables and variables bound inside `M` may occur — so a staging error
//! is a type error, exactly as the paper advertises.

use crate::ty::{generalize, instantiate, unify, Scheme, TvGen, TyNames, Type};
use mlbox_ir::core::{CExpr, CExprS, CoreDecl, Lit, Prim};
use mlbox_ir::data::{ConId, DataEnv, CONS, LIST, NIL};
use mlbox_ir::elab::TypeAbbrev;
use mlbox_ir::name::Name;
use mlbox_syntax::ast as surface;
use mlbox_syntax::diag::{Diagnostic, Phase};
use mlbox_syntax::span::Span;
use std::collections::HashMap;
use std::rc::Rc;

/// Shorthand for type-checking failure.
pub type Result<T> = std::result::Result<T, Diagnostic>;

/// The persistent checker state (usable incrementally, one declaration at
/// a time).
///
/// A clone shares the `Rc`s of the schemes in scope. That is sound only
/// while [`Checker::is_closed`] holds: a unification variable shared by
/// two checkers could be solved by one behind the other's back.
#[derive(Debug, Clone, Default)]
pub struct Checker {
    gamma: Vec<(Name, Scheme)>,
    delta: Vec<(Name, Scheme)>,
    gen: TvGen,
}

/// Read-only context the checker needs from elaboration.
#[derive(Debug, Clone, Copy)]
pub struct TypeCtx<'a> {
    /// Datatype environment.
    pub data: &'a DataEnv,
    /// `type` abbreviations.
    pub abbrevs: &'a HashMap<String, TypeAbbrev>,
}

impl Checker {
    /// A fresh checker with empty contexts.
    pub fn new() -> Checker {
        Checker::default()
    }

    /// Whether no scheme in scope mentions a unification variable: each
    /// is fully generalized, or monomorphic over closed types.
    pub fn is_closed(&self) -> bool {
        self.gamma
            .iter()
            .chain(&self.delta)
            .all(|(_, s)| s.is_closed())
    }

    fn err(&self, msg: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::new(Phase::Type, msg, span)
    }

    /// The scheme a binding of `t` gets under the value restriction:
    /// generalized when the right-hand side is a syntactic value;
    /// otherwise monomorphic, with its variables lowered to the current
    /// level (unifying with a fresh variable of this level does that), so
    /// that no later generalization at a deeper level quantifies them.
    fn bind(&mut self, t: &Type, value: bool, data: &DataEnv) -> Scheme {
        if value {
            return generalize(t, self.gen.level());
        }
        unify(&self.gen.fresh(), t, data).expect("a fresh variable unifies with any type");
        Scheme::mono(t.clone())
    }

    fn unify_at(&self, a: &Type, b: &Type, span: Span, tcx: TypeCtx<'_>) -> Result<()> {
        unify(a, b, tcx.data).map_err(|e| {
            let msg = if e.occurs {
                format!(
                    "cannot construct the infinite type {} = {}",
                    e.expected, e.found
                )
            } else {
                format!("type mismatch: expected {}, found {}", e.expected, e.found)
            };
            self.err(msg, span)
        })
    }

    fn lookup_gamma(&self, n: &Name) -> Option<&Scheme> {
        self.gamma
            .iter()
            .rev()
            .find(|(m, _)| m == n)
            .map(|(_, s)| s)
    }

    fn lookup_delta(&self, n: &Name) -> Option<&Scheme> {
        self.delta
            .iter()
            .rev()
            .find(|(m, _)| m == n)
            .map(|(_, s)| s)
    }

    /// Type-checks a top-level declaration, extending Γ/Δ. Returns the
    /// declaration's principal type (for display).
    ///
    /// # Errors
    ///
    /// Returns a diagnostic on any type or staging error.
    pub fn check_decl(&mut self, d: &CoreDecl, tcx: TypeCtx<'_>) -> Result<Type> {
        match d {
            CoreDecl::Val(n, e) => {
                self.gen.enter_level();
                let t = self.infer(e, tcx)?;
                self.gen.leave_level();
                let scheme = self.bind(&t, is_value(e), tcx.data);
                self.gamma.push((n.clone(), scheme));
                Ok(t)
            }
            CoreDecl::Cogen(u, e) => {
                self.gen.enter_level();
                let t = self.infer(e, tcx)?;
                let inner = self.gen.fresh();
                self.unify_at(&t, &Type::Box(Rc::new(inner.clone())), span_of(e), tcx)?;
                self.gen.leave_level();
                let scheme = self.bind(&inner, is_value(e), tcx.data);
                self.delta.push((u.clone(), scheme));
                Ok(t)
            }
            CoreDecl::Fun(defs) => self
                .check_letrec(defs, tcx)
                .map(|mut ts| ts.pop().unwrap_or(Type::Unit)),
            CoreDecl::Expr(e) => {
                // As `val it = e`: generalized when `e` is a value.
                self.gen.enter_level();
                let t = self.infer(e, tcx)?;
                self.gen.leave_level();
                self.bind(&t, is_value(e), tcx.data);
                Ok(t)
            }
        }
    }

    /// Type-checks and binds a recursive group; returns the generalized
    /// types in definition order.
    fn check_letrec(
        &mut self,
        defs: &[mlbox_ir::core::FunDef],
        tcx: TypeCtx<'_>,
    ) -> Result<Vec<Type>> {
        self.gen.enter_level();
        // Monomorphic assumptions for the group.
        let assumptions: Vec<Type> = defs.iter().map(|_| self.gen.fresh()).collect();
        let mark = self.gamma.len();
        for (def, t) in defs.iter().zip(&assumptions) {
            self.gamma.push((def.name.clone(), Scheme::mono(t.clone())));
        }
        for (def, t) in defs.iter().zip(&assumptions) {
            let param_t = self.gen.fresh();
            let inner_mark = self.gamma.len();
            self.gamma
                .push((def.param.clone(), Scheme::mono(param_t.clone())));
            let body_t = self.infer(&def.body, tcx)?;
            self.gamma.truncate(inner_mark);
            let fun_t = Type::Arrow(Rc::new(param_t), Rc::new(body_t));
            self.unify_at(&fun_t, t, span_of(&def.body), tcx)?;
        }
        self.gen.leave_level();
        // Rebind with generalized schemes.
        self.gamma.truncate(mark);
        let mut out = Vec::with_capacity(defs.len());
        for (def, t) in defs.iter().zip(&assumptions) {
            let scheme = generalize(t, self.gen.level());
            self.gamma.push((def.name.clone(), scheme));
            out.push(t.clone());
        }
        Ok(out)
    }

    /// Infers the type of an expression in the current contexts.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic on any type or staging error.
    pub fn infer(&mut self, e: &CExprS, tcx: TypeCtx<'_>) -> Result<Type> {
        let span = e.span;
        match &e.node {
            CExpr::Lit(l) => Ok(match l {
                Lit::Int(_) => Type::Int,
                Lit::Bool(_) => Type::Bool,
                Lit::Str(_) => Type::Str,
                Lit::Unit => Type::Unit,
            }),
            CExpr::Var(n) => {
                let scheme = self.lookup_gamma(n).cloned().ok_or_else(|| {
                    self.err(
                        format!(
                            "value variable `{}` is not in scope here (it may be from an \
                             earlier stage — under `code`, only code variables are visible; \
                             bind it with `let cogen` or stage it with `lift`)",
                            n.text()
                        ),
                        span,
                    )
                })?;
                Ok(instantiate(&scheme, &mut self.gen))
            }
            CExpr::CodeVar(u) => {
                let scheme = self.lookup_delta(u).cloned().ok_or_else(|| {
                    self.err(format!("unbound code variable `{}`", u.text()), span)
                })?;
                Ok(instantiate(&scheme, &mut self.gen))
            }
            CExpr::Lam(p, body) => {
                let param_t = self.gen.fresh();
                let mark = self.gamma.len();
                self.gamma.push((p.clone(), Scheme::mono(param_t.clone())));
                let body_t = self.infer(body, tcx)?;
                self.gamma.truncate(mark);
                Ok(Type::Arrow(Rc::new(param_t), Rc::new(body_t)))
            }
            CExpr::App(f, a) => {
                let f_t = self.infer(f, tcx)?;
                let a_t = self.infer(a, tcx)?;
                let r = self.gen.fresh();
                self.unify_at(
                    &f_t,
                    &Type::Arrow(Rc::new(a_t), Rc::new(r.clone())),
                    span,
                    tcx,
                )?;
                Ok(r)
            }
            CExpr::Prim(p, args) => {
                let mut arg_ts = Vec::with_capacity(args.len());
                for a in args {
                    arg_ts.push(self.infer(a, tcx)?);
                }
                self.prim_type(*p, &arg_ts, args, span, tcx)
            }
            CExpr::If(c, t, f) => {
                let c_t = self.infer(c, tcx)?;
                self.unify_at(&c_t, &Type::Bool, span_of(c), tcx)?;
                let t_t = self.infer(t, tcx)?;
                let f_t = self.infer(f, tcx)?;
                self.unify_at(&t_t, &f_t, span, tcx)?;
                Ok(t_t)
            }
            CExpr::Let(n, rhs, body) => {
                self.gen.enter_level();
                let rhs_t = self.infer(rhs, tcx)?;
                self.gen.leave_level();
                let scheme = self.bind(&rhs_t, is_value(rhs), tcx.data);
                let mark = self.gamma.len();
                self.gamma.push((n.clone(), scheme));
                let body_t = self.infer(body, tcx)?;
                self.gamma.truncate(mark);
                Ok(body_t)
            }
            CExpr::LetRec(defs, body) => {
                let mark = self.gamma.len();
                self.check_letrec(defs, tcx)?;
                let body_t = self.infer(body, tcx)?;
                self.gamma.truncate(mark);
                Ok(body_t)
            }
            CExpr::Tuple(parts) => {
                let mut ts = Vec::with_capacity(parts.len());
                for p in parts {
                    ts.push(self.infer(p, tcx)?);
                }
                Ok(Type::Tuple(Rc::new(ts)))
            }
            CExpr::Proj {
                index,
                arity,
                tuple,
            } => {
                let tup_t = self.infer(tuple, tcx)?;
                let parts: Vec<Type> = (0..*arity).map(|_| self.gen.fresh()).collect();
                let want = Type::Tuple(Rc::new(parts.clone()));
                self.unify_at(&tup_t, &want, span, tcx)?;
                Ok(parts[*index].clone())
            }
            CExpr::Con(c, payload) => {
                let (payload_t, result_t) = self.con_type(*c, tcx, span)?;
                match (payload, payload_t) {
                    (None, None) => Ok(result_t),
                    (Some(p), Some(want)) => {
                        let got = self.infer(p, tcx)?;
                        self.unify_at(&got, &want, span_of(p), tcx)?;
                        Ok(result_t)
                    }
                    (None, Some(_)) => {
                        Err(self.err("constructor requires a payload but none was given", span))
                    }
                    (Some(_), None) => {
                        Err(self.err("constructor takes no payload but one was given", span))
                    }
                }
            }
            CExpr::Case {
                scrut,
                arms,
                default,
            } => {
                let scrut_t = self.infer(scrut, tcx)?;
                let result_t = self.gen.fresh();
                // All arms must belong to one datatype; unify the scrutinee
                // with it, instantiated once.
                let first = arms
                    .first()
                    .ok_or_else(|| self.err("case expression has no arms", span))?;
                let d = tcx.data.con(first.con).data;
                let args: Vec<Type> = (0..tcx
                    .data
                    .datatype(d)
                    .tyvars
                    .len()
                    .max(usize::from(d == LIST)))
                    .map(|_| self.gen.fresh())
                    .collect();
                let data_t = Type::Data(d, Rc::new(args.clone()));
                self.unify_at(&scrut_t, &data_t, span_of(scrut), tcx)?;
                for arm in arms {
                    let info = tcx.data.con(arm.con);
                    if info.data != d {
                        return Err(self.err(
                            format!(
                                "constructor `{}` belongs to datatype `{}`, not `{}`",
                                info.name,
                                tcx.data.datatype(info.data).name,
                                tcx.data.datatype(d).name
                            ),
                            span_of(&arm.rhs),
                        ));
                    }
                    let payload_t = self.con_payload(arm.con, &args, tcx, span)?;
                    let mark = self.gamma.len();
                    match (&arm.binder, payload_t) {
                        (Some(b), Some(t)) => {
                            self.gamma.push((b.clone(), Scheme::mono(t)));
                        }
                        (Some(b), None) => {
                            self.gamma.push((b.clone(), Scheme::mono(Type::Unit)));
                        }
                        _ => {}
                    }
                    let rhs_t = self.infer(&arm.rhs, tcx)?;
                    self.gamma.truncate(mark);
                    self.unify_at(&rhs_t, &result_t, span_of(&arm.rhs), tcx)?;
                }
                if let Some(dflt) = default {
                    let t = self.infer(dflt, tcx)?;
                    self.unify_at(&t, &result_t, span_of(dflt), tcx)?;
                }
                Ok(result_t)
            }
            CExpr::Code(body) => {
                // Clear Γ — the staging restriction of Figure 2.
                let saved = std::mem::take(&mut self.gamma);
                let result = self.infer(body, tcx);
                self.gamma = saved;
                Ok(Type::Box(Rc::new(result?)))
            }
            CExpr::Lift(inner) => {
                let t = self.infer(inner, tcx)?;
                Ok(Type::Box(Rc::new(t)))
            }
            CExpr::LetCogen(u, m, n) => {
                self.gen.enter_level();
                let m_t = self.infer(m, tcx)?;
                let inner = self.gen.fresh();
                self.unify_at(&m_t, &Type::Box(Rc::new(inner.clone())), span_of(m), tcx)?;
                self.gen.leave_level();
                let scheme = self.bind(&inner, is_value(m), tcx.data);
                let mark = self.delta.len();
                self.delta.push((u.clone(), scheme));
                let n_t = self.infer(n, tcx)?;
                self.delta.truncate(mark);
                Ok(n_t)
            }
            CExpr::Fail(_) => Ok(self.gen.fresh()),
            CExpr::Ascribe(inner, ty) => {
                let t = self.infer(inner, tcx)?;
                let mut scope = HashMap::new();
                let want = self.convert_surface(ty, &mut scope, tcx)?;
                self.unify_at(&t, &want, span, tcx)?;
                Ok(t)
            }
        }
    }

    /// Instantiated payload/result types for a constructor.
    fn con_type(&mut self, c: ConId, tcx: TypeCtx<'_>, span: Span) -> Result<(Option<Type>, Type)> {
        let info = tcx.data.con(c);
        let d = info.data;
        let nvars = tcx.data.datatype(d).tyvars.len();
        let args: Vec<Type> = (0..nvars).map(|_| self.gen.fresh()).collect();
        let payload = self.con_payload(c, &args, tcx, span)?;
        Ok((payload, Type::Data(d, Rc::new(args))))
    }

    /// Payload type of a constructor at the given datatype arguments.
    fn con_payload(
        &mut self,
        c: ConId,
        args: &[Type],
        tcx: TypeCtx<'_>,
        span: Span,
    ) -> Result<Option<Type>> {
        if c == CONS {
            // :: of 'a * 'a list
            let elem = args[0].clone();
            return Ok(Some(Type::Tuple(Rc::new(vec![
                elem.clone(),
                Type::Data(LIST, Rc::new(vec![elem])),
            ]))));
        }
        if c == NIL {
            return Ok(None);
        }
        let info = tcx.data.con(c).clone();
        match &info.arg {
            None => Ok(None),
            Some(ty) => {
                let tyvars = &tcx.data.datatype(info.data).tyvars;
                let mut scope: HashMap<String, Type> =
                    tyvars.iter().cloned().zip(args.iter().cloned()).collect();
                let t = self
                    .convert_surface(ty, &mut scope, tcx)
                    .map_err(|d| Diagnostic::new(Phase::Type, d.message, span))?;
                Ok(Some(t))
            }
        }
    }

    /// Converts a surface type to a semantic type. Unknown type variables
    /// become fresh unification variables (recorded in `scope`).
    fn convert_surface(
        &mut self,
        ty: &surface::TyS,
        scope: &mut HashMap<String, Type>,
        tcx: TypeCtx<'_>,
    ) -> Result<Type> {
        let span = ty.span;
        match &ty.node {
            surface::Ty::Var(v) => {
                if let Some(t) = scope.get(v) {
                    return Ok(t.clone());
                }
                let t = self.gen.fresh();
                scope.insert(v.clone(), t.clone());
                Ok(t)
            }
            surface::Ty::Arrow(a, b) => Ok(Type::Arrow(
                Rc::new(self.convert_surface(a, scope, tcx)?),
                Rc::new(self.convert_surface(b, scope, tcx)?),
            )),
            surface::Ty::Tuple(parts) => {
                let mut ts = Vec::with_capacity(parts.len());
                for p in parts {
                    ts.push(self.convert_surface(p, scope, tcx)?);
                }
                Ok(Type::Tuple(Rc::new(ts)))
            }
            surface::Ty::Box(inner) => {
                Ok(Type::Box(Rc::new(self.convert_surface(inner, scope, tcx)?)))
            }
            surface::Ty::Con(name, args) => {
                let mut arg_ts = Vec::with_capacity(args.len());
                for a in args {
                    arg_ts.push(self.convert_surface(a, scope, tcx)?);
                }
                match (name.as_str(), arg_ts.len()) {
                    ("int", 0) => Ok(Type::Int),
                    ("bool", 0) => Ok(Type::Bool),
                    ("string", 0) => Ok(Type::Str),
                    ("unit", 0) => Ok(Type::Unit),
                    ("ref", 1) => Ok(Type::Ref(Rc::new(arg_ts.pop().expect("one arg")))),
                    ("array", 1) => Ok(Type::Array(Rc::new(arg_ts.pop().expect("one arg")))),
                    _ => {
                        // `type` abbreviation?
                        if let Some(ab) = tcx.abbrevs.get(name) {
                            if ab.tyvars.len() != arg_ts.len() {
                                return Err(self.err(
                                    format!(
                                        "type abbreviation `{name}` expects {} argument(s), \
                                         got {}",
                                        ab.tyvars.len(),
                                        arg_ts.len()
                                    ),
                                    span,
                                ));
                            }
                            let mut inner_scope: HashMap<String, Type> = ab
                                .tyvars
                                .iter()
                                .cloned()
                                .zip(arg_ts.iter().cloned())
                                .collect();
                            return self.convert_surface(&ab.body, &mut inner_scope, tcx);
                        }
                        // Datatype (latest declaration with this name wins).
                        let found = tcx
                            .data
                            .datatypes()
                            .filter(|(_, info)| info.name == *name)
                            .map(|(id, info)| (id, info.tyvars.len()))
                            .last();
                        match found {
                            Some((id, nvars)) if nvars == arg_ts.len() => {
                                Ok(Type::Data(id, Rc::new(arg_ts)))
                            }
                            Some((_, nvars)) => Err(self.err(
                                format!(
                                    "datatype `{name}` expects {nvars} argument(s), got {}",
                                    arg_ts.len()
                                ),
                                span,
                            )),
                            None => {
                                Err(self.err(format!("unknown type constructor `{name}`"), span))
                            }
                        }
                    }
                }
            }
        }
    }

    fn prim_type(
        &mut self,
        p: Prim,
        arg_ts: &[Type],
        args: &[CExprS],
        span: Span,
        tcx: TypeCtx<'_>,
    ) -> Result<Type> {
        let at = |i: usize| -> Span { args.get(i).map_or(span, span_of) };
        let want = |this: &mut Self, i: usize, t: Type| -> Result<()> {
            this.unify_at(&arg_ts[i], &t, at(i), tcx)
        };
        match p {
            Prim::Add | Prim::Sub | Prim::Mul | Prim::Div | Prim::Mod | Prim::BitAnd => {
                want(self, 0, Type::Int)?;
                want(self, 1, Type::Int)?;
                Ok(Type::Int)
            }
            Prim::Neg => {
                want(self, 0, Type::Int)?;
                Ok(Type::Int)
            }
            Prim::Eq | Prim::Ne => {
                self.unify_at(&arg_ts[0], &arg_ts[1], span, tcx)?;
                Ok(Type::Bool)
            }
            Prim::Lt | Prim::Le | Prim::Gt | Prim::Ge => {
                want(self, 0, Type::Int)?;
                want(self, 1, Type::Int)?;
                Ok(Type::Bool)
            }
            Prim::Concat => {
                want(self, 0, Type::Str)?;
                want(self, 1, Type::Str)?;
                Ok(Type::Str)
            }
            Prim::Not => {
                want(self, 0, Type::Bool)?;
                Ok(Type::Bool)
            }
            Prim::StrSize => {
                want(self, 0, Type::Str)?;
                Ok(Type::Int)
            }
            Prim::IntToString => {
                want(self, 0, Type::Int)?;
                Ok(Type::Str)
            }
            Prim::Print => {
                want(self, 0, Type::Str)?;
                Ok(Type::Unit)
            }
            Prim::Ref => Ok(Type::Ref(Rc::new(arg_ts[0].clone()))),
            Prim::Deref => {
                let inner = self.gen.fresh();
                want(self, 0, Type::Ref(Rc::new(inner.clone())))?;
                Ok(inner)
            }
            Prim::Assign => {
                let inner = arg_ts[1].clone();
                want(self, 0, Type::Ref(Rc::new(inner)))?;
                Ok(Type::Unit)
            }
            Prim::MkArray => {
                want(self, 0, Type::Int)?;
                Ok(Type::Array(Rc::new(arg_ts[1].clone())))
            }
            Prim::ArrSub => {
                let inner = self.gen.fresh();
                want(self, 0, Type::Array(Rc::new(inner.clone())))?;
                want(self, 1, Type::Int)?;
                Ok(inner)
            }
            Prim::ArrUpdate => {
                let inner = arg_ts[2].clone();
                want(self, 0, Type::Array(Rc::new(inner)))?;
                want(self, 1, Type::Int)?;
                Ok(Type::Unit)
            }
            Prim::ArrLen => {
                let inner = self.gen.fresh();
                want(self, 0, Type::Array(Rc::new(inner)))?;
                Ok(Type::Int)
            }
        }
    }

    /// Renders a declaration's principal type for display: the
    /// variables the declaration generalized print as `'a`, `'b`, …, the
    /// others as `'_a`, lettered in order of first appearance.
    pub fn display_type(&self, t: &Type, data: &DataEnv) -> String {
        TyNames::generalized_above(self.gen.level()).render(t, data)
    }
}

fn span_of(e: &CExprS) -> Span {
    e.span
}

/// The value restriction: only syntactic values may be generalized.
fn is_value(e: &CExprS) -> bool {
    match &e.node {
        CExpr::Lit(_) | CExpr::Var(_) | CExpr::Lam(_, _) | CExpr::Code(_) | CExpr::Fail(_) => true,
        CExpr::Tuple(parts) => parts.iter().all(is_value),
        CExpr::Con(_, payload) => payload.as_deref().is_none_or(is_value),
        CExpr::Ascribe(inner, _) => is_value(inner),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlbox_ir::elab::Elab;
    use mlbox_syntax::parser::{parse_expr, parse_program};

    fn infer_str(src: &str) -> std::result::Result<String, Diagnostic> {
        let e = parse_expr(src).unwrap();
        let mut elab = Elab::new();
        let core = elab.elab_expr(&e)?;
        let mut ck = Checker::new();
        let tcx = TypeCtx {
            data: &elab.data,
            abbrevs: &elab.abbrevs,
        };
        let t = ck.infer(&core, tcx)?;
        Ok(ck.display_type(&t, &elab.data))
    }

    fn infer_program(src: &str) -> std::result::Result<String, Diagnostic> {
        let p = parse_program(src).unwrap();
        let mut elab = Elab::new();
        let decls = elab.elab_program(&p)?;
        let mut ck = Checker::new();
        let mut last = "unit".to_string();
        for d in &decls {
            let tcx = TypeCtx {
                data: &elab.data,
                abbrevs: &elab.abbrevs,
            };
            let t = ck.check_decl(d, tcx)?;
            last = ck.display_type(&t, &elab.data);
        }
        Ok(last)
    }

    #[test]
    fn base_types() {
        assert_eq!(infer_str("1 + 2").unwrap(), "int");
        assert_eq!(infer_str("1 < 2").unwrap(), "bool");
        assert_eq!(infer_str("\"a\" ^ \"b\"").unwrap(), "string");
        assert_eq!(infer_str("()").unwrap(), "unit");
    }

    #[test]
    fn functions() {
        assert_eq!(infer_str("fn x => x + 1").unwrap(), "int -> int");
        assert_eq!(infer_str("(fn x => x) 3").unwrap(), "int");
    }

    #[test]
    fn let_polymorphism() {
        assert_eq!(
            infer_str("let val id = fn x => x in (id 1, id true) end").unwrap(),
            "int * bool"
        );
    }

    #[test]
    fn value_restriction_blocks_generalization() {
        // `(fn x => x) (fn y => y)` is not a value; its type stays mono.
        let r = infer_str("let val id = (fn x => x) (fn y => y) in (id 1, id true) end");
        assert!(r.is_err());
    }

    #[test]
    fn monomorphic_bindings_stay_monomorphic_in_later_declarations() {
        // `f` stores its argument in the monomorphic `r`, so `f` must
        // not be generalized either: `f 1` fixes the type for `f true`.
        let src = "val r = ref nil\nfun f x = (r := [x]; x)\nval a = f 1\nval b = f true";
        assert!(infer_program(src).is_err());
        let src = "let val r = ref nil val f = fn x => (r := [x]; x) in (f 1, f true) end";
        assert!(infer_str(src).is_err());
        let src = "let val r = ref nil val f = fn x => (r := [x]; x) in (f 1, f 2) end";
        assert_eq!(infer_str(src).unwrap(), "int * int");
    }

    #[test]
    fn code_type_is_box() {
        assert_eq!(infer_str("code (fn x => x + 1)").unwrap(), "(int -> int) $");
        assert_eq!(infer_str("lift 3").unwrap(), "int $");
    }

    #[test]
    fn staging_violation_is_a_type_error() {
        // The paper's central claim: a staging error becomes a type error.
        let r = infer_str("fn y => code (fn x => x + y)");
        let err = r.unwrap_err();
        assert!(err.message.contains("earlier stage"), "{}", err.message);
    }

    #[test]
    fn code_variables_are_visible_under_code() {
        // The tyvar numbering is unstable; check the shape.
        let t = infer_str("fn c => let cogen f = c in code (fn x => f (x + 0)) end").unwrap();
        assert!(t.contains("$ ->"), "{t}");
        assert!(t.ends_with('$'), "{t}");
    }

    #[test]
    fn eval_is_typeable() {
        // eval : □'a -> 'a, rendered '_N $ -> '_N.
        let t = infer_str("fn c => let cogen u = c in u end").unwrap();
        assert!(t.contains("$ ->"), "{t}");
        assert!(!t.ends_with('$'), "{t}");
    }

    #[test]
    fn comp_poly_type() {
        let t = infer_program(
            "fun compPoly p =\n\
             case p of nil => code (fn x => 0)\n\
             | a :: p' => let cogen f = compPoly p' cogen a' = lift a\n\
                          in code (fn x => a' + (x * f x)) end",
        )
        .unwrap();
        assert_eq!(t, "int list -> (int -> int) $");
    }

    #[test]
    fn datatypes_and_case_typing() {
        let t = infer_program(
            "datatype shape = Circle of int | Point\n\
             fun area s = case s of Circle r => r * r | Point => 0",
        )
        .unwrap();
        assert_eq!(t, "shape -> int");
    }

    #[test]
    fn polymorphic_datatypes() {
        let t = infer_program(
            "datatype 'a option = NONE | SOME of 'a\n\
             fun get x = case x of SOME v => v | NONE => 0",
        )
        .unwrap();
        assert_eq!(t, "int option -> int");
    }

    #[test]
    fn arm_from_wrong_datatype_rejected() {
        let r = infer_program(
            "datatype a = A\ndatatype b = B\n\
             fun f x = case x of A => 1 | B => 2",
        );
        assert!(r.is_err());
    }

    #[test]
    fn branches_must_agree() {
        assert!(infer_str("if true then 1 else false").is_err());
        assert!(infer_str("if 1 then 2 else 3").is_err());
    }

    #[test]
    fn occurs_check() {
        assert!(infer_str("fn x => x x").is_err());
    }

    #[test]
    fn refs_and_arrays_typing() {
        assert_eq!(infer_str("ref 1").unwrap(), "int ref");
        assert_eq!(infer_str("!(ref 1)").unwrap(), "int");
        assert_eq!(infer_str("array (3, true)").unwrap(), "bool array");
        assert_eq!(
            infer_str("fn a => sub (a, 0) + 1").unwrap(),
            "int array -> int"
        );
    }

    #[test]
    fn ascription_checks() {
        assert_eq!(infer_str("(fn x => x) : int -> int").unwrap(), "int -> int");
        assert!(infer_str("(1 : bool)").is_err());
    }

    #[test]
    fn type_abbreviations_expand() {
        let t = infer_program(
            "type poly = int list\nfun f p = case (p : poly) of nil => 0 | a :: r => a",
        )
        .unwrap();
        assert_eq!(t, "int list -> int");
    }

    #[test]
    fn multi_stage_box_box() {
        let t = infer_str("code (code 3)").unwrap();
        assert_eq!(t, "int $ $");
    }

    #[test]
    fn lift_inside_code() {
        let t = infer_str("code (fn a => lift (a + 1))").unwrap();
        assert_eq!(t, "(int -> int $) $");
    }

    #[test]
    fn equality_is_polymorphic() {
        assert_eq!(
            infer_str("fn x => fn y => x = y")
                .unwrap()
                .matches("->")
                .count(),
            2
        );
        assert_eq!(infer_str("[1] = [2]").unwrap(), "bool");
    }

    #[test]
    fn tuple_projection_via_patterns() {
        assert_eq!(
            infer_str("fn (a, b) => a + b").unwrap(),
            "(int * int) -> int"
        );
    }

    #[test]
    fn polymorphic_tables_pattern() {
        // The memoization table from the paper, with the value restriction
        // satisfied per instantiation site.
        let t = infer_program(
            "fun newTable u = ref nil\n\
             fun lookup (t, k) = case !t of nil => NONE | (k', v) :: r => if k = k' then SOME v else lookup (ref r, k)\n\
             and xxx u = u\n\
             datatype 'a option = NONE | SOME of 'a",
        );
        // option must be declared before use; rewritten below.
        assert!(t.is_err());
        let t = infer_program(
            "datatype 'a option = NONE | SOME of 'a\n\
             fun lookupIn (kvs, k) = case kvs of nil => NONE | (k', v) :: r => if k = k' then SOME v else lookupIn (r, k)",
        )
        .unwrap();
        assert!(t.contains("option"), "{t}");
    }
}
