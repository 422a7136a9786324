//! The two compilation relations of the paper's Figure 4, extended to the
//! full core IR.
//!
//! - [`compile_expr`] — the ordinary translation `[M]E`: code that maps an
//!   environment value (on top of the stack) to the value of `M`.
//! - [`compile_gen`] — the generating translation `[M]gen(E,LE)`: code
//!   that threads a generation state `(lenv, arena)` on top of the stack,
//!   appending the *specialized* instructions for `M` to the arena.
//!
//! Key rules (written `⟨A,B⟩` for `push; A; swap; B; cons`, and `ī` for
//! `emit(i)`):
//!
//! | source | ordinary | generating |
//! |---|---|---|
//! | `x` | `get(x,E)` | `get(x,LE)` emitted |
//! | `u` (code var) | `⟨get(u,E), arena⟩; app; call` | splice if early, emitted invoke if late |
//! | `λx.M` | `Cur([M])` | generate body into a fresh arena, `merge` |
//! | `M N` | `⟨[M],[N]⟩; app` | emitted pair + `app̄` |
//! | `code M` | `Cur([M]gen)` | closure insertion via `lift` (no nested emits) |
//! | `lift M` | `[M]; Cur(lift)` | `[M]gen; Cur(lift)` emitted |
//!
//! Compilation emits **flat code**: every function works through a
//! [`CodeBuilder`] targeting one [`CodeSeg`], and nested code (closure
//! bodies, branch arms, switch arms, recursive groups) is finished into
//! the segment as a block and referenced by [`ccam::seg::BlockId`] —
//! there is no tree of owned `Vec<Instr>`s at any point.

use crate::ctx::{Ctx, EnvMode, Kind, Layout};
use ccam::instr::{Instr, MergeSwitchSpec, PrimOp, SwitchArm, SwitchTable};
use ccam::seg::{CodeBuilder, CodeRef, CodeSeg};
use ccam::value::Value;
use mlbox_ir::core::{CExpr, CExprS, CoreDecl, Lit, Prim};
use mlbox_syntax::diag::{Diagnostic, Phase};
use mlbox_syntax::span::Span;
use std::rc::Rc;

/// Shorthand for compile-time failure.
pub type Result<T> = std::result::Result<T, Diagnostic>;

fn err(msg: impl Into<String>, span: Span) -> Diagnostic {
    Diagnostic::new(Phase::Compile, msg, span)
}

fn lit_value(l: &Lit) -> Value {
    match l {
        Lit::Int(n) => Value::Int(*n),
        Lit::Bool(b) => Value::Bool(*b),
        Lit::Str(s) => Value::str(&**s),
        Lit::Unit => Value::Unit,
    }
}

fn prim_op(p: Prim) -> PrimOp {
    match p {
        Prim::Add => PrimOp::Add,
        Prim::Sub => PrimOp::Sub,
        Prim::Mul => PrimOp::Mul,
        Prim::Div => PrimOp::Div,
        Prim::Mod => PrimOp::Mod,
        Prim::Neg => PrimOp::Neg,
        Prim::Eq => PrimOp::Eq,
        Prim::Ne => PrimOp::Ne,
        Prim::Lt => PrimOp::Lt,
        Prim::Le => PrimOp::Le,
        Prim::Gt => PrimOp::Gt,
        Prim::Ge => PrimOp::Ge,
        Prim::Concat => PrimOp::Concat,
        Prim::BitAnd => PrimOp::BitAnd,
        Prim::Not => PrimOp::Not,
        Prim::StrSize => PrimOp::StrSize,
        Prim::IntToString => PrimOp::IntToString,
        Prim::Print => PrimOp::Print,
        Prim::Ref => PrimOp::Ref,
        Prim::Deref => PrimOp::Deref,
        Prim::Assign => PrimOp::Assign,
        Prim::MkArray => PrimOp::MkArray,
        Prim::ArrSub => PrimOp::ArrSub,
        Prim::ArrUpdate => PrimOp::ArrUpdate,
        Prim::ArrLen => PrimOp::ArrLen,
    }
}

// ---------------------------------------------------------------------
// Ordinary translation [M]E
// ---------------------------------------------------------------------

/// Compiles `e` in context `ctx` to code mapping the environment value to
/// the value of `e`. The instructions are returned raw (for splicing into
/// a larger sequence); nested blocks have already been registered in
/// `seg`, so the result is only executable against that segment.
///
/// # Errors
///
/// Returns a diagnostic for variables that violate the staging discipline
/// (these are caught earlier by the type checker; the compiler re-checks
/// defensively).
pub fn compile_expr(e: &CExprS, ctx: &Ctx, seg: &CodeSeg) -> Result<Vec<Instr>> {
    let mut b = CodeBuilder::new(seg);
    expr_into(e, ctx, &mut b)?;
    Ok(b.into_instrs())
}

/// The environment-extension instruction for the mode: flat mode grows a
/// contiguous frame ([`Instr::EnvCons`]), pair-spine mode conses a pair.
/// Only genuine extension sites (`let`, `let cogen`, `val`/`cogen`
/// declarations) use this; scratch pairs consumed by `branch`, `switch`,
/// or `app` stay [`Instr::ConsPair`] in every mode.
fn env_cons(mode: EnvMode) -> Instr {
    match mode {
        EnvMode::Flat => Instr::EnvCons,
        EnvMode::PairSpine => Instr::ConsPair,
    }
}

/// Emits `⟨A, B⟩ = push; A; swap; B; cons`.
fn pair_into(
    a: impl FnOnce(&mut CodeBuilder) -> Result<()>,
    b: impl FnOnce(&mut CodeBuilder) -> Result<()>,
    out: &mut CodeBuilder,
) -> Result<()> {
    out.push(Instr::Push);
    a(out)?;
    out.push(Instr::Swap);
    b(out)?;
    out.push(Instr::ConsPair);
    Ok(())
}

/// Compiles `e` into a block of the builder's segment (a closure body,
/// branch arm, …) and returns its id.
fn expr_block(e: &CExprS, ctx: &Ctx, out: &CodeBuilder) -> Result<ccam::seg::BlockId> {
    let mut child = out.child();
    expr_into(e, ctx, &mut child)?;
    Ok(child.finish_block())
}

fn expr_into(e: &CExprS, ctx: &Ctx, out: &mut CodeBuilder) -> Result<()> {
    let span = e.span;
    match &e.node {
        CExpr::Lit(l) => out.push(Instr::Quote(lit_value(l))),
        CExpr::Var(n) => {
            let (i, kind) = ctx
                .find(n)
                .ok_or_else(|| err(format!("unbound variable {n}"), span))?;
            if kind != Kind::Val {
                return Err(err(
                    format!("`{n}` is a code variable, not a value variable"),
                    span,
                ));
            }
            out.extend(ctx.early_path(i));
        }
        CExpr::CodeVar(u) => {
            // ⟨get(u,E), arena⟩; app; call — invoke the generator.
            let (i, kind) = ctx
                .find(u)
                .ok_or_else(|| err(format!("unbound code variable {u}"), span))?;
            if kind != Kind::Cogen {
                return Err(err(format!("`{u}` is not a code variable"), span));
            }
            let path = ctx.early_path(i);
            pair_into(
                |out| {
                    out.extend(path);
                    Ok(())
                },
                |out| {
                    out.push(Instr::NewArena);
                    Ok(())
                },
                out,
            )?;
            out.push(Instr::App);
            out.push(Instr::Call);
        }
        CExpr::Lam(p, body) => {
            let inner = ctx.bind_early(p.clone(), Kind::Val);
            let block = expr_block(body, &inner, out)?;
            out.push(Instr::Cur(block));
        }
        CExpr::App(f, a) => {
            pair_into(
                |out| expr_into(f, ctx, out),
                |out| expr_into(a, ctx, out),
                out,
            )?;
            out.push(Instr::App);
        }
        CExpr::Prim(p, args) => {
            match args.len() {
                1 => expr_into(&args[0], ctx, out)?,
                2 => pair_into(
                    |out| expr_into(&args[0], ctx, out),
                    |out| expr_into(&args[1], ctx, out),
                    out,
                )?,
                3 => pair_into(
                    |out| expr_into(&args[0], ctx, out),
                    |out| {
                        pair_into(
                            |out| expr_into(&args[1], ctx, out),
                            |out| expr_into(&args[2], ctx, out),
                            out,
                        )
                    },
                    out,
                )?,
                n => return Err(err(format!("primitive of unsupported arity {n}"), span)),
            }
            out.push(Instr::Prim(prim_op(*p)));
        }
        CExpr::If(c, t, f) => {
            out.push(Instr::Push);
            expr_into(c, ctx, out)?;
            out.push(Instr::ConsPair);
            let t = expr_block(t, ctx, out)?;
            let f = expr_block(f, ctx, out)?;
            out.push(Instr::Branch(t, f));
        }
        CExpr::Let(n, rhs, body) => {
            out.push(Instr::Push);
            expr_into(rhs, ctx, out)?;
            out.push(env_cons(ctx.mode()));
            let inner = ctx.bind_early(n.clone(), Kind::Val);
            expr_into(body, &inner, out)?;
        }
        CExpr::LetRec(defs, body) => {
            let mut group_ctx = ctx.clone();
            for def in defs.iter() {
                group_ctx = group_ctx.bind_early(def.name.clone(), Kind::Val);
            }
            let mut bodies = Vec::with_capacity(defs.len());
            for def in defs.iter() {
                let def_ctx = group_ctx.bind_early(def.param.clone(), Kind::Val);
                bodies.push(expr_block(&def.body, &def_ctx, out)?);
            }
            out.push(Instr::RecClos(Rc::new(bodies)));
            expr_into(body, &group_ctx, out)?;
        }
        CExpr::Tuple(parts) => tuple_into(parts, ctx, out)?,
        CExpr::Proj {
            index,
            arity,
            tuple,
        } => {
            expr_into(tuple, ctx, out)?;
            for _ in 0..*index {
                out.push(Instr::Snd);
            }
            if index < &(arity - 1) {
                out.push(Instr::Fst);
            }
        }
        CExpr::Con(c, payload) => match payload {
            None => out.push(Instr::Quote(Value::Con(c.0, None))),
            Some(p) => {
                expr_into(p, ctx, out)?;
                out.push(Instr::Pack(c.0));
            }
        },
        CExpr::Case {
            scrut,
            arms,
            default,
        } => {
            out.push(Instr::Push);
            expr_into(scrut, ctx, out)?;
            out.push(Instr::ConsPair);
            let mut table = SwitchTable {
                arms: Vec::with_capacity(arms.len()),
                default: None,
            };
            for arm in arms {
                let (bind, code) = match &arm.binder {
                    Some(b) => {
                        let inner = ctx.bind_early(b.clone(), Kind::Val);
                        (true, expr_block(&arm.rhs, &inner, out)?)
                    }
                    None => (false, expr_block(&arm.rhs, ctx, out)?),
                };
                table.arms.push(SwitchArm {
                    tag: arm.con.0,
                    bind,
                    code,
                });
            }
            if let Some(d) = default {
                table.default = Some(expr_block(d, ctx, out)?);
            }
            out.push(Instr::Switch(Rc::new(table)));
        }
        CExpr::Code(body) => {
            let inner = ctx.enter_code();
            let mut child = out.child();
            gen_into(body, &inner, &mut child)?;
            out.push(Instr::Cur(child.finish_block()));
        }
        CExpr::Lift(inner) => {
            expr_into(inner, ctx, out)?;
            let lift = out.seg().add_block(vec![Instr::LiftV]);
            out.push(Instr::Cur(lift));
        }
        CExpr::LetCogen(u, m, n) => {
            out.push(Instr::Push);
            expr_into(m, ctx, out)?;
            out.push(env_cons(ctx.mode()));
            let inner = ctx.bind_early(u.clone(), Kind::Cogen);
            expr_into(n, &inner, out)?;
        }
        CExpr::Fail(msg) => out.push(Instr::Fail(msg.clone())),
        CExpr::Ascribe(inner, _) => expr_into(inner, ctx, out)?,
    }
    Ok(())
}

fn tuple_into(parts: &[CExprS], ctx: &Ctx, out: &mut CodeBuilder) -> Result<()> {
    // Right-nested: (a, (b, c)).
    match parts {
        [] => unreachable!("tuples have arity >= 2"),
        [last] => expr_into(last, ctx, out),
        [head, rest @ ..] => pair_into(
            |out| expr_into(head, ctx, out),
            |out| tuple_into(rest, ctx, out),
            out,
        ),
    }
}

// ---------------------------------------------------------------------
// Generating translation [M]gen(E, LE)
// ---------------------------------------------------------------------

/// Compiles `e` as a generating-extension body: the produced code threads
/// a generation state `(lenv, arena)` on top of the stack and appends the
/// specialized code of `e` to the arena. `ctx` must have been built with
/// [`Ctx::enter_code`] at the `code` boundary. Nested blocks land in
/// `seg`, as for [`compile_expr`].
///
/// # Errors
///
/// Returns a diagnostic if an early *value* variable occurs (the modal
/// typing discipline forbids it), or for unbound variables.
pub fn compile_gen(e: &CExprS, ctx: &Ctx, seg: &CodeSeg) -> Result<Vec<Instr>> {
    let mut b = CodeBuilder::new(seg);
    gen_into(e, ctx, &mut b)?;
    Ok(b.into_instrs())
}

fn emit(i: Instr, out: &mut CodeBuilder) {
    debug_assert!(
        !matches!(i, Instr::Emit(_)),
        "nested emit constructed by the compiler"
    );
    out.push(Instr::Emit(Box::new(i)));
}

fn emit_all(instrs: Vec<Instr>, out: &mut CodeBuilder) {
    for i in instrs {
        emit(i, out);
    }
}

/// Emitted pairing: `⟨A, B⟩` with every structural instruction emitted.
fn gen_pair_into(
    a: impl FnOnce(&mut CodeBuilder) -> Result<()>,
    b: impl FnOnce(&mut CodeBuilder) -> Result<()>,
    out: &mut CodeBuilder,
) -> Result<()> {
    emit(Instr::Push, out);
    a(out)?;
    emit(Instr::Swap, out);
    b(out)?;
    emit(Instr::ConsPair, out);
    Ok(())
}

/// Projects `lenv` out of the generation state: with `depth` extra values
/// stacked above `(lenv, arena)`, the state's stack shape is a left-nested
/// spine of `depth + 1` entries over the base `lenv`, so the projection is
/// that spine's base path (`fst^(depth+1)`). Routing through [`Layout`]
/// keeps it the single authority on environment-shape walking.
fn lenv_into(depth: usize, out: &mut CodeBuilder) {
    let mut path = Vec::new();
    Layout::Spine { count: depth + 1 }.base_path_into(&mut path);
    out.extend(path);
}

/// Generates `body` into a fresh arena and leaves that arena *stacked*
/// above the current generation state: from a top value `T` (the state
/// with `depth` arenas already stacked on it), produces `(T, {body})`.
fn subgen_into(
    body: impl FnOnce(&mut CodeBuilder) -> Result<()>,
    depth: usize,
    out: &mut CodeBuilder,
) -> Result<()> {
    out.push(Instr::Push);
    lenv_into(depth, out);
    out.push(Instr::Push);
    out.push(Instr::NewArena);
    out.push(Instr::ConsPair); // (lenv, {})
    body(out)?;
    out.push(Instr::Snd); // {body}
    out.push(Instr::ConsPair); // (T, {body})
    Ok(())
}

fn gen_into(e: &CExprS, ctx: &Ctx, out: &mut CodeBuilder) -> Result<()> {
    let span = e.span;
    match &e.node {
        CExpr::Lit(l) => emit(Instr::Quote(lit_value(l)), out),
        CExpr::Var(n) => {
            let (i, kind) = ctx
                .find(n)
                .ok_or_else(|| err(format!("unbound variable {n}"), span))?;
            if kind != Kind::Val {
                return Err(err(format!("`{n}` is a code variable"), span));
            }
            if ctx.is_early(i) {
                // The modal restriction: no early value variables under code.
                return Err(err(
                    format!(
                        "value variable `{n}` from an earlier stage occurs under `code` \
                         (only code variables may; use `lift` to stage the value)"
                    ),
                    span,
                ));
            }
            emit_all(ctx.late_path(i), out);
        }
        CExpr::CodeVar(u) => {
            let (i, kind) = ctx
                .find(u)
                .ok_or_else(|| err(format!("unbound code variable {u}"), span))?;
            if kind != Kind::Cogen {
                return Err(err(format!("`{u}` is not a code variable"), span));
            }
            if ctx.is_early(i) {
                // Splice: apply u's generating extension to the current
                // arena — "effectively substituting its code into the
                // current code" (§5).
                let path = ctx.early_path(i);
                out.push(Instr::Push);
                lenv_into(0, out);
                out.push(Instr::Swap); // P :: lenv
                out.push(Instr::Push);
                lenv_into(0, out);
                out.extend(path); // g :: P :: lenv
                out.push(Instr::Swap);
                out.push(Instr::Snd); // A :: g :: lenv
                out.push(Instr::ConsPair); // (g, A)
                out.push(Instr::App); // (v0', A)
                out.push(Instr::Snd); // A
                out.push(Instr::ConsPair); // (lenv, A)
            } else {
                // Bound under this `code`: rebuild the invocation against
                // its (late) binder.
                let mut inv = vec![Instr::Push];
                inv.extend(ctx.late_path(i));
                inv.extend([
                    Instr::Swap,
                    Instr::NewArena,
                    Instr::ConsPair,
                    Instr::App,
                    Instr::Call,
                ]);
                emit_all(inv, out);
            }
        }
        CExpr::Lam(p, body) => {
            // Generate the body into a fresh arena, then merge it into the
            // main arena as a Cur.
            let inner = ctx.bind_late(p.clone(), Kind::Val);
            out.push(Instr::Push); // P :: P
            lenv_into(0, out); // lenv :: P
            out.push(Instr::Push);
            out.push(Instr::NewArena);
            out.push(Instr::ConsPair); // (lenv, {}) :: P
            gen_into(body, &inner, out)?; // (lenv, {B}) :: P
            out.push(Instr::Snd); // {B} :: P
            out.push(Instr::Swap); // P :: {B}
            out.push(Instr::ConsPair); // ({B}, P)
            out.push(Instr::Merge); // (lenv, A@Cur(B))
        }
        CExpr::App(f, a) => {
            gen_pair_into(
                |out| gen_into(f, ctx, out),
                |out| gen_into(a, ctx, out),
                out,
            )?;
            emit(Instr::App, out);
        }
        CExpr::Prim(p, args) => {
            match args.len() {
                1 => gen_into(&args[0], ctx, out)?,
                2 => gen_pair_into(
                    |out| gen_into(&args[0], ctx, out),
                    |out| gen_into(&args[1], ctx, out),
                    out,
                )?,
                3 => gen_pair_into(
                    |out| gen_into(&args[0], ctx, out),
                    |out| {
                        gen_pair_into(
                            |out| gen_into(&args[1], ctx, out),
                            |out| gen_into(&args[2], ctx, out),
                            out,
                        )
                    },
                    out,
                )?,
                n => return Err(err(format!("primitive of unsupported arity {n}"), span)),
            }
            emit(Instr::Prim(prim_op(*p)), out);
        }
        CExpr::If(c, t, f) => {
            emit(Instr::Push, out);
            gen_into(c, ctx, out)?;
            emit(Instr::ConsPair, out);
            subgen_into(|out| gen_into(t, ctx, out), 0, out)?;
            subgen_into(|out| gen_into(f, ctx, out), 1, out)?;
            out.push(Instr::MergeBranch);
        }
        CExpr::Let(n, rhs, body) => {
            emit(Instr::Push, out);
            gen_into(rhs, ctx, out)?;
            emit(env_cons(ctx.mode()), out);
            let inner = ctx.bind_late(n.clone(), Kind::Val);
            gen_into(body, &inner, out)?;
        }
        CExpr::LetRec(defs, body) => {
            let mut group_ctx = ctx.clone();
            for def in defs.iter() {
                group_ctx = group_ctx.bind_late(def.name.clone(), Kind::Val);
            }
            for (j, def) in defs.iter().enumerate() {
                let def_ctx = group_ctx.bind_late(def.param.clone(), Kind::Val);
                subgen_into(|out| gen_into(&def.body, &def_ctx, out), j, out)?;
            }
            out.push(Instr::MergeRec(defs.len()));
            gen_into(body, &group_ctx, out)?;
        }
        CExpr::Tuple(parts) => gen_tuple_into(parts, ctx, out)?,
        CExpr::Proj {
            index,
            arity,
            tuple,
        } => {
            gen_into(tuple, ctx, out)?;
            for _ in 0..*index {
                emit(Instr::Snd, out);
            }
            if index < &(arity - 1) {
                emit(Instr::Fst, out);
            }
        }
        CExpr::Con(c, payload) => match payload {
            None => emit(Instr::Quote(Value::Con(c.0, None)), out),
            Some(p) => {
                gen_into(p, ctx, out)?;
                emit(Instr::Pack(c.0), out);
            }
        },
        CExpr::Case {
            scrut,
            arms,
            default,
        } => {
            emit(Instr::Push, out);
            gen_into(scrut, ctx, out)?;
            emit(Instr::ConsPair, out);
            let mut spec = MergeSwitchSpec {
                arms: Vec::with_capacity(arms.len()),
                default: default.is_some(),
            };
            for (j, arm) in arms.iter().enumerate() {
                match &arm.binder {
                    Some(b) => {
                        spec.arms.push((arm.con.0, true));
                        let inner = ctx.bind_late(b.clone(), Kind::Val);
                        subgen_into(|out| gen_into(&arm.rhs, &inner, out), j, out)?;
                    }
                    None => {
                        spec.arms.push((arm.con.0, false));
                        subgen_into(|out| gen_into(&arm.rhs, ctx, out), j, out)?;
                    }
                }
            }
            if let Some(d) = default {
                subgen_into(|out| gen_into(d, ctx, out), arms.len(), out)?;
            }
            out.push(Instr::MergeSwitch(Rc::new(spec)));
        }
        CExpr::Code(body) => {
            // Closure insertion (multi-stage, §5 last paragraph): build, at
            // generation time, the closure c = [lenv : Cur(G_inner)];
            // residualize it via `lift`; and emit code applying it to the
            // stage environment. No nested emits are ever constructed.
            let inner_ctx = ctx.enter_code();
            let mut inner = out.child();
            gen_into(body, &inner_ctx, &mut inner)?;
            let g_inner = inner.finish_block();
            let c_body = out.seg().add_block(vec![Instr::Cur(g_inner)]);
            emit(Instr::Push, out); // runtime: duplicate the stage env
            out.push(Instr::Push); // P :: P
            out.push(Instr::Push); // P :: P :: P
            lenv_into(0, out); // lenv :: P :: P
            out.push(Instr::Cur(c_body)); // c :: P :: P
            out.push(Instr::Swap); // P :: c :: P
            out.push(Instr::Snd); // A :: c :: P
            out.push(Instr::ConsPair); // (c, A) :: P
            out.push(Instr::LiftV); // arena gains Quote(c)
            out.push(Instr::ConsPair); // (P, (c, A))
            out.push(Instr::Fst); // P
            emit(Instr::Swap, out); // runtime: env :: c  →  swap
            emit(Instr::ConsPair, out); // runtime: (c, env)
            emit(Instr::App, out); // runtime: [(lenv, env) : G_inner]
        }
        CExpr::Lift(inner) => {
            gen_into(inner, ctx, out)?;
            let lift = out.seg().add_block(vec![Instr::LiftV]);
            emit(Instr::Cur(lift), out);
        }
        CExpr::LetCogen(u, m, n) => {
            emit(Instr::Push, out);
            gen_into(m, ctx, out)?;
            emit(env_cons(ctx.mode()), out);
            let inner = ctx.bind_late(u.clone(), Kind::Cogen);
            gen_into(n, &inner, out)?;
        }
        CExpr::Fail(msg) => emit(Instr::Fail(msg.clone()), out),
        CExpr::Ascribe(inner, _) => gen_into(inner, ctx, out)?,
    }
    Ok(())
}

fn gen_tuple_into(parts: &[CExprS], ctx: &Ctx, out: &mut CodeBuilder) -> Result<()> {
    match parts {
        [] => unreachable!("tuples have arity >= 2"),
        [last] => gen_into(last, ctx, out),
        [head, rest @ ..] => gen_pair_into(
            |out| gen_into(head, ctx, out),
            |out| gen_tuple_into(rest, ctx, out),
            out,
        ),
    }
}

// ---------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------

/// What a compiled declaration's code does with the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeclEffect {
    /// The code maps the environment to an *extended* environment
    /// (`val`, `fun`, `cogen`).
    ExtendsEnv,
    /// The code maps the environment to a result value, leaving the
    /// environment unchanged (bare expressions).
    ProducesValue,
}

/// Compiles one core declaration into `seg`. Returns the (raw) code, the
/// extended context, and whether the code extends the environment or
/// produces a value.
///
/// # Errors
///
/// Propagates expression-compilation errors.
pub fn compile_decl(
    d: &CoreDecl,
    ctx: &Ctx,
    seg: &CodeSeg,
) -> Result<(Vec<Instr>, Ctx, DeclEffect)> {
    match d {
        CoreDecl::Val(n, e) => {
            let mut b = CodeBuilder::new(seg);
            b.push(Instr::Push);
            expr_into(e, ctx, &mut b)?;
            b.push(env_cons(ctx.mode()));
            Ok((
                b.into_instrs(),
                ctx.bind_early(n.clone(), Kind::Val),
                DeclEffect::ExtendsEnv,
            ))
        }
        CoreDecl::Cogen(u, e) => {
            let mut b = CodeBuilder::new(seg);
            b.push(Instr::Push);
            expr_into(e, ctx, &mut b)?;
            b.push(env_cons(ctx.mode()));
            Ok((
                b.into_instrs(),
                ctx.bind_early(u.clone(), Kind::Cogen),
                DeclEffect::ExtendsEnv,
            ))
        }
        CoreDecl::Fun(defs) => {
            let mut group_ctx = ctx.clone();
            for def in defs.iter() {
                group_ctx = group_ctx.bind_early(def.name.clone(), Kind::Val);
            }
            let b = CodeBuilder::new(seg);
            let mut bodies = Vec::with_capacity(defs.len());
            for def in defs.iter() {
                let def_ctx = group_ctx.bind_early(def.param.clone(), Kind::Val);
                bodies.push(expr_block(&def.body, &def_ctx, &b)?);
            }
            Ok((
                vec![Instr::RecClos(Rc::new(bodies))],
                group_ctx,
                DeclEffect::ExtendsEnv,
            ))
        }
        CoreDecl::Expr(e) => Ok((
            compile_expr(e, ctx, seg)?,
            ctx.clone(),
            DeclEffect::ProducesValue,
        )),
    }
}

/// Compiles a whole program (declaration sequence) into one entry block
/// of a fresh segment, mapping an initial environment (conventionally
/// `()`) to the value of the last value-producing declaration, in the
/// default pair-spine access mode.
///
/// # Errors
///
/// Propagates expression-compilation errors.
pub fn compile_program(decls: &[CoreDecl]) -> Result<CodeRef> {
    compile_program_with(decls, EnvMode::default())
}

/// Like [`compile_program`], with an explicit environment-access mode.
///
/// # Errors
///
/// Propagates expression-compilation errors.
pub fn compile_program_with(decls: &[CoreDecl], mode: EnvMode) -> Result<CodeRef> {
    let seg = CodeSeg::new();
    let mut ctx = Ctx::root_with(mode);
    let mut out = CodeBuilder::new(&seg);
    let mut last_produces_value = false;
    for d in decls {
        let (code, new_ctx, effect) = compile_decl(d, &ctx, &seg)?;
        match effect {
            DeclEffect::ExtendsEnv => {
                out.extend(code);
                ctx = new_ctx;
                last_produces_value = false;
            }
            DeclEffect::ProducesValue => {
                if std::ptr::eq(d, decls.last().expect("nonempty")) {
                    out.extend(code);
                    last_produces_value = true;
                } else {
                    // Evaluate for effect, then restore the environment:
                    // ⟨id, [e]⟩; fst.
                    out.push(Instr::Push);
                    out.extend(code);
                    out.push(Instr::ConsPair);
                    out.push(Instr::Fst);
                }
            }
        }
    }
    if !last_produces_value && !decls.is_empty() {
        // Surface the most recent binding as the program value.
        out.push(Instr::Snd);
    }
    Ok(out.finish_entry())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccam::instr::validate;
    use ccam::machine::Machine;
    use mlbox_ir::elab::Elab;
    use mlbox_syntax::parser::{parse_expr, parse_program};

    fn run(src: &str) -> ccam::value::Value {
        let e = parse_expr(src).unwrap();
        let core = Elab::new().elab_expr(&e).unwrap();
        let seg = CodeSeg::new();
        let code = compile_expr(&core, &Ctx::root(), &seg).unwrap();
        validate(&seg, &code).unwrap();
        Machine::new().run(seg.entry(code), Value::Unit).unwrap()
    }

    fn run_program(src: &str) -> ccam::value::Value {
        let p = parse_program(src).unwrap();
        let decls = Elab::new().elab_program(&p).unwrap();
        let code = compile_program(&decls).unwrap();
        validate(&code.seg, &code.to_vec()).unwrap();
        Machine::new().run(code, Value::Unit).unwrap()
    }

    #[test]
    fn literals_and_arithmetic() {
        assert_eq!(run("1 + 2 * 3").to_string(), "7");
        assert_eq!(run("(10 div 3) mod 2").to_string(), "1");
    }

    #[test]
    fn lambda_and_application() {
        assert_eq!(run("(fn x => x + 1) 41").to_string(), "42");
        assert_eq!(run("(fn x => fn y => x - y) 10 4").to_string(), "6");
    }

    #[test]
    fn let_bindings() {
        assert_eq!(
            run("let val x = 5 val y = x * x in y + x end").to_string(),
            "30"
        );
    }

    #[test]
    fn conditionals() {
        assert_eq!(run("if 1 < 2 then 10 else 20").to_string(), "10");
        assert_eq!(
            run("if false then 1 else if true then 2 else 3").to_string(),
            "2"
        );
    }

    #[test]
    fn tuples_and_projections() {
        assert_eq!(run("fn u => (1, 2, 3)").to_string(), "<fn>");
        assert_eq!(
            run("let val t = (1, 2, 3) in t end").to_string(),
            "(1, (2, 3))"
        );
    }

    #[test]
    fn recursion_via_recclos() {
        assert_eq!(
            run_program("fun fact n = if n = 0 then 1 else n * fact (n - 1);\nfact 6").to_string(),
            "720"
        );
    }

    #[test]
    fn mutual_recursion() {
        assert_eq!(
            run_program(
                "fun even n = if n = 0 then true else odd (n - 1)\n\
                 and odd n = if n = 0 then false else even (n - 1);\n\
                 odd 9"
            )
            .to_string(),
            "true"
        );
    }

    #[test]
    fn datatypes_and_case() {
        assert_eq!(
            run_program(
                "datatype t = A | B of int\n\
                 fun f x = case x of A => 100 | B n => n;\n\
                 f (B 7) + f A"
            )
            .to_string(),
            "107"
        );
    }

    #[test]
    fn lists_and_patterns() {
        assert_eq!(
            run_program("fun sum xs = case xs of nil => 0 | a :: p => a + sum p;\nsum [1,2,3,4,5]")
                .to_string(),
            "15"
        );
    }

    #[test]
    fn simple_code_and_invoke() {
        assert_eq!(
            run_program(
                "fun eval c = let cogen u = c in u end;\n\
                 eval (code (fn x => x + 1)) 41"
            )
            .to_string(),
            "42"
        );
    }

    #[test]
    fn lift_residualizes() {
        assert_eq!(
            run_program("fun eval c = let cogen u = c in u end;\neval (lift (21 * 2))").to_string(),
            "42"
        );
    }

    #[test]
    fn splice_composes_generators() {
        let src = "\
fun eval c = let cogen u = c in u end
val compose = fn f => fn g =>
  let cogen f' = f
      cogen g' = g
  in code (fn x => f' (g' x)) end;
eval (compose (code (fn x => x * 2)) (code (fn x => x + 1))) 5";
        assert_eq!(run_program(src).to_string(), "12");
    }

    #[test]
    fn comp_poly_generates_specialized_code() {
        let src = "\
fun eval c = let cogen u = c in u end
fun compPoly p =
  case p of
    nil => code (fn x => 0)
  | a :: p' =>
      let cogen f = compPoly p'
          cogen a' = lift a
      in code (fn x => a' + (x * f x)) end
val f = eval (compPoly [2, 4, 0, 2333]);
f 47";
        let expected = 2 + 4 * 47 + 2333i64 * 47 * 47 * 47;
        assert_eq!(run_program(src).to_string(), expected.to_string());
    }

    #[test]
    fn specialized_code_is_cheaper_per_call() {
        // Compare steps: interpretive evalPoly vs the compPoly-specialized
        // function, on the same polynomial — the paper's central claim.
        let poly = "[2, 4, 0, 2333]";
        let interp_src = format!(
            "fun evalPoly (x, p) = case p of nil => 0 | a :: p' => a + (x * evalPoly (x, p'));\n\
             evalPoly (47, {poly})"
        );
        let staged_src = format!(
            "fun eval c = let cogen u = c in u end\n\
             fun compPoly p =\n\
               case p of nil => code (fn x => 0)\n\
               | a :: p' => let cogen f = compPoly p' cogen a' = lift a\n\
                            in code (fn x => a' + (x * f x)) end\n\
             val f = eval (compPoly {poly});\n\
             f 47"
        );
        let run_steps = |src: &str| {
            let p = parse_program(src).unwrap();
            let decls = Elab::new().elab_program(&p).unwrap();
            let code = compile_program(&decls).unwrap();
            let mut m = Machine::new();
            let v = m.run(code, Value::Unit).unwrap();
            (v.to_string(), m.stats().steps)
        };
        let (v1, _steps_interp) = run_steps(&interp_src);
        let (v2, _steps_staged) = run_steps(&staged_src);
        assert_eq!(v1, v2);
    }

    #[test]
    fn multi_stage_nested_code() {
        // A generator whose generated code is itself a generator:
        // stage 0 builds stage 1, which builds stage 2.
        let src = "\
fun eval c = let cogen u = c in u end
val twoStage =
  code (fn a => code (fn b => b * 2))
val stage1 = eval twoStage
val g2 = stage1 7
fun eval2 c = let cogen u = c in u end
val f = eval2 g2;
f 10";
        assert_eq!(run_program(src).to_string(), "20");
    }

    #[test]
    fn multi_stage_inner_uses_outer_late_var_via_lift() {
        // The inner stage quotes a stage-1 value with lift.
        let src = "\
fun eval c = let cogen u = c in u end
val twoStage =
  code (fn a => let cogen a' = lift a in code (fn b => a' + b) end)
val g2 = eval twoStage 7
val f = eval g2;
f 10";
        assert_eq!(run_program(src).to_string(), "17");
    }

    #[test]
    fn no_nested_emits_anywhere() {
        let src = "\
fun eval c = let cogen u = c in u end
val twoStage =
  code (fn a => let cogen a' = lift a in code (fn b => a' + b) end);
eval twoStage";
        let p = parse_program(src).unwrap();
        let decls = Elab::new().elab_program(&p).unwrap();
        let code = compile_program(&decls).unwrap();
        validate(&code.seg, &code.to_vec()).unwrap();
    }

    #[test]
    fn early_value_var_under_code_is_rejected() {
        let src = "fn y => code (fn x => x + y)";
        let e = parse_expr(src).unwrap();
        let core = Elab::new().elab_expr(&e).unwrap();
        let errd = compile_expr(&core, &Ctx::root(), &CodeSeg::new()).unwrap_err();
        assert!(errd.message.contains("earlier stage"), "{}", errd.message);
    }

    #[test]
    fn generated_conditionals_specialize_both_branches() {
        let src = "\
fun eval c = let cogen u = c in u end
val g = code (fn x => if x < 10 then x + 1 else x - 1)
val f = eval g;
f 9 + f 11";
        assert_eq!(run_program(src).to_string(), "20");
    }

    #[test]
    fn generated_case_dispatch() {
        let src = "\
datatype t = A | B of int
fun eval c = let cogen u = c in u end
val g = code (fn x => case x of A => 0 | B n => n + 1)
val f = eval g;
f (B 4) + f A";
        assert_eq!(run_program(src).to_string(), "5");
    }

    #[test]
    fn generated_recursive_function() {
        let src = "\
fun eval c = let cogen u = c in u end
val g = code (fn start =>
  let fun go n = if n = 0 then 0 else n + go (n - 1)
  in go start end)
val f = eval g;
f 10";
        assert_eq!(run_program(src).to_string(), "55");
    }

    #[test]
    fn refs_and_arrays_compile() {
        assert_eq!(
            run("let val r = ref 5 in (r := !r * 2; !r + 1) end").to_string(),
            "11"
        );
        assert_eq!(
            run_program(
                "val a = array (3, 1)\nval u = update (a, 0, 10);\nsub (a, 0) + sub (a, 1)"
            )
            .to_string(),
            "11"
        );
    }

    #[test]
    fn strings_compile() {
        assert_eq!(run("size (\"ab\" ^ \"cde\")").to_string(), "5");
    }

    #[test]
    fn program_value_is_last_binding_when_no_expr() {
        assert_eq!(run_program("val x = 1\nval y = 41 + x").to_string(), "42");
    }

    #[test]
    fn lift_of_function_embeds_closure() {
        // The paper's general lift: residualize a closure into the
        // instruction stream as an immediate.
        let src = "\
fun eval c = let cogen u = c in u end
fun double x = x * 2
val g = let cogen d = lift double in code (fn x => d (x + 1)) end
val f = eval g;
f 20";
        assert_eq!(run_program(src).to_string(), "42");
    }

    /// Programs the environment-mode tests run in every rendering.
    const MODE_PROGRAMS: [&str; 4] = [
        "let val x = 5 val y = x * x in y + x end",
        "fun fact n = if n = 0 then 1 else n * fact (n - 1);\nfact 6",
        "fun eval c = let cogen u = c in u end\n\
         fun compPoly p =\n\
           case p of nil => code (fn x => 0)\n\
           | a :: p' => let cogen f = compPoly p' cogen a' = lift a\n\
                        in code (fn x => a' + (x * f x)) end\n\
         val f = eval (compPoly [2, 4, 0, 2333]);\n\
         f 47",
        "fun eval c = let cogen u = c in u end\n\
         val twoStage =\n\
           code (fn a => let cogen a' = lift a in code (fn b => a' + b) end)\n\
         val g2 = eval twoStage 7\n\
         val f = eval g2;\n\
         f 10",
    ];

    /// Compiles and runs `src` in `mode`, returning its value and step
    /// count. With `collapse`, every block runs promoted from its first
    /// activation, which renders each `fst^k; snd` walk over the pair
    /// spine as one `acc k`.
    fn run_in_mode(src: &str, mode: EnvMode, collapse: bool) -> (String, u64) {
        let p = parse_program(src).unwrap();
        let decls = Elab::new().elab_program(&p).unwrap();
        let code = compile_program_with(&decls, mode).unwrap();
        validate(&code.seg, &code.to_vec()).unwrap();
        let mut m = Machine::new();
        m.set_promote_after(if collapse { 0 } else { u64::MAX });
        let v = m.run(code, Value::Unit).unwrap();
        (v.to_string(), m.stats().steps)
    }

    #[test]
    fn indexed_mode_agrees_with_pair_spine() {
        // Indexed access over the pair spine lives on as promotion's
        // `fst^k; snd -> acc k` collapse: it must agree with the raw walk
        // and count the same steps.
        for src in MODE_PROGRAMS {
            let (v_spine, s_spine) = run_in_mode(src, EnvMode::PairSpine, false);
            let (v_idx, s_idx) = run_in_mode(src, EnvMode::PairSpine, true);
            assert_eq!(v_spine, v_idx, "mode disagreement on {src:?}");
            assert_eq!(s_idx, s_spine, "promotion changed the steps on {src:?}");
        }
    }

    #[test]
    fn flat_mode_agrees_with_both_spine_modes() {
        for src in MODE_PROGRAMS {
            let (v_spine, s_spine) = run_in_mode(src, EnvMode::PairSpine, false);
            let (v_idx, _) = run_in_mode(src, EnvMode::PairSpine, true);
            let (v_flat, s_flat) = run_in_mode(src, EnvMode::Flat, false);
            assert_eq!(v_spine, v_flat, "flat disagreement on {src:?}");
            assert_eq!(v_idx, v_flat, "flat disagreement on {src:?}");
            // env_cons costs one step like cons, and each `acc n` stands
            // for a whole `fst^n; snd` walk.
            assert!(
                s_flat <= s_spine,
                "flat mode took more steps ({s_flat} > {s_spine}) on {src:?}"
            );
        }
    }

    #[test]
    fn flat_mode_emits_env_cons_at_extension_sites_only() {
        let src = "let val x = 5 in if x < 9 then x else 0 end";
        let e = parse_expr(src).unwrap();
        let core = Elab::new().elab_expr(&e).unwrap();
        let seg = CodeSeg::new();
        let code = compile_expr(&core, &Ctx::root_with(EnvMode::Flat), &seg).unwrap();
        validate(&seg, &code).unwrap();
        let entry = seg.entry(code);
        let counts = ccam::disasm::census(&entry.seg, entry.block);
        assert_eq!(counts["env_cons"], 1, "the let extends the env");
        // The branch scratch pair and the `<` operand pair stay pairs.
        assert_eq!(counts["cons"], 2);
        let v = Machine::new().run(entry, Value::Unit).unwrap();
        assert_eq!(v.to_string(), "5");
    }

    #[test]
    fn flat_mode_emits_acc_into_arenas() {
        // The generating translation must route late accesses through
        // Layout::path: in flat mode the arena receives `acc`, not
        // `fst`/`snd` chains.
        let src = "\
fun eval c = let cogen u = c in u end
val g = code (fn x => fn y => x + y)
val f = eval g;
f 1 2";
        let p = parse_program(src).unwrap();
        let decls = Elab::new().elab_program(&p).unwrap();
        let code = compile_program_with(&decls, EnvMode::Flat).unwrap();
        let counts = ccam::disasm::census(&code.seg, code.block);
        assert!(counts.contains_key("acc"), "no acc in compiled output");
        let emits_acc = {
            fn scan(seg: &CodeSeg, code: &[Instr]) -> bool {
                code.iter().any(|i| match i {
                    Instr::Emit(inner) => matches!(**inner, Instr::Acc(_)),
                    Instr::Cur(c) => scan(seg, &seg.block_to_vec(*c)),
                    Instr::Branch(a, b) => {
                        scan(seg, &seg.block_to_vec(*a)) || scan(seg, &seg.block_to_vec(*b))
                    }
                    _ => false,
                })
            }
            scan(&code.seg, &code.to_vec())
        };
        assert!(emits_acc, "generating translation emitted no Acc");
    }

    #[test]
    fn codegen_under_case_scrutinee_side_effects_once() {
        // Generation happens when the code variable is *used*.
        let src = "\
fun eval c = let cogen u = c in u end
val g = code (fn x => x + 1);
eval g 1 + eval g 2";
        assert_eq!(run_program(src).to_string(), "5");
    }

    #[test]
    fn program_compiles_into_one_segment() {
        // Everything — decl code, closure bodies, generator bodies —
        // must land in the single program segment.
        let src = "\
fun eval c = let cogen u = c in u end
val g = code (fn x => x + 1)
val f = eval g;
f 1";
        let p = parse_program(src).unwrap();
        let decls = Elab::new().elab_program(&p).unwrap();
        let code = compile_program(&decls).unwrap();
        assert!(code.seg.num_blocks() > 1, "nested blocks registered");
        // Executing may append frozen blocks to the same segment's tail.
        let before = code.seg.num_blocks();
        let mut m = Machine::new();
        let seg = code.seg.clone();
        let v = m.run(code, Value::Unit).unwrap();
        assert_eq!(v.to_string(), "2");
        assert!(
            seg.num_blocks() > before,
            "generated code froze into the program segment"
        );
    }
}
