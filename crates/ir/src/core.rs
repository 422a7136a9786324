//! The MLbox core intermediate representation: an explicit λ□ extended
//! with the core-SML constructs the paper's compiler supports (§6).
//!
//! Elaboration (see [`crate::elab`]) lowers the surface syntax to this IR:
//! identifiers are resolved (value variable / code variable / constructor /
//! builtin), all binders are alpha-renamed to unique [`Name`]s, nested
//! patterns are compiled to single-level tag dispatch, and sugar
//! (`andalso`, list literals, clausal `fun`, sequences) is expanded.

use crate::data::ConId;
use crate::name::Name;
use mlbox_syntax::span::{Span, Spanned};
use std::rc::Rc;

/// A spanned core expression.
pub type CExprS = Spanned<CExpr>;

/// Literal constants.
#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    /// Integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(Rc<str>),
    /// Unit.
    Unit,
}

/// Primitive operations, with fixed arities.
///
/// The elaborator unpacks tuple-typed builtin applications (e.g.
/// `sub (a, i)`) into multi-argument primitive applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Prim {
    /// Integer addition (2).
    Add,
    /// Integer subtraction (2).
    Sub,
    /// Integer multiplication (2).
    Mul,
    /// Integer division, truncating (2). Fails on division by zero.
    Div,
    /// Integer remainder (2). Fails on division by zero.
    Mod,
    /// Integer negation (1).
    Neg,
    /// Structural equality (2).
    Eq,
    /// Structural inequality (2).
    Ne,
    /// Integer/string less-than (2).
    Lt,
    /// Integer/string less-or-equal (2).
    Le,
    /// Integer/string greater-than (2).
    Gt,
    /// Integer/string greater-or-equal (2).
    Ge,
    /// String concatenation (2).
    Concat,
    /// Bitwise AND on integers (2) — needed by the BPF `JSET` opcode.
    BitAnd,
    /// Boolean negation (1).
    Not,
    /// String length (1).
    StrSize,
    /// Integer to string (1).
    IntToString,
    /// Print a string to the session output buffer (1).
    Print,
    /// Allocate a reference cell (1).
    Ref,
    /// Dereference (1).
    Deref,
    /// Reference assignment (2).
    Assign,
    /// `array (n, init)`: allocate an array of `n` copies of `init` (2).
    MkArray,
    /// `sub (a, i)`: array indexing (2). Fails if out of bounds.
    ArrSub,
    /// `update (a, i, v)`: array update (3). Fails if out of bounds.
    ArrUpdate,
    /// `length a`: array length (1).
    ArrLen,
}

impl Prim {
    /// Number of arguments the primitive consumes.
    pub fn arity(self) -> usize {
        match self {
            Prim::Neg
            | Prim::Not
            | Prim::StrSize
            | Prim::IntToString
            | Prim::Print
            | Prim::Ref
            | Prim::Deref
            | Prim::ArrLen => 1,
            Prim::ArrUpdate => 3,
            _ => 2,
        }
    }
}

/// One function of a recursive `fun ... and ...` group, in curried form
/// with an explicit first parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct FunDef {
    /// The function's name (in scope in every body of the group).
    pub name: Name,
    /// The first (machine-level) parameter.
    pub param: Name,
    /// The body; additional curried parameters appear as nested [`CExpr::Lam`].
    pub body: CExprS,
}

/// One arm of a single-level datatype dispatch.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseArm {
    /// Constructor tag to match.
    pub con: ConId,
    /// Binder for the payload (`None` for nullary constructors).
    pub binder: Option<Name>,
    /// Arm body.
    pub rhs: CExprS,
}

/// Core expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum CExpr {
    /// A literal constant.
    Lit(Lit),
    /// A value variable (from Γ).
    Var(Name),
    /// A code variable (from Δ); *using* one invokes its generator.
    CodeVar(Name),
    /// λ-abstraction.
    Lam(Name, Box<CExprS>),
    /// Application.
    App(Box<CExprS>, Box<CExprS>),
    /// Saturated primitive application.
    Prim(Prim, Vec<CExprS>),
    /// Conditional.
    If(Box<CExprS>, Box<CExprS>, Box<CExprS>),
    /// Non-recursive let binding.
    Let(Name, Box<CExprS>, Box<CExprS>),
    /// Recursive function group.
    LetRec(Rc<Vec<FunDef>>, Box<CExprS>),
    /// Tuple construction (n >= 2). Represented as right-nested machine
    /// pairs: `(a, b, c)` is `(a, (b, c))`.
    Tuple(Vec<CExprS>),
    /// Tuple projection: `Proj { index, arity }` of a tuple expression.
    Proj {
        /// Zero-based component index.
        index: usize,
        /// Number of components in the tuple type.
        arity: usize,
        /// The tuple expression.
        tuple: Box<CExprS>,
    },
    /// Datatype constructor application (`None` payload for nullary).
    Con(ConId, Option<Box<CExprS>>),
    /// Single-level dispatch on a datatype value.
    Case {
        /// Scrutinee.
        scrut: Box<CExprS>,
        /// Arms (distinct tags).
        arms: Vec<CaseArm>,
        /// Fallback when no arm matches.
        default: Option<Box<CExprS>>,
    },
    /// `code M` — a generator for the code of `M` (modal introduction).
    Code(Box<CExprS>),
    /// `lift M` — evaluate `M` now; generator quotes the value.
    Lift(Box<CExprS>),
    /// `let cogen u = M in N` — bind the code variable `u`.
    LetCogen(Name, Box<CExprS>, Box<CExprS>),
    /// Run-time failure with a message (produced for inexhaustive matches).
    Fail(Rc<String>),
    /// Type ascription `e : ty` (checked by the type checker, erased by
    /// the compiler and interpreter).
    Ascribe(Box<CExprS>, mlbox_syntax::ast::TyS),
}

impl CExpr {
    /// Wraps the expression with a span.
    pub fn at(self, span: Span) -> CExprS {
        Spanned::new(self, span)
    }
}

/// An elaborated top-level declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreDecl {
    /// `val x = e` (patterns are decomposed into several such binds).
    Val(Name, CExprS),
    /// A recursive function group.
    Fun(Rc<Vec<FunDef>>),
    /// `cogen u = e`.
    Cogen(Name, CExprS),
    /// A bare expression evaluated for its value.
    Expr(CExprS),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prim_arities() {
        assert_eq!(Prim::Add.arity(), 2);
        assert_eq!(Prim::Not.arity(), 1);
        assert_eq!(Prim::ArrUpdate.arity(), 3);
        assert_eq!(Prim::MkArray.arity(), 2);
    }
}
