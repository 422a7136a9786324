//! Run-time values of the reference interpreter.
//!
//! The representation mirrors the CCAM's (`ccam::value::Value`-like
//! pairs, identity-compared refs/arrays) so that rendered values compare
//! textually across the two back ends in differential tests.

use mlbox_ir::core::{CExprS, FunDef};
use mlbox_ir::name::Name;
use mlbox_ir::ConId;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// A persistent environment: `Name → RVal`, shared via `Rc`.
#[derive(Debug, Clone, Default)]
pub struct Env(Option<Rc<EnvNode>>);

#[derive(Debug)]
struct EnvNode {
    name: Name,
    value: RVal,
    rest: Env,
}

impl Env {
    /// The empty environment.
    pub fn empty() -> Env {
        Env(None)
    }

    /// Extends with one binding.
    pub fn bind(&self, name: Name, value: RVal) -> Env {
        Env(Some(Rc::new(EnvNode {
            name,
            value,
            rest: self.clone(),
        })))
    }

    /// Looks up a name.
    pub fn get(&self, name: &Name) -> Option<&RVal> {
        let mut cur = self;
        while let Some(node) = &cur.0 {
            if &node.name == name {
                return Some(&node.value);
            }
            cur = &node.rest;
        }
        None
    }
}

/// A persistent modal environment: `Name → GenRep`.
#[derive(Debug, Clone, Default)]
pub struct CodeEnv(Option<Rc<CodeEnvNode>>);

#[derive(Debug)]
struct CodeEnvNode {
    name: Name,
    rep: GenRep,
    rest: CodeEnv,
}

impl CodeEnv {
    /// The empty modal environment.
    pub fn empty() -> CodeEnv {
        CodeEnv(None)
    }

    /// Extends with one binding.
    pub fn bind(&self, name: Name, rep: GenRep) -> CodeEnv {
        CodeEnv(Some(Rc::new(CodeEnvNode {
            name,
            rep,
            rest: self.clone(),
        })))
    }

    /// Looks up a name.
    pub fn get(&self, name: &Name) -> Option<&GenRep> {
        let mut cur = self;
        while let Some(node) = &cur.0 {
            if &node.name == name {
                return Some(&node.rep);
            }
            cur = &node.rest;
        }
        None
    }
}

/// The representation of a generator value (type `□A`).
#[derive(Debug, Clone)]
pub enum GenRep {
    /// A suspension ⟨M, δ⟩ — the body of a `code` expression together with
    /// the modal environment captured at its evaluation.
    Susp {
        /// The suspended body.
        body: Rc<CExprS>,
        /// The captured modal environment.
        cenv: CodeEnv,
    },
    /// A quoted value, produced by `lift`.
    Quote(Rc<RVal>),
}

/// An ordinary closure.
#[derive(Debug)]
pub struct RClosure {
    /// Captured value environment.
    pub env: Env,
    /// Captured modal environment (Δ persists under λ).
    pub cenv: CodeEnv,
    /// Parameter.
    pub param: Name,
    /// Body.
    pub body: Rc<CExprS>,
}

/// A member of a recursive function group.
#[derive(Debug)]
pub struct RRecGroup {
    /// Environment captured at group creation.
    pub env: Env,
    /// Modal environment captured at group creation.
    pub cenv: CodeEnv,
    /// The group's definitions.
    pub defs: Rc<Vec<FunDef>>,
}

/// An interpreter value.
#[derive(Debug, Clone)]
pub enum RVal {
    /// Unit.
    Unit,
    /// Integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(Rc<str>),
    /// Pair (tuples are right-nested pairs, as on the CCAM).
    Pair(Rc<(RVal, RVal)>),
    /// Datatype constructor.
    Con(ConId, Option<Rc<RVal>>),
    /// Closure.
    Closure(Rc<RClosure>),
    /// Recursive closure group member.
    RecClosure {
        /// The shared group.
        group: Rc<RRecGroup>,
        /// Which member.
        index: usize,
    },
    /// A generator (type `□A`).
    Gen(GenRep),
    /// Mutable reference cell.
    Ref(Rc<RefCell<RVal>>),
    /// Mutable array.
    Array(Rc<RefCell<Vec<RVal>>>),
}

impl RVal {
    /// Builds a pair.
    pub fn pair(a: RVal, b: RVal) -> RVal {
        RVal::Pair(Rc::new((a, b)))
    }

    /// Builds a right-nested tuple.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn tuple(parts: Vec<RVal>) -> RVal {
        let mut it = parts.into_iter().rev();
        let mut acc = it.next().expect("tuple must be non-empty");
        for v in it {
            acc = RVal::pair(v, acc);
        }
        acc
    }

    /// Structural equality (same contract as the machine's).
    pub fn structural_eq(&self, other: &RVal) -> Option<bool> {
        match (self, other) {
            (RVal::Unit, RVal::Unit) => Some(true),
            (RVal::Int(a), RVal::Int(b)) => Some(a == b),
            (RVal::Bool(a), RVal::Bool(b)) => Some(a == b),
            (RVal::Str(a), RVal::Str(b)) => Some(a == b),
            (RVal::Pair(a), RVal::Pair(b)) => {
                Some(a.0.structural_eq(&b.0)? && a.1.structural_eq(&b.1)?)
            }
            (RVal::Con(ta, pa), RVal::Con(tb, pb)) => {
                if ta != tb {
                    return Some(false);
                }
                match (pa, pb) {
                    (None, None) => Some(true),
                    (Some(a), Some(b)) => a.structural_eq(b),
                    _ => Some(false),
                }
            }
            (RVal::Ref(a), RVal::Ref(b)) => Some(Rc::ptr_eq(a, b)),
            (RVal::Array(a), RVal::Array(b)) => Some(Rc::ptr_eq(a, b)),
            _ => None,
        }
    }
}

impl fmt::Display for RVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RVal::Unit => f.write_str("()"),
            RVal::Int(n) => write!(f, "{n}"),
            RVal::Bool(b) => write!(f, "{b}"),
            RVal::Str(s) => write!(f, "{s:?}"),
            RVal::Pair(p) => write!(f, "({}, {})", p.0, p.1),
            RVal::Con(tag, None) => write!(f, "con{}", tag.0),
            RVal::Con(tag, Some(v)) => write!(f, "con{}({})", tag.0, v),
            RVal::Closure(_) | RVal::RecClosure { .. } | RVal::Gen(_) => f.write_str("<fn>"),
            RVal::Ref(v) => write!(f, "ref {}", v.borrow()),
            RVal::Array(a) => {
                f.write_str("[|")?;
                for (i, v) in a.borrow().iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("|]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlbox_ir::name::NameGen;

    #[test]
    fn env_lookup_finds_innermost() {
        let mut names = NameGen::new();
        let x1 = names.fresh("x");
        let x2 = names.fresh("x");
        let env = Env::empty()
            .bind(x1.clone(), RVal::Int(1))
            .bind(x2.clone(), RVal::Int(2));
        assert!(matches!(env.get(&x1), Some(RVal::Int(1))));
        assert!(matches!(env.get(&x2), Some(RVal::Int(2))));
        assert!(env.get(&names.fresh("y")).is_none());
    }

    #[test]
    fn tuple_display_matches_machine_format() {
        let t = RVal::tuple(vec![RVal::Int(1), RVal::Int(2), RVal::Int(3)]);
        assert_eq!(t.to_string(), "(1, (2, 3))");
    }

    #[test]
    fn structural_eq_mirrors_machine() {
        let a = RVal::Con(ConId(1), Some(Rc::new(RVal::Int(3))));
        let b = RVal::Con(ConId(1), Some(Rc::new(RVal::Int(3))));
        assert_eq!(a.structural_eq(&b), Some(true));
    }
}
