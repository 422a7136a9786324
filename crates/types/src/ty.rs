//! Semantic types, unification variables, schemes, and unification.
//!
//! Standard Hindley–Milner machinery (mutable unification variables with
//! Rémy-style levels for efficient generalization) over a type language
//! extended with the modal constructor `□A` (`Box`).

use mlbox_ir::data::{DataEnv, DataId};
use std::cell::RefCell;
use std::rc::Rc;

/// A unification variable's state.
#[derive(Debug)]
pub enum TvState {
    /// Not yet solved; `level` is the let-nesting depth at creation.
    Unbound {
        /// Unique id (for printing and occurs checks).
        id: u32,
        /// Binding level for generalization.
        level: u32,
    },
    /// Solved: behaves as the linked type.
    Link(Type),
}

/// A shared, mutable unification variable.
pub type Tv = Rc<RefCell<TvState>>;

/// A semantic type.
#[derive(Debug, Clone)]
pub enum Type {
    /// `int`
    Int,
    /// `bool`
    Bool,
    /// `string`
    Str,
    /// `unit`
    Unit,
    /// A unification variable.
    Var(Tv),
    /// A scheme parameter (only inside [`Scheme`] bodies).
    Param(u32),
    /// `A -> B`
    Arrow(Rc<Type>, Rc<Type>),
    /// `A * B * ...` (arity >= 2)
    Tuple(Rc<Vec<Type>>),
    /// `□A` — the modal type of generators for code of type `A`
    /// (written `A $` in the concrete syntax).
    Box(Rc<Type>),
    /// An applied datatype.
    Data(DataId, Rc<Vec<Type>>),
    /// `A ref`
    Ref(Rc<Type>),
    /// `A array`
    Array(Rc<Type>),
}

/// A type scheme `∀ params. body`.
#[derive(Debug, Clone)]
pub struct Scheme {
    /// Number of quantified parameters (`Param(0..count)`).
    pub params: u32,
    /// The body, mentioning `Param`s.
    pub body: Type,
}

impl Scheme {
    /// A monomorphic scheme.
    pub fn mono(t: Type) -> Scheme {
        Scheme { params: 0, body: t }
    }

    /// Whether the body mentions no unification variable, so the scheme
    /// is immutable and its `Rc`s can be shared between checkers.
    pub(crate) fn is_closed(&self) -> bool {
        fn closed(t: &Type) -> bool {
            match t {
                Type::Var(_) => false,
                Type::Int | Type::Bool | Type::Str | Type::Unit | Type::Param(_) => true,
                Type::Arrow(a, b) => closed(a) && closed(b),
                Type::Box(i) | Type::Ref(i) | Type::Array(i) => closed(i),
                Type::Tuple(parts) | Type::Data(_, parts) => parts.iter().all(closed),
            }
        }
        closed(&self.body)
    }
}

/// Fresh-variable supply and level tracking.
#[derive(Debug, Clone, Default)]
pub struct TvGen {
    next: u32,
    level: u32,
}

impl TvGen {
    /// A fresh supply at level 0.
    pub fn new() -> TvGen {
        TvGen::default()
    }

    /// A fresh unbound variable at the current level.
    pub fn fresh(&mut self) -> Type {
        let id = self.next;
        self.next += 1;
        Type::Var(Rc::new(RefCell::new(TvState::Unbound {
            id,
            level: self.level,
        })))
    }

    /// Enters a let right-hand side (increments the level).
    pub fn enter_level(&mut self) {
        self.level += 1;
    }

    /// Leaves a let right-hand side.
    pub fn leave_level(&mut self) {
        self.level -= 1;
    }

    /// The current level.
    pub fn level(&self) -> u32 {
        self.level
    }
}

/// A unification failure: the two types that did not match (after
/// resolution), for error reporting.
#[derive(Debug, Clone)]
pub struct UnifyError {
    /// Rendering of the expected type.
    pub expected: String,
    /// Rendering of the found type.
    pub found: String,
    /// Whether the failure was an occurs-check (infinite type).
    pub occurs: bool,
}

impl UnifyError {
    /// Renders the two types with one lettering, so a variable they
    /// share prints alike in both.
    fn new(expected: &Type, found: &Type, data: &DataEnv, occurs: bool) -> UnifyError {
        let mut names = TyNames::generalized_above(u32::MAX);
        UnifyError {
            expected: names.render(expected, data),
            found: names.render(found, data),
            occurs,
        }
    }
}

/// Follows `Link`s to the representative.
pub fn resolve(t: &Type) -> Type {
    match t {
        Type::Var(tv) => {
            let state = tv.borrow();
            match &*state {
                TvState::Link(inner) => {
                    let r = resolve(inner);
                    drop(state);
                    // Path compression.
                    *tv.borrow_mut() = TvState::Link(r.clone());
                    r
                }
                TvState::Unbound { .. } => t.clone(),
            }
        }
        other => other.clone(),
    }
}

fn occurs_adjust(tv: &Tv, t: &Type) -> bool {
    match &resolve(t) {
        Type::Var(other) => {
            if Rc::ptr_eq(tv, other) {
                return true;
            }
            // Level adjustment: the variable escapes into an outer scope.
            let min_level = match &*tv.borrow() {
                TvState::Unbound { level, .. } => *level,
                TvState::Link(_) => unreachable!("tv is unbound during occurs check"),
            };
            let mut state = other.borrow_mut();
            if let TvState::Unbound { level, .. } = &mut *state {
                if *level > min_level {
                    *level = min_level;
                }
            }
            false
        }
        Type::Arrow(a, b) => occurs_adjust(tv, a) || occurs_adjust(tv, b),
        Type::Tuple(parts) => parts.iter().any(|p| occurs_adjust(tv, p)),
        Type::Box(inner) | Type::Ref(inner) | Type::Array(inner) => occurs_adjust(tv, inner),
        Type::Data(_, args) => args.iter().any(|a| occurs_adjust(tv, a)),
        _ => false,
    }
}

/// Unifies two types in place.
///
/// # Errors
///
/// Returns a [`UnifyError`] when the types clash or the occurs check
/// fails; renderings use `data` for datatype names.
pub fn unify(a: &Type, b: &Type, data: &DataEnv) -> Result<(), UnifyError> {
    let ra = resolve(a);
    let rb = resolve(b);
    match (&ra, &rb) {
        (Type::Var(x), Type::Var(y)) if Rc::ptr_eq(x, y) => Ok(()),
        (Type::Var(x), _) => {
            if occurs_adjust(x, &rb) {
                return Err(UnifyError::new(&ra, &rb, data, true));
            }
            *x.borrow_mut() = TvState::Link(rb);
            Ok(())
        }
        (_, Type::Var(y)) => {
            if occurs_adjust(y, &ra) {
                return Err(UnifyError::new(&ra, &rb, data, true));
            }
            *y.borrow_mut() = TvState::Link(ra);
            Ok(())
        }
        (Type::Int, Type::Int)
        | (Type::Bool, Type::Bool)
        | (Type::Str, Type::Str)
        | (Type::Unit, Type::Unit) => Ok(()),
        (Type::Arrow(a1, b1), Type::Arrow(a2, b2)) => {
            unify(a1, a2, data)?;
            unify(b1, b2, data)
        }
        (Type::Tuple(p1), Type::Tuple(p2)) if p1.len() == p2.len() => {
            for (x, y) in p1.iter().zip(p2.iter()) {
                unify(x, y, data)?;
            }
            Ok(())
        }
        (Type::Box(i1), Type::Box(i2)) => unify(i1, i2, data),
        (Type::Ref(i1), Type::Ref(i2)) => unify(i1, i2, data),
        (Type::Array(i1), Type::Array(i2)) => unify(i1, i2, data),
        (Type::Data(d1, a1), Type::Data(d2, a2)) if d1 == d2 && a1.len() == a2.len() => {
            for (x, y) in a1.iter().zip(a2.iter()) {
                unify(x, y, data)?;
            }
            Ok(())
        }
        _ => Err(UnifyError::new(&ra, &rb, data, false)),
    }
}

/// Generalizes a type at the current level: unbound variables deeper than
/// `level` become scheme parameters.
pub fn generalize(t: &Type, level: u32) -> Scheme {
    let mut params: Vec<*const RefCell<TvState>> = Vec::new();
    fn walk(t: &Type, level: u32, params: &mut Vec<*const RefCell<TvState>>) -> Type {
        match &resolve(t) {
            Type::Var(tv) => {
                let is_deep = matches!(
                    &*tv.borrow(),
                    TvState::Unbound { level: l, .. } if *l > level
                );
                if is_deep {
                    let ptr = Rc::as_ptr(tv);
                    let idx = params.iter().position(|p| *p == ptr).unwrap_or_else(|| {
                        params.push(ptr);
                        params.len() - 1
                    });
                    Type::Param(idx as u32)
                } else {
                    Type::Var(tv.clone())
                }
            }
            Type::Arrow(a, b) => Type::Arrow(
                Rc::new(walk(a, level, params)),
                Rc::new(walk(b, level, params)),
            ),
            Type::Tuple(parts) => Type::Tuple(Rc::new(
                parts.iter().map(|p| walk(p, level, params)).collect(),
            )),
            Type::Box(i) => Type::Box(Rc::new(walk(i, level, params))),
            Type::Ref(i) => Type::Ref(Rc::new(walk(i, level, params))),
            Type::Array(i) => Type::Array(Rc::new(walk(i, level, params))),
            Type::Data(d, args) => Type::Data(
                *d,
                Rc::new(args.iter().map(|a| walk(a, level, params)).collect()),
            ),
            other => other.clone(),
        }
    }
    let body = walk(t, level, &mut params);
    Scheme {
        params: params.len() as u32,
        body,
    }
}

/// Instantiates a scheme with fresh variables.
pub fn instantiate(s: &Scheme, gen: &mut TvGen) -> Type {
    if s.params == 0 {
        return s.body.clone();
    }
    let fresh: Vec<Type> = (0..s.params).map(|_| gen.fresh()).collect();
    subst_params(&s.body, &fresh)
}

/// Substitutes `Param(i)` with `args[i]`.
pub fn subst_params(t: &Type, args: &[Type]) -> Type {
    match t {
        Type::Param(i) => args[*i as usize].clone(),
        Type::Var(_) => t.clone(),
        Type::Arrow(a, b) => Type::Arrow(
            Rc::new(subst_params(a, args)),
            Rc::new(subst_params(b, args)),
        ),
        Type::Tuple(parts) => Type::Tuple(Rc::new(
            parts.iter().map(|p| subst_params(p, args)).collect(),
        )),
        Type::Box(i) => Type::Box(Rc::new(subst_params(i, args))),
        Type::Ref(i) => Type::Ref(Rc::new(subst_params(i, args))),
        Type::Array(i) => Type::Array(Rc::new(subst_params(i, args))),
        Type::Data(d, as_) => Type::Data(
            *d,
            Rc::new(as_.iter().map(|a| subst_params(a, args)).collect()),
        ),
        other => other.clone(),
    }
}

/// Renders a type in the concrete syntax (`int list`, `(int -> int) $`,
/// `'_a * '_b`). Unification variables print as `'_a`, `'_b`, … in
/// order of first appearance; no internal id is printed.
pub fn render(t: &Type, data: &DataEnv) -> String {
    TyNames::generalized_above(u32::MAX).render(t, data)
}

/// The names of the type variables of one rendering: letters in order
/// of first appearance. Variables deeper than `generalized_above` print
/// as scheme variables (`'a`), all others as ungeneralized ones (`'_a`).
#[derive(Debug)]
pub struct TyNames {
    seen: Vec<*const RefCell<TvState>>,
    generalized_above: u32,
}

impl TyNames {
    /// Names for a declaration's principal type: variables deeper than
    /// `level` are the ones the declaration generalized.
    pub fn generalized_above(level: u32) -> TyNames {
        TyNames {
            seen: Vec::new(),
            generalized_above: level,
        }
    }

    /// Renders `t`, naming its variables consistently with everything
    /// this namer rendered before.
    pub fn render(&mut self, t: &Type, data: &DataEnv) -> String {
        match &resolve(t) {
            Type::Int => "int".into(),
            Type::Bool => "bool".into(),
            Type::Str => "string".into(),
            Type::Unit => "unit".into(),
            Type::Var(tv) => {
                let TvState::Unbound { level, .. } = *tv.borrow() else {
                    unreachable!("resolved")
                };
                let ptr = Rc::as_ptr(tv);
                let i = self.seen.iter().position(|p| *p == ptr).unwrap_or_else(|| {
                    self.seen.push(ptr);
                    self.seen.len() - 1
                });
                let weak = if level > self.generalized_above {
                    ""
                } else {
                    "_"
                };
                format!("'{weak}{}", param_name(i as u32))
            }
            Type::Param(i) => format!("'{}", param_name(*i)),
            Type::Arrow(a, b) => format!("{} -> {}", self.atom(a, data), self.render(b, data)),
            Type::Tuple(parts) => parts
                .iter()
                .map(|p| self.atom(p, data))
                .collect::<Vec<_>>()
                .join(" * "),
            Type::Box(i) => format!("{} $", self.atom(i, data)),
            Type::Ref(i) => format!("{} ref", self.atom(i, data)),
            Type::Array(i) => format!("{} array", self.atom(i, data)),
            Type::Data(d, args) => {
                let name = &data.datatype(*d).name;
                match args.len() {
                    0 => name.clone(),
                    1 => format!("{} {}", self.atom(&args[0], data), name),
                    _ => format!(
                        "({}) {}",
                        args.iter()
                            .map(|a| self.render(a, data))
                            .collect::<Vec<_>>()
                            .join(", "),
                        name
                    ),
                }
            }
        }
    }

    fn atom(&mut self, t: &Type, data: &DataEnv) -> String {
        let s = self.render(t, data);
        match resolve(t) {
            Type::Arrow(_, _) | Type::Tuple(_) => format!("({s})"),
            _ => s,
        }
    }
}

fn param_name(i: u32) -> String {
    let letter = (b'a' + (i % 26) as u8) as char;
    if i < 26 {
        letter.to_string()
    } else {
        format!("{}{}", letter, i / 26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> DataEnv {
        DataEnv::new()
    }

    #[test]
    fn unify_base_types() {
        assert!(unify(&Type::Int, &Type::Int, &data()).is_ok());
        assert!(unify(&Type::Int, &Type::Bool, &data()).is_err());
    }

    #[test]
    fn unify_links_variables() {
        let mut g = TvGen::new();
        let v = g.fresh();
        unify(&v, &Type::Int, &data()).unwrap();
        assert!(matches!(resolve(&v), Type::Int));
    }

    #[test]
    fn occurs_check_rejects_infinite_types() {
        let mut g = TvGen::new();
        let v = g.fresh();
        let arrow = Type::Arrow(Rc::new(v.clone()), Rc::new(Type::Int));
        let e = unify(&v, &arrow, &data()).unwrap_err();
        assert!(e.occurs);
    }

    #[test]
    fn generalize_and_instantiate() {
        let mut g = TvGen::new();
        g.enter_level();
        let v = g.fresh();
        g.leave_level();
        let id_ty = Type::Arrow(Rc::new(v.clone()), Rc::new(v));
        let scheme = generalize(&id_ty, g.level());
        assert_eq!(scheme.params, 1);
        let t1 = instantiate(&scheme, &mut g);
        let t2 = instantiate(&scheme, &mut g);
        // Instantiations are independent: unifying t1's domain with int
        // must not affect t2.
        let Type::Arrow(d1, _) = resolve(&t1) else {
            panic!()
        };
        unify(&d1, &Type::Int, &data()).unwrap();
        let Type::Arrow(d2, _) = resolve(&t2) else {
            panic!()
        };
        assert!(matches!(resolve(&d2), Type::Var(_)));
    }

    #[test]
    fn shallow_variables_are_not_generalized() {
        let mut g = TvGen::new();
        let v = g.fresh(); // level 0
        let scheme = generalize(&v, 0);
        assert_eq!(scheme.params, 0);
    }

    #[test]
    fn render_box_types() {
        let t = Type::Box(Rc::new(Type::Arrow(Rc::new(Type::Int), Rc::new(Type::Int))));
        assert_eq!(render(&t, &data()), "(int -> int) $");
    }

    #[test]
    fn render_list() {
        let t = Type::Data(mlbox_ir::LIST, Rc::new(vec![Type::Int]));
        assert_eq!(render(&t, &data()), "int list");
    }
}
