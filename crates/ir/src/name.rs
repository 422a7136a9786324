//! Alpha-renamed variable names.
//!
//! Elaboration gives every binder a globally unique [`Name`] so that later
//! phases (type checking, compilation to environment paths) never need to
//! reason about shadowing.

use std::fmt;
use std::rc::Rc;

/// A unique variable name: the source spelling plus a disambiguating id.
///
/// Equality and hashing use only the id.
#[derive(Debug, Clone)]
pub struct Name {
    text: Rc<str>,
    id: u32,
}

impl Name {
    /// The source spelling of the variable.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The unique id assigned at elaboration time.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// A synthetic name with a fixed id, for internal use where collision
    /// with [`NameGen`]-produced names is impossible (ids count up from 0).
    pub(crate) fn synthetic(id: u32) -> Name {
        Name {
            text: Rc::from("$_"),
            id,
        }
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for Name {}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.text, self.id)
    }
}

/// A generator of fresh [`Name`]s.
#[derive(Debug, Clone, Default)]
pub struct NameGen {
    next: u32,
}

impl NameGen {
    /// A new generator starting at id 0.
    pub fn new() -> Self {
        NameGen::default()
    }

    /// A fresh name with the given source spelling.
    pub fn fresh(&mut self, text: &str) -> Name {
        let id = self.next;
        self.next += 1;
        Name {
            text: Rc::from(text),
            id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_names_are_distinct() {
        let mut g = NameGen::new();
        let a = g.fresh("x");
        let b = g.fresh("x");
        assert_ne!(a, b);
        assert_eq!(a.text(), b.text());
    }

    #[test]
    fn equality_ignores_text() {
        let mut g = NameGen::new();
        let a = g.fresh("x");
        let a2 = a.clone();
        assert_eq!(a, a2);
    }

    #[test]
    fn display_shows_text_and_id() {
        let mut g = NameGen::new();
        let a = g.fresh("poly");
        assert_eq!(a.to_string(), "poly#0");
    }
}
