//! Diagnostics shared by every pipeline phase (lexing, parsing,
//! elaboration, type checking).

use crate::span::{line_col, Span};
use std::fmt;

/// Which pipeline phase produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Lexical analysis.
    Lex,
    /// Parsing.
    Parse,
    /// Elaboration (scope resolution, desugaring, pattern compilation).
    Elaborate,
    /// Modal type checking.
    Type,
    /// Compilation to the CCAM.
    Compile,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Phase::Lex => "lex",
            Phase::Parse => "parse",
            Phase::Elaborate => "elaborate",
            Phase::Type => "type",
            Phase::Compile => "compile",
        };
        f.write_str(s)
    }
}

/// Whether a diagnostic stops the pipeline or only informs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// The program is rejected.
    Error,
    /// The program is accepted; something in it is suspect (a
    /// non-exhaustive or redundant match).
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        })
    }
}

/// A single error or warning with a source location.
///
/// Messages follow the Rust API guidelines: lowercase, no trailing
/// punctuation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Phase that raised the diagnostic.
    pub phase: Phase,
    /// Error or warning.
    pub severity: Severity,
    /// Primary message.
    pub message: String,
    /// Location of the offending source text.
    pub span: Span,
    /// Optional secondary notes.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A new error in `phase` at `span`.
    pub fn new(phase: Phase, message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            phase,
            severity: Severity::Error,
            message: message.into(),
            span,
            notes: Vec::new(),
        }
    }

    /// A new warning in `phase` at `span`.
    pub fn warning(phase: Phase, message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::new(phase, message, span)
        }
    }

    /// Attaches an extra note, returning `self` for chaining.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Renders the diagnostic against its source buffer, with line/column
    /// information and the offending line underlined.
    pub fn render(&self, src: &str) -> String {
        let lc = line_col(src, self.span.start);
        let mut out = format!(
            "{} {} at {}: {}",
            self.phase, self.severity, lc, self.message
        );
        // Show the offending line.
        if let Some(line_text) = src.lines().nth(lc.line as usize - 1) {
            out.push('\n');
            out.push_str("  | ");
            out.push_str(line_text);
            out.push('\n');
            out.push_str("  | ");
            for _ in 1..lc.col {
                out.push(' ');
            }
            let width = self
                .span
                .len()
                .max(1)
                .min(line_text.len() as u32 + 1 - (lc.col - 1).min(line_text.len() as u32));
            for _ in 0..width.max(1) {
                out.push('^');
            }
        }
        for note in &self.notes {
            out.push_str("\n  note: ");
            out.push_str(note);
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}: {} (at {})",
            self.phase, self.severity, self.message, self.span
        )
    }
}

impl std::error::Error for Diagnostic {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_message() {
        let d = Diagnostic::new(Phase::Parse, "expected `end`", Span::new(2, 5));
        assert!(d.to_string().contains("expected `end`"));
        assert!(d.to_string().contains("parse"));
    }

    #[test]
    fn render_points_at_line() {
        let src = "val x =\nval y = 2";
        let d = Diagnostic::new(Phase::Parse, "expected expression", Span::new(8, 11));
        let rendered = d.render(src);
        assert!(rendered.contains("2:1"), "{rendered}");
        assert!(rendered.contains("val y = 2"));
        assert!(rendered.contains('^'));
    }

    #[test]
    fn warnings_render_without_the_word_error() {
        let src = "val x = 1\nfun f l = case l of a :: r => a";
        let d = Diagnostic::warning(
            Phase::Elaborate,
            "match is not exhaustive",
            Span::new(20, 41),
        );
        assert_eq!(
            d.render(src),
            "elaborate warning at 2:11: match is not exhaustive\n\
             \x20 | fun f l = case l of a :: r => a\n\
             \x20 |           ^^^^^^^^^^^^^^^^^^^^^"
        );
        assert_eq!(
            d.to_string(),
            "elaborate warning: match is not exhaustive (at 20..41)"
        );
    }

    #[test]
    fn notes_are_rendered() {
        let src = "x";
        let d = Diagnostic::new(Phase::Type, "type mismatch", Span::new(0, 1))
            .with_note("expected int");
        assert!(d.render(src).contains("note: expected int"));
    }
}
