//! The crate-level error type.

use ccam::machine::MachineError;
use mlbox_eval::EvalError;
use mlbox_syntax::diag::Diagnostic;
use std::fmt;

/// Any failure in the MLbox pipeline.
#[derive(Debug)]
pub enum Error {
    /// A static error (lex, parse, elaborate, type check, compile), with
    /// the source it arose in for rendering.
    Static {
        /// The diagnostic.
        diag: Diagnostic,
        /// The source buffer the diagnostic's span refers to.
        src: String,
    },
    /// A CCAM run-time error.
    Machine(MachineError),
    /// A reference-interpreter run-time error.
    Eval(EvalError),
    /// A value could not be packaged as a thread-shareable compiled
    /// artifact (not a function, or captures mutable state).
    Artifact(String),
    /// A persisted artifact container failed to parse (truncated,
    /// corrupt, wrong version, …).
    Wire(crate::wire::WireError),
}

impl Error {
    /// The diagnostic, if this is a static error.
    pub fn diagnostic(&self) -> Option<&Diagnostic> {
        match self {
            Error::Static { diag, .. } => Some(diag),
            _ => None,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Static { diag, src } => f.write_str(&diag.render(src)),
            Error::Machine(e) => write!(f, "machine error: {e}"),
            Error::Eval(e) => write!(f, "evaluation error: {e}"),
            Error::Artifact(msg) => write!(f, "artifact error: {msg}"),
            Error::Wire(e) => write!(f, "artifact wire error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Static { diag, .. } => Some(diag),
            Error::Machine(e) => Some(e),
            Error::Eval(e) => Some(e),
            Error::Artifact(_) => None,
            Error::Wire(e) => Some(e),
        }
    }
}

impl From<crate::wire::WireError> for Error {
    fn from(e: crate::wire::WireError) -> Self {
        Error::Wire(e)
    }
}

impl From<MachineError> for Error {
    fn from(e: MachineError) -> Self {
        Error::Machine(e)
    }
}

impl From<EvalError> for Error {
    fn from(e: EvalError) -> Self {
        Error::Eval(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlbox_syntax::diag::Phase;
    use mlbox_syntax::span::Span;

    #[test]
    fn display_renders_static_errors_with_source() {
        let e = Error::Static {
            diag: Diagnostic::new(Phase::Type, "type mismatch", Span::new(0, 3)),
            src: "foo bar".to_string(),
        };
        let s = e.to_string();
        assert!(s.contains("type mismatch"));
        assert!(s.contains("foo bar"));
    }

    #[test]
    fn machine_errors_convert() {
        let e: Error = MachineError::DivideByZero.into();
        assert!(e.to_string().contains("zero"));
    }
}
