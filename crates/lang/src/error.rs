//! Errors of the EXCESS front end.

use std::fmt;

/// Lexing, parsing, translation, or decompilation failure.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum LangError {
    /// Lexer error.
    Lex(String),
    /// Parser error.
    Parse(String),
    /// Name resolution / typing error during translation.
    Translate(String),
    /// Decompilation error (e.g. an OID constant has no surface form).
    Decompile(String),
    /// Error bubbled up from the type system.
    Type(excess_types::TypeError),
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LangError::Lex(s) => write!(f, "lex error: {s}"),
            LangError::Parse(s) => write!(f, "parse error: {s}"),
            LangError::Translate(s) => write!(f, "translation error: {s}"),
            LangError::Decompile(s) => write!(f, "decompilation error: {s}"),
            LangError::Type(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LangError {}

impl From<excess_types::TypeError> for LangError {
    fn from(e: excess_types::TypeError) -> Self {
        LangError::Type(e)
    }
}

/// Result alias.
pub type LangResult<T> = std::result::Result<T, LangError>;
