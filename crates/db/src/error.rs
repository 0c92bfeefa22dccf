//! Database errors.

use std::fmt;

/// Any failure while executing EXCESS statements.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant payloads are the wrapped errors
pub enum DbError {
    /// Front-end (lex/parse/translate) failure.
    Lang(excess_lang::LangError),
    /// Evaluation failure.
    Eval(excess_core::EvalError),
    /// Type-system failure.
    Type(excess_types::TypeError),
    /// Schema inference failure.
    Infer(String),
    /// Engine-level failure (unknown object, wrong statement kind, …).
    Other(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Lang(e) => write!(f, "{e}"),
            DbError::Eval(e) => write!(f, "{e}"),
            DbError::Type(e) => write!(f, "{e}"),
            DbError::Infer(s) => write!(f, "inference: {s}"),
            DbError::Other(s) => write!(f, "{s}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<excess_lang::LangError> for DbError {
    fn from(e: excess_lang::LangError) -> Self {
        DbError::Lang(e)
    }
}
impl From<excess_core::EvalError> for DbError {
    fn from(e: excess_core::EvalError) -> Self {
        DbError::Eval(e)
    }
}
impl From<excess_types::TypeError> for DbError {
    fn from(e: excess_types::TypeError) -> Self {
        DbError::Type(e)
    }
}

/// Result alias.
pub type DbResult<T> = std::result::Result<T, DbError>;
