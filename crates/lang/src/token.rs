//! Tokens of the EXCESS surface language.

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier (type, object, variable, field, or function name).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (double-quoted).
    Str(String),
    // keywords
    /// `define`
    Define,
    /// `type`
    Type,
    /// `create`
    Create,
    /// `function`
    Function,
    /// `procedure`
    Procedure,
    /// `call`
    Call,
    /// `returns`
    Returns,
    /// `inherits`
    Inherits,
    /// `retrieve`
    Retrieve,
    /// `unique`
    Unique,
    /// `from`
    From,
    /// `in`
    In,
    /// `where`
    Where,
    /// `by`
    By,
    /// `into`
    Into,
    /// `range`
    Range,
    /// `of`
    Of,
    /// `is`
    Is,
    /// `append`
    Append,
    /// `to`
    To,
    /// `delete`
    Delete,
    /// `replace`
    Replace,
    /// `assign`
    Assign,
    /// `and`
    And,
    /// `or`
    Or,
    /// `not`
    Not,
    /// `union` (multiset ∪, max of cardinalities)
    Union,
    /// `intersect` (multiset ∩)
    Intersect,
    /// `uplus` (additive union ⊎)
    Uplus,
    /// `times` (Cartesian product ×, pair-producing)
    Times,
    /// `ref`
    Ref,
    /// `array`
    Array,
    /// `this`
    This,
    /// `last`
    Last,
    /// `true`
    True,
    /// `false`
    False,
    /// `dne`
    Dne,
    /// `unk`
    Unk,
    // punctuation
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `;`
    Semi,
    /// `.`
    Dot,
    /// `..`
    DotDot,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// End of input.
    Eof,
}

impl Token {
    /// Keyword lookup for an identifier-shaped lexeme.
    pub(crate) fn keyword(s: &str) -> Option<Token> {
        Some(match s {
            "define" => Token::Define,
            "type" => Token::Type,
            "create" => Token::Create,
            "function" => Token::Function,
            "procedure" => Token::Procedure,
            "call" => Token::Call,
            "returns" => Token::Returns,
            "inherits" => Token::Inherits,
            "retrieve" => Token::Retrieve,
            "unique" => Token::Unique,
            "from" => Token::From,
            "in" => Token::In,
            "where" => Token::Where,
            "by" => Token::By,
            "into" => Token::Into,
            "range" => Token::Range,
            "of" => Token::Of,
            "is" => Token::Is,
            "append" => Token::Append,
            "to" => Token::To,
            "delete" => Token::Delete,
            "replace" => Token::Replace,
            "assign" => Token::Assign,
            "and" => Token::And,
            "or" => Token::Or,
            "not" => Token::Not,
            "union" => Token::Union,
            "intersect" => Token::Intersect,
            "uplus" => Token::Uplus,
            "times" => Token::Times,
            "ref" => Token::Ref,
            "array" => Token::Array,
            "this" => Token::This,
            "last" => Token::Last,
            "true" => Token::True,
            "false" => Token::False,
            "dne" => Token::Dne,
            "unk" => Token::Unk,
            _ => return None,
        })
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(i) => write!(f, "{i}"),
            Token::Float(x) => write!(f, "{x}"),
            Token::Str(s) => write!(f, "{s:?}"),
            other => {
                let s = match other {
                    Token::Define => "define",
                    Token::Type => "type",
                    Token::Create => "create",
                    Token::Function => "function",
                    Token::Procedure => "procedure",
                    Token::Call => "call",
                    Token::Returns => "returns",
                    Token::Inherits => "inherits",
                    Token::Retrieve => "retrieve",
                    Token::Unique => "unique",
                    Token::From => "from",
                    Token::In => "in",
                    Token::Where => "where",
                    Token::By => "by",
                    Token::Into => "into",
                    Token::Range => "range",
                    Token::Of => "of",
                    Token::Is => "is",
                    Token::Append => "append",
                    Token::To => "to",
                    Token::Delete => "delete",
                    Token::Replace => "replace",
                    Token::Assign => "assign",
                    Token::And => "and",
                    Token::Or => "or",
                    Token::Not => "not",
                    Token::Union => "union",
                    Token::Intersect => "intersect",
                    Token::Uplus => "uplus",
                    Token::Times => "times",
                    Token::Ref => "ref",
                    Token::Array => "array",
                    Token::This => "this",
                    Token::Last => "last",
                    Token::True => "true",
                    Token::False => "false",
                    Token::Dne => "dne",
                    Token::Unk => "unk",
                    Token::LParen => "(",
                    Token::RParen => ")",
                    Token::LBrace => "{",
                    Token::RBrace => "}",
                    Token::LBracket => "[",
                    Token::RBracket => "]",
                    Token::Comma => ",",
                    Token::Colon => ":",
                    Token::Semi => ";",
                    Token::Dot => ".",
                    Token::DotDot => "..",
                    Token::Eq => "=",
                    Token::Ne => "!=",
                    Token::Lt => "<",
                    Token::Le => "<=",
                    Token::Gt => ">",
                    Token::Ge => ">=",
                    Token::Plus => "+",
                    Token::Minus => "-",
                    Token::Star => "*",
                    Token::Slash => "/",
                    Token::Eof => "<eof>",
                    _ => unreachable!(),
                };
                f.write_str(s)
            }
        }
    }
}
