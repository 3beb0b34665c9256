//! SPARQL subset front-end: lexer, parser, join-query algebra, FILTER
//! rewriting, and the structural query analysis behind the paper's Table 2.
//!
//! The paper (Definition 3) restricts its study to *SPARQL join queries*:
//! `SELECT ?u1, ?u2, … WHERE { tp1 . tp2 . … }` plus FILTER conditions.
//! This crate parses a practical superset (PREFIX declarations, `a`,
//! predicate-object lists, DISTINCT, OPTIONAL and UNION for the engine's
//! extension features) and lowers it to the [`algebra::JoinQuery`] form all
//! planners consume.
//!
//! The [`rewrite`] module implements the behaviour Section 6.2.1 attributes
//! to HSP alone: "HSP systematically rewrites filtering queries into an
//! equivalent form involving only triple patterns" — equality filters become
//! constant substitutions or variable unifications. The baselines only push
//! `?v = const` into their scans, under the same term-equality rule.

pub mod algebra;
pub mod analysis;
pub mod ast;
pub mod canon;
pub mod expr;
pub mod lexer;
pub mod parser;
pub mod regex;
pub mod rewrite;
pub mod template;

pub use algebra::{
    AggFunc, AggSpec, CmpOp, FilterExpr, JoinQuery, Modifiers, Operand, SortKey, TermOrVar,
    TriplePattern, Var,
};
pub use analysis::QueryCharacteristics;
pub use ast::{Query, UpdateOp, UpdateRequest};
pub use canon::{canonicalize, CanonicalQuery};
pub use expr::{ArithOp, Bindings, Evaluator, Expr, ExprError, Func, Value};
pub use parser::{parse_query, parse_tokens, parse_update, ParseError};
pub use regex::Regex;
pub use template::{skeleton, Template};
