//! The full FILTER expression language: typed values, SPARQL operator
//! semantics, and built-in functions.
//!
//! The paper (Definition 3) studies join queries whose FILTERs are equality
//! comparisons — those are what HSP's rewriting consumes and what the
//! simple [`FilterExpr`](crate::algebra::FilterExpr) variants model. Real
//! SPARQL FILTERs are a rich expression language (logical connectives,
//! arithmetic, string and term functions, `REGEX`); this module implements
//! it so the engine covers the paper's §7 goal of "all features of the
//! SPARQL language". Expressions that do not fit the rewritable equality
//! shape lower to [`FilterExpr::Complex`](crate::algebra::FilterExpr) and
//! are evaluated row-at-a-time by the executor.
//!
//! ## Semantics implemented
//!
//! * **Typed values** ([`Value`]): IRIs, booleans, integers, decimals,
//!   doubles, strings (plain / `xsd:string` / language-tagged) and opaque
//!   typed literals, derived from [`Term`]s by XSD-aware parsing.
//! * **Errors are values**: SPARQL evaluation errors (unbound variable,
//!   type error, malformed lexical form) propagate as
//!   [`ExprError`]; the logical connectives follow SPARQL's three-valued
//!   tables — `error || true = true`, `error && false = false` — and a
//!   FILTER whose condition errors simply drops the row.
//! * **Effective boolean value** (EBV) per the SPARQL 1.0 spec §11.2.2.
//! * **Operator dispatch** per the SPARQL operator table: numeric
//!   comparison with type promotion, codepoint string comparison,
//!   boolean comparison, term (in)equality, XPath-style arithmetic.
//! * **Functions**: `BOUND STR LANG DATATYPE ISIRI ISURI ISLITERAL ISBLANK
//!   SAMETERM LANGMATCHES REGEX` (SPARQL 1.0) plus the commonly used
//!   SPARQL 1.1 additions `ISNUMERIC STRSTARTS STRENDS CONTAINS STRLEN
//!   UCASE LCASE ABS CEIL FLOOR ROUND`.
//!
//! Documented deviations from the spec (choices shared with mainstream
//! engines): `DATATYPE` of a language-tagged literal returns
//! `rdf:langString` (the SPARQL 1.1 / RDF 1.1 behaviour) instead of
//! raising; `xsd:float` is evaluated in `f64`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use hsp_rdf::{vocab, Term};

use crate::algebra::{CmpOp, Var};
use crate::regex::{Regex, RegexError};

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

/// A runtime value produced by expression evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An IRI.
    Iri(Arc<str>),
    /// `xsd:boolean`.
    Boolean(bool),
    /// `xsd:integer` (and its derived types).
    Integer(i64),
    /// `xsd:decimal`.
    Decimal(f64),
    /// `xsd:double` / `xsd:float`.
    Double(f64),
    /// A plain, `xsd:string`, or language-tagged string.
    String {
        /// The character content.
        lexical: Arc<str>,
        /// The language tag, lowercased, if any.
        language: Option<Arc<str>>,
    },
    /// A literal with a datatype this module has no value space for.
    Other {
        /// The lexical form.
        lexical: Arc<str>,
        /// The datatype IRI.
        datatype: Arc<str>,
    },
}

impl Value {
    /// Interpret an RDF term as a value, parsing recognised XSD datatypes.
    ///
    /// A typed literal whose lexical form does not parse in its value
    /// space (e.g. `"abc"^^xsd:integer`) is *ill-typed*: it stays an
    /// [`Value::Other`] and most operations on it raise a type error,
    /// matching SPARQL's treatment of ill-typed literals.
    pub fn from_term(term: &Term) -> Value {
        match term {
            Term::Iri(iri) => Value::Iri(iri.clone()),
            Term::Literal {
                lexical,
                datatype,
                language,
            } => {
                if language.is_some() {
                    return Value::String {
                        lexical: lexical.clone(),
                        language: language.as_ref().map(lowercase_tag),
                    };
                }
                match datatype.as_deref() {
                    None | Some(vocab::XSD_STRING) => Value::String {
                        lexical: lexical.clone(),
                        language: None,
                    },
                    Some(vocab::XSD_BOOLEAN) => match lexical.trim() {
                        "true" | "1" => Value::Boolean(true),
                        "false" | "0" => Value::Boolean(false),
                        _ => Value::Other {
                            lexical: lexical.clone(),
                            datatype: vocab::XSD_BOOLEAN.into(),
                        },
                    },
                    Some(dt @ vocab::XSD_INTEGER) => match lexical.trim().parse::<i64>() {
                        Ok(v) => Value::Integer(v),
                        Err(_) => Value::Other {
                            lexical: lexical.clone(),
                            datatype: dt.into(),
                        },
                    },
                    Some(dt) if vocab::XSD_INTEGER_DERIVED.contains(&dt) => {
                        match lexical.trim().parse::<i64>() {
                            Ok(v) => Value::Integer(v),
                            Err(_) => Value::Other {
                                lexical: lexical.clone(),
                                datatype: dt.into(),
                            },
                        }
                    }
                    Some(dt @ vocab::XSD_DECIMAL) => match lexical.trim().parse::<f64>() {
                        Ok(v) => Value::Decimal(v),
                        Err(_) => Value::Other {
                            lexical: lexical.clone(),
                            datatype: dt.into(),
                        },
                    },
                    Some(dt @ (vocab::XSD_DOUBLE | vocab::XSD_FLOAT)) => {
                        match parse_double(lexical.trim()) {
                            Some(v) => Value::Double(v),
                            None => Value::Other {
                                lexical: lexical.clone(),
                                datatype: dt.into(),
                            },
                        }
                    }
                    Some(dt) => Value::Other {
                        lexical: lexical.clone(),
                        datatype: dt.into(),
                    },
                }
            }
        }
    }

    /// Render the value back as an RDF term (canonical lexical forms for
    /// computed numerics).
    pub fn to_term(&self) -> Term {
        match self {
            Value::Iri(iri) => Term::iri(iri.clone()),
            Value::Boolean(b) => Term::typed_literal(b.to_string(), vocab::XSD_BOOLEAN),
            Value::Integer(i) => Term::typed_literal(i.to_string(), vocab::XSD_INTEGER),
            Value::Decimal(d) => Term::typed_literal(format_decimal(*d), vocab::XSD_DECIMAL),
            Value::Double(d) => Term::typed_literal(format_double(*d), vocab::XSD_DOUBLE),
            Value::String {
                lexical,
                language: None,
            } => Term::literal(lexical.clone()),
            Value::String {
                lexical,
                language: Some(lang),
            } => Term::lang_literal(lexical.clone(), lang.clone()),
            Value::Other { lexical, datatype } => {
                Term::typed_literal(lexical.clone(), datatype.clone())
            }
        }
    }

    /// `true` if the value is numeric (integer, decimal, or double).
    pub fn is_numeric(&self) -> bool {
        matches!(
            self,
            Value::Integer(_) | Value::Decimal(_) | Value::Double(_)
        )
    }

    /// The numeric value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Integer(i) => Some(*i as f64),
            Value::Decimal(d) | Value::Double(d) => Some(*d),
            _ => None,
        }
    }

    /// The *effective boolean value* (SPARQL 1.0 §11.2.2).
    ///
    /// Booleans map to themselves; numerics are true unless zero or NaN;
    /// plain/`xsd:string` strings are true unless empty. Everything else
    /// (IRIs, lang-tagged strings per strict reading — we accept them like
    /// plain strings, as all mainstream engines do — and opaque typed
    /// literals) raises a type error.
    pub fn effective_boolean(&self) -> Result<bool, ExprError> {
        match self {
            Value::Boolean(b) => Ok(*b),
            Value::Integer(i) => Ok(*i != 0),
            Value::Decimal(d) | Value::Double(d) => Ok(*d != 0.0 && !d.is_nan()),
            Value::String { lexical, .. } => Ok(!lexical.is_empty()),
            Value::Iri(_) => Err(ExprError::Type("EBV of an IRI")),
            Value::Other { .. } => Err(ExprError::Type("EBV of an opaque typed literal")),
        }
    }
}

/// A language tag in the lowercase form [`Value::String`] compares on,
/// sharing the term's allocation when it already is lowercase.
fn lowercase_tag(tag: &Arc<str>) -> Arc<str> {
    if tag.bytes().any(|b| b.is_ascii_uppercase()) {
        tag.to_ascii_lowercase().into()
    } else {
        Arc::clone(tag)
    }
}

/// Parse `xsd:double` lexical forms, including `INF`, `-INF` and `NaN`.
fn parse_double(s: &str) -> Option<f64> {
    match s {
        "INF" | "+INF" => Some(f64::INFINITY),
        "-INF" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        other => other.parse::<f64>().ok(),
    }
}

fn format_double(d: f64) -> String {
    if d.is_nan() {
        "NaN".to_string()
    } else if d == f64::INFINITY {
        "INF".to_string()
    } else if d == f64::NEG_INFINITY {
        "-INF".to_string()
    } else {
        format!("{d:E}")
    }
}

fn format_decimal(d: f64) -> String {
    if d == d.trunc() && d.abs() < 1e15 {
        format!("{:.1}", d)
    } else {
        format!("{d}")
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A SPARQL expression evaluation error. In FILTER position an error means
/// "drop the row"; inside `||`/`&&` it participates in the three-valued
/// logic tables.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprError {
    /// A variable was unbound (possible under OPTIONAL/UNION padding).
    Unbound(Var),
    /// The operands' types do not fit the operator or function.
    Type(&'static str),
    /// A `REGEX` pattern or flags string failed to compile.
    Regex(String),
    /// Integer overflow or division by zero in exact arithmetic.
    Arithmetic(&'static str),
}

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExprError::Unbound(v) => write!(f, "unbound variable {v}"),
            ExprError::Type(what) => write!(f, "type error: {what}"),
            ExprError::Regex(e) => write!(f, "invalid regular expression: {e}"),
            ExprError::Arithmetic(what) => write!(f, "arithmetic error: {what}"),
        }
    }
}

impl std::error::Error for ExprError {}

// ---------------------------------------------------------------------------
// Expression tree
// ---------------------------------------------------------------------------

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl ArithOp {
    /// The surface lexeme.
    pub fn lexeme(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        }
    }
}

/// The built-in functions understood by [`Expr::Call`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Func {
    Bound,
    Str,
    Lang,
    Datatype,
    IsIri,
    IsLiteral,
    IsBlank,
    IsNumeric,
    SameTerm,
    LangMatches,
    Regex,
    StrStarts,
    StrEnds,
    Contains,
    StrLen,
    UCase,
    LCase,
    Abs,
    Ceil,
    Floor,
    Round,
}

impl Func {
    /// Resolve a (case-insensitive) SPARQL function name.
    pub fn from_name(name: &str) -> Option<Func> {
        Some(match name.to_ascii_uppercase().as_str() {
            "BOUND" => Func::Bound,
            "STR" => Func::Str,
            "LANG" => Func::Lang,
            "DATATYPE" => Func::Datatype,
            "ISIRI" | "ISURI" => Func::IsIri,
            "ISLITERAL" => Func::IsLiteral,
            "ISBLANK" => Func::IsBlank,
            "ISNUMERIC" => Func::IsNumeric,
            "SAMETERM" => Func::SameTerm,
            "LANGMATCHES" => Func::LangMatches,
            "REGEX" => Func::Regex,
            "STRSTARTS" => Func::StrStarts,
            "STRENDS" => Func::StrEnds,
            "CONTAINS" => Func::Contains,
            "STRLEN" => Func::StrLen,
            "UCASE" => Func::UCase,
            "LCASE" => Func::LCase,
            "ABS" => Func::Abs,
            "CEIL" => Func::Ceil,
            "FLOOR" => Func::Floor,
            "ROUND" => Func::Round,
            _ => return None,
        })
    }

    /// The canonical (uppercase) name.
    pub fn name(self) -> &'static str {
        match self {
            Func::Bound => "BOUND",
            Func::Str => "STR",
            Func::Lang => "LANG",
            Func::Datatype => "DATATYPE",
            Func::IsIri => "ISIRI",
            Func::IsLiteral => "ISLITERAL",
            Func::IsBlank => "ISBLANK",
            Func::IsNumeric => "ISNUMERIC",
            Func::SameTerm => "SAMETERM",
            Func::LangMatches => "LANGMATCHES",
            Func::Regex => "REGEX",
            Func::StrStarts => "STRSTARTS",
            Func::StrEnds => "STRENDS",
            Func::Contains => "CONTAINS",
            Func::StrLen => "STRLEN",
            Func::UCase => "UCASE",
            Func::LCase => "LCASE",
            Func::Abs => "ABS",
            Func::Ceil => "CEIL",
            Func::Floor => "FLOOR",
            Func::Round => "ROUND",
        }
    }

    /// The accepted argument counts `(min, max)`.
    pub fn arity(self) -> (usize, usize) {
        match self {
            Func::Bound
            | Func::Str
            | Func::Lang
            | Func::Datatype
            | Func::IsIri
            | Func::IsLiteral
            | Func::IsBlank
            | Func::IsNumeric
            | Func::StrLen
            | Func::UCase
            | Func::LCase
            | Func::Abs
            | Func::Ceil
            | Func::Floor
            | Func::Round => (1, 1),
            Func::SameTerm
            | Func::LangMatches
            | Func::StrStarts
            | Func::StrEnds
            | Func::Contains => (2, 2),
            Func::Regex => (2, 3),
        }
    }
}

/// A full FILTER expression over algebra variables.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A variable reference.
    Var(Var),
    /// A constant term.
    Const(Term),
    /// `a || b` with SPARQL's error-tolerant disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// `a && b` with SPARQL's error-tolerant conjunction.
    And(Box<Expr>, Box<Expr>),
    /// `! e` on the effective boolean value.
    Not(Box<Expr>),
    /// A comparison.
    Cmp {
        /// The operator.
        op: CmpOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// An arithmetic operation.
    Arith {
        /// The operator.
        op: ArithOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary minus.
    Neg(Box<Expr>),
    /// A built-in function call.
    Call {
        /// The function.
        func: Func,
        /// The arguments, arity-checked at lowering time.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// All variables mentioned by the expression, in first-occurrence order.
    pub fn vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<Var>) {
        match self {
            Expr::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            Expr::Const(_) => {}
            Expr::Or(a, b) | Expr::And(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Cmp { lhs, rhs, .. } | Expr::Arith { lhs, rhs, .. } => {
                lhs.collect_vars(out);
                rhs.collect_vars(out);
            }
            Expr::Not(e) | Expr::Neg(e) => e.collect_vars(out),
            Expr::Call { args, .. } => {
                for a in args {
                    a.collect_vars(out);
                }
            }
        }
    }

    /// Replace every occurrence of variable `v` with the constant `c`
    /// (used by HSP's FILTER constant-substitution rewrite).
    pub fn substitute_const(&mut self, v: Var, c: &Term) {
        match self {
            Expr::Var(x) if *x == v => *self = Expr::Const(c.clone()),
            Expr::Var(_) | Expr::Const(_) => {}
            Expr::Or(a, b) | Expr::And(a, b) => {
                a.substitute_const(v, c);
                b.substitute_const(v, c);
            }
            Expr::Cmp { lhs, rhs, .. } | Expr::Arith { lhs, rhs, .. } => {
                lhs.substitute_const(v, c);
                rhs.substitute_const(v, c);
            }
            Expr::Not(e) | Expr::Neg(e) => e.substitute_const(v, c),
            Expr::Call { func, args } => {
                // BOUND takes a *variable*, not a term; substituting means
                // the variable is definitionally bound to a constant.
                if *func == Func::Bound {
                    if let [Expr::Var(x)] = args.as_slice() {
                        if *x == v {
                            *self = Expr::Const(Term::typed_literal("true", vocab::XSD_BOOLEAN));
                            return;
                        }
                    }
                }
                for a in args {
                    a.substitute_const(v, c);
                }
            }
        }
    }

    /// Rename every occurrence of variable `from` to `to` (used by HSP's
    /// FILTER-unification rewrite).
    pub fn rename_var(&mut self, from: Var, to: Var) {
        match self {
            Expr::Var(v) => {
                if *v == from {
                    *v = to;
                }
            }
            Expr::Const(_) => {}
            Expr::Or(a, b) | Expr::And(a, b) => {
                a.rename_var(from, to);
                b.rename_var(from, to);
            }
            Expr::Cmp { lhs, rhs, .. } | Expr::Arith { lhs, rhs, .. } => {
                lhs.rename_var(from, to);
                rhs.rename_var(from, to);
            }
            Expr::Not(e) | Expr::Neg(e) => e.rename_var(from, to),
            Expr::Call { args, .. } => {
                for a in args {
                    a.rename_var(from, to);
                }
            }
        }
    }

    /// A copy with every constant `t` where `f(t)` is `Some` replaced by
    /// the mapped term (plan-cache parameter rebinding).
    pub fn map_consts(&self, f: &impl Fn(&Term) -> Option<Term>) -> Expr {
        match self {
            Expr::Var(v) => Expr::Var(*v),
            Expr::Const(t) => Expr::Const(f(t).unwrap_or_else(|| t.clone())),
            Expr::Or(a, b) => Expr::Or(Box::new(a.map_consts(f)), Box::new(b.map_consts(f))),
            Expr::And(a, b) => Expr::And(Box::new(a.map_consts(f)), Box::new(b.map_consts(f))),
            Expr::Not(e) => Expr::Not(Box::new(e.map_consts(f))),
            Expr::Cmp { op, lhs, rhs } => Expr::Cmp {
                op: *op,
                lhs: Box::new(lhs.map_consts(f)),
                rhs: Box::new(rhs.map_consts(f)),
            },
            Expr::Arith { op, lhs, rhs } => Expr::Arith {
                op: *op,
                lhs: Box::new(lhs.map_consts(f)),
                rhs: Box::new(rhs.map_consts(f)),
            },
            Expr::Neg(e) => Expr::Neg(Box::new(e.map_consts(f))),
            Expr::Call { func, args } => Expr::Call {
                func: *func,
                args: args.iter().map(|a| a.map_consts(f)).collect(),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

/// Row-level variable resolution, implemented by the engine over its
/// dictionary-encoded binding tables.
pub trait Bindings {
    /// The term bound to `v` in the current row, or `None` when unbound
    /// (never bound in the row's table, or the OPTIONAL/UNION padding
    /// sentinel).
    fn term(&self, v: Var) -> Option<Term>;
}

/// Bindings over a `(name, Term)` map — convenient for tests and for
/// evaluating expressions outside the engine.
impl Bindings for HashMap<Var, Term> {
    fn term(&self, v: Var) -> Option<Term> {
        self.get(&v).cloned()
    }
}

/// An expression evaluator. Owns the compiled-`REGEX` cache so repeated
/// row evaluations of `REGEX(?x, "…")` compile the pattern once. The cache
/// holds a bounded number of patterns: evaluators live as long as the pool
/// workers and connection threads that own them, and a per-row pattern
/// (`REGEX(?x, ?p)`) or a client cycling through patterns must not grow
/// them without limit.
///
/// The cache is intentionally single-threaded (`RefCell`) — an evaluator
/// is cheap to construct, so parallel executors build **one evaluator per
/// worker** instead of sharing one behind a lock. Cached patterns are
/// `Arc`-wrapped (a compiled [`Regex`] is immutable data), which keeps the
/// evaluator `Send`: it can be built on one thread and moved into a worker.
#[derive(Default)]
pub struct Evaluator {
    regex_cache: RefCell<HashMap<(String, String), Arc<Regex>>>,
}

/// Compiled patterns one [`Evaluator`] keeps. When a new pattern would
/// exceed it the cache is dropped and starts again — queries carry a
/// handful of constant patterns, so anything that fills it is a stream of
/// one-off patterns no eviction order would serve better.
const MAX_CACHED_REGEXES: usize = 64;

impl Evaluator {
    /// Fresh evaluator with an empty regex cache.
    pub fn new() -> Evaluator {
        Evaluator::default()
    }

    /// Evaluate `expr` to a [`Value`].
    pub fn eval(&self, expr: &Expr, b: &dyn Bindings) -> Result<Value, ExprError> {
        match expr {
            Expr::Var(v) => match b.term(*v) {
                Some(t) => Ok(Value::from_term(&t)),
                None => Err(ExprError::Unbound(*v)),
            },
            Expr::Const(t) => Ok(Value::from_term(t)),
            Expr::Or(a, b_) => self.eval_or(a, b_, b),
            Expr::And(a, b_) => self.eval_and(a, b_, b),
            Expr::Not(e) => {
                let v = self.eval_ebv(e, b)?;
                Ok(Value::Boolean(!v))
            }
            Expr::Cmp { op, lhs, rhs } => {
                let l = self.eval(lhs, b)?;
                let r = self.eval(rhs, b)?;
                compare_values(*op, &l, &r).map(Value::Boolean)
            }
            Expr::Arith { op, lhs, rhs } => {
                let l = self.eval(lhs, b)?;
                let r = self.eval(rhs, b)?;
                arith(*op, &l, &r)
            }
            Expr::Neg(e) => {
                let v = self.eval(e, b)?;
                match v {
                    Value::Integer(i) => i
                        .checked_neg()
                        .map(Value::Integer)
                        .ok_or(ExprError::Arithmetic("integer overflow")),
                    Value::Decimal(d) => Ok(Value::Decimal(-d)),
                    Value::Double(d) => Ok(Value::Double(-d)),
                    _ => Err(ExprError::Type("unary minus on a non-number")),
                }
            }
            Expr::Call { func, args } => self.eval_call(*func, args, b),
        }
    }

    /// Evaluate to the effective boolean value.
    pub fn eval_ebv(&self, expr: &Expr, b: &dyn Bindings) -> Result<bool, ExprError> {
        self.eval(expr, b)?.effective_boolean()
    }

    /// FILTER-position evaluation: an error means "drop the row".
    pub fn matches(&self, expr: &Expr, b: &dyn Bindings) -> bool {
        self.eval_ebv(expr, b).unwrap_or(false)
    }

    /// SPARQL `||`: true wins over error.
    fn eval_or(&self, a: &Expr, b_: &Expr, b: &dyn Bindings) -> Result<Value, ExprError> {
        match (self.eval_ebv(a, b), self.eval_ebv(b_, b)) {
            (Ok(true), _) | (_, Ok(true)) => Ok(Value::Boolean(true)),
            (Ok(false), Ok(false)) => Ok(Value::Boolean(false)),
            (Err(e), _) | (_, Err(e)) => Err(e),
        }
    }

    /// SPARQL `&&`: false wins over error.
    fn eval_and(&self, a: &Expr, b_: &Expr, b: &dyn Bindings) -> Result<Value, ExprError> {
        match (self.eval_ebv(a, b), self.eval_ebv(b_, b)) {
            (Ok(false), _) | (_, Ok(false)) => Ok(Value::Boolean(false)),
            (Ok(true), Ok(true)) => Ok(Value::Boolean(true)),
            (Err(e), _) | (_, Err(e)) => Err(e),
        }
    }

    /// Evaluate an argument to its *term* form (preserving lexical forms
    /// for `STR`/`DATATYPE`/`SAMETERM`, which are term-level functions).
    fn eval_term(&self, expr: &Expr, b: &dyn Bindings) -> Result<Term, ExprError> {
        match expr {
            Expr::Var(v) => b.term(*v).ok_or(ExprError::Unbound(*v)),
            Expr::Const(t) => Ok(t.clone()),
            other => Ok(self.eval(other, b)?.to_term()),
        }
    }

    fn eval_call(&self, func: Func, args: &[Expr], b: &dyn Bindings) -> Result<Value, ExprError> {
        let (min, max) = func.arity();
        if args.len() < min || args.len() > max {
            return Err(ExprError::Type("wrong number of arguments"));
        }
        match func {
            Func::Bound => match &args[0] {
                Expr::Var(v) => Ok(Value::Boolean(b.term(*v).is_some())),
                _ => Err(ExprError::Type("BOUND requires a variable argument")),
            },
            Func::Str => {
                let lexical = match self.eval_term(&args[0], b)? {
                    Term::Iri(iri) => iri,
                    Term::Literal { lexical, .. } => lexical,
                };
                Ok(Value::String {
                    lexical,
                    language: None,
                })
            }
            Func::Lang => {
                let t = self.eval_term(&args[0], b)?;
                match t {
                    Term::Literal { language, .. } => Ok(Value::String {
                        lexical: language.unwrap_or_else(|| "".into()),
                        language: None,
                    }),
                    Term::Iri(_) => Err(ExprError::Type("LANG of an IRI")),
                }
            }
            Func::Datatype => {
                let t = self.eval_term(&args[0], b)?;
                match t {
                    Term::Literal {
                        language: Some(_), ..
                    } => Ok(Value::Iri(vocab::RDF_LANG_STRING.into())),
                    Term::Literal { datatype, .. } => Ok(Value::Iri(
                        datatype.unwrap_or_else(|| vocab::XSD_STRING.into()),
                    )),
                    Term::Iri(_) => Err(ExprError::Type("DATATYPE of an IRI")),
                }
            }
            Func::IsIri => {
                let t = self.eval_term(&args[0], b)?;
                Ok(Value::Boolean(t.is_iri()))
            }
            Func::IsLiteral => {
                let t = self.eval_term(&args[0], b)?;
                Ok(Value::Boolean(t.is_literal()))
            }
            // Blank nodes are outside Definition 1's data model (see
            // `hsp_rdf::Term`); nothing is ever a blank node here.
            Func::IsBlank => {
                self.eval_term(&args[0], b)?;
                Ok(Value::Boolean(false))
            }
            Func::IsNumeric => {
                let v = self.eval(&args[0], b)?;
                Ok(Value::Boolean(v.is_numeric()))
            }
            Func::SameTerm => {
                let a = self.eval_term(&args[0], b)?;
                let c = self.eval_term(&args[1], b)?;
                Ok(Value::Boolean(a == c))
            }
            Func::LangMatches => {
                let tag = self.string_arg(&args[0], b, "LANGMATCHES tag")?;
                let range = self.string_arg(&args[1], b, "LANGMATCHES range")?;
                Ok(Value::Boolean(lang_matches(&tag, &range)))
            }
            Func::Regex => {
                let text = self.plain_string_arg(&args[0], b, "REGEX text")?;
                let pattern = self.string_arg(&args[1], b, "REGEX pattern")?;
                let flags = if args.len() == 3 {
                    self.string_arg(&args[2], b, "REGEX flags")?
                } else {
                    "".into()
                };
                let re = self.compiled(&pattern, &flags)?;
                Ok(Value::Boolean(re.is_match(&text)))
            }
            Func::StrStarts | Func::StrEnds | Func::Contains => {
                let (hay, needle) = self.compatible_strings(&args[0], &args[1], b)?;
                Ok(Value::Boolean(match func {
                    Func::StrStarts => hay.starts_with(&*needle),
                    Func::StrEnds => hay.ends_with(&*needle),
                    _ => hay.contains(&*needle),
                }))
            }
            Func::StrLen => {
                let s = self.plain_string_arg(&args[0], b, "STRLEN")?;
                Ok(Value::Integer(s.chars().count() as i64))
            }
            Func::UCase | Func::LCase => {
                let v = self.eval(&args[0], b)?;
                match v {
                    Value::String { lexical, language } => Ok(Value::String {
                        lexical: if func == Func::UCase {
                            lexical.to_uppercase().into()
                        } else {
                            lexical.to_lowercase().into()
                        },
                        language,
                    }),
                    _ => Err(ExprError::Type("UCASE/LCASE of a non-string")),
                }
            }
            Func::Abs | Func::Ceil | Func::Floor | Func::Round => {
                let v = self.eval(&args[0], b)?;
                numeric_unary(func, &v)
            }
        }
    }

    /// A string-valued argument (plain, `xsd:string`, or lang-tagged).
    fn string_arg(
        &self,
        expr: &Expr,
        b: &dyn Bindings,
        what: &'static str,
    ) -> Result<Arc<str>, ExprError> {
        match self.eval(expr, b)? {
            Value::String { lexical, .. } => Ok(lexical),
            _ => Err(ExprError::Type(what)),
        }
    }

    /// A string argument that must be plain/`xsd:string` (SPARQL's
    /// "simple literal" requirement for `REGEX` text and `STRLEN`).
    fn plain_string_arg(
        &self,
        expr: &Expr,
        b: &dyn Bindings,
        what: &'static str,
    ) -> Result<Arc<str>, ExprError> {
        match self.eval(expr, b)? {
            Value::String {
                lexical,
                language: None,
            } => Ok(lexical),
            _ => Err(ExprError::Type(what)),
        }
    }

    /// SPARQL 1.1 string-argument compatibility for `STRSTARTS` & co.: the
    /// second argument must be plain or carry the same language tag.
    fn compatible_strings(
        &self,
        a: &Expr,
        c: &Expr,
        b: &dyn Bindings,
    ) -> Result<(Arc<str>, Arc<str>), ExprError> {
        let va = self.eval(a, b)?;
        let vc = self.eval(c, b)?;
        match (va, vc) {
            (
                Value::String {
                    lexical: la,
                    language: ta,
                },
                Value::String {
                    lexical: lc,
                    language: tc,
                },
            ) => {
                let compatible = tc.is_none() || tc == ta;
                if compatible {
                    Ok((la, lc))
                } else {
                    Err(ExprError::Type("incompatible string language tags"))
                }
            }
            _ => Err(ExprError::Type("string function on a non-string")),
        }
    }

    fn compiled(&self, pattern: &str, flags: &str) -> Result<Arc<Regex>, ExprError> {
        let key = (pattern.to_string(), flags.to_string());
        if let Some(re) = self.regex_cache.borrow().get(&key) {
            return Ok(Arc::clone(re));
        }
        let re = Arc::new(
            Regex::new(pattern, flags).map_err(|e: RegexError| ExprError::Regex(e.to_string()))?,
        );
        let mut cache = self.regex_cache.borrow_mut();
        if cache.len() >= MAX_CACHED_REGEXES {
            cache.clear();
        }
        cache.insert(key, Arc::clone(&re));
        Ok(re)
    }
}

/// `LANGMATCHES` basic filtering (RFC 4647 §3.3.1): `*` matches any
/// non-empty tag, otherwise case-insensitive exact match or prefix match at
/// a `-` boundary.
fn lang_matches(tag: &str, range: &str) -> bool {
    if tag.is_empty() {
        return false;
    }
    if range == "*" {
        return true;
    }
    let tag = tag.to_ascii_lowercase();
    let range = range.to_ascii_lowercase();
    tag == range || (tag.starts_with(&range) && tag.as_bytes().get(range.len()) == Some(&b'-'))
}

/// The numeric result type of a binary operation, by promotion.
#[derive(PartialEq, Eq, PartialOrd, Ord, Clone, Copy)]
enum NumKind {
    Integer,
    Decimal,
    Double,
}

fn num_kind(v: &Value) -> Option<NumKind> {
    match v {
        Value::Integer(_) => Some(NumKind::Integer),
        Value::Decimal(_) => Some(NumKind::Decimal),
        Value::Double(_) => Some(NumKind::Double),
        _ => None,
    }
}

/// XPath-style arithmetic with type promotion. Exact (integer/decimal)
/// division by zero is an error; double division follows IEEE 754.
/// Public because aggregation (`SUM`/`AVG`) folds group values through the
/// same promotion ladder as the `+` / `/` operators.
pub fn arith(op: ArithOp, l: &Value, r: &Value) -> Result<Value, ExprError> {
    let (lk, rk) = match (num_kind(l), num_kind(r)) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err(ExprError::Type("arithmetic on a non-number")),
    };
    let kind = lk.max(rk);
    // Integer arithmetic stays exact; `/` promotes to decimal per XPath.
    if kind == NumKind::Integer && op != ArithOp::Div {
        let (a, b) = match (l, r) {
            (Value::Integer(a), Value::Integer(b)) => (*a, *b),
            _ => unreachable!("kind check"),
        };
        let out = match op {
            ArithOp::Add => a.checked_add(b),
            ArithOp::Sub => a.checked_sub(b),
            ArithOp::Mul => a.checked_mul(b),
            ArithOp::Div => unreachable!(),
        };
        return out
            .map(Value::Integer)
            .ok_or(ExprError::Arithmetic("integer overflow"));
    }
    let a = l.as_f64().expect("numeric");
    let b = r.as_f64().expect("numeric");
    if kind == NumKind::Double {
        let out = match op {
            ArithOp::Add => a + b,
            ArithOp::Sub => a - b,
            ArithOp::Mul => a * b,
            ArithOp::Div => a / b,
        };
        Ok(Value::Double(out))
    } else {
        if op == ArithOp::Div && b == 0.0 {
            return Err(ExprError::Arithmetic("decimal division by zero"));
        }
        let out = match op {
            ArithOp::Add => a + b,
            ArithOp::Sub => a - b,
            ArithOp::Mul => a * b,
            ArithOp::Div => a / b,
        };
        Ok(Value::Decimal(out))
    }
}

fn numeric_unary(func: Func, v: &Value) -> Result<Value, ExprError> {
    match v {
        Value::Integer(i) => match func {
            Func::Abs => i
                .checked_abs()
                .map(Value::Integer)
                .ok_or(ExprError::Arithmetic("integer overflow")),
            _ => Ok(Value::Integer(*i)),
        },
        Value::Decimal(d) => Ok(Value::Decimal(apply_round(func, *d))),
        Value::Double(d) => Ok(Value::Double(apply_round(func, *d))),
        _ => Err(ExprError::Type("numeric function on a non-number")),
    }
}

fn apply_round(func: Func, d: f64) -> f64 {
    match func {
        Func::Abs => d.abs(),
        Func::Ceil => d.ceil(),
        Func::Floor => d.floor(),
        Func::Round => (d + 0.5).floor(), // XPath: round half up
        _ => unreachable!("numeric_unary dispatch"),
    }
}

/// The SPARQL operator-table comparison.
///
/// * `=`/`!=`: value equality for numerics/booleans/strings, term equality
///   for IRIs, and RDF term (in)equality as the fallback for opaque typed
///   literals — identical opaque terms compare equal; *different* opaque
///   terms raise a type error (the open-world reading: `"x"^^:t = "y"^^:t`
///   is unknown).
/// * `< <= > >=`: numeric, string (codepoint, plain/`xsd:string` only),
///   boolean. Anything else — IRIs included, per the SPARQL 1.0 operator
///   table — raises a type error.
pub fn compare_values(op: CmpOp, l: &Value, r: &Value) -> Result<bool, ExprError> {
    use std::cmp::Ordering;
    // Equality family first: it covers more type combinations.
    if matches!(op, CmpOp::Eq | CmpOp::Ne) {
        let eq: Result<bool, ExprError> = match (l, r) {
            _ if l.is_numeric() && r.is_numeric() => {
                if let (Value::Integer(a), Value::Integer(b)) = (l, r) {
                    Ok(a == b)
                } else {
                    Ok(l.as_f64().expect("numeric") == r.as_f64().expect("numeric"))
                }
            }
            (Value::Boolean(a), Value::Boolean(b)) => Ok(a == b),
            (
                Value::String {
                    lexical: a,
                    language: la,
                },
                Value::String {
                    lexical: b,
                    language: lb,
                },
            ) => Ok(a == b && la == lb),
            (Value::Iri(a), Value::Iri(b)) => Ok(a == b),
            (
                Value::Other {
                    lexical: a,
                    datatype: da,
                },
                Value::Other {
                    lexical: b,
                    datatype: db,
                },
            ) => {
                if a == b && da == db {
                    Ok(true)
                } else {
                    Err(ExprError::Type("equality of opaque typed literals"))
                }
            }
            // Different kinds are different terms.
            _ => Ok(false),
        };
        let eq = eq?;
        return Ok(if op == CmpOp::Eq { eq } else { !eq });
    }

    let ord: Ordering = match (l, r) {
        _ if l.is_numeric() && r.is_numeric() => {
            let (a, b) = (l.as_f64().expect("numeric"), r.as_f64().expect("numeric"));
            match a.partial_cmp(&b) {
                Some(o) => o,
                None => return Ok(false), // NaN: all order comparisons false
            }
        }
        (
            Value::String {
                lexical: a,
                language: None,
            },
            Value::String {
                lexical: b,
                language: None,
            },
        ) => a.cmp(b),
        (Value::Boolean(a), Value::Boolean(b)) => a.cmp(b),
        _ => return Err(ExprError::Type("order comparison on incompatible types")),
    };
    Ok(match op {
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
        CmpOp::Eq | CmpOp::Ne => unreachable!("handled above"),
    })
}

/// The `ORDER BY` comparator (SPARQL §9.1): unbound solutions sort before
/// IRIs, which sort before literals. Within literals, numerics compare by
/// value and strings by codepoint. The spec leaves cross-type literal
/// comparison partial; we extend it to a deterministic **total** order
/// (numeric < boolean < string < opaque-typed, then lexicographic) so that
/// sorting is stable and reproducible.
pub fn compare_for_order(a: Option<&Value>, b: Option<&Value>) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    fn rank(v: Option<&Value>) -> u8 {
        match v {
            None => 0,
            Some(Value::Iri(_)) => 1,
            Some(Value::Integer(_) | Value::Decimal(_) | Value::Double(_)) => 2,
            Some(Value::Boolean(_)) => 3,
            Some(Value::String { .. }) => 4,
            Some(Value::Other { .. }) => 5,
        }
    }
    let (ra, rb) = (rank(a), rank(b));
    if ra != rb {
        return ra.cmp(&rb);
    }
    match (a, b) {
        (None, None) => Ordering::Equal,
        (Some(Value::Iri(x)), Some(Value::Iri(y))) => x.cmp(y),
        (Some(x), Some(y)) if x.is_numeric() && y.is_numeric() => {
            let (fx, fy) = (x.as_f64().expect("numeric"), y.as_f64().expect("numeric"));
            fx.partial_cmp(&fy).unwrap_or(Ordering::Equal) // NaN ties
        }
        (Some(Value::Boolean(x)), Some(Value::Boolean(y))) => x.cmp(y),
        (
            Some(Value::String {
                lexical: x,
                language: lx,
            }),
            Some(Value::String {
                lexical: y,
                language: ly,
            }),
        ) => x.cmp(y).then_with(|| lx.cmp(ly)),
        (
            Some(Value::Other {
                lexical: x,
                datatype: dx,
            }),
            Some(Value::Other {
                lexical: y,
                datatype: dy,
            }),
        ) => dx.cmp(dy).then_with(|| x.cmp(y)),
        _ => unreachable!("equal ranks imply matching variants"),
    }
}

// ---------------------------------------------------------------------------
// Display
// ---------------------------------------------------------------------------

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Const(t) => write!(f, "{t}"),
            Expr::Or(a, b) => write!(f, "({a} || {b})"),
            Expr::And(a, b) => write!(f, "({a} && {b})"),
            Expr::Not(e) => write!(f, "!({e})"),
            Expr::Cmp { op, lhs, rhs } => write!(f, "({lhs} {} {rhs})", op.lexeme()),
            Expr::Arith { op, lhs, rhs } => write!(f, "({lhs} {} {rhs})", op.lexeme()),
            Expr::Neg(e) => write!(f, "-({e})"),
            Expr::Call { func, args } => {
                write!(f, "{}(", func.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The engine's morsel-parallel FILTER constructs one evaluator per
    /// worker; that requires `Evaluator: Send` (the regex cache holds
    /// `Arc`s over immutable compiled programs).
    #[test]
    fn evaluator_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Evaluator>();
    }

    fn ev() -> Evaluator {
        Evaluator::new()
    }

    fn no_bindings() -> HashMap<Var, Term> {
        HashMap::new()
    }

    fn int(i: i64) -> Expr {
        Expr::Const(Term::typed_literal(i.to_string(), vocab::XSD_INTEGER))
    }

    fn dbl(s: &str) -> Expr {
        Expr::Const(Term::typed_literal(s, vocab::XSD_DOUBLE))
    }

    fn s(text: &str) -> Expr {
        Expr::Const(Term::literal(text))
    }

    fn cmp(op: CmpOp, l: Expr, r: Expr) -> Expr {
        Expr::Cmp {
            op,
            lhs: Box::new(l),
            rhs: Box::new(r),
        }
    }

    fn call(func: Func, args: Vec<Expr>) -> Expr {
        Expr::Call { func, args }
    }

    #[test]
    fn value_from_term_parses_xsd_types() {
        assert_eq!(
            Value::from_term(&Term::typed_literal("42", vocab::XSD_INTEGER)),
            Value::Integer(42)
        );
        assert_eq!(
            Value::from_term(&Term::typed_literal("2.5", vocab::XSD_DECIMAL)),
            Value::Decimal(2.5)
        );
        assert_eq!(
            Value::from_term(&Term::typed_literal("true", vocab::XSD_BOOLEAN)),
            Value::Boolean(true)
        );
        assert_eq!(
            Value::from_term(&Term::typed_literal("INF", vocab::XSD_DOUBLE)),
            Value::Double(f64::INFINITY)
        );
        assert_eq!(
            Value::from_term(&Term::typed_literal(
                "7",
                "http://www.w3.org/2001/XMLSchema#int"
            )),
            Value::Integer(7)
        );
    }

    #[test]
    fn ill_typed_literal_stays_opaque() {
        let v = Value::from_term(&Term::typed_literal("banana", vocab::XSD_INTEGER));
        assert!(matches!(v, Value::Other { .. }));
        // …and raises on EBV.
        assert!(v.effective_boolean().is_err());
    }

    #[test]
    fn effective_boolean_value_table() {
        assert_eq!(Value::Boolean(true).effective_boolean(), Ok(true));
        assert_eq!(Value::Integer(0).effective_boolean(), Ok(false));
        assert_eq!(Value::Integer(3).effective_boolean(), Ok(true));
        assert_eq!(Value::Double(f64::NAN).effective_boolean(), Ok(false));
        assert_eq!(
            Value::String {
                lexical: "".into(),
                language: None
            }
            .effective_boolean(),
            Ok(false)
        );
        assert_eq!(
            Value::String {
                lexical: "x".into(),
                language: None
            }
            .effective_boolean(),
            Ok(true)
        );
        assert!(Value::Iri("http://e/x".into()).effective_boolean().is_err());
    }

    #[test]
    fn numeric_comparison_promotes() {
        // 2 < 2.5 across integer/double
        let e = cmp(CmpOp::Lt, int(2), dbl("2.5"));
        assert_eq!(ev().eval_ebv(&e, &no_bindings()), Ok(true));
        // "05"^^xsd:integer equals 5 by value
        let five = Expr::Const(Term::typed_literal("05", vocab::XSD_INTEGER));
        let e = cmp(CmpOp::Eq, five, int(5));
        assert_eq!(ev().eval_ebv(&e, &no_bindings()), Ok(true));
    }

    #[test]
    fn string_comparison_is_codepoint() {
        assert_eq!(
            ev().eval_ebv(&cmp(CmpOp::Lt, s("abc"), s("abd")), &no_bindings()),
            Ok(true)
        );
        assert_eq!(
            ev().eval_ebv(&cmp(CmpOp::Gt, s("b"), s("a")), &no_bindings()),
            Ok(true)
        );
    }

    #[test]
    fn iri_order_comparison_is_type_error() {
        let a = Expr::Const(Term::iri("http://e/a"));
        let b = Expr::Const(Term::iri("http://e/b"));
        assert!(ev()
            .eval(&cmp(CmpOp::Lt, a.clone(), b.clone()), &no_bindings())
            .is_err());
        // but equality works
        assert_eq!(
            ev().eval_ebv(&cmp(CmpOp::Ne, a, b), &no_bindings()),
            Ok(true)
        );
    }

    #[test]
    fn cross_kind_equality_is_false_not_error() {
        let e = cmp(CmpOp::Eq, Expr::Const(Term::iri("http://e/a")), s("a"));
        assert_eq!(ev().eval_ebv(&e, &no_bindings()), Ok(false));
    }

    #[test]
    fn lang_tags_participate_in_equality() {
        let en = Expr::Const(Term::lang_literal("chat", "en"));
        let fr = Expr::Const(Term::lang_literal("chat", "fr"));
        assert_eq!(
            ev().eval_ebv(&cmp(CmpOp::Eq, en.clone(), fr), &no_bindings()),
            Ok(false)
        );
        let en2 = Expr::Const(Term::lang_literal("chat", "EN"));
        assert_eq!(
            ev().eval_ebv(&cmp(CmpOp::Eq, en, en2), &no_bindings()),
            Ok(true)
        );
    }

    #[test]
    fn arithmetic_promotion_and_division() {
        let e = Expr::Arith {
            op: ArithOp::Add,
            lhs: Box::new(int(2)),
            rhs: Box::new(int(3)),
        };
        assert_eq!(ev().eval(&e, &no_bindings()), Ok(Value::Integer(5)));
        // Integer division promotes to decimal.
        let e = Expr::Arith {
            op: ArithOp::Div,
            lhs: Box::new(int(7)),
            rhs: Box::new(int(2)),
        };
        assert_eq!(ev().eval(&e, &no_bindings()), Ok(Value::Decimal(3.5)));
        // Exact division by zero errors…
        let e = Expr::Arith {
            op: ArithOp::Div,
            lhs: Box::new(int(1)),
            rhs: Box::new(int(0)),
        };
        assert!(ev().eval(&e, &no_bindings()).is_err());
        // …double division by zero gives INF.
        let e = Expr::Arith {
            op: ArithOp::Div,
            lhs: Box::new(dbl("1")),
            rhs: Box::new(dbl("0")),
        };
        assert_eq!(
            ev().eval(&e, &no_bindings()),
            Ok(Value::Double(f64::INFINITY))
        );
    }

    #[test]
    fn integer_overflow_is_an_error() {
        let e = Expr::Arith {
            op: ArithOp::Mul,
            lhs: Box::new(int(i64::MAX)),
            rhs: Box::new(int(2)),
        };
        assert!(matches!(
            ev().eval(&e, &no_bindings()),
            Err(ExprError::Arithmetic(_))
        ));
    }

    #[test]
    fn three_valued_or_and() {
        let err = call(Func::Lang, vec![Expr::Const(Term::iri("http://e"))]); // type error
        let t = Expr::Const(Term::typed_literal("true", vocab::XSD_BOOLEAN));
        let f = Expr::Const(Term::typed_literal("false", vocab::XSD_BOOLEAN));
        // error || true = true
        let e = Expr::Or(Box::new(err.clone()), Box::new(t.clone()));
        assert_eq!(ev().eval_ebv(&e, &no_bindings()), Ok(true));
        // error || false = error
        let e = Expr::Or(Box::new(err.clone()), Box::new(f.clone()));
        assert!(ev().eval(&e, &no_bindings()).is_err());
        // error && false = false
        let e = Expr::And(Box::new(err.clone()), Box::new(f));
        assert_eq!(ev().eval_ebv(&e, &no_bindings()), Ok(false));
        // error && true = error
        let e = Expr::And(Box::new(err), Box::new(t));
        assert!(ev().eval(&e, &no_bindings()).is_err());
    }

    #[test]
    fn bound_and_unbound_vars() {
        let mut b = HashMap::new();
        b.insert(Var(0), Term::literal("x"));
        let bound = call(Func::Bound, vec![Expr::Var(Var(0))]);
        let unbound = call(Func::Bound, vec![Expr::Var(Var(1))]);
        assert_eq!(ev().eval_ebv(&bound, &b), Ok(true));
        assert_eq!(ev().eval_ebv(&unbound, &b), Ok(false));
        // !BOUND is the classic OPTIONAL-minus idiom
        let e = Expr::Not(Box::new(unbound));
        assert_eq!(ev().eval_ebv(&e, &b), Ok(true));
        // a bare unbound var is an error, so matches() drops the row
        assert!(!ev().matches(&Expr::Var(Var(1)), &b));
    }

    #[test]
    fn str_preserves_lexical_form() {
        let five = Expr::Const(Term::typed_literal("05", vocab::XSD_INTEGER));
        let e = call(Func::Str, vec![five]);
        assert_eq!(
            ev().eval(&e, &no_bindings()),
            Ok(Value::String {
                lexical: "05".into(),
                language: None
            })
        );
        let iri = call(Func::Str, vec![Expr::Const(Term::iri("http://e/x"))]);
        assert_eq!(
            ev().eval(&iri, &no_bindings()),
            Ok(Value::String {
                lexical: "http://e/x".into(),
                language: None
            })
        );
    }

    #[test]
    fn lang_and_datatype() {
        let tagged = Expr::Const(Term::lang_literal("chat", "en"));
        assert_eq!(
            ev().eval(&call(Func::Lang, vec![tagged.clone()]), &no_bindings()),
            Ok(Value::String {
                lexical: "en".into(),
                language: None
            })
        );
        let plain = s("x");
        assert_eq!(
            ev().eval(&call(Func::Lang, vec![plain.clone()]), &no_bindings()),
            Ok(Value::String {
                lexical: "".into(),
                language: None
            })
        );
        assert_eq!(
            ev().eval(&call(Func::Datatype, vec![plain]), &no_bindings()),
            Ok(Value::Iri(vocab::XSD_STRING.into()))
        );
        assert_eq!(
            ev().eval(&call(Func::Datatype, vec![tagged]), &no_bindings()),
            Ok(Value::Iri(vocab::RDF_LANG_STRING.into()))
        );
        assert_eq!(
            ev().eval(&call(Func::Datatype, vec![int(5)]), &no_bindings()),
            Ok(Value::Iri(vocab::XSD_INTEGER.into()))
        );
    }

    #[test]
    fn is_functions() {
        let iri = Expr::Const(Term::iri("http://e/x"));
        assert_eq!(
            ev().eval_ebv(&call(Func::IsIri, vec![iri.clone()]), &no_bindings()),
            Ok(true)
        );
        assert_eq!(
            ev().eval_ebv(&call(Func::IsLiteral, vec![iri.clone()]), &no_bindings()),
            Ok(false)
        );
        assert_eq!(
            ev().eval_ebv(&call(Func::IsBlank, vec![iri]), &no_bindings()),
            Ok(false)
        );
        assert_eq!(
            ev().eval_ebv(&call(Func::IsNumeric, vec![int(1)]), &no_bindings()),
            Ok(true)
        );
        assert_eq!(
            ev().eval_ebv(&call(Func::IsNumeric, vec![s("1x")]), &no_bindings()),
            Ok(false)
        );
    }

    #[test]
    fn sameterm_is_strict() {
        // 05 and 5 are value-equal but not the same term.
        let a = Expr::Const(Term::typed_literal("05", vocab::XSD_INTEGER));
        let b = int(5);
        assert_eq!(
            ev().eval_ebv(
                &call(Func::SameTerm, vec![a.clone(), b.clone()]),
                &no_bindings()
            ),
            Ok(false)
        );
        assert_eq!(
            ev().eval_ebv(&cmp(CmpOp::Eq, a, b), &no_bindings()),
            Ok(true)
        );
    }

    #[test]
    fn langmatches_basic_filtering() {
        let e = |tag: &str, range: &str| call(Func::LangMatches, vec![s(tag), s(range)]);
        assert_eq!(ev().eval_ebv(&e("en", "en"), &no_bindings()), Ok(true));
        assert_eq!(ev().eval_ebv(&e("en-GB", "en"), &no_bindings()), Ok(true));
        assert_eq!(ev().eval_ebv(&e("en", "en-GB"), &no_bindings()), Ok(false));
        assert_eq!(ev().eval_ebv(&e("fr", "en"), &no_bindings()), Ok(false));
        assert_eq!(ev().eval_ebv(&e("fr", "*"), &no_bindings()), Ok(true));
        assert_eq!(ev().eval_ebv(&e("", "*"), &no_bindings()), Ok(false));
        assert_eq!(ev().eval_ebv(&e("EN", "en"), &no_bindings()), Ok(true));
    }

    #[test]
    fn regex_function_with_cache() {
        let evl = ev();
        let e = call(Func::Regex, vec![s("Journal 1 (1940)"), s(r"\(19\d\d\)")]);
        assert_eq!(evl.eval_ebv(&e, &no_bindings()), Ok(true));
        // Second evaluation hits the cache (observable only as still-correct).
        assert_eq!(evl.eval_ebv(&e, &no_bindings()), Ok(true));
        let ci = call(Func::Regex, vec![s("JOURNAL"), s("journal"), s("i")]);
        assert_eq!(evl.eval_ebv(&ci, &no_bindings()), Ok(true));
        let bad = call(Func::Regex, vec![s("x"), s("(")]);
        assert!(matches!(
            evl.eval(&bad, &no_bindings()),
            Err(ExprError::Regex(_))
        ));
    }

    #[test]
    fn regex_cache_is_bounded_across_distinct_patterns() {
        // A long-lived evaluator (one per pool worker / connection thread)
        // fed a fresh pattern per row must not keep them all.
        let evl = ev();
        for i in 0..10_000 {
            let subject = s(&format!("item {i}"));
            let hit = call(
                Func::Regex,
                vec![subject.clone(), s(&format!("^item {i}$"))],
            );
            assert_eq!(evl.eval_ebv(&hit, &no_bindings()), Ok(true), "pattern {i}");
            let miss = call(Func::Regex, vec![subject, s(&format!("^item {i}x$"))]);
            assert_eq!(
                evl.eval_ebv(&miss, &no_bindings()),
                Ok(false),
                "pattern {i}"
            );
            assert!(evl.regex_cache.borrow().len() <= MAX_CACHED_REGEXES);
        }
        // A pattern evicted by a reset compiles again and still matches.
        let first = call(Func::Regex, vec![s("item 0"), s("^item 0$")]);
        assert_eq!(evl.eval_ebv(&first, &no_bindings()), Ok(true));
    }

    #[test]
    fn string_predicates() {
        assert_eq!(
            ev().eval_ebv(
                &call(Func::StrStarts, vec![s("Journal 1"), s("Jour")]),
                &no_bindings()
            ),
            Ok(true)
        );
        assert_eq!(
            ev().eval_ebv(
                &call(Func::StrEnds, vec![s("Journal 1"), s("1")]),
                &no_bindings()
            ),
            Ok(true)
        );
        assert_eq!(
            ev().eval_ebv(
                &call(Func::Contains, vec![s("Journal 1"), s("nal")]),
                &no_bindings()
            ),
            Ok(true)
        );
        // Incompatible language tags error out.
        let a = Expr::Const(Term::lang_literal("chat", "en"));
        let b = Expr::Const(Term::lang_literal("ch", "fr"));
        assert!(ev()
            .eval(&call(Func::StrStarts, vec![a, b]), &no_bindings())
            .is_err());
    }

    #[test]
    fn string_transforms() {
        assert_eq!(
            ev().eval(&call(Func::UCase, vec![s("abc")]), &no_bindings()),
            Ok(Value::String {
                lexical: "ABC".into(),
                language: None
            })
        );
        assert_eq!(
            ev().eval(&call(Func::StrLen, vec![s("héllo")]), &no_bindings()),
            Ok(Value::Integer(5))
        );
    }

    #[test]
    fn numeric_functions() {
        assert_eq!(
            ev().eval(&call(Func::Abs, vec![int(-3)]), &no_bindings()),
            Ok(Value::Integer(3))
        );
        assert_eq!(
            ev().eval(&call(Func::Ceil, vec![dbl("2.2")]), &no_bindings()),
            Ok(Value::Double(3.0))
        );
        assert_eq!(
            ev().eval(&call(Func::Floor, vec![dbl("2.8")]), &no_bindings()),
            Ok(Value::Double(2.0))
        );
        assert_eq!(
            ev().eval(&call(Func::Round, vec![dbl("2.5")]), &no_bindings()),
            Ok(Value::Double(3.0))
        );
        assert_eq!(
            ev().eval(&call(Func::Round, vec![dbl("-2.5")]), &no_bindings()),
            Ok(Value::Double(-2.0)) // round half up
        );
    }

    #[test]
    fn unary_minus() {
        let e = Expr::Neg(Box::new(int(5)));
        assert_eq!(ev().eval(&e, &no_bindings()), Ok(Value::Integer(-5)));
        assert!(ev()
            .eval(&Expr::Neg(Box::new(s("x"))), &no_bindings())
            .is_err());
    }

    #[test]
    fn func_name_resolution() {
        assert_eq!(Func::from_name("regex"), Some(Func::Regex));
        assert_eq!(Func::from_name("isURI"), Some(Func::IsIri));
        assert_eq!(Func::from_name("nosuch"), None);
    }

    #[test]
    fn display_round_trips_shape() {
        let e = Expr::And(
            Box::new(cmp(CmpOp::Ge, Expr::Var(Var(0)), int(1940))),
            Box::new(call(Func::Regex, vec![Expr::Var(Var(1)), s("^J")])),
        );
        assert_eq!(
            e.to_string(),
            "((?v0 >= \"1940\"^^<http://www.w3.org/2001/XMLSchema#integer>) && REGEX(?v1, \"^J\"))"
        );
    }

    #[test]
    fn rename_var_reaches_all_positions() {
        let mut e = Expr::And(
            Box::new(cmp(CmpOp::Eq, Expr::Var(Var(0)), Expr::Var(Var(1)))),
            Box::new(call(Func::Bound, vec![Expr::Var(Var(0))])),
        );
        e.rename_var(Var(0), Var(7));
        assert_eq!(e.vars(), vec![Var(7), Var(1)]);
    }
}
