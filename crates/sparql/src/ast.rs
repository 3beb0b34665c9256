//! Abstract syntax tree produced by the parser, before algebra lowering.

use hsp_rdf::Term;

/// A parsed SPARQL query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `PREFIX` declarations, already applied during parsing (kept for
    /// display/debugging).
    pub prefixes: Vec<(String, String)>,
    /// `ASK` query form? (`projection` is empty-`Some` and ignored.)
    pub ask: bool,
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// `SELECT REDUCED`? (Evaluated as DISTINCT, which the SPARQL spec
    /// explicitly permits: REDUCED allows — but does not require —
    /// duplicate elimination.)
    pub reduced: bool,
    /// Projection: `None` means `SELECT *`. Aggregate select items appear
    /// here by their alias (the `?alias` of `(COUNT(?x) AS ?alias)`), in
    /// SELECT order; their definitions live in [`Query::aggregates`].
    pub projection: Option<Vec<String>>,
    /// Aggregate select items, in SELECT order.
    pub aggregates: Vec<AggAst>,
    /// `GROUP BY` variables, in source order (empty = no GROUP BY; with
    /// aggregates present that means one implicit all-rows group).
    pub group_by: Vec<String>,
    /// `HAVING ( expr )` — may contain [`ExprAst::Agg`] nodes.
    pub having: Option<ExprAst>,
    /// The `WHERE` group.
    pub where_clause: GroupPattern,
    /// `ORDER BY` keys in priority order; `true` = descending.
    pub order_by: Vec<(ExprAst, bool)>,
    /// `LIMIT n`.
    pub limit: Option<usize>,
    /// `OFFSET n`.
    pub offset: Option<usize>,
}

/// A `{ … }` group: a conjunction of elements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GroupPattern {
    /// The conjunctive elements in source order.
    pub elements: Vec<Element>,
}

/// One element of a group.
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    /// A triple pattern.
    Triple(TriplePatternAst),
    /// `FILTER ( expr )`.
    Filter(ExprAst),
    /// `OPTIONAL { … }` (engine extension; Definition 3 queries have none).
    Optional(GroupPattern),
    /// `{ … } UNION { … }` (engine extension).
    Union(GroupPattern, GroupPattern),
}

/// A triple pattern over named variables and constants (Definition 2).
#[derive(Debug, Clone, PartialEq)]
pub struct TriplePatternAst {
    /// Subject slot.
    pub subject: NodeAst,
    /// Predicate slot.
    pub predicate: NodeAst,
    /// Object slot.
    pub object: NodeAst,
}

/// A variable or constant in a pattern slot.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeAst {
    /// `?name`.
    Var(String),
    /// An IRI or literal constant.
    Const(Term),
}

impl NodeAst {
    /// The variable name, if this node is a variable.
    pub fn var_name(&self) -> Option<&str> {
        match self {
            NodeAst::Var(n) => Some(n),
            NodeAst::Const(_) => None,
        }
    }
}

/// One operation of a SPARQL 1.1 Update request.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOp {
    /// `INSERT DATA { … }` — ground triples only (checked at parse time).
    InsertData(Vec<TriplePatternAst>),
    /// `DELETE DATA { … }` — ground triples only.
    DeleteData(Vec<TriplePatternAst>),
    /// `DELETE WHERE { … }` — delete every instantiation of the pattern.
    DeleteWhere(GroupPattern),
}

/// A parsed SPARQL Update request: one or more operations separated by `;`.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateRequest {
    /// `PREFIX` declarations.
    pub prefixes: Vec<(String, String)>,
    /// The operations, in source order.
    pub ops: Vec<UpdateOp>,
}

/// A FILTER expression over named variables — the full SPARQL expression
/// grammar (logical connectives, comparisons, arithmetic, function calls).
///
/// Lowering ([`crate::algebra`]) splits top-level `&&`, keeps each
/// variable/constant `=` conjunct as [`crate::algebra::FilterExpr::Eq`]
/// and wraps everything else as a [`crate::expr::Expr`].
#[derive(Debug, Clone, PartialEq)]
pub enum ExprAst {
    /// `?name`.
    Var(String),
    /// An IRI or literal constant.
    Const(Term),
    /// Comparison between two sub-expressions.
    Cmp {
        /// Operator lexeme: one of `=`, `!=`, `<`, `<=`, `>`, `>=`.
        op: &'static str,
        /// Left operand.
        lhs: Box<ExprAst>,
        /// Right operand.
        rhs: Box<ExprAst>,
    },
    /// Conjunction.
    And(Box<ExprAst>, Box<ExprAst>),
    /// Disjunction.
    Or(Box<ExprAst>, Box<ExprAst>),
    /// Logical negation `!e`.
    Not(Box<ExprAst>),
    /// Arithmetic: `op` is one of `+ - * /`.
    Arith {
        /// Operator lexeme.
        op: char,
        /// Left operand.
        lhs: Box<ExprAst>,
        /// Right operand.
        rhs: Box<ExprAst>,
    },
    /// Unary minus.
    Neg(Box<ExprAst>),
    /// A built-in function call, e.g. `REGEX(?title, "^Journal")`.
    Call {
        /// Function name as written (resolved case-insensitively at
        /// lowering time).
        func: String,
        /// Argument expressions.
        args: Vec<ExprAst>,
    },
    /// An aggregate call inside `HAVING`, e.g. `SUM(?x)` in
    /// `HAVING (SUM(?x) > 10)`. Never valid in `FILTER` (lowering
    /// rejects it outside the aggregation context).
    Agg {
        /// The aggregate function.
        func: AggFuncAst,
        /// `DISTINCT` inside the call.
        distinct: bool,
        /// Argument variable; `None` means `COUNT(*)`.
        arg: Option<String>,
    },
}

/// Aggregate function names, shared by select items and HAVING.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFuncAst {
    /// `COUNT(*)` / `COUNT(?x)`.
    Count,
    /// `SUM(?x)`.
    Sum,
    /// `MIN(?x)`.
    Min,
    /// `MAX(?x)`.
    Max,
    /// `AVG(?x)`.
    Avg,
}

impl AggFuncAst {
    /// The SPARQL keyword for this function.
    pub fn name(self) -> &'static str {
        match self {
            AggFuncAst::Count => "COUNT",
            AggFuncAst::Sum => "SUM",
            AggFuncAst::Min => "MIN",
            AggFuncAst::Max => "MAX",
            AggFuncAst::Avg => "AVG",
        }
    }
}

/// One aggregate select item: `(COUNT(DISTINCT ?x) AS ?alias)`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggAst {
    /// The aggregate function.
    pub func: AggFuncAst,
    /// `DISTINCT` inside the call.
    pub distinct: bool,
    /// Argument variable name; `None` means `COUNT(*)`.
    pub arg: Option<String>,
    /// The `?alias` the result binds to.
    pub alias: String,
}

impl ExprAst {
    /// Convenience constructor for a variable/constant comparison, the
    /// shape the paper's Definition 3 FILTERs take.
    pub fn cmp(op: &'static str, lhs: ExprAst, rhs: ExprAst) -> ExprAst {
        ExprAst::Cmp {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }
}
