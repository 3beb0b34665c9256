//! The join-query algebra all planners consume (paper Definition 3).

use std::collections::HashMap;
use std::fmt;

use hsp_rdf::{Term, TriplePos};

use crate::ast::{AggFuncAst, Element, ExprAst, NodeAst, Query};

/// A query variable, identified by a dense index into
/// [`JoinQuery::var_names`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// The dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?v{}", self.0)
    }
}

/// One slot of a triple pattern: a constant term or a variable.
#[derive(Debug, Clone, PartialEq)]
pub enum TermOrVar {
    /// A constant (URI or literal).
    Const(Term),
    /// A variable.
    Var(Var),
}

impl TermOrVar {
    /// The variable, if this slot holds one.
    pub fn as_var(&self) -> Option<Var> {
        match self {
            TermOrVar::Var(v) => Some(*v),
            TermOrVar::Const(_) => None,
        }
    }

    /// The constant term, if this slot holds one.
    pub fn as_const(&self) -> Option<&Term> {
        match self {
            TermOrVar::Const(t) => Some(t),
            TermOrVar::Var(_) => None,
        }
    }

    /// `true` if this slot holds a constant.
    pub fn is_const(&self) -> bool {
        matches!(self, TermOrVar::Const(_))
    }
}

/// A triple pattern over [`TermOrVar`] slots (paper Definition 2).
#[derive(Debug, Clone, PartialEq)]
pub struct TriplePattern {
    /// The `[s, p, o]` slots.
    pub slots: [TermOrVar; 3],
}

impl TriplePattern {
    /// Construct from three slots.
    pub fn new(s: TermOrVar, p: TermOrVar, o: TermOrVar) -> Self {
        TriplePattern { slots: [s, p, o] }
    }

    /// The slot at `pos`.
    pub fn slot(&self, pos: TriplePos) -> &TermOrVar {
        &self.slots[pos.index()]
    }

    /// Number of constant slots (0–3).
    pub fn num_consts(&self) -> usize {
        self.slots.iter().filter(|s| s.is_const()).count()
    }

    /// Number of variable slots (0–3).
    pub fn num_vars(&self) -> usize {
        3 - self.num_consts()
    }

    /// Distinct variables of this pattern, in slot order. (A variable used
    /// twice in one pattern is listed once.)
    pub fn vars(&self) -> Vec<Var> {
        let mut out = Vec::with_capacity(3);
        for slot in &self.slots {
            if let TermOrVar::Var(v) = slot {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
        }
        out
    }

    /// Positions (s/p/o) where `v` occurs.
    pub fn positions_of(&self, v: Var) -> Vec<TriplePos> {
        TriplePos::ALL
            .into_iter()
            .filter(|pos| self.slots[pos.index()] == TermOrVar::Var(v))
            .collect()
    }

    /// Positions holding constants, in `s, p, o` order.
    pub fn const_positions(&self) -> Vec<TriplePos> {
        TriplePos::ALL
            .into_iter()
            .filter(|pos| self.slots[pos.index()].is_const())
            .collect()
    }

    /// `true` if this pattern's predicate is the constant `rdf:type`
    /// (heuristic H1's exception).
    pub fn is_rdf_type_pattern(&self) -> bool {
        self.slot(TriplePos::P)
            .as_const()
            .is_some_and(|t| t.is_rdf_type())
    }

    /// `true` if `v` occurs in this pattern.
    pub fn contains_var(&self, v: Var) -> bool {
        self.slots.iter().any(|s| s.as_var() == Some(v))
    }

    /// A copy with every constant slot `t` where `f(t)` is `Some`
    /// replaced by the mapped term (plan-cache parameter rebinding).
    pub fn map_consts(&self, f: &impl Fn(&Term) -> Option<Term>) -> TriplePattern {
        TriplePattern {
            slots: self.slots.clone().map(|slot| match slot {
                TermOrVar::Const(t) => match f(&t) {
                    Some(new) => TermOrVar::Const(new),
                    None => TermOrVar::Const(t),
                },
                var => var,
            }),
        }
    }
}

/// Comparison operators supported in FILTER expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
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
}

impl CmpOp {
    /// Parse from the surface lexeme.
    pub fn from_lexeme(op: &str) -> Option<CmpOp> {
        Some(match op {
            "=" => CmpOp::Eq,
            "!=" => CmpOp::Ne,
            "<" => CmpOp::Lt,
            "<=" => CmpOp::Le,
            ">" => CmpOp::Gt,
            ">=" => CmpOp::Ge,
            _ => return None,
        })
    }

    /// The surface lexeme.
    pub fn lexeme(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// An operand of a FILTER comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A query variable.
    Var(Var),
    /// A constant term.
    Const(Term),
}

impl Operand {
    /// The variable, if this operand is one.
    pub fn as_var(&self) -> Option<Var> {
        match self {
            Operand::Var(v) => Some(*v),
            Operand::Const(_) => None,
        }
    }
}

/// One FILTER conjunct over algebra variables.
///
/// Lowering splits a FILTER's top-level `&&` into separate conjuncts. A
/// conjunct `=` between two variable/constant operands is [`FilterExpr::Eq`]:
/// **term equality**, the shape HSP's §6.2.1 rewrite consumes and every
/// planner treats alike — the one deliberate departure from SPARQL's
/// typed `=` (see [`crate::rewrite`]). Every other conjunct, including a
/// `=` under `||` or `!`, is [`FilterExpr::Complex`] and runs SPARQL's
/// typed operator mapping ([`crate::expr`]).
#[derive(Debug, Clone, PartialEq)]
pub enum FilterExpr {
    /// Term equality: true iff both operands are bound to the same term
    /// (an unbound operand makes it false).
    Eq(Operand, Operand),
    /// A full-grammar expression (see [`crate::expr::Expr`]).
    Complex(crate::expr::Expr),
}

impl FilterExpr {
    /// All variables mentioned by the expression, in first-occurrence order.
    pub fn vars(&self) -> Vec<Var> {
        match self {
            FilterExpr::Eq(lhs, rhs) => {
                let mut out = Vec::new();
                for v in [lhs.as_var(), rhs.as_var()].into_iter().flatten() {
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
                out
            }
            FilterExpr::Complex(e) => e.vars(),
        }
    }

    /// A copy with every constant `t` where `f(t)` is `Some` replaced by
    /// the mapped term (plan-cache parameter rebinding).
    pub fn map_consts(&self, f: &impl Fn(&Term) -> Option<Term>) -> FilterExpr {
        let map_operand = |o: &Operand| match o {
            Operand::Const(t) => Operand::Const(f(t).unwrap_or_else(|| t.clone())),
            Operand::Var(v) => Operand::Var(*v),
        };
        match self {
            FilterExpr::Eq(lhs, rhs) => FilterExpr::Eq(map_operand(lhs), map_operand(rhs)),
            FilterExpr::Complex(e) => FilterExpr::Complex(e.map_consts(f)),
        }
    }
}

/// One `ORDER BY` sort key: an expression and a direction.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// The key expression (usually a bare variable).
    pub expr: crate::expr::Expr,
    /// `DESC(…)`?
    pub descending: bool,
}

/// Solution modifiers (SPARQL §9): applied by the executor after the final
/// projection, invisible to the join planners.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Modifiers {
    /// `ORDER BY` keys in priority order.
    pub order_by: Vec<SortKey>,
    /// `LIMIT n`.
    pub limit: Option<usize>,
    /// `OFFSET n`.
    pub offset: usize,
}

impl Modifiers {
    /// `true` if there is nothing to apply.
    pub fn is_empty(&self) -> bool {
        self.order_by.is_empty() && self.limit.is_none() && self.offset == 0
    }
}

/// An aggregate function (SPARQL 1.1 §18.5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
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

impl AggFunc {
    /// The SPARQL keyword for this function.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        }
    }

    /// Lower from the AST form.
    pub fn from_ast(f: AggFuncAst) -> AggFunc {
        match f {
            AggFuncAst::Count => AggFunc::Count,
            AggFuncAst::Sum => AggFunc::Sum,
            AggFuncAst::Min => AggFunc::Min,
            AggFuncAst::Max => AggFunc::Max,
            AggFuncAst::Avg => AggFunc::Avg,
        }
    }
}

/// One aggregate computation: `out := FUNC([DISTINCT] arg)` per group.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The aggregate function.
    pub func: AggFunc,
    /// `DISTINCT` inside the call (meaningful for COUNT/SUM/AVG; a no-op
    /// for MIN/MAX).
    pub distinct: bool,
    /// Argument variable; `None` means `COUNT(*)`.
    pub arg: Option<Var>,
    /// The output variable the per-group result binds to.
    pub out: Var,
    /// The output name: the `?alias`, or a synthesized `__aggN` for an
    /// aggregate that appears only in `HAVING`.
    pub name: String,
}

/// A SPARQL join query (Definition 3): a conjunction of triple patterns with
/// a projection and residual FILTERs.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinQuery {
    /// The triple patterns, in source order.
    pub patterns: Vec<TriplePattern>,
    /// Residual FILTER expressions (conjoined).
    pub filters: Vec<FilterExpr>,
    /// Projection: `(output name, variable)` pairs in SELECT order.
    pub projection: Vec<(String, Var)>,
    /// `SELECT DISTINCT` (or `REDUCED`, which we evaluate as DISTINCT)?
    pub distinct: bool,
    /// Source name of each variable, indexed by [`Var`].
    pub var_names: Vec<String>,
    /// Solution modifiers (ORDER BY / LIMIT / OFFSET).
    pub modifiers: Modifiers,
    /// `GROUP BY` variables, in source order. Empty with non-empty
    /// [`JoinQuery::aggregates`] means one implicit all-rows group.
    pub group_by: Vec<Var>,
    /// Aggregate computations in SELECT order, HAVING-only aggregates
    /// appended after the projected ones.
    pub aggregates: Vec<AggSpec>,
    /// `HAVING` predicate over finalised group rows ([`ExprAst::Agg`]
    /// nodes already rewritten to references to aggregate outputs).
    pub having: Option<crate::expr::Expr>,
    /// The variables a `FILTER (?v = const)` rewrite replaced by their
    /// constant in every pattern ([`crate::rewrite`]), with that constant.
    /// Empty for a parsed query.
    pub substituted: Vec<(Var, Term)>,
}

/// Errors lowering an AST to a [`JoinQuery`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlgebraError {
    /// The query uses OPTIONAL/UNION, which Definition 3 join queries (and
    /// the planners) do not cover; the root crate's composer handles them.
    UnsupportedFeature(&'static str),
    /// A projected variable does not occur in any triple pattern.
    UnboundProjection(String),
    /// A FILTER references a variable bound nowhere.
    UnboundFilterVar(String),
    /// A FILTER expression is malformed (unknown function, wrong arity).
    BadFilter(String),
    /// A GROUP BY / HAVING / aggregate construct is malformed (unbound
    /// argument, ungrouped projection, colliding alias, …).
    BadAggregate(String),
    /// The query has no triple patterns.
    EmptyPattern,
}

impl fmt::Display for AlgebraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgebraError::UnsupportedFeature(what) => {
                write!(f, "join-query algebra does not support {what}")
            }
            AlgebraError::UnboundProjection(v) => {
                write!(
                    f,
                    "projected variable ?{v} is not bound by any triple pattern"
                )
            }
            AlgebraError::UnboundFilterVar(v) => {
                write!(f, "FILTER variable ?{v} is not bound by any triple pattern")
            }
            AlgebraError::BadFilter(what) => write!(f, "invalid FILTER expression: {what}"),
            AlgebraError::BadAggregate(what) => write!(f, "invalid aggregation: {what}"),
            AlgebraError::EmptyPattern => write!(f, "query has no triple patterns"),
        }
    }
}

impl std::error::Error for AlgebraError {}

impl JoinQuery {
    /// Lower a parsed AST to the join-query algebra.
    pub fn from_ast(query: &Query) -> Result<JoinQuery, AlgebraError> {
        let mut names: Vec<String> = Vec::new();
        let mut by_name: HashMap<String, Var> = HashMap::new();

        let mut patterns = Vec::new();
        let mut filters = Vec::new();
        for element in &query.where_clause.elements {
            match element {
                Element::Triple(t) => {
                    let s = lower_node(&t.subject, &mut names, &mut by_name);
                    let p = lower_node(&t.predicate, &mut names, &mut by_name);
                    let o = lower_node(&t.object, &mut names, &mut by_name);
                    patterns.push(TriplePattern::new(s, p, o));
                }
                Element::Filter(expr) => {
                    filters.extend(lower_filter_ast(expr, &mut |n| {
                        intern(n, &mut names, &mut by_name)
                    })?);
                }
                Element::Optional(_) => {
                    return Err(AlgebraError::UnsupportedFeature("OPTIONAL"));
                }
                Element::Union(_, _) => {
                    return Err(AlgebraError::UnsupportedFeature("UNION"));
                }
            }
        }
        if patterns.is_empty() {
            return Err(AlgebraError::EmptyPattern);
        }

        let bound: Vec<Var> = {
            let mut v: Vec<Var> = patterns.iter().flat_map(|p| p.vars()).collect();
            v.sort();
            v.dedup();
            v
        };
        for f in &filters {
            for v in f.vars() {
                if !bound.contains(&v) {
                    return Err(AlgebraError::UnboundFilterVar(names[v.index()].clone()));
                }
            }
        }

        // Aggregation: `HAVING` alone still forms the implicit all-rows
        // group (SPARQL 1.1 §11.1), so it marks an aggregate query too.
        let aggregate_query =
            !query.aggregates.is_empty() || !query.group_by.is_empty() || query.having.is_some();

        // GROUP BY variables must be pattern-bound.
        let mut group_by: Vec<Var> = Vec::with_capacity(query.group_by.len());
        for name in &query.group_by {
            let v = match by_name.get(name) {
                Some(&v) if bound.contains(&v) => v,
                _ => {
                    return Err(AlgebraError::BadAggregate(format!(
                        "GROUP BY variable ?{name} is not bound by any triple pattern"
                    )))
                }
            };
            if !group_by.contains(&v) {
                group_by.push(v);
            }
        }

        // Aggregate select items: the alias becomes a fresh variable (it
        // must not collide with anything already named), the argument must
        // be pattern-bound.
        let mut aggs: Vec<AggSpec> = Vec::with_capacity(query.aggregates.len());
        for a in &query.aggregates {
            if by_name.contains_key(&a.alias) {
                return Err(AlgebraError::BadAggregate(format!(
                    "aggregate alias ?{} collides with an existing variable",
                    a.alias
                )));
            }
            let arg = match &a.arg {
                Some(n) => match by_name.get(n) {
                    Some(&v) if bound.contains(&v) => Some(v),
                    _ => {
                        return Err(AlgebraError::BadAggregate(format!(
                            "aggregate argument ?{n} is not bound by any triple pattern"
                        )))
                    }
                },
                None => None,
            };
            let out = intern(&a.alias, &mut names, &mut by_name);
            aggs.push(AggSpec {
                func: AggFunc::from_ast(a.func),
                distinct: a.distinct,
                arg,
                out,
                name: a.alias.clone(),
            });
        }

        // HAVING: rewrite aggregate calls to references to (possibly
        // hidden) aggregate outputs, then lower through the ordinary
        // expression path. Identical (func, DISTINCT, arg) shapes share
        // one computation.
        let having = match &query.having {
            None => None,
            Some(h) => {
                let rewritten = rewrite_having_aggs(h, &mut |func, distinct, arg_name| {
                    let func = AggFunc::from_ast(func);
                    let arg = match arg_name {
                        Some(n) => match by_name.get(n) {
                            Some(&v) if bound.contains(&v) => Some(v),
                            _ => {
                                return Err(AlgebraError::BadAggregate(format!(
                                    "aggregate argument ?{n} is not bound by any triple pattern"
                                )))
                            }
                        },
                        None => None,
                    };
                    if let Some(a) = aggs
                        .iter()
                        .find(|a| a.func == func && a.distinct == distinct && a.arg == arg)
                    {
                        return Ok(a.name.clone());
                    }
                    let mut k = aggs.len();
                    let name = loop {
                        let cand = format!("__agg{k}");
                        if !by_name.contains_key(&cand) {
                            break cand;
                        }
                        k += 1;
                    };
                    let out = intern(&name, &mut names, &mut by_name);
                    aggs.push(AggSpec {
                        func,
                        distinct,
                        arg,
                        out,
                        name: name.clone(),
                    });
                    Ok(name)
                })?;
                let expr = lower_full(&rewritten, &mut |n| intern(n, &mut names, &mut by_name))?;
                for v in expr.vars() {
                    if !(group_by.contains(&v) || aggs.iter().any(|a| a.out == v)) {
                        return Err(AlgebraError::BadAggregate(format!(
                            "HAVING references ?{} which is neither grouped nor aggregated",
                            names[v.index()]
                        )));
                    }
                }
                Some(expr)
            }
        };

        // Solution modifiers: ORDER BY keys may reference any bound
        // variable (not just projected ones) — or, in an aggregate query,
        // any group variable or aggregate output. Lowered before the
        // projection because key expressions share the variable table.
        let mut order_by = Vec::with_capacity(query.order_by.len());
        for (expr_ast, descending) in &query.order_by {
            let expr = lower_full(expr_ast, &mut |n| intern(n, &mut names, &mut by_name))?;
            for v in expr.vars() {
                let ok = if aggregate_query {
                    group_by.contains(&v) || aggs.iter().any(|a| a.out == v)
                } else {
                    bound.contains(&v)
                };
                if !ok {
                    return Err(AlgebraError::UnboundFilterVar(names[v.index()].clone()));
                }
            }
            order_by.push(SortKey {
                expr,
                descending: *descending,
            });
        }

        let projection: Vec<(String, Var)> = match &query.projection {
            Some(vars) => {
                let mut out = Vec::with_capacity(vars.len());
                for name in vars {
                    let v = *by_name
                        .get(name)
                        .ok_or_else(|| AlgebraError::UnboundProjection(name.clone()))?;
                    let ok = if aggregate_query {
                        // SPARQL 1.1 §18.2.4.1: a projected variable must
                        // be grouped or aggregated.
                        group_by.contains(&v) || aggs.iter().any(|a| a.out == v)
                    } else {
                        bound.contains(&v)
                    };
                    if !ok {
                        return Err(if aggregate_query {
                            AlgebraError::BadAggregate(format!(
                                "projected variable ?{name} is neither grouped nor aggregated"
                            ))
                        } else {
                            AlgebraError::UnboundProjection(name.clone())
                        });
                    }
                    out.push((name.clone(), v));
                }
                out
            }
            None => {
                if aggregate_query {
                    return Err(AlgebraError::BadAggregate(
                        "SELECT * cannot be combined with GROUP BY, HAVING, or aggregates".into(),
                    ));
                }
                // SELECT *: all pattern variables in first-occurrence order.
                bound
                    .iter()
                    .map(|&v| (names[v.index()].clone(), v))
                    .collect()
            }
        };

        let modifiers = Modifiers {
            order_by,
            limit: query.limit,
            offset: query.offset.unwrap_or(0),
        };

        Ok(JoinQuery {
            patterns,
            filters,
            projection,
            distinct: query.distinct || query.reduced,
            var_names: names,
            modifiers,
            group_by,
            aggregates: aggs,
            having,
            substituted: Vec::new(),
        })
    }

    /// `true` if this query aggregates (GROUP BY, HAVING, or aggregate
    /// select items).
    pub fn is_aggregate(&self) -> bool {
        !self.aggregates.is_empty() || !self.group_by.is_empty()
    }

    /// `true` if the projection, GROUP BY, an aggregate, HAVING or an
    /// ORDER BY key reads `v` — the places where a variable the rewrite
    /// substituted still needs a value.
    pub fn mentions(&self, v: Var) -> bool {
        self.projection.iter().any(|&(_, p)| p == v)
            || self.group_by.contains(&v)
            || self.aggregates.iter().any(|a| a.arg == Some(v))
            || self.having.as_ref().is_some_and(|h| h.vars().contains(&v))
            || self
                .modifiers
                .order_by
                .iter()
                .any(|k| k.expr.vars().contains(&v))
    }

    /// Parse and lower a query text in one step.
    pub fn parse(input: &str) -> Result<JoinQuery, Box<dyn std::error::Error>> {
        let ast = crate::parser::parse_query(input)?;
        Ok(Self::from_ast(&ast)?)
    }

    /// Number of distinct variables across all patterns.
    pub fn num_vars(&self) -> usize {
        let mut vars: Vec<Var> = self.patterns.iter().flat_map(|p| p.vars()).collect();
        vars.sort();
        vars.dedup();
        vars.len()
    }

    /// The weight of `v`: the number of patterns containing it (paper
    /// Definition 4's `β`).
    pub fn weight(&self, v: Var) -> usize {
        self.patterns.iter().filter(|p| p.contains_var(v)).count()
    }

    /// Variables occurring in at least two patterns ("shared" / join
    /// variables), in variable order.
    pub fn shared_vars(&self) -> Vec<Var> {
        let mut vars: Vec<Var> = self.patterns.iter().flat_map(|p| p.vars()).collect();
        vars.sort();
        vars.dedup();
        vars.retain(|&v| self.weight(v) >= 2);
        vars
    }

    /// The source name of `v`.
    pub fn var_name(&self, v: Var) -> &str {
        &self.var_names[v.index()]
    }

    /// Indices of patterns containing `v`.
    pub fn patterns_with(&self, v: Var) -> Vec<usize> {
        self.patterns
            .iter()
            .enumerate()
            .filter(|(_, p)| p.contains_var(v))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Intern a variable name into the dense variable table.
fn intern(name: &str, names: &mut Vec<String>, by_name: &mut HashMap<String, Var>) -> Var {
    if let Some(&v) = by_name.get(name) {
        return v;
    }
    let v = Var(names.len() as u32);
    names.push(name.to_string());
    by_name.insert(name.to_string(), v);
    v
}

/// Lower one pattern slot, interning variables.
fn lower_node(
    node: &NodeAst,
    names: &mut Vec<String>,
    by_name: &mut HashMap<String, Var>,
) -> TermOrVar {
    match node {
        NodeAst::Var(n) => TermOrVar::Var(intern(n, names, by_name)),
        NodeAst::Const(t) => TermOrVar::Const(t.clone()),
    }
}

/// Replace every [`ExprAst::Agg`] node of a HAVING expression with a
/// variable reference to the (possibly hidden) aggregate computing it;
/// `register` returns that variable's name.
fn rewrite_having_aggs(
    expr: &ExprAst,
    register: &mut impl FnMut(AggFuncAst, bool, Option<&str>) -> Result<String, AlgebraError>,
) -> Result<ExprAst, AlgebraError> {
    Ok(match expr {
        ExprAst::Agg {
            func,
            distinct,
            arg,
        } => ExprAst::Var(register(*func, *distinct, arg.as_deref())?),
        ExprAst::Var(_) | ExprAst::Const(_) => expr.clone(),
        ExprAst::Cmp { op, lhs, rhs } => ExprAst::Cmp {
            op,
            lhs: Box::new(rewrite_having_aggs(lhs, register)?),
            rhs: Box::new(rewrite_having_aggs(rhs, register)?),
        },
        ExprAst::And(a, b) => ExprAst::And(
            Box::new(rewrite_having_aggs(a, register)?),
            Box::new(rewrite_having_aggs(b, register)?),
        ),
        ExprAst::Or(a, b) => ExprAst::Or(
            Box::new(rewrite_having_aggs(a, register)?),
            Box::new(rewrite_having_aggs(b, register)?),
        ),
        ExprAst::Not(e) => ExprAst::Not(Box::new(rewrite_having_aggs(e, register)?)),
        ExprAst::Arith { op, lhs, rhs } => ExprAst::Arith {
            op: *op,
            lhs: Box::new(rewrite_having_aggs(lhs, register)?),
            rhs: Box::new(rewrite_having_aggs(rhs, register)?),
        },
        ExprAst::Neg(e) => ExprAst::Neg(Box::new(rewrite_having_aggs(e, register)?)),
        ExprAst::Call { func, args } => ExprAst::Call {
            func: func.clone(),
            args: args
                .iter()
                .map(|a| rewrite_having_aggs(a, register))
                .collect::<Result<Vec<_>, _>>()?,
        },
    })
}

/// Lower a FILTER AST to the conjuncts the executor runs: top-level `&&`
/// splits into separate filters, a `=` between variable/constant operands
/// becomes [`FilterExpr::Eq`] and every other conjunct
/// [`FilterExpr::Complex`]. Shared with the OPTIONAL/UNION plan composer,
/// which supplies its own variable table.
pub fn lower_filter_ast(
    expr: &ExprAst,
    var: &mut impl FnMut(&str) -> Var,
) -> Result<Vec<FilterExpr>, AlgebraError> {
    let mut out = Vec::new();
    lower_conjuncts(expr, var, &mut out)?;
    Ok(out)
}

fn lower_conjuncts(
    expr: &ExprAst,
    var: &mut impl FnMut(&str) -> Var,
    out: &mut Vec<FilterExpr>,
) -> Result<(), AlgebraError> {
    match expr {
        ExprAst::And(a, b) => {
            lower_conjuncts(a, var, out)?;
            lower_conjuncts(b, var, out)?;
        }
        ExprAst::Cmp { op: "=", lhs, rhs } if is_operand(lhs) && is_operand(rhs) => {
            out.push(FilterExpr::Eq(operand(lhs, var), operand(rhs, var)));
        }
        _ => out.push(FilterExpr::Complex(lower_full(expr, var)?)),
    }
    Ok(())
}

fn is_operand(expr: &ExprAst) -> bool {
    matches!(expr, ExprAst::Var(_) | ExprAst::Const(_))
}

fn operand(expr: &ExprAst, var: &mut impl FnMut(&str) -> Var) -> Operand {
    match expr {
        ExprAst::Var(n) => Operand::Var(var(n)),
        ExprAst::Const(t) => Operand::Const(t.clone()),
        _ => unreachable!("checked by is_operand"),
    }
}

/// Lower any FILTER/ORDER-BY AST expression straight to the full
/// [`crate::expr::Expr`] form (no conjunct split, no [`FilterExpr::Eq`]),
/// with arity checking. Used for ORDER BY keys, which the executor always
/// evaluates through the typed-value semantics.
pub fn lower_expr_ast(
    expr: &ExprAst,
    var: &mut impl FnMut(&str) -> Var,
) -> Result<crate::expr::Expr, AlgebraError> {
    lower_full(expr, var)
}

/// Full-grammar lowering to [`crate::expr::Expr`], with arity checking.
fn lower_full(
    expr: &ExprAst,
    var: &mut impl FnMut(&str) -> Var,
) -> Result<crate::expr::Expr, AlgebraError> {
    use crate::expr::{ArithOp, Expr, Func};
    Ok(match expr {
        ExprAst::Var(n) => Expr::Var(var(n)),
        ExprAst::Const(t) => Expr::Const(t.clone()),
        ExprAst::Or(a, b) => Expr::Or(Box::new(lower_full(a, var)?), Box::new(lower_full(b, var)?)),
        ExprAst::And(a, b) => {
            Expr::And(Box::new(lower_full(a, var)?), Box::new(lower_full(b, var)?))
        }
        ExprAst::Not(e) => Expr::Not(Box::new(lower_full(e, var)?)),
        ExprAst::Cmp { op, lhs, rhs } => Expr::Cmp {
            op: CmpOp::from_lexeme(op).expect("parser only emits valid operators"),
            lhs: Box::new(lower_full(lhs, var)?),
            rhs: Box::new(lower_full(rhs, var)?),
        },
        ExprAst::Arith { op, lhs, rhs } => {
            let op = match op {
                '+' => ArithOp::Add,
                '-' => ArithOp::Sub,
                '*' => ArithOp::Mul,
                _ => ArithOp::Div,
            };
            Expr::Arith {
                op,
                lhs: Box::new(lower_full(lhs, var)?),
                rhs: Box::new(lower_full(rhs, var)?),
            }
        }
        ExprAst::Neg(e) => Expr::Neg(Box::new(lower_full(e, var)?)),
        ExprAst::Agg { .. } => {
            return Err(AlgebraError::BadFilter(
                "aggregate calls are only allowed in HAVING".into(),
            ))
        }
        ExprAst::Call { func, args } => {
            let f = Func::from_name(func)
                .ok_or_else(|| AlgebraError::BadFilter(format!("unknown function {func}")))?;
            let (min, max) = f.arity();
            if args.len() < min || args.len() > max {
                return Err(AlgebraError::BadFilter(format!(
                    "{} takes {min}..={max} arguments, got {}",
                    f.name(),
                    args.len()
                )));
            }
            let args = args
                .iter()
                .map(|a| lower_full(a, var))
                .collect::<Result<Vec<_>, _>>()?;
            Expr::Call { func: f, args }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(text: &str) -> JoinQuery {
        JoinQuery::parse(text).unwrap()
    }

    #[test]
    fn lowers_patterns_and_vars() {
        let jq = q("SELECT ?x WHERE { ?x <http://e/p> ?y . ?y <http://e/q> \"z\" . }");
        assert_eq!(jq.patterns.len(), 2);
        assert_eq!(jq.num_vars(), 2);
        assert_eq!(jq.var_names, vec!["x", "y"]);
        assert_eq!(jq.projection, vec![("x".to_string(), Var(0))]);
    }

    #[test]
    fn weights_and_shared_vars() {
        let jq = q(
            "SELECT ?a WHERE { ?a <http://e/p> ?b . ?a <http://e/q> ?c . ?b <http://e/r> ?c . }",
        );
        assert_eq!(jq.weight(Var(0)), 2); // a
        assert_eq!(jq.weight(Var(1)), 2); // b
        assert_eq!(jq.weight(Var(2)), 2); // c
        assert_eq!(jq.shared_vars(), vec![Var(0), Var(1), Var(2)]);
    }

    #[test]
    fn pattern_introspection() {
        let jq = q("SELECT ?x WHERE { ?x <http://e/p> \"lit\" . }");
        let p = &jq.patterns[0];
        assert_eq!(p.num_consts(), 2);
        assert_eq!(p.num_vars(), 1);
        assert_eq!(p.const_positions(), vec![TriplePos::P, TriplePos::O]);
        assert_eq!(p.positions_of(Var(0)), vec![TriplePos::S]);
        assert!(!p.is_rdf_type_pattern());
    }

    #[test]
    fn rdf_type_pattern_detection() {
        let jq = q("SELECT ?x WHERE { ?x a <http://e/C> . }");
        assert!(jq.patterns[0].is_rdf_type_pattern());
    }

    #[test]
    fn same_var_twice_in_one_pattern() {
        let jq = q("SELECT ?x WHERE { ?x <http://e/p> ?x . }");
        let p = &jq.patterns[0];
        assert_eq!(p.vars(), vec![Var(0)]);
        assert_eq!(p.positions_of(Var(0)), vec![TriplePos::S, TriplePos::O]);
        // Weight counts patterns, not slots.
        assert_eq!(jq.weight(Var(0)), 1);
    }

    #[test]
    fn select_star_projects_all_vars() {
        let jq = q("SELECT * WHERE { ?x <http://e/p> ?y . }");
        assert_eq!(jq.projection.len(), 2);
    }

    #[test]
    fn filters_are_collected() {
        let jq = q("SELECT ?x WHERE { ?x <http://e/p> ?y . FILTER (?y > 3) }");
        assert_eq!(jq.filters.len(), 1);
        assert_eq!(jq.filters[0].vars(), vec![Var(1)]);
    }

    #[test]
    fn unbound_projection_rejected() {
        let err = JoinQuery::parse("SELECT ?z WHERE { ?x <http://e/p> ?y . }").unwrap_err();
        assert!(err.to_string().contains("?z"));
    }

    #[test]
    fn unbound_filter_var_rejected() {
        let err = JoinQuery::parse("SELECT ?x WHERE { ?x <http://e/p> ?y . FILTER (?z = 3) }")
            .unwrap_err();
        assert!(err.to_string().contains("?z"));
    }

    #[test]
    fn optional_is_unsupported_in_join_algebra() {
        let err = JoinQuery::parse(
            "SELECT ?x WHERE { ?x <http://e/p> ?y . OPTIONAL { ?x <http://e/q> ?z . } }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("OPTIONAL"));
    }

    #[test]
    fn patterns_with_lists_indices() {
        let jq = q(
            "SELECT ?a WHERE { ?a <http://e/p> ?b . ?c <http://e/q> ?a . ?c <http://e/r> ?d . }",
        );
        assert_eq!(jq.patterns_with(Var(0)), vec![0, 1]);
        assert_eq!(jq.patterns_with(Var(2)), vec![1, 2]);
    }
}
