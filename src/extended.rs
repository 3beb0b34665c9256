//! Extended SPARQL evaluation: OPTIONAL, UNION, and group-scoped FILTERs —
//! the paper's §7 future work ("extend our optimizer to include all
//! features of the SPARQL language, such as the OPTIONAL clause").
//!
//! The strategy keeps HSP in charge of everything it covers: each basic
//! graph pattern (the conjunctive triple blocks) is planned by
//! [`HspPlanner`] exactly as in the paper; OPTIONAL groups become
//! left-outer hash joins, UNION branches are evaluated independently and
//! concatenated (missing columns padded with [`hsp_rdf::TermId::UNBOUND`]), and
//! group-level FILTERs run after the group's joins with SPARQL's
//! unbound-is-type-error semantics.
//!
//! When a group is a conjunctive core plus *plain* OPTIONAL blocks (each
//! only triples and FILTERs), the whole group **composes into one
//! [`PhysicalPlan`]** — the core's HSP plan, a
//! [`PhysicalPlan::LeftOuterHashJoin`] per OPTIONAL block, then the
//! group's FILTERs — and runs through [`execute_in`], which lowers that
//! plan into morsel-driven pipelines end to end, so the OPTIONAL probe
//! *streams* (the `pipeline_outer_probes` runtime counter) instead of
//! materialising both join inputs and the joined output, as the previous
//! table-at-a-time evaluation did. Groups with UNION branches or nested
//! OPTIONALs keep the table-at-a-time path.
//!
//! Scope notes (documented simplifications):
//! * FILTERs inside an OPTIONAL/UNION group apply to that group; FILTERs of
//!   the outer group apply after the outer group's joins (no cross-group
//!   pushdown).
//! * Join compatibility with UNBOUND follows strict equality (a row binding
//!   `?x` never joins a row where `?x` is UNBOUND), which is sufficient for
//!   the common "pad then project" UNION usage.

use std::collections::{HashMap, HashSet};

use hsp_core::HspPlanner;
use hsp_engine::binding::resolve_term;
use hsp_engine::ops;
use hsp_engine::{execute_in, BindingTable, ExecConfig, ExecContext, IdRows, PhysicalPlan};
use hsp_rdf::{Term, TermId};
use hsp_sparql::ast::{Element, GroupPattern, NodeAst, Query};
use hsp_sparql::{parse_query, FilterExpr, JoinQuery, TermOrVar, TriplePattern, Var};
use hsp_store::Dataset;

/// An extended-evaluation failure.
#[derive(Debug)]
pub enum ExtendedError {
    /// The query text failed to parse.
    Parse(hsp_sparql::ParseError),
    /// A projected variable is bound nowhere in the query.
    UnboundProjection(String),
    /// Planning or execution failed.
    Eval(String),
}

impl std::fmt::Display for ExtendedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtendedError::Parse(e) => write!(f, "{e}"),
            ExtendedError::UnboundProjection(v) => {
                write!(f, "projected variable ?{v} is not bound anywhere")
            }
            ExtendedError::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExtendedError {}

/// The result of extended evaluation: named columns over optional terms
/// (`None` = unbound, from OPTIONAL/UNION padding).
#[derive(Debug, Clone)]
pub struct ExtendedOutput {
    /// Output column names, in SELECT order.
    pub columns: Vec<String>,
    /// Result rows; `None` marks an unbound value.
    pub rows: Vec<Vec<Option<Term>>>,
}

/// Evaluate a SPARQL query that may use OPTIONAL and UNION inside a
/// caller-owned [`ExecContext`] (normally `config.context()`): the thread
/// budget governs the morsel-parallel kernels of every block and join, one
/// buffer pool is shared across the whole evaluation, and the context's
/// runtime counters accumulate over it, so callers can snapshot
/// [`RuntimeMetrics`](hsp_engine::RuntimeMetrics)`::of(ctx)` afterwards to
/// see what the engine did (pipelines launched, outer probes streamed,
/// breakers handed off, …). Serving code goes through
/// [`Session::query`](crate::session::Session::query).
pub fn evaluate_extended_in(
    ds: &Dataset,
    text: &str,
    config: &ExecConfig,
    ctx: &ExecContext,
) -> Result<ExtendedOutput, ExtendedError> {
    let ast = parse_query(text).map_err(ExtendedError::Parse)?;
    let (columns, rows) = evaluate_ast_encoded(ds, &ast, config, ctx)?;
    Ok(ExtendedOutput {
        columns,
        rows: rows.decode(ds.dict()),
    })
}

/// [`evaluate_extended_in`] over an already parsed query, stopping at the
/// id-form result: the column names and the projected id columns after the
/// solution modifiers (an `ASK` query yields zero columns and one empty
/// row iff a solution exists). This is what
/// [`Session`](crate::session::Session) runs; decoding is its caller's
/// choice.
pub(crate) fn evaluate_ast_encoded(
    ds: &Dataset,
    query: &Query,
    config: &ExecConfig,
    ctx: &ExecContext,
) -> Result<(Vec<String>, IdRows), ExtendedError> {
    // Aggregation (GROUP BY / HAVING / aggregate select items) lives in
    // the join-query fragment: lower the whole AST there, plan with HSP,
    // and let the engine's γ breaker do the work. OPTIONAL/UNION cannot
    // be combined with aggregates (typed error, not a silent drop).
    if !query.aggregates.is_empty() || !query.group_by.is_empty() || query.having.is_some() {
        return evaluate_aggregate_in(ds, query, config, ctx);
    }
    let mut vars = VarTable::default();
    let table = eval_group(ds, &query.where_clause, &mut vars, config, ctx)?;

    if query.ask {
        // ASK: zero columns; one empty row iff a solution exists.
        let rows = BindingTable::unit(usize::from(!table.is_empty()));
        return Ok((Vec::new(), IdRows::new(rows, &[], None, Vec::new())));
    }

    // Projection: named variables or everything, in declaration order.
    let projection: Vec<(String, Var)> = match &query.projection {
        Some(names) => names
            .iter()
            .map(|name| {
                vars.lookup(name)
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| ExtendedError::UnboundProjection(name.clone()))
            })
            .collect::<Result<_, _>>()?,
        None => vars
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), Var(i as u32)))
            .collect(),
    };

    let (columns, proj_vars): (Vec<String>, Vec<Var>) = projection.into_iter().unzip();
    let dedup = query.distinct || query.reduced;
    if query.order_by.is_empty() && !dedup && query.offset.is_none() && query.limit.is_none() {
        // No modifier selects or reorders rows: the projected columns
        // move out of the table as they are.
        return Ok((columns, IdRows::new(table, &proj_vars, None, Vec::new())));
    }

    // Solution modifiers, in the spec's application order: ORDER BY, then
    // DISTINCT/REDUCED (stable — keeps first occurrences), then
    // OFFSET/LIMIT. All three work on row indices over the id table —
    // ORDER BY decodes only its key values (which may reference
    // non-projected variables), DISTINCT compares projected id tuples
    // (the dictionary maps equal terms to equal ids) — and only the ids
    // of the rows that survive are gathered.
    // Row indices are `u32`, like every selection vector in the engine.
    let n = u32::try_from(table.len())
        .map_err(|_| ExtendedError::Eval("result exceeds u32::MAX rows".into()))?;
    let mut order: Vec<u32> = (0..n).collect();

    if !query.order_by.is_empty() {
        let evaluator = hsp_sparql::Evaluator::new();
        let mut keys = Vec::with_capacity(query.order_by.len());
        for (ast, descending) in &query.order_by {
            let expr = hsp_sparql::algebra::lower_expr_ast(ast, &mut |n| vars.var(n))
                .map_err(|e| ExtendedError::Eval(e.to_string()))?;
            keys.push((expr, *descending));
        }
        let key_vals: Vec<Vec<Option<hsp_sparql::Value>>> = (0..table.len())
            .map(|row| {
                let bindings = TableRow {
                    ds,
                    table: &table,
                    row,
                };
                keys.iter()
                    .map(|(e, _)| evaluator.eval(e, &bindings).ok())
                    .collect()
            })
            .collect();
        // Stable, so ties keep table order.
        order.sort_by(|&a, &b| {
            let (ka, kb) = (&key_vals[a as usize], &key_vals[b as usize]);
            for ((_, desc), (va, vb)) in keys.iter().zip(ka.iter().zip(kb)) {
                let ord = hsp_sparql::expr::compare_for_order(va.as_ref(), vb.as_ref());
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    if dedup {
        let cols: Vec<Option<&[TermId]>> = proj_vars
            .iter()
            .map(|&v| table.col_index(v).map(|c| table.columns()[c].as_slice()))
            .collect();
        let mut seen: HashSet<Vec<TermId>> = HashSet::new();
        order.retain(|&i| {
            seen.insert(
                cols.iter()
                    .map(|col| col.map_or(TermId::UNBOUND, |col| col[i as usize]))
                    .collect(),
            )
        });
    }

    let offset = query.offset.unwrap_or(0).min(order.len());
    let end = match query.limit {
        Some(n) => offset.saturating_add(n).min(order.len()),
        None => order.len(),
    };
    let rows = IdRows::new(table, &proj_vars, Some(&order[offset..end]), Vec::new());
    Ok((columns, rows))
}

/// Aggregate queries take the planner path end to end: the HSP plan gets a
/// [`PhysicalPlan::HashAggregate`] between the residual filters and the
/// projection, the engine's γ breaker (or its operator-at-a-time oracle)
/// computes the groups, and `ORDER BY`/`DISTINCT`/`LIMIT` ride along as
/// plan modifiers. Aggregate outputs are computed-overlay ids, so the
/// result carries the execution's overlay
/// ([`hsp_engine::ExecOutput::into_id_rows`]) beside its id columns.
fn evaluate_aggregate_in(
    ds: &Dataset,
    query: &Query,
    config: &ExecConfig,
    ctx: &ExecContext,
) -> Result<(Vec<String>, IdRows), ExtendedError> {
    use hsp_sparql::algebra::AlgebraError;
    let jq = JoinQuery::from_ast(query).map_err(|e| match e {
        AlgebraError::UnsupportedFeature(what) => ExtendedError::Eval(format!(
            "aggregation (GROUP BY / HAVING / aggregate functions) is only \
             supported over conjunctive patterns + FILTER; this query also \
             uses {what}"
        )),
        other => ExtendedError::Eval(other.to_string()),
    })?;
    let planned = HspPlanner::new()
        .plan(&jq)
        .map_err(|e| ExtendedError::Eval(e.to_string()))?;
    let output = execute_in(&planned.plan, ds, config, ctx)
        .map_err(|e| ExtendedError::Eval(e.to_string()))?;
    let (columns, vars): (Vec<String>, Vec<Var>) = planned.query.projection.iter().cloned().unzip();
    Ok((columns, output.into_id_rows(&vars)))
}

/// [`hsp_sparql::Bindings`] over one row of the final (pre-projection)
/// extended-evaluation table.
struct TableRow<'a> {
    ds: &'a Dataset,
    table: &'a BindingTable,
    row: usize,
}

impl hsp_sparql::Bindings for TableRow<'_> {
    fn term(&self, v: Var) -> Option<Term> {
        let idx = self.table.col_index(v)?;
        resolve_term(self.ds, &[], self.table.columns()[idx][self.row])
    }
}

/// Global variable numbering shared by all groups of one query.
#[derive(Debug, Default)]
struct VarTable {
    names: Vec<String>,
    by_name: HashMap<String, Var>,
}

impl VarTable {
    fn var(&mut self, name: &str) -> Var {
        if let Some(&v) = self.by_name.get(name) {
            return v;
        }
        let v = Var(self.names.len() as u32);
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), v);
        v
    }

    fn lookup(&self, name: &str) -> Option<Var> {
        self.by_name.get(name).copied()
    }
}

/// Evaluate one group: HSP over its triple block, then UNIONs (joined in),
/// then OPTIONALs (left-outer), then the group's FILTERs.
fn eval_group(
    ds: &Dataset,
    group: &GroupPattern,
    vars: &mut VarTable,
    config: &ExecConfig,
    ctx: &ExecContext,
) -> Result<BindingTable, ExtendedError> {
    let mut patterns: Vec<TriplePattern> = Vec::new();
    let mut filters: Vec<FilterExpr> = Vec::new();
    let mut optionals: Vec<&GroupPattern> = Vec::new();
    let mut unions: Vec<(&GroupPattern, &GroupPattern)> = Vec::new();

    for element in &group.elements {
        match element {
            Element::Triple(t) => {
                let s = lower_node(&t.subject, vars);
                let p = lower_node(&t.predicate, vars);
                let o = lower_node(&t.object, vars);
                patterns.push(TriplePattern::new(s, p, o));
            }
            Element::Filter(expr) => filters.push(lower_filter(expr, vars)?),
            Element::Optional(g) => optionals.push(g),
            Element::Union(a, b) => unions.push((a, b)),
        }
    }

    // 1. The conjunctive core, planned by HSP (when present) — and, when
    // the whole group is a core plus plain OPTIONAL blocks, composed with
    // them (and the group's FILTERs) into ONE physical plan executed
    // through `execute_in`: the engine lowers it into morsel-driven
    // pipelines, so the OPTIONAL
    // left-outer probes and the FILTERs *stream* instead of materialising
    // each step's input and output. `compose_group_plan` hands the core
    // plan back untouched when the group needs the table-at-a-time path,
    // so the core is planned exactly once either way.
    let mut current: Option<BindingTable> = if patterns.is_empty() {
        None
    } else {
        let core = block_plan(patterns, vars)?;
        let core = if unions.is_empty() && optionals.iter().all(|g| plain_block(g)) {
            match compose_group_plan(core, &filters, &optionals, vars)? {
                Composed::Whole(plan) => {
                    let out = execute_in(&plan, ds, config, ctx)
                        .map_err(|e| ExtendedError::Eval(e.to_string()))?;
                    return Ok(out.table);
                }
                Composed::CoreOnly(core) => core,
            }
        } else {
            core
        };
        let out =
            execute_in(&core, ds, config, ctx).map_err(|e| ExtendedError::Eval(e.to_string()))?;
        Some(out.table)
    };

    // 2. UNION blocks: evaluate branches, concatenate, join with the core.
    //
    // Every table this function holds is charged against the governor's
    // memory budget (`execute_in` charges its own outputs; the
    // table-at-a-time steps below charge through `settle`), so each
    // `ctx.recycle` releases exactly what was charged and an error leaves
    // the accounting at zero.
    for (a, b) in unions {
        ctx.checkpoint("extended")
            .map_err(|e| ExtendedError::Eval(e.to_string()))?;
        let ta = eval_group(ds, a, vars, config, ctx)?;
        let tb = match eval_group(ds, b, vars, config, ctx) {
            Ok(tb) => tb,
            Err(e) => {
                ctx.recycle(ta);
                if let Some(core) = current.take() {
                    ctx.recycle(core);
                }
                return Err(e);
            }
        };
        let union = ops::union_all(ctx, &ta, &tb);
        ctx.recycle(ta);
        ctx.recycle(tb);
        let union = match settle(ctx, union) {
            Ok(t) => t,
            Err(e) => {
                if let Some(core) = current.take() {
                    ctx.recycle(core);
                }
                return Err(e);
            }
        };
        current = Some(match current.take() {
            None => union,
            Some(core) => {
                let joined = join_tables(ctx, &core, &union);
                ctx.recycle(core);
                ctx.recycle(union);
                settle(ctx, joined)?
            }
        });
    }

    let mut table = current.ok_or_else(|| {
        ExtendedError::Eval("group has neither triple patterns nor UNION branches".into())
    })?;

    // 3. OPTIONAL blocks: left-outer joins on the shared variables.
    for g in optionals {
        if let Err(e) = ctx.checkpoint("extended") {
            ctx.recycle(table);
            return Err(ExtendedError::Eval(e.to_string()));
        }
        let right = match eval_group(ds, g, vars, config, ctx) {
            Ok(right) => right,
            Err(e) => {
                ctx.recycle(table);
                return Err(e);
            }
        };
        let shared: Vec<Var> = right
            .vars()
            .iter()
            .copied()
            .filter(|v| table.vars().contains(v))
            .collect();
        let joined = if !shared.is_empty() {
            ops::left_outer_hash_join(ctx, &table, &right, &shared)
        } else if right.is_empty() {
            // OPTIONAL with no shared variables: every combination, or
            // UNBOUND padding when the optional side is empty.
            ops::union_all(ctx, &table, &BindingTable::empty(right.vars().to_vec()))
        } else {
            ops::cross_product(ctx, &table, &right)
        };
        ctx.recycle(table);
        ctx.recycle(right);
        table = settle(ctx, joined)?;
    }

    // 4. Group-level FILTERs (unbound comparisons are false).
    for f in &filters {
        if let Err(e) = ctx.checkpoint("extended") {
            ctx.recycle(table);
            return Err(ExtendedError::Eval(e.to_string()));
        }
        let filtered = ops::filter(ctx, ds, &table, f);
        ctx.recycle(table);
        table = settle(ctx, filtered)?;
    }
    Ok(table)
}

/// Charge a freshly produced table-at-a-time intermediate against the
/// governor's memory budget, surfacing any trip the producing kernel
/// recorded (the cross product bails out cooperatively).
fn settle(ctx: &ExecContext, table: BindingTable) -> Result<BindingTable, ExtendedError> {
    if let Some(e) = ctx
        .governor()
        .and_then(hsp_engine::QueryGovernor::trip_error)
    {
        // A tripped cross product returned an empty placeholder whose
        // columns never came from the pool: drop, don't recycle.
        drop(table);
        return Err(ExtendedError::Eval(e.to_string()));
    }
    if let Err(e) = ctx.charge_table(&table, "extended") {
        ctx.recycle(table);
        return Err(ExtendedError::Eval(e.to_string()));
    }
    Ok(table)
}

fn lower_filter(
    expr: &hsp_sparql::ast::ExprAst,
    vars: &mut VarTable,
) -> Result<FilterExpr, ExtendedError> {
    hsp_sparql::algebra::lower_filter_ast(expr, &mut |n| vars.var(n))
        .map_err(|e| ExtendedError::Eval(e.to_string()))
}

fn lower_node(node: &NodeAst, vars: &mut VarTable) -> TermOrVar {
    match node {
        NodeAst::Var(n) => TermOrVar::Var(vars.var(n)),
        NodeAst::Const(t) => TermOrVar::Const(t.clone()),
    }
}

/// Plan one conjunctive triple block with HSP, projecting every block
/// variable (sorted) — the shape both evaluation paths share.
fn block_plan(
    patterns: Vec<TriplePattern>,
    vars: &VarTable,
) -> Result<PhysicalPlan, ExtendedError> {
    let block_vars: Vec<Var> = {
        let mut v: Vec<Var> = patterns.iter().flat_map(|p| p.vars()).collect();
        v.sort();
        v.dedup();
        v
    };
    let query = JoinQuery {
        patterns,
        filters: Vec::new(), // group filters are composed/applied by the caller
        projection: block_vars
            .iter()
            .map(|&v| (vars.names[v.index()].clone(), v))
            .collect(),
        distinct: false,
        var_names: vars.names.clone(),
        modifiers: Default::default(),
        group_by: vec![],
        aggregates: vec![],
        having: None,
    };
    let planned = HspPlanner::new()
        .plan(&query)
        .map_err(|e| ExtendedError::Eval(e.to_string()))?;
    Ok(planned.plan)
}

/// `true` when a group holds only triple patterns and FILTERs (no nested
/// OPTIONAL/UNION) plus at least one triple — the shape that plans as a
/// single conjunctive block.
fn plain_block(group: &GroupPattern) -> bool {
    let mut has_triple = false;
    for element in &group.elements {
        match element {
            Element::Triple(_) => has_triple = true,
            Element::Filter(_) => {}
            Element::Optional(_) | Element::Union(..) => return false,
        }
    }
    has_triple
}

/// [`compose_group_plan`]'s outcome: the whole group as one plan, or —
/// when the group needs the table-at-a-time path — the core plan handed
/// back untouched so the caller never plans it twice.
enum Composed {
    /// Core + OPTIONAL blocks + group FILTERs, as one plan.
    Whole(PhysicalPlan),
    /// Not composable: the caller's core plan, returned as received.
    CoreOnly(PhysicalPlan),
}

/// Try to compose a whole group into one physical plan: the (already
/// planned) conjunctive core, one [`PhysicalPlan::LeftOuterHashJoin`] per
/// plain OPTIONAL block (the block's own FILTERs applied inside it), then
/// the group's FILTERs on top.
///
/// Returns [`Composed::CoreOnly`] — fall back to table-at-a-time
/// evaluation — when an OPTIONAL block shares no variable with the part
/// already composed (the cross-product / padding special cases) or a
/// FILTER reads a variable its input does not bind (plan validation would
/// reject it; the table-at-a-time path evaluates such a variable as
/// UNBOUND). The caller has already checked every block is plain (no
/// nested OPTIONAL/UNION). Wrapping is deferred until every check has
/// passed, so a bail returns the core exactly as it came in.
fn compose_group_plan(
    core: PhysicalPlan,
    filters: &[FilterExpr],
    optionals: &[&GroupPattern],
    vars: &mut VarTable,
) -> Result<Composed, ExtendedError> {
    let mut bound = core.output_vars();
    let mut joins: Vec<(PhysicalPlan, Vec<Var>)> = Vec::new();
    for g in optionals {
        let mut opt_patterns: Vec<TriplePattern> = Vec::new();
        let mut opt_filters: Vec<FilterExpr> = Vec::new();
        for element in &g.elements {
            match element {
                Element::Triple(t) => {
                    let s = lower_node(&t.subject, vars);
                    let p = lower_node(&t.predicate, vars);
                    let o = lower_node(&t.object, vars);
                    opt_patterns.push(TriplePattern::new(s, p, o));
                }
                Element::Filter(expr) => opt_filters.push(lower_filter(expr, vars)?),
                Element::Optional(_) | Element::Union(..) => unreachable!("plain block"),
            }
        }
        let mut opt_plan = block_plan(opt_patterns, vars)?;
        let opt_vars = opt_plan.output_vars();
        for f in opt_filters {
            if !f.vars().iter().all(|v| opt_vars.contains(v)) {
                return Ok(Composed::CoreOnly(core));
            }
            opt_plan = PhysicalPlan::Filter {
                input: Box::new(opt_plan),
                expr: f,
            };
        }
        let shared: Vec<Var> = opt_vars
            .iter()
            .copied()
            .filter(|v| bound.contains(v))
            .collect();
        if shared.is_empty() {
            return Ok(Composed::CoreOnly(core));
        }
        for v in opt_vars {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
        joins.push((opt_plan, shared));
    }
    for f in filters {
        if !f.vars().iter().all(|v| bound.contains(v)) {
            return Ok(Composed::CoreOnly(core));
        }
    }
    let mut plan = core;
    for (opt_plan, shared) in joins {
        plan = PhysicalPlan::LeftOuterHashJoin {
            left: Box::new(plan),
            right: Box::new(opt_plan),
            vars: shared,
        };
    }
    for f in filters {
        plan = PhysicalPlan::Filter {
            input: Box::new(plan),
            expr: f.clone(),
        };
    }
    Ok(Composed::Whole(plan))
}

/// Inner join two evaluated tables on their shared variables (hash join),
/// or cross product when they share none.
fn join_tables(ctx: &ExecContext, a: &BindingTable, b: &BindingTable) -> BindingTable {
    let shared: Vec<Var> = b
        .vars()
        .iter()
        .copied()
        .filter(|v| a.vars().contains(v))
        .collect();
    if shared.is_empty() {
        ops::cross_product(ctx, a, b)
    } else {
        ops::hash_join(ctx, a, b, &shared)
    }
}

/// Re-export for tests/examples that need to inspect unbound cells.
pub use hsp_rdf::dictionary::TermId as ExtendedTermId;

#[cfg(test)]
mod tests {
    use super::*;

    fn evaluate_extended(ds: &Dataset, text: &str) -> Result<ExtendedOutput, ExtendedError> {
        let config = ExecConfig::unlimited();
        evaluate_extended_in(ds, text, &config, &config.context())
    }

    fn dataset() -> Dataset {
        Dataset::from_ntriples(
            r#"<http://e/a1> <http://e/name> "Alice" .
<http://e/a1> <http://e/email> "alice@example.org" .
<http://e/a2> <http://e/name> "Bob" .
<http://e/a3> <http://e/name> "Carol" .
<http://e/a3> <http://e/phone> "555-1234" .
"#,
        )
        .unwrap()
    }

    #[test]
    fn optional_keeps_rows_without_match() {
        let ds = dataset();
        let out = evaluate_extended(
            &ds,
            "SELECT ?n ?e WHERE {
                ?p <http://e/name> ?n .
                OPTIONAL { ?p <http://e/email> ?e . } }",
        )
        .unwrap();
        assert_eq!(out.rows.len(), 3);
        let with_email = out.rows.iter().filter(|r| r[1].is_some()).count();
        assert_eq!(with_email, 1); // only Alice
    }

    #[test]
    fn nested_optional_groups() {
        let ds = dataset();
        let out = evaluate_extended(
            &ds,
            "SELECT ?n ?e ?ph WHERE {
                ?p <http://e/name> ?n .
                OPTIONAL { ?p <http://e/email> ?e . }
                OPTIONAL { ?p <http://e/phone> ?ph . } }",
        )
        .unwrap();
        assert_eq!(out.rows.len(), 3);
        let phones = out.rows.iter().filter(|r| r[2].is_some()).count();
        assert_eq!(phones, 1); // only Carol
    }

    #[test]
    fn union_concatenates_branches() {
        let ds = dataset();
        let out = evaluate_extended(
            &ds,
            "SELECT ?p ?c WHERE {
                { ?p <http://e/email> ?c . } UNION { ?p <http://e/phone> ?c . } }",
        )
        .unwrap();
        assert_eq!(out.rows.len(), 2); // Alice's email + Carol's phone
        assert!(out.rows.iter().all(|r| r[0].is_some() && r[1].is_some()));
    }

    #[test]
    fn union_with_different_vars_pads_unbound() {
        let ds = dataset();
        let out = evaluate_extended(
            &ds,
            "SELECT ?e ?ph WHERE {
                { ?p <http://e/email> ?e . } UNION { ?p <http://e/phone> ?ph . } }",
        )
        .unwrap();
        assert_eq!(out.rows.len(), 2);
        for row in &out.rows {
            // Exactly one of the two columns is bound per branch row.
            assert_eq!(row.iter().filter(|c| c.is_some()).count(), 1);
        }
    }

    #[test]
    fn union_joined_with_core_block() {
        let ds = dataset();
        let out = evaluate_extended(
            &ds,
            "SELECT ?n ?c WHERE {
                ?p <http://e/name> ?n .
                { ?p <http://e/email> ?c . } UNION { ?p <http://e/phone> ?c . } }",
        )
        .unwrap();
        // Alice-email + Carol-phone, joined back to names.
        assert_eq!(out.rows.len(), 2);
        let names: Vec<String> = out
            .rows
            .iter()
            .map(|r| r[0].as_ref().unwrap().lexical().to_string())
            .collect();
        assert!(names.contains(&"Alice".to_string()));
        assert!(names.contains(&"Carol".to_string()));
    }

    #[test]
    fn filter_after_optional_sees_unbound_as_false() {
        let ds = dataset();
        let out = evaluate_extended(
            &ds,
            r#"SELECT ?n WHERE {
                ?p <http://e/name> ?n .
                OPTIONAL { ?p <http://e/email> ?e . }
                FILTER (?e = "alice@example.org") }"#,
        )
        .unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0][0].as_ref().unwrap().lexical(), "Alice");
    }

    #[test]
    fn plain_join_queries_still_work() {
        let ds = dataset();
        let out = evaluate_extended(
            &ds,
            "SELECT ?n WHERE { ?p <http://e/name> ?n . ?p <http://e/email> ?m . }",
        )
        .unwrap();
        assert_eq!(out.rows.len(), 1);
    }

    #[test]
    fn distinct_applies_to_extended_results() {
        let ds = dataset();
        let out = evaluate_extended(
            &ds,
            "SELECT DISTINCT ?p WHERE {
                { ?p <http://e/name> ?n . } UNION { ?p <http://e/name> ?m . } }",
        )
        .unwrap();
        assert_eq!(out.rows.len(), 3); // a1, a2, a3 — each once
    }

    #[test]
    fn unbound_projection_is_an_error() {
        let ds = dataset();
        let err =
            evaluate_extended(&ds, "SELECT ?zzz WHERE { ?p <http://e/name> ?n . }").unwrap_err();
        assert!(err.to_string().contains("zzz"));
    }

    #[test]
    fn select_star_collects_all_vars() {
        let ds = dataset();
        let out = evaluate_extended(
            &ds,
            "SELECT * WHERE { ?p <http://e/name> ?n . OPTIONAL { ?p <http://e/email> ?e . } }",
        )
        .unwrap();
        assert_eq!(out.columns, vec!["p", "n", "e"]);
        assert_eq!(out.rows.len(), 3);
    }

    fn names_of(out: &ExtendedOutput) -> Vec<String> {
        out.rows
            .iter()
            .map(|r| r[0].as_ref().expect("bound").lexical().to_string())
            .collect()
    }

    #[test]
    fn order_by_sorts_extended_results() {
        let ds = dataset();
        let out = evaluate_extended(
            &ds,
            "SELECT ?n WHERE { ?p <http://e/name> ?n . } ORDER BY DESC(?n)",
        )
        .unwrap();
        assert_eq!(names_of(&out), vec!["Carol", "Bob", "Alice"]);
    }

    #[test]
    fn order_by_non_projected_variable() {
        let ds = dataset();
        // Sort by ?p (the IRI), project only ?n.
        let out = evaluate_extended(
            &ds,
            "SELECT ?n WHERE { ?p <http://e/name> ?n . } ORDER BY ?p",
        )
        .unwrap();
        assert_eq!(names_of(&out), vec!["Alice", "Bob", "Carol"]);
    }

    #[test]
    fn limit_offset_paginate() {
        let ds = dataset();
        let q = "SELECT ?n WHERE { ?p <http://e/name> ?n . } ORDER BY ?n LIMIT 2";
        assert_eq!(
            names_of(&evaluate_extended(&ds, q).unwrap()),
            vec!["Alice", "Bob"]
        );
        let q = "SELECT ?n WHERE { ?p <http://e/name> ?n . } ORDER BY ?n LIMIT 2 OFFSET 2";
        assert_eq!(names_of(&evaluate_extended(&ds, q).unwrap()), vec!["Carol"]);
        let q = "SELECT ?n WHERE { ?p <http://e/name> ?n . } ORDER BY ?n OFFSET 9";
        assert!(evaluate_extended(&ds, q).unwrap().rows.is_empty());
    }

    #[test]
    fn unbound_optional_values_sort_first() {
        let ds = dataset();
        let out = evaluate_extended(
            &ds,
            "SELECT ?n ?e WHERE { ?p <http://e/name> ?n . \
             OPTIONAL { ?p <http://e/email> ?e . } } ORDER BY ?e ?n",
        )
        .unwrap();
        // Bob and Carol have no email (unbound < any value), then Alice.
        assert_eq!(names_of(&out), vec!["Bob", "Carol", "Alice"]);
    }

    #[test]
    fn order_by_expression_key() {
        let ds = dataset();
        // Sort by string length: Bob (3) < Alice/Carol (5, tie broken by ?n).
        let out = evaluate_extended(
            &ds,
            "SELECT ?n WHERE { ?p <http://e/name> ?n . } ORDER BY strlen(?n) ?n",
        )
        .unwrap();
        assert_eq!(names_of(&out), vec!["Bob", "Alice", "Carol"]);
    }

    #[test]
    fn reduced_deduplicates() {
        let ds = dataset();
        let out = evaluate_extended(&ds, "SELECT REDUCED ?p WHERE { ?p ?prop ?v . }").unwrap();
        assert_eq!(out.rows.len(), 3); // a1, a2, a3 deduplicated
    }

    #[test]
    fn ask_queries() {
        let ds = dataset();
        let ask = |text: &str| !evaluate_extended(&ds, text).unwrap().rows.is_empty();
        assert!(ask("ASK { ?p <http://e/name> \"Alice\" . }"));
        assert!(!ask("ASK { ?p <http://e/name> \"Zed\" . }"));
        // WHERE keyword and OPTIONAL are accepted.
        assert!(ask(
            "ASK WHERE { ?p <http://e/name> ?n . OPTIONAL { ?p <http://e/email> ?e . } }"
        ));
        // Zero columns, row presence as answer.
        let out = evaluate_extended(&ds, "ASK { ?p <http://e/phone> ?t . }").unwrap();
        assert!(out.columns.is_empty());
        assert_eq!(out.rows.len(), 1);
    }

    #[test]
    fn regex_filter_in_extended_query() {
        let ds = dataset();
        let out = evaluate_extended(
            &ds,
            r#"SELECT ?n WHERE { ?p <http://e/name> ?n . FILTER regex(?n, "^[AB]") } ORDER BY ?n"#,
        )
        .unwrap();
        assert_eq!(names_of(&out), vec!["Alice", "Bob"]);
    }
}
