//! Extended SPARQL: OPTIONAL, UNION, and group-scoped FILTERs — the
//! paper's §7 future work ("extend our optimizer to include all features
//! of the SPARQL language, such as the OPTIONAL clause").
//!
//! This module is a **composer**, not an evaluator: it lowers a parsed
//! query to one [`PhysicalPlan`] and hands it to [`execute_in`] — the same
//! single execution every join-fragment query gets, with the same row
//! budget, governor, profile and pipeline lowering. HSP stays in charge of
//! everything it covers: each basic graph pattern (a group's conjunctive
//! triple block) is planned by [`HspPlanner`] exactly as in the paper, and
//! the blocks are then composed group by group:
//!
//! 1. the group's triple block, HSP-planned;
//! 2. each `{ A } UNION { B }` becomes a [`PhysicalPlan::Union`] of the two
//!    composed branches (columns a branch does not bind are padded with
//!    [`hsp_rdf::TermId::UNBOUND`]), hash-joined to what precedes it on
//!    the shared variables (a cross product when there are none);
//! 3. each `OPTIONAL { G }` becomes a [`PhysicalPlan::LeftOuterHashJoin`]
//!    whose right side is the composed `G`, keyed on the shared variables
//!    (none: every pairing, or UNBOUND padding when `G` has no solution);
//! 4. the group's FILTERs on top, with SPARQL's unbound-is-type-error
//!    semantics;
//!
//! and the query's projection, DISTINCT, ORDER BY and OFFSET / LIMIT wrap
//! the outermost group the way every planner wraps its join tree.
//!
//! Scope notes (documented simplifications):
//! * FILTERs inside an OPTIONAL/UNION group apply to that group; FILTERs of
//!   the outer group apply after the outer group's joins (no cross-group
//!   pushdown).
//! * Join compatibility with UNBOUND follows strict equality (a row binding
//!   `?x` never joins a row where `?x` is UNBOUND), which is sufficient for
//!   the common "pad then project" UNION usage.

use std::collections::HashMap;

use hsp_core::HspPlanner;
use hsp_engine::{execute_in, ExecConfig, ExecContext, ExecError, PhysicalPlan};
use hsp_rdf::Term;
use hsp_sparql::algebra::{lower_expr_ast, lower_filter_ast, AlgebraError};
use hsp_sparql::ast::{Element, GroupPattern, NodeAst, Query};
use hsp_sparql::{
    parse_query, FilterExpr, JoinQuery, Modifiers, SortKey, TermOrVar, TriplePattern, Var,
};
use hsp_store::Dataset;

/// An extended-evaluation failure.
#[derive(Debug)]
pub enum ExtendedError {
    /// The query text failed to parse.
    Parse(hsp_sparql::ParseError),
    /// A projected variable is bound nowhere in the query.
    UnboundProjection(String),
    /// Lowering or planning failed.
    Eval(String),
    /// Executing the composed plan failed.
    Exec(ExecError),
}

impl std::fmt::Display for ExtendedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtendedError::Parse(e) => write!(f, "{e}"),
            ExtendedError::UnboundProjection(v) => {
                write!(f, "projected variable ?{v} is not bound anywhere")
            }
            ExtendedError::Eval(e) => write!(f, "{e}"),
            ExtendedError::Exec(e) => write!(f, "{e}"),
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
/// caller-owned [`ExecContext`] (normally `config.context()`): the query
/// composes into one plan and runs as one [`execute_in`], so the thread
/// budget, the row budget and the governor of `config` cover every
/// operator of it, and the context's runtime counters can be snapshotted
/// afterwards ([`RuntimeMetrics`](hsp_engine::RuntimeMetrics)`::of(ctx)`)
/// to see what the engine did (pipelines launched, outer probes streamed,
/// breakers handed off, …). An `ASK` query yields zero columns and one
/// empty row iff a solution exists. Serving code goes through
/// [`Session::query`](crate::session::Session::query).
pub fn evaluate_extended_in(
    ds: &Dataset,
    text: &str,
    config: &ExecConfig,
    ctx: &ExecContext,
) -> Result<ExtendedOutput, ExtendedError> {
    let ast = parse_query(text).map_err(ExtendedError::Parse)?;
    let (plan, query) = compose(&ast)?;
    let output = execute_in(&plan, ds, config, ctx).map_err(ExtendedError::Exec)?;
    let (columns, vars): (Vec<String>, Vec<Var>) = query.projection.iter().cloned().unzip();
    Ok(ExtendedOutput {
        columns,
        rows: output.into_id_rows(&vars).decode(ds.dict()),
    })
}

/// Lower a parsed query to one physical plan, plus the [`JoinQuery`] that
/// describes it the way a planner's rewritten query describes a join plan:
/// the output projection, the variable names, and every triple pattern in
/// the order the plan's scans number them (`[tpN]` in explain output).
/// Group-scoped FILTERs live in the plan only.
pub(crate) fn compose(query: &Query) -> Result<(PhysicalPlan, JoinQuery), ExtendedError> {
    // Aggregation (GROUP BY / HAVING / aggregate select items) lives in
    // the join-query fragment: the HSP plan carries the γ node and the
    // modifiers. OPTIONAL/UNION cannot be combined with aggregates (typed
    // error, not a silent drop).
    if !query.aggregates.is_empty() || !query.group_by.is_empty() || query.having.is_some() {
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
        return Ok((planned.plan, planned.query));
    }

    let mut composer = Composer::default();
    let body = composer.group(&query.where_clause)?;
    let bound = body.output_vars();
    let vars = &mut composer.vars;

    // ASK: no columns, and DISTINCT over no columns keeps one row iff a
    // solution exists. Otherwise the named variables, or for `SELECT *`
    // every variable of the pattern, in declaration order.
    let projection: Vec<(String, Var)> = match &query.projection {
        _ if query.ask => Vec::new(),
        Some(names) => names
            .iter()
            .map(|name| match vars.by_name.get(name) {
                Some(&v) => Ok((name.clone(), v)),
                None => Err(ExtendedError::UnboundProjection(name.clone())),
            })
            .collect::<Result<_, _>>()?,
        None => (vars.names.iter().cloned()).zip((0..).map(Var)).collect(),
    };
    let mut modifiers = Modifiers::default();
    if !query.ask {
        for (ast, descending) in &query.order_by {
            let expr = lower_expr_ast(ast, &mut |n| vars.var(n))
                .map_err(|e| ExtendedError::Eval(e.to_string()))?;
            modifiers.order_by.push(SortKey {
                expr,
                descending: *descending,
            });
        }
        modifiers.limit = query.limit;
        modifiers.offset = query.offset.unwrap_or(0);
    }
    let distinct = query.ask || query.distinct || query.reduced;
    // A projected variable only a FILTER mentions is bound by no operator:
    // the plan projects the rest, and the result's id form carries such a
    // column as unbound in every row.
    let plan = PhysicalPlan::Project {
        projection: (projection.iter())
            .filter(|(_, v)| bound.contains(v))
            .cloned()
            .collect(),
        input: Box::new(body),
        distinct,
    }
    .with_modifiers(&modifiers);
    let described = JoinQuery {
        patterns: composer.patterns,
        filters: Vec::new(),
        projection,
        distinct,
        var_names: composer.vars.names,
        modifiers,
        group_by: Vec::new(),
        aggregates: Vec::new(),
        having: None,
        substituted: vec![],
    };
    Ok((plan, described))
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
}

/// The state one query's composition threads through its groups.
#[derive(Default)]
struct Composer {
    vars: VarTable,
    /// Every triple pattern planned so far, block after block: a scan's
    /// `pattern_idx` is its pattern's position here.
    patterns: Vec<TriplePattern>,
}

impl Composer {
    /// Compose one group: HSP over its triple block, then its UNIONs
    /// (joined in), then its OPTIONALs (left-outer), then its FILTERs.
    fn group(&mut self, group: &GroupPattern) -> Result<PhysicalPlan, ExtendedError> {
        let mut patterns: Vec<TriplePattern> = Vec::new();
        let mut filters: Vec<FilterExpr> = Vec::new();
        let mut optionals: Vec<&GroupPattern> = Vec::new();
        let mut unions: Vec<(&GroupPattern, &GroupPattern)> = Vec::new();
        for element in &group.elements {
            match element {
                Element::Triple(t) => {
                    let s = self.node(&t.subject);
                    let p = self.node(&t.predicate);
                    let o = self.node(&t.object);
                    patterns.push(TriplePattern::new(s, p, o));
                }
                Element::Filter(expr) => filters.extend(
                    lower_filter_ast(expr, &mut |n| self.vars.var(n))
                        .map_err(|e| ExtendedError::Eval(e.to_string()))?,
                ),
                Element::Optional(g) => optionals.push(g),
                Element::Union(a, b) => unions.push((a, b)),
            }
        }

        let mut plan = if patterns.is_empty() {
            None
        } else {
            Some(self.block(patterns)?)
        };
        for (a, b) in unions {
            let union = PhysicalPlan::Union {
                left: Box::new(self.group(a)?),
                right: Box::new(self.group(b)?),
            };
            plan = Some(match plan {
                None => union,
                Some(core) => {
                    let vars = shared_vars(&core, &union);
                    let (left, right) = (Box::new(core), Box::new(union));
                    if vars.is_empty() {
                        PhysicalPlan::CrossProduct { left, right }
                    } else {
                        PhysicalPlan::HashJoin { left, right, vars }
                    }
                }
            });
        }
        let mut plan = plan.ok_or_else(|| {
            ExtendedError::Eval("group has neither triple patterns nor UNION branches".into())
        })?;
        for g in optionals {
            let right = self.group(g)?;
            plan = PhysicalPlan::LeftOuterHashJoin {
                vars: shared_vars(&plan, &right),
                left: Box::new(plan),
                right: Box::new(right),
            };
        }
        for expr in filters {
            plan = PhysicalPlan::Filter {
                input: Box::new(plan),
                expr,
            };
        }
        Ok(plan)
    }

    fn node(&mut self, node: &NodeAst) -> TermOrVar {
        match node {
            NodeAst::Var(n) => TermOrVar::Var(self.vars.var(n)),
            NodeAst::Const(t) => TermOrVar::Const(t.clone()),
        }
    }

    /// Plan one conjunctive triple block with HSP, projecting every block
    /// variable (sorted), its scans numbered after the blocks before it.
    fn block(&mut self, patterns: Vec<TriplePattern>) -> Result<PhysicalPlan, ExtendedError> {
        let block_vars: Vec<Var> = {
            let mut v: Vec<Var> = patterns.iter().flat_map(|p| p.vars()).collect();
            v.sort();
            v.dedup();
            v
        };
        let query = JoinQuery {
            patterns,
            filters: Vec::new(), // group filters go on top of the composed group
            projection: block_vars
                .iter()
                .map(|&v| (self.vars.names[v.index()].clone(), v))
                .collect(),
            distinct: false,
            var_names: self.vars.names.clone(),
            modifiers: Default::default(),
            group_by: vec![],
            aggregates: vec![],
            having: None,
            substituted: vec![],
        };
        let mut planned = HspPlanner::new()
            .plan(&query)
            .map_err(|e| ExtendedError::Eval(e.to_string()))?;
        planned.plan.shift_pattern_indices(self.patterns.len());
        self.patterns.append(&mut planned.query.patterns);
        Ok(planned.plan)
    }
}

/// The variables of `right` that `left` binds too, in `right`'s order.
fn shared_vars(left: &PhysicalPlan, right: &PhysicalPlan) -> Vec<Var> {
    let bound = left.output_vars();
    let mut vars = right.output_vars();
    vars.retain(|v| bound.contains(v));
    vars
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
