//! HSP's FILTER rewriting (paper Section 6.2.1).
//!
//! "Unlike CDP, HSP systematically rewrites filtering queries into an
//! equivalent form involving only triple patterns."
//!
//! Two rewrites apply, repeated to fixpoint:
//!
//! 1. **Constant substitution** — `FILTER (?v = const)` replaces every
//!    occurrence of `?v` in the patterns and filters with `const` (SP3a/b/c
//!    become their two-pattern `_2` forms). `?v` keeps its place in the
//!    projection, GROUP BY, aggregates, HAVING and ORDER BY, and
//!    [`JoinQuery::substituted`] records `(?v, const)`: the plan top every
//!    planner shares binds `?v` to that constant wherever the query still
//!    reads it, so the rewritten query answers what the original did.
//! 2. **Variable unification** — `FILTER (?u = ?v)` merges `?v` into `?u`
//!    everywhere the query reads it (SP4a's two disconnected stars
//!    become one connected query, removing the cross product CDP and the SQL
//!    baseline otherwise face).
//!
//! Only top-level [`FilterExpr::Eq`] conjuncts are rewritten (lowering
//! has already split `&&`); disjunctions, negations and every other
//! comparison stay residual [`FilterExpr::Complex`] filters.
//!
//! **Equality is term equality.** A rewritten `?v = const` keeps exactly
//! the rows whose `?v` is that term, and a rewritten `?u = ?v` joins on
//! identical terms, so `"1"^^xsd:integer = "01"^^xsd:integer` is false
//! here where SPARQL's typed `=` makes it true. This is the one deliberate
//! departure from SPARQL, and every planner shares it: the baselines push
//! the same `?v = const` conjuncts into their scans and run the rest as
//! residual [`FilterExpr::Eq`] filters with the same term semantics. Every
//! other comparison — including `=` under `||` or `!` — runs SPARQL's
//! typed operator mapping.

use hsp_rdf::Term;

use crate::algebra::{FilterExpr, JoinQuery, Operand, TermOrVar, Var};

/// A record of what the rewrite did, for plan explanation and tests (the
/// substitutions are the rewritten query's [`JoinQuery::substituted`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RewriteReport {
    /// `(kept variable, removed variable)` unifications applied.
    pub unifications: Vec<(String, String)>,
    /// Number of residual filters that could not be rewritten.
    pub residual_filters: usize,
}

/// Apply HSP's equality-filter rewriting, returning the rewritten query and
/// a report of the applied rewrites.
pub fn rewrite_filters(query: &JoinQuery) -> (JoinQuery, RewriteReport) {
    let mut q = query.clone();
    let mut report = RewriteReport::default();
    while let Some(idx) = q.filters.iter().position(is_rewritable_eq) {
        let FilterExpr::Eq(lhs, rhs) = q.filters.remove(idx) else {
            unreachable!("position() matched an equality")
        };
        match (lhs, rhs) {
            (Operand::Var(v), Operand::Const(c)) | (Operand::Const(c), Operand::Var(v)) => {
                substitute_const(&mut q, v, &c)
            }
            (Operand::Var(a), Operand::Var(b)) => {
                if a != b {
                    // Keep the lower-numbered (earlier-declared) variable.
                    let (keep, drop) = if a.0 <= b.0 { (a, b) } else { (b, a) };
                    report
                        .unifications
                        .push((q.var_name(keep).to_string(), q.var_name(drop).to_string()));
                    unify_vars(&mut q, keep, drop);
                }
            }
            (Operand::Const(_), Operand::Const(_)) => {
                unreachable!("is_rewritable_eq requires a variable")
            }
        }
    }
    report.residual_filters = q.filters.len();
    (q, report)
}

/// Push down only `?v = const` equalities into pattern constants, never
/// unifying variables.
///
/// This is the *selection pushdown* any cost-based optimizer (RDF-3X, a SQL
/// engine) performs; what distinguishes HSP (paper §6.2.1) is the
/// variable-variable unification that [`rewrite_filters`] additionally
/// applies — without it, SP4a-style queries stay disconnected and force the
/// baselines into a cross product.
pub fn push_down_const_equalities(query: &JoinQuery) -> (JoinQuery, usize) {
    let mut q = query.clone();
    let mut applied = 0;
    while let Some(idx) = q.filters.iter().position(|f| var_const_eq(f).is_some()) {
        let filter = q.filters.remove(idx);
        let (v, c) = var_const_eq(&filter).expect("position() matched");
        substitute_const(&mut q, v, c);
        applied += 1;
    }
    (q, applied)
}

/// `true` for an equality conjunct involving at least one variable.
fn is_rewritable_eq(f: &FilterExpr) -> bool {
    matches!(f, FilterExpr::Eq(lhs, rhs) if lhs.as_var().is_some() || rhs.as_var().is_some())
}

/// The `(variable, constant)` of a `?v = const` (or `const = ?v`) conjunct.
fn var_const_eq(f: &FilterExpr) -> Option<(Var, &Term)> {
    match f {
        FilterExpr::Eq(Operand::Var(v), Operand::Const(c))
        | FilterExpr::Eq(Operand::Const(c), Operand::Var(v)) => Some((*v, c)),
        _ => None,
    }
}

/// Replace variable `v` with constant `c` in every pattern slot and
/// filter, and record the substitution.
fn substitute_const(q: &mut JoinQuery, v: Var, c: &Term) {
    for pattern in &mut q.patterns {
        for slot in &mut pattern.slots {
            if slot.as_var() == Some(v) {
                *slot = TermOrVar::Const(c.clone());
            }
        }
    }
    for filter in &mut q.filters {
        substitute_in_expr(filter, v, c);
    }
    q.substituted.push((v, c.clone()));
}

fn substitute_in_expr(f: &mut FilterExpr, v: Var, c: &Term) {
    match f {
        FilterExpr::Eq(lhs, rhs) => {
            for op in [lhs, rhs] {
                if op.as_var() == Some(v) {
                    *op = Operand::Const(c.clone());
                }
            }
        }
        FilterExpr::Complex(e) => e.substitute_const(v, c),
    }
}

/// Replace variable `drop` with `keep` everywhere (patterns, filters,
/// projection, GROUP BY, aggregates, HAVING, ORDER BY).
fn unify_vars(q: &mut JoinQuery, keep: Var, drop: Var) {
    for pattern in &mut q.patterns {
        for slot in &mut pattern.slots {
            if slot.as_var() == Some(drop) {
                *slot = TermOrVar::Var(keep);
            }
        }
    }
    for filter in &mut q.filters {
        unify_in_expr(filter, keep, drop);
    }
    for (_, v) in &mut q.projection {
        if *v == drop {
            *v = keep;
        }
    }
    // GROUP BY ?u ?v groups by ?u once.
    let grouped = q.group_by.contains(&keep);
    q.group_by.retain(|&v| v != drop || !grouped);
    for v in q
        .group_by
        .iter_mut()
        .chain(q.aggregates.iter_mut().filter_map(|a| a.arg.as_mut()))
    {
        if *v == drop {
            *v = keep;
        }
    }
    if let Some(h) = &mut q.having {
        h.rename_var(drop, keep);
    }
    for k in &mut q.modifiers.order_by {
        k.expr.rename_var(drop, keep);
    }
}

fn unify_in_expr(f: &mut FilterExpr, keep: Var, drop: Var) {
    match f {
        FilterExpr::Eq(lhs, rhs) => {
            for op in [lhs, rhs] {
                if op.as_var() == Some(drop) {
                    *op = Operand::Var(keep);
                }
            }
        }
        FilterExpr::Complex(e) => e.rename_var(drop, keep),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::JoinQuery;

    #[test]
    fn const_equality_substitutes_into_patterns() {
        // The paper's Section 3 example: FILTER (?rev="1942").
        let q = JoinQuery::parse(
            r#"SELECT ?yr WHERE {
                ?jrnl <http://e/issued> ?yr .
                ?jrnl <http://e/revised> ?rev .
                FILTER (?rev = "1942") }"#,
        )
        .unwrap();
        let (rw, _) = rewrite_filters(&q);
        assert!(rw.filters.is_empty());
        assert_eq!(rw.substituted.len(), 1);
        assert_eq!(rw.var_name(rw.substituted[0].0), "rev");
        // ?rev became the constant "1942" in the second pattern.
        assert_eq!(rw.patterns[1].num_consts(), 2);
    }

    #[test]
    fn a_substituted_variable_stays_where_the_query_reads_it() {
        let q = JoinQuery::parse(
            r#"SELECT ?s ?x WHERE { ?s <http://e/p> ?x . FILTER (?x = "9") } ORDER BY ?x"#,
        )
        .unwrap();
        let (rw, _) = rewrite_filters(&q);
        let x = q.projection[1].1;
        assert_eq!(rw.projection, q.projection);
        assert_eq!(rw.substituted, vec![(x, Term::literal("9"))]);
        assert!(!rw.patterns[0].contains_var(x));
        assert!(rw.mentions(x));
    }

    #[test]
    fn unification_renames_grouping_aggregates_and_order_keys() {
        let q = JoinQuery::parse(
            "SELECT ?y (COUNT(?y) AS ?n) WHERE { ?a <http://e/p> ?x . ?b <http://e/p> ?y .
             FILTER (?x = ?y) } GROUP BY ?x ?y ORDER BY ?y",
        )
        .unwrap();
        let (rw, _) = rewrite_filters(&q);
        let x = q.patterns[0].slots[2].as_var().unwrap();
        assert_eq!(rw.group_by, vec![x]);
        assert_eq!(rw.aggregates[0].arg, Some(x));
        assert_eq!(rw.modifiers.order_by[0].expr.vars(), vec![x]);
        assert_eq!(rw.projection[0].1, x);
    }

    #[test]
    fn var_equality_unifies() {
        // SP4a-style: two stars connected only through a FILTER equality.
        let q = JoinQuery::parse(
            "SELECT ?a ?b WHERE { ?a <http://e/hp> ?h1 . ?b <http://e/hp> ?h2 . FILTER (?h1 = ?h2) }",
        )
        .unwrap();
        let (rw, report) = rewrite_filters(&q);
        assert!(rw.filters.is_empty());
        assert_eq!(report.unifications.len(), 1);
        // Both patterns now share one object variable.
        let v1 = rw.patterns[0].slots[2].as_var().unwrap();
        let v2 = rw.patterns[1].slots[2].as_var().unwrap();
        assert_eq!(v1, v2);
        assert_eq!(rw.shared_vars().len(), 1);
    }

    #[test]
    fn conjunctions_are_flattened_and_both_sides_applied() {
        let q = JoinQuery::parse(
            r#"SELECT ?x WHERE { ?x <http://e/p> ?y . ?x <http://e/q> ?z .
               FILTER (?y = "1" && ?z = "2") }"#,
        )
        .unwrap();
        let (rw, _) = rewrite_filters(&q);
        assert!(rw.filters.is_empty());
        assert_eq!(rw.substituted.len(), 2);
        assert_eq!(rw.patterns[0].num_consts(), 2);
        assert_eq!(rw.patterns[1].num_consts(), 2);
    }

    #[test]
    fn non_equality_filters_remain() {
        let q =
            JoinQuery::parse("SELECT ?x WHERE { ?x <http://e/p> ?y . FILTER (?y > 3) }").unwrap();
        let (rw, report) = rewrite_filters(&q);
        assert_eq!(rw.filters.len(), 1);
        assert_eq!(report.residual_filters, 1);
        assert!(rw.substituted.is_empty());
    }

    #[test]
    fn disjunctions_remain() {
        let q = JoinQuery::parse(
            r#"SELECT ?x WHERE { ?x <http://e/p> ?y . FILTER (?y = "1" || ?y = "2") }"#,
        )
        .unwrap();
        let (rw, _) = rewrite_filters(&q);
        assert_eq!(rw.filters.len(), 1);
    }

    #[test]
    fn chained_unification_reaches_fixpoint() {
        let q = JoinQuery::parse(
            "SELECT ?a WHERE { ?a <http://e/p> ?x . ?b <http://e/p> ?y . ?c <http://e/p> ?z .
             FILTER (?x = ?y) FILTER (?y = ?z) }",
        )
        .unwrap();
        let (rw, report) = rewrite_filters(&q);
        assert!(rw.filters.is_empty());
        assert_eq!(report.unifications.len(), 2);
        let obj_vars: Vec<_> = rw
            .patterns
            .iter()
            .map(|p| p.slots[2].as_var().unwrap())
            .collect();
        assert!(obj_vars.iter().all(|v| *v == obj_vars[0]));
    }

    #[test]
    fn substitution_then_unification_mix() {
        let q = JoinQuery::parse(
            r#"SELECT ?a WHERE { ?a <http://e/p> ?x . ?b <http://e/q> ?y .
               FILTER (?x = ?y) FILTER (?y = "k") }"#,
        )
        .unwrap();
        let (rw, _) = rewrite_filters(&q);
        assert!(rw.filters.is_empty());
        // Everything collapsed to the constant "k".
        assert!(rw.patterns.iter().all(|p| p.num_consts() == 2));
    }

    #[test]
    fn rewriting_is_a_noop_without_filters() {
        let q = JoinQuery::parse("SELECT ?x WHERE { ?x <http://e/p> ?y . }").unwrap();
        let (rw, report) = rewrite_filters(&q);
        assert_eq!(rw, q);
        assert_eq!(report, RewriteReport::default());
    }
}
