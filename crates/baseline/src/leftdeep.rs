//! The MonetDB/SQL stand-in: a greedy, cost-based, **left-deep-only**
//! planner with no RDF-specific rewriting.
//!
//! Per the paper's §6.2.1 description of the SQL translation:
//!
//! * each triple pattern is evaluated on "the ordered relation that promotes
//!   the use of binary search for selections and returns the variable with
//!   the most number of appearances in the query sorted";
//! * join ordering is the optimizer's (cost-based) business, restricted to
//!   left-deep trees;
//! * FILTER variable equalities are **not** recognised as join edges, so a
//!   query like SP4a decays into a Cartesian product ("the MonetDB/SQL
//!   optimizer chooses to execute a Cartesian product and thus fails to
//!   terminate" — our executor's row budget turns that into a clean DNF).

use hsp_core::{assign_ordered_relation, PlanError};
use hsp_engine::cost::{cost_crossproduct, cost_hashjoin, cost_mergejoin};
use hsp_engine::plan::PhysicalPlan;
use hsp_sparql::rewrite::push_down_const_equalities;
use hsp_sparql::{JoinQuery, Var};
use hsp_store::Dataset;

use crate::cardinality::{EstimatedRel, Estimator};

/// A left-deep plan with its estimated cost.
#[derive(Debug, Clone)]
pub struct LeftDeepPlan {
    /// The physical plan (root is a `Project`).
    pub plan: PhysicalPlan,
    /// The query the plan refers to (after constant pushdown).
    pub query: JoinQuery,
    /// Estimated total join cost.
    pub estimated_cost: f64,
    /// `true` if the plan contains a Cartesian product.
    pub has_cross_product: bool,
}

/// The left-deep greedy planner.
#[derive(Debug, Clone, Default)]
pub struct LeftDeepPlanner;

impl LeftDeepPlanner {
    /// Create a planner.
    pub fn new() -> Self {
        LeftDeepPlanner
    }

    /// Plan `query` against `ds`'s statistics (left-deep only).
    pub fn plan(&self, ds: &Dataset, query: &JoinQuery) -> Result<LeftDeepPlan, PlanError> {
        let (query, _) = push_down_const_equalities(query);
        let n = query.patterns.len();
        if n == 0 {
            return Err(PlanError::EmptyQuery);
        }
        let est = Estimator::new(ds);

        // Access path per pattern: sort the query's globally most frequent
        // variable of the pattern (paper §6.2.1).
        let leaves: Vec<(PhysicalPlan, EstimatedRel)> = (0..n)
            .map(|i| {
                let pattern = &query.patterns[i];
                let sort_var = pattern
                    .vars()
                    .into_iter()
                    .max_by_key(|&v| (query.weight(v), std::cmp::Reverse(v.0)));
                let order = assign_ordered_relation(pattern, sort_var);
                let plan = PhysicalPlan::Scan {
                    pattern_idx: i,
                    pattern: pattern.clone(),
                    order,
                };
                let rel = est.leaf(pattern);
                (plan, rel)
            })
            .collect();

        // Greedy left-deep: start from the smallest leaf, then repeatedly
        // append the leaf with the cheapest join cost (connected leaves
        // before cross products).
        let mut remaining: Vec<usize> = (0..n).collect();
        let start = remaining
            .iter()
            .copied()
            .min_by(|&a, &b| leaves[a].1.card.total_cmp(&leaves[b].1.card))
            .expect("non-empty");
        remaining.retain(|&i| i != start);

        let (mut plan, mut rel) = leaves[start].clone();
        let mut acc_vars: Vec<Var> = plan.output_vars();
        let mut total_cost = 0.0;
        let mut has_cross = false;

        while !remaining.is_empty() {
            // Score each remaining leaf.
            let mut best: Option<(usize, f64, bool, Vec<Var>)> = None;
            for &i in &remaining {
                let (leaf_plan, leaf_rel) = &leaves[i];
                let shared: Vec<Var> = leaf_plan
                    .output_vars()
                    .into_iter()
                    .filter(|v| acc_vars.contains(v))
                    .collect();
                let (cost, is_cross) = if shared.is_empty() {
                    (cost_crossproduct(rel.card, leaf_rel.card), true)
                } else {
                    // Merge join if the accumulated plan and the leaf are
                    // both sorted on a shared variable.
                    let mergeable = plan
                        .sorted_by()
                        .filter(|v| shared.contains(v))
                        .is_some_and(|v| leaf_plan.sorted_by() == Some(v));
                    if mergeable {
                        (cost_mergejoin(rel.card, leaf_rel.card), false)
                    } else {
                        (cost_hashjoin(rel.card, leaf_rel.card), false)
                    }
                };
                // Prefer non-cross joins; among equals, lowest cost.
                let better = match &best {
                    None => true,
                    Some((_, bcost, bcross, _)) => (is_cross, cost) < (*bcross, *bcost),
                };
                if better {
                    best = Some((i, cost, is_cross, shared));
                }
            }
            let (i, cost, is_cross, shared) = best.expect("remaining non-empty");
            remaining.retain(|&x| x != i);
            let (leaf_plan, leaf_rel) = &leaves[i];
            total_cost += cost;
            if is_cross {
                has_cross = true;
                rel = est.cross(&rel, leaf_rel);
                plan = PhysicalPlan::CrossProduct {
                    left: Box::new(plan),
                    right: Box::new(leaf_plan.clone()),
                };
            } else {
                let mergeable = plan
                    .sorted_by()
                    .filter(|v| shared.contains(v))
                    .is_some_and(|v| leaf_plan.sorted_by() == Some(v));
                rel = est.join(&rel, leaf_rel, &shared);
                plan = if mergeable {
                    let v = plan.sorted_by().expect("checked above");
                    PhysicalPlan::MergeJoin {
                        left: Box::new(plan),
                        right: Box::new(leaf_plan.clone()),
                        var: v,
                    }
                } else {
                    PhysicalPlan::HashJoin {
                        left: Box::new(plan),
                        right: Box::new(leaf_plan.clone()),
                        vars: shared,
                    }
                };
            }
            acc_vars = plan.output_vars();
        }

        let plan = plan.with_top(&query);
        Ok(LeftDeepPlan {
            plan,
            query,
            estimated_cost: total_cost,
            has_cross_product: has_cross,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsp_engine::metrics::{PlanMetrics, PlanShape};
    use hsp_engine::{execute, ExecConfig, ExecError};

    fn dataset() -> Dataset {
        let mut doc = String::new();
        for i in 0..40 {
            doc.push_str(&format!(
                "<http://e/a{i}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Article> .\n"
            ));
            doc.push_str(&format!(
                "<http://e/a{i}> <http://e/creator> <http://e/person{}> .\n",
                i % 8
            ));
        }
        for p in 0..8 {
            doc.push_str(&format!(
                "<http://e/person{p}> <http://e/homepage> <http://hp/{p}> .\n"
            ));
        }
        Dataset::from_ntriples(&doc).unwrap()
    }

    fn q(text: &str) -> JoinQuery {
        JoinQuery::parse(text).unwrap()
    }

    #[test]
    fn plans_are_left_deep() {
        let ds = dataset();
        let query = q("SELECT ?x WHERE {
            ?x a <http://e/Article> .
            ?x <http://e/creator> ?c .
            ?c <http://e/homepage> ?h . }");
        let plan = LeftDeepPlanner::new().plan(&ds, &query).unwrap();
        assert!(plan.plan.validate().is_ok());
        assert_eq!(PlanMetrics::of(&plan.plan).shape, PlanShape::LeftDeep);
        assert!(!plan.has_cross_product);
    }

    #[test]
    fn left_deep_results_match_execution() {
        let ds = dataset();
        let query = q("SELECT ?x ?h WHERE {
            ?x <http://e/creator> ?c .
            ?c <http://e/homepage> ?h . }");
        let plan = LeftDeepPlanner::new().plan(&ds, &query).unwrap();
        let out = execute(&plan.plan, &ds, &ExecConfig::unlimited()).unwrap();
        assert_eq!(out.table.len(), 40);
    }

    #[test]
    fn filter_equality_becomes_cross_product() {
        // SP4a shape: no shared vars without unification.
        let ds = dataset();
        let query = q("SELECT ?x ?y WHERE {
            ?x <http://e/homepage> ?h1 .
            ?y <http://e/homepage> ?h2 .
            FILTER (?h1 = ?h2) }");
        let plan = LeftDeepPlanner::new().plan(&ds, &query).unwrap();
        assert!(plan.has_cross_product);
        let m = PlanMetrics::of(&plan.plan);
        assert_eq!(m.cross_products, 1);
        // Execution under a memory budget that holds the inputs (2 × 64
        // bytes) but not their product (64 rows of 4 ids, 1,024 bytes)
        // fails before the product materialises (the paper's "XXX").
        let config = ExecConfig::unlimited().with_mem_budget(512);
        let err = execute(&plan.plan, &ds, &config).unwrap_err();
        assert!(matches!(
            err,
            ExecError::MemoryBudgetExceeded {
                site: "crossproduct",
                ..
            }
        ));
    }

    #[test]
    fn const_filter_pushed_down() {
        let ds = dataset();
        let query = q(r#"SELECT ?x WHERE {
            ?x <http://e/creator> ?c . FILTER (?c = <http://e/person3>) }"#);
        let plan = LeftDeepPlanner::new().plan(&ds, &query).unwrap();
        let out = execute(&plan.plan, &ds, &ExecConfig::unlimited()).unwrap();
        assert_eq!(out.table.len(), 5); // 40 articles / 8 persons
    }

    #[test]
    fn starts_from_most_selective_leaf() {
        let ds = dataset();
        // homepage (8 rows) is smaller than type (40) and creator (40).
        let query = q("SELECT ?x WHERE {
            ?x a <http://e/Article> .
            ?x <http://e/creator> ?c .
            ?c <http://e/homepage> ?h . }");
        let plan = LeftDeepPlanner::new().plan(&ds, &query).unwrap();
        let first_leaf = plan.plan.scanned_patterns()[0];
        assert_eq!(first_leaf, 2);
    }

    #[test]
    fn empty_query_rejected() {
        let ds = dataset();
        let query = JoinQuery {
            patterns: vec![],
            filters: vec![],
            projection: vec![],
            distinct: false,
            var_names: vec![],
            modifiers: Default::default(),
            group_by: vec![],
            aggregates: vec![],
            having: None,
            substituted: vec![],
        };
        assert_eq!(
            LeftDeepPlanner::new().plan(&ds, &query).unwrap_err(),
            PlanError::EmptyQuery
        );
    }
}
