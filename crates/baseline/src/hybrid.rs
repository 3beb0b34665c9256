//! The hybrid planner — the paper's §7 future work ("hybrid optimization
//! strategies" combining heuristics with cost-based statistics).
//!
//! Structure comes from HSP: the merge variables and their blocks are chosen
//! by the variable graph + MWIS + H1–H5, exactly as in [`hsp_core`].
//! Ordering comes from cost: leaves within a block are ordered by exact leaf
//! cardinality (cheapest first) instead of H1 rank, and blocks are connected
//! greedily by estimated join cost instead of H1 rank — fixing precisely the
//! failure mode the paper reports for SP2a/SP2b ("HSP … chooses randomly
//! among all possible join orders").

use hsp_core::{assign_ordered_relation, HspPlanner, PlanError};
use hsp_engine::cost::{cost_crossproduct, cost_hashjoin};
use hsp_engine::plan::PhysicalPlan;
use hsp_sparql::{JoinQuery, Var};
use hsp_store::Dataset;

use crate::cardinality::{EstimatedRel, Estimator};
use crate::Planned;

/// The hybrid heuristic+cost planner.
#[derive(Debug, Clone, Default)]
pub struct HybridPlanner;

impl HybridPlanner {
    /// Create a hybrid planner.
    pub fn new() -> Self {
        HybridPlanner
    }

    /// Plan `query`: HSP structure, cost-based ordering.
    pub fn plan(&self, ds: &Dataset, query: &JoinQuery) -> Result<Planned, PlanError> {
        // Phase 1: HSP's structural decisions (merge variables + coverage).
        let hsp = HspPlanner::new().plan(query)?;
        let query = hsp.query;
        let est = Estimator::new(ds);

        // Phase 2: rebuild blocks with cost-ordered leaves.
        let mut covered: Vec<usize> = Vec::new();
        let mut components: Vec<(PhysicalPlan, EstimatedRel)> = Vec::new();
        for (v, indices) in &hsp.merge_vars {
            covered.extend_from_slice(indices);
            let mut ordered = indices.clone();
            ordered.sort_by(|&a, &b| {
                est.leaf(&query.patterns[a])
                    .card
                    .total_cmp(&est.leaf(&query.patterns[b]).card)
            });
            let mut iter = ordered.into_iter();
            let first = iter.next().expect("blocks are non-empty");
            let mut rel = est.leaf(&query.patterns[first]);
            let mut plan = scan_leaf(&query, first, Some(*v));
            for i in iter {
                let leaf_rel = est.leaf(&query.patterns[i]);
                rel = est.join(&rel, &leaf_rel, &[*v]);
                plan = PhysicalPlan::MergeJoin {
                    left: Box::new(plan),
                    right: Box::new(scan_leaf(&query, i, Some(*v))),
                    var: *v,
                };
            }
            components.push((plan, rel));
        }
        for i in 0..query.patterns.len() {
            if !covered.contains(&i) {
                let rel = est.leaf(&query.patterns[i]);
                components.push((scan_leaf(&query, i, None), rel));
            }
        }

        // Phase 3: connect components greedily by estimated join cost.
        let start = components
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.1.card.total_cmp(&b.1.card))
            .map(|(i, _)| i)
            .expect("at least one component");
        let (mut plan, mut rel) = components.swap_remove(start);
        while !components.is_empty() {
            let acc_vars = plan.output_vars();
            let mut best: Option<(usize, f64, Vec<Var>)> = None;
            for (i, (cplan, crel)) in components.iter().enumerate() {
                let shared: Vec<Var> = cplan
                    .output_vars()
                    .into_iter()
                    .filter(|v| acc_vars.contains(v))
                    .collect();
                let cost = if shared.is_empty() {
                    cost_crossproduct(rel.card, crel.card)
                } else {
                    cost_hashjoin(rel.card, crel.card)
                };
                let better = match &best {
                    None => true,
                    Some((_, bcost, bshared)) => {
                        (shared.is_empty(), cost) < (bshared.is_empty(), *bcost)
                    }
                };
                if better {
                    best = Some((i, cost, shared));
                }
            }
            let (i, _, shared) = best.expect("components non-empty");
            let (cplan, crel) = components.swap_remove(i);
            if shared.is_empty() {
                rel = est.cross(&rel, &crel);
                plan = PhysicalPlan::CrossProduct {
                    left: Box::new(plan),
                    right: Box::new(cplan),
                };
            } else {
                rel = est.join(&rel, &crel, &shared);
                plan = PhysicalPlan::HashJoin {
                    left: Box::new(plan),
                    right: Box::new(cplan),
                    vars: shared,
                };
            }
        }

        let plan = plan.with_top(&query);
        Ok(Planned {
            plan,
            query,
            note: None,
        })
    }
}

fn scan_leaf(query: &JoinQuery, idx: usize, v: Option<Var>) -> PhysicalPlan {
    let pattern = query.patterns[idx].clone();
    let order = assign_ordered_relation(&pattern, v);
    PhysicalPlan::Scan {
        pattern_idx: idx,
        pattern,
        order,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsp_engine::metrics::PlanMetrics;
    use hsp_engine::{execute, ExecConfig};

    fn dataset() -> Dataset {
        let mut doc = String::new();
        for i in 0..30 {
            doc.push_str(&format!(
                "<http://e/a{i}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Actor> .\n"
            ));
            doc.push_str(&format!(
                "<http://e/a{i}> <http://e/actedIn> <http://e/m{}> .\n",
                i % 6
            ));
            doc.push_str(&format!(
                "<http://e/a{i}> <http://e/livesIn> <http://e/c{}> .\n",
                i % 3
            ));
        }
        for m in 0..6 {
            doc.push_str(&format!(
                "<http://e/m{m}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Movie> .\n"
            ));
        }
        Dataset::from_ntriples(&doc).unwrap()
    }

    #[test]
    fn hybrid_keeps_hsp_join_counts() {
        let ds = dataset();
        let query = JoinQuery::parse(
            "SELECT ?a WHERE {
                ?a a <http://e/Actor> .
                ?a <http://e/actedIn> ?m .
                ?a <http://e/livesIn> ?c .
                ?m a <http://e/Movie> . }",
        )
        .unwrap();
        let hsp = HspPlanner::new().plan(&query).unwrap();
        let hybrid = HybridPlanner::new().plan(&ds, &query).unwrap();
        let hm = PlanMetrics::of(&hsp.plan);
        let ym = PlanMetrics::of(&hybrid.plan);
        assert_eq!(hm.merge_joins, ym.merge_joins);
        assert_eq!(hm.hash_joins, ym.hash_joins);
        assert!(hybrid.plan.validate().is_ok());
    }

    #[test]
    fn hybrid_and_hsp_agree_on_results() {
        let ds = dataset();
        let query = JoinQuery::parse(
            "SELECT ?a ?m WHERE {
                ?a a <http://e/Actor> .
                ?a <http://e/actedIn> ?m .
                ?m a <http://e/Movie> . }",
        )
        .unwrap();
        let hsp = HspPlanner::new().plan(&query).unwrap();
        let hybrid = HybridPlanner::new().plan(&ds, &query).unwrap();
        let a = execute(&hsp.plan, &ds, &ExecConfig::unlimited()).unwrap();
        let b = execute(&hybrid.plan, &ds, &ExecConfig::unlimited()).unwrap();
        let vars = a.table.vars().to_vec();
        assert_eq!(
            a.table.sorted_rows_for(&vars),
            b.table.sorted_rows_for(&vars)
        );
    }

    #[test]
    fn hybrid_orders_block_leaves_by_cardinality() {
        let ds = dataset();
        // The Movie type scan (6 rows) is the smallest leaf in the m-block.
        let query = JoinQuery::parse(
            "SELECT ?a WHERE {
                ?a <http://e/actedIn> ?m .
                ?m a <http://e/Movie> . }",
        )
        .unwrap();
        let hybrid = HybridPlanner::new().plan(&ds, &query).unwrap();
        assert!(hybrid.plan.validate().is_ok());
        let out = execute(&hybrid.plan, &ds, &ExecConfig::unlimited()).unwrap();
        assert_eq!(out.table.len(), 30);
    }
}
