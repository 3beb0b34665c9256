//! A reconstruction of Stocker et al.'s selectivity-estimation BGP
//! optimizer (WWW 2008) — the paper's reference \[32\].
//!
//! Where HSP ranks triple patterns *syntactically* (H1/H3/H4) and CDP reads
//! **exact** counts off the aggregated indexes, Stocker's framework sits in
//! between: it precomputes *summary statistics* — predicate frequencies,
//! distinct-subject counts, and per-predicate object histograms — and ranks
//! patterns by an estimated selectivity that multiplies per-position
//! selectivities under an independence assumption:
//!
//! ```text
//! sel(t) = sel(subject) · sel(predicate) · sel(object | predicate)
//! sel(s) = 1 / |distinct subjects|          (bound subject)
//! sel(p) = count(p) / N                     (bound predicate)
//! sel(o) = hist_p[bucket(o)] / count(p)     (bound object, histogram)
//! ```
//!
//! Join ordering is greedy smallest-selectivity-first over connected
//! patterns, producing left-deep trees. This gives the repository a third
//! optimization regime for ablation: syntax-only (HSP), summary statistics
//! (Stocker), and exact statistics with full enumeration (CDP).
//!
//! Faithfulness notes: the original ranks with histograms over object
//! *values*; our histogram buckets dictionary ids, which preserves the
//! estimate's granularity (count of one bucket ÷ predicate count) without
//! assuming an ordered value domain. Like the SQL baseline, no FILTER
//! variable unification is applied — only constant pushdown — so SP4a-class
//! queries keep their cross product.

use std::collections::HashMap;

use hsp_core::{assign_ordered_relation, PlanError};
use hsp_engine::plan::PhysicalPlan;
use hsp_rdf::{TermId, TriplePos};
use hsp_sparql::rewrite::push_down_const_equalities;
use hsp_sparql::{JoinQuery, TermOrVar, TriplePattern, Var};
use hsp_store::{Dataset, Order, StorageBackend};

/// Number of buckets of each per-predicate object histogram.
const HISTOGRAM_BUCKETS: usize = 64;

/// Precomputed summary statistics (Stocker et al.'s "probabilistic
/// framework"). One pass over the data; size is `O(#predicates ·
/// HISTOGRAM_BUCKETS)`, independent of the number of triples.
#[derive(Debug, Clone)]
pub struct StockerStats {
    /// Total number of triples `N`.
    pub total: usize,
    /// Distinct subjects in the dataset.
    pub distinct_subjects: usize,
    /// Distinct objects in the dataset.
    pub distinct_objects: usize,
    /// Triple count per predicate id.
    predicate_counts: HashMap<TermId, usize>,
    /// Object histogram per predicate id.
    object_histograms: HashMap<TermId, Vec<usize>>,
    /// Global object histogram (for patterns with unbound predicate).
    global_object_histogram: Vec<usize>,
}

fn bucket(id: TermId) -> usize {
    // Fibonacci hashing spreads dense dictionary ids across buckets.
    (id.0 as usize).wrapping_mul(0x9E37_79B9) % HISTOGRAM_BUCKETS
}

impl StockerStats {
    /// Gather the statistics in one scan of the `spo` relation.
    pub fn build(ds: &Dataset) -> StockerStats {
        let rows = ds.store().scan(Order::Spo, &[]);
        let mut predicate_counts: HashMap<TermId, usize> = HashMap::new();
        let mut object_histograms: HashMap<TermId, Vec<usize>> = HashMap::new();
        let mut global_object_histogram = vec![0usize; HISTOGRAM_BUCKETS];
        for &[_, p, o] in rows.as_slice() {
            *predicate_counts.entry(p).or_insert(0) += 1;
            object_histograms
                .entry(p)
                .or_insert_with(|| vec![0; HISTOGRAM_BUCKETS])[bucket(o)] += 1;
            global_object_histogram[bucket(o)] += 1;
        }
        StockerStats {
            total: rows.len(),
            distinct_subjects: ds.store().distinct_at(TriplePos::S),
            distinct_objects: ds.store().distinct_at(TriplePos::O),
            predicate_counts,
            object_histograms,
            global_object_histogram,
        }
    }

    /// Estimated selectivity of one triple pattern in `[0, 1]`.
    pub fn selectivity(&self, ds: &Dataset, pattern: &TriplePattern) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let n = self.total as f64;
        // `None` = unknown constant (matches nothing); `Some(None)` = variable.
        type Resolved = Option<Option<TermId>>;
        let resolve = |pos: TriplePos| -> Resolved {
            match pattern.slot(pos) {
                TermOrVar::Var(_) => Some(None),
                // A constant the dictionary has never seen matches nothing.
                TermOrVar::Const(t) => ds.dict().id(t).map(Some),
            }
        };
        let (Some(s), Some(p), Some(o)) = (
            resolve(TriplePos::S),
            resolve(TriplePos::P),
            resolve(TriplePos::O),
        ) else {
            return 0.0;
        };

        let sel_s = match s {
            Some(_) => 1.0 / (self.distinct_subjects.max(1) as f64),
            None => 1.0,
        };
        let (sel_p, pred_count) = match p {
            Some(id) => {
                let c = self.predicate_counts.get(&id).copied().unwrap_or(0);
                (c as f64 / n, Some((id, c)))
            }
            None => (1.0, None),
        };
        let sel_o = match o {
            Some(id) => match pred_count {
                Some((pid, c)) => {
                    if c == 0 {
                        0.0
                    } else {
                        let hist = &self.object_histograms[&pid];
                        hist[bucket(id)] as f64 / c as f64
                    }
                }
                None => self.global_object_histogram[bucket(id)] as f64 / n,
            },
            None => 1.0,
        };
        (sel_s * sel_p * sel_o).clamp(0.0, 1.0)
    }

    /// Estimated result cardinality of one pattern.
    pub fn estimated_card(&self, ds: &Dataset, pattern: &TriplePattern) -> f64 {
        self.total as f64 * self.selectivity(ds, pattern)
    }
}

/// A Stocker plan.
#[derive(Debug, Clone)]
pub struct StockerPlan {
    /// The physical plan (root is a `Project`).
    pub plan: PhysicalPlan,
    /// The query the plan refers to (after constant pushdown).
    pub query: JoinQuery,
    /// The per-pattern selectivity estimates that drove the ordering,
    /// indexed like `query.patterns`.
    pub selectivities: Vec<f64>,
    /// `true` if the plan contains a Cartesian product.
    pub has_cross_product: bool,
}

/// The selectivity-estimation planner.
#[derive(Debug, Clone, Default)]
pub struct StockerPlanner;

impl StockerPlanner {
    /// Create a planner.
    pub fn new() -> Self {
        StockerPlanner
    }

    /// Plan `query` against summary statistics gathered from `ds`.
    pub fn plan(&self, ds: &Dataset, query: &JoinQuery) -> Result<StockerPlan, PlanError> {
        let stats = StockerStats::build(ds);
        self.plan_with_stats(ds, query, &stats)
    }

    /// Plan with pre-built statistics (amortises the stats pass across
    /// queries, as the original system does).
    pub fn plan_with_stats(
        &self,
        ds: &Dataset,
        query: &JoinQuery,
        stats: &StockerStats,
    ) -> Result<StockerPlan, PlanError> {
        let (query, _) = push_down_const_equalities(query);
        let n = query.patterns.len();
        if n == 0 {
            return Err(PlanError::EmptyQuery);
        }

        let selectivities: Vec<f64> = query
            .patterns
            .iter()
            .map(|p| stats.selectivity(ds, p))
            .collect();

        // Access paths exactly as the SQL baseline: sort the pattern's
        // globally most frequent variable.
        let leaves: Vec<PhysicalPlan> = (0..n)
            .map(|i| {
                let pattern = &query.patterns[i];
                let sort_var = pattern
                    .vars()
                    .into_iter()
                    .max_by_key(|&v| (query.weight(v), std::cmp::Reverse(v.0)));
                let order = assign_ordered_relation(pattern, sort_var);
                PhysicalPlan::Scan {
                    pattern_idx: i,
                    pattern: pattern.clone(),
                    order,
                }
            })
            .collect();

        // Greedy: start from the most selective pattern; repeatedly append
        // the most selective pattern *connected* to the accumulated plan
        // (falling back to a cross product only when none is).
        let mut remaining: Vec<usize> = (0..n).collect();
        let start = remaining
            .iter()
            .copied()
            .min_by(|&a, &b| selectivities[a].total_cmp(&selectivities[b]))
            .expect("non-empty");
        remaining.retain(|&i| i != start);

        let mut plan = leaves[start].clone();
        let mut acc_vars: Vec<Var> = plan.output_vars();
        let mut has_cross = false;

        while !remaining.is_empty() {
            let pick = remaining
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    let conn_a = leaves[a].output_vars().iter().any(|v| acc_vars.contains(v));
                    let conn_b = leaves[b].output_vars().iter().any(|v| acc_vars.contains(v));
                    // Connected first, then by selectivity.
                    conn_b
                        .cmp(&conn_a)
                        .then(selectivities[a].total_cmp(&selectivities[b]))
                })
                .expect("remaining non-empty");
            remaining.retain(|&x| x != pick);
            let leaf = &leaves[pick];
            let shared: Vec<Var> = leaf
                .output_vars()
                .into_iter()
                .filter(|v| acc_vars.contains(v))
                .collect();
            plan = if shared.is_empty() {
                has_cross = true;
                PhysicalPlan::CrossProduct {
                    left: Box::new(plan),
                    right: Box::new(leaf.clone()),
                }
            } else {
                let mergeable = plan
                    .sorted_by()
                    .filter(|v| shared.contains(v))
                    .is_some_and(|v| leaf.sorted_by() == Some(v));
                if mergeable {
                    let v = plan.sorted_by().expect("checked above");
                    PhysicalPlan::MergeJoin {
                        left: Box::new(plan),
                        right: Box::new(leaf.clone()),
                        var: v,
                    }
                } else {
                    PhysicalPlan::HashJoin {
                        left: Box::new(plan),
                        right: Box::new(leaf.clone()),
                        vars: shared,
                    }
                }
            };
            acc_vars = plan.output_vars();
        }

        let plan = plan.with_top(&query);
        Ok(StockerPlan {
            plan,
            query,
            selectivities,
            has_cross_product: has_cross,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsp_engine::metrics::PlanMetrics;
    use hsp_engine::{execute, ExecConfig};

    fn dataset() -> Dataset {
        let mut doc = String::new();
        // 40 articles, 2 journals; every entity has a title; one special.
        for i in 0..40 {
            doc.push_str(&format!(
                "<http://e/a{i}> <http://e/type> <http://e/Article> .\n\
                 <http://e/a{i}> <http://e/title> \"Article {i}\" .\n"
            ));
        }
        for i in 0..2 {
            doc.push_str(&format!(
                "<http://e/j{i}> <http://e/type> <http://e/Journal> .\n\
                 <http://e/j{i}> <http://e/title> \"Journal {i}\" .\n"
            ));
        }
        doc.push_str("<http://e/j0> <http://e/issued> \"1940\" .\n");
        Dataset::from_ntriples(&doc).unwrap()
    }

    fn q(text: &str) -> JoinQuery {
        JoinQuery::parse(text).unwrap()
    }

    #[test]
    fn stats_are_summary_sized() {
        let ds = dataset();
        let stats = StockerStats::build(&ds);
        assert_eq!(stats.total, ds.len());
        assert_eq!(stats.predicate_counts.len(), 3); // type, title, issued
        assert!(stats.distinct_subjects >= 42);
    }

    #[test]
    fn selectivity_ranks_rare_predicates_higher() {
        let ds = dataset();
        let stats = StockerStats::build(&ds);
        let issued = q("SELECT ?x WHERE { ?x <http://e/issued> ?y . }");
        let title = q("SELECT ?x WHERE { ?x <http://e/title> ?y . }");
        let s_issued = stats.selectivity(&ds, &issued.patterns[0]);
        let s_title = stats.selectivity(&ds, &title.patterns[0]);
        assert!(s_issued < s_title, "issued {s_issued} vs title {s_title}");
    }

    #[test]
    fn bound_object_is_more_selective_than_unbound() {
        let ds = dataset();
        let stats = StockerStats::build(&ds);
        let open = q("SELECT ?x WHERE { ?x <http://e/type> ?c . }");
        let closed = q("SELECT ?x WHERE { ?x <http://e/type> <http://e/Journal> . }");
        assert!(
            stats.selectivity(&ds, &closed.patterns[0]) < stats.selectivity(&ds, &open.patterns[0])
        );
    }

    #[test]
    fn unknown_constant_has_zero_selectivity() {
        let ds = dataset();
        let stats = StockerStats::build(&ds);
        let ghost = q("SELECT ?x WHERE { ?x <http://e/nosuch> ?y . }");
        assert_eq!(stats.selectivity(&ds, &ghost.patterns[0]), 0.0);
    }

    #[test]
    fn plans_are_valid_and_start_selective() {
        let ds = dataset();
        let query = q("SELECT ?x WHERE { ?x <http://e/type> <http://e/Journal> . \
             ?x <http://e/title> ?t . ?x <http://e/issued> ?yr . }");
        let plan = StockerPlanner::new().plan(&ds, &query).unwrap();
        assert!(plan.plan.validate().is_ok());
        // The leftmost (first-scanned) pattern is the most selective one.
        let first = plan.plan.scanned_patterns()[0];
        let min = plan
            .selectivities
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(first, min);
    }

    #[test]
    fn results_match_reference_evaluation() {
        let ds = dataset();
        let query = q("SELECT ?t WHERE { ?x <http://e/type> <http://e/Journal> . \
             ?x <http://e/title> ?t . }");
        let plan = StockerPlanner::new().plan(&ds, &query).unwrap();
        let out = execute(&plan.plan, &ds, &ExecConfig::unlimited()).unwrap();
        assert_eq!(out.table.len(), 2);
    }

    #[test]
    fn left_deep_and_cross_only_when_disconnected() {
        let ds = dataset();
        // Two disconnected stars without FILTER: cross product expected.
        let query = q(
            "SELECT ?a ?b WHERE { ?a <http://e/type> <http://e/Journal> . \
             ?b <http://e/issued> \"1940\" . }",
        );
        let plan = StockerPlanner::new().plan(&ds, &query).unwrap();
        assert!(plan.has_cross_product);
        let m = PlanMetrics::of(&plan.plan);
        assert_eq!(m.cross_products, 1);
    }

    #[test]
    fn no_filter_unification_like_sql_baseline() {
        let ds = dataset();
        // FILTER-connected stars stay disconnected for Stocker (as for the
        // SQL baseline) — the distinguishing contrast with HSP.
        let query = q("SELECT ?a ?b WHERE { ?a <http://e/title> ?t1 . \
             ?b <http://e/title> ?t2 . FILTER (?t1 = ?t2) }");
        let plan = StockerPlanner::new().plan(&ds, &query).unwrap();
        assert!(plan.has_cross_product);
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
            StockerPlanner::new().plan(&ds, &query).unwrap_err(),
            PlanError::EmptyQuery
        );
    }

    #[test]
    fn stats_reuse_across_queries() {
        let ds = dataset();
        let stats = StockerStats::build(&ds);
        for text in [
            "SELECT ?x WHERE { ?x <http://e/type> <http://e/Article> . }",
            "SELECT ?x ?t WHERE { ?x <http://e/title> ?t . }",
        ] {
            let query = q(text);
            let plan = StockerPlanner::new()
                .plan_with_stats(&ds, &query, &stats)
                .unwrap();
            assert!(plan.plan.validate().is_ok());
        }
    }
}
