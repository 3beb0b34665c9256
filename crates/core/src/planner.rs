//! The HSP planner — Algorithm 1 (HSP) and Algorithm 2
//! (AssignOrderedRelation) plus physical plan assembly.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hsp_engine::plan::PhysicalPlan;
use hsp_rdf::TriplePos;
use hsp_sparql::rewrite::{rewrite_filters, RewriteReport};
use hsp_sparql::{JoinQuery, TriplePattern, Var};
use hsp_store::Order;

use crate::heuristics::{h1_rank, retain_best, score_set};
use crate::vargraph::VariableGraph;

/// Planner configuration. The defaults reproduce the paper's plans; the
/// knobs exist for the ablation benchmarks and for the randomized behaviour
/// the paper describes ("one set is picked randomly").
#[derive(Debug, Clone)]
pub struct HspConfig {
    /// Rewrite equality FILTERs into patterns/unifications first (the
    /// paper's HSP always does; baselines do not).
    pub rewrite_filters: bool,
    /// Deterministic pre-tie-break: prefer maximum sets with *fewer*
    /// variables, i.e. larger merge-join blocks per variable. Reproduces
    /// the paper's Y2 narrative (all merge joins on `?a`).
    pub prefer_fewer_vars: bool,
    /// Apply H3 in the tie-break cascade.
    pub use_h3: bool,
    /// Apply H4 in the tie-break cascade.
    pub use_h4: bool,
    /// Apply H2 in the tie-break cascade.
    pub use_h2: bool,
    /// Apply H5 in the tie-break cascade.
    pub use_h5: bool,
    /// Order leaves within a merge block (and blocks themselves) by H1
    /// selectivity; disabled, source order is used (ablation).
    pub use_h1_order: bool,
    /// Seed for the final random choice among still-tied candidate sets.
    /// `None` picks the lexicographically smallest set (deterministic).
    pub rng_seed: Option<u64>,
}

impl Default for HspConfig {
    fn default() -> Self {
        HspConfig {
            rewrite_filters: true,
            prefer_fewer_vars: true,
            use_h3: true,
            use_h4: true,
            use_h2: true,
            use_h5: true,
            use_h1_order: true,
            rng_seed: None,
        }
    }
}

impl HspConfig {
    /// The paper's randomized tie-break (Algorithm 1's
    /// `RandomChooseOne`), seeded for reproducibility.
    pub fn random_tiebreak(seed: u64) -> Self {
        HspConfig {
            prefer_fewer_vars: false,
            rng_seed: Some(seed),
            ..Default::default()
        }
    }
}

/// The outcome of HSP planning.
#[derive(Debug, Clone)]
pub struct HspPlan {
    /// The physical plan: the join tree under the shared plan top
    /// ([`PhysicalPlan::with_top`]).
    pub plan: PhysicalPlan,
    /// The (possibly rewritten) query the plan's pattern indices refer to.
    pub query: JoinQuery,
    /// What the FILTER rewriting did.
    pub rewrite: RewriteReport,
    /// The chosen merge variables with their covered pattern indices, in
    /// selection order — Algorithm 1's mapping `M` in summarised form.
    pub merge_vars: Vec<(Var, Vec<usize>)>,
}

/// Why a planner produced no plan — the one failure type of every planner
/// in the workspace (HSP here, the baselines in `hsp-baseline`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The query has no triple patterns.
    EmptyQuery,
    /// The query's join graph is disconnected, and the planner refuses
    /// cross products (CDP, as RDF-3X does).
    CrossProduct,
    /// Too many patterns for exhaustive dynamic programming (limit: 20).
    TooLarge(usize),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::EmptyQuery => write!(f, "cannot plan a query without triple patterns"),
            PlanError::CrossProduct => write!(
                f,
                "CDP refuses queries containing a cross product (as RDF-3X does)"
            ),
            PlanError::TooLarge(n) => write!(
                f,
                "CDP dynamic programming limited to 20 patterns, query has {n}"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// The Heuristic SPARQL Planner.
#[derive(Debug, Clone, Default)]
pub struct HspPlanner {
    config: HspConfig,
}

impl HspPlanner {
    /// Planner with default (deterministic, all-heuristics) configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Planner with explicit configuration.
    pub fn with_config(config: HspConfig) -> Self {
        HspPlanner { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &HspConfig {
        &self.config
    }

    /// Plan a join query (Algorithm 1 + plan assembly).
    pub fn plan(&self, query: &JoinQuery) -> Result<HspPlan, PlanError> {
        if query.patterns.is_empty() {
            return Err(PlanError::EmptyQuery);
        }
        let (query, rewrite) = if self.config.rewrite_filters {
            rewrite_filters(query)
        } else {
            (query.clone(), RewriteReport::default())
        };

        let mut rng = self.config.rng_seed.map(StdRng::seed_from_u64);

        // --- Algorithm 1: choose merge variables. ---
        let mut remaining: Vec<usize> = (0..query.patterns.len()).collect();
        let mut merge_vars: Vec<(Var, Vec<usize>)> = Vec::new();
        loop {
            let graph = VariableGraph::build(&query, &remaining).trimmed();
            if graph.num_nodes() == 0 {
                break;
            }
            let mut candidates = graph.max_weight_independent_sets();
            debug_assert!(!candidates.is_empty());
            self.tie_break(&query, &remaining, &mut candidates, &mut rng);
            let set = candidates.swap_remove(0);

            // Assign patterns to the set's variables, heaviest variable
            // first (deterministic; variables in a set never co-occur in a
            // pattern, so the assignment is disjoint anyway).
            let mut ordered: Vec<Var> = set;
            ordered.sort_by_key(|&v| (std::cmp::Reverse(graph.weight(v)), v));
            for v in ordered {
                let covered: Vec<usize> = remaining
                    .iter()
                    .copied()
                    .filter(|&i| query.patterns[i].contains_var(v))
                    .collect();
                if !covered.is_empty() {
                    remaining.retain(|i| !covered.contains(i));
                    merge_vars.push((v, covered));
                }
            }
        }
        let leftovers = remaining;

        // --- Plan assembly: blocks of merge joins + hash joins. ---
        let mut components: Vec<PhysicalPlan> = Vec::new();
        for (v, indices) in &merge_vars {
            components.push(self.build_block(&query, *v, indices));
        }
        for &i in &leftovers {
            components.push(self.scan_leaf(&query, i, None));
        }

        let plan = self.connect_components(components).with_top(&query);

        Ok(HspPlan {
            plan,
            query,
            rewrite,
            merge_vars,
        })
    }

    /// Algorithm 1's tie-break cascade: (fewer-vars) → H3 → H4 → H2 → H5 →
    /// deterministic/random choice. Leaves exactly the chosen candidate
    /// first.
    fn tie_break(
        &self,
        query: &JoinQuery,
        remaining: &[usize],
        candidates: &mut Vec<Vec<Var>>,
        rng: &mut Option<StdRng>,
    ) {
        if candidates.len() > 1 && self.config.prefer_fewer_vars {
            retain_best(candidates, |set| set.len(), true);
        }
        if candidates.len() > 1 && self.config.use_h3 {
            retain_best(
                candidates,
                |set| score_set(query, remaining, set).h3_total_consts,
                false,
            );
        }
        if candidates.len() > 1 && self.config.use_h4 {
            retain_best(
                candidates,
                |set| score_set(query, remaining, set).h4_literal_objects,
                false,
            );
        }
        if candidates.len() > 1 && self.config.use_h2 {
            retain_best(
                candidates,
                |set| score_set(query, remaining, set).h2_best_rank,
                true,
            );
        }
        if candidates.len() > 1 && self.config.use_h5 {
            retain_best(
                candidates,
                |set| score_set(query, remaining, set).h5_unused_vars,
                false,
            );
        }
        if candidates.len() > 1 {
            match rng {
                Some(rng) => {
                    // The paper's RandomChooseOne.
                    let pick = rng.random_range(0..candidates.len());
                    candidates.swap(0, pick);
                }
                None => {
                    // Deterministic: lexicographically smallest variable set.
                    candidates.sort();
                }
            }
        }
    }

    /// Build one merge-join block: a chain of merge joins on `v` over all
    /// covered patterns, leaves ordered by H1 (most selective first).
    fn build_block(&self, query: &JoinQuery, v: Var, indices: &[usize]) -> PhysicalPlan {
        let mut ordered = indices.to_vec();
        if self.config.use_h1_order {
            ordered.sort_by_key(|&i| (h1_rank(&query.patterns[i]), i));
        }
        let mut iter = ordered.into_iter();
        let first = iter.next().expect("blocks cover at least one pattern");
        let mut plan = self.scan_leaf(query, first, Some(v));
        for i in iter {
            plan = PhysicalPlan::MergeJoin {
                left: Box::new(plan),
                right: Box::new(self.scan_leaf(query, i, Some(v))),
                var: v,
            };
        }
        plan
    }

    /// A scan leaf with its access path chosen by Algorithm 2.
    fn scan_leaf(&self, query: &JoinQuery, idx: usize, v: Option<Var>) -> PhysicalPlan {
        let pattern = query.patterns[idx].clone();
        let order = assign_ordered_relation(&pattern, v);
        PhysicalPlan::Scan {
            pattern_idx: idx,
            pattern,
            order,
        }
    }

    /// Join components (blocks and leftover leaves) into one tree:
    /// hash joins on shared variables where possible, cross products as a
    /// last resort. Components are first ordered by the H1 rank of their
    /// most selective pattern.
    fn connect_components(&self, mut components: Vec<PhysicalPlan>) -> PhysicalPlan {
        debug_assert!(!components.is_empty());
        if self.config.use_h1_order {
            // Stable sort: ties keep block creation order (selection order).
            components.sort_by_key(min_h1_rank);
        }
        let mut acc = components.remove(0);
        while !components.is_empty() {
            let acc_vars = acc.output_vars();
            // First component (in order) sharing a variable with `acc`.
            let pos = components
                .iter()
                .position(|c| c.output_vars().iter().any(|v| acc_vars.contains(v)));
            match pos {
                Some(p) => {
                    let right = components.remove(p);
                    let shared: Vec<Var> = right
                        .output_vars()
                        .into_iter()
                        .filter(|v| acc_vars.contains(v))
                        .collect();
                    acc = PhysicalPlan::HashJoin {
                        left: Box::new(acc),
                        right: Box::new(right),
                        vars: shared,
                    };
                }
                None => {
                    let right = components.remove(0);
                    acc = PhysicalPlan::CrossProduct {
                        left: Box::new(acc),
                        right: Box::new(right),
                    };
                }
            }
        }
        acc
    }
}

/// The H1 rank of a component's most selective scan.
fn min_h1_rank(plan: &PhysicalPlan) -> u8 {
    let mut best = u8::MAX;
    plan.visit(&mut |node| {
        if let PhysicalPlan::Scan { pattern, .. } = node {
            best = best.min(h1_rank(pattern));
        }
    });
    best
}

/// **Algorithm 2 — AssignOrderedRelation**: choose the ordered relation for
/// a triple pattern.
///
/// * `v = None` (selection, no merge join): constants in pattern-position
///   order, then variables in pattern-position order — the paper's
///   `(l1, u1, l2) → sop` example.
/// * `v = Some(var)`: constants first, *most selective position first*
///   (object ≺ subject ≺ predicate, per H1's note that objects are more
///   selective than subjects than predicates), then `v`, then the remaining
///   variables. This reproduces the paper's Figure 2/3 access paths: `OPS`
///   for `(?c1, rdf:type, village)` joined on `?c1`, `PSO` for
///   `(?c1, locatedIn, ?x)`, `OSP` for an all-variable pattern joined on
///   its object.
///
/// # Panics
/// Panics if `v` is not a variable of the pattern.
pub fn assign_ordered_relation(pattern: &TriplePattern, v: Option<Var>) -> Order {
    let mut key: Vec<TriplePos> = Vec::with_capacity(3);
    match v {
        None => {
            key.extend(pattern.const_positions());
        }
        Some(var) => {
            assert!(
                pattern.contains_var(var),
                "join variable {var} does not occur in the pattern"
            );
            // Constants, most selective position first: o, s, p.
            for pos in [TriplePos::O, TriplePos::S, TriplePos::P] {
                if pattern.slot(pos).is_const() {
                    key.push(pos);
                }
            }
            // The join variable comes immediately after the constants.
            let vpos = pattern.positions_of(var)[0];
            key.push(vpos);
        }
    }
    // Remaining positions in pattern order.
    for pos in TriplePos::ALL {
        if !key.contains(&pos) {
            key.push(pos);
        }
    }
    Order::from_positions([key[0], key[1], key[2]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsp_engine::metrics::{PlanMetrics, PlanShape};
    use hsp_rdf::Term;
    use hsp_sparql::TermOrVar;

    fn tp(s: TermOrVar, p: TermOrVar, o: TermOrVar) -> TriplePattern {
        TriplePattern::new(s, p, o)
    }

    fn c(name: &str) -> TermOrVar {
        TermOrVar::Const(Term::iri(format!("http://e/{name}")))
    }

    fn lit(s: &str) -> TermOrVar {
        TermOrVar::Const(Term::literal(s))
    }

    fn v(i: u32) -> TermOrVar {
        TermOrVar::Var(Var(i))
    }

    // --- Algorithm 2 ---

    #[test]
    fn assign_selection_matches_paper_sop_example() {
        // (l1, u1, l2): constants at s and o, variable at p → sop.
        let p = tp(c("s"), v(0), lit("o"));
        assert_eq!(assign_ordered_relation(&p, None), Order::Sop);
    }

    #[test]
    fn assign_selection_one_constant() {
        // (l1, u1, u2): constant subject → s, then p, o in pattern order.
        let p = tp(c("s"), v(0), v(1));
        assert_eq!(assign_ordered_relation(&p, None), Order::Spo);
        // Constant predicate → pso.
        let p2 = tp(v(0), c("p"), v(1));
        assert_eq!(assign_ordered_relation(&p2, None), Order::Pso);
    }

    #[test]
    fn assign_join_var_figure2_access_paths() {
        // (?c1, rdf:type, village) joined on ?c1 → OPS (constants o, p; then s).
        let type_pattern = tp(v(0), c("type"), c("village"));
        assert_eq!(
            assign_ordered_relation(&type_pattern, Some(Var(0))),
            Order::Ops
        );
        // (?c1, locatedIn, ?x) joined on ?c1 → PSO.
        let loc = tp(v(0), c("locatedIn"), v(1));
        assert_eq!(assign_ordered_relation(&loc, Some(Var(0))), Order::Pso);
        // (?p, ?ss, ?c1) joined on ?c1 (object) → OSP.
        let open = tp(v(1), v(2), v(0));
        assert_eq!(assign_ordered_relation(&open, Some(Var(0))), Order::Osp);
    }

    #[test]
    fn assign_join_var_after_single_constant() {
        // (l, u1, v) joined on v (object): constant p… wait constant is s.
        // (s-const, var, join-var) → s prefix, then o (join var), then p.
        let p = tp(c("s"), v(1), v(0));
        assert_eq!(assign_ordered_relation(&p, Some(Var(0))), Order::Sop);
        // Joined on the predicate variable instead → spo? key: s, p, o.
        assert_eq!(assign_ordered_relation(&p, Some(Var(1))), Order::Spo);
    }

    #[test]
    #[should_panic(expected = "does not occur")]
    fn assign_rejects_foreign_var() {
        let p = tp(v(0), c("p"), v(1));
        assign_ordered_relation(&p, Some(Var(9)));
    }

    // --- Full planner on characteristic query shapes ---

    fn plan(text: &str) -> HspPlan {
        let q = JoinQuery::parse(text).unwrap();
        HspPlanner::new().plan(&q).unwrap()
    }

    #[test]
    fn single_pattern_query_is_scan_project() {
        let p = plan("SELECT ?x WHERE { ?x a <http://e/Article> . }");
        let m = PlanMetrics::of(&p.plan);
        assert_eq!(m.total_joins(), 0);
        assert!(p.plan.validate().is_ok());
        assert!(p.merge_vars.is_empty());
    }

    #[test]
    fn sp1_star_is_left_deep_merge_chain() {
        let p = plan(
            r#"SELECT ?yr ?jrnl WHERE {
               ?jrnl a <http://e/Journal> .
               ?jrnl <http://e/title> "Journal 1 (1940)" .
               ?jrnl <http://e/issued> ?yr . }"#,
        );
        let m = PlanMetrics::of(&p.plan);
        assert_eq!(m.merge_joins, 2);
        assert_eq!(m.hash_joins, 0);
        assert_eq!(m.shape, PlanShape::LeftDeep);
        assert!(p.plan.validate().is_ok());
        // H1 puts the literal-title pattern first (rank 4 vs rdf:type 9).
        assert_eq!(p.plan.scanned_patterns()[0], 1);
    }

    #[test]
    fn y2_shape_prefers_single_variable_block() {
        let p = plan(
            "SELECT ?a WHERE {
                ?a a <http://e/actor> .
                ?a <http://e/livesIn> ?city .
                ?a <http://e/actedIn> ?m1 .
                ?m1 a <http://e/movie> .
                ?a <http://e/directed> ?m2 .
                ?m2 a <http://e/movie> . }",
        );
        let m = PlanMetrics::of(&p.plan);
        assert_eq!(m.merge_joins, 3);
        assert_eq!(m.hash_joins, 2);
        // All merge joins on ?a (Var 0): one merge variable covering 4 patterns.
        assert_eq!(p.merge_vars.len(), 1);
        assert_eq!(p.merge_vars[0].0, Var(0));
        assert_eq!(p.merge_vars[0].1.len(), 4);
        assert_eq!(m.shape, PlanShape::LeftDeep);
        assert!(p.plan.validate().is_ok());
    }

    #[test]
    fn y3_shape_two_blocks_one_hash_join() {
        let p = plan(
            "SELECT ?p WHERE {
                ?p ?ss ?c1 .
                ?p ?dd ?c2 .
                ?c1 a <http://e/village> .
                ?c1 <http://e/locatedIn> ?x .
                ?c2 a <http://e/site> .
                ?c2 <http://e/locatedIn> ?y . }",
        );
        let m = PlanMetrics::of(&p.plan);
        assert_eq!(m.merge_joins, 4);
        assert_eq!(m.hash_joins, 1);
        assert_eq!(m.shape, PlanShape::Bushy);
        assert_eq!(p.merge_vars.len(), 2); // {c1, c2}
        assert!(p.plan.validate().is_ok());
    }

    #[test]
    fn sp4a_shape_three_blocks() {
        let p = plan(
            "SELECT ?au1 ?au2 WHERE {
                ?a1 a <http://e/Article> .
                ?a1 <http://e/creator> ?au1 .
                ?au1 <http://e/homepage> ?hp .
                ?a2 a <http://e/Article> .
                ?a2 <http://e/creator> ?au2 .
                ?au2 <http://e/homepage> ?hp . }",
        );
        let m = PlanMetrics::of(&p.plan);
        assert_eq!(m.merge_joins, 3);
        assert_eq!(m.hash_joins, 2);
        assert_eq!(m.cross_products, 0);
        assert_eq!(m.shape, PlanShape::Bushy);
        assert!(p.plan.validate().is_ok());
    }

    #[test]
    fn filter_rewriting_removes_cross_product() {
        // SP4a in FILTER form: without rewriting this is two components.
        let text = "SELECT ?au1 ?au2 WHERE {
                ?a1 <http://e/creator> ?au1 .
                ?au1 <http://e/homepage> ?h1 .
                ?a2 <http://e/creator> ?au2 .
                ?au2 <http://e/homepage> ?h2 .
                FILTER (?h1 = ?h2) }";
        let with = plan(text);
        assert_eq!(PlanMetrics::of(&with.plan).cross_products, 0);
        assert_eq!(with.rewrite.unifications.len(), 1);

        let q = JoinQuery::parse(text).unwrap();
        let without = HspPlanner::with_config(HspConfig {
            rewrite_filters: false,
            ..Default::default()
        })
        .plan(&q)
        .unwrap();
        assert_eq!(PlanMetrics::of(&without.plan).cross_products, 1);
    }

    #[test]
    fn chain_query_y4_shape() {
        let p = plan(
            "SELECT ?x ?w ?y WHERE {
                ?x ?p1 ?y .
                ?y ?p2 ?z .
                ?z ?p3 ?w .
                ?w a <http://e/site> .
                ?x a <http://e/actor> . }",
        );
        let m = PlanMetrics::of(&p.plan);
        assert_eq!(m.merge_joins, 2);
        assert_eq!(m.hash_joins, 2);
        assert_eq!(m.cross_products, 0);
        assert_eq!(m.shape, PlanShape::Bushy);
        // H3 tie-break selects {x, w} (4 constants in covered patterns).
        let chosen: Vec<Var> = p.merge_vars.iter().map(|&(v, _)| v).collect();
        assert!(chosen.contains(&Var(0))); // ?x
        assert!(chosen.contains(&Var(6))); // ?w
        assert!(p.plan.validate().is_ok());
    }

    #[test]
    fn every_pattern_scanned_exactly_once() {
        let p = plan(
            "SELECT ?a WHERE {
                ?a <http://e/p1> ?b .
                ?b <http://e/p2> ?c .
                ?c <http://e/p3> ?d .
                ?d <http://e/p4> ?e .
                ?a <http://e/p5> ?f . }",
        );
        let mut scanned = p.plan.scanned_patterns();
        scanned.sort();
        assert_eq!(scanned, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn random_tiebreak_is_reproducible() {
        let text = "SELECT ?x WHERE {
            ?x ?p1 ?y . ?y ?p2 ?z . ?z ?p3 ?w . ?w a <http://e/C> . ?x a <http://e/D> . }";
        let q = JoinQuery::parse(text).unwrap();
        let a = HspPlanner::with_config(HspConfig::random_tiebreak(7))
            .plan(&q)
            .unwrap();
        let b = HspPlanner::with_config(HspConfig::random_tiebreak(7))
            .plan(&q)
            .unwrap();
        assert_eq!(a.plan, b.plan);
    }

    #[test]
    fn disabling_h3_changes_y4_choice_or_not_plan_validity() {
        let text = "SELECT ?x ?w ?y WHERE {
            ?x ?p1 ?y . ?y ?p2 ?z . ?z ?p3 ?w . ?w a <http://e/site> . ?x a <http://e/actor> . }";
        let q = JoinQuery::parse(text).unwrap();
        let cfg = HspConfig {
            use_h3: false,
            ..Default::default()
        };
        let p = HspPlanner::with_config(cfg).plan(&q).unwrap();
        assert!(p.plan.validate().is_ok());
        let m = PlanMetrics::of(&p.plan);
        assert_eq!(m.merge_joins + m.hash_joins + m.cross_products, 4);
    }

    #[test]
    fn empty_query_rejected() {
        let planner = HspPlanner::new();
        let q = JoinQuery {
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
        assert_eq!(planner.plan(&q).unwrap_err(), PlanError::EmptyQuery);
    }

    #[test]
    fn residual_filter_kept_in_plan() {
        let p = plan(
            "SELECT ?x WHERE { ?x <http://e/issued> ?yr . ?x <http://e/p> ?z . FILTER (?yr > 1940) }",
        );
        let mut filters = 0;
        p.plan.visit(&mut |n| {
            if matches!(n, PhysicalPlan::Filter { .. }) {
                filters += 1;
            }
        });
        assert_eq!(filters, 1);
        assert!(p.plan.validate().is_ok());
    }
}
