//! Property tests for the morsel-parallel two-phase aggregation breaker:
//! on randomly generated employee/department datasets — with randomized
//! group-key cardinality and skew (one department absorbing most rows) —
//! a γ plan carrying **every** aggregate function (plain and DISTINCT)
//! must produce a [`BindingTable`] byte-identical to the row-at-a-time
//! reference (`ExecStrategy::OperatorAtATime` runs
//! `hsp_engine::reference::hash_aggregate`), at forced thread counts 2–4
//! with tiny morsels, including the computed-term overlay (aggregate
//! output ids are positional, so a divergent intern order would corrupt
//! results even when the values agree).
//!
//! [`BindingTable`]: hsp_engine::BindingTable

use hsp_engine::exec::{execute_in, ExecConfig, ExecStrategy};
use hsp_engine::{ExecContext, MorselConfig, PhysicalPlan};
use hsp_rdf::Term;
use hsp_sparql::{AggFunc, AggSpec, TermOrVar, TriplePattern, Var};
use hsp_store::{Dataset, Order};
use proptest::prelude::*;

const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";

/// `(employee, department, salary)` facts as two predicates. Duplicate
/// employees collapse under RDF set semantics — both arms see the same
/// graph, so that only sharpens the dedup coverage.
fn dataset_of(facts: &[(u16, u8, u8)]) -> Dataset {
    let mut nt = String::new();
    for &(e, d, sal) in facts {
        nt.push_str(&format!(
            "<http://e/e{e}> <http://e/dept> <http://e/d{d}> .\n"
        ));
        nt.push_str(&format!(
            "<http://e/e{e}> <http://e/salary> \"{sal}\"^^<{XSD_INTEGER}> .\n"
        ));
    }
    Dataset::from_ntriples(&nt).expect("generated N-Triples parse")
}

fn scan(idx: usize, pred: &str, s: Var, o: Var) -> PhysicalPlan {
    PhysicalPlan::Scan {
        pattern_idx: idx,
        pattern: TriplePattern::new(
            TermOrVar::Var(s),
            TermOrVar::Const(Term::iri(format!("http://e/{pred}"))),
            TermOrVar::Var(o),
        ),
        order: Order::Pso,
    }
}

/// `?s dept ?d ⋈ ?s salary ?sal`, then γ with the full aggregate menu:
/// COUNT(*), COUNT(?sal), SUM, MIN, MAX, AVG, COUNT(DISTINCT ?sal),
/// SUM(DISTINCT ?sal), AVG(DISTINCT ?sal).
fn full_menu_plan(group_by: Vec<Var>) -> PhysicalPlan {
    let (s, d, sal) = (Var(0), Var(1), Var(2));
    let agg = |func: AggFunc, distinct: bool, arg: Option<Var>, out: u32, name: &str| AggSpec {
        func,
        distinct,
        arg,
        out: Var(out),
        name: name.to_string(),
    };
    let aggs = vec![
        agg(AggFunc::Count, false, None, 3, "n"),
        agg(AggFunc::Count, false, Some(sal), 4, "nsal"),
        agg(AggFunc::Sum, false, Some(sal), 5, "t"),
        agg(AggFunc::Min, false, Some(sal), 6, "lo"),
        agg(AggFunc::Max, false, Some(sal), 7, "hi"),
        agg(AggFunc::Avg, false, Some(sal), 8, "a"),
        agg(AggFunc::Count, true, Some(sal), 9, "nd"),
        agg(AggFunc::Sum, true, Some(sal), 10, "td"),
        agg(AggFunc::Avg, true, Some(sal), 11, "ad"),
    ];
    let mut projection: Vec<(String, Var)> =
        group_by.iter().map(|&v| (format!("g{}", v.0), v)).collect();
    projection.extend(aggs.iter().map(|a| (a.name.clone(), a.out)));
    PhysicalPlan::Project {
        input: Box::new(PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::HashJoin {
                left: Box::new(scan(0, "dept", s, d)),
                right: Box::new(scan(1, "salary", s, sal)),
                vars: vec![s],
            }),
            group_by,
            aggs,
            having: None,
        }),
        projection,
        distinct: false,
    }
}

/// Oracle vs pipeline at forced threads 2–4 (and 1, as the degenerate
/// stitch): byte-identical tables and computed-term overlays.
fn assert_aggregate_matches_oracle(ds: &Dataset, plan: &PhysicalPlan) -> Result<(), TestCaseError> {
    let oracle_config = ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime);
    let oracle =
        execute_in(plan, ds, &oracle_config, &oracle_config.context()).expect("oracle executes");
    let pipeline_config = ExecConfig::unlimited();
    for threads in 1..=4usize {
        let ctx = ExecContext::with_morsel_config(
            MorselConfig::with_threads(threads)
                .with_morsel_rows(3)
                .with_min_parallel_rows(0),
        );
        let out = execute_in(plan, ds, &pipeline_config, &ctx).expect("pipeline executes");
        prop_assert_eq!(
            &out.table,
            &oracle.table,
            "tables diverge at threads={}",
            threads
        );
        prop_assert_eq!(
            &out.computed,
            &oracle.computed,
            "computed-term overlays diverge at threads={}",
            threads
        );
    }
    Ok(())
}

proptest! {
    /// Randomized group-key cardinality: departments drawn from 0..8, so
    /// runs range from one group to eight, with duplicate salaries inside
    /// and across groups.
    #[test]
    fn grouped_full_menu_matches_reference(
        facts in proptest::collection::vec((0u16..60, 0u8..8, 0u8..25), 1..70),
    ) {
        let ds = dataset_of(&facts);
        assert_aggregate_matches_oracle(&ds, &full_menu_plan(vec![Var(1)]))?;
    }

    /// Skewed group keys: most departments collapse onto `d0` (one giant
    /// group, a few singletons). The fold runs on the calling thread, one
    /// morsel-sized range at a time behind a checkpoint, so a giant group
    /// spans many ranges and must come out exactly as one.
    #[test]
    fn skewed_groups_match_reference(
        facts in proptest::collection::vec((0u16..80, 0u8..16, 0u8..10), 1..80),
    ) {
        let skewed: Vec<(u16, u8, u8)> = facts
            .into_iter()
            .map(|(e, d, sal)| (e, if d < 12 { 0 } else { d }, sal))
            .collect();
        let ds = dataset_of(&skewed);
        assert_aggregate_matches_oracle(&ds, &full_menu_plan(vec![Var(1)]))?;
    }

    /// Ungrouped aggregation (the implicit all-rows group), including the
    /// empty-input case (`COUNT` 0 / `SUM` 0 / `MIN`/`MAX` unbound) when
    /// the generator yields no facts.
    #[test]
    fn ungrouped_full_menu_matches_reference(
        facts in proptest::collection::vec((0u16..40, 0u8..4, 0u8..25), 0..50),
    ) {
        let ds = dataset_of(&facts);
        assert_aggregate_matches_oracle(&ds, &full_menu_plan(vec![]))?;
    }

    /// Two group keys (department × salary): key tuples rather than single
    /// ids exercise the multi-column key hashing and the positional
    /// overlay across a larger group count.
    #[test]
    fn two_key_groups_match_reference(
        facts in proptest::collection::vec((0u16..60, 0u8..5, 0u8..6), 1..70),
    ) {
        let ds = dataset_of(&facts);
        assert_aggregate_matches_oracle(&ds, &full_menu_plan(vec![Var(1), Var(2)]))?;
    }
}
