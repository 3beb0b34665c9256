//! End-to-end integration: all 14 workload queries, all four planners, on
//! generated SP2Bench-like and YAGO-like datasets — identical result sets
//! everywhere a plan exists.

use std::sync::OnceLock;

use hsp_bench::planners::{plan_query, PlannerKind};
use hsp_bench::{BenchEnv, EnvConfig};
use hsp_datagen::workload;
use hsp_engine::{execute, ExecConfig};
use hsp_sparql::Var;

fn env() -> &'static BenchEnv {
    static ENV: OnceLock<BenchEnv> = OnceLock::new();
    ENV.get_or_init(|| BenchEnv::load(EnvConfig::small()))
}

#[test]
fn all_queries_all_planners_agree_on_results() {
    let env = env();
    for q in workload() {
        let parsed = q.parse();
        let ds = env.dataset(q.dataset);
        let mut reference: Option<Vec<Vec<hsp_rdf::TermId>>> = None;
        for kind in PlannerKind::ALL {
            let planned = plan_query(kind, ds, &parsed)
                .unwrap_or_else(|e| panic!("{} via {kind:?} failed to plan: {e}", q.id));
            planned
                .plan
                .validate()
                .unwrap_or_else(|e| panic!("{} via {kind:?} invalid: {e}", q.id));
            // The SQL and Stocker baselines plan SP4a as a Cartesian
            // product (no FILTER unification); skip executing those (that
            // behaviour is asserted separately).
            if matches!(kind, PlannerKind::Sql | PlannerKind::Stocker) && q.id == "SP4a" {
                continue;
            }
            let out = execute(&planned.plan, ds, &ExecConfig::unlimited())
                .unwrap_or_else(|e| panic!("{} via {kind:?} failed to run: {e}", q.id));
            let proj: Vec<Var> = planned.query.projection.iter().map(|&(_, v)| v).collect();
            let mut rows = out.table.sorted_rows_for(&proj);
            // SP4a via SQL would dedup differently; queries are not DISTINCT
            // so multiset equality is the contract.
            rows.sort();
            match &reference {
                None => reference = Some(rows),
                Some(r) => assert_eq!(
                    &rows, r,
                    "{} via {kind:?} disagrees with the first planner",
                    q.id
                ),
            }
        }
    }
}

#[test]
fn workload_queries_return_expected_emptiness() {
    let env = env();
    // Queries designed to return rows must return rows; SP3c must be empty.
    for q in workload() {
        let parsed = q.parse();
        let ds = env.dataset(q.dataset);
        let planned = plan_query(PlannerKind::Hsp, ds, &parsed).unwrap();
        let out = execute(&planned.plan, ds, &ExecConfig::unlimited()).unwrap();
        if q.id == "SP3c" {
            assert!(
                out.table.is_empty(),
                "SP3c must be empty (articles carry no isbn)"
            );
        } else {
            assert!(!out.table.is_empty(), "{} returned no rows", q.id);
        }
    }
}

#[test]
fn sp1_returns_exactly_one_journal() {
    let env = env();
    let q = workload().into_iter().find(|q| q.id == "SP1").unwrap();
    let planned = plan_query(PlannerKind::Hsp, env.dataset(q.dataset), &q.parse()).unwrap();
    let out = execute(
        &planned.plan,
        env.dataset(q.dataset),
        &ExecConfig::unlimited(),
    )
    .unwrap();
    assert_eq!(out.table.len(), 1);
}

#[test]
fn hsp_plans_are_statistics_free() {
    // The same query planned against both datasets yields the same plan —
    // HSP never looks at the data. (CDP generally does not.)
    let env = env();
    for q in workload() {
        let parsed = q.parse();
        let a = plan_query(PlannerKind::Hsp, &env.sp2b, &parsed).unwrap();
        let b = plan_query(PlannerKind::Hsp, &env.yago, &parsed).unwrap();
        assert_eq!(a.plan, b.plan, "{} HSP plan depends on the dataset", q.id);
    }
}

#[test]
fn modifiers_run_through_planned_queries() {
    // ORDER BY/LIMIT on a workload query, planned by HSP and by CDP.
    let env = env();
    let q = workload().into_iter().find(|q| q.id == "SP5").unwrap();
    let ds = env.dataset(q.dataset);
    let text = format!("{} ORDER BY ?isbn LIMIT 5", q.text.trim_end());
    let parsed = hsp_sparql::JoinQuery::parse(&text).expect("modified SP5 parses");
    for kind in [PlannerKind::Hsp, PlannerKind::Cdp] {
        let planned = plan_query(kind, ds, &parsed).unwrap();
        let out = execute(&planned.plan, ds, &ExecConfig::unlimited()).unwrap();
        assert!(out.table.len() <= 5, "{kind:?} ignored LIMIT");
    }
}

#[test]
fn profile_cardinalities_are_consistent() {
    // Each operator's recorded output equals its actual output; the root
    // profile row count equals the result size.
    let env = env();
    let q = workload().into_iter().find(|q| q.id == "Y3").unwrap();
    let ds = env.dataset(q.dataset);
    let planned = plan_query(PlannerKind::Hsp, ds, &q.parse()).unwrap();
    let out = execute(&planned.plan, ds, &ExecConfig::unlimited()).unwrap();
    assert_eq!(out.profile.output_rows, out.table.len());
    // Total intermediate rows bound the memory footprint measure.
    assert!(out.profile.total_intermediate_rows() >= out.table.len());
}
