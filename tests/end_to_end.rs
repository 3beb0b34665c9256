//! End-to-end integration: all 14 workload queries, all five planners, on
//! generated SP2Bench-like and YAGO-like datasets — identical result sets
//! everywhere a plan exists.

use std::sync::OnceLock;

use hsp_baseline::{plan, Planner};
use hsp_bench::{BenchEnv, EnvConfig};
use hsp_datagen::workload;
use hsp_engine::exec::ExecStrategy;
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
        for kind in Planner::ALL {
            let planned = plan(kind, ds, &parsed)
                .unwrap_or_else(|e| panic!("{} via {kind:?} failed to plan: {e}", q.id));
            planned
                .plan
                .validate()
                .unwrap_or_else(|e| panic!("{} via {kind:?} invalid: {e}", q.id));
            // The SQL and Stocker baselines plan SP4a as a Cartesian
            // product (no FILTER unification); skip executing those (that
            // behaviour is asserted separately).
            if matches!(kind, Planner::Sql | Planner::Stocker) && q.id == "SP4a" {
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
        let planned = plan(Planner::Hsp, ds, &parsed).unwrap();
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
    let planned = plan(Planner::Hsp, env.dataset(q.dataset), &q.parse()).unwrap();
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
        let a = plan(Planner::Hsp, &env.sp2b, &parsed).unwrap();
        let b = plan(Planner::Hsp, &env.yago, &parsed).unwrap();
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
    for kind in [Planner::Hsp, Planner::Cdp] {
        let planned = plan(kind, ds, &parsed).unwrap();
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
    let planned = plan(Planner::Hsp, ds, &q.parse()).unwrap();
    let out = execute(&planned.plan, ds, &ExecConfig::unlimited()).unwrap();
    assert_eq!(out.profile.output_rows, out.table.len());
    // Total intermediate rows bound the memory footprint measure.
    assert!(out.profile.total_intermediate_rows() >= out.table.len());
}

#[test]
fn planners_agree_on_term_equality_and_typed_inequality() {
    // `?x` = "1"^^xsd:integer, `?y` ∈ {"01"^^xsd:integer, "1.0"^^xsd:decimal}:
    // numerically equal, different terms. A top-level `=` is term equality
    // under every planner (HSP rewrites it, the baselines push it down or
    // run it residual); every other comparison is SPARQL's typed one.
    let xsd = "http://www.w3.org/2001/XMLSchema#";
    let ds = hsp_store::Dataset::from_ntriples(&format!(
        "<http://e/d> <http://e/x> \"1\"^^<{xsd}integer> .
         <http://e/d> <http://e/y> \"01\"^^<{xsd}integer> .
         <http://e/d> <http://e/y> \"1.0\"^^<{xsd}decimal> .\n"
    ))
    .unwrap();
    for (filter, rows) in [("?x = ?y", 0), ("?x != ?y", 0), ("!(?x != ?y)", 2)] {
        let query = hsp_sparql::JoinQuery::parse(&format!(
            "SELECT ?x ?y WHERE {{ ?s <http://e/x> ?x . ?s <http://e/y> ?y . FILTER ({filter}) }}"
        ))
        .unwrap();
        for kind in Planner::ALL {
            let planned = plan(kind, &ds, &query).unwrap();
            for strategy in [ExecStrategy::Pipelined, ExecStrategy::OperatorAtATime] {
                let config = ExecConfig::unlimited().with_strategy(strategy);
                let out = execute(&planned.plan, &ds, &config).unwrap();
                assert_eq!(
                    out.table.len(),
                    rows,
                    "FILTER ({filter}) via {kind:?}/{strategy:?}"
                );
            }
        }
    }
}

/// A FILTER equality the planners rewrite into the patterns answers what
/// the same condition as `sameTerm` answers: the header and the rows, for
/// every place the query reads the substituted variable, under every
/// planner and both executors. `sameTerm` is a `Complex` filter that no
/// rewrite touches and has the same term semantics, so the oracle does
/// not depend on the rewrite.
#[test]
fn a_rewritten_equality_answers_like_same_term() {
    let ds = hsp_store::Dataset::from_ntriples(
        "<http://e/a> <http://e/p> \"9\" .\n\
         <http://e/b> <http://e/p> \"10\" .\n\
         <http://e/c> <http://e/p> \"9\" .\n",
    )
    .unwrap();
    type Shape = fn(&dyn Fn(&str, &str) -> String) -> String;
    let shapes: [Shape; 7] = [
        |eq| {
            format!(
                "SELECT ?s ?x WHERE {{ ?s <http://e/p> ?x . FILTER ({}) }}",
                eq("?x", "\"9\"")
            )
        },
        |eq| {
            format!(
                "SELECT * WHERE {{ ?s <http://e/p> ?x . FILTER ({}) }}",
                eq("?x", "\"9\"")
            )
        },
        |eq| {
            format!(
                "SELECT DISTINCT ?x WHERE {{ ?s <http://e/p> ?x . FILTER ({}) }}",
                eq("?x", "\"9\"")
            )
        },
        |eq| {
            format!(
                "SELECT ?x (COUNT(?s) AS ?n) WHERE {{ ?s <http://e/p> ?x . FILTER ({}) }} GROUP BY ?x",
                eq("?x", "\"9\"")
            )
        },
        |eq| {
            format!(
                "SELECT ?s ?x WHERE {{ ?s <http://e/p> ?x . FILTER ({}) }} ORDER BY ?x DESC(?s)",
                eq("?x", "\"9\"")
            )
        },
        |eq| {
            format!(
                "SELECT ?s ?x WHERE {{ ?s <http://e/p> ?x . FILTER ({} && {}) }}",
                eq("?s", "<http://e/a>"),
                eq("?x", "\"9\"")
            )
        },
        // A unified variable: GROUP BY reads the one the rewrite merged away.
        |eq| {
            format!(
                "SELECT ?y (COUNT(?s) AS ?n) WHERE {{ ?s <http://e/p> ?x . ?t <http://e/p> ?y . \
                 FILTER ({}) }} GROUP BY ?y ORDER BY ?y",
                eq("?x", "?y")
            )
        },
    ];
    let answer = |text: &str, kind: Planner, strategy: ExecStrategy| {
        let query = hsp_sparql::JoinQuery::parse(text).unwrap();
        let planned = plan(kind, &ds, &query).unwrap_or_else(|e| panic!("{text}: {e}"));
        let config = ExecConfig::unlimited().with_strategy(strategy);
        let out = execute(&planned.plan, &ds, &config).unwrap();
        let (header, vars): (Vec<String>, Vec<Var>) =
            planned.query.projection.iter().cloned().unzip();
        let mut rows: Vec<Vec<String>> = (0..out.table.len())
            .map(|i| {
                let term = |&v: &Var| out.term(&ds, out.table.value(v, i));
                vars.iter().map(|v| format!("{:?}", term(v))).collect()
            })
            .collect();
        if !text.contains("ORDER BY") {
            rows.sort();
        }
        (header, rows)
    };
    for shape in shapes {
        let rewritten = shape(&|v, c| format!("{v} = {c}"));
        let oracle = shape(&|v, c| format!("sameTerm({v}, {c})"));
        // CDP refuses the oracle's cross product; HSP plans every shape.
        let want = answer(&oracle, Planner::Hsp, ExecStrategy::OperatorAtATime);
        assert!(!want.1.is_empty(), "{oracle}");
        for kind in Planner::ALL {
            for strategy in [ExecStrategy::Pipelined, ExecStrategy::OperatorAtATime] {
                assert_eq!(
                    answer(&rewritten, kind, strategy),
                    want,
                    "{rewritten} via {kind:?}/{strategy:?}"
                );
            }
        }
    }
}
