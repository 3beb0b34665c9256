//! Byte-identity of the pipeline executor against the operator-at-a-time
//! oracle: for randomly generated SP²Bench- and YAGO-shaped datasets and
//! plans, `execute` (pipeline lowering, the default) must produce a
//! [`BindingTable`] **equal in every field** — values, column order,
//! sortedness metadata, row count — to
//! [`ExecStrategy::OperatorAtATime`]'s output, at forced thread counts
//! 1–4 with tiny morsels (so even these small inputs split across
//! workers), and the per-operator [`Profile`] cardinalities must agree
//! row for row. The memory budget's refusal of a Cartesian product is
//! part of that contract: both executors refuse it at the same site
//! before it materialises, and a refusal drains.

use hsp_engine::exec::{execute_in, ExecConfig, ExecError, ExecStrategy};
use hsp_engine::{BindingTable, ExecContext, MorselConfig, PhysicalPlan};
use hsp_rdf::Term;
use hsp_sparql::{CmpOp, Expr, FilterExpr, TermOrVar, TriplePattern, Var};
use hsp_store::{Dataset, Order};
use proptest::prelude::*;

fn cv(name: &str) -> TermOrVar {
    TermOrVar::Const(Term::iri(format!("http://e/{name}")))
}

fn vv(i: u32) -> TermOrVar {
    TermOrVar::Var(Var(i))
}

fn scan(idx: usize, s: TermOrVar, p: TermOrVar, o: TermOrVar, order: Order) -> PhysicalPlan {
    PhysicalPlan::Scan {
        pattern_idx: idx,
        pattern: TriplePattern::new(s, p, o),
        order,
    }
}

/// An SP²Bench-shaped micro graph: articles cite articles, have numeric
/// years and venues — enough fan-out that joins produce skewed groups.
fn sp2b_doc(cites: &[(u8, u8)], years: &[(u8, u8)]) -> String {
    let mut doc = String::new();
    for &(a, b) in cites {
        doc.push_str(&format!(
            "<http://e/art{a}> <http://e/cites> <http://e/art{b}> .\n"
        ));
    }
    for &(a, y) in years {
        doc.push_str(&format!(
            "<http://e/art{a}> <http://e/year> \"{}\" .\n",
            1990 + (y as u32 % 30)
        ));
    }
    doc
}

/// A YAGO-shaped star: entities with several attribute predicates hanging
/// off the same subject variable.
fn yago_doc(facts: &[(u8, u8, u8)]) -> String {
    let preds = ["bornIn", "livesIn", "worksAt"];
    let mut doc = String::new();
    for &(s, p, o) in facts {
        doc.push_str(&format!(
            "<http://e/e{s}> <http://e/{}> <http://e/c{o}> .\n",
            preds[p as usize % preds.len()]
        ));
    }
    doc
}

/// Execute `plan` under the oracle and under the pipeline executor at
/// forced thread counts 1–4 (tiny morsels, no row threshold) and assert
/// byte-identical tables and identical per-operator cardinalities.
fn assert_pipeline_matches_oracle(ds: &Dataset, plan: &PhysicalPlan) -> Result<(), TestCaseError> {
    let oracle_config = ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime);
    let oracle = execute_in(plan, ds, &oracle_config, &oracle_config.context())
        .expect("oracle execution succeeds");
    let pipeline_config = ExecConfig::unlimited();
    for threads in 1..=4usize {
        let ctx = ExecContext::with_morsel_config(
            MorselConfig::with_threads(threads)
                .with_morsel_rows(4)
                .with_min_parallel_rows(0),
        );
        let out =
            execute_in(plan, ds, &pipeline_config, &ctx).expect("pipeline execution succeeds");
        prop_assert_eq!(&out.table, &oracle.table, "threads={}", threads);
        let mut got = Vec::new();
        out.profile
            .visit(&mut |p| got.push((p.label.clone(), p.output_rows)));
        let mut want = Vec::new();
        oracle
            .profile
            .visit(&mut |p| want.push((p.label.clone(), p.output_rows)));
        prop_assert_eq!(got, want, "profile diverges at threads={}", threads);
    }
    Ok(())
}

proptest! {
    /// SP²Bench-shaped chain: cites ⋈ cites ⋈ year with a numeric FILTER —
    /// the canonical scan → probe → probe → filter pipeline.
    #[test]
    fn sp2b_probe_chain_matches_oracle(
        cites in proptest::collection::vec((0u8..12, 0u8..12), 0..40),
        years in proptest::collection::vec((0u8..12, 0u8..30), 0..20),
    ) {
        let ds = Dataset::from_ntriples(&sp2b_doc(&cites, &years)).unwrap();
        // ?a cites ?b . ?b cites ?c . ?b year ?y . FILTER(?y > 1995)
        let plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::HashJoin {
                left: Box::new(PhysicalPlan::HashJoin {
                    left: Box::new(scan(0, vv(0), cv("cites"), vv(1), Order::Pso)),
                    right: Box::new(scan(1, vv(1), cv("cites"), vv(2), Order::Pso)),
                    vars: vec![Var(1)],
                }),
                right: Box::new(scan(2, vv(1), cv("year"), vv(3), Order::Pso)),
                vars: vec![Var(1)],
            }),
            expr: FilterExpr::Complex(Expr::cmp(
                CmpOp::Gt,
                Expr::Var(Var(3)),
                Expr::Const(Term::literal("1995")),
            )),
        };
        assert_pipeline_matches_oracle(&ds, &plan)?;
    }

    /// Merge-join + pipeline mix: a sorted merge join feeds a probe +
    /// filter pipeline, topped by projection / ORDER BY / slice breakers —
    /// every breaker kind in one plan.
    /// (Both inputs are kept non-empty: a scan over a predicate missing
    /// from the dictionary loses its static sortedness — in both
    /// executors — and the merge join rejects it before either runs.)
    #[test]
    fn sp2b_modifier_stack_matches_oracle(
        cites in proptest::collection::vec((0u8..10, 0u8..10), 1..30),
        years in proptest::collection::vec((0u8..10, 0u8..30), 1..15),
        offset in 0usize..5,
        limit in 1usize..8,
        distinct in any::<bool>(),
    ) {
        let ds = Dataset::from_ntriples(&sp2b_doc(&cites, &years)).unwrap();
        // mergejoin(?a cites ?b, ?a year ?y) ⋈hj (?b year ?z), project,
        // order by ?y, slice.
        let plan = PhysicalPlan::Slice {
            input: Box::new(PhysicalPlan::OrderBy {
                input: Box::new(PhysicalPlan::Project {
                    input: Box::new(PhysicalPlan::HashJoin {
                        left: Box::new(PhysicalPlan::MergeJoin {
                            left: Box::new(scan(0, vv(0), cv("cites"), vv(1), Order::Pso)),
                            right: Box::new(scan(1, vv(0), cv("year"), vv(2), Order::Pso)),
                            var: Var(0),
                        }),
                        right: Box::new(scan(2, vv(1), cv("year"), vv(3), Order::Pso)),
                        vars: vec![Var(1)],
                    }),
                    projection: vec![("a".into(), Var(0)), ("y".into(), Var(2))],
                    distinct,
                }),
                keys: vec![hsp_sparql::SortKey {
                    expr: hsp_sparql::Expr::Var(Var(2)),
                    descending: false,
                }],
            }),
            offset,
            limit: Some(limit),
        };
        assert_pipeline_matches_oracle(&ds, &plan)?;
    }

    /// YAGO-shaped star join on one subject variable: probe chains where
    /// every build side shares the same variable, plus a repeated-variable
    /// extra check (?0 appears in all three patterns).
    #[test]
    fn yago_star_matches_oracle(
        facts in proptest::collection::vec((0u8..10, 0u8..3, 0u8..6), 0..40),
    ) {
        let ds = Dataset::from_ntriples(&yago_doc(&facts)).unwrap();
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(PhysicalPlan::HashJoin {
                left: Box::new(scan(0, vv(0), cv("bornIn"), vv(1), Order::Pso)),
                right: Box::new(scan(1, vv(0), cv("livesIn"), vv(2), Order::Pso)),
                vars: vec![Var(0)],
            }),
            right: Box::new(scan(2, vv(0), cv("worksAt"), vv(3), Order::Pso)),
            vars: vec![Var(0)],
        };
        assert_pipeline_matches_oracle(&ds, &plan)?;
    }

    /// A join whose inputs share a *non-key* variable exercises the probe
    /// stage's extra-check path (the repeated-variable verification that
    /// the operator-at-a-time join does through `extra_pairs`).
    #[test]
    fn shared_non_key_variable_matches_oracle(
        facts in proptest::collection::vec((0u8..6, 0u8..3, 0u8..4), 0..35),
    ) {
        let ds = Dataset::from_ntriples(&yago_doc(&facts)).unwrap();
        // Both sides bind ?0 and ?1: join on ?0, verify ?1 as extra.
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(scan(0, vv(0), cv("bornIn"), vv(1), Order::Pso)),
            right: Box::new(PhysicalPlan::HashJoin {
                left: Box::new(scan(1, vv(0), cv("livesIn"), vv(1), Order::Pso)),
                right: Box::new(scan(2, vv(0), cv("worksAt"), vv(2), Order::Pso)),
                vars: vec![Var(0)],
            }),
            vars: vec![Var(0), Var(1)],
        };
        assert_pipeline_matches_oracle(&ds, &plan)?;
    }

    /// OPTIONAL chain: two left-outer probes over the cites graph —
    /// `?a cites ?b OPTIONAL { ?b year ?y } OPTIONAL { ?b cites ?c }` —
    /// unmatched rows carry UNBOUND, and the whole chain runs as one
    /// pipeline with outer-probe stages.
    #[test]
    fn optional_chain_matches_oracle(
        cites in proptest::collection::vec((0u8..10, 0u8..10), 0..30),
        years in proptest::collection::vec((0u8..10, 0u8..30), 0..12),
    ) {
        let ds = Dataset::from_ntriples(&sp2b_doc(&cites, &years)).unwrap();
        let plan = PhysicalPlan::LeftOuterHashJoin {
            left: Box::new(PhysicalPlan::LeftOuterHashJoin {
                left: Box::new(scan(0, vv(0), cv("cites"), vv(1), Order::Pso)),
                right: Box::new(scan(1, vv(1), cv("year"), vv(2), Order::Pso)),
                vars: vec![Var(1)],
            }),
            right: Box::new(scan(2, vv(1), cv("cites"), vv(3), Order::Pso)),
            vars: vec![Var(1)],
        };
        assert_pipeline_matches_oracle(&ds, &plan)?;
        // The chain is one pipeline whose outer probes stream.
        let out = execute_in(
            &plan,
            &ds,
            &ExecConfig::unlimited(),
            &ExecConfig::unlimited().context(),
        )
        .expect("pipeline runs");
        prop_assert!(out.runtime.pipelines > 0);
        prop_assert_eq!(out.runtime.pipeline_outer_probes, 2);
    }

    /// OPTIONAL under a FILTER and a plain root projection: the filter
    /// reads the nullable (UNBOUND-padded) column, and the projection
    /// folds into the pipeline sink instead of breaking.
    #[test]
    fn root_projection_over_optional_matches_oracle(
        cites in proptest::collection::vec((0u8..10, 0u8..10), 0..30),
        years in proptest::collection::vec((0u8..10, 0u8..30), 0..12),
        keep_year in 1990u32..2020,
    ) {
        let ds = Dataset::from_ntriples(&sp2b_doc(&cites, &years)).unwrap();
        let plan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::LeftOuterHashJoin {
                    left: Box::new(scan(0, vv(0), cv("cites"), vv(1), Order::Pso)),
                    right: Box::new(scan(1, vv(1), cv("year"), vv(2), Order::Pso)),
                    vars: vec![Var(1)],
                }),
                expr: FilterExpr::Complex(Expr::cmp(
                    CmpOp::Ne,
                    Expr::Var(Var(2)),
                    Expr::Const(Term::literal(keep_year.to_string())),
                )),
            }),
            projection: vec![("a".into(), Var(0)), ("y".into(), Var(2))],
            distinct: false,
        };
        assert_pipeline_matches_oracle(&ds, &plan)?;
        let out = execute_in(
            &plan,
            &ds,
            &ExecConfig::unlimited(),
            &ExecConfig::unlimited().context(),
        )
        .expect("pipeline runs");
        prop_assert!(out.runtime.pipelines > 0);
        prop_assert_eq!(out.runtime.pipeline_outer_probes, 1);
    }

    /// Plain root projection over a breaker (a merge join with a
    /// sort-enforced side, which no merge block absorbs): the breaker's
    /// single-consumer output hands off to the projection pipeline, whose
    /// sink moves the projected columns instead of copying.
    #[test]
    fn projection_handoff_over_merge_join_matches_oracle(
        cites in proptest::collection::vec((0u8..10, 0u8..10), 1..30),
        years in proptest::collection::vec((0u8..10, 0u8..30), 1..12),
    ) {
        let ds = Dataset::from_ntriples(&sp2b_doc(&cites, &years)).unwrap();
        let plan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::MergeJoin {
                left: Box::new(PhysicalPlan::Sort {
                    input: Box::new(scan(0, vv(0), cv("cites"), vv(1), Order::Pso)),
                    var: Var(0),
                }),
                right: Box::new(scan(1, vv(0), cv("year"), vv(2), Order::Pso)),
                var: Var(0),
            }),
            projection: vec![("y".into(), Var(2)), ("a".into(), Var(0))],
            distinct: false,
        };
        assert_pipeline_matches_oracle(&ds, &plan)?;
        let out = execute_in(
            &plan,
            &ds,
            &ExecConfig::unlimited(),
            &ExecConfig::unlimited().context(),
        )
        .expect("pipeline runs");
        prop_assert!(out.runtime.breaker_handoffs > 0);
    }

    /// Cross products (breakers) interleaved with a streaming filter.
    #[test]
    fn cross_product_with_filter_matches_oracle(
        facts in proptest::collection::vec((0u8..5, 0u8..1, 0u8..4), 0..20),
        years in proptest::collection::vec((0u8..5, 0u8..30), 0..10),
    ) {
        let mut doc = yago_doc(&facts);
        doc.push_str(&sp2b_doc(&[], &years));
        let ds = Dataset::from_ntriples(&doc).unwrap();
        let plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::CrossProduct {
                left: Box::new(scan(0, vv(0), cv("bornIn"), vv(1), Order::Pso)),
                right: Box::new(scan(1, vv(2), cv("year"), vv(3), Order::Pso)),
            }),
            expr: FilterExpr::Complex(Expr::cmp(
                CmpOp::Lt,
                Expr::Var(Var(3)),
                Expr::Const(Term::literal("2005")),
            )),
        };
        assert_pipeline_matches_oracle(&ds, &plan)?;
    }
}

#[test]
fn empty_dataset_all_plan_shapes() {
    let ds = Dataset::from_ntriples("").unwrap();
    let plans = [
        scan(0, vv(0), cv("cites"), vv(1), Order::Pso),
        PhysicalPlan::HashJoin {
            left: Box::new(scan(0, vv(0), cv("cites"), vv(1), Order::Pso)),
            right: Box::new(scan(1, vv(1), cv("year"), vv(2), Order::Pso)),
            vars: vec![Var(1)],
        },
    ];
    for plan in &plans {
        let oracle = execute_in(
            plan,
            &ds,
            &ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime),
            &ExecConfig::unlimited().context(),
        )
        .unwrap();
        let out = execute_in(
            plan,
            &ds,
            &ExecConfig::unlimited(),
            &ExecConfig::unlimited().context(),
        )
        .unwrap();
        assert_eq!(out.table, oracle.table);
    }
}

/// The sort order-enforcer (a breaker) between two pipelines: scan → sort →
/// merge join, at every thread count.
#[test]
fn sort_enforcer_feeds_merge_join_identically() {
    let mut doc = String::new();
    for i in 0..200u32 {
        doc.push_str(&format!(
            "<http://e/a{}> <http://e/p> <http://e/b{}> .\n",
            i % 40,
            (i * 7) % 23
        ));
        doc.push_str(&format!(
            "<http://e/b{}> <http://e/q> \"{}\" .\n",
            i % 23,
            i % 9
        ));
    }
    let ds = Dataset::from_ntriples(&doc).unwrap();
    // ?a p ?b sorted by ?b via POS? No: enforce with Sort instead.
    let plan = PhysicalPlan::MergeJoin {
        left: Box::new(PhysicalPlan::Sort {
            input: Box::new(scan(0, vv(0), cv("p"), vv(1), Order::Pso)),
            var: Var(1),
        }),
        right: Box::new(scan(1, vv(1), cv("q"), vv(2), Order::Pso)),
        var: Var(1),
    };
    let oracle = execute_in(
        &plan,
        &ds,
        &ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime),
        &ExecConfig::unlimited().context(),
    )
    .unwrap();
    for threads in 1..=4usize {
        let ctx = ExecContext::with_morsel_config(
            MorselConfig::with_threads(threads)
                .with_morsel_rows(8)
                .with_min_parallel_rows(0),
        );
        let out = execute_in(&plan, &ds, &ExecConfig::unlimited(), &ctx).unwrap();
        assert_eq!(out.table, oracle.table, "threads={threads}");
    }
}

/// BindingTable sanity for the proptest harness itself: the oracle and the
/// pipeline must even agree on a zero-row filter result's metadata.
#[test]
fn empty_filter_result_metadata_matches() {
    let ds = Dataset::from_ntriples("<http://e/a> <http://e/year> \"1990\" .\n").unwrap();
    let plan = PhysicalPlan::Filter {
        input: Box::new(scan(0, vv(0), cv("year"), vv(1), Order::Pso)),
        expr: FilterExpr::Complex(Expr::cmp(
            CmpOp::Gt,
            Expr::Var(Var(1)),
            Expr::Const(Term::literal("3000")),
        )),
    };
    let oracle = execute_in(
        &plan,
        &ds,
        &ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime),
        &ExecConfig::unlimited().context(),
    )
    .unwrap();
    let out = execute_in(
        &plan,
        &ds,
        &ExecConfig::unlimited(),
        &ExecConfig::unlimited().context(),
    )
    .unwrap();
    assert!(out.table.is_empty());
    assert_eq!(out.table, oracle.table);
    let _: &BindingTable = &out.table;
}

/// Memory-budget parity on the Cartesian product: the SQL-order SP4a plan,
/// whose product is what the paper prints `XXX` for, and the paper's 14
/// HSP plans beside it. Under budgets below and at the product's output
/// bytes, pipelines and oracle, sequential and forced 4-thread, both
/// refuse it at `crossproduct`, before it materialises, with the same
/// bytes asked; under a budget above all either executor charged or asked
/// both return the same table; every trip leaves the memory account at
/// zero.
#[test]
fn memory_budget_parity_with_the_oracle() {
    use hsp_datagen::{generate_sp2bench, generate_yago, workload, DatasetKind};

    let sp2b = generate_sp2bench(hsp_datagen::Sp2BenchConfig::with_triples(12_000));
    let yago = generate_yago(hsp_datagen::YagoConfig::with_triples(12_000));
    let mut plans: Vec<(String, PhysicalPlan, &Dataset)> = Vec::new();
    for q in workload() {
        let ds = match q.dataset {
            DatasetKind::Sp2Bench => &sp2b,
            DatasetKind::Yago => &yago,
        };
        let planned = hsp_core::HspPlanner::new().plan(&q.parse()).unwrap();
        plans.push((q.id.to_string(), planned.plan, ds));
        if q.id == "SP4a" {
            let sql = hsp_baseline::LeftDeepPlanner::new()
                .plan(ds, &q.parse())
                .unwrap();
            assert!(
                sql.has_cross_product,
                "SQL-order SP4a is the Cartesian plan"
            );
            plans.push(("SP4a/sql".into(), sql.plan, ds));
        }
    }
    assert_eq!(plans.len(), 15);

    let run = |plan: &PhysicalPlan,
               ds: &Dataset,
               strategy: ExecStrategy,
               budget: usize,
               threads: usize| {
        let config = ExecConfig::unlimited()
            .with_strategy(strategy)
            .with_mem_budget(budget);
        let ctx = config.context_with(
            MorselConfig::with_threads(threads)
                .with_morsel_rows(128)
                .with_min_parallel_rows(0),
        );
        let result = execute_in(plan, ds, &config, &ctx);
        let gov = ctx.governor().expect("a budget attaches a governor");
        if result.is_err() {
            assert_eq!(gov.mem_used(), 0, "{strategy:?} leaked memory accounting");
        }
        (result, gov.mem_peak())
    };

    let mut products = 0;
    for (id, plan, ds) in &plans {
        let unlimited = ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime);
        let reference = execute_in(plan, ds, &unlimited, &unlimited.context()).unwrap();
        let mut width = 0;
        plan.visit(&mut |p| {
            if matches!(p, PhysicalPlan::CrossProduct { .. }) {
                width = p.output_vars().len();
            }
        });
        let mut product_rows = 0;
        reference.profile.visit(&mut |p| {
            if p.label == "crossproduct" {
                product_rows = p.output_rows;
            }
        });
        let product_bytes = product_rows * width * std::mem::size_of::<u32>();
        for threads in [1, 4] {
            // Below and at the product's output bytes: refused at
            // `crossproduct`, the same bytes asked on top of the inputs.
            let mut asked = 0;
            for budget in [product_bytes.saturating_sub(1), product_bytes] {
                if product_bytes == 0 {
                    break;
                }
                let at = format!("{id} budget={budget} threads={threads}");
                let (oracle, _) = run(plan, ds, ExecStrategy::OperatorAtATime, budget, threads);
                let (piped, peak) = run(plan, ds, ExecStrategy::Pipelined, budget, threads);
                match oracle {
                    Err(ExecError::MemoryBudgetExceeded {
                        site: "crossproduct",
                        used,
                        ..
                    }) => asked = used,
                    other => panic!("{at}: the oracle ran the product: {other:?}"),
                }
                assert_eq!(
                    piped.map(|p| p.table.len()),
                    oracle.map(|o| o.table.len()),
                    "{at}"
                );
                // Refused, not built: the inputs were the most the
                // execution ever held.
                assert!(peak < product_bytes, "{at}: peak {peak} bytes");
                products += 1;
            }
            // Above what either executor charged or asked: the same table.
            let peak = |strategy| run(plan, ds, strategy, usize::MAX, threads).1;
            let above = peak(ExecStrategy::OperatorAtATime)
                .max(peak(ExecStrategy::Pipelined))
                .max(asked);
            for budget in [above, usize::MAX] {
                let at = format!("{id} budget={budget} threads={threads}");
                let (oracle, _) = run(plan, ds, ExecStrategy::OperatorAtATime, budget, threads);
                let (piped, _) = run(plan, ds, ExecStrategy::Pipelined, budget, threads);
                let (oracle, piped) = (oracle.expect(&at), piped.expect(&at));
                assert_eq!(piped.table, oracle.table, "{at}");
            }
        }
    }
    // SP4a/sql's product, below and at its bytes, at both thread counts.
    assert_eq!(products, 4);
}
