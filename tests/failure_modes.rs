//! Failure-injection integration tests: malformed inputs, planner
//! rejections, and execution guards behave as documented.

use hsp_baseline::cdp::CdpError;
use hsp_baseline::CdpPlanner;
use hsp_core::HspPlanner;
use hsp_datagen::{generate_sp2bench, Sp2BenchConfig};
use hsp_engine::{execute, ExecConfig, ExecError, ExecStrategy};
use hsp_sparql::JoinQuery;
use hsp_store::Dataset;

fn small_ds() -> Dataset {
    generate_sp2bench(Sp2BenchConfig {
        target_triples: 5_000,
        seed: 99,
    })
}

#[test]
fn malformed_ntriples_reports_line() {
    let doc = "<http://e/a> <http://e/p> <http://e/b> .\nthis is garbage\n";
    let err = Dataset::from_ntriples(doc).unwrap_err();
    assert_eq!(err.line, 2);
}

#[test]
fn malformed_sparql_reports_offset() {
    let err = JoinQuery::parse("SELECT ?x WHERE { ?x <http://e/p> }").unwrap_err();
    assert!(err.to_string().contains("parse error"), "{err}");
}

#[test]
fn unbound_projection_rejected_at_algebra_level() {
    let err = JoinQuery::parse("SELECT ?nope WHERE { ?x <http://e/p> ?y . }").unwrap_err();
    assert!(err.to_string().contains("nope"));
}

#[test]
fn cdp_rejects_disconnected_queries() {
    let ds = small_ds();
    let q = JoinQuery::parse("SELECT ?x ?a WHERE { ?x <http://e/p> ?y . ?a <http://e/q> ?b . }")
        .unwrap();
    assert_eq!(
        CdpPlanner::new().plan(&ds, &q).unwrap_err(),
        CdpError::CrossProduct
    );
}

#[test]
fn executor_budget_guards_cartesian_products() {
    let ds = small_ds();
    let q = JoinQuery::parse(
        "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
         PREFIX bench: <http://localhost/vocabulary/bench/>
         SELECT ?x ?y WHERE {
            ?x rdf:type bench:Article . ?y rdf:type bench:Inproceedings . }",
    )
    .unwrap();
    // HSP plans the cross product (it does not refuse); the budget stops it.
    let planned = HspPlanner::new().plan(&q).unwrap();
    let err = execute(&planned.plan, &ds, &ExecConfig::with_row_budget(100)).unwrap_err();
    assert!(matches!(err, ExecError::BudgetExceeded { .. }));
    // Without a budget it completes.
    let ok = execute(&planned.plan, &ds, &ExecConfig::unlimited()).unwrap();
    assert!(ok.table.len() > 100);
}

#[test]
fn queries_over_unknown_vocabulary_return_empty_not_error() {
    let ds = small_ds();
    let q =
        JoinQuery::parse("SELECT ?x WHERE { ?x <http://nowhere/p> <http://nowhere/o> . }").unwrap();
    let planned = HspPlanner::new().plan(&q).unwrap();
    let out = execute(&planned.plan, &ds, &ExecConfig::unlimited()).unwrap();
    assert!(out.table.is_empty());
}

/// An unknown constant in one pattern of a merge-joined pair: the empty
/// scan must still declare the order its scan has, or the join above it
/// refuses its input.
#[test]
fn unknown_constant_under_a_merge_join_returns_empty_not_a_panic() {
    let ds = small_ds();
    let q = JoinQuery::parse(
        "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
         PREFIX bench: <http://localhost/vocabulary/bench/>
         PREFIX dcterms: <http://purl.org/dc/terms/>
         SELECT ?x WHERE { ?x rdf:type bench:Article . ?x dcterms:issued \"1066\" . }",
    )
    .unwrap();
    let planned = HspPlanner::new().plan(&q).unwrap();
    for strategy in [ExecStrategy::Pipelined, ExecStrategy::OperatorAtATime] {
        let config = ExecConfig::unlimited().with_strategy(strategy);
        let out = execute(&planned.plan, &ds, &config).unwrap();
        assert!(out.table.is_empty());
    }
}

#[test]
fn empty_dataset_executes_cleanly() {
    let ds = Dataset::from_ntriples("").unwrap();
    let q = JoinQuery::parse("SELECT ?x WHERE { ?x ?p ?o . ?o ?q ?z . }").unwrap();
    let planned = HspPlanner::new().plan(&q).unwrap();
    let out = execute(&planned.plan, &ds, &ExecConfig::unlimited()).unwrap();
    assert!(out.table.is_empty());
}

#[test]
fn filter_comparisons_execute() {
    let ds = small_ds();
    // Articles issued after 2005 (numeric comparison on literals).
    let q = JoinQuery::parse(
        "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
         PREFIX bench: <http://localhost/vocabulary/bench/>
         PREFIX dcterms: <http://purl.org/dc/terms/>
         SELECT ?x ?yr WHERE {
            ?x rdf:type bench:Article .
            ?x dcterms:issued ?yr .
            FILTER (?yr > 2005) }",
    )
    .unwrap();
    let planned = HspPlanner::new().plan(&q).unwrap();
    let out = execute(&planned.plan, &ds, &ExecConfig::unlimited()).unwrap();
    // Some articles are issued 2006–2010; all pass the filter.
    assert!(!out.table.is_empty());
    let yr_var = planned.query.projection[1].1;
    for i in 0..out.table.len() {
        let term = ds.dict().term(out.table.value(yr_var, i));
        let year: f64 = term.lexical().parse().unwrap();
        assert!(year > 2005.0);
    }
}

#[test]
fn distinct_deduplicates_end_to_end() {
    let ds = small_ds();
    let plain = JoinQuery::parse(
        "PREFIX dc: <http://purl.org/dc/elements/1.1/>
         SELECT ?c WHERE { ?x dc:creator ?c . }",
    )
    .unwrap();
    let distinct = JoinQuery::parse(
        "PREFIX dc: <http://purl.org/dc/elements/1.1/>
         SELECT DISTINCT ?c WHERE { ?x dc:creator ?c . }",
    )
    .unwrap();
    let p1 = HspPlanner::new().plan(&plain).unwrap();
    let p2 = HspPlanner::new().plan(&distinct).unwrap();
    let r1 = execute(&p1.plan, &ds, &ExecConfig::unlimited()).unwrap();
    let r2 = execute(&p2.plan, &ds, &ExecConfig::unlimited()).unwrap();
    assert!(r2.table.len() < r1.table.len());
    let mut unique = r1.table.sorted_rows();
    unique.dedup();
    assert_eq!(unique.len(), r2.table.len());
}

// --- failure modes of the post-paper extensions ---

#[test]
fn update_syntax_errors_are_reported() {
    use sparql_hsp::session::{Request, Session};
    let session = Session::new(small_ds());
    // Bare DELETE without DATA/WHERE.
    assert!(session
        .update(Request::new("DELETE { ?s ?p ?o . }"))
        .is_err());
    // INSERT WHERE is not an implemented form.
    assert!(session
        .update(Request::new("INSERT WHERE { ?s ?p ?o . }"))
        .is_err());
    // Variables in a DATA block.
    assert!(session
        .update(Request::new("INSERT DATA { ?x <http://e/p> \"v\" . }"))
        .is_err());
    // A failed update publishes nothing.
    assert_eq!(session.snapshot().len(), small_ds().len());
}

#[test]
fn regex_compile_error_in_filter_drops_all_rows() {
    // A REGEX with an invalid pattern is a per-row evaluation error, which
    // FILTER semantics turn into "keep nothing" — not a query failure.
    let ds = small_ds();
    let q = JoinQuery::parse(
        r#"SELECT ?x WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?c . FILTER regex(?x, "(") }"#,
    )
    .unwrap();
    let planned = HspPlanner::new().plan(&q).unwrap();
    let out = execute(&planned.plan, &ds, &ExecConfig::unlimited()).unwrap();
    assert!(out.table.is_empty());
}

#[test]
fn type_errors_in_filters_drop_rows_not_queries() {
    // LANG of an IRI is a type error per row, so all rows drop; the query
    // itself succeeds.
    let ds = small_ds();
    let q = JoinQuery::parse(
        r#"SELECT ?x WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?c . FILTER (lang(?c) = "en") }"#,
    )
    .unwrap();
    let planned = HspPlanner::new().plan(&q).unwrap();
    let out = execute(&planned.plan, &ds, &ExecConfig::unlimited()).unwrap();
    assert!(out.table.is_empty());
}

#[test]
fn order_by_limit_zero_and_huge_offset() {
    let ds = small_ds();
    let q = JoinQuery::parse("SELECT ?s WHERE { ?s ?p ?o . } ORDER BY ?s LIMIT 0").unwrap();
    let planned = HspPlanner::new().plan(&q).unwrap();
    let out = execute(&planned.plan, &ds, &ExecConfig::unlimited()).unwrap();
    assert!(out.table.is_empty());

    let q = JoinQuery::parse("SELECT ?s WHERE { ?s ?p ?o . } OFFSET 99999999").unwrap();
    let planned = HspPlanner::new().plan(&q).unwrap();
    let out = execute(&planned.plan, &ds, &ExecConfig::unlimited()).unwrap();
    assert!(out.table.is_empty());
}

#[test]
fn stocker_on_empty_dataset_is_graceful() {
    use hsp_baseline::StockerPlanner;
    let ds = Dataset::from_ntriples("").unwrap();
    let q = JoinQuery::parse("SELECT ?s WHERE { ?s <http://e/p> ?o . }").unwrap();
    let plan = StockerPlanner::new().plan(&ds, &q).unwrap();
    let out = execute(&plan.plan, &ds, &ExecConfig::unlimited()).unwrap();
    assert!(out.table.is_empty());
}
