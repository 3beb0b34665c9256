//! Pipeline executor vs operator-at-a-time oracle at query level: all 14
//! workload queries on the generated SP2Bench-like and YAGO-like datasets
//! must come out byte-identical under both strategies at thread budgets
//! 1–4, and OPTIONAL/UNION queries — which reach the engine through
//! `execute_in` on the extended evaluator's shared context — must agree
//! too.

use std::sync::OnceLock;

use hsp_bench::planners::{plan_query, PlannerKind};
use hsp_bench::{BenchEnv, EnvConfig};
use hsp_datagen::workload;
use hsp_engine::{execute, ExecConfig, ExecStrategy, RuntimeMetrics};
use sparql_hsp::extended::{evaluate_extended_in, ExtendedError, ExtendedOutput};

fn env() -> &'static BenchEnv {
    static ENV: OnceLock<BenchEnv> = OnceLock::new();
    ENV.get_or_init(|| BenchEnv::load(EnvConfig::small()))
}

/// [`evaluate_extended_in`] in a fresh context of `config`.
fn evaluate_extended_with(
    ds: &hsp_store::Dataset,
    text: &str,
    config: &ExecConfig,
) -> Result<ExtendedOutput, ExtendedError> {
    evaluate_extended_in(ds, text, config, &config.context())
}

#[test]
fn workload_queries_pipeline_matches_oracle_at_all_thread_counts() {
    let env = env();
    for q in workload() {
        let parsed = q.parse();
        let ds = env.dataset(q.dataset);
        let planned = plan_query(PlannerKind::Hsp, ds, &parsed)
            .unwrap_or_else(|e| panic!("{} failed to plan: {e}", q.id));
        let oracle = execute(
            &planned.plan,
            ds,
            &ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime),
        )
        .unwrap_or_else(|e| panic!("{} oracle failed: {e}", q.id));
        for threads in 1..=4usize {
            let out = execute(
                &planned.plan,
                ds,
                &ExecConfig::unlimited().with_threads(threads),
            )
            .unwrap_or_else(|e| panic!("{} pipeline (t={threads}) failed: {e}", q.id));
            assert_eq!(
                out.table, oracle.table,
                "{} diverges from the oracle at threads={threads}",
                q.id
            );
            assert_eq!(
                out.profile.total_intermediate_rows(),
                oracle.profile.total_intermediate_rows(),
                "{} profile cardinalities diverge at threads={threads}",
                q.id
            );
        }
    }
}

#[test]
fn optional_union_blocks_pipeline_matches_oracle() {
    let env = env();
    let ds = env.dataset(hsp_datagen::DatasetKind::Sp2Bench);
    // OPTIONAL and UNION evaluate block-by-block through `execute_in` on
    // one shared context; each block plan takes the pipeline path.
    let queries = [
        "SELECT ?a ?y WHERE { ?a <http://purl.org/dc/elements/1.1/creator> ?b . \
         OPTIONAL { ?a <http://purl.org/dc/terms/issued> ?y . } }",
        "SELECT ?a WHERE { { ?a <http://purl.org/dc/elements/1.1/creator> ?b . } UNION \
         { ?a <http://purl.org/dc/terms/issued> ?y . } }",
        "SELECT ?a ?j ?y WHERE { ?a <http://swrc.ontoware.org/ontology#journal> ?j . \
         OPTIONAL { ?j <http://purl.org/dc/terms/issued> ?y . } \
         FILTER (?a != ?j) }",
    ];
    for text in queries {
        let oracle = evaluate_extended_with(
            ds,
            text,
            &ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime),
        )
        .unwrap_or_else(|e| panic!("oracle failed for {text}: {e}"));
        for threads in 1..=4usize {
            let out =
                evaluate_extended_with(ds, text, &ExecConfig::unlimited().with_threads(threads))
                    .unwrap_or_else(|e| panic!("pipeline (t={threads}) failed for {text}: {e}"));
            assert_eq!(out.columns, oracle.columns, "columns diverge for {text}");
            assert_eq!(
                out.rows, oracle.rows,
                "rows diverge for {text} at threads={threads}"
            );
        }
    }
}

/// OPTIONAL-heavy queries compose into one plan whose left-outer probes
/// *stream*: byte-identical rows vs the operator-at-a-time oracle at
/// forced threads 1–4, with the pipeline/outer-probe counters proving the
/// pipelined path actually ran end to end.
#[test]
fn optional_queries_stream_through_outer_probe_pipelines() {
    let env = env();
    let ds = env.dataset(hsp_datagen::DatasetKind::Sp2Bench);
    // swrc:month is sparse by construction, so OPTIONAL blocks over it pad
    // a real fraction of rows with UNBOUND.
    let queries = [
        // Core + two OPTIONAL blocks.
        "SELECT ?a ?y ?m WHERE { ?a <http://purl.org/dc/elements/1.1/creator> ?b . \
         OPTIONAL { ?a <http://purl.org/dc/terms/issued> ?y . } \
         OPTIONAL { ?a <http://swrc.ontoware.org/ontology#month> ?m . } }",
        // OPTIONAL with a FILTER inside the block.
        "SELECT ?a ?p WHERE { ?a <http://purl.org/dc/elements/1.1/creator> ?b . \
         OPTIONAL { ?a <http://swrc.ontoware.org/ontology#pages> ?p . FILTER (?p > \"50\") } }",
        // Group FILTER over the OPTIONAL's (possibly UNBOUND) variable.
        "SELECT ?a ?y WHERE { ?a <http://swrc.ontoware.org/ontology#journal> ?j . \
         OPTIONAL { ?a <http://purl.org/dc/terms/issued> ?y . } \
         FILTER (?a != ?j) }",
    ];
    for text in queries {
        let oracle = evaluate_extended_with(
            ds,
            text,
            &ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime),
        )
        .unwrap_or_else(|e| panic!("oracle failed for {text}: {e}"));
        for threads in 1..=4usize {
            let config = ExecConfig::unlimited().with_threads(threads);
            let ctx = config.context();
            let out = evaluate_extended_in(ds, text, &config, &ctx)
                .unwrap_or_else(|e| panic!("pipeline (t={threads}) failed for {text}: {e}"));
            assert_eq!(out.columns, oracle.columns, "columns diverge for {text}");
            assert_eq!(
                out.rows, oracle.rows,
                "rows diverge for {text} at threads={threads}"
            );
            let metrics = RuntimeMetrics::of(&ctx);
            assert!(
                metrics.pipelines > 0,
                "{text} (t={threads}) should run pipelined: {metrics:?}"
            );
            assert!(
                metrics.pipeline_outer_probes > 0,
                "{text} (t={threads}) should stream its OPTIONAL probe: {metrics:?}"
            );
        }
    }
}

/// The oracle strategy must drive the composed OPTIONAL plan through the
/// operator-at-a-time evaluator — no pipelines — while producing the same
/// rows; the per-operator profile cardinalities of the two executors agree
/// (checked through `execute` on the same composed shape in
/// `engine/tests/pipeline_exec.rs`; here we pin the counter contract).
#[test]
fn oracle_strategy_runs_optional_queries_without_pipelines() {
    let env = env();
    let ds = env.dataset(hsp_datagen::DatasetKind::Sp2Bench);
    let text = "SELECT ?a ?y WHERE { ?a <http://purl.org/dc/elements/1.1/creator> ?b . \
         OPTIONAL { ?a <http://purl.org/dc/terms/issued> ?y . } }";
    let config = ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime);
    let ctx = config.context();
    let out = evaluate_extended_in(ds, text, &config, &ctx).expect("oracle runs");
    assert!(!out.rows.is_empty());
    let metrics = RuntimeMetrics::of(&ctx);
    assert_eq!(metrics.pipelines, 0);
    assert_eq!(metrics.pipeline_outer_probes, 0);
}
