//! Pipeline executor vs operator-at-a-time oracle at query level: all 14
//! workload queries on the generated SP2Bench-like and YAGO-like datasets
//! must come out byte-identical under both strategies at thread budgets
//! 1–4, and OPTIONAL/UNION queries — each composed into one plan and run
//! by one `execute_in` — must agree too. The differential suite at the
//! bottom checks every composed shape against a row-at-a-time reference
//! evaluation of the AST as well.

use std::collections::HashMap;
use std::sync::OnceLock;

use hsp_bench::planners::{plan_query, PlannerKind};
use hsp_bench::{BenchEnv, EnvConfig};
use hsp_datagen::workload;
use hsp_engine::{execute, ExecConfig, ExecError, ExecStrategy, MorselConfig, RuntimeMetrics};
use hsp_rdf::{Term, Triple};
use hsp_sparql::ast::{Element, ExprAst, GroupPattern, NodeAst, TriplePatternAst};
use hsp_sparql::Var;
use sparql_hsp::extended::{evaluate_extended_in, ExtendedError, ExtendedOutput};
use sparql_hsp::results::{self, Format};
use sparql_hsp::serve::{Client, ServeConfig, Server};
use sparql_hsp::session::{Request, Session, SessionOptions};

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
    // OPTIONAL and UNION compose with their HSP-planned blocks into one
    // plan; the whole of it takes the pipeline path.
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

// ------------------------------------------------ composed plans, differentially

/// A handful of people: two share a name (DISTINCT has work to do), the
/// optional properties are sparse, and nobody has a fax.
const PEOPLE: &str = r#"<http://e/a1> <http://e/name> "Alice" .
<http://e/a1> <http://e/email> "alice@example.org" .
<http://e/a1> <http://e/knows> <http://e/a2> .
<http://e/a2> <http://e/name> "Bob" .
<http://e/a2> <http://e/knows> <http://e/a3> .
<http://e/a2> <http://e/knows> <http://e/a4> .
<http://e/a2> <http://e/homepage> "http://bob.example.org/" .
<http://e/a3> <http://e/name> "Carol" .
<http://e/a3> <http://e/email> "carol@example.org" .
<http://e/a3> <http://e/phone> "555-1234" .
<http://e/a4> <http://e/name> "Bob" .
<http://e/a4> <http://e/phone> "555-9999" .
"#;

/// `(projected variables, WHERE body)` — every way a group composes.
const SHAPES: [(&str, &str); 14] = [
    // Nested OPTIONAL, two deep.
    (
        "?n ?e ?h",
        "?p e:name ?n . OPTIONAL { ?p e:knows ?q . OPTIONAL { ?q e:email ?e . \
         OPTIONAL { ?q e:phone ?h . } } }",
    ),
    // OPTIONAL keyed on a variable only an earlier OPTIONAL binds.
    (
        "?n ?q ?e",
        "?p e:name ?n . OPTIONAL { ?p e:homepage ?w . ?p e:knows ?q . } \
         OPTIONAL { ?q e:email ?e . }",
    ),
    // Keyless OPTIONAL: every pairing …
    ("?h ?e", "?p e:phone ?h . OPTIONAL { ?q e:email ?e . }"),
    // … and padding when the optional side has no solution.
    ("?h ?f", "?p e:phone ?h . OPTIONAL { ?q e:fax ?f . }"),
    // UNION-only groups: equal and different variable sets.
    ("?p ?c", "{ ?p e:email ?c . } UNION { ?p e:phone ?c . }"),
    ("?p ?e ?h", "{ ?p e:email ?e . } UNION { ?p e:phone ?h . }"),
    // UNION joined to a core: on a shared variable, and sharing none.
    (
        "?n ?c",
        "?p e:name ?n . { ?p e:email ?c . } UNION { ?p e:phone ?c . }",
    ),
    (
        "?w ?c",
        "?p e:homepage ?w . { ?q e:email ?c . } UNION { ?q e:phone ?c . }",
    ),
    // UNION inside OPTIONAL, OPTIONAL inside a UNION branch.
    (
        "?n ?c",
        "?p e:name ?n . OPTIONAL { { ?p e:email ?c . } UNION { ?p e:homepage ?c . } }",
    ),
    (
        "?p ?c ?h",
        "{ ?p e:email ?c . OPTIONAL { ?p e:phone ?h . } } UNION { ?p e:homepage ?c . }",
    ),
    // FILTERs over unbound values: from an OPTIONAL, and bound nowhere.
    (
        "?n",
        "?p e:name ?n . OPTIONAL { ?p e:email ?m . } FILTER (!bound(?m))",
    ),
    (
        "?n ?m",
        "?p e:name ?n . OPTIONAL { ?p e:email ?m . FILTER (?m != \"alice@example.org\") }",
    ),
    ("?n", "?p e:name ?n . FILTER (!bound(?ghost))"),
    (
        "?n ?ghost",
        "?p e:name ?n . OPTIONAL { ?p e:phone ?h . } FILTER (bound(?ghost) || bound(?h))",
    ),
];

/// The query forms every shape is run under. `Page`'s window is a prefix
/// of the `Ordered` result, so its rows are determined up to ties.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Form {
    Plain,
    Distinct,
    Ordered,
    Page,
    Ask,
}

const PAGE: (usize, usize) = (1, 3); // OFFSET, LIMIT

fn shape_text(projection: &str, body: &str, form: Form) -> String {
    let prefix = "PREFIX e: <http://e/>";
    match form {
        Form::Plain => format!("{prefix} SELECT {projection} WHERE {{ {body} }}"),
        Form::Distinct => format!("{prefix} SELECT DISTINCT {projection} WHERE {{ {body} }}"),
        Form::Ordered => format!("{prefix} SELECT {projection} WHERE {{ {body} }} ORDER BY {projection}"),
        Form::Page => format!(
            "{prefix} SELECT {projection} WHERE {{ {body} }} ORDER BY {projection} OFFSET {} LIMIT {}",
            PAGE.0, PAGE.1
        ),
        Form::Ask => format!("{prefix} ASK {{ {body} }}"),
    }
}

/// The reference evaluator's relation: a schema and rows over it (`None`
/// = unbound). Row at a time, nested loops, no plan, no ids.
struct Rel {
    vars: Vec<String>,
    rows: Vec<Vec<Option<Term>>>,
}

impl Rel {
    /// Join on the variables both schemas name, under the engine's
    /// documented strict equality (unbound equals only unbound); `outer`
    /// keeps a left row nothing matched, padded.
    fn join(&self, right: &Rel, outer: bool) -> Rel {
        let col = |vars: &[String], name: &String| vars.iter().position(|v| v == name);
        let shared: Vec<(usize, usize)> = (0..right.vars.len())
            .filter_map(|r| col(&self.vars, &right.vars[r]).map(|l| (l, r)))
            .collect();
        let extra: Vec<usize> = (0..right.vars.len())
            .filter(|&r| col(&self.vars, &right.vars[r]).is_none())
            .collect();
        let mut vars = self.vars.clone();
        vars.extend(extra.iter().map(|&r| right.vars[r].clone()));
        let mut rows = Vec::new();
        for l in &self.rows {
            let before = rows.len();
            for r in &right.rows {
                if shared.iter().all(|&(a, b)| l[a] == r[b]) {
                    rows.push(
                        l.iter()
                            .cloned()
                            .chain(extra.iter().map(|&c| r[c].clone()))
                            .collect(),
                    );
                }
            }
            if outer && rows.len() == before {
                rows.push(
                    l.iter()
                        .cloned()
                        .chain(extra.iter().map(|_| None))
                        .collect(),
                );
            }
        }
        Rel { vars, rows }
    }

    fn project(&self, names: &[&str]) -> Vec<Vec<Option<Term>>> {
        let cols: Vec<Option<usize>> = names
            .iter()
            .map(|n| self.vars.iter().position(|v| v == n))
            .collect();
        self.rows
            .iter()
            .map(|row| {
                cols.iter()
                    .map(|c| c.and_then(|c| row[c].clone()))
                    .collect()
            })
            .collect()
    }
}

/// One row per triple matching the pattern's constants and repeated
/// variables.
fn reference_scan(triples: &[Triple], t: &TriplePatternAst) -> Rel {
    let slots = [&t.subject, &t.predicate, &t.object];
    let mut vars: Vec<String> = Vec::new();
    for slot in slots {
        if let NodeAst::Var(n) = slot {
            if !vars.contains(n) {
                vars.push(n.clone());
            }
        }
    }
    let mut rows = Vec::new();
    for triple in triples {
        let mut row: Vec<Option<Term>> = vec![None; vars.len()];
        let terms = [&triple.subject, &triple.predicate, &triple.object];
        let matches = slots.iter().zip(terms).all(|(slot, term)| match slot {
            NodeAst::Const(c) => c == term,
            NodeAst::Var(n) => {
                let at = vars.iter().position(|v| v == n).unwrap();
                row[at].get_or_insert_with(|| term.clone()) == term
            }
        });
        if matches {
            rows.push(row);
        }
    }
    Rel { vars, rows }
}

fn reference_filter(filter: &ExprAst, vars: &[String], row: &[Option<Term>]) -> bool {
    let mut names = vars.to_vec();
    let expr = hsp_sparql::algebra::lower_expr_ast(filter, &mut |n| {
        let at = names.iter().position(|v| v == n).unwrap_or_else(|| {
            names.push(n.to_string());
            names.len() - 1
        });
        Var(at as u32)
    })
    .expect("filter lowers");
    let bound: HashMap<Var, Term> = (0u32..)
        .zip(row)
        .filter_map(|(i, t)| Some((Var(i), t.clone()?)))
        .collect();
    hsp_sparql::Evaluator::new().matches(&expr, &bound)
}

/// SPARQL's group semantics as the composer's module docs state them:
/// triples, then UNIONs joined in, then OPTIONALs, then FILTERs.
fn reference_group(triples: &[Triple], group: &GroupPattern) -> Rel {
    let mut rel = Rel {
        vars: Vec::new(),
        rows: vec![Vec::new()],
    };
    for element in &group.elements {
        if let Element::Triple(t) = element {
            rel = rel.join(&reference_scan(triples, t), false);
        }
    }
    for element in &group.elements {
        if let Element::Union(a, b) = element {
            let (a, b) = (reference_group(triples, a), reference_group(triples, b));
            // Concatenation over the union of both schemas; `project` pads
            // the variables a branch does not name.
            let mut vars = a.vars.clone();
            vars.extend(b.vars.iter().filter(|v| !a.vars.contains(v)).cloned());
            let names: Vec<&str> = vars.iter().map(String::as_str).collect();
            let mut rows = a.project(&names);
            rows.extend(b.project(&names));
            let union = Rel {
                rows,
                vars: vars.clone(),
            };
            rel = rel.join(&union, false);
        }
    }
    for element in &group.elements {
        if let Element::Optional(g) = element {
            rel = rel.join(&reference_group(triples, g), true);
        }
    }
    for element in &group.elements {
        if let Element::Filter(f) = element {
            let vars = rel.vars.clone();
            rel.rows.retain(|row| reference_filter(f, &vars, row));
        }
    }
    rel
}

/// Rows as a sorted multiset.
fn multiset(rows: &[Vec<Option<Term>>]) -> Vec<String> {
    let mut keys: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    keys.sort();
    keys
}

/// A context that really splits these few rows across `threads` workers.
fn tiny_morsels(config: &ExecConfig, threads: usize) -> hsp_engine::ExecContext {
    config.context_from(|| {
        MorselConfig::with_threads(threads)
            .with_morsel_rows(2)
            .with_min_parallel_rows(0)
    })
}

fn count_triples(group: &GroupPattern) -> usize {
    group
        .elements
        .iter()
        .map(|e| match e {
            Element::Triple(_) => 1,
            Element::Filter(_) => 0,
            Element::Optional(g) => count_triples(g),
            Element::Union(a, b) => count_triples(a) + count_triples(b),
        })
        .sum()
}

/// Every composed shape, in every query form: pipelines at threads 1–4
/// equal the oracle cell for cell, the wire edge equals the library edge
/// in all four formats, the whole query is one plan run once (pipelines
/// launched, one profile tree naming every scan), and the answer is the
/// reference evaluator's.
#[test]
fn composed_shapes_match_the_oracle_the_wire_and_a_nested_loop_reference() {
    let ds = hsp_store::Dataset::from_ntriples(PEOPLE).unwrap();
    let triples = hsp_rdf::ntriples::parse_document(PEOPLE).unwrap();
    let session = Session::with_options(
        ds.clone(),
        SessionOptions {
            pool_threads: Some(2),
            morsel_rows: Some(2),
            min_parallel_rows: Some(0),
            ..SessionOptions::default()
        },
    );
    for (projection, body) in SHAPES {
        for form in [
            Form::Plain,
            Form::Distinct,
            Form::Ordered,
            Form::Page,
            Form::Ask,
        ] {
            let text = shape_text(projection, body, form);
            let ast = hsp_sparql::parse_query(&text).unwrap_or_else(|e| panic!("{text}: {e}"));

            // The reference answer, as a multiset.
            let names: Vec<&str> = projection.split(' ').map(|v| &v[1..]).collect();
            let mut expected = reference_group(&triples, &ast.where_clause).project(&names);
            if form == Form::Distinct {
                let mut seen = std::collections::HashSet::new();
                expected.retain(|row| seen.insert(format!("{row:?}")));
            }

            // Pipelines ≡ oracle, cell for cell, at every thread count.
            let oracle_config =
                ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime);
            let oracle = evaluate_extended_in(&ds, &text, &oracle_config, &oracle_config.context())
                .unwrap_or_else(|e| panic!("oracle failed for {text}: {e}"));
            for threads in 1..=4usize {
                let config = ExecConfig::unlimited();
                let ctx = tiny_morsels(&config, threads);
                let out = evaluate_extended_in(&ds, &text, &config, &ctx)
                    .unwrap_or_else(|e| panic!("pipelines (t={threads}) failed for {text}: {e}"));
                assert_eq!(out.columns, oracle.columns, "{text}");
                assert_eq!(out.rows, oracle.rows, "threads={threads}: {text}");
                assert!(
                    RuntimeMetrics::of(&ctx).pipelines > 0,
                    "threads={threads}: {text}"
                );
            }

            // Oracle ≡ reference.
            match form {
                Form::Ask => {
                    assert!(oracle.columns.is_empty(), "{text}");
                    assert_eq!(
                        oracle.rows.len(),
                        usize::from(!expected.is_empty()),
                        "{text}"
                    );
                }
                Form::Page => {
                    let window = expected.len().saturating_sub(PAGE.0).min(PAGE.1);
                    assert_eq!(oracle.rows.len(), window, "{text}");
                    let pool = multiset(&expected);
                    for key in multiset(&oracle.rows) {
                        assert!(pool.contains(&key), "{key} is no solution of {text}");
                    }
                }
                Form::Plain | Form::Distinct | Form::Ordered => {
                    assert_eq!(multiset(&oracle.rows), multiset(&expected), "{text}");
                }
            }
            if form == Form::Page {
                // The window is the ordered result's.
                let ordered = shape_text(projection, body, Form::Ordered);
                let all =
                    evaluate_extended_in(&ds, &ordered, &oracle_config, &oracle_config.context())
                        .unwrap();
                let end = (PAGE.0 + PAGE.1).min(all.rows.len());
                assert_eq!(oracle.rows, all.rows[PAGE.0.min(end)..end], "{text}");
            }

            // Session: wire edge ≡ library edge ≡ oracle; one plan, run once.
            for threads in [1usize, 4] {
                let request = || Request::new(&text).with_threads(threads).without_cache();
                let library = session
                    .query(request())
                    .unwrap_or_else(|e| panic!("{text}: {e}"));
                let wire = session.query_encoded(request().with_explain()).unwrap();
                assert_eq!(
                    library.output.rows, oracle.rows,
                    "threads={threads}: {text}"
                );
                assert_eq!(wire.ask, library.ask, "{text}");
                assert_eq!(wire.ask.is_some(), form == Form::Ask, "{text}");
                let library_bytes = [
                    results::to_sparql_json(&library.output),
                    results::to_csv(&library.output),
                    results::to_tsv(&library.output),
                    results::to_table(&library.output),
                ];
                for (format, want) in [Format::Json, Format::Csv, Format::Tsv, Format::Table]
                    .into_iter()
                    .zip(&library_bytes)
                {
                    let mut body = String::new();
                    assert!(format.write(&mut body, &wire, usize::MAX));
                    assert_eq!(&body, want, "{format:?}, threads={threads}: {text}");
                }
                assert!(wire.metrics.pipelines > 0, "{text}");
                let explain = wire.explain.as_deref().expect("explain text");
                for tp in 0..count_triples(&ast.where_clause) {
                    assert_eq!(
                        explain.matches(&format!("[tp{tp}]")).count(),
                        1,
                        "one profile tree with every scan once — {text}:\n{explain}"
                    );
                }
            }
        }
    }
}

/// Row-budget parity on composed plans, `row_budget_parity_with_the_oracle`'s
/// discipline: at every budget up to the plan's largest node, sequential
/// and forced 4-thread, governed and not, pipelines and oracle return the
/// same rows or the same `BudgetExceeded`, and a trip leaves the buffer
/// pool balanced and the memory account at zero. Then the same over the
/// wire: a typed `ERR EXEC`, and a connection that keeps working.
#[test]
fn composed_plans_trip_the_row_budget_like_the_oracle() {
    let ds = hsp_store::Dataset::from_ntriples(PEOPLE).unwrap();
    let run = |text: &str,
               strategy: ExecStrategy,
               budget: usize,
               threads: usize,
               governed: bool| {
        let mut config = ExecConfig::with_row_budget(budget).with_strategy(strategy);
        if governed {
            config = config.with_mem_budget(usize::MAX);
        }
        let ctx = tiny_morsels(&config, threads);
        let result = match evaluate_extended_in(&ds, text, &config, &ctx) {
            Ok(out) => Ok(out.rows),
            Err(ExtendedError::Exec(e)) => Err(e),
            Err(other) => panic!("{text}: {other}"),
        };
        if result.is_err() {
            let stats = ctx.pool.stats();
            assert_eq!(
                    stats.hits + stats.misses,
                    stats.returned,
                    "pool imbalance after a {strategy:?} budget trip (budget={budget} threads={threads} governed={governed}) of {text}: {stats:?}"
                );
            if let Some(gov) = ctx.governor() {
                assert_eq!(
                    gov.mem_used(),
                    0,
                    "{strategy:?} leaked memory accounting: {text}"
                );
            }
        }
        result
    };
    // The budgeted product an OPTIONAL hides, and a UNION of two scans.
    let product =
        "SELECT ?n ?m WHERE { ?p <http://e/name> ?n . OPTIONAL { ?q <http://e/name> ?m . } }";
    let union =
        "SELECT ?c WHERE { { ?p <http://e/email> ?c . } UNION { ?p <http://e/phone> ?c . } }";
    let texts: Vec<String> = [product.to_string(), union.to_string()]
        .into_iter()
        .chain(SHAPES.map(|(projection, body)| shape_text(projection, body, Form::Distinct)))
        .collect();
    for text in &texts {
        // The largest node of the plan: the least budget the oracle runs under.
        let max = (0..)
            .find(|&b| run(text, ExecStrategy::OperatorAtATime, b, 1, false).is_ok())
            .unwrap();
        assert!(max > 0, "{text}");
        for budget in 0..=max {
            for (threads, governed) in [(1, false), (1, true), (4, false), (4, true)] {
                let at = format!("budget={budget} threads={threads} governed={governed}: {text}");
                let oracle = run(
                    text,
                    ExecStrategy::OperatorAtATime,
                    budget,
                    threads,
                    governed,
                );
                let piped = run(text, ExecStrategy::Pipelined, budget, threads, governed);
                assert_eq!(piped, oracle, "{at}");
                match oracle {
                    Ok(_) => assert_eq!(budget, max, "{at}: ran past the budget"),
                    Err(e) => assert!(matches!(e, ExecError::BudgetExceeded { .. }), "{at}: {e}"),
                }
            }
        }
    }

    let server =
        Server::start(Session::new(ds.clone()), ServeConfig::default()).expect("server starts");
    let mut client = Client::connect(server.addr()).expect("client connects");
    for (options, text) in [
        ("row_budget=3 cache=off", product),
        ("row_budget=1 cache=off", union),
    ] {
        let response = client.query(options, text).expect("transport");
        assert!(
            response.starts_with("ERR EXEC row budget exceeded"),
            "{options}: {response}"
        );
        assert_eq!(client.ping().expect("transport"), "OK pong");
        let response = client.query("cache=off", text).expect("transport");
        assert!(response.starts_with("OK rows="), "{response}");
    }
    server.shutdown();
}
