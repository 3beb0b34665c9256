//! The result boundary — where ids become terms and terms become bytes —
//! must not change what callers see: rendered output is byte-for-byte the
//! parent commit's, and the extended evaluator's id-level solution
//! modifiers return the rows a term-level application would.

use std::collections::HashSet;
use std::sync::OnceLock;

use hsp_bench::{BenchEnv, EnvConfig};
use hsp_datagen::DatasetKind;
use hsp_rdf::Term;
use hsp_sparql::expr::compare_for_order;
use hsp_sparql::Value;
use sparql_hsp::engine::ExecConfig;
use sparql_hsp::extended::{evaluate_extended_in, ExtendedOutput};
use sparql_hsp::results;
use sparql_hsp::session::{Request, Session};
use sparql_hsp::store::Dataset;

// ------------------------------------------------------------ byte identity

/// One fixture with everything the renderers special-case: `"`, `\`,
/// newline, carriage return, tab, a control character, non-ASCII text, a
/// comma (CSV quoting), language-tagged and typed literals; the queries
/// over it add unbound cells (OPTIONAL) and computed aggregate terms.
fn fixture() -> Dataset {
    let xsd_int = "http://www.w3.org/2001/XMLSchema#integer";
    let text = format!(
        "<http://e/a1> <http://e/name> \"Al \\\"Q\\\" \\\\ice\\nline2\" .\n\
         <http://e/a1> <http://e/nick> \"tab\\there, comma\"@en-GB .\n\
         <http://e/a1> <http://e/age> \"42\"^^<{xsd_int}> .\n\
         <http://e/a2> <http://e/name> \"Zo\u{eb} \u{2603} \u{1}ctl\" .\n\
         <http://e/a2> <http://e/age> \"7\"^^<{xsd_int}> .\n\
         <http://e/a3> <http://e/name> \"carriage\\rreturn\" .\n"
    );
    Dataset::from_ntriples(&text).expect("fixture parses")
}

const FIXTURE_QUERIES: [&str; 2] = [
    "SELECT ?p ?n ?k ?a WHERE { ?p <http://e/name> ?n . \
     OPTIONAL { ?p <http://e/nick> ?k . } OPTIONAL { ?p <http://e/age> ?a . } } ORDER BY ?p",
    "SELECT (AVG(?a) AS ?mean) (COUNT(?p) AS ?n) (MAX(?a) AS ?hi) \
     WHERE { ?p <http://e/age> ?a . }",
];

/// What the parent commit's renderers (per-value `String` escaping, owned
/// `String` terms) produced for [`FIXTURE_QUERIES`], in
/// JSON / CSV / TSV / table order per query.
#[rustfmt::skip]
const GOLDEN: [[&str; 4]; 2] = [
    ["{\"head\":{\"vars\":[\"p\",\"n\",\"k\",\"a\"]},\"results\":{\"bindings\":[{\"p\":{\"type\":\"uri\",\"value\":\"http://e/a1\"},\"n\":{\"type\":\"literal\",\"value\":\"Al \\\"Q\\\" \\\\ice\\nline2\"},\"k\":{\"type\":\"literal\",\"value\":\"tab\\there, comma\",\"xml:lang\":\"en-GB\"},\"a\":{\"type\":\"literal\",\"value\":\"42\",\"datatype\":\"http://www.w3.org/2001/XMLSchema#integer\"}},{\"p\":{\"type\":\"uri\",\"value\":\"http://e/a2\"},\"n\":{\"type\":\"literal\",\"value\":\"Zoë ☃ \\u0001ctl\"},\"a\":{\"type\":\"literal\",\"value\":\"7\",\"datatype\":\"http://www.w3.org/2001/XMLSchema#integer\"}},{\"p\":{\"type\":\"uri\",\"value\":\"http://e/a3\"},\"n\":{\"type\":\"literal\",\"value\":\"carriage\\rreturn\"}}]}}", "p,n,k,a\r\nhttp://e/a1,\"Al \"\"Q\"\" \\ice\nline2\",\"tab\there, comma\",42\r\nhttp://e/a2,Zoë ☃ \u{1}ctl,,7\r\nhttp://e/a3,\"carriage\rreturn\",,\r\n", "?p\t?n\t?k\t?a\n<http://e/a1>\t\"Al \\\"Q\\\" \\\\ice\\nline2\"\t\"tab\\there, comma\"@en-GB\t\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>\n<http://e/a2>\t\"Zoë ☃ \u{1}ctl\"\t\t\"7\"^^<http://www.w3.org/2001/XMLSchema#integer>\n<http://e/a3>\t\"carriage\\rreturn\"\t\t\n", "?p             ?n                       ?k                        ?a                                              \n-------------  -----------------------  ------------------------  ------------------------------------------------\n<http://e/a1>  \"Al \\\"Q\\\" \\\\ice\\nline2\"  \"tab\\there, comma\"@en-GB  \"42\"^^<http://www.w3.org/2001/XMLSchema#integer>\n<http://e/a2>  \"Zoë ☃ \u{1}ctl\"                                       \"7\"^^<http://www.w3.org/2001/XMLSchema#integer> \n<http://e/a3>  \"carriage\\rreturn\"                                                                                 \n(3 rows)\n"],
    ["{\"head\":{\"vars\":[\"mean\",\"n\",\"hi\"]},\"results\":{\"bindings\":[{\"mean\":{\"type\":\"literal\",\"value\":\"24.5\",\"datatype\":\"http://www.w3.org/2001/XMLSchema#decimal\"},\"n\":{\"type\":\"literal\",\"value\":\"2\",\"datatype\":\"http://www.w3.org/2001/XMLSchema#integer\"},\"hi\":{\"type\":\"literal\",\"value\":\"42\",\"datatype\":\"http://www.w3.org/2001/XMLSchema#integer\"}}]}}", "mean,n,hi\r\n24.5,2,42\r\n", "?mean\t?n\t?hi\n\"24.5\"^^<http://www.w3.org/2001/XMLSchema#decimal>\t\"2\"^^<http://www.w3.org/2001/XMLSchema#integer>\t\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>\n", "?mean                                               ?n                                               ?hi                                             \n--------------------------------------------------  -----------------------------------------------  ------------------------------------------------\n\"24.5\"^^<http://www.w3.org/2001/XMLSchema#decimal>  \"2\"^^<http://www.w3.org/2001/XMLSchema#integer>  \"42\"^^<http://www.w3.org/2001/XMLSchema#integer>\n(1 row)\n"],
];

fn rendered(out: &ExtendedOutput) -> [String; 4] {
    [
        results::to_sparql_json(out),
        results::to_csv(out),
        results::to_tsv(out),
        results::to_table(out),
    ]
}

#[test]
fn rendered_bytes_match_the_parent_commit() {
    let session = Session::new(fixture());
    for (text, golden) in FIXTURE_QUERIES.iter().zip(GOLDEN) {
        // Cold, then served from the result cache: same bytes both times.
        for pass in ["cold", "cached"] {
            let response = session.query(Request::new(*text)).expect("fixture query");
            let got = rendered(&response.output);
            for (format, (got, want)) in ["json", "csv", "tsv", "table"]
                .iter()
                .zip(got.iter().zip(golden))
            {
                assert_eq!(got, want, "{format} bytes changed ({pass}) for {text}");
            }
        }
    }
}

// ------------------------------------------- id-level solution modifiers

fn env() -> &'static BenchEnv {
    static ENV: OnceLock<BenchEnv> = OnceLock::new();
    ENV.get_or_init(|| BenchEnv::load(EnvConfig::small()))
}

const PREFIXES: &str = "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> \
     PREFIX bench: <http://localhost/vocabulary/bench/> \
     PREFIX dc: <http://purl.org/dc/elements/1.1/> \
     PREFIX dcterms: <http://purl.org/dc/terms/> \
     PREFIX swrc: <http://swrc.ontoware.org/ontology#> \
     PREFIX foaf: <http://xmlns.com/foaf/0.1/> ";

/// The `analytic.tcp.c2` shapes that stay outside the join fragment (so
/// their modifiers run in `extended.rs`): `(all variables, WHERE body)`.
const SHAPES: [(&[&str], &str); 4] = [
    // OPTIONAL
    (
        &["a", "m"],
        "{ ?a rdf:type bench:Article . ?a dcterms:issued \"1990\" . \
         OPTIONAL { ?a swrc:month ?m . } }",
    ),
    // nested OPTIONAL
    (
        &["a", "au", "hp"],
        "{ ?a rdf:type bench:Article . ?a dcterms:issued \"1991\" . \
         OPTIONAL { ?a dc:creator ?au . OPTIONAL { ?au foaf:homepage ?hp . } } }",
    ),
    // UNION
    (
        &["x", "y"],
        "{ { ?x rdf:type bench:Journal . ?x dcterms:issued ?y . } \
         UNION { ?x rdf:type bench:Proceedings . ?x dcterms:issued ?y . } }",
    ),
    // OPTIONAL + FILTER !bound
    (
        &["a", "m"],
        "{ ?a rdf:type bench:Article . ?a dcterms:issued \"1992\" . \
         OPTIONAL { ?a swrc:month ?m . } FILTER (!bound(?m)) }",
    ),
];

fn run(ds: &Dataset, text: &str) -> ExtendedOutput {
    let config = ExecConfig::unlimited();
    evaluate_extended_in(ds, text, &config, &config.context())
        .unwrap_or_else(|e| panic!("{text}: {e}"))
}

/// Apply the solution modifiers to fully decoded rows the way the
/// evaluator did before it worked on ids: stable sort on the key columns'
/// values, project, keep first occurrences by the rows' `Debug` text,
/// then slice.
fn reference(
    all: &ExtendedOutput,
    projection: &[&str],
    order_by: &[(&str, bool)],
    distinct: bool,
    offset: Option<usize>,
    limit: Option<usize>,
) -> Vec<Vec<Option<Term>>> {
    let col = |name: &str| {
        all.columns
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("no column {name}"))
    };
    let mut rows: Vec<&Vec<Option<Term>>> = all.rows.iter().collect();
    let keys: Vec<(usize, bool)> = order_by.iter().map(|&(n, d)| (col(n), d)).collect();
    rows.sort_by(|a, b| {
        for &(c, descending) in &keys {
            let (va, vb) = (
                a[c].as_ref().map(Value::from_term),
                b[c].as_ref().map(Value::from_term),
            );
            let ord = compare_for_order(va.as_ref(), vb.as_ref());
            let ord = if descending { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    let cols: Vec<usize> = projection.iter().map(|n| col(n)).collect();
    let mut rows: Vec<Vec<Option<Term>>> = rows
        .into_iter()
        .map(|row| cols.iter().map(|&c| row[c].clone()).collect())
        .collect();
    if distinct {
        let mut seen = HashSet::new();
        rows.retain(|row| seen.insert(format!("{row:?}")));
    }
    let offset = offset.unwrap_or(0).min(rows.len());
    let end = limit.map_or(rows.len(), |n| (offset + n).min(rows.len()));
    rows[offset..end].to_vec()
}

#[test]
fn id_level_modifiers_match_term_level_application() {
    let ds = env().dataset(DatasetKind::Sp2Bench);
    for (vars, body) in SHAPES {
        let select_all = format!(
            "{PREFIXES} SELECT {} WHERE {body}",
            vars.iter()
                .map(|v| format!("?{v}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        let all = run(ds, &select_all);
        assert!(!all.rows.is_empty(), "shape matches nothing: {body}");
        let (first, last) = (vars[0], vars[vars.len() - 1]);
        // Projecting only the last variable makes duplicates (and, for
        // the OPTIONAL shapes, all-unbound rows) likely, and forces ORDER
        // BY to read a non-projected column.
        let projections: [&[&str]; 2] = [vars, &[last]];
        let orders: [&[(&str, bool)]; 4] = [
            &[],
            &[(first, false)],
            &[(last, true), (first, false)],
            &[(last, false)],
        ];
        for projection in projections {
            for order_by in orders {
                for distinct in [false, true] {
                    for (offset, limit) in [
                        (None, None),
                        (Some(3), None),
                        (None, Some(5)),
                        (Some(2), Some(4)),
                        (Some(1_000_000), Some(1)),
                    ] {
                        let mut text = format!(
                            "{PREFIXES} SELECT {}{} WHERE {body}",
                            if distinct { "DISTINCT " } else { "" },
                            projection
                                .iter()
                                .map(|v| format!("?{v}"))
                                .collect::<Vec<_>>()
                                .join(" ")
                        );
                        if !order_by.is_empty() {
                            text.push_str(" ORDER BY");
                            for (name, descending) in order_by {
                                text.push_str(&if *descending {
                                    format!(" DESC(?{name})")
                                } else {
                                    format!(" ?{name}")
                                });
                            }
                        }
                        if let Some(n) = limit {
                            text.push_str(&format!(" LIMIT {n}"));
                        }
                        if let Some(n) = offset {
                            text.push_str(&format!(" OFFSET {n}"));
                        }
                        let got = run(ds, &text);
                        let want = reference(&all, projection, order_by, distinct, offset, limit);
                        assert_eq!(got.columns, projection, "columns of {text}");
                        assert_eq!(got.rows, want, "rows of {text}");
                    }
                }
            }
        }
    }
}
