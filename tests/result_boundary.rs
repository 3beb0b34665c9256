//! The result boundary — where ids become terms and terms become bytes —
//! must not change what callers see: rendered output is byte-for-byte the
//! parent commit's, the extended evaluator's id-level solution modifiers
//! return the rows a term-level application would, and the wire edge
//! (rendering straight from an [`EncodedResponse`]'s id columns) writes
//! the bytes the library edge (`to_*` over decoded rows) does — cold, from
//! the result cache, as the body a result-cache entry stores for the
//! server, and from an entry resolved against a newer dictionary than it
//! was produced under.

use std::collections::HashSet;
use std::sync::OnceLock;

use hsp_bench::{BenchEnv, EnvConfig};
use hsp_datagen::workload::sp_prefixes;
use hsp_datagen::{workload, DatasetKind};
use hsp_rdf::{Term, Triple};
use hsp_sparql::expr::compare_for_order;
use hsp_sparql::{JoinQuery, TermOrVar, TriplePattern, Value};
use sparql_hsp::engine::ExecConfig;
use sparql_hsp::extended::{evaluate_extended_in, ExtendedOutput};
use sparql_hsp::results::{self, Format};
use sparql_hsp::serve::{Client, ServeConfig, Server, ServerHandle};
use sparql_hsp::session::{EncodedResponse, Request, Session, SessionOptions};
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

/// [`fixture`], built once.
fn fixture_dataset() -> &'static Dataset {
    static FIXTURE: OnceLock<Dataset> = OnceLock::new();
    FIXTURE.get_or_init(fixture)
}

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

// ------------------------------------------- wire edge ≡ library edge

/// The nine `analytic.tcp.c2` bodies (`benchmark/src/workloads.rs`).
const ANALYTIC_BODIES: [&str; 9] = [
    "SELECT ?a ?m WHERE { ?a rdf:type bench:Article . ?a dcterms:issued \"1990\" . \
     OPTIONAL { ?a swrc:month ?m . } }",
    "SELECT ?a ?au ?hp WHERE { ?a rdf:type bench:Article . ?a dcterms:issued \"1991\" . \
     OPTIONAL { ?a dc:creator ?au . OPTIONAL { ?au foaf:homepage ?hp . } } }",
    "SELECT ?x ?y WHERE { { ?x rdf:type bench:Journal . ?x dcterms:issued ?y . } \
     UNION { ?x rdf:type bench:Proceedings . ?x dcterms:issued ?y . } }",
    "SELECT ?a ?t WHERE { ?a rdf:type bench:Inproceedings . ?a dc:title ?t . \
     FILTER regex(?t, \"Title 1[0-9]*7$\") }",
    "SELECT ?y (COUNT(?a) AS ?n) (SUM(?pc) AS ?total) (AVG(?pc) AS ?mean) WHERE { \
     ?a rdf:type bench:Inproceedings . ?a dcterms:issued ?y . ?a bench:pageCount ?pc . } \
     GROUP BY ?y HAVING (COUNT(?a) > 10)",
    "SELECT DISTINCT ?au WHERE { ?a rdf:type bench:Article . ?a dc:creator ?au . }",
    "SELECT ?a ?t WHERE { ?a rdf:type bench:Inproceedings . ?a dc:title ?t . \
     ?a dcterms:issued \"2001\" . } ORDER BY ?t LIMIT 50",
    "ASK { ?a rdf:type bench:Article . ?a swrc:month \"12\" . ?a dcterms:issued \"1999\" . }",
    "SELECT ?a WHERE { ?a rdf:type bench:Article . ?a dcterms:issued \"1992\" . \
     OPTIONAL { ?a swrc:month ?m . } FILTER (!bound(?m)) }",
];

/// Shapes the corpora above do not reach: a projected variable no table
/// ever binds (it is only mentioned in a FILTER), every cell of a column
/// unbound next to bound ones, a variable projected twice, and an empty
/// result.
const EDGE_BODIES: [&str; 4] = [
    "SELECT ?a ?ghost ?m WHERE { ?a rdf:type bench:Article . ?a dcterms:issued \"1990\" . \
     OPTIONAL { ?a swrc:month ?m . } FILTER (!bound(?ghost)) }",
    "SELECT ?x ?never WHERE { { ?x rdf:type bench:Journal . } \
     UNION { ?x rdf:type bench:Proceedings . OPTIONAL { ?x bench:noSuchProperty ?never . } } }",
    "SELECT ?y ?a ?y WHERE { ?a rdf:type bench:Journal . ?a dcterms:issued ?y . } ORDER BY ?y",
    "SELECT ?a WHERE { ?a rdf:type bench:Article . ?a dcterms:issued \"1066\" . }",
];

/// The bibliographic dataset with what `analytic.tcp.c2` adds to it: a
/// typed `bench:pageCount` per inproceedings, so `SUM` / `AVG` have numbers
/// to fold (and the response carries computed-overlay ids).
fn with_page_counts(ds: &Dataset) -> Dataset {
    let pages = Session::new(ds.clone())
        .query(Request::new(format!(
            "{}SELECT ?a ?p WHERE {{ ?a rdf:type bench:Inproceedings . ?a swrc:pages ?p . }}",
            sp_prefixes()
        )))
        .expect("page query");
    assert!(!pages.output.rows.is_empty(), "no inproceedings pages");
    let page_count = Term::iri("http://localhost/vocabulary/bench/pageCount");
    let triples: Vec<Triple> = pages
        .output
        .rows
        .iter()
        .map(|row| {
            let (subject, pages) = (row[0].clone().unwrap(), row[1].as_ref().unwrap());
            let count =
                Term::typed_literal(pages.lexical(), "http://www.w3.org/2001/XMLSchema#integer");
            Triple::new(subject, page_count.clone(), count)
        })
        .collect();
    let mut ds = ds.clone();
    ds.insert_data(&triples);
    ds
}

const FORMATS: [Format; 4] = [Format::Json, Format::Csv, Format::Tsv, Format::Table];
/// [`FORMATS`] as `format=` spells them.
const FORMAT_NAMES: [&str; 4] = ["json", "csv", "tsv", "table"];

/// The library edge: decoded rows through the public `to_*` renderers.
fn library_bytes(session: &Session, text: &str) -> [String; 4] {
    let response = session
        .query(Request::new(text).without_cache())
        .unwrap_or_else(|e| panic!("{text}: {e}"));
    rendered(&response.output)
}

/// The wire edge: the bytes `hsp-serve` and `hsp` write, rendered from the
/// id columns without decoding a row.
fn wire_bytes(response: &EncodedResponse) -> [String; 4] {
    FORMATS.map(|format| {
        let mut body = String::new();
        assert!(format.write(&mut body, response, usize::MAX));
        body
    })
}

/// The body of a reply, after its status line.
fn reply_body(reply: &str) -> &str {
    let (header, body) = reply.split_once('\n').unwrap_or((reply, ""));
    assert!(header.starts_with("OK "), "{header}");
    body
}

/// The "stored" pass: over the socket, in every format, a hit — which
/// stores its body unless an earlier hit did, or the result is an ASK
/// answer — then a hit sent from that body, both the library edge's bytes
/// (`want`, or the answer for an ASK query).
fn stored_pass(
    server: &ServerHandle,
    client: &mut Client,
    pass: &str,
    texts: &[String],
    expected: &[[String; 4]],
    asks: &[Option<bool>],
) {
    let cache = || server.session().cache_stats();
    for ((text, want), ask) in texts.iter().zip(expected).zip(asks) {
        for ((format, want), name) in FORMATS.iter().zip(want).zip(FORMAT_NAMES) {
            let mut ask_body = String::new();
            let want = match ask {
                Some(answer) => {
                    format.write_ask(&mut ask_body, *answer);
                    &ask_body
                }
                None => want,
            };
            let options = format!("format={name}");
            let before = cache();
            let reply = client.query(&options, text).unwrap();
            assert_eq!(reply_body(&reply), want, "{pass} {name}: {text}");
            let first = cache();
            assert_eq!(
                first.result_hits,
                before.result_hits + 1,
                "{pass} {name}: {text}"
            );
            if pass == "stored" {
                // A body that would take its entry past the tier's byte
                // bound is not stored either.
                let stored = first.result_bytes > before.result_bytes;
                let fits = before.result_bytes + want.len() <= RESULT_TIER_BYTES;
                assert!(stored || ask.is_some() || !fits, "{pass} {name}: {text}");
                assert!(!stored || ask.is_none(), "{pass} {name}: {text}");
            }
            let reply = client.query(&options, text).unwrap();
            assert_eq!(reply_body(&reply), want, "{pass} {name} again: {text}");
            let second = cache();
            assert_eq!(second.result_hits, first.result_hits + 1);
            assert_eq!(
                second.result_bytes, first.result_bytes,
                "{pass} {name}: the second hit stored a body: {text}"
            );
        }
    }
}

/// For the ten SP queries, the nine `analytic.tcp.c2` bodies, the edge
/// shapes and Y1–Y4, in all four formats: rendering from the encoded
/// response equals `to_*` over `Session::query`'s decoded output — cold,
/// as a result-cache hit, as the body `hsp-serve` stores in the entry and
/// sends on every later hit ("stored"), and as a hit that survived an
/// update to an unrelated predicate (the entry's ids are then resolved
/// against a dictionary that has grown, and, at threshold 1, been
/// compacted into a new base segment since the entry was made; a stored
/// body survives with its entry).
#[test]
fn wire_edge_equals_library_edge_cold_cached_and_across_dictionary_growth() {
    let sp2b = with_page_counts(env().dataset(DatasetKind::Sp2Bench));
    let mut corpora: Vec<(&Dataset, Vec<String>)> = vec![(&sp2b, Vec::new())];
    corpora.push((env().dataset(DatasetKind::Yago), Vec::new()));
    for q in workload() {
        let corpus = usize::from(q.dataset == DatasetKind::Yago);
        corpora[corpus].1.push(q.text.to_string());
    }
    assert_eq!((corpora[0].1.len(), corpora[1].1.len()), (10, 4));
    for body in ANALYTIC_BODIES.iter().chain(&EDGE_BODIES) {
        corpora[0].1.push(format!("{}{body}", sp_prefixes()));
    }
    for text in FIXTURE_QUERIES {
        corpora.push((fixture_dataset(), vec![text.to_string()]));
    }

    let unrelated = "INSERT DATA { <http://e/fresh-subject> <http://e/unrelated-predicate> \
                     \"a literal no dictionary has seen\" . }";
    let mut computed_cells = 0;
    let mut unbound_columns = 0;
    for compaction_threshold in [None, Some(1)] {
        for (ds, texts) in &corpora {
            let options = SessionOptions {
                compaction_threshold,
                ..SessionOptions::default()
            };
            let session = Session::with_options((*ds).clone(), options.clone());
            // The library edge runs on its own session, cache bypassed.
            let library = Session::with_options((*ds).clone(), options);
            let expected: Vec<[String; 4]> =
                texts.iter().map(|t| library_bytes(&library, t)).collect();
            // The server shares the session, and so its result tier.
            let server = Server::start(session.clone(), ServeConfig::default()).unwrap();
            let mut client = Client::connect(server.addr()).unwrap();

            let mut asks = Vec::new();
            for pass in ["cold", "cached"] {
                for (text, want) in texts.iter().zip(&expected) {
                    let response = session.query_encoded(Request::new(text)).unwrap();
                    assert_eq!(
                        response.metrics.result_cache_hit,
                        pass == "cached",
                        "{pass}: {text}"
                    );
                    assert_eq!(&wire_bytes(&response), want, "{pass}: {text}");
                    if pass == "cold" {
                        asks.push(response.ask);
                        computed_cells += response.rows.computed().len();
                        unbound_columns += (0..response.rows.width())
                            .filter(|&c| response.rows.column(c).is_none())
                            .count();
                    }
                }
            }
            stored_pass(&server, &mut client, "stored", texts, &expected, &asks);

            let terms_before = session.snapshot().dict().len();
            for s in [&session, &library] {
                let update = s.update(Request::new(unrelated)).expect("unrelated update");
                assert_eq!(update.stats.inserted, 1);
            }
            let grown = session.snapshot();
            assert_eq!(grown.dict().len(), terms_before + 3, "three new terms");
            if compaction_threshold.is_some() {
                assert_eq!(grown.dict().delta_len(), 0, "threshold 1 compacts at once");
            }
            for (text, want) in texts.iter().zip(&expected) {
                let response = session.query_encoded(Request::new(text)).unwrap();
                // Entries over a variable predicate are flushed by any
                // update; every other entry must have survived this one.
                let reads_everything = JoinQuery::parse(text).is_ok_and(|q| {
                    let variable = |p: &TriplePattern| matches!(p.slots[1], TermOrVar::Var(_));
                    q.patterns.iter().any(variable)
                });
                assert!(
                    response.metrics.result_cache_hit || reads_everything,
                    "an unrelated update dropped the entry of {text}"
                );
                assert!(std::sync::Arc::ptr_eq(&response.snapshot, &grown));
                assert_eq!(
                    &wire_bytes(&response),
                    want,
                    "after dictionary growth: {text}"
                );
                assert_eq!(
                    &library_bytes(&library, text),
                    want,
                    "the update changed {text}"
                );
            }
            let pass = "stored after growth";
            stored_pass(&server, &mut client, pass, texts, &expected, &asks);
            server.shutdown();
        }
    }
    assert!(computed_cells > 0, "no query produced computed-overlay ids");
    assert!(
        unbound_columns > 0,
        "no query projected a never-bound variable"
    );
}

// ------------------------------------------------------------- cache churn

/// The result tier's entry bound (`MAX_RESULT_ENTRIES` in `src/cache.rs`).
const RESULT_TIER_ENTRIES: usize = 1024;
/// The result tier's byte bound (`MAX_RESULT_BYTES` in `src/cache.rs`).
const RESULT_TIER_BYTES: usize = 32 << 20;
/// Distinct cacheable requests the churn tests cycle through — more than
/// the tier holds, so a cycle evicts.
const CHURN_REQUESTS: usize = 1100;

/// One subject per churn request, each with a name and an age.
fn churn_dataset() -> Dataset {
    let text: String = (0..CHURN_REQUESTS)
        .map(|i| {
            format!(
                "<http://e/s{i}> <http://e/name> \"name {i}\" .\n\
                 <http://e/s{i}> <http://e/age> \"{}\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
                i % 90
            )
        })
        .collect();
    Dataset::from_ntriples(&text).expect("churn data parses")
}

/// Request `i`: a join-fragment lookup, an OPTIONAL (extended evaluator)
/// or an aggregate (computed overlay), over subject `i`. None of them
/// reads the `tag` predicate the churn tests write.
fn churn_request(i: usize) -> String {
    let s = format!("<http://e/s{i}>");
    match i % 3 {
        0 => format!("SELECT ?n WHERE {{ {s} <http://e/name> ?n . }}"),
        1 => format!(
            "SELECT ?n ?t WHERE {{ {s} <http://e/name> ?n . OPTIONAL {{ {s} <http://e/nick> ?t . }} }}"
        ),
        _ => format!("SELECT (MAX(?a) AS ?hi) WHERE {{ {s} <http://e/age> ?a . }}"),
    }
}

/// What every churn request must render to, from an uncached session.
fn churn_expected(ds: &Dataset) -> Vec<[String; 4]> {
    let library = Session::new(ds.clone());
    (0..CHURN_REQUESTS)
        .map(|i| library_bytes(&library, &churn_request(i)))
        .collect()
}

/// A linear-scan LRU over request indices: what the tier must do, written
/// the slow, obvious way.
#[derive(Default)]
struct RecencyModel {
    /// Most recently used first.
    order: std::collections::VecDeque<usize>,
    evictions: u64,
}

impl RecencyModel {
    /// One request: `true` for a hit; a miss inserts and may evict.
    fn access(&mut self, i: usize) -> bool {
        let hit = self.order.iter().position(|&k| k == i);
        if let Some(at) = hit {
            self.order.remove(at);
        }
        self.order.push_front(i);
        if self.order.len() > RESULT_TIER_ENTRIES {
            self.order.pop_back();
            self.evictions += 1;
        }
        hit.is_some()
    }
}

/// More distinct requests than the tier holds, cycled twice with a hot
/// subset re-read along the way: every response is a hit exactly when a
/// plain LRU says so, renders byte-identically to its uncached twin, and
/// the eviction counter matches the model's. An update to a predicate no
/// request reads lands between the cycles, so the second one resolves
/// surviving entries against a dictionary that grew (and, at compaction
/// threshold 1, was compacted) after they were made.
#[test]
fn cache_churn_evicts_in_lru_order_and_stays_byte_identical() {
    let ds = churn_dataset();
    let expected = churn_expected(&ds);
    let session = Session::new(ds);
    let mut model = RecencyModel::default();
    let mut accesses = 0;
    let mut request = |i: usize| -> bool {
        let response = session
            .query_encoded(Request::new(churn_request(i)))
            .unwrap();
        accesses += 1;
        let hit = model.access(i);
        assert_eq!(
            response.metrics.result_cache_hit, hit,
            "request {i}, access {accesses}"
        );
        assert_eq!(wire_bytes(&response), expected[i], "request {i}");
        hit
    };
    const HOT: usize = 24;
    for cycle in 0..2 {
        for i in 0..CHURN_REQUESTS {
            request(i);
            // Re-read often enough that the hot subset is never the tail.
            if i % 150 == 149 {
                (0..HOT).for_each(|hot| _ = request(hot));
            }
        }
        if cycle == 0 {
            let unrelated = "INSERT DATA { <http://e/s0> <http://e/tag> \"fresh\" . }";
            session.update(Request::new(unrelated)).expect("update");
        }
    }
    assert!((0..HOT).all(&mut request), "the hot subset was protected");

    let stats = session.cache_stats();
    assert_eq!(stats.result_entries, RESULT_TIER_ENTRIES);
    assert_eq!(stats.result_evictions, model.evictions);
    assert!(stats.result_evictions > CHURN_REQUESTS as u64);
    assert_eq!(stats.result_hits + stats.result_misses, accesses);
    assert_eq!(stats.invalidations, 0);
}

/// Three readers cycle the churn requests (evicting) and re-read two
/// queries over the `tag` predicate while a writer inserts one `tag`
/// triple per update (invalidating them): list moves, evictions and the
/// invalidation walk interleave under the tier's mutex. Every churn
/// response stays byte-identical, every `tag` answer has exactly the rows
/// of the snapshot it is served against, and the counters add up.
#[test]
fn cache_churn_under_a_concurrent_writer_stays_consistent() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    const READERS: usize = 3;
    const UPDATES: usize = 24;
    /// Reads the writer waits for between two updates, so that the
    /// updates spread over the readers' cycles.
    const READS_PER_UPDATE: usize = 100;
    const TAG_QUERIES: [&str; 2] = [
        "SELECT ?s ?t WHERE { ?s <http://e/tag> ?t . }",
        "SELECT ?t WHERE { ?s <http://e/tag> ?t . } ORDER BY ?t",
    ];

    let ds = churn_dataset();
    let expected = churn_expected(&ds);
    let session = Session::new(ds);
    let base_version = session.snapshot().store().version();
    let reads = AtomicUsize::new(0);
    let cacheable = AtomicUsize::new(0);
    let writer_done = AtomicBool::new(false);
    let start = std::sync::Barrier::new(READERS + 1);

    std::thread::scope(|scope| {
        for reader in 0..READERS {
            let (session, expected) = (&session, &expected);
            let (reads, cacheable, writer_done, start) = (&reads, &cacheable, &writer_done, &start);
            scope.spawn(move || {
                start.wait();
                let mut i = reader * CHURN_REQUESTS / READERS;
                while !writer_done.load(Ordering::Acquire) {
                    let response = session
                        .query_encoded(Request::new(churn_request(i)))
                        .unwrap();
                    assert_eq!(wire_bytes(&response), expected[i], "request {i}");
                    cacheable.fetch_add(1, Ordering::Relaxed);
                    if i.is_multiple_of(8) {
                        let text = TAG_QUERIES[(i / 8) % 2];
                        let response = session.query_encoded(Request::new(text)).unwrap();
                        let version = response.snapshot.store().version();
                        assert_eq!(
                            response.rows.len() as u64,
                            version - base_version,
                            "{text} served a stale answer at store version {version}"
                        );
                        // Every update invalidates this entry, so a hit
                        // was populated under the snapshot it is served on.
                        assert_eq!(response.metrics.store_version, version);
                        cacheable.fetch_add(1, Ordering::Relaxed);
                    }
                    i = (i + 1) % CHURN_REQUESTS;
                    reads.fetch_add(1, Ordering::Release);
                }
            });
        }
        let (session, reads, writer_done, start) = (&session, &reads, &writer_done, &start);
        scope.spawn(move || {
            start.wait();
            for k in 0..UPDATES {
                while reads.load(Ordering::Acquire) < k * READS_PER_UPDATE {
                    std::thread::yield_now();
                }
                let text = format!("INSERT DATA {{ <http://e/s{k}> <http://e/tag> \"v{k}\" . }}");
                let update = session.update(Request::new(text)).expect("update");
                assert_eq!(update.stats.inserted, 1);
            }
            writer_done.store(true, Ordering::Release);
        });
    });

    // Quiesced: one more cycle fills the tier, and its last
    // `RESULT_TIER_ENTRIES` requests are then all hits.
    let mut total = cacheable.load(Ordering::Relaxed) as u64;
    for pass in ["fill", "hit"] {
        let first = if pass == "fill" {
            0
        } else {
            CHURN_REQUESTS - RESULT_TIER_ENTRIES
        };
        for (i, want) in expected.iter().enumerate().skip(first) {
            let response = session
                .query_encoded(Request::new(churn_request(i)))
                .unwrap();
            assert_eq!(&wire_bytes(&response), want, "request {i}");
            assert!(
                pass == "fill" || response.metrics.result_cache_hit,
                "request {i}"
            );
            total += 1;
        }
    }
    let stats = session.cache_stats();
    assert_eq!(
        session.snapshot().store().version() - base_version,
        UPDATES as u64
    );
    assert_eq!(stats.result_entries, RESULT_TIER_ENTRIES);
    assert_eq!(stats.result_hits + stats.result_misses, total);
    assert!(stats.result_evictions > 0 && stats.invalidations > 0);
    // Every entry came from a miss and left at most once.
    assert!(
        stats.result_misses
            >= stats.result_entries as u64 + stats.result_evictions + stats.invalidations
    );
}

/// Four threads issue templated requests with fresh constants — distinct
/// texts, so every one misses the result tier and reaches the plan tier —
/// against one session at once. Some spell their variable differently,
/// which makes a skeleton of its own, so alias inserts interleave with
/// alias hits, and the templates share their plans across threads. Every
/// response renders what an uncached run of its text does, and every
/// request counts one plan-tier hit or miss.
#[test]
fn concurrent_plan_tier_hits_equal_uncached_runs() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 150;
    let request = |i: usize| -> String {
        let v = if i.is_multiple_of(7) { "x" } else { "n" };
        match i % 3 {
            0 => format!("SELECT ?{v} WHERE {{ <http://e/s{i}> <http://e/name> ?{v} . }}"),
            1 => format!(
                "SELECT ?s ?a WHERE {{ ?s <http://e/name> \"name {i}\" . ?s <http://e/age> ?a . }}"
            ),
            // The LIMIT count equals the FILTER constant now and then.
            _ => format!(
                "SELECT ?s ?{v} WHERE {{ ?s <http://e/age> ?a . ?s <http://e/name> ?{v} . \
                 FILTER (?a < {} && ?s != <http://e/s{i}>) }} ORDER BY ?{v} LIMIT 3",
                i % 90
            ),
        }
    };
    let total = THREADS * PER_THREAD;
    let ds = churn_dataset();
    let uncached = Session::new(ds.clone());
    let expected: Vec<[String; 4]> = (0..total)
        .map(|i| library_bytes(&uncached, &request(i)))
        .collect();
    let session = Session::new(ds);
    let start = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let (session, expected, start, request) = (&session, &expected, &start, &request);
            scope.spawn(move || {
                start.wait();
                for i in (thread..total).step_by(THREADS) {
                    let response = session.query_encoded(Request::new(request(i))).unwrap();
                    assert!(response.metrics.plan_cache_used, "request {i}");
                    assert_eq!(wire_bytes(&response), expected[i], "request {i}");
                }
            });
        }
    });
    let stats = session.cache_stats();
    assert_eq!(stats.result_misses, total as u64);
    assert_eq!(stats.plan_hits + stats.plan_misses, total as u64);
    // Only the threads racing the first instance of a skeleton can miss.
    let skeletons: HashSet<String> = (0..total)
        .map(|i| hsp_sparql::skeleton(&hsp_sparql::lexer::tokenize(&request(i)).unwrap()))
        .collect();
    assert_eq!(skeletons.len(), 5);
    assert!(
        stats.plan_misses <= (skeletons.len() * THREADS) as u64,
        "{stats:?}"
    );
}

/// A plan-tier hit answers like a cold run of its own text: the second
/// instance of a template takes the first one's plan and projection with
/// its own constants put in, so its columns, rows and `--explain` text
/// equal an uncached run's, and the explanation names the request's
/// constants, not the alias's.
#[test]
fn a_plan_tier_hit_explains_and_answers_like_a_cold_run() {
    let ds = churn_dataset();
    let session = Session::new(ds.clone());
    let cold = Session::new(ds);
    let instances = |i: usize| {
        [
            format!("SELECT ?n WHERE {{ <http://e/s{i}> <http://e/name> ?n . }}"),
            format!(
                "SELECT ?s ?a WHERE {{ ?s <http://e/name> \"name {i}\" . ?s <http://e/age> ?a . }}"
            ),
        ]
    };
    // What an explanation prints of each instance's own constant.
    let marks = |i: usize| [format!("s=s{i} "), format!("\"name {i}\"")];
    let instances = instances(3).into_iter().zip(instances(58));
    for ((alias, text), (alias_mark, mark)) in instances.zip(marks(3).into_iter().zip(marks(58))) {
        let first = session
            .query_encoded(Request::new(alias.as_str()).with_explain())
            .unwrap();
        assert!(!first.metrics.plan_cache_hit, "{alias}");
        let hit = session
            .query_encoded(Request::new(text.as_str()).with_explain())
            .unwrap();
        assert!(hit.metrics.plan_cache_hit, "{text}");
        let want = cold
            .query_encoded(Request::new(text.as_str()).with_explain().without_cache())
            .unwrap();
        assert!(!want.metrics.plan_cache_used, "{text}");
        assert_eq!(hit.columns, want.columns, "{text}");
        assert_eq!(wire_bytes(&hit), wire_bytes(&want), "{text}");
        assert_eq!(hit.rows.len(), 1, "{text}");
        let (got, want) = (hit.explain.unwrap(), want.explain.unwrap());
        assert_eq!(got, want, "{text}");
        assert!(got.contains(&mark) && !got.contains(&alias_mark), "{got}");
    }
}

/// Two connections race the first hit on one entry, in every format, over
/// a dozen entries of a few hundred to a thousand rows: both get the bytes
/// an uncached run renders, and exactly one body is stored — the tier grows
/// by what a lone first hit stores on a session of its own — which the next
/// hit then sends.
#[test]
fn racing_first_hits_store_one_body() {
    const ROUNDS: usize = 12;
    let text = |round: usize| {
        format!(
            "SELECT ?s ?n ?a WHERE {{ ?s <http://e/name> ?n . ?s <http://e/age> ?a . }} LIMIT {}",
            CHURN_REQUESTS - 60 * round
        )
    };
    let ds = churn_dataset();
    let library = Session::new(ds.clone());
    let solo = Server::start(Session::new(ds.clone()), ServeConfig::default()).unwrap();
    let race = Server::start(Session::new(ds), ServeConfig::default()).unwrap();
    let bytes = |server: &ServerHandle| server.session().cache_stats().result_bytes;
    let mut alone = Client::connect(solo.addr()).unwrap();
    let mut racers = [race.addr(), race.addr()].map(|addr| Client::connect(addr).unwrap());
    for text in (0..ROUNDS).map(text) {
        // The entry, from one miss on each server.
        reply_body(&alone.query("", &text).unwrap());
        reply_body(&racers[0].query("", &text).unwrap());
        for (name, want) in FORMAT_NAMES.iter().zip(library_bytes(&library, &text)) {
            let options = format!("format={name}");
            let before = bytes(&solo);
            assert_eq!(reply_body(&alone.query(&options, &text).unwrap()), want);
            let one_body = bytes(&solo) - before;
            assert!(one_body > 0, "{name}: the lone first hit stored nothing");

            let before = bytes(&race);
            let start = std::sync::Barrier::new(racers.len());
            let replies: Vec<String> = std::thread::scope(|scope| {
                let racing: Vec<_> = racers
                    .iter_mut()
                    .map(|client| {
                        let (start, options, text) = (&start, &options, &text);
                        scope.spawn(move || {
                            start.wait();
                            client.query(options, text).unwrap()
                        })
                    })
                    .collect();
                racing.into_iter().map(|r| r.join().unwrap()).collect()
            });
            for reply in &replies {
                assert_eq!(reply_body(reply), want, "{name}: {text}");
            }
            assert_eq!(
                bytes(&race) - before,
                one_body,
                "{name}: the race stored other than one body: {text}"
            );
            let before = bytes(&race);
            assert_eq!(reply_body(&racers[1].query(&options, &text).unwrap()), want);
            assert_eq!(bytes(&race), before, "{name}: the stored body was not sent");
        }
    }
    let stats = race.session().cache_stats();
    assert_eq!(stats.result_misses, ROUNDS as u64);
    assert_eq!(stats.result_hits, (ROUNDS * FORMAT_NAMES.len() * 3) as u64);
    assert_eq!(stats.result_evictions, 0);
    solo.shutdown();
    race.shutdown();
}
