//! The serve path end to end: concurrent TCP clients against one shared
//! session must get byte-identical answers to serial execution — and, in
//! every format, the bytes the library renderers write — governor trips
//! must not poison the shared morsel pool, and updates must never tear a
//! concurrent reader's snapshot.

use std::sync::OnceLock;

use hsp_bench::{BenchEnv, EnvConfig};
use hsp_datagen::{workload, DatasetKind};
use sparql_hsp::results;
use sparql_hsp::serve::{Client, ServeConfig, Server};
use sparql_hsp::session::{Request, Session, SessionOptions};
use sparql_hsp::store::Dataset;

fn env() -> &'static BenchEnv {
    static ENV: OnceLock<BenchEnv> = OnceLock::new();
    ENV.get_or_init(|| BenchEnv::load(EnvConfig::small()))
}

/// Session options that force real shared-pool scheduling on the small
/// test datasets: tiny morsels, no sequential-below threshold, a fixed
/// two-worker pool.
fn pooled_options() -> SessionOptions {
    SessionOptions {
        pool_threads: Some(2),
        morsel_rows: Some(512),
        min_parallel_rows: Some(0),
        ..SessionOptions::default()
    }
}

/// The mixed workload restricted to the server's dataset.
fn sp2b_queries() -> Vec<(String, String)> {
    workload()
        .into_iter()
        .filter(|q| q.dataset == DatasetKind::Sp2Bench)
        .map(|q| (q.id.to_string(), q.text.to_string()))
        .collect()
}

/// ≥4 concurrent clients fire the mixed workload at one server; every
/// response body must be byte-identical to a serial (one-thread,
/// single-session) execution of the same query, and the session's one
/// pool must have scheduled morsel batches from more than one query.
#[test]
fn concurrent_clients_are_byte_identical_to_serial_execution() {
    let ds = env().dataset(DatasetKind::Sp2Bench);
    let queries = sp2b_queries();
    assert!(queries.len() >= 4, "workload shrank unexpectedly");

    // The serial oracle: a one-thread budget keeps every kernel inline on
    // the calling thread, so its session's pool never sees a batch.
    let serial = Session::new(ds.clone());
    let expected: Vec<String> = queries
        .iter()
        .map(|(id, text)| {
            let response = serial
                .query(Request::new(text).with_threads(1))
                .unwrap_or_else(|e| panic!("{id} failed serially: {e}"));
            results::to_sparql_json(&response.output)
        })
        .collect();
    assert_eq!(serial.pool_stats().expect("session pool").batches, 0);

    let session = Session::with_options(ds.clone(), pooled_options());
    let server = Server::start(session, ServeConfig::default()).expect("server starts");
    let addr = server.addr();

    const CLIENTS: usize = 4;
    // Concurrent bursts repeat until the pool has demonstrably
    // interleaved two queries' morsels (round-robin makes this all but
    // immediate; the bound only guards against a pathological scheduler).
    let mut interleaved = 0;
    for _round in 0..10 {
        std::thread::scope(|scope| {
            for client_id in 0..CLIENTS {
                let queries = &queries;
                let expected = &expected;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    // Stagger the per-client query order so different
                    // queries overlap in time.
                    for i in 0..queries.len() {
                        let slot = (i + client_id) % queries.len();
                        let (id, text) = &queries[slot];
                        // cache=off: this test is about pool scheduling —
                        // result-cache hits would stop sending morsels to
                        // the pool after the first round.
                        let response = client
                            .query("threads=4 cache=off", text)
                            .unwrap_or_else(|e| panic!("{id}: transport error: {e}"));
                        let (header, body) =
                            response.split_once('\n').unwrap_or((response.as_str(), ""));
                        assert!(header.starts_with("OK "), "{id}: {header}");
                        assert_eq!(body, expected[slot], "{id} diverged from serial execution");
                    }
                });
            }
        });
        let stats = server.session().pool_stats().expect("pooled session");
        assert!(stats.batches > 0, "shared pool never saw a morsel batch");
        interleaved = stats.cross_query_switches;
        if interleaved > 0 {
            break;
        }
    }
    assert!(
        interleaved > 0,
        "workers never switched between queries' batches under concurrent load"
    );
    server.shutdown();
}

/// The same identity over the socket: for every bibliographic workload
/// query and an OPTIONAL / aggregate / ASK trio, the body `hsp-serve`
/// frames — rendered straight from id columns — is what the library
/// renderers write over `Session::query`'s decoded rows, in all four
/// formats: cold, as a result-cache hit (the first in a format renders and
/// stores its body; an ASK answer stores none) and as a hit sent from the
/// stored body; the status line counts the rows and columns the library
/// sees.
#[test]
fn wire_edge_equals_library_edge_over_tcp_in_every_format() {
    let ds = env().dataset(DatasetKind::Sp2Bench);
    let mut queries = sp2b_queries();
    for (id, body) in [
        (
            "optional",
            "SELECT ?a ?m WHERE { ?a rdf:type bench:Article . ?a dcterms:issued \"1990\" . \
             OPTIONAL { ?a swrc:month ?m . } }",
        ),
        (
            "aggregate",
            "SELECT ?y (COUNT(?a) AS ?n) WHERE { ?a rdf:type bench:Article . \
             ?a dcterms:issued ?y . } GROUP BY ?y",
        ),
        ("ask", "ASK { ?a rdf:type bench:Article . }"),
        // A FILTER equality the rewrite substitutes, its variable projected
        // and grouped by: the bound constant column in every format.
        (
            "rewritten_projected",
            "SELECT ?a ?y WHERE { ?a rdf:type bench:Article . ?a dcterms:issued ?y . \
             FILTER (?y = \"1990\") }",
        ),
        (
            "rewritten_grouped",
            "SELECT ?y (COUNT(?a) AS ?n) WHERE { ?a rdf:type bench:Article . \
             ?a dcterms:issued ?y . FILTER (?y = \"1990\") } GROUP BY ?y",
        ),
    ] {
        let prefixes = hsp_datagen::workload::sp_prefixes();
        queries.push((id.to_string(), format!("{prefixes}{body}")));
    }
    let library = Session::new(ds.clone());
    let server = Server::start(Session::new(ds.clone()), ServeConfig::default()).expect("server");
    let mut client = Client::connect(server.addr()).expect("client connects");
    type Render = fn(&sparql_hsp::extended::ExtendedOutput) -> String;
    let formats: [(&str, Render); 4] = [
        ("json", results::to_sparql_json),
        ("csv", results::to_csv),
        ("tsv", results::to_tsv),
        ("table", results::to_table),
    ];
    for (id, text) in &queries {
        let response = library
            .query(Request::new(text).without_cache())
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        for (format, render) in formats {
            let want = match response.ask {
                Some(answer) if format == "json" => results::ask_to_sparql_json(answer),
                Some(answer) => answer.to_string(),
                None => render(&response.output),
            };
            let status = format!(
                "OK rows={} cols={} pool_batches=",
                response.output.rows.len(),
                response.output.columns.len()
            );
            // JSON, the first format: a miss, a hit that stores the body,
            // a hit that sends it. Every later format starts at the hit
            // that stores.
            let first_hit = usize::from(format == "json");
            for attempt in 0..3 {
                let pass = match attempt.cmp(&first_hit) {
                    std::cmp::Ordering::Less => "cold",
                    std::cmp::Ordering::Equal => "cached",
                    std::cmp::Ordering::Greater => "stored",
                };
                let bytes = server.session().cache_stats().result_bytes;
                let reply = client
                    .query(&format!("format={format}"), text)
                    .unwrap_or_else(|e| panic!("{id}: transport error: {e}"));
                let (header, body) = reply.split_once('\n').unwrap_or((reply.as_str(), ""));
                assert!(
                    header.starts_with(&status),
                    "{id} {format} {pass}: {header}"
                );
                assert_eq!(body, want, "{id} {format} {pass}");
                if pass != "cold" {
                    let stores = pass == "cached" && response.ask.is_none();
                    let after = server.session().cache_stats().result_bytes;
                    assert_eq!(
                        after > bytes,
                        stores,
                        "{id} {format} {pass}: {bytes} -> {after}"
                    );
                }
            }
        }
    }
    let stats = server.session().cache_stats();
    // One miss per query (formats share the entry), every other request hits.
    assert_eq!(stats.result_misses, queries.len() as u64);
    assert_eq!(stats.result_hits, 11 * queries.len() as u64);
    server.shutdown();
}

fn name_dataset(people: usize) -> Dataset {
    let mut nt = String::new();
    for i in 0..people {
        nt.push_str(&format!(
            "<http://e/p{i}> <http://e/name> \"Person {i}\" .\n\
             <http://e/p{i}> <http://e/knows> <http://e/p{n}> .\n",
            n = (i + 1) % people,
        ));
    }
    Dataset::from_ntriples(&nt).unwrap()
}

/// A deadline trip on the shared pool must drain cleanly: the very next
/// query on the same pool (same server) succeeds, repeatedly.
#[test]
fn governor_trips_do_not_poison_the_shared_pool() {
    let server = Server::start(
        Session::with_options(name_dataset(2_000), pooled_options()),
        ServeConfig::default(),
    )
    .expect("server starts");
    let mut client = Client::connect(server.addr()).expect("client connects");
    let join = "SELECT ?a ?c WHERE { ?a <http://e/knows> ?b . ?b <http://e/knows> ?c . }";
    for round in 0..5 {
        // An already-expired deadline trips at the first checkpoint.
        let tripped = client
            .query("threads=4 timeout_ms=0", join)
            .expect("transport survives a trip");
        assert!(
            tripped.starts_with("ERR TIMEOUT"),
            "round {round}: expected a deadline trip, got {tripped}"
        );
        // The pool drained; the same query now succeeds on it
        // (cache=off so every round re-executes on the pool).
        let ok = client
            .query("threads=4 cache=off", join)
            .expect("transport survives");
        assert!(
            ok.starts_with("OK rows=2000 "),
            "round {round}: pool poisoned after a trip? {ok}"
        );
    }
    let stats = server.session().pool_stats().expect("pooled session");
    assert!(stats.batches > 0, "the trips never reached the pool");
    server.shutdown();
}

/// Updates publish by pointer swap: concurrent readers must only ever
/// see all `MARKERS` marker triples or none — a torn count means a
/// reader observed a half-applied update.
#[test]
fn updates_never_tear_a_concurrent_reader() {
    const MARKERS: usize = 50;
    const TRANSITIONS: usize = 20;
    let server = Server::start(
        Session::with_options(name_dataset(100), pooled_options()),
        ServeConfig::default(),
    )
    .expect("server starts");
    let addr = server.addr();

    let insert = {
        let mut text = String::from("INSERT DATA {\n");
        for i in 0..MARKERS {
            text.push_str(&format!("<http://e/m{i}> <http://e/marker> \"x\" .\n"));
        }
        text.push('}');
        text
    };
    let delete = "DELETE WHERE { ?m <http://e/marker> ?v . }".to_string();
    let count_query = "SELECT ?m WHERE { ?m <http://e/marker> ?v . }";

    let writer_done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut client = Client::connect(addr).expect("writer connects");
            for i in 0..TRANSITIONS {
                let text = if i.is_multiple_of(2) {
                    &insert
                } else {
                    &delete
                };
                let response = client.update("", text).expect("update transport");
                assert!(response.starts_with("OK "), "writer: {response}");
            }
            writer_done.store(true, std::sync::atomic::Ordering::Release);
        });
        let readers: Vec<_> = (0..3)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(addr).expect("reader connects");
                    loop {
                        // Read the flag before the query: once it is set,
                        // this read sees the final, stable state.
                        let last = writer_done.load(std::sync::atomic::Ordering::Acquire);
                        let response = client.query("", count_query).expect("query transport");
                        let header = response.lines().next().unwrap_or("");
                        let rows: usize = header
                            .strip_prefix("OK rows=")
                            .and_then(|r| r.split(' ').next())
                            .and_then(|r| r.parse().ok())
                            .unwrap_or_else(|| panic!("unparseable header: {header}"));
                        assert!(
                            rows == 0 || rows == MARKERS,
                            "torn read: {rows} of {MARKERS} marker triples visible"
                        );
                        if last {
                            // TRANSITIONS is even: the final state is
                            // marker-free.
                            assert_eq!(rows, 0, "final state");
                            break;
                        }
                    }
                })
            })
            .collect();
        writer.join().expect("writer panicked");
        // Every reader stops after its first read that started once the
        // writer was done — however late it started.
        for reader in readers {
            reader.join().expect("reader panicked");
        }
    });
    server.shutdown();
}

/// The two-tier cache end to end: a templated query plans once and then
/// reuses the cached plan; result entries are invalidated exactly when
/// an update touches a predicate they read, their stored wire bodies with
/// them; every cached, stored or refreshed response is byte-identical to
/// an uncached session — across thread budgets 1–4.
#[test]
fn invalidation_is_exact_and_cached_responses_stay_byte_identical() {
    let ds = name_dataset(200);
    let cached = Session::with_options(ds.clone(), pooled_options());
    let uncached = Session::with_options(ds, pooled_options());
    let name_q = "SELECT ?p ?n WHERE { ?p <http://e/name> ?n . }";
    let knows_q = "SELECT ?a ?b WHERE { ?a <http://e/knows> ?b . }";

    let run = |s: &Session, text: &str, threads: usize, no_cache: bool| {
        let mut request = Request::new(text).with_threads(threads);
        if no_cache {
            request = request.without_cache();
        }
        let response = s.query(request).unwrap_or_else(|e| panic!("{text}: {e}"));
        (results::to_sparql_json(&response.output), response.metrics)
    };
    // The wire edge over the same cache: the JSON body `hsp-serve` sends
    // for a hit, and whether the hit stored a body (a fresh render) rather
    // than send a stored one.
    let server = Server::start(cached.clone(), ServeConfig::default()).expect("server starts");
    let mut client = Client::connect(server.addr()).expect("client connects");
    let mut wire = |text: &str, threads: usize| {
        let bytes = cached.cache_stats().result_bytes;
        let hits = cached.cache_stats().result_hits;
        let reply = client
            .query(&format!("threads={threads}"), text)
            .unwrap_or_else(|e| panic!("{text}: transport error: {e}"));
        let (header, body) = reply.split_once('\n').unwrap_or((reply.as_str(), ""));
        assert!(header.starts_with("OK "), "{text}: {header}");
        let stats = cached.cache_stats();
        assert_eq!(stats.result_hits, hits + 1, "{text}: not a hit");
        (body.to_string(), stats.result_bytes > bytes)
    };

    // Plan tier: same shape, different constant — planned once.
    let (_, cold) = run(
        &cached,
        "SELECT ?p WHERE { ?p <http://e/name> \"Person 1\" . }",
        1,
        false,
    );
    assert!(cold.plan_cache_used && !cold.plan_cache_hit);
    let (templated, warm) = run(
        &cached,
        "SELECT ?p WHERE { ?p <http://e/name> \"Person 2\" . }",
        1,
        false,
    );
    assert!(
        warm.plan_cache_hit,
        "same shape, different constant must reuse the plan"
    );
    assert!(
        warm.result_cache_used && !warm.result_cache_hit,
        "a different constant is a different result key"
    );
    let (expected, _) = run(
        &uncached,
        "SELECT ?p WHERE { ?p <http://e/name> \"Person 2\" . }",
        1,
        true,
    );
    assert_eq!(
        templated, expected,
        "plan-cache hit diverged from uncached execution"
    );

    // Result tier: warm one entry per (query, threads) key.
    for threads in 1..=4 {
        run(&cached, name_q, threads, false);
        run(&cached, knows_q, threads, false);
    }
    for threads in 1..=4 {
        assert!(run(&cached, name_q, threads, false).1.result_cache_hit);
        assert!(run(&cached, knows_q, threads, false).1.result_cache_hit);
    }
    // Over the socket, each entry's first hit renders and stores its JSON
    // body; the next sends it.
    for threads in 1..=4 {
        for text in [name_q, knows_q] {
            let (expected, _) = run(&uncached, text, threads, true);
            assert_eq!(wire(text, threads), (expected.clone(), true), "{text}");
            assert_eq!(wire(text, threads), (expected, false), "{text}");
        }
    }
    let warm = cached.cache_stats();

    // A no-op update (duplicate insert) publishes nothing and must keep
    // the cache warm.
    let noop = Request::new("INSERT DATA { <http://e/p0> <http://e/name> \"Person 0\" . }");
    assert_eq!(cached.update(noop).unwrap().stats.inserted, 0);
    assert_eq!(cached.cache_stats().invalidations, warm.invalidations);
    assert!(run(&cached, name_q, 1, false).1.result_cache_hit);

    // An update touching only <http://e/name> drops exactly the name
    // entries (one per thread budget, plus the templated entry).
    let insert = "INSERT DATA { <http://e/extra> <http://e/name> \"Extra\" . }";
    cached.update(Request::new(insert)).unwrap();
    uncached.update(Request::new(insert)).unwrap();
    let after = cached.cache_stats();
    assert_eq!(
        after.invalidations,
        warm.invalidations + 6,
        "expected exactly the 4 name entries + cold/templated entries to drop"
    );
    for threads in 1..=4 {
        // Entries over the untouched predicate survived, and keep sending
        // their stored bodies.
        let (_, m) = run(&cached, knows_q, threads, false);
        assert!(
            m.result_cache_hit,
            "untouched-predicate entry was invalidated"
        );
        let (expected, _) = run(&uncached, knows_q, threads, true);
        assert_eq!(
            wire(knows_q, threads),
            (expected, false),
            "threads={threads}: untouched entry lost or changed its stored body"
        );
        // Name entries re-execute and match the uncached session.
        let (body, m) = run(&cached, name_q, threads, false);
        assert!(m.result_cache_used && !m.result_cache_hit);
        let (expected, _) = run(&uncached, name_q, threads, true);
        assert_eq!(
            body, expected,
            "threads={threads}: refresh diverged from uncached run"
        );
        // The refreshed entry serves those same bytes.
        let (again, m) = run(&cached, name_q, threads, false);
        assert!(m.result_cache_hit);
        assert_eq!(
            again, expected,
            "threads={threads}: cache hit is not byte-identical"
        );
        // Its first hit over the socket is a fresh render — the body stored
        // before the update went with its entry — and stores it.
        assert_eq!(
            wire(name_q, threads),
            (expected.clone(), true),
            "threads={threads}: touched entry sent a body stored before the update"
        );
        assert_eq!(wire(name_q, threads), (expected, false));
    }

    // DELETE WHERE over knows flushes the knows entries (and only them:
    // the 4 refreshed name entries survive).
    let before = cached.cache_stats();
    cached
        .update(Request::new("DELETE WHERE { ?a <http://e/knows> ?b . }"))
        .unwrap();
    let final_stats = cached.cache_stats();
    assert_eq!(final_stats.invalidations, before.invalidations + 4);
    assert!(run(&cached, name_q, 1, false).1.result_cache_hit);
    let (expected, _) = run(&uncached, name_q, 1, true);
    assert_eq!(wire(name_q, 1), (expected, false));
    assert!(!run(&cached, knows_q, 1, false).1.result_cache_hit);
    server.shutdown();
}

/// Twelve subjects with what the alias families below look up: ages to
/// filter and limit, `knows` / `likes` edges (to `e:` and `f:` subjects and
/// to the bare namespace IRIs a PREFIX declares), the same tag as an IRI
/// and as a literal, classes, boolean and integer flags, and one object
/// equal to a predicate.
fn alias_dataset() -> Dataset {
    const XSD: &str = "http://www.w3.org/2001/XMLSchema#";
    let mut nt = String::new();
    for i in 0..12usize {
        let s = format!("<http://e/s{i}>");
        let (next, skip) = ((i + 1) % 12, (i + 2 - i % 2) % 12);
        let flag = if i.is_multiple_of(2) {
            format!("\"true\"^^<{XSD}boolean>")
        } else {
            format!("\"1\"^^<{XSD}integer>")
        };
        nt.push_str(&format!(
            "{s} <http://e/age> \"{age}\"^^<{XSD}integer> .\n\
             {s} <http://e/knows> <http://e/s{next}> .\n\
             {s} <http://e/likes> <http://e/s{skip}> .\n\
             {s} <http://e/tag> <http://e/t{t}> .\n\
             {s} <http://e/tag> \"t{t}\" .\n\
             {s} <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/C{t}> .\n\
             {s} <http://e/flag> {flag} .\n",
            age = i % 4,
            t = i % 2,
        ));
        if i.is_multiple_of(3) {
            nt.push_str(&format!("{s} <http://e/knows> <http://e/> .\n"));
        }
        if i.is_multiple_of(2) {
            nt.push_str(&format!("{s} <http://f/knows> <http://f/> .\n"));
        }
    }
    nt.push_str("<http://e/s5> <http://e/knows> <http://e/knows> .\n");
    Dataset::from_ntriples(&nt).unwrap()
}

/// Instance `r` of alias family `family % 10`, each family a template built
/// to trip a key made from tokens, with its variable spelled `v`.
fn alias_request(family: u64, r: u64, v: &str) -> String {
    let pick = |options: &[&str], salt: u64| {
        options[((r >> salt) % options.len() as u64) as usize].to_string()
    };
    let e = |local: &str| format!("<http://e/{local}>");
    match family % 10 {
        // LIMIT / OFFSET counts that equal the FILTER constant.
        0 => format!(
            "SELECT ?{v} ?a WHERE {{ ?{v} <http://e/age> ?a . FILTER (?a > {}) }} \
             ORDER BY ?{v} LIMIT {} OFFSET {}",
            pick(&["0", "1", "2"], 0),
            pick(&["1", "2", "3"], 8),
            pick(&["0", "1", "2"], 16),
        ),
        // A PREFIX IRI equal to the object IRI.
        1 => format!(
            "PREFIX e: <{}> SELECT ?{v} WHERE {{ ?{v} e:knows <{}> . }}",
            pick(&["http://e/", "http://f/"], 0),
            pick(&["http://e/", "http://f/", "http://e/s1"], 8),
        ),
        // Shared and split constants.
        2 => format!(
            "SELECT ?{v} WHERE {{ ?{v} <http://e/knows> {} . ?{v} <http://e/likes> {} . }}",
            e(&pick(&["s1", "s2", "s3"], 0)),
            e(&pick(&["s1", "s2", "s3"], 8)),
        ),
        // IRI ↔ literal swaps.
        3 => format!(
            "SELECT ?{v} WHERE {{ ?{v} <http://e/tag> {} . }}",
            pick(&["<http://e/t0>", "<http://e/t1>", "\"t0\"", "\"t1\""], 0),
        ),
        // Prefixed and full IRIs.
        4 => format!(
            "PREFIX e: <http://e/> SELECT ?{v} WHERE {{ ?{v} e:knows {} . }}",
            pick(&["e:s1", "<http://e/s1>", "e:s2", "<http://e/s2>"], 0),
        ),
        // `a` and `rdf:type`.
        5 => format!(
            "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> \
             SELECT ?{v} WHERE {{ ?{v} {} {} . }}",
            pick(
                &[
                    "a",
                    "rdf:type",
                    "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
                ],
                0
            ),
            e(&pick(&["C0", "C1"], 8)),
        ),
        // Boolean literals, typed and bare, beside an integer.
        6 => format!(
            "SELECT ?{v} WHERE {{ ?{v} <http://e/flag> {} . }}",
            pick(
                &[
                    "\"true\"^^<http://www.w3.org/2001/XMLSchema#boolean>",
                    "true",
                    "\"1\"^^<http://www.w3.org/2001/XMLSchema#integer>",
                    "1",
                ],
                0
            ),
        ),
        // A parameter equal to a predicate.
        7 => format!(
            "SELECT ?{v} WHERE {{ ?{v} <http://e/knows> {} . }}",
            e(&pick(&["knows", "s6", "s7"], 0)),
        ),
        // Two FILTER constants the rewrite substitutes, their variables
        // projected: an alias hit binds its own constants.
        9 => format!(
            "SELECT ?{v} ?t ?k WHERE {{ ?{v} <http://e/tag> ?t . ?{v} <http://e/knows> ?k . \
             FILTER (?t = {} && ?k = {}) }}",
            e(&pick(&["t0", "t1"], 0)),
            e(&pick(&["s1", "s2", "s3"], 8)),
        ),
        // A changed predicate.
        _ => format!(
            "SELECT ?{v} WHERE {{ ?{v} {} <http://e/s3> . }}",
            e(&pick(&["knows", "likes"], 0)),
        ),
    }
}

/// The plan tier's token-shape aliases against uncached runs. Generated
/// instances of the alias families — fresh constants drawn from pools
/// small enough to repeat, share, swap kinds and collide with LIMIT counts,
/// PREFIX IRIs and predicates, under two variable spellings — each render
/// the bytes of an uncached run, and each counts exactly what the templates
/// alone predict: a result hit iff its text ran before ungoverned,
/// otherwise a plan-tier hit iff the template of an earlier miss under the
/// same skeleton accepts it, and no plan-tier lookup when its text has no
/// template.
#[test]
fn token_aliases_match_uncached_runs_and_the_template_counts() {
    use std::collections::{HashMap, HashSet};
    // The tier keeps this many templates under one skeleton, dropping the
    // least recently used (hit, or inserted if never hit); family 0 has
    // nine.
    const ALIASES_PER_SKELETON: usize = 8;
    let ds = alias_dataset();
    let cached = Session::with_options(ds.clone(), pooled_options());
    let uncached = Session::with_options(ds, pooled_options());
    let mut texts = HashSet::new();
    // Per skeleton, in insert order: each template and the step it was
    // last used at.
    let mut templates: HashMap<String, Vec<(hsp_sparql::Template, usize)>> = HashMap::new();
    let (mut plan_hits, mut plan_misses) = (0, 0);
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    for step in 0..600 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = state >> 24;
        let text = alias_request(r % 10, r >> 4, if r >> 30 & 1 == 0 { "s" } else { "x" });
        // A deadline keeps a request out of the result tier but not out of
        // the plan tier: repeated texts then reach the aliases too.
        let governed = r >> 31 & 1 == 1;
        let mut request = Request::new(&text);
        if governed {
            request = request.with_timeout(std::time::Duration::from_secs(600));
        }
        let response = cached
            .query(request)
            .unwrap_or_else(|e| panic!("{text}: {e}"));
        let expected = uncached
            .query(Request::new(&text).without_cache())
            .unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(
            results::to_sparql_json(&response.output),
            results::to_sparql_json(&expected.output),
            "step {step}: {text}"
        );
        let m = response.metrics;
        let result_hit = !governed && !texts.insert(text.clone());
        assert_eq!(m.result_cache_hit, result_hit, "step {step}: {text}");
        if result_hit {
            continue;
        }
        let tokens = hsp_sparql::lexer::tokenize(&text).expect("lexes");
        let (ast, hoisted) = hsp_sparql::parse_tokens(&tokens).expect("parses");
        let query = hsp_sparql::JoinQuery::from_ast(&ast).expect("a join query");
        let template = hsp_sparql::Template::new(&tokens, &hoisted, &ast, &query);
        assert_eq!(m.plan_cache_used, template.is_some(), "step {step}: {text}");
        if let Some((template, _)) = template {
            let earlier = templates.entry(hsp_sparql::skeleton(&tokens)).or_default();
            let hit = earlier
                .iter_mut()
                .find(|(t, _)| t.params(&tokens).is_some());
            assert_eq!(m.plan_cache_hit, hit.is_some(), "step {step}: {text}");
            if let Some((_, used)) = hit {
                *used = step;
                plan_hits += 1;
            } else {
                plan_misses += 1;
                earlier.retain(|(t, _)| *t != template);
                if earlier.len() == ALIASES_PER_SKELETON {
                    let lru = (0..earlier.len())
                        .min_by_key(|&i| earlier[i].1)
                        .expect("a full skeleton");
                    earlier.remove(lru);
                }
                earlier.push((template, step));
            }
        }
    }
    let stats = cached.cache_stats();
    assert_eq!(
        (stats.plan_hits, stats.plan_misses),
        (plan_hits, plan_misses)
    );
    assert!(plan_hits > 200, "only {plan_hits} plan-tier hits");
}

/// Admission control under a deliberately tiny capacity: every response
/// is either a success or an explicit `ERR BUSY` — never a hang or a
/// protocol failure — and the server keeps serving afterwards.
#[test]
fn admission_control_rejects_rather_than_queueing_without_bound() {
    let server = Server::start(
        Session::with_options(name_dataset(500), pooled_options()),
        ServeConfig {
            max_inflight: 1,
            max_queue: 0,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();
    let join = "SELECT ?a ?c WHERE { ?a <http://e/knows> ?b . ?b <http://e/knows> ?c . }";
    let (ok, busy) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    let mut ok = 0u32;
                    let mut busy = 0u32;
                    for _ in 0..5 {
                        // cache=off keeps every request executing, so the
                        // tiny capacity stays under real pressure.
                        let response = client
                            .query("threads=2 cache=off", join)
                            .expect("transport");
                        if response.starts_with("OK ") {
                            ok += 1;
                        } else if response.starts_with("ERR BUSY") {
                            busy += 1;
                        } else {
                            panic!("unexpected response: {response}");
                        }
                    }
                    (ok, busy)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .fold((0u32, 0u32), |(a, b), (c, d)| (a + c, b + d))
    });
    assert!(ok > 0, "no query was ever admitted (busy={busy})");
    // Whatever was rejected was counted.
    assert_eq!(server.metrics().rejected(), u64::from(busy));
    let mut client = Client::connect(addr).expect("client connects");
    assert!(client
        .query("", join)
        .expect("transport")
        .starts_with("OK "));
    server.shutdown();
}

/// A writer slower than the server's 50 ms shutdown-poll read timeout:
/// the timeout fires after the header and again between the two payload
/// halves. The server must resume the frame where it stopped — not parse
/// payload bytes as the next length header — answer correctly, and keep
/// the connection usable.
#[test]
fn slow_writers_do_not_desynchronise_the_frame_stream() {
    use sparql_hsp::serve::{read_frame, write_frame};
    use std::io::Write;
    use std::time::Duration;

    let server = Server::start(Session::new(name_dataset(3)), ServeConfig::default())
        .expect("server starts");
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("client connects");
    stream.set_nodelay(true).expect("nodelay");

    let query = "SELECT ?n WHERE { ?p <http://e/name> ?n . } ORDER BY ?n";
    let payload = format!("QUERY format=csv\n{query}");
    let (first, second) = payload.as_bytes().split_at(payload.len() / 2);
    let header = u32::try_from(payload.len()).unwrap().to_be_bytes();
    for (bytes, pause) in [(&header[..], 120), (first, 80), (second, 0)] {
        stream.write_all(bytes).expect("partial frame written");
        stream.flush().expect("flushed");
        std::thread::sleep(Duration::from_millis(pause));
    }
    let response = read_frame(&mut stream)
        .expect("response frame")
        .expect("server kept the connection open");
    let response = String::from_utf8(response).expect("UTF-8 response");
    let (status, body) = response.split_once('\n').expect("status line + body");
    assert!(status.starts_with("OK rows=3 cols=1"), "{status}");
    assert_eq!(body, "n\r\nPerson 0\r\nPerson 1\r\nPerson 2\r\n");

    // Same connection, ordinary one-write request: still in sync.
    write_frame(&mut stream, b"PING").expect("second request");
    let pong = read_frame(&mut stream)
        .expect("second response frame")
        .expect("connection still open");
    assert_eq!(pong, b"OK pong");
    server.shutdown();
}

/// Options the protocol no longer has (`sip=`, `strategy=`, `planner=` —
/// the wire always plans with HSP; only the CLI chooses), malformed
/// booleans, and a memory-budget trip each answer a typed `ERR`; the
/// connection stays usable and — with room for exactly one request in
/// flight — the next query is admitted, so no permit leaked.
#[test]
fn rejected_options_and_budget_trips_leave_the_connection_usable() {
    let server = Server::start(
        Session::with_options(name_dataset(500), pooled_options()),
        ServeConfig {
            max_inflight: 1,
            max_queue: 0,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let mut client = Client::connect(server.addr()).expect("client connects");
    let scan = "SELECT ?a ?b WHERE { ?a <http://e/knows> ?b . }";
    for (options, error) in [
        ("sip=1", "ERR PROTO unknown option `sip`"),
        ("strategy=operator", "ERR PROTO unknown option `strategy`"),
        ("planner=cdp", "ERR PROTO unknown option `planner`"),
        (
            "explain=yes",
            "ERR PROTO option explain needs 0|1|true|false",
        ),
        ("cache=offf", "ERR PROTO option cache needs 0|1|true|false"),
        (
            "mem_budget_mb=0 cache=off",
            "ERR MEM memory budget exceeded",
        ),
    ] {
        let response = client.query(options, scan).expect("transport");
        assert!(response.starts_with(error), "{options}: {response}");
        assert_eq!(client.ping().expect("transport"), "OK pong", "{options}");
        let response = client.query("cache=off", scan).expect("transport");
        assert!(response.starts_with("OK rows="), "{options}: {response}");
    }
    server.shutdown();
}
