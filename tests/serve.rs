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
/// formats, cold and as a result-cache hit; the status line counts the
/// rows and columns the library sees.
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
            for attempt in 0..2 {
                let reply = client
                    .query(&format!("format={format}"), text)
                    .unwrap_or_else(|e| panic!("{id}: transport error: {e}"));
                let (header, body) = reply.split_once('\n').unwrap_or((reply.as_str(), ""));
                assert!(
                    header.starts_with(&status),
                    "{id} {format} #{attempt}: {header}"
                );
                assert_eq!(body, want, "{id} {format} #{attempt}");
            }
        }
    }
    let stats = server.session().cache_stats();
    // One miss per query (formats share the entry), every other request hits.
    assert_eq!(stats.result_misses, queries.len() as u64);
    assert_eq!(stats.result_hits, 7 * queries.len() as u64);
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

    std::thread::scope(|scope| {
        let writer = scope.spawn(move || {
            let mut client = Client::connect(addr).expect("writer connects");
            for i in 0..TRANSITIONS {
                let text = if i % 2 == 0 { &insert } else { &delete };
                let response = client.update("", text).expect("update transport");
                assert!(response.starts_with("OK "), "writer: {response}");
            }
        });
        let readers: Vec<_> = (0..3)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("reader connects");
                    let mut seen_full = false;
                    loop {
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
                        seen_full |= rows == MARKERS;
                        // Stop once the writer is done (marker state is
                        // then stable at the final transition's value).
                        if seen_full && rows == 0 {
                            break;
                        }
                    }
                })
            })
            .collect();
        writer.join().expect("writer panicked");
        // TRANSITIONS is even, so the final state is marker-free; every
        // reader terminates once it has seen both states.
        for reader in readers {
            reader.join().expect("reader panicked");
        }
    });
    server.shutdown();
}

/// The two-tier cache end to end: a templated query plans once and then
/// reuses the cached plan; result entries are invalidated exactly when
/// an update touches a predicate they read; every cached or refreshed
/// response is byte-identical to an uncached session — across thread
/// budgets 1–4.
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
        // Entries over the untouched predicate survived.
        let (_, m) = run(&cached, knows_q, threads, false);
        assert!(
            m.result_cache_hit,
            "untouched-predicate entry was invalidated"
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
    assert!(!run(&cached, knows_q, 1, false).1.result_cache_hit);
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

/// Options the protocol no longer has (`sip=`, `strategy=`), malformed
/// booleans, and a row-budget trip each answer a typed `ERR`; the
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
        (
            "explain=yes",
            "ERR PROTO option explain needs 0|1|true|false",
        ),
        ("cache=offf", "ERR PROTO option cache needs 0|1|true|false"),
        ("row_budget=10 cache=off", "ERR EXEC row budget exceeded"),
    ] {
        let response = client.query(options, scan).expect("transport");
        assert!(response.starts_with(error), "{options}: {response}");
        assert_eq!(client.ping().expect("transport"), "OK pong", "{options}");
        let response = client.query("cache=off", scan).expect("transport");
        assert!(response.starts_with("OK rows="), "{options}: {response}");
    }
    server.shutdown();
}
