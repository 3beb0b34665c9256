//! `hsp-serve` — the framed-TCP SPARQL server over one shared session.
//!
//! ```text
//! hsp-serve <data.nt|-> [options]
//!
//! Options:
//!   --addr <host:port>       bind address (default 127.0.0.1:7878;
//!                            port 0 picks an ephemeral port)
//!   --pool-threads <n>       how many workers the session's morsel pool
//!                            may use (default: auto-detect; at least 1)
//!   --max-inflight <n>       requests executing at once (default 8)
//!   --max-queue <n>          requests waiting for a slot before the
//!                            server answers ERR BUSY (default 16)
//!   --morsel-rows <n>        rows per morsel (small values interleave
//!                            small datasets across concurrent queries)
//!   --min-parallel-rows <n>  parallelise operators at or above this
//!                            many rows (0 = always)
//!   --smoke [clients]        self-test: serve on an ephemeral port,
//!                            fire concurrent internal clients at the
//!                            server, verify the plan + result caches
//!                            hit, print STATS, shut down cleanly
//! ```
//!
//! `-` as the data file serves a small built-in demo dataset (useful
//! with `--smoke`, which needs no files at all). The server runs until
//! a client sends `SHUTDOWN`. See [`sparql_hsp::serve`] for the wire
//! protocol.

use std::process::ExitCode;

use hsp_store::Dataset;
use sparql_hsp::serve::{Client, ServeConfig, Server};
use sparql_hsp::session::{Session, SessionOptions};

struct Args {
    data: String,
    addr: String,
    pool_threads: Option<usize>,
    max_inflight: usize,
    max_queue: usize,
    morsel_rows: Option<usize>,
    min_parallel_rows: Option<usize>,
    compaction_threshold: Option<usize>,
    smoke: Option<usize>,
}

fn usage() -> &'static str {
    "usage: hsp-serve <data.nt|-> [--addr host:port] [--pool-threads <n>]\n\
     \x20      [--max-inflight <n>] [--max-queue <n>] [--morsel-rows <n>]\n\
     \x20      [--min-parallel-rows <n>] [--compaction-threshold <n>]\n\
     \x20      [--smoke [clients]]\n\
     \n\
     --compaction-threshold <n>  rebuild the base runs once a write leaves\n\
     \x20      <n> overlay rows per order (default: HSP_COMPACT_THRESHOLD, else\n\
     \x20      max(4096, triples / 8))"
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1).peekable();
    let data = argv.next().ok_or_else(|| usage().to_string())?;
    let mut args = Args {
        data,
        addr: "127.0.0.1:7878".into(),
        pool_threads: None,
        max_inflight: 8,
        max_queue: 16,
        morsel_rows: None,
        min_parallel_rows: None,
        compaction_threshold: None,
        smoke: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        let int = |name: &str, v: String| {
            v.parse::<usize>()
                .map_err(|_| format!("{name} needs an integer"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--pool-threads" => {
                args.pool_threads = Some(int("--pool-threads", value("--pool-threads")?)?)
            }
            "--max-inflight" => {
                args.max_inflight = int("--max-inflight", value("--max-inflight")?)?.max(1)
            }
            "--max-queue" => args.max_queue = int("--max-queue", value("--max-queue")?)?,
            "--morsel-rows" => {
                args.morsel_rows = Some(int("--morsel-rows", value("--morsel-rows")?)?.max(1))
            }
            "--min-parallel-rows" => {
                args.min_parallel_rows =
                    Some(int("--min-parallel-rows", value("--min-parallel-rows")?)?)
            }
            "--compaction-threshold" => {
                args.compaction_threshold =
                    Some(int("--compaction-threshold", value("--compaction-threshold")?)?.max(1))
            }
            "--smoke" => {
                // Optional client-count operand.
                let clients = match argv.peek() {
                    Some(next) if !next.starts_with("--") => {
                        let v = argv.next().expect("peeked");
                        int("--smoke", v)?.max(1)
                    }
                    _ => 4,
                };
                args.smoke = Some(clients);
            }
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok(args)
}

/// A tiny dataset for `-`: enough shape for joins, OPTIONAL, and ASK.
fn demo_dataset() -> Dataset {
    let mut nt = String::new();
    for i in 0..64 {
        nt.push_str(&format!(
            "<http://e/p{i}> <http://e/name> \"Person {i}\" .\n\
             <http://e/p{i}> <http://e/knows> <http://e/p{next}> .\n",
            next = (i + 1) % 64,
        ));
        if i % 2 == 0 {
            nt.push_str(&format!(
                "<http://e/p{i}> <http://e/email> \"p{i}@example.org\" .\n"
            ));
        }
    }
    Dataset::from_ntriples(&nt).expect("demo dataset parses")
}

fn load(data: &str) -> Result<Dataset, String> {
    if data == "-" {
        return Ok(demo_dataset());
    }
    let document = std::fs::read_to_string(data).map_err(|e| format!("cannot read {data}: {e}"))?;
    if data.ends_with(".ttl") {
        Dataset::from_turtle(&document).map_err(|e| e.to_string())
    } else {
        Dataset::from_ntriples(&document).map_err(|e| e.to_string())
    }
}

/// The smoke drill: `clients` threads, each a TCP connection firing a
/// small mixed batch (SELECT / join / OPTIONAL / ASK / an update), every
/// response checked, then STATS and a clean SHUTDOWN.
fn smoke(addr: std::net::SocketAddr, clients: usize) -> Result<(), String> {
    let queries = [
        "SELECT ?n WHERE { ?p <http://e/name> ?n . } ORDER BY ?n LIMIT 5",
        "SELECT ?a ?b WHERE { ?a <http://e/knows> ?b . ?b <http://e/knows> ?c . } LIMIT 5",
        "SELECT ?n ?e WHERE { ?p <http://e/name> ?n . \
         OPTIONAL { ?p <http://e/email> ?e . } } LIMIT 5",
        "ASK { ?p <http://e/knows> ?q . }",
    ];
    let errors: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || -> Result<(), String> {
                    let mut client = Client::connect(addr)
                        .map_err(|e| format!("client {c}: connect: {e}"))?;
                    for (i, text) in queries.iter().cycle().take(queries.len() * 4).enumerate() {
                        // threads=2 lifts the request above the inline
                        // one-thread arm so it reaches the shared pool.
                        let response = client
                            .query("timeout_ms=10000 threads=2", text)
                            .map_err(|e| format!("client {c}: query {i}: {e}"))?;
                        if !response.starts_with("OK ") {
                            return Err(format!("client {c}: query {i}: {response}"));
                        }
                    }
                    let response = client
                        .update(
                            "",
                            &format!(
                                "INSERT DATA {{ <http://e/smoke{c}> <http://e/name> \"Smoke {c}\" . }}"
                            ),
                        )
                        .map_err(|e| format!("client {c}: update: {e}"))?;
                    if !response.starts_with("OK ") {
                        return Err(format!("client {c}: update: {response}"));
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("smoke client panicked").err())
            .collect()
    });
    if !errors.is_empty() {
        return Err(errors.join("\n"));
    }
    // Cache drill: the same ungoverned query twice — the second serve
    // must come from the result tier, byte-identical below the header —
    // then a same-shape / different-constant variant, which must reuse
    // the cached plan instead of planning again.
    let template = |name: &str| format!("SELECT ?p WHERE {{ ?p <http://e/name> \"{name}\" . }}");
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let first = client
        .query("", &template("Person 1"))
        .map_err(|e| format!("cache drill: {e}"))?;
    let second = client
        .query("", &template("Person 1"))
        .map_err(|e| format!("cache drill: {e}"))?;
    if !first.starts_with("OK ") || !second.starts_with("OK ") {
        return Err(format!("cache drill failed: {first} / {second}"));
    }
    let body = |r: &str| {
        r.split_once('\n')
            .map(|(_, b)| b.to_string())
            .unwrap_or_default()
    };
    if body(&first) != body(&second) {
        return Err("cache drill: cached response is not byte-identical to the cold run".into());
    }
    let third = client
        .query("", &template("Person 2"))
        .map_err(|e| format!("cache drill: {e}"))?;
    if !third.starts_with("OK ") {
        return Err(format!("cache drill failed: {third}"));
    }
    let stats = client.stats().map_err(|e| e.to_string())?;
    println!("--- STATS after {clients} concurrent clients ---");
    print!("{}", stats.trim_start_matches("OK\n"));
    // The run must actually have scheduled morsel batches on the pool.
    if let Some(line) = stats.lines().find(|l| l.starts_with("pool_batches=")) {
        let batches: u64 = line
            .trim_start_matches("pool_batches=")
            .parse()
            .unwrap_or(0);
        if batches == 0 {
            return Err("shared pool never scheduled a morsel batch".into());
        }
    }
    // The drill (and the repeated per-client batches before it) must
    // have exercised both cache tiers.
    let stat = |name: &str| -> u64 {
        stats
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix('=')?.parse().ok())
            .unwrap_or(0)
    };
    if stat("plan_cache_hits") == 0 {
        return Err("plan cache never hit (templated query was re-planned)".into());
    }
    if stat("result_cache_hits") == 0 {
        return Err("result cache never hit (repeated query was re-executed)".into());
    }
    client.shutdown().map_err(|e| e.to_string())?;
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let ds = load(&args.data)?;
    eprintln!("loaded {} triples from {}", ds.len(), args.data);
    // Smoke mode forces pool scheduling (two workers, tiny morsels, no
    // sequential-below threshold) unless overridden, so its STATS show
    // live shared-pool counters even on the small demo dataset.
    let options = if args.smoke.is_some() {
        SessionOptions {
            pool_threads: args.pool_threads.or(Some(2)),
            morsel_rows: args.morsel_rows.or(Some(16)),
            min_parallel_rows: args.min_parallel_rows.or(Some(0)),
            compaction_threshold: args.compaction_threshold,
        }
    } else {
        SessionOptions {
            pool_threads: args.pool_threads,
            morsel_rows: args.morsel_rows,
            min_parallel_rows: args.min_parallel_rows,
            compaction_threshold: args.compaction_threshold,
        }
    };
    let session = Session::with_options(ds, options);
    let config = ServeConfig {
        // Smoke mode always binds an ephemeral port so it cannot collide
        // with a real server on the default port.
        addr: if args.smoke.is_some() {
            "127.0.0.1:0".into()
        } else {
            args.addr.clone()
        },
        max_inflight: args.max_inflight,
        max_queue: args.max_queue,
    };
    let server = Server::start(session, config).map_err(|e| e.to_string())?;
    let addr = server.addr();
    if let Some(clients) = args.smoke {
        eprintln!("smoke: serving on {addr}, {clients} concurrent clients");
        let result = smoke(addr, clients);
        server.join();
        result?;
        eprintln!("smoke: ok");
        return Ok(());
    }
    eprintln!("serving on {addr} (send SHUTDOWN to stop)");
    server.join();
    eprintln!("server stopped");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
