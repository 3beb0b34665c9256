//! Serving benchmark behind `repro -- serve`: sustained throughput and
//! tail latency of the framed-TCP front door under a mixed concurrent
//! workload, written to `BENCH_serve.json`.
//!
//! Two measurements, both over the SP2Bench-like slice of the standard
//! 14-query workload against one [`sparql_hsp::serve::Server`] whose
//! session owns one shared morsel pool:
//!
//! * `serve_overhead_t1` (**gated** by `bench_gate`): one client issues
//!   the workload sequentially over TCP; the baseline is the same
//!   workload evaluated in-process through [`Session::query`] with the
//!   results rendered to the same SPARQL-JSON the server ships. The
//!   speedup is the fraction of in-process performance the serving
//!   layer keeps (framing + protocol parse + admission + response
//!   rendering); it regressing means the front door grew real
//!   per-request overhead. Single client, so the number is stable on a
//!   small CI runner.
//! * `serve_mixed_c4` (informational): the same request multiset fired
//!   by [`CLIENTS`] concurrent connections against a single sequential
//!   client issuing it back to back on one connection. On a multi-core
//!   host the concurrent wall clock wins; on a 1–2 vCPU runner it
//!   mostly proves admission and the shared pool do not serialize the
//!   server, which is why the row does not gate. Its JSON row carries
//!   the headline serving numbers: sustained `qps` and `p50_ns` /
//!   `p99_ns` per-request latency across all concurrent clients.
//! * `serve_cached_t1` (**gated**): repeat traffic — the same workload
//!   issued for several passes on one connection, once with the
//!   session's caches disabled per request (`cache=off`, the baseline:
//!   every request plans and executes) and once with them on (the first
//!   pass warms the plan + result tiers, later passes are served from
//!   the result cache). The speedup is what caching buys repeat
//!   traffic; the row gates so the cache path cannot silently regress
//!   to re-executing.
//! * `serve_update_t1` (**gated**): write-heavy publication latency —
//!   a sequence of `INSERT DATA` / `DELETE DATA` batches against a
//!   100k-triple store, on a server that compacts after every update
//!   (threshold 1: every batch pays the O(store) base-run rebuild the
//!   pre-delta store paid on every write) versus one with the default
//!   compaction threshold (a batch publishes in O(delta log delta)).
//!   The speedup is what copy-on-write deltas buy the write path; the
//!   row gates so publication cannot silently regress to cloning the
//!   dataset per batch.
//!
//! The overhead and mixed phases pin `cache=off` on every request (and
//! the in-process reference bypasses the session caches) so those rows
//! keep measuring the front door and the pool, not the result tier.
//!
//! The JSON mirrors the `BENCH_ops.json` line shape (`bench_gate`
//! parses rows line by line), with a trailing `pool_batches` /
//! `pool_cross_query_switches` pair taken from the shared pool's
//! counters — direct evidence that concurrent queries' morsels really
//! were scheduled on one pool during the run.

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::Instant;

use hsp_datagen::{generate_sp2bench, workload, DatasetKind, Sp2BenchConfig};
use sparql_hsp::results;
use sparql_hsp::serve::{Client, ServeConfig, Server};
use sparql_hsp::session::{Request, Session, SessionOptions};

use crate::{BenchEnv, EnvConfig};

/// Concurrent connections in the mixed phase.
pub const CLIENTS: usize = 4;

/// Passes each client makes over the workload (so the concurrent phase
/// has enough requests in flight to overlap meaningfully).
const PASSES: usize = 3;

/// INSERT/DELETE batch pairs the write-heavy phase publishes per server.
const UPDATE_BATCHES: usize = 16;

/// Ground triples per update batch — the delta each publication carries.
const UPDATE_ROWS: usize = 64;

/// Triples in the write-heavy phase's dataset: large enough that the
/// per-batch O(store) rebuild of the compact-every-update baseline
/// dominates the O(delta log delta) cost of the delta path.
const UPDATE_STORE_TRIPLES: usize = 100_000;

/// One measured serving row.
pub struct ServeResult {
    /// Row name (`*_t1` rows gate in CI).
    pub name: String,
    /// Reference wall-clock nanoseconds (see module docs per row).
    pub baseline_ns: u128,
    /// Measured wall-clock nanoseconds of the serving path.
    pub optimized_ns: u128,
    /// Sustained queries per second, when the row measures throughput.
    pub qps: Option<f64>,
    /// Median per-request latency across all clients.
    pub p50_ns: Option<u128>,
    /// 99th-percentile per-request latency across all clients.
    pub p99_ns: Option<u128>,
}

impl ServeResult {
    /// Baseline time over measured time.
    pub fn speedup(&self) -> f64 {
        self.baseline_ns as f64 / self.optimized_ns.max(1) as f64
    }
}

/// The full report: rows plus the shared pool's cross-query counters.
pub struct ServeReport {
    pub rows: Vec<ServeResult>,
    /// Morsel batches the shared pool dispatched during the run.
    pub pool_batches: u64,
    /// Worker claim-switches between different queries' batches.
    pub pool_cross_query_switches: u64,
}

/// The SP2Bench-like half of the standard workload (the server holds one
/// dataset), as `(id, text)` pairs.
fn sp2b_queries() -> Vec<(String, String)> {
    workload()
        .into_iter()
        .filter(|q| q.dataset == DatasetKind::Sp2Bench)
        .map(|q| (q.id.to_string(), q.text.to_string()))
        .collect()
}

/// Request options for the overhead and mixed phases: enough thread
/// budget that `workers_for` routes morsels to the shared pool, and
/// `cache=off` so repeated passes keep measuring execution, not the
/// result tier (the cached phase measures that explicitly).
const REQ_OPTS: &str = "threads=4 cache=off";

/// Same thread budget with the session caches left on, for the cached
/// side of the `serve_cached_t1` row.
const CACHED_REQ_OPTS: &str = "threads=4";

/// Issue `passes` passes over `queries` on one connection, starting each
/// pass at a different offset (so concurrent callers overlap *different*
/// queries). Returns per-request latencies; panics on any non-`OK`.
fn run_client(
    addr: SocketAddr,
    queries: &[(String, String)],
    passes: usize,
    stagger: usize,
    opts: &str,
) -> Vec<u128> {
    let mut client = Client::connect(addr).expect("bench client connects");
    let mut latencies = Vec::with_capacity(passes * queries.len());
    for pass in 0..passes {
        for i in 0..queries.len() {
            let (id, text) = &queries[(i + stagger + pass) % queries.len()];
            let start = Instant::now();
            let response = client
                .query(opts, text)
                .unwrap_or_else(|e| panic!("{id}: transport error: {e}"));
            latencies.push(start.elapsed().as_nanos());
            assert!(
                response.starts_with("OK "),
                "{id}: server refused a benchmark query: {}",
                response.lines().next().unwrap_or("")
            );
        }
    }
    latencies
}

/// The write-heavy phase's request sequence: `UPDATE_BATCHES` pairs of
/// an `INSERT DATA` batch of `UPDATE_ROWS` fresh triples and the
/// matching `DELETE DATA`, so the store returns to its initial size and
/// both servers publish the identical sequence.
fn update_batches() -> Vec<String> {
    let mut batches = Vec::with_capacity(UPDATE_BATCHES * 2);
    for b in 0..UPDATE_BATCHES {
        let mut insert = String::from("INSERT DATA {\n");
        let mut delete = String::from("DELETE DATA {\n");
        for i in 0..UPDATE_ROWS {
            let triple = format!("<http://bench/u{b}x{i}> <http://bench/upd> \"v{b}x{i}\" .\n");
            insert.push_str(&triple);
            delete.push_str(&triple);
        }
        insert.push('}');
        delete.push('}');
        batches.push(insert);
        batches.push(delete);
    }
    batches
}

/// Publish every batch over one connection; the elapsed time is the
/// client-observed publication cost of the whole write sequence (an
/// `UPDATE` response is sent only after the new snapshot is live).
fn run_update_client(addr: SocketAddr, batches: &[String]) -> u128 {
    let mut client = Client::connect(addr).expect("bench update client connects");
    let start = Instant::now();
    for (i, text) in batches.iter().enumerate() {
        let response = client
            .update("", text)
            .unwrap_or_else(|e| panic!("update {i}: transport error: {e}"));
        assert!(
            response.starts_with("OK "),
            "update {i}: server refused a benchmark update: {}",
            response.lines().next().unwrap_or("")
        );
    }
    start.elapsed().as_nanos()
}

fn percentile(sorted: &[u128], p: f64) -> u128 {
    assert!(!sorted.is_empty());
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Run the serving benchmark. Loads its own small dataset pair (the
/// serving numbers measure the front door, not dataset scale), so it
/// does not need the repro environment.
pub fn measure_serve() -> ServeReport {
    let env = BenchEnv::load(EnvConfig::small());
    let ds = env.dataset(DatasetKind::Sp2Bench);
    let queries = sp2b_queries();
    assert!(queries.len() >= 4, "workload shrank unexpectedly");

    // In-process reference: the same queries through Session::query on a
    // default session, rendered to the SPARQL-JSON the server ships —
    // everything the serving layer adds on top of this is its overhead.
    let in_process = Session::new(ds.clone());
    let start = Instant::now();
    for _ in 0..PASSES {
        for (id, text) in &queries {
            // without_cache: the reference must re-plan and re-execute
            // every pass, like the cache=off serving requests it anchors.
            let response = in_process
                .query(Request::new(text).without_cache())
                .unwrap_or_else(|e| panic!("{id} failed in-process: {e}"));
            std::hint::black_box(results::to_sparql_json(&response.output));
        }
    }
    let in_process_ns = start.elapsed().as_nanos();

    // One server, one shared pool, for both serving phases. Tiny morsels
    // and no sequential-below threshold so the small benchmark dataset
    // still exercises real pool scheduling.
    let session = Session::with_options(
        ds.clone(),
        SessionOptions {
            pool_threads: Some(2),
            morsel_rows: Some(512),
            min_parallel_rows: Some(0),
            ..SessionOptions::default()
        },
    );
    let server = Server::start(session, ServeConfig::default()).expect("bench server starts");
    let addr = server.addr();

    // Phase 1 — one client, sequential: the serving-layer overhead row.
    let start = Instant::now();
    let serial_one = run_client(addr, &queries, PASSES, 0, REQ_OPTS);
    let serial_one_ns = start.elapsed().as_nanos();
    assert_eq!(serial_one.len(), PASSES * queries.len());

    // Phase 2a — the concurrent request multiset issued back to back on
    // one connection: the serial reference for the concurrency row.
    let start = Instant::now();
    for stagger in 0..CLIENTS {
        run_client(addr, &queries, PASSES, stagger, REQ_OPTS);
    }
    let serial_all_ns = start.elapsed().as_nanos();

    // Phase 2b — the same multiset from CLIENTS concurrent connections.
    let start = Instant::now();
    let mut latencies: Vec<u128> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|stagger| {
                let queries = &queries;
                scope.spawn(move || run_client(addr, queries, PASSES, stagger, REQ_OPTS))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("bench client panicked"))
            .collect()
    });
    let concurrent_ns = start.elapsed().as_nanos();
    latencies.sort_unstable();
    let requests = latencies.len();
    let qps = requests as f64 / (concurrent_ns as f64 / 1e9);

    // Phase 3 — repeat traffic. The same passes with caches off (every
    // request re-plans and re-executes) versus on (pass one warms the
    // plan + result tiers, later passes serve from the result cache).
    let start = Instant::now();
    run_client(addr, &queries, PASSES, 0, REQ_OPTS);
    let uncached_ns = start.elapsed().as_nanos();
    let hits_before = server.session().cache_stats().result_hits;
    let start = Instant::now();
    run_client(addr, &queries, PASSES, 0, CACHED_REQ_OPTS);
    let cached_ns = start.elapsed().as_nanos();
    let cache = server.session().cache_stats();
    assert!(
        cache.result_hits > hits_before,
        "cached phase never hit the result tier (hits stayed at {hits_before})"
    );

    let stats = server
        .session()
        .pool_stats()
        .expect("benchmark session is pooled");
    server.shutdown();

    // Phase 4 — write-heavy: publication latency of UPDATE batches
    // against a 100k-triple store. The baseline server compacts after
    // every update (threshold 1): each batch folds the delta back into
    // the six base runs before the UPDATE response ships — the O(store)
    // per-batch cost the pre-delta store paid on every write. The
    // measured server keeps the default threshold, so a batch costs
    // O(delta log delta) and base rebuilds amortise over many batches.
    // Updates never consult the result cache, so the row is cache-off by
    // construction.
    let update_ds = generate_sp2bench(Sp2BenchConfig::with_triples(UPDATE_STORE_TRIPLES));
    let batches = update_batches();
    let compact_every = Session::with_options(
        update_ds.clone(),
        SessionOptions {
            compaction_threshold: Some(1),
            ..SessionOptions::default()
        },
    );
    let baseline_server =
        Server::start(compact_every, ServeConfig::default()).expect("baseline update server");
    let update_baseline_ns = run_update_client(baseline_server.addr(), &batches);
    assert!(
        baseline_server.session().snapshot().store().compactions() >= batches.len() as u64,
        "threshold-1 baseline must compact on every update"
    );
    baseline_server.shutdown();
    let delta_session = Session::new(update_ds);
    let delta_server =
        Server::start(delta_session, ServeConfig::default()).expect("delta update server");
    let update_optimized_ns = run_update_client(delta_server.addr(), &batches);
    let published = delta_server.session().snapshot();
    assert_eq!(
        published.store().version(),
        batches.len() as u64,
        "every batch must have published a new store version"
    );
    delta_server.shutdown();

    ServeReport {
        rows: vec![
            ServeResult {
                name: "serve_overhead_t1".into(),
                baseline_ns: in_process_ns,
                optimized_ns: serial_one_ns,
                qps: None,
                p50_ns: None,
                p99_ns: None,
            },
            ServeResult {
                name: format!("serve_mixed_c{CLIENTS}"),
                baseline_ns: serial_all_ns,
                optimized_ns: concurrent_ns,
                qps: Some(qps),
                p50_ns: Some(percentile(&latencies, 0.50)),
                p99_ns: Some(percentile(&latencies, 0.99)),
            },
            ServeResult {
                name: "serve_cached_t1".into(),
                baseline_ns: uncached_ns,
                optimized_ns: cached_ns,
                qps: None,
                p50_ns: None,
                p99_ns: None,
            },
            ServeResult {
                name: "serve_update_t1".into(),
                baseline_ns: update_baseline_ns,
                optimized_ns: update_optimized_ns,
                qps: None,
                p50_ns: None,
                p99_ns: None,
            },
        ],
        pool_batches: stats.batches,
        pool_cross_query_switches: stats.cross_query_switches,
    }
}

/// Human-readable summary for the terminal.
pub fn render_text(report: &ServeReport) -> String {
    let mut out = String::from("Serving benchmark (framed TCP, one shared morsel pool)\n\n");
    writeln!(
        out,
        "{:<20} {:>12} {:>12} {:>9}",
        "row", "reference", "measured", "speedup"
    )
    .expect("writing to String");
    for r in &report.rows {
        writeln!(
            out,
            "{:<20} {:>10.2}ms {:>10.2}ms {:>8.2}x",
            r.name,
            r.baseline_ns as f64 / 1e6,
            r.optimized_ns as f64 / 1e6,
            r.speedup()
        )
        .expect("writing to String");
        if let (Some(qps), Some(p50), Some(p99)) = (r.qps, r.p50_ns, r.p99_ns) {
            writeln!(
                out,
                "{:<20} {qps:>10.1} qps, p50 {:.2}ms, p99 {:.2}ms",
                "",
                p50 as f64 / 1e6,
                p99 as f64 / 1e6
            )
            .expect("writing to String");
        }
    }
    writeln!(
        out,
        "\nshared pool: {} batch(es), {} cross-query switch(es)",
        report.pool_batches, report.pool_cross_query_switches
    )
    .expect("writing to String");
    out
}

/// The `BENCH_serve.json` payload — same line-oriented row shape as
/// `BENCH_ops.json` so `bench_gate` gates the `*_t1` row.
pub fn render_json(report: &ServeReport) -> String {
    let mut out =
        String::from("{\n  \"benchmark\": \"serve\",\n  \"unit\": \"ns\",\n  \"results\": [\n");
    for (i, r) in report.rows.iter().enumerate() {
        let mut extra = String::new();
        if let (Some(qps), Some(p50), Some(p99)) = (r.qps, r.p50_ns, r.p99_ns) {
            write!(
                extra,
                ", \"qps\": {qps:.1}, \"p50_ns\": {p50}, \"p99_ns\": {p99}"
            )
            .expect("writing to String");
        }
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"baseline_ns\": {}, \"optimized_ns\": {}, \"speedup\": {:.3}{extra}}}{}",
            r.name,
            r.baseline_ns,
            r.optimized_ns,
            r.speedup(),
            if i + 1 < report.rows.len() { "," } else { "" }
        )
        .expect("writing to String");
    }
    writeln!(
        out,
        "  ],\n  \"clients\": {CLIENTS},\n  \"pool_batches\": {},\n  \"pool_cross_query_switches\": {}",
        report.pool_batches, report.pool_cross_query_switches
    )
    .expect("writing to String");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_rows_parse_like_bench_ops_rows() {
        let report = ServeReport {
            rows: vec![
                ServeResult {
                    name: "serve_overhead_t1".into(),
                    baseline_ns: 100,
                    optimized_ns: 125,
                    qps: None,
                    p50_ns: None,
                    p99_ns: None,
                },
                ServeResult {
                    name: "serve_mixed_c4".into(),
                    baseline_ns: 400,
                    optimized_ns: 200,
                    qps: Some(123.456),
                    p50_ns: Some(7),
                    p99_ns: Some(9),
                },
            ],
            pool_batches: 5,
            pool_cross_query_switches: 2,
        };
        let json = render_json(&report);
        assert!(json.contains(
            "{\"name\": \"serve_overhead_t1\", \"baseline_ns\": 100, \"optimized_ns\": 125, \
             \"speedup\": 0.800}"
        ));
        assert!(json.contains("\"qps\": 123.5, \"p50_ns\": 7, \"p99_ns\": 9"));
        assert!(json.contains("\"pool_cross_query_switches\": 2"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn percentiles_hit_the_ends() {
        let sorted = [1u128, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(percentile(&sorted, 0.0), 1);
        assert_eq!(percentile(&sorted, 1.0), 10);
        assert_eq!(percentile(&sorted, 0.5), 6);
    }
}
