//! The closed loop: each client sends its next operation only when the
//! previous one has answered and been checked.
//!
//! The load generator, the server and its pool live in one process and talk
//! over loopback. Client counts never exceed the core count of the box the
//! bounds were calibrated on (2), so what is measured is the system and not
//! the scheduler's queue.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use sparql_hsp::results;
use sparql_hsp::serve::Client;
use sparql_hsp::session::{Request, Response, Session};

use crate::check::{digest_json, digest_output, digest_update, Digest, Transport};
use crate::sample::{highest_supported, percentile};
use crate::trace::ClientTrace;
use crate::workloads::{Env, Op, Plan};

/// One client's way to the system under test.
pub enum Conn {
    /// Calls `Session::query` directly (`paper14.inproc`): caches bypassed,
    /// thread budget from the plan.
    InProc {
        sessions: Vec<Session>,
        threads: Option<usize>,
    },
    /// One framed-TCP connection.
    Tcp { client: Client, opts: &'static str },
}

/// What came back from one operation, before it is checked.
pub enum Reply {
    Rows(Box<Response>),
    Payload(String),
}

impl Conn {
    /// Open one client's connection to `env`.
    pub fn open(env: &Env, plan: &Plan) -> Result<Conn, String> {
        match plan.transport {
            Transport::InProc => Ok(Conn::InProc {
                sessions: env.sessions.clone(),
                threads: plan.threads,
            }),
            Transport::Tcp => {
                let server = env.server.as_ref().ok_or("workload needs a server")?;
                let client =
                    Client::connect(server.addr()).map_err(|e| format!("connecting: {e}"))?;
                Ok(Conn::Tcp {
                    client,
                    opts: plan.opts,
                })
            }
        }
    }

    /// Send `op` and wait for its reply; the time this takes is the
    /// client-observed latency.
    fn send(&mut self, op: &Op) -> Result<Reply, String> {
        match self {
            Conn::InProc { sessions, threads } => {
                let mut request = Request::new(op.text.as_str()).without_cache();
                if let Some(threads) = *threads {
                    request = request.with_threads(threads);
                }
                sessions[op.target]
                    .query(request)
                    .map(|r| Reply::Rows(Box::new(r)))
                    .map_err(|e| e.to_string())
            }
            Conn::Tcp { client, opts } => {
                let sent = if op.write {
                    client.update(opts, &op.text)
                } else {
                    client.query(opts, &op.text)
                };
                sent.map(Reply::Payload)
                    .map_err(|e| format!("transport: {e}"))
            }
        }
    }
}

/// `k=` value of an `OK k=v …` header line.
fn header_value(header: &str, key: &str) -> Option<u64> {
    header
        .split_whitespace()
        .find_map(|token| token.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

/// Digest `reply` the way `op`'s expectation was taken; an `ERR` (refusals
/// such as `ERR BUSY` included) or a malformed reply is an error.
pub fn observe(op: &Op, reply: &Reply) -> Result<Digest, String> {
    match reply {
        Reply::Rows(response) => Ok(digest_output(&response.output)),
        Reply::Payload(payload) => {
            let (header, body) = payload.split_once('\n').unwrap_or((payload, ""));
            if !header.starts_with("OK") {
                return Err(header.to_string());
            }
            if op.write {
                let field = |key| {
                    header_value(header, key).ok_or_else(|| format!("no {key}= in `{header}`"))
                };
                Ok(digest_update(
                    field("inserted")?,
                    field("deleted")?,
                    field("triples")?,
                ))
            } else {
                Ok(digest_json(body))
            }
        }
    }
}

/// When a client section ends. Both are checked at pass boundaries only.
#[derive(Clone, Copy)]
pub enum Until {
    /// After this many passes.
    Passes(usize),
    /// At the first pass boundary at or after the instant — and, when a
    /// pass count is given too, at that count if it comes first.
    Deadline(Instant, Option<usize>),
}

/// What one client saw in one section.
#[derive(Default)]
pub struct ClientLog {
    /// `(slot in the cycle, nanoseconds)` of every read and write.
    pub read_ns: Vec<(u32, u64)>,
    pub write_ns: Vec<(u32, u64)>,
    /// Operations per second of each pass, checking time included.
    pub pass_rates: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub elapsed: Duration,
}

/// Run one client: whole passes of `ops` (cyclic, from `*pos`) until
/// `until`, every reply compared with its expectation.
pub fn client_loop(
    conn: &mut Conn,
    ops: &[Op],
    pass_len: usize,
    pos: &mut usize,
    until: Until,
    mut trace: Option<&mut ClientTrace>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let started = Instant::now();
    let mut passes = 0;
    loop {
        let pass_started = Instant::now();
        for _ in 0..pass_len {
            let index = *pos;
            let op = &ops[index % ops.len()];
            *pos += 1;
            if let Some(trace) = trace.as_deref_mut() {
                trace.before(op, index);
            }
            let sent = Instant::now();
            let reply = conn.send(op);
            let latency = sent.elapsed();
            let outcome = reply
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|reply| observe(op, reply))
                .and_then(|seen| {
                    (seen == op.expect)
                        .then_some(())
                        .ok_or_else(|| format!("expected {:?}, got {seen:?}", op.expect))
                });
            log.attempted += 1;
            if let Err(why) = outcome {
                log.failed += 1;
                log.first_failure.get_or_insert_with(|| {
                    let text: String = op.text.chars().take(160).collect();
                    format!("operation {index}: {why}: {text}")
                });
            }
            let sample = ((index % ops.len()) as u32, latency.as_nanos() as u64);
            if op.write {
                log.write_ns.push(sample);
            } else {
                log.read_ns.push(sample);
            }
            if let Some(trace) = trace.as_deref_mut() {
                trace.after(op, index, sent, latency, reply.as_ref().ok());
            }
        }
        log.pass_rates
            .push(pass_len as f64 / pass_started.elapsed().as_secs_f64());
        passes += 1;
        let done = match until {
            Until::Passes(n) => passes >= n,
            Until::Deadline(at, cap) => Instant::now() >= at || cap.is_some_and(|n| passes >= n),
        };
        if done {
            break;
        }
    }
    log.elapsed = started.elapsed();
    log
}

/// Run every client of `plan` through one section, started together.
pub fn section(
    plan: &Plan,
    conns: &mut [Conn],
    positions: &mut [usize],
    until: Until,
    traces: Option<&mut [ClientTrace]>,
) -> Vec<ClientLog> {
    let barrier = Barrier::new(conns.len());
    let mut traces: Vec<Option<&mut ClientTrace>> = match traces {
        Some(traces) => traces.iter_mut().map(Some).collect(),
        None => conns.iter().map(|_| None).collect(),
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(positions.iter_mut())
            .zip(traces.drain(..))
            .zip(&plan.clients)
            .map(|(((conn, pos), trace), ops)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    if let Some(cpu) = plan.client_core {
                        crate::host::run_on(&[cpu]);
                    }
                    barrier.wait();
                    client_loop(conn, ops, plan.pass_len, pos, until, trace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a benchmark client panicked"))
            .collect()
    })
}

/// The client-side numbers of one section, over all its clients.
///
/// The box these numbers are taken on is a small shared VM whose speed
/// wanders by tens of percent for seconds at a time, and such interference
/// only ever slows a run down. Every workload repeats a fixed cycle many
/// times per window, so each statistic is taken per *slot* of the cycle
/// first — the typical ([`TYPICAL`]) latency of that request over its
/// repetitions — and across the request mix second. A regression in the
/// code moves every repetition and so moves the typical one; a burst of
/// interference moves a few and does not.
pub struct Summary {
    /// Sum over clients of the typical per-pass rate (operations per
    /// second of a pass, response checking included).
    pub throughput_ops_s: f64,
    /// Nearest-rank percentiles, over the cycle's read slots, of each
    /// slot's typical client-observed latency.
    pub read_p50_ms: f64,
    pub read_p95_ms: f64,
    /// `(percentile, milliseconds)` of the highest percentile the raw read
    /// sample supports, over the raw samples — informational.
    pub read_top: Option<(f64, f64)>,
    pub read_samples: usize,
    pub write_p50_ms: Option<f64>,
    pub write_p95_ms: Option<f64>,
    pub write_samples: usize,
    pub attempted: u64,
    pub passes: usize,
    /// Slowest and fastest pass of the first client, operations per second:
    /// how steady the window was.
    pub pass_rate_range: (f64, f64),
    pub seconds: f64,
}

/// Which repetition of a slot (and which pass) counts as typical: the
/// quartile on the undisturbed side — the lower one for latencies, the
/// upper one for rates.
pub const TYPICAL: f64 = 0.25;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Each slot's typical latency, ascending. Slots of different clients are
/// different slots.
fn typical_by_slot(logs: &[ClientLog], samples: impl Fn(&ClientLog) -> &[(u32, u64)]) -> Vec<u64> {
    let mut typical = Vec::new();
    for log in logs {
        let mut sorted = samples(log).to_vec();
        sorted.sort_unstable();
        for slot in sorted.chunk_by(|a, b| a.0 == b.0) {
            let ns: Vec<u64> = slot.iter().map(|&(_, ns)| ns).collect();
            typical.push(percentile(&ns, TYPICAL));
        }
    }
    typical.sort_unstable();
    typical
}

pub fn summarize(logs: &[ClientLog]) -> Summary {
    let reads = typical_by_slot(logs, |l| &l.read_ns);
    let writes = typical_by_slot(logs, |l| &l.write_ns);
    let mut raw_reads: Vec<u64> = logs
        .iter()
        .flat_map(|l| l.read_ns.iter().map(|&(_, ns)| ns))
        .collect();
    raw_reads.sort_unstable();
    let pct = |sorted: &[u64], p| (!sorted.is_empty()).then(|| ms(percentile(sorted, p)));
    Summary {
        throughput_ops_s: logs
            .iter()
            .map(|l| {
                let mut rates = l.pass_rates.clone();
                rates.sort_by(f64::total_cmp);
                percentile(&rates, 1.0 - TYPICAL)
            })
            .sum(),
        read_p50_ms: pct(&reads, 0.5).unwrap_or(0.0),
        read_p95_ms: pct(&reads, 0.95).unwrap_or(0.0),
        read_top: highest_supported(raw_reads.len()).map(|p| (p, ms(percentile(&raw_reads, p)))),
        read_samples: raw_reads.len(),
        write_p50_ms: pct(&writes, 0.5),
        write_p95_ms: pct(&writes, 0.95),
        write_samples: logs.iter().map(|l| l.write_ns.len()).sum(),
        attempted: logs.iter().map(|l| l.attempted).sum(),
        passes: logs.iter().map(|l| l.pass_rates.len()).sum(),
        pass_rate_range: logs.first().map_or((0.0, 0.0), |l| {
            let rates = || l.pass_rates.iter().copied();
            (
                rates().fold(f64::INFINITY, f64::min),
                rates().fold(0.0, f64::max),
            )
        }),
        seconds: logs
            .iter()
            .map(|l| l.elapsed.as_secs_f64())
            .fold(0.0, f64::max),
    }
}

/// Render `response` as the server would ship it by default.
pub fn render(response: &Response) -> String {
    match response.ask {
        Some(answer) => results::ask_to_sparql_json(answer),
        None => results::to_sparql_json(&response.output),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{plan, setup};

    /// The acceptance check "fails when an expected hash is corrupted", on
    /// the small datasets: intact expectations pass, one flipped bit fails.
    #[test]
    fn a_corrupted_expectation_is_counted_as_a_failure() {
        for name in ["paper14.inproc", "lookup.tcp"] {
            let env = setup(name, true);
            let mut plan = plan(name, &env, 3).unwrap();
            plan.pass_len = 14;
            let run = |plan: &Plan| {
                let mut conns = vec![Conn::open(&env, plan).unwrap()];
                section(plan, &mut conns, &mut [0], Until::Passes(1), None).remove(0)
            };
            let intact = run(&plan);
            assert_eq!((intact.attempted, intact.failed), (14, 0), "{name}");
            plan.clients[0][5].expect.hash ^= 1;
            let corrupted = run(&plan);
            assert_eq!(corrupted.failed, 1, "{name}");
            assert!(corrupted.first_failure.unwrap().contains("operation 5"));
        }
    }

    #[test]
    fn header_values_parse() {
        let header = "OK inserted=64 deleted=0 triples=258407";
        assert_eq!(header_value(header, "inserted"), Some(64));
        assert_eq!(header_value(header, "triples"), Some(258_407));
        assert_eq!(header_value(header, "rows"), None);
    }
}
