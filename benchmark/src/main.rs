//! The repo's end-to-end benchmark. One command runs a workload (or all
//! five), checks every response against an independently computed
//! expectation, and prints every metric by name and unit; `--trace 1` makes
//! it a separate, traced run that attributes the time to the layers.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
//!     [--repeat N] [--quick]
//! ```
//!
//! See `README.md` beside this package for the workloads, the metrics and
//! which layer each is expected to move.

mod check;
mod host;
mod report;
mod run;
mod sample;
mod spec;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Json;
use run::{section, summarize, Conn, Summary, Until};
use sample::{median, quartiles};
use spec::{END_TO_END, PER_LAYER, RUN_SECONDS, SETUP_REPEATS, WORKLOADS};
use trace::{Counters, TracedSection};
use workloads::Env;

struct Args {
    /// The CPUs this process may use, read before any thread was pinned.
    cpus: Vec<usize>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    quick: bool,
}

const USAGE: &str = "usage: hsp-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--repeat N] [--quick]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cpus: host::allowed_cpus(),
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        repeat: 1,
        quick: false,
    };
    let mut seconds = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if spec::workload(&name).is_none() {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload `{name}` ({})", known.join(" | ")));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|_| "--repeat needs an integer")?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--quick" => args.quick = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    args.seconds = seconds.unwrap_or(if args.quick { 1.0 } else { RUN_SECONDS as f64 });
    Ok(args)
}

/// Everything one run of one workload produced.
struct Outcome {
    name: &'static str,
    /// The contract metrics of this run's mode, in BENCHMARK.json order:
    /// `(name, value, unit)`.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Client-side numbers of the untraced section (both modes have one).
    summary: Summary,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    /// Inputs and sizes, for the stamp.
    info: Json,
    /// Layer table and spans of a traced run.
    trace: Option<Json>,
}

fn run_workload(name: &'static str, seed: u64, args: &Args) -> Result<Outcome, String> {
    // Place the server: everything `setup` spawns inherits this thread's
    // CPUs. The last CPU rather than the first, which tends to take the
    // box's interrupts.
    let confined = workloads::one_core(name);
    let last = &args.cpus[args.cpus.len() - 1..];
    host::run_on(if confined { last } else { &args.cpus });
    // Set up several times; the typical time is the run's `setup_s`, the
    // last system built is the one measured.
    let mut setup_samples = Vec::with_capacity(SETUP_REPEATS);
    let mut env: Option<Env> = None;
    for _ in 0..SETUP_REPEATS {
        drop(env.take());
        let start = Instant::now();
        env = Some(workloads::setup(name, args.quick));
        setup_samples.push(start.elapsed().as_secs_f64());
    }
    let env = env.expect("SETUP_REPEATS is at least 1");
    let mut plan = workloads::plan(name, &env, seed)?;
    plan.client_core = confined.then_some(last[0]);
    let base = env.sessions[0].snapshot();
    let clients = plan.clients.len();
    let mut conns: Vec<Conn> = (0..clients)
        .map(|_| Conn::open(&env, &plan))
        .collect::<Result<_, _>>()?;
    let mut positions = vec![0usize; clients];
    let window = Duration::from_secs_f64(args.seconds);

    let mut logs = Vec::new();
    let mut traced = None;
    let summary = if args.trace {
        let (generate_s, build_s) = workloads::time_generate_and_build(name, args.quick);
        let mut recorders = trace::recorders(&env, &plan, seed);
        // Warm-up: untimed, but mirrored so the shadow session stays in step.
        logs.extend(section(
            &plan,
            &mut conns,
            &mut positions,
            Until::Passes(1),
            Some(&mut recorders),
        ));
        recorders.iter_mut().for_each(|r| r.recording = true);
        let before = Counters::read(&env);
        let started = Instant::now();
        let traced_logs = section(
            &plan,
            &mut conns,
            &mut positions,
            Until::Deadline(started + window.mul_f64(0.7), Some(plan.trace_passes)),
            Some(&mut recorders),
        );
        let after = Counters::read(&env);
        let traced_summary = summarize(&traced_logs);
        logs.extend(traced_logs);
        // The same loop with tracing off, for the overhead ratio.
        let plain_logs = section(
            &plan,
            &mut conns,
            &mut positions,
            Until::Deadline(started + window, None),
            None,
        );
        let plain = summarize(&plain_logs);
        logs.extend(plain_logs);
        traced = Some(TracedSection {
            recorders,
            summary: traced_summary,
            before,
            after,
            generate_s,
            build_s,
        });
        plain
    } else {
        logs.extend(section(
            &plan,
            &mut conns,
            &mut positions,
            Until::Passes(1),
            None,
        ));
        let measured = section(
            &plan,
            &mut conns,
            &mut positions,
            Until::Deadline(Instant::now() + window, None),
            None,
        );
        let summary = summarize(&measured);
        logs.extend(measured);
        summary
    };

    let mut attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let mut failed: u64 = logs.iter().map(|l| l.failed).sum();
    let mut first_failure = logs.iter().find_map(|l| l.first_failure.clone());

    // A workload that writes must leave the store exactly where replaying
    // its writes through plain `apply_update` leaves a copy.
    let ops = &plan.clients[0];
    if ops.iter().any(|op| op.write) {
        let sent = (0..positions[0])
            .map(|i| &ops[i % ops.len()])
            .filter(|op| op.write)
            .map(|op| op.text.as_str());
        let expected = workloads::replay_writes(&base, sent)?;
        let served = workloads::digest_dataset(&env.sessions[0].snapshot());
        attempted += 1;
        if expected != served {
            failed += 1;
            first_failure.get_or_insert(format!(
                "final store state: expected {expected:?}, served {served:?}"
            ));
        }
    }

    let setup_s = {
        let mut sorted = setup_samples.clone();
        sorted.sort_by(f64::total_cmp);
        sample::percentile(&sorted, run::TYPICAL)
    };
    let metrics: Vec<(&'static str, f64, &'static str)> = match &traced {
        None => {
            let value = |name: &str| match name {
                "throughput_ops_s" => summary.throughput_ops_s,
                "read_p50_ms" => summary.read_p50_ms,
                "read_p95_ms" => summary.read_p95_ms,
                "setup_s" => setup_s,
                other => unreachable!("no measurement for end-to-end metric {other}"),
            };
            END_TO_END
                .iter()
                .map(|m| (m.name, value(m.name), m.unit))
                .collect()
        }
        Some(section) => section.metrics(summary.throughput_ops_s),
    };
    let trace_json = traced.as_ref().map(|section| section.to_json(name));

    let info = Json::obj([
        ("workload", Json::str(name)),
        ("seed", Json::Int(seed)),
        ("seconds", Json::Num(args.seconds)),
        ("quick", Json::Bool(args.quick)),
        ("traced", Json::Bool(args.trace)),
        ("clients", Json::Int(clients as u64)),
        (
            "triples",
            Json::Arr(
                env.triples()
                    .into_iter()
                    .map(|n| Json::Int(n as u64))
                    .collect(),
            ),
        ),
        (
            "distinct_requests",
            Json::Int(plan.distinct_requests() as u64),
        ),
        ("cycle_ops", Json::Int(plan.clients[0].len() as u64)),
        ("pass_ops", Json::Int(plan.pass_len as u64)),
        ("operations", Json::Int(attempted)),
        (
            "setup_samples_s",
            Json::Arr(setup_samples.iter().map(|&s| Json::Num(s)).collect()),
        ),
    ]);

    // Stop everything this run started: connections first, so the server's
    // connection threads see EOF, then the server and the pools.
    drop(conns);
    drop(traced);
    drop(env);

    Ok(Outcome {
        name,
        metrics,
        summary,
        attempted,
        failed,
        first_failure,
        info,
        trace: trace_json,
    })
}

/// The human-readable block and, last, the one-line JSON result.
fn print_outcome(outcome: &Outcome, args: &Args) {
    let s = &outcome.summary;
    let why = spec::workload(outcome.name).map_or("", |w| w.why);
    println!("== {}: {why} ==", outcome.name);
    println!("   {}", outcome.info);
    for &(name, value, unit) in &outcome.metrics {
        let better = END_TO_END
            .iter()
            .map(|m| (m.name, m.better))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.2)))
            .find(|m| m.0 == name)
            .map_or("", |m| m.1.as_str());
        println!("   {name:<34} {value:>14.4} {unit:<6} ({better} is better)");
    }
    if !args.trace {
        let opt = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
        println!("   {:<34} {:>14} samples", "read samples", s.read_samples);
        if let Some((p, ms)) = s.read_top.filter(|top| top.0 != 0.95) {
            println!(
                "   {:<34} {ms:>14.4} ms     (highest percentile the read sample supports)",
                format!("read_p{}_ms", p * 100.0)
            );
        }
        println!(
            "   {:<34} {:>14} ms   ({} write samples)",
            "write_p50_ms",
            opt(s.write_p50_ms),
            s.write_samples
        );
        println!("   {:<34} {:>14} ms", "write_p95_ms", opt(s.write_p95_ms));
        println!(
            "   {:<34} {:>14.6} share ({} of {} operations)",
            "failed_share",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
            outcome.failed,
            outcome.attempted
        );
        println!(
            "   {} passes, {} timed operations in {:.2} s; slowest pass {:.1} 1/s, fastest {:.1} 1/s",
            s.passes, s.attempted, s.seconds, s.pass_rate_range.0, s.pass_rate_range.1
        );
    }
    if let Some(why) = &outcome.first_failure {
        println!("   FAILED: {why}");
    }
    println!("{}", result_line(outcome));
}

/// What is printed beside the gated metrics, for `out/result.json`.
fn informational(outcome: &Outcome) -> Json {
    let s = &outcome.summary;
    let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
    Json::obj([
        ("read_samples", Json::Int(s.read_samples as u64)),
        ("read_top_percentile", opt(s.read_top.map(|top| top.0))),
        ("read_top_ms", opt(s.read_top.map(|top| top.1))),
        ("write_samples", Json::Int(s.write_samples as u64)),
        ("write_p50_ms", opt(s.write_p50_ms)),
        ("write_p95_ms", opt(s.write_p95_ms)),
        (
            "failed_share",
            Json::Num(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        ),
        ("passes", Json::Int(s.passes as u64)),
        ("window_s", Json::Num(s.seconds)),
        (
            "first_failure",
            outcome.first_failure.clone().map_or(Json::Null, Json::Str),
        ),
    ])
}

fn result_line(outcome: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Int(outcome.attempted)),
        ("failed", Json::Int(outcome.failed)),
        (
            "metrics",
            Json::obj(
                outcome
                    .metrics
                    .iter()
                    .map(|&(name, value, unit)| (name, Json::metric(value, unit))),
            ),
        ),
    ])
}

/// `--repeat N`: per metric × workload the median, the quartiles and
/// whether their distance, as a share of the median, sits inside the
/// bound — how the bounds were calibrated, and how two sets of runs are
/// shown to agree.
fn print_spreads(names: &[&'static str], runs: &[Vec<Outcome>], quick: bool) {
    println!("== spread over {} runs (IQR / median) ==", runs.len());
    for (w, name) in names.iter().enumerate() {
        let Some(first) = runs.first() else { return };
        for (m, &(metric, _, unit)) in first[w].metrics.iter().enumerate() {
            let values: Vec<f64> = runs.iter().map(|run| run[w].metrics[m].1).collect();
            let mid = median(&values);
            if values.len() < 2 {
                println!("   {name:<16} {metric:<34} median {mid:.4} {unit}");
                continue;
            }
            let (q1, q3) = quartiles(&values);
            let spread = if mid == 0.0 { 0.0 } else { (q3 - q1) / mid };
            let bound = END_TO_END
                .iter()
                .find(|e| e.name == metric)
                .map(|e| e.bound);
            let verdict = match bound {
                Some(b) if !quick && metric != "setup_s" => {
                    if spread <= b / 3.0 {
                        format!("inside a third of the {b} bound")
                    } else if spread <= b {
                        format!("inside the {b} bound")
                    } else {
                        format!("OUTSIDE the {b} bound")
                    }
                }
                _ => "no bound applied".to_string(),
            };
            println!(
                "   {name:<16} {metric:<34} median {mid:.4} {unit}  q1 {q1:.4}  q3 {q3:.4}  \
                 spread {spread:.4}  {verdict}"
            );
        }
    }
}

fn main() -> ExitCode {
    host::steady_allocator();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let _awake = host::KeepAwake::start(&args.cpus);
    let names: Vec<&'static str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| args.workload.as_deref().is_none_or(|w| w == *name))
        .collect();

    let mut runs: Vec<Vec<Outcome>> = Vec::new();
    for repeat in 0..args.repeat {
        let mut outcomes = Vec::new();
        for &name in &names {
            match run_workload(name, args.seed + repeat as u64, &args) {
                Ok(outcome) => {
                    print_outcome(&outcome, &args);
                    outcomes.push(outcome);
                }
                Err(why) => {
                    eprintln!("{name}: {why}");
                    return ExitCode::FAILURE;
                }
            }
        }
        runs.push(outcomes);
    }
    if args.repeat > 1 {
        print_spreads(&names, &runs, args.quick);
    }

    let all = || runs.iter().flatten();
    let stamp = report::stamp(args.cpus.len());
    let result = Json::obj([
        ("stamp", stamp.clone()),
        (
            "runs",
            Json::Arr(
                all()
                    .map(|o| {
                        Json::obj([
                            ("inputs", o.info.clone()),
                            ("result", result_line(o)),
                            ("informational", informational(o)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut files = vec![("result.json", result)];
    let traces: Vec<Json> = all().filter_map(|o| o.trace.clone()).collect();
    if !traces.is_empty() {
        files.push((
            "trace.json",
            Json::obj([("stamp", stamp), ("traces", Json::Arr(traces))]),
        ));
    }
    for (file, value) in &files {
        if let Err(e) = report::write_out(file, value) {
            eprintln!("writing {file}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let last = all().last().map(result_line);
    let failed = all().any(|o| o.failed > 0);
    // The result line must be the last thing on standard output.
    if let Some(line) = last {
        if names.len() > 1 || args.repeat > 1 {
            println!("{line}");
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
