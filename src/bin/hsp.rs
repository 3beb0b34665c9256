//! `hsp` — a command-line SPARQL processor built on the HSP reproduction.
//!
//! ```text
//! hsp <data.nt> --query 'SELECT ?s WHERE { ?s ?p ?o . }' [options]
//! hsp <data.nt> --update 'INSERT DATA { … }' [--out new.nt]
//!
//! Options:
//!   --query <text|@file>    SPARQL query (join queries, OPTIONAL, UNION,
//!                           FILTER expressions, ORDER BY/LIMIT/OFFSET)
//!   --update <text|@file>   SPARQL update (INSERT DATA / DELETE DATA /
//!                           DELETE WHERE); prints the mutated dataset to
//!                           --out (or stdout) as N-Triples
//!   --planner <name>        a `Planner` name (default hsp); the usage
//!                           line lists every planner
//!   --format <name>         table (default) | json | csv | tsv
//!   --explain               print the physical plan (with cardinalities),
//!                           the pipeline DAG it lowers into, and the
//!                           runtime counters instead of results
//!   --threads <n>           thread budget for the morsel-parallel kernels
//!                           (default: auto-detect, overridable with the
//!                           HSP_FORCE_THREADS env var; 1 = sequential)
//!   --timeout-ms <n>        query governor deadline: abort the execution
//!                           (query or update) once it has run this long
//!   --mem-budget-mb <n>     query governor memory budget: abort when the
//!                           materialised intermediates exceed this many
//!                           mebibytes
//!   --no-cache              bypass the session's plan + result caches
//!                           (one-shot runs never hit anyway; `--explain`
//!                           reports the cache outcome either way)
//! ```
//!
//! Queries that fit the paper's Definition 3 (conjunctive + FILTER) run
//! through the chosen planner; OPTIONAL/UNION/ASK queries are composed
//! from HSP-planned blocks into one plan. Either way one plan runs once.

use std::process::ExitCode;

use hsp_engine::explain::render_runtime_metrics;
use hsp_store::Dataset;
use sparql_hsp::results::Format;
use sparql_hsp::session::{Planner, Request, Session};

struct Args {
    data: String,
    query: Option<String>,
    update: Option<String>,
    planner: Planner,
    format: Format,
    explain: bool,
    threads: Option<usize>,
    timeout_ms: Option<u64>,
    mem_budget_mb: Option<usize>,
    no_cache: bool,
    out: Option<String>,
}

fn usage() -> String {
    format!(
        "usage: hsp <data.nt> (--query <text|@file> | --update <text|@file>)\n\
         \x20      [--planner {}] [--format table|json|csv|tsv]\n\
         \x20      [--explain] [--threads <n>]\n\
         \x20      [--timeout-ms <n>] [--mem-budget-mb <n>] [--no-cache] [--out <file>]",
        Planner::names()
    )
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let data = argv.next().ok_or_else(usage)?;
    let mut args = Args {
        data,
        query: None,
        update: None,
        planner: Planner::Hsp,
        format: Format::Table,
        explain: false,
        threads: None,
        timeout_ms: None,
        mem_budget_mb: None,
        no_cache: false,
        out: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--query" => args.query = Some(value("--query")?),
            "--update" => args.update = Some(value("--update")?),
            "--planner" => args.planner = value("--planner")?.parse()?,
            "--format" => args.format = value("--format")?.parse()?,
            "--explain" => args.explain = true,
            "--threads" => {
                let n: usize = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads needs an integer".to_string())?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                args.threads = Some(n);
            }
            "--timeout-ms" => {
                args.timeout_ms = Some(
                    value("--timeout-ms")?
                        .parse()
                        .map_err(|_| "--timeout-ms needs an integer".to_string())?,
                )
            }
            "--mem-budget-mb" => {
                args.mem_budget_mb = Some(
                    value("--mem-budget-mb")?
                        .parse()
                        .map_err(|_| "--mem-budget-mb needs an integer".to_string())?,
                )
            }
            "--no-cache" => args.no_cache = true,
            "--out" => args.out = Some(value("--out")?),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    if args.query.is_none() && args.update.is_none() {
        return Err(format!(
            "one of --query / --update is required\n{}",
            usage()
        ));
    }
    Ok(args)
}

/// `@file` indirection for query/update texts.
fn load_text(spec: &str) -> Result<String, String> {
    if let Some(path) = spec.strip_prefix('@') {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    } else {
        Ok(spec.to_string())
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let document = std::fs::read_to_string(&args.data)
        .map_err(|e| format!("cannot read {}: {e}", args.data))?;
    // Turtle by extension (.ttl); N-Triples (a Turtle subset) otherwise.
    let ds = if args.data.ends_with(".ttl") {
        Dataset::from_turtle(&document).map_err(|e| e.to_string())?
    } else {
        Dataset::from_ntriples(&document).map_err(|e| e.to_string())?
    };
    eprintln!("loaded {} triples from {}", ds.len(), args.data);

    // The CLI is a one-query server: a default session, whose pool the
    // parallel kernels schedule on; `--threads` sets the request's budget.
    let session = Session::new(ds);
    let build_request = |text: &str| {
        let mut request = Request::new(text).with_planner(args.planner);
        if args.explain {
            request = request.with_explain();
        }
        if let Some(n) = args.threads {
            request = request.with_threads(n);
        }
        if let Some(ms) = args.timeout_ms {
            request = request.with_timeout_ms(ms);
        }
        if let Some(mb) = args.mem_budget_mb {
            request = request.with_mem_budget_mb(mb);
        }
        if args.no_cache {
            request = request.without_cache();
        }
        request
    };

    if let Some(update) = &args.update {
        let text = load_text(update)?;
        let response = session
            .update(build_request(&text))
            .map_err(|e| e.to_string())?;
        eprintln!(
            "update ok: +{} / -{} triples (now {})",
            response.stats.inserted, response.stats.deleted, response.triples
        );
        let rendered = session.snapshot().to_ntriples();
        match &args.out {
            Some(path) => {
                std::fs::write(path, rendered).map_err(|e| format!("cannot write {path}: {e}"))?
            }
            None => print!("{rendered}"),
        }
        return Ok(());
    }

    let text = load_text(args.query.as_deref().expect("query or update required"))?;
    // Rows stay ids; the renderer resolves each cell as it writes it.
    let response = session
        .query_encoded(build_request(&text))
        .map_err(|e| e.to_string())?;
    if let Some(note) = &response.note {
        eprintln!("note: {note}");
    }
    let mut body = String::new();
    if let Some(plan) = &response.explain {
        body.push_str(plan);
        body.push_str(&render_runtime_metrics(&response.metrics));
    } else if let Some(answer) = response.ask {
        // ASK answers are a bare boolean (or the W3C JSON envelope).
        args.format.write_ask(&mut body, answer);
        body.push('\n');
    } else {
        args.format.write(&mut body, &response, usize::MAX);
    }
    print!("{body}");
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
