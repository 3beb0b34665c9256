//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p hsp-bench --bin repro -- all
//! cargo run --release -p hsp-bench --bin repro -- table4 table6
//! HSP_SP2B_TRIPLES=5_000_000 cargo run --release -p hsp-bench --bin repro -- table7
//! ```
//!
//! Experiments: `table1 table2 table3 table4 table6 table7 table8 queries
//! figure1 figure2 figure3 mwis ablation ops all`.
//!
//! `ops` measures the vectorized kernels against their row-at-a-time
//! predecessors and additionally writes the machine-readable
//! `BENCH_ops.json` to the current directory.

use hsp_bench::tables;
use hsp_bench::{BenchEnv, EnvConfig};
use hsp_datagen::DatasetKind;

/// The loaded benchmark environment, or a clean nonzero exit naming the
/// experiment that needed it. Every dataset-backed experiment funnels
/// through this one checked access (the former per-call-site
/// `env.as_ref().expect("loaded")` panics turned a `needs_data` bookkeeping
/// slip into a backtrace instead of an actionable message).
fn loaded_env<'e>(env: &'e Option<BenchEnv>, experiment: &str) -> &'e BenchEnv {
    env.as_ref().unwrap_or_else(|| {
        eprintln!(
            "internal error: experiment `{experiment}` needs the SP2Bench/YAGO datasets, but \
             they were not loaded — `needs_data` in repro.rs must list `{experiment}`"
        );
        std::process::exit(1);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!(
            "usage: repro <experiment>...\n\
             experiments: table1 table2 table3 table4 table6 table7 table8\n\
             queries figure1 figure2 figure3 mwis ablation ops all"
        );
        std::process::exit(2);
    }
    let wanted: Vec<&str> = if args.iter().any(|a| a == "all") {
        vec![
            "table1", "table2", "table3", "table4", "table6", "table7", "table8", "queries",
            "figure1", "figure2", "figure3", "mwis", "ablation", "ops",
        ]
    } else {
        args.iter().map(String::as_str).collect()
    };

    // Dataset-free experiments can run without the (potentially long) load.
    let needs_data = wanted.iter().any(|w| {
        matches!(
            *w,
            "table1"
                | "table3"
                | "table4"
                | "table7"
                | "table8"
                | "figure2"
                | "figure3"
                | "ablation"
        )
    });
    let env = if needs_data {
        let config = EnvConfig::from_env();
        eprintln!(
            "generating datasets: SP2Bench-like {} triples, YAGO-like {} triples …",
            config.sp2b_triples, config.yago_triples
        );
        let env = BenchEnv::load(config);
        eprintln!(
            "loaded {} + {} triples in {:.1}s\n",
            env.sp2b.len(),
            env.yago.len(),
            env.load_seconds
        );
        Some(env)
    } else {
        None
    };

    for w in wanted {
        let text = match w {
            "table1" => tables::table1(loaded_env(&env, w)),
            "table2" => tables::table2(),
            "table3" => tables::table3(loaded_env(&env, w)),
            "table4" => tables::table4(loaded_env(&env, w)),
            "table6" => tables::table6(),
            "table7" => tables::execution_table(loaded_env(&env, w), DatasetKind::Sp2Bench),
            "table8" => tables::execution_table(loaded_env(&env, w), DatasetKind::Yago),
            "queries" => tables::queries_text(),
            "figure1" => tables::figure1(),
            "figure2" => tables::figure2(loaded_env(&env, w)),
            "figure3" => tables::figure3(loaded_env(&env, w)),
            "mwis" => tables::mwis_scaling(),
            "ablation" => tables::ablation(loaded_env(&env, w)),
            "ops" => {
                let results = hsp_bench::kernels::measure_kernels();
                let json = hsp_bench::kernels::render_json(&results);
                match std::fs::write("BENCH_ops.json", &json) {
                    Ok(()) => eprintln!("wrote BENCH_ops.json"),
                    Err(e) => eprintln!("could not write BENCH_ops.json: {e}"),
                }
                hsp_bench::kernels::render_text(&results)
            }
            other => {
                eprintln!("unknown experiment: {other}");
                continue;
            }
        };
        println!("{text}");
    }
}
