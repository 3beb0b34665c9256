//! Explain: parse any SPARQL join query from the command line (or a
//! built-in default), show its variable graph, the HSP plan, and — when a
//! generated dataset is requested — execution with per-operator
//! cardinalities.
//!
//! ```text
//! cargo run --release --example explain
//! cargo run --release --example explain -- 'SELECT ?x WHERE { ?x ?p ?y . ?y ?q ?z . }'
//! cargo run --release --example explain -- --dataset yago 'SELECT ?a WHERE { ... }'
//! ```

use sparql_hsp::datagen::{generate_sp2bench, generate_yago, Sp2BenchConfig, YagoConfig};
use sparql_hsp::prelude::*;

const DEFAULT_QUERY: &str = "
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX yago: <http://yago-knowledge.org/resource/>
SELECT ?a WHERE {
  ?a rdf:type yago:wordnet_actor .
  ?a yago:livesIn ?city .
  ?a yago:actedIn ?m1 .
  ?m1 rdf:type yago:wordnet_movie .
}";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dataset = "yago".to_string();
    let mut query_text = DEFAULT_QUERY.to_string();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--dataset" && i + 1 < args.len() {
            dataset = args[i + 1].clone();
            i += 2;
        } else {
            query_text = args[i].clone();
            i += 1;
        }
    }

    let query = match JoinQuery::parse(&query_text) {
        Ok(q) => q,
        Err(e) => {
            eprintln!("cannot parse query: {e}");
            std::process::exit(1);
        }
    };

    // Variable graph, before and after trimming.
    let indices: Vec<usize> = (0..query.patterns.len()).collect();
    let graph = VariableGraph::build(&query, &indices);
    println!("{}", graph.render(&query));
    let trimmed = graph.trimmed();
    println!(
        "trimmed graph: {} node(s), {} edge(s)",
        trimmed.num_nodes(),
        trimmed.num_edges()
    );
    for set in trimmed.max_weight_independent_sets() {
        let names: Vec<String> = set
            .iter()
            .map(|&v| format!("?{}", query.var_name(v)))
            .collect();
        println!("maximum-weight independent set: {{{}}}", names.join(", "));
    }
    println!();

    // Structural characteristics (a Table 2 column for this query).
    let c = QueryCharacteristics::of(&query);
    println!(
        "characteristics: {} patterns, {} vars ({} shared), {} joins, max star {}",
        c.num_patterns, c.num_vars, c.num_shared_vars, c.num_joins, c.max_star_join
    );

    // HSP plan.
    let planned = HspPlanner::new().plan(&query).expect("plannable");
    println!(
        "\nHSP plan:\n{}",
        render_plan(&planned.plan, &planned.query)
    );

    // Execute on a generated dataset for live cardinalities.
    let ds = match dataset.as_str() {
        "sp2bench" => generate_sp2bench(Sp2BenchConfig::with_triples(100_000)),
        _ => generate_yago(YagoConfig::with_triples(100_000)),
    };
    println!(
        "executing on generated `{dataset}` dataset ({} triples):",
        ds.len()
    );
    let config = ExecConfig::unlimited().with_mem_budget(1 << 30);
    match execute(&planned.plan, &ds, &config) {
        Ok(out) => {
            println!(
                "{}",
                render_plan_with_profile(&planned.plan, &out.profile, &planned.query)
            );
            println!("{} result rows", out.table.len());
        }
        Err(e) => println!("execution failed: {e}"),
    }
}
