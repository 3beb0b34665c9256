//! Quickstart: load data, plan a query with HSP, look at the plan, run it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sparql_hsp::prelude::*;

fn main() {
    // A miniature dataset in the spirit of the paper's Table 1.
    let ds = Dataset::from_ntriples(
        r#"<http://e/Journal1_1940> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Journal> .
<http://e/Journal1_1940> <http://e/title> "Journal 1 (1940)" .
<http://e/Journal1_1940> <http://e/issued> "1940" .
<http://e/Journal1_1940> <http://e/revised> "1942" .
<http://e/Journal1_1941> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Journal> .
<http://e/Journal1_1941> <http://e/title> "Journal 1 (1941)" .
<http://e/Journal1_1941> <http://e/issued> "1941" .
<http://e/Article9> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Article> .
"#,
    )
    .expect("valid N-Triples");
    println!("loaded {} triples\n", ds.len());

    // The paper's Section 3 example query: which year was the journal titled
    // "Journal 1 (1940)" issued, given it was revised in 1942?
    let query = JoinQuery::parse(
        r#"SELECT ?yr ?jrnl WHERE {
            ?jrnl <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Journal> .
            ?jrnl <http://e/title> "Journal 1 (1940)" .
            ?jrnl <http://e/issued> ?yr .
            ?jrnl <http://e/revised> ?rev .
            FILTER (?rev = "1942")
        }"#,
    )
    .expect("valid SPARQL");

    // Look at the variable graph (the paper's Figure 1).
    let indices: Vec<usize> = (0..query.patterns.len()).collect();
    let graph = VariableGraph::build(&query, &indices);
    println!("{}", graph.render(&query));

    // Plan with HSP: no statistics, only the query's syntax.
    let planned = HspPlanner::new().plan(&query).expect("plannable");
    println!(
        "FILTER rewriting: {} substitutions, {} unifications\n",
        planned.query.substituted.len(),
        planned.rewrite.unifications.len()
    );
    println!("plan:\n{}", render_plan(&planned.plan, &planned.query));

    // Execute and print the mapping, resolving ids back to terms.
    let out = execute(&planned.plan, &ds, &ExecConfig::unlimited()).expect("executes");
    println!("{} result row(s):", out.table.len());
    for i in 0..out.table.len() {
        let bindings: Vec<String> = planned
            .query
            .projection
            .iter()
            .map(|&(ref name, v)| format!("(?{name}, {})", ds.dict().term(out.table.value(v, i))))
            .collect();
        println!("  {{{}}}", bindings.join(", "));
    }
}
