//! FILTER rewriting: the optimisation Section 6.2.1 credits to HSP alone.
//!
//! `FILTER (?v = const)` becomes a pattern constant; `FILTER (?u = ?v)`
//! unifies the variables. The second rewrite is what saves SP4a from a
//! Cartesian product — this example shows all three systems' behaviour.
//!
//! ```text
//! cargo run --release --example filter_rewriting
//! ```

use sparql_hsp::datagen::{generate_sp2bench, Sp2BenchConfig};
use sparql_hsp::prelude::*;
use sparql_hsp::sparql::rewrite::rewrite_filters;

fn main() {
    let ds = generate_sp2bench(Sp2BenchConfig::with_triples(100_000));
    println!("dataset: {} triples\n", ds.len());

    let query = JoinQuery::parse(sparql_hsp::datagen::workload::SP4A).expect("SP4a parses");
    println!("SP4a: authors of articles sharing a homepage, connected ONLY via");
    println!("FILTER (?hp1 = ?hp2)\n");

    // What the rewrite does.
    let (rewritten, report) = rewrite_filters(&query);
    println!(
        "HSP rewriting: {} unification(s) {:?}, residual filters: {}",
        report.unifications.len(),
        report.unifications,
        report.residual_filters
    );
    println!(
        "variables: {} before, {} after\n",
        query.num_vars(),
        rewritten.num_vars()
    );

    // HSP: rewrites internally, no cross product.
    let hsp = HspPlanner::new().plan(&query).expect("HSP plans");
    let m = PlanMetrics::of(&hsp.plan);
    println!(
        "HSP  : {} merge joins, {} hash joins, {} cross products",
        m.merge_joins, m.hash_joins, m.cross_products
    );

    // CDP: no unification — compile-time cross-product rejection (RDF-3X
    // behaviour; the paper rewrote SP4a manually to benchmark it).
    match CdpPlanner::new().plan(&ds, &query) {
        Ok(_) => println!("CDP  : unexpectedly planned the raw query"),
        Err(e) => println!("CDP  : {e}"),
    }
    let cdp = CdpPlanner::new()
        .plan(&ds, &rewritten)
        .expect("CDP plans rewritten form");
    let cm = PlanMetrics::of(&cdp.plan);
    println!(
        "CDP  : on the manually-rewritten form: {} merge joins, {} hash joins",
        cm.merge_joins, cm.hash_joins
    );

    // SQL left-deep: plans the Cartesian product, which a memory budget
    // refuses before it materialises.
    let sql = LeftDeepPlanner::new().plan(&ds, &query).expect("SQL plans");
    let sm = PlanMetrics::of(&sql.plan);
    println!(
        "SQL  : {} cross product(s) in the plan — executing under a memory budget:",
        sm.cross_products
    );
    let config = ExecConfig::unlimited().with_mem_budget(1 << 20);
    match execute(&sql.plan, &ds, &config) {
        Ok(out) => println!(
            "SQL  : finished with {} rows (small dataset!)",
            out.table.len()
        ),
        Err(e) => println!("SQL  : XXX — {e}"),
    }

    // And the rewritten plans agree on the answer.
    let a = execute(&hsp.plan, &ds, &ExecConfig::unlimited()).expect("HSP executes");
    let b = execute(&cdp.plan, &ds, &ExecConfig::unlimited()).expect("CDP executes");
    let proj: Vec<Var> = hsp.query.projection.iter().map(|&(_, v)| v).collect();
    assert_eq!(
        a.table.sorted_rows_for(&proj),
        b.table.sorted_rows_for(&proj)
    );
    println!(
        "\nHSP and CDP agree: {} author pairs share a homepage",
        a.table.len()
    );
}
