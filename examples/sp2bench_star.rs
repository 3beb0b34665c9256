//! Star-join planning on SP2Bench-like data: compare HSP against the
//! cost-based CDP and SQL-left-deep baselines on the paper's SP2a (the
//! 10-pattern subject star) and SP4a (the FILTER-connected double star).
//!
//! ```text
//! cargo run --release --example sp2bench_star
//! ```

use std::time::Instant;

use sparql_hsp::datagen::{generate_sp2bench, Sp2BenchConfig};
use sparql_hsp::prelude::*;

fn main() {
    let ds = generate_sp2bench(Sp2BenchConfig::with_triples(200_000));
    println!("generated SP2Bench-like dataset: {} triples\n", ds.len());

    for (id, text) in [
        ("SP2a (heavy star)", sparql_hsp::datagen::workload::SP2A),
        (
            "SP4a (FILTER-connected stars)",
            sparql_hsp::datagen::workload::SP4A,
        ),
    ] {
        println!("=== {id} ===");
        let query = JoinQuery::parse(text).expect("workload query parses");

        // HSP: plans from syntax alone.
        let start = Instant::now();
        let hsp = HspPlanner::new().plan(&query).expect("HSP plans");
        let hsp_planning = start.elapsed();
        let hsp_metrics = PlanMetrics::of(&hsp.plan);
        println!(
            "HSP     : {} merge joins, {} hash joins, {} plan, planned in {:?}",
            hsp_metrics.merge_joins, hsp_metrics.hash_joins, hsp_metrics.shape, hsp_planning
        );

        // CDP: needs statistics. SP4a's raw form is a cross product for it —
        // exactly the paper's observation — so fall back to the rewritten form.
        let cdp = CdpPlanner::new();
        let start = Instant::now();
        let cdp_plan = cdp.plan(&ds, &query).or_else(|_| {
            let (rewritten, _) = sparql_hsp::sparql::rewrite::rewrite_filters(&query);
            cdp.plan(&ds, &rewritten)
        });
        match &cdp_plan {
            Ok(p) => {
                let m = PlanMetrics::of(&p.plan);
                println!(
                    "CDP     : {} merge joins, {} hash joins, {} plan, planned in {:?}",
                    m.merge_joins,
                    m.hash_joins,
                    m.shape,
                    start.elapsed()
                );
            }
            Err(e) => println!("CDP     : failed: {e}"),
        }

        // SQL left-deep: no rewriting at all.
        let sql = LeftDeepPlanner::new().plan(&ds, &query).expect("SQL plans");
        let sql_metrics = PlanMetrics::of(&sql.plan);
        println!(
            "SQL     : {} merge joins, {} hash joins, {} cross products, {} plan",
            sql_metrics.merge_joins,
            sql_metrics.hash_joins,
            sql_metrics.cross_products,
            sql_metrics.shape
        );

        // Execute all plans that fit a memory budget.
        let budget = ExecConfig::unlimited().with_mem_budget(1 << 30);
        for (name, plan) in [
            ("HSP", Some(&hsp.plan)),
            ("CDP", cdp_plan.as_ref().ok().map(|p| &p.plan)),
            ("SQL", Some(&sql.plan)),
        ] {
            let Some(plan) = plan else { continue };
            let start = Instant::now();
            match execute(plan, &ds, &budget) {
                Ok(out) => println!(
                    "{name} exec: {} rows in {:?}",
                    out.table.len(),
                    start.elapsed()
                ),
                Err(e) => println!("{name} exec: XXX ({e})"),
            }
        }
        println!();
    }
}
