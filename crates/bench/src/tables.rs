//! Renderers for every table and figure of the paper.
//!
//! Each function returns the rendered text so the `repro` binary can print
//! it and tests can assert on it. Experiment-to-module mapping lives in
//! `DESIGN.md`; measured-vs-paper commentary in `EXPERIMENTS.md`.

use std::time::Instant;

use hsp_baseline::{plan, Planner};
use hsp_core::{HspConfig, HspPlanner, VariableGraph};
use hsp_datagen::graphs::{random_variable_graph, star_chain_graph};
use hsp_datagen::{workload, DatasetKind, WorkloadQuery};
use hsp_engine::cost::plan_cost;
use hsp_engine::explain::render_plan_with_profile;
use hsp_engine::metrics::{plans_similar, PlanMetrics};
use hsp_engine::{execute, ExecConfig, ExecError, PhysicalPlan};
use hsp_sparql::rewrite::rewrite_filters;
use hsp_sparql::QueryCharacteristics;
use hsp_store::Dataset;

use crate::env::BenchEnv;

/// Table 1 — a sample of the generated SP2Bench-like triples.
pub fn table1(env: &BenchEnv) -> String {
    let mut out = String::from("Table 1: sample of the SP2Bench-like dataset\n");
    let doc = env.sp2b.to_ntriples();
    for (i, line) in doc
        .lines()
        .enumerate()
        .step_by(env.sp2b.len() / 13 + 1)
        .take(13)
    {
        out.push_str(&format!("t{:<3} {line}\n", i + 1));
    }
    out
}

/// Table 2 — query characteristics (of the HSP-rewritten forms, as in the
/// paper, whose SP3 rows carry the `_2` suffix).
pub fn table2() -> String {
    let mut out = String::from(
        "Table 2: query characteristics (after HSP filter rewriting, as in the paper)\n",
    );
    out.push_str(&format!(
        "{:<6} {:>4} {:>5} {:>5} {:>7} {:>4} {:>4} {:>4} {:>6} {:>5}  join patterns\n",
        "query", "tps", "vars", "proj", "shared", "0c", "1c", "2c", "joins", "star"
    ));
    for q in workload() {
        let (rewritten, _) = rewrite_filters(&q.parse());
        let c = QueryCharacteristics::of(&rewritten);
        let jp: Vec<String> = c
            .join_patterns
            .iter()
            .map(|(p, n)| format!("{}:{n}", p.label()))
            .collect();
        out.push_str(&format!(
            "{:<6} {:>4} {:>5} {:>5} {:>7} {:>4} {:>4} {:>4} {:>6} {:>5}  {}\n",
            q.id,
            c.num_patterns,
            c.num_vars,
            c.num_projection_vars,
            c.num_shared_vars,
            c.tps_with_0_const,
            c.tps_with_1_const,
            c.tps_with_2_const,
            c.num_joins,
            c.max_star_join,
            jp.join(" ")
        ));
    }
    out
}

/// Table 3 — plan costs under the RDF-3X cost model, measured on actual
/// intermediate-result sizes (merge-join cost first, `+` hash-join cost).
pub fn table3(env: &BenchEnv) -> String {
    let mut out =
        String::from("Table 3: plan cost (RDF-3X model over measured intermediate results)\n");
    out.push_str(&format!("{:<6} {:>24} {:>24}\n", "query", "HSP", "CDP"));
    for q in workload() {
        // Selection-only queries are excluded, as in the paper.
        let parsed = q.parse();
        if parsed.patterns.len() < 2 {
            continue;
        }
        let ds = env.dataset(q.dataset);
        let mut cells = Vec::new();
        for kind in [Planner::Hsp, Planner::Cdp] {
            let cell = match plan(kind, ds, &parsed) {
                Ok(planned) => match execute(&planned.plan, ds, &ExecConfig::unlimited()) {
                    Ok(exec) => plan_cost(&planned.plan, &exec.profile).table3_cell(),
                    Err(e) => format!("exec failed: {e}"),
                },
                Err(e) => format!("plan failed: {e}"),
            };
            cells.push(cell);
        }
        out.push_str(&format!("{:<6} {:>24} {:>24}\n", q.id, cells[0], cells[1]));
    }
    out
}

/// Table 4 — plan characteristics: merge/hash joins, plan shape, and
/// whether the HSP and CDP plans coincide.
pub fn table4(env: &BenchEnv) -> String {
    let mut out = String::from("Table 4: plan characteristics\n");
    out.push_str(&format!(
        "{:<6} {:>7} {:>7} {:>6} | {:>7} {:>7} {:>6} | {:>7}\n",
        "query", "HSP mj", "HSP hj", "shape", "CDP mj", "CDP hj", "shape", "similar"
    ));
    for q in workload() {
        let parsed = q.parse();
        let ds = env.dataset(q.dataset);
        let hsp = plan(Planner::Hsp, ds, &parsed);
        let cdp = plan(Planner::Cdp, ds, &parsed);
        match (hsp, cdp) {
            (Ok(h), Ok(c)) => {
                let hm = PlanMetrics::of(&h.plan);
                let cm = PlanMetrics::of(&c.plan);
                let similar = if plans_similar(&h.plan, &c.plan) {
                    "yes"
                } else {
                    "no"
                };
                out.push_str(&format!(
                    "{:<6} {:>7} {:>7} {:>6} | {:>7} {:>7} {:>6} | {:>7}\n",
                    q.id,
                    hm.merge_joins,
                    hm.hash_joins,
                    hm.shape.to_string(),
                    cm.merge_joins,
                    cm.hash_joins,
                    cm.shape.to_string(),
                    similar
                ));
            }
            (h, c) => {
                out.push_str(&format!(
                    "{:<6} hsp: {} cdp: {}\n",
                    q.id,
                    h.err().map_or(String::new(), |e| e.to_string()),
                    c.err().map_or(String::new(), |e| e.to_string())
                ));
            }
        }
    }
    out
}

/// Table 6 — HSP planning time per query (ms), averaged over many runs.
pub fn table6() -> String {
    let mut out = String::from("Table 6: HSP planning time (ms)\n");
    let planner = HspPlanner::with_config(HspConfig::default());
    for q in workload() {
        let parsed = q.parse();
        // Warm up, then measure.
        for _ in 0..10 {
            let _ = planner.plan(&parsed);
        }
        let iterations = 200;
        let start = Instant::now();
        for _ in 0..iterations {
            let _ = planner.plan(&parsed);
        }
        let ms = start.elapsed().as_secs_f64() * 1e3 / iterations as f64;
        out.push_str(&format!("{:<6} {:>8.3}\n", q.id, ms));
    }
    out
}

/// Tables 7 and 8 — warm execution times for the three planners on one
/// dataset.
pub fn execution_table(env: &BenchEnv, dataset: DatasetKind) -> String {
    let name = match dataset {
        DatasetKind::Sp2Bench => "Table 7: query execution time (µs), SP2Bench-like (warm runs)",
        DatasetKind::Yago => "Table 8: query execution time (µs), YAGO-like (warm runs)",
    };
    let mut out = format!("{name}\n");
    let queries: Vec<WorkloadQuery> = workload()
        .into_iter()
        .filter(|q| q.dataset == dataset)
        .collect();
    out.push_str(&format!("{:<12}", "system"));
    for q in &queries {
        out.push_str(&format!(" {:>12}", q.id));
    }
    out.push('\n');
    for kind in Planner::PAPER {
        out.push_str(&format!("{:<12}", kind.label()));
        for q in &queries {
            let parsed = q.parse();
            let ds = env.dataset(dataset);
            let cell = plan(kind, ds, &parsed)
                .ok()
                .and_then(|planned| {
                    timed_warm_runs(&planned.plan, ds, env.config.runs, env.config.mem_budget).ok()
                })
                .map_or("XXX".to_string(), three_significant);
            out.push_str(&format!(" {cell:>12}"));
        }
        out.push('\n');
    }
    out
}

/// The paper's §6.1 protocol: run `runs` times warm under a memory budget
/// of `mem_budget` bytes, drop the first run, and return the mean
/// microseconds of the rest — or the error of the first failed run (e.g.
/// the budget refusing a Cartesian product, which the tables print as
/// `XXX`).
pub fn timed_warm_runs(
    plan: &PhysicalPlan,
    ds: &Dataset,
    runs: usize,
    mem_budget: usize,
) -> Result<f64, ExecError> {
    let config = ExecConfig::unlimited().with_mem_budget(mem_budget);
    let timed = runs.max(2) - 1;
    let mut total = 0.0;
    for i in 0..=timed {
        let start = Instant::now();
        // Held past the clock: freeing the result is not execution.
        let _output = execute(plan, ds, &config)?;
        if i > 0 {
            total += start.elapsed().as_secs_f64() * 1e6;
        }
    }
    Ok(total / timed as f64)
}

/// `us` to three significant digits (`15.3`, `2.34`, `28000`).
fn three_significant(us: f64) -> String {
    if us <= 0.0 {
        return "0".into();
    }
    let digits = |x: f64| x.log10().floor() as i32;
    let scale = 10f64.powi(digits(us) - 2);
    let rounded = (us / scale).round() * scale;
    let decimals = (2 - digits(rounded)).max(0) as usize;
    format!("{rounded:.decimals$}")
}

/// The query texts (covers the paper's Tables 5 and 9).
pub fn queries_text() -> String {
    let mut out = String::new();
    for q in workload() {
        out.push_str(&format!(
            "--- {} ({}) — {}\n{}\n\n",
            q.id,
            match q.dataset {
                DatasetKind::Sp2Bench => "SP2Bench",
                DatasetKind::Yago => "YAGO",
            },
            q.description,
            q.text.trim()
        ));
    }
    out
}

/// Figure 1 — the variable graph of the paper's Section 3 example query.
pub fn figure1() -> String {
    let query = hsp_sparql::JoinQuery::parse(
        r#"
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        PREFIX bench: <http://localhost/vocabulary/bench/>
        PREFIX dc: <http://purl.org/dc/elements/1.1/>
        PREFIX dcterms: <http://purl.org/dc/terms/>
        SELECT ?yr ?jrnl
        WHERE {?jrnl rdf:type bench:Journal .
               ?jrnl dc:title "Journal 1 (1940)" .
               ?jrnl dcterms:issued ?yr .
               ?jrnl dcterms:revised ?rev . }
        "#,
    )
    .expect("example query parses");
    let indices: Vec<usize> = (0..query.patterns.len()).collect();
    let graph = VariableGraph::build(&query, &indices);
    let mut out = String::from("Figure 1: variable graph of the Section 3 example query\n");
    out.push_str(&graph.render(&query));
    out.push_str("\nafter trimming (weight >= 2):\n");
    out.push_str(&graph.trimmed().render(&query));
    out
}

/// Figure 2 — the HSP plan for Y3 with measured cardinalities.
pub fn figure2(env: &BenchEnv) -> String {
    plan_figure(
        env,
        "Y3",
        Planner::Hsp,
        "Figure 2: HSP plan for YAGO query Y3",
    )
}

/// Figure 3 — HSP and CDP plans for Y2 with measured cardinalities.
pub fn figure3(env: &BenchEnv) -> String {
    let mut out = plan_figure(
        env,
        "Y2",
        Planner::Hsp,
        "Figure 3(a): HSP plan for YAGO query Y2",
    );
    out.push('\n');
    out.push_str(&plan_figure(
        env,
        "Y2",
        Planner::Cdp,
        "Figure 3(b): CDP plan for YAGO query Y2",
    ));
    out
}

fn plan_figure(env: &BenchEnv, id: &str, kind: Planner, title: &str) -> String {
    let q = workload()
        .into_iter()
        .find(|q| q.id == id)
        .expect("workload query");
    let parsed = q.parse();
    let ds = env.dataset(q.dataset);
    let planned = match plan(kind, ds, &parsed) {
        Ok(p) => p,
        Err(e) => return format!("{title}\nplanning failed: {e}\n"),
    };
    match execute(&planned.plan, ds, &ExecConfig::unlimited()) {
        Ok(exec) => format!(
            "{title}\n{}",
            render_plan_with_profile(&planned.plan, &exec.profile, &planned.query)
        ),
        Err(e) => format!("{title}\nexecution failed: {e}\n"),
    }
}

/// The §6.2.2 MWIS scaling claim: solve random 10–60-node variable graphs
/// and star chains, reporting wall-clock per size.
pub fn mwis_scaling() -> String {
    let mut out = String::from("MWIS scaling (paper claim: 50-node variable graph in < 6 ms)\n");
    out.push_str(&format!(
        "{:>6} {:>14} {:>14}\n",
        "nodes", "random(ms)", "stars(ms)"
    ));
    for n in [10usize, 20, 30, 40, 50, 60] {
        let random = {
            let g = random_variable_graph(n, 0.08, n as u64);
            let start = Instant::now();
            let r = hsp_core::mwis::all_max_weight_independent_sets(&g.weights, &g.adj);
            assert!(r.weight > 0);
            start.elapsed().as_secs_f64() * 1e3
        };
        let stars = {
            let g = star_chain_graph(n / 5, 4);
            let start = Instant::now();
            let r = hsp_core::mwis::all_max_weight_independent_sets(&g.weights, &g.adj);
            assert!(r.weight > 0);
            start.elapsed().as_secs_f64() * 1e3
        };
        out.push_str(&format!("{n:>6} {random:>14.3} {stars:>14.3}\n"));
    }
    out
}

/// Heuristic ablation: disable each heuristic and compare plan quality
/// (measured plan cost and merge-join counts across the workload).
pub fn ablation(env: &BenchEnv) -> String {
    let variants: Vec<(&str, HspConfig)> = vec![
        ("default", HspConfig::default()),
        (
            "no-H1",
            HspConfig {
                use_h1_order: false,
                ..Default::default()
            },
        ),
        (
            "no-H2",
            HspConfig {
                use_h2: false,
                ..Default::default()
            },
        ),
        (
            "no-H3",
            HspConfig {
                use_h3: false,
                ..Default::default()
            },
        ),
        (
            "no-H4",
            HspConfig {
                use_h4: false,
                ..Default::default()
            },
        ),
        (
            "no-H5",
            HspConfig {
                use_h5: false,
                ..Default::default()
            },
        ),
        (
            "no-fewer-vars",
            HspConfig {
                prefer_fewer_vars: false,
                ..Default::default()
            },
        ),
        ("random(7)", HspConfig::random_tiebreak(7)),
    ];
    let mut out =
        String::from("Heuristic ablation: total measured plan cost across the workload\n");
    out.push_str(&format!(
        "{:<15} {:>16} {:>10} {:>10}\n",
        "variant", "total cost", "merge", "hash"
    ));
    for (name, config) in variants {
        let planner = HspPlanner::with_config(config);
        let mut total_cost = 0.0;
        let mut merge = 0usize;
        let mut hash = 0usize;
        for q in workload() {
            let parsed = q.parse();
            let ds = env.dataset(q.dataset);
            let Ok(planned) = planner.plan(&parsed) else {
                continue;
            };
            let m = PlanMetrics::of(&planned.plan);
            merge += m.merge_joins;
            hash += m.hash_joins;
            if let Ok(exec) = execute(&planned.plan, ds, &ExecConfig::unlimited()) {
                total_cost += plan_cost(&planned.plan, &exec.profile).total();
            }
        }
        out.push_str(&format!(
            "{name:<15} {total_cost:>16.1} {merge:>10} {hash:>10}\n"
        ));
    }

    // Second section: the three optimization regimes — syntax-only (HSP),
    // summary statistics (Stocker), exact statistics (CDP) — plus the SQL
    // and hybrid baselines, same cost measure.
    out.push_str("\nPlanner regimes: total measured plan cost across the workload\n");
    out.push_str(&format!(
        "{:<15} {:>16} {:>10} {:>10} {:>8}\n",
        "planner", "total cost", "merge", "hash", "cross"
    ));
    for kind in Planner::ALL {
        let mut total_cost = 0.0;
        let (mut merge, mut hash, mut cross) = (0usize, 0usize, 0usize);
        for q in workload() {
            let parsed = q.parse();
            let ds = env.dataset(q.dataset);
            let Ok(planned) = plan(kind, ds, &parsed) else {
                continue;
            };
            let m = PlanMetrics::of(&planned.plan);
            merge += m.merge_joins;
            hash += m.hash_joins;
            cross += m.cross_products;
            // Cap Cartesian plans like Table 7's "XXX" runs.
            let config = ExecConfig::unlimited().with_mem_budget(env.config.mem_budget);
            if let Ok(exec) = execute(&planned.plan, ds, &config) {
                total_cost += plan_cost(&planned.plan, &exec.profile).total();
            }
        }
        out.push_str(&format!(
            "{:<15} {total_cost:>16.1} {merge:>10} {hash:>10} {cross:>8}\n",
            kind.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvConfig;
    use std::sync::OnceLock;

    fn env() -> &'static BenchEnv {
        static ENV: OnceLock<BenchEnv> = OnceLock::new();
        ENV.get_or_init(|| BenchEnv::load(EnvConfig::small()))
    }

    #[test]
    fn table2_covers_all_queries() {
        let t = table2();
        for q in workload() {
            assert!(t.contains(q.id), "missing {}", q.id);
        }
    }

    #[test]
    fn table4_reproduces_paper_join_counts() {
        let t = table4(env());
        // Spot-check the paper's Table 4 rows: "query hspmj hsphj shape".
        for (id, mj, hj) in [
            ("SP1", 2, 0),
            ("SP2a", 9, 0),
            ("SP2b", 7, 0),
            ("SP4a", 3, 2),
            ("SP4b", 2, 2),
            ("Y1", 5, 2),
            ("Y2", 3, 2),
            ("Y3", 4, 1),
            ("Y4", 2, 2),
        ] {
            let line = t
                .lines()
                .find(|l| l.starts_with(&format!("{id} ")))
                .unwrap_or_else(|| panic!("row {id} missing:\n{t}"));
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(fields[1], mj.to_string(), "{id} HSP merge joins: {line}");
            assert_eq!(fields[2], hj.to_string(), "{id} HSP hash joins: {line}");
        }
    }

    #[test]
    fn table3_emits_costs_for_join_queries() {
        let t = table3(env());
        assert!(t.contains("SP2a"));
        assert!(!t.contains("plan failed"));
        assert!(!t.contains("exec failed"));
    }

    #[test]
    fn figure1_shows_weights() {
        let f = figure1();
        assert!(f.contains("?jrnl (weight 4)"));
        assert!(f.contains("after trimming"));
    }

    #[test]
    fn figures_render_plans() {
        let f2 = figure2(env());
        assert!(f2.contains("⋈mj"), "{f2}");
        let f3 = figure3(env());
        assert!(f3.contains("Figure 3(a)"));
        assert!(f3.contains("Figure 3(b)"));
    }

    #[test]
    fn execution_tables_have_all_rows() {
        let t7 = execution_table(env(), DatasetKind::Sp2Bench);
        assert!(t7.contains("MonetDB/HSP"));
        assert!(t7.contains("RDF-3X/CDP"));
        assert!(t7.contains("MonetDB/SQL"));
        // SP4a under SQL is the only XXX (its Cartesian product refused
        // by the memory budget).
        let header: Vec<&str> = t7.lines().nth(1).unwrap().split_whitespace().collect();
        let sql_line = t7.lines().find(|l| l.starts_with("MonetDB/SQL")).unwrap();
        let sql_cells: Vec<&str> = sql_line.split_whitespace().collect();
        assert_eq!(
            header[sql_cells.iter().position(|&c| c == "XXX").unwrap()],
            "SP4a"
        );
        assert_eq!(t7.matches("XXX").count(), 1, "{t7}");
        let t8 = execution_table(env(), DatasetKind::Yago);
        assert!(t8.contains("Y4"));
        assert!(!t8.contains("XXX"), "{t8}");
    }

    #[test]
    fn cells_print_three_significant_digits() {
        for (us, cell) in [
            (2.344, "2.34"),
            (15.26, "15.3"),
            (99.96, "100"),
            (123.4, "123"),
            (28_012.0, "28000"),
            (0.0, "0"),
        ] {
            assert_eq!(three_significant(us), cell);
        }
    }

    #[test]
    fn warm_runs_report_mean() {
        let q = workload().into_iter().find(|q| q.id == "SP1").unwrap();
        let ds = env().dataset(q.dataset);
        let planned = plan(Planner::Hsp, ds, &q.parse()).unwrap();
        let mean_us = timed_warm_runs(&planned.plan, ds, 3, 1 << 20).unwrap();
        assert!(mean_us >= 0.0);
    }

    #[test]
    fn sql_sp4a_trips_budget() {
        let q = workload().into_iter().find(|q| q.id == "SP4a").unwrap();
        let ds = env().dataset(q.dataset);
        let planned = plan(Planner::Sql, ds, &q.parse()).unwrap();
        assert!(matches!(
            timed_warm_runs(&planned.plan, ds, 2, env().config.mem_budget),
            Err(ExecError::MemoryBudgetExceeded {
                site: "crossproduct",
                ..
            })
        ));
    }

    #[test]
    fn mwis_scaling_runs() {
        let m = mwis_scaling();
        assert!(m.contains("50"));
    }
}
