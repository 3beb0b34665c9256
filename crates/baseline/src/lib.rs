//! Cost-based baseline planners, and [`plan`]: the one dispatcher over
//! every planner of the evaluation.
//!
//! * [`cdp`] — **CDP**, a reconstruction of RDF-3X's cost-based
//!   dynamic-programming optimizer: bushy plans over connected subgraphs,
//!   interesting orders (one best plan per sort variable per subset), the
//!   paper's exact cost formulas, and *exact* leaf cardinalities /
//!   distinct-value counts obtained from the store's sorted relations (the
//!   equivalent of RDF-3X's aggregated indexes). Like RDF-3X, it refuses
//!   queries containing a cross product.
//! * [`leftdeep`] — the **MonetDB/SQL** stand-in: a left-deep-only greedy
//!   cost-based planner with no RDF-specific FILTER rewriting, which is why
//!   SP4a degenerates into a guarded Cartesian product (the paper's "XXX").
//! * [`stocker`] — Stocker et al.'s selectivity-estimation framework (the
//!   paper's \[32\]): summary statistics (predicate frequencies + object
//!   histograms), independence-assumption pattern selectivities, greedy
//!   most-selective-first left-deep ordering. The middle regime between
//!   HSP's syntax-only ranking and CDP's exact statistics.
//! * [`hybrid`] — the paper's §7 future-work proposal: HSP's merge-block
//!   structure combined with cost-based ordering of blocks.
//! * [`cardinality`] — the shared estimator (exact leaves, containment
//!   assumption for joins).
//!
//! Every planner orders the joins only: each puts the same plan top
//! ([`PhysicalPlan::with_top`]) over its join tree. Callers that choose a
//! planner by value go through [`plan`], which decides the one rule the
//! planners do not share: CDP's refused cross products are re-planned on
//! the FILTER-rewritten query.

use std::str::FromStr;

use hsp_core::HspPlanner;
use hsp_engine::plan::PhysicalPlan;
use hsp_sparql::rewrite::rewrite_filters;
use hsp_sparql::JoinQuery;
use hsp_store::Dataset;

pub mod cardinality;
pub mod cdp;
pub mod hybrid;
pub mod leftdeep;
pub mod stocker;

pub use cardinality::Estimator;
pub use cdp::CdpPlanner;
pub use hsp_core::PlanError;
pub use hybrid::HybridPlanner;
pub use leftdeep::LeftDeepPlanner;
pub use stocker::{StockerPlanner, StockerStats};

/// The planners compared in the paper's evaluation, plus the hybrid
/// extension from its future-work section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Planner {
    /// The heuristic planner (the paper's contribution) — `MonetDB/HSP`.
    #[default]
    Hsp,
    /// The RDF-3X-style cost-based DP baseline — `RDF-3X/CDP`.
    Cdp,
    /// The SQL-style left-deep baseline — `MonetDB/SQL`.
    Sql,
    /// HSP structure + cost-based ordering (paper §7 future work).
    Hybrid,
    /// Stocker et al.'s selectivity-estimation framework (the paper's
    /// related-work reference \[32\]).
    Stocker,
}

impl Planner {
    /// All five planners, in [`Planner`]'s declaration order.
    pub const ALL: [Planner; 5] = [
        Planner::Hsp,
        Planner::Cdp,
        Planner::Sql,
        Planner::Hybrid,
        Planner::Stocker,
    ];

    /// The paper's three evaluated systems.
    pub const PAPER: [Planner; 3] = [Planner::Hsp, Planner::Cdp, Planner::Sql];

    /// The name [`FromStr`] accepts (the CLI's `--planner` value).
    pub fn name(self) -> &'static str {
        ["hsp", "cdp", "sql", "hybrid", "stocker"][self as usize]
    }

    /// Row label used in the paper's tables.
    pub fn label(self) -> &'static str {
        [
            "MonetDB/HSP",
            "RDF-3X/CDP",
            "MonetDB/SQL",
            "Hybrid",
            "Stocker-SEL",
        ][self as usize]
    }

    /// Every planner's [`name`](Planner::name), `|`-separated.
    pub fn names() -> String {
        Planner::ALL.map(Planner::name).join("|")
    }
}

impl FromStr for Planner {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let name = s.trim().to_ascii_lowercase();
        Planner::ALL
            .into_iter()
            .find(|p| p.name() == name)
            .ok_or_else(|| format!("unknown planner `{name}` ({})", Planner::names()))
    }
}

/// A planned query, ready for execution.
#[derive(Debug, Clone)]
pub struct Planned {
    /// The physical plan: the planner's join tree under the shared plan
    /// top ([`PhysicalPlan::with_top`]).
    pub plan: PhysicalPlan,
    /// The query the plan's pattern indices refer to (after the planner's
    /// own rewriting).
    pub query: JoinQuery,
    /// What the caller should be told about how the plan was obtained.
    pub note: Option<String>,
}

/// Plan `query` with `planner` against `ds`'s statistics (HSP reads none).
///
/// CDP refuses cross products, as RDF-3X does; for those queries `plan`
/// re-plans on the FILTER-rewritten form — the paper rewrote SP4a by hand
/// for RDF-3X — and says so in [`Planned::note`].
pub fn plan(planner: Planner, ds: &Dataset, query: &JoinQuery) -> Result<Planned, PlanError> {
    let mut note = None;
    let (plan, query) = match planner {
        Planner::Hsp => HspPlanner::new().plan(query).map(|p| (p.plan, p.query))?,
        Planner::Cdp => {
            let cdp = CdpPlanner::new();
            let p = match cdp.plan(ds, query) {
                Err(PlanError::CrossProduct) => {
                    note = Some(
                        "CDP refuses cross products (as RDF-3X does); \
                         it planned the FILTER-rewritten query"
                            .to_string(),
                    );
                    cdp.plan(ds, &rewrite_filters(query).0)?
                }
                other => other?,
            };
            (p.plan, p.query)
        }
        Planner::Sql => LeftDeepPlanner::new()
            .plan(ds, query)
            .map(|p| (p.plan, p.query))?,
        Planner::Hybrid => return HybridPlanner::new().plan(ds, query),
        Planner::Stocker => StockerPlanner::new()
            .plan(ds, query)
            .map(|p| (p.plan, p.query))?,
    };
    Ok(Planned { plan, query, note })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsp_datagen::{generate_sp2bench, Sp2BenchConfig};
    use hsp_engine::{execute, ExecConfig};

    fn ds() -> Dataset {
        generate_sp2bench(Sp2BenchConfig {
            target_triples: 10_000,
            seed: 1,
        })
    }

    fn workload_query(id: &str) -> JoinQuery {
        hsp_datagen::workload()
            .into_iter()
            .find(|q| q.id == id)
            .unwrap()
            .parse()
    }

    #[test]
    fn names_parse_back_and_unknown_names_list_them_all() {
        for p in Planner::ALL {
            assert_eq!(p.name().parse::<Planner>(), Ok(p));
            assert_eq!(p.name().to_uppercase().parse::<Planner>(), Ok(p));
        }
        let err = "rdf3x".parse::<Planner>().unwrap_err();
        assert_eq!(err, "unknown planner `rdf3x` (hsp|cdp|sql|hybrid|stocker)");
    }

    #[test]
    fn all_planners_plan_sp1() {
        let ds = ds();
        let q = workload_query("SP1");
        for p in Planner::ALL {
            let planned = plan(p, &ds, &q).unwrap_or_else(|e| panic!("{p:?}: {e}"));
            assert!(planned.plan.validate().is_ok(), "{p:?}");
            assert!(planned.note.is_none(), "{p:?}");
        }
    }

    #[test]
    fn planners_agree_on_sp1_result() {
        let ds = ds();
        let q = workload_query("SP1");
        let results: Vec<_> = Planner::ALL
            .into_iter()
            .map(|p| {
                let planned = plan(p, &ds, &q).unwrap();
                let out = execute(&planned.plan, &ds, &ExecConfig::unlimited()).unwrap();
                let proj: Vec<_> = planned.query.projection.iter().map(|&(_, v)| v).collect();
                out.table.sorted_rows_for(&proj)
            })
            .collect();
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
    }

    #[test]
    fn cdp_falls_back_to_rewritten_sp4a() {
        let ds = ds();
        let q = workload_query("SP4a");
        assert_eq!(
            CdpPlanner::new().plan(&ds, &q).unwrap_err(),
            PlanError::CrossProduct
        );
        let planned = plan(Planner::Cdp, &ds, &q).unwrap();
        assert!(planned.note.is_some());
        assert!(planned.plan.validate().is_ok());
    }

    #[test]
    fn every_planner_answers_an_aggregate_alike() {
        let ds = Dataset::from_ntriples(
            "<http://e/a> <http://e/p> <http://e/x> .\n\
             <http://e/a> <http://e/p> <http://e/y> .\n\
             <http://e/b> <http://e/p> <http://e/x> .\n\
             <http://e/a> <http://e/q> \"1\" .\n\
             <http://e/b> <http://e/q> \"1\" .\n",
        )
        .unwrap();
        let q = JoinQuery::parse(
            "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s <http://e/p> ?o . ?s <http://e/q> ?v . } \
             GROUP BY ?s ORDER BY ?s",
        )
        .unwrap();
        let rows: Vec<_> = Planner::ALL
            .into_iter()
            .map(|p| {
                let planned = plan(p, &ds, &q).unwrap_or_else(|e| panic!("{p:?}: {e}"));
                let out = execute(&planned.plan, &ds, &ExecConfig::unlimited()).unwrap();
                let proj: Vec<_> = planned.query.projection.iter().map(|&(_, v)| v).collect();
                (0..out.table.len())
                    .map(|i| {
                        proj.iter()
                            .map(|&v| out.term(&ds, out.table.value(v, i)))
                            .collect::<Vec<_>>()
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(rows[0].len(), 2);
        for (p, r) in Planner::ALL.into_iter().zip(&rows) {
            assert_eq!(r, &rows[0], "{p:?}");
        }
    }
}
