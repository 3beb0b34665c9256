//! # sparql-hsp — Heuristics-based SPARQL query optimisation
//!
//! A faithful, self-contained reproduction of *"Heuristics-based Query
//! Optimisation for SPARQL"* (Tsialiamanis, Sidirourgos, Fundulaki,
//! Christophides, Boncz — EDBT 2012): the **HSP** planner, the substrate it
//! needs (a six-order columnar triple store and a sortedness-aware
//! execution engine), the baselines it is evaluated against (RDF-3X-style
//! **CDP** and a SQL-style left-deep optimizer), and the full benchmark
//! workload.
//!
//! ## Quick start
//!
//! ```
//! use sparql_hsp::prelude::*;
//!
//! // Load RDF data (N-Triples) into a dataset with all six sort orders.
//! let ds = Dataset::from_ntriples(r#"
//! <http://e/Journal1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Journal> .
//! <http://e/Journal1> <http://e/title> "Journal 1 (1940)" .
//! <http://e/Journal1> <http://e/issued> "1940" .
//! "#).unwrap();
//!
//! // Parse a SPARQL join query.
//! let query = JoinQuery::parse(r#"
//!     SELECT ?yr ?jrnl WHERE {
//!         ?jrnl <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Journal> .
//!         ?jrnl <http://e/title> "Journal 1 (1940)" .
//!         ?jrnl <http://e/issued> ?yr .
//!     }"#).unwrap();
//!
//! // Plan with HSP (no statistics needed!) and execute.
//! let planned = HspPlanner::new().plan(&query).unwrap();
//! let out = execute(&planned.plan, &ds, &ExecConfig::unlimited()).unwrap();
//! assert_eq!(out.table.len(), 1);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`rdf`] | terms, dictionary encoding, N-Triples I/O |
//! | [`store`] | the six sorted relations + exact statistics |
//! | [`sparql`] | parser, join-query algebra, FILTER rewriting, analysis |
//! | [`engine`] | columnar operators, executor, cost model, explain |
//! | [`hsp`] | **the paper**: variable graph, MWIS, heuristics, planner |
//! | [`baseline`] | CDP, SQL-left-deep, Stocker and hybrid planners; `plan`, the one dispatcher |
//! | [`datagen`] | SP2Bench-like + YAGO-like generators, the workload |
//! | [`extended`] | OPTIONAL / UNION / ASK evaluation over HSP-planned blocks |
//! | [`update`] | SPARQL Update (INSERT DATA / DELETE DATA / DELETE WHERE) |
//! | [`results`] | W3C SPARQL 1.1 JSON/CSV/TSV result serialisers |
//! | [`session`] | the unified `Session::query` / `Session::update` front door |
//! | [`cache`] | two-tier cache: plans keyed by token skeleton, results by request text |
//! | [`serve`] | framed-TCP concurrent query server on one shared morsel pool |
//!
//! ## Serving many queries at once
//!
//! For anything beyond one-shot evaluation, open a [`session::Session`]:
//! it keeps the dataset behind an `Arc` swap (reads snapshot, updates
//! build-and-swap) and schedules the parallel kernels of *all* concurrent
//! queries on one shared morsel worker pool. [`serve::Server`] exposes a
//! session over framed TCP with admission control.

pub mod cache;
pub mod extended;
pub mod results;
pub mod serve;
pub mod session;
pub mod update;

pub use hsp_baseline as baseline;
pub use hsp_core as hsp;
pub use hsp_datagen as datagen;
pub use hsp_engine as engine;
pub use hsp_rdf as rdf;
pub use hsp_sparql as sparql;
pub use hsp_store as store;

/// One-import convenience: the types almost every user needs.
pub mod prelude {
    pub use hsp_baseline::{
        CdpPlanner, HybridPlanner, LeftDeepPlanner, StockerPlanner, StockerStats,
    };
    pub use hsp_core::{HspConfig, HspPlanner, VariableGraph};
    pub use hsp_engine::explain::{render_plan, render_plan_with_profile};
    pub use hsp_engine::metrics::{plans_similar, PlanMetrics, PlanShape};
    pub use hsp_engine::{execute, BindingTable, ExecConfig, PhysicalPlan};
    pub use hsp_rdf::{Dictionary, Term, TermId, Triple, TriplePos};
    pub use hsp_sparql::{Evaluator, Expr, JoinQuery, Modifiers, QueryCharacteristics, Regex, Var};
    pub use hsp_store::{Dataset, Order, TripleStore};

    pub use crate::cache::CacheStats;
    pub use crate::extended::ExtendedOutput;
    pub use crate::results;
    pub use crate::session::{Planner, Request, Response, Session, SessionOptions};
    pub use crate::update::{apply_update, UpdateStats};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_quickstart_works() {
        let ds = Dataset::from_ntriples("<http://e/s> <http://e/p> <http://e/o> .\n").unwrap();
        let query = JoinQuery::parse("SELECT ?s WHERE { ?s <http://e/p> ?o . }").unwrap();
        let planned = HspPlanner::new().plan(&query).unwrap();
        let out = execute(&planned.plan, &ds, &ExecConfig::unlimited()).unwrap();
        assert_eq!(out.table.len(), 1);
    }
}
