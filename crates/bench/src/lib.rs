//! Benchmark harness reproducing every table and figure of the paper.
//!
//! The [`mod@env`] module loads the two generated datasets (sizes configurable
//! through environment variables), [`planners`] dispatches the three
//! planners of the evaluation (HSP, CDP, SQL-left-deep) plus the hybrid
//! extension, and [`tables`] renders each table/figure of the paper from
//! live runs. The `repro` binary is the command-line front-end.
//!
//! Environment variables:
//!
//! * `HSP_SP2B_TRIPLES` — SP2Bench-like dataset size (default 1,000,000).
//! * `HSP_YAGO_TRIPLES` — YAGO-like dataset size (default 500,000).
//! * `HSP_RUNS` — timed runs per query (default 21; the first is dropped
//!   and the rest averaged, the paper's warm-cache methodology).
//! * `HSP_ROW_BUDGET` — intermediate-result guard (default 20,000,000 rows;
//!   the SQL baseline's Cartesian plans trip it and report `XXX`).

pub mod env;
pub mod kernels;
pub mod planners;
pub mod tables;

pub use env::{BenchEnv, EnvConfig};
pub use planners::{plan_query, PlannedQuery, PlannerKind};
