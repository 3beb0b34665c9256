//! Benchmark harness reproducing every table and figure of the paper.
//!
//! The [`mod@env`] module loads the two generated datasets (sizes configurable
//! through environment variables), and [`tables`] renders each table/figure
//! of the paper from live runs, choosing planners through
//! [`hsp_baseline::plan`]. The `repro` binary is the command-line front-end.
//!
//! Environment variables:
//!
//! * `HSP_SP2B_TRIPLES` — SP2Bench-like dataset size (default 1,000,000).
//! * `HSP_YAGO_TRIPLES` — YAGO-like dataset size (default 500,000).
//! * `HSP_RUNS` — timed runs per query (default 21; the first is dropped
//!   and the rest averaged, the paper's warm-cache methodology).
//!
//! Every timed execution runs under a fixed memory budget
//! ([`EnvConfig::mem_budget`]), which refuses the SQL baseline's Cartesian
//! SP4a plan before it materialises; the tables print that cell `XXX`.

pub mod env;
pub mod tables;

pub use env::{BenchEnv, EnvConfig};
