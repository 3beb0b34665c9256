//! Columnar execution engine: pipeline-at-a-time by default, with the
//! operator-at-a-time evaluator retained as the tests' byte-identity oracle
//! (reachable by name only).
//!
//! This crate began as the MonetDB stand-in: like MonetDB's BAT algebra,
//! every operator consumed and produced *fully materialised columnar*
//! binding tables ([`binding::BindingTable`]). That evaluator survives as
//! [`exec::ExecStrategy::OperatorAtATime`]; the default `execute` path now
//! **lowers** the plan into a DAG of morsel-driven pipelines with explicit
//! breakers ([`pipeline`]), so non-breaker intermediates are never
//! materialised. Sortedness stays a first-class property — a
//! [`plan::PhysicalPlan`] merge join is only valid when both inputs are
//! sorted on the join variable, which scans over the six ordered relations
//! provide for free.
//!
//! # The vectorized execution model
//!
//! Operators are **late-materializing**: a kernel never emits output rows
//! while it is still deciding *which* rows qualify. Execution of every
//! operator splits into two phases:
//!
//! 1. **Select** — produce a compact selection vector of `u32` row indices
//!    (for unary operators: filter, distinct, order-by, sort) or a pair of
//!    index vectors `(left_row, right_row)` (for joins). This phase touches
//!    only the columns it needs — the join key, the filter column — and
//!    allocates nothing per row.
//! 2. **Gather** — materialise the output **column at a time** through the
//!    bulk primitives on `BindingTable`
//!    ([`binding::BindingTable::gather`] for selection vectors,
//!    [`binding::BindingTable::from_join_pairs`] for join pairs), or, where
//!    the selection is a whole range, plain `extend_from_slice` copies
//!    (slice, union, cross product, plain projection).
//!
//! Compared with the original row-at-a-time kernels (preserved in
//! [`mod@reference`] as the benchmark baseline and differential-testing
//! oracle), this removes the three scalar costs that dominated profiles: a
//! linear `col_index` lookup per *value* in `value()`, a `Vec<TermId>` key
//! allocation per hash-join *probe*, and a `push_row` call per output
//! *row*.
//!
//! The hash-join build side ([`kernel::BuildTable`]) is an Fx-hashed flat
//! table: join keys of one or two variables pack into a `u64` per build row
//! (`TermId` is 32 bits) and verify with a single integer compare; wider
//! keys fall back to a CSR-style bucket directory — one offsets array plus
//! one row-index array — verified against the key columns. Neither layout
//! allocates per key or per probe.
//!
//! # The morsel/pool runtime layer
//!
//! On top of the vectorized kernels sit two execution-wide services,
//! threaded through every operator as an [`pool::ExecContext`]:
//!
//! * **Morsel-driven parallelism** ([`morsel`]) — every heavy operator
//!   stage runs as task batches on one [`SharedPool`] (the one its
//!   context names, else the process default): the hash-join *build*
//!   (morsel-parallel hashing plus a two-pass partitioned counting sort that
//!   reproduces the sequential bucket directory byte-for-byte), the
//!   hash-join *probe* and scan fast paths (fixed-size morsels pulled
//!   from a shared cursor, thread-local pair buffers stitched back in
//!   morsel order), the *merge join* (both sorted inputs range-partitioned
//!   at common key boundaries, one independent cursor pair per partition,
//!   outputs stitched in partition order), *FILTER* / *ORDER BY* key
//!   extraction (one expression evaluator per worker — the compiled-regex
//!   cache stays single-threaded), the *ORDER BY / sort-enforcer*
//!   comparison sort (parallel merge sort over per-worker runs), and
//!   whole *pipelines* (each worker pushes a morsel through every stage
//!   of a breaker-free chain). Every parallel path is byte-identical
//!   to its sequential counterpart by construction. Parallelism is gated
//!   on `available_parallelism` and a row threshold, like the store's
//!   six-order build; tests force a thread count (or the
//!   `HSP_FORCE_THREADS` env var) to exercise the pool on single-core
//!   machines.
//! * **Buffer pooling** ([`pool`]) — a per-execution arena of recyclable
//!   column and index buffers. The gather primitives check output columns
//!   out of the pool, and the tree evaluator returns a consumed
//!   intermediate's columns the moment its parent operator has produced
//!   its output, so operator-at-a-time plans stop churning the allocator.
//!   Hit/miss/recycle counters surface as [`metrics::RuntimeMetrics`] on
//!   every [`ExecOutput`].
//!
//! # Module map
//!
//! * [`binding`] — columnar intermediate results with sortedness metadata
//!   and the bulk gather primitives, and [`IdRows`], the id-form result a
//!   finished execution hands to its caller (decode it, or render from it).
//! * [`kernel`] — FxHash utilities and the flat hash-join build table.
//! * [`morsel`] — the morsel scheduler: config, gated worker pool,
//!   deterministic stitch-back.
//! * [`pool`] — the per-execution buffer pool and the [`pool::ExecContext`]
//!   threaded through the operators.
//! * [`govern`] — the query governor: deadlines, cooperative
//!   cancellation, per-query memory budgets, panic-isolated workers, and
//!   the `HSP_FAULT` fault-injection hook.
//! * [`plan`] — the physical plan tree shared by all planners.
//! * [`ops`] — the vectorized operators: scan-select, merge join, hash
//!   join, cross product, filter, projection, distinct, each taking the
//!   execution's [`pool::ExecContext`].
//! * [`aggregate`] — the morsel-parallel two-phase γ: per-morsel grouped
//!   fold, morsel-order merge (first-seen group order is deterministic at
//!   any thread count), row-major finalisation into the computed-term
//!   overlay, and overlay-aware `HAVING`. `reference::hash_aggregate` is
//!   its row-at-a-time differential oracle.
//! * [`pipeline`] — lower-then-run: plans become a DAG of breaker-free
//!   pipelines (scan → filter / inner-or-outer probe / plain-projection
//!   stages → sink) separated by explicit breakers; pipelines run
//!   morsel-at-a-time end to end with thread-local index vectors,
//!   gathering each output column once at the sink, and a breaker output
//!   with a single consuming pipeline is handed off (its columns move
//!   into the sink when no stage drops a row).
//! * [`mod@reference`] — the retired row-at-a-time kernels, kept as oracle and
//!   benchmark baseline.
//! * [`exec`] — `execute` (always lower-then-run), the configuration with
//!   its intermediate-result row budget (enforced by the pipeline
//!   executor; it makes the SQL baseline's Cartesian plans fail fast, the
//!   paper's "XXX" entries), per-operator profiles, and the reference tree
//!   evaluator.
//! * [`cost`] — the RDF-3X cost model the paper uses for Table 3.
//! * [`metrics`] — plan characteristics for Table 4 (merge/hash join counts,
//!   left-deep vs bushy shape, plan similarity) and the runtime counters.
//! * [`explain`] — plan rendering with per-operator cardinalities, the
//!   format of the paper's Figures 2 and 3.

pub mod aggregate;
pub mod binding;
pub mod cost;
pub mod exec;
pub mod explain;
pub mod govern;
pub mod kernel;
pub mod metrics;
pub mod morsel;
pub mod ops;
pub mod pipeline;
pub mod plan;
pub mod pool;
pub mod reference;

pub use aggregate::AggError;
pub use binding::{BindingTable, IdRows};
pub use exec::{execute, execute_in, ExecConfig, ExecError, ExecOutput, ExecStrategy, Profile};
pub use govern::{CancelToken, GovernorError, QueryGovernor};
pub use metrics::{PlanMetrics, PlanShape, RuntimeMetrics};
pub use morsel::{MorselConfig, PoolStats, SharedPool};
pub use plan::PhysicalPlan;
pub use pool::{table_bytes, BufferPool, ExecContext};
