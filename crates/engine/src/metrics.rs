//! Plan characteristics — the paper's Table 4 — plus the runtime counters
//! of the morsel/pool execution layer.

use std::fmt;

use crate::plan::PhysicalPlan;
use crate::pool::ExecContext;

/// What the morsel/pool layer did during one execution: how much of the
/// work ran parallel and how well the column arena recycled buffers.
/// Produced by [`crate::execute`] as [`crate::ExecOutput::runtime`];
/// rendered by [`crate::explain::render_runtime_metrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RuntimeMetrics {
    /// Kernels that actually ran morsel-parallel (an operator under the
    /// row threshold, or on a one-core budget, runs sequentially and does
    /// not count).
    pub parallel_kernels: usize,
    /// Morsels processed by those parallel kernels.
    pub morsels: usize,
    /// Hash-join build phases that ran parallel (morsel-parallel hashing
    /// plus the partitioned counting-sort bucket fill).
    pub parallel_builds: usize,
    /// Partitions processed by range-partitioned parallel merge joins.
    pub merge_partitions: usize,
    /// FILTER evaluations / ORDER BY key extractions that ran parallel
    /// (per-worker expression evaluators).
    pub parallel_filters: usize,
    /// Comparison sorts (ORDER BY merge phase, sort order-enforcer) that
    /// ran parallel (per-worker sorted runs + parallel run merges).
    pub parallel_sorts: usize,
    /// Pipelines the pipeline executor launched (0 under the
    /// operator-at-a-time oracle).
    pub pipelines: usize,
    /// Morsels pushed end-to-end through those pipelines (a sequential
    /// pipeline counts its whole source as one morsel).
    pub pipeline_morsels: usize,
    /// Left-outer (OPTIONAL) probe stages executed inside pipelines —
    /// each one streams an outer join that formerly materialised both its
    /// input and its output.
    pub pipeline_outer_probes: usize,
    /// Breaker outputs handed directly to their single consuming
    /// pipeline's source (no slot round-trip; columns move into the sink
    /// when no stage drops a row, and recycle through the pool otherwise).
    pub breaker_handoffs: usize,
    /// Intermediate rows the pipelines kept as thread-local index vectors
    /// instead of materialising between operators — the rows the
    /// operator-at-a-time evaluator would have written and re-read.
    pub pipeline_rows_avoided: usize,
    /// Hash aggregations (γ breakers) whose partial fold ran
    /// morsel-parallel (thread-local partials merged in morsel order).
    pub parallel_aggregates: usize,
    /// Groups finalised by hash aggregations (parallel or sequential).
    pub aggregate_groups: usize,
    /// DISTINCTs deduplicated as streaming pipeline stages (morsel-local
    /// pre-dedup + one sink first-occurrence pass) instead of
    /// materialising breakers.
    pub distinct_streamed: usize,
    /// Scans that merged the storage delta overlay with the base run
    /// (scans over a compacted store take the contiguous-slice fast path
    /// and do not count).
    pub merged_scans: usize,
    /// The execution's thread budget.
    pub threads: usize,
    /// Buffer-pool checkouts served from the free lists.
    pub pool_hits: usize,
    /// Buffer-pool checkouts that fell through to the allocator.
    pub pool_misses: usize,
    /// Buffers returned to the pool (consumed intermediates' columns plus
    /// returned index vectors).
    pub pool_recycled: usize,
    /// Governor checkpoints passed during the execution (0 when no
    /// governor was attached — no timeout, memory budget, or cancel
    /// token was configured).
    pub governor_checks: usize,
    /// High-water mark of the governor's memory accounting, in bytes
    /// (0 without a governor).
    pub governor_mem_peak: usize,
    /// Task batches this execution submitted to its
    /// [`SharedPool`](crate::morsel::SharedPool) — one per parallel kernel
    /// step, 0 when every kernel ran inline.
    pub shared_pool_batches: usize,
    /// The session plan cache was consulted for this request (HSP
    /// join-fragment queries on a caching session). Stamped by the
    /// session after the run; [`RuntimeMetrics::of`] leaves it `false`.
    pub plan_cache_used: bool,
    /// The plan came from the session plan cache (planning and MWIS were
    /// skipped; only constants were rebound). Meaningful only when
    /// [`RuntimeMetrics::plan_cache_used`] is set.
    pub plan_cache_hit: bool,
    /// The session result cache was consulted for this request.
    pub result_cache_used: bool,
    /// The whole response came from the session result cache (execution
    /// was skipped). Meaningful only when
    /// [`RuntimeMetrics::result_cache_used`] is set.
    pub result_cache_hit: bool,
    /// Monotonic content version of the store snapshot the query ran
    /// against. Stamped by the session; [`RuntimeMetrics::of`] leaves it 0.
    pub store_version: u64,
    /// Delta-overlay rows (inserts + tombstones) awaiting compaction in
    /// that snapshot. Stamped by the session.
    pub store_delta_rows: usize,
    /// Compactions (base-run rebuilds) the snapshot's lineage has
    /// performed. Stamped by the session.
    pub store_compactions: u64,
}

impl RuntimeMetrics {
    /// Snapshot the counters of an execution context.
    pub fn of(ctx: &ExecContext) -> Self {
        let pool = ctx.pool.stats();
        RuntimeMetrics {
            parallel_kernels: ctx.parallel_kernels(),
            morsels: ctx.morsels_run(),
            parallel_builds: ctx.parallel_builds(),
            merge_partitions: ctx.merge_partitions(),
            parallel_filters: ctx.parallel_filters(),
            parallel_sorts: ctx.parallel_sorts(),
            pipelines: ctx.pipelines(),
            pipeline_morsels: ctx.pipeline_morsels(),
            pipeline_outer_probes: ctx.pipeline_outer_probes(),
            breaker_handoffs: ctx.breaker_handoffs(),
            pipeline_rows_avoided: ctx.pipeline_rows_avoided(),
            parallel_aggregates: ctx.parallel_aggregates(),
            aggregate_groups: ctx.aggregate_groups(),
            distinct_streamed: ctx.distinct_streamed(),
            merged_scans: ctx.merged_scans(),
            threads: ctx.morsel.threads(),
            pool_hits: pool.hits,
            pool_misses: pool.misses,
            pool_recycled: pool.recycled,
            governor_checks: ctx.governor().map_or(0, |g| g.checks()),
            governor_mem_peak: ctx.governor().map_or(0, |g| g.mem_peak()),
            shared_pool_batches: ctx.pool_batches(),
            plan_cache_used: false,
            plan_cache_hit: false,
            result_cache_used: false,
            result_cache_hit: false,
            store_version: 0,
            store_delta_rows: 0,
            store_compactions: 0,
        }
    }
}

/// Left-deep vs bushy (the paper's `LD` / `B` column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanShape {
    /// Every join's right input is a leaf (scan, possibly behind
    /// filters/projections).
    LeftDeep,
    /// At least one join has a composite right input.
    Bushy,
}

impl fmt::Display for PlanShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanShape::LeftDeep => write!(f, "LD"),
            PlanShape::Bushy => write!(f, "B"),
        }
    }
}

/// Join counts and shape of one plan (one Table 4 column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanMetrics {
    /// Number of merge joins.
    pub merge_joins: usize,
    /// Number of hash joins.
    pub hash_joins: usize,
    /// Number of cross products.
    pub cross_products: usize,
    /// Left-deep or bushy.
    pub shape: PlanShape,
}

impl PlanMetrics {
    /// Analyse a plan.
    pub fn of(plan: &PhysicalPlan) -> Self {
        let mut m = PlanMetrics {
            merge_joins: 0,
            hash_joins: 0,
            cross_products: 0,
            shape: PlanShape::LeftDeep,
        };
        plan.visit(&mut |node| match node {
            PhysicalPlan::MergeJoin { right, .. } => {
                m.merge_joins += 1;
                if !is_leafish(right) {
                    m.shape = PlanShape::Bushy;
                }
            }
            PhysicalPlan::HashJoin { right, .. } => {
                m.hash_joins += 1;
                if !is_leafish(right) {
                    m.shape = PlanShape::Bushy;
                }
            }
            // Table 4 predates OPTIONAL support; the outer probe counts
            // with the hash joins (same build + probe machinery).
            PhysicalPlan::LeftOuterHashJoin { right, .. } => {
                m.hash_joins += 1;
                if !is_leafish(right) {
                    m.shape = PlanShape::Bushy;
                }
            }
            PhysicalPlan::CrossProduct { right, .. } => {
                m.cross_products += 1;
                if !is_leafish(right) {
                    m.shape = PlanShape::Bushy;
                }
            }
            _ => {}
        });
        m
    }

    /// Total binary operators.
    pub fn total_joins(&self) -> usize {
        self.merge_joins + self.hash_joins + self.cross_products
    }
}

/// `true` if the subtree contains no joins (a scan behind unary operators).
fn is_leafish(plan: &PhysicalPlan) -> bool {
    match plan {
        PhysicalPlan::Scan { .. } => true,
        PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::OrderBy { input, .. }
        | PhysicalPlan::HashAggregate { input, .. }
        | PhysicalPlan::Slice { input, .. } => is_leafish(input),
        _ => false,
    }
}

/// Plan equality up to cosmetic details: same tree structure, same leaf
/// access paths, same join algorithms and variables. Unary wrappers
/// (filters, projections) are ignored — the comparison is about join
/// structure, the paper's "Similar Plans ✓/✗" row.
pub fn plans_similar(a: &PhysicalPlan, b: &PhysicalPlan) -> bool {
    let a = strip_unary(a);
    let b = strip_unary(b);
    match (a, b) {
        (
            PhysicalPlan::Scan {
                pattern_idx: ia,
                pattern: pa,
                order: oa,
            },
            PhysicalPlan::Scan {
                pattern_idx: ib,
                pattern: pb,
                order: ob,
            },
        ) => {
            // Access paths are equivalent when they bind the same constants
            // as a key prefix and deliver the same sort variable — the
            // order of constants *within* the prefix is cosmetic (both
            // OPS and POS answer `(?x, p, o)` sorted by ?x).
            ia == ib && crate::plan::scan_sort_var(pa, *oa) == crate::plan::scan_sort_var(pb, *ob)
        }
        (
            PhysicalPlan::MergeJoin {
                left: la,
                right: ra,
                var: va,
            },
            PhysicalPlan::MergeJoin {
                left: lb,
                right: rb,
                var: vb,
            },
        ) => va == vb && plans_similar(la, lb) && plans_similar(ra, rb),
        (
            PhysicalPlan::HashJoin {
                left: la,
                right: ra,
                vars: va,
            },
            PhysicalPlan::HashJoin {
                left: lb,
                right: rb,
                vars: vb,
            },
        ) => {
            let mut sa = va.clone();
            let mut sb = vb.clone();
            sa.sort();
            sb.sort();
            sa == sb
                && ((plans_similar(la, lb) && plans_similar(ra, rb))
                    // Hash joins are symmetric up to probe/build choice.
                    || (plans_similar(la, rb) && plans_similar(ra, lb)))
        }
        (
            PhysicalPlan::LeftOuterHashJoin {
                left: la,
                right: ra,
                vars: va,
            },
            PhysicalPlan::LeftOuterHashJoin {
                left: lb,
                right: rb,
                vars: vb,
            },
        ) => {
            // Unlike inner hash joins, outer joins are side-sensitive: the
            // probe (preserved) side is fixed.
            let mut sa = va.clone();
            let mut sb = vb.clone();
            sa.sort();
            sb.sort();
            sa == sb && plans_similar(la, lb) && plans_similar(ra, rb)
        }
        (
            PhysicalPlan::CrossProduct {
                left: la,
                right: ra,
            },
            PhysicalPlan::CrossProduct {
                left: lb,
                right: rb,
            },
        ) => {
            (plans_similar(la, lb) && plans_similar(ra, rb))
                || (plans_similar(la, rb) && plans_similar(ra, lb))
        }
        _ => false,
    }
}

/// Skip filter/sort/projection wrappers to reach join/scan structure.
fn strip_unary(plan: &PhysicalPlan) -> &PhysicalPlan {
    match plan {
        PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::OrderBy { input, .. }
        | PhysicalPlan::HashAggregate { input, .. }
        | PhysicalPlan::Slice { input, .. } => strip_unary(input),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsp_rdf::Term;
    use hsp_sparql::{TermOrVar, TriplePattern, Var};
    use hsp_store::Order;

    fn scan(idx: usize, order: Order) -> PhysicalPlan {
        PhysicalPlan::Scan {
            pattern_idx: idx,
            pattern: TriplePattern::new(
                TermOrVar::Var(Var(0)),
                TermOrVar::Const(Term::iri("http://e/p")),
                TermOrVar::Var(Var(idx as u32 + 1)),
            ),
            order,
        }
    }

    fn mj(left: PhysicalPlan, right: PhysicalPlan) -> PhysicalPlan {
        PhysicalPlan::MergeJoin {
            left: Box::new(left),
            right: Box::new(right),
            var: Var(0),
        }
    }

    fn hj(left: PhysicalPlan, right: PhysicalPlan) -> PhysicalPlan {
        PhysicalPlan::HashJoin {
            left: Box::new(left),
            right: Box::new(right),
            vars: vec![Var(0)],
        }
    }

    #[test]
    fn left_deep_chain() {
        let plan = mj(
            mj(scan(0, Order::Pso), scan(1, Order::Pso)),
            scan(2, Order::Pso),
        );
        let m = PlanMetrics::of(&plan);
        assert_eq!(m.merge_joins, 2);
        assert_eq!(m.hash_joins, 0);
        assert_eq!(m.shape, PlanShape::LeftDeep);
    }

    #[test]
    fn bushy_detection() {
        let left = mj(scan(0, Order::Pso), scan(1, Order::Pso));
        let right = mj(scan(2, Order::Pso), scan(3, Order::Pso));
        let plan = hj(left, right);
        let m = PlanMetrics::of(&plan);
        assert_eq!(m.merge_joins, 2);
        assert_eq!(m.hash_joins, 1);
        assert_eq!(m.shape, PlanShape::Bushy);
        assert_eq!(m.total_joins(), 3);
    }

    #[test]
    fn unary_wrappers_keep_leafishness() {
        let wrapped = PhysicalPlan::Project {
            input: Box::new(scan(1, Order::Pso)),
            projection: vec![("x".into(), Var(0))],
            distinct: false,
        };
        let plan = mj(scan(0, Order::Pso), wrapped);
        assert_eq!(PlanMetrics::of(&plan).shape, PlanShape::LeftDeep);
    }

    #[test]
    fn similarity_same_plan() {
        let a = mj(scan(0, Order::Pso), scan(1, Order::Pso));
        let b = mj(scan(0, Order::Pso), scan(1, Order::Pso));
        assert!(plans_similar(&a, &b));
    }

    #[test]
    fn similarity_differs_on_access_path() {
        let a = mj(scan(0, Order::Pso), scan(1, Order::Pso));
        let b = mj(scan(0, Order::Pso), scan(1, Order::Spo));
        assert!(!plans_similar(&a, &b));
    }

    #[test]
    fn similarity_differs_on_join_order() {
        let a = mj(scan(0, Order::Pso), scan(1, Order::Pso));
        let b = mj(scan(1, Order::Pso), scan(0, Order::Pso));
        assert!(!plans_similar(&a, &b)); // merge joins are order-sensitive here
    }

    #[test]
    fn hash_join_similarity_is_symmetric() {
        let a = hj(scan(0, Order::Pso), scan(1, Order::Pso));
        let b = hj(scan(1, Order::Pso), scan(0, Order::Pso));
        assert!(plans_similar(&a, &b));
    }

    #[test]
    fn projection_wrapper_ignored_for_similarity() {
        let bare = mj(scan(0, Order::Pso), scan(1, Order::Pso));
        let wrapped = PhysicalPlan::Project {
            input: Box::new(bare.clone()),
            projection: vec![("x".into(), Var(0))],
            distinct: false,
        };
        assert!(plans_similar(&bare, &wrapped));
    }

    #[test]
    fn cross_product_counted() {
        let plan = PhysicalPlan::CrossProduct {
            left: Box::new(scan(0, Order::Pso)),
            right: Box::new(scan(1, Order::Pso)),
        };
        let m = PlanMetrics::of(&plan);
        assert_eq!(m.cross_products, 1);
    }
}
