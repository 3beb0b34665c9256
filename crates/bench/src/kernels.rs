//! Kernel-level before/after measurements behind `repro -- ops`: the
//! vectorized join kernels against the retired row-at-a-time kernels
//! ([`hsp_engine::reference`]), the morsel-driven parallel stages against
//! their sequential counterparts at forced thread counts (`par_probe_*`,
//! `par_build_*` for the partitioned-counting-sort hash-join build,
//! `par_merge_*` for the range-partitioned merge join, `par_filter_*` for
//! the per-worker-evaluator FILTER — on the single-core CI container the
//! parallel rows only prove correctness and bound scheduling overhead;
//! measure speedups on real hardware), the pooled gather path against
//! cold-pool gathers (`pooled_gather_*`), the morsel-parallel two-phase
//! aggregation breaker against the row-at-a-time reference
//! (`agg_groupby_*`), the streaming DISTINCT stage against the
//! materialise-then-dedup oracle (`distinct_stream_*`), and the
//! parallel six-order store build against a serial rebuild. Results render
//! as a text table and as machine-readable JSON (`BENCH_ops.json`), so the
//! performance trajectory of the hot paths is diffable across PRs.

use std::fmt::Write as _;
use std::time::Instant;

use hsp_engine::binding::BindingTable;
use hsp_engine::{ops, reference, ExecContext, MorselConfig};
use hsp_rdf::{IdTriple, TermId};
use hsp_sparql::Var;
use hsp_store::{Order, SortedRelation, TripleStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One measured kernel pair.
pub struct KernelResult {
    /// Kernel name, e.g. `hash_join_100k`.
    pub name: String,
    /// Median nanoseconds per run, baseline implementation.
    pub baseline_ns: u128,
    /// Median nanoseconds per run, optimized implementation.
    pub optimized_ns: u128,
}

impl KernelResult {
    /// Baseline time over optimized time.
    pub fn speedup(&self) -> f64 {
        self.baseline_ns as f64 / self.optimized_ns.max(1) as f64
    }
}

/// Median wall-clock nanoseconds of `runs` invocations of `f`.
fn median_ns<T>(runs: usize, mut f: impl FnMut() -> T) -> u128 {
    assert!(runs > 0);
    let mut samples: Vec<u128> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Median wall-clock nanoseconds of `runs` *paired* invocations: each
/// iteration times `baseline` then `optimized` back to back, so slow
/// machine-state drift (thermal, noisy neighbours on shared runners)
/// biases both series equally instead of whichever ran second.
fn median_ns_pair<A, B>(
    runs: usize,
    mut baseline: impl FnMut() -> A,
    mut optimized: impl FnMut() -> B,
) -> (u128, u128) {
    assert!(runs > 0);
    let mut base: Vec<u128> = Vec::with_capacity(runs);
    let mut opt: Vec<u128> = Vec::with_capacity(runs);
    for _ in 0..runs {
        let start = Instant::now();
        std::hint::black_box(baseline());
        base.push(start.elapsed().as_nanos());
        let start = Instant::now();
        std::hint::black_box(optimized());
        opt.push(start.elapsed().as_nanos());
    }
    base.sort_unstable();
    opt.sort_unstable();
    (base[base.len() / 2], opt[opt.len() / 2])
}

/// Two join inputs of `n` rows with ~25% key density — shared with
/// `benches/operators.rs` so the criterion numbers and the
/// `BENCH_ops.json` numbers measure the same workload.
pub fn join_inputs(n: usize, seed: u64) -> (BindingTable, BindingTable) {
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = (n / 4).max(1) as u32;
    let mut left_keys: Vec<TermId> = (0..n).map(|_| TermId(rng.random_range(0..keys))).collect();
    let mut right_keys: Vec<TermId> = (0..n).map(|_| TermId(rng.random_range(0..keys))).collect();
    left_keys.sort_unstable();
    right_keys.sort_unstable();
    let payload_l: Vec<TermId> = (0..n as u32).map(|i| TermId(1_000_000 + i)).collect();
    let payload_r: Vec<TermId> = (0..n as u32).map(|i| TermId(2_000_000 + i)).collect();
    let left = BindingTable::from_columns(
        vec![Var(0), Var(1)],
        vec![left_keys, payload_l],
        Some(Var(0)),
    );
    let right = BindingTable::from_columns(
        vec![Var(0), Var(2)],
        vec![right_keys, payload_r],
        Some(Var(0)),
    );
    (left, right)
}

/// Random distinct-ish triples for the store-build measurement.
fn build_triples(n: usize, seed: u64) -> Vec<IdTriple> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            [
                TermId(rng.random_range(0..50_000)),
                TermId(rng.random_range(0..200)),
                TermId(rng.random_range(0..50_000)),
            ]
        })
        .collect()
}

/// Assert the vectorized join kernels produce the same sorted row-sets as
/// the row-at-a-time reference kernels on these inputs (shared by the
/// criterion benchmarks and `measure_kernels`, so nothing is timed before
/// it is proven equivalent).
///
/// # Panics
/// Panics on any divergence.
pub fn assert_kernels_agree(left: &BindingTable, right: &BindingTable) {
    let ctx = ExecContext::new();
    assert_eq!(
        ops::hash_join(&ctx, left, right, &[Var(0)]).sorted_rows(),
        reference::hash_join(left, right, &[Var(0)]).sorted_rows(),
        "vectorized hash join diverges from reference"
    );
    assert_eq!(
        ops::merge_join(&ctx, left, right, Var(0)).sorted_rows(),
        reference::merge_join(left, right, Var(0)).sorted_rows(),
        "vectorized merge join diverges from reference"
    );
}

/// Run all kernel measurements (a few seconds of wall clock).
pub fn measure_kernels() -> Vec<KernelResult> {
    let mut results = Vec::new();
    let runs = 7;
    let ctx = ExecContext::new();

    for n in [10_000usize, 100_000] {
        let (left, right) = join_inputs(n, 42);
        let label = if n >= 1000 {
            format!("{}k", n / 1000)
        } else {
            n.to_string()
        };
        assert_kernels_agree(&left, &right);
        results.push(KernelResult {
            name: format!("hash_join_{label}"),
            baseline_ns: median_ns(runs, || reference::hash_join(&left, &right, &[Var(0)])),
            optimized_ns: median_ns(runs, || ops::hash_join(&ctx, &left, &right, &[Var(0)])),
        });
        results.push(KernelResult {
            name: format!("merge_join_{label}"),
            baseline_ns: median_ns(runs, || reference::merge_join(&left, &right, Var(0))),
            optimized_ns: median_ns(runs, || ops::merge_join(&ctx, &left, &right, Var(0))),
        });
    }

    let triples = build_triples(300_000, 7);
    results.push(KernelResult {
        name: "store_build_300k".into(),
        // Serial baseline: the six sorted relations built one after another.
        baseline_ns: median_ns(3, || {
            Order::ALL.map(|order| SortedRelation::build(order, &triples))
        }),
        optimized_ns: median_ns(3, || TripleStore::from_triples(&triples)),
    });

    measure_parallel_probe(&mut results, runs);
    measure_pooled_gather(&mut results, runs);
    measure_parallel_build(&mut results, runs);
    measure_parallel_merge(&mut results, runs);
    measure_parallel_filter(&mut results, runs);
    measure_pipeline_chain(&mut results, runs);
    measure_pipeline_optional(&mut results, runs);
    measure_aggregate_groupby(&mut results, runs);
    measure_distinct_stream(&mut results, runs);
    measure_governed_chain(&mut results, runs);
    results
}

/// Thread counts the parallel rows are measured at: 1 (sanity: the forced
/// pool degenerates to the sequential path), 2, and 4. Fixed — not derived
/// from `available_parallelism` — so the `BENCH_ops.json` row names are
/// identical on every machine and stay diffable across PRs; scaling beyond
/// 4 workers is a manual measurement on real multicore hardware. On the
/// single-core CI container the forced workers only contend, so the t2/t4
/// rows there prove correctness and bound scheduling overhead.
fn bench_thread_counts() -> [usize; 3] {
    [1, 2, 4]
}

/// `par_probe_*`: the morsel-driven hash-join probe at forced thread
/// counts against the sequential probe on the same 100k-row inputs.
/// Output identity is asserted before anything is timed.
fn measure_parallel_probe(results: &mut Vec<KernelResult>, runs: usize) {
    let (left, right) = join_inputs(100_000, 42);
    let sequential = ExecContext::with_threads(1);
    let expected = ops::hash_join(&sequential, &left, &right, &[Var(0)]);
    for t in bench_thread_counts() {
        let ctx = ExecContext::with_morsel_config(MorselConfig::with_threads(t));
        assert_eq!(
            ops::hash_join(&ctx, &left, &right, &[Var(0)]),
            expected,
            "parallel probe (t={t}) diverges from sequential"
        );
        results.push(KernelResult {
            name: format!("par_probe_100k_t{t}"),
            baseline_ns: median_ns(runs, || {
                ops::hash_join(&sequential, &left, &right, &[Var(0)])
            }),
            optimized_ns: median_ns(runs, || ops::hash_join(&ctx, &left, &right, &[Var(0)])),
        });
    }
}

/// `pooled_gather_*`: the same join with a warm per-execution buffer pool
/// (the output is recycled after every run, so gathers check out reused
/// columns) against cold-pool runs that allocate every column fresh.
fn measure_pooled_gather(results: &mut Vec<KernelResult>, runs: usize) {
    let (left, right) = join_inputs(100_000, 42);
    for t in bench_thread_counts() {
        let warm = ExecContext::with_morsel_config(MorselConfig::with_threads(t));
        warm.pool
            .recycle(ops::hash_join(&warm, &left, &right, &[Var(0)]));
        results.push(KernelResult {
            name: format!("pooled_gather_100k_t{t}"),
            // Cold pool every run: a fresh context, all columns allocated.
            baseline_ns: median_ns(runs, || {
                let cold = ExecContext::with_morsel_config(MorselConfig::with_threads(t));
                ops::hash_join(&cold, &left, &right, &[Var(0)])
            }),
            optimized_ns: median_ns(runs, || {
                let out = ops::hash_join(&warm, &left, &right, &[Var(0)]);
                warm.pool.recycle(out);
            }),
        });
    }
}

/// `par_build_*`: the parallel hash-join build (morsel-parallel hashing +
/// partitioned counting sort) at forced thread counts against the
/// sequential build on the same 100k-row build side. The parallel table is
/// asserted byte-identical before anything is timed.
fn measure_parallel_build(results: &mut Vec<KernelResult>, runs: usize) {
    use hsp_engine::kernel::BuildTable;
    let (_, right) = join_inputs(100_000, 42);
    let build_cols: Vec<&[hsp_rdf::TermId]> = vec![right.column(Var(0))];
    let sequential = BuildTable::build(&build_cols, right.len());
    for t in bench_thread_counts() {
        let config = MorselConfig::with_threads(t);
        let (parallel, _) = BuildTable::build_par(&build_cols, right.len(), &config);
        assert_eq!(
            parallel, sequential,
            "parallel build (t={t}) diverges from sequential"
        );
        results.push(KernelResult {
            name: format!("par_build_100k_t{t}"),
            baseline_ns: median_ns(runs, || BuildTable::build(&build_cols, right.len())),
            optimized_ns: median_ns(runs, || {
                BuildTable::build_par(&build_cols, right.len(), &config)
            }),
        });
    }
}

/// `par_merge_*`: the range-partitioned parallel merge join at forced
/// thread counts against the sequential cursor pair on the same 100k-row
/// sorted inputs. Output identity is asserted before anything is timed.
fn measure_parallel_merge(results: &mut Vec<KernelResult>, runs: usize) {
    let (left, right) = join_inputs(100_000, 42);
    let sequential = ExecContext::with_threads(1);
    let expected = ops::merge_join(&sequential, &left, &right, Var(0));
    for t in bench_thread_counts() {
        let ctx = ExecContext::with_morsel_config(MorselConfig::with_threads(t));
        assert_eq!(
            ops::merge_join(&ctx, &left, &right, Var(0)),
            expected,
            "parallel merge join (t={t}) diverges from sequential"
        );
        results.push(KernelResult {
            name: format!("par_merge_100k_t{t}"),
            baseline_ns: median_ns(runs, || ops::merge_join(&sequential, &left, &right, Var(0))),
            optimized_ns: median_ns(runs, || ops::merge_join(&ctx, &left, &right, Var(0))),
        });
    }
}

/// `par_filter_*`: the morsel-parallel FILTER (one expression evaluator —
/// and hence one compiled-regex cache — per worker) at forced thread
/// counts against the sequential row scan, on a 100k-row REGEX filter.
/// Output identity is asserted before anything is timed.
fn measure_parallel_filter(results: &mut Vec<KernelResult>, runs: usize) {
    use hsp_sparql::{Expr, FilterExpr, Func};
    let n = 100_000;
    let mut doc = String::with_capacity(n * 48);
    for i in 0..n {
        let year = 1900 + (i % 200); // half 19xx, half 20xx
        doc.push_str(&format!(
            "<http://e/j{i}> <http://e/title> \"Journal {i} ({year})\" .\n"
        ));
    }
    let ds = hsp_store::Dataset::from_ntriples(&doc).expect("bench dataset parses");
    let pattern = hsp_sparql::TriplePattern::new(
        hsp_sparql::TermOrVar::Var(Var(0)),
        hsp_sparql::TermOrVar::Const(hsp_rdf::Term::iri("http://e/title")),
        hsp_sparql::TermOrVar::Var(Var(1)),
    );
    let sequential = ExecContext::with_threads(1);
    let input = ops::scan(&sequential, &ds, &pattern, hsp_store::Order::Pso);
    let expr = FilterExpr::Complex(Box::new(Expr::Call {
        func: Func::Regex,
        args: vec![
            Expr::Var(Var(1)),
            Expr::Const(hsp_rdf::Term::literal(r"\(19\d\d\)")),
        ],
    }));
    let expected = ops::filter(&sequential, &ds, &input, &expr);
    assert_eq!(expected.len(), n / 2, "regex filter keeps the 19xx half");
    for t in bench_thread_counts() {
        let ctx = ExecContext::with_morsel_config(MorselConfig::with_threads(t));
        assert_eq!(
            ops::filter(&ctx, &ds, &input, &expr),
            expected,
            "parallel filter (t={t}) diverges from sequential"
        );
        results.push(KernelResult {
            name: format!("par_filter_100k_t{t}"),
            baseline_ns: median_ns(runs, || ops::filter(&sequential, &ds, &input, &expr)),
            optimized_ns: median_ns(runs, || ops::filter(&ctx, &ds, &input, &expr)),
        });
    }
}

/// The 3-hash-join + FILTER chain shared by `pipeline_chain_*` and
/// `governed_chain_*`: a 1:1 chain a_i -p0-> b_i -p1-> c_i -p2-> d_i
/// with a value per d_i; the FILTER keeps the odd half through the
/// interned-id (in)equality fast path, so the rows time the execution
/// model, not the expression interpreter.
fn chain_bench_input(n: usize) -> (hsp_store::Dataset, hsp_engine::PhysicalPlan) {
    use hsp_engine::PhysicalPlan;
    use hsp_sparql::{CmpOp, FilterExpr, Operand, TermOrVar, TriplePattern};

    let mut doc = String::with_capacity(n * 160);
    for i in 0..n {
        doc.push_str(&format!(
            "<http://e/a{i}> <http://e/p0> <http://e/b{i}> .\n\
             <http://e/b{i}> <http://e/p1> <http://e/c{i}> .\n\
             <http://e/c{i}> <http://e/p2> <http://e/d{i}> .\n\
             <http://e/d{i}> <http://e/val> \"{}\" .\n",
            i % 2
        ));
    }
    let ds = hsp_store::Dataset::from_ntriples(&doc).expect("bench dataset parses");
    let scan = |idx: usize, s: u32, p: &str, o: u32| PhysicalPlan::Scan {
        pattern_idx: idx,
        pattern: TriplePattern::new(
            TermOrVar::Var(Var(s)),
            TermOrVar::Const(hsp_rdf::Term::iri(format!("http://e/{p}"))),
            TermOrVar::Var(Var(o)),
        ),
        order: hsp_store::Order::Pso,
    };
    let plan = PhysicalPlan::Filter {
        input: Box::new(PhysicalPlan::HashJoin {
            left: Box::new(PhysicalPlan::HashJoin {
                left: Box::new(PhysicalPlan::HashJoin {
                    left: Box::new(scan(0, 0, "p0", 1)),
                    right: Box::new(scan(1, 1, "p1", 2)),
                    vars: vec![Var(1)],
                }),
                right: Box::new(scan(2, 2, "p2", 3)),
                vars: vec![Var(2)],
            }),
            right: Box::new(scan(3, 3, "val", 4)),
            vars: vec![Var(3)],
        }),
        expr: FilterExpr::Cmp {
            op: CmpOp::Ne,
            lhs: Operand::Var(Var(4)),
            rhs: Operand::Const(hsp_rdf::Term::literal("0")),
        },
    };
    (ds, plan)
}

/// `governed_chain_100k_t1`: the pipeline chain with an *inert* governor
/// attached (hour-long deadline, unreachable memory budget) against the
/// same ungoverned execution — the row bounds the governance overhead:
/// every morsel claim and breaker step runs a checkpoint and every
/// materialisation charges/releases the memory account, and the CI gate
/// keeps the ratio within tolerance. Output identity between governed
/// and ungoverned runs — and a live checkpoint counter — are asserted
/// before anything is timed.
fn measure_governed_chain(results: &mut Vec<KernelResult>, runs: usize) {
    use hsp_engine::{execute, ExecConfig};
    use std::time::Duration;

    let (ds, plan) = chain_bench_input(100_000);
    let plain = ExecConfig::unlimited().with_threads(1);
    let governed = plain
        .clone()
        .with_timeout(Duration::from_secs(3600))
        .with_mem_budget(usize::MAX);
    let expected = execute(&plan, &ds, &plain).expect("ungoverned run succeeds");
    let out = execute(&plan, &ds, &governed).expect("inertly governed run succeeds");
    assert_eq!(
        out.table, expected.table,
        "inert governor changes the result"
    );
    assert!(
        out.runtime.governor_checks > 0,
        "governed run must hit checkpoints"
    );
    let (baseline_ns, optimized_ns) = median_ns_pair(
        runs,
        || execute(&plan, &ds, &plain),
        || execute(&plan, &ds, &governed),
    );
    results.push(KernelResult {
        name: "governed_chain_100k_t1".into(),
        baseline_ns,
        optimized_ns,
    });
}

/// `pipeline_chain_100k_t*`: a 3-hash-join + FILTER chain (100k rows per
/// pattern) executed by the pipeline executor against the
/// operator-at-a-time oracle at forced thread counts. The oracle
/// materialises the probe-side scan and both intermediate joins; the
/// pipeline keeps them as thread-local index vectors and gathers once at
/// the sink — output identity *and* a strictly positive
/// `pipeline_rows_avoided` counter (equal to exactly those intermediate
/// cardinalities) are asserted before anything is timed.
fn measure_pipeline_chain(results: &mut Vec<KernelResult>, runs: usize) {
    use hsp_engine::{execute, ExecConfig, ExecStrategy};

    let n = 100_000usize;
    let (ds, plan) = chain_bench_input(n);

    let oracle_config = ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime);
    let expected = execute(&plan, &ds, &oracle_config).expect("oracle runs");
    assert_eq!(expected.table.len(), n / 2, "filter keeps the odd half");
    // The intermediates the oracle materialises along the probe chain:
    // the probe-side scan and the three join outputs (the filter output
    // is the sink and materialises either way).
    let mut oracle_chain_rows = 0usize;
    let mut node = &expected.profile.children[0]; // topmost hash join
    for _ in 0..3 {
        oracle_chain_rows += node.output_rows;
        node = &node.children[0];
    }
    oracle_chain_rows += node.output_rows; // the probe-side scan

    for t in bench_thread_counts() {
        let pipeline_config = ExecConfig::unlimited().with_threads(t);
        let oracle_t = ExecConfig {
            threads: Some(t),
            ..oracle_config.clone()
        };
        let out = execute(&plan, &ds, &pipeline_config).expect("pipeline runs");
        assert_eq!(
            out.table, expected.table,
            "pipeline chain (t={t}) diverges from the oracle"
        );
        assert!(out.runtime.pipelines > 0, "chain must run as a pipeline");
        assert_eq!(
            out.runtime.pipeline_rows_avoided, oracle_chain_rows,
            "pipeline (t={t}) must avoid exactly the oracle's non-breaker intermediates"
        );
        let (baseline_ns, optimized_ns) = median_ns_pair(
            runs,
            || execute(&plan, &ds, &oracle_t),
            || execute(&plan, &ds, &pipeline_config),
        );
        results.push(KernelResult {
            name: format!("pipeline_chain_100k_t{t}"),
            baseline_ns,
            optimized_ns,
        });
    }
}

/// `pipeline_optional_100k_t*`: an OPTIONAL chain — two left-outer hash
/// joins over a 100k-row probe side, half/third match density — executed
/// by the pipeline executor (outer probes as streaming stages) against
/// the operator-at-a-time oracle, which materialises the probe-side scan
/// and the first outer join's 100k-row output. Identity, profile-exact
/// rows-avoided, and the `pipeline_outer_probes` counter are asserted
/// before anything is timed; the rows use the drift-cancelling paired
/// median like `pipeline_chain_*`.
fn measure_pipeline_optional(results: &mut Vec<KernelResult>, runs: usize) {
    use hsp_engine::{execute, ExecConfig, ExecStrategy, PhysicalPlan};
    use hsp_sparql::{TermOrVar, TriplePattern};

    // a_i -p0-> b_i for all i; b_i carries val1 for even i and val2 for
    // every third i, so both OPTIONAL blocks leave real UNBOUND gaps.
    let n = 100_000usize;
    let mut doc = String::with_capacity(n * 120);
    for i in 0..n {
        doc.push_str(&format!(
            "<http://e/a{i}> <http://e/p0> <http://e/b{i}> .\n"
        ));
        if i % 2 == 0 {
            doc.push_str(&format!(
                "<http://e/b{i}> <http://e/val1> \"{}\" .\n",
                i % 7
            ));
        }
        if i % 3 == 0 {
            doc.push_str(&format!(
                "<http://e/b{i}> <http://e/val2> \"{}\" .\n",
                i % 5
            ));
        }
    }
    let ds = hsp_store::Dataset::from_ntriples(&doc).expect("bench dataset parses");
    let scan = |idx: usize, s: u32, p: &str, o: u32| PhysicalPlan::Scan {
        pattern_idx: idx,
        pattern: TriplePattern::new(
            TermOrVar::Var(Var(s)),
            TermOrVar::Const(hsp_rdf::Term::iri(format!("http://e/{p}"))),
            TermOrVar::Var(Var(o)),
        ),
        order: hsp_store::Order::Pso,
    };
    let plan = PhysicalPlan::LeftOuterHashJoin {
        left: Box::new(PhysicalPlan::LeftOuterHashJoin {
            left: Box::new(scan(0, 0, "p0", 1)),
            right: Box::new(scan(1, 1, "val1", 2)),
            vars: vec![Var(1)],
        }),
        right: Box::new(scan(2, 1, "val2", 3)),
        vars: vec![Var(1)],
    };

    let oracle_config = ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime);
    let expected = execute(&plan, &ds, &oracle_config).expect("oracle runs");
    assert_eq!(expected.table.len(), n, "every probe row survives");
    // What the oracle materialises along the probe chain: the probe-side
    // scan and the inner outer-join output (the topmost join's output is
    // the sink and materialises either way).
    let inner = &expected.profile.children[0];
    let oracle_chain_rows = inner.output_rows + inner.children[0].output_rows;

    for t in bench_thread_counts() {
        let pipeline_config = ExecConfig::unlimited().with_threads(t);
        let oracle_t = ExecConfig {
            threads: Some(t),
            ..oracle_config.clone()
        };
        let out = execute(&plan, &ds, &pipeline_config).expect("pipeline runs");
        assert_eq!(
            out.table, expected.table,
            "optional pipeline (t={t}) diverges from the oracle"
        );
        assert!(out.runtime.pipelines > 0, "chain must run as a pipeline");
        assert_eq!(
            out.runtime.pipeline_outer_probes, 2,
            "both OPTIONAL probes must stream (t={t})"
        );
        assert_eq!(
            out.runtime.pipeline_rows_avoided, oracle_chain_rows,
            "pipeline (t={t}) must avoid exactly the oracle's non-breaker intermediates"
        );
        let (baseline_ns, optimized_ns) = median_ns_pair(
            runs,
            || execute(&plan, &ds, &oracle_t),
            || execute(&plan, &ds, &pipeline_config),
        );
        results.push(KernelResult {
            name: format!("pipeline_optional_100k_t{t}"),
            baseline_ns,
            optimized_ns,
        });
    }
}

/// `agg_groupby_100k_t*`: γ over a 100k-row dept ⋈ salary join — COUNT(*),
/// SUM, MIN, MAX, AVG grouped into 64 departments — executed as the
/// morsel-parallel two-phase breaker (per-worker partial grouped states,
/// morsel-order merge) against the operator-at-a-time oracle, which runs
/// the row-at-a-time `reference::hash_aggregate`. Identity is asserted
/// before anything is timed: the output *table* and the computed-term
/// overlay (aggregate output ids are positional, so a divergent intern
/// order corrupts results even when the values agree), plus the
/// `aggregate_groups` counter and — at t>1 — a live `parallel_aggregates`
/// counter proving the parallel fold actually engaged.
fn measure_aggregate_groupby(results: &mut Vec<KernelResult>, runs: usize) {
    use hsp_engine::{execute, ExecConfig, ExecStrategy, PhysicalPlan};
    use hsp_sparql::{AggFunc, AggSpec, TermOrVar, TriplePattern};

    const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
    let n = 100_000usize;
    let groups = 64usize;
    let mut doc = String::with_capacity(n * 110);
    for i in 0..n {
        doc.push_str(&format!(
            "<http://e/s{i}> <http://e/dept> <http://e/d{}> .\n\
             <http://e/s{i}> <http://e/salary> \"{}\"^^<{XSD_INTEGER}> .\n",
            i % groups,
            i % 100
        ));
    }
    let ds = hsp_store::Dataset::from_ntriples(&doc).expect("bench dataset parses");
    let scan = |idx: usize, p: &str, s: u32, o: u32| PhysicalPlan::Scan {
        pattern_idx: idx,
        pattern: TriplePattern::new(
            TermOrVar::Var(Var(s)),
            TermOrVar::Const(hsp_rdf::Term::iri(format!("http://e/{p}"))),
            TermOrVar::Var(Var(o)),
        ),
        order: Order::Pso,
    };
    let agg = |func: AggFunc, arg: Option<Var>, out: u32, name: &str| AggSpec {
        func,
        distinct: false,
        arg,
        out: Var(out),
        name: name.to_string(),
    };
    let aggs = vec![
        agg(AggFunc::Count, None, 3, "n"),
        agg(AggFunc::Sum, Some(Var(2)), 4, "t"),
        agg(AggFunc::Min, Some(Var(2)), 5, "lo"),
        agg(AggFunc::Max, Some(Var(2)), 6, "hi"),
        agg(AggFunc::Avg, Some(Var(2)), 7, "a"),
    ];
    let mut projection: Vec<(String, Var)> = vec![("d".into(), Var(1))];
    projection.extend(aggs.iter().map(|a| (a.name.clone(), a.out)));
    let plan = PhysicalPlan::Project {
        input: Box::new(PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::HashJoin {
                left: Box::new(scan(0, "dept", 0, 1)),
                right: Box::new(scan(1, "salary", 0, 2)),
                vars: vec![Var(0)],
            }),
            group_by: vec![Var(1)],
            aggs,
            having: None,
        }),
        projection,
        distinct: false,
    };

    let oracle_config = ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime);
    let expected = execute(&plan, &ds, &oracle_config).expect("oracle runs");
    assert_eq!(
        expected.table.len(),
        groups,
        "one output row per department"
    );

    for t in bench_thread_counts() {
        let pipeline_config = ExecConfig::unlimited().with_threads(t);
        let oracle_t = ExecConfig {
            threads: Some(t),
            ..oracle_config.clone()
        };
        let out = execute(&plan, &ds, &pipeline_config).expect("pipeline runs");
        assert_eq!(
            out.table, expected.table,
            "aggregate breaker (t={t}) diverges from the oracle"
        );
        assert_eq!(
            out.computed, expected.computed,
            "computed-term overlay (t={t}) diverges from the oracle"
        );
        assert_eq!(out.runtime.aggregate_groups, groups, "group count (t={t})");
        if t > 1 {
            assert!(
                out.runtime.parallel_aggregates > 0,
                "the parallel fold must engage at t={t}"
            );
        }
        let (baseline_ns, optimized_ns) = median_ns_pair(
            runs,
            || execute(&plan, &ds, &oracle_t),
            || execute(&plan, &ds, &pipeline_config),
        );
        results.push(KernelResult {
            name: format!("agg_groupby_100k_t{t}"),
            baseline_ns,
            optimized_ns,
        });
    }
}

/// `distinct_stream_100k_t1`: SELECT DISTINCT over a 100k-row join chain
/// (500 distinct values survive), executed by the pipeline executor —
/// where the chain-topping DISTINCT runs as a *streaming* two-phase dedup
/// stage, so neither the probe-side scan nor the join output nor the
/// un-deduped projection ever materialises — against the
/// operator-at-a-time oracle, which materialises all three. Identity, a
/// live `distinct_streamed` counter, and strictly positive
/// `pipeline_rows_avoided` are asserted before anything is timed.
fn measure_distinct_stream(results: &mut Vec<KernelResult>, runs: usize) {
    use hsp_engine::{execute, ExecConfig, ExecStrategy, PhysicalPlan};
    use hsp_sparql::{TermOrVar, TriplePattern};

    let n = 100_000usize;
    let mut doc = String::with_capacity(n * 90);
    for i in 0..n {
        doc.push_str(&format!(
            "<http://e/a{i}> <http://e/p0> <http://e/b{i}> .\n\
             <http://e/b{i}> <http://e/val> \"{}\" .\n",
            i % 500
        ));
    }
    let ds = hsp_store::Dataset::from_ntriples(&doc).expect("bench dataset parses");
    let scan = |idx: usize, s: u32, p: &str, o: u32| PhysicalPlan::Scan {
        pattern_idx: idx,
        pattern: TriplePattern::new(
            TermOrVar::Var(Var(s)),
            TermOrVar::Const(hsp_rdf::Term::iri(format!("http://e/{p}"))),
            TermOrVar::Var(Var(o)),
        ),
        order: Order::Pso,
    };
    let plan = PhysicalPlan::Project {
        input: Box::new(PhysicalPlan::HashJoin {
            left: Box::new(scan(0, 0, "p0", 1)),
            right: Box::new(scan(1, 1, "val", 2)),
            vars: vec![Var(1)],
        }),
        projection: vec![("v".into(), Var(2))],
        distinct: true,
    };

    let oracle_config = ExecConfig::unlimited()
        .with_strategy(ExecStrategy::OperatorAtATime)
        .with_threads(1);
    let expected = execute(&plan, &ds, &oracle_config).expect("oracle runs");
    assert_eq!(expected.table.len(), 500, "500 distinct values survive");

    let pipeline_config = ExecConfig::unlimited().with_threads(1);
    let out = execute(&plan, &ds, &pipeline_config).expect("pipeline runs");
    assert_eq!(
        out.table, expected.table,
        "streaming DISTINCT diverges from the oracle"
    );
    assert!(
        out.runtime.distinct_streamed > 0,
        "DISTINCT must stream, not materialise"
    );
    assert!(
        out.runtime.pipeline_rows_avoided > 0,
        "the chain under DISTINCT must not materialise"
    );
    let (baseline_ns, optimized_ns) = median_ns_pair(
        runs,
        || execute(&plan, &ds, &oracle_config),
        || execute(&plan, &ds, &pipeline_config),
    );
    results.push(KernelResult {
        name: "distinct_stream_100k_t1".into(),
        baseline_ns,
        optimized_ns,
    });
}

/// Human-readable report table.
pub fn render_text(results: &[KernelResult]) -> String {
    let mut out = String::from(
        "Kernel benchmarks (row-at-a-time / serial baseline vs vectorized / parallel)\n\n",
    );
    writeln!(
        out,
        "{:<22} {:>14} {:>14} {:>9}",
        "kernel", "baseline", "optimized", "speedup"
    )
    .expect("writing to String");
    for r in results {
        writeln!(
            out,
            "{:<22} {:>12.2}ms {:>12.2}ms {:>8.2}x",
            r.name,
            r.baseline_ns as f64 / 1e6,
            r.optimized_ns as f64 / 1e6,
            r.speedup()
        )
        .expect("writing to String");
    }
    out
}

/// The `BENCH_ops.json` payload (hand-rolled; no serde in this workspace).
pub fn render_json(results: &[KernelResult]) -> String {
    let mut out =
        String::from("{\n  \"benchmark\": \"ops\",\n  \"unit\": \"ns\",\n  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"baseline_ns\": {}, \"optimized_ns\": {}, \"speedup\": {:.3}}}{}",
            r.name,
            r.baseline_ns,
            r.optimized_ns,
            r.speedup(),
            if i + 1 < results.len() { "," } else { "" }
        )
        .expect("writing to String");
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_valid_enough() {
        let results = vec![
            KernelResult {
                name: "a".into(),
                baseline_ns: 100,
                optimized_ns: 50,
            },
            KernelResult {
                name: "b".into(),
                baseline_ns: 10,
                optimized_ns: 10,
            },
        ];
        let json = render_json(&results);
        assert!(json.contains("\"speedup\": 2.000"));
        assert!(json.contains("\"benchmark\": \"ops\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let text = render_text(&results);
        assert!(text.contains("2.00x"));
    }
}
