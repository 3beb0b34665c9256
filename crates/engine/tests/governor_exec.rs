//! Governor semantics under the pipeline executor: deadlines trip
//! promptly on a multi-million-row cross product, cancellation and memory
//! budgets surface as typed [`ExecError`]s (never a panic, never a hang),
//! and — the load-bearing invariant — a tripped execution drains: the
//! governor's memory account returns to zero, and a subsequent query on
//! the *same context* is byte-identical to a fresh run. All of it at
//! forced thread counts 1–4 with tiny morsels, so the parallel
//! claim/stitch machinery is exercised even on small inputs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hsp_engine::exec::{execute_in, ExecConfig, ExecError, ExecStrategy};
use hsp_engine::{CancelToken, ExecContext, MorselConfig, PhysicalPlan};
use hsp_rdf::Term;
use hsp_sparql::{TermOrVar, TriplePattern, Var};
use hsp_store::{Dataset, Order};

fn cv(name: &str) -> TermOrVar {
    TermOrVar::Const(Term::iri(format!("http://e/{name}")))
}

fn vv(i: u32) -> TermOrVar {
    TermOrVar::Var(Var(i))
}

fn scan(idx: usize, s: TermOrVar, p: TermOrVar, o: TermOrVar, order: Order) -> PhysicalPlan {
    PhysicalPlan::Scan {
        pattern_idx: idx,
        pattern: TriplePattern::new(s, p, o),
        order,
    }
}

/// `n` `p`-triples and `n` `q`-triples with disjoint variables: crossing
/// them yields an `n²`-row product — the runaway query the governor
/// exists to stop.
fn cross_doc(n: usize) -> String {
    let mut doc = String::new();
    for i in 0..n {
        doc.push_str(&format!("<http://e/a{i}> <http://e/p> <http://e/b{i}> .\n"));
        doc.push_str(&format!("<http://e/c{i}> <http://e/q> <http://e/d{i}> .\n"));
    }
    doc
}

/// `?a p ?b × ?c q ?d` over [`cross_doc`].
fn cross_plan() -> PhysicalPlan {
    PhysicalPlan::CrossProduct {
        left: Box::new(scan(0, vv(0), cv("p"), vv(1), Order::Pso)),
        right: Box::new(scan(1, vv(2), cv("q"), vv(3), Order::Pso)),
    }
}

/// A deterministic SP²Bench-shaped citation graph (see
/// `pipeline_exec.rs`): enough fan-out that the chain plan below runs
/// real probe pipelines with intermediates worth pooling.
fn chain_doc() -> String {
    let mut doc = String::new();
    for i in 0..120u32 {
        let a = i % 40;
        let b = (i * 7 + 3) % 40;
        doc.push_str(&format!(
            "<http://e/art{a}> <http://e/cites> <http://e/art{b}> .\n"
        ));
    }
    for a in 0..40u32 {
        doc.push_str(&format!(
            "<http://e/art{a}> <http://e/year> \"{}\" .\n",
            1990 + (a % 25)
        ));
    }
    doc
}

/// `?a cites ?b . ?b cites ?c . ?b year ?y` — scan → probe → probe.
fn chain_plan() -> PhysicalPlan {
    PhysicalPlan::HashJoin {
        left: Box::new(PhysicalPlan::HashJoin {
            left: Box::new(scan(0, vv(0), cv("cites"), vv(1), Order::Pso)),
            right: Box::new(scan(1, vv(1), cv("cites"), vv(2), Order::Pso)),
            vars: vec![Var(1)],
        }),
        right: Box::new(scan(2, vv(1), cv("year"), vv(3), Order::Pso)),
        vars: vec![Var(1)],
    }
}

/// A context with forced `threads` and tiny morsels (the
/// `pipeline_exec.rs` convention: even 100-row inputs split across
/// workers).
fn forced_ctx(threads: usize) -> ExecContext {
    ExecContext::with_morsel_config(
        MorselConfig::with_threads(threads)
            .with_morsel_rows(4)
            .with_min_parallel_rows(0),
    )
}

/// Assert the drained-error-path invariant on `ctx`: every charged byte
/// was released.
fn assert_drained(ctx: &ExecContext) {
    let gov = ctx.governor().expect("governor attached");
    assert_eq!(gov.mem_used(), 0, "leaked memory accounting after trip");
}

/// Detach the tripped governor and re-run `plan` on the same (warm)
/// context; the output must be byte-identical to a fresh ungoverned run.
fn assert_rerun_identical(mut ctx: ExecContext, plan: &PhysicalPlan, ds: &Dataset) {
    ctx.set_governor(None);
    let config = ExecConfig::unlimited();
    let warm = execute_in(plan, ds, &config, &ctx).expect("re-run on warm context succeeds");
    let fresh = execute_in(plan, ds, &config, &config.context()).expect("fresh run succeeds");
    assert_eq!(
        warm.table, fresh.table,
        "warm-context re-run diverges from a fresh run"
    );
}

#[test]
fn deadline_trips_promptly_on_ten_million_row_cross_product() {
    // 3200 × 3200 ≈ 10.2M output rows — far more work than 50ms allows,
    // but the inputs themselves load and scan quickly.
    let ds = Dataset::from_ntriples(&cross_doc(3200)).unwrap();
    let plan = cross_plan();
    let config = ExecConfig::unlimited().with_timeout(Duration::from_millis(50));
    let ctx = ExecContext::new().with_governor(config.governor().expect("timeout set"));
    let started = Instant::now();
    let err = execute_in(&plan, &ds, &config, &ctx).expect_err("deadline must trip");
    let elapsed = started.elapsed();
    assert!(
        matches!(err, ExecError::DeadlineExceeded),
        "expected DeadlineExceeded, got {err}"
    );
    // Promptness: the trip is bounded by one poll stride / breaker step,
    // not by materialising the full 10M-row product. The bound is
    // deliberately loose for slow CI machines; without the governor this
    // plan takes far longer still.
    assert!(
        elapsed < Duration::from_secs(10),
        "deadline honoured too slowly: {elapsed:?}"
    );
    assert_drained(&ctx);
}

#[test]
fn oracle_strategy_honours_the_deadline_too() {
    let ds = Dataset::from_ntriples(&cross_doc(3200)).unwrap();
    let plan = cross_plan();
    let config = ExecConfig::unlimited()
        .with_strategy(ExecStrategy::OperatorAtATime)
        .with_timeout(Duration::from_millis(50));
    let ctx = ExecContext::new().with_governor(config.governor().expect("timeout set"));
    let err = execute_in(&plan, &ds, &config, &ctx).expect_err("deadline must trip");
    assert!(
        matches!(err, ExecError::DeadlineExceeded),
        "expected DeadlineExceeded, got {err}"
    );
    assert_drained(&ctx);
}

#[test]
fn cancelled_token_fails_fast_and_context_stays_reusable() {
    let ds = Dataset::from_ntriples(&chain_doc()).unwrap();
    let plan = chain_plan();
    for threads in 1..=4usize {
        let token = Arc::new(CancelToken::new());
        token.cancel();
        let config = ExecConfig::unlimited().with_cancel_token(Arc::clone(&token));
        let mut ctx = forced_ctx(threads);
        ctx.set_governor(Some(config.governor().expect("token set")));
        let err = execute_in(&plan, &ds, &config, &ctx).expect_err("cancellation must surface");
        assert!(
            matches!(err, ExecError::Cancelled),
            "threads={threads}: expected Cancelled, got {err}"
        );
        assert_drained(&ctx);
        assert_rerun_identical(ctx, &plan, &ds);
    }
}

#[test]
fn cancellation_from_another_thread_interrupts_a_running_cross_product() {
    // The product is ~10M rows (hundreds of megabytes of column writes),
    // so cancelling a few milliseconds in lands mid-kernel: the
    // cooperative poll inside the cross-product tiling loop must observe
    // it and bail, draining the partially filled columns.
    let ds = Dataset::from_ntriples(&cross_doc(3200)).unwrap();
    let plan = cross_plan();
    let token = Arc::new(CancelToken::new());
    let config = ExecConfig::unlimited().with_cancel_token(Arc::clone(&token));
    let ctx = ExecContext::new().with_governor(config.governor().expect("token set"));
    let canceller = std::thread::spawn({
        let token = Arc::clone(&token);
        move || {
            std::thread::sleep(Duration::from_millis(3));
            token.cancel();
        }
    });
    let err = execute_in(&plan, &ds, &config, &ctx).expect_err("cancellation must surface");
    canceller.join().expect("canceller thread joins");
    assert!(
        matches!(err, ExecError::Cancelled),
        "expected Cancelled, got {err}"
    );
    assert_drained(&ctx);
    assert_rerun_identical(
        ctx,
        &chain_plan(),
        &Dataset::from_ntriples(&chain_doc()).unwrap(),
    );
}

#[test]
fn memory_budget_trips_with_typed_fields_and_the_account_drains() {
    let ds = Dataset::from_ntriples(&chain_doc()).unwrap();
    let plan = chain_plan();
    const BUDGET: usize = 256; // bytes — the first materialisation blows it
    for threads in 1..=4usize {
        let config = ExecConfig::unlimited().with_mem_budget(BUDGET);
        let mut ctx = forced_ctx(threads);
        ctx.set_governor(Some(config.governor().expect("budget set")));
        let err = execute_in(&plan, &ds, &config, &ctx).expect_err("budget must trip");
        match &err {
            ExecError::MemoryBudgetExceeded { used, budget, site } => {
                assert_eq!(*budget, BUDGET);
                assert!(*used > BUDGET, "used {used} should exceed budget {BUDGET}");
                assert!(
                    ["worker", "breaker", "operator", "sink", "crossproduct"].contains(site),
                    "unexpected site {site}"
                );
            }
            other => panic!("threads={threads}: expected MemoryBudgetExceeded, got {other}"),
        }
        assert_drained(&ctx);
        assert_rerun_identical(ctx, &plan, &ds);
    }
}

/// A budget that holds the build side but not the joined output trips
/// when the sink charges that output, and the refused output's charge is
/// released with it.
#[test]
fn memory_budget_trip_at_the_sink_drains_the_account() {
    let ds = Dataset::from_ntriples(&chain_doc()).unwrap();
    // `?a cites ?b . ?b year ?y` — scan → probe → sink.
    let plan = PhysicalPlan::HashJoin {
        left: Box::new(scan(0, vv(0), cv("cites"), vv(1), Order::Pso)),
        right: Box::new(scan(1, vv(1), cv("year"), vv(2), Order::Pso)),
        vars: vec![Var(1)],
    };
    const BUDGET: usize = 400; // build side 320 bytes, output 480
    for threads in 1..=4usize {
        let config = ExecConfig::unlimited().with_mem_budget(BUDGET);
        let mut ctx = forced_ctx(threads);
        ctx.set_governor(Some(config.governor().expect("budget set")));
        let err = execute_in(&plan, &ds, &config, &ctx).expect_err("budget must trip");
        assert!(
            matches!(err, ExecError::MemoryBudgetExceeded { site: "sink", .. }),
            "threads={threads}: {err}"
        );
        assert_drained(&ctx);
        assert_rerun_identical(ctx, &plan, &ds);
    }
}

/// Every row its own group: the γ hash state (keys held twice — in the
/// key list and the index — plus accumulators) dwarfs the scanned input,
/// so a budget sized above the scan but below the grouped state trips at
/// the dedicated `"aggregate"` checkpoint, with the typed fields intact
/// and the account drained.
#[test]
fn memory_budget_trips_inside_the_aggregate_hash_state() {
    let mut doc = String::new();
    for i in 0..2000u32 {
        doc.push_str(&format!("<http://e/s{i}> <http://e/p> <http://e/o{i}> .\n"));
    }
    let ds = Dataset::from_ntriples(&doc).unwrap();
    let aggs = vec![hsp_sparql::AggSpec {
        func: hsp_sparql::AggFunc::Count,
        distinct: false,
        arg: None,
        out: Var(2),
        name: "n".into(),
    }];
    let plan = PhysicalPlan::Project {
        input: Box::new(PhysicalPlan::HashAggregate {
            input: Box::new(scan(0, vv(0), cv("p"), vv(1), Order::Pso)),
            group_by: vec![Var(0), Var(1)],
            aggs,
            having: None,
        }),
        projection: vec![
            ("s".into(), Var(0)),
            ("o".into(), Var(1)),
            ("n".into(), Var(2)),
        ],
        distinct: false,
    };
    const BUDGET: usize = 24 * 1024; // scanned input ≈ 16 KiB, γ keys ≈ 32 KiB
    for threads in 1..=4usize {
        let config = ExecConfig::unlimited().with_mem_budget(BUDGET);
        let mut ctx = forced_ctx(threads);
        ctx.set_governor(Some(config.governor().expect("budget set")));
        let err = execute_in(&plan, &ds, &config, &ctx).expect_err("aggregate budget must trip");
        match &err {
            ExecError::MemoryBudgetExceeded { used, budget, site } => {
                assert_eq!(*budget, BUDGET);
                assert!(*used > BUDGET, "used {used} should exceed budget {BUDGET}");
                assert_eq!(
                    *site, "aggregate",
                    "the trip should land at the aggregate checkpoint"
                );
            }
            other => panic!("threads={threads}: expected MemoryBudgetExceeded, got {other}"),
        }
        assert_drained(&ctx);
        assert_rerun_identical(
            ctx,
            &chain_plan(),
            &Dataset::from_ntriples(&chain_doc()).unwrap(),
        );
    }
}

#[test]
fn inert_governor_is_byte_identical_to_ungoverned_execution() {
    let ds = Dataset::from_ntriples(&chain_doc()).unwrap();
    let plan = chain_plan();
    let ungoverned_config = ExecConfig::unlimited();
    let oracle = execute_in(&plan, &ds, &ungoverned_config, &ungoverned_config.context())
        .expect("ungoverned run succeeds");
    for threads in 1..=4usize {
        let config = ExecConfig::unlimited()
            .with_timeout(Duration::from_secs(3600))
            .with_mem_budget(usize::MAX);
        let mut ctx = forced_ctx(threads);
        ctx.set_governor(Some(config.governor().expect("limits set")));
        let out = execute_in(&plan, &ds, &config, &ctx).expect("governed run succeeds");
        assert_eq!(
            out.table, oracle.table,
            "threads={threads}: governed output diverges"
        );
        let gov = ctx.governor().expect("governor attached");
        assert!(gov.checks() > 0, "no checkpoints consulted the governor");
        // The only live allocation at completion is the result table
        // itself; releasing it must zero the account.
        assert_eq!(gov.mem_used(), hsp_engine::table_bytes(&out.table));
        assert_eq!(out.runtime.governor_checks, gov.checks());
        assert_eq!(out.runtime.governor_mem_peak, gov.mem_peak());
        ctx.release(out.table);
        assert_eq!(gov.mem_used(), 0);
    }
}

#[test]
fn zero_deadline_trips_before_any_work_at_all_thread_counts() {
    let ds = Dataset::from_ntriples(&chain_doc()).unwrap();
    let plan = chain_plan();
    for threads in 1..=4usize {
        let config = ExecConfig::unlimited().with_timeout(Duration::ZERO);
        let mut ctx = forced_ctx(threads);
        ctx.set_governor(Some(config.governor().expect("timeout set")));
        let err = execute_in(&plan, &ds, &config, &ctx).expect_err("deadline must trip");
        assert!(
            matches!(err, ExecError::DeadlineExceeded),
            "threads={threads}: expected DeadlineExceeded, got {err}"
        );
        assert_drained(&ctx);
        assert_rerun_identical(ctx, &plan, &ds);
    }
}

/// A deadline that passes while the γ fold runs — on the coordinating
/// thread, one morsel-sized range per `"aggregate"` checkpoint — surfaces
/// as `DeadlineExceeded` at the next range, and the account drains. The
/// deadline is searched for: a run that trips before the fold or
/// completes moves it later or earlier, until one trips inside the fold.
#[test]
fn a_deadline_inside_a_multi_morsel_aggregate_fold_trips_typed_and_drains() {
    // Every row its own group: most of the run is the fold.
    const ROWS: usize = 20_000;
    let doc: String = (0..ROWS)
        .map(|i| format!("<http://e/s{i}> <http://e/p> <http://e/o{i}> .\n"))
        .collect();
    let ds = Dataset::from_ntriples(&doc).unwrap();
    let plan = PhysicalPlan::HashAggregate {
        input: Box::new(scan(0, vv(0), cv("p"), vv(1), Order::Pso)),
        group_by: vec![Var(0), Var(1)],
        aggs: vec![hsp_sparql::AggSpec {
            func: hsp_sparql::AggFunc::Count,
            distinct: false,
            arg: None,
            out: Var(2),
            name: "n".into(),
        }],
        having: None,
    };
    let governed = |config: &ExecConfig| {
        let mut ctx = forced_ctx(2);
        ctx.set_governor(config.governor());
        ctx
    };
    // An untripped run: its last checkpoints are the fold's, one per
    // four-row range.
    let inert = ExecConfig::unlimited().with_timeout(Duration::from_secs(3600));
    let ctx = governed(&inert);
    let started = Instant::now();
    let out = execute_in(&plan, &ds, &inert, &ctx).expect("untripped run succeeds");
    let (mut early, mut late) = (Duration::ZERO, started.elapsed() * 2);
    let total = ctx.governor().expect("governor attached").checks();
    let fold_starts = total - ROWS.div_ceil(4);
    assert_eq!(out.table.len(), ROWS);
    ctx.release(out.table);

    for _ in 0..24 {
        let deadline = (early + late) / 2;
        let config = ExecConfig::unlimited().with_timeout(deadline);
        let ctx = governed(&config);
        match execute_in(&plan, &ds, &config, &ctx) {
            Ok(out) => {
                ctx.release(out.table);
                late = deadline;
            }
            Err(ExecError::DeadlineExceeded) => {
                assert_drained(&ctx);
                let checks = ctx.governor().expect("governor attached").checks();
                if checks <= fold_starts {
                    early = deadline;
                    continue;
                }
                assert!(checks <= total, "{checks} checkpoints of {total}");
                assert_rerun_identical(ctx, &plan, &ds);
                return;
            }
            Err(other) => panic!("expected DeadlineExceeded, got {other}"),
        }
    }
    panic!("no deadline in 24 tries tripped inside the fold");
}
