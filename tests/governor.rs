//! Fault injection through the query governor's `HSP_FAULT` hook
//! (enabled here by the root crate's `fault-inject` feature on
//! `hsp-engine`): each injected failure mode — `panic@<site>`,
//! `slow@<site>`, `alloc@<site>` — at each instrumented checkpoint site
//! converts to its typed [`ExecError`], the context drains (pool
//! counters balance, memory account at zero), and the next query on the
//! same context is byte-identical to a fresh run at forced thread
//! counts 1–4. A tiny-memory-budget battery at the bottom runs a
//! representative slice of the suite's query shapes under a 1 KiB
//! budget and asserts graceful `MemoryBudgetExceeded` errors, never an
//! abort — the pass CI runs as its "suite under a tiny budget" step.

use std::sync::Mutex;
use std::time::Duration;

use hsp_engine::exec::{execute_in, ExecConfig, ExecError, ExecStrategy};
use hsp_engine::{ExecContext, MorselConfig, PhysicalPlan};
use hsp_rdf::Term;
use hsp_sparql::{AggFunc, AggSpec, TermOrVar, TriplePattern, Var};
use hsp_store::{Dataset, Order};
use sparql_hsp::extended::{evaluate_extended_in, ExtendedError, ExtendedOutput};

/// `HSP_FAULT` is process-global: fault tests take this lock so
/// concurrently running tests never see each other's injected fault.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// [`evaluate_extended_in`] in a fresh context of `config`.
fn evaluate_extended_with(
    ds: &Dataset,
    text: &str,
    config: &ExecConfig,
) -> Result<ExtendedOutput, ExtendedError> {
    evaluate_extended_in(ds, text, config, &config.context())
}

/// Run `f` with `HSP_FAULT=spec` set, serialised against the other
/// fault tests; the variable is cleared afterwards even on panic.
fn with_fault<T>(spec: &str, f: impl FnOnce() -> T) -> T {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    struct Unset;
    impl Drop for Unset {
        fn drop(&mut self) {
            std::env::remove_var("HSP_FAULT");
        }
    }
    let _unset = Unset;
    std::env::set_var("HSP_FAULT", spec);
    f()
}

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

/// The deterministic citation graph the governor tests share (see
/// `crates/engine/tests/governor_exec.rs`).
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

/// [`chain_plan`] under γ{?a} COUNT(?y): the γ fold's morsel claims are
/// the only `"aggregate"`-site checkpoints, so matrix entries targeting
/// that site need a plan that actually reaches the aggregate breaker.
fn agg_plan() -> PhysicalPlan {
    PhysicalPlan::HashAggregate {
        input: Box::new(chain_plan()),
        group_by: vec![Var(0)],
        aggs: vec![AggSpec {
            func: AggFunc::Count,
            distinct: false,
            arg: Some(Var(3)),
            out: Var(4),
            name: "n".into(),
        }],
        having: None,
    }
}

fn forced_ctx(threads: usize) -> ExecContext {
    ExecContext::with_morsel_config(
        MorselConfig::with_threads(threads)
            .with_morsel_rows(4)
            .with_min_parallel_rows(0),
    )
}

/// Drained-context invariants plus the byte-identical follow-up query:
/// after a fault, detach the governor, re-run on the warm context, and
/// compare against a fresh ungoverned run. Also asserts the detached
/// context's runtime metrics report no governor (metrics coherence).
fn assert_drained_and_rerun(mut ctx: ExecContext, ds: &Dataset) {
    let stats = ctx.pool.stats();
    assert_eq!(
        stats.hits + stats.misses,
        stats.returned,
        "pool imbalance after injected fault: {stats:?}"
    );
    assert_eq!(
        ctx.governor().expect("governor attached").mem_used(),
        0,
        "leaked memory accounting after injected fault"
    );
    ctx.set_governor(None);
    let plan = chain_plan();
    let config = ExecConfig::unlimited();
    let warm = execute_in(&plan, ds, &config, &ctx).expect("re-run on warm context succeeds");
    assert_eq!(
        warm.runtime.governor_checks, 0,
        "detached governor still counted"
    );
    let fresh = execute_in(&plan, ds, &config, &config.context()).expect("fresh run succeeds");
    assert_eq!(
        warm.table, fresh.table,
        "post-fault re-run diverges from a fresh run"
    );
}

/// Inject `spec`, execute the chain plan at forced `threads`, and return
/// the typed error plus the context for drain checks.
fn faulted_run(spec: &str, threads: usize, ds: &Dataset) -> (ExecError, ExecContext) {
    with_fault(spec, || {
        let config = ExecConfig::unlimited().with_fault_injection();
        let mut ctx = forced_ctx(threads);
        ctx.set_governor(Some(
            config.governor().expect("fault injection arms a governor"),
        ));
        let err = execute_in(&chain_plan(), ds, &config, &ctx)
            .expect_err("injected fault must surface as an error");
        (err, ctx)
    })
}

#[test]
fn panic_at_worker_converts_to_typed_error_and_context_recovers() {
    let ds = Dataset::from_ntriples(&chain_doc()).unwrap();
    for threads in 1..=4usize {
        let (err, ctx) = faulted_run("panic@worker", threads, &ds);
        assert!(
            matches!(err, ExecError::WorkerPanicked { site: "worker" }),
            "threads={threads}: expected WorkerPanicked at worker, got {err}"
        );
        assert_drained_and_rerun(ctx, &ds);
    }
}

#[test]
fn panic_at_breaker_converts_to_typed_error_and_context_recovers() {
    let ds = Dataset::from_ntriples(&chain_doc()).unwrap();
    for threads in 1..=4usize {
        let (err, ctx) = faulted_run("panic@breaker", threads, &ds);
        assert!(
            matches!(err, ExecError::WorkerPanicked { site: "breaker" }),
            "threads={threads}: expected WorkerPanicked at breaker, got {err}"
        );
        assert_drained_and_rerun(ctx, &ds);
    }
}

#[test]
fn alloc_fault_at_worker_and_breaker_trips_the_memory_budget_error() {
    let ds = Dataset::from_ntriples(&chain_doc()).unwrap();
    for site in ["worker", "breaker"] {
        for threads in 1..=4usize {
            let (err, ctx) = faulted_run(&format!("alloc@{site}"), threads, &ds);
            match &err {
                ExecError::MemoryBudgetExceeded {
                    budget: 0,
                    site: got,
                    ..
                } => {
                    assert_eq!(*got, site, "threads={threads}")
                }
                other => panic!(
                    "threads={threads} site={site}: expected MemoryBudgetExceeded, got {other}"
                ),
            }
            assert_drained_and_rerun(ctx, &ds);
        }
    }
}

#[test]
fn slow_fault_lets_a_short_deadline_fire_deterministically() {
    // `slow@<site>` sleeps ~25ms inside the checkpoint; with a 5ms
    // deadline the same checkpoint's poll then trips — no race.
    let ds = Dataset::from_ntriples(&chain_doc()).unwrap();
    for site in ["worker", "breaker"] {
        for threads in 1..=4usize {
            let (err, ctx) = with_fault(&format!("slow@{site}"), || {
                let config = ExecConfig::unlimited()
                    .with_fault_injection()
                    .with_timeout(Duration::from_millis(5));
                let mut ctx = forced_ctx(threads);
                ctx.set_governor(Some(config.governor().expect("governor armed")));
                let err = execute_in(&chain_plan(), &ds, &config, &ctx)
                    .expect_err("slowed-past-deadline run must fail");
                (err, ctx)
            });
            assert!(
                matches!(err, ExecError::DeadlineExceeded),
                "threads={threads} site={site}: expected DeadlineExceeded, got {err}"
            );
            assert_drained_and_rerun(ctx, &ds);
        }
    }
}

#[test]
fn faults_at_the_oracle_operator_site_convert_to_typed_errors() {
    let ds = Dataset::from_ntriples(&chain_doc()).unwrap();
    let run = |spec: &str, timeout: Option<Duration>| {
        with_fault(spec, || {
            let mut config = ExecConfig::unlimited()
                .with_strategy(ExecStrategy::OperatorAtATime)
                .with_fault_injection();
            if let Some(t) = timeout {
                config = config.with_timeout(t);
            }
            let mut ctx = ExecContext::new();
            ctx.set_governor(Some(config.governor().expect("governor armed")));
            let err = execute_in(&chain_plan(), &ds, &config, &ctx)
                .expect_err("injected fault must surface");
            (err, ctx)
        })
    };
    let (err, ctx) = run("panic@operator", None);
    assert!(
        matches!(err, ExecError::WorkerPanicked { site: "operator" }),
        "expected WorkerPanicked at operator, got {err}"
    );
    assert_drained_and_rerun(ctx, &ds);
    let (err, ctx) = run("alloc@operator", None);
    assert!(
        matches!(
            err,
            ExecError::MemoryBudgetExceeded {
                budget: 0,
                site: "operator",
                ..
            }
        ),
        "expected MemoryBudgetExceeded at operator, got {err}"
    );
    assert_drained_and_rerun(ctx, &ds);
    let (err, ctx) = run("slow@operator", Some(Duration::from_millis(5)));
    assert!(
        matches!(err, ExecError::DeadlineExceeded),
        "expected DeadlineExceeded, got {err}"
    );
    assert_drained_and_rerun(ctx, &ds);
}

#[test]
fn injected_faults_fire_identically_on_re_execution() {
    // Determinism: with the env var still set, a second governed run
    // arms a fresh governor and the fault fires again — same typed
    // error, same site, at every thread count.
    let ds = Dataset::from_ntriples(&chain_doc()).unwrap();
    for threads in 1..=4usize {
        let (first, _) = faulted_run("panic@worker", threads, &ds);
        let (second, _) = faulted_run("panic@worker", threads, &ds);
        assert_eq!(
            format!("{first}"),
            format!("{second}"),
            "threads={threads}: injected fault is not deterministic across runs"
        );
    }
}

#[test]
fn composed_query_surfaces_faults_at_the_breaker_site() {
    let ds = Dataset::from_ntriples(&chain_doc()).unwrap();
    let query = "SELECT ?a ?y WHERE { { ?a <http://e/cites> ?b . } UNION \
                 { ?a <http://e/year> ?y . } }";
    // Inert governed run first: byte-identical to the ungoverned path.
    let governed = with_fault("alloc@nowhere", || {
        evaluate_extended_with(&ds, query, &ExecConfig::unlimited().with_fault_injection())
            .expect("fault aimed at an unused site must not fire")
    });
    let plain = evaluate_extended_with(&ds, query, &ExecConfig::unlimited()).unwrap();
    assert_eq!(governed.rows, plain.rows);
    // The UNION is a breaker of the one composed plan: the fault reaches
    // it through the executor's own checkpoint and keeps its type.
    let err = with_fault("alloc@breaker", || {
        evaluate_extended_with(&ds, query, &ExecConfig::unlimited().with_fault_injection())
            .expect_err("fault at the breaker checkpoint must surface")
    });
    assert!(
        matches!(
            err,
            ExtendedError::Exec(ExecError::MemoryBudgetExceeded {
                budget: 0,
                site: "breaker",
                ..
            })
        ),
        "expected a typed memory-budget error at breaker, got {err:?}"
    );
    // The store is untouched: the same query still evaluates cleanly.
    let after = evaluate_extended_with(&ds, query, &ExecConfig::unlimited()).unwrap();
    assert_eq!(after.rows, plain.rows);
}

#[test]
fn update_path_surfaces_faults_and_publishes_nothing() {
    use sparql_hsp::session::{Request, Session, SessionError};
    use sparql_hsp::update::UpdateError;
    let session = Session::new(Dataset::from_ntriples("").unwrap());
    let text = r#"INSERT DATA { <http://e/s> <http://e/p> "v" . } ;
                  DELETE WHERE { ?s <http://e/p> ?o . }"#;
    let err = with_fault("alloc@update", || {
        session
            .update(Request::new(text).with_fault_injection())
            .expect_err("fault at the update checkpoint must surface")
    });
    assert!(
        matches!(
            err,
            SessionError::Update(UpdateError::Exec(ExecError::MemoryBudgetExceeded {
                site: "update",
                ..
            }))
        ),
        "unexpected error: {err}"
    );
    assert_eq!(err.code(), "MEM");
    // The fault fired at the *first* per-operation checkpoint: nothing
    // was published, and the same request applies cleanly afterwards.
    assert!(session.snapshot().is_empty());
    let done = session.update(Request::new(text)).unwrap();
    assert_eq!((done.stats.inserted, done.stats.deleted), (1, 1));
    assert!(session.snapshot().is_empty());
}

/// CI's fault-injection matrix entry point: honours an `HSP_FAULT` spec
/// set *outside* the process (every other test here sets and clears its
/// own). The workflow runs this test alone, once per
/// `mode@site` combination, under `HSP_FORCE_THREADS=4`. Without an
/// external spec it is a no-op, so plain `cargo test` is unaffected —
/// the env read happens under [`ENV_LOCK`], where a concurrent test's
/// own spec can never be visible.
#[test]
fn externally_injected_fault_converts_to_its_typed_error() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let Ok(spec) = std::env::var("HSP_FAULT") else {
        return;
    };
    let (mode, site) = spec
        .split_once('@')
        .expect("HSP_FAULT must be <mode>@<site>");
    let ds = Dataset::from_ntriples(&chain_doc()).unwrap();
    let mut config = ExecConfig::unlimited().with_fault_injection();
    if mode == "slow" {
        config = config.with_timeout(Duration::from_millis(5));
    }
    if site == "operator" {
        config = config.with_strategy(ExecStrategy::OperatorAtATime);
    }
    let plan = if site == "aggregate" {
        agg_plan()
    } else {
        chain_plan()
    };
    let mut ctx = forced_ctx(4);
    ctx.set_governor(Some(
        config.governor().expect("external fault arms a governor"),
    ));
    let err = execute_in(&plan, &ds, &config, &ctx)
        .expect_err("externally injected fault must surface as an error");
    match mode {
        "panic" => assert!(
            matches!(err, ExecError::WorkerPanicked { site: s } if s == site),
            "HSP_FAULT={spec}: expected WorkerPanicked at {site}, got {err}"
        ),
        "alloc" => assert!(
            matches!(err, ExecError::MemoryBudgetExceeded { budget: 0, site: s, .. } if s == site),
            "HSP_FAULT={spec}: expected MemoryBudgetExceeded at {site}, got {err}"
        ),
        "slow" => assert!(
            matches!(err, ExecError::DeadlineExceeded),
            "HSP_FAULT={spec}: expected DeadlineExceeded, got {err}"
        ),
        other => panic!("unknown fault mode {other:?} in HSP_FAULT={spec}"),
    }
    assert_drained_and_rerun(ctx, &ds);
}

/// The "suite under a tiny memory budget" battery: representative query
/// shapes from the integration suites, each run with a 1 KiB budget.
/// Every execution must either fit (tiny results) or fail with the
/// graceful typed error — never an abort, never a panic — and the same
/// query must succeed untouched right afterwards.
#[test]
fn tiny_budget_battery_degrades_gracefully_across_query_shapes() {
    const TINY: usize = 1024;
    let ds = Dataset::from_ntriples(&chain_doc()).unwrap();
    let tiny = ExecConfig::unlimited().with_mem_budget(TINY);

    // Pipeline chain and oracle walk of the same plan.
    for strategy in [ExecStrategy::Pipelined, ExecStrategy::OperatorAtATime] {
        let config = tiny.clone().with_strategy(strategy);
        match execute_in(&chain_plan(), &ds, &config, &config.context()) {
            Ok(out) => assert!(hsp_engine::table_bytes(&out.table) <= TINY),
            Err(ExecError::MemoryBudgetExceeded { used, budget, .. }) => {
                assert_eq!(budget, TINY);
                assert!(used > TINY);
            }
            Err(other) => panic!("expected a budget error, got {other}"),
        }
        let unlimited = ExecConfig::unlimited().with_strategy(strategy);
        execute_in(&chain_plan(), &ds, &unlimited, &unlimited.context())
            .expect("ungoverned run still succeeds after a budget trip");
    }

    // Composed shapes: UNION, OPTIONAL, FILTER.
    for query in [
        "SELECT ?a ?b WHERE { { ?a <http://e/cites> ?b . } UNION { ?a <http://e/year> ?b . } }",
        "SELECT ?a ?y WHERE { ?a <http://e/cites> ?b . OPTIONAL { ?a <http://e/year> ?y . } }",
        "SELECT ?a WHERE { ?a <http://e/year> ?y . FILTER(?y > 2000) }",
    ] {
        match evaluate_extended_with(&ds, query, &tiny) {
            Ok(_) => {}
            Err(ExtendedError::Exec(ExecError::MemoryBudgetExceeded { budget, .. })) => {
                assert_eq!(budget, TINY)
            }
            Err(other) => panic!("expected a typed budget error, got {other:?}"),
        }
        evaluate_extended_with(&ds, query, &ExecConfig::unlimited())
            .expect("ungoverned evaluation still succeeds");
    }

    // DELETE WHERE rides the same execution path (through the session
    // front door, which is how updates reach it in production).
    let session = sparql_hsp::session::Session::new(Dataset::from_ntriples(&chain_doc()).unwrap());
    match session.update(
        sparql_hsp::session::Request::new(
            "DELETE WHERE { ?a <http://e/cites> ?b . ?b <http://e/cites> ?c . }",
        )
        .with_mem_budget(TINY),
    ) {
        Ok(_) => {}
        Err(e) => assert_eq!(e.code(), "MEM", "expected a budget error, got: {e}"),
    }
}
