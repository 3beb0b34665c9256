//! Plan evaluation with per-operator profiling, a row budget, and the
//! morsel/pool runtime layer: [`execute`] lowers every plan into pipelines
//! ([`crate::pipeline`]); the operator-at-a-time tree walk in this module
//! is the tests' reference, run only when
//! [`ExecStrategy::OperatorAtATime`] names it. Every execution owns an
//! [`ExecContext`] whose thread budget drives the parallel kernels and whose
//! [`BufferPool`](crate::pool::BufferPool) recycles the columns of consumed
//! intermediates.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hsp_rdf::TermId;
use hsp_sparql::Var;
use hsp_store::Dataset;

use crate::aggregate::AggError;
use crate::binding::{resolve_term, BindingTable, IdRows};
use crate::govern::{CancelToken, GovernorError, QueryGovernor};
use crate::metrics::RuntimeMetrics;
use crate::morsel::MorselConfig;
use crate::ops;
use crate::plan::{PhysicalPlan, PlanError};
use crate::pool::ExecContext;

/// Which evaluator [`execute`] uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExecStrategy {
    /// Lower the plan into morsel-driven pipelines with explicit breakers
    /// ([`crate::pipeline`]) — the default, under every configuration.
    #[default]
    Pipelined,
    /// The operator-at-a-time tree evaluator — every operator materialises
    /// its full output. Retained as the byte-identity oracle for the
    /// pipeline executor (and as the measured baseline of the
    /// `pipeline_chain_*` bench rows); nothing selects it implicitly.
    OperatorAtATime,
}

/// Execution configuration.
#[derive(Debug, Clone, Default)]
pub struct ExecConfig {
    /// Abort if any single operator produces more than this many rows.
    /// Used to guard against runaway Cartesian products (the SQL baseline's
    /// SP4a plan) — the paper marks those runs "XXX".
    pub max_intermediate_rows: Option<usize>,
    /// Thread budget for the morsel-parallel kernels. `None` (the default)
    /// detects it via `available_parallelism` (or the `HSP_FORCE_THREADS`
    /// environment override — see [`crate::morsel::MorselConfig::auto`]);
    /// `Some(1)` forces sequential execution; `Some(n > 1)` forces a
    /// worker pool even on one core (results are identical either way —
    /// parallel kernels stitch their per-morsel outputs
    /// deterministically).
    pub threads: Option<usize>,
    /// Which evaluator runs the plan (pipelines by default; the
    /// operator-at-a-time oracle only on request).
    pub strategy: ExecStrategy,
    /// Wall-clock deadline, measured from [`ExecConfig::context`]: past
    /// it, the next governor checkpoint surfaces
    /// [`ExecError::DeadlineExceeded`]. Latency is bounded by one morsel
    /// or breaker step, not by total plan work.
    pub timeout: Option<Duration>,
    /// Per-query memory budget in **bytes** of live materialised columns
    /// (see [`crate::govern`] for what is and isn't accounted); exceeding
    /// it surfaces [`ExecError::MemoryBudgetExceeded`] instead of an OOM
    /// abort.
    pub mem_budget: Option<usize>,
    /// A caller-held cancellation token; [`CancelToken::cancel`] from any
    /// thread converts the execution into [`ExecError::Cancelled`] at the
    /// next checkpoint.
    pub cancel: Option<Arc<CancelToken>>,
    /// Arm the `HSP_FAULT` fault-injection hook for this execution (only
    /// effective under `cfg(any(test, feature = "fault-inject"))`).
    pub inject_faults: bool,
    /// Override the rows-per-morsel of the parallel kernels (`None` keeps
    /// [`MorselConfig`]'s default). Serving sessions lower this so small
    /// interactive datasets still split into enough morsels to interleave
    /// on the shared pool.
    pub morsel_rows: Option<usize>,
    /// Override the rows threshold below which kernels stay sequential
    /// (`None` keeps the default).
    pub min_parallel_rows: Option<usize>,
}

impl ExecConfig {
    /// Unlimited execution.
    pub fn unlimited() -> Self {
        ExecConfig::default()
    }

    /// Execution with a row budget.
    pub fn with_row_budget(rows: usize) -> Self {
        ExecConfig {
            max_intermediate_rows: Some(rows),
            ..ExecConfig::default()
        }
    }

    /// Force a thread budget for the parallel kernels.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Select the evaluator (see [`ExecStrategy`]).
    pub fn with_strategy(mut self, strategy: ExecStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Give the execution a wall-clock deadline.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Cap the live materialised bytes of the execution.
    pub fn with_mem_budget(mut self, bytes: usize) -> Self {
        self.mem_budget = Some(bytes);
        self
    }

    /// Attach a caller-held cancellation token.
    pub fn with_cancel_token(mut self, token: Arc<CancelToken>) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Arm the `HSP_FAULT` fault-injection hook (tests / CI only).
    pub fn with_fault_injection(mut self) -> Self {
        self.inject_faults = true;
        self
    }

    /// Override the rows-per-morsel of the parallel kernels.
    pub fn with_morsel_rows(mut self, rows: usize) -> Self {
        self.morsel_rows = Some(rows);
        self
    }

    /// Override the rows threshold below which kernels stay sequential.
    pub fn with_min_parallel_rows(mut self, rows: usize) -> Self {
        self.min_parallel_rows = Some(rows);
        self
    }

    /// The governor this configuration asks for, or `None` when the
    /// execution is unlimited (so ungoverned queries pay nothing). The
    /// deadline starts counting here.
    pub fn governor(&self) -> Option<QueryGovernor> {
        if self.timeout.is_none()
            && self.mem_budget.is_none()
            && self.cancel.is_none()
            && !self.inject_faults
        {
            return None;
        }
        let mut gov = QueryGovernor::new();
        if let Some(timeout) = self.timeout {
            gov = gov.with_deadline_in(timeout);
        }
        if let Some(bytes) = self.mem_budget {
            gov = gov.with_mem_budget(bytes);
        }
        if let Some(token) = &self.cancel {
            gov = gov.with_token(token.clone());
        }
        if self.inject_faults {
            gov = gov.with_fault_from_env();
        }
        Some(gov)
    }

    /// The execution context this configuration asks for: one thread
    /// budget (and one governor) for every operator of a query. With no
    /// explicit [`threads`](Self::threads) the budget is
    /// detected here, on every call ([`MorselConfig::auto`] asks the OS);
    /// a long-lived caller detects once and calls
    /// [`context_from`](Self::context_from).
    pub fn context(&self) -> ExecContext {
        self.context_from(MorselConfig::auto)
    }

    /// [`context`](Self::context) with the core detection supplied by the
    /// caller: `detected` stands in for [`MorselConfig::auto`] and is only
    /// called when no explicit [`threads`](Self::threads) replaces it; the
    /// morsel-size overrides apply on top either way.
    pub fn context_from(&self, detected: impl FnOnce() -> MorselConfig) -> ExecContext {
        let mut morsel = self
            .threads
            .map_or_else(detected, MorselConfig::with_threads);
        if let Some(rows) = self.morsel_rows {
            morsel = morsel.with_morsel_rows(rows);
        }
        if let Some(rows) = self.min_parallel_rows {
            morsel = morsel.with_min_parallel_rows(rows);
        }
        let ctx = ExecContext::with_morsel_config(morsel);
        match self.governor() {
            Some(gov) => ctx.with_governor(gov),
            None => ctx,
        }
    }
}

/// An execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The plan violated a structural invariant.
    InvalidPlan(PlanError),
    /// An operator exceeded [`ExecConfig::max_intermediate_rows`].
    BudgetExceeded {
        /// The operator that tripped the budget.
        operator: String,
        /// Rows it produced when aborted (the full output size).
        rows: usize,
        /// The configured budget.
        budget: usize,
    },
    /// The caller's [`CancelToken`] fired; the execution stopped at the
    /// next checkpoint with workers joined and buffers recycled.
    Cancelled,
    /// The [`ExecConfig::timeout`] deadline passed.
    DeadlineExceeded,
    /// Live materialised bytes exceeded [`ExecConfig::mem_budget`].
    MemoryBudgetExceeded {
        /// Bytes accounted when the budget tripped.
        used: usize,
        /// The configured budget in bytes.
        budget: usize,
        /// The materialisation site that tripped it.
        site: &'static str,
    },
    /// A morsel worker or breaker step panicked; the unwind was caught,
    /// the batch drained cleanly, and the context remains usable.
    WorkerPanicked {
        /// The checkpoint site whose work panicked.
        site: &'static str,
    },
    /// An aggregate could not be evaluated — `SUM`/`AVG` over a value
    /// outside the numeric promotion ladder (IRI, plain string, …).
    Aggregate(AggError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::InvalidPlan(e) => write!(f, "{e}"),
            ExecError::BudgetExceeded {
                operator,
                rows,
                budget,
            } => write!(
                f,
                "row budget exceeded: {operator} produced {rows} rows (budget {budget})"
            ),
            ExecError::Cancelled => write!(f, "{}", GovernorError::Cancelled),
            ExecError::DeadlineExceeded => write!(f, "{}", GovernorError::DeadlineExceeded),
            ExecError::MemoryBudgetExceeded { used, budget, site } => write!(
                f,
                "{}",
                GovernorError::MemoryBudgetExceeded {
                    used: *used,
                    budget: *budget,
                    site,
                }
            ),
            ExecError::WorkerPanicked { site } => {
                write!(f, "{}", GovernorError::WorkerPanicked { site })
            }
            ExecError::Aggregate(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<PlanError> for ExecError {
    fn from(e: PlanError) -> Self {
        ExecError::InvalidPlan(e)
    }
}

impl From<AggError> for ExecError {
    fn from(e: AggError) -> Self {
        ExecError::Aggregate(e)
    }
}

impl From<GovernorError> for ExecError {
    fn from(e: GovernorError) -> Self {
        match e {
            GovernorError::Cancelled => ExecError::Cancelled,
            GovernorError::DeadlineExceeded => ExecError::DeadlineExceeded,
            GovernorError::MemoryBudgetExceeded { used, budget, site } => {
                ExecError::MemoryBudgetExceeded { used, budget, site }
            }
            GovernorError::WorkerPanicked { site } => ExecError::WorkerPanicked { site },
        }
    }
}

/// Per-operator execution statistics, mirroring the plan tree.
///
/// This is the raw material for the paper's Figures 2–3 (plans annotated
/// with intermediate-result sizes) and Table 3 (plan costs computed from
/// those sizes).
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Operator label, e.g. `mergejoin(?a)` or `scan(pos) [tp2]`.
    pub label: String,
    /// Output cardinality.
    pub output_rows: usize,
    /// Wall-clock time spent in this operator alone (excluding children).
    pub nanos: u128,
    /// Child profiles (0 for scans, 1 for filter/project, 2 for joins).
    pub children: Vec<Profile>,
}

impl Profile {
    /// Total rows produced by all operators (a coarse memory-footprint
    /// measure the paper argues heuristics should minimise).
    pub fn total_intermediate_rows(&self) -> usize {
        self.output_rows
            + self
                .children
                .iter()
                .map(Profile::total_intermediate_rows)
                .sum::<usize>()
    }

    /// Walk the profile tree (pre-order).
    pub fn visit(&self, f: &mut impl FnMut(&Profile)) {
        f(self);
        for c in &self.children {
            c.visit(f);
        }
    }
}

/// The result of executing a plan.
#[derive(Debug, Clone)]
pub struct ExecOutput {
    /// The final binding table.
    pub table: BindingTable,
    /// Per-operator statistics.
    pub profile: Profile,
    /// Morsel/pool runtime counters for the whole execution.
    pub runtime: RuntimeMetrics,
    /// Snapshot of the computed-term overlay (aggregate outputs), indexed
    /// by `id -` [`COMPUTED_BASE`](crate::pool::COMPUTED_BASE). Empty for
    /// non-aggregate plans. Lets results outlive the [`ExecContext`] that
    /// interned them — resolve ids through [`ExecOutput::term`].
    pub computed: Vec<hsp_rdf::Term>,
}

impl ExecOutput {
    /// Resolve a result id to a term: dictionary ids through `ds`,
    /// computed (aggregate) ids through this execution's overlay snapshot.
    /// `None` for the unbound sentinel. A reference-count bump, never a
    /// string copy (see [`resolve_term`]).
    pub fn term(&self, ds: &Dataset, id: TermId) -> Option<hsp_rdf::Term> {
        resolve_term(ds, &self.computed, id)
    }

    /// The whole result in id form over `projection`: the projected
    /// columns move out of the table, the overlay rides along.
    pub fn into_id_rows(self, projection: &[Var]) -> IdRows {
        IdRows::new(self.table, projection, None, self.computed)
    }

    /// Decode the whole result into term-level rows over `projection` —
    /// [`IdRows::decode`] over a copy of the id columns, for callers that
    /// keep the output.
    pub fn decode_rows(&self, ds: &Dataset, projection: &[Var]) -> Vec<Vec<Option<hsp_rdf::Term>>> {
        IdRows::new(self.table.clone(), projection, None, self.computed.clone()).decode(ds.dict())
    }
}

/// Validate and execute `plan` against `ds`.
pub fn execute(
    plan: &PhysicalPlan,
    ds: &Dataset,
    config: &ExecConfig,
) -> Result<ExecOutput, ExecError> {
    execute_in(plan, ds, config, &config.context())
}

/// [`execute`] inside a caller-owned [`ExecContext`]: the caller's buffer
/// pool serves (and receives) this execution's columns and the runtime
/// counters accumulate across executions — how a session runs each
/// request on its shared worker pool, and how a caller reads
/// [`RuntimeMetrics::of`] the context afterwards.
/// The reported [`ExecOutput::runtime`] snapshots the context's cumulative
/// counters at completion.
///
/// The plan is lowered into morsel-driven pipelines ([`crate::pipeline`])
/// and only breaker boundaries materialise;
/// [`ExecStrategy::OperatorAtATime`] takes the operator-at-a-time tree walk
/// instead, which materialises every intermediate. Both paths produce
/// byte-identical tables, identical per-operator cardinalities, and trip
/// the row budget on the same plans.
pub fn execute_in(
    plan: &PhysicalPlan,
    ds: &Dataset,
    config: &ExecConfig,
    ctx: &ExecContext,
) -> Result<ExecOutput, ExecError> {
    plan.validate()?;
    let (table, profile) = match config.strategy {
        ExecStrategy::Pipelined => {
            crate::pipeline::lower(plan).run(ds, ctx, config.max_intermediate_rows)?
        }
        ExecStrategy::OperatorAtATime => run(plan, ds, config, ctx)?,
    };
    Ok(ExecOutput {
        table,
        profile,
        runtime: RuntimeMetrics::of(ctx),
        computed: ctx.computed_overlay(),
    })
}

/// The profile label of a plan node — shared by the operator-at-a-time
/// evaluator and the pipeline executor so their [`Profile`] trees are
/// indistinguishable.
pub(crate) fn plan_label(plan: &PhysicalPlan) -> String {
    match plan {
        PhysicalPlan::Scan {
            pattern_idx, order, ..
        } => format!("scan({}) [tp{pattern_idx}]", order.name()),
        PhysicalPlan::MergeJoin { var, .. } => format!("mergejoin({var})"),
        PhysicalPlan::HashJoin { vars, .. } => format!(
            "hashjoin({})",
            vars.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ),
        PhysicalPlan::LeftOuterHashJoin { vars, .. } => format!(
            "leftouterjoin({})",
            vars.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ),
        PhysicalPlan::CrossProduct { .. } => "crossproduct".into(),
        PhysicalPlan::Union { .. } => "union".into(),
        PhysicalPlan::Sort { var, .. } => format!("sort({var})"),
        PhysicalPlan::Filter { .. } => "filter".into(),
        PhysicalPlan::Project {
            projection,
            distinct,
            ..
        } => {
            let names: Vec<&str> = projection.iter().map(|(n, _)| n.as_str()).collect();
            if *distinct {
                format!("project-distinct({})", names.join(","))
            } else {
                format!("project({})", names.join(","))
            }
        }
        PhysicalPlan::HashAggregate {
            group_by,
            aggs,
            having,
            ..
        } => {
            let keys: Vec<String> = group_by.iter().map(|v| v.to_string()).collect();
            let specs: Vec<String> = aggs.iter().map(crate::aggregate::describe).collect();
            let mut label = format!("hashaggregate({}; {})", keys.join(","), specs.join(","));
            if having.is_some() {
                label.push_str("+having");
            }
            label
        }
        PhysicalPlan::OrderBy { keys, .. } => format!("orderby({} keys)", keys.len()),
        PhysicalPlan::Slice { offset, limit, .. } => match limit {
            Some(n) => format!("slice(offset={offset}, limit={n})"),
            None => format!("slice(offset={offset})"),
        },
    }
}

fn run(
    plan: &PhysicalPlan,
    ds: &Dataset,
    config: &ExecConfig,
    ctx: &ExecContext,
) -> Result<(BindingTable, Profile), ExecError> {
    // The oracle's cooperative checkpoint: once per operator, before its
    // kernel runs (the recursion visits every node, so a cancellation or
    // deadline surfaces within one operator of being requested). Panic
    // isolation mirrors the morsel workers': a checkpoint panic (the
    // `panic@operator` injected fault) converts to `WorkerPanicked`
    // instead of unwinding through the recursion.
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ctx.checkpoint("operator"))) {
        Ok(result) => result?,
        Err(payload) => match ctx.governor() {
            Some(gov) => return Err(gov.note_panic("operator").into()),
            // invariant: checkpoints only run fault hooks (the sole panic
            // source here) when a governor is attached.
            None => std::panic::resume_unwind(payload),
        },
    }
    // Recycle an already-materialised sibling before propagating a child
    // error, so failed executions leave the pool balanced and the memory
    // accounting at zero.
    // invariant: the join arms below wrap the first child's table in
    // `Some` and only `take` it here on the error path — on success the
    // later `expect("… retained on success")` unwraps always hold.
    fn try_second(
        result: Result<(BindingTable, Profile), ExecError>,
        first: &mut Option<BindingTable>,
        ctx: &ExecContext,
    ) -> Result<(BindingTable, Profile), ExecError> {
        if result.is_err() {
            if let Some(t) = first.take() {
                ctx.recycle(t);
            }
        }
        result
    }
    match plan {
        PhysicalPlan::Scan { pattern, order, .. } => {
            let start = Instant::now();
            let table = ops::scan(ctx, ds, pattern, *order);
            finish(table, plan_label(plan), start, Vec::new(), config, ctx)
        }
        PhysicalPlan::MergeJoin { left, right, var } => {
            let (lt, lp) = run(left, ds, config, ctx)?;
            let mut lt = Some(lt);
            let (rt, rp) = try_second(run(right, ds, config, ctx), &mut lt, ctx)?;
            let lt = lt.expect("left retained on success");
            let start = Instant::now();
            let table = ops::merge_join(ctx, &lt, &rt, *var);
            ctx.recycle(lt);
            ctx.recycle(rt);
            finish(table, plan_label(plan), start, vec![lp, rp], config, ctx)
        }
        PhysicalPlan::HashJoin { left, right, vars } => {
            // Build (right) side first — the order the pipeline executor
            // runs its steps in, so both trip a budget on the same node.
            let (rt, rp) = run(right, ds, config, ctx)?;
            let mut rt = Some(rt);
            let (lt, lp) = try_second(run(left, ds, config, ctx), &mut rt, ctx)?;
            let rt = rt.expect("right retained on success");
            let start = Instant::now();
            let table = ops::hash_join(ctx, &lt, &rt, vars);
            ctx.recycle(lt);
            ctx.recycle(rt);
            finish(table, plan_label(plan), start, vec![lp, rp], config, ctx)
        }
        PhysicalPlan::LeftOuterHashJoin { left, right, vars } => {
            let (rt, rp) = run(right, ds, config, ctx)?;
            let mut rt = Some(rt);
            let (lt, lp) = try_second(run(left, ds, config, ctx), &mut rt, ctx)?;
            let rt = rt.expect("right retained on success");
            // The keyless form pairs like a cross product.
            let (lt, rt) = if vars.is_empty() {
                admit_product(plan, lt, rt, true, config, ctx)?
            } else {
                (lt, rt)
            };
            let start = Instant::now();
            let table = ops::left_outer_hash_join(ctx, &lt, &rt, vars);
            ctx.recycle(lt);
            ctx.recycle(rt);
            finish(table, plan_label(plan), start, vec![lp, rp], config, ctx)
        }
        PhysicalPlan::CrossProduct { left, right } => {
            let (lt, lp) = run(left, ds, config, ctx)?;
            let mut lt = Some(lt);
            let (rt, rp) = try_second(run(right, ds, config, ctx), &mut lt, ctx)?;
            let lt = lt.expect("left retained on success");
            let (lt, rt) = admit_product(plan, lt, rt, false, config, ctx)?;
            let start = Instant::now();
            let table = ops::cross_product(ctx, &lt, &rt);
            ctx.recycle(lt);
            ctx.recycle(rt);
            finish(table, plan_label(plan), start, vec![lp, rp], config, ctx)
        }
        PhysicalPlan::Union { left, right } => {
            let (lt, lp) = run(left, ds, config, ctx)?;
            let mut lt = Some(lt);
            let (rt, rp) = try_second(run(right, ds, config, ctx), &mut lt, ctx)?;
            let lt = lt.expect("left retained on success");
            let start = Instant::now();
            let table = ops::union_all(ctx, &lt, &rt);
            ctx.recycle(lt);
            ctx.recycle(rt);
            finish(table, plan_label(plan), start, vec![lp, rp], config, ctx)
        }
        PhysicalPlan::Sort { input, var } => {
            let (it, ip) = run(input, ds, config, ctx)?;
            let start = Instant::now();
            let table = ops::sort_by(ctx, &it, *var);
            ctx.recycle(it);
            finish(table, plan_label(plan), start, vec![ip], config, ctx)
        }
        PhysicalPlan::Filter { input, expr } => {
            let (it, ip) = run(input, ds, config, ctx)?;
            let start = Instant::now();
            let table = ops::filter(ctx, ds, &it, expr);
            ctx.recycle(it);
            finish(table, plan_label(plan), start, vec![ip], config, ctx)
        }
        PhysicalPlan::Project {
            input,
            projection,
            distinct,
        } => {
            let (it, ip) = run(input, ds, config, ctx)?;
            let start = Instant::now();
            let table = ops::project(ctx, &it, projection, *distinct);
            ctx.recycle(it);
            finish(table, plan_label(plan), start, vec![ip], config, ctx)
        }
        PhysicalPlan::HashAggregate {
            input,
            group_by,
            aggs,
            having,
        } => {
            let (it, ip) = run(input, ds, config, ctx)?;
            let start = Instant::now();
            let result =
                crate::reference::hash_aggregate(ctx, ds, &it, group_by, aggs, having.as_ref());
            ctx.recycle(it);
            let table = result?;
            finish(table, plan_label(plan), start, vec![ip], config, ctx)
        }
        PhysicalPlan::OrderBy { input, keys } => {
            let (it, ip) = run(input, ds, config, ctx)?;
            let start = Instant::now();
            let table = ops::order_by(ctx, ds, &it, keys);
            ctx.recycle(it);
            finish(table, plan_label(plan), start, vec![ip], config, ctx)
        }
        PhysicalPlan::Slice {
            input,
            offset,
            limit,
        } => {
            let (it, ip) = run(input, ds, config, ctx)?;
            let start = Instant::now();
            let table = ops::slice(ctx, &it, *offset, *limit);
            ctx.recycle(it);
            finish(table, plan_label(plan), start, vec![ip], config, ctx)
        }
    }
}

/// Check the budgets *before* materialising a pairing of `lt` and `rt`
/// (a cross product, or with `outer` the keyless left-outer join), whose
/// exact size is known up front: the guard that makes Cartesian plans fail
/// fast instead of exhausting memory. Hands the inputs back when the
/// pairing fits, recycles them when it is refused.
fn admit_product(
    plan: &PhysicalPlan,
    lt: BindingTable,
    rt: BindingTable,
    outer: bool,
    config: &ExecConfig,
    ctx: &ExecContext,
) -> Result<(BindingTable, BindingTable), ExecError> {
    let rows = ops::product_rows(lt.len(), rt.len(), outer);
    let refusal = match config.max_intermediate_rows {
        Some(budget) if rows > budget => Some(ExecError::BudgetExceeded {
            operator: plan_label(plan),
            rows,
            budget,
        }),
        _ => {
            let out_bytes = rows
                .saturating_mul(lt.vars().len() + rt.vars().len())
                .saturating_mul(std::mem::size_of::<TermId>());
            ctx.reserve_check(out_bytes, "crossproduct")
                .err()
                .map(ExecError::from)
        }
    };
    match refusal {
        None => Ok((lt, rt)),
        Some(e) => {
            ctx.recycle(lt);
            ctx.recycle(rt);
            Err(e)
        }
    }
}

fn finish(
    table: BindingTable,
    label: String,
    start: Instant,
    children: Vec<Profile>,
    config: &ExecConfig,
    ctx: &ExecContext,
) -> Result<(BindingTable, Profile), ExecError> {
    if let Some(budget) = config.max_intermediate_rows {
        if table.len() > budget {
            let rows = table.len();
            // Not yet charged against the memory budget: plain pool recycle.
            ctx.pool.recycle(table);
            return Err(ExecError::BudgetExceeded {
                operator: label,
                rows,
                budget,
            });
        }
    }
    // A kernel that bailed out early on `governor_poll` (the cross
    // product) returns an empty placeholder table — surface the trip and
    // drop the placeholder (its columns never came from the pool).
    if let Some(e) = ctx.governor().and_then(QueryGovernor::trip_error) {
        drop(table);
        return Err(e.into());
    }
    // Account the freshly materialised output; its matching release is the
    // `ctx.recycle` call of whichever parent operator consumes it.
    if let Err(e) = ctx.charge_table(&table, "operator") {
        ctx.recycle(table);
        return Err(e.into());
    }
    let profile = Profile {
        label,
        output_rows: table.len(),
        nanos: start.elapsed().as_nanos(),
        children,
    };
    Ok((table, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsp_rdf::Term;
    use hsp_sparql::{TermOrVar, TriplePattern, Var};
    use hsp_store::Order;

    fn dataset() -> Dataset {
        Dataset::from_ntriples(
            r#"<http://e/a1> <http://e/p> <http://e/b1> .
<http://e/a1> <http://e/p> <http://e/b2> .
<http://e/a2> <http://e/p> <http://e/b1> .
<http://e/a1> <http://e/q> "5" .
<http://e/a2> <http://e/q> "7" .
<http://e/b1> <http://e/r> "x" .
"#,
        )
        .unwrap()
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

    #[test]
    fn context_from_detects_only_without_an_explicit_thread_count() {
        let detected = || MorselConfig::with_threads(6).with_min_parallel_rows(7);
        let ctx = ExecConfig::unlimited()
            .with_morsel_rows(5)
            .context_from(detected);
        assert_eq!(ctx.morsel.threads(), 6);
        assert_eq!(ctx.morsel.morsel_rows(), 5);
        // 7 rows clear the detected threshold: two 5-row morsels.
        assert_eq!(ctx.morsel.workers_for(6), 1);
        assert_eq!(ctx.morsel.workers_for(7), 2);
        let ctx = ExecConfig::unlimited()
            .with_threads(3)
            .context_from(|| unreachable!("an explicit count needs no detection"));
        assert_eq!(ctx.morsel.threads(), 3);
    }

    #[test]
    fn executes_merge_join_plan_with_profile() {
        let ds = dataset();
        let plan = PhysicalPlan::MergeJoin {
            left: Box::new(scan(0, vv(0), cv("p"), vv(1), Order::Pso)),
            right: Box::new(scan(1, vv(0), cv("q"), vv(2), Order::Pso)),
            var: Var(0),
        };
        let out = execute(&plan, &ds, &ExecConfig::unlimited()).unwrap();
        assert_eq!(out.table.len(), 3);
        assert_eq!(out.profile.output_rows, 3);
        assert_eq!(out.profile.children.len(), 2);
        assert!(out.profile.label.starts_with("mergejoin"));
        assert_eq!(out.profile.children[0].output_rows, 3);
        assert_eq!(out.profile.children[1].output_rows, 2);
        assert_eq!(out.profile.total_intermediate_rows(), 3 + 3 + 2);
    }

    #[test]
    fn invalid_plan_is_rejected_before_running() {
        let ds = dataset();
        // Merge join whose right side is sorted by the wrong variable.
        let plan = PhysicalPlan::MergeJoin {
            left: Box::new(scan(0, vv(0), cv("p"), vv(1), Order::Pso)),
            right: Box::new(scan(1, vv(0), cv("q"), vv(2), Order::Pos)),
            var: Var(0),
        };
        let err = execute(&plan, &ds, &ExecConfig::unlimited()).unwrap_err();
        assert!(matches!(err, ExecError::InvalidPlan(_)));
    }

    #[test]
    fn budget_trips_on_cross_product_before_materialising() {
        let ds = dataset();
        let plan = PhysicalPlan::CrossProduct {
            left: Box::new(scan(0, vv(0), cv("p"), vv(1), Order::Pso)),
            right: Box::new(scan(1, vv(2), cv("q"), vv(3), Order::Pso)),
        };
        let err = execute(&plan, &ds, &ExecConfig::with_row_budget(5)).unwrap_err();
        match err {
            ExecError::BudgetExceeded { rows, budget, .. } => {
                assert_eq!(rows, 6);
                assert_eq!(budget, 5);
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn budget_allows_small_results() {
        let ds = dataset();
        let plan = scan(0, vv(0), cv("q"), vv(1), Order::Pso);
        let out = execute(&plan, &ds, &ExecConfig::with_row_budget(100)).unwrap();
        assert_eq!(out.table.len(), 2);
    }

    #[test]
    fn project_distinct_at_root() {
        let ds = dataset();
        let plan = PhysicalPlan::Project {
            input: Box::new(scan(0, vv(0), cv("p"), vv(1), Order::Pso)),
            projection: vec![("s".into(), Var(0))],
            distinct: true,
        };
        let out = execute(&plan, &ds, &ExecConfig::unlimited()).unwrap();
        assert_eq!(out.table.len(), 2);
        assert!(out.profile.label.contains("distinct"));
    }

    #[test]
    fn forced_threads_give_identical_results_and_report_runtime() {
        let ds = dataset();
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(scan(0, vv(0), cv("p"), vv(1), Order::Pso)),
            right: Box::new(scan(1, vv(0), cv("q"), vv(2), Order::Pso)),
            vars: vec![Var(0)],
        };
        let sequential = execute(&plan, &ds, &ExecConfig::unlimited().with_threads(1)).unwrap();
        let parallel = execute(&plan, &ds, &ExecConfig::unlimited().with_threads(3)).unwrap();
        assert_eq!(parallel.table, sequential.table);
        assert_eq!(sequential.runtime.threads, 1);
        assert_eq!(parallel.runtime.threads, 3);
        // This input is far below the morsel threshold, so even the forced
        // budget runs sequentially — but the pool still recycles the two
        // scan intermediates into the join's output columns.
        assert!(sequential.runtime.pool_recycled > 0);
        assert!(sequential.runtime.pool_misses > 0);
    }

    #[test]
    fn pool_recycling_preserves_results_across_a_deep_plan() {
        // project(filter(join(scan, scan))): every operator consumes its
        // child, so the pool sees several recycle/checkout cycles.
        use hsp_sparql::{CmpOp, FilterExpr, Operand};
        let ds = dataset();
        let plan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::MergeJoin {
                    left: Box::new(scan(0, vv(0), cv("p"), vv(1), Order::Pso)),
                    right: Box::new(scan(1, vv(0), cv("q"), vv(2), Order::Pso)),
                    var: Var(0),
                }),
                expr: FilterExpr::Cmp {
                    op: CmpOp::Gt,
                    lhs: Operand::Var(Var(2)),
                    rhs: Operand::Const(Term::literal("4")),
                },
            }),
            projection: vec![("s".into(), Var(0)), ("o".into(), Var(1))],
            distinct: false,
        };
        let out = execute(&plan, &ds, &ExecConfig::unlimited()).unwrap();
        assert_eq!(out.table.len(), 3);
        assert!(
            out.runtime.pool_hits > 0,
            "deep plan should hit the pool: {:?}",
            out.runtime
        );
    }

    #[test]
    fn filter_node_runs() {
        use hsp_sparql::{CmpOp, FilterExpr, Operand};
        let ds = dataset();
        let plan = PhysicalPlan::Filter {
            input: Box::new(scan(0, vv(0), cv("q"), vv(1), Order::Pso)),
            expr: FilterExpr::Cmp {
                op: CmpOp::Lt,
                lhs: Operand::Var(Var(1)),
                rhs: Operand::Const(Term::literal("6")),
            },
        };
        let out = execute(&plan, &ds, &ExecConfig::unlimited()).unwrap();
        assert_eq!(out.table.len(), 1);
    }
}
