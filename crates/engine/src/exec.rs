//! Plan evaluation with per-operator profiling and the morsel runtime
//! layer: [`execute`] lowers every plan into pipelines
//! ([`crate::pipeline`]); the operator-at-a-time tree walk in this module
//! is the tests' reference, run only when
//! [`ExecStrategy::OperatorAtATime`] names it. Every execution owns an
//! [`ExecContext`] whose thread budget drives the morsel-parallel
//! pipelines and whose governor, if any, accounts every materialised
//! intermediate.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

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
    /// pipeline executor; nothing selects it implicitly.
    OperatorAtATime,
}

/// Execution configuration.
#[derive(Debug, Clone, Default)]
pub struct ExecConfig {
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
    /// abort. A Cartesian product (the SQL baseline's SP4a plan, which the
    /// paper marks "XXX") is refused before it materialises.
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
    /// budget (and one governor) for every operator of a query.
    pub fn context(&self) -> ExecContext {
        self.context_with(self.morsel())
    }

    /// The morsel config [`context`](Self::context) builds its context
    /// around: the thread budget ([`MorselConfig::auto`] unless
    /// [`threads`](Self::threads) replaces it) under the morsel-size
    /// overrides.
    pub fn morsel(&self) -> MorselConfig {
        let mut morsel = self
            .threads
            .map_or_else(MorselConfig::auto, MorselConfig::with_threads);
        if let Some(rows) = self.morsel_rows {
            morsel = morsel.with_morsel_rows(rows);
        }
        if let Some(rows) = self.min_parallel_rows {
            morsel = morsel.with_min_parallel_rows(rows);
        }
        morsel
    }

    /// The execution context this configuration asks for, around a morsel
    /// config the caller built (see [`morsel`](Self::morsel)).
    pub fn context_with(&self, morsel: MorselConfig) -> ExecContext {
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
    /// The caller's [`CancelToken`] fired; the execution stopped at the
    /// next checkpoint with workers joined and its memory account at zero.
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

/// Per-operator execution statistics, mirroring the plan tree: each
/// operator's label and exact output cardinality. (No per-operator timing:
/// a clock read costs about as much as a one-row operator.)
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
    /// Morsel runtime counters for the whole execution.
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

/// [`execute`] inside a caller-owned [`ExecContext`]: the caller's thread
/// budget and governor apply, and the runtime counters accumulate across
/// executions — how a session runs each
/// request on its shared worker pool, and how a caller reads
/// [`RuntimeMetrics::of`] the context afterwards.
/// The reported [`ExecOutput::runtime`] snapshots the context's cumulative
/// counters at completion.
///
/// The plan is lowered into morsel-driven pipelines ([`crate::pipeline`])
/// and only breaker boundaries materialise;
/// [`ExecStrategy::OperatorAtATime`] takes the operator-at-a-time tree walk
/// instead, which materialises every intermediate. Both paths produce
/// byte-identical tables and identical per-operator cardinalities.
pub fn execute_in(
    plan: &PhysicalPlan,
    ds: &Dataset,
    config: &ExecConfig,
    ctx: &ExecContext,
) -> Result<ExecOutput, ExecError> {
    plan.validate()?;
    let (table, profile) = match config.strategy {
        ExecStrategy::Pipelined => crate::pipeline::lower(plan).run(ds, ctx)?,
        ExecStrategy::OperatorAtATime => run(plan, ds, ctx)?,
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
/// indistinguishable. Written into one `String`: a label costs one
/// allocation, whatever it lists.
pub(crate) fn plan_label(plan: &PhysicalPlan) -> String {
    use std::fmt::Write as _;
    /// `items` separated by commas.
    fn list<T>(out: &mut String, items: &[T], mut item: impl FnMut(&mut String, &T)) {
        for (i, x) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item(out, x);
        }
    }
    let var = |out: &mut String, v: &Var| {
        let _ = write!(out, "{v}");
    };
    let mut out = String::with_capacity(32);
    match plan {
        PhysicalPlan::Scan {
            pattern_idx, order, ..
        } => {
            let _ = write!(out, "scan({}) [tp{pattern_idx}]", order.name());
        }
        PhysicalPlan::MergeJoin { var, .. } => {
            let _ = write!(out, "mergejoin({var})");
        }
        PhysicalPlan::HashJoin { vars, .. } => {
            out.push_str("hashjoin(");
            list(&mut out, vars, var);
            out.push(')');
        }
        PhysicalPlan::LeftOuterHashJoin { vars, .. } => {
            out.push_str("leftouterjoin(");
            list(&mut out, vars, var);
            out.push(')');
        }
        PhysicalPlan::CrossProduct { .. } => out.push_str("crossproduct"),
        PhysicalPlan::Union { .. } => out.push_str("union"),
        PhysicalPlan::Sort { var, .. } => {
            let _ = write!(out, "sort({var})");
        }
        PhysicalPlan::Filter { .. } => out.push_str("filter"),
        PhysicalPlan::Bind { bindings, .. } => {
            out.push_str("bind(");
            list(&mut out, bindings, |out, (v, _)| var(out, v));
            out.push(')');
        }
        PhysicalPlan::Project {
            projection,
            distinct,
            ..
        } => {
            out.push_str(if *distinct {
                "project-distinct("
            } else {
                "project("
            });
            list(&mut out, projection, |out, (name, _)| out.push_str(name));
            out.push(')');
        }
        PhysicalPlan::HashAggregate {
            group_by,
            aggs,
            having,
            ..
        } => {
            out.push_str("hashaggregate(");
            list(&mut out, group_by, var);
            out.push_str("; ");
            list(&mut out, aggs, |out, a| {
                out.push_str(&crate::aggregate::describe(a));
            });
            out.push(')');
            if having.is_some() {
                out.push_str("+having");
            }
        }
        PhysicalPlan::OrderBy { keys, .. } => {
            let _ = write!(out, "orderby({} keys)", keys.len());
        }
        PhysicalPlan::Slice { offset, limit, .. } => {
            let _ = match limit {
                Some(n) => write!(out, "slice(offset={offset}, limit={n})"),
                None => write!(out, "slice(offset={offset})"),
            };
        }
    }
    out
}

fn run(
    plan: &PhysicalPlan,
    ds: &Dataset,
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
    // Release an already-materialised sibling before propagating a child
    // error, so failed executions leave the memory accounting at zero.
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
                ctx.release(t);
            }
        }
        result
    }
    match plan {
        PhysicalPlan::Scan { pattern, order, .. } => {
            let table = ops::scan(ctx, ds, pattern, *order);
            finish(table, plan_label(plan), Vec::new(), ctx)
        }
        PhysicalPlan::MergeJoin { left, right, var } => {
            let (lt, lp) = run(left, ds, ctx)?;
            let mut lt = Some(lt);
            let (rt, rp) = try_second(run(right, ds, ctx), &mut lt, ctx)?;
            let lt = lt.expect("left retained on success");
            let table = ops::merge_join(&lt, &rt, *var);
            ctx.release(lt);
            ctx.release(rt);
            finish(table, plan_label(plan), vec![lp, rp], ctx)
        }
        PhysicalPlan::HashJoin { left, right, vars } => {
            // Build (right) side first — the order the pipeline executor
            // runs its steps in.
            let (rt, rp) = run(right, ds, ctx)?;
            let mut rt = Some(rt);
            let (lt, lp) = try_second(run(left, ds, ctx), &mut rt, ctx)?;
            let rt = rt.expect("right retained on success");
            let table = ops::hash_join(&lt, &rt, vars);
            ctx.release(lt);
            ctx.release(rt);
            finish(table, plan_label(plan), vec![lp, rp], ctx)
        }
        PhysicalPlan::LeftOuterHashJoin { left, right, vars } => {
            let (rt, rp) = run(right, ds, ctx)?;
            let mut rt = Some(rt);
            let (lt, lp) = try_second(run(left, ds, ctx), &mut rt, ctx)?;
            let rt = rt.expect("right retained on success");
            // The keyless form pairs like a cross product.
            let (lt, rt) = if vars.is_empty() {
                admit_product(lt, rt, true, ctx)?
            } else {
                (lt, rt)
            };
            let table = ops::left_outer_hash_join(ctx, &lt, &rt, vars);
            ctx.release(lt);
            ctx.release(rt);
            finish(table, plan_label(plan), vec![lp, rp], ctx)
        }
        PhysicalPlan::CrossProduct { left, right } => {
            let (lt, lp) = run(left, ds, ctx)?;
            let mut lt = Some(lt);
            let (rt, rp) = try_second(run(right, ds, ctx), &mut lt, ctx)?;
            let lt = lt.expect("left retained on success");
            let (lt, rt) = admit_product(lt, rt, false, ctx)?;
            let table = ops::cross_product(ctx, &lt, &rt);
            ctx.release(lt);
            ctx.release(rt);
            finish(table, plan_label(plan), vec![lp, rp], ctx)
        }
        PhysicalPlan::Union { left, right } => {
            let (lt, lp) = run(left, ds, ctx)?;
            let mut lt = Some(lt);
            let (rt, rp) = try_second(run(right, ds, ctx), &mut lt, ctx)?;
            let lt = lt.expect("left retained on success");
            let table = ops::union_all(&lt, &rt);
            ctx.release(lt);
            ctx.release(rt);
            finish(table, plan_label(plan), vec![lp, rp], ctx)
        }
        PhysicalPlan::Sort { input, var } => {
            let (it, ip) = run(input, ds, ctx)?;
            let table = ops::sort_by(&it, *var);
            ctx.release(it);
            finish(table, plan_label(plan), vec![ip], ctx)
        }
        PhysicalPlan::Filter { input, expr } => {
            let (it, ip) = run(input, ds, ctx)?;
            let table = ops::filter(ds, &it, expr);
            ctx.release(it);
            finish(table, plan_label(plan), vec![ip], ctx)
        }
        PhysicalPlan::Bind { input, bindings } => {
            let (it, ip) = run(input, ds, ctx)?;
            let table = ops::bind(ds, &it, bindings);
            ctx.release(it);
            finish(table, plan_label(plan), vec![ip], ctx)
        }
        PhysicalPlan::Project {
            input,
            projection,
            distinct,
        } => {
            let (it, ip) = run(input, ds, ctx)?;
            let table = ops::project(&it, projection, *distinct);
            ctx.release(it);
            finish(table, plan_label(plan), vec![ip], ctx)
        }
        PhysicalPlan::HashAggregate {
            input,
            group_by,
            aggs,
            having,
        } => {
            let (it, ip) = run(input, ds, ctx)?;
            let result =
                crate::reference::hash_aggregate(ctx, ds, &it, group_by, aggs, having.as_ref());
            ctx.release(it);
            let table = result?;
            finish(table, plan_label(plan), vec![ip], ctx)
        }
        PhysicalPlan::OrderBy { input, keys } => {
            let (it, ip) = run(input, ds, ctx)?;
            let table = ops::order_by(ctx, ds, &it, keys);
            ctx.release(it);
            finish(table, plan_label(plan), vec![ip], ctx)
        }
        PhysicalPlan::Slice {
            input,
            offset,
            limit,
        } => {
            let (it, ip) = run(input, ds, ctx)?;
            let table = ops::slice(&it, *offset, *limit);
            ctx.release(it);
            finish(table, plan_label(plan), vec![ip], ctx)
        }
    }
}

/// Check the memory budget *before* materialising a pairing of `lt` and
/// `rt` (a cross product, or with `outer` the keyless left-outer join),
/// whose exact size is known up front: the guard that makes Cartesian
/// plans fail fast instead of exhausting memory. Hands the inputs back
/// when the pairing fits, releases them when it is refused.
fn admit_product(
    lt: BindingTable,
    rt: BindingTable,
    outer: bool,
    ctx: &ExecContext,
) -> Result<(BindingTable, BindingTable), ExecError> {
    let out_bytes = ops::product_rows(lt.len(), rt.len(), outer)
        .saturating_mul(lt.vars().len() + rt.vars().len())
        .saturating_mul(std::mem::size_of::<TermId>());
    match ctx.reserve_check(out_bytes, "crossproduct") {
        Ok(()) => Ok((lt, rt)),
        Err(e) => {
            ctx.release(lt);
            ctx.release(rt);
            Err(e.into())
        }
    }
}

fn finish(
    table: BindingTable,
    label: String,
    children: Vec<Profile>,
    ctx: &ExecContext,
) -> Result<(BindingTable, Profile), ExecError> {
    // A kernel that bailed out early on `governor_poll` (the cross
    // product) returns an empty placeholder table — surface the trip and
    // drop the placeholder (it was never charged).
    if let Some(e) = ctx.governor().and_then(QueryGovernor::trip_error) {
        drop(table);
        return Err(e.into());
    }
    // Account the freshly materialised output; its matching release is the
    // `ctx.release` call of whichever parent operator consumes it.
    if let Err(e) = ctx.charge_table(&table, "operator") {
        ctx.release(table);
        return Err(e.into());
    }
    let profile = Profile {
        label,
        output_rows: table.len(),
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
    fn morsel_overrides_apply_over_the_thread_budget() {
        let morsel = ExecConfig::unlimited()
            .with_threads(3)
            .with_morsel_rows(5)
            .with_min_parallel_rows(7)
            .morsel();
        assert_eq!(morsel.threads(), 3);
        assert_eq!(morsel.morsel_rows(), 5);
        // 7 rows clear the threshold: two 5-row morsels.
        assert_eq!(morsel.workers_for(6), 1);
        assert_eq!(morsel.workers_for(7), 2);
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
    fn memory_budget_refuses_a_cross_product_before_materialising() {
        let ds = dataset();
        let plan = PhysicalPlan::CrossProduct {
            left: Box::new(scan(0, vv(0), cv("p"), vv(1), Order::Pso)),
            right: Box::new(scan(1, vv(2), cv("q"), vv(3), Order::Pso)),
        };
        // 3 × 2 inputs pair into 6 rows of 4 ids: 96 bytes asked on top
        // of the inputs' 24 + 16.
        for strategy in [ExecStrategy::Pipelined, ExecStrategy::OperatorAtATime] {
            let config = ExecConfig::unlimited()
                .with_strategy(strategy)
                .with_mem_budget(100);
            let ctx = config.context();
            match execute_in(&plan, &ds, &config, &ctx).unwrap_err() {
                ExecError::MemoryBudgetExceeded { used, budget, site } => {
                    assert_eq!((used, budget, site), (136, 100, "crossproduct"));
                }
                other => panic!("{strategy:?}: unexpected error: {other}"),
            }
            assert_eq!(ctx.governor().unwrap().mem_used(), 0);
            let config = config.with_mem_budget(136);
            assert_eq!(execute(&plan, &ds, &config).unwrap().table.len(), 6);
        }
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
    }

    #[test]
    fn deep_plan_preserves_results() {
        // project(filter(join(scan, scan))): every operator consumes its
        // child.
        use hsp_sparql::{CmpOp, Expr, FilterExpr};
        let ds = dataset();
        let plan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::MergeJoin {
                    left: Box::new(scan(0, vv(0), cv("p"), vv(1), Order::Pso)),
                    right: Box::new(scan(1, vv(0), cv("q"), vv(2), Order::Pso)),
                    var: Var(0),
                }),
                expr: FilterExpr::Complex(Expr::cmp(
                    CmpOp::Gt,
                    Expr::Var(Var(2)),
                    Expr::Const(Term::literal("4")),
                )),
            }),
            projection: vec![("s".into(), Var(0)), ("o".into(), Var(1))],
            distinct: false,
        };
        let out = execute(&plan, &ds, &ExecConfig::unlimited()).unwrap();
        assert_eq!(out.table.len(), 3);
    }

    #[test]
    fn filter_node_runs() {
        use hsp_sparql::{CmpOp, Expr, FilterExpr};
        let ds = dataset();
        let plan = PhysicalPlan::Filter {
            input: Box::new(scan(0, vv(0), cv("q"), vv(1), Order::Pso)),
            expr: FilterExpr::Complex(Expr::cmp(
                CmpOp::Lt,
                Expr::Var(Var(1)),
                Expr::Const(Term::literal("6")),
            )),
        };
        let out = execute(&plan, &ds, &ExecConfig::unlimited()).unwrap();
        assert_eq!(out.table.len(), 1);
    }
}
