//! Pipeline-at-a-time execution: lower a [`PhysicalPlan`] into a DAG of
//! morsel-driven **pipelines** separated by explicit **breakers**, then run
//! the pipelines in dependency order.
//!
//! The operator-at-a-time evaluator ([`crate::exec`]'s tree walk, retained
//! as the tests' byte-identity oracle) fully materialises a
//! [`BindingTable`] between every pair of operators — the MonetDB-style
//! model the source paper ran on. Morsel-driven pipelining (Leis et al.)
//! replaces it with *lower-then-run*:
//!
//! * **Lowering** ([`lower`]) cuts the plan tree into maximal breaker-free
//!   operator chains. A *pipeline* is `source → stage* → sink`, where the
//!   source is a scan (or a breaker's materialised output), the stages are
//!   the streaming operators — FILTER, hash-join *probes* (inner **and
//!   left-outer**: [`BuildTable::probe_range_outer`] emits the
//!   unmatched-row sentinel per probe row, so morsel stitching is
//!   unchanged), and plain projection (a pure layout change folded into
//!   the stage chain and ultimately the sink gather) — and the sink is
//!   the single materialisation point. Everything that must see its whole
//!   input before emitting a row is a *breaker* and becomes its own step:
//!   the hash-join **build** side, merge join (both sorted inputs), cross
//!   product (and the keyless left-outer join, which pairs like one),
//!   UNION, the sort order-enforcer, ORDER BY, grouped aggregation
//!   (the morsel-parallel two-phase γ of [`crate::aggregate`]), and
//!   LIMIT/OFFSET. DISTINCT, once a breaker, now **streams**: each
//!   morsel dedups its projected rows locally, and the sink finishes
//!   with one global first-occurrence pass over the gathered output —
//!   order-preserving, so the result is byte-identical to the global
//!   dedup (a DISTINCT that is *not* the top of its chain still
//!   materialises, since later stages must see the deduped rows).
//! * **Breaker hand-off**: a breaker whose output slot is consumed by
//!   exactly one pipeline *source* is *handed off* — the materialised
//!   table moves straight into that pipeline (counted as
//!   [`RuntimeMetrics::breaker_handoffs`](crate::metrics::RuntimeMetrics::breaker_handoffs)),
//!   and when no stage drops a row the sink **moves** the handed columns
//!   into the output instead of gathering copies, recycling the
//!   unprojected ones through the [`crate::pool::BufferPool`].
//! * **Execution** ([`Program::run`]) walks the steps in dependency order
//!   (lowering emits them topologically). A pipeline pushes its source
//!   through the whole stage chain **morsel at a time** on the
//!   [`crate::morsel`] pool: each worker carries only thread-local `u32`
//!   index vectors — one per *side* (the source plus each probed build
//!   table) — through the stages, so the rows between operators are never
//!   gathered into columns. Per-morsel index vectors stitch back in morsel
//!   order (the same discipline as every parallel kernel, so the result is
//!   byte-identical to the oracle), and the sink gathers each output
//!   column exactly once through the [`crate::pool::BufferPool`].
//!
//! What the oracle would have materialised between the pipeline's
//! operators is reported as
//! [`RuntimeMetrics::pipeline_rows_avoided`](crate::metrics::RuntimeMetrics::pipeline_rows_avoided);
//! per-operator output cardinalities are still counted exactly, so the
//! produced [`Profile`] matches the oracle's row for row.
//!
//! Those exact cardinalities are also what the row budget
//! ([`ExecConfig::max_intermediate_rows`](crate::exec::ExecConfig::max_intermediate_rows))
//! is enforced on: after every step the nodes it finished are compared
//! with the budget, and a Cartesian product is refused before it
//! materialises — the same plans trip as under the oracle.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use hsp_rdf::{IdTriple, TermId};
use hsp_sparql::{AggSpec, FilterExpr, TriplePattern, Var};
use hsp_store::{Dataset, Order, OrderScan, StorageBackend};

use crate::binding::BindingTable;
use crate::exec::{plan_label, ExecError, Profile};
use crate::govern::QueryGovernor;
use crate::kernel::BuildTable;
use crate::morsel::{self, MorselRun};
use crate::ops::{self, RowValues};
use crate::plan::{scan_sort_var, PhysicalPlan};
use crate::pool::ExecContext;

/// A plan node's identity: its pre-order position in the plan tree.
type NodeId = usize;

/// A materialised table produced by one step (a breaker output or a
/// pipeline sink).
type SlotId = usize;

/// The lowered form of one plan: steps in dependency order, each filling
/// one slot. Build with [`lower`], run with [`Program::run`], render with
/// [`Program::render`].
pub struct Program<'p> {
    plan: &'p PhysicalPlan,
    steps: Vec<Step<'p>>,
    slot_count: usize,
    node_count: usize,
    root: SlotId,
    /// `handoff[s]` — slot `s` has exactly one consumer and it is a
    /// pipeline's *source*: the producing step's table is handed straight
    /// to that pipeline instead of round-tripping through the slot array's
    /// generic path (enabling the sink's column-move fast path).
    handoff: Vec<bool>,
    /// Plan-node pre-order ids, keyed by node address (stable: the plan is
    /// borrowed for `'p`).
    ids: HashMap<*const PhysicalPlan, NodeId>,
}

enum Step<'p> {
    /// A breaker: run one materialising operator over already-filled slots.
    Breaker {
        node: NodeId,
        out: SlotId,
        op: BreakerOp<'p>,
    },
    /// A streaming pipeline: source → stages → sink.
    Pipeline(Pipeline<'p>),
}

enum BreakerOp<'p> {
    /// A scan feeding a breaker directly (or a zero-variable scan, whose
    /// unit rows have no columns to stream).
    Scan {
        pattern: &'p TriplePattern,
        order: Order,
    },
    MergeJoin {
        left: SlotId,
        right: SlotId,
        var: Var,
    },
    /// Every left row paired with every right row; with `outer` (the
    /// keyless left-outer join) a left row survives an empty right side.
    CrossProduct {
        left: SlotId,
        right: SlotId,
        outer: bool,
    },
    Union {
        left: SlotId,
        right: SlotId,
    },
    Sort {
        input: SlotId,
        var: Var,
    },
    Project {
        input: SlotId,
        projection: &'p [(String, Var)],
        distinct: bool,
    },
    OrderBy {
        input: SlotId,
        keys: &'p [hsp_sparql::SortKey],
    },
    /// Grouped aggregation (γ): the morsel-parallel two-phase fold of
    /// [`crate::aggregate`] — per-morsel partials merged in morsel order
    /// behind the barrier, then finalised into one row per group.
    HashAggregate {
        input: SlotId,
        group_by: &'p [Var],
        aggs: &'p [AggSpec],
        having: Option<&'p hsp_sparql::Expr>,
    },
    Slice {
        input: SlotId,
        offset: usize,
        limit: Option<usize>,
    },
}

struct Pipeline<'p> {
    source: SourceSpec<'p>,
    stages: Vec<StageSpec<'p>>,
    out: SlotId,
}

enum SourceSpec<'p> {
    /// Stream straight out of an ordered relation.
    Scan {
        node: NodeId,
        pattern: &'p TriplePattern,
        order: Order,
    },
    /// Stream a breaker's materialised output.
    Slot(SlotId),
}

enum StageSpec<'p> {
    /// Residual FILTER over the pipeline's composed rows.
    Filter { node: NodeId, expr: &'p FilterExpr },
    /// Probe the hash table built over the (breaker-materialised) slot.
    /// `outer` probes keep every probe row: unmatched rows pair with the
    /// `u32::MAX` sentinel, read back as UNBOUND — the OPTIONAL operator.
    Probe {
        node: NodeId,
        build: SlotId,
        vars: &'p [Var],
        outer: bool,
    },
    /// Plain (non-DISTINCT) projection: restrict/reorder the pipeline's
    /// layout. No per-row work — the effect lands entirely in which
    /// columns the sink gathers.
    Project {
        node: NodeId,
        projection: &'p [(String, Var)],
    },
    /// DISTINCT projection at the top of its chain: narrows the layout
    /// like `Project`, dedups each morsel locally, and the sink finishes
    /// with one global first-occurrence pass — the two-phase streaming
    /// dedup.
    Distinct {
        node: NodeId,
        projection: &'p [(String, Var)],
    },
}

/// Lower a validated plan into a [`Program`].
pub fn lower(plan: &PhysicalPlan) -> Program<'_> {
    let mut ids = HashMap::new();
    let mut counter = 0usize;
    plan.visit(&mut |p| {
        ids.insert(p as *const PhysicalPlan, counter);
        counter += 1;
    });
    let mut lowerer = Lowerer {
        ids: &ids,
        steps: Vec::new(),
        slot_count: 0,
    };
    let chain = lowerer.chain(plan, true);
    let root = lowerer.seal(chain);

    // Single-consumer hand-off analysis: a slot consumed exactly once, by
    // a pipeline's *source*, is handed to that pipeline directly.
    let mut consumers = vec![0usize; lowerer.slot_count];
    let mut source_consumers = vec![0usize; lowerer.slot_count];
    for step in &lowerer.steps {
        match step {
            Step::Breaker { op, .. } => match op {
                BreakerOp::Scan { .. } => {}
                BreakerOp::MergeJoin { left, right, .. }
                | BreakerOp::CrossProduct { left, right, .. }
                | BreakerOp::Union { left, right } => {
                    consumers[*left] += 1;
                    consumers[*right] += 1;
                }
                BreakerOp::Sort { input, .. }
                | BreakerOp::Project { input, .. }
                | BreakerOp::OrderBy { input, .. }
                | BreakerOp::HashAggregate { input, .. }
                | BreakerOp::Slice { input, .. } => consumers[*input] += 1,
            },
            Step::Pipeline(p) => {
                if let SourceSpec::Slot(s) = &p.source {
                    consumers[*s] += 1;
                    source_consumers[*s] += 1;
                }
                for stage in &p.stages {
                    if let StageSpec::Probe { build, .. } = stage {
                        consumers[*build] += 1;
                    }
                }
            }
        }
    }
    let handoff = (0..lowerer.slot_count)
        .map(|s| consumers[s] == 1 && source_consumers[s] == 1)
        .collect();

    Program {
        plan,
        steps: lowerer.steps,
        slot_count: lowerer.slot_count,
        node_count: counter,
        root,
        handoff,
        ids,
    }
}

/// A pipeline under construction: a source plus the streaming stages
/// accumulated so far (not yet sealed into a step).
struct Chain<'p> {
    source: SourceSpec<'p>,
    stages: Vec<StageSpec<'p>>,
}

struct Lowerer<'p, 'i> {
    ids: &'i HashMap<*const PhysicalPlan, NodeId>,
    steps: Vec<Step<'p>>,
    slot_count: usize,
}

impl<'p> Lowerer<'p, '_> {
    fn node_id(&self, plan: &'p PhysicalPlan) -> NodeId {
        self.ids[&(plan as *const PhysicalPlan)]
    }

    fn new_slot(&mut self) -> SlotId {
        let slot = self.slot_count;
        self.slot_count += 1;
        slot
    }

    fn push_breaker(&mut self, node: NodeId, op: BreakerOp<'p>) -> SlotId {
        let out = self.new_slot();
        self.steps.push(Step::Breaker { node, out, op });
        out
    }

    /// Lower `plan` into an open chain, emitting breaker steps for every
    /// sub-plan that must materialise (the classification is
    /// [`PhysicalPlan::is_pipeline_breaker`]; the match below must agree
    /// with it).
    ///
    /// `last` is true when the caller will append no further stages to the
    /// returned chain — the condition under which a DISTINCT projection may
    /// stream (dedup per morsel, global pass at the sink) instead of
    /// materialising: nothing downstream in the same chain ever observes
    /// the not-yet-globally-deduped rows.
    fn chain(&mut self, plan: &'p PhysicalPlan, last: bool) -> Chain<'p> {
        debug_assert_eq!(
            plan.is_pipeline_breaker(),
            !matches!(
                plan,
                PhysicalPlan::Scan { .. }
                    | PhysicalPlan::Filter { .. }
                    | PhysicalPlan::Project { .. }
            ),
            "lowering must agree with the breaker classification"
        );
        let node = self.node_id(plan);
        match plan {
            PhysicalPlan::Scan { pattern, order, .. } => {
                if pattern.vars().is_empty() {
                    // A fully ground pattern produces unit rows — nothing
                    // to stream; materialise it like a breaker.
                    let slot = self.push_breaker(
                        node,
                        BreakerOp::Scan {
                            pattern,
                            order: *order,
                        },
                    );
                    Chain {
                        source: SourceSpec::Slot(slot),
                        stages: Vec::new(),
                    }
                } else {
                    Chain {
                        source: SourceSpec::Scan {
                            node,
                            pattern,
                            order: *order,
                        },
                        stages: Vec::new(),
                    }
                }
            }
            PhysicalPlan::Filter { input, expr } => {
                let mut chain = self.chain(input, false);
                chain.stages.push(StageSpec::Filter { node, expr });
                chain
            }
            PhysicalPlan::HashJoin { left, right, vars } => {
                // The build side is the breaker: seal it, then keep
                // streaming the probe side through a probe stage.
                let build = self.seal_subplan(right);
                let mut chain = self.chain(left, false);
                chain.stages.push(StageSpec::Probe {
                    node,
                    build,
                    vars,
                    outer: false,
                });
                chain
            }
            PhysicalPlan::LeftOuterHashJoin { left, right, vars } if vars.is_empty() => {
                // No key to probe on: the pairing materialises like a
                // cross product (right side first, as the oracle runs it).
                let r = self.seal_subplan(right);
                let l = self.seal_subplan(left);
                let slot = self.push_breaker(
                    node,
                    BreakerOp::CrossProduct {
                        left: l,
                        right: r,
                        outer: true,
                    },
                );
                Chain {
                    source: SourceSpec::Slot(slot),
                    stages: Vec::new(),
                }
            }
            PhysicalPlan::LeftOuterHashJoin { left, right, vars } => {
                // Same shape as the inner join: the optional side builds,
                // the preserved side streams through an *outer* probe —
                // `probe_range_outer` emits the UNBOUND sentinel per
                // unmatched probe row, so per-morsel outputs still stitch
                // deterministically.
                let build = self.seal_subplan(right);
                let mut chain = self.chain(left, false);
                chain.stages.push(StageSpec::Probe {
                    node,
                    build,
                    vars,
                    outer: true,
                });
                chain
            }
            PhysicalPlan::MergeJoin { left, right, var } => {
                let l = self.seal_subplan(left);
                let r = self.seal_subplan(right);
                let slot = self.push_breaker(
                    node,
                    BreakerOp::MergeJoin {
                        left: l,
                        right: r,
                        var: *var,
                    },
                );
                Chain {
                    source: SourceSpec::Slot(slot),
                    stages: Vec::new(),
                }
            }
            PhysicalPlan::CrossProduct { left, right } => {
                let l = self.seal_subplan(left);
                let r = self.seal_subplan(right);
                let slot = self.push_breaker(
                    node,
                    BreakerOp::CrossProduct {
                        left: l,
                        right: r,
                        outer: false,
                    },
                );
                Chain {
                    source: SourceSpec::Slot(slot),
                    stages: Vec::new(),
                }
            }
            PhysicalPlan::Union { left, right } => {
                let l = self.seal_subplan(left);
                let r = self.seal_subplan(right);
                let slot = self.push_breaker(node, BreakerOp::Union { left: l, right: r });
                Chain {
                    source: SourceSpec::Slot(slot),
                    stages: Vec::new(),
                }
            }
            PhysicalPlan::Sort { input, var } => {
                let i = self.seal_subplan(input);
                let slot = self.push_breaker(
                    node,
                    BreakerOp::Sort {
                        input: i,
                        var: *var,
                    },
                );
                Chain {
                    source: SourceSpec::Slot(slot),
                    stages: Vec::new(),
                }
            }
            PhysicalPlan::Project {
                input,
                projection,
                distinct,
            } => {
                if *distinct && !last {
                    // A DISTINCT feeding further stages in the same chain
                    // must dedup globally *before* they see rows:
                    // materialise it. (Planned trees never produce this
                    // shape — DISTINCT sits at the top of its chain.)
                    let i = self.seal_subplan(input);
                    let slot = self.push_breaker(
                        node,
                        BreakerOp::Project {
                            input: i,
                            projection,
                            distinct: true,
                        },
                    );
                    Chain {
                        source: SourceSpec::Slot(slot),
                        stages: Vec::new(),
                    }
                } else if *distinct {
                    // Streaming DISTINCT: narrow the layout and dedup each
                    // morsel locally; the sink finishes with one global
                    // first-occurrence pass. Order-preserving at both
                    // phases, so the output is byte-identical to the old
                    // materialising breaker.
                    let mut chain = self.chain(input, false);
                    chain.stages.push(StageSpec::Distinct { node, projection });
                    chain
                } else {
                    // Plain projection is a layout change, not row work:
                    // fold it into the chain so the sink gathers only the
                    // projected columns and the pre-projection width is
                    // never materialised.
                    let mut chain = self.chain(input, false);
                    chain.stages.push(StageSpec::Project { node, projection });
                    chain
                }
            }
            PhysicalPlan::OrderBy { input, keys } => {
                let i = self.seal_subplan(input);
                let slot = self.push_breaker(node, BreakerOp::OrderBy { input: i, keys });
                Chain {
                    source: SourceSpec::Slot(slot),
                    stages: Vec::new(),
                }
            }
            PhysicalPlan::HashAggregate {
                input,
                group_by,
                aggs,
                having,
            } => {
                let i = self.seal_subplan(input);
                let slot = self.push_breaker(
                    node,
                    BreakerOp::HashAggregate {
                        input: i,
                        group_by,
                        aggs,
                        having: having.as_ref(),
                    },
                );
                Chain {
                    source: SourceSpec::Slot(slot),
                    stages: Vec::new(),
                }
            }
            PhysicalPlan::Slice {
                input,
                offset,
                limit,
            } => {
                let i = self.seal_subplan(input);
                let slot = self.push_breaker(
                    node,
                    BreakerOp::Slice {
                        input: i,
                        offset: *offset,
                        limit: *limit,
                    },
                );
                Chain {
                    source: SourceSpec::Slot(slot),
                    stages: Vec::new(),
                }
            }
        }
    }

    fn seal_subplan(&mut self, plan: &'p PhysicalPlan) -> SlotId {
        // A sealed sub-plan is the whole chain: nothing is appended above
        // it, so a DISTINCT at its top may stream (`last == true`).
        let chain = self.chain(plan, true);
        self.seal(chain)
    }

    /// Close an open chain into a slot: an already-materialised stage-less
    /// chain is its slot; a stage-less scan materialises directly; anything
    /// else becomes a pipeline step.
    fn seal(&mut self, chain: Chain<'p>) -> SlotId {
        if chain.stages.is_empty() {
            return match chain.source {
                SourceSpec::Slot(slot) => slot,
                SourceSpec::Scan {
                    node,
                    pattern,
                    order,
                } => self.push_breaker(node, BreakerOp::Scan { pattern, order }),
            };
        }
        let out = self.new_slot();
        self.steps.push(Step::Pipeline(Pipeline {
            source: chain.source,
            stages: chain.stages,
            out,
        }));
        out
    }
}

impl Program<'_> {
    /// Number of pipeline steps (the rest are breakers).
    pub fn pipeline_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, Step::Pipeline(_)))
            .count()
    }

    /// Execute the program, producing the final table and a per-operator
    /// [`Profile`] mirroring the plan tree (output cardinalities are exact;
    /// a pipeline's wall time is attributed to its topmost operator, its
    /// inner stages report 0ns since they never run in isolation).
    ///
    /// With a governor attached to `ctx`, every breaker step and every
    /// morsel claim is a cooperative checkpoint; an error drains every
    /// filled slot back through [`ExecContext::recycle`], so a cancelled
    /// or failed execution leaves the buffer pool balanced and the memory
    /// accounting at zero. So does a `row_budget` trip: any plan node
    /// producing more rows than the budget fails the execution with
    /// [`ExecError::BudgetExceeded`].
    pub fn run(
        &self,
        ds: &Dataset,
        ctx: &ExecContext,
        row_budget: Option<usize>,
    ) -> Result<(BindingTable, Profile), ExecError> {
        let mut slots: Vec<Option<BindingTable>> = (0..self.slot_count).map(|_| None).collect();
        let mut rows = vec![0usize; self.node_count];
        let mut nanos = vec![0u128; self.node_count];
        if let Err(e) = self.run_steps(ds, ctx, row_budget, &mut slots, &mut rows, &mut nanos) {
            for slot in slots.iter_mut() {
                if let Some(t) = slot.take() {
                    ctx.recycle(t);
                }
            }
            return Err(e);
        }
        // invariant: `lower` emits steps in topological order and the last
        // one fills `self.root` — every `expect` on slot contents in this
        // module rests on that ordering.
        let table = slots[self.root].take().expect("root slot filled");
        let profile = self.build_profile(self.plan, &rows, &nanos);
        Ok((table, profile))
    }

    fn run_steps(
        &self,
        ds: &Dataset,
        ctx: &ExecContext,
        row_budget: Option<usize>,
        slots: &mut [Option<BindingTable>],
        rows: &mut [usize],
        nanos: &mut [u128],
    ) -> Result<(), ExecError> {
        for step in &self.steps {
            match step {
                Step::Breaker { node, out, op } => {
                    let start = Instant::now();
                    // A Cartesian product's output size is known exactly up
                    // front: refuse it *before* materialising when it cannot
                    // fit the row budget or the memory budget.
                    if let BreakerOp::CrossProduct { left, right, outer } = op {
                        let lt = slots[*left].as_ref().expect("input slot filled before use");
                        let rt = slots[*right]
                            .as_ref()
                            .expect("input slot filled before use");
                        let product = ops::product_rows(lt.len(), rt.len(), *outer);
                        if let Some(budget) = row_budget.filter(|&b| product > b) {
                            return Err(self.budget_exceeded(*node, product, budget));
                        }
                        if let Some(gov) = ctx.governor() {
                            let bytes = product
                                .saturating_mul(lt.vars().len() + rt.vars().len())
                                .saturating_mul(std::mem::size_of::<TermId>());
                            gov.would_exceed(bytes, "crossproduct")?;
                        }
                    }
                    let (table, consumed) = match ctx.governor() {
                        None => run_breaker(op, ds, ctx, slots)?,
                        Some(gov) => {
                            // The checkpoint runs inside the unwind guard:
                            // an injected `panic@breaker` fault takes the
                            // same recovery path as a real kernel panic.
                            match catch_unwind(AssertUnwindSafe(|| {
                                gov.check("breaker")?;
                                run_breaker(op, ds, ctx, slots)
                            })) {
                                Ok(Ok(x)) => x,
                                Ok(Err(e)) => return Err(e),
                                Err(_) => return Err(gov.note_panic("breaker").into()),
                            }
                        }
                    };
                    nanos[*node] = start.elapsed().as_nanos();
                    rows[*node] = table.len();
                    // A kernel that bailed out early on `governor_poll`
                    // (the cross product) returned an empty placeholder
                    // table: surface the trip instead of storing it and
                    // drop the placeholder (its columns never came from
                    // the pool, and it was never charged).
                    if let Some(e) = ctx.governor().and_then(QueryGovernor::trip_error) {
                        for t in consumed {
                            ctx.recycle(t);
                        }
                        drop(table);
                        return Err(e.into());
                    }
                    for t in consumed {
                        ctx.recycle(t);
                    }
                    if let Err(e) = ctx.charge_table(&table, "breaker") {
                        ctx.recycle(table);
                        return Err(e.into());
                    }
                    slots[*out] = Some(table);
                }
                Step::Pipeline(p) => {
                    // Single-consumer breaker hand-off: the source table
                    // was produced for this pipeline alone, so the sink
                    // may move its columns instead of gathering copies.
                    let handed_off = matches!(&p.source, SourceSpec::Slot(s) if self.handoff[*s]);
                    if handed_off {
                        ctx.note_handoff();
                    }
                    run_pipeline(p, ds, ctx, slots, rows, nanos, handed_off)?;
                }
            }
            // The step's output is stored (and charged), so a trip drains
            // through the caller's slot sweep like any governor error.
            // Earlier steps passed, so an offender is one of this step's
            // nodes; a pipeline's lie on one left spine, where the highest
            // pre-order id is the bottom-most — the one the oracle reports.
            if let Some(budget) = row_budget {
                if let Some(node) = rows.iter().rposition(|&n| n > budget) {
                    return Err(self.budget_exceeded(node, rows[node], budget));
                }
            }
        }
        Ok(())
    }

    /// The row-budget error for plan node `node` (its pre-order position).
    fn budget_exceeded(&self, node: NodeId, rows: usize, budget: usize) -> ExecError {
        let mut labels = Vec::with_capacity(self.node_count);
        self.plan.visit(&mut |p| labels.push(plan_label(p)));
        ExecError::BudgetExceeded {
            operator: labels.swap_remove(node),
            rows,
            budget,
        }
    }

    fn build_profile(&self, plan: &PhysicalPlan, rows: &[usize], nanos: &[u128]) -> Profile {
        let id = self.ids[&(plan as *const PhysicalPlan)];
        let children = match plan {
            PhysicalPlan::Scan { .. } => Vec::new(),
            PhysicalPlan::MergeJoin { left, right, .. }
            | PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::LeftOuterHashJoin { left, right, .. }
            | PhysicalPlan::CrossProduct { left, right }
            | PhysicalPlan::Union { left, right } => vec![
                self.build_profile(left, rows, nanos),
                self.build_profile(right, rows, nanos),
            ],
            PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::OrderBy { input, .. }
            | PhysicalPlan::HashAggregate { input, .. }
            | PhysicalPlan::Slice { input, .. } => vec![self.build_profile(input, rows, nanos)],
        };
        Profile {
            label: plan_label(plan),
            output_rows: rows[id],
            nanos: nanos[id],
            children,
        }
    }

    /// Render the pipeline DAG as text: one line per step, slots named
    /// `s0, s1, …`, pipelines shown as `source → stage → … → sink`.
    pub fn render(&self, query: &hsp_sparql::JoinQuery) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "pipeline DAG: {} pipeline{}, {} breaker{}\n",
            self.pipeline_count(),
            if self.pipeline_count() == 1 { "" } else { "s" },
            self.steps.len() - self.pipeline_count(),
            if self.steps.len() - self.pipeline_count() == 1 {
                ""
            } else {
                "s"
            },
        );
        let scan_desc = |pattern: &TriplePattern, order: Order| {
            format!(
                "σ({}) {}",
                order.upper_name(),
                crate::explain::describe_pattern(pattern, query)
            )
        };
        for step in &self.steps {
            match step {
                Step::Breaker { out: slot, op, .. } => {
                    let desc = match op {
                        BreakerOp::Scan { pattern, order } => scan_desc(pattern, *order),
                        BreakerOp::MergeJoin { left, right, var } => {
                            format!("⋈mj ?{} (s{left}, s{right})", query.var_name(*var))
                        }
                        BreakerOp::CrossProduct { left, right, outer } => {
                            let op = if *outer { "⟕×" } else { "×" };
                            format!("{op} (s{left}, s{right})")
                        }
                        BreakerOp::Union { left, right } => {
                            format!("∪ (s{left}, s{right})")
                        }
                        BreakerOp::Sort { input, var } => {
                            format!("sort ?{} (s{input})", query.var_name(*var))
                        }
                        BreakerOp::Project {
                            input,
                            projection,
                            distinct,
                        } => {
                            let names: Vec<String> =
                                projection.iter().map(|(n, _)| format!("?{n}")).collect();
                            format!(
                                "{} {} (s{input})",
                                if *distinct { "π-distinct" } else { "π" },
                                names.join(",")
                            )
                        }
                        BreakerOp::OrderBy { input, keys } => {
                            format!("order by ({} keys) (s{input})", keys.len())
                        }
                        BreakerOp::HashAggregate {
                            input,
                            group_by,
                            aggs,
                            having,
                        } => format!(
                            "{} (s{input})",
                            crate::explain::describe_aggregate(
                                group_by,
                                aggs,
                                having.is_some(),
                                query
                            )
                        ),
                        BreakerOp::Slice {
                            input,
                            offset,
                            limit,
                        } => format!(
                            "slice[{offset}..{}] (s{input})",
                            limit.map_or("∞".into(), |n| n.to_string())
                        ),
                    };
                    let mark = if self.handoff[*slot] {
                        " [handoff]"
                    } else {
                        ""
                    };
                    let _ = writeln!(out, "  s{slot} ← breaker: {desc}{mark}");
                }
                Step::Pipeline(p) => {
                    let mut line = format!("  s{} ← pipeline: ", p.out);
                    match &p.source {
                        SourceSpec::Scan { pattern, order, .. } => {
                            line.push_str(&scan_desc(pattern, *order));
                        }
                        SourceSpec::Slot(slot) => {
                            let _ = write!(line, "s{slot}");
                        }
                    }
                    for stage in &p.stages {
                        match stage {
                            StageSpec::Filter { .. } => line.push_str(" → σ(filter)"),
                            StageSpec::Probe {
                                build, vars, outer, ..
                            } => {
                                let names: Vec<String> = vars
                                    .iter()
                                    .map(|v| format!("?{}", query.var_name(*v)))
                                    .collect();
                                let op = if *outer { "⟕hj" } else { "⋈hj" };
                                let _ =
                                    write!(line, " → {op} {} [build s{build}]", names.join(","));
                            }
                            StageSpec::Project { projection, .. } => {
                                let names: Vec<String> =
                                    projection.iter().map(|(n, _)| format!("?{n}")).collect();
                                let _ = write!(line, " → π {}", names.join(","));
                            }
                            StageSpec::Distinct { projection, .. } => {
                                let names: Vec<String> =
                                    projection.iter().map(|(n, _)| format!("?{n}")).collect();
                                let _ = write!(line, " → π-distinct {}", names.join(","));
                            }
                        }
                    }
                    line.push_str(" → sink\n");
                    out.push_str(&line);
                }
            }
        }
        let _ = writeln!(out, "  result: s{}", self.root);
        out
    }
}

/// Run one breaker op over materialised slots; returns the output table
/// plus the consumed input tables (for recycling). The only fallible op
/// is the γ aggregate (morsel-claim checkpoints, memory budget, typed
/// aggregate evaluation errors); on error the consumed inputs have
/// already been recycled.
fn run_breaker(
    op: &BreakerOp<'_>,
    ds: &Dataset,
    ctx: &ExecContext,
    slots: &mut [Option<BindingTable>],
) -> Result<(BindingTable, Vec<BindingTable>), ExecError> {
    let mut take = |slot: SlotId| -> BindingTable {
        // invariant: topological step order (see `Program::run`).
        slots[slot].take().expect("input slot filled before use")
    };
    Ok(match op {
        BreakerOp::Scan { pattern, order } => (ops::scan(ctx, ds, pattern, *order), Vec::new()),
        BreakerOp::MergeJoin { left, right, var } => {
            let (l, r) = (take(*left), take(*right));
            (ops::merge_join(ctx, &l, &r, *var), vec![l, r])
        }
        BreakerOp::CrossProduct { left, right, outer } => {
            let (l, r) = (take(*left), take(*right));
            let table = if *outer {
                ops::left_outer_hash_join(ctx, &l, &r, &[])
            } else {
                ops::cross_product(ctx, &l, &r)
            };
            (table, vec![l, r])
        }
        BreakerOp::Union { left, right } => {
            let (l, r) = (take(*left), take(*right));
            (ops::union_all(ctx, &l, &r), vec![l, r])
        }
        BreakerOp::Sort { input, var } => {
            let i = take(*input);
            (ops::sort_by(ctx, &i, *var), vec![i])
        }
        BreakerOp::Project {
            input,
            projection,
            distinct,
        } => {
            let i = take(*input);
            (ops::project(ctx, &i, projection, *distinct), vec![i])
        }
        BreakerOp::OrderBy { input, keys } => {
            let i = take(*input);
            (ops::order_by(ctx, ds, &i, keys), vec![i])
        }
        BreakerOp::HashAggregate {
            input,
            group_by,
            aggs,
            having,
        } => {
            let i = take(*input);
            match run_aggregate(ds, ctx, &i, group_by, aggs, *having) {
                Ok(table) => (table, vec![i]),
                Err(e) => {
                    ctx.recycle(i);
                    return Err(e);
                }
            }
        }
        BreakerOp::Slice {
            input,
            offset,
            limit,
        } => {
            let i = take(*input);
            (ops::slice(ctx, &i, *offset, *limit), vec![i])
        }
    })
}

/// The γ breaker: phase one folds morsels of the input into thread-local
/// [`crate::aggregate::AggPartial`]s on the worker pool (governor site
/// `"aggregate"`); phase two merges the partials *in morsel order* behind
/// the barrier and finalises one row per group — deterministic across
/// thread budgets by construction (see [`crate::aggregate`]).
fn run_aggregate(
    ds: &Dataset,
    ctx: &ExecContext,
    input: &BindingTable,
    group_by: &[Var],
    aggs: &[AggSpec],
    having: Option<&hsp_sparql::Expr>,
) -> Result<BindingTable, ExecError> {
    let (parts, run) = morsel::try_run_morsels(
        input.len(),
        &ctx.morsel,
        ctx.governor(),
        "aggregate",
        |range| crate::aggregate::fold_range(input, ds, group_by, aggs, range),
    )?;
    let merged = crate::aggregate::merge_partials(parts, aggs);
    // The grouped hash state is this operator's own materialisation:
    // check it against the memory budget before finalising into columns.
    ctx.reserve_check(merged.heap_bytes(), "aggregate")?;
    ctx.note_aggregate(run, merged.groups());
    let table = crate::aggregate::finalise(merged, ctx, ds, group_by, aggs)?;
    Ok(match having {
        Some(h) => crate::aggregate::apply_having(table, h, ctx, ds),
        None => table,
    })
}

/// How a pipeline stage reads one value of a composed row: either a key
/// coordinate of the scan source's relation rows, or a column of a
/// materialised side table, indexed through that side's index vector.
#[derive(Clone, Copy)]
enum ColRef<'a> {
    /// `scan_rows[sides[0][row]][key]`.
    Key { key: usize },
    /// `col[sides[side][row]]`. `idx` is the column's index within its
    /// side's table (what the sink's column-move fast path needs);
    /// `nullable` marks sides introduced by an *outer* probe, whose index
    /// vectors may carry the `u32::MAX` sentinel (read as UNBOUND).
    Col {
        side: usize,
        idx: usize,
        col: &'a [TermId],
        nullable: bool,
    },
}

/// One prepared (executable) pipeline stage.
enum PreparedStage<'a> {
    Filter {
        node: NodeId,
        expr: &'a FilterExpr,
        /// The variables the expression reads, resolved against the
        /// pipeline layout — gathered into scratch columns per morsel so
        /// the row loop runs over contiguous memory, like the
        /// operator-at-a-time FILTER.
        used: Vec<(Var, ColRef<'a>)>,
    },
    Probe {
        node: NodeId,
        table: BuildTable,
        build_cols: Vec<&'a [TermId]>,
        key_refs: Vec<ColRef<'a>>,
        /// Shared non-key variables: the composed row's value must equal
        /// the build row's (the repeated-variable check of the joins).
        extra_checks: Vec<(ColRef<'a>, &'a [TermId])>,
        /// Left-outer semantics: unmatched probe rows survive with the
        /// `u32::MAX` sentinel on this probe's side.
        outer: bool,
    },
    /// Plain projection: the layout change happened at prepare time; at
    /// run time the stage only reports its (unchanged) cardinality.
    Project { node: NodeId },
    /// Streaming DISTINCT: the layout narrowed at prepare time (like
    /// `Project`); per morsel the narrowed columns are gathered and
    /// locally deduplicated (first occurrence wins). The cross-morsel
    /// pass runs once at the sink, over the gathered output.
    Distinct {
        node: NodeId,
        /// The narrowed layout's column references, in output order —
        /// what the local dedup keys on.
        refs: Vec<ColRef<'a>>,
    },
}

/// Everything a morsel worker needs, borrowed for the pipeline run.
struct PreparedPipeline<'a> {
    /// Relation rows of a scan source (empty for slot sources).
    scan_rows: &'a [IdTriple],
    /// `true` when the source is a scan (node cardinality + equalities
    /// apply; the scan's rows count as avoided materialisation).
    scan_source: Option<NodeId>,
    /// Repeated-variable equalities of the scan pattern (key-index pairs).
    equalities: Vec<(usize, usize)>,
    /// Output layout: one entry per output column, in output order.
    layout: Vec<(Var, ColRef<'a>)>,
    stages: Vec<PreparedStage<'a>>,
    rows: usize,
    sorted: Option<Var>,
}

/// The per-morsel result: one index vector per side plus the per-stage
/// surviving-row counts (source first).
struct MorselOut {
    sides: Vec<Vec<u32>>,
    counts: Vec<usize>,
    /// Side 0 stayed the untouched morsel range end-to-end (no stage
    /// dropped a row) — across all morsels this makes the stitched side-0
    /// vector the identity, which lets the sink *move* a handed-off
    /// source's columns instead of gathering them. When the caller set
    /// `defer_side0`, an identity side 0 is left **empty** (the column
    /// move never reads it); [`run_pipeline`] reconstructs it from
    /// `start`/`rows` only if another morsel broke the identity.
    side0_identity: bool,
    /// First source row of this morsel's range.
    start: u32,
    /// Rows surviving the whole stage chain (`== sides[0].len()` whenever
    /// side 0 is materialised).
    rows: usize,
}

/// The composed-row view a stage gathers its scratch columns from:
/// [`ColRef`] reads resolved through the current side index vectors.
/// While no stage has dropped a row yet, side 0 is represented *lazily*
/// as the morsel's row range (`ident`) instead of a materialised identity
/// vector — reads off it are sequential slice accesses.
struct View<'a, 'b> {
    scan_rows: &'a [IdTriple],
    sides: &'b [Vec<u32>],
    /// `Some(start)` while side 0 is still the untouched morsel range
    /// starting at `start` (its length is the current row count).
    ident: Option<u32>,
}

impl View<'_, '_> {
    /// Gather the first `n` values of a column reference into a contiguous
    /// scratch buffer (one tight loop per [`ColRef`] shape — what keeps
    /// the probe loop over the result as fast as a materialised column).
    fn gather(&self, r: ColRef<'_>, n: usize, scratch: &Scratch<'_>) -> Vec<TermId> {
        let mut out = scratch.take_col(n);
        match (r, self.ident) {
            (ColRef::Key { key }, Some(start)) => {
                let start = start as usize;
                out.extend(self.scan_rows[start..start + n].iter().map(|row| row[key]));
            }
            (ColRef::Key { key }, None) => out.extend(
                self.sides[0][..n]
                    .iter()
                    .map(|&i| self.scan_rows[i as usize][key]),
            ),
            (ColRef::Col { side: 0, col, .. }, Some(start)) => {
                let start = start as usize;
                out.extend_from_slice(&col[start..start + n]);
            }
            (
                ColRef::Col {
                    side,
                    col,
                    nullable,
                    ..
                },
                _,
            ) => gather_indices(&mut out, col, &self.sides[side][..n], nullable),
        }
        out
    }
}

/// The one index-vector gather loop, shared by the stage scratch gathers
/// ([`View::gather`]) and the sink: append `src[i]` for every index in
/// `sel`. With `nullable` (a side introduced by an *outer* probe) the
/// `u32::MAX` sentinel reads as UNBOUND — the same value the oracle
/// materialises for unmatched OPTIONAL rows.
fn gather_indices(out: &mut Vec<TermId>, src: &[TermId], sel: &[u32], nullable: bool) {
    if nullable {
        out.extend(sel.iter().map(|&i| {
            if i == u32::MAX {
                TermId::UNBOUND
            } else {
                src[i as usize]
            }
        }));
    } else {
        out.extend(sel.iter().map(|&i| src[i as usize]));
    }
}

/// Scratch-buffer source for one morsel run: the execution's
/// [`BufferPool`](crate::pool::BufferPool) when the pipeline runs
/// sequentially on the owning thread (large scratch columns recycle
/// instead of churning the allocator, exactly like the oracle's gathers),
/// plain allocation for parallel workers — the pool is single-threaded by
/// design and workers keep everything thread-local.
struct Scratch<'a> {
    pool: Option<&'a crate::pool::BufferPool>,
}

impl Scratch<'_> {
    fn take_col(&self, cap: usize) -> Vec<TermId> {
        self.pool
            .map_or_else(|| Vec::with_capacity(cap), |p| p.take_col(cap))
    }

    fn put_col(&self, col: Vec<TermId>) {
        if let Some(p) = self.pool {
            p.put_col(col);
        }
    }

    fn take_idx(&self, cap: usize) -> Vec<u32> {
        self.pool
            .map_or_else(|| Vec::with_capacity(cap), |p| p.take_idx(cap))
    }

    fn put_idx(&self, buf: Vec<u32>) {
        if let Some(p) = self.pool {
            p.put_idx(buf);
        }
    }
}

/// The FILTER stage's evaluation surface: just the expression's variables,
/// each backed by a contiguous scratch column gathered for this morsel.
struct ScratchCols<'a, 'b> {
    used: &'b [(Var, ColRef<'a>)],
    cols: &'b [Vec<TermId>],
}

impl RowValues for ScratchCols<'_, '_> {
    fn row_value(&self, v: Var, row: usize) -> TermId {
        self.used
            .iter()
            .position(|&(uv, _)| uv == v)
            .map_or(TermId::UNBOUND, |c| self.cols[c][row])
    }
}

/// How the sink reads one output column — [`ColRef`] stripped of its
/// borrows, so the prepared pipeline can be dropped before the sink takes
/// the input tables apart.
enum SinkRef {
    Key {
        key: usize,
    },
    Col {
        side: usize,
        idx: usize,
        nullable: bool,
    },
}

/// Execute one pipeline: prepare (resolve the source, build the probe hash
/// tables — the breaker work), push morsels through the stage chain, gather
/// once at the sink, recycle the consumed inputs. A `handed_off` source
/// table (a single-consumer breaker's output) may have its columns *moved*
/// into the sink when no stage dropped a row.
#[allow(clippy::too_many_arguments)]
fn run_pipeline(
    p: &Pipeline<'_>,
    ds: &Dataset,
    ctx: &ExecContext,
    slots: &mut [Option<BindingTable>],
    rows_by_node: &mut [usize],
    nanos_by_node: &mut [u128],
    handed_off: bool,
) -> Result<(), ExecError> {
    let start = Instant::now();

    // Take the pipeline's inputs out of their slots (they stay alive —
    // borrowed by the prepared stages — until the sink has gathered).
    // invariant: topological step order (see `Program::run`) fills every
    // source and build slot before the pipeline that consumes it.
    let mut source_table: Option<BindingTable> = match &p.source {
        SourceSpec::Slot(slot) => Some(slots[*slot].take().expect("source slot filled")),
        SourceSpec::Scan { .. } => None,
    };
    let build_tables: Vec<BindingTable> = p
        .stages
        .iter()
        .filter_map(|s| match s {
            StageSpec::Probe { build, .. } => {
                Some(slots[*build].take().expect("build slot filled"))
            }
            StageSpec::Filter { .. } | StageSpec::Project { .. } | StageSpec::Distinct { .. } => {
                None
            }
        })
        .collect();

    // Resolve a scan source against the dataset here — not inside
    // `prepare` — so the rows borrow `ds` alone (or the merged scan
    // buffer, which outlives `prepared`) and stay usable by the sink
    // after the prepared stages (which borrow the input tables) are
    // dropped.
    let scan = match &p.source {
        SourceSpec::Scan { pattern, order, .. } => resolve_scan(ds, pattern, *order),
        SourceSpec::Slot(_) => OrderScan::empty(),
    };
    if !scan.is_contiguous() {
        ctx.note_merged_scan();
    }
    let scan_rows: &[IdTriple] = &scan;

    let prepared = prepare(p, ctx, scan_rows, source_table.as_ref(), &build_tables);

    // The hand-off column-move precondition that is known *before* any
    // morsel runs: the source was handed off, no probe adds a side, and
    // every output column reads side 0. Morsels then leave an identity
    // side 0 empty (deferred) — the move path never reads it, and a
    // morsel that does drop rows breaks the identity, in which case the
    // stitch below reconstructs the deferred ranges.
    let static_movable = handed_off
        && !prepared.layout.is_empty()
        && prepared
            .layout
            .iter()
            .all(|&(_, r)| matches!(r, ColRef::Col { side: 0, .. }))
        && !prepared
            .stages
            .iter()
            .any(|s| matches!(s, PreparedStage::Probe { .. }));

    // Push morsels through the whole stage chain. Parallel morsels use the
    // per-thread evaluator (pool workers and helping submitters are
    // long-lived; its regex cache is bounded); the sequential paths keep a
    // plain local evaluator that drops with the pipeline.
    let stage_count = prepared.stages.len();
    // Only the ungoverned sequential path hands pooled index vectors to
    // `process_morsel`: its single part's vectors *become* the stitched
    // sides and are put back after the sink. Worker parts and
    // governed-sequential parts use plain vectors — the stitch copies out
    // of them and drops them — so pool take/put stays balanced even when
    // a governed run produces several parts on one thread.
    let pooled_part = ctx.morsel.workers_for(prepared.rows) <= 1 && ctx.governor().is_none();
    let morsel_result = if ctx.morsel.workers_for(prepared.rows) > 1 {
        morsel::try_run_morsels(
            prepared.rows,
            &ctx.morsel,
            ctx.governor(),
            "worker",
            |range| {
                // Workers allocate scratch plainly: the pool is single-threaded.
                let scratch = Scratch { pool: None };
                ops::WORKER_EVALUATOR.with(|evaluator| {
                    process_morsel(range, &prepared, ds, evaluator, &scratch, static_movable)
                })
            },
        )
    } else if let Some(gov) = ctx.governor() {
        // Governed sequential path: still chunk into morsels so a deadline
        // or cancellation surfaces within one morsel's work. The whole
        // loop runs on the calling thread, so borrowing the non-`Sync`
        // local evaluator is fine.
        let evaluator = hsp_sparql::Evaluator::new();
        let scratch = Scratch { pool: None };
        morsel::try_run_morsels_seq(prepared.rows, &ctx.morsel, gov, "worker", |range| {
            process_morsel(range, &prepared, ds, &evaluator, &scratch, static_movable)
        })
    } else {
        let evaluator = hsp_sparql::Evaluator::new();
        let scratch = Scratch {
            pool: Some(&ctx.pool),
        };
        let out = process_morsel(
            0..prepared.rows,
            &prepared,
            ds,
            &evaluator,
            &scratch,
            static_movable,
        );
        Ok((vec![out], MorselRun::SEQUENTIAL))
    };
    let (parts, run) = match morsel_result {
        Ok(x) => x,
        Err(e) => {
            // The batch has drained and its partial parts are dropped; return
            // the consumed inputs (charged when their producers stored
            // them) so the pool balances and the accounting nets to zero.
            drop(prepared);
            if let Some(t) = source_table.take() {
                ctx.recycle(t);
            }
            for t in build_tables {
                ctx.recycle(t);
            }
            return Err(e.into());
        }
    };

    // Stitch the per-morsel index vectors in morsel order and total the
    // per-stage counts.
    let side_count = 1 + prepared
        .stages
        .iter()
        .filter(|s| matches!(s, PreparedStage::Probe { .. }))
        .count();
    let mut counts = vec![0usize; 1 + stage_count];
    let mut total_rows = 0usize;
    for part in &parts {
        total_rows += part.rows;
    }
    // Every morsel kept side 0 untouched ⇒ the stitched side-0 vector is
    // the identity over the whole source: the column-move fires and side 0
    // (left empty by the deferral) is never read.
    let movable = static_movable && parts.iter().all(|part| part.side0_identity);
    let sides: Vec<Vec<u32>> = if pooled_part {
        // Single pooled morsel (the ungoverned sequential path): its index
        // vectors are the stitched result — move them instead of copying.
        // invariant: `pooled_part` implies exactly one morsel ran.
        let part = parts.into_iter().next().expect("one part");
        for (c, n) in part.counts.iter().enumerate() {
            counts[c] += n;
        }
        part.sides
    } else {
        let mut sides: Vec<Vec<u32>> = (0..side_count)
            .map(|_| ctx.pool.take_idx(total_rows))
            .collect();
        for part in parts {
            for (c, n) in part.counts.iter().enumerate() {
                counts[c] += n;
            }
            for (s, v) in part.sides.into_iter().enumerate() {
                if s == 0 && static_movable && part.side0_identity {
                    // This morsel's side 0 was deferred (left empty). If
                    // another morsel broke the identity, reconstruct the
                    // range here; on the move path nothing reads side 0.
                    debug_assert!(v.is_empty());
                    if !movable {
                        sides[0].extend(part.start..part.start + part.rows as u32);
                    }
                } else {
                    sides[s].extend_from_slice(&v);
                }
            }
        }
        sides
    };

    // Record per-operator cardinalities (exactly what the oracle would
    // report): the scan source's output, then each stage's.
    if let Some(node) = prepared.scan_source {
        rows_by_node[node] = counts[0];
    }
    for (stage, &n) in prepared.stages.iter().zip(&counts[1..]) {
        let node = match stage {
            PreparedStage::Filter { node, .. }
            | PreparedStage::Probe { node, .. }
            | PreparedStage::Project { node }
            | PreparedStage::Distinct { node, .. } => *node,
        };
        rows_by_node[node] = n;
    }

    // The rows the oracle would have materialised between operators but
    // this pipeline kept as index vectors: every count except the final
    // stage's (which the sink materialises); a slot source was already
    // materialised by its breaker, so it does not count.
    let avoided: usize = counts[..counts.len() - 1]
        .iter()
        .skip(if prepared.scan_source.is_some() { 0 } else { 1 })
        .sum();
    ctx.note_pipeline(run, avoided);
    let outer_probes = prepared
        .stages
        .iter()
        .filter(|s| matches!(s, PreparedStage::Probe { outer: true, .. }))
        .count();
    if outer_probes > 0 {
        ctx.note_outer_probes(outer_probes);
    }

    // The topmost operator of the pipeline owns its wall time (inner
    // stages never run in isolation, so they report 0).
    let top_node = match prepared.stages.last() {
        Some(
            PreparedStage::Filter { node, .. }
            | PreparedStage::Probe { node, .. }
            | PreparedStage::Project { node }
            | PreparedStage::Distinct { node, .. },
        ) => *node,
        // invariant: `lower` never emits a stage-less pipeline — a bare
        // scan still carries its sink projection stage.
        None => unreachable!("pipelines have at least one stage"),
    };

    // Strip the layout of its borrows so the prepared stages (which borrow
    // the input tables) can drop before the sink consumes those tables.
    let sink_refs: Vec<(Var, SinkRef)> = prepared
        .layout
        .iter()
        .map(|&(v, r)| {
            let sink = match r {
                ColRef::Key { key } => SinkRef::Key { key },
                ColRef::Col {
                    side,
                    idx,
                    nullable,
                    ..
                } => SinkRef::Col {
                    side,
                    idx,
                    nullable,
                },
            };
            (v, sink)
        })
        .collect();
    let sorted = prepared.sorted;
    let distinct_node = prepared.stages.iter().find_map(|s| match s {
        PreparedStage::Distinct { node, .. } => Some(*node),
        _ => None,
    });
    drop(prepared);

    // Sink. Fast path (hand-off move, `movable` decided at the stitch):
    // the source table was materialised for this pipeline alone and no
    // stage dropped a row, so the selected columns *move* into the output
    // — zero copies, not even an identity index vector — and the
    // unprojected ones recycle through the pool. Otherwise each output
    // column is gathered exactly once, through the pool.
    let out_rows = total_rows;
    let table = if movable {
        // invariant: `static_movable` requires a slot source, taken above.
        let src = source_table.take().expect("handed-off slot source");
        // The source is consumed by the column move rather than recycled:
        // release its charge here so the moved output's own charge below
        // does not double-count the same bytes.
        ctx.release_bytes(crate::pool::table_bytes(&src));
        debug_assert_eq!(src.len(), out_rows, "identity sides preserve rows");
        let mut src_cols: Vec<Option<Vec<TermId>>> =
            src.into_columns().into_iter().map(Some).collect();
        let mut cols: Vec<Vec<TermId>> = Vec::with_capacity(sink_refs.len());
        for (_, r) in &sink_refs {
            let SinkRef::Col { idx, .. } = r else {
                // invariant: `static_movable` only holds for layouts whose
                // every reference is a side-0 column.
                unreachable!("movable layout is side-0 columns only")
            };
            // invariant: layout variables are deduplicated, so each source
            // column is moved at most once.
            cols.push(src_cols[*idx].take().expect("layout vars are distinct"));
        }
        for col in src_cols.into_iter().flatten() {
            ctx.pool.put_col(col);
        }
        let vars: Vec<Var> = sink_refs.iter().map(|&(v, _)| v).collect();
        let mut table = BindingTable::from_columns(vars, cols, None);
        table.set_sorted_by(sorted);
        table
    } else if sink_refs.is_empty() {
        BindingTable::unit(out_rows)
    } else {
        let mut cols: Vec<Vec<TermId>> = Vec::with_capacity(sink_refs.len());
        for (_, r) in &sink_refs {
            let mut col = ctx.pool.take_col(out_rows);
            match *r {
                SinkRef::Key { key } => {
                    col.extend(sides[0].iter().map(|&i| scan_rows[i as usize][key]));
                }
                SinkRef::Col {
                    side,
                    idx,
                    nullable,
                } => {
                    let src: &[TermId] = if side == 0 {
                        // invariant: a side-0 column reference implies a
                        // slot source (scan sources emit key references).
                        &source_table.as_ref().expect("slot source").columns()[idx]
                    } else {
                        &build_tables[side - 1].columns()[idx]
                    };
                    gather_indices(&mut col, src, &sides[side], nullable);
                }
            }
            cols.push(col);
        }
        let vars: Vec<Var> = sink_refs.iter().map(|&(v, _)| v).collect();
        let mut table = BindingTable::from_columns(vars, cols, None);
        table.set_sorted_by(sorted);
        table
    };

    // Global phase of a streaming DISTINCT: the morsels deduped locally,
    // so only duplicates *spanning* morsels remain — one first-occurrence
    // pass over the gathered output collapses them. Order-preserving at
    // both phases, so the result is byte-identical to the sequential
    // (materialising) dedup.
    let table = match distinct_node {
        None => table,
        Some(node) => {
            ctx.note_distinct_stream();
            let deduped = if table.vars().is_empty() {
                // Zero-column DISTINCT: at most one unit row overall.
                let rows = table.len().min(1);
                BindingTable::unit(rows)
            } else {
                let keep = {
                    let cols: Vec<&[TermId]> =
                        table.columns().iter().map(|c| c.as_slice()).collect();
                    ops::distinct_first_occurrences(&cols, table.len())
                };
                if keep.len() == table.len() {
                    table
                } else {
                    let mut out = table.gather_in(&keep, &ctx.pool);
                    out.set_sorted_by(sorted);
                    ctx.pool.recycle(table);
                    out
                }
            };
            // The stage's local counts overstated the operator's true
            // output — report the globally deduped cardinality.
            rows_by_node[node] = deduped.len();
            deduped
        }
    };
    // A pooled part's deferred side 0 (the column-move path) is the
    // placeholder, never checked out: only pool buffers go back.
    let skip = usize::from(pooled_part && movable);
    for side in sides.into_iter().skip(skip) {
        ctx.pool.put_idx(side);
    }
    nanos_by_node[top_node] = start.elapsed().as_nanos();

    // Recycle the consumed inputs now that the gather is done (a moved
    // hand-off source already recycled its leftovers above), then charge
    // the materialised output against the memory budget.
    if let Some(t) = source_table {
        ctx.recycle(t);
    }
    for t in build_tables {
        ctx.recycle(t);
    }
    if let Err(e) = ctx.charge_table(&table, "sink") {
        ctx.pool.recycle(table);
        return Err(e.into());
    }
    slots[p.out] = Some(table);
    Ok(())
}

/// Resolve a scan source's relation range exactly like `ops::scan`: a
/// constant missing from the dictionary matches nothing (the empty output
/// still advertises the scan's sortedness, like the oracle's — a merge
/// join above it checks the declaration, not the rows).
fn resolve_scan<'d>(ds: &'d Dataset, pattern: &TriplePattern, order: Order) -> OrderScan<'d> {
    let mut prefix: Vec<TermId> = Vec::with_capacity(3);
    for pos in order.positions() {
        match pattern.slot(pos) {
            hsp_sparql::TermOrVar::Const(term) => match ds.dict().id(term) {
                Some(id) => prefix.push(id),
                None => return OrderScan::empty(),
            },
            hsp_sparql::TermOrVar::Var(_) => break,
        }
    }
    let scan = ds.store().scan(order, &prefix);
    assert!(
        scan.len() < u32::MAX as usize,
        "scan range exceeds u32 row indexing"
    );
    scan
}

/// Resolve the pipeline's source and stages against the (already
/// resolved) scan rows and the taken input tables: key layout for a scan
/// source, hash-table builds (the breaker half of each hash join) for the
/// probes, layout rewrites for projection stages.
fn prepare<'a>(
    p: &'a Pipeline<'_>,
    ctx: &ExecContext,
    scan_rows: &'a [IdTriple],
    source_table: Option<&'a BindingTable>,
    build_tables: &'a [BindingTable],
) -> PreparedPipeline<'a> {
    let mut layout: Vec<(Var, ColRef<'a>)> = Vec::new();
    let mut equalities: Vec<(usize, usize)> = Vec::new();
    let scan_source;
    let rows;
    let mut sorted;
    match &p.source {
        SourceSpec::Scan {
            node,
            pattern,
            order,
        } => {
            scan_source = Some(*node);
            let out_vars = pattern.vars();
            for &v in &out_vars {
                let pos = pattern.positions_of(v)[0];
                layout.push((
                    v,
                    ColRef::Key {
                        key: order.key_index(pos),
                    },
                ));
            }
            for &v in &out_vars {
                let positions = pattern.positions_of(v);
                for pair in positions.windows(2) {
                    equalities.push((order.key_index(pair[0]), order.key_index(pair[1])));
                }
            }
            rows = scan_rows.len();
            sorted = scan_sort_var(pattern, *order);
        }
        SourceSpec::Slot(_) => {
            // invariant: `run_pipeline` takes the slot table before calling
            // `prepare` whenever the source is a slot.
            let table = source_table.expect("slot source taken");
            assert!(
                table.len() < u32::MAX as usize,
                "binding table exceeds u32 row indexing"
            );
            for (c, &v) in table.vars().iter().enumerate() {
                layout.push((
                    v,
                    ColRef::Col {
                        side: 0,
                        idx: c,
                        col: &table.columns()[c],
                        nullable: false,
                    },
                ));
            }
            scan_source = None;
            rows = table.len();
            sorted = table.sorted_by();
        }
    }

    let mut stages: Vec<PreparedStage<'a>> = Vec::with_capacity(p.stages.len());
    let mut side_count = 1usize;
    let mut builds = build_tables.iter();
    for stage in &p.stages {
        match stage {
            StageSpec::Filter { node, expr } => {
                let used: Vec<(Var, ColRef<'a>)> = expr
                    .vars()
                    .into_iter()
                    .filter_map(|v| {
                        layout
                            .iter()
                            .find(|&&(lv, _)| lv == v)
                            .map(|&(_, r)| (v, r))
                    })
                    .collect();
                stages.push(PreparedStage::Filter {
                    node: *node,
                    expr,
                    used,
                });
            }
            StageSpec::Probe {
                node, vars, outer, ..
            } => {
                // invariant: `run_pipeline` collects exactly one build
                // table per probe stage, in stage order.
                let bt = builds.next().expect("one build table per probe stage");
                let build_cols: Vec<&[TermId]> = vars.iter().map(|&v| bt.column(v)).collect();
                let (table, build_run) = BuildTable::build_par(&build_cols, bt.len(), &ctx.morsel);
                ctx.note_build(build_run);
                let key_refs: Vec<ColRef<'a>> = vars
                    .iter()
                    .map(|v| {
                        layout
                            .iter()
                            .find(|&&(lv, _)| lv == *v)
                            .map(|&(_, r)| r)
                            // invariant: `PhysicalPlan::validate` requires
                            // join variables bound by both inputs.
                            .expect("join variable bound by the pipeline (validated)")
                    })
                    .collect();
                let extra_checks: Vec<(ColRef<'a>, &[TermId])> = layout
                    .iter()
                    .filter(|&&(lv, _)| bt.vars().contains(&lv) && !vars.contains(&lv))
                    .map(|&(lv, r)| (r, bt.column(lv)))
                    .collect();
                // The build side's non-shared variables join the layout,
                // read through this probe's new side. An outer probe's
                // side may carry the unmatched-row sentinel, so its
                // columns are nullable.
                for (c, &v) in bt.vars().iter().enumerate() {
                    if !layout.iter().any(|&(lv, _)| lv == v) {
                        layout.push((
                            v,
                            ColRef::Col {
                                side: side_count,
                                idx: c,
                                col: &bt.columns()[c],
                                nullable: *outer,
                            },
                        ));
                    }
                }
                stages.push(PreparedStage::Probe {
                    node: *node,
                    table,
                    build_cols,
                    key_refs,
                    extra_checks,
                    outer: *outer,
                });
                side_count += 1;
                if *outer {
                    // UNBOUND padding may break any ordering — match the
                    // oracle's `left_outer_hash_join`.
                    sorted = None;
                }
            }
            StageSpec::Project { node, projection } => {
                // The projection happens entirely at prepare time: the
                // layout narrows to the projected variables (first
                // occurrence wins for duplicated names, like
                // `ops::project`), and the sink gathers only those.
                layout = narrow_layout(&layout, projection);
                sorted = sorted.filter(|v| layout.iter().any(|&(lv, _)| lv == *v));
                stages.push(PreparedStage::Project { node: *node });
            }
            StageSpec::Distinct { node, projection } => {
                // Same prepare-time narrowing as `Project`; the run-time
                // stage dedups each morsel over exactly these columns.
                layout = narrow_layout(&layout, projection);
                sorted = sorted.filter(|v| layout.iter().any(|&(lv, _)| lv == *v));
                let refs: Vec<ColRef<'a>> = layout.iter().map(|&(_, r)| r).collect();
                stages.push(PreparedStage::Distinct { node: *node, refs });
            }
        }
    }

    PreparedPipeline {
        scan_rows,
        scan_source,
        equalities,
        layout,
        stages,
        rows,
        sorted,
    }
}

/// Narrow a pipeline layout to a projection's variables, in projection
/// order, first occurrence winning for duplicated names — exactly
/// `ops::project`'s output layout.
fn narrow_layout<'a>(
    layout: &[(Var, ColRef<'a>)],
    projection: &[(String, Var)],
) -> Vec<(Var, ColRef<'a>)> {
    let mut narrowed: Vec<(Var, ColRef<'a>)> = Vec::new();
    for &(_, v) in projection {
        if !narrowed.iter().any(|&(lv, _)| lv == v) {
            let r = layout
                .iter()
                .find(|&&(lv, _)| lv == v)
                .map(|&(_, r)| r)
                // invariant: `PhysicalPlan::validate` requires projected
                // variables bound by the input.
                .expect("projected variable bound by the pipeline (validated)");
            narrowed.push((v, r));
        }
    }
    narrowed
}

/// Push one morsel of source rows through the whole stage chain,
/// thread-locally: every intermediate is a `u32` index vector per side.
/// With `defer_side0` (the hand-off column-move candidate) a side 0 that
/// stayed lazy end-to-end is left empty instead of being materialised —
/// the caller either never reads it (the move path) or reconstructs it
/// from the recorded range.
fn process_morsel(
    range: std::ops::Range<usize>,
    p: &PreparedPipeline<'_>,
    ds: &Dataset,
    evaluator: &hsp_sparql::Evaluator,
    scratch: &Scratch<'_>,
    defer_side0: bool,
) -> MorselOut {
    let range_start = range.start as u32;
    let mut counts = Vec::with_capacity(1 + p.stages.len());
    let mut sides: Vec<Vec<u32>> = Vec::with_capacity(4);

    // Source selection: the morsel's row range, minus scan rows violating
    // repeated-variable equalities (same order as the oracle's scan).
    // While nothing has been dropped, side 0 stays *lazy* (`ident`) — no
    // identity vector is materialised and reads off the source are
    // sequential.
    let mut ident: Option<u32> = None;
    let mut rows_now: usize;
    if p.equalities.is_empty() {
        ident = Some(range.start as u32);
        rows_now = range.len();
        sides.push(Vec::new()); // placeholder while side 0 is lazy
    } else {
        let mut sel: Vec<u32> = scratch.take_idx(range.len());
        sel.extend(
            range
                .filter(|&i| {
                    p.equalities
                        .iter()
                        .all(|&(a, b)| p.scan_rows[i][a] == p.scan_rows[i][b])
                })
                .map(|i| i as u32),
        );
        rows_now = sel.len();
        sides.push(sel);
    }
    counts.push(rows_now);

    for stage in &p.stages {
        match stage {
            PreparedStage::Filter { expr, used, .. } => {
                let n = rows_now;
                let keep: Vec<u32> = {
                    let view = View {
                        scan_rows: p.scan_rows,
                        sides: &sides,
                        ident,
                    };
                    // Gather only the columns the expression reads, then
                    // evaluate the row loop over contiguous scratch — the
                    // same memory shape the materialised FILTER sees.
                    let cols: Vec<Vec<TermId>> = used
                        .iter()
                        .map(|&(_, r)| view.gather(r, n, scratch))
                        .collect();
                    let surface = ScratchCols { used, cols: &cols };
                    let mut keep = scratch.take_idx(n);
                    keep.extend(
                        (0..n)
                            .filter(|&r| ops::eval_expr(ds, &surface, expr, r, evaluator))
                            .map(|r| r as u32),
                    );
                    for col in cols {
                        scratch.put_col(col);
                    }
                    keep
                };
                rows_now = keep.len();
                apply_keep(&mut sides, &keep, n, &mut ident, scratch);
                scratch.put_idx(keep);
            }
            PreparedStage::Probe {
                table,
                build_cols,
                key_refs,
                extra_checks,
                outer,
                ..
            } => {
                let n = rows_now;
                let (keep, matched) = {
                    let view = View {
                        scan_rows: p.scan_rows,
                        sides: &sides,
                        ident,
                    };
                    // Gather the key (and extra-check) values into
                    // contiguous thread-local scratch columns, then drive
                    // the shared probe loop over them — the same tight
                    // loop the operator-at-a-time join runs, minus the
                    // full-table materialisation around it.
                    let key_cols: Vec<Vec<TermId>> = key_refs
                        .iter()
                        .map(|&kr| view.gather(kr, n, scratch))
                        .collect();
                    let extra_cols: Vec<Vec<TermId>> = extra_checks
                        .iter()
                        .map(|&(lr, _)| view.gather(lr, n, scratch))
                        .collect();
                    let probe_cols: Vec<&[TermId]> = key_cols.iter().map(Vec::as_slice).collect();
                    let extra_pairs: Vec<(&[TermId], &[TermId])> = extra_cols
                        .iter()
                        .zip(extra_checks)
                        .map(|(l, &(_, rcol))| (l.as_slice(), rcol))
                        .collect();
                    let mut keep = scratch.take_idx(n);
                    let mut matched = scratch.take_idx(n);
                    if *outer {
                        // Left-outer: every probe row survives; unmatched
                        // ones pair with the sentinel (per probe row, so
                        // morsel stitching is unchanged).
                        table.probe_range_outer(
                            build_cols,
                            &probe_cols,
                            &extra_pairs,
                            0..n,
                            &mut keep,
                            &mut matched,
                        );
                    } else {
                        table.probe_range(
                            build_cols,
                            &probe_cols,
                            &extra_pairs,
                            0..n,
                            &mut keep,
                            &mut matched,
                        );
                    }
                    for col in key_cols {
                        scratch.put_col(col);
                    }
                    for col in extra_cols {
                        scratch.put_col(col);
                    }
                    (keep, matched)
                };
                rows_now = keep.len();
                apply_keep(&mut sides, &keep, n, &mut ident, scratch);
                scratch.put_idx(keep);
                sides.push(matched);
            }
            PreparedStage::Project { .. } => {
                // Pure layout change: no row dropped, no side touched —
                // the stage only reports its (unchanged) cardinality.
            }
            PreparedStage::Distinct { refs, .. } => {
                // Local phase of the streaming DISTINCT: keep this
                // morsel's first occurrence of each projected-row value.
                // The cross-morsel pass runs at the sink.
                let n = rows_now;
                let keep: Vec<u32> = if refs.is_empty() {
                    // Zero-column DISTINCT (everything projects away): at
                    // most one unit row survives per morsel.
                    if n > 0 {
                        vec![0]
                    } else {
                        Vec::new()
                    }
                } else {
                    let view = View {
                        scan_rows: p.scan_rows,
                        sides: &sides,
                        ident,
                    };
                    let cols: Vec<Vec<TermId>> =
                        refs.iter().map(|&r| view.gather(r, n, scratch)).collect();
                    let col_slices: Vec<&[TermId]> = cols.iter().map(Vec::as_slice).collect();
                    let keep = ops::distinct_first_occurrences(&col_slices, n);
                    for col in cols {
                        scratch.put_col(col);
                    }
                    keep
                };
                rows_now = keep.len();
                apply_keep(&mut sides, &keep, n, &mut ident, scratch);
            }
        }
        counts.push(rows_now);
    }
    let side0_identity = ident.is_some();
    // A chain that never dropped a row leaves side 0 lazy — materialise it
    // for the stitch and the sink, unless the caller deferred it (the
    // hand-off move path never reads an identity side 0).
    if let Some(start) = ident {
        if !defer_side0 {
            let mut sel = scratch.take_idx(rows_now);
            sel.extend(start..start + rows_now as u32);
            sides[0] = sel;
        }
    }
    MorselOut {
        sides,
        counts,
        side0_identity,
        start: range_start,
        rows: rows_now,
    }
}

/// Advance every side past a filtering stage: replace each side vector
/// with its values at the `keep` positions (`n` is the pre-stage row
/// count). A stage that kept every row exactly once (`keep` is the
/// identity — the common case for selective scans feeding 1:1 joins)
/// changes nothing, and a still-lazy side 0 materialises directly from
/// `keep` plus the range offset.
fn apply_keep(
    sides: &mut [Vec<u32>],
    keep: &[u32],
    n: usize,
    ident: &mut Option<u32>,
    scratch: &Scratch<'_>,
) {
    if keep.len() == n && keep.iter().enumerate().all(|(i, &k)| k as usize == i) {
        return;
    }
    let skip_side0 = if let Some(start) = *ident {
        let mut sel = scratch.take_idx(keep.len());
        sel.extend(keep.iter().map(|&k| start + k));
        sides[0] = sel;
        *ident = None;
        1
    } else {
        0
    };
    for side in sides.iter_mut().skip(skip_side0) {
        let mut gathered = scratch.take_idx(keep.len());
        gathered.extend(keep.iter().map(|&k| side[k as usize]));
        scratch.put_idx(std::mem::replace(side, gathered));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, execute_in, ExecConfig, ExecStrategy};
    use crate::morsel::MorselConfig;
    use hsp_rdf::Term;
    use hsp_sparql::{CmpOp, Operand, TermOrVar};

    /// A context that really splits unit-test-sized inputs across
    /// `threads` workers (single-row morsels, no sequential threshold).
    fn forced_ctx(threads: usize) -> ExecContext {
        ExecContext::with_morsel_config(
            MorselConfig::with_threads(threads)
                .with_min_parallel_rows(0)
                .with_morsel_rows(1),
        )
    }

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

    /// A filter-over-two-hash-joins chain: lowers to one pipeline with a
    /// probe and a filter stage plus two build breakers.
    fn chain_plan() -> PhysicalPlan {
        PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::HashJoin {
                left: Box::new(PhysicalPlan::HashJoin {
                    left: Box::new(scan(0, vv(0), cv("p"), vv(1), Order::Pso)),
                    right: Box::new(scan(1, vv(0), cv("q"), vv(2), Order::Pso)),
                    vars: vec![Var(0)],
                }),
                right: Box::new(scan(2, vv(1), cv("r"), vv(3), Order::Pso)),
                vars: vec![Var(1)],
            }),
            expr: FilterExpr::Cmp {
                op: CmpOp::Gt,
                lhs: Operand::Var(Var(2)),
                rhs: Operand::Const(Term::literal("4")),
            },
        }
    }

    #[test]
    fn lowering_splits_chain_into_one_pipeline_and_builds() {
        let plan = chain_plan();
        let program = lower(&plan);
        // Two build-side scans materialise; the probe chain is one pipeline.
        assert_eq!(program.pipeline_count(), 1);
        assert_eq!(program.steps.len(), 3);
        match program.steps.last().unwrap() {
            Step::Pipeline(p) => {
                assert!(matches!(p.source, SourceSpec::Scan { .. }));
                assert_eq!(p.stages.len(), 3); // probe, probe, filter
            }
            Step::Breaker { .. } => panic!("last step should be the probe pipeline"),
        }
    }

    #[test]
    fn pipeline_output_matches_oracle_byte_for_byte() {
        let ds = dataset();
        let plan = chain_plan();
        let oracle = execute(
            &plan,
            &ds,
            &ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime),
        )
        .unwrap();
        for threads in 1..=4 {
            let out = execute(&plan, &ds, &ExecConfig::unlimited().with_threads(threads)).unwrap();
            assert_eq!(out.table, oracle.table, "threads={threads}");
            assert!(out.runtime.pipelines > 0);
        }
    }

    #[test]
    fn pool_less_context_runs_on_the_default_pool_byte_identically() {
        let ds = dataset();
        let plan = chain_plan();
        let config = ExecConfig::unlimited();
        let sequential = execute_in(&plan, &ds, &config, &forced_ctx(1)).unwrap();
        assert_eq!(sequential.runtime.shared_pool_batches, 0);
        // No pool attached: the batches go to the process-default pool
        // (shared with other tests, hence only a lower bound on its stats).
        let ctx = forced_ctx(4);
        let before = ctx.morsel.pool().stats().batches;
        let parallel = execute_in(&plan, &ds, &config, &ctx).unwrap();
        assert_eq!(parallel.table, sequential.table);
        assert_eq!(
            parallel.profile.total_intermediate_rows(),
            sequential.profile.total_intermediate_rows()
        );
        let batches = parallel.runtime.shared_pool_batches as u64;
        assert!(batches > 0);
        assert!(ctx.morsel.pool().stats().batches >= before + batches);
    }

    #[test]
    fn pipeline_profile_matches_oracle_cardinalities() {
        let ds = dataset();
        let plan = chain_plan();
        let oracle = execute(
            &plan,
            &ds,
            &ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime),
        )
        .unwrap();
        let out = execute(&plan, &ds, &ExecConfig::unlimited()).unwrap();
        fn rows(p: &Profile) -> Vec<(String, usize)> {
            let mut out = Vec::new();
            p.visit(&mut |n| out.push((n.label.clone(), n.output_rows)));
            out
        }
        assert_eq!(rows(&out.profile), rows(&oracle.profile));
        assert_eq!(
            out.profile.total_intermediate_rows(),
            oracle.profile.total_intermediate_rows()
        );
    }

    #[test]
    fn pipeline_reports_avoided_intermediates() {
        let ds = dataset();
        let plan = chain_plan();
        let out = execute(&plan, &ds, &ExecConfig::unlimited()).unwrap();
        // The probe chain's scan + two join outputs stay as index vectors.
        assert!(out.runtime.pipeline_rows_avoided > 0);
        assert!(out.runtime.pipeline_morsels >= 1);
    }

    #[test]
    fn breaker_only_plans_still_run() {
        let ds = dataset();
        let plan = PhysicalPlan::Slice {
            input: Box::new(PhysicalPlan::MergeJoin {
                left: Box::new(scan(0, vv(0), cv("p"), vv(1), Order::Pso)),
                right: Box::new(scan(1, vv(0), cv("q"), vv(2), Order::Pso)),
                var: Var(0),
            }),
            offset: 0,
            limit: Some(2),
        };
        let oracle = execute(
            &plan,
            &ds,
            &ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime),
        )
        .unwrap();
        let out = execute(&plan, &ds, &ExecConfig::unlimited()).unwrap();
        assert_eq!(out.table, oracle.table);
        // No streaming chain here: everything materialises at breakers.
        assert_eq!(out.runtime.pipelines, 0);
        let program = lower(&plan);
        assert_eq!(program.pipeline_count(), 0);
    }

    #[test]
    fn distinct_streams_at_chain_top_and_matches_oracle() {
        let ds = dataset();
        // SELECT DISTINCT ?o over ?s p ?o: two subjects share object b1.
        let plan = PhysicalPlan::Project {
            input: Box::new(scan(0, vv(0), cv("p"), vv(1), Order::Pso)),
            projection: vec![("o".into(), Var(1))],
            distinct: true,
        };
        let program = lower(&plan);
        // Streams: one pipeline, no breaker at all.
        assert_eq!(program.pipeline_count(), 1);
        assert_eq!(program.steps.len(), 1);
        let oracle = execute(
            &plan,
            &ds,
            &ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime),
        )
        .unwrap();
        for threads in 1..=4 {
            let out =
                execute_in(&plan, &ds, &ExecConfig::unlimited(), &forced_ctx(threads)).unwrap();
            assert_eq!(out.table, oracle.table, "threads={threads}");
            assert!(out.runtime.distinct_streamed > 0, "threads={threads}");
        }
    }

    #[test]
    fn distinct_below_a_breaker_still_streams_in_its_subchain() {
        let ds = dataset();
        // LIMIT over DISTINCT: the Slice breaker seals the DISTINCT's
        // chain, so nothing is appended above it and it still streams.
        let plan = PhysicalPlan::Slice {
            input: Box::new(PhysicalPlan::Project {
                input: Box::new(scan(0, vv(0), cv("p"), vv(1), Order::Pso)),
                projection: vec![("o".into(), Var(1))],
                distinct: true,
            }),
            offset: 0,
            limit: Some(1),
        };
        let program = lower(&plan);
        assert_eq!(program.pipeline_count(), 1);
        let oracle = execute(
            &plan,
            &ds,
            &ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime),
        )
        .unwrap();
        let out = execute(&plan, &ds, &ExecConfig::unlimited()).unwrap();
        assert_eq!(out.table, oracle.table);
        assert!(out.runtime.distinct_streamed > 0);
    }

    #[test]
    fn aggregate_breaker_matches_reference_at_all_thread_counts() {
        let ds = dataset();
        // γ{?s} COUNT(?o) over ?s p ?o.
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(scan(0, vv(0), cv("p"), vv(1), Order::Pso)),
            group_by: vec![Var(0)],
            aggs: vec![hsp_sparql::AggSpec {
                func: hsp_sparql::AggFunc::Count,
                arg: Some(Var(1)),
                distinct: false,
                out: Var(2),
                name: "n".into(),
            }],
            having: None,
        };
        let oracle = execute(
            &plan,
            &ds,
            &ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime),
        )
        .unwrap();
        assert_eq!(oracle.table.len(), 2); // a1 → 2, a2 → 1
        for threads in 1..=4 {
            let out =
                execute_in(&plan, &ds, &ExecConfig::unlimited(), &forced_ctx(threads)).unwrap();
            assert_eq!(out.table, oracle.table, "threads={threads}");
            assert_eq!(out.runtime.aggregate_groups, 2, "threads={threads}");
            if threads > 1 {
                assert!(out.runtime.parallel_aggregates > 0, "threads={threads}");
            }
        }
    }

    #[test]
    fn unknown_constant_scan_matches_oracle_empty_output() {
        let ds = dataset();
        let plan = PhysicalPlan::Filter {
            input: Box::new(scan(0, vv(0), cv("nope"), vv(1), Order::Pso)),
            expr: FilterExpr::Cmp {
                op: CmpOp::Eq,
                lhs: Operand::Var(Var(0)),
                rhs: Operand::Var(Var(1)),
            },
        };
        let oracle = execute(
            &plan,
            &ds,
            &ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime),
        )
        .unwrap();
        let out = execute(&plan, &ds, &ExecConfig::unlimited()).unwrap();
        assert_eq!(out.table, oracle.table);
        assert_eq!(out.table.sorted_by(), Some(Var(0)));
    }

    #[test]
    fn repeated_variable_scan_streams_through_filter() {
        // ?x p ?x under a filter: the repeated-variable equality applies in
        // the pipeline source.
        let ds = Dataset::from_ntriples(
            r#"<http://e/a> <http://e/p> <http://e/a> .
<http://e/a> <http://e/p> <http://e/b> .
<http://e/b> <http://e/p> <http://e/b> .
"#,
        )
        .unwrap();
        let plan = PhysicalPlan::Filter {
            input: Box::new(scan(0, vv(0), cv("p"), vv(0), Order::Pso)),
            expr: FilterExpr::Cmp {
                op: CmpOp::Ne,
                lhs: Operand::Var(Var(0)),
                rhs: Operand::Const(Term::iri("http://e/zzz")),
            },
        };
        let oracle = execute(
            &plan,
            &ds,
            &ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime),
        )
        .unwrap();
        let out = execute(&plan, &ds, &ExecConfig::unlimited()).unwrap();
        assert_eq!(out.table, oracle.table);
        assert_eq!(out.table.len(), 2);
    }

    #[test]
    fn outer_probe_pipeline_matches_oracle() {
        // ?a p ?b OPTIONAL { ?b r ?c }: b2 has no r-edge, so its rows
        // survive with UNBOUND padding.
        let ds = dataset();
        let plan = PhysicalPlan::LeftOuterHashJoin {
            left: Box::new(scan(0, vv(0), cv("p"), vv(1), Order::Pso)),
            right: Box::new(scan(1, vv(1), cv("r"), vv(2), Order::Pso)),
            vars: vec![Var(1)],
        };
        let oracle = execute(
            &plan,
            &ds,
            &ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime),
        )
        .unwrap();
        assert_eq!(oracle.table.len(), 3); // every p-row survives
        for threads in 1..=4 {
            let out = execute(&plan, &ds, &ExecConfig::unlimited().with_threads(threads)).unwrap();
            assert_eq!(out.table, oracle.table, "threads={threads}");
            assert!(out.runtime.pipelines > 0);
            assert!(out.runtime.pipeline_outer_probes > 0);
        }
    }

    #[test]
    fn outer_probe_feeds_downstream_filter_stage() {
        // FILTER over an OPTIONAL's output: the filter stage reads a
        // nullable column (UNBOUND comparisons are false, per SPARQL).
        let ds = dataset();
        let plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::LeftOuterHashJoin {
                left: Box::new(scan(0, vv(0), cv("p"), vv(1), Order::Pso)),
                right: Box::new(scan(1, vv(1), cv("r"), vv(2), Order::Pso)),
                vars: vec![Var(1)],
            }),
            expr: FilterExpr::Cmp {
                op: CmpOp::Ne,
                lhs: Operand::Var(Var(2)),
                rhs: Operand::Const(Term::literal("zzz")),
            },
        };
        let oracle = execute(
            &plan,
            &ds,
            &ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime),
        )
        .unwrap();
        for threads in 1..=4 {
            let out = execute(&plan, &ds, &ExecConfig::unlimited().with_threads(threads)).unwrap();
            assert_eq!(out.table, oracle.table, "threads={threads}");
        }
    }

    #[test]
    fn union_and_keyless_outer_join_break_and_match_the_oracle() {
        let ds = dataset();
        let p_rows = || Box::new(scan(0, vv(0), cv("p"), vv(1), Order::Pso));
        let plans = [
            // Branches binding different variables: UNBOUND padding.
            PhysicalPlan::Union {
                left: p_rows(),
                right: Box::new(scan(1, vv(0), cv("q"), vv(2), Order::Pso)),
            },
            // No shared variable: every pairing (3 × 1) …
            PhysicalPlan::LeftOuterHashJoin {
                left: p_rows(),
                right: Box::new(scan(1, vv(2), cv("r"), vv(3), Order::Pso)),
                vars: vec![],
            },
            // … or, over an empty right side, the left rows padded.
            PhysicalPlan::LeftOuterHashJoin {
                left: p_rows(),
                right: Box::new(scan(1, vv(2), cv("nope"), vv(3), Order::Pso)),
                vars: vec![],
            },
        ];
        for (plan, rows) in plans.iter().zip([5, 3, 3]) {
            assert_eq!(lower(plan).pipeline_count(), 0, "two scans and a breaker");
            let oracle = execute(
                plan,
                &ds,
                &ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime),
            )
            .unwrap();
            assert_eq!(oracle.table.len(), rows);
            for threads in 1..=4 {
                let out =
                    execute_in(plan, &ds, &ExecConfig::unlimited(), &forced_ctx(threads)).unwrap();
                assert_eq!(out.table, oracle.table, "threads={threads}");
                assert_eq!(
                    out.profile.total_intermediate_rows(),
                    oracle.profile.total_intermediate_rows()
                );
            }
        }
    }

    #[test]
    fn plain_root_projection_streams_through_the_sink() {
        // π over the probe chain: no Project breaker — the projection is
        // a stage and the sink gathers only the projected columns.
        let ds = dataset();
        let plan = PhysicalPlan::Project {
            input: Box::new(chain_plan()),
            projection: vec![("a".into(), Var(0)), ("y".into(), Var(2))],
            distinct: false,
        };
        let program = lower(&plan);
        assert_eq!(program.pipeline_count(), 1);
        assert!(
            !program.steps.iter().any(|s| matches!(
                s,
                Step::Breaker {
                    op: BreakerOp::Project { .. },
                    ..
                }
            )),
            "plain projection must not lower as a breaker"
        );
        let oracle = execute(
            &plan,
            &ds,
            &ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime),
        )
        .unwrap();
        for threads in 1..=4 {
            let out = execute(&plan, &ds, &ExecConfig::unlimited().with_threads(threads)).unwrap();
            assert_eq!(out.table, oracle.table, "threads={threads}");
            // The projection's input (the filter output) is no longer
            // materialised: it shows up in the avoided-rows counter.
            assert!(out.runtime.pipelines > 0);
        }
        let out = execute(&plan, &ds, &ExecConfig::unlimited()).unwrap();
        fn rows(p: &Profile) -> Vec<(String, usize)> {
            let mut out = Vec::new();
            p.visit(&mut |n| out.push((n.label.clone(), n.output_rows)));
            out
        }
        assert_eq!(rows(&out.profile), rows(&oracle.profile));
    }

    #[test]
    fn empty_plain_projection_yields_unit_rows() {
        let ds = dataset();
        let plan = PhysicalPlan::Project {
            input: Box::new(scan(0, vv(0), cv("p"), vv(1), Order::Pso)),
            projection: vec![],
            distinct: false,
        };
        let oracle = execute(
            &plan,
            &ds,
            &ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime),
        )
        .unwrap();
        let out = execute(&plan, &ds, &ExecConfig::unlimited()).unwrap();
        assert_eq!(out.table, oracle.table);
        assert_eq!(out.table.len(), 3);
        assert!(out.table.vars().is_empty());
    }

    #[test]
    fn single_consumer_breaker_hands_off_to_projection() {
        // π(mergejoin(...)): the merge join's output has exactly one
        // consumer (the projection pipeline's source), so it is handed
        // off and its projected columns move into the sink.
        let ds = dataset();
        let plan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::MergeJoin {
                left: Box::new(scan(0, vv(0), cv("p"), vv(1), Order::Pso)),
                right: Box::new(scan(1, vv(0), cv("q"), vv(2), Order::Pso)),
                var: Var(0),
            }),
            projection: vec![("s".into(), Var(0)), ("o".into(), Var(1))],
            distinct: false,
        };
        let oracle = execute(
            &plan,
            &ds,
            &ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime),
        )
        .unwrap();
        for threads in 1..=4 {
            let out = execute(&plan, &ds, &ExecConfig::unlimited().with_threads(threads)).unwrap();
            assert_eq!(out.table, oracle.table, "threads={threads}");
            assert!(
                out.runtime.breaker_handoffs > 0,
                "merge-join output should hand off: {:?}",
                out.runtime
            );
        }
    }

    #[test]
    fn handoff_survives_a_dropping_filter_between() {
        // σ(mergejoin(...)) as a pipeline: the filter drops rows, so the
        // hand-off falls back to the gather path — output must still match.
        let ds = dataset();
        let plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::MergeJoin {
                left: Box::new(scan(0, vv(0), cv("p"), vv(1), Order::Pso)),
                right: Box::new(scan(1, vv(0), cv("q"), vv(2), Order::Pso)),
                var: Var(0),
            }),
            expr: FilterExpr::Cmp {
                op: CmpOp::Gt,
                lhs: Operand::Var(Var(2)),
                rhs: Operand::Const(Term::literal("6")),
            },
        };
        let oracle = execute(
            &plan,
            &ds,
            &ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime),
        )
        .unwrap();
        let out = execute(&plan, &ds, &ExecConfig::unlimited()).unwrap();
        assert_eq!(out.table, oracle.table);
        assert!(out.runtime.breaker_handoffs > 0);
    }

    #[test]
    fn dag_renders_outer_probe_projection_and_handoff() {
        let plan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::LeftOuterHashJoin {
                left: Box::new(PhysicalPlan::MergeJoin {
                    left: Box::new(scan(0, vv(0), cv("p"), vv(1), Order::Pso)),
                    right: Box::new(scan(1, vv(0), cv("q"), vv(2), Order::Pso)),
                    var: Var(0),
                }),
                right: Box::new(scan(2, vv(1), cv("r"), vv(3), Order::Pso)),
                vars: vec![Var(1)],
            }),
            projection: vec![("a".into(), Var(0)), ("d".into(), Var(3))],
            distinct: false,
        };
        let query = hsp_sparql::JoinQuery::parse(
            "SELECT ?a WHERE { ?a <http://e/p> ?b . ?a <http://e/q> ?c . ?b <http://e/r> ?d . }",
        )
        .unwrap();
        let program = lower(&plan);
        let dag = program.render(&query);
        assert!(dag.contains("⟕hj"), "{dag}");
        assert!(dag.contains("→ π ?a,?d"), "{dag}");
        assert!(dag.contains("[handoff]"), "{dag}");
    }

    #[test]
    fn dag_renders_pipelines_and_breakers() {
        let plan = chain_plan();
        let query = hsp_sparql::JoinQuery::parse(
            "SELECT ?a WHERE { ?a <http://e/p> ?b . ?a <http://e/q> ?c . ?b <http://e/r> ?d . }",
        )
        .unwrap();
        let program = lower(&plan);
        let dag = program.render(&query);
        assert!(dag.contains("pipeline DAG"), "{dag}");
        assert!(dag.contains("← pipeline:"), "{dag}");
        assert!(dag.contains("← breaker:"), "{dag}");
        assert!(dag.contains("⋈hj"), "{dag}");
        assert!(dag.contains("→ sink"), "{dag}");
        assert!(dag.contains("result: s"), "{dag}");
    }
}
