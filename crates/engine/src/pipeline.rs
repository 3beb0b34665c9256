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
//!   source is a scan, a merge block, or a breaker's materialised output,
//!   the stages are the streaming operators — FILTER, hash-join *probes*
//!   (inner **and left-outer**: [`BuildTable::probe_range_outer`] emits the
//!   unmatched-row sentinel per probe row, so morsel stitching is
//!   unchanged), and plain projection (a pure layout change folded into
//!   the stage chain and ultimately the sink gather) — and the sink is
//!   the single materialisation point. Everything that must see its whole
//!   input before emitting a row is a *breaker* and becomes its own step,
//!   run on the coordinating thread: the hash-join **build** side, a
//!   merge join with a non-leaf side (a sort-enforced input, a bushy
//!   tree), cross product (and the keyless left-outer join, which pairs
//!   like one), UNION, the sort order-enforcer, a constant `bind`, ORDER
//!   BY, grouped aggregation (the γ fold of [`crate::aggregate`]), and
//!   LIMIT/OFFSET. DISTINCT, once a breaker, now **streams**: each morsel dedups its projected
//!   rows locally, and the sink finishes with one global first-occurrence
//!   pass over the gathered output — order-preserving, so the result is
//!   byte-identical to the global dedup (a DISTINCT that is *not* the top
//!   of its chain still materialises, since later stages must see the
//!   deduped rows).
//! * **Merge blocks**: the paper's unit of plan — a left-deep run of merge
//!   joins on one variable over scan leaves
//!   ([`PhysicalPlan::merge_block_leaves`]) — is one source, a k-way sorted
//!   intersection straight over the leaves' ordered relations (the unary
//!   case of leapfrog triejoin). Leaf 0 (the H1-first) drives, the other
//!   leaves gallop to each driver key ([`crate::kernel::gallop`]), and a
//!   key present in every leaf emits the product of its equal-key groups
//!   in the binary chain's row order, as one index vector per leaf. No
//!   leaf and no join output is materialised.
//! * **Breaker hand-off**: a breaker whose output slot is consumed by
//!   exactly one pipeline *source* is *handed off* — the materialised
//!   table moves straight into that pipeline (counted as
//!   [`RuntimeMetrics::breaker_handoffs`](crate::metrics::RuntimeMetrics::breaker_handoffs)),
//!   and when no stage drops a row the sink **moves** the handed columns
//!   into the output instead of gathering copies.
//! * **Execution** ([`Program::run`]) walks the steps in dependency order
//!   (lowering emits them topologically). A pipeline pushes its source
//!   through the whole stage chain **morsel at a time** on the
//!   [`crate::morsel`] pool: each worker carries only thread-local `u32`
//!   index vectors — one per *side* (the source, or each merge-block leaf
//!   a later stage reads, plus each probed build table) — through the
//!   stages, so the rows between operators are never gathered into
//!   columns. Per-morsel index vectors stitch back in morsel order (so
//!   the result is byte-identical to the oracle; a merge block's morsels
//!   are plain driver ranges, since its driver is the outermost loop of
//!   every product), and the sink gathers each output column exactly
//!   once.
//!
//! What the oracle would have materialised between the pipeline's
//! operators is reported as
//! [`RuntimeMetrics::pipeline_rows_avoided`](crate::metrics::RuntimeMetrics::pipeline_rows_avoided);
//! per-operator output cardinalities are still counted exactly, so the
//! produced [`Profile`] matches the oracle's row for row — a merge block
//! counts every join of its chain per key (Σ over keys of the product of
//! the group sizes up to that join), rows it never emits included.
//!
//! The only resource guard is the governor's ([`crate::govern`]): a
//! deadline, a memory budget over the materialised slots, and a cancel
//! token, consulted at every breaker and morsel claim. A Cartesian
//! product's size is known exactly up front, so one that would not fit
//! the memory budget is refused before it materialises.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hsp_rdf::{IdTriple, Term, TermId};
use hsp_sparql::{AggSpec, FilterExpr, TriplePattern, Var};
use hsp_store::{Dataset, Order, OrderScan, StorageBackend};

use crate::binding::BindingTable;
use crate::exec::{plan_label, ExecError, Profile};
use crate::govern::QueryGovernor;
use crate::kernel::{gallop, BuildTable};
use crate::morsel;
use crate::ops::{self, RowValues};
use crate::plan::{scan_sort_var, PhysicalPlan};
use crate::pool::ExecContext;

/// A plan node's identity: its pre-order position in the plan tree.
/// Lowering numbers the nodes as it descends — a node's first child is the
/// next id, its second child follows the first child's subtree — so no
/// table from node to id is ever built.
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
    Bind {
        input: SlotId,
        bindings: &'p [(Var, Term)],
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
    /// Grouped aggregation (γ): the fold of [`crate::aggregate`] into one
    /// grouped state, finalised into one row per group.
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

impl BreakerOp<'_> {
    /// The slots this breaker consumes: none for a scan, one or two.
    fn inputs(&self) -> [Option<SlotId>; 2] {
        match *self {
            BreakerOp::Scan { .. } => [None, None],
            BreakerOp::MergeJoin { left, right, .. }
            | BreakerOp::CrossProduct { left, right, .. }
            | BreakerOp::Union { left, right } => [Some(left), Some(right)],
            BreakerOp::Sort { input, .. }
            | BreakerOp::Bind { input, .. }
            | BreakerOp::Project { input, .. }
            | BreakerOp::OrderBy { input, .. }
            | BreakerOp::HashAggregate { input, .. }
            | BreakerOp::Slice { input, .. } => [Some(input), None],
        }
    }
}

struct Pipeline<'p> {
    source: SourceSpec<'p>,
    stages: Vec<StageSpec<'p>>,
    out: SlotId,
}

enum SourceSpec<'p> {
    /// Stream straight out of an ordered relation.
    Scan(ScanLeaf<'p>),
    /// A merge block: a left-deep run of merge joins on `var` whose every
    /// input is a scan leaf, streamed as one k-way sorted intersection
    /// ([`merge_block_morsel`]). `top` is the block's topmost join; the
    /// join that brings in `leaves[j]` is [`block_join`]`(top, k, j)`.
    MergeBlock {
        var: Var,
        leaves: Vec<ScanLeaf<'p>>,
        top: NodeId,
    },
    /// Stream a breaker's materialised output.
    Slot(SlotId),
}

/// One scan leaf of a pipeline source.
struct ScanLeaf<'p> {
    node: NodeId,
    pattern: &'p TriplePattern,
    order: Order,
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
    let mut lowerer = Lowerer {
        steps: Vec::new(),
        slot_count: 0,
    };
    let chain = lowerer.chain(plan, 0, true);
    let root = lowerer.seal(chain);
    Program {
        plan,
        steps: lowerer.steps,
        slot_count: lowerer.slot_count,
        node_count: node_count(plan),
        root,
    }
}

/// Nodes in the plan tree: the pre-order id its last node gets, plus one.
fn node_count(plan: &PhysicalPlan) -> usize {
    let mut n = 0;
    plan.visit(&mut |_| n += 1);
    n
}

/// The pre-order id of the merge-block join that brings in leaf `j`
/// (`1 ≤ j < k`) of a `k`-leaf block whose topmost join is `top`: the
/// joins form the left spine under `top`, so the deepest one — the first
/// join — comes last, right before leaf 0.
fn block_join(top: NodeId, k: usize, j: usize) -> NodeId {
    top + k - 1 - j
}

/// A pipeline under construction: a source plus the streaming stages
/// accumulated so far (not yet sealed into a step).
struct Chain<'p> {
    source: SourceSpec<'p>,
    stages: Vec<StageSpec<'p>>,
}

impl<'p> Chain<'p> {
    /// A stage-less chain over `source`.
    fn of(source: SourceSpec<'p>) -> Self {
        Chain {
            source,
            stages: Vec::new(),
        }
    }
}

struct Lowerer<'p> {
    steps: Vec<Step<'p>>,
    slot_count: usize,
}

impl<'p> Lowerer<'p> {
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

    /// A chain whose source is a breaker's output slot.
    fn breaker_chain(&mut self, node: NodeId, op: BreakerOp<'p>) -> Chain<'p> {
        Chain::of(SourceSpec::Slot(self.push_breaker(node, op)))
    }

    /// Lower `plan`, whose pre-order id is `node`, into an open chain,
    /// emitting breaker steps for every sub-plan that must materialise (the
    /// classification is [`PhysicalPlan::is_pipeline_breaker`]; the match
    /// below must agree with it).
    ///
    /// `last` is true when the caller will append no further stages to the
    /// returned chain — the condition under which a DISTINCT projection may
    /// stream (dedup per morsel, global pass at the sink) instead of
    /// materialising: nothing downstream in the same chain ever observes
    /// the not-yet-globally-deduped rows.
    fn chain(&mut self, plan: &'p PhysicalPlan, node: NodeId, last: bool) -> Chain<'p> {
        let block = plan.merge_block_len();
        debug_assert_eq!(
            plan.is_pipeline_breaker(),
            !(matches!(
                plan,
                PhysicalPlan::Scan { .. }
                    | PhysicalPlan::Filter { .. }
                    | PhysicalPlan::Project { .. }
            ) || block.is_some()),
            "lowering must agree with the breaker classification"
        );
        // Pre-order ids: the first child follows its parent, the second
        // child follows the first child's subtree.
        let first = node + 1;
        let second = |left: &PhysicalPlan| first + node_count(left);
        if let (Some(k), PhysicalPlan::MergeJoin { var, .. }) = (block, plan) {
            // A merge block: one streaming source over all its leaves —
            // leaf 0 at the bottom of the left spine, then each join's
            // right leaf. Every node below the top is a join or a scan, so
            // leaf `j`'s id is `node + k - 1 + j`.
            let mut leaves = Vec::with_capacity(k);
            let mut spine = plan;
            while let PhysicalPlan::MergeJoin { left, right, .. } = spine {
                leaves.push(&**right);
                spine = left;
            }
            leaves.push(spine);
            leaves.reverse();
            let leaves = leaves
                .into_iter()
                .enumerate()
                .map(|(j, leaf)| scan_leaf(leaf, node + k - 1 + j))
                .collect();
            return Chain::of(SourceSpec::MergeBlock {
                var: *var,
                leaves,
                top: node,
            });
        }
        match plan {
            PhysicalPlan::Scan { pattern, order, .. } => {
                if pattern.slots.iter().all(|s| s.as_var().is_none()) {
                    // A fully ground pattern produces unit rows — nothing
                    // to stream; materialise it like a breaker.
                    self.breaker_chain(
                        node,
                        BreakerOp::Scan {
                            pattern,
                            order: *order,
                        },
                    )
                } else {
                    Chain::of(SourceSpec::Scan(scan_leaf(plan, node)))
                }
            }
            PhysicalPlan::Filter { input, expr } => {
                let mut chain = self.chain(input, first, false);
                chain.stages.push(StageSpec::Filter { node, expr });
                chain
            }
            PhysicalPlan::HashJoin { left, right, vars } => {
                // The build side is the breaker: seal it, then keep
                // streaming the probe side through a probe stage.
                let build = self.seal_subplan(right, second(left));
                let mut chain = self.chain(left, first, false);
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
                let r = self.seal_subplan(right, second(left));
                let l = self.seal_subplan(left, first);
                self.breaker_chain(
                    node,
                    BreakerOp::CrossProduct {
                        left: l,
                        right: r,
                        outer: true,
                    },
                )
            }
            PhysicalPlan::LeftOuterHashJoin { left, right, vars } => {
                // Same shape as the inner join: the optional side builds,
                // the preserved side streams through an *outer* probe —
                // `probe_range_outer` emits the UNBOUND sentinel per
                // unmatched probe row, so per-morsel outputs still stitch
                // deterministically.
                let build = self.seal_subplan(right, second(left));
                let mut chain = self.chain(left, first, false);
                chain.stages.push(StageSpec::Probe {
                    node,
                    build,
                    vars,
                    outer: true,
                });
                chain
            }
            PhysicalPlan::MergeJoin { left, right, var } => {
                // A side that is not a scan leaf (a sort-enforced input, a
                // bushy subtree): both sides materialise, sorted.
                let l = self.seal_subplan(left, first);
                let r = self.seal_subplan(right, second(left));
                self.breaker_chain(
                    node,
                    BreakerOp::MergeJoin {
                        left: l,
                        right: r,
                        var: *var,
                    },
                )
            }
            PhysicalPlan::CrossProduct { left, right } => {
                let l = self.seal_subplan(left, first);
                let r = self.seal_subplan(right, second(left));
                self.breaker_chain(
                    node,
                    BreakerOp::CrossProduct {
                        left: l,
                        right: r,
                        outer: false,
                    },
                )
            }
            PhysicalPlan::Union { left, right } => {
                let l = self.seal_subplan(left, first);
                let r = self.seal_subplan(right, second(left));
                self.breaker_chain(node, BreakerOp::Union { left: l, right: r })
            }
            PhysicalPlan::Sort { input, var } => {
                let i = self.seal_subplan(input, first);
                self.breaker_chain(
                    node,
                    BreakerOp::Sort {
                        input: i,
                        var: *var,
                    },
                )
            }
            PhysicalPlan::Bind { input, bindings } => {
                let i = self.seal_subplan(input, first);
                self.breaker_chain(node, BreakerOp::Bind { input: i, bindings })
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
                    let i = self.seal_subplan(input, first);
                    self.breaker_chain(
                        node,
                        BreakerOp::Project {
                            input: i,
                            projection,
                            distinct: true,
                        },
                    )
                } else if *distinct {
                    // Streaming DISTINCT: narrow the layout and dedup each
                    // morsel locally; the sink finishes with one global
                    // first-occurrence pass. Order-preserving at both
                    // phases, so the output is byte-identical to the old
                    // materialising breaker.
                    let mut chain = self.chain(input, first, false);
                    chain.stages.push(StageSpec::Distinct { node, projection });
                    chain
                } else {
                    // Plain projection is a layout change, not row work:
                    // fold it into the chain so the sink gathers only the
                    // projected columns and the pre-projection width is
                    // never materialised.
                    let mut chain = self.chain(input, first, false);
                    chain.stages.push(StageSpec::Project { node, projection });
                    chain
                }
            }
            PhysicalPlan::OrderBy { input, keys } => {
                let i = self.seal_subplan(input, first);
                self.breaker_chain(node, BreakerOp::OrderBy { input: i, keys })
            }
            PhysicalPlan::HashAggregate {
                input,
                group_by,
                aggs,
                having,
            } => {
                let i = self.seal_subplan(input, first);
                self.breaker_chain(
                    node,
                    BreakerOp::HashAggregate {
                        input: i,
                        group_by,
                        aggs,
                        having: having.as_ref(),
                    },
                )
            }
            PhysicalPlan::Slice {
                input,
                offset,
                limit,
            } => {
                let i = self.seal_subplan(input, first);
                self.breaker_chain(
                    node,
                    BreakerOp::Slice {
                        input: i,
                        offset: *offset,
                        limit: *limit,
                    },
                )
            }
        }
    }

    fn seal_subplan(&mut self, plan: &'p PhysicalPlan, node: NodeId) -> SlotId {
        // A sealed sub-plan is the whole chain: nothing is appended above
        // it, so a DISTINCT at its top may stream (`last == true`).
        let chain = self.chain(plan, node, true);
        self.seal(chain)
    }

    /// Close an open chain into a slot: an already-materialised stage-less
    /// chain is its slot; a stage-less scan materialises directly; anything
    /// else (a merge block included) becomes a pipeline step.
    fn seal(&mut self, chain: Chain<'p>) -> SlotId {
        if chain.stages.is_empty() {
            match chain.source {
                SourceSpec::Slot(slot) => return slot,
                SourceSpec::Scan(ScanLeaf {
                    node,
                    pattern,
                    order,
                }) => return self.push_breaker(node, BreakerOp::Scan { pattern, order }),
                SourceSpec::MergeBlock { .. } => {}
            }
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

/// The scan leaf of scan node `plan`, whose pre-order id is `node`.
fn scan_leaf(plan: &PhysicalPlan, node: NodeId) -> ScanLeaf<'_> {
    let PhysicalPlan::Scan { pattern, order, .. } = plan else {
        // invariant: callers pass scan nodes only (a scan arm, or a leaf of
        // a merge block).
        unreachable!("scan leaf expected");
    };
    ScanLeaf {
        node,
        pattern,
        order: *order,
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

    /// Whether slot `slot` is *handed off*: its one consumer is a
    /// pipeline's source, so the producing step's table moves straight into
    /// that pipeline instead of round-tripping through the slot array's
    /// generic path (enabling the sink's column-move fast path).
    fn handed_off(&self, slot: SlotId) -> bool {
        let (mut consumers, mut as_source) = (0, 0);
        for step in &self.steps {
            match step {
                Step::Breaker { op, .. } => {
                    consumers += op.inputs().iter().filter(|&&s| s == Some(slot)).count();
                }
                Step::Pipeline(p) => {
                    if matches!(p.source, SourceSpec::Slot(s) if s == slot) {
                        consumers += 1;
                        as_source += 1;
                    }
                    consumers += p
                        .stages
                        .iter()
                        .filter(|s| matches!(s, StageSpec::Probe { build, .. } if *build == slot))
                        .count();
                }
            }
        }
        consumers == 1 && as_source == 1
    }

    /// Execute the program, producing the final table and a per-operator
    /// [`Profile`] mirroring the plan tree, with exact output
    /// cardinalities — counted into one slot per node, in pre-order, and
    /// shaped into the tree once the steps are done.
    ///
    /// With a governor attached to `ctx`, every breaker step and every
    /// morsel claim is a cooperative checkpoint; an error drains every
    /// filled slot through [`ExecContext::release`], so a cancelled or
    /// failed execution leaves the memory accounting at zero.
    pub fn run(
        &self,
        ds: &Dataset,
        ctx: &ExecContext,
    ) -> Result<(BindingTable, Profile), ExecError> {
        let mut slots: Vec<Option<BindingTable>> = (0..self.slot_count).map(|_| None).collect();
        let mut rows = vec![0; self.node_count];
        if let Err(e) = self.run_steps(ds, ctx, &mut slots, &mut rows) {
            for slot in slots.iter_mut() {
                if let Some(t) = slot.take() {
                    ctx.release(t);
                }
            }
            return Err(e);
        }
        // invariant: `lower` emits steps in topological order and the last
        // one fills `self.root` — every `expect` on slot contents in this
        // module rests on that ordering.
        let table = slots[self.root].take().expect("root slot filled");
        let profile = build_profile(self.plan, &rows, &mut 0);
        Ok((table, profile))
    }

    fn run_steps(
        &self,
        ds: &Dataset,
        ctx: &ExecContext,
        slots: &mut [Option<BindingTable>],
        rows: &mut [usize],
    ) -> Result<(), ExecError> {
        for step in &self.steps {
            match step {
                Step::Breaker { node, out, op } => {
                    // A Cartesian product's output size is known exactly up
                    // front: refuse it *before* materialising when it cannot
                    // fit the memory budget.
                    if let BreakerOp::CrossProduct { left, right, outer } = op {
                        let lt = slots[*left].as_ref().expect("input slot filled before use");
                        let rt = slots[*right]
                            .as_ref()
                            .expect("input slot filled before use");
                        let bytes = ops::product_rows(lt.len(), rt.len(), *outer)
                            .saturating_mul(lt.vars().len() + rt.vars().len())
                            .saturating_mul(std::mem::size_of::<TermId>());
                        ctx.reserve_check(bytes, "crossproduct")?;
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
                    rows[*node] = table.len();
                    // A kernel that bailed out early on `governor_poll`
                    // (the cross product) returned an empty placeholder
                    // table: surface the trip instead of storing it and
                    // drop the placeholder (it was never charged).
                    if let Some(e) = ctx.governor().and_then(QueryGovernor::trip_error) {
                        for t in consumed.into_iter().flatten() {
                            ctx.release(t);
                        }
                        drop(table);
                        return Err(e.into());
                    }
                    for t in consumed.into_iter().flatten() {
                        ctx.release(t);
                    }
                    if let Err(e) = ctx.charge_table(&table, "breaker") {
                        ctx.release(table);
                        return Err(e.into());
                    }
                    slots[*out] = Some(table);
                }
                Step::Pipeline(p) => {
                    // Single-consumer breaker hand-off: the source table
                    // was produced for this pipeline alone, so the sink
                    // may move its columns instead of gathering copies.
                    let handed_off = matches!(p.source, SourceSpec::Slot(s) if self.handed_off(s));
                    if handed_off {
                        ctx.note_handoff();
                    }
                    run_pipeline(p, ds, ctx, slots, rows, handed_off)?;
                }
            }
        }
        Ok(())
    }

    /// Render the pipeline DAG as text: one line per step, slots named
    /// `s0, s1, …`, pipelines shown as `source → stage → … → sink` (a
    /// merge-block source as `⋈k ?var [leaf scans]`).
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
                        BreakerOp::Bind { input, bindings } => format!(
                            "{} (s{input})",
                            crate::explain::describe_bind(bindings, query)
                        ),
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
                    let mark = if self.handed_off(*slot) {
                        " [handoff]"
                    } else {
                        ""
                    };
                    let _ = writeln!(out, "  s{slot} ← breaker: {desc}{mark}");
                }
                Step::Pipeline(p) => {
                    let mut line = format!("  s{} ← pipeline: ", p.out);
                    match &p.source {
                        SourceSpec::Scan(leaf) => {
                            line.push_str(&scan_desc(leaf.pattern, leaf.order));
                        }
                        SourceSpec::MergeBlock { var, leaves, .. } => {
                            let scans: Vec<String> = leaves
                                .iter()
                                .map(|l| scan_desc(l.pattern, l.order))
                                .collect();
                            let _ =
                                write!(line, "⋈k ?{} [{}]", query.var_name(*var), scans.join(", "));
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

/// The [`Profile`] of `plan` from the run's per-node output cardinalities,
/// indexed by pre-order id: `next` is the id of `plan` and advances past
/// its subtree.
fn build_profile(plan: &PhysicalPlan, rows: &[usize], next: &mut NodeId) -> Profile {
    let output_rows = rows[*next];
    *next += 1;
    let children = match plan {
        PhysicalPlan::Scan { .. } => Vec::new(),
        PhysicalPlan::MergeJoin { left, right, .. }
        | PhysicalPlan::HashJoin { left, right, .. }
        | PhysicalPlan::LeftOuterHashJoin { left, right, .. }
        | PhysicalPlan::CrossProduct { left, right }
        | PhysicalPlan::Union { left, right } => {
            let left = build_profile(left, rows, next);
            vec![left, build_profile(right, rows, next)]
        }
        PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Bind { input, .. }
        | PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::OrderBy { input, .. }
        | PhysicalPlan::HashAggregate { input, .. }
        | PhysicalPlan::Slice { input, .. } => vec![build_profile(input, rows, next)],
    };
    Profile {
        label: plan_label(plan),
        output_rows,
        children,
    }
}

/// The input tables a breaker consumed, for releasing once its output is
/// stored.
type Consumed = [Option<BindingTable>; 2];

/// Run one breaker op over materialised slots; returns the output table
/// plus the consumed input tables (for releasing). The only fallible op
/// is the γ aggregate (morsel-claim checkpoints, memory budget, typed
/// aggregate evaluation errors); on error the consumed inputs have
/// already been released.
fn run_breaker(
    op: &BreakerOp<'_>,
    ds: &Dataset,
    ctx: &ExecContext,
    slots: &mut [Option<BindingTable>],
) -> Result<(BindingTable, Consumed), ExecError> {
    // invariant: topological step order (see `Program::run`) fills every
    // input slot before its consumer runs.
    let [a, b] = op
        .inputs()
        .map(|s| s.map(|s| slots[s].take().expect("input slot filled before use")));
    // invariant: `inputs` names the sole (or left) input of every op but
    // a scan, and the right input of the two-sided ones.
    let input = || a.as_ref().expect("breaker input");
    let pair = || (input(), b.as_ref().expect("right breaker input"));
    let table = match op {
        BreakerOp::Scan { pattern, order } => ops::scan(ctx, ds, pattern, *order),
        BreakerOp::MergeJoin { var, .. } => {
            let (l, r) = pair();
            ops::merge_join(l, r, *var)
        }
        BreakerOp::CrossProduct { outer: true, .. } => {
            let (l, r) = pair();
            ops::left_outer_hash_join(ctx, l, r, &[])
        }
        BreakerOp::CrossProduct { .. } => {
            let (l, r) = pair();
            ops::cross_product(ctx, l, r)
        }
        BreakerOp::Union { .. } => {
            let (l, r) = pair();
            ops::union_all(l, r)
        }
        BreakerOp::Sort { var, .. } => ops::sort_by(input(), *var),
        BreakerOp::Bind { bindings, .. } => ops::bind(ds, input(), bindings),
        BreakerOp::Project {
            projection,
            distinct,
            ..
        } => ops::project(input(), projection, *distinct),
        BreakerOp::OrderBy { keys, .. } => ops::order_by(ctx, ds, input(), keys),
        BreakerOp::HashAggregate {
            group_by,
            aggs,
            having,
            ..
        } => match run_aggregate(ds, ctx, input(), group_by, aggs, *having) {
            Ok(table) => table,
            Err(e) => {
                for t in [a, b].into_iter().flatten() {
                    ctx.release(t);
                }
                return Err(e);
            }
        },
        BreakerOp::Slice { offset, limit, .. } => ops::slice(input(), *offset, *limit),
    };
    Ok((table, [a, b]))
}

/// The γ breaker: folds the input into one
/// [`crate::aggregate::AggState`] on the coordinating thread — under a
/// governor one morsel-sized range at a time, each behind an
/// `"aggregate"` checkpoint ([`morsel::run_inline`]) — then finalises one
/// row per group (see [`crate::aggregate`]).
fn run_aggregate(
    ds: &Dataset,
    ctx: &ExecContext,
    input: &BindingTable,
    group_by: &[Var],
    aggs: &[AggSpec],
    having: Option<&hsp_sparql::Expr>,
) -> Result<BindingTable, ExecError> {
    let mut state = crate::aggregate::AggState::default();
    morsel::run_inline(
        input.len(),
        &ctx.morsel,
        ctx.governor(),
        "aggregate",
        |range| crate::aggregate::fold_range(&mut state, input, ds, group_by, aggs, range),
    )?;
    // The grouped hash state is this operator's own materialisation:
    // check it against the memory budget before finalising into columns.
    ctx.reserve_check(state.heap_bytes(), "aggregate")?;
    ctx.note_aggregate(state.groups());
    let table = crate::aggregate::finalise(state, ctx, ds, group_by, aggs)?;
    Ok(match having {
        Some(h) => crate::aggregate::apply_having(table, h, ctx, ds),
        None => table,
    })
}

/// How a pipeline stage reads one value of a composed row: either a key
/// coordinate of a source leaf's relation rows, or a column of a
/// materialised side table, indexed through that side's index vector.
#[derive(Clone, Copy)]
enum ColRef<'a> {
    /// `leaves[leaf].rows[sides[side][row]][key]`.
    Key {
        side: usize,
        leaf: usize,
        key: usize,
    },
    /// `col[sides[side][row]]`. `nullable` marks sides introduced by an
    /// *outer* probe, whose index vectors may carry the `u32::MAX` sentinel
    /// (read as UNBOUND).
    Col {
        side: usize,
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

/// A scan leaf of the source, resolved against the dataset.
struct PreparedLeaf<'a> {
    node: NodeId,
    rows: &'a [IdTriple],
    /// The key coordinate the rows are sorted by (the first variable in
    /// key order — a merge block's variable).
    key: usize,
    /// Repeated-variable equalities of the pattern (key-index pairs): a
    /// row violating one is not part of the leaf's output.
    equalities: Vec<(usize, usize)>,
}

impl PreparedLeaf<'_> {
    fn keeps(&self, i: usize) -> bool {
        let row = &self.rows[i];
        self.equalities.iter().all(|&(a, b)| row[a] == row[b])
    }

    /// The leaf's exact output cardinality — what the oracle's scan
    /// materialises.
    fn output_rows(&self) -> usize {
        if self.equalities.is_empty() {
            self.rows.len()
        } else {
            (0..self.rows.len()).filter(|&i| self.keeps(i)).count()
        }
    }
}

/// A merge join inside a merge block: the node that brings in leaf `j`,
/// and the non-block variables leaf `j` shares with earlier leaves as
/// `(earlier leaf, its key, leaf j's key)` — the `extra_pairs` check of
/// the binary merge join.
struct PreparedJoin {
    node: NodeId,
    checks: Vec<(usize, usize, usize)>,
}

/// Everything a morsel worker needs, borrowed for the pipeline run.
struct PreparedPipeline<'a> {
    /// The source's scan leaves: one for a scan, k for a merge block,
    /// none for a slot (whose rows were materialised by their breaker).
    leaves: Vec<PreparedLeaf<'a>>,
    /// A merge block's joins (`joins[j - 1]` brings in `leaves[j]`);
    /// empty for any other source.
    joins: Vec<PreparedJoin>,
    /// The leaves a merge block emits an index vector for — the ones a
    /// stage or the sink reads — in leaf order: side `s` is leaf
    /// `emit[s]` (empty for any other source).
    emit: Vec<usize>,
    /// Sides the source contributes (`0..source_sides`); probe sides
    /// follow.
    source_sides: usize,
    /// Output layout: one entry per output column, in output order.
    layout: Vec<(Var, ColRef<'a>)>,
    stages: Vec<PreparedStage<'a>>,
    rows: usize,
    sorted: Option<Var>,
}

impl<'a> PreparedPipeline<'a> {
    /// Visit every column reference of the layout and the stages.
    fn for_each_ref(&mut self, mut f: impl FnMut(&mut ColRef<'a>)) {
        self.layout.iter_mut().for_each(|(_, r)| f(r));
        for stage in &mut self.stages {
            match stage {
                PreparedStage::Filter { used, .. } => used.iter_mut().for_each(|(_, r)| f(r)),
                PreparedStage::Probe {
                    key_refs,
                    extra_checks,
                    ..
                } => {
                    key_refs.iter_mut().for_each(&mut f);
                    extra_checks.iter_mut().for_each(|(r, _)| f(r));
                }
                PreparedStage::Project { .. } => {}
                PreparedStage::Distinct { refs, .. } => refs.iter_mut().for_each(&mut f),
            }
        }
    }

    /// A merge block emits index vectors only for the leaves some stage
    /// or the sink reads: renumber the sides so those come first (in leaf
    /// order) and the probe sides follow them.
    fn prune_block_sides(&mut self) {
        let k = self.leaves.len();
        let mut live = vec![false; k];
        self.for_each_ref(|r| {
            if let ColRef::Key { leaf, .. } = *r {
                live[leaf] = true;
            }
        });
        self.emit = (0..k).filter(|&l| live[l]).collect();
        let mut side_of = vec![0usize; k];
        for (s, &l) in self.emit.iter().enumerate() {
            side_of[l] = s;
        }
        let dead = k - self.emit.len();
        self.for_each_ref(|r| match r {
            ColRef::Key { side, leaf, .. } => *side = side_of[*leaf],
            ColRef::Col { side, .. } => *side -= dead,
        });
        self.source_sides = self.emit.len();
    }
}

/// The per-morsel result: one index vector per side plus the per-stage
/// surviving-row counts (the source's levels first: its rows, then each
/// merge-block join's).
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
    leaves: &'b [PreparedLeaf<'a>],
    sides: &'b [Vec<u32>],
    /// `Some(start)` while side 0 is still the untouched morsel range
    /// starting at `start` (its length is the current row count).
    ident: Option<u32>,
}

impl View<'_, '_> {
    /// Gather the first `n` values of a column reference into a contiguous
    /// scratch buffer (one tight loop per [`ColRef`] shape — what keeps
    /// the probe loop over the result as fast as a materialised column).
    fn gather(&self, r: ColRef<'_>, n: usize) -> Vec<TermId> {
        let mut out = Vec::with_capacity(n);
        match (r, self.ident) {
            // A lazy side 0 only exists over a single scan or slot source,
            // so a key reference under it reads leaf 0.
            (ColRef::Key { leaf, key, .. }, Some(start)) => {
                let start = start as usize;
                out.extend(
                    self.leaves[leaf].rows[start..start + n]
                        .iter()
                        .map(|row| row[key]),
                );
            }
            (ColRef::Key { side, leaf, key }, None) => {
                let rows = self.leaves[leaf].rows;
                out.extend(self.sides[side][..n].iter().map(|&i| rows[i as usize][key]));
            }
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
            ) => extend_gathered(&mut out, col, &self.sides[side][..n], nullable),
        }
        out
    }
}

/// The one index-vector gather loop, shared by the stage scratch gathers
/// ([`View::gather`]) and the sink: append `src[i]` for every index in
/// `sel`. With `nullable` (a side introduced by an *outer* probe) the
/// `u32::MAX` sentinel reads as UNBOUND — the same value the oracle
/// materialises for unmatched OPTIONAL rows.
fn extend_gathered(out: &mut Vec<TermId>, src: &[TermId], sel: &[u32], nullable: bool) {
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

/// The FILTER stage's evaluation surface: just the expression's variables,
/// each backed by a contiguous scratch column gathered for this morsel.
struct MorselCols<'a, 'b> {
    used: &'b [(Var, ColRef<'a>)],
    cols: &'b [Vec<TermId>],
}

impl RowValues for MorselCols<'_, '_> {
    fn row_value(&self, v: Var, row: usize) -> TermId {
        self.used
            .iter()
            .position(|&(uv, _)| uv == v)
            .map_or(TermId::UNBOUND, |c| self.cols[c][row])
    }
}

/// Execute one pipeline: prepare (resolve the source, build the probe hash
/// tables — the breaker work), push morsels through the stage chain, gather
/// once at the sink, release the consumed inputs. A `handed_off` source
/// table (a single-consumer breaker's output) may have its columns *moved*
/// into the sink when no stage dropped a row.
fn run_pipeline(
    p: &Pipeline<'_>,
    ds: &Dataset,
    ctx: &ExecContext,
    slots: &mut [Option<BindingTable>],
    rows_by_node: &mut [usize],
    handed_off: bool,
) -> Result<(), ExecError> {
    // Take the pipeline's inputs out of their slots (they stay alive —
    // borrowed by the prepared stages — until the sink has gathered).
    // invariant: topological step order (see `Program::run`) fills every
    // source and build slot before the pipeline that consumes it.
    let mut source_table: Option<BindingTable> = match &p.source {
        SourceSpec::Slot(slot) => Some(slots[*slot].take().expect("source slot filled")),
        SourceSpec::Scan(_) | SourceSpec::MergeBlock { .. } => None,
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

    // Resolve the source's scan leaves against the dataset here — not
    // inside `prepare` — so the rows borrow `ds` alone (or the merged scan
    // buffers, which outlive `prepared`) and stay usable by the sink
    // after the prepared stages (which borrow the input tables) are
    // dropped.
    let scans: Vec<OrderScan<'_>> = source_leaves(&p.source)
        .iter()
        .map(|leaf| resolve_scan(ds, leaf.pattern, leaf.order))
        .collect();
    for _ in scans.iter().filter(|s| !s.is_contiguous()) {
        ctx.note_overlay_scan();
    }

    let prepared = prepare(p, &scans, source_table.as_ref(), &build_tables);

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

    // Push morsels through the whole stage chain: one morsel run, inline
    // on this thread at a one-worker budget (one `0..rows` morsel, or
    // morsel-sized checkpoints under a governor). Every morsel uses the
    // per-thread evaluator (pool workers and helping submitters are
    // long-lived; its regex cache is bounded).
    let morsel_result = morsel::try_run_morsels(
        prepared.rows,
        &ctx.morsel,
        ctx.governor(),
        "worker",
        |range| {
            ops::WORKER_EVALUATOR
                .with(|evaluator| process_morsel(range, &prepared, ds, evaluator, static_movable))
        },
    );
    let (parts, run) = match morsel_result {
        Ok(x) => x,
        Err(e) => {
            // The batch has drained and its partial parts are dropped;
            // release the consumed inputs (charged when their producers
            // stored them) so the accounting nets to zero.
            drop(prepared);
            if let Some(t) = source_table.take() {
                ctx.release(t);
            }
            for t in build_tables {
                ctx.release(t);
            }
            return Err(e.into());
        }
    };

    // Every morsel kept side 0 untouched ⇒ the stitched side-0 vector is
    // the identity over the whole source: the column-move fires and side 0
    // (left empty by the deferral) is never read.
    let movable = static_movable && parts.iter().all(|part| part.side0_identity);
    let MorselOut {
        sides,
        counts,
        rows: out_rows,
        ..
    } = stitch(parts, &prepared, static_movable, movable);

    // Record per-operator cardinalities (exactly what the oracle would
    // report): the source's levels (leaf 0, then each merge-block join),
    // the other leaves of a merge block (whole-scan counts, independent of
    // the morsels), then each stage's.
    let levels = 1 + prepared.joins.len();
    let source_nodes = prepared
        .leaves
        .first()
        .map(|leaf| leaf.node)
        .into_iter()
        .chain(prepared.joins.iter().map(|j| j.node));
    for (node, &n) in source_nodes.zip(&counts) {
        rows_by_node[node] = n;
    }
    let mut other_leaf_rows = 0usize;
    for leaf in prepared.leaves.iter().skip(1) {
        let n = leaf.output_rows();
        rows_by_node[leaf.node] = n;
        other_leaf_rows += n;
    }
    for (stage, &n) in prepared.stages.iter().zip(&counts[levels..]) {
        rows_by_node[stage_node(stage)] = n;
    }

    // The rows the oracle would have materialised between operators but
    // this pipeline kept as index vectors: every count except the final
    // one (which the sink materialises), plus the merge block's other
    // leaves; a slot source was already materialised by its breaker, so
    // it does not count.
    let avoided: usize = counts[..counts.len() - 1]
        .iter()
        .skip(usize::from(prepared.leaves.is_empty()))
        .sum::<usize>()
        + other_leaf_rows;
    ctx.note_pipeline(run, avoided);
    let outer_probes = prepared
        .stages
        .iter()
        .filter(|s| matches!(s, PreparedStage::Probe { outer: true, .. }))
        .count();
    if outer_probes > 0 {
        ctx.note_outer_probes(outer_probes);
    }

    // The stages are done: free them (a probe's hash table can be as large
    // as its build side) before the sink allocates the output. The layout
    // borrows the input tables, not the stages, so it stays.
    let PreparedPipeline {
        leaves,
        layout,
        stages,
        sorted,
        ..
    } = prepared;
    let distinct_node = stages.iter().find_map(|s| match s {
        PreparedStage::Distinct { node, .. } => Some(*node),
        _ => None,
    });
    drop(stages);
    let vars: Vec<Var> = layout.iter().map(|&(v, _)| v).collect();

    // Sink. Fast path (hand-off move, `movable` decided at the stitch):
    // the source table was materialised for this pipeline alone and no
    // stage dropped a row, so the selected columns *move* into the output
    // — zero copies, not even an identity index vector — and the
    // unprojected ones drop. Otherwise each output column is gathered
    // exactly once, straight through the layout's references.
    let table = if movable {
        // The layout borrows the source table: drop it first.
        drop(layout);
        // invariant: `static_movable` requires a slot source, taken above.
        let src = source_table.take().expect("handed-off slot source");
        debug_assert_eq!(src.len(), out_rows, "identity sides preserve rows");
        // invariant: layout variables are distinct, so each source column
        // moves at most once.
        let cols = ctx.release_columns(src, &vars);
        BindingTable::from_columns(vars, cols, sorted)
    } else if vars.is_empty() {
        BindingTable::unit(out_rows)
    } else {
        let cols = layout
            .iter()
            .map(|&(_, r)| {
                let mut col = Vec::with_capacity(out_rows);
                match r {
                    ColRef::Key { side, leaf, key } => {
                        let rows = leaves[leaf].rows;
                        col.extend(sides[side].iter().map(|&i| rows[i as usize][key]));
                    }
                    ColRef::Col {
                        side,
                        col: src,
                        nullable,
                        ..
                    } => extend_gathered(&mut col, src, &sides[side], nullable),
                }
                col
            })
            .collect();
        BindingTable::from_columns(vars, cols, sorted)
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
                    let mut out = table.gather(&keep);
                    out.set_sorted_by(sorted);
                    out
                }
            };
            // The stage's local counts overstated the operator's true
            // output — report the globally deduped cardinality.
            rows_by_node[node] = deduped.len();
            deduped
        }
    };

    // Release the consumed inputs now that the gather is done (a moved
    // hand-off source was released above), then charge the materialised
    // output against the memory budget.
    if let Some(t) = source_table {
        ctx.release(t);
    }
    for t in build_tables {
        ctx.release(t);
    }
    if let Err(e) = ctx.charge_table(&table, "sink") {
        ctx.release(table);
        return Err(e.into());
    }
    slots[p.out] = Some(table);
    Ok(())
}

/// Stitch the per-morsel index vectors in morsel order and total the
/// per-stage counts. One morsel (every ungoverned sequential pipeline) is
/// its own stitched result (a governed run may cut even an empty source
/// into one morsel, never into none). `static_movable` morsels deferred an identity
/// side 0 (left it empty); unless the stitched result is `movable` after
/// all, those ranges are rebuilt here.
fn stitch(
    parts: Vec<MorselOut>,
    prepared: &PreparedPipeline<'_>,
    static_movable: bool,
    movable: bool,
) -> MorselOut {
    if parts.len() == 1 {
        // invariant: just checked there is one.
        return parts.into_iter().next().expect("one morsel");
    }
    let total_rows: usize = parts.iter().map(|part| part.rows).sum();
    let side_count = prepared.source_sides
        + prepared
            .stages
            .iter()
            .filter(|s| matches!(s, PreparedStage::Probe { .. }))
            .count();
    let levels = 1 + prepared.joins.len() + prepared.stages.len();
    let mut out = MorselOut {
        sides: (0..side_count)
            .map(|_| Vec::with_capacity(total_rows))
            .collect(),
        counts: vec![0; levels],
        side0_identity: movable,
        start: 0,
        rows: total_rows,
    };
    for part in parts {
        for (c, n) in part.counts.iter().enumerate() {
            out.counts[c] += n;
        }
        for (s, v) in part.sides.into_iter().enumerate() {
            if s == 0 && static_movable && part.side0_identity {
                // This morsel's side 0 was deferred (left empty). If
                // another morsel broke the identity, reconstruct the range
                // here; on the move path nothing reads side 0.
                debug_assert!(v.is_empty());
                if !movable {
                    out.sides[0].extend(part.start..part.start + part.rows as u32);
                }
            } else {
                out.sides[s].extend_from_slice(&v);
            }
        }
    }
    out
}

/// The plan node a prepared stage reports its cardinality for.
fn stage_node(stage: &PreparedStage<'_>) -> NodeId {
    match stage {
        PreparedStage::Filter { node, .. }
        | PreparedStage::Probe { node, .. }
        | PreparedStage::Project { node }
        | PreparedStage::Distinct { node, .. } => *node,
    }
}

/// The scan leaves a source reads: one for a scan, every leaf of a merge
/// block, none for a slot.
fn source_leaves<'s, 'p>(source: &'s SourceSpec<'p>) -> &'s [ScanLeaf<'p>] {
    match source {
        SourceSpec::Scan(leaf) => std::slice::from_ref(leaf),
        SourceSpec::MergeBlock { leaves, .. } => leaves,
        SourceSpec::Slot(_) => &[],
    }
}

/// Resolve a scan source's relation range exactly like `ops::scan`: a
/// constant missing from the dictionary matches nothing (the empty output
/// still advertises the scan's sortedness, like the oracle's — a merge
/// join above it checks the declaration, not the rows).
fn resolve_scan<'d>(ds: &'d Dataset, pattern: &TriplePattern, order: Order) -> OrderScan<'d> {
    let Some(prefix) = ops::ScanPrefix::resolve(ds, pattern, order) else {
        return OrderScan::empty();
    };
    let scan = ds.store().scan(order, prefix.ids());
    assert!(
        scan.len() < u32::MAX as usize,
        "scan range exceeds u32 row indexing"
    );
    scan
}

/// Resolve the pipeline's source and stages against the (already
/// resolved) leaf rows and the taken input tables: key layout for a scan
/// or merge-block source (a merge block's layout is the binary chain's —
/// each leaf's new variables after the earlier leaves'), hash-table builds
/// (the breaker half of each hash join) for the probes, layout rewrites
/// for projection stages.
fn prepare<'a>(
    p: &'a Pipeline<'_>,
    scans: &'a [OrderScan<'_>],
    source_table: Option<&'a BindingTable>,
    build_tables: &'a [BindingTable],
) -> PreparedPipeline<'a> {
    let mut layout: Vec<(Var, ColRef<'a>)> = Vec::new();
    let mut leaves: Vec<PreparedLeaf<'a>> = Vec::new();
    let mut joins: Vec<PreparedJoin> = Vec::new();
    let rows;
    let mut sorted;
    match &p.source {
        SourceSpec::Scan(_) | SourceSpec::MergeBlock { .. } => {
            let specs = source_leaves(&p.source);
            let first = &specs[0];
            sorted = scan_sort_var(first.pattern, first.order);
            for (j, (spec, scan)) in specs.iter().zip(scans).enumerate() {
                let (pattern, order) = (spec.pattern, spec.order);
                let equalities: Vec<(usize, usize)> =
                    ops::repeated_var_keys(pattern, order).collect();
                let mut checks = Vec::new();
                for (v, key) in ops::pattern_keys(pattern, order) {
                    match layout.iter().find(|&&(lv, _)| lv == v) {
                        None => layout.push((
                            v,
                            ColRef::Key {
                                side: j,
                                leaf: j,
                                key,
                            },
                        )),
                        // A non-block variable an earlier leaf bound: the
                        // join must check it (the block variable is what
                        // the merge matches on).
                        Some(&(_, ColRef::Key { leaf, key: at, .. })) if Some(v) != sorted => {
                            checks.push((leaf, at, key));
                        }
                        Some(_) => {}
                    }
                }
                // The rows are sorted by the first variable slot in key
                // order (validated merge inputs: the block variable).
                // invariant: a pipeline's scan leaf binds a variable.
                let key = order
                    .positions()
                    .iter()
                    .position(|&pos| pattern.slot(pos).as_var().is_some())
                    .expect("scan leaf binds a variable");
                leaves.push(PreparedLeaf {
                    node: spec.node,
                    rows: scan.as_slice(),
                    key,
                    equalities,
                });
                if let (true, SourceSpec::MergeBlock { top, .. }) = (j > 0, &p.source) {
                    joins.push(PreparedJoin {
                        node: block_join(*top, specs.len(), j),
                        checks,
                    });
                }
            }
            rows = leaves[0].rows.len();
        }
        SourceSpec::Slot(_) => {
            // invariant: `run_pipeline` takes the slot table before calling
            // `prepare` whenever the source is a slot.
            let table = source_table.expect("slot source taken");
            assert!(
                table.len() < u32::MAX as usize,
                "binding table exceeds u32 row indexing"
            );
            for (&v, col) in table.vars().iter().zip(table.columns()) {
                layout.push((
                    v,
                    ColRef::Col {
                        side: 0,
                        col,
                        nullable: false,
                    },
                ));
            }
            rows = table.len();
            sorted = table.sorted_by();
        }
    }

    let mut stages: Vec<PreparedStage<'a>> = Vec::with_capacity(p.stages.len());
    // Before pruning, a merge block numbers one side per leaf.
    let source_sides = leaves.len().max(1);
    let mut side_count = source_sides;
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
                let table = BuildTable::build(&build_cols, bt.len());
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
                for (&v, col) in bt.vars().iter().zip(bt.columns()) {
                    if !layout.iter().any(|&(lv, _)| lv == v) {
                        layout.push((
                            v,
                            ColRef::Col {
                                side: side_count,
                                col,
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
                narrow_layout(&mut layout, projection);
                sorted = sorted.filter(|v| layout.iter().any(|&(lv, _)| lv == *v));
                stages.push(PreparedStage::Project { node: *node });
            }
            StageSpec::Distinct { node, projection } => {
                // Same prepare-time narrowing as `Project`; the run-time
                // stage dedups each morsel over exactly these columns.
                narrow_layout(&mut layout, projection);
                sorted = sorted.filter(|v| layout.iter().any(|&(lv, _)| lv == *v));
                let refs: Vec<ColRef<'a>> = layout.iter().map(|&(_, r)| r).collect();
                stages.push(PreparedStage::Distinct { node: *node, refs });
            }
        }
    }

    let mut prepared = PreparedPipeline {
        leaves,
        joins,
        emit: Vec::new(),
        source_sides,
        layout,
        stages,
        rows,
        sorted,
    };
    if !prepared.joins.is_empty() {
        prepared.prune_block_sides();
    }
    prepared
}

/// Narrow a pipeline layout to a projection's variables, in projection
/// order, first occurrence winning for duplicated names — exactly
/// `ops::project`'s output layout. In place: each projected variable swaps
/// into the next output position, and the rest is cut off.
fn narrow_layout(layout: &mut Vec<(Var, ColRef<'_>)>, projection: &[(String, Var)]) {
    let mut kept = 0;
    for &(_, v) in projection {
        if layout[..kept].iter().any(|&(lv, _)| lv == v) {
            continue;
        }
        let at = layout[kept..]
            .iter()
            .position(|&(lv, _)| lv == v)
            // invariant: `PhysicalPlan::validate` requires projected
            // variables bound by the input.
            .expect("projected variable bound by the pipeline (validated)");
        layout.swap(kept, kept + at);
        kept += 1;
    }
    layout.truncate(kept);
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
    defer_side0: bool,
) -> MorselOut {
    let range_start = range.start as u32;
    let mut counts = Vec::with_capacity(1 + p.joins.len() + p.stages.len());
    let mut sides: Vec<Vec<u32>> = Vec::with_capacity(4);

    // Source selection: the morsel's row range, minus scan rows violating
    // repeated-variable equalities (same order as the oracle's scan).
    // While nothing has been dropped, side 0 stays *lazy* (`ident`) — no
    // identity vector is materialised and reads off the source are
    // sequential. A merge block emits its product as index vectors.
    let mut ident: Option<u32> = None;
    let mut rows_now: usize;
    if !p.joins.is_empty() {
        let (block_sides, block_counts) = merge_block_morsel(range, p);
        sides = block_sides;
        // invariant: a merge block reports one count per level.
        rows_now = *block_counts.last().expect("merge-block levels");
        counts.extend(block_counts);
    } else if let Some(leaf) = p.leaves.first().filter(|l| !l.equalities.is_empty()) {
        let sel: Vec<u32> = range.filter(|&i| leaf.keeps(i)).map(|i| i as u32).collect();
        rows_now = sel.len();
        sides.push(sel);
        counts.push(rows_now);
    } else {
        ident = Some(range.start as u32);
        rows_now = range.len();
        sides.push(Vec::new()); // placeholder while side 0 is lazy
        counts.push(rows_now);
    }

    for stage in &p.stages {
        match stage {
            PreparedStage::Filter { expr, used, .. } => {
                let n = rows_now;
                let keep: Vec<u32> = {
                    let view = View {
                        leaves: &p.leaves,
                        sides: &sides,
                        ident,
                    };
                    // Gather only the columns the expression reads, then
                    // evaluate the row loop over contiguous scratch — the
                    // same memory shape the materialised FILTER sees.
                    let cols: Vec<Vec<TermId>> =
                        used.iter().map(|&(_, r)| view.gather(r, n)).collect();
                    let surface = MorselCols { used, cols: &cols };
                    (0..n)
                        .filter(|&r| ops::eval_expr(ds, &surface, expr, r, evaluator))
                        .map(|r| r as u32)
                        .collect()
                };
                rows_now = keep.len();
                apply_keep(&mut sides, &keep, n, &mut ident);
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
                        leaves: &p.leaves,
                        sides: &sides,
                        ident,
                    };
                    // Gather the key (and extra-check) values into
                    // contiguous thread-local scratch columns, then drive
                    // the shared probe loop over them — the same tight
                    // loop the operator-at-a-time join runs, minus the
                    // full-table materialisation around it.
                    let key_cols: Vec<Vec<TermId>> =
                        key_refs.iter().map(|&kr| view.gather(kr, n)).collect();
                    let extra_cols: Vec<Vec<TermId>> = extra_checks
                        .iter()
                        .map(|&(lr, _)| view.gather(lr, n))
                        .collect();
                    let probe_cols: Vec<&[TermId]> = key_cols.iter().map(Vec::as_slice).collect();
                    let extra_pairs: Vec<(&[TermId], &[TermId])> = extra_cols
                        .iter()
                        .zip(extra_checks)
                        .map(|(l, &(_, rcol))| (l.as_slice(), rcol))
                        .collect();
                    let mut keep = Vec::with_capacity(n);
                    let mut matched = Vec::with_capacity(n);
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
                    (keep, matched)
                };
                rows_now = keep.len();
                apply_keep(&mut sides, &keep, n, &mut ident);
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
                        leaves: &p.leaves,
                        sides: &sides,
                        ident,
                    };
                    let cols: Vec<Vec<TermId>> = refs.iter().map(|&r| view.gather(r, n)).collect();
                    let col_slices: Vec<&[TermId]> = cols.iter().map(Vec::as_slice).collect();
                    ops::distinct_first_occurrences(&col_slices, n)
                };
                rows_now = keep.len();
                apply_keep(&mut sides, &keep, n, &mut ident);
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
            sides[0] = (start..start + rows_now as u32).collect();
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
fn apply_keep(sides: &mut [Vec<u32>], keep: &[u32], n: usize, ident: &mut Option<u32>) {
    if keep.len() == n && keep.iter().enumerate().all(|(i, &k)| k as usize == i) {
        return;
    }
    let skip_side0 = if let Some(start) = *ident {
        sides[0] = keep.iter().map(|&k| start + k).collect();
        *ident = None;
        1
    } else {
        0
    };
    for side in sides.iter_mut().skip(skip_side0) {
        *side = keep.iter().map(|&k| side[k as usize]).collect();
    }
}

/// The merge-block source over one morsel of driver (leaf 0) rows: a
/// k-way sorted intersection on the block variable. Returns one index
/// vector per emitted leaf (`p.emit`) and the morsel's exact count per
/// level — leaf 0's rows, then each join's output.
///
/// * **Morsels.** Any driver range is a valid morsel, even one that cuts
///   a key group: leaf 0 is the outermost loop of every product, so the
///   rows (and counts) of a group are those of its driver rows taken in
///   order, and per-morsel outputs stitch in morsel order like every
///   other kernel — a giant group spreads over several workers. The other
///   leaves' cursors gallop from 0 to the morsel's first key.
/// * **Keys.** Each driver key's group is matched leaf by leaf with
///   [`gallop`]. Join `j` is credited with the (checked) product of the
///   groups of leaves `0..=j`, so a key that leaf `j + 1` misses still
///   counts toward join `j` — which is why only a miss in **leaf 1** may
///   leapfrog the driver (to leaf 1's next key), a deeper miss advances it
///   by one key, and an exhausted leaf 1 ends the morsel.
/// * **Rows.** A key present in every leaf emits the product of its
///   groups, leaf 0 outermost — the binary chain's row order, so the
///   result is byte-identical to it.
fn merge_block_morsel(
    range: std::ops::Range<usize>,
    p: &PreparedPipeline<'_>,
) -> (Vec<Vec<u32>>, Vec<usize>) {
    let leaves = &p.leaves;
    let driver = &leaves[0];
    let (start, end) = (range.start, range.end);
    let d = &driver.rows[..end];
    // Without repeated variables or shared non-block variables every
    // product is a plain Cartesian one: counted as a product, emitted as
    // ranges. Otherwise the per-key partial products are built and checked.
    let plain = leaves.iter().all(|l| l.equalities.is_empty())
        && p.joins.iter().all(|j| j.checks.is_empty());
    let mut partial = Partial::new(leaves.len());

    let mut counts = vec![0usize; leaves.len()];
    counts[0] = if driver.equalities.is_empty() {
        end - start
    } else {
        (start..end).filter(|&i| driver.keeps(i)).count()
    };
    let mut sides: Vec<Vec<u32>> = p
        .emit
        .iter()
        .map(|_| Vec::with_capacity(end - start))
        .collect();
    let mut cursors = vec![0usize; leaves.len()];
    let mut groups = vec![0..0; leaves.len()];
    let mut i = start;
    'keys: while i < end {
        let key = d[i][driver.key];
        let group_end = gallop(d, i, |r| r[driver.key] == key);
        let mut next = group_end;
        groups[0] = i..group_end;
        let mut width = if plain {
            groups[0].len()
        } else {
            partial.seed(driver, i..group_end)
        };
        let mut complete = true;
        for (j, leaf) in leaves.iter().enumerate().skip(1) {
            let c = gallop(leaf.rows, cursors[j], |r| r[leaf.key] < key);
            if leaf.rows.get(c).is_none_or(|r| r[leaf.key] != key) {
                cursors[j] = c;
                if j == 1 {
                    // No driver key below leaf 1's next key reaches any
                    // join: leapfrog there, or stop once leaf 1 runs out.
                    let Some(row) = leaf.rows.get(c) else {
                        break 'keys;
                    };
                    let target = row[leaf.key];
                    next = gallop(d, group_end, |r| r[driver.key] < target);
                }
                complete = false;
                break;
            }
            let e = gallop(leaf.rows, c, |r| r[leaf.key] == key);
            cursors[j] = e;
            groups[j] = c..e;
            // Saturating: an inner join's count may be far too large to
            // materialise, and the `Profile`'s exact cardinality then
            // reads `usize::MAX` instead of wrapping.
            width = if plain {
                width.saturating_mul(e - c)
            } else {
                partial.extend(leaves, j, c..e, &p.joins[j - 1].checks)
            };
            counts[j] = counts[j].saturating_add(width);
            if width == 0 {
                complete = false;
                break;
            }
        }
        if complete {
            if plain {
                emit_product(&groups, &p.emit, width, &mut sides);
            } else {
                partial.emit(&p.emit, &mut sides);
            }
        }
        i = next;
    }
    (sides, counts)
}

/// Append the product of one key's equal-key groups (`groups[l]` is leaf
/// `l`'s) to the emitted leaves' sides, leaf 0 outermost. The innermost
/// group goes in as a contiguous range and outer groups as repeats; one
/// row per key — the common star — is a plain push.
fn emit_product(
    groups: &[std::ops::Range<usize>],
    emit: &[usize],
    width: usize,
    sides: &mut [Vec<u32>],
) {
    if width == 1 {
        for (side, &leaf) in sides.iter_mut().zip(emit) {
            side.push(groups[leaf].start as u32);
        }
        return;
    }
    for (side, &leaf) in sides.iter_mut().zip(emit) {
        let outer: usize = groups[..leaf].iter().map(ExactSizeIterator::len).product();
        let inner: usize = groups[leaf + 1..]
            .iter()
            .map(ExactSizeIterator::len)
            .product();
        let group = groups[leaf].start as u32..groups[leaf].end as u32;
        side.reserve(width);
        for _ in 0..outer {
            if inner == 1 {
                side.extend(group.clone());
            } else {
                for r in group.clone() {
                    side.extend(std::iter::repeat_n(r, inner));
                }
            }
        }
    }
}

/// One key's partial products on the merge block's checked path (leaves
/// with repeated variables, or joins sharing non-block variables): after
/// level `j`, `cols[l][t]` is leaf `l`'s row in tuple `t`, for `l ≤ j`.
/// Nothing is allocated until the first key is seeded, so the plain path
/// pays nothing for it.
struct Partial {
    leaves: usize,
    cols: Vec<Vec<u32>>,
    next: Vec<Vec<u32>>,
    group: Vec<u32>,
}

impl Partial {
    fn new(leaves: usize) -> Self {
        Partial {
            leaves,
            cols: Vec::new(),
            next: Vec::new(),
            group: Vec::new(),
        }
    }

    /// Start a key from the driver's group; returns the tuple count.
    fn seed(&mut self, driver: &PreparedLeaf<'_>, group: std::ops::Range<usize>) -> usize {
        if self.cols.is_empty() {
            self.cols = vec![Vec::new(); self.leaves];
            self.next = vec![Vec::new(); self.leaves];
        }
        self.cols[0].clear();
        self.cols[0].extend(group.filter(|&r| driver.keeps(r)).map(|r| r as u32));
        self.cols[0].len()
    }

    /// Pair every tuple with every row of leaf `j`'s group that keeps its
    /// equalities and passes the join's checks, in tuple-major order;
    /// returns the new tuple count.
    fn extend(
        &mut self,
        leaves: &[PreparedLeaf<'_>],
        j: usize,
        group: std::ops::Range<usize>,
        checks: &[(usize, usize, usize)],
    ) -> usize {
        let leaf = &leaves[j];
        self.group.clear();
        self.group
            .extend(group.filter(|&r| leaf.keeps(r)).map(|r| r as u32));
        for col in &mut self.next[..=j] {
            col.clear();
        }
        for t in 0..self.cols[0].len() {
            for &r in &self.group {
                let row = &leaf.rows[r as usize];
                let pass = checks
                    .iter()
                    .all(|&(l, at, key)| leaves[l].rows[self.cols[l][t] as usize][at] == row[key]);
                if pass {
                    for l in 0..j {
                        self.next[l].push(self.cols[l][t]);
                    }
                    self.next[j].push(r);
                }
            }
        }
        std::mem::swap(&mut self.cols, &mut self.next);
        self.cols[j].len()
    }

    fn emit(&self, emit: &[usize], sides: &mut [Vec<u32>]) {
        for (side, &leaf) in sides.iter_mut().zip(emit) {
            side.extend_from_slice(&self.cols[leaf]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, execute_in, ExecConfig, ExecStrategy};
    use crate::morsel::MorselConfig;
    use hsp_rdf::Term;
    use hsp_sparql::{CmpOp, Expr, Operand, TermOrVar};

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
            expr: FilterExpr::Complex(Expr::cmp(
                CmpOp::Gt,
                Expr::Var(Var(2)),
                Expr::Const(Term::literal("4")),
            )),
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

    /// A merge join whose left side is a sort-enforced input, not a scan
    /// leaf: it stays a binary breaker.
    fn sorted_merge_join() -> PhysicalPlan {
        PhysicalPlan::MergeJoin {
            left: Box::new(PhysicalPlan::Sort {
                input: Box::new(scan(0, vv(0), cv("p"), vv(1), Order::Pso)),
                var: Var(0),
            }),
            right: Box::new(scan(1, vv(0), cv("q"), vv(2), Order::Pso)),
            var: Var(0),
        }
    }

    #[test]
    fn breaker_only_plans_still_run() {
        let ds = dataset();
        let plan = PhysicalPlan::Slice {
            input: Box::new(sorted_merge_join()),
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
        }
    }

    #[test]
    fn unknown_constant_scan_matches_oracle_empty_output() {
        let ds = dataset();
        let plan = PhysicalPlan::Filter {
            input: Box::new(scan(0, vv(0), cv("nope"), vv(1), Order::Pso)),
            expr: FilterExpr::Eq(Operand::Var(Var(0)), Operand::Var(Var(1))),
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
            expr: FilterExpr::Complex(Expr::cmp(
                CmpOp::Ne,
                Expr::Var(Var(0)),
                Expr::Const(Term::iri("http://e/zzz")),
            )),
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
            expr: FilterExpr::Complex(Expr::cmp(
                CmpOp::Ne,
                Expr::Var(Var(2)),
                Expr::Const(Term::literal("zzz")),
            )),
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
        // π(mergejoin(sort(...), ...)): the merge join's output has
        // exactly one consumer (the projection pipeline's source), so it is
        // handed off and its projected columns move into the sink.
        let ds = dataset();
        let plan = PhysicalPlan::Project {
            input: Box::new(sorted_merge_join()),
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
        // σ(mergejoin(sort(...), ...)) as a pipeline: the filter drops
        // rows, so the hand-off falls back to the gather path — output must
        // still match.
        let ds = dataset();
        let plan = PhysicalPlan::Filter {
            input: Box::new(sorted_merge_join()),
            expr: FilterExpr::Complex(Expr::cmp(
                CmpOp::Gt,
                Expr::Var(Var(2)),
                Expr::Const(Term::literal("6")),
            )),
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
                left: Box::new(sorted_merge_join()),
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

    /// `?a p ?b . ?a q ?c . ?a p ?d` as one merge block on `?a`.
    fn block_plan() -> PhysicalPlan {
        PhysicalPlan::MergeJoin {
            left: Box::new(PhysicalPlan::MergeJoin {
                left: Box::new(scan(0, vv(0), cv("p"), vv(1), Order::Pso)),
                right: Box::new(scan(1, vv(0), cv("q"), vv(2), Order::Pso)),
                var: Var(0),
            }),
            right: Box::new(scan(2, vv(0), cv("p"), vv(3), Order::Pso)),
            var: Var(0),
        }
    }

    #[test]
    fn merge_block_lowers_to_one_source_and_renders_as_one_line() {
        let plan = PhysicalPlan::Project {
            input: Box::new(block_plan()),
            projection: vec![("d".into(), Var(3))],
            distinct: false,
        };
        let program = lower(&plan);
        // No scan breakers, no merge-join breakers: one pipeline.
        assert_eq!(program.steps.len(), 1);
        assert_eq!(program.pipeline_count(), 1);
        let query = hsp_sparql::JoinQuery::parse(
            "SELECT ?d WHERE { ?a <http://e/p> ?b . ?a <http://e/q> ?c . ?a <http://e/p> ?d . }",
        )
        .unwrap();
        let dag = program.render(&query);
        assert!(
            dag.starts_with("pipeline DAG: 1 pipeline, 0 breakers"),
            "{dag}"
        );
        assert!(dag.contains("← pipeline: ⋈k ?a [σ(PSO) "), "{dag}");
        assert!(dag.contains("] → π ?d → sink"), "{dag}");
        assert!(!dag.contains("⋈mj"), "{dag}");
    }

    #[test]
    fn merge_block_matches_the_binary_chain_and_its_cardinalities() {
        // a1 has two p-rows, so the block's product is 2 × 1 × 2 for a1
        // and 1 × 1 × 1 for a2.
        let ds = dataset();
        let oracle = execute(
            &block_plan(),
            &ds,
            &ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime),
        )
        .unwrap();
        assert_eq!(oracle.table.len(), 5);
        for threads in 1..=4 {
            let out = execute_in(
                &block_plan(),
                &ds,
                &ExecConfig::unlimited(),
                &forced_ctx(threads),
            )
            .unwrap();
            assert_eq!(out.table, oracle.table, "threads={threads}");
            let rows = |p: &Profile| {
                let mut out = Vec::new();
                p.visit(&mut |n| out.push((n.label.clone(), n.output_rows)));
                out
            };
            assert_eq!(rows(&out.profile), rows(&oracle.profile));
            assert_eq!(out.runtime.breaker_handoffs, 0);
            // The three leaf scans (3 + 2 + 3 rows) and the inner join
            // (3 rows) stay index vectors; only the top join materialises.
            assert_eq!(out.runtime.pipeline_rows_avoided, 3 + 2 + 3 + 3);
        }
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
