//! The execution context that threads the morsel configuration, the
//! optional query governor, the runtime counters and the computed-term
//! overlay through the operators.
//!
//! Intermediate columns come straight from the allocator: only pipeline
//! breakers and sinks materialise (see [`crate::pipeline`]), and morsel
//! workers keep their index vectors thread-local.
//!
//! Under concurrent serving every in-flight request owns one
//! [`ExecContext`] (governor, counters, computed-term overlay) pinned to
//! its coordinating thread, while the morsel batches those contexts submit
//! are all scheduled on the one
//! [`SharedPool`](crate::morsel::SharedPool) their [`MorselConfig`] names
//! (a session's pool; the process-default pool for a context built outside
//! a session). Contexts are `!Send` and never shared, so many of them
//! coexisting above one pool needs no locking here — the pool's workers
//! only ever run the kernel closures, never the evaluator that touches the
//! context.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use hsp_rdf::{Term, TermId};
use hsp_sparql::Var;

use crate::binding::BindingTable;
use crate::govern::{GovernorError, QueryGovernor};
use crate::metrics::RuntimeMetrics;
use crate::morsel::MorselConfig;

/// First id of the **computed-term** range. Aggregation produces values
/// (counts, sums, averages) that usually have no entry in the dataset's
/// immutable dictionary; they are interned into a per-execution overlay on
/// the [`ExecContext`] instead, and their ids start here. The dictionary
/// would need two billion distinct terms before its ids could collide with
/// the range — `Dataset` construction is nowhere near that — and
/// [`TermId::UNBOUND`] (`u32::MAX`) stays reserved.
pub const COMPUTED_BASE: u32 = 0x8000_0000;

/// `true` if `id` refers to the per-execution computed-term overlay
/// rather than the dataset dictionary.
pub fn is_computed(id: TermId) -> bool {
    id.0 >= COMPUTED_BASE && id != TermId::UNBOUND
}

/// Bytes a materialised table's columns occupy — the unit of the
/// governor's memory accounting (`rows × columns × 4`; `TermId` is 32
/// bits). Deliberately shape-based rather than capacity-based so a
/// charge and its matching release always agree.
pub fn table_bytes(table: &BindingTable) -> usize {
    table
        .vars()
        .len()
        .saturating_mul(table.len())
        .saturating_mul(std::mem::size_of::<TermId>())
}

/// Everything an operator needs beyond its inputs: the morsel/thread
/// configuration, the optional query governor, and the runtime counters
/// the execution reports afterwards.
#[derive(Debug)]
pub struct ExecContext {
    /// How kernels split work across threads, and the pool they run on.
    pub morsel: MorselConfig,
    /// Resource limits for this execution, if any (see [`crate::govern`]).
    governor: Option<QueryGovernor>,
    /// The cumulative counters [`RuntimeMetrics::of`] reports; the fields
    /// it fills from elsewhere (thread budget, governor, session stamps)
    /// stay at their defaults here.
    pub(crate) counters: Cell<RuntimeMetrics>,
    /// Computed-term overlay: terms produced by aggregation, indexed by
    /// `id - COMPUTED_BASE`. Single-threaded by design (finalisation runs
    /// on the coordinating thread after the morsel barrier).
    computed_terms: RefCell<Vec<Term>>,
    computed_ids: RefCell<HashMap<Term, TermId>>,
}

impl Default for ExecContext {
    fn default() -> Self {
        ExecContext::new()
    }
}

impl ExecContext {
    /// Production context: thread budget from `available_parallelism`.
    pub fn new() -> Self {
        ExecContext::with_morsel_config(MorselConfig::auto())
    }

    /// A context with a forced thread budget (tests, benchmarks, the CLI's
    /// `--threads` flag).
    pub fn with_threads(threads: usize) -> Self {
        ExecContext::with_morsel_config(MorselConfig::with_threads(threads))
    }

    /// A context with an explicit morsel configuration.
    pub fn with_morsel_config(morsel: MorselConfig) -> Self {
        ExecContext {
            morsel,
            governor: None,
            counters: Cell::default(),
            computed_terms: RefCell::default(),
            computed_ids: RefCell::default(),
        }
    }

    /// Attach a query governor: every checkpoint in the execution now
    /// consults it.
    pub fn with_governor(mut self, governor: QueryGovernor) -> Self {
        self.governor = Some(governor);
        self
    }

    /// The attached governor, if any.
    pub fn governor(&self) -> Option<&QueryGovernor> {
        self.governor.as_ref()
    }

    /// Replace (or remove) the attached governor. A context may run
    /// several queries (its counters accumulate across them), but each
    /// query brings its own limits, and a tripped governor stays tripped.
    pub fn set_governor(&mut self, governor: Option<QueryGovernor>) {
        self.governor = governor;
    }

    /// Cooperative checkpoint: a no-op without a governor, otherwise the
    /// full token/deadline/fault check for `site`.
    pub fn checkpoint(&self, site: &'static str) -> Result<(), GovernorError> {
        match &self.governor {
            Some(gov) => gov.check(site),
            None => Ok(()),
        }
    }

    /// Cheap poll for long-running operator loops: `true` once the
    /// governor has tripped (always `false` without one).
    pub fn governor_poll(&self) -> bool {
        self.governor.as_ref().is_some_and(|gov| gov.poll())
    }

    /// Charge a freshly materialised table's bytes against the memory
    /// budget (no-op without a governor).
    pub fn charge_table(
        &self,
        table: &BindingTable,
        site: &'static str,
    ) -> Result<(), GovernorError> {
        match &self.governor {
            Some(gov) => gov.charge(table_bytes(table), site),
            None => Ok(()),
        }
    }

    /// Pre-materialisation budget guard: would `bytes` more exceed the
    /// budget? Errors (and trips) without charging.
    pub fn reserve_check(&self, bytes: usize, site: &'static str) -> Result<(), GovernorError> {
        match &self.governor {
            Some(gov) => gov.would_exceed(bytes, site),
            None => Ok(()),
        }
    }

    /// Release a consumed intermediate: return its bytes to the memory
    /// budget (no-op without a governor) and hand back its columns, which
    /// every caller but the sink's column move simply drops.
    pub fn release(&self, table: BindingTable) -> Vec<Vec<TermId>> {
        self.uncharge(&table);
        table.into_columns()
    }

    /// [`release`](Self::release) `table`, moving out only the columns of
    /// `vars`, in that order (the rest drop).
    pub(crate) fn release_columns(&self, table: BindingTable, vars: &[Var]) -> Vec<Vec<TermId>> {
        self.uncharge(&table);
        table.into_selected(vars)
    }

    fn uncharge(&self, table: &BindingTable) {
        if let Some(gov) = &self.governor {
            gov.release(table_bytes(table));
        }
    }

    /// Apply `f` to the cumulative counters.
    fn count(&self, f: impl FnOnce(&mut RuntimeMetrics)) {
        let mut counters = self.counters.get();
        f(&mut counters);
        self.counters.set(counters);
    }

    /// Record a kernel's morsel run in the execution-wide counters.
    pub(crate) fn note_run(&self, run: crate::morsel::MorselRun) {
        self.count(|c| {
            c.shared_pool_batches += run.batches;
            if run.batches > 0 {
                c.morsels += run.morsels;
                c.parallel_kernels += 1;
            }
        });
    }

    /// Record one executed pipeline: its morsel run (morsels pushed
    /// end-to-end through the stage chain) and the intermediate rows the
    /// operator-at-a-time evaluator would have materialised between the
    /// pipeline's operators but the pipeline kept as thread-local index
    /// vectors.
    pub(crate) fn note_pipeline(&self, run: crate::morsel::MorselRun, rows_avoided: usize) {
        self.count(|c| {
            c.pipelines += 1;
            // A sequential pipeline pushes its whole source as one morsel.
            c.pipeline_morsels += run.morsels.max(1);
            c.pipeline_rows_avoided += rows_avoided;
        });
        self.note_run(run);
    }

    /// Record `count` left-outer (OPTIONAL) probe stages executed inside
    /// one pipeline run.
    pub(crate) fn note_outer_probes(&self, count: usize) {
        self.count(|c| c.pipeline_outer_probes += count);
    }

    /// Record one breaker output handed directly to its single consuming
    /// pipeline (no slot round-trip).
    pub(crate) fn note_handoff(&self) {
        self.count(|c| c.breaker_handoffs += 1);
    }

    /// Record one hash-aggregation's finalised groups.
    pub(crate) fn note_aggregate(&self, groups: usize) {
        self.count(|c| c.aggregate_groups += groups);
    }

    /// Record one DISTINCT deduplicated as a streaming pipeline stage
    /// (morsel-local pre-dedup + sink first-occurrence pass) instead of a
    /// materialising breaker.
    pub(crate) fn note_distinct_stream(&self) {
        self.count(|c| c.distinct_streamed += 1);
    }

    /// Record one scan that had to merge the storage delta overlay with
    /// the base run (no contiguous-slice fast path).
    pub(crate) fn note_overlay_scan(&self) {
        self.count(|c| c.merged_scans += 1);
    }

    /// Intern a term produced by aggregation into the per-execution
    /// computed-term overlay, returning its id (≥ [`COMPUTED_BASE`]).
    /// Idempotent: equal terms get equal ids, and the first-intern order
    /// determines the id sequence — both executors intern finalised groups
    /// in output order, so their overlays (and tables) match exactly.
    pub fn intern_computed(&self, term: Term) -> TermId {
        if let Some(&id) = self.computed_ids.borrow().get(&term) {
            return id;
        }
        let mut terms = self.computed_terms.borrow_mut();
        let id = TermId(COMPUTED_BASE + u32::try_from(terms.len()).expect("overlay overflow"));
        terms.push(term.clone());
        self.computed_ids.borrow_mut().insert(term, id);
        id
    }

    /// Resolve a computed-term id against the overlay (`None` for
    /// dictionary ids, unbound, or an id from a different execution).
    pub fn computed_term(&self, id: TermId) -> Option<Term> {
        if !is_computed(id) {
            return None;
        }
        let idx = (id.0 - COMPUTED_BASE) as usize;
        self.computed_terms.borrow().get(idx).cloned()
    }

    /// Snapshot of the computed-term overlay (indexed by
    /// `id - COMPUTED_BASE`), for results that outlive the context.
    pub fn computed_overlay(&self) -> Vec<Term> {
        self.computed_terms.borrow().clone()
    }

    /// Reset the computed-term overlay. A context may run several queries,
    /// but computed ids are positional — reusing a context for a new query
    /// must start the overlay fresh so both differential arms intern from
    /// id zero.
    pub fn clear_computed(&self) {
        self.computed_terms.borrow_mut().clear();
        self.computed_ids.borrow_mut().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsp_sparql::Var;

    #[test]
    fn governed_context_checkpoints_and_charges() {
        use crate::govern::QueryGovernor;
        use std::time::Duration;

        let ungoverned = ExecContext::new();
        ungoverned.checkpoint("worker").unwrap();
        assert!(!ungoverned.governor_poll());

        let ctx = ExecContext::new()
            .with_governor(QueryGovernor::new().with_deadline_in(Duration::from_secs(3600)));
        ctx.checkpoint("worker").unwrap();
        assert_eq!(ctx.governor().unwrap().checks(), 1);

        let table = BindingTable::from_columns(
            vec![Var(0), Var(1)],
            vec![vec![TermId(1), TermId(2)], vec![TermId(3), TermId(4)]],
            None,
        );
        assert_eq!(table_bytes(&table), 2 * 2 * 4);
        ctx.charge_table(&table, "sink").unwrap();
        assert_eq!(ctx.governor().unwrap().mem_used(), 16);
        assert_eq!(ctx.release(table).len(), 2);
        assert_eq!(ctx.governor().unwrap().mem_used(), 0);
    }

    #[test]
    fn context_counts_only_parallel_runs() {
        let ctx = ExecContext::with_threads(4);
        ctx.note_run(crate::morsel::MorselRun::SEQUENTIAL);
        assert_eq!(RuntimeMetrics::of(&ctx).parallel_kernels, 0);
        ctx.note_run(crate::morsel::MorselRun {
            morsels: 5,
            batches: 1,
        });
        let m = RuntimeMetrics::of(&ctx);
        assert_eq!(m.parallel_kernels, 1);
        assert_eq!(m.morsels, 5);
    }
}
