//! Per-execution recycling of intermediate columns, plus the execution
//! context that threads the pool and the morsel configuration through the
//! operators.
//!
//! Operator-at-a-time plans materialise every intermediate result: a
//! five-join plan allocates (and immediately frees) dozens of column
//! vectors. The [`BufferPool`] is an arena of reusable `Vec<TermId>` /
//! `Vec<u32>` buffers: the gather primitives check columns out instead of
//! calling the allocator, and the tree evaluator returns a consumed
//! intermediate's columns to the pool the moment its parent operator has
//! produced its output. Hit/miss/recycle counters surface through
//! [`crate::metrics::RuntimeMetrics`].
//!
//! The pool is deliberately single-threaded (`RefCell`): the evaluator
//! walks the plan tree sequentially, and parallelism lives *inside* a
//! kernel (see [`crate::morsel`]), where workers use thread-local buffers
//! and never touch the pool.
//!
//! Under concurrent serving the same shape holds per query: every
//! in-flight request owns one [`ExecContext`] (buffers, governor,
//! computed-term overlay) pinned to its coordinating thread, while the
//! morsel batches those contexts submit are all scheduled on the one
//! [`SharedPool`](crate::morsel::SharedPool) their
//! [`MorselConfig`] names (a session's pool; the process-default pool
//! for a context built outside a session). Contexts are
//! `!Send` and never shared, so many of them coexisting above one pool
//! needs no locking here — the pool's workers only ever run the kernel
//! closures, never the tree evaluator that touches the [`BufferPool`].

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use hsp_rdf::{Term, TermId};

use crate::binding::BindingTable;
use crate::govern::{GovernorError, QueryGovernor};
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

/// Keep at most this many free buffers per kind; beyond it, returned
/// buffers are simply dropped. Bounds the *number* of parked buffers.
const MAX_FREE_BUFFERS: usize = 64;

/// Buffers whose capacity exceeds this many elements are dropped instead
/// of pooled, so a one-off huge intermediate (a runaway cross product,
/// say) cannot pin its memory for the rest of the execution. Together
/// with [`MAX_FREE_BUFFERS`] this caps the pool's worst-case footprint at
/// `2 × 64 × 4 MiB`. Checkout is capacity-blind LIFO — a reused buffer may
/// still need to grow for a larger gather (`reserve` handles it), which
/// counts as a hit because the allocation was still elided in the common
/// same-shape-plan case.
const MAX_POOLED_CAPACITY: usize = 1 << 20;

/// An arena of recyclable column buffers, scoped to one execution.
#[derive(Debug, Default)]
pub struct BufferPool {
    term_cols: RefCell<Vec<Vec<TermId>>>,
    idx_bufs: RefCell<Vec<Vec<u32>>>,
    hits: Cell<usize>,
    misses: Cell<usize>,
    recycled: Cell<usize>,
    returned: Cell<usize>,
}

/// Pool counters (cumulative over one execution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Checkouts served from the free lists.
    pub hits: usize,
    /// Checkouts that fell through to the allocator.
    pub misses: usize,
    /// Buffers returned to the pool (columns of consumed intermediates
    /// plus returned index vectors).
    pub recycled: usize,
    /// Every buffer *handed back* to the pool, whether parked or dropped
    /// by the pooling policy (zero-capacity / oversized / full free list).
    /// `hits + misses == returned` after an execution whose error paths
    /// drained everything they checked out — the balance the governor
    /// tests assert.
    pub returned: usize,
}

impl BufferPool {
    /// A fresh, empty pool.
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// Check out a cleared `TermId` column with at least `capacity` spare.
    pub fn take_col(&self, capacity: usize) -> Vec<TermId> {
        match self.term_cols.borrow_mut().pop() {
            Some(mut col) => {
                self.hits.set(self.hits.get() + 1);
                col.clear();
                col.reserve(capacity);
                col
            }
            None => {
                self.misses.set(self.misses.get() + 1);
                Vec::with_capacity(capacity)
            }
        }
    }

    /// Return a `TermId` column to the pool.
    pub fn put_col(&self, col: Vec<TermId>) {
        self.returned.set(self.returned.get() + 1);
        if col.capacity() == 0 || col.capacity() > MAX_POOLED_CAPACITY {
            return; // nothing worth keeping / too big to pin
        }
        let mut free = self.term_cols.borrow_mut();
        if free.len() < MAX_FREE_BUFFERS {
            free.push(col);
            self.recycled.set(self.recycled.get() + 1);
        }
    }

    /// Check out a cleared `u32` index buffer with at least `capacity`
    /// spare (selection vectors and join-pair vectors).
    pub fn take_idx(&self, capacity: usize) -> Vec<u32> {
        match self.idx_bufs.borrow_mut().pop() {
            Some(mut buf) => {
                self.hits.set(self.hits.get() + 1);
                buf.clear();
                buf.reserve(capacity);
                buf
            }
            None => {
                self.misses.set(self.misses.get() + 1);
                Vec::with_capacity(capacity)
            }
        }
    }

    /// Return an index buffer to the pool.
    pub fn put_idx(&self, buf: Vec<u32>) {
        self.returned.set(self.returned.get() + 1);
        if buf.capacity() == 0 || buf.capacity() > MAX_POOLED_CAPACITY {
            return;
        }
        let mut free = self.idx_bufs.borrow_mut();
        if free.len() < MAX_FREE_BUFFERS {
            free.push(buf);
            self.recycled.set(self.recycled.get() + 1);
        }
    }

    /// Consume a no-longer-needed intermediate table, moving its columns
    /// into the pool for the next gather to reuse.
    pub fn recycle(&self, table: BindingTable) {
        for col in table.into_columns() {
            self.put_col(col);
        }
    }

    /// Cumulative counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            recycled: self.recycled.get(),
            returned: self.returned.get(),
        }
    }

    /// Free buffers currently parked (both kinds).
    pub fn free_buffers(&self) -> usize {
        self.term_cols.borrow().len() + self.idx_bufs.borrow().len()
    }
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
/// configuration, the column pool, the optional query governor, and the
/// runtime counters the execution reports afterwards.
#[derive(Debug)]
pub struct ExecContext {
    /// How kernels split work across threads, and the pool they run on.
    pub morsel: MorselConfig,
    /// The per-execution column arena.
    pub pool: BufferPool,
    /// Resource limits for this execution, if any (see [`crate::govern`]).
    governor: Option<QueryGovernor>,
    morsels: Cell<usize>,
    parallel_kernels: Cell<usize>,
    parallel_builds: Cell<usize>,
    parallel_sorts: Cell<usize>,
    pipelines: Cell<usize>,
    pipeline_morsels: Cell<usize>,
    pipeline_outer_probes: Cell<usize>,
    breaker_handoffs: Cell<usize>,
    pipeline_rows_avoided: Cell<usize>,
    parallel_aggregates: Cell<usize>,
    aggregate_groups: Cell<usize>,
    distinct_streamed: Cell<usize>,
    merged_scans: Cell<usize>,
    pool_batches: Cell<usize>,
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
    /// Production context: thread budget from `available_parallelism`,
    /// fresh pool.
    pub fn new() -> Self {
        ExecContext::with_morsel_config(MorselConfig::auto())
    }

    /// A context with a forced thread budget (tests, benchmarks, the CLI's
    /// `--threads` flag).
    pub fn with_threads(threads: usize) -> Self {
        ExecContext::with_morsel_config(MorselConfig::with_threads(threads))
    }

    /// A context with an explicit morsel configuration. Detects nothing:
    /// [`MorselConfig::auto`] asks the OS for the core count (a cgroup
    /// file read on Linux, tens of microseconds), which a caller that
    /// already holds a configuration must not pay per query.
    pub fn with_morsel_config(morsel: MorselConfig) -> Self {
        ExecContext {
            morsel,
            pool: BufferPool::default(),
            governor: None,
            morsels: Cell::default(),
            parallel_kernels: Cell::default(),
            parallel_builds: Cell::default(),
            parallel_sorts: Cell::default(),
            pipelines: Cell::default(),
            pipeline_morsels: Cell::default(),
            pipeline_outer_probes: Cell::default(),
            breaker_handoffs: Cell::default(),
            pipeline_rows_avoided: Cell::default(),
            parallel_aggregates: Cell::default(),
            aggregate_groups: Cell::default(),
            distinct_streamed: Cell::default(),
            merged_scans: Cell::default(),
            pool_batches: Cell::default(),
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

    /// Replace (or remove) the attached governor. A context outlives one
    /// query — its buffer pool keeps warming across executions — but each
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

    /// Release previously charged table bytes without recycling columns
    /// (for tables consumed by column moves rather than
    /// [`recycle`](Self::recycle)).
    pub fn release_bytes(&self, bytes: usize) {
        if let Some(gov) = &self.governor {
            gov.release(bytes);
        }
    }

    /// Recycle a consumed intermediate: release its bytes from the memory
    /// budget and park its columns in the pool.
    pub fn recycle(&self, table: BindingTable) {
        if let Some(gov) = &self.governor {
            gov.release(table_bytes(&table));
        }
        self.pool.recycle(table);
    }

    /// Record a kernel's morsel run in the execution-wide counters.
    pub(crate) fn note_run(&self, run: crate::morsel::MorselRun) {
        self.pool_batches.set(self.pool_batches.get() + run.batches);
        if run.threads > 1 {
            self.morsels.set(self.morsels.get() + run.morsels);
            self.parallel_kernels.set(self.parallel_kernels.get() + 1);
        }
    }

    /// Record a hash-join build phase ([`note_run`](Self::note_run) plus
    /// the parallel-build counter).
    pub(crate) fn note_build(&self, run: crate::morsel::MorselRun) {
        if run.threads > 1 {
            self.parallel_builds.set(self.parallel_builds.get() + 1);
        }
        self.note_run(run);
    }

    /// Record a parallel merge sort (`run.morsels` carries the initial
    /// sorted-run count) — the comparison-sort stage of ORDER BY and the
    /// sort order-enforcer.
    pub(crate) fn note_sort(&self, run: crate::morsel::MorselRun) {
        if run.threads > 1 {
            self.parallel_sorts.set(self.parallel_sorts.get() + 1);
        }
        self.note_run(run);
    }

    /// Record one executed pipeline: its morsel run (morsels pushed
    /// end-to-end through the stage chain) and the intermediate rows the
    /// operator-at-a-time evaluator would have materialised between the
    /// pipeline's operators but the pipeline kept as thread-local index
    /// vectors.
    pub(crate) fn note_pipeline(&self, run: crate::morsel::MorselRun, rows_avoided: usize) {
        self.pipelines.set(self.pipelines.get() + 1);
        // A sequential pipeline pushes its whole source as one morsel.
        self.pipeline_morsels
            .set(self.pipeline_morsels.get() + run.morsels.max(1));
        self.pipeline_rows_avoided
            .set(self.pipeline_rows_avoided.get() + rows_avoided);
        self.note_run(run);
    }

    /// Record `count` left-outer (OPTIONAL) probe stages executed inside
    /// one pipeline run.
    pub(crate) fn note_outer_probes(&self, count: usize) {
        self.pipeline_outer_probes
            .set(self.pipeline_outer_probes.get() + count);
    }

    /// Record one breaker output handed directly to its single consuming
    /// pipeline (no slot round-trip).
    pub(crate) fn note_handoff(&self) {
        self.breaker_handoffs.set(self.breaker_handoffs.get() + 1);
    }

    /// Record one hash-aggregation: the partial-fold morsel run and the
    /// number of finalised groups (counted whether or not the fold ran
    /// parallel; the parallel-aggregate counter only when it did).
    pub(crate) fn note_aggregate(&self, run: crate::morsel::MorselRun, groups: usize) {
        if run.threads > 1 {
            self.parallel_aggregates
                .set(self.parallel_aggregates.get() + 1);
        }
        self.aggregate_groups
            .set(self.aggregate_groups.get() + groups);
        self.note_run(run);
    }

    /// Record one DISTINCT deduplicated as a streaming pipeline stage
    /// (morsel-local pre-dedup + sink first-occurrence pass) instead of a
    /// materialising breaker.
    pub(crate) fn note_distinct_stream(&self) {
        self.distinct_streamed.set(self.distinct_streamed.get() + 1);
    }

    /// Record one scan that had to merge the storage delta overlay with
    /// the base run (no contiguous-slice fast path).
    pub(crate) fn note_overlay_scan(&self) {
        self.merged_scans.set(self.merged_scans.get() + 1);
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

    /// Reset the computed-term overlay. A context outlives one query (the
    /// buffer pool keeps warming across executions), but computed ids are
    /// positional — reusing a warm context for a new query must start the
    /// overlay fresh so both differential arms intern from id zero.
    pub fn clear_computed(&self) {
        self.computed_terms.borrow_mut().clear();
        self.computed_ids.borrow_mut().clear();
    }

    /// Morsels processed by parallel kernels so far.
    pub fn morsels_run(&self) -> usize {
        self.morsels.get()
    }

    /// Kernels that actually ran parallel so far.
    pub fn parallel_kernels(&self) -> usize {
        self.parallel_kernels.get()
    }

    /// Hash-join build phases that ran parallel so far.
    pub fn parallel_builds(&self) -> usize {
        self.parallel_builds.get()
    }

    /// Comparison sorts (ORDER BY / sort enforcer) that ran parallel so far.
    pub fn parallel_sorts(&self) -> usize {
        self.parallel_sorts.get()
    }

    /// Pipelines executed so far.
    pub fn pipelines(&self) -> usize {
        self.pipelines.get()
    }

    /// Morsels pushed end-to-end through executed pipelines so far.
    pub fn pipeline_morsels(&self) -> usize {
        self.pipeline_morsels.get()
    }

    /// Left-outer (OPTIONAL) probe stages executed inside pipelines so far.
    pub fn pipeline_outer_probes(&self) -> usize {
        self.pipeline_outer_probes.get()
    }

    /// Breaker outputs handed directly to their single consuming pipeline
    /// so far.
    pub fn breaker_handoffs(&self) -> usize {
        self.breaker_handoffs.get()
    }

    /// Intermediate rows pipelines kept as thread-local index vectors
    /// instead of materialising (what the operator-at-a-time evaluator
    /// would have written between the pipeline's operators).
    pub fn pipeline_rows_avoided(&self) -> usize {
        self.pipeline_rows_avoided.get()
    }

    /// Hash aggregations whose partial fold ran parallel so far.
    pub fn parallel_aggregates(&self) -> usize {
        self.parallel_aggregates.get()
    }

    /// Groups finalised by hash aggregations so far.
    pub fn aggregate_groups(&self) -> usize {
        self.aggregate_groups.get()
    }

    /// DISTINCTs deduplicated as streaming pipeline stages so far.
    pub fn distinct_streamed(&self) -> usize {
        self.distinct_streamed.get()
    }

    /// Scans that merged the storage delta overlay with the base run.
    pub fn merged_scans(&self) -> usize {
        self.merged_scans.get()
    }

    /// Task batches the noted runs submitted to the morsel pool so far.
    pub fn pool_batches(&self) -> usize {
        self.pool_batches.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsp_sparql::Var;

    #[test]
    fn take_put_cycle_hits_after_first_miss() {
        let pool = BufferPool::new();
        let col = pool.take_col(16);
        assert_eq!(
            pool.stats(),
            PoolStats {
                hits: 0,
                misses: 1,
                recycled: 0,
                returned: 0
            }
        );
        pool.put_col(col);
        let col2 = pool.take_col(8);
        assert!(col2.capacity() >= 8);
        assert_eq!(
            pool.stats(),
            PoolStats {
                hits: 1,
                misses: 1,
                recycled: 1,
                returned: 1
            }
        );
    }

    #[test]
    fn recycled_column_comes_back_cleared() {
        let pool = BufferPool::new();
        let mut col = pool.take_col(4);
        col.extend([TermId(1), TermId(2), TermId(3)]);
        pool.put_col(col);
        let col = pool.take_col(2);
        assert!(col.is_empty());
        assert!(col.capacity() >= 2);
    }

    #[test]
    fn recycle_table_parks_all_columns() {
        let pool = BufferPool::new();
        let table = BindingTable::from_columns(
            vec![Var(0), Var(1)],
            vec![vec![TermId(1)], vec![TermId(2)]],
            None,
        );
        pool.recycle(table);
        assert_eq!(pool.free_buffers(), 2);
        assert_eq!(pool.stats().recycled, 2);
    }

    #[test]
    fn zero_capacity_buffers_are_not_pooled() {
        let pool = BufferPool::new();
        pool.put_col(Vec::new());
        pool.put_idx(Vec::new());
        assert_eq!(pool.free_buffers(), 0);
        // …but they still count as returned: the balance counter tracks
        // hand-backs, not parking decisions.
        assert_eq!(pool.stats().returned, 2);
    }

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
        ctx.recycle(table);
        assert_eq!(ctx.governor().unwrap().mem_used(), 0);
        assert_eq!(ctx.pool.free_buffers(), 2);
    }

    #[test]
    fn oversized_buffers_are_not_pooled() {
        let pool = BufferPool::new();
        pool.put_col(Vec::with_capacity(MAX_POOLED_CAPACITY + 1));
        pool.put_idx(Vec::with_capacity(MAX_POOLED_CAPACITY + 1));
        assert_eq!(pool.free_buffers(), 0);
        pool.put_col(Vec::with_capacity(16));
        assert_eq!(pool.free_buffers(), 1);
    }

    #[test]
    fn free_list_is_bounded() {
        let pool = BufferPool::new();
        for _ in 0..(MAX_FREE_BUFFERS + 10) {
            pool.put_idx(Vec::with_capacity(4));
        }
        assert_eq!(pool.free_buffers(), MAX_FREE_BUFFERS);
    }

    #[test]
    fn context_counts_only_parallel_runs() {
        let ctx = ExecContext::with_threads(4);
        ctx.note_run(crate::morsel::MorselRun::SEQUENTIAL);
        assert_eq!(ctx.parallel_kernels(), 0);
        ctx.note_run(crate::morsel::MorselRun {
            morsels: 5,
            threads: 2,
            batches: 1,
        });
        assert_eq!(ctx.parallel_kernels(), 1);
        assert_eq!(ctx.morsels_run(), 5);
    }

    #[test]
    fn context_counts_builds_and_sorts() {
        let ctx = ExecContext::with_threads(4);
        // Sequential runs count nothing.
        ctx.note_build(crate::morsel::MorselRun::SEQUENTIAL);
        ctx.note_sort(crate::morsel::MorselRun::SEQUENTIAL);
        assert_eq!(ctx.parallel_builds(), 0);
        assert_eq!(ctx.parallel_sorts(), 0);
        assert_eq!(ctx.parallel_kernels(), 0);
        // Parallel runs count in their own counter and as kernels.
        ctx.note_build(crate::morsel::MorselRun {
            morsels: 3,
            threads: 2,
            batches: 1,
        });
        ctx.note_sort(crate::morsel::MorselRun {
            morsels: 2,
            threads: 3,
            batches: 2,
        });
        assert_eq!(ctx.parallel_builds(), 1);
        assert_eq!(ctx.parallel_sorts(), 1);
        assert_eq!(ctx.parallel_kernels(), 2);
        assert_eq!(ctx.morsels_run(), 3 + 2);
        assert_eq!(ctx.pool_batches(), 3);
    }
}
