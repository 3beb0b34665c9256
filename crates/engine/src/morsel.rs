//! Morsel-driven parallelism for the vectorized kernels, and the one
//! scheduler every parallel task of the engine runs on.
//!
//! Following Leis et al.'s morsel-driven execution model, a kernel's input
//! index range is cut into fixed-size **morsels** (~32k rows). The morsels
//! of one kernel invocation form a **batch** on a [`SharedPool`]: the
//! pool's long-lived workers — and the submitting thread, which always
//! helps on its own batch — pull task indices from the batch's atomic
//! cursor, so a slow morsel (one probe row with a huge match fan-out, say)
//! never stalls the others, and every task emits into its own buffer. The
//! per-morsel results are then stitched back together *in morsel order*,
//! which makes the parallel output byte-identical to the sequential one:
//! a morsel's rows are produced in probe order within the morsel, and the
//! morsels tile the input range in order.
//!
//! There is exactly one place where "N tasks run on workers" is
//! implemented — [`SharedPool`]'s batch queue — and [`run_tasks`] /
//! `try_run_tasks` have two arms each: inline on the caller when one
//! worker suffices, otherwise one submission to the pool the
//! [`MorselConfig`] names. The pool is an explicit value: a session
//! attaches its own pool and a per-query tag to the config of every
//! context it builds ([`MorselConfig::on_pool`]); a config with no pool
//! attached (direct `execute()` callers, the bench harness, unit tests)
//! submits to one lazily created process-default pool sized by
//! [`MorselConfig::auto`]`.threads()`. Because the submitter helps, a task
//! that submits again (a nested kernel) goes to the *same* pool without
//! deadlock, and a shut-down pool simply has no helpers: the submitter
//! runs the whole batch itself.
//!
//! Parallelism is gated the same way the six-order store build gates it:
//! the input must clear a row threshold (below it, the hand-over to other
//! threads costs more than it saves) and the machine must report more than
//! one core via [`std::thread::available_parallelism`]. Both gates can be
//! overridden with a forced thread count, which is how a single-core CI
//! container still exercises the parallel path in unit tests.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crate::govern::{GovernorError, QueryGovernor};

/// Rows per morsel. Large enough that the per-morsel bookkeeping (one
/// atomic fetch-add, one mutex lock to park the result) is noise; small
/// enough that a skewed morsel cannot dominate the schedule.
pub const DEFAULT_MORSEL_ROWS: usize = 32 * 1024;

/// Below this many input rows a kernel stays sequential: the work fits in
/// cache and the hand-over to the pool would dominate. Matches the spirit
/// of the store build's `PARALLEL_THRESHOLD`.
pub const DEFAULT_MIN_PARALLEL_ROWS: usize = 32 * 1024;

/// Morsel size under the `HSP_FORCE_THREADS` override: small enough that
/// even unit-test-sized inputs split across several workers.
pub const FORCED_ENV_MORSEL_ROWS: usize = 256;

/// How a kernel splits work — thread budget, morsel size, and the row
/// threshold under which it stays sequential — and where its parallel
/// tasks run: the attached [`SharedPool`], or the process default.
#[derive(Debug, Clone)]
pub struct MorselConfig {
    threads: usize,
    morsel_rows: usize,
    min_parallel_rows: usize,
    /// `None` submits to the process-default pool.
    pool: Option<SharedPool>,
    /// The owning query, for the pool's cross-query accounting.
    tag: u64,
}

impl MorselConfig {
    /// Thread budget from [`std::thread::available_parallelism`] — the
    /// production configuration.
    ///
    /// The `HSP_FORCE_THREADS` environment variable overrides core
    /// detection, drops the row threshold to zero, **and** shrinks
    /// morsels to [`FORCED_ENV_MORSEL_ROWS`], so every kernel takes its
    /// parallel path even on unit-test-sized inputs (the worker count is
    /// capped at one worker per morsel, so forcing the threshold alone
    /// would leave sub-morsel inputs sequential). This is the CI knob
    /// that exercises the morsel pool on small runners (parallel output
    /// is byte-identical to sequential by construction, so forcing it
    /// globally is always safe — just slower on tiny inputs).
    pub fn auto() -> Self {
        if let Some(forced) = parse_forced_threads(std::env::var("HSP_FORCE_THREADS").ok()) {
            return MorselConfig::with_threads(forced)
                .with_min_parallel_rows(0)
                .with_morsel_rows(FORCED_ENV_MORSEL_ROWS);
        }
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        MorselConfig::with_threads(threads)
    }

    /// Always sequential (a one-thread budget).
    pub fn sequential() -> Self {
        MorselConfig::with_threads(1)
    }

    /// A forced thread count, bypassing core detection (used by tests and
    /// benchmarks on single-core machines). The row threshold still
    /// applies; lower it with [`MorselConfig::with_min_parallel_rows`] to
    /// force-parallelize tiny inputs.
    pub fn with_threads(threads: usize) -> Self {
        MorselConfig {
            threads: threads.max(1),
            morsel_rows: DEFAULT_MORSEL_ROWS,
            min_parallel_rows: DEFAULT_MIN_PARALLEL_ROWS,
            pool: None,
            tag: 0,
        }
    }

    /// Submit every parallel task of this configuration to `pool`, tagged
    /// with `tag` (one distinct tag per query, so the pool can count
    /// workers alternating between queries).
    pub fn on_pool(mut self, pool: &SharedPool, tag: u64) -> Self {
        self.pool = Some(pool.clone());
        self.tag = tag;
        self
    }

    /// Override the morsel size (clamped to ≥ 1).
    pub fn with_morsel_rows(mut self, rows: usize) -> Self {
        self.morsel_rows = rows.max(1);
        self
    }

    /// Override the sequential-below threshold.
    pub fn with_min_parallel_rows(mut self, rows: usize) -> Self {
        self.min_parallel_rows = rows;
        self
    }

    /// The configured thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Rows per morsel.
    pub fn morsel_rows(&self) -> usize {
        self.morsel_rows
    }

    /// Worker count for an input of `rows`: 1 when the input is under the
    /// threshold or the budget is one thread, otherwise at most one worker
    /// per morsel.
    pub fn workers_for(&self, rows: usize) -> usize {
        if rows < self.min_parallel_rows {
            return 1;
        }
        self.threads.min(rows.div_ceil(self.morsel_rows)).max(1)
    }

    /// The pool this configuration's batches go to.
    pub(crate) fn pool(&self) -> &SharedPool {
        static DEFAULT: OnceLock<SharedPool> = OnceLock::new();
        self.pool
            .as_ref()
            .unwrap_or_else(|| DEFAULT.get_or_init(|| SharedPool::new(Self::auto().threads())))
    }
}

impl Default for MorselConfig {
    /// The production default: [`MorselConfig::auto`].
    fn default() -> Self {
        MorselConfig::auto()
    }
}

/// Parse the `HSP_FORCE_THREADS` value (factored out of [`MorselConfig::auto`]
/// so it is testable without mutating process-global environment state).
/// `0`, negative, overflowing, and non-numeric values all return `None`,
/// so [`MorselConfig::auto`] falls back to core detection instead of
/// configuring a zero-worker pool.
fn parse_forced_threads(value: Option<String>) -> Option<usize> {
    value?.trim().parse().ok().filter(|&n: &usize| n >= 1)
}

/// What one [`run_morsels`] call did — feeds the engine's runtime counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MorselRun {
    /// Number of morsels the range was cut into (0 when run sequentially
    /// as one undivided range).
    pub morsels: usize,
    /// Threads that could take part: the pool's workers plus the
    /// submitter, capped by the task count (1 = ran inline).
    pub threads: usize,
    /// Batches submitted to the pool (0 = ran inline).
    pub batches: usize,
}

impl MorselRun {
    /// What a run that stayed inline on the caller's thread reports.
    pub const SEQUENTIAL: MorselRun = MorselRun {
        morsels: 0,
        threads: 1,
        batches: 0,
    };

    /// This run and `next` as one counter entry: their morsels and batches
    /// added up, the wider of their thread counts.
    pub fn then(self, next: MorselRun) -> MorselRun {
        MorselRun {
            morsels: self.morsels + next.morsels,
            threads: self.threads.max(next.threads),
            batches: self.batches + next.batches,
        }
    }
}

/// Cut `0..rows` into morsels, run `worker` over every morsel on the
/// config's pool, and return the per-morsel results **in morsel order**
/// (deterministic regardless of scheduling). Falls back to a single
/// sequential `worker(0..rows)` call when [`MorselConfig::workers_for`]
/// says parallelism cannot win.
pub fn run_morsels<T: Send>(
    rows: usize,
    config: &MorselConfig,
    worker: impl Fn(Range<usize>) -> T + Sync,
) -> (Vec<T>, MorselRun) {
    let threads = config.workers_for(rows);
    if threads <= 1 {
        return (vec![worker(0..rows)], MorselRun::SEQUENTIAL);
    }
    // A morsel run is a task run whose task `m` is the m-th morsel range
    // (`workers_for` already capped `threads` at the morsel count).
    let morsel_rows = config.morsel_rows;
    let morsels = rows.div_ceil(morsel_rows);
    run_tasks(morsels, threads, config, |m| {
        let start = m * morsel_rows;
        worker(start..(start + morsel_rows).min(rows))
    })
}

/// Run `count` independent tasks and return the results **in task
/// order**. With a budget of one worker — or one task — everything runs
/// inline on the caller's thread; otherwise the tasks are one batch on
/// the config's [`SharedPool`] (an atomic cursor hands out task indices to
/// the pool's workers and the helping submitter, so a slow task never
/// stalls the others). Results and their order are identical either way.
///
/// This is the one entry to the scheduler: [`run_morsels`] delegates here
/// with one task per morsel, [`fill_stripes`] with one task per stripe,
/// and *partitioned* work — the range-partitioned merge join, the
/// partitioned counting sort of the parallel hash-join build, whose
/// per-task ranges are data-dependent and non-uniform — calls it
/// directly.
pub fn run_tasks<T: Send>(
    count: usize,
    threads: usize,
    config: &MorselConfig,
    task: impl Fn(usize) -> T + Sync,
) -> (Vec<T>, MorselRun) {
    if threads.min(count) <= 1 {
        return ((0..count).map(&task).collect(), MorselRun::SEQUENTIAL);
    }
    config
        .pool()
        .run_batch(config.tag, count, None, "worker", &task)
        // invariant: only a governor produces the error, and none is
        // attached (a panicking task re-panics on the submitter instead).
        .expect("ungoverned batch cannot trip")
}

/// [`run_tasks`] under a [`QueryGovernor`]: every task claim is a
/// cooperative checkpoint for `site`, and each task body runs under
/// [`catch_unwind`] so a panicking kernel trips the governor instead of
/// unwinding through a pool worker. On a trip the remaining tasks are
/// claimed but not run, the batch drains, and the partial per-task
/// results are dropped. With no governor this *is* [`run_tasks`] — zero
/// overhead on the ungoverned path.
pub(crate) fn try_run_tasks<T: Send>(
    count: usize,
    threads: usize,
    config: &MorselConfig,
    gov: Option<&QueryGovernor>,
    site: &'static str,
    task: impl Fn(usize) -> T + Sync,
) -> Result<(Vec<T>, MorselRun), GovernorError> {
    let Some(gov) = gov else {
        return Ok(run_tasks(count, threads, config, task));
    };
    if threads.min(count) <= 1 {
        let mut results = Vec::with_capacity(count);
        for t in 0..count {
            // The checkpoint runs inside the unwind guard too: an injected
            // `panic@site` fault is indistinguishable from a kernel panic.
            match catch_unwind(AssertUnwindSafe(|| -> Result<T, GovernorError> {
                gov.check(site)?;
                Ok(task(t))
            })) {
                Ok(Ok(result)) => results.push(result),
                Ok(Err(e)) => return Err(e),
                Err(_) => return Err(gov.note_panic(site)),
            }
        }
        return Ok((results, MorselRun::SEQUENTIAL));
    }
    config
        .pool()
        .run_batch(config.tag, count, Some(gov), site, &task)
}

/// [`run_morsels`] under a [`QueryGovernor`] (see [`try_run_tasks`]).
/// The governed *sequential* path still cuts the input into morsels —
/// instead of one undivided `worker(0..rows)` call — so deadline and
/// cancellation latency stay bounded by one morsel even on a one-thread
/// budget. Callers must therefore be prepared to stitch multiple parts
/// on any governed run.
pub(crate) fn try_run_morsels<T: Send>(
    rows: usize,
    config: &MorselConfig,
    gov: Option<&QueryGovernor>,
    site: &'static str,
    worker: impl Fn(Range<usize>) -> T + Sync,
) -> Result<(Vec<T>, MorselRun), GovernorError> {
    let Some(gov) = gov else {
        return Ok(run_morsels(rows, config, worker));
    };
    let threads = config.workers_for(rows);
    let morsel_rows = config.morsel_rows;
    // At least one (possibly empty) morsel, mirroring the ungoverned
    // sequential path's unconditional `worker(0..rows)` call.
    let morsels = rows.div_ceil(morsel_rows).max(1);
    try_run_tasks(morsels, threads, config, Some(gov), site, |m| {
        let start = m * morsel_rows;
        worker(start..(start + morsel_rows).min(rows))
    })
}

/// The governed sequential morsel loop for workers that are not `Sync`
/// (the pipeline's main-thread path borrows the single-threaded buffer
/// pool and a `RefCell`-cached evaluator). Identical semantics to
/// [`try_run_morsels`] on one thread: morsel-granular checkpoints, each
/// morsel under [`catch_unwind`].
pub(crate) fn try_run_morsels_seq<T>(
    rows: usize,
    config: &MorselConfig,
    gov: &QueryGovernor,
    site: &'static str,
    worker: impl Fn(Range<usize>) -> T,
) -> Result<(Vec<T>, MorselRun), GovernorError> {
    let morsel_rows = config.morsel_rows;
    let morsels = rows.div_ceil(morsel_rows).max(1);
    let mut results = Vec::with_capacity(morsels);
    for m in 0..morsels {
        let start = m * morsel_rows;
        match catch_unwind(AssertUnwindSafe(|| -> Result<T, GovernorError> {
            gov.check(site)?;
            Ok(worker(start..(start + morsel_rows).min(rows)))
        })) {
            Ok(Ok(result)) => results.push(result),
            Ok(Err(e)) => return Err(e),
            Err(_) => return Err(gov.note_panic(site)),
        }
    }
    Ok((results, MorselRun::SEQUENTIAL))
}

/// Fill `out` by applying `fill(offset, chunk)` to contiguous stripes, in
/// parallel when the config allows it — the shape of the scan fast path's
/// column gather, where the output length is known up front. Each worker
/// owns a disjoint stripe of roughly `len / workers` rows (rounded up to
/// whole morsels), so the result is position-deterministic by
/// construction.
/// A claim-once slot transferring one output stripe — `(offset, chunk)` —
/// into the task that takes it.
type StripeSlot<'a, T> = Mutex<Option<(usize, &'a mut [T])>>;

pub fn fill_stripes<T: Send>(
    out: &mut [T],
    config: &MorselConfig,
    fill: impl Fn(usize, &mut [T]) + Sync,
) -> MorselRun {
    let rows = out.len();
    let threads = config.workers_for(rows);
    if threads <= 1 {
        fill(0, out);
        return MorselRun::SEQUENTIAL;
    }
    // Stripe size: whole morsels, spread across the worker budget.
    let stripe = stripe_rows(rows, threads, config.morsel_rows);
    let mut stripes: Vec<StripeSlot<'_, T>> = Vec::new();
    let mut rest = out;
    let mut offset = 0;
    while !rest.is_empty() {
        let take = stripe.min(rest.len());
        let (head, tail) = rest.split_at_mut(take);
        stripes.push(Mutex::new(Some((offset, head))));
        offset += take;
        rest = tail;
    }
    // One task per stripe. Slots only transfer stripe ownership *into* the
    // tasks; each task index maps to a distinct slot, claimed exactly once.
    let (_, run) = run_tasks(stripes.len(), threads, config, |s| {
        let (offset, chunk) = stripes[s]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
            .expect("each stripe is claimed exactly once");
        fill(offset, chunk);
    });
    MorselRun {
        morsels: stripes.len(),
        ..run
    }
}

/// Stable parallel merge sort: cut `items` into contiguous per-worker
/// runs, sort each run on the task pool, then merge the runs pairwise —
/// each merge round runs its pairs as parallel tasks — until one run
/// remains. Ties keep input order (a run is a contiguous input range,
/// runs merge in range order, and the pairwise merge takes from the
/// earlier run on equal elements), so the result is element-for-element
/// identical to a sequential stable `sort_by`. Below the config's
/// parallel threshold (or on a one-thread budget) this *is* a sequential
/// stable sort.
///
/// This is the comparison-sort counterpart of the partition-stitch
/// kernels: the serial stage the ORDER BY / sort-enforcer path was left
/// with after its key extraction went morsel-parallel.
pub fn merge_sort<T: Send>(
    items: Vec<T>,
    config: &MorselConfig,
    cmp: impl Fn(&T, &T) -> std::cmp::Ordering + Sync,
) -> (Vec<T>, MorselRun) {
    let workers = config.workers_for(items.len());
    if workers <= 1 {
        let mut items = items;
        items.sort_by(&cmp);
        return (items, MorselRun::SEQUENTIAL);
    }

    // Per-worker sorted runs over contiguous, morsel-aligned stripes.
    let ranges = stripe_ranges(items.len(), workers, config.morsel_rows());
    let initial_runs = ranges.len();
    let mut source = items;
    let mut runs: Vec<Vec<T>> = Vec::with_capacity(initial_runs);
    // Carve the input into owned runs back-to-front (split_off keeps the
    // prefix in place, so ranges pop off the tail in reverse).
    for range in ranges.iter().rev() {
        let run = source.split_off(range.start);
        runs.push(run);
    }
    runs.reverse();
    // Slots only transfer run ownership *into* the tasks; sorted/merged
    // runs come back as `run_tasks` return values, already in task order.
    let take = |slots: &[Mutex<Option<Vec<T>>>], i: usize| -> Vec<T> {
        slots[i]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
            // invariant: each slot is filled once above and taken once —
            // every task index maps to a distinct slot.
            .expect("run present")
    };
    let slots: Vec<Mutex<Option<Vec<T>>>> = runs.into_iter().map(|r| Mutex::new(Some(r))).collect();
    let (mut runs, mut total) = run_tasks(slots.len(), workers, config, |s| {
        let mut run = take(&slots, s);
        run.sort_by(&cmp);
        run
    });
    total.morsels = initial_runs;

    // Merge rounds: adjacent runs pair up (preserving range order); an odd
    // trailing run carries into the next round unmerged.
    while runs.len() > 1 {
        let pairs = runs.len() / 2;
        let leftover = if runs.len() % 2 == 1 {
            runs.pop()
        } else {
            None
        };
        let slots: Vec<Mutex<Option<Vec<T>>>> =
            runs.into_iter().map(|r| Mutex::new(Some(r))).collect();
        let (merged, merge_run) = run_tasks(pairs, workers, config, |p| {
            merge_two(take(&slots, 2 * p), take(&slots, 2 * p + 1), &cmp)
        });
        total.threads = total.threads.max(merge_run.threads);
        total.batches += merge_run.batches;
        runs = merged;
        runs.extend(leftover);
    }
    (runs.pop().unwrap_or_default(), total)
}

/// Merge two sorted runs, taking from `a` (the earlier input range) on
/// ties — the stability invariant of [`merge_sort`].
fn merge_two<T>(a: Vec<T>, b: Vec<T>, cmp: &impl Fn(&T, &T) -> std::cmp::Ordering) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut bi = b.into_iter().peekable();
    for x in a {
        while let Some(y) = bi.peek() {
            if cmp(y, &x) == std::cmp::Ordering::Less {
                // invariant: `peek` just returned `Some`.
                out.push(bi.next().expect("peeked"));
            } else {
                break;
            }
        }
        out.push(x);
    }
    out.extend(bi);
    out
}

/// Rows per stripe when `rows` are spread over `workers` contiguous
/// stripes: whole morsels, rounded up, at least one morsel.
fn stripe_rows(rows: usize, workers: usize, morsel_rows: usize) -> usize {
    rows.div_ceil(workers).div_ceil(morsel_rows).max(1) * morsel_rows
}

/// Cut `0..rows` into at most `workers` contiguous, morsel-aligned stripes
/// (the [`fill_stripes`] decomposition, exposed for two-pass kernels that
/// must visit the *same* stripes twice — the parallel hash-join build's
/// histogram and scatter passes).
pub fn stripe_ranges(rows: usize, workers: usize, morsel_rows: usize) -> Vec<Range<usize>> {
    if rows == 0 {
        return Vec::new();
    }
    let stripe = stripe_rows(rows, workers.max(1), morsel_rows.max(1));
    let mut ranges = Vec::new();
    let mut start = 0;
    while start < rows {
        let end = (start + stripe).min(rows);
        ranges.push(start..end);
        start = end;
    }
    ranges
}

// ---------------------------------------------------------------------------
// The shared, long-lived morsel pool — the scheduler.
//
// One pool serves *many concurrent queries*: each parallel kernel
// invocation becomes a tagged **batch** of tasks on a round-robin queue,
// and the pool's workers interleave claims across batches — so a long scan
// of one query never starves the morsels of another (Leis et al.'s
// elasticity argument). The submitter helps on its own batch until its
// cursor is exhausted, which is what makes nested submissions and
// submissions to a shut-down pool safe.
// ---------------------------------------------------------------------------

/// Snapshot of a [`SharedPool`]'s lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads the pool was built with.
    pub threads: usize,
    /// Task batches (one per parallel kernel invocation) dispatched.
    pub batches: u64,
    /// Individual tasks (morsels / partitions / stripes) dispatched.
    pub tasks: u64,
    /// Times a worker's consecutive claims came from *different* queries
    /// — direct evidence of cross-query morsel scheduling on one pool.
    pub cross_query_switches: u64,
}

/// Lifetime-erased pointer to a batch's task closure.
///
/// Safety contract (upheld by [`SharedPool::run_erased`]): the submitter
/// does not return until every claimed task index has completed, and an
/// exhausted cursor means later claims never dereference the pointer —
/// so the pointee outlives every dereference.
struct TaskRef(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: the pointee is `Sync` (concurrent `&`-calls from many workers
// are fine) and `run_erased` keeps it alive for the batch's whole
// lifetime, so handing the pointer to pool workers is safe.
unsafe impl Send for TaskRef {}
unsafe impl Sync for TaskRef {}

/// One parallel kernel invocation queued on the shared pool: `count`
/// independent tasks claimed through an atomic cursor, tagged with the
/// owning query.
struct Batch {
    /// The submitting query (from [`MorselConfig::on_pool`]) — only used
    /// to count cross-query switches.
    tag: u64,
    task: TaskRef,
    count: usize,
    cursor: AtomicUsize,
    completed: AtomicUsize,
    panicked: AtomicBool,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Batch {
    /// Claim the next unclaimed task index, if any.
    fn claim(&self) -> Option<usize> {
        // Opportunistic read first, so an exhausted batch parked in the
        // queue does not grow its cursor unboundedly while it waits to
        // be dropped.
        if self.exhausted() {
            return None;
        }
        let t = self.cursor.fetch_add(1, Ordering::Relaxed);
        (t < self.count).then_some(t)
    }

    /// Execute a claimed task index and account its completion.
    fn run_claimed(&self, t: usize) {
        // SAFETY: `t` came from `claim`, so the submitter is still parked
        // in `run_erased` and the closure behind the pointer is alive.
        let task = unsafe { &*self.task.0 };
        if catch_unwind(AssertUnwindSafe(|| task(t))).is_err() {
            self.panicked.store(true, Ordering::Release);
        }
        if self.completed.fetch_add(1, Ordering::AcqRel) + 1 == self.count {
            *self
                .done
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
            self.done_cv.notify_all();
        }
    }

    fn exhausted(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) >= self.count
    }
}

struct PoolInner {
    /// Round-robin batch queue: a worker pops the front batch, rotates it
    /// to the back, and claims ONE task — so concurrent queries make
    /// interleaved progress instead of running back-to-back.
    queue: Mutex<VecDeque<Arc<Batch>>>,
    available: Condvar,
    shutdown: AtomicBool,
    threads: usize,
    batches: AtomicU64,
    tasks: AtomicU64,
    cross_query_switches: AtomicU64,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

fn worker_loop(inner: &PoolInner) {
    let mut last_tag: Option<u64> = None;
    loop {
        let batch = {
            let mut queue = inner
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Drop fully-claimed batches as they surface (completion
                // is the submitter's business, not the queue's).
                while queue.front().is_some_and(|b| b.exhausted()) {
                    queue.pop_front();
                }
                if let Some(front) = queue.pop_front() {
                    queue.push_back(Arc::clone(&front));
                    break front;
                }
                queue = inner
                    .available
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        if let Some(t) = batch.claim() {
            if last_tag != Some(batch.tag) {
                if last_tag.is_some() {
                    inner.cross_query_switches.fetch_add(1, Ordering::Relaxed);
                }
                last_tag = Some(batch.tag);
            }
            batch.run_claimed(t);
        }
    }
}

/// A shared, long-lived morsel worker pool (cheaply clonable handle).
///
/// Create once per server/session, attach it to each query's
/// [`MorselConfig`] ([`MorselConfig::on_pool`]), and every parallel kernel
/// of that query schedules its morsels here. Call
/// [`SharedPool::shutdown`] to join the workers; a pool that is never shut
/// down (the process default) parks its workers on a condvar until process
/// exit. A batch submitted to a shut-down pool still completes: its
/// submitter runs all of it.
#[derive(Clone)]
pub struct SharedPool {
    inner: Arc<PoolInner>,
}

impl std::fmt::Debug for SharedPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedPool")
            .field("threads", &self.inner.threads)
            .field("stats", &self.stats())
            .finish()
    }
}

impl SharedPool {
    /// Spawn a pool of `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            threads,
            batches: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
            cross_query_switches: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
        });
        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let worker_inner = Arc::clone(&inner);
            let handle = std::thread::Builder::new()
                .name(format!("hsp-pool-{i}"))
                .spawn(move || worker_loop(&worker_inner))
                .expect("spawn shared-pool worker");
            workers.push(handle);
        }
        *inner
            .workers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = workers;
        SharedPool { inner }
    }

    /// The worker-thread count the pool was built with.
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Lifetime counters (batches, tasks, cross-query switches).
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.inner.threads,
            batches: self.inner.batches.load(Ordering::Relaxed),
            tasks: self.inner.tasks.load(Ordering::Relaxed),
            cross_query_switches: self.inner.cross_query_switches.load(Ordering::Relaxed),
        }
    }

    /// Join the workers (idempotent). In-flight and later batches still
    /// complete: their submitters help on their own batch until the
    /// cursor is exhausted, whether or not any worker remains.
    pub fn shutdown(&self) {
        // Set the flag under the queue lock: a worker checks it and parks
        // on `available` under that same lock, so it either sees the flag
        // or is already waiting when the notification below fires — never
        // in between, where the wake-up would be lost and `join` would
        // hang.
        {
            let _queue = self
                .inner
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            self.inner.shutdown.store(true, Ordering::Release);
        }
        self.inner.available.notify_all();
        let workers = std::mem::take(
            &mut *self
                .inner
                .workers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for handle in workers {
            let _ = handle.join();
        }
    }

    /// Enqueue a lifetime-erased batch, help on it exclusively until its
    /// cursor is exhausted, then wait for straggling workers. Returns
    /// whether any task panicked.
    ///
    /// Because the submitter helps on its *own* batch, a saturated pool, a
    /// shut-down pool, or a submission from inside one of the pool's own
    /// tasks can never deadlock a request: worst case the submitter runs
    /// the whole batch itself.
    fn run_erased(&self, tag: u64, count: usize, task: &(dyn Fn(usize) + Sync)) -> bool {
        // SAFETY: lifetime erasure only — see the `TaskRef` contract.
        let task: *const (dyn Fn(usize) + Sync + 'static) =
            unsafe { std::mem::transmute(task as *const (dyn Fn(usize) + Sync)) };
        let batch = Arc::new(Batch {
            tag,
            task: TaskRef(task),
            count,
            cursor: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        {
            let mut queue = self
                .inner
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            // `shutdown` sets the flag under this lock: once it is set no
            // worker will ever pop the queue again, so do not grow it.
            if !self.inner.shutdown.load(Ordering::Acquire) {
                queue.push_back(Arc::clone(&batch));
            }
        }
        self.inner.available.notify_all();
        self.inner.batches.fetch_add(1, Ordering::Relaxed);
        self.inner.tasks.fetch_add(count as u64, Ordering::Relaxed);
        while let Some(t) = batch.claim() {
            batch.run_claimed(t);
        }
        let mut done = batch
            .done
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while !*done {
            done = batch
                .done_cv
                .wait(done)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        batch.panicked.load(Ordering::Acquire)
    }

    /// The typed batch run behind [`run_tasks`] / [`try_run_tasks`]
    /// (`count ≥ 2`): governor checkpoints before every task (a trip
    /// drains the remaining claims cheaply), results in task order.
    fn run_batch<T: Send>(
        &self,
        tag: u64,
        count: usize,
        gov: Option<&QueryGovernor>,
        site: &'static str,
        task: &(impl Fn(usize) -> T + Sync),
    ) -> Result<(Vec<T>, MorselRun), GovernorError> {
        let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
        let erased = |t: usize| {
            if let Some(gov) = gov {
                if gov.check(site).is_err() {
                    // Tripped: claims keep draining, work stops. The
                    // batch completes quickly and the pool stays clean
                    // for the next query.
                    return;
                }
            }
            let result = task(t);
            *slots[t]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(result);
        };
        if self.run_erased(tag, count, &erased) {
            let Some(gov) = gov else {
                // Nobody to report to: the panic resurfaces on the
                // submitter, as if it had run the task itself.
                panic!("morsel task panicked on the shared pool at {site}");
            };
            return Err(gov.note_panic(site));
        }
        if let Some(e) = gov.and_then(QueryGovernor::trip_error) {
            return Err(e);
        }
        let results = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    // invariant: no trip and no panic means every claimed
                    // index stored its result before completing.
                    .expect("every task produced a result")
            })
            .collect();
        let run = MorselRun {
            morsels: count,
            // The submitter helps alongside the pool's workers.
            threads: (self.inner.threads + 1).min(count),
            batches: 1,
        };
        Ok((results, run))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_below_threshold() {
        let config = MorselConfig::with_threads(4);
        assert_eq!(config.workers_for(10), 1);
        let (results, run) = run_morsels(10, &config, |r| r.len());
        assert_eq!(results, vec![10]);
        assert_eq!(run, MorselRun::SEQUENTIAL);
    }

    #[test]
    fn workers_capped_by_morsel_count() {
        let config = MorselConfig::with_threads(8)
            .with_morsel_rows(100)
            .with_min_parallel_rows(0);
        // 250 rows = 3 morsels: no point in 8 workers.
        assert_eq!(config.workers_for(250), 3);
    }

    #[test]
    fn morsel_results_come_back_in_range_order() {
        for threads in 2..=4 {
            let config = MorselConfig::with_threads(threads)
                .with_morsel_rows(7)
                .with_min_parallel_rows(0);
            let (results, run) = run_morsels(100, &config, |r| r.clone());
            assert_eq!(run.morsels, 100usize.div_ceil(7));
            assert_eq!(run.batches, 1);
            let flat: Vec<usize> = results.into_iter().flatten().collect();
            let expected: Vec<usize> = (0..100).collect();
            assert_eq!(flat, expected);
        }
    }

    #[test]
    fn zero_rows_is_fine() {
        let config = MorselConfig::with_threads(3).with_min_parallel_rows(0);
        let (results, _) = run_morsels(0, &config, |r| r.len());
        assert_eq!(results.iter().sum::<usize>(), 0);
    }

    #[test]
    fn fill_stripes_is_position_deterministic() {
        for threads in 1..=4 {
            let config = MorselConfig::with_threads(threads)
                .with_morsel_rows(8)
                .with_min_parallel_rows(0);
            let mut out = vec![0usize; 100];
            fill_stripes(&mut out, &config, |offset, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = offset + i;
                }
            });
            let expected: Vec<usize> = (0..100).collect();
            assert_eq!(out, expected);
        }
    }

    #[test]
    fn run_tasks_returns_results_in_task_order() {
        for threads in 1..=4 {
            let (results, run) =
                run_tasks(9, threads, &MorselConfig::with_threads(threads), |t| t * 10);
            assert_eq!(results, (0..9).map(|t| t * 10).collect::<Vec<_>>());
            if threads == 1 {
                assert_eq!(run, MorselRun::SEQUENTIAL);
            } else {
                assert_eq!((run.morsels, run.batches), (9, 1));
            }
        }
        let (empty, run) = run_tasks(0, 4, &MorselConfig::with_threads(4), |t| t);
        assert!(empty.is_empty());
        assert_eq!(run, MorselRun::SEQUENTIAL);
    }

    #[test]
    fn stripe_ranges_tile_the_input_exactly() {
        for rows in [0usize, 1, 7, 64, 100, 129] {
            for workers in 1..=4 {
                let ranges = stripe_ranges(rows, workers, 8);
                let flat: Vec<usize> = ranges.iter().cloned().flatten().collect();
                assert_eq!(
                    flat,
                    (0..rows).collect::<Vec<_>>(),
                    "rows={rows} workers={workers}"
                );
                assert!(ranges.len() <= workers.max(1).max(rows));
                for r in &ranges {
                    assert!(r.start < r.end);
                }
            }
        }
    }

    #[test]
    fn merge_sort_matches_sequential_stable_sort() {
        // Keys with heavy duplication + a payload that records input order:
        // the parallel sort must keep ties in input order, exactly like the
        // sequential stable sort.
        let items: Vec<(u32, usize)> = (0..1000)
            .map(|i| ((i as u32).wrapping_mul(2654435761) % 7, i))
            .collect();
        let mut expected = items.clone();
        expected.sort_by_key(|item| item.0);
        for threads in 1..=4 {
            let config = MorselConfig::with_threads(threads)
                .with_morsel_rows(16)
                .with_min_parallel_rows(0);
            let (sorted, run) = merge_sort(items.clone(), &config, |a, b| a.0.cmp(&b.0));
            assert_eq!(sorted, expected, "threads={threads}");
            if threads > 1 {
                assert!(run.morsels > 1);
                // One batch for the run sorts, one per merge round that
                // still had at least two pairs.
                assert!(run.batches >= 1);
            }
        }
    }

    #[test]
    fn merge_sort_handles_empty_and_tiny_inputs() {
        let config = MorselConfig::with_threads(3)
            .with_morsel_rows(4)
            .with_min_parallel_rows(0);
        let (empty, _) = merge_sort(Vec::<u32>::new(), &config, |a, b| a.cmp(b));
        assert!(empty.is_empty());
        let (one, _) = merge_sort(vec![5u32], &config, |a, b| a.cmp(b));
        assert_eq!(one, vec![5]);
        let (two, _) = merge_sort(vec![9u32, 2], &config, |a, b| a.cmp(b));
        assert_eq!(two, vec![2, 9]);
    }

    #[test]
    fn forced_threads_env_parsing() {
        // Garbage and zero fall back to auto-detection (`None`) instead of
        // configuring a zero-worker pool.
        assert_eq!(parse_forced_threads(None), None);
        assert_eq!(parse_forced_threads(Some("".into())), None);
        assert_eq!(parse_forced_threads(Some("abc".into())), None);
        assert_eq!(parse_forced_threads(Some("0".into())), None);
        assert_eq!(parse_forced_threads(Some(" 0 ".into())), None);
        assert_eq!(parse_forced_threads(Some("-3".into())), None);
        assert_eq!(parse_forced_threads(Some("4x".into())), None);
        assert_eq!(parse_forced_threads(Some("3.5".into())), None);
        // Larger than usize::MAX: the parse overflows and is rejected.
        assert_eq!(
            parse_forced_threads(Some("99999999999999999999999999".into())),
            None
        );
        assert_eq!(parse_forced_threads(Some("4".into())), Some(4));
        assert_eq!(parse_forced_threads(Some(" 2 ".into())), Some(2));
        assert_eq!(parse_forced_threads(Some("1".into())), Some(1));
    }

    #[test]
    fn forced_threads_bypass_core_detection() {
        // Even on a single-core machine, a forced budget parallelizes.
        let config = MorselConfig::with_threads(3)
            .with_morsel_rows(10)
            .with_min_parallel_rows(0);
        let (results, run) = run_morsels(35, &config, |r| r.len());
        assert_eq!((run.morsels, run.batches), (4, 1));
        assert_eq!(results.iter().sum::<usize>(), 35);
    }

    #[test]
    fn governed_tasks_match_ungoverned_when_nothing_trips() {
        let gov = QueryGovernor::new();
        for threads in 1..=4 {
            let (results, _) = try_run_tasks(
                9,
                threads,
                &MorselConfig::with_threads(threads),
                Some(&gov),
                "worker",
                |t| t * 10,
            )
            .unwrap();
            assert_eq!(results, (0..9).map(|t| t * 10).collect::<Vec<_>>());
        }
        assert!(gov.checks() > 0);
    }

    #[test]
    fn governed_tasks_without_governor_delegate() {
        let (results, run) =
            try_run_tasks(5, 2, &MorselConfig::with_threads(2), None, "worker", |t| {
                t + 1
            })
            .unwrap();
        assert_eq!(results, vec![1, 2, 3, 4, 5]);
        assert_eq!((run.morsels, run.batches), (5, 1));
    }

    #[test]
    fn cancelled_tasks_stop_early_and_drain() {
        use crate::govern::CancelToken;
        for threads in 1..=4 {
            let token = Arc::new(CancelToken::new());
            let gov = QueryGovernor::new().with_token(token.clone());
            let done = AtomicUsize::new(0);
            let err = try_run_tasks(
                1000,
                threads,
                &MorselConfig::with_threads(threads),
                Some(&gov),
                "worker",
                |t| {
                    if t == 3 {
                        token.cancel();
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                },
            )
            .unwrap_err();
            assert_eq!(err, GovernorError::Cancelled, "threads={threads}");
            // The batch drained without running everything.
            assert!(
                done.load(Ordering::Relaxed) < 1000,
                "threads={threads} ran all tasks despite cancellation"
            );
        }
    }

    #[test]
    fn panicking_task_converts_to_worker_panicked() {
        for threads in 1..=4 {
            let gov = QueryGovernor::new();
            let err = try_run_tasks(
                100,
                threads,
                &MorselConfig::with_threads(threads),
                Some(&gov),
                "worker",
                |t| {
                    assert!(t != 7, "injected kernel panic");
                    t
                },
            )
            .unwrap_err();
            assert_eq!(
                err,
                GovernorError::WorkerPanicked { site: "worker" },
                "threads={threads}"
            );
        }
    }

    #[test]
    fn governed_sequential_morsels_checkpoint_per_morsel() {
        let config = MorselConfig::with_threads(1).with_morsel_rows(10);
        let gov = QueryGovernor::new();
        let (parts, run) = try_run_morsels(35, &config, Some(&gov), "worker", |r| r.len()).unwrap();
        // Sequential but still chunked: four morsels, four checkpoints.
        assert_eq!(parts, vec![10, 10, 10, 5]);
        assert_eq!(run, MorselRun::SEQUENTIAL);
        assert_eq!(gov.checks(), 4);
    }

    #[test]
    fn governed_zero_rows_still_produce_one_part() {
        let config = MorselConfig::with_threads(3).with_min_parallel_rows(0);
        let gov = QueryGovernor::new();
        let (parts, _) = try_run_morsels(0, &config, Some(&gov), "worker", |r| r.len()).unwrap();
        assert_eq!(parts, vec![0]);
    }

    #[test]
    fn governed_morsels_come_back_in_range_order() {
        let gov = QueryGovernor::new();
        for threads in 2..=4 {
            let config = MorselConfig::with_threads(threads)
                .with_morsel_rows(7)
                .with_min_parallel_rows(0);
            let (results, _) =
                try_run_morsels(100, &config, Some(&gov), "worker", |r| r.clone()).unwrap();
            let flat: Vec<usize> = results.into_iter().flatten().collect();
            assert_eq!(flat, (0..100).collect::<Vec<_>>());
        }
    }

    // -----------------------------------------------------------------
    // The pool
    // -----------------------------------------------------------------

    #[test]
    fn pool_results_match_the_inline_arm() {
        let pool = SharedPool::new(3);
        let config = MorselConfig::with_threads(4).on_pool(&pool, 1);
        let (inline, inline_run) = run_tasks(64, 1, &config, |t| t * 3);
        assert_eq!(inline_run, MorselRun::SEQUENTIAL);
        assert_eq!(pool.stats().batches, 0);
        let (results, run) = run_tasks(64, 4, &config, |t| t * 3);
        assert_eq!(results, inline);
        assert_eq!((run.morsels, run.batches), (64, 1));
        assert_eq!(pool.stats().batches, 1);
        assert_eq!(pool.stats().tasks, 64);
        pool.shutdown();
    }

    #[test]
    fn pool_serves_morsels_and_stripes() {
        let pool = SharedPool::new(2);
        let config = MorselConfig::with_threads(4)
            .with_morsel_rows(8)
            .with_min_parallel_rows(0)
            .on_pool(&pool, 7);
        let (results, _) = run_morsels(100, &config, |r| r.clone());
        let flat: Vec<usize> = results.into_iter().flatten().collect();
        assert_eq!(flat, (0..100).collect::<Vec<_>>());
        let mut out = vec![0usize; 100];
        let run = fill_stripes(&mut out, &config, |offset, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = offset + i;
            }
        });
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        assert_eq!(run.batches, 1);
        assert_eq!(pool.stats().batches, 2);
        pool.shutdown();
    }

    #[test]
    fn pool_less_configs_submit_to_the_process_default_pool() {
        let config = MorselConfig::with_threads(4);
        // Other tests share the default pool, so only a lower bound holds.
        let before = config.pool().stats().batches;
        let (results, run) = run_tasks(16, 4, &config, |t| t + 1);
        assert_eq!(results, (1..=16).collect::<Vec<_>>());
        assert_eq!(run.batches, 1);
        assert!(config.pool().stats().batches > before);
    }

    #[test]
    fn batch_submitted_after_shutdown_completes_on_the_submitter() {
        let pool = SharedPool::new(2);
        pool.shutdown();
        let config = MorselConfig::with_threads(3).on_pool(&pool, 1);
        let me = std::thread::current().id();
        let (results, run) = run_tasks(16, 3, &config, |t| (t + 1, std::thread::current().id()));
        assert_eq!(
            results,
            (1..=16).map(|t| (t, me)).collect::<Vec<_>>(),
            "no helper is left, so every task ran on the submitting thread"
        );
        assert_eq!(run.batches, 1);
        // Governed batches take the same route.
        let gov = QueryGovernor::new();
        let (results, _) = try_run_tasks(16, 3, &config, Some(&gov), "worker", |t| t).unwrap();
        assert_eq!(results, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn nested_submission_on_a_one_worker_pool_completes_in_task_order() {
        // Every outer task submits an inner batch to the *same* pool —
        // from the pool's only worker as well as from the helping
        // submitter. Each submitter drains its own batch, so neither can
        // wait on the other.
        let pool = SharedPool::new(1);
        let config = MorselConfig::with_threads(4).on_pool(&pool, 1);
        let (results, _) = run_tasks(8, 4, &config, |t| {
            run_tasks(8, 4, &config, |u| t * 10 + u).0
        });
        let expected: Vec<Vec<usize>> = (0..8)
            .map(|t| (0..8).map(|u| t * 10 + u).collect())
            .collect();
        assert_eq!(results, expected);
        assert_eq!(pool.stats().batches, 9);
        assert_eq!(pool.stats().tasks, 72);
        pool.shutdown();
    }

    #[test]
    fn pool_cancellation_drains_and_pool_survives() {
        use crate::govern::CancelToken;
        let pool = SharedPool::new(2);
        let config = MorselConfig::with_threads(4).on_pool(&pool, 1);
        let token = Arc::new(CancelToken::new());
        let gov = QueryGovernor::new().with_token(token.clone());
        let done = AtomicUsize::new(0);
        let err = try_run_tasks(1000, 4, &config, Some(&gov), "worker", |t| {
            if t == 3 {
                token.cancel();
            }
            done.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap_err();
        assert_eq!(err, GovernorError::Cancelled);
        assert!(done.load(Ordering::Relaxed) < 1000, "trip did not drain");
        // The pool is not poisoned: the next (governed) query succeeds.
        let fresh = QueryGovernor::new();
        let (results, _) = try_run_tasks(32, 4, &config, Some(&fresh), "worker", |t| t).unwrap();
        assert_eq!(results, (0..32).collect::<Vec<_>>());
        pool.shutdown();
    }

    #[test]
    fn pool_panic_converts_to_worker_panicked_and_pool_survives() {
        let pool = SharedPool::new(2);
        let config = MorselConfig::with_threads(4).on_pool(&pool, 1);
        let gov = QueryGovernor::new();
        let err = try_run_tasks(100, 4, &config, Some(&gov), "worker", |t| {
            assert!(t != 7, "injected kernel panic");
            t
        })
        .unwrap_err();
        assert_eq!(err, GovernorError::WorkerPanicked { site: "worker" });
        let (results, _) = run_tasks(16, 4, &config, |t| t);
        assert_eq!(results, (0..16).collect::<Vec<_>>());
        pool.shutdown();
    }

    #[test]
    fn pool_ungoverned_panic_propagates_to_submitter() {
        let pool = SharedPool::new(2);
        let config = MorselConfig::with_threads(4).on_pool(&pool, 1);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_tasks(64, 4, &config, |t| assert!(t != 9, "injected kernel panic"));
        }));
        assert!(caught.is_err());
        // Still usable afterwards.
        let (results, _) = run_tasks(8, 4, &config, |t| t);
        assert_eq!(results, (0..8).collect::<Vec<_>>());
        pool.shutdown();
    }

    #[test]
    fn pool_interleaves_concurrent_queries() {
        // Two submitter threads, each tagged differently, firing many
        // small batches at a two-worker pool: the round-robin queue must
        // interleave their morsels (cross_query_switches > 0). Retries
        // bound the (tiny) chance that one query drains before the other
        // arrives.
        for _attempt in 0..5 {
            let pool = SharedPool::new(2);
            let submitters: Vec<_> = [1u64, 2u64]
                .into_iter()
                .map(|tag| {
                    let config = MorselConfig::with_threads(4).on_pool(&pool, tag);
                    std::thread::spawn(move || {
                        for _ in 0..50 {
                            let (results, _) = run_tasks(16, 4, &config, |t| {
                                std::thread::sleep(std::time::Duration::from_micros(200));
                                t
                            });
                            assert_eq!(results, (0..16).collect::<Vec<_>>());
                        }
                    })
                })
                .collect();
            for submitter in submitters {
                submitter.join().expect("submitter thread");
            }
            let stats = pool.stats();
            pool.shutdown();
            assert_eq!(stats.batches, 100);
            if stats.cross_query_switches > 0 {
                return;
            }
        }
        panic!("no cross-query switches in 5 attempts");
    }
}
