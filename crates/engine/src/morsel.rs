//! Morsel-driven parallelism for the vectorized kernels.
//!
//! Following Leis et al.'s morsel-driven execution model, a kernel's input
//! index range is cut into fixed-size **morsels** (~32k rows). A scoped
//! worker pool pulls morsels from a shared atomic cursor — so a slow morsel
//! (one probe row with a huge match fan-out, say) never stalls the other
//! workers — and every worker emits into its own thread-local buffer. The
//! per-morsel results are then stitched back together *in morsel order*,
//! which makes the parallel output byte-identical to the sequential one:
//! a morsel's rows are produced in probe order within the morsel, and the
//! morsels tile the input range in order.
//!
//! Parallelism is gated the same way the six-order store build gates it:
//! the input must clear a row threshold (below it, thread spawns cost more
//! than they save) and the machine must report more than one core via
//! [`std::thread::available_parallelism`]. Both gates can be overridden
//! with a forced thread count, which is how the single-core CI container
//! still exercises the parallel path in unit tests.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::govern::{GovernorError, QueryGovernor};

/// Rows per morsel. Large enough that the per-morsel bookkeeping (one
/// atomic fetch-add, one mutex lock to park the result) is noise; small
/// enough that a skewed morsel cannot dominate the schedule.
pub const DEFAULT_MORSEL_ROWS: usize = 32 * 1024;

/// Below this many input rows a kernel stays sequential: the work fits in
/// cache and thread spawns would dominate. Matches the spirit of the store
/// build's `PARALLEL_THRESHOLD`.
pub const DEFAULT_MIN_PARALLEL_ROWS: usize = 32 * 1024;

/// Morsel size under the `HSP_FORCE_THREADS` override: small enough that
/// even unit-test-sized inputs split across several workers.
pub const FORCED_ENV_MORSEL_ROWS: usize = 256;

/// How a kernel splits work: thread budget, morsel size, and the row
/// threshold under which it stays sequential.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MorselConfig {
    threads: usize,
    morsel_rows: usize,
    min_parallel_rows: usize,
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
        }
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MorselRun {
    /// Number of morsels the range was cut into (0 when run sequentially
    /// as one undivided range).
    pub morsels: usize,
    /// Worker threads used (1 = sequential).
    pub threads: usize,
}

/// Cut `0..rows` into morsels, run `worker` over every morsel on a scoped
/// worker pool, and return the per-morsel results **in morsel order**
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
        return (
            vec![worker(0..rows)],
            MorselRun {
                morsels: 0,
                threads: 1,
            },
        );
    }
    // A morsel run is a task run whose task `m` is the m-th morsel range
    // (`workers_for` already capped `threads` at the morsel count).
    let morsel_rows = config.morsel_rows;
    let morsels = rows.div_ceil(morsel_rows);
    let (results, _) = run_tasks(morsels, threads, |m| {
        let start = m * morsel_rows;
        worker(start..(start + morsel_rows).min(rows))
    });
    (results, MorselRun { morsels, threads })
}

/// Run `count` independent tasks on a scoped worker pool of at most
/// `threads` workers (an atomic cursor hands out task indices, so a slow
/// task never stalls the others) and return the results **in task order**.
/// With one worker — or one task — everything runs inline on the caller's
/// thread.
///
/// This is the one scheduling loop of the module: [`run_morsels`]
/// delegates here with one task per morsel, [`fill_stripes`] with one
/// task per stripe, and *partitioned* work — the range-partitioned merge
/// join, the partitioned counting sort of the parallel hash-join build,
/// whose per-task ranges are data-dependent and non-uniform — calls it
/// directly.
///
/// When the calling thread has a [`SharedPool`] installed (the serving
/// path — see [`SharedPool::install`]), the tasks are dispatched to that
/// long-lived pool instead of spawning scoped threads; results and their
/// order are identical either way.
pub fn run_tasks<T: Send>(
    count: usize,
    threads: usize,
    task: impl Fn(usize) -> T + Sync,
) -> (Vec<T>, MorselRun) {
    let threads = threads.min(count).max(1);
    if threads <= 1 {
        return (
            (0..count).map(&task).collect(),
            MorselRun {
                morsels: 0,
                threads: 1,
            },
        );
    }
    if let Some(result) = shared_pool_run(count, None, "worker", &task) {
        // invariant: an ungoverned shared-pool run cannot trip a governor
        // (a panicking task re-panics on the submitter instead).
        return result.expect("ungoverned shared-pool run cannot trip");
    }
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let t = cursor.fetch_add(1, Ordering::Relaxed);
                if t >= count {
                    break;
                }
                let result = task(t);
                // Poison-tolerant: the lock only guards the slot store, and
                // a panic on a sibling worker must not cascade here.
                *slots[t]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(result);
            });
        }
    });
    let results = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                // invariant: the scope joined, so every index the cursor
                // handed out has stored its result.
                .expect("every task produced a result")
        })
        .collect();
    (
        results,
        MorselRun {
            morsels: count,
            threads,
        },
    )
}

/// [`run_tasks`] under a [`QueryGovernor`]: every task claim is a
/// cooperative checkpoint for `site`, and each task body runs under
/// [`catch_unwind`] so a panicking kernel trips the governor instead of
/// unwinding through [`std::thread::scope`]. On a trip the remaining
/// tasks are never claimed, the workers drain, the scoped pool joins
/// cleanly, and the partial per-task results are dropped. With no
/// governor this *is* [`run_tasks`] — zero overhead on the ungoverned
/// path.
pub(crate) fn try_run_tasks<T: Send>(
    count: usize,
    threads: usize,
    gov: Option<&QueryGovernor>,
    site: &'static str,
    task: impl Fn(usize) -> T + Sync,
) -> Result<(Vec<T>, MorselRun), GovernorError> {
    let Some(gov) = gov else {
        return Ok(run_tasks(count, threads, task));
    };
    let threads = threads.min(count).max(1);
    if threads <= 1 {
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
        return Ok((
            results,
            MorselRun {
                morsels: 0,
                threads: 1,
            },
        ));
    }
    if let Some(result) = shared_pool_run(count, Some(gov), site, &task) {
        return result;
    }
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                // One unwind guard around the whole claim loop: a panic in
                // `task` (or an injected fault in `check`) lands here, trips
                // the governor, and the *other* workers stop claiming at
                // their next checkpoint.
                let worker = || loop {
                    if gov.check(site).is_err() {
                        break;
                    }
                    let t = cursor.fetch_add(1, Ordering::Relaxed);
                    if t >= count {
                        break;
                    }
                    let result = task(t);
                    *slots[t]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(result);
                };
                if catch_unwind(AssertUnwindSafe(worker)).is_err() {
                    gov.note_panic(site);
                }
            });
        }
    });
    if let Some(e) = gov.trip_error() {
        return Err(e);
    }
    // invariant: no trip means every task index was claimed and its worker
    // reached the slot store (the only early exits trip the governor).
    let results = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every task produced a result")
        })
        .collect();
    Ok((
        results,
        MorselRun {
            morsels: count,
            threads,
        },
    ))
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
    let (results, _) = try_run_tasks(morsels, threads, Some(gov), site, |m| {
        let start = m * morsel_rows;
        worker(start..(start + morsel_rows).min(rows))
    })?;
    Ok((
        results,
        MorselRun {
            morsels: if threads > 1 { morsels } else { 0 },
            threads: threads.max(1),
        },
    ))
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
    Ok((
        results,
        MorselRun {
            morsels: 0,
            threads: 1,
        },
    ))
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
        return MorselRun {
            morsels: 0,
            threads: 1,
        };
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
    let count = stripes.len();
    // One task per stripe through the common scheduling loop — so striped
    // fills dispatch to the shared pool on the serving path too. Slots
    // only transfer stripe ownership *into* the tasks; each task index
    // maps to a distinct slot, claimed exactly once.
    let (_, run) = run_tasks(count, threads, |s| {
        let (offset, chunk) = stripes[s]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
            .expect("each stripe is claimed exactly once");
        fill(offset, chunk);
    });
    MorselRun {
        morsels: count,
        threads: run.threads,
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
        return (
            items,
            MorselRun {
                morsels: 0,
                threads: 1,
            },
        );
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
    let (mut runs, sort_run) = run_tasks(slots.len(), workers, |s| {
        let mut run = take(&slots, s);
        run.sort_by(&cmp);
        run
    });
    let mut threads = sort_run.threads;

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
        let (merged, merge_run) = run_tasks(pairs, workers, |p| {
            merge_two(take(&slots, 2 * p), take(&slots, 2 * p + 1), &cmp)
        });
        threads = threads.max(merge_run.threads);
        runs = merged;
        runs.extend(leftover);
    }
    (
        runs.pop().unwrap_or_default(),
        MorselRun {
            morsels: initial_runs,
            threads,
        },
    )
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
// The shared, long-lived morsel pool — the serving path's scheduler.
//
// One process-wide pool serves *many concurrent queries*: each parallel
// kernel invocation becomes a tagged **batch** of tasks on a round-robin
// queue, and the pool's workers interleave claims across batches — so a
// long scan of one query never starves the morsels of another (Leis et
// al.'s elasticity argument). The submitting thread installs the pool in
// thread-local storage ([`SharedPool::install`]); [`run_tasks`] and its
// governed twin consult that TLS and dispatch there instead of spawning
// scoped threads. Pool workers carry no TLS installation themselves, so
// a nested parallel kernel inside a task safely falls back to the scoped
// path.
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
    /// The submitting query (from [`SharedPool::install`]) — only used
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
/// Create once per server/session, [`SharedPool::install`] per query on
/// the thread that drives the query, and every parallel kernel of that
/// query schedules its morsels here. Call [`SharedPool::shutdown`] to
/// join the workers; a pool that is never shut down parks its workers on
/// a condvar until process exit. Submissions to a shut-down pool are
/// refused, and the caller falls back to scoped threads.
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

    /// Refuse new batches and join the workers (idempotent). In-flight
    /// batches still complete: their submitters help on their own batch
    /// until the cursor is exhausted, whether or not any worker remains.
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

    /// Install this pool on the calling thread for the duration of the
    /// returned guard: every [`run_tasks`]-family call on this thread
    /// with parallel work dispatches to the pool, tagged with `tag` (one
    /// distinct tag per query). Nested installs stack; the guard restores
    /// the previous installation on drop and reports how many batches the
    /// query dispatched ([`SharedPoolGuard::batches`]).
    pub fn install(&self, tag: u64) -> SharedPoolGuard {
        let batches = Rc::new(Cell::new(0));
        let installed = Installed {
            pool: self.clone(),
            tag,
            batches: Rc::clone(&batches),
        };
        let prev = INSTALLED.with(|slot| slot.borrow_mut().replace(installed));
        SharedPoolGuard {
            prev,
            batches,
            _single_thread: std::marker::PhantomData,
        }
    }

    /// Enqueue a lifetime-erased batch, help on it exclusively until its
    /// cursor is exhausted, then wait for straggling workers. Returns
    /// `None` if the pool is shut down (caller falls back to scoped
    /// threads), otherwise whether any task panicked.
    ///
    /// Because the submitter helps on its *own* batch, a saturated — or
    /// even concurrently shut-down — pool can never deadlock a request:
    /// worst case the submitter runs the whole batch itself, exactly like
    /// the scoped path on one thread.
    fn run_erased(&self, tag: u64, count: usize, task: &(dyn Fn(usize) + Sync)) -> Option<bool> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return None;
        }
        if count == 0 {
            return Some(false);
        }
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
        self.inner
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push_back(Arc::clone(&batch));
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
        Some(batch.panicked.load(Ordering::Acquire))
    }

    /// The typed batch run: governor checkpoints before every task (a
    /// trip drains the remaining claims cheaply), results in task order.
    /// `None` means the pool refused the batch (shut down).
    fn run_governed<T: Send>(
        &self,
        tag: u64,
        count: usize,
        gov: Option<&QueryGovernor>,
        site: &'static str,
        task: &(impl Fn(usize) -> T + Sync),
    ) -> Option<Result<(Vec<T>, MorselRun), GovernorError>> {
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
        let panicked = self.run_erased(tag, count, &erased)?;
        let run = MorselRun {
            morsels: count,
            // The submitter helps alongside the pool's workers.
            threads: (self.inner.threads + 1).min(count.max(1)),
        };
        if panicked {
            let Some(gov) = gov else {
                // Mirror the scoped path, where a worker panic unwinds
                // through `std::thread::scope` into the submitter.
                panic!("morsel task panicked on the shared pool at {site}");
            };
            return Some(Err(gov.note_panic(site)));
        }
        if let Some(e) = gov.and_then(QueryGovernor::trip_error) {
            return Some(Err(e));
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
        Some(Ok((results, run)))
    }
}

/// What [`SharedPool::install`] places in thread-local storage.
struct Installed {
    pool: SharedPool,
    tag: u64,
    /// Batches this query dispatched — shared with the guard.
    batches: Rc<Cell<u64>>,
}

thread_local! {
    static INSTALLED: RefCell<Option<Installed>> = const { RefCell::new(None) };
}

/// RAII guard of a [`SharedPool::install`]: restores the previous
/// installation (if any) on drop. `!Send` by construction — it must drop
/// on the thread that installed it.
pub struct SharedPoolGuard {
    prev: Option<Installed>,
    batches: Rc<Cell<u64>>,
    _single_thread: std::marker::PhantomData<*const ()>,
}

impl SharedPoolGuard {
    /// Batches this installation dispatched to the shared pool so far —
    /// the per-query counter surfaced as
    /// `RuntimeMetrics::shared_pool_batches`.
    pub fn batches(&self) -> u64 {
        self.batches.get()
    }
}

impl Drop for SharedPoolGuard {
    fn drop(&mut self) {
        INSTALLED.with(|slot| *slot.borrow_mut() = self.prev.take());
    }
}

/// Dispatch to the thread's installed [`SharedPool`], if any. `None`
/// (no installation, or the pool is shut down) sends the caller down the
/// scoped-thread path. The TLS borrow is released before the batch runs,
/// so nested `run_tasks` calls from inside a task body re-enter safely.
fn shared_pool_run<T: Send>(
    count: usize,
    gov: Option<&QueryGovernor>,
    site: &'static str,
    task: &(impl Fn(usize) -> T + Sync),
) -> Option<Result<(Vec<T>, MorselRun), GovernorError>> {
    let (pool, tag, batches) = INSTALLED.with(|slot| {
        slot.borrow()
            .as_ref()
            .map(|i| (i.pool.clone(), i.tag, Rc::clone(&i.batches)))
    })?;
    let result = pool.run_governed(tag, count, gov, site, task)?;
    batches.set(batches.get() + 1);
    Some(result)
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
        assert_eq!(run.threads, 1);
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
            assert_eq!(run.threads, threads.min(run.morsels));
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
            let (results, run) = run_tasks(9, threads, |t| t * 10);
            assert_eq!(results, (0..9).map(|t| t * 10).collect::<Vec<_>>());
            assert_eq!(run.threads, threads.clamp(1, 9));
        }
        let (empty, run) = run_tasks(0, 4, |t| t);
        assert!(empty.is_empty());
        assert_eq!(run.threads, 1);
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
                assert!(run.threads > 1);
                assert!(run.morsels > 1);
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
        assert!(run.threads > 1);
        assert_eq!(results.iter().sum::<usize>(), 35);
    }

    #[test]
    fn governed_tasks_match_ungoverned_when_nothing_trips() {
        let gov = QueryGovernor::new();
        for threads in 1..=4 {
            let (results, _) = try_run_tasks(9, threads, Some(&gov), "worker", |t| t * 10).unwrap();
            assert_eq!(results, (0..9).map(|t| t * 10).collect::<Vec<_>>());
        }
        assert!(gov.checks() > 0);
    }

    #[test]
    fn governed_tasks_without_governor_delegate() {
        let (results, run) = try_run_tasks(5, 2, None, "worker", |t| t + 1).unwrap();
        assert_eq!(results, vec![1, 2, 3, 4, 5]);
        assert_eq!(run.threads, 2);
    }

    #[test]
    fn cancelled_tasks_stop_early_and_join() {
        use crate::govern::CancelToken;
        use std::sync::Arc;
        for threads in 1..=4 {
            let token = Arc::new(CancelToken::new());
            let gov = QueryGovernor::new().with_token(token.clone());
            let done = AtomicUsize::new(0);
            let err = try_run_tasks(1000, threads, Some(&gov), "worker", |t| {
                if t == 3 {
                    token.cancel();
                }
                done.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap_err();
            assert_eq!(err, GovernorError::Cancelled, "threads={threads}");
            // The pool joined without running everything.
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
            let err = try_run_tasks(100, threads, Some(&gov), "worker", |t| {
                assert!(t != 7, "injected kernel panic");
                t
            })
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
        assert_eq!(run.threads, 1);
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
    // Shared pool
    // -----------------------------------------------------------------

    #[test]
    fn shared_pool_results_match_scoped_path() {
        let pool = SharedPool::new(3);
        let scoped: Vec<usize> = run_tasks(64, 4, |t| t * 3).0;
        {
            let guard = pool.install(1);
            let (results, run) = run_tasks(64, 4, |t| t * 3);
            assert_eq!(results, scoped);
            assert!(run.threads > 1);
            assert_eq!(run.morsels, 64);
            assert_eq!(guard.batches(), 1);
        }
        assert_eq!(pool.stats().batches, 1);
        assert_eq!(pool.stats().tasks, 64);
        pool.shutdown();
    }

    #[test]
    fn shared_pool_serves_morsels_and_stripes() {
        let pool = SharedPool::new(2);
        let config = MorselConfig::with_threads(4)
            .with_morsel_rows(8)
            .with_min_parallel_rows(0);
        let guard = pool.install(7);
        let (results, _) = run_morsels(100, &config, |r| r.clone());
        let flat: Vec<usize> = results.into_iter().flatten().collect();
        assert_eq!(flat, (0..100).collect::<Vec<_>>());
        let mut out = vec![0usize; 100];
        fill_stripes(&mut out, &config, |offset, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = offset + i;
            }
        });
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        assert!(guard.batches() >= 2);
        drop(guard);
        pool.shutdown();
    }

    #[test]
    fn shared_pool_shutdown_falls_back_to_scoped_threads() {
        let pool = SharedPool::new(2);
        pool.shutdown();
        let _guard = pool.install(1);
        let (results, run) = run_tasks(16, 3, |t| t + 1);
        assert_eq!(results, (1..=16).collect::<Vec<_>>());
        assert_eq!(run.threads, 3);
        assert_eq!(pool.stats().batches, 0);
    }

    #[test]
    fn shared_pool_guard_restores_previous_installation() {
        let outer = SharedPool::new(1);
        let inner = SharedPool::new(1);
        let outer_guard = outer.install(1);
        {
            let inner_guard = inner.install(2);
            run_tasks(8, 2, |t| t);
            assert_eq!(inner_guard.batches(), 1);
        }
        run_tasks(8, 2, |t| t);
        assert_eq!(outer_guard.batches(), 1);
        assert_eq!(outer.stats().batches, 1);
        assert_eq!(inner.stats().batches, 1);
        drop(outer_guard);
        outer.shutdown();
        inner.shutdown();
    }

    #[test]
    fn shared_pool_cancellation_drains_and_pool_survives() {
        use crate::govern::CancelToken;
        let pool = SharedPool::new(2);
        let guard = pool.install(1);
        let token = Arc::new(CancelToken::new());
        let gov = QueryGovernor::new().with_token(token.clone());
        let done = AtomicUsize::new(0);
        let err = try_run_tasks(1000, 4, Some(&gov), "worker", |t| {
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
        let (results, _) = try_run_tasks(32, 4, Some(&fresh), "worker", |t| t).unwrap();
        assert_eq!(results, (0..32).collect::<Vec<_>>());
        drop(guard);
        pool.shutdown();
    }

    #[test]
    fn shared_pool_panic_converts_to_worker_panicked_and_pool_survives() {
        let pool = SharedPool::new(2);
        let guard = pool.install(1);
        let gov = QueryGovernor::new();
        let err = try_run_tasks(100, 4, Some(&gov), "worker", |t| {
            assert!(t != 7, "injected kernel panic");
            t
        })
        .unwrap_err();
        assert_eq!(err, GovernorError::WorkerPanicked { site: "worker" });
        let (results, _) = run_tasks(16, 4, |t| t);
        assert_eq!(results, (0..16).collect::<Vec<_>>());
        drop(guard);
        pool.shutdown();
    }

    #[test]
    fn shared_pool_ungoverned_panic_propagates_to_submitter() {
        let pool = SharedPool::new(2);
        let guard = pool.install(1);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_tasks(64, 4, |t| assert!(t != 9, "injected kernel panic"));
        }));
        assert!(caught.is_err());
        // Still usable afterwards.
        let (results, _) = run_tasks(8, 4, |t| t);
        assert_eq!(results, (0..8).collect::<Vec<_>>());
        drop(guard);
        pool.shutdown();
    }

    #[test]
    fn shared_pool_interleaves_concurrent_queries() {
        // Two submitter threads, each tagged differently, firing many
        // small batches at a two-worker pool: the round-robin queue must
        // interleave their morsels (cross_query_switches > 0). Retries
        // bound the (tiny) chance that one query drains before the other
        // arrives.
        for _attempt in 0..5 {
            let pool = SharedPool::new(2);
            std::thread::scope(|scope| {
                for tag in [1u64, 2u64] {
                    let pool = pool.clone();
                    scope.spawn(move || {
                        let _guard = pool.install(tag);
                        for _ in 0..50 {
                            let (results, _) = run_tasks(16, 4, |t| {
                                std::thread::sleep(std::time::Duration::from_micros(200));
                                t
                            });
                            assert_eq!(results, (0..16).collect::<Vec<_>>());
                        }
                    });
                }
            });
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
