//! The unified front door: one [`Session`] owns a shared dataset and a
//! shared, long-lived morsel worker pool; every read goes through
//! [`Session::query`] and every write through [`Session::update`].
//!
//! Every execution option the engine understands (the `ExecConfig`
//! plumbing around [`execute`](hsp_engine::execute)) sits behind a single
//! builder-style [`Request`]. The `hsp` CLI, the [`serve`](crate::serve)
//! server, and the examples all go through it, so their option handling
//! cannot drift.
//!
//! # Concurrency model
//!
//! * **Reads snapshot.** The dataset lives behind an `Arc` swap: a query
//!   clones the `Arc` once and runs against an immutable snapshot, so
//!   updates never block readers and a reader never observes a half
//!   -applied update.
//! * **Writes build-and-swap.** [`Session::update`] clones the dataset,
//!   applies the whole request to the clone, and publishes the result
//!   with one pointer swap — all-or-nothing. (This is deliberately
//!   *transactional*, unlike the in-place reference
//!   [`apply_update`](crate::update::apply_update), whose sequenced
//!   operations leave earlier effects in place when a later one fails.)
//!   Writers serialise on an internal lock; readers are never blocked.
//! * **One worker pool.** A session always owns a [`SharedPool`]; every
//!   request's context carries that pool and a fresh query tag, so the
//!   parallel kernels of *all* concurrent queries schedule their morsels
//!   on it (round-robin across queries). Results are byte-identical to a
//!   sequential run — morsel outputs are stitched in morsel order.
//!
//! ```
//! use sparql_hsp::session::{Request, Session};
//! use hsp_store::Dataset;
//!
//! let ds = Dataset::from_ntriples(
//!     "<http://e/j1> <http://e/issued> \"1940\" .\n",
//! ).unwrap();
//! let session = Session::new(ds);
//! let stats = session
//!     .update(Request::new("INSERT DATA { <http://e/j2> <http://e/issued> \"1952\" . }"))
//!     .unwrap();
//! assert_eq!(stats.stats.inserted, 1);
//! let response = session
//!     .query(Request::new("SELECT ?j WHERE { ?j <http://e/issued> ?yr . }"))
//!     .unwrap();
//! assert_eq!(response.output.rows.len(), 2);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use hsp_baseline::{CdpPlanner, HybridPlanner, LeftDeepPlanner, StockerPlanner};
use hsp_core::HspPlanner;
use hsp_engine::plan::PhysicalPlan;
use hsp_engine::{
    execute_in, CancelToken, ExecConfig, ExecContext, ExecError, IdRows, MorselConfig, PoolStats,
    RuntimeMetrics, SharedPool,
};
use hsp_rdf::Term;
use hsp_sparql::JoinQuery;
use hsp_store::Dataset;

use crate::cache::{plan_reads, CacheStats, CachedResult, QueryCache, Reads};
use crate::extended::{compose, ExtendedError, ExtendedOutput};
use crate::results::RowSource;
use crate::update::{run_update_traced, UpdateError, UpdateStats};

/// Which planner a [`Request`] runs through (join-fragment queries only;
/// OPTIONAL/UNION queries are always composed from HSP-planned blocks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Planner {
    /// The paper's heuristics-based planner (the default).
    #[default]
    Hsp,
    /// The RDF-3X-style dynamic-programming baseline.
    Cdp,
    /// The SQL-style left-deep baseline.
    Sql,
    /// CDP over HSP's rewritten query.
    Hybrid,
    /// The Stocker et al. selectivity-ordering baseline.
    Stocker,
}

impl std::str::FromStr for Planner {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "hsp" => Ok(Planner::Hsp),
            "cdp" => Ok(Planner::Cdp),
            "sql" => Ok(Planner::Sql),
            "hybrid" => Ok(Planner::Hybrid),
            "stocker" => Ok(Planner::Stocker),
            other => Err(format!(
                "unknown planner `{other}` (hsp|cdp|sql|hybrid|stocker)"
            )),
        }
    }
}

/// One query or update request: the text plus every execution option the
/// engine understands, builder-style. All options default off.
#[derive(Debug, Clone, Default)]
pub struct Request {
    text: String,
    planner: Planner,
    explain: bool,
    row_budget: Option<usize>,
    threads: Option<usize>,
    timeout: Option<Duration>,
    mem_budget: Option<usize>,
    cancel: Option<Arc<CancelToken>>,
    inject_faults: bool,
    no_cache: bool,
}

impl Request {
    /// A request for `text` with default options.
    pub fn new(text: impl Into<String>) -> Self {
        Request {
            text: text.into(),
            ..Request::default()
        }
    }

    /// The request text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Select the planner for join-fragment queries.
    pub fn with_planner(mut self, planner: Planner) -> Self {
        self.planner = planner;
        self
    }

    /// Return the plan/pipeline explanation instead of executing only.
    pub fn with_explain(mut self) -> Self {
        self.explain = true;
        self
    }

    /// Abort when any operator materialises more than `rows` rows.
    pub fn with_row_budget(mut self, rows: usize) -> Self {
        self.row_budget = Some(rows);
        self
    }

    /// Thread budget for the parallel kernels (gates *whether* kernels
    /// parallelise — `1` keeps the whole request on the calling thread;
    /// the pool's width does the work otherwise).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Wall-clock deadline for the whole request.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// [`Request::with_timeout`] in milliseconds.
    pub fn with_timeout_ms(self, ms: u64) -> Self {
        self.with_timeout(Duration::from_millis(ms))
    }

    /// Cap the live materialised bytes of the request.
    pub fn with_mem_budget(mut self, bytes: usize) -> Self {
        self.mem_budget = Some(bytes);
        self
    }

    /// [`Request::with_mem_budget`] in mebibytes.
    pub fn with_mem_budget_mb(self, mb: usize) -> Self {
        self.with_mem_budget(mb.saturating_mul(1024 * 1024))
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

    /// Bypass the session's plan and result caches for this request
    /// (see [`crate::cache`]). Caching is on by default.
    pub fn without_cache(mut self) -> Self {
        self.no_cache = true;
        self
    }
}

/// A query's result: the materialised rows plus everything the CLI and
/// server render around them.
#[derive(Debug, Clone)]
pub struct Response {
    /// Named columns over optional terms (`None` = unbound).
    pub output: ExtendedOutput,
    /// `Some(answer)` when the request was an `ASK` query (the output
    /// then has zero columns and at most one row).
    pub ask: Option<bool>,
    /// The rendered plan + pipeline DAG, when the request asked for
    /// [`Request::with_explain`]. Append
    /// [`render_runtime_metrics`](hsp_engine::explain::render_runtime_metrics)
    /// over [`Response::metrics`] for the full CLI explain output.
    pub explain: Option<String>,
    /// A caller-facing note (e.g. a baseline planner was asked for a query
    /// only the HSP-planned composer covers).
    pub note: Option<String>,
    /// What the engine did: parallel kernels, pipelines, pool counters —
    /// `shared_pool_batches` is the per-query count of batches scheduled
    /// on the session's pool.
    pub metrics: RuntimeMetrics,
}

/// A query's result before anything was decoded: what
/// [`Session::query_encoded`] returns and the result cache holds. The rows
/// are ids; they become terms either all at once
/// ([`EncodedResponse::decode`], the library edge) or one borrowed cell at
/// a time while a renderer of [`crate::results`] writes them out (the wire
/// edge — `hsp-serve` and the `hsp` CLI never build a term row).
#[derive(Debug, Clone)]
pub struct EncodedResponse {
    /// Output column names, in SELECT order.
    pub columns: Arc<[String]>,
    /// The result's id columns, shared with the result cache's entry.
    pub rows: Arc<IdRows>,
    /// The snapshot whose dictionary resolves `rows`: the one the query
    /// ran on, or — for a result-cache hit — the one current at lookup
    /// (ids are append-only, so any later dictionary resolves them too).
    pub snapshot: Arc<Dataset>,
    /// See [`Response::ask`].
    pub ask: Option<bool>,
    /// See [`Response::explain`].
    pub explain: Option<String>,
    /// See [`Response::note`].
    pub note: Option<String>,
    /// See [`Response::metrics`].
    pub metrics: RuntimeMetrics,
}

impl EncodedResponse {
    /// Decode every row into owned terms.
    pub fn decode(self) -> Response {
        Response {
            output: ExtendedOutput {
                columns: self.columns.to_vec(),
                rows: self.rows.decode(self.snapshot.dict()),
            },
            ask: self.ask,
            explain: self.explain,
            note: self.note,
            metrics: self.metrics,
        }
    }
}

impl RowSource for EncodedResponse {
    fn columns(&self) -> &[String] {
        &self.columns
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    #[inline]
    fn cell(&self, row: usize, col: usize) -> Option<&Term> {
        self.rows.cell(self.snapshot.dict(), row, col)
    }
}

/// An update's result.
#[derive(Debug, Clone, Copy)]
pub struct UpdateResponse {
    /// Triples inserted / deleted.
    pub stats: UpdateStats,
    /// Dataset size after the update was published.
    pub triples: usize,
}

/// A [`Session`] request failure.
#[derive(Debug)]
pub enum SessionError {
    /// Query parsing, planning, or execution failed.
    Query(ExtendedError),
    /// Update parsing or execution failed (nothing was published).
    Update(UpdateError),
    /// The chosen planner could not plan the query.
    Plan(String),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Query(e) => write!(f, "{e}"),
            SessionError::Update(e) => write!(f, "{e}"),
            SessionError::Plan(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl SessionError {
    /// A short machine-readable code for protocol surfaces (the serve
    /// layer's `ERR <CODE> …` responses).
    pub fn code(&self) -> &'static str {
        match self {
            SessionError::Query(ExtendedError::Parse(_))
            | SessionError::Update(UpdateError::Parse(_)) => "PARSE",
            SessionError::Plan(_) => "PLAN",
            SessionError::Query(ExtendedError::Exec(e))
            | SessionError::Update(UpdateError::Exec(e)) => match e {
                ExecError::DeadlineExceeded => "TIMEOUT",
                ExecError::Cancelled => "CANCELLED",
                ExecError::MemoryBudgetExceeded { .. } => "MEM",
                _ => "EXEC",
            },
            _ => "EXEC",
        }
    }
}

/// Knobs fixed at session construction.
#[derive(Debug, Clone, Default)]
pub struct SessionOptions {
    /// How many workers the session's pool may use: `None` auto-detects
    /// (like [`MorselConfig::auto`]), `Some(n)` pins it (at least one).
    pub pool_threads: Option<usize>,
    /// Session-wide rows-per-morsel override (see
    /// [`ExecConfig::with_morsel_rows`]); servers lower it so small
    /// datasets still interleave on the pool.
    pub morsel_rows: Option<usize>,
    /// Session-wide sequential-below threshold override.
    pub min_parallel_rows: Option<usize>,
    /// Per-order delta size above which [`Session::update`] rebuilds the
    /// base runs after publishing (see
    /// [`Dataset::set_compaction_threshold`]). `None` keeps the store's
    /// default (the `HSP_COMPACT_THRESHOLD` environment variable, else
    /// 4096); `Some(1)` forces a rebuild after every update, which is
    /// the O(store)-per-batch behaviour of the pre-delta store and is
    /// what the write-heavy bench uses as its baseline.
    pub compaction_threshold: Option<usize>,
}

struct SessionInner {
    /// The `Arc`-swapped store: readers clone the `Arc` (a snapshot),
    /// writers replace it.
    store: RwLock<Arc<Dataset>>,
    /// Serialises writers (the `RwLock` write lock is held only for the
    /// final pointer swap, never across update execution).
    write_lock: Mutex<()>,
    pool: SharedPool,
    /// The thread budget of a request that names none, detected once at
    /// construction like the pool's width: asking the OS for the core
    /// count reads cgroup files, which no query should wait for.
    detected: MorselConfig,
    morsel_rows: Option<usize>,
    min_parallel_rows: Option<usize>,
    /// Monotonic query tags for the pool's cross-query accounting.
    queries: AtomicU64,
    /// The two-tier plan + result cache (see [`crate::cache`]).
    cache: QueryCache,
}

impl Drop for SessionInner {
    fn drop(&mut self) {
        self.pool.shutdown();
    }
}

/// A shared handle (cheap to clone) to one dataset + one worker pool.
/// See the module docs for the concurrency model.
#[derive(Clone)]
pub struct Session {
    inner: Arc<SessionInner>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("triples", &self.snapshot().len())
            .field("pool", &self.inner.pool)
            .finish()
    }
}

impl Session {
    /// A session over `ds` with an auto-sized shared pool.
    pub fn new(ds: Dataset) -> Self {
        Session::with_options(ds, SessionOptions::default())
    }

    /// A session over `ds` with explicit [`SessionOptions`].
    pub fn with_options(mut ds: Dataset, options: SessionOptions) -> Self {
        if options.compaction_threshold.is_some() {
            ds.set_compaction_threshold(options.compaction_threshold);
        }
        let detected = MorselConfig::auto();
        let pool = SharedPool::new(options.pool_threads.unwrap_or(detected.threads()));
        Session {
            inner: Arc::new(SessionInner {
                store: RwLock::new(Arc::new(ds)),
                write_lock: Mutex::new(()),
                pool,
                detected,
                morsel_rows: options.morsel_rows,
                min_parallel_rows: options.min_parallel_rows,
                queries: AtomicU64::new(0),
                cache: QueryCache::default(),
            }),
        }
    }

    /// The current dataset snapshot (immutable; updates swap in a new
    /// one, they never mutate a published snapshot).
    pub fn snapshot(&self) -> Arc<Dataset> {
        Arc::clone(
            &self
                .inner
                .store
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// The session pool's lifetime counters (always `Some`: a session
    /// always owns a pool). `cross_query_switches > 0` under concurrent
    /// load is the proof that one pool interleaves morsels of many
    /// queries.
    pub fn pool_stats(&self) -> Option<PoolStats> {
        Some(self.inner.pool.stats())
    }

    /// Run one query against the current snapshot and decode its rows —
    /// [`Session::query_encoded`] followed by [`EncodedResponse::decode`].
    pub fn query(&self, request: Request) -> Result<Response, SessionError> {
        Ok(self.query_encoded(request)?.decode())
    }

    /// Run one query against the current snapshot, leaving the rows as
    /// ids. Safe to call from many threads at once: every request gets
    /// its own context and governor, and parallel kernels of all of them
    /// share the pool.
    ///
    /// Caching (on by default, [`Request::without_cache`] opts out):
    /// a result-cacheable request is first looked up in the result tier
    /// and a hit returns the stored id rows without executing at all;
    /// on a miss, HSP join queries consult the plan tier by canonical
    /// shape, skipping planning when an isomorphic query was planned
    /// before. [`Response::metrics`] reports both tiers' outcomes.
    pub fn query_encoded(&self, request: Request) -> Result<EncodedResponse, SessionError> {
        let result_key = result_cache_key(&request);
        // Look up and snapshot under one store read guard: invalidation
        // runs inside the *write* guard before the snapshot swap, so an
        // entry seen here is guaranteed to match the snapshot we take.
        let (ds, version) = {
            let store = self
                .inner
                .store
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(key) = &result_key {
                if let Some(mut hit) = self.inner.cache.result_get(key) {
                    hit.metrics.result_cache_used = true;
                    hit.metrics.result_cache_hit = true;
                    // Execution was skipped; nothing ran on the pool.
                    hit.metrics.shared_pool_batches = 0;
                    return Ok(EncodedResponse {
                        columns: hit.columns,
                        rows: hit.rows,
                        snapshot: Arc::clone(&store),
                        ask: hit.ask,
                        explain: None,
                        note: hit.note,
                        metrics: hit.metrics,
                    });
                }
            }
            (Arc::clone(&store), self.inner.cache.version())
        };
        let config = self.exec_config(&request);
        let ctx = self.context(&config);
        let cache = (!request.no_cache).then_some(&self.inner.cache);
        let (mut response, reads) = query_snapshot(ds, &request, &config, &ctx, cache)?;
        let store = response.snapshot.store();
        response.metrics.store_version = store.version();
        response.metrics.store_delta_rows = store.delta_rows();
        response.metrics.store_compactions = store.compactions();
        if let Some(key) = result_key {
            response.metrics.result_cache_used = true;
            // Re-acquire the read guard so the insert cannot interleave
            // with an invalidation pass; the version check inside drops
            // the entry if an update published since our snapshot.
            let _store = self
                .inner
                .store
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let entry = CachedResult {
                columns: Arc::clone(&response.columns),
                rows: Arc::clone(&response.rows),
                ask: response.ask,
                note: response.note.clone(),
                metrics: response.metrics,
            };
            self.inner.cache.result_insert(key, entry, reads, version);
        }
        Ok(response)
    }

    /// Apply one SPARQL Update request, build-and-swap: the whole
    /// request applies to a private clone of the dataset, and the clone
    /// is published only on success — concurrent readers keep their
    /// snapshot throughout, and an error publishes nothing.
    ///
    /// The clone is copy-on-write: the six base runs (and the
    /// dictionary's base segment) stay `Arc`-shared with the published
    /// snapshot, and the update lands in per-order delta overlays — so
    /// building and publishing a batch costs O(delta log delta), not
    /// O(store). When an order's delta outgrows the compaction
    /// threshold, the base runs are rebuilt *after* the swap: readers
    /// are already served by the new snapshot, so the rebuild never
    /// adds publication latency.
    pub fn update(&self, request: Request) -> Result<UpdateResponse, SessionError> {
        let config = self.exec_config(&request);
        let _writer = self
            .inner
            .write_lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // O(delta) clone: shares the base runs with the published
        // snapshot via `Arc`, copies only the delta overlays.
        let mut working = (*self.snapshot()).clone();
        let (stats, touched) = run_update_traced(&mut working, &request.text, &config, || {
            self.context(&config)
        })
        .map_err(SessionError::Update)?;
        let triples = working.len();
        let needs_compaction = working.store().needs_compaction();
        let published = Arc::new(working);
        {
            let mut store = self
                .inner
                .store
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            // Invalidate inside the write guard, before the swap: a
            // concurrent reader either held the read lock first and saw
            // the old snapshot with its entries (consistent), or blocks
            // until the swap and sees neither. No-op updates (nothing
            // inserted or deleted) keep the cache warm.
            if stats.inserted + stats.deleted > 0 {
                self.inner.cache.invalidate(&touched);
            }
            *store = Arc::clone(&published);
        }
        if needs_compaction {
            // Rebuild the base runs off the publication path: the delta
            // snapshot is already published and serving readers, so the
            // rebuild costs no reader or publication latency. Still
            // under the writer lock — the next update waits for fresh
            // base runs instead of stacking deltas. Compaction is
            // content-neutral (same `version`), so the result cache
            // stays warm across the second swap.
            let mut compacted = (*published).clone();
            compacted.compact();
            let mut store = self
                .inner
                .store
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            *store = Arc::new(compacted);
        }
        Ok(UpdateResponse { stats, triples })
    }

    /// Lifetime counters of the two-tier query cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// The [`ExecConfig`] a request asks for, under this session's
    /// morsel overrides.
    fn exec_config(&self, request: &Request) -> ExecConfig {
        let mut config = ExecConfig::unlimited();
        config.max_intermediate_rows = request.row_budget;
        config.threads = request.threads;
        config.morsel_rows = self.inner.morsel_rows;
        config.min_parallel_rows = self.inner.min_parallel_rows;
        if let Some(timeout) = request.timeout {
            config = config.with_timeout(timeout);
        }
        if let Some(bytes) = request.mem_budget {
            config = config.with_mem_budget(bytes);
        }
        if let Some(token) = &request.cancel {
            config = config.with_cancel_token(Arc::clone(token));
        }
        if request.inject_faults {
            config = config.with_fault_injection();
        }
        config
    }

    /// The context a request runs in: what `config` asks for, scheduling
    /// on this session's pool under a fresh query tag.
    fn context(&self, config: &ExecConfig) -> ExecContext {
        let mut ctx = config.context_from(|| self.inner.detected.clone());
        let tag = self.inner.queries.fetch_add(1, Ordering::Relaxed);
        ctx.morsel = ctx.morsel.on_pool(&self.inner.pool, tag);
        ctx
    }
}

/// Plan a join-fragment query with the chosen planner (aggregates are
/// HSP-only, as in the CLI).
fn plan_query(
    planner: Planner,
    ds: &Dataset,
    query: &JoinQuery,
) -> Result<(PhysicalPlan, JoinQuery), String> {
    if query.is_aggregate() && planner != Planner::Hsp {
        return Err(
            "aggregation (GROUP BY / HAVING / aggregate functions) is only \
             planned by the hsp planner"
                .to_string(),
        );
    }
    match planner {
        Planner::Hsp => {
            let p = HspPlanner::new().plan(query).map_err(|e| e.to_string())?;
            Ok((p.plan, p.query))
        }
        Planner::Cdp => {
            let p = CdpPlanner::new()
                .plan(ds, query)
                .map_err(|e| e.to_string())?;
            Ok((p.plan, p.query))
        }
        Planner::Sql => {
            let p = LeftDeepPlanner::new()
                .plan(ds, query)
                .map_err(|e| e.to_string())?;
            Ok((p.plan, p.query))
        }
        Planner::Hybrid => {
            let p = HybridPlanner::new()
                .plan(ds, query)
                .map_err(|e| e.to_string())?;
            Ok((p.plan, p.query))
        }
        Planner::Stocker => {
            let p = StockerPlanner::new()
                .plan(ds, query)
                .map_err(|e| e.to_string())?;
            Ok((p.plan, p.query))
        }
    }
}

/// The result-tier cache key, when the request is result-cacheable at
/// all. Governed requests (timeout / budgets / cancellation / fault
/// injection) and explain runs are never served from the result tier —
/// their responses depend on more than the snapshot — but they still
/// use the plan tier, whose entries are execution-independent.
fn result_cache_key(request: &Request) -> Option<String> {
    if request.no_cache
        || request.explain
        || request.inject_faults
        || request.row_budget.is_some()
        || request.timeout.is_some()
        || request.mem_budget.is_some()
        || request.cancel.is_some()
    {
        return None;
    }
    Some(format!(
        "{:?}|{:?}|{}",
        request.planner, request.threads, request.text
    ))
}

/// One parse of the text, two ways to obtain a plan, one way to run it:
/// a join-fragment query takes the chosen planner (through the plan tier
/// for HSP), everything else — OPTIONAL, UNION, ASK — is composed from
/// HSP-planned blocks ([`compose`]); either way the result is one
/// [`PhysicalPlan`] and the query it describes, and the tail below
/// executes it once, explains it, moves the projected ids out and derives
/// the predicate read set the result cache keys invalidation on.
fn query_snapshot(
    snapshot: Arc<Dataset>,
    request: &Request,
    config: &ExecConfig,
    ctx: &ExecContext,
    cache: Option<&QueryCache>,
) -> Result<(EncodedResponse, Reads), SessionError> {
    let ds: &Dataset = &snapshot;
    let ast = hsp_sparql::parse_query(&request.text)
        .map_err(|e| SessionError::Query(ExtendedError::Parse(e)))?;
    let mut plan_cache_used = false;
    let mut plan_cache_hit = false;
    let mut note = None;
    let join = (!ast.ask).then(|| JoinQuery::from_ast(&ast));
    let (plan, planned_query) = match join {
        Some(Ok(query)) => {
            // Plan tier: HSP plans are statistics-free, so any query
            // with the same canonical shape reuses the cached plan with
            // its own constants substituted — planning runs only once
            // per shape. Baseline planners consult the data and are
            // planned fresh every time.
            let canon = match cache {
                Some(c) if request.planner == Planner::Hsp => {
                    hsp_sparql::canonicalize(&query).map(|canon| (c, canon))
                }
                _ => None,
            };
            plan_cache_used = canon.is_some();
            match canon {
                Some((c, canon)) => match c.plan_get(&canon, &query) {
                    Some(pair) => {
                        plan_cache_hit = true;
                        pair
                    }
                    None => {
                        let pair =
                            plan_query(request.planner, ds, &query).map_err(SessionError::Plan)?;
                        c.plan_insert(canon, &query, &pair.0, &pair.1);
                        pair
                    }
                },
                None => plan_query(request.planner, ds, &query).map_err(SessionError::Plan)?,
            }
        }
        other => {
            if let Some(Err(join_err)) = other {
                note = (request.planner != Planner::Hsp).then(|| {
                    format!(
                        "query is outside the join-query fragment ({join_err}); \
                         using the extended evaluator (HSP-planned blocks)"
                    )
                });
            }
            compose(&ast).map_err(SessionError::Query)?
        }
    };

    let reads = plan_reads(&plan);
    let output = execute_in(&plan, ds, config, ctx)
        .map_err(|e| SessionError::Query(ExtendedError::Exec(e)))?;
    let explain = request.explain.then(|| {
        let mut text =
            hsp_engine::explain::render_plan_with_profile(&plan, &output.profile, &planned_query);
        text.push_str(&hsp_engine::explain::render_pipeline_dag(
            &plan,
            &planned_query,
        ));
        text
    });
    // The plan's own DISTINCT / ORDER BY / LIMIT have run on ids: the
    // projected columns move out of the final table as the result (an
    // ASK plan projects none and keeps one row iff a solution exists).
    let (columns, vars): (Vec<String>, Vec<_>) = planned_query.projection.iter().cloned().unzip();
    let mut metrics = output.runtime;
    metrics.plan_cache_used = plan_cache_used;
    metrics.plan_cache_hit = plan_cache_hit;
    let rows = output.into_id_rows(&vars);
    let ask = ast.ask.then_some(!rows.is_empty());
    Ok((
        EncodedResponse {
            columns: columns.into(),
            rows: Arc::new(rows),
            snapshot,
            ask,
            explain,
            note,
            metrics,
        },
        reads,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        Dataset::from_ntriples(
            r#"<http://e/a1> <http://e/name> "Alice" .
<http://e/a1> <http://e/email> "alice@example.org" .
<http://e/a2> <http://e/name> "Bob" .
"#,
        )
        .unwrap()
    }

    #[test]
    fn query_and_update_round_trip() {
        let session = Session::new(dataset());
        let out = session
            .query(Request::new(
                "SELECT ?n WHERE { ?p <http://e/name> ?n . } ORDER BY ?n",
            ))
            .unwrap();
        assert_eq!(out.output.rows.len(), 2);
        let up = session
            .update(Request::new(
                "INSERT DATA { <http://e/a3> <http://e/name> \"Carol\" . }",
            ))
            .unwrap();
        assert_eq!(up.stats.inserted, 1);
        assert_eq!(up.triples, 4);
        let out = session
            .query(Request::new(
                "SELECT ?n WHERE { ?p <http://e/name> ?n . } ORDER BY ?n",
            ))
            .unwrap();
        assert_eq!(out.output.rows.len(), 3);
    }

    #[test]
    fn ask_sets_the_answer() {
        let session = Session::new(dataset());
        let yes = session
            .query(Request::new("ASK { ?p <http://e/name> \"Alice\" . }"))
            .unwrap();
        assert_eq!(yes.ask, Some(true));
        let no = session
            .query(Request::new("ASK { ?p <http://e/name> \"Zed\" . }"))
            .unwrap();
        assert_eq!(no.ask, Some(false));
    }

    #[test]
    fn failed_update_publishes_nothing() {
        let session = Session::new(dataset());
        let before = session.snapshot();
        // The INSERT succeeds, then the DELETE WHERE trips the row
        // budget mid-sequence.
        let err = session.update(
            Request::new(
                "INSERT DATA { <http://e/a9> <http://e/name> \"Eve\" . } ; \
                 DELETE WHERE { ?s <http://e/name> ?n . }",
            )
            .with_row_budget(0),
        );
        assert!(err.is_err());
        // Build-and-swap: the failed request left the published dataset
        // untouched, including the first (successful) operation.
        assert_eq!(session.snapshot().len(), before.len());
    }

    #[test]
    fn snapshots_survive_updates() {
        let session = Session::new(dataset());
        let old = session.snapshot();
        session
            .update(Request::new("DELETE WHERE { ?s <http://e/name> ?n . }"))
            .unwrap();
        assert_eq!(old.len(), 3);
        assert_eq!(session.snapshot().len(), 1);
    }

    #[test]
    fn explain_covers_composed_queries() {
        let session = Session::new(dataset());
        let out = session
            .query(Request::new("SELECT ?n WHERE { ?p <http://e/name> ?n . }").with_explain())
            .unwrap();
        assert!(out.explain.unwrap().contains("[tp0]"));
        // OPTIONAL and UNION compose into one plan like any join query:
        // the plan tree (scans numbered across blocks) plus its DAG.
        for (text, operator) in [
            (
                "SELECT ?n WHERE { ?p <http://e/name> ?n . \
                 OPTIONAL { ?p <http://e/email> ?e . } }",
                "⟕hj ?p",
            ),
            (
                "SELECT ?p WHERE { { ?p <http://e/name> ?n . } UNION \
                 { ?p <http://e/email> ?e . } }",
                "∪",
            ),
        ] {
            let out = session
                .query(Request::new(text).with_explain())
                .unwrap_or_else(|e| panic!("{text}: {e}"));
            let explain = out.explain.expect("explain text");
            assert!(explain.contains(operator), "{explain}");
            assert!(
                explain.contains("[tp0]") && explain.contains("[tp1]"),
                "{explain}"
            );
            assert!(explain.contains("pipeline DAG:"), "{explain}");
        }
    }

    /// ORDER BY applies before the projection: a key may read a variable
    /// the SELECT list drops, whichever way the plan was obtained.
    #[test]
    fn order_by_reads_variables_the_projection_drops() {
        let session = Session::new(
            Dataset::from_ntriples(
                r#"<http://e/a1> <http://e/name> "Alice" .
<http://e/a2> <http://e/name> "Bob" .
<http://e/a3> <http://e/name> "Carol" .
<http://e/a4> <http://e/name> "Bob" .
<http://e/a1> <http://e/knows> <http://e/a2> .
<http://e/a1> <http://e/knows> <http://e/a3> .
<http://e/a3> <http://e/knows> <http://e/a4> .
"#,
            )
            .unwrap(),
        );
        let column = |text: &str| -> Vec<String> {
            let out = session
                .query(Request::new(text))
                .unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(out.output.columns.len(), 1, "{text}");
            out.output
                .rows
                .iter()
                .map(|r| r[0].as_ref().expect("bound").lexical().to_string())
                .collect()
        };
        // A plain join, and the same query through the composer.
        let by_subject = ["Bob", "Carol", "Bob", "Alice"];
        assert_eq!(
            column("SELECT ?n WHERE { ?p <http://e/name> ?n . } ORDER BY DESC(?p)"),
            by_subject
        );
        assert_eq!(
            column(
                "SELECT ?n WHERE { ?p <http://e/name> ?n . \
                 OPTIONAL { ?p <http://e/email> ?e . } } ORDER BY DESC(?p)"
            ),
            by_subject
        );
        // DISTINCT keeps the first occurrence in sort order.
        assert_eq!(
            column("SELECT DISTINCT ?n WHERE { ?p <http://e/name> ?n . } ORDER BY DESC(?p)"),
            ["Bob", "Carol", "Alice"]
        );
        // A group key that only orders the groups.
        assert_eq!(
            column(
                "SELECT (COUNT(?q) AS ?c) WHERE { ?p <http://e/knows> ?q . } \
                 GROUP BY ?p ORDER BY DESC(?p)"
            ),
            ["1", "2"]
        );
    }

    #[test]
    fn timeout_maps_to_timeout_code() {
        let session = Session::new(dataset());
        let result = session.query(
            Request::new("SELECT ?n WHERE { ?p <http://e/name> ?n . }")
                .with_timeout(Duration::from_nanos(1)),
        );
        if let Err(e) = result {
            assert_eq!(e.code(), "TIMEOUT", "{e}");
        }
        // Either way the session still serves the next query.
        assert!(session
            .query(Request::new("SELECT ?n WHERE { ?p <http://e/name> ?n . }"))
            .is_ok());
    }

    #[test]
    fn default_session_owns_a_pool_and_sequential_queries_leave_it_idle() {
        let session = Session::new(dataset());
        let out = session
            .query(Request::new("SELECT ?n WHERE { ?p <http://e/name> ?n . }").with_threads(1))
            .unwrap();
        assert_eq!(out.output.rows.len(), 2);
        assert_eq!(out.metrics.shared_pool_batches, 0);
        let stats = session.pool_stats().expect("a session always owns a pool");
        assert!(stats.threads >= 1);
        assert_eq!(stats.batches, 0);
    }

    #[test]
    fn parallel_queries_and_updates_schedule_on_the_session_pool() {
        let session = Session::with_options(
            dataset(),
            SessionOptions {
                pool_threads: Some(2),
                morsel_rows: Some(1),
                min_parallel_rows: Some(0),
                ..SessionOptions::default()
            },
        );
        let text = "SELECT ?n WHERE { ?p <http://e/name> ?n . } ORDER BY ?n";
        let serial = session
            .query(Request::new(text).with_threads(1).without_cache())
            .unwrap();
        let parallel = session
            .query(Request::new(text).with_threads(4).without_cache())
            .unwrap();
        assert_eq!(parallel.output.rows, serial.output.rows);
        // The per-query count is exactly what the pool saw.
        let after_query = session.pool_stats().unwrap().batches;
        assert!(after_query > 0);
        assert_eq!(parallel.metrics.shared_pool_batches as u64, after_query);
        // DELETE WHERE's matching query runs in the request's context too.
        session
            .update(Request::new("DELETE WHERE { ?s <http://e/name> ?n . }").with_threads(4))
            .unwrap();
        assert!(session.pool_stats().unwrap().batches > after_query);
        assert_eq!(session.snapshot().len(), 1);
    }
}
