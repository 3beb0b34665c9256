//! Two-tier query cache keyed on canonical query shape.
//!
//! **Tier 1 — plan cache.** HSP planning is statistics-free: a plan
//! depends only on the *syntactic shape* of the query (paper §3 — the
//! heuristics consult no data statistics). Two queries with the same
//! [canonical shape](hsp_sparql::canonicalize) therefore get the same
//! plan modulo the hoisted constants, so the session caches the lowered
//! [`PhysicalPlan`] per shape key and re-instantiates it with the new
//! request's constants — skipping parsing-to-plan lowering (including
//! the MWIS independence search) entirely. Because the plan never
//! depended on the data, this tier needs **no invalidation**: updates
//! cannot make a cached plan wrong, only a cached *result* stale.
//!
//! **Tier 2 — result cache.** A bounded LRU (entries + approximate
//! bytes, the request text an entry is keyed by included) of query
//! results keyed by the exact request text plus every knob that can
//! change the answer or its ordering. Each entry records the set of
//! predicates its query read (`Reads`); the update path reports the
//! predicates it touched ([`Touched`]) and only the entries whose read
//! set intersects are dropped. An update that binds a *variable*
//! predicate flushes the whole tier (the conservative fallback).
//!
//! An entry stores the result in **id form** — the very
//! `Arc<`[`IdRows`]`>` the response that populated it holds, 4 bytes a
//! cell, plus its column names, ASK answer, note and metrics — and **no
//! snapshot**: holding one would pin a pre-compaction base, a second copy
//! of the store. A hit is resolved against the dictionary of the snapshot
//! current *at lookup*, which is sound because
//!
//! * dictionary ids are append-only: `intern`, `compact`, copy-on-write
//!   clones and deletes never move, reuse or drop an id, so every later
//!   dictionary maps an entry's ids to the same terms (computed aggregate
//!   terms are not in any dictionary; they travel inside the `IdRows`);
//! * predicate-exact invalidation drops every entry whose *rows* could
//!   have changed before the snapshot that changed them is published.
//!
//! So a hit is byte-identical to a cold run against the current snapshot.
//! Neither insert nor hit copies, walks or drops a row: both are a few
//! reference-count bumps, and the tier's mutex is held for no more.
//!
//! **One recency mechanism.** Both tiers keep their entries in an `Lru`:
//! a slab of nodes linked by index into a recency list, plus a hash map
//! from key to slab index. A lookup moves its node to the head, an
//! insert links a node at the head, an eviction pops the tail — each one
//! hash lookup and a handful of index writes, whatever the occupancy, so
//! a full tier whose every insert evicts (a request stream far wider
//! than the tier) pays no more per request than an empty one. Only
//! invalidation walks a tier. Evicted, displaced and invalidated result
//! entries are handed out of the critical section and freed after the
//! tier's mutex is released.
//!
//! Concurrency contract (enforced by the session, documented here):
//! result lookups and inserts happen while holding the store's read
//! lock; invalidation + version bump happen inside the store's write
//! lock, before the new snapshot is published. An insert re-checks the
//! version recorded at lookup time and drops the entry if an update
//! published in between — a reader can therefore never observe a
//! pre-update result after the publishing swap.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hsp_engine::plan::PhysicalPlan;
use hsp_engine::{IdRows, RuntimeMetrics};
use hsp_rdf::Term;
use hsp_sparql::{CanonicalQuery, JoinQuery, TermOrVar, Var};

use crate::update::Touched;

/// Maximum cached plans (shape keys). Plans are small; this bound only
/// guards against unbounded template churn.
const MAX_PLAN_ENTRIES: usize = 512;
/// Maximum cached results.
const MAX_RESULT_ENTRIES: usize = 1024;
/// Approximate byte budget for cached results (32 MiB).
const MAX_RESULT_BYTES: usize = 32 << 20;

/// What a cached result's query read — the invalidation granularity.
#[derive(Debug, Clone)]
pub(crate) enum Reads {
    /// The query only scanned patterns with these constant predicates.
    Predicates(Vec<Term>),
    /// At least one pattern had a variable predicate: any update may
    /// affect this result.
    All,
}

impl Reads {
    fn overlaps(&self, touched: &Touched) -> bool {
        if touched.all {
            return true;
        }
        match self {
            Reads::All => !touched.predicates.is_empty(),
            Reads::Predicates(preds) => preds.iter().any(|p| touched.predicates.contains(p)),
        }
    }
}

/// Point-in-time cache counters, surfaced via `Session::cache_stats`
/// and the server's `STATS` verb.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Plan-tier hits (planning skipped, plan re-instantiated).
    pub plan_hits: u64,
    /// Plan-tier misses (planned fresh, entry stored).
    pub plan_misses: u64,
    /// Result-tier hits (execution skipped entirely).
    pub result_hits: u64,
    /// Result-tier misses among cacheable requests.
    pub result_misses: u64,
    /// Result entries pushed out by the entry or byte bound. A count
    /// that tracks `result_misses` means the tier is thrashing: every
    /// insert evicts an entry that was never hit.
    pub result_evictions: u64,
    /// Result entries dropped by update-driven invalidation.
    pub invalidations: u64,
    /// Live result entries.
    pub result_entries: usize,
    /// Approximate bytes held by live result entries.
    pub result_bytes: usize,
}

/// A cached plan for one canonical shape: the physical plan and the
/// rewritten query it was lowered from, plus enough of the original
/// request to re-instantiate both for a different member of the shape
/// class (same key, different hoisted constants / variable spellings).
struct PlanEntry {
    plan: PhysicalPlan,
    /// The planner's rewritten query (drives projection and explain).
    planned_query: JoinQuery,
    /// Hoisted constants of the query that populated the entry,
    /// position-aligned with any later hit's `params`.
    params: Vec<Term>,
    /// canonical id -> source var of the populating query.
    canon_vars: Vec<Var>,
    /// Raw projection output names of the populating query, in order.
    proj_names: Vec<String>,
    /// Aggregate output names of the populating query, in order.
    agg_names: Vec<String>,
}

impl PlanEntry {
    /// Re-target the cached plan at `hit` (a query with the same shape
    /// key). Returns `None` when the output-name correspondence is
    /// ambiguous — the caller then plans fresh, which is always safe.
    fn instantiate(
        &self,
        hit: &CanonicalQuery,
        hit_query: &JoinQuery,
    ) -> Option<(PhysicalPlan, JoinQuery)> {
        if hit.params.len() != self.params.len() || hit.canon_vars.len() != self.canon_vars.len() {
            return None; // impossible under key equality; belt and braces
        }
        if self.proj_names.len() != hit_query.projection.len()
            || self.agg_names.len() != hit_query.aggregates.len()
        {
            return None;
        }
        // Params are deduplicated by value, so a constant's position in
        // the populating query's vector names its replacement in the
        // hit's; there are a handful at most.
        let term = |t: &Term| {
            let at = self.params.iter().position(|p| p == t)?;
            Some(hit.params[at].clone())
        };
        // Output names are positional: the key fixes projection and
        // aggregate *positions*, so name i of the cached query becomes
        // name i of the hit.
        let names = || {
            let proj = self.proj_names.iter().zip(&hit_query.projection);
            let aggs = self.agg_names.iter().zip(&hit_query.aggregates);
            proj.map(|(from, (to, _))| (from.as_str(), to.as_str()))
                .chain(aggs.map(|(from, agg)| (from.as_str(), agg.name.as_str())))
        };
        // The same template spells its outputs the same way: nothing to
        // rename then. Otherwise a source name reused for two different
        // targets would make by-name replacement ambiguous — bail.
        let mut name_map: HashMap<&str, &str> = HashMap::new();
        if names().any(|(from, to)| from != to) {
            for (from, to) in names() {
                if *name_map.entry(from).or_insert(to) != to {
                    return None;
                }
            }
        }
        let name = |n: &str| name_map.get(n).map(|to| to.to_string());
        let plan = self.plan.instantiate(&term, &name);
        let mut query = instantiate_query(&self.planned_query, &term, &name);
        // Cosmetics: make explain output name variables as the hit
        // request spelled them, via the canonical bijection.
        for (canon, src) in self.canon_vars.iter().enumerate() {
            if let (Some(hit_var), Some(slot)) = (
                hit.canon_vars.get(canon),
                query.var_names.get_mut(src.index()),
            ) {
                if let Some(spelling) = hit_query.var_names.get(hit_var.index()) {
                    slot.clone_from(spelling);
                }
            }
        }
        Some((plan, query))
    }
}

/// Clone `q` with constants and output names substituted. Variables are
/// untouched: execution happens entirely in the cached query's variable
/// space, which the key guarantees is isomorphic to the hit's.
fn instantiate_query(
    q: &JoinQuery,
    term: &impl Fn(&Term) -> Option<Term>,
    name: &impl Fn(&str) -> Option<String>,
) -> JoinQuery {
    let mut out = q.clone();
    for p in &mut out.patterns {
        *p = p.map_consts(term);
    }
    for f in &mut out.filters {
        *f = f.map_consts(term);
    }
    for (n, _) in &mut out.projection {
        if let Some(mapped) = name(n) {
            *n = mapped;
        }
    }
    for agg in &mut out.aggregates {
        if let Some(mapped) = name(&agg.name) {
            agg.name = mapped;
        }
    }
    if let Some(having) = &mut out.having {
        *having = having.map_consts(term);
    }
    for key in &mut out.modifiers.order_by {
        key.expr = key.expr.map_consts(term);
    }
    out
}

/// Derive the read set of a query from the scans of its plan: the constant
/// predicates it reads, or [`Reads::All`] when some scan's predicate is a
/// variable.
pub(crate) fn plan_reads(plan: &PhysicalPlan) -> Reads {
    let mut preds = Vec::new();
    let mut variable_predicate = false;
    plan.visit(&mut |node| {
        if let PhysicalPlan::Scan { pattern, .. } = node {
            match &pattern.slots[1] {
                TermOrVar::Const(t) => preds.push(t.clone()),
                TermOrVar::Var(_) => variable_predicate = true,
            }
        }
    });
    if variable_predicate {
        return Reads::All;
    }
    preds.sort_unstable();
    preds.dedup();
    Reads::Predicates(preds)
}

/// What the result tier keeps of a response, and hands back on a hit: the
/// id rows (shared with the response that populated the entry — never
/// copied) and everything around them except the snapshot.
#[derive(Clone)]
pub(crate) struct CachedResult {
    pub(crate) columns: Arc<[String]>,
    pub(crate) rows: Arc<IdRows>,
    pub(crate) ask: Option<bool>,
    pub(crate) note: Option<String>,
    pub(crate) metrics: RuntimeMetrics,
}

struct ResultEntry {
    result: CachedResult,
    reads: Reads,
    bytes: usize,
}

/// What a result entry costs before its key and rows: the entry and the
/// two list links of its node.
const RESULT_ENTRY_BYTES: usize =
    std::mem::size_of::<ResultEntry>() + 2 * std::mem::size_of::<u32>();

/// "No node": the `prev` of the head, the `next` of the tail, and both
/// ends of an empty list.
const NIL: u32 = u32::MAX;

struct Node<V> {
    /// Shared with the map: the key text is stored once.
    key: Arc<str>,
    value: V,
    /// Neighbour towards the head (more recently used).
    prev: u32,
    /// Neighbour towards the tail (less recently used).
    next: u32,
}

/// A least-recently-used map with constant-time bookkeeping: a slab of
/// nodes linked by index into a recency list (`head` = most recent,
/// `tail` = next victim) and a hash map from key to slab index. Every
/// operation but [`Lru::retain`] costs one hash lookup and a handful of
/// index writes, whatever the occupancy. The type holds no capacity:
/// each tier pops the tail while its own bounds are exceeded. No caller
/// code runs between the index writes of one operation, so a panic
/// elsewhere under a tier's mutex leaves a valid list behind the
/// poisoned lock.
struct Lru<V> {
    map: HashMap<Arc<str>, u32>,
    /// Slab: `None` slots are exactly the indices in `free`.
    nodes: Vec<Option<Node<V>>>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
}

impl<V> Default for Lru<V> {
    fn default() -> Self {
        Lru {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }
}

impl<V> Lru<V> {
    fn len(&self) -> usize {
        self.map.len()
    }

    fn node(&self, idx: u32) -> &Node<V> {
        self.nodes[idx as usize]
            .as_ref()
            .expect("a linked index names a live node")
    }

    fn node_mut(&mut self, idx: u32) -> &mut Node<V> {
        self.nodes[idx as usize]
            .as_mut()
            .expect("a linked index names a live node")
    }

    /// Take `idx` out of the recency list; its own links go stale.
    fn unlink(&mut self, idx: u32) {
        let Node { prev, next, .. } = *self.node(idx);
        if prev == NIL {
            self.head = next;
        } else {
            self.node_mut(prev).next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.node_mut(next).prev = prev;
        }
    }

    /// Link `idx` in as the most recently used node.
    fn push_front(&mut self, idx: u32) {
        let old_head = self.head;
        let node = self.node_mut(idx);
        node.prev = NIL;
        node.next = old_head;
        if old_head == NIL {
            self.tail = idx;
        } else {
            self.node_mut(old_head).prev = idx;
        }
        self.head = idx;
    }

    fn touch(&mut self, idx: u32) {
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    /// Unlink `idx`, forget its key and recycle its slot.
    fn remove(&mut self, idx: u32) -> (Arc<str>, V) {
        self.unlink(idx);
        let node = self.nodes[idx as usize]
            .take()
            .expect("a linked index names a live node");
        self.map.remove(&*node.key);
        self.free.push(idx);
        (node.key, node.value)
    }

    /// Look `key` up and mark it most recently used. Allocates nothing.
    fn get(&mut self, key: &str) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.touch(idx);
        Some(&self.node(idx).value)
    }

    /// Store `value` under `key` as the most recently used entry,
    /// returning the value it displaces if the key was present.
    fn insert(&mut self, key: Arc<str>, value: V) -> Option<V> {
        if let Some(&idx) = self.map.get(&*key) {
            self.touch(idx);
            return Some(std::mem::replace(&mut self.node_mut(idx).value, value));
        }
        let node = Some(Node {
            key: Arc::clone(&key),
            value,
            prev: NIL,
            next: NIL,
        });
        let idx = match self.free.pop() {
            Some(idx) => {
                self.nodes[idx as usize] = node;
                idx
            }
            None => {
                let idx = u32::try_from(self.nodes.len())
                    .ok()
                    .filter(|&idx| idx != NIL)
                    .expect("an Lru holds fewer than u32::MAX entries");
                self.nodes.push(node);
                idx
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        None
    }

    /// Remove and return the least recently used entry.
    fn pop_lru(&mut self) -> Option<(Arc<str>, V)> {
        (self.tail != NIL).then(|| self.remove(self.tail))
    }

    /// Remove every entry `keep` rejects — one walk from most to least
    /// recently used; the survivors keep their relative order — and
    /// return the removed entries in walk order.
    fn retain(&mut self, mut keep: impl FnMut(&str, &V) -> bool) -> Vec<(Arc<str>, V)> {
        let mut removed = Vec::new();
        let mut idx = self.head;
        while idx != NIL {
            let node = self.node(idx);
            let next = node.next;
            if !keep(&node.key, &node.value) {
                removed.push(self.remove(idx));
            }
            idx = next;
        }
        removed
    }
}

/// The result tier behind its mutex: the recency list, the byte total
/// and both bounds.
struct ResultStore {
    lru: Lru<ResultEntry>,
    /// Sum of the live entries' `bytes`.
    bytes: usize,
    max_entries: usize,
    max_bytes: usize,
}

/// Entries taken out of the result tier, for the caller to free once the
/// tier's mutex is released.
type Removed = Vec<(Arc<str>, ResultEntry)>;

impl ResultStore {
    fn new(max_entries: usize, max_bytes: usize) -> Self {
        ResultStore {
            lru: Lru::default(),
            bytes: 0,
            max_entries,
            max_bytes,
        }
    }

    /// Store `entry` as the most recently used, then evict from the tail
    /// until both bounds hold. Returns the same-key entry it displaced
    /// and the evicted ones, least recently used first.
    fn insert(&mut self, key: Arc<str>, entry: ResultEntry) -> (Option<ResultEntry>, Removed) {
        self.bytes += entry.bytes;
        let displaced = self.lru.insert(key, entry);
        if let Some(old) = &displaced {
            self.bytes -= old.bytes;
        }
        let mut evicted = Vec::new();
        while self.lru.len() > self.max_entries || self.bytes > self.max_bytes {
            let Some(victim) = self.lru.pop_lru() else {
                break;
            };
            self.bytes -= victim.1.bytes;
            evicted.push(victim);
        }
        (displaced, evicted)
    }

    /// Remove every entry whose read set intersects `touched`.
    fn invalidate(&mut self, touched: &Touched) -> Removed {
        let doomed = self.lru.retain(|_, entry| !entry.reads.overlaps(touched));
        self.bytes -= doomed.iter().map(|(_, e)| e.bytes).sum::<usize>();
        doomed
    }
}

/// The session-owned two-tier cache. See the module docs for the
/// design and the concurrency contract.
pub(crate) struct QueryCache {
    plans: Mutex<Lru<PlanEntry>>,
    results: Mutex<ResultStore>,
    /// Bumped (under the store's write lock) every time an update
    /// publishes a new snapshot; guards result inserts against races.
    version: AtomicU64,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    result_hits: AtomicU64,
    result_misses: AtomicU64,
    result_evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl Default for QueryCache {
    fn default() -> Self {
        QueryCache {
            plans: Mutex::default(),
            results: Mutex::new(ResultStore::new(MAX_RESULT_ENTRIES, MAX_RESULT_BYTES)),
            version: AtomicU64::new(0),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
            result_hits: AtomicU64::new(0),
            result_misses: AtomicU64::new(0),
            result_evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }
}

impl QueryCache {
    /// Current dataset version as seen by the cache.
    pub(crate) fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Plan-tier lookup: returns the cached plan re-instantiated for
    /// `query` on a hit. Counts a miss when absent *or* when the entry
    /// cannot be safely re-targeted (the caller plans fresh either way).
    pub(crate) fn plan_get(
        &self,
        canon: &CanonicalQuery,
        query: &JoinQuery,
    ) -> Option<(PhysicalPlan, JoinQuery)> {
        let mut plans = self.plans.lock().unwrap_or_else(|e| e.into_inner());
        let instantiated = plans
            .get(&canon.key)
            .and_then(|entry| entry.instantiate(canon, query));
        drop(plans);
        match instantiated {
            Some(pair) => {
                self.plan_hits.fetch_add(1, Ordering::Relaxed);
                Some(pair)
            }
            None => {
                self.plan_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store a freshly planned query under its shape key.
    pub(crate) fn plan_insert(
        &self,
        canon: CanonicalQuery,
        query: &JoinQuery,
        plan: &PhysicalPlan,
        planned_query: &JoinQuery,
    ) {
        let entry = PlanEntry {
            plan: plan.clone(),
            planned_query: planned_query.clone(),
            params: canon.params,
            canon_vars: canon.canon_vars,
            proj_names: query.projection.iter().map(|(n, _)| n.clone()).collect(),
            agg_names: query.aggregates.iter().map(|a| a.name.clone()).collect(),
        };
        let key = Arc::from(canon.key);
        let mut plans = self.plans.lock().unwrap_or_else(|e| e.into_inner());
        plans.insert(key, entry);
        if plans.len() > MAX_PLAN_ENTRIES {
            plans.pop_lru();
        }
    }

    /// Result-tier lookup. Call while holding the store's read lock, and
    /// resolve the hit against the snapshot read under that same guard.
    pub(crate) fn result_get(&self, key: &str) -> Option<CachedResult> {
        let mut store = self.results.lock().unwrap_or_else(|e| e.into_inner());
        let found = store.lru.get(key).map(|entry| entry.result.clone());
        drop(store);
        let counter = match found {
            Some(_) => &self.result_hits,
            None => &self.result_misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Result-tier insert. Call while holding the store's read lock;
    /// the entry is dropped if an update published a new snapshot since
    /// `version` was read (its invalidation pass could not see us).
    pub(crate) fn result_insert(
        &self,
        key: String,
        result: CachedResult,
        reads: Reads,
        version: u64,
    ) {
        if self.version.load(Ordering::Acquire) != version {
            return;
        }
        let bytes = approx_result_bytes(&key, &result);
        if bytes > MAX_RESULT_BYTES {
            return;
        }
        let key = Arc::from(key);
        let entry = ResultEntry {
            result,
            reads,
            bytes,
        };
        let mut store = self.results.lock().unwrap_or_else(|e| e.into_inner());
        let (_displaced, evicted) = store.insert(key, entry);
        // Whatever the insert pushed out is freed after the mutex.
        drop(store);
        self.result_evictions
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
    }

    /// Drop every result entry whose read set intersects `touched` and
    /// bump the dataset version. Call under the store's write lock,
    /// before publishing the new snapshot. The plan tier is untouched:
    /// statistics-free plans are data-independent.
    pub(crate) fn invalidate(&self, touched: &Touched) {
        self.version.fetch_add(1, Ordering::AcqRel);
        let mut store = self.results.lock().unwrap_or_else(|e| e.into_inner());
        let doomed = store.invalidate(touched);
        drop(store);
        self.invalidations
            .fetch_add(doomed.len() as u64, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    pub(crate) fn stats(&self) -> CacheStats {
        let (entries, bytes) = {
            let store = self.results.lock().unwrap_or_else(|e| e.into_inner());
            (store.lru.len(), store.bytes)
        };
        CacheStats {
            plan_hits: self.plan_hits.load(Ordering::Relaxed),
            plan_misses: self.plan_misses.load(Ordering::Relaxed),
            result_hits: self.result_hits.load(Ordering::Relaxed),
            result_misses: self.result_misses.load(Ordering::Relaxed),
            result_evictions: self.result_evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            result_entries: entries,
            result_bytes: bytes,
        }
    }
}

/// Memory a cached result pins — sizing only, never correctness;
/// over/under-counting just shifts the eviction point.
///
/// The entry with its two list links, the request text it is keyed by
/// (a frame may carry megabytes of it), four bytes a cell for the id
/// columns, plus the computed-term overlay (aggregate outputs), which no
/// dictionary holds: each of its terms is charged its slot and its text
/// with the `Arc` headers. Dictionary text costs an entry nothing.
fn approx_result_bytes(key: &str, result: &CachedResult) -> usize {
    use std::mem::size_of;
    /// Strong + weak counts in front of an `Arc<str>`'s bytes.
    const ARC_HEADER: usize = 2 * size_of::<usize>();
    let text = |s: &Arc<str>| s.len() + ARC_HEADER;
    let rows = &result.rows;
    let mut bytes = RESULT_ENTRY_BYTES + key.len() + size_of::<IdRows>();
    for col in result.columns.iter() {
        bytes += size_of::<String>() + col.len();
    }
    bytes += (0..rows.width())
        .filter_map(|col| rows.column(col))
        .map(std::mem::size_of_val)
        .sum::<usize>();
    for term in rows.computed() {
        bytes += size_of::<Term>()
            + match term {
                Term::Iri(iri) => text(iri),
                Term::Literal {
                    lexical,
                    datatype,
                    language,
                } => {
                    text(lexical)
                        + datatype.as_ref().map_or(0, text)
                        + language.as_ref().map_or(0, text)
                }
            };
    }
    bytes + result.note.as_ref().map_or(0, String::len)
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::mem::size_of;

    use hsp_core::HspPlanner;
    use hsp_engine::pool::COMPUTED_BASE;
    use hsp_engine::BindingTable;
    use hsp_rdf::TermId;
    use proptest::prelude::*;

    use super::*;

    /// A one-column result over `ids`, with `computed` as its overlay.
    fn result(ids: Vec<TermId>, computed: Vec<Term>) -> CachedResult {
        let table = BindingTable::from_columns(vec![Var(0)], vec![ids], None);
        CachedResult {
            columns: vec!["x".to_string()].into(),
            rows: Arc::new(IdRows::new(table, &[Var(0)], None, computed)),
            ask: None,
            note: None,
            metrics: RuntimeMetrics::default(),
        }
    }

    /// What every one-column result under a one-byte key costs before
    /// its rows.
    fn fixed_bytes() -> usize {
        RESULT_ENTRY_BYTES + 1 + size_of::<IdRows>() + size_of::<String>() + 1
    }

    #[test]
    fn shared_terms_cost_their_slots_and_owned_terms_their_text() {
        // Dictionary ids (and unbound cells): four bytes a cell, however
        // long the text behind them is — the dictionary holds it anyway.
        let shared = result(vec![TermId(7), TermId::UNBOUND, TermId(7)], vec![]);
        assert_eq!(approx_result_bytes("k", &shared), fixed_bytes() + 3 * 4);
        // A computed aggregate term lives in the entry alone: its slot,
        // its lexical form and its datatype, each with an `Arc` header.
        let computed = result(
            vec![TermId(COMPUTED_BASE)],
            vec![Term::typed_literal("24.5", "http://e/dt")],
        );
        assert_eq!(
            approx_result_bytes("k", &computed),
            fixed_bytes() + 4 + size_of::<Term>() + (4 + 16) + (11 + 16)
        );
        // The request text the entry is keyed by lives in the entry too.
        assert_eq!(
            approx_result_bytes(&"k".repeat(1000), &shared),
            fixed_bytes() + 999 + 3 * 4
        );
    }

    #[test]
    fn byte_budget_still_evicts() {
        // Three of these fit the budget, four do not.
        let rows = MAX_RESULT_BYTES * 3 / 10 / size_of::<TermId>();
        let big = result(vec![TermId(1); rows], vec![]);
        let each = approx_result_bytes("a", &big);
        assert!(3 * each <= MAX_RESULT_BYTES && 4 * each > MAX_RESULT_BYTES);

        let cache = QueryCache::default();
        for key in ["a", "b", "c"] {
            cache.result_insert(key.into(), big.clone(), Reads::All, cache.version());
        }
        assert_eq!(cache.stats().result_entries, 3);
        assert_eq!(cache.stats().result_bytes, 3 * each);
        assert!(cache.result_get("a").is_some()); // "b" is now the oldest
        cache.result_insert("d".into(), big.clone(), Reads::All, cache.version());
        let stats = cache.stats();
        assert_eq!(stats.result_entries, 3);
        assert_eq!(stats.result_bytes, 3 * each);
        assert!(cache.result_get("b").is_none(), "LRU entry was evicted");
        for key in ["a", "c", "d"] {
            let hit = cache.result_get(key).expect("recent entries survive");
            // The entry is the inserted rows themselves, never a copy.
            assert!(Arc::ptr_eq(&hit.rows, &big.rows));
        }
    }

    #[test]
    fn large_keys_evict_by_bytes() {
        // Tiny results under request texts of 0.3 budgets each: the key
        // is what fills the tier.
        let small = result(vec![TermId(1)], vec![]);
        let key = |tag: char| format!("{tag}{}", "x".repeat(MAX_RESULT_BYTES * 3 / 10));
        let each = approx_result_bytes(&key('a'), &small);
        assert!(3 * each <= MAX_RESULT_BYTES && 4 * each > MAX_RESULT_BYTES);

        let cache = QueryCache::default();
        for tag in ['a', 'b', 'c', 'd'] {
            cache.result_insert(key(tag), small.clone(), Reads::All, cache.version());
        }
        let stats = cache.stats();
        assert_eq!(stats.result_entries, 3);
        assert_eq!(stats.result_bytes, 3 * each);
        assert_eq!(stats.result_evictions, 1);
        assert!(
            cache.result_get(&key('a')).is_none(),
            "LRU entry was evicted"
        );
        assert!(cache.result_get(&key('d')).is_some());
    }

    #[test]
    fn entry_bound_evicts_exactly_the_least_recently_used() {
        let small = result(vec![TermId(1)], vec![]);
        let cache = QueryCache::default();
        let insert = |i: usize| {
            cache.result_insert(format!("k{i}"), small.clone(), Reads::All, cache.version());
        };
        (0..MAX_RESULT_ENTRIES).for_each(insert);
        assert_eq!(cache.stats().result_entries, MAX_RESULT_ENTRIES);
        assert_eq!(cache.stats().result_evictions, 0);
        // A hit protects its target: "k1" is now the oldest, not "k0".
        assert!(cache.result_get("k0").is_some());
        insert(MAX_RESULT_ENTRIES);
        let stats = cache.stats();
        assert_eq!(stats.result_entries, MAX_RESULT_ENTRIES);
        assert_eq!(stats.result_evictions, 1);
        assert!(cache.result_get("k1").is_none(), "LRU entry was evicted");
        for i in (0..=MAX_RESULT_ENTRIES).filter(|&i| i != 1) {
            assert!(
                cache.result_get(&format!("k{i}")).is_some(),
                "k{i} survives"
            );
        }
        // A same-key insert refreshes too, and evicts nothing.
        insert(2);
        insert(MAX_RESULT_ENTRIES + 1);
        assert!(cache.result_get("k0").is_none(), "k0 was the oldest");
        assert!(cache.result_get("k2").is_some());
        assert_eq!(cache.stats().result_evictions, 2);
    }

    #[test]
    fn plan_tier_evicts_exactly_the_least_recently_used_shape() {
        // Predicates stay literal in the shape key: one shape each.
        let shape = |i: usize| {
            let text = format!("SELECT ?s WHERE {{ ?s <http://e/p{i}> ?o . }}");
            let ast = hsp_sparql::parse_query(&text).expect("parses");
            let query = JoinQuery::from_ast(&ast).expect("a join query");
            let canon = hsp_sparql::canonicalize(&query).expect("canonicalises");
            (canon, query)
        };
        let cache = QueryCache::default();
        let insert = |i: usize| {
            let (canon, query) = shape(i);
            let planned = HspPlanner::new().plan(&query).expect("plans");
            cache.plan_insert(canon, &query, &planned.plan, &planned.query);
        };
        let cached = |i: usize| {
            let (canon, query) = shape(i);
            cache.plan_get(&canon, &query).is_some()
        };
        (0..MAX_PLAN_ENTRIES).for_each(insert);
        // A hit protects its target: shape 1 is now the oldest.
        assert!(cached(0));
        insert(MAX_PLAN_ENTRIES);
        assert!(!cached(1), "LRU shape was evicted");
        for i in (0..=MAX_PLAN_ENTRIES).filter(|&i| i != 1) {
            assert!(cached(i), "shape {i} survives");
        }
        let plans = cache.plans.lock().unwrap();
        assert_eq!(plans.len(), MAX_PLAN_ENTRIES);
        plans.check();
    }

    impl<V> Lru<V> {
        /// Live entries, most recently used first.
        fn iter(&self) -> impl Iterator<Item = (&str, &V)> {
            let mut idx = self.head;
            std::iter::from_fn(move || {
                let node = (idx != NIL).then(|| self.node(idx))?;
                idx = node.next;
                Some((&*node.key, &node.value))
            })
        }

        /// The structural invariants every operation must leave intact.
        fn check(&self) {
            // Forward and backward walks visit the same nodes, and
            // every `prev` mirrors the `next` that led to it.
            let mut forward = Vec::new();
            let (mut before, mut idx) = (NIL, self.head);
            while idx != NIL {
                assert_eq!(self.node(idx).prev, before, "prev of node {idx}");
                forward.push(idx);
                (before, idx) = (idx, self.node(idx).next);
                assert!(forward.len() <= self.nodes.len(), "cycle in the list");
            }
            assert_eq!(self.tail, before, "tail is the last node reached");
            let mut backward = Vec::new();
            let mut idx = self.tail;
            while idx != NIL {
                backward.push(idx);
                idx = self.node(idx).prev;
                assert!(backward.len() <= self.nodes.len(), "cycle in the list");
            }
            backward.reverse();
            assert_eq!(forward, backward);
            // The list and the map hold the same entries, sharing keys.
            assert_eq!(forward.len(), self.map.len());
            for (key, &idx) in &self.map {
                assert!(Arc::ptr_eq(key, &self.node(idx).key));
            }
            // The free list is exactly the empty slots, each once.
            let free: HashSet<u32> = self.free.iter().copied().collect();
            assert_eq!(free.len(), self.free.len(), "a slot is free twice");
            assert_eq!(free.len() + forward.len(), self.nodes.len());
            for &idx in &free {
                assert!(
                    self.nodes[idx as usize].is_none(),
                    "free slot {idx} is live"
                );
            }
        }
    }

    /// The tier this file used to implement — a use stamp on every entry
    /// and a scan for the smallest on every eviction — kept as the oracle
    /// the linked list is checked against.
    struct ScanTier {
        map: HashMap<String, ScanEntry>,
        bytes: usize,
        tick: u64,
        max_entries: usize,
        max_bytes: usize,
    }

    struct ScanEntry {
        bytes: usize,
        predicate: u8,
        used: u64,
    }

    impl ScanTier {
        fn get(&mut self, key: &str) -> Option<usize> {
            self.tick += 1;
            let entry = self.map.get_mut(key)?;
            entry.used = self.tick;
            Some(entry.bytes)
        }

        /// The displaced entry's bytes and the victims, oldest first.
        fn insert(
            &mut self,
            key: &str,
            bytes: usize,
            predicate: u8,
        ) -> (Option<usize>, Vec<String>) {
            self.tick += 1;
            let entry = ScanEntry {
                bytes,
                predicate,
                used: self.tick,
            };
            let displaced = self.map.insert(key.to_string(), entry).map(|old| old.bytes);
            self.bytes = self.bytes + bytes - displaced.unwrap_or(0);
            let mut victims = Vec::new();
            while self.map.len() > self.max_entries || self.bytes > self.max_bytes {
                let Some(oldest) = self
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.used)
                    .map(|(k, _)| k.clone())
                else {
                    break;
                };
                if let Some(dropped) = self.map.remove(&oldest) {
                    self.bytes -= dropped.bytes;
                    victims.push(oldest);
                }
            }
            (displaced, victims)
        }

        /// The removed keys, sorted (the scan met them in map order).
        fn invalidate(&mut self, predicate: u8) -> Vec<String> {
            let mut doomed: Vec<String> = self
                .map
                .iter()
                .filter(|(_, e)| e.predicate == predicate)
                .map(|(k, _)| k.clone())
                .collect();
            for key in &doomed {
                if let Some(dropped) = self.map.remove(key) {
                    self.bytes -= dropped.bytes;
                }
            }
            doomed.sort();
            doomed
        }

        /// Live `(key, bytes)`, most recently used first.
        fn by_recency(&self) -> Vec<(&str, usize)> {
            let mut live: Vec<_> = self.map.iter().collect();
            live.sort_by_key(|(_, e)| std::cmp::Reverse(e.used));
            live.iter().map(|(k, e)| (k.as_str(), e.bytes)).collect()
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Get(u8),
        Insert(u8, usize, u8),
        Invalidate(u8),
    }

    /// Twelve keys over tiers of one to eight entries, so inserts meet
    /// both new and live keys; no entry outweighs the smallest budget.
    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        let op = prop_oneof![
            3 => (0u8..12).prop_map(Op::Get),
            5 => (0u8..12, 1usize..=8, 0u8..3).prop_map(|(k, b, p)| Op::Insert(k, b, p)),
            1 => (0u8..3).prop_map(Op::Invalidate),
        ];
        proptest::collection::vec(op, 1..160)
    }

    fn predicate(p: u8) -> Term {
        Term::iri(format!("http://e/p{p}"))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The linked-list tier and the stamp-scan tier it replaced hold
        /// the same entries in the same recency order, pick the same
        /// victims in the same order and agree on the byte total after
        /// every step of a random get / insert / invalidate sequence.
        #[test]
        fn lru_matches_the_tick_scan_it_replaced(
            max_entries in 1usize..=8,
            max_bytes in 8usize..=40,
            ops in arb_ops(),
        ) {
            let payload = result(vec![], vec![]);
            let mut store = ResultStore::new(max_entries, max_bytes);
            let mut oracle = ScanTier {
                map: HashMap::new(),
                bytes: 0,
                tick: 0,
                max_entries,
                max_bytes,
            };
            let keys = |removed: &Removed| -> Vec<String> {
                removed.iter().map(|(k, _)| k.to_string()).collect()
            };
            for op in ops {
                match op {
                    Op::Get(k) => {
                        let key = format!("k{k}");
                        let found = store.lru.get(&key).map(|e| e.bytes);
                        prop_assert_eq!(found, oracle.get(&key), "{:?}", op);
                    }
                    Op::Insert(k, bytes, p) => {
                        let key = format!("k{k}");
                        let entry = ResultEntry {
                            result: payload.clone(),
                            reads: Reads::Predicates(vec![predicate(p)]),
                            bytes,
                        };
                        let (displaced, evicted) = store.insert(Arc::from(key.as_str()), entry);
                        let (model_displaced, victims) = oracle.insert(&key, bytes, p);
                        prop_assert_eq!(displaced.map(|e| e.bytes), model_displaced, "{:?}", op);
                        prop_assert_eq!(keys(&evicted), victims, "{:?}", op);
                    }
                    Op::Invalidate(p) => {
                        let touched = Touched {
                            all: false,
                            predicates: HashSet::from([predicate(p)]),
                        };
                        let mut doomed = keys(&store.invalidate(&touched));
                        doomed.sort();
                        prop_assert_eq!(doomed, oracle.invalidate(p), "{:?}", op);
                    }
                }
                store.lru.check();
                let live: Vec<(&str, usize)> = store.lru.iter().map(|(k, e)| (k, e.bytes)).collect();
                prop_assert_eq!(&live, &oracle.by_recency(), "{:?}", op);
                prop_assert_eq!(store.bytes, oracle.bytes);
                prop_assert_eq!(store.bytes, live.iter().map(|(_, b)| b).sum::<usize>());
                prop_assert!(store.lru.len() <= max_entries && store.bytes <= max_bytes);
            }
        }
    }
}
