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
//! bytes) of query results keyed by the exact request text plus every
//! knob that can change the answer or its ordering. Each entry records
//! the set of predicates its query read (`Reads`); the update path
//! reports the predicates it touched ([`Touched`]) and only the entries
//! whose read set intersects are dropped. An update that binds a
//! *variable* predicate flushes the whole tier (the conservative
//! fallback).
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
    /// LRU stamp.
    used: u64,
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
        let mut term_map: HashMap<Term, Term> = HashMap::new();
        for (old, new) in self.params.iter().zip(&hit.params) {
            if old != new {
                term_map.insert(old.clone(), new.clone());
            }
        }
        // Output names are positional: the key fixes projection and
        // aggregate *positions*, so name i of the cached query becomes
        // name i of the hit. A source name reused for two different
        // targets would make by-name replacement ambiguous — bail.
        let mut name_map: HashMap<String, String> = HashMap::new();
        let mut bind = |from: &str, to: &str| -> bool {
            if from == to {
                return !name_map.contains_key(from) || name_map[from] == to;
            }
            match name_map.get(from) {
                Some(prev) => prev == to,
                None => {
                    name_map.insert(from.to_string(), to.to_string());
                    true
                }
            }
        };
        if self.proj_names.len() != hit_query.projection.len()
            || self.agg_names.len() != hit_query.aggregates.len()
        {
            return None;
        }
        for (from, (to, _)) in self.proj_names.iter().zip(&hit_query.projection) {
            if !bind(from, to) {
                return None;
            }
        }
        for (from, agg) in self.agg_names.iter().zip(&hit_query.aggregates) {
            if !bind(from, &agg.name) {
                return None;
            }
        }
        let term = |t: &Term| term_map.get(t).cloned();
        let name = |n: &str| name_map.get(n).cloned();
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

/// Derive the read set of a parsed (possibly extended) query from its
/// WHERE group — OPTIONAL/UNION arms included.
pub(crate) fn ast_reads(group: &hsp_sparql::ast::GroupPattern) -> Reads {
    use hsp_sparql::ast::{Element, NodeAst};
    fn walk(group: &hsp_sparql::ast::GroupPattern, preds: &mut Vec<Term>) -> bool {
        for element in &group.elements {
            match element {
                Element::Triple(t) => match &t.predicate {
                    NodeAst::Const(term) => preds.push(term.clone()),
                    NodeAst::Var(_) => return false,
                },
                Element::Filter(_) => {}
                Element::Optional(inner) => {
                    if !walk(inner, preds) {
                        return false;
                    }
                }
                Element::Union(left, right) => {
                    if !walk(left, preds) || !walk(right, preds) {
                        return false;
                    }
                }
            }
        }
        true
    }
    let mut preds = Vec::new();
    if walk(group, &mut preds) {
        preds.sort_unstable();
        preds.dedup();
        Reads::Predicates(preds)
    } else {
        Reads::All
    }
}

/// Derive the read set of a planned join query from its patterns.
pub(crate) fn query_reads(q: &JoinQuery) -> Reads {
    let mut preds = Vec::new();
    for p in &q.patterns {
        match &p.slots[1] {
            TermOrVar::Const(t) => preds.push(t.clone()),
            TermOrVar::Var(_) => return Reads::All,
        }
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
    used: u64,
}

#[derive(Default)]
struct ResultStore {
    map: HashMap<String, ResultEntry>,
    bytes: usize,
    tick: u64,
}

impl ResultStore {
    /// Evict least-recently-used entries until both bounds hold, moving
    /// them into `evicted` so the caller frees them outside the mutex.
    fn evict_to_fit(&mut self, evicted: &mut Vec<ResultEntry>) {
        while self.map.len() > MAX_RESULT_ENTRIES || self.bytes > MAX_RESULT_BYTES {
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
                evicted.push(dropped);
            }
        }
    }
}

#[derive(Default)]
struct PlanStore {
    map: HashMap<String, PlanEntry>,
    tick: u64,
}

/// The session-owned two-tier cache. See the module docs for the
/// design and the concurrency contract.
pub(crate) struct QueryCache {
    plans: Mutex<PlanStore>,
    results: Mutex<ResultStore>,
    /// Bumped (under the store's write lock) every time an update
    /// publishes a new snapshot; guards result inserts against races.
    version: AtomicU64,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    result_hits: AtomicU64,
    result_misses: AtomicU64,
    invalidations: AtomicU64,
}

impl Default for QueryCache {
    fn default() -> Self {
        QueryCache {
            plans: Mutex::default(),
            results: Mutex::default(),
            version: AtomicU64::new(0),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
            result_hits: AtomicU64::new(0),
            result_misses: AtomicU64::new(0),
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
        let mut store = self.plans.lock().unwrap_or_else(|e| e.into_inner());
        store.tick += 1;
        let tick = store.tick;
        let instantiated = store.map.get_mut(&canon.key).and_then(|entry| {
            entry.used = tick;
            entry.instantiate(canon, query)
        });
        drop(store);
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
            used: 0,
        };
        let mut store = self.plans.lock().unwrap_or_else(|e| e.into_inner());
        store.tick += 1;
        let tick = store.tick;
        if store.map.len() >= MAX_PLAN_ENTRIES && !store.map.contains_key(&canon.key) {
            if let Some(oldest) = store
                .map
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(k, _)| k.clone())
            {
                store.map.remove(&oldest);
            }
        }
        store.map.insert(
            canon.key,
            PlanEntry {
                used: tick,
                ..entry
            },
        );
    }

    /// Result-tier lookup. Call while holding the store's read lock, and
    /// resolve the hit against the snapshot read under that same guard.
    pub(crate) fn result_get(&self, key: &str) -> Option<CachedResult> {
        let mut store = self.results.lock().unwrap_or_else(|e| e.into_inner());
        store.tick += 1;
        let tick = store.tick;
        let found = store.map.get_mut(key).map(|entry| {
            entry.used = tick;
            entry.result.clone()
        });
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
        let bytes = approx_result_bytes(&result);
        if bytes > MAX_RESULT_BYTES {
            return;
        }
        let mut store = self.results.lock().unwrap_or_else(|e| e.into_inner());
        store.tick += 1;
        let entry = ResultEntry {
            result,
            reads,
            bytes,
            used: store.tick,
        };
        // Whatever the insert displaces is freed after the mutex.
        let mut displaced = Vec::new();
        if let Some(old) = store.map.insert(key, entry) {
            store.bytes -= old.bytes;
            displaced.push(old);
        }
        store.bytes += bytes;
        store.evict_to_fit(&mut displaced);
        drop(store);
    }

    /// Drop every result entry whose read set intersects `touched` and
    /// bump the dataset version. Call under the store's write lock,
    /// before publishing the new snapshot. The plan tier is untouched:
    /// statistics-free plans are data-independent.
    pub(crate) fn invalidate(&self, touched: &Touched) {
        self.version.fetch_add(1, Ordering::AcqRel);
        let mut store = self.results.lock().unwrap_or_else(|e| e.into_inner());
        let doomed: Vec<String> = store
            .map
            .iter()
            .filter(|(_, e)| e.reads.overlaps(touched))
            .map(|(k, _)| k.clone())
            .collect();
        for key in &doomed {
            if let Some(dropped) = store.map.remove(key) {
                store.bytes -= dropped.bytes;
            }
        }
        drop(store);
        self.invalidations
            .fetch_add(doomed.len() as u64, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    pub(crate) fn stats(&self) -> CacheStats {
        let (entries, bytes) = {
            let store = self.results.lock().unwrap_or_else(|e| e.into_inner());
            (store.map.len(), store.bytes)
        };
        CacheStats {
            plan_hits: self.plan_hits.load(Ordering::Relaxed),
            plan_misses: self.plan_misses.load(Ordering::Relaxed),
            result_hits: self.result_hits.load(Ordering::Relaxed),
            result_misses: self.result_misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            result_entries: entries,
            result_bytes: bytes,
        }
    }
}

/// Memory a cached result pins — sizing only, never correctness;
/// over/under-counting just shifts the eviction point.
///
/// Four bytes a cell for the id columns, plus the computed-term overlay
/// (aggregate outputs), which no dictionary holds: each of its terms is
/// charged its slot and its text with the `Arc` headers. Dictionary text
/// costs an entry nothing.
fn approx_result_bytes(result: &CachedResult) -> usize {
    use std::mem::size_of;
    /// Strong + weak counts in front of an `Arc<str>`'s bytes.
    const ARC_HEADER: usize = 2 * size_of::<usize>();
    let text = |s: &Arc<str>| s.len() + ARC_HEADER;
    let rows = &result.rows;
    let mut bytes = size_of::<ResultEntry>() + size_of::<IdRows>();
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
    use std::mem::size_of;

    use hsp_engine::pool::COMPUTED_BASE;
    use hsp_engine::BindingTable;
    use hsp_rdf::TermId;

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

    /// What every one-column result costs before its rows.
    fn fixed_bytes() -> usize {
        size_of::<ResultEntry>() + size_of::<IdRows>() + size_of::<String>() + 1
    }

    #[test]
    fn shared_terms_cost_their_slots_and_owned_terms_their_text() {
        // Dictionary ids (and unbound cells): four bytes a cell, however
        // long the text behind them is — the dictionary holds it anyway.
        let shared = result(vec![TermId(7), TermId::UNBOUND, TermId(7)], vec![]);
        assert_eq!(approx_result_bytes(&shared), fixed_bytes() + 3 * 4);
        // A computed aggregate term lives in the entry alone: its slot,
        // its lexical form and its datatype, each with an `Arc` header.
        let computed = result(
            vec![TermId(COMPUTED_BASE)],
            vec![Term::typed_literal("24.5", "http://e/dt")],
        );
        assert_eq!(
            approx_result_bytes(&computed),
            fixed_bytes() + 4 + size_of::<Term>() + (4 + 16) + (11 + 16)
        );
    }

    #[test]
    fn byte_budget_still_evicts() {
        // Three of these fit the budget, four do not.
        let rows = MAX_RESULT_BYTES * 3 / 10 / size_of::<TermId>();
        let big = result(vec![TermId(1); rows], vec![]);
        let each = approx_result_bytes(&big);
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
}
