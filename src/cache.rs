//! Two-tier query cache: plans keyed by token skeleton, results by
//! request text.
//!
//! **Tier 1 — plan cache.** HSP planning is statistics-free: a plan
//! depends only on the query's syntax (paper §3 — the heuristics consult
//! no data statistics), so two texts that differ only in their hoisted
//! constants get the same plan with those constants put in. The tier maps
//! a text's token [skeleton](hsp_sparql::skeleton) to the aliases recorded
//! under it: each a [`Template`] with the plan and rewritten query the
//! request that made it was planned fresh with. A request is lexed once;
//! when an alias of its skeleton accepts its tokens, the request gets that
//! plan and query with its own constants put in by position — no parse,
//! no planning, no search by value. Otherwise it is parsed and planned
//! fresh, and leaves its alias behind. Because the plan never depended on
//! the data, this tier needs **no invalidation**: updates cannot make a
//! cached plan wrong, only a cached *result* stale.
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
//! An insert copies, walks or drops no row, nor does a hit: both are a few
//! reference-count bumps under the tier's mutex (an entry's first hit also
//! makes its empty body slots).
//!
//! Beside its ids an entry keeps one wire **body** per result format,
//! filled lazily: `hsp-serve`'s first hit on the entry in a format renders
//! the body as a miss would and stores it (`QueryCache::body_insert`),
//! and every later hit in that format sends the status line plus the
//! stored pieces in one vectored write — no id resolved, no value escaped.
//! A body is a function of the entry's ids, columns and format alone, so
//! it is sound for the same two reasons; invalidation drops it with its
//! entry. A fill is charged to the byte bound under the tier's mutex,
//! evicts from the tail as an insert does, and is dropped when its entry
//! left the tier since the hit. Misses, library callers and ASK answers
//! store no body.
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

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use hsp_engine::plan::PhysicalPlan;
use hsp_engine::{IdRows, RuntimeMetrics};
use hsp_rdf::Term;
use hsp_sparql::lexer::Token;
use hsp_sparql::{JoinQuery, Template, TermOrVar, Var};

use crate::results::Format;
use crate::update::Touched;

/// Maximum plan-tier entries (token skeletons). Plans are small; this
/// bound only guards against unbounded template churn.
const MAX_PLAN_ENTRIES: usize = 512;
/// Maximum aliases under one token skeleton (templates that differ only
/// in their kept constants, e.g. their predicates, share a skeleton). A
/// full skeleton drops its least recently hit alias.
const MAX_ALIASES_PER_SKELETON: usize = 8;
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
    /// Plan-tier hits (parsing and planning skipped, plan
    /// re-instantiated).
    pub plan_hits: u64,
    /// Plan-tier misses (planned fresh, alias stored).
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

/// A plan-tier alias: the plan and query one request was planned fresh
/// with, and the [`Template`] that tells which other texts under its
/// skeleton are instances. Such a text gets the plan back with its own
/// parameters put in by position — no parse, no planning, no search by
/// value — and shares the alias's query as it is. The plan holds every
/// constant the execution and `--explain` read; of the query a hit reads
/// only variable and output names, which need no mapping, since the
/// skeleton repeats them exactly.
pub(crate) struct Alias {
    template: Template,
    plan: PhysicalPlan,
    query: JoinQuery,
    /// The query's output column names, shared by every hit's response.
    columns: Arc<[String]>,
    /// The query's projected variables, in column order.
    vars: Box<[Var]>,
    /// The parameter each constant of `plan` holds, in the order
    /// [`PhysicalPlan::instantiate`] visits them; `None` for a kept
    /// constant.
    consts: Vec<Option<usize>>,
    /// The tier's plan-hit count after this alias's last hit, or at its
    /// insert if it was never hit: the recency its skeleton evicts by.
    last_hit: AtomicU64,
}

impl Alias {
    /// The alias of a request the template was made from, which `plan` and
    /// `query` were planned for and whose own parameters are `params`.
    /// Under the template's guards a constant equal to a parameter *is*
    /// that parameter, so each constant's slot is found by value once,
    /// here, and never on a hit. `stamp` is the tier's plan-hit count now.
    fn new(
        template: Template,
        params: &[Term],
        plan: &PhysicalPlan,
        query: &JoinQuery,
        stamp: u64,
    ) -> Alias {
        let consts = RefCell::new(Vec::new());
        let record = |t: &Term| {
            consts.borrow_mut().push(params.iter().position(|p| p == t));
            None
        };
        let plan = plan.instantiate(&record);
        let (columns, vars): (Vec<String>, Vec<Var>) = query.projection.iter().cloned().unzip();
        Alias {
            template,
            plan,
            columns: columns.into(),
            vars: vars.into(),
            query: query.clone(),
            consts: consts.into_inner(),
            last_hit: AtomicU64::new(stamp),
        }
    }

    /// The plan with `params`, the parameters of a text the template
    /// accepted, in place of the alias's own.
    fn instantiate(&self, params: &[Term]) -> PhysicalPlan {
        let visited = Cell::new(0);
        self.plan.instantiate(&|_: &Term| {
            let at = visited.get();
            visited.set(at + 1);
            // The walk is the one `Alias::new` recorded over the same plan,
            // so it visits exactly `consts.len()` constants.
            self.consts[at].map(|k| params[k].clone())
        })
    }

    /// The output column names.
    pub(crate) fn columns(&self) -> &Arc<[String]> {
        &self.columns
    }

    /// The projected variables, in column order.
    pub(crate) fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// The query the alias was planned for: the variable names any
    /// instance's plan is explained with.
    pub(crate) fn query(&self) -> &JoinQuery {
        &self.query
    }
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
    /// The entry's wire body slots, shared with the responses its hits
    /// return; made by its first hit, so a miss allocates none.
    bodies: Option<Arc<Bodies>>,
    reads: Reads,
    /// The entry's bytes, its filled bodies included.
    bytes: usize,
}

/// A response body as it goes on the wire, in one buffer.
pub(crate) type Body = Arc<str>;

/// One result entry's bodies, a slot per [`Format`]. A slot is filled at
/// most once, under the tier's mutex and only while the entry is live, and
/// read without a lock; the body is a function of the entry's rows and the
/// format alone, because ids never move.
#[derive(Default)]
struct Bodies([OnceLock<Body>; 4]);

impl Bodies {
    fn slot(&self, format: Format) -> &OnceLock<Body> {
        &self.0[match format {
            Format::Json => 0,
            Format::Csv => 1,
            Format::Tsv => 2,
            Format::Table => 3,
        }]
    }
}

/// A hit's handle on its entry's bodies: the slots, and the key that finds
/// the entry again when a body is stored in them.
#[derive(Clone)]
pub(crate) struct BodySlots {
    key: Arc<str>,
    bodies: Arc<Bodies>,
}

impl BodySlots {
    /// The stored body in `format`, if a hit has stored one.
    pub(crate) fn get(&self, format: Format) -> Option<&Body> {
        self.bodies.slot(format).get()
    }
}

impl std::fmt::Debug for BodySlots {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BodySlots")
            .field("key", &self.key)
            .finish_non_exhaustive()
    }
}

/// Strong + weak counts in front of an `Arc`'s value.
const ARC_HEADER: usize = 2 * std::mem::size_of::<usize>();

/// What a result entry costs before its key and rows: the entry, the two
/// list links of its node and its body slots, charged whether or not a
/// hit has made them.
const RESULT_ENTRY_BYTES: usize = std::mem::size_of::<ResultEntry>()
    + 2 * std::mem::size_of::<u32>()
    + ARC_HEADER
    + std::mem::size_of::<Bodies>();

/// What a stored body costs: its bytes and the `Arc` header.
fn body_bytes(body: &str) -> usize {
    ARC_HEADER + body.len()
}

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

    /// [`Lru::get`], with the key as the list stores it and the value
    /// mutable.
    fn get_keyed(&mut self, key: &str) -> Option<(&Arc<str>, &mut V)> {
        let idx = *self.map.get(key)?;
        self.touch(idx);
        let node = self.node_mut(idx);
        Some((&node.key, &mut node.value))
    }

    /// Look `key` up without marking it used.
    fn peek_mut(&mut self, key: &str) -> Option<&mut V> {
        let idx = *self.map.get(key)?;
        Some(&mut self.node_mut(idx).value)
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
        (displaced, self.evict())
    }

    /// Pop the tail until both bounds hold; returns the victims, least
    /// recently used first.
    fn evict(&mut self) -> Removed {
        let mut evicted = Vec::new();
        while self.lru.len() > self.max_entries || self.bytes > self.max_bytes {
            let Some(victim) = self.lru.pop_lru() else {
                break;
            };
            self.bytes -= victim.1.bytes;
            evicted.push(victim);
        }
        evicted
    }

    /// Store `body` in the `format` slot of the entry `slots` came from,
    /// charge it `bytes` and evict from the tail as an insert does. Stores
    /// nothing when that entry is no longer the key's (evicted, invalidated
    /// or displaced since the hit), when the slot is already filled, or
    /// when the entry would outgrow the byte bound on its own. A fill is
    /// not a use: the entry keeps its place in the recency list.
    fn fill(&mut self, slots: &BodySlots, format: Format, body: &Body, bytes: usize) -> Removed {
        let Some(entry) = self.lru.peek_mut(&slots.key) else {
            return Vec::new();
        };
        let live = entry.bodies.as_ref();
        if !live.is_some_and(|bodies| Arc::ptr_eq(bodies, &slots.bodies))
            || entry.bytes + bytes > self.max_bytes
            || slots.bodies.slot(format).set(Arc::clone(body)).is_err()
        {
            return Vec::new();
        }
        entry.bytes += bytes;
        self.bytes += bytes;
        self.evict()
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
    plans: Mutex<Lru<Arc<[Arc<Alias>]>>>,
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

    /// Plan-tier lookup: the cached plan with the constants of `tokens` put
    /// in, and the [`Alias`] it came from, when an alias under their
    /// `skeleton` accepts them.
    /// Counts a hit then and nothing otherwise: the caller plans fresh and
    /// records the miss with [`QueryCache::alias_insert`].
    pub(crate) fn alias_get(
        &self,
        tokens: &[Token],
        skeleton: &str,
    ) -> Option<(PhysicalPlan, Arc<Alias>)> {
        let mut plans = self.plans.lock().unwrap_or_else(|e| e.into_inner());
        let aliases = Arc::clone(plans.get(skeleton)?);
        drop(plans);
        let (alias, params) = aliases
            .iter()
            .find_map(|alias| Some((alias, alias.template.params(tokens)?)))?;
        let stamp = self.plan_hits.fetch_add(1, Ordering::Relaxed) + 1;
        alias.last_hit.store(stamp, Ordering::Relaxed);
        Some((alias.instantiate(&params), Arc::clone(alias)))
    }

    /// Count a miss and record, under `skeleton`, the alias of a request
    /// just planned fresh: its `template`, its own `params`, and the `plan`
    /// and `planned_query` it got — replacing an alias with the same
    /// template, and dropping the least recently hit alias of a full
    /// skeleton.
    pub(crate) fn alias_insert(
        &self,
        skeleton: &str,
        template: Template,
        params: &[Term],
        plan: &PhysicalPlan,
        planned_query: &JoinQuery,
    ) {
        self.plan_misses.fetch_add(1, Ordering::Relaxed);
        let stamp = self.plan_hits.load(Ordering::Relaxed);
        let alias = Arc::new(Alias::new(template, params, plan, planned_query, stamp));
        let mut plans = self.plans.lock().unwrap_or_else(|e| e.into_inner());
        let mut aliases: Vec<Arc<Alias>> = plans
            .get(skeleton)
            .into_iter()
            .flat_map(|aliases| aliases.iter())
            .filter(|old| old.template != alias.template)
            .cloned()
            .collect();
        if aliases.len() >= MAX_ALIASES_PER_SKELETON {
            // Of equal stamps the first is the older: the list is in insert
            // order, and a later alias was inserted after the earlier one's
            // insert or hit left that stamp.
            let lru = (0..aliases.len())
                .min_by_key(|&i| aliases[i].last_hit.load(Ordering::Relaxed))
                // invariant: the skeleton is full, so not empty.
                .expect("a full skeleton");
            aliases.remove(lru);
        }
        aliases.push(alias);
        plans.insert(Arc::from(skeleton), aliases.into());
        if plans.len() > MAX_PLAN_ENTRIES {
            plans.pop_lru();
        }
    }

    /// Result-tier lookup: the entry's result and a handle on its body
    /// slots. Call while holding the store's read lock, and resolve the hit
    /// against the snapshot read under that same guard.
    pub(crate) fn result_get(&self, key: &str) -> Option<(CachedResult, BodySlots)> {
        let mut store = self.results.lock().unwrap_or_else(|e| e.into_inner());
        let found = store.lru.get_keyed(key).map(|(key, entry)| {
            let bodies = entry.bodies.get_or_insert_with(Arc::default);
            let slots = BodySlots {
                key: Arc::clone(key),
                bodies: Arc::clone(bodies),
            };
            (entry.result.clone(), slots)
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
        key: Arc<str>,
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
        let entry = ResultEntry {
            result,
            bodies: None,
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

    /// Store `body`, the wire body of a hit's entry in `format`, in the
    /// entry's slot — unless the entry left the tier since the hit or the
    /// slot is taken (see `ResultStore::fill`). No store lock is needed:
    /// the body depends on the entry alone, and a fill can only land in
    /// the live entry it was rendered from.
    pub(crate) fn body_insert(&self, slots: &BodySlots, format: Format, body: &Body) {
        let bytes = body_bytes(body);
        let mut store = self.results.lock().unwrap_or_else(|e| e.into_inner());
        let evicted = store.fill(slots, format, body, bytes);
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

    use hsp_baseline::Planner;
    use hsp_engine::pool::COMPUTED_BASE;
    use hsp_engine::BindingTable;
    use hsp_rdf::TermId;
    use hsp_sparql::lexer::tokenize;
    use hsp_sparql::Var;
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
            let (hit, _) = cache.result_get(key).expect("recent entries survive");
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
            cache.result_insert(key(tag).into(), small.clone(), Reads::All, cache.version());
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

    /// A body of `len` bytes, and what storing it costs.
    fn body(len: usize) -> (Body, usize) {
        let body: Body = "b".repeat(len).into();
        let bytes = body_bytes(&body);
        (body, bytes)
    }

    #[test]
    fn stored_bodies_count_toward_the_byte_budget_and_evict_in_lru_order() {
        let small = result(vec![TermId(1)], vec![]);
        let each = approx_result_bytes("a", &small);
        let cache = QueryCache::default();
        for key in ["a", "b", "c"] {
            cache.result_insert(key.into(), small.clone(), Reads::All, cache.version());
        }
        // A hit on "a" makes "b" the oldest; its body is charged to "a".
        let (_, slots) = cache.result_get("a").unwrap();
        let (json, json_bytes) = body(1000);
        cache.body_insert(&slots, Format::Json, &json);
        let stats = cache.stats();
        assert_eq!(stats.result_bytes, 3 * each + json_bytes);
        assert!(Arc::ptr_eq(slots.get(Format::Json).unwrap(), &json));
        assert!(slots.get(Format::Csv).is_none());
        // A slot is filled once: a second fill is dropped and costs nothing.
        cache.body_insert(&slots, Format::Json, &body(10).0);
        assert_eq!(cache.stats().result_bytes, 3 * each + json_bytes);
        assert!(Arc::ptr_eq(slots.get(Format::Json).unwrap(), &json));
        // A body that takes the tier past its bound evicts from the tail —
        // "b", then "c" — exactly as an insert would, and the filled entry
        // keeps its place.
        let (_, slots) = cache.result_get("c").unwrap();
        let (csv, csv_bytes) = body(MAX_RESULT_BYTES - 2 * each - json_bytes - 64);
        let (_, a) = cache.result_get("a").unwrap();
        cache.body_insert(&slots, Format::Csv, &csv);
        let stats = cache.stats();
        assert_eq!((stats.result_entries, stats.result_evictions), (2, 1));
        assert_eq!(stats.result_bytes, 2 * each + json_bytes + csv_bytes);
        assert!(cache.result_get("b").is_none(), "LRU entry was evicted");
        // "c" is now the oldest: a body on "a" that overflows evicts it, and
        // its stored body goes with it.
        let (tsv, tsv_bytes) = body(128);
        cache.body_insert(&a, Format::Tsv, &tsv);
        let stats = cache.stats();
        assert_eq!((stats.result_entries, stats.result_evictions), (1, 2));
        assert_eq!(stats.result_bytes, each + json_bytes + tsv_bytes);
        assert!(cache.result_get("c").is_none());
        // A body that would not fit the bound with its own entry is dropped.
        let (_, a) = cache.result_get("a").unwrap();
        cache.body_insert(&a, Format::Table, &body(MAX_RESULT_BYTES).0);
        assert!(a.get(Format::Table).is_none());
        assert_eq!(cache.stats().result_bytes, each + json_bytes + tsv_bytes);
        assert_eq!(cache.stats().result_evictions, 2);
    }

    #[test]
    fn fills_after_eviction_or_invalidation_are_dropped() {
        let touched = |p: &str| Touched {
            all: false,
            predicates: HashSet::from([Term::iri(p)]),
        };
        let reads = |p: &str| Reads::Predicates(vec![Term::iri(p)]);
        let cache = QueryCache::default();
        let old = result(vec![TermId(1)], vec![]);
        cache.result_insert("k".into(), old, reads("http://e/p"), cache.version());
        let (_, stale) = cache.result_get("k").unwrap();
        // An update drops the entry; a miss stores new rows under the key.
        cache.invalidate(&touched("http://e/p"));
        let new = result(vec![TermId(2)], vec![]);
        cache.result_insert("k".into(), new, reads("http://e/p"), cache.version());
        let (_, live) = cache.result_get("k").unwrap();
        let before = cache.stats();
        // The body rendered from the dropped entry's rows finds another
        // entry, hit and with slots of its own, under its key: it must not
        // land there.
        cache.body_insert(&stale, Format::Json, &body(100).0);
        assert_eq!(cache.stats(), before);
        assert!(live.get(Format::Json).is_none(), "a stale body was stored");
        assert!(stale.get(Format::Json).is_none());

        // Evicted: the key's entry is gone altogether.
        let cache = QueryCache::default();
        let small = result(vec![TermId(1)], vec![]);
        cache.result_insert("k0".into(), small.clone(), Reads::All, cache.version());
        let (_, evicted) = cache.result_get("k0").unwrap();
        for i in 1..=MAX_RESULT_ENTRIES {
            cache.result_insert(
                format!("k{i}").into(),
                small.clone(),
                Reads::All,
                cache.version(),
            );
        }
        let before = cache.stats();
        assert_eq!(before.result_evictions, 1);
        cache.body_insert(&evicted, Format::Csv, &body(100).0);
        assert_eq!(cache.stats(), before);
        assert!(evicted.get(Format::Csv).is_none());
    }

    #[test]
    fn entry_bound_evicts_exactly_the_least_recently_used() {
        let small = result(vec![TermId(1)], vec![]);
        let cache = QueryCache::default();
        let insert = |i: usize| {
            cache.result_insert(
                format!("k{i}").into(),
                small.clone(),
                Reads::All,
                cache.version(),
            );
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

    /// The plan and query HSP gives `text` when planned fresh.
    fn fresh_plan(text: &str) -> (PhysicalPlan, JoinQuery) {
        let query = JoinQuery::parse(text).expect("a join query");
        let ds = hsp_store::Dataset::from_ntriples("").expect("an empty store");
        let planned = hsp_baseline::plan(Planner::Hsp, &ds, &query).expect("plans");
        (planned.plan, planned.query)
    }

    /// An alias hit's plan and the projection of the query it shares.
    fn alias_get(cache: &QueryCache, text: &str) -> Option<(PhysicalPlan, Vec<(String, Var)>)> {
        let tokens = tokenize(text).expect("lexes");
        let (plan, alias) = cache.alias_get(&tokens, &hsp_sparql::skeleton(&tokens))?;
        Some((plan, alias.query().projection.clone()))
    }

    /// What the session does with `text`: an alias hit, or a fresh plan
    /// that leaves its alias behind.
    fn serve(cache: &QueryCache, text: &str) -> (PhysicalPlan, Vec<(String, Var)>) {
        if let Some(pair) = alias_get(cache, text) {
            return pair;
        }
        let tokens = tokenize(text).expect("lexes");
        let (ast, hoisted) = hsp_sparql::parse_tokens(&tokens).expect("parses");
        let query = JoinQuery::from_ast(&ast).expect("a join query");
        let (template, params) =
            Template::new(&tokens, &hoisted, &ast, &query).expect("a template");
        let (plan, planned) = fresh_plan(text);
        let skeleton = hsp_sparql::skeleton(&tokens);
        cache.alias_insert(&skeleton, template, &params, &plan, &planned);
        (plan, planned.projection)
    }

    /// A request text whose constants fill two object slots, a subject,
    /// a FILTER constant and a LIMIT.
    fn instance_text(s: &str, a: &str, b: &str, n: usize, limit: usize) -> String {
        format!(
            "SELECT ?s ?o WHERE {{ ?s <http://e/p> {a} . ?s <http://e/q> ?o . \
             {s} <http://e/r> ?s . ?s <http://e/t> {b} . FILTER (?o > {n}) }} LIMIT {limit}"
        )
    }

    /// A one-pattern request: each `i` spells its variable apart, so each
    /// has a skeleton of its own.
    fn star(i: usize, o: &str) -> String {
        format!("SELECT ?s{i} WHERE {{ ?s{i} <http://e/p> {o} . }}")
    }

    /// An alias hit is what the canonical path — planning the text fresh
    /// with HSP — would give, for as long as the alias's skeleton entry
    /// stays in the tier.
    #[test]
    fn token_aliases_serve_what_the_canonical_path_would_while_its_entry_lives() {
        let text = instance_text;
        let (x, y) = ("<http://e/x>", "<http://e/y>");
        let cache = QueryCache::default();
        let counts = || (cache.stats().plan_hits, cache.stats().plan_misses);
        // Two templates under one skeleton: distinct objects, and one
        // object shared by two slots.
        serve(&cache, &text(x, "<http://e/a>", "<http://e/c>", 3, 5));
        serve(&cache, &text(x, "<http://e/a>", "<http://e/a>", 3, 5));
        assert_eq!(counts(), (0, 2));

        // Instances, every parameter moved: another subject, a FILTER
        // constant equal to the LIMIT count, other objects (shared where
        // the template shares them). Each hit is the plan HSP gives the
        // text fresh, so a constant put in the wrong slot fails, and shares
        // a query with the fresh one's projection.
        let instances = [
            text(y, "<http://e/b>", "<http://e/d>", 5, 5),
            text(y, "<http://e/d>", "<http://e/b>", 4, 5),
            text(y, "<http://e/b>", "<http://e/b>", 5, 5),
        ];
        for (hits, instance) in (1..).zip(&instances) {
            let hit = alias_get(&cache, instance).expect("an alias hit");
            let (plan, query) = fresh_plan(instance);
            assert_eq!(hit, (plan, query.projection), "{instance}");
            assert_eq!(counts(), (hits, 2));
        }

        // Not instances, and counted as nothing: another LIMIT, another
        // kind of object, another predicate.
        for other in [
            text(y, "<http://e/b>", "<http://e/d>", 5, 7),
            text(y, "\"b\"", "<http://e/d>", 5, 5),
            text(y, "<http://e/b>", "<http://e/d>", 5, 5).replace("http://e/q", "http://e/z"),
        ] {
            assert!(alias_get(&cache, &other).is_none(), "{other}");
        }
        assert_eq!(counts(), (3, 2));

        // The aliases die with their skeleton's entry: 512 new skeletons
        // evict it, and the instances miss again, counted as nothing.
        for i in 0..MAX_PLAN_ENTRIES {
            serve(&cache, &star(i, "<http://e/o>"));
        }
        for instance in &instances {
            assert!(alias_get(&cache, instance).is_none(), "{instance}");
        }
        assert_eq!(counts(), (3, 2 + MAX_PLAN_ENTRIES as u64));
        let plans = cache.plans.lock().unwrap();
        assert_eq!(plans.len(), MAX_PLAN_ENTRIES);
        plans.check();
    }

    /// A full skeleton drops its least recently hit alias, not its oldest:
    /// nine templates (one predicate each) under one skeleton, the first
    /// hit between inserts, and the first is still served after the
    /// ninth insert.
    #[test]
    fn a_full_skeleton_drops_its_least_recently_hit_alias() {
        let cache = QueryCache::default();
        let text = |p: usize, o: &str| format!("SELECT ?s WHERE {{ ?s <http://e/p{p}> {o} . }}");
        serve(&cache, &text(0, "<http://e/a>"));
        for p in 1..=MAX_ALIASES_PER_SKELETON {
            assert!(alias_get(&cache, &text(0, "<http://e/b>")).is_some());
            serve(&cache, &text(p, "<http://e/a>"));
        }
        let stats = cache.stats();
        let templates = MAX_ALIASES_PER_SKELETON as u64 + 1;
        assert_eq!(
            (stats.plan_hits, stats.plan_misses),
            (templates - 1, templates)
        );
        assert!(alias_get(&cache, &text(0, "<http://e/c>")).is_some());
        assert!(
            alias_get(&cache, &text(1, "<http://e/c>")).is_none(),
            "the least recently hit alias was dropped"
        );
        for p in 2..=MAX_ALIASES_PER_SKELETON {
            assert!(
                alias_get(&cache, &text(p, "<http://e/c>")).is_some(),
                "p{p}"
            );
        }
    }

    #[test]
    fn plan_tier_evicts_exactly_the_least_recently_used_shape() {
        let cache = QueryCache::default();
        let instance = |b: &str| instance_text("<http://e/y>", "<http://e/a>", b, 3, 5);
        serve(&cache, &instance("<http://e/c>"));
        serve(&cache, &instance("<http://e/a>"));
        // Fill the tier with one skeleton per variable spelling; the first
        // one's is then the oldest once a hit renews the two templates'.
        for i in 0..MAX_PLAN_ENTRIES - 1 {
            serve(&cache, &star(i, "<http://e/o>"));
        }
        assert!(alias_get(&cache, &instance("<http://e/d>")).is_some());
        serve(&cache, &star(MAX_PLAN_ENTRIES - 1, "<http://e/o>"));
        let cached = |i: usize| alias_get(&cache, &star(i, "<http://e/o2>")).is_some();
        assert!(!cached(0), "the least recently used skeleton was evicted");
        assert!(alias_get(&cache, &instance("<http://e/b>")).is_some());
        for i in 1..MAX_PLAN_ENTRIES {
            assert!(cached(i), "skeleton {i} survives");
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
        filled: bool,
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
                filled: false,
            };
            let displaced = self.map.insert(key.to_string(), entry).map(|old| old.bytes);
            self.bytes = self.bytes + bytes - displaced.unwrap_or(0);
            (displaced, self.evict())
        }

        /// A body of `bytes` for `key`'s entry: charged once, if it fits
        /// the bound with its entry, without a use; the victims, oldest
        /// first.
        fn fill(&mut self, key: &str, bytes: usize) -> Vec<String> {
            let max_bytes = self.max_bytes;
            match self.map.get_mut(key) {
                Some(e) if !e.filled && e.bytes + bytes <= max_bytes => {
                    e.filled = true;
                    e.bytes += bytes;
                    self.bytes += bytes;
                    self.evict()
                }
                _ => Vec::new(),
            }
        }

        fn evict(&mut self) -> Vec<String> {
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
            victims
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
        Fill(u8, usize),
        Invalidate(u8),
    }

    /// Twelve keys over tiers of one to eight entries, so inserts meet
    /// both new and live keys; no entry outweighs the smallest budget.
    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        let op = prop_oneof![
            3 => (0u8..12).prop_map(Op::Get),
            5 => (0u8..12, 1usize..=8, 0u8..3).prop_map(|(k, b, p)| Op::Insert(k, b, p)),
            2 => (0u8..12, 1usize..=16).prop_map(|(k, b)| Op::Fill(k, b)),
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
        /// every step of a random get / insert / body fill / invalidate
        /// sequence.
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
                            bodies: None,
                            reads: Reads::Predicates(vec![predicate(p)]),
                            bytes,
                        };
                        let (displaced, evicted) = store.insert(Arc::from(key.as_str()), entry);
                        let (model_displaced, victims) = oracle.insert(&key, bytes, p);
                        prop_assert_eq!(displaced.map(|e| e.bytes), model_displaced, "{:?}", op);
                        prop_assert_eq!(keys(&evicted), victims, "{:?}", op);
                    }
                    Op::Fill(k, bytes) => {
                        // A body of `bytes` (charged as given) on whatever
                        // entry the key holds, as a hit on it would store.
                        let key: Arc<str> = Arc::from(format!("k{k}"));
                        let slots = store.lru.peek_mut(&key).map(|e| BodySlots {
                            key: Arc::clone(&key),
                            bodies: Arc::clone(e.bodies.get_or_insert_with(Arc::default)),
                        });
                        let evicted = match slots {
                            Some(slots) => store.fill(&slots, Format::Json, &body(0).0, bytes),
                            None => Vec::new(),
                        };
                        prop_assert_eq!(keys(&evicted), oracle.fill(&key, bytes), "{:?}", op);
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
