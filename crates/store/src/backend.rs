//! The storage backend trait: what a read snapshot must provide.

use hsp_rdf::{IdTriple, TermId, TriplePos};

use crate::order::Order;
use crate::scan::OrderScan;

/// Read interface every storage backend exposes to the engine, planners
/// and baselines.
///
/// The contract is deliberately small — sorted prefix scans plus exact
/// count/distinct statistics over the six collation orders — so that the
/// ROADMAP's paged disk backend can slot in behind the same surface. The
/// required methods are exactly what an RDF-3X-style aggregated index
/// answers; the provided statistics helpers (`count_bound`,
/// `distinct_bound`, `distinct_at`) derive the access path from bound
/// positions and never need overriding.
///
/// Every method reads one immutable snapshot: implementations must return
/// internally consistent answers for the lifetime of the borrow (the
/// in-memory [`TripleStore`](crate::TripleStore) guarantees this because
/// mutation is copy-on-write and published by `Arc` swap).
pub trait StorageBackend {
    /// Sorted rows whose first `prefix.len()` key components under `order`
    /// equal `prefix`. Rows come back in key coordinates, sorted by the
    /// remaining components — the sortedness merge joins rely on.
    fn scan(&self, order: Order, prefix: &[TermId]) -> OrderScan<'_>;

    /// Exact number of rows matching `prefix` under `order`.
    fn count(&self, order: Order, prefix: &[TermId]) -> usize;

    /// Exact number of distinct values of key component `prefix.len()`
    /// among rows matching `prefix` under `order`.
    fn distinct_after(&self, order: Order, prefix: &[TermId]) -> usize;

    /// `true` if the `[s, p, o]` triple is present.
    fn contains(&self, triple: IdTriple) -> bool;

    /// Number of distinct triples stored.
    fn len(&self) -> usize;

    /// `true` if the backend holds no triples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Monotonic content version, bumped once per applied mutation batch.
    fn version(&self) -> u64;

    /// Delta-overlay rows (inserts + tombstones, over every overlay
    /// level) awaiting compaction. Zero for backends without a write
    /// overlay.
    fn delta_rows(&self) -> usize;

    /// Number of base-run rebuilds (compactions) performed.
    fn compactions(&self) -> u64;

    /// Exact number of triples matching the given bound positions.
    ///
    /// Picks the order whose key starts with the bound positions — an
    /// RDF-3X aggregated-index lookup.
    fn count_bound(&self, bound: &[(TriplePos, TermId)]) -> usize {
        let (order, prefix) = access_path(bound);
        self.count(order, &prefix)
    }

    /// Exact number of distinct values at `target` among triples matching
    /// the given bound positions.
    ///
    /// # Panics
    /// Panics if `target` is itself bound.
    fn distinct_bound(&self, bound: &[(TriplePos, TermId)], target: TriplePos) -> usize {
        assert!(
            bound.iter().all(|&(p, _)| p != target),
            "distinct target {target} is bound"
        );
        let mut positions: Vec<TriplePos> = bound.iter().map(|&(p, _)| p).collect();
        positions.push(target);
        let order = Order::with_prefix(&positions);
        let prefix: Vec<TermId> = bound.iter().map(|&(_, v)| v).collect();
        self.distinct_after(order, &prefix)
    }

    /// Distinct subjects / predicates / objects in the whole store.
    fn distinct_at(&self, pos: TriplePos) -> usize {
        self.distinct_bound(&[], pos)
    }
}

/// Choose an order whose key starts with the bound positions, and return it
/// with the bound values arranged as its key prefix.
pub(crate) fn access_path(bound: &[(TriplePos, TermId)]) -> (Order, Vec<TermId>) {
    let positions: Vec<TriplePos> = bound.iter().map(|&(p, _)| p).collect();
    let order = Order::with_prefix(&positions);
    let prefix: Vec<TermId> = bound.iter().map(|&(_, v)| v).collect();
    (order, prefix)
}
