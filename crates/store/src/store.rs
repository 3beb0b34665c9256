//! The triple store: all six sorted relations plus exact statistics.

use std::sync::OnceLock;

use hsp_rdf::{IdTriple, TermId, TriplePos};

use crate::backend::{access_path, StorageBackend};
use crate::order::Order;
use crate::scan::OrderScan;
use crate::SortedRelation;

/// A set of RDF triples materialised under all six collation orders.
///
/// Construction sorts six copies; queries then only ever binary-search.
/// Memory cost is `6 × 12` bytes per distinct triple plus the dictionary —
/// the same trade the paper makes ("this is a common tactic in
/// state-of-the-art RDF storing solutions").
///
/// Each relation is copy-on-write (immutable `Arc`-shared base run plus a
/// two-level sorted delta overlay), so cloning the store costs two `Arc`
/// bumps and a top level of fewer than 256 entries per order, and a write
/// costs its batch: it is classified once, on the SPO order, and merged
/// into each order's top level. [`TripleStore::compact`] folds the
/// overlays back into fresh base runs; callers keep it off the write path.
#[derive(Debug, Clone)]
pub struct TripleStore {
    relations: [SortedRelation; 6],
    /// Monotonic content version, bumped once per applied mutation batch.
    version: u64,
    /// Number of compactions (base-run rebuilds) performed.
    compactions: u64,
    /// Per-store compaction threshold override; `None` uses the
    /// `HSP_COMPACT_THRESHOLD` env var, then the built-in default.
    compaction_threshold: Option<usize>,
}

/// Below this many triples, building/merging the six orders on one core is
/// faster than paying six thread spawns.
const PARALLEL_THRESHOLD: usize = 8 * 1024;

/// Smallest default overlay size (middle + top, per order) at which
/// `compact_if_needed` rebuilds the base runs; past 32k base rows the
/// default is an eighth of the base run instead.
const MIN_COMPACT_THRESHOLD: usize = 4 * 1024;

/// The compaction threshold of a store whose base runs hold `base_len`
/// rows when nothing overrides it: `max(4096, base_len / 8)`, so a rebuild
/// (`O(n)`) is paid at most once per `n / 8` rows written.
fn default_compact_threshold(base_len: usize) -> usize {
    MIN_COMPACT_THRESHOLD.max(base_len / 8)
}

/// `HSP_COMPACT_THRESHOLD` env override for the compaction threshold,
/// read once per process (CI forces `1` to exercise merge-on-read scans
/// everywhere).
fn env_compact_threshold() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("HSP_COMPACT_THRESHOLD")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
    })
}

/// `true` when fanning the six per-order jobs out to threads can win:
/// the batch is large enough and the machine has more than one core.
fn parallelize(batch: usize) -> bool {
    batch >= PARALLEL_THRESHOLD && std::thread::available_parallelism().map_or(1, |n| n.get()) > 1
}

impl TripleStore {
    /// Build a store from `[s, p, o]` triples (duplicates are removed).
    ///
    /// The six collation orders are independent sorts of the same input, so
    /// beyond a small-input threshold each order is built on its own thread
    /// (`std::thread::scope`; the build is embarrassingly parallel).
    pub fn from_triples(triples: &[IdTriple]) -> Self {
        if parallelize(triples.len()) {
            Self::from_triples_parallel(triples)
        } else {
            // `Order::ALL` is the relations array's indexing order.
            let relations = Order::ALL.map(|order| SortedRelation::build(order, triples));
            Self::from_relations(relations)
        }
    }

    /// The six-threads-six-orders build (tested directly so single-core
    /// environments still exercise it).
    fn from_triples_parallel(triples: &[IdTriple]) -> Self {
        let mut slots: [Option<SortedRelation>; 6] = Default::default();
        std::thread::scope(|scope| {
            for (slot, order) in slots.iter_mut().zip(Order::ALL) {
                scope.spawn(move || *slot = Some(SortedRelation::build(order, triples)));
            }
        });
        Self::from_relations(slots.map(|r| r.expect("all six orders built")))
    }

    fn from_relations(relations: [SortedRelation; 6]) -> Self {
        TripleStore {
            relations,
            version: 0,
            compactions: 0,
            compaction_threshold: None,
        }
    }

    /// Insert one triple into all six orders. Returns `false` if already
    /// present.
    pub fn insert(&mut self, triple: IdTriple) -> bool {
        self.insert_batch(&[triple]) == 1
    }

    /// Remove one triple from all six orders. Returns `false` if absent.
    pub fn remove(&mut self, triple: IdTriple) -> bool {
        self.remove_batch(&[triple]) == 1
    }

    /// Merge a batch of triples into all six delta overlays. Returns the
    /// number of genuinely new triples.
    pub fn insert_batch(&mut self, triples: &[IdTriple]) -> usize {
        let new = self.classify(triples, false);
        self.write(&new, false)
    }

    /// Remove a batch of triples from all six orders. Returns the number of
    /// triples actually removed.
    pub fn remove_batch(&mut self, triples: &[IdTriple]) -> usize {
        let present = self.classify(triples, true);
        self.write(&present, true)
    }

    /// The distinct triples of `triples` that are live (`present`) or
    /// absent (`!present`), sorted: the one membership test a batch pays,
    /// on the SPO order, before all six orders take it.
    fn classify(&self, triples: &[IdTriple], present: bool) -> Vec<IdTriple> {
        let mut keys = triples.to_vec();
        keys.sort_unstable();
        keys.dedup();
        keys.retain(|&t| self.contains(t) == present);
        keys
    }

    /// Write classified triples (see [`SortedRelation::write`]) into every
    /// order's top level, on one thread per order beyond the parallel
    /// threshold. The work counted is the batch plus the top level it
    /// merges into; a fold's copy of the middle level is paid once per
    /// `FOLD_ROWS` rows, so a growing overlay never spawns threads.
    fn write(&mut self, spo: &[IdTriple], tombstone: bool) -> usize {
        if spo.is_empty() {
            return 0;
        }
        let work = spo.len() + self.relations[0].top_len();
        self.for_each_relation(work, |rel| rel.write(spo, tombstone));
        self.version += 1;
        spo.len()
    }

    /// Apply `op` to every relation, in parallel when `work` crosses the
    /// threshold.
    fn for_each_relation(&mut self, work: usize, op: impl Fn(&mut SortedRelation) + Sync) {
        if parallelize(work) {
            self.for_each_relation_parallel(&op);
        } else {
            self.relations.iter_mut().for_each(op);
        }
    }

    /// One thread per relation (tested directly so single-core environments
    /// still exercise it).
    fn for_each_relation_parallel(&mut self, op: &(impl Fn(&mut SortedRelation) + Sync)) {
        std::thread::scope(|scope| {
            for rel in self.relations.iter_mut() {
                scope.spawn(move || op(rel));
            }
        });
    }

    /// The sorted relation for `order`. Crate-internal: consumers go
    /// through [`StorageBackend::scan`] and friends so the backend trait
    /// stays the only read surface.
    pub(crate) fn relation(&self, order: Order) -> &SortedRelation {
        // Index derived from the fixed construction order above.
        let idx = match order {
            Order::Spo => 0,
            Order::Sop => 1,
            Order::Pso => 2,
            Order::Pos => 3,
            Order::Osp => 4,
            Order::Ops => 5,
        };
        &self.relations[idx]
    }

    /// Number of distinct triples stored.
    pub fn len(&self) -> usize {
        self.relations[0].len()
    }

    /// `true` if the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` if the `[s, p, o]` triple is present.
    pub fn contains(&self, triple: IdTriple) -> bool {
        self.relation(Order::Spo).contains_key(triple)
    }

    /// Monotonic content version (bumped once per applied mutation batch).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of compactions (base-run rebuilds) performed on this lineage.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Delta-overlay rows (inserts + tombstones, middle + top level)
    /// awaiting compaction. All six orders carry the same logical delta,
    /// so one is reported.
    pub fn delta_rows(&self) -> usize {
        self.relations[0].delta_len()
    }

    /// `true` when all six orders still share their base runs with
    /// `other` (pointer equality): the copy-on-write proof that cloning
    /// and mutating this store never copied the bulk data.
    pub fn shares_base_runs_with(&self, other: &TripleStore) -> bool {
        self.relations
            .iter()
            .zip(&other.relations)
            .all(|(a, b)| a.shares_base_with(b))
    }

    /// Set a per-store compaction threshold (inherited by clones).
    /// `None` restores the `HSP_COMPACT_THRESHOLD` / built-in default,
    /// `max(4096, base rows / 8)`.
    pub fn set_compaction_threshold(&mut self, threshold: Option<usize>) {
        self.compaction_threshold = threshold;
    }

    /// The threshold `compact_if_needed` compares the delta size against.
    pub fn compaction_threshold(&self) -> usize {
        self.compaction_threshold
            .or_else(env_compact_threshold)
            .unwrap_or_else(|| default_compact_threshold(self.relations[0].base_len()))
    }

    /// `true` when the delta overlay has outgrown the threshold and the
    /// next [`TripleStore::compact`] call would rebuild the base runs.
    pub fn needs_compaction(&self) -> bool {
        self.delta_rows() >= self.compaction_threshold()
    }

    /// Fold all six delta overlays into fresh base runs (`O(n)` per order,
    /// parallel over orders beyond the threshold). Returns `false` if the
    /// deltas were already empty.
    ///
    /// This rewrites the base runs, so callers keep it **off the write
    /// path**: the session compacts after publishing a snapshot, never
    /// inside the read-visible critical section.
    pub fn compact(&mut self) -> bool {
        if self.delta_rows() == 0 {
            return false;
        }
        let work = self.len();
        self.for_each_relation(work, |rel| {
            rel.compact();
        });
        self.compactions += 1;
        true
    }

    /// Compact when the delta overlay exceeds the threshold.
    pub fn compact_if_needed(&mut self) -> bool {
        self.needs_compaction() && self.compact()
    }

    /// Exact number of triples matching the given bound positions.
    ///
    /// Equivalent to an RDF-3X aggregated-index lookup: we pick the order
    /// whose key starts with the bound positions and binary-search.
    pub fn count_bound(&self, bound: &[(TriplePos, TermId)]) -> usize {
        let (order, prefix) = access_path(bound);
        self.relation(order).count(&prefix)
    }

    /// Exact number of distinct values at `target` among triples matching
    /// the given bound positions.
    ///
    /// # Panics
    /// Panics if `target` is itself bound.
    pub fn distinct_bound(&self, bound: &[(TriplePos, TermId)], target: TriplePos) -> usize {
        assert!(
            bound.iter().all(|&(p, _)| p != target),
            "distinct target {target} is bound"
        );
        let mut positions: Vec<TriplePos> = bound.iter().map(|&(p, _)| p).collect();
        positions.push(target);
        let order = Order::with_prefix(&positions);
        let prefix: Vec<TermId> = bound.iter().map(|&(_, v)| v).collect();
        self.relation(order).distinct_after(&prefix)
    }

    /// Distinct subjects / predicates / objects in the whole store.
    pub fn distinct_at(&self, pos: TriplePos) -> usize {
        self.distinct_bound(&[], pos)
    }
}

impl StorageBackend for TripleStore {
    fn scan(&self, order: Order, prefix: &[TermId]) -> OrderScan<'_> {
        self.relation(order).range(prefix)
    }

    fn count(&self, order: Order, prefix: &[TermId]) -> usize {
        self.relation(order).count(prefix)
    }

    fn distinct_after(&self, order: Order, prefix: &[TermId]) -> usize {
        self.relation(order).distinct_after(prefix)
    }

    fn contains(&self, triple: IdTriple) -> bool {
        TripleStore::contains(self, triple)
    }

    fn len(&self) -> usize {
        TripleStore::len(self)
    }

    fn version(&self) -> u64 {
        self.version
    }

    fn delta_rows(&self) -> usize {
        TripleStore::delta_rows(self)
    }

    fn compactions(&self) -> u64 {
        self.compactions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::FOLD_ROWS;

    fn t(s: u32, p: u32, o: u32) -> IdTriple {
        [TermId(s), TermId(p), TermId(o)]
    }

    fn sample_store() -> TripleStore {
        TripleStore::from_triples(&[
            t(1, 10, 100),
            t(1, 10, 101),
            t(1, 11, 100),
            t(2, 10, 100),
            t(2, 12, 103),
            t(3, 10, 101),
            t(1, 10, 100), // duplicate
        ])
    }

    fn rows(s: &TripleStore, order: Order) -> Vec<IdTriple> {
        s.scan(order, &[]).as_slice().to_vec()
    }

    #[test]
    fn len_ignores_duplicates() {
        assert_eq!(sample_store().len(), 6);
    }

    #[test]
    fn all_relations_have_same_len() {
        let s = sample_store();
        for order in Order::ALL {
            assert_eq!(s.relation(order).len(), s.len(), "{order}");
        }
    }

    #[test]
    fn all_relations_hold_same_triples() {
        let s = sample_store();
        let mut base: Vec<IdTriple> = rows(&s, Order::Spo)
            .iter()
            .map(|&k| Order::Spo.from_key(k))
            .collect();
        base.sort_unstable();
        for order in Order::ALL {
            let mut got: Vec<IdTriple> =
                rows(&s, order).iter().map(|&k| order.from_key(k)).collect();
            got.sort_unstable();
            assert_eq!(got, base, "{order}");
        }
    }

    #[test]
    fn contains() {
        let s = sample_store();
        assert!(s.contains(t(2, 12, 103)));
        assert!(!s.contains(t(2, 12, 104)));
    }

    #[test]
    fn count_bound_single_position() {
        let s = sample_store();
        assert_eq!(s.count_bound(&[(TriplePos::S, TermId(1))]), 3);
        assert_eq!(s.count_bound(&[(TriplePos::P, TermId(10))]), 4);
        assert_eq!(s.count_bound(&[(TriplePos::O, TermId(100))]), 3);
        assert_eq!(s.count_bound(&[]), 6);
    }

    #[test]
    fn count_bound_two_positions_any_combination() {
        let s = sample_store();
        assert_eq!(
            s.count_bound(&[(TriplePos::S, TermId(1)), (TriplePos::P, TermId(10))]),
            2
        );
        assert_eq!(
            s.count_bound(&[(TriplePos::P, TermId(10)), (TriplePos::O, TermId(101))]),
            2
        );
        assert_eq!(
            s.count_bound(&[(TriplePos::S, TermId(2)), (TriplePos::O, TermId(103))]),
            1
        );
    }

    #[test]
    fn count_bound_full_triple() {
        let s = sample_store();
        assert_eq!(
            s.count_bound(&[
                (TriplePos::S, TermId(1)),
                (TriplePos::P, TermId(10)),
                (TriplePos::O, TermId(101)),
            ]),
            1
        );
    }

    #[test]
    fn distinct_bound() {
        let s = sample_store();
        // Distinct objects of predicate 10: 100, 101.
        assert_eq!(
            s.distinct_bound(&[(TriplePos::P, TermId(10))], TriplePos::O),
            2
        );
        // Distinct subjects of predicate 10: 1, 2, 3.
        assert_eq!(
            s.distinct_bound(&[(TriplePos::P, TermId(10))], TriplePos::S),
            3
        );
        // Distinct predicates overall: 10, 11, 12.
        assert_eq!(s.distinct_at(TriplePos::P), 3);
        assert_eq!(s.distinct_at(TriplePos::S), 3);
        assert_eq!(s.distinct_at(TriplePos::O), 3);
    }

    #[test]
    #[should_panic(expected = "is bound")]
    fn distinct_bound_rejects_bound_target() {
        sample_store().distinct_bound(&[(TriplePos::S, TermId(1))], TriplePos::S);
    }

    #[test]
    fn empty_store() {
        let s = TripleStore::from_triples(&[]);
        assert!(s.is_empty());
        assert_eq!(s.count_bound(&[]), 0);
    }

    /// Mutation is copy-on-write: a clone shares every base run with the
    /// original, writes land in the deltas, and the clone is untouched.
    #[test]
    fn clone_shares_base_runs_and_mutation_is_o_delta() {
        let original = sample_store();
        let mut working = original.clone();
        for order in Order::ALL {
            assert!(working
                .relation(order)
                .shares_base_with(original.relation(order)));
        }
        assert!(working.insert(t(9, 9, 9)));
        assert!(working.remove(t(1, 10, 100)));
        assert_eq!(working.delta_rows(), 2);
        assert_eq!(working.version(), 2);
        for order in Order::ALL {
            assert!(
                working
                    .relation(order)
                    .shares_base_with(original.relation(order)),
                "writes must not rewrite the shared base run ({order})"
            );
        }
        // Reader's snapshot is untorn.
        assert_eq!(original.len(), 6);
        assert_eq!(original.delta_rows(), 0);
        assert!(original.contains(t(1, 10, 100)));
        assert!(!original.contains(t(9, 9, 9)));
        // Writer sees its own changes.
        assert_eq!(working.len(), 6);
        assert!(!working.contains(t(1, 10, 100)));
        assert!(working.contains(t(9, 9, 9)));
    }

    /// Compaction folds deltas into fresh base runs without changing
    /// content, and the stats/scans agree before and after.
    #[test]
    fn compact_preserves_content() {
        let mut s = sample_store();
        s.insert_batch(&[t(9, 9, 9), t(8, 10, 100)]);
        s.remove_batch(&[t(1, 10, 100), t(7, 7, 7)]);
        let before: Vec<_> = Order::ALL.iter().map(|&o| rows(&s, o)).collect();
        let len = s.len();
        let version = s.version();
        assert!(s.compact());
        assert_eq!(s.compactions(), 1);
        assert_eq!(s.delta_rows(), 0);
        assert_eq!(s.len(), len);
        assert_eq!(s.version(), version, "compaction is content-neutral");
        for (i, &order) in Order::ALL.iter().enumerate() {
            assert_eq!(rows(&s, order), before[i], "{order}");
            assert!(s.scan(order, &[]).is_contiguous());
        }
        assert!(!s.compact(), "empty delta: no-op");
        assert_eq!(s.compactions(), 1);
    }

    /// `compact_if_needed` honours the per-store threshold override.
    #[test]
    fn threshold_controls_compaction() {
        let mut s = sample_store();
        s.set_compaction_threshold(Some(3));
        s.insert_batch(&[t(20, 1, 1), t(21, 1, 1)]);
        assert!(!s.needs_compaction());
        assert!(!s.compact_if_needed());
        s.insert(t(22, 1, 1));
        assert!(s.needs_compaction());
        assert!(s.compact_if_needed());
        assert_eq!(s.delta_rows(), 0);
        assert_eq!(s.len(), 9);
        // Clones inherit the override.
        let clone = s.clone();
        assert_eq!(clone.compaction_threshold(), 3);
    }

    /// The parallel build produces the same store as the serial build,
    /// exercised directly so it runs even where `parallelize()` is false
    /// (single-core machines / small inputs).
    #[test]
    fn parallel_build_equals_serial_build() {
        let triples: Vec<IdTriple> = (0..500u32)
            .map(|i| t(i % 37, 100 + i % 11, 200 + i % 53))
            .collect();
        let serial = TripleStore::from_triples(&triples);
        let parallel = TripleStore::from_triples_parallel(&triples);
        assert_eq!(serial.len(), parallel.len());
        for order in Order::ALL {
            assert_eq!(rows(&serial, order), rows(&parallel, order), "{order}");
        }
    }

    /// The parallel write path agrees with the serial one on inserts and
    /// removals.
    #[test]
    fn parallel_batches_equal_serial_batches() {
        let base: Vec<IdTriple> = (0..300u32).map(|i| t(i % 23, 100, 200 + i % 29)).collect();
        let batch: Vec<IdTriple> = (0..150u32).map(|i| t(i % 31, 101, 200 + i % 17)).collect();

        let mut serial = TripleStore::from_triples(&base);
        let added = serial.insert_batch(&batch);

        let mut parallel = TripleStore::from_triples(&base);
        let new = parallel.classify(&batch, false);
        assert_eq!(new.len(), added);
        parallel.for_each_relation_parallel(&|rel| rel.write(&new, false));
        assert_eq!(serial.len(), parallel.len());

        let removed = serial.remove_batch(&batch);
        let present = parallel.classify(&batch, true);
        assert_eq!(present.len(), removed);
        parallel.for_each_relation_parallel(&|rel| rel.write(&present, true));
        for order in Order::ALL {
            assert_eq!(rows(&serial, order), rows(&parallel, order), "{order}");
            assert_eq!(serial.relation(order).len(), parallel.relation(order).len());
        }
    }

    /// A write merges into the top level only and folds it into the middle
    /// level once it reaches `FOLD_ROWS`: after any write, of any size,
    /// every order's top level holds fewer than `FOLD_ROWS` entries.
    #[test]
    fn every_write_leaves_each_top_level_below_the_fold_size() {
        let mut s = sample_store();
        s.set_compaction_threshold(Some(usize::MAX));
        let mut next = 0u32;
        for size in [1usize, 7, 255, 256, 600, 1, 3] {
            let batch: Vec<IdTriple> = (0..size as u32).map(|i| t(50 + next + i, 1, 1)).collect();
            next += size as u32;
            assert_eq!(s.insert_batch(&batch), size);
            // Remove half of it again, and a base row once.
            s.remove_batch(&batch[..size / 2]);
            s.remove(t(1, 10, 100));
            for order in Order::ALL {
                let rel = s.relation(order);
                assert!(rel.top_len() < FOLD_ROWS, "{order}: top {}", rel.top_len());
                assert_eq!(rel.delta_len(), s.delta_rows(), "{order}");
            }
        }
        assert!(s.delta_rows() > FOLD_ROWS, "the middle level never grew");
        let clone = s.clone();
        assert!(clone.shares_base_runs_with(&s));
        assert_eq!(rows(&clone, Order::Osp), rows(&s, Order::Osp));
    }

    /// With no override, the threshold is `max(4096, base rows / 8)`.
    #[test]
    fn default_threshold_is_an_eighth_of_the_base_past_32k_rows() {
        assert_eq!(default_compact_threshold(0), 4096);
        assert_eq!(default_compact_threshold(32 * 1024), 4096);
        assert_eq!(default_compact_threshold(40_000), 5000);
        assert_eq!(default_compact_threshold(300_000), 37_500);
        let triples: Vec<IdTriple> = (0..40_000u32).map(|i| t(i, 1, 1)).collect();
        let mut s = TripleStore::from_triples(&triples);
        let want = env_compact_threshold().unwrap_or(5000);
        assert_eq!(s.compaction_threshold(), want);
        // The base run, not the overlay, sets it.
        s.insert_batch(&[t(1, 2, 3)]);
        assert_eq!(s.compaction_threshold(), want);
        s.set_compaction_threshold(Some(7));
        assert_eq!(s.compaction_threshold(), 7);
    }
}
