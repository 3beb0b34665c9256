//! One sorted copy of the triple table: immutable base run + a two-level
//! delta overlay.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

use hsp_rdf::{IdTriple, TermId};

use crate::order::Order;
use crate::scan::OrderScan;

/// Entries the top overlay level may reach before one cancelling merge
/// lays it over the middle level. A write merges into the top level only,
/// so it costs its batch plus fewer than this many entries; the middle
/// level is copied once per `FOLD_ROWS` overlay entries written.
pub(crate) const FOLD_ROWS: usize = 256;

/// One delta-overlay entry: a key plus whether it deletes a row of the
/// level below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DeltaEntry {
    key: IdTriple,
    tombstone: bool,
}

/// A fully sorted copy of the triple table under one collation [`Order`],
/// split RDF-3X-style into an immutable `Arc`-shared **base run** and a
/// small sorted **delta overlay** of inserts and tombstones.
///
/// Rows are stored *in key coordinates* (e.g. `[p, o, s]` for [`Order::Pos`])
/// so lexicographic array comparison is the sort order and range lookup by a
/// bound prefix is two binary searches. This is the "ordered triple relation
/// stored as a regular table" of the paper, and doubles as the aggregated
/// index of RDF-3X: `count(prefix)` is exact in `O(log n + delta)` and
/// `distinct(prefix)` in `O((d + delta) · log n)`.
///
/// The overlay has two levels, after the LSM-tree: an `Arc`-shared
/// **middle** level relative to the base run, and a small private **top**
/// level relative to base + middle. A write merges into the top level
/// only; once the top level reaches 256 entries (`FOLD_ROWS`), one
/// cancelling merge lays it over the middle level into a fresh `Arc`.
/// Cloning the relation therefore costs two `Arc` bumps plus the top
/// level — the copy-on-write property snapshot publication relies on —
/// and a write costs its batch, not the overlay.
/// [`SortedRelation::compact`] folds both levels back into a fresh base
/// run off the write path.
///
/// Overlay invariants (upheld by every mutator), for each level:
/// - entries are sorted by key and keys are unique;
/// - an insert entry's key is **absent** from the level below;
/// - a tombstone's key is **present** in the level below.
#[derive(Debug, Clone)]
pub struct SortedRelation {
    order: Order,
    base: Arc<Vec<IdTriple>>,
    /// Overlay relative to `base`, shared by clones.
    middle: Arc<[DeltaEntry]>,
    /// Overlay relative to `base` + `middle`; fewer than [`FOLD_ROWS`]
    /// entries between writes.
    top: Vec<DeltaEntry>,
    /// Number of live rows.
    len: usize,
}

/// Lay `upper` over `lower`, two overlay levels sorted and unique by key,
/// where `upper` is relative to what `lower` leaves live. A key in one
/// level keeps its entry; a key in both drops out, since an insert over a
/// tombstone, or a tombstone over an insert, leaves the row as it is below
/// `lower`. The result is one level relative to whatever `lower` is
/// relative to.
fn cancel_merge(lower: &[DeltaEntry], upper: &[DeltaEntry]) -> Vec<DeltaEntry> {
    let mut out = Vec::with_capacity(lower.len() + upper.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < lower.len() && j < upper.len() {
        match lower[i].key.cmp(&upper[j].key) {
            Ordering::Less => {
                out.push(lower[i]);
                i += 1;
            }
            Ordering::Greater => {
                out.push(upper[j]);
                j += 1;
            }
            Ordering::Equal => {
                // Invariant: an upper entry over a lower one undoes it.
                debug_assert_ne!(lower[i].tombstone, upper[j].tombstone);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&lower[i..]);
    out.extend_from_slice(&upper[j..]);
    out
}

/// The half-open range of `entries` whose keys match `prefix`.
fn entry_bounds(entries: &[DeltaEntry], prefix: &[TermId]) -> Range<usize> {
    if prefix.is_empty() {
        return 0..entries.len();
    }
    let lo = entries.partition_point(|e| &e.key[..prefix.len()] < prefix);
    let hi = entries.partition_point(|e| &e.key[..prefix.len()] <= prefix);
    lo..hi
}

impl SortedRelation {
    /// Build the relation for `order` from (not necessarily sorted,
    /// not necessarily distinct) `[s, p, o]` triples.
    pub fn build(order: Order, triples: &[IdTriple]) -> Self {
        let mut rows: Vec<IdTriple> = triples.iter().map(|&t| order.to_key(t)).collect();
        rows.sort_unstable();
        rows.dedup();
        SortedRelation {
            order,
            len: rows.len(),
            base: Arc::new(rows),
            middle: Arc::default(),
            top: Vec::new(),
        }
    }

    /// Apply a classified batch of `[s, p, o]` triples: distinct, and each
    /// one absent from the relation when `tombstone` is `false` (an
    /// insert) or present when it is `true` (a removal). The caller
    /// classifies once for all six orders (`TripleStore::insert_batch`),
    /// so no base run is searched here: `O(m log m + top)` for a batch of
    /// `m`, plus `O(middle)` once the top level reaches [`FOLD_ROWS`].
    pub(crate) fn write(&mut self, spo: &[IdTriple], tombstone: bool) {
        let mut incoming: Vec<DeltaEntry> = spo
            .iter()
            .map(|&t| DeltaEntry {
                key: self.order.to_key(t),
                tombstone,
            })
            .collect();
        incoming.sort_unstable_by_key(|e| e.key);
        // An insert over a top tombstone, or a removal over a top insert,
        // cancels it; every other key is new to the top level.
        self.top = cancel_merge(&self.top, &incoming);
        if tombstone {
            self.len -= spo.len();
        } else {
            self.len += spo.len();
        }
        if self.top.len() >= FOLD_ROWS {
            self.middle = cancel_merge(&self.middle, &self.top).into();
            self.top.clear();
        }
    }

    /// Number of live (distinct) rows: base, minus tombstones, plus inserts.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Number of delta-overlay entries (inserts + tombstones) over both
    /// levels, middle and top.
    pub fn delta_len(&self) -> usize {
        self.middle.len() + self.top.len()
    }

    /// Number of entries in the top overlay level.
    pub(crate) fn top_len(&self) -> usize {
        self.top.len()
    }

    /// Number of rows in the immutable base run.
    pub fn base_len(&self) -> usize {
        self.base.len()
    }

    /// `true` if both relations share the same base-run allocation —
    /// the copy-on-write property tests assert on.
    pub fn shares_base_with(&self, other: &SortedRelation) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
    }

    /// The half-open base-run range whose first `prefix.len()` key
    /// components equal `prefix`.
    fn base_bounds(&self, prefix: &[TermId]) -> (usize, usize) {
        assert!(prefix.len() <= 3, "prefix longer than a key");
        if prefix.is_empty() {
            return (0, self.base.len());
        }
        let lo = self
            .base
            .partition_point(|row| &row[..prefix.len()] < prefix);
        let hi = self
            .base
            .partition_point(|row| &row[..prefix.len()] <= prefix);
        (lo, hi)
    }

    /// The overlay entries whose keys match `prefix`, as one level
    /// relative to the base run: a borrowed slice of whichever level is
    /// non-empty over the range, or the cancelling merge of both.
    fn overlay(&self, prefix: &[TermId]) -> Cow<'_, [DeltaEntry]> {
        let middle = &self.middle[entry_bounds(&self.middle, prefix)];
        let top = &self.top[entry_bounds(&self.top, prefix)];
        if top.is_empty() {
            Cow::Borrowed(middle)
        } else if middle.is_empty() {
            Cow::Borrowed(top)
        } else {
            Cow::Owned(cancel_merge(middle, top))
        }
    }

    /// The rows matching a bound key prefix (sorted by the remaining key
    /// components — the sortedness merge joins rely on).
    ///
    /// Borrows the base run directly when no overlay entry falls in the
    /// range; otherwise merges base and overlay into an owned buffer.
    pub fn range(&self, prefix: &[TermId]) -> OrderScan<'_> {
        let (blo, bhi) = self.base_bounds(prefix);
        let delta = self.overlay(prefix);
        if delta.is_empty() {
            return OrderScan::Borrowed(&self.base[blo..bhi]);
        }
        let mut out = Vec::with_capacity((bhi - blo) + delta.len());
        let (mut i, mut j) = (blo, 0usize);
        while i < bhi && j < delta.len() {
            let entry = delta[j];
            match self.base[i].cmp(&entry.key) {
                Ordering::Less => {
                    out.push(self.base[i]);
                    i += 1;
                }
                Ordering::Equal => {
                    // Invariant: an equal-key delta entry is a tombstone.
                    debug_assert!(entry.tombstone);
                    i += 1;
                    j += 1;
                }
                Ordering::Greater => {
                    // Invariant: a delta key absent from base is an insert.
                    debug_assert!(!entry.tombstone);
                    out.push(entry.key);
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.base[i..bhi]);
        for entry in &delta[j..] {
            debug_assert!(!entry.tombstone);
            out.push(entry.key);
        }
        OrderScan::Owned(out)
    }

    /// Exact number of live rows matching a bound key prefix.
    /// `O(log n + delta-in-range)`.
    pub fn count(&self, prefix: &[TermId]) -> usize {
        let (blo, bhi) = self.base_bounds(prefix);
        let mut count = bhi - blo;
        for entry in self.overlay(prefix).iter() {
            if entry.tombstone {
                count -= 1;
            } else {
                count += 1;
            }
        }
        count
    }

    /// Exact number of distinct values of key component `prefix.len()`
    /// among live rows matching `prefix`.
    ///
    /// Gallops from group to group over the base run with a binary search
    /// each, walking the (small) overlay range alongside, so the cost is
    /// `O((d + delta) · log n)` for `d` distinct values.
    pub fn distinct_after(&self, prefix: &[TermId]) -> usize {
        assert!(prefix.len() < 3, "no key component after a full key");
        let depth = prefix.len();
        let (mut i, bhi) = self.base_bounds(prefix);
        let delta = self.overlay(prefix);
        let mut j = 0usize;
        let mut distinct = 0;
        while i < bhi || j < delta.len() {
            // Next group value present in base or delta at `depth`.
            let value = match (
                (i < bhi).then(|| self.base[i][depth]),
                delta.get(j).map(|e| e.key[depth]),
            ) {
                (Some(b), Some(d)) => b.min(d),
                (Some(b), None) => b,
                (None, Some(d)) => d,
                (None, None) => unreachable!(),
            };
            // Jump past the base group of rows sharing `value` at `depth`.
            let mut live = 0usize;
            if i < bhi && self.base[i][depth] == value {
                let group = self.base[i..bhi].partition_point(|row| row[depth] <= value);
                live += group;
                i += group;
            }
            // Walk the delta entries with this group value.
            let mut tombstones = 0usize;
            while j < delta.len() && delta[j].key[depth] == value {
                if delta[j].tombstone {
                    tombstones += 1;
                } else {
                    live += 1;
                }
                j += 1;
            }
            if live > tombstones {
                distinct += 1;
            }
        }
        distinct
    }

    /// `true` if a live row with exactly this key exists.
    pub fn contains_key(&self, key: IdTriple) -> bool {
        for level in [&self.top[..], &self.middle[..]] {
            if let Ok(pos) = level.binary_search_by(|e| e.key.cmp(&key)) {
                return !level[pos].tombstone;
            }
        }
        self.base.binary_search(&key).is_ok()
    }

    /// Fold both overlay levels into a fresh base run. Returns `false` if
    /// the overlay was already empty. `O(n + delta)` — callers keep this
    /// off the write path (see `TripleStore::compact`).
    pub fn compact(&mut self) -> bool {
        if self.delta_len() == 0 {
            return false;
        }
        // Levels that cancel out entirely leave the base run as it is.
        let merged = match self.range(&[]) {
            OrderScan::Owned(rows) => Some(rows),
            OrderScan::Borrowed(_) => None,
        };
        if let Some(rows) = merged {
            self.base = Arc::new(rows);
        }
        self.middle = Arc::default();
        self.top.clear();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsp_rdf::TermId;

    fn t(s: u32, p: u32, o: u32) -> IdTriple {
        [TermId(s), TermId(p), TermId(o)]
    }

    fn sample() -> Vec<IdTriple> {
        vec![
            t(1, 10, 100),
            t(1, 10, 101),
            t(1, 11, 100),
            t(2, 10, 100),
            t(2, 12, 103),
            t(3, 10, 101),
            t(3, 10, 101), // duplicate, must be removed
        ]
    }

    /// Insert one triple the way `TripleStore` does: classify against the
    /// live rows, then write. Returns `false` if it was already present.
    fn insert(r: &mut SortedRelation, triple: IdTriple) -> bool {
        let new = !r.contains_key(r.order.to_key(triple));
        if new {
            r.write(&[triple], false);
        }
        new
    }

    /// Remove one triple the way `TripleStore` does. Returns `false` if it
    /// was absent.
    fn remove(r: &mut SortedRelation, triple: IdTriple) -> bool {
        let present = r.contains_key(r.order.to_key(triple));
        if present {
            r.write(&[triple], true);
        }
        present
    }

    /// Materialise all live rows (merged base+delta).
    fn all_rows(r: &SortedRelation) -> Vec<IdTriple> {
        r.range(&[]).as_slice().to_vec()
    }

    #[test]
    fn build_sorts_and_dedups() {
        let r = SortedRelation::build(Order::Spo, &sample());
        assert_eq!(r.len(), 6);
        let rows = all_rows(&r);
        let mut sorted = rows.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, rows);
    }

    #[test]
    fn empty_prefix_is_full_relation() {
        let r = SortedRelation::build(Order::Spo, &sample());
        assert_eq!(r.range(&[]).len(), r.len());
        assert_eq!(r.count(&[]), 6);
    }

    #[test]
    fn one_bound_prefix() {
        let r = SortedRelation::build(Order::Spo, &sample());
        assert_eq!(r.count(&[TermId(1)]), 3);
        assert_eq!(r.count(&[TermId(2)]), 2);
        assert_eq!(r.count(&[TermId(9)]), 0);
    }

    #[test]
    fn two_bound_prefix() {
        let r = SortedRelation::build(Order::Spo, &sample());
        assert_eq!(r.count(&[TermId(1), TermId(10)]), 2);
        assert_eq!(r.count(&[TermId(1), TermId(11)]), 1);
        assert_eq!(r.count(&[TermId(1), TermId(12)]), 0);
    }

    #[test]
    fn full_key_prefix() {
        let r = SortedRelation::build(Order::Spo, &sample());
        assert_eq!(r.count(&[TermId(1), TermId(10), TermId(100)]), 1);
        assert!(r.contains_key(t(1, 10, 100)));
        assert!(!r.contains_key(t(1, 10, 999)));
    }

    #[test]
    fn range_rows_are_sorted_by_remaining_key() {
        let r = SortedRelation::build(Order::Pso, &sample());
        // pso key: predicate 10 occurs in 4 distinct triples.
        let rows = r.range(&[TermId(10)]);
        assert_eq!(rows.len(), 4);
        let mut sorted = rows.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted.as_slice(), rows.as_slice());
    }

    #[test]
    fn distinct_after_counts_groups() {
        let r = SortedRelation::build(Order::Spo, &sample());
        // Distinct subjects: 1, 2, 3.
        assert_eq!(r.distinct_after(&[]), 3);
        // Distinct predicates of subject 1: 10, 11.
        assert_eq!(r.distinct_after(&[TermId(1)]), 2);
        // Distinct objects of (1, 10): 100, 101.
        assert_eq!(r.distinct_after(&[TermId(1), TermId(10)]), 2);
        // Missing prefix: zero groups.
        assert_eq!(r.distinct_after(&[TermId(42)]), 0);
    }

    #[test]
    fn alternate_order_key_coordinates() {
        let r = SortedRelation::build(Order::Ops, &sample());
        // ops key: [o, p, s]; object 101 appears in triples (1,10,101) and (3,10,101).
        let rows = r.range(&[TermId(101)]);
        assert_eq!(rows.len(), 2);
        for row in rows.as_slice() {
            let spo = Order::Ops.from_key(*row);
            assert_eq!(spo[2], TermId(101));
        }
    }

    #[test]
    fn empty_relation() {
        let r = SortedRelation::build(Order::Spo, &[]);
        assert_eq!(r.len(), 0);
        assert_eq!(r.count(&[]), 0);
        assert_eq!(r.distinct_after(&[]), 0);
    }

    #[test]
    fn inserts_land_in_delta_not_base() {
        let mut r = SortedRelation::build(Order::Spo, &sample());
        let before = r.clone();
        assert!(insert(&mut r, t(9, 9, 9)));
        assert!(!insert(&mut r, t(9, 9, 9)), "duplicate insert");
        assert!(!insert(&mut r, t(1, 10, 100)), "already in base");
        assert_eq!(r.len(), 7);
        assert_eq!(r.delta_len(), 1);
        assert!(r.shares_base_with(&before), "insert must not copy the base");
        assert_eq!(before.len(), 6, "shared base clone must be untouched");
        assert!(r.contains_key(t(9, 9, 9)));
    }

    #[test]
    fn removes_tombstone_base_rows() {
        let mut r = SortedRelation::build(Order::Spo, &sample());
        let before = r.clone();
        assert!(remove(&mut r, t(1, 10, 100)));
        assert!(!remove(&mut r, t(1, 10, 100)), "double remove");
        assert!(!remove(&mut r, t(9, 9, 9)), "absent key");
        assert_eq!(r.len(), 5);
        assert_eq!(r.delta_len(), 1);
        assert!(r.shares_base_with(&before));
        assert!(!r.contains_key(t(1, 10, 100)));
        assert_eq!(r.count(&[TermId(1)]), 2);
        assert_eq!(r.range(&[TermId(1)]).len(), 2);
    }

    #[test]
    fn reinsert_over_tombstone_resurrects() {
        let mut r = SortedRelation::build(Order::Spo, &sample());
        assert!(remove(&mut r, t(1, 10, 100)));
        assert!(insert(&mut r, t(1, 10, 100)));
        assert_eq!(r.delta_len(), 0, "tombstone + reinsert cancel out");
        assert_eq!(r.len(), 6);
        assert!(r.contains_key(t(1, 10, 100)));
    }

    #[test]
    fn remove_pending_insert_cancels() {
        let mut r = SortedRelation::build(Order::Spo, &sample());
        assert!(insert(&mut r, t(9, 9, 9)));
        assert!(remove(&mut r, t(9, 9, 9)));
        assert_eq!(r.delta_len(), 0);
        assert_eq!(r.len(), 6);
    }

    #[test]
    fn merged_range_interleaves_delta() {
        let mut r = SortedRelation::build(Order::Spo, &sample());
        insert(&mut r, t(1, 10, 99));
        remove(&mut r, t(1, 10, 101));
        let scan = r.range(&[TermId(1), TermId(10)]);
        assert!(!scan.is_contiguous());
        assert_eq!(scan.as_slice(), &[t(1, 10, 99), t(1, 10, 100)]);
        // Ranges outside the delta keep the borrowed fast path.
        let scan = r.range(&[TermId(2)]);
        assert!(scan.is_contiguous());
        assert_eq!(scan.len(), 2);
    }

    #[test]
    fn distinct_after_sees_delta() {
        let mut r = SortedRelation::build(Order::Spo, &sample());
        insert(&mut r, t(4, 1, 1)); // new subject group
        assert_eq!(r.distinct_after(&[]), 4);
        remove(&mut r, t(2, 10, 100));
        remove(&mut r, t(2, 12, 103)); // subject 2 fully tombstoned
        assert_eq!(r.distinct_after(&[]), 3);
        // Insert + tombstone within one group: subject 1 stays one group.
        remove(&mut r, t(1, 11, 100));
        insert(&mut r, t(1, 12, 1));
        assert_eq!(r.distinct_after(&[]), 3);
        assert_eq!(r.distinct_after(&[TermId(1)]), 2); // predicates 10, 12
    }

    #[test]
    fn compact_folds_delta_into_base() {
        let mut r = SortedRelation::build(Order::Spo, &sample());
        insert(&mut r, t(9, 9, 9));
        remove(&mut r, t(1, 10, 100));
        let merged = all_rows(&r);
        assert!(r.compact());
        assert!(!r.compact(), "second compact is a no-op");
        assert_eq!(r.delta_len(), 0);
        assert_eq!(r.base_len(), 6);
        assert_eq!(all_rows(&r), merged);
        assert!(r.range(&[]).is_contiguous());
    }

    /// Writes well past the fold size, with removals of base rows and of
    /// rows inserted several folds earlier: the top level stays below
    /// `FOLD_ROWS`, a clone shares the middle level, and every read equals
    /// a relation rebuilt from the live rows.
    #[test]
    fn two_levels_read_like_a_rebuild() {
        let base: Vec<IdTriple> = (0..64u32).map(|i| t(i % 8, 10 + i % 3, 100 + i)).collect();
        let mut r = SortedRelation::build(Order::Pos, &base);
        let mut live: Vec<IdTriple> = base.clone();
        for step in 0..40u32 {
            let adds: Vec<IdTriple> = (0..50u32).map(|i| t(20 + step, 10 + i % 4, i)).collect();
            for &x in &adds {
                assert!(insert(&mut r, x));
            }
            live.extend(&adds);
            // Remove a base row and a row inserted three steps ago.
            for x in [base[step as usize], t(17 + step, 10 + step % 4, step)] {
                if let Some(pos) = live.iter().position(|&y| y == x) {
                    assert!(remove(&mut r, x));
                    live.swap_remove(pos);
                }
            }
            assert!(r.top_len() < FOLD_ROWS);
            let clone = r.clone();
            assert!(Arc::ptr_eq(&clone.middle, &r.middle));
            let rebuilt = SortedRelation::build(Order::Pos, &live);
            assert_eq!(r.len(), rebuilt.len());
            assert_eq!(all_rows(&r), all_rows(&rebuilt));
            for p in 10..14u32 {
                let prefix = [TermId(p)];
                assert_eq!(
                    r.range(&prefix).as_slice(),
                    rebuilt.range(&prefix).as_slice()
                );
                assert_eq!(r.count(&prefix), rebuilt.count(&prefix));
                assert_eq!(r.distinct_after(&prefix), rebuilt.distinct_after(&prefix));
            }
            assert_eq!(r.distinct_after(&[]), rebuilt.distinct_after(&[]));
        }
        assert!(r.middle.len() > FOLD_ROWS, "the middle level never grew");
        assert!(r.compact());
        assert_eq!(r.delta_len(), 0);
        assert_eq!(
            all_rows(&r),
            all_rows(&SortedRelation::build(Order::Pos, &live))
        );
    }
}
