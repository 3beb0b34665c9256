//! Property tests: the six orders agree, binary-search range lookup is
//! equivalent to a naive filter scan, merged base+delta scans are
//! byte-identical to a from-scratch rebuild, and dictionary ids never move.

use hsp_rdf::{IdTriple, Term, TermId, Triple, TriplePos};
use hsp_store::{Dataset, Order, StorageBackend, TripleStore};
use proptest::prelude::*;

fn arb_triples() -> impl Strategy<Value = Vec<IdTriple>> {
    proptest::collection::vec((0u32..12, 0u32..6, 0u32..12), 0..200).prop_map(|v| {
        v.into_iter()
            .map(|(s, p, o)| [TermId(s), TermId(p + 100), TermId(o + 200)])
            .collect()
    })
}

fn distinct(triples: &[IdTriple]) -> Vec<IdTriple> {
    let mut v = triples.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

/// All rows of `store` under `order`, via the snapshot scan API.
fn rows(store: &TripleStore, order: Order) -> Vec<IdTriple> {
    store.scan(order, &[]).as_slice().to_vec()
}

proptest! {
    /// Every order stores exactly the distinct triple set.
    #[test]
    fn all_orders_contain_same_triples(triples in arb_triples()) {
        let store = TripleStore::from_triples(&triples);
        let expected = distinct(&triples);
        for order in Order::ALL {
            let mut got: Vec<IdTriple> = rows(&store, order)
                .iter()
                .map(|&k| order.from_key(k))
                .collect();
            got.sort_unstable();
            prop_assert_eq!(&got, &expected, "order {}", order);
        }
    }

    /// `count_bound` equals a naive filter count for every bound combination.
    #[test]
    fn count_bound_matches_naive(triples in arb_triples(), s in 0u32..12, p in 0u32..6, o in 0u32..12) {
        let store = TripleStore::from_triples(&triples);
        let dedup = distinct(&triples);
        let s = TermId(s);
        let p = TermId(p + 100);
        let o = TermId(o + 200);

        let combos: Vec<Vec<(TriplePos, TermId)>> = vec![
            vec![],
            vec![(TriplePos::S, s)],
            vec![(TriplePos::P, p)],
            vec![(TriplePos::O, o)],
            vec![(TriplePos::S, s), (TriplePos::P, p)],
            vec![(TriplePos::S, s), (TriplePos::O, o)],
            vec![(TriplePos::P, p), (TriplePos::O, o)],
            vec![(TriplePos::S, s), (TriplePos::P, p), (TriplePos::O, o)],
        ];
        for bound in combos {
            let naive = dedup
                .iter()
                .filter(|t| bound.iter().all(|&(pos, v)| t[pos.index()] == v))
                .count();
            prop_assert_eq!(store.count_bound(&bound), naive, "bound {:?}", bound);
        }
    }

    /// `distinct_bound` equals a naive distinct count.
    #[test]
    fn distinct_bound_matches_naive(triples in arb_triples(), p in 0u32..6) {
        let store = TripleStore::from_triples(&triples);
        let dedup = distinct(&triples);
        let p = TermId(p + 100);
        for target in [TriplePos::S, TriplePos::O] {
            let naive: std::collections::HashSet<_> = dedup
                .iter()
                .filter(|t| t[1] == p)
                .map(|t| t[target.index()])
                .collect();
            prop_assert_eq!(
                store.distinct_bound(&[(TriplePos::P, p)], target),
                naive.len()
            );
        }
    }

    /// Ranges really are sorted by the key components after the prefix.
    #[test]
    fn ranges_are_sorted(triples in arb_triples(), p in 0u32..6) {
        let store = TripleStore::from_triples(&triples);
        let scan = store.scan(Order::Pso, &[TermId(p + 100)]);
        let mut sorted = scan.to_vec();
        sorted.sort_unstable();
        prop_assert_eq!(sorted.as_slice(), scan.as_slice());
    }
}

proptest! {
    /// Incremental mutation is equivalent to rebuilding from scratch:
    /// starting from `base`, inserting `add` and removing `del` (in that
    /// order) produces exactly `distinct(base ∪ add) \ del` in every order.
    #[test]
    fn incremental_mutation_matches_rebuild(
        base in arb_triples(),
        add in arb_triples(),
        del in arb_triples(),
    ) {
        let mut store = TripleStore::from_triples(&base);
        store.insert_batch(&add);
        store.remove_batch(&del);

        let mut expected: Vec<IdTriple> = base.iter().chain(add.iter()).copied().collect();
        expected.sort_unstable();
        expected.dedup();
        let del_set = distinct(&del);
        expected.retain(|t| del_set.binary_search(t).is_err());

        for order in Order::ALL {
            let rows = rows(&store, order);
            let mut got: Vec<IdTriple> = rows.iter().map(|&k| order.from_key(k)).collect();
            got.sort_unstable();
            prop_assert_eq!(&got, &expected, "order {}", order);
            // …and each merged scan is strictly sorted (no duplicates).
            prop_assert!(rows.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// One-at-a-time insert/remove agrees with the batch path.
    #[test]
    fn single_ops_match_batch_ops(base in arb_triples(), changes in arb_triples()) {
        let mut one = TripleStore::from_triples(&base);
        let mut batch = TripleStore::from_triples(&base);
        let mut added_single = 0;
        for &t in &distinct(&changes) {
            if one.insert(t) {
                added_single += 1;
            }
        }
        let added_batch = batch.insert_batch(&changes);
        prop_assert_eq!(added_single, added_batch);
        prop_assert_eq!(one.len(), batch.len());

        let mut removed_single = 0;
        for &t in &distinct(&changes) {
            if one.remove(t) {
                removed_single += 1;
            }
        }
        let removed_batch = batch.remove_batch(&changes);
        prop_assert_eq!(removed_single, removed_batch);
        prop_assert_eq!(one.len(), batch.len());
    }

    /// insert followed by remove of the same triples is the identity.
    #[test]
    fn insert_then_remove_roundtrips(base in arb_triples(), extra in arb_triples()) {
        let reference = TripleStore::from_triples(&base);
        let mut store = TripleStore::from_triples(&base);
        // Only count triples not already in the base as removable.
        let new: Vec<IdTriple> = distinct(&extra)
            .into_iter()
            .filter(|&t| !reference.contains(t))
            .collect();
        store.insert_batch(&new);
        store.remove_batch(&new);
        prop_assert_eq!(store.len(), reference.len());
        for order in Order::ALL {
            prop_assert_eq!(rows(&store, order), rows(&reference, order), "order {}", order);
        }
    }
}

/// One interleaved step: insert a batch, or remove a batch, or compact.
#[derive(Debug, Clone)]
enum Step {
    Insert(Vec<IdTriple>),
    Remove(Vec<IdTriple>),
    Compact,
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    let step = prop_oneof![
        4 => arb_triples().prop_map(Step::Insert),
        4 => arb_triples().prop_map(Step::Remove),
        1 => Just(Step::Compact),
    ];
    proptest::collection::vec(step, 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The copy-on-write invariant under arbitrary interleavings: after any
    /// sequence of insert/remove batches and compactions, every merged
    /// base+delta scan — full relation and bound prefixes, all six orders —
    /// is byte-identical to a `TripleStore` built from scratch over the
    /// current triple set, and exact statistics agree. Earlier clones
    /// (reader snapshots) are never torn by later writes.
    #[test]
    fn interleaved_batches_match_from_scratch(
        base in arb_triples(),
        steps in arb_steps(),
        threshold in prop_oneof![Just(usize::MAX), Just(1usize), Just(8usize)],
    ) {
        let mut store = TripleStore::from_triples(&base);
        store.set_compaction_threshold(Some(threshold));
        let mut live = distinct(&base);
        // Snapshot taken before the writes; must stay untorn throughout.
        let snapshot = store.clone();
        let snapshot_live = live.clone();

        for step in &steps {
            match step {
                Step::Insert(batch) => {
                    store.insert_batch(batch);
                    live.extend(distinct(batch));
                    live.sort_unstable();
                    live.dedup();
                }
                Step::Remove(batch) => {
                    store.remove_batch(batch);
                    let del = distinct(batch);
                    live.retain(|t| del.binary_search(t).is_err());
                }
                Step::Compact => {
                    store.compact();
                }
            }
            store.compact_if_needed();

            let fresh = TripleStore::from_triples(&live);
            prop_assert_eq!(store.len(), fresh.len());
            for order in Order::ALL {
                let merged = store.scan(order, &[]);
                let rebuilt = fresh.scan(order, &[]);
                prop_assert_eq!(merged.as_slice(), rebuilt.as_slice(), "order {}", order);
                // Bound-prefix scans and stats agree too.
                for prefix_len in 1..3usize {
                    if let Some(&row) = rebuilt.as_slice().first() {
                        let prefix = &row[..prefix_len];
                        let got = store.scan(order, prefix);
                        let want = fresh.scan(order, prefix);
                        prop_assert_eq!(
                            got.as_slice(),
                            want.as_slice(),
                            "order {} prefix {:?}", order, prefix
                        );
                        prop_assert_eq!(store.count(order, prefix), fresh.count(order, prefix));
                    }
                }
                prop_assert_eq!(store.distinct_after(order, &[]), fresh.distinct_after(order, &[]));
            }
            for pos in [TriplePos::S, TriplePos::P, TriplePos::O] {
                prop_assert_eq!(store.distinct_at(pos), fresh.distinct_at(pos));
            }
        }

        // The pre-write snapshot still reads exactly its own triple set.
        let fresh = TripleStore::from_triples(&snapshot_live);
        for order in Order::ALL {
            let got = snapshot.scan(order, &[]);
            let want = fresh.scan(order, &[]);
            prop_assert_eq!(
                got.as_slice(),
                want.as_slice(),
                "snapshot torn under order {}", order
            );
        }
    }

    /// Dictionary ids are append-only: whatever interleaving of interning
    /// (`insert_data`), `compact`, copy-on-write clone-then-intern (how a
    /// session publishes an update) and `remove_data` a dataset goes
    /// through, every id ever handed out keeps resolving to the same term
    /// and every term to the same id — in the live dataset and in every
    /// fork taken along the way. The result cache's id-form entries, which
    /// are resolved against whatever dictionary is current at lookup,
    /// rest on exactly this.
    #[test]
    fn dictionary_ids_never_move(
        ops in proptest::collection::vec((0u32..5, 0u32..40, 0u32..40), 1..60),
    ) {
        let triple = |a: u32, b: u32| Triple::new(
            Term::iri(format!("http://e/s{a}")),
            Term::iri(format!("http://e/p{}", b % 5)),
            Term::literal(format!("v{b}")),
        );
        let mut ds = Dataset::from_triples(&[triple(0, 0)]);
        let mut forks: Vec<Dataset> = Vec::new();
        let mut known: Vec<(TermId, Term)> = Vec::new();
        for (kind, a, b) in ops {
            match kind {
                0 => { ds.insert_data(&[triple(a, b)]); }
                1 => { ds.compact(); }
                2 => {
                    // Build-and-swap: the fork interns, then is published;
                    // the old snapshot lives on beside it.
                    let mut fork = ds.clone();
                    fork.insert_data(&[triple(a, b), triple(b, a)]);
                    forks.push(std::mem::replace(&mut ds, fork));
                }
                3 => { ds.remove_data(&[triple(a, b)]); }
                _ => { ds.compact_if_needed(); }
            }
            for (id, term) in ds.dict().iter().skip(known.len()) {
                known.push((id, term.clone()));
            }
            prop_assert_eq!(ds.dict().len(), known.len(), "the dictionary shrank");
            for snapshot in forks.iter().chain([&ds]) {
                let dict = snapshot.dict();
                for (id, term) in &known[..dict.len()] {
                    prop_assert_eq!(dict.term(*id), term, "id {} moved", id);
                    prop_assert_eq!(dict.id(term), Some(*id), "{} changed id", term);
                }
            }
            forks.truncate(4);
        }
    }
}

/// One step of the two-level overlay case.
#[derive(Debug, Clone)]
enum LevelStep {
    /// Insert a batch drawn from a domain wide enough that most rows are new.
    Insert(Vec<IdTriple>),
    /// Remove every `every`-th live row, from `offset` on, of the rows the
    /// base run started with (`base`) or of the rows inserted since.
    Remove {
        base: bool,
        every: usize,
        offset: usize,
    },
    Compact,
}

fn arb_level_steps() -> impl Strategy<Value = Vec<LevelStep>> {
    let batch = proptest::collection::vec((0u32..48, 0u32..6, 0u32..24), 20..160).prop_map(|v| {
        v.into_iter()
            .map(|(s, p, o)| [TermId(s), TermId(p + 100), TermId(o + 200)])
            .collect()
    });
    let step = prop_oneof![
        5 => batch.prop_map(LevelStep::Insert),
        3 => (0u32..2, 1usize..5, 0usize..4).prop_map(|(base, every, offset)| LevelStep::Remove {
            base: base == 1,
            every,
            offset,
        }),
        1 => Just(LevelStep::Compact),
    ];
    proptest::collection::vec(step, 10..24)
}

/// Bound positions with their values, as `count_bound` takes them.
type Bound = Vec<(TriplePos, TermId)>;

/// Every bound combination of `probe` paired with every free target: the
/// `count_bound` / `distinct_bound` calls that reach all six orders.
fn bound_combos(probe: IdTriple) -> Vec<(Bound, Option<TriplePos>)> {
    let all = [TriplePos::S, TriplePos::P, TriplePos::O];
    let mut out = Vec::new();
    for mask in 0u8..8 {
        let bound: Bound = all
            .iter()
            .filter(|pos| mask >> pos.index() & 1 == 1)
            .map(|&pos| (pos, probe[pos.index()]))
            .collect();
        out.push((bound.clone(), None));
        for target in all.iter().filter(|pos| mask >> pos.index() & 1 == 0) {
            out.push((bound.clone(), Some(*target)));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The two-level overlay under writes totalling well past the top
    /// level's fold size, over a small base run: interleaved removals of
    /// inserted and base rows, compactions, and a threshold that never
    /// rebuilds (so inserts, tombstones and their cancellations pile up in
    /// the middle level) or rebuilds after every write. After every step,
    /// every order's full and bound-prefix scans, `count_bound` and
    /// `distinct_bound` equal a store rebuilt from scratch, and the clone
    /// taken before the step, which shares the middle level, still reads
    /// exactly its own rows.
    #[test]
    fn middle_level_matches_from_scratch(
        base in arb_triples(),
        steps in arb_level_steps(),
        threshold in prop_oneof![Just(usize::MAX), Just(1usize)],
    ) {
        let base = distinct(&base);
        let mut store = TripleStore::from_triples(&base);
        store.set_compaction_threshold(Some(threshold));
        let mut live = base.clone();
        for (i, step) in steps.iter().enumerate() {
            let before = store.clone();
            let before_live = live.clone();
            match step {
                LevelStep::Insert(batch) => {
                    store.insert_batch(batch);
                    live.extend(batch);
                    live.sort_unstable();
                    live.dedup();
                }
                LevelStep::Remove { base: from_base, every, offset } => {
                    let doomed: Vec<IdTriple> = live
                        .iter()
                        .filter(|t| base.binary_search(t).is_ok() == *from_base)
                        .skip(*offset)
                        .step_by(*every)
                        .copied()
                        .collect();
                    prop_assert_eq!(store.remove_batch(&doomed), doomed.len());
                    live.retain(|t| doomed.binary_search(t).is_err());
                }
                LevelStep::Compact => {
                    store.compact();
                }
            }
            store.compact_if_needed();

            let fresh = TripleStore::from_triples(&live);
            prop_assert_eq!(store.len(), fresh.len());
            let probe = live.get(i % live.len().max(1)).copied();
            for order in Order::ALL {
                let (got, want) = (store.scan(order, &[]), fresh.scan(order, &[]));
                prop_assert_eq!(got.as_slice(), want.as_slice(), "order {}", order);
                if let Some(probe) = probe {
                    let key = order.to_key(probe);
                    for prefix_len in 1..=3usize {
                        let prefix = &key[..prefix_len];
                        let (got, want) = (store.scan(order, prefix), fresh.scan(order, prefix));
                        prop_assert_eq!(
                            got.as_slice(),
                            want.as_slice(),
                            "order {} prefix {:?}", order, prefix
                        );
                    }
                }
            }
            for (bound, target) in bound_combos(probe.unwrap_or([TermId(0), TermId(100), TermId(200)])) {
                match target {
                    None => prop_assert_eq!(
                        store.count_bound(&bound),
                        fresh.count_bound(&bound),
                        "count {:?}", bound
                    ),
                    Some(target) => prop_assert_eq!(
                        store.distinct_bound(&bound, target),
                        fresh.distinct_bound(&bound, target),
                        "distinct {} under {:?}", target, bound
                    ),
                }
            }
            let was = TripleStore::from_triples(&before_live);
            for order in Order::ALL {
                let (got, want) = (before.scan(order, &[]), was.scan(order, &[]));
                prop_assert_eq!(got.as_slice(), want.as_slice(), "clone torn under order {}", order);
            }
        }
    }
}
