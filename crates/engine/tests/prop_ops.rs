//! Property tests for the join operators: merge join, hash join and the
//! left-outer join agree with a nested-loop reference on random inputs —
//! including the vectorized kernels against the retired row-at-a-time
//! kernels ([`hsp_engine::reference`]) on repeated-variable (extra shared
//! column), multi-variable-key (packed and CSR layouts), and zero-column
//! (unit) inputs — plus the morsel/pool layer: every kernel property also
//! runs through a pooled, forced-multi-thread execution context and must
//! produce byte-identical tables. The parallel stages each get their own
//! oracle property: the partitioned-counting-sort hash-join build must be
//! byte-identical to the sequential build across all key layouts, the
//! range-partitioned merge join must match both the sequential merge join
//! and the row-at-a-time reference kernel, and the per-worker-evaluator
//! FILTER must keep exactly the sequential row set.

use hsp_engine::binding::BindingTable;
use hsp_engine::{ops, reference, ExecContext, MorselConfig};
use hsp_rdf::TermId;
use hsp_sparql::Var;
use proptest::prelude::*;

/// A random two-column table `(?0 key, ?payload)` sorted by the key.
fn arb_table(payload_var: u32) -> impl Strategy<Value = BindingTable> {
    proptest::collection::vec((0u32..8, 0u32..50), 0..40).prop_map(move |mut rows| {
        rows.sort();
        let keys: Vec<TermId> = rows.iter().map(|&(k, _)| TermId(k)).collect();
        let payloads: Vec<TermId> = rows.iter().map(|&(_, p)| TermId(100 + p)).collect();
        BindingTable::from_columns(
            vec![Var(0), Var(payload_var)],
            vec![keys, payloads],
            Some(Var(0)),
        )
    })
}

/// Nested-loop inner join on `?0`, output `(?0, ?1, ?2)` rows, sorted.
fn reference_join(left: &BindingTable, right: &BindingTable) -> Vec<Vec<TermId>> {
    let mut out = Vec::new();
    for i in 0..left.len() {
        for j in 0..right.len() {
            if left.value(Var(0), i) == right.value(Var(0), j) {
                out.push(vec![
                    left.value(Var(0), i),
                    left.value(Var(1), i),
                    right.value(Var(2), j),
                ]);
            }
        }
    }
    out.sort();
    out
}

proptest! {
    /// Merge join ≡ hash join ≡ nested loop.
    #[test]
    fn joins_agree_with_reference(left in arb_table(1), right in arb_table(2)) {
        let ctx = ExecContext::new();
        let reference = reference_join(&left, &right);

        let mj = ops::merge_join(&ctx, &left, &right, Var(0));
        prop_assert_eq!(mj.sorted_rows_for(&[Var(0), Var(1), Var(2)]), reference.clone());
        prop_assert!(mj.check_sortedness());
        prop_assert_eq!(mj.sorted_by(), Some(Var(0)));

        let hj = ops::hash_join(&ctx, &left, &right, &[Var(0)]);
        prop_assert_eq!(hj.sorted_rows_for(&[Var(0), Var(1), Var(2)]), reference);
    }

    /// Left-outer join row count: one row per match, plus one padded row per
    /// unmatched left row; inner rows are exactly the inner join.
    #[test]
    fn outer_join_semantics(left in arb_table(1), right in arb_table(2)) {
        let ctx = ExecContext::new();
        let inner = reference_join(&left, &right);
        let outer = ops::left_outer_hash_join(&ctx, &left, &right, &[Var(0)]);
        let matched_left: std::collections::HashSet<TermId> =
            inner.iter().map(|r| r[0]).collect();
        let unmatched = (0..left.len())
            .filter(|&i| !matched_left.contains(&left.value(Var(0), i)))
            .count();
        prop_assert_eq!(outer.len(), inner.len() + unmatched);
        // Every padded row has UNBOUND exactly in the right payload column.
        let padded = (0..outer.len())
            .filter(|&i| outer.value(Var(2), i).is_unbound())
            .count();
        prop_assert_eq!(padded, unmatched);
    }

    /// Union has the right length, variables, and padding.
    #[test]
    fn union_all_properties(a in arb_table(1), b in arb_table(2)) {
        let ctx = ExecContext::new();
        let u = ops::union_all(&ctx, &a, &b);
        prop_assert_eq!(u.len(), a.len() + b.len());
        prop_assert_eq!(u.vars(), &[Var(0), Var(1), Var(2)]);
        for i in 0..a.len() {
            prop_assert!(u.value(Var(2), i).is_unbound());
            prop_assert!(!u.value(Var(1), i).is_unbound());
        }
        for i in a.len()..u.len() {
            prop_assert!(u.value(Var(1), i).is_unbound());
        }
    }

    /// Cross product size and content.
    #[test]
    fn cross_product_counts(a in arb_table(1), rows_b in proptest::collection::vec(0u32..50, 0..10)) {
        let ctx = ExecContext::new();
        let b = BindingTable::from_columns(
            vec![Var(5)],
            vec![rows_b.iter().map(|&v| TermId(500 + v)).collect()],
            None,
        );
        let x = ops::cross_product(&ctx, &a, &b);
        prop_assert_eq!(x.len(), a.len() * b.len());
    }

    /// Projection with distinct yields the set of projected rows.
    #[test]
    fn project_distinct_is_a_set(a in arb_table(1)) {
        let ctx = ExecContext::new();
        let p = ops::project(&ctx, &a, &[("k".into(), Var(0))], true);
        let mut expected: Vec<TermId> = a.column(Var(0)).to_vec();
        expected.sort();
        expected.dedup();
        prop_assert_eq!(p.len(), expected.len());
    }
}

proptest! {
    /// `slice(0, k)` ++ `slice(k, ∞)` partition the input exactly.
    #[test]
    fn slice_partitions_input(table in arb_table(1), k in 0usize..50) {
        let ctx = ExecContext::new();
        let head = ops::slice(&ctx, &table, 0, Some(k));
        let tail = ops::slice(&ctx, &table, k, None);
        prop_assert_eq!(head.len() + tail.len(), table.len());
        let mut rows = Vec::new();
        for i in 0..head.len() {
            rows.push(head.row(i));
        }
        for i in 0..tail.len() {
            rows.push(tail.row(i));
        }
        let expected: Vec<Vec<TermId>> = (0..table.len()).map(|i| table.row(i)).collect();
        prop_assert_eq!(rows, expected);
    }

    /// ORDER BY a variable key is a permutation, sorted on that key, and
    /// stable within equal keys.
    #[test]
    fn order_by_permutes_and_sorts(table in arb_table(1), descending in any::<bool>()) {
        let ctx = ExecContext::new();
        use hsp_sparql::{Expr, SortKey};
        // An empty dataset is fine: keys resolve through term decoding, so
        // build a dictionary that knows every id used by the table.
        let mut doc = String::new();
        for i in 0..60 {
            doc.push_str(&format!("<http://e/s{i}> <http://e/p{i}> <http://e/o{i}> .\n"));
        }
        let ds = hsp_store::Dataset::from_ntriples(&doc).unwrap();

        let keys = vec![SortKey { expr: Expr::Var(Var(1)), descending }];
        let sorted = ops::order_by(&ctx, &ds, &table, &keys);
        prop_assert_eq!(sorted.len(), table.len());
        // Permutation: same multiset of rows.
        prop_assert_eq!(sorted.sorted_rows(), table.sorted_rows());
        // Sorted on the key column (ids here decode to IRIs, which the
        // ORDER BY comparator orders by codepoint; id order and IRI order
        // coincide only per-equal-length names, so compare decoded terms).
        let decoded: Vec<String> = (0..sorted.len())
            .map(|i| ds.dict().term(sorted.value(Var(1), i)).lexical().to_string())
            .collect();
        let mut expected = decoded.clone();
        expected.sort();
        if descending {
            expected.reverse();
        }
        prop_assert_eq!(decoded, expected);
    }

    /// Vectorized merge/hash join ≡ the row-at-a-time kernels on every
    /// random input (bit-identical sorted row-sets and metadata).
    #[test]
    fn vectorized_kernels_match_rowwise_kernels(left in arb_table(1), right in arb_table(2)) {
        let ctx = ExecContext::new();
        let hj_new = ops::hash_join(&ctx, &left, &right, &[Var(0)]);
        let hj_old = reference::hash_join(&left, &right, &[Var(0)]);
        prop_assert_eq!(hj_new.vars(), hj_old.vars());
        prop_assert_eq!(hj_new.sorted_rows(), hj_old.sorted_rows());
        prop_assert_eq!(hj_new.sorted_by(), hj_old.sorted_by());

        let mj_new = ops::merge_join(&ctx, &left, &right, Var(0));
        let mj_old = reference::merge_join(&left, &right, Var(0));
        prop_assert_eq!(mj_new.sorted_rows(), mj_old.sorted_rows());
        prop_assert_eq!(mj_new.sorted_by(), mj_old.sorted_by());

        let cp_l = ops::project(&ctx, &left, &[("p".into(), Var(1))], false);
        let cp_r = ops::project(&ctx, &right, &[("q".into(), Var(2))], false);
        let cp_new = ops::cross_product(&ctx, &cp_l, &cp_r);
        let cp_old = reference::cross_product(&cp_l, &cp_r);
        prop_assert_eq!(cp_new.sorted_rows(), cp_old.sorted_rows());
    }
}

// ---------------------------------------------------------------------------
// Vectorized-kernel coverage: extra shared columns, multi-variable keys
// (packed u64 and CSR bucket layouts), and zero-column (unit) tables.
// ---------------------------------------------------------------------------

/// A random table over `(?0, ?1, ?payload)` where ?0 and ?1 draw from tiny
/// domains (lots of key collisions) and the payload is unique-ish.
fn arb_shared_table(payload_var: u32) -> impl Strategy<Value = BindingTable> {
    proptest::collection::vec((0u32..4, 0u32..4, 0u32..40), 0..30).prop_map(move |rows| {
        let c0: Vec<TermId> = rows.iter().map(|&(a, _, _)| TermId(a)).collect();
        let c1: Vec<TermId> = rows.iter().map(|&(_, b, _)| TermId(10 + b)).collect();
        let cp: Vec<TermId> = rows
            .iter()
            .map(|&(_, _, p)| TermId(100 * payload_var + p))
            .collect();
        BindingTable::from_columns(
            vec![Var(0), Var(1), Var(payload_var)],
            vec![c0, c1, cp],
            None,
        )
    })
}

/// A random table over `(?0, ?1, ?2, ?payload)` — three shared key columns,
/// which pushes the hash join into the CSR (wide-key) layout.
fn arb_wide_table(payload_var: u32) -> impl Strategy<Value = BindingTable> {
    proptest::collection::vec((0u32..3, 0u32..3, 0u32..3, 0u32..40), 0..25).prop_map(move |rows| {
        let c0: Vec<TermId> = rows.iter().map(|&(a, _, _, _)| TermId(a)).collect();
        let c1: Vec<TermId> = rows.iter().map(|&(_, b, _, _)| TermId(10 + b)).collect();
        let c2: Vec<TermId> = rows.iter().map(|&(_, _, c, _)| TermId(20 + c)).collect();
        let cp: Vec<TermId> = rows
            .iter()
            .map(|&(_, _, _, p)| TermId(100 * payload_var + p))
            .collect();
        BindingTable::from_columns(
            vec![Var(0), Var(1), Var(2), Var(payload_var)],
            vec![c0, c1, c2, cp],
            None,
        )
    })
}

proptest! {
    /// Hash join on ?0 with ?1 as an extra shared (repeated) variable ≡ the
    /// nested-loop join on all shared variables, ≡ the two-variable-key
    /// (packed u64) hash join on {?0, ?1}.
    #[test]
    fn extra_shared_and_packed_keys_agree_with_nested_loop(
        left in arb_shared_table(5),
        right in arb_shared_table(6),
    ) {
        let ctx = ExecContext::new();
        let oracle = reference::nested_loop_join_rows(&left, &right);
        let out_vars = [Var(0), Var(1), Var(5), Var(6)];

        let one_key = ops::hash_join(&ctx, &left, &right, &[Var(0)]);
        prop_assert_eq!(one_key.sorted_rows_for(&out_vars), oracle.clone());

        let packed_two = ops::hash_join(&ctx, &left, &right, &[Var(0), Var(1)]);
        prop_assert_eq!(packed_two.sorted_rows_for(&out_vars), oracle.clone());

        let rowwise = reference::hash_join(&left, &right, &[Var(0)]);
        prop_assert_eq!(one_key.sorted_rows(), rowwise.sorted_rows());

        // Sorting both sides turns the same join into a merge join.
        let ls = ops::sort_by(&ctx, &left, Var(0));
        let rs = ops::sort_by(&ctx, &right, Var(0));
        let mj = ops::merge_join(&ctx, &ls, &rs, Var(0));
        prop_assert_eq!(mj.sorted_rows_for(&out_vars), oracle);
        prop_assert!(mj.check_sortedness());
    }

    /// Three-variable join keys (the CSR wide layout) ≡ nested loop.
    #[test]
    fn wide_csr_keys_agree_with_nested_loop(
        left in arb_wide_table(5),
        right in arb_wide_table(6),
    ) {
        let ctx = ExecContext::new();
        let oracle = reference::nested_loop_join_rows(&left, &right);
        let wide = ops::hash_join(&ctx, &left, &right, &[Var(0), Var(1), Var(2)]);
        prop_assert_eq!(wide.sorted_rows_for(&[Var(0), Var(1), Var(2), Var(5), Var(6)]), oracle);
    }

    /// Left-outer join with an extra shared column: inner rows match the
    /// nested loop; every unmatched left row survives with UNBOUND padding.
    #[test]
    fn outer_join_with_extra_shared_pads_unmatched(
        left in arb_shared_table(5),
        right in arb_shared_table(6),
    ) {
        let ctx = ExecContext::new();
        let inner = reference::nested_loop_join_rows(&left, &right);
        let outer = ops::left_outer_hash_join(&ctx, &left, &right, &[Var(0)]);
        let matched: std::collections::HashSet<(TermId, TermId, TermId)> = inner
            .iter()
            .map(|r| (r[0], r[1], r[2]))
            .collect();
        let unmatched = (0..left.len())
            .filter(|&i| {
                !matched.contains(&(
                    left.value(Var(0), i),
                    left.value(Var(1), i),
                    left.value(Var(5), i),
                ))
            })
            .count();
        prop_assert_eq!(outer.len(), inner.len() + unmatched);
        let padded = (0..outer.len())
            .filter(|&i| outer.value(Var(6), i).is_unbound())
            .count();
        prop_assert_eq!(padded, unmatched);
    }

    /// Zero-column (unit) tables flow through cross product, slice, and
    /// empty projection with exact row counts.
    #[test]
    fn unit_tables_flow_through_operators(
        table in arb_shared_table(5),
        unit_rows in 0usize..4,
        offset in 0usize..5,
    ) {
        let ctx = ExecContext::new();
        let unit = BindingTable::unit(unit_rows);
        let x = ops::cross_product(&ctx, &unit, &table);
        prop_assert_eq!(x.len(), unit_rows * table.len());
        prop_assert_eq!(x.vars(), table.vars());

        let both = ops::cross_product(&ctx, &unit, &BindingTable::unit(3));
        prop_assert_eq!(both.len(), unit_rows * 3);
        prop_assert!(both.vars().is_empty());

        let sliced = ops::slice(&ctx, &unit, offset, Some(2));
        prop_assert_eq!(sliced.len(), unit_rows.saturating_sub(offset).min(2));
        prop_assert!(sliced.vars().is_empty());

        let ask = ops::project(&ctx, &table, &[], true);
        prop_assert_eq!(ask.len(), table.len().min(1));
    }

    /// Every kernel, run through a pooled execution context with a forced
    /// 3-thread morsel pool (tiny morsels, no row threshold, so even these
    /// small inputs split), produces tables byte-identical to the default
    /// path — and a second pass over warm (recycled) buffers agrees too.
    #[test]
    fn pooled_parallel_context_is_byte_identical(
        left in arb_table(1),
        right in arb_table(2),
        threads in 2usize..=4,
    ) {
        let ctx = ExecContext::with_morsel_config(
            MorselConfig::with_threads(threads)
                .with_morsel_rows(4)
                .with_min_parallel_rows(0),
        );
        let plain = ExecContext::new();
        for _pass in 0..2 {
            let hj = ops::hash_join(&ctx, &left, &right, &[Var(0)]);
            prop_assert_eq!(&hj, &ops::hash_join(&plain, &left, &right, &[Var(0)]));

            let oj = ops::left_outer_hash_join(&ctx, &left, &right, &[Var(0)]);
            prop_assert_eq!(&oj, &ops::left_outer_hash_join(&plain, &left, &right, &[Var(0)]));

            let mj = ops::merge_join(&ctx, &left, &right, Var(0));
            prop_assert_eq!(&mj, &ops::merge_join(&plain, &left, &right, Var(0)));

            let sorted = ops::sort_by(&ctx, &hj, Var(1));
            prop_assert_eq!(&sorted, &ops::sort_by(&plain, &hj, Var(1)));

            let proj = ops::project(&ctx, &hj, &[("k".into(), Var(0))], true);
            prop_assert_eq!(&proj, &ops::project(&plain, &hj, &[("k".into(), Var(0))], true));

            let sliced = ops::slice(&ctx, &hj, 1, Some(5));
            prop_assert_eq!(&sliced, &ops::slice(&plain, &hj, 1, Some(5)));

            let unioned = ops::union_all(&ctx, &left, &right);
            prop_assert_eq!(&unioned, &ops::union_all(&plain, &left, &right));

            // Recycle this pass's intermediates so the second pass runs on
            // warm buffers (the pool-hit path).
            for table in [hj, oj, mj, sorted, proj, sliced, unioned] {
                ctx.pool.recycle(table);
            }
        }
        prop_assert!(ctx.pool.stats().hits > 0 || left.is_empty() || right.is_empty());
    }

    /// The morsel-parallel probe agrees with the nested-loop oracle on the
    /// extra-shared-column inputs (the worker-side extra-pair check).
    #[test]
    fn pooled_parallel_probe_matches_nested_loop(
        left in arb_shared_table(5),
        right in arb_shared_table(6),
    ) {
        let ctx = ExecContext::with_morsel_config(
            MorselConfig::with_threads(3)
                .with_morsel_rows(4)
                .with_min_parallel_rows(0),
        );
        let oracle = reference::nested_loop_join_rows(&left, &right);
        let joined = ops::hash_join(&ctx, &left, &right, &[Var(0)]);
        prop_assert_eq!(joined.sorted_rows_for(&[Var(0), Var(1), Var(5), Var(6)]), oracle);
    }

    /// The parallel hash-join build (morsel-parallel hashing + partitioned
    /// counting sort) produces a table **byte-identical** to the
    /// sequential build on arbitrary inputs, for both the packed-u64
    /// layout (1- and 2-column keys) and the CSR/wide layout (3-column
    /// keys) — and a join probing the parallel table matches the
    /// [`hsp_engine::reference`] nested-loop oracle.
    #[test]
    fn parallel_build_table_matches_sequential_all_layouts(
        left in arb_wide_table(5),
        right in arb_wide_table(6),
        threads in 2usize..=4,
    ) {
        use hsp_engine::kernel::BuildTable;
        let config = MorselConfig::with_threads(threads)
            .with_morsel_rows(4)
            .with_min_parallel_rows(0);
        for width in 1..=3u32 {
            let cols: Vec<&[TermId]> = (0..width).map(|i| right.column(Var(i))).collect();
            let sequential = BuildTable::build(&cols, right.len());
            let (parallel, _) = BuildTable::build_par(&cols, right.len(), &config);
            prop_assert_eq!(parallel, sequential, "width={}", width);
        }
        // End-to-end: a forced-parallel join over every key width agrees
        // with the nested-loop oracle on all shared variables.
        let ctx = ExecContext::with_morsel_config(config);
        let oracle = reference::nested_loop_join_rows(&left, &right);
        let wide = ops::hash_join(&ctx, &left, &right, &[Var(0), Var(1), Var(2)]);
        prop_assert_eq!(
            wide.sorted_rows_for(&[Var(0), Var(1), Var(2), Var(5), Var(6)]),
            oracle
        );
    }

    /// The range-partitioned parallel merge join is byte-identical to the
    /// sequential merge join and agrees with the row-at-a-time
    /// [`reference::merge_join`] oracle on arbitrary sorted inputs
    /// (including an extra shared non-key column checked inside every
    /// partition).
    #[test]
    fn parallel_merge_join_matches_reference(
        left in arb_table(1),
        right in arb_table(2),
        threads in 2usize..=4,
    ) {
        let ctx = ExecContext::with_morsel_config(
            MorselConfig::with_threads(threads)
                .with_morsel_rows(4)
                .with_min_parallel_rows(0),
        );
        let sequential = ops::merge_join(&ExecContext::new(), &left, &right, Var(0));
        let parallel = ops::merge_join(&ctx, &left, &right, Var(0));
        prop_assert_eq!(&parallel, &sequential);
        let oracle = reference::merge_join(&left, &right, Var(0));
        prop_assert_eq!(parallel.sorted_rows(), oracle.sorted_rows());
        prop_assert_eq!(parallel.sorted_by(), oracle.sorted_by());
    }

    /// Parallel merge join with an extra shared (repeated) variable:
    /// byte-identical to sequential, row-set-identical to the nested-loop
    /// oracle over all shared variables.
    #[test]
    fn parallel_merge_join_with_shared_var_matches_oracle(
        left in arb_shared_table(5),
        right in arb_shared_table(6),
        threads in 2usize..=4,
    ) {
        let plain = ExecContext::new();
        let ls = ops::sort_by(&plain, &left, Var(0));
        let rs = ops::sort_by(&plain, &right, Var(0));
        let ctx = ExecContext::with_morsel_config(
            MorselConfig::with_threads(threads)
                .with_morsel_rows(4)
                .with_min_parallel_rows(0),
        );
        let sequential = ops::merge_join(&plain, &ls, &rs, Var(0));
        let parallel = ops::merge_join(&ctx, &ls, &rs, Var(0));
        prop_assert_eq!(&parallel, &sequential);
        let oracle = reference::nested_loop_join_rows(&left, &right);
        prop_assert_eq!(parallel.sorted_rows_for(&[Var(0), Var(1), Var(5), Var(6)]), oracle);
    }

    /// The morsel-parallel FILTER (per-worker evaluators) keeps exactly
    /// the rows the sequential evaluation keeps, byte-identically —
    /// exercised through a REGEX expression so every worker compiles into
    /// its own cache.
    #[test]
    fn parallel_filter_matches_sequential(
        rows in proptest::collection::vec(0u32..60, 0..50),
        threads in 2usize..=4,
    ) {
        use hsp_sparql::{Expr, FilterExpr, Func};
        let mut doc = String::new();
        for i in 0..60 {
            doc.push_str(&format!("<http://e/s{i}> <http://e/p> \"val {i}\" .\n"));
        }
        let ds = hsp_store::Dataset::from_ntriples(&doc).unwrap();
        // A table over ?0 whose ids all decode through the dictionary.
        let ids: Vec<TermId> = rows
            .iter()
            .map(|&v| ds.dict().id(&hsp_rdf::Term::literal(format!("val {v}"))).unwrap())
            .collect();
        let table = BindingTable::from_columns(vec![Var(0)], vec![ids], None);
        let expr = FilterExpr::Complex(Box::new(Expr::Call {
            func: Func::Regex,
            args: vec![
                Expr::Var(Var(0)),
                Expr::Const(hsp_rdf::Term::literal(r"val [0-2]\d?$")),
            ],
        }));
        let sequential = ops::filter(&ExecContext::with_threads(1), &ds, &table, &expr);
        let ctx = ExecContext::with_morsel_config(
            MorselConfig::with_threads(threads)
                .with_morsel_rows(4)
                .with_min_parallel_rows(0),
        );
        let parallel = ops::filter(&ctx, &ds, &table, &expr);
        prop_assert_eq!(parallel, sequential);
    }

    /// The parallel merge sort behind the sort order-enforcer is
    /// byte-identical to the sequential stable sort, including tie order
    /// (tiny key domain → long runs of equal keys).
    #[test]
    fn parallel_sort_by_matches_sequential(
        rows in proptest::collection::vec((0u32..4, 0u32..50), 0..60),
        threads in 2usize..=4,
    ) {
        let keys: Vec<TermId> = rows.iter().map(|&(k, _)| TermId(k)).collect();
        let payloads: Vec<TermId> = rows.iter().map(|&(_, p)| TermId(100 + p)).collect();
        let table = BindingTable::from_columns(vec![Var(0), Var(1)], vec![keys, payloads], None);
        let sequential = ops::sort_by(&ExecContext::with_threads(1), &table, Var(0));
        let ctx = ExecContext::with_morsel_config(
            MorselConfig::with_threads(threads)
                .with_morsel_rows(4)
                .with_min_parallel_rows(0),
        );
        let parallel = ops::sort_by(&ctx, &table, Var(0));
        prop_assert_eq!(parallel, sequential);
    }

    /// The parallel ORDER BY merge (per-worker sorted runs + run merges)
    /// is byte-identical to the sequential stable sort under the SPARQL
    /// value order, ascending and descending.
    #[test]
    fn parallel_order_by_matches_sequential(
        rows in proptest::collection::vec(0u32..40, 0..50),
        descending in any::<bool>(),
        threads in 2usize..=4,
    ) {
        use hsp_sparql::{Expr, SortKey};
        let mut doc = String::new();
        for i in 0..40 {
            doc.push_str(&format!("<http://e/s{i}> <http://e/p> \"{}\" .\n", i % 7));
        }
        let ds = hsp_store::Dataset::from_ntriples(&doc).unwrap();
        let ids: Vec<TermId> = rows
            .iter()
            .map(|&v| ds.dict().id(&hsp_rdf::Term::literal(format!("{}", v % 7))).unwrap())
            .collect();
        let tag: Vec<TermId> = (0..rows.len() as u32).map(TermId).collect();
        let table = BindingTable::from_columns(vec![Var(0), Var(1)], vec![ids, tag], None);
        let keys = vec![SortKey { expr: Expr::Var(Var(0)), descending }];
        let sequential = ops::order_by(&ExecContext::with_threads(1), &ds, &table, &keys);
        let ctx = ExecContext::with_morsel_config(
            MorselConfig::with_threads(threads)
                .with_morsel_rows(4)
                .with_min_parallel_rows(0),
        );
        let parallel = ops::order_by(&ctx, &ds, &table, &keys);
        prop_assert_eq!(parallel, sequential);
    }

    /// DISTINCT projection over three columns (the sort-index dedup path)
    /// keeps exactly the first occurrence of each distinct row, in order.
    #[test]
    fn distinct_three_columns_keeps_first_occurrences(table in arb_shared_table(5)) {
        let ctx = ExecContext::new();
        let projection = vec![
            ("a".to_string(), Var(0)),
            ("b".to_string(), Var(1)),
            ("c".to_string(), Var(5)),
        ];
        let got = ops::project(&ctx, &table, &projection, true);
        // Oracle: row-at-a-time first-occurrence dedup.
        let mut seen = std::collections::HashSet::new();
        let mut expected: Vec<Vec<TermId>> = Vec::new();
        for i in 0..table.len() {
            let row = table.row(i);
            if seen.insert(row.clone()) {
                expected.push(row);
            }
        }
        prop_assert_eq!(got.len(), expected.len());
        let got_rows: Vec<Vec<TermId>> = (0..got.len()).map(|i| got.row(i)).collect();
        prop_assert_eq!(got_rows, expected);
    }
}
