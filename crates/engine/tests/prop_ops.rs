//! Property tests for the join operators: merge join, hash join and the
//! left-outer join agree with a nested-loop reference on random inputs —
//! including the vectorized kernels against the retired row-at-a-time
//! kernels ([`hsp_engine::reference`]) on repeated-variable (extra shared
//! column), multi-variable-key (packed and CSR layouts), and zero-column
//! (unit) inputs.

use hsp_engine::binding::BindingTable;
use hsp_engine::{ops, reference, ExecContext};
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
        let reference = reference_join(&left, &right);

        let mj = ops::merge_join(&left, &right, Var(0));
        prop_assert_eq!(mj.sorted_rows_for(&[Var(0), Var(1), Var(2)]), reference.clone());
        prop_assert!(mj.check_sortedness());
        prop_assert_eq!(mj.sorted_by(), Some(Var(0)));

        let hj = ops::hash_join(&left, &right, &[Var(0)]);
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
        let u = ops::union_all(&a, &b);
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
        let p = ops::project(&a, &[("k".into(), Var(0))], true);
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
        let head = ops::slice(&table, 0, Some(k));
        let tail = ops::slice(&table, k, None);
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
        let hj_new = ops::hash_join(&left, &right, &[Var(0)]);
        let hj_old = reference::hash_join(&left, &right, &[Var(0)]);
        prop_assert_eq!(hj_new.vars(), hj_old.vars());
        prop_assert_eq!(hj_new.sorted_rows(), hj_old.sorted_rows());
        prop_assert_eq!(hj_new.sorted_by(), hj_old.sorted_by());

        let mj_new = ops::merge_join(&left, &right, Var(0));
        let mj_old = reference::merge_join(&left, &right, Var(0));
        prop_assert_eq!(mj_new.sorted_rows(), mj_old.sorted_rows());
        prop_assert_eq!(mj_new.sorted_by(), mj_old.sorted_by());

        let cp_l = ops::project(&left, &[("p".into(), Var(1))], false);
        let cp_r = ops::project(&right, &[("q".into(), Var(2))], false);
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
        let oracle = reference::nested_loop_join_rows(&left, &right);
        let out_vars = [Var(0), Var(1), Var(5), Var(6)];

        let one_key = ops::hash_join(&left, &right, &[Var(0)]);
        prop_assert_eq!(one_key.sorted_rows_for(&out_vars), oracle.clone());

        let packed_two = ops::hash_join(&left, &right, &[Var(0), Var(1)]);
        prop_assert_eq!(packed_two.sorted_rows_for(&out_vars), oracle.clone());

        let rowwise = reference::hash_join(&left, &right, &[Var(0)]);
        prop_assert_eq!(one_key.sorted_rows(), rowwise.sorted_rows());

        // Sorting both sides turns the same join into a merge join.
        let ls = ops::sort_by(&left, Var(0));
        let rs = ops::sort_by(&right, Var(0));
        let mj = ops::merge_join(&ls, &rs, Var(0));
        prop_assert_eq!(mj.sorted_rows_for(&out_vars), oracle);
        prop_assert!(mj.check_sortedness());
    }

    /// Hash joins keyed on one or two (the packed-u64 layout) and on all
    /// three (the CSR wide layout) of the tables' shared variables ≡
    /// nested loop; the shared variables left out of the key are checked
    /// pairwise.
    #[test]
    fn every_key_width_agrees_with_nested_loop(
        left in arb_wide_table(5),
        right in arb_wide_table(6),
    ) {
        let oracle = reference::nested_loop_join_rows(&left, &right);
        let keys = [Var(0), Var(1), Var(2)];
        for width in 1..=keys.len() {
            let join = ops::hash_join(&left, &right, &keys[..width]);
            prop_assert_eq!(
                join.sorted_rows_for(&[Var(0), Var(1), Var(2), Var(5), Var(6)]),
                oracle.clone(),
                "width={}",
                width
            );
        }
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

        let sliced = ops::slice(&unit, offset, Some(2));
        prop_assert_eq!(sliced.len(), unit_rows.saturating_sub(offset).min(2));
        prop_assert!(sliced.vars().is_empty());

        let ask = ops::project(&table, &[], true);
        prop_assert_eq!(ask.len(), table.len().min(1));
    }

    #[test]
    fn distinct_three_columns_keeps_first_occurrences(table in arb_shared_table(5)) {
        let projection = vec![
            ("a".to_string(), Var(0)),
            ("b".to_string(), Var(1)),
            ("c".to_string(), Var(5)),
        ];
        let got = ops::project(&table, &projection, true);
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
