//! The physical operators: scan-select, merge join, hash join, cross
//! product, filter, constant binding, projection, distinct.
//!
//! All operators are *operator-at-a-time*: they consume and produce fully
//! materialised [`BindingTable`]s, mirroring MonetDB's execution model —
//! and since the vectorization rework they are also *late-materializing*:
//! joins and selections first produce compact row-index (or index-pair)
//! vectors, then build their output **column at a time** through the bulk
//! gather primitives on [`BindingTable`] ([`BindingTable::gather`] /
//! [`BindingTable::from_join_pairs`]) instead of per-value `push_row`
//! appends. The previous row-at-a-time kernels live on in
//! [`crate::reference`] as the differential-testing oracle.
//!
//! Every kernel here runs sequentially on the calling thread. Production
//! queries probe, filter and merge inside morsel-parallel
//! [`crate::pipeline`] stages; these kernels serve the pipeline's breakers
//! (scans, sorts, ORDER BY, cross products, unions) and the
//! operator-at-a-time oracle. The kernels that count a merged scan, read
//! the computed-term overlay or poll the governor take the execution's
//! [`ExecContext`]. Output columns and index vectors come straight from
//! the allocator.

use std::collections::HashSet;

use hsp_rdf::{Term, TermId, TriplePos};
use hsp_sparql::{FilterExpr, Operand, TermOrVar, TriplePattern, Var};
use hsp_store::{Dataset, Order, StorageBackend};

use crate::binding::BindingTable;
use crate::kernel::{BuildTable, FxBuildHasher};
use crate::plan::{consts_form_prefix, scan_sort_var};
use crate::pool::ExecContext;

/// Upper bound on input-table sizes for the `u32` row indices the
/// vectorized kernels exchange.
fn check_indexable(table: &BindingTable) {
    assert!(
        table.len() < u32::MAX as usize,
        "binding table exceeds u32 row indexing"
    );
}

/// Scan one ordered relation for the rows matching `pattern`'s constants.
///
/// The output has one column per distinct pattern variable and is sorted by
/// the first variable in key order (see [`scan_sort_var`]). If the pattern
/// repeats a variable (e.g. `?x p ?x`), rows violating the implied equality
/// are dropped.
///
/// The no-repeated-variable fast path gathers each output column in one
/// pass; the repeated-variable path selects qualifying rows first. A scan
/// is a breaker: it runs sequentially on the coordinating thread.
///
/// # Panics
/// Panics if the pattern's constants do not form a prefix of `order`'s key
/// ([`PhysicalPlan::validate`](crate::plan::PhysicalPlan::validate) catches
/// this earlier).
pub(crate) fn scan(
    ctx: &ExecContext,
    ds: &Dataset,
    pattern: &TriplePattern,
    order: Order,
) -> BindingTable {
    assert!(
        consts_form_prefix(pattern, order),
        "scan constants must form a key prefix of {order}"
    );
    let out_vars = pattern.vars();

    // Resolve constants; a constant unknown to the dictionary matches nothing.
    let Some(prefix) = ScanPrefix::resolve(ds, pattern, order) else {
        // Empty, but sorted like any scan of this order (a merge join above
        // still checks the declaration).
        let mut table = BindingTable::empty(out_vars);
        table.set_sorted_by(scan_sort_var(pattern, order));
        return table;
    };
    let scan = ds.store().scan(order, prefix.ids());
    if !scan.is_contiguous() {
        ctx.note_overlay_scan();
    }
    let rows = scan.as_slice();

    // A fully ground pattern is a containment check: zero columns, but the
    // row count (0 or 1) still matters to joins and cross products.
    if out_vars.is_empty() {
        return BindingTable::unit(rows.len());
    }

    // Repeated-variable equality constraints: (key index a, key index b).
    let equalities: Vec<(usize, usize)> = repeated_var_keys(pattern, order).collect();

    let cols: Vec<Vec<TermId>> = if equalities.is_empty() {
        // Fast path (no repeated variables): bulk-gather each output column
        // straight out of the key-coordinate rows, one column at a time.
        pattern_keys(pattern, order)
            .map(|(_, k)| rows.iter().map(|row| row[k]).collect())
            .collect()
    } else {
        // Late materialisation: select qualifying row indices first, then
        // gather the columns.
        assert!(
            rows.len() < u32::MAX as usize,
            "scan range exceeds u32 row indexing"
        );
        let sel: Vec<u32> = (0..rows.len())
            .filter(|&i| equalities.iter().all(|&(a, b)| rows[i][a] == rows[i][b]))
            .map(|i| i as u32)
            .collect();
        pattern_keys(pattern, order)
            .map(|(_, k)| sel.iter().map(|&i| rows[i as usize][k]).collect())
            .collect()
    };
    let sorted = scan_sort_var(pattern, order);
    BindingTable::from_columns(out_vars, cols, sorted)
}

/// The dictionary ids of a scan's constants in key order — the prefix its
/// relation range is found by.
pub(crate) struct ScanPrefix {
    ids: [TermId; 3],
    len: usize,
}

impl ScanPrefix {
    /// Resolve the constants `order` puts in front of `pattern`'s first
    /// variable; `None` when one is missing from the dictionary, so the
    /// scan matches nothing.
    pub(crate) fn resolve(ds: &Dataset, pattern: &TriplePattern, order: Order) -> Option<Self> {
        let mut prefix = ScanPrefix {
            ids: [TermId::UNBOUND; 3],
            len: 0,
        };
        for pos in order.positions() {
            match pattern.slot(pos) {
                TermOrVar::Const(term) => {
                    prefix.ids[prefix.len] = ds.dict().id(term)?;
                    prefix.len += 1;
                }
                TermOrVar::Var(_) => break,
            }
        }
        Some(prefix)
    }

    pub(crate) fn ids(&self) -> &[TermId] {
        &self.ids[..self.len]
    }
}

/// Each distinct variable of `pattern` in first-occurrence order (the
/// order of [`TriplePattern::vars`]), with the key index of its first
/// slot under `order`.
pub(crate) fn pattern_keys(
    pattern: &TriplePattern,
    order: Order,
) -> impl Iterator<Item = (Var, usize)> + '_ {
    TriplePos::ALL
        .into_iter()
        .enumerate()
        .filter_map(move |(i, pos)| {
            let v = pattern.slot(pos).as_var()?;
            let first = !TriplePos::ALL[..i]
                .iter()
                .any(|&prev| pattern.slot(prev).as_var() == Some(v));
            first.then(|| (v, order.key_index(pos)))
        })
}

/// Each repeated-variable slot of `pattern` paired with the variable's
/// previous slot, in `s, p, o` order.
fn repeated_var_slots(
    pattern: &TriplePattern,
) -> impl Iterator<Item = (TriplePos, TriplePos)> + '_ {
    TriplePos::ALL
        .into_iter()
        .enumerate()
        .filter_map(|(i, pos)| {
            let v = pattern.slot(pos).as_var()?;
            TriplePos::ALL[..i]
                .iter()
                .rev()
                .find(|&&prev| pattern.slot(prev).as_var() == Some(v))
                .map(|&prev| (prev, pos))
        })
}

/// The equalities a pattern's repeated variables impose on its rows under
/// `order`: `(key index a, key index b)` pairs whose values must match.
pub(crate) fn repeated_var_keys(
    pattern: &TriplePattern,
    order: Order,
) -> impl Iterator<Item = (usize, usize)> + '_ {
    repeated_var_slots(pattern).map(move |(a, b)| (order.key_index(a), order.key_index(b)))
}

/// Sort-merge join on `var`. Both inputs must be sorted by `var`; equality
/// on any further shared variables is enforced pairwise. The output carries
/// the left table's variables followed by the right table's non-shared
/// variables, and stays sorted by `var`.
///
/// One cursor pair ([`crate::kernel::merge_join_pairs`]) emits the
/// matching `(left_row, right_row)` pairs into index vectors, and the
/// output is gathered column at a time. The pipeline executor calls it only
/// for merges with a non-leaf side: a left-deep run of merge joins over
/// scan leaves is one merge-block source instead.
///
/// # Panics
/// Panics if an input is not sorted by `var`.
pub fn merge_join(left: &BindingTable, right: &BindingTable, var: Var) -> BindingTable {
    assert_eq!(
        left.sorted_by(),
        Some(var),
        "merge join: left not sorted by {var}"
    );
    assert_eq!(
        right.sorted_by(),
        Some(var),
        "merge join: right not sorted by {var}"
    );

    check_indexable(left);
    check_indexable(right);
    let (_, right_extra, extra_shared) = join_layout(left, right, &[var]);
    let lcol = left.column(var);
    let rcol = right.column(var);
    let extra_pairs: Vec<(&[TermId], &[TermId])> = extra_shared
        .iter()
        .map(|&v| (left.column(v), right.column(v)))
        .collect();

    let mut lidx = Vec::with_capacity(lcol.len().min(rcol.len()));
    let mut ridx = Vec::with_capacity(lcol.len().min(rcol.len()));
    crate::kernel::merge_join_pairs(lcol, rcol, &extra_pairs, &mut lidx, &mut ridx);

    let mut out = BindingTable::from_join_pairs(left, right, &right_extra, &lidx, &ridx);
    out.set_sorted_by(Some(var));
    out
}

/// Hash join on `vars`: builds a table over the smaller conceptual side —
/// here always `right` (planners put the build side on the right, mirroring
/// the cost model's convention) — and probes with `left`, so the output
/// preserves the left side's ordering.
///
/// The build side is an Fx-hashed flat table over packed `u64` keys for
/// one- and two-variable joins (the dominant case), falling back to a
/// CSR-style bucket directory verified against the key columns for wider
/// keys — no per-probe key allocation either way (see
/// [`crate::kernel::BuildTable`]). One sequential probe emits index pairs,
/// which are gathered column-at-a-time. Pipelines probe the same table
/// morsel-parallel in their probe stages; this kernel serves the
/// operator-at-a-time oracle.
///
/// # Panics
/// Panics if `vars` is empty or not shared by both inputs.
pub fn hash_join(left: &BindingTable, right: &BindingTable, vars: &[Var]) -> BindingTable {
    assert!(!vars.is_empty(), "hash join needs at least one variable");
    for &v in vars {
        assert!(
            left.vars().contains(&v),
            "hash join var {v} missing from left"
        );
        assert!(
            right.vars().contains(&v),
            "hash join var {v} missing from right"
        );
    }
    check_indexable(left);
    check_indexable(right);
    let (_, right_extra, extra_shared) = join_layout(left, right, vars);

    let build_cols: Vec<&[TermId]> = vars.iter().map(|&v| right.column(v)).collect();
    let probe_cols: Vec<&[TermId]> = vars.iter().map(|&v| left.column(v)).collect();
    let table = BuildTable::build(&build_cols, right.len());
    let extra_pairs: Vec<(&[TermId], &[TermId])> = extra_shared
        .iter()
        .map(|&v| (left.column(v), right.column(v)))
        .collect();

    let mut lidx = Vec::with_capacity(left.len());
    let mut ridx = Vec::with_capacity(left.len());
    table.probe_range(
        &build_cols,
        &probe_cols,
        &extra_pairs,
        0..left.len(),
        &mut lidx,
        &mut ridx,
    );

    let mut out = BindingTable::from_join_pairs(left, right, &right_extra, &lidx, &ridx);
    // Probe order is preserved, so the left ordering survives.
    out.set_sorted_by(left.sorted_by());
    out
}

/// Cartesian product (left-major order, so the left ordering survives).
///
/// # Panics
/// Panics if the inputs share a variable.
pub fn cross_product(ctx: &ExecContext, left: &BindingTable, right: &BindingTable) -> BindingTable {
    let shared: Vec<Var> = left
        .vars()
        .iter()
        .copied()
        .filter(|v| right.vars().contains(v))
        .collect();
    assert!(shared.is_empty(), "cross product inputs share {shared:?}");

    let mut out_vars = left.vars().to_vec();
    out_vars.extend_from_slice(right.vars());
    let rows = left.len() * right.len();
    if out_vars.is_empty() {
        // Two unit tables: the product is a unit table with the row product.
        return BindingTable::unit(rows);
    }

    // Pure bulk copies: each left column repeats every value `right.len()`
    // times; each right column is tiled `left.len()` times.
    //
    // This is the one kernel whose output is quadratically larger than its
    // inputs, so it polls the governor every `POLL_STRIDE` copied values:
    // on a trip (deadline, cancellation) it drops the partial columns and
    // hands back an empty *placeholder* table — the caller's trip check
    // surfaces the error and drops the placeholder.
    const POLL_STRIDE: usize = 1 << 16;
    let mut since_poll = 0usize;
    let mut tripped = false;
    let mut cols: Vec<Vec<TermId>> = Vec::with_capacity(out_vars.len());
    'left: for col in left.columns() {
        let mut out = Vec::with_capacity(rows);
        for &v in col {
            out.extend(std::iter::repeat_n(v, right.len()));
            since_poll += right.len();
            if since_poll >= POLL_STRIDE {
                since_poll = 0;
                if ctx.governor_poll() {
                    tripped = true;
                    break 'left;
                }
            }
        }
        cols.push(out);
    }
    if !tripped {
        'right: for col in right.columns() {
            let mut out = Vec::with_capacity(rows);
            for _ in 0..left.len() {
                out.extend_from_slice(col);
                since_poll += col.len();
                if since_poll >= POLL_STRIDE {
                    since_poll = 0;
                    if ctx.governor_poll() {
                        tripped = true;
                        break 'right;
                    }
                }
            }
            cols.push(out);
        }
    }
    if tripped {
        return BindingTable::empty(out_vars);
    }
    let mut out = BindingTable::from_columns(out_vars, cols, None);
    if !right.is_empty() {
        out.set_sorted_by(left.sorted_by());
    }
    out
}

/// Sort a table by `var` (stable), producing an order-enforced copy.
///
/// # Panics
/// Panics if `var` is not a variable of the table.
pub fn sort_by(input: &BindingTable, var: Var) -> BindingTable {
    check_indexable(input);
    let key = input.column(var);
    let mut index: Vec<u32> = (0..input.len() as u32).collect();
    index.sort_by_key(|&i| key[i as usize]); // stable
    let mut out = input.gather(&index);
    out.set_sorted_by(Some(var));
    out
}

/// Rows of pairing every `left` row with every `right` row; an `outer`
/// pairing keeps each left row once when `right` is empty.
pub(crate) fn product_rows(left: usize, right: usize, outer: bool) -> usize {
    left.saturating_mul(if outer { right.max(1) } else { right })
}

/// Left-outer hash join on `vars` (the OPTIONAL operator): every left row
/// survives; unmatched rows carry [`TermId::UNBOUND`] in the right-only
/// columns. Same build and sequential probe as [`hash_join`].
///
/// With `vars` empty (inputs sharing no variable) every left row pairs
/// with every right row — the [`cross_product`] — or, when `right` is
/// empty, survives once with the right columns UNBOUND.
///
/// # Panics
/// Panics if a variable of `vars` is not shared by both inputs.
pub fn left_outer_hash_join(
    ctx: &ExecContext,
    left: &BindingTable,
    right: &BindingTable,
    vars: &[Var],
) -> BindingTable {
    if vars.is_empty() {
        return if right.is_empty() {
            union_all(left, right)
        } else {
            cross_product(ctx, left, right)
        };
    }
    for &v in vars {
        assert!(
            left.vars().contains(&v),
            "outer join var {v} missing from left"
        );
        assert!(
            right.vars().contains(&v),
            "outer join var {v} missing from right"
        );
    }
    check_indexable(left);
    check_indexable(right);
    let (_, right_extra, extra_shared) = join_layout(left, right, vars);

    let build_cols: Vec<&[TermId]> = vars.iter().map(|&v| right.column(v)).collect();
    let probe_cols: Vec<&[TermId]> = vars.iter().map(|&v| left.column(v)).collect();
    let table = BuildTable::build(&build_cols, right.len());
    let extra_pairs: Vec<(&[TermId], &[TermId])> = extra_shared
        .iter()
        .map(|&v| (left.column(v), right.column(v)))
        .collect();

    // Index pairs; an unmatched left row pairs with the `u32::MAX` sentinel,
    // which the gather turns into UNBOUND padding.
    let mut lidx = Vec::with_capacity(left.len());
    let mut ridx = Vec::with_capacity(left.len());
    table.probe_range_outer(
        &build_cols,
        &probe_cols,
        &extra_pairs,
        0..left.len(),
        &mut lidx,
        &mut ridx,
    );

    let mut out = BindingTable::from_join_pairs(left, right, &right_extra, &lidx, &ridx);
    out.set_sorted_by(None); // UNBOUND sentinels may break the left order
    out
}

/// Concatenate two tables over the union of their variables (the UNION
/// operator): columns missing from a branch are padded with
/// [`TermId::UNBOUND`].
pub fn union_all(a: &BindingTable, b: &BindingTable) -> BindingTable {
    let mut out_vars = a.vars().to_vec();
    for &v in b.vars() {
        if !out_vars.contains(&v) {
            out_vars.push(v);
        }
    }
    let rows = a.len() + b.len();
    if out_vars.is_empty() {
        return BindingTable::unit(rows);
    }
    // Column at a time: each branch contributes either a bulk column copy
    // or a run of UNBOUND padding.
    let mut cols: Vec<Vec<TermId>> = Vec::with_capacity(out_vars.len());
    for &v in &out_vars {
        let mut col = Vec::with_capacity(rows);
        for side in [a, b] {
            match side.col_index(v) {
                Some(c) => col.extend_from_slice(&side.columns()[c]),
                None => col.extend(std::iter::repeat_n(TermId::UNBOUND, side.len())),
            }
        }
        cols.push(col);
    }
    BindingTable::from_columns(out_vars, cols, None)
}

thread_local! {
    /// The per-thread expression evaluator of pipeline morsels. A thread
    /// may process many morsels, and constructing a fresh
    /// [`Evaluator`](hsp_sparql::Evaluator) per *morsel* would recompile
    /// every cached regex once per morsel — so the evaluator lives in a
    /// thread-local instead, created lazily on the thread's first morsel.
    /// The threads that run morsels — the pool's workers and every
    /// submitter, e.g. a server's connection threads — live as long as
    /// the process, and so do these evaluators; what keeps them small is
    /// the evaluator's own bound on its regex cache. The breaker kernels
    /// use a plain local evaluator, which costs nothing to build and drops
    /// with the call.
    pub(crate) static WORKER_EVALUATOR: hsp_sparql::Evaluator = hsp_sparql::Evaluator::new();
}

/// Evaluate a residual FILTER, keeping the rows satisfying `expr`.
///
/// [`FilterExpr::Eq`] is term equality and compares interned ids;
/// [`FilterExpr::Complex`] expressions are evaluated with the SPARQL typed
/// value semantics of [`hsp_sparql::expr`] by one local
/// [`Evaluator`](hsp_sparql::Evaluator) (and hence one compiled-regex
/// cache) over all rows. Pipelines evaluate FILTER as a morsel-parallel
/// stage; this kernel serves the operator-at-a-time oracle.
pub(crate) fn filter(ds: &Dataset, input: &BindingTable, expr: &FilterExpr) -> BindingTable {
    check_indexable(input);
    let evaluator = hsp_sparql::Evaluator::new();
    let sel: Vec<u32> = (0..input.len())
        .filter(|&i| eval_expr(ds, input, expr, i, &evaluator))
        .map(|i| i as u32)
        .collect();
    let mut out = input.gather(&sel);
    out.set_sorted_by(input.sorted_by());
    out
}

/// Bind constants: `input`'s columns plus one column per `(var, term)`
/// holding the term's id in every row. The plan top binds only variables
/// the rewrite put into a pattern as the same constant, so a term the
/// dictionary lacks matched nothing and the input is empty.
pub(crate) fn bind(ds: &Dataset, input: &BindingTable, bindings: &[(Var, Term)]) -> BindingTable {
    let mut vars = input.vars().to_vec();
    let mut cols = input.columns().to_vec();
    for (v, t) in bindings {
        vars.push(*v);
        cols.push(vec![
            ds.dict().id(t).unwrap_or(TermId::UNBOUND);
            input.len()
        ]);
    }
    BindingTable::from_columns(vars, cols, input.sorted_by())
}

/// `ORDER BY`: stable sort by the given keys under the SPARQL §9.1 value
/// order (see [`hsp_sparql::expr::compare_for_order`]). Key expressions
/// that error evaluate as unbound (sorting first), matching the usual
/// engine behaviour for, e.g., `ORDER BY` over a variable that is unbound
/// in some rows.
///
/// Every key expression is evaluated once per row (decorate), the
/// decorated rows are sorted, and the output is gathered in sorted order.
/// ORDER BY is a breaker: it runs sequentially on the coordinating thread.
pub fn order_by(
    ctx: &ExecContext,
    ds: &Dataset,
    input: &BindingTable,
    keys: &[hsp_sparql::SortKey],
) -> BindingTable {
    use hsp_sparql::expr::compare_for_order;
    check_indexable(input);

    // Aggregate outputs above this ORDER BY may carry computed ids, which
    // resolve through the context's overlay.
    let overlay = ctx.computed_overlay();
    let evaluator = hsp_sparql::Evaluator::new();
    let mut decorated: Vec<(usize, Vec<Option<hsp_sparql::Value>>)> = (0..input.len())
        .map(|i| {
            let bindings = RowBindings {
                ds,
                overlay: &overlay,
                table: input,
                row: i,
            };
            let key_vals = keys
                .iter()
                .map(|k| evaluator.eval(&k.expr, &bindings).ok())
                .collect();
            (i, key_vals)
        })
        .collect();
    // A stable sort: equal-key rows keep input order.
    decorated.sort_by(|(_, ka), (_, kb)| {
        for (key, (va, vb)) in keys.iter().zip(ka.iter().zip(kb.iter())) {
            let ord = compare_for_order(va.as_ref(), vb.as_ref());
            let ord = if key.descending { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });

    let sel: Vec<u32> = decorated.iter().map(|&(i, _)| i as u32).collect();
    // The ORDER BY value order is not the TermId order merge joins need,
    // so the gathered output's default of no sortedness is correct.
    input.gather(&sel)
}

/// `OFFSET`/`LIMIT`: keep `limit` rows starting at `offset`.
pub fn slice(input: &BindingTable, offset: usize, limit: Option<usize>) -> BindingTable {
    let start = offset.min(input.len());
    let end = match limit {
        Some(n) => (start + n).min(input.len()),
        None => input.len(),
    };
    if input.vars().is_empty() {
        return BindingTable::unit(end - start);
    }
    // A slice is a contiguous bulk copy per column.
    let cols: Vec<Vec<TermId>> = input
        .columns()
        .iter()
        .map(|c| c[start..end].to_vec())
        .collect();
    let mut out = BindingTable::from_columns(input.vars().to_vec(), cols, None);
    out.set_sorted_by(input.sorted_by());
    out
}

/// Project to the given `(name, var)` list, optionally deduplicating.
/// Duplicated projection entries referring to the same variable (after
/// FILTER unification) share one column in the output's variable list.
pub fn project(input: &BindingTable, projection: &[(String, Var)], distinct: bool) -> BindingTable {
    if projection.is_empty() {
        // ASK-style degenerate projection: keep only the row count.
        let rows = if distinct {
            input.len().min(1)
        } else {
            input.len()
        };
        return BindingTable::unit(rows);
    }
    let mut out_vars: Vec<Var> = Vec::new();
    for &(_, v) in projection {
        if !out_vars.contains(&v) {
            out_vars.push(v);
        }
    }
    let src: Vec<&[TermId]> = out_vars
        .iter()
        .map(|&v| {
            input
                .col_index(v)
                .map(|c| input.columns()[c].as_slice())
                // invariant: `PhysicalPlan::validate` rejects projections
                // over variables the input does not bind.
                .expect("validated projection")
        })
        .collect();

    let cols: Vec<Vec<TermId>> = if !distinct {
        // Plain projection is a bulk column copy.
        src.iter().map(|c| c.to_vec()).collect()
    } else {
        check_indexable(input);
        let sel = distinct_first_occurrences(&src, input.len());
        src.iter()
            .map(|c| crate::binding::gather_column(c, &sel))
            .collect()
    };
    let keep_sort = input.sorted_by().filter(|v| out_vars.contains(v));
    BindingTable::from_columns(out_vars, cols, keep_sort)
}

/// Row indices of the first occurrence of each distinct row of the given
/// columns, ascending — the selection vector of `project(distinct = true)`.
///
/// Rows of one or two columns deduplicate through a packed-`u64` Fx hash
/// set; wider rows go through a sort index and keep each equal group's
/// smallest original index — neither path allocates per row.
pub(crate) fn distinct_first_occurrences(cols: &[&[TermId]], rows: usize) -> Vec<u32> {
    let mut sel: Vec<u32> = Vec::new();
    match cols {
        // invariant: the caller routes empty projections through the
        // unit-table fast path before reaching this kernel.
        [] => unreachable!("zero-column projection handled by the unit path"),
        [a] => {
            let mut seen: HashSet<u64, FxBuildHasher> = HashSet::default();
            for i in 0..rows {
                if seen.insert(crate::kernel::pack2(a[i], TermId(0))) {
                    sel.push(i as u32);
                }
            }
        }
        [a, b] => {
            let mut seen: HashSet<u64, FxBuildHasher> = HashSet::default();
            for i in 0..rows {
                if seen.insert(crate::kernel::pack2(a[i], b[i])) {
                    sel.push(i as u32);
                }
            }
        }
        _ => {
            let mut order: Vec<u32> = (0..rows as u32).collect();
            order.sort_unstable_by(|&x, &y| {
                crate::binding::cmp_rows_at(cols, x as usize, y as usize)
            });
            let mut k = 0;
            while k < order.len() {
                let mut end = k + 1;
                while end < order.len()
                    && cols
                        .iter()
                        .all(|c| c[order[end] as usize] == c[order[k] as usize])
                {
                    end += 1;
                }
                // invariant: `end > k`, so the group slice is non-empty.
                sel.push(*order[k..end].iter().min().expect("nonempty group"));
                k = end;
            }
            sel.sort_unstable();
        }
    }
    sel
}

/// Shared layout computation for joins: output variables, the right-side
/// extra (non-shared) variables, and the shared variables *not* already used
/// as join keys (checked pairwise).
pub(crate) fn join_layout(
    left: &BindingTable,
    right: &BindingTable,
    join_vars: &[Var],
) -> (Vec<Var>, Vec<Var>, Vec<Var>) {
    let mut out_vars = left.vars().to_vec();
    let mut right_extra = Vec::new();
    for &v in right.vars() {
        if !out_vars.contains(&v) {
            out_vars.push(v);
            right_extra.push(v);
        }
    }
    let extra_shared: Vec<Var> = left
        .vars()
        .iter()
        .copied()
        .filter(|v| right.vars().contains(v) && !join_vars.contains(v))
        .collect();
    (out_vars, right_extra, extra_shared)
}

/// Row-addressed variable lookup — the surface FILTER evaluation reads
/// values through. Implemented by [`BindingTable`] (materialised rows,
/// the operator-at-a-time case) and by the pipeline executor's composed
/// index-tuple rows ([`crate::pipeline`]), so one expression evaluator
/// serves both execution models. A variable missing from the row reads
/// as [`TermId::UNBOUND`].
pub(crate) trait RowValues {
    /// The value bound to `v` in row `row` (UNBOUND when absent).
    fn row_value(&self, v: Var, row: usize) -> TermId;
}

impl RowValues for BindingTable {
    fn row_value(&self, v: Var, row: usize) -> TermId {
        match self.col_index(v) {
            Some(c) => self.columns()[c][row],
            None => TermId::UNBOUND,
        }
    }
}

/// Evaluate a FILTER expression on one row of any [`RowValues`] view.
pub(crate) fn eval_expr<V: RowValues>(
    ds: &Dataset,
    table: &V,
    expr: &FilterExpr,
    row: usize,
    evaluator: &hsp_sparql::Evaluator,
) -> bool {
    match expr {
        FilterExpr::Eq(lhs, rhs) => {
            // Term equality: interning is injective, and a constant the
            // dictionary lacks equals no bound value. UNBOUND (an OPTIONAL
            // or UNION pad) equals nothing.
            let id = |o: &Operand| match o {
                Operand::Var(v) => Some(table.row_value(*v, row)),
                Operand::Const(t) => ds.dict().id(t),
            };
            match (lhs, rhs) {
                (Operand::Const(a), Operand::Const(b)) => a == b,
                _ => matches!((id(lhs), id(rhs)), (Some(a), Some(b)) if a == b && !a.is_unbound()),
            }
        }
        FilterExpr::Complex(e) => {
            // Filters sit below aggregation in planned trees, so their rows
            // never carry computed ids — no overlay needed here.
            let bindings = RowBindings {
                ds,
                overlay: &[],
                table,
                row,
            };
            evaluator.matches(e, &bindings)
        }
    }
}

/// [`hsp_sparql::Bindings`] over one row of a dictionary-encoded row view:
/// decodes ids back to terms on demand; the UNBOUND sentinel (and a
/// variable missing from the view entirely) reads as unbound. `overlay`
/// is a snapshot of the execution's computed-term overlay (aggregate
/// outputs like an `AVG` that is not in the dictionary).
struct RowBindings<'a, V> {
    ds: &'a Dataset,
    overlay: &'a [Term],
    table: &'a V,
    row: usize,
}

impl<V: RowValues> hsp_sparql::Bindings for RowBindings<'_, V> {
    fn term(&self, v: Var) -> Option<Term> {
        crate::binding::resolve_term(self.ds, self.overlay, self.table.row_value(v, self.row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsp_rdf::Term;
    use hsp_sparql::{CmpOp, Expr};

    /// `?v op c` as lowering emits it: a typed comparison.
    fn cmp(op: CmpOp, v: u32, c: Term) -> FilterExpr {
        FilterExpr::Complex(Expr::cmp(op, Expr::Var(Var(v)), Expr::Const(c)))
    }

    fn dataset() -> Dataset {
        Dataset::from_ntriples(
            r#"<http://e/a1> <http://e/p> <http://e/b1> .
<http://e/a1> <http://e/p> <http://e/b2> .
<http://e/a2> <http://e/p> <http://e/b1> .
<http://e/a1> <http://e/q> "5" .
<http://e/a2> <http://e/q> "7" .
<http://e/b1> <http://e/r> "x" .
"#,
        )
        .unwrap()
    }

    fn cv(name: &str) -> TermOrVar {
        TermOrVar::Const(Term::iri(format!("http://e/{name}")))
    }

    fn vv(i: u32) -> TermOrVar {
        TermOrVar::Var(Var(i))
    }

    /// Scan the fixture's `?s <http://e/pred> ?o` edges in `order`.
    fn edges(
        ctx: &ExecContext,
        ds: &Dataset,
        s: u32,
        pred: &str,
        o: u32,
        order: Order,
    ) -> BindingTable {
        scan(ctx, ds, &TriplePattern::new(vv(s), cv(pred), vv(o)), order)
    }

    #[test]
    fn scan_bound_predicate() {
        let ctx = ExecContext::new();
        let ds = dataset();
        let pat = TriplePattern::new(vv(0), cv("p"), vv(1));
        let t = scan(&ctx, &ds, &pat, Order::Pso);
        assert_eq!(t.len(), 3);
        assert_eq!(t.sorted_by(), Some(Var(0)));
        assert!(t.check_sortedness());
    }

    #[test]
    fn scan_sorted_by_object_side() {
        let ctx = ExecContext::new();
        let ds = dataset();
        let pat = TriplePattern::new(vv(0), cv("p"), vv(1));
        let t = scan(&ctx, &ds, &pat, Order::Pos);
        assert_eq!(t.len(), 3);
        assert_eq!(t.sorted_by(), Some(Var(1)));
        assert!(t.check_sortedness());
    }

    #[test]
    fn scan_unknown_constant_is_empty() {
        let ctx = ExecContext::new();
        let ds = dataset();
        let pat = TriplePattern::new(vv(0), cv("nope"), vv(1));
        let t = scan(&ctx, &ds, &pat, Order::Pso);
        assert!(t.is_empty());
    }

    #[test]
    fn scan_full_relation() {
        let ctx = ExecContext::new();
        let ds = dataset();
        let pat = TriplePattern::new(vv(0), vv(1), vv(2));
        let t = scan(&ctx, &ds, &pat, Order::Spo);
        assert_eq!(t.len(), 6);
        assert_eq!(t.sorted_by(), Some(Var(0)));
    }

    #[test]
    fn scan_repeated_variable_filters() {
        let ctx = ExecContext::new();
        // ?x ?p ?x — no subject equals its object in the fixture.
        let ds = dataset();
        let pat = TriplePattern::new(vv(0), vv(1), vv(0));
        let t = scan(&ctx, &ds, &pat, Order::Spo);
        assert_eq!(t.len(), 0);
        assert_eq!(t.vars(), &[Var(0), Var(1)]);
    }

    #[test]
    fn merge_join_basic() {
        let ctx = ExecContext::new();
        let ds = dataset();
        let l = edges(&ctx, &ds, 0, "p", 1, Order::Pso);
        let r = edges(&ctx, &ds, 0, "q", 2, Order::Pso);
        let j = merge_join(&l, &r, Var(0));
        // a1 has 2 p-edges and 1 q-edge, a2 has 1 and 1: 3 rows.
        assert_eq!(j.len(), 3);
        assert_eq!(j.vars(), &[Var(0), Var(1), Var(2)]);
        assert_eq!(j.sorted_by(), Some(Var(0)));
        assert!(j.check_sortedness());
    }

    #[test]
    fn merge_join_equals_hash_join() {
        let ctx = ExecContext::new();
        let ds = dataset();
        let l = edges(&ctx, &ds, 0, "p", 1, Order::Pso);
        let r = edges(&ctx, &ds, 0, "q", 2, Order::Pso);
        let mj = merge_join(&l, &r, Var(0));
        let hj = hash_join(&l, &r, &[Var(0)]);
        assert_eq!(mj.sorted_rows(), hj.sorted_rows());
    }

    #[test]
    fn hash_join_on_chain() {
        let ctx = ExecContext::new();
        let ds = dataset();
        // ?a p ?b  ⋈  ?b r ?c  (s=o join on ?b)
        let l = edges(&ctx, &ds, 0, "p", 1, Order::Pso);
        let r = edges(&ctx, &ds, 1, "r", 2, Order::Pso);
        let j = hash_join(&l, &r, &[Var(1)]);
        // b1 has one r-edge; two p-edges end in b1.
        assert_eq!(j.len(), 2);
    }

    #[test]
    #[should_panic(expected = "not sorted by")]
    fn merge_join_rejects_unsorted_input() {
        let ctx = ExecContext::new();
        let ds = dataset();
        let l = edges(&ctx, &ds, 0, "p", 1, Order::Pso);
        let r = edges(&ctx, &ds, 0, "q", 2, Order::Pos);
        merge_join(&l, &r, Var(0));
    }

    #[test]
    fn cross_product_counts() {
        let ctx = ExecContext::new();
        let ds = dataset();
        let l = edges(&ctx, &ds, 0, "q", 1, Order::Pso);
        let r = edges(&ctx, &ds, 2, "r", 3, Order::Pso);
        let x = cross_product(&ctx, &l, &r);
        assert_eq!(x.len(), l.len() * r.len());
        assert_eq!(x.vars().len(), 4);
    }

    #[test]
    fn filter_numeric_comparison() {
        let ctx = ExecContext::new();
        let ds = dataset();
        let t = edges(&ctx, &ds, 0, "q", 1, Order::Pso);
        let expr = cmp(CmpOp::Gt, 1, Term::literal("6"));
        let f = filter(&ds, &t, &expr);
        assert_eq!(f.len(), 1); // only "7" > "6"
    }

    #[test]
    fn filter_equality_on_foreign_constant() {
        let ctx = ExecContext::new();
        let ds = dataset();
        let t = edges(&ctx, &ds, 0, "q", 1, Order::Pso);
        let expr = FilterExpr::Eq(
            Operand::Var(Var(1)),
            Operand::Const(Term::literal("not in dict")),
        );
        assert!(filter(&ds, &t, &expr).is_empty());
        let ne = cmp(CmpOp::Ne, 1, Term::literal("not in dict"));
        assert_eq!(filter(&ds, &t, &ne).len(), t.len());
    }

    #[test]
    fn project_plain_and_distinct() {
        let ctx = ExecContext::new();
        let ds = dataset();
        let t = edges(&ctx, &ds, 0, "p", 1, Order::Pso);
        let p = project(&t, &[("s".into(), Var(0))], false);
        assert_eq!(p.len(), 3);
        let d = project(&t, &[("s".into(), Var(0))], true);
        assert_eq!(d.len(), 2); // a1, a2
        assert_eq!(d.sorted_by(), Some(Var(0)));
    }

    #[test]
    fn project_duplicate_entries_share_column() {
        let ctx = ExecContext::new();
        let ds = dataset();
        let t = edges(&ctx, &ds, 0, "p", 1, Order::Pso);
        let p = project(&t, &[("a".into(), Var(0)), ("b".into(), Var(0))], false);
        assert_eq!(p.vars(), &[Var(0)]);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn sort_by_enforces_order() {
        let ctx = ExecContext::new();
        let ds = dataset();
        // POS scan is sorted by the object; re-sort by the subject.
        let t = edges(&ctx, &ds, 0, "p", 1, Order::Pos);
        assert_eq!(t.sorted_by(), Some(Var(1)));
        let sorted = sort_by(&t, Var(0));
        assert_eq!(sorted.sorted_by(), Some(Var(0)));
        assert!(sorted.check_sortedness());
        assert_eq!(sorted.len(), t.len());
        assert_eq!(sorted.sorted_rows(), t.sorted_rows());
    }

    #[test]
    fn sort_enables_merge_join() {
        let ctx = ExecContext::new();
        let ds = dataset();
        let l = edges(&ctx, &ds, 0, "p", 1, Order::Pso);
        let r_wrong_order = edges(&ctx, &ds, 0, "q", 2, Order::Pos);
        let r = sort_by(&r_wrong_order, Var(0));
        let mj = merge_join(&l, &r, Var(0));
        let hj = hash_join(&l, &r_wrong_order, &[Var(0)]);
        assert_eq!(mj.sorted_rows(), hj.sorted_rows());
    }

    #[test]
    fn left_outer_join_keeps_unmatched_rows() {
        let ctx = ExecContext::new();
        let ds = dataset();
        // ?a p ?b  LEFT OUTER  ?b r ?c: only b1 has an r-edge.
        let l = edges(&ctx, &ds, 0, "p", 1, Order::Pso);
        let r = edges(&ctx, &ds, 1, "r", 2, Order::Pso);
        let j = left_outer_hash_join(&ctx, &l, &r, &[Var(1)]);
        assert_eq!(j.len(), 3); // every p-edge survives
        let c_col = j.column(Var(2));
        let unbound = c_col.iter().filter(|id| id.is_unbound()).count();
        assert_eq!(unbound, 1); // the b2 edge has no r-match
    }

    #[test]
    fn left_outer_join_equals_inner_when_all_match() {
        let ctx = ExecContext::new();
        let ds = dataset();
        let l = edges(&ctx, &ds, 0, "q", 1, Order::Pso);
        let r = edges(&ctx, &ds, 0, "p", 2, Order::Pso);
        let outer = left_outer_hash_join(&ctx, &l, &r, &[Var(0)]);
        let inner = hash_join(&l, &r, &[Var(0)]);
        assert_eq!(outer.sorted_rows(), inner.sorted_rows());
    }

    #[test]
    fn union_all_pads_missing_columns() {
        let ctx = ExecContext::new();
        let ds = dataset();
        let a = edges(&ctx, &ds, 0, "q", 1, Order::Pso);
        let b = edges(&ctx, &ds, 0, "r", 2, Order::Pso);
        let u = union_all(&a, &b);
        assert_eq!(u.len(), a.len() + b.len());
        assert_eq!(u.vars(), &[Var(0), Var(1), Var(2)]);
        // Rows from `a` have UNBOUND in ?2; rows from `b` in ?1.
        assert!(u.column(Var(2))[..a.len()].iter().all(|id| id.is_unbound()));
        assert!(u.column(Var(1))[a.len()..].iter().all(|id| id.is_unbound()));
    }

    #[test]
    fn filter_on_unbound_is_false() {
        let ctx = ExecContext::new();
        let ds = dataset();
        let l = edges(&ctx, &ds, 0, "p", 1, Order::Pso);
        let r = edges(&ctx, &ds, 1, "r", 2, Order::Pso);
        let j = left_outer_hash_join(&ctx, &l, &r, &[Var(1)]);
        // ?c = "x" keeps matched rows only; ?c != "x" keeps NO unbound rows
        // either (type error semantics).
        let eq = FilterExpr::Eq(Operand::Var(Var(2)), Operand::Const(Term::literal("x")));
        assert_eq!(filter(&ds, &j, &eq).len(), 2);
        let ne = cmp(CmpOp::Ne, 2, Term::literal("x"));
        assert_eq!(filter(&ds, &j, &ne).len(), 0);
    }

    #[test]
    fn scan_fully_ground_pattern_is_unit() {
        let ctx = ExecContext::new();
        let ds = dataset();
        let present = TriplePattern::new(cv("a1"), cv("p"), cv("b1"));
        let t = scan(&ctx, &ds, &present, Order::Spo);
        assert_eq!(t.len(), 1);
        assert!(t.vars().is_empty());
        let absent = TriplePattern::new(cv("a1"), cv("p"), cv("b9"));
        assert_eq!(scan(&ctx, &ds, &absent, Order::Spo).len(), 0);
    }

    #[test]
    fn cross_product_with_unit_table_keeps_rows() {
        let ctx = ExecContext::new();
        let ds = dataset();
        let l = scan(
            &ctx,
            &ds,
            &TriplePattern::new(cv("a1"), cv("p"), cv("b1")),
            Order::Spo,
        );
        let r = edges(&ctx, &ds, 0, "q", 1, Order::Pso);
        let x = cross_product(&ctx, &l, &r);
        assert_eq!(x.len(), 2); // 1 unit row × 2 q-rows
        assert_eq!(x.vars(), &[Var(0), Var(1)]);
        // An absent ground pattern annihilates the product.
        let l0 = scan(
            &ctx,
            &ds,
            &TriplePattern::new(cv("a1"), cv("p"), cv("b9")),
            Order::Spo,
        );
        assert_eq!(cross_product(&ctx, &l0, &r).len(), 0);
    }

    #[test]
    fn empty_projection_keeps_row_count() {
        let ctx = ExecContext::new();
        let ds = dataset();
        let t = edges(&ctx, &ds, 0, "p", 1, Order::Pso);
        let p = project(&t, &[], false);
        assert_eq!(p.len(), 3);
        assert!(p.vars().is_empty());
        assert_eq!(project(&t, &[], true).len(), 1);
    }

    #[test]
    fn complex_filter_regex() {
        let ctx = ExecContext::new();
        let ds = Dataset::from_ntriples(
            r#"<http://e/j1> <http://e/title> "Journal 1 (1940)" .
<http://e/j2> <http://e/title> "Journal 1 (1952)" .
<http://e/j3> <http://e/title> "Article 9" .
"#,
        )
        .unwrap();
        // Scan all titles, keep those matching \(19\d\d\).
        let t = scan(
            &ctx,
            &ds,
            &TriplePattern::new(vv(0), TermOrVar::Const(Term::iri("http://e/title")), vv(1)),
            Order::Pso,
        );
        assert_eq!(t.len(), 3);
        let expr = FilterExpr::Complex(Expr::Call {
            func: hsp_sparql::Func::Regex,
            args: vec![Expr::Var(Var(1)), Expr::Const(Term::literal(r"\(19\d\d\)"))],
        });
        let out = filter(&ds, &t, &expr);
        assert_eq!(out.len(), 2);
        // Sortedness is preserved by filtering.
        assert_eq!(out.sorted_by(), t.sorted_by());
    }

    #[test]
    fn complex_filter_arithmetic_on_typed_literals() {
        let ctx = ExecContext::new();
        let ds = Dataset::from_ntriples(
            r#"<http://e/a> <http://e/pages> "10"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://e/b> <http://e/pages> "25"^^<http://www.w3.org/2001/XMLSchema#integer> .
"#,
        )
        .unwrap();
        let t = scan(
            &ctx,
            &ds,
            &TriplePattern::new(vv(0), TermOrVar::Const(Term::iri("http://e/pages")), vv(1)),
            Order::Pso,
        );
        // FILTER (?pages * 2 > 30)
        let expr = FilterExpr::Complex(Expr::Cmp {
            op: CmpOp::Gt,
            lhs: Box::new(Expr::Arith {
                op: hsp_sparql::ArithOp::Mul,
                lhs: Box::new(Expr::Var(Var(1))),
                rhs: Box::new(Expr::Const(Term::typed_literal(
                    "2",
                    hsp_rdf::vocab::XSD_INTEGER,
                ))),
            }),
            rhs: Box::new(Expr::Const(Term::typed_literal(
                "30",
                hsp_rdf::vocab::XSD_INTEGER,
            ))),
        });
        let out = filter(&ds, &t, &expr);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn complex_filter_unbound_var_drops_row() {
        let ctx = ExecContext::new();
        let ds = dataset();
        let t = edges(&ctx, &ds, 0, "p", 1, Order::Pso);
        // FILTER on a variable not in the table: every row errors → empty.
        let expr = cmp(CmpOp::Eq, 9, Term::literal("x"));
        assert_eq!(filter(&ds, &t, &expr).len(), 0);
        // …but BOUND(?v9) = false keeps them all.
        let expr = FilterExpr::Complex(Expr::Not(Box::new(Expr::Call {
            func: hsp_sparql::Func::Bound,
            args: vec![Expr::Var(Var(9))],
        })));
        assert_eq!(filter(&ds, &t, &expr).len(), t.len());
    }

    #[test]
    fn order_by_sparql_value_order() {
        let ctx = ExecContext::new();
        let ds = Dataset::from_ntriples(
            r#"<http://e/a> <http://e/n> "10"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://e/b> <http://e/n> "9"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://e/c> <http://e/n> "100"^^<http://www.w3.org/2001/XMLSchema#integer> .
"#,
        )
        .unwrap();
        let t = scan(
            &ctx,
            &ds,
            &TriplePattern::new(vv(0), TermOrVar::Const(Term::iri("http://e/n")), vv(1)),
            Order::Pso,
        );
        let keys = vec![hsp_sparql::SortKey {
            expr: hsp_sparql::Expr::Var(Var(1)),
            descending: false,
        }];
        let sorted = order_by(&ctx, &ds, &t, &keys);
        // Numeric order 9 < 10 < 100, not lexicographic "10" < "100" < "9".
        let vals: Vec<String> = (0..sorted.len())
            .map(|i| {
                ds.dict()
                    .term(sorted.value(Var(1), i))
                    .lexical()
                    .to_string()
            })
            .collect();
        assert_eq!(vals, vec!["9", "10", "100"]);
        // Descending reverses.
        let keys = vec![hsp_sparql::SortKey {
            expr: hsp_sparql::Expr::Var(Var(1)),
            descending: true,
        }];
        let sorted = order_by(&ctx, &ds, &t, &keys);
        assert_eq!(ds.dict().term(sorted.value(Var(1), 0)).lexical(), "100");
    }

    #[test]
    fn order_by_is_stable_on_ties() {
        let ctx = ExecContext::new();
        let ds = dataset();
        let t = edges(&ctx, &ds, 0, "p", 1, Order::Pso);
        // Sort by a constant key: every row ties, order must be unchanged.
        let keys = vec![hsp_sparql::SortKey {
            expr: hsp_sparql::Expr::Const(Term::literal("same")),
            descending: false,
        }];
        let sorted = order_by(&ctx, &ds, &t, &keys);
        assert_eq!(sorted.sorted_rows(), t.sorted_rows());
        for i in 0..t.len() {
            assert_eq!(sorted.row(i), t.row(i));
        }
    }

    #[test]
    fn slice_bounds() {
        let ctx = ExecContext::new();
        let ds = dataset();
        let t = edges(&ctx, &ds, 0, "p", 1, Order::Pso);
        assert_eq!(t.len(), 3);
        assert_eq!(slice(&t, 0, Some(2)).len(), 2);
        assert_eq!(slice(&t, 1, Some(2)).len(), 2);
        assert_eq!(slice(&t, 2, Some(2)).len(), 1);
        assert_eq!(slice(&t, 5, Some(2)).len(), 0);
        assert_eq!(slice(&t, 0, None).len(), 3);
        assert_eq!(slice(&t, 1, None).len(), 2);
        // offset+limit partition the input.
        let a = slice(&t, 0, Some(1));
        let b = slice(&t, 1, None);
        assert_eq!(a.len() + b.len(), t.len());
        assert_eq!(a.row(0), t.row(0));
        assert_eq!(b.row(0), t.row(1));
        // Slicing preserves sortedness metadata.
        assert_eq!(slice(&t, 1, Some(1)).sorted_by(), t.sorted_by());
    }

    /// Deterministic pseudo-random tables big enough to span many morsels.
    fn big_join_inputs(n: usize) -> (BindingTable, BindingTable) {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |m: u32| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 33) as u32 % m
        };
        let keys = (n / 4).max(1) as u32;
        let lk: Vec<TermId> = (0..n).map(|_| TermId(next(keys))).collect();
        let rk: Vec<TermId> = (0..n).map(|_| TermId(next(keys))).collect();
        let lp: Vec<TermId> = (0..n as u32).map(|i| TermId(1_000_000 + i)).collect();
        let rp: Vec<TermId> = (0..n as u32).map(|i| TermId(2_000_000 + i)).collect();
        (
            BindingTable::from_columns(vec![Var(0), Var(1)], vec![lk, lp], None),
            BindingTable::from_columns(vec![Var(0), Var(2)], vec![rk, rp], None),
        )
    }

    #[test]
    fn merge_join_with_extra_shared_var() {
        // Both inputs bind ?0 and ?1; join on ?0, ?1 must match too.
        let l = BindingTable::from_columns(
            vec![Var(0), Var(1)],
            vec![
                vec![TermId(1), TermId(1), TermId(2)],
                vec![TermId(5), TermId(6), TermId(7)],
            ],
            Some(Var(0)),
        );
        let r = BindingTable::from_columns(
            vec![Var(0), Var(1)],
            vec![vec![TermId(1), TermId(2)], vec![TermId(6), TermId(9)]],
            Some(Var(0)),
        );
        let j = merge_join(&l, &r, Var(0));
        assert_eq!(j.len(), 1); // only (1, 6) matches on both columns
        assert_eq!(j.row(0), vec![TermId(1), TermId(6)]);

        // Many key groups with the shared column drawn from a tiny domain,
        // and one key group spanning both whole inputs: the cursor pair
        // agrees with the nested-loop reference.
        let n = 1_000;
        let (l0, r0) = big_join_inputs(n);
        let sorted_keys = |t: &BindingTable| {
            let mut keys = t.column(Var(0)).to_vec();
            keys.sort_unstable();
            keys
        };
        let shared: Vec<TermId> = (0..n as u32).map(|i| TermId(i % 5)).collect();
        let giant = vec![TermId(7); n];
        for (lk, rk) in [(sorted_keys(&l0), sorted_keys(&r0)), (giant.clone(), giant)] {
            let l = BindingTable::from_columns(
                vec![Var(0), Var(1)],
                vec![lk, shared.clone()],
                Some(Var(0)),
            );
            let r = BindingTable::from_columns(
                vec![Var(0), Var(1)],
                vec![rk, shared.clone()],
                Some(Var(0)),
            );
            let j = merge_join(&l, &r, Var(0));
            assert!(j.check_sortedness());
            assert_eq!(
                j.sorted_rows(),
                crate::reference::nested_loop_join_rows(&l, &r)
            );
        }
    }
}
