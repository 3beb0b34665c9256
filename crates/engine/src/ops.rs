//! The physical operators: scan-select, merge join, hash join, cross
//! product, filter, projection, distinct.
//!
//! All operators are *operator-at-a-time*: they consume and produce fully
//! materialised [`BindingTable`]s, mirroring MonetDB's execution model —
//! and since the vectorization rework they are also *late-materializing*:
//! joins and selections first produce compact row-index (or index-pair)
//! vectors, then build their output **column at a time** through the bulk
//! gather primitives on [`BindingTable`] ([`BindingTable::gather`] /
//! [`BindingTable::from_join_pairs`]) instead of per-value `push_row`
//! appends. The previous row-at-a-time kernels live on in
//! [`crate::reference`] as the benchmark baseline and differential-testing
//! oracle.
//!
//! Every operator takes the execution's [`ExecContext`], which supplies the
//! [`crate::morsel`] thread budget for the parallel fast paths (hash-join
//! build and probe, the range-partitioned merge join, scan
//! gather/selection, FILTER evaluation and ORDER BY key extraction) and the
//! [`crate::pool::BufferPool`] the gather phase checks output columns out
//! of.

use std::collections::HashSet;

use hsp_rdf::{Term, TermId, TermKind};
use hsp_sparql::{CmpOp, FilterExpr, Operand, TermOrVar, TriplePattern, Var};
use hsp_store::{Dataset, Order, StorageBackend};

use crate::binding::BindingTable;
use crate::kernel::{BuildTable, FxBuildHasher};
use crate::morsel;
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
/// The no-repeated-variable fast path gathers each output column in
/// parallel stripes when the range clears the morsel threshold, the
/// repeated-variable path selects qualifying rows morsel-at-a-time, and all
/// output columns come from the context's pool.
///
/// # Panics
/// Panics if the pattern's constants do not form a prefix of `order`'s key
/// ([`PhysicalPlan::validate`](crate::plan::PhysicalPlan::validate) catches
/// this earlier).
pub fn scan(
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
    let mut prefix: Vec<TermId> = Vec::with_capacity(3);
    for pos in order.positions() {
        match pattern.slot(pos) {
            TermOrVar::Const(term) => match ds.dict().id(term) {
                Some(id) => prefix.push(id),
                None => {
                    // Empty, but sorted like any scan of this order (a
                    // merge join above still checks the declaration) and
                    // pooled like one (its consumer recycles the columns).
                    let cols = out_vars.iter().map(|_| ctx.pool.take_col(0)).collect();
                    let sorted = scan_sort_var(pattern, order);
                    return BindingTable::from_columns(out_vars, cols, sorted);
                }
            },
            TermOrVar::Var(_) => break,
        }
    }

    let scan = ds.store().scan(order, &prefix);
    if !scan.is_contiguous() {
        ctx.note_merged_scan();
    }
    let rows = scan.as_slice();

    // A fully ground pattern is a containment check: zero columns, but the
    // row count (0 or 1) still matters to joins and cross products.
    if out_vars.is_empty() {
        return BindingTable::unit(rows.len());
    }

    // Key indices of each output variable's (first) slot.
    let var_key_idx: Vec<usize> = out_vars
        .iter()
        .map(|&v| {
            let pos = pattern.positions_of(v)[0];
            order.key_index(pos)
        })
        .collect();

    // Repeated-variable equality constraints: (key index a, key index b).
    let mut equalities: Vec<(usize, usize)> = Vec::new();
    for &v in &out_vars {
        let positions = pattern.positions_of(v);
        for pair in positions.windows(2) {
            equalities.push((order.key_index(pair[0]), order.key_index(pair[1])));
        }
    }

    let mut cols: Vec<Vec<TermId>> = Vec::with_capacity(out_vars.len());
    if equalities.is_empty() {
        // Fast path (no repeated variables): bulk-gather each output column
        // straight out of the key-coordinate rows, one column at a time —
        // in parallel stripes when the range is large enough.
        let parallel = ctx.morsel.workers_for(rows.len()) > 1;
        // One counter entry for the whole scan (all columns together).
        let mut scan_run = morsel::MorselRun::SEQUENTIAL;
        for &k in &var_key_idx {
            let mut col = ctx.pool.take_col(rows.len());
            if parallel {
                col.resize(rows.len(), TermId(0));
                let run = morsel::fill_stripes(&mut col, &ctx.morsel, |offset, chunk| {
                    for (i, v) in chunk.iter_mut().enumerate() {
                        *v = rows[offset + i][k];
                    }
                });
                scan_run = scan_run.then(run);
            } else {
                col.extend(rows.iter().map(|row| row[k]));
            }
            cols.push(col);
        }
        ctx.note_run(scan_run);
    } else {
        // Late materialisation: select qualifying row indices first
        // (morsel-at-a-time, stitched in morsel order), then gather the
        // columns.
        assert!(
            rows.len() < u32::MAX as usize,
            "scan range exceeds u32 row indexing"
        );
        let (parts, run) = morsel::run_morsels(rows.len(), &ctx.morsel, |range| {
            let mut sel: Vec<u32> = Vec::new();
            for i in range {
                if equalities.iter().all(|&(a, b)| rows[i][a] == rows[i][b]) {
                    sel.push(i as u32);
                }
            }
            sel
        });
        ctx.note_run(run);
        let total: usize = parts.iter().map(Vec::len).sum();
        let mut sel = ctx.pool.take_idx(total);
        for part in parts {
            sel.extend_from_slice(&part);
        }
        for &k in &var_key_idx {
            let mut col = ctx.pool.take_col(sel.len());
            col.extend(sel.iter().map(|&i| rows[i as usize][k]));
            cols.push(col);
        }
        ctx.pool.put_idx(sel);
    }
    let sorted = scan_sort_var(pattern, order);
    BindingTable::from_columns(out_vars, cols, sorted)
}

/// Sort-merge join on `var`. Both inputs must be sorted by `var`; equality
/// on any further shared variables is enforced pairwise. The output carries
/// the left table's variables followed by the right table's non-shared
/// variables, and stays sorted by `var`.
///
/// This is the **range-partitioned parallel merge join**: when the
/// combined input size clears the context's morsel threshold (and the
/// thread budget allows), both sorted inputs are split at
/// *common key boundaries*: partition `k`'s target position on the left
/// is binary-searched back to the start of its key group, and the right
/// split gallops to the same key — so no equal-key group ever spans two
/// partitions. Each partition then runs an independent cursor pair (the
/// same scan as the sequential join, see
/// [`crate::kernel::merge_join_pairs`]) and the per-partition pair
/// vectors are stitched in partition order, which reproduces the
/// sequential output byte-for-byte: merge-join output is ordered by key
/// group, and the partitions tile the key space in order. Below the
/// threshold the single cursor pair runs sequentially into pooled
/// buffers; either way the gather phase draws from the context's pool.
///
/// # Panics
/// Panics if an input is not sorted by `var`.
pub fn merge_join(
    ctx: &ExecContext,
    left: &BindingTable,
    right: &BindingTable,
    var: Var,
) -> BindingTable {
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

    // Phase 1: emit compact (left_row, right_row) index pairs — one
    // cursor pair per key-range partition when parallelism can win.
    let workers = ctx.morsel.workers_for(lcol.len() + rcol.len());
    let (lidx, ridx) = if workers > 1 && !lcol.is_empty() && !rcol.is_empty() {
        merge_pairs_partitioned(ctx, lcol, rcol, &extra_pairs, workers)
    } else {
        let mut lidx: Vec<u32> = ctx.pool.take_idx(lcol.len().min(rcol.len()));
        let mut ridx: Vec<u32> = ctx.pool.take_idx(lcol.len().min(rcol.len()));
        crate::kernel::merge_join_pairs(
            lcol,
            rcol,
            &extra_pairs,
            0..lcol.len(),
            0..rcol.len(),
            &mut lidx,
            &mut ridx,
        );
        (lidx, ridx)
    };

    // Phase 2: gather the output column at a time.
    let mut out =
        BindingTable::from_join_pairs_in(left, right, &right_extra, &lidx, &ridx, &ctx.pool);
    ctx.pool.put_idx(lidx);
    ctx.pool.put_idx(ridx);
    out.set_sorted_by(Some(var));
    out
}

/// The parallel phase 1 of [`merge_join`]: cut both sorted key columns
/// at (up to) `workers − 1` common key boundaries and run an independent
/// cursor-pair scan per partition on the morsel task pool, returning the
/// pair vectors stitched in partition order (checked out of the pool;
/// the caller returns them after the gather).
fn merge_pairs_partitioned(
    ctx: &ExecContext,
    lcol: &[TermId],
    rcol: &[TermId],
    extra_pairs: &[(&[TermId], &[TermId])],
    workers: usize,
) -> (Vec<u32>, Vec<u32>) {
    // Partition boundaries: aim for even left shares, then snap each
    // boundary back to the start of its key group on the left and find
    // the matching position on the right. Boundaries are non-decreasing
    // by construction; duplicates (a giant key group swallowing several
    // targets) collapse via dedup.
    let mut bounds: Vec<(usize, usize)> = Vec::with_capacity(workers + 1);
    bounds.push((0, 0));
    for k in 1..workers {
        let key = lcol[k * lcol.len() / workers];
        let ls = lcol.partition_point(|&x| x < key);
        let rs = rcol.partition_point(|&x| x < key);
        bounds.push((ls, rs));
    }
    bounds.push((lcol.len(), rcol.len()));
    bounds.dedup();

    let parts: Vec<((usize, usize), (usize, usize))> =
        bounds.windows(2).map(|w| (w[0], w[1])).collect();
    let (results, run) = morsel::run_tasks(parts.len(), workers, &ctx.morsel, |p| {
        let ((ls, rs), (le, re)) = parts[p];
        // Thread-local pair buffers, sized for ~1 match per left row.
        let mut l: Vec<u32> = Vec::with_capacity(le - ls);
        let mut r: Vec<u32> = Vec::with_capacity(le - ls);
        crate::kernel::merge_join_pairs(lcol, rcol, extra_pairs, ls..le, rs..re, &mut l, &mut r);
        (l, r)
    });
    ctx.note_merge(run);
    let total: usize = results.iter().map(|(l, _)| l.len()).sum();
    let mut lidx = ctx.pool.take_idx(total);
    let mut ridx = ctx.pool.take_idx(total);
    for (l, r) in results {
        lidx.extend_from_slice(&l);
        ridx.extend_from_slice(&r);
    }
    (lidx, ridx)
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
/// [`crate::kernel::BuildTable`]). Matching index pairs are gathered
/// column-at-a-time.
///
/// The probe is **morsel-driven**: when the probe side clears the
/// context's morsel threshold (and the thread budget allows), the probe
/// index range is cut into fixed-size
/// morsels; the context's pool pulls morsels from a shared cursor and
/// probes the shared read-only [`BuildTable`], each morsel emitting into
/// its own pair buffers. The buffers are stitched back in morsel
/// order, so the output is byte-identical to the sequential probe and the
/// left ordering still survives. Below the threshold the probe runs
/// sequentially into pooled buffers; either way the gather phase checks
/// its output columns out of the context's pool.
///
/// # Panics
/// Panics if `vars` is empty or not shared by both inputs.
pub fn hash_join(
    ctx: &ExecContext,
    left: &BindingTable,
    right: &BindingTable,
    vars: &[Var],
) -> BindingTable {
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

    // Build on the right (morsel-parallel hashing + partitioned counting
    // sort when the build side clears the threshold — byte-identical to
    // the sequential build either way).
    let build_cols: Vec<&[TermId]> = vars.iter().map(|&v| right.column(v)).collect();
    let probe_cols: Vec<&[TermId]> = vars.iter().map(|&v| left.column(v)).collect();
    let (table, build_run) = BuildTable::build_par(&build_cols, right.len(), &ctx.morsel);
    ctx.note_build(build_run);
    let extra_pairs: Vec<(&[TermId], &[TermId])> = extra_shared
        .iter()
        .map(|&v| (left.column(v), right.column(v)))
        .collect();

    // Probe, emitting index pairs (morsel-parallel over the probe side).
    let (lidx, ridx) = probe_pairs(ctx, left.len(), |range, l, r| {
        table.probe_range(&build_cols, &probe_cols, &extra_pairs, range, l, r)
    });

    let mut out =
        BindingTable::from_join_pairs_in(left, right, &right_extra, &lidx, &ridx, &ctx.pool);
    ctx.pool.put_idx(lidx);
    ctx.pool.put_idx(ridx);
    // Probe order is preserved, so the left ordering survives.
    out.set_sorted_by(left.sorted_by());
    out
}

/// Shared probe driver of the two hash joins: run `probe` over the probe
/// index range — morsel-driven on the context's pool when `ctx` allows,
/// sequentially into pooled buffers otherwise — and return the stitched
/// `(left, right)` pair vectors (checked out of the pool; callers return
/// them after the gather).
///
/// `probe` must append, for any subrange, the same pairs in the same order
/// the full sequential probe would produce over that subrange; stitching
/// the per-morsel buffers in morsel order then reproduces the sequential
/// output exactly, which is what keeps parallel results deterministic.
fn probe_pairs(
    ctx: &ExecContext,
    probe_rows: usize,
    probe: impl Fn(std::ops::Range<usize>, &mut Vec<u32>, &mut Vec<u32>) + Sync,
) -> (Vec<u32>, Vec<u32>) {
    if ctx.morsel.workers_for(probe_rows) > 1 {
        let (parts, run) = morsel::run_morsels(probe_rows, &ctx.morsel, |range| {
            // Thread-local pair buffers; sized for the common ~1 match per
            // probe row so most morsels never reallocate.
            let mut l = Vec::with_capacity(range.len());
            let mut r = Vec::with_capacity(range.len());
            probe(range, &mut l, &mut r);
            (l, r)
        });
        ctx.note_run(run);
        let total: usize = parts.iter().map(|(l, _)| l.len()).sum();
        let mut lidx = ctx.pool.take_idx(total);
        let mut ridx = ctx.pool.take_idx(total);
        for (l, r) in parts {
            lidx.extend_from_slice(&l);
            ridx.extend_from_slice(&r);
        }
        (lidx, ridx)
    } else {
        let mut lidx = ctx.pool.take_idx(probe_rows);
        let mut ridx = ctx.pool.take_idx(probe_rows);
        probe(0..probe_rows, &mut lidx, &mut ridx);
        (lidx, ridx)
    }
}

/// Cartesian product (left-major order, so the left ordering survives);
/// output columns come from the context's pool.
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
    // on a trip (deadline, cancellation) it returns the checked-out
    // columns to the pool and hands back an empty *placeholder* table
    // (plain never-pooled columns) — the caller's trip check surfaces the
    // error and drops the placeholder.
    const POLL_STRIDE: usize = 1 << 16;
    let mut since_poll = 0usize;
    let mut tripped = false;
    let mut cols: Vec<Vec<TermId>> = Vec::with_capacity(out_vars.len());
    'left: for col in left.columns() {
        let mut out = ctx.pool.take_col(rows);
        for &v in col {
            out.extend(std::iter::repeat_n(v, right.len()));
            since_poll += right.len();
            if since_poll >= POLL_STRIDE {
                since_poll = 0;
                if ctx.governor_poll() {
                    tripped = true;
                    ctx.pool.put_col(out);
                    break 'left;
                }
            }
        }
        cols.push(out);
    }
    if !tripped {
        'right: for col in right.columns() {
            let mut out = ctx.pool.take_col(rows);
            for _ in 0..left.len() {
                out.extend_from_slice(col);
                since_poll += col.len();
                if since_poll >= POLL_STRIDE {
                    since_poll = 0;
                    if ctx.governor_poll() {
                        tripped = true;
                        ctx.pool.put_col(out);
                        break 'right;
                    }
                }
            }
            cols.push(out);
        }
    }
    if tripped {
        for col in cols {
            ctx.pool.put_col(col);
        }
        let placeholder = out_vars.iter().map(|_| Vec::new()).collect();
        return BindingTable::from_columns(out_vars, placeholder, None);
    }
    let mut out = BindingTable::from_columns(out_vars, cols, None);
    if !right.is_empty() {
        out.set_sorted_by(left.sorted_by());
    }
    out
}

/// Sort a table by `var` (stable), producing an order-enforced copy
/// (pooled sort index and output). When the input clears the morsel
/// threshold the comparison sort runs as a **parallel merge sort**
/// ([`morsel::merge_sort`]): per-worker sorted runs, then parallel pairwise
/// run merges. An explicit `(key, original index)` order makes the
/// permutation unique, so the parallel result is element-for-element the
/// sequential stable sort.
///
/// # Panics
/// Panics if `var` is not a variable of the table.
pub fn sort_by(ctx: &ExecContext, input: &BindingTable, var: Var) -> BindingTable {
    check_indexable(input);
    let key = input.column(var);
    let mut index = ctx.pool.take_idx(input.len());
    index.extend(0..input.len() as u32);
    if ctx.morsel.workers_for(input.len()) > 1 {
        let (sorted, run) =
            morsel::merge_sort(std::mem::take(&mut index), &ctx.morsel, |&a, &b| {
                key[a as usize].cmp(&key[b as usize]).then(a.cmp(&b))
            });
        ctx.note_sort(run);
        index = sorted;
    } else {
        index.sort_by_key(|&i| key[i as usize]); // stable
    }
    let mut out = input.gather_in(&index, &ctx.pool);
    ctx.pool.put_idx(index);
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
/// columns. Same morsel-driven probe as [`hash_join`] — the unmatched-row
/// sentinel is emitted per probe row, so per-morsel outputs still stitch
/// deterministically.
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
            union_all(ctx, left, right)
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
    let (table, build_run) = BuildTable::build_par(&build_cols, right.len(), &ctx.morsel);
    ctx.note_build(build_run);
    let extra_pairs: Vec<(&[TermId], &[TermId])> = extra_shared
        .iter()
        .map(|&v| (left.column(v), right.column(v)))
        .collect();

    // Index pairs; an unmatched left row pairs with the `u32::MAX` sentinel,
    // which the gather turns into UNBOUND padding.
    let (lidx, ridx) = probe_pairs(ctx, left.len(), |range, l, r| {
        table.probe_range_outer(&build_cols, &probe_cols, &extra_pairs, range, l, r)
    });

    let mut out =
        BindingTable::from_join_pairs_in(left, right, &right_extra, &lidx, &ridx, &ctx.pool);
    ctx.pool.put_idx(lidx);
    ctx.pool.put_idx(ridx);
    out.set_sorted_by(None); // UNBOUND sentinels may break the left order
    out
}

/// Concatenate two tables over the union of their variables (the UNION
/// operator): columns missing from a branch are padded with
/// [`TermId::UNBOUND`]. Output columns come from the context's pool.
pub fn union_all(ctx: &ExecContext, a: &BindingTable, b: &BindingTable) -> BindingTable {
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
        let mut col = ctx.pool.take_col(rows);
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
    /// The per-worker expression evaluator of the parallel FILTER /
    /// ORDER BY paths. A morsel worker may process many morsels, and
    /// constructing a fresh [`Evaluator`](hsp_sparql::Evaluator) per
    /// *morsel* would recompile every cached regex once per morsel — so
    /// the evaluator lives in a thread-local instead: one per worker
    /// thread, created lazily on the thread's first morsel. The threads
    /// that run morsels — the pool's workers and every submitter helping
    /// on its own batch, e.g. a server's connection threads — live as
    /// long as the process, and so do these evaluators; what keeps them
    /// small is the evaluator's own bound on its regex cache. The
    /// sequential paths use a plain local evaluator, which costs nothing
    /// to build and drops with the call.
    pub(crate) static WORKER_EVALUATOR: hsp_sparql::Evaluator = hsp_sparql::Evaluator::new();
}

/// Evaluate a residual FILTER, keeping the rows satisfying `expr`.
///
/// Simple (in)equality shapes compare interned ids directly; full-grammar
/// [`FilterExpr::Complex`] expressions are evaluated with the SPARQL typed
/// value semantics of [`hsp_sparql::expr`], one
/// [`Evaluator`](hsp_sparql::Evaluator) (and hence one compiled-regex
/// cache) per worker thread.
///
/// This is the **morsel-parallel FILTER**: when the input clears the
/// context's morsel threshold, rows are evaluated morsel-at-a-time on the
/// worker pool, each worker owning its own thread-local
/// [`Evaluator`](hsp_sparql::Evaluator) — the compiled-regex cache is
/// deliberately single-threaded, see the `Evaluator` docs. Per-morsel
/// selection vectors are stitched in morsel order, so the output is
/// byte-identical to the sequential evaluation. Below the threshold one
/// evaluator scans all rows sequentially; either way the selection vector
/// and the output columns come from the context's pool.
pub fn filter(
    ctx: &ExecContext,
    ds: &Dataset,
    input: &BindingTable,
    expr: &FilterExpr,
) -> BindingTable {
    check_indexable(input);
    let sel = if ctx.morsel.workers_for(input.len()) > 1 {
        let (parts, run) = morsel::run_morsels(input.len(), &ctx.morsel, |range| {
            WORKER_EVALUATOR.with(|evaluator| {
                let mut part: Vec<u32> = Vec::new();
                for i in range {
                    if eval_expr(ds, input, expr, i, evaluator) {
                        part.push(i as u32);
                    }
                }
                part
            })
        });
        ctx.note_filter(run);
        let total: usize = parts.iter().map(Vec::len).sum();
        let mut sel = ctx.pool.take_idx(total);
        for part in parts {
            sel.extend_from_slice(&part);
        }
        sel
    } else {
        let evaluator = hsp_sparql::Evaluator::new();
        let mut sel = ctx.pool.take_idx(input.len());
        sel.extend(
            (0..input.len())
                .filter(|&i| eval_expr(ds, input, expr, i, &evaluator))
                .map(|i| i as u32),
        );
        sel
    };
    let mut out = input.gather_in(&sel, &ctx.pool);
    ctx.pool.put_idx(sel);
    out.set_sorted_by(input.sorted_by());
    out
}

/// `ORDER BY`: stable sort by the given keys under the SPARQL §9.1 value
/// order (see [`hsp_sparql::expr::compare_for_order`]). Key expressions
/// that error evaluate as unbound (sorting first), matching the usual
/// engine behaviour for, e.g., `ORDER BY` over a variable that is unbound
/// in some rows.
///
/// The selection vector and output columns are pooled. The decorate
/// phase — evaluating every key expression for every row — runs
/// morsel-parallel with per-worker evaluators, like
/// [`filter`]; per-morsel decorations stitch back in row order. The
/// comparison sort then runs as a **parallel merge sort**
/// ([`morsel::merge_sort`]) over per-worker sorted runs when the input
/// clears the morsel threshold; an original-row-index tie-break makes the
/// order total, so the parallel output is byte-identical to the
/// sequential stable sort.
pub fn order_by(
    ctx: &ExecContext,
    ds: &Dataset,
    input: &BindingTable,
    keys: &[hsp_sparql::SortKey],
) -> BindingTable {
    use hsp_sparql::expr::compare_for_order;
    check_indexable(input);

    // Snapshot the computed-term overlay once: aggregate outputs above
    // this ORDER BY may carry computed ids, and the snapshot (unlike the
    // `ExecContext`) is shareable with the parallel decorate workers.
    let overlay = ctx.computed_overlay();
    // Evaluate every key for every row once (decorate-sort-undecorate).
    let decorate = |range: std::ops::Range<usize>, evaluator: &hsp_sparql::Evaluator| {
        range
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
                    .collect::<Vec<_>>();
                (i, key_vals)
            })
            .collect::<Vec<_>>()
    };
    let mut decorated: Vec<(usize, Vec<Option<hsp_sparql::Value>>)> =
        if ctx.morsel.workers_for(input.len()) > 1 {
            let (parts, run) = morsel::run_morsels(input.len(), &ctx.morsel, |range| {
                WORKER_EVALUATOR.with(|evaluator| decorate(range, evaluator))
            });
            ctx.note_filter(run);
            parts.into_iter().flatten().collect()
        } else {
            decorate(0..input.len(), &hsp_sparql::Evaluator::new())
        };
    let by_keys = |(ia, ka): &(usize, Vec<Option<hsp_sparql::Value>>),
                   (ib, kb): &(usize, Vec<Option<hsp_sparql::Value>>)| {
        for (key, (va, vb)) in keys.iter().zip(ka.iter().zip(kb.iter())) {
            let ord = compare_for_order(va.as_ref(), vb.as_ref());
            let ord = if key.descending { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        // Tie-break on the original row index: equal-key rows keep input
        // order (what the sequential stable sort guarantees implicitly),
        // and the total order makes the parallel merge sort's output
        // unique.
        ia.cmp(ib)
    };
    if ctx.morsel.workers_for(decorated.len()) > 1 {
        let (sorted, run) = morsel::merge_sort(decorated, &ctx.morsel, by_keys);
        ctx.note_sort(run);
        decorated = sorted;
    } else {
        decorated.sort_by(by_keys);
    }

    let mut sel = ctx.pool.take_idx(decorated.len());
    sel.extend(decorated.iter().map(|&(i, _)| i as u32));
    // The ORDER BY value order is not the TermId order merge joins need,
    // so the gathered output's default of no sortedness is correct.
    let out = input.gather_in(&sel, &ctx.pool);
    ctx.pool.put_idx(sel);
    out
}

/// `OFFSET`/`LIMIT`: keep `limit` rows starting at `offset` (pooled output
/// columns).
pub fn slice(
    ctx: &ExecContext,
    input: &BindingTable,
    offset: usize,
    limit: Option<usize>,
) -> BindingTable {
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
        .map(|c| {
            let mut out = ctx.pool.take_col(end - start);
            out.extend_from_slice(&c[start..end]);
            out
        })
        .collect();
    let mut out = BindingTable::from_columns(input.vars().to_vec(), cols, None);
    out.set_sorted_by(input.sorted_by());
    out
}

/// Project to the given `(name, var)` list, optionally deduplicating.
/// Duplicated projection entries referring to the same variable (after
/// FILTER unification) share one column in the output's variable list.
/// Output columns come from the context's pool.
pub fn project(
    ctx: &ExecContext,
    input: &BindingTable,
    projection: &[(String, Var)],
    distinct: bool,
) -> BindingTable {
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
        src.iter()
            .map(|c| {
                let mut col = ctx.pool.take_col(c.len());
                col.extend_from_slice(c);
                col
            })
            .collect()
    } else {
        check_indexable(input);
        let sel = distinct_first_occurrences(&src, input.len());
        src.iter()
            .map(|c| crate::binding::gather_column(c, &sel, Some(&ctx.pool)))
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
        FilterExpr::And(a, b) => {
            eval_expr(ds, table, a, row, evaluator) && eval_expr(ds, table, b, row, evaluator)
        }
        FilterExpr::Or(a, b) => {
            eval_expr(ds, table, a, row, evaluator) || eval_expr(ds, table, b, row, evaluator)
        }
        FilterExpr::Cmp { op, lhs, rhs } => {
            let l = operand_value(ds, table, lhs, row);
            let r = operand_value(ds, table, rhs, row);
            compare(ds, *op, l, r)
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
/// outputs like an `AVG` that is not in the dictionary) — a plain slice
/// rather than the `ExecContext` so the parallel ORDER BY workers can
/// share it.
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

/// An operand resolved against a row: an interned id or an out-of-dictionary
/// constant term.
enum Value<'a> {
    Id(TermId),
    Foreign(&'a Term),
}

fn operand_value<'a, V: RowValues>(
    ds: &'a Dataset,
    table: &V,
    operand: &'a Operand,
    row: usize,
) -> Value<'a> {
    match operand {
        Operand::Var(v) => Value::Id(table.row_value(*v, row)),
        Operand::Const(t) => match ds.dict().id(t) {
            Some(id) => Value::Id(id),
            None => Value::Foreign(t),
        },
    }
}

fn compare(ds: &Dataset, op: CmpOp, l: Value<'_>, r: Value<'_>) -> bool {
    // Comparing an unbound value is a SPARQL type error: the filter
    // condition is simply false (OPTIONAL rows carry UNBOUND sentinels).
    if matches!(l, Value::Id(id) if id.is_unbound())
        || matches!(r, Value::Id(id) if id.is_unbound())
    {
        return false;
    }
    // Equality/inequality can use ids directly (interning is injective).
    if let (Value::Id(a), Value::Id(b)) = (&l, &r) {
        match op {
            CmpOp::Eq => return a == b,
            CmpOp::Ne => return a != b,
            _ => {}
        }
    }
    let lt = term_of(ds, &l);
    let rt = term_of(ds, &r);
    let ord = compare_terms(lt, rt);
    match op {
        CmpOp::Eq => ord == std::cmp::Ordering::Equal && lt == rt,
        CmpOp::Ne => !(ord == std::cmp::Ordering::Equal && lt == rt),
        CmpOp::Lt => ord == std::cmp::Ordering::Less,
        CmpOp::Le => ord != std::cmp::Ordering::Greater,
        CmpOp::Gt => ord == std::cmp::Ordering::Greater,
        CmpOp::Ge => ord != std::cmp::Ordering::Less,
    }
}

fn term_of<'a>(ds: &'a Dataset, v: &'a Value<'a>) -> &'a Term {
    match v {
        Value::Id(id) => ds.dict().term(*id),
        Value::Foreign(t) => t,
    }
}

/// SPARQL-ish value comparison: numbers numerically when both literals parse
/// as numbers, otherwise lexical-form comparison (IRIs before literals when
/// kinds differ, for a stable total order).
fn compare_terms(a: &Term, b: &Term) -> std::cmp::Ordering {
    if a.kind() != b.kind() {
        return if a.kind() == TermKind::Iri {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Greater
        };
    }
    if let (Some(x), Some(y)) = (a.numeric_value(), b.numeric_value()) {
        return x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal);
    }
    a.lexical().cmp(b.lexical())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsp_rdf::Term;

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
        let j = merge_join(&ctx, &l, &r, Var(0));
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
        let mj = merge_join(&ctx, &l, &r, Var(0));
        let hj = hash_join(&ctx, &l, &r, &[Var(0)]);
        assert_eq!(mj.sorted_rows(), hj.sorted_rows());
    }

    #[test]
    fn hash_join_on_chain() {
        let ctx = ExecContext::new();
        let ds = dataset();
        // ?a p ?b  ⋈  ?b r ?c  (s=o join on ?b)
        let l = edges(&ctx, &ds, 0, "p", 1, Order::Pso);
        let r = edges(&ctx, &ds, 1, "r", 2, Order::Pso);
        let j = hash_join(&ctx, &l, &r, &[Var(1)]);
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
        merge_join(&ctx, &l, &r, Var(0));
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
        let expr = FilterExpr::Cmp {
            op: CmpOp::Gt,
            lhs: Operand::Var(Var(1)),
            rhs: Operand::Const(Term::literal("6")),
        };
        let f = filter(&ctx, &ds, &t, &expr);
        assert_eq!(f.len(), 1); // only "7" > "6"
    }

    #[test]
    fn filter_equality_on_foreign_constant() {
        let ctx = ExecContext::new();
        let ds = dataset();
        let t = edges(&ctx, &ds, 0, "q", 1, Order::Pso);
        let expr = FilterExpr::Cmp {
            op: CmpOp::Eq,
            lhs: Operand::Var(Var(1)),
            rhs: Operand::Const(Term::literal("not in dict")),
        };
        assert!(filter(&ctx, &ds, &t, &expr).is_empty());
        let ne = FilterExpr::Cmp {
            op: CmpOp::Ne,
            lhs: Operand::Var(Var(1)),
            rhs: Operand::Const(Term::literal("not in dict")),
        };
        assert_eq!(filter(&ctx, &ds, &t, &ne).len(), t.len());
    }

    #[test]
    fn project_plain_and_distinct() {
        let ctx = ExecContext::new();
        let ds = dataset();
        let t = edges(&ctx, &ds, 0, "p", 1, Order::Pso);
        let p = project(&ctx, &t, &[("s".into(), Var(0))], false);
        assert_eq!(p.len(), 3);
        let d = project(&ctx, &t, &[("s".into(), Var(0))], true);
        assert_eq!(d.len(), 2); // a1, a2
        assert_eq!(d.sorted_by(), Some(Var(0)));
    }

    #[test]
    fn project_duplicate_entries_share_column() {
        let ctx = ExecContext::new();
        let ds = dataset();
        let t = edges(&ctx, &ds, 0, "p", 1, Order::Pso);
        let p = project(
            &ctx,
            &t,
            &[("a".into(), Var(0)), ("b".into(), Var(0))],
            false,
        );
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
        let sorted = sort_by(&ctx, &t, Var(0));
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
        let r = sort_by(&ctx, &r_wrong_order, Var(0));
        let mj = merge_join(&ctx, &l, &r, Var(0));
        let hj = hash_join(&ctx, &l, &r_wrong_order, &[Var(0)]);
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
        let inner = hash_join(&ctx, &l, &r, &[Var(0)]);
        assert_eq!(outer.sorted_rows(), inner.sorted_rows());
    }

    #[test]
    fn union_all_pads_missing_columns() {
        let ctx = ExecContext::new();
        let ds = dataset();
        let a = edges(&ctx, &ds, 0, "q", 1, Order::Pso);
        let b = edges(&ctx, &ds, 0, "r", 2, Order::Pso);
        let u = union_all(&ctx, &a, &b);
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
        let eq = FilterExpr::Cmp {
            op: CmpOp::Eq,
            lhs: Operand::Var(Var(2)),
            rhs: Operand::Const(Term::literal("x")),
        };
        assert_eq!(filter(&ctx, &ds, &j, &eq).len(), 2);
        let ne = FilterExpr::Cmp {
            op: CmpOp::Ne,
            lhs: Operand::Var(Var(2)),
            rhs: Operand::Const(Term::literal("x")),
        };
        assert_eq!(filter(&ctx, &ds, &j, &ne).len(), 0);
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
        let p = project(&ctx, &t, &[], false);
        assert_eq!(p.len(), 3);
        assert!(p.vars().is_empty());
        assert_eq!(project(&ctx, &t, &[], true).len(), 1);
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
        let expr = FilterExpr::Complex(Box::new(hsp_sparql::Expr::Call {
            func: hsp_sparql::Func::Regex,
            args: vec![
                hsp_sparql::Expr::Var(Var(1)),
                hsp_sparql::Expr::Const(Term::literal(r"\(19\d\d\)")),
            ],
        }));
        let out = filter(&ctx, &ds, &t, &expr);
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
        let expr = FilterExpr::Complex(Box::new(hsp_sparql::Expr::Cmp {
            op: CmpOp::Gt,
            lhs: Box::new(hsp_sparql::Expr::Arith {
                op: hsp_sparql::ArithOp::Mul,
                lhs: Box::new(hsp_sparql::Expr::Var(Var(1))),
                rhs: Box::new(hsp_sparql::Expr::Const(Term::typed_literal(
                    "2",
                    hsp_rdf::vocab::XSD_INTEGER,
                ))),
            }),
            rhs: Box::new(hsp_sparql::Expr::Const(Term::typed_literal(
                "30",
                hsp_rdf::vocab::XSD_INTEGER,
            ))),
        }));
        let out = filter(&ctx, &ds, &t, &expr);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn complex_filter_unbound_var_drops_row() {
        let ctx = ExecContext::new();
        let ds = dataset();
        let t = edges(&ctx, &ds, 0, "p", 1, Order::Pso);
        // FILTER on a variable not in the table: every row errors → empty.
        let expr = FilterExpr::Complex(Box::new(hsp_sparql::Expr::Cmp {
            op: CmpOp::Eq,
            lhs: Box::new(hsp_sparql::Expr::Var(Var(9))),
            rhs: Box::new(hsp_sparql::Expr::Const(Term::literal("x"))),
        }));
        assert_eq!(filter(&ctx, &ds, &t, &expr).len(), 0);
        // …but BOUND(?v9) = false keeps them all.
        let expr = FilterExpr::Complex(Box::new(hsp_sparql::Expr::Not(Box::new(
            hsp_sparql::Expr::Call {
                func: hsp_sparql::Func::Bound,
                args: vec![hsp_sparql::Expr::Var(Var(9))],
            },
        ))));
        assert_eq!(filter(&ctx, &ds, &t, &expr).len(), t.len());
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
        assert_eq!(slice(&ctx, &t, 0, Some(2)).len(), 2);
        assert_eq!(slice(&ctx, &t, 1, Some(2)).len(), 2);
        assert_eq!(slice(&ctx, &t, 2, Some(2)).len(), 1);
        assert_eq!(slice(&ctx, &t, 5, Some(2)).len(), 0);
        assert_eq!(slice(&ctx, &t, 0, None).len(), 3);
        assert_eq!(slice(&ctx, &t, 1, None).len(), 2);
        // offset+limit partition the input.
        let a = slice(&ctx, &t, 0, Some(1));
        let b = slice(&ctx, &t, 1, None);
        assert_eq!(a.len() + b.len(), t.len());
        assert_eq!(a.row(0), t.row(0));
        assert_eq!(b.row(0), t.row(1));
        // Slicing preserves sortedness metadata.
        assert_eq!(slice(&ctx, &t, 1, Some(1)).sorted_by(), t.sorted_by());
    }

    /// A forced-parallel context: tiny morsels, no row threshold, so even
    /// unit-test-sized inputs cross several morsels per worker.
    fn forced_ctx(threads: usize) -> ExecContext {
        ExecContext::with_morsel_config(
            crate::morsel::MorselConfig::with_threads(threads)
                .with_morsel_rows(64)
                .with_min_parallel_rows(0),
        )
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
    fn morsel_probe_is_byte_identical_to_sequential() {
        let (l, r) = big_join_inputs(3_000);
        let sequential = hash_join(&ExecContext::with_threads(1), &l, &r, &[Var(0)]);
        for threads in 2..=4 {
            let ctx = forced_ctx(threads);
            let parallel = hash_join(&ctx, &l, &r, &[Var(0)]);
            // Full structural equality: same columns, same row order, same
            // metadata — not just the same row multiset.
            assert_eq!(parallel, sequential, "threads={threads}");
            // Two parallel kernels: the build phase and the probe.
            assert_eq!(ctx.parallel_kernels(), 2);
            assert_eq!(ctx.parallel_builds(), 1);
            assert!(ctx.morsels_run() > 1);
        }
    }

    #[test]
    fn morsel_outer_probe_is_byte_identical_to_sequential() {
        let (l, r) = big_join_inputs(2_000);
        let sequential = left_outer_hash_join(&ExecContext::with_threads(1), &l, &r, &[Var(0)]);
        for threads in 2..=4 {
            let parallel = left_outer_hash_join(&forced_ctx(threads), &l, &r, &[Var(0)]);
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    #[test]
    fn morsel_probe_with_extra_shared_var_is_identical() {
        // Shared non-key column ?1 on both sides: the extra-pair check runs
        // inside every worker.
        let n = 1_500;
        let (l0, r0) = big_join_inputs(n);
        let shared: Vec<TermId> = (0..n as u32).map(|i| TermId(i % 7)).collect();
        let l = BindingTable::from_columns(
            vec![Var(0), Var(1)],
            vec![l0.column(Var(0)).to_vec(), shared.clone()],
            None,
        );
        let r = BindingTable::from_columns(
            vec![Var(0), Var(1)],
            vec![r0.column(Var(0)).to_vec(), shared],
            None,
        );
        let sequential = hash_join(&ExecContext::with_threads(1), &l, &r, &[Var(0)]);
        for threads in 2..=4 {
            let parallel = hash_join(&forced_ctx(threads), &l, &r, &[Var(0)]);
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    #[test]
    fn parallel_scan_is_byte_identical_to_sequential() {
        // 300 triples: several 64-row morsels under the forced config.
        let mut doc = String::new();
        for i in 0..300 {
            doc.push_str(&format!(
                "<http://e/s{}> <http://e/p> <http://e/o{i}> .\n",
                i % 40
            ));
        }
        let ds = Dataset::from_ntriples(&doc).unwrap();
        let pat = TriplePattern::new(vv(0), cv("p"), vv(1));
        let sequential = scan(&ExecContext::with_threads(1), &ds, &pat, Order::Pso);
        for threads in 2..=4 {
            let parallel = scan(&forced_ctx(threads), &ds, &pat, Order::Pso);
            assert_eq!(parallel, sequential, "threads={threads}");
        }
        // Repeated-variable path (morsel-at-a-time selection): ?x p ?x.
        let pat = TriplePattern::new(vv(0), cv("p"), vv(0));
        let sequential = scan(&ExecContext::with_threads(1), &ds, &pat, Order::Pso);
        for threads in 2..=4 {
            let parallel = scan(&forced_ctx(threads), &ds, &pat, Order::Pso);
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    /// Sorted variants of [`big_join_inputs`] for the merge-join tests.
    fn big_sorted_inputs(n: usize) -> (BindingTable, BindingTable) {
        let ctx = ExecContext::new();
        let (l, r) = big_join_inputs(n);
        (sort_by(&ctx, &l, Var(0)), sort_by(&ctx, &r, Var(0)))
    }

    #[test]
    fn parallel_build_table_join_is_byte_identical_to_sequential() {
        // Both sides large: the *build* side (right) clears the forced
        // threshold, so the partitioned counting sort runs.
        let (l, r) = big_join_inputs(3_000);
        let sequential = hash_join(&ExecContext::with_threads(1), &l, &r, &[Var(0)]);
        for threads in 2..=4 {
            let ctx = forced_ctx(threads);
            let parallel = hash_join(&ctx, &l, &r, &[Var(0)]);
            assert_eq!(parallel, sequential, "threads={threads}");
            assert_eq!(ctx.parallel_builds(), 1, "threads={threads}");
        }
    }

    #[test]
    fn parallel_merge_join_is_byte_identical_to_sequential() {
        let (l, r) = big_sorted_inputs(3_000);
        let sequential = merge_join(&ExecContext::with_threads(1), &l, &r, Var(0));
        for threads in 2..=4 {
            let ctx = forced_ctx(threads);
            let parallel = merge_join(&ctx, &l, &r, Var(0));
            assert_eq!(parallel, sequential, "threads={threads}");
            assert!(ctx.merge_partitions() >= 1, "threads={threads}");
            assert_eq!(ctx.parallel_kernels(), 1, "threads={threads}");
        }
    }

    #[test]
    fn parallel_merge_join_with_extra_shared_var_is_identical() {
        // Shared non-key column ?1: the extra-pair check runs inside every
        // partition's cursor pair.
        let n = 2_000;
        let (l0, r0) = big_join_inputs(n);
        let shared: Vec<TermId> = (0..n as u32).map(|i| TermId(i % 5)).collect();
        let mut lk = l0.column(Var(0)).to_vec();
        let mut rk = r0.column(Var(0)).to_vec();
        lk.sort_unstable();
        rk.sort_unstable();
        let l = BindingTable::from_columns(
            vec![Var(0), Var(1)],
            vec![lk, shared.clone()],
            Some(Var(0)),
        );
        let r = BindingTable::from_columns(vec![Var(0), Var(1)], vec![rk, shared], Some(Var(0)));
        let sequential = merge_join(&ExecContext::with_threads(1), &l, &r, Var(0));
        for threads in 2..=4 {
            let parallel = merge_join(&forced_ctx(threads), &l, &r, Var(0));
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    #[test]
    fn parallel_merge_join_single_giant_key_group_degenerates() {
        // Every key equal: all split targets snap to position 0, so the
        // dedup leaves one partition and the join runs as a single task.
        let n = 1_000;
        let keys = vec![TermId(7); n];
        let lp: Vec<TermId> = (0..n as u32).map(|i| TermId(1_000 + i)).collect();
        let rp: Vec<TermId> = (0..n as u32).map(|i| TermId(50_000 + i)).collect();
        let l =
            BindingTable::from_columns(vec![Var(0), Var(1)], vec![keys.clone(), lp], Some(Var(0)));
        let r = BindingTable::from_columns(vec![Var(0), Var(2)], vec![keys, rp], Some(Var(0)));
        let sequential = merge_join(&ExecContext::with_threads(1), &l, &r, Var(0));
        assert_eq!(sequential.len(), n * n);
        for threads in 2..=4 {
            let parallel = merge_join(&forced_ctx(threads), &l, &r, Var(0));
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    /// A dataset of `n` title triples, roughly half matching `\(19\d\d\)`.
    fn titles_dataset(n: usize) -> Dataset {
        let mut doc = String::new();
        for i in 0..n {
            let year = 1900 + (i % 200); // 19xx and 20xx alternate by century
            doc.push_str(&format!(
                "<http://e/j{i}> <http://e/title> \"Journal {i} ({year})\" .\n"
            ));
        }
        Dataset::from_ntriples(&doc).unwrap()
    }

    #[test]
    fn parallel_filter_is_byte_identical_to_sequential() {
        let ds = titles_dataset(800);
        let pat = TriplePattern::new(vv(0), TermOrVar::Const(Term::iri("http://e/title")), vv(1));
        let t = scan(&ExecContext::new(), &ds, &pat, Order::Pso);
        // A REGEX filter: every worker compiles the pattern into its own
        // evaluator's cache.
        let expr = FilterExpr::Complex(Box::new(hsp_sparql::Expr::Call {
            func: hsp_sparql::Func::Regex,
            args: vec![
                hsp_sparql::Expr::Var(Var(1)),
                hsp_sparql::Expr::Const(Term::literal(r"\(19\d\d\)")),
            ],
        }));
        let sequential = filter(&ExecContext::with_threads(1), &ds, &t, &expr);
        assert!(!sequential.is_empty() && sequential.len() < t.len());
        for threads in 2..=4 {
            let ctx = forced_ctx(threads);
            let parallel = filter(&ctx, &ds, &t, &expr);
            assert_eq!(parallel, sequential, "threads={threads}");
            assert_eq!(ctx.parallel_filters(), 1, "threads={threads}");
        }
    }

    #[test]
    fn parallel_order_by_is_byte_identical_to_sequential() {
        let ds = titles_dataset(500);
        let pat = TriplePattern::new(vv(0), TermOrVar::Const(Term::iri("http://e/title")), vv(1));
        let t = scan(&ExecContext::new(), &ds, &pat, Order::Pso);
        for descending in [false, true] {
            let keys = vec![hsp_sparql::SortKey {
                expr: hsp_sparql::Expr::Var(Var(1)),
                descending,
            }];
            let sequential = order_by(&ExecContext::with_threads(1), &ds, &t, &keys);
            for threads in 2..=4 {
                let ctx = forced_ctx(threads);
                let parallel = order_by(&ctx, &ds, &t, &keys);
                assert_eq!(parallel, sequential, "threads={threads} desc={descending}");
                assert_eq!(ctx.parallel_filters(), 1);
            }
        }
    }

    #[test]
    fn pooled_join_reuses_buffers_across_operators() {
        let (l, r) = big_join_inputs(500);
        let ctx = ExecContext::with_threads(1);
        let first = hash_join(&ctx, &l, &r, &[Var(0)]);
        ctx.pool.recycle(first.clone());
        let second = hash_join(&ctx, &l, &r, &[Var(0)]);
        assert_eq!(first, second);
        let stats = ctx.pool.stats();
        assert!(
            stats.hits > 0,
            "second join should reuse recycled buffers: {stats:?}"
        );
    }

    #[test]
    fn merge_join_with_extra_shared_var() {
        let ctx = ExecContext::new();
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
        let j = merge_join(&ctx, &l, &r, Var(0));
        assert_eq!(j.len(), 1); // only (1, 6) matches on both columns
        assert_eq!(j.row(0), vec![TermId(1), TermId(6)]);
    }
}
