//! The scalar, row-at-a-time join kernels the engine shipped with before
//! the vectorized rework, plus a naive nested-loop join.
//!
//! These are kept as the **differential-testing oracle**: the property
//! tests assert the vectorized kernels in [`crate::ops`] produce identical
//! row-sets. They are correct and simple, but they pay a per-value
//! `col_index` lookup in `value()`, a per-probe `Vec<TermId>` key
//! allocation, and a per-row `push_row`; do not use them on hot paths.

use std::collections::{HashMap, HashSet};

use hsp_rdf::TermId;
use hsp_sparql::expr::{arith, compare_for_order};
use hsp_sparql::{AggFunc, AggSpec, ArithOp, Value, Var};
use hsp_store::Dataset;

use crate::aggregate::{apply_having, describe, AggError};
use crate::binding::BindingTable;
use crate::ops::join_layout;
use crate::pool::ExecContext;

/// Row-at-a-time sort-merge join on `var` (the pre-vectorization kernel).
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

    let (out_vars, right_extra, extra_shared) = join_layout(left, right, &[var]);
    let lcol = left.column(var);
    let rcol = right.column(var);
    let extra_pairs: Vec<(&[TermId], &[TermId])> = extra_shared
        .iter()
        .map(|&v| (left.column(v), right.column(v)))
        .collect();

    let mut out = BindingTable::empty(out_vars.clone());
    let (mut i, mut j) = (0usize, 0usize);
    let mut row_buf: Vec<TermId> = Vec::with_capacity(out_vars.len());
    while i < lcol.len() && j < rcol.len() {
        let (a, b) = (lcol[i], rcol[j]);
        if a < b {
            i += 1;
        } else if b < a {
            j += 1;
        } else {
            let i_end = i + lcol[i..].partition_point(|&x| x == a);
            let j_end = j + rcol[j..].partition_point(|&x| x == a);
            for li in i..i_end {
                for rj in j..j_end {
                    if !extra_pairs.iter().all(|(lc, rc)| lc[li] == rc[rj]) {
                        continue;
                    }
                    row_buf.clear();
                    for &v in left.vars() {
                        row_buf.push(left.value(v, li));
                    }
                    for &v in &right_extra {
                        row_buf.push(right.value(v, rj));
                    }
                    out.push_row(&row_buf);
                }
            }
            i = i_end;
            j = j_end;
        }
    }
    out.set_sorted_by(Some(var));
    out
}

/// Row-at-a-time hash join on `vars` over a SipHash `HashMap` keyed by
/// per-row `Vec<TermId>` keys (the pre-vectorization kernel).
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
    let (out_vars, right_extra, extra_shared) = join_layout(left, right, vars);

    let mut table: HashMap<Vec<TermId>, Vec<usize>> = HashMap::new();
    for j in 0..right.len() {
        let key: Vec<TermId> = vars.iter().map(|&v| right.value(v, j)).collect();
        table.entry(key).or_default().push(j);
    }

    let mut out = BindingTable::empty(out_vars.clone());
    let mut key_buf: Vec<TermId> = Vec::with_capacity(vars.len());
    let mut row_buf: Vec<TermId> = Vec::with_capacity(out_vars.len());
    for i in 0..left.len() {
        key_buf.clear();
        key_buf.extend(vars.iter().map(|&v| left.value(v, i)));
        let Some(matches) = table.get(key_buf.as_slice()) else {
            continue;
        };
        for &j in matches {
            if !extra_shared
                .iter()
                .all(|&v| left.value(v, i) == right.value(v, j))
            {
                continue;
            }
            row_buf.clear();
            for &v in left.vars() {
                row_buf.push(left.value(v, i));
            }
            for &v in &right_extra {
                row_buf.push(right.value(v, j));
            }
            out.push_row(&row_buf);
        }
    }
    out.set_sorted_by(left.sorted_by());
    out
}

/// Row-at-a-time Cartesian product (the pre-vectorization kernel).
///
/// # Panics
/// Panics if the inputs share a variable.
pub fn cross_product(left: &BindingTable, right: &BindingTable) -> BindingTable {
    let shared: Vec<Var> = left
        .vars()
        .iter()
        .copied()
        .filter(|v| right.vars().contains(v))
        .collect();
    assert!(shared.is_empty(), "cross product inputs share {shared:?}");

    let mut out_vars = left.vars().to_vec();
    out_vars.extend_from_slice(right.vars());
    let mut out = BindingTable::empty(out_vars.clone());
    let mut row_buf: Vec<TermId> = Vec::with_capacity(out_vars.len());
    for i in 0..left.len() {
        for j in 0..right.len() {
            row_buf.clear();
            for &v in left.vars() {
                row_buf.push(left.value(v, i));
            }
            for &v in right.vars() {
                row_buf.push(right.value(v, j));
            }
            out.push_row(&row_buf);
        }
    }
    if !right.is_empty() {
        out.set_sorted_by(left.sorted_by());
    }
    out
}

/// Row-at-a-time grouped aggregation — the operator-at-a-time evaluator's
/// implementation and the differential oracle for the γ breaker in
/// [`crate::aggregate`]. One pass collects each group's row indices
/// (first-seen order); a second pass walks each group's rows *in input
/// order* computing every aggregate the naive way.
/// Output layout, empty-input semantics, computed-term interning order
/// (row-major), and `HAVING` application match the pipeline breaker
/// exactly — the conformance suite asserts byte-identical tables.
pub fn hash_aggregate(
    ctx: &ExecContext,
    ds: &Dataset,
    input: &BindingTable,
    group_by: &[Var],
    aggs: &[AggSpec],
    having: Option<&hsp_sparql::Expr>,
) -> Result<BindingTable, AggError> {
    let mut keys: Vec<Vec<TermId>> = Vec::new();
    let mut index: HashMap<Vec<TermId>, usize> = HashMap::new();
    let mut rows_of: Vec<Vec<usize>> = Vec::new();
    for i in 0..input.len() {
        let key: Vec<TermId> = group_by.iter().map(|&v| input.value(v, i)).collect();
        let g = *index.entry(key.clone()).or_insert_with(|| {
            keys.push(key);
            rows_of.push(Vec::new());
            keys.len() - 1
        });
        rows_of[g].push(i);
    }
    // Ungrouped empty input: one implicit empty group (COUNT 0, SUM 0,
    // AVG 0, MIN/MAX unbound); grouped empty input: zero rows.
    if keys.is_empty() && group_by.is_empty() {
        keys.push(Vec::new());
        rows_of.push(Vec::new());
    }

    let mut out_vars: Vec<Var> = group_by.to_vec();
    out_vars.extend(aggs.iter().map(|a| a.out));
    let mut out = BindingTable::empty(out_vars);
    let mut row_buf: Vec<TermId> = Vec::new();
    for (key, rows) in keys.iter().zip(&rows_of) {
        row_buf.clear();
        row_buf.extend_from_slice(key);
        for spec in aggs {
            row_buf.push(reference_agg(ctx, ds, input, spec, rows)?);
        }
        out.push_row(&row_buf);
    }
    match having {
        Some(h) => Ok(apply_having(out, h, ctx, ds)),
        None => Ok(out),
    }
}

/// One aggregate over one group's rows, the naive way.
fn reference_agg(
    ctx: &ExecContext,
    ds: &Dataset,
    input: &BindingTable,
    spec: &AggSpec,
    rows: &[usize],
) -> Result<TermId, AggError> {
    // The group's bound argument values, in input row order, deduplicated
    // when the spec says DISTINCT. `None` only for `COUNT(*)`.
    let args: Option<Vec<TermId>> = spec.arg.map(|v| {
        let mut seen: HashSet<TermId> = HashSet::new();
        rows.iter()
            .map(|&i| input.value(v, i))
            .filter(|id| !id.is_unbound())
            .filter(|&id| !spec.distinct || seen.insert(id))
            .collect()
    });
    let type_err = |e: hsp_sparql::ExprError| AggError {
        agg: describe(spec),
        detail: e.to_string(),
    };
    let value = match (spec.func, &args) {
        (AggFunc::Count, None) => Value::Integer(rows.len() as i64),
        (AggFunc::Count, Some(args)) => Value::Integer(args.len() as i64),
        (AggFunc::Sum | AggFunc::Avg, None) => {
            unreachable!("the algebra only parses `*` under COUNT")
        }
        (AggFunc::Sum, Some(args)) => {
            let mut sum = Value::Integer(0);
            for &id in args {
                sum = arith(ArithOp::Add, &sum, &Value::from_term(ds.dict().term(id)))
                    .map_err(type_err)?;
            }
            sum
        }
        (AggFunc::Avg, Some(args)) => {
            if args.is_empty() {
                Value::Integer(0)
            } else {
                let mut sum = Value::Integer(0);
                for &id in args {
                    sum = arith(ArithOp::Add, &sum, &Value::from_term(ds.dict().term(id)))
                        .map_err(type_err)?;
                }
                arith(ArithOp::Div, &sum, &Value::Integer(args.len() as i64)).map_err(type_err)?
            }
        }
        (AggFunc::Min | AggFunc::Max, None) => {
            unreachable!("the algebra only parses `*` under COUNT")
        }
        (AggFunc::Min | AggFunc::Max, Some(args)) => {
            let mut best: Option<(Value, TermId)> = None;
            for &id in args {
                let v = Value::from_term(ds.dict().term(id));
                let better = match &best {
                    None => true,
                    Some((cur, _)) => {
                        let ord = compare_for_order(Some(&v), Some(cur));
                        if spec.func == AggFunc::Min {
                            ord == std::cmp::Ordering::Less
                        } else {
                            ord == std::cmp::Ordering::Greater
                        }
                    }
                };
                if better {
                    best = Some((v, id));
                }
            }
            // MIN/MAX output the *original* id of the winning row (unbound
            // for an empty group, the spec's error-as-unbound rule).
            return Ok(best.map_or(TermId::UNBOUND, |(_, id)| id));
        }
    };
    let term = value.to_term();
    Ok(ds
        .dict()
        .id(&term)
        .unwrap_or_else(|| ctx.intern_computed(term)))
}

/// Nested-loop inner join on **all** shared variables — the simplest
/// possible oracle: for every `(left row, right row)` pair, emit the
/// combined row iff the shared variables agree. Output rows come back as a
/// sorted row-set over `left.vars() ++ right-only vars`, ready to compare
/// with `sorted_rows()` of any join kernel's output.
pub fn nested_loop_join_rows(left: &BindingTable, right: &BindingTable) -> Vec<Vec<TermId>> {
    let shared: Vec<Var> = left
        .vars()
        .iter()
        .copied()
        .filter(|v| right.vars().contains(v))
        .collect();
    let right_extra: Vec<Var> = right
        .vars()
        .iter()
        .copied()
        .filter(|v| !left.vars().contains(v))
        .collect();
    let mut rows = Vec::new();
    for i in 0..left.len() {
        for j in 0..right.len() {
            if !shared
                .iter()
                .all(|&v| left.value(v, i) == right.value(v, j))
            {
                continue;
            }
            let mut row: Vec<TermId> = left.vars().iter().map(|&v| left.value(v, i)).collect();
            row.extend(right_extra.iter().map(|&v| right.value(v, j)));
            rows.push(row);
        }
    }
    rows.sort();
    rows
}
