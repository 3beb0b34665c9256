//! Grouped aggregation.
//!
//! SPARQL 1.1 `GROUP BY` + `COUNT`/`SUM`/`MIN`/`MAX`/`AVG` (+ `HAVING`)
//! runs as a **pipeline breaker** (see [`crate::pipeline`]): the input is
//! folded, in row order and on the coordinating thread, into one
//! `AggState` — a grouped hash state keyed by the `GROUP BY` value
//! tuple — which is then finalised into one output row per group. Under a
//! governor the fold passes over the input one morsel-sized range at a
//! time, each range behind an `"aggregate"` checkpoint; the ranges fold
//! into the same state, so the result does not depend on the range size.
//!
//! # Matching the reference fold
//!
//! The output must be byte-identical to the row-at-a-time reference
//! ([`crate::reference::hash_aggregate`]):
//!
//! * group rows are emitted in **first-seen input order** (the state keeps
//!   its keys in first-seen order);
//! * `COUNT` is an exact integer count;
//! * `SUM`/`AVG` (and every `DISTINCT` fold) keep the group's bound
//!   argument ids *in row order*, and finalisation folds them through
//!   [`hsp_sparql::expr::arith`] — the same left-to-right promotion ladder
//!   the reference uses, at the cost of `O(group rows)` state (which the
//!   governor charges, site `"aggregate"`);
//! * `MIN`/`MAX` fold eagerly (`O(1)` per group) under the SPARQL §9.1
//!   value order ([`compare_for_order`]), replacing only on a **strict**
//!   improvement — so the first-seen row of an equal-valued tie wins.
//!
//! # Computed terms
//!
//! `COUNT`/`SUM`/`AVG` produce values that may not exist in the dataset
//! dictionary. Finalisation resolves each result term against the
//! dictionary first and falls back to the per-execution computed-term
//! overlay ([`ExecContext::intern_computed`]); since groups finalise in
//! output order on one thread, both executors intern the same term
//! sequence and produce identical ids. `MIN`/`MAX` return one of the
//! *input* ids, so they never intern anything.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

use hsp_rdf::{Term, TermId};
use hsp_sparql::expr::{arith, compare_for_order};
use hsp_sparql::{AggFunc, AggSpec, ArithOp, Value, Var};
use hsp_store::Dataset;

use crate::binding::BindingTable;
use crate::kernel::FxBuildHasher;
use crate::pool::ExecContext;

/// A typed aggregation failure: `SUM`/`AVG` over a value outside the
/// numeric promotion ladder (string, IRI, ill-typed literal, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggError {
    /// The aggregate that failed, e.g. `SUM(?v1)`.
    pub agg: String,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for AggError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "aggregate {}: {}", self.agg, self.detail)
    }
}

impl std::error::Error for AggError {}

/// Human form of one aggregate spec, for errors and `--explain` output.
pub(crate) fn describe(spec: &AggSpec) -> String {
    let distinct = if spec.distinct { "DISTINCT " } else { "" };
    match spec.arg {
        Some(v) => format!("{}({distinct}{v})", spec.func.name()),
        None => format!("{}({distinct}*)", spec.func.name()),
    }
}

/// One accumulator: the per-(group, aggregate) fold state.
#[derive(Debug, Clone)]
enum Acc {
    /// Plain `COUNT` (rows, or bound-argument rows): an exact add.
    Count(u64),
    /// `SUM`/`AVG` and every `DISTINCT` fold: the group's bound argument
    /// ids in input row order (finalisation folds or dedups them).
    Values(Vec<TermId>),
    /// `MIN`/`MAX`: best value so far plus the input id that produced it
    /// (the output is the *original* id — no re-interning).
    Extreme(Option<(Value, TermId)>),
}

impl Acc {
    fn fresh(spec: &AggSpec) -> Acc {
        match spec.func {
            AggFunc::Count if !spec.distinct => Acc::Count(0),
            AggFunc::Count | AggFunc::Sum | AggFunc::Avg => Acc::Values(Vec::new()),
            AggFunc::Min | AggFunc::Max => Acc::Extreme(None),
        }
    }

    /// Bytes this accumulator holds beyond its inline size — the unit of
    /// the governor's `"aggregate"` memory accounting.
    fn heap_bytes(&self) -> usize {
        match self {
            Acc::Count(_) | Acc::Extreme(_) => 0,
            Acc::Values(v) => v.len() * std::mem::size_of::<TermId>(),
        }
    }
}

/// The grouped fold state of one γ breaker.
#[derive(Debug, Default)]
pub(crate) struct AggState {
    /// Group keys in first-seen order.
    keys: Vec<Vec<TermId>>,
    /// Key → index into `keys`/`accs`.
    index: HashMap<Vec<TermId>, usize, FxBuildHasher>,
    /// `accs[g][a]`: accumulator of aggregate `a` in group `g`.
    accs: Vec<Vec<Acc>>,
}

impl AggState {
    fn group(&mut self, key: Vec<TermId>, aggs: &[AggSpec]) -> usize {
        if let Some(&g) = self.index.get(&key) {
            return g;
        }
        let g = self.keys.len();
        self.keys.push(key.clone());
        self.index.insert(key, g);
        self.accs.push(aggs.iter().map(Acc::fresh).collect());
        g
    }

    /// Finalised group count.
    pub(crate) fn groups(&self) -> usize {
        self.keys.len()
    }

    /// Approximate heap footprint (keys + accumulator value vectors), for
    /// the governor's `"aggregate"` budget checks.
    pub(crate) fn heap_bytes(&self) -> usize {
        let keys: usize = self
            .keys
            .len()
            .saturating_mul(2) // one copy in `keys`, one in `index`
            .saturating_mul(self.keys.first().map_or(0, Vec::len))
            .saturating_mul(std::mem::size_of::<TermId>());
        let accs: usize = self
            .accs
            .iter()
            .flat_map(|row| row.iter().map(Acc::heap_bytes))
            .sum();
        keys + accs
    }
}

/// Fold rows `rows` of `input` into `state`, in row order. Folding
/// consecutive ranges one after another equals folding their union.
pub(crate) fn fold_range(
    state: &mut AggState,
    input: &BindingTable,
    ds: &Dataset,
    group_by: &[Var],
    aggs: &[AggSpec],
    rows: Range<usize>,
) {
    // Pre-resolve the columns once per range, not once per row. Group
    // variables are validated bound; an aggregate argument may still be
    // unbound per row (OPTIONAL padding), which the fold skips.
    let group_cols: Vec<&[TermId]> = group_by.iter().map(|&v| input.column(v)).collect();
    let arg_cols: Vec<Option<&[TermId]>> = aggs
        .iter()
        .map(|a| a.arg.map(|v| input.column(v)))
        .collect();

    let mut key = Vec::with_capacity(group_by.len());
    for i in rows {
        key.clear();
        key.extend(group_cols.iter().map(|c| c[i]));
        let g = state.group(key.clone(), aggs);
        for (a, spec) in aggs.iter().enumerate() {
            let arg = arg_cols[a].map(|c| c[i]);
            fold_one(&mut state.accs[g][a], spec, arg, ds);
        }
    }
}

/// Fold one row into one accumulator. `arg` is `None` for `COUNT(*)`,
/// `Some(UNBOUND)` for a row where the argument variable is unbound
/// (skipped by every aggregate except `COUNT(*)`).
fn fold_one(acc: &mut Acc, spec: &AggSpec, arg: Option<TermId>, ds: &Dataset) {
    match acc {
        Acc::Count(n) => {
            if arg.is_none_or(|id| !id.is_unbound()) {
                *n += 1;
            }
        }
        Acc::Values(vals) => {
            // invariant: `Acc::fresh` only builds `Values` for aggregates
            // with an argument (COUNT(DISTINCT *) parses as plain COUNT).
            let id = arg.expect("value accumulator without an argument");
            if !id.is_unbound() {
                vals.push(id);
            }
        }
        Acc::Extreme(best) => {
            let id = arg.expect("extreme accumulator without an argument");
            if id.is_unbound() {
                return;
            }
            let value = Value::from_term(ds.dict().term(id));
            let better = match best {
                None => true,
                Some((cur, _)) => {
                    let ord = compare_for_order(Some(&value), Some(cur));
                    // Strict improvement only: ties keep the first-seen row.
                    if spec.func == AggFunc::Min {
                        ord == std::cmp::Ordering::Less
                    } else {
                        ord == std::cmp::Ordering::Greater
                    }
                }
            };
            if better {
                *best = Some((value, id));
            }
        }
    }
}

/// Finalise the fold state into the output table: one row per group,
/// group-key columns (in `group_by` order) then aggregate outputs (in
/// `aggs` order). `HAVING` is **not** applied here — the caller builds
/// the full group table first so both executors intern identical term
/// sequences, then filters with [`apply_having`] (see the pipeline
/// breaker and [`crate::reference::hash_aggregate`]).
pub(crate) fn finalise(
    mut state: AggState,
    ctx: &ExecContext,
    ds: &Dataset,
    group_by: &[Var],
    aggs: &[AggSpec],
) -> Result<BindingTable, AggError> {
    // Ungrouped aggregation over an empty input still yields one row
    // (COUNT 0, SUM 0, AVG 0, MIN/MAX unbound — SPARQL 1.1 §18.5);
    // grouped aggregation yields zero rows.
    if state.keys.is_empty() && group_by.is_empty() {
        state.group(Vec::new(), aggs);
    }

    let groups = state.keys.len();
    let mut vars: Vec<Var> = group_by.to_vec();
    let mut cols: Vec<Vec<TermId>> = group_by
        .iter()
        .enumerate()
        .map(|(k, _)| state.keys.iter().map(|key| key[k]).collect())
        .collect();

    // Finalise row-major (group g's aggregates before group g+1's) so the
    // computed-term intern order matches the row-at-a-time reference
    // implementation exactly — overlay ids are positional.
    let mut agg_cols: Vec<Vec<TermId>> = aggs.iter().map(|_| Vec::with_capacity(groups)).collect();
    for g in 0..groups {
        for (a, spec) in aggs.iter().enumerate() {
            agg_cols[a].push(finalise_acc(&state.accs[g][a], spec, ctx, ds)?);
        }
    }
    for (spec, col) in aggs.iter().zip(agg_cols) {
        vars.push(spec.out);
        cols.push(col);
    }

    // Group rows follow first-seen order, not any TermId order.
    Ok(BindingTable::from_columns(vars, cols, None))
}

/// Finalise one accumulator into an output id.
fn finalise_acc(
    acc: &Acc,
    spec: &AggSpec,
    ctx: &ExecContext,
    ds: &Dataset,
) -> Result<TermId, AggError> {
    let value = match (acc, spec.func) {
        (Acc::Count(n), _) => Value::Integer(*n as i64),
        (Acc::Values(vals), AggFunc::Count) => Value::Integer(count_distinct(vals) as i64),
        (Acc::Values(vals), AggFunc::Sum) => fold_numeric(vals, spec, ds)?.0,
        (Acc::Values(vals), AggFunc::Avg) => {
            let (sum, n) = fold_numeric(vals, spec, ds)?;
            if n == 0 {
                Value::Integer(0) // Avg({}) = 0, like Sum({}) = 0.
            } else {
                arith(ArithOp::Div, &sum, &Value::Integer(n as i64))
                    .map_err(|e| type_error(spec, e))?
            }
        }
        (Acc::Extreme(best), _) => {
            // MIN/MAX of an empty (or all-unbound) group is an error per
            // the spec, which leaves the output variable unbound.
            return Ok(best.as_ref().map_or(TermId::UNBOUND, |&(_, id)| id));
        }
        _ => unreachable!("accumulator kinds are fixed per aggregate"),
    };
    let term = value.to_term();
    Ok(ds
        .dict()
        .id(&term)
        .unwrap_or_else(|| ctx.intern_computed(term)))
}

/// `SUM`'s sequential left fold from `Integer(0)` (also `AVG`'s numerator):
/// returns the folded sum and the number of values folded, applying the
/// `DISTINCT` dedup first when the spec asks for it.
fn fold_numeric(vals: &[TermId], spec: &AggSpec, ds: &Dataset) -> Result<(Value, usize), AggError> {
    let deduped;
    let vals = if spec.distinct {
        deduped = dedup_in_order(vals);
        deduped.as_slice()
    } else {
        vals
    };
    let mut sum = Value::Integer(0);
    for &id in vals {
        let v = Value::from_term(ds.dict().term(id));
        sum = arith(ArithOp::Add, &sum, &v).map_err(|e| type_error(spec, e))?;
    }
    Ok((sum, vals.len()))
}

fn type_error(spec: &AggSpec, e: hsp_sparql::ExprError) -> AggError {
    AggError {
        agg: describe(spec),
        detail: e.to_string(),
    }
}

/// Distinct count of `vals` (term identity — interning is injective).
fn count_distinct(vals: &[TermId]) -> usize {
    let mut seen: std::collections::HashSet<TermId, FxBuildHasher> =
        std::collections::HashSet::default();
    vals.iter().filter(|&&id| seen.insert(id)).count()
}

/// First-occurrence dedup preserving input order.
fn dedup_in_order(vals: &[TermId]) -> Vec<TermId> {
    let mut seen: std::collections::HashSet<TermId, FxBuildHasher> =
        std::collections::HashSet::default();
    vals.iter().copied().filter(|&id| seen.insert(id)).collect()
}

/// [`hsp_sparql::Bindings`] over one finalised group row, resolving
/// computed ids through the execution context's overlay — the `HAVING`
/// evaluation view (and the result materialisation view in the CLI).
pub(crate) struct GroupRowBindings<'a> {
    /// The dataset dictionary for ordinary ids.
    pub ds: &'a Dataset,
    /// The overlay for computed ids.
    pub ctx: &'a ExecContext,
    /// The finalised group table.
    pub table: &'a BindingTable,
    /// The row under evaluation.
    pub row: usize,
}

impl hsp_sparql::Bindings for GroupRowBindings<'_> {
    fn term(&self, v: Var) -> Option<Term> {
        let id = match self.table.col_index(v) {
            Some(c) => self.table.columns()[c][self.row],
            None => TermId::UNBOUND,
        };
        if id.is_unbound() {
            None
        } else if crate::pool::is_computed(id) {
            self.ctx.computed_term(id)
        } else {
            Some(self.ds.dict().term(id).clone())
        }
    }
}

/// Apply `HAVING` to a finalised group table: keep the rows where the
/// predicate evaluates to true (an evaluation error is false, the usual
/// SPARQL filter rule). Consumes the unfiltered table.
pub(crate) fn apply_having(
    table: BindingTable,
    having: &hsp_sparql::Expr,
    ctx: &ExecContext,
    ds: &Dataset,
) -> BindingTable {
    let evaluator = hsp_sparql::Evaluator::new();
    let mut sel = Vec::with_capacity(table.len());
    for row in 0..table.len() {
        let bindings = GroupRowBindings {
            ds,
            ctx,
            table: &table,
            row,
        };
        if evaluator.matches(having, &bindings) {
            sel.push(row as u32);
        }
    }
    table.gather(&sel)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        Dataset::from_ntriples(
            r#"<http://e/a1> <http://e/p> "1"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://e/a1> <http://e/p> "2"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://e/a2> <http://e/p> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://e/a2> <http://e/p> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
"#,
        )
        .unwrap()
    }

    fn id(ds: &Dataset, term: &Term) -> TermId {
        ds.dict().id(term).unwrap()
    }

    /// A fresh fold state with `rows` of `table` folded in.
    fn fold(
        table: &BindingTable,
        ds: &Dataset,
        group_by: &[Var],
        aggs: &[AggSpec],
        rows: Range<usize>,
    ) -> AggState {
        let mut state = AggState::default();
        fold_range(&mut state, table, ds, group_by, aggs, rows);
        state
    }

    fn int_term(n: i64) -> Term {
        Value::Integer(n).to_term()
    }

    fn spec(func: AggFunc, distinct: bool, arg: Option<Var>, out: Var) -> AggSpec {
        AggSpec {
            func,
            distinct,
            arg,
            out,
            name: "agg".into(),
        }
    }

    /// `?g` in column 0, `?x` in column 1.
    fn input(ds: &Dataset) -> BindingTable {
        let g1 = id(ds, &Term::iri("http://e/a1"));
        let g2 = id(ds, &Term::iri("http://e/a2"));
        let one = id(ds, &int_term(1));
        let two = id(ds, &int_term(2));
        let three = id(ds, &int_term(3));
        BindingTable::from_columns(
            vec![Var(0), Var(1)],
            vec![vec![g1, g1, g2, g2], vec![one, two, three, three]],
            None,
        )
    }

    #[test]
    fn folding_ranges_into_one_accumulator_equals_one_fold() {
        let ds = dataset();
        let table = input(&ds);
        let ctx = ExecContext::new();
        let aggs = vec![
            spec(AggFunc::Count, false, None, Var(2)),
            spec(AggFunc::Sum, false, Some(Var(1)), Var(3)),
            spec(AggFunc::Avg, false, Some(Var(1)), Var(4)),
            spec(AggFunc::Min, false, Some(Var(1)), Var(5)),
            spec(AggFunc::Max, false, Some(Var(1)), Var(6)),
            spec(AggFunc::Count, true, Some(Var(1)), Var(7)),
        ];
        let whole = fold(&table, &ds, &[Var(0)], &aggs, 0..4);
        let seq = finalise(whole, &ctx, &ds, &[Var(0)], &aggs).unwrap();

        let ctx2 = ExecContext::new();
        let mut ranges = AggState::default();
        for i in 0..4 {
            fold_range(&mut ranges, &table, &ds, &[Var(0)], &aggs, i..i + 1);
        }
        let par = finalise(ranges, &ctx2, &ds, &[Var(0)], &aggs).unwrap();
        assert_eq!(seq, par);

        // Hand-checked values: group a1 → count 2, sum 3, avg 1.5,
        // min 1, max 2, distinct-count 2; a2 → 2, 6, 3, 3, 3, 1.
        assert_eq!(seq.len(), 2);
        let sum_a1 = seq.value(Var(3), 0);
        assert_eq!(ds.dict().id(&int_term(3)), Some(sum_a1));
        let avg_a1 = ctx.computed_term(seq.value(Var(4), 0)).unwrap();
        assert_eq!(
            avg_a1,
            Term::typed_literal("1.5", hsp_rdf::vocab::XSD_DECIMAL)
        );
        let min_a1 = seq.value(Var(5), 0);
        assert_eq!(ds.dict().id(&int_term(1)), Some(min_a1));
        let cd_a2 = seq.value(Var(7), 1);
        assert_eq!(ds.dict().id(&int_term(1)), Some(cd_a2));
    }

    #[test]
    fn empty_input_ungrouped_yields_one_zero_row() {
        let ds = dataset();
        let ctx = ExecContext::new();
        let table = BindingTable::empty(vec![Var(0), Var(1)]);
        let aggs = vec![
            spec(AggFunc::Count, false, None, Var(2)),
            spec(AggFunc::Sum, false, Some(Var(1)), Var(3)),
            spec(AggFunc::Min, false, Some(Var(1)), Var(4)),
        ];
        let state = fold(&table, &ds, &[], &aggs, 0..0);
        let out = finalise(state, &ctx, &ds, &[], &aggs).unwrap();
        assert_eq!(out.len(), 1);
        let zero = out.value(Var(2), 0);
        let term = ctx
            .computed_term(zero)
            .unwrap_or_else(|| ds.dict().term(zero).clone());
        assert_eq!(term, int_term(0));
        assert_eq!(out.value(Var(2), 0), out.value(Var(3), 0)); // COUNT 0 == SUM 0
        assert!(out.value(Var(4), 0).is_unbound()); // MIN of nothing
    }

    #[test]
    fn empty_input_grouped_yields_zero_rows() {
        let ds = dataset();
        let ctx = ExecContext::new();
        let table = BindingTable::empty(vec![Var(0), Var(1)]);
        let aggs = vec![spec(AggFunc::Count, false, None, Var(2))];
        let state = fold(&table, &ds, &[Var(0)], &aggs, 0..0);
        let out = finalise(state, &ctx, &ds, &[Var(0)], &aggs).unwrap();
        assert_eq!(out.len(), 0);
        assert_eq!(out.vars(), &[Var(0), Var(2)]);
    }

    #[test]
    fn sum_over_iri_is_a_typed_error() {
        let ds = dataset();
        let ctx = ExecContext::new();
        let g = id(&ds, &Term::iri("http://e/a1"));
        let table = BindingTable::from_columns(vec![Var(0)], vec![vec![g]], None);
        let aggs = vec![spec(AggFunc::Sum, false, Some(Var(0)), Var(1))];
        let state = fold(&table, &ds, &[], &aggs, 0..1);
        let err = finalise(state, &ctx, &ds, &[], &aggs).unwrap_err();
        assert_eq!(err.agg, "SUM(?v0)");
    }

    #[test]
    fn unbound_arguments_are_skipped_but_count_star_sees_the_row() {
        let ds = dataset();
        let ctx = ExecContext::new();
        let one = id(&ds, &int_term(1));
        let table =
            BindingTable::from_columns(vec![Var(0)], vec![vec![one, TermId::UNBOUND, one]], None);
        let aggs = vec![
            spec(AggFunc::Count, false, None, Var(1)),
            spec(AggFunc::Count, false, Some(Var(0)), Var(2)),
            spec(AggFunc::Sum, false, Some(Var(0)), Var(3)),
        ];
        let state = fold(&table, &ds, &[], &aggs, 0..3);
        let out = finalise(state, &ctx, &ds, &[], &aggs).unwrap();
        assert_eq!(out.value(Var(1), 0), id(&ds, &int_term(3))); // COUNT(*)
        assert_eq!(out.value(Var(2), 0), id(&ds, &int_term(2))); // COUNT(?x)
        assert_eq!(out.value(Var(3), 0), id(&ds, &int_term(2))); // SUM
    }

    #[test]
    fn min_max_ties_keep_the_first_seen_id_across_ranges() {
        // Two distinct ids, equal values ("3" appears twice in the data as
        // one id — craft equality via decimal 3.0 vs integer 3 instead).
        let ds = Dataset::from_ntriples(
            r#"<http://e/s> <http://e/p> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://e/s> <http://e/p> "3.0"^^<http://www.w3.org/2001/XMLSchema#decimal> .
"#,
        )
        .unwrap();
        let int3 = id(&ds, &Term::typed_literal("3", hsp_rdf::vocab::XSD_INTEGER));
        let dec3 = id(
            &ds,
            &Term::typed_literal("3.0", hsp_rdf::vocab::XSD_DECIMAL),
        );
        let ctx = ExecContext::new();
        let table = BindingTable::from_columns(vec![Var(0)], vec![vec![int3, dec3]], None);
        let aggs = vec![
            spec(AggFunc::Min, false, Some(Var(0)), Var(1)),
            spec(AggFunc::Max, false, Some(Var(0)), Var(2)),
        ];
        // Sequential: first-seen (int3) wins both.
        let seq = finalise(fold(&table, &ds, &[], &aggs, 0..2), &ctx, &ds, &[], &aggs).unwrap();
        assert_eq!(seq.value(Var(1), 0), int3);
        assert_eq!(seq.value(Var(2), 0), int3);
        // Folded one row at a time into one state: identical.
        let mut ranges = AggState::default();
        fold_range(&mut ranges, &table, &ds, &[], &aggs, 0..1);
        fold_range(&mut ranges, &table, &ds, &[], &aggs, 1..2);
        let par = finalise(ranges, &ExecContext::new(), &ds, &[], &aggs).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn having_filters_group_rows() {
        let ds = dataset();
        let ctx = ExecContext::new();
        let table = input(&ds);
        let aggs = vec![spec(AggFunc::Sum, false, Some(Var(1)), Var(2))];
        let out = finalise(
            fold(&table, &ds, &[Var(0)], &aggs, 0..4),
            &ctx,
            &ds,
            &[Var(0)],
            &aggs,
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        // HAVING (?v2 > 4): only a2 (sum 6) survives.
        let having = hsp_sparql::Expr::Cmp {
            op: hsp_sparql::CmpOp::Gt,
            lhs: Box::new(hsp_sparql::Expr::Var(Var(2))),
            rhs: Box::new(hsp_sparql::Expr::Const(int_term(4))),
        };
        let kept = apply_having(out, &having, &ctx, &ds);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept.value(Var(0), 0), id(&ds, &Term::iri("http://e/a2")));
    }
}
