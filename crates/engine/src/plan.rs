//! The physical plan tree shared by HSP and the baseline planners.

use std::fmt;

use hsp_sparql::{AggSpec, FilterExpr, TriplePattern, Var};
use hsp_store::Order;

/// A physical execution plan.
///
/// Leaves are scan-selects over one of the six ordered relations; inner
/// nodes are merge joins, hash joins, cross products, filters, and a final
/// projection. The tree is engine-agnostic data — validation and evaluation
/// live in [`crate::exec`].
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Scan one ordered relation for the rows matching a triple pattern's
    /// constants; emits one column per pattern variable.
    Scan {
        /// Index of the pattern in the source query (for explain output).
        pattern_idx: usize,
        /// The pattern itself.
        pattern: TriplePattern,
        /// Which of the six sorted relations to read.
        order: Order,
    },
    /// Sort-merge join on `var`; both inputs must be sorted by `var`.
    /// If the inputs share further variables, equality on them is enforced
    /// as part of the join.
    MergeJoin {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
        /// The (sorted) join variable.
        var: Var,
    },
    /// Hash join on `vars` (all variables shared by the two inputs). The
    /// right side is built into the hash table, the left side probes, so
    /// the output inherits the left side's ordering.
    HashJoin {
        /// Probe input.
        left: Box<PhysicalPlan>,
        /// Build input.
        right: Box<PhysicalPlan>,
        /// Join variables (non-empty).
        vars: Vec<Var>,
    },
    /// Left-outer hash join on `vars` — the OPTIONAL operator. Every left
    /// (probe) row survives; rows without a build match carry
    /// `TermId::UNBOUND` in the right-only columns. Like [`Self::HashJoin`]
    /// the right side builds and the left side streams through the probe,
    /// so the pipeline executor lowers it as a probe *stage* (the
    /// unmatched-row sentinel is emitted per probe row, which keeps morsel
    /// stitching deterministic).
    ///
    /// With `vars` empty the inputs share no variable (an OPTIONAL group
    /// unrelated to what precedes it): every left row pairs with every
    /// right row, or survives once with the right columns UNBOUND when the
    /// right side is empty. That form materialises like a cross product.
    LeftOuterHashJoin {
        /// Probe input (preserved in full).
        left: Box<PhysicalPlan>,
        /// Build input (optional side).
        right: Box<PhysicalPlan>,
        /// Join variables: all variables shared by both inputs.
        vars: Vec<Var>,
    },
    /// UNION: the left rows, then the right rows, over the union of both
    /// inputs' variables; a variable one branch does not bind is
    /// `TermId::UNBOUND` in that branch's rows.
    Union {
        /// First branch.
        left: Box<PhysicalPlan>,
        /// Second branch.
        right: Box<PhysicalPlan>,
    },
    /// Cartesian product (no shared variables).
    CrossProduct {
        /// Left input (major order).
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
    },
    /// Order enforcer: sort the input by `var` so a merge join becomes
    /// possible where no native scan order provides it. HSP and CDP never
    /// emit it (the paper's plans only merge-join on native orders); it is
    /// available for enforcer-style planning experiments.
    Sort {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// The variable to sort by.
        var: Var,
    },
    /// Residual FILTER evaluation.
    Filter {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// The predicate.
        expr: FilterExpr,
    },
    /// Final projection (and optional DISTINCT).
    Project {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// `(output name, variable)` pairs.
        projection: Vec<(String, Var)>,
        /// Deduplicate rows?
        distinct: bool,
    },
    /// Grouped aggregation (`GROUP BY` + aggregate select items + optional
    /// `HAVING`). Consumes its whole input, folds rows into a grouped hash
    /// state, and emits one row per group: the group-key columns first (in
    /// `group_by` order), then one column per aggregate output (in `aggs`
    /// order). Group rows are emitted in **first-seen input order**, which
    /// keeps the output deterministic across morsel parallelism (partial
    /// states merge in morsel order). With `group_by` empty the node
    /// computes one implicit all-rows group (which for an empty input still
    /// yields a single row: `COUNT` = 0, `SUM` = 0, `MIN`/`MAX` unbound —
    /// the SPARQL 1.1 §18.5 semantics).
    HashAggregate {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// `GROUP BY` variables, in source order (may be empty).
        group_by: Vec<Var>,
        /// Aggregate specifications, in SELECT order (hidden HAVING-only
        /// aggregates trail the projected ones).
        aggs: Vec<AggSpec>,
        /// `HAVING` predicate, evaluated per finalised group row; group
        /// rows where it does not evaluate to true are dropped.
        having: Option<hsp_sparql::Expr>,
    },
    /// `ORDER BY` over the final result — a solution modifier; planners
    /// wrap it around the projection via [`PhysicalPlan::with_modifiers`].
    OrderBy {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Sort keys in priority order.
        keys: Vec<hsp_sparql::SortKey>,
    },
    /// `LIMIT`/`OFFSET` over the final result.
    Slice {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Rows to skip.
        offset: usize,
        /// Rows to keep after the offset.
        limit: Option<usize>,
    },
}

impl PhysicalPlan {
    /// Wrap this (projection-topped) plan with the query's solution
    /// modifiers: `ORDER BY` first, then `OFFSET`/`LIMIT` — the SPARQL §9
    /// application order. A no-op for modifier-free queries, so the paper's
    /// workload plans are unchanged.
    ///
    /// The sort goes above the projection, except when a key reads a
    /// variable the projection drops: then it goes beneath it (SPARQL's
    /// own order — ORDER BY, projection, DISTINCT, slice). With
    /// projected-only keys the two placements give identical rows.
    pub fn with_modifiers(self, modifiers: &hsp_sparql::Modifiers) -> PhysicalPlan {
        let mut plan = self;
        if !modifiers.order_by.is_empty() {
            let keys = modifiers.order_by.clone();
            plan = match plan {
                PhysicalPlan::Project {
                    input,
                    projection,
                    distinct,
                } if keys.iter().any(|k| {
                    k.expr
                        .vars()
                        .iter()
                        .any(|v| !projection.iter().any(|(_, p)| p == v))
                }) =>
                {
                    PhysicalPlan::Project {
                        input: Box::new(PhysicalPlan::OrderBy { input, keys }),
                        projection,
                        distinct,
                    }
                }
                plan => PhysicalPlan::OrderBy {
                    input: Box::new(plan),
                    keys,
                },
            };
        }
        if modifiers.limit.is_some() || modifiers.offset > 0 {
            plan = PhysicalPlan::Slice {
                input: Box::new(plan),
                offset: modifiers.offset,
                limit: modifiers.limit,
            };
        }
        plan
    }

    /// The distinct variables produced by this plan, in a deterministic
    /// order (left depth-first).
    pub fn output_vars(&self) -> Vec<Var> {
        match self {
            PhysicalPlan::Scan { pattern, .. } => pattern.vars(),
            PhysicalPlan::MergeJoin { left, right, .. }
            | PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::LeftOuterHashJoin { left, right, .. }
            | PhysicalPlan::CrossProduct { left, right }
            | PhysicalPlan::Union { left, right } => {
                let mut vars = left.output_vars();
                for v in right.output_vars() {
                    if !vars.contains(&v) {
                        vars.push(v);
                    }
                }
                vars
            }
            PhysicalPlan::Sort { input, .. } | PhysicalPlan::Filter { input, .. } => {
                input.output_vars()
            }
            PhysicalPlan::Project { projection, .. } => {
                let mut vars = Vec::new();
                for &(_, v) in projection {
                    if !vars.contains(&v) {
                        vars.push(v);
                    }
                }
                vars
            }
            PhysicalPlan::HashAggregate { group_by, aggs, .. } => {
                let mut vars = group_by.clone();
                for a in aggs {
                    if !vars.contains(&a.out) {
                        vars.push(a.out);
                    }
                }
                vars
            }
            PhysicalPlan::OrderBy { input, .. } | PhysicalPlan::Slice { input, .. } => {
                input.output_vars()
            }
        }
    }

    /// The variable this plan's output is sorted by, if any.
    ///
    /// * A scan is sorted by the first variable in its order's key after the
    ///   pattern's constants (provided the constants occupy a key prefix).
    /// * A merge join is sorted by its join variable.
    /// * A hash join / cross product inherits the probe (left) side.
    /// * Filters and projections preserve order (a projection loses the
    ///   property if it drops the sort variable).
    pub fn sorted_by(&self) -> Option<Var> {
        match self {
            PhysicalPlan::Scan { pattern, order, .. } => scan_sort_var(pattern, *order),
            PhysicalPlan::MergeJoin { var, .. } => Some(*var),
            PhysicalPlan::HashJoin { left, .. } | PhysicalPlan::CrossProduct { left, .. } => {
                left.sorted_by()
            }
            // Probe order is preserved, but unmatched rows pad right-only
            // columns with UNBOUND sentinels — the operator conservatively
            // advertises no sortedness (matching `ops::left_outer_hash_join`).
            PhysicalPlan::LeftOuterHashJoin { .. } => None,
            // Branch rows are concatenated, not merged.
            PhysicalPlan::Union { .. } => None,
            PhysicalPlan::Sort { var, .. } => Some(*var),
            PhysicalPlan::Filter { input, .. } => input.sorted_by(),
            PhysicalPlan::Project {
                input, projection, ..
            } => input
                .sorted_by()
                .filter(|v| projection.iter().any(|&(_, p)| p == *v)),
            // Group rows come out in first-seen order, not TermId order.
            PhysicalPlan::HashAggregate { .. } => None,
            // ORDER BY sorts by SPARQL value order, not TermId order.
            PhysicalPlan::OrderBy { .. } => None,
            PhysicalPlan::Slice { input, .. } => input.sorted_by(),
        }
    }

    /// `true` if this operator is a **pipeline breaker**: it must consume
    /// its whole input (or one whole side) before emitting a row, so the
    /// pipeline executor ([`crate::pipeline`]) materialises at its
    /// boundary. The breaker table:
    ///
    /// | operator            | breaks because                                  |
    /// |---------------------|--------------------------------------------------|
    /// | `MergeJoin`         | both inputs must be complete and sorted          |
    /// | `HashJoin`          | the build (right) side must be fully hashed — the probe side streams |
    /// | `LeftOuterHashJoin` | same as `HashJoin`: build side breaks, the probe side streams (unmatched rows emit a sentinel per probe row) |
    /// | `CrossProduct`      | tiles one whole side over the other              |
    /// | `Union`             | the output layout pads each branch's missing columns over whole tables |
    /// | `Sort`              | order enforcement sees every row                 |
    /// | `OrderBy`           | solution-modifier sort sees every row            |
    /// | `HashAggregate`     | folds every row into the grouped hash state      |
    /// | `Slice`             | OFFSET counts rows globally                      |
    ///
    /// `Scan` and `Filter` stream and are never breakers, and neither is
    /// `Project` — plain **or** DISTINCT. A plain projection is a pure
    /// layout change (a column subset/reorder with no per-row work), so
    /// the pipeline executor folds it into the stage chain (and, at the
    /// root, into the sink gather itself). A DISTINCT projection runs as a
    /// **two-phase streaming dedup**: each morsel worker drops duplicates
    /// within its morsel against a thread-local set (phase one), and the
    /// sink applies a global first-occurrence pass over the already-thinned
    /// rows (phase two) — no global materialisation before the sink, so
    /// dedup no longer breaks the pipeline.
    pub fn is_pipeline_breaker(&self) -> bool {
        match self {
            PhysicalPlan::Scan { .. } | PhysicalPlan::Filter { .. } => false,
            PhysicalPlan::Project { .. } => false,
            PhysicalPlan::MergeJoin { .. }
            | PhysicalPlan::HashJoin { .. }
            | PhysicalPlan::LeftOuterHashJoin { .. }
            | PhysicalPlan::CrossProduct { .. }
            | PhysicalPlan::Union { .. }
            | PhysicalPlan::Sort { .. }
            | PhysicalPlan::HashAggregate { .. }
            | PhysicalPlan::OrderBy { .. }
            | PhysicalPlan::Slice { .. } => true,
        }
    }

    /// Indices of the patterns scanned by this plan, in leaf order.
    pub fn scanned_patterns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.visit(&mut |p| {
            if let PhysicalPlan::Scan { pattern_idx, .. } = p {
                out.push(*pattern_idx);
            }
        });
        out
    }

    /// Add `by` to every scan's `pattern_idx` — how a plan made for one
    /// block of a larger query is numbered into that query's pattern list.
    pub fn shift_pattern_indices(&mut self, by: usize) {
        match self {
            PhysicalPlan::Scan { pattern_idx, .. } => *pattern_idx += by,
            PhysicalPlan::MergeJoin { left, right, .. }
            | PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::LeftOuterHashJoin { left, right, .. }
            | PhysicalPlan::CrossProduct { left, right }
            | PhysicalPlan::Union { left, right } => {
                left.shift_pattern_indices(by);
                right.shift_pattern_indices(by);
            }
            PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::HashAggregate { input, .. }
            | PhysicalPlan::OrderBy { input, .. }
            | PhysicalPlan::Slice { input, .. } => input.shift_pattern_indices(by),
        }
    }

    /// A copy with cached-plan parameters rebound: every constant `t`
    /// where `term(t)` is `Some` is replaced by the mapped term, and
    /// every output name `n` (projection columns, aggregate aliases)
    /// where `name(n)` is `Some` is replaced. The session plan cache
    /// uses this to instantiate a cached plan for a shape-equal query
    /// with different constants and SELECT names — the tree structure,
    /// scan orders, and join choices are untouched, so no planning runs.
    pub fn instantiate(
        &self,
        term: &impl Fn(&hsp_rdf::Term) -> Option<hsp_rdf::Term>,
        name: &impl Fn(&str) -> Option<String>,
    ) -> PhysicalPlan {
        match self {
            PhysicalPlan::Scan {
                pattern_idx,
                pattern,
                order,
            } => PhysicalPlan::Scan {
                pattern_idx: *pattern_idx,
                pattern: pattern.map_consts(term),
                order: *order,
            },
            PhysicalPlan::MergeJoin { left, right, var } => PhysicalPlan::MergeJoin {
                left: Box::new(left.instantiate(term, name)),
                right: Box::new(right.instantiate(term, name)),
                var: *var,
            },
            PhysicalPlan::HashJoin { left, right, vars } => PhysicalPlan::HashJoin {
                left: Box::new(left.instantiate(term, name)),
                right: Box::new(right.instantiate(term, name)),
                vars: vars.clone(),
            },
            PhysicalPlan::LeftOuterHashJoin { left, right, vars } => {
                PhysicalPlan::LeftOuterHashJoin {
                    left: Box::new(left.instantiate(term, name)),
                    right: Box::new(right.instantiate(term, name)),
                    vars: vars.clone(),
                }
            }
            PhysicalPlan::CrossProduct { left, right } => PhysicalPlan::CrossProduct {
                left: Box::new(left.instantiate(term, name)),
                right: Box::new(right.instantiate(term, name)),
            },
            PhysicalPlan::Union { left, right } => PhysicalPlan::Union {
                left: Box::new(left.instantiate(term, name)),
                right: Box::new(right.instantiate(term, name)),
            },
            PhysicalPlan::Sort { input, var } => PhysicalPlan::Sort {
                input: Box::new(input.instantiate(term, name)),
                var: *var,
            },
            PhysicalPlan::Filter { input, expr } => PhysicalPlan::Filter {
                input: Box::new(input.instantiate(term, name)),
                expr: expr.map_consts(term),
            },
            PhysicalPlan::Project {
                input,
                projection,
                distinct,
            } => PhysicalPlan::Project {
                input: Box::new(input.instantiate(term, name)),
                projection: projection
                    .iter()
                    .map(|(n, v)| (name(n).unwrap_or_else(|| n.clone()), *v))
                    .collect(),
                distinct: *distinct,
            },
            PhysicalPlan::HashAggregate {
                input,
                group_by,
                aggs,
                having,
            } => PhysicalPlan::HashAggregate {
                input: Box::new(input.instantiate(term, name)),
                group_by: group_by.clone(),
                aggs: aggs
                    .iter()
                    .map(|a| AggSpec {
                        name: name(&a.name).unwrap_or_else(|| a.name.clone()),
                        ..a.clone()
                    })
                    .collect(),
                having: having.as_ref().map(|h| h.map_consts(term)),
            },
            PhysicalPlan::OrderBy { input, keys } => PhysicalPlan::OrderBy {
                input: Box::new(input.instantiate(term, name)),
                keys: keys
                    .iter()
                    .map(|k| hsp_sparql::SortKey {
                        expr: k.expr.map_consts(term),
                        descending: k.descending,
                    })
                    .collect(),
            },
            PhysicalPlan::Slice {
                input,
                offset,
                limit,
            } => PhysicalPlan::Slice {
                input: Box::new(input.instantiate(term, name)),
                offset: *offset,
                limit: *limit,
            },
        }
    }

    /// Walk the tree depth-first (pre-order), calling `f` on every node.
    pub fn visit(&self, f: &mut impl FnMut(&PhysicalPlan)) {
        f(self);
        match self {
            PhysicalPlan::Scan { .. } => {}
            PhysicalPlan::MergeJoin { left, right, .. }
            | PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::LeftOuterHashJoin { left, right, .. }
            | PhysicalPlan::CrossProduct { left, right }
            | PhysicalPlan::Union { left, right } => {
                left.visit(f);
                right.visit(f);
            }
            PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::HashAggregate { input, .. }
            | PhysicalPlan::OrderBy { input, .. }
            | PhysicalPlan::Slice { input, .. } => input.visit(f),
        }
    }

    /// Validate structural invariants, returning a description of the first
    /// violation:
    ///
    /// * scan constants occupy a prefix of the scan order's key;
    /// * merge-join inputs are sorted on the join variable;
    /// * hash-join variables are shared by both inputs and non-empty (a
    ///   left-outer join may have none, over inputs sharing no variable);
    /// * cross-product inputs share no variables;
    /// * projection, order-enforcer, grouping and aggregate variables are
    ///   produced by their input.
    pub fn validate(&self) -> Result<(), PlanError> {
        match self {
            PhysicalPlan::Scan { pattern, order, .. } => {
                if !consts_form_prefix(pattern, *order) {
                    return Err(PlanError(format!(
                        "scan order {order} does not place the pattern's constants in a key prefix"
                    )));
                }
                Ok(())
            }
            PhysicalPlan::MergeJoin { left, right, var } => {
                left.validate()?;
                right.validate()?;
                if left.sorted_by() != Some(*var) {
                    return Err(PlanError(format!(
                        "merge join on {var}: left input sorted by {:?}",
                        left.sorted_by()
                    )));
                }
                if right.sorted_by() != Some(*var) {
                    return Err(PlanError(format!(
                        "merge join on {var}: right input sorted by {:?}",
                        right.sorted_by()
                    )));
                }
                Ok(())
            }
            PhysicalPlan::HashJoin { left, right, vars }
            | PhysicalPlan::LeftOuterHashJoin { left, right, vars } => {
                let kind = if matches!(self, PhysicalPlan::HashJoin { .. }) {
                    "hash join"
                } else {
                    "left-outer hash join"
                };
                left.validate()?;
                right.validate()?;
                let lv = left.output_vars();
                let rv = right.output_vars();
                if vars.is_empty() {
                    // Only the outer join has a keyless form, and only
                    // over unrelated inputs (it pairs like a cross product).
                    if matches!(self, PhysicalPlan::HashJoin { .. }) {
                        return Err(PlanError(format!("{kind} with no join variables")));
                    }
                    if rv.iter().any(|v| lv.contains(v)) {
                        return Err(PlanError(format!(
                            "{kind} with no join variables over inputs that share variables"
                        )));
                    }
                }
                for v in vars {
                    if !lv.contains(v) || !rv.contains(v) {
                        return Err(PlanError(format!(
                            "{kind} variable {v} not shared by both inputs"
                        )));
                    }
                }
                Ok(())
            }
            PhysicalPlan::CrossProduct { left, right } => {
                left.validate()?;
                right.validate()?;
                let lv = left.output_vars();
                if right.output_vars().iter().any(|v| lv.contains(v)) {
                    return Err(PlanError(
                        "cross product over inputs that share variables".into(),
                    ));
                }
                Ok(())
            }
            PhysicalPlan::Sort { input, var } => {
                input.validate()?;
                if !input.output_vars().contains(var) {
                    return Err(PlanError(format!("sort variable {var} not bound")));
                }
                Ok(())
            }
            // A filter or a sort key may read a variable its input does
            // not bind: both executors evaluate it as UNBOUND (SPARQL's
            // `!bound(?x)`).
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::OrderBy { input, .. }
            | PhysicalPlan::Slice { input, .. } => input.validate(),
            PhysicalPlan::Union { left, right } => {
                left.validate()?;
                right.validate()
            }
            PhysicalPlan::Project {
                input, projection, ..
            } => {
                input.validate()?;
                let iv = input.output_vars();
                for &(ref name, v) in projection {
                    if !iv.contains(&v) {
                        return Err(PlanError(format!(
                            "projected variable ?{name} ({v}) not bound"
                        )));
                    }
                }
                Ok(())
            }
            PhysicalPlan::HashAggregate {
                input,
                group_by,
                aggs,
                having,
            } => {
                input.validate()?;
                let iv = input.output_vars();
                for v in group_by {
                    if !iv.contains(v) {
                        return Err(PlanError(format!("GROUP BY variable {v} not bound")));
                    }
                }
                if aggs.is_empty() && group_by.is_empty() {
                    return Err(PlanError(
                        "aggregation with no GROUP BY variables and no aggregates".into(),
                    ));
                }
                for a in aggs {
                    if let Some(arg) = a.arg {
                        if !iv.contains(&arg) {
                            return Err(PlanError(format!(
                                "aggregate {} argument {arg} not bound",
                                a.func.name()
                            )));
                        }
                    }
                    if group_by.contains(&a.out) {
                        return Err(PlanError(format!(
                            "aggregate output {} collides with a GROUP BY variable",
                            a.out
                        )));
                    }
                }
                if let Some(h) = having {
                    let out = self.output_vars();
                    for v in h.vars() {
                        if !out.contains(&v) {
                            return Err(PlanError(format!(
                                "HAVING variable {v} is neither grouped nor aggregated"
                            )));
                        }
                    }
                }
                Ok(())
            }
        }
    }
}

/// A plan invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError(pub String);

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid plan: {}", self.0)
    }
}

impl std::error::Error for PlanError {}

/// The variable a scan's output is sorted by: the first variable slot in key
/// order after the constant prefix (`None` for a fully ground pattern).
pub fn scan_sort_var(pattern: &TriplePattern, order: Order) -> Option<Var> {
    if !consts_form_prefix(pattern, order) {
        return None;
    }
    for pos in order.positions() {
        if let Some(v) = pattern.slot(pos).as_var() {
            return Some(v);
        }
    }
    None
}

/// `true` if the pattern's constant slots occupy a prefix of `order`'s key.
pub fn consts_form_prefix(pattern: &TriplePattern, order: Order) -> bool {
    let mut seen_var = false;
    for pos in order.positions() {
        if pattern.slot(pos).is_const() {
            if seen_var {
                return false;
            }
        } else {
            seen_var = true;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsp_rdf::Term;
    use hsp_sparql::TermOrVar;

    fn pat(s: TermOrVar, p: TermOrVar, o: TermOrVar) -> TriplePattern {
        TriplePattern::new(s, p, o)
    }

    fn c(name: &str) -> TermOrVar {
        TermOrVar::Const(Term::iri(format!("http://e/{name}")))
    }

    fn v(i: u32) -> TermOrVar {
        TermOrVar::Var(Var(i))
    }

    fn scan(idx: usize, pattern: TriplePattern, order: Order) -> PhysicalPlan {
        PhysicalPlan::Scan {
            pattern_idx: idx,
            pattern,
            order,
        }
    }

    #[test]
    fn scan_sort_var_examples() {
        // (?x, p, o) scanned via OPS: constants o, p are the prefix; sorted by ?x at s.
        let p1 = pat(v(0), c("p"), c("o"));
        assert_eq!(scan_sort_var(&p1, Order::Ops), Some(Var(0)));
        assert_eq!(scan_sort_var(&p1, Order::Pos), Some(Var(0)));
        // SPO puts the variable first: constants not a prefix → invalid.
        assert_eq!(scan_sort_var(&p1, Order::Spo), None);

        // (?x, p, ?y) via PSO: sorted by ?x; via POS: sorted by ?y.
        let p2 = pat(v(0), c("p"), v(1));
        assert_eq!(scan_sort_var(&p2, Order::Pso), Some(Var(0)));
        assert_eq!(scan_sort_var(&p2, Order::Pos), Some(Var(1)));

        // All-variable pattern: any order works, sorted by its first key var.
        let p3 = pat(v(0), v(1), v(2));
        assert_eq!(scan_sort_var(&p3, Order::Osp), Some(Var(2)));
    }

    #[test]
    fn consts_prefix_check() {
        let p = pat(c("s"), v(0), c("o"));
        assert!(consts_form_prefix(&p, Order::Sop)); // s, o, p
        assert!(consts_form_prefix(&p, Order::Osp)); // o, s, p
        assert!(!consts_form_prefix(&p, Order::Spo)); // s, p, o — var in middle
    }

    #[test]
    fn output_vars_dedup_across_children() {
        let left = scan(0, pat(v(0), c("p"), v(1)), Order::Pso);
        let right = scan(1, pat(v(0), c("q"), v(2)), Order::Pso);
        let join = PhysicalPlan::MergeJoin {
            left: Box::new(left),
            right: Box::new(right),
            var: Var(0),
        };
        assert_eq!(join.output_vars(), vec![Var(0), Var(1), Var(2)]);
        assert_eq!(join.sorted_by(), Some(Var(0)));
    }

    #[test]
    fn validate_accepts_good_merge_join() {
        let left = scan(0, pat(v(0), c("p"), v(1)), Order::Pso);
        let right = scan(1, pat(v(0), c("q"), v(2)), Order::Pso);
        let join = PhysicalPlan::MergeJoin {
            left: Box::new(left),
            right: Box::new(right),
            var: Var(0),
        };
        assert!(join.validate().is_ok());
    }

    #[test]
    fn validate_rejects_unsorted_merge_join() {
        // Right side sorted by ?2 (POS), not the join var ?0.
        let left = scan(0, pat(v(0), c("p"), v(1)), Order::Pso);
        let right = scan(1, pat(v(0), c("q"), v(2)), Order::Pos);
        let join = PhysicalPlan::MergeJoin {
            left: Box::new(left),
            right: Box::new(right),
            var: Var(0),
        };
        let err = join.validate().unwrap_err();
        assert!(err.to_string().contains("right input sorted by"));
    }

    #[test]
    fn validate_rejects_bad_scan_order() {
        let plan = scan(0, pat(v(0), c("p"), c("o")), Order::Spo);
        assert!(plan.validate().is_err());
    }

    #[test]
    fn validate_rejects_unshared_hash_var() {
        let left = scan(0, pat(v(0), c("p"), v(1)), Order::Pso);
        let right = scan(1, pat(v(2), c("q"), v(3)), Order::Pso);
        let join = PhysicalPlan::HashJoin {
            left: Box::new(left),
            right: Box::new(right),
            vars: vec![Var(1)],
        };
        assert!(join.validate().is_err());
    }

    #[test]
    fn validate_rejects_overlapping_cross_product() {
        let left = scan(0, pat(v(0), c("p"), v(1)), Order::Pso);
        let right = scan(1, pat(v(0), c("q"), v(2)), Order::Pso);
        let cross = PhysicalPlan::CrossProduct {
            left: Box::new(left),
            right: Box::new(right),
        };
        assert!(cross.validate().is_err());
    }

    #[test]
    fn hash_join_inherits_left_order() {
        let left = scan(0, pat(v(0), c("p"), v(1)), Order::Pso); // sorted by ?0
        let right = scan(1, pat(v(1), c("q"), v(2)), Order::Pso); // sorted by ?1
        let join = PhysicalPlan::HashJoin {
            left: Box::new(left),
            right: Box::new(right),
            vars: vec![Var(1)],
        };
        assert_eq!(join.sorted_by(), Some(Var(0)));
    }

    #[test]
    fn project_keeps_or_loses_sortedness() {
        let input = scan(0, pat(v(0), c("p"), v(1)), Order::Pso); // sorted by ?0
        let keep = PhysicalPlan::Project {
            input: Box::new(input.clone()),
            projection: vec![("x".into(), Var(0))],
            distinct: false,
        };
        assert_eq!(keep.sorted_by(), Some(Var(0)));
        let lose = PhysicalPlan::Project {
            input: Box::new(input),
            projection: vec![("y".into(), Var(1))],
            distinct: false,
        };
        assert_eq!(lose.sorted_by(), None);
    }

    #[test]
    fn breaker_classification() {
        let s = scan(0, pat(v(0), c("p"), v(1)), Order::Pso);
        assert!(!s.is_pipeline_breaker());
        let f = PhysicalPlan::Filter {
            input: Box::new(s.clone()),
            expr: hsp_sparql::FilterExpr::Cmp {
                op: hsp_sparql::CmpOp::Eq,
                lhs: hsp_sparql::Operand::Var(Var(0)),
                rhs: hsp_sparql::Operand::Var(Var(1)),
            },
        };
        assert!(!f.is_pipeline_breaker());
        let hj = PhysicalPlan::HashJoin {
            left: Box::new(s.clone()),
            right: Box::new(scan(1, pat(v(0), c("q"), v(2)), Order::Pso)),
            vars: vec![Var(0)],
        };
        assert!(hj.is_pipeline_breaker());
        let oj = PhysicalPlan::LeftOuterHashJoin {
            left: Box::new(s.clone()),
            right: Box::new(scan(1, pat(v(0), c("q"), v(2)), Order::Pso)),
            vars: vec![Var(0)],
        };
        assert!(oj.is_pipeline_breaker());
        // Projection streams either way: plain is a layout change, DISTINCT
        // is a two-phase streaming dedup (morsel-local + sink pass).
        let plain = PhysicalPlan::Project {
            input: Box::new(s.clone()),
            projection: vec![("x".into(), Var(0))],
            distinct: false,
        };
        assert!(!plain.is_pipeline_breaker());
        let distinct = PhysicalPlan::Project {
            input: Box::new(s.clone()),
            projection: vec![("x".into(), Var(0))],
            distinct: true,
        };
        assert!(!distinct.is_pipeline_breaker());
        let agg = PhysicalPlan::HashAggregate {
            input: Box::new(s.clone()),
            group_by: vec![Var(0)],
            aggs: vec![hsp_sparql::AggSpec {
                func: hsp_sparql::AggFunc::Count,
                distinct: false,
                arg: Some(Var(1)),
                out: Var(2),
                name: "n".into(),
            }],
            having: None,
        };
        assert!(agg.is_pipeline_breaker());
        let sort = PhysicalPlan::Sort {
            input: Box::new(s),
            var: Var(0),
        };
        assert!(sort.is_pipeline_breaker());
    }

    #[test]
    fn hash_aggregate_shape_and_validation() {
        let s = scan(0, pat(v(0), c("p"), v(1)), Order::Pso);
        let count = hsp_sparql::AggSpec {
            func: hsp_sparql::AggFunc::Count,
            distinct: false,
            arg: Some(Var(1)),
            out: Var(2),
            name: "n".into(),
        };
        let agg = PhysicalPlan::HashAggregate {
            input: Box::new(s.clone()),
            group_by: vec![Var(0)],
            aggs: vec![count.clone()],
            having: None,
        };
        assert!(agg.validate().is_ok());
        // Group keys first, then aggregate outputs; no order claim.
        assert_eq!(agg.output_vars(), vec![Var(0), Var(2)]);
        assert_eq!(agg.sorted_by(), None);

        // Unbound GROUP BY variable / aggregate argument are rejected.
        let bad_group = PhysicalPlan::HashAggregate {
            input: Box::new(s.clone()),
            group_by: vec![Var(9)],
            aggs: vec![count.clone()],
            having: None,
        };
        assert!(bad_group.validate().is_err());
        let bad_arg = PhysicalPlan::HashAggregate {
            input: Box::new(s.clone()),
            group_by: vec![Var(0)],
            aggs: vec![hsp_sparql::AggSpec {
                arg: Some(Var(9)),
                ..count.clone()
            }],
            having: None,
        };
        assert!(bad_arg.validate().is_err());
        // HAVING may only mention grouped or aggregated variables.
        let bad_having = PhysicalPlan::HashAggregate {
            input: Box::new(s),
            group_by: vec![Var(0)],
            aggs: vec![count],
            having: Some(hsp_sparql::Expr::Var(Var(1))),
        };
        assert!(bad_having.validate().is_err());
    }

    #[test]
    fn left_outer_join_validates_like_hash_join() {
        let left = scan(0, pat(v(0), c("p"), v(1)), Order::Pso);
        let right = scan(1, pat(v(0), c("q"), v(2)), Order::Pso);
        let good = PhysicalPlan::LeftOuterHashJoin {
            left: Box::new(left.clone()),
            right: Box::new(right.clone()),
            vars: vec![Var(0)],
        };
        assert!(good.validate().is_ok());
        assert_eq!(good.output_vars(), vec![Var(0), Var(1), Var(2)]);
        // UNBOUND padding may break any ordering: no sortedness claim.
        assert_eq!(good.sorted_by(), None);
        let unshared = PhysicalPlan::LeftOuterHashJoin {
            left: Box::new(left.clone()),
            right: Box::new(right.clone()),
            vars: vec![Var(1)],
        };
        let err = unshared.validate().unwrap_err();
        assert!(err.to_string().contains("left-outer hash join"));
        // Keyless form: legal only over inputs that share no variable.
        let keyless_shared = PhysicalPlan::LeftOuterHashJoin {
            left: Box::new(left.clone()),
            right: Box::new(right),
            vars: vec![],
        };
        assert!(keyless_shared.validate().is_err());
        let keyless = PhysicalPlan::LeftOuterHashJoin {
            left: Box::new(left),
            right: Box::new(scan(1, pat(v(3), c("q"), v(4)), Order::Pso)),
            vars: vec![],
        };
        assert!(keyless.validate().is_ok());
    }

    #[test]
    fn order_by_goes_beneath_a_projection_that_drops_its_key() {
        let key = |var| hsp_sparql::Modifiers {
            order_by: vec![hsp_sparql::SortKey {
                expr: hsp_sparql::Expr::Var(Var(var)),
                descending: false,
            }],
            limit: Some(1),
            offset: 0,
        };
        let project = PhysicalPlan::Project {
            input: Box::new(scan(0, pat(v(0), c("p"), v(1)), Order::Pso)),
            projection: vec![("y".into(), Var(1))],
            distinct: true,
        };
        // A projected key: sort above the projection, as ever.
        let PhysicalPlan::Slice { input, .. } = project.clone().with_modifiers(&key(1)) else {
            panic!("slice on top");
        };
        assert!(matches!(*input, PhysicalPlan::OrderBy { .. }));
        // A dropped key: ORDER BY, then projection + DISTINCT, then slice.
        let PhysicalPlan::Slice { input, .. } = project.with_modifiers(&key(0)) else {
            panic!("slice on top");
        };
        let PhysicalPlan::Project {
            input,
            distinct: true,
            ..
        } = *input
        else {
            panic!("projection above the sort");
        };
        assert!(matches!(*input, PhysicalPlan::OrderBy { .. }));
    }

    #[test]
    fn scanned_patterns_in_leaf_order() {
        let left = scan(3, pat(v(0), c("p"), v(1)), Order::Pso);
        let right = scan(7, pat(v(0), c("q"), v(2)), Order::Pso);
        let join = PhysicalPlan::MergeJoin {
            left: Box::new(left),
            right: Box::new(right),
            var: Var(0),
        };
        assert_eq!(join.scanned_patterns(), vec![3, 7]);
    }
}
