//! The RDF-3X cost model the paper uses to compare plan quality (Table 3).
//!
//! From Section 6.2:
//!
//! ```text
//! cost_mergejoin(lc, rc) = (lc + rc) / 100,000
//! cost_hashjoin(lc, rc)  = 300,000 + lc/100 + rc/10
//! ```
//!
//! "where `lc` and `rc` are the cardinality of two join input relations,
//! with the `lc` being the smallest one". Selection cost is excluded — the
//! paper argues it is asymptotically identical in both systems (binary
//! search vs B+-tree descent).

use crate::exec::Profile;
use crate::plan::PhysicalPlan;

/// Merge-join cost for input cardinalities `lc` and `rc`.
pub fn cost_mergejoin(lc: f64, rc: f64) -> f64 {
    (lc + rc) / 100_000.0
}

/// Hash-join cost for input cardinalities (order-insensitive: the smaller
/// input is charged the build rate).
pub fn cost_hashjoin(a: f64, b: f64) -> f64 {
    let (lc, rc) = if a <= b { (a, b) } else { (b, a) };
    300_000.0 + lc / 100.0 + rc / 10.0
}

/// Cross products have no formula in the paper (CDP refuses to plan them);
/// we charge them like a worst-case hash join over the product cardinality
/// so that cost comparisons still rank them last.
pub fn cost_crossproduct(a: f64, b: f64) -> f64 {
    300_000.0 + (a * b) / 10.0
}

/// The cost of one plan measured on its *actual* intermediate-result sizes
/// (the paper's Table 3 methodology: "we focus on the estimation of
/// intermediate results of joins").
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlanCost {
    /// Total cost of merge joins (printed bold in the paper's Table 3).
    pub merge_cost: f64,
    /// Total cost of hash joins.
    pub hash_cost: f64,
    /// Total cost of cross products (zero for all paper plans).
    pub cross_cost: f64,
    /// Per-join breakdown: `(label, cost, is_merge)` in plan pre-order.
    pub joins: Vec<(String, f64, bool)>,
}

impl PlanCost {
    /// Total plan cost.
    pub fn total(&self) -> f64 {
        self.merge_cost + self.hash_cost + self.cross_cost
    }

    /// Format like the paper's Table 3 rows: merge cost, then `+ hash cost`
    /// when hash joins exist (e.g. `354+953,381`).
    pub fn table3_cell(&self) -> String {
        let merge = format_cost(self.merge_cost);
        if self.hash_cost + self.cross_cost > 0.0 {
            format!("{merge}+{}", format_cost(self.hash_cost + self.cross_cost))
        } else {
            merge
        }
    }
}

fn format_cost(c: f64) -> String {
    if c >= 100.0 {
        // Group thousands the way the paper prints them.
        let v = c.round() as u64;
        let s = v.to_string();
        let mut out = String::new();
        for (i, ch) in s.chars().enumerate() {
            if i > 0 && (s.len() - i).is_multiple_of(3) {
                out.push(',');
            }
            out.push(ch);
        }
        out
    } else {
        format!("{c:.2}")
    }
}

/// Compute the RDF-3X-model cost of an executed plan from its profile.
///
/// The plan tree and profile tree have identical shapes (the profile is
/// produced by executing the plan), so we walk them in lockstep and charge
/// each join node with its children's output cardinalities.
pub fn plan_cost(plan: &PhysicalPlan, profile: &Profile) -> PlanCost {
    let mut cost = PlanCost::default();
    accumulate(plan, profile, &mut cost);
    cost
}

fn accumulate(plan: &PhysicalPlan, profile: &Profile, cost: &mut PlanCost) {
    match plan {
        PhysicalPlan::Scan { .. } => {}
        PhysicalPlan::MergeJoin { left, right, var } => {
            let lc = profile.children[0].output_rows as f64;
            let rc = profile.children[1].output_rows as f64;
            let c = cost_mergejoin(lc, rc);
            cost.merge_cost += c;
            cost.joins.push((format!("mergejoin({var})"), c, true));
            accumulate(left, &profile.children[0], cost);
            accumulate(right, &profile.children[1], cost);
        }
        PhysicalPlan::HashJoin { left, right, .. } => {
            let lc = profile.children[0].output_rows as f64;
            let rc = profile.children[1].output_rows as f64;
            let c = cost_hashjoin(lc, rc);
            cost.hash_cost += c;
            cost.joins.push(("hashjoin".into(), c, false));
            accumulate(left, &profile.children[0], cost);
            accumulate(right, &profile.children[1], cost);
        }
        // An OPTIONAL's left-outer probe does the same build + probe work
        // as an inner hash join (plus one sentinel per unmatched row):
        // charge it the hash-join rate. Paper plans never contain it.
        PhysicalPlan::LeftOuterHashJoin { left, right, .. } => {
            let lc = profile.children[0].output_rows as f64;
            let rc = profile.children[1].output_rows as f64;
            let c = cost_hashjoin(lc, rc);
            cost.hash_cost += c;
            cost.joins.push(("leftouterjoin".into(), c, false));
            accumulate(left, &profile.children[0], cost);
            accumulate(right, &profile.children[1], cost);
        }
        PhysicalPlan::CrossProduct { left, right } => {
            let lc = profile.children[0].output_rows as f64;
            let rc = profile.children[1].output_rows as f64;
            let c = cost_crossproduct(lc, rc);
            cost.cross_cost += c;
            cost.joins.push(("crossproduct".into(), c, false));
            accumulate(left, &profile.children[0], cost);
            accumulate(right, &profile.children[1], cost);
        }
        // Concatenation joins nothing: only the branches' own joins cost.
        PhysicalPlan::Union { left, right } => {
            accumulate(left, &profile.children[0], cost);
            accumulate(right, &profile.children[1], cost);
        }
        PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Bind { input, .. }
        | PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        // Aggregation and solution modifiers are outside the paper's
        // Table-3 join cost model.
        | PhysicalPlan::HashAggregate { input, .. }
        | PhysicalPlan::OrderBy { input, .. }
        | PhysicalPlan::Slice { input, .. } => {
            accumulate(input, &profile.children[0], cost);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formulas_match_the_paper() {
        // cost_mergejoin(lc, rc) = (lc+rc)/100,000
        assert_eq!(cost_mergejoin(50_000.0, 50_000.0), 1.0);
        // cost_hashjoin(lc, rc) = 300,000 + lc/100 + rc/10, lc the smaller.
        assert_eq!(cost_hashjoin(1_000.0, 10_000.0), 300_000.0 + 10.0 + 1_000.0);
        // Order-insensitive.
        assert_eq!(
            cost_hashjoin(10_000.0, 1_000.0),
            cost_hashjoin(1_000.0, 10_000.0)
        );
    }

    #[test]
    fn merge_joins_are_far_cheaper_than_hash_joins() {
        // The asymmetry that drives the whole paper: maximise merge joins.
        assert!(cost_mergejoin(100_000.0, 100_000.0) < cost_hashjoin(1.0, 1.0));
    }

    #[test]
    fn table3_cell_formats() {
        let c = PlanCost {
            merge_cost: 354.0,
            hash_cost: 953_381.0,
            ..Default::default()
        };
        assert_eq!(c.table3_cell(), "354+953,381");
        let m = PlanCost {
            merge_cost: 32.0,
            ..Default::default()
        };
        assert_eq!(m.table3_cell(), "32.00");
    }

    #[test]
    fn plan_cost_walks_profile() {
        use crate::exec::Profile;
        use hsp_rdf::Term;
        use hsp_sparql::{TermOrVar, TriplePattern, Var};
        use hsp_store::Order;

        let scan = |idx| PhysicalPlan::Scan {
            pattern_idx: idx,
            pattern: TriplePattern::new(
                TermOrVar::Var(Var(0)),
                TermOrVar::Const(Term::iri("http://e/p")),
                TermOrVar::Var(Var(idx as u32 + 1)),
            ),
            order: Order::Pso,
        };
        let plan = PhysicalPlan::MergeJoin {
            left: Box::new(scan(0)),
            right: Box::new(scan(1)),
            var: Var(0),
        };
        let leaf = |rows| Profile {
            label: "scan".into(),
            output_rows: rows,
            children: vec![],
        };
        let profile = Profile {
            label: "mergejoin(?v0)".into(),
            output_rows: 10,
            children: vec![leaf(60_000), leaf(40_000)],
        };
        let cost = plan_cost(&plan, &profile);
        assert_eq!(cost.merge_cost, 1.0);
        assert_eq!(cost.hash_cost, 0.0);
        assert_eq!(cost.joins.len(), 1);
        assert!(cost.joins[0].2);
    }
}
