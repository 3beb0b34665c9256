//! **HSP — the Heuristic SPARQL Planner** (the paper's contribution).
//!
//! Given a SPARQL join query, HSP chooses a physical plan *without any data
//! statistics*, using only the query's syntactic and structural form:
//!
//! 1. Build the [`vargraph::VariableGraph`] (Definition 4): nodes are
//!    variables occurring in ≥ 2 triple patterns, weighted by their number
//!    of occurrences; edges connect variables co-occurring in a pattern.
//! 2. Enumerate **all maximum-weight independent sets** ([`mwis`]) — each
//!    selected variable becomes the sort variable of a block of merge joins
//!    over all patterns containing it.
//! 3. Break ties between maximum sets with heuristics **H3 → H4 → H2 → H5**
//!    ([`heuristics`]), then deterministically (or randomly, as in the
//!    paper, with a seeded RNG).
//! 4. Map every pattern to one of the six ordered relations with
//!    **AssignOrderedRelation** (Algorithm 2): constants first, then the
//!    merge-join variable, then the remaining variables.
//! 5. Assemble blocks into a bushy plan connected by hash joins, ordering
//!    leaves within a block by **H1** selectivity.
//!
//! The planner ([`planner::HspPlanner`]) needs nothing but the query — no
//! store access — which is the paper's central claim.

pub mod heuristics;
pub mod mwis;
pub mod planner;
pub mod vargraph;

pub use mwis::BitSet;
pub use planner::{assign_ordered_relation, HspConfig, HspPlan, HspPlanner, PlanError};
pub use vargraph::VariableGraph;
