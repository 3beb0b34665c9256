//! The merge-block pipeline source against the operator-at-a-time oracle.
//!
//! A merge block — a left-deep run of merge joins on one variable over
//! scan leaves — runs as one k-way sorted intersection instead of a chain
//! of binary merge-join breakers. For generated small stores (some with a
//! live delta, so leaves scan merged base+delta runs) and generated blocks
//! of 2–6 leaves (one-to-one and many-to-many key groups, empty leaves,
//! repeated variables inside a leaf, non-block variables shared by two
//! leaves), in every plan context a block meets (alone, projected, as a
//! probe side, as a hash-build side, under FILTER and DISTINCT), the
//! pipeline executor must return a byte-identical table with an identical
//! `output_rows` in every [`Profile`](hsp_engine::Profile) node, at
//! threads 1–4 with morsels of 1–128 rows and no sequential threshold.

use hsp_engine::exec::{execute_in, ExecConfig, ExecStrategy};
use hsp_engine::{ExecContext, MorselConfig, PhysicalPlan};
use hsp_rdf::{Term, Triple};
use hsp_sparql::{CmpOp, Expr, FilterExpr, TermOrVar, TriplePattern, Var};
use hsp_store::{Dataset, Order};
use proptest::prelude::*;

/// The block variable.
const X: Var = Var(0);
/// The non-block variable shared leaves bind.
const Y: Var = Var(1);

fn node(i: u8) -> Term {
    Term::iri(format!("http://e/n{i}"))
}

fn pred(i: u8) -> Term {
    Term::iri(format!("http://e/p{i}"))
}

fn triple(&(s, p, o): &(u8, u8, u8)) -> Triple {
    Triple::new(node(s), pred(p), node(o))
}

/// A store over nodes `n0..n5` and predicates `p0..p3`: subjects and
/// objects share one node pool, so `?x p ?x` and `?y` shared across
/// positions both match. With `delta` the last third is inserted after
/// the build and every fifth base triple deleted, leaving both in the
/// delta overlay.
fn store(facts: &[(u8, u8, u8)], delta: bool) -> Dataset {
    let cut = if delta {
        facts.len() * 2 / 3
    } else {
        facts.len()
    };
    let base: Vec<Triple> = facts[..cut].iter().map(triple).collect();
    let mut ds = Dataset::from_triples(&base);
    if delta {
        ds.set_compaction_threshold(Some(usize::MAX));
        let added: Vec<Triple> = facts[cut..].iter().map(triple).collect();
        ds.insert_data(&added);
        let removed: Vec<Triple> = base.iter().step_by(5).cloned().collect();
        ds.remove_data(&removed);
    }
    ds
}

fn var(v: Var) -> TermOrVar {
    TermOrVar::Var(v)
}

fn cst(term: Term) -> TermOrVar {
    TermOrVar::Const(term)
}

/// Leaf `idx` of a block on `?x`, by kind; `fresh` is the leaf's own
/// variable. Every order keeps the constants a key prefix with `?x` next,
/// so every leaf is sorted by `?x`.
fn leaf(idx: usize, (kind, p, c): (u8, u8, u8)) -> PhysicalPlan {
    let fresh = var(Var(2 + idx as u32));
    let (s, p_slot, o, order) = match kind % 7 {
        // One-to-one or many-to-many: ?x p ?v, grouped by subject.
        0 => (var(X), cst(pred(p)), fresh, Order::Pso),
        // Grouped by object: ?v p ?x.
        1 => (fresh, cst(pred(p)), var(X), Order::Pos),
        // A repeated variable inside the leaf: ?x p ?x.
        2 => (var(X), cst(pred(p)), var(X), Order::Pso),
        // A bound object: ?x p <n>.
        3 => (var(X), cst(pred(p)), cst(node(c)), Order::Ops),
        // A non-block variable shared with other leaves: ?x p ?y / ?y p ?x.
        4 => (var(X), cst(pred(p)), var(Y), Order::Pso),
        5 => (var(Y), cst(pred(p)), var(X), Order::Pos),
        // An empty leaf: a constant the dictionary never saw.
        _ => (
            var(X),
            cst(Term::iri("http://e/unknown")),
            fresh,
            Order::Pso,
        ),
    };
    PhysicalPlan::Scan {
        pattern_idx: idx,
        pattern: TriplePattern::new(s, p_slot, o),
        order,
    }
}

/// A left-deep merge-join chain on `?x` over the generated leaves.
fn block(leaves: &[(u8, u8, u8)]) -> PhysicalPlan {
    let mut plan = leaf(0, leaves[0]);
    for (i, &spec) in leaves.iter().enumerate().skip(1) {
        plan = PhysicalPlan::MergeJoin {
            left: Box::new(plan),
            right: Box::new(leaf(i, spec)),
            var: X,
        };
    }
    plan
}

/// The contexts a block meets in a plan.
fn in_context(block: PhysicalPlan, context: u8, k: usize) -> PhysicalPlan {
    // A scan sharing only `?x` with the block, numbered after its leaves.
    let other = || {
        Box::new(PhysicalPlan::Scan {
            pattern_idx: k,
            pattern: TriplePattern::new(var(X), cst(pred(0)), var(Var(20))),
            order: Order::Pso,
        })
    };
    match context % 6 {
        0 => block,
        // Projected to `?x` and the last column (only some leaves are read).
        1 => {
            // invariant: every leaf binds `?x`, so a block binds a variable.
            let last = *block.output_vars().last().expect("a block binds ?x");
            PhysicalPlan::Project {
                input: Box::new(block),
                projection: vec![("x".into(), X), ("v".into(), last)],
                distinct: false,
            }
        }
        // The block streams into a probe.
        2 => PhysicalPlan::HashJoin {
            left: Box::new(block),
            right: other(),
            vars: vec![X],
        },
        // The block is the hash-build side.
        3 => PhysicalPlan::HashJoin {
            left: other(),
            right: Box::new(block),
            vars: vec![X],
        },
        // FILTER over the block.
        4 => PhysicalPlan::Filter {
            input: Box::new(block),
            expr: FilterExpr::Complex(Expr::cmp(CmpOp::Ne, Expr::Var(X), Expr::Const(node(1)))),
        },
        // DISTINCT over the block variable.
        _ => PhysicalPlan::Project {
            input: Box::new(block),
            projection: vec![("x".into(), X)],
            distinct: true,
        },
    }
}

fn rows(profile: &hsp_engine::Profile) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    profile.visit(&mut |p| out.push((p.label.clone(), p.output_rows)));
    out
}

fn assert_matches_oracle(
    ds: &Dataset,
    plan: &PhysicalPlan,
    morsel_rows: usize,
) -> Result<(), TestCaseError> {
    let oracle_config = ExecConfig::unlimited().with_strategy(ExecStrategy::OperatorAtATime);
    let oracle = execute_in(plan, ds, &oracle_config, &oracle_config.context())
        .expect("oracle execution succeeds");
    for threads in 1..=4usize {
        for morsel in [1, morsel_rows] {
            let ctx = ExecContext::with_morsel_config(
                MorselConfig::with_threads(threads)
                    .with_morsel_rows(morsel)
                    .with_min_parallel_rows(0),
            );
            let out = execute_in(plan, ds, &ExecConfig::unlimited(), &ctx)
                .expect("pipeline execution succeeds");
            let at = format!("threads={threads} morsel_rows={morsel}");
            prop_assert_eq!(&out.table, &oracle.table, "{}", at);
            prop_assert_eq!(rows(&out.profile), rows(&oracle.profile), "{}", at);
        }
    }
    Ok(())
}

proptest! {
    /// Generated blocks of 2–6 leaves of every kind, over stores with and
    /// without a live delta, in every plan context.
    #[test]
    fn merge_blocks_match_the_binary_chain(
        facts in proptest::collection::vec((0u8..6, 0u8..4, 0u8..6), 0..60),
        delta in any::<bool>(),
        leaves in proptest::collection::vec((0u8..7, 0u8..4, 0u8..6), 2..7),
        context in 0u8..6,
        morsel_rows in 1usize..129,
    ) {
        let ds = store(&facts, delta);
        let plan = in_context(block(&leaves), context, leaves.len());
        plan.validate().expect("generated plans are valid");
        assert_matches_oracle(&ds, &plan, morsel_rows)?;
    }

    /// Many-to-many stars over one predicate pair: every subject has
    /// several objects under each, so every key's product is a real
    /// Cartesian one (the range-emission path).
    #[test]
    fn many_to_many_groups_match_the_binary_chain(
        fanout in proptest::collection::vec((0u8..4, 1u8..5, 1u8..5), 1..8),
        k in 2usize..5,
        morsel_rows in 1usize..129,
    ) {
        let mut facts = Vec::new();
        for &(s, a, b) in &fanout {
            facts.extend((0..a).map(|o| (s, 0, o)));
            facts.extend((0..b).map(|o| (s, 1, o)));
        }
        let ds = store(&facts, false);
        let leaves: Vec<(u8, u8, u8)> = (0..k).map(|i| (0, i as u8 % 2, 0)).collect();
        assert_matches_oracle(&ds, &block(&leaves), morsel_rows)?;
    }
}
