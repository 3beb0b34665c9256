//! Property tests: the MWIS solver against brute force on random graphs,
//! and HSP planner invariants on random star/chain queries.

use hsp_core::mwis::{all_max_weight_independent_sets, brute_force_mwis, BitSet};
use hsp_core::{HspConfig, HspPlanner};
use hsp_sparql::{JoinQuery, TermOrVar, TriplePattern, Var};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = (Vec<u64>, Vec<BitSet>)> {
    (2usize..10).prop_flat_map(|n| {
        let weights = proptest::collection::vec(1u64..6, n);
        let edges = proptest::collection::vec((0..n, 0..n), 0..2 * n);
        (weights, edges).prop_map(move |(weights, edges)| {
            let mut adj = vec![BitSet::new(n); n];
            for (a, b) in edges {
                if a != b {
                    adj[a].insert(b);
                    adj[b].insert(a);
                }
            }
            (weights, adj)
        })
    })
}

proptest! {
    /// Exact solver ≡ brute force (weight and full set collection).
    #[test]
    fn mwis_matches_brute_force((weights, adj) in arb_graph()) {
        let fast = all_max_weight_independent_sets(&weights, &adj);
        let slow = brute_force_mwis(&weights, &adj);
        prop_assert_eq!(fast.weight, slow.weight);
        let mut f = fast.sets.clone();
        let mut s = slow.sets.clone();
        f.sort();
        s.sort();
        prop_assert_eq!(f, s);
    }

    /// Results are always independent sets of the claimed weight.
    #[test]
    fn mwis_results_are_independent((weights, adj) in arb_graph()) {
        let r = all_max_weight_independent_sets(&weights, &adj);
        for set in &r.sets {
            let total: u64 = set.iter().map(|&i| weights[i]).sum();
            prop_assert_eq!(total, r.weight);
            for &i in set {
                for &j in set {
                    prop_assert!(i == j || !adj[i].contains(j));
                }
            }
        }
    }
}

/// Random star/chain join queries: `n` patterns, each `(?vS, p_k, ?vO)`.
fn arb_join_query() -> impl Strategy<Value = JoinQuery> {
    proptest::collection::vec((0u32..5, 0u32..6, 0u32..5), 1..7).prop_map(|spec| {
        let mut names: Vec<String> = Vec::new();
        let var = |i: u32, names: &mut Vec<String>| {
            let name = format!("v{i}");
            let idx = names.iter().position(|n| *n == name).unwrap_or_else(|| {
                names.push(name);
                names.len() - 1
            });
            Var(idx as u32)
        };
        let patterns: Vec<TriplePattern> = spec
            .iter()
            .map(|&(s, p, o)| {
                TriplePattern::new(
                    TermOrVar::Var(var(s, &mut names)),
                    TermOrVar::Const(hsp_rdf::Term::iri(format!("http://e/p{p}"))),
                    TermOrVar::Var(var(o + 5, &mut names)),
                )
            })
            .collect();
        let projection = vec![(names[0].clone(), Var(0))];
        JoinQuery {
            patterns,
            filters: vec![],
            projection,
            distinct: false,
            var_names: names,
            modifiers: Default::default(),
            group_by: vec![],
            aggregates: vec![],
            having: None,
            substituted: vec![],
        }
    })
}

proptest! {
    /// HSP plans on random queries: valid, cover every pattern once, and
    /// honour the merge-join sortedness contract (validate() checks it).
    #[test]
    fn hsp_plan_invariants(query in arb_join_query()) {
        for config in [HspConfig::default(), HspConfig::random_tiebreak(3)] {
            let planned = HspPlanner::with_config(config).plan(&query).expect("plannable");
            prop_assert!(planned.plan.validate().is_ok());
            let mut scanned = planned.plan.scanned_patterns();
            scanned.sort();
            let expected: Vec<usize> = (0..query.patterns.len()).collect();
            prop_assert_eq!(scanned, expected);
            // Merge variables are distinct and each covers ≥ 2 patterns
            // within its selection round (≥ 1 after assignment).
            let mut seen = Vec::new();
            for (v, covered) in &planned.merge_vars {
                prop_assert!(!seen.contains(v));
                seen.push(*v);
                prop_assert!(!covered.is_empty());
            }
        }
    }

    /// Merge-join blocks in HSP plans really join on their block variable:
    /// every MergeJoin node's variable is one of the chosen merge variables.
    #[test]
    fn hsp_merge_joins_use_chosen_vars(query in arb_join_query()) {
        let planned = HspPlanner::new().plan(&query).expect("plannable");
        let chosen: Vec<Var> = planned.merge_vars.iter().map(|&(v, _)| v).collect();
        let mut ok = true;
        planned.plan.visit(&mut |node| {
            if let hsp_engine::PhysicalPlan::MergeJoin { var, .. } = node {
                if !chosen.contains(var) {
                    ok = false;
                }
            }
        });
        prop_assert!(ok);
    }
}
