//! SPARQL 1.1 Update execution: `INSERT DATA`, `DELETE DATA`, and
//! `DELETE WHERE` against a mutable [`Dataset`].
//!
//! The paper's setting is read-mostly LOD querying — but its motivation
//! ("freshly (re-)loaded" data sources whose statistics are outdated) is
//! precisely an update workload, and HSP's statistics-free planning is the
//! feature that makes updates cheap: there are *no histograms to rebuild*
//! after a batch of changes. This module exercises that claim: the store's
//! six sorted orders are maintained incrementally
//! ([`hsp_store::Dataset::insert_data`] / [`remove_data`](hsp_store::Dataset::remove_data)),
//! and `DELETE WHERE` patterns are planned by HSP itself — the deletion
//! query runs with the same heuristics as any read query.

use std::collections::HashSet;

use hsp_core::HspPlanner;
use hsp_engine::{execute_in, ExecConfig, ExecContext, ExecError};
use hsp_rdf::{IdTriple, Term, Triple};
use hsp_sparql::ast::{GroupPattern, NodeAst, TriplePatternAst, UpdateOp};
use hsp_sparql::{parse_update, JoinQuery, Query, Var};
use hsp_store::Dataset;

/// What an update request did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateStats {
    /// Triples genuinely added by `INSERT DATA`.
    pub inserted: usize,
    /// Triples removed by `DELETE DATA` + `DELETE WHERE`.
    pub deleted: usize,
}

/// The predicates an update request touched — the session result cache's
/// invalidation granularity. Conservative by construction: every
/// predicate that *could* have gained or lost a triple is listed, so an
/// entry surviving invalidation is guaranteed unaffected.
#[derive(Debug, Clone, Default)]
pub struct Touched {
    /// A `DELETE WHERE` pattern had a *variable* predicate: any predicate
    /// may have been touched, so predicate-level invalidation is off and
    /// the whole result cache flushes (the conservative fallback).
    pub all: bool,
    /// Predicates of the ground triples inserted/deleted and of the
    /// constant-predicate `DELETE WHERE` patterns.
    pub predicates: HashSet<Term>,
}

impl Touched {
    fn note_data(&mut self, triples: &[Triple]) {
        for t in triples {
            // Data blocks repeat few distinct predicates across many
            // triples; check before cloning so a large batch does not
            // allocate per-triple inside the writer critical section.
            if !self.predicates.contains(&t.predicate) {
                self.predicates.insert(t.predicate.clone());
            }
        }
    }

    fn note_where(&mut self, group: &GroupPattern) {
        use hsp_sparql::ast::Element;
        for element in &group.elements {
            match element {
                Element::Triple(t) => match &t.predicate {
                    NodeAst::Const(term) => {
                        self.predicates.insert(term.clone());
                    }
                    NodeAst::Var(_) => self.all = true,
                },
                Element::Filter(_) => {}
                Element::Optional(inner) => self.note_where(inner),
                Element::Union(left, right) => {
                    self.note_where(left);
                    self.note_where(right);
                }
            }
        }
    }
}

/// An update failure.
#[derive(Debug)]
pub enum UpdateError {
    /// The update text failed to parse.
    Parse(hsp_sparql::ParseError),
    /// A `DELETE WHERE` pattern could not be lowered or planned.
    Eval(String),
    /// Executing a `DELETE WHERE` pattern failed, or the request's
    /// governor tripped between operations.
    Exec(ExecError),
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::Parse(e) => write!(f, "{e}"),
            UpdateError::Eval(e) => write!(f, "{e}"),
            UpdateError::Exec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// Parse and apply a SPARQL Update request to `ds`, in place and
/// ungoverned.
///
/// Operations run in source order; each sees the effects of the previous
/// one (the SPARQL Update sequencing rule), and a failing operation leaves
/// the effects of the earlier ones in place. Serving code goes through
/// [`Session::update`](crate::session::Session::update), which applies the
/// whole request to a private clone and publishes all-or-nothing; this
/// function is the plain reference that path is checked against — the
/// end-to-end benchmark replays every write through it to compute the
/// state a session must end in.
///
/// ```
/// use hsp_store::Dataset;
/// use sparql_hsp::update::apply_update;
///
/// let mut ds = Dataset::from_ntriples("").unwrap();
/// let stats = apply_update(&mut ds, r#"
///     INSERT DATA { <http://e/j1> <http://e/issued> "1940" .
///                   <http://e/j2> <http://e/issued> "1941" . }
/// "#).unwrap();
/// assert_eq!(stats.inserted, 2);
/// let stats = apply_update(&mut ds,
///     "DELETE WHERE { ?j <http://e/issued> ?yr . }").unwrap();
/// assert_eq!(stats.deleted, 2);
/// assert!(ds.is_empty());
/// ```
pub fn apply_update(ds: &mut Dataset, text: &str) -> Result<UpdateStats, UpdateError> {
    let config = ExecConfig::unlimited();
    let (stats, _) = run_update_traced(ds, text, &config, || config.context())?;
    // The in-place path has no post-publication hook, so fold oversized
    // deltas back into the base runs here.
    ds.compact_if_needed();
    Ok(stats)
}

/// The in-place update engine behind
/// [`Session::update`](crate::session::Session::update) and
/// [`apply_update`]: operations run in source order against `ds`, each
/// seeing the effects of the previous one (the SPARQL Update sequencing
/// rule). A timeout, memory budget or cancel token on `config` governs the
/// `DELETE WHERE` matching queries exactly as it governs reads (site
/// `"update"` marks the per-operation checkpoints). Each matching query
/// executes in a context built by `context` — the session's puts it on the
/// session pool; data-only requests never call it, so they do not pay for
/// one. The session gets its all-or-nothing semantics by pointing `ds` at
/// a private clone and publishing only on `Ok`. Also returns a [`Touched`]
/// trace of the predicates each applied operation could have affected,
/// which the session uses to invalidate exactly the result-cache entries
/// whose plans read them.
pub(crate) fn run_update_traced(
    ds: &mut Dataset,
    text: &str,
    config: &ExecConfig,
    context: impl Fn() -> ExecContext,
) -> Result<(UpdateStats, Touched), UpdateError> {
    let request = parse_update(text).map_err(UpdateError::Parse)?;
    let mut stats = UpdateStats::default();
    let mut touched = Touched::default();
    let governor = config.governor();
    for op in &request.ops {
        if let Some(gov) = &governor {
            gov.check("update")
                .map_err(|e| UpdateError::Exec(e.into()))?;
        }
        match op {
            UpdateOp::InsertData(triples) => {
                let triples = ground_triples(triples);
                touched.note_data(&triples);
                stats.inserted += ds.insert_data(&triples);
            }
            UpdateOp::DeleteData(triples) => {
                let triples = ground_triples(triples);
                touched.note_data(&triples);
                stats.deleted += ds.remove_data(&triples);
            }
            UpdateOp::DeleteWhere(group) => {
                touched.note_where(group);
                stats.deleted += delete_where(ds, group, config, &context())?;
            }
        }
    }
    Ok((stats, touched))
}

/// Convert parser-validated ground triple patterns to term triples.
fn ground_triples(patterns: &[TriplePatternAst]) -> Vec<Triple> {
    patterns
        .iter()
        .map(|t| Triple {
            subject: ground(&t.subject),
            predicate: ground(&t.predicate),
            object: ground(&t.object),
        })
        .collect()
}

fn ground(node: &NodeAst) -> Term {
    match node {
        NodeAst::Const(t) => t.clone(),
        NodeAst::Var(_) => unreachable!("parser rejects variables in DATA blocks"),
    }
}

/// `DELETE WHERE`: match the pattern (planned by HSP, like any query),
/// instantiate each pattern for each solution, and remove the resulting
/// ground triples. Returns the number of triples removed.
fn delete_where(
    ds: &mut Dataset,
    group: &GroupPattern,
    config: &ExecConfig,
    ctx: &ExecContext,
) -> Result<usize, UpdateError> {
    // The WHERE block is a conjunctive pattern: reuse the query pipeline
    // with a SELECT * projection.
    let query_ast = Query {
        prefixes: Vec::new(),
        ask: false,
        distinct: false,
        reduced: false,
        projection: None,
        aggregates: Vec::new(),
        group_by: Vec::new(),
        having: None,
        where_clause: group.clone(),
        order_by: Vec::new(),
        limit: None,
        offset: None,
    };
    let query = JoinQuery::from_ast(&query_ast).map_err(|e| UpdateError::Eval(e.to_string()))?;
    let planned = HspPlanner::new()
        .plan(&query)
        .map_err(|e| UpdateError::Eval(e.to_string()))?;
    let out = execute_in(&planned.plan, ds, config, ctx).map_err(UpdateError::Exec)?;

    // Each pattern slot is a constant id or a column of the result table.
    // `DELETE WHERE` ran against the *rewritten* query (HSP substitutes
    // FILTER equalities into the patterns), so instantiate the rewritten
    // patterns — they match the same triples.
    enum Slot {
        Const(hsp_rdf::TermId),
        Col(Var),
    }
    let mut doomed: Vec<IdTriple> = Vec::new();
    for pattern in &planned.query.patterns {
        let slots: Option<Vec<Slot>> = pattern
            .slots
            .iter()
            .map(|s| match s {
                hsp_sparql::TermOrVar::Const(t) => ds.id_of(t).map(Slot::Const),
                hsp_sparql::TermOrVar::Var(v) => Some(Slot::Col(*v)),
            })
            .collect();
        // A constant unknown to the dictionary matches nothing.
        let Some(slots) = slots else { continue };
        for row in 0..out.table.len() {
            let ids: Vec<hsp_rdf::TermId> = slots
                .iter()
                .map(|s| match s {
                    Slot::Const(id) => *id,
                    Slot::Col(v) => out.table.value(*v, row),
                })
                .collect();
            doomed.push([ids[0], ids[1], ids[2]]);
        }
    }
    Ok(ds.remove_encoded(&doomed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsp_engine::execute;
    use hsp_store::{Order, StorageBackend};

    fn seed() -> Dataset {
        Dataset::from_ntriples(
            r#"<http://e/j1> <http://e/rdf-type> <http://e/Journal> .
<http://e/j1> <http://e/issued> "1940" .
<http://e/j2> <http://e/rdf-type> <http://e/Journal> .
<http://e/j2> <http://e/issued> "1941" .
<http://e/a1> <http://e/rdf-type> <http://e/Article> .
"#,
        )
        .unwrap()
    }

    fn orders_agree(ds: &Dataset) {
        let n = ds.len();
        for order in Order::ALL {
            let scan = ds.store().scan(order, &[]);
            assert_eq!(scan.len(), n, "{order}");
            assert!(scan.as_slice().windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn insert_data_adds_and_dedups() {
        let mut ds = seed();
        let stats = apply_update(
            &mut ds,
            r#"INSERT DATA {
                <http://e/j3> <http://e/issued> "1950" .
                <http://e/j1> <http://e/issued> "1940" .
            }"#,
        )
        .unwrap();
        assert_eq!(stats.inserted, 1); // j1/issued/1940 already present
        assert_eq!(ds.len(), 6);
        orders_agree(&ds);
    }

    #[test]
    fn delete_data_removes_exactly_listed() {
        let mut ds = seed();
        let stats = apply_update(
            &mut ds,
            r#"DELETE DATA {
                <http://e/j1> <http://e/issued> "1940" .
                <http://e/never> <http://e/was> "here" .
            }"#,
        )
        .unwrap();
        assert_eq!(stats.deleted, 1);
        assert_eq!(ds.len(), 4);
        orders_agree(&ds);
    }

    #[test]
    fn delete_where_removes_matching_instantiations() {
        let mut ds = seed();
        let stats = apply_update(
            &mut ds,
            "DELETE WHERE { ?j <http://e/rdf-type> <http://e/Journal> . ?j <http://e/issued> ?yr . }",
        )
        .unwrap();
        // Both journal triples of j1 and j2 are matched: 4 deletions.
        assert_eq!(stats.deleted, 4);
        assert_eq!(ds.len(), 1); // only the Article triple remains
        orders_agree(&ds);
    }

    #[test]
    fn sequenced_operations_see_prior_effects() {
        let mut ds = seed();
        let stats = apply_update(
            &mut ds,
            r#"INSERT DATA { <http://e/j3> <http://e/issued> "1950" . } ;
               DELETE WHERE { ?j <http://e/issued> ?yr . } ;"#,
        )
        .unwrap();
        assert_eq!(stats.inserted, 1);
        assert_eq!(stats.deleted, 3); // j1, j2, and the just-inserted j3
        orders_agree(&ds);
    }

    #[test]
    fn delete_where_with_no_matches_is_a_noop() {
        let mut ds = seed();
        let stats = apply_update(&mut ds, "DELETE WHERE { ?x <http://e/nosuch> ?y . }").unwrap();
        assert_eq!(stats.deleted, 0);
        assert_eq!(ds.len(), 5);
    }

    #[test]
    fn variables_in_data_blocks_are_rejected() {
        let mut ds = seed();
        let err = apply_update(&mut ds, "INSERT DATA { ?x <http://e/p> \"v\" . }");
        assert!(err.is_err());
        let err = apply_update(&mut ds, "DELETE DATA { <http://e/x> ?p \"v\" . }");
        assert!(err.is_err());
    }

    #[test]
    fn queries_still_work_after_updates() {
        use hsp_sparql::JoinQuery;
        let mut ds = seed();
        apply_update(
            &mut ds,
            r#"INSERT DATA { <http://e/j9> <http://e/issued> "1999" . }"#,
        )
        .unwrap();
        let q = JoinQuery::parse("SELECT ?j WHERE { ?j <http://e/issued> \"1999\" . }").unwrap();
        let planned = HspPlanner::new().plan(&q).unwrap();
        let out = execute(&planned.plan, &ds, &ExecConfig::unlimited()).unwrap();
        assert_eq!(out.table.len(), 1);
    }
}
