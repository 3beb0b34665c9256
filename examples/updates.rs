//! SPARQL Update against the six-order store: `INSERT DATA`,
//! `DELETE DATA`, `DELETE WHERE` — and why a *heuristics-based* planner
//! shines on mutating data (no statistics ever go stale).
//!
//! Updates go through [`Session::update`]: the whole request applies to
//! a private clone of the dataset and publishes with one pointer swap,
//! so concurrent readers keep a consistent snapshot and a failed
//! request changes nothing.
//!
//! ```text
//! cargo run --release --example updates
//! ```

use sparql_hsp::session::{Request, Session};
use sparql_hsp::store::Dataset;

fn count(session: &Session, query: &str) -> usize {
    session
        .query(Request::new(query))
        .expect("query evaluates")
        .output
        .rows
        .len()
}

fn main() {
    let session = Session::new(Dataset::from_ntriples("").expect("empty document"));
    println!("starting from an empty dataset\n");

    // 1. Load a batch of bibliographic facts.
    let up = session
        .update(Request::new(
            r#"PREFIX e: <http://e/>
            INSERT DATA {
                e:j1 e:type e:Journal . e:j1 e:issued "1940" .
                e:j2 e:type e:Journal . e:j2 e:issued "1941" .
                e:j3 e:type e:Journal . e:j3 e:issued "1942" .
                e:a1 e:type e:Article . e:a1 e:issued "1950" .
            }"#,
        ))
        .expect("insert applies");
    println!(
        "INSERT DATA: +{} triples (dataset now {})",
        up.stats.inserted, up.triples
    );

    // All six sort orders stay consistent after incremental inserts —
    // queries run immediately, no reload, no statistics rebuild.
    let journals = "SELECT ?j WHERE { ?j <http://e/type> <http://e/Journal> . }";
    println!("journals now: {}", count(&session, journals));

    // 2. Re-inserting existing triples is a no-op (RDF graphs are sets).
    let up = session
        .update(Request::new(
            r#"INSERT DATA { <http://e/j1> <http://e/type> <http://e/Journal> . }"#,
        ))
        .expect("insert applies");
    assert_eq!(up.stats.inserted, 0);
    println!("re-insert of an existing triple: +0 (set semantics)");

    // 3. Point deletion. Readers holding the old snapshot are unmoved.
    let before = session.snapshot();
    let up = session
        .update(Request::new(
            r#"DELETE DATA { <http://e/j3> <http://e/issued> "1942" . }"#,
        ))
        .expect("delete applies");
    println!(
        "DELETE DATA: -{} (dataset now {}; a pre-update snapshot still sees {})",
        up.stats.deleted,
        up.triples,
        before.len()
    );

    // 4. Pattern deletion: DELETE WHERE is planned by HSP like any query.
    let up = session
        .update(Request::new(
            "DELETE WHERE { ?j <http://e/type> <http://e/Journal> . ?j <http://e/issued> ?yr . }",
        ))
        .expect("delete-where applies");
    println!(
        "DELETE WHERE (journal ⋈ issued): -{} (dataset now {})",
        up.stats.deleted, up.triples
    );
    println!(
        "journals with a year left: {}",
        count(
            &session,
            "SELECT ?j WHERE { ?j <http://e/type> <http://e/Journal> . ?j <http://e/issued> ?y . }"
        )
    );

    // 5. Sequenced request: each op sees the previous one's effect
    //    inside the working clone, and the result publishes atomically.
    let up = session
        .update(Request::new(
            r#"INSERT DATA { <http://e/tmp> <http://e/type> <http://e/Temporary> . } ;
               DELETE WHERE { ?x <http://e/type> <http://e/Temporary> . } ;"#,
        ))
        .expect("sequence applies");
    assert_eq!(up.stats.inserted, 1);
    assert_eq!(up.stats.deleted, 1);
    println!("\nsequenced insert-then-delete-where: net zero, as expected");
    println!("final dataset:\n{}", session.snapshot().to_ntriples());
}
