//! OPTIONAL and UNION — the paper's §7 future-work features, composed from
//! HSP-planned blocks into one plan.
//!
//! ```text
//! cargo run --release --example optional_union
//! ```

use sparql_hsp::datagen::{generate_sp2bench, Sp2BenchConfig};
use sparql_hsp::session::{Request, Session};

fn main() {
    let ds = generate_sp2bench(Sp2BenchConfig::with_triples(60_000));
    println!("dataset: {} triples\n", ds.len());
    let session = Session::new(ds);

    // OPTIONAL: articles always have pages, only some have a month.
    let query = "
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        PREFIX bench: <http://localhost/vocabulary/bench/>
        PREFIX swrc: <http://swrc.ontoware.org/ontology#>
        SELECT ?article ?pages ?month WHERE {
            ?article rdf:type bench:Article .
            ?article swrc:pages ?pages .
            OPTIONAL { ?article swrc:month ?month . }
        }";
    let out = session
        .query(Request::new(query))
        .expect("evaluates")
        .output;
    let with_month = out.rows.iter().filter(|r| r[2].is_some()).count();
    println!(
        "OPTIONAL: {} articles total, {} with a month, {} padded with UNBOUND",
        out.rows.len(),
        with_month,
        out.rows.len() - with_month
    );

    // UNION: everything that carries a title — articles or inproceedings.
    let query = "
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        PREFIX bench: <http://localhost/vocabulary/bench/>
        PREFIX dc: <http://purl.org/dc/elements/1.1/>
        SELECT ?pub ?title WHERE {
            ?pub dc:title ?title .
            { ?pub rdf:type bench:Article . } UNION { ?pub rdf:type bench:Inproceedings . }
        }";
    let out = session
        .query(Request::new(query))
        .expect("evaluates")
        .output;
    println!(
        "UNION   : {} titled articles + inproceedings",
        out.rows.len()
    );

    // Both, with a filter over the optional column.
    let query = r#"
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        PREFIX bench: <http://localhost/vocabulary/bench/>
        PREFIX swrc: <http://swrc.ontoware.org/ontology#>
        PREFIX dcterms: <http://purl.org/dc/terms/>
        SELECT ?article ?month WHERE {
            ?article rdf:type bench:Article .
            ?article dcterms:issued ?yr .
            OPTIONAL { ?article swrc:month ?month . }
            FILTER (?month = "6")
        }"#;
    let out = session
        .query(Request::new(query))
        .expect("evaluates")
        .output;
    println!(
        "FILTER over OPTIONAL column: {} June articles (unbound month = filtered out)",
        out.rows.len()
    );

    // Show a couple of rows.
    println!("\nsample rows:");
    for row in out.rows.iter().take(3) {
        let cells: Vec<String> = row
            .iter()
            .map(|c| c.as_ref().map_or("—".to_string(), |t| t.to_string()))
            .collect();
        println!("  [{}]", cells.join(", "));
    }
}
