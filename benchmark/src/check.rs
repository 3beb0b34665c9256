//! Output checking: what every response must hash to, and the independent
//! path that says so.
//!
//! The expectation of a request is its row count plus an order-insensitive
//! FNV-1a hash of its rows. It is computed during set-up by [`oracle`] —
//! the operator-at-a-time evaluator, which shares no executor code with
//! the pipelines the timed requests run on — and join queries are planned
//! a second time by the cost-based CDP baseline, whose differently shaped
//! plan must produce the same rows.

use sparql_hsp::baseline::CdpPlanner;
use sparql_hsp::engine::{execute, ExecConfig, ExecOutput, ExecStrategy};
use sparql_hsp::extended::{evaluate_extended_in, ExtendedOutput};
use sparql_hsp::hsp::HspPlanner;
use sparql_hsp::rdf::Term;
use sparql_hsp::results;
use sparql_hsp::sparql::{parse_query, JoinQuery, Var};
use sparql_hsp::store::Dataset;

use crate::sample::{fnv1a, Fnv};

/// What a response is compared on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    /// Result rows (for an update: triples in the store afterwards).
    pub rows: u64,
    /// Order-insensitive hash of the rows (for an update: the inserted and
    /// deleted counts).
    pub hash: u64,
}

/// Digest of an in-process result: each row hashes its cells' kind and
/// text, rows add up (so their order does not matter), and the column
/// names seed the sum.
pub fn digest_output(out: &ExtendedOutput) -> Digest {
    let mut head = Fnv::new();
    for column in &out.columns {
        head.bytes(column.as_bytes());
        head.byte(0xff);
    }
    let mut sum = head.0;
    for row in &out.rows {
        let mut h = Fnv::new();
        for cell in row {
            match cell {
                None => h.byte(0),
                Some(Term::Iri(iri)) => {
                    h.byte(1);
                    h.bytes(iri.as_bytes());
                }
                Some(Term::Literal {
                    lexical,
                    datatype,
                    language,
                }) => {
                    h.byte(2);
                    h.bytes(lexical.as_bytes());
                    h.byte(0xfe);
                    h.bytes(datatype.as_deref().unwrap_or("").as_bytes());
                    h.byte(0xfe);
                    h.bytes(language.as_deref().unwrap_or("").as_bytes());
                }
            }
            h.byte(0xff);
        }
        sum = sum.wrapping_add(h.0);
    }
    Digest {
        rows: out.rows.len() as u64,
        hash: sum,
    }
}

/// Digest of a SPARQL-JSON body as the server ships it: every object of
/// the `bindings` array hashes on its own bytes, the objects add up, and
/// whatever precedes the array (the `head`) seeds the sum. A body with no
/// `bindings` array (an `ASK` answer) hashes whole, with zero rows.
pub fn digest_json(body: &str) -> Digest {
    const MARK: &str = "\"bindings\":[";
    let Some(at) = body.find(MARK) else {
        return Digest {
            rows: 0,
            hash: fnv1a(body.as_bytes()),
        };
    };
    let mut sum = fnv1a(&body.as_bytes()[..at]);
    let mut rows = 0u64;
    let (mut depth, mut in_string, mut escaped) = (0u32, false, false);
    let mut h = Fnv::new();
    for &b in &body.as_bytes()[at + MARK.len()..] {
        if depth > 0 {
            h.byte(b);
        }
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' => {
                if depth == 0 {
                    h = Fnv::new();
                    h.byte(b);
                }
                depth += 1;
            }
            b'}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    sum = sum.wrapping_add(h.0);
                    rows += 1;
                }
            }
            b']' if depth == 0 => break,
            _ => {}
        }
    }
    Digest { rows, hash: sum }
}

/// Digest of an `UPDATE` response header
/// (`OK inserted=I deleted=D triples=T`).
pub fn digest_update(inserted: u64, deleted: u64, triples: u64) -> Digest {
    Digest {
        rows: triples,
        hash: (inserted << 32) | deleted,
    }
}

/// How a workload's responses reach the client, which decides what a
/// digest is taken over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `Session::query` in this process: digest the decoded rows.
    InProc,
    /// Framed TCP with the default `format=json`: digest the body text.
    Tcp,
}

fn oracle_config() -> ExecConfig {
    ExecConfig::unlimited()
        .with_strategy(ExecStrategy::OperatorAtATime)
        .with_threads(1)
}

/// Term-level rows of an executed join plan, as `Session::query` decodes
/// them.
fn decode(ds: &Dataset, out: &ExecOutput, projection: &[(String, Var)]) -> ExtendedOutput {
    ExtendedOutput {
        columns: projection.iter().map(|(name, _)| name.clone()).collect(),
        rows: (0..out.table.len())
            .map(|i| {
                projection
                    .iter()
                    .map(|&(_, v)| out.term(ds, out.table.value(v, i)))
                    .collect()
            })
            .collect(),
    }
}

/// Evaluate `text` on `ds` by the independent path and return the digest a
/// correct response has over `transport`.
///
/// Join queries run their HSP plan on the operator-at-a-time evaluator and,
/// with `cross_check`, the CDP baseline's plan too where it can plan them
/// (it refuses cross products and aggregates); disagreement between the
/// two is an error. Everything else (OPTIONAL, UNION, ASK) runs the
/// extended evaluator pinned to the same operator-at-a-time strategy.
pub fn oracle(
    ds: &Dataset,
    text: &str,
    transport: Transport,
    cross_check: bool,
) -> Result<Digest, String> {
    let config = oracle_config();
    let ast = parse_query(text).map_err(|e| format!("oracle parse: {e}"))?;
    let join = if ast.ask {
        None
    } else {
        JoinQuery::parse(text).ok()
    };
    let (output, ask) = match join {
        Some(query) => {
            let hsp = HspPlanner::new()
                .plan(&query)
                .map_err(|e| format!("oracle HSP plan: {e}"))?;
            let out = execute(&hsp.plan, ds, &config).map_err(|e| format!("oracle exec: {e}"))?;
            let output = decode(ds, &out, &hsp.query.projection);
            if cross_check && !query.is_aggregate() {
                if let Ok(cdp) = CdpPlanner::new().plan(ds, &query) {
                    let out = execute(&cdp.plan, ds, &config)
                        .map_err(|e| format!("oracle CDP exec: {e}"))?;
                    let other = decode(ds, &out, &cdp.query.projection);
                    if digest_output(&other) != digest_output(&output) {
                        return Err(format!(
                            "HSP and CDP plans disagree ({} vs {} rows) on: {text}",
                            output.rows.len(),
                            other.rows.len()
                        ));
                    }
                }
            }
            (output, None)
        }
        None => {
            let output = evaluate_extended_in(ds, text, &config, &config.context())
                .map_err(|e| format!("oracle extended eval: {e}"))?;
            let ask = ast.ask.then_some(!output.rows.is_empty());
            (output, ask)
        }
    };
    Ok(match transport {
        Transport::InProc => digest_output(&output),
        Transport::Tcp => digest_json(&match ask {
            Some(answer) => results::ask_to_sparql_json(answer),
            None => results::to_sparql_json(&output),
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out(rows: Vec<Vec<Option<Term>>>) -> ExtendedOutput {
        ExtendedOutput {
            columns: vec!["a".into(), "b".into()],
            rows,
        }
    }

    fn sample_rows() -> Vec<Vec<Option<Term>>> {
        vec![
            vec![
                Some(Term::iri("http://e/x")),
                Some(Term::literal("q\"{}],")),
            ],
            vec![Some(Term::iri("http://e/y")), None],
            vec![
                Some(Term::typed_literal(
                    "7",
                    "http://www.w3.org/2001/XMLSchema#integer",
                )),
                Some(Term::lang_literal("sept", "fr")),
            ],
        ]
    }

    #[test]
    fn digests_ignore_row_order_but_not_content() {
        let rows = sample_rows();
        let mut reversed = rows.clone();
        reversed.reverse();
        for digest in [
            |o: &ExtendedOutput| digest_output(o),
            |o: &ExtendedOutput| digest_json(&results::to_sparql_json(o)),
        ] {
            let a = digest(&out(rows.clone()));
            assert_eq!(a.rows, 3);
            assert_eq!(a, digest(&out(reversed.clone())));
            let mut changed = rows.clone();
            changed[1][1] = Some(Term::literal(""));
            assert_ne!(a.hash, digest(&out(changed)).hash);
            let mut fewer = rows.clone();
            fewer.pop();
            assert_ne!(a, digest(&out(fewer)));
        }
    }

    #[test]
    fn json_digest_counts_rows_despite_braces_in_strings() {
        let d = digest_json(&results::to_sparql_json(&out(sample_rows())));
        assert_eq!(d.rows, 3);
        let empty = digest_json(&results::to_sparql_json(&out(vec![])));
        assert_eq!(empty.rows, 0);
        assert_ne!(
            digest_json(&results::ask_to_sparql_json(true)),
            digest_json(&results::ask_to_sparql_json(false))
        );
    }

    #[test]
    fn oracle_agrees_with_itself_across_planners_and_transports() {
        let ds = Dataset::from_ntriples(
            "<http://e/a1> <http://e/name> \"Alice\" .\n\
             <http://e/a1> <http://e/knows> <http://e/a2> .\n\
             <http://e/a2> <http://e/name> \"Bob\" .\n",
        )
        .unwrap();
        let join = "SELECT ?n WHERE { ?a <http://e/knows> ?b . ?b <http://e/name> ?n . }";
        assert_eq!(oracle(&ds, join, Transport::InProc, true).unwrap().rows, 1);
        assert_eq!(oracle(&ds, join, Transport::Tcp, false).unwrap().rows, 1);
        let optional = "SELECT ?a ?b WHERE { ?a <http://e/name> ?n . \
                        OPTIONAL { ?a <http://e/knows> ?b . } }";
        assert_eq!(oracle(&ds, optional, Transport::Tcp, true).unwrap().rows, 2);
        let ask = "ASK { ?a <http://e/knows> ?b . }";
        assert_eq!(
            oracle(&ds, ask, Transport::Tcp, true).unwrap(),
            digest_json(&results::ask_to_sparql_json(true))
        );
        assert!(oracle(&ds, "SELECT broken", Transport::Tcp, true).is_err());
    }
}
