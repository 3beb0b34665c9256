//! Result serialisation: the W3C SPARQL 1.1 Query Results formats
//! (JSON, CSV, TSV) plus a human-readable table.
//!
//! All serialisers are hand-rolled (no serde) and operate on
//! [`crate::extended::ExtendedOutput`], the term-level
//! result representation shared by the join-query pipeline and the
//! extended (OPTIONAL/UNION) evaluator. Unbound cells (possible under
//! OPTIONAL and UNION padding) serialise per each format's rule: omitted
//! binding in JSON, empty field in CSV/TSV.

use std::fmt::Write as _;

use hsp_rdf::Term;

use crate::extended::ExtendedOutput;

/// Serialise to the SPARQL 1.1 Query Results JSON format
/// (`application/sparql-results+json`).
///
pub fn to_sparql_json(out: &ExtendedOutput) -> String {
    let mut s = String::new();
    write_sparql_json(&mut s, out);
    s
}

/// [`to_sparql_json`], appended to `s`. Everything is written straight
/// into the one output buffer: values are escaped in place (runs that need
/// no escaping are copied whole), and each column's quoted name is escaped
/// once per result, not per cell.
pub(crate) fn write_sparql_json(s: &mut String, out: &ExtendedOutput) {
    let names: Vec<String> = out
        .columns
        .iter()
        .map(|c| {
            let mut name = String::with_capacity(c.len() + 2);
            name.push('"');
            push_json_escaped(&mut name, c);
            name.push('"');
            name
        })
        .collect();
    // The fixed JSON around an empty value, per bound cell; value text
    // comes on top, so this under-reserves by at most a few doublings.
    const CELL_OVERHEAD: usize = 32;
    let row_estimate: usize = 2 + names.iter().map(|n| n.len() + CELL_OVERHEAD).sum::<usize>();
    s.reserve(64 + out.rows.len() * row_estimate);
    s.push_str("{\"head\":{\"vars\":[");
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(name);
    }
    s.push_str("]},\"results\":{\"bindings\":[");
    for (ri, row) in out.rows.iter().enumerate() {
        if ri > 0 {
            s.push(',');
        }
        s.push('{');
        let mut first = true;
        for (name, cell) in names.iter().zip(row) {
            let Some(term) = cell else { continue }; // unbound: omitted
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(name);
            s.push(':');
            json_term(s, term);
        }
        s.push('}');
    }
    s.push_str("]}}");
}

fn json_term(s: &mut String, term: &Term) {
    match term {
        Term::Iri(iri) => {
            s.push_str("{\"type\":\"uri\",\"value\":\"");
            push_json_escaped(s, iri);
            s.push_str("\"}");
        }
        Term::Literal {
            lexical,
            datatype,
            language,
        } => {
            s.push_str("{\"type\":\"literal\",\"value\":\"");
            push_json_escaped(s, lexical);
            if let Some(lang) = language {
                s.push_str("\",\"xml:lang\":\"");
                push_json_escaped(s, lang);
            } else if let Some(dt) = datatype {
                s.push_str("\",\"datatype\":\"");
                push_json_escaped(s, dt);
            }
            s.push_str("\"}");
        }
    }
}

/// Append `value` escaped for the inside of a JSON string literal. Every
/// character that needs escaping is ASCII, so the scan is over bytes and
/// the runs in between are copied whole — a value with nothing to escape
/// is one `push_str`.
fn push_json_escaped(out: &mut String, value: &str) {
    let mut start = 0;
    for (i, b) in value.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => {
                out.push_str(&value[start..i]);
                write!(out, "\\u{b:04x}").expect("writing to String");
                start = i + 1;
                continue;
            }
            _ => continue,
        };
        out.push_str(&value[start..i]);
        out.push_str(escape);
        start = i + 1;
    }
    out.push_str(&value[start..]);
}

/// Serialise an `ASK` result to the SPARQL 1.1 JSON boolean form.
pub fn ask_to_sparql_json(answer: bool) -> String {
    format!("{{\"head\":{{}},\"boolean\":{answer}}}")
}

/// Bytes reserved per cell by the CSV / TSV serialisers: a guess at a
/// short value plus its separator, so typical results grow the buffer a
/// few times at most.
const FIELD_ESTIMATE: usize = 24;

/// Serialise to the SPARQL 1.1 CSV results format (`text/csv`): header row
/// of variable names, then one row per solution with *plain values* (IRI
/// text and literal lexical forms), RFC-4180 quoting.
pub fn to_csv(out: &ExtendedOutput) -> String {
    let mut s = String::new();
    write_csv(&mut s, out);
    s
}

/// [`to_csv`], appended to `s`.
pub(crate) fn write_csv(s: &mut String, out: &ExtendedOutput) {
    s.reserve((out.rows.len() + 1) * out.columns.len() * FIELD_ESTIMATE);
    for (i, c) in out.columns.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_csv_field(s, c);
    }
    s.push_str("\r\n");
    for row in &out.rows {
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            if let Some(term) = cell {
                push_csv_field(s, term.lexical());
            }
        }
        s.push_str("\r\n");
    }
}

/// Append one CSV field: verbatim unless it holds a comma, quote or line
/// break, else quoted with every `"` doubled.
fn push_csv_field(out: &mut String, value: &str) {
    if !value
        .bytes()
        .any(|b| matches!(b, b',' | b'"' | b'\n' | b'\r'))
    {
        out.push_str(value);
        return;
    }
    out.push('"');
    for (i, piece) in value.split('"').enumerate() {
        if i > 0 {
            out.push_str("\"\"");
        }
        out.push_str(piece);
    }
    out.push('"');
}

/// Serialise to the SPARQL 1.1 TSV results format
/// (`text/tab-separated-values`): `?var` headers, then terms in their
/// N-Triples/Turtle surface syntax.
pub fn to_tsv(out: &ExtendedOutput) -> String {
    let mut s = String::new();
    write_tsv(&mut s, out);
    s
}

/// [`to_tsv`], appended to `s`.
pub(crate) fn write_tsv(s: &mut String, out: &ExtendedOutput) {
    s.reserve((out.rows.len() + 1) * out.columns.len() * FIELD_ESTIMATE);
    for (i, c) in out.columns.iter().enumerate() {
        if i > 0 {
            s.push('\t');
        }
        s.push('?');
        s.push_str(c);
    }
    s.push('\n');
    for row in &out.rows {
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                s.push('\t');
            }
            if let Some(term) = cell {
                write!(s, "{term}").expect("writing to String");
            }
        }
        s.push('\n');
    }
}

/// Render as a human-readable aligned table (for the CLI).
pub fn to_table(out: &ExtendedOutput) -> String {
    let mut s = String::new();
    write_table(&mut s, out);
    s
}

/// [`to_table`], appended to `s`.
pub(crate) fn write_table(s: &mut String, out: &ExtendedOutput) {
    let render = |cell: &Option<Term>| -> String {
        match cell {
            Some(t) => t.to_string(),
            None => String::new(),
        }
    };
    let mut widths: Vec<usize> = out.columns.iter().map(|c| c.len() + 1).collect();
    let rendered: Vec<Vec<String>> = out
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .map(|(i, cell)| {
                    let text = render(cell);
                    widths[i] = widths[i].max(text.chars().count());
                    text
                })
                .collect()
        })
        .collect();

    for (i, c) in out.columns.iter().enumerate() {
        if i > 0 {
            s.push_str("  ");
        }
        write!(s, "{:<width$}", format!("?{c}"), width = widths[i]).expect("writing to String");
    }
    s.push('\n');
    for (i, _) in out.columns.iter().enumerate() {
        if i > 0 {
            s.push_str("  ");
        }
        s.push_str(&"-".repeat(widths[i]));
    }
    s.push('\n');
    for row in &rendered {
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                s.push_str("  ");
            }
            write!(s, "{:<width$}", cell, width = widths[i]).expect("writing to String");
        }
        s.push('\n');
    }
    writeln!(
        s,
        "({} row{})",
        out.rows.len(),
        if out.rows.len() == 1 { "" } else { "s" }
    )
    .expect("writing to String");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExtendedOutput {
        ExtendedOutput {
            columns: vec!["x".into(), "label".into()],
            rows: vec![
                vec![
                    Some(Term::iri("http://e/a")),
                    Some(Term::lang_literal("chat, \"fancy\"", "en")),
                ],
                vec![
                    Some(Term::typed_literal(
                        "42",
                        "http://www.w3.org/2001/XMLSchema#integer",
                    )),
                    None, // unbound
                ],
            ],
        }
    }

    #[test]
    fn json_shape_and_escaping() {
        let j = to_sparql_json(&sample());
        assert!(j.starts_with("{\"head\":{\"vars\":[\"x\",\"label\"]}"));
        assert!(j.contains("\"type\":\"uri\",\"value\":\"http://e/a\""));
        assert!(j.contains("\\\"fancy\\\""));
        assert!(j.contains("\"xml:lang\":\"en\""));
        assert!(j.contains("\"datatype\":\"http://www.w3.org/2001/XMLSchema#integer\""));
        // The unbound cell is omitted entirely.
        assert!(j.contains("{\"x\":{\"type\":\"literal\",\"value\":\"42\""));
    }

    #[test]
    fn json_is_parseable_shape() {
        // Cheap structural sanity: balanced braces/brackets.
        let j = to_sparql_json(&sample());
        let depth = j.chars().fold(0i32, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }

    #[test]
    fn json_control_character_escaped() {
        let out = ExtendedOutput {
            columns: vec!["x".into()],
            rows: vec![vec![Some(Term::literal("a\u{01}b"))]],
        };
        assert!(to_sparql_json(&out).contains("\\u0001"));
    }

    #[test]
    fn csv_quoting_rules() {
        let c = to_csv(&sample());
        let mut lines = c.lines();
        assert_eq!(lines.next(), Some("x,label"));
        // Comma + quotes force RFC-4180 quoting with doubled quotes.
        assert_eq!(lines.next(), Some(r#"http://e/a,"chat, ""fancy""""#));
        // Unbound serialises as an empty field.
        assert_eq!(lines.next(), Some("42,"));
    }

    #[test]
    fn tsv_uses_term_syntax() {
        let t = to_tsv(&sample());
        let mut lines = t.lines();
        assert_eq!(lines.next(), Some("?x\t?label"));
        assert_eq!(
            lines.next(),
            Some("<http://e/a>\t\"chat, \\\"fancy\\\"\"@en")
        );
        let line3 = lines.next().unwrap();
        assert!(line3.starts_with("\"42\"^^<"));
        assert!(line3.ends_with('\t'));
    }

    #[test]
    fn table_alignment_and_row_count() {
        let t = to_table(&sample());
        assert!(t.contains("?x"));
        assert!(t.contains("?label"));
        assert!(t.ends_with("(2 rows)\n"));
        let one = ExtendedOutput {
            columns: vec!["x".into()],
            rows: vec![vec![None]],
        };
        assert!(to_table(&one).ends_with("(1 row)\n"));
    }

    #[test]
    fn empty_result_serialises_cleanly() {
        let empty = ExtendedOutput {
            columns: vec!["x".into()],
            rows: vec![],
        };
        assert_eq!(
            to_sparql_json(&empty),
            "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":[]}}"
        );
        assert_eq!(to_csv(&empty), "x\r\n");
        assert_eq!(to_tsv(&empty), "?x\n");
    }
}
