//! Result serialisation: the W3C SPARQL 1.1 Query Results formats
//! (JSON, CSV, TSV) plus a human-readable table.
//!
//! All serialisers are hand-rolled (no serde) and each format has exactly
//! one rendering body, written over a [`RowSource`]: named columns and a
//! `cell(row, col)` that *borrows* the term. Two sources implement it —
//! [`ExtendedOutput`], the decoded rows a library caller holds, and
//! [`EncodedResponse`](crate::session::EncodedResponse), whose cells are
//! ids resolved against the dictionary while the bytes are written, so the
//! server and the CLI render without ever building a term row. Unbound
//! cells (possible under OPTIONAL and UNION padding) serialise per each
//! format's rule: omitted binding in JSON, empty field in CSV/TSV.
//!
//! Every `write_*` takes a `max_len`: it stops after the first row that
//! takes the output buffer past that many bytes and returns `false`, which
//! is how the server refuses a response larger than a frame without
//! rendering the rest of it. With `usize::MAX` a writer always completes.

use std::fmt::Write as _;

use hsp_rdf::Term;

use crate::extended::ExtendedOutput;

/// What the renderers read: named columns over rows of optional terms.
pub trait RowSource {
    /// Output column names, in SELECT order.
    fn columns(&self) -> &[String];

    /// Number of rows.
    fn len(&self) -> usize;

    /// `true` if there are no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The term of one cell; `None` marks an unbound value.
    fn cell(&self, row: usize, col: usize) -> Option<&Term>;
}

impl RowSource for ExtendedOutput {
    fn columns(&self) -> &[String] {
        &self.columns
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    #[inline]
    fn cell(&self, row: usize, col: usize) -> Option<&Term> {
        self.rows[row][col].as_ref()
    }
}

/// A result format, as `--format` / `format=` spell it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Human-readable aligned table.
    Table,
    /// SPARQL 1.1 Query Results JSON.
    Json,
    /// SPARQL 1.1 Query Results CSV.
    Csv,
    /// SPARQL 1.1 Query Results TSV.
    Tsv,
}

impl std::str::FromStr for Format {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        const NAMES: [(&str, Format); 4] = [
            ("table", Format::Table),
            ("json", Format::Json),
            ("csv", Format::Csv),
            ("tsv", Format::Tsv),
        ];
        NAMES
            .iter()
            .find(|(name, _)| s.eq_ignore_ascii_case(name))
            .map(|&(_, format)| format)
            .ok_or_else(|| format!("unknown format `{s}` (table|json|csv|tsv)"))
    }
}

impl Format {
    /// Append `out` rendered in this format to `s`; `false` if rendering
    /// stopped because `s` outgrew `max_len` (see the module docs).
    pub fn write(self, s: &mut String, out: &impl RowSource, max_len: usize) -> bool {
        match self {
            Format::Table => write_table(s, out, max_len),
            Format::Json => write_sparql_json(s, out, max_len),
            Format::Csv => write_csv(s, out, max_len),
            Format::Tsv => write_tsv(s, out, max_len),
        }
    }

    /// Append an `ASK` answer: the W3C JSON envelope, or a bare boolean
    /// in every other format.
    pub fn write_ask(self, s: &mut String, answer: bool) {
        match self {
            Format::Json => s.push_str(&ask_to_sparql_json(answer)),
            Format::Table | Format::Csv | Format::Tsv => {
                write!(s, "{answer}").expect("writing to String")
            }
        }
    }
}

/// Serialise to the SPARQL 1.1 Query Results JSON format
/// (`application/sparql-results+json`).
pub fn to_sparql_json(out: &ExtendedOutput) -> String {
    let mut s = String::new();
    write_sparql_json(&mut s, out, usize::MAX);
    s
}

/// Rows a JSON render writes before it sizes the rest of the buffer from
/// their measured width.
const JSON_SAMPLE_ROWS: usize = 256;

/// [`to_sparql_json`] over any [`RowSource`], appended to `s`. Everything
/// is written straight into the one output buffer: values are escaped in
/// place (runs that need no escaping are copied whole), and each column's
/// quoted name is escaped once per result, not per cell.
pub(crate) fn write_sparql_json(s: &mut String, out: &impl RowSource, max_len: usize) -> bool {
    let names: Vec<String> = out
        .columns()
        .iter()
        .map(|c| {
            let mut name = String::with_capacity(c.len() + 2);
            name.push('"');
            push_json_escaped(&mut name, c);
            name.push('"');
            name
        })
        .collect();
    let rows = out.len();
    // A guess covers the first rows (the fixed JSON around an empty value,
    // per bound cell); the rest is reserved from what those rows measured,
    // so a large result grows — and copies — its buffer at most once.
    const CELL_OVERHEAD: usize = 32;
    let row_guess: usize = 2 + names.iter().map(|n| n.len() + CELL_OVERHEAD).sum::<usize>();
    s.reserve(64 + rows.min(JSON_SAMPLE_ROWS) * row_guess);
    s.push_str("{\"head\":{\"vars\":[");
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(name);
    }
    s.push_str("]},\"results\":{\"bindings\":[");
    let body = s.len();
    for ri in 0..rows {
        if ri == JSON_SAMPLE_ROWS {
            let per_row = (s.len() - body) / JSON_SAMPLE_ROWS + 1;
            let rest = (rows - ri) * (per_row + per_row / 8);
            s.reserve(rest.min(max_len.saturating_sub(s.len())));
        }
        if ri > 0 {
            s.push(',');
        }
        s.push('{');
        let mut first = true;
        for (ci, name) in names.iter().enumerate() {
            let Some(term) = out.cell(ri, ci) else {
                continue; // unbound: omitted
            };
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(name);
            s.push(':');
            json_term(s, term);
        }
        s.push('}');
        if s.len() > max_len {
            return false;
        }
    }
    s.push_str("]}}");
    s.len() <= max_len
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

/// Bit 7 of every byte of `word` that JSON must escape — `"`, `\` and the
/// control characters below 0x20 — eight bytes at a time. A flagged byte
/// can smear a false flag onto the bytes *above* it (the subtractions
/// borrow upwards), never below: zero means the whole word is clean, and
/// the lowest flag is always exact.
#[inline]
fn json_escape_flags(word: u64) -> u64 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let zero_bytes = |w: u64| w.wrapping_sub(ONES) & !w;
    let control = word.wrapping_sub(ONES * 0x20) & !word;
    let quote = zero_bytes(word ^ (ONES * b'"' as u64));
    let backslash = zero_bytes(word ^ (ONES * b'\\' as u64));
    (control | quote | backslash) & HIGH
}

/// Append `value` escaped for the inside of a JSON string literal. Every
/// character that needs escaping is ASCII, so the scan is over bytes —
/// whole words while they are clean — and the runs in between are copied
/// whole: a value with nothing to escape is one `push_str`.
fn push_json_escaped(out: &mut String, value: &str) {
    let bytes = value.as_bytes();
    let mut start = 0;
    let mut i = 0;
    while i < bytes.len() {
        if let Some(word) = bytes.get(i..i + 8) {
            let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
            let flags = json_escape_flags(word);
            if flags == 0 {
                i += 8;
                continue;
            }
            // Little-endian load: the lowest flag is the first such byte.
            i += (flags.trailing_zeros() / 8) as usize;
        }
        let b = bytes[i];
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => {
                i += 1;
                continue;
            }
        };
        out.push_str(&value[start..i]);
        if escape.is_empty() {
            write!(out, "\\u{b:04x}").expect("writing to String");
        } else {
            out.push_str(escape);
        }
        i += 1;
        start = i;
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
    write_csv(&mut s, out, usize::MAX);
    s
}

/// [`to_csv`] over any [`RowSource`], appended to `s`.
pub(crate) fn write_csv(s: &mut String, out: &impl RowSource, max_len: usize) -> bool {
    let columns = out.columns();
    s.reserve(((out.len() + 1) * columns.len() * FIELD_ESTIMATE).min(max_len));
    for (i, c) in columns.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_csv_field(s, c);
    }
    s.push_str("\r\n");
    for ri in 0..out.len() {
        for ci in 0..columns.len() {
            if ci > 0 {
                s.push(',');
            }
            if let Some(term) = out.cell(ri, ci) {
                push_csv_field(s, term.lexical());
            }
        }
        s.push_str("\r\n");
        if s.len() > max_len {
            return false;
        }
    }
    s.len() <= max_len
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
    write_tsv(&mut s, out, usize::MAX);
    s
}

/// [`to_tsv`] over any [`RowSource`], appended to `s`.
pub(crate) fn write_tsv(s: &mut String, out: &impl RowSource, max_len: usize) -> bool {
    let columns = out.columns();
    s.reserve(((out.len() + 1) * columns.len() * FIELD_ESTIMATE).min(max_len));
    for (i, c) in columns.iter().enumerate() {
        if i > 0 {
            s.push('\t');
        }
        s.push('?');
        s.push_str(c);
    }
    s.push('\n');
    for ri in 0..out.len() {
        for ci in 0..columns.len() {
            if ci > 0 {
                s.push('\t');
            }
            if let Some(term) = out.cell(ri, ci) {
                write!(s, "{term}").expect("writing to String");
            }
        }
        s.push('\n');
        if s.len() > max_len {
            return false;
        }
    }
    s.len() <= max_len
}

/// Render as a human-readable aligned table (for the CLI).
pub fn to_table(out: &ExtendedOutput) -> String {
    let mut s = String::new();
    write_table(&mut s, out, usize::MAX);
    s
}

/// [`to_table`] over any [`RowSource`], appended to `s`. Alignment needs
/// every cell's width before the first line can be written, so the cells
/// are rendered first; `max_len` is checked against their running size.
pub(crate) fn write_table(s: &mut String, out: &impl RowSource, max_len: usize) -> bool {
    let columns = out.columns();
    let mut widths: Vec<usize> = columns.iter().map(|c| c.len() + 1).collect();
    let mut rendered: Vec<Vec<String>> = Vec::with_capacity(out.len());
    let mut text_bytes = s.len();
    for ri in 0..out.len() {
        let row: Vec<String> = (0..columns.len())
            .map(|ci| {
                let text = out.cell(ri, ci).map_or_else(String::new, Term::to_string);
                widths[ci] = widths[ci].max(text.chars().count());
                text_bytes += text.len();
                text
            })
            .collect();
        rendered.push(row);
        if text_bytes > max_len {
            return false;
        }
    }

    for (i, c) in columns.iter().enumerate() {
        if i > 0 {
            s.push_str("  ");
        }
        write!(s, "{:<width$}", format!("?{c}"), width = widths[i]).expect("writing to String");
    }
    s.push('\n');
    for (i, width) in widths.iter().enumerate() {
        if i > 0 {
            s.push_str("  ");
        }
        s.push_str(&"-".repeat(*width));
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
        out.len(),
        if out.len() == 1 { "" } else { "s" }
    )
    .expect("writing to String");
    s.len() <= max_len
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

    /// The escaper before it scanned words: one byte at a time.
    fn escaped_bytewise(value: &str) -> String {
        let mut out = String::new();
        for c in value.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
                c => out.push(c),
            }
        }
        out
    }

    #[test]
    fn word_at_a_time_escaping_matches_bytewise_at_every_offset() {
        // Every escapable byte, its neighbours on both sides of each
        // threshold, and multi-byte characters (bytes ≥ 0x80) — at every
        // position of a value long enough to span three words, alone and
        // next to a second special byte.
        let specials = [
            "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1}", "\u{1f}", " ", "!", "#", "[", "]",
            "\u{7f}", "é", "☃", "𝄞",
        ];
        for first in specials {
            for second in ["", "\"", "\u{1f}", "é"] {
                for at in 0..24 {
                    let mut value = "abcdefghijklmnopqrstuvwxyz".to_string();
                    value.insert_str(at, first);
                    value.insert_str(at + first.len(), second);
                    value.insert_str((at + 9).min(value.len()), second);
                    let mut got = String::new();
                    push_json_escaped(&mut got, &value);
                    assert_eq!(got, escaped_bytewise(&value), "{value:?}");
                }
            }
        }
        let mut all = String::new();
        push_json_escaped(&mut all, "");
        assert_eq!(all, "");
    }

    #[test]
    fn formats_parse_once_and_reject_unknown_spellings() {
        for (text, format) in [
            ("table", Format::Table),
            ("json", Format::Json),
            ("CSV", Format::Csv),
            ("tsv", Format::Tsv),
        ] {
            assert_eq!(text.parse::<Format>(), Ok(format));
        }
        let err = "xml".parse::<Format>().unwrap_err();
        assert_eq!(err, "unknown format `xml` (table|json|csv|tsv)");
    }

    #[test]
    fn writers_stop_at_the_first_row_past_max_len() {
        let row = vec![
            Some(Term::iri("http://e/a-subject-of-some-length")),
            Some(Term::literal("and a value")),
        ];
        let big = ExtendedOutput {
            columns: vec!["x".into(), "label".into()],
            rows: vec![row; 1000],
        };
        let whole = [
            (Format::Json, to_sparql_json(&big)),
            (Format::Csv, to_csv(&big)),
            (Format::Tsv, to_tsv(&big)),
            (Format::Table, to_table(&big)),
        ];
        for (format, whole) in whole {
            // Unbounded: complete, and the same bytes as `to_*`.
            let mut s = String::from("status\n");
            assert!(format.write(&mut s, &big, usize::MAX));
            assert_eq!(s, format!("status\n{whole}"));
            // Exactly enough room: complete.
            let mut s = String::from("status\n");
            assert!(format.write(&mut s, &big, 7 + whole.len()));
            // One byte short: refused — and well before the end when the
            // cap is far below the result's size.
            let mut s = String::from("status\n");
            assert!(!format.write(&mut s, &big, 7 + whole.len() - 1));
            let mut s = String::from("status\n");
            assert!(!format.write(&mut s, &big, 4096), "{format:?}");
            assert!(
                s.len() < 4096 + 200,
                "{format:?} kept rendering: {}",
                s.len()
            );
        }
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
