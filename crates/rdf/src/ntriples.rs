//! A small, strict N-Triples parser and serialiser.
//!
//! Stands in for the Redland Raptor parser the paper used to load datasets
//! into MonetDB. Supports IRIs, plain/typed/language-tagged literals,
//! comments, and blank lines; reports precise line numbers on error.

use std::fmt;

use crate::term::Term;
use crate::triple::Triple;

/// An error raised while parsing N-Triples input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "N-Triples parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse a full N-Triples document into triples.
pub fn parse_document(input: &str) -> Result<Vec<Triple>, ParseError> {
    let mut triples = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let line_no = i + 1;
        if let Some(triple) = parse_line(line, line_no)? {
            triples.push(triple);
        }
    }
    Ok(triples)
}

/// Parse one line; returns `Ok(None)` for blank lines and comments.
pub fn parse_line(line: &str, line_no: usize) -> Result<Option<Triple>, ParseError> {
    let mut p = LineParser {
        line,
        pos: 0,
        line_no,
    };
    p.skip_ws();
    if p.at_end() || p.peek() == Some('#') {
        return Ok(None);
    }
    let subject = p.parse_term()?;
    p.expect_ws()?;
    let predicate = p.parse_term()?;
    p.expect_ws()?;
    let object = p.parse_term()?;
    p.skip_ws();
    if p.peek() != Some('.') {
        return Err(p.err("expected terminating '.'"));
    }
    p.advance();
    p.skip_ws();
    if !p.at_end() && p.peek() != Some('#') {
        return Err(p.err("unexpected trailing content after '.'"));
    }
    if !subject.is_iri() {
        return Err(p.err("subject must be an IRI"));
    }
    if !predicate.is_iri() {
        return Err(p.err("predicate must be an IRI"));
    }
    Ok(Some(Triple::new(subject, predicate, object)))
}

/// Serialise triples as an N-Triples document (one line per triple).
pub fn serialize(triples: &[Triple]) -> String {
    let mut out = String::new();
    for t in triples {
        out.push_str(&t.to_string());
        out.push('\n');
    }
    out
}

struct LineParser<'a> {
    line: &'a str,
    pos: usize,
    line_no: usize,
}

impl<'a> LineParser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line_no,
            message: message.into(),
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.line.len()
    }

    fn peek(&self) -> Option<char> {
        self.line[self.pos..].chars().next()
    }

    fn advance(&mut self) {
        if let Some(c) = self.peek() {
            self.pos += c.len_utf8();
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ') | Some('\t')) {
            self.advance();
        }
    }

    fn expect_ws(&mut self) -> Result<(), ParseError> {
        if !matches!(self.peek(), Some(' ') | Some('\t')) {
            return Err(self.err("expected whitespace between terms"));
        }
        self.skip_ws();
        Ok(())
    }

    fn parse_term(&mut self) -> Result<Term, ParseError> {
        match self.peek() {
            Some('<') => self.parse_iri().map(Term::iri),
            Some('"') => self.parse_literal(),
            Some('_') => Err(self.err("blank nodes are not supported (datasets are skolemised)")),
            Some(c) => Err(self.err(format!("unexpected character '{c}' at start of term"))),
            None => Err(self.err("unexpected end of line, expected a term")),
        }
    }

    fn parse_iri(&mut self) -> Result<String, ParseError> {
        debug_assert_eq!(self.peek(), Some('<'));
        self.advance();
        let start = self.pos;
        loop {
            match self.peek() {
                Some('>') => {
                    let iri = &self.line[start..self.pos];
                    self.advance();
                    if iri.is_empty() {
                        return Err(self.err("empty IRI"));
                    }
                    if iri
                        .chars()
                        .any(|c| c.is_whitespace() || c == '<' || c == '"')
                    {
                        return Err(self.err("IRI contains forbidden character"));
                    }
                    return Ok(iri.to_string());
                }
                Some(_) => self.advance(),
                None => return Err(self.err("unterminated IRI")),
            }
        }
    }

    fn parse_literal(&mut self) -> Result<Term, ParseError> {
        debug_assert_eq!(self.peek(), Some('"'));
        self.advance();
        let mut lexical = String::new();
        loop {
            match self.peek() {
                Some('"') => {
                    self.advance();
                    break;
                }
                Some('\\') => {
                    self.advance();
                    let escaped = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    let replacement = match escaped {
                        '"' => '"',
                        '\\' => '\\',
                        'n' => '\n',
                        'r' => '\r',
                        't' => '\t',
                        other => {
                            return Err(self.err(format!("unsupported escape '\\{other}'")));
                        }
                    };
                    lexical.push(replacement);
                    self.advance();
                }
                Some(c) => {
                    lexical.push(c);
                    self.advance();
                }
                None => return Err(self.err("unterminated literal")),
            }
        }
        match self.peek() {
            Some('@') => {
                self.advance();
                let start = self.pos;
                while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == '-') {
                    self.advance();
                }
                let lang = &self.line[start..self.pos];
                if lang.is_empty() {
                    return Err(self.err("empty language tag"));
                }
                Ok(Term::lang_literal(lexical, lang))
            }
            Some('^') => {
                self.advance();
                if self.peek() != Some('^') {
                    return Err(self.err("expected '^^' before datatype IRI"));
                }
                self.advance();
                if self.peek() != Some('<') {
                    return Err(self.err("expected '<' after '^^'"));
                }
                let dt = self.parse_iri()?;
                Ok(Term::typed_literal(lexical, dt))
            }
            _ => Ok(Term::literal(lexical)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_triple() {
        let doc = "<http://e.org/s> <http://e.org/p> <http://e.org/o> .\n";
        let ts = parse_document(doc).unwrap();
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].subject, Term::iri("http://e.org/s"));
        assert_eq!(ts[0].object, Term::iri("http://e.org/o"));
    }

    #[test]
    fn parses_literal_object_variants() {
        let doc = concat!(
            "<http://e/s> <http://e/p> \"plain\" .\n",
            "<http://e/s> <http://e/p> \"1940\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
            "<http://e/s> <http://e/p> \"hi\"@en .\n",
        );
        let ts = parse_document(doc).unwrap();
        assert_eq!(ts[0].object, Term::literal("plain"));
        assert_eq!(
            ts[1].object,
            Term::typed_literal("1940", "http://www.w3.org/2001/XMLSchema#integer")
        );
        assert_eq!(ts[2].object, Term::lang_literal("hi", "en"));
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let doc = "# a comment\n\n<http://e/s> <http://e/p> \"x\" . # trailing\n";
        let ts = parse_document(doc).unwrap();
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn escapes_roundtrip() {
        let original = Triple::new(
            Term::iri("http://e/s"),
            Term::iri("http://e/p"),
            Term::literal("line1\nline2\t\"quoted\" back\\slash"),
        );
        let doc = serialize(std::slice::from_ref(&original));
        let parsed = parse_document(&doc).unwrap();
        assert_eq!(parsed, vec![original]);
    }

    #[test]
    fn error_reports_line_number() {
        let doc = "<http://e/s> <http://e/p> \"x\" .\nnot a triple\n";
        let err = parse_document(doc).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn rejects_literal_subject() {
        let err = parse_document("\"lit\" <http://e/p> <http://e/o> .\n").unwrap_err();
        assert!(err.message.contains("start of term") || err.message.contains("subject"));
    }

    #[test]
    fn rejects_literal_predicate() {
        let err = parse_document("<http://e/s> \"lit\" <http://e/o> .\n").unwrap_err();
        assert!(err.message.contains("predicate") || err.message.contains("term"));
    }

    #[test]
    fn rejects_missing_dot() {
        let err = parse_document("<http://e/s> <http://e/p> <http://e/o>\n").unwrap_err();
        assert!(err.message.contains("terminating"));
    }

    #[test]
    fn rejects_unterminated_iri_and_literal() {
        assert!(parse_document("<http://e/s <http://e/p> <http://e/o> .").is_err());
        assert!(parse_document("<http://e/s> <http://e/p> \"oops .").is_err());
    }

    #[test]
    fn rejects_blank_nodes() {
        let err = parse_document("_:b0 <http://e/p> <http://e/o> .").unwrap_err();
        assert!(err.message.contains("blank nodes"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let err = parse_document("<http://e/s> <http://e/p> <http://e/o> . extra").unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    #[test]
    fn serialize_many_lines() {
        let t1 = Triple::new(
            Term::iri("http://e/a"),
            Term::iri("http://e/p"),
            Term::literal("1"),
        );
        let t2 = Triple::new(
            Term::iri("http://e/b"),
            Term::iri("http://e/p"),
            Term::literal("2"),
        );
        let doc = serialize(&[t1.clone(), t2.clone()]);
        assert_eq!(doc.lines().count(), 2);
        assert_eq!(parse_document(&doc).unwrap(), vec![t1, t2]);
    }
}
