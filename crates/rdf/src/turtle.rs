//! A Turtle parser for the subset real benchmark distributions use.
//!
//! SP2Bench and YAGO ship their data in RDF/XML and N3/Turtle dialects;
//! the paper's authors wired the Redland Raptor parser into MonetDB to
//! load them. [`crate::ntriples`] stands in for the line-based core;
//! this module adds the Turtle conveniences that make hand-written and
//! tool-exported data files practical:
//!
//! * `@prefix` / `@base` declarations (and the SPARQL-style
//!   `PREFIX`/`BASE` spellings), with prefixed-name resolution
//! * `a` as sugar for `rdf:type`
//! * predicate lists (`;`) and object lists (`,`)
//! * numeric (`42`, `3.14`, `1e6`) and boolean (`true`/`false`) literal
//!   sugar, typed per the Turtle specification
//! * comments, multi-line statements, `# …` to end of line
//!
//! Out of scope (documented): blank-node syntax (`_:x`, `[ … ]`) and
//! collections `( … )` — the paper's Definition 1 data model is
//! `U × U × (U ∪ L)`, both benchmark datasets are skolemised, and the rest
//! of this workspace has no blank-node representation to target.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::term::Term;
use crate::triple::Triple;
use crate::vocab;

/// A Turtle parse error with 1-based line and byte-in-document offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TurtleError {
    /// 1-based line number of the error.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for TurtleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "turtle error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TurtleError {}

/// Parse a Turtle document into triples.
pub fn parse_turtle(input: &str) -> Result<Vec<Triple>, TurtleError> {
    Parser::new(input).parse()
}

struct Parser<'a> {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    prefixes: HashMap<String, String>,
    base: String,
    input: &'a str,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            chars: input.chars().collect(),
            pos: 0,
            line: 1,
            prefixes: HashMap::new(),
            base: String::new(),
            input,
        }
    }

    fn err(&self, message: impl Into<String>) -> TurtleError {
        TurtleError {
            line: self.line,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if let Some(c) = c {
            if c == '\n' {
                self.line += 1;
            }
            self.pos += 1;
        }
        c
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Skip whitespace and `# …` comments.
    fn skip_ws(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('#') => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn parse(&mut self) -> Result<Vec<Triple>, TurtleError> {
        let mut triples = Vec::new();
        loop {
            self.skip_ws();
            if self.peek().is_none() {
                break;
            }
            if self.at_directive("@prefix") || self.at_keyword_ci("PREFIX") {
                self.parse_prefix()?;
                continue;
            }
            if self.at_directive("@base") || self.at_keyword_ci("BASE") {
                self.parse_base()?;
                continue;
            }
            self.parse_statement(&mut triples)?;
        }
        Ok(triples)
    }

    /// `true` if the input continues with the exact directive word.
    fn at_directive(&self, word: &str) -> bool {
        self.chars[self.pos..]
            .iter()
            .zip(word.chars())
            .filter(|(a, b)| **a == *b)
            .count()
            == word.len()
    }

    /// `true` if the input continues with `word` case-insensitively,
    /// followed by whitespace (to avoid eating a prefixed name).
    fn at_keyword_ci(&self, word: &str) -> bool {
        if self.pos + word.len() > self.chars.len() {
            return false;
        }
        let matches = self.chars[self.pos..self.pos + word.len()]
            .iter()
            .zip(word.chars())
            .all(|(a, b)| a.eq_ignore_ascii_case(&b));
        matches
            && self
                .chars
                .get(self.pos + word.len())
                .is_some_and(|c| c.is_whitespace())
    }

    fn skip_word(&mut self, len: usize) {
        for _ in 0..len {
            self.bump();
        }
    }

    /// `@prefix name: <iri> .` or `PREFIX name: <iri>`
    fn parse_prefix(&mut self) -> Result<(), TurtleError> {
        let sparql_style = self.at_keyword_ci("PREFIX");
        self.skip_word(if sparql_style { 6 } else { 7 });
        self.skip_ws();
        // Prefix name up to ':' (may be empty for the default prefix).
        let mut name = String::new();
        while let Some(c) = self.peek() {
            if c == ':' {
                break;
            }
            if c.is_whitespace() {
                return Err(self.err("expected `:` in prefix declaration"));
            }
            name.push(c);
            self.bump();
        }
        if !self.eat(':') {
            return Err(self.err("expected `:` in prefix declaration"));
        }
        self.skip_ws();
        let iri = self.parse_iri_ref()?;
        self.skip_ws();
        if !sparql_style && !self.eat('.') {
            return Err(self.err("expected `.` after @prefix declaration"));
        }
        self.prefixes.insert(name, iri);
        Ok(())
    }

    /// `@base <iri> .` or `BASE <iri>`
    fn parse_base(&mut self) -> Result<(), TurtleError> {
        let sparql_style = self.at_keyword_ci("BASE");
        self.skip_word(if sparql_style { 4 } else { 5 });
        self.skip_ws();
        self.base = self.parse_iri_ref()?;
        self.skip_ws();
        if !sparql_style && !self.eat('.') {
            return Err(self.err("expected `.` after @base declaration"));
        }
        Ok(())
    }

    /// `subject predicate object (',' object)* (';' predicate …)* '.'`
    fn parse_statement(&mut self, out: &mut Vec<Triple>) -> Result<(), TurtleError> {
        let subject = self.parse_term(false)?;
        loop {
            self.skip_ws();
            let predicate = self.parse_verb()?;
            loop {
                self.skip_ws();
                let object = self.parse_term(true)?;
                out.push(Triple {
                    subject: subject.clone(),
                    predicate: predicate.clone(),
                    object,
                });
                self.skip_ws();
                if !self.eat(',') {
                    break;
                }
            }
            if self.eat(';') {
                self.skip_ws();
                // Dangling `;` before `.` is legal Turtle.
                if self.peek() == Some('.') {
                    break;
                }
                continue;
            }
            break;
        }
        self.skip_ws();
        if !self.eat('.') {
            return Err(self.err("expected `.` at end of statement"));
        }
        Ok(())
    }

    fn parse_verb(&mut self) -> Result<Term, TurtleError> {
        // `a` (followed by whitespace) is rdf:type.
        if self.peek() == Some('a')
            && self
                .chars
                .get(self.pos + 1)
                .is_some_and(|c| c.is_whitespace())
        {
            self.bump();
            return Ok(Term::iri(vocab::RDF_TYPE));
        }
        self.parse_term(false)
    }

    /// A subject/predicate/object term. `allow_literal` gates literal
    /// positions (objects only, per Definition 1).
    fn parse_term(&mut self, allow_literal: bool) -> Result<Term, TurtleError> {
        self.skip_ws();
        match self.peek() {
            Some('<') => Ok(Term::iri(self.parse_iri_ref()?)),
            Some('"') if allow_literal => self.parse_literal(),
            Some('\'') if allow_literal => self.parse_literal(),
            Some(c) if allow_literal && (c.is_ascii_digit() || c == '+' || c == '-') => {
                self.parse_numeric()
            }
            Some('t' | 'f') if allow_literal && self.at_boolean() => {
                let value = self.peek() == Some('t');
                self.skip_word(if value { 4 } else { 5 });
                Ok(Term::typed_literal(value.to_string(), vocab::XSD_BOOLEAN))
            }
            Some('_') => Err(self.err(
                "blank nodes are outside this store's data model (Definition 1); \
                 skolemise them first",
            )),
            Some('[') => Err(self.err("anonymous blank nodes are not supported")),
            Some('(') => Err(self.err("collections are not supported")),
            Some(_) => self.parse_prefixed_name(),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn at_boolean(&self) -> bool {
        for word in ["true", "false"] {
            if self.at_directive(word) {
                let after = self.chars.get(self.pos + word.len());
                if after.is_none_or(|c| c.is_whitespace() || matches!(c, '.' | ';' | ',')) {
                    return true;
                }
            }
        }
        false
    }

    /// `<…>` with `\u`/`\U` escapes; resolved against `@base` when relative.
    fn parse_iri_ref(&mut self) -> Result<String, TurtleError> {
        if !self.eat('<') {
            return Err(self.err("expected `<`"));
        }
        let mut iri = String::new();
        loop {
            match self.bump() {
                Some('>') => break,
                Some('\\') => match self.bump() {
                    Some('u') => iri.push(self.parse_unicode_escape(4)?),
                    Some('U') => iri.push(self.parse_unicode_escape(8)?),
                    other => return Err(self.err(format!("invalid IRI escape `\\{:?}`", other))),
                },
                Some(c) if c.is_whitespace() => {
                    return Err(self.err("whitespace inside IRI reference"))
                }
                Some(c) => iri.push(c),
                None => return Err(self.err("unterminated IRI reference")),
            }
        }
        // Minimal base resolution: absolute IRIs (with a scheme) pass
        // through; anything else is concatenated onto @base.
        if !self.base.is_empty() && !iri.contains("://") && !iri.starts_with("urn:") {
            Ok(format!("{}{}", self.base, iri))
        } else {
            Ok(iri)
        }
    }

    fn parse_unicode_escape(&mut self, digits: usize) -> Result<char, TurtleError> {
        let mut value = 0u32;
        for _ in 0..digits {
            let c = self
                .bump()
                .ok_or_else(|| self.err("truncated unicode escape"))?;
            value = value * 16
                + c.to_digit(16)
                    .ok_or_else(|| self.err("invalid unicode escape digit"))?;
        }
        char::from_u32(value).ok_or_else(|| self.err("invalid unicode code point"))
    }

    /// `"…"`, `'…'`, `"""…"""`, `'''…'''` with escapes, then optional
    /// `@lang` or `^^datatype`.
    fn parse_literal(&mut self) -> Result<Term, TurtleError> {
        let quote = self.bump().expect("caller checked");
        let long = self.peek() == Some(quote) && self.chars.get(self.pos + 1) == Some(&quote);
        if long {
            self.bump();
            self.bump();
        }
        let mut lexical = String::new();
        loop {
            match self.bump() {
                Some(c) if c == quote => {
                    if !long {
                        break;
                    }
                    // Long-string closing rule: a run of n ≥ 3 quotes closes
                    // with its *last* three; the first n−3 are content
                    // (`""""` = one quote of content, then the closer).
                    if self.peek() == Some(quote) && self.chars.get(self.pos + 1) == Some(&quote) {
                        if self.chars.get(self.pos + 2) == Some(&quote) {
                            lexical.push(c);
                            continue;
                        }
                        self.bump();
                        self.bump();
                        break;
                    }
                    lexical.push(c);
                }
                Some('\\') => match self.bump() {
                    Some('t') => lexical.push('\t'),
                    Some('n') => lexical.push('\n'),
                    Some('r') => lexical.push('\r'),
                    Some('"') => lexical.push('"'),
                    Some('\'') => lexical.push('\''),
                    Some('\\') => lexical.push('\\'),
                    Some('u') => lexical.push(self.parse_unicode_escape(4)?),
                    Some('U') => lexical.push(self.parse_unicode_escape(8)?),
                    other => return Err(self.err(format!("invalid string escape `\\{:?}`", other))),
                },
                Some(c) => {
                    if c == '\n' && !long {
                        return Err(self.err("newline in single-line string"));
                    }
                    lexical.push(c);
                }
                None => return Err(self.err("unterminated string literal")),
            }
        }
        // `@lang` or `^^<dt>` / `^^prefix:local`.
        if self.eat('@') {
            let mut lang = String::new();
            while let Some(c) = self.peek() {
                if c.is_ascii_alphanumeric() || c == '-' {
                    lang.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            if lang.is_empty() {
                return Err(self.err("empty language tag"));
            }
            return Ok(Term::lang_literal(lexical, lang));
        }
        if self.peek() == Some('^') {
            self.bump();
            if !self.eat('^') {
                return Err(self.err("expected `^^`"));
            }
            let dt: Arc<str> = match self.peek() {
                Some('<') => self.parse_iri_ref()?.into(),
                _ => match self.parse_prefixed_name()? {
                    Term::Iri(iri) => iri,
                    _ => unreachable!("prefixed names resolve to IRIs"),
                },
            };
            return Ok(Term::typed_literal(lexical, dt));
        }
        Ok(Term::literal(lexical))
    }

    /// Turtle numeric sugar: integer → `xsd:integer`, with `.` →
    /// `xsd:decimal`, with exponent → `xsd:double`.
    fn parse_numeric(&mut self) -> Result<Term, TurtleError> {
        let mut text = String::new();
        if matches!(self.peek(), Some('+' | '-')) {
            text.push(self.bump().expect("peeked"));
        }
        let mut has_dot = false;
        let mut has_exp = false;
        while let Some(c) = self.peek() {
            match c {
                '0'..='9' => {
                    text.push(c);
                    self.bump();
                }
                '.' => {
                    // A '.' not followed by a digit terminates the statement.
                    if has_dot
                        || !self
                            .chars
                            .get(self.pos + 1)
                            .is_some_and(|d| d.is_ascii_digit())
                    {
                        break;
                    }
                    has_dot = true;
                    text.push(c);
                    self.bump();
                }
                'e' | 'E' if !has_exp => {
                    has_exp = true;
                    text.push(c);
                    self.bump();
                    if matches!(self.peek(), Some('+' | '-')) {
                        text.push(self.bump().expect("peeked"));
                    }
                }
                _ => break,
            }
        }
        if text.is_empty() || text == "+" || text == "-" {
            return Err(self.err("malformed numeric literal"));
        }
        let dt = if has_exp {
            vocab::XSD_DOUBLE
        } else if has_dot {
            vocab::XSD_DECIMAL
        } else {
            vocab::XSD_INTEGER
        };
        Ok(Term::typed_literal(text, dt))
    }

    /// `prefix:local` (or `:local`), resolved against the declared
    /// prefixes.
    fn parse_prefixed_name(&mut self) -> Result<Term, TurtleError> {
        let mut prefix = String::new();
        while let Some(c) = self.peek() {
            if c == ':' {
                break;
            }
            if c.is_whitespace() || matches!(c, '.' | ';' | ',' | '<' | '"') {
                return Err(self.err(format!(
                    "expected a term, found `{}`",
                    &self.input[..0] // placeholder; detail below
                )));
            }
            prefix.push(c);
            self.bump();
        }
        if !self.eat(':') {
            return Err(self.err(format!("`{prefix}` is not a valid term")));
        }
        let mut local = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || matches!(c, '_' | '-' | '.') {
                // A trailing '.' is the statement terminator, not part of
                // the local name (Turtle's PN_LOCAL rule).
                if c == '.'
                    && !self
                        .chars
                        .get(self.pos + 1)
                        .is_some_and(|d| d.is_alphanumeric() || matches!(d, '_' | '-'))
                {
                    break;
                }
                local.push(c);
                self.bump();
            } else {
                break;
            }
        }
        let base = self
            .prefixes
            .get(&prefix)
            .ok_or_else(|| self.err(format!("undeclared prefix `{prefix}:`")))?;
        Ok(Term::iri(format!("{base}{local}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(input: &str) -> Triple {
        let ts = parse_turtle(input).unwrap();
        assert_eq!(ts.len(), 1, "{ts:?}");
        ts.into_iter().next().expect("one triple")
    }

    #[test]
    fn basic_statement() {
        let t = one("<http://e/s> <http://e/p> <http://e/o> .");
        assert_eq!(t.subject, Term::iri("http://e/s"));
        assert_eq!(t.predicate, Term::iri("http://e/p"));
        assert_eq!(t.object, Term::iri("http://e/o"));
    }

    #[test]
    fn prefixes_and_a() {
        let ts = parse_turtle(
            "@prefix e: <http://e/> .\n\
             @prefix : <http://default/> .\n\
             e:s a :Journal .",
        )
        .unwrap();
        assert_eq!(ts[0].subject, Term::iri("http://e/s"));
        assert_eq!(ts[0].predicate, Term::iri(vocab::RDF_TYPE));
        assert_eq!(ts[0].object, Term::iri("http://default/Journal"));
    }

    #[test]
    fn sparql_style_prefix_and_base() {
        let ts = parse_turtle(
            "PREFIX e: <http://e/>\n\
             BASE <http://base/>\n\
             e:s e:p <rel> .",
        )
        .unwrap();
        assert_eq!(ts[0].object, Term::iri("http://base/rel"));
    }

    #[test]
    fn predicate_and_object_lists() {
        let ts = parse_turtle(
            "@prefix e: <http://e/> .\n\
             e:s e:p e:o1 , e:o2 ;\n\
                 e:q e:o3 ;\n\
             .",
        )
        .unwrap();
        assert_eq!(ts.len(), 3);
        assert!(ts.iter().all(|t| t.subject == Term::iri("http://e/s")));
        assert_eq!(ts[1].object, Term::iri("http://e/o2"));
        assert_eq!(ts[2].predicate, Term::iri("http://e/q"));
    }

    #[test]
    fn literal_forms() {
        let t = one(r#"<http://e/s> <http://e/p> "plain" ."#);
        assert_eq!(t.object, Term::literal("plain"));
        let t = one(r#"<http://e/s> <http://e/p> "chat"@en-GB ."#);
        assert_eq!(t.object, Term::lang_literal("chat", "en-GB"));
        let t =
            one(r#"<http://e/s> <http://e/p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> ."#);
        assert_eq!(t.object, Term::typed_literal("5", vocab::XSD_INTEGER));
        let t = one("@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n\
             <http://e/s> <http://e/p> \"5\"^^xsd:integer .");
        assert_eq!(t.object, Term::typed_literal("5", vocab::XSD_INTEGER));
    }

    #[test]
    fn numeric_and_boolean_sugar() {
        let t = one("<http://e/s> <http://e/p> 42 .");
        assert_eq!(t.object, Term::typed_literal("42", vocab::XSD_INTEGER));
        let t = one("<http://e/s> <http://e/p> -3.14 .");
        assert_eq!(t.object, Term::typed_literal("-3.14", vocab::XSD_DECIMAL));
        let t = one("<http://e/s> <http://e/p> 1.5e3 .");
        assert_eq!(t.object, Term::typed_literal("1.5e3", vocab::XSD_DOUBLE));
        let t = one("<http://e/s> <http://e/p> true .");
        assert_eq!(t.object, Term::typed_literal("true", vocab::XSD_BOOLEAN));
    }

    #[test]
    fn long_strings_and_escapes() {
        let t = one("<http://e/s> <http://e/p> \"\"\"multi\nline \"quoted\"\"\"\" .");
        assert_eq!(t.object, Term::literal("multi\nline \"quoted\""));
        let t = one(r#"<http://e/s> <http://e/p> "tab\thereA" ."#);
        assert_eq!(t.object, Term::literal("tab\there\u{41}"));
        let t = one("<http://e/s> <http://e/p> 'single' .");
        assert_eq!(t.object, Term::literal("single"));
    }

    #[test]
    fn comments_and_whitespace() {
        let ts = parse_turtle(
            "# a header comment\n\
             <http://e/s> # subject\n\
               <http://e/p> <http://e/o> . # done\n",
        )
        .unwrap();
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn local_names_with_dots() {
        // `e:v1.2` keeps the interior dot; the final dot ends the statement.
        let ts = parse_turtle("@prefix e: <http://e/> .\ne:v1.2 e:p e:o .").unwrap();
        assert_eq!(ts[0].subject, Term::iri("http://e/v1.2"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_turtle("<http://e/s> <http://e/p>\n<http://e/o>").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("expected `.`"));
        let err = parse_turtle("e:s e:p e:o .").unwrap_err();
        assert!(err.message.contains("undeclared prefix"));
        let err = parse_turtle("<http://e/s> <http://e/p> _:b .").unwrap_err();
        assert!(err.message.contains("blank nodes"));
    }

    #[test]
    fn ntriples_documents_are_valid_turtle() {
        // N-Triples ⊂ Turtle: the store's serialised output loads back.
        let doc = "<http://e/s> <http://e/p> \"a \\\"b\\\"\" .\n\
                   <http://e/s> <http://e/q> \"x\"@en .\n";
        let via_nt = crate::ntriples::parse_document(doc).unwrap();
        let via_ttl = parse_turtle(doc).unwrap();
        assert_eq!(via_nt, via_ttl);
    }

    #[test]
    fn literals_rejected_outside_object_position() {
        assert!(parse_turtle("\"lit\" <http://e/p> <http://e/o> .").is_err());
        assert!(parse_turtle("<http://e/s> \"lit\" <http://e/o> .").is_err());
    }
}
