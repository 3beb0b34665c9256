//! RDF terms: IRIs and literals.
//!
//! String payloads are reference-counted (`Arc<str>`): a [`Term`] clone is
//! one to three counter bumps and never copies text, so the dictionary's
//! two directions, decoded result rows, and cached responses all share one
//! allocation per distinct string.

use std::fmt;
use std::sync::Arc;

/// The coarse kind of a [`Term`], used by heuristic H4 ("a literal object is
/// more selective than a URI object").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TermKind {
    /// A URI/IRI reference.
    Iri,
    /// A (possibly typed or language-tagged) literal.
    Literal,
}

/// An RDF term: an IRI or a literal.
///
/// Blank nodes are deliberately absent: the paper's Definition 1 restricts
/// triples to `U × U × (U ∪ L)`, and both benchmark datasets are
/// skolemised. Literals carry an optional datatype IRI *or* language tag
/// (mutually exclusive per RDF 1.1).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// An IRI such as `http://example.org/Journal1`.
    Iri(Arc<str>),
    /// A plain, typed, or language-tagged literal.
    Literal {
        /// The lexical form, without surrounding quotes.
        lexical: Arc<str>,
        /// Datatype IRI, e.g. `http://www.w3.org/2001/XMLSchema#integer`.
        datatype: Option<Arc<str>>,
        /// BCP-47 language tag, e.g. `en`.
        language: Option<Arc<str>>,
    },
}

impl Term {
    /// Construct an IRI term.
    pub fn iri(value: impl Into<Arc<str>>) -> Self {
        Term::Iri(value.into())
    }

    /// Construct a plain (untyped, untagged) literal.
    pub fn literal(lexical: impl Into<Arc<str>>) -> Self {
        Term::Literal {
            lexical: lexical.into(),
            datatype: None,
            language: None,
        }
    }

    /// Construct a literal with a datatype IRI.
    pub fn typed_literal(lexical: impl Into<Arc<str>>, datatype: impl Into<Arc<str>>) -> Self {
        Term::Literal {
            lexical: lexical.into(),
            datatype: Some(datatype.into()),
            language: None,
        }
    }

    /// Construct a language-tagged literal.
    pub fn lang_literal(lexical: impl Into<Arc<str>>, language: impl Into<Arc<str>>) -> Self {
        Term::Literal {
            lexical: lexical.into(),
            datatype: None,
            language: Some(language.into()),
        }
    }

    /// The kind of this term (IRI vs literal), as consumed by heuristic H4.
    pub fn kind(&self) -> TermKind {
        match self {
            Term::Iri(_) => TermKind::Iri,
            Term::Literal { .. } => TermKind::Literal,
        }
    }

    /// `true` if this term is an IRI.
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// `true` if this term is a literal.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal { .. })
    }

    /// The IRI value, if this term is an IRI.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(v) => Some(v),
            Term::Literal { .. } => None,
        }
    }

    /// The lexical form: the IRI string or the literal's lexical value.
    pub fn lexical(&self) -> &str {
        match self {
            Term::Iri(v) => v,
            Term::Literal { lexical, .. } => lexical,
        }
    }

    /// `true` if this term is the `rdf:type` IRI (the H1 exception).
    pub fn is_rdf_type(&self) -> bool {
        self.as_iri() == Some(crate::vocab::RDF_TYPE)
    }
}

impl fmt::Display for Term {
    /// Renders the term in N-Triples surface syntax.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(v) => write!(f, "<{v}>"),
            Term::Literal {
                lexical,
                datatype,
                language,
            } => {
                f.write_str("\"")?;
                write_escaped_literal(f, lexical)?;
                f.write_str("\"")?;
                if let Some(lang) = language {
                    write!(f, "@{lang}")?;
                } else if let Some(dt) = datatype {
                    write!(f, "^^<{dt}>")?;
                }
                Ok(())
            }
        }
    }
}

/// Write a literal's lexical form escaped for N-Triples output, copying
/// the runs between escapes whole (every escaped character is ASCII, so
/// byte offsets are character boundaries).
fn write_escaped_literal(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            _ => continue,
        };
        f.write_str(&s[start..i])?;
        f.write_str(escape)?;
        start = i + 1;
    }
    f.write_str(&s[start..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iri_roundtrip_display() {
        let t = Term::iri("http://example.org/a");
        assert_eq!(t.to_string(), "<http://example.org/a>");
        assert!(t.is_iri());
        assert_eq!(t.kind(), TermKind::Iri);
        assert_eq!(t.as_iri(), Some("http://example.org/a"));
    }

    #[test]
    fn plain_literal_display() {
        let t = Term::literal("Journal 1 (1940)");
        assert_eq!(t.to_string(), "\"Journal 1 (1940)\"");
        assert!(t.is_literal());
        assert_eq!(t.kind(), TermKind::Literal);
    }

    #[test]
    fn typed_literal_display() {
        let t = Term::typed_literal("1940", "http://www.w3.org/2001/XMLSchema#integer");
        assert_eq!(
            t.to_string(),
            "\"1940\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
    }

    #[test]
    fn lang_literal_display() {
        let t = Term::lang_literal("hello", "en");
        assert_eq!(t.to_string(), "\"hello\"@en");
    }

    #[test]
    fn literal_escaping() {
        let t = Term::literal("a\"b\\c\nd");
        assert_eq!(t.to_string(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn rdf_type_detection() {
        assert!(Term::iri(crate::vocab::RDF_TYPE).is_rdf_type());
        assert!(!Term::iri("http://example.org/type").is_rdf_type());
        assert!(!Term::literal(crate::vocab::RDF_TYPE).is_rdf_type());
    }

    #[test]
    fn lexical_of_both_kinds() {
        assert_eq!(Term::iri("http://e.org/x").lexical(), "http://e.org/x");
        assert_eq!(Term::literal("x").lexical(), "x");
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            Term::literal("b"),
            Term::iri("http://a"),
            Term::literal("a"),
            Term::iri("http://b"),
        ];
        v.sort();
        // IRIs sort before literals because of enum variant order; stable and total.
        assert_eq!(v[0], Term::iri("http://a"));
        assert_eq!(v[1], Term::iri("http://b"));
    }
}
