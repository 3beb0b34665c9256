//! Tokeniser for the SPARQL subset.
//!
//! Tokens borrow their text from the input: lexing allocates the token
//! vector and nothing else, except the unescaped form of a literal that
//! contains escapes.

use std::borrow::Cow;
use std::fmt;

/// A lexical token: its kind and payload, the exact source text it was
/// read from, and its byte offset for diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'a> {
    /// The token payload.
    pub kind: TokenKind<'a>,
    /// The token's text in the input, exactly as written.
    pub text: &'a str,
    /// Byte offset of the token start in the input.
    pub offset: usize,
}

/// The kinds of token the parser consumes.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind<'a> {
    /// A keyword such as `SELECT` (case-insensitive, stored uppercased).
    Keyword(&'static str),
    /// `?name` or `$name`.
    Var(&'a str),
    /// `<iri>`.
    Iri(&'a str),
    /// `prefix:local` — kept unresolved until parsing.
    Prefixed(&'a str, &'a str),
    /// `"lexical"` with optional `@lang` or `^^<datatype>`.
    Literal {
        /// Unescaped lexical form.
        lexical: Cow<'a, str>,
        /// Language tag, if present.
        language: Option<&'a str>,
        /// Datatype IRI, if present.
        datatype: Option<&'a str>,
    },
    /// Bare integer/decimal, e.g. `1942` (sugar for an `xsd` typed literal).
    Number(&'a str),
    /// `a` — sugar for `rdf:type`.
    A,
    /// Punctuation and operators: `{ } ( ) . ; , * = != < <= > >= && ||`.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Keyword(k) => write!(f, "keyword `{k}`"),
            TokenKind::Var(v) => write!(f, "variable `?{v}`"),
            TokenKind::Iri(i) => write!(f, "IRI <{i}>"),
            TokenKind::Prefixed(p, l) => write!(f, "prefixed name `{p}:{l}`"),
            TokenKind::Literal { lexical, .. } => write!(f, "literal \"{lexical}\""),
            TokenKind::Number(n) => write!(f, "number `{n}`"),
            TokenKind::A => write!(f, "`a`"),
            TokenKind::Punct(p) => write!(f, "`{p}`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// A tokenisation error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Byte offset of the error.
    pub offset: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for LexError {}

const KEYWORDS: &[&str] = &[
    // Query form.
    "SELECT",
    "DISTINCT",
    "REDUCED",
    "WHERE",
    "FILTER",
    "PREFIX",
    "OPTIONAL",
    "UNION",
    "ASK",
    // Solution modifiers.
    "ORDER",
    "BY",
    "ASC",
    "DESC",
    "LIMIT",
    "OFFSET",
    // Aggregation.
    "GROUP",
    "HAVING",
    "AS",
    "COUNT",
    "SUM",
    "MIN",
    "MAX",
    "AVG",
    // Updates.
    "INSERT",
    "DELETE",
    "DATA",
    // Boolean literals.
    "TRUE",
    "FALSE",
    // Built-in functions (expression grammar).
    "BOUND",
    "STR",
    "LANG",
    "DATATYPE",
    "ISIRI",
    "ISURI",
    "ISLITERAL",
    "ISBLANK",
    "ISNUMERIC",
    "SAMETERM",
    "LANGMATCHES",
    "REGEX",
    "STRSTARTS",
    "STRENDS",
    "CONTAINS",
    "STRLEN",
    "UCASE",
    "LCASE",
    "ABS",
    "CEIL",
    "FLOOR",
    "ROUND",
];

/// Tokenise a query string. The returned vector always ends with
/// [`TokenKind::Eof`].
pub fn tokenize<'a>(input: &'a str) -> Result<Vec<Token<'a>>, LexError> {
    let bytes = input.as_bytes();
    // About one token per eight bytes of a typical query; capped, as an
    // update can carry megabytes of data.
    let mut tokens = Vec::with_capacity((input.len() / 8 + 2).min(256));
    let mut push = |kind: TokenKind<'a>, start: usize, end: usize| {
        tokens.push(Token {
            kind,
            text: &input[start..end],
            offset: start,
        })
    };
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '{' | '}' | '(' | ')' | '.' | ';' | ',' | '*' | '+' | '-' | '/' | '=' => {
                let p: &'static str = match c {
                    '{' => "{",
                    '}' => "}",
                    '(' => "(",
                    ')' => ")",
                    '.' => ".",
                    ';' => ";",
                    ',' => ",",
                    '*' => "*",
                    '+' => "+",
                    '-' => "-",
                    '=' => "=",
                    _ => "/",
                };
                push(TokenKind::Punct(p), i, i + 1);
                i += 1;
            }
            '!' => {
                let p = if bytes.get(i + 1) == Some(&b'=') {
                    "!="
                } else {
                    "!"
                };
                push(TokenKind::Punct(p), i, i + p.len());
                i += p.len();
            }
            '<' => {
                // Either an IRI or the `<`/`<=` operator; IRIs never contain
                // whitespace, so look ahead for a closing '>' before any space.
                if let Some(end) = scan_iri_end(input, i) {
                    push(TokenKind::Iri(&input[i + 1..end]), i, end + 1);
                    i = end + 1;
                } else {
                    let p = if bytes.get(i + 1) == Some(&b'=') {
                        "<="
                    } else {
                        "<"
                    };
                    push(TokenKind::Punct(p), i, i + p.len());
                    i += p.len();
                }
            }
            '>' => {
                let p = if bytes.get(i + 1) == Some(&b'=') {
                    ">="
                } else {
                    ">"
                };
                push(TokenKind::Punct(p), i, i + p.len());
                i += p.len();
            }
            '&' | '|' => {
                let p = if c == '&' { "&&" } else { "||" };
                if bytes.get(i + 1) != Some(&bytes[i]) {
                    return Err(LexError {
                        offset: i,
                        message: format!("expected `{p}`"),
                    });
                }
                push(TokenKind::Punct(p), i, i + 2);
                i += 2;
            }
            '?' | '$' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && is_name_char(bytes[j] as char) {
                    j += 1;
                }
                if j == start {
                    return Err(LexError {
                        offset: i,
                        message: "empty variable name".into(),
                    });
                }
                push(TokenKind::Var(&input[start..j]), i, j);
                i = j;
            }
            '"' => {
                let (kind, next) = scan_literal(input, i)?;
                push(kind, i, next);
                i = next;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let mut j = i;
                while j < bytes.len() && ((bytes[j] as char).is_ascii_digit() || bytes[j] == b'.') {
                    // A '.' followed by non-digit terminates the number (it is
                    // the triple terminator).
                    if bytes[j] == b'.'
                        && !bytes
                            .get(j + 1)
                            .is_some_and(|b| (*b as char).is_ascii_digit())
                    {
                        break;
                    }
                    j += 1;
                }
                // Optional exponent (`1e3`, `2.5E-7`) makes it an xsd:double.
                if bytes.get(j).is_some_and(|b| *b == b'e' || *b == b'E') {
                    let mut k = j + 1;
                    if bytes.get(k).is_some_and(|b| *b == b'+' || *b == b'-') {
                        k += 1;
                    }
                    let exp_digits_start = k;
                    while k < bytes.len() && (bytes[k] as char).is_ascii_digit() {
                        k += 1;
                    }
                    if k > exp_digits_start {
                        j = k;
                    }
                }
                push(TokenKind::Number(&input[start..j]), start, j);
                i = j;
            }
            c if is_name_start(c) => {
                let start = i;
                let mut j = i;
                while j < bytes.len() && is_name_char(bytes[j] as char) {
                    j += 1;
                }
                let word = &input[start..j];
                // Prefixed name?
                if j < bytes.len() && bytes[j] == b':' {
                    let local_start = j + 1;
                    let mut k = local_start;
                    while k < bytes.len() && is_name_char(bytes[k] as char) {
                        k += 1;
                    }
                    push(TokenKind::Prefixed(word, &input[local_start..k]), start, k);
                    i = k;
                } else if word == "a" {
                    push(TokenKind::A, start, j);
                    i = j;
                } else if let Some(keyword) = KEYWORDS.iter().find(|k| k.eq_ignore_ascii_case(word))
                {
                    push(TokenKind::Keyword(keyword), start, j);
                    i = j;
                } else {
                    return Err(LexError {
                        offset: start,
                        message: format!("unexpected word `{word}`"),
                    });
                }
            }
            ':' => {
                // Default-prefix name `:local`.
                let local_start = i + 1;
                let mut k = local_start;
                while k < bytes.len() && is_name_char(bytes[k] as char) {
                    k += 1;
                }
                push(TokenKind::Prefixed("", &input[local_start..k]), i, k);
                i = k;
            }
            other => {
                return Err(LexError {
                    offset: i,
                    message: format!("unexpected character `{other}`"),
                });
            }
        }
    }
    push(TokenKind::Eof, input.len(), input.len());
    Ok(tokens)
}

fn is_name_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_name_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

/// If `input[start] == '<'` begins an IRI (closing `>` before whitespace),
/// return the byte offset of the closing `>`.
fn scan_iri_end(input: &str, start: usize) -> Option<usize> {
    let bytes = input.as_bytes();
    let mut j = start + 1;
    while j < bytes.len() {
        match bytes[j] {
            b'>' => return if j > start + 1 { Some(j) } else { None },
            b' ' | b'\t' | b'\n' | b'\r' => return None,
            _ => j += 1,
        }
    }
    None
}

/// Scan a quoted literal starting at `input[start] == '"'`; returns the token
/// and the offset just past it. The lexical form borrows the input unless
/// it contains escapes.
fn scan_literal(input: &str, start: usize) -> Result<(TokenKind<'_>, usize), LexError> {
    let bytes = input.as_bytes();
    let mut escaped: Option<String> = None;
    let mut run = start + 1; // start of the bytes not yet copied
    let mut j = start + 1;
    let lexical = loop {
        match bytes.get(j) {
            Some(b'"') => {
                let tail = &input[run..j];
                j += 1;
                break match escaped {
                    Some(mut text) => {
                        text.push_str(tail);
                        Cow::Owned(text)
                    }
                    None => Cow::Borrowed(tail),
                };
            }
            Some(b'\\') => {
                let esc = bytes.get(j + 1).ok_or_else(|| LexError {
                    offset: j,
                    message: "dangling escape".into(),
                })?;
                let unescaped = match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    other => {
                        return Err(LexError {
                            offset: j,
                            message: format!("unsupported escape `\\{}`", *other as char),
                        })
                    }
                };
                let text = escaped.get_or_insert_with(String::new);
                text.push_str(&input[run..j]);
                text.push(unescaped);
                j += 2;
                run = j;
            }
            // Quotes and backslashes are ASCII, so they never occur inside
            // a multi-byte character: stepping bytewise stays on boundaries
            // wherever it stops.
            Some(_) => j += 1,
            None => {
                return Err(LexError {
                    offset: start,
                    message: "unterminated literal".into(),
                })
            }
        }
    };
    // Optional @lang or ^^<datatype>.
    if bytes.get(j) == Some(&b'@') {
        let lang_start = j + 1;
        let mut k = lang_start;
        while k < bytes.len() && is_name_char(bytes[k] as char) {
            k += 1;
        }
        if k == lang_start {
            return Err(LexError {
                offset: j,
                message: "empty language tag".into(),
            });
        }
        return Ok((
            TokenKind::Literal {
                lexical,
                language: Some(&input[lang_start..k]),
                datatype: None,
            },
            k,
        ));
    }
    if bytes.get(j) == Some(&b'^') && bytes.get(j + 1) == Some(&b'^') {
        let iri_start = j + 2;
        if bytes.get(iri_start) != Some(&b'<') {
            return Err(LexError {
                offset: j,
                message: "expected `<` after `^^`".into(),
            });
        }
        let end = scan_iri_end(input, iri_start).ok_or_else(|| LexError {
            offset: iri_start,
            message: "unterminated datatype IRI".into(),
        })?;
        return Ok((
            TokenKind::Literal {
                lexical,
                language: None,
                datatype: Some(&input[iri_start + 1..end]),
            },
            end + 1,
        ));
    }
    Ok((
        TokenKind::Literal {
            lexical,
            language: None,
            datatype: None,
        },
        j,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind<'_>> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn tokenizes_basic_query_shape() {
        let ks = kinds("SELECT ?x WHERE { ?x a <http://e/C> . }");
        assert_eq!(ks[0], TokenKind::Keyword("SELECT"));
        assert_eq!(ks[1], TokenKind::Var("x"));
        assert_eq!(ks[2], TokenKind::Keyword("WHERE"));
        assert_eq!(ks[3], TokenKind::Punct("{"));
        assert_eq!(ks[4], TokenKind::Var("x"));
        assert_eq!(ks[5], TokenKind::A);
        assert_eq!(ks[6], TokenKind::Iri("http://e/C"));
        assert_eq!(ks[7], TokenKind::Punct("."));
        assert_eq!(ks[8], TokenKind::Punct("}"));
        assert_eq!(ks[9], TokenKind::Eof);
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(kinds("select")[0], TokenKind::Keyword("SELECT"));
        assert_eq!(kinds("FiLtEr")[0], TokenKind::Keyword("FILTER"));
    }

    #[test]
    fn prefixed_names() {
        let ks = kinds("rdf:type bench:Journal :local");
        assert_eq!(ks[0], TokenKind::Prefixed("rdf", "type"));
        assert_eq!(ks[1], TokenKind::Prefixed("bench", "Journal"));
        assert_eq!(ks[2], TokenKind::Prefixed("", "local"));
    }

    #[test]
    fn literal_variants() {
        let ks = kinds(r#""plain" "x"@en "5"^^<http://w3/int>"#);
        assert_eq!(
            ks[0],
            TokenKind::Literal {
                lexical: "plain".into(),
                language: None,
                datatype: None
            }
        );
        assert_eq!(
            ks[1],
            TokenKind::Literal {
                lexical: "x".into(),
                language: Some("en"),
                datatype: None
            }
        );
        assert_eq!(
            ks[2],
            TokenKind::Literal {
                lexical: "5".into(),
                language: None,
                datatype: Some("http://w3/int")
            }
        );
    }

    #[test]
    fn literal_escapes() {
        let ks = kinds(r#""a\"b\\c\nd""#);
        assert_eq!(
            ks[0],
            TokenKind::Literal {
                lexical: "a\"b\\c\nd".into(),
                language: None,
                datatype: None
            }
        );
    }

    #[test]
    fn tokens_carry_their_exact_source_text() {
        let input = "select ?x { ?x <http://e/p> \"é\\\"t\"@fr , 12.5 . }";
        let tokens = tokenize(input).unwrap();
        let texts: Vec<&str> = tokens.iter().map(|t| t.text).collect();
        assert_eq!(
            texts,
            [
                "select",
                "?x",
                "{",
                "?x",
                "<http://e/p>",
                "\"é\\\"t\"@fr",
                ",",
                "12.5",
                ".",
                "}",
                ""
            ]
        );
        assert!(tokens.iter().all(|t| input[t.offset..].starts_with(t.text)));
        assert_eq!(
            tokens[5].kind,
            TokenKind::Literal {
                lexical: "é\"t".into(),
                language: Some("fr"),
                datatype: None
            }
        );
    }

    #[test]
    fn comparison_operators_vs_iris() {
        let ks = kinds("?x < ?y FILTER(?a <= ?b) <http://e/i>");
        assert!(ks.contains(&TokenKind::Punct("<")));
        assert!(ks.contains(&TokenKind::Punct("<=")));
        assert!(ks.contains(&TokenKind::Iri("http://e/i")));
    }

    #[test]
    fn numbers_do_not_swallow_dot_terminator() {
        let ks = kinds("?x ?p 42 . ?y ?q 3.5 .");
        assert!(ks.contains(&TokenKind::Number("42")));
        assert!(ks.contains(&TokenKind::Number("3.5")));
        assert_eq!(
            ks.iter().filter(|k| **k == TokenKind::Punct(".")).count(),
            2
        );
    }

    #[test]
    fn comments_skipped() {
        let ks = kinds("SELECT # comment ?notatoken\n ?x");
        assert_eq!(ks.len(), 3); // SELECT, ?x, EOF
    }

    #[test]
    fn boolean_connectives() {
        let ks = kinds("&& || != >=");
        assert_eq!(
            ks[..4],
            [
                TokenKind::Punct("&&"),
                TokenKind::Punct("||"),
                TokenKind::Punct("!="),
                TokenKind::Punct(">=")
            ]
        );
    }

    #[test]
    fn error_on_unknown_character() {
        let err = tokenize("SELECT @").unwrap_err();
        assert_eq!(err.offset, 7);
    }

    #[test]
    fn error_on_unterminated_literal() {
        assert!(tokenize("\"abc").is_err());
    }

    #[test]
    fn error_on_bare_word() {
        assert!(tokenize("SELECT banana").is_err());
    }
}
