//! Token-shape templates: the plan cache's one-lexer-pass alias of a
//! canonical shape.
//!
//! [`canonicalize`](crate::canonicalize) stays the only definition of when
//! two queries share a plan, but it needs a parse, a lowering and a
//! Weisfeiler–Leman refinement. A templated workload sends one text over
//! and over with only its constants changed, and for such a text one lexer
//! pass decides the same thing:
//!
//! * [`skeleton`] renders the tokens with every constant token replaced by
//!   a marker of its lexical kind: the lookup key.
//! * A [`Template`] is made from a text that *was* parsed and
//!   canonicalised. It records the exact text of the constant tokens the key
//!   keeps (predicates, `PREFIX` IRIs, `LIMIT` / `OFFSET` counts), which
//!   token fills which canonical parameter — as the parser reported it,
//!   never by matching values — and what the parameters' guards compare
//!   against.
//! * [`Template::params`] checks a text with the same skeleton against all
//!   of that and returns its canonical parameters, position for position.
//!
//! Why that is enough: the parser branches on token kinds, keywords,
//! punctuation and the tokens the template keeps, never on the value of a
//! constant it hoists, so two texts with equal skeletons and equal kept
//! tokens parse to ASTs that differ only in their hoisted constants. The
//! canonical key reads those only through their kinds (fixed by the
//! skeleton), which of them are equal (checked) and the guards (re-run).

use std::collections::HashMap;

use hsp_rdf::Term;

use crate::algebra::JoinQuery;
use crate::ast::Query;
use crate::canon::{cacheable_param, CanonicalQuery};
use crate::lexer::{Token, TokenKind};
use crate::parser::token_term;

/// The lookup key of a lexed text: every token in order, each constant
/// token (IRI, prefixed name, literal, number) replaced by a marker of its
/// lexical kind. It starts with `T:`, so it never equals a canonical key
/// (those start with `P:`).
pub fn skeleton(tokens: &[Token]) -> String {
    let mut out = String::with_capacity(2 + 8 * tokens.len());
    out.push_str("T:");
    for token in tokens {
        // No rendering contains a space, so the separator keeps the
        // sequence unambiguous.
        out.push(' ');
        match &token.kind {
            TokenKind::Keyword(k) => out.push_str(k),
            TokenKind::Var(v) => {
                out.push('?');
                out.push_str(v);
            }
            TokenKind::Iri(_) => out.push_str("<>"),
            TokenKind::Prefixed(..) => out.push(':'),
            TokenKind::Literal { .. } => out.push_str("\"\""),
            TokenKind::Number(_) => out.push('0'),
            TokenKind::A => out.push('a'),
            TokenKind::Punct(p) => out.push_str(p),
            TokenKind::Eof => {}
        }
    }
    out
}

/// What a text with the same [`skeleton`] must share with the text this
/// template was made from to have the same canonical key — and how its
/// constant tokens become that key's parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    /// Every constant token the canonicaliser does not hoist, by index,
    /// with the exact text a match must repeat.
    kept: Vec<(usize, String)>,
    /// `(token index, canonical parameter)` of every hoisted token. Tokens
    /// sharing a parameter held equal constants.
    slots: Vec<(usize, usize)>,
    /// Number of canonical parameters.
    params: usize,
    /// The `PREFIX` declarations, which are kept tokens.
    prefixes: HashMap<String, String>,
    /// The predicate constants: the canonicaliser's kept terms.
    predicates: Vec<Term>,
}

impl Template {
    /// The template of a text whose tokens parsed (see
    /// [`parse_tokens`](crate::parser::parse_tokens), which reports the
    /// `hoisted` token indices) to `ast`, lowered to `query` and
    /// canonicalised to `canon`. `None` when some canonical parameter has
    /// no hoisted token to come from.
    pub fn new(
        tokens: &[Token],
        hoisted: &[usize],
        ast: &Query,
        query: &JoinQuery,
        canon: &CanonicalQuery,
    ) -> Option<Template> {
        let prefixes: HashMap<String, String> = ast.prefixes.iter().cloned().collect();
        // The parser named the hoisted tokens; canonical parameters are
        // deduplicated by value, so among *those* tokens a value names its
        // parameter.
        let slots = hoisted
            .iter()
            .map(|&at| {
                let term = token_term(&tokens.get(at)?.kind, &prefixes).ok()?;
                Some((at, canon.params.iter().position(|p| *p == term)?))
            })
            .collect::<Option<Vec<_>>>()?;
        if (0..canon.params.len()).any(|k| !slots.iter().any(|&(_, s)| s == k)) {
            return None;
        }
        let kept = tokens
            .iter()
            .enumerate()
            .filter(|(at, token)| is_constant(&token.kind) && !hoisted.contains(at))
            .map(|(at, token)| (at, token.text.to_string()))
            .collect();
        let mut predicates: Vec<Term> = Vec::new();
        for term in query.patterns.iter().filter_map(|p| p.slots[1].as_const()) {
            if !predicates.contains(term) {
                predicates.push(term.clone());
            }
        }
        Some(Template {
            kept,
            slots,
            params: canon.params.len(),
            prefixes,
            predicates,
        })
    }

    /// The canonical parameters of `tokens`, a text with this template's
    /// skeleton, in the order of the key they share — or `None` when the
    /// text is not an instance: a kept token differs, constants that
    /// shared a parameter differ or distinct ones coincide, a prefix is
    /// undeclared, or a parameter fails the canonicaliser's guards.
    pub fn params(&self, tokens: &[Token]) -> Option<Vec<Term>> {
        if self
            .kept
            .iter()
            .any(|(at, text)| tokens.get(*at).map(|t| t.text) != Some(text))
        {
            return None;
        }
        let mut params: Vec<Option<Term>> = vec![None; self.params];
        for &(at, k) in &self.slots {
            let term = token_term(&tokens.get(at)?.kind, &self.prefixes).ok()?;
            match &params[k] {
                None => params[k] = Some(term),
                Some(shared) if *shared == term => {}
                Some(_) => return None,
            }
        }
        let params = params.into_iter().collect::<Option<Vec<Term>>>()?;
        for (k, param) in params.iter().enumerate() {
            if params[..k].contains(param) || !cacheable_param(param, &self.predicates) {
                return None;
            }
        }
        Some(params)
    }
}

/// A token that denotes a constant wherever it stands.
fn is_constant(kind: &TokenKind) -> bool {
    matches!(
        kind,
        TokenKind::Iri(_)
            | TokenKind::Prefixed(..)
            | TokenKind::Literal { .. }
            | TokenKind::Number(_)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonicalize;
    use crate::lexer::tokenize;
    use crate::parser::parse_tokens;

    fn template(text: &str) -> Template {
        let tokens = tokenize(text).unwrap();
        let (ast, hoisted) = parse_tokens(&tokens).unwrap();
        let query = JoinQuery::from_ast(&ast).unwrap();
        let canon = canonicalize(&query).unwrap();
        Template::new(&tokens, &hoisted, &ast, &query, &canon).unwrap()
    }

    fn params(template: &Template, text: &str) -> Option<Vec<Term>> {
        template.params(&tokenize(text).unwrap())
    }

    fn skeleton_of(text: &str) -> String {
        skeleton(&tokenize(text).unwrap())
    }

    #[test]
    fn limit_counts_are_kept_even_when_a_filter_constant_equals_them() {
        let text = "SELECT ?x WHERE { ?x <http://e/p> ?y . FILTER (?y > 5) } LIMIT 5";
        let t = template(text);
        let other = "SELECT ?x WHERE { ?x <http://e/p> ?y . FILTER (?y > 7) } LIMIT 7";
        assert_eq!(skeleton_of(text), skeleton_of(other));
        assert_eq!(params(&t, other), None, "LIMIT is not a parameter");
        let same_limit = "SELECT ?x WHERE { ?x <http://e/p> ?y . FILTER (?y > 7) } LIMIT 5";
        assert_eq!(
            params(&t, same_limit),
            Some(vec![Term::typed_literal("7", hsp_rdf::vocab::XSD_INTEGER)])
        );
    }

    #[test]
    fn prefix_iris_are_kept_even_when_an_object_equals_them() {
        let t = template("PREFIX e: <http://e/> SELECT ?s WHERE { ?s e:p <http://e/> . }");
        let moved = "PREFIX e: <http://f/> SELECT ?s WHERE { ?s e:p <http://f/> . }";
        assert_eq!(params(&t, moved), None, "the PREFIX IRI is not a parameter");
        let object = "PREFIX e: <http://e/> SELECT ?s WHERE { ?s e:p <http://f/> . }";
        assert_eq!(params(&t, object), Some(vec![Term::iri("http://f/")]));
    }

    #[test]
    fn sharing_and_guards_are_rechecked() {
        let t = template("SELECT ?x WHERE { ?x <http://e/p> \"a\" . ?x <http://e/q> \"a\" . }");
        let split = "SELECT ?x WHERE { ?x <http://e/p> \"a\" . ?x <http://e/q> \"b\" . }";
        assert_eq!(params(&t, split), None);
        let shared = "SELECT ?x WHERE { ?x <http://e/p> \"c\" . ?x <http://e/q> \"c\" . }";
        assert_eq!(params(&t, shared), Some(vec![Term::literal("c")]));

        let t = template("SELECT ?x WHERE { ?x <http://e/p> <http://e/o> . }");
        let predicate = "SELECT ?x WHERE { ?x <http://e/p> <http://e/p> . }";
        assert_eq!(params(&t, predicate), None);
        let t = template("SELECT ?x WHERE { ?x <http://e/p> \"1\"^^<http://e/dt> . }");
        let boolean = format!(
            "SELECT ?x WHERE {{ ?x <http://e/p> \"true\"^^<{}> . }}",
            hsp_rdf::vocab::XSD_BOOLEAN
        );
        assert_eq!(params(&t, &boolean), None);
    }

    #[test]
    fn the_skeleton_keeps_everything_but_constant_values() {
        let a = skeleton_of("SELECT ?x WHERE { ?x a <http://e/C> . }");
        assert_eq!(a, "T: SELECT ?x WHERE { ?x a <> . } ");
        assert_ne!(a, skeleton_of("SELECT ?y WHERE { ?y a <http://e/C> . }"));
        assert_ne!(a, skeleton_of("SELECT ?x WHERE { ?x a \"C\" . }"));
        assert_ne!(a, skeleton_of("SELECT ?x WHERE { ?x a e:C . }"));
        assert_ne!(a, skeleton_of("ASK { ?x a <http://e/C> . }"));
    }
}
