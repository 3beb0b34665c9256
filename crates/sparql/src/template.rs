//! Token-shape templates: the key of the session's plan tier.
//!
//! HSP plans from a query's syntax alone (paper §3), so two texts that
//! differ only in the values of their subject, object and expression
//! constants get the same plan with those constants put in. A templated
//! workload sends one text over and over with only such constants changed,
//! and one lexer pass recognises it:
//!
//! * [`skeleton`] renders the tokens with every constant token replaced by
//!   a marker of its lexical kind: the lookup key.
//! * A [`Template`] is made from a text that *was* parsed. It records the
//!   exact text of the constant tokens the parser does not hoist
//!   (predicates, `PREFIX` IRIs, `LIMIT` / `OFFSET` counts), and which
//!   parameter each hoisted token fills — the parser's hoisted tokens,
//!   numbered in first-occurrence order and deduplicated by value.
//! * [`Template::params`] checks a text with the same skeleton against all
//!   of that and returns its parameters, position for position.
//!
//! Why that is enough: the parser branches on token kinds, keywords,
//! punctuation and the tokens the template keeps, never on the value of a
//! constant it hoists, so two texts with equal skeletons and equal kept
//! tokens parse to ASTs that differ only in their hoisted constants. HSP
//! reads those only through their kinds (fixed by the skeleton) and which
//! of them are equal (checked), so the plan of one, with the other's
//! parameters put in, is the plan of the other. Two guards keep that
//! substitution by value unambiguous: no parameter is a boolean literal
//! (the BOUND() rewrite synthesises those into plans) and none equals a
//! predicate (which a plan keeps).

use std::collections::HashMap;

use hsp_rdf::{vocab, Term};

use crate::algebra::JoinQuery;
use crate::ast::Query;
use crate::lexer::{Token, TokenKind};
use crate::parser::token_term;

/// The lookup key of a lexed text: every token in order, each constant
/// token (IRI, prefixed name, literal, number) replaced by a marker of its
/// lexical kind.
pub fn skeleton(tokens: &[Token]) -> String {
    let mut out = String::with_capacity(8 * tokens.len());
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
/// template was made from to get its plan — and how its constant tokens
/// become that plan's parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    /// Every constant token the parser does not hoist, by index, with the
    /// exact text a match must repeat.
    kept: Vec<(usize, String)>,
    /// `(token index, parameter)` of every hoisted token. Tokens sharing a
    /// parameter held equal constants.
    slots: Vec<(usize, usize)>,
    /// Number of parameters.
    params: usize,
    /// The `PREFIX` declarations, which are kept tokens.
    prefixes: HashMap<String, String>,
    /// The predicate constants, which no parameter may equal.
    predicates: Vec<Term>,
}

impl Template {
    /// The template of a text whose tokens parsed (see
    /// [`parse_tokens`](crate::parser::parse_tokens), which reports the
    /// `hoisted` token indices) to `ast` and lowered to `query`, with the
    /// text's own parameters. `None` when a parameter fails a guard (see
    /// the module docs): the plan tier does not serve such a text.
    pub fn new(
        tokens: &[Token],
        hoisted: &[usize],
        ast: &Query,
        query: &JoinQuery,
    ) -> Option<(Template, Vec<Term>)> {
        let prefixes: HashMap<String, String> = ast.prefixes.iter().cloned().collect();
        let mut predicates: Vec<Term> = Vec::new();
        for term in query.patterns.iter().filter_map(|p| p.slots[1].as_const()) {
            if !predicates.contains(term) {
                predicates.push(term.clone());
            }
        }
        let mut params: Vec<Term> = Vec::new();
        let mut slots = Vec::with_capacity(hoisted.len());
        for &at in hoisted {
            let term = token_term(&tokens.get(at)?.kind, &prefixes).ok()?;
            let k = match params.iter().position(|p| *p == term) {
                Some(k) => k,
                None if guarded(&term, &predicates) => return None,
                None => {
                    params.push(term);
                    params.len() - 1
                }
            };
            slots.push((at, k));
        }
        let kept = tokens
            .iter()
            .enumerate()
            .filter(|(at, token)| is_constant(&token.kind) && !hoisted.contains(at))
            .map(|(at, token)| (at, token.text.to_string()))
            .collect();
        let template = Template {
            kept,
            slots,
            params: params.len(),
            prefixes,
            predicates,
        };
        Some((template, params))
    }

    /// The parameters of `tokens`, a text with this template's skeleton,
    /// numbered as the template numbers its own — or `None` when the text
    /// is not an instance: a kept token differs, constants that shared a
    /// parameter differ or distinct ones coincide, a prefix is undeclared,
    /// or a parameter fails a guard.
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
            if params[..k].contains(param) || guarded(param, &self.predicates) {
                return None;
            }
        }
        Some(params)
    }
}

/// A parameter the plan tier must not substitute by value: a boolean
/// literal, which could collide with the constant the BOUND() rewrite
/// synthesises into plans, or a term equal to a predicate, which the plan
/// keeps. Both shapes are vanishingly rare; they are planned fresh.
pub(crate) fn guarded(param: &Term, predicates: &[Term]) -> bool {
    let boolean = matches!(param, Term::Literal { datatype, .. }
        if datatype.as_deref() == Some(vocab::XSD_BOOLEAN));
    boolean || predicates.contains(param)
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
    use crate::lexer::tokenize;
    use crate::parser::parse_tokens;

    fn template_of(text: &str) -> Option<(Template, Vec<Term>)> {
        let tokens = tokenize(text).unwrap();
        let (ast, hoisted) = parse_tokens(&tokens).unwrap();
        let query = JoinQuery::from_ast(&ast).unwrap();
        Template::new(&tokens, &hoisted, &ast, &query)
    }

    fn template(text: &str) -> Template {
        template_of(text).expect("a template").0
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
    fn parameters_are_the_hoisted_tokens_in_first_occurrence_order() {
        let text = "PREFIX e: <http://e/> SELECT ?x WHERE { ?x e:p \"b\" . \
                    <http://e/s> e:q ?x . ?x e:r \"b\" . FILTER (?x != e:t) } LIMIT 3";
        let (t, own) = template_of(text).expect("a template");
        let expected = vec![
            Term::literal("b"),
            Term::iri("http://e/s"),
            Term::iri("http://e/t"),
        ];
        assert_eq!(own, expected);
        assert_eq!(params(&t, text), Some(expected));

        // The guards refuse a template as they refuse an instance.
        let boolean = "SELECT ?x WHERE { ?x <http://e/p> ?y . FILTER (?y = true) }";
        assert_eq!(template_of(boolean), None);
        let predicate = "SELECT ?x WHERE { ?x <http://e/p> <http://e/p> . }";
        assert_eq!(template_of(predicate), None);
    }

    #[test]
    fn the_skeleton_keeps_everything_but_constant_values() {
        let a = skeleton_of("SELECT ?x WHERE { ?x a <http://e/C> . }");
        assert_eq!(a, " SELECT ?x WHERE { ?x a <> . } ");
        assert_ne!(a, skeleton_of("SELECT ?y WHERE { ?y a <http://e/C> . }"));
        assert_ne!(a, skeleton_of("SELECT ?x WHERE { ?x a \"C\" . }"));
        assert_ne!(a, skeleton_of("SELECT ?x WHERE { ?x a e:C . }"));
        assert_ne!(a, skeleton_of("ASK { ?x a <http://e/C> . }"));
    }
}
