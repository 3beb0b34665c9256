//! Query-shape canonicalization: the reference definition of when two
//! join queries are the same shape.
//!
//! The session's plan tier is keyed by token skeleton
//! ([`Template`](crate::Template)); nothing on the serving path calls this
//! module. It stays as the independent reference the template's soundness
//! property is checked against (`tests/prop_canon.rs`), and as a layer the
//! end-to-end benchmark's trace still times.
//!
//! HSP's defining property (paper §3) is that a plan depends only on the
//! query's *syntactic shape* — the variable graph and the const/var slot
//! layout — never on data statistics or on the concrete constant values.
//! Two queries that differ only in variable names and constant bindings
//! therefore have the same shape, and [`canonicalize`] renders it:
//!
//! * **α-renaming.** Variables are renamed to dense canonical ids in
//!   first-occurrence order over a canonical traversal, so source names
//!   never reach the key.
//! * **Parameter hoisting.** Subject/object constants and every constant
//!   inside FILTER / ORDER BY / HAVING expressions are replaced by `$k`
//!   references into a parameter vector ([`CanonicalQuery::params`]),
//!   deduplicated by value so the key also captures *which slots share a
//!   constant*. Each reference carries the constant's [`TermKind`]
//!   because heuristic H4 scores object literals above object IRIs — a
//!   template instantiated with a literal and one instantiated with an
//!   IRI are different shapes.
//! * **Predicates stay literal.** Predicate constants are part of the
//!   key, not parameters: H1's `rdf:type` exception makes planning
//!   predicate-value-sensitive. (Templated workloads vary subjects,
//!   objects and filter constants; the predicates *are* the template.)
//! * **Canonical pattern order.** Triple patterns are sorted by a
//!   name- and parameter-independent signature: predicate constants
//!   render as themselves, hoisted constants as their kind only, and
//!   variable slots as Weisfeiler–Leman colors refined from the query's
//!   semantic anchors (projection, GROUP BY, aggregates, ORDER BY,
//!   FILTER positions). Permuting the patterns of a query — or changing
//!   its parameter constants — therefore does not change its key.
//!
//! The key is a *faithful rendering* of the canonicalized query, not a
//! hash: equal keys imply the queries are identical up to variable
//! renaming and parameter values. The pathological shapes a bounded WL
//! refinement cannot split only get two keys, never one wrong one.
//!
//! [`canonicalize`] returns `None` for the shapes the plan tier refuses
//! (a parameter failing one of the template's guards).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use hsp_rdf::{Term, TermKind};

use crate::algebra::{FilterExpr, JoinQuery, Operand, TriplePattern, Var};
use crate::expr::Expr;
use crate::template::guarded;

/// A query reduced to its planning-relevant shape: the key, the hoisted
/// constants, and the variable bijection back to the source query.
#[derive(Debug, Clone, PartialEq)]
pub struct CanonicalQuery {
    /// The shape key: a faithful rendering of the canonicalized query.
    /// Equal keys ⇔ equal shapes (up to α-renaming and parameter values).
    pub key: String,
    /// Hoisted constants in canonical first-occurrence order,
    /// deduplicated by value; `$k` in the key refers to `params[k]`.
    pub params: Vec<Term>,
    /// Canonical id → source [`Var`]: the α-renaming bijection. Two
    /// queries with the same key map corresponding variables to the same
    /// canonical id.
    pub canon_vars: Vec<Var>,
}

/// Canonicalize a join query, or `None` when a parameter fails one of the
/// plan tier's guards (see module docs).
pub fn canonicalize(query: &JoinQuery) -> Option<CanonicalQuery> {
    let colors = refine_colors(query);
    // Canonical pattern order: sort by the color-rendered signature.
    // Ties are WL-indistinguishable patterns; either order renders the
    // same key, or the shape simply gets two keys — never a wrong one,
    // because the key stays faithful.
    let mut order: Vec<usize> = (0..query.patterns.len()).collect();
    let sigs: Vec<String> = query
        .patterns
        .iter()
        .map(|p| pattern_sort_sig(p, &colors))
        .collect();
    order.sort_by(|&a, &b| sigs[a].cmp(&sigs[b]));

    let mut cx = Canonicalizer::new(query);
    let mut key = String::with_capacity(256);
    key.push_str("P:");
    for &i in &order {
        cx.render_pattern(&query.patterns[i], &mut key);
        key.push(';');
    }
    key.push_str("|F:");
    for f in &query.filters {
        match f {
            FilterExpr::Eq(lhs, rhs) => {
                key.push('(');
                cx.render_operand(lhs, &mut key);
                key.push('=');
                cx.render_operand(rhs, &mut key);
                key.push(')');
            }
            FilterExpr::Complex(e) => {
                key.push_str("cx(");
                cx.render_expr(e, &mut key);
                key.push(')');
            }
        }
        key.push(';');
    }
    key.push_str("|SEL:");
    if query.distinct {
        key.push_str("D,");
    }
    for (_, v) in &query.projection {
        cx.render_var(*v, &mut key);
        key.push(',');
    }
    key.push_str("|GB:");
    for v in &query.group_by {
        cx.render_var(*v, &mut key);
        key.push(',');
    }
    key.push_str("|AGG:");
    for a in &query.aggregates {
        key.push_str(a.func.name());
        if a.distinct {
            key.push('!');
        }
        key.push('(');
        match a.arg {
            Some(v) => cx.render_var(v, &mut key),
            None => key.push('*'),
        }
        key.push_str(")->");
        cx.render_var(a.out, &mut key);
        key.push(',');
    }
    key.push_str("|HAV:");
    if let Some(h) = &query.having {
        cx.render_expr(h, &mut key);
    }
    key.push_str("|OB:");
    for k in &query.modifiers.order_by {
        cx.render_expr(&k.expr, &mut key);
        key.push(if k.descending { '-' } else { '+' });
        key.push(',');
    }
    use std::fmt::Write as _;
    let _ = write!(
        key,
        "|LIM:{:?}|OFF:{}",
        query.modifiers.limit, query.modifiers.offset
    );

    if cx.params.iter().any(|p| guarded(p, &cx.kept)) {
        return None;
    }

    Some(CanonicalQuery {
        key,
        params: cx.params,
        canon_vars: cx.canon_vars,
    })
}

/// Rendering state: α-renaming table, parameter vector, kept literals.
struct Canonicalizer {
    canon_of: HashMap<Var, usize>,
    canon_vars: Vec<Var>,
    params: Vec<Term>,
    param_of: HashMap<Term, usize>,
    /// Constants kept literal in the key (predicate slots).
    kept: Vec<Term>,
}

impl Canonicalizer {
    fn new(query: &JoinQuery) -> Self {
        Canonicalizer {
            canon_of: HashMap::with_capacity(query.var_names.len()),
            canon_vars: Vec::with_capacity(query.var_names.len()),
            params: Vec::new(),
            param_of: HashMap::new(),
            kept: Vec::new(),
        }
    }

    fn render_var(&mut self, v: Var, out: &mut String) {
        use std::fmt::Write as _;
        let next = self.canon_vars.len();
        let id = *self.canon_of.entry(v).or_insert_with(|| {
            self.canon_vars.push(v);
            next
        });
        let _ = write!(out, "v{id}");
    }

    fn render_param(&mut self, t: &Term, out: &mut String) {
        use std::fmt::Write as _;
        let next = self.params.len();
        let id = *self.param_of.entry(t.clone()).or_insert_with(|| {
            self.params.push(t.clone());
            next
        });
        let kind = match t.kind() {
            TermKind::Iri => 'I',
            TermKind::Literal => 'L',
        };
        let _ = write!(out, "${id}:{kind}");
    }

    fn render_pattern(&mut self, p: &TriplePattern, out: &mut String) {
        use crate::algebra::TermOrVar;
        out.push('(');
        for (i, slot) in p.slots.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            match slot {
                TermOrVar::Var(v) => self.render_var(*v, out),
                // Predicate constants stay literal (see module docs).
                TermOrVar::Const(t) if i == 1 => {
                    use std::fmt::Write as _;
                    let _ = write!(out, "K<{t}>");
                    if !self.kept.contains(t) {
                        self.kept.push(t.clone());
                    }
                }
                TermOrVar::Const(t) => self.render_param(t, out),
            }
        }
        out.push(')');
    }

    fn render_operand(&mut self, o: &Operand, out: &mut String) {
        match o {
            Operand::Var(v) => self.render_var(*v, out),
            Operand::Const(t) => self.render_param(t, out),
        }
    }

    fn render_expr(&mut self, e: &Expr, out: &mut String) {
        match e {
            Expr::Var(v) => self.render_var(*v, out),
            Expr::Const(t) => self.render_param(t, out),
            Expr::Or(a, b) => {
                out.push_str("or(");
                self.render_expr(a, out);
                out.push(',');
                self.render_expr(b, out);
                out.push(')');
            }
            Expr::And(a, b) => {
                out.push_str("and(");
                self.render_expr(a, out);
                out.push(',');
                self.render_expr(b, out);
                out.push(')');
            }
            Expr::Not(a) => {
                out.push_str("not(");
                self.render_expr(a, out);
                out.push(')');
            }
            Expr::Cmp { op, lhs, rhs } => {
                out.push('(');
                self.render_expr(lhs, out);
                out.push_str(op.lexeme());
                self.render_expr(rhs, out);
                out.push(')');
            }
            Expr::Arith { op, lhs, rhs } => {
                use std::fmt::Write as _;
                let _ = write!(out, "ar{:?}(", op);
                self.render_expr(lhs, out);
                out.push(',');
                self.render_expr(rhs, out);
                out.push(')');
            }
            Expr::Neg(a) => {
                out.push_str("neg(");
                self.render_expr(a, out);
                out.push(')');
            }
            Expr::Call { func, args } => {
                out.push_str(func.name());
                out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    self.render_expr(a, out);
                }
                out.push(')');
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Weisfeiler–Leman variable coloring
// ---------------------------------------------------------------------------

fn mix(parts: &[u64]) -> u64 {
    let mut h = DefaultHasher::new();
    parts.hash(&mut h);
    h.finish()
}

fn hash_str(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// A variable-independent signature of the pattern's constant layout.
/// Predicate constants render as their value (they stay literal in the
/// key); subject/object constants render as their *kind only* — their
/// values are hoisted parameters, and letting values into this
/// signature would make the canonical pattern order (and hence the key)
/// differ between two instances of the same template.
fn pattern_const_sig(p: &TriplePattern) -> u64 {
    use crate::algebra::TermOrVar;
    let mut s = String::new();
    for (i, slot) in p.slots.iter().enumerate() {
        match slot {
            TermOrVar::Const(t) if i == 1 => s.push_str(&t.to_string()),
            TermOrVar::Const(t) => s.push(match t.kind() {
                TermKind::Iri => 'I',
                TermKind::Literal => 'L',
            }),
            TermOrVar::Var(_) => s.push('?'),
        }
        s.push('\u{1}');
    }
    hash_str(&s)
}

/// Name-independent variable colors: seeded from the semantic anchor
/// positions (projection order, GROUP BY, aggregates, ORDER BY, HAVING,
/// FILTER positions) and refined over the pattern structure until the
/// round budget is spent. Bounded rounds are enough to split everything
/// a real query distinguishes; see the module docs for why a failure to
/// split is benign.
fn refine_colors(query: &JoinQuery) -> Vec<u64> {
    let n = query.var_names.len();
    let mut color = vec![0u64; n];
    let mut seed = |v: Var, tag: u64, a: u64, b: u64| {
        if let Some(c) = color.get_mut(v.index()) {
            *c = mix(&[*c, tag, a, b]);
        }
    };
    for (i, (_, v)) in query.projection.iter().enumerate() {
        seed(*v, 1, i as u64, 0);
    }
    for (i, v) in query.group_by.iter().enumerate() {
        seed(*v, 2, i as u64, 0);
    }
    for (i, a) in query.aggregates.iter().enumerate() {
        if let Some(v) = a.arg {
            seed(v, 3, i as u64, 0);
        }
        seed(a.out, 4, i as u64, 0);
    }
    for (i, k) in query.modifiers.order_by.iter().enumerate() {
        for (j, v) in k.expr.vars().into_iter().enumerate() {
            seed(v, 5, i as u64, j as u64);
        }
    }
    if let Some(h) = &query.having {
        for (j, v) in h.vars().into_iter().enumerate() {
            seed(v, 6, j as u64, 0);
        }
    }
    for (i, f) in query.filters.iter().enumerate() {
        for (j, v) in f.vars().into_iter().enumerate() {
            seed(v, 7, i as u64, j as u64);
        }
    }

    let pat_sigs: Vec<u64> = query.patterns.iter().map(pattern_const_sig).collect();
    let rounds = query.patterns.len().min(8) + 2;
    for _ in 0..rounds {
        let mut occ: Vec<Vec<u64>> = vec![Vec::new(); n];
        for (pi, p) in query.patterns.iter().enumerate() {
            // The color context of one pattern: its constant layout plus
            // the current colors of its variable slots.
            let slot_colors: Vec<u64> = p
                .slots
                .iter()
                .map(|s| match s.as_var() {
                    Some(v) => color[v.index()],
                    None => 0,
                })
                .collect();
            for (si, slot) in p.slots.iter().enumerate() {
                if let Some(v) = slot.as_var() {
                    occ[v.index()].push(mix(&[
                        pat_sigs[pi],
                        si as u64,
                        slot_colors[0],
                        slot_colors[1],
                        slot_colors[2],
                    ]));
                }
            }
        }
        for (v, mut o) in occ.into_iter().enumerate() {
            o.sort_unstable();
            let mut parts = vec![color[v]];
            parts.extend(o);
            color[v] = mix(&parts);
        }
    }
    color
}

/// The sort signature of one pattern under the refined coloring:
/// predicate constants render as their value, other constants as their
/// kind (values are parameters — see [`pattern_const_sig`]), variables
/// as their color.
fn pattern_sort_sig(p: &TriplePattern, colors: &[u64]) -> String {
    use crate::algebra::TermOrVar;
    use std::fmt::Write as _;
    let mut s = String::new();
    for (i, slot) in p.slots.iter().enumerate() {
        match slot {
            TermOrVar::Const(t) if i == 1 => {
                let _ = write!(s, "C{t}");
            }
            TermOrVar::Const(t) => {
                let _ = write!(
                    s,
                    "K{}",
                    match t.kind() {
                        TermKind::Iri => 'I',
                        TermKind::Literal => 'L',
                    }
                );
            }
            TermOrVar::Var(v) => {
                let _ = write!(s, "V{:016x}", colors[v.index()]);
            }
        }
        s.push('\u{1}');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canon(text: &str) -> CanonicalQuery {
        canonicalize(&JoinQuery::parse(text).unwrap()).expect("cacheable")
    }

    #[test]
    fn alpha_renaming_is_ignored() {
        let a = canon("SELECT ?x WHERE { ?x <http://e/p> ?y . FILTER (?y > 3) }");
        let b = canon("SELECT ?s WHERE { ?s <http://e/p> ?o . FILTER (?o > 3) }");
        assert_eq!(a.key, b.key);
        assert_eq!(a.params, b.params);
    }

    #[test]
    fn pattern_permutation_is_ignored() {
        let a = canon(
            "SELECT ?a WHERE { ?a <http://e/p> ?b . ?b <http://e/q> \"x\" . \
             ?a <http://e/r> ?c . }",
        );
        let b = canon(
            "SELECT ?a WHERE { ?a <http://e/r> ?c . ?a <http://e/p> ?b . \
             ?b <http://e/q> \"x\" . }",
        );
        assert_eq!(a.key, b.key);
    }

    #[test]
    fn constants_are_hoisted_not_keyed() {
        let a = canon("SELECT ?x WHERE { ?x <http://e/name> \"Alice\" . }");
        let b = canon("SELECT ?x WHERE { ?x <http://e/name> \"Bob\" . }");
        assert_eq!(a.key, b.key);
        assert_eq!(a.params, vec![Term::literal("Alice")]);
        assert_eq!(b.params, vec![Term::literal("Bob")]);
    }

    #[test]
    fn predicates_are_part_of_the_key() {
        let a = canon("SELECT ?x WHERE { ?x <http://e/name> ?n . }");
        let b = canon("SELECT ?x WHERE { ?x <http://e/email> ?n . }");
        assert_ne!(a.key, b.key);
    }

    #[test]
    fn object_term_kind_is_part_of_the_key() {
        // H4 scores object literals above object IRIs: different shapes.
        let lit = canon("SELECT ?x WHERE { ?x <http://e/p> \"v\" . }");
        let iri = canon("SELECT ?x WHERE { ?x <http://e/p> <http://e/v> . }");
        assert_ne!(lit.key, iri.key);
    }

    #[test]
    fn shared_constants_key_differently_from_distinct_ones() {
        let shared =
            canon("SELECT ?x ?y WHERE { ?x <http://e/p> \"a\" . ?y <http://e/q> \"a\" . }");
        let distinct =
            canon("SELECT ?x ?y WHERE { ?x <http://e/p> \"a\" . ?y <http://e/q> \"b\" . }");
        assert_ne!(shared.key, distinct.key);
        assert_eq!(shared.params.len(), 1);
        assert_eq!(distinct.params.len(), 2);
    }

    #[test]
    fn projection_position_not_name_is_keyed() {
        // Same shape, different SELECT names: identical keys (names are
        // cosmetic), but swapping which variable is projected differs.
        let a = canon("SELECT ?x WHERE { ?x <http://e/p> ?y . }");
        let b = canon("SELECT ?u WHERE { ?u <http://e/p> ?w . }");
        assert_eq!(a.key, b.key);
        let swapped = canon("SELECT ?y WHERE { ?x <http://e/p> ?y . }");
        assert_ne!(a.key, swapped.key);
    }

    #[test]
    fn modifiers_and_distinct_are_keyed() {
        let plain = canon("SELECT ?x WHERE { ?x <http://e/p> ?y . }");
        let distinct = canon("SELECT DISTINCT ?x WHERE { ?x <http://e/p> ?y . }");
        let limited = canon("SELECT ?x WHERE { ?x <http://e/p> ?y . } LIMIT 5");
        let ordered = canon("SELECT ?x WHERE { ?x <http://e/p> ?y . } ORDER BY ?y");
        let keys = [&plain.key, &distinct.key, &limited.key, &ordered.key];
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j]);
            }
        }
    }

    #[test]
    fn rdf_type_objects_hoist_like_any_object() {
        // `?x a <C>` vs `?x a <D>`: the class IRI is the template's
        // varying constant; the rdf:type *predicate* stays in the key.
        let a = canon("SELECT ?x WHERE { ?x a <http://e/C> . }");
        let b = canon("SELECT ?x WHERE { ?x a <http://e/D> . }");
        assert_eq!(a.key, b.key);
        assert!(a.key.contains("ns#type"));
    }

    #[test]
    fn param_predicate_overlap_is_rejected() {
        // <http://e/p> is both a kept predicate and an object parameter:
        // by-value substitution could clobber the predicate. Refused.
        let q = JoinQuery::parse("SELECT ?x WHERE { ?x <http://e/p> <http://e/p> . }").unwrap();
        assert!(canonicalize(&q).is_none());
    }

    #[test]
    fn boolean_params_are_rejected() {
        let q = JoinQuery::parse("SELECT ?x WHERE { ?x <http://e/p> ?y . FILTER (?y = true) }")
            .unwrap();
        assert!(canonicalize(&q).is_none());
    }

    #[test]
    fn canon_vars_is_a_bijection_onto_source_vars() {
        let q =
            JoinQuery::parse("SELECT ?b ?a WHERE { ?a <http://e/p> ?b . ?b <http://e/q> ?c . }")
                .unwrap();
        let c = canonicalize(&q).unwrap();
        let mut seen: Vec<Var> = c.canon_vars.clone();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), c.canon_vars.len());
        assert_eq!(c.canon_vars.len(), q.num_vars());
    }

    #[test]
    fn aggregates_are_keyed() {
        let count = canon("SELECT ?d (COUNT(?s) AS ?n) WHERE { ?s <http://e/p> ?d . } GROUP BY ?d");
        let sum = canon("SELECT ?d (SUM(?s) AS ?n) WHERE { ?s <http://e/p> ?d . } GROUP BY ?d");
        assert_ne!(count.key, sum.key);
    }
}
