//! Property-based tests for the canonical query shape key (`canon`
//! module) and the token templates that key the session's plan tier
//! (`template` module), with the canonical key as their reference.
//!
//! The contract under test:
//! * α-renaming variables and permuting triple patterns never changes
//!   the shape key (such queries must share one cached plan), and
//! * changing a hoisted constant keeps the shape key (the plan is
//!   reused) while changing the request text (the result-cache key,
//!   which is the exact text, must differ), and
//! * changing a *predicate* constant changes the shape key — predicates
//!   stay literal in the key because they are what invalidation and the
//!   paper's H1 heuristic key on, and
//! * a token template refuses exactly the texts `canonicalize` refuses,
//!   accepts a text only when the text's canonical key is the template's,
//!   and then yields the text's own hoisted constants in first-occurrence
//!   order.

use hsp_rdf::{vocab, Term};
use hsp_sparql::lexer::{tokenize, Token};
use hsp_sparql::{canonicalize, parse_tokens, skeleton, CanonicalQuery, JoinQuery, Template};
use proptest::prelude::*;

const PREDS: [&str; 4] = ["http://e/p1", "http://e/p2", "http://e/p3", "http://e/p4"];
const SUBJ_IRIS: [&str; 3] = ["http://e/s1", "http://e/s2", "http://e/s3"];
const OBJ_IRIS: [&str; 3] = ["http://e/o1", "http://e/o2", "http://e/o3"];
const OBJ_LITS: [&str; 3] = ["A", "B", "C"];

#[derive(Debug, Clone, Copy)]
enum Subj {
    Var(usize),
    Iri(usize),
}

#[derive(Debug, Clone, Copy)]
enum Obj {
    Var(usize),
    Iri(usize),
    Lit(usize),
}

#[derive(Debug, Clone)]
struct Spec {
    patterns: Vec<(Subj, usize, Obj)>,
    distinct: bool,
    limit: Option<usize>,
}

impl Spec {
    /// Variable indices used anywhere, in index order (the projection).
    fn used_vars(&self) -> Vec<usize> {
        let mut used: Vec<usize> = Vec::new();
        for (s, _, o) in &self.patterns {
            if let Subj::Var(v) = s {
                used.push(*v);
            }
            if let Obj::Var(v) = o {
                used.push(*v);
            }
        }
        used.sort_unstable();
        used.dedup();
        used
    }

    /// Render each pattern's three slot tokens under a variable naming.
    fn slots(&self, name: &impl Fn(usize) -> String) -> Vec<[String; 3]> {
        self.patterns
            .iter()
            .map(|(s, p, o)| {
                let subject = match s {
                    Subj::Var(v) => format!("?{}", name(*v)),
                    Subj::Iri(i) => format!("<{}>", SUBJ_IRIS[*i]),
                };
                let predicate = format!("<{}>", PREDS[*p]);
                let object = match o {
                    Obj::Var(v) => format!("?{}", name(*v)),
                    Obj::Iri(i) => format!("<{}>", OBJ_IRIS[*i]),
                    Obj::Lit(i) => format!("\"{}\"", OBJ_LITS[*i]),
                };
                [subject, predicate, object]
            })
            .collect()
    }

    /// The constants of rendered `slots` in identity order, deduplicated
    /// by value: what a template numbers as its parameters.
    fn params(slots: &[[String; 3]]) -> Vec<Term> {
        let mut params = Vec::new();
        for [s, _, o] in slots {
            for slot in [s, o] {
                let inner = &slot[1..slot.len() - 1];
                let term = match slot.as_bytes()[0] {
                    b'<' => Term::iri(inner),
                    b'"' => Term::literal(inner),
                    _ => continue,
                };
                if !params.contains(&term) {
                    params.push(term);
                }
            }
        }
        params
    }

    /// Assemble query text from rendered slots in the given pattern order.
    fn assemble(
        &self,
        name: &impl Fn(usize) -> String,
        slots: &[[String; 3]],
        order: &[usize],
    ) -> String {
        let mut text = String::from(if self.distinct {
            "SELECT DISTINCT"
        } else {
            "SELECT"
        });
        for v in self.used_vars() {
            text.push_str(&format!(" ?{}", name(v)));
        }
        text.push_str(" WHERE {\n");
        for &i in order {
            let [s, p, o] = &slots[i];
            text.push_str(&format!("  {s} {p} {o} .\n"));
        }
        text.push('}');
        if let Some(limit) = self.limit {
            text.push_str(&format!(" LIMIT {limit}"));
        }
        text
    }
}

fn arb_spec() -> impl Strategy<Value = Spec> {
    let subj = prop_oneof![
        (0usize..4).prop_map(Subj::Var),
        (0usize..3).prop_map(Subj::Iri),
    ];
    let obj = prop_oneof![
        (0usize..4).prop_map(Obj::Var),
        (0usize..3).prop_map(Obj::Iri),
        (0usize..3).prop_map(Obj::Lit),
    ];
    (
        prop::collection::vec((subj, 0usize..4, obj), 1..4),
        any::<bool>(),
        prop_oneof![Just(None), (1usize..10).prop_map(Some)],
    )
        .prop_map(|(mut patterns, distinct, limit)| {
            // Guarantee at least one projected variable.
            patterns[0].0 = Subj::Var(0);
            Spec {
                patterns,
                distinct,
                limit,
            }
        })
}

/// Deterministic Fisher–Yates from an LCG, so permutations come from a
/// plain `u64` seed (the proptest shim has no shuffle strategy).
fn shuffled(n: usize, mut seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        v.swap(i, j);
    }
    v
}

fn canon_of(text: &str) -> CanonicalQuery {
    let query = JoinQuery::parse(text).unwrap_or_else(|e| panic!("{text}\nparse: {e}"));
    canonicalize(&query).unwrap_or_else(|| panic!("{text}\nnot canonicalizable"))
}

fn tokens(text: &str) -> Vec<Token<'_>> {
    tokenize(text).unwrap_or_else(|e| panic!("{text}\nlex: {e}"))
}

/// The token template of `text`, as the plan tier records it, and its
/// canonical query — `None` for a text the tier does not cache, which must
/// be exactly a text `canonicalize` refuses.
fn template_of(text: &str) -> Option<(Template, CanonicalQuery)> {
    let tokens = tokens(text);
    let (ast, hoisted) = parse_tokens(&tokens).ok()?;
    let query = JoinQuery::from_ast(&ast).ok()?;
    let template = Template::new(&tokens, &hoisted, &ast, &query);
    let canon = canonicalize(&query);
    assert_eq!(
        template.is_some(),
        canon.is_some(),
        "{text}\nthe template and the canonical key disagree on refusing it"
    );
    Some((template?.0, canon?))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn alpha_renaming_and_pattern_permutation_preserve_the_shape_key(
        spec in arb_spec(),
        seed in any::<u64>(),
    ) {
        let identity: Vec<usize> = (0..spec.patterns.len()).collect();
        let base_name = |v: usize| format!("v{v}");
        let base = spec.assemble(&base_name, &spec.slots(&base_name), &identity);

        // Rename every variable (a bijection with fresh spellings) and
        // reorder the patterns.
        let renames = shuffled(8, seed ^ 0x9e3779b97f4a7c15);
        let new_name = |v: usize| format!("r{}", renames[v]);
        let order = shuffled(spec.patterns.len(), seed);
        let variant = spec.assemble(&new_name, &spec.slots(&new_name), &order);

        let a = canon_of(&base);
        let b = canon_of(&variant);
        prop_assert_eq!(&a.key, &b.key, "base:\n{}\nvariant:\n{}", base, variant);
        // Same shape, same constants: the hoisted parameters must match
        // as a multiset. (Patterns whose ordering signatures tie may
        // swap canonical positions between the two spellings, permuting
        // the vector; instantiation substitutes by value, so a permuted
        // vector still reconstructs the right query.)
        let mut pa = a.params.clone();
        let mut pb = b.params.clone();
        pa.sort_by_key(|t| t.to_string());
        pb.sort_by_key(|t| t.to_string());
        prop_assert_eq!(pa, pb);
    }

    #[test]
    fn constant_changes_keep_the_shape_key_but_change_the_request_text(
        spec in arb_spec(),
    ) {
        let order: Vec<usize> = (0..spec.patterns.len()).collect();
        let name = |v: usize| format!("v{v}");
        let slots = spec.slots(&name);
        let base = spec.assemble(&name, &slots, &order);

        // Swap one constant object (if any) for a fresh value of the
        // same kind: a different query instance of the same template. A
        // constant shared across slots is ONE template parameter, so
        // every occurrence changes together — replacing only one would
        // alter the sharing structure, which is legitimately part of
        // the shape (positional parameters could not line up otherwise).
        let Some(target) = spec.patterns.iter().position(|(_, _, o)| !matches!(o, Obj::Var(_)))
        else {
            return Ok(()); // no constant object generated this round
        };
        let old = slots[target][2].clone();
        let fresh = if old.starts_with('"') {
            "\"FRESH\"".to_string()
        } else {
            "<http://e/fresh>".to_string()
        };
        let mut changed = slots.clone();
        for slot in &mut changed {
            if slot[2] == old {
                slot[2] = fresh.clone();
            }
        }
        let variant = spec.assemble(&name, &changed, &order);
        prop_assert_ne!(&base, &variant); // result-cache key (exact text) must differ

        let a = canon_of(&base);
        let b = canon_of(&variant);
        prop_assert_eq!(&a.key, &b.key, "base:\n{}\nvariant:\n{}", base, variant);
        prop_assert_ne!(&a.params, &b.params); // the new constant must surface as a parameter

        // The same through the token template: equal token shapes whose
        // slot checks pass give the variant's own constants, in
        // first-occurrence order.
        let (template, _) = template_of(&base).expect("cacheable");
        prop_assert_eq!(skeleton(&tokens(&base)), skeleton(&tokens(&variant)));
        prop_assert_eq!(template.params(&tokens(&variant)), Some(Spec::params(&changed)));

        // A *predicate* change is not a template instance: predicates
        // stay literal in the key, so the key must differ.
        let mut repredicated = slots.clone();
        repredicated[target][1] = "<http://e/freshp>".to_string();
        let repredicated = spec.assemble(&name, &repredicated, &order);
        let c = canon_of(&repredicated);
        prop_assert_ne!(&a.key, &c.key); // predicate changes must change the shape key
        prop_assert_eq!(template.params(&tokens(&repredicated)), None);
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Soundness of the token template over texts built to trip it: two
    /// instances of one generated template whose constants were redrawn
    /// from tiny pools (see [`Instance`]). Whenever their skeletons agree
    /// and the first one's template accepts the second, the second has the
    /// first one's canonical key and the accepted parameters are its own
    /// constants, in first-occurrence order.
    #[test]
    fn token_templates_accept_only_texts_with_their_canonical_key(
        instance in arb_instance(),
        seed in any::<u64>(),
    ) {
        let base = instance.render();
        let varied = instance.vary(seed);
        let variant = varied.render();
        let Some((template, canon)) = template_of(&base) else {
            return Ok(()); // a shape the plan tier does not cache
        };
        let variant_tokens = tokens(&variant);
        if skeleton(&tokens(&base)) != skeleton(&variant_tokens) {
            return Ok(()); // looked up under another skeleton
        }
        let Some(params) = template.params(&variant_tokens) else {
            return Ok(());
        };
        let query = JoinQuery::parse(&variant);
        prop_assert!(query.is_ok(), "base:\n{}\nvariant:\n{}", base, variant);
        let accepted = canonicalize(&query.expect("checked"));
        prop_assert!(accepted.is_some(), "base:\n{}\nvariant:\n{}", base, variant);
        let accepted = accepted.expect("checked");
        prop_assert_eq!(&accepted.key, &canon.key, "base:\n{}\nvariant:\n{}", base, variant);
        prop_assert_eq!(&varied.params(), &params, "base:\n{}\nvariant:\n{}", base, variant);
    }
}

// ------------------------------------------------------------ token templates

/// `PREFIX e:` resolves through one of these. An IRI spelled with either
/// may equal the PREFIX IRI itself (the empty local part).
const BASES: [&str; 2] = ["http://e/", "http://f/"];
/// IRI local parts: `p1` makes an object equal to the predicate `e:p1`.
const LOCALS: [&str; 3] = ["o1", "p1", ""];
const XSD_BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";

/// A constant token. The pools are tiny on purpose: two instances then
/// often share or split constants, and constants often equal a predicate,
/// the PREFIX IRI, each other across kinds, or the LIMIT / OFFSET counts.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Const {
    /// `<{BASES[b]}{LOCALS[l]}>`.
    Iri(usize, usize),
    /// `e:{LOCALS[l]}`.
    Prefixed(usize),
    /// `"A"` or `"B"`.
    Lit(usize),
    /// An `xsd:integer`, 1 to 3.
    Num(usize),
    /// `"true"^^xsd:boolean`, or the keyword `false`.
    Bool(bool),
}

impl Const {
    fn render(self) -> String {
        match self {
            Const::Iri(b, l) => format!("<{}{}>", BASES[b], LOCALS[l]),
            Const::Prefixed(l) => format!("e:{}", LOCALS[l]),
            Const::Lit(i) => format!("\"{}\"", ["A", "B"][i]),
            Const::Num(n) => n.to_string(),
            Const::Bool(true) => format!("\"true\"^^<{XSD_BOOLEAN}>"),
            Const::Bool(false) => "false".to_string(),
        }
    }

    /// Another constant drawn from `r`: of the same kind seven times in
    /// eight, of any kind otherwise.
    fn redraw(self, r: u64) -> Const {
        let (b, l, i, n) = (
            (r >> 8) as usize % 2,
            (r >> 16) as usize % 3,
            (r >> 24) as usize % 2,
            1 + (r >> 32) as usize % 3,
        );
        let kind = if r.is_multiple_of(8) {
            (r >> 40) as usize % 5
        } else {
            self.kind()
        };
        match kind {
            0 => Const::Iri(b, l),
            1 => Const::Prefixed(l),
            2 => Const::Lit(i),
            3 => Const::Num(n),
            _ => Const::Bool(i == 0),
        }
    }

    /// The term the text spells, with `e:` bound to `BASES[base]`.
    fn term(self, base: usize) -> Term {
        match self {
            Const::Iri(b, l) => Term::iri(format!("{}{}", BASES[b], LOCALS[l])),
            Const::Prefixed(l) => Term::iri(format!("{}{}", BASES[base], LOCALS[l])),
            Const::Lit(i) => Term::literal(["A", "B"][i]),
            Const::Num(n) => Term::typed_literal(n.to_string(), vocab::XSD_INTEGER),
            Const::Bool(b) => Term::typed_literal(b.to_string(), XSD_BOOLEAN),
        }
    }

    fn kind(self) -> usize {
        match self {
            Const::Iri(..) => 0,
            Const::Prefixed(_) => 1,
            Const::Lit(_) => 2,
            Const::Num(_) => 3,
            Const::Bool(_) => 4,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Slot {
    Var(usize),
    Const(Const),
}

/// A predicate as the text spells it.
#[derive(Debug, Clone, Copy)]
enum Pred {
    /// `<{BASES[b]}p{k}>`.
    Full(usize, usize),
    /// `e:p{k}`.
    Prefixed(usize),
    /// `a`.
    A,
    /// `rdf:type`.
    RdfType,
}

impl Pred {
    fn render(self) -> String {
        match self {
            Pred::Full(b, k) => format!("<{}p{k}>", BASES[b]),
            Pred::Prefixed(k) => format!("e:p{k}"),
            Pred::A => "a".to_string(),
            Pred::RdfType => "rdf:type".to_string(),
        }
    }
}

/// One instance of a template: a PREFIX declaration, patterns, an optional
/// FILTER comparing a variable with a constant, optional LIMIT / OFFSET.
#[derive(Debug, Clone)]
struct Instance {
    base: usize,
    patterns: Vec<(Slot, Pred, Slot)>,
    filter: Option<(usize, Const)>,
    limit: Option<usize>,
    offset: Option<usize>,
}

impl Instance {
    fn used_vars(&self) -> Vec<usize> {
        let mut used: Vec<usize> = Vec::new();
        for (s, _, o) in &self.patterns {
            for slot in [s, o] {
                if let Slot::Var(v) = slot {
                    if !used.contains(v) {
                        used.push(*v);
                    }
                }
            }
        }
        used.sort_unstable();
        used
    }

    /// The constants in text order, deduplicated by value: what a
    /// template numbers as its parameters.
    fn params(&self) -> Vec<Term> {
        let slots = self.patterns.iter().flat_map(|(s, _, o)| [s, o]);
        let consts = slots.filter_map(|slot| match slot {
            Slot::Const(c) => Some(*c),
            Slot::Var(_) => None,
        });
        let mut params = Vec::new();
        for c in consts.chain(self.filter.map(|(_, c)| c)) {
            let term = c.term(self.base);
            if !params.contains(&term) {
                params.push(term);
            }
        }
        params
    }

    fn render(&self) -> String {
        let mut text = format!(
            "PREFIX e: <{}> PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\nSELECT",
            BASES[self.base]
        );
        let used = self.used_vars();
        for v in &used {
            text.push_str(&format!(" ?v{v}"));
        }
        text.push_str(" WHERE {");
        let slot = |s: &Slot| match s {
            Slot::Var(v) => format!("?v{v}"),
            Slot::Const(c) => c.render(),
        };
        for (s, p, o) in &self.patterns {
            text.push_str(&format!(" {} {} {} .", slot(s), p.render(), slot(o)));
        }
        if let Some((v, c)) = self.filter {
            // Filter a variable the patterns bind.
            let v = if used.contains(&v) { v } else { used[0] };
            text.push_str(&format!(" FILTER (?v{v} > {})", c.render()));
        }
        text.push_str(" }");
        if let Some(n) = self.limit {
            text.push_str(&format!(" LIMIT {n}"));
        }
        if let Some(n) = self.offset {
            text.push_str(&format!(" OFFSET {n}"));
        }
        text
    }

    /// A second instance, from `seed`. Half the time every value is
    /// redrawn on its own: each constant (see [`Const::redraw`]), the
    /// PREFIX IRI and the LIMIT / OFFSET counts now and then, a predicate's
    /// spelling rarely. The other half renames values consistently — one
    /// permutation of the numbers for constants and counts alike, one of
    /// the two bases for IRIs and the PREFIX IRI alike — which is what a
    /// template that matched slots by value would take for an instance.
    fn vary(&self, seed: u64) -> Instance {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 16
        };
        let mut out = self.clone();
        if next().is_multiple_of(2) {
            let flip = next() % 2;
            let swap_lits = next() % 2;
            let rotate = next() as usize % 3;
            let base = |b: usize| (b + flip as usize) % 2;
            let number = |n: usize| 1 + (n - 1 + rotate) % 3;
            let rename = |c: &mut Const| match c {
                Const::Iri(b, _) => *b = base(*b),
                Const::Lit(i) => *i = (*i + swap_lits as usize) % 2,
                Const::Num(n) => *n = number(*n),
                Const::Prefixed(_) | Const::Bool(_) => {}
            };
            out.base = base(out.base);
            for (s, _, o) in &mut out.patterns {
                for slot in [&mut *s, &mut *o] {
                    if let Slot::Const(c) = slot {
                        rename(c);
                    }
                }
            }
            if let Some((_, c)) = &mut out.filter {
                rename(c);
            }
            for count in [&mut out.limit, &mut out.offset].into_iter().flatten() {
                *count = number(*count);
            }
            return out;
        }
        if next().is_multiple_of(4) {
            out.base = 1 - out.base;
        }
        for (s, p, o) in &mut out.patterns {
            for slot in [&mut *s, &mut *o] {
                if let Slot::Const(c) = slot {
                    *c = c.redraw(next());
                }
            }
            let r = next();
            if r.is_multiple_of(8) {
                *p = [Pred::Full(1, 1), Pred::Prefixed(2), Pred::A, Pred::RdfType]
                    [(r >> 8) as usize % 4];
            }
        }
        if let Some((_, c)) = &mut out.filter {
            *c = c.redraw(next());
        }
        for count in [&mut out.limit, &mut out.offset].into_iter().flatten() {
            if next().is_multiple_of(2) {
                *count = 1 + next() as usize % 3;
            }
        }
        out
    }
}

fn arb_const() -> impl Strategy<Value = Const> {
    prop_oneof![
        3 => (0usize..2, 0usize..3).prop_map(|(b, l)| Const::Iri(b, l)),
        2 => (0usize..3).prop_map(Const::Prefixed),
        3 => (0usize..2).prop_map(Const::Lit),
        3 => (1usize..4).prop_map(Const::Num),
        1 => any::<bool>().prop_map(Const::Bool),
    ]
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    let slot = prop_oneof![
        (0usize..3).prop_map(Slot::Var),
        arb_const().prop_map(Slot::Const),
    ];
    let pred = prop_oneof![
        3 => (0usize..2, 1usize..3).prop_map(|(b, k)| Pred::Full(b, k)),
        2 => (1usize..3).prop_map(Pred::Prefixed),
        1 => Just(Pred::A),
        1 => Just(Pred::RdfType),
    ];
    let count = || prop_oneof![Just(None), (1usize..4).prop_map(Some)];
    (
        0usize..2,
        prop::collection::vec((slot.clone(), pred, slot), 1..4),
        prop_oneof![Just(None), (0usize..3, arb_const()).prop_map(Some)],
        count(),
        count(),
    )
        .prop_map(|(base, mut patterns, filter, limit, offset)| {
            // At least one projected variable.
            patterns[0].0 = Slot::Var(0);
            Instance {
                base,
                patterns,
                filter,
                limit,
                offset,
            }
        })
}
