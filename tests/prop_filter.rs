//! One FILTER semantics: a residual FILTER runs SPARQL's typed operator
//! mapping whatever its shape. Over generated filters `e` (comparisons,
//! `&&`, `||`, `!` over variables and constants, with no top-level
//! variable/constant `=` conjunct, which is term equality by design) and a
//! store mixing plain, `xsd:integer`, non-canonical numeric, `xsd:decimal`
//! and language-tagged literals with IRIs, three forms of the same
//! condition must keep the same rows under every planner, through the
//! pipeline executor and the operator-at-a-time oracle alike:
//! `FILTER (e)`, `FILTER (!(!(e)))`, and `e` lowered straight to one
//! [`FilterExpr::Complex`].

use hsp_baseline::{plan, Planner};
use hsp_engine::exec::{execute, ExecConfig, ExecStrategy};
use hsp_rdf::{vocab, Term, TermId};
use hsp_sparql::algebra::lower_expr_ast;
use hsp_sparql::ast::Element;
use hsp_sparql::{parse_query, FilterExpr, JoinQuery, Var};
use hsp_store::Dataset;
use proptest::prelude::*;

/// The value pool: every store object and every filter constant is one of
/// these.
fn pool() -> Vec<Term> {
    let int = |s: &str| Term::typed_literal(s, vocab::XSD_INTEGER);
    let dec = |s: &str| Term::typed_literal(s, vocab::XSD_DECIMAL);
    vec![
        Term::literal("9"),
        Term::literal("10"),
        Term::literal("01"),
        Term::literal("abc"),
        int("1"),
        int("9"),
        int("10"),
        int("01"),
        dec("1.0"),
        dec("9.5"),
        Term::lang_literal("9", "en"),
        Term::lang_literal("abc", "en"),
        Term::iri("http://e/v1"),
        Term::iri("http://e/v2"),
    ]
}

/// A comparison operand: `?x`, `?y` or a pool constant.
#[derive(Debug, Clone)]
enum Opd {
    X,
    Y,
    Const(usize),
}

/// A generated FILTER condition.
#[derive(Debug, Clone)]
enum Cond {
    Cmp(&'static str, Opd, Opd),
    And(Box<Cond>, Box<Cond>),
    Or(Box<Cond>, Box<Cond>),
    Not(Box<Cond>),
}

impl Cond {
    fn render(&self, pool: &[Term]) -> String {
        let opd = |o: &Opd| match o {
            Opd::X => "?x".to_string(),
            Opd::Y => "?y".to_string(),
            Opd::Const(i) => pool[*i].to_string(),
        };
        match self {
            Cond::Cmp(op, l, r) => format!("({} {op} {})", opd(l), opd(r)),
            Cond::And(a, b) => format!("({} && {})", a.render(pool), b.render(pool)),
            Cond::Or(a, b) => format!("({} || {})", a.render(pool), b.render(pool)),
            Cond::Not(a) => format!("(!{})", a.render(pool)),
        }
    }

    /// `true` if a top-level conjunct is an `=` comparison, which lowering
    /// keeps as term equality.
    fn has_top_level_eq(&self) -> bool {
        match self {
            Cond::Cmp(op, ..) => *op == "=",
            Cond::And(a, b) => a.has_top_level_eq() || b.has_top_level_eq(),
            _ => false,
        }
    }
}

fn arb_cond(pool_len: usize) -> impl Strategy<Value = Cond> {
    let opd = prop_oneof![
        Just(Opd::X),
        Just(Opd::Y),
        (0..pool_len).prop_map(Opd::Const),
    ];
    let op = prop::sample::select(vec!["=", "!=", "<", "<=", ">", ">="]);
    let leaf = (op, opd.clone(), opd).prop_map(|(op, l, r)| Cond::Cmp(op, l, r));
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Cond::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Cond::Or(Box::new(a), Box::new(b))),
            inner.prop_map(|a| Cond::Not(Box::new(a))),
        ]
    })
    .prop_filter("no top-level `=` conjunct", |c| !c.has_top_level_eq())
}

/// Subjects with one `a` and one `b` value each, drawn from the pool.
fn arb_store(pool_len: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0..pool_len, 0..pool_len), 1..12)
}

fn dataset(pool: &[Term], store: &[(usize, usize)]) -> Dataset {
    let mut doc = String::new();
    for (i, &(a, b)) in store.iter().enumerate() {
        doc.push_str(&format!("<http://e/s{i}> <http://e/a> {} .\n", pool[a]));
        doc.push_str(&format!("<http://e/s{i}> <http://e/b> {} .\n", pool[b]));
    }
    Dataset::from_ntriples(&doc).expect("generated N-Triples parse")
}

fn query_text(filter: &str) -> String {
    format!("SELECT ?s ?x ?y WHERE {{ ?s <http://e/a> ?x . ?s <http://e/b> ?y . FILTER {filter} }}")
}

/// `filter` lowered with no conjunct split and no term equality: the
/// query's one FILTER becomes one [`FilterExpr::Complex`].
fn straight_to_complex(filter: &str) -> JoinQuery {
    let text = query_text(filter);
    let mut query = JoinQuery::parse(&text).expect("generated query lowers");
    let ast = parse_query(&text).expect("generated query parses");
    let Some(Element::Filter(expr)) = ast.where_clause.elements.last() else {
        unreachable!("the query ends in its FILTER")
    };
    let names = query.var_names.clone();
    let var = |n: &str| Var(names.iter().position(|m| m == n).expect("named variable") as u32);
    query.filters = vec![FilterExpr::Complex(
        lower_expr_ast(expr, &mut |n| var(n)).expect("generated filter lowers"),
    )];
    query
}

/// The decoded, sorted `(?s, ?x, ?y)` rows `query` returns.
fn rows(
    ds: &Dataset,
    query: &JoinQuery,
    planner: Planner,
    strategy: ExecStrategy,
) -> Vec<Vec<Term>> {
    let planned = plan(planner, ds, query).expect("a two-pattern star plans");
    let out = execute(
        &planned.plan,
        ds,
        &ExecConfig::unlimited().with_strategy(strategy),
    )
    .expect("executes");
    let cols: Vec<Var> = planned.query.projection.iter().map(|&(_, v)| v).collect();
    let mut rows: Vec<Vec<Term>> = (0..out.table.len())
        .map(|i| {
            cols.iter()
                .map(|&v| {
                    let id: TermId = out.table.value(v, i);
                    ds.dict().term(id).clone()
                })
                .collect()
        })
        .collect();
    rows.sort_by_key(|r| format!("{r:?}"));
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn residual_filters_have_one_semantics(
        cond in arb_cond(pool().len()),
        store in arb_store(pool().len()),
    ) {
        let pool = pool();
        let ds = dataset(&pool, &store);
        let e = cond.render(&pool);
        let forms = [
            JoinQuery::parse(&query_text(&format!("({e})"))).expect("lowers"),
            JoinQuery::parse(&query_text(&format!("(!(!{e}))"))).expect("lowers"),
            straight_to_complex(&format!("({e})")),
        ];
        let want = rows(&ds, &forms[2], Planner::Hsp, ExecStrategy::OperatorAtATime);
        for planner in Planner::ALL {
            for strategy in [ExecStrategy::Pipelined, ExecStrategy::OperatorAtATime] {
                for (i, form) in forms.iter().enumerate() {
                    prop_assert_eq!(
                        rows(&ds, form, planner, strategy),
                        want.clone(),
                        "FILTER {} form {} via {:?}/{:?}",
                        e,
                        i,
                        planner,
                        strategy
                    );
                }
            }
        }
    }
}
